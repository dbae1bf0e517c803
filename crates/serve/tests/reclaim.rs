//! Memory-lifecycle integration tests for the serving runtime: the
//! drain-fenced `Server::reclaim` must measurably free a retired model's
//! per-worker workspaces (asserted through the server's resident-bytes
//! accounting), sweep its orphaned transfer kernels and FFT plans from the
//! process-global caches, keep resident memory **flat** across a
//! register→serve→retire→reclaim churn loop, and never perturb concurrent
//! traffic against surviving models (bit-identical throughout).
//!
//! Each `#[test]` uses its own geometry (grid size / pitch / distance) so
//! the process-global caches shared by tests running in parallel threads
//! never alias across tests.

use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    BatchPolicy, ModelLifecycle, ModelRegistry, ReadoutMode, ServeError, Server, Transport,
};
use lr_tensor::{Complex64, Field};
use std::sync::Arc;
use std::time::Duration;

fn donn(n: usize, depth: usize, seed: u64, pitch_um: f64, dist_mm: f64) -> DonnModel {
    let grid = Grid::square(n, PixelPitch::from_um(pitch_um));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(dist_mm))
        .diffractive_layers(depth)
        .detector(Detector::grid_layout(n, n, 4, n / 6))
        .init_seed(seed)
        .build()
}

fn sample(n: usize, phase: usize) -> Field {
    Field::from_fn(n, n, |r, c| {
        Complex64::from_real(if (r + c + phase) % 5 < 2 { 1.0 } else { 0.0 })
    })
}

/// The headline churn property: a long-running server that keeps
/// registering, serving, retiring, and reclaiming model versions holds
/// resident workspace memory **flat** at the long-lived baseline — the
/// leak this subsystem exists to close — while a surviving model keeps
/// serving bit-identical results through every cycle.
#[test]
fn churn_loop_keeps_resident_workspace_memory_flat() {
    let keeper = donn(16, 2, 900, 36.0, 25.0);
    let keeper_input = sample(16, 0);
    let keeper_expected = keeper.infer(&keeper_input);
    let mut registry = ModelRegistry::new();
    registry.register_emulated("keeper", 1, keeper, ReadoutMode::Emulation);
    let server = Server::start(
        registry,
        BatchPolicy {
            shards: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
    );
    let keeper_id = server.resolve("keeper", None).unwrap();
    let baseline = server.stats().resident_workspace_bytes;
    assert!(baseline > 0, "warm workspaces must be accounted");

    let churn_input = sample(24, 1);
    let mut keeper_client = server.client();
    let mut logits = Vec::new();
    for cycle in 0..5u64 {
        // Fresh geometry+stack per cycle, as a DSE sweep or
        // per-perturbation retraining loop would produce. The local model
        // handle is moved into the registry: after retire, nothing
        // outside the runtime pins its memory.
        let model = donn(24, 2, 1000 + cycle, 36.0, 25.0);
        let expected = model.infer(&churn_input);
        let id = server.register_emulated("churn", cycle as u32 + 1, model, ReadoutMode::Emulation);

        let mut client = server.client();
        for _ in 0..3 {
            client.infer(id, &churn_input, &mut logits).unwrap();
            assert_eq!(logits, expected, "churn model must serve correctly");
        }
        let registered = server.stats().resident_workspace_bytes;
        assert!(
            registered > baseline,
            "cycle {cycle}: registration must grow resident memory ({registered} vs {baseline})"
        );

        // Retire + reclaim while the keeper is under concurrent fire from
        // other threads: reclaim must wait out in-flight work, then free,
        // without ever perturbing the survivor.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let server = &server;
                let keeper_input = &keeper_input;
                let keeper_expected = &keeper_expected;
                scope.spawn(move || {
                    let mut client = server.client();
                    let mut logits = Vec::new();
                    for _ in 0..8 {
                        client.infer(keeper_id, keeper_input, &mut logits).unwrap();
                        assert_eq!(
                            &logits, keeper_expected,
                            "survivor must stay bit-identical across retire+reclaim"
                        );
                    }
                });
            }
            assert!(server.retire(id));
            assert!(server.reclaim(id));
        });
        assert_eq!(
            server.lifecycle(id),
            Some(ModelLifecycle::Reclaimed {
                retired_at: server.epoch() - 1
            })
        );
        assert_eq!(
            server.stats().resident_workspace_bytes,
            baseline,
            "cycle {cycle}: reclaim must return resident memory to the baseline"
        );
        assert_eq!(
            client.infer(id, &churn_input, &mut logits),
            Err(ServeError::UnknownModel),
            "reclaimed id must be refused at admission"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.reclaimed_models, 5);
    assert!(
        stats.reclaimed_bytes > 0,
        "reclaims must account the bytes they freed"
    );
    // The keeper never flinched.
    keeper_client
        .infer(keeper_id, &keeper_input, &mut logits)
        .unwrap();
    assert_eq!(logits, keeper_expected);
    server.shutdown();
}

/// Reclaim must also release the retired model's entries in the
/// process-global caches: its diffraction transfer kernel and FFT plans
/// become orphans once the entry `Arc` drops, and the registry-tied sweep
/// evicts them — while a fresh rebuild proves the eviction happened.
#[test]
fn reclaim_sweeps_orphaned_transfer_kernels_and_plans() {
    // Geometry unique to this test (pitch 29 µm, 22² grid, 21 mm hops):
    // no other test in this binary can pin or rebuild these cache keys.
    let n = 22;
    let pitch = PixelPitch::from_um(29.0);
    let grid = Grid::square(n, pitch);
    let wavelength = Wavelength::from_nm(532.0);
    let dist = Distance::from_mm(21.0);
    let model = donn(n, 2, 777, 29.0, 21.0);
    let input = sample(n, 2);
    let expected = model.infer(&input);

    let mut registry = ModelRegistry::new();
    registry.register_emulated("tmp", 1, model, ReadoutMode::Emulation);
    let server = Server::start(registry, BatchPolicy::default());
    let id = server.resolve("tmp", None).unwrap();

    // While the model is live, its kernel is pinned: the cached lookup
    // returns the very Arc the model's propagators hold.
    let pinned = lr_optics::rayleigh_sommerfeld_tf_cached(&grid, wavelength, dist, true);
    assert!(
        Arc::strong_count(&pinned) > 2,
        "the live model must pin its transfer kernel (count {})",
        Arc::strong_count(&pinned)
    );
    drop(pinned);

    let mut client = server.client();
    let mut logits = Vec::new();
    client.infer(id, &input, &mut logits).unwrap();
    assert_eq!(logits, expected);

    assert!(server.retire(id));
    assert!(server.reclaim(id));

    // The kernel and the grid-length FFT plan were evicted with the
    // model: rebuilding yields fresh entries owned only by the cache and
    // this test. (The per-server `swept_cache_entries` counter is not
    // asserted here — a sibling test's reclaim sweeping the shared
    // process-global caches could legitimately get there first.)
    let rebuilt = lr_optics::rayleigh_sommerfeld_tf_cached(&grid, wavelength, dist, true);
    assert_eq!(
        Arc::strong_count(&rebuilt),
        2,
        "retired model's transfer kernel must have been swept"
    );
    let plan = lr_tensor::planner(n);
    assert_eq!(
        Arc::strong_count(&plan),
        2,
        "retired model's FFT plan must have been swept"
    );
    server.shutdown();
}
