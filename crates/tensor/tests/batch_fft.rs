//! Batched-FFT contract: the plane-slice entry points (`process_planes`,
//! `convolve_planes`) over `B` planes must be **bit-identical** to `B`
//! one-plane calls, across batch sizes, shapes (square and non-square),
//! and FFT code paths (radix-2, mixed-radix Stockham, Rader, and
//! Bluestein) — and every forced SIMD dispatch level must be bitwise
//! identical to forced scalar (1-lane groups). This is the invariant the
//! whole batched propagation stack inherits. The entry points reject a
//! slice of partial planes and a workspace or transfer of another shape.

use lr_tensor::{Complex64, Direction, Fft2, Fft2Workspace, Field, FieldBatch};
use proptest::prelude::*;

fn plane_value(b: usize, r: usize, c: usize, seed: u64) -> Complex64 {
    Complex64::new(
        ((b as u64 * 131 + r as u64 * 31 + c as u64 * 7 + seed) % 23) as f64 / 23.0 - 0.5,
        ((b as u64 * 17 + r as u64 * 5 + c as u64 * 13 + seed) % 19) as f64 / 19.0 - 0.5,
    )
}

/// Runs both paths over a fresh batch and asserts exact equality. The
/// forward pass goes through the `FieldBatch` / `Field` forwards perfbench
/// calls, which proves they match.
fn assert_batched_matches_per_plane(batch_size: usize, rows: usize, cols: usize, seed: u64) {
    let fft = Fft2::new(rows, cols);
    let mut batch = FieldBatch::zeros(batch_size, rows, cols);
    let mut fields: Vec<Field> = Vec::with_capacity(batch_size);
    for b in 0..batch_size {
        let f = Field::from_fn(rows, cols, |r, c| plane_value(b, r, c, seed));
        batch.copy_plane_from(b, &f);
        fields.push(f);
    }

    let mut batch_ws = fft.make_batch_workspace();
    let mut plane_ws = fft.make_workspace();

    fft.fft2_batch_with(&mut batch, &mut batch_ws);
    for (b, f) in fields.iter_mut().enumerate() {
        fft.process_with(f, Direction::Forward, &mut plane_ws);
        assert_eq!(
            batch.plane(b),
            f.as_slice(),
            "forward batched/per-plane divergence at plane {b} ({rows}x{cols})"
        );
    }

    fft.process_planes(batch.as_mut_slice(), Direction::Inverse, &mut batch_ws);
    for (b, f) in fields.iter_mut().enumerate() {
        fft.process_planes(f.as_mut_slice(), Direction::Inverse, &mut plane_ws);
        assert_eq!(
            batch.plane(b),
            f.as_slice(),
            "inverse batched/per-plane divergence at plane {b} ({rows}x{cols})"
        );
    }
}

#[test]
fn batched_fft_bit_identical_across_paths_and_batch_sizes() {
    // Shapes cover every plan kind: 16/32 (radix-2), 20 = 2²·5 and
    // 24 = 2³·3 (mixed-radix Stockham), 22 = 2·11 and 26 = 2·13
    // (Bluestein), plus non-square mixes of different kinds per axis.
    for &(rows, cols) in &[
        (16, 16),
        (20, 20),
        (22, 22),
        (16, 20),
        (20, 26),
        (22, 32),
        (26, 24),
    ] {
        for &batch_size in &[1usize, 3, 8] {
            assert_batched_matches_per_plane(batch_size, rows, cols, 42);
        }
    }
}

#[test]
fn batched_roundtrip_recovers_input() {
    let fft = Fft2::new(20, 22);
    let mut batch = FieldBatch::zeros(4, 20, 22);
    for b in 0..4 {
        let f = Field::from_fn(20, 22, |r, c| plane_value(b, r, c, 7));
        batch.copy_plane_from(b, &f);
    }
    let orig = batch.clone();
    let mut ws = fft.make_workspace();
    fft.process_planes(batch.as_mut_slice(), Direction::Forward, &mut ws);
    fft.process_planes(batch.as_mut_slice(), Direction::Inverse, &mut ws);
    for b in 0..4 {
        for (x, y) in batch.plane(b).iter().zip(orig.plane(b)) {
            assert!((*x - *y).norm() < 1e-9, "roundtrip failed at plane {b}");
        }
    }
}

#[test]
fn one_workspace_serves_shrinking_and_growing_batches() {
    // The same workspace must serve any active batch size at its shape —
    // the serving runtime reuses one per (worker, model) across
    // micro-batches of every size.
    let fft = Fft2::new(22, 20);
    let mut ws = fft.make_workspace();
    let mut batch = FieldBatch::with_capacity(8, 22, 20);
    for &n in &[8usize, 1, 5, 2] {
        batch.set_batch(n);
        for b in 0..n {
            let f = Field::from_fn(22, 20, |r, c| plane_value(b, r, c, n as u64));
            batch.copy_plane_from(b, &f);
        }
        fft.process_planes(batch.as_mut_slice(), Direction::Forward, &mut ws);
        let mut plane_ws = fft.make_workspace();
        for b in 0..n {
            let mut f = Field::from_fn(22, 20, |r, c| plane_value(b, r, c, n as u64));
            fft.process_planes(f.as_mut_slice(), Direction::Forward, &mut plane_ws);
            assert_eq!(batch.plane(b), f.as_slice());
        }
    }
}

/// Lane independence of the one kernel family: every forced dispatch level
/// the CPU can execute (lanes spanning 2 and 4 rows or columns of a plane)
/// produces **bitwise identical** batched FFT and spectrum-convolution
/// results to forced scalar, where every row and column runs as a 1-lane
/// group — each vector lane performs the 1-lane operation sequence, so
/// there is no tolerance to negotiate on these paths. Covers batch sizes
/// {1, 3, 32}, row and column counts that leave 2-lane and 1-lane
/// leftovers at x4, non-square grids, and every plan kind: radix-2 (16),
/// mixed-radix Stockham (20, 24, 200, and 21, 35, 49, 63 for direct
/// radix-3 and radix-7 stages), Rader primes (31: 30 = 2·3·5; 197:
/// 196 = 2²·7²), and Bluestein (23 and 198, whose 22 and 198 have the
/// factor 11). The grids of at least 32768 samples run the vector levels
/// at two threads, so their row groups and column blocks split across the
/// worker pool, against an oracle run on one thread.
///
/// `simd::force` and `parallel::set_threads` are process-global; a level
/// or thread-count flip mid-run cannot break the other tests here
/// (batched == per-plane holds bitwise at every level and thread count),
/// and both are restored before returning.
#[test]
fn forced_simd_levels_bitwise_match_scalar_oracle() {
    use lr_tensor::parallel;
    use lr_tensor::simd::{self, SimdLevel};

    let small: &[usize] = &[1, 3, 32];
    let pooled: &[usize] = &[1, 3];
    for &(rows, cols, batch_sizes) in &[
        (16, 16, small),
        (20, 24, small),
        (31, 31, small),
        (23, 23, small),
        (31, 24, small),
        (16, 23, small),
        // Stockham planes with direct radix-3 and radix-7 stages: 21 = 3·7,
        // 49 = 7·7, 63 = 3·3·7, 35 = 5·7.
        (21, 49, small),
        (63, 35, small),
        (197, 200, pooled),
        (200, 198, pooled),
        (198, 197, pooled),
    ] {
        let threads = if rows * cols >= 32_768 { 2 } else { 0 };
        let fft = Fft2::new(rows, cols);
        let transfer = Field::from_fn(rows, cols, |r, c| plane_value(9, r, c, 5));
        for &batch_size in batch_sizes {
            let fill = |batch: &mut FieldBatch| {
                for b in 0..batch_size {
                    let f = Field::from_fn(rows, cols, |r, c| plane_value(b, r, c, 3));
                    batch.copy_plane_from(b, &f);
                }
            };

            // Scalar oracle: one forward transform, one spectrum convolve.
            parallel::set_threads(1);
            simd::force(Some(SimdLevel::Scalar));
            let mut oracle_fft = FieldBatch::zeros(batch_size, rows, cols);
            fill(&mut oracle_fft);
            let mut ws = fft.make_workspace();
            fft.process_planes(oracle_fft.as_mut_slice(), Direction::Forward, &mut ws);
            let mut oracle_conv = FieldBatch::zeros(batch_size, rows, cols);
            fill(&mut oracle_conv);
            fft.convolve_planes(oracle_conv.as_mut_slice(), &transfer, &mut ws);

            parallel::set_threads(threads);
            for level in [SimdLevel::X2, SimdLevel::X4] {
                simd::force(Some(level));
                if simd::dispatch() != level {
                    // Clamped: this CPU cannot execute the requested width.
                    continue;
                }
                let mut got = FieldBatch::zeros(batch_size, rows, cols);
                fill(&mut got);
                fft.process_planes(got.as_mut_slice(), Direction::Forward, &mut ws);
                for b in 0..batch_size {
                    assert_eq!(
                        got.plane(b),
                        oracle_fft.plane(b),
                        "fft2 {level:?} vs scalar divergence at plane {b}/{batch_size} \
                         ({rows}x{cols})"
                    );
                }
                let mut got = FieldBatch::zeros(batch_size, rows, cols);
                fill(&mut got);
                fft.convolve_planes(got.as_mut_slice(), &transfer, &mut ws);
                for b in 0..batch_size {
                    assert_eq!(
                        got.plane(b),
                        oracle_conv.plane(b),
                        "convolve {level:?} vs scalar divergence at plane {b}/{batch_size} \
                         ({rows}x{cols})"
                    );
                }
            }
        }
    }
    simd::force(None);
    parallel::set_threads(0);
}

/// The three entry points, each over `planes` with `transfer` and `ws`.
fn each_entry_point(
    fft: &Fft2,
    planes: &mut [Complex64],
    transfer: &Field,
    ws: &mut Fft2Workspace,
) {
    fft.process_planes(planes, Direction::Forward, ws);
    fft.convolve_planes(planes, transfer, ws);
    fft.convolve_planes_adjoint(planes, transfer, ws);
}

#[test]
#[should_panic(expected = "Fft2 plane length mismatch")]
fn process_planes_rejects_a_partial_plane() {
    let fft = Fft2::new(4, 6);
    let mut planes = vec![Complex64::ONE; 2 * 24 + 6];
    fft.process_planes(&mut planes, Direction::Forward, &mut fft.make_workspace());
}

#[test]
#[should_panic(expected = "Fft2 plane length mismatch")]
fn convolve_planes_rejects_a_partial_plane() {
    let fft = Fft2::new(4, 6);
    let mut planes = vec![Complex64::ONE; 23];
    fft.convolve_planes(&mut planes, &Field::ones(4, 6), &mut fft.make_workspace());
}

/// A workspace of another shape is rejected even when its planes hold as
/// many samples.
#[test]
#[should_panic(expected = "Fft2 workspace shape mismatch")]
fn process_planes_rejects_a_workspace_of_another_shape() {
    let fft = Fft2::new(4, 6);
    let mut planes = vec![Complex64::ONE; 24];
    let mut ws = Fft2::new(6, 4).make_workspace();
    fft.process_planes(&mut planes, Direction::Inverse, &mut ws);
}

#[test]
#[should_panic(expected = "Fft2 workspace shape mismatch")]
fn convolve_planes_rejects_a_workspace_of_another_shape() {
    let fft = Fft2::new(4, 6);
    let mut planes = vec![Complex64::ONE; 48];
    let mut ws = Fft2::new(8, 3).make_workspace();
    fft.convolve_planes_adjoint(&mut planes, &Field::ones(4, 6), &mut ws);
}

#[test]
#[should_panic(expected = "transfer shape mismatch")]
fn convolve_planes_rejects_a_transfer_of_another_shape() {
    let fft = Fft2::new(4, 6);
    let mut planes = vec![Complex64::ONE; 24];
    fft.convolve_planes(&mut planes, &Field::ones(6, 4), &mut fft.make_workspace());
}

/// A zero-plane slice is the empty batch: every entry point returns
/// without touching the workspace.
#[test]
fn zero_plane_slice_is_a_no_op() {
    let fft = Fft2::new(20, 23);
    let mut ws = fft.make_workspace();
    let bytes = ws.resident_bytes();
    each_entry_point(&fft, &mut [], &Field::ones(20, 23), &mut ws);
    assert_eq!(ws.resident_bytes(), bytes);
    // The workspace still serves a real plane afterwards.
    let mut plane = Field::from_fn(20, 23, |r, c| plane_value(0, r, c, 1));
    let mut expect = plane.clone();
    each_entry_point(&fft, plane.as_mut_slice(), &Field::ones(20, 23), &mut ws);
    each_entry_point(
        &fft,
        expect.as_mut_slice(),
        &Field::ones(20, 23),
        &mut fft.make_workspace(),
    );
    assert_eq!(plane, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched == per-plane on randomized shapes/batch sizes, covering
    /// all three 1-D plan kinds as the shape varies.
    #[test]
    fn batched_matches_per_plane_prop(
        rows in 2usize..28,
        cols in 2usize..28,
        batch_size in 1usize..6,
        seed in 0u64..1000,
    ) {
        assert_batched_matches_per_plane(batch_size, rows, cols, seed);
    }
}
