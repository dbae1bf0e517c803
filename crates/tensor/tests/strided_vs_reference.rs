//! Property tests for the zero-copy FFT2 pipeline: the strided
//! cache-blocked kernel (with radix-4 / mixed-radix butterflies) must agree
//! with the pre-change transpose-based reference to ≤ 1e-12 relative error
//! on the paper's system resolutions and on non-square shapes, and the
//! persistent worker pool must be bit-deterministic across thread counts.

use lr_tensor::{parallel, Complex64, Direction, Fft2, FftPlan, Field};

fn test_field(rows: usize, cols: usize, seed: u64) -> Field {
    Field::from_fn(rows, cols, |r, c| {
        let x = (r as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add((c as u64).wrapping_mul(1_442_695_040_888_963_407))
            .wrapping_add(seed);
        let a = ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        let y = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let b = ((y >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        Complex64::new(a, b)
    })
}

fn assert_matches_reference(rows: usize, cols: usize, seed: u64) {
    let fft = Fft2::new(rows, cols);
    let base = test_field(rows, cols, seed);
    let mut ws = fft.make_workspace();
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut fast = base.clone();
        fft.process_planes(fast.as_mut_slice(), dir, &mut ws);
        let mut slow = base.clone();
        fft.process_reference(&mut slow, dir);
        let scale = slow.max_norm().max(1e-30);
        for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-12 * scale,
                "strided kernel diverged from transpose reference at {rows}x{cols} \
                 sample {i} ({dir:?}): {a:?} vs {b:?} (scale {scale:.3e})"
            );
        }
    }
}

#[test]
fn paper_resolution_200() {
    // 200 = 2³·5²: mixed-radix path, parallel row/col split when threaded.
    assert_matches_reference(200, 200, 1);
}

#[test]
fn paper_resolution_350() {
    // 350 = 2·5²·7: exercises the radix-7 stage.
    assert_matches_reference(350, 350, 2);
}

#[test]
fn paper_resolution_500() {
    // 500 = 2²·5³.
    assert_matches_reference(500, 500, 3);
}

/// The fast path a 1-D plan of length `n` takes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    Radix2,
    Stockham,
    Rader,
    Bluestein,
}

fn path(n: usize) -> Path {
    let plan = FftPlan::new(n);
    match (plan.is_mixed_radix(), plan.is_rader(), plan.is_bluestein()) {
        (false, false, false) => Path::Radix2,
        (true, false, false) => Path::Stockham,
        (false, true, false) => Path::Rader,
        (false, false, true) => Path::Bluestein,
        flags => panic!("plan {n} reports several paths: {flags:?}"),
    }
}

#[test]
fn non_square_and_mixed_plan_shapes() {
    use Path::*;
    // Rectangles mixing every plan kind per axis, on both sides of the
    // column-block width (32). Each entry names the path its row (length
    // `cols`) and column (length `rows`) plans must take, so a change in
    // plan selection cannot silently drop a kind from the coverage.
    for &(rows, cols, seed, col_path, row_path) in &[
        (200usize, 64usize, 4u64, Stockham, Radix2),
        (64, 200, 5, Radix2, Stockham),
        (31, 97, 6, Rader, Rader), // primes with smooth p − 1
        (16, 211, 7, Radix2, Rader),
        (211, 16, 8, Rader, Radix2),
        (100, 350, 9, Stockham, Stockham),   // mixed × mixed, wide
        (3, 40, 10, Stockham, Stockham),     // fewer rows than one column block
        (23, 46, 11, Bluestein, Bluestein),  // 22 and 46 have the factors 11, 23
        (199, 23, 12, Bluestein, Bluestein), // 198 = 2·3²·11
        (46, 199, 13, Bluestein, Bluestein),
        (199, 64, 14, Bluestein, Radix2),
    ] {
        assert_eq!(path(rows), col_path, "column plan of {rows}x{cols}");
        assert_eq!(path(cols), row_path, "row plan of {rows}x{cols}");
        assert_matches_reference(rows, cols, seed);
    }
}

#[test]
fn roundtrip_at_paper_resolutions() {
    for &n in &[200usize, 350] {
        let fft = Fft2::new(n, n);
        let base = test_field(n, n, 11);
        let mut ws = fft.make_workspace();
        let mut f = base.clone();
        fft.process_planes(f.as_mut_slice(), Direction::Forward, &mut ws);
        fft.process_planes(f.as_mut_slice(), Direction::Inverse, &mut ws);
        let err = f.distance(&base) / base.total_power().sqrt();
        assert!(err < 1e-10, "roundtrip error {err:.3e} at {n}²");
    }
}

#[test]
fn worker_pool_is_deterministic_across_thread_counts() {
    // par_map results must be identical for 1 vs N threads: each index is
    // computed exactly once and written to its own slot, so the schedule
    // cannot change the output.
    let work = |i: usize| {
        let mut acc = 0.0f64;
        for k in 0..200 {
            acc += ((i * 31 + k) as f64).sin();
        }
        (i, acc.to_bits())
    };
    parallel::set_threads(1);
    let sequential = parallel::par_map(257, work);
    parallel::set_threads(0);
    let pooled = parallel::par_map(257, work);
    parallel::set_threads(8);
    let eight = parallel::par_map(257, work);
    parallel::set_threads(0);
    assert_eq!(
        sequential, pooled,
        "default thread count changed par_map results"
    );
    assert_eq!(sequential, eight, "8-thread pool changed par_map results");
}

#[test]
fn fft2_bit_identical_across_thread_counts() {
    // The pooled row/column FFT split must be bit-identical to the
    // sequential pass (256² crosses the parallel threshold).
    let n = 256;
    let fft = Fft2::new(n, n);
    let base = test_field(n, n, 12);
    let mut ws = fft.make_workspace();
    parallel::set_threads(1);
    let mut seq = base.clone();
    fft.process_planes(seq.as_mut_slice(), Direction::Forward, &mut ws);
    // Force threads() > 1 so the pooled branch runs even on a single-core
    // machine (the caller claims every task itself if no workers exist).
    parallel::set_threads(4);
    let mut par = base.clone();
    fft.process_planes(par.as_mut_slice(), Direction::Forward, &mut ws);
    parallel::set_threads(0);
    assert_eq!(seq, par, "pooled FFT2 differs from sequential FFT2");
}
