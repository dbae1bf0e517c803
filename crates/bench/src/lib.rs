//! # lr-bench
//!
//! The measurement core shared by the `lr-bench` perf artifacts and the
//! `lr-experiments` figure regenerators:
//!
//! * [`median_ns`] — the one sampler: one warm-up call, then `samples`
//!   timed calls, then their median.
//! * [`json`] — the artifact format: one [`json::Json`] value type with a
//!   writer ([`json::write_json`]) and a reader ([`json::parse_json`]),
//!   used to build `BENCH_kernels.json` / `BENCH_serve.json` and to read
//!   them back in `lr-bench compare`.
//! * [`create_output`] — opens an artifact file before the measuring
//!   starts, so a bad `--out` path fails at once.

#![warn(missing_docs)]

pub mod json;

use std::fs::File;
use std::path::Path;
use std::time::Instant;

/// Median wall-clock nanoseconds of `samples` calls of `f`, after one
/// untimed warm-up call (which fills plan caches, thread-local
/// workspaces and the worker pool).
///
/// # Panics
///
/// Panics if `samples` is 0.
pub fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    assert!(samples > 0, "need at least one sample");
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Creates (or truncates) the output file at `path`. Harnesses call this
/// before they measure anything, so an unwritable path fails in
/// milliseconds instead of after the whole run: on failure it prints the
/// reason and exits the process with code 2.
pub fn create_output(path: &Path) -> File {
    File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create output file {}: {e}", path.display());
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_warms_up_once_then_samples() {
        let mut calls = 0;
        let t = median_ns(3, || {
            calls += 1;
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        assert_eq!(calls, 4);
        assert!(t >= 0.0);
    }
}
