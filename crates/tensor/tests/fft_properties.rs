//! Property-based validation of the FFT substrate: the algebraic
//! identities every DFT implementation must satisfy, on randomized inputs
//! and sizes (both the radix-2 and Bluestein code paths).

use lr_tensor::{dft_naive, Complex64, Direction, Fft2, FftPlan, Field};
use proptest::prelude::*;
use std::f64::consts::PI;

fn signal(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec(
        (-5.0f64..5.0, -5.0f64..5.0).prop_map(|(re, im)| Complex64::new(re, im)),
        n..=n,
    )
}

fn fft(data: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let plan = FftPlan::new(data.len());
    let mut out = data.to_vec();
    let mut scratch = plan.make_scratch();
    plan.process(&mut out, dir, &mut scratch);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Circular time shift ⇔ linear phase in frequency:
    /// `F[x[(j−s) mod n]]_k = F[x]_k · e^{−2πi·sk/n}`.
    #[test]
    fn shift_theorem(n in 2usize..40, s in 0usize..40, seed in 0u64..1000) {
        let s = s % n;
        let data: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new(((j as u64 * 31 + seed) % 17) as f64, ((j as u64 * 7 + seed) % 13) as f64))
            .collect();
        let mut shifted = vec![Complex64::ZERO; n];
        for j in 0..n {
            shifted[(j + s) % n] = data[j];
        }
        let fx = fft(&data, Direction::Forward);
        let fs = fft(&shifted, Direction::Forward);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * PI * (s * k % n) as f64 / n as f64);
            let expect = fx[k] * phase;
            prop_assert!((fs[k] - expect).norm() < 1e-7 * (1.0 + expect.norm()),
                "shift theorem failed at n={}, s={}, k={}", n, s, k);
        }
    }

    /// Conjugate symmetry: real input ⇒ `X[n−k] = conj(X[k])`.
    #[test]
    fn real_input_conjugate_symmetry(n in 2usize..50, seed in 0u64..1000) {
        let data: Vec<Complex64> = (0..n)
            .map(|j| Complex64::from_real((((j as u64 + seed) * 2654435761) % 101) as f64 / 101.0))
            .collect();
        let fx = fft(&data, Direction::Forward);
        for k in 1..n {
            let expect = fx[n - k].conj();
            prop_assert!((fx[k] - expect).norm() < 1e-7 * (1.0 + expect.norm()));
        }
        prop_assert!(fx[0].im.abs() < 1e-9, "DC of a real signal is real");
    }

    /// The fast transform agrees with the O(n²) DFT on every size.
    #[test]
    fn matches_naive_dft(data in (2usize..30).prop_flat_map(signal)) {
        let fast = fft(&data, Direction::Forward);
        let slow = dft_naive(&data, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).norm() < 1e-6 * (1.0 + b.norm()));
        }
    }

    /// Circular convolution theorem on the 2-D engine:
    /// `IFFT(FFT(x) ⊙ FFT(h))` equals direct circular convolution.
    #[test]
    fn convolution_theorem_2d(n in 2usize..10, seed in 0u64..100) {
        let x = Field::from_fn(n, n, |r, c| {
            Complex64::new(((r as u64 * 3 + c as u64 + seed) % 7) as f64, ((r + 2 * c) % 5) as f64)
        });
        let h = Field::from_fn(n, n, |r, c| {
            Complex64::new(((r + c) % 3) as f64, ((r as u64 * c as u64 + seed) % 4) as f64)
        });
        let fftp = Fft2::new(n, n);
        let mut ws = fftp.make_workspace();
        let mut spectral = x.clone();
        let mut hf = h.clone();
        fftp.process_planes(hf.as_mut_slice(), Direction::Forward, &mut ws);
        fftp.convolve_planes(spectral.as_mut_slice(), &hf, &mut ws);

        // Direct circular convolution.
        let mut direct = Field::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let mut acc = Complex64::ZERO;
                for i in 0..n {
                    for j in 0..n {
                        acc += x[(i, j)] * h[((r + n - i) % n, (c + n - j) % n)];
                    }
                }
                direct[(r, c)] = acc;
            }
        }
        prop_assert!(
            spectral.distance(&direct) < 1e-6 * (1.0 + direct.total_power().sqrt()),
            "convolution theorem violated at n={}", n
        );
    }

    /// Double transform is (scaled) coordinate reversal:
    /// `F[F[x]]_j = n·x[(−j) mod n]`.
    #[test]
    fn double_transform_reverses(data in (2usize..30).prop_flat_map(signal)) {
        let n = data.len();
        let twice = fft(&fft(&data, Direction::Forward), Direction::Forward);
        for j in 0..n {
            let expect = data[(n - j) % n] * n as f64;
            prop_assert!((twice[j] - expect).norm() < 1e-6 * (1.0 + expect.norm()));
        }
    }
}
