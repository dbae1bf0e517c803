//! Trainable optical layer implementations (`lr.layers`).

pub mod codesign;
pub mod detector;
pub mod diffractive;
pub mod nonlinear;

use lr_obs::{KernelKind, KernelTimer};
use lr_tensor::Complex64;

/// Pixels per modulation tile: one tile's transmissions (16 B each, 4 KiB
/// in all) live on the stack and stay in L1 while every plane streams
/// past them.
const MODULATION_TILE: usize = 256;

/// The per-pixel modulation kernel shared by every phase-modulating layer,
/// batched and per-sample alike (a single plane is the one-plane call).
///
/// `planes` holds whole planes of `plane_len` pixels back to back
/// (plane-major, as in [`lr_tensor::FieldBatch`]). Pixels are visited in
/// fixed-size tiles: `transmission(p)` runs **once per pixel per call**
/// into a stack tile, then `apply(b, p0, plane_tile, tile)` runs for each
/// plane `b` in order, with `plane_tile` the pixels `p0..p0 + tile.len()`
/// of plane `b`. Each pixel sees the same expression and the same plane
/// order as a plane-by-plane loop, so results are bitwise unchanged; the
/// batch only stops paying for the transmission once per plane. Timed
/// under [`KernelKind::Modulate`].
pub(crate) fn modulate_tiles(
    planes: &mut [Complex64],
    plane_len: usize,
    mut transmission: impl FnMut(usize) -> Complex64,
    mut apply: impl FnMut(usize, usize, &mut [Complex64], &[Complex64]),
) {
    assert!(
        plane_len > 0 && planes.len().is_multiple_of(plane_len),
        "planes must hold whole planes"
    );
    if planes.is_empty() {
        return;
    }
    let _t = KernelTimer::start(KernelKind::Modulate);
    let mut tile = [Complex64::ZERO; MODULATION_TILE];
    for p0 in (0..plane_len).step_by(MODULATION_TILE) {
        let tile = &mut tile[..MODULATION_TILE.min(plane_len - p0)];
        for (i, m) in tile.iter_mut().enumerate() {
            *m = transmission(p0 + i);
        }
        for (b, plane) in planes.chunks_exact_mut(plane_len).enumerate() {
            apply(b, p0, &mut plane[p0..p0 + tile.len()], tile);
        }
    }
}

/// [`modulate_tiles`] with the plain modulation `u ← t·u`.
pub(crate) fn modulate_planes(
    planes: &mut [Complex64],
    plane_len: usize,
    transmission: impl FnMut(usize) -> Complex64,
) {
    modulate_tiles(planes, plane_len, transmission, |_, _, u, t| {
        for (z, &t) in u.iter_mut().zip(t) {
            *z *= t;
        }
    });
}
