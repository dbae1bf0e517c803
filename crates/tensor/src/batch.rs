//! Batched complex fields: `B` co-resident planes in one buffer.
//!
//! [`FieldBatch`] is the batched counterpart of [`Field`](crate::Field): a
//! plane-major (structure-of-arrays) buffer holding `B` complex `rows ×
//! cols` wavefields contiguously, so batched kernels stream one allocation
//! instead of chasing `B` separate `Field`s. Every plane is itself a
//! contiguous row-major field, which is what lets the batched FFT and
//! propagation entry points run the *same* per-plane kernels as the
//! per-sample paths — batched and per-sample execution are bit-identical
//! by construction.
//!
//! A batch distinguishes **capacity** (planes allocated up front) from the
//! **active** plane count ([`FieldBatch::batch`]): steady-state users —
//! the serving runtime's per-worker workspaces, the training shards —
//! allocate capacity once and re-activate a prefix per call, so varying
//! batch sizes stay allocation-free. Growing past capacity reallocates and
//! is intended for setup code only.

use crate::complex::Complex64;
use crate::field::Field;
use std::fmt;

/// A batch of `B` dense row-major complex planes sharing one buffer.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, Field, FieldBatch};
/// let mut batch = FieldBatch::zeros(3, 4, 4);
/// batch.copy_plane_from(1, &Field::ones(4, 4));
/// assert_eq!(batch.plane(1)[0], Complex64::ONE);
/// assert_eq!(batch.plane(0)[0], Complex64::ZERO);
/// ```
#[derive(Clone, PartialEq)]
pub struct FieldBatch {
    /// Active plane count (`≤ capacity`).
    batch: usize,
    /// Planes allocated in `data`.
    capacity: usize,
    rows: usize,
    cols: usize,
    /// Plane-major buffer: plane `b` occupies
    /// `data[b·rows·cols .. (b+1)·rows·cols]`.
    data: Vec<Complex64>,
}

impl FieldBatch {
    /// Creates a batch of `batch` zeroed planes (capacity = `batch`).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(batch: usize, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "plane dimensions must be nonzero");
        FieldBatch {
            batch,
            capacity: batch,
            rows,
            cols,
            data: vec![Complex64::ZERO; batch * rows * cols],
        }
    }

    /// Creates an *empty* batch (0 active planes) with room for `capacity`
    /// planes. The workspace-building entry point: allocate once at setup,
    /// then [`FieldBatch::set_batch`] per call without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn with_capacity(capacity: usize, rows: usize, cols: usize) -> Self {
        let mut b = Self::zeros(capacity, rows, cols);
        b.batch = 0;
        b
    }

    /// Number of active planes.
    #[inline(always)]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Planes allocated (active planes never exceed this without a regrow).
    #[inline(always)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows per plane.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per plane.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of one plane.
    #[inline(always)]
    pub fn plane_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Samples per plane.
    #[inline(always)]
    pub fn plane_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Total active samples (`batch · rows · cols`).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.batch * self.plane_len()
    }

    /// True if no plane is active.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.batch == 0
    }

    /// Sets the active plane count. Stays allocation-free while
    /// `batch ≤ capacity`; growing past capacity reallocates the buffer
    /// (setup-time only — steady-state callers size capacity up front).
    pub fn set_batch(&mut self, batch: usize) {
        if batch > self.capacity {
            self.data.resize(batch * self.plane_len(), Complex64::ZERO);
            self.capacity = batch;
        }
        self.batch = batch;
    }

    /// Immutable view of active plane `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not an active plane.
    #[inline]
    pub fn plane(&self, b: usize) -> &[Complex64] {
        assert!(b < self.batch, "plane index out of range");
        let n = self.plane_len();
        &self.data[b * n..(b + 1) * n]
    }

    /// Mutable view of active plane `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not an active plane.
    #[inline]
    pub fn plane_mut(&mut self, b: usize) -> &mut [Complex64] {
        assert!(b < self.batch, "plane index out of range");
        let n = self.plane_len();
        &mut self.data[b * n..(b + 1) * n]
    }

    /// Iterates the active planes.
    pub fn planes(&self) -> impl Iterator<Item = &[Complex64]> {
        self.data.chunks_exact(self.plane_len()).take(self.batch)
    }

    /// Iterates the active planes mutably.
    pub fn planes_mut(&mut self) -> impl Iterator<Item = &mut [Complex64]> {
        let n = self.plane_len();
        self.data.chunks_exact_mut(n).take(self.batch)
    }

    /// Immutable view of the whole active buffer (plane-major).
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data[..self.len()]
    }

    /// Mutable view of the whole active buffer (plane-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        let n = self.len();
        &mut self.data[..n]
    }

    /// Copies a [`Field`] into active plane `b` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `b` is not active.
    pub fn copy_plane_from(&mut self, b: usize, src: &Field) {
        assert_eq!(
            src.shape(),
            (self.rows, self.cols),
            "copy_plane_from: shape mismatch"
        );
        self.plane_mut(b).copy_from_slice(src.as_slice());
    }

    /// Copies active plane `b` into a [`Field`] without allocating.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `b` is not active.
    pub fn copy_plane_to(&self, b: usize, dst: &mut Field) {
        assert_eq!(
            dst.shape(),
            (self.rows, self.cols),
            "copy_plane_to: shape mismatch"
        );
        dst.as_mut_slice().copy_from_slice(self.plane(b));
    }

    /// Copies every active plane from another batch. Allocation-free while
    /// `src.batch() ≤ capacity`; a larger source grows this batch's buffer
    /// (via [`FieldBatch::set_batch`] — setup-time only, like any capacity
    /// growth under the workspace contract).
    ///
    /// # Panics
    ///
    /// Panics if plane shapes differ.
    pub fn copy_from(&mut self, src: &FieldBatch) {
        assert_eq!(
            src.plane_shape(),
            (self.rows, self.cols),
            "copy_from: plane shape mismatch"
        );
        self.set_batch(src.batch());
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Re-encodes real amplitudes into active plane `b` (phase zero) — the
    /// in-place counterpart of [`Field::from_amplitudes`].
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes.len() != rows·cols` or `b` is not active.
    pub fn set_plane_amplitudes(&mut self, b: usize, amplitudes: &[f64]) {
        let plane = self.plane_mut(b);
        assert_eq!(
            amplitudes.len(),
            plane.len(),
            "amplitude buffer length must equal rows*cols"
        );
        for (z, &a) in plane.iter_mut().zip(amplitudes) {
            *z = Complex64::from_real(a);
        }
    }

    /// Hadamard-multiplies **every active plane** by one `rows × cols`
    /// field (`plane_b ⊙= rhs` for all `b`) — the one-pass batched
    /// transfer-function application.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not match the plane shape.
    pub fn hadamard_broadcast_assign(&mut self, rhs: &Field) {
        assert_eq!(
            rhs.shape(),
            (self.rows, self.cols),
            "hadamard_broadcast_assign: plane shape mismatch"
        );
        let r = rhs.as_slice();
        for plane in self.planes_mut() {
            for (a, &b) in plane.iter_mut().zip(r) {
                *a *= b;
            }
        }
    }

    /// Applies `f` to every active sample in place.
    pub fn map_inplace(&mut self, f: impl Fn(Complex64) -> Complex64) {
        for z in self.as_mut_slice() {
            *z = f(*z);
        }
    }

    /// Heap bytes held by the plane buffer (capacity, not active length) —
    /// feeds the serving runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Complex64>()
    }

    /// True if every active sample is finite.
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|z| z.is_finite())
    }
}

impl fmt::Debug for FieldBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FieldBatch({}x{}x{}, capacity={})",
            self.batch, self.rows, self.cols, self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_are_disjoint_and_plane_major() {
        let mut b = FieldBatch::zeros(3, 2, 2);
        b.plane_mut(1)[3] = Complex64::new(7.0, 0.0);
        assert_eq!(b.as_slice()[7].re, 7.0);
        assert_eq!(b.plane(0)[3], Complex64::ZERO);
        assert_eq!(b.plane(2)[3], Complex64::ZERO);
    }

    #[test]
    fn set_batch_within_capacity_keeps_buffer() {
        let mut b = FieldBatch::with_capacity(4, 2, 3);
        assert_eq!(b.batch(), 0);
        let ptr = b.data.as_ptr();
        b.set_batch(4);
        assert_eq!(b.batch(), 4);
        assert_eq!(b.data.as_ptr(), ptr, "no reallocation within capacity");
        b.set_batch(2);
        assert_eq!(b.len(), 12);
        b.set_batch(6);
        assert_eq!(b.capacity(), 6, "growing past capacity reallocates");
    }

    #[test]
    fn field_roundtrip_per_plane() {
        let f = Field::from_fn(3, 4, |r, c| Complex64::new(r as f64, c as f64));
        let mut b = FieldBatch::zeros(2, 3, 4);
        b.copy_plane_from(1, &f);
        let mut out = Field::zeros(3, 4);
        b.copy_plane_to(1, &mut out);
        assert_eq!(out, f);
    }

    #[test]
    fn broadcast_hadamard_matches_per_plane() {
        let m = Field::from_fn(2, 2, |r, c| Complex64::new(1.0 + r as f64, c as f64));
        let mut b = FieldBatch::zeros(2, 2, 2);
        b.map_inplace(|_| Complex64::new(2.0, -1.0));
        let mut expect = Field::filled(2, 2, Complex64::new(2.0, -1.0));
        expect.hadamard_assign(&m);
        b.hadamard_broadcast_assign(&m);
        for plane in b.planes() {
            assert_eq!(plane, expect.as_slice());
        }
    }

    #[test]
    fn amplitudes_encode_phase_zero() {
        let mut b = FieldBatch::zeros(1, 2, 2);
        b.set_plane_amplitudes(0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.plane(0)[2], Complex64::from_real(3.0));
    }

    #[test]
    #[should_panic(expected = "plane index")]
    fn inactive_plane_access_panics() {
        let b = FieldBatch::with_capacity(3, 2, 2);
        let _ = b.plane(0);
    }
}
