//! Two-dimensional complex-valued field.
//!
//! [`Field`] is the workhorse data structure of the framework: a dense,
//! row-major `rows × cols` array of [`Complex64`] samples representing a
//! scalar optical wavefield `U(x, y)` on a uniform grid. All optics kernels
//! (diffraction, phase modulation, detection) operate on `Field`s, and the
//! training engine stores activations and gradients as `Field`s.

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major 2-D complex array.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, Field};
/// let mut f = Field::zeros(4, 4);
/// f[(1, 2)] = Complex64::new(1.0, 0.0);
/// assert_eq!(f.total_power(), 1.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Field {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Field {
    /// Creates a field of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "field dimensions must be nonzero");
        Field {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates a field filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: Complex64) -> Self {
        assert!(rows > 0 && cols > 0, "field dimensions must be nonzero");
        Field {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a field of ones (a uniform plane wave of unit amplitude).
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, Complex64::ONE)
    }

    /// Builds a field from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        assert!(rows > 0 && cols > 0, "field dimensions must be nonzero");
        Field { rows, cols, data }
    }

    /// Builds a complex field from real amplitudes (phase zero). This is how
    /// input images are encoded onto the laser: `A = I, θ = 0` (paper §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes.len() != rows * cols`.
    pub fn from_amplitudes(rows: usize, cols: usize, amplitudes: &[f64]) -> Self {
        assert_eq!(
            amplitudes.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        let data = amplitudes
            .iter()
            .map(|&a| Complex64::from_real(a))
            .collect();
        Field::from_vec(rows, cols, data)
    }

    /// Builds a field by evaluating `f(row, col)` at every sample.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Field::from_vec(rows, cols, data)
    }

    /// Number of rows (`y` samples).
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`x` samples).
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of samples.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field holds no samples. Construction enforces nonzero
    /// dimensions, so this is honest but always `false` in practice.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Heap bytes held by this field's sample buffer (capacity, not
    /// length): what actually returns to the allocator when the field
    /// drops. Used by the serving runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Complex64>()
    }

    /// Copies every sample from `src` without reallocating — the
    /// zero-allocation alternative to `*self = src.clone()` used by the
    /// propagation workspaces.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[inline]
    pub fn copy_from(&mut self, src: &Field) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Immutable view of the row-major sample buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the row-major sample buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Field {
        self.map(|z| z.conj())
    }

    /// Applies `f` to every sample, producing a new field.
    pub fn map(&self, f: impl Fn(Complex64) -> Complex64) -> Field {
        Field {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| f(z)).collect(),
        }
    }

    /// Applies `f` to every sample in place.
    pub fn map_inplace(&mut self, f: impl Fn(Complex64) -> Complex64) {
        for z in &mut self.data {
            *z = f(*z);
        }
    }

    /// Elementwise (Hadamard) product `self ⊙ rhs` — the fused kernel behind
    /// phase modulation and transfer-function application.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Field) -> Field {
        assert_eq!(self.shape(), rhs.shape(), "hadamard: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Field {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place Hadamard product `self ⊙= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard_assign(&mut self, rhs: &Field) {
        assert_eq!(self.shape(), rhs.shape(), "hadamard_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// In-place Hadamard product with the conjugate of `rhs`
    /// (`self ⊙= conj(rhs)`): the adjoint of [`Field::hadamard_assign`],
    /// used by every backward pass through a linear optical element.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard_conj_assign(&mut self, rhs: &Field) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "hadamard_conj_assign: shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b.conj();
        }
    }

    /// Scales every sample by a real factor in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Returns a copy scaled by a real factor.
    pub fn scaled(&self, s: f64) -> Field {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// `self += rhs * s` — fused accumulate used by gradient reductions.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f64, rhs: &Field) {
        assert_eq!(self.shape(), rhs.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * s;
        }
    }

    /// Per-sample intensity `|U|²` — what a photon detector measures.
    pub fn intensity(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm_sqr()).collect()
    }

    /// Per-sample amplitude `|U|`.
    pub fn amplitude(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm()).collect()
    }

    /// Per-sample phase `arg U` in `(-π, π]`.
    pub fn phase(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.arg()).collect()
    }

    /// Total optical power `Σ|U|²`.
    pub fn total_power(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Inner product `⟨self, rhs⟩ = Σ self̄ᵢ·rhsᵢ` (conjugate-linear in
    /// `self`), the Hilbert-space inner product used by the adjoint tests.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn inner(&self, rhs: &Field) -> Complex64 {
        assert_eq!(self.shape(), rhs.shape(), "inner: shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a.conj() * b)
            .sum()
    }

    /// Maximum sample magnitude.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm()).fold(0.0, f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Complex64 {
        self.data.iter().copied().sum()
    }

    /// Embeds this field centered in a larger field of zeros.
    ///
    /// Used for zero-padded propagation and for fitting low-resolution
    /// input images onto a higher-resolution modulator plane.
    ///
    /// # Panics
    ///
    /// Panics if the target is smaller than the source in either dimension.
    pub fn pad_centered(&self, rows: usize, cols: usize) -> Field {
        assert!(
            rows >= self.rows && cols >= self.cols,
            "pad_centered: target must be at least as large as source"
        );
        let mut out = Field::zeros(rows, cols);
        let r0 = (rows - self.rows) / 2;
        let c0 = (cols - self.cols) / 2;
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = &mut out.data[(r0 + r) * cols + c0..(r0 + r) * cols + c0 + self.cols];
            dst.copy_from_slice(src);
        }
        out
    }

    /// Extracts a centered `rows × cols` window.
    ///
    /// # Panics
    ///
    /// Panics if the window is larger than the field in either dimension.
    pub fn crop_centered(&self, rows: usize, cols: usize) -> Field {
        assert!(
            rows <= self.rows && cols <= self.cols,
            "crop_centered: window must fit inside the field"
        );
        let r0 = (self.rows - rows) / 2;
        let c0 = (self.cols - cols) / 2;
        let mut out = Field::zeros(rows, cols);
        for r in 0..rows {
            let src = &self.data[(r0 + r) * self.cols + c0..(r0 + r) * self.cols + c0 + cols];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Transposes the field (rows ↔ cols).
    pub fn transpose(&self) -> Field {
        let mut out = Field::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large fields.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// `fftshift`: swaps quadrants so the zero-frequency sample moves to the
    /// center. For odd sizes this matches the NumPy convention.
    pub fn fftshift(&self) -> Field {
        let sr = self.rows.div_ceil(2);
        let sc = self.cols.div_ceil(2);
        Field::from_fn(self.rows, self.cols, |r, c| {
            self[((r + sr) % self.rows, (c + sc) % self.cols)]
        })
    }

    /// Inverse of [`Field::fftshift`].
    pub fn ifftshift(&self) -> Field {
        let sr = self.rows / 2;
        let sc = self.cols / 2;
        Field::from_fn(self.rows, self.cols, |r, c| {
            self[((r + sr) % self.rows, (c + sc) % self.cols)]
        })
    }

    /// Frobenius distance `‖self − rhs‖₂`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn distance(&self, rhs: &Field) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "distance: shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// True if every sample is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

/// [`Field::fftshift`] of a raw row-major `rows × cols` plane, in place —
/// the shift behind the Fraunhofer propagation paths (plane slices of a
/// batch have no `Field` wrapper). A 2-D cyclic shift is a rotation of the
/// whole plane by whole rows, then of each row: no staging plane.
///
/// # Panics
///
/// Panics if `plane.len()` differs from `rows·cols`.
pub fn fftshift_in_place(plane: &mut [Complex64], rows: usize, cols: usize) {
    shift_in_place(plane, rows, cols, rows.div_ceil(2), cols.div_ceil(2));
}

/// [`Field::ifftshift`] of a raw row-major plane, in place (see
/// [`fftshift_in_place`]).
///
/// # Panics
///
/// Panics if `plane.len()` differs from `rows·cols`.
pub fn ifftshift_in_place(plane: &mut [Complex64], rows: usize, cols: usize) {
    shift_in_place(plane, rows, cols, rows / 2, cols / 2);
}

/// `out[r][c] = in[(r + sr) % rows][(c + sc) % cols]`, in place.
fn shift_in_place(plane: &mut [Complex64], rows: usize, cols: usize, sr: usize, sc: usize) {
    assert_eq!(plane.len(), rows * cols, "shift: plane length mismatch");
    if plane.is_empty() {
        return;
    }
    plane.rotate_left(sr * cols);
    for row in plane.chunks_exact_mut(cols) {
        row.rotate_left(sc);
    }
}

impl Index<(usize, usize)> for Field {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Field {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Field> for &Field {
    type Output = Field;
    fn add(self, rhs: &Field) -> Field {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Field {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Field> for &Field {
    type Output = Field;
    fn sub(self, rhs: &Field) -> Field {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Field {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Field> for Field {
    fn add_assign(&mut self, rhs: &Field) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Mul<f64> for &Field {
    type Output = Field;
    fn mul(self, rhs: f64) -> Field {
        self.scaled(rhs)
    }
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Field({}x{}, power={:.4e})",
            self.rows,
            self.cols,
            self.total_power()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Field::zeros(3, 5);
        assert_eq!(z.shape(), (3, 5));
        assert_eq!(z.total_power(), 0.0);
        let o = Field::ones(3, 5);
        assert_eq!(o.total_power(), 15.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = Field::zeros(0, 4);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_length_checked() {
        let _ = Field::from_vec(2, 2, vec![Complex64::ZERO; 3]);
    }

    #[test]
    fn indexing_row_major() {
        let mut f = Field::zeros(2, 3);
        f[(1, 2)] = Complex64::new(7.0, 0.0);
        assert_eq!(f.as_slice()[5].re, 7.0);
        assert_eq!(f.row(1)[2].re, 7.0);
    }

    #[test]
    fn hadamard_matches_manual() {
        let a = Field::from_fn(2, 2, |r, c| Complex64::new(r as f64 + 1.0, c as f64));
        let b = Field::from_fn(2, 2, |r, c| Complex64::new(c as f64, r as f64));
        let h = a.hadamard(&b);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(h[(r, c)], a[(r, c)] * b[(r, c)]);
            }
        }
        let mut a2 = a.clone();
        a2.hadamard_assign(&b);
        assert_eq!(a2, h);
    }

    #[test]
    fn hadamard_conj_is_adjoint_of_hadamard() {
        // <M x, y> == <x, conj(M) y> for elementwise multiplication by M.
        let m = Field::from_fn(3, 3, |r, c| Complex64::new(r as f64 - 1.0, c as f64 + 0.5));
        let x = Field::from_fn(3, 3, |r, c| Complex64::new(c as f64, -(r as f64)));
        let y = Field::from_fn(3, 3, |r, c| Complex64::new(1.0 + r as f64 * c as f64, 2.0));
        let mx = x.hadamard(&m);
        let mut my = y.clone();
        my.hadamard_conj_assign(&m);
        let lhs = mx.inner(&y);
        let rhs = x.inner(&my);
        assert!((lhs - rhs).norm() < 1e-10);
    }

    #[test]
    fn pad_crop_roundtrip() {
        let f = Field::from_fn(3, 4, |r, c| Complex64::new((r * 4 + c) as f64, 0.0));
        let padded = f.pad_centered(7, 8);
        assert_eq!(padded.total_power(), f.total_power());
        let back = padded.crop_centered(3, 4);
        assert_eq!(back, f);
    }

    #[test]
    fn transpose_involution() {
        let f = Field::from_fn(5, 7, |r, c| Complex64::new(r as f64, c as f64));
        let t = f.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t[(6, 4)], f[(4, 6)]);
        assert_eq!(t.transpose(), f);
    }

    #[test]
    fn fftshift_roundtrip_even_and_odd() {
        for &(r, c) in &[(4, 4), (5, 5), (4, 5), (6, 3)] {
            let f = Field::from_fn(r, c, |i, j| Complex64::new((i * c + j) as f64, 0.0));
            assert_eq!(f.fftshift().ifftshift(), f, "shape {r}x{c}");
        }
    }

    #[test]
    fn in_place_shifts_match_the_copying_ones() {
        for &(r, c) in &[(1, 1), (4, 4), (5, 5), (4, 5), (7, 9), (9, 6)] {
            let f = Field::from_fn(r, c, |i, j| Complex64::new((i * c + j) as f64, 0.0));
            let mut g = f.clone();
            fftshift_in_place(g.as_mut_slice(), r, c);
            assert_eq!(g, f.fftshift(), "fftshift {r}x{c}");
            let mut g = f.clone();
            ifftshift_in_place(g.as_mut_slice(), r, c);
            assert_eq!(g, f.ifftshift(), "ifftshift {r}x{c}");
        }
    }

    #[test]
    fn fftshift_moves_origin_to_center() {
        let mut f = Field::zeros(4, 4);
        f[(0, 0)] = Complex64::ONE;
        let s = f.fftshift();
        assert_eq!(s[(2, 2)], Complex64::ONE);
    }

    #[test]
    fn inner_product_conjugate_symmetry() {
        let a = Field::from_fn(3, 3, |r, c| Complex64::new(r as f64, c as f64));
        let b = Field::from_fn(3, 3, |r, c| Complex64::new(c as f64 + 1.0, r as f64 - 1.0));
        let ab = a.inner(&b);
        let ba = b.inner(&a);
        assert!((ab - ba.conj()).norm() < 1e-12);
        assert!((a.inner(&a).re - a.total_power()).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Field::ones(2, 2);
        let b = Field::filled(2, 2, Complex64::new(2.0, 0.0));
        a.axpy(0.5, &b);
        assert_eq!(a[(0, 0)], Complex64::new(2.0, 0.0));
    }

    #[test]
    fn intensity_and_power() {
        let f = Field::filled(2, 2, Complex64::new(3.0, 4.0));
        assert!(f.intensity().iter().all(|&i| (i - 25.0).abs() < 1e-12));
        assert!((f.total_power() - 100.0).abs() < 1e-12);
    }
}
