//! Trainable optical layer implementations (`lr.layers`).
//!
//! Each phase-modulating layer keeps its per-pixel transmission as a table
//! that a parameter write empties and the next pass refills: the raw
//! [`diffractive`] layer one table of `γ·e^{jφ}` (16 B per pixel), the
//! [`codesign`] layer one per inference mode used (Soft mixture, Deploy
//! argmax). Forward and inference passes multiply by the table through
//! `modulate_planes`; codesign `Train` mode draws fresh Gumbel noise per
//! sample and computes its states per call.
//!
//! Every layer exposes the same batched trio over a
//! [`lr_tensor::FieldBatch`] — `infer_batch_inplace`,
//! `forward_batch_traced` and `backward_batch_inplace` — and a single
//! sample is the one-plane batch.

pub mod codesign;
pub mod detector;
pub mod diffractive;
pub mod nonlinear;

use lr_obs::{KernelKind, KernelTimer};
use lr_tensor::Complex64;
use std::sync::{Arc, OnceLock};

/// A layer's parameters `P` plus the `N` transmission tables they
/// determine, each filled on first use. Held behind an `Arc`: clones share
/// parameters and tables until one of them writes through
/// [`Masked::write`], which copies the parameters if they are shared and
/// empties the tables.
#[derive(Debug)]
pub(crate) struct Masked<P, const N: usize> {
    pub(crate) params: P,
    tables: [OnceLock<Vec<Complex64>>; N],
}

impl<P: Clone, const N: usize> Clone for Masked<P, N> {
    /// Copies the parameters only: a copy is made to be written.
    fn clone(&self) -> Self {
        Masked::new(self.params.clone())
    }
}

impl<P: Clone, const N: usize> Masked<P, N> {
    pub(crate) fn new(params: P) -> Self {
        let tables = std::array::from_fn(|_| OnceLock::new());
        Masked { params, tables }
    }

    /// The parameters for writing: unshared, with every table emptied.
    pub(crate) fn write(this: &mut Arc<Self>) -> &mut P {
        let masked = Arc::make_mut(this);
        masked.tables.iter_mut().for_each(|t| drop(t.take()));
        &mut masked.params
    }

    /// Table `i`, computed by `fill` on the first call after a write. Safe
    /// to call from many threads at once; one of them fills it.
    pub(crate) fn table(&self, i: usize, fill: impl FnOnce(&P) -> Vec<Complex64>) -> &[Complex64] {
        self.tables[i].get_or_init(|| fill(&self.params))
    }
}

/// The modulation `u ← t·u` shared by every phase-modulating layer.
///
/// `planes` holds whole planes back to back (plane-major, as in
/// [`lr_tensor::FieldBatch`]); every plane is multiplied pixel by pixel by
/// the layer's transmission table, which `table` returns (filling it first
/// if a write emptied it). Timed, fill included, under
/// [`KernelKind::Modulate`].
pub(crate) fn modulate_planes<'a>(
    planes: &mut [Complex64],
    table: impl FnOnce() -> &'a [Complex64],
) {
    if planes.is_empty() {
        return;
    }
    let _t = KernelTimer::start(KernelKind::Modulate);
    let table = table();
    assert!(
        !table.is_empty() && planes.len().is_multiple_of(table.len()),
        "planes must hold whole planes"
    );
    for plane in planes.chunks_exact_mut(table.len()) {
        for (z, &t) in plane.iter_mut().zip(table) {
            *z *= t;
        }
    }
}
