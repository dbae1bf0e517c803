//! Sequential DONN container (`lr.models` in the paper's DSL).
//!
//! A [`DonnModel`] stacks diffractive layers in propagation order, adds the
//! final free-space hop to the detector plane, and reads out class logits
//! through a [`Detector`]. It exposes the forward/backward pair the trainer
//! drives, plus inference entry points for emulation, deployment, and
//! visualization.

use crate::layers::codesign::{CodesignCache, CodesignLayer, CodesignMode};
use crate::layers::detector::Detector;
use crate::layers::diffractive::{DiffractiveBatchCache, DiffractiveCache, DiffractiveLayer};
use crate::layers::nonlinear::{NonlinearBatchCache, NonlinearCache, SaturableAbsorber};
use lr_obs::{KernelKind, KernelTimer};
use lr_optics::{Approximation, Distance, FreeSpace, Grid, PropagationScratch, Wavelength};
use lr_tensor::{Field, FieldBatch};
use std::cell::RefCell;

/// One optical layer: free-phase, hardware-codesign, or a parameter-free
/// nonlinear thin film.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Raw free-phase layer (`lr.layers.diffractlayer_raw`).
    Diffractive(DiffractiveLayer),
    /// Hardware-aware Gumbel-Softmax layer (`lr.layers.diffractlayer`).
    Codesign(CodesignLayer),
    /// Saturable-absorber nonlinearity at the current plane (paper §6).
    Nonlinear(SaturableAbsorber),
}

impl Layer {
    /// Number of trainable parameters in this layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Diffractive(l) => l.num_params(),
            Layer::Codesign(l) => l.num_params(),
            Layer::Nonlinear(_) => 0,
        }
    }

    /// Immutable view of the flat parameter vector.
    pub fn params(&self) -> &[f64] {
        match self {
            Layer::Diffractive(l) => l.phases(),
            Layer::Codesign(l) => l.logits(),
            Layer::Nonlinear(_) => &[],
        }
    }

    /// Mutable view of the flat parameter vector.
    pub fn params_mut(&mut self) -> &mut [f64] {
        match self {
            Layer::Diffractive(l) => l.phases_mut(),
            Layer::Codesign(l) => l.logits_mut(),
            Layer::Nonlinear(_) => &mut [],
        }
    }

    /// The currently-deployable phase mask of this layer (radians): free
    /// phases for raw layers, argmax device phases for codesign layers,
    /// empty for non-modulating layers.
    pub fn phase_mask(&self) -> Vec<f64> {
        match self {
            Layer::Diffractive(l) => l.phases().to_vec(),
            Layer::Codesign(l) => l.hard_phases(),
            Layer::Nonlinear(_) => Vec::new(),
        }
    }
}

/// Per-layer forward activations for one sample.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// Cache of a raw layer.
    Diffractive(DiffractiveCache),
    /// Cache of a codesign layer.
    Codesign(CodesignCache),
    /// Cache of a nonlinear layer.
    Nonlinear(NonlinearCache),
}

/// Full forward trace of one sample (needed for the backward pass).
#[derive(Debug, Clone)]
pub struct Trace {
    caches: Vec<LayerCache>,
    /// Wavefield on the detector plane.
    pub detector_field: Field,
    /// Class logits (detector region intensity sums).
    pub logits: Vec<f64>,
}

/// Gradient buffers matching a model's layers; accumulated across a batch.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    per_layer: Vec<Vec<f64>>,
}

impl ModelGrads {
    /// Creates zeroed buffers shaped like `model`'s parameters.
    pub fn zeros_like(model: &DonnModel) -> Self {
        ModelGrads {
            per_layer: model
                .layers
                .iter()
                .map(|l| vec![0.0; l.num_params()])
                .collect(),
        }
    }

    /// Gradient buffer of layer `i`.
    pub fn layer(&self, i: usize) -> &[f64] {
        &self.per_layer[i]
    }

    /// Accumulates another gradient set: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &ModelGrads) {
        assert_eq!(
            self.per_layer.len(),
            other.per_layer.len(),
            "gradient layer count mismatch"
        );
        for (a, b) in self.per_layer.iter_mut().zip(&other.per_layer) {
            assert_eq!(a.len(), b.len(), "gradient buffer length mismatch");
            for (x, &y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales all gradients (e.g. by `1/batch_size`).
    pub fn scale(&mut self, s: f64) {
        for layer in &mut self.per_layer {
            for g in layer.iter_mut() {
                *g *= s;
            }
        }
    }

    /// Global L2 norm of all gradients — a training-health diagnostic.
    pub fn norm(&self) -> f64 {
        self.per_layer
            .iter()
            .flat_map(|l| l.iter())
            .map(|g| g * g)
            .sum::<f64>()
            .sqrt()
    }
}

/// Reusable per-thread buffers for forward/backward passes: one running
/// wavefield, one gradient field, and the propagation scratch (FFT
/// workspace) shared by every layer of one model shape.
///
/// Build one per `(thread, model)` via [`DonnModel::make_workspace`] and
/// thread it through [`DonnModel::infer_into`],
/// [`DonnModel::forward_trace_with`], and [`DonnModel::backward_with`]. The
/// inference path then performs **zero heap allocations** in steady state
/// (verified by the counting-allocator test in `tests/zero_alloc.rs`).
/// Workspaces are not `Sync`; each worker thread owns its own.
///
/// The model's layers own their transmission tables (see
/// [`crate::layers`]): the first pass after a parameter write allocates
/// one table per written layer, so a training step allocates that once
/// after each optimizer update. [`DonnModel::prewarm`], which serving
/// registration runs, fills every table, so serving stays zero-alloc from
/// the first request.
#[derive(Debug, Clone)]
pub struct PropagationWorkspace {
    rows: usize,
    cols: usize,
    scratch: PropagationScratch,
    u: Field,
    grad: Field,
}

impl PropagationWorkspace {
    /// Builds a workspace for a `rows × cols` plane.
    pub fn new(rows: usize, cols: usize) -> Self {
        PropagationWorkspace {
            rows,
            cols,
            scratch: PropagationScratch::new(rows, cols),
            u: Field::zeros(rows, cols),
            grad: Field::zeros(rows, cols),
        }
    }

    /// Plane shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The input-field gradient left behind by the latest
    /// [`DonnModel::backward_with`] call.
    pub fn input_grad(&self) -> &Field {
        &self.grad
    }

    /// Heap bytes held by this workspace's buffers — what the serving
    /// runtime's resident-memory accounting credits back when a retired
    /// model's per-worker workspaces are reclaimed.
    pub fn resident_bytes(&self) -> usize {
        self.scratch.resident_bytes() + self.u.resident_bytes() + self.grad.resident_bytes()
    }
}

/// Reusable buffers for **batched** forward/backward passes: the running
/// wavefield planes (one per sample, up to a fixed capacity), the shared
/// propagation scratch, a gradient batch (grown lazily by the first
/// batched backward pass), staged per-sample logits for the serving
/// two-phase path, and a per-layer seed scratch.
///
/// Build one per `(thread, model, max batch)` via
/// [`DonnModel::make_batch_workspace`] and thread it through
/// [`DonnModel::infer_batch_into`] /
/// [`DonnModel::forward_trace_batch_into`] /
/// [`DonnModel::backward_batch_with`]. For any batch size up to the
/// capacity, the batched inference path performs **zero heap allocations**
/// in steady state (`tests/zero_alloc.rs`); growing past the capacity
/// reallocates and is intended for setup code. Workspaces are not `Sync`;
/// each worker owns its own — the same contract as
/// [`PropagationWorkspace`].
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    rows: usize,
    cols: usize,
    classes: usize,
    /// Running wavefield planes.
    u: FieldBatch,
    /// Gradient planes (capacity 0 until the first batched backward, so
    /// inference-only owners — the serving runtime — pay nothing for it).
    grad: FieldBatch,
    scratch: PropagationScratch,
    /// Staged per-sample logits for the two-phase serving path
    /// ([`BatchWorkspace::load_input`] → [`DonnModel::infer_staged_batch`]
    /// → [`BatchWorkspace::staged_logits`]).
    staged: Vec<Vec<f64>>,
    /// Per-layer decorrelated seed scratch for the batched traced forward.
    layer_seeds: Vec<u64>,
}

impl BatchWorkspace {
    /// Builds a workspace for up to `capacity` samples on a `rows × cols`
    /// plane with `classes` readout classes.
    pub fn new(capacity: usize, rows: usize, cols: usize, classes: usize) -> Self {
        BatchWorkspace {
            rows,
            cols,
            classes,
            u: FieldBatch::with_capacity(capacity, rows, cols),
            grad: FieldBatch::with_capacity(0, rows, cols),
            scratch: PropagationScratch::new(rows, cols),
            staged: (0..capacity).map(|_| Vec::with_capacity(classes)).collect(),
            layer_seeds: Vec::with_capacity(capacity),
        }
    }

    /// Plane shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Sample capacity allocated up front (larger batches reallocate).
    pub fn capacity(&self) -> usize {
        self.u.capacity()
    }

    /// Active batch size of the current (or last) call.
    pub fn batch(&self) -> usize {
        self.u.batch()
    }

    /// Starts a batch of `n` samples: activates `n` wavefield planes and
    /// ensures `n` staged logit slots exist. Allocation-free while
    /// `n ≤ capacity`.
    pub fn begin_batch(&mut self, n: usize) {
        self.u.set_batch(n);
        if self.staged.len() < n {
            let classes = self.classes;
            self.staged.resize_with(n, || Vec::with_capacity(classes));
        }
    }

    /// Copies one input field into plane `b` of the active batch.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `b ≥` the active batch size.
    pub fn load_input(&mut self, b: usize, input: &Field) {
        self.u.copy_plane_from(b, input);
    }

    /// Re-encodes real amplitudes into plane `b` of the active batch
    /// (phase zero), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `b ≥` the active batch size.
    pub fn load_amplitudes(&mut self, b: usize, amplitudes: &[f64]) {
        self.u.set_plane_amplitudes(b, amplitudes);
    }

    /// The logits staged for sample `b` by the latest
    /// [`DonnModel::infer_staged_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a sample of the active batch (a stale slot
    /// from an earlier, larger batch is never handed out).
    pub fn staged_logits(&self, b: usize) -> &[f64] {
        assert!(
            b < self.u.batch(),
            "staged_logits: sample index out of range"
        );
        &self.staged[b]
    }

    /// The input-gradient planes left behind by the latest
    /// [`DonnModel::backward_batch_with`] call (one per sample).
    pub fn input_grad_batch(&self) -> &FieldBatch {
        &self.grad
    }

    /// Heap bytes held by this workspace's buffers — feeds the serving
    /// runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.u.resident_bytes()
            + self.grad.resident_bytes()
            + self.scratch.resident_bytes()
            + self
                .staged
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
    }
}

/// Batched per-layer forward activations for one [`BatchTrace`].
#[derive(Debug, Clone)]
pub enum BatchLayerCache {
    /// Cache of a raw diffractive layer (plane-batched).
    Diffractive(DiffractiveBatchCache),
    /// Caches of a codesign layer, one per sample (each carries its own
    /// Gumbel weights/modulation).
    Codesign(Vec<CodesignCache>),
    /// Cache of a nonlinear layer (plane-batched).
    Nonlinear(NonlinearBatchCache),
}

/// Full forward trace of a **batch** of samples — the batched counterpart
/// of [`Trace`], reused in place across training steps (see
/// [`crate::train::BatchTraceRing`]).
#[derive(Debug, Clone)]
pub struct BatchTrace {
    caches: Vec<BatchLayerCache>,
    /// Wavefields on the detector plane, one per sample.
    pub detector_fields: FieldBatch,
    /// Class logits per sample.
    pub logits: Vec<Vec<f64>>,
}

impl Default for BatchTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchTrace {
    /// Creates an empty trace; the first batched forward pass shapes it.
    pub fn new() -> Self {
        BatchTrace {
            caches: Vec::new(),
            detector_fields: FieldBatch::with_capacity(0, 1, 1),
            logits: Vec::new(),
        }
    }

    /// Number of samples in the latest traced batch.
    pub fn batch(&self) -> usize {
        self.detector_fields.batch()
    }
}

/// The batched layer surface: transform every active plane of a
/// [`FieldBatch`] in place, inference mode (no activation caches). All
/// phase-modulating layers ([`DiffractiveLayer`], [`CodesignLayer`]), the
/// amplitude nonlinearity ([`SaturableAbsorber`]), and the [`Layer`] enum
/// implement it; the readout layer's batched surface is
/// [`Detector::read_batch_into`]. Implementations run the *same* per-plane
/// kernels as the per-sample entry points, so batched and per-sample
/// execution are bit-identical.
pub trait BatchForward {
    /// Transforms every active plane of `batch` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer grid, or if `mode` is
    /// [`CodesignMode::Train`] for layers whose training pass needs a
    /// cache (use the layer's `forward_batch_traced`).
    fn forward_batch_into(
        &self,
        batch: &mut FieldBatch,
        mode: CodesignMode,
        scratch: &mut PropagationScratch,
    );
}

impl BatchForward for DiffractiveLayer {
    fn forward_batch_into(
        &self,
        batch: &mut FieldBatch,
        _mode: CodesignMode,
        scratch: &mut PropagationScratch,
    ) {
        self.infer_batch_inplace(batch, scratch);
    }
}

impl BatchForward for CodesignLayer {
    fn forward_batch_into(
        &self,
        batch: &mut FieldBatch,
        mode: CodesignMode,
        scratch: &mut PropagationScratch,
    ) {
        self.infer_batch_inplace(batch, mode, scratch);
    }
}

impl BatchForward for SaturableAbsorber {
    fn forward_batch_into(
        &self,
        batch: &mut FieldBatch,
        _mode: CodesignMode,
        _scratch: &mut PropagationScratch,
    ) {
        self.infer_batch_inplace(batch);
    }
}

impl BatchForward for Layer {
    fn forward_batch_into(
        &self,
        batch: &mut FieldBatch,
        mode: CodesignMode,
        scratch: &mut PropagationScratch,
    ) {
        match self {
            Layer::Diffractive(l) => l.forward_batch_into(batch, mode, scratch),
            Layer::Codesign(l) => l.forward_batch_into(batch, mode, scratch),
            Layer::Nonlinear(l) => l.forward_batch_into(batch, mode, scratch),
        }
    }
}

thread_local! {
    /// Per-thread workspace pool backing the workspace-free entry points
    /// (`infer`, `forward_trace`, `backward`), so existing call sites get
    /// buffer reuse without an API change.
    static TLS_WORKSPACES: RefCell<Vec<PropagationWorkspace>> = const { RefCell::new(Vec::new()) };
}

/// Lends this thread's workspace for `shape` to `f`, creating it on first
/// use for that shape on this thread.
fn with_tls_workspace<R>(
    shape: (usize, usize),
    f: impl FnOnce(&mut PropagationWorkspace) -> R,
) -> R {
    let mut ws = TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.iter().position(|w| w.shape() == shape) {
            Some(i) => cache.swap_remove(i),
            None => PropagationWorkspace::new(shape.0, shape.1),
        }
    });
    let out = f(&mut ws);
    TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() < 4 {
            cache.push(ws);
        }
    });
    out
}

/// A complete DONN: stacked layers → final free-space hop → detector.
///
/// # Examples
///
/// ```
/// use lightridge::{DonnBuilder, Detector};
/// use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
/// use lr_tensor::Field;
///
/// let grid = Grid::square(32, PixelPitch::from_um(36.0));
/// let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
///     .distance(Distance::from_mm(100.0))
///     .diffractive_layers(2)
///     .detector(Detector::grid_layout(32, 32, 4, 3))
///     .build();
/// let logits = model.infer(&Field::ones(32, 32));
/// assert_eq!(logits.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DonnModel {
    grid: Grid,
    wavelength: Wavelength,
    layers: Vec<Layer>,
    final_propagator: FreeSpace,
    detector: Detector,
}

impl DonnModel {
    /// Assembles a model from parts. Prefer [`crate::DonnBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if there are no layers or the detector plane does not match
    /// the grid.
    pub fn from_parts(
        grid: Grid,
        wavelength: Wavelength,
        layers: Vec<Layer>,
        final_propagator: FreeSpace,
        detector: Detector,
    ) -> Self {
        assert!(
            !layers.is_empty(),
            "a DONN needs at least one diffractive layer"
        );
        assert_eq!(
            detector.shape(),
            grid.shape(),
            "detector plane must match the grid"
        );
        DonnModel {
            grid,
            wavelength,
            layers,
            final_propagator,
            detector,
        }
    }

    /// The model's sampling grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Design wavelength.
    pub fn wavelength(&self) -> Wavelength {
        self.wavelength
    }

    /// The stacked layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (optimizer / deployment editing).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Model depth (number of diffractive layers).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The final free-space hop onto the detector plane.
    pub fn final_propagator(&self) -> &FreeSpace {
        &self.final_propagator
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.detector.num_classes()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Allocates a [`PropagationWorkspace`] sized for this model's grid.
    pub fn make_workspace(&self) -> PropagationWorkspace {
        let (rows, cols) = self.grid.shape();
        PropagationWorkspace::new(rows, cols)
    }

    /// Full forward pass with trace. `seed` drives per-sample Gumbel noise
    /// for codesign layers in [`CodesignMode::Train`].
    ///
    /// Borrows this thread's cached workspace; batch loops that own their
    /// workspaces should call [`DonnModel::forward_trace_with`] directly.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the grid.
    pub fn forward_trace(&self, input: &Field, mode: CodesignMode, seed: u64) -> Trace {
        with_tls_workspace(self.grid.shape(), |ws| {
            self.forward_trace_with(input, mode, seed, ws)
        })
    }

    /// [`DonnModel::forward_trace`] through a caller-owned workspace: the
    /// running wavefield lives in the workspace and every free-space hop
    /// reuses its FFT scratch, so the only per-sample allocations left are
    /// the activation caches the returned [`Trace`] owns.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the grid.
    pub fn forward_trace_with(
        &self,
        input: &Field,
        mode: CodesignMode,
        seed: u64,
        ws: &mut PropagationWorkspace,
    ) -> Trace {
        let (rows, cols) = self.grid.shape();
        let mut trace = Trace {
            caches: Vec::with_capacity(self.layers.len()),
            detector_field: Field::zeros(rows, cols),
            logits: Vec::with_capacity(self.num_classes()),
        };
        self.forward_trace_into(input, mode, seed, ws, &mut trace);
        trace
    }

    /// [`DonnModel::forward_trace_with`] through a caller-owned, reusable
    /// [`Trace`]: per-layer activation caches, the detector field, and the
    /// logits buffer are all overwritten in place instead of freshly
    /// allocated. Once `trace` has been shaped by a prior pass over this
    /// model, the whole forward trace performs **zero heap allocations**
    /// for diffractive/nonlinear stacks (codesign layers reuse their
    /// weight/modulation buffers too). Combined with
    /// [`DonnModel::backward_with`] this extends the zero-allocation
    /// workspace contract to the full training step (see the
    /// [`crate::train::TraceRing`] per-worker ring and `tests/zero_alloc.rs`).
    ///
    /// A `trace` produced by a different model (or a previous shape) is
    /// reshaped on the fly, allocating once.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the grid.
    pub fn forward_trace_into(
        &self,
        input: &Field,
        mode: CodesignMode,
        seed: u64,
        ws: &mut PropagationWorkspace,
        trace: &mut Trace,
    ) {
        assert_eq!(
            input.shape(),
            self.grid.shape(),
            "input/grid shape mismatch"
        );
        ws.u.copy_from(input);
        trace.caches.truncate(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let layer_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
            // Reuse the cache slot in place when its kind matches the
            // layer; replace it (allocating once) otherwise.
            match (layer, trace.caches.get_mut(i)) {
                (Layer::Diffractive(l), Some(LayerCache::Diffractive(c))) => {
                    l.forward_into(&mut ws.u, c, &mut ws.scratch);
                }
                (Layer::Codesign(l), Some(LayerCache::Codesign(c))) => {
                    l.forward_into(&mut ws.u, mode, layer_seed, &mut ws.scratch, c);
                }
                (Layer::Nonlinear(l), Some(LayerCache::Nonlinear(c))) => {
                    l.forward_into(&mut ws.u, c);
                }
                (layer, slot) => {
                    let (rows, cols) = self.grid.shape();
                    let fresh = match layer {
                        Layer::Diffractive(l) => {
                            let mut c = DiffractiveCache::zeros(rows, cols);
                            l.forward_into(&mut ws.u, &mut c, &mut ws.scratch);
                            LayerCache::Diffractive(c)
                        }
                        Layer::Codesign(l) => {
                            let mut c = CodesignCache::zeros(rows, cols);
                            l.forward_into(&mut ws.u, mode, layer_seed, &mut ws.scratch, &mut c);
                            LayerCache::Codesign(c)
                        }
                        Layer::Nonlinear(l) => {
                            let mut c = NonlinearCache {
                                input: Field::zeros(rows, cols),
                            };
                            l.forward_into(&mut ws.u, &mut c);
                            LayerCache::Nonlinear(c)
                        }
                    };
                    match slot {
                        Some(slot) => *slot = fresh,
                        None => trace.caches.push(fresh),
                    }
                }
            }
        }
        self.final_propagator
            .propagate_with(&mut ws.u, &mut ws.scratch);
        if trace.detector_field.shape() != ws.u.shape() {
            trace.detector_field = Field::zeros(ws.u.rows(), ws.u.cols());
        }
        trace.detector_field.copy_from(&ws.u);
        {
            let _t = KernelTimer::start(KernelKind::Detector);
            self.detector.read_into(&ws.u, &mut trace.logits);
        }
    }

    /// Inference logits through a caller-owned workspace and output buffer:
    /// **zero heap allocations** in steady state (the paper's emulation hot
    /// path). Codesign layers use their noise-free states per `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the grid or `mode` is
    /// [`CodesignMode::Train`].
    pub fn infer_mode_into(
        &self,
        input: &Field,
        mode: CodesignMode,
        ws: &mut PropagationWorkspace,
        logits: &mut Vec<f64>,
    ) {
        assert_eq!(
            input.shape(),
            self.grid.shape(),
            "input/grid shape mismatch"
        );
        ws.u.copy_from(input);
        for layer in &self.layers {
            match layer {
                Layer::Diffractive(l) => l.infer_inplace(&mut ws.u, &mut ws.scratch),
                Layer::Codesign(l) => l.infer_inplace(&mut ws.u, mode, &mut ws.scratch),
                Layer::Nonlinear(l) => l.infer_inplace(&mut ws.u),
            }
        }
        self.final_propagator
            .propagate_with(&mut ws.u, &mut ws.scratch);
        {
            let _t = KernelTimer::start(KernelKind::Detector);
            self.detector.read_into(&ws.u, logits);
        }
    }

    /// Emulation-mode [`DonnModel::infer_mode_into`] (soft codesign states).
    pub fn infer_into(&self, input: &Field, ws: &mut PropagationWorkspace, logits: &mut Vec<f64>) {
        self.infer_mode_into(input, CodesignMode::Soft, ws, logits);
    }

    /// Allocates a [`BatchWorkspace`] for up to `capacity` samples on this
    /// model's grid.
    pub fn make_batch_workspace(&self, capacity: usize) -> BatchWorkspace {
        let (rows, cols) = self.grid.shape();
        BatchWorkspace::new(capacity, rows, cols, self.num_classes())
    }

    /// **True batched inference**: all `B` inputs propagate through every
    /// layer as one fused [`FieldBatch`] pass — one plan lookup, one
    /// transfer-kernel broadcast, and one shared scratch per layer hop
    /// instead of `B` per-sample traversals. Each logit vector lands in
    /// the matching output slot. This is the registry-facing serving
    /// primitive; it performs **zero heap allocations** in steady state
    /// (batch ≤ workspace capacity) and is **bit-identical** to `B`
    /// separate [`DonnModel::infer`] calls, because every batched hop runs
    /// the same per-plane kernels as the per-sample path.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `outputs` lengths differ, any input shape
    /// mismatches the grid, or `mode` is [`CodesignMode::Train`].
    pub fn infer_batch_into(
        &self,
        inputs: &[&Field],
        mode: CodesignMode,
        ws: &mut BatchWorkspace,
        outputs: &mut [Vec<f64>],
    ) {
        assert_eq!(
            inputs.len(),
            outputs.len(),
            "inputs/outputs length mismatch"
        );
        ws.begin_batch(inputs.len());
        for (b, input) in inputs.iter().enumerate() {
            ws.load_input(b, input);
        }
        self.forward_batch_planes(mode, ws);
        {
            let _t = KernelTimer::start(KernelKind::Detector);
            self.detector.read_batch_into(&ws.u, outputs);
        }
    }

    /// The staged half of the serving fast path: runs batched inference on
    /// the planes already loaded into `ws` (via
    /// [`BatchWorkspace::begin_batch`] + [`BatchWorkspace::load_input`]),
    /// leaving each sample's logits in [`BatchWorkspace::staged_logits`].
    /// The serve dispatcher stages inputs one slot-lock at a time, executes
    /// the whole coalesced micro-batch here as **one batched forward**, and
    /// distributes the staged logits — all without holding more than one
    /// request lock at once and without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`CodesignMode::Train`].
    pub fn infer_staged_batch(&self, mode: CodesignMode, ws: &mut BatchWorkspace) {
        self.forward_batch_planes(mode, ws);
        let n = ws.u.batch();
        {
            let _t = KernelTimer::start(KernelKind::Detector);
            self.detector.read_batch_into(&ws.u, &mut ws.staged[..n]);
        }
    }

    /// Runs the layer stack plus the final hop over the active planes of
    /// `ws.u` — the shared body of both batched inference entry points.
    fn forward_batch_planes(&self, mode: CodesignMode, ws: &mut BatchWorkspace) {
        assert_eq!(
            ws.shape(),
            self.grid.shape(),
            "workspace/grid shape mismatch"
        );
        for layer in &self.layers {
            layer.forward_batch_into(&mut ws.u, mode, &mut ws.scratch);
        }
        self.final_propagator
            .propagate_batch_into(&mut ws.u, &mut ws.scratch);
    }

    /// Batched [`DonnModel::forward_trace_into`]: forwards a whole batch
    /// of inputs through the stack as fused [`FieldBatch`] passes,
    /// overwriting the reusable `trace` in place (per-layer batch caches,
    /// detector planes, per-sample logits). `seeds[b]` drives plane `b`'s
    /// Gumbel noise in [`CodesignMode::Train`], decorrelated across layers
    /// exactly like the per-sample path — traced batched forwards are
    /// bit-identical to `B` per-sample [`DonnModel::forward_trace_with`]
    /// calls with the same seeds.
    ///
    /// # Panics
    ///
    /// Panics if the input plane shape mismatches the grid or `seeds` does
    /// not cover the batch.
    pub fn forward_trace_batch_into(
        &self,
        inputs: &FieldBatch,
        mode: CodesignMode,
        seeds: &[u64],
        ws: &mut BatchWorkspace,
        trace: &mut BatchTrace,
    ) {
        assert_eq!(
            inputs.plane_shape(),
            self.grid.shape(),
            "input/grid shape mismatch"
        );
        assert_eq!(seeds.len(), inputs.batch(), "one seed per batch plane");
        let b = inputs.batch();
        ws.begin_batch(b);
        ws.u.copy_from(inputs);
        trace.caches.truncate(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            // Decorrelate noise across layers (same formula as the
            // per-sample trace path).
            ws.layer_seeds.clear();
            ws.layer_seeds.extend(
                seeds
                    .iter()
                    .map(|s| s.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)),
            );
            let (rows, cols) = self.grid.shape();
            // Reuse the cache slot in place when its kind matches the
            // layer; replace it (allocating once) otherwise.
            let slot = trace.caches.get_mut(i);
            match (layer, slot) {
                (Layer::Diffractive(l), Some(BatchLayerCache::Diffractive(c))) => {
                    l.forward_batch_traced(&mut ws.u, c, &mut ws.scratch);
                }
                (Layer::Codesign(l), Some(BatchLayerCache::Codesign(c))) => {
                    l.forward_batch_traced(&mut ws.u, mode, &ws.layer_seeds, &mut ws.scratch, c);
                }
                (Layer::Nonlinear(l), Some(BatchLayerCache::Nonlinear(c))) => {
                    l.forward_batch_traced(&mut ws.u, c);
                }
                (layer, slot) => {
                    let fresh = match layer {
                        Layer::Diffractive(l) => {
                            let mut c = DiffractiveBatchCache::with_capacity(b, rows, cols);
                            l.forward_batch_traced(&mut ws.u, &mut c, &mut ws.scratch);
                            BatchLayerCache::Diffractive(c)
                        }
                        Layer::Codesign(l) => {
                            let mut c = Vec::new();
                            l.forward_batch_traced(
                                &mut ws.u,
                                mode,
                                &ws.layer_seeds,
                                &mut ws.scratch,
                                &mut c,
                            );
                            BatchLayerCache::Codesign(c)
                        }
                        Layer::Nonlinear(l) => {
                            let mut c = NonlinearBatchCache::with_capacity(b, rows, cols);
                            l.forward_batch_traced(&mut ws.u, &mut c);
                            BatchLayerCache::Nonlinear(c)
                        }
                    };
                    match slot {
                        Some(slot) => *slot = fresh,
                        None => trace.caches.push(fresh),
                    }
                }
            }
        }
        self.final_propagator
            .propagate_batch_into(&mut ws.u, &mut ws.scratch);
        if trace.detector_fields.plane_shape() != ws.u.plane_shape() {
            trace.detector_fields = FieldBatch::with_capacity(b, ws.u.rows(), ws.u.cols());
        }
        trace.detector_fields.copy_from(&ws.u);
        if trace.logits.len() < b {
            let classes = self.num_classes();
            trace.logits.resize_with(b, || Vec::with_capacity(classes));
        }
        trace.logits.truncate(b);
        {
            let _t = KernelTimer::start(KernelKind::Detector);
            self.detector.read_batch_into(&ws.u, &mut trace.logits);
        }
    }

    /// Batched [`DonnModel::backward_with`]: backpropagates every sample
    /// of a traced batch as fused [`FieldBatch`] adjoint passes. Parameter
    /// gradients accumulate into `grads` summed over the batch in plane
    /// order — bit-identical to `B` per-sample backward calls in sample
    /// order — and the per-sample input gradients are left in
    /// [`BatchWorkspace::input_grad_batch`]. Unlike the per-sample path,
    /// codesign and nonlinear layers run fully in place here (no
    /// per-sample gradient-field allocation).
    ///
    /// # Panics
    ///
    /// Panics if `logit_grads` does not hold one `num_classes` vector per
    /// traced sample or the trace does not belong to this model.
    pub fn backward_batch_with(
        &self,
        trace: &BatchTrace,
        logit_grads: &[Vec<f64>],
        grads: &mut ModelGrads,
        ws: &mut BatchWorkspace,
    ) {
        let b = trace.batch();
        assert_eq!(logit_grads.len(), b, "one logit-gradient row per sample");
        assert_eq!(
            trace.caches.len(),
            self.layers.len(),
            "trace/model depth mismatch"
        );
        ws.grad.set_batch(b);
        for (bi, row) in logit_grads.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.num_classes(),
                "logit gradient length mismatch"
            );
            self.detector.backward_plane_into(
                trace.detector_fields.plane(bi),
                row,
                ws.grad.plane_mut(bi),
            );
        }
        self.final_propagator
            .adjoint_batch_into(&mut ws.grad, &mut ws.scratch);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let buf = &mut grads.per_layer[i];
            match (layer, &trace.caches[i]) {
                (Layer::Diffractive(l), BatchLayerCache::Diffractive(c)) => {
                    l.backward_batch_inplace(&mut ws.grad, c, buf, &mut ws.scratch);
                }
                (Layer::Codesign(l), BatchLayerCache::Codesign(c)) => {
                    l.backward_batch_inplace(&mut ws.grad, c, buf, &mut ws.scratch);
                }
                (Layer::Nonlinear(l), BatchLayerCache::Nonlinear(c)) => {
                    l.backward_batch_inplace(&mut ws.grad, c);
                }
                _ => panic!("trace cache kind does not match layer kind at layer {i}"),
            }
        }
    }

    /// Forces every lazily-built piece of this model's inference fast path
    /// into the global and per-thread caches: FFT plans and diffraction
    /// transfer kernels for every hop, every layer's transmission table
    /// (both inference modes of a codesign layer), plus one dummy
    /// end-to-end inference to size scratch. Serving registries call this
    /// at registration time so the first real request pays no
    /// plan-construction or table-filling latency; it allocates, so never
    /// call it from a hot path.
    pub fn prewarm(&self) {
        for layer in &self.layers {
            match layer {
                Layer::Diffractive(l) => {
                    l.propagator().prewarm();
                    l.transmission();
                }
                Layer::Codesign(l) => {
                    l.propagator().prewarm();
                    l.transmission(CodesignMode::Soft);
                    l.transmission(CodesignMode::Deploy);
                }
                Layer::Nonlinear(_) => {}
            }
        }
        self.final_propagator.prewarm();
        let (rows, cols) = self.grid.shape();
        let mut ws = self.make_workspace();
        let mut logits = Vec::with_capacity(self.num_classes());
        self.infer_into(&Field::ones(rows, cols), &mut ws, &mut logits);
    }

    /// Inference: emulation-mode logits (soft codesign states, no noise).
    pub fn infer(&self, input: &Field) -> Vec<f64> {
        let mut logits = Vec::with_capacity(self.num_classes());
        with_tls_workspace(self.grid.shape(), |ws| {
            self.infer_mode_into(input, CodesignMode::Soft, ws, &mut logits);
        });
        logits
    }

    /// Inference with hard (deployable) codesign states.
    pub fn infer_deployed(&self, input: &Field) -> Vec<f64> {
        let mut logits = Vec::with_capacity(self.num_classes());
        with_tls_workspace(self.grid.shape(), |ws| {
            self.infer_mode_into(input, CodesignMode::Deploy, ws, &mut logits);
        });
        logits
    }

    /// The intensity pattern on the detector plane (the paper's Fig. 6
    /// "detector pattern"), in emulation mode.
    pub fn detector_pattern(&self, input: &Field) -> Vec<f64> {
        self.forward_trace(input, CodesignMode::Soft, 0)
            .detector_field
            .intensity()
    }

    /// Intensity frames of the light as it propagates through the system:
    /// one frame after each layer plus the detector plane. The paper's
    /// tutorial visualizes exactly this sequence (inaccessible in physical
    /// all-optical inference, available in emulation).
    pub fn propagation_frames(&self, input: &Field) -> Vec<Vec<f64>> {
        let trace = self.forward_trace(input, CodesignMode::Soft, 0);
        let mut frames: Vec<Vec<f64>> = trace
            .caches
            .iter()
            .map(|cache| match cache {
                LayerCache::Diffractive(c) => c.output.intensity(),
                LayerCache::Codesign(c) => {
                    // Reconstruct the modulated output from the cache.
                    let mut out = c.propagated.clone();
                    for (z, &m) in out.as_mut_slice().iter_mut().zip(&c.modulation) {
                        *z *= m;
                    }
                    out.intensity()
                }
                LayerCache::Nonlinear(c) => c.input.intensity(),
            })
            .collect();
        frames.push(trace.detector_field.intensity());
        frames
    }

    /// Backward pass from per-class logit gradients; accumulates parameter
    /// gradients into `grads` and returns the input-field gradient.
    ///
    /// # Panics
    ///
    /// Panics if `logit_grads` length differs from the class count or the
    /// trace does not belong to this model.
    pub fn backward(&self, trace: &Trace, logit_grads: &[f64], grads: &mut ModelGrads) -> Field {
        with_tls_workspace(self.grid.shape(), |ws| {
            self.backward_with(trace, logit_grads, grads, ws);
            ws.grad.clone()
        })
    }

    /// [`DonnModel::backward`] through a caller-owned workspace. The
    /// gradient field lives in the workspace and is left in
    /// [`PropagationWorkspace::input_grad`]; parameter gradients accumulate
    /// into `grads` as usual. Diffractive layers and the detector/final-hop
    /// stages run fully in place; codesign and nonlinear layers still
    /// allocate one field per layer per sample in their backward steps.
    ///
    /// # Panics
    ///
    /// Panics if `logit_grads` length differs from the class count or the
    /// trace does not belong to this model.
    pub fn backward_with(
        &self,
        trace: &Trace,
        logit_grads: &[f64],
        grads: &mut ModelGrads,
        ws: &mut PropagationWorkspace,
    ) {
        assert_eq!(
            logit_grads.len(),
            self.num_classes(),
            "logit gradient length mismatch"
        );
        assert_eq!(
            trace.caches.len(),
            self.layers.len(),
            "trace/model depth mismatch"
        );
        self.detector
            .backward_into(&trace.detector_field, logit_grads, &mut ws.grad);
        self.final_propagator
            .adjoint_with(&mut ws.grad, &mut ws.scratch);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let buf = &mut grads.per_layer[i];
            match (layer, &trace.caches[i]) {
                (Layer::Diffractive(l), LayerCache::Diffractive(c)) => {
                    l.backward_inplace(&mut ws.grad, c, buf, &mut ws.scratch);
                }
                (Layer::Codesign(l), LayerCache::Codesign(c)) => {
                    let g = l.backward(&ws.grad, c, buf);
                    ws.grad.copy_from(&g);
                }
                (Layer::Nonlinear(l), LayerCache::Nonlinear(c)) => {
                    let g = l.backward(&ws.grad, c);
                    ws.grad.copy_from(&g);
                }
                _ => panic!("trace cache kind does not match layer kind at layer {i}"),
            }
        }
    }

    /// Sets the Gumbel-Softmax temperature of every codesign layer.
    pub fn set_temperature(&mut self, tau: f64) {
        for layer in &mut self.layers {
            if let Layer::Codesign(l) = layer {
                l.set_temperature(tau);
            }
        }
    }

    /// Sets γ on every raw diffractive layer (Fig. 7 regularization sweep).
    pub fn set_gamma(&mut self, gamma: f64) {
        for layer in &mut self.layers {
            if let Layer::Diffractive(l) = layer {
                l.set_gamma(gamma);
            }
        }
    }

    /// Per-layer deployable phase masks (radians).
    pub fn phase_masks(&self) -> Vec<Vec<f64>> {
        self.layers.iter().map(Layer::phase_mask).collect()
    }
}

/// Builder for [`DonnModel`] — the `lr.models` front-end of the DSL.
#[derive(Debug, Clone)]
pub struct DonnBuilder {
    grid: Grid,
    wavelength: Wavelength,
    distance: Distance,
    approximation: Approximation,
    gamma: f64,
    layers: Vec<LayerSpec>,
    detector: Option<Detector>,
    init_seed: u64,
}

#[derive(Debug, Clone)]
enum LayerSpec {
    Diffractive,
    Codesign {
        device: lr_hardware::SlmModel,
        temperature: f64,
    },
    Nonlinear {
        alpha: f64,
        saturation: f64,
    },
}

impl DonnBuilder {
    /// Starts a builder with paper-default optics: 0.3 m spacing,
    /// Rayleigh-Sommerfeld approximation, γ = 1.
    pub fn new(grid: Grid, wavelength: Wavelength) -> Self {
        DonnBuilder {
            grid,
            wavelength,
            distance: Distance::from_meters(0.3),
            approximation: Approximation::RayleighSommerfeld,
            gamma: 1.0,
            layers: Vec::new(),
            detector: None,
            init_seed: 42,
        }
    }

    /// Sets the layer-to-layer (and source/detector) spacing.
    pub fn distance(mut self, distance: Distance) -> Self {
        self.distance = distance;
        self
    }

    /// Selects the diffraction approximation.
    pub fn approximation(mut self, approximation: Approximation) -> Self {
        self.approximation = approximation;
        self
    }

    /// Sets the complex-valued regularization factor γ (paper §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not finite and positive.
    pub fn gamma(mut self, gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "gamma must be finite and positive"
        );
        self.gamma = gamma;
        self
    }

    /// Appends `count` raw diffractive layers.
    pub fn diffractive_layers(mut self, count: usize) -> Self {
        for _ in 0..count {
            self.layers.push(LayerSpec::Diffractive);
        }
        self
    }

    /// Appends `count` hardware-codesign layers for `device`.
    pub fn codesign_layers(
        mut self,
        count: usize,
        device: lr_hardware::SlmModel,
        temperature: f64,
    ) -> Self {
        for _ in 0..count {
            self.layers.push(LayerSpec::Codesign {
                device: device.clone(),
                temperature,
            });
        }
        self
    }

    /// Appends a saturable-absorber nonlinearity at the current plane
    /// (paper §6: "non-linearity in DONN systems ... realized by nonlinear
    /// optical materials").
    pub fn nonlinearity(mut self, alpha: f64, saturation: f64) -> Self {
        self.layers.push(LayerSpec::Nonlinear { alpha, saturation });
        self
    }

    /// Sets the detector.
    pub fn detector(mut self, detector: Detector) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Sets the parameter-initialization seed.
    pub fn init_seed(mut self, seed: u64) -> Self {
        self.init_seed = seed;
        self
    }

    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added or no detector was set.
    pub fn build(self) -> DonnModel {
        assert!(
            !self.layers.is_empty(),
            "add at least one layer before build()"
        );
        let detector = self.detector.expect("set a detector before build()");
        let mut layers = Vec::with_capacity(self.layers.len());
        for (i, spec) in self.layers.into_iter().enumerate() {
            let seed = self.init_seed.wrapping_add(i as u64 * 7919);
            match spec {
                LayerSpec::Diffractive => {
                    let mut l = DiffractiveLayer::new(
                        self.grid,
                        self.wavelength,
                        self.distance,
                        self.approximation,
                        self.gamma,
                    );
                    l.randomize_phases(seed);
                    layers.push(Layer::Diffractive(l));
                }
                LayerSpec::Codesign {
                    device,
                    temperature,
                } => {
                    let mut l = CodesignLayer::new(
                        self.grid,
                        self.wavelength,
                        self.distance,
                        self.approximation,
                        device,
                        self.gamma,
                        temperature,
                    );
                    l.randomize_logits(seed);
                    layers.push(Layer::Codesign(l));
                }
                LayerSpec::Nonlinear { alpha, saturation } => {
                    layers.push(Layer::Nonlinear(SaturableAbsorber::new(alpha, saturation)));
                }
            }
        }
        let final_propagator = FreeSpace::new(
            self.grid,
            self.wavelength,
            self.distance,
            self.approximation,
        );
        DonnModel::from_parts(
            self.grid,
            self.wavelength,
            layers,
            final_propagator,
            detector,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_nn::loss::{one_hot, softmax_mse};
    use lr_optics::PixelPitch;
    use lr_tensor::Complex64;

    fn tiny_model(depth: usize) -> DonnModel {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .diffractive_layers(depth)
            .detector(Detector::grid_layout(16, 16, 4, 3))
            .build()
    }

    fn sample_input() -> Field {
        Field::from_fn(16, 16, |r, c| {
            let on = (r / 4 + c / 4) % 2 == 0;
            Complex64::from_real(if on { 1.0 } else { 0.0 })
        })
    }

    #[test]
    fn forward_produces_class_logits() {
        let model = tiny_model(3);
        let logits = model.infer(&sample_input());
        assert_eq!(logits.len(), 4);
        assert!(logits.iter().all(|&l| l.is_finite() && l >= 0.0));
        assert!(
            logits.iter().sum::<f64>() > 0.0,
            "some light must reach the detector"
        );
    }

    #[test]
    fn raw_backward_batch_matches_per_call_cis_formula() {
        // The raw layer's backward reads `conj` of its transmission table;
        // it must give the gradients of the formula it replaced, which
        // computed `cis(−φ)·γ` per pixel per call.
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .gamma(1.3)
            .diffractive_layers(3)
            .detector(Detector::grid_layout(16, 16, 4, 3))
            .build();
        let b = 3;
        let mut inputs = FieldBatch::zeros(b, 16, 16);
        for bi in 0..b {
            for (p, z) in inputs.plane_mut(bi).iter_mut().enumerate() {
                *z = Complex64::new(((p + 5 * bi) % 7) as f64 * 0.2, (p % 3) as f64 * 0.1);
            }
        }
        let mut ws = model.make_batch_workspace(b);
        let mut trace = BatchTrace::new();
        model.forward_trace_batch_into(&inputs, CodesignMode::Soft, &[0; 3], &mut ws, &mut trace);
        let logit_grads: Vec<Vec<f64>> = trace
            .logits
            .iter()
            .map(|l| l.iter().map(|x| 0.5 * x - 0.1).collect())
            .collect();
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward_batch_with(&trace, &logit_grads, &mut grads, &mut ws);

        let mut g = FieldBatch::zeros(b, 16, 16);
        for (bi, row) in logit_grads.iter().enumerate() {
            model.detector.backward_plane_into(
                trace.detector_fields.plane(bi),
                row,
                g.plane_mut(bi),
            );
        }
        let mut scratch = model.final_propagator.make_scratch();
        model
            .final_propagator
            .adjoint_batch_into(&mut g, &mut scratch);
        let mut expected = ModelGrads::zeros_like(&model);
        for (i, layer) in model.layers.iter().enumerate().rev() {
            let (Layer::Diffractive(l), BatchLayerCache::Diffractive(c)) =
                (layer, &trace.caches[i])
            else {
                panic!("raw stack");
            };
            let acc = &mut expected.per_layer[i];
            for bi in 0..b {
                let out = c.output.plane(bi);
                for (p, z) in g.plane_mut(bi).iter_mut().enumerate() {
                    acc[p] += 2.0 * (z.conj() * (Complex64::I * out[p])).re;
                    *z *= Complex64::cis(-l.phases()[p]) * l.gamma();
                }
            }
            l.propagator().adjoint_batch_into(&mut g, &mut scratch);
        }
        let bits = |g: &ModelGrads| -> Vec<Vec<u64>> {
            g.per_layer
                .iter()
                .map(|l| l.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&grads), bits(&expected));
        assert_eq!(
            ws.input_grad_batch().as_slice(),
            g.as_slice(),
            "input gradients"
        );
    }

    #[test]
    fn trace_and_infer_agree() {
        let model = tiny_model(2);
        let x = sample_input();
        let trace = model.forward_trace(&x, CodesignMode::Soft, 0);
        assert_eq!(trace.logits, model.infer(&x));
        assert_eq!(trace.detector_field.shape(), (16, 16));
    }

    #[test]
    fn end_to_end_gradient_check() {
        // Full-pipeline finite-difference check through 2 layers, final
        // propagation, detector, softmax-MSE loss.
        let model = tiny_model(2);
        let x = sample_input();
        let target = one_hot(1, 4);

        let trace = model.forward_trace(&x, CodesignMode::Soft, 0);
        let (_, logit_grads) = softmax_mse(&trace.logits, &target);
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward(&trace, &logit_grads, &mut grads);

        for layer_idx in 0..2 {
            let params = model.layers()[layer_idx].params().to_vec();
            let report = lr_nn::gradcheck::check_gradient_sampled(
                |p: &[f64]| {
                    let mut m = model.clone();
                    m.layers_mut()[layer_idx].params_mut().copy_from_slice(p);
                    let t = m.forward_trace(&x, CodesignMode::Soft, 0);
                    softmax_mse(&t.logits, &target).0
                },
                &params,
                grads.layer(layer_idx),
                1e-5,
                12,
            );
            assert!(report.passes(1e-3), "layer {layer_idx}: {report:?}");
        }
    }

    #[test]
    fn gradient_accumulation_linear() {
        let model = tiny_model(1);
        let x = sample_input();
        let target = one_hot(0, 4);
        let trace = model.forward_trace(&x, CodesignMode::Soft, 0);
        let (_, lg) = softmax_mse(&trace.logits, &target);
        let mut g1 = ModelGrads::zeros_like(&model);
        model.backward(&trace, &lg, &mut g1);
        let mut g2 = ModelGrads::zeros_like(&model);
        model.backward(&trace, &lg, &mut g2);
        model.backward(&trace, &lg, &mut g2);
        // g2 accumulated twice = 2×g1
        for (a, b) in g1.layer(0).iter().zip(g2.layer(0)) {
            assert!((2.0 * a - b).abs() < 1e-10);
        }
        g2.scale(0.5);
        for (a, b) in g1.layer(0).iter().zip(g2.layer(0)) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn mixed_stack_builds_and_runs() {
        let grid = Grid::square(12, PixelPitch::from_um(36.0));
        let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .diffractive_layers(1)
            .codesign_layers(1, lr_hardware::SlmModel::ideal(8), 1.0)
            .detector(Detector::grid_layout(12, 12, 2, 3))
            .build();
        assert_eq!(model.depth(), 2);
        assert!(model.num_params() > 0);
        let logits = model.infer(&Field::ones(12, 12));
        assert_eq!(logits.len(), 2);
        let deployed = model.infer_deployed(&Field::ones(12, 12));
        assert_eq!(deployed.len(), 2);
    }

    #[test]
    fn phase_masks_per_layer() {
        let model = tiny_model(3);
        let masks = model.phase_masks();
        assert_eq!(masks.len(), 3);
        assert!(masks.iter().all(|m| m.len() == 256));
    }

    #[test]
    fn grads_norm_positive_after_backward() {
        let model = tiny_model(2);
        let x = sample_input();
        let trace = model.forward_trace(&x, CodesignMode::Soft, 0);
        let (_, lg) = softmax_mse(&trace.logits, &one_hot(2, 4));
        let mut grads = ModelGrads::zeros_like(&model);
        assert_eq!(grads.norm(), 0.0);
        model.backward(&trace, &lg, &mut grads);
        assert!(grads.norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn builder_requires_layers() {
        let grid = Grid::square(8, PixelPitch::from_um(36.0));
        let _ = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .detector(Detector::grid_layout(8, 8, 2, 2))
            .build();
    }

    #[test]
    fn nonlinear_stack_end_to_end_gradient_check() {
        // Diffractive -> saturable absorber -> diffractive: gradients must
        // flow correctly through the parameter-free nonlinear film.
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .diffractive_layers(1)
            .nonlinearity(0.3, 0.5)
            .diffractive_layers(1)
            .detector(Detector::grid_layout(16, 16, 4, 3))
            .init_seed(9)
            .build();
        assert_eq!(model.depth(), 3);
        assert_eq!(model.layers()[1].num_params(), 0);

        let x = sample_input();
        let target = one_hot(2, 4);
        let trace = model.forward_trace(&x, CodesignMode::Soft, 0);
        let (_, logit_grads) = softmax_mse(&trace.logits, &target);
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward(&trace, &logit_grads, &mut grads);

        for layer_idx in [0usize, 2] {
            let params = model.layers()[layer_idx].params().to_vec();
            let report = lr_nn::gradcheck::check_gradient_sampled(
                |p: &[f64]| {
                    let mut m = model.clone();
                    m.layers_mut()[layer_idx].params_mut().copy_from_slice(p);
                    let t = m.forward_trace(&x, CodesignMode::Soft, 0);
                    softmax_mse(&t.logits, &target).0
                },
                &params,
                grads.layer(layer_idx),
                1e-5,
                10,
            );
            assert!(report.passes(1e-3), "layer {layer_idx}: {report:?}");
        }
    }

    #[test]
    fn propagation_frames_cover_every_plane() {
        let model = tiny_model(3);
        let frames = model.propagation_frames(&sample_input());
        // 3 layer planes + detector plane.
        assert_eq!(frames.len(), 4);
        assert!(frames.iter().all(|f| f.len() == 256));
        // The detector frame matches detector_pattern.
        assert_eq!(frames[3], model.detector_pattern(&sample_input()));
        // Light never vanishes completely mid-stack.
        assert!(frames.iter().all(|f| f.iter().sum::<f64>() > 0.0));
    }

    #[test]
    fn nonlinear_layer_changes_forward() {
        let grid = Grid::square(12, PixelPitch::from_um(36.0));
        let base = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .diffractive_layers(2)
            .detector(Detector::grid_layout(12, 12, 2, 3))
            .init_seed(4)
            .build();
        let with_nl = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(20.0))
            .diffractive_layers(1)
            .nonlinearity(0.2, 0.1)
            .diffractive_layers(1)
            .detector(Detector::grid_layout(12, 12, 2, 3))
            .init_seed(4)
            .build();
        let x = Field::ones(12, 12);
        let a = base.infer(&x);
        let b = with_nl.infer(&x);
        assert!(a.iter().zip(&b).any(|(p, q)| (p - q).abs() > 1e-9));
    }
}
