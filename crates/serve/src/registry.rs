//! Versioned model registry: the serving runtime's source of truth for
//! what can be inferred.
//!
//! A deployment serves several *variants* of one trained stack — the paper
//! itself evaluates emulation readout, deployed (argmax device state)
//! readout, and the full hardware-emulated bench — so the registry stores
//! each under a `name@version` key and an explicit [`ServableVariant`].
//! Registration **prewarms** every lazily-built piece of the variant's
//! fast path (FFT plans, diffraction transfer kernels, scratch sizing) so
//! the first real request pays none of that latency.
//!
//! ## Epoch-versioned live registration
//!
//! [`ModelRegistry`] is the *startup builder*; once handed to
//! [`crate::Server::start`] it becomes an **epoch-versioned snapshot
//! chain** ([`RegistrySnapshot`] behind an `arc_swap::ArcSwap`). Live
//! registration and retirement build a new snapshot and flip one atomic
//! pointer — no queue drain, no pause:
//!
//! * Clients load the current snapshot per request; a request admitted
//!   against epoch *k* carries an `Arc` to its entry, so it completes on
//!   *k*'s model even if the registry flips (or the entry is retired)
//!   while it is queued.
//! * [`ModelId`]s are append-only slot indices, stable across epochs;
//!   retirement tombstones the slot (the id is never reused).
//! * Every flip increments the epoch, observable via
//!   [`crate::Server::epoch`].

use arc_swap::ArcSwap;
use lightridge::deploy::{HardwareEnvironment, PhysicalDonn};
use lightridge::{BatchWorkspace, CodesignMode, DonnModel};
use lr_tensor::Field;
use std::sync::{Arc, Mutex, MutexGuard};

/// Opaque handle to one registered model variant; cheap to copy and valid
/// for the registry (and any [`crate::Server`] built from it) forever.
/// Handles of retired variants stay valid as identifiers but are refused
/// at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// The registry slot index this handle points at.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw registry slot index. Needed by wire
    /// clients: the `lr-net` protocol addresses models by this index
    /// (`docs/PROTOCOL.md`), and a remote peer has no
    /// [`crate::Server::resolve`] to mint handles with, so the index
    /// travels out of band. An index that names no live slot fails at
    /// admission with [`crate::ServeError::UnknownModel`] — never
    /// undefined behavior.
    pub fn from_index(index: usize) -> ModelId {
        ModelId(index)
    }
}

/// Which detector-plane readout scheme an emulated variant serves.
///
/// Class-specific differential detection (Li et al., 2019) and the paper's
/// own deployment-gap study both read several schemes off one trained
/// stack; the registry makes each scheme its own servable entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadoutMode {
    /// Soft codesign states — the training-time emulation readout.
    Emulation,
    /// Hard (argmax) codesign states — the deployable readout.
    Deployed,
}

impl ReadoutMode {
    fn codesign_mode(self) -> CodesignMode {
        match self {
            ReadoutMode::Emulation => CodesignMode::Soft,
            ReadoutMode::Deployed => CodesignMode::Deploy,
        }
    }
}

/// One servable realization of a trained model.
#[derive(Debug, Clone)]
pub enum ServableVariant {
    /// Digital emulation of the stack at a chosen readout.
    Emulated {
        /// The trained model.
        model: DonnModel,
        /// Noise-free codesign readout mode (Soft or Deploy).
        mode: CodesignMode,
    },
    /// The stack realized on an emulated physical bench
    /// ([`HardwareEnvironment`]): device quantization, fabrication errors,
    /// crosstalk, and camera capture included.
    Physical {
        /// The deployed system.
        donn: PhysicalDonn,
    },
}

/// Per-worker scratch for one registered variant. Workers own one per
/// `(worker, model)` pair; the serve path reuses it for every run. Every
/// variant, emulated or physical, holds a [`BatchWorkspace`] sized for the
/// policy's `max_batch`, so a dispatcher executes a whole coalesced
/// same-model run as **one batched forward** (a lone request is the B=1
/// batch through the same planes — one execution path).
#[derive(Debug, Clone)]
pub(crate) enum VariantWorkspace {
    /// The workspace of a servable entry (boxed, so a placeholder does not
    /// occupy a whole workspace's size in the per-worker vector).
    Live(Box<BatchWorkspace>),
    /// Slim placeholder left behind by [`crate::Server::reclaim`]: keeps
    /// the per-worker workspace vector dense (ids are slot indices) after
    /// the real buffers have been dropped. A run that still reaches a
    /// reclaimed slot — only possible for submissions racing the retire
    /// flip — is failed with `UnknownModel`, never served from freed
    /// memory.
    Reclaimed,
}

impl VariantWorkspace {
    /// Heap bytes held by this workspace's buffers (0 once reclaimed).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            VariantWorkspace::Live(ws) => ws.resident_bytes(),
            VariantWorkspace::Reclaimed => 0,
        }
    }
}

/// A model variant registered under a versioned name.
#[derive(Debug)]
pub struct RegisteredModel {
    name: String,
    version: u32,
    variant: ServableVariant,
    shape: (usize, usize),
    classes: usize,
}

impl RegisteredModel {
    /// Registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registered version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The servable variant.
    pub fn variant(&self) -> &ServableVariant {
        &self.variant
    }

    /// Input-plane shape requests must match.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Number of readout classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    pub(crate) fn emulated(
        name: &str,
        version: u32,
        model: DonnModel,
        readout: ReadoutMode,
    ) -> RegisteredModel {
        let shape = model.grid().shape();
        let classes = model.num_classes();
        RegisteredModel {
            name: name.to_string(),
            version,
            variant: ServableVariant::Emulated {
                model,
                mode: readout.codesign_mode(),
            },
            shape,
            classes,
        }
    }

    pub(crate) fn physical(
        name: &str,
        version: u32,
        model: &DonnModel,
        env: &HardwareEnvironment,
    ) -> RegisteredModel {
        let donn = PhysicalDonn::deploy(model, env);
        let shape = donn.shape();
        let classes = donn.num_classes();
        RegisteredModel {
            name: name.to_string(),
            version,
            variant: ServableVariant::Physical { donn },
            shape,
            classes,
        }
    }

    /// Builds a per-worker workspace — a [`BatchWorkspace`] with room for
    /// `batch_capacity` co-resident planes (the policy's `max_batch`), so
    /// coalesced runs execute as one batched forward without allocating —
    /// and runs one dummy B=1 inference through it, so the workspace hands
    /// over fully sized and warm (part of the flat-first-request-latency
    /// contract for live registration).
    pub(crate) fn warmed_workspace(&self, batch_capacity: usize) -> VariantWorkspace {
        let capacity = batch_capacity.max(1);
        let mut ws = match &self.variant {
            ServableVariant::Emulated { model, .. } => model.make_batch_workspace(capacity),
            ServableVariant::Physical { donn } => donn.make_batch_workspace(capacity),
        };
        let (rows, cols) = self.shape;
        ws.begin_batch(1);
        ws.load_input(0, &Field::ones(rows, cols));
        self.infer_staged_batch(&mut ws);
        VariantWorkspace::Live(Box::new(ws))
    }

    /// Executes the batch already staged into `ws` (planes loaded via
    /// [`BatchWorkspace::load_input`]) as **one batched forward** of this
    /// variant, leaving per-sample logits staged in the workspace.
    pub(crate) fn infer_staged_batch(&self, ws: &mut BatchWorkspace) {
        match &self.variant {
            ServableVariant::Emulated { model, mode } => model.infer_staged_batch(*mode, ws),
            ServableVariant::Physical { donn } => donn.infer_staged_batch(ws),
        }
    }

    pub(crate) fn prewarm(&self) {
        match &self.variant {
            ServableVariant::Emulated { model, .. } => model.prewarm(),
            ServableVariant::Physical { donn } => donn.prewarm(),
        }
    }
}

/// Versioned model store used to *seed* a server. Build one, register
/// every variant the deployment serves at startup, then hand it to
/// [`crate::Server::start`]. Further (re-)registration happens **live** on
/// the running server ([`crate::Server::register_emulated`] /
/// [`crate::Server::register_physical`] / [`crate::Server::retire`]) via
/// atomic snapshot flips.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: Vec<RegisteredModel>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            entries: Vec::new(),
        }
    }

    /// Number of registered variants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a digital-emulation variant of `model` under
    /// `name@version` with the given readout scheme, prewarming its fast
    /// path. Returns the handle requests use.
    ///
    /// # Panics
    ///
    /// Panics if `name@version` is already registered.
    pub fn register_emulated(
        &mut self,
        name: &str,
        version: u32,
        model: DonnModel,
        readout: ReadoutMode,
    ) -> ModelId {
        self.insert(RegisteredModel::emulated(name, version, model, readout))
    }

    /// Deploys `model` on `env` ([`PhysicalDonn::deploy`]) and registers
    /// the resulting hardware-emulated bench under `name@version`,
    /// prewarming its fast path.
    ///
    /// # Panics
    ///
    /// Panics if `name@version` is already registered.
    pub fn register_physical(
        &mut self,
        name: &str,
        version: u32,
        model: &DonnModel,
        env: &HardwareEnvironment,
    ) -> ModelId {
        self.insert(RegisteredModel::physical(name, version, model, env))
    }

    fn insert(&mut self, entry: RegisteredModel) -> ModelId {
        assert!(
            self.resolve(&entry.name, Some(entry.version)).is_none(),
            "model {}@{} is already registered",
            entry.name,
            entry.version
        );
        entry.prewarm();
        let id = ModelId(self.entries.len());
        self.entries.push(entry);
        id
    }

    /// Looks up `name` at a specific `version`, or at the **highest**
    /// registered version when `version` is `None`.
    pub fn resolve(&self, name: &str, version: Option<u32>) -> Option<ModelId> {
        match version {
            Some(v) => self
                .entries
                .iter()
                .position(|e| e.name == name && e.version == v)
                .map(ModelId),
            None => self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.name == name)
                .max_by_key(|(_, e)| e.version)
                .map(|(i, _)| ModelId(i)),
        }
    }

    /// The entry behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this registry.
    pub fn entry(&self, id: ModelId) -> &RegisteredModel {
        &self.entries[id.0]
    }

    /// Checked lookup of an entry behind a handle.
    pub fn get(&self, id: ModelId) -> Option<&RegisteredModel> {
        self.entries.get(id.0)
    }

    /// Iterates over all registered entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &RegisteredModel)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ModelId(i), e))
    }

    pub(crate) fn into_entries(self) -> Vec<RegisteredModel> {
        self.entries
    }
}

/// One slot of a registry snapshot. Retirement collapses the slot to a
/// **slim marker** — the entry `Arc` is released immediately, so the
/// snapshot chain never retains a retired model's parameters; only the
/// per-worker workspaces (freed later by [`crate::Server::reclaim`]) and
/// the marker itself survive. The marker carries the epoch of the retire
/// flip: the drain fence compares dispatcher acknowledgments against it.
#[derive(Debug, Clone)]
pub(crate) enum EntrySlot {
    /// Servable entry.
    Live(Arc<RegisteredModel>),
    /// Fault-quarantined entry: the model panicked on
    /// [`crate::BatchPolicy::quarantine_after`] consecutive serves, so
    /// admission fails fast with [`crate::ServeError::Quarantined`]
    /// instead of feeding it more traffic. The entry `Arc` is kept (the
    /// quarantine is diagnostic state, not disposal): requests already
    /// in flight still complete on their pinned entry, and the slot can
    /// be retired and reclaimed through the normal lifecycle.
    Quarantined {
        /// The quarantined entry (still pinned: see above).
        entry: Arc<RegisteredModel>,
        /// Epoch of the snapshot that quarantined this id.
        quarantined_at: u64,
    },
    /// Tombstone: retired at epoch `retired_at`; per-worker workspaces are
    /// still resident until reclaimed.
    Retired {
        /// Epoch of the snapshot that made this id invisible. Every
        /// request pinning this entry was admitted at an earlier epoch.
        retired_at: u64,
    },
    /// Tombstone whose per-worker workspaces have been dropped and whose
    /// orphaned cache entries have been swept.
    Reclaimed {
        /// Epoch of the retire flip (kept for diagnostics).
        retired_at: u64,
    },
}

impl EntrySlot {
    /// The entry `Arc`, when still live.
    pub(crate) fn live(&self) -> Option<&Arc<RegisteredModel>> {
        match self {
            EntrySlot::Live(e) => Some(e),
            EntrySlot::Quarantined { .. }
            | EntrySlot::Retired { .. }
            | EntrySlot::Reclaimed { .. } => None,
        }
    }

    /// The entry `Arc` for any slot that still holds one — live *or*
    /// quarantined. Workspace rebuilds use this: a quarantined model's
    /// in-flight stragglers are still served (and its workspace slot kept
    /// consistent) even though admission refuses new work.
    pub(crate) fn entry_arc(&self) -> Option<&Arc<RegisteredModel>> {
        match self {
            EntrySlot::Live(e) | EntrySlot::Quarantined { entry: e, .. } => Some(e),
            EntrySlot::Retired { .. } | EntrySlot::Reclaimed { .. } => None,
        }
    }

    /// The public lifecycle view of this slot.
    pub(crate) fn lifecycle(&self) -> ModelLifecycle {
        match self {
            EntrySlot::Live(_) => ModelLifecycle::Live,
            EntrySlot::Quarantined { quarantined_at, .. } => ModelLifecycle::Quarantined {
                quarantined_at: *quarantined_at,
            },
            EntrySlot::Retired { retired_at } => ModelLifecycle::Retired {
                retired_at: *retired_at,
            },
            EntrySlot::Reclaimed { retired_at } => ModelLifecycle::Reclaimed {
                retired_at: *retired_at,
            },
        }
    }
}

/// Where a registered model is in its lifecycle
/// ([`crate::Server::lifecycle`]): servable, fault-quarantined, tombstoned
/// with memory still resident, or tombstoned with memory reclaimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelLifecycle {
    /// Registered and servable.
    Live,
    /// Quarantined after [`crate::BatchPolicy::quarantine_after`]
    /// consecutive serving panics: admission fails fast with
    /// [`crate::ServeError::Quarantined`]; retire/reclaim still apply.
    Quarantined {
        /// Registry epoch of the quarantine flip.
        quarantined_at: u64,
    },
    /// Tombstoned by [`crate::Server::retire`]; per-worker workspaces are
    /// still resident.
    Retired {
        /// Registry epoch of the retire flip.
        retired_at: u64,
    },
    /// Tombstoned and fully reclaimed ([`crate::Server::reclaim`]):
    /// per-worker workspaces dropped, orphaned cache entries swept.
    Reclaimed {
        /// Registry epoch of the retire flip.
        retired_at: u64,
    },
}

/// One immutable epoch of the live registry. Slot index = [`ModelId`];
/// tombstone slots mark retired (and possibly reclaimed) ids.
#[derive(Debug)]
pub(crate) struct RegistrySnapshot {
    pub(crate) epoch: u64,
    pub(crate) entries: Vec<EntrySlot>,
}

impl RegistrySnapshot {
    /// The raw slot behind a handle (lifecycle checks).
    pub(crate) fn slot(&self, id: ModelId) -> Option<&EntrySlot> {
        self.entries.get(id.0)
    }

    /// Same semantics as [`ModelRegistry::resolve`], over live entries.
    pub(crate) fn resolve(&self, name: &str, version: Option<u32>) -> Option<ModelId> {
        let live = || {
            self.entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.live().map(|e| (i, e)))
        };
        match version {
            Some(v) => live()
                .find(|(_, e)| e.name() == name && e.version() == v)
                .map(|(i, _)| ModelId(i)),
            None => live()
                .filter(|(_, e)| e.name() == name)
                .max_by_key(|(_, e)| e.version())
                .map(|(i, _)| ModelId(i)),
        }
    }

    /// Iterates live entries with their handles.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (ModelId, &Arc<RegisteredModel>)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.live().map(|e| (ModelId(i), e)))
    }
}

/// The live registry: an atomically swappable snapshot chain plus a writer
/// lock serializing registration/retirement. Readers never take the lock.
#[derive(Debug)]
pub(crate) struct SharedRegistry {
    current: ArcSwap<RegistrySnapshot>,
    write: Mutex<()>,
}

impl SharedRegistry {
    pub(crate) fn new(seed: ModelRegistry) -> SharedRegistry {
        let entries = seed
            .into_entries()
            .into_iter()
            .map(|e| EntrySlot::Live(Arc::new(e)))
            .collect();
        SharedRegistry {
            current: ArcSwap::from_pointee(RegistrySnapshot { epoch: 0, entries }),
            write: Mutex::new(()),
        }
    }

    /// Current snapshot (an `Arc` clone — never allocates, so the per-
    /// request load stays inside the zero-allocation serving contract).
    pub(crate) fn load(&self) -> Arc<RegistrySnapshot> {
        self.current.load_full()
    }

    /// Serializes writers; hold the guard across the whole
    /// prepare-then-publish sequence.
    pub(crate) fn begin_write(&self) -> MutexGuard<'_, ()> {
        self.write
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Non-blocking [`SharedRegistry::begin_write`], for the supervisor
    /// thread: it must never block on a writer (a manual reclaim can hold
    /// the write lock while waiting on a fence the supervisor is needed to
    /// restore), so supervisor-side flips retry on the next tick instead.
    pub(crate) fn try_begin_write(&self) -> Option<MutexGuard<'_, ()>> {
        match self.write.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Atomically flips to `snapshot`. Call only with the write guard held.
    pub(crate) fn publish(&self, snapshot: RegistrySnapshot) {
        self.current.store(Arc::new(snapshot));
    }
}
