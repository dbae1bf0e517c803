//! # lightridge
//!
//! Rust reproduction of **LightRidge** (ASPLOS 2023/24): an end-to-end agile
//! design framework for diffractive optical neural networks (DONNs).
//!
//! A DONN encodes an input image onto a coherent laser beam, propagates it
//! through a stack of passive diffractive layers whose per-pixel phase
//! modulations are the trained weights, and reads class scores as the light
//! intensity collected in pre-defined detector regions. This crate provides:
//!
//! * [`DiffractiveLayer`] — the raw free-phase layer
//!   (`lr.layers.diffractlayer_raw`) with the paper's γ complex-valued
//!   regularization,
//! * [`CodesignLayer`] — the hardware-aware Gumbel-Softmax layer
//!   (`lr.layers.diffractlayer`) that trains directly over a device's
//!   discrete measured modulation levels,
//! * [`Detector`] / [`PlaneReadout`] — classification and image-to-image
//!   readouts,
//! * [`DonnModel`] / [`DonnBuilder`] — the sequential container & DSL
//!   (`lr.models`), with one compute path: every layer, trace and
//!   workspace runs over a batch of planes ([`BatchWorkspace`],
//!   [`BatchTrace`]), and a single sample is the one-plane batch,
//! * [`train`] — the Adam + Softmax-MSE training loop with batch
//!   parallelism and Gumbel temperature annealing (`lr.train`),
//! * [`deploy`] — hardware emulation and fabrication export
//!   (`lr.model.to_system`),
//! * [`MultiChannelDonn`] — the RGB multi-channel classifier (paper §5.6.1),
//! * [`SegmentationDonn`] — the all-optical segmentation architecture with
//!   optical skip connection and train-time layer norm (paper §5.6.2),
//! * [`viz`] — ASCII phase/intensity visualization (`lr.layers.view`).
//!
//! ## Quickstart
//!
//! ```
//! use lightridge::{DonnBuilder, Detector, train::{self, TrainConfig}};
//! use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
//!
//! // A 3-layer visible-range DONN, as in the paper's prototype (scaled down).
//! let grid = Grid::square(16, PixelPitch::from_um(36.0));
//! let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
//!     .distance(Distance::from_mm(20.0))
//!     .diffractive_layers(3)
//!     .detector(Detector::grid_layout(16, 16, 2, 4))
//!     .build();
//!
//! // Two-class toy data: light in the top vs bottom half.
//! let mut data = Vec::new();
//! for i in 0..16 {
//!     let label = i % 2;
//!     let mut img = vec![0.0; 16 * 16];
//!     for r in 0..8 {
//!         for c in 4..12 {
//!             img[(r + label * 8) * 16 + c] = 1.0;
//!         }
//!     }
//!     data.push((img, label));
//! }
//! let config = TrainConfig { epochs: 4, batch_size: 8, learning_rate: 0.1, ..Default::default() };
//! train::train(&mut model, &data, &config);
//! assert!(train::evaluate(&model, &data) > 0.5);
//! ```

#![warn(missing_docs)]

pub mod deploy;
pub mod ensemble;
pub mod layers;
mod model;
pub mod multichannel;
pub mod multitask;
pub mod segmentation;
pub mod train;
pub mod viz;

pub use ensemble::DonnEnsemble;
pub use layers::codesign::{CodesignCache, CodesignLayer, CodesignMode};
pub use layers::detector::{Detector, DetectorRegion, PlaneReadout};
pub use layers::diffractive::{DiffractiveBatchCache, DiffractiveLayer};
pub use layers::nonlinear::{NonlinearBatchCache, SaturableAbsorber};
pub use model::{
    BatchLayerCache, BatchTrace, BatchTraceRing, BatchWorkspace, DonnBuilder, DonnModel, Layer,
    ModelGrads,
};
pub use multichannel::MultiChannelDonn;
pub use multitask::{MultiTaskDonn, MultiTaskImage};
pub use segmentation::{SegmentationDonn, SegmentationOptions};
