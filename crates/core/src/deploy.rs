//! Hardware deployment and emulation (`lr.model.to_system`).
//!
//! This module closes the loop the paper's Fig. 1 draws: a trained DONN is
//! exported to device-specific fabrication data (SLM control levels or
//! 3D-printed mask thicknesses) and — since we have no optical table — its
//! physical deployment is *emulated* with the `lr-hardware` nonideality
//! models: discrete device levels, per-pixel fabrication variation, coupled
//! amplitude response, and camera capture noise/quantization.
//!
//! Two deployment flows are modeled:
//!
//! * **Raw flow** — free phases are post-training quantized to the nearest
//!   device level. This is the flow that suffers the ≥30% accuracy gap.
//! * **Codesign flow** — codesign layers deploy their argmax level, which is
//!   exactly the state training optimized. The gap (ideally) vanishes.
//!
//! A deployed system runs on the same compute path as the emulator: a
//! [`BatchWorkspace`] carries a batch of planes through each free-space
//! hop ([`lr_optics::FreeSpace::propagate_batch_into`]) and each fixed
//! modulation panel or nonlinear film, and the camera readout (intensity,
//! normalization, capture noise, region sums) then runs plane by plane.
//! [`PhysicalDonn::infer`], [`PhysicalDonn::capture`] and
//! [`PhysicalDonn::prewarm`] are the one-sample case, and
//! [`PhysicalDonn::evaluate`] streams worker shards through the batched
//! loop of [`crate::train::evaluate`]. A batch of N is bit-identical to N
//! one-sample calls, and a serving registry runs coalesced requests for a
//! physical variant through [`PhysicalDonn::infer_staged_batch`] without
//! allocating.

use crate::model::{BatchWorkspace, DonnModel, Layer};
use crate::train::LabeledImage;
use lr_hardware::{CameraModel, CrosstalkModel, FabricationVariation, SlmModel};
use lr_optics::FreeSpace;
use lr_tensor::{Complex64, Field};

/// Fabrication export for one diffractive layer.
#[derive(Debug, Clone)]
pub struct LayerExport {
    /// Device control level per pixel (row-major).
    pub levels: Vec<usize>,
    /// Device phase realized at each pixel (radians).
    pub phases: Vec<f64>,
}

/// The full fabrication package produced by [`to_system`].
#[derive(Debug, Clone)]
pub struct SystemExport {
    /// Device name the export targets.
    pub device: String,
    /// Per-layer control data.
    pub layers: Vec<LayerExport>,
}

impl SystemExport {
    /// Renders the export as the text payload LightRidge would hand to the
    /// lab (one line per layer with level statistics).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("device: {}\n", self.device);
        for (i, layer) in self.layers.iter().enumerate() {
            let min = layer.levels.iter().min().copied().unwrap_or(0);
            let max = layer.levels.iter().max().copied().unwrap_or(0);
            let _ = writeln!(
                s,
                "layer {i}: {} pixels, levels [{min}, {max}]",
                layer.levels.len()
            );
        }
        s
    }
}

/// Exports a trained model for a device: raw layers are quantized to the
/// nearest device level, codesign layers dump their argmax levels.
pub fn to_system(model: &DonnModel, device: &SlmModel) -> SystemExport {
    let layers = model
        .layers()
        .iter()
        .map(|layer| match layer {
            Layer::Diffractive(l) => {
                let (levels, phases) = device.quantize_mask(l.phases());
                LayerExport { levels, phases }
            }
            Layer::Codesign(l) => {
                let levels = l.hard_levels();
                let phases = l.hard_phases();
                LayerExport { levels, phases }
            }
            // Nonlinear films carry no control data; the export keeps an
            // empty placeholder so layer indices stay aligned.
            Layer::Nonlinear(_) => LayerExport {
                levels: Vec::new(),
                phases: Vec::new(),
            },
        })
        .collect();
    SystemExport {
        device: device.name().to_string(),
        layers,
    }
}

/// A physical optical bench: the device the masks are realized on, the
/// fabrication variation of this particular unit, and the readout camera.
#[derive(Debug, Clone)]
pub struct HardwareEnvironment {
    /// Modulator device model.
    pub device: SlmModel,
    /// Frozen per-pixel fabrication errors of this unit.
    pub fabrication: FabricationVariation,
    /// Interpixel crosstalk of the modulator panel (paper §6).
    pub crosstalk: CrosstalkModel,
    /// Readout camera.
    pub camera: CameraModel,
    /// Camera noise seed (per capture session).
    pub capture_seed: u64,
}

impl HardwareEnvironment {
    /// The paper's visible-range prototype bench: LC2012 SLM with typical
    /// fabrication variation, liquid-crystal interpixel crosstalk, and a
    /// CS165MU1-style camera.
    pub fn prototype(seed: u64) -> Self {
        HardwareEnvironment {
            device: SlmModel::lc2012(),
            fabrication: FabricationVariation::typical_slm(seed),
            crosstalk: CrosstalkModel::typical_lc(),
            camera: CameraModel::cs165mu1(1.0),
            capture_seed: seed,
        }
    }

    /// An idealized bench (continuous device, no noise) — deployment on it
    /// must match emulation exactly.
    pub fn ideal() -> Self {
        HardwareEnvironment {
            device: SlmModel::ideal(1 << 16),
            fabrication: FabricationVariation::none(),
            crosstalk: CrosstalkModel::none(),
            camera: CameraModel::ideal(),
            capture_seed: 0,
        }
    }
}

/// A deployed physical DONN: fixed complex modulation masks (device states
/// with this unit's fabrication errors baked in) between free-space hops,
/// plus any nonlinear films.
///
/// It runs on lr-core's one compute path: a [`BatchWorkspace`] from
/// [`PhysicalDonn::make_batch_workspace`] carries a batch of planes
/// through every hop ([`PhysicalDonn::infer_staged_batch`]), and the
/// per-sample entry points ([`PhysicalDonn::infer`],
/// [`PhysicalDonn::capture`]) are its one-plane case.
#[derive(Debug, Clone)]
pub struct PhysicalDonn {
    stages: Vec<PhysicalStage>,
    final_propagator: FreeSpace,
    detector: crate::layers::detector::Detector,
    camera: CameraModel,
    capture_seed: u64,
}

#[derive(Debug, Clone)]
enum PhysicalStage {
    /// Free-space hop followed by a fixed modulation panel.
    Modulated {
        propagator: FreeSpace,
        modulation: Field,
    },
    /// A saturable-absorber film at the current plane.
    Nonlinear(crate::layers::nonlinear::SaturableAbsorber),
}

impl PhysicalDonn {
    /// Realizes `model` on `env` hardware.
    pub fn deploy(model: &DonnModel, env: &HardwareEnvironment) -> Self {
        let export = to_system(model, &env.device);
        let (rows, cols) = model.grid().shape();
        let pixels = rows * cols;

        let mut stages = Vec::with_capacity(model.depth());
        for (i, (layer, exp)) in model.layers().iter().zip(&export.layers).enumerate() {
            let propagator = match layer {
                Layer::Diffractive(l) => l.propagator().clone(),
                Layer::Codesign(l) => l.propagator().clone(),
                Layer::Nonlinear(sa) => {
                    stages.push(PhysicalStage::Nonlinear(sa.clone()));
                    continue;
                }
            };
            // This unit's frozen errors for this panel.
            let fab_seed_offset = i as u64;
            let fab = FabricationVariation::new(
                env.fabrication.phase_sigma(),
                env.fabrication.amplitude_sigma(),
                env.capture_seed.wrapping_add(fab_seed_offset),
            );
            let phase_err = fab.sample_phase_errors(pixels);
            let amp_fac = fab.sample_amplitude_factors(pixels);
            let device_amp = env.device.amplitudes();
            let data: Vec<Complex64> = (0..pixels)
                .map(|p| {
                    let amp = device_amp[exp.levels[p]] * amp_fac[p];
                    Complex64::from_polar(amp, exp.phases[p] + phase_err[p])
                })
                .collect();
            // Interpixel crosstalk blurs the realized complex modulation.
            let mut interleaved: Vec<f64> = data.iter().flat_map(|z| [z.re, z.im]).collect();
            env.crosstalk.apply_complex(rows, cols, &mut interleaved);
            let data: Vec<Complex64> = interleaved
                .chunks_exact(2)
                .map(|p| Complex64::new(p[0], p[1]))
                .collect();
            stages.push(PhysicalStage::Modulated {
                propagator,
                modulation: Field::from_vec(rows, cols, data),
            });
        }
        PhysicalDonn {
            stages,
            final_propagator: model.final_propagator().clone(),
            detector: model.detector().clone(),
            camera: env.camera.clone(),
            capture_seed: env.capture_seed,
        }
    }

    /// The detector-plane shape of this deployed system.
    pub fn shape(&self) -> (usize, usize) {
        self.detector.shape()
    }

    /// Number of readout classes.
    pub fn num_classes(&self) -> usize {
        self.detector.num_classes()
    }

    /// Allocates a [`BatchWorkspace`] for up to `capacity` samples on this
    /// system's plane. Its camera staging planes are sized by the first
    /// pass.
    pub fn make_batch_workspace(&self, capacity: usize) -> BatchWorkspace {
        let (rows, cols) = self.detector.shape();
        BatchWorkspace::new(capacity, rows, cols, self.detector.num_classes())
    }

    /// All-optical inference of the planes loaded into `ws` (via
    /// [`BatchWorkspace::begin_batch`] + [`BatchWorkspace::load_input`]),
    /// leaving each sample's logits, read from its camera capture, in
    /// [`BatchWorkspace::staged_logits`]. Every hop is one batched
    /// [`FreeSpace::propagate_batch_into`]; the readout runs plane by
    /// plane, so a batch of N is bit-identical to N one-sample
    /// [`PhysicalDonn::infer`] calls. **Zero heap allocations** in steady
    /// state (batch ≤ workspace capacity, after one pass has sized the
    /// camera planes) — the deployed serving hot path, verified by the
    /// serve counting-allocator test.
    ///
    /// # Panics
    ///
    /// Panics if `ws` does not match the system's plane.
    pub fn infer_staged_batch(&self, ws: &mut BatchWorkspace) {
        self.propagate_staged(ws);
        for b in 0..ws.batch() {
            self.capture_plane(ws, b, 0);
            self.detector
                .read_intensity_into(&ws.captured, &mut ws.staged[b]);
        }
    }

    /// Runs the deployed stack plus the final hop over the active planes
    /// of `ws`.
    fn propagate_staged(&self, ws: &mut BatchWorkspace) {
        assert_eq!(
            ws.shape(),
            self.detector.shape(),
            "workspace/plane shape mismatch"
        );
        for stage in &self.stages {
            match stage {
                PhysicalStage::Modulated {
                    propagator,
                    modulation,
                } => {
                    propagator.propagate_batch_into(&mut ws.u, &mut ws.scratch);
                    ws.u.hadamard_broadcast_assign(modulation);
                }
                PhysicalStage::Nonlinear(sa) => sa.infer_batch_inplace(&mut ws.u),
            }
        }
        self.final_propagator
            .propagate_batch_into(&mut ws.u, &mut ws.scratch);
    }

    /// Camera capture of plane `b` of the propagated batch into the
    /// workspace's `captured` plane: the intensity is normalized into the
    /// camera's dynamic range, captured with the noise seed
    /// `capture_seed + shot`, and scaled back.
    fn capture_plane(&self, ws: &mut BatchWorkspace, b: usize, shot: u64) {
        ws.intensity.clear();
        ws.intensity
            .extend(ws.u.plane(b).iter().map(|z| z.norm_sqr()));
        let max = ws.intensity.iter().cloned().fold(0.0, f64::max).max(1e-30);
        for i in ws.intensity.iter_mut() {
            *i /= max;
        }
        self.camera.capture_into(
            &ws.intensity,
            self.capture_seed.wrapping_add(shot),
            &mut ws.captured,
        );
        for c in ws.captured.iter_mut() {
            *c *= max;
        }
    }

    /// Loads `input` as a one-sample batch of a fresh workspace.
    fn one_sample(&self, input: &Field) -> BatchWorkspace {
        let mut ws = self.make_batch_workspace(1);
        ws.begin_batch(1);
        ws.load_input(0, input);
        ws
    }

    /// All-optical inference: returns the class logits measured from the
    /// camera capture (the one-sample [`PhysicalDonn::infer_staged_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the system's plane.
    pub fn infer(&self, input: &Field) -> Vec<f64> {
        let mut ws = self.one_sample(input);
        self.infer_staged_batch(&mut ws);
        ws.staged_logits(0).to_vec()
    }

    /// The camera image of the detector plane for a given input —
    /// LightRidge's Fig. 6 "experimental measurement".
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the system's plane.
    pub fn capture(&self, input: &Field, shot: u64) -> Vec<f64> {
        let mut ws = self.one_sample(input);
        self.propagate_staged(&mut ws);
        self.capture_plane(&mut ws, 0, shot);
        ws.captured
    }

    /// Warms every global cache for the deployed stack (FFT plans,
    /// transfer kernels) by running one dummy inference. Registries call
    /// this at registration time; never on a hot path.
    pub fn prewarm(&self) {
        let (rows, cols) = self.detector.shape();
        self.infer(&Field::ones(rows, cols));
    }

    /// Classification accuracy of the deployed system: the worker-sharded
    /// batched loop of [`crate::train::evaluate`] over
    /// [`PhysicalDonn::infer_staged_batch`]. An empty dataset scores 0.
    pub fn evaluate(&self, data: &[LabeledImage]) -> f64 {
        crate::train::evaluate_staged(
            data,
            |capacity| self.make_batch_workspace(capacity),
            |ws| self.infer_staged_batch(ws),
        )
    }
}

/// The Fig. 1 experiment in one call: emulation accuracy vs deployed
/// accuracy on the given bench. The difference is the sim-to-hardware gap.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Accuracy of the digital emulation (soft codesign states).
    pub emulation_accuracy: f64,
    /// Accuracy after physical deployment on the bench.
    pub deployed_accuracy: f64,
}

impl DeploymentReport {
    /// The accuracy gap (emulation − deployed).
    pub fn gap(&self) -> f64 {
        self.emulation_accuracy - self.deployed_accuracy
    }
}

/// Evaluates a model both in emulation and deployed on `env`.
pub fn deployment_report(
    model: &DonnModel,
    env: &HardwareEnvironment,
    data: &[LabeledImage],
) -> DeploymentReport {
    let emulation_accuracy = crate::train::evaluate(model, data);
    let physical = PhysicalDonn::deploy(model, env);
    let deployed_accuracy = physical.evaluate(data);
    DeploymentReport {
        emulation_accuracy,
        deployed_accuracy,
    }
}

/// Per-digit correlation between emulated detector patterns and captured
/// "experimental" patterns — the paper's Fig. 6 comparison.
pub fn pattern_correlations(
    model: &DonnModel,
    env: &HardwareEnvironment,
    inputs: &[Vec<f64>],
) -> Vec<f64> {
    let physical = PhysicalDonn::deploy(model, env);
    let (rows, cols) = model.grid().shape();
    inputs
        .iter()
        .map(|img| {
            let input = Field::from_amplitudes(rows, cols, img);
            let sim = model.detector_pattern(&input);
            let exp = physical.capture(&input, 1);
            lr_nn::metrics::pearson(&sim, &exp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::detector::Detector;
    use crate::model::DonnBuilder;
    use lr_optics::{Distance, Grid, PixelPitch, Wavelength};

    fn toy_data(n: usize) -> Vec<LabeledImage> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let mut img = vec![0.0; 256];
                for r in 0..8 {
                    for c in 4..12 {
                        img[(r + label * 8) * 16 + c] = 1.0;
                    }
                }
                img[i % 16] += 0.2;
                (img, label)
            })
            .collect()
    }

    fn trained_raw_model() -> DonnModel {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let mut model = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
            .distance(Distance::from_mm(10.0))
            .diffractive_layers(2)
            .detector(Detector::grid_layout(16, 16, 2, 4))
            .build();
        let data = toy_data(24);
        let config = crate::train::TrainConfig {
            epochs: 6,
            batch_size: 8,
            learning_rate: 0.1,
            ..Default::default()
        };
        crate::train::train(&mut model, &data, &config);
        model
    }

    #[test]
    fn to_system_exports_all_layers() {
        let model = trained_raw_model();
        let export = to_system(&model, &SlmModel::ideal(256));
        assert_eq!(export.layers.len(), 2);
        assert!(export
            .layers
            .iter()
            .all(|l| l.levels.len() == 256 && l.phases.len() == 256));
        assert!(export.summary().contains("layer 0"));
    }

    #[test]
    fn ideal_bench_deployment_matches_emulation() {
        let model = trained_raw_model();
        let data = toy_data(16);
        let report = deployment_report(&model, &HardwareEnvironment::ideal(), &data);
        assert!(
            report.gap().abs() < 1e-9,
            "ideal hardware must not open a gap: {report:?}"
        );
    }

    #[test]
    fn noisy_bench_opens_gap_for_raw_model() {
        let model = trained_raw_model();
        let data = toy_data(16);
        // A very coarse, noisy device.
        let env = HardwareEnvironment {
            device: SlmModel::uniform_bits(2),
            fabrication: FabricationVariation::new(0.6, 0.1, 3),
            crosstalk: lr_hardware::CrosstalkModel::typical_lc(),
            camera: CameraModel::cs165mu1(1.0),
            capture_seed: 3,
        };
        let report = deployment_report(&model, &env, &data);
        assert!(
            report.deployed_accuracy <= report.emulation_accuracy + 1e-9,
            "deployment should not beat emulation: {report:?}"
        );
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let model = trained_raw_model();
        let env = HardwareEnvironment::prototype(9);
        let physical = PhysicalDonn::deploy(&model, &env);
        let input = Field::ones(16, 16);
        assert_eq!(physical.capture(&input, 0), physical.capture(&input, 0));
        assert_ne!(physical.capture(&input, 0), physical.capture(&input, 1));
    }

    #[test]
    fn pattern_correlation_high_on_good_bench() {
        let model = trained_raw_model();
        let env = HardwareEnvironment::prototype(5);
        let inputs: Vec<Vec<f64>> = toy_data(4).into_iter().map(|(img, _)| img).collect();
        let corrs = pattern_correlations(&model, &env, &inputs);
        assert_eq!(corrs.len(), 4);
        for c in corrs {
            assert!(c > 0.8, "sim/experiment correlation too low: {c}");
        }
    }
}
