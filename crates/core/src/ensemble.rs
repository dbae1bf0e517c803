//! Ensemble DONNs (extension; Rahman et al., "Ensemble learning of
//! diffractive optical networks", cited as reference 44 in the paper).
//!
//! Several independently initialized DONNs vote by summing their detector
//! intensities — optically realizable by replicating the input beam with
//! splitters and projecting all outputs onto a shared detector, exactly
//! like the multi-channel architecture but with identical inputs. Each
//! member trains with [`crate::train::train`]; the vote is evaluated in
//! batched traced chunks of up to 8 images.

use crate::layers::codesign::CodesignMode;
use crate::model::DonnModel;
use crate::train::{self, LabeledImage, TrainConfig};
use lr_nn::metrics::argmax;
use lr_tensor::Field;

/// An ensemble of independently trained DONNs voting by intensity sum.
///
/// # Examples
///
/// ```
/// use lightridge::{DonnBuilder, Detector, DonnEnsemble};
/// use lr_optics::{Distance, Grid, PixelPitch, Wavelength};
///
/// let grid = Grid::square(16, PixelPitch::from_um(36.0));
/// let members = (0..3).map(|seed| {
///     DonnBuilder::new(grid, Wavelength::from_nm(532.0))
///         .distance(Distance::from_mm(10.0))
///         .diffractive_layers(1)
///         .detector(Detector::grid_layout(16, 16, 2, 4))
///         .init_seed(seed)
///         .build()
/// }).collect();
/// let ensemble = DonnEnsemble::new(members);
/// assert_eq!(ensemble.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DonnEnsemble {
    members: Vec<DonnModel>,
}

impl DonnEnsemble {
    /// Creates an ensemble from pre-built members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or class counts differ.
    pub fn new(members: Vec<DonnModel>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let classes = members[0].num_classes();
        assert!(
            members.iter().all(|m| m.num_classes() == classes),
            "all members must share the class count"
        );
        DonnEnsemble { members }
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: empty ensembles cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The member models.
    pub fn members(&self) -> &[DonnModel] {
        &self.members
    }

    /// Trains every member on the same data (members differ only by their
    /// initialization seeds).
    pub fn train_all(&mut self, data: &[LabeledImage], config: &TrainConfig) {
        for (i, member) in self.members.iter_mut().enumerate() {
            let mut member_config = config.clone();
            member_config.seed = config.seed.wrapping_add(i as u64 * 101);
            train::train(member, data, &member_config);
        }
    }

    /// Summed detector intensities across members — the optical vote.
    pub fn infer(&self, input: &Field) -> Vec<f64> {
        let mut logits = vec![0.0; self.members[0].num_classes()];
        for member in &self.members {
            let trace = member.forward_trace(input, CodesignMode::Soft, 0);
            for (acc, v) in logits.iter_mut().zip(&trace.logits[0]) {
                *acc += v;
            }
        }
        logits
    }

    /// Ensemble classification accuracy. Each member streams the dataset
    /// through traced batched forwards of up to 8 images per worker; the
    /// member logits sum in member order.
    pub fn evaluate(&self, data: &[LabeledImage]) -> f64 {
        let mut votes = vec![vec![0.0; self.members[0].num_classes()]; data.len()];
        for member in &self.members {
            let logits = train::map_traced(member, data, |_, _, logits| logits.to_vec());
            for (vote, l) in votes.iter_mut().zip(logits) {
                vote.iter_mut().zip(l).for_each(|(a, v)| *a += v);
            }
        }
        train::hit_rate(&votes, data, |v, (_, label)| argmax(v) == *label)
    }

    /// Accuracy of each individual member (for comparing against the
    /// ensemble vote).
    pub fn member_accuracies(&self, data: &[LabeledImage]) -> Vec<f64> {
        self.members
            .iter()
            .map(|m| train::evaluate(m, data))
            .collect()
    }
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
                img[(i * 11) % 256] += 0.25;
                (img, label)
            })
            .collect()
    }

    fn build_ensemble(k: usize) -> DonnEnsemble {
        let grid = Grid::square(16, PixelPitch::from_um(36.0));
        let members = (0..k as u64)
            .map(|seed| {
                DonnBuilder::new(grid, Wavelength::from_nm(532.0))
                    .distance(Distance::from_mm(10.0))
                    .diffractive_layers(2)
                    .detector(Detector::grid_layout(16, 16, 2, 4))
                    .init_seed(seed * 31 + 1)
                    .build()
            })
            .collect();
        DonnEnsemble::new(members)
    }

    #[test]
    fn ensemble_votes_are_member_sums() {
        let ens = build_ensemble(3);
        let input = Field::ones(16, 16);
        let vote = ens.infer(&input);
        let mut manual = vec![0.0; 2];
        for m in ens.members() {
            for (a, v) in manual.iter_mut().zip(m.infer(&input)) {
                *a += v;
            }
        }
        for (a, b) in vote.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ensemble_at_least_matches_mean_member() {
        let mut ens = build_ensemble(3);
        let data = toy_data(40);
        let config = TrainConfig {
            epochs: 5,
            batch_size: 10,
            learning_rate: 0.1,
            ..TrainConfig::default()
        };
        ens.train_all(&data, &config);
        let members = ens.member_accuracies(&data);
        let mean: f64 = members.iter().sum::<f64>() / members.len() as f64;
        let vote = ens.evaluate(&data);
        assert!(
            vote >= mean - 0.05,
            "ensemble vote {vote} should not trail the mean member {mean} ({members:?})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_ensemble() {
        let _ = DonnEnsemble::new(Vec::new());
    }
}
