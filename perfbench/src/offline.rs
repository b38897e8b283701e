//! The offline validation path (Algorithm 2 over the evaluation set) and
//! the checks of the offline outputs against independent computations
//! and properties of the method.

use std::time::Instant;

use dv_core::{DeepValidator, DiscrepancyReport, FeatureReducer};
use dv_eval::search::SearchOutcome;
use dv_eval::EvaluationSet;
use dv_nn::{InferencePlan, Network};
use dv_ocsvm::{OcsvmParams, OneClassSvm};
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::pipeline::{validator_config, Setup, MIN_RATE};
use crate::spans::Spans;

/// Margin tolerance of the ν-property check: a fitted point on the
/// margin has a discrepancy of about zero, and rounding puts some just
/// above it.
pub const NU_TOLERANCE: f32 = 1e-3;
/// Lowest joint AUC accepted (the paper reports 0.9937 on MNIST).
pub const MIN_AUC: f64 = 0.95;

/// The evaluation set flattened for scoring: images in a seeded order,
/// each tagged clean (`None`) or corner case (`Some(successful)`).
pub struct ScoringSet {
    pub images: Vec<Tensor>,
    pub tags: Vec<Option<bool>>,
}

impl ScoringSet {
    /// All clean images and corner cases of `set`, shuffled by `seed`.
    pub fn new(set: &EvaluationSet, seed: u64) -> Self {
        let mut items: Vec<(Tensor, Option<bool>)> = set
            .clean
            .iter()
            .map(|t| (t.clone(), None))
            .chain(
                set.corner
                    .iter()
                    .map(|c| (c.image.clone(), Some(c.successful))),
            )
            .collect();
        items.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5C0E));
        let (images, tags) = items.into_iter().unzip();
        Self { images, tags }
    }

    /// Joint discrepancies of clean images and of successful corner
    /// cases, from reports aligned with `images`.
    pub fn split_joint(&self, reports: &[DiscrepancyReport]) -> (Vec<f32>, Vec<f32>) {
        let mut clean = Vec::new();
        let mut sccs = Vec::new();
        for (r, tag) in reports.iter().zip(&self.tags) {
            match tag {
                None => clean.push(r.joint),
                Some(true) => sccs.push(r.joint),
                Some(false) => {}
            }
        }
        (clean, sccs)
    }
}

/// Repeated offline scoring passes over one scoring set. Every pass
/// must reproduce the first pass's reports bit for bit.
pub struct Scorer<'a> {
    validator: &'a DeepValidator,
    plan: &'a InferencePlan,
    set: &'a ScoringSet,
    /// Images validated per second, one entry per pass.
    pub ips: Vec<f64>,
    /// Reports of the first pass, aligned with the scoring set.
    pub reports: Vec<DiscrepancyReport>,
}

impl<'a> Scorer<'a> {
    pub fn new(validator: &'a DeepValidator, plan: &'a InferencePlan, set: &'a ScoringSet) -> Self {
        Self {
            validator,
            plan,
            set,
            ips: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Scores the whole set once with `discrepancies_with_plan`.
    pub fn pass(&mut self, spans: &Spans) -> Result<(), String> {
        let _r = spans.enter("core.discrepancies_with_plan");
        let t = Instant::now();
        let reports = self
            .validator
            .discrepancies_with_plan(self.plan, &self.set.images);
        self.ips
            .push(self.set.images.len() as f64 / t.elapsed().as_secs_f64());
        if self.reports.is_empty() {
            self.reports = reports;
        } else if !same_reports(&self.reports, &reports) {
            return Err("a scoring pass differs from the first pass".into());
        }
        Ok(())
    }

    /// Images scored so far.
    pub fn images_scored(&self) -> u64 {
        (self.ips.len() * self.set.images.len()) as u64
    }
}

/// Bitwise equality of two report lists.
pub fn same_reports(a: &[DiscrepancyReport], b: &[DiscrepancyReport]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_report(x, y))
}

/// Bitwise equality of two reports.
pub fn same_report(a: &DiscrepancyReport, b: &DiscrepancyReport) -> bool {
    a.predicted == b.predicted
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.joint.to_bits() == b.joint.to_bits()
        && a.per_layer.len() == b.per_layer.len()
        && a.per_layer
            .iter()
            .zip(&b.per_layer)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// ROC-AUC by direct pair counting: the share of (clean, SCC) pairs in
/// which the SCC scores higher, ties counting one half. Quadratic, and
/// independent of `dv_eval::roc_auc`'s rank computation.
pub fn pair_count_auc(negatives: &[f32], positives: &[f32]) -> f64 {
    let mut wins = 0.0f64;
    for &p in positives {
        for &n in negatives {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (negatives.len() as f64 * positives.len() as f64)
}

/// The joint AUC of `reports`, checked against the pair count.
pub fn joint_auc(set: &ScoringSet, reports: &[DiscrepancyReport]) -> Result<f64, String> {
    let (clean, sccs) = set.split_joint(reports);
    if clean.is_empty() || sccs.is_empty() {
        return Err(format!(
            "{} clean and {} SCC scores",
            clean.len(),
            sccs.len()
        ));
    }
    let auc = dv_eval::roc_auc(&clean, &sccs);
    let direct = pair_count_auc(&clean, &sccs);
    if (auc - direct).abs() > 1e-9 {
        return Err(format!(
            "roc_auc {auc} differs from the pair count {direct}"
        ));
    }
    if auc < MIN_AUC {
        return Err(format!("joint AUC {auc:.4} is below {MIN_AUC}"));
    }
    Ok(auc)
}

/// Each chosen transform's success rate, recomputed image by image
/// through the training-path `Network`, equals the reported rate and
/// lies in `[MIN_RATE, 1]`.
pub fn check_success_rates(
    net: &mut Network,
    outcomes: &[SearchOutcome],
    seeds: &[Tensor],
    labels: &[usize],
) -> Result<(), String> {
    for o in outcomes {
        let Some(t) = &o.chosen else { continue };
        let wrong = t
            .apply_batch(seeds)
            .iter()
            .zip(labels)
            .filter(|(img, &label)| {
                let x = Tensor::stack(std::slice::from_ref(*img));
                net.classify(&x).0 != label
            })
            .count();
        let rate = wrong as f32 / seeds.len() as f32;
        if rate.to_bits() != o.success_rate.to_bits() {
            return Err(format!(
                "{}: recomputed success rate {rate} differs from reported {}",
                o.kind, o.success_rate
            ));
        }
        if !(MIN_RATE..=1.0).contains(&rate) {
            return Err(format!(
                "{}: success rate {rate} outside [{MIN_RATE}, 1]",
                o.kind
            ));
        }
    }
    Ok(())
}

/// On `sample`, the plan path (`discrepancies_with_plan`) matches the
/// training-path `DeepValidator::discrepancy` bit for bit.
pub fn check_plan_matches_network(
    validator: &DeepValidator,
    net: &mut Network,
    plan: &InferencePlan,
    sample: &[Tensor],
) -> Result<(), String> {
    let via_plan = validator.discrepancies_with_plan(plan, sample);
    for (i, (img, p)) in sample.iter().zip(&via_plan).enumerate() {
        if !same_report(&validator.discrepancy(net, img), p) {
            return Err(format!("sample image {i}: plan and network reports differ"));
        }
    }
    Ok(())
}

/// Per-(tap, class) training representations, exactly as Algorithm 1
/// collects them: correctly classified images in training order, at
/// most `max_per_class` per class. Returns the representations and the
/// kept images with their labels.
pub struct TrainingReps {
    /// `reps[t][k]`: reduced tap-`t` representations of class `k`.
    pub reps: Vec<Vec<Vec<Vec<f32>>>>,
    pub images: Vec<Tensor>,
    pub labels: Vec<usize>,
}

/// Collects [`TrainingReps`] through the plan.
pub fn training_reps(setup: &Setup, validator: &DeepValidator) -> TrainingReps {
    let cfg = validator_config();
    let reducer = FeatureReducer::new(cfg.max_spatial);
    let probes = validator.validated_probes();
    let classes = validator.num_classes();
    let mut reps = vec![vec![Vec::new(); classes]; probes.len()];
    let mut kept = vec![0usize; classes];
    let mut images = Vec::new();
    let mut labels = Vec::new();
    let mut ws = Workspace::new();
    let train = &setup.dataset.train;
    for (img, &label) in train.images.iter().zip(&train.labels) {
        let out = setup.plan.forward_probed_into(img, probes, &mut ws);
        let (pred, _) = argmax(out.logits());
        if pred != label || kept[label] >= cfg.max_per_class {
            continue;
        }
        kept[label] += 1;
        for (t, &p) in probes.iter().enumerate() {
            let mut rep = Vec::new();
            reducer.reduce_into(setup.plan.probe_item_dims(p), out.probe(t), &mut rep);
            reps[t][label].push(rep);
        }
        images.push(img.clone());
        labels.push(label);
    }
    TrainingReps {
        reps,
        images,
        labels,
    }
}

fn argmax(row: &[f32]) -> (usize, f32) {
    row.iter().copied().enumerate().fold(
        (0, f32::NEG_INFINITY),
        |b, (i, v)| if v > b.1 { (i, v) } else { b },
    )
}

/// The one-class SVMs refitted from [`TrainingReps`], tap by tap, with
/// the summed fit time of each tap.
pub struct Refit {
    /// `svms[t][k]`.
    pub svms: Vec<Vec<OneClassSvm>>,
    pub fit_s: Vec<f64>,
}

/// Refits every (tap, class) SVM with the validator's parameters, checks
/// each converged, and checks each matches the validator's own SVM
/// (support count, coefficients and offset as the validator stores them).
pub fn refit_svms(validator: &DeepValidator, reps: &TrainingReps) -> Result<Refit, String> {
    let cfg = validator_config();
    let params = OcsvmParams {
        nu: cfg.nu,
        kernel: cfg.kernel,
        tol: cfg.tol,
        max_iter: cfg.max_iter,
    };
    let stored = validator.to_named_tensors();
    let mut svms = Vec::new();
    let mut fit_s = Vec::new();
    for (t, per_class) in reps.reps.iter().enumerate() {
        let mut tap = Vec::new();
        let mut total = 0.0;
        for (k, data) in per_class.iter().enumerate() {
            let start = Instant::now();
            let svm =
                OneClassSvm::fit(data, &params).map_err(|e| format!("tap {t} class {k}: {e}"))?;
            total += start.elapsed().as_secs_f64();
            if !svm.converged() {
                return Err(format!("tap {t} class {k}: SMO did not converge"));
            }
            let parts = svm.to_parts();
            let prefix = format!("svm.{t:02}.{k:02}");
            let alpha = stored
                .get(&format!("{prefix}.alpha"))
                .ok_or_else(|| format!("validator has no {prefix}.alpha"))?;
            let meta = stored
                .get(&format!("{prefix}.meta"))
                .ok_or_else(|| format!("validator has no {prefix}.meta"))?;
            let same_alpha = alpha.data().len() == parts.alpha.len()
                && alpha
                    .data()
                    .iter()
                    .zip(&parts.alpha)
                    .all(|(s, &a)| s.to_bits() == (a as f32).to_bits());
            if !same_alpha || meta.data()[0].to_bits() != (parts.rho as f32).to_bits() {
                return Err(format!(
                    "tap {t} class {k}: refitted SVM differs from the validator's"
                ));
            }
            tap.push(svm);
        }
        svms.push(tap);
        fit_s.push(total);
    }
    Ok(Refit { svms, fit_s })
}

/// The ν-property of every (tap, class) SVM: at most ν of the class's
/// fitted training representations lie outside the margin, i.e. have a
/// validator discrepancy above [`NU_TOLERANCE`]. Returns the worst share.
pub fn check_nu_property(
    validator: &DeepValidator,
    plan: &InferencePlan,
    reps: &TrainingReps,
) -> Result<f64, String> {
    let nu = validator_config().nu;
    let reports = validator.discrepancies_with_plan(plan, &reps.images);
    let taps = validator.num_validated_layers();
    let classes = validator.num_classes();
    let mut outside = vec![vec![0usize; classes]; taps];
    let mut count = vec![0usize; classes];
    for (r, &label) in reports.iter().zip(&reps.labels) {
        if r.predicted != label {
            return Err("a kept training image is not classified as its label".into());
        }
        count[label] += 1;
        for (t, &d) in r.per_layer.iter().enumerate() {
            if d > NU_TOLERANCE {
                outside[t][label] += 1;
            }
        }
    }
    let mut worst = 0.0f64;
    for (t, row) in outside.iter().enumerate() {
        for (k, &n) in row.iter().enumerate() {
            let share = n as f64 / count[k].max(1) as f64;
            worst = worst.max(share);
            if share > nu {
                return Err(format!("tap {t} class {k}: {share:.3} of its training points lie outside the margin (nu = {nu})"));
            }
        }
    }
    Ok(worst)
}
