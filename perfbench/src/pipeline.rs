//! The paper's offline path, rebuilt from the crates' public functions:
//! dataset, CNN training, Algorithm 1, corner-case grid search and
//! evaluation-set assembly (Sections III-A and IV).
//!
//! The model under test and its evaluation set are fixed: the dataset,
//! the initial weights, the training order and the corner-case seed
//! images follow the repository's Table VI pipeline. The workload seed
//! chooses the order in which images are scored and which images are
//! sent to the server when, never the model or the searched transforms.

use std::sync::Arc;

use dv_core::{DeepValidator, LayerSelection, ValidatorConfig};
use dv_datasets::{Dataset, DatasetSpec};
use dv_eval::search::{grid_search_with_plan, SearchOutcome, SearchSpace};
use dv_eval::EvaluationSet;
use dv_imgops::{Transform, TransformKind};
use dv_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use dv_nn::optim::Adadelta;
use dv_nn::train::{fit, TrainConfig};
use dv_nn::{InferencePlan, Network};
use dv_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Spans;
use crate::stats::{median, timed};

/// Training images (the repository's default synth-digits profile).
pub const N_TRAIN: usize = 2000;
/// Test images: corner-case seeds and clean negatives come from these.
pub const N_TEST: usize = 1000;
/// Corner-case seed images (the paper uses 200 per model).
pub const N_SEEDS: usize = 200;
/// Training epochs.
pub const EPOCHS: usize = 3;
/// Validated taps: all six probes of the digits model.
pub const TAPS: usize = 6;
/// Grid-search stopping target (the paper stops near 60% success).
pub const TARGET_RATE: f32 = 0.6;
/// Transformations whose best success rate stays below this are
/// discarded (the `-` cells of Table V).
pub const MIN_RATE: f32 = 0.3;
/// Repetitions of the cheap set-up steps.
pub const REPEATS: usize = 3;

/// Constant seeds of the model under test (dataset, weights, batches).
const DATA_SEED: u64 = 41;
const MODEL_SEED: u64 = 17;
const TRAIN_SEED: u64 = 23;

/// The trained model and its data.
pub struct Setup {
    pub dataset: Dataset,
    pub net: Network,
    pub plan: Arc<InferencePlan>,
    /// Median seconds of one dataset generation.
    pub generate_s: f64,
    /// Seconds of the whole training run.
    pub train_s: f64,
    /// `generate_s + train_s +` median plan-compile seconds.
    pub setup_s: f64,
}

/// The MNIST stand-in CNN (seven GEMM-backed layers, six probes), as in
/// the repository's model zoo.
pub fn digits_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(&[1, 28, 28]);
    net.push(Conv2d::new(&mut rng, 1, 8, 3))
        .push_probe(Relu::new())
        .push(Conv2d::new(&mut rng, 8, 8, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Conv2d::new(&mut rng, 8, 16, 3))
        .push_probe(Relu::new())
        .push(Conv2d::new(&mut rng, 16, 16, 3))
        .push_probe(Relu::new())
        .push(MaxPool2::new())
        .push(Flatten::new())
        .push(Dense::new(&mut rng, 16 * 4 * 4, 64))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 64, 64))
        .push_probe(Relu::new())
        .push(Dense::new(&mut rng, 64, 10));
    net
}

/// Generates the data, trains the CNN and compiles its plan. Data
/// generation and plan compilation are repeated and their medians kept;
/// training runs once.
pub fn setup(spans: &Spans) -> Setup {
    let _s = spans.enter("setup");
    let mut generate = Vec::new();
    let mut dataset = None;
    for _ in 0..REPEATS {
        let _g = spans.enter("data.generate");
        let (ds, s) = timed(|| DatasetSpec::SynthDigits.generate(DATA_SEED, N_TRAIN, N_TEST));
        generate.push(s);
        dataset = Some(ds);
    }
    let dataset = dataset.expect("REPEATS > 0");
    let mut net = digits_model(MODEL_SEED);
    let (_, train_s) = timed(|| {
        let _t = spans.enter("nn.train");
        let mut opt = Adadelta::new();
        let cfg = TrainConfig {
            epochs: EPOCHS,
            batch_size: 32,
        };
        let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
        fit(
            &mut net,
            &mut opt,
            &dataset.train.images,
            &dataset.train.labels,
            &cfg,
            &mut rng,
        )
    });
    let mut compile = Vec::new();
    let mut plan = None;
    for _ in 0..REPEATS {
        let _p = spans.enter("nn.plan");
        let (p, s) = timed(|| net.plan());
        compile.push(s);
        plan = Some(p);
    }
    let generate_s = median(&generate);
    Setup {
        dataset,
        net,
        plan: Arc::new(plan.expect("REPEATS > 0")),
        generate_s,
        train_s,
        setup_s: generate_s + train_s + median(&compile),
    }
}

/// The validator configuration of the benchmark (the library default
/// over all six taps).
pub fn validator_config() -> ValidatorConfig {
    ValidatorConfig {
        layers: LayerSelection::LastK(TAPS),
        ..ValidatorConfig::default()
    }
}

/// Fits Algorithm 1; returns the validator and the wall time.
pub fn fit_validator(setup: &Setup, spans: &Spans) -> (DeepValidator, f64) {
    let _f = spans.enter("core.fit");
    timed(|| {
        DeepValidator::fit(
            &setup.net,
            &setup.dataset.train.images,
            &setup.dataset.train.labels,
            &validator_config(),
        )
        .expect("Algorithm 1 fits on the digits training set")
    })
}

/// Corner-case seeds as the paper fixes them: the first `N_SEEDS`
/// correctly classified test images, with their labels, plus every test
/// image (the clean negatives, as in the repository's pipeline).
pub fn seeds(setup: &Setup) -> (Vec<Tensor>, Vec<usize>, Vec<Tensor>) {
    let test = &setup.dataset.test;
    let mut ws = Workspace::new();
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for (img, &label) in test.images.iter().zip(&test.labels) {
        if images.len() < N_SEEDS && setup.plan.classify(img, &mut ws).0 == label {
            images.push(img.clone());
            labels.push(label);
        }
    }
    (images, labels, test.images.clone())
}

/// The per-kind grid searches plus the combined transform, and the
/// assembled evaluation set.
pub struct Search {
    pub outcomes: Vec<SearchOutcome>,
    pub eval_set: EvaluationSet,
    /// Wall seconds of the searches plus evaluation-set assembly.
    pub search_s: f64,
    /// Wall seconds of evaluation-set assembly alone.
    pub evalset_s: f64,
}

/// Runs the grid search over the catalogue (one pool task per kind, as
/// the repository's pipeline does), the combined transform, and builds
/// the evaluation set: every chosen transform applied to every seed,
/// plus as many clean images as there are corner cases (at most all
/// clean images available).
pub fn search(
    plan: &InferencePlan,
    seeds: &[Tensor],
    labels: &[usize],
    clean: &[Tensor],
    spans: &Spans,
) -> Search {
    let ((outcomes, eval_set, evalset_s), search_s) = timed(|| {
        let spaces = SearchSpace::catalogue(true);
        let mut outcomes = {
            let _g = spans.enter("eval.search");
            dv_runtime::par_map(&spaces, |space| {
                grid_search_with_plan(plan, seeds, labels, space, TARGET_RATE, MIN_RATE)
            })
        };
        {
            let _c = spans.enter("eval.search.combined");
            let combined = combined_transform(&outcomes);
            let (rate, conf) = dv_eval::search::success_rate_with_plan(
                plan,
                &mut Workspace::new(),
                &combined.apply_batch(seeds),
                labels,
            );
            outcomes.push(SearchOutcome {
                kind: TransformKind::Combined,
                chosen: (rate >= MIN_RATE).then_some(combined),
                success_rate: rate,
                mean_confidence: conf,
            });
        }
        let _e = spans.enter("eval.evalset");
        let (set, evalset_s) = timed(|| build_eval_set(plan, &outcomes, seeds, labels, clean));
        (outcomes, set, evalset_s)
    });
    Search {
        outcomes,
        eval_set,
        search_s,
        evalset_s,
    }
}

/// Whether two searches chose the same transforms with bit-identical
/// success rates.
pub fn same_outcomes(a: &[SearchOutcome], b: &[SearchOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.kind == y.kind
                && x.chosen == y.chosen
                && x.success_rate.to_bits() == y.success_rate.to_bits()
        })
}

/// Table V's combined transform for the grayscale model: complement
/// followed by a scale halfway between identity and the chosen scale.
pub fn combined_transform(outcomes: &[SearchOutcome]) -> Transform {
    let scale = outcomes
        .iter()
        .find(|o| o.kind == TransformKind::Scale)
        .and_then(|o| o.chosen.clone())
        .unwrap_or(Transform::Scale { sx: 0.8, sy: 0.8 });
    let soft = match scale {
        Transform::Scale { sx, sy } => Transform::Scale {
            sx: (sx + 1.0) / 2.0,
            sy: (sy + 1.0) / 2.0,
        },
        other => other,
    };
    Transform::Compose(vec![Transform::Complement, soft])
}

/// Corner cases of every chosen transform, then clean images.
pub fn build_eval_set(
    plan: &InferencePlan,
    outcomes: &[SearchOutcome],
    seeds: &[Tensor],
    labels: &[usize],
    clean: &[Tensor],
) -> EvaluationSet {
    let mut set = EvaluationSet::new();
    let mut ws = Workspace::new();
    for outcome in outcomes {
        let Some(t) = &outcome.chosen else { continue };
        let items = t.apply_batch(seeds).into_iter().zip(labels.iter().copied());
        set.extend_corner_with_plan(plan, &mut ws, outcome.kind, items);
    }
    let n_clean = set.corner.len().max(seeds.len()).min(clean.len());
    set.extend_clean(clean[..n_clean].iter().cloned());
    set
}
