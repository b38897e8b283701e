//! Per-layer costs for the traced run, each timed through one crate's
//! public functions with the digits model's own shapes and weights.

use dv_core::{DeepValidator, FeatureReducer, ScoreWorkspace};
use dv_datasets::Dataset;
use dv_eval::search::{grid_search_with_plan, SearchSpace};
use dv_imgops::{Transform, TransformKind};
use dv_nn::{InferencePlan, LayerSpec};
use dv_runtime::Pool;
use dv_tensor::conv::Conv2dGeom;
use dv_tensor::{Tensor, Workspace};
use std::hint::black_box;
use std::time::Instant;

use crate::offline::{Refit, ScoringSet, TrainingReps};
use crate::pipeline::{self, Search, MIN_RATE, TARGET_RATE};
use crate::spans::Spans;
use crate::stats::{median, per_call_s, timed, Metrics};

/// Timed repetitions per micro-measurement (the median is kept).
const REPS: usize = 7;

/// Everything the per-layer measurements read.
pub struct Inputs<'a> {
    pub plan: &'a InferencePlan,
    pub validator: &'a DeepValidator,
    pub net: &'a dv_nn::Network,
    pub dataset: &'a Dataset,
    pub refit: Option<&'a Refit>,
    pub reps: &'a TrainingReps,
    pub seeds: &'a [Tensor],
    pub labels: &'a [usize],
    pub search: &'a Search,
    pub set: &'a ScoringSet,
}

/// Records every per-layer metric except the set-up and serving ones.
pub fn measure(l: &mut Metrics, x: &Inputs<'_>, spans: &Spans) {
    let _m = spans.enter("layers");
    let gemm_w1 = tensor_ops(l, x.plan, &x.set.images);
    forward(l, x, gemm_w1);
    core(l, x);
    ocsvm(l, x);
    imgops(l, x);
    search(l, x);
    single_thread(l, x);
    harness(l);
}

/// One GEMM-backed plan op: its index, kind and shapes.
enum GemmOp {
    Conv { geom: Conv2dGeom, cout: usize },
    Dense { k: usize, n: usize },
}

/// The input of every plan op for each of `images`, rebuilt from the
/// plan's probe taps: op `i` reads the output of the nearest probe (or
/// the image) at or before op `i - 1`, passed through any max-pool and
/// shape-only ops in between. `None` where another op intervenes.
fn op_inputs(plan: &InferencePlan, images: &[Tensor]) -> Vec<Option<Vec<f32>>> {
    let taps: Vec<usize> = (0..plan.num_probes()).collect();
    let specs = plan.layer_specs();
    let mut ws = Workspace::new();
    let mut per_op: Vec<Option<Vec<f32>>> = vec![Some(Vec::new()); specs.len()];
    for image in images {
        let out = plan.forward_probed_into(image, &taps, &mut ws);
        let mut cur: Option<Vec<f32>> = Some(image.data().to_vec());
        for (i, spec) in specs.iter().enumerate() {
            if let (Some(slot), Some(data)) = (per_op[i].as_mut(), cur.as_ref()) {
                slot.extend_from_slice(data);
            } else {
                per_op[i] = None;
            }
            cur = match (spec, cur) {
                _ if plan.probe_points().contains(&i) => {
                    let t = plan
                        .probe_points()
                        .iter()
                        .position(|&p| p == i)
                        .expect("checked");
                    Some(out.probe(t).to_vec())
                }
                (LayerSpec::MaxPool2, Some(d)) => Some(max_pool2(&d, plan.op_in_dims(i))),
                (LayerSpec::Identity { .. }, d) => d,
                _ => None,
            };
        }
    }
    per_op
}

/// 2x2 stride-2 max pooling of one `[C, H, W]` item.
fn max_pool2(data: &[f32], dims: &[usize]) -> Vec<f32> {
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let at = |dy: usize, dx: usize| data[(ch * h + 2 * y + dy) * w + 2 * x + dx];
                out.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
            }
        }
    }
    out
}

/// Times every conv op of the plan through `conv2d_into` at width 1, and
/// every dense op through `matmul_nt_into` at widths 1 and 8, on the
/// activations the op sees for eight evaluation images; returns the
/// summed width-1 time in microseconds. dv-tensor has no batched conv
/// kernel (the plan runs one `conv2d_into` per image of a batch), so a
/// conv has no width-8 row of its own: its batch cost shows in
/// `nn.forward.w8_us_per_image` and `core.score_batch.*`.
fn tensor_ops(l: &mut Metrics, plan: &InferencePlan, images: &[Tensor]) -> f64 {
    let inputs = op_inputs(plan, &images[..8]);
    let mut total_w1 = 0.0;
    eprintln!("    op  kind    shape                 flop/img    bytes/img   w1_us   w1 GFLOP/s  w8 GFLOP/s");
    for (i, spec) in plan.layer_specs().into_iter().enumerate() {
        let (op, weight) = match spec {
            LayerSpec::Conv2d(c) => {
                let d = plan.op_in_dims(i);
                let geom = Conv2dGeom {
                    in_channels: c.in_channels,
                    in_h: d[1],
                    in_w: d[2],
                    kernel: c.kernel,
                    stride: 1,
                    pad: c.pad,
                };
                (
                    GemmOp::Conv {
                        geom,
                        cout: c.out_channels,
                    },
                    c.weight,
                )
            }
            LayerSpec::Dense(d) => (
                GemmOp::Dense {
                    k: d.in_features,
                    n: d.out_features,
                },
                d.weight,
            ),
            LayerSpec::Identity { .. }
            | LayerSpec::Relu
            | LayerSpec::MaxPool2
            | LayerSpec::BatchNorm2d(_)
            | LayerSpec::DenseBlock { .. } => continue,
        };
        let (item_in, item_out, flop, label) = match &op {
            GemmOp::Conv { geom, cout } => (
                geom.in_channels * geom.in_h * geom.in_w,
                cout * geom.col_cols(),
                2.0 * (*cout * geom.col_rows() * geom.col_cols()) as f64,
                format!(
                    "conv {}x{}x{} -> {}",
                    geom.in_channels, geom.in_h, geom.in_w, cout
                ),
            ),
            GemmOp::Dense { k, n } => (*k, *n, 2.0 * (k * n) as f64, format!("dense {k} -> {n}")),
        };
        let bytes = 4.0 * (weight.len() + item_in + item_out) as f64;
        let input = inputs[i]
            .as_ref()
            .expect("every GEMM op of the digits plan reads a probe, pooled or not");
        let mut out = vec![0.0f32; 8 * item_out];
        let mut time = |width: usize| {
            per_call_s(REPS, 20, || match &op {
                GemmOp::Conv { geom, cout } => {
                    dv_tensor::gemm::conv2d_into(
                        weight,
                        *cout,
                        &input[..item_in],
                        geom,
                        &mut out[..item_out],
                    );
                    black_box(&out);
                }
                GemmOp::Dense { k, n } => {
                    dv_tensor::matmul::matmul_nt_into(
                        &input[..width * k],
                        width,
                        *k,
                        weight,
                        *n,
                        &mut out[..width * n],
                    );
                    black_box(&out);
                }
            })
        };
        let w1 = time(1);
        total_w1 += w1 * 1e6;
        let g1 = flop / w1 / 1e9;
        l.put(format!("tensor.op{i}.w1_us"), w1 * 1e6, "us");
        l.put(format!("tensor.op{i}.w1_gflops"), g1, "GFLOP/s");
        let g8 = match &op {
            GemmOp::Conv { .. } => "-".to_string(),
            GemmOp::Dense { .. } => {
                let w8 = time(8);
                let g8 = 8.0 * flop / w8 / 1e9;
                l.put(format!("tensor.op{i}.w8_us"), w8 * 1e6, "us");
                l.put(format!("tensor.op{i}.w8_gflops"), g8, "GFLOP/s");
                format!("{g8:.2}")
            }
        };
        eprintln!(
            "    {i:<3} {label:<29} {flop:>10.0} {bytes:>11.0} {:>8.2} {g1:>10.2} {g8:>11}",
            w1 * 1e6
        );
    }
    total_w1
}

/// Whole-plan forward passes over the validated taps.
fn forward(l: &mut Metrics, x: &Inputs<'_>, gemm_w1_us: f64) {
    let taps = x.validator.validated_probes();
    let mut ws = Workspace::new();
    let image = &x.set.images[0];
    let w1 = per_call_s(REPS, 50, || {
        black_box(x.plan.forward_probed_into(image, taps, &mut ws).logits()[0]);
    });
    let batch: Vec<f32> = x.set.images[..8]
        .iter()
        .flat_map(|t| t.data().to_vec())
        .collect();
    let w8 = per_call_s(REPS, 10, || {
        black_box(
            x.plan
                .forward_probed_flat_into(&batch, 8, taps, &mut ws)
                .logits()[0],
        );
    });
    l.put("nn.forward.w1_us", w1 * 1e6, "us");
    l.put("nn.forward.w8_us_per_image", w8 * 1e6 / 8.0, "us");
    l.put("nn.forward.other_us", w1 * 1e6 - gemm_w1_us, "us");
}

/// Single-image and staged-batch scoring, and the per-tap reducer.
fn core(l: &mut Metrics, x: &Inputs<'_>) {
    let v = x.validator;
    let mut sw = ScoreWorkspace::new();
    sw.reserve_for_batch(x.plan, 16);
    let mut per_layer = Vec::new();
    let mut results = Vec::new();
    let images = &x.set.images;
    let mut next = 0usize;
    let s = per_call_s(REPS, 50, || {
        next = (next + 1) % images.len();
        black_box(
            v.score_into(x.plan, &images[next], &mut sw, &mut per_layer)
                .ok(),
        );
    });
    l.put("core.score_into_us", s * 1e6, "us");
    for b in [2usize, 4, 8, 16] {
        let s = per_call_s(REPS, 8, || {
            sw.begin_batch();
            for img in &images[..b] {
                sw.stage_image(x.plan, img)
                    .expect("evaluation images are valid");
            }
            v.score_staged_into(x.plan, &mut sw, &mut results, &mut per_layer);
            black_box(&per_layer);
        });
        l.put(
            format!("core.score_batch.w{b}_us_per_image"),
            s * 1e6 / b as f64,
            "us",
        );
    }
    let reducer = FeatureReducer::new(pipeline::validator_config().max_spatial);
    let taps = v.validated_probes();
    let mut ws = Workspace::new();
    let out = x.plan.forward_probed_into(&images[0], taps, &mut ws);
    let mut rep = Vec::new();
    for (t, &p) in taps.iter().enumerate() {
        let dims = x.plan.probe_item_dims(p);
        let s = per_call_s(REPS, 200, || {
            reducer.reduce_into(dims, out.probe(t), &mut rep);
            black_box(&rep);
        });
        l.put(format!("core.reduce.tap{t}_ns"), s * 1e9, "ns");
    }
}

/// One-class SVM query cost, support-vector counts and fit time per tap.
fn ocsvm(l: &mut Metrics, x: &Inputs<'_>) {
    for t in 0..x.validator.num_validated_layers() {
        let (decision_ns, support, fit_ms) = match x.refit {
            Some(r) => {
                let svms = &r.svms[t];
                let queries: Vec<&Vec<f32>> =
                    x.reps.reps[t].iter().filter_map(|c| c.first()).collect();
                let s = per_call_s(REPS, 20, || {
                    for (svm, q) in svms.iter().zip(&queries) {
                        black_box(svm.decision(q));
                    }
                });
                (
                    s * 1e9 / svms.len() as f64,
                    svms.iter().map(|s| s.num_support_vectors()).sum::<usize>() as f64,
                    r.fit_s[t] * 1e3,
                )
            }
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        l.put(format!("ocsvm.decision.tap{t}_ns"), decision_ns, "ns");
        l.put(format!("ocsvm.support_vectors.tap{t}"), support, "count");
        l.put(format!("ocsvm.fit.tap{t}_ms"), fit_ms, "ms");
    }
}

/// The transform each kind is timed with: the searched choice, else the
/// strongest step of its grid.
fn transform_for(x: &Inputs<'_>, kind: TransformKind) -> Transform {
    if kind == TransformKind::Combined {
        return pipeline::combined_transform(&x.search.outcomes);
    }
    x.search
        .outcomes
        .iter()
        .find(|o| o.kind == kind)
        .and_then(|o| o.chosen.clone())
        .or_else(|| {
            SearchSpace::catalogue(true)
                .into_iter()
                .find(|s| s.kind() == kind)
                .and_then(|s| s.steps().last().cloned())
        })
        .expect("every kind has a grid")
}

/// Per-image transform cost for each kind.
fn imgops(l: &mut Metrics, x: &Inputs<'_>) {
    for kind in TransformKind::all() {
        let t = transform_for(x, kind);
        let s = per_call_s(REPS, 1, || {
            black_box(t.apply_batch(x.seeds));
        });
        l.put(
            format!("imgops.{}_us", metric_label(kind)),
            s * 1e6 / x.seeds.len() as f64,
            "us",
        );
    }
}

/// Each kind's grid search alone on the calling thread, the seed images
/// classified across all of them, and evaluation-set assembly.
fn search(l: &mut Metrics, x: &Inputs<'_>) {
    let mut seed_evals = 0usize;
    for space in SearchSpace::catalogue(true) {
        let (outcome, s) = timed(|| {
            grid_search_with_plan(x.plan, x.seeds, x.labels, &space, TARGET_RATE, MIN_RATE)
        });
        let walked = outcome
            .chosen
            .as_ref()
            .and_then(|c| space.steps().iter().position(|s| s == c))
            .map_or(space.steps().len(), |p| p + 1);
        seed_evals += walked * x.seeds.len();
        l.put(
            format!("eval.search.{}_ms", metric_label(space.kind())),
            s * 1e3,
            "ms",
        );
    }
    // The combined transform is classified once on every seed.
    seed_evals += x.seeds.len();
    l.put("eval.search.seed_evals", seed_evals as f64, "count");
    l.put("eval.evalset_ms", x.search.evalset_s * 1e3, "ms");
}

/// Offline scoring and Algorithm 1 on a one-thread pool, to set against
/// `score_ips` and `fit_s` on the default pool.
fn single_thread(l: &mut Metrics, x: &Inputs<'_>) {
    let pool = Pool::new(1);
    let ips: Vec<f64> = (0..2)
        .map(|_| {
            let start = Instant::now();
            pool.install(|| black_box(x.validator.discrepancies_with_plan(x.plan, &x.set.images)));
            x.set.images.len() as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    l.put("runtime.score_ips_1t", median(&ips), "1/s");
    let (_, fit_s) = timed(|| {
        pool.install(|| {
            dv_core::DeepValidator::fit(
                x.net,
                &x.dataset.train.images,
                &x.dataset.train.labels,
                &pipeline::validator_config(),
            )
            .expect("Algorithm 1 fits on one thread as on many")
        })
    });
    l.put("runtime.fit_s_1t", fit_s, "s");
}

/// Cost of one harness span (open plus close), measured on a scratch
/// recorder.
fn harness(l: &mut Metrics) {
    let scratch = Spans::new(true);
    let s = per_call_s(REPS, 1000, || {
        black_box(scratch.enter("harness.probe"));
    });
    l.put("harness.span_ns", s * 1e9, "ns");
}

/// Lower-case metric label of a transform kind.
fn metric_label(kind: TransformKind) -> String {
    kind.label().to_ascii_lowercase().replace(' ', "_")
}
