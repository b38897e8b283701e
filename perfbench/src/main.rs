//! One benchmark for the Deep Validation workspace: the paper's offline
//! pipeline and a one-worker `dv-serve` server under open-loop load,
//! measured from outside through the crates' public functions.
//!
//! ```text
//! dv-perfbench --workload <serve_steady|serve_burst>
//!              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes the harness spans to `<dir>/spans-<workload>-<seed>.json`.
//! See `perfbench/README.md`.

mod layers;
mod offline;
mod pipeline;
mod serving;
mod spans;
mod stats;

use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use offline::{Scorer, ScoringSet};
use serving::{Ladder, Load, Phase, RequestPool, BURST, REF_RATE};
use spans::Spans;
use stats::{mean, quantile, Metrics};

/// Measured rounds per second of `--seconds`, and the fewest rounds a
/// run makes. Each round runs one scoring pass over the evaluation set,
/// one reference-rate window, `FITS_PER_ROUND` fits and one step of the
/// capacity walk; odd rounds also repeat the corner-case search. A round
/// takes about six seconds on a 2-vCPU host.
const ROUNDS_PER_SECOND: f64 = 1.0 / 6.0;
const MIN_ROUNDS: usize = 3;
const FITS_PER_ROUND: usize = 2;
/// Images in the serving request pool.
const POOL_IMAGES: usize = 256;
/// Images compared between the plan and the network path offline.
const PLAN_SAMPLE: usize = 32;
/// Relative tolerance of the Little's-law check, plus an absolute
/// allowance in requests.
const LITTLE_REL: f64 = 0.2;
const LITTLE_ABS: f64 = 0.05;

/// The workloads differ only in the arrival shape of the serving phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeSteady,
    ServeBurst,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve_steady" => Some(Self::ServeSteady),
            "serve_burst" => Some(Self::ServeBurst),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeSteady => "serve_steady",
            Self::ServeBurst => "serve_burst",
        }
    }

    /// Requests per arrival of the serving schedule.
    fn burst(self) -> usize {
        match self {
            Self::ServeSteady => 1,
            Self::ServeBurst => BURST,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Outcome of a run: operation counts, failed checks, and both metric
/// sets (only one is printed).
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
}

impl Run {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(format!("{what}: {e}"));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new(args.trace);
    let run = run(&args, &spans);
    for p in &run.problems {
        eprintln!("dv-perfbench: check failed: {p}");
    }
    if let (true, Some(dir)) = (args.trace, &args.out) {
        let path = std::path::Path::new(dir).join(format!(
            "spans-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
        match written {
            Ok(()) => eprintln!(
                "dv-perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("dv-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    let mut correct = run.problems.is_empty();
    for name in metrics.non_finite() {
        eprintln!("dv-perfbench: metric {name} is not a finite number");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

fn run(args: &Args, spans: &Spans) -> Run {
    let mut run = Run {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
    };
    let w = args.workload;
    let _root = spans.enter(w.name());

    // Set-up and Algorithm 1.
    let mut setup = pipeline::setup(spans);
    let (validator, first_fit_s) = pipeline::fit_validator(&setup, spans);
    let mut fit_times = vec![first_fit_s];
    let mut search_times = Vec::new();

    // Corner-case synthesis and the evaluation set.
    let (seeds, labels, clean) = pipeline::seeds(&setup);
    let search = pipeline::search(&setup.plan, &seeds, &labels, &clean, spans);
    let set = ScoringSet::new(&search.eval_set, args.seed);
    search_times.push(search.search_s);
    eprintln!(
        "[{}] setup {:.3}s (train {:.3}s), search {:.3}s: {} corner cases ({} SCCs), {} clean",
        w.name(),
        setup.setup_s,
        setup.train_s,
        search.search_s,
        search.eval_set.corner.len(),
        search.eval_set.sccs().len(),
        search.eval_set.clean.len()
    );

    // Offline output checks, untimed.
    let sample = &set.images[..PLAN_SAMPLE.min(set.images.len())];
    run.check(
        "plan vs network",
        offline::check_plan_matches_network(&validator, &mut setup.net, &setup.plan, sample),
    );
    let (refit, reps) = {
        let _c = spans.enter("checks.offline");
        run.check(
            "success rates",
            offline::check_success_rates(&mut setup.net, &search.outcomes, &seeds, &labels),
        );
        let reps = offline::training_reps(&setup, &validator);
        let refit = offline::refit_svms(&validator, &reps)
            .map_err(|e| run.problems.push(format!("SVM refit: {e}")))
            .ok();
        run.check(
            "nu-property",
            offline::check_nu_property(&validator, &setup.plan, &reps).map(|_| ()),
        );
        run.attempted += reps.images.len() as u64;
        (refit, reps)
    };

    // The serving request pool and its reference reports.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9001);
    let pool_images: Vec<_> = (0..POOL_IMAGES)
        .map(|_| set.images[rng.gen_range(0..set.images.len())].clone())
        .collect();
    let expected = pool_images
        .iter()
        .map(|img| validator.discrepancy(&mut setup.net, img))
        .collect();
    let pool = RequestPool {
        images: pool_images,
        expected,
    };
    let validator = Arc::new(validator);
    let plan = Arc::clone(&setup.plan);

    // The measured rounds. Every repeated measurement (scoring passes,
    // reference windows, fits, searches, ladder rungs) takes its turns
    // across the rounds, so each is spread over the whole run instead of
    // landing in one slow stretch of a shared host.
    let mut scorer = Scorer::new(&validator, &plan, &set);
    let mut load = Load::start(
        Arc::clone(&validator),
        Arc::clone(&plan),
        &pool,
        w.burst(),
        args.seed,
        spans,
    );
    let before = load.server().metrics();
    let mut windows = Vec::new();
    let mut ladder = Ladder::new();
    let rounds = ((args.seconds * ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);
    for round in 0..rounds {
        if let Err(e) = scorer.pass(spans) {
            run.problems.push(format!("offline scoring: {e}"));
            return run;
        }
        windows.push(load.reference_window());
        for _ in 0..FITS_PER_ROUND {
            fit_times.push(pipeline::fit_validator(&setup, spans).1);
        }
        if round % 2 == 1 {
            let again = pipeline::search(&setup.plan, &seeds, &labels, &clean, spans);
            if !pipeline::same_outcomes(&again.outcomes, &search.outcomes) {
                run.problems
                    .push("a repeated search chose other transforms".into());
            }
            search_times.push(again.search_s);
        }
        if !ladder.done() {
            ladder.step(&mut load);
        }
    }
    while !ladder.done() {
        ladder.step(&mut load);
    }
    let capacity = ladder.capacity();
    let rungs = ladder.rungs;
    let after = load.server().metrics();
    let final_metrics = load.finish();
    let fit_s = stats::median(&fit_times);
    let search_s = stats::median(&search_times);
    let score_ips = stats::median(&scorer.ips);
    run.attempted += scorer.images_scored();

    // Offline results.
    let auc = offline::joint_auc(&set, &scorer.reports);
    let auc_joint = *auc.as_ref().unwrap_or(&f64::NAN);
    run.check("joint AUC", auc.map(|_| ()));

    // Serving results.
    let reference = Phase::merge(&windows);
    let all = Phase::merge(windows.iter().chain(&rungs));
    let window_p50: Vec<f64> = windows.iter().map(|w| w.arrival_p(0.5) / 1e3).collect();
    let window_p99: Vec<f64> = windows.iter().map(|w| w.p(0.99) / 1e3).collect();
    run.attempted += all.attempted;
    run.failed += all.failures.total();
    if all.served + all.failures.total() != all.attempted {
        run.problems.push(format!(
            "serving accounting: {} served + {:?} failed != {} attempted",
            all.served, all.failures, all.attempted
        ));
    }
    if reference.failures.total() != 0 || reference.degraded != 0 {
        run.problems.push(format!(
            "reference rate: failures {:?}, {} degraded",
            reference.failures, reference.degraded
        ));
    }
    // Little's law over every phase: the ladder's loaded rungs keep the
    // expected depth far above the absolute allowance, which the nearly
    // empty queue of the reference windows alone would not.
    let (depth, little) = all.little();
    if (depth - little).abs() > LITTLE_REL * depth.max(little) + LITTLE_ABS {
        run.problems.push(format!(
            "Little's law: mean sampled queue depth {depth:.3} vs queue wait per second {little:.3}"
        ));
    }
    if final_metrics.terminal_outcomes() != final_metrics.submitted {
        run.problems
            .push("server terminal outcomes differ from submissions".into());
    }
    eprintln!(
        "[{}] fit {fit_s:.3}s {fit_times:.3?}, search {search_s:.3}s {search_times:.3?}, scoring {score_ips:.0}/s over {} passes, joint AUC {auc_joint:.4}",
        w.name(),
        scorer.ips.len()
    );
    eprintln!(
        "[{}] reference {REF_RATE}/s: arrival p50 {:.3}ms, request p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms (window p50s {window_p50:.3?}, p99s {window_p99:.3?}); all phases: depth {depth:.3} vs {little:.3}; capacity {capacity:.1}/s",
        w.name(),
        reference.arrival_p(0.5) / 1e3,
        reference.p(0.5) / 1e3,
        reference.p(0.9) / 1e3,
        reference.p(0.99) / 1e3,
    );
    for r in &rungs {
        let (depth, little) = r.little();
        eprintln!(
            "    rung {:.0}/s: p99 {:.3}ms drain {:.3}ms batch {:.2} depth {depth:.2} vs {little:.2} pass {}",
            r.offered_rate,
            r.p(0.99) / 1e3,
            r.drain_us / 1e3,
            mean(&r.batch),
            r.passes()
        );
    }

    let e = &mut run.end_to_end;
    e.put("setup_s", setup.setup_s, "s");
    e.put("fit_s", fit_s, "s");
    e.put("search_s", search_s, "s");
    e.put("score_ips", score_ips, "1/s");
    e.put("auc_joint", auc_joint, "ratio");
    e.put("capacity_rps", capacity, "1/s");
    e.put("p50_ms", reference.arrival_p(0.5) / 1e3, "ms");

    if args.trace {
        let l = &mut run.per_layer;
        l.put("data.generate_s", setup.generate_s, "s");
        l.put(
            "nn.train_epoch_s",
            setup.train_s / pipeline::EPOCHS as f64,
            "s",
        );
        let inputs = layers::Inputs {
            plan: &plan,
            validator: &validator,
            net: &setup.net,
            dataset: &setup.dataset,
            refit: refit.as_ref(),
            reps: &reps,
            seeds: &seeds,
            labels: &labels,
            search: &search,
            set: &set,
        };
        layers::measure(l, &inputs, spans);
        l.put(
            "serve.submit_ns.p50",
            quantile(&reference.submit_ns, 0.5),
            "ns",
        );
        l.put(
            "serve.submit_ns.p99",
            quantile(&reference.submit_ns, 0.99),
            "ns",
        );
        l.put(
            "serve.queue_us.p50",
            quantile(&reference.queue_us, 0.5),
            "us",
        );
        l.put(
            "serve.queue_us.p99",
            quantile(&reference.queue_us, 0.99),
            "us",
        );
        l.put(
            "serve.service_us.p50",
            quantile(&reference.service_us, 0.5),
            "us",
        );
        l.put("serve.latency_ms.p50", reference.p(0.5) / 1e3, "ms");
        l.put("serve.latency_ms.p90", reference.p(0.9) / 1e3, "ms");
        l.put("serve.latency_ms.p99", reference.p(0.99) / 1e3, "ms");
        l.put("serve.batch_mean", mean(&reference.batch), "count");
        l.put(
            "serve.batches",
            (after.batches - before.batches) as f64,
            "count",
        );
        l.put(
            "serve.coalesced",
            (after.coalesced - before.coalesced) as f64,
            "count",
        );
        l.put("serve.queue_depth.mean", reference.little().0, "count");
        l.put("serve.degraded", reference.degraded as f64, "count");
        l.put(
            "serve.gen_lag_us.p99",
            quantile(&reference.gen_lag_us, 0.99),
            "us",
        );
        l.put("harness.spans", spans.len() as f64, "count");
    }
    run
}
