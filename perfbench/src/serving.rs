//! Open-loop load on a one-worker `dv-serve` server.
//!
//! One generator thread (the caller's) submits requests on a seeded
//! arrival schedule and collects responses without ever blocking a
//! send: a request's latency runs from its scheduled send time to the
//! server's response time (`submit + ScoreResponse::total_us`), so a
//! stalled generator or server counts against every request it delays.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dv_core::{DeepValidator, DiscrepancyReport};
use dv_nn::InferencePlan;
use dv_serve::{Pending, Rejected, ScoreError, ScoreResponse, ServeConfig, ServedVia, Server};
use dv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::{mean, quantile};

/// p99 latency limit of a ladder rung, in microseconds.
pub const LIMIT_US: f64 = 50_000.0;
/// Reference offered rate for `p50_ms` (requests/s).
pub const REF_RATE: f64 = 320.0;
/// Requests per reference-rate window.
const REF_WINDOW: usize = 250;
/// Requests per burst in the bursty arrival shape.
pub const BURST: usize = 8;
/// Seconds of offered load per ladder rung.
const RUNG_S: f64 = 2.0;
/// Rungs per doubling of the offered rate.
const RUNGS_PER_DOUBLING: f64 = 3.0;
/// Ladder rates run from `LADDER_MIN` to `LADDER_MAX` requests/s; the
/// walk starts at `LADDER_START`.
const LADDER_MIN: f64 = 100.0;
const LADDER_MAX: f64 = 12_800.0;
const LADDER_START: f64 = 1000.0;
/// Requests sent, untimed, before any measured phase.
const WARMUP_REQUESTS: usize = 200;
/// Rate of the Poisson clock at which the generator samples the queue
/// depth (per second), independent of the arrivals.
const DEPTH_SAMPLE_RATE: f64 = 2000.0;
/// Headroom before the first scheduled send of a phase.
const LEAD: Duration = Duration::from_millis(5);

/// The server configuration under test: the default except for one
/// worker, a queue deep enough that nothing is rejected, and a deadline
/// long enough that nothing expires or degrades.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 1 << 16,
        deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

/// The ladder rate of rung `k`.
pub fn ladder_rate(k: i32) -> f64 {
    LADDER_MIN * 2f64.powf(f64::from(k) / RUNGS_PER_DOUBLING)
}

fn ladder_len() -> i32 {
    ((LADDER_MAX / LADDER_MIN).log2() * RUNGS_PER_DOUBLING).round() as i32 + 1
}

/// The images a phase may send and the reference report of each,
/// computed through the training-path `Network`.
pub struct RequestPool {
    pub images: Vec<Tensor>,
    pub expected: Vec<DiscrepancyReport>,
}

/// Failures by kind.
#[derive(Default, Clone, Copy, Debug)]
pub struct Failures {
    pub rejected: u64,
    pub expired: u64,
    pub crashed: u64,
    pub bad_input: u64,
    pub shutdown: u64,
    pub wrong_output: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.rejected
            + self.expired
            + self.crashed
            + self.bad_input
            + self.shutdown
            + self.wrong_output
    }

    fn add(&mut self, o: &Failures) {
        self.rejected += o.rejected;
        self.expired += o.expired;
        self.crashed += o.crashed;
        self.bad_input += o.bad_input;
        self.shutdown += o.shutdown;
        self.wrong_output += o.wrong_output;
    }
}

/// What one phase of offered load produced.
#[derive(Default)]
pub struct Phase {
    pub offered_rate: f64,
    pub attempted: u64,
    pub served: u64,
    pub failures: Failures,
    /// Responses not served through the full joint rung.
    pub degraded: u64,
    /// Scheduled-send-to-response latency of each served request (µs).
    pub latency_us: Vec<f64>,
    /// Scheduled-send-to-last-response latency of each arrival whose
    /// requests were all served (µs): how long the client of a burst
    /// waits for its whole burst.
    pub arrival_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub batch: Vec<f64>,
    /// Duration of each `try_submit` call (ns).
    pub submit_ns: Vec<f64>,
    /// How late the generator sent each request (µs).
    pub gen_lag_us: Vec<f64>,
    /// Queue depth at the instants of an independent Poisson clock that
    /// runs from the phase start until the last response is back.
    pub depth: Vec<f64>,
    /// Seconds from the phase start to the end of the depth clock.
    pub window_s: f64,
    /// Microseconds from the last scheduled send to the last response.
    pub drain_us: f64,
    /// Phase-relative time of the latest response (ns).
    last_done_ns: u64,
    /// Per arrival while the phase runs: requests not yet served, and
    /// the latest latency of those that were.
    arrival_left: Vec<usize>,
    arrival_last_us: Vec<f64>,
}

impl Phase {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// The `q`-quantile of the arrival latencies (µs).
    pub fn arrival_p(&self, q: f64) -> f64 {
        quantile(&self.arrival_us, q)
    }

    /// Whether the rung meets the capacity conditions: p99 within the
    /// limit, every request served `FullJoint`, nothing failed, and no
    /// backlog left when the sends stop.
    pub fn passes(&self) -> bool {
        self.failures.total() == 0
            && self.degraded == 0
            && self.served == self.attempted
            && self.p(0.99) <= LIMIT_US
            && self.drain_us <= LIMIT_US
    }

    /// All of `phases` as one phase (samples concatenated, counts and
    /// spans summed).
    pub fn merge<'p>(phases: impl IntoIterator<Item = &'p Phase>) -> Phase {
        let mut m = Phase::default();
        for p in phases {
            m.offered_rate = p.offered_rate;
            m.attempted += p.attempted;
            m.served += p.served;
            m.failures.add(&p.failures);
            m.degraded += p.degraded;
            m.latency_us.extend(&p.latency_us);
            m.arrival_us.extend(&p.arrival_us);
            m.queue_us.extend(&p.queue_us);
            m.service_us.extend(&p.service_us);
            m.batch.extend(&p.batch);
            m.submit_ns.extend(&p.submit_ns);
            m.gen_lag_us.extend(&p.gen_lag_us);
            m.depth.extend(&p.depth);
            m.window_s += p.window_s;
            m.drain_us = m.drain_us.max(p.drain_us);
        }
        m
    }

    /// Little's law on the sampled queue: mean sampled depth against
    /// the summed queue wait per second of the sampled window, which is
    /// served rate × mean queue wait. The window starts empty and ends
    /// when the last response is back, so every wait falls inside it.
    pub fn little(&self) -> (f64, f64) {
        let wait_s = self.queue_us.iter().sum::<f64>() / 1e6;
        (mean(&self.depth), wait_s / self.window_s.max(1e-9))
    }
}

/// Arrival offsets (seconds after the phase start) of `n` requests at
/// mean rate `rate`, in bursts of `burst` back-to-back requests whose
/// start times form a Poisson process.
pub fn schedule(rate: f64, n: usize, burst: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0;
    while out.len() < n {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * burst as f64 / rate;
        for _ in 0..burst.min(n - out.len()) {
            out.push(t);
        }
    }
    out
}

/// One request as sent: its pool image, the arrival it belongs to, and
/// its scheduled and actual send times (ns after the phase start).
#[derive(Clone, Copy)]
struct Sent {
    image: usize,
    arrival: usize,
    sched_ns: u64,
    submit_ns: u64,
}

/// The running server plus its load generator.
pub struct Load<'a> {
    server: Server,
    pool: &'a RequestPool,
    rng: StdRng,
    /// The depth-sampling clock's own stream, so that how many samples a
    /// phase takes does not shift later schedules.
    clock: StdRng,
    burst: usize,
    spans: &'a Spans,
}

impl<'a> Load<'a> {
    /// Starts the server and warms it with untimed requests.
    pub fn start(
        validator: Arc<DeepValidator>,
        plan: Arc<InferencePlan>,
        pool: &'a RequestPool,
        burst: usize,
        seed: u64,
        spans: &'a Spans,
    ) -> Self {
        let mut load = Self {
            server: Server::start(validator, plan, serve_config()),
            pool,
            rng: StdRng::seed_from_u64(seed ^ 0x10AD),
            clock: StdRng::seed_from_u64(seed ^ 0xC10C),
            burst,
            spans,
        };
        {
            let _w = spans.enter("serve.warmup");
            load.run(REF_RATE, WARMUP_REQUESTS);
        }
        load
    }

    /// Offers `n` requests at mean rate `rate` and waits for all of
    /// them.
    pub fn run(&mut self, rate: f64, n: usize) -> Phase {
        let sched = schedule(rate, n, self.burst, &mut self.rng);
        let images: Vec<usize> = (0..n)
            .map(|_| self.rng.gen_range(0..self.pool.images.len()))
            .collect();
        // Every arrival but the last is a whole burst.
        let burst = self.burst;
        let arrivals = n.div_ceil(burst);
        let mut phase = Phase {
            offered_rate: rate,
            attempted: n as u64,
            arrival_left: (0..arrivals).map(|a| burst.min(n - a * burst)).collect(),
            arrival_last_us: vec![0.0; arrivals],
            ..Phase::default()
        };
        let mut inflight: VecDeque<(Sent, Pending)> = VecDeque::new();
        let t0 = Instant::now() + LEAD;
        let origin_ns = self.spans.now_ns() + LEAD.as_nanos() as u64;
        let mut next_sample = t0;
        for (i, (&at, &image)) in sched.iter().zip(&images).enumerate() {
            let sched_ns = (at * 1e9) as u64;
            let target = t0 + Duration::from_nanos(sched_ns);
            loop {
                self.collect_ready(&mut inflight, &mut phase, origin_ns);
                let now = Instant::now();
                if now >= next_sample {
                    self.sample_depth(&mut phase, &mut next_sample);
                    continue;
                }
                if now >= target {
                    break;
                }
                std::thread::sleep(target.min(next_sample) - now);
            }
            let img = self.pool.images[image].clone();
            let before = Instant::now();
            let submitted = self.server.try_submit(img);
            let after = Instant::now();
            let submit_ns = before.duration_since(t0).as_nanos() as u64;
            phase
                .submit_ns
                .push(after.duration_since(before).as_nanos() as f64);
            phase
                .gen_lag_us
                .push(submit_ns.saturating_sub(sched_ns) as f64 / 1e3);
            let sent = Sent {
                image,
                arrival: i / burst,
                sched_ns,
                submit_ns,
            };
            match submitted {
                Ok(pending) => inflight.push_back((sent, pending)),
                Err(Rejected::QueueFull { .. }) | Err(Rejected::ShuttingDown) => {
                    phase.failures.rejected += 1;
                }
            }
        }
        // Drain, with the depth clock still running.
        loop {
            self.collect_ready(&mut inflight, &mut phase, origin_ns);
            if inflight.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= next_sample {
                self.sample_depth(&mut phase, &mut next_sample);
            } else {
                std::thread::sleep(next_sample - now);
            }
        }
        phase.window_s = t0.elapsed().as_secs_f64();
        let last_sched_ns = (sched.last().copied().unwrap_or(0.0) * 1e9) as u64;
        phase.drain_us = phase.last_done_ns.saturating_sub(last_sched_ns) as f64 / 1e3;
        let left = std::mem::take(&mut phase.arrival_left);
        let last = std::mem::take(&mut phase.arrival_last_us);
        phase.arrival_us = left
            .iter()
            .zip(last)
            .filter(|&(&left, _)| left == 0)
            .map(|(_, us)| us)
            .collect();
        phase
    }

    /// Samples the queue depth and draws the clock's next instant.
    fn sample_depth(&mut self, phase: &mut Phase, next_sample: &mut Instant) {
        phase.depth.push(self.server.queue_depth() as f64);
        let u: f64 = self.clock.gen();
        *next_sample += Duration::from_secs_f64(-(1.0 - u).ln() / DEPTH_SAMPLE_RATE);
    }

    /// Settles the responses already back, oldest first, without
    /// blocking.
    fn collect_ready(
        &self,
        inflight: &mut VecDeque<(Sent, Pending)>,
        phase: &mut Phase,
        origin_ns: u64,
    ) {
        while let Some((sent, pending)) = inflight.pop_front() {
            match pending.wait_timeout(Duration::ZERO) {
                Ok(outcome) => self.settle(sent, outcome, phase, origin_ns),
                Err(pending) => {
                    inflight.push_front((sent, pending));
                    return;
                }
            }
        }
    }

    /// Records one request's outcome: a failure by kind, or its timings
    /// after checking a full-joint response against the reference.
    fn settle(
        &self,
        sent: Sent,
        outcome: Result<ScoreResponse, ScoreError>,
        phase: &mut Phase,
        origin_ns: u64,
    ) {
        let Sent {
            image,
            arrival,
            sched_ns,
            submit_ns,
        } = sent;
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                let f = &mut phase.failures;
                match e {
                    ScoreError::BadInput(_) => f.bad_input += 1,
                    ScoreError::WorkerCrashed => f.crashed += 1,
                    ScoreError::DeadlineExpired => f.expired += 1,
                    ScoreError::Shutdown => f.shutdown += 1,
                }
                return;
            }
        };
        if r.via != ServedVia::FullJoint {
            phase.degraded += 1;
        } else if !matches_expected(&r, &self.pool.expected[image]) {
            phase.failures.wrong_output += 1;
            return;
        }
        phase.served += 1;
        let done_ns = submit_ns + r.total_us * 1000;
        phase.last_done_ns = phase.last_done_ns.max(done_ns);
        let latency_us = done_ns.saturating_sub(sched_ns) as f64 / 1e3;
        phase.latency_us.push(latency_us);
        phase.arrival_left[arrival] -= 1;
        let last = &mut phase.arrival_last_us[arrival];
        *last = last.max(latency_us);
        phase.queue_us.push(r.queue_us as f64);
        phase
            .service_us
            .push(r.total_us.saturating_sub(r.queue_us) as f64);
        phase.batch.push(r.batch as f64);
        if self.spans.enabled() {
            // Phase-relative times shifted onto the recorder's clock.
            let [sched, submit, queued, done] =
                [sched_ns, submit_ns, submit_ns + r.queue_us * 1000, done_ns]
                    .map(|t| t + origin_ns);
            let id = r.seq + 1;
            self.spans.record("serve.request", sched, done, id);
            self.spans.record("serve.queue", submit, queued, id);
            self.spans.record("serve.service", queued, done, id);
        }
    }

    /// One window of `REF_WINDOW` requests at `REF_RATE`.
    pub fn reference_window(&mut self) -> Phase {
        let _r = self.spans.enter("serve.reference");
        self.run(REF_RATE, REF_WINDOW)
    }

    /// Offers one ladder rung: `RUNG_S` seconds of load at `rate`.
    pub fn rung(&mut self, rate: f64) -> Phase {
        let _r = self.spans.enter("serve.rung");
        self.run(rate, (rate * RUNG_S).round() as usize)
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Shuts the server down; every accepted request has been answered.
    pub fn finish(self) -> dv_serve::MetricsSnapshot {
        self.server.shutdown()
    }
}

/// The capacity walk over the rate ladder, one rung per step so that
/// the rungs can be spread over a run.
///
/// The walk starts at `LADDER_START` and goes up until a rate fails, or
/// down until one passes when the first rate fails. A failing rate is
/// run once more (at the next step) and fails only if both runs fail,
/// so one scheduling stall of the host does not end the walk.
pub struct Ladder {
    k: i32,
    up: Option<bool>,
    retrying: bool,
    done: bool,
    pub rungs: Vec<Phase>,
}

impl Ladder {
    pub fn new() -> Self {
        let top = ladder_len() - 1;
        Self {
            k: (0..=top)
                .find(|&k| ladder_rate(k) >= LADDER_START)
                .unwrap_or(top),
            up: None,
            retrying: false,
            done: false,
            rungs: Vec::new(),
        }
    }

    pub fn done(&self) -> bool {
        self.done
    }

    /// Runs the next rung of the walk.
    pub fn step(&mut self, load: &mut Load<'_>) {
        let phase = load.rung(ladder_rate(self.k));
        let pass = phase.passes();
        self.rungs.push(phase);
        if !pass && !self.retrying {
            self.retrying = true;
            return;
        }
        self.retrying = false;
        let dir = *self.up.get_or_insert(pass);
        let next = if dir { self.k + 1 } else { self.k - 1 };
        if pass != dir || !(0..ladder_len()).contains(&next) {
            self.done = true;
        } else {
            self.k = next;
        }
    }

    /// The capacity the rungs run so far show.
    pub fn capacity(&self) -> f64 {
        capacity_of(&self.rungs)
    }
}

/// Capacity from the rungs run: the highest passing rate, moved toward
/// the lowest failing rate above it by where the limit falls between
/// their p99s on a log scale. A rate passes if any run of it passed and
/// fails if every run failed (its p99 is then the lower of the two).
/// With no failing rate above the passing ones it is the highest rate
/// run; with no passing rate, the lowest rate scaled down by its p99
/// overshoot.
pub fn capacity_of(rungs: &[Phase]) -> f64 {
    let mut rates: Vec<(f64, bool, f64)> = Vec::new();
    for r in rungs {
        let p99 = r.p(0.99);
        match rates
            .iter_mut()
            .find(|(rate, _, _)| *rate == r.offered_rate)
        {
            Some(e) => {
                e.1 |= r.passes();
                e.2 = e.2.min(p99);
            }
            None => rates.push((r.offered_rate, r.passes(), p99)),
        }
    }
    rates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let pass = rates.iter().rev().find(|r| r.1);
    match pass {
        Some(&(rp, _, lp)) => match rates.iter().find(|r| !r.1 && r.0 > rp) {
            Some(&(rf, _, lf)) if lf > lp => {
                let (lp, lf) = (lp.max(1.0).ln(), lf.ln());
                let frac = ((LIMIT_US.ln() - lp) / (lf - lp)).clamp(0.0, 1.0);
                rp + frac * (rf - rp)
            }
            Some(_) | None => rp,
        },
        None => rates
            .first()
            .map_or(f64::NAN, |&(rf, _, lf)| rf * (LIMIT_US / lf.max(LIMIT_US))),
    }
}

/// Whether a full-joint response is bit-identical to the reference.
fn matches_expected(r: &ScoreResponse, e: &DiscrepancyReport) -> bool {
    r.predicted == e.predicted
        && r.confidence.to_bits() == e.confidence.to_bits()
        && r.joint.map(f32::to_bits) == Some(e.joint.to_bits())
        && r.per_layer.len() == e.per_layer.len()
        && r.per_layer
            .iter()
            .zip(&e.per_layer)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}
