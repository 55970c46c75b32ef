//! End-to-end and per-layer benchmark of the timer stack.
//!
//! Three closed-loop workloads drive the repository's public APIs from one
//! client thread: [`rto`] (`rto-churn`, a hierarchical wheel under
//! UPDATE-dominated retransmission traffic), [`ttl`] (`ttl-sessions`, an
//! observed Scheme 6 wheel holding a million Zipf-TTL sessions) and
//! [`timeouts`] (`async-timeouts`, request timeouts as `tw-async` sleeps,
//! crossing the driver, the waker table, the service channel and the
//! service thread). Every expiry is checked against a shadow deadline table
//! ([`verify`]).
//!
//! A run either measures the end-to-end metrics (untraced) or the per-layer
//! metrics (traced: spans from [`spans::Spanned`] and client-side rings).

pub mod host;
pub mod rto;
pub mod spans;
pub mod stats;
pub mod timeouts;
pub mod ttl;
pub mod verify;

use std::fmt::Write as _;
use std::time::Instant;

use tw_core::{OpCounters, TickDelta};

use crate::stats::{median, Meter};
use crate::verify::Shadow;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub confinement: String,
}

/// The workloads, by the names the command line and `BENCHMARK.json` use.
pub const WORKLOADS: [&str; 3] = ["rto-churn", "ttl-sessions", "async-timeouts"];

/// End-to-end metrics: name and unit, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("tick_p50_ns", "ns"),
    ("fire_p50_ns", "ns"),
    ("cpu_ns_per_op", "ns"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "1"),
];

/// End-to-end figures an untraced run prints after the gated ones but
/// leaves out of its result line: the op latencies and the tail latencies,
/// which do not repeat within a tenth from run to run (so they are gated
/// nowhere and appear again among the per-layer metrics), and the refused
/// share, which is 0 on every workload and gated as its complement
/// `ok_frac`.
pub const REPORTED: [(&str, &str); 5] = [
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("tick_p99_ns", "ns"),
    ("fire_p99_ns", "ns"),
    ("fail_frac", "1"),
];

/// Per-layer metrics: name and unit, printed by every traced run. A layer a
/// workload does not cross reports 0. The op and tail latencies come
/// first: end-to-end figures that do not repeat within a tenth, so they are
/// reported here, from the traced run's untraced share, and not gated.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("tick_p99_ns", "ns"),
    ("fire_p99_ns", "ns"),
    ("wheel.start_p50_ns", "ns"),
    ("wheel.restart_p50_ns", "ns"),
    ("wheel.stop_p50_ns", "ns"),
    ("wheel.tick_self_p50_ns", "ns"),
    ("wheel.tick_self_p99_ns", "ns"),
    ("wheel.vax_per_op", "count"),
    ("wheel.migrations_per_op", "count"),
    ("wheel.slot_visits_per_tick", "count"),
    ("wheel.decrements_per_tick", "count"),
    ("wheel.bitmap_ops_per_tick", "count"),
    ("wheel.expiries_per_tick", "count"),
    ("arena.slot_high_water", "count"),
    ("arena.slots_per_live", "count"),
    ("observe.op_self_ns", "ns"),
    ("observe.tick_self_ns", "ns"),
    ("observe.hook_calls_per_op", "count"),
    ("service.handoff_p50_ns", "ns"),
    ("service.advance_handoff_p50_ns", "ns"),
    ("service.thread_cpu_ns_per_op", "ns"),
    ("service.cmds_per_op", "count"),
    ("driver.arm_p50_ns", "ns"),
    ("driver.reset_p50_ns", "ns"),
    ("driver.drop_p50_ns", "ns"),
    ("driver.repoll_p50_ns", "ns"),
    ("driver.advance_p50_ns", "ns"),
    ("driver.wake_p50_ns", "ns"),
    ("driver.wakes_per_advance", "count"),
    ("driver.slots_per_live", "count"),
    ("client.thread_cpu_ns_per_op", "ns"),
    ("trace.overhead_frac", "1"),
];

/// A tick count that fits in 32 bits, as every interval here does.
#[must_use]
pub fn ticks_u32(d: TickDelta) -> u32 {
    u32::try_from(d.as_u64()).expect("interval fits in u32 ticks")
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, 0 when unset.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Shadow mismatches; the run is correct only when this is 0.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    /// Span summaries written to the trace file.
    pub trace_lines: Vec<String>,
}

/// Counts read at the edges of the traced run's count window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snap {
    /// Client ops (START/UPDATE/STOP; arm/reset/drop).
    pub ops: u64,
    /// Client tick or advance calls.
    pub steps: u64,
    /// The wheel's work counters.
    pub counters: OpCounters,
    /// START/UPDATE/STOP calls the wheel received through the service.
    pub wheel_calls: u64,
    /// Observer hook calls.
    pub hook_calls: u64,
    /// Wakes delivered to the benchmark's wakers.
    pub wakes: u64,
    pub arena_slots: usize,
    pub outstanding: usize,
    pub waker_slots: usize,
    pub pending_sleeps: usize,
}

/// One closed-loop workload instance (a built stack plus its client state).
pub trait Bench {
    /// One closed-loop step: a batch of ops, each issued after the previous
    /// one returned, then one tick or advance and the expiry follow-up.
    fn step(&mut self, m: &mut Meter);
    /// Counts as of now.
    fn snap(&self) -> Snap;
    /// Client ops attempted and refused so far.
    fn attempted_failed(&self) -> (u64, u64);
    /// The end-of-run checks: the stack's live counts against the shadow's.
    fn finish(&mut self);
    /// The shadow deadline table the run was checked against.
    fn shadow(&self) -> &Shadow;
    /// Builds and drops one extra instance, returning its set-up time in
    /// seconds; called between rounds of an untraced run when the plan's
    /// `setup_every` asks for it.
    fn setup_sample(&mut self) -> f64 {
        unreachable!("this workload times no set-up between rounds")
    }
}

/// A workload's fixed phase settings.
pub struct Plan {
    /// Untimed steps after set-up, so the population is in steady state.
    pub warm_steps: u64,
    /// Steps in the traced run's count window.
    pub window_steps: u64,
    /// One op in `op_stride` and one fire in `fire_stride` is timed.
    pub op_stride: u64,
    pub fire_stride: u64,
    /// An untraced run times one extra set-up after every `setup_every`
    /// rounds (0: none), so `setup_s` samples the whole run rather than the
    /// moment before it.
    pub setup_every: usize,
}

/// Share of a traced run spent untraced, measuring the baseline of
/// `trace.overhead_frac`.
const BASELINE_SHARE: f64 = 1.0 / 3.0;

impl Outcome {
    /// Adds a finished instance's shadow mismatches.
    pub fn check(&mut self, shadow: &Shadow) {
        self.mismatches += shadow.mismatches();
        if self.first_mismatch.is_none() {
            self.first_mismatch = shadow.first_mismatch().map(ToString::to_string);
        }
    }
}

/// Builds `n` times, timing each build, and keeps the last instance and
/// every build time; the earlier ones are dropped before the next is
/// built, so only one is live.
pub fn setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one setup"), times)
}

/// Runs `steps` untimed steps.
pub fn warm_up(b: &mut impl Bench, steps: u64) {
    let mut m = Meter::new(1.0, 1, 1, 1);
    for _ in 0..steps {
        b.step(&mut m);
    }
}

/// Rounds per second of timed phase.
const ROUNDS_PER_SECOND: f64 = 2.0;

/// Runs the timed phase for `seconds`, stepping at least `min_steps` times;
/// `at_step(b, i)` runs before step `i` (the traced run reads its count
/// window there). Set-ups are sampled between rounds when `setup_every` is
/// not 0.
fn timed<B: Bench>(
    b: &mut B,
    plan: &Plan,
    seconds: f64,
    min_steps: u64,
    setup_every: usize,
    mut at_step: impl FnMut(&mut B, u64),
) -> Meter {
    let rounds = ((seconds * ROUNDS_PER_SECOND).round() as usize).max(1);
    let mut m = Meter::new(seconds, rounds, plan.op_stride, plan.fire_stride);
    m.start();
    let mut i = 0u64;
    loop {
        at_step(b, i);
        b.step(&mut m);
        i += 1;
        let before = m.rounds().len();
        let more = m.tick_boundary();
        let done = m.rounds().len();
        if done > before && setup_every > 0 && done.is_multiple_of(setup_every) {
            let s = b.setup_sample();
            m.setup_samples.push(s);
            // The next round starts after the extra set-up.
            m.start();
        }
        if !more && i >= min_steps {
            return m;
        }
    }
}

/// An untraced run on a built instance: warm-up, the timed phase, the end
/// checks and the end-to-end metrics. `setup` holds the set-up times
/// measured before it; `after` runs once the instance is dropped and
/// returns more.
pub fn untraced<B: Bench>(
    mut b: B,
    plan: &Plan,
    seconds: f64,
    setup: &[f64],
    after: impl FnOnce() -> Vec<f64>,
) -> Outcome {
    warm_up(&mut b, plan.warm_steps);
    let (a0, f0) = b.attempted_failed();
    let m = timed(&mut b, plan, seconds, 1, plan.setup_every, |_, _| {});
    let (a1, f1) = b.attempted_failed();
    b.finish();
    let mut out = Outcome {
        attempted: a1 - a0,
        failed: f1 - f0,
        ..Outcome::default()
    };
    out.check(b.shadow());
    drop(b);
    let setup = [setup, &after()].concat();
    end_to_end(&mut out, &setup, &m);
    out
}

/// The untraced share of a traced run, on its own build. It stores the op
/// and tail latencies (`op_p50_ns`, `op_p99_ns`, `tick_p99_ns`,
/// `fire_p99_ns`), which are reported but not gated because they do not
/// repeat within a tenth from run to run, and returns its throughput, the
/// baseline of `trace.overhead_frac`.
pub fn baseline<B: Bench>(mut b: B, plan: &Plan, seconds: f64, out: &mut Outcome) -> f64 {
    warm_up(&mut b, plan.warm_steps);
    let m = timed(&mut b, plan, seconds * BASELINE_SHARE, 1, 0, |_, _| {});
    b.finish();
    out.check(b.shadow());
    let s = m.summary();
    out.metrics.set("op_p50_ns", s.op_p50);
    out.metrics.set("op_p99_ns", s.op_p99);
    out.metrics.set("tick_p99_ns", s.tick_p99);
    out.metrics.set("fire_p99_ns", s.fire_p99);
    s.ops_per_s
}

/// The traced share of a traced run, on a built and warmed-up instance:
/// reads the count window's edge snapshots, runs the end checks, and stores
/// the window counts, `client.thread_cpu_ns_per_op` and
/// `trace.overhead_frac`. Returns the client ops it ran.
pub fn traced<B: Bench>(
    b: &mut B,
    plan: &Plan,
    seconds: f64,
    baseline_ops_per_s: f64,
    out: &mut Outcome,
) -> u64 {
    let (mut w0, mut w1) = (Snap::default(), Snap::default());
    let cpu0 = host::this_thread_cpu_ns();
    let ops0 = b.snap().ops;
    let (a0, f0) = b.attempted_failed();
    let window = plan.window_steps;
    let m = timed(
        b,
        plan,
        seconds * (1.0 - BASELINE_SHARE),
        window + 1,
        0,
        |b, i| {
            if i == 0 {
                w0 = b.snap();
            } else if i == window {
                w1 = b.snap();
            }
        },
    );
    let cpu = host::this_thread_cpu_ns() - cpu0;
    let ops = b.snap().ops - ops0;
    let (a1, f1) = b.attempted_failed();
    b.finish();
    out.attempted = a1 - a0;
    out.failed = f1 - f0;
    out.check(b.shadow());
    window_counts(out, &w0, &w1);
    let mt = &mut out.metrics;
    mt.set("client.thread_cpu_ns_per_op", ratio(cpu, ops));
    mt.set(
        "trace.overhead_frac",
        1.0 - m.summary().ops_per_s / baseline_ops_per_s,
    );
    ops
}

/// Stores the end-to-end metrics of an untraced timed phase; `setup` holds
/// the set-up times measured before it.
fn end_to_end(out: &mut Outcome, setup: &[f64], meter: &Meter) {
    let s = meter.summary();
    let all: Vec<f64> = setup.iter().chain(&meter.setup_samples).copied().collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&all));
    m.set("ops_per_s", s.ops_per_s);
    m.set("op_p50_ns", s.op_p50);
    m.set("tick_p50_ns", s.tick_p50);
    m.set("fire_p50_ns", s.fire_p50);
    m.set("cpu_ns_per_op", s.cpu_ns_per_op);
    m.set("peak_rss_mb", host::peak_rss_mib());
    let fail = ratio(out.failed, out.attempted);
    m.set("ok_frac", if out.attempted == 0 { 0.0 } else { 1.0 - fail });
    m.set("op_p99_ns", s.op_p99);
    m.set("tick_p99_ns", s.tick_p99);
    m.set("fire_p99_ns", s.fire_p99);
    m.set("fail_frac", fail);
    out.notes.push(format!(
        "timed phase: {} rounds, {} ops; op/tick/fire latencies timed {:?}, pooled {:?}; {} set-ups",
        s.rounds,
        s.ops,
        s.seen,
        s.pooled,
        all.len(),
    ));
    out.notes.push(rounds_note(meter));
    let ms: Vec<String> = all.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    out.notes.push(format!("set-up ms: {}", ms.join(" ")));
}

/// A note listing each round's throughput, to show drift within a run.
#[must_use]
fn rounds_note(m: &Meter) -> String {
    let per_round: Vec<String> = m
        .rounds()
        .iter()
        .map(|r| format!("{:.0}", r.ops as f64 / r.secs))
        .collect();
    format!("ops_per_s by round: {}", per_round.join(" "))
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Stores the per-layer counts of a count window from its edge snapshots.
/// Every figure is a ratio of exact counts, so at a fixed seed it repeats
/// bit for bit.
/// The service and driver counts stay 0 on workloads without those layers.
fn window_counts(out: &mut Outcome, a: &Snap, b: &Snap) {
    let ops = b.ops - a.ops;
    let c = b.counters.delta_since(&a.counters);
    let m = &mut out.metrics;
    m.set("wheel.vax_per_op", ratio(c.vax_instructions, ops));
    m.set("wheel.migrations_per_op", ratio(c.migrations, ops));
    m.set(
        "wheel.slot_visits_per_tick",
        ratio(c.empty_slot_skips + c.nonempty_slot_visits, c.ticks),
    );
    m.set("wheel.decrements_per_tick", ratio(c.decrements, c.ticks));
    m.set("wheel.bitmap_ops_per_tick", ratio(c.bitmap_ops, c.ticks));
    m.set("wheel.expiries_per_tick", ratio(c.expiries, c.ticks));
    m.set("arena.slot_high_water", b.arena_slots as f64);
    m.set(
        "arena.slots_per_live",
        ratio(b.arena_slots as u64, b.outstanding as u64),
    );
    m.set(
        "observe.hook_calls_per_op",
        ratio(b.hook_calls - a.hook_calls, ops),
    );
    if b.wheel_calls > 0 {
        m.set(
            "service.cmds_per_op",
            ratio(b.wheel_calls - a.wheel_calls, ops),
        );
    }
    if b.waker_slots > 0 {
        m.set(
            "driver.wakes_per_advance",
            ratio(b.wakes - a.wakes, b.steps - a.steps),
        );
        m.set(
            "driver.slots_per_live",
            ratio(b.waker_slots as u64, b.pending_sleeps as u64),
        );
    }
    out.notes.push(format!(
        "count window: {ops} ops, {} steps, {} wheel ticks, {} expiries ({:.4} per op), {} starts, {} restarts, {} stops",
        b.steps - a.steps,
        c.ticks,
        c.expiries,
        ratio(c.expiries, ops),
        c.starts,
        c.restarts,
        c.stops
    ));
}

/// The result line: one JSON object with the metrics of this run's kind.
#[must_use]
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut s = String::new();
    let correct = out.mismatches == 0;
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = out.metrics.get(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
