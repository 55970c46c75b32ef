//! `ttl-sessions`: a million sessions on an observed Scheme 6 wheel.
//!
//! [`SESSIONS`] sessions hold one TTL timer each; TTLs follow a Zipf law
//! over a few distinct values (`IntervalDist::Zipf`). A Zipf-skewed refresh
//! stream re-arms popular sessions (UPDATE) so they rarely expire, while the
//! long tail expires and is replaced by a new session (START). The clock
//! moves in [`ADVANCE_TICKS`]-tick `advance_to_with` batches. The wheel runs
//! wrapped in `Observed` with `tw-obs` telemetry attached, as a deployment
//! would run it. Per-tick bookkeeping, expiry processing, the `on_fire`
//! observer path and memory per timer do the work here.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observed, Tick, TickDelta, TimerHandle, TimerScheme};
use tw_obs::SchemeTelemetry;
use tw_workload::IntervalDist;

use crate::spans::{
    clock_read_ns, log_lines, paired_median, wheel_spans, ArenaSlots, SpanLog, Spanned,
};
use crate::stats::Meter;
use crate::verify::Shadow;
use crate::{
    baseline, setups, ticks_u32, traced, untraced, warm_up, Args, Bench, Outcome, Plan, Snap,
};

/// Live sessions.
pub const SESSIONS: usize = 1 << 20;
/// Wheel buckets: TTLs span up to four revolutions, so ticks also pay the
/// Scheme 6 per-bucket decrements (§6.1.2).
const TABLE: usize = 1024;
/// Distinct TTLs, their spacing and their Zipf exponent: TTLs are
/// 500, 1000, .., 4000 ticks, the shortest the most common.
const TTL_RANKS: usize = 8;
const TTL_SCALE: u64 = 500;
const TTL_ZIPF: f64 = 1.1;
const TTL_MAX: u64 = TTL_RANKS as u64 * TTL_SCALE;
/// Zipf exponent of session popularity in the refresh stream.
const POPULARITY_ZIPF: f64 = 1.0;
/// Refreshes between advances, and ticks per advance.
const REFRESH_PER_ADVANCE: usize = 2048;
pub const ADVANCE_TICKS: u64 = 4;
/// Pre-generated refresh stream and replacement TTLs (both cycled).
const STREAM: usize = 1 << 20;
const REPLACEMENTS: usize = 1 << 16;
/// Builds timed before the run and again after it. Set-up drifts with the
/// host as ops do, and a second million-session instance beside the live
/// one would double `peak_rss_mb`, so instead of between rounds the builds
/// are timed at both ends of the run.
const SETUPS: usize = 5;
/// Warm-up for one longest TTL; one op and one fire in 8 timed.
const PLAN: Plan = Plan {
    warm_steps: TTL_MAX / ADVANCE_TICKS,
    window_steps: 1000,
    op_stride: 8,
    fire_stride: 8,
    setup_every: 0,
};

/// The seeded inputs.
pub struct Inputs {
    /// Each session's TTL.
    initial: Vec<u32>,
    /// Each session's first interval: the residue of a TTL that was last
    /// refreshed at a random point in the past, so deadlines start spread
    /// over the TTL rather than in one wave per distinct TTL.
    first: Vec<u32>,
    refresh: Vec<u32>,
    replacement: Vec<u32>,
}

/// Generates the inputs for `seed`.
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ttl = IntervalDist::zipf(TTL_ZIPF, TTL_RANKS, TTL_SCALE);
    let initial: Vec<u32> = (0..SESSIONS)
        .map(|_| ticks_u32(ttl.sample(&mut rng)))
        .collect();
    let first = initial.iter().map(|&t| rng.gen_range(1..=t)).collect();
    // Popularity rank r (1 = hottest) drawn from a Zipf table over every
    // session, then scattered over the key space by an odd multiplier (a
    // bijection mod 2^20) so hot sessions are not neighbours in memory.
    let rank = IntervalDist::zipf(POPULARITY_ZIPF, SESSIONS, 1);
    let mask = SESSIONS as u64 - 1;
    let refresh = (0..STREAM)
        .map(|_| (((rank.sample(&mut rng).as_u64() - 1) * 0x9E37_79B1) & mask) as u32)
        .collect();
    let replacement = (0..REPLACEMENTS)
        .map(|_| ticks_u32(ttl.sample(&mut rng)))
        .collect();
    Inputs {
        initial,
        first,
        refresh,
        replacement,
    }
}

/// A built, populated wheel plus the client's session table.
pub struct Ttl<'a, S> {
    wheel: S,
    telemetry: Arc<SchemeTelemetry>,
    handles: Vec<TimerHandle>,
    ttl: Vec<u32>,
    shadow: Shadow,
    inputs: &'a Inputs,
    cursor: usize,
    replace_cursor: usize,
    op_index: u64,
    fired: Vec<(u32, u64, u64)>,
    steps: u64,
    attempted: u64,
    failed: u64,
}

/// Set-up proper: build the wheel and arm every session.
fn build<S: TimerScheme<u32>>(make: &impl Fn() -> S, inputs: &Inputs) -> (S, Vec<TimerHandle>) {
    let mut wheel = make();
    let handles = inputs
        .first
        .iter()
        .enumerate()
        .map(|(key, &first)| {
            wheel
                .start_timer(TickDelta(u64::from(first)), key as u32)
                .expect("Scheme 6 accepts any interval")
        })
        .collect();
    (wheel, handles)
}

impl<'a, S: TimerScheme<u32> + ArenaSlots> Ttl<'a, S> {
    fn new(
        (wheel, handles): (S, Vec<TimerHandle>),
        telemetry: Arc<SchemeTelemetry>,
        inputs: &'a Inputs,
    ) -> Ttl<'a, S> {
        let mut shadow = Shadow::new(SESSIONS, TTL_MAX + ADVANCE_TICKS);
        for (key, &first) in inputs.first.iter().enumerate() {
            shadow.arm(key as u32, u64::from(first));
        }
        Ttl {
            wheel,
            telemetry,
            handles,
            ttl: inputs.initial.clone(),
            shadow,
            inputs,
            cursor: 0,
            replace_cursor: 0,
            op_index: 0,
            fired: Vec::with_capacity(1 << 16),
            steps: 0,
            attempted: 0,
            failed: 0,
        }
    }
}

impl<S: TimerScheme<u32> + ArenaSlots> Bench for Ttl<'_, S> {
    fn step(&mut self, m: &mut Meter) {
        let attempted = self.attempted;
        for _ in 0..REFRESH_PER_ADVANCE {
            let key = self.inputs.refresh[self.cursor];
            self.cursor = (self.cursor + 1) & (STREAM - 1);
            let ttl = self.ttl[key as usize];
            let timed = m.times_op(self.op_index).then(Instant::now);
            self.op_index += 1;
            let r = self
                .wheel
                .restart_timer(self.handles[key as usize], TickDelta(u64::from(ttl)));
            if let Some(t) = timed {
                m.ops.since(t);
            }
            self.attempted += 1;
            match r {
                Ok(()) => self
                    .shadow
                    .rearm(key, self.wheel.now().as_u64() + u64::from(ttl)),
                Err(_) => self.failed += 1,
            }
        }
        let fired = &mut self.fired;
        let target = Tick(self.wheel.now().as_u64() + ADVANCE_TICKS);
        let entered = Instant::now();
        self.wheel.advance_to_with(target, &mut |e| {
            if m.times_fire() {
                m.fires.since(entered);
            }
            fired.push((e.payload, e.deadline.as_u64(), e.fired_at.as_u64()));
        });
        m.ticks.since(entered);
        self.steps += 1;
        for &(key, deadline, at) in &self.fired {
            self.shadow.fire_exact(key, deadline, at);
        }
        let now = self.wheel.now().as_u64();
        self.shadow.settle(now);
        for i in 0..self.fired.len() {
            let key = self.fired[i].0;
            let ttl = self.inputs.replacement[self.replace_cursor];
            self.replace_cursor = (self.replace_cursor + 1) & (REPLACEMENTS - 1);
            let timed = m.times_op(self.op_index).then(Instant::now);
            self.op_index += 1;
            let r = self.wheel.start_timer(TickDelta(u64::from(ttl)), key);
            if let Some(t) = timed {
                m.ops.since(t);
            }
            self.attempted += 1;
            match r {
                Ok(h) => {
                    self.handles[key as usize] = h;
                    self.ttl[key as usize] = ttl;
                    self.shadow.arm(key, now + u64::from(ttl));
                }
                Err(_) => self.failed += 1,
            }
        }
        self.fired.clear();
        m.add_ops(self.attempted - attempted);
    }

    fn snap(&self) -> Snap {
        let t = &self.telemetry;
        Snap {
            ops: self.attempted,
            steps: self.steps,
            counters: *self.wheel.counters(),
            hook_calls: t.starts.get()
                + t.stops.get()
                + t.restarts.get()
                + t.fires.get()
                + 2 * t.windows.get(),
            arena_slots: self.wheel.arena_slots(),
            outstanding: self.wheel.outstanding(),
            ..Snap::default()
        }
    }

    fn attempted_failed(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn finish(&mut self) {
        let live = self.wheel.outstanding();
        self.shadow.check_live("outstanding", live);
    }

    fn shadow(&self) -> &Shadow {
        &self.shadow
    }
}

type Plain = Observed<HashedWheelUnsorted<u32>, Arc<SchemeTelemetry>>;

fn plain(telemetry: &Arc<SchemeTelemetry>) -> impl Fn() -> Plain + '_ {
    move || Observed::new(HashedWheelUnsorted::new(TABLE), telemetry.clone())
}

/// Runs `ttl-sessions` as `args` says.
pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    if !args.trace {
        let telemetry = Arc::new(SchemeTelemetry::new());
        let (built, setup) = setups(SETUPS, || build(&plain(&telemetry), &inputs));
        let b = Ttl::new(built, telemetry.clone(), &inputs);
        let after = || setups(SETUPS, || build(&plain(&telemetry), &inputs)).1;
        return untraced(b, &PLAN, args.seconds, &setup, after);
    }
    let mut out = Outcome::default();
    let telemetry = Arc::new(SchemeTelemetry::new());
    let base = Ttl::new(
        build(&plain(&telemetry), &inputs),
        telemetry.clone(),
        &inputs,
    );
    let base = baseline(base, &PLAN, args.seconds, &mut out);

    let telemetry = Arc::new(SchemeTelemetry::new());
    let (outer, inner) = (SpanLog::new(), SpanLog::new());
    let make = || {
        let wheel = Spanned::new(HashedWheelUnsorted::new(TABLE), inner.clone());
        Spanned::new(Observed::new(wheel, telemetry.clone()), outer.clone())
    };
    let mut b = Ttl::new(build(&make, &inputs), telemetry.clone(), &inputs);
    warm_up(&mut b, PLAN.warm_steps);
    outer.lock().clear_spans();
    inner.lock().clear_spans();
    traced(&mut b, &PLAN, args.seconds, base, &mut out);
    let clock = clock_read_ns();
    let (o, i) = (outer.lock(), inner.lock());
    wheel_spans(&mut out, &i);
    // Outer minus inner, less the clock reads the inner span adds.
    let op_self = paired_median(&o.seq, &i.seq_wrapped, None, clock);
    let tick_self = paired_median(
        &o.tick_self,
        &i.tick_wrapped_self,
        Some(&o.tick_fires),
        clock,
    );
    out.metrics.set("observe.op_self_ns", op_self);
    out.metrics.set("observe.tick_self_ns", tick_self);
    out.trace_lines.extend(log_lines("observed", &o));
    out.notes.push(format!("clock read: {clock} ns"));
    out
}
