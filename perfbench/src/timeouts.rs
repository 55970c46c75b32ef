//! `async-timeouts`: request timeouts as `tw-async` sleeps over a hashed
//! wheel, in virtual time, with no observer.
//!
//! [`INFLIGHT`] requests are in flight, each with a timeout `Sleep` armed on
//! its first poll. Each client op picks a request: most complete (the sleep
//! is dropped, STOP, and a new request arms a fresh sleep), the rest get a
//! keep-alive (`Sleep::reset`, UPDATE, then a re-poll). The client calls
//! `driver.advance` after every [`OPS_PER_ADVANCE`] picks; the few percent
//! of requests whose timeout fires are woken, polled to completion and
//! replaced. Every op crosses driver → waker table → command channel →
//! service thread → wheel and back, so the layers above the wheel dominate.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tw_async::{Sleep, TimerDriver};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{RequestId, TickDelta};
use tw_workload::IntervalDist;

use crate::spans::{paired_median, summary_line, wheel_spans, Ring, SpanLog, Spanned};
use crate::stats::{ns_since, quantile, Meter};
use crate::verify::Shadow;
use crate::{
    baseline, host, ratio, setups, ticks_u32, traced, untraced, warm_up, Args, Bench, Outcome,
    Plan, Snap,
};

/// Requests in flight, one timeout sleep each.
pub const INFLIGHT: usize = 8192;
/// Wheel buckets.
const TABLE: usize = 4096;
/// Shortest and longest request timeout, in ticks.
const TIMEOUT_LO: u64 = 400;
const TIMEOUT_HI: u64 = 2000;
/// Probability that a picked request completes (otherwise: keep-alive).
const P_COMPLETE: f64 = 0.7;
/// Request picks between advances, and ticks per advance.
pub const OPS_PER_ADVANCE: usize = 32;
pub const ADVANCE_TICKS: u64 = 1;
/// Pre-generated pick stream and replacement timeouts (both cycled).
const STREAM: usize = 1 << 18;
const REARMS: usize = 1 << 14;
/// Builds timed before the run; more are timed between rounds.
const SETUPS: usize = 5;
/// Warm-up past the longest timeout; every op and fire timed (an op costs
/// microseconds, so two clock reads do not weigh on it). A build crosses
/// threads once per armed sleep, so it drifts with the host as ops do; one
/// more is timed after every fourth round, so `setup_s` spans the run.
const PLAN: Plan = Plan {
    warm_steps: 2 * TIMEOUT_HI,
    window_steps: 2000,
    op_stride: 1,
    fire_stride: 1,
    setup_every: 4,
};
/// The service thread's name, as `TimerService` spawns it.
const SERVICE_THREAD: &str = "timer-service";

#[derive(Clone, Copy)]
struct Pick {
    key: u32,
    interval: u32,
    complete: bool,
}

/// The seeded inputs.
pub struct Inputs {
    initial: Vec<u32>,
    picks: Vec<Pick>,
    rearm: Vec<u32>,
}

/// Generates the inputs for `seed`.
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let timeout = IntervalDist::Uniform {
        lo: TIMEOUT_LO,
        hi: TIMEOUT_HI,
    };
    let initial = (0..INFLIGHT)
        .map(|_| ticks_u32(timeout.sample(&mut rng)))
        .collect();
    let picks = (0..STREAM)
        .map(|_| Pick {
            key: rng.gen_range(0..INFLIGHT as u32),
            interval: ticks_u32(timeout.sample(&mut rng)),
            complete: rng.gen_bool(P_COMPLETE),
        })
        .collect();
    let rearm = (0..REARMS)
        .map(|_| ticks_u32(timeout.sample(&mut rng)))
        .collect();
    Inputs {
        initial,
        picks,
        rearm,
    }
}

/// Wakes delivered to the benchmark: request key and wall time.
#[derive(Default)]
struct WakeSink(Mutex<Vec<(u32, Instant)>>);

/// The waker of one request slot; records its key when woken.
struct KeyWaker {
    key: u32,
    sink: Arc<WakeSink>,
}

impl Wake for KeyWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let at = Instant::now();
        self.sink
            .0
            .lock()
            .expect("wake sink poisoned")
            .push((self.key, at));
    }
}

fn poll(sleep: &mut Sleep, waker: &Waker) -> Poll<()> {
    Pin::new(sleep).poll(&mut Context::from_waker(waker))
}

/// Client-side spans of the traced run.
#[derive(Default)]
struct ClientSpans {
    arm: Ring,
    reset: Ring,
    drop: Ring,
    repoll: Ring,
    advance: Ring,
    /// Every arm/reset/drop span in call order, paired with the wheel's.
    ops: Ring,
    wake: Ring,
}

/// A built driver with its requests armed, plus the client's state.
pub struct Timeouts<'a> {
    driver: TimerDriver,
    sleeps: Vec<Option<Sleep>>,
    wakers: Vec<Waker>,
    sink: Arc<WakeSink>,
    woken: Vec<(u32, Instant)>,
    shadow: Shadow,
    inputs: &'a Inputs,
    now: u64,
    cursor: usize,
    rearm_cursor: usize,
    op_index: u64,
    steps: u64,
    attempted: u64,
    failed: u64,
    wakes: u64,
    fires: u64,
    log: Option<Arc<SpanLog>>,
    spans: Option<Box<ClientSpans>>,
}

/// Set-up proper: build the driver (spawning its service thread) and arm
/// every request's sleep by polling it once.
fn build(
    log: Option<&Arc<SpanLog>>,
    inputs: &Inputs,
    wakers: &[Waker],
) -> (TimerDriver, Vec<Option<Sleep>>) {
    let wheel = HashedWheelUnsorted::<RequestId>::new(TABLE);
    let driver = match log {
        Some(log) => TimerDriver::builder(Spanned::new(wheel, log.clone())).build(),
        None => TimerDriver::builder(wheel).build(),
    };
    let sleeps = inputs
        .initial
        .iter()
        .zip(wakers)
        .map(|(&iv, waker)| {
            let mut s = driver.sleep(TickDelta(u64::from(iv)));
            assert!(
                poll(&mut s, waker).is_pending(),
                "a fresh sleep arms and pends"
            );
            Some(s)
        })
        .collect();
    (driver, sleeps)
}

impl<'a> Timeouts<'a> {
    fn new(
        (driver, sleeps): (TimerDriver, Vec<Option<Sleep>>),
        wakers: Vec<Waker>,
        sink: Arc<WakeSink>,
        inputs: &'a Inputs,
        log: Option<Arc<SpanLog>>,
    ) -> Timeouts<'a> {
        let mut shadow = Shadow::new(INFLIGHT, TIMEOUT_HI + ADVANCE_TICKS);
        for (key, &iv) in inputs.initial.iter().enumerate() {
            shadow.arm(key as u32, u64::from(iv));
        }
        let traced = log.is_some();
        Timeouts {
            driver,
            sleeps,
            wakers,
            sink,
            woken: Vec::with_capacity(INFLIGHT),
            shadow,
            inputs,
            now: 0,
            cursor: 0,
            rearm_cursor: 0,
            op_index: 0,
            steps: 0,
            attempted: 0,
            failed: 0,
            wakes: 0,
            fires: 0,
            log,
            spans: traced.then(Box::default),
        }
    }

    /// Creates and first-polls a sleep for `key` (the arm op).
    fn arm(&mut self, m: &mut Meter, key: u32, interval: u32) {
        let t = Instant::now();
        let mut s = self.driver.sleep(TickDelta(u64::from(interval)));
        let pending = poll(&mut s, &self.wakers[key as usize]).is_pending();
        let span = ns_since(t);
        self.record_op(m, span, |c| &mut c.arm);
        self.attempted += 1;
        if pending {
            self.sleeps[key as usize] = Some(s);
            self.shadow.arm(key, self.now + u64::from(interval));
        } else {
            self.failed += 1;
        }
    }

    fn record_op(&mut self, m: &mut Meter, span: u64, ring: fn(&mut ClientSpans) -> &mut Ring) {
        if m.times_op(self.op_index) {
            m.ops.push_ns(span);
        }
        self.op_index += 1;
        if let Some(c) = self.spans.as_deref_mut() {
            ring(c).push(span);
            c.ops.push(span);
        }
    }
}

impl Bench for Timeouts<'_> {
    fn step(&mut self, m: &mut Meter) {
        let attempted = self.attempted;
        for _ in 0..OPS_PER_ADVANCE {
            let p = self.inputs.picks[self.cursor];
            self.cursor = (self.cursor + 1) & (STREAM - 1);
            let k = p.key as usize;
            if p.complete {
                let t = Instant::now();
                let old = self.sleeps[k].take();
                drop(old);
                let span = ns_since(t);
                self.record_op(m, span, |c| &mut c.drop);
                self.attempted += 1;
                self.shadow.disarm(p.key);
                self.arm(m, p.key, p.interval);
            } else {
                let Some(s) = self.sleeps[k].as_mut() else {
                    self.shadow.protocol(p.key, "request without a sleep");
                    continue;
                };
                let t = Instant::now();
                s.reset(TickDelta(u64::from(p.interval)));
                let span = ns_since(t);
                let t = Instant::now();
                let pending = poll(s, &self.wakers[k]).is_pending();
                let repoll = ns_since(t);
                self.record_op(m, span, |c| &mut c.reset);
                if let Some(c) = self.spans.as_deref_mut() {
                    c.repoll.push(repoll);
                }
                self.attempted += 1;
                self.shadow.rearm(p.key, self.now + u64::from(p.interval));
                if !pending {
                    self.shadow
                        .protocol(p.key, "a reset sleep completed before its deadline");
                }
            }
        }
        let after = self.now;
        let entered = Instant::now();
        let fired = self.driver.advance(ADVANCE_TICKS);
        let span = ns_since(entered);
        m.ticks.push_ns(span);
        self.now += ADVANCE_TICKS;
        self.steps += 1;
        self.fires += fired;
        // Take the wakes this advance delivered, leaving the sink an empty
        // buffer with capacity.
        let mut woken = std::mem::take(&mut self.woken);
        std::mem::swap(
            &mut woken,
            &mut self.sink.0.lock().expect("wake sink poisoned"),
        );
        self.wakes += woken.len() as u64;
        if let Some(c) = self.spans.as_deref_mut() {
            c.advance.push(span);
        }
        for &(key, at) in &woken {
            let lateness =
                u64::try_from(at.saturating_duration_since(entered).as_nanos()).unwrap_or(u64::MAX);
            if m.times_fire() {
                m.fires.push_ns(lateness);
            }
            if let Some(c) = self.spans.as_deref_mut() {
                c.wake.push(lateness);
            }
            self.shadow.fire(key, after, self.now);
            let k = key as usize;
            let waker = &self.wakers[k];
            if !self.sleeps[k]
                .as_mut()
                .is_some_and(|s| poll(s, waker).is_ready())
            {
                self.shadow.protocol(key, "woken sleep not ready");
            }
            self.sleeps[k] = None;
        }
        self.shadow.settle(self.now);
        for &(key, _) in &woken {
            let iv = self.inputs.rearm[self.rearm_cursor];
            self.rearm_cursor = (self.rearm_cursor + 1) & (REARMS - 1);
            self.arm(m, key, iv);
        }
        woken.clear();
        self.woken = woken;
        m.add_ops(self.attempted - attempted);
    }

    fn snap(&self) -> Snap {
        let (wheel_calls, counters, arena_slots, outstanding) = match &self.log {
            Some(log) => {
                let d = log.lock();
                (d.calls, d.counters, d.arena_slots, d.outstanding)
            }
            None => (0, tw_core::OpCounters::default(), 0, 0),
        };
        Snap {
            ops: self.attempted,
            steps: self.steps,
            counters,
            wheel_calls,
            wakes: self.wakes,
            arena_slots,
            outstanding,
            waker_slots: self.driver.waker_slots(),
            pending_sleeps: self.driver.pending_sleeps(),
            ..Snap::default()
        }
    }

    fn attempted_failed(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn finish(&mut self) {
        let pending = self.driver.pending_sleeps();
        self.shadow.check_live("pending_sleeps", pending);
        let outstanding = self.driver.outstanding();
        self.shadow.check_live("outstanding", outstanding);
        self.shadow
            .check_equal("wakes vs fires", self.wakes, self.fires);
    }

    fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    fn setup_sample(&mut self) -> f64 {
        // The extra driver never advances, so its sleeps never wake the
        // wakers it shares with this instance.
        let t = Instant::now();
        let built = build(None, self.inputs, &self.wakers);
        let secs = t.elapsed().as_secs_f64();
        drop(built);
        secs
    }
}

fn wakers(sink: &Arc<WakeSink>) -> Vec<Waker> {
    (0..INFLIGHT as u32)
        .map(|key| {
            Waker::from(Arc::new(KeyWaker {
                key,
                sink: sink.clone(),
            }))
        })
        .collect()
}

fn instance<'a>(inputs: &'a Inputs, log: Option<Arc<SpanLog>>) -> Timeouts<'a> {
    let sink = Arc::new(WakeSink::default());
    let wakers = wakers(&sink);
    let built = build(log.as_ref(), inputs, &wakers);
    Timeouts::new(built, wakers, sink, inputs, log)
}

/// Runs `async-timeouts` as `args` says.
pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    if !args.trace {
        let sink = Arc::new(WakeSink::default());
        let wakers = wakers(&sink);
        let (built, setup) = setups(SETUPS, || build(None, &inputs, &wakers));
        let b = Timeouts::new(built, wakers, sink, &inputs, None);
        return untraced(b, &PLAN, args.seconds, &setup, Vec::new);
    }
    let mut out = Outcome::default();
    let base = baseline(instance(&inputs, None), &PLAN, args.seconds, &mut out);
    let log = SpanLog::new();
    let mut b = instance(&inputs, Some(log.clone()));
    warm_up(&mut b, PLAN.warm_steps);
    log.lock().clear_spans();
    b.spans = Some(Box::default());
    let service = host::find_thread(SERVICE_THREAD);
    let service0 = service.map_or(0, host::thread_cpu_ns);
    let ops = traced(&mut b, &PLAN, args.seconds, base, &mut out);
    let service_cpu = service.map_or(0, host::thread_cpu_ns) - service0;
    let c = b.spans.take().expect("traced run records client spans");
    let d = log.lock();
    wheel_spans(&mut out, &d);
    let p50 = |r: &Ring| quantile(&mut r.samples(), 0.5);
    let m = &mut out.metrics;
    m.set(
        "service.handoff_p50_ns",
        paired_median(&c.ops, &d.seq, None, 0.0),
    );
    m.set(
        "service.advance_handoff_p50_ns",
        paired_median(&c.advance, &d.tick_total, None, 0.0),
    );
    m.set("service.thread_cpu_ns_per_op", ratio(service_cpu, ops));
    m.set("driver.arm_p50_ns", p50(&c.arm));
    m.set("driver.reset_p50_ns", p50(&c.reset));
    m.set("driver.drop_p50_ns", p50(&c.drop));
    m.set("driver.repoll_p50_ns", p50(&c.repoll));
    m.set("driver.advance_p50_ns", p50(&c.advance));
    m.set("driver.wake_p50_ns", p50(&c.wake));
    for (name, r) in [
        ("driver.arm", &c.arm),
        ("driver.reset", &c.reset),
        ("driver.drop", &c.drop),
        ("driver.repoll", &c.repoll),
        ("driver.advance", &c.advance),
        ("driver.wake", &c.wake),
        ("client.ops", &c.ops),
    ] {
        out.trace_lines.push(summary_line(name, r));
    }
    out.notes.push(format!("service thread: {service:?}"));
    out
}
