//! `rto-churn`: retransmission timers on a 256³ hierarchical wheel, driven
//! directly with no observer.
//!
//! Each of [`CONNS`] connections holds one live retransmission timer with an
//! RTO-band interval. Ack progress re-arms it (UPDATE), which is most of the
//! traffic; a few percent of ops close the connection and open a new one
//! (STOP then START); a timer that expires (about 1–2% of ops) is re-armed
//! right after the tick returns. One tick follows every [`OPS_PER_TICK`] ops.
//! This is the paper's motivating case: most timers are stopped or re-armed
//! before they expire, so START/UPDATE/STOP and the arena do the work.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tw_core::wheel::{HierarchicalWheel, LevelSizes};
use tw_core::{TickDelta, TimerHandle, TimerScheme};
use tw_workload::IntervalDist;

use crate::spans::{wheel_spans, ArenaSlots, SpanLog, Spanned};
use crate::stats::Meter;
use crate::verify::Shadow;
use crate::{
    baseline, setups, ticks_u32, traced, untraced, warm_up, Args, Bench, Outcome, Plan, Snap,
};

/// Live connections, one retransmission timer each.
pub const CONNS: usize = 1 << 16;
/// Ops between ticks.
pub const OPS_PER_TICK: usize = 400;
/// Probability that an op closes its connection and opens a new one.
const P_CLOSE: f64 = 0.03;
/// Shortest and longest RTO, in ticks.
const RTO_LO: u64 = 200;
const RTO_HI: u64 = 3000;
/// Pre-generated re-arm intervals (cycled).
const REARMS: usize = 1 << 16;
/// Builds timed before the run; more are timed between rounds.
const SETUPS: usize = 21;
/// Warm-up past the longest RTO; one op in 8 timed, every fire. A build
/// takes a few ms: too short to time steadily in one burst, so one more is
/// timed after every round.
const PLAN: Plan = Plan {
    warm_steps: 4096,
    window_steps: 8192,
    op_stride: 8,
    fire_stride: 1,
    setup_every: 1,
};

/// The seeded inputs: initial intervals and re-arm intervals, plus the
/// seed of the op stream, which is drawn during the run (three draws of a
/// register-resident generator per op) rather than read from memory, so the
/// client's own footprint stays small beside the wheel's.
pub struct Inputs {
    initial: Vec<u32>,
    rearm: Vec<u32>,
    stream_seed: u64,
}

/// Generates the inputs for `seed`.
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rto = IntervalDist::Uniform {
        lo: RTO_LO,
        hi: RTO_HI,
    };
    let initial = (0..CONNS)
        .map(|_| ticks_u32(rto.sample(&mut rng)))
        .collect();
    let rearm = (0..REARMS)
        .map(|_| ticks_u32(rto.sample(&mut rng)))
        .collect();
    Inputs {
        initial,
        rearm,
        stream_seed: rng.gen_range(0..u64::MAX),
    }
}

/// A built wheel with its population armed, plus the client's state.
pub struct Rto<'a, S> {
    wheel: S,
    handles: Vec<TimerHandle>,
    shadow: Shadow,
    inputs: &'a Inputs,
    stream: SmallRng,
    rto: IntervalDist,
    rearm_cursor: usize,
    op_index: u64,
    fired: Vec<(u32, u64, u64)>,
    steps: u64,
    attempted: u64,
    failed: u64,
}

/// Set-up proper: build the wheel and arm every connection.
fn build<S: TimerScheme<u32>>(make: &impl Fn() -> S, inputs: &Inputs) -> (S, Vec<TimerHandle>) {
    let mut wheel = make();
    let handles = inputs
        .initial
        .iter()
        .enumerate()
        .map(|(conn, &iv)| {
            wheel
                .start_timer(TickDelta(u64::from(iv)), conn as u32)
                .expect("initial RTO within the wheel's range")
        })
        .collect();
    (wheel, handles)
}

impl<'a, S: TimerScheme<u32> + ArenaSlots> Rto<'a, S> {
    fn new((wheel, handles): (S, Vec<TimerHandle>), inputs: &'a Inputs) -> Rto<'a, S> {
        let mut shadow = Shadow::new(CONNS, RTO_HI + 1);
        for (conn, &iv) in inputs.initial.iter().enumerate() {
            shadow.arm(conn as u32, u64::from(iv));
        }
        Rto {
            wheel,
            handles,
            shadow,
            inputs,
            stream: SmallRng::seed_from_u64(inputs.stream_seed),
            rto: IntervalDist::Uniform {
                lo: RTO_LO,
                hi: RTO_HI,
            },
            rearm_cursor: 0,
            op_index: 0,
            fired: Vec::with_capacity(CONNS),
            steps: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn start(&mut self, m: &mut Meter, conn: u32, interval: u32) {
        let timed = m.times_op(self.op_index).then(Instant::now);
        self.op_index += 1;
        let r = self.wheel.start_timer(TickDelta(u64::from(interval)), conn);
        if let Some(t) = timed {
            m.ops.since(t);
        }
        self.attempted += 1;
        match r {
            Ok(h) => {
                self.handles[conn as usize] = h;
                self.shadow
                    .arm(conn, self.wheel.now().as_u64() + u64::from(interval));
            }
            Err(_) => self.failed += 1,
        }
    }
}

impl<S: TimerScheme<u32> + ArenaSlots> Bench for Rto<'_, S> {
    fn step(&mut self, m: &mut Meter) {
        let attempted = self.attempted;
        for _ in 0..OPS_PER_TICK {
            let conn = self.stream.gen_range(0..CONNS as u32);
            let interval = ticks_u32(self.rto.sample(&mut self.stream));
            let h = self.handles[conn as usize];
            if self.stream.gen_bool(P_CLOSE) {
                let timed = m.times_op(self.op_index).then(Instant::now);
                self.op_index += 1;
                let r = self.wheel.stop_timer(h);
                if let Some(t) = timed {
                    m.ops.since(t);
                }
                self.attempted += 1;
                match r {
                    Ok(payload) if payload == conn => self.shadow.disarm(conn),
                    Ok(_) => self.shadow.protocol(conn, "stop returned another payload"),
                    Err(_) => self.failed += 1,
                }
                self.start(m, conn, interval);
            } else {
                let timed = m.times_op(self.op_index).then(Instant::now);
                self.op_index += 1;
                let r = self.wheel.restart_timer(h, TickDelta(u64::from(interval)));
                if let Some(t) = timed {
                    m.ops.since(t);
                }
                self.attempted += 1;
                match r {
                    Ok(()) => self
                        .shadow
                        .rearm(conn, self.wheel.now().as_u64() + u64::from(interval)),
                    Err(_) => self.failed += 1,
                }
            }
        }
        let fired = &mut self.fired;
        let entered = Instant::now();
        self.wheel.tick(&mut |e| {
            if m.times_fire() {
                m.fires.since(entered);
            }
            fired.push((e.payload, e.deadline.as_u64(), e.fired_at.as_u64()));
        });
        m.ticks.since(entered);
        self.steps += 1;
        for &(conn, deadline, at) in &self.fired {
            self.shadow.fire_exact(conn, deadline, at);
        }
        self.shadow.settle(self.wheel.now().as_u64());
        let fired = std::mem::take(&mut self.fired);
        for &(conn, _, _) in &fired {
            let iv = self.inputs.rearm[self.rearm_cursor];
            self.rearm_cursor = (self.rearm_cursor + 1) & (REARMS - 1);
            self.start(m, conn, iv);
        }
        self.fired = fired;
        self.fired.clear();
        m.add_ops(self.attempted - attempted);
    }

    fn snap(&self) -> Snap {
        Snap {
            ops: self.attempted,
            steps: self.steps,
            counters: *self.wheel.counters(),
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

    fn setup_sample(&mut self) -> f64 {
        let t = Instant::now();
        let built = build(&wheel, self.inputs);
        let secs = t.elapsed().as_secs_f64();
        drop(built);
        secs
    }
}

fn wheel() -> HierarchicalWheel<u32> {
    HierarchicalWheel::new(LevelSizes(vec![256, 256, 256]))
}

/// Runs `rto-churn` as `args` says.
pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    if !args.trace {
        let (built, setup) = setups(SETUPS, || build(&wheel, &inputs));
        return untraced(
            Rto::new(built, &inputs),
            &PLAN,
            args.seconds,
            &setup,
            Vec::new,
        );
    }
    let mut out = Outcome::default();
    let base = baseline(
        Rto::new(build(&wheel, &inputs), &inputs),
        &PLAN,
        args.seconds,
        &mut out,
    );
    let log = SpanLog::new();
    let make = || Spanned::new(wheel(), log.clone());
    let mut b = Rto::new(build(&make, &inputs), &inputs);
    warm_up(&mut b, PLAN.warm_steps);
    log.lock().clear_spans();
    traced(&mut b, &PLAN, args.seconds, base, &mut out);
    wheel_spans(&mut out, &log.lock());
    out
}
