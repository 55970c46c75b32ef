//! Benchmark-side tracing: spans recorded around each call into a layer,
//! from the benchmark's own code, never from inside the library.
//!
//! [`Spanned`] is a [`TimerScheme`] wrapper that times every call into its
//! inner scheme and appends the duration to a [`SpanLog`]. Nesting it around
//! and inside another wrapper gives that wrapper's self time as outer minus
//! inner (`Spanned<Observed<Spanned<wheel>, _>>`), and handing it to
//! `TimerDriver::builder` records the wheel's spans on the service thread.
//! Tick spans exclude the time spent in the caller's expiry callback, so
//! they are the layer's self time.
//!
//! Spans go into fixed-size rings allocated up front (the newest
//! [`RING`] samples of each kind survive), so tracing allocates nothing on
//! the measured path. The log also keeps the inner scheme's latest
//! [`OpCounters`], arena size and live count, which is how the client reads
//! exact counts of a wheel that lives on another thread.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::stats::ns_since;

use tw_core::wheel::{HashedWheelUnsorted, HierarchicalWheel};
use tw_core::{
    Expired, Observed, Observer, OpCounters, Tick, TickDelta, TimerError, TimerHandle, TimerScheme,
};

/// Samples kept per ring.
pub const RING: usize = 1 << 18;

/// A preallocated ring of span durations in nanoseconds.
pub struct Ring {
    buf: Vec<u32>,
    pushed: u64,
}

impl Ring {
    /// An empty ring with all its memory allocated.
    #[must_use]
    pub fn new() -> Ring {
        Ring {
            buf: vec![0; RING],
            pushed: 0,
        }
    }

    /// Records one sample, overwriting the oldest once full.
    pub fn push(&mut self, ns: u64) {
        let i = (self.pushed % RING as u64) as usize;
        self.buf[i] = u32::try_from(ns).unwrap_or(u32::MAX);
        self.pushed += 1;
    }

    /// Samples ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The retained samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<u32> {
        let n = self
            .buf
            .len()
            .min(usize::try_from(self.pushed).unwrap_or(usize::MAX));
        if self.pushed <= RING as u64 {
            return self.buf[..n].to_vec();
        }
        let head = (self.pushed % RING as u64) as usize;
        let mut out = self.buf[head..].to_vec();
        out.extend_from_slice(&self.buf[..head]);
        out
    }

    /// Drops every sample, keeping the memory.
    pub fn clear(&mut self) {
        self.pushed = 0;
    }
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

/// Which routine an op span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `START_TIMER`.
    Start = 0,
    /// UPDATE (`restart_timer`).
    Restart = 1,
    /// `STOP_TIMER`.
    Stop = 2,
}

/// Spans and snapshots recorded by one [`Spanned`] layer.
#[derive(Default)]
pub struct SpanData {
    /// Op spans by [`OpKind`].
    pub op: [Ring; 3],
    /// Every op span in call order, for pairing with another layer's.
    pub seq: Ring,
    /// Every op span in call order, from entry to after this layer's own
    /// bookkeeping: what an enclosing layer sees of this one.
    pub seq_wrapped: Ring,
    /// Tick or advance spans minus the time spent in the expiry callback.
    pub tick_self: Ring,
    /// Whole tick or advance spans.
    pub tick_total: Ring,
    /// [`tick_self`](SpanData::tick_self) plus this layer's own bookkeeping.
    pub tick_wrapped_self: Ring,
    /// Expiries delivered per tick or advance call.
    pub tick_fires: Ring,
    /// START/UPDATE/STOP calls made (successful or not).
    pub calls: u64,
    /// Tick and advance calls made.
    pub ticks: u64,
    /// The inner scheme's counters after its latest call.
    pub counters: OpCounters,
    /// The inner scheme's arena slots after its latest call.
    pub arena_slots: usize,
    /// The inner scheme's outstanding timers after its latest call.
    pub outstanding: usize,
}

impl SpanData {
    /// Drops every recorded span, keeping counts and snapshots.
    pub fn clear_spans(&mut self) {
        let rings = self.op.iter_mut().chain([
            &mut self.seq,
            &mut self.seq_wrapped,
            &mut self.tick_self,
            &mut self.tick_total,
            &mut self.tick_wrapped_self,
            &mut self.tick_fires,
        ]);
        for r in rings {
            r.clear();
        }
    }
}

/// One summary line for the trace file: count, then quantiles in ns.
#[must_use]
pub fn summary_line(name: &str, ring: &Ring) -> String {
    let mut v = ring.samples();
    let retained = v.len();
    let q = |v: &mut Vec<u32>, p: f64| crate::stats::quantile(v, p);
    format!(
        "{name}\t{}\t{retained}\t{}\t{}\t{}\t{}",
        ring.pushed(),
        q(&mut v, 0.5),
        q(&mut v, 0.9),
        q(&mut v, 0.99),
        q(&mut v, 1.0)
    )
}

/// Stores the `wheel.*` span metrics from the log of the `Spanned` wheel,
/// and its summary lines for the trace file.
pub fn wheel_spans(out: &mut crate::Outcome, d: &SpanData) {
    let q = |r: &Ring, p: f64| crate::stats::quantile(&mut r.samples(), p);
    let m = &mut out.metrics;
    m.set("wheel.start_p50_ns", q(&d.op[OpKind::Start as usize], 0.5));
    m.set(
        "wheel.restart_p50_ns",
        q(&d.op[OpKind::Restart as usize], 0.5),
    );
    m.set("wheel.stop_p50_ns", q(&d.op[OpKind::Stop as usize], 0.5));
    m.set("wheel.tick_self_p50_ns", q(&d.tick_self, 0.5));
    m.set("wheel.tick_self_p99_ns", q(&d.tick_self, 0.99));
    out.trace_lines.extend(log_lines("wheel", d));
}

/// Summary lines for every ring of `d`, each name prefixed by `layer`.
#[must_use]
pub fn log_lines(layer: &str, d: &SpanData) -> Vec<String> {
    let named = [
        ("start", &d.op[OpKind::Start as usize]),
        ("restart", &d.op[OpKind::Restart as usize]),
        ("stop", &d.op[OpKind::Stop as usize]),
        ("op_seq_wrapped", &d.seq_wrapped),
        ("tick_self", &d.tick_self),
        ("tick_total", &d.tick_total),
        ("tick_wrapped_self", &d.tick_wrapped_self),
        ("tick_fires", &d.tick_fires),
    ];
    named
        .iter()
        .map(|(n, r)| summary_line(&format!("{layer}.{n}"), r))
        .collect()
}

/// Self time of the layer between two nested [`Spanned`] logs: pairs the
/// newest samples of `outer` and `inner` (recorded one for one) and returns
/// the median of `outer - inner - clock * (1 + fires)`, where `fires` (per
/// pair, when given) counts the expiry callbacks the outer layer timed — each
/// adds about one clock read the inner span cannot see.
#[must_use]
pub fn paired_median(outer: &Ring, inner: &Ring, fires: Option<&Ring>, clock: f64) -> f64 {
    let (o, i) = (outer.samples(), inner.samples());
    let f = fires.map(Ring::samples);
    let n = o
        .len()
        .min(i.len())
        .min(f.as_ref().map_or(usize::MAX, Vec::len));
    let mut d: Vec<f64> = (0..n)
        .map(|k| {
            let fired = f.as_ref().map_or(0.0, |f| f64::from(f[f.len() - n + k]));
            let (a, b) = (o[o.len() - n + k], i[i.len() - n + k]);
            (f64::from(a) - f64::from(b) - clock * (1.0 + fired)).max(0.0)
        })
        .collect();
    d.sort_by(f64::total_cmp);
    crate::stats::median(&d)
}

/// The median cost of one clock read, the bias a nested span adds to its parent.
#[must_use]
pub fn clock_read_ns() -> f64 {
    let mut v: Vec<u32> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
        })
        .collect();
    crate::stats::quantile(&mut v, 0.5)
}

/// A shared, lock-protected [`SpanData`]: written by the thread that owns
/// the scheme, read by the client once the scheme is idle.
#[derive(Default)]
pub struct SpanLog(Mutex<SpanData>);

impl SpanLog {
    /// A log with every ring allocated.
    #[must_use]
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog::default())
    }

    /// Locks the log.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn lock(&self) -> MutexGuard<'_, SpanData> {
        self.0
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }
}

/// Schemes whose arena high-water mark the benchmark reports.
pub trait ArenaSlots {
    /// Arena slots ever allocated.
    fn arena_slots(&self) -> usize;
}

impl<T> ArenaSlots for HierarchicalWheel<T> {
    fn arena_slots(&self) -> usize {
        HierarchicalWheel::arena_slots(self)
    }
}

impl<T> ArenaSlots for HashedWheelUnsorted<T> {
    fn arena_slots(&self) -> usize {
        HashedWheelUnsorted::arena_slots(self)
    }
}

impl<S: ArenaSlots, O: Observer> ArenaSlots for Observed<S, O> {
    fn arena_slots(&self) -> usize {
        self.get().arena_slots()
    }
}

impl<S: ArenaSlots> ArenaSlots for Spanned<S> {
    fn arena_slots(&self) -> usize {
        self.inner.arena_slots()
    }
}

/// A scheme wrapper that records a span around every call into `inner`.
pub struct Spanned<S> {
    inner: S,
    log: Arc<SpanLog>,
}

impl<S> Spanned<S> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: S, log: Arc<SpanLog>) -> Spanned<S> {
        Spanned { inner, log }
    }
}

impl<S: ArenaSlots> Spanned<S> {
    fn record_op<T>(&self, kind: OpKind, entered: Instant, span: u64)
    where
        S: TimerScheme<T>,
    {
        let mut d = self.log.lock();
        d.op[kind as usize].push(span);
        d.seq.push(span);
        d.calls += 1;
        d.counters = *self.inner.counters();
        d.arena_slots = self.inner.arena_slots();
        d.outstanding = self.inner.outstanding();
        d.seq_wrapped.push(ns_since(entered));
    }

    fn timed_tick<T>(
        &mut self,
        expired: &mut dyn FnMut(Expired<T>),
        run: impl FnOnce(&mut S, &mut dyn FnMut(Expired<T>)),
    ) where
        S: TimerScheme<T>,
    {
        let mut callback_ns = 0u64;
        let mut fires = 0u64;
        let entered = Instant::now();
        run(&mut self.inner, &mut |e| {
            let c = Instant::now();
            expired(e);
            callback_ns += ns_since(c);
            fires += 1;
        });
        let total = ns_since(entered);
        let mut d = self.log.lock();
        d.tick_self.push(total.saturating_sub(callback_ns));
        d.tick_total.push(total);
        d.tick_fires.push(fires);
        d.ticks += 1;
        d.counters = *self.inner.counters();
        d.arena_slots = self.inner.arena_slots();
        d.outstanding = self.inner.outstanding();
        d.tick_wrapped_self
            .push(ns_since(entered).saturating_sub(callback_ns));
    }
}

impl<T, S: TimerScheme<T> + ArenaSlots> TimerScheme<T> for Spanned<S> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        let entered = Instant::now();
        let r = self.inner.start_timer(interval, payload);
        self.record_op::<T>(OpKind::Start, entered, ns_since(entered));
        r
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let entered = Instant::now();
        let r = self.inner.stop_timer(handle);
        self.record_op::<T>(OpKind::Stop, entered, ns_since(entered));
        r
    }

    fn restart_timer(
        &mut self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let entered = Instant::now();
        let r = self.inner.restart_timer(handle, interval);
        self.record_op::<T>(OpKind::Restart, entered, ns_since(entered));
        r
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.timed_tick(expired, |s, cb| s.tick(cb));
    }

    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        self.timed_tick(expired, |s, cb| s.advance_to_with(deadline, cb));
    }

    fn set_arena_capacity(&mut self, limit: usize) -> bool {
        self.inner.set_arena_capacity(limit)
    }

    fn now(&self) -> Tick {
        self.inner.now()
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn counters(&self) -> &OpCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
