//! The timer driver: any [`TimerScheme`] plus the waker table behind one
//! lock ([`DriverCore`]), turning expiries into task wakeups.
//!
//! Each future event is one short critical section on the scheme: arm is
//! `start_timer`, reset is `restart_timer`, drop is `stop_timer` plus a
//! slot free, and [`TimerDriver::advance`] is `advance_to_with`, which
//! routes each expiry's `Request_ID` (the packed waker slot) to its waker
//! with one generation-checked lookup. Wakers are invoked only after the
//! lock is released. With an observer installed, the scheme raises the
//! wheel hooks through [`Observed`](tw_core::Observed) and the driver adds
//! [`Observer::on_wake_latency`], the arm→wake elapsed ticks per fire.
//!
//! Two clocking modes:
//!
//! * **Virtual time** (default) — the caller calls [`TimerDriver::advance`],
//!   which delivers the whole coalesced wake storm before returning. No
//!   thread is spawned.
//! * **Realtime** ([`TimerDriverBuilder::realtime`]) — one ticker thread
//!   calls the same `advance(1)` once per wall-clock period; it is joined
//!   when the last driver handle is dropped.
//!
//! # Backpressure
//!
//! When either arena is at its [`arena_capacity`](TimerDriverBuilder::arena_capacity)
//! cap, arming reports [`TimerError::Exhausted`] internally. The driver
//! turns that into *recoverable pending*: the task's waker is parked once,
//! however often it re-polls, and every capacity release — a fire or a
//! drop — wakes the parked tasks to retry. Parking and releasing share the
//! one lock, so no release slips between a failed arm and its park. No
//! task ever observes the error.

use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::Duration;

use tw_concurrent::sync::{Mutex, MutexGuard};
use tw_core::{Observer, RequestId, TickDelta, TimerError, TimerHandle, TimerScheme};

use crate::interval::Interval;
use crate::sleep::Sleep;
use crate::slots::{ArmOutcome, DriverCore, RegisterOutcome};
use crate::timeout::Timeout;

/// State shared between driver handles, polling tasks, and the realtime
/// ticker thread.
struct Shared {
    core: Mutex<DriverCore<Waker>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn advance(&self, ticks: u64) -> u64 {
        let (fired, due) = {
            let mut core = self.core.lock();
            (core.advance(ticks), core.take_due())
        };
        self.wake(due);
        fired
    }

    /// Invokes the wakers a core operation queued — called after the lock
    /// is released — and hands the emptied buffer back for the next storm.
    fn wake(&self, due: Option<Vec<Waker>>) {
        let Some(mut due) = due else {
            return;
        };
        for waker in &due {
            waker.wake_by_ref();
        }
        due.clear();
        self.core.lock().recycle_due(due);
    }
}

/// Owns the shared state and the ticker thread; dropped when the last
/// driver handle goes away.
struct Inner {
    shared: Arc<Shared>,
    ticker: Option<JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(ticker) = self.ticker.take() {
            self.shared.shutdown.store(true, Ordering::Release);
            ticker.thread().unpark();
            let _ = ticker.join();
        }
    }
}

/// Builder for a [`TimerDriver`]; the async layer's single construction
/// entry point.
///
/// ```
/// use tw_async::TimerDriver;
/// use tw_core::wheel::HashedWheelUnsorted;
/// use tw_core::RequestId;
///
/// let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256))
///     .arena_capacity(1 << 20)
///     .build();
/// let sleep = driver.sleep(tw_core::TickDelta(10));
/// # drop(sleep);
/// ```
pub struct TimerDriverBuilder<S> {
    scheme: S,
    period: Option<Duration>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
    arena_capacity: Option<usize>,
}

impl<S> TimerDriverBuilder<S>
where
    S: TimerScheme<RequestId> + Send + 'static,
{
    /// Ticks the wheel once per wall-clock `period` from a driver-owned
    /// ticker thread. Without this, the driver runs in virtual time,
    /// spawns no thread, and [`TimerDriver::advance`] is the clock.
    #[must_use]
    pub fn realtime(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Installs `observer`: the scheme is wrapped in
    /// [`Observed`](tw_core::Observed) to raise the wheel hooks, and the
    /// driver raises [`Observer::on_wake_latency`] per delivered wake.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn Observer + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Caps both arenas — the scheme's timer records and the waker table —
    /// at `limit` live entries. Past the cap, arming parks instead of
    /// erroring (see the module docs on backpressure).
    #[must_use]
    pub fn arena_capacity(mut self, limit: usize) -> Self {
        self.arena_capacity = Some(limit);
        self
    }

    /// Builds the driver (spawning the ticker, in realtime mode) and
    /// returns the cloneable handle.
    #[must_use]
    pub fn build(self) -> TimerDriver {
        let shared = Arc::new(Shared {
            core: Mutex::new(DriverCore::new(
                self.scheme,
                self.observer,
                self.arena_capacity,
            )),
            shutdown: AtomicBool::new(false),
        });
        // The realtime ticker sleeps its period rather than reading a clock,
        // so a late or spurious wakeup shifts the schedule, never skips ticks.
        let ticker = self.period.map(|period| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                std::thread::park_timeout(period);
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.advance(1);
            })
        });
        TimerDriver {
            inner: Arc::new(Inner { shared, ticker }),
        }
    }
}

/// Cloneable handle to the async timer driver. All sleeps created from
/// clones share one scheme and one waker table.
#[derive(Clone)]
pub struct TimerDriver {
    inner: Arc<Inner>,
}

impl TimerDriver {
    /// Starts building a driver over `scheme`. See [`TimerDriverBuilder`].
    pub fn builder<S>(scheme: S) -> TimerDriverBuilder<S>
    where
        S: TimerScheme<RequestId> + Send + 'static,
    {
        TimerDriverBuilder {
            scheme,
            period: None,
            observer: None,
            arena_capacity: None,
        }
    }

    /// Virtual-time driver with default knobs; shorthand for
    /// `TimerDriver::builder(scheme).build()`.
    #[must_use]
    pub fn new<S>(scheme: S) -> TimerDriver
    where
        S: TimerScheme<RequestId> + Send + 'static,
    {
        TimerDriver::builder(scheme).build()
    }

    /// A future that completes after `interval` ticks (`START_TIMER` on
    /// first poll, `STOP_TIMER` on drop, `UPDATE` on
    /// [`reset`](Sleep::reset)).
    #[must_use]
    pub fn sleep(&self, interval: TickDelta) -> Sleep {
        Sleep::new(self.clone(), interval)
    }

    /// Races `future` against an `interval`-tick deadline.
    #[must_use]
    pub fn timeout<F: Future>(&self, interval: TickDelta, future: F) -> Timeout<F> {
        Timeout::new(self.sleep(interval), future)
    }

    /// A stream of ticks every `period` ticks; each completed tick re-arms
    /// via `UPDATE` on the same waker slot.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero — an interval must make forward progress.
    #[must_use]
    pub fn interval(&self, period: TickDelta) -> Interval {
        assert!(!period.is_zero(), "interval period must be non-zero");
        Interval::new(self.sleep(period), period)
    }

    /// Advances time by `ticks`, fires due timers, and delivers the entire
    /// coalesced wake storm before returning. Returns the number of timers
    /// the wheel fired.
    ///
    /// In realtime mode the ticker calls this once per period; a caller's
    /// extra advance moves the same clock.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.inner.shared.advance(ticks)
    }

    /// Outstanding timers in the wheel (armed sleeps, from the scheme's
    /// point of view).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        let core = self.core();
        core.outstanding()
    }

    /// Live waker slots — pending sleeps currently armed.
    #[must_use]
    pub fn pending_sleeps(&self) -> usize {
        let core = self.core();
        core.table().live()
    }

    /// Waker-table slots ever allocated (the memory high-water mark);
    /// plateaus under steady-state churn.
    #[must_use]
    pub fn waker_slots(&self) -> usize {
        let core = self.core();
        core.table().slot_count()
    }

    /// Locks the driver core. Callers bind the guard as `core` and keep
    /// the critical section to the one call on it.
    fn core(&self) -> MutexGuard<'_, DriverCore<Waker>> {
        self.inner.shared.core.lock()
    }

    /// Arms a sleep; see [`DriverCore::arm`].
    pub(crate) fn arm(&self, interval: TickDelta, waker: &Waker) -> ArmOutcome {
        let mut core = self.core();
        core.arm(interval, waker)
    }

    /// Poll-time waker re-registration on an armed sleep's slot.
    pub(crate) fn register(&self, slot: TimerHandle, waker: &Waker) -> RegisterOutcome {
        let mut core = self.core();
        core.register_waker(slot, waker)
    }

    /// `UPDATE` path for [`Sleep::reset`]: one `restart_timer` (never
    /// stop+start).
    pub(crate) fn restart(
        &self,
        timer: TimerHandle,
        slot: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let mut core = self.core();
        core.restart(timer, slot, interval)
    }

    /// Cancellation path (drop, or reset of an already-fired sleep): stop
    /// the wheel timer, free the waker slot, and wake any exhaustion-parked
    /// sleeps the released capacity lets retry.
    pub(crate) fn release(&self, timer: TimerHandle, slot: TimerHandle) {
        let due = {
            let mut core = self.core();
            core.release(timer, slot);
            core.take_due()
        };
        self.inner.shared.wake(due);
    }
}
