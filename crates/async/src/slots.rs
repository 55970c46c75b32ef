//! Arena-resident waker slots and the driver core that owns them.
//!
//! Every pending sleep owns one generational slot in a [`TimerArena`] —
//! the slab the wheels store their timer records in — holding the task
//! waker to invoke when its timer fires. The slot's [`TimerHandle`] packs
//! losslessly into the [`RequestId`] the scheme carries as the paper's
//! `Request_ID`, so an expiry routes straight to its waker with one
//! generation check and zero allocation. That check arbitrates fire, drop
//! and reset: whichever frees the slot first wins, and the others observe
//! `Stale` instead of touching a recycled slot. Steady-state churn
//! recycles the free list, so the [`slot_count`](WakerTable::slot_count)
//! plateau is the crate's allocation-freedom proof, same as the wheels'.
//!
//! [`DriverCore`] is everything the [`TimerDriver`](crate::TimerDriver)
//! keeps behind its one lock. It is generic over the waker
//! ([`TaskWaker`]) so the loom model suite can drive the exact shipped
//! core with integer tokens in place of task wakers.

use std::sync::Arc;
use std::task::Waker;

use tw_core::arena::TimerArena;
use tw_core::{
    Observed, Observer, RequestId, Tick, TickDelta, TimerError, TimerHandle, TimerScheme,
};

/// Low 32 bits of a packed [`RequestId`].
const LOW32: u64 = 0xFFFF_FFFF;

/// Packs a slot handle into the scheme-facing `Request_ID`: generation in
/// the high half, slab index in the low half.
#[must_use]
pub fn slot_to_request(slot: TimerHandle) -> RequestId {
    let (index, generation) = slot.into_raw();
    RequestId((u64::from(generation) << 32) | u64::from(index))
}

/// Recovers the slot handle from a packed `Request_ID`.
///
/// A forged id is harmless: the handle is validated against the arena's
/// generation counter and resolves to `Stale` rather than a live slot.
#[must_use]
pub fn request_to_slot(id: RequestId) -> TimerHandle {
    // Both halves are masked/shifted into 32-bit range, so the try_from
    // never fails; the fallback maps to the arena's NIL index, which can
    // never resolve.
    let index = u32::try_from(id.0 & LOW32).unwrap_or(u32::MAX);
    let generation = u32::try_from(id.0 >> 32).unwrap_or(u32::MAX);
    TimerHandle::from_raw(index, generation)
}

/// What the core needs of a task waker: a clone to store, and a test for
/// whether two wakers wake the same task, so a re-poll or a re-park can
/// skip that clone.
pub trait TaskWaker: Clone {
    /// Whether waking `self` would wake the same task as waking `other`.
    fn will_wake(&self, other: &Self) -> bool;
}

impl TaskWaker for Waker {
    fn will_wake(&self, other: &Self) -> bool {
        Waker::will_wake(self, other)
    }
}

/// Outcome of re-registering a waker on a sleep's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// The slot is live and now stores the caller's waker; the driver will
    /// invoke it on fire.
    Registered,
    /// The slot was already freed — the timer fired (or the slot was
    /// cancelled), so the future should complete instead of parking.
    Stale,
}

/// The waker table: one generational arena slot per pending sleep.
///
/// Each slot stores the waker plus the armed interval, which the driver
/// uses to reconstruct the arm→wake latency at fire time without a second
/// clock read. The table takes no lock of its own; it lives inside
/// [`DriverCore`], behind the driver's.
pub struct WakerTable<W> {
    arena: TimerArena<W>,
}

impl<W: TaskWaker> WakerTable<W> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> WakerTable<W> {
        WakerTable {
            arena: TimerArena::new(),
        }
    }

    /// Caps the number of live slots; at the cap, [`alloc`](Self::alloc)
    /// reports [`TimerError::Exhausted`] and the driver parks the sleep
    /// until a fire or cancel frees capacity.
    pub fn set_capacity(&mut self, limit: usize) {
        self.arena.set_capacity_limit(limit);
    }

    /// Allocates a slot for a sleep armed with `interval`, storing `waker`
    /// so the fire that follows always finds one.
    ///
    /// # Errors
    ///
    /// [`TimerError::Exhausted`] at the capacity limit — the recoverable
    /// backpressure signal, not a failure.
    pub fn alloc(&mut self, interval: TickDelta, waker: W) -> Result<TimerHandle, TimerError> {
        let (idx, handle) = self.arena.alloc(waker, Tick::ZERO)?;
        self.arena.node_mut(idx).aux = interval.as_u64();
        Ok(handle)
    }

    /// The poll-time fast path: re-registers the current task's waker in a
    /// live slot, cloning only when the stored waker would not wake this
    /// task (`will_wake`). On the steady re-poll of an armed sleep this is
    /// one generation check and no refcount traffic.
    pub fn register_waker(&mut self, slot: TimerHandle, waker: &W) -> RegisterOutcome {
        match self.arena.resolve(slot) {
            Ok(idx) => {
                let stored = &mut self.arena.node_mut(idx).payload;
                if !stored.will_wake(waker) {
                    *stored = waker.clone();
                }
                RegisterOutcome::Registered
            }
            Err(_) => RegisterOutcome::Stale,
        }
    }

    /// Frees a fired slot, returning the stored waker (to invoke after the
    /// lock is released) and the armed interval. `None` means the slot was
    /// already freed, and nothing must be woken.
    pub fn take_for_fire(&mut self, slot: TimerHandle) -> Option<(W, TickDelta)> {
        let idx = self.arena.resolve(slot).ok()?;
        let interval = TickDelta(self.arena.node(idx).aux);
        Some((self.arena.free(idx), interval))
    }

    /// Frees a slot without waking (the drop path). Returns whether the
    /// slot was still live, i.e. whether capacity was freed.
    pub fn cancel(&mut self, slot: TimerHandle) -> bool {
        let idx = self.arena.resolve(slot);
        if let Ok(idx) = idx {
            self.arena.free(idx);
        }
        idx.is_ok()
    }

    /// Updates the armed interval recorded in a live slot (the reset
    /// path, after a successful `restart_timer`).
    pub fn set_interval(&mut self, slot: TimerHandle, interval: TickDelta) {
        if let Ok(idx) = self.arena.resolve(slot) {
            self.arena.node_mut(idx).aux = interval.as_u64();
        }
    }

    /// Live (pending-sleep) slots.
    #[must_use]
    pub fn live(&self) -> usize {
        self.arena.len()
    }

    /// Slab slots ever allocated — the memory high-water mark. Steady-state
    /// churn must plateau here (see
    /// [`TimerArena::slot_count`](tw_core::arena::TimerArena::slot_count)).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.arena.slot_count()
    }
}

impl<W: TaskWaker> Default for WakerTable<W> {
    fn default() -> Self {
        WakerTable::new()
    }
}

/// Result of arming a sleep's timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmOutcome {
    /// Timer started; the sleep holds both handles until fire/drop/reset.
    Armed {
        /// Waker-table slot (packed into the scheme `Request_ID`).
        slot: TimerHandle,
        /// Scheme-side timer handle, for `restart_timer`/`stop_timer`.
        timer: TimerHandle,
    },
    /// Capacity exhausted; the waker is parked and the sleep stays
    /// pending — it re-arms on the wake that follows a capacity release.
    Parked,
}

/// The state behind the driver's lock: the scheme (wrapped in [`Observed`]
/// when an observer is installed), the waker table, the parked wakers, and
/// a reused buffer of wakers due once the lock is released.
///
/// No method invokes a waker. [`advance`](Self::advance) and
/// [`release`](Self::release) queue due ones; the caller takes them with
/// [`take_due`](Self::take_due), releases the lock, wakes them, and hands
/// the buffer back through [`recycle_due`](Self::recycle_due).
pub struct DriverCore<W> {
    scheme: Box<dyn TimerScheme<RequestId> + Send>,
    table: WakerTable<W>,
    /// Wakers of sleeps that hit `Exhausted` while arming, one per task;
    /// made due (to re-poll and retry) whenever capacity is released.
    parked: Vec<W>,
    due: Vec<W>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
}

impl<W: TaskWaker> DriverCore<W> {
    /// Takes ownership of `scheme` and caps both arenas at
    /// `arena_capacity` live entries.
    pub fn new<S>(
        scheme: S,
        observer: Option<Arc<dyn Observer + Send + Sync>>,
        arena_capacity: Option<usize>,
    ) -> DriverCore<W>
    where
        S: TimerScheme<RequestId> + Send + 'static,
    {
        let mut scheme: Box<dyn TimerScheme<RequestId> + Send> = match &observer {
            Some(o) => Box::new(Observed::new(scheme, Arc::clone(o))),
            None => Box::new(scheme),
        };
        let mut table = WakerTable::new();
        if let Some(limit) = arena_capacity {
            let _ = scheme.set_arena_capacity(limit);
            table.set_capacity(limit);
        }
        DriverCore {
            scheme,
            table,
            parked: Vec::new(),
            due: Vec::new(),
            observer,
        }
    }

    /// Arms a sleep: store the waker in a fresh slot *first*, then
    /// `START_TIMER` with the packed slot as the `Request_ID`. At either
    /// arena's cap the waker is parked instead.
    ///
    /// # Panics
    ///
    /// Panics if the scheme rejects the interval for a reason other than
    /// capacity (out of range, deadline overflow): a configuration error
    /// that surfaces at the call site rather than parking forever.
    pub fn arm(&mut self, interval: TickDelta, waker: &W) -> ArmOutcome {
        let Ok(slot) = self.table.alloc(interval, waker.clone()) else {
            self.park_waker(waker);
            return ArmOutcome::Parked;
        };
        match self.scheme.start_timer(interval, slot_to_request(slot)) {
            Ok(timer) => ArmOutcome::Armed { slot, timer },
            Err(TimerError::Exhausted) => {
                self.table.cancel(slot);
                self.park_waker(waker);
                ArmOutcome::Parked
            }
            Err(err) => {
                self.table.cancel(slot);
                panic!("timer driver could not arm sleep: {err}");
            }
        }
    }

    /// Re-poll of an armed sleep; see [`WakerTable::register_waker`].
    pub fn register_waker(&mut self, slot: TimerHandle, waker: &W) -> RegisterOutcome {
        self.table.register_waker(slot, waker)
    }

    /// `UPDATE`: one `restart_timer` relink (never stop+start), then
    /// refresh the slot's recorded interval.
    ///
    /// # Errors
    ///
    /// Whatever the scheme's `restart_timer` returns; [`TimerError::Stale`]
    /// when the timer already fired.
    pub fn restart(
        &mut self,
        timer: TimerHandle,
        slot: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        self.scheme.restart_timer(timer, interval)?;
        self.table.set_interval(slot, interval);
        Ok(())
    }

    /// `STOP_TIMER` plus slot free, for a dropped sleep (or a reset of one
    /// that already fired). Returns whether this call freed the slot; if
    /// it did, the parked wakers become due.
    pub fn release(&mut self, timer: TimerHandle, slot: TimerHandle) -> bool {
        // Stale when the timer already fired; the slot check below is the
        // arbiter either way.
        let _ = self.scheme.stop_timer(timer);
        let freed = self.table.cancel(slot);
        if freed {
            self.unpark_all();
        }
        freed
    }

    /// `PER_TICK_BOOKKEEPING` over `ticks` ticks: fires due timers, frees
    /// their slots and queues their wakers (plus the parked ones, since
    /// fires free capacity). Returns the number of timers the wheel fired.
    pub fn advance(&mut self, ticks: u64) -> u64 {
        let deadline = Tick(self.scheme.now().as_u64().saturating_add(ticks));
        let mut fired = 0u64;
        let DriverCore {
            scheme,
            table,
            due,
            observer,
            ..
        } = self;
        scheme.advance_to_with(deadline, &mut |e| {
            fired += 1;
            let Some((waker, interval)) = table.take_for_fire(request_to_slot(e.payload)) else {
                return;
            };
            if let Some(obs) = observer {
                // Arm tick reconstructed from the slot's recorded interval;
                // saturating because reduced-precision schemes may round the
                // deadline below `armed + interval`.
                let armed = e.deadline.as_u64().saturating_sub(interval.as_u64());
                obs.on_wake_latency(TickDelta(e.fired_at.as_u64().saturating_sub(armed)));
            }
            due.push(waker);
        });
        if fired > 0 {
            self.unpark_all();
        }
        fired
    }

    /// Takes the wakers due since the last call, to invoke once the lock
    /// is released; `None` when there are none.
    pub fn take_due(&mut self) -> Option<Vec<W>> {
        (!self.due.is_empty()).then(|| std::mem::take(&mut self.due))
    }

    /// Hands back a drained [`take_due`](Self::take_due) buffer so the next
    /// wake storm reuses its capacity.
    pub fn recycle_due(&mut self, buffer: Vec<W>) {
        if self.due.is_empty() && buffer.capacity() > self.due.capacity() {
            self.due = buffer;
        }
    }

    /// Outstanding timers in the scheme.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.scheme.outstanding()
    }

    /// The waker table.
    #[must_use]
    pub fn table(&self) -> &WakerTable<W> {
        &self.table
    }

    /// Parks `waker` until capacity is released. A task re-polling an
    /// exhausted sleep parks once, however often it polls.
    fn park_waker(&mut self, waker: &W) {
        if !self.parked.iter().any(|p| p.will_wake(waker)) {
            self.parked.push(waker.clone());
        }
    }

    fn unpark_all(&mut self) {
        self.due.append(&mut self.parked);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    impl TaskWaker for u32 {
        fn will_wake(&self, other: &Self) -> bool {
            self == other
        }
    }

    #[test]
    fn pack_roundtrip_and_forged_ids_stay_stale() {
        let slot = TimerHandle::from_raw(1234, 77);
        assert_eq!(request_to_slot(slot_to_request(slot)), slot);
        let mut table: WakerTable<u32> = WakerTable::new();
        let h = table.alloc(TickDelta(5), 9).unwrap();
        // A forged id with the wrong generation must not reach the slot.
        let (index, generation) = h.into_raw();
        let forged = TimerHandle::from_raw(index, generation.wrapping_add(1));
        assert_eq!(table.register_waker(forged, &0), RegisterOutcome::Stale);
        assert_eq!(table.take_for_fire(forged), None);
    }

    #[test]
    fn fire_cancel_and_reregister_protocol() {
        let mut table: WakerTable<u32> = WakerTable::new();
        let a = table.alloc(TickDelta(3), 1).unwrap();
        let b = table.alloc(TickDelta(9), 2).unwrap();
        assert_eq!(table.live(), 2);
        // Re-register replaces in place.
        assert_eq!(table.register_waker(a, &10), RegisterOutcome::Registered);
        // Fire takes the newest waker and the armed interval, then the
        // slot is stale for everyone else.
        assert_eq!(table.take_for_fire(a), Some((10, TickDelta(3))));
        assert_eq!(table.take_for_fire(a), None);
        assert!(!table.cancel(a));
        assert_eq!(table.register_waker(a, &11), RegisterOutcome::Stale);
        // Cancel frees without delivering.
        assert!(table.cancel(b));
        assert_eq!(table.take_for_fire(b), None);
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn capacity_exhaustion_recovers_after_free() {
        let mut table: WakerTable<u32> = WakerTable::new();
        table.set_capacity(2);
        let a = table.alloc(TickDelta(1), 1).unwrap();
        let _b = table.alloc(TickDelta(1), 2).unwrap();
        assert_eq!(
            table.alloc(TickDelta(1), 3).unwrap_err(),
            TimerError::Exhausted
        );
        assert!(table.cancel(a));
        let c = table.alloc(TickDelta(1), 3).unwrap();
        assert_eq!(table.take_for_fire(c), Some((3, TickDelta(1))));
    }

    #[test]
    fn slot_count_plateaus_under_churn() {
        let mut table: WakerTable<u32> = WakerTable::new();
        for round in 0..100u32 {
            let h = table.alloc(TickDelta(1), round).unwrap();
            assert_eq!(table.take_for_fire(h), Some((round, TickDelta(1))));
        }
        assert_eq!(table.slot_count(), 1, "free-list recycling, no growth");
    }
}
