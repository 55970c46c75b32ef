//! Model 9 of the workspace's loom suite (models 1–8 live in
//! tw-concurrent): exhaustive checking of the driver core's one lock.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p tw-async --release --test loom
//! ```
//!
//! The models drive the *exact shipped* [`DriverCore`] — the same methods
//! `Sleep` and `TimerDriver` call — over a small hashed wheel, behind the
//! tw-concurrent `Mutex` the driver locks, with integer tokens standing in
//! for task wakers. Each model follows the driver's protocol: one core call
//! per critical section, and due wakers invoked only after the lock is
//! released. Across **every** interleaving they assert:
//!
//! 9a. re-poll racing advance: the task is woken exactly once, with a
//!     waker it actually registered — never a lost wakeup, never a double
//!     wake;
//! 9b. drop racing advance: exactly one side frees the slot, and a dropped
//!     sleep is never woken;
//! 9c. reset racing advance: the reset either moves the deadline (and the
//!     old deadline never fires) or observes `Stale` after the fire;
//! 9d. two concurrent arms: distinct slots and distinct `Request_ID`s.

#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use tw_async::slots::{slot_to_request, ArmOutcome, DriverCore, RegisterOutcome, TaskWaker};
use tw_concurrent::sync::{Arc, Mutex};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{TickDelta, TimerError, TimerHandle};

/// An integer stand-in for a task waker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token(usize);

impl TaskWaker for Token {
    fn will_wake(&self, other: &Self) -> bool {
        self == other
    }
}

type Core = Arc<Mutex<DriverCore<Token>>>;

fn core() -> Core {
    Arc::new(Mutex::new(DriverCore::new(
        HashedWheelUnsorted::new(8),
        None,
        None,
    )))
}

fn arm(core: &Core, interval: u64, waker: Token) -> (TimerHandle, TimerHandle) {
    match core.lock().arm(TickDelta(interval), &waker) {
        ArmOutcome::Armed { slot, timer } => (slot, timer),
        ArmOutcome::Parked => panic!("uncapped core never parks"),
    }
}

/// `TimerDriver::advance`: fire under the lock, then wake the due tokens
/// after releasing it, counting each wake per token. Returns the count of
/// fired timers.
fn advance(core: &Core, ticks: u64, wakes: &[AtomicUsize]) -> u64 {
    let (fired, due) = {
        let mut c = core.lock();
        (c.advance(ticks), c.take_due())
    };
    for token in due.unwrap_or_default() {
        wakes[token.0].fetch_add(1, Ordering::SeqCst);
    }
    fired
}

fn counters() -> Arc<[AtomicUsize; 3]> {
    Arc::new([
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ])
}

/// Model 9a: a task re-polling (re-registering its waker) while another
/// thread advances the clock across its deadline. No schedule may lose
/// the wakeup.
#[test]
fn repoll_vs_advance_wakes_exactly_once() {
    loom::model(|| {
        let core = core();
        let wakes = counters();
        // Armed at first poll: token 1 is stored before any race begins.
        let (slot, _) = arm(&core, 1, Token(1));

        let ticker = {
            let core = Arc::clone(&core);
            let wakes = Arc::clone(&wakes);
            loom::thread::spawn(move || advance(&core, 1, &wakes[..]))
        };
        // The re-poll with a new waker (Sleep::poll_armed).
        let outcome = core.lock().register_waker(slot, &Token(2));
        assert_eq!(ticker.join().unwrap(), 1);

        let (w1, w2) = (
            wakes[1].load(Ordering::SeqCst),
            wakes[2].load(Ordering::SeqCst),
        );
        assert_eq!(w1 + w2, 1, "woken exactly once");
        match outcome {
            // The re-poll won the lock: the fire delivered its waker.
            RegisterOutcome::Registered => assert_eq!(w2, 1),
            // The fire won: the poll completes the future directly.
            RegisterOutcome::Stale => assert_eq!(w1, 1),
        }
        assert_eq!(core.lock().table().live(), 0);
    });
}

/// Model 9b: `Sleep::drop` (release) racing the advance. Exactly one side
/// frees the slot, and a dropped sleep's waker is never invoked.
#[test]
fn drop_vs_advance_exactly_one_side_frees() {
    loom::model(|| {
        let core = core();
        let wakes = counters();
        let (slot, timer) = arm(&core, 1, Token(1));

        let ticker = {
            let core = Arc::clone(&core);
            let wakes = Arc::clone(&wakes);
            loom::thread::spawn(move || advance(&core, 1, &wakes[..]))
        };
        let released = core.lock().release(timer, slot);
        let fired = ticker.join().unwrap();

        assert_ne!(released, fired == 1, "exactly one side frees the slot");
        assert_eq!(
            wakes[1].load(Ordering::SeqCst),
            usize::from(!released),
            "woken only if the fire won"
        );
        let c = core.lock();
        assert_eq!(c.table().live(), 0, "loser left no residue");
        assert_eq!(c.outstanding(), 0);
    });
}

/// Model 9c: `Sleep::reset` racing the advance across the old deadline.
/// A successful reset moves the deadline, so the old one never fires; a
/// reset that lost the race sees `Stale` after the one fire.
#[test]
fn reset_vs_advance_is_new_deadline_or_stale() {
    loom::model(|| {
        let core = core();
        let wakes = counters();
        let (slot, timer) = arm(&core, 1, Token(1));

        let ticker = {
            let core = Arc::clone(&core);
            let wakes = Arc::clone(&wakes);
            loom::thread::spawn(move || advance(&core, 1, &wakes[..]))
        };
        let reset = core.lock().restart(timer, slot, TickDelta(2));
        let fired = ticker.join().unwrap();

        match reset {
            Ok(()) => {
                assert_eq!(fired, 0, "no fire at the old deadline");
                assert_eq!(wakes[1].load(Ordering::SeqCst), 0);
                // The reset landed at tick 0, so the new deadline is 2.
                assert_eq!(
                    advance(&core, 1, &wakes[..]),
                    1,
                    "fires at the new deadline"
                );
            }
            Err(TimerError::Stale) => assert_eq!(fired, 1, "the fire won the race"),
            Err(other) => panic!("unexpected reset error: {other}"),
        }
        assert_eq!(wakes[1].load(Ordering::SeqCst), 1, "woken exactly once");
        assert_eq!(core.lock().table().live(), 0);
    });
}

/// Model 9d: two sleeps arming concurrently never share a slot, and their
/// packed `Request_ID`s stay distinct — the property expiry routing
/// depends on.
#[test]
fn concurrent_arms_get_distinct_slots() {
    loom::model(|| {
        let core = core();
        let wakes = counters();
        let other = {
            let core = Arc::clone(&core);
            loom::thread::spawn(move || arm(&core, 1, Token(1)))
        };
        let (a, ta) = arm(&core, 2, Token(2));
        let (b, tb) = other.join().unwrap();

        assert_ne!(a, b, "distinct slots");
        assert_ne!(slot_to_request(a), slot_to_request(b), "distinct ids");
        assert_ne!(ta, tb, "distinct timers");
        assert_eq!(core.lock().table().live(), 2);
        assert_eq!(advance(&core, 2, &wakes[..]), 2);
        assert_eq!(wakes[1].load(Ordering::SeqCst), 1);
        assert_eq!(wakes[2].load(Ordering::SeqCst), 1);
    });
}
