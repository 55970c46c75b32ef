//! Shadow-deadline verifier: the benchmark's independent record of what
//! every timer should do, checked against what the timer stack delivers.
//!
//! Every key (a connection, a session, an in-flight request) has at most
//! one armed deadline. The workload mirrors each successful START, UPDATE
//! and STOP here, and reports each delivered expiry together with the tick
//! window it was delivered in. Both wheels the benchmark drives are exact
//! (Schemes 6 and 7 with full migration), so the checks are strict:
//!
//! * an expiry must land in the window that contains its deadline — not
//!   before (a reset-away deadline), not after (late);
//! * an expiry for a key that already fired is a double wake, one for a
//!   key that was stopped or dropped is a fire after stop;
//! * once the clock has passed a tick, no armed deadline may remain at or
//!   before it (a missing fire).
//!
//! Missing fires are found without scanning the population: `due` counts
//! armed deadlines per tick in a ring longer than any interval plus any
//! advance window, so [`Shadow::settle`] inspects only the ticks the clock
//! just crossed.

use std::fmt;

/// What the shadow believes about one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Never armed.
    Idle,
    /// Armed for the deadline stored beside it.
    Armed,
    /// Fired; must not fire again until re-armed.
    Fired,
    /// Stopped (or its future dropped); must not fire.
    Stopped,
}

/// A mismatch between the shadow and the stack's behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// Delivered after the window containing its deadline.
    LateFire {
        key: u32,
        deadline: u64,
        window_end: u64,
    },
    /// Delivered before its deadline (for example at a deadline it was reset away from).
    EarlyFire {
        key: u32,
        deadline: u64,
        window_end: u64,
    },
    /// Delivered a second time without being re-armed.
    DoubleFire { key: u32 },
    /// Delivered after the key was stopped or dropped.
    FireAfterStop { key: u32 },
    /// Delivered for a key that was never armed.
    FireUnarmed { key: u32 },
    /// The stack reported a deadline other than the one the shadow armed.
    WrongDeadline {
        key: u32,
        shadow: u64,
        reported: u64,
    },
    /// The clock passed `tick` while `count` deadlines at it were still armed.
    MissingFire { tick: u64, count: u32 },
    /// The workload tried to arm an armed key, or update/stop an unarmed one.
    Protocol { key: u32, what: &'static str },
    /// A count the stack reports disagreed with the shadow's.
    Count {
        what: &'static str,
        stack: u64,
        shadow: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One key's shadow: its state and, while armed, its deadline, side by side
/// so that checking an op touches one cache line of the table.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// The deadline as u32 ticks, halving the table's footprint; a deadline
    /// beyond that range is refused as a protocol mismatch.
    deadline: u32,
    state: State,
}

/// The shadow deadline table.
pub struct Shadow {
    keys: Vec<Key>,
    due: Vec<u32>,
    due_mask: u64,
    live: usize,
    /// Every tick up to and including this one has been settled.
    settled: u64,
    mismatches: u64,
    first: Option<Mismatch>,
}

impl Shadow {
    /// A shadow for `keys` keys whose deadlines never lie more than
    /// `horizon` ticks past the last settled tick.
    #[must_use]
    pub fn new(keys: usize, horizon: u64) -> Shadow {
        let ring = horizon.saturating_add(1).next_power_of_two();
        Shadow {
            keys: vec![
                Key {
                    deadline: 0,
                    state: State::Idle,
                };
                keys
            ],
            due: vec![0; usize::try_from(ring).expect("horizon fits in memory")],
            due_mask: ring - 1,
            live: 0,
            settled: 0,
            mismatches: 0,
            first: None,
        }
    }

    fn slot(&self, tick: u64) -> usize {
        // Masked to the ring length, which is a usize.
        (tick & self.due_mask) as usize
    }

    fn fail(&mut self, m: Mismatch) {
        self.mismatches += 1;
        if self.first.is_none() {
            self.first = Some(m);
        }
    }

    fn link(&mut self, key: usize, deadline: u64) {
        let Ok(stored) = u32::try_from(deadline) else {
            self.fail(Mismatch::Protocol {
                key: key as u32,
                what: "deadline beyond u32 ticks",
            });
            self.keys[key].deadline = 0;
            return;
        };
        if deadline <= self.settled || deadline - self.settled > self.due_mask {
            self.fail(Mismatch::Protocol {
                key: key as u32,
                what: "deadline outside the shadow horizon",
            });
            self.keys[key].deadline = 0;
            return;
        }
        self.keys[key].deadline = stored;
        let s = self.slot(deadline);
        self.due[s] += 1;
    }

    fn unlink(&mut self, key: usize) {
        // Deadline 0 marks a key that was never linked (a rejected arm).
        if self.keys[key].deadline != 0 {
            let s = self.slot(u64::from(self.keys[key].deadline));
            // Saturating: a missing fire already zeroed its tick's count.
            self.due[s] = self.due[s].saturating_sub(1);
        }
    }

    /// A START succeeded for an unarmed key.
    pub fn arm(&mut self, key: u32, deadline: u64) {
        let k = key as usize;
        if self.keys[k].state == State::Armed {
            self.fail(Mismatch::Protocol {
                key,
                what: "arm of an armed key",
            });
            return;
        }
        self.keys[k].state = State::Armed;
        self.live += 1;
        self.link(k, deadline);
    }

    /// An UPDATE succeeded: the key's deadline moved to `deadline`.
    pub fn rearm(&mut self, key: u32, deadline: u64) {
        let k = key as usize;
        if self.keys[k].state != State::Armed {
            self.fail(Mismatch::Protocol {
                key,
                what: "update of an unarmed key",
            });
            return;
        }
        self.unlink(k);
        self.link(k, deadline);
    }

    /// A STOP succeeded (or an armed future was dropped).
    pub fn disarm(&mut self, key: u32) {
        let k = key as usize;
        if self.keys[k].state != State::Armed {
            self.fail(Mismatch::Protocol {
                key,
                what: "stop of an unarmed key",
            });
            return;
        }
        self.unlink(k);
        self.keys[k].state = State::Stopped;
        self.live -= 1;
    }

    /// An expiry for `key` was delivered while the clock moved from
    /// `after` to `upto`: its deadline must lie in `(after, upto]`.
    pub fn fire(&mut self, key: u32, after: u64, upto: u64) {
        let k = key as usize;
        match self.keys[k].state {
            State::Armed => {}
            State::Fired => return self.fail(Mismatch::DoubleFire { key }),
            State::Stopped => return self.fail(Mismatch::FireAfterStop { key }),
            State::Idle => return self.fail(Mismatch::FireUnarmed { key }),
        }
        let deadline = u64::from(self.keys[k].deadline);
        if deadline <= after {
            self.fail(Mismatch::LateFire {
                key,
                deadline,
                window_end: upto,
            });
        } else if deadline > upto {
            self.fail(Mismatch::EarlyFire {
                key,
                deadline,
                window_end: upto,
            });
        }
        self.unlink(k);
        self.keys[k].state = State::Fired;
        self.live -= 1;
    }

    /// An exact scheme delivered `key` with the given deadline and firing
    /// tick: both must equal the shadow deadline.
    pub fn fire_exact(&mut self, key: u32, deadline: u64, fired_at: u64) {
        let k = key as usize;
        let shadow = u64::from(self.keys[k].deadline);
        if self.keys[k].state == State::Armed && shadow != deadline {
            self.fail(Mismatch::WrongDeadline {
                key,
                shadow,
                reported: deadline,
            });
        }
        self.fire(key, fired_at.saturating_sub(1), fired_at);
    }

    /// The clock reached `now` and every expiry up to it has been
    /// delivered: no armed deadline may remain at or before `now`.
    pub fn settle(&mut self, now: u64) {
        while self.settled < now {
            self.settled += 1;
            let s = self.slot(self.settled);
            let count = self.due[s];
            if count != 0 {
                self.fail(Mismatch::MissingFire {
                    tick: self.settled,
                    count,
                });
                self.due[s] = 0;
            }
        }
    }

    /// Compares a live count the stack reports with the shadow's.
    pub fn check_live(&mut self, what: &'static str, stack: usize) {
        self.check_equal(what, stack as u64, self.live as u64);
    }

    /// Records a mismatch unless the stack's count equals the expected one.
    pub fn check_equal(&mut self, what: &'static str, stack: u64, expected: u64) {
        if stack != expected {
            self.fail(Mismatch::Count {
                what,
                stack,
                shadow: expected,
            });
        }
    }

    /// Records a mismatch the workload detected itself.
    pub fn protocol(&mut self, key: u32, what: &'static str) {
        self.fail(Mismatch::Protocol { key, what });
    }

    /// Mismatches found so far.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The first mismatch found, if any.
    #[must_use]
    pub fn first_mismatch(&self) -> Option<&Mismatch> {
        self.first.as_ref()
    }
}
