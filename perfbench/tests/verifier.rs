//! Self-test of the shadow-deadline verifier: corrupted expiry streams must
//! be rejected, a faithful one accepted.

use perfbench::verify::{Mismatch, Shadow};

/// Three keys armed at ticks 5, 7 and 9, settled up to tick 4.
fn armed() -> Shadow {
    let mut s = Shadow::new(4, 64);
    s.arm(0, 5);
    s.arm(1, 7);
    s.arm(2, 9);
    s.settle(4);
    s
}

fn first(s: &Shadow) -> Mismatch {
    s.first_mismatch()
        .cloned()
        .expect("the corruption is detected")
}

#[test]
fn faithful_stream_is_accepted() {
    let mut s = armed();
    s.fire_exact(0, 5, 5);
    s.settle(5);
    s.rearm(1, 8);
    s.disarm(2);
    s.fire(1, 6, 8);
    s.settle(8);
    s.arm(2, 12);
    s.fire(2, 10, 12);
    s.settle(40);
    s.check_live("outstanding", 0);
    assert_eq!(s.mismatches(), 0, "{:?}", s.first_mismatch());
}

#[test]
fn late_fire_is_rejected() {
    let mut s = armed();
    // Key 0 was due at 5 but is delivered at 6.
    s.fire_exact(0, 5, 6);
    assert_eq!(
        first(&s),
        Mismatch::LateFire {
            key: 0,
            deadline: 5,
            window_end: 6
        }
    );
}

#[test]
fn late_fire_in_an_advance_window_is_rejected() {
    let mut s = armed();
    // Key 2 (due 9) delivered by an advance over (9, 12]: one window late.
    s.fire(2, 9, 12);
    assert_eq!(
        first(&s),
        Mismatch::LateFire {
            key: 2,
            deadline: 9,
            window_end: 12
        }
    );
}

#[test]
fn double_wake_is_rejected() {
    let mut s = armed();
    s.fire(0, 4, 5);
    s.fire(0, 4, 5);
    assert_eq!(first(&s), Mismatch::DoubleFire { key: 0 });
}

#[test]
fn fire_after_stop_is_rejected() {
    let mut s = armed();
    s.disarm(1);
    s.fire(1, 6, 7);
    assert_eq!(first(&s), Mismatch::FireAfterStop { key: 1 });
}

#[test]
fn missing_fire_is_rejected() {
    let mut s = armed();
    s.fire(0, 4, 5);
    // The clock passes 7 without key 1 firing.
    s.settle(7);
    assert_eq!(first(&s), Mismatch::MissingFire { tick: 7, count: 1 });
}

#[test]
fn fire_at_a_reset_away_deadline_is_rejected() {
    let mut s = armed();
    // Key 1 was reset from 7 to 20, then fires at its old deadline.
    s.rearm(1, 20);
    s.fire_exact(1, 7, 7);
    assert_eq!(
        first(&s),
        Mismatch::WrongDeadline {
            key: 1,
            shadow: 20,
            reported: 7
        }
    );
    assert!(s.mismatches() >= 2, "the early delivery is flagged too");
}

#[test]
fn live_count_mismatch_is_rejected() {
    let mut s = armed();
    s.check_live("outstanding", 2);
    assert_eq!(
        first(&s),
        Mismatch::Count {
            what: "outstanding",
            stack: 2,
            shadow: 3
        }
    );
}
