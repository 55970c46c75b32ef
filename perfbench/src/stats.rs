//! Quantiles, medians and the per-round meter every workload reports through.
//!
//! The timed phase is cut into rounds of equal wall time. Each round yields
//! its own throughput, CPU time and latency quantiles, and the run reports
//! the median over rounds, so one disturbed round (a neighbour's burst on a
//! shared host) moves a reported figure only if it is repeated in most
//! rounds.

use std::time::{Duration, Instant};

use crate::host;

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile of `v` by nearest rank; reorders `v`. 0 when empty.
#[must_use]
pub fn quantile(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    let (_, x, _) = v.select_nth_unstable(rank);
    f64::from(*x)
}

/// Median of `v`; 0 when empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A bounded, evenly spaced sample of one round's latencies: once `cap`
/// samples are held, every other one is dropped and only every second
/// later one is kept, so the buffer stays a systematic sample of the whole
/// round at any length.
pub struct Samples {
    buf: Vec<u32>,
    stride: u64,
    seen: u64,
}

/// Latency samples kept per round and kind. The kept samples live until
/// the run ends and count in `peak_rss_mb`, so this is kept small beside
/// the smallest stack measured: the 80 rounds of a 40 s run hold about
/// 3 MiB.
const ROUND_SAMPLES: usize = 1 << 12;

impl Samples {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Samples {
        Samples {
            buf: Vec::with_capacity(ROUND_SAMPLES),
            stride: 1,
            seen: 0,
        }
    }

    /// Records the nanoseconds elapsed since `t`.
    #[inline]
    pub fn since(&mut self, t: Instant) {
        self.push_ns(ns_since(t));
    }

    /// Records `ns`.
    #[inline]
    pub fn push_ns(&mut self, ns: u64) {
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !keep {
            return;
        }
        if self.buf.len() == ROUND_SAMPLES {
            let mut i = 0;
            self.buf.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
            if !(self.seen - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Hands over the samples and starts afresh.
    pub fn take(&mut self) -> Vec<u32> {
        self.stride = 1;
        self.seen = 0;
        std::mem::replace(&mut self.buf, Vec::with_capacity(ROUND_SAMPLES))
    }

    /// Latencies recorded since the last [`take`](Samples::take).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::new()
    }
}

/// One round's figures.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub ops: u64,
    pub secs: f64,
    pub cpu_ns: f64,
    /// Sampled op, tick and fire latencies, in ns.
    pub lat: [Vec<u32>; 3],
}

impl Round {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// The median-over-rounds figures of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub rounds: usize,
    pub ops: u64,
    pub ops_per_s: f64,
    pub cpu_ns_per_op: f64,
    pub op_p50: f64,
    pub op_p99: f64,
    pub tick_p50: f64,
    pub tick_p99: f64,
    pub fire_p50: f64,
    pub fire_p99: f64,
    /// Op, tick and fire latencies timed over the whole phase.
    pub seen: [u64; 3],
    /// Op, tick and fire samples pooled for the quantiles.
    pub pooled: [u64; 3],
}

/// Per-round measurement of a closed-loop timed phase.
///
/// Workloads time one op in every `op_stride` and one fire in every
/// `fire_stride` (both powers of two), and every tick; the stride keeps
/// two clock reads from dominating ops that cost tens of nanoseconds.
pub struct Meter {
    pub ops: Samples,
    pub ticks: Samples,
    pub fires: Samples,
    op_mask: u64,
    fire_mask: u64,
    round_len: Duration,
    rounds_left: usize,
    round_start: Instant,
    round_cpu: u64,
    round_ops: u64,
    fires_seen: u64,
    total_ops: u64,
    samples: [u64; 3],
    done: Vec<Round>,
    /// Set-up times sampled between rounds, in seconds.
    pub setup_samples: Vec<f64>,
}

impl Meter {
    /// A meter for `rounds` rounds spanning `seconds` in total.
    #[must_use]
    pub fn new(seconds: f64, rounds: usize, op_stride: u64, fire_stride: u64) -> Meter {
        assert!(op_stride.is_power_of_two() && fire_stride.is_power_of_two());
        let rounds = rounds.max(1);
        Meter {
            ops: Samples::new(),
            ticks: Samples::new(),
            fires: Samples::new(),
            op_mask: op_stride - 1,
            fire_mask: fire_stride - 1,
            round_len: Duration::from_secs_f64(seconds / rounds as f64),
            rounds_left: rounds,
            round_start: Instant::now(),
            round_cpu: 0,
            round_ops: 0,
            fires_seen: 0,
            total_ops: 0,
            samples: [0; 3],
            done: Vec::with_capacity(rounds),
            setup_samples: Vec::new(),
        }
    }

    /// Starts a round.
    pub fn start(&mut self) {
        self.round_cpu = host::process_cpu_ns();
        self.round_start = Instant::now();
    }

    /// Whether op number `i` (of the workload's own count) is timed.
    #[inline]
    #[must_use]
    pub fn times_op(&self, i: u64) -> bool {
        i & self.op_mask == 0
    }

    /// Whether the next fire is timed; counts the fire.
    #[inline]
    pub fn times_fire(&mut self) -> bool {
        let t = self.fires_seen & self.fire_mask == 0;
        self.fires_seen += 1;
        t
    }

    /// Counts `n` completed ops.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.round_ops += n;
    }

    /// Closes the round if its time is up. Returns `false` once every
    /// round is done. Called between closed-loop steps.
    pub fn tick_boundary(&mut self) -> bool {
        if self.rounds_left == 0 {
            return false;
        }
        let elapsed = self.round_start.elapsed();
        if elapsed < self.round_len {
            return true;
        }
        let cpu = host::process_cpu_ns();
        self.samples[0] += self.ops.seen();
        self.samples[1] += self.ticks.seen();
        self.samples[2] += self.fires.seen();
        self.done.push(Round {
            ops: self.round_ops,
            secs: elapsed.as_secs_f64(),
            cpu_ns: cpu.saturating_sub(self.round_cpu) as f64,
            lat: [self.ops.take(), self.ticks.take(), self.fires.take()],
        });
        self.total_ops += self.round_ops;
        self.round_ops = 0;
        self.rounds_left -= 1;
        self.round_cpu = host::process_cpu_ns();
        self.round_start = Instant::now();
        self.rounds_left > 0
    }

    /// The finished rounds.
    #[must_use]
    pub fn rounds(&self) -> &[Round] {
        &self.done
    }

    /// Figures over the finished rounds: throughput, CPU per op and the
    /// median latencies are medians over rounds of each round's figure (one
    /// disturbed stretch of the run moves them only if it covers most
    /// rounds); the 99th percentiles are taken over the pooled latency
    /// samples of every round, since one round holds too few.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let rounds = &self.done;
        let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let pooled = |k: usize| {
            let p50s: Vec<f64> = rounds
                .iter()
                .filter(|r| !r.lat[k].is_empty())
                .map(|r| quantile(&mut r.lat[k].clone(), 0.50))
                .collect();
            let mut v: Vec<u32> = rounds
                .iter()
                .flat_map(|r| r.lat[k].iter().copied())
                .collect();
            (median(&p50s), quantile(&mut v, 0.99), v.len() as u64)
        };
        let (op_p50, op_p99, op_n) = pooled(0);
        let (tick_p50, tick_p99, tick_n) = pooled(1);
        let (fire_p50, fire_p99, fire_n) = pooled(2);
        Summary {
            rounds: self.done.len(),
            ops: self.total_ops,
            ops_per_s: med(Round::ops_per_s),
            cpu_ns_per_op: med(|r| r.cpu_ns / r.ops.max(1) as f64),
            op_p50,
            op_p99,
            tick_p50,
            tick_p99,
            fire_p50,
            fire_p99,
            seen: self.samples,
            pooled: [op_n, tick_n, fire_n],
        }
    }
}
