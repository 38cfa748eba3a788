//! Metrics as medians over fixed intervals of the timed run.
//!
//! The hosts this runs on lose their CPUs to the hypervisor in bursts
//! (steal time): a burst that takes 40% of a second slows that second's
//! throughput by 40%, and how many bursts land in a run decides a
//! whole-run average more than the program does. So throughput and
//! latency quantiles are measured per [`INTERVAL`] of wall time, and the
//! reported value is the median interval's: what the client saw in a
//! typical half second of the run.
//!
//! An interval's quantiles are selected from its raw samples, not read
//! off a bucketed histogram: a histogram reports a bucket bound, and a
//! median that moves less than a bucket's width from run to run would
//! read the same bound every time. Past [`SAMPLE_CAP`] samples in an
//! interval only an evenly spaced subset is kept, so the memory the
//! benchmark itself holds, which `peak_rss_mb` counts, does not grow
//! with throughput.

use std::time::{Duration, Instant};

use crate::median;

/// Length of one measurement interval.
pub const INTERVAL: Duration = Duration::from_millis(500);
/// Samples kept per interval. When the buffer fills, every other kept
/// sample is dropped and only every `stride`-th sample is taken from
/// then on.
const SAMPLE_CAP: usize = 1 << 13;

/// Operations completed per interval.
pub struct Rate {
    started: Instant,
    ops: u64,
    per_s: Vec<f64>,
}

impl Default for Rate {
    fn default() -> Self {
        Rate::new(Instant::now())
    }
}

impl Rate {
    /// Start the first interval at `now`.
    pub fn new(now: Instant) -> Self {
        Rate {
            started: now,
            ops: 0,
            per_s: Vec::new(),
        }
    }

    /// Count `ops` operations completed at `now`.
    pub fn add(&mut self, ops: u64, now: Instant) {
        while now >= self.started + INTERVAL {
            self.per_s.push(self.ops as f64 / INTERVAL.as_secs_f64());
            self.ops = 0;
            self.started += INTERVAL;
        }
        self.ops += ops;
    }

    /// Fold another segment's closed intervals in; its open interval is
    /// dropped.
    pub fn merge(&mut self, other: Rate) {
        self.per_s.extend(other.per_s);
    }

    /// Median interval throughput, per second, and the interval count.
    pub fn median(&self) -> (f64, u64) {
        (median_or_zero(&self.per_s), self.per_s.len() as u64)
    }
}

/// Samples of one quantity (nanoseconds, or slots), summarised by the
/// median and the 99th percentile of each interval.
pub struct Series {
    started: Instant,
    cur: Vec<u64>,
    stride: u64,
    seen: u64,
    p50: Vec<f64>,
    p99: Vec<f64>,
    count: u64,
}

impl Default for Series {
    fn default() -> Self {
        Series::new(Instant::now())
    }
}

impl Series {
    /// Start the first interval at `now`.
    pub fn new(now: Instant) -> Self {
        Series {
            started: now,
            cur: Vec::new(),
            stride: 1,
            seen: 0,
            p50: Vec::new(),
            p99: Vec::new(),
            count: 0,
        }
    }

    /// Record sample `v`, taken at `now`.
    pub fn record(&mut self, v: u64, now: Instant) {
        if now >= self.started + INTERVAL {
            if !self.cur.is_empty() {
                self.p50.push(quantile(&mut self.cur, 0.5));
                self.p99.push(quantile(&mut self.cur, 0.99));
                self.cur.clear();
                (self.stride, self.seen) = (1, 0);
            }
            let behind = (now - self.started).as_nanos() / INTERVAL.as_nanos();
            self.started += INTERVAL * behind as u32;
        }
        self.count += 1;
        let k = self.seen;
        self.seen += 1;
        if !k.is_multiple_of(self.stride) {
            return;
        }
        if self.cur.len() == SAMPLE_CAP {
            let mut i = 0;
            self.cur.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
            if !k.is_multiple_of(self.stride) {
                return;
            }
        }
        self.cur.push(v);
    }

    /// Fold another segment's closed intervals in; its open interval is
    /// dropped.
    pub fn merge(&mut self, other: Series) {
        self.p50.extend(other.p50);
        self.p99.extend(other.p99);
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Median over intervals of the interval medians.
    pub fn p50(&self) -> f64 {
        median_or_zero(&self.p50)
    }

    /// Median over intervals of the interval 99th percentiles.
    pub fn p99(&self) -> f64 {
        median_or_zero(&self.p99)
    }

    /// Number of closed intervals behind [`Series::p50`] and
    /// [`Series::p99`].
    pub fn intervals(&self) -> u64 {
        self.p50.len() as u64
    }
}

/// The `q` quantile of a non-empty sample (nearest rank); reorders `v`.
fn quantile(v: &mut [u64], q: f64) -> f64 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1 as f64
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_interval_does_not_move_the_median() {
        let t0 = Instant::now();
        let (mut rate, mut lat) = (Rate::new(t0), Series::new(t0));
        for i in 0..5u32 {
            let at = t0 + INTERVAL * i + INTERVAL / 2;
            let (ops, ns) = if i == 2 {
                (100, 9_000_000)
            } else {
                (1000, 200)
            };
            rate.add(ops, at);
            lat.record(ns, at);
        }
        rate.add(0, t0 + INTERVAL * 5);
        lat.record(0, t0 + INTERVAL * 5);
        assert_eq!(rate.median(), (2000.0, 5));
        assert_eq!((lat.p50(), lat.intervals()), (200.0, 5));
    }

    #[test]
    fn interval_quantiles_are_exact() {
        let t0 = Instant::now();
        let mut s = Series::new(t0);
        for v in (1..=1000u64).rev() {
            s.record(v * 37, t0);
        }
        s.record(0, t0 + INTERVAL);
        assert_eq!(
            (s.p50(), s.p99(), s.count()),
            (500.0 * 37.0, 990.0 * 37.0, 1001)
        );
    }

    #[test]
    fn a_busy_interval_keeps_an_evenly_spaced_subset() {
        let t0 = Instant::now();
        let mut s = Series::new(t0);
        let n = SAMPLE_CAP as u64 * 5;
        for v in 0..n {
            s.record(v, t0);
        }
        assert!(s.cur.len() <= SAMPLE_CAP);
        assert!(s.cur.iter().all(|v| v.is_multiple_of(s.stride)));
        s.record(0, t0 + INTERVAL);
        assert_eq!(s.count(), n + 1);
        let p50 = s.p50() / n as f64;
        assert!((0.49..=0.51).contains(&p50), "p50 at {p50} of the range");
    }
}
