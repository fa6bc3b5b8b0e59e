//! Percentile summaries and open-loop schedule accounting.

use std::time::{Duration, Instant};

use sdalloc_sim::SimRng;

/// Percentiles a summary may report as its tail, in per-mille, highest
/// first.  A tail is reported only when at least [`MIN_BEYOND`] samples
/// lie beyond it.
const LADDER_PM: [u64; 6] = [990, 975, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median, highest supported percentile and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Value at the highest supported percentile (`tail_pm`).
    pub tail: f64,
    /// The tail's percentile in per-mille (990 = p99).  Equals 500 when
    /// the sample supports no percentile above the median.
    pub tail_pm: u64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// The tail's percentile as a label, e.g. `p99` or `p97.5`.
    pub fn tail_label(&self) -> String {
        if self.tail_pm.is_multiple_of(10) {
            format!("p{}", self.tail_pm / 10)
        } else {
            format!("p{}", self.tail_pm as f64 / 10.0)
        }
    }
}

/// Nearest-rank index (0-based) of per-mille percentile `pm` in `n`
/// sorted samples.
fn rank(n: usize, pm: u64) -> usize {
    let r = (n as u64 * pm).div_ceil(1000).max(1);
    r as usize - 1
}

/// Summarise samples: median, the highest percentile of [`LADDER_PM`]
/// with at least [`MIN_BEYOND`] samples beyond it, and the count.
/// `None` for an empty sample.  Sorts in place.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let tail_pm = LADDER_PM
        .iter()
        .copied()
        .find(|&pm| n - 1 - rank(n, pm) >= MIN_BEYOND)
        .unwrap_or(500);
    Some(Summary {
        n,
        p50: samples[rank(n, 500)],
        tail: samples[rank(n, tail_pm)],
        tail_pm,
        max: samples[n - 1],
    })
}

/// Median of a small set (set-up repetitions); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    summarize(&mut v).map(|s| s.p50)
}

/// `n` arrival offsets (nanoseconds from the start of the run) spread
/// uniformly at random over `[0, span)` and sorted: a Poisson process
/// conditioned on its count, so a run always offers exactly `n`
/// operations whatever the seed.
pub fn arrivals(rng: &mut SimRng, n: usize, span: Duration) -> Vec<u64> {
    let span_ns = span.as_nanos() as u64;
    let mut v: Vec<u64> = (0..n).map(|_| rng.below(span_ns.max(1))).collect();
    v.sort_unstable();
    v
}

/// Open-loop clock: every operation has a due time fixed in advance,
/// is timed from that due time (so a stall also delays every later
/// operation), and the generator's own lateness is recorded.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
}

impl OpenLoop {
    /// A schedule whose offset 0 is `start`.
    pub fn new(start: Instant) -> OpenLoop {
        OpenLoop { start }
    }

    /// Nanoseconds elapsed since the schedule's start.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Sleep until `offset_ns` is due; returns at once when it already is.
    pub fn wait_until(&self, offset_ns: u64) {
        let now = self.now_ns();
        if offset_ns > now {
            std::thread::sleep(Duration::from_nanos(offset_ns - now));
        }
    }

    /// How late an operation due at `offset_ns` starts if it starts at
    /// `at_ns` (0 when it starts on time or early).
    pub fn lateness_ns(offset_ns: u64, at_ns: u64) -> u64 {
        at_ns.saturating_sub(offset_ns)
    }

    /// Latency of an operation due at `offset_ns` that completed at
    /// `done_ns`, counted from its due time, in the requested unit
    /// (`unit_ns` = 1_000 for microseconds, 1_000_000 for ms).
    pub fn latency(offset_ns: u64, done_ns: u64, unit_ns: f64) -> f64 {
        done_ns.saturating_sub(offset_ns) as f64 / unit_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s = summarize(&mut ramp(1000)).unwrap();
        assert_eq!((s.n, s.tail_pm, s.tail), (1000, 990, 990.0));
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_label(), "p99");
        // One sample fewer leaves only nine beyond p99: fall back.
        let s = summarize(&mut ramp(999)).unwrap();
        assert_eq!(s.tail_pm, 975);
        assert_eq!(s.tail_label(), "p97.5");
    }

    #[test]
    fn small_samples_report_only_the_median() {
        let s = summarize(&mut ramp(15)).unwrap();
        assert_eq!(s.tail_pm, 500);
        assert_eq!(s.tail, s.p50);
        assert_eq!(s.max, 15.0);
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        let s = summarize(&mut v).unwrap();
        assert_eq!((s.p50, s.tail_pm, s.tail), (200.0, 975, 390.0));
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn arrivals_are_sorted_bounded_and_seeded() {
        let span = Duration::from_secs(2);
        let a = arrivals(&mut SimRng::new(7), 5000, span);
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        assert_eq!(a, arrivals(&mut SimRng::new(7), 5000, span));
        assert_ne!(a, arrivals(&mut SimRng::new(8), 5000, span));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1 ms, started 0.3 ms late, done 0.5 ms after due.
        assert_eq!(OpenLoop::lateness_ns(1_000_000, 1_300_000), 300_000);
        assert_eq!(OpenLoop::lateness_ns(1_000_000, 900_000), 0);
        assert_eq!(OpenLoop::latency(1_000_000, 1_500_000, 1_000.0), 500.0);
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let ol = OpenLoop::new(Instant::now());
        ol.wait_until(2_000_000);
        assert!(ol.now_ns() >= 2_000_000);
    }
}
