//! Order statistics and accounting shared by every workload: percentile
//! selection, quartiles, open-loop due-time latency, staleness of `COUNT`
//! answers, and failure tallies.

/// Minimum number of samples that must lie beyond a percentile before it
/// is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The epsilon keeps float noise (0.999 · 10⁴ = 9990.000…02) from
    // bumping an exact rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest percentile of `ladder` that has at least [`MIN_BEYOND`]
/// samples beyond it, if any does.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample set reduced to the figures the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Tail {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [f64]) -> Tail {
        samples.sort_by(f64::total_cmp);
        Tail {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
        }
    }
}

/// Length of the time slices that throughput and latency figures are
/// medians over: a stall on a shared host moves one slice, not the run.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Median over full time slices of the per-slice p50 and p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Samples in the slices used.
    pub n: usize,
    pub slices: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// The lowest and highest per-slice p99.
    pub p99_range: (f64, f64),
}

/// Group `(time_ns, value)` samples into slices of `slice_ns` from
/// `start_ns` and take the median of the per-slice p50 and p99. Only
/// slices whose p99 has [`MIN_BEYOND`] samples beyond it count.
pub fn sliced_tail(samples: &[(u64, f64)], start_ns: u64, slice_ns: u64) -> Option<Sliced> {
    let mut slices: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in samples {
        slices
            .entry(t.saturating_sub(start_ns) / slice_ns)
            .or_default()
            .push(v);
    }
    let (mut p50s, mut p90s, mut p99s, mut n) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for values in slices.values_mut() {
        if highest_supported(values.len(), &[50.0, 90.0, 99.0]) != Some(99.0) {
            continue;
        }
        let tail = Tail::of(values);
        p50s.push(tail.p50);
        p90s.push(percentile(values, 90.0));
        p99s.push(tail.p99);
        n += tail.n;
    }
    (!p50s.is_empty()).then(|| Sliced {
        n,
        slices: p50s.len(),
        p50: median(&p50s),
        p90: median(&p90s),
        p99: median(&p99s),
        p99_range: p99s.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| {
            (lo.min(p), hi.max(p))
        }),
    })
}

/// Events per second in each full slice of `slice_ns` between `start_ns`
/// and `end_ns`.
pub fn sliced_rates(
    times: impl Iterator<Item = u64>,
    start_ns: u64,
    end_ns: u64,
    slice_ns: u64,
) -> Vec<f64> {
    let full = (end_ns.saturating_sub(start_ns) / slice_ns) as usize;
    let mut counts = vec![0u64; full];
    for t in times {
        if let Some(c) = counts.get_mut((t.saturating_sub(start_ns) / slice_ns) as usize) {
            *c += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 * 1e9 / slice_ns as f64)
        .collect()
}

/// One open-loop stream: request `k` is due at `start + k · interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: u64,
}

impl Schedule {
    pub fn per_second(start_ns: u64, rate: f64) -> Self {
        Self {
            start_ns,
            interval_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + k * self.interval_ns
    }
}

/// Latency of an open-loop request measured from when it was due, so a
/// stall also charges the requests it delayed.
pub fn latency_from_due(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// How late the generator issued a request against its schedule.
pub fn lateness(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Staleness of `COUNT` answers, in milliseconds.
///
/// `timeline` holds `(time_ns, cumulative_count)` for each frame the
/// generator sent: when it began sending it, and the count including it,
/// ascending in both. For an answer `c` to a
/// query sent at `sent_ns`, staleness is `sent_ns` minus the time the
/// cumulative count first reached `c` (zero when the answer already
/// reflects frames sent after the query). Answers of 0 carry no
/// information and are skipped. An answer larger than everything ever
/// sent is impossible and is returned as an error count.
pub fn staleness_ms(timeline: &[(u64, u64)], answers: &[(u64, u64)]) -> (Vec<f64>, u64) {
    let mut out = Vec::with_capacity(answers.len());
    let mut impossible = 0;
    for &(sent_ns, count) in answers {
        if count == 0 {
            continue;
        }
        let at = timeline.partition_point(|&(_, cum)| cum < count);
        match timeline.get(at) {
            Some(&(reached_ns, _)) => {
                out.push(sent_ns.saturating_sub(reached_ns) as f64 / 1e6);
            }
            None => impossible += 1,
        }
    }
    (out, impossible)
}

/// Attempted and failed operations of one run. Send errors, `-ERR`
/// answers, frames not accounted for at the drain and wrong answers all
/// count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// A check over `n` already-attempted operations found `bad` of them
    /// wrong (e.g. frames missing at the drain): they become failures
    /// without being attempted twice.
    pub fn mark_failed(&mut self, bad: u64) {
        self.failed += bad;
        self.attempted = self.attempted.max(self.failed);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_needs_ten_beyond() {
        // 1000 samples: exactly 10 lie beyond the p99.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(
            highest_supported(1000, &[50.0, 90.0, 99.0, 99.9]),
            Some(99.0)
        );
        // 999 samples: p99 has only 9 beyond, so p90 is the highest.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(
            highest_supported(999, &[50.0, 90.0, 99.0, 99.9]),
            Some(90.0)
        );
        // 10 000 samples support p99.9.
        assert_eq!(
            highest_supported(10_000, &[50.0, 90.0, 99.0, 99.9]),
            Some(99.9)
        );
        // Too few for any.
        assert_eq!(highest_supported(15, &[50.0, 90.0, 99.0]), None);
        assert_eq!(highest_supported(0, &[50.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        let mut samples: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let tail = Tail::of(&mut samples);
        assert_eq!((tail.n, tail.p50, tail.p99), (2000, 999.0, 1979.0));
    }

    #[test]
    fn slices_report_medians_of_supported_slices() {
        // Slice 0: 1000 samples of 1.0 except ten of 9.0 at the top.
        // Slice 1: 1000 samples of 2.0 with a 100.0 stall tail.
        // Slice 2: 1000 samples of 3.0. Slice 3: only 5 samples (dropped).
        let mut samples = Vec::new();
        for i in 0..1000u64 {
            samples.push((i, if i < 990 { 1.0 } else { 9.0 }));
            samples.push((1_000 + i, if i < 980 { 2.0 } else { 100.0 }));
            samples.push((2_000 + i, 3.0));
        }
        samples.extend((0..5).map(|i| (3_000 + i, 50.0)));
        let s = sliced_tail(&samples, 0, 1_000).expect("three supported slices");
        assert_eq!((s.slices, s.n), (3, 3000));
        assert_eq!(s.p50, 2.0);
        // Per-slice p99s are 1.0, 100.0 and 3.0: the stall moves one.
        assert_eq!((s.p99, s.p99_range), (3.0, (1.0, 100.0)));
        assert!(sliced_tail(&samples[..10], 0, 1_000).is_none());
        let rates = sliced_rates(
            [0, 10, 500, 1_200, 2_999, 3_500].into_iter(),
            0,
            3_600,
            1_000,
        );
        assert_eq!(rates, vec![3e6, 1e6, 1e6]);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let schedule = Schedule::per_second(1_000, 1000.0); // one per ms
        assert_eq!(schedule.interval_ns, 1_000_000);
        assert_eq!(schedule.due_ns(3), 3_001_000);
        // Request 0 stalls for 5 ms; request 1, due at 1 ms, can only be
        // sent at 5 ms and completes at 5.1 ms.
        let (due1, sent1, done1) = (schedule.due_ns(1), 5_001_000, 5_101_000);
        assert_eq!(lateness(due1, sent1), 4_000_000);
        assert_eq!(latency_from_due(due1, done1), 4_100_000);
        // A request sent early (clock skew) is never negative.
        assert_eq!(lateness(due1, due1 - 10), 0);
        assert_eq!(latency_from_due(due1, due1 - 10), 0);
    }

    #[test]
    fn staleness_from_cumulative_counts() {
        // Frames sent at 1, 2, 3 ms, bringing the count to 10, 25, 40.
        let timeline = [(1_000_000, 10), (2_000_000, 25), (3_000_000, 40)];
        let answers = [
            (2_500_000, 25), // reached at 2 ms → 0.5 ms stale
            (3_000_000, 11), // first ≥ 11 at 2 ms → 1 ms stale
            (1_500_000, 40), // answer ahead of the query's send time → 0
            (4_000_000, 0),  // no information: skipped
            (4_000_000, 41), // more than was ever sent: impossible
        ];
        let (stale, impossible) = staleness_ms(&timeline, &answers);
        assert_eq!(stale, vec![0.5, 1.0, 0.0]);
        assert_eq!(impossible, 1);
    }

    #[test]
    fn error_rate_accounting() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        tally.ok(90);
        tally.fail(10);
        assert_eq!(
            tally,
            Tally {
                attempted: 100,
                failed: 10
            }
        );
        assert_eq!(tally.error_rate(), 0.1);
        // Five of the accepted sends turn out missing at the drain: they
        // become failures without inflating the attempted count.
        tally.mark_failed(5);
        assert_eq!(
            tally,
            Tally {
                attempted: 100,
                failed: 15
            }
        );
        let mut other = Tally::default();
        other.ok(100);
        tally.merge(other);
        assert_eq!(tally.error_rate(), 15.0 / 200.0);
        // Failures never exceed attempts.
        let mut odd = Tally::default();
        odd.mark_failed(3);
        assert_eq!(
            odd,
            Tally {
                attempted: 3,
                failed: 3
            }
        );
    }
}
