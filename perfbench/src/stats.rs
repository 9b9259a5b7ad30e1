//! The benchmark's own arithmetic, kept free of I/O so it can be tested
//! on synthetic timelines: percentiles with their sample counts, the
//! per-reconfiguration completion gaps, failure fractions and the
//! runtime self-time subtraction.

/// A timing statistic together with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sampled {
    /// The statistic's value.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `q` percentile of `values` (any order) with its sample count.
pub fn sampled_percentile(values: &[u64], q: f64) -> Sampled {
    let mut v = values.to_vec();
    v.sort_unstable();
    Sampled {
        value: percentile(&v, q).unwrap_or(0) as f64,
        samples: v.len(),
    }
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The longest gap between consecutive completions that touches one
/// reconfiguration's window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gap {
    /// Completion that opened the gap.
    pub from: u64,
    /// Completion that closed it.
    pub to: u64,
}

impl Gap {
    /// Gap length.
    pub fn len(&self) -> u64 {
        self.to - self.from
    }
}

/// For each window `[starts[k], starts[k+1])` (the last one ends at
/// `end`), the longest gap between consecutive entries of the merged,
/// ascending completion timeline `completions` that overlaps the window:
/// the pair's closing completion lies after the window opens and its
/// opening completion before the window closes. A gap that straddles a
/// window edge therefore counts in full. `None` for a window with no
/// such pair.
pub fn gaps_per_window(completions: &[u64], starts: &[u64], end: u64) -> Vec<Option<Gap>> {
    debug_assert!(completions.windows(2).all(|w| w[0] <= w[1]));
    starts
        .iter()
        .enumerate()
        .map(|(k, &open)| {
            let close = starts.get(k + 1).copied().unwrap_or(end);
            completions
                .windows(2)
                .filter(|w| w[1] > open && w[0] < close)
                .map(|w| Gap {
                    from: w[0],
                    to: w[1],
                })
                .max_by_key(|g| (g.len(), std::cmp::Reverse(g.from)))
        })
        .collect()
}

/// Window accounting of one session, in operation sequence numbers.
///
/// Operations are numbered in the order they were due (open loop) or
/// issued (closed loop), and a session completes them in that order.
/// Those numbered `[first, end)` fall inside the measured window;
/// `completed` is how many the session finished by the end of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionWindow {
    /// Sequence number of the first operation due in the window.
    pub first: u64,
    /// One past the last operation due in the window.
    pub end: u64,
    /// Operations the session completed over the whole run.
    pub completed: u64,
}

impl SessionWindow {
    /// Operations due in the window.
    pub fn attempted(&self) -> u64 {
        self.end.saturating_sub(self.first)
    }

    /// Operations due in the window that never completed.
    pub fn failed(&self) -> u64 {
        self.end.saturating_sub(self.completed.max(self.first))
    }
}

/// Share of attempted operations that failed; 0 when nothing was
/// attempted.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A layer's self time: its own span minus the time its children cover,
/// floored at zero (timer granularity can make the children sum a hair
/// longer than the parent).
pub fn self_time(total: u64, children: &[u64]) -> u64 {
    total.saturating_sub(children.iter().sum())
}

/// `1 − actual ÷ expected`: the share of scheduled arrivals the
/// generator never produced. 0 when nothing was expected.
pub fn shortfall(actual: u64, rate_per_s: f64, elapsed_s: f64) -> f64 {
    let expected = rate_per_s * elapsed_s;
    if expected <= 0.0 {
        0.0
    } else {
        1.0 - actual as f64 / expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_counts() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        let s = sampled_percentile(&[9, 1, 5], 0.5);
        assert_eq!(
            s,
            Sampled {
                value: 5.0,
                samples: 3
            }
        );
        assert_eq!(sampled_percentile(&[], 0.99).samples, 0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn gaps_are_found_per_reconfiguration_window() {
        // Completions every 10 us, with a 500 us stall starting at 2_000
        // (inside window 1) and a 300 us stall straddling the start of
        // window 2 at 5_000.
        let mut c: Vec<u64> = (0..=200).map(|i| i * 10).collect();
        c.extend((0..=240).map(|i| 2_500 + i * 10));
        c.extend((0..=100).map(|i| 5_200 + i * 10));
        let gaps = gaps_per_window(&c, &[0, 1_000, 5_000], 6_200);
        // Window 0 sees only the steady 10 us cadence; ties go to the
        // earliest gap.
        assert_eq!(gaps[0], Some(Gap { from: 0, to: 10 }));
        assert_eq!(
            gaps[1],
            Some(Gap {
                from: 2_000,
                to: 2_500
            })
        );
        assert_eq!(
            gaps[2],
            Some(Gap {
                from: 4_900,
                to: 5_200
            })
        );
    }

    #[test]
    fn a_gap_straddling_a_boundary_counts_in_full_for_both_windows() {
        let c = [0, 10, 20, 400, 410];
        let gaps = gaps_per_window(&c, &[0, 100], 1_000);
        assert_eq!(gaps[0], Some(Gap { from: 20, to: 400 }));
        assert_eq!(gaps[1], Some(Gap { from: 20, to: 400 }));
        // No completions at all inside or around a window: no gap.
        assert_eq!(gaps_per_window(&[5], &[0], 10), vec![None]);
    }

    #[test]
    fn session_window_counts_only_ops_due_inside_it() {
        // Ops 10..30 due in the window; 25 completed overall.
        let w = SessionWindow {
            first: 10,
            end: 30,
            completed: 25,
        };
        assert_eq!(w.attempted(), 20);
        assert_eq!(w.failed(), 5);
        // Completed fewer than the window's first op: all of it failed.
        let w = SessionWindow {
            first: 10,
            end: 30,
            completed: 4,
        };
        assert_eq!(w.failed(), 20);
        // Drained fully (and beyond, into post-window ops).
        let w = SessionWindow {
            first: 10,
            end: 30,
            completed: 31,
        };
        assert_eq!(w.failed(), 0);
        assert_eq!(failed_frac(40, 5), 0.125);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_time(1_000, &[300, 200, 100]), 400);
        assert_eq!(self_time(500, &[300, 300]), 0);
        assert_eq!(self_time(7, &[]), 7);
    }

    #[test]
    fn shortfall_is_the_missing_share_of_arrivals() {
        assert!((shortfall(960, 100.0, 10.0) - 0.04).abs() < 1e-12);
        assert_eq!(shortfall(5, 0.0, 10.0), 0.0);
    }
}
