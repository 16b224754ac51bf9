//! Sample statistics: medians with their quartiles and counts, the
//! tail percentile under the ten-samples-beyond rule, and the steady
//! throughput of a closed loop.

/// One timed operation (an iteration or a request).
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Call issued -> result complete.
    pub total_ns: u64,
    /// Call issued -> first result row in the caller's hands.
    pub first_row_ns: u64,
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, quartiles and count of a sample: every median the harness
/// prints shows these beside it, so spread is visible.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p25: quantile(&v, 0.25),
            p50: quantile(&v, 0.50),
            p75: quantile(&v, 0.75),
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a tail read off a handful of
/// samples is noise.  Also returns how many samples do lie beyond.
pub fn tail_percentile(values: &[f64], pct: f64) -> (Option<f64>, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (None, 0);
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    let beyond = v.len() - rank;
    ((beyond >= MIN_BEYOND).then(|| v[rank - 1]), beyond)
}

/// Consecutive groups a client's operations are cut into for the
/// throughput estimate.
const RATE_GROUPS: usize = 10;

/// Operations per second of a closed loop with no think time: each
/// client's operations are cut into [`RATE_GROUPS`] consecutive groups,
/// a group's rate is its count over its summed operation time, a
/// client's rate is the median over its groups, and clients add up.  A
/// burst of interference from the shared host slows one group, not the
/// figure.
pub fn steady_ops_per_s(per_client: &[Vec<Op>]) -> f64 {
    per_client
        .iter()
        .filter(|ops| !ops.is_empty())
        .map(|ops| {
            let group = ops.len().div_ceil(RATE_GROUPS);
            let rates: Vec<f64> = ops
                .chunks(group)
                .filter(|c| c.len() == group)
                .map(|c| {
                    let ns: u64 = c.iter().map(|o| o.total_ns).sum();
                    c.len() as f64 / (ns.max(1) as f64 / 1e9)
                })
                .collect();
            median(&rates)
        })
        .sum()
}

pub fn ms(ops: &[Vec<Op>], f: impl Fn(&Op) -> u64) -> Vec<f64> {
    ops.iter().flatten().map(|o| f(o) as f64 / 1e6).collect()
}

/// The highest of the 99th, 95th, 90th and 75th percentiles that has
/// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`; `(0, 0)`
/// when the sample supports none of them.
pub fn highest_tail(values: &[f64]) -> (f64, f64) {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|pct| Some((pct, tail_percentile(values, pct).0?)))
        .unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (4, 1.0, 2.0, 3.0));
    }

    /// The ten-samples-beyond rule: p95 needs 200 samples, p90 needs
    /// 100; one fewer and the tail is withheld.
    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(200), 95.0), (Some(190.0), 10));
        assert_eq!(tail_percentile(&v(199), 95.0), (None, 9));
        assert_eq!(tail_percentile(&v(100), 90.0), (Some(90.0), 10));
        assert_eq!(tail_percentile(&v(99), 90.0), (None, 9));
        assert_eq!(tail_percentile(&[], 95.0), (None, 0));
        assert_eq!(highest_tail(&v(1000)), (99.0, 990.0));
        assert_eq!(highest_tail(&v(250)), (95.0, 238.0));
        assert_eq!(highest_tail(&v(100)), (90.0, 90.0));
        assert_eq!(highest_tail(&v(40)), (75.0, 30.0));
        assert_eq!(highest_tail(&v(39)), (0.0, 0.0));
    }

    #[test]
    fn steady_rate_ignores_one_slow_group() {
        let fast = Op {
            total_ns: 1_000_000,
            first_row_ns: 1_000_000,
        };
        let slow = Op {
            total_ns: 50_000_000,
            ..fast
        };
        // 100 ops at 1 ms, with one group of ten stalled.
        let mut ops = vec![fast; 100];
        for o in &mut ops[40..50] {
            *o = slow;
        }
        let rate = steady_ops_per_s(&[ops.clone(), ops, Vec::new()]);
        assert!((rate - 2000.0).abs() < 1e-6, "{rate}");
    }
}
