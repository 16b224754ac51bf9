//! The sort-based query plan of Figure 5: "select B from T1 intersect
//! select B from T2".
//!
//! "In contrast, the sort-based plan has only two blocking operators: both
//! are in-sort aggregation operators for duplicate removal.  The merge
//! join computing the intersection exploits not only interesting orderings
//! but also offset-value codes in the output of in-sort aggregation …
//! the sort-based plan spills each input row only once."
//!
//! In-sort duplicate removal drops duplicates (detected by their codes)
//! before runs spill *and* after the final merge, so the sort never
//! spills a row twice and the join input arrives deduplicated and coded.
//!
//! Since the `ovc-plan` crate landed, this pipeline is **planner
//! territory**: `ovc_plan`'s executor lowers `InSortDistinct` nodes onto
//! the external sort's own distinct mode ([`ovc_sort::try_sort_batches`]),
//! of which [`in_sort_distinct`] is the row-input adapter, and the
//! planner derives this exact plan (and its hash-based rival) from the
//! one logical query in `ovc_plan::figure5`.  [`sort_intersect_distinct`]
//! remains as the hand-written reference that benches and planner tests
//! compare against, row for row and spill for spill.

use std::sync::Arc;

use ovc_core::{BatchStream, OvcRow, Row, RowBatches, SortSpec, Stats};
use ovc_sort::{try_sort_batches, RunStorage, SortConfig, SortOutput};

use crate::set_ops::{SetOp, SetOperation};

/// External sort with in-sort duplicate removal: duplicates vanish inside
/// run generation (before spilling) and inside every merge — the final
/// one included, as its winners stream out — all detected by offset-value
/// codes alone.
pub fn in_sort_distinct<I, S>(
    input: I,
    key_len: usize,
    memory_rows: usize,
    fan_in: usize,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> SortOutput
where
    I: IntoIterator<Item = Row>,
    S: RunStorage,
{
    // Spill failures propagate as typed panic payloads, contained at the
    // executor boundary (`ovc_core::ctx`) like every other `ExecError`.
    let config = SortConfig::new(key_len, memory_rows).with_fan_in(fan_in);
    let input = RowBatches::new(input, memory_rows);
    try_sort_batches(input, config, &SortSpec::asc(key_len), true, storage, stats)
        .unwrap_or_else(|err| ovc_core::ctx::propagate(err))
}

/// Knobs of the Figure 5/6 experiment.
#[derive(Clone, Copy, Debug)]
pub struct IntersectConfig {
    /// Row width (= sort-key arity: set semantics compare whole rows).
    pub key_len: usize,
    /// Memory budget in rows per blocking operator.
    pub memory_rows: usize,
    /// Merge fan-in.
    pub fan_in: usize,
}

/// The sort-based "intersect distinct" plan of Figure 5: two in-sort
/// duplicate removals feeding a merge join (intersection), which consumes
/// the aggregations' offset-value codes.
///
/// Returns the result rows; spill volume and comparison counts accumulate
/// in `stats`.
pub fn sort_intersect_distinct<S: RunStorage>(
    t1: Vec<Row>,
    t2: Vec<Row>,
    config: IntersectConfig,
    storage1: &mut S,
    storage2: &mut S,
    stats: &Arc<Stats>,
) -> Vec<OvcRow> {
    let d1 = in_sort_distinct(
        t1,
        config.key_len,
        config.memory_rows,
        config.fan_in,
        storage1,
        stats,
    );
    let d2 = in_sort_distinct(
        t2,
        config.key_len,
        config.memory_rows,
        config.fan_in,
        storage2,
        stats,
    );
    // A hand-written plan picks its own batch granularity; rows, codes
    // and counters do not depend on it.
    const BATCH_ROWS: usize = 1024;
    let mut intersect = SetOperation::new(
        d1.batches(BATCH_ROWS),
        d2.batches(BATCH_ROWS),
        SetOp::Intersect,
        BATCH_ROWS,
        Arc::clone(stats),
    );
    let mut out = Vec::new();
    while let Some(batch) = intersect.next_batch() {
        out.extend(batch.to_ovc_rows());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::Ovc;
    use ovc_sort::MemoryRunStorage;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn table(n: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..domain)]))
            .collect()
    }

    #[test]
    fn in_sort_distinct_output_is_distinct_sorted_exact() {
        let rows = table(2000, 50, 1);
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let out: Vec<OvcRow> =
            in_sort_distinct(rows.clone(), 1, 128, 64, &mut storage, &stats).collect();
        let expect: BTreeSet<u64> = rows.iter().map(|r| r.cols()[0]).collect();
        let got: Vec<u64> = out.iter().map(|r| r.row.cols()[0]).collect();
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
        let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
        assert_codes_exact(&pairs, 1);
    }

    #[test]
    fn in_sort_distinct_spills_less_than_input() {
        // With 2000 rows over 50 distinct values and 128-row memory, early
        // duplicate removal shrinks every spilled run drastically.
        let rows = table(2000, 50, 2);
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let _ = in_sort_distinct(rows, 1, 128, 64, &mut storage, &stats).count();
        assert!(
            stats.rows_spilled() < 2000,
            "in-sort aggregation must spill fewer rows than the input ({})",
            stats.rows_spilled()
        );
    }

    #[test]
    fn sort_intersect_matches_reference() {
        let t1 = table(3000, 40, 3);
        let t2 = table(3000, 60, 4);
        let expect: Vec<u64> = {
            let a: BTreeSet<u64> = t1.iter().map(|r| r.cols()[0]).collect();
            let b: BTreeSet<u64> = t2.iter().map(|r| r.cols()[0]).collect();
            a.intersection(&b).copied().collect()
        };
        let stats = Stats::new_shared();
        let mut s1 = MemoryRunStorage::new(Arc::clone(&stats));
        let mut s2 = MemoryRunStorage::new(Arc::clone(&stats));
        let cfg = IntersectConfig {
            key_len: 1,
            memory_rows: 256,
            fan_in: 64,
        };
        let out = sort_intersect_distinct(t1, t2, cfg, &mut s1, &mut s2, &stats);
        let got: Vec<u64> = out.iter().map(|r| r.row.cols()[0]).collect();
        assert_eq!(got, expect);
        let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
        assert_codes_exact(&pairs, 1);
    }

    #[test]
    fn sort_plan_spills_each_row_at_most_once() {
        // Figure 6's claim: the sort-based plan spills each input row only
        // once (here even less, thanks to in-sort dedup).
        let t1 = table(4000, 3000, 5); // mostly distinct
        let t2 = table(4000, 3000, 6);
        let stats = Stats::new_shared();
        let mut s1 = MemoryRunStorage::new(Arc::clone(&stats));
        let mut s2 = MemoryRunStorage::new(Arc::clone(&stats));
        let cfg = IntersectConfig {
            key_len: 1,
            memory_rows: 400,
            fan_in: 64,
        };
        let _ = sort_intersect_distinct(t1, t2, cfg, &mut s1, &mut s2, &stats);
        assert!(
            stats.rows_spilled() <= 8000,
            "each row spilled at most once, got {}",
            stats.rows_spilled()
        );
    }

    #[test]
    fn small_inputs_never_spill() {
        let stats = Stats::new_shared();
        let mut s1 = MemoryRunStorage::new(Arc::clone(&stats));
        let mut s2 = MemoryRunStorage::new(Arc::clone(&stats));
        let cfg = IntersectConfig {
            key_len: 1,
            memory_rows: 1000,
            fan_in: 64,
        };
        let out = sort_intersect_distinct(
            table(100, 10, 7),
            table(100, 10, 8),
            cfg,
            &mut s1,
            &mut s2,
            &stats,
        );
        assert!(!out.is_empty());
        assert_eq!(stats.rows_spilled(), 0);
    }
}
