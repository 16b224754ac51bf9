//! # ovc-exec — query execution operators that consume and produce OVCs
//!
//! The paper's main contribution (Section 4): every order-preserving
//! query execution operator can *produce* offset-value codes for its
//! output from the codes of its inputs, with "no additional column value
//! comparisons beyond those required in the operation itself":
//!
//! * [`filter`] — predicate filter via the filter theorem (§4.1, Table 3),
//!   a batch kernel;
//! * [`project`] — projection and sort-key clamping (§4.2), batch kernels;
//! * [`dedup`] — duplicate removal by code inspection (§4.4), a batch
//!   kernel;
//! * [`group`] — in-stream grouping/aggregation, Figure 4's operator
//!   (§4.5), a batch kernel; Section 3's count-distinct (dedup under a
//!   `Count`) and §4.6's pivot (one [`Aggregate::SumWhere`] per bucket)
//!   are plans over it;
//! * [`merge_join`] — inner/semi/anti/outer merge joins whose merge logic
//!   is a two-leaf tree-of-losers playing the sort tournament's own match
//!   (§4.7), a batch kernel;
//! * [`set_ops`] — union/intersect/except and multiset variants (§4.7),
//!   a batch kernel over the same merge that keeps counts, not rows;
//! * [`nlj`] — nested-loops and b-tree lookup joins (§4.8);
//! * [`hash_join_op`] — order-preserving in-memory hash join (§4.9);
//! * [`window`] — analytic (window) functions over coded streams (§5);
//! * [`batch`] — batch top-k over [`ovc_core::FlatRows`] batches with
//!   seam-exact codes, and the exchange's splitting side and channels;
//! * [`exchange`] — the order-preserving exchange (§4.10): how the one
//!   batch exchange realizes the paper's three shuffles, and its hash
//!   partitioner.
//!
//! Every operator upholds the coded-stream contract — batch-at-a-time
//! ([`ovc_core::batch::BatchStream`], seams included) or, for the §4.8,
//! §4.9 and window operators, row-at-a-time
//! ([`ovc_core::stream::OvcStream`]): output codes are exact, so
//! operators compose into arbitrarily deep pipelines carrying codes end
//! to end.  Each of §4.1, §4.2 and §4.4 has one implementation, a batch
//! kernel; the batch kernels (filter, projection, clamp, dedup, top-k,
//! merge join, set operations, group-by) are what the planner's executor
//! lowers onto; they read their inputs' key and code slices in place and
//! box no row.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod dedup;
pub mod exchange;
pub mod filter;
pub mod group;
pub mod hash_join_op;
pub mod merge_join;
pub mod nlj;
pub mod project;
pub mod set_ops;
pub mod window;

pub use batch::{route_batches, BatchChannelStream, BatchTake, DEFAULT_CHANNEL_CAPACITY};
pub use dedup::BatchDedup;
pub use filter::BatchFilter;
pub use group::{Aggregate, GroupAggregate};
pub use hash_join_op::{HashJoinOp, HashTable};
pub use merge_join::{JoinType, MergeJoin, NULL_VALUE};
pub use nlj::{BTreeInner, InnerSource, LookupJoin, PredicateInner};
pub use project::{BatchClampKey, BatchProject};
pub use set_ops::{SetOp, SetOperation};
pub use window::{Window, WindowFunc};

/// §4.6's pivot on the operator: a [`GroupAggregate`] on the group key
/// with one [`Aggregate::SumWhere`] per bucket (the planned form is
/// checked in `tests/planner_properties.rs`).
#[cfg(test)]
mod pivot {
    mod tests {
        use crate::{Aggregate, GroupAggregate};
        use ovc_core::batch::collect_batch_pairs;
        use ovc_core::derive::assert_codes_exact;
        use ovc_core::{Ovc, Row, Stats};
        use ovc_sort::Run;

        /// Group `rows` (sorted on two key columns) on column 0, summing
        /// column `value_col` where column 1 equals each bucket.
        fn pivot(rows: Vec<Row>, value_col: usize, buckets: &[u64]) -> Vec<(Row, Ovc)> {
            let input = Run::from_sorted_rows(rows, 2).batches(3);
            let aggregates = buckets
                .iter()
                .map(|&b| Aggregate::SumWhere {
                    col: value_col,
                    when: 1,
                    equals: b,
                })
                .collect();
            collect_batch_pairs(GroupAggregate::new(
                input,
                1,
                aggregates,
                2,
                Stats::new_shared(),
            ))
        }

        /// The paper's own example: (year, month, sales) pivoted to
        /// (year, monthly sales columns).
        #[test]
        fn year_month_sales() {
            let rows = vec![
                Row::new(vec![2021, 1, 100]),
                Row::new(vec![2021, 1, 50]),
                Row::new(vec![2021, 3, 70]),
                Row::new(vec![2022, 2, 10]),
                Row::new(vec![2022, 3, 20]),
            ];
            let pairs = pivot(rows, 2, &[1, 2, 3]);
            let got: Vec<Vec<u64>> = pairs.iter().map(|(r, _)| r.cols().to_vec()).collect();
            assert_eq!(got, vec![vec![2021, 150, 0, 70], vec![2022, 0, 10, 20]]);
            assert_codes_exact(&pairs, 1);
        }

        #[test]
        fn values_outside_buckets_are_dropped() {
            let pairs = pivot(vec![Row::new(vec![1, 99, 5])], 2, &[1, 2]);
            let out: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
            assert_eq!(out, vec![Row::new(vec![1, 0, 0])]);
        }

        #[test]
        fn empty_input() {
            assert!(pivot(vec![], 1, &[]).is_empty());
            assert!(pivot(vec![], 2, &[1, 2, 3]).is_empty());
        }
    }
}

#[cfg(test)]
/// Shared fixtures of the batch kernels' unit tests: seeded inputs cut
/// into batch streams, and the row/code digest the
/// old ≡ new constants were recorded with (the row kernels these
/// replaced, at commit 4f110c3, produced the same digests and counters).
pub(crate) mod testkit {
    use ovc_core::{BatchStream, ExecError, FlatBatches, FlatRows, Row, SortSpec};
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` seeded rows, column `c` uniform over `0..domains[c]` (or skewed
    /// towards small values), sorted ascending on all columns.
    pub(crate) fn rows(seed: u64, n: usize, domains: &[u64], skew: bool) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                domains
                    .iter()
                    .map(|&d| {
                        let v = rng.gen_range(0..d);
                        if skew {
                            v * rng.gen_range(0..d) / d
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    /// Code `rows` (already ordered under `spec`) and cut them into
    /// batches of at most `batch` rows.
    pub(crate) fn cut(rows: &[Vec<u64>], spec: &SortSpec, batch: usize) -> FlatBatches {
        let rows = rows.iter().cloned().map(Row::new).collect();
        Run::from_sorted_rows_spec(rows, spec.clone()).batches(batch)
    }

    /// Drain a stream, checking every batch is non-empty and at most
    /// `max` rows.
    pub(crate) fn drain(mut stream: impl BatchStream, max: usize) -> Vec<FlatRows> {
        let mut batches = Vec::new();
        while let Some(b) = stream.next_batch().unwrap() {
            assert!(!b.is_empty() && b.len() <= max, "batch of {} rows", b.len());
            batches.push(b);
        }
        batches
    }

    /// A batch stream that passes on `left` batches of `inner`, then
    /// fails with [`ExecError::Cancelled`].
    pub(crate) struct FailAfter<B> {
        pub(crate) inner: B,
        pub(crate) left: usize,
    }

    impl<B: BatchStream> BatchStream for FailAfter<B> {
        fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
            if self.left == 0 {
                return Err(ExecError::Cancelled);
            }
            self.left -= 1;
            self.inner.next_batch()
        }
        fn sort_spec(&self) -> SortSpec {
            self.inner.sort_spec()
        }
    }

    /// `(rows, FNV-1a over every column value and raw code)`.
    pub(crate) fn digest(batches: &[FlatRows]) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut n = 0;
        for (cols, code) in batches.iter().flat_map(FlatRows::iter) {
            cols.iter().for_each(|&c| mix(c));
            mix(code.raw());
            n += 1;
        }
        (n, h)
    }
}
