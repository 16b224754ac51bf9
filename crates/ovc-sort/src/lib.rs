//! # ovc-sort — sorting with tree-of-losers priority queues and OVC
//!
//! The sorting substrate of the EDBT 2023 reproduction (Sections 3 and 5
//! of the paper):
//!
//! * [`tree`] — the tree-of-losers priority queue of Figures 1–3, with
//!   fences and offset-value codes folded into one 64-bit comparison: one
//!   merge tournament ([`FlatMerge`]) for every merge in the workspace;
//! * [`runs`] — sorted coded runs in flat columnar layout (in-memory
//!   prefix-truncation equivalent);
//! * [`run_gen`] — run generation by priority queue (OVC-native) or
//!   quicksort (baseline), each workspace sorted on one thread or as
//!   contiguous slices on several, merged back into the same run;
//! * [`replacement`] — replacement selection for longer runs;
//! * [`merge`] — multi-way merging that consumes *and produces* codes;
//! * [`external`] — the external merge sort modeled on F1's sort operator,
//!   with spill accounting: the one sort, whatever its thread count
//!   ([`SortConfig::with_threads`]), with byte-identical rows, codes and
//!   spill counters at every thread count;
//! * [`segmented`] — segmented sorting (Section 4.3), finding segment
//!   boundaries by code inspection alone.
//!
//! One coded run type, [`Run`], and sorts that take batches: the
//! executor calls [`try_sort_batches`] and drains
//! [`SortOutput::batches`]; boxed rows enter at the edge cut into
//! batches ([`ovc_core::RowBatches`]), as [`external_sort_spec_to_run`]
//! does for them.
//!
//! ```
//! use std::sync::Arc;
//! use ovc_core::{Row, SortSpec, Stats};
//! use ovc_sort::{external_sort_spec_to_run, MemoryRunStorage, SortConfig};
//!
//! let rows = vec![Row::new(vec![3, 1]), Row::new(vec![1, 2]), Row::new(vec![2, 0])];
//! let stats = Stats::new_shared();
//! let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
//! let config = SortConfig::new(2, 1024);
//! let run = external_sort_spec_to_run(rows, config, &SortSpec::asc(2), &mut storage, &stats);
//! assert_eq!(run.row(0), &[1, 2]);
//! assert_eq!(run.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod external;
pub mod merge;
pub mod replacement;
pub mod run_gen;
pub mod runs;
pub mod segmented;
pub mod tree;

pub use external::{
    external_sort_spec_to_run, try_sort_batches, MemoryRunStorage, RunStorage, SortConfig,
    SortOutput,
};
pub use merge::{merge_batch_streams, merge_runs_spec, merge_runs_to_run_spec};
pub use run_gen::{generate_runs_spec, sort_rows_ovc, RunGenStrategy};
pub use runs::Run;
pub use segmented::SegmentedSort;
pub use tree::FlatMerge;

#[cfg(test)]
/// A batch stream that passes on `left` batches of `inner`, then fails
/// with [`ovc_core::ExecError::Cancelled`]: the failing input of the
/// error-path unit tests.
pub(crate) struct FailAfter<B> {
    pub(crate) inner: B,
    pub(crate) left: usize,
}

#[cfg(test)]
impl<B: ovc_core::BatchStream> ovc_core::BatchStream for FailAfter<B> {
    fn next_batch(&mut self) -> Result<Option<ovc_core::FlatRows>, ovc_core::ExecError> {
        if self.left == 0 {
            return Err(ovc_core::ExecError::Cancelled);
        }
        self.left -= 1;
        self.inner.next_batch()
    }
    fn sort_spec(&self) -> ovc_core::SortSpec {
        self.inner.sort_spec()
    }
}

/// The parallel sort's tests, kept since its own module was folded into
/// [`external`]: each runs [`try_sort_batches`] with
/// [`SortConfig::with_threads`] against the one-thread sort.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{try_sort_batches, MemoryRunStorage, SortConfig};
        use ovc_core::batch::collect_batch_pairs;
        use ovc_core::derive::assert_codes_exact;
        use ovc_core::{Ovc, Row, RowBatches, SortSpec, Stats};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Arc;

        fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
                .collect()
        }

        /// The sort of `rows` (one input batch) on `threads` threads,
        /// drained.
        fn par_pairs(
            rows: &[Row],
            spec: &SortSpec,
            (threads, memory_rows, fan_in): (usize, usize, usize),
            stats: &Arc<Stats>,
        ) -> Vec<(Row, Ovc)> {
            let mut storage = MemoryRunStorage::new(Arc::clone(stats));
            let input = RowBatches::new(rows.to_vec(), usize::MAX);
            let cfg = SortConfig::new(spec.len(), memory_rows)
                .with_fan_in(fan_in)
                .with_threads(threads);
            let out = try_sort_batches(input, cfg, spec, false, &mut storage, stats);
            collect_batch_pairs(out.unwrap().batches(1024))
        }

        /// The one-thread sort of `rows` (`memory_rows`-row input
        /// batches), drained.
        fn serial_pairs(rows: &[Row], spec: &SortSpec, memory_rows: usize) -> Vec<(Row, Ovc)> {
            let stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let input = RowBatches::new(rows.to_vec(), memory_rows);
            let cfg = SortConfig::new(spec.len(), memory_rows);
            let out = try_sort_batches(input, cfg, spec, false, &mut storage, &stats);
            collect_batch_pairs(out.unwrap().batches(1024))
        }

        #[test]
        fn parallel_sort_matches_serial_rows_and_codes() {
            let rows = random_rows(5000, 3, 12, 1);
            let spec = SortSpec::asc(3);
            for threads in [1usize, 2, 3, 4, 8] {
                let s_par = Stats::new_shared();
                let par = par_pairs(&rows, &spec, (threads, 256, 128), &s_par);
                let ser = serial_pairs(&rows, &spec, 256);
                assert_eq!(par, ser, "threads={threads}");
                assert_codes_exact(&par, 3);
            }
        }

        #[test]
        fn parallel_sort_counts_worker_comparisons() {
            // Every worker's counts land in the caller's counters; the N×K
            // bound holds regardless of the thread count.
            let rows = random_rows(2000, 2, 5, 2);
            let stats = Stats::new_shared();
            let _ = par_pairs(&rows, &SortSpec::asc(2), (4, 128, 128), &stats);
            assert!(stats.col_value_cmps() > 0, "worker counters merged");
            assert!(
                stats.col_value_cmps() <= 2000 * 2,
                "N*K bound: {}",
                stats.col_value_cmps()
            );
        }

        #[test]
        fn narrow_fan_in_cascades_without_spilling() {
            // The fan-in bounds the merges of spilled runs, not the
            // in-memory merge of one workspace's slices: an input that
            // fits its workspace stays resident at four threads and a
            // fan-in of three.
            let rows = random_rows(3000, 2, 10, 4);
            let stats = Stats::new_shared();
            let spec = SortSpec::asc(2);
            let out = par_pairs(&rows, &spec, (4, 4096, 3), &stats);
            let ser = serial_pairs(&rows, &spec, 64);
            assert_eq!(out, ser);
            assert_eq!(stats.rows_spilled(), 0);
        }

        #[test]
        fn parallel_sort_spec_matches_serial_on_mixed_directions() {
            // A mixed asc/desc spec at every thread count must match the
            // one-thread spec sort row for row and code for code.
            use ovc_core::derive::assert_codes_exact_spec;
            use ovc_core::spec::Direction;

            let rows = random_rows(4000, 3, 9, 6);
            let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc, Direction::Asc]);
            let ser = serial_pairs(&rows, &spec, 256);
            for threads in [1usize, 2, 4, 8] {
                let stats = Stats::new_shared();
                let par = par_pairs(&rows, &spec, (threads, 256, 8), &stats);
                assert_eq!(par, ser, "threads={threads}");
                assert_codes_exact_spec(&par, &spec);
                assert!(stats.col_value_cmps() > 0, "worker counters merged");
            }
        }

        #[test]
        fn parallel_sort_spec_descending_only() {
            let rows = random_rows(1500, 2, 6, 7);
            let spec = SortSpec::desc(2);
            let ser = serial_pairs(&rows, &spec, 128);
            let par = par_pairs(&rows, &spec, (4, 128, 8), &Stats::new_shared());
            assert_eq!(par, ser);
        }

        #[test]
        fn degenerate_inputs() {
            let stats = Stats::new_shared();
            let sort = |rows: &[Row], threads| {
                par_pairs(rows, &SortSpec::asc(2), (threads, 16, 128), &stats)
            };
            assert_eq!(sort(&[], 8).len(), 0);
            let one = sort(&[Row::new(vec![7, 7])], 8);
            assert_eq!(one.len(), 1);
            // More threads than rows clamps to one row per worker.
            let few = random_rows(3, 2, 4, 5);
            let out = sort(&few, 64);
            assert_eq!(out.len(), 3);
        }
    }
}
