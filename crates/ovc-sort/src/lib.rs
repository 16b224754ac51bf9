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
//!   quicksort (baseline);
//! * [`replacement`] — replacement selection for longer runs;
//! * [`merge`] — multi-way merging that consumes *and produces* codes;
//! * [`external`] — the external merge sort modeled on F1's sort operator,
//!   with spill accounting;
//! * [`parallel`] — parallel run generation (one sorter thread per row
//!   range of one flat buffer) feeding the same bounded-fan-in coded merge, with
//!   byte-identical output rows and codes;
//! * [`segmented`] — segmented sorting (Section 4.3), finding segment
//!   boundaries by code inspection alone.
//!
//! One coded run type, [`Run`], and sorts that take batches: the
//! executor calls [`try_sort_batches`] and [`parallel_sort_batches`] and
//! drains [`SortOutput::batches`]; boxed rows enter at the edge cut into
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
pub mod parallel;
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
pub use parallel::parallel_sort_batches;
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
