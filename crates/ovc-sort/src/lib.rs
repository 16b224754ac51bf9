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
//! ```
//! use ovc_core::{Row, Stats};
//! use ovc_sort::external::{external_sort_collect, SortConfig};
//!
//! let rows = vec![Row::new(vec![3, 1]), Row::new(vec![1, 2]), Row::new(vec![2, 0])];
//! let stats = Stats::new_shared();
//! let sorted = external_sort_collect(rows, SortConfig::new(2, 1024), &stats);
//! assert_eq!(sorted[0].row.cols()[0], 1);
//! assert_eq!(sorted.len(), 3);
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
    external_sort, external_sort_collect, external_sort_spec, external_sort_spec_collect,
    external_sort_spec_to_run, try_external_sort_spec, try_sort_batches, MemoryRunStorage,
    RunStorage, SortConfig, SortOutput,
};
pub use merge::{merge_batch_streams, merge_runs_spec, merge_runs_to_run_spec};
pub use parallel::{
    parallel_sort, parallel_sort_batches, parallel_sort_distinct, parallel_sort_spec,
};
pub use run_gen::{
    generate_runs, generate_runs_spec, sort_rows_ovc, sort_rows_ovc_spec, sort_rows_quicksort_spec,
    RunGenStrategy,
};
pub use runs::{Run, RunCursor};
pub use segmented::SegmentedSort;
pub use tree::FlatMerge;
