//! # ovc-exec — query execution operators that consume and produce OVCs
//!
//! The paper's main contribution (Section 4): every order-preserving
//! query execution operator can *produce* offset-value codes for its
//! output from the codes of its inputs, with "no additional column value
//! comparisons beyond those required in the operation itself":
//!
//! * [`filter`] — predicate filter via the filter theorem (§4.1, Table 3);
//! * [`project`] — projection and sort-key clamping (§4.2);
//! * [`dedup`] — duplicate removal by code inspection (§4.4);
//! * [`group`] — in-stream grouping/aggregation, Figure 4's operator (§4.5);
//! * [`pivot`] — pivoting as grouping (§4.6);
//! * [`merge_join`] — inner/semi/anti/outer merge joins whose merge logic
//!   itself compares codes (§4.7);
//! * [`set_ops`] — union/intersect/except and multiset variants (§4.7);
//! * [`nlj`] — nested-loops and b-tree lookup joins (§4.8);
//! * [`hash_join_op`] — order-preserving in-memory hash join (§4.9);
//! * [`window`] — analytic (window) functions over coded streams (§5);
//! * [`batch`] — morsel-style batch-at-a-time counterparts (filter,
//!   project, clamp, dedup, top-k, and the splitting shuffle) over
//!   [`ovc_core::FlatRows`] batches with seam-exact codes;
//! * [`exchange`] — order-preserving split and merge shuffles (§4.10),
//!   single-threaded data-flow semantics;
//! * [`parallel`] — the same shuffles on real producer/consumer threads
//!   with bounded channels (the exchange-parallel regime of F1 Query);
//! * [`plans`] — the sort-based "intersect distinct" plan of Figure 5.
//!
//! Every operator upholds the [`ovc_core::stream::OvcStream`] contract:
//! output codes are exact, so operators compose into arbitrarily deep
//! pipelines carrying codes end to end.

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
pub mod parallel;
pub mod pivot;
pub mod plans;
pub mod project;
pub mod set_ops;
pub mod window;

pub use batch::{
    route_batches, BatchChannelStream, BatchClampKey, BatchDedup, BatchFilter, BatchFrame,
    BatchProject, BatchTake,
};
pub use dedup::{Dedup, DedupCounting};
pub use filter::Filter;
pub use group::{
    Aggregate, GroupAggregate, GroupCountDistinct, GroupCountDistinctPartial, GroupFinal,
    GroupPartial,
};
pub use hash_join_op::{HashJoinOp, HashTable};
pub use merge_join::{JoinType, MergeJoin, NULL_VALUE};
pub use nlj::{BTreeInner, InnerSource, LookupJoin, PredicateInner};
pub use parallel::{
    count_distinct_partitions_partial, group_partitions_partial, merge_threaded,
    merge_threaded_spec, repartition_threaded, split_threaded, ChannelStream, MergeThreaded,
    SplitThreads, DEFAULT_CHANNEL_CAPACITY,
};
pub use pivot::{Pivot, PivotSpec};
pub use project::{ClampKey, Project};
pub use set_ops::{SetOp, SetOperation};
pub use window::{Window, WindowFunc};
