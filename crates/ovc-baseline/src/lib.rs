//! # ovc-baseline — the algorithms the paper compares against
//!
//! The hash kernels the planner lowers Figure 5's hash plan onto, and
//! the rivals the `ablation_counters` bench counts against the
//! offset-value-coded operators:
//!
//! * [`hash_agg`] — spilling (Grace-style) hash aggregation for duplicate
//!   removal (`HashDistinct`: Figure 5's hash plan, first two blocking
//!   operators);
//! * [`hash_join`] — spilling Grace hash join (`GraceHashJoin`: Figure
//!   5's hash plan, third blocking operator);
//! * [`group_full`] — in-stream aggregation detecting group boundaries by
//!   "full comparisons of multiple key columns" (Figure 4's baseline);
//! * [`sort_plain`] — external merge sort without offset-value coding
//!   (baseline for hypothesis 1).
//!
//! The whole hash plan is the planner's: `ovc_plan::figure5` with
//! `Preference::ForceHashBased`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod group_full;
pub mod hash_agg;
pub mod hash_join;
pub mod sort_plain;

pub use group_full::GroupFullCompare;
pub use hash_agg::hash_aggregate_distinct;
pub use hash_join::grace_hash_join;
pub use sort_plain::{
    external_sort_plain, merge_runs_plain, sort_rows_plain, sort_rows_plain_spec,
};
