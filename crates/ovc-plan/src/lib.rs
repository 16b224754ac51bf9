//! # ovc-plan — an order-aware query planner over the OVC operator library
//!
//! The paper's headline claim (Sections 4.7 and 6, Figures 5 and 6) is a
//! *planning* claim: sort-based query plans that exploit interesting
//! orderings **and** offset-value codes beat hash-based plans.  The other
//! crates of this workspace supply both operator families; this crate
//! supplies the component that chooses between them:
//!
//! * [`logical`] — a small logical algebra (`Scan`, `Filter`, `Project`,
//!   `Join`, `GroupBy`, `Distinct`, `SetOperation`, `Sort`, `TopK`) with a
//!   fluent [`logical::LogicalPlan`] builder;
//! * [`catalog`] — named base tables; tables stored sorted derive their
//!   offset-value codes once at registration and keep rows and codes in
//!   one flat buffer that scans slice batches out of (Section 4.11:
//!   scans are a source of codes as important as sorting);
//! * [`physical`] — physical plans annotated with inferred
//!   [`physical::PhysicalProps`]: sort order *and* code availability,
//!   propagated through each operator by the `ovc_core::theorem` rules;
//! * [`cost`] — a cost model in the same counter units that
//!   [`ovc_core::Stats`] measures, folded with [`ovc_core::CostWeights`]
//!   so estimates and observations share a scale;
//! * [`planner`] — the chooser: per blocking operator it prices the OVC
//!   sort-based implementation against the hash-based baseline, and it
//!   **elides redundant sorts** (recorded as auditable
//!   [`physical::PhysOp::TrustSorted`] markers) whenever a required
//!   ordering is already carried by a coded stream;
//! * [`exec`] — the executor: four entry points over one
//!   batch-at-a-time lowering of chosen plans onto
//!   `ovc-exec`/`ovc-sort`/`ovc-baseline` operators, returning a coded
//!   [`ovc_core::OvcStream`] for ordered plans;
//! * [`profile`] — `EXPLAIN ANALYZE`: [`exec::execute_profiled`] meters
//!   every lowered operator into an [`ovc_core::metrics::ProfileNode`]
//!   tree (rows, wall time, comparison counts, exchange channel gauges)
//!   and [`physical::PhysicalPlan::explain_analyze`] renders estimates
//!   beside measurements;
//! * [`figure5`] — the paper's Figure 5 experiment: both plans derived
//!   from one logical query; Figure 6's counts come from running them.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use ovc_core::{Row, Stats};
//! use ovc_plan::{Catalog, Table, LogicalPlan, Planner, PlannerConfig, SetOp};
//! use ovc_plan::exec::{execute, ExecOptions};
//!
//! // Figure 5: select B from T1 intersect select B from T2 — but with
//! // the inputs stored sorted, so no sort is needed anywhere.
//! let mut catalog = Catalog::new();
//! catalog.register("t1", Table::sorted(vec![Row::new(vec![1]), Row::new(vec![2])], 1));
//! catalog.register("t2", Table::sorted(vec![Row::new(vec![2]), Row::new(vec![3])], 1));
//!
//! let query = LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), SetOp::Intersect);
//! let plan = Planner::new(&catalog, PlannerConfig::default()).plan(&query).unwrap();
//! assert_eq!(plan.elided_sorts().len(), 2); // both sorts elided
//!
//! let stats = Stats::new_shared();
//! let out = execute(&plan, &catalog, &stats, &ExecOptions::default());
//! let rows: Vec<Row> = out.into_rows();
//! assert_eq!(rows, vec![Row::new(vec![2])]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch_exec;
pub mod catalog;
pub mod cost;
pub mod exec;
pub mod figure5;
pub mod logical;
pub mod physical;
pub mod planner;
pub mod profile;

pub use catalog::{Catalog, Table};
pub use cost::Cost;
pub use exec::{
    execute, execute_ctx, execute_ctx_profiled, execute_into, execute_profiled, ExecOptions,
    Output, DEFAULT_BATCH_ROWS,
};
pub use logical::{Aggregate, JoinType, LogicalPlan, Predicate, SetOp};
pub use physical::{Partitioning, PhysOp, PhysicalPlan, PhysicalProps};
pub use planner::{PlanError, Planner, PlannerConfig, Preference};
pub use profile::{build_profile, render_analyze};

// The property types plans are matched on, re-exported so planner users
// need not depend on `ovc-core` directly.
pub use ovc_core::{Direction, SortSpec};
