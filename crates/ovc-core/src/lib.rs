//! # ovc-core — offset-value coding foundations
//!
//! Reproduction of the foundational machinery of *"Offset-value coding in
//! database query processing"* (Goetz Graefe and Thanh Do, EDBT 2023;
//! extended version arXiv:2210.00034):
//!
//! * [`row`] — rows of `u64` columns with prefix sort keys;
//! * [`ovc`] — ascending offset-value codes packed in one `u64`, with early
//!   and late fences folded in (the F1 layout of Section 5);
//! * [`desc`] — descending codes and the dual theorem (Table 1);
//! * [`normalized`] — byte-offset codes over normalized keys (the IBM CFC
//!   variant of Sections 3 and 4.1);
//! * [`compare`] — instrumented comparators implementing Iyer's equal- and
//!   unequal-code theorems (Table 2);
//! * [`theorem`] — the paper's new `max`-combination theorem, the filter
//!   corollary, and the [`theorem::OvcAccumulator`] every operator uses to
//!   produce output codes;
//! * [`mod@derive`] — reference derivation/validation of exact codes;
//! * [`ctx`] — per-query execution context ([`ctx::QueryCtx`]:
//!   cancellation, deadlines, spill budgets) and the typed
//!   [`ctx::ExecError`] every failure is returned as;
//! * [`fault`] — the deterministic, seeded fault-injection registry
//!   (zero-cost when disabled) behind the fault-tolerance test suite;
//! * [`flat`] — [`flat::FlatRows`]: contiguous struct-of-arrays storage for
//!   coded rows, the memory layout of the sort/merge hot path (one
//!   `Vec<u64>` of values plus a parallel `Vec<Ovc>` of codes);
//! * [`spec`] — [`spec::SortSpec`]: the first-class ordering contract
//!   (per-column directions plus an optional normalized-key flag) that
//!   streams carry and planners match on;
//! * [`stream`] — the row-at-a-time [`stream::OvcStream`] contract of the
//!   library's edge and the test oracles (the engine hands coded rows
//!   over as [`batch::BatchStream`] batches; its one materialized coded
//!   run is `ovc_sort::Run`);
//! * [`batch`] — the [`batch::BatchStream`] contract for morsel-style
//!   batch-at-a-time pipelines: fixed-size [`flat::FlatRows`] batches
//!   whose codes stay exact across batch seams (cut with
//!   [`flat::FlatRows::slice`], rejoined with
//!   [`flat::FlatRows::extend_from`], no repair either way), with
//!   seam-aware validation;
//! * [`stats`] — comparison and spill accounting for the paper's `N × K`
//!   bound and the Figure 6 spill claims (one sendable [`stats::Stats`],
//!   merged across threads by snapshot);
//! * [`metrics`] — per-operator runtime profiling (`EXPLAIN ANALYZE`):
//!   the [`metrics::ProfileNode`] accumulator tree executors stamp
//!   measurements into, and the [`metrics::ChannelGauge`] wait/occupancy
//!   counters of the threaded exchange;
//! * [`table1`] — the paper's running example as a shared fixture.
//!
//! ## Quick example
//!
//! ```
//! use ovc_core::{Row, Ovc, derive::derive_codes};
//!
//! // Table 1 of the paper: a sorted stream with four key columns.
//! let rows = ovc_core::table1::rows();
//! let codes = derive_codes(&rows, 4);
//!
//! // First row is coded relative to "−∞": offset 0, value 5 ("405").
//! assert_eq!(codes[0], Ovc::new(0, 5, 4));
//! // The duplicate row's code has offset == arity ("0" ascending).
//! assert!(codes[4].is_duplicate());
//! # let _ = Row::new(vec![1]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod compare;
pub mod ctx;
pub mod derive;
pub mod desc;
pub mod fault;
pub mod flat;
pub mod metrics;
pub mod normalized;
pub mod ovc;
pub mod row;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod table1;
pub mod theorem;

pub use batch::{BatchStream, FlatBatches, RowBatches, VecBatchStream};
pub use ctx::{ExecError, QueryCtx};
pub use flat::FlatRows;
pub use metrics::{
    ChannelGauge, ChannelGaugeSnapshot, ExchangeGauges, OpMetrics, PlanProfile, ProfileNode,
};
pub use ovc::Ovc;
pub use row::{Row, SortKey, Value};
pub use spec::{Direction, SortSpec};
pub use stats::{CmpCounter, CostWeights, Stats, StatsSnapshot, Tally};
pub use stream::{OvcRow, OvcStream, VecStream};
