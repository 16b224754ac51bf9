//! Physical plans: chosen operators, inferred properties, estimated cost.
//!
//! Every node records the [`PhysicalProps`] the planner inferred for its
//! output.  Since the ordering/partitioning API redesign those properties
//! are first-class values, not counts:
//!
//! * **order** — a full [`SortSpec`] (per-column directions, optional
//!   normalized-key encoding) plus the `coded` flag, the machinery behind
//!   the paper's "interesting orderings" argument: properties flow
//!   bottom-up through order-preserving operators (by the theorems of
//!   `ovc_core::theorem`), and wherever a required ordering is already
//!   satisfied by a coded stream the planner records a
//!   [`PhysOp::TrustSorted`] marker instead of a sort.  Those markers are
//!   the *elided sorts*; tests audit them with
//!   [`ovc_core::derive::assert_codes_exact_spec`] on the very streams
//!   they trusted.
//! * **partitioning** — a [`Partitioning`] value describing how the
//!   output is laid out across streams.  Explicit [`PhysOp::Exchange`]
//!   nodes move data between layouts (Section 4.10's order-preserving
//!   shuffles, lowered onto the batch exchange: `ovc_exec::route_batches`
//!   to split, `ovc_sort::merge_batch_streams` to gather), which is how
//!   a merge join runs partition-parallel over hash-co-partitioned
//!   inputs.  Many-to-many is a gather followed by a split.

use std::fmt;

use ovc_core::SortSpec;

use crate::cost::Cost;
use crate::logical::{Aggregate, JoinType, Predicate, SetOp};

/// How a plan node's output is laid out across streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// No guarantee / don't care — the wildcard on the *required* side
    /// of property matching (any layout satisfies it).
    Any,
    /// One stream (the default for every serial operator).
    Single,
    /// `parts` streams, rows routed by a hash of the named columns; rows
    /// agreeing on those columns share a partition — the co-location
    /// guarantee partitioned joins and aggregations build on.
    Hash {
        /// Columns hashed together to pick a partition.
        cols: Vec<usize>,
        /// Number of partitions (= the degree of parallelism).
        parts: usize,
    },
}

impl Partitioning {
    /// Does this layout satisfy `required`?  `Any` as a requirement is
    /// the wildcard; everything else matches exactly.
    pub fn satisfies(&self, required: &Partitioning) -> bool {
        matches!(required, Partitioning::Any) || self == required
    }

    /// Number of parallel streams in this layout.
    pub fn parts(&self) -> usize {
        match self {
            Partitioning::Hash { parts, .. } => *parts,
            _ => 1,
        }
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::Any => f.write_str("any"),
            Partitioning::Single => f.write_str("single"),
            Partitioning::Hash { cols, parts } => {
                f.write_str("hash(")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "c{c}")?;
                }
                write!(f, ")x{parts}")
            }
        }
    }
}

/// Inferred output properties of a physical plan node.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalProps {
    /// Columns per output row.
    pub width: usize,
    /// The ordering contract the output rows follow (empty = none).
    pub order: SortSpec,
    /// Does the output carry exact offset-value codes at the full arity
    /// of `order`?  (Every ordered operator in this repository produces
    /// them, but the flag keeps the property explicit and auditable.)
    pub coded: bool,
    /// How the output is laid out across streams.  `Single` for every
    /// serial operator; `Hash` between a splitting [`PhysOp::Exchange`]
    /// and the gathering one.
    pub partitioning: Partitioning,
    /// Estimated output row count.
    pub rows: f64,
    /// Estimated distinct full rows in the output.
    pub distinct_rows: f64,
    /// Highest degree of parallelism used anywhere in the subtree that
    /// produces this output (1 = fully serial).  Output rows and codes
    /// are dop-invariant (parallel and serial plans answer identically,
    /// byte for byte); counters follow the chosen lowering.  This
    /// property carries the *wall-clock* side of the plan, while `Cost`
    /// carries the counted side.
    pub dop: usize,
}

impl PhysicalProps {
    /// Leading sort-key arity of the output order (0 = unordered).
    /// Compatibility accessor for the pre-`SortSpec` prefix-count view.
    pub fn ordered_key(&self) -> usize {
        self.order.len()
    }

    /// Does this output satisfy an ordering requirement — the required
    /// spec a `(column, direction)`-exact prefix of the carried order,
    /// with codes available?
    pub fn satisfies_ordering(&self, required: &SortSpec) -> bool {
        self.coded && self.order.satisfies(required)
    }
}

/// One physical operator, with children embedded.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub enum PhysOp {
    /// Scan of a table stored sorted: replays codes derived at
    /// registration (Section 4.11 — scans are a source of codes).
    ScanCoded {
        /// Catalog table name.
        table: String,
    },
    /// Scan of an unsorted table: raw rows, no order, no codes.
    ScanRows {
        /// Catalog table name.
        table: String,
    },
    /// External merge sort with offset-value coding (`ovc-sort`),
    /// direction-aware: the spec may mix ascending and descending
    /// columns and request normalized-key run generation.
    SortOvc {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Ordering (and code arity) of the output.
        spec: SortSpec,
        /// Memory budget in rows (stamped from the planner config).
        memory_rows: usize,
        /// Merge fan-in.
        fan_in: usize,
        /// Threads sorting each run-generation workspace
        /// (`ovc_sort::SortConfig::threads`); rows, codes and spills are
        /// the same at any value.
        dop: usize,
    },
    /// **Elided sort**: the input already carries the required ordering
    /// and exact codes, so no work happens here.  The node stays in the
    /// plan as an auditable record of what the planner trusted.
    TrustSorted {
        /// Input plan (already ordered and coded).
        input: Box<PhysicalPlan>,
        /// The ordering requirement that was satisfied without sorting.
        spec: SortSpec,
    },
    /// **Reused opposite ordering**: the input is sorted and coded on
    /// exactly the reversed spec, so the requirement is met by reading it
    /// back to front, codes shifted from their forward successors' — no
    /// column comparison, no `log N` sort factor, no spill.
    Reverse {
        /// Input plan (ordered and coded on `spec.reversed()`).
        input: Box<PhysicalPlan>,
        /// The ordering the reversed output satisfies.
        spec: SortSpec,
    },
    /// External sort with duplicate removal folded into run generation
    /// and merging (Figure 5's sort-side blocking operator).
    InSortDistinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Ordering of the output — the full row width under set
        /// semantics (ascending in every plan this planner emits).
        spec: SortSpec,
        /// Memory budget in rows.
        memory_rows: usize,
        /// Merge fan-in.
        fan_in: usize,
        /// Threads sorting each run-generation workspace, as for
        /// [`PhysOp::SortOvc`].
        dop: usize,
    },
    /// Streaming duplicate removal by code inspection (input must be
    /// sorted and coded on the full row).
    DedupCodes {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// Hash-based duplicate removal (`ovc-baseline`): arbitrary output
    /// order, spills every row when over budget.
    HashDistinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Memory budget in rows.
        memory_rows: usize,
    },
    /// Streaming predicate filter (filter theorem for output codes).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row predicate.
        pred: Predicate,
    },
    /// Column projection; keeps codes for the surviving key prefix.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Column indices to emit.
        cols: Vec<usize>,
        /// Leading sort-key columns that survive in place.
        surviving_key: usize,
    },
    /// In-stream grouping/aggregation over a sorted coded input.
    GroupOvc {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping-key length.
        group_len: usize,
        /// Aggregates appended after the group key.
        aggs: Vec<Aggregate>,
    },
    /// Merge join consuming and producing codes (Section 4.7).  When its
    /// inputs are hash-co-partitioned on the join key (explicit
    /// [`PhysOp::Exchange`] children), the join runs one worker thread
    /// per partition pair.
    MergeJoinOvc {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join-key length.
        join_len: usize,
        /// Join type.
        join_type: JoinType,
    },
    /// Spilling Grace hash join (`ovc-baseline`), inner joins only.
    GraceHashJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join-key length.
        join_len: usize,
        /// Memory budget in rows.
        memory_rows: usize,
    },
    /// Merge-based set operation over sorted coded inputs.
    SetOpMerge {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Which set operation.
        op: SetOp,
    },
    /// First `k` rows of a sorted coded input.
    TopK {
        /// Input plan (ordered).
        input: Box<PhysicalPlan>,
        /// Rows to keep.
        k: usize,
    },
    /// Order-preserving exchange (Section 4.10): moves the input into
    /// the target [`Partitioning`].  `Single → Hash` lowers onto the
    /// splitting shuffle (`ovc_exec::route_batches` on a producer
    /// thread, one filter-theorem accumulator per partition),
    /// `Hash → Single` onto the merging shuffle (a tree-of-losers over
    /// the live partition batch streams).  Codes stay exact across both.
    Exchange {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Target layout.
        to: Partitioning,
        /// Rows per [`ovc_core::FlatRows`] batch crossing this exchange's
        /// channels (`None` = the executor's own batch size).  Stamped
        /// by [`crate::planner::PlannerConfig::with_batch_size`] and
        /// shown by `EXPLAIN`.
        batch: Option<usize>,
    },
}

/// A physical plan node: operator, inferred properties, cumulative cost.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// The operator and its children.
    pub op: PhysOp,
    /// Inferred output properties.
    pub props: PhysicalProps,
    /// Estimated cumulative cost of the whole subtree.
    pub cost: Cost,
}

impl PhysicalPlan {
    /// Operator name for display and tests.
    pub fn op_name(&self) -> &'static str {
        match &self.op {
            PhysOp::ScanCoded { .. } => "ScanCoded",
            PhysOp::ScanRows { .. } => "ScanRows",
            PhysOp::SortOvc { .. } => "SortOvc",
            PhysOp::TrustSorted { .. } => "TrustSorted",
            PhysOp::Reverse { .. } => "Reverse",
            PhysOp::InSortDistinct { .. } => "InSortDistinct",
            PhysOp::DedupCodes { .. } => "DedupCodes",
            PhysOp::HashDistinct { .. } => "HashDistinct",
            PhysOp::Filter { .. } => "Filter",
            PhysOp::Project { .. } => "Project",
            PhysOp::GroupOvc { .. } => "GroupOvc",
            PhysOp::MergeJoinOvc { .. } => "MergeJoinOvc",
            PhysOp::GraceHashJoin { .. } => "GraceHashJoin",
            PhysOp::SetOpMerge { .. } => "SetOpMerge",
            PhysOp::TopK { .. } => "TopK",
            PhysOp::Exchange { .. } => "Exchange",
        }
    }

    /// Children of this node, in order.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysOp::ScanCoded { .. } | PhysOp::ScanRows { .. } => vec![],
            PhysOp::SortOvc { input, .. }
            | PhysOp::TrustSorted { input, .. }
            | PhysOp::Reverse { input, .. }
            | PhysOp::InSortDistinct { input, .. }
            | PhysOp::DedupCodes { input }
            | PhysOp::HashDistinct { input, .. }
            | PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::GroupOvc { input, .. }
            | PhysOp::TopK { input, .. }
            | PhysOp::Exchange { input, .. } => vec![input],
            PhysOp::MergeJoinOvc { left, right, .. }
            | PhysOp::GraceHashJoin { left, right, .. }
            | PhysOp::SetOpMerge { left, right, .. } => vec![left, right],
        }
    }

    /// All nodes of the subtree, preorder.
    pub fn nodes(&self) -> Vec<&PhysicalPlan> {
        let mut out = vec![self];
        for c in self.children() {
            out.extend(c.nodes());
        }
        out
    }

    /// Count operators by name (test/inspection convenience).
    pub fn count_op(&self, name: &str) -> usize {
        self.nodes().iter().filter(|n| n.op_name() == name).count()
    }

    /// The elided-sort markers in this plan: every place the planner
    /// trusted an existing ordering instead of sorting.
    pub fn elided_sorts(&self) -> Vec<&PhysicalPlan> {
        self.nodes()
            .into_iter()
            .filter(|n| matches!(n.op, PhysOp::TrustSorted { .. }))
            .collect()
    }

    /// The explicit exchange operators in this plan (splits and
    /// gathers), preorder.
    pub fn exchanges(&self) -> Vec<&PhysicalPlan> {
        self.nodes()
            .into_iter()
            .filter(|n| matches!(n.op, PhysOp::Exchange { .. }))
            .collect()
    }

    /// Does the plan contain any sort-based blocking/streaming-order
    /// operator (the OVC side of the paper's comparison)?
    pub fn uses_sort_based_ops(&self) -> bool {
        self.nodes().iter().any(|n| {
            matches!(
                n.op,
                PhysOp::SortOvc { .. }
                    | PhysOp::InSortDistinct { .. }
                    | PhysOp::MergeJoinOvc { .. }
                    | PhysOp::SetOpMerge { .. }
                    | PhysOp::DedupCodes { .. }
            )
        })
    }

    /// Does the plan contain any hash-based operator (the baseline side)?
    pub fn uses_hash_based_ops(&self) -> bool {
        self.nodes().iter().any(|n| {
            matches!(
                n.op,
                PhysOp::HashDistinct { .. } | PhysOp::GraceHashJoin { .. }
            )
        })
    }

    /// Render the plan tree with properties and costs (`EXPLAIN`).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// Operator detail string as rendered by [`PhysicalPlan::explain`]
    /// (key, predicate, partitioning target, …) — shared with the
    /// profiler so `EXPLAIN` and `EXPLAIN ANALYZE` label nodes
    /// identically.
    pub fn op_detail(&self) -> String {
        match &self.op {
            PhysOp::ScanCoded { table } | PhysOp::ScanRows { table } => format!(" {table}"),
            PhysOp::SortOvc { spec, dop, .. } | PhysOp::InSortDistinct { spec, dop, .. } => {
                if *dop > 1 {
                    format!(" key={spec} dop={dop}")
                } else {
                    format!(" key={spec}")
                }
            }
            PhysOp::TrustSorted { spec, .. } => format!(" key={spec} (sort elided)"),
            PhysOp::Reverse { spec, .. } => format!(" key={spec} (reused opposite order)"),
            PhysOp::Filter { pred, .. } => format!(" [{pred}]"),
            PhysOp::Project { cols, .. } => format!(" {cols:?}"),
            PhysOp::GroupOvc { group_len, .. } => format!(" group={group_len}"),
            PhysOp::MergeJoinOvc {
                join_len,
                join_type,
                ..
            } => {
                format!(" {join_type:?} on={join_len}")
            }
            PhysOp::GraceHashJoin { join_len, .. } => format!(" Inner on={join_len}"),
            PhysOp::SetOpMerge { op, .. } => format!(" {op:?}"),
            PhysOp::TopK { k, .. } => format!(" k={k}"),
            PhysOp::Exchange { to, batch, .. } => match batch {
                Some(b) => format!(" -> {to} batch={b}"),
                None => format!(" -> {to}"),
            },
            _ => String::new(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let detail = self.op_detail();
        let dop = if self.props.dop > 1 {
            format!(", dop={}", self.props.dop)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{pad}{}{detail}  [rows~{:.0}, order={}, coded={}, part={}{dop}, spill~{:.0}]",
            self.op_name(),
            self.props.rows,
            self.props.order,
            self.props.coded,
            self.props.partitioning,
            self.cost.spill_rows,
        );
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::ScanCoded { table: name.into() },
            props: PhysicalProps {
                width: 1,
                order: SortSpec::asc(1),
                coded: true,
                partitioning: Partitioning::Single,
                rows: 10.0,
                distinct_rows: 10.0,
                dop: 1,
            },
            cost: Cost::zero(),
        }
    }

    #[test]
    fn tree_walks_and_counters() {
        let l = leaf("a");
        let r = leaf("b");
        let join = PhysicalPlan {
            props: l.props.clone(),
            cost: Cost::zero(),
            op: PhysOp::MergeJoinOvc {
                left: Box::new(PhysicalPlan {
                    props: l.props.clone(),
                    cost: Cost::zero(),
                    op: PhysOp::TrustSorted {
                        input: Box::new(l),
                        spec: SortSpec::asc(1),
                    },
                }),
                right: Box::new(r),
                join_len: 1,
                join_type: JoinType::Inner,
            },
        };
        assert_eq!(join.nodes().len(), 4);
        assert_eq!(join.elided_sorts().len(), 1);
        assert_eq!(join.count_op("ScanCoded"), 2);
        assert!(join.uses_sort_based_ops());
        assert!(!join.uses_hash_based_ops());
        assert!(join.exchanges().is_empty());
        let ex = join.explain();
        assert!(ex.contains("sort elided"), "{ex}");
        assert!(ex.contains("MergeJoinOvc"), "{ex}");
        assert!(ex.contains("order=[c0 asc]"), "{ex}");
        assert!(ex.contains("part=single"), "{ex}");
    }

    #[test]
    fn props_satisfaction() {
        use ovc_core::Direction;
        let p = PhysicalProps {
            width: 3,
            order: SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]),
            coded: true,
            partitioning: Partitioning::Single,
            rows: 1.0,
            distinct_rows: 1.0,
            dop: 1,
        };
        assert!(p.satisfies_ordering(&SortSpec::asc(1)));
        assert!(p.satisfies_ordering(&p.order));
        assert!(
            !p.satisfies_ordering(&SortSpec::asc(2)),
            "direction matters"
        );
        assert!(!p.satisfies_ordering(&SortSpec::asc(3)));
        assert_eq!(p.ordered_key(), 2);
        let un = PhysicalProps { coded: false, ..p };
        assert!(!un.satisfies_ordering(&SortSpec::asc(1)));
    }

    #[test]
    fn partitioning_satisfaction_and_display() {
        let hash = Partitioning::Hash {
            cols: vec![0, 1],
            parts: 4,
        };
        assert!(hash.satisfies(&Partitioning::Any));
        assert!(hash.satisfies(&hash.clone()));
        assert!(!hash.satisfies(&Partitioning::Single));
        assert!(Partitioning::Single.satisfies(&Partitioning::Any));
        assert_eq!(hash.parts(), 4);
        assert_eq!(Partitioning::Single.parts(), 1);
        assert_eq!(hash.to_string(), "hash(c0,c1)x4");
        assert_eq!(Partitioning::Single.to_string(), "single");
        assert_eq!(Partitioning::Any.to_string(), "any");
    }

    #[test]
    fn exchange_nodes_render_their_target() {
        let base = leaf("t");
        let split = PhysicalPlan {
            props: PhysicalProps {
                partitioning: Partitioning::Hash {
                    cols: vec![0],
                    parts: 4,
                },
                dop: 4,
                ..base.props.clone()
            },
            cost: Cost::zero(),
            op: PhysOp::Exchange {
                input: Box::new(base),
                to: Partitioning::Hash {
                    cols: vec![0],
                    parts: 4,
                },
                batch: None,
            },
        };
        let ex = split.explain();
        assert!(ex.contains("Exchange -> hash(c0)x4"), "{ex}");
        assert!(ex.contains("part=hash(c0)x4"), "{ex}");
        assert!(ex.contains("dop=4"), "{ex}");
        assert_eq!(split.exchanges().len(), 1);
    }
}
