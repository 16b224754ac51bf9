//! The order-aware planner: logical algebra in, physical plan out.
//!
//! For every logical node the planner keeps (up to) two alternatives —
//! one whose output is **sorted and coded** on the node's natural key,
//! one with no order guarantee — and prices both with the cost model.
//! Operators that require physical properties go through enforcer-style
//! property matching:
//!
//! * **Ordering** (`Planner::ensure_ordered`, requirement expressed as
//!   a full [`SortSpec`]): when a child alternative already satisfies the
//!   spec with exact offset-value codes the planner **elides the sort**
//!   ([`PhysOp::TrustSorted`]); when the child carries exactly the
//!   *opposite* ordering it reuses the stream by reversal
//!   ([`PhysOp::Reverse`] — codes shifted, not re-derived, no sort); only
//!   otherwise does it insert a real [`PhysOp::SortOvc`] with
//!   direction-aware codes (or [`PhysOp::InSortDistinct`] when distinct
//!   semantics allow folding the dedup in).
//! * **Partitioning** (`Planner::exchange_to`): when the config grants
//!   a degree of parallelism and the input is large enough, merge
//!   joins, groupings, and set operations are bracketed with explicit
//!   [`PhysOp::Exchange`] nodes — hash-split the input(s) on the
//!   operator's key (join key, full group key, or whole row), run one
//!   worker per partition, gather with the order-preserving merging
//!   shuffle (the F1-Query-style exchange parallelism of Section 4.10).
//!
//! The elision justification is the property-propagation theorems of
//! [`ovc_core::theorem`] (order-preserving operators produce exact codes
//! from exact codes), and tests audit every marker with
//! [`ovc_core::derive::assert_codes_exact_spec`].
//!
//! This is the choice the paper's Section 6 evaluation makes by hand:
//! between the sort-based Figure 5 plan (interesting orderings + codes)
//! and the hash-based one (three blocking operators, rows spilled twice).

use std::fmt;

use ovc_core::{CostWeights, SortSpec};

use crate::catalog::Catalog;
use crate::cost::{self, Cost};
use crate::exec::DEFAULT_BATCH_ROWS;
use crate::logical::{JoinType, Logical, LogicalPlan, SetOp};
use crate::physical::{Partitioning, PhysOp, PhysicalPlan, PhysicalProps};

/// Which side of the paper's comparison the planner may pick from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Preference {
    /// Pick by estimated cost (the planner's purpose).
    #[default]
    Auto,
    /// Use OVC sort-based operators wherever one exists (Figure 5 right).
    ForceSortBased,
    /// Use hash-based operators wherever one exists (Figure 5 left).
    ForceHashBased,
}

/// Planner knobs; also stamped into blocking operators at lowering time.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Memory budget in rows per blocking operator.
    pub memory_rows: usize,
    /// Merge fan-in for external sorts.
    pub fan_in: usize,
    /// Physical-operator preference.
    pub preference: Preference,
    /// Weights folding estimated counters into one scalar.
    pub weights: CostWeights,
    /// Degree of parallelism available (1 = serial).  Sorts over at
    /// least [`PlannerConfig::parallel_threshold_rows`] estimated rows
    /// are stamped with this dop and sort each run-generation workspace
    /// on that many threads; merge joins whose combined input clears
    /// the same threshold are bracketed with explicit
    /// [`PhysOp::Exchange`] nodes and run one worker per hash partition.
    pub dop: usize,
    /// Minimum estimated input rows before an operator goes parallel —
    /// below this, thread spawn and coordination outweigh the work (an
    /// uncounted wall-clock effect, hence a floor rather than a cost
    /// term).
    pub parallel_threshold_rows: usize,
    /// Rows per flat batch crossing exchange channels (`None` = whatever
    /// the executor runs with, [`crate::DEFAULT_BATCH_ROWS`] unless
    /// [`crate::ExecOptions::batch_size`] says otherwise).  A `Some` is
    /// stamped onto every [`PhysOp::Exchange`] the planner emits — where
    /// it overrides the executor's size — and shown by `EXPLAIN`; either
    /// way the exchange is priced with [`cost::exchange`].
    pub batch_size: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            memory_rows: 4096,
            fan_in: 64,
            preference: Preference::Auto,
            weights: CostWeights::default(),
            dop: 1,
            parallel_threshold_rows: 4096,
            batch_size: None,
        }
    }
}

impl PlannerConfig {
    /// Override the memory budget.
    pub fn with_memory_rows(mut self, memory_rows: usize) -> Self {
        self.memory_rows = memory_rows.max(1);
        self
    }

    /// Override the merge fan-in.
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in.max(2);
        self
    }

    /// Override the preference.
    pub fn with_preference(mut self, preference: Preference) -> Self {
        self.preference = preference;
        self
    }

    /// Override the degree of parallelism.
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    /// Override the row floor above which operators run parallel.
    pub fn with_parallel_threshold(mut self, rows: usize) -> Self {
        self.parallel_threshold_rows = rows;
        self
    }

    /// Request flat-batch exchanges of `rows` rows per batch.
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.batch_size = Some(rows.max(1));
        self
    }
}

/// Why a logical plan could not be planned.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A scan references a table the catalog does not know.
    UnknownTable(String),
    /// Inputs or arguments violate an operator's schema contract.
    Schema(String),
    /// The request is well-formed but outside what the physical operator
    /// library can execute (e.g. a non-leading-prefix sort spec).
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            PlanError::Schema(msg) => write!(f, "schema error: {msg}"),
            PlanError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Alternatives kept per logical node: at most one plan per interesting
/// physical-property class (the two-class core of a System-R style
/// optimizer — "no ordering" and "sorted + coded on the natural key").
struct Alts {
    ordered: Option<PhysicalPlan>,
    unordered: Option<PhysicalPlan>,
}

impl Alts {
    /// Cheapest available alternative (ordered wins ties: its extra
    /// properties are free at equal cost).
    fn best(self, w: &CostWeights) -> PhysicalPlan {
        match (self.ordered, self.unordered) {
            (Some(o), Some(u)) => {
                if o.cost.total(w) <= u.cost.total(w) {
                    o
                } else {
                    u
                }
            }
            (Some(o), None) => o,
            (None, Some(u)) => u,
            (None, None) => unreachable!("every node produces at least one alternative"),
        }
    }
}

/// The planner: borrows a catalog, holds a config.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    config: PlannerConfig,
}

impl<'a> Planner<'a> {
    /// A planner over `catalog` with the given config.
    pub fn new(catalog: &'a Catalog, config: PlannerConfig) -> Self {
        Planner { catalog, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plan a logical query, returning the cheapest physical plan.
    pub fn plan(&self, query: &LogicalPlan) -> Result<PhysicalPlan, PlanError> {
        Ok(self.alts(&query.root)?.best(&self.config.weights))
    }

    fn alts(&self, node: &Logical) -> Result<Alts, PlanError> {
        match node {
            Logical::Scan { table } => self.plan_scan(table),
            Logical::Filter { input, pred } => {
                let child = self.alts(input)?;
                let ((width, ..), col) = (child_shape(&child), pred.max_col());
                if col >= width {
                    return Err(PlanError::Schema(format!(
                        "predicate [{pred}] reads column {col} of a {width}-column input"
                    )));
                }
                let mk = |input: PhysicalPlan| {
                    let sel = pred.selectivity();
                    let props = PhysicalProps {
                        rows: input.props.rows * sel,
                        distinct_rows: (input.props.distinct_rows * sel).max(1.0),
                        ..input.props.clone()
                    };
                    let local = Cost {
                        col_cmps: input.props.rows, // predicate column accesses
                        ..cost::streaming(input.props.rows)
                    };
                    PhysicalPlan {
                        cost: input.cost.plus(&local),
                        props,
                        op: PhysOp::Filter {
                            input: Box::new(input),
                            pred: pred.clone(),
                        },
                    }
                };
                Ok(Alts {
                    ordered: child.ordered.map(mk),
                    unordered: child.unordered.map(mk),
                })
            }
            Logical::Project { input, cols } => self.plan_project(input, cols),
            Logical::Distinct { input } => self.plan_distinct(input),
            Logical::GroupBy {
                input,
                group_len,
                aggs,
            } => self.plan_group_by(input, *group_len, aggs),
            Logical::Join {
                left,
                right,
                join_len,
                join_type,
            } => self.plan_join(left, right, *join_len, *join_type),
            Logical::SetOperation { left, right, op } => self.plan_set_op(left, right, *op),
            Logical::Sort { input, spec } => {
                if !spec.is_prefix() {
                    return Err(PlanError::Unsupported(format!(
                        "sort spec {spec} is not a leading-column prefix; \
                         project the key columns to the front first"
                    )));
                }
                let child = self.alts(input)?;
                let plan = self.ensure_ordered(&child, spec, false)?;
                Ok(Alts {
                    ordered: Some(plan),
                    unordered: None,
                })
            }
            Logical::TopK { input, key_len, k } => {
                let child = self.alts(input)?;
                let input = self.ensure_ordered(&child, &SortSpec::asc(*key_len), false)?;
                let props = PhysicalProps {
                    rows: input.props.rows.min(*k as f64),
                    distinct_rows: input.props.distinct_rows.min(*k as f64),
                    ..input.props.clone()
                };
                let plan = PhysicalPlan {
                    cost: input.cost.plus(&cost::streaming(*k as f64)),
                    props,
                    op: PhysOp::TopK {
                        input: Box::new(input),
                        k: *k,
                    },
                };
                Ok(Alts {
                    ordered: Some(plan),
                    unordered: None,
                })
            }
        }
    }

    fn plan_scan(&self, table: &str) -> Result<Alts, PlanError> {
        let t = self
            .catalog
            .get(table)
            .ok_or_else(|| PlanError::UnknownTable(table.to_string()))?;
        let base = PhysicalProps {
            width: t.width(),
            order: SortSpec::none(),
            coded: false,
            partitioning: Partitioning::Single,
            rows: t.len() as f64,
            distinct_rows: t.distinct_rows() as f64,
            dop: 1,
        };
        let unordered = PhysicalPlan {
            op: PhysOp::ScanRows {
                table: table.to_string(),
            },
            props: base.clone(),
            cost: Cost::zero(),
        };
        let ordered = (!t.sort_spec().is_empty()).then(|| PhysicalPlan {
            op: PhysOp::ScanCoded {
                table: table.to_string(),
            },
            props: PhysicalProps {
                order: t.sort_spec().clone(),
                coded: true,
                ..base
            },
            cost: Cost::zero(),
        });
        Ok(Alts {
            ordered,
            unordered: Some(unordered),
        })
    }

    fn plan_project(&self, input: &Logical, cols: &[usize]) -> Result<Alts, PlanError> {
        let child = self.alts(input)?;
        let child_width = child
            .ordered
            .as_ref()
            .or(child.unordered.as_ref())
            .map(|p| p.props.width)
            .unwrap_or(0);
        if let Some(&bad) = cols.iter().find(|&&c| c >= child_width) {
            return Err(PlanError::Schema(format!(
                "projection references column {bad} of a {child_width}-column input"
            )));
        }
        // "If all columns in the sort key survive the projection, codes
        // are the same; if not, the offset must be limited to the prefix
        // that survives" (Section 4.2): the surviving key is the longest
        // prefix of the input sort key kept in place.
        let in_place = cols
            .iter()
            .enumerate()
            .take_while(|&(i, &c)| c == i)
            .count();
        let dropped = child_width.saturating_sub(cols.len()) as i32;
        let mk = |input: PhysicalPlan, surviving_key: usize| {
            let props = PhysicalProps {
                width: cols.len(),
                order: input.props.order.prefix(surviving_key),
                coded: input.props.coded && surviving_key > 0,
                partitioning: input.props.partitioning.clone(),
                rows: input.props.rows,
                distinct_rows: (input.props.distinct_rows * 0.8f64.powi(dropped)).max(1.0),
                dop: input.props.dop,
            };
            let local = cost::streaming(input.props.rows);
            PhysicalPlan {
                cost: input.cost.plus(&local),
                props,
                op: PhysOp::Project {
                    input: Box::new(input),
                    cols: cols.to_vec(),
                    surviving_key,
                },
            }
        };
        let Alts {
            ordered: child_ordered,
            unordered: child_unordered,
        } = child;
        let ordered = child_ordered.as_ref().and_then(|o| {
            let surviving = in_place.min(o.props.order.len());
            (surviving > 0).then(|| mk(o.clone(), surviving))
        });
        // A projection that destroys the ordering still lowers over an
        // ordered-only child (Sort, TopK, GroupBy outputs) as a plain
        // unordered projection.
        let unordered = child_unordered.map(|u| mk(u, 0)).or_else(|| {
            if ordered.is_none() {
                child_ordered.map(|o| mk(o, 0))
            } else {
                None
            }
        });
        Ok(Alts { ordered, unordered })
    }

    fn plan_distinct(&self, input: &Logical) -> Result<Alts, PlanError> {
        let child = self.alts(input)?;
        let (width, rows, distinct) = child_shape(&child);
        let w = &self.config.weights;

        // Sort-based: trust an existing full-row ordering (streaming dedup
        // by code inspection — one integer test per row) or fold the
        // dedup into the sort itself.
        let sorted = if self.config.preference == Preference::ForceHashBased {
            None
        } else {
            let ordered_in =
                self.ensure_ordered_alternatives(&child, &SortSpec::asc(width), true)?;
            Some(match ordered_in {
                Ensured::Trusted(plan) => {
                    let props = PhysicalProps {
                        rows: distinct,
                        distinct_rows: distinct,
                        ..plan.props.clone()
                    };
                    PhysicalPlan {
                        cost: plan.cost.plus(&cost::streaming(rows)),
                        props,
                        op: PhysOp::DedupCodes {
                            input: Box::new(plan),
                        },
                    }
                }
                Ensured::Sorted(plan) => plan, // InSortDistinct already dedups
            })
        };

        // Hash-based: arbitrary output order.
        let hashed = if self.config.preference == Preference::ForceSortBased {
            None
        } else {
            child_clone_best(&child, w).map(|input| {
                let local = cost::hash_distinct(rows, width, self.config.memory_rows);
                let props = PhysicalProps {
                    width,
                    order: SortSpec::none(),
                    coded: false,
                    partitioning: Partitioning::Single,
                    rows: distinct,
                    distinct_rows: distinct,
                    dop: input.props.dop,
                };
                PhysicalPlan {
                    cost: input.cost.plus(&local),
                    props,
                    op: PhysOp::HashDistinct {
                        input: Box::new(input),
                        memory_rows: self.config.memory_rows,
                    },
                }
            })
        };

        Ok(Alts {
            ordered: sorted,
            unordered: hashed,
        })
    }

    fn plan_group_by(
        &self,
        input: &Logical,
        group_len: usize,
        aggs: &[crate::logical::Aggregate],
    ) -> Result<Alts, PlanError> {
        let child = self.alts(input)?;
        let (width, rows, distinct) = child_shape(&child);
        if group_len > width {
            return Err(PlanError::Schema(format!(
                "group key of {group_len} columns exceeds input width {width}"
            )));
        }
        for agg in aggs {
            if let Some(bad) = agg.max_col().filter(|&c| c >= width) {
                return Err(PlanError::Schema(format!(
                    "aggregate {agg:?} reads column {bad} of a {width}-column input"
                )));
            }
        }
        // Grouping exploits sorted coded input (Figure 4's operator); the
        // repository's hash side has no grouping aggregation, and the
        // paper's point is that it should not need one.
        let input = self.ensure_ordered(&child, &SortSpec::asc(group_len), false)?;
        let groups = distinct
            .powf(group_len as f64 / width.max(1) as f64)
            .min(rows)
            .max(1.0);
        // The partitioning enforcer, generalized from merge joins: with a
        // dop granted and enough rows (`partition_target`), bracket the
        // grouping with explicit exchanges — hash the input on the full
        // group key (equal group keys co-locate, so every group completes
        // inside one worker), group partition-wise on worker threads,
        // gather with the order-preserving merging shuffle.  Rows and
        // codes are dop-invariant.  An empty group key has nothing to
        // hash (one global group) and stays serial.
        let target = self.partition_target(group_len, rows, &[&input]);
        let (input, group_partitioning, group_dop) = match &target {
            Some(to) => (
                self.exchange_to(input, to.clone()),
                to.clone(),
                self.config.dop,
            ),
            None => (input, Partitioning::Single, 1),
        };
        let local = cost::streaming(rows);
        let props = PhysicalProps {
            width: group_len + aggs.len(),
            order: SortSpec::asc(group_len),
            coded: true,
            partitioning: group_partitioning,
            rows: groups,
            distinct_rows: groups,
            dop: group_dop.max(input.props.dop),
        };
        let plan = PhysicalPlan {
            cost: input.cost.plus(&local),
            props,
            op: PhysOp::GroupOvc {
                input: Box::new(input),
                group_len,
                aggs: aggs.to_vec(),
            },
        };
        // Partitioned groupings gather back to a single stream so the
        // plan's output contract is layout-independent.
        let plan = if target.is_some() {
            self.exchange_to(plan, Partitioning::Single)
        } else {
            plan
        };
        Ok(Alts {
            ordered: Some(plan),
            unordered: None,
        })
    }

    /// The partition-parallel gate shared by the join, group-by, and
    /// set-operation enforcers: a dop granted, a non-empty hash key,
    /// enough rows to amortize thread coordination, and a plain
    /// ascending-prefix order on **every** input (a trusted stream may
    /// carry a longer mixed-direction spec, and such operators run
    /// serial rather than risk a mis-specced shuffle; whether the batch
    /// exchange, which carries any spec, would let this gate go is
    /// unverified).  Returns the hash layout to exchange into when all
    /// gates pass.
    fn partition_target(
        &self,
        hash_cols: usize,
        rows: f64,
        inputs: &[&PhysicalPlan],
    ) -> Option<Partitioning> {
        (self.config.dop > 1
            && hash_cols > 0
            && rows >= self.config.parallel_threshold_rows as f64
            && inputs.iter().all(|p| p.props.order.is_asc_prefix()))
        .then(|| Partitioning::Hash {
            cols: (0..hash_cols).collect(),
            parts: self.config.dop,
        })
    }

    /// Apply a granted partition target to a two-input operator:
    /// exchange both inputs into the hash layout, or leave them serial
    /// when no target was granted.  Returns the (possibly bracketed)
    /// inputs plus the operator's partitioning and dop.
    fn bracket_inputs(
        &self,
        li: PhysicalPlan,
        ri: PhysicalPlan,
        target: &Option<Partitioning>,
    ) -> (PhysicalPlan, PhysicalPlan, Partitioning, usize) {
        match target {
            Some(to) => (
                self.exchange_to(li, to.clone()),
                self.exchange_to(ri, to.clone()),
                to.clone(),
                self.config.dop,
            ),
            None => (li, ri, Partitioning::Single, 1),
        }
    }

    /// Wrap `input` in an explicit [`PhysOp::Exchange`] targeting `to`,
    /// with the exchange's code-repair overhead charged via
    /// [`cost::exchange`].
    fn exchange_to(&self, input: PhysicalPlan, to: Partitioning) -> PhysicalPlan {
        let parts = to.parts().max(input.props.partitioning.parts());
        let batch = self.config.batch_size.unwrap_or(DEFAULT_BATCH_ROWS);
        let local = cost::exchange(input.props.rows, parts, batch);
        let props = PhysicalProps {
            partitioning: to.clone(),
            dop: input.props.dop.max(to.parts()),
            ..input.props.clone()
        };
        PhysicalPlan {
            cost: input.cost.plus(&local),
            props,
            op: PhysOp::Exchange {
                input: Box::new(input),
                to,
                batch: self.config.batch_size,
            },
        }
    }

    fn plan_join(
        &self,
        left: &Logical,
        right: &Logical,
        join_len: usize,
        join_type: JoinType,
    ) -> Result<Alts, PlanError> {
        let l = self.alts(left)?;
        let r = self.alts(right)?;
        let (lw, ln, ld) = child_shape(&l);
        let (rw, rn, rd) = child_shape(&r);
        if join_len > lw || join_len > rw {
            return Err(PlanError::Schema(format!(
                "join key of {join_len} columns exceeds input widths {lw}/{rw}"
            )));
        }
        let w = &self.config.weights;

        // Cardinality: containment assumption on the join key.
        let ld_key = ld.powf(join_len as f64 / lw.max(1) as f64).max(1.0);
        let rd_key = rd.powf(join_len as f64 / rw.max(1) as f64).max(1.0);
        let inner_rows = (ln * rn / ld_key.max(rd_key)).max(1.0);
        let (out_width, out_rows) = match join_type {
            JoinType::Inner => (lw + rw - join_len, inner_rows),
            JoinType::LeftOuter => (lw + rw - join_len, inner_rows + ln),
            JoinType::RightOuter => (lw + rw - join_len, inner_rows + rn),
            JoinType::FullOuter => (lw + rw - join_len, inner_rows + ln + rn),
            JoinType::LeftSemi | JoinType::LeftAnti => (lw, (ln * 0.5).max(1.0)),
        };

        let hash_allowed =
            join_type == JoinType::Inner && self.config.preference != Preference::ForceSortBased;
        let merge_allowed = !(hash_allowed && self.config.preference == Preference::ForceHashBased);

        let merged = if merge_allowed {
            let li = self.ensure_ordered(&l, &SortSpec::asc(join_len), false)?;
            let ri = self.ensure_ordered(&r, &SortSpec::asc(join_len), false)?;
            let order = match join_type {
                JoinType::LeftSemi | JoinType::LeftAnti => li.props.order.clone(),
                _ => SortSpec::asc(join_len),
            };
            // The partitioning enforcer: when `partition_target` grants
            // it, bracket the join with explicit exchanges — hash-co-
            // partition both inputs on the whole join key, join
            // partition pairs in parallel, gather with the order-
            // preserving merging shuffle.  Rows and codes are
            // dop-invariant (the gather merge reproduces the serial
            // sequence because equal join keys co-locate).
            let target = self.partition_target(join_len, ln + rn, &[&li, &ri]);
            let (li, ri, join_partitioning, join_dop) = self.bracket_inputs(li, ri, &target);
            let props = PhysicalProps {
                width: out_width,
                order,
                coded: true,
                partitioning: join_partitioning,
                rows: out_rows,
                distinct_rows: out_rows,
                dop: join_dop.max(li.props.dop).max(ri.props.dop),
            };
            let join = PhysicalPlan {
                cost: li
                    .cost
                    .plus(&ri.cost)
                    .plus(&cost::merge_streaming(ln, rn, join_len)),
                props,
                op: PhysOp::MergeJoinOvc {
                    left: Box::new(li),
                    right: Box::new(ri),
                    join_len,
                    join_type,
                },
            };
            // Partitioned joins gather back to a single stream so the
            // plan's output contract is layout-independent.
            Some(if target.is_some() {
                self.exchange_to(join, Partitioning::Single)
            } else {
                join
            })
        } else {
            None
        };

        let hashed = if hash_allowed {
            let li = child_clone_best(&l, w).expect("left alternatives");
            let ri = child_clone_best(&r, w).expect("right alternatives");
            let local = cost::grace_hash_join(ln, rn, join_len, self.config.memory_rows);
            let props = PhysicalProps {
                width: out_width,
                order: SortSpec::none(),
                coded: false,
                partitioning: Partitioning::Single,
                rows: out_rows,
                distinct_rows: out_rows,
                dop: li.props.dop.max(ri.props.dop),
            };
            Some(PhysicalPlan {
                cost: li.cost.plus(&ri.cost).plus(&local),
                props,
                op: PhysOp::GraceHashJoin {
                    left: Box::new(li),
                    right: Box::new(ri),
                    join_len,
                    memory_rows: self.config.memory_rows,
                },
            })
        } else {
            None
        };

        Ok(Alts {
            ordered: merged,
            unordered: hashed,
        })
    }

    fn plan_set_op(&self, left: &Logical, right: &Logical, op: SetOp) -> Result<Alts, PlanError> {
        let l = self.alts(left)?;
        let r = self.alts(right)?;
        let (lw, ln, ld) = child_shape(&l);
        let (rw, rn, rd) = child_shape(&r);
        if lw != rw {
            return Err(PlanError::Schema(format!(
                "set operands must have equal width, got {lw} and {rw}"
            )));
        }
        let w = &self.config.weights;
        let distinct_semantics = matches!(op, SetOp::Union | SetOp::Intersect | SetOp::Except);
        let out_rows = match op {
            SetOp::Union => (ld + rd) * 0.75,
            SetOp::UnionAll => ln + rn,
            SetOp::Intersect => ld.min(rd) * 0.5,
            SetOp::IntersectAll => ln.min(rn) * 0.5,
            SetOp::Except => (ld - rd * 0.5).max(1.0),
            SetOp::ExceptAll => (ln - rn * 0.5).max(1.0),
        }
        .max(1.0);

        // Hash-based lowering exists for INTERSECT (distinct): dedup both
        // sides, then an inner hash join on the whole row — exactly the
        // Figure 5 hash plan with its three blocking operators.
        let hash_allowed =
            op == SetOp::Intersect && self.config.preference != Preference::ForceSortBased;
        let merge_allowed = !(hash_allowed && self.config.preference == Preference::ForceHashBased);

        let merged = if merge_allowed {
            // Distinct set semantics allow (and profit from) in-sort
            // duplicate removal on each input; ALL-semantics must keep
            // multiplicities, so inputs get a plain sort.
            let li = self.ensure_ordered(&l, &SortSpec::asc(lw), distinct_semantics)?;
            let ri = self.ensure_ordered(&r, &SortSpec::asc(rw), distinct_semantics)?;
            // The partitioning enforcer: set semantics compare entire
            // rows, so hash both inputs on the full row width — equal
            // rows co-locate whichever side they come from, every key
            // group is local to one worker, and the gathered output
            // equals the serial operation byte for byte (the merge-join
            // argument verbatim, with "join key" = "whole row").
            let target = self.partition_target(lw, ln + rn, &[&li, &ri]);
            let (li, ri, set_partitioning, set_dop) = self.bracket_inputs(li, ri, &target);
            let local = cost::merge_streaming(li.props.rows, ri.props.rows, lw);
            let props = PhysicalProps {
                width: lw,
                order: SortSpec::asc(lw),
                coded: true,
                partitioning: set_partitioning,
                rows: out_rows,
                distinct_rows: out_rows.min(ld + rd),
                dop: set_dop.max(li.props.dop).max(ri.props.dop),
            };
            let set_plan = PhysicalPlan {
                cost: li.cost.plus(&ri.cost).plus(&local),
                props,
                op: PhysOp::SetOpMerge {
                    left: Box::new(li),
                    right: Box::new(ri),
                    op,
                },
            };
            // Partitioned set operations gather back to a single stream.
            Some(if target.is_some() {
                self.exchange_to(set_plan, Partitioning::Single)
            } else {
                set_plan
            })
        } else {
            None
        };

        let hashed = if hash_allowed {
            let mem = self.config.memory_rows;
            let mk_distinct = |alts: &Alts, rows: f64, distinct: f64| {
                child_clone_best(alts, w).map(|input| {
                    let local = cost::hash_distinct(rows, lw, mem);
                    let props = PhysicalProps {
                        width: lw,
                        order: SortSpec::none(),
                        coded: false,
                        partitioning: Partitioning::Single,
                        rows: distinct,
                        distinct_rows: distinct,
                        dop: input.props.dop,
                    };
                    PhysicalPlan {
                        cost: input.cost.plus(&local),
                        props,
                        op: PhysOp::HashDistinct {
                            input: Box::new(input),
                            memory_rows: mem,
                        },
                    }
                })
            };
            let li = mk_distinct(&l, ln, ld).expect("left alternatives");
            let ri = mk_distinct(&r, rn, rd).expect("right alternatives");
            let local = cost::grace_hash_join(ld, rd, lw, mem);
            let props = PhysicalProps {
                width: lw,
                order: SortSpec::none(),
                coded: false,
                partitioning: Partitioning::Single,
                rows: out_rows,
                distinct_rows: out_rows,
                dop: li.props.dop.max(ri.props.dop),
            };
            Some(PhysicalPlan {
                cost: li.cost.plus(&ri.cost).plus(&local),
                props,
                op: PhysOp::GraceHashJoin {
                    left: Box::new(li),
                    right: Box::new(ri),
                    join_len: lw,
                    memory_rows: mem,
                },
            })
        } else {
            None
        };

        Ok(Alts {
            ordered: merged,
            unordered: hashed,
        })
    }

    /// Make a plan whose output is sorted and coded under `spec`: trust
    /// an existing ordering when the properties prove it (sort
    /// **elided**), reuse an exactly-opposite ordering by reversal,
    /// otherwise insert a real sort — with in-sort duplicate removal
    /// when `distinct` semantics allow it.
    fn ensure_ordered(
        &self,
        child: &Alts,
        spec: &SortSpec,
        distinct: bool,
    ) -> Result<PhysicalPlan, PlanError> {
        Ok(
            match self.ensure_ordered_alternatives(child, spec, distinct)? {
                Ensured::Trusted(p) | Ensured::Sorted(p) => p,
            },
        )
    }

    fn ensure_ordered_alternatives(
        &self,
        child: &Alts,
        spec: &SortSpec,
        distinct: bool,
    ) -> Result<Ensured, PlanError> {
        let w = &self.config.weights;
        let (width, rows, distinct_rows) = child_shape(child);
        if spec.len() > width {
            return Err(PlanError::Schema(format!(
                "ordering on {} columns exceeds input width {width}",
                spec.len()
            )));
        }
        debug_assert!(spec.is_prefix(), "planner only requires prefix specs");
        if let Some(o) = &child.ordered {
            if o.props.satisfies_ordering(spec) {
                // The interesting ordering is already there and the codes
                // are exact by the operator theorems: elide the sort.
                let plan = PhysicalPlan {
                    props: o.props.clone(),
                    cost: o.cost,
                    op: PhysOp::TrustSorted {
                        input: Box::new(o.clone()),
                        spec: spec.clone(),
                    },
                };
                return Ok(Ensured::Trusted(plan));
            }
            // Opposite-direction reuse: a stream sorted on exactly the
            // reversed spec is this ordering read back to front — one
            // materialize-and-reverse with every code shifted onto its
            // new predecessor (no column comparison, no log factor, no
            // spill) beats any sort.  Distinct semantics skip this (a Reverse keeps
            // multiplicities; the in-sort dedup below is the better
            // deal).
            if !distinct && o.props.satisfies_ordering(&spec.reversed()) {
                let props = PhysicalProps {
                    order: spec.clone(),
                    coded: true,
                    ..o.props.clone()
                };
                let plan = PhysicalPlan {
                    cost: o.cost.plus(&cost::reverse(rows)),
                    props,
                    op: PhysOp::Reverse {
                        input: Box::new(o.clone()),
                        spec: spec.clone(),
                    },
                };
                return Ok(Ensured::Sorted(plan));
            }
        }
        let input = child_clone_best(child, w).expect("alternatives exist");
        let (memory_rows, fan_in) = (self.config.memory_rows, self.config.fan_in);
        let key_len = spec.len();
        // The degree-of-parallelism directive: a sort big enough to clear
        // the threshold is stamped with the config's dop and sorts each
        // run-generation workspace on that many threads.  Rows, codes
        // and spills are the same at any dop, so one cost function
        // prices the sort whatever its dop.
        let dop = if self.config.dop > 1
            && rows >= self.config.parallel_threshold_rows as f64
            && spec.is_prefix()
        {
            self.config.dop
        } else {
            1
        };
        let (local, out_rows) = if distinct {
            let local = cost::in_sort_distinct(rows, distinct_rows, key_len, memory_rows, fan_in);
            (local, distinct_rows)
        } else {
            (cost::sort_ovc(rows, key_len, memory_rows, fan_in), rows)
        };
        let props = PhysicalProps {
            width,
            order: spec.clone(),
            coded: true,
            partitioning: Partitioning::Single,
            rows: out_rows,
            distinct_rows,
            dop: dop.max(input.props.dop),
        };
        let cost = input.cost.plus(&local);
        let (input, spec) = (Box::new(input), spec.clone());
        let op = if distinct {
            PhysOp::InSortDistinct {
                input,
                spec,
                memory_rows,
                fan_in,
                dop,
            }
        } else {
            PhysOp::SortOvc {
                input,
                spec,
                memory_rows,
                fan_in,
                dop,
            }
        };
        Ok(Ensured::Sorted(PhysicalPlan { cost, props, op }))
    }
}

enum Ensured {
    /// Requirement satisfied by existing properties (sort elided).
    Trusted(PhysicalPlan),
    /// A sort (possibly with in-sort dedup) or a reversal had to be
    /// inserted.
    Sorted(PhysicalPlan),
}

/// `(width, rows, distinct_rows)` of whichever alternative exists.
fn child_shape(alts: &Alts) -> (usize, f64, f64) {
    let p = alts
        .ordered
        .as_ref()
        .or(alts.unordered.as_ref())
        .expect("every node produces at least one alternative");
    (p.props.width, p.props.rows, p.props.distinct_rows)
}

/// Clone the cheaper alternative for use as an order-free input.
fn child_clone_best(alts: &Alts, w: &CostWeights) -> Option<PhysicalPlan> {
    match (&alts.ordered, &alts.unordered) {
        (Some(o), Some(u)) => Some(if o.cost.total(w) <= u.cost.total(w) {
            o.clone()
        } else {
            u.clone()
        }),
        (Some(o), None) => Some(o.clone()),
        (None, Some(u)) => Some(u.clone()),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::exec::{execute, ExecOptions, Output};
    use crate::logical::{Aggregate, Predicate};
    use ovc_core::derive::{assert_codes_exact_spec, derive_codes_spec};
    use ovc_core::{Direction, Ovc, Row, Stats};

    fn catalog_with(rows: Vec<Vec<u64>>, sorted_key: usize) -> Catalog {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let mut cat = Catalog::new();
        if sorted_key > 0 {
            let mut s = rows;
            s.sort();
            cat.register("t", Table::sorted(s, sorted_key));
        } else {
            cat.register("t", Table::unsorted(rows));
        }
        cat
    }

    /// Regression: a projection that destroys the ordering must still be
    /// plannable over a child with only an ordered alternative (Sort,
    /// TopK, GroupBy outputs), lowering as an unordered projection.
    #[test]
    fn project_dropping_the_key_over_sorted_only_child_plans() {
        let cat = catalog_with(vec![vec![3, 30], vec![1, 10], vec![2, 20]], 0);
        let q = LogicalPlan::scan("t").sort(1).project(vec![1]);
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("must plan");
        assert_eq!(plan.props.width, 1);
        assert!(plan.props.order.is_empty(), "ordering destroyed:\n{plan}");
        let stats = Stats::new_shared();
        let mut rows = execute(&plan, &cat, &stats, &ExecOptions::default()).into_rows();
        rows.sort();
        let expect: Vec<Row> = vec![Row::new(vec![10]), Row::new(vec![20]), Row::new(vec![30])];
        assert_eq!(rows, expect);
    }

    /// Projections keeping the key prefix in place keep order and codes.
    #[test]
    fn project_keeping_prefix_preserves_order_and_codes() {
        let cat = catalog_with(vec![vec![3, 30], vec![1, 10], vec![2, 20]], 2);
        let q = LogicalPlan::scan("t").project(vec![0]).sort(1);
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("must plan");
        assert_eq!(plan.count_op("SortOvc"), 0, "sort elided:\n{plan}");
        assert_eq!(plan.elided_sorts().len(), 1, "{plan}");
        let stats = Stats::new_shared();
        let out = execute(
            &plan,
            &cat,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_rows();
        assert_eq!(
            out,
            vec![Row::new(vec![1]), Row::new(vec![2]), Row::new(vec![3])]
        );
    }

    /// Out-of-range projection columns are a schema error, not a panic.
    #[test]
    fn project_out_of_range_is_schema_error() {
        let cat = catalog_with(vec![vec![1, 2]], 0);
        let err = Planner::new(&cat, PlannerConfig::default())
            .plan(&LogicalPlan::scan("t").project(vec![5]))
            .unwrap_err();
        assert!(matches!(err, PlanError::Schema(_)), "{err}");
    }

    /// Out-of-range aggregate and predicate columns are schema errors
    /// at planning, not index panics in the kernels.
    #[test]
    fn aggregate_and_predicate_columns_out_of_range_are_schema_errors() {
        let cat = catalog_with(vec![vec![1, 2]], 2);
        let planner = Planner::new(&cat, PlannerConfig::default());
        let bad = [
            LogicalPlan::scan("t").group_by(1, vec![Aggregate::Sum(2)]),
            LogicalPlan::scan("t").group_by(1, vec![Aggregate::Count, Aggregate::Max(99)]),
            LogicalPlan::scan("t").group_by(
                1,
                vec![Aggregate::SumWhere {
                    col: 1,
                    when: 2,
                    equals: 0,
                }],
            ),
            LogicalPlan::scan("t").group_by(
                1,
                vec![Aggregate::SumWhere {
                    col: 2,
                    when: 1,
                    equals: 0,
                }],
            ),
            LogicalPlan::scan("t").filter(Predicate::ColLt(99, 5)),
            LogicalPlan::scan("t").filter(Predicate::ColEq(0, 1).or(Predicate::ColGt(2, 0))),
            // The width checked is the filter's input, not the table's.
            LogicalPlan::scan("t")
                .project(vec![0])
                .filter(Predicate::ColEq(1, 2)),
        ];
        for q in &bad {
            let err = planner.plan(q).unwrap_err();
            assert!(matches!(err, PlanError::Schema(_)), "{err} for\n{q}");
        }
        let good = [
            LogicalPlan::scan("t").group_by(
                1,
                vec![Aggregate::SumWhere {
                    col: 1,
                    when: 1,
                    equals: 2,
                }],
            ),
            LogicalPlan::scan("t").filter(Predicate::ColEq(1, 2)),
        ];
        for q in &good {
            planner.plan(q).expect("in-range columns plan");
        }
    }

    /// Filters compose with every downstream shape without losing the
    /// ordered alternative.
    #[test]
    fn filter_preserves_both_alternatives() {
        let cat = catalog_with(vec![vec![3, 1], vec![1, 1], vec![2, 1]], 2);
        let q = LogicalPlan::scan("t")
            .filter(Predicate::ColGt(0, 1))
            .sort(2);
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("plans");
        assert_eq!(plan.count_op("SortOvc"), 0, "filter keeps codes:\n{plan}");
        let stats = Stats::new_shared();
        let out = execute(
            &plan,
            &cat,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_rows();
        assert_eq!(out, vec![Row::new(vec![2, 1]), Row::new(vec![3, 1])]);
    }

    /// A descending sort over an ascending-stored table reuses the
    /// stream by reversal instead of sorting.
    #[test]
    fn descending_sort_over_ascending_table_reverses() {
        let cat = catalog_with(vec![vec![3, 30], vec![1, 10], vec![2, 20]], 2);
        let q = LogicalPlan::scan("t").sort_by(SortSpec::desc(2));
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("plans");
        assert_eq!(plan.count_op("SortOvc"), 0, "no sort:\n{plan}");
        assert_eq!(plan.count_op("Reverse"), 1, "{plan}");
        assert_eq!(plan.props.order, SortSpec::desc(2));
        let stats = Stats::new_shared();
        let out = execute(&plan, &cat, &stats, &ExecOptions::default()).into_rows();
        assert_eq!(
            out,
            vec![
                Row::new(vec![3, 30]),
                Row::new(vec![2, 20]),
                Row::new(vec![1, 10])
            ]
        );

        // Duplicate keys, ties on a key prefix, a stored key longer than
        // the requirement, and mixed directions: every reversed code is
        // exact, and shifting codes compares no column.
        let rows: Vec<Row> = [
            [1u64, 1, 7],
            [2, 0, 5],
            [1, 1, 7],
            [3, 3, 3],
            [2, 0, 6],
            [1, 2, 0],
            [2, 0, 5],
            [2, 3, 1],
        ]
        .iter()
        .map(|r| Row::new(r.to_vec()))
        .collect();
        let mixed = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc, Direction::Asc]);
        for (stored, wanted) in [
            (SortSpec::asc(3), SortSpec::desc(3)),
            (SortSpec::asc(3), SortSpec::desc(2)),
            (mixed.clone(), mixed.reversed()),
            (mixed.prefix(2), mixed.reversed().prefix(1)),
        ] {
            let mut sorted = rows.clone();
            sorted.sort_by(|a, b| stored.cmp_rows(a, b));
            let mut cat = Catalog::new();
            cat.register("t", Table::sorted_by(sorted.clone(), stored.clone()));
            let plan = Planner::new(&cat, PlannerConfig::default())
                .plan(&LogicalPlan::scan("t").sort_by(wanted.clone()))
                .expect("plans");
            assert_eq!(plan.count_op("Reverse"), 1, "{plan}");
            let stats = Stats::new_shared();
            let options = ExecOptions {
                batch_size: Some(3),
                ..ExecOptions::default()
            };
            let pairs: Vec<(Row, Ovc)> = execute(&plan, &cat, &stats, &options)
                .into_coded()
                .into_iter()
                .map(|r| (r.row, r.code))
                .collect();
            sorted.reverse();
            let got: Vec<Row> = pairs.iter().map(|(row, _)| row.clone()).collect();
            assert_eq!(got, sorted, "{stored} reversed to {wanted}");
            let codes: Vec<Ovc> = pairs.iter().map(|&(_, code)| code).collect();
            assert_eq!(
                codes,
                derive_codes_spec(&sorted, &wanted),
                "{stored} → {wanted}"
            );
            assert_codes_exact_spec(&pairs, &wanted);
            assert_eq!(stats.col_value_cmps(), 0, "{stored} reversed to {wanted}");
        }
    }

    /// A projection that drops the leading key over an ordered-only child
    /// promises no codes, so the executor hands back rows rather than a
    /// stream whose codes are all duplicates.
    #[test]
    fn key_dropping_projection_over_ordered_only_child_returns_rows() {
        let cat = catalog_with(vec![vec![3, 30], vec![1, 10], vec![2, 20]], 0);
        let q = LogicalPlan::scan("t").sort(1).project(vec![1]);
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("plans");
        assert!(!plan.props.coded, "{plan}");
        let out = execute(&plan, &cat, &Stats::new_shared(), &ExecOptions::default());
        assert!(matches!(out, Output::Rows(ref rows) if rows.len() == 3));
    }

    /// A mixed-direction sort with no reusable ordering gets a real
    /// direction-aware SortOvc stamped with the requested spec.
    #[test]
    fn mixed_direction_sort_inserts_direction_aware_sort() {
        let cat = catalog_with(vec![vec![3, 1], vec![1, 2], vec![3, 0], vec![1, 9]], 0);
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        let q = LogicalPlan::scan("t").sort_by(spec.clone());
        let plan = Planner::new(&cat, PlannerConfig::default())
            .plan(&q)
            .expect("plans");
        assert_eq!(plan.count_op("SortOvc"), 1, "{plan}");
        assert_eq!(plan.props.order, spec);
        assert!(plan.explain().contains("key=[c0 desc, c1 asc]"), "{plan}");
        let stats = Stats::new_shared();
        let out = execute(&plan, &cat, &stats, &ExecOptions::default()).into_rows();
        assert_eq!(
            out,
            vec![
                Row::new(vec![3, 0]),
                Row::new(vec![3, 1]),
                Row::new(vec![1, 2]),
                Row::new(vec![1, 9])
            ]
        );
    }

    /// Non-prefix sort specs are rejected with a typed error.
    #[test]
    fn non_prefix_sort_spec_is_unsupported() {
        let cat = catalog_with(vec![vec![1, 2]], 0);
        let spec = SortSpec::new(vec![(1, Direction::Asc)]);
        let err = Planner::new(&cat, PlannerConfig::default())
            .plan(&LogicalPlan::scan("t").sort_by(spec))
            .unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)), "{err}");
    }
}
