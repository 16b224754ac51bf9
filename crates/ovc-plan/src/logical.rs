//! The logical algebra and its builder API.
//!
//! A [`LogicalPlan`] says *what* to compute; it never mentions hashing,
//! sorting effort, or offset-value codes.  The planner
//! ([`crate::planner::Planner`]) decides *how*: which physical operator
//! implements each node, where sorts are required, and — the point of the
//! paper — where an interesting ordering plus exact codes makes a sort
//! unnecessary.

use std::fmt;

use ovc_core::{Row, SortSpec, Value};
pub use ovc_exec::{Aggregate, JoinType, SetOp};

/// A predicate over single rows, built from column comparisons.
///
/// Kept as data (not a closure) so plans can be printed, costed with a
/// selectivity estimate, and cloned into forced-variant plans.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `row[col] == value`
    ColEq(usize, Value),
    /// `row[col] != value`
    ColNe(usize, Value),
    /// `row[col] < value`
    ColLt(usize, Value),
    /// `row[col] <= value`
    ColLe(usize, Value),
    /// `row[col] > value`
    ColGt(usize, Value),
    /// `row[col] >= value`
    ColGe(usize, Value),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate against one row.
    pub fn eval(&self, row: &Row) -> bool {
        self.eval_slice(row.cols())
    }

    /// Evaluate against a row's raw columns — the flat-batch path, where
    /// rows live as slices of a contiguous buffer and never box up.
    pub fn eval_slice(&self, cols: &[Value]) -> bool {
        match self {
            Predicate::ColEq(c, v) => cols[*c] == *v,
            Predicate::ColNe(c, v) => cols[*c] != *v,
            Predicate::ColLt(c, v) => cols[*c] < *v,
            Predicate::ColLe(c, v) => cols[*c] <= *v,
            Predicate::ColGt(c, v) => cols[*c] > *v,
            Predicate::ColGe(c, v) => cols[*c] >= *v,
            Predicate::And(a, b) => a.eval_slice(cols) && b.eval_slice(cols),
            Predicate::Or(a, b) => a.eval_slice(cols) || b.eval_slice(cols),
        }
    }

    /// Textbook selectivity guess in `(0, 1]` (equality is rare, ranges
    /// keep half, conjunction multiplies, disjunction adds).
    pub fn selectivity(&self) -> f64 {
        match self {
            Predicate::ColEq(..) => 0.1,
            Predicate::ColNe(..) => 0.9,
            Predicate::ColLt(..)
            | Predicate::ColLe(..)
            | Predicate::ColGt(..)
            | Predicate::ColGe(..) => 0.5,
            Predicate::And(a, b) => a.selectivity() * b.selectivity(),
            Predicate::Or(a, b) => (a.selectivity() + b.selectivity()).min(1.0),
        }
    }

    /// The highest column the predicate reads: a planner checks it
    /// against the input's width.
    pub(crate) fn max_col(&self) -> usize {
        match self {
            Predicate::ColEq(c, _)
            | Predicate::ColNe(c, _)
            | Predicate::ColLt(c, _)
            | Predicate::ColLe(c, _)
            | Predicate::ColGt(c, _)
            | Predicate::ColGe(c, _) => *c,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.max_col().max(b.max_col()),
        }
    }

    /// Conjunction convenience.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction convenience.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::ColEq(c, v) => write!(f, "c{c} = {v}"),
            Predicate::ColNe(c, v) => write!(f, "c{c} != {v}"),
            Predicate::ColLt(c, v) => write!(f, "c{c} < {v}"),
            Predicate::ColLe(c, v) => write!(f, "c{c} <= {v}"),
            Predicate::ColGt(c, v) => write!(f, "c{c} > {v}"),
            Predicate::ColGe(c, v) => write!(f, "c{c} >= {v}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// One node of the logical algebra.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub enum Logical {
    /// Read a named base table.
    Scan {
        /// Catalog name of the table.
        table: String,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// Input relation.
        input: Box<Logical>,
        /// Row predicate.
        pred: Predicate,
    },
    /// Emit the given columns, in order.
    Project {
        /// Input relation.
        input: Box<Logical>,
        /// Indices of the columns to keep.
        cols: Vec<usize>,
    },
    /// Join on the leading `join_len` columns of both sides.
    Join {
        /// Left input.
        left: Box<Logical>,
        /// Right input.
        right: Box<Logical>,
        /// Number of leading join-key columns.
        join_len: usize,
        /// SQL join type.
        join_type: JoinType,
    },
    /// Group on the leading `group_len` columns and aggregate.
    GroupBy {
        /// Input relation.
        input: Box<Logical>,
        /// Number of leading grouping columns.
        group_len: usize,
        /// Aggregates appended after the group key.
        aggs: Vec<Aggregate>,
    },
    /// Remove duplicate rows (whole-row semantics).
    Distinct {
        /// Input relation.
        input: Box<Logical>,
    },
    /// SQL set operation over schema-identical inputs.
    SetOperation {
        /// Left input.
        left: Box<Logical>,
        /// Right input.
        right: Box<Logical>,
        /// Which operation.
        op: SetOp,
    },
    /// Demand the output ordered under a full [`SortSpec`]: per-column
    /// directions plus an optional normalized-key encoding request.
    Sort {
        /// Input relation.
        input: Box<Logical>,
        /// The required ordering.
        spec: SortSpec,
    },
    /// The first `k` rows under the leading-`key_len` ordering.
    TopK {
        /// Input relation.
        input: Box<Logical>,
        /// Number of leading sort-key columns.
        key_len: usize,
        /// How many rows to keep.
        k: usize,
    },
}

/// Builder wrapper: compose logical plans fluently.
///
/// ```
/// use ovc_plan::logical::{LogicalPlan, Predicate, SetOp};
///
/// // Figure 5: select B from T1 intersect select B from T2.
/// let q = LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), SetOp::Intersect);
/// let _pretty = format!("{q}");
/// let _filtered = LogicalPlan::scan("t1").filter(Predicate::ColGt(0, 3)).distinct();
/// ```
#[derive(Clone, Debug)]
pub struct LogicalPlan {
    /// Root node.
    pub root: Logical,
}

impl LogicalPlan {
    /// Scan a named base table.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Scan {
                table: table.into(),
            },
        }
    }

    /// Keep rows satisfying `pred`.
    pub fn filter(self, pred: Predicate) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Filter {
                input: Box::new(self.root),
                pred,
            },
        }
    }

    /// Emit the given columns, in order.
    pub fn project(self, cols: Vec<usize>) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Project {
                input: Box::new(self.root),
                cols,
            },
        }
    }

    /// Join with `right` on the leading `join_len` columns.
    pub fn join(self, right: LogicalPlan, join_len: usize, join_type: JoinType) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Join {
                left: Box::new(self.root),
                right: Box::new(right.root),
                join_len,
                join_type,
            },
        }
    }

    /// Group on the leading `group_len` columns, computing `aggs`.
    pub fn group_by(self, group_len: usize, aggs: Vec<Aggregate>) -> LogicalPlan {
        LogicalPlan {
            root: Logical::GroupBy {
                input: Box::new(self.root),
                group_len,
                aggs,
            },
        }
    }

    /// Remove duplicate rows.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Distinct {
                input: Box::new(self.root),
            },
        }
    }

    /// Set operation with `right`.
    pub fn set_op(self, right: LogicalPlan, op: SetOp) -> LogicalPlan {
        LogicalPlan {
            root: Logical::SetOperation {
                left: Box::new(self.root),
                right: Box::new(right.root),
                op,
            },
        }
    }

    /// Demand the output sorted ascending on the leading `key_len`
    /// columns (shorthand for [`LogicalPlan::sort_by`] with an
    /// all-ascending spec).
    pub fn sort(self, key_len: usize) -> LogicalPlan {
        self.sort_by(SortSpec::asc(key_len))
    }

    /// Demand the output ordered under an explicit [`SortSpec`] — mixed
    /// ascending/descending directions, optional normalized-key
    /// encoding.
    pub fn sort_by(self, spec: SortSpec) -> LogicalPlan {
        LogicalPlan {
            root: Logical::Sort {
                input: Box::new(self.root),
                spec,
            },
        }
    }

    /// First `k` rows under the leading-`key_len` ordering.
    pub fn top_k(self, key_len: usize, k: usize) -> LogicalPlan {
        LogicalPlan {
            root: Logical::TopK {
                input: Box::new(self.root),
                key_len,
                k,
            },
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Self::fmt_node(&self.root, f, 0)
    }
}

impl LogicalPlan {
    fn fmt_node(node: &Logical, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match node {
            Logical::Scan { table } => writeln!(f, "{pad}Scan {table}"),
            Logical::Filter { input, pred } => {
                writeln!(f, "{pad}Filter [{pred}]")?;
                Self::fmt_node(input, f, depth + 1)
            }
            Logical::Project { input, cols } => {
                writeln!(f, "{pad}Project {cols:?}")?;
                Self::fmt_node(input, f, depth + 1)
            }
            Logical::Join {
                left,
                right,
                join_len,
                join_type,
            } => {
                writeln!(f, "{pad}Join {join_type:?} on first {join_len} col(s)")?;
                Self::fmt_node(left, f, depth + 1)?;
                Self::fmt_node(right, f, depth + 1)
            }
            Logical::GroupBy {
                input,
                group_len,
                aggs,
            } => {
                writeln!(f, "{pad}GroupBy first {group_len} col(s), aggs {aggs:?}")?;
                Self::fmt_node(input, f, depth + 1)
            }
            Logical::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                Self::fmt_node(input, f, depth + 1)
            }
            Logical::SetOperation { left, right, op } => {
                writeln!(f, "{pad}SetOp {op:?}")?;
                Self::fmt_node(left, f, depth + 1)?;
                Self::fmt_node(right, f, depth + 1)
            }
            Logical::Sort { input, spec } => {
                writeln!(f, "{pad}Sort {spec}")?;
                Self::fmt_node(input, f, depth + 1)
            }
            Logical::TopK { input, key_len, k } => {
                writeln!(f, "{pad}TopK {k} under first {key_len} col(s)")?;
                Self::fmt_node(input, f, depth + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_eval_and_combinators() {
        let r = Row::new(vec![5, 10]);
        assert!(Predicate::ColEq(0, 5).eval(&r));
        assert!(Predicate::ColNe(1, 5).eval(&r));
        assert!(Predicate::ColLt(0, 6).eval(&r));
        assert!(Predicate::ColLe(0, 5).eval(&r));
        assert!(Predicate::ColGt(1, 9).eval(&r));
        assert!(Predicate::ColGe(1, 10).eval(&r));
        assert!(Predicate::ColEq(0, 5).and(Predicate::ColGt(1, 9)).eval(&r));
        assert!(Predicate::ColEq(0, 99).or(Predicate::ColGt(1, 9)).eval(&r));
        assert!(!Predicate::ColEq(0, 99).and(Predicate::ColGt(1, 9)).eval(&r));
    }

    #[test]
    fn selectivity_is_in_unit_interval() {
        let p = Predicate::ColEq(0, 1)
            .and(Predicate::ColGt(1, 2))
            .or(Predicate::ColNe(2, 3));
        let s = p.selectivity();
        assert!(s > 0.0 && s <= 1.0, "{s}");
    }

    #[test]
    fn builder_builds_the_expected_shape() {
        let q = LogicalPlan::scan("t1")
            .filter(Predicate::ColGt(0, 2))
            .join(LogicalPlan::scan("t2"), 1, JoinType::Inner)
            .group_by(1, vec![Aggregate::Count])
            .sort(1);
        let rendered = format!("{q}");
        for needle in ["Sort", "GroupBy", "Join", "Filter", "Scan t1", "Scan t2"] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }
}
