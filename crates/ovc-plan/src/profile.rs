//! `EXPLAIN ANALYZE`: profile trees mirroring physical plans, and the
//! renderer that interleaves planner estimates with measured counters.
//!
//! [`build_profile`] stamps out one [`ProfileNode`] per plan operator
//! (children in plan child order, so profile and plan walk in lockstep);
//! [`PhysOp::Exchange`] nodes get per-partition [`ChannelGauge`]s sized
//! from the plan's partitioning.  The executor
//! ([`crate::exec::execute_profiled`]) fills the tree in: each node's
//! code counts into the node's own [`Stats`] block, on whatever thread
//! it runs, and the one operator-boundary adapter of the lowering times
//! the node — an eager window around lowering plus a streamed window
//! over every `next_batch`, disjoint in time (DESIGN.md §11);
//! [`PhysicalPlan::explain_analyze`] runs the plan to completion and
//! renders each operator as
//!
//! ```text
//! SortOvc key=[c0 asc]  (est rows~1000, spill~0)  [rows out=1000, wall=1.8ms, col cmps=9211, code cmps=8964]
//! ```
//!
//! — the estimate the planner priced next to what the run actually did,
//! the Postgres `EXPLAIN ANALYZE` shape.  All measured figures are
//! inclusive of the subtree: a count belongs to the node whose code
//! made it, and inclusive is the subtree sum (see
//! [`ovc_core::metrics`]); `col cmps` are
//! column-value comparisons (the expensive kind the paper eliminates)
//! and `code cmps` are comparisons resolved by offset-value-code
//! inspection alone.
//!
//! [`ChannelGauge`]: ovc_core::metrics::ChannelGauge

use std::sync::Arc;

use ovc_core::metrics::{PlanProfile, ProfileNode};
use ovc_core::Stats;

use crate::catalog::Catalog;
use crate::exec::{execute_profiled, ExecOptions};
use crate::physical::{Partitioning, PhysOp, PhysicalPlan};

/// Build the live accumulator tree for one profiled run of `plan`:
/// one node per plan operator, mirroring the plan's shape child for
/// child.  Exchange operators get one channel gauge per partition of
/// the side that crosses threads (the target layout for a splitting
/// exchange, the input layout for a gathering one).
pub fn build_profile(plan: &PhysicalPlan) -> Arc<ProfileNode> {
    let children: Vec<Arc<ProfileNode>> = plan.children().into_iter().map(build_profile).collect();
    let name = plan.op_name();
    let detail = plan.op_detail();
    Arc::new(match &plan.op {
        PhysOp::Exchange { input, to, .. } => {
            let channels = match to {
                Partitioning::Hash { parts, .. } => *parts,
                Partitioning::Single => input.props.partitioning.parts(),
                Partitioning::Any => 0,
            };
            ProfileNode::with_gauges(name, detail, children, channels)
        }
        _ => ProfileNode::new(name, detail, children),
    })
}

/// Render a plan and its measured profile side by side, one line per
/// operator: the planner's estimates in parentheses, the measurements
/// in brackets, channel gauges indented beneath their exchange.
///
/// `profile` must come from a run of this very `plan`
/// ([`build_profile`] + [`execute_profiled`]); the trees are walked in
/// lockstep and a shape mismatch panics.
pub fn render_analyze(plan: &PhysicalPlan, profile: &PlanProfile) -> String {
    let mut out = String::new();
    render_into(plan, profile, &mut out, 0);
    out
}

fn render_into(plan: &PhysicalPlan, profile: &PlanProfile, out: &mut String, depth: usize) {
    use std::fmt::Write;
    assert_eq!(
        plan.op_name(),
        profile.name,
        "profile tree does not mirror this plan"
    );
    let pad = "  ".repeat(depth);
    let m = &profile.metrics;
    let _ = writeln!(
        out,
        "{pad}{}{}  (est rows~{:.0}, spill~{:.0})  [rows out={}, wall={:.3?}, col cmps={}, code cmps={}]",
        plan.op_name(),
        plan.op_detail(),
        plan.props.rows,
        plan.cost.spill_rows,
        m.rows_out,
        m.wall,
        m.col_cmps(),
        m.code_resolved_cmps(),
    );
    for (p, g) in profile.gauges.iter().enumerate() {
        let _ = writeln!(
            out,
            "{pad}  ~ channel {p}: rows={}, send wait={:.3?}, recv wait={:.3?}, peak depth={}",
            g.rows, g.send_wait, g.recv_wait, g.peak_depth
        );
    }
    let children = plan.children();
    assert_eq!(
        children.len(),
        profile.children.len(),
        "profile tree does not mirror this plan"
    );
    for (c, cp) in children.into_iter().zip(&profile.children) {
        render_into(c, cp, out, depth + 1);
    }
}

impl PhysicalPlan {
    /// Run this plan to completion against `catalog` with per-operator
    /// profiling, and render estimates next to measurements — the
    /// `EXPLAIN ANALYZE` of this planner.
    ///
    /// A fresh [`Stats`] is used for the run, so the rendered counters
    /// are exactly this execution's.  The output rows are discarded (run
    /// [`execute_profiled`] directly to keep them alongside the
    /// profile).
    pub fn explain_analyze(&self, catalog: &Catalog, options: &ExecOptions) -> String {
        let stats = Stats::new_shared();
        let (_, root) = execute_profiled(self, catalog, &stats, options);
        render_analyze(self, &root.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure5;
    use crate::planner::PlannerConfig;
    use ovc_core::Row;

    fn rows(vals: &[u64]) -> Vec<Row> {
        vals.iter().map(|&v| Row::new(vec![v])).collect()
    }

    #[test]
    fn profile_tree_mirrors_plan_shape() {
        let catalog = figure5::catalog_unsorted(rows(&[3, 1, 2, 2]), rows(&[2, 4]));
        let plan = figure5::plan_intersect(&catalog, PlannerConfig::default()).unwrap();
        let root = build_profile(&plan);
        let profile = root.snapshot();
        let plan_nodes = plan.nodes();
        let prof_nodes = profile.nodes();
        assert_eq!(plan_nodes.len(), prof_nodes.len());
        for (p, n) in plan_nodes.iter().zip(&prof_nodes) {
            assert_eq!(p.op_name(), n.name);
            assert_eq!(p.op_detail(), n.detail);
        }
    }

    #[test]
    fn explain_analyze_reports_measured_counters() {
        let catalog = figure5::catalog_unsorted(rows(&[3, 1, 2, 2, 5]), rows(&[2, 4, 5]));
        let plan = figure5::plan_intersect(&catalog, PlannerConfig::default()).unwrap();
        let text = plan.explain_analyze(&catalog, &ExecOptions::default());
        // One line per operator, estimates and measurements side by side.
        assert_eq!(text.lines().count(), plan.nodes().len(), "{text}");
        assert!(text.contains("SetOpMerge"), "{text}");
        assert!(text.contains("(est rows~"), "{text}");
        assert!(text.contains("rows out="), "{text}");
        assert!(text.contains("wall="), "{text}");
        assert!(text.contains("col cmps="), "{text}");
        assert!(text.contains("code cmps="), "{text}");
        // The intersection result is {2, 5}: the root reports 2 rows.
        let first = text.lines().next().unwrap();
        assert!(first.contains("rows out=2"), "{text}");
    }

    #[test]
    fn profiled_run_matches_unprofiled_output() {
        use crate::exec::execute;
        let catalog = figure5::catalog_unsorted(rows(&[9, 1, 4, 4, 7, 1]), rows(&[4, 1, 8]));
        let plan = figure5::plan_intersect(&catalog, PlannerConfig::default()).unwrap();

        let plain_stats = Stats::new_shared();
        let plain: Vec<_> = execute(&plan, &catalog, &plain_stats, &ExecOptions::default())
            .into_coded()
            .into_iter()
            .map(|r| (r.row, r.code))
            .collect();

        let prof_stats = Stats::new_shared();
        let (out, root) = execute_profiled(&plan, &catalog, &prof_stats, &ExecOptions::default());
        let profiled: Vec<_> = out
            .into_coded()
            .into_iter()
            .map(|r| (r.row, r.code))
            .collect();

        assert_eq!(plain, profiled, "profiling must not perturb rows or codes");
        assert_eq!(
            plain_stats.snapshot(),
            prof_stats.snapshot(),
            "profiling must not perturb the Stats totals"
        );
        // The root node observed every emitted row.
        assert_eq!(root.snapshot().metrics.rows_out, plain.len() as u64);
    }
}
