//! Running physical plans: the executor's options, its output shape,
//! and its five entry points.
//!
//! There is one executor.  [`execute`], [`execute_ctx`],
//! [`execute_profiled`], [`execute_ctx_profiled`] and [`execute_into`]
//! are thin wrappers over the single batch-at-a-time lowering in
//! `batch_exec`: plans become [`ovc_core::BatchStream`] pipelines over
//! `ovc-exec`/`ovc-sort` operators fed by flat scans (unordered = coded
//! under the empty spec), and **exchange sandwiches** run on real
//! threads with flat batches crossing their channels.  The boundary
//! between the two shapes (stream / partitions) is explicit in the plan,
//! so the executor never guesses.
//!
//! The root's batches leave through one path: the lowering hands each
//! to a sink as it is produced, on the calling thread, while the plan's
//! threads still run.  [`execute_into`] is that sink made public — the
//! server encodes response frames in it, so a result is never
//! materialized there.  The other four entry points collect through the
//! same sink into an [`Output`], the one place a whole result is held;
//! rows are boxed only at that edge.
//!
//! [`ExecOptions::verify_trusted`] turns every [`PhysOp::TrustSorted`]
//! marker — an *elided sort* — into a checked assertion: the stream the
//! planner trusted is drained and audited, seams included, with
//! [`ovc_core::batch::assert_batches_exact_spec`] against the stream's
//! own [`ovc_core::SortSpec`] before flowing on.  The planner property
//! tests run with this enabled, which is what "every elided sort is
//! justified" means operationally.
//!
//! [`PhysOp::TrustSorted`]: crate::physical::PhysOp::TrustSorted

use std::sync::Arc;

use ovc_core::ctx::{self, ExecError, QueryCtx};
use ovc_core::metrics::ProfileNode;
use ovc_core::{FlatRows, OvcRow, Row, Stats};
use ovc_sort::Run;

use crate::batch_exec::{run, Collect, Root};
use crate::catalog::Catalog;
use crate::physical::{Partitioning, PhysicalPlan};

/// Rows per [`ovc_core::FlatRows`] batch when
/// [`ExecOptions::batch_size`] is `None` — the one engine default, and
/// the value every deployed caller (server binary, benches) sets anyway.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Executor knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Audit every elided sort: drain each trusted stream and panic
    /// unless its codes are exact under its spec (test harness for the
    /// planner).
    pub verify_trusted: bool,
    /// Rows per flat batch flowing between operators and through
    /// exchange channels; `None` means [`DEFAULT_BATCH_ROWS`].  A plan
    /// node's own stamped batch size
    /// ([`crate::physical::PhysOp::Exchange`]) takes precedence on its
    /// exchange edges.  The value tunes granularity only: rows, codes,
    /// and [`Stats`] totals are identical for every batch size
    /// (`tests/batch_pipeline_properties.rs`; the one exception is early
    /// termination under `TopK`, DESIGN.md §12).
    pub batch_size: Option<usize>,
}

/// What a plan produced, materialized flat as coded [`Run`]s for a
/// library caller (the root's batches concatenated into one contiguous
/// buffer — [`execute_into`] hands them over instead): a coded
/// sorted stream, bare rows (a plan whose properties promise no codes),
/// or — for a plan cut off below its gathering exchange — hash
/// partitions of a coded stream.  Rows are boxed only by
/// [`Output::into_coded`] / [`Output::into_rows`].
pub enum Output {
    /// Sorted stream carrying exact offset-value codes.
    Stream(Run),
    /// Rows of a plan whose properties promise no codes, in arbitrary
    /// order; the run's codes carry no promise.
    Rows(Run),
    /// Hash-partitioned coded runs (between a splitting
    /// [`crate::physical::PhysOp::Exchange`] and the gathering one); each
    /// run is sorted and exactly coded on its own.
    Partitions(Vec<Run>),
}

impl Output {
    /// A single-stream root: a coded stream when the plan promises codes,
    /// else bare rows.
    pub(crate) fn root(run: Run, coded: bool) -> Output {
        if coded {
            Output::Stream(run)
        } else {
            Output::Rows(run)
        }
    }

    /// Materialize as rows, dropping codes if present.
    pub fn into_rows(self) -> Vec<Row> {
        match self {
            Output::Stream(run) | Output::Rows(run) => {
                run.iter().map(|(cols, _)| Row::from_slice(cols)).collect()
            }
            Output::Partitions(_) => {
                panic!("plan output is partitioned; gather it with an Exchange to single")
            }
        }
    }

    /// Materialize as coded rows; panics if this output is unordered
    /// (callers decide via the plan's properties, not by trial).
    pub fn into_coded(self) -> Vec<OvcRow> {
        match self {
            Output::Stream(run) => run.into_rows(),
            Output::Rows(_) => panic!("plan output is unordered; no codes to collect"),
            Output::Partitions(_) => {
                panic!("plan output is partitioned; gather it with an Exchange to single")
            }
        }
    }
}

/// Run a physical plan against a catalog, accounting into `stats`.
///
/// Coded roots come back as a coded stream collected flat from the
/// root's batches (the pipeline's threads are joined before
/// returning), roots whose properties promise no codes as rows,
/// partitioned roots as coded runs.
///
/// Panics if the plan references tables missing from `catalog` or if its
/// structure violates operator contracts — both are planner bugs, not
/// runtime conditions, so they fail loudly.  A run that fails (a worker
/// panic, a spill fault) panics with the error's message; use
/// [`execute_ctx`] to get the [`ExecError`] as a value.
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
) -> Output {
    collect(plan, catalog, stats, options, None, None).unwrap_or_else(|err| panic!("{err}"))
}

/// As [`execute`], but fault-tolerant: run the plan under a
/// [`QueryCtx`] and return a typed [`ExecError`] instead of panicking.
///
/// The context is checked once per batch at every operator boundary and
/// in every partition worker loop, and spills charge the context's
/// budget.  Cancellation, deadline expiry, spill faults and failed
/// exchange channels come back as values; the whole run — root drain
/// included — also happens inside [`ctx::contain`], so a panic on the
/// calling thread surfaces here as [`ExecError::WorkerPanic`] too.  Rows, codes, and [`Stats`]
/// totals of a successful run are identical to [`execute`] of the same
/// plan.
pub fn execute_ctx(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
    qctx: &QueryCtx,
) -> Result<Output, ExecError> {
    qctx.check()?;
    ctx::contain(|| collect(plan, catalog, stats, options, Some(qctx), None))?
}

/// As [`execute`], but with per-operator profiling: every lowered
/// operator reports rows, batches and wall time into a [`ProfileNode`]
/// tree mirroring the plan's shape and counts into its node's own
/// [`Stats`] block, and threaded exchanges report per-channel
/// wait/occupancy gauges.
///
/// The output is collected and every thread joined when this returns,
/// so [`ProfileNode::snapshot`] is immediately meaningful.  Profiling only
/// observes: rows, codes, and the [`Stats`] totals are identical to an
/// unprofiled [`execute`] of the same plan.
pub fn execute_profiled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
) -> (Output, Arc<ProfileNode>) {
    let root = crate::profile::build_profile(plan);
    let out = collect(plan, catalog, stats, options, None, Some(&root));
    (out.unwrap_or_else(|err| panic!("{err}")), root)
}

/// As [`execute_profiled`], but fault-tolerant (see [`execute_ctx`]).
pub fn execute_ctx_profiled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
    qctx: &QueryCtx,
) -> Result<(Output, Arc<ProfileNode>), ExecError> {
    qctx.check()?;
    let root = crate::profile::build_profile(plan);
    let out = ctx::contain(|| collect(plan, catalog, stats, options, Some(qctx), Some(&root)))??;
    Ok((out, root))
}

/// As [`execute_ctx`] — or, given a profile tree from
/// [`crate::build_profile`], as [`execute_ctx_profiled`] — but nothing
/// is collected: each of the root's batches goes to `sink` as the plan
/// produces it, on the calling thread, while the plan's other threads
/// still run.  The batches are the ones [`execute_ctx`] would
/// concatenate, in order.
///
/// An `Err` from `sink` stops the plan and comes back as this call's
/// error; so does a failure of the plan after some batches were handed
/// over.  Either way every thread of the plan has joined when this
/// returns, and the [`Stats`] (and profile) hold the work done.
///
/// Panics if the plan's root is partitioned (gather it with an
/// `Exchange` to single first).
pub fn execute_into(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
    qctx: &QueryCtx,
    prof: Option<&Arc<ProfileNode>>,
    sink: &mut dyn FnMut(FlatRows) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    assert!(
        plan.props.partitioning == Partitioning::Single,
        "plan output is partitioned; gather it with an Exchange to single"
    );
    qctx.check()?;
    ctx::contain(|| run(plan, catalog, stats, options, Some(qctx), prof, sink))?.map(|_| ())
}

/// Run `plan` and collect its root through [`run`]'s sink.
fn collect(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
    qctx: Option<&QueryCtx>,
    prof: Option<&Arc<ProfileNode>>,
) -> Result<Output, ExecError> {
    let mut all = Collect::default();
    let root = run(plan, catalog, stats, options, qctx, prof, &mut |batch| {
        all.push(batch);
        Ok(())
    })?;
    Ok(match root {
        Root::Stream(spec) => Output::root(all.into_run(spec), plan.props.coded),
        Root::Partitions(runs) => Output::Partitions(runs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogicalPlan, Planner, PlannerConfig, Table};

    /// `batch_size` tunes granularity and nothing else: `None` *is*
    /// [`DEFAULT_BATCH_ROWS`] (the profile counts exactly that many
    /// batches), and it returns the rows, codes and `Stats` of every
    /// explicit size.
    #[test]
    fn batch_size_none_is_the_default_constant_and_selects_no_code_path() {
        let n = 2 * DEFAULT_BATCH_ROWS + 10;
        let rows: Vec<Row> = (0..n as u64)
            .map(|k| Row::new(vec![k / 3, k % 7]))
            .collect();
        let mut catalog = Catalog::new();
        catalog.register("t", Table::sorted(rows, 1));
        let query = LogicalPlan::scan("t").filter(crate::Predicate::ColLt(1, 5));
        let plan = Planner::new(&catalog, PlannerConfig::default())
            .plan(&query.sort(1))
            .expect("plans");

        let run = |batch_size: Option<usize>| {
            let stats = Stats::new_shared();
            let options = ExecOptions {
                batch_size,
                ..ExecOptions::default()
            };
            let (out, prof) = execute_profiled(&plan, &catalog, &stats, &options);
            let scan = prof
                .snapshot()
                .find("ScanCoded")
                .expect("coded scan")
                .metrics;
            (out.into_coded(), stats.snapshot(), scan.batches)
        };
        let (rows, stats, batches) = run(None);
        assert_eq!(batches, 3, "{n} rows in batches of {DEFAULT_BATCH_ROWS}");
        assert_eq!(run(Some(DEFAULT_BATCH_ROWS)), (rows.clone(), stats, 3));
        let (small_rows, small_stats, small_batches) = run(Some(100));
        assert_eq!(small_batches, n.div_ceil(100) as u64);
        assert_eq!((small_rows, small_stats), (rows, stats));
    }

    /// `execute_into` hands over, batch by batch, exactly the rows and
    /// codes `execute` collects; a sink that fails stops a dop-2 plan
    /// with the sink's own error, after the batches it accepted.
    #[test]
    fn execute_into_streams_what_execute_collects() {
        let rows: Vec<Row> = (0..5000u64)
            .map(|k| Row::new(vec![k % 97, k % 13, k]))
            .collect();
        let mut catalog = Catalog::new();
        catalog.register("t", Table::unsorted(rows));
        let config = PlannerConfig::default()
            .with_dop(2)
            .with_parallel_threshold(64)
            .with_batch_size(100);
        let plan = Planner::new(&catalog, config)
            .plan(&LogicalPlan::scan("t").sort(2))
            .expect("plans");
        let options = ExecOptions {
            batch_size: Some(100),
            ..ExecOptions::default()
        };
        let pairs = |out: Vec<OvcRow>| -> Vec<(Vec<u64>, u64)> {
            out.into_iter()
                .map(|r| (r.row.cols().to_vec(), r.code.raw()))
                .collect()
        };
        let want = pairs(execute(&plan, &catalog, &Stats::new_shared(), &options).into_coded());

        let qctx = QueryCtx::build(None, None);
        let mut got = Vec::new();
        let into = |sink: &mut dyn FnMut(FlatRows) -> Result<(), ExecError>| {
            execute_into(
                &plan,
                &catalog,
                &Stats::new_shared(),
                &options,
                &qctx,
                None,
                sink,
            )
        };
        into(&mut |batch| {
            got.extend(batch.iter().map(|(cols, code)| (cols.to_vec(), code.raw())));
            Ok(())
        })
        .expect("runs");
        assert_eq!(got, want);

        let mut accepted = 0;
        let err = into(&mut |_| {
            accepted += 1;
            if accepted == 2 {
                Err(ExecError::Cancelled)
            } else {
                Ok(())
            }
        })
        .expect_err("the sink's error stops the plan");
        assert_eq!((err, accepted), (ExecError::Cancelled, 2));
    }
}
