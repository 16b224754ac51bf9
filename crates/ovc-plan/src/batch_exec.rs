//! The executor's one lowering: physical plans onto morsel-style
//! flat-batch pipelines ([`ovc_core::batch::BatchStream`]).
//!
//! [`run`] is what all four `execute*` entry points of [`crate::exec`]
//! call.  Operators hand each other [`FlatRows`] batches of
//! [`ExecOptions::batch_size`] rows (default
//! [`DEFAULT_BATCH_ROWS`]) — one row shape; an unordered stream is a
//! coded stream under the empty spec.  Scans slice-copy batches out of
//! the table's flat buffer (Section 4.11), sorts copy each input batch
//! once into their workspace, and **exchanges forward batches through
//! their channels instead of materializing whole inputs** at the
//! split/merge boundaries:
//!
//! * A splitting [`PhysOp::Exchange`] spawns one producer thread that
//!   lowers and drains its child *on that thread*, routing rows with
//!   [`ovc_exec::route_batches`] (one [`OvcAccumulator`] per partition —
//!   the filter corollary's code repair) and sending each filled batch
//!   down an **unbounded** per-partition channel.  Unbounded is
//!   deliberate: the split edge's consumers (partitioned join/group/set
//!   workers) start immediately but may drain unevenly; the memory bound
//!   is the input size (DESIGN.md §12).
//! * Partitioned [`PhysOp::MergeJoinOvc`] / [`PhysOp::GroupOvc`] /
//!   [`PhysOp::SetOpMerge`] run one worker per partition (pair); each
//!   worker streams batches in from the split edge, runs the same batch
//!   kernel the serial lowering uses, and sends its output batches down a
//!   **bounded** channel (capacity
//!   `DEFAULT_CHANNEL_CAPACITY / batch` messages, so the in-flight *row*
//!   budget is independent of the batch size).
//! * The gathering [`PhysOp::Exchange`] merges the live partition batch
//!   streams on the calling thread with the external sort's own flat
//!   tree-of-losers merge ([`ovc_sort::FlatMerge`]: a spent input pulls
//!   its stream's next batch where a run would end), under the
//!   partitions' actual ordering contract.
//!
//! Rows, codes, and [`Stats`] totals are identical for every batch size
//! and equal to the `ovc-baseline` reference at every degree of
//! parallelism — `tests/batch_pipeline_properties.rs` holds 200 seeded
//! plans to that, code for code.  The seam rule makes this cheap:
//! cutting a coded stream into batches needs no code repair at all, so
//! the join/group/set-operation kernels advance cursors over the
//! batches' code and value slices as if over one long run, sorts and
//! gathers fill output batches straight from their merges, and only the
//! exchange edges (where partitions *are* lifted out of their stream)
//! repair codes.  Only the helper feeding the `ovc-baseline` hash
//! operators boxes rows here.  The root's batches leave through the
//! caller's sink as the plan produces them: the library entry points
//! concatenate them into an [`Output`] (boxed at that edge if at all),
//! and the server encodes each into its response frames.
//!
//! Under a [`QueryCtx`] every operator boundary and every partition
//! worker checks the context once per batch (an exchange producer
//! checks through the boundary of the child it drains), sort spills run
//! through [`CtxStorage`] (budget + cancellation at run boundaries), and
//! a spill-device fault in a sort (distinct or not, at any dop) is
//! recovered by re-lowering the sort's input subtree — the plan is
//! borrowed and the table is the retained source — and sorting resident
//! (DESIGN.md §14).  Every failure is an [`ExecError`] value: lowering and every
//! `next_batch` return it, an exchange channel carries it as its last
//! item, and [`run`] returns it once every thread of the plan has
//! joined.
//!
//! Counting needs no per-thread merge: every kernel, sort, spill device
//! and merge counts into the one [`Stats`] block it is handed, on
//! whatever thread it runs.  Unprofiled, that is the caller's `stats`.
//! Profiled, it is the block of the plan node whose code counts
//! ([`ProfileNode::stats`]), so a node's inclusive counters are the sum
//! over its subtree's blocks, across threads; [`run`] folds the root's
//! inclusive counters into the caller's `stats` once the plan's threads
//! have joined.
//!
//! [`Output`]: crate::exec::Output
//! [`OvcAccumulator`]: ovc_core::theorem::OvcAccumulator
//! [`DEFAULT_CHANNEL_CAPACITY`]: ovc_exec::DEFAULT_CHANNEL_CAPACITY

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use ovc_core::batch::{assert_batches_exact_spec, VecBatchStream};
use ovc_core::ctx::{self, ExecError, QueryCtx};
use ovc_core::fault;
use ovc_core::metrics::{ChannelGauge, ExchangeGauges, ProfileNode};
use ovc_core::{BatchStream, FlatBatches, FlatRows, Ovc, Row, RowBatches, SortSpec, Stats, Value};
use ovc_exec::exchange::by_cols_hash;
use ovc_exec::{
    route_batches, BatchChannelStream, BatchClampKey, BatchDedup, BatchFilter, BatchProject,
    BatchTake, GroupAggregate, MergeJoin, SetOperation, DEFAULT_CHANNEL_CAPACITY,
};
use ovc_sort::{
    merge_batch_streams, try_sort_batches, MemoryRunStorage, Run, RunStorage, SortConfig,
    SortOutput,
};

use crate::catalog::Catalog;
use crate::exec::{ExecOptions, DEFAULT_BATCH_ROWS};
use crate::physical::{Partitioning, PhysOp, PhysicalPlan};

/// A partition's batch stream as it crosses threads.
type PartStream = Box<dyn BatchStream + Send>;

/// Run `plan` batch-at-a-time, accounting into `stats`: with `qctx`,
/// under its cancellation, deadline and spill budget; with `prof`,
/// filling the profile tree that mirrors the plan.  A failure comes back
/// as the `Err` of the operator, exchange or sort it happened in (a
/// worker thread's panic as [`ExecError::WorkerPanic`]); only a panic
/// on the calling thread unwinds out of here.
///
/// A single-stream root is pulled on the calling thread, inside the
/// plan's thread scope, and each of its batches is handed to `sink` as
/// it is produced — nothing is concatenated here.  An `Err` from `sink`
/// stops the plan: the root stream is dropped (so upstream workers see
/// their channels close) and the error is returned.  A partitioned root
/// is drained to coded runs instead.  Either way every thread of the
/// plan has joined when this returns.  A profiled run counts into the
/// profile tree's node blocks and folds the root's inclusive counters
/// into `stats` after every thread has joined, failed runs included.
pub(crate) fn run(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &Arc<Stats>,
    options: &ExecOptions,
    qctx: Option<&QueryCtx>,
    prof: Option<&Arc<ProfileNode>>,
    sink: &mut dyn FnMut(FlatRows) -> Result<(), ExecError>,
) -> Result<Root, ExecError> {
    let batch = options.batch_size.unwrap_or(DEFAULT_BATCH_ROWS);
    assert!(batch > 0, "batch size must be positive");
    let out = std::thread::scope(|scope| {
        let cx = BCx {
            catalog,
            options,
            batch,
            ctx: qctx.cloned(),
            scope,
        };
        match cx.run(plan, stats, prof, None)? {
            BOut::Batches(mut root) => {
                let spec = root.sort_spec();
                while let Some(batch) = root.next_batch()? {
                    sink(batch)?;
                }
                Ok(Root::Stream(spec))
            }
            BOut::Parts(parts, _) => {
                // Drain every partition stream to a standalone coded
                // run.  Concurrent drains keep upstream workers busy;
                // each partition chain is fed by its own thread, so
                // join order cannot deadlock.  Every peer joins before
                // the first error is returned.
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|s| scope.spawn(move || drain(s)))
                    .collect();
                let (runs, failure) = ctx::join_all(handles);
                failure.map_or(Ok(Root::Partitions(runs)), Err)
            }
        }
    });
    if let Some(root) = prof {
        stats.absorb(&root.snapshot().metrics.stats);
    }
    out
}

/// How [`run`]'s root came out: a single stream under this spec, whose
/// batches went to the sink, or hash partitions as coded runs.
pub(crate) enum Root {
    Stream(SortSpec),
    Partitions(Vec<Run>),
}

/// Concatenates batches into one flat buffer: what the library entry
/// points hand [`run`] as the sink, and what [`drain`] fills.
#[derive(Default)]
pub(crate) struct Collect(Option<FlatRows>);

impl Collect {
    pub(crate) fn push(&mut self, batch: FlatRows) {
        match &mut self.0 {
            None => self.0 = Some(batch),
            Some(all) => all.extend_from(&batch),
        }
    }

    /// The collected rows as one run under `spec` (an empty run of
    /// `spec.len()` columns when no batch came).
    pub(crate) fn into_run(self, spec: SortSpec) -> Run {
        Run::from_flat(self.0.unwrap_or_else(|| FlatRows::new(spec.len())), spec)
    }
}

/// What a (sub)plan produced while lowering: the analogue of
/// [`crate::exec::Output`] with streams delivered batch-at-a-time and
/// partitions delivered as *live* per-partition batch streams instead of
/// materialized batches.
enum BOut {
    /// Batch stream carrying exact offset-value codes under its spec —
    /// the empty spec for an unordered stream.
    Batches(Box<dyn BatchStream>),
    /// Hash-partitioned coded batch streams (between a splitting
    /// exchange and the gathering one), each standalone-coded under the
    /// carried spec.
    Parts(Vec<PartStream>, SortSpec),
}

/// Concatenate a coded batch stream (a standalone-coded partition's, or
/// `Reverse`'s input) into one flat run under the stream's spec.
fn drain(mut stream: impl BatchStream) -> Result<Run, ExecError> {
    let spec = stream.sort_spec();
    let mut all = Collect::default();
    while let Some(batch) = stream.next_batch()? {
        all.push(batch);
    }
    Ok(all.into_run(spec))
}

/// The one place the executor boxes rows: the `ovc-baseline` hash
/// operators are reference code over `Vec<Row>`.
fn baseline_rows(out: BOut) -> Result<Vec<Row>, ExecError> {
    let mut stream = out.into_batches();
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch()? {
        rows.extend(batch.iter().map(|(cols, _)| Row::from_slice(cols)));
    }
    Ok(rows)
}

/// `fwd`, ordered under `spec.reversed()` with codes of arity `fwd_len`,
/// read back to front: ordered under `spec`, codes **shifted** instead of
/// re-derived.  Reversed row `i`'s predecessor is forward row `i + 1`,
/// whose forward code already states the prefix the two share, so the
/// new code is that offset with row `i`'s own value there under `spec`;
/// duplicates stay duplicates, and no column is compared.
fn reverse_codes(fwd: &FlatRows, fwd_len: usize, spec: &SortSpec) -> FlatRows {
    let (n, k) = (fwd.len(), spec.len());
    let mut out = FlatRows::with_capacity(fwd.width(), n);
    for i in (0..n).rev() {
        let row = fwd.row(i);
        let code = if i + 1 == n {
            spec.initial_code(&row[..k])
        } else {
            match fwd.code(i + 1).offset(fwd_len).min(k) {
                off if off == k => Ovc::duplicate(),
                off => Ovc::new(off, spec.code_value(off, row[off]), k),
            }
        };
        out.push(row, code);
    }
    out
}

impl BOut {
    fn into_batches(self) -> Box<dyn BatchStream> {
        match self {
            BOut::Batches(b) => b,
            BOut::Parts(..) => {
                panic!("plan output is partitioned; gather it with an Exchange to single")
            }
        }
    }

    fn into_parts(self) -> (Vec<PartStream>, SortSpec) {
        match self {
            BOut::Parts(p, spec) => (p, spec),
            _ => panic!("plan output is not partitioned"),
        }
    }
}

/// The profile node for child `i` of a profiled node (the profile tree
/// mirrors the plan tree child-for-child, by construction).
fn child(prof: Option<&Arc<ProfileNode>>, i: usize) -> Option<&Arc<ProfileNode>> {
    prof.map(|n| &n.children[i])
}

/// The per-partition gauge of an exchange's channel set, when profiled.
fn gauge_for(gauges: Option<&ExchangeGauges>, p: usize) -> Option<Arc<ChannelGauge>> {
    gauges.filter(|g| p < g.len()).map(|g| g.channel(p))
}

/// Lowering context: one per [`run`] call, cloned into every
/// producer/worker thread it spawns (all threads live inside one
/// [`std::thread::scope`], so plan and catalog borrows cross freely).
#[derive(Clone)]
struct BCx<'scope, 'env> {
    catalog: &'env Catalog,
    options: &'env ExecOptions,
    /// Rows per batch for every operator that re-batches, unless an
    /// exchange edge carries its own stamped size.
    batch: usize,
    /// Present under `execute_ctx`: checked once per batch at every
    /// operator boundary and thread loop; spills charge its budget.
    ctx: Option<QueryCtx>,
    scope: &'scope Scope<'scope, 'env>,
}

impl<'env> BCx<'_, 'env> {
    fn table(&self, name: &str) -> &'env crate::catalog::Table {
        self.catalog
            .get(name)
            .unwrap_or_else(|| panic!("plan references unknown table {name}"))
    }

    /// The per-batch cancellation point of every thread loop: the
    /// context's typed error, if it has tripped.
    fn check(&self) -> Result<(), ExecError> {
        self.ctx.as_ref().map_or(Ok(()), QueryCtx::check)
    }

    /// A fresh spill device for one sort, charging this query's context.
    fn spill_device(&self, stats: &Arc<Stats>) -> CtxStorage {
        CtxStorage {
            inner: MemoryRunStorage::new(Arc::clone(stats)),
            ctx: self.ctx.clone(),
        }
    }

    /// Lower one plan node and put the operator boundary around it.
    ///
    /// The node's counter block is chosen here, once: a profiled node
    /// counts into its own [`ProfileNode::stats`], an unprofiled run into
    /// the `stats` it was handed, and [`BCx::lower`] passes that block to
    /// everything it builds for the node (its children choose their own).
    /// When profiled, a node's wall time has two windows, disjoint in
    /// time: the *eager* window times [`BCx::lower`] on the calling
    /// thread (materializing sorts, spawning exchanges, …), and batch
    /// outputs are then metered per `next_batch` by the [`Boundary`];
    /// both include the subtree's calls.  Thread-spawning arms count
    /// their workers' rows and batches from the worker side.  Under a
    /// context the boundary is also a cancellation point, once after
    /// lowering and once per batch.  With neither, nothing is wrapped
    /// and no clock is read.
    ///
    /// `gather` carries the consuming exchange's channel gauges down one
    /// edge: an `Exchange` to single hands its own gauges to its child so
    /// the partitioned operator's workers meter the send side of the very
    /// channels the gather meters on receive.
    fn run(
        &self,
        plan: &'env PhysicalPlan,
        stats: &Arc<Stats>,
        prof: Option<&Arc<ProfileNode>>,
        gather: Option<&ExchangeGauges>,
    ) -> Result<BOut, ExecError> {
        let stats = prof.map_or(stats, |node| node.stats());
        let window = prof.map(|node| (node, Instant::now()));
        let out = self.lower(plan, stats, prof, gather)?;
        if let Some((node, start)) = window {
            node.add_wall(start.elapsed());
        }
        self.check()?;
        Ok(match out {
            BOut::Batches(inner) if prof.is_some() || self.ctx.is_some() => {
                BOut::Batches(Box::new(Boundary {
                    inner,
                    ctx: self.ctx.clone(),
                    meter: prof.map(|node| Meter {
                        node: Arc::clone(node),
                        rows: 0,
                        batches: 0,
                        wall: Duration::ZERO,
                    }),
                }))
            }
            // Partition rows/batches are counted at the producing side
            // (the spawning arms), where they are actually observed.
            other => other,
        })
    }

    fn lower(
        &self,
        plan: &'env PhysicalPlan,
        stats: &Arc<Stats>,
        prof: Option<&Arc<ProfileNode>>,
        gather: Option<&ExchangeGauges>,
    ) -> Result<BOut, ExecError> {
        Ok(match &plan.op {
            PhysOp::ScanCoded { table } => {
                BOut::Batches(Box::new(self.table(table).scan(self.batch)))
            }
            // The same flat scan with its key clamped away (§4.2): every
            // code the duplicate code, whatever the table's order.
            PhysOp::ScanRows { table } => BOut::Batches(Box::new(BatchClampKey::new(
                self.table(table).scan(self.batch),
                0,
            ))),
            PhysOp::SortOvc {
                input,
                spec,
                memory_rows,
                fan_in,
                dop,
            }
            | PhysOp::InSortDistinct {
                input,
                spec,
                memory_rows,
                fan_in,
                dop,
            } => {
                let distinct = matches!(plan.op, PhysOp::InSortDistinct { .. });
                let lower_input = || {
                    self.run(input, stats, child(prof, 0), None)
                        .map(BOut::into_batches)
                };
                let cfg = SortConfig::new(spec.len(), *memory_rows)
                    .with_fan_in(*fan_in)
                    .with_threads(*dop);
                let mut storage = self.spill_device(stats);
                let sorted =
                    try_sort_batches(lower_input()?, cfg, spec, distinct, &mut storage, stats)
                        .or_else(|err| {
                            if !err.is_spill_fault() {
                                return Err(err);
                            }
                            // Only the spilled copy is bad; the input
                            // still exists upstream.  Re-lower it rather
                            // than having retained a copy of every sort
                            // input, and sort resident (one unbounded
                            // run) so the faulty device is never touched
                            // again.  Codes are a function of the output
                            // sequence alone, so the recovered stream is
                            // byte-identical.
                            let resident = SortConfig {
                                memory_rows: usize::MAX,
                                ..cfg
                            };
                            let input = lower_input()?;
                            try_sort_batches(input, resident, spec, distinct, &mut storage, stats)
                        })?;
                BOut::Batches(sorted.batches(self.batch))
            }
            PhysOp::TrustSorted { input, spec } => {
                let mut stream = self.run(input, stats, child(prof, 0), None)?.into_batches();
                if self.options.verify_trusted {
                    // Audit the elision batch-wise, seams included: the
                    // stream the planner trusted must carry exact codes
                    // under its own spec (which implies the required
                    // prefix ordering).
                    let stream_spec = stream.sort_spec();
                    debug_assert!(stream_spec.satisfies(spec));
                    let mut batches = Vec::new();
                    while let Some(b) = stream.next_batch()? {
                        batches.push(b);
                    }
                    assert_batches_exact_spec(&batches, &stream_spec);
                    BOut::Batches(Box::new(VecBatchStream::new(batches, stream_spec)))
                } else {
                    BOut::Batches(stream)
                }
            }
            PhysOp::Reverse { input, spec } => {
                let fwd = drain(self.run(input, stats, child(prof, 0), None)?.into_batches())?;
                debug_assert!(fwd.sort_spec().satisfies(&spec.reversed()));
                let fwd_len = fwd.sort_spec().len();
                let flat = reverse_codes(&fwd.into_flat(), fwd_len, spec);
                BOut::Batches(Box::new(FlatBatches::new(flat, spec.clone(), self.batch)))
            }
            PhysOp::DedupCodes { input } => {
                let stream = self.run(input, stats, child(prof, 0), None)?.into_batches();
                BOut::Batches(Box::new(BatchDedup::new(stream, Arc::clone(stats))))
            }
            PhysOp::HashDistinct { input, memory_rows } => {
                let rows = baseline_rows(self.run(input, stats, child(prof, 0), None)?)?;
                let out = ovc_baseline::hash_aggregate_distinct(rows, *memory_rows, stats);
                BOut::Batches(Box::new(RowBatches::new(out, self.batch)))
            }
            PhysOp::Filter { input, pred } => {
                let s = self.run(input, stats, child(prof, 0), None)?.into_batches();
                let p = pred.clone();
                BOut::Batches(Box::new(BatchFilter::new(
                    s,
                    move |cols: &[Value]| p.eval_slice(cols),
                    Arc::clone(stats),
                )))
            }
            PhysOp::Project {
                input,
                cols,
                surviving_key,
            } => {
                let s = self.run(input, stats, child(prof, 0), None)?.into_batches();
                BOut::Batches(Box::new(BatchProject::new(s, *surviving_key, cols.clone())))
            }
            PhysOp::GroupOvc {
                input,
                group_len,
                aggs,
            } => match self.run(input, stats, child(prof, 0), None)? {
                BOut::Parts(parts, pspec) => {
                    let (group_len, aggs, batch) = (*group_len, aggs.clone(), self.batch);
                    self.partitioned(
                        parts.into_iter().map(|p| vec![p]).collect(),
                        pspec.prefix(group_len),
                        stats,
                        prof,
                        gather,
                        move |mut streams, stats| {
                            let s = streams.pop().expect("one stream per group worker");
                            Box::new(GroupAggregate::new(
                                s,
                                group_len,
                                aggs.clone(),
                                batch,
                                stats,
                            ))
                        },
                    )
                }
                other => BOut::Batches(Box::new(GroupAggregate::new(
                    other.into_batches(),
                    *group_len,
                    aggs.clone(),
                    self.batch,
                    Arc::clone(stats),
                ))),
            },
            PhysOp::MergeJoinOvc {
                left,
                right,
                join_len,
                join_type,
            } => {
                let (lw, rw) = (left.props.width, right.props.width);
                match (
                    self.run(left, stats, child(prof, 0), None)?,
                    self.run(right, stats, child(prof, 1), None)?,
                ) {
                    (BOut::Parts(lp, lspec), BOut::Parts(rp, _)) => {
                        assert_eq!(lp.len(), rp.len(), "co-partitioned join arity mismatch");
                        let out_spec = match join_type {
                            ovc_exec::JoinType::LeftSemi | ovc_exec::JoinType::LeftAnti => lspec,
                            _ => lspec.prefix(*join_len).with_normalized(false),
                        };
                        let (join_len, join_type, batch) = (*join_len, *join_type, self.batch);
                        self.partitioned(
                            lp.into_iter().zip(rp).map(|(l, r)| vec![l, r]).collect(),
                            out_spec,
                            stats,
                            prof,
                            gather,
                            move |mut streams, stats| {
                                let r = streams.pop().expect("right input");
                                let l = streams.pop().expect("left input");
                                Box::new(MergeJoin::new(
                                    l, r, join_len, join_type, lw, rw, batch, stats,
                                ))
                            },
                        )
                    }
                    (BOut::Batches(l), BOut::Batches(r)) => {
                        BOut::Batches(Box::new(MergeJoin::new(
                            l,
                            r,
                            *join_len,
                            *join_type,
                            lw,
                            rw,
                            self.batch,
                            Arc::clone(stats),
                        )))
                    }
                    _ => panic!("merge join inputs must both be streams or both partitioned"),
                }
            }
            PhysOp::GraceHashJoin {
                left,
                right,
                join_len,
                memory_rows,
            } => {
                let l = baseline_rows(self.run(left, stats, child(prof, 0), None)?)?;
                let r = baseline_rows(self.run(right, stats, child(prof, 1), None)?)?;
                let out = ovc_baseline::grace_hash_join(l, r, *join_len, *memory_rows, stats);
                BOut::Batches(Box::new(RowBatches::new(out, self.batch)))
            }
            PhysOp::SetOpMerge { left, right, op } => {
                match (
                    self.run(left, stats, child(prof, 0), None)?,
                    self.run(right, stats, child(prof, 1), None)?,
                ) {
                    (BOut::Parts(lp, lspec), BOut::Parts(rp, _)) => {
                        assert_eq!(lp.len(), rp.len(), "co-partitioned set-op arity mismatch");
                        let (op, batch) = (*op, self.batch);
                        self.partitioned(
                            lp.into_iter().zip(rp).map(|(l, r)| vec![l, r]).collect(),
                            lspec.with_normalized(false),
                            stats,
                            prof,
                            gather,
                            move |mut streams, stats| {
                                let r = streams.pop().expect("right input");
                                let l = streams.pop().expect("left input");
                                Box::new(SetOperation::new(l, r, op, batch, stats))
                            },
                        )
                    }
                    (BOut::Batches(l), BOut::Batches(r)) => BOut::Batches(Box::new(
                        SetOperation::new(l, r, *op, self.batch, Arc::clone(stats)),
                    )),
                    _ => panic!("set operation inputs must both be streams or both partitioned"),
                }
            }
            PhysOp::TopK { input, k } => {
                let stream = self.run(input, stats, child(prof, 0), None)?.into_batches();
                BOut::Batches(Box::new(BatchTake::new(stream, *k)))
            }
            PhysOp::Exchange { input, to, batch } => match to {
                // Splitting shuffle, pipelined: the child subtree is
                // lowered and drained on the producer thread, and coded
                // batches flow to the partition channels as they fill —
                // no materialization at the boundary.
                Partitioning::Hash { cols, parts } => {
                    let b = batch.unwrap_or(self.batch);
                    let parts = *parts;
                    let spec = input.props.order.clone();
                    let own = prof.and_then(|n| n.gauges());
                    let mut txs = Vec::with_capacity(parts);
                    let mut streams: Vec<PartStream> = Vec::with_capacity(parts);
                    for p in 0..parts {
                        // ovc-lint: allow(bounded-channels-only) -- deliberate unbounded split→worker edge: in-flight data is bounded by the producer's input (DESIGN.md §12); a sync_channel here can deadlock the single splitter against uneven partition drain (§4.10)
                        let (tx, rx) = mpsc::channel::<Result<FlatRows, ExecError>>();
                        txs.push(tx);
                        streams.push(Box::new(BatchChannelStream::new(
                            rx,
                            spec.clone(),
                            gauge_for(own, p),
                        )));
                    }
                    let send_gauges: Vec<Option<Arc<ChannelGauge>>> =
                        (0..parts).map(|p| gauge_for(own, p)).collect();
                    let cx = self.clone();
                    let src_plan: &'env PhysicalPlan = input;
                    let src_prof = child(prof, 0).cloned();
                    let node = prof.cloned();
                    let stats = Arc::clone(stats);
                    let cols = cols.clone();
                    self.scope.spawn(move || {
                        let mut rows = 0u64;
                        let mut nbatches = 0u64;
                        let result = ctx::contain(|| {
                            fault::maybe_panic();
                            // Under a context the child is boundary-wrapped:
                            // draining it checks the context once per batch.
                            let src = cx.run(src_plan, &stats, src_prof.as_ref(), None)?;
                            let route = by_cols_hash(cols, parts);
                            route_batches(src.into_batches(), parts, route, b, |p, fb| {
                                let n = fb.len() as u64;
                                rows += n;
                                nbatches += 1;
                                match &send_gauges[p] {
                                    Some(g) => {
                                        let t0 = Instant::now();
                                        let ok = txs[p].send(Ok(fb)).is_ok();
                                        g.note_send_rows(t0.elapsed(), n);
                                        ok
                                    }
                                    None => txs[p].send(Ok(fb)).is_ok(),
                                }
                            })
                        });
                        if let Err(err) = result.and_then(|routed| routed) {
                            // End every partition with the error, so the
                            // workers see it, not a short clean stream.
                            for tx in &txs {
                                let _ = tx.send(Err(err.clone()));
                            }
                        }
                        drop(txs);
                        if let Some(n) = &node {
                            n.add_rows_out(rows);
                            n.add_batches(nbatches);
                        }
                    });
                    BOut::Parts(streams, spec)
                }
                // Gathering shuffle: merge the live partition streams on
                // the calling thread — the sort's final merge, over inputs
                // that refill — straight into output batches.  Our own
                // gauges ride down to the child so its workers meter the
                // send side of these channels.
                Partitioning::Single => {
                    let b = batch.unwrap_or(self.batch);
                    let own = prof.and_then(|n| n.gauges());
                    let (parts, pspec) = self.run(input, stats, child(prof, 0), own)?.into_parts();
                    let spec = parts
                        .first()
                        .map(|s| s.sort_spec())
                        .unwrap_or_else(|| pspec.clone());
                    let merged = merge_batch_streams(parts, &spec, stats)?;
                    BOut::Batches(SortOutput::Merge(merged).batches(b))
                }
                Partitioning::Any => panic!("Exchange to `any` is not a layout"),
            },
        })
    }

    /// One worker thread per partition: `build` assembles the batch
    /// kernel over that partition's input stream(s) on the worker,
    /// counting into `stats`, and its output batches go down a bounded
    /// channel (in-flight row
    /// budget ≈ [`DEFAULT_CHANNEL_CAPACITY`], message capacity scaled by
    /// the batch size).  `gather` gauges, when present, meter the send
    /// side here and the receive side at the consuming merge.
    fn partitioned<F>(
        &self,
        inputs: Vec<Vec<PartStream>>,
        out_spec: SortSpec,
        stats: &Arc<Stats>,
        prof: Option<&Arc<ProfileNode>>,
        gather: Option<&ExchangeGauges>,
        build: F,
    ) -> BOut
    where
        F: Fn(Vec<PartStream>, Arc<Stats>) -> PartStream + Send + Sync + 'env,
    {
        let cap = DEFAULT_CHANNEL_CAPACITY.div_ceil(self.batch).max(1);
        let build = Arc::new(build);
        let mut outs: Vec<PartStream> = Vec::with_capacity(inputs.len());
        for (p, streams) in inputs.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Result<FlatRows, ExecError>>(cap);
            let send_gauge = gauge_for(gather, p);
            let recv_gauge = gauge_for(gather, p);
            let build = Arc::clone(&build);
            let node = prof.cloned();
            let stats = Arc::clone(stats);
            let cx = self.clone();
            let label = out_spec.clone();
            self.scope.spawn(move || {
                let mut rows = 0u64;
                let mut nbatches = 0u64;
                let result = ctx::contain(|| {
                    fault::maybe_panic();
                    let mut out = build(streams, stats);
                    debug_assert_eq!(out.sort_spec(), label, "kernel and channel labels differ");
                    while let Some(fb) = out.next_batch()? {
                        cx.check()?;
                        let n = fb.len() as u64;
                        rows += n;
                        nbatches += 1;
                        let ok = match &send_gauge {
                            Some(g) => {
                                let t0 = Instant::now();
                                let ok = tx.send(Ok(fb)).is_ok();
                                g.note_send_rows(t0.elapsed(), n);
                                ok
                            }
                            None => tx.send(Ok(fb)).is_ok(),
                        };
                        if !ok {
                            // Consumer gone (early termination above): stop
                            // producing; the input chain unwinds the same way.
                            break;
                        }
                    }
                    Ok(())
                });
                if let Err(err) = result.and_then(|worked| worked) {
                    // End the gather edge with the error: a worker death
                    // (its own panic, or a failed split edge handed on by
                    // its input) reaches the consumer as that error.
                    let _ = tx.send(Err(err));
                }
                if let Some(n) = &node {
                    n.add_rows_out(rows);
                    n.add_batches(nbatches);
                }
            });
            outs.push(Box::new(BatchChannelStream::new(
                rx,
                out_spec.clone(),
                recv_gauge,
            )));
        }
        BOut::Parts(outs, out_spec)
    }
}

/// The operator boundary: the one adapter the executor puts around a
/// lowered operator's batch output, present only when there is a
/// [`QueryCtx`] to check or a [`ProfileNode`] to fill.
///
/// Under a context each `next_batch` is a cancellation point (and a
/// [`fault::FaultPoint::SlowConsumer`] probe, so tests can cross a
/// deadline mid-plan deterministically).  Under profiling the call is
/// timed and its rows and batches counted ([`Meter`]); counters need no
/// metering, since the node's code counts into the node's own block.
/// Rows and codes pass through untouched, so neither perturbs the
/// output.
struct Boundary {
    inner: Box<dyn BatchStream>,
    ctx: Option<QueryCtx>,
    meter: Option<Meter>,
}

/// One operator's streamed-window tallies: accumulated in plain fields
/// and flushed to the node's atomics on drop — one flush per stream,
/// covering early termination (`TopK` abandoning its input) as well as
/// full drains.  Nested boundaries nest their windows, so wall time is
/// inclusive of the subtree, as `EXPLAIN ANALYZE` reports it.
struct Meter {
    node: Arc<ProfileNode>,
    rows: u64,
    batches: u64,
    wall: Duration,
}

impl BatchStream for Boundary {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        if let Some(ctx) = &self.ctx {
            fault::maybe_slow_consumer();
            ctx.check()?;
        }
        let Some(m) = &mut self.meter else {
            return self.inner.next_batch();
        };
        let start = Instant::now();
        let item = self.inner.next_batch();
        m.wall += start.elapsed();
        if let Ok(Some(b)) = &item {
            m.rows += b.len() as u64;
            m.batches += 1;
        }
        item
    }
    fn sort_spec(&self) -> SortSpec {
        self.inner.sort_spec()
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.node.add_rows_out(self.rows);
        self.node.add_batches(self.batches);
        self.node.add_wall(self.wall);
    }
}

/// Spill device wrapper that routes every run transfer through the
/// query context, when there is one: cancellation and deadline are
/// re-checked at each run boundary (runs are the natural quantum of sort
/// I/O) and written bytes charge the context's spill budget before
/// touching the device.
struct CtxStorage {
    inner: MemoryRunStorage,
    ctx: Option<QueryCtx>,
}

impl RunStorage for CtxStorage {
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError> {
        if let Some(ctx) = &self.ctx {
            ctx.check()?;
            ctx.charge_spill(run.spill_bytes())?;
        }
        self.inner.write_run(run)
    }

    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError> {
        if let Some(ctx) = &self.ctx {
            ctx.check()?;
        }
        self.inner.read_run(handle)
    }

    fn stored_runs(&self) -> usize {
        self.inner.stored_runs()
    }
}

#[cfg(test)]
mod tests {
    /// One row shape: outside the helper that feeds the two `ovc-baseline`
    /// hash operators, the executor's code boxes no row.
    #[test]
    fn no_row_is_boxed_outside_the_baseline_helper() {
        let source = include_str!("batch_exec.rs");
        let (code, _) = source
            .split_once("#[cfg(test)]")
            .expect("the test module follows the code");
        let (before, helper) = code
            .split_once("fn baseline_rows(")
            .expect("the baseline helper exists");
        let (_, after) = helper.split_once("\n}\n").expect("the helper ends");
        for banned in ["Row::from_slice", "Row::new", ".to_rows()", "into_rows"] {
            assert!(
                !before.contains(banned) && !after.contains(banned),
                "batch_exec.rs boxes rows outside `baseline_rows`: found `{banned}`"
            );
        }
    }
}
