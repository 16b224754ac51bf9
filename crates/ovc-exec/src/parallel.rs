//! The order-preserving exchange with real threads (Section 4.10, scaled).
//!
//! [`crate::exchange`] implements the paper's splitting/merging shuffles as
//! single-threaded data-flow; this module runs the same code computations
//! across producer/consumer threads connected by **bounded channels**
//! (`std::sync::mpsc::sync_channel` — backpressure, no unbounded queues):
//!
//! * [`split_threaded`] — one-to-many: a producer thread routes rows by
//!   range/hash/round-robin and repairs codes with one
//!   [`OvcAccumulator`] per partition (the filter corollary); each output
//!   partition is a [`ChannelStream`] that any thread may consume.
//! * [`merge_threaded`] — many-to-one: one feeder thread per input pushes
//!   coded rows into its channel; the consuming thread runs the
//!   tree-of-losers merge over the channel streams, producing exact codes
//!   while the feeders are still running.
//! * [`repartition_threaded`] — many-to-many: N splitter threads and P
//!   merger threads all live at once, bounded channels throughout — the
//!   shape of F1 Query's exchange-parallel plans.
//! * [`group_partitions_partial`] / [`count_distinct_partitions_partial`]
//!   — partition-wise workers for the partial-aggregate side of the
//!   split-group decomposition (exchanges hashed on a sort-key prefix
//!   longer than the group key); a `GroupFinal` above the gathering
//!   merge recombines the partials.
//!
//! The query executor (`ovc-plan`) runs its own exchange over flat
//! batches ([`crate::batch`]); of this module it lowers only
//! [`repartition_threaded`].  The row-at-a-time shuffles here are the
//! operator-level form of §4.10 that the property tests and benches
//! drive directly.
//!
//! Code exactness survives every hand-off because codes are a function of
//! the row sequence within a partition stream, and each thread sees its
//! partition in order.  Comparison counters from worker threads are kept
//! in per-thread [`Stats`] and merged into the caller's by snapshot
//! (`ovc_core::stats`), so accounting is identical to the serial exchange.
//!
//! **Fault model** (DESIGN.md §14): every worker thread runs under
//! `ovc_core::ctx::contain`.  A panicking producer sends one **poison
//! frame** — a typed [`ExecError`] — down each of its still-open
//! channels; consumers re-raise it (`ctx::propagate`) the moment they
//! receive it, mergers drain their inlets to completion first so no
//! peer ever blocks on a full channel, and every join site collects
//! *all* workers before the first error propagates.  The net contract:
//! a worker panic fails the **query** with
//! [`ExecError::WorkerPanic`] — it never deadlocks peers, never leaks
//! threads, and never kills the process.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle, ScopedJoinHandle};

use ovc_core::ctx::{self, ExecError};
use ovc_core::fault;
use ovc_core::theorem::OvcAccumulator;
use ovc_core::{CodedBatch, OvcRow, OvcStream, Row, SortSpec, Stats, VecStream};
use ovc_sort::TreeOfLosers;

use crate::group::{Aggregate, GroupCountDistinctPartial, GroupPartial};

/// Default bound of every exchange channel, in rows.  Small enough for
/// backpressure to keep memory flat, large enough to amortize wakeups.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// What flows over an exchange channel: a coded row, or — exactly once,
/// as the producer's last word before it exits — a **poison frame**
/// carrying the typed error that killed the producer.  Consumers
/// re-raise the poison via [`ctx::propagate`]; a channel that closes
/// without poison is a clean end-of-stream.
enum Frame {
    Row(OvcRow),
    Poison(ExecError),
}

/// Join every handle, collecting successful results and the **first**
/// failure (a contained [`ExecError`] or a raw panic payload).  Joining
/// all peers before any error propagates is the no-deadlock half of the
/// fault contract: no worker outlives the failing query, and no bounded
/// channel keeps a peer blocked behind an early return.
fn reap<'scope, T>(
    handles: Vec<ScopedJoinHandle<'scope, Result<T, ExecError>>>,
) -> (Vec<T>, Option<ExecError>) {
    let mut outs = Vec::with_capacity(handles.len());
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(value)) => outs.push(value),
            Ok(Err(err)) => {
                failure.get_or_insert(err);
            }
            Err(payload) => {
                failure.get_or_insert(ctx::error_from_panic(payload));
            }
        }
    }
    (outs, failure)
}

/// A coded stream arriving over a bounded channel from a producer thread.
///
/// `ChannelStream` is `Send`: it can be handed to whichever thread runs
/// the consuming operator.  Iteration blocks on the producer (that is the
/// backpressure) and ends when the producer drops its sender; a poison
/// frame re-raises the producer's typed error on the consuming thread.
pub struct ChannelStream {
    rx: Receiver<Frame>,
    spec: SortSpec,
}

impl Iterator for ChannelStream {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        fault::maybe_slow_consumer();
        match self.rx.recv().ok() {
            Some(Frame::Row(row)) => Some(row),
            Some(Frame::Poison(err)) => ctx::propagate(err),
            None => None,
        }
    }
}

impl OvcStream for ChannelStream {
    fn key_len(&self) -> usize {
        self.spec.len()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// The output side of [`split_threaded`]: per-partition channel streams
/// plus the producer's join handle.
pub struct SplitThreads {
    partitions: Vec<ChannelStream>,
    producer: JoinHandle<()>,
}

impl SplitThreads {
    /// Take the partition streams (each `Send`, consumable by any thread)
    /// and the producer handle to [`join`](JoinHandle::join) afterwards.
    pub fn into_parts(self) -> (Vec<ChannelStream>, JoinHandle<()>) {
        (self.partitions, self.producer)
    }

    /// Drain every partition concurrently (one consumer thread each) and
    /// return the materialized batches.
    ///
    /// Draining partitions **sequentially** against a bounded-channel
    /// producer deadlocks — the producer blocks on a full buffer of a
    /// partition nobody is reading yet (the very deadlock §4.10 notes
    /// real systems design around) — so this helper always fans out.
    pub fn collect_all(self) -> Vec<CodedBatch> {
        let (parts, producer) = self.into_parts();
        let (out, failure) = thread::scope(|scope| {
            let consumers: Vec<_> = parts
                .into_iter()
                .map(|p| scope.spawn(move || ctx::contain(|| CodedBatch::from_stream(p))))
                .collect();
            reap(consumers)
        });
        // Every consumer has drained or dropped its channel, so the
        // producer (which contains its own panics into poison frames)
        // has already exited; a join failure here can only be the
        // poison hand-off itself dying, which still maps to a typed
        // error rather than a crash.
        let producer_failure = producer.join().err().map(ctx::error_from_panic);
        if let Some(err) = failure.or(producer_failure) {
            ctx::propagate(err);
        }
        out
    }
}

/// One-to-many splitting shuffle on a real producer thread.
///
/// The producer owns one [`OvcAccumulator`] per partition: a row routed to
/// partition `p` is "kept" there and "absorbed" by every other partition's
/// accumulator, so each partition stream carries exact codes relative to
/// its own previous row — the same repair the serial
/// [`crate::exchange::split`] performs, now overlapped with consumption.
pub fn split_threaded<P>(input: CodedBatch, parts: usize, part: P, capacity: usize) -> SplitThreads
where
    P: FnMut(&Row) -> usize + Send + 'static,
{
    assert!(parts > 0, "split needs at least one partition");
    let spec = input.sort_spec().clone();
    let capacity = capacity.max(1);
    let (txs, rxs): (Vec<SyncSender<Frame>>, Vec<Receiver<Frame>>) =
        (0..parts).map(|_| sync_channel(capacity)).unzip();
    let producer = thread::spawn(move || {
        let result = ctx::contain(|| {
            fault::maybe_panic();
            route_coded_rows(input, parts, part, |p, row| {
                txs[p].send(Frame::Row(row)).is_ok()
            });
        });
        if let Err(err) = result {
            // Poison every partition so consumers see the typed error
            // instead of mistaking the close for clean end-of-stream.
            // Backpressure cannot wedge this: a live consumer drains
            // its channel, and a dead one makes the send fail cleanly.
            for tx in &txs {
                let _ = tx.send(Frame::Poison(err.clone()));
            }
        }
    });
    SplitThreads {
        partitions: rxs
            .into_iter()
            .map(|rx| ChannelStream {
                rx,
                spec: spec.clone(),
            })
            .collect(),
        producer,
    }
}

/// The splitting side shared by [`split_threaded`] and
/// [`repartition_threaded`]: route every row of `input` with `part`,
/// repairing codes with one [`OvcAccumulator`] per partition (a row
/// "kept" by partition `p` is "absorbed" by every other partition's
/// accumulator — the filter corollary), and hand each coded row to
/// `send`.  A `false` return from `send` closes that partition (its
/// consumer is gone); the others keep flowing.
fn route_coded_rows<P>(
    input: CodedBatch,
    parts: usize,
    mut part: P,
    mut send: impl FnMut(usize, OvcRow) -> bool,
) where
    P: FnMut(&Row) -> usize,
{
    let mut accs = vec![OvcAccumulator::new(); parts];
    let mut open = vec![true; parts];
    for OvcRow { row, code } in input.into_stream() {
        let p = part(&row);
        assert!(p < parts, "partition function out of range");
        let out_code = accs[p].emit(code);
        for (i, acc) in accs.iter_mut().enumerate() {
            if i != p {
                acc.absorb(code);
            }
        }
        // The row moves straight into the send — no per-row clone.
        if open[p] && !send(p, OvcRow::new(row, out_code)) {
            open[p] = false;
        }
    }
}

/// Many-to-one merging shuffle: feeder threads push each input batch into
/// a bounded channel; the *calling* thread consumes the tree-of-losers
/// merge as a coded stream while the feeders run.
///
/// Dropping the stream early is safe: closed channels make the feeders
/// exit, and the feeder threads are joined on drop.
pub struct MergeThreaded {
    tree: Option<TreeOfLosers<ChannelStream>>,
    feeders: Vec<JoinHandle<()>>,
    spec: SortSpec,
}

impl Iterator for MergeThreaded {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        self.tree.as_mut().and_then(|t| t.next())
    }
}

impl OvcStream for MergeThreaded {
    fn key_len(&self) -> usize {
        self.spec.len()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

impl Drop for MergeThreaded {
    fn drop(&mut self) {
        // Drop the tree (and its receivers) first so blocked feeders see
        // closed channels instead of deadlocking, then reap them.
        self.tree = None;
        for f in self.feeders.drain(..) {
            let _ = f.join();
        }
    }
}

/// Order-preserving many-to-one merge over worker-fed channels, with
/// the default ascending ordering on the leading `key_len` columns.
pub fn merge_threaded(
    inputs: Vec<CodedBatch>,
    key_len: usize,
    capacity: usize,
    stats: &Arc<Stats>,
) -> MergeThreaded {
    merge_threaded_spec(inputs, SortSpec::asc(key_len), capacity, stats)
}

/// Order-preserving many-to-one merge over worker-fed channels under an
/// arbitrary [`SortSpec`] (the inputs must all carry it).
pub fn merge_threaded_spec(
    inputs: Vec<CodedBatch>,
    spec: SortSpec,
    capacity: usize,
    stats: &Arc<Stats>,
) -> MergeThreaded {
    debug_assert!(inputs.iter().all(|b| b.sort_spec() == &spec));
    let capacity = capacity.max(1);
    let mut streams = Vec::with_capacity(inputs.len());
    let mut feeders = Vec::with_capacity(inputs.len());
    for batch in inputs {
        let (tx, rx) = sync_channel::<Frame>(capacity);
        feeders.push(thread::spawn(move || {
            let result = ctx::contain(|| {
                fault::maybe_panic();
                for row in batch.into_stream() {
                    if tx.send(Frame::Row(row)).is_err() {
                        break; // consumer gone: stop feeding
                    }
                }
            });
            if let Err(err) = result {
                // Poison this inlet: the merge re-raises the typed
                // error the moment the tournament next reads it.
                let _ = tx.send(Frame::Poison(err));
            }
        }));
        streams.push(ChannelStream {
            rx,
            spec: spec.clone(),
        });
    }
    MergeThreaded {
        tree: Some(TreeOfLosers::new_spec(
            streams,
            spec.clone(),
            Arc::clone(stats),
        )),
        feeders,
        spec,
    }
}

/// Many-to-many shuffle with N splitter threads and `parts_out` merger
/// threads running concurrently, one bounded channel per merger.
///
/// Each splitter repairs codes per output partition (as in
/// [`split_threaded`]); each merger drains its inlet into per-splitter
/// buffers and runs a tree-of-losers over them with a per-thread
/// [`Stats`], merged into the caller's counters after the join.  Returns
/// the materialized output partitions.
pub fn repartition_threaded<P>(
    inputs: Vec<CodedBatch>,
    key_len: usize,
    parts_out: usize,
    mut make_part: impl FnMut() -> P,
    capacity: usize,
    stats: &Arc<Stats>,
) -> Vec<CodedBatch>
where
    P: FnMut(&Row) -> usize + Send,
{
    assert!(parts_out > 0, "repartition needs at least one partition");
    debug_assert!(inputs.iter().all(|b| b.key_len() == key_len));
    let capacity = capacity.max(1);
    let n_inputs = inputs.len();

    // One bounded channel per *merger*, shared by all splitters, rows
    // tagged with their splitter index.  A merger blocks on its single
    // inlet and is therefore always draining, which is the deadlock
    // avoidance §4.10 alludes to: with one bounded channel per
    // splitter×merger edge, a merge that waits on one splitter's row
    // while another splitter's buffer sits full forms a
    // producer/consumer wait cycle.  mpsc guarantees per-sender FIFO, so
    // each splitter's partition order (and with it code exactness)
    // survives the shared channel.
    let mut merger_rxs = Vec::with_capacity(parts_out);
    let mut txs_template: Vec<SyncSender<(usize, Frame)>> = Vec::with_capacity(parts_out);
    for _ in 0..parts_out {
        let (tx, rx) = sync_channel::<(usize, Frame)>(capacity);
        txs_template.push(tx);
        merger_rxs.push(rx);
    }

    let (merged, failure) = thread::scope(|scope| {
        // Splitters: one thread per input, the same routing core as
        // split_threaded, rows tagged with their splitter index.  Each
        // runs contained: a panicking splitter poisons every merger
        // inlet it still holds and exits instead of tearing the scope.
        for (idx, batch) in inputs.into_iter().enumerate() {
            let txs = txs_template.clone();
            let part = make_part();
            scope.spawn(move || {
                let result = ctx::contain(|| {
                    fault::maybe_panic();
                    route_coded_rows(batch, parts_out, part, |p, row| {
                        txs[p].send((idx, Frame::Row(row))).is_ok()
                    });
                });
                if let Err(err) = result {
                    for tx in &txs {
                        let _ = tx.send((idx, Frame::Poison(err.clone())));
                    }
                }
            });
        }
        // The template senders must drop before the mergers can see
        // end-of-input (a merger's channel closes when every splitter
        // has dropped its clone).
        drop(txs_template);

        // Mergers: one thread per output partition, per-thread Stats.
        // Each blocks on its inlet, demultiplexes rows back into
        // per-splitter buffers, then runs the coded tree-of-losers merge.
        // A poison frame fails the merger's partition — but it keeps
        // draining its inlet to the end first, so the *healthy*
        // splitters never block on a full channel (§4.10's wait cycle).
        let mergers: Vec<_> = merger_rxs
            .into_iter()
            .map(|rx| {
                scope.spawn(move || {
                    let mut bufs: Vec<Vec<OvcRow>> = vec![Vec::new(); n_inputs];
                    let mut poison: Option<ExecError> = None;
                    while let Ok((idx, frame)) = rx.recv() {
                        match frame {
                            Frame::Row(row) => {
                                if poison.is_none() {
                                    bufs[idx].push(row);
                                }
                            }
                            Frame::Poison(err) => {
                                if poison.is_none() {
                                    poison = Some(err);
                                    bufs.iter_mut().for_each(Vec::clear);
                                }
                            }
                        }
                    }
                    if let Some(err) = poison {
                        return Err(err);
                    }
                    let local = Stats::new_shared();
                    let streams: Vec<_> = bufs
                        .into_iter()
                        .map(|rows| VecStream::from_coded(rows, key_len))
                        .collect();
                    let rows: Vec<OvcRow> =
                        TreeOfLosers::new(streams, key_len, Arc::clone(&local)).collect();
                    Ok((rows, local.snapshot()))
                })
            })
            .collect();
        reap(mergers)
    });

    let outs: Vec<CodedBatch> = merged
        .into_iter()
        .map(|(rows, snapshot)| {
            stats.absorb(&snapshot);
            CodedBatch::from_coded(rows, key_len)
        })
        .collect();
    if let Some(err) = failure {
        ctx::propagate(err);
    }
    outs
}

/// Shared worker harness of the partition operators: one thread per
/// partition item (a batch, or a co-partitioned batch pair), each with
/// its own [`Stats`] merged into the caller's by snapshot after the
/// join.
fn partition_workers<T, F>(parts: Vec<T>, stats: &Arc<Stats>, work: F) -> Vec<CodedBatch>
where
    T: Send,
    F: Fn(T, Arc<Stats>) -> CodedBatch + Send + Sync,
{
    let (outs, failure) = thread::scope(|scope| {
        let workers: Vec<_> = parts
            .into_iter()
            .map(|item| {
                let work = &work;
                scope.spawn(move || {
                    ctx::contain(|| {
                        fault::maybe_panic();
                        let local = Stats::new_shared();
                        let out = work(item, Arc::clone(&local));
                        (out, local.snapshot())
                    })
                })
            })
            .collect();
        reap(workers)
    });
    let batches: Vec<CodedBatch> = outs
        .into_iter()
        .map(|(batch, snapshot)| {
            stats.absorb(&snapshot);
            batch
        })
        .collect();
    if let Some(err) = failure {
        ctx::propagate(err);
    }
    batches
}

/// Partial half of the split-group decomposition: one
/// [`crate::group::GroupPartial`] worker per partition, for exchanges
/// hashed on a sort-key prefix longer than the group key.  The returned
/// batches stay coded at the **full input arity**; gather them with
/// [`merge_threaded`] at that arity and merge the adjacent partials
/// with [`crate::group::GroupFinal`] to recover the serial rows and
/// codes.
pub fn group_partitions_partial(
    parts: Vec<CodedBatch>,
    group_len: usize,
    aggs: Vec<Aggregate>,
    stats: &Arc<Stats>,
) -> Vec<CodedBatch> {
    partition_workers(parts, stats, move |batch, local| {
        let key_len = batch.key_len();
        let rows: Vec<OvcRow> =
            GroupPartial::new(batch.into_stream(), group_len, aggs.clone(), local).collect();
        CodedBatch::from_coded(rows, key_len)
    })
}

/// Count-distinct flavour of [`group_partitions_partial`]: per-partition
/// [`crate::group::GroupCountDistinctPartial`] workers.  Equal full keys
/// hash equally, so per-partition distinct counts are disjoint and the
/// downstream [`crate::group::GroupFinal`] (over `[Aggregate::Count]`)
/// sums them into the exact global counts.
pub fn count_distinct_partitions_partial(
    parts: Vec<CodedBatch>,
    group_len: usize,
    stats: &Arc<Stats>,
) -> Vec<CodedBatch> {
    partition_workers(parts, stats, move |batch, local| {
        let key_len = batch.key_len();
        let rows: Vec<OvcRow> =
            GroupCountDistinctPartial::new(batch.into_stream(), group_len, local).collect();
        CodedBatch::from_coded(rows, key_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{self, partition};
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::stream::collect_pairs;
    use ovc_core::{Ovc, VecStream};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch(n: usize, seed: u64) -> (CodedBatch, Vec<Row>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..30u64), rng.gen_range(0..30u64)]))
            .collect();
        rows.sort();
        (CodedBatch::from_sorted_rows(rows.clone(), 2), rows)
    }

    fn check_exact(b: &CodedBatch) {
        let pairs: Vec<(Row, Ovc)> = b
            .to_ovc_rows()
            .iter()
            .map(|r| (r.row.clone(), r.code))
            .collect();
        assert_codes_exact(&pairs, b.key_len());
    }

    #[test]
    fn threaded_split_matches_serial_split() {
        let (input, rows) = batch(400, 1);
        let serial = exchange::split(
            VecStream::from_sorted_rows(rows, 2),
            4,
            partition::by_hash(0, 4),
        );
        let threaded = split_threaded(input, 4, partition::by_hash(0, 4), 16).collect_all();
        assert_eq!(threaded.len(), 4);
        for (t, s) in threaded.into_iter().zip(serial) {
            check_exact(&t);
            assert_eq!(t.into_rows(), s.collect::<Vec<OvcRow>>());
        }
    }

    #[test]
    fn threaded_split_partitions_consumed_on_worker_threads() {
        let (input, rows) = batch(300, 2);
        let (parts, producer) = split_threaded(input, 3, partition::by_hash(1, 3), 8).into_parts();
        let consumers: Vec<_> = parts
            .into_iter()
            .map(|p| thread::spawn(move || CodedBatch::from_stream(p)))
            .collect();
        let mut total = 0;
        for c in consumers {
            let b = match c.join() {
                Ok(b) => b,
                Err(payload) => ctx::propagate(ctx::error_from_panic(payload)),
            };
            check_exact(&b);
            total += b.len();
        }
        assert!(producer.join().is_ok(), "split producer must exit cleanly");
        assert_eq!(total, rows.len());
    }

    #[test]
    fn poisoned_split_surfaces_typed_error_on_every_partition() {
        // A partition function that dies mid-stream runs on the producer
        // thread: the containment there must poison every partition, and
        // each consumer must see WorkerPanic — not a clean short stream.
        let (input, _) = batch(300, 23);
        let mut n = 0usize;
        let split = split_threaded(
            input,
            3,
            move |_row: &Row| {
                n += 1;
                assert!(n <= 50, "router failed mid-stream");
                n % 3
            },
            256, // roomy channels: partitions are drained sequentially below
        );
        let (parts, producer) = split.into_parts();
        for p in parts {
            match ctx::contain(|| p.collect::<Vec<OvcRow>>()) {
                Err(err) => assert_eq!(err.reason(), "worker_panic"),
                Ok(rows) => panic!("partition must end in poison, got {} rows", rows.len()),
            }
        }
        assert!(
            producer.join().is_ok(),
            "producer must contain its own panic"
        );
    }

    #[test]
    fn panicking_partition_worker_yields_typed_error_after_all_peers_join() {
        let (a, _) = batch(100, 24);
        let (b, _) = batch(100, 25);
        let stats = Stats::new_shared();
        let result = ctx::contain(|| {
            partition_workers(vec![(a, false), (b, true)], &stats, |(batch, fail), _| {
                assert!(!fail, "worker blew up");
                batch
            })
        });
        match result {
            Err(err) => {
                assert_eq!(err.reason(), "worker_panic");
                assert!(err.to_string().contains("worker blew up"), "{err}");
            }
            Ok(_) => panic!("injected worker panic must fail the query"),
        }
    }

    #[test]
    fn threaded_merge_round_trips() {
        let (input, rows) = batch(500, 3);
        let stats = Stats::new_shared();
        let parts = split_threaded(input, 8, partition::by_hash(0, 8), DEFAULT_CHANNEL_CAPACITY)
            .collect_all();
        let merged = merge_threaded(parts, 2, DEFAULT_CHANNEL_CAPACITY, &stats);
        let pairs = collect_pairs(merged);
        assert_codes_exact(&pairs, 2);
        let got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, rows, "threaded shuffle round trip");
    }

    #[test]
    fn threaded_merge_dropped_early_joins_cleanly() {
        let (input, _) = batch(2000, 4);
        let stats = Stats::new_shared();
        let parts = split_threaded(input, 4, partition::round_robin(4), 8).collect_all();
        let mut merged = merge_threaded(parts, 2, 2, &stats);
        let _ = merged.next();
        drop(merged); // feeders must exit via closed channels, not hang
    }

    #[test]
    fn repartition_matches_serial_many_to_many() {
        let (a, rows_a) = batch(300, 5);
        let (b, rows_b) = batch(300, 6);
        let stats = Stats::new_shared();
        let outs = repartition_threaded(vec![a, b], 2, 4, || partition::by_hash(0, 4), 16, &stats);
        let serial_stats = Stats::new_shared();
        let serial = exchange::many_to_many(
            vec![
                VecStream::from_sorted_rows(rows_a.clone(), 2),
                VecStream::from_sorted_rows(rows_b.clone(), 2),
            ],
            4,
            || partition::by_hash(0, 4),
            &serial_stats,
        );
        let mut total = 0;
        for (t, s) in outs.into_iter().zip(serial) {
            check_exact(&t);
            total += t.len();
            assert_eq!(t.into_rows(), s.collect::<Vec<OvcRow>>());
        }
        assert_eq!(total, rows_a.len() + rows_b.len());
        // Per-thread merger counters landed in the caller's stats, and the
        // totals agree with the serial exchange (dop-invariant accounting).
        assert_eq!(stats.ovc_cmps(), serial_stats.ovc_cmps());
        assert_eq!(stats.col_value_cmps(), serial_stats.col_value_cmps());
    }

    #[test]
    fn skewed_split_one_empty_one_hot() {
        let (input, rows) = batch(200, 7);
        // by_range routes values below the boundary to partition 0, so a
        // boundary above the whole domain leaves partition 1 empty and
        // partition 0 hot.
        let parts = split_threaded(input, 2, partition::by_range(vec![1000]), 4).collect_all();
        assert_eq!(parts[1].len(), 0, "nothing reaches the upper range");
        assert_eq!(parts[0].len(), rows.len());
        check_exact(&parts[0]);
    }

    #[test]
    fn prefix_hashed_partial_aggregation_matches_serial() {
        use crate::group::{Aggregate, GroupAggregate, GroupFinal};
        // Hash on the FULL sort key while grouping on a 1-column prefix:
        // groups split across partitions, so each worker emits partials
        // and a final merge above the gather recombines them.
        let mut rows: Vec<Row> = {
            let mut rng = StdRng::seed_from_u64(73);
            (0..500)
                .map(|_| {
                    Row::new(vec![
                        rng.gen_range(0..5u64),
                        rng.gen_range(0..10u64),
                        rng.gen_range(0..30u64),
                    ])
                })
                .collect()
        };
        rows.sort();
        let aggs = vec![
            Aggregate::Count,
            Aggregate::Sum(2),
            Aggregate::Min(2),
            Aggregate::Max(2),
            Aggregate::First(2),
            Aggregate::Last(2),
        ];
        use ovc_core::{BatchStream, SortSpec, VecBatchStream};
        let input = CodedBatch::from_sorted_rows(rows.clone(), 3).into_flat();
        let mut group = GroupAggregate::new(
            VecBatchStream::new(vec![input], SortSpec::asc(3)),
            1,
            aggs.clone(),
            rows.len(),
            Stats::new_shared(),
        );
        let serial = group.next_batch().expect("groups").to_ovc_rows();
        for parts in [1usize, 2, 4] {
            let stats = Stats::new_shared();
            let split = split_threaded(
                CodedBatch::from_sorted_rows(rows.clone(), 3),
                parts,
                partition::by_key_hash(3, parts),
                16,
            )
            .collect_all();
            let partials = group_partitions_partial(split, 1, aggs.clone(), &stats);
            let gathered = merge_threaded(partials, 3, 16, &stats);
            let out: Vec<OvcRow> =
                GroupFinal::new(gathered, 1, aggs.clone(), Arc::clone(&stats)).collect();
            assert_eq!(out, serial, "parts={parts}: rows and codes");
        }
    }

    #[test]
    fn prefix_hashed_count_distinct_partials_match_serial() {
        use crate::group::{Aggregate, GroupCountDistinct, GroupFinal};
        let mut rows: Vec<Row> = {
            let mut rng = StdRng::seed_from_u64(81);
            (0..400)
                .map(|_| Row::new(vec![rng.gen_range(0..4u64), rng.gen_range(0..6u64)]))
                .collect()
        };
        rows.sort();
        let serial: Vec<OvcRow> = GroupCountDistinct::new(
            VecStream::from_sorted_rows(rows.clone(), 2),
            1,
            Stats::new_shared(),
        )
        .collect();
        for parts in [2usize, 3] {
            let stats = Stats::new_shared();
            let split = split_threaded(
                CodedBatch::from_sorted_rows(rows.clone(), 2),
                parts,
                partition::by_key_hash(2, parts),
                16,
            )
            .collect_all();
            let partials = count_distinct_partitions_partial(split, 1, &stats);
            let gathered = merge_threaded(partials, 2, 16, &stats);
            let out: Vec<OvcRow> =
                GroupFinal::new(gathered, 1, vec![Aggregate::Count], Arc::clone(&stats)).collect();
            assert_eq!(out, serial, "parts={parts}: rows and codes");
        }
    }

    #[test]
    fn empty_input_produces_empty_partitions() {
        let input = CodedBatch::from_sorted_rows(vec![], 1);
        let parts = split_threaded(input, 3, partition::round_robin(3), 4).collect_all();
        assert!(parts.iter().all(|p| p.is_empty()));
        let stats = Stats::new_shared();
        assert_eq!(merge_threaded(vec![], 1, 4, &stats).count(), 0);
    }
}
