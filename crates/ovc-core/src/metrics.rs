//! Per-operator runtime profiling: the observability layer behind
//! `EXPLAIN ANALYZE`.
//!
//! The paper's argument is quantitative — codes turn column comparisons
//! into integer comparisons — and F1 Query / Napa justify the technique
//! with *per-operator* accounting.  [`crate::Stats`] measures one
//! pipeline in aggregate; this module adds the per-node view:
//!
//! * [`ProfileNode`] — a live, thread-safe accumulator tree mirroring a
//!   physical plan's shape.  Each node owns one counter block
//!   ([`ProfileNode::stats`]): the executor hands it to every kernel,
//!   sort, spill device and merge it builds for that node, on whatever
//!   thread they run, and its operator-boundary adapter (in `ovc-plan`)
//!   stamps wall time, row and batch counts into the node.
//! * [`ChannelGauge`] / [`ExchangeGauges`] — per-partition counters for
//!   the threaded exchange: how long producers blocked sending, how long
//!   consumers blocked receiving, and the peak queue occupancy of each
//!   bounded channel.  These make the "exchange sandwich" cost readable
//!   from any profiled run instead of requiring a bench session.
//! * [`PlanProfile`] / [`OpMetrics`] — the frozen snapshot of a finished
//!   run, ready for rendering or serialization.
//!
//! **Accounting convention (the Postgres `EXPLAIN ANALYZE` convention):**
//! every per-node figure is *inclusive* of the node's subtree.  A count
//! belongs to the node whose code made it; inclusive is the subtree sum
//! ([`ProfileNode::snapshot`] adds the children's inclusive counters to
//! the node's own block), so it holds across threads too.  Wall time is
//! measured around the node's calls, which contain its children's work.
//! Subtract children to recover self figures.  **No-perturbation
//! rule:** profiling observes rows and codes, never alters them;
//! profiled and unprofiled execution produce byte-identical output and
//! identical [`crate::Stats`] totals (held to that by
//! `tests/profile_properties.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::stats::{Stats, StatsSnapshot};

/// Frozen per-operator measurements from one profiled run.
///
/// All figures are inclusive of the operator's subtree (see the module
/// docs); rows in are therefore *not* stored — they are the sum of the
/// children's `rows_out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Rows this operator emitted.
    pub rows_out: u64,
    /// Batches (partitions) emitted, for partition-producing operators;
    /// 0 for ordinary streams.
    pub batches: u64,
    /// Wall time spent producing this operator's output, inclusive of
    /// its subtree.
    pub wall: Duration,
    /// Counters (column comparisons, code comparisons, spill volume, …)
    /// of this subtree: the node's own plus its children's.
    pub stats: StatsSnapshot,
}

impl OpMetrics {
    /// Column-value comparisons in this subtree (the expensive kind).
    pub fn col_cmps(&self) -> u64 {
        self.stats.col_value_cmps
    }

    /// Offset-value-code comparisons in this subtree — the comparisons
    /// the paper's technique *resolves by integer inspection* instead of
    /// column access.
    pub fn code_resolved_cmps(&self) -> u64 {
        self.stats.ovc_cmps
    }
}

/// Live accumulator for one plan operator, shared (via [`Arc`]) between
/// the executor's instrumented stream adapters and any worker threads
/// the operator spawns.  All fields are atomic: writers never block.
#[derive(Debug)]
pub struct ProfileNode {
    /// Operator name (matches the plan node's `op_name()`).
    pub name: String,
    /// Operator detail string as rendered by `EXPLAIN` (key, predicate,
    /// partitioning target, …).
    pub detail: String,
    rows_out: AtomicU64,
    batches: AtomicU64,
    wall_ns: AtomicU64,
    stats: Arc<Stats>,
    gauges: Option<ExchangeGauges>,
    /// Child nodes, in the plan node's child order.
    pub children: Vec<Arc<ProfileNode>>,
}

impl ProfileNode {
    /// A fresh node with zeroed counters.
    pub fn new(
        name: impl Into<String>,
        detail: impl Into<String>,
        children: Vec<Arc<ProfileNode>>,
    ) -> ProfileNode {
        ProfileNode {
            name: name.into(),
            detail: detail.into(),
            rows_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            stats: Stats::new_shared(),
            gauges: None,
            children,
        }
    }

    /// As [`ProfileNode::new`], with per-partition exchange gauges
    /// attached (one [`ChannelGauge`] per channel).
    pub fn with_gauges(
        name: impl Into<String>,
        detail: impl Into<String>,
        children: Vec<Arc<ProfileNode>>,
        channels: usize,
    ) -> ProfileNode {
        ProfileNode {
            gauges: Some(ExchangeGauges::new(channels)),
            ..ProfileNode::new(name, detail, children)
        }
    }

    /// The node's exchange gauges, if it drives a threaded exchange.
    pub fn gauges(&self) -> Option<&ExchangeGauges> {
        self.gauges.as_ref()
    }

    /// Record `rows` output rows.
    pub fn add_rows_out(&self, rows: u64) {
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record `n` emitted batches (partition-producing operators).
    pub fn add_batches(&self, n: u64) {
        self.batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Add wall time spent producing this node's output.
    pub fn add_wall(&self, d: Duration) {
        self.wall_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The node's own counter block: everything the operator's code
    /// counts, on any thread, goes here (and nothing its children count).
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Freeze this node (and its subtree) into a [`PlanProfile`]; its
    /// counters are its own block plus its children's inclusive ones.
    pub fn snapshot(&self) -> PlanProfile {
        let children: Vec<PlanProfile> = self.children.iter().map(|c| c.snapshot()).collect();
        let mut stats = self.stats.snapshot();
        for c in &children {
            stats.add(&c.metrics.stats);
        }
        PlanProfile {
            name: self.name.clone(),
            detail: self.detail.clone(),
            metrics: OpMetrics {
                rows_out: self.rows_out.load(Ordering::Relaxed),
                batches: self.batches.load(Ordering::Relaxed),
                wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
                stats,
            },
            gauges: self
                .gauges
                .as_ref()
                .map(|g| g.snapshot())
                .unwrap_or_default(),
            children,
        }
    }
}

/// Per-channel counters of one threaded-exchange edge: producer-side
/// send waits, consumer-side receive waits, and queue occupancy.
///
/// "Wait" times are wall time spent inside the blocking `send`/`recv`
/// call — when a channel is never full/empty these stay near zero, and a
/// partition whose consumer lags shows up as producer send wait (the
/// backpressure the bounded channel exists to apply).
#[derive(Debug, Default)]
pub struct ChannelGauge {
    send_wait_ns: AtomicU64,
    recv_wait_ns: AtomicU64,
    /// Rows sent (monotonic).  A batched exchange counts every row a
    /// batch carries, so `rows` always means rows crossed, never
    /// messages.
    rows_sent: AtomicU64,
    /// Messages enqueued (monotonic — one per send, i.e. one per
    /// batch).  Occupancy is `msgs_sent - msgs_received`, which cannot drift the
    /// way a single racing up/down counter can.
    msgs_sent: AtomicU64,
    /// Messages dequeued (monotonic).
    msgs_received: AtomicU64,
    peak_depth: AtomicU64,
}

impl ChannelGauge {
    /// Record one enqueued **batch** carrying `rows` rows: the row
    /// counter grows by `rows` (gauges account rows crossed, not
    /// messages), occupancy grows by one message — a `sync_channel`
    /// bounds messages, so `peak_depth` stays comparable to the channel
    /// capacity whatever the batch size.
    pub fn note_send_rows(&self, wait: Duration, rows: u64) {
        self.send_wait_ns
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        self.rows_sent.fetch_add(rows, Ordering::Relaxed);
        let sent = self.msgs_sent.fetch_add(1, Ordering::Relaxed) + 1;
        let received = self.msgs_received.load(Ordering::Relaxed);
        // Both counters only grow, so the difference cannot drift; the
        // consumer bumps `msgs_received` just after its `recv` returns,
        // so the observed occupancy may exceed the channel bound by the
        // one message in flight on the consumer side (gauges are
        // statistics, not synchronization).
        self.peak_depth
            .fetch_max(sent.saturating_sub(received), Ordering::Relaxed);
    }

    /// Record a batched dequeue: `rows` is the delivered batch's row
    /// count, or `None` for a closed channel (wait still accrues).
    pub fn note_recv_rows(&self, wait: Duration, rows: Option<u64>) {
        self.recv_wait_ns
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        if rows.is_some() {
            self.msgs_received.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Freeze into an owned snapshot.
    pub fn snapshot(&self) -> ChannelGaugeSnapshot {
        ChannelGaugeSnapshot {
            send_wait: Duration::from_nanos(self.send_wait_ns.load(Ordering::Relaxed)),
            recv_wait: Duration::from_nanos(self.recv_wait_ns.load(Ordering::Relaxed)),
            rows: self.rows_sent.load(Ordering::Relaxed),
            peak_depth: self.peak_depth.load(Ordering::Relaxed),
        }
    }
}

/// Frozen [`ChannelGauge`] values for one exchange channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelGaugeSnapshot {
    /// Total producer time blocked sending into this channel.
    pub send_wait: Duration,
    /// Total consumer time blocked receiving from this channel.
    pub recv_wait: Duration,
    /// Rows that crossed the channel (every row of every batch — never
    /// a message count).
    pub rows: u64,
    /// Peak queue occupancy observed, in **messages** (whole batches —
    /// the unit a `sync_channel` capacity bounds; may read one above
    /// the channel bound for the message in flight on the consumer
    /// side).
    pub peak_depth: u64,
}

/// One [`ChannelGauge`] per partition of a threaded exchange.
#[derive(Debug, Default)]
pub struct ExchangeGauges {
    channels: Vec<Arc<ChannelGauge>>,
}

impl ExchangeGauges {
    /// Gauges for `channels` partitions.
    pub fn new(channels: usize) -> ExchangeGauges {
        ExchangeGauges {
            channels: (0..channels).map(|_| Arc::default()).collect(),
        }
    }

    /// The gauge of partition `p` (shared handle, safe to move into a
    /// worker thread).  Panics if `p` is out of range.
    pub fn channel(&self, p: usize) -> Arc<ChannelGauge> {
        Arc::clone(&self.channels[p])
    }

    /// Number of gauged channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Are there no gauged channels?
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Freeze every channel.
    pub fn snapshot(&self) -> Vec<ChannelGaugeSnapshot> {
        self.channels.iter().map(|c| c.snapshot()).collect()
    }
}

/// The frozen profile of one plan run: a tree of [`OpMetrics`] mirroring
/// the physical plan's shape, plus per-channel exchange gauges where the
/// plan moved data between threads.
#[derive(Clone, Debug)]
pub struct PlanProfile {
    /// Operator name.
    pub name: String,
    /// Operator detail (as rendered by `EXPLAIN`).
    pub detail: String,
    /// Measured counters, inclusive of the subtree.
    pub metrics: OpMetrics,
    /// Per-partition exchange gauges (empty for non-exchange operators).
    pub gauges: Vec<ChannelGaugeSnapshot>,
    /// Child profiles, in plan child order.
    pub children: Vec<PlanProfile>,
}

impl PlanProfile {
    /// All nodes of the profile, preorder (matches
    /// `PhysicalPlan::nodes()` order for the mirrored plan).
    pub fn nodes(&self) -> Vec<&PlanProfile> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.nodes());
        }
        out
    }

    /// Find the first node with the given operator name, preorder.
    pub fn find(&self, name: &str) -> Option<&PlanProfile> {
        self.nodes().into_iter().find(|n| n.name == name)
    }

    /// Render the profile tree alone (without plan estimates — the
    /// executor's `explain_analyze` interleaves both).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "{pad}{}{}  [rows out={}, wall={:.3?}, col cmps={}, code cmps={}]",
            self.name,
            self.detail,
            m.rows_out,
            m.wall,
            m.col_cmps(),
            m.code_resolved_cmps(),
        );
        for (p, g) in self.gauges.iter().enumerate() {
            let _ = writeln!(
                out,
                "{pad}  ~ channel {p}: rows={}, send wait={:.3?}, recv wait={:.3?}, peak depth={}",
                g.rows, g.send_wait, g.recv_wait, g.peak_depth
            );
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accumulates_and_snapshots() {
        let child = Arc::new(ProfileNode::new("ScanCoded", " t1", vec![]));
        child.add_rows_out(10);
        let node = Arc::new(ProfileNode::new("SortOvc", " key=[c0 asc]", vec![child]));
        node.add_rows_out(7);
        node.add_wall(Duration::from_millis(3));
        node.add_wall(Duration::from_millis(2));
        node.stats().count_col_cmps(4);
        node.stats().count_ovc_cmps(9);

        let p = node.snapshot();
        assert_eq!(p.name, "SortOvc");
        assert_eq!(p.metrics.rows_out, 7);
        assert_eq!(p.metrics.wall, Duration::from_millis(5));
        assert_eq!(p.metrics.col_cmps(), 4);
        assert_eq!(p.metrics.code_resolved_cmps(), 9);
        assert_eq!(p.nodes().len(), 2);
        assert_eq!(p.find("ScanCoded").unwrap().metrics.rows_out, 10);
        let text = p.render();
        assert!(text.contains("SortOvc key=[c0 asc]"), "{text}");
        assert!(text.contains("rows out=7"), "{text}");
    }

    #[test]
    fn workers_report_into_one_node_across_threads() {
        let node = Arc::new(ProfileNode::new("Exchange", " -> single", vec![]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = Arc::clone(&node);
                std::thread::spawn(move || {
                    n.add_rows_out(5);
                    n.stats().count_ovc_cmps(2);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = node.snapshot();
        assert_eq!(p.metrics.rows_out, 20);
        assert_eq!(p.metrics.code_resolved_cmps(), 8);
    }

    #[test]
    fn inclusive_counters_are_own_block_plus_children() {
        let child = Arc::new(ProfileNode::new("ScanCoded", " t1", vec![]));
        child.stats().count_col_cmps(3);
        child.stats().count_spill(2, 16);
        let node = Arc::new(ProfileNode::new("Filter", "", vec![Arc::clone(&child)]));
        node.stats().count_ovc_cmps(5);
        node.stats().count_col_cmps(1);

        let p = node.snapshot();
        let mut expect = node.stats().snapshot();
        expect.add(&child.stats().snapshot());
        assert_eq!(p.metrics.stats, expect);
        assert_eq!(p.metrics.col_cmps(), 4);
        assert_eq!(p.metrics.code_resolved_cmps(), 5);
        assert_eq!(p.metrics.stats.rows_spilled, 2);
        assert_eq!(p.children[0].metrics.stats, child.stats().snapshot());
    }

    #[test]
    fn channel_gauges_track_waits_and_occupancy() {
        let g = ExchangeGauges::new(2);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        let c0 = g.channel(0);
        c0.note_send_rows(Duration::from_micros(5), 1);
        c0.note_send_rows(Duration::from_micros(5), 1);
        // Two rows enqueued, none dequeued yet: peak depth 2.
        c0.note_recv_rows(Duration::from_micros(1), Some(1));
        c0.note_recv_rows(Duration::from_micros(1), Some(1));
        // A recv on the closed/empty channel counts wait, not depth.
        c0.note_recv_rows(Duration::from_micros(1), None);
        let snap = g.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].rows, 2);
        assert_eq!(snap[0].peak_depth, 2);
        assert_eq!(snap[0].send_wait, Duration::from_micros(10));
        assert_eq!(snap[0].recv_wait, Duration::from_micros(3));
        assert_eq!(snap[1], ChannelGaugeSnapshot::default());
    }

    #[test]
    fn batched_sends_count_rows_but_bound_depth_by_messages() {
        // Satellite contract: a batched exchange's gauge counts rows
        // crossed (not batches), while peak_depth — measured in queued
        // messages, the unit a sync_channel capacity bounds — never
        // exceeds capacity + 1 (the one message in flight on the
        // consumer side).
        let capacity = 4;
        let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(capacity);
        let g = ExchangeGauges::new(1);
        let c = g.channel(0);
        // The consumer holds off until the first send has been noted, so
        // the gauge observes a queued message whatever the scheduling.
        let (noted_tx, noted_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let producer = {
            let c = g.channel(0);
            std::thread::spawn(move || {
                for batch_rows in [100u64, 1, 57, 3, 1024, 9, 9, 9, 300, 2] {
                    let t0 = std::time::Instant::now();
                    tx.send(batch_rows).unwrap();
                    c.note_send_rows(t0.elapsed(), batch_rows);
                    let _ = noted_tx.try_send(());
                }
            })
        };
        noted_rx.recv().unwrap();
        let mut total = 0u64;
        loop {
            let t0 = std::time::Instant::now();
            match rx.recv() {
                Ok(batch_rows) => {
                    c.note_recv_rows(t0.elapsed(), Some(batch_rows));
                    total += batch_rows;
                }
                Err(_) => {
                    c.note_recv_rows(t0.elapsed(), None);
                    break;
                }
            }
        }
        producer.join().unwrap();
        let snap = g.snapshot();
        assert_eq!(snap[0].rows, total, "gauges count rows, not batches");
        assert_eq!(snap[0].rows, 100 + 1 + 57 + 3 + 1024 + 9 + 9 + 9 + 300 + 2);
        assert!(
            snap[0].peak_depth <= capacity as u64 + 1,
            "depth is bounded by the channel's message capacity: {snap:?}"
        );
        assert!(snap[0].peak_depth >= 1);
    }

    #[test]
    fn gauges_survive_cross_thread_reporting() {
        let g = ExchangeGauges::new(1);
        let c = g.channel(0);
        std::thread::spawn(move || {
            for _ in 0..100 {
                c.note_send_rows(Duration::from_nanos(10), 1);
            }
        })
        .join()
        .unwrap();
        let snap = g.snapshot();
        assert_eq!(snap[0].rows, 100);
        assert!(snap[0].peak_depth >= 1);
    }
}
