//! Comparison and I/O accounting.
//!
//! The paper's central efficiency claims are about *counts*: column-value
//! comparisons are bounded by `N × K` with no `log N` factor (Section 3),
//! and the sort-based plan of Figure 6 spills each row once where the
//! hash-based plan spills many rows twice.  These counters make those
//! claims measurable independent of wall-clock noise; EXPERIMENTS.md and
//! the `ablation_counters` test are driven by them.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters for one pipeline of execution.  Operators hold an
/// `Arc<Stats>` along a pipeline; the counters are relaxed atomics, so a
/// `Stats` is `Send + Sync` and a whole pipeline — plan handle, operator
/// stack, output stream — can move to a connection-handler thread and
/// execute there (the `ovc-server` deployment shape).  Parallel
/// components (the threaded exchange, parallel run generation) hand
/// their workers the one `Arc<Stats>` they count into, so every worker's
/// counts land in it, nothing lost or double-counted, with no per-thread
/// copy to merge.  [`Stats::absorb`] folds a [`StatsSnapshot`] in where
/// counts were gathered elsewhere (a profile's inclusive counters, a
/// server's per-query totals).  Relaxed ordering is sufficient:
/// counters are statistics, not synchronization.
///
/// Each add here is a `lock`-prefixed instruction, dearer than the code
/// comparison it counts, so the hot loops do not count on this handle
/// per comparison.  A batch kernel counts into a local tally (a
/// [`Tally`], or a plain integer for a one-test-per-row loop) and
/// publishes it with one batch add ([`Stats::count_ovc_cmps`],
/// [`Stats::count_col_cmps`]) per `next_batch`, before the call returns,
/// so a consumer that stops pulling leaves no count unpublished, and
/// threads sharing one `Stats` touch its atomics once per batch.
///
/// ```
/// use std::sync::Arc;
/// use ovc_core::Stats;
///
/// // A worker publishes into the coordinator's handle.
/// let shared = Stats::new_shared();
/// let worker = Arc::clone(&shared);
/// std::thread::spawn(move || worker.count_col_cmps(3)).join().unwrap();
///
/// // Counts gathered elsewhere fold in by snapshot.
/// let elsewhere = Stats::default();
/// elsewhere.count_ovc_cmp();
/// shared.absorb(&elsewhere.snapshot());
///
/// assert_eq!(shared.col_value_cmps(), 3);
/// assert_eq!(shared.ovc_cmps(), 1);
/// ```
#[derive(Default)]
pub struct Stats {
    col_value_cmps: AtomicU64,
    ovc_cmps: AtomicU64,
    row_cmps: AtomicU64,
    rows_spilled: AtomicU64,
    bytes_spilled: AtomicU64,
    rows_read_back: AtomicU64,
    bytes_read_back: AtomicU64,
}

impl Stats {
    /// Fresh zeroed counters behind an `Arc` (the common way operators
    /// share them along a pipeline, and the handle that crosses threads).
    pub fn new_shared() -> Arc<Stats> {
        Arc::new(Stats::default())
    }

    /// Count one column-value comparison (the expensive kind the paper
    /// bounds by `N × K`).
    #[inline]
    pub fn count_col_cmp(&self) {
        self.col_value_cmps.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` column-value comparisons at once.
    #[inline]
    pub fn count_col_cmps(&self, n: u64) {
        self.col_value_cmps.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one offset-value-code comparison (a single integer compare;
    /// the paper argues these are practically free).
    #[inline]
    pub fn count_ovc_cmp(&self) {
        self.ovc_cmps.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` offset-value-code comparisons at once: the batch form a
    /// kernel publishes its local count with.
    #[inline]
    pub fn count_ovc_cmps(&self, n: u64) {
        self.ovc_cmps.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one full row comparison (baseline algorithms).
    #[inline]
    pub fn count_row_cmp(&self) {
        self.row_cmps.fetch_add(1, Ordering::Relaxed);
    }

    /// Account rows and bytes written to spill storage.
    #[inline]
    pub fn count_spill(&self, rows: u64, bytes: u64) {
        self.rows_spilled.fetch_add(rows, Ordering::Relaxed);
        self.bytes_spilled.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account rows and bytes read back from spill storage.
    #[inline]
    pub fn count_read_back(&self, rows: u64, bytes: u64) {
        self.rows_read_back.fetch_add(rows, Ordering::Relaxed);
        self.bytes_read_back.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total column-value comparisons so far.
    pub fn col_value_cmps(&self) -> u64 {
        self.col_value_cmps.load(Ordering::Relaxed)
    }

    /// Total offset-value-code comparisons so far.
    pub fn ovc_cmps(&self) -> u64 {
        self.ovc_cmps.load(Ordering::Relaxed)
    }

    /// Total full row comparisons so far.
    pub fn row_cmps(&self) -> u64 {
        self.row_cmps.load(Ordering::Relaxed)
    }

    /// Total rows spilled so far.
    pub fn rows_spilled(&self) -> u64 {
        self.rows_spilled.load(Ordering::Relaxed)
    }

    /// Total bytes spilled so far.
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_spilled.load(Ordering::Relaxed)
    }

    /// Total rows read back from spill storage so far.
    pub fn rows_read_back(&self) -> u64 {
        self.rows_read_back.load(Ordering::Relaxed)
    }

    /// Total bytes read back from spill storage so far.
    pub fn bytes_read_back(&self) -> u64 {
        self.bytes_read_back.load(Ordering::Relaxed)
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            col_value_cmps: self.col_value_cmps(),
            ovc_cmps: self.ovc_cmps(),
            row_cmps: self.row_cmps(),
            rows_spilled: self.rows_spilled(),
            bytes_spilled: self.bytes_spilled(),
            rows_read_back: self.rows_read_back(),
            bytes_read_back: self.bytes_read_back(),
        }
    }

    /// Add a snapshot (e.g. from another thread's `Stats`) into this one.
    pub fn absorb(&self, s: &StatsSnapshot) {
        self.count_col_cmps(s.col_value_cmps);
        self.count_ovc_cmps(s.ovc_cmps);
        self.row_cmps.fetch_add(s.row_cmps, Ordering::Relaxed);
        self.count_spill(s.rows_spilled, s.bytes_spilled);
        self.count_read_back(s.rows_read_back, s.bytes_read_back);
    }
}

impl fmt::Debug for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Where the comparators of [`crate::compare`] count: a [`Tally`] that a
/// single-threaded loop flushes into the query's [`Stats`] once per batch
/// (every tournament and executor kernel), or the shared `Stats` itself
/// (one-off comparisons and the baseline sorts, which also count row
/// comparisons a `Tally` does not carry).
pub trait CmpCounter {
    /// Count one column-value comparison.
    fn count_col_cmp(&self);
    /// Count one offset-value-code comparison.
    fn count_ovc_cmp(&self);
}

impl CmpCounter for Stats {
    #[inline]
    fn count_col_cmp(&self) {
        Stats::count_col_cmp(self);
    }
    #[inline]
    fn count_ovc_cmp(&self) {
        Stats::count_ovc_cmp(self);
    }
}

impl<C: CmpCounter + ?Sized> CmpCounter for Arc<C> {
    fn count_col_cmp(&self) {
        (**self).count_col_cmp();
    }
    fn count_ovc_cmp(&self) {
        (**self).count_ovc_cmp();
    }
}

/// Comparison counts in plain cells: a tournament counts about twenty
/// code comparisons per row, and a relaxed atomic add on the shared
/// [`Stats`] is a `lock`-prefixed instruction each.  The loop counts here
/// instead and [`Tally::flush`]es at its batch or run boundary — inside
/// the `next_batch` that made the comparisons — so the totals stay
/// exact.
///
/// A tournament does not even count per match: a build plays `cap − 1`
/// matches and a leaf-to-root pass `log2(cap)`, known before either
/// starts, so each adds its whole count in one [`Tally::count_ovc_cmps`].
/// Column comparisons, which only tied codes make, are counted one by one
/// where they happen.
#[derive(Debug, Default)]
pub struct Tally {
    col_value_cmps: Cell<u64>,
    ovc_cmps: Cell<u64>,
}

impl Tally {
    /// Count `n` offset-value-code comparisons at once.
    #[inline]
    pub fn count_ovc_cmps(&self, n: u64) {
        self.ovc_cmps.set(self.ovc_cmps.get() + n);
    }

    /// Move the counts into `stats`, leaving the tally at zero.
    pub fn flush(&self, stats: &Stats) {
        let (col, ovc) = (self.col_value_cmps.take(), self.ovc_cmps.take());
        if col > 0 {
            stats.count_col_cmps(col);
        }
        if ovc > 0 {
            stats.count_ovc_cmps(ovc);
        }
    }
}

impl CmpCounter for Tally {
    #[inline]
    fn count_col_cmp(&self) {
        self.col_value_cmps.set(self.col_value_cmps.get() + 1);
    }
    #[inline]
    fn count_ovc_cmp(&self) {
        self.count_ovc_cmps(1);
    }
}

/// An owned, sendable copy of counter values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Column-value comparisons.
    pub col_value_cmps: u64,
    /// Offset-value-code comparisons.
    pub ovc_cmps: u64,
    /// Full row comparisons.
    pub row_cmps: u64,
    /// Rows written to spill storage.
    pub rows_spilled: u64,
    /// Bytes written to spill storage.
    pub bytes_spilled: u64,
    /// Rows read back from spill storage.
    pub rows_read_back: u64,
    /// Bytes read back from spill storage.
    pub bytes_read_back: u64,
}

/// Weights folding the counter classes into one comparable scalar.
///
/// The planner's cost model (`ovc-plan`) *estimates* in these units and
/// [`StatsSnapshot::weighted_cost`] *measures* in them, so predicted and
/// observed plan costs live on the same scale.  The defaults encode the
/// paper's cost argument: an offset-value-code comparison is one integer
/// instruction (weight 1); a column-value comparison costs a few times
/// that (cache-missing column access); a full row comparison is a short
/// loop of column comparisons; and a spilled row costs two orders of
/// magnitude more than any comparison (serialization plus I/O), which is
/// why Figure 6 is about spill volume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Cost of one column-value comparison.
    pub col_cmp: f64,
    /// Cost of one offset-value-code comparison.
    pub ovc_cmp: f64,
    /// Cost of one full row comparison.
    pub row_cmp: f64,
    /// Cost of one row written to spill storage.
    pub spill_row: f64,
    /// Cost of one row read back from spill storage.
    pub read_row: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            col_cmp: 4.0,
            ovc_cmp: 1.0,
            row_cmp: 8.0,
            spill_row: 128.0,
            read_row: 64.0,
        }
    }
}

impl StatsSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            col_value_cmps: self.col_value_cmps - earlier.col_value_cmps,
            ovc_cmps: self.ovc_cmps - earlier.ovc_cmps,
            row_cmps: self.row_cmps - earlier.row_cmps,
            rows_spilled: self.rows_spilled - earlier.rows_spilled,
            bytes_spilled: self.bytes_spilled - earlier.bytes_spilled,
            rows_read_back: self.rows_read_back - earlier.rows_read_back,
            bytes_read_back: self.bytes_read_back - earlier.bytes_read_back,
        }
    }

    /// Accumulate another snapshot into this one field-wise (the owned
    /// counterpart of [`Stats::absorb`], used to sum a profile subtree's
    /// counters).
    pub fn add(&mut self, d: &StatsSnapshot) {
        self.col_value_cmps += d.col_value_cmps;
        self.ovc_cmps += d.ovc_cmps;
        self.row_cmps += d.row_cmps;
        self.rows_spilled += d.rows_spilled;
        self.bytes_spilled += d.bytes_spilled;
        self.rows_read_back += d.rows_read_back;
        self.bytes_read_back += d.bytes_read_back;
    }

    /// Fold the counters into one scalar under the given weights — the
    /// measured counterpart of the planner's estimated plan cost.
    pub fn weighted_cost(&self, w: &CostWeights) -> f64 {
        self.col_value_cmps as f64 * w.col_cmp
            + self.ovc_cmps as f64 * w.ovc_cmp
            + self.row_cmps as f64 * w.row_cmp
            + self.rows_spilled as f64 * w.spill_row
            + self.rows_read_back as f64 * w.read_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.count_col_cmp();
        s.count_col_cmps(4);
        s.count_ovc_cmp();
        s.count_ovc_cmps(3);
        s.count_row_cmp();
        s.count_spill(10, 80);
        s.count_read_back(10, 80);
        assert_eq!(s.col_value_cmps(), 5);
        assert_eq!(s.ovc_cmps(), 4);
        assert_eq!(s.row_cmps(), 1);
        assert_eq!(s.rows_spilled(), 10);
        assert_eq!(s.bytes_spilled(), 80);
        assert_eq!(s.rows_read_back(), 10);
        assert_eq!(s.bytes_read_back(), 80);
    }

    #[test]
    fn absorb_merges_snapshots() {
        let a = Stats::default();
        a.count_col_cmps(3);
        let b = Stats::default();
        b.count_col_cmps(4);
        b.count_ovc_cmp();
        a.absorb(&b.snapshot());
        assert_eq!(a.col_value_cmps(), 7);
        assert_eq!(a.ovc_cmps(), 1);
    }

    #[test]
    fn weighted_cost_combines_counter_classes() {
        let s = Stats::default();
        s.count_ovc_cmp();
        s.count_col_cmps(2);
        s.count_spill(1, 8);
        let w = CostWeights {
            col_cmp: 4.0,
            ovc_cmp: 1.0,
            row_cmp: 8.0,
            spill_row: 100.0,
            read_row: 50.0,
        };
        assert_eq!(s.snapshot().weighted_cost(&w), 1.0 + 8.0 + 100.0);
        // Spilling dominates comparisons under the default weights, the
        // premise of the paper's Figure 6 argument.
        let d = CostWeights::default();
        assert!(d.spill_row > 8.0 * d.col_cmp);
    }

    #[test]
    fn shared_stats_accumulate_across_threads() {
        let shared = Stats::new_shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    s.count_col_cmps(10);
                    s.count_ovc_cmp();
                    s.count_spill(1, 8);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.col_value_cmps, 40);
        assert_eq!(snap.ovc_cmps, 4);
        assert_eq!(snap.rows_spilled, 4);
        assert_eq!(snap.bytes_spilled, 32);
        // Fold the snapshot into another Stats.
        let local = Stats::default();
        local.absorb(&snap);
        assert_eq!(local.col_value_cmps(), 40);
    }

    #[test]
    fn snapshot_difference() {
        let s = Stats::default();
        s.count_col_cmps(5);
        let before = s.snapshot();
        s.count_col_cmps(2);
        s.count_spill(1, 16);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.col_value_cmps, 2);
        assert_eq!(delta.rows_spilled, 1);
        assert_eq!(delta.bytes_spilled, 16);
    }
}
