//! Tree-of-losers priority queue with offset-value coding (Section 3,
//! Figures 1–3 of the paper).
//!
//! A tournament tree embedded in an array merges `F` sorted inputs with one
//! comparison per tree level on each leaf-to-root pass.  Every node holds a
//! loser's offset-value code and its run identifier; the rows themselves
//! stay in the input cursors ("strings remain in the input buffers",
//! Figure 3).
//!
//! The crucial invariant (Section 3): after the overall winner moves to the
//! output, all nodes on its leaf-to-root path hold codes relative to that
//! winner, and the winner's successor — drawn from the same input, whose
//! runs are prefix-truncation encoded — is coded relative to the same
//! winner.  Every steady-state comparison is therefore a same-base code
//! comparison:
//!
//! * codes differ → decided for free; the loser's code is already correct
//!   relative to the winner (unequal code theorem);
//! * codes equal → column comparisons resume past the shared prefix and
//!   value, and the loser's offset grows accordingly (equal code theorem).
//!
//! Total column-value comparisons over a whole merge of `N` rows with `K`
//! key columns are bounded by `N × K` — no `log N` factor (verified by the
//! `comparison_bounds` integration tests).
//!
//! Queue build-up compares first rows, which are all coded relative to the
//! imaginary "−∞" predecessor (offset 0, first column value), so even the
//! build phase uses same-base code comparisons.  Exhausted inputs turn into
//! late fences whose comparisons are single integer compares ("the
//! comparison of offset-value codes is practically free", Section 5).

use std::cmp::Ordering;
use std::sync::Arc;

use ovc_core::compare::{compare_same_base, compare_same_base_spec};
use ovc_core::{
    BatchStream, CmpCounter, FlatRows, Ovc, OvcRow, OvcStream, Row, SortSpec, Stats, Tally,
};

use crate::runs::Run;

/// A tree node: an offset-value code plus a run identifier.  16 bytes, so a
/// queue of 512–1024 entries fits an L1 cache as Section 3 envisions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) code: Ovc,
    pub(crate) run: u32,
}

/// Play one match between two entries whose keys are `a_key`/`b_key`:
/// returns `(winner, loser)` with the loser's code adjusted relative to
/// the winner where required.  Shared by the cursor-based
/// [`TreeOfLosers`], the flat-run [`FlatMerge`], and flat run generation —
/// all three must produce bit-identical tournaments.
///
/// `asc` is the caller's cached `spec.is_asc_prefix()`: the all-ascending
/// case (the paper's default throughout) skips the per-column direction
/// dispatch entirely.  Both comparators implement the same two theorems
/// with identical counting, so the dispatch is purely mechanical.
/// `stats` is any [`CmpCounter`]: the shared [`Stats`], or the [`Tally`]
/// that [`FlatMerge`] and run generation count into.
#[inline]
pub(crate) fn play_entries(
    mut a: Entry,
    mut b: Entry,
    a_key: &[u64],
    b_key: &[u64],
    spec: &SortSpec,
    asc: bool,
    stats: &impl CmpCounter,
) -> (Entry, Entry) {
    let ord = if asc {
        compare_same_base(a_key, b_key, &mut a.code, &mut b.code, stats)
    } else {
        compare_same_base_spec(a_key, b_key, &mut a.code, &mut b.code, spec, stats)
    };
    match ord {
        Ordering::Less => (a, b),
        Ordering::Greater => (b, a),
        Ordering::Equal => {
            // Equal keys (or two fences).  Lower run index wins so the
            // merge is stable; an equal-key loser is a duplicate of the
            // winner.
            let (w, mut l) = if a.run <= b.run { (a, b) } else { (b, a) };
            if l.code.is_valid() {
                l.code = Ovc::duplicate();
            }
            (w, l)
        }
    }
}

/// The array-embedded tournament mechanics shared by every engine in this
/// crate — the cursor-based [`TreeOfLosers`], the flat-run [`FlatMerge`],
/// and run generation's single-row tournament.  One copy of the walk means
/// the three cannot diverge: slot 0 unused, slots `1..cap` hold losers,
/// leaves `cap..2*cap` are implicit.
pub(crate) mod loser_tree {
    use super::Entry;
    use ovc_core::Ovc;

    /// Run the initial tournament, storing losers in `nodes[1..cap]` and
    /// returning the overall winner.  `leaf_code(r)` supplies leaf `r`'s
    /// first code ([`Ovc::LATE_FENCE`] for absent leaves).  Build is the
    /// cold path, so the callbacks are dyn — the recursion stays simple.
    pub(crate) fn build(
        nodes: &mut [Entry],
        cap: usize,
        leaf_code: &mut dyn FnMut(usize) -> Ovc,
        play: &mut dyn FnMut(Entry, Entry) -> (Entry, Entry),
    ) -> Entry {
        build_node(1, nodes, cap, leaf_code, play)
    }

    fn build_node(
        node: usize,
        nodes: &mut [Entry],
        cap: usize,
        leaf_code: &mut dyn FnMut(usize) -> Ovc,
        play: &mut dyn FnMut(Entry, Entry) -> (Entry, Entry),
    ) -> Entry {
        if node >= cap {
            let r = node - cap;
            return Entry {
                code: leaf_code(r),
                run: r as u32,
            };
        }
        let a = build_node(2 * node, nodes, cap, leaf_code, play);
        let b = build_node(2 * node + 1, nodes, cap, leaf_code, play);
        let (w, l) = play(a, b);
        nodes[node] = l;
        w
    }

    /// One comparison per tree level: the candidate (leaf `leaf`'s
    /// successor) retraces the prior winner's leaf-to-root path, swapping
    /// with stored losers it loses to; returns the new overall winner.
    #[inline]
    pub(crate) fn replay(
        nodes: &mut [Entry],
        cap: usize,
        leaf: usize,
        mut cand: Entry,
        play: &mut impl FnMut(Entry, Entry) -> (Entry, Entry),
    ) -> Entry {
        let mut node = (cap + leaf) >> 1;
        while node >= 1 {
            let stored = nodes[node];
            let (win, lose) = play(cand, stored);
            nodes[node] = lose;
            cand = win;
            node >>= 1;
        }
        cand
    }
}

/// A node holding the late fence (empty leaf / pre-build placeholder).
pub(crate) const FENCE_ENTRY: Entry = Entry {
    code: Ovc::LATE_FENCE,
    run: 0,
};

/// Key slice of an entry's current row in a cursor-based tree (empty for
/// fences; only read when both codes are valid and equal, in which case
/// rows exist).
#[inline]
fn cursor_key(cur: &[Option<Row>], key_len: usize, e: Entry) -> &[u64] {
    cur.get(e.run as usize)
        .and_then(|r| r.as_ref())
        .map(|r| r.key(key_len))
        .unwrap_or(&[])
}

/// Key slice of an entry's current row in a flat-run merge.
#[inline]
fn flat_key<'a>(runs: &'a [FlatRows], pos: &[usize], key_len: usize, e: Entry) -> &'a [u64] {
    let r = e.run as usize;
    match runs.get(r) {
        Some(run) if pos[r] < run.len() => run.key(pos[r], key_len),
        _ => &[],
    }
}

/// Tree-of-losers priority queue merging `F` cursors of coded rows.
///
/// Each cursor must yield rows in ascending key order with exact codes
/// relative to the cursor's previous row (the [`OvcStream`] contract).
/// The merge output is itself a valid coded stream: the winner's code at
/// the root is its code relative to the previous overall winner, i.e. the
/// previous output row.
pub struct TreeOfLosers<C: Iterator<Item = OvcRow>> {
    cursors: Vec<C>,
    /// Current head row of each real input (index = run id); `None` once
    /// exhausted.  Padded inputs beyond `cursors.len()` are permanent
    /// late fences and have no slot here.
    cur: Vec<Option<Row>>,
    /// Internal nodes; slot 0 unused, slots `1..cap` hold losers.
    nodes: Vec<Entry>,
    winner: Entry,
    /// Leaf count: `cursors.len()` rounded up to a power of two.
    cap: usize,
    spec: SortSpec,
    /// Cached `spec.is_asc_prefix()` — selects the direction-free
    /// comparator in [`play_entries`].
    asc: bool,
    stats: Arc<Stats>,
}

impl<C: Iterator<Item = OvcRow>> TreeOfLosers<C> {
    /// Build the queue over the given cursors with the default
    /// all-ascending ordering on the leading `key_len` columns.
    pub fn new(cursors: Vec<C>, key_len: usize, stats: Arc<Stats>) -> Self {
        Self::new_spec(cursors, SortSpec::asc(key_len), stats)
    }

    /// Build the queue over cursors ordered (and coded) under `spec`.
    /// Runs compete at fixed leaves; missing leaves (when the fan-in is
    /// not a power of two) are late fences.  Every comparison is the
    /// same same-base code comparison as the ascending case — the spec
    /// only changes which direction column comparisons resolve in and
    /// how loser values are re-encoded ([`compare_same_base_spec`]).
    pub fn new_spec(mut cursors: Vec<C>, spec: SortSpec, stats: Arc<Stats>) -> Self {
        let f = cursors.len();
        let cap = f.next_power_of_two().max(1);
        let mut cur = Vec::with_capacity(f);
        let mut first_codes = Vec::with_capacity(f);
        for c in cursors.iter_mut() {
            match c.next() {
                Some(OvcRow { row, code }) => {
                    cur.push(Some(row));
                    first_codes.push(code);
                }
                None => {
                    cur.push(None);
                    first_codes.push(Ovc::LATE_FENCE);
                }
            }
        }
        let asc = spec.is_asc_prefix();
        let k = spec.len();
        let mut nodes = vec![FENCE_ENTRY; cap];
        let winner = {
            let mut play = |a: Entry, b: Entry| {
                play_entries(
                    a,
                    b,
                    cursor_key(&cur, k, a),
                    cursor_key(&cur, k, b),
                    &spec,
                    asc,
                    &stats,
                )
            };
            loser_tree::build(
                &mut nodes,
                cap,
                &mut |r| first_codes.get(r).copied().unwrap_or(Ovc::LATE_FENCE),
                &mut play,
            )
        };
        TreeOfLosers {
            cursors,
            cur,
            nodes,
            winner,
            cap,
            asc,
            spec,
            stats,
        }
    }

    /// Number of leaves (padded fan-in).
    pub fn fan_in(&self) -> usize {
        self.cap
    }

    /// The shared statistics handle.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Peek the code of the current overall winner without popping
    /// (late fence once the merge is exhausted).
    ///
    /// F1's merge logic uses this to route rows whose offset equals the
    /// key-column count straight to the output buffer (Section 5).
    pub fn peek_code(&self) -> Ovc {
        self.winner.code
    }
}

impl<C: Iterator<Item = OvcRow>> Iterator for TreeOfLosers<C> {
    type Item = OvcRow;

    fn next(&mut self) -> Option<OvcRow> {
        if self.winner.code.is_late_fence() {
            return None;
        }
        let w = self.winner.run as usize;
        let row = self.cur[w].take().expect("winner run has a current row");
        let out = OvcRow::new(row, self.winner.code);

        // Fetch the winner's successor from the same input; it is coded
        // relative to the row just output (prefix truncation within the
        // run), so the leaf-to-root pass below compares same-base codes.
        let cand = match self.cursors[w].next() {
            Some(OvcRow { row, code }) => {
                self.cur[w] = Some(row);
                Entry {
                    code,
                    run: w as u32,
                }
            }
            None => Entry {
                code: Ovc::LATE_FENCE,
                run: w as u32,
            },
        };

        // One comparison per tree level: the candidate retraces the prior
        // winner's leaf-to-root path.
        let (cur, spec, asc, stats) = (&self.cur, &self.spec, self.asc, &self.stats);
        let k = spec.len();
        let mut play = |a: Entry, b: Entry| {
            play_entries(
                a,
                b,
                cursor_key(cur, k, a),
                cursor_key(cur, k, b),
                spec,
                asc,
                stats,
            )
        };
        self.winner = loser_tree::replay(&mut self.nodes, self.cap, w, cand, &mut play);
        Some(out)
    }
}

impl<C: Iterator<Item = OvcRow>> OvcStream for TreeOfLosers<C> {
    fn key_len(&self) -> usize {
        self.spec.len()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// Tree-of-losers merge over **flat** inputs: the allocation-free merge
/// hot path, serving both the external sort's run merges and the
/// gathering exchange.
///
/// Where [`TreeOfLosers`] pulls boxed [`OvcRow`]s out of generic cursors,
/// `FlatMerge` keeps every input's rows in place in a contiguous
/// [`FlatRows`] buffer and tracks one cursor *position* per input.  Each
/// steady-state step is the same same-base code tournament (shared
/// `play_entries` logic, hence bit-identical comparisons, codes, and
/// [`Stats`] counters), but the winner "moves" by advancing an index; its
/// row is copied slice-to-slice into a flat output buffer — one run
/// ([`FlatMerge::into_run`]) or batch after batch
/// ([`crate::SortOutput::batches`]) — or materialized as an [`OvcRow`]
/// only when a caller iterates rows (the [`Iterator`] impl).  Per-input
/// reads are sequential, so the whole merge streams through memory the
/// way the hardware prefetcher wants.
///
/// An input is a [`Run`] ([`FlatMerge::new`]) or a live [`BatchStream`]
/// ([`crate::merge_batch_streams`]), of which a run is the one-batch case:
/// when a stream-fed input's current batch runs out, the next batch takes
/// its place.  By the seam rule that batch's first code is already
/// relative to the row just output, so the refill costs no comparison and
/// lives entirely on the branch that turns an exhausted run into a late
/// fence.
pub struct FlatMerge {
    /// Each input's current batch (a run merge: the whole run); for a
    /// stream-fed merge, padded to `cap` and followed by one spare buffer
    /// that keeps the batch an input has just left alive until its last
    /// row is copied out.
    runs: Vec<FlatRows>,
    pos: Vec<usize>,
    /// The stream behind each input; empty for a merge over runs.
    sources: Vec<Box<dyn BatchStream + Send>>,
    nodes: Vec<Entry>,
    winner: Entry,
    cap: usize,
    width: usize,
    spec: SortSpec,
    asc: bool,
    /// Comparisons since the last flush into `stats`: flushed after the
    /// build, at the end of every [`FlatMerge::fill`] and
    /// [`FlatMerge::into_run`], and on every row the [`Iterator`] yields.
    tally: Tally,
    stats: Arc<Stats>,
}

impl FlatMerge {
    /// Build the merge over flat runs ordered (and coded) under `spec`.
    pub fn new(runs: Vec<Run>, spec: SortSpec, stats: Arc<Stats>) -> Self {
        debug_assert!(runs.iter().all(|r| r.sort_spec() == &spec));
        let runs = runs.into_iter().map(Run::into_flat).collect();
        Self::build(runs, Vec::new(), spec, stats)
    }

    /// Build the merge over live batch streams ordered (and coded) under
    /// `spec`: each stream's first batch is pulled here, the rest as the
    /// tournament drains them.
    pub(crate) fn over_streams(
        mut sources: Vec<Box<dyn BatchStream + Send>>,
        spec: SortSpec,
        stats: Arc<Stats>,
    ) -> Self {
        debug_assert!(sources.iter().all(|s| s.sort_spec() == spec));
        let runs: Vec<FlatRows> = sources
            .iter_mut()
            .map(|s| s.next_batch().unwrap_or_else(|| FlatRows::new(spec.len())))
            .collect();
        let mut merge = Self::build(runs, sources, spec, stats);
        // Empty buffers for the padding leaves (so no leaf id names the
        // spare), then the spare itself at index `cap`.
        merge.pos.resize(merge.cap, 0);
        merge.runs.resize(merge.cap + 1, FlatRows::new(0));
        merge
    }

    fn build(
        runs: Vec<FlatRows>,
        sources: Vec<Box<dyn BatchStream + Send>>,
        spec: SortSpec,
        stats: Arc<Stats>,
    ) -> Self {
        let width = runs
            .iter()
            .find(|r| !r.is_empty())
            .map(FlatRows::width)
            .unwrap_or(spec.len());
        let f = runs.len();
        let cap = f.next_power_of_two().max(1);
        let asc = spec.is_asc_prefix();
        let k = spec.len();
        let pos = vec![0usize; f];
        let mut nodes = vec![FENCE_ENTRY; cap];
        let tally = Tally::default();
        let winner = {
            let mut play = |a: Entry, b: Entry| {
                play_entries(
                    a,
                    b,
                    flat_key(&runs, &pos, k, a),
                    flat_key(&runs, &pos, k, b),
                    &spec,
                    asc,
                    &tally,
                )
            };
            loser_tree::build(
                &mut nodes,
                cap,
                &mut |r| match runs.get(r) {
                    Some(run) if !run.is_empty() => run.code(0),
                    _ => Ovc::LATE_FENCE,
                },
                &mut play,
            )
        };
        tally.flush(&stats);
        FlatMerge {
            pos,
            runs,
            sources,
            nodes,
            winner,
            cap,
            width,
            asc,
            spec,
            tally,
            stats,
        }
    }

    /// Pop the winner as `(buffer, row index, code)` — the row itself stays
    /// in `self.runs[buffer]` for the caller to copy or borrow before the
    /// next pop.
    #[inline]
    fn next_idx(&mut self) -> Option<(usize, usize, Ovc)> {
        if self.winner.code.is_late_fence() {
            return None;
        }
        let w = self.winner.run as usize;
        let idx = self.pos[w];
        let out_code = self.winner.code;
        self.pos[w] += 1;

        // The successor from the same input is coded relative to the row
        // just output (prefix truncation within the run), so the
        // leaf-to-root pass below compares same-base codes.
        let mut buffer = w;
        let succ = if self.pos[w] < self.runs[w].len() {
            self.runs[w].code(self.pos[w])
        } else {
            self.refill(w, &mut buffer)
        };
        let cand = Entry {
            code: succ,
            run: w as u32,
        };
        let (runs, pos, spec, asc, tally) =
            (&self.runs, &self.pos, &self.spec, self.asc, &self.tally);
        let k = spec.len();
        let mut play = |a: Entry, b: Entry| {
            play_entries(
                a,
                b,
                flat_key(runs, pos, k, a),
                flat_key(runs, pos, k, b),
                spec,
                asc,
                tally,
            )
        };
        self.winner = loser_tree::replay(&mut self.nodes, self.cap, w, cand, &mut play);
        Some((buffer, idx, out_code))
    }

    /// Input `w`'s current batch is spent.  A run, or a stream that has
    /// ended, leaves the late fence.  Otherwise the stream's next batch
    /// takes the input's place and its first code — exact relative to the
    /// row just output, by the seam rule — is returned; the spent batch,
    /// which still holds that row, moves to the spare buffer behind the
    /// inputs, and `buffer` says so.
    #[cold]
    fn refill(&mut self, w: usize, buffer: &mut usize) -> Ovc {
        let Some(batch) = self.sources.get_mut(w).and_then(|s| s.next_batch()) else {
            return Ovc::LATE_FENCE;
        };
        let code = batch.code(0);
        *buffer = self.cap;
        self.runs[*buffer] = std::mem::replace(&mut self.runs[w], batch);
        self.pos[w] = 0;
        code
    }

    /// Rows remaining in the inputs' current batches (all remaining rows
    /// of a run merge; a lower bound for a stream-fed one).
    fn remaining(&self) -> usize {
        self.runs
            .iter()
            .zip(&self.pos)
            .map(|(r, &p)| r.len() - p)
            .sum()
    }

    /// Panic unless no row has streamed out yet: a partially-consumed
    /// merge cannot become a run (the next winner's code is relative to a
    /// row that is gone, so the output would violate the stream contract
    /// silently).
    fn assert_unconsumed(&self) {
        assert!(
            self.pos.iter().all(|&p| p == 0),
            "cannot collect a partially-consumed merge into a run"
        );
    }

    /// Drain the merge into one flat run: winner rows are copied straight
    /// into a contiguous output buffer — no boxed row anywhere.  Panics if
    /// rows were already taken through the [`Iterator`] impl.
    pub fn into_run(mut self) -> Run {
        self.assert_unconsumed();
        let mut out = FlatRows::with_capacity(self.width, self.remaining());
        while let Some((r, i, code)) = self.next_idx() {
            out.push_from(&self.runs[r], i, code);
        }
        self.tally.flush(&self.stats);
        Run::from_flat_trusted(out, self.spec)
    }

    /// As [`FlatMerge::into_run`], dropping duplicate-coded rows on the
    /// fly (the in-sort duplicate removal of Figure 5: one integer test
    /// per row, and removing a row whose code says "equal to my
    /// predecessor" leaves every surviving code exact).
    pub fn into_run_distinct(mut self) -> Run {
        self.assert_unconsumed();
        let out = self.fill(usize::MAX, true);
        Run::from_flat_trusted(out, self.spec)
    }

    /// Move winners into a fresh buffer until it holds `limit` rows or
    /// the merge ends, dropping duplicate-coded winners when `distinct`.
    fn fill(&mut self, limit: usize, distinct: bool) -> FlatRows {
        let mut out = FlatRows::with_capacity(self.width, limit.min(self.remaining()));
        while out.len() < limit {
            let Some((r, i, code)) = self.next_idx() else {
                break;
            };
            if !(distinct && code.is_duplicate()) {
                out.push_from(&self.runs[r], i, code);
            }
        }
        self.tally.flush(&self.stats);
        out
    }

    /// Hand the merge over batch-at-a-time: winners fill one output
    /// buffer of at most `batch_size` rows per call, nothing is boxed.
    pub(crate) fn batches(self, batch_size: usize, distinct: bool) -> MergeBatches {
        MergeBatches {
            merge: self,
            batch_size,
            distinct,
        }
    }

    /// Number of leaves (padded fan-in).
    pub fn fan_in(&self) -> usize {
        self.cap
    }
}

impl Iterator for FlatMerge {
    type Item = OvcRow;

    fn next(&mut self) -> Option<OvcRow> {
        let (r, i, code) = self.next_idx()?;
        self.tally.flush(&self.stats);
        Some(OvcRow::new(Row::from_slice(self.runs[r].row(i)), code))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining();
        (left, Some(left))
    }
}

impl OvcStream for FlatMerge {
    fn key_len(&self) -> usize {
        self.spec.len()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// A [`FlatMerge`] as a [`BatchStream`] (see [`crate::SortOutput::batches`]).
pub(crate) struct MergeBatches {
    merge: FlatMerge,
    batch_size: usize,
    distinct: bool,
}

impl BatchStream for MergeBatches {
    fn next_batch(&mut self) -> Option<FlatRows> {
        let out = self.merge.fill(self.batch_size, self.distinct);
        (!out.is_empty()).then_some(out)
    }
    fn sort_spec(&self) -> SortSpec {
        self.merge.spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::stream::collect_pairs;
    use ovc_core::VecStream;

    fn stream_of(rows: Vec<Vec<u64>>, key_len: usize) -> VecStream {
        VecStream::from_sorted_rows(rows.into_iter().map(Row::new).collect(), key_len)
    }

    #[test]
    fn merges_two_runs() {
        let a = stream_of(vec![vec![1, 1], vec![3, 1], vec![5, 1]], 2);
        let b = stream_of(vec![vec![2, 1], vec![4, 1], vec![6, 1]], 2);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![a, b], 2, stats);
        let pairs = collect_pairs(tree);
        let keys: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6]);
        assert_codes_exact(&pairs, 2);
    }

    #[test]
    fn merge_output_codes_are_exact_for_many_runs() {
        // Three runs with interleaved values and duplicates, odd fan-in.
        let r1 = stream_of(vec![vec![1, 2], vec![1, 5], vec![7, 0]], 2);
        let r2 = stream_of(vec![vec![1, 2], vec![4, 4]], 2);
        let r3 = stream_of(vec![vec![0, 9], vec![9, 9]], 2);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![r1, r2, r3], 2, stats);
        let pairs = collect_pairs(tree);
        assert_eq!(pairs.len(), 7);
        assert_codes_exact(&pairs, 2);
    }

    #[test]
    fn single_run_passes_through() {
        let a = stream_of(vec![vec![2], vec![3], vec![9]], 1);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![a], 1, Arc::clone(&stats));
        let pairs = collect_pairs(tree);
        assert_eq!(pairs.len(), 3);
        assert_codes_exact(&pairs, 1);
        // A single input requires no column comparisons at all.
        assert_eq!(stats.col_value_cmps(), 0);
    }

    #[test]
    fn empty_inputs() {
        let stats = Stats::new_shared();
        let tree: TreeOfLosers<VecStream> = TreeOfLosers::new(vec![], 1, stats);
        assert_eq!(tree.count(), 0);

        let empty = stream_of(vec![], 1);
        let full = stream_of(vec![vec![1]], 1);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![empty, full], 1, stats);
        let pairs = collect_pairs(tree);
        assert_eq!(pairs.len(), 1);
        assert_codes_exact(&pairs, 1);
    }

    #[test]
    fn all_duplicates_across_runs() {
        let a = stream_of(vec![vec![5, 5]; 3], 2);
        let b = stream_of(vec![vec![5, 5]; 2], 2);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![a, b], 2, stats);
        let pairs = collect_pairs(tree);
        assert_eq!(pairs.len(), 5);
        assert_codes_exact(&pairs, 2);
        // All rows after the first carry the duplicate code.
        assert!(pairs[1..].iter().all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn merge_is_stable_by_run_index() {
        // Equal keys must come out in run order (payload reveals origin).
        let a = stream_of(vec![vec![5, 100]], 1);
        let b = stream_of(vec![vec![5, 200]], 1);
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(vec![a, b], 1, stats);
        let rows: Vec<Row> = tree.map(|r| r.row).collect();
        assert_eq!(rows[0].cols()[1], 100);
        assert_eq!(rows[1].cols()[1], 200);
    }

    #[test]
    fn column_comparisons_bounded_by_n_times_k() {
        // 8 runs of 32 rows each, 3 key columns with few distinct values.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut runs = Vec::new();
        let mut n = 0u64;
        for _ in 0..8 {
            let mut rows: Vec<Row> = (0..32)
                .map(|_| {
                    Row::new(vec![
                        rng.gen_range(0..4u64),
                        rng.gen_range(0..4u64),
                        rng.gen_range(0..4u64),
                    ])
                })
                .collect();
            rows.sort();
            n += rows.len() as u64;
            runs.push(VecStream::from_sorted_rows(rows, 3));
        }
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new(runs, 3, Arc::clone(&stats));
        let pairs = collect_pairs(tree);
        assert_eq!(pairs.len() as u64, n);
        assert_codes_exact(&pairs, 3);
        // The paper's bound: total column-value comparisons <= N * K.
        assert!(
            stats.col_value_cmps() <= n * 3,
            "col cmps {} exceed N*K = {}",
            stats.col_value_cmps(),
            n * 3
        );
    }

    #[test]
    fn merges_mixed_direction_runs_with_exact_codes() {
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::Direction;
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        // Two runs ordered [c0 desc, c1 asc].
        let a = VecStream::from_sorted_rows_spec(
            vec![
                Row::new(vec![9, 1]),
                Row::new(vec![5, 0]),
                Row::new(vec![5, 7]),
            ],
            spec.clone(),
        );
        let b = VecStream::from_sorted_rows_spec(
            vec![
                Row::new(vec![7, 2]),
                Row::new(vec![5, 7]),
                Row::new(vec![1, 1]),
            ],
            spec.clone(),
        );
        let stats = Stats::new_shared();
        let tree = TreeOfLosers::new_spec(vec![a, b], spec.clone(), stats);
        assert_eq!(tree.sort_spec(), spec);
        let pairs = collect_pairs(tree);
        let keys: Vec<Vec<u64>> = pairs.iter().map(|(r, _)| r.cols().to_vec()).collect();
        assert_eq!(
            keys,
            vec![
                vec![9, 1],
                vec![7, 2],
                vec![5, 0],
                vec![5, 7],
                vec![5, 7],
                vec![1, 1]
            ]
        );
        assert_codes_exact_spec(&pairs, &spec);
    }

    #[test]
    fn peek_code_matches_next_output() {
        let a = stream_of(vec![vec![1], vec![2]], 1);
        let stats = Stats::new_shared();
        let mut tree = TreeOfLosers::new(vec![a], 1, stats);
        let peeked = tree.peek_code();
        let first = tree.next().unwrap();
        assert_eq!(peeked, first.code);
        tree.next();
        assert!(tree.peek_code().is_late_fence());
    }
}
