//! Tree-of-losers priority queue with offset-value coding (Section 3,
//! Figures 1–3 of the paper).
//!
//! A tournament tree embedded in an array merges `F` sorted inputs with one
//! comparison per tree level on each leaf-to-root pass.  Every node holds a
//! loser's offset-value code and its run identifier; the rows themselves
//! stay in the inputs' flat buffers ("strings remain in the input
//! buffers", Figure 3).
//!
//! There is one merge tournament, [`FlatMerge`]: it merges the external
//! sort's runs, gathers the order-preserving exchange (§4.10), and
//! compacts and scans the LSM forest and secondary-index RID lists
//! (§4.11).  Run generation plays the same matches (`play_entries`)
//! over the same array mechanics (`loser_tree`).
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
//!
//! That integer compare is also how a match is played.  Most matches take
//! the **fast path**: the codes differ, or they are equal fences or equal
//! duplicates, and the entry with the smaller `(code, run)` pair wins —
//! one compare of the pair packed into a `u128` and a select, no branch
//! on the outcome, no key slice built, no counter touched.  Only equal,
//! valid, non-duplicate codes take the out-of-line **tied path**, which
//! resumes the column comparisons.  Code comparisons are counted per
//! call, not per match: a build plays `cap − 1` matches and a
//! leaf-to-root pass `log2(cap)`, and each adds its count to the
//! [`Tally`] in one step.

use std::cmp::Ordering;
use std::hint::select_unpredictable;
use std::sync::Arc;

use ovc_core::compare::{resume_same_base, resume_same_base_spec};
use ovc_core::{
    BatchStream, ExecError, FlatRows, Ovc, OvcRow, OvcStream, Row, SortSpec, Stats, Tally,
};

use crate::runs::Run;

/// A tree node: an offset-value code plus a run identifier.  16 bytes, so a
/// queue of 512–1024 entries fits an L1 cache as Section 3 envisions.
///
/// A two-input merge (merge join, set operations) plays the same
/// entries: one per input, the left input as run 0 and the right as
/// run 1.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The entry's offset-value code, relative to the last winner.
    pub code: Ovc,
    /// The input the entry's row comes from; the lower run wins ties.
    pub run: u32,
}

impl Entry {
    /// `(code, run)` as one integer: ordering these orders entries by code
    /// and, among equal codes, by run, which keeps the merge stable.
    #[inline]
    fn packed(self) -> u128 {
        (u128::from(self.code.raw()) << 32) | u128::from(self.run)
    }

    #[inline]
    fn unpacked(k: u128) -> Entry {
        Entry {
            code: Ovc::from_raw((k >> 32) as u64),
            run: k as u32,
        }
    }
}

/// Play one match between two entries coded relative to the same base:
/// returns `(winner, loser)` with the loser's code exact relative to the
/// winner.  Shared by [`FlatMerge`], flat run generation and the
/// two-input merge under `ovc-exec`'s merge join and set operations, so
/// two leaves and `N` leaves cannot play different tournaments.
///
/// The fast path decides by the packed `(code, run)` pair alone, with a
/// select rather than a branch on the outcome: unequal codes leave the
/// loser's code exact (unequal code theorem), and an equal pair of fences
/// or duplicates needs no re-code; the lower run wins a tie.  `key` yields
/// an entry's key slice and only the tied path calls it.  No counter is
/// touched here: the caller counts the code comparisons (the tournament
/// per tree pass, a two-input merge per match while both inputs are
/// live) and the tied path counts its column comparisons into `tally`.
///
/// `asc` is the caller's cached `spec.is_asc_prefix()`: the all-ascending
/// case (the paper's default throughout) skips the per-column direction
/// dispatch entirely.
#[inline]
pub fn play_entries<'k>(
    a: Entry,
    b: Entry,
    key: impl Fn(Entry) -> &'k [u64],
    spec: &SortSpec,
    asc: bool,
    tally: &Tally,
) -> (Entry, Entry) {
    if (a.code == b.code) & a.code.is_valid_non_duplicate() {
        return play_tied(a, b, key, spec, asc, tally);
    }
    let (pa, pb) = (a.packed(), b.packed());
    let a_wins = pa <= pb;
    (
        Entry::unpacked(select_unpredictable(a_wins, pa, pb)),
        Entry::unpacked(select_unpredictable(a_wins, pb, pa)),
    )
}

/// The tied path of [`play_entries`]: equal, valid, non-duplicate codes.
/// Column comparisons resume past the shared prefix (equal code theorem);
/// equal keys go to the lower run, and the loser becomes a duplicate of
/// the winner.
#[cold]
#[inline(never)]
fn play_tied<'k>(
    mut a: Entry,
    mut b: Entry,
    key: impl Fn(Entry) -> &'k [u64],
    spec: &SortSpec,
    asc: bool,
    tally: &Tally,
) -> (Entry, Entry) {
    let (a_key, b_key) = (key(a), key(b));
    let ord = if asc {
        resume_same_base(a_key, b_key, &mut a.code, &mut b.code, tally)
    } else {
        resume_same_base_spec(a_key, b_key, &mut a.code, &mut b.code, spec, tally)
    };
    match ord {
        Ordering::Less => (a, b),
        Ordering::Greater => (b, a),
        Ordering::Equal => {
            let (w, mut l) = if a.run <= b.run { (a, b) } else { (b, a) };
            l.code = Ovc::duplicate();
            (w, l)
        }
    }
}

/// The array-embedded tournament mechanics shared by [`FlatMerge`] and
/// run generation's single-row tournament.  One copy of the walk means
/// the two cannot diverge: slot 0 unused, slots `1..cap` hold losers,
/// leaves `cap..2*cap` are implicit.
pub(crate) mod loser_tree {
    use super::Entry;
    use ovc_core::{Ovc, Tally};

    /// Run the initial tournament, storing losers in `nodes[1..cap]` and
    /// returning the overall winner.  `leaf_code(r)` supplies leaf `r`'s
    /// first code ([`Ovc::LATE_FENCE`] for absent leaves).  Build is the
    /// cold path, so the callbacks are dyn — the recursion stays simple.
    /// Its `cap − 1` matches are counted into `tally` in one step.
    pub(crate) fn build(
        nodes: &mut [Entry],
        cap: usize,
        leaf_code: &mut dyn FnMut(usize) -> Ovc,
        tally: &Tally,
        play: &mut dyn FnMut(Entry, Entry) -> (Entry, Entry),
    ) -> Entry {
        tally.count_ovc_cmps(cap as u64 - 1);
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
    /// Its `log2(cap)` matches are counted into `tally` in one step.
    #[inline]
    pub(crate) fn replay(
        nodes: &mut [Entry],
        cap: usize,
        leaf: usize,
        mut cand: Entry,
        tally: &Tally,
        play: &mut impl FnMut(Entry, Entry) -> (Entry, Entry),
    ) -> Entry {
        debug_assert!(cap.is_power_of_two());
        tally.count_ovc_cmps(u64::from(cap.trailing_zeros()));
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

/// Key slice of an entry's current row in a flat-run merge.
#[inline]
fn flat_key<'a>(runs: &'a [FlatRows], pos: &[usize], key_len: usize, e: Entry) -> &'a [u64] {
    let r = e.run as usize;
    match runs.get(r) {
        Some(run) if pos[r] < run.len() => run.key(pos[r], key_len),
        _ => &[],
    }
}

/// Tree-of-losers merge over **flat** inputs: the workspace's one merge
/// tournament, serving the external sort's run merges, the gathering
/// exchange, and the storage layer's LSM compactions and merged scans.
///
/// `FlatMerge` keeps every input's rows in place in a contiguous
/// [`FlatRows`] buffer and tracks one cursor *position* per input.  Each
/// steady-state step is a same-base code comparison per tree level (the
/// `play_entries` logic run generation shares, counted into a [`Tally`]
/// and flushed into [`Stats`]); the winner "moves" by advancing an index;
/// its row is copied slice-to-slice into a flat output buffer — one run
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
/// fence.  A stream's error ends the merge on that same branch: every
/// node becomes a fence, and the batch being filled is dropped for the
/// error ([`crate::SortOutput::batches`]), so no row after it leaves.
pub struct FlatMerge {
    /// Each input's current batch (a run merge: the whole run); for a
    /// stream-fed merge, padded to `cap` and followed by one spare buffer
    /// that keeps the batch an input has just left alive until its last
    /// row is copied out.
    runs: Vec<FlatRows>,
    pos: Vec<usize>,
    /// The stream behind each input; empty for a merge over runs.
    sources: Vec<Box<dyn BatchStream + Send>>,
    /// The error a stream returned, which ended the merge.
    error: Option<ExecError>,
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
    /// `spec`: each stream's first batch is pulled here (a stream's error
    /// is returned), the rest as the tournament drains them.
    pub(crate) fn over_streams(
        mut sources: Vec<Box<dyn BatchStream + Send>>,
        spec: SortSpec,
        stats: Arc<Stats>,
    ) -> Result<Self, ExecError> {
        debug_assert!(sources.iter().all(|s| s.sort_spec() == spec));
        let runs = sources
            .iter_mut()
            .map(|s| Ok(s.next_batch()?.unwrap_or_else(|| FlatRows::new(spec.len()))))
            .collect::<Result<Vec<FlatRows>, ExecError>>()?;
        let mut merge = Self::build(runs, sources, spec, stats);
        // Empty buffers for the padding leaves (so no leaf id names the
        // spare), then the spare itself at index `cap`.
        merge.pos.resize(merge.cap, 0);
        merge.runs.resize(merge.cap + 1, FlatRows::new(0));
        Ok(merge)
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
            let key = |e: Entry| flat_key(&runs, &pos, k, e);
            let mut play = |a: Entry, b: Entry| play_entries(a, b, key, &spec, asc, &tally);
            loser_tree::build(
                &mut nodes,
                cap,
                &mut |r| match runs.get(r) {
                    Some(run) if !run.is_empty() => run.code(0),
                    _ => Ovc::LATE_FENCE,
                },
                &tally,
                &mut play,
            )
        };
        tally.flush(&stats);
        FlatMerge {
            pos,
            runs,
            sources,
            error: None,
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
        let key = |e: Entry| flat_key(runs, pos, k, e);
        let mut play = |a: Entry, b: Entry| play_entries(a, b, key, spec, asc, tally);
        self.winner = loser_tree::replay(&mut self.nodes, self.cap, w, cand, tally, &mut play);
        Some((buffer, idx, out_code))
    }

    /// Input `w`'s current batch is spent.  A run, or a stream that has
    /// ended, leaves the late fence.  Otherwise the stream's next batch
    /// takes the input's place and its first code — exact relative to the
    /// row just output, by the seam rule — is returned; the spent batch,
    /// which still holds that row, moves to the spare buffer behind the
    /// inputs, and `buffer` says so.  A stream's error ends the merge:
    /// every node becomes a fence, so the replay that follows makes a
    /// fence the winner, and the error waits in `self.error` for the
    /// outlet.
    #[cold]
    fn refill(&mut self, w: usize, buffer: &mut usize) -> Ovc {
        let batch = match self.sources.get_mut(w).map(|s| s.next_batch()) {
            Some(Ok(Some(batch))) => batch,
            Some(Err(err)) => {
                self.error = Some(err);
                self.nodes.fill(FENCE_ENTRY);
                return Ovc::LATE_FENCE;
            }
            _ => return Ovc::LATE_FENCE,
        };
        let code = batch.code(0);
        *buffer = self.cap;
        self.runs[*buffer] = std::mem::replace(&mut self.runs[w], batch);
        self.pos[w] = 0;
        code
    }

    /// Panic with the error that ended a stream-fed merge, if any: the
    /// row and run outlets have no error channel.
    fn assert_no_error(&mut self) {
        if let Some(err) = self.error.take() {
            panic!("{err}");
        }
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
    /// rows were already taken through the [`Iterator`] impl, or with the
    /// error of a failing stream-fed input.
    pub fn into_run(mut self) -> Run {
        self.assert_unconsumed();
        let mut out = FlatRows::with_capacity(self.width, self.remaining());
        while let Some((r, i, code)) = self.next_idx() {
            out.push_from(&self.runs[r], i, code);
        }
        self.tally.flush(&self.stats);
        self.assert_no_error();
        Run::from_flat_trusted(out, self.spec)
    }

    /// As [`FlatMerge::into_run`], dropping duplicate-coded rows on the
    /// fly (the in-sort duplicate removal of Figure 5: one integer test
    /// per row, and removing a row whose code says "equal to my
    /// predecessor" leaves every surviving code exact).
    pub fn into_run_distinct(mut self) -> Run {
        self.assert_unconsumed();
        let out = self.fill(usize::MAX, true);
        Run::from_flat_trusted(out.unwrap_or_else(|err| panic!("{err}")), self.spec)
    }

    /// Move winners into a fresh buffer until it holds `limit` rows or
    /// the merge ends, dropping duplicate-coded winners when `distinct`.
    /// A stream's error that ended the merge is returned instead.
    fn fill(&mut self, limit: usize, distinct: bool) -> Result<FlatRows, ExecError> {
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
        self.error.take().map_or(Ok(out), Err)
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
}

impl Iterator for FlatMerge {
    type Item = OvcRow;

    /// Panics with the error of a failing stream-fed input.
    fn next(&mut self) -> Option<OvcRow> {
        let Some((r, i, code)) = self.next_idx() else {
            self.assert_no_error();
            return None;
        };
        self.tally.flush(&self.stats);
        Some(OvcRow::new(Row::from_slice(self.runs[r].row(i)), code))
    }

    /// Exact for a run merge.  A stream-fed input may still hold batches
    /// it has not pulled, so a merge over streams promises no upper bound.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining();
        (left, self.sources.is_empty().then_some(left))
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
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let out = self.merge.fill(self.batch_size, self.distinct)?;
        Ok((!out.is_empty()).then_some(out))
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

    fn run_of(rows: Vec<Vec<u64>>, key_len: usize) -> Run {
        Run::from_sorted_rows(rows.into_iter().map(Row::new).collect(), key_len)
    }

    fn merge(runs: Vec<Run>, key_len: usize, stats: Arc<Stats>) -> FlatMerge {
        FlatMerge::new(runs, SortSpec::asc(key_len), stats)
    }

    #[test]
    fn merges_two_runs() {
        let a = run_of(vec![vec![1, 1], vec![3, 1], vec![5, 1]], 2);
        let b = run_of(vec![vec![2, 1], vec![4, 1], vec![6, 1]], 2);
        let pairs = collect_pairs(merge(vec![a, b], 2, Stats::new_shared()));
        let keys: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6]);
        assert_codes_exact(&pairs, 2);
    }

    #[test]
    fn merge_output_codes_are_exact_for_many_runs() {
        // Three runs with interleaved values and duplicates, odd fan-in.
        let r1 = run_of(vec![vec![1, 2], vec![1, 5], vec![7, 0]], 2);
        let r2 = run_of(vec![vec![1, 2], vec![4, 4]], 2);
        let r3 = run_of(vec![vec![0, 9], vec![9, 9]], 2);
        let pairs = collect_pairs(merge(vec![r1, r2, r3], 2, Stats::new_shared()));
        assert_eq!(pairs.len(), 7);
        assert_codes_exact(&pairs, 2);
    }

    #[test]
    fn single_run_passes_through() {
        let a = run_of(vec![vec![2], vec![3], vec![9]], 1);
        let stats = Stats::new_shared();
        let pairs = collect_pairs(merge(vec![a], 1, Arc::clone(&stats)));
        assert_eq!(pairs.len(), 3);
        assert_codes_exact(&pairs, 1);
        // A single input requires no column comparisons at all.
        assert_eq!(stats.col_value_cmps(), 0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(merge(vec![], 1, Stats::new_shared()).count(), 0);
        assert!(merge(vec![], 1, Stats::new_shared()).into_run().is_empty());

        let empty = run_of(vec![], 1);
        let full = run_of(vec![vec![1]], 1);
        let pairs = collect_pairs(merge(vec![empty, full], 1, Stats::new_shared()));
        assert_eq!(pairs.len(), 1);
        assert_codes_exact(&pairs, 1);
    }

    #[test]
    fn all_duplicates_across_runs() {
        let a = run_of(vec![vec![5, 5]; 3], 2);
        let b = run_of(vec![vec![5, 5]; 2], 2);
        let pairs = collect_pairs(merge(vec![a, b], 2, Stats::new_shared()));
        assert_eq!(pairs.len(), 5);
        assert_codes_exact(&pairs, 2);
        // All rows after the first carry the duplicate code.
        assert!(pairs[1..].iter().all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn merge_is_stable_by_run_index() {
        // Equal keys must come out in run order (payload reveals origin).
        let a = run_of(vec![vec![5, 100]], 1);
        let b = run_of(vec![vec![5, 200]], 1);
        let rows: Vec<Row> = merge(vec![a, b], 1, Stats::new_shared())
            .map(|r| r.row)
            .collect();
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
            runs.push(Run::from_sorted_rows(rows, 3));
        }
        let stats = Stats::new_shared();
        let pairs = collect_pairs(merge(runs, 3, Arc::clone(&stats)));
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

    /// `play_entries` against its reference match: `compare_same_base`
    /// (`_spec`) plus the stable tie-break and the duplicate re-code.  Keys
    /// at or after a shared base under `asc(k)` and mixed specs, with few
    /// distinct values so ties are common, clamped values at both lossy
    /// ends, fences, duplicates, and equal and unequal run ids, must give
    /// the same winner, loser and counts.  `RANDOM_SEED` reseeds it.
    #[test]
    fn play_entries_matches_the_reference_match() {
        use ovc_core::compare::{compare_same_base, compare_same_base_spec, derive_code_spec};
        use ovc_core::ovc::VALUE_MASK;
        use ovc_core::Direction;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn reference(
            mut a: Entry,
            mut b: Entry,
            a_key: &[u64],
            b_key: &[u64],
            spec: &SortSpec,
            stats: &Stats,
        ) -> (Entry, Entry) {
            let ord = if spec.is_asc_prefix() {
                compare_same_base(a_key, b_key, &mut a.code, &mut b.code, stats)
            } else {
                compare_same_base_spec(a_key, b_key, &mut a.code, &mut b.code, spec, stats)
            };
            match ord {
                Ordering::Less => (a, b),
                Ordering::Greater => (b, a),
                Ordering::Equal => {
                    let (w, mut l) = if a.run <= b.run { (a, b) } else { (b, a) };
                    if l.code.is_valid() {
                        l.code = Ovc::duplicate();
                    }
                    (w, l)
                }
            }
        }

        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(35);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tied = 0;
        for case in 0..20_000 {
            let k = rng.gen_range(1..=3usize);
            let spec = if rng.gen_bool(0.5) {
                SortSpec::asc(k)
            } else {
                let dirs: Vec<Direction> = (0..k)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            Direction::Desc
                        } else {
                            Direction::Asc
                        }
                    })
                    .collect();
                SortSpec::with_dirs(&dirs)
            };
            // One value in eight clamps: past `VALUE_MASK` it saturates
            // the ascending code field and zeroes the descending one.
            let key = |rng: &mut StdRng| -> Vec<u64> {
                (0..k)
                    .map(|_| {
                        let v = rng.gen_range(0..4u64);
                        if rng.gen_range(0..8) == 0 {
                            VALUE_MASK + v
                        } else {
                            v
                        }
                    })
                    .collect()
            };
            let base = key(&mut rng);
            let after_base = |rng: &mut StdRng| {
                (0..8)
                    .map(|_| key(rng))
                    .find(|c| spec.cmp_keys(c, &base) != Ordering::Less)
                    .unwrap_or_else(|| base.clone())
            };
            let a_key = after_base(&mut rng);
            let mut b_key = after_base(&mut rng);
            let entry = |rng: &mut StdRng, key: &[u64]| {
                let code = match rng.gen_range(0..16) {
                    0 => Ovc::EARLY_FENCE,
                    1 => Ovc::LATE_FENCE,
                    _ => derive_code_spec(&base, key, &spec, &Stats::default()),
                };
                Entry {
                    code,
                    run: rng.gen_range(0..3),
                }
            };
            let a = entry(&mut rng, &a_key);
            let b = entry(&mut rng, &b_key);
            // An entry names one row: equal `(code, run)` pairs share a key.
            if (a.code, a.run) == (b.code, b.run) {
                b_key = a_key.clone();
            }

            let expect_stats = Stats::default();
            let (ew, el) = reference(a, b, &a_key, &b_key, &spec, &expect_stats);
            let tally = Tally::default();
            // The one code comparison `loser_tree` counts for this match.
            tally.count_ovc_cmps(1);
            let key_of = |e: Entry| -> &[u64] {
                if e.run == a.run {
                    &a_key
                } else {
                    &b_key
                }
            };
            let (w, l) = play_entries(a, b, key_of, &spec, spec.is_asc_prefix(), &tally);
            let stats = Stats::default();
            tally.flush(&stats);
            let why = format!("seed {seed} case {case}: {spec} {a:?} {a_key:?} vs {b:?} {b_key:?}");
            assert_eq!(
                (w.code, w.run, l.code, l.run),
                (ew.code, ew.run, el.code, el.run),
                "{why}"
            );
            assert_eq!(stats.snapshot(), expect_stats.snapshot(), "{why}");
            tied += usize::from(expect_stats.col_value_cmps() > 0);
        }
        assert!(tied > 1000, "only {tied} matches reached the columns");
    }

    #[test]
    fn merges_mixed_direction_runs_with_exact_codes() {
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::Direction;
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        // Two runs ordered [c0 desc, c1 asc].
        let run = |rows: [[u64; 2]; 3]| {
            Run::from_sorted_rows_spec(rows.map(|r| Row::new(r.to_vec())).to_vec(), spec.clone())
        };
        let a = run([[9, 1], [5, 0], [5, 7]]);
        let b = run([[7, 2], [5, 7], [1, 1]]);
        let tree = FlatMerge::new(vec![a, b], spec.clone(), Stats::new_shared());
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
}
