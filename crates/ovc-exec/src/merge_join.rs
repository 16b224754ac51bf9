//! Merge join (Section 4.7): inner, semi, anti, and outer joins over
//! sorted coded inputs.
//!
//! "The logic of merge join is similar to an external merge sort; hence,
//! it can exploit offset-value codes in its two sorted inputs" — and it
//! must produce codes for its output "without additional column value
//! comparisons" beyond the merge logic itself.
//!
//! Structure:
//!
//! * a `GroupedMerge` runs a two-way merge of the two inputs — one
//!   cursor per input over the current batch's key and code slices — with
//!   their codes clamped to the join-key arity.  Exactly like a tree-of-losers
//!   with two leaves, every comparison is a same-base code comparison: the
//!   current row of each side is coded relative to the row most recently
//!   consumed from *either* side, so codes decide most comparisons and
//!   equal join keys surface as duplicate codes for free.  The merge
//!   counts its comparisons into a local `Tally`, which the operator
//!   publishes into the query's `Stats` before each `next_batch`
//!   returns (and on drop);
//! * join-key groups fall out of the merged stream's codes (a
//!   non-duplicate code marks a boundary);
//! * per group, the join type decides what to emit.  Output codes come
//!   from the filter theorem over the merged chain: the first output of an
//!   emitted group carries the accumulated `max` since the previous output,
//!   every further output within the group is a duplicate under the
//!   join-key arity.  Semi and anti joins instead preserve the *left*
//!   input's codes at its full arity, "just like the derivation of Table 3
//!   from Table 1" (Section 4.7).

use std::cmp::Ordering;
use std::sync::Arc;

use ovc_core::compare::{compare_same_base, compare_same_base_spec};
use ovc_core::theorem::{clamp_to_prefix, OvcAccumulator};
use ovc_core::{BatchStream, FlatRows, Ovc, SortSpec, Stats, Tally, Value};

/// The "null" padding value for outer-join non-matches.  Rows are plain
/// `u64` columns, so a sentinel stands in for SQL NULL (DESIGN.md §3.6).
pub const NULL_VALUE: Value = u64::MAX;

/// Supported join types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    /// All matching combinations.
    Inner,
    /// Matching combinations plus left rows without match (right padded).
    LeftOuter,
    /// Matching combinations plus right rows without match (left padded).
    RightOuter,
    /// Both of the above.
    FullOuter,
    /// Left rows with at least one match (SQL `EXISTS`).
    LeftSemi,
    /// Left rows without any match (SQL `NOT EXISTS`).
    LeftAnti,
}

/// Which side a merged row came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// One input of the merge: a cursor over its current batch — the head row
/// and its code are read in place from the batch's slices — plus this
/// side's share of the join-key group being gathered.
pub(crate) struct Input<B> {
    stream: B,
    batch: FlatRows,
    pos: usize,
    key_len: usize,
    /// Comparison code of the head row: join arity, relative to the row
    /// most recently consumed from either side.
    cmp: Ovc,
    /// This side's rows of the current group, with their codes at the
    /// side's original arity (used by semi/anti joins).
    pub(crate) group: FlatRows,
}

impl<B: BatchStream> Input<B> {
    /// Position on the first row of `stream`; `width` shapes the buffers
    /// of an input that turns out to be empty.
    fn new(mut stream: B, width: usize, join_len: usize) -> Self {
        let batch = stream.next_batch().unwrap_or_else(|| FlatRows::new(width));
        let mut input = Input {
            key_len: stream.key_len(),
            stream,
            group: FlatRows::new(batch.width()),
            batch,
            pos: 0,
            cmp: Ovc::LATE_FENCE,
        };
        input.settle(join_len);
        input
    }

    fn done(&self) -> bool {
        self.pos >= self.batch.len()
    }

    /// Bring a head row under the cursor: when the current batch is spent,
    /// pull the next one (by the seam rule its first code is relative to
    /// the row just consumed), then clamp the head's code to the join
    /// arity.
    fn settle(&mut self, join_len: usize) {
        if self.done() {
            if let Some(batch) = self.stream.next_batch() {
                self.batch = batch;
                self.pos = 0;
            }
        }
        if !self.done() {
            self.cmp = clamp_to_prefix(self.batch.code(self.pos), self.key_len, join_len);
        }
    }

    /// Move the head row into the current group.
    fn take(&mut self, join_len: usize) {
        let code = self.batch.code(self.pos);
        self.group.push_from(&self.batch, self.pos, code);
        self.pos += 1;
        self.settle(join_len);
    }
}

/// Two-way merge of the join inputs, grouped by join key.
pub(crate) struct GroupedMerge<L, R> {
    pub(crate) left: Input<L>,
    pub(crate) right: Input<R>,
    join_len: usize,
    /// Ordering contract of the join-key prefix (shared by both inputs);
    /// drives every merge comparison, so mixed asc/desc join keys work.
    pub(crate) join_spec: SortSpec,
    /// The join key is all ascending: compare with the plain comparator.
    asc: bool,
    /// Lookahead: side and merged-chain code of the next group's first
    /// row — compared already, still at the head of its input.
    decided: Option<(Side, Ovc)>,
    /// Comparisons made since the last [`GroupedMerge::publish`].
    tally: Tally,
    stats: Arc<Stats>,
    started: bool,
}

impl<L: BatchStream, R: BatchStream> GroupedMerge<L, R> {
    /// Merge `left` and `right` (rows `left_width` / `right_width` columns
    /// wide) on their first `join_len` columns.
    pub(crate) fn new(
        left: L,
        right: R,
        (left_width, right_width): (usize, usize),
        join_len: usize,
        stats: Arc<Stats>,
    ) -> Self {
        let (left_spec, right_spec) = (left.sort_spec(), right.sort_spec());
        assert!(
            join_len <= left_spec.len() && join_len <= right_spec.len(),
            "join key must be a sort-key prefix of both inputs"
        );
        let join_spec = left_spec.prefix(join_len).with_normalized(false);
        assert_eq!(
            join_spec.keys(),
            right_spec.prefix(join_len).keys(),
            "join inputs must agree on the join-key ordering contract"
        );
        GroupedMerge {
            left: Input::new(left, left_width, join_len),
            right: Input::new(right, right_width, join_len),
            join_len,
            asc: join_spec.is_asc_prefix(),
            join_spec,
            decided: None,
            tally: Tally::default(),
            stats,
            started: false,
        }
    }

    /// Move the comparisons counted so far into the query's `Stats`.  The
    /// operators call this before every `next_batch` returns, so a
    /// profiler's per-call `Stats` delta still holds the call's work.
    pub(crate) fn publish(&self) {
        self.tally.flush(&self.stats);
    }

    /// Decide which head comes next in the merged chain; its code is
    /// exact relative to the previously taken row.
    fn decide(&mut self) -> Option<(Side, Ovc)> {
        let (l, r) = (&mut self.left, &mut self.right);
        match (l.done(), r.done()) {
            (true, true) => None,
            (false, true) => Some((Side::Left, l.cmp)),
            (true, false) => Some((Side::Right, r.cmp)),
            (false, false) => {
                let (l_key, r_key) = (
                    l.batch.key(l.pos, self.join_len),
                    r.batch.key(r.pos, self.join_len),
                );
                let ord = if self.asc {
                    compare_same_base(l_key, r_key, &mut l.cmp, &mut r.cmp, &self.tally)
                } else {
                    compare_same_base_spec(
                        l_key,
                        r_key,
                        &mut l.cmp,
                        &mut r.cmp,
                        &self.join_spec,
                        &self.tally,
                    )
                };
                Some(match ord {
                    Ordering::Less => (Side::Left, l.cmp),
                    Ordering::Greater => (Side::Right, r.cmp),
                    Ordering::Equal => {
                        // Equal join keys: take the left first (stability);
                        // the right head becomes a duplicate of it.
                        r.cmp = Ovc::duplicate();
                        (Side::Left, l.cmp)
                    }
                })
            }
        }
    }

    fn take(&mut self, side: Side) {
        match side {
            Side::Left => self.left.take(self.join_len),
            Side::Right => self.right.take(self.join_len),
        }
    }

    /// Gather the next join-key group into the inputs' `group` buffers
    /// (replacing the previous group) and return the exact merged-chain
    /// code of its first row, at join arity.
    pub(crate) fn next_group(&mut self) -> Option<Ovc> {
        let (side, group_code) = match self.decided.take() {
            Some(d) => d,
            None => self.decide()?,
        };
        debug_assert!(
            !self.started || !group_code.is_duplicate() || self.join_len == 0,
            "group must start at a boundary"
        );
        self.started = true;
        self.left.group.truncate(0);
        self.right.group.truncate(0);
        self.take(side);
        // Absorb the rest of the group: rows whose merged-chain code is a
        // duplicate at join arity (free detection; with an empty join key
        // everything is one group).
        while let Some((side, code)) = self.decide() {
            if !code.is_duplicate() {
                self.decided = Some((side, code));
                break;
            }
            self.take(side);
        }
        Some(group_code)
    }
}

impl<L, R> Drop for GroupedMerge<L, R> {
    /// Publish what an abandoned `next_batch` (a panic mid-call) left in
    /// the tally; after a normal return it is already zero.
    fn drop(&mut self) {
        self.tally.flush(&self.stats);
    }
}

/// Merge join over two coded batch streams.
///
/// The join key is the first `join_len` columns of both inputs.  Output
/// rows are `left columns ++ right columns past the join key` (matching
/// SQL `USING` semantics); outer-join non-matches pad the absent side with
/// [`NULL_VALUE`].  Output codes have arity `join_len`, except for semi
/// and anti joins whose outputs are unmodified left rows with codes at the
/// left input's full arity.
///
/// Both inputs are read in place: one cursor per side over the current
/// batch's key and code slices, a join-key group held as flat rows, and
/// the group's output rows written straight into an output batch of at
/// most `batch_size` rows (a many-to-many group larger than that carries
/// over into the following batches).
pub struct MergeJoin<L, R> {
    groups: GroupedMerge<L, R>,
    join_type: JoinType,
    join_len: usize,
    left_width: usize,
    /// Column count and ordering contract of the output: the left input's
    /// for semi/anti joins, combined rows under the join-key spec else.
    out_width: usize,
    out_spec: SortSpec,
    batch_size: usize,
    /// Filter-theorem accumulator over the merged chain (join arity).
    acc: OvcAccumulator,
    /// Filter-theorem accumulator over the left chain (semi/anti).
    left_acc: OvcAccumulator,
    /// Output rows `next..total` of the current group are still to be
    /// written; row 0 carries `head_code`.
    next: usize,
    total: usize,
    head_code: Ovc,
    /// Scratch for one combined or padded output row.
    row: Vec<Value>,
}

impl<L: BatchStream, R: BatchStream> MergeJoin<L, R> {
    /// Build a merge join emitting batches of at most `batch_size` rows.
    /// `left_width`/`right_width` are the inputs' column counts (needed
    /// to pad outer-join non-matches).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: L,
        right: R,
        join_len: usize,
        join_type: JoinType,
        left_width: usize,
        right_width: usize,
        batch_size: usize,
        stats: Arc<Stats>,
    ) -> Self {
        let left_spec = left.sort_spec();
        assert!(join_len <= right_width && join_len <= left_width);
        assert!(batch_size > 0, "batch size must be positive");
        let groups = GroupedMerge::new(left, right, (left_width, right_width), join_len, stats);
        let (out_width, out_spec) = match join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => (left_width, left_spec),
            _ => (
                left_width + right_width - join_len,
                groups.join_spec.clone(),
            ),
        };
        MergeJoin {
            groups,
            join_type,
            join_len,
            left_width,
            out_width,
            out_spec,
            batch_size,
            acc: OvcAccumulator::new(),
            left_acc: OvcAccumulator::new(),
            next: 0,
            total: 0,
            head_code: Ovc::duplicate(),
            row: Vec::with_capacity(out_width),
        }
    }

    fn keeps_left_rows(&self) -> bool {
        matches!(self.join_type, JoinType::LeftSemi | JoinType::LeftAnti)
    }

    /// A new group is in the merge's buffers: decide how many rows it
    /// emits and code the first of them, or absorb the group's codes.
    fn start_group(&mut self, code: Ovc) {
        let (left, right) = (&self.groups.left.group, &self.groups.right.group);
        let (nl, nr) = (left.len(), right.len());
        self.next = 0;
        if self.keeps_left_rows() {
            let emit = (self.join_type == JoinType::LeftSemi) == (nr > 0);
            self.total = if emit { nl } else { 0 };
            // Output codes follow the filter theorem over the left input
            // at its full arity (Section 4.7: "the rule for setting
            // offset-value codes in the output is the same as given in
            // the 'filter theorem'").
            if self.total > 0 {
                self.head_code = self.left_acc.emit(left.code(0));
            } else {
                for &code in left.codes() {
                    self.left_acc.absorb(code);
                }
            }
            return;
        }
        let pads_right = matches!(self.join_type, JoinType::LeftOuter | JoinType::FullOuter);
        let pads_left = matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter);
        self.total = match (nl, nr) {
            (_, 0) if pads_right => nl,
            (0, _) if pads_left => nr,
            _ => nl * nr,
        };
        // The first output of an emitted group carries the accumulated
        // merged-chain code; every further one is a duplicate at join
        // arity.
        if self.total > 0 {
            self.head_code = self.acc.emit(code);
        } else {
            self.acc.absorb(code);
        }
    }

    /// Write output row `self.next` of the current group into `out`.
    fn emit_row(&mut self, out: &mut FlatRows) {
        let (left, right) = (&self.groups.left.group, &self.groups.right.group);
        let k = self.next;
        self.next += 1;
        if self.keeps_left_rows() {
            let code = if k == 0 { self.head_code } else { left.code(k) };
            return out.push_from(left, k, code);
        }
        let j = self.join_len;
        self.row.clear();
        if right.is_empty() {
            self.row.extend_from_slice(left.row(k));
            self.row.resize(out.width(), NULL_VALUE);
        } else if left.is_empty() {
            self.row.extend_from_slice(&right.row(k)[..j]);
            self.row.resize(self.left_width, NULL_VALUE);
            self.row.extend_from_slice(&right.row(k)[j..]);
        } else {
            self.row.extend_from_slice(left.row(k / right.len()));
            self.row.extend_from_slice(&right.row(k % right.len())[j..]);
        }
        let code = if k == 0 {
            self.head_code
        } else {
            Ovc::duplicate()
        };
        out.push(&self.row, code);
    }
}

impl<L: BatchStream, R: BatchStream> BatchStream for MergeJoin<L, R> {
    fn next_batch(&mut self) -> Option<FlatRows> {
        let mut out: Option<FlatRows> = None;
        loop {
            if self.next < self.total {
                let out = out.get_or_insert_with(|| {
                    FlatRows::with_capacity(self.out_width, self.batch_size)
                });
                while self.next < self.total && out.len() < self.batch_size {
                    self.emit_row(out);
                }
                if out.len() >= self.batch_size {
                    break;
                }
            }
            match self.groups.next_group() {
                Some(code) => self.start_group(code),
                None => break,
            }
        }
        self.groups.publish();
        out
    }

    fn sort_spec(&self) -> SortSpec {
        self.out_spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ovc_core::batch::{assert_batches_exact_spec, collect_batch_pairs};
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Direction, FlatBatches, Row, StatsSnapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Sort `rows` on their first `key_len` columns (stably) and hand them
    /// over coded, in batches of 7.
    fn stream(mut rows: Vec<Vec<u64>>, key_len: usize) -> FlatBatches {
        rows.sort_by(|a, b| a[..key_len].cmp(&b[..key_len]));
        testkit::cut(&rows, &SortSpec::asc(key_len), 7)
    }

    /// Reference join on the first `j` columns, for all types.
    fn reference_join(
        l: &[Vec<u64>],
        r: &[Vec<u64>],
        j: usize,
        jt: JoinType,
        lw: usize,
        rw: usize,
    ) -> Vec<Vec<u64>> {
        let mut lsort = l.to_vec();
        let mut rsort = r.to_vec();
        lsort.sort();
        rsort.sort();
        // Group by borrowed key slices — no per-row key allocation.
        let mut rmap: BTreeMap<&[u64], Vec<&Vec<u64>>> = BTreeMap::new();
        for row in &rsort {
            rmap.entry(&row[..j]).or_default().push(row);
        }
        let mut out = Vec::new();
        match jt {
            JoinType::Inner | JoinType::LeftOuter => {
                for lrow in &lsort {
                    match rmap.get(&lrow[..j]) {
                        Some(matches) => {
                            for m in matches {
                                let mut c = lrow.clone();
                                c.extend_from_slice(&m[j..]);
                                out.push(c);
                            }
                        }
                        None if jt == JoinType::LeftOuter => {
                            let mut c = lrow.clone();
                            c.resize(lw + rw - j, NULL_VALUE);
                            out.push(c);
                        }
                        None => {}
                    }
                }
            }
            JoinType::LeftSemi => {
                for lrow in &lsort {
                    if rmap.contains_key(&lrow[..j]) {
                        out.push(lrow.clone());
                    }
                }
            }
            JoinType::LeftAnti => {
                for lrow in &lsort {
                    if !rmap.contains_key(&lrow[..j]) {
                        out.push(lrow.clone());
                    }
                }
            }
            JoinType::RightOuter | JoinType::FullOuter => {
                let mut lmap: BTreeMap<&[u64], Vec<&Vec<u64>>> = BTreeMap::new();
                for row in &lsort {
                    lmap.entry(&row[..j]).or_default().push(row);
                }
                let mut keys: Vec<&[u64]> = lmap
                    .keys()
                    .chain(rmap.keys())
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                keys.sort();
                for k in keys {
                    match (lmap.get(&k), rmap.get(&k)) {
                        (Some(ls), Some(rs)) => {
                            for lrow in ls {
                                for rrow in rs {
                                    let mut c = (*lrow).clone();
                                    c.extend_from_slice(&rrow[j..]);
                                    out.push(c);
                                }
                            }
                        }
                        (Some(ls), None) if jt == JoinType::FullOuter => {
                            for lrow in ls {
                                let mut c = (*lrow).clone();
                                c.resize(lw + rw - j, NULL_VALUE);
                                out.push(c);
                            }
                        }
                        (None, Some(rs)) => {
                            for rrow in rs {
                                let mut c = rrow[..j].to_vec();
                                c.resize(lw, NULL_VALUE);
                                c.extend_from_slice(&rrow[j..]);
                                out.push(c);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn run_join_widths(
        l: Vec<Vec<u64>>,
        r: Vec<Vec<u64>>,
        j: usize,
        lkl: usize,
        rkl: usize,
        jt: JoinType,
        lw: usize,
        rw: usize,
    ) -> Vec<(Row, Ovc)> {
        let stats = Stats::new_shared();
        let join = MergeJoin::new(stream(l, lkl), stream(r, rkl), j, jt, lw, rw, 16, stats);
        let arity = join.key_len();
        let pairs = collect_batch_pairs(join);
        assert_codes_exact(&pairs, arity);
        pairs
    }

    fn run_join(
        l: Vec<Vec<u64>>,
        r: Vec<Vec<u64>>,
        j: usize,
        lkl: usize,
        rkl: usize,
        jt: JoinType,
    ) -> Vec<(Row, Ovc)> {
        let lw = l.first().map(|x| x.len()).unwrap_or(lkl);
        let rw = r.first().map(|x| x.len()).unwrap_or(rkl);
        run_join_widths(l, r, j, lkl, rkl, jt, lw, rw)
    }

    fn rows_of(pairs: &[(Row, Ovc)]) -> Vec<Vec<u64>> {
        pairs.iter().map(|(r, _)| r.cols().to_vec()).collect()
    }

    #[test]
    fn inner_join_basic() {
        let l = vec![vec![1, 10], vec![2, 20], vec![4, 40]];
        let r = vec![vec![2, 200], vec![3, 300], vec![4, 400]];
        let pairs = run_join(l.clone(), r.clone(), 1, 1, 1, JoinType::Inner);
        assert_eq!(
            rows_of(&pairs),
            reference_join(&l, &r, 1, JoinType::Inner, 2, 2)
        );
    }

    #[test]
    fn many_to_many_duplicates() {
        let l = vec![vec![1, 1], vec![1, 2], vec![2, 1]];
        let r = vec![vec![1, 10], vec![1, 20], vec![1, 30]];
        let pairs = run_join(l.clone(), r.clone(), 1, 1, 1, JoinType::Inner);
        assert_eq!(pairs.len(), 6);
        assert_eq!(
            rows_of(&pairs),
            reference_join(&l, &r, 1, JoinType::Inner, 2, 2)
        );
        // All rows of a many-to-many group after the first are duplicates
        // under the join key.
        assert!(pairs[1..6].iter().all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn all_join_types_match_reference_randomized() {
        let mut rng = StdRng::seed_from_u64(21);
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
            JoinType::LeftSemi,
            JoinType::LeftAnti,
        ] {
            for trial in 0..5 {
                let l: Vec<Vec<u64>> = (0..rng.gen_range(0..60))
                    .map(|_| vec![rng.gen_range(0..8u64), rng.gen_range(0..4u64), rng.gen()])
                    .collect();
                let r: Vec<Vec<u64>> = (0..rng.gen_range(0..60))
                    .map(|_| vec![rng.gen_range(0..8u64), rng.gen_range(0..4u64), rng.gen()])
                    .collect();
                let pairs = run_join_widths(l.clone(), r.clone(), 2, 2, 2, jt, 3, 3);
                let mut got = rows_of(&pairs);
                let mut expect = reference_join(&l, &r, 2, jt, 3, 3);
                got.sort();
                expect.sort();
                assert_eq!(got, expect, "{jt:?} trial {trial}");
            }
        }
    }

    #[test]
    fn semi_join_preserves_left_codes_at_full_arity() {
        // Table 3 analogue: semi join selecting first and last Table 1 rows.
        let l = ovc_core::table1::rows();
        let left = stream(l.iter().map(|r| r.cols().to_vec()).collect(), 4);
        let right = stream(vec![vec![5, 7, 3, 9], vec![5, 9, 3, 7]], 4);
        let stats = Stats::new_shared();
        let join = MergeJoin::new(left, right, 4, JoinType::LeftSemi, 4, 4, 16, stats);
        let pairs = collect_batch_pairs(join);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].1.paper_decimal(), 405);
        assert_eq!(pairs[1].1.paper_decimal(), 309);
        assert_codes_exact(&pairs, 4);
    }

    #[test]
    fn join_with_empty_sides() {
        let l = vec![vec![1, 1], vec![2, 2]];
        assert_eq!(
            run_join(l.clone(), vec![], 1, 1, 1, JoinType::Inner).len(),
            0
        );
        assert_eq!(
            run_join(l.clone(), vec![], 1, 1, 1, JoinType::LeftAnti).len(),
            2
        );
        assert_eq!(run_join(vec![], l, 1, 1, 1, JoinType::Inner).len(), 0);
    }

    #[test]
    fn codes_decide_most_join_comparisons() {
        // With few distinct join keys, column comparisons in the merge are
        // bounded by N*K while code comparisons do the bulk of the work.
        let mut rng = StdRng::seed_from_u64(30);
        let l: Vec<Vec<u64>> = (0..500)
            .map(|_| vec![rng.gen_range(0..16u64), rng.gen_range(0..16u64), rng.gen()])
            .collect();
        let r: Vec<Vec<u64>> = (0..500)
            .map(|_| vec![rng.gen_range(0..16u64), rng.gen_range(0..16u64), rng.gen()])
            .collect();
        let stats = Stats::new_shared();
        let join = MergeJoin::new(
            stream(l, 2),
            stream(r, 2),
            2,
            JoinType::Inner,
            3,
            3,
            1024,
            Arc::clone(&stats),
        );
        let _ = collect_batch_pairs(join);
        assert!(
            stats.col_value_cmps() <= 1000 * 2,
            "join merge logic exceeded the N*K bound: {}",
            stats.col_value_cmps()
        );
    }

    #[test]
    fn mixed_direction_join_keys_match_reference() {
        use ovc_core::derive::assert_codes_exact_spec;
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        let mut rng = StdRng::seed_from_u64(77);
        let mut side = || {
            let mut rows: Vec<Vec<u64>> = (0..80)
                .map(|_| vec![rng.gen_range(0..6u64), rng.gen_range(0..4u64), rng.gen()])
                .collect();
            rows.sort_by(|a, b| spec.cmp_keys(&a[..2], &b[..2]));
            rows
        };
        let (l, r) = (side(), side());
        let join = MergeJoin::new(
            testkit::cut(&l, &spec, 9),
            testkit::cut(&r, &spec, 5),
            2,
            JoinType::Inner,
            3,
            3,
            16,
            Stats::new_shared(),
        );
        assert_eq!(join.sort_spec().keys(), spec.keys());
        let pairs = collect_batch_pairs(join);
        assert_codes_exact_spec(&pairs, &spec);
        // Same multiset as the direction-agnostic reference join.
        let mut got = rows_of(&pairs);
        let mut expect = reference_join(&l, &r, 2, JoinType::Inner, 3, 3);
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn outer_join_padding_layout() {
        let l = vec![vec![1, 10]];
        let r = vec![vec![2, 20]];
        let pairs = run_join(l, r, 1, 1, 1, JoinType::FullOuter);
        let rows = rows_of(&pairs);
        assert_eq!(rows[0], vec![1, 10, NULL_VALUE]);
        assert_eq!(rows[1], vec![2, NULL_VALUE, 20]);
    }

    const ALL_JOIN_TYPES: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::LeftOuter,
        JoinType::RightOuter,
        JoinType::FullOuter,
        JoinType::LeftSemi,
        JoinType::LeftAnti,
    ];

    /// The old ≡ new proof, carried across the delete.  At commit 4f110c3
    /// the row-at-a-time `MergeJoin` over `VecStream`s of these seeded
    /// inputs produced exactly these row counts, row/code digests and
    /// comparison counts (columns, codes); the batch kernel must too, at
    /// every input and output batch size.
    #[test]
    fn row_kernel_constants_hold() {
        // (label, seed, left rows, right rows, column domains, skewed, join_len)
        type Scenario = (&'static str, u64, usize, usize, [u64; 3], bool, usize);
        const SCENARIOS: [Scenario; 5] = [
            ("dup_heavy", 1, 60, 50, [4, 3, 1000], false, 2),
            ("skewed", 2, 80, 70, [16, 4, 1000], true, 2),
            ("empty_left", 3, 0, 30, [4, 3, 1000], false, 2),
            ("empty_right", 4, 30, 0, [4, 3, 1000], false, 2),
            ("join_len0", 5, 12, 9, [4, 3, 1000], false, 0),
        ];
        #[rustfmt::skip]
        const EXPECT: [(JoinType, &str, usize, u64, u64, u64); 30] = [
            (JoinType::Inner, "dup_heavy", 258, 0x4cb640319ac32cc6, 4, 109),
            (JoinType::Inner, "skewed", 444, 0xfa3b9f71815eea35, 14, 149),
            (JoinType::Inner, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::Inner, "empty_right", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::Inner, "join_len0", 108, 0x8d446b76bcda8572, 0, 12),
            (JoinType::LeftOuter, "dup_heavy", 258, 0x4cb640319ac32cc6, 4, 109),
            (JoinType::LeftOuter, "skewed", 453, 0x8b978e978e134114, 14, 149),
            (JoinType::LeftOuter, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::LeftOuter, "empty_right", 30, 0x22dd451b43797c2f, 0, 0),
            (JoinType::LeftOuter, "join_len0", 108, 0x8d446b76bcda8572, 0, 12),
            (JoinType::RightOuter, "dup_heavy", 258, 0x4cb640319ac32cc6, 4, 109),
            (JoinType::RightOuter, "skewed", 454, 0xba4e535e1441394e, 14, 149),
            (JoinType::RightOuter, "empty_left", 30, 0x1f91e0960c9ced58, 0, 0),
            (JoinType::RightOuter, "empty_right", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::RightOuter, "join_len0", 108, 0x8d446b76bcda8572, 0, 12),
            (JoinType::FullOuter, "dup_heavy", 258, 0x4cb640319ac32cc6, 4, 109),
            (JoinType::FullOuter, "skewed", 463, 0xd04d2962952acf82, 14, 149),
            (JoinType::FullOuter, "empty_left", 30, 0x1f91e0960c9ced58, 0, 0),
            (JoinType::FullOuter, "empty_right", 30, 0x22dd451b43797c2f, 0, 0),
            (JoinType::FullOuter, "join_len0", 108, 0x8d446b76bcda8572, 0, 12),
            (JoinType::LeftSemi, "dup_heavy", 60, 0x47775708844e9bb6, 4, 109),
            (JoinType::LeftSemi, "skewed", 71, 0x1ea790edb2520468, 14, 149),
            (JoinType::LeftSemi, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::LeftSemi, "empty_right", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::LeftSemi, "join_len0", 12, 0xbc0afbdad2775bce, 0, 12),
            (JoinType::LeftAnti, "dup_heavy", 0, 0xcbf29ce484222325, 4, 109),
            (JoinType::LeftAnti, "skewed", 9, 0xbae556b0b7b7e37f, 14, 149),
            (JoinType::LeftAnti, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (JoinType::LeftAnti, "empty_right", 30, 0xceb9fa8060bdefbf, 0, 0),
            (JoinType::LeftAnti, "join_len0", 0, 0xcbf29ce484222325, 0, 12),
        ];
        let mut expect = EXPECT.iter();
        for jt in ALL_JOIN_TYPES {
            for (label, seed, nl, nr, domains, skew, j) in SCENARIOS {
                let l = testkit::rows(seed, nl, &domains, skew);
                let r = testkit::rows(seed + 100, nr, &domains, skew);
                let &(e_jt, e_label, rows, digest, col_cmps, ovc_cmps) =
                    expect.next().expect("one constant per case");
                assert_eq!((e_jt, e_label), (jt, label));
                for (in_batch, out_batch) in [(1, 1), (7, 3), (1024, 1024)] {
                    let stats = Stats::new_shared();
                    let spec = SortSpec::asc(2);
                    let join = MergeJoin::new(
                        testkit::cut(&l, &spec, in_batch),
                        testkit::cut(&r, &spec, in_batch),
                        j,
                        jt,
                        3,
                        3,
                        out_batch,
                        Arc::clone(&stats),
                    );
                    let out = testkit::drain(join, out_batch);
                    let case = format!("{jt:?}/{label} in={in_batch} out={out_batch}");
                    assert_eq!(testkit::digest(&out), (rows, digest), "{case}");
                    let counted = StatsSnapshot {
                        col_value_cmps: col_cmps,
                        ovc_cmps,
                        ..StatsSnapshot::default()
                    };
                    assert_eq!(stats.snapshot(), counted, "{case}");
                }
            }
        }
    }

    /// Seams are invisible: with join-key groups that span at least three
    /// input batches on *both* sides, every input batch size — 1, 2, 7,
    /// the whole input, more than the input — gives the same rows, codes
    /// and counters, for every join type.
    #[test]
    fn input_seams_move_neither_rows_nor_codes_nor_stats() {
        let spec = SortSpec::asc(2);
        // Join key = column 0 over 3 values: ~20 rows per key per side, so
        // at batch sizes 1, 2 and 7 each group crosses >= 3 batches.
        let l = testkit::rows(41, 60, &[3, 5, 1000], false);
        let r = testkit::rows(42, 55, &[3, 4, 1000], false);
        for jt in ALL_JOIN_TYPES {
            let run = |lb: usize, rb: usize| {
                let stats = Stats::new_shared();
                let join = MergeJoin::new(
                    testkit::cut(&l, &spec, lb),
                    testkit::cut(&r, &spec, rb),
                    1,
                    jt,
                    3,
                    3,
                    64,
                    Arc::clone(&stats),
                );
                let out_spec = join.sort_spec();
                let out = testkit::drain(join, 64);
                assert_batches_exact_spec(&out, &out_spec);
                (testkit::digest(&out), stats.snapshot())
            };
            let whole = run(l.len(), r.len());
            assert!(whole.0 .0 > 0 || jt == JoinType::LeftAnti, "{jt:?}");
            for (lb, rb) in [(1, 1), (2, 2), (7, 7), (1, 7), (7, 2), (1000, 1000)] {
                assert_eq!(run(lb, rb), whole, "{jt:?} left={lb} right={rb}");
            }
        }
    }

    /// The kernel labels its output with the order it actually has: over
    /// descending and mixed-direction inputs the reported spec is the
    /// inputs' own (join prefix, or the left spec for semi/anti), and the
    /// output audits exact under it.
    #[test]
    fn descending_and_mixed_inputs_keep_their_label() {
        for spec in [
            SortSpec::desc(2),
            SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]),
        ] {
            let order = |seed, keys| {
                let mut rows = testkit::rows(seed, 70, &[keys, 4, 1000], false);
                rows.sort_by(|a, b| spec.cmp_keys(&a[..2], &b[..2]));
                rows
            };
            // Left keys 3 and 4 find no match, so the anti join emits too.
            let (l, r) = (order(51, 5), order(52, 3));
            for jt in ALL_JOIN_TYPES {
                let join = MergeJoin::new(
                    testkit::cut(&l, &spec, 6),
                    testkit::cut(&r, &spec, 11),
                    1,
                    jt,
                    3,
                    3,
                    8,
                    Stats::new_shared(),
                );
                let reported = join.sort_spec();
                let expect = match jt {
                    JoinType::LeftSemi | JoinType::LeftAnti => spec.clone(),
                    _ => spec.prefix(1),
                };
                assert_eq!(reported, expect, "{jt:?} under {spec}");
                let out = testkit::drain(join, 8);
                assert!(!out.is_empty(), "{jt:?} under {spec}");
                assert_batches_exact_spec(&out, &reported);
            }
        }
    }
}
