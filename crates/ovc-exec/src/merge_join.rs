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
//! * a `GroupedMerge` is a tree-of-losers with two leaves, and plays the
//!   tournament's own match, `ovc_sort::tree::play_entries`: the left
//!   head enters as run 0 and the right head as run 1, each with its code
//!   clamped to the join-key arity and read in place from its batch.
//!   Every head is coded relative to the row most recently taken from
//!   *either* side, so one compare of the packed `(code, side)` pair
//!   decides most matches without a branch on the outcome; only equal,
//!   valid, non-duplicate codes take the cold tied path and resume column
//!   comparisons.  Equal join keys go to the left first and turn the
//!   right head into a duplicate, so a group's left rows precede its
//!   right rows.  The merge counts one code comparison per match while
//!   both inputs are live into a local `Tally`, which the operator
//!   publishes into the query's `Stats` before each `next_batch` returns;
//! * join-key groups fall out of the merged chain's codes (a
//!   non-duplicate code marks a boundary), and the match that picks a
//!   group's first row already tells whether the other side takes part:
//!   the right head's code is then a duplicate;
//! * per row, the join type decides what to emit, and each output row is
//!   copied once, straight from the input batches into the output batch.
//!   Outer padding, anti and semi joins, and a group in which one side
//!   holds a single row write as the rows are taken; only a many-to-many
//!   group is buffered.  Output codes come from the filter theorem over
//!   the merged chain: the first output of an emitted group carries the
//!   accumulated `max` since the previous output, every further output
//!   within the group is a duplicate under the join-key arity.  Semi and
//!   anti joins instead preserve the *left* input's codes at its full
//!   arity, "just like the derivation of Table 3 from Table 1" (Section
//!   4.7).

use std::mem::replace;
use std::sync::Arc;

use ovc_core::theorem::{clamp_to_prefix, OvcAccumulator};
use ovc_core::{BatchStream, ExecError, FlatRows, Ovc, SortSpec, Stats, Tally, Value};
use ovc_sort::tree::{play_entries, Entry};

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

/// The left input's index in the merge's per-input arrays, and its run
/// in the match.
pub(crate) const LEFT: usize = 0;
/// The right input's index and run.
pub(crate) const RIGHT: usize = 1;

/// Clamp an input's code from its key arity to the join arity (the
/// identity when the two agree, as under a set operation).
#[inline]
fn clamp(code: Ovc, key_len: usize, join_len: usize) -> Ovc {
    if key_len == join_len {
        code
    } else {
        clamp_to_prefix(code, key_len, join_len)
    }
}

/// The merge's match: one round of the two-leaf tournament over the
/// heads' comparison codes, the left as run 0 and the right as run 1, so
/// equal keys go to the left.  Counts one code comparison while both
/// inputs are live; `key` yields a side's head key and only the tied path
/// calls it.  Returns `(winner, loser)` as [`play_entries`] does, the
/// loser's code exact relative to the winner; a winner holding the late
/// fence means both inputs are spent.
#[inline]
fn play_heads<'k>(
    heads: [Ovc; 2],
    key: impl Fn(Entry) -> &'k [Value],
    spec: &SortSpec,
    asc: bool,
    tally: &Tally,
) -> (Entry, Entry) {
    let live = (heads[0] != Ovc::LATE_FENCE) & (heads[1] != Ovc::LATE_FENCE);
    tally.count_ovc_cmps(u64::from(live));
    let entry = |run: u32| Entry {
        code: heads[run as usize],
        run,
    };
    play_entries(entry(0), entry(1), key, spec, asc, tally)
}

/// The next row of the merged chain: decided, not yet taken.
#[derive(Clone, Copy)]
pub(crate) struct Next {
    /// The input it comes from: [`LEFT`] or [`RIGHT`].
    pub(crate) side: usize,
    /// Its code in the merged chain at join arity, exact relative to the
    /// row taken before it.
    pub(crate) code: Ovc,
    /// It is the first row of a join-key group.
    pub(crate) starts_group: bool,
}

/// Two-way merge of the join inputs: the merged chain, one row at a time,
/// with its join-key groups marked.
///
/// Per input it keeps a cursor over the current batch, in arrays indexed
/// by side, so taking a row, reading a head and counting a side index
/// instead of branching on which input won.  Only pulling an input's
/// next batch branches on the side.
pub(crate) struct GroupedMerge<L, R> {
    left: L,
    right: R,
    /// Each input's current batch, and its head row's position in it.
    pub(crate) batches: [FlatRows; 2],
    pos: [usize; 2],
    key_lens: [usize; 2],
    /// Each head's comparison code at join arity, relative to the row
    /// most recently taken from either side; the late fence once that
    /// side is spent.
    heads: [Ovc; 2],
    join_len: usize,
    /// Ordering contract of the join-key prefix (shared by both inputs);
    /// drives every tied match, so mixed asc/desc join keys work.
    pub(crate) join_spec: SortSpec,
    /// The join key is all ascending: ties use the plain comparator.
    asc: bool,
    /// The next row of the merged chain, decided after every take.
    decided: Option<Next>,
    /// A row has been taken.  Before that, the first row starts a group
    /// whatever its code (under an empty join key every code is a
    /// duplicate and all rows form one group).
    started: bool,
    /// Comparisons made since the last [`GroupedMerge::finish`].
    tally: Tally,
    stats: Arc<Stats>,
    /// The first error an input returned; the merged chain ended there.
    error: Option<ExecError>,
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
        let mut merge = GroupedMerge {
            key_lens: [left.key_len(), right.key_len()],
            left,
            right,
            // Empty until `settle` pulls each input's first batch; the
            // width shapes the batch of an input that turns out empty.
            batches: [FlatRows::new(left_width), FlatRows::new(right_width)],
            pos: [0; 2],
            heads: [Ovc::LATE_FENCE; 2],
            join_len,
            asc: join_spec.is_asc_prefix(),
            join_spec,
            decided: None,
            started: false,
            tally: Tally::default(),
            stats,
            error: None,
        };
        for side in [LEFT, RIGHT] {
            merge.settle(side);
        }
        merge.decide();
        merge
    }

    /// End a `next_batch` call that filled `out`: move the comparisons
    /// counted so far into the query's `Stats` — the operators call this
    /// before every `next_batch` returns, so a profiler's per-call
    /// `Stats` delta still holds the call's work — and return the batch,
    /// or, if an input failed during the call, its error instead.
    pub(crate) fn finish(&mut self, out: FlatRows) -> Result<Option<FlatRows>, ExecError> {
        self.tally.flush(&self.stats);
        match self.error.take() {
            Some(err) => Err(err),
            None => Ok((!out.is_empty()).then_some(out)),
        }
    }

    /// Set `side`'s head code from the row under its cursor: its code
    /// clamped to the join arity, or the late fence once the input is
    /// spent.
    #[inline]
    fn settle(&mut self, side: usize) {
        if self.pos[side] >= self.batches[side].len() && !self.refill(side) {
            self.heads[side] = Ovc::LATE_FENCE;
            return;
        }
        let code = self.batches[side].code(self.pos[side]);
        self.heads[side] = clamp(code, self.key_lens[side], self.join_len);
    }

    /// Pull `side`'s next non-empty batch in place of the used-up one; by
    /// the seam rule its first code is relative to the row just taken.
    /// `false` once the input is spent — or once either input has
    /// failed: both heads are then fences, which ends the merged chain,
    /// and the error waits for [`GroupedMerge::finish`].
    #[cold]
    #[inline(never)]
    fn refill(&mut self, side: usize) -> bool {
        while self.error.is_none() {
            let batch = if side == LEFT {
                self.left.next_batch()
            } else {
                self.right.next_batch()
            };
            match batch {
                Ok(Some(batch)) if !batch.is_empty() => {
                    self.batches[side] = batch;
                    self.pos[side] = 0;
                    return true;
                }
                Ok(Some(_)) => {}
                Ok(None) => return false,
                Err(err) => {
                    self.error = Some(err);
                    self.heads = [Ovc::LATE_FENCE; 2];
                }
            }
        }
        false
    }

    /// The next row of the merged chain, decided and not yet taken;
    /// `None` once both inputs are spent.
    #[inline]
    pub(crate) fn peek(&self) -> Option<Next> {
        self.decided
    }

    /// Play the match that decides the next row of the merged chain.
    #[inline]
    fn decide(&mut self) {
        let (batches, pos, j) = (&self.batches, &self.pos, self.join_len);
        let key = |e: Entry| {
            let side = e.run as usize;
            batches[side].key(pos[side], j)
        };
        let (win, lose) = play_heads(self.heads, key, &self.join_spec, self.asc, &self.tally);
        self.heads[lose.run as usize] = lose.code;
        self.decided = (win.code != Ovc::LATE_FENCE).then_some(Next {
            side: win.run as usize,
            code: win.code,
            starts_group: !self.started || !win.code.is_duplicate(),
        });
    }

    /// The batch and position of `side`'s head row, to copy it from.
    #[inline]
    pub(crate) fn head(&self, side: usize) -> (&FlatRows, usize) {
        (&self.batches[side], self.pos[side])
    }

    /// Whether `side`'s head row is its input's only row of its join-key
    /// group: its successor sits in the same batch and is no duplicate at
    /// join arity.  A successor in the next batch is not looked at, so
    /// `false` only means "not known".
    fn head_is_alone(&self, side: usize) -> bool {
        let (batch, next) = (&self.batches[side], self.pos[side] + 1);
        next < batch.len()
            && !clamp(batch.code(next), self.key_lens[side], self.join_len).is_duplicate()
    }

    /// At a group's first row, taken from the left: whether the right
    /// input has rows in the group too.  The match that chose the left
    /// head left the right head's code a duplicate exactly then.
    #[inline]
    pub(crate) fn right_joins(&self) -> bool {
        self.heads[RIGHT].is_duplicate()
    }

    /// Take the decided row ([`GroupedMerge::peek`]) out of its input,
    /// and decide the next.
    #[inline]
    pub(crate) fn take(&mut self, side: usize) {
        debug_assert!(self.decided.is_some_and(|n| n.side == side));
        self.started = true;
        self.pos[side] += 1;
        self.settle(side);
        self.decide();
    }
}

/// What the current group does with each of its left rows as it is taken.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LeftRows {
    /// Semi and anti joins: written unchanged (`true`) or passed over,
    /// its code absorbed by the left chain's accumulator (`false`).
    Own(bool),
    /// The group has no left rows.
    Absent,
    /// Passed over: no right row matches and the join pads no left row.
    Skip,
    /// Written padded with nulls for the absent right side.
    Pad,
    /// Written combined with the right head, read in place: the right
    /// side's only row of the group.
    WithRightHead,
    /// Buffered, to be combined with the group's right rows.
    Buffer,
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
/// Both inputs are read in place, and each output row is copied once,
/// straight into an output batch of at most `batch_size` rows.  Only a
/// many-to-many group is buffered, as flat rows, and its combinations
/// carry over into the following batches when they do not fit.
pub struct MergeJoin<L, R> {
    groups: GroupedMerge<L, R>,
    join_type: JoinType,
    join_len: usize,
    left_width: usize,
    right_width: usize,
    /// Column count and ordering contract of the output: the left input's
    /// for semi/anti joins, combined rows under the join-key spec else.
    out_width: usize,
    out_spec: SortSpec,
    batch_size: usize,
    /// Filter-theorem accumulator over the merged chain (join arity).
    acc: OvcAccumulator,
    /// Filter-theorem accumulator over the left chain (semi/anti).
    left_acc: OvcAccumulator,
    /// The current group's handling of its left rows.
    left_rows: LeftRows,
    /// The current group has not been closed yet.
    open: bool,
    /// Code of the current group's next output row (the group's head code,
    /// then duplicates); unused by semi and anti joins.
    code: Ovc,
    /// A many-to-many group's rows, and its combinations `next..total`
    /// still to be written.
    left_group: FlatRows,
    right_group: FlatRows,
    next: usize,
    total: usize,
    /// `NULL_VALUE`s to pad a row with.
    nulls: Vec<Value>,
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
            right_width,
            out_width,
            out_spec,
            batch_size,
            acc: OvcAccumulator::new(),
            left_acc: OvcAccumulator::new(),
            left_rows: LeftRows::Absent,
            open: false,
            code: Ovc::duplicate(),
            left_group: FlatRows::new(left_width),
            right_group: FlatRows::new(right_width),
            next: 0,
            total: 0,
            nulls: vec![NULL_VALUE; left_width.max(right_width)],
        }
    }

    fn pads_left(&self) -> bool {
        matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter)
    }

    /// `next` is a group's first row: decide how the group handles its
    /// rows and code its first output, or absorb the group's code when it
    /// emits nothing.
    fn start_group(&mut self, next: Next) {
        self.open = true;
        self.left_group.truncate(0);
        self.right_group.truncate(0);
        let partner = next.side == LEFT && self.groups.right_joins();
        if matches!(self.join_type, JoinType::LeftSemi | JoinType::LeftAnti) {
            // Output codes follow the filter theorem over the left input
            // at its full arity (Section 4.7: "the rule for setting
            // offset-value codes in the output is the same as given in
            // the 'filter theorem'").
            self.left_rows = LeftRows::Own(partner == (self.join_type == JoinType::LeftSemi));
            return;
        }
        let pads_right = matches!(self.join_type, JoinType::LeftOuter | JoinType::FullOuter);
        self.left_rows = if next.side == RIGHT {
            LeftRows::Absent
        } else if !partner {
            if pads_right {
                LeftRows::Pad
            } else {
                LeftRows::Skip
            }
        } else if self.groups.head_is_alone(RIGHT) {
            LeftRows::WithRightHead
        } else {
            LeftRows::Buffer
        };
        // The first output of an emitted group carries the accumulated
        // merged-chain code; every further one is a duplicate at join
        // arity.
        let emits = match self.left_rows {
            LeftRows::Absent => self.pads_left(),
            LeftRows::Skip => false,
            _ => true,
        };
        if emits {
            self.code = self.acc.emit(next.code);
        } else {
            self.acc.absorb(next.code);
        }
    }

    /// The group is complete: a many-to-many group now writes its
    /// combinations.  Returns whether it has any.
    fn end_group(&mut self) -> bool {
        if !replace(&mut self.open, false) || self.right_group.is_empty() {
            return false;
        }
        self.next = 0;
        self.total = self.left_group.len() * self.right_group.len();
        true
    }

    /// Handle the left head row as the group says.
    fn left_row(&mut self, out: &mut FlatRows) {
        let ((batch, pos), j) = (self.groups.head(LEFT), self.join_len);
        let (row, own) = (batch.row(pos), batch.code(pos));
        match self.left_rows {
            LeftRows::Own(true) => out.push_from(batch, pos, self.left_acc.emit(own)),
            LeftRows::Own(false) => self.left_acc.absorb(own),
            LeftRows::Absent | LeftRows::Skip => {}
            LeftRows::Pad => {
                let code = replace(&mut self.code, Ovc::duplicate());
                out.push_concat(&[row, &self.nulls[..self.right_width - j]], code);
            }
            LeftRows::WithRightHead => {
                let (right, at) = self.groups.head(RIGHT);
                let code = replace(&mut self.code, Ovc::duplicate());
                out.push_concat(&[row, &right.row(at)[j..]], code);
            }
            LeftRows::Buffer => self.left_group.push_from(batch, pos, own),
        }
    }

    /// Handle the right head row: all of the group's left rows are taken
    /// by now, so their count is known.
    fn right_row(&mut self, out: &mut FlatRows) {
        let ((batch, pos), j) = (self.groups.head(RIGHT), self.join_len);
        let row = batch.row(pos);
        match self.left_rows {
            LeftRows::Absent if self.pads_left() => {
                let code = replace(&mut self.code, Ovc::duplicate());
                let pad = &self.nulls[..self.left_width - j];
                out.push_concat(&[&row[..j], pad, &row[j..]], code);
            }
            LeftRows::Buffer if self.left_group.len() == 1 => {
                let code = replace(&mut self.code, Ovc::duplicate());
                out.push_concat(&[self.left_group.row(0), &row[j..]], code);
            }
            LeftRows::Buffer => self.right_group.push_from(batch, pos, Ovc::duplicate()),
            _ => {}
        }
    }

    /// Write the next combination of a many-to-many group, left-major.
    fn cross_row(&mut self, out: &mut FlatRows) {
        let (k, nr) = (self.next, self.right_group.len());
        self.next += 1;
        let code = replace(&mut self.code, Ovc::duplicate());
        let right = &self.right_group.row(k % nr)[self.join_len..];
        out.push_concat(&[self.left_group.row(k / nr), right], code);
    }
}

impl<L: BatchStream, R: BatchStream> BatchStream for MergeJoin<L, R> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let mut out = FlatRows::with_capacity(self.out_width, self.batch_size);
        while out.len() < self.batch_size {
            if self.next < self.total {
                self.cross_row(&mut out);
                continue;
            }
            let next = self.groups.peek();
            if next.is_none_or(|n| n.starts_group) && self.end_group() {
                continue;
            }
            let Some(next) = next else { break };
            if next.starts_group {
                self.start_group(next);
            }
            if next.side == LEFT {
                self.left_row(&mut out);
            } else {
                self.right_row(&mut out);
            }
            self.groups.take(next.side);
        }
        self.groups.finish(out)
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

    /// An input that fails on its first or second batch ends the join
    /// and the set operation (one `GroupedMerge`) with its error: the
    /// `next_batch` that reaches the failed pull returns it, and the rows
    /// before it are a prefix of the full output that stops short of the
    /// failing input's eighth row.
    #[test]
    fn a_failing_input_ends_the_merge_with_its_error() {
        use crate::{SetOp, SetOperation};
        use testkit::FailAfter;
        let wide: Vec<Vec<u64>> = (0..40u64).map(|k| vec![k, k]).collect();
        let keys: Vec<Vec<u64>> = (0..40u64).map(|k| vec![k]).collect();
        for left in [0, 1] {
            let fail = |rows: &[Vec<u64>], key_len| FailAfter {
                inner: stream(rows.to_vec(), key_len),
                left,
            };
            let stats = Stats::new_shared;
            let outputs: [(Box<dyn BatchStream>, Box<dyn BatchStream>); 2] = [
                (
                    Box::new(MergeJoin::new(
                        stream(wide.clone(), 1),
                        fail(&wide, 1),
                        1,
                        JoinType::Inner,
                        2,
                        2,
                        4,
                        stats(),
                    )),
                    Box::new(MergeJoin::new(
                        stream(wide.clone(), 1),
                        stream(wide.clone(), 1),
                        1,
                        JoinType::Inner,
                        2,
                        2,
                        4,
                        stats(),
                    )),
                ),
                (
                    Box::new(SetOperation::new(
                        fail(&keys, 1),
                        stream(keys.clone(), 1),
                        SetOp::UnionAll,
                        4,
                        stats(),
                    )),
                    Box::new(SetOperation::new(
                        stream(keys.clone(), 1),
                        stream(keys.clone(), 1),
                        SetOp::UnionAll,
                        4,
                        stats(),
                    )),
                ),
            ];
            for (mut failing, full) in outputs {
                let expect = collect_batch_pairs(full);
                let mut emitted = Vec::new();
                let got = loop {
                    match failing.next_batch() {
                        Ok(Some(b)) => {
                            emitted.extend(b.iter().map(|(r, c)| (Row::from_slice(r), c)))
                        }
                        other => break other.map(|_| ()),
                    }
                };
                assert_eq!(got, Err(ExecError::Cancelled), "left={left}");
                assert!(emitted.len() < 7 * 2, "left={left}: {} rows", emitted.len());
                assert_eq!(emitted, expect[..emitted.len()], "left={left}");
            }
        }
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

    /// Differential for the merge's match: `play_heads` against the
    /// branchy comparator it replaced — `compare_same_base(_spec)`, the
    /// left taken first on equal keys with the right head turned into a
    /// duplicate, and no comparison once a side is spent.  Random keys
    /// at or after a shared base under `asc(k)` and mixed specs, with few
    /// distinct values so equal codes and duplicates are common, clamped
    /// values at both lossy ends, and spent sides (late fences), must
    /// give the same winner, heads and counts.  `RANDOM_SEED` reseeds it.
    #[test]
    fn grouped_merge_match_matches_the_reference() {
        use ovc_core::compare::{compare_same_base, compare_same_base_spec, derive_code_spec};
        use ovc_core::ovc::VALUE_MASK;
        use std::cmp::Ordering;

        /// The parent's `decide`: `None` when both sides are spent, else
        /// the side taken, its code, and both heads afterwards.
        fn reference(
            heads: [Option<(&[u64], Ovc)>; 2],
            spec: &SortSpec,
            stats: &Stats,
        ) -> Option<(usize, Ovc, [Ovc; 2])> {
            let late = Ovc::LATE_FENCE;
            match heads {
                [None, None] => None,
                [Some((_, l)), None] => Some((LEFT, l, [l, late])),
                [None, Some((_, r))] => Some((RIGHT, r, [late, r])),
                [Some((lk, mut l)), Some((rk, mut r))] => {
                    let ord = if spec.is_asc_prefix() {
                        compare_same_base(lk, rk, &mut l, &mut r, stats)
                    } else {
                        compare_same_base_spec(lk, rk, &mut l, &mut r, spec, stats)
                    };
                    Some(match ord {
                        Ordering::Less => (LEFT, l, [l, r]),
                        Ordering::Greater => (RIGHT, r, [l, r]),
                        Ordering::Equal => (LEFT, l, [l, Ovc::duplicate()]),
                    })
                }
            }
        }

        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(40);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut tied, mut spent, mut dups) = (0, 0, 0);
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
                        let v = rng.gen_range(0..3u64);
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
            let keys = [after_base(&mut rng), after_base(&mut rng)];
            let live = [rng.gen_range(0..6) > 0, rng.gen_range(0..6) > 0];
            let heads: [Option<(&[u64], Ovc)>; 2] = std::array::from_fn(|i| {
                live[i].then(|| {
                    let code = derive_code_spec(&base, &keys[i], &spec, &Stats::default());
                    (&keys[i][..], code)
                })
            });

            let expect_stats = Stats::default();
            let expect = reference(heads, &spec, &expect_stats);
            let tally = Tally::default();
            let codes = heads.map(|h| h.map_or(Ovc::LATE_FENCE, |(_, code)| code));
            let key_of = |e: Entry| -> &[u64] { &keys[e.run as usize] };
            let (win, lose) = play_heads(codes, key_of, &spec, spec.is_asc_prefix(), &tally);
            let mut after = codes;
            after[lose.run as usize] = lose.code;
            let got = (win.code != Ovc::LATE_FENCE).then_some((win.run as usize, win.code, after));
            let stats = Stats::default();
            tally.flush(&stats);
            let why = format!("seed {seed} case {case}: {spec} {keys:?} {codes:?}");
            assert_eq!(got, expect, "{why}");
            assert_eq!(stats.snapshot(), expect_stats.snapshot(), "{why}");
            tied += usize::from(expect_stats.col_value_cmps() > 0);
            spent += usize::from(!live[0] || !live[1]);
            dups += usize::from(codes.iter().any(|c| c.is_duplicate()));
        }
        assert!(tied > 1000, "only {tied} matches reached the columns");
        assert!(
            spent > 1000 && dups > 1000,
            "{spent} spent sides, {dups} duplicates"
        );
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

    /// A side with one row per join key is read in place: the other
    /// side's rows are combined with it as they are taken, unless the
    /// row after it lies past its batch's end and nothing says the key
    /// does not go on.  Batch size 1 never sees past a row and so always
    /// takes the buffered path; every batch size must give the same rows,
    /// codes and counters, with the single rows on either side.
    #[test]
    fn single_row_sides_stream_past_seams() {
        let spec = SortSpec::asc(2);
        let many = testkit::rows(81, 70, &[6, 3, 1000], false);
        // One row per key (c0, c1) = (k, k % 3) for k in 0..5.
        let single: Vec<Vec<u64>> = (0..5u64).map(|k| vec![k, k % 3, 500 + k]).collect();
        for (l, r) in [(&many, &single), (&single, &many)] {
            for jt in ALL_JOIN_TYPES {
                let run = |lb: usize, rb: usize| {
                    let stats = Stats::new_shared();
                    let join = MergeJoin::new(
                        testkit::cut(l, &spec, lb),
                        testkit::cut(r, &spec, rb),
                        2,
                        jt,
                        3,
                        3,
                        5,
                        Arc::clone(&stats),
                    );
                    let out_spec = join.sort_spec();
                    let out = testkit::drain(join, 5);
                    assert_batches_exact_spec(&out, &out_spec);
                    (testkit::digest(&out), stats.snapshot())
                };
                let buffered = run(1, 1);
                for (lb, rb) in [(2, 2), (3, 2), (7, 3), (1000, 1000)] {
                    assert_eq!(run(lb, rb), buffered, "{jt:?} left={lb} right={rb}");
                }
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
