//! Sort-based set operations (Section 4.7).
//!
//! "Among set operations, intersection proceeds mostly like an inner join,
//! union like a full outer join, and difference like an anti semi join."
//! The multiset ("all") variants follow SQL semantics; the paper notes
//! they "benefit from grouping on the input side (collapsing duplicate
//! rows to a single row with a counter)", which a
//! [`crate::group::GroupAggregate`] over the whole row with a `Count`
//! aggregate provides.
//!
//! All six operations run on the same two-leaf merge as
//! [`crate::merge_join::MergeJoin`].  The key is the whole row, so every
//! row of a group is the same row, and a group is its counts `(nl, nr)`
//! and one row, not two buffers: per group the operation only decides
//! *how many* copies to emit.  The rows are copied straight from the
//! input batches as they are taken — every row under `UNION ALL`, a
//! group's first row under `UNION`, and under `INTERSECT` and `EXCEPT` as
//! soon as the group's first row shows whether the other side takes
//! part.  Only `EXCEPT ALL` over a group that both sides hold keeps one
//! copy of the row until the group's counts are known.  Codes come from
//! the filter theorem over the merged chain, with copies past the first
//! being duplicates, and the merge's comparison count is published into
//! the query's `Stats` before each `next_batch` returns.

use std::sync::Arc;

use ovc_core::theorem::OvcAccumulator;
use ovc_core::{BatchStream, ExecError, FlatRows, Ovc, SortSpec, Stats};

use crate::merge_join::{GroupedMerge, Next, LEFT, RIGHT};

/// SQL set operations over sorted coded inputs with identical schemas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION` (distinct): one copy of every key present in either input.
    Union,
    /// `UNION ALL`: all copies from both inputs.
    UnionAll,
    /// `INTERSECT` (distinct): one copy of keys present in both inputs.
    Intersect,
    /// `INTERSECT ALL`: `min(count_left, count_right)` copies.
    IntersectAll,
    /// `EXCEPT` (distinct): one copy of keys present only in the left.
    Except,
    /// `EXCEPT ALL`: `max(count_left - count_right, 0)` copies.
    ExceptAll,
}

impl SetOp {
    /// Copies to emit for a group with `nl` left and `nr` right rows.
    fn copies(self, nl: usize, nr: usize) -> usize {
        match self {
            SetOp::Union => 1,
            SetOp::UnionAll => nl + nr,
            SetOp::Intersect => usize::from(nl > 0 && nr > 0),
            SetOp::IntersectAll => nl.min(nr),
            SetOp::Except => usize::from(nl > 0 && nr == 0),
            SetOp::ExceptAll => nl.saturating_sub(nr),
        }
    }

    /// Whether a row taken from `side` is written as it is taken, given
    /// the group's rows taken before it and whether the right input takes
    /// part in the group.  A group's left rows precede its right rows, so
    /// `nl` is final when the right rows arrive.  What this writes never
    /// exceeds [`SetOp::copies`], and falls short of it only under
    /// `EXCEPT ALL` over a group that both sides hold.
    fn writes_on_take(self, side: usize, [nl, nr]: [usize; 2], partner: bool) -> bool {
        let first = nl + nr == 0;
        match self {
            SetOp::UnionAll => true,
            SetOp::Union => first,
            SetOp::Intersect => first && partner,
            SetOp::Except => first && side == LEFT && !partner,
            SetOp::IntersectAll => side == RIGHT && nr < nl,
            SetOp::ExceptAll => side == LEFT && !partner,
        }
    }
}

/// Set-operation operator.  Both inputs must be sorted on their full rows
/// (key_len == row width), as SQL set semantics compare entire rows, and
/// under one ordering contract, which is also the output's.
///
/// Output rows go straight into batches of at most `batch_size` rows; a
/// multiset group with more copies than that carries over.
pub struct SetOperation<L, R> {
    groups: GroupedMerge<L, R>,
    op: SetOp,
    batch_size: usize,
    width: usize,
    acc: OvcAccumulator,
    /// The current group: its merged-chain code, the rows taken from each
    /// side so far, the copies written, and whether the right input takes
    /// part.
    code: Ovc,
    counts: [usize; 2],
    written: usize,
    partner: bool,
    /// The current group has not been closed yet.
    open: bool,
    /// `EXCEPT ALL` over a group both sides hold: one copy of the group's
    /// row, and the copies of it still to be written at the group's end.
    row: FlatRows,
    pending: usize,
}

impl<L: BatchStream, R: BatchStream> SetOperation<L, R> {
    /// Build the operator over two streams with equal key length,
    /// emitting batches of at most `batch_size` rows.
    ///
    /// The documented full-row contract (`key_len == row width` on both
    /// inputs) is asserted on each input's first batch, pulled here, and
    /// no later batch can differ (output batches take one width): a
    /// mismatched input fails loudly instead of silently emitting
    /// truncated or over-wide rows under `UnionAll`.
    pub fn new(left: L, right: R, op: SetOp, batch_size: usize, stats: Arc<Stats>) -> Self {
        let key_len = left.key_len();
        assert_eq!(
            key_len,
            right.key_len(),
            "set operands must agree on the key"
        );
        assert!(batch_size > 0, "batch size must be positive");
        let groups = GroupedMerge::new(left, right, (key_len, key_len), key_len, stats);
        for (side, rows) in ["left", "right"].iter().zip(&groups.batches) {
            assert_eq!(
                rows.width(),
                key_len,
                "set operation {side} input must be sorted on its full rows"
            );
        }
        SetOperation {
            groups,
            op,
            batch_size,
            width: key_len,
            acc: OvcAccumulator::new(),
            code: Ovc::duplicate(),
            counts: [0; 2],
            written: 0,
            partner: false,
            open: false,
            row: FlatRows::new(key_len),
            pending: 0,
        }
    }

    /// `next` is a group's first row.
    fn start_group(&mut self, next: Next) {
        self.open = true;
        self.code = next.code;
        self.counts = [0; 2];
        self.written = 0;
        self.partner = next.side == LEFT && self.groups.right_joins();
        if self.op == SetOp::ExceptAll && self.partner {
            let (batch, pos) = self.groups.head(LEFT);
            self.row.truncate(0);
            self.row.push_from(batch, pos, Ovc::duplicate());
        }
    }

    /// The group is complete: its copies not written yet become pending,
    /// and a group that emits nothing absorbs its code.  Returns whether
    /// any copy is pending.
    fn end_group(&mut self) -> bool {
        if !std::mem::replace(&mut self.open, false) {
            return false;
        }
        let copies = self.op.copies(self.counts[LEFT], self.counts[RIGHT]);
        debug_assert!(
            self.written <= copies,
            "{:?} wrote too many copies",
            self.op
        );
        if copies == 0 {
            self.acc.absorb(self.code);
        }
        self.pending = copies - self.written;
        self.pending > 0
    }

    /// Code of the group's next copy: the first carries the accumulated
    /// merged-chain code, the rest are duplicates.
    fn next_code(&mut self) -> Ovc {
        self.written += 1;
        if self.written == 1 {
            self.acc.emit(self.code)
        } else {
            Ovc::duplicate()
        }
    }
}

impl<L: BatchStream, R: BatchStream> BatchStream for SetOperation<L, R> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let mut out = FlatRows::with_capacity(self.width, self.batch_size);
        while out.len() < self.batch_size {
            if self.pending > 0 {
                self.pending -= 1;
                let code = self.next_code();
                out.push_from(&self.row, 0, code);
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
            if self.op.writes_on_take(next.side, self.counts, self.partner) {
                let code = self.next_code();
                let (batch, pos) = self.groups.head(next.side);
                out.push_from(batch, pos, code);
            }
            self.counts[next.side] += 1;
            self.groups.take(next.side);
        }
        self.groups.finish(out)
    }

    /// The ordering contract both inputs share (the merge asserts they
    /// agree), whatever its directions.
    fn sort_spec(&self) -> SortSpec {
        self.groups.join_spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ovc_core::batch::{assert_batches_exact_spec, collect_batch_pairs};
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Direction, FlatBatches, StatsSnapshot, VecBatchStream};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    const ALL_OPS: [SetOp; 6] = [
        SetOp::Union,
        SetOp::UnionAll,
        SetOp::Intersect,
        SetOp::IntersectAll,
        SetOp::Except,
        SetOp::ExceptAll,
    ];

    /// Sort `rows` on the full row and hand them over coded, in batches
    /// of 5.
    fn stream(mut rows: Vec<Vec<u64>>) -> FlatBatches {
        let width = rows.first().map(|r| r.len()).unwrap_or(1);
        rows.sort();
        testkit::cut(&rows, &SortSpec::asc(width), 5)
    }

    fn reference(l: &[Vec<u64>], r: &[Vec<u64>], op: SetOp) -> Vec<Vec<u64>> {
        let mut counts: BTreeMap<Vec<u64>, (usize, usize)> = BTreeMap::new();
        for x in l {
            counts.entry(x.clone()).or_default().0 += 1;
        }
        for x in r {
            counts.entry(x.clone()).or_default().1 += 1;
        }
        let mut out = Vec::new();
        for (k, (nl, nr)) in counts {
            for _ in 0..op.copies(nl, nr) {
                out.push(k.clone());
            }
        }
        out
    }

    #[test]
    fn all_ops_match_reference_randomized() {
        let mut rng = StdRng::seed_from_u64(17);
        for op in ALL_OPS {
            for _ in 0..5 {
                let l: Vec<Vec<u64>> = (0..rng.gen_range(0..80))
                    .map(|_| vec![rng.gen_range(0..6u64), rng.gen_range(0..3u64)])
                    .collect();
                let r: Vec<Vec<u64>> = (0..rng.gen_range(0..80))
                    .map(|_| vec![rng.gen_range(0..6u64), rng.gen_range(0..3u64)])
                    .collect();
                let stats = Stats::new_shared();
                let setop = SetOperation::new(stream(l.clone()), stream(r.clone()), op, 8, stats);
                let pairs = collect_batch_pairs(setop);
                assert_codes_exact(&pairs, 2);
                let got: Vec<Vec<u64>> = pairs.iter().map(|(row, _)| row.cols().to_vec()).collect();
                assert_eq!(got, reference(&l, &r, op), "{op:?}");
            }
        }
    }

    #[test]
    fn intersect_distinct_example() {
        // "select B from T1 intersect select B from T2" (Figure 5).
        let t1 = vec![vec![1], vec![2], vec![2], vec![5]];
        let t2 = vec![vec![2], vec![5], vec![5], vec![7]];
        let stats = Stats::new_shared();
        let setop = SetOperation::new(stream(t1), stream(t2), SetOp::Intersect, 8, stats);
        let got: Vec<u64> = collect_batch_pairs(setop)
            .iter()
            .map(|(r, _)| r.cols()[0])
            .collect();
        assert_eq!(got, vec![2, 5]);
    }

    #[test]
    fn empty_inputs() {
        for op in [SetOp::Union, SetOp::Intersect, SetOp::Except] {
            let stats = Stats::new_shared();
            let mut setop = SetOperation::new(stream(vec![]), stream(vec![]), op, 8, stats);
            assert!(setop.next_batch().unwrap().is_none());
        }
    }

    /// Regression: a 2-column stream keyed on 1 column used to flow
    /// through `UnionAll` silently, emitting garbage (key-equal rows
    /// collapsed onto one side's payload).  The full-row contract is
    /// asserted on both inputs.
    #[test]
    #[should_panic(expected = "sorted on its full rows")]
    fn rejects_inputs_not_keyed_on_the_full_row() {
        let wide = testkit::cut(&[vec![1, 10], vec![1, 11]], &SortSpec::asc(1), 8);
        let setop = SetOperation::new(
            wide,
            stream(vec![vec![1], vec![3]]),
            SetOp::UnionAll,
            8,
            Stats::new_shared(),
        );
        let _ = collect_batch_pairs(setop);
    }

    /// ... and a key-equal group cannot mix widths either: the offending
    /// wide batch hides behind a correctly-narrow one holding the same
    /// key, and is refused by the group's flat buffer.
    #[test]
    #[should_panic(expected = "uniform width")]
    fn rejects_a_batch_of_another_width_mid_group() {
        let spec = SortSpec::asc(1);
        let mut narrow = FlatRows::new(1);
        narrow.push(&[1], spec.initial_code(&[1]));
        let mut wide = FlatRows::new(2);
        wide.push(&[1, 10], Ovc::duplicate());
        let mixed = VecBatchStream::new(vec![narrow, wide], spec);
        let setop = SetOperation::new(
            mixed,
            stream(vec![vec![1], vec![3]]),
            SetOp::UnionAll,
            8,
            Stats::new_shared(),
        );
        let _ = collect_batch_pairs(setop);
    }

    #[test]
    fn union_with_one_empty_side() {
        let stats = Stats::new_shared();
        let setop = SetOperation::new(
            stream(vec![vec![3], vec![1]]),
            stream(vec![]),
            SetOp::Union,
            8,
            stats,
        );
        let pairs = collect_batch_pairs(setop);
        assert_codes_exact(&pairs, 1);
        let got: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[0]).collect();
        assert_eq!(got, vec![1, 3]);
    }

    /// The old ≡ new proof, carried across the delete.  At commit 4f110c3
    /// the row-at-a-time `SetOperation` over `VecStream`s of these seeded
    /// inputs produced exactly these row counts, row/code digests and
    /// comparison counts (columns, codes); the batch kernel must too, at
    /// every input and output batch size.
    #[test]
    fn row_kernel_constants_hold() {
        // (label, seed, left rows, right rows, column domains, skewed)
        type Scenario = (&'static str, u64, usize, usize, [u64; 2], bool);
        const SCENARIOS: [Scenario; 4] = [
            ("dup_heavy", 11, 80, 70, [3, 3], false),
            ("skewed", 12, 90, 60, [12, 5], true),
            ("empty_left", 13, 0, 40, [3, 3], false),
            ("empty_right", 14, 40, 0, [3, 3], false),
        ];
        #[rustfmt::skip]
        const EXPECT: [(SetOp, &str, usize, u64, u64, u64); 24] = [
            (SetOp::Union, "dup_heavy", 9, 0x6e18ab8d9e69fb47, 3, 140),
            (SetOp::Union, "skewed", 25, 0x307dc891e58241bf, 9, 144),
            (SetOp::Union, "empty_left", 9, 0x6e18ab8d9e69fb47, 0, 0),
            (SetOp::Union, "empty_right", 9, 0x6e18ab8d9e69fb47, 0, 0),
            (SetOp::UnionAll, "dup_heavy", 150, 0x9922a288d096f716, 3, 140),
            (SetOp::UnionAll, "skewed", 150, 0x9cd0afd7d75798a0, 9, 144),
            (SetOp::UnionAll, "empty_left", 40, 0x46a051ebe5a1a1c6, 0, 0),
            (SetOp::UnionAll, "empty_right", 40, 0xce12f2481350b9b4, 0, 0),
            (SetOp::Intersect, "dup_heavy", 9, 0x6e18ab8d9e69fb47, 3, 140),
            (SetOp::Intersect, "skewed", 13, 0xf2dbc9e557c300c0, 9, 144),
            (SetOp::Intersect, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::Intersect, "empty_right", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::IntersectAll, "dup_heavy", 61, 0xcd5517f256504275, 3, 140),
            (SetOp::IntersectAll, "skewed", 49, 0xda1f275df10338f1, 9, 144),
            (SetOp::IntersectAll, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::IntersectAll, "empty_right", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::Except, "dup_heavy", 0, 0xcbf29ce484222325, 3, 140),
            (SetOp::Except, "skewed", 8, 0x1f82820166a11a1b, 9, 144),
            (SetOp::Except, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::Except, "empty_right", 9, 0x6e18ab8d9e69fb47, 0, 0),
            (SetOp::ExceptAll, "dup_heavy", 19, 0xca62d1787557cacd, 3, 140),
            (SetOp::ExceptAll, "skewed", 41, 0xc9a695bce11efa71, 9, 144),
            (SetOp::ExceptAll, "empty_left", 0, 0xcbf29ce484222325, 0, 0),
            (SetOp::ExceptAll, "empty_right", 40, 0xce12f2481350b9b4, 0, 0),
        ];
        let mut expect = EXPECT.iter();
        for op in ALL_OPS {
            for (label, seed, nl, nr, domains, skew) in SCENARIOS {
                let l = testkit::rows(seed, nl, &domains, skew);
                let r = testkit::rows(seed + 100, nr, &domains, skew);
                let &(e_op, e_label, rows, digest, col_cmps, ovc_cmps) =
                    expect.next().expect("one constant per case");
                assert_eq!((e_op, e_label), (op, label));
                for (in_batch, out_batch) in [(1, 1), (7, 3), (1024, 1024)] {
                    let stats = Stats::new_shared();
                    let spec = SortSpec::asc(2);
                    let setop = SetOperation::new(
                        testkit::cut(&l, &spec, in_batch),
                        testkit::cut(&r, &spec, in_batch),
                        op,
                        out_batch,
                        Arc::clone(&stats),
                    );
                    let out = testkit::drain(setop, out_batch);
                    let case = format!("{op:?}/{label} in={in_batch} out={out_batch}");
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

    /// Seams are invisible: with nine distinct rows of ~9 copies per side
    /// (so at batch sizes 1, 2 and 7 every group crosses >= 3 batches on
    /// both sides), every input batch size gives the same rows, codes
    /// and counters, for every operation.
    #[test]
    fn input_seams_move_neither_rows_nor_codes_nor_stats() {
        let spec = SortSpec::asc(2);
        let l = testkit::rows(61, 80, &[3, 3], false);
        let r = testkit::rows(62, 85, &[3, 3], false);
        for op in ALL_OPS {
            let run = |lb: usize, rb: usize| {
                let stats = Stats::new_shared();
                let setop = SetOperation::new(
                    testkit::cut(&l, &spec, lb),
                    testkit::cut(&r, &spec, rb),
                    op,
                    16,
                    Arc::clone(&stats),
                );
                let out = testkit::drain(setop, 16);
                assert_batches_exact_spec(&out, &spec);
                (testkit::digest(&out), stats.snapshot())
            };
            let whole = run(l.len(), r.len());
            for (lb, rb) in [(1, 1), (2, 2), (7, 7), (2, 7), (1000, 1000)] {
                assert_eq!(run(lb, rb), whole, "{op:?} left={lb} right={rb}");
            }
        }
    }

    /// The merge runs under the inputs' real ordering contract, and the
    /// kernel says so: over descending and mixed-direction inputs it
    /// reports their shared spec — not "ascending" — and the output
    /// audits exact under that label.
    #[test]
    fn descending_and_mixed_inputs_keep_their_label() {
        for spec in [
            SortSpec::desc(2),
            SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]),
        ] {
            let order = |seed| {
                let mut rows = testkit::rows(seed, 60, &[4, 3], false);
                rows.sort_by(|a, b| spec.cmp_keys(a, b));
                rows
            };
            let (l, r) = (order(71), order(72));
            for op in ALL_OPS {
                let setop = SetOperation::new(
                    testkit::cut(&l, &spec, 4),
                    testkit::cut(&r, &spec, 9),
                    op,
                    8,
                    Stats::new_shared(),
                );
                assert_eq!(setop.sort_spec(), spec, "{op:?}");
                let out = testkit::drain(setop, 8);
                assert_batches_exact_spec(&out, &spec);
                let mut got: Vec<Vec<u64>> = out
                    .iter()
                    .flat_map(|b| b.iter())
                    .map(|(row, _)| row.to_vec())
                    .collect();
                got.sort();
                assert_eq!(got, reference(&l, &r, op), "{op:?} under {spec}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "agree on the join-key ordering contract")]
    fn rejects_inputs_ordered_under_different_specs() {
        let rows = testkit::rows(73, 10, &[4, 3], false);
        let mut reversed = rows.clone();
        reversed.reverse();
        let _ = SetOperation::new(
            testkit::cut(&rows, &SortSpec::asc(2), 4),
            testkit::cut(&reversed, &SortSpec::desc(2), 4),
            SetOp::Union,
            8,
            Stats::new_shared(),
        );
    }
}
