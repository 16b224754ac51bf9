//! Nested-loops join and lookup join (Section 4.8).
//!
//! "If each result from the inner input is also sorted (on any of its
//! columns) and includes offset-value codes, the output rows of inner
//! join and left outer join benefit from offset-value codes of matching
//! inner rows, with the offset incremented by the size of the outer sort
//! key."  For duplicate outer keys with multiple matches, "the roles of
//! outer and inner loops are reversed within each many-to-many match" so
//! that output codes reach their maximal offsets.
//!
//! The inner side is abstracted as an [`InnerSource`]: a b-tree index
//! (index nested-loops / lookup join) or a predicate over a stored sorted
//! table (plain nested iteration, join predicate not necessarily
//! equality — "there is no requirement that the join predicate is an
//! equality predicate").
//!
//! Following the paper, the supported types are left semi, left anti,
//! inner, and left outer join ("like most implementations of lookup
//! join … we ignore here right semi join, …").

use std::collections::VecDeque;
use std::sync::Arc;

use ovc_core::theorem::OvcAccumulator;
use ovc_core::{Ovc, OvcRow, OvcStream, Row, Stats};
use ovc_storage::BTree;

use crate::merge_join::{JoinType, NULL_VALUE};

/// A source of sorted, coded inner results for each outer row.
pub trait InnerSource {
    /// Sort-key arity of the results.
    fn inner_key_len(&self) -> usize;
    /// Column count of inner rows (for outer-join padding).
    fn inner_width(&self) -> usize;
    /// Matching inner rows for this outer row, sorted, with exact codes
    /// (first row coded relative to "−∞").
    fn lookup(&self, outer: &Row) -> Vec<OvcRow>;
}

/// Index nested-loops join source: probe a [`BTree`] with the first
/// `probe_len` columns of the outer row.
pub struct BTreeInner<'a> {
    index: &'a BTree,
    probe_len: usize,
    width: usize,
    stats: Arc<Stats>,
}

impl<'a> BTreeInner<'a> {
    /// Probe `index` with the outer row's first `probe_len` columns.
    pub fn new(index: &'a BTree, probe_len: usize, width: usize, stats: Arc<Stats>) -> Self {
        assert!(probe_len <= index.key_len());
        BTreeInner {
            index,
            probe_len,
            width,
            stats,
        }
    }
}

impl InnerSource for BTreeInner<'_> {
    fn inner_key_len(&self) -> usize {
        self.index.key_len()
    }
    fn inner_width(&self) -> usize {
        self.width
    }
    fn lookup(&self, outer: &Row) -> Vec<OvcRow> {
        self.index
            .lookup(&outer.cols()[..self.probe_len], &self.stats)
    }
}

/// Plain nested-loops source: a stored sorted coded table filtered by an
/// arbitrary two-table predicate.  Result codes follow the filter theorem
/// (Section 4.8: the theorem does not care whether rows fail "a
/// single-table predicate in a filter \[or\] a two-table predicate").
pub struct PredicateInner<P> {
    table: Vec<OvcRow>,
    key_len: usize,
    width: usize,
    predicate: P,
}

impl<P: Fn(&Row, &Row) -> bool> PredicateInner<P> {
    /// Wrap a sorted coded table and a predicate `(outer, inner) -> bool`.
    pub fn new(table: Vec<OvcRow>, key_len: usize, predicate: P) -> Self {
        let width = table.first().map(|r| r.row.width()).unwrap_or(key_len);
        PredicateInner {
            table,
            key_len,
            width,
            predicate,
        }
    }
}

impl<P: Fn(&Row, &Row) -> bool> InnerSource for PredicateInner<P> {
    fn inner_key_len(&self) -> usize {
        self.key_len
    }
    fn inner_width(&self) -> usize {
        self.width
    }
    fn lookup(&self, outer: &Row) -> Vec<OvcRow> {
        // One filter-theorem accumulator per nested iteration.
        let mut acc = OvcAccumulator::new();
        let mut out = Vec::new();
        for OvcRow { row, code } in &self.table {
            if (self.predicate)(outer, row) {
                out.push(OvcRow::new(row.clone(), acc.emit(*code)));
            } else {
                acc.absorb(*code);
            }
        }
        out
    }
}

/// Order-preserving nested-loops / lookup join.
///
/// Output of inner and left outer joins is sorted on
/// `outer key ++ inner key` with codes of that combined arity; output rows
/// are laid out as `[outer key][inner key][outer payload][inner payload]`.
/// Semi and anti joins emit unmodified outer rows with codes at the outer
/// arity.
pub struct LookupJoin<S: OvcStream, I: InnerSource> {
    outer: S,
    inner: I,
    join_type: JoinType,
    outer_key_len: usize,
    out_arity: usize,
    /// Accumulator over rebased outer codes (inner/left-outer output).
    acc: OvcAccumulator,
    /// Accumulator over original outer codes (semi/anti output).
    outer_acc: OvcAccumulator,
    /// Lookahead for duplicate-group collection.
    carry: Option<OvcRow>,
    queue: VecDeque<OvcRow>,
}

impl<S: OvcStream, I: InnerSource> LookupJoin<S, I> {
    /// Build the join.  Panics on unsupported (right-flavoured) types.
    pub fn new(outer: S, inner: I, join_type: JoinType) -> Self {
        assert!(
            matches!(
                join_type,
                JoinType::Inner | JoinType::LeftOuter | JoinType::LeftSemi | JoinType::LeftAnti
            ),
            "lookup join supports left-flavoured types only (Section 4.8)"
        );
        let outer_key_len = outer.key_len();
        let out_arity = outer_key_len + inner.inner_key_len();
        LookupJoin {
            outer,
            inner,
            join_type,
            outer_key_len,
            out_arity,
            acc: OvcAccumulator::new(),
            outer_acc: OvcAccumulator::new(),
            carry: None,
            queue: VecDeque::new(),
        }
    }

    /// Collect the next maximal group of outer rows with equal full keys
    /// (duplicate codes — a free test).  Returns the group's boundary code.
    fn next_group(&mut self) -> Option<(Ovc, Vec<OvcRow>)> {
        let first = match self.carry.take() {
            Some(r) => r,
            None => self.outer.next()?,
        };
        let boundary = first.code;
        let mut group = vec![first];
        for r in self.outer.by_ref() {
            if r.code.is_duplicate() {
                group.push(r);
            } else {
                self.carry = Some(r);
                break;
            }
        }
        Some((boundary, group))
    }

    /// Combined output row: `[outer key][inner key][outer payload][inner payload]`.
    fn combine(&self, outer: &Row, inner: &Row) -> Row {
        let ikl = self.inner.inner_key_len();
        let mut cols = Vec::with_capacity(outer.width() + inner.width());
        cols.extend_from_slice(outer.key(self.outer_key_len));
        cols.extend_from_slice(inner.key(ikl));
        cols.extend_from_slice(outer.payload(self.outer_key_len));
        cols.extend_from_slice(inner.payload(ikl));
        Row::new(cols)
    }

    /// Pad for a left outer join non-match: NULL inner columns.
    fn pad(&self, outer: &Row) -> Row {
        let ikl = self.inner.inner_key_len();
        let mut cols = Vec::with_capacity(outer.width() + self.inner.inner_width());
        cols.extend_from_slice(outer.key(self.outer_key_len));
        cols.extend(std::iter::repeat_n(NULL_VALUE, ikl));
        cols.extend_from_slice(outer.payload(self.outer_key_len));
        cols.extend(std::iter::repeat_n(
            NULL_VALUE,
            self.inner.inner_width() - ikl,
        ));
        Row::new(cols)
    }

    /// Re-express an outer boundary code (< outer arity) at output arity.
    fn rebase(&self, code: Ovc) -> Ovc {
        debug_assert!(code.is_valid());
        if code.is_duplicate() {
            // Only possible for the degenerate 0-column outer key.
            Ovc::duplicate()
        } else {
            Ovc::new(
                code.offset(self.outer_key_len),
                code.value(),
                self.out_arity,
            )
        }
    }

    /// Shift an inner-result code past the outer key (the paper's "offset
    /// incremented by the size of the outer sort key").
    fn shift_inner(&self, code: Ovc) -> Ovc {
        let ikl = self.inner.inner_key_len();
        if code.is_duplicate() {
            Ovc::duplicate()
        } else {
            Ovc::new(
                self.outer_key_len + code.offset(ikl),
                code.value(),
                self.out_arity,
            )
        }
    }

    fn process_group(&mut self, boundary: Ovc, group: Vec<OvcRow>) {
        let matches = self.inner.lookup(&group[0].row);
        match self.join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => {
                let emit = (self.join_type == JoinType::LeftSemi) != matches.is_empty();
                if emit {
                    for (i, r) in group.into_iter().enumerate() {
                        let code = if i == 0 {
                            self.outer_acc.emit(r.code)
                        } else {
                            r.code
                        };
                        self.queue.push_back(OvcRow::new(r.row, code));
                    }
                } else {
                    for r in &group {
                        self.outer_acc.absorb(r.code);
                    }
                }
            }
            JoinType::Inner | JoinType::LeftOuter => {
                if matches.is_empty() {
                    if self.join_type == JoinType::LeftOuter {
                        for (i, r) in group.iter().enumerate() {
                            let code = if i == 0 {
                                self.acc.emit(self.rebase(boundary))
                            } else {
                                Ovc::duplicate()
                            };
                            self.queue.push_back(OvcRow::new(self.pad(&r.row), code));
                        }
                    } else {
                        self.acc.absorb(self.rebase(boundary));
                    }
                } else {
                    // Inner-major emission so that output codes reach their
                    // maximal offsets for duplicate outer keys (Section 4.8).
                    for (mi, m) in matches.iter().enumerate() {
                        for (oi, o) in group.iter().enumerate() {
                            let code = if mi == 0 && oi == 0 {
                                self.acc.emit(self.rebase(boundary))
                            } else if oi == 0 {
                                self.shift_inner(m.code)
                            } else {
                                Ovc::duplicate()
                            };
                            self.queue
                                .push_back(OvcRow::new(self.combine(&o.row, &m.row), code));
                        }
                    }
                }
            }
            _ => unreachable!("rejected in constructor"),
        }
    }
}

impl<S: OvcStream, I: InnerSource> Iterator for LookupJoin<S, I> {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        loop {
            if let Some(r) = self.queue.pop_front() {
                return Some(r);
            }
            let (boundary, group) = self.next_group()?;
            self.process_group(boundary, group);
        }
    }
}

impl<S: OvcStream, I: InnerSource> OvcStream for LookupJoin<S, I> {
    fn key_len(&self) -> usize {
        match self.join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => self.outer_key_len,
            _ => self.out_arity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::stream::collect_pairs;
    use ovc_core::VecStream;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_index(rows: Vec<Vec<u64>>, key_len: usize) -> BTree {
        let mut rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        rows.sort();
        BTree::bulk_load(rows, key_len, 4, 4)
    }

    #[test]
    fn index_lookup_inner_join() {
        // Outer: (k, payload); inner indexed on (k, v).
        let outer_rows = vec![vec![1u64, 100], vec![2, 200], vec![3, 300]];
        let index = build_index(vec![vec![1, 11], vec![1, 12], vec![3, 31]], 2);
        let stats = Stats::new_shared();
        let outer =
            VecStream::from_unsorted_rows(outer_rows.into_iter().map(Row::new).collect(), 1);
        let inner = BTreeInner::new(&index, 1, 2, Arc::clone(&stats));
        let join = LookupJoin::new(outer, inner, JoinType::Inner);
        assert_eq!(join.key_len(), 3); // outer key (1) + inner key (2)
        let pairs = collect_pairs(join);
        assert_codes_exact(&pairs, 3);
        let got: Vec<Vec<u64>> = pairs.iter().map(|(r, _)| r.cols().to_vec()).collect();
        // Layout: [outer key][inner key][outer payload][inner payload].
        assert_eq!(
            got,
            vec![
                vec![1, 1, 11, 100],
                vec![1, 1, 12, 100],
                vec![3, 3, 31, 300],
            ]
        );
    }

    #[test]
    fn duplicate_outer_keys_reverse_loops() {
        // Two identical outer rows, two matches: emission must be
        // inner-major and codes exact at the combined arity.
        let outer =
            VecStream::from_unsorted_rows(vec![Row::new(vec![5, 1]), Row::new(vec![5, 1])], 2);
        let index = build_index(vec![vec![5, 10], vec![5, 20]], 2);
        let stats = Stats::new_shared();
        let inner = BTreeInner::new(&index, 1, 2, stats);
        let join = LookupJoin::new(outer, inner, JoinType::Inner);
        let pairs = collect_pairs(join);
        assert_eq!(pairs.len(), 4);
        assert_codes_exact(&pairs, 4);
        // Inner-major: both outers with match 10 first, then match 20.
        let inner_vals: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[3]).collect();
        assert_eq!(inner_vals, vec![10, 10, 20, 20]);
    }

    #[test]
    fn left_outer_pads_non_matches() {
        let outer = VecStream::from_unsorted_rows(vec![Row::new(vec![1]), Row::new(vec![9])], 1);
        let index = build_index(vec![vec![1, 10]], 2);
        let stats = Stats::new_shared();
        let inner = BTreeInner::new(&index, 1, 2, stats);
        let join = LookupJoin::new(outer, inner, JoinType::LeftOuter);
        let pairs = collect_pairs(join);
        assert_codes_exact(&pairs, 3);
        assert_eq!(pairs[1].0.cols(), &[9, NULL_VALUE, NULL_VALUE]);
    }

    #[test]
    fn semi_and_anti_preserve_outer_codes() {
        let mut rng = StdRng::seed_from_u64(40);
        let outer_rows: Vec<Row> = (0..200)
            .map(|_| Row::new(vec![rng.gen_range(0..10u64), rng.gen_range(0..5u64)]))
            .collect();
        let index = build_index((0..5).map(|k| vec![k * 2, k]).collect(), 2);
        for jt in [JoinType::LeftSemi, JoinType::LeftAnti] {
            let stats = Stats::new_shared();
            let outer = VecStream::from_unsorted_rows(outer_rows.clone(), 2);
            let inner = BTreeInner::new(&index, 1, 2, Arc::clone(&stats));
            let join = LookupJoin::new(outer, inner, jt);
            assert_eq!(join.key_len(), 2);
            let pairs = collect_pairs(join);
            assert_codes_exact(&pairs, 2);
            for (row, _) in &pairs {
                let matched = row.cols()[0] % 2 == 0 && row.cols()[0] < 10;
                assert_eq!(matched, jt == JoinType::LeftSemi);
            }
        }
    }

    #[test]
    fn predicate_inner_supports_non_equality() {
        // Band join: inner rows whose key is within 1 of the outer key.
        let table: Vec<OvcRow> = {
            let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![i, i * 100])).collect();
            let codes = ovc_core::derive::derive_codes(&rows, 1);
            rows.into_iter()
                .zip(codes)
                .map(|(r, c)| OvcRow::new(r, c))
                .collect()
        };
        let inner = PredicateInner::new(table, 1, |o: &Row, i: &Row| {
            o.cols()[0].abs_diff(i.cols()[0]) <= 1
        });
        let outer = VecStream::from_unsorted_rows(vec![Row::new(vec![5])], 1);
        let join = LookupJoin::new(outer, inner, JoinType::Inner);
        let pairs = collect_pairs(join);
        assert_codes_exact(&pairs, 2);
        let matched: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[1]).collect();
        assert_eq!(matched, vec![4, 5, 6]);
    }

    #[test]
    fn empty_outer() {
        let index = build_index(vec![vec![1, 1]], 2);
        let stats = Stats::new_shared();
        let inner = BTreeInner::new(&index, 1, 2, stats);
        let outer = VecStream::from_sorted_rows(vec![], 1);
        assert_eq!(LookupJoin::new(outer, inner, JoinType::Inner).count(), 0);
    }
}
