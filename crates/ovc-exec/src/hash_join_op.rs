//! Order-preserving in-memory hash join (Section 4.9).
//!
//! "Hash-join preserves the sort order of its probe input if the build
//! input and its hash table fit in memory. … In those cases, the hash
//! table is much like an unsorted version of a database index in index
//! nested-loops join."
//!
//! The probe stream's codes pass through: all outputs for one probe row
//! share the probe's entire sort key, so the first output carries the
//! (filter-theorem-accumulated) probe code and the rest are duplicates —
//! no comparisons, no re-derivation.

use std::collections::{HashMap, VecDeque};

use ovc_core::theorem::OvcAccumulator;
use ovc_core::{Ovc, OvcRow, OvcStream, Row, Value};

use crate::merge_join::{JoinType, NULL_VALUE};

/// An in-memory hash table over the build input, keyed by its first
/// `join_len` columns.
pub struct HashTable {
    map: HashMap<Box<[Value]>, Vec<Row>>,
    join_len: usize,
    width: usize,
}

impl HashTable {
    /// Build the table.  `join_len` is the number of leading join columns.
    pub fn build(rows: Vec<Row>, join_len: usize) -> Self {
        let width = rows.first().map(Row::width).unwrap_or(join_len);
        Self::build_with_width(rows, join_len, width)
    }

    /// Build the table with an explicit row width (needed to pad left
    /// outer joins against an empty build input).
    pub fn build_with_width(rows: Vec<Row>, join_len: usize, width: usize) -> Self {
        assert!(join_len <= width);
        let mut map: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
        for row in rows {
            assert_eq!(row.width(), width);
            let key = row.cols()[..join_len].to_vec().into_boxed_slice();
            map.entry(key).or_default().push(row);
        }
        HashTable {
            map,
            join_len,
            width,
        }
    }

    /// Rows matching the probe key.
    fn probe(&self, key: &[Value]) -> Option<&Vec<Row>> {
        self.map.get(key)
    }
}

/// Order-preserving hash join: sorted coded probe input, in-memory build
/// table.  Output rows are `probe columns ++ build columns past the join
/// key`; output order and code arity are the probe's.
pub struct HashJoinOp<S: OvcStream> {
    probe: S,
    table: HashTable,
    join_type: JoinType,
    join_len: usize,
    probe_key_len: usize,
    acc: OvcAccumulator,
    queue: VecDeque<OvcRow>,
}

impl<S: OvcStream> HashJoinOp<S> {
    /// Build the operator; the probe's first `table.join_len` columns must
    /// lie within its sort key for the output codes to stay exact.
    pub fn new(probe: S, table: HashTable, join_type: JoinType) -> Self {
        assert!(
            matches!(
                join_type,
                JoinType::Inner | JoinType::LeftOuter | JoinType::LeftSemi | JoinType::LeftAnti
            ),
            "order preservation holds for probe-side (left) join types"
        );
        let probe_key_len = probe.key_len();
        let join_len = table.join_len;
        assert!(join_len <= probe_key_len);
        HashJoinOp {
            probe,
            table,
            join_type,
            join_len,
            probe_key_len,
            acc: OvcAccumulator::new(),
            queue: VecDeque::new(),
        }
    }

    fn combine(&self, probe: &Row, build: &Row) -> Row {
        let mut cols = Vec::with_capacity(probe.width() + self.table.width - self.join_len);
        cols.extend_from_slice(probe.cols());
        cols.extend_from_slice(&build.cols()[self.join_len..]);
        Row::new(cols)
    }

    fn pad(&self, probe: &Row) -> Row {
        let mut cols = Vec::with_capacity(probe.width() + self.table.width - self.join_len);
        cols.extend_from_slice(probe.cols());
        cols.extend(std::iter::repeat_n(
            NULL_VALUE,
            self.table.width - self.join_len,
        ));
        Row::new(cols)
    }
}

impl<S: OvcStream> Iterator for HashJoinOp<S> {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        loop {
            if let Some(r) = self.queue.pop_front() {
                return Some(r);
            }
            let OvcRow { row, code } = self.probe.next()?;
            let matches = self.table.probe(&row.cols()[..self.join_len]);
            match self.join_type {
                JoinType::LeftSemi => match matches {
                    Some(_) => return Some(OvcRow::new(row, self.acc.emit(code))),
                    None => self.acc.absorb(code),
                },
                JoinType::LeftAnti => match matches {
                    None => return Some(OvcRow::new(row, self.acc.emit(code))),
                    Some(_) => self.acc.absorb(code),
                },
                JoinType::Inner | JoinType::LeftOuter => match matches {
                    Some(builds) => {
                        for (i, b) in builds.iter().enumerate() {
                            let out_code = if i == 0 {
                                self.acc.emit(code)
                            } else {
                                Ovc::duplicate()
                            };
                            self.queue
                                .push_back(OvcRow::new(self.combine(&row, b), out_code));
                        }
                    }
                    None if self.join_type == JoinType::LeftOuter => {
                        let out_code = self.acc.emit(code);
                        self.queue.push_back(OvcRow::new(self.pad(&row), out_code));
                    }
                    None => self.acc.absorb(code),
                },
                _ => unreachable!("rejected in constructor"),
            }
        }
    }
}

impl<S: OvcStream> OvcStream for HashJoinOp<S> {
    fn key_len(&self) -> usize {
        self.probe_key_len
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

    fn probe_stream(rows: Vec<Vec<u64>>, key_len: usize) -> VecStream {
        VecStream::from_unsorted_rows(rows.into_iter().map(Row::new).collect(), key_len)
    }

    #[test]
    fn inner_join_preserves_probe_order_and_codes() {
        let build = HashTable::build(
            vec![
                Row::new(vec![1, 10]),
                Row::new(vec![1, 20]),
                Row::new(vec![3, 30]),
            ],
            1,
        );
        let probe = probe_stream(vec![vec![3, 9], vec![1, 7], vec![2, 8]], 2);
        let join = HashJoinOp::new(probe, build, JoinType::Inner);
        assert_eq!(join.key_len(), 2);
        let pairs = collect_pairs(join);
        assert_codes_exact(&pairs, 2);
        let got: Vec<Vec<u64>> = pairs.iter().map(|(r, _)| r.cols().to_vec()).collect();
        assert_eq!(got, vec![vec![1, 7, 10], vec![1, 7, 20], vec![3, 9, 30]]);
    }

    #[test]
    fn no_comparisons_at_all() {
        // HashJoinOp holds no Stats handle because it has nothing to
        // count: probes hash their key and the output codes come from
        // the filter-theorem accumulator.  (A local Stats::default()
        // asserted here used to pass vacuously — it was attached to
        // nothing.)  The checkable form of the claim: the output codes
        // are exact even though no comparison source exists anywhere in
        // the operator.
        let build = HashTable::build(vec![Row::new(vec![1, 10])], 1);
        let probe = probe_stream(vec![vec![1, 1], vec![2, 2]], 2);
        let pairs = collect_pairs(HashJoinOp::new(probe, build, JoinType::Inner));
        assert_codes_exact(&pairs, 2);
    }

    #[test]
    fn all_types_match_reference() {
        let mut rng = StdRng::seed_from_u64(50);
        let build_rows: Vec<Vec<u64>> = (0..40)
            .map(|_| vec![rng.gen_range(0..8u64), rng.gen()])
            .collect();
        let probe_rows: Vec<Vec<u64>> = (0..60)
            .map(|_| vec![rng.gen_range(0..8u64), rng.gen_range(0..4u64)])
            .collect();
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::LeftSemi,
            JoinType::LeftAnti,
        ] {
            let build =
                HashTable::build(build_rows.iter().map(|r| Row::new(r.clone())).collect(), 1);
            let probe = probe_stream(probe_rows.clone(), 2);
            let join = HashJoinOp::new(probe, build, jt);
            let arity = join.key_len();
            let pairs = collect_pairs(join);
            assert_codes_exact(&pairs, arity);
            // Spot-check membership semantics.
            let build_keys: std::collections::HashSet<u64> =
                build_rows.iter().map(|r| r[0]).collect();
            for (row, _) in &pairs {
                let has = build_keys.contains(&row.cols()[0]);
                match jt {
                    JoinType::LeftSemi | JoinType::Inner => assert!(has),
                    JoinType::LeftAnti => assert!(!has),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn empty_build_table() {
        let build = HashTable::build_with_width(vec![], 1, 2);
        let probe = probe_stream(vec![vec![1, 1]], 2);
        let pairs = collect_pairs(HashJoinOp::new(probe, build, JoinType::LeftOuter));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.cols()[2], NULL_VALUE);
    }
}
