//! Grouping and aggregation in sorted streams (Section 4.5) — the
//! operator behind Figure 4.
//!
//! "In a stream with offset-value codes sorted on a 'group by' list,
//! grouping aggregates input rows with offsets equal to or larger than the
//! 'group by' list.  In the aggregation output, no row has an offset equal
//! to or larger than the 'group by' list.  The output rows retain the
//! offset-value codes of the first row in each group of input rows."
//!
//! Group-boundary detection is one integer comparison per row against a
//! precomputed code threshold — the exact mechanism Figure 4 benchmarks
//! against "full comparisons of multiple key columns".  The operator
//! counts those tests in a local variable and publishes the count into
//! the query's `Stats` before each call returns, so counting stays
//! cheaper than the test it counts.
//!
//! Two more of the paper's operators are this one in another plan.
//! Section 3's `count (distinct …) group by …` is duplicate removal
//! ([`crate::dedup`]) under a `GroupAggregate` with `Count`; §4.6's
//! pivot is a `GroupAggregate` with one [`Aggregate::SumWhere`] per
//! output bucket.

use std::sync::Arc;

use ovc_core::theorem::clamp_to_prefix;
use ovc_core::{BatchStream, ExecError, FlatRows, Ovc, SortSpec, Stats, Value};

/// An aggregate function over a group of rows.
///
/// Accumulators are uniformly **wrapping**: `Count`, `Sum` and
/// `SumWhere` wrap on `u64` overflow instead of panicking in debug
/// builds, so an aggregate over adversarial data behaves the same in
/// every build profile.  `Min`/`Max`/`First`/`Last` cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of rows in the group.
    Count,
    /// Sum of the column at the given index.
    Sum(usize),
    /// Minimum of the column at the given index.
    Min(usize),
    /// Maximum of the column at the given index.
    Max(usize),
    /// The column value of the group's first row.
    First(usize),
    /// The column value of the group's last row.
    Last(usize),
    /// Sum of column `col` over the group's rows whose column `when`
    /// equals `equals`, 0 if there are none.  A pivot (§4.6: "pivoting
    /// is like grouping and aggregation") is a group-by with one of
    /// these per output bucket.
    SumWhere {
        /// The summed column.
        col: usize,
        /// The column that selects the rows.
        when: usize,
        /// The value `when` must hold for a row to be summed.
        equals: Value,
    },
}

impl Aggregate {
    /// Initialize the accumulator from the columns of a group's first row.
    pub fn init(&self, row: &[Value]) -> Value {
        match *self {
            Aggregate::Count => 1,
            Aggregate::Sum(c)
            | Aggregate::Min(c)
            | Aggregate::Max(c)
            | Aggregate::First(c)
            | Aggregate::Last(c) => row[c],
            Aggregate::SumWhere { col, when, equals } => {
                if row[when] == equals {
                    row[col]
                } else {
                    0
                }
            }
        }
    }

    /// Fold one more row's columns into the accumulator (wrapping, see
    /// the enum docs).
    pub fn fold(&self, acc: Value, row: &[Value]) -> Value {
        match *self {
            Aggregate::Count => acc.wrapping_add(1),
            Aggregate::Sum(c) => acc.wrapping_add(row[c]),
            Aggregate::Min(c) => acc.min(row[c]),
            Aggregate::Max(c) => acc.max(row[c]),
            Aggregate::First(_) => acc,
            Aggregate::Last(c) => row[c],
            Aggregate::SumWhere { .. } => acc.wrapping_add(self.init(row)),
        }
    }

    /// Combine two partial results of this aggregate computed over
    /// disjoint, order-adjacent slices of one group (`a`'s rows precede
    /// `b`'s in the input order).  This is the decomposition law that
    /// lets a sort fold already-aggregated rows (in-sort aggregation):
    /// `fold` over a whole group equals `merge` over partial folds of its
    /// slices.  Wrapping like `fold`.
    ///
    /// `First` and `Last` trust the stated orientation: the caller passes
    /// the earlier slice as `a`.
    pub fn merge(&self, a: Value, b: Value) -> Value {
        match *self {
            Aggregate::Count | Aggregate::Sum(_) | Aggregate::SumWhere { .. } => a.wrapping_add(b),
            Aggregate::Min(_) => a.min(b),
            Aggregate::Max(_) => a.max(b),
            Aggregate::First(_) => a,
            Aggregate::Last(_) => b,
        }
    }

    /// The highest input column this aggregate reads, `None` for
    /// `Count`: a planner checks it against the input's width.
    pub fn max_col(&self) -> Option<usize> {
        match *self {
            Aggregate::Count => None,
            Aggregate::Sum(c)
            | Aggregate::Min(c)
            | Aggregate::Max(c)
            | Aggregate::First(c)
            | Aggregate::Last(c) => Some(c),
            Aggregate::SumWhere { col, when, .. } => Some(col.max(when)),
        }
    }
}

/// In-stream grouping: aggregates consecutive rows that share the first
/// `group_len` columns.  Output rows are the group key followed by one
/// column per aggregate; output codes have arity `group_len` and are the
/// (clamped) code of each group's first input row.
///
/// The kernel walks the input batches' code slices: one integer test per
/// row decides group membership, whatever the key's sort directions, and
/// a group that straddles a batch seam just keeps accumulating (its first
/// code after the seam is relative to the row before it).  Finished
/// groups go straight into an output batch of at most `batch_size` rows.
pub struct GroupAggregate<B> {
    input: B,
    /// The current input batch and the next row to read in it.
    batch: FlatRows,
    pos: usize,
    in_key_len: usize,
    group_len: usize,
    aggregates: Vec<Aggregate>,
    spec: SortSpec,
    batch_size: usize,
    /// The first input code of the group being accumulated, whose output
    /// row (group key, then one accumulator per aggregate) is `row`.
    pending: Option<Ovc>,
    row: Vec<Value>,
    /// Shared counters: the per-row boundary test is one integer (code)
    /// comparison, accounted here so the zero-column-comparison claim is
    /// measured on a live handle rather than asserted vacuously.  Each
    /// `next_batch` publishes its count once, before it returns.
    stats: Arc<Stats>,
}

impl<B: BatchStream> GroupAggregate<B> {
    /// Build the operator, emitting batches of at most `batch_size` rows.
    /// Panics unless `group_len <= input.key_len()` and `batch_size > 0`.
    pub fn new(
        input: B,
        group_len: usize,
        aggregates: Vec<Aggregate>,
        batch_size: usize,
        stats: Arc<Stats>,
    ) -> Self {
        let in_spec = input.sort_spec();
        assert!(
            group_len <= in_spec.len(),
            "group key must be a sort-key prefix"
        );
        assert!(batch_size > 0, "batch size must be positive");
        GroupAggregate {
            input,
            batch: FlatRows::new(0),
            pos: 0,
            in_key_len: in_spec.len(),
            group_len,
            row: vec![0; group_len + aggregates.len()],
            aggregates,
            spec: in_spec.prefix(group_len),
            batch_size,
            pending: None,
            stats,
        }
    }
}

impl<B: BatchStream> BatchStream for GroupAggregate<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let (g, in_key_len, batch_size) = (self.group_len, self.in_key_len, self.batch_size);
        let mut out: Option<FlatRows> = None;
        // Append a finished group; true once the output batch is full.
        let finish = |out: &mut Option<FlatRows>, row: &[Value], code: Ovc| {
            let out = out.get_or_insert_with(|| FlatRows::with_capacity(row.len(), batch_size));
            out.push(row, clamp_to_prefix(code, in_key_len, g));
            out.len() >= batch_size
        };
        // Rows tested in this call, published before every `Ok` return.
        let mut tested = 0u64;
        loop {
            if self.pos >= self.batch.len() {
                let Some(batch) = self.input.next_batch()? else {
                    // Input exhausted: flush the final group, if any.
                    if let Some(code) = self.pending.take() {
                        finish(&mut out, &self.row, code);
                    }
                    self.stats.count_ovc_cmps(tested);
                    return Ok(out);
                };
                self.batch = batch;
                self.pos = 0;
            }
            let (cols, code) = (self.batch.row(self.pos), self.batch.code(self.pos));
            self.pos += 1;
            // Group membership by code inspection alone: an offset of at
            // least `group_len` means the entire group key is shared with
            // the predecessor.  One integer comparison per row, counted
            // as such.
            tested += 1;
            if self.pending.is_some() && code.is_valid() && code.offset(in_key_len) >= g {
                for (acc, agg) in self.row[g..].iter_mut().zip(&self.aggregates) {
                    *acc = agg.fold(*acc, cols);
                }
                continue;
            }
            // Boundary: emit the finished group, start anew.
            let full = match self.pending.replace(code) {
                Some(done) => finish(&mut out, &self.row, done),
                None => false,
            };
            self.row[..g].copy_from_slice(&cols[..g]);
            for (acc, agg) in self.row[g..].iter_mut().zip(&self.aggregates) {
                *acc = agg.init(cols);
            }
            if full {
                self.stats.count_ovc_cmps(tested);
                return Ok(out);
            }
        }
    }

    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ovc_core::batch::{assert_batches_exact_spec, collect_batch_pairs};
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Direction, FlatBatches, Row, StatsSnapshot};

    /// `rows` (sorted ascending on `key_len` columns), coded, in batches
    /// of 3.
    fn batches(rows: &[Row], key_len: usize) -> FlatBatches {
        ovc_sort::Run::from_sorted_rows(rows.to_vec(), key_len).batches(3)
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn groups_table1_on_two_columns() {
        // "grouping on the first two columns can use offset-value codes
        // similarly to segmentation" — Table 1 has groups (5,7), (5,8),
        // (5,9) of sizes 2, 1, 4.
        let input = batches(&ovc_core::table1::rows(), 4);
        let group = GroupAggregate::new(input, 2, vec![Aggregate::Count], 2, Stats::new_shared());
        let pairs = collect_batch_pairs(group);
        let got: Vec<(Vec<u64>, u64)> = pairs
            .iter()
            .map(|(r, _)| (r.key(2).to_vec(), r.cols()[2]))
            .collect();
        assert_eq!(
            got,
            vec![(vec![5, 7], 2), (vec![5, 8], 1), (vec![5, 9], 4),]
        );
        assert_codes_exact(&pairs, 2);
        // No output offset reaches the group-key arity.
        assert!(pairs.iter().all(|(_, c)| c.offset(2) < 2 || !c.is_valid()));
    }

    #[test]
    fn aggregates_compute_correctly() {
        let rows = vec![
            Row::new(vec![1, 10]),
            Row::new(vec![1, 30]),
            Row::new(vec![1, 20]),
            Row::new(vec![2, 5]),
        ];
        let group = GroupAggregate::new(
            batches(&rows, 1),
            1,
            vec![
                Aggregate::Count,
                Aggregate::Sum(1),
                Aggregate::Min(1),
                Aggregate::Max(1),
                Aggregate::First(1),
                Aggregate::Last(1),
            ],
            8,
            Stats::new_shared(),
        );
        let out: Vec<Row> = collect_batch_pairs(group)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        // Group-1 payloads arrive in the order 10, 30, 20.
        assert_eq!(out[0], Row::new(vec![1, 3, 60, 10, 30, 10, 20]));
        assert_eq!(out[1], Row::new(vec![2, 1, 5, 5, 5, 5, 5]));
    }

    #[test]
    fn random_grouping_matches_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut rows: Vec<Row> = (0..800)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..4u64),
                    rng.gen_range(0..4u64),
                    rng.gen_range(0..100u64),
                ])
            })
            .collect();
        rows.sort();
        let mut expect: BTreeMap<Vec<u64>, (u64, u64)> = BTreeMap::new();
        for r in &rows {
            let e = expect.entry(r.key(2).to_vec()).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.cols()[2];
        }
        let group = GroupAggregate::new(
            batches(&rows, 3),
            2,
            vec![Aggregate::Count, Aggregate::Sum(2)],
            5,
            Stats::new_shared(),
        );
        let pairs = collect_batch_pairs(group);
        assert_codes_exact(&pairs, 2);
        let got: Vec<(Vec<u64>, (u64, u64))> = pairs
            .iter()
            .map(|(r, _)| (r.key(2).to_vec(), (r.cols()[2], r.cols()[3])))
            .collect();
        let expect: Vec<(Vec<u64>, (u64, u64))> = expect.into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn group_by_full_key_is_dedup_with_count() {
        let input = batches(&ovc_core::table1::rows(), 4);
        let group = GroupAggregate::new(input, 4, vec![Aggregate::Count], 4, Stats::new_shared());
        let pairs = collect_batch_pairs(group);
        assert_eq!(pairs.len(), 6);
        let counts: Vec<u64> = pairs.iter().map(|(r, _)| r.cols()[4]).collect();
        assert_eq!(counts, vec![1, 1, 1, 2, 1, 1]);
        assert_codes_exact(&pairs, 4);
    }

    #[test]
    fn group_by_empty_key_aggregates_everything() {
        let input = batches(&ovc_core::table1::rows(), 4);
        let group = GroupAggregate::new(input, 0, vec![Aggregate::Count], 4, Stats::new_shared());
        let out = collect_batch_pairs(group);
        assert_eq!(out, vec![(Row::new(vec![7]), Ovc::duplicate())]);
    }

    #[test]
    fn empty_input() {
        let mut group = GroupAggregate::new(
            batches(&[], 2),
            1,
            vec![Aggregate::Count],
            4,
            Stats::new_shared(),
        );
        assert!(group.next_batch().unwrap().is_none());
    }

    /// Section 3's `select g, count(distinct d) … group by g`, over
    /// input sorted on (g, d): duplicate removal, then a count per group.
    fn count_distinct(rows: &[Row], stats: &Arc<Stats>) -> Vec<(Row, Ovc)> {
        let distinct = crate::BatchDedup::new(batches(rows, 2), Arc::clone(stats));
        let counted =
            GroupAggregate::new(distinct, 1, vec![Aggregate::Count], 2, Arc::clone(stats));
        collect_batch_pairs(counted)
    }

    #[test]
    fn count_distinct_group_by() {
        let rows = [[1, 5], [1, 5], [1, 7], [2, 5], [2, 5], [2, 5], [3, 1]]
            .map(|r| Row::new(r.to_vec()))
            .to_vec();
        let stats = Stats::new_shared();
        let out: Vec<(u64, u64)> = count_distinct(&rows, &stats)
            .iter()
            .map(|(r, _)| (r.cols()[0], r.cols()[1]))
            .collect();
        assert_eq!(out, vec![(1, 2), (2, 1), (3, 1)]);
        assert_eq!(stats.col_value_cmps(), 0);
        // Liveness: one duplicate test per input row and one boundary
        // test per distinct row were counted, so the zero above is a
        // measurement, not a vacuous assert on a dangling handle.
        assert_eq!(stats.ovc_cmps(), 7 + 4);
    }

    #[test]
    fn count_distinct_matches_reference_randomized() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut rows: Vec<Row> = (0..600)
            .map(|_| Row::new(vec![rng.gen_range(0..5u64), rng.gen_range(0..5u64)]))
            .collect();
        rows.sort();
        let mut expect: BTreeMap<u64, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for r in &rows {
            expect.entry(r.cols()[0]).or_default().insert(r.cols()[1]);
        }
        let pairs = count_distinct(&rows, &Stats::new_shared());
        assert_codes_exact(&pairs, 1);
        let got: Vec<(u64, u64)> = pairs
            .iter()
            .map(|(r, _)| (r.cols()[0], r.cols()[1]))
            .collect();
        let expect: Vec<(u64, u64)> = expect
            .into_iter()
            .map(|(k, s)| (k, s.len() as u64))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn count_distinct_empty_input() {
        assert!(count_distinct(&[], &Stats::new_shared()).is_empty());
    }

    #[test]
    fn boundary_detection_uses_no_column_comparisons() {
        let rows = ovc_core::table1::rows();
        let n_rows = rows.len() as u64;
        let stats = Stats::new_shared();
        let group = GroupAggregate::new(
            batches(&rows, 4),
            2,
            vec![Aggregate::Count],
            4,
            Arc::clone(&stats),
        );
        let _ = collect_batch_pairs(group);
        assert_eq!(stats.col_value_cmps(), 0);
        // One counted integer test per input row proves the handle is the
        // one the operator accounts into.
        assert_eq!(stats.ovc_cmps(), n_rows);
    }

    #[test]
    fn count_accumulator_wraps_instead_of_panicking() {
        // A pre-saturated Count accumulator must wrap in every build
        // profile (the documented uniform overflow discipline).
        assert_eq!(Aggregate::Count.fold(u64::MAX, &[1]), 0);
        assert_eq!(
            Aggregate::Sum(0).fold(u64::MAX, &[2]),
            1,
            "Sum wraps identically"
        );
        let pivot = Aggregate::SumWhere {
            col: 1,
            when: 0,
            equals: 7,
        };
        assert_eq!(pivot.fold(u64::MAX, &[7, 2]), 1, "SumWhere wraps too");
        assert_eq!(pivot.fold(5, &[8, 2]), 5, "a row failing `when` adds 0");
        assert_eq!(Aggregate::Count.merge(u64::MAX, 2), 1, "merge wraps too");
    }

    #[test]
    fn merge_law_matches_fold_on_split_groups() {
        // fold(whole group) == merge(fold(front), fold(back)) for every
        // aggregate (First/Last trust the orientation; here the front
        // slice is passed first).
        // Column 2 is the conditional sum's selector.
        let rows = [[1u64, 10, 1], [1, 30, 0], [1, 20, 1], [1, 5, 1]];
        for agg in [
            Aggregate::Count,
            Aggregate::Sum(1),
            Aggregate::Min(1),
            Aggregate::Max(1),
            Aggregate::First(1),
            Aggregate::Last(1),
            Aggregate::SumWhere {
                col: 1,
                when: 2,
                equals: 1,
            },
        ] {
            let fold_all = rows[1..]
                .iter()
                .fold(agg.init(&rows[0]), |acc, r| agg.fold(acc, r));
            let front = rows[1..2]
                .iter()
                .fold(agg.init(&rows[0]), |acc, r| agg.fold(acc, r));
            let back = rows[3..]
                .iter()
                .fold(agg.init(&rows[2]), |acc, r| agg.fold(acc, r));
            assert_eq!(fold_all, agg.merge(front, back), "{agg:?}");
        }
    }

    const AGGS: [Aggregate; 6] = [
        Aggregate::Count,
        Aggregate::Sum(2),
        Aggregate::Min(2),
        Aggregate::Max(2),
        Aggregate::First(2),
        Aggregate::Last(2),
    ];

    /// The old ≡ new proof, carried across the delete.  At commit 4f110c3
    /// the row-at-a-time `GroupAggregate` over a `VecStream` of these
    /// seeded inputs (key length 2, all six aggregates over column 2)
    /// produced exactly these row counts, row/code digests and comparison
    /// counts (columns, codes); the batch kernel must too, at every input
    /// and output batch size.
    #[test]
    fn row_kernel_constants_hold() {
        // (label, seed, rows, column domains, skewed, group_len) ->
        // (groups, digest, column comparisons, code comparisons)
        type Case = (&'static str, u64, usize, [u64; 3], bool, usize);
        #[rustfmt::skip]
        const CASES: [(Case, (usize, u64, u64, u64)); 5] = [
            (("dup_heavy", 21, 200, [3, 3, 100], false, 1), (3, 0x2a4876bde2dc38c8, 0, 200)),
            (("skewed", 22, 300, [20, 4, 100], true, 1), (18, 0xcc8ab0dd75af61a4, 0, 300)),
            (("empty", 23, 0, [3, 3, 100], false, 1), (0, 0xcbf29ce484222325, 0, 0)),
            (("group_len0", 24, 50, [3, 3, 100], false, 0), (1, 0x12f7aacb6845ad76, 0, 50)),
            (("full_key", 25, 120, [3, 3, 100], false, 2), (9, 0xad862022f5e120a3, 0, 120)),
        ];
        for ((label, seed, n, domains, skew, g), (groups, digest, col_cmps, ovc_cmps)) in CASES {
            let input = testkit::rows(seed, n, &domains, skew);
            for (in_batch, out_batch) in [(1, 1), (7, 2), (1024, 1024)] {
                let stats = Stats::new_shared();
                let group = GroupAggregate::new(
                    testkit::cut(&input, &SortSpec::asc(2), in_batch),
                    g,
                    AGGS.to_vec(),
                    out_batch,
                    Arc::clone(&stats),
                );
                let out = testkit::drain(group, out_batch);
                let case = format!("{label} in={in_batch} out={out_batch}");
                assert_eq!(testkit::digest(&out), (groups, digest), "{case}");
                let counted = StatsSnapshot {
                    col_value_cmps: col_cmps,
                    ovc_cmps,
                    ..StatsSnapshot::default()
                };
                assert_eq!(stats.snapshot(), counted, "{case}");
            }
        }
    }

    /// A group that straddles a batch seam keeps accumulating: rows,
    /// codes and counters are the same whether the 90-row input (three
    /// ~30-row groups, so every group crosses seams at sizes 1, 2 and 7)
    /// arrives in batches of 1, 2, 7, all at once, or "more than all".
    #[test]
    fn input_seams_move_neither_rows_nor_codes_nor_stats() {
        let input = testkit::rows(31, 90, &[3, 4, 100], false);
        let run = |batch: usize| {
            let stats = Stats::new_shared();
            let group = GroupAggregate::new(
                testkit::cut(&input, &SortSpec::asc(2), batch),
                1,
                AGGS.to_vec(),
                2,
                Arc::clone(&stats),
            );
            let out = testkit::drain(group, 2);
            assert_batches_exact_spec(&out, &SortSpec::asc(1));
            (testkit::digest(&out), stats.snapshot())
        };
        let whole = run(input.len());
        assert_eq!(whole.0 .0, 3);
        for batch in [1, 2, 7, 1000] {
            assert_eq!(run(batch), whole, "batch={batch}");
        }
    }

    /// Grouping by code inspection is direction-agnostic, and the kernel
    /// says so: over descending and mixed-direction inputs it reports the
    /// input's own spec cut to the group key — not "ascending" — and the
    /// output audits exact under that label.
    #[test]
    fn descending_and_mixed_inputs_keep_their_label() {
        for spec in [
            SortSpec::desc(2),
            SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]),
            SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]),
        ] {
            let mut input = testkit::rows(33, 80, &[5, 4, 100], false);
            input.sort_by(|a, b| spec.cmp_keys(&a[..2], &b[..2]));
            for g in [1, 2] {
                let group = GroupAggregate::new(
                    testkit::cut(&input, &spec, 6),
                    g,
                    vec![Aggregate::Count, Aggregate::Sum(2)],
                    4,
                    Stats::new_shared(),
                );
                let reported = group.sort_spec();
                assert_eq!(reported, spec.prefix(g), "group_len={g} under {spec}");
                let out = testkit::drain(group, 4);
                assert_batches_exact_spec(&out, &reported);
                let total: u64 = out.iter().flat_map(|b| b.iter()).map(|(r, _)| r[g]).sum();
                assert_eq!(total, 80, "every input row is counted once");
            }
        }
    }
}
