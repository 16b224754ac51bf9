//! Figure 4's baseline: in-stream aggregation with *full comparisons of
//! multiple key columns* for group-boundary detection.
//!
//! Identical semantics to [`ovc_exec::GroupAggregate`], but each boundary
//! test compares the current row's grouping columns against the previous
//! row's, column by column — the cost the paper's Figure 4 measures
//! against the offset-test version.

use std::sync::Arc;

use ovc_core::{OvcRow, Row, Stats, Value};
use ovc_exec::Aggregate;

/// In-stream grouping with column-by-column boundary detection.
///
/// The output intentionally omits offset-value codes (this is the
/// pre-OVC operator), so it yields plain rows.
pub struct GroupFullCompare<S> {
    input: S,
    group_len: usize,
    aggregates: Vec<Aggregate>,
    pending: Option<(Row, Vec<Value>)>,
    stats: Arc<Stats>,
}

impl<S: Iterator<Item = OvcRow>> GroupFullCompare<S> {
    /// Build the baseline operator over any sorted row stream.
    pub fn new(input: S, group_len: usize, aggregates: Vec<Aggregate>, stats: Arc<Stats>) -> Self {
        GroupFullCompare {
            input,
            group_len,
            aggregates,
            pending: None,
            stats,
        }
    }

    fn finish(&self, (row, accs): (Row, Vec<Value>)) -> Row {
        let mut cols = Vec::with_capacity(self.group_len + accs.len());
        cols.extend_from_slice(row.key(self.group_len));
        cols.extend_from_slice(&accs);
        Row::new(cols)
    }

    /// The measured cost: compare all grouping columns.
    fn same_group(&self, prev: &Row, cur: &Row) -> bool {
        self.stats.count_row_cmp();
        for i in 0..self.group_len {
            self.stats.count_col_cmp();
            if prev.cols()[i] != cur.cols()[i] {
                return false;
            }
        }
        true
    }
}

impl<S: Iterator<Item = OvcRow>> Iterator for GroupFullCompare<S> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            match self.input.next() {
                None => return self.pending.take().map(|g| self.finish(g)),
                Some(OvcRow { row, .. }) => {
                    let same = self
                        .pending
                        .as_ref()
                        .is_some_and(|(prev, _)| self.same_group(prev, &row));
                    if same {
                        let aggs = &self.aggregates;
                        let (_, accs) = self.pending.as_mut().expect("pending");
                        for (acc, agg) in accs.iter_mut().zip(aggs) {
                            *acc = agg.fold(*acc, row.cols());
                        }
                    } else {
                        let accs = self.aggregates.iter().map(|a| a.init(row.cols())).collect();
                        if let Some(done) = self.pending.replace((row, accs)) {
                            return Some(self.finish(done));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::VecStream;
    use ovc_exec::GroupAggregate;
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_ovc_grouping_output() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut rows: Vec<Row> = (0..600)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..5u64),
                    rng.gen_range(0..5u64),
                    rng.gen_range(0..50u64),
                ])
            })
            .collect();
        rows.sort();
        let aggs = vec![Aggregate::Count, Aggregate::Sum(2)];
        let stats = Stats::new_shared();
        let baseline: Vec<Row> = GroupFullCompare::new(
            VecStream::from_sorted_rows(rows.clone(), 3),
            2,
            aggs.clone(),
            Arc::clone(&stats),
        )
        .collect();
        let input = Run::from_sorted_rows(rows, 3).batches(64);
        let ovc: Vec<Row> = collect_batch_pairs(GroupAggregate::new(input, 2, aggs, 64, stats))
            .into_iter()
            .map(|(row, _)| row)
            .collect();
        assert_eq!(baseline, ovc);
    }

    #[test]
    fn baseline_pays_column_comparisons_where_ovc_pays_none() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut rows: Vec<Row> = (0..1000)
            .map(|_| Row::new(vec![rng.gen_range(0..3u64), rng.gen_range(0..3u64)]))
            .collect();
        rows.sort();
        let stats = Stats::new_shared();
        let n: usize = GroupFullCompare::new(
            VecStream::from_sorted_rows(rows, 2),
            2,
            vec![Aggregate::Count],
            Arc::clone(&stats),
        )
        .count();
        assert!(n <= 9);
        // 999 boundary tests, each comparing 1-2 columns.
        assert!(stats.col_value_cmps() >= 999);
        assert_eq!(stats.row_cmps(), 999);
    }

    #[test]
    fn empty_input() {
        let stats = Stats::new_shared();
        let g = GroupFullCompare::new(
            VecStream::from_sorted_rows(vec![], 2),
            1,
            vec![Aggregate::Count],
            stats,
        );
        assert_eq!(g.count(), 0);
    }
}
