//! Figure 4's baseline: in-stream aggregation with *full comparisons of
//! multiple key columns* for group-boundary detection.
//!
//! Identical semantics to [`ovc_exec::GroupAggregate`], but each boundary
//! test compares the current row's grouping columns against the group's
//! key, column by column — the cost the paper's Figure 4 measures
//! against the offset-test version.  Both operators read the same flat
//! batches and write flat batches, so the race between them is the
//! boundary test alone.

use std::sync::Arc;

use ovc_core::{BatchStream, ExecError, FlatRows, Ovc, SortSpec, Stats, StatsSnapshot, Value};
use ovc_exec::Aggregate;

/// The most rows [`GroupFullCompare`] writes into one output batch —
/// the engine's default batch size, so a race against
/// [`ovc_exec::GroupAggregate`] passes the same value to both.
pub const OUTPUT_BATCH_ROWS: usize = 1024;

/// In-stream grouping with column-by-column boundary detection.
///
/// The output intentionally omits offset-value codes (this is the
/// pre-OVC operator): it is an unordered stream under
/// [`SortSpec::none`], every code a duplicate.  Output rows are the group
/// key followed by one column per aggregate, in batches of at most
/// [`OUTPUT_BATCH_ROWS`] rows.
pub struct GroupFullCompare<B> {
    input: B,
    /// The current input batch and the next row to read in it.
    batch: FlatRows,
    pos: usize,
    group_len: usize,
    aggregates: Vec<Aggregate>,
    /// Whether a group is being accumulated into `row` (group key, then
    /// one accumulator per aggregate).
    pending: bool,
    row: Vec<Value>,
    /// Row and column comparisons are counted locally and published
    /// before each `next_batch` returns, as the engine's kernels do.
    stats: Arc<Stats>,
}

impl<B: BatchStream> GroupFullCompare<B> {
    /// Build the baseline operator over any sorted batch stream.
    pub fn new(input: B, group_len: usize, aggregates: Vec<Aggregate>, stats: Arc<Stats>) -> Self {
        GroupFullCompare {
            input,
            batch: FlatRows::new(0),
            pos: 0,
            group_len,
            row: vec![0; group_len + aggregates.len()],
            aggregates,
            pending: false,
            stats,
        }
    }

    /// The measured cost: compare all grouping columns.
    fn same_group(counted: &mut StatsSnapshot, key: &[Value], cur: &[Value]) -> bool {
        counted.row_cmps += 1;
        for (k, c) in key.iter().zip(cur) {
            counted.col_value_cmps += 1;
            if k != c {
                return false;
            }
        }
        true
    }
}

impl<B: BatchStream> BatchStream for GroupFullCompare<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let g = self.group_len;
        let mut out: Option<FlatRows> = None;
        // Append a finished group; true once the output batch is full.
        let finish = |out: &mut Option<FlatRows>, row: &[Value]| {
            let out =
                out.get_or_insert_with(|| FlatRows::with_capacity(row.len(), OUTPUT_BATCH_ROWS));
            out.push(row, Ovc::duplicate());
            out.len() >= OUTPUT_BATCH_ROWS
        };
        let mut counted = StatsSnapshot::default();
        loop {
            if self.pos >= self.batch.len() {
                let Some(batch) = self.input.next_batch()? else {
                    // Input exhausted: flush the final group, if any.
                    if std::mem::take(&mut self.pending) {
                        finish(&mut out, &self.row);
                    }
                    self.stats.absorb(&counted);
                    return Ok(out);
                };
                self.batch = batch;
                self.pos = 0;
            }
            let cols = self.batch.row(self.pos);
            self.pos += 1;
            if self.pending && Self::same_group(&mut counted, &self.row[..g], &cols[..g]) {
                for (acc, agg) in self.row[g..].iter_mut().zip(&self.aggregates) {
                    *acc = agg.fold(*acc, cols);
                }
                continue;
            }
            // Boundary: emit the finished group, start anew.
            let full = std::mem::replace(&mut self.pending, true) && finish(&mut out, &self.row);
            self.row[..g].copy_from_slice(&cols[..g]);
            for (acc, agg) in self.row[g..].iter_mut().zip(&self.aggregates) {
                *acc = agg.init(cols);
            }
            if full {
                self.stats.absorb(&counted);
                return Ok(out);
            }
        }
    }

    fn sort_spec(&self) -> SortSpec {
        SortSpec::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::Row;
    use ovc_exec::GroupAggregate;
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The output rows of `stream`, without their codes.
    fn rows(stream: impl BatchStream) -> Vec<Row> {
        collect_batch_pairs(stream)
            .into_iter()
            .map(|(row, _)| row)
            .collect()
    }

    #[test]
    fn matches_ovc_grouping_output() {
        // About 2000 groups: the output crosses a batch seam.
        let mut rng = StdRng::seed_from_u64(31);
        let mut input: Vec<Row> = (0..6000)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..50u64),
                    rng.gen_range(0..50u64),
                    rng.gen_range(0..50u64),
                ])
            })
            .collect();
        input.sort();
        let run = Run::from_sorted_rows(input, 3);
        let aggs = vec![Aggregate::Count, Aggregate::Sum(2)];
        let stats = Stats::new_shared();
        let baseline = rows(GroupFullCompare::new(
            run.clone().batches(7),
            2,
            aggs.clone(),
            Arc::clone(&stats),
        ));
        assert!(baseline.len() > OUTPUT_BATCH_ROWS);
        let ovc = rows(GroupAggregate::new(run.batches(64), 2, aggs, 64, stats));
        assert_eq!(baseline, ovc);
    }

    #[test]
    fn baseline_pays_column_comparisons_where_ovc_pays_none() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut input: Vec<Row> = (0..1000)
            .map(|_| Row::new(vec![rng.gen_range(0..3u64), rng.gen_range(0..3u64)]))
            .collect();
        input.sort();
        let stats = Stats::new_shared();
        let groups = rows(GroupFullCompare::new(
            Run::from_sorted_rows(input, 2).batches(64),
            2,
            vec![Aggregate::Count],
            Arc::clone(&stats),
        ));
        assert!(groups.len() <= 9, "at most 9 groups");
        // 999 boundary tests, each comparing 1-2 columns.
        assert!(stats.col_value_cmps() >= 999);
        assert_eq!(stats.row_cmps(), 999);
    }

    #[test]
    fn empty_input() {
        let stats = Stats::new_shared();
        let mut g = GroupFullCompare::new(
            Run::from_sorted_rows(vec![], 2).batches(64),
            1,
            vec![Aggregate::Count],
            stats,
        );
        assert!(g.next_batch().unwrap().is_none());
    }
}
