//! Filter (Section 4.1): the first and simplest application of the
//! paper's filter theorem.
//!
//! "An output row's offset-value code is (in ascending encoding) the
//! maximum of its offset-value code in the input and of the offset-value
//! codes of rows that failed the filter predicate since the prior output
//! row."  Table 3 illustrates the calculation on the data of Table 1.
//!
//! No row or column comparisons happen here at all — only one integer
//! `max` per input row, counted with one add per input batch rather than
//! one per row.

use std::sync::Arc;

use ovc_core::theorem::OvcAccumulator;
use ovc_core::{BatchStream, ExecError, FlatRows, SortSpec, Stats, Value};

/// A predicate filter over flat batches of coded rows.
///
/// One code operation per *input* row (the accumulator `max`) is counted
/// into `stats` — the same units `ovc_plan::cost::streaming` estimates —
/// so the operator's zero-column-comparison claim is measured, not
/// assumed.  The count is published as one add per input batch, inside
/// the `next_batch` that reads it.  An unordered input (the empty spec)
/// has only duplicate codes, whose `max` is the duplicate code, so
/// nothing is counted for it.  The accumulator carries across batch
/// seams; output batches may be shorter than input batches (never
/// empty).
pub struct BatchFilter<B, P> {
    input: B,
    predicate: P,
    acc: OvcAccumulator,
    stats: Arc<Stats>,
    ordered: bool,
}

impl<B: BatchStream, P: FnMut(&[Value]) -> bool> BatchFilter<B, P> {
    /// Filter `input`, keeping rows for which `predicate` returns true.
    pub fn new(input: B, predicate: P, stats: Arc<Stats>) -> Self {
        let ordered = !input.sort_spec().is_empty();
        BatchFilter {
            input,
            predicate,
            acc: OvcAccumulator::new(),
            stats,
            ordered,
        }
    }
}

impl<B: BatchStream, P: FnMut(&[Value]) -> bool> BatchStream for BatchFilter<B, P> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        while let Some(batch) = self.input.next_batch()? {
            if self.ordered {
                self.stats.count_ovc_cmps(batch.len() as u64);
            }
            let mut out = FlatRows::with_capacity(batch.width(), batch.len());
            for i in 0..batch.len() {
                let code = batch.code(i);
                let row = batch.row(i);
                if (self.predicate)(row) {
                    // Filter theorem: max over the dropped chain plus this row.
                    out.push(row, self.acc.emit(code));
                } else {
                    self.acc.absorb(code);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
    fn sort_spec(&self) -> SortSpec {
        self.input.sort_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{FlatBatches, Ovc, Row};
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Table 1's rows as one coded run, cut every `batch` rows.
    fn table1(batch: usize) -> FlatBatches {
        Run::from_sorted_rows(ovc_core::table1::rows(), 4).batches(batch)
    }

    /// Table 3 of the paper: only the first and last rows of Table 1
    /// satisfy the predicate; their ascending codes are 405 and 309.
    #[test]
    fn table3_filter_codes() {
        let rows = ovc_core::table1::rows();
        let keep = [rows[0].cols(), rows[6].cols()];
        for batch in [1, 3, 7] {
            let filter = BatchFilter::new(
                table1(batch),
                |r: &[Value]| keep.contains(&r),
                Stats::new_shared(),
            );
            let pairs = collect_batch_pairs(filter);
            assert_eq!(pairs.len(), 2);
            assert_eq!(pairs[0].1.paper_decimal(), 405);
            assert_eq!(pairs[1].1.paper_decimal(), 309);
            assert_codes_exact(&pairs, 4);
        }
    }

    #[test]
    fn filter_codes_match_rederivation_randomized() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut rows: Vec<Row> = (0..400)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..6u64),
                    rng.gen_range(0..6u64),
                    rng.gen_range(0..6u64),
                ])
            })
            .collect();
        rows.sort();
        let input = Run::from_sorted_rows(rows, 3).batches(16);
        let filter = BatchFilter::new(
            input,
            |r: &[Value]| r[1].is_multiple_of(2),
            Stats::new_shared(),
        );
        let pairs = collect_batch_pairs(filter);
        assert_codes_exact(&pairs, 3);
    }

    #[test]
    fn keep_all_is_identity() {
        let expect: Vec<Ovc> = ovc_core::table1::asc_codes();
        let filter = BatchFilter::new(table1(3), |_: &[Value]| true, Stats::new_shared());
        let pairs = collect_batch_pairs(filter);
        let codes: Vec<Ovc> = pairs.iter().map(|(_, c)| *c).collect();
        assert_eq!(codes, expect, "an all-pass filter changes nothing");
    }

    #[test]
    fn drop_all_is_empty() {
        let mut filter = BatchFilter::new(table1(3), |_: &[Value]| false, Stats::new_shared());
        assert!(filter.next_batch().unwrap().is_none());
    }

    #[test]
    fn no_column_comparisons() {
        // The handle is attached to the operator, so the zeros below are
        // measurements of its accounting, not asserts on a dangling
        // counter: one code operation per row, nothing else.
        let n_rows = ovc_core::table1::rows().len() as u64;
        let stats = Stats::new_shared();
        let filter = BatchFilter::new(table1(2), |r: &[Value]| r[0] > 0, Arc::clone(&stats));
        let _ = collect_batch_pairs(filter);
        assert_eq!(stats.col_value_cmps(), 0);
        assert_eq!(stats.row_cmps(), 0);
        assert_eq!(stats.ovc_cmps(), n_rows, "the handle is live");
    }

    #[test]
    fn filters_compose() {
        let f1 = BatchFilter::new(table1(2), |r: &[Value]| r[1] >= 8, Stats::new_shared());
        let f2 = BatchFilter::new(f1, |r: &[Value]| r[2] == 2, Stats::new_shared());
        let pairs = collect_batch_pairs(f2);
        assert_eq!(pairs.len(), 2); // the duplicate pair (5,9,2,7)
        assert_codes_exact(&pairs, 4);
    }
}
