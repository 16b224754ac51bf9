//! Duplicate removal (Section 4.4).
//!
//! "In a sorted stream with offset-value codes, duplicate removal
//! suppresses input rows with offsets equal to the arity (count of
//! columns) … All other rows, i.e., the output rows, retain their
//! offset-value codes from the input.  In the duplicate-free output, no
//! row has an offset equal to the arity."
//!
//! Detection is a single integer test per row — `offset == arity` is the
//! duplicate code, the smallest valid code — with no column comparisons,
//! counted as one code comparison per input row.
//! Retaining the survivors' codes is correct because a duplicate shares
//! its entire key with its predecessor: the code of the next distinct row
//! relative to the duplicate equals its code relative to the first copy.
//!
//! The "single copy with counter" of Section 4.7 is a
//! [`crate::group::GroupAggregate`] over the whole row with a `Count`.

use std::sync::Arc;

use ovc_core::{BatchStream, ExecError, FlatRows, SortSpec, Stats};

/// Duplicate removal over the full sort key, batch at a time.  A
/// duplicate-coded first row of a batch is relative to the previous
/// batch's last row, so per-batch filtering is exact across seams:
/// survivors keep their input codes.
///
/// The per-row duplicate test is one code comparison, counted into
/// `stats` in the units `ovc_plan::cost::streaming` estimates, as one
/// add per input batch inside the `next_batch` that reads it.
pub struct BatchDedup<B> {
    input: B,
    stats: Arc<Stats>,
}

impl<B: BatchStream> BatchDedup<B> {
    /// Remove rows whose key equals the previous row's key.
    pub fn new(input: B, stats: Arc<Stats>) -> Self {
        BatchDedup { input, stats }
    }
}

impl<B: BatchStream> BatchStream for BatchDedup<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        while let Some(batch) = self.input.next_batch()? {
            self.stats.count_ovc_cmps(batch.len() as u64);
            if batch.codes().iter().all(|c| !c.is_duplicate()) {
                return Ok(Some(batch)); // duplicate-free: no copy needed
            }
            let kept = batch.retain_indices(|_, c| !c.is_duplicate());
            if !kept.is_empty() {
                return Ok(Some(kept));
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
    use ovc_core::{FlatBatches, Row};
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sorted rows as one coded run on `key_len` columns, cut every 3 rows.
    fn batches(rows: Vec<Row>, key_len: usize) -> FlatBatches {
        Run::from_sorted_rows(rows, key_len).batches(3)
    }

    #[test]
    fn removes_the_table1_duplicate() {
        let stats = Stats::new_shared();
        let dedup = BatchDedup::new(batches(ovc_core::table1::rows(), 4), Arc::clone(&stats));
        let pairs = collect_batch_pairs(dedup);
        assert_eq!(pairs.len(), 6, "one duplicate row suppressed");
        // One counted code test per input row, no column comparison.
        assert_eq!((stats.ovc_cmps(), stats.col_value_cmps()), (7, 0));
        assert_codes_exact(&pairs, 4);
        assert!(pairs.iter().all(|(_, c)| !c.is_duplicate()));
        // Survivors keep their input codes.
        let decimals: Vec<u64> = pairs.iter().map(|(_, c)| c.paper_decimal()).collect();
        assert_eq!(decimals, vec![405, 112, 308, 309, 203, 107]);
    }

    #[test]
    fn random_dedup_matches_reference() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut rows: Vec<Row> = (0..500)
            .map(|_| Row::new(vec![rng.gen_range(0..5u64), rng.gen_range(0..5u64)]))
            .collect();
        rows.sort();
        let mut expect = rows.clone();
        expect.dedup();
        let pairs = collect_batch_pairs(BatchDedup::new(batches(rows, 2), Stats::new_shared()));
        assert_codes_exact(&pairs, 2);
        let got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        assert_eq!(got, expect);
    }

    /// Section 4.7's "single copy with counter": grouping on the whole row
    /// with a count collapses each run of duplicates, keeping the first
    /// copy's code.
    #[test]
    fn counting_dedup_counts() {
        let rows = [1u64, 1, 1, 2, 3, 3].map(|v| Row::new(vec![v])).to_vec();
        let counted = crate::GroupAggregate::new(
            batches(rows, 1),
            1,
            vec![crate::Aggregate::Count],
            2,
            Stats::new_shared(),
        );
        let pairs = collect_batch_pairs(counted);
        let got: Vec<(u64, u64)> = pairs
            .iter()
            .map(|(r, _)| (r.cols()[0], r.cols()[1]))
            .collect();
        assert_eq!(got, vec![(1, 3), (2, 1), (3, 2)]);
        assert_codes_exact(&pairs, 1);
    }

    #[test]
    fn dedup_without_duplicates_is_identity() {
        let rows: Vec<Row> = (0..20).map(|i| Row::new(vec![i])).collect();
        let got: Vec<Row> = collect_batch_pairs(BatchDedup::new(
            batches(rows.clone(), 1),
            Stats::new_shared(),
        ))
        .into_iter()
        .map(|(r, _)| r)
        .collect();
        assert_eq!(got, rows);
    }

    #[test]
    fn dedup_all_equal() {
        let rows = vec![Row::new(vec![9, 9]); 10];
        let pairs = collect_batch_pairs(BatchDedup::new(batches(rows, 2), Stats::new_shared()));
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn empty_input() {
        let mut dedup = BatchDedup::new(batches(vec![], 2), Stats::new_shared());
        assert!(dedup.next_batch().unwrap().is_none());
        let aggs = vec![crate::Aggregate::Count];
        let mut counted =
            crate::GroupAggregate::new(batches(vec![], 2), 2, aggs, 4, Stats::new_shared());
        assert!(counted.next_batch().unwrap().is_none());
    }
}
