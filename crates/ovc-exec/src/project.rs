//! Projection (Section 4.2).
//!
//! "If all columns in the sort key survive the projection, offset-value
//! codes in the output are the same as in the input.  If not, the offset
//! must be limited to the prefix (column count) that survives."
//!
//! Two operators live here, both over flat batches and both comparing no
//! columns (nothing is counted):
//! * [`BatchProject`] — removes or reorders columns while keeping some
//!   prefix of the sort key as the new leading columns;
//! * [`BatchClampKey`] — the degenerate projection that merely shortens
//!   the sort key (the executor's unordered scan clamps a table's key
//!   away with it).

use ovc_core::theorem::clamp_to_prefix;
use ovc_core::{BatchStream, ExecError, FlatRows, SortSpec};

/// Projection onto a column list preserving the first `surviving_key`
/// sort-key columns.  Each projected row is written straight into the
/// output buffer; codes are clamped to the surviving prefix.
pub struct BatchProject<B> {
    input: B,
    cols: Vec<usize>,
    in_key_len: usize,
    surviving_key: usize,
    spec: SortSpec,
}

impl<B: BatchStream> BatchProject<B> {
    /// Project every row onto `cols` (input column indices, in output
    /// order).  Panics unless the surviving key stays in place — `cols`
    /// starts with `0, 1, …, surviving_key − 1` — and fits the input key.
    pub fn new(input: B, surviving_key: usize, cols: Vec<usize>) -> Self {
        let in_key_len = input.key_len();
        assert!(surviving_key <= in_key_len);
        assert!(
            (0..surviving_key).eq(cols.iter().copied().take(surviving_key)),
            "projection must preserve the surviving key prefix"
        );
        let spec = input.sort_spec().prefix(surviving_key);
        BatchProject {
            input,
            cols,
            in_key_len,
            surviving_key,
            spec,
        }
    }
}

impl<B: BatchStream> BatchStream for BatchProject<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        Ok(self.input.next_batch()?.map(|batch| {
            let mut values = Vec::with_capacity(batch.len() * self.cols.len());
            let mut codes = Vec::with_capacity(batch.len());
            for (row, code) in batch.iter() {
                values.extend(self.cols.iter().map(|&c| row[c]));
                codes.push(clamp_to_prefix(code, self.in_key_len, self.surviving_key));
            }
            FlatRows::from_parts(self.cols.len(), values, codes)
        }))
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// Shorten a stream's sort key to its first `new_key_len` columns: rows
/// untouched, codes clamped in place to the shorter key.
pub struct BatchClampKey<B> {
    input: B,
    in_key_len: usize,
    new_key_len: usize,
    spec: SortSpec,
}

impl<B: BatchStream> BatchClampKey<B> {
    /// Wrap `input` with a shorter sort key.
    pub fn new(input: B, new_key_len: usize) -> Self {
        let in_key_len = input.key_len();
        assert!(new_key_len <= in_key_len);
        let spec = input.sort_spec().prefix(new_key_len);
        BatchClampKey {
            input,
            in_key_len,
            new_key_len,
            spec,
        }
    }
}

impl<B: BatchStream> BatchStream for BatchClampKey<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        Ok(self.input.next_batch()?.map(|mut batch| {
            for i in 0..batch.len() {
                let code = batch.code(i);
                batch.set_code(i, clamp_to_prefix(code, self.in_key_len, self.new_key_len));
            }
            batch
        }))
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{FlatBatches, Ovc, Row};
    use ovc_sort::Run;

    /// Table 1's rows as one coded run, cut every 3 rows.
    fn table1() -> FlatBatches {
        Run::from_sorted_rows(ovc_core::table1::rows(), 4).batches(3)
    }

    #[test]
    fn full_key_projection_keeps_codes() {
        // Reorder the columns behind the key; the whole key survives.
        let proj = BatchProject::new(table1(), 4, vec![0, 1, 2, 3, 0]);
        let pairs = collect_batch_pairs(proj);
        let codes: Vec<Ovc> = pairs.iter().map(|(_, c)| *c).collect();
        assert_eq!(codes, ovc_core::table1::asc_codes());
        assert_codes_exact(&pairs, 4);
    }

    #[test]
    fn shortened_key_clamps_codes() {
        // Keep only the first two key columns.
        let proj = BatchProject::new(table1(), 2, vec![0, 1]);
        let pairs = collect_batch_pairs(proj);
        assert_codes_exact(&pairs, 2);
        // Expected offsets under the 2-column key: Table 1 offsets clamped.
        let offsets: Vec<usize> = pairs.iter().map(|(_, c)| c.offset(2)).collect();
        assert_eq!(offsets, vec![0, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn clamp_key_is_exact() {
        let clamped = BatchClampKey::new(table1(), 1);
        assert_eq!(clamped.key_len(), 1);
        let pairs = collect_batch_pairs(clamped);
        assert_codes_exact(&pairs, 1);
        // Every row shares column 0 (= 5): all but the first are duplicates
        // under the 1-column key.
        assert!(pairs[1..].iter().all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn clamp_to_zero_key() {
        let clamped = BatchClampKey::new(table1(), 0);
        let pairs = collect_batch_pairs(clamped);
        assert!(pairs.iter().skip(1).all(|(_, c)| c.is_duplicate()));
    }

    #[test]
    fn reordering_payload_columns() {
        let rows = vec![Row::new(vec![1, 10, 100]), Row::new(vec![2, 20, 200])];
        let input = Run::from_sorted_rows(rows, 1).batches(1);
        let proj = BatchProject::new(input, 1, vec![0, 2, 1]);
        let pairs = collect_batch_pairs(proj);
        assert_eq!(pairs[0].0, Row::new(vec![1, 100, 10]));
        assert_codes_exact(&pairs, 1);
    }
}
