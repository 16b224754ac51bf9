//! Sorted runs: the unit of work for run generation, merging, and spilling.
//!
//! A [`Run`] is a sorted sequence of rows whose offset-value codes are
//! exact relative to each row's predecessor within the run — the in-memory
//! equivalent of the paper's prefix-truncation-encoded runs ("input runs
//! are encoded with prefixes truncated", Section 3).  "Offset-value codes
//! for rows in sorted runs are a byproduct of run generation.  These
//! offset-value codes later improve the efficiency of merging"
//! (Section 5).
//!
//! Since the flat-layout refactor (DESIGN.md §10) a run stores its rows in
//! one contiguous [`FlatRows`] buffer — fixed row width, values and codes
//! in parallel vectors — instead of a `Vec` of boxed rows.  Merging reads
//! each run sequentially in place and copies winner rows slice-to-slice;
//! a batch pipeline takes the run as slices ([`Run::batches`]), and
//! [`OvcRow`]s are materialized only at the library's edge
//! ([`Run::into_rows`]).
//!
//! `Run` is the one materialized coded run of the workspace: a sort's
//! resident output, a spilled run, a merge level, and the executor's
//! drained root and partitions (`ovc_plan::Output`) are all `Run`s.

use ovc_core::derive::{derive_codes, derive_codes_spec};
use ovc_core::{FlatBatches, FlatRows, Ovc, OvcRow, Row, SortSpec};

/// A sorted, coded, in-memory run in flat columnar layout.
#[derive(Clone, Debug)]
pub struct Run {
    flat: FlatRows,
    spec: SortSpec,
}

impl Run {
    /// Wrap rows that already carry exact codes (e.g. merge output),
    /// flattening them into the contiguous layout.  Debug builds verify
    /// the contract.
    pub fn from_coded(rows: Vec<OvcRow>, key_len: usize) -> Self {
        Self::from_coded_spec(rows, SortSpec::asc(key_len))
    }

    /// Wrap rows coded under an explicit [`SortSpec`].  Debug builds
    /// verify the spec's stream contract.
    pub fn from_coded_spec(rows: Vec<OvcRow>, spec: SortSpec) -> Self {
        Self::from_flat(FlatRows::from_ovc_rows(rows, spec.len()), spec)
    }

    /// Wrap an already-coded flat buffer.  Debug builds verify the spec's
    /// stream contract directly on the stored representation — no clones.
    pub fn from_flat(flat: FlatRows, spec: SortSpec) -> Self {
        #[cfg(debug_assertions)]
        {
            if let Some(i) = ovc_core::derive::find_code_violation_slices(flat.iter(), &spec) {
                panic!("Run::from_flat: code violation at row {i} under {spec}");
            }
        }
        Run { flat, spec }
    }

    /// As [`Run::from_flat`] without the debug validation — for merge
    /// outputs whose exactness is guaranteed by construction and re-checked
    /// by the property tests (validating every intermediate merge level
    /// would make debug externs quadratic).
    pub(crate) fn from_flat_trusted(flat: FlatRows, spec: SortSpec) -> Self {
        Run { flat, spec }
    }

    /// Derive codes for an already-sorted row vector.
    pub fn from_sorted_rows(rows: Vec<Row>, key_len: usize) -> Self {
        debug_assert!(ovc_core::derive::is_sorted(&rows, key_len));
        let codes = derive_codes(&rows, key_len);
        Run {
            flat: flatten(rows, codes, key_len),
            spec: SortSpec::asc(key_len),
        }
    }

    /// Derive codes for rows already ordered under `spec`.
    pub fn from_sorted_rows_spec(rows: Vec<Row>, spec: SortSpec) -> Self {
        debug_assert!(ovc_core::derive::is_sorted_spec(&rows, &spec));
        let codes = derive_codes_spec(&rows, &spec);
        let flat = flatten(rows, codes, spec.len());
        Run { flat, spec }
    }

    /// An empty run under an explicit spec.
    pub fn empty_spec(spec: SortSpec) -> Self {
        Run {
            flat: FlatRows::new(spec.len()),
            spec,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Sort-key arity of the run's codes.
    pub fn key_len(&self) -> usize {
        self.spec.len()
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.flat.width()
    }

    /// The ordering contract the run's rows and codes follow.
    pub fn sort_spec(&self) -> &SortSpec {
        &self.spec
    }

    /// Borrow the flat storage.
    pub fn flat(&self) -> &FlatRows {
        &self.flat
    }

    /// Consume into the flat storage.
    pub fn into_flat(self) -> FlatRows {
        self.flat
    }

    /// All columns of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        self.flat.row(i)
    }

    /// Code of row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> Ovc {
        self.flat.code(i)
    }

    /// Iterate `(columns, code)` pairs in place.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], Ovc)> + '_ {
        self.flat.iter()
    }

    /// Materialize boxed coded rows (test/boundary convenience; one
    /// allocation per row).
    pub fn to_ovc_rows(&self) -> Vec<OvcRow> {
        self.flat.to_ovc_rows()
    }

    /// Consume into boxed coded rows (materializing).
    pub fn into_rows(self) -> Vec<OvcRow> {
        self.flat.to_ovc_rows()
    }

    /// Consume the run as a [`ovc_core::BatchStream`] of `batch_size`-row
    /// [`FlatRows`] chunks — the batch-pipeline entry point for sorted
    /// data.  Cutting a coded run at any point needs no code repair
    /// (each batch's first code is relative to the previous batch's last
    /// row — the seam rule of `ovc_core::batch`), so the chunks are plain
    /// slices of the flat buffer.  Panics if `batch_size` is zero.
    pub fn batches(self, batch_size: usize) -> FlatBatches {
        FlatBatches::new(self.flat, self.spec, batch_size)
    }

    /// Total payload bytes a spill of this run would write (8 bytes per
    /// column plus the 8-byte code per row) — used for I/O accounting.
    pub fn spill_bytes(&self) -> u64 {
        ((self.flat.values().len() + self.flat.codes().len()) * 8) as u64
    }

    /// Drop duplicate-coded rows (one integer test per row): the in-sort
    /// duplicate removal of Figure 5.  Removing a row whose code says
    /// "equal to my predecessor" leaves every surviving code exact, and
    /// survivors copy slice-to-slice between flat buffers — no boxing.
    pub fn into_distinct(self) -> Run {
        let flat = self.flat.retain_indices(|_, c| !c.is_duplicate());
        Run {
            flat,
            spec: self.spec,
        }
    }
}

/// Build a flat buffer from boxed rows plus their codes.
fn flatten(rows: Vec<Row>, codes: Vec<Ovc>, fallback_width: usize) -> FlatRows {
    let width = rows.first().map(Row::width).unwrap_or(fallback_width);
    let mut flat = FlatRows::with_capacity(width, rows.len());
    for (row, code) in rows.into_iter().zip(codes) {
        flat.push(row.cols(), code);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::BatchStream;

    #[test]
    fn run_from_sorted_rows() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        assert_eq!(run.len(), 7);
        assert!(!run.is_empty());
        assert_eq!(run.key_len(), 4);
        let codes: Vec<Ovc> = run.iter().map(|(_, c)| c).collect();
        assert_eq!(codes, ovc_core::table1::asc_codes());
    }

    #[test]
    fn batches_slice_the_run_with_exact_seams() {
        // The batch cursor cuts the run without any code repair; the
        // seam-aware validator accepts every cut size, including 1 and
        // exactly the run length.
        let rows = ovc_core::table1::rows();
        let run = Run::from_sorted_rows(rows.clone(), 4);
        let expect = run.to_ovc_rows();
        for batch_size in [1usize, 2, 3, 7, 100] {
            let mut cursor = Run::from_sorted_rows(rows.clone(), 4).batches(batch_size);
            assert_eq!(cursor.sort_spec(), SortSpec::asc(4));
            let mut batches = Vec::new();
            while let Some(b) = cursor.next_batch().unwrap() {
                assert!(!b.is_empty());
                assert!(b.len() <= batch_size);
                batches.push(b);
            }
            ovc_core::batch::assert_batches_exact_spec(&batches, &SortSpec::asc(4));
            let flat: Vec<OvcRow> = batches.iter().flat_map(|b| b.to_ovc_rows()).collect();
            assert_eq!(flat, expect, "batch={batch_size}");
        }
        // Empty run: no batches at all.
        assert!(Run::empty_spec(SortSpec::asc(2))
            .batches(4)
            .next_batch()
            .unwrap()
            .is_none());
    }

    #[test]
    fn flat_layout_round_trips_boxed_rows() {
        let run = Run::from_sorted_rows(ovc_core::table1::rows(), 4);
        let boxed = run.to_ovc_rows();
        let again = Run::from_coded(boxed.clone(), 4);
        assert_eq!(again.flat(), run.flat());
        assert_eq!(again.into_rows(), boxed);
        assert_eq!(run.width(), 4);
        assert_eq!(run.row(0), ovc_core::table1::rows()[0].cols());
    }

    #[test]
    fn spill_bytes_counts_columns_and_code() {
        let run = Run::from_sorted_rows(vec![Row::new(vec![1, 2, 3])], 2);
        // 3 columns + 1 code word = 32 bytes.
        assert_eq!(run.spill_bytes(), 32);
        assert_eq!(Run::empty_spec(SortSpec::asc(2)).spill_bytes(), 0);
    }

    #[test]
    fn into_distinct_drops_duplicate_coded_rows() {
        let rows = vec![
            Row::new(vec![1, 9]),
            Row::new(vec![1, 9]),
            Row::new(vec![2, 0]),
        ];
        let run = Run::from_sorted_rows(rows, 2).into_distinct();
        assert_eq!(run.len(), 2);
        assert_eq!(run.row(1), &[2, 0]);
        assert!(run.iter().all(|(_, c)| !c.is_duplicate()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "code violation")]
    fn from_coded_rejects_bad_codes() {
        let rows = vec![
            OvcRow::new(Row::new(vec![1]), Ovc::new(0, 1, 1)),
            OvcRow::new(Row::new(vec![2]), Ovc::duplicate()), // wrong
        ];
        let _ = Run::from_coded(rows, 1);
    }
}
