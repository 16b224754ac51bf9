//! Sorted streams that carry offset-value codes between operators.
//!
//! F1 Query introduces "an artificial column for offset-value codes …
//! during query planning for order-producing physical operators"
//! (Section 5).  Our equivalent is [`OvcStream`]: an iterator of
//! [`OvcRow`]s, sorted ascending on the leading `key_len()` columns, where
//! every code is **exact** relative to the stream's previous row
//! (DESIGN.md §3.3).  Operators consume one stream and produce another,
//! deriving the output codes with the theorem machinery — never by
//! re-comparing rows.

use crate::derive::{derive_codes, derive_codes_spec};
use crate::ovc::Ovc;
use crate::row::Row;
use crate::spec::SortSpec;

/// A row travelling through a pipeline together with its offset-value code
/// (the paper's "artificial column").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OvcRow {
    /// The row.
    pub row: Row,
    /// Exact ascending code relative to the stream's previous row.
    pub code: Ovc,
}

impl OvcRow {
    /// Bundle a row with its code.
    pub fn new(row: Row, code: Ovc) -> Self {
        OvcRow { row, code }
    }
}

/// A sorted stream of coded rows.
///
/// Contract (checked by [`crate::derive::assert_codes_exact`] in tests):
/// rows ascend on the first `key_len()` columns and each `code` is the
/// exact code relative to the preceding row (the first row relative to
/// "−∞").
pub trait OvcStream: Iterator<Item = OvcRow> {
    /// Number of leading sort-key columns (the code arity).
    fn key_len(&self) -> usize;

    /// The ordering contract this stream's rows and codes follow — the
    /// stream's first-class "interesting ordering".  Defaults to
    /// all-ascending on the leading `key_len()` columns, which is what
    /// every operator produced before [`SortSpec`] existed; streams that
    /// carry descending or normalized-key orders override it.
    fn sort_spec(&self) -> SortSpec {
        SortSpec::asc(self.key_len())
    }
}

impl<S: OvcStream + ?Sized> OvcStream for Box<S> {
    fn key_len(&self) -> usize {
        (**self).key_len()
    }
    fn sort_spec(&self) -> SortSpec {
        (**self).sort_spec()
    }
}

impl<S: OvcStream + ?Sized> OvcStream for &mut S {
    fn key_len(&self) -> usize {
        (**self).key_len()
    }
    fn sort_spec(&self) -> SortSpec {
        (**self).sort_spec()
    }
}

/// An in-memory stream over pre-coded rows.
pub struct VecStream {
    iter: std::vec::IntoIter<OvcRow>,
    spec: SortSpec,
}

impl VecStream {
    /// Wrap already-coded rows.  Debug builds verify the contract.
    pub fn from_coded(rows: Vec<OvcRow>, key_len: usize) -> Self {
        Self::from_coded_spec(rows, SortSpec::asc(key_len))
    }

    /// Wrap rows coded under an explicit [`SortSpec`].  Debug builds
    /// verify the spec's stream contract (in place — no row clones).
    pub fn from_coded_spec(rows: Vec<OvcRow>, spec: SortSpec) -> Self {
        #[cfg(debug_assertions)]
        {
            if let Some(i) = crate::derive::find_code_violation_slices(
                rows.iter().map(|r| (r.row.cols(), r.code)),
                &spec,
            ) {
                panic!("VecStream::from_coded_spec: code violation at row {i} under {spec}");
            }
        }
        VecStream {
            iter: rows.into_iter(),
            spec,
        }
    }

    /// Derive codes for sorted rows and wrap them.  Panics if unsorted.
    pub fn from_sorted_rows(rows: Vec<Row>, key_len: usize) -> Self {
        assert!(
            crate::derive::is_sorted(&rows, key_len),
            "VecStream::from_sorted_rows requires sorted input"
        );
        let codes = derive_codes(&rows, key_len);
        let coded: Vec<OvcRow> = rows
            .into_iter()
            .zip(codes)
            .map(|(row, code)| OvcRow::new(row, code))
            .collect();
        VecStream {
            iter: coded.into_iter(),
            spec: SortSpec::asc(key_len),
        }
    }

    /// Derive codes for rows already ordered under `spec` and wrap them.
    /// Panics if the rows violate the spec's order.
    pub fn from_sorted_rows_spec(rows: Vec<Row>, spec: SortSpec) -> Self {
        assert!(
            crate::derive::is_sorted_spec(&rows, &spec),
            "VecStream::from_sorted_rows_spec requires input sorted under {spec}"
        );
        let codes = derive_codes_spec(&rows, &spec);
        let coded: Vec<OvcRow> = rows
            .into_iter()
            .zip(codes)
            .map(|(row, code)| OvcRow::new(row, code))
            .collect();
        VecStream {
            iter: coded.into_iter(),
            spec,
        }
    }

    /// Sort the rows, derive codes, and wrap them (test convenience).
    pub fn from_unsorted_rows(mut rows: Vec<Row>, key_len: usize) -> Self {
        rows.sort_by(|a, b| a.key(key_len).cmp(b.key(key_len)));
        Self::from_sorted_rows(rows, key_len)
    }
}

impl Iterator for VecStream {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        self.iter.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl OvcStream for VecStream {
    fn key_len(&self) -> usize {
        self.spec.len()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// Drain a stream into `(Row, Ovc)` pairs (test/bench convenience).
pub fn collect_pairs<S: OvcStream>(stream: S) -> Vec<(Row, Ovc)> {
    stream.map(|r| (r.row, r.code)).collect()
}

/// Drain a stream into rows only.
pub fn collect_rows<S: OvcStream>(stream: S) -> Vec<Row> {
    stream.map(|r| r.row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_stream_from_sorted_rows_codes_match_table1() {
        let stream = VecStream::from_sorted_rows(crate::table1::rows(), 4);
        assert_eq!(stream.key_len(), 4);
        let pairs = collect_pairs(stream);
        let codes: Vec<Ovc> = pairs.iter().map(|(_, c)| *c).collect();
        assert_eq!(codes, crate::table1::asc_codes());
    }

    #[test]
    #[should_panic(expected = "requires sorted input")]
    fn vec_stream_rejects_unsorted() {
        let mut rows = crate::table1::rows();
        rows.reverse();
        let _ = VecStream::from_sorted_rows(rows, 4);
    }

    #[test]
    fn from_unsorted_sorts_first() {
        let mut rows = crate::table1::rows();
        rows.reverse();
        let stream = VecStream::from_unsorted_rows(rows, 4);
        let got = collect_rows(stream);
        assert_eq!(got, crate::table1::rows());
    }

    #[test]
    fn boxed_stream_preserves_key_len() {
        let stream: Box<dyn OvcStream> =
            Box::new(VecStream::from_sorted_rows(crate::table1::rows(), 4));
        assert_eq!(stream.key_len(), 4);
        assert_eq!(stream.count(), 7);
    }

    #[test]
    fn empty_stream() {
        let stream = VecStream::from_sorted_rows(vec![], 2);
        assert_eq!(collect_pairs(stream).len(), 0);
    }

    #[test]
    fn spec_streams_carry_their_ordering_contract() {
        use crate::spec::{Direction, SortSpec};
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        let rows: Vec<Row> = [[9u64, 1], [9, 5], [2, 0]]
            .iter()
            .map(|c| Row::new(c.to_vec()))
            .collect();
        let stream = VecStream::from_sorted_rows_spec(rows, spec.clone());
        assert_eq!(stream.key_len(), 2);
        assert_eq!(stream.sort_spec(), spec);
        let pairs = collect_pairs(stream);
        crate::derive::assert_codes_exact_spec(&pairs, &spec);
        // The default contract on plain streams is ascending.
        let plain = VecStream::from_sorted_rows(crate::table1::rows(), 4);
        assert_eq!(plain.sort_spec(), SortSpec::asc(4));
    }

    #[test]
    #[should_panic(expected = "requires input sorted under")]
    fn spec_stream_rejects_order_violations() {
        use crate::spec::SortSpec;
        let rows = vec![Row::new(vec![1]), Row::new(vec![2])];
        let _ = VecStream::from_sorted_rows_spec(rows, SortSpec::desc(1));
    }
}
