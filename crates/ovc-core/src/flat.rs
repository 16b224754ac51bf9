//! Flat, struct-of-arrays storage for coded rows.
//!
//! The normalized-key literature (MonetDB/X100-style blockwise processing)
//! is blunt about row-at-a-time layouts: a sort that chases one heap
//! pointer per row spends its time on cache misses, not comparisons.  With
//! offset-value codes the comparison itself is one `u64` compare, so memory
//! traffic dominates — which makes the run representation the hot-path
//! data structure of this whole reproduction.
//!
//! [`FlatRows`] stores a batch of coded rows as two parallel vectors: one
//! contiguous `Vec<u64>` of column values (fixed row width, row `i` at
//! `values[i * width ..]`) and one `Vec<Ovc>` of codes.  Sorting permutes
//! indices over the buffer, merging copies winner rows slice-to-slice,
//! spilling writes the words straight out, and the join / group / set
//! kernels, the gathering exchange and the server's frame encoder read the
//! same slices — no per-row `Box<[u64]>` until a caller asks the engine's
//! output for [`OvcRow`]s (DESIGN.md §10).

use crate::ovc::Ovc;
use crate::row::{Row, Value};
use crate::stream::OvcRow;

/// A batch of coded rows in flat columnar-run layout: fixed `width`, row
/// `i`'s columns at `values[i * width .. (i + 1) * width]`, code `i` in
/// `codes[i]`.
///
/// The container itself carries no ordering contract; the coded run
/// ([`Run`] in `ovc-sort`) and the batch streams pair it with a
/// [`crate::SortSpec`] and enforce the coded-stream invariant.
///
/// [`Run`]: https://docs.rs/ovc-sort
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatRows {
    width: usize,
    values: Vec<Value>,
    codes: Vec<Ovc>,
}

impl FlatRows {
    /// An empty batch of rows of the given width.
    pub fn new(width: usize) -> Self {
        FlatRows {
            width,
            values: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// An empty batch with capacity for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        FlatRows {
            width,
            values: Vec::with_capacity(width * rows),
            codes: Vec::with_capacity(rows),
        }
    }

    /// Build from raw parts.  Panics unless `values.len()` is `codes.len()
    /// * width`.
    pub fn from_parts(width: usize, values: Vec<Value>, codes: Vec<Ovc>) -> Self {
        assert_eq!(
            values.len(),
            codes.len() * width,
            "flat buffer length must be rows * width"
        );
        FlatRows {
            width,
            values,
            codes,
        }
    }

    /// Flatten boxed coded rows.  All rows must share one width; an empty
    /// input uses `fallback_width` (callers pass the key length so empty
    /// runs still encode a sane header).
    pub fn from_ovc_rows(rows: Vec<OvcRow>, fallback_width: usize) -> Self {
        let width = rows
            .first()
            .map(|r| r.row.width())
            .unwrap_or(fallback_width);
        let mut flat = FlatRows::with_capacity(width, rows.len());
        for OvcRow { row, code } in rows {
            flat.push(row.cols(), code);
        }
        flat
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Is the batch empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Columns per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The contiguous value buffer (`len() * width()` words).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The parallel code vector.
    #[inline]
    pub fn codes(&self) -> &[Ovc] {
        &self.codes
    }

    /// All columns of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// The leading `key_len` columns of row `i`.
    #[inline]
    pub fn key(&self, i: usize, key_len: usize) -> &[Value] {
        &self.values[i * self.width..i * self.width + key_len]
    }

    /// Code of row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> Ovc {
        self.codes[i]
    }

    /// Overwrite the code of row `i` (e.g. clamping a code to a shorter
    /// key prefix).
    #[inline]
    pub fn set_code(&mut self, i: usize, code: Ovc) {
        self.codes[i] = code;
    }

    /// Keep only the first `rows` rows (values and codes truncate
    /// together; a no-op when `rows >= len()`).
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.len() {
            self.values.truncate(rows * self.width);
            self.codes.truncate(rows);
        }
    }

    /// Append a row.  Panics unless `row.len()` equals the width — a
    /// mixed-width push would silently corrupt every later `row(i)`
    /// offset, so the check stays on in release builds (one predictable
    /// compare next to a memcpy).
    #[inline]
    pub fn push(&mut self, row: &[Value], code: Ovc) {
        assert_eq!(row.len(), self.width, "flat rows require uniform width");
        self.values.extend_from_slice(row);
        self.codes.push(code);
    }

    /// Append row `i` of `src` (a slice-to-slice copy, the merge winner's
    /// move into the output buffer).  Panics unless widths match.
    #[inline]
    pub fn push_from(&mut self, src: &FlatRows, i: usize, code: Ovc) {
        assert_eq!(src.width, self.width, "flat rows require uniform width");
        self.values.extend_from_slice(src.row(i));
        self.codes.push(code);
    }

    /// Append the row made of `parts` laid end to end (a join's combined
    /// or padded row, written straight into the batch).  Panics unless
    /// the parts add up to the width.
    #[inline]
    pub fn push_concat(&mut self, parts: &[&[Value]], code: Ovc) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(len, self.width, "flat rows require uniform width");
        for part in parts {
            self.values.extend_from_slice(part);
        }
        self.codes.push(code);
    }

    /// Copy rows `range` out as a batch of their own (two slice copies —
    /// the one cut every batch source over a flat buffer makes: coded
    /// scans, run batches, partition drains).  Codes are copied as they
    /// are; by the seam rule that is exact for a cut of a coded stream.
    pub fn slice(&self, range: std::ops::Range<usize>) -> FlatRows {
        FlatRows {
            width: self.width,
            values: self.values[range.start * self.width..range.end * self.width].to_vec(),
            codes: self.codes[range].to_vec(),
        }
    }

    /// Append every row of `other` (the inverse of [`FlatRows::slice`]:
    /// concatenating a stream's batches in order restores the stream).
    /// Panics unless widths match.
    pub fn extend_from(&mut self, other: &FlatRows) {
        assert_eq!(other.width, self.width, "flat rows require uniform width");
        self.values.extend_from_slice(&other.values);
        self.codes.extend_from_slice(&other.codes);
    }

    /// Iterate `(columns, code)` pairs without materializing rows.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], Ovc)> + '_ {
        (0..self.len()).map(|i| (self.row(i), self.code(i)))
    }

    /// Materialize boxed coded rows (a true operator boundary: one
    /// allocation per row).
    pub fn to_ovc_rows(&self) -> Vec<OvcRow> {
        (0..self.len())
            .map(|i| OvcRow::new(Row::from_slice(self.row(i)), self.code(i)))
            .collect()
    }

    /// Keep only the rows whose index satisfies `keep`, preserving order
    /// and codes (used by code-inspection dedup, where dropping a
    /// duplicate-coded row leaves every surviving code exact).
    pub fn retain_indices(&self, keep: impl Fn(usize, Ovc) -> bool) -> FlatRows {
        let mut out = FlatRows::with_capacity(self.width, self.len());
        for i in 0..self.len() {
            let code = self.code(i);
            if keep(i, code) {
                out.push_from(self, i, code);
            }
        }
        out
    }

    /// Raw parts `(width, values, codes)` — the spill encoding writes
    /// these words directly.
    pub fn into_parts(self) -> (usize, Vec<Value>, Vec<Ovc>) {
        (self.width, self.values, self.codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatRows {
        let mut f = FlatRows::with_capacity(3, 2);
        f.push(&[1, 2, 3], Ovc::new(0, 1, 2));
        f.push(&[1, 2, 9], Ovc::new(2, 9, 2));
        f
    }

    #[test]
    fn accessors() {
        let f = sample();
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.width(), 3);
        assert_eq!(f.row(1), &[1, 2, 9]);
        assert_eq!(f.key(1, 2), &[1, 2]);
        assert_eq!(f.code(0), Ovc::new(0, 1, 2));
        assert_eq!(f.values().len(), 6);
        assert_eq!(f.codes().len(), 2);
    }

    #[test]
    fn iter_and_materialize_agree() {
        let f = sample();
        let from_iter: Vec<(Vec<u64>, Ovc)> = f.iter().map(|(r, c)| (r.to_vec(), c)).collect();
        let boxed = f.to_ovc_rows();
        assert_eq!(boxed.len(), 2);
        for (i, r) in boxed.iter().enumerate() {
            assert_eq!(r.row.cols(), &from_iter[i].0[..]);
            assert_eq!(r.code, from_iter[i].1);
        }
    }

    #[test]
    fn round_trips_through_boxed_rows() {
        let f = sample();
        let back = FlatRows::from_ovc_rows(f.to_ovc_rows(), 3);
        assert_eq!(back, f);
    }

    #[test]
    fn push_from_copies_rows() {
        let f = sample();
        let mut out = FlatRows::new(3);
        out.push_from(&f, 1, f.code(1));
        assert_eq!(out.row(0), f.row(1));
    }

    #[test]
    fn push_concat_lays_parts_end_to_end() {
        let mut out = FlatRows::new(4);
        out.push_concat(&[&[1, 2], &[], &[3, 4]], Ovc::duplicate());
        assert_eq!(out.row(0), &[1, 2, 3, 4]);
        assert!(out.code(0).is_duplicate());
    }

    #[test]
    #[should_panic(expected = "uniform width")]
    fn push_concat_rejects_a_short_row() {
        FlatRows::new(3).push_concat(&[&[1], &[2]], Ovc::duplicate());
    }

    #[test]
    fn retain_filters_by_code() {
        let mut f = FlatRows::new(1);
        f.push(&[1], Ovc::new(0, 1, 1));
        f.push(&[1], Ovc::duplicate());
        f.push(&[2], Ovc::new(0, 2, 1));
        let kept = f.retain_indices(|_, c| !c.is_duplicate());
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.row(1), &[2]);
    }

    #[test]
    fn set_code_and_truncate() {
        let mut f = sample();
        f.set_code(1, Ovc::duplicate());
        assert!(f.code(1).is_duplicate());
        f.truncate(5); // no-op past the end
        assert_eq!(f.len(), 2);
        f.truncate(1);
        assert_eq!(f.len(), 1);
        assert_eq!(f.values().len(), 3);
        assert_eq!(f.row(0), &[1, 2, 3]);
    }

    #[test]
    fn zero_width_rows() {
        let mut f = FlatRows::new(0);
        f.push(&[], Ovc::duplicate());
        f.push(&[], Ovc::duplicate());
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1), &[] as &[u64]);
        assert_eq!(f.iter().count(), 2);
    }

    #[test]
    fn slice_and_extend_from_are_inverses() {
        let mut f = sample();
        f.push(&[4, 0, 0], Ovc::new(0, 4, 2));
        let (head, tail) = (f.slice(0..1), f.slice(1..3));
        assert_eq!((head.len(), tail.len()), (1, 2));
        assert_eq!(tail.row(0), f.row(1));
        assert_eq!(tail.code(1), f.code(2));
        assert!(f.slice(2..2).is_empty());
        let mut back = FlatRows::new(3);
        back.extend_from(&head);
        back.extend_from(&tail);
        assert_eq!(back, f);
    }

    #[test]
    fn parts_round_trip() {
        let f = sample();
        let (w, v, c) = f.clone().into_parts();
        assert_eq!(FlatRows::from_parts(w, v, c), f);
    }
}
