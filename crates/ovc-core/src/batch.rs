//! Morsel-style batch-at-a-time streams of coded rows.
//!
//! The systems the paper builds its offset-value-coding argument on — F1
//! Query and Napa — run vectorized pipelines: operators hand each other
//! fixed-size batches, not single boxed rows.  This module is the batch
//! counterpart of [`crate::stream`]: a [`BatchStream`] yields
//! [`FlatRows`] batches (contiguous struct-of-arrays storage, one
//! `Vec<u64>` of values plus a parallel `Vec<Ovc>` of codes) under one
//! [`SortSpec`] ordering contract.
//!
//! **The seam rule (DESIGN.md §12).**  A batch stream carries the *same*
//! contract as a row stream, batched: concatenating all batches yields a
//! row sequence sorted under the stream's spec in which every code is
//! exact relative to the *previous row of the stream* — including across
//! batch boundaries.  The first code of batch `k+1` relates to the last
//! row of batch `k`; only the very first code of the whole stream is
//! relative to "−∞".  Cutting a coded stream into batches therefore
//! requires **no code repair at all** (codes are a function of the row
//! sequence, which batching does not change — [`FlatRows::slice`]), and
//! concatenating batches back ([`FlatRows::extend_from`]) is equally
//! free.  Repair is only needed when a batch is *lifted out* of its
//! stream and treated as a standalone sorted unit: its first code is
//! re-based to "−∞" (the exchange does so with
//! [`crate::theorem::OvcAccumulator`]), and every later code stays exact
//! because it never looks past the batch's own previous row.
//!
//! Validation mirrors the row-stream helpers:
//! [`find_code_violation_batches`] / [`assert_batches_exact_spec`] audit
//! a batch sequence *including its seams*.

use std::borrow::Borrow;

use crate::ctx::ExecError;
use crate::derive::find_code_violation_slices;
use crate::flat::FlatRows;
use crate::ovc::Ovc;
use crate::row::Row;
use crate::spec::SortSpec;

/// A sorted stream of coded rows delivered batch-at-a-time.
///
/// Contract: concatenating every yielded batch gives a row sequence that
/// satisfies the row-stream contract under [`BatchStream::sort_spec`] —
/// rows ordered by the spec, each code exact relative to the stream's
/// previous row, seams included (see the module docs).  Batch sizes are
/// an upper bound chosen by the producer: operators may emit shorter
/// batches (a filter that dropped rows, a flush at end of input), and a
/// batch is never empty.
///
/// A failure (cancellation, a deadline, a spill fault, a dead exchange
/// producer) is returned as an [`ExecError`] value; an operator hands
/// its input's error on with `?`.  After an `Err` the stream is done:
/// callers do not pull it again.
pub trait BatchStream {
    /// The next batch, `Ok(None)` at end of stream, or the error that
    /// ended it.  Yielded batches are non-empty.
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError>;

    /// The ordering contract the concatenated rows and codes follow.
    fn sort_spec(&self) -> SortSpec;

    /// Number of leading sort-key columns (the code arity).
    fn key_len(&self) -> usize {
        self.sort_spec().len()
    }
}

impl<B: BatchStream + ?Sized> BatchStream for Box<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        (**self).next_batch()
    }
    fn sort_spec(&self) -> SortSpec {
        (**self).sort_spec()
    }
    fn key_len(&self) -> usize {
        (**self).key_len()
    }
}

/// A coded flat buffer handed over batch-at-a-time: the one slicer behind
/// every resident batch source (a sorted table's scan, a run, a
/// repartitioned partition).  Each batch is a [`FlatRows::slice`] of at
/// most `batch_size` rows (the last may be short), codes exact across the
/// seams.  `F` owns the buffer (`FlatRows`) or shares it
/// (`Arc<FlatRows>`).
pub struct FlatBatches<F = FlatRows> {
    flat: F,
    spec: SortSpec,
    pos: usize,
    batch_size: usize,
}

impl<F: Borrow<FlatRows>> FlatBatches<F> {
    /// Cut `flat`, one coded stream under `spec`, every `batch_size`
    /// rows.  Panics if `batch_size` is zero.
    pub fn new(flat: F, spec: SortSpec, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        FlatBatches {
            flat,
            spec,
            pos: 0,
            batch_size,
        }
    }
}

impl<F: Borrow<FlatRows>> BatchStream for FlatBatches<F> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        let flat = self.flat.borrow();
        if self.pos >= flat.len() {
            return Ok(None);
        }
        let end = (self.pos + self.batch_size).min(flat.len());
        let out = flat.slice(self.pos..end);
        self.pos = end;
        Ok(Some(out))
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// An in-memory batch stream over pre-cut batches (tests, rewrapping
/// materialized partitions).
pub struct VecBatchStream {
    batches: std::vec::IntoIter<FlatRows>,
    spec: SortSpec,
}

impl VecBatchStream {
    /// Wrap already-coded batches.  Debug builds verify the full batched
    /// contract, seams included; empty batches are dropped.
    pub fn new(batches: Vec<FlatRows>, spec: SortSpec) -> Self {
        #[cfg(debug_assertions)]
        {
            if let Some(i) = find_code_violation_batches(&batches, &spec) {
                panic!("VecBatchStream::new: code violation at stream row {i} under {spec}");
            }
        }
        let batches: Vec<FlatRows> = batches.into_iter().filter(|b| !b.is_empty()).collect();
        VecBatchStream {
            batches: batches.into_iter(),
            spec,
        }
    }
}

impl BatchStream for VecBatchStream {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        Ok(self.batches.next())
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// Boxed rows entering the flat world: an **unordered** batch stream of
/// up to `batch_size` rows each.  An unordered stream is a coded stream
/// under [`SortSpec::none`], whose codes are all the duplicate code, so
/// no second row shape is needed downstream.  Panics on rows of unequal
/// width within a batch.
pub struct RowBatches<I> {
    rows: I,
    batch_size: usize,
}

impl<I: Iterator<Item = Row>> RowBatches<I> {
    /// Cut `rows` every `batch_size` rows.  Panics if `batch_size` is
    /// zero.
    pub fn new(rows: impl IntoIterator<IntoIter = I>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let rows = rows.into_iter();
        RowBatches { rows, batch_size }
    }
}

impl<I: Iterator<Item = Row>> BatchStream for RowBatches<I> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        Ok(self.rows.next().map(|first| {
            let width = first.width();
            let room = self.rows.size_hint().0.saturating_add(1);
            let mut batch = FlatRows::with_capacity(width, room.min(self.batch_size));
            let rest = self.rows.by_ref().take(self.batch_size - 1);
            for row in std::iter::once(first).chain(rest) {
                assert_eq!(row.width(), width, "batch streams require uniform rows");
                batch.push(row.cols(), Ovc::duplicate());
            }
            batch
        }))
    }
    fn sort_spec(&self) -> SortSpec {
        SortSpec::none()
    }
}

/// Audit a batch sequence against the batched stream contract under
/// `spec`, **seams included**: the concatenated rows must be ordered by
/// the spec and every code exact relative to the stream's previous row
/// (batch `k+1`'s first code checked against batch `k`'s last row; the
/// stream's very first code against "−∞").  Returns the index of the
/// first offending row in concatenated order.
pub fn find_code_violation_batches(batches: &[FlatRows], spec: &SortSpec) -> Option<usize> {
    find_code_violation_slices(batches.iter().flat_map(|b| b.iter()), spec)
}

/// Panic unless the batch sequence satisfies the batched stream contract
/// under `spec` (the batched counterpart of
/// [`crate::derive::assert_codes_exact_spec`]).
pub fn assert_batches_exact_spec(batches: &[FlatRows], spec: &SortSpec) {
    if let Some(i) = find_code_violation_batches(batches, spec) {
        panic!("batched code violation at stream row {i} under {spec}");
    }
}

/// Drain a batch stream into `(Row, Ovc)` pairs (test convenience).
/// Panics with the error's message if the stream fails.
pub fn collect_batch_pairs<B: BatchStream>(mut stream: B) -> Vec<(Row, crate::Ovc)> {
    let mut pairs = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap_or_else(|err| panic!("{err}")) {
        pairs.extend(
            batch
                .iter()
                .map(|(cols, code)| (Row::from_slice(cols), code)),
        );
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{collect_pairs, VecStream};
    use crate::Ovc;

    /// Cut a coded row stream into batches of at most `batch_size` rows.
    fn cut(stream: VecStream, batch_size: usize) -> FlatBatches {
        use crate::stream::OvcStream;
        let spec = stream.sort_spec();
        let flat = FlatRows::from_ovc_rows(stream.collect(), spec.len());
        FlatBatches::new(flat, spec, batch_size)
    }

    fn drain(mut stream: impl BatchStream) -> Vec<FlatRows> {
        std::iter::from_fn(|| stream.next_batch().unwrap()).collect()
    }

    fn table1_stream() -> VecStream {
        VecStream::from_sorted_rows(crate::table1::rows(), 4)
    }

    #[test]
    fn flat_batches_round_trip_for_every_batch_size() {
        let reference = collect_pairs(table1_stream());
        for batch_size in [1usize, 2, 3, 7, 64] {
            let stream = cut(table1_stream(), batch_size);
            assert_eq!(stream.sort_spec(), SortSpec::asc(4));
            assert_eq!(stream.key_len(), 4);
            let batches = drain(stream);
            for b in &batches {
                assert!(!b.is_empty());
                assert!(b.len() <= batch_size);
            }
            assert_batches_exact_spec(&batches, &SortSpec::asc(4));
            let spliced = collect_batch_pairs(VecBatchStream::new(batches, SortSpec::asc(4)));
            assert_eq!(spliced, reference, "batch_size={batch_size}");
        }
    }

    #[test]
    fn boxed_batch_streams_forward_the_contract() {
        let mut boxed: Box<dyn BatchStream> = Box::new(cut(table1_stream(), 3));
        assert_eq!(boxed.key_len(), 4);
        let first = boxed.next_batch().unwrap().expect("first batch");
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn empty_stream_yields_no_batches() {
        let mut b = cut(VecStream::from_sorted_rows(vec![], 2), 8);
        assert!(b.next_batch().unwrap().is_none());
        // Empty batches handed to the wrapper are dropped, not yielded.
        let hollow = VecBatchStream::new(vec![FlatRows::new(2)], SortSpec::asc(2));
        assert_eq!(collect_batch_pairs(hollow).len(), 0);
    }

    #[test]
    fn seam_validation_catches_a_bad_head_code() {
        let mut batches = drain(cut(table1_stream(), 3));
        // Corrupt the second batch's head: pretend it starts a stream.
        let head = SortSpec::asc(4).initial_code(&batches[1].row(0)[..4]);
        batches[1].set_code(0, head);
        let i = find_code_violation_batches(&batches, &SortSpec::asc(4));
        assert_eq!(i, Some(3), "the repaired head no longer matches the seam");
    }

    #[test]
    fn spec_streams_batch_with_their_contract() {
        use crate::spec::Direction;
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        let rows: Vec<Row> = [[9u64, 1], [9, 5], [2, 0], [2, 4]]
            .iter()
            .map(|c| Row::new(c.to_vec()))
            .collect();
        let b = cut(VecStream::from_sorted_rows_spec(rows, spec.clone()), 2);
        assert_eq!(b.sort_spec(), spec);
        let batches = drain(b);
        assert_eq!(batches.len(), 2);
        assert_batches_exact_spec(&batches, &spec);
    }

    /// Boxed rows enter as an unordered stream: a coded stream under the
    /// empty spec, every code the duplicate code, cut every `batch_size`
    /// rows.
    #[test]
    fn row_batches_are_a_coded_stream_under_the_empty_spec() {
        let rows: Vec<Row> = (0..7u64).map(|k| Row::new(vec![7 - k, k % 2])).collect();
        let stream = RowBatches::new(rows.clone(), 3);
        assert_eq!(stream.sort_spec(), SortSpec::none());
        let batches = drain(stream);
        assert_eq!(
            batches.iter().map(FlatRows::len).collect::<Vec<_>>(),
            [3, 3, 1]
        );
        assert_batches_exact_spec(&batches, &SortSpec::none());
        let pairs = collect_batch_pairs(VecBatchStream::new(batches, SortSpec::none()));
        assert!(pairs.iter().all(|(_, code)| code.is_duplicate()));
        assert_eq!(
            pairs.into_iter().map(|(row, _)| row).collect::<Vec<_>>(),
            rows
        );
        assert!(drain(RowBatches::new(Vec::new(), 3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "uniform rows")]
    fn row_batches_reject_ragged_rows() {
        let _ = drain(RowBatches::new(
            vec![Row::new(vec![1, 2]), Row::new(vec![3])],
            8,
        ));
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let r = std::panic::catch_unwind(|| cut(table1_stream(), 0));
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_codes_survive_batch_seams() {
        // A run of equal rows spanning a seam keeps its duplicate codes.
        let rows: Vec<Row> = vec![
            Row::new(vec![1]),
            Row::new(vec![1]),
            Row::new(vec![1]),
            Row::new(vec![2]),
        ];
        let mut b = cut(VecStream::from_sorted_rows(rows, 1), 2);
        let first = b.next_batch().unwrap().unwrap();
        let second = b.next_batch().unwrap().unwrap();
        assert!(first.code(1).is_duplicate());
        assert!(second.code(0).is_duplicate(), "the seam code stays exact");
        assert_eq!(second.code(1), Ovc::new(0, 2, 1));
        assert_batches_exact_spec(&[first, second], &SortSpec::asc(1));
    }
}
