//! Top-k over [`FlatRows`] batches ([`BatchTake`]), and the batch
//! exchange's two ends (§4.10, see [`crate::exchange`]).
//!
//! Every batch operator — these and the filter, projection and dedup of
//! [`crate::filter`], [`crate::project`] and [`crate::dedup`] — consumes
//! and produces [`BatchStream`] batches whose codes stay exact *across
//! batch seams* (DESIGN.md §12): batch `k+1`'s first code is relative to
//! batch `k`'s last row, so no repair happens at a seam — only where
//! the split exchange lifts rows into a standalone partition, whose
//! head code its [`OvcAccumulator`] re-bases.
//!
//! The exchange's splitting side is [`route_batches`]; its channels carry
//! `Result<FlatRows, ExecError>` items, received as a
//! [`BatchChannelStream`].  The gathering side is
//! `ovc_sort::merge_batch_streams` over those streams.
//! [`route_batches`]'s per-partition accumulators are uncounted, as are
//! top-k, projection, clamping and dedup; the filter counts one code
//! operation per *input* row.

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use ovc_core::ctx::ExecError;
use ovc_core::fault;
use ovc_core::theorem::OvcAccumulator;
use ovc_core::{BatchStream, ChannelGauge, FlatRows, SortSpec, Value};

/// Default in-flight budget of a bounded exchange channel, in rows.
/// Small enough for backpressure to keep memory flat, large enough to
/// amortize wakeups; a channel of `batch`-row frames holds
/// `DEFAULT_CHANNEL_CAPACITY.div_ceil(batch)` messages.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// The receiving end of a batched exchange channel: a [`BatchStream`]
/// over a bounded (or unbounded) channel whose items are flat batches
/// or — as the producer's last word before it exits — the `Err` that
/// killed it (DESIGN.md §14).  That error is what the consumer's
/// `next_batch` returns; a channel that closes without one is a clean
/// end of stream.
///
/// With a gauge attached, every `recv` is timed and the *rows* (not just
/// messages) crossing the channel are counted —
/// [`ChannelGauge::note_recv_rows`].
pub struct BatchChannelStream {
    rx: Receiver<Result<FlatRows, ExecError>>,
    spec: SortSpec,
    gauge: Option<Arc<ChannelGauge>>,
}

impl BatchChannelStream {
    /// Wrap a channel receiver as a coded batch stream with the given
    /// ordering contract.
    pub fn new(
        rx: Receiver<Result<FlatRows, ExecError>>,
        spec: SortSpec,
        gauge: Option<Arc<ChannelGauge>>,
    ) -> Self {
        BatchChannelStream { rx, spec, gauge }
    }
}

impl BatchStream for BatchChannelStream {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        fault::maybe_slow_consumer();
        let item = match &self.gauge {
            None => self.rx.recv().ok(),
            Some(g) => {
                let t0 = Instant::now();
                let got = self.rx.recv().ok();
                let rows = match &got {
                    Some(Ok(b)) => Some(b.len() as u64),
                    _ => None,
                };
                g.note_recv_rows(t0.elapsed(), rows);
                got
            }
        };
        item.transpose()
    }
    fn sort_spec(&self) -> SortSpec {
        self.spec.clone()
    }
}

/// The splitting side of a batched exchange: route every row of `input`
/// to a partition chosen by `part`, repairing codes with one
/// [`OvcAccumulator`] per partition (a row "kept" by partition `p` is
/// "absorbed" by every other partition's accumulator — the filter
/// corollary), buffering up to `batch_size` rows per partition before
/// handing the batch to `send` — one channel operation per *batch*.
///
/// Per row the work is the partition function, one `absorb` per
/// partition and one copy: every accumulator absorbs the row's code and
/// then partition `p`'s emits it, which gives `p` the same code as
/// keeping the row without absorbing it.  The partition buffers are made
/// with the first batch and replaced as they are sent, so no row checks
/// for one; a `part` result of `parts` or more panics on the index.
///
/// A `false` return from `send` closes that partition (its consumer is
/// gone); the others keep flowing.  Once every partition has closed, no
/// further input is pulled.  Any partial batches are flushed when the
/// input is exhausted; an input error is returned unflushed.
pub fn route_batches<B, P>(
    mut input: B,
    parts: usize,
    mut part: P,
    batch_size: usize,
    mut send: impl FnMut(usize, FlatRows) -> bool,
) -> Result<(), ExecError>
where
    B: BatchStream,
    P: FnMut(&[Value]) -> usize,
{
    assert!(parts > 0, "split needs at least one partition");
    assert!(batch_size > 0, "batch size must be positive");
    let mut accs = vec![OvcAccumulator::new(); parts];
    let mut open = vec![true; parts];
    let mut live = parts;
    let mut pending: Vec<FlatRows> = Vec::new();
    while let Some(batch) = input.next_batch()? {
        let width = batch.width();
        if pending.is_empty() {
            pending = (0..parts)
                .map(|_| FlatRows::with_capacity(width, batch_size))
                .collect();
        }
        for i in 0..batch.len() {
            let row = batch.row(i);
            let code = batch.code(i);
            let p = part(row);
            for acc in &mut accs {
                acc.absorb(code);
            }
            let out_code = accs[p].emit(code);
            if !open[p] {
                continue;
            }
            let buf = &mut pending[p];
            buf.push(row, out_code);
            if buf.len() >= batch_size {
                let full = std::mem::replace(buf, FlatRows::with_capacity(width, batch_size));
                if !send(p, full) {
                    open[p] = false;
                    live -= 1;
                    if live == 0 {
                        // Every consumer is gone: stop draining.
                        return Ok(());
                    }
                }
            }
        }
    }
    for (p, buf) in pending.into_iter().enumerate() {
        if open[p] && !buf.is_empty() {
            let _ = send(p, buf);
        }
    }
    Ok(())
}

/// Batched top-k: pass batches through until `k` rows have flowed, then
/// stop pulling — truncating the final batch so exactly `k` rows emerge.
/// Codes of a stream prefix are exact as-is.
pub struct BatchTake<B> {
    input: B,
    left: usize,
}

impl<B: BatchStream> BatchTake<B> {
    /// Keep the first `k` rows of `input`.
    pub fn new(input: B, k: usize) -> Self {
        BatchTake { input, left: k }
    }
}

impl<B: BatchStream> BatchStream for BatchTake<B> {
    fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
        if self.left == 0 {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        if batch.len() >= self.left {
            batch.truncate(self.left);
            self.left = 0;
        } else {
            self.left -= batch.len();
        }
        Ok(Some(batch))
    }
    fn sort_spec(&self) -> SortSpec {
        self.input.sort_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::by_cols_hash;
    use crate::{BatchClampKey, BatchDedup, BatchFilter, BatchProject};
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact_spec;
    use ovc_core::stream::collect_pairs;
    use ovc_core::FlatBatches;
    use ovc_core::{Ovc, Row, Stats, StatsSnapshot, VecStream};
    use ovc_sort::Run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted_rows(n: usize, seed: u64, cols: usize, domain: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| Row::new((0..cols).map(|_| rng.gen_range(0..domain)).collect()))
            .collect();
        rows.sort();
        rows
    }

    fn batched(rows: Vec<Row>, key_len: usize, batch_size: usize) -> FlatBatches {
        Run::from_sorted_rows(rows, key_len).batches(batch_size)
    }

    fn rows_of(pairs: &[(Row, Ovc)]) -> Vec<Row> {
        pairs.iter().map(|(r, _)| r.clone()).collect()
    }

    #[test]
    fn batch_filter_matches_row_filter_rows_codes_and_stats() {
        for batch_size in [1, 3, 7, 64] {
            let rows = sorted_rows(300, 11, 3, 5);
            let keep = |r: &[Value]| r[1].is_multiple_of(2);
            let expect: Vec<Row> = rows.iter().filter(|r| keep(r.cols())).cloned().collect();
            let stats = Stats::new_shared();
            let pairs = collect_batch_pairs(BatchFilter::new(
                batched(rows, 3, batch_size),
                keep,
                Arc::clone(&stats),
            ));
            assert_eq!(rows_of(&pairs), expect, "batch={batch_size}");
            assert_codes_exact_spec(&pairs, &SortSpec::asc(3));
            // One code operation per input row, nothing else.
            let counted = StatsSnapshot {
                ovc_cmps: 300,
                ..StatsSnapshot::default()
            };
            assert_eq!(stats.snapshot(), counted, "batch={batch_size}");
        }
    }

    #[test]
    fn batch_project_matches_row_project() {
        for batch_size in [1, 5, 300] {
            let rows = sorted_rows(300, 12, 4, 6);
            let expect: Vec<Row> = rows.iter().map(|r| r.project(&[0, 1, 3])).collect();
            let spec = SortSpec::asc(2);
            let batch_op = BatchProject::new(batched(rows, 4, batch_size), 2, vec![0, 1, 3]);
            assert_eq!(batch_op.sort_spec(), spec);
            let pairs = collect_batch_pairs(batch_op);
            assert_eq!(rows_of(&pairs), expect, "batch={batch_size}");
            assert_codes_exact_spec(&pairs, &spec);
        }
    }

    #[test]
    fn batch_clamp_matches_row_clamp() {
        for batch_size in [1, 4, 17] {
            let rows = sorted_rows(250, 13, 3, 4);
            let pairs =
                collect_batch_pairs(BatchClampKey::new(batched(rows.clone(), 3, batch_size), 1));
            assert_eq!(rows_of(&pairs), rows, "batch={batch_size}");
            assert_codes_exact_spec(&pairs, &SortSpec::asc(1));
        }
    }

    #[test]
    fn batch_dedup_matches_row_dedup_on_duplicate_heavy_input() {
        for batch_size in [1, 2, 9, 1024] {
            let rows = sorted_rows(400, 14, 2, 3); // tiny domain: mostly duplicates
            let mut expect = rows.clone();
            expect.dedup();
            let pairs = collect_batch_pairs(BatchDedup::new(
                batched(rows, 2, batch_size),
                Stats::new_shared(),
            ));
            assert_eq!(rows_of(&pairs), expect, "batch={batch_size}");
            assert_codes_exact_spec(&pairs, &SortSpec::asc(2));
        }
    }

    #[test]
    fn batch_take_truncates_to_exactly_k() {
        let rows = sorted_rows(100, 15, 2, 10);
        let all = collect_pairs(VecStream::from_sorted_rows(rows.clone(), 2));
        for (k, batch_size) in [
            (0usize, 7usize),
            (1, 7),
            (23, 7),
            (100, 7),
            (100, 1),
            (7, 100),
        ] {
            let got = collect_batch_pairs(BatchTake::new(batched(rows.clone(), 2, batch_size), k));
            assert_eq!(got, all[..k.min(all.len())], "k={k} batch={batch_size}");
        }
    }

    /// The §4.10 split oracle: partition `p` holds exactly the input rows
    /// routed to `p`, in input order, and its codes are the codes
    /// re-derived from those rows alone.
    fn assert_split_exact(
        input: &[Row],
        got: &[Vec<(Row, Ovc)>],
        mut route: impl FnMut(&[Value]) -> usize,
        spec: &SortSpec,
    ) {
        for (p, pairs) in got.iter().enumerate() {
            let expect: Vec<&Row> = input.iter().filter(|r| route(r.cols()) == p).collect();
            let rows: Vec<&Row> = pairs.iter().map(|(r, _)| r).collect();
            assert_eq!(rows, expect, "partition {p}");
            assert_codes_exact_spec(pairs, spec);
        }
    }

    #[test]
    fn route_batches_matches_serial_split_codes_and_hash() {
        let parts = 4;
        for batch_size in [1, 3, 64] {
            let rows = sorted_rows(500, 16, 3, 7);
            let mut got: Vec<Vec<(Row, Ovc)>> = vec![Vec::new(); parts];
            let mut max_seen = 0usize;
            route_batches(
                batched(rows.clone(), 3, batch_size),
                parts,
                by_cols_hash(vec![0, 2], parts),
                batch_size,
                |p, batch| {
                    assert!(!batch.is_empty());
                    max_seen = max_seen.max(batch.len());
                    got[p].extend(batch.iter().map(|(r, c)| (Row::from_slice(r), c)));
                    true
                },
            )
            .unwrap();
            assert!(max_seen <= batch_size);
            let route = by_cols_hash(vec![0, 2], parts);
            assert_split_exact(&rows, &got, route, &SortSpec::asc(3));
        }
    }

    /// Once every consumer is gone the producer stops pulling: at most
    /// one batch is read after the last partition closes, instead of
    /// the rest of the input.
    #[test]
    fn route_batches_stops_pulling_once_every_partition_closes() {
        struct Counting<'a, B> {
            inner: B,
            pulls: &'a std::cell::Cell<usize>,
        }
        impl<B: BatchStream> BatchStream for Counting<'_, B> {
            fn next_batch(&mut self) -> Result<Option<FlatRows>, ExecError> {
                self.pulls.set(self.pulls.get() + 1);
                self.inner.next_batch()
            }
            fn sort_spec(&self) -> SortSpec {
                self.inner.sort_spec()
            }
        }
        for parts in [1, 3] {
            let pulls = std::cell::Cell::new(0);
            let mut pulls_at_close = 0;
            let input = Counting {
                inner: batched(sorted_rows(1000, 21, 2, 50), 2, 10),
                pulls: &pulls,
            };
            route_batches(input, parts, by_cols_hash(vec![0, 1], parts), 10, |_, _| {
                pulls_at_close = pulls.get();
                false
            })
            .unwrap();
            assert!(pulls_at_close > 0, "parts={parts}: every partition sent");
            assert!(
                pulls.get() <= pulls_at_close + 1,
                "parts={parts}: {} pulls, the last partition closed at pull {pulls_at_close}",
                pulls.get()
            );
        }
    }

    /// One exchange and one grouping kernel: the batch exchange's code
    /// and `group.rs` name nothing of the row world, so no row-at-a-time
    /// shuffle or grouping can grow back beside them.
    #[test]
    fn the_batch_exchange_names_no_row_type() {
        let banned = ["OvcRow", "OvcStream", "VecStream", "Row"];
        for (file, source) in [
            ("batch.rs", include_str!("batch.rs")),
            ("exchange.rs", include_str!("exchange.rs")),
            ("group.rs", include_str!("group.rs")),
        ] {
            let (code, _) = source
                .split_once("#[cfg(test)]")
                .expect("the test module follows the code");
            for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                assert!(
                    !banned.contains(&word),
                    "{file} names `{word}` outside its tests"
                );
            }
        }
    }

    #[test]
    fn route_batches_closed_partition_keeps_others_exact() {
        let parts = 3;
        let rows = sorted_rows(200, 17, 2, 5);
        let mut got: Vec<Vec<(Row, Ovc)>> = vec![Vec::new(); parts];
        route_batches(
            batched(rows, 2, 4),
            parts,
            by_cols_hash(vec![0, 1], parts),
            4,
            |p, batch| {
                if p == 1 {
                    return false; // partition 1's consumer is gone
                }
                got[p].extend(batch.iter().map(|(r, c)| (Row::from_slice(r), c)));
                true
            },
        )
        .unwrap();
        assert!(got[1].is_empty());
        for p in [0, 2] {
            assert!(!got[p].is_empty());
            assert_codes_exact_spec(&got[p], &SortSpec::asc(2));
        }
    }

    #[test]
    fn batch_channel_stream_yields_batches_in_order() {
        let (tx, rx) = std::sync::mpsc::channel();
        let rows = sorted_rows(50, 18, 2, 9);
        let expect = collect_pairs(VecStream::from_sorted_rows(rows.clone(), 2));
        let mut batcher = batched(rows, 2, 8);
        while let Some(b) = batcher.next_batch().unwrap() {
            tx.send(Ok(b)).unwrap();
        }
        drop(tx);
        let stream = BatchChannelStream::new(rx, SortSpec::asc(2), None);
        assert_eq!(stream.sort_spec(), SortSpec::asc(2));
        assert_eq!(collect_batch_pairs(stream), expect);
    }

    #[test]
    fn batch_channel_poison_frame_surfaces_typed_error() {
        let (tx, rx) = std::sync::mpsc::channel();
        let rows = sorted_rows(20, 20, 2, 9);
        let mut batcher = batched(rows, 2, 8);
        let first = batcher.next_batch().unwrap().unwrap();
        tx.send(Ok(first)).unwrap();
        let died = ExecError::WorkerPanic {
            detail: "producer died".into(),
        };
        tx.send(Err(died.clone())).unwrap();
        drop(tx);
        let mut stream = BatchChannelStream::new(rx, SortSpec::asc(2), None);
        assert!(
            matches!(stream.next_batch(), Ok(Some(_))),
            "clean batch before poison"
        );
        assert_eq!(
            stream.next_batch().map(|_| ()),
            Err(died),
            "the producer's error"
        );
    }

    #[test]
    fn filter_over_desc_spec_stays_exact() {
        let mut rows = sorted_rows(200, 19, 2, 6);
        rows.reverse();
        let spec = SortSpec::desc(2);
        let input = Run::from_sorted_rows_spec(rows, spec.clone()).batches(5);
        let op = BatchFilter::new(input, |r: &[Value]| r[0] != 3, Stats::new_shared());
        assert_eq!(op.sort_spec(), spec);
        let pairs = collect_batch_pairs(op);
        assert_codes_exact_spec(&pairs, &spec);
    }
}
