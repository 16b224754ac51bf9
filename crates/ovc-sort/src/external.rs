//! External merge sort with offset-value coding (Sections 3 and 5).
//!
//! The F1 sort operator this models "uses external merge sort with
//! tree-of-losers priority queues and offset-value coding for both run
//! generation and merging".  The sorter:
//!
//! 1. generates initial runs within a row-count memory budget (strategy
//!    selectable: OVC priority queue, quicksort baseline, or replacement
//!    selection);
//! 2. if more than one run exists, spills runs to a [`RunStorage`] and
//!    merges with bounded fan-in, spilling intermediate merge results,
//!    until at most `fan_in` runs remain;
//! 3. hands the final merge (or the single in-memory run) over as
//!    [`SortOutput`]: flat batches for a pipeline
//!    ([`SortOutput::batches`]), or a coded [`OvcStream`] of boxed rows.
//!
//! Spill volume is accounted in [`Stats`]; the Figure 6 experiment's
//! "sort-based plan spills each input row only once" claim is asserted on
//! these counters.

use std::sync::Arc;

use ovc_core::ctx::propagate;
use ovc_core::fault::{self, FaultPoint};
use ovc_core::{BatchStream, ExecError, OvcRow, OvcStream, Row, RowBatches, SortSpec, Stats};

use crate::merge::merge_runs_spec;
use crate::run_gen::{generate_runs_from, RunGenStrategy};
use crate::runs::{Run, RunCursor};
use crate::tree::FlatMerge;

/// Configuration of an external sort.
#[derive(Clone, Copy, Debug)]
pub struct SortConfig {
    /// Number of leading key columns (code arity).
    pub key_len: usize,
    /// Memory budget in rows for run generation and for deciding whether
    /// the input fits in memory.
    pub memory_rows: usize,
    /// Maximum merge fan-in.
    pub fan_in: usize,
    /// Run-generation strategy.
    pub strategy: RunGenStrategy,
}

impl SortConfig {
    /// A sensible default: OVC run generation, fan-in 128.
    pub fn new(key_len: usize, memory_rows: usize) -> Self {
        SortConfig {
            key_len,
            memory_rows,
            fan_in: 128,
            strategy: RunGenStrategy::OvcPriorityQueue,
        }
    }

    /// Override the merge fan-in.
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in.max(2);
        self
    }

    /// Override the run-generation strategy.
    pub fn with_strategy(mut self, strategy: RunGenStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Where spilled runs live.  The in-memory device below serves simulation;
/// `ovc-storage` provides an encoding-faithful implementation with byte
/// accounting and an optional file-backed variant.
///
/// Devices are `Send`, so a device and its stored runs can move between
/// threads.  All implementations in this workspace account through
/// `Arc<Stats>`, so the bound costs nothing.
/// Both operations are fallible: real devices hit I/O errors on write
/// and detect corruption on read-back, and both must surface as a typed
/// [`ExecError`] rather than a panic or garbage rows.  The sort returns
/// it; the planned executor recovers by re-lowering the sort's input and
/// sorting it resident (DESIGN.md §14).
pub trait RunStorage: Send {
    /// Write a run; returns its handle.
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError>;
    /// Read a run back (consuming it from storage).
    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError>;
    /// Number of stored runs still readable.
    fn stored_runs(&self) -> usize;
}

/// In-memory "external" storage that accounts spill traffic in [`Stats`].
pub struct MemoryRunStorage {
    runs: Vec<Option<Run>>,
    stats: Arc<Stats>,
}

impl MemoryRunStorage {
    /// New storage device accounting into `stats`.
    pub fn new(stats: Arc<Stats>) -> Self {
        MemoryRunStorage {
            runs: Vec::new(),
            stats,
        }
    }
}

impl RunStorage for MemoryRunStorage {
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillWrite)?;
        self.stats.count_spill(run.len() as u64, run.spill_bytes());
        self.runs.push(Some(run));
        Ok(self.runs.len() - 1)
    }

    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError> {
        fault::maybe_spill_io(FaultPoint::SpillRead)?;
        let run = self.runs[handle].take().expect("run already consumed");
        self.stats
            .count_read_back(run.len() as u64, run.spill_bytes());
        Ok(run)
    }

    fn stored_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.is_some()).count()
    }
}

/// The coded output of an external sort.
pub enum SortOutput {
    /// The input fit in memory: a single run streams out directly.
    Memory(RunCursor),
    /// Final merge over the last `<= fan_in` spilled runs — flat runs
    /// merged in place, rows copied out only as they stream out.
    Merge(FlatMerge),
    /// As [`SortOutput::Merge`] for a sort with in-sort duplicate removal
    /// (Figure 5): every run entering the merge is already duplicate-free,
    /// and the duplicates the merge itself surfaces — one integer test per
    /// winner — are dropped on the way out.
    MergeDistinct(FlatMerge),
}

impl SortOutput {
    /// Hand the sorted rows to a batch pipeline: flat batches of at most
    /// `batch_size` rows, codes exact across the seams — slices of the
    /// resident run, or buffers the final merge fills winner by winner.
    /// No row is boxed.  Panics if `batch_size` is zero or rows were
    /// already taken through the [`Iterator`] impl.
    pub fn batches(self, batch_size: usize) -> Box<dyn BatchStream + Send> {
        assert!(batch_size > 0, "batch size must be positive");
        match self {
            SortOutput::Memory(c) => Box::new(c.into_run().batches(batch_size)),
            SortOutput::Merge(m) => Box::new(m.batches(batch_size, false)),
            SortOutput::MergeDistinct(m) => Box::new(m.batches(batch_size, true)),
        }
    }

    /// The output over a sort's last `<= fan_in` runs: a lone run streams
    /// out resident, more are merged (dropping duplicates on the way out
    /// when `distinct`).
    pub(crate) fn finish(
        mut runs: Vec<Run>,
        spec: &SortSpec,
        distinct: bool,
        stats: &Arc<Stats>,
    ) -> SortOutput {
        if runs.len() <= 1 {
            let run = runs.pop().unwrap_or_else(|| Run::empty_spec(spec.clone()));
            return SortOutput::Memory(run.cursor());
        }
        let merge = merge_runs_spec(runs, spec, stats);
        if distinct {
            SortOutput::MergeDistinct(merge)
        } else {
            SortOutput::Merge(merge)
        }
    }
}

impl Iterator for SortOutput {
    type Item = OvcRow;
    fn next(&mut self) -> Option<OvcRow> {
        match self {
            SortOutput::Memory(c) => c.next(),
            SortOutput::Merge(t) => t.next(),
            SortOutput::MergeDistinct(t) => t.find(|r| !r.code.is_duplicate()),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SortOutput::Memory(c) => c.size_hint(),
            SortOutput::Merge(t) => t.size_hint(),
            SortOutput::MergeDistinct(t) => (0, t.size_hint().1),
        }
    }
}

impl OvcStream for SortOutput {
    fn key_len(&self) -> usize {
        self.sort_spec().len()
    }
    fn sort_spec(&self) -> SortSpec {
        match self {
            SortOutput::Memory(c) => c.sort_spec(),
            SortOutput::Merge(t) | SortOutput::MergeDistinct(t) => t.sort_spec(),
        }
    }
}

/// Externally sort `input`, producing a coded stream.
///
/// If the input fits the memory budget the sort never spills; otherwise
/// initial runs spill once and intermediate merge steps (only needed when
/// the run count exceeds the fan-in) spill again, exactly like the
/// textbook merge sort the paper builds on.
pub fn external_sort<I, S>(
    input: I,
    config: SortConfig,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> SortOutput
where
    I: IntoIterator<Item = Row>,
    S: RunStorage,
{
    let spec = SortSpec::asc(config.key_len);
    external_sort_spec(input, config, &spec, storage, stats)
}

/// Convenience: sort and collect (tests, small inputs).
pub fn external_sort_collect<I>(input: I, config: SortConfig, stats: &Arc<Stats>) -> Vec<OvcRow>
where
    I: IntoIterator<Item = Row>,
{
    let mut storage = MemoryRunStorage::new(Arc::clone(stats));
    external_sort(input, config, &mut storage, stats).collect()
}

/// Direction-aware [`external_sort`]: the same run-generation / spill /
/// bounded-fan-in merge cascade under an arbitrary leading-prefix
/// [`SortSpec`] (mixed ascending/descending directions, optional
/// normalized-key run generation).  `config.key_len` is ignored in
/// favour of `spec.len()`.
pub fn external_sort_spec<I, S>(
    input: I,
    config: SortConfig,
    spec: &SortSpec,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> SortOutput
where
    I: IntoIterator<Item = Row>,
    S: RunStorage,
{
    try_external_sort_spec(input, config, spec, storage, stats).unwrap_or_else(|err| propagate(err))
}

/// Fallible [`external_sort_spec`]: spill-device failures come back as a
/// typed [`ExecError`] instead of unwinding (the row-input adapter of
/// [`try_sort_batches`]).
pub fn try_external_sort_spec<I, S>(
    input: I,
    config: SortConfig,
    spec: &SortSpec,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> Result<SortOutput, ExecError>
where
    I: IntoIterator<Item = Row>,
    S: RunStorage,
{
    let input = RowBatches::new(input, config.memory_rows);
    try_sort_batches(input, config, spec, false, storage, stats)
}

/// The one external sort, over flat batches each copied once into run
/// generation's workspace (`config.key_len` is ignored in favour of
/// `spec.len()`).  With `distinct` it is Figure 5's in-sort duplicate
/// removal: runs, merge levels and the final merge drop duplicate-coded
/// rows — by code inspection alone — before anything spills twice.
pub fn try_sort_batches<B, S>(
    input: B,
    config: SortConfig,
    spec: &SortSpec,
    distinct: bool,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> Result<SortOutput, ExecError>
where
    B: BatchStream,
    S: RunStorage,
{
    let mut runs = generate_runs_from(input, spec, config.memory_rows, config.strategy, stats);
    if distinct {
        runs = runs.into_iter().map(Run::into_distinct).collect();
    }
    if runs.len() <= 1 {
        return Ok(SortOutput::finish(runs, spec, distinct, stats));
    }
    // `fan_in` is a public field: a merge of one run per chunk would never
    // shrink the level, and `chunks(0)` panics.
    let fan_in = config.fan_in.max(2);
    let mut handles = Vec::with_capacity(runs.len());
    for run in runs {
        handles.push(storage.write_run(run)?);
    }
    while handles.len() > fan_in {
        let mut next_level = Vec::new();
        for chunk in handles.chunks(fan_in) {
            let mut level_runs = Vec::with_capacity(chunk.len());
            for &h in chunk {
                level_runs.push(storage.read_run(h)?);
            }
            // Intermediate merge levels stay flat end-to-end: winner rows
            // copy between contiguous buffers, nothing is boxed.
            let merge = merge_runs_spec(level_runs, spec, stats);
            let merged = if distinct {
                merge.into_run_distinct()
            } else {
                merge.into_run()
            };
            next_level.push(storage.write_run(merged)?);
        }
        handles = next_level;
    }
    let mut final_runs = Vec::with_capacity(handles.len());
    for h in handles {
        final_runs.push(storage.read_run(h)?);
    }
    Ok(SortOutput::finish(final_runs, spec, distinct, stats))
}

/// Externally sort `input` all the way into a single **flat** run — the
/// allocation-free variant of [`external_sort_spec`] for consumers that
/// keep working on the contiguous layout (the `bench/` harness, storage
/// loads).  The final merge gathers straight into one flat buffer
/// instead of streaming boxed [`OvcRow`]s.
pub fn external_sort_spec_to_run<I, S>(
    input: I,
    config: SortConfig,
    spec: &SortSpec,
    storage: &mut S,
    stats: &Arc<Stats>,
) -> Run
where
    I: IntoIterator<Item = Row>,
    S: RunStorage,
{
    match external_sort_spec(input, config, spec, storage, stats) {
        SortOutput::Memory(cursor) => cursor.into_run(),
        SortOutput::Merge(merge) => merge.into_run(),
        SortOutput::MergeDistinct(merge) => merge.into_run_distinct(),
    }
}

/// Convenience: spec-aware sort and collect.
pub fn external_sort_spec_collect<I>(
    input: I,
    config: SortConfig,
    spec: &SortSpec,
    stats: &Arc<Stats>,
) -> Vec<OvcRow>
where
    I: IntoIterator<Item = Row>,
{
    let mut storage = MemoryRunStorage::new(Arc::clone(stats));
    external_sort_spec(input, config, spec, &mut storage, stats).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::Ovc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
            .collect()
    }

    fn check_sorted(out: &[OvcRow], input: &[Row], key_len: usize) {
        let pairs: Vec<(Row, Ovc)> = out.iter().map(|r| (r.row.clone(), r.code)).collect();
        assert_codes_exact(&pairs, key_len);
        let mut expect = input.to_vec();
        expect.sort();
        let mut got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn in_memory_input_never_spills() {
        let rows = random_rows(100, 2, 10, 1);
        let stats = Stats::new_shared();
        let out = external_sort_collect(rows.clone(), SortConfig::new(2, 1000), &stats);
        check_sorted(&out, &rows, 2);
        assert_eq!(stats.rows_spilled(), 0);
    }

    #[test]
    fn spilling_input_spills_each_row_once_with_wide_fan_in() {
        let rows = random_rows(1000, 2, 10, 2);
        let stats = Stats::new_shared();
        let out = external_sort_collect(rows.clone(), SortConfig::new(2, 100), &stats);
        check_sorted(&out, &rows, 2);
        // 10 runs, fan-in 128: one spill level only.
        assert_eq!(stats.rows_spilled(), 1000);
        assert_eq!(stats.rows_read_back(), 1000);
    }

    #[test]
    fn narrow_fan_in_forces_multi_level_merge() {
        let rows = random_rows(1000, 2, 10, 3);
        let stats = Stats::new_shared();
        let cfg = SortConfig::new(2, 50).with_fan_in(4); // 20 runs, fan-in 4
        let out = external_sort_collect(rows.clone(), cfg, &stats);
        check_sorted(&out, &rows, 2);
        assert!(
            stats.rows_spilled() > 1000,
            "intermediate merges must re-spill"
        );
    }

    #[test]
    fn all_strategies_agree() {
        let rows = random_rows(500, 3, 6, 4);
        for strategy in [
            RunGenStrategy::OvcPriorityQueue,
            RunGenStrategy::Quicksort,
            RunGenStrategy::ReplacementSelection,
        ] {
            let stats = Stats::new_shared();
            let cfg = SortConfig::new(3, 64).with_strategy(strategy);
            let out = external_sort_collect(rows.clone(), cfg, &stats);
            check_sorted(&out, &rows, 3);
        }
    }

    #[test]
    fn empty_input() {
        let stats = Stats::new_shared();
        let out = external_sort_collect(Vec::<Row>::new(), SortConfig::new(1, 10), &stats);
        assert!(out.is_empty());
    }

    #[test]
    fn spec_sort_matches_reference_order_for_mixed_directions() {
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::{Direction, SortSpec};
        let rows = random_rows(600, 2, 9, 11);
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        for (label, spec) in [
            ("plain", spec.clone()),
            ("normalized", spec.with_normalized(true)),
        ] {
            let stats = Stats::new_shared();
            let cfg = SortConfig::new(2, 64).with_fan_in(4);
            let out = external_sort_spec_collect(rows.clone(), cfg, &spec, &stats);
            let pairs: Vec<(Row, Ovc)> = out.iter().map(|r| (r.row.clone(), r.code)).collect();
            assert_codes_exact_spec(&pairs, &spec);
            let mut expect = rows.clone();
            expect.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
            let got: Vec<Row> = out.into_iter().map(|r| r.row).collect();
            assert_eq!(got, expect, "{label}");
        }
    }

    #[test]
    fn spec_sort_on_ascending_spec_equals_plain_sort() {
        use ovc_core::SortSpec;
        let rows = random_rows(400, 2, 6, 12);
        let stats_a = Stats::new_shared();
        let stats_b = Stats::new_shared();
        let cfg = SortConfig::new(2, 50).with_fan_in(4);
        let plain = external_sort_collect(rows.clone(), cfg, &stats_a);
        let spec = external_sort_spec_collect(rows, cfg, &SortSpec::asc(2), &stats_b);
        assert_eq!(plain, spec, "rows and codes byte-identical");
        assert_eq!(stats_a.rows_spilled(), stats_b.rows_spilled());
    }

    /// The batch hand-over and the row iterator are two views of one
    /// output: same rows, codes and counters, for a resident sort (run
    /// slices) and a spilled one (merge-filled buffers) alike.
    #[test]
    fn batches_equal_the_row_stream_for_resident_and_spilled_sorts() {
        use ovc_core::FlatRows;
        let rows = random_rows(700, 2, 9, 13);
        for memory_rows in [1000usize, 64] {
            let cfg = SortConfig::new(2, memory_rows).with_fan_in(4);
            let row_stats = Stats::new_shared();
            let expect =
                FlatRows::from_ovc_rows(external_sort_collect(rows.clone(), cfg, &row_stats), 2);
            for batch in [1usize, 7, 700, 5000] {
                let stats = Stats::new_shared();
                let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
                let mut out = external_sort(rows.clone(), cfg, &mut storage, &stats).batches(batch);
                assert_eq!(out.sort_spec(), SortSpec::asc(2));
                let mut got = FlatRows::new(2);
                while let Some(b) = out.next_batch() {
                    assert!(!b.is_empty() && b.len() <= batch);
                    got.extend_from(&b);
                }
                assert_eq!(got, expect, "memory={memory_rows} batch={batch}");
                assert_eq!(stats.snapshot(), row_stats.snapshot());
            }
        }
    }

    /// A spill device whose every operation fails with a typed error.
    struct BrokenStorage;

    impl RunStorage for BrokenStorage {
        fn write_run(&mut self, _run: Run) -> Result<usize, ExecError> {
            Err(ExecError::SpillIo {
                detail: "device unplugged".into(),
            })
        }
        fn read_run(&mut self, _handle: usize) -> Result<Run, ExecError> {
            Err(ExecError::SpillIo {
                detail: "device unplugged".into(),
            })
        }
        fn stored_runs(&self) -> usize {
            0
        }
    }

    #[test]
    fn broken_storage_surfaces_typed_error() {
        let rows = random_rows(500, 2, 10, 21);
        let stats = Stats::new_shared();
        let err = try_external_sort_spec(
            rows,
            SortConfig::new(2, 50),
            &SortSpec::asc(2),
            &mut BrokenStorage,
            &stats,
        )
        .map(|_| ())
        .expect_err("spilling sort on a broken device must fail");
        assert_eq!(err.reason(), "spill_io");
    }

    /// `fan_in` is a public field, so a struct literal can bypass
    /// `with_fan_in`'s clamp: 0 and 1 must sort exactly like fan-in 2
    /// (1 used to loop forever, 0 panicked in `chunks`).
    #[test]
    fn struct_literal_fan_in_below_two_merges_like_fan_in_two() {
        use ovc_core::FlatRows;
        let rows = random_rows(600, 2, 9, 24);
        let sort = |cfg: SortConfig| {
            let stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let input = RowBatches::new(rows.clone(), 64);
            let out = try_sort_batches(input, cfg, &SortSpec::asc(2), false, &mut storage, &stats)
                .expect("in-memory spill");
            let got = FlatRows::from_ovc_rows(out.collect(), 2);
            (got, stats.snapshot())
        };
        let expect = sort(SortConfig::new(2, 50).with_fan_in(2));
        assert!(expect.1.rows_spilled > 600, "a multi-level merge");
        for fan_in in [0, 1] {
            let cfg = SortConfig {
                fan_in,
                ..SortConfig::new(2, 50)
            };
            assert_eq!(sort(cfg), expect, "fan_in {fan_in}");
        }
    }

    #[test]
    fn replacement_selection_spills_fewer_runs() {
        let rows = random_rows(2000, 2, 1000, 5);
        let s_pq = Stats::new_shared();
        let s_rs = Stats::new_shared();
        let mut st_pq = MemoryRunStorage::new(Arc::clone(&s_pq));
        let mut st_rs = MemoryRunStorage::new(Arc::clone(&s_rs));
        let _ = external_sort(rows.clone(), SortConfig::new(2, 100), &mut st_pq, &s_pq).count();
        let _ = external_sort(
            rows,
            SortConfig::new(2, 100).with_strategy(RunGenStrategy::ReplacementSelection),
            &mut st_rs,
            &s_rs,
        )
        .count();
        // Same spilled row count (one pass), but replacement selection
        // produced fewer, longer runs.  We can't observe run counts through
        // the public API here, so assert the weaker, always-true property:
        assert_eq!(s_pq.rows_spilled(), 2000);
        assert_eq!(s_rs.rows_spilled(), 2000);
    }
}
