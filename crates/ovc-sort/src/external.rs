//! External merge sort with offset-value coding (Sections 3 and 5).
//!
//! The F1 sort operator this models "uses external merge sort with
//! tree-of-losers priority queues and offset-value coding for both run
//! generation and merging".  The sorter:
//!
//! 1. generates initial runs within a row-count memory budget (strategy
//!    selectable: OVC priority queue, quicksort baseline, or replacement
//!    selection), sorting each workspace on [`SortConfig::threads`]
//!    threads;
//! 2. if more than one run exists, spills runs to a [`RunStorage`] and
//!    merges with bounded fan-in, spilling intermediate merge results,
//!    until at most `fan_in` runs remain;
//! 3. hands the final merge (or the single in-memory run) over as
//!    [`SortOutput`]: flat batches for a pipeline
//!    ([`SortOutput::batches`]), or one flat [`Run`]
//!    ([`external_sort_spec_to_run`]).
//!
//! Sorts take batches: [`try_sort_batches`] is the one sort, serial or
//! parallel, and boxed rows reach it cut into batches at the library's
//! edge ([`RowBatches`]).  The thread count changes nothing but the wall
//! time and the run-generation merge's comparisons: rows, codes, run
//! boundaries and every spill counter are those of one thread.
//!
//! Spill volume is accounted in [`Stats`]; the Figure 6 experiment's
//! "sort-based plan spills each input row only once" claim is asserted on
//! these counters.

use std::sync::Arc;

use ovc_core::fault::{self, FaultPoint};
use ovc_core::{BatchStream, ExecError, Row, RowBatches, SortSpec, Stats};

use crate::merge::merge_runs_spec;
use crate::run_gen::{generate_runs_from, RunGenStrategy};
use crate::runs::Run;
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
    /// Threads sorting each run-generation workspace (1 = the caller's
    /// only; replacement selection requires 1).
    pub threads: usize,
}

impl SortConfig {
    /// A sensible default: OVC run generation, fan-in 128.
    pub fn new(key_len: usize, memory_rows: usize) -> Self {
        SortConfig {
            key_len,
            memory_rows,
            fan_in: 128,
            strategy: RunGenStrategy::OvcPriorityQueue,
            threads: 1,
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

    /// Sort each run-generation workspace on `threads` threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
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
    /// The input fit in memory: a single resident run.
    Memory(Run),
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
    /// No row is boxed.  Panics if `batch_size` is zero.
    pub fn batches(self, batch_size: usize) -> Box<dyn BatchStream + Send> {
        assert!(batch_size > 0, "batch size must be positive");
        match self {
            SortOutput::Memory(run) => Box::new(run.batches(batch_size)),
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
            return SortOutput::Memory(run);
        }
        let merge = merge_runs_spec(runs, spec, stats);
        if distinct {
            SortOutput::MergeDistinct(merge)
        } else {
            SortOutput::Merge(merge)
        }
    }
}

/// The one external sort, over flat batches each copied once into run
/// generation's workspace (`config.key_len` is ignored in favour of
/// `spec.len()`), each workspace sorted on `config.threads` threads.
/// With `distinct` it is Figure 5's in-sort duplicate removal: runs,
/// merge levels and the final merge drop duplicate-coded rows — by code
/// inspection alone — before anything spills twice.  An input error, a
/// run-generation worker's panic or a spill-device error is returned.
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
    let runs = generate_runs_from(input, spec, &config, distinct, stats)?;
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

/// Externally sort boxed rows all the way into a single **flat** run:
/// the rows enter [`try_sort_batches`] cut into `config.memory_rows`-row
/// batches, and the final merge gathers straight into one flat buffer.
/// This is the row-input entry point of the `bench/` harness.  Panics
/// with the error's message if the spill device fails.
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
    let input = RowBatches::new(input, config.memory_rows);
    let sorted = try_sort_batches(input, config, spec, false, storage, stats);
    match sorted.unwrap_or_else(|err| panic!("{err}")) {
        SortOutput::Memory(run) => run,
        SortOutput::Merge(merge) => merge.into_run(),
        SortOutput::MergeDistinct(merge) => merge.into_run_distinct(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{FlatRows, Ovc, StatsSnapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
            .collect()
    }

    /// Sort boxed rows as the executor does: `memory_rows`-row input
    /// batches into [`try_sort_batches`], the output drained batch by
    /// batch.
    fn sort_pairs(
        rows: Vec<Row>,
        cfg: SortConfig,
        spec: &SortSpec,
        stats: &Arc<Stats>,
    ) -> Vec<(Row, Ovc)> {
        let mut storage = MemoryRunStorage::new(Arc::clone(stats));
        let input = RowBatches::new(rows, cfg.memory_rows);
        let out = try_sort_batches(input, cfg, spec, false, &mut storage, stats).unwrap();
        collect_batch_pairs(out.batches(1024))
    }

    /// Sort `rows` under `cfg` at threads 1, 2, 4 and 8: rows, codes and
    /// every spill counter are those of one thread, and the slice merges
    /// at most double the column comparisons.  Returns the pairs and the
    /// one-thread counters.
    fn sort_at_every_thread_count(
        rows: &[Row],
        cfg: SortConfig,
        spec: &SortSpec,
        distinct: bool,
    ) -> (Vec<(Row, Ovc)>, StatsSnapshot) {
        let sort = |threads: usize| {
            let stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let input = RowBatches::new(rows.to_vec(), cfg.memory_rows);
            let cfg = cfg.with_threads(threads);
            let out = try_sort_batches(input, cfg, spec, distinct, &mut storage, &stats);
            (
                collect_batch_pairs(out.unwrap().batches(1024)),
                stats.snapshot(),
            )
        };
        let (expect, one) = sort(1);
        for threads in [2, 4, 8] {
            let (pairs, got) = sort(threads);
            assert_eq!(pairs, expect, "threads={threads}");
            let spills = |s: &StatsSnapshot| (s.rows_spilled, s.bytes_spilled, s.rows_read_back);
            assert_eq!(spills(&got), spills(&one), "threads={threads}");
            assert!(
                got.col_value_cmps <= 2 * one.col_value_cmps,
                "threads={threads}: {} column comparisons against {}",
                got.col_value_cmps,
                one.col_value_cmps
            );
        }
        (expect, one)
    }

    fn check_sorted(pairs: &[(Row, Ovc)], input: &[Row], key_len: usize) {
        assert_codes_exact(pairs, key_len);
        let mut expect = input.to_vec();
        expect.sort();
        let mut got: Vec<Row> = pairs.iter().map(|(r, _)| r.clone()).collect();
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn in_memory_input_never_spills() {
        let rows = random_rows(100, 2, 10, 1);
        let cfg = SortConfig::new(2, 1000);
        let (out, stats) = sort_at_every_thread_count(&rows, cfg, &SortSpec::asc(2), false);
        check_sorted(&out, &rows, 2);
        assert_eq!(stats.rows_spilled, 0);
    }

    #[test]
    fn spilling_input_spills_each_row_once_with_wide_fan_in() {
        let rows = random_rows(1000, 2, 10, 2);
        let cfg = SortConfig::new(2, 100);
        let (out, stats) = sort_at_every_thread_count(&rows, cfg, &SortSpec::asc(2), false);
        check_sorted(&out, &rows, 2);
        // 10 runs, fan-in 128: one spill level only.
        assert_eq!(stats.rows_spilled, 1000);
        assert_eq!(stats.rows_read_back, 1000);
        assert!(stats.col_value_cmps > 0);
    }

    /// 47 runs at fan-in 3: three merge levels, each re-spilling, at
    /// every thread count.
    #[test]
    fn narrow_fan_in_forces_multi_level_merge() {
        let rows = random_rows(3000, 2, 10, 3);
        let cfg = SortConfig::new(2, 64).with_fan_in(3);
        let (out, stats) = sort_at_every_thread_count(&rows, cfg, &SortSpec::asc(2), false);
        check_sorted(&out, &rows, 2);
        assert!(
            stats.rows_spilled > 3 * 3000,
            "intermediate merges must re-spill: {}",
            stats.rows_spilled
        );
        assert_eq!(stats.rows_read_back, stats.rows_spilled);
    }

    /// In-sort duplicate removal at every thread count: the sorted,
    /// deduplicated input with exact codes, whatever the output batch
    /// size.
    #[test]
    fn distinct_sort_drops_every_duplicate_at_every_thread_count() {
        let rows = random_rows(4000, 2, 9, 3);
        let mut expect = rows.clone();
        expect.sort();
        expect.dedup();
        let spec = SortSpec::asc(2);
        let cfg = SortConfig::new(2, 128).with_fan_in(8);
        let (pairs, _) = sort_at_every_thread_count(&rows, cfg, &spec, true);
        let got: Vec<Row> = pairs.iter().map(|(r, _)| r.clone()).collect();
        assert_eq!(got, expect);
        assert_codes_exact(&pairs, 2);
        // Smaller output batches drop the same duplicates in the merge.
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let input = RowBatches::new(rows, 128);
        let sorted = try_sort_batches(
            input,
            cfg.with_threads(4),
            &spec,
            true,
            &mut storage,
            &stats,
        );
        assert_eq!(collect_batch_pairs(sorted.unwrap().batches(100)), pairs);
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
            let out = sort_pairs(rows.clone(), cfg, &SortSpec::asc(3), &stats);
            check_sorted(&out, &rows, 3);
        }
    }

    #[test]
    fn empty_input() {
        let sort = |rows: &[Row], threads| {
            let cfg = SortConfig::new(2, 16).with_threads(threads);
            sort_pairs(rows.to_vec(), cfg, &SortSpec::asc(2), &Stats::new_shared())
        };
        assert!(sort(&[], 1).is_empty());
        assert!(sort(&[], 8).is_empty());
        assert_eq!(sort(&[Row::new(vec![7, 7])], 8).len(), 1);
        // More threads than rows: one row per slice.
        let few = random_rows(3, 2, 4, 5);
        assert_eq!(sort(&few, 64), sort(&few, 1));
    }

    #[test]
    fn spec_sort_matches_reference_order_for_mixed_directions() {
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::Direction;
        let rows = random_rows(600, 2, 9, 11);
        let spec = SortSpec::with_dirs(&[Direction::Desc, Direction::Asc]);
        for (label, spec) in [
            ("plain", spec.clone()),
            ("normalized", spec.with_normalized(true)),
            ("descending", SortSpec::desc(2)),
        ] {
            let cfg = SortConfig::new(2, 64).with_fan_in(4);
            let (pairs, _) = sort_at_every_thread_count(&rows, cfg, &spec, false);
            assert_codes_exact_spec(&pairs, &spec);
            let mut expect = rows.clone();
            expect.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
            let got: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
            assert_eq!(got, expect, "{label}");
        }
    }

    /// The one sort against the reference, on inputs drawn from
    /// `RANDOM_SEED`: rows, an ascending, descending or mixed spec (plain
    /// or normalized), the memory budget, the fan-in (resident, one-level
    /// and multi-level sorts), the strategy, the thread count and
    /// `distinct`.  The output must be the stable std sort of the input
    /// (deduplicated on the key when `distinct`) with exact codes, its
    /// spill counters those of one thread and its column comparisons at
    /// most double them.  A failure prints the seed.
    #[test]
    fn one_sort_matches_the_reference() {
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::Direction;
        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(52);
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..150 {
            let k = rng.gen_range(1..=3usize);
            let distinct = rng.gen_bool(0.3);
            let width = k + usize::from(!distinct && rng.gen_bool(0.5));
            let dirs: Vec<Direction> = (0..k)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        Direction::Asc
                    } else {
                        Direction::Desc
                    }
                })
                .collect();
            let spec = SortSpec::with_dirs(&dirs).with_normalized(rng.gen_bool(0.3));
            let n = rng.gen_range(0..700);
            let rows = random_rows(n, width, rng.gen_range(1..12), rng.gen());
            let strategy = if rng.gen_bool(0.5) {
                RunGenStrategy::OvcPriorityQueue
            } else {
                RunGenStrategy::Quicksort
            };
            let cfg = SortConfig::new(k, rng.gen_range(1..200))
                .with_fan_in(rng.gen_range(2..10))
                .with_strategy(strategy);
            let (threads, batch) = (rng.gen_range(1..=8), rng.gen_range(1..300));
            let sort = |threads| {
                let stats = Stats::new_shared();
                let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
                let input = RowBatches::new(rows.clone(), batch);
                let cfg = cfg.with_threads(threads);
                let out = try_sort_batches(input, cfg, &spec, distinct, &mut storage, &stats);
                (
                    collect_batch_pairs(out.unwrap().batches(64)),
                    stats.snapshot(),
                )
            };
            let label = format!(
                "seed {seed} case {case}: {n} rows, {spec}, {cfg:?}, {threads} threads, \
                 distinct {distinct}"
            );
            let (pairs, stats) = sort(threads);
            let mut expect = rows.clone();
            expect.sort_by(|a, b| spec.cmp_keys(a.key(k), b.key(k)));
            if distinct {
                expect.dedup_by(|a, b| a.key(k) == b.key(k));
            }
            let got: Vec<Row> = pairs.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(got, expect, "{label}");
            assert_codes_exact_spec(&pairs, &spec);
            let (_, one) = sort(1);
            let spills = |s: &StatsSnapshot| (s.rows_spilled, s.bytes_spilled, s.rows_read_back);
            assert_eq!(spills(&stats), spills(&one), "{label}");
            assert!(
                stats.col_value_cmps <= 2 * one.col_value_cmps,
                "{label}: {} column comparisons against {}",
                stats.col_value_cmps,
                one.col_value_cmps
            );
        }
    }

    /// The sort's two consumers see one output: the flat run of
    /// [`external_sort_spec_to_run`] (the benchmark's path) and the
    /// drained [`SortOutput::batches`] of [`try_sort_batches`] (the
    /// executor's) carry the same rows, codes and counters, for a
    /// resident sort (run slices) and a spilled one (merge-filled
    /// buffers) alike.
    #[test]
    fn the_flat_run_equals_the_drained_batches_for_resident_and_spilled_sorts() {
        let rows = random_rows(700, 2, 9, 13);
        let spec = SortSpec::asc(2);
        for memory_rows in [1000usize, 64] {
            let cfg = SortConfig::new(2, memory_rows).with_fan_in(4);
            let run_stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&run_stats));
            let run = external_sort_spec_to_run(rows.clone(), cfg, &spec, &mut storage, &run_stats);
            let expect = run.into_flat();
            for batch in [1usize, 7, 700, 5000] {
                let stats = Stats::new_shared();
                let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
                let input = RowBatches::new(rows.clone(), memory_rows);
                let sorted = try_sort_batches(input, cfg, &spec, false, &mut storage, &stats);
                let mut out = sorted.unwrap().batches(batch);
                assert_eq!(out.sort_spec(), spec);
                let mut got = FlatRows::new(2);
                while let Some(b) = out.next_batch().unwrap() {
                    assert!(!b.is_empty() && b.len() <= batch);
                    got.extend_from(&b);
                }
                assert_eq!(got, expect, "memory={memory_rows} batch={batch}");
                assert_eq!(stats.snapshot(), run_stats.snapshot());
            }
        }
    }

    /// One coded run type, and sorts that take batches: the sorts' code
    /// names nothing of the row-stream world, so no row cursor or
    /// row-iterator sort can grow back beside the batch ones.  Boxed
    /// `Row` input stays allowed: it is the library's edge.
    #[test]
    fn the_sorts_name_no_row_stream_type() {
        let banned = [
            "OvcRow",
            "OvcStream",
            "VecStream",
            "RunCursor",
            "CodedBatch",
        ];
        for (file, source) in [
            ("external.rs", include_str!("external.rs")),
            ("merge.rs", include_str!("merge.rs")),
            ("run_gen.rs", include_str!("run_gen.rs")),
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
        let err = try_sort_batches(
            RowBatches::new(rows, 50),
            SortConfig::new(2, 50),
            &SortSpec::asc(2),
            false,
            &mut BrokenStorage,
            &stats,
        )
        .map(|_| ())
        .expect_err("spilling sort on a broken device must fail");
        assert_eq!(err.reason(), "spill_io");
    }

    /// An input that fails after two batches, mid-way through the first
    /// run's workspace: the sort returns that error under every run
    /// generation strategy, and nothing spills.
    #[test]
    fn input_error_mid_run_generation_is_returned() {
        use crate::RunGenStrategy::*;
        for strategy in [OvcPriorityQueue, Quicksort, ReplacementSelection] {
            let stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let input = crate::FailAfter {
                inner: RowBatches::new(random_rows(500, 2, 10, 25), 64),
                left: 2,
            };
            let cfg = SortConfig::new(2, 100).with_strategy(strategy);
            let got = try_sort_batches(input, cfg, &SortSpec::asc(2), false, &mut storage, &stats);
            assert_eq!(got.map(|_| ()), Err(ExecError::Cancelled), "{strategy:?}");
            assert_eq!(stats.rows_spilled(), 0, "{strategy:?}");
        }
    }

    /// `fan_in` is a public field, so a struct literal can bypass
    /// `with_fan_in`'s clamp: 0 and 1 must sort exactly like fan-in 2
    /// (1 used to loop forever, 0 panicked in `chunks`).
    #[test]
    fn struct_literal_fan_in_below_two_merges_like_fan_in_two() {
        let rows = random_rows(600, 2, 9, 24);
        let sort = |cfg: SortConfig| {
            let stats = Stats::new_shared();
            let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
            let input = RowBatches::new(rows.clone(), 64);
            let out = try_sort_batches(input, cfg, &SortSpec::asc(2), false, &mut storage, &stats)
                .expect("in-memory spill");
            (collect_batch_pairs(out.batches(1024)), stats.snapshot())
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
        let spec = SortSpec::asc(2);
        let _ = sort_pairs(rows.clone(), SortConfig::new(2, 100), &spec, &s_pq);
        let rs = SortConfig::new(2, 100).with_strategy(RunGenStrategy::ReplacementSelection);
        let _ = sort_pairs(rows, rs, &spec, &s_rs);
        // Same spilled row count (one pass), but replacement selection
        // produced fewer, longer runs.  We can't observe run counts through
        // the public API here, so assert the weaker, always-true property:
        assert_eq!(s_pq.rows_spilled(), 2000);
        assert_eq!(s_rs.rows_spilled(), 2000);
    }
}
