//! Parallel run generation feeding the coded merge (Section 6 at scale).
//!
//! The paper's experiments run single-threaded, but the systems it builds
//! on do not: F1 Query runs exchange-parallel plans and Napa's LSM
//! compactions merge across workers.  This module parallelizes the
//! *embarrassingly parallel* half of an external sort — run generation —
//! with `std::thread` alone:
//!
//! 1. copy the input once into one resident flat buffer and give each
//!    worker a contiguous row range of it;
//! 2. each worker generates sorted, exactly-coded runs with the OVC
//!    tree-of-losers straight over its range, counting into the caller's
//!    [`Stats`] (the tournament's tally publishes once per run, so the
//!    workers touch the shared counters once per run);
//! 3. the caller's thread merges all runs with the existing bounded-fan-in
//!    coded merge.
//!
//! **Equivalence guarantee:** exact offset-value codes are a function of
//! the output row sequence alone (each code relates a row to its
//! predecessor), so a parallel sort produces rows *and codes* byte-for-byte
//! identical to the serial sort — asserted by `tests/parallel_properties.rs`
//! and relied on by `ovc-plan` when it picks a parallel plan.
//!
//! Counters differ from the serial sort in one deliberate way: the
//! parallel lowering keeps every run resident, so it **never spills**
//! (`ovc_plan::cost::sort_ovc_parallel` prices it accordingly), while
//! comparison counts obey the same `N × K` bound and land within
//! run-boundary effects of the serial totals.  Note `memory_rows` is an
//! accounting budget throughout this repository — the serial sorter's
//! `MemoryRunStorage` also holds "spilled" runs in RAM — so residency
//! here changes the counters, not the process footprint; real
//! out-of-core parallel spilling is a ROADMAP item.

use std::sync::Arc;
use std::thread;

use ovc_core::ctx::{self, ExecError};
use ovc_core::fault;
use ovc_core::{BatchStream, SortSpec, Stats};

use crate::external::SortOutput;
use crate::merge::merge_runs_to_run_spec;
use crate::run_gen::{resident, sort_windows};
use crate::runs::Run;

/// Generate initial runs with `threads` workers over contiguous row
/// ranges of one resident flat buffer — `threads` (at most one per row)
/// slices of `⌈rows / threads⌉` rows.  Each worker respects the
/// per-worker `memory_rows` budget, counts into `stats` and returns its
/// runs; once every worker has joined ([`ctx::join_all`]), the first
/// worker panic is returned as [`ExecError::WorkerPanic`].  One thread
/// sorts on the caller's.
fn parallel_runs(
    (rows, width, values): (usize, usize, Vec<u64>),
    spec: &SortSpec,
    threads: usize,
    memory_rows: usize,
    stats: &Arc<Stats>,
) -> Result<Vec<Run>, ExecError> {
    assert!(
        spec.is_prefix(),
        "run generation requires a leading-prefix sort spec, got {spec}"
    );
    if threads.clamp(1, rows.max(1)) <= 1 {
        let runs = sort_windows(&values, width, 0..rows, memory_rows, spec, stats);
        return Ok(runs);
    }
    let len = rows.div_ceil(threads.clamp(1, rows));
    let values = &values;
    let (results, failure) = thread::scope(|scope| {
        let workers: Vec<_> = (0..rows)
            .step_by(len)
            .map(|start| {
                scope.spawn(move || {
                    fault::maybe_panic();
                    let range = start..(start + len).min(rows);
                    Ok(sort_windows(values, width, range, memory_rows, spec, stats))
                })
            })
            .collect();
        ctx::join_all(workers)
    });
    let runs = results.into_iter().flatten().collect();
    failure.map_or(Ok(runs), Err)
}

/// Reduce a run set to at most `fan_in` runs by cascaded in-memory merges
/// (the bounded-fan-in regime of the external sorter, without the spill:
/// parallel run generation keeps everything resident).  `post` transforms
/// each merged run before the next level — identity for a plain sort,
/// duplicate removal for the distinct variant.
fn reduce_to_fan_in(
    mut runs: Vec<Run>,
    spec: &SortSpec,
    fan_in: usize,
    stats: &Arc<Stats>,
    post: impl Fn(Run) -> Run,
) -> Vec<Run> {
    let fan_in = fan_in.max(2);
    while runs.len() > fan_in {
        let mut next = Vec::with_capacity(runs.len().div_ceil(fan_in));
        let mut level = runs.into_iter();
        loop {
            let group: Vec<Run> = level.by_ref().take(fan_in).collect();
            if group.is_empty() {
                break;
            }
            next.push(post(merge_runs_to_run_spec(group, spec, stats)));
        }
        runs = next;
    }
    runs
}

/// The one parallel sort: copy `input` once into a resident flat buffer,
/// generate runs with `threads` workers over its row ranges, reduce them
/// to `fan_in` by resident merges and stream the final coded merge —
/// deduplicating at every step with `distinct`.  Rows and codes equal
/// [`crate::external::try_sort_batches`]'s over the same input; an input
/// error or a worker panic is returned.
pub fn parallel_sort_batches<B: BatchStream>(
    input: B,
    spec: &SortSpec,
    distinct: bool,
    threads: usize,
    memory_rows: usize,
    fan_in: usize,
    stats: &Arc<Stats>,
) -> Result<SortOutput, ExecError> {
    let runs = parallel_runs(resident(input)?, spec, threads, memory_rows, stats)?;
    let (runs, post): (Vec<Run>, fn(Run) -> Run) = if distinct {
        let runs = runs.into_iter().map(Run::into_distinct).collect();
        (runs, Run::into_distinct)
    } else {
        (runs, |run| run)
    };
    let runs = reduce_to_fan_in(runs, spec, fan_in, stats, post);
    Ok(SortOutput::finish(runs, spec, distinct, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_sort_batches, MemoryRunStorage, SortConfig};
    use ovc_core::batch::collect_batch_pairs;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Ovc, Row, RowBatches};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
            .collect()
    }

    /// [`parallel_sort_batches`] over `rows` in one input batch, drained.
    fn par_pairs(
        rows: &[Row],
        spec: &SortSpec,
        distinct: bool,
        (threads, memory_rows, fan_in): (usize, usize, usize),
        stats: &Arc<Stats>,
    ) -> Vec<(Row, Ovc)> {
        let input = RowBatches::new(rows.to_vec(), usize::MAX);
        let out = parallel_sort_batches(input, spec, distinct, threads, memory_rows, fan_in, stats);
        collect_batch_pairs(out.unwrap().batches(1024))
    }

    /// The serial sort of `rows` ([`try_sort_batches`] over
    /// `memory_rows`-row input batches), drained.
    fn serial_pairs(rows: &[Row], spec: &SortSpec, memory_rows: usize) -> Vec<(Row, Ovc)> {
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let input = RowBatches::new(rows.to_vec(), memory_rows);
        let cfg = SortConfig::new(spec.len(), memory_rows);
        let out = try_sort_batches(input, cfg, spec, false, &mut storage, &stats);
        collect_batch_pairs(out.unwrap().batches(1024))
    }

    #[test]
    fn parallel_sort_matches_serial_rows_and_codes() {
        let rows = random_rows(5000, 3, 12, 1);
        let spec = SortSpec::asc(3);
        for threads in [1usize, 2, 3, 4, 8] {
            let s_par = Stats::new_shared();
            let par = par_pairs(&rows, &spec, false, (threads, 256, 128), &s_par);
            let ser = serial_pairs(&rows, &spec, 256);
            assert_eq!(par, ser, "threads={threads}");
            assert_codes_exact(&par, 3);
        }
    }

    #[test]
    fn parallel_sort_counts_worker_comparisons() {
        // Every worker's counts land in the caller's counters; the N×K
        // bound holds regardless of the thread count.
        let rows = random_rows(2000, 2, 5, 2);
        let stats = Stats::new_shared();
        let _ = par_pairs(&rows, &SortSpec::asc(2), false, (4, 128, 128), &stats);
        assert!(stats.col_value_cmps() > 0, "worker counters merged");
        assert!(
            stats.col_value_cmps() <= 2000 * 2,
            "N*K bound: {}",
            stats.col_value_cmps()
        );
    }

    #[test]
    fn parallel_sort_distinct_matches_serial_distinct() {
        let rows = random_rows(4000, 2, 9, 3);
        let mut expect: Vec<Row> = rows.clone();
        expect.sort();
        expect.dedup();
        for threads in [2usize, 4] {
            let stats = Stats::new_shared();
            let spec = SortSpec::asc(2);
            let pairs = par_pairs(&rows, &spec, true, (threads, 128, 8), &stats);
            let got: Vec<Row> = pairs.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(got, expect, "threads={threads}");
            assert_codes_exact(&pairs, 2);
            // Smaller batches drop the same duplicates in the merge.
            let input = RowBatches::new(rows.clone(), usize::MAX);
            let sorted = parallel_sort_batches(input, &spec, true, threads, 128, 8, &stats);
            let mut batches = sorted.unwrap().batches(100);
            let mut flat = Vec::new();
            while let Some(b) = batches.next_batch().unwrap() {
                flat.extend(b.iter().map(|(cols, code)| (Row::from_slice(cols), code)));
            }
            assert_eq!(flat, pairs, "threads={threads}");
        }
    }

    #[test]
    fn narrow_fan_in_cascades_without_spilling() {
        let rows = random_rows(3000, 2, 10, 4);
        let stats = Stats::new_shared();
        let spec = SortSpec::asc(2);
        let out = par_pairs(&rows, &spec, false, (4, 64, 3), &stats);
        let ser = serial_pairs(&rows, &spec, 64);
        assert_eq!(out, ser);
        // Parallel run generation keeps everything resident.
        assert_eq!(stats.rows_spilled(), 0);
    }

    #[test]
    fn parallel_sort_spec_matches_serial_on_mixed_directions() {
        // Satellite: direction-aware parallel sorts.  A mixed asc/desc
        // spec at every thread count must match the serial spec sort row
        // for row and code for code.
        use ovc_core::derive::assert_codes_exact_spec;
        use ovc_core::spec::Direction;

        let rows = random_rows(4000, 3, 9, 6);
        let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc, Direction::Asc]);
        let ser = serial_pairs(&rows, &spec, 256);
        for threads in [1usize, 2, 4, 8] {
            let stats = Stats::new_shared();
            let par = par_pairs(&rows, &spec, false, (threads, 256, 8), &stats);
            assert_eq!(par, ser, "threads={threads}");
            assert_codes_exact_spec(&par, &spec);
            assert!(stats.col_value_cmps() > 0, "worker counters merged");
        }
    }

    #[test]
    fn parallel_sort_spec_descending_only() {
        let rows = random_rows(1500, 2, 6, 7);
        let spec = SortSpec::desc(2);
        let ser = serial_pairs(&rows, &spec, 128);
        let par = par_pairs(&rows, &spec, false, (4, 128, 8), &Stats::new_shared());
        assert_eq!(par, ser);
    }

    #[test]
    fn degenerate_inputs() {
        let stats = Stats::new_shared();
        let sort = |rows: &[Row], threads| {
            par_pairs(rows, &SortSpec::asc(2), false, (threads, 16, 128), &stats)
        };
        assert_eq!(sort(&[], 8).len(), 0);
        let one = sort(&[Row::new(vec![7, 7])], 8);
        assert_eq!(one.len(), 1);
        // More threads than rows clamps to one row per worker.
        let few = random_rows(3, 2, 4, 5);
        let out = sort(&few, 64);
        assert_eq!(out.len(), 3);
    }
}
