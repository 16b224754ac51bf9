//! Phase-by-phase wall-clock breakdown of the flat external sort — the
//! measurement companion to EXPERIMENTS.md §1 (input clone, run
//! generation, flat merge, boundary materialization).
//!
//! Run with `cargo run --release -p ovc-bench --example phase_timing`.

use std::sync::Arc;
use std::time::Instant;

use ovc_bench::workload::{table, TableSpec};
use ovc_core::{OvcRow, SortSpec, Stats};
use ovc_sort::{
    external_sort, generate_runs, merge_runs_to_run_spec, MemoryRunStorage, RunGenStrategy,
    RunStorage, SortConfig,
};

const ROWS: usize = 300_000;
const KEY_COLS: usize = 4;
const MEMORY: usize = 30_000;

fn main() {
    let rows = table(TableSpec {
        rows: ROWS,
        key_cols: KEY_COLS,
        payload_cols: 1,
        distinct_per_col: 8,
        seed: 7,
    });

    println!("phase breakdown, {ROWS} rows x {} cols:", KEY_COLS + 1);
    for _ in 0..3 {
        let stats = Stats::new_shared();
        let t0 = Instant::now();
        let cloned = rows.clone();
        let t1 = Instant::now();
        let runs = generate_runs(
            cloned,
            KEY_COLS,
            MEMORY,
            RunGenStrategy::OvcPriorityQueue,
            &stats,
        );
        let t2 = Instant::now();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let handles: Vec<usize> = runs
            .into_iter()
            .map(|r| storage.write_run(r).expect("in-memory spill"))
            .collect();
        let final_runs: Vec<_> = handles
            .into_iter()
            .map(|h| storage.read_run(h).expect("in-memory read-back"))
            .collect();
        let run = merge_runs_to_run_spec(final_runs, &SortSpec::asc(KEY_COLS), &stats);
        let t3 = Instant::now();
        let out: Vec<OvcRow> = run.cursor().collect();
        let t4 = Instant::now();
        println!(
            "  clone {:>9.3?}  run_gen {:>9.3?}  flat_merge {:>9.3?}  materialize {:>9.3?}  ({} rows)",
            t1 - t0,
            t2 - t1,
            t3 - t2,
            t4 - t3,
            out.len()
        );
    }

    println!("\nfull pipeline (external_sort, streamed and counted):");
    for _ in 0..3 {
        let stats = Stats::new_shared();
        let t0 = Instant::now();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let n = external_sort(
            rows.clone(),
            SortConfig::new(KEY_COLS, MEMORY),
            &mut storage,
            &stats,
        )
        .count();
        println!("  {:>9.3?}  ({n} rows)", t0.elapsed());
    }
}
