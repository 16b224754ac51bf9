//! Figure 4's motivating query: `select ..., count(distinct ...) group
//! by ...` over web-analysis-shaped data — "many rows and many key
//! columns, each key column an 8-byte integer with only a few distinct
//! values".
//!
//! The two-step process the paper describes: a sort on (group key,
//! distinct column) whose codes then drive (1) distinct-counting by
//! `offset == arity` and (2) group-boundary detection by
//! `offset < group key length`, compared against the full-column-compare
//! baseline.
//!
//! Run with: `cargo run --release --example web_analytics`

use std::sync::Arc;
use std::time::Instant;

use ovc_baseline::GroupFullCompare;
use ovc_bench::workload::grouped_sorted_table;
use ovc_core::{BatchStream, ExecError, Stats};
use ovc_exec::{Aggregate, BatchDedup, GroupAggregate};
use ovc_sort::Run;

/// The engine's default batch size.
const BATCH: usize = 1024;

fn main() -> Result<(), ExecError> {
    let rows_n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let key_cols = 4;
    let group_len = 2;

    println!("=== select g1, g2, count(distinct k3, k4) group by g1, g2 ===\n");
    println!("input: {rows_n} rows, {key_cols} key columns, few distinct values each\n");

    for ratio in [1usize, 10, 100] {
        let rows = grouped_sorted_table(rows_n, key_cols, ratio, 7);
        println!("--- rows per group: {ratio} ---");

        // Step 1 (shared): the input is sorted on all key columns; the
        // codes from that sort drive everything downstream, and both
        // sides read the same batches.
        let run = Run::from_sorted_rows(rows, key_cols);

        // Step 2, OVC version: count(distinct) via `offset == arity`
        // (duplicate removal) and group boundaries via `offset <
        // group_len` (grouping with a count) — integer tests only.
        let input = run.clone().batches(BATCH);
        let stats_ovc = Stats::new_shared();
        let start = Instant::now();
        let mut grouped = GroupAggregate::new(
            BatchDedup::new(input, Arc::clone(&stats_ovc)),
            group_len,
            vec![Aggregate::Count],
            BATCH,
            Arc::clone(&stats_ovc),
        );
        let groups_ovc = count_rows(&mut grouped)?;
        let t_ovc = start.elapsed();

        // Baseline: full comparisons of the grouping columns per row.
        let input = run.batches(BATCH);
        let stats_full = Stats::new_shared();
        let start = Instant::now();
        // Dedup kept identical (`offset == arity`); the boundary test differs.
        let mut grouped = GroupFullCompare::new(
            BatchDedup::new(input, Arc::clone(&stats_full)),
            group_len,
            vec![Aggregate::Count],
            Arc::clone(&stats_full),
        );
        let groups_full = count_rows(&mut grouped)?;
        let t_full = start.elapsed();

        assert_eq!(groups_ovc, groups_full);
        println!("  output groups:            {groups_ovc}");
        println!(
            "  OVC boundary test:        {t_ovc:>10.1?}  ({} column comparisons)",
            stats_ovc.col_value_cmps()
        );
        println!(
            "  full-compare boundaries:  {t_full:>10.1?}  ({} column comparisons)",
            stats_full.col_value_cmps()
        );
        println!();
    }
    println!("\"testing the offset against the count of grouping columns is much");
    println!("faster than full comparisons of multiple key columns\" — Section 6");
    Ok(())
}

/// Drain `stream`, returning how many rows it produced.
fn count_rows(stream: &mut impl BatchStream) -> Result<usize, ExecError> {
    let mut n = 0;
    while let Some(batch) = stream.next_batch()? {
        n += batch.len();
    }
    Ok(n)
}
