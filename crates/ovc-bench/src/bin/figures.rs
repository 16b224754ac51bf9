//! Regenerate every table and figure of the paper as plain text, and
//! emit the same measurements as a machine-readable snapshot
//! (`BENCH_figures.json`, schema in [`ovc_bench::snapshot`]).
//!
//! Run with: `cargo run --release -p ovc-bench --bin figures`
//! Scale Figure 4 / Figure 6 with `--fig4-rows N` / `--fig6-rows N`.
//! `--quick` shrinks both to a smoke-test scale (CI runs this mode and
//! validates the emitted snapshot against the documented schema).

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ovc_baseline::group_full::{GroupFullCompare, OUTPUT_BATCH_ROWS};
use ovc_bench::count_rows;
use ovc_bench::snapshot::{BenchEntry, BenchSnapshot};
use ovc_bench::workload::{grouped_sorted_table, intersect_tables};
use ovc_core::batch::collect_batch_pairs;
use ovc_core::compare::compare_same_base;
use ovc_core::derive::derive_codes;
use ovc_core::desc::{derive_desc_code, DescOvc};
use ovc_core::{table1, BatchStream, Row, Stats, Value};
use ovc_exec::{Aggregate, BatchFilter, GroupAggregate};
use ovc_plan::figure5::{catalog_unsorted, run_intersect};
use ovc_plan::{PlannerConfig, Preference};
use ovc_sort::Run;

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() -> ExitCode {
    let quick = flag("--quick");
    let default_rows = if quick { 20_000 } else { 1_000_000 };

    let mut snap = BenchSnapshot::new("figures");
    if snap.environment.single_core {
        println!("==================================================================");
        println!("!! WARNING: available_parallelism() == 1 on this host.");
        println!("!! Timings below measure single-core behavior only; any");
        println!("!! parallel sweep run here measures coordination overhead,");
        println!("!! not speedup.  The emitted snapshot records this");
        println!("!! (environment.single_core = true).");
        println!("==================================================================\n");
    }

    table_1();
    table_2();
    table_3();
    figure_4(arg("--fig4-rows", default_rows), &mut snap);
    figure_5();
    figure_6(arg("--fig6-rows", default_rows), &mut snap);

    write_snapshot(&snap, Path::new("."))
}

/// Write `snap` into `dir`.  A failed write is a failed run: a stale
/// snapshot left by an earlier run must not pass for this one's.
fn write_snapshot(snap: &BenchSnapshot, dir: &Path) -> ExitCode {
    match snap.write_to(dir) {
        Ok(path) => {
            println!("snapshot: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snapshot: failed to write {}: {e}", snap.file_name());
            ExitCode::FAILURE
        }
    }
}

fn table_1() {
    println!("==================================================================");
    println!("Table 1: Offset-value codes in a sorted file or stream");
    println!("==================================================================\n");
    let rows = table1::rows();
    let asc = derive_codes(&rows, 4);
    let stats = Stats::default();
    println!(
        "{:<18} {:>7} {:>10} {:>9} {:>8}",
        "rows", "d-offs", "desc OVC", "a-offs", "asc OVC"
    );
    let mut prev: Option<&Row> = None;
    for (row, code) in rows.iter().zip(&asc) {
        let desc = match prev {
            None => DescOvc::initial(row.key(4)),
            Some(p) => derive_desc_code(p.key(4), row.key(4), &stats),
        };
        println!(
            "{:<18} {:>7} {:>10} {:>9} {:>8}",
            format!("{:?}", row.cols()),
            desc.offset(),
            desc.paper_decimal(4, 100),
            4 - code.arity_minus_offset(),
            code.paper_decimal(),
        );
        prev = Some(row);
    }
    println!("\npaper:   desc 95, 388, 192, 191, 400, 297, 393");
    println!("paper:   asc  405, 112, 308, 309,   0, 203, 107\n");
}

fn table_2() {
    println!("==================================================================");
    println!("Table 2: Offset-value code decisions and adjustment");
    println!("==================================================================\n");
    let stats = Stats::default();
    let base = [3u64, 4, 2, 5];
    let cases = [
        ([3u64, 5, 8, 2], [3u64, 4, 6, 1]),
        ([3u64, 4, 3, 8], [3u64, 4, 9, 1]),
        ([3u64, 7, 4, 7], [3u64, 7, 4, 9]),
    ];
    println!(
        "{:<6} {:<14} {:<14} {:>6} {:>6} {:>16}",
        "case", "key B", "key C", "B ovc", "C ovc", "loser-to-winner"
    );
    for (i, (b, c)) in cases.iter().enumerate() {
        let mut bc = ovc_core::compare::derive_code(&base, b, &stats);
        let mut cc = ovc_core::compare::derive_code(&base, c, &stats);
        let (bd, cd) = (bc.paper_decimal(), cc.paper_decimal());
        let ord = compare_same_base(b, c, &mut bc, &mut cc, &stats);
        let loser = if ord == std::cmp::Ordering::Less {
            cc
        } else {
            bc
        };
        println!(
            "{:<6} {:<14} {:<14} {:>6} {:>6} {:>16}",
            i + 1,
            format!("{b:?}"),
            format!("{c:?}"),
            bd,
            cd,
            loser.paper_decimal()
        );
    }
    println!("\npaper: 305/206 -> 305;  203/209 -> 209;  307/307 -> 109\n");
}

fn table_3() {
    println!("==================================================================");
    println!("Table 3: Offset-value codes after a filter");
    println!("==================================================================\n");
    let rows = table1::rows();
    let keep = [rows[0].clone(), rows[6].clone()];
    let input = Run::from_sorted_rows(rows, 4).batches(4);
    let keep_row = |row: &[Value]| keep.iter().any(|k| k.cols() == row);
    let mut filter = BatchFilter::new(input, keep_row, Stats::new_shared());
    println!("{:<18} {:>9} {:>8}", "rows", "a-offs", "asc OVC");
    while let Some(batch) = filter.next_batch() {
        for (row, code) in batch.iter() {
            println!(
                "{:<18} {:>9} {:>8}",
                format!("{row:?}"),
                4 - code.arity_minus_offset(),
                code.paper_decimal()
            );
        }
    }
    println!("\npaper: (5,7,3,9) -> 405;  (5,9,3,7) -> 309\n");
}

fn figure_4(rows_n: usize, snap: &mut BenchSnapshot) {
    println!("==================================================================");
    println!("Figure 4: Group boundaries from offset-value codes");
    println!("         (in-stream aggregation over materialized sorted input,");
    println!("          N = {rows_n}, 8 key columns, grouping on 6 columns;");
    println!("          GroupAggregate vs GroupFullCompare, medians of 5 runs)");
    println!("==================================================================\n");
    println!(
        "{:>8} {:>14} {:>18} {:>9}",
        "ratio", "ovc offsets", "full comparisons", "speedup"
    );
    const K: usize = 8; // "many key columns" (Section 6)
    const G: usize = 6; // grouping-key length
                        // Both operators write output batches of the same size.
    const BATCH: usize = OUTPUT_BATCH_ROWS;

    // Both operators compute count and the sum of the payload.
    let aggs = [Aggregate::Count, Aggregate::Sum(K)];
    for ratio in [1usize, 2, 5, 10, 20, 50, 100] {
        // The sort already ran: rows are materialized with their codes,
        // exactly the state Figure 4 starts from.  Each timed run gets a
        // fresh copy of the run, made outside the timing.
        let run = Run::from_sorted_rows(grouped_sorted_table(rows_n, K, ratio, 4), K);
        // OVC: one integer test per row against the code threshold.
        let ovc = |run: Run| {
            GroupAggregate::new(
                run.batches(BATCH),
                G,
                aggs.to_vec(),
                BATCH,
                Stats::new_shared(),
            )
        };
        // Baseline: full comparisons of the grouping columns per row.
        let full = |run: Run| {
            GroupFullCompare::new(run.batches(BATCH), G, aggs.to_vec(), Stats::new_shared())
        };
        // Rows only: the baseline writes no codes (all duplicates).
        let ovc_out = collect_batch_pairs(ovc(run.clone()));
        let full_out = collect_batch_pairs(full(run.clone()));
        assert!(
            ovc_out
                .iter()
                .map(|(row, _)| row)
                .eq(full_out.iter().map(|(row, _)| row)),
            "ratio {ratio}: both operators must return the same groups"
        );
        let t_ovc = median5(|| run.clone(), |r| count_rows(ovc(r)));
        let t_full = median5(|| run.clone(), |r| count_rows(full(r)));

        println!(
            "{:>8} {:>12.1?} {:>16.1?} {:>8.2}x",
            ratio,
            t_ovc,
            t_full,
            t_full.as_secs_f64() / t_ovc.as_secs_f64()
        );
        snap.push(
            BenchEntry::new("figure_4", format!("ratio_{ratio}"))
                .metric("rows", rows_n as f64)
                .wall("ovc", t_ovc)
                .wall("full_compare", t_full)
                .metric("speedup", t_full.as_secs_f64() / t_ovc.as_secs_f64()),
        );
    }
    println!("\nBoth operators read the same {BATCH}-row batches of one coded run and");
    println!("write flat batches; their outputs are asserted equal before timing.\n");
}

fn figure_5() {
    println!("==================================================================");
    println!("Figure 5: Query plans for an 'intersect distinct' query");
    println!("==================================================================\n");
    println!("  hash-based plan                     sort-based plan");
    println!("  ---------------                     ---------------");
    println!("        hash join (intersect)               merge join (intersect,");
    println!("        /          \\                        consumes OVCs for free)");
    println!("   hash agg      hash agg               /            \\");
    println!("   (dedup)       (dedup)         in-sort agg      in-sort agg");
    println!("      |             |            (dedup by offset == arity)");
    println!("   scan T1       scan T2               |              |");
    println!("                                    scan T1        scan T2");
    println!("\n  3 blocking operators                2 blocking operators\n");
}

fn figure_6(rows_n: usize, snap: &mut BenchSnapshot) {
    println!("==================================================================");
    println!("Figure 6: Performance of 'intersect distinct' query plans");
    println!("         (N = {rows_n} rows per table, memory = N/10 rows,");
    println!("          paper scale: 100M rows / 10M memory — same 10:1 ratio)");
    println!("==================================================================\n");
    let (t1, t2) = intersect_tables(rows_n, 42);
    let cat = catalog_unsorted(t1, t2);
    // Both plans come from the planner, one side forced, at dop 1.
    let run = |preference| {
        let cfg = PlannerConfig::default()
            .with_memory_rows(rows_n / 10)
            .with_fan_in(128)
            .with_preference(preference);
        let stats = Stats::new_shared();
        let start = Instant::now();
        let (plan, out) = run_intersect(&cat, cfg, &stats).expect("plans");
        let rows = out.into_rows();
        (start.elapsed(), plan, rows, stats)
    };
    let (t_hash, hash_plan, mut h, hs) = run(Preference::ForceHashBased);
    let (t_sort, sort_plan, s, ss) = run(Preference::ForceSortBased);
    h.sort();
    assert_eq!(h, s, "the hash and sort plans must return the same rows");

    println!("hash plan:\n{hash_plan}");
    println!("sort plan:\n{sort_plan}");
    println!("result rows: {}\n", s.len());
    println!("{:<30} {:>14} {:>14}", "", "hash plan", "sort plan");
    println!("{:<30} {:>12.1?} {:>12.1?}", "wall time", t_hash, t_sort);
    println!(
        "{:<30} {:>14} {:>14}",
        "rows spilled",
        hs.rows_spilled(),
        ss.rows_spilled()
    );
    println!(
        "{:<30} {:>14.2} {:>14.2}",
        "spills per input row",
        hs.rows_spilled() as f64 / (2 * rows_n) as f64,
        ss.rows_spilled() as f64 / (2 * rows_n) as f64
    );
    println!(
        "{:<30} {:>14} {:>14}",
        "bytes spilled",
        hs.bytes_spilled(),
        ss.bytes_spilled()
    );
    println!(
        "{:<30} {:>14} {:>14}",
        "column accesses/comparisons",
        hs.col_value_cmps(),
        ss.col_value_cmps()
    );
    println!(
        "{:<30} {:>14} {:>14}",
        "code comparisons",
        hs.ovc_cmps(),
        ss.ovc_cmps()
    );
    println!("\npaper shape: sort plan spills each row once (hash: many rows twice)");
    println!("and the merge join rides on the aggregation's offset-value codes\n");

    for (label, wall, stats, result_rows) in [
        ("hash_plan", t_hash, &hs, h.len()),
        ("sort_plan", t_sort, &ss, s.len()),
    ] {
        snap.push(
            BenchEntry::new("figure_6", label)
                .metric("input_rows_per_table", rows_n as f64)
                .metric("result_rows", result_rows as f64)
                .wall("wall", wall)
                .metric("rows_spilled", stats.rows_spilled() as f64)
                .metric("bytes_spilled", stats.bytes_spilled() as f64)
                .metric("col_value_cmps", stats.col_value_cmps() as f64)
                .metric("ovc_cmps", stats.ovc_cmps() as f64),
        );
    }
}

/// The median of five timed calls of `f`, each on a fresh `setup()`
/// made outside the timing.
fn median5<I, T>(mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> Duration {
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(f(input));
            start.elapsed()
        })
        .collect();
    times.sort();
    times[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_snapshot_write_fails_the_run() {
        // A directory path whose parent is a regular file: no process,
        // root included, can create a file under it.
        let file = std::env::temp_dir().join(format!("figures-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"").expect("scratch file");
        let status = write_snapshot(&BenchSnapshot::new("figures"), &file.join("out"));
        std::fs::remove_file(&file).expect("remove scratch file");
        assert_eq!(status, ExitCode::FAILURE);
    }
}
