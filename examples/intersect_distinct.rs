//! Figures 5 and 6: "select B from T1 intersect select B from T2",
//! hash-based plan vs sort-based plan, both derived by the planner from
//! the one logical query (`ovc_plan::figure5`) with one side forced.
//!
//! Prints both plan shapes (EXPLAIN), runs both at a laptop-friendly
//! scale with the paper's 10:1 input-to-memory ratio, checks they return
//! the same rows, and reports wall time, spill volume, and comparison
//! counts.  Scale with an argument:
//! `cargo run --release --example intersect_distinct -- 2000000`

use std::time::Instant;

use ovc_bench::workload::intersect_tables;
use ovc_core::Stats;
use ovc_plan::figure5::{catalog_unsorted, run_intersect};
use ovc_plan::{PlannerConfig, Preference};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500_000);
    let mem = n / 10;

    let (t1, t2) = intersect_tables(n, 42);
    let cat = catalog_unsorted(t1, t2);
    let run = |preference| {
        let cfg = PlannerConfig::default()
            .with_memory_rows(mem)
            .with_fan_in(128)
            .with_preference(preference);
        let stats = Stats::new_shared();
        let start = Instant::now();
        let (plan, out) = run_intersect(&cat, cfg, &stats).expect("plans");
        let rows = out.into_rows();
        (start.elapsed(), plan, rows, stats)
    };
    let (hash_time, hash_plan, mut hash_out, hs) = run(Preference::ForceHashBased);
    let (sort_time, sort_plan, sort_out, ss) = run(Preference::ForceSortBased);
    hash_out.sort();
    assert_eq!(hash_out, sort_out, "plans must agree");

    println!("=== Figure 5: the two query plans ===\n");
    println!("hash-based plan (3 blocking operators):\n{hash_plan}");
    println!("sort-based plan (2 blocking operators; the merge consumes the codes):\n{sort_plan}");

    println!("=== Figure 6: performance at N = {n} rows/table, memory = {mem} rows ===\n");
    println!("result rows: {}\n", sort_out.len());
    println!("{:<28} {:>14} {:>14}", "", "hash plan", "sort plan");
    println!(
        "{:<28} {:>12.1?} {:>12.1?}",
        "wall time", hash_time, sort_time
    );
    println!(
        "{:<28} {:>14} {:>14}",
        "rows spilled",
        hs.rows_spilled(),
        ss.rows_spilled()
    );
    println!(
        "{:<28} {:>14} {:>14}",
        "rows spilled / input row",
        format!("{:.2}", hs.rows_spilled() as f64 / (2 * n) as f64),
        format!("{:.2}", ss.rows_spilled() as f64 / (2 * n) as f64)
    );
    println!(
        "{:<28} {:>14} {:>14}",
        "column comparisons",
        hs.col_value_cmps(),
        ss.col_value_cmps()
    );
    println!(
        "{:<28} {:>14} {:>14}",
        "code comparisons",
        hs.ovc_cmps(),
        ss.ovc_cmps()
    );
    println!();
    println!("\"In a hash-based plan, duplicate removal and join spill to temporary");
    println!("storage such that many rows are spilled twice. In contrast, the");
    println!("sort-based plan spills each input row only once.\" — Section 6");
}
