//! The ordering/partitioning properties API, end to end:
//!
//! 1. a mixed `[c0 asc, c1 desc]` query planned and executed with
//!    direction-aware codes;
//! 2. a descending demand over an ascending-stored table satisfied by
//!    `Reverse` (opposite-order reuse) instead of a sort;
//! 3. a merge join bracketed with explicit `Exchange` nodes running
//!    partition-parallel, byte-identical to the serial plan.
//!
//! ```bash
//! cargo run --release --example ordered_properties -- 30000
//! ```

use std::time::Instant;

use ovc_repro::core::{Direction, OvcRow, Row, SortSpec, Stats};
use ovc_repro::plan::exec::{execute, ExecOptions};
use ovc_repro::plan::{Catalog, JoinType, LogicalPlan, Planner, PlannerConfig, Preference, Table};

/// Columns per generated row.
const WIDTH: usize = 2;

fn rows(n: usize, domain: u64, seed: u64) -> Vec<Row> {
    use ovc_repro::bench::workload::{table, TableSpec};
    table(TableSpec {
        rows: n,
        key_cols: WIDTH,
        payload_cols: 0,
        distinct_per_col: domain,
        seed,
    })
}

/// A heap table of the generated rows, its width stated so that `0`
/// rows still make a two-column table.
fn heap(rows: Vec<Row>) -> Table {
    Table::with_width(WIDTH, rows, SortSpec::none())
}

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30_000usize);

    // --- 1. Mixed-direction sort --------------------------------------
    let mut catalog = Catalog::new();
    catalog.register("t", heap(rows(n, 1000, 42)));
    let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
    let q = LogicalPlan::scan("t").sort_by(spec);
    let plan = Planner::new(
        &catalog,
        PlannerConfig::default().with_memory_rows(n / 10 + 1),
    )
    .plan(&q)
    .expect("plans");
    println!("--- mixed [c0 asc, c1 desc] sort ---\n{plan}");
    let stats = Stats::new_shared();
    let t0 = Instant::now();
    let out = execute(&plan, &catalog, &stats, &ExecOptions::default()).into_coded();
    println!(
        "rows: {}   wall: {:.1?}   col cmps: {}\n",
        out.len(),
        t0.elapsed(),
        stats.col_value_cmps()
    );

    // --- 2. Opposite-order reuse --------------------------------------
    let mut sorted = rows(n, 1000, 43);
    sorted.sort();
    catalog.register("asc_stored", Table::sorted(sorted, 2));
    let q = LogicalPlan::scan("asc_stored").sort_by(SortSpec::desc(2));
    let plan = Planner::new(&catalog, PlannerConfig::default())
        .plan(&q)
        .expect("plans");
    println!("--- descending demand over ascending storage ---\n{plan}");
    let stats = Stats::new_shared();
    let out = execute(&plan, &catalog, &stats, &ExecOptions::default()).into_coded();
    println!(
        "rows: {}   Reverse nodes: {}   SortOvc nodes: {}\n",
        out.len(),
        plan.count_op("Reverse"),
        plan.count_op("SortOvc")
    );

    // --- 3. Exchange-parallel merge join ------------------------------
    catalog.register("l", heap(rows(n, (n / 4).max(2) as u64, 44)));
    catalog.register("r", heap(rows(n, (n / 4).max(2) as u64, 45)));
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    let base = PlannerConfig::default()
        .with_memory_rows(n / 10 + 1)
        .with_preference(Preference::ForceSortBased);
    let run = |cfg: PlannerConfig, label: &str| -> Vec<OvcRow> {
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        let stats = Stats::new_shared();
        let t0 = Instant::now();
        let out = execute(&plan, &catalog, &stats, &ExecOptions::default()).into_coded();
        println!("--- {label} ---\n{plan}");
        println!(
            "rows: {}   wall: {:.1?}   exchanges: {}\n",
            out.len(),
            t0.elapsed(),
            plan.exchanges().len()
        );
        out
    };
    let serial = run(base, "merge join, serial");
    let parallel = run(
        base.with_dop(4).with_parallel_threshold(1),
        "merge join, explicit exchanges (dop=4)",
    );
    assert_eq!(serial, parallel, "rows and codes must be byte-identical");
    println!("serial and exchange-parallel outputs are byte-identical ✓");
}
