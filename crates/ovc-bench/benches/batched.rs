//! Degree of parallelism × batch size over the §5 exchange-sandwich
//! workloads: the same planned group-by, union-all, and Figure-5
//! intersect queries at dop ∈ {1, 2, 4, 8}, each timed at a small, the
//! default, and a large `FlatRows` batch size.
//!
//! There is one executor, so the sweep has no "row" column any more
//! (EXPERIMENTS.md §6 keeps the historical row-vs-batched numbers).
//! What it answers: how much per-batch overhead a small batch costs
//! (dop = 1), and how the batch size trades channel crossings against
//! pipelining on the exchange edges (dop > 1).  Byte-identity of rows
//! *and* codes across every point is asserted once before timing.  On a
//! single-core host every dop > 1 point is an overhead measurement (the
//! sweep prints what it detects).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovc_bench::workload::{intersect_tables, table, TableSpec};
use ovc_core::{OvcRow, Stats};
use ovc_plan::exec::{execute, ExecOptions};
use ovc_plan::figure5::{catalog_unsorted, intersect_distinct_query};
use ovc_plan::{
    Aggregate, Catalog, LogicalPlan, Planner, PlannerConfig, Preference, SetOp, Table,
    DEFAULT_BATCH_ROWS,
};

const MEMORY_ROWS: usize = 16 * 1024;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Rows per `FlatRows` batch: many seams, the engine default, few seams.
const BATCHES: [usize; 3] = [64, DEFAULT_BATCH_ROWS, 16 * 1024];

/// Plan `q` at `dop` and run it with `batch` rows per batch on every
/// edge (nothing is stamped on the plan, so the option governs).
fn run_planned(catalog: &Catalog, q: &LogicalPlan, dop: usize, batch: usize) -> Vec<OvcRow> {
    let cfg = PlannerConfig::default()
        .with_memory_rows(MEMORY_ROWS)
        .with_preference(Preference::ForceSortBased)
        .with_dop(dop)
        .with_parallel_threshold(1);
    let plan = Planner::new(catalog, cfg).plan(q).expect("plans");
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: Some(batch),
        ..Default::default()
    };
    execute(&plan, catalog, &stats, &options).into_coded()
}

/// Assert byte-identity across every (dop, batch) point, then time each
/// under one criterion group.
fn sweep(c: &mut Criterion, group: &str, catalog: &Catalog, q: &LogicalPlan, elements: u64) {
    let reference = run_planned(catalog, q, 1, DEFAULT_BATCH_ROWS);
    for dop in THREADS {
        for batch in BATCHES {
            assert_eq!(
                run_planned(catalog, q, dop, batch),
                reference,
                "{group}: dop={dop} batch={batch} must match serial rows and codes"
            );
        }
    }

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.throughput(Throughput::Elements(elements));
    for dop in THREADS {
        for batch in BATCHES {
            g.bench_with_input(
                BenchmarkId::new(format!("batch_{batch}"), dop),
                &dop,
                |b, &d| b.iter(|| run_planned(catalog, q, d, batch).len()),
            );
        }
    }
    g.finish();
}

/// Planned group-by behind the exchange sandwich (the §5
/// `planned_group_by_dop` workload).
fn bench_batched_group_by(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("(host reports {cores} core(s) — speedup requires > 1)");
    const ROWS: usize = 200_000;
    let rows = table(TableSpec {
        rows: ROWS,
        key_cols: 2,
        payload_cols: 1,
        distinct_per_col: 64,
        seed: 7,
    });
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").group_by(
        1,
        vec![Aggregate::Count, Aggregate::Sum(2), Aggregate::Max(2)],
    );
    sweep(c, "batched_group_by_dop", &catalog, &q, ROWS as u64);
}

fn union_all_workload(rows_per_table: usize) -> (Catalog, LogicalPlan) {
    let (t1, t2) = intersect_tables(rows_per_table, 7);
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(t1));
    catalog.register("r", Table::unsorted(t2));
    let q = LogicalPlan::scan("l").set_op(LogicalPlan::scan("r"), SetOp::UnionAll);
    (catalog, q)
}

/// Planned UNION ALL behind the exchange sandwich (the §5
/// `planned_union_all_dop` workload).
fn bench_batched_set_op(c: &mut Criterion) {
    const ROWS_PER_TABLE: usize = 100_000;
    let (catalog, q) = union_all_workload(ROWS_PER_TABLE);
    sweep(
        c,
        "batched_union_all_dop",
        &catalog,
        &q,
        2 * ROWS_PER_TABLE as u64,
    );
}

/// The planned Figure-5 intersect query (the §5
/// `fig5_planned_query_dop` workload).
fn bench_batched_figure5(c: &mut Criterion) {
    const ROWS_PER_TABLE: usize = 200_000;
    let (t1, t2) = intersect_tables(ROWS_PER_TABLE, 7);
    let catalog = catalog_unsorted(t1, t2);
    sweep(
        c,
        "batched_fig5_query_dop",
        &catalog,
        &intersect_distinct_query(),
        2 * ROWS_PER_TABLE as u64,
    );
}

/// Reduced re-timing of the union-all workload with plain medians,
/// written to `BENCH_batched.json` (schema in `ovc_bench::snapshot`) so
/// the sweep leaves machine-readable dop × batch-size data behind
/// alongside criterion's console output.
fn emit_snapshot(_c: &mut Criterion) {
    use ovc_bench::snapshot::{BenchEntry, BenchSnapshot};
    use std::time::Instant;

    const SNAP_ROWS: usize = 50_000;
    let (catalog, q) = union_all_workload(SNAP_ROWS);

    let median3 = |f: &mut dyn FnMut()| {
        let mut times: Vec<_> = (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        times.sort();
        times[1]
    };

    let mut snap = BenchSnapshot::new("batched");
    for dop in THREADS {
        for batch in BATCHES {
            let wall = median3(&mut || {
                run_planned(&catalog, &q, dop, batch).len();
            });
            snap.push(
                BenchEntry::new("batched_union_all", format!("batch_{batch}_dop_{dop}"))
                    .metric("rows_per_table", SNAP_ROWS as f64)
                    .metric("dop", dop as f64)
                    .metric("batch_rows", batch as f64)
                    .wall("wall", wall),
            );
        }
    }
    match snap.write_to(std::path::Path::new(".")) {
        Ok(path) => println!("snapshot: wrote {}", path.display()),
        Err(e) => eprintln!("snapshot: failed to write {}: {e}", snap.file_name()),
    }
}

criterion_group!(
    benches,
    bench_batched_group_by,
    bench_batched_set_op,
    bench_batched_figure5,
    emit_snapshot
);
criterion_main!(benches);
