//! The Napa scenario (Sections 1, 2, 7): a log-structured merge-forest
//! where "ingestion (run generation), compaction (merging), and query
//! processing … rely heavily on sorting and merging", all carrying
//! offset-value codes.
//!
//! Ingests batches into an LSM forest, lets stepped-merge compaction run,
//! then answers a grouped query over a merged scan — printing the
//! comparison budget at every stage.
//!
//! Run with: `cargo run --release --example lsm_compaction`

use std::sync::Arc;

use ovc_bench::workload::{table, TableSpec};
use ovc_core::{BatchStream, ExecError, Stats};
use ovc_exec::{Aggregate, GroupAggregate};
use ovc_storage::{LsmConfig, LsmForest};

fn main() -> Result<(), ExecError> {
    let batches: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let batch_rows = 10_000;
    let key_cols = 3;

    println!("=== LSM forest: ingest, compact, scan (the Napa workload) ===\n");
    let stats = Stats::new_shared();
    let mut forest = LsmForest::new(key_cols, LsmConfig { fanout: 4 }, Arc::clone(&stats));

    for i in 0..batches {
        let spec = TableSpec {
            rows: batch_rows,
            key_cols,
            payload_cols: 1,
            distinct_per_col: 16,
            seed: i as u64,
        };
        forest.ingest(table(spec));
    }
    let n = forest.len() as u64;
    let k = key_cols as u64;
    let after_ingest = stats.snapshot();
    println!("ingested {} rows in {} batches", n, batches);
    println!(
        "forest shape: {} levels, {} runs resident",
        forest.depth(),
        forest.run_count()
    );
    println!(
        "ingest+compaction column comparisons: {} ({:.2} x N*K; bound is depth+1 = {})",
        after_ingest.col_value_cmps,
        after_ingest.col_value_cmps as f64 / (n * k) as f64,
        forest.depth() + 1,
    );
    println!(
        "write amplification: {:.2} (rows spilled / rows ingested)\n",
        after_ingest.rows_spilled as f64 / n as f64
    );

    // Query processing: merged scan -> in-stream aggregation, both on codes.
    println!("query: select k1, k2, count(*) group by k1, k2\n");
    let before = stats.snapshot();
    // The merged scan drains flat into one run, which feeds the batch
    // kernel.
    let scan = forest.scan().into_run().batches(1024);
    let mut grouped =
        GroupAggregate::new(scan, 2, vec![Aggregate::Count], 1024, Arc::clone(&stats));
    let mut groups = 0usize;
    let mut max_count = 0u64;
    while let Some(batch) = grouped.next_batch()? {
        groups += batch.len();
        for (row, _) in batch.iter() {
            max_count = max_count.max(row[2]);
        }
    }
    let delta = stats.snapshot().since(&before);
    println!("groups: {groups}, largest group: {max_count}");
    println!(
        "scan+aggregate column comparisons: {} (<= N*K = {}), code comparisons: {}",
        delta.col_value_cmps,
        n * k,
        delta.ovc_cmps
    );

    // Major compaction collapses the forest to one run; the next scan is
    // a single cursor with stored codes — zero comparisons.
    let before = stats.snapshot();
    forest.major_compact();
    let delta = stats.snapshot().since(&before);
    println!(
        "\nmajor compaction: {} column comparisons for {} rows",
        delta.col_value_cmps, n
    );
    let before = stats.snapshot();
    let _ = forest.scan().count();
    let delta = stats.snapshot().since(&before);
    println!(
        "post-compaction scan: {} column comparisons (codes come from storage)",
        delta.col_value_cmps
    );
    Ok(())
}
