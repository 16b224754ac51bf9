//! A full analytical query pipeline carrying offset-value codes across
//! seven operators — the "interesting orderings taken to their full
//! potential" picture of Section 7.
//!
//! Query (star-schema flavoured):
//!
//! ```sql
//! SELECT f.region, d.tier, COUNT(*), SUM(f.amount)
//! FROM   fact f JOIN dim d ON f.region = d.region
//! WHERE  f.amount <> 0
//! GROUP  BY f.region, d.tier
//! ```
//!
//! Plan: RLE column-store scan (free codes) → filter (filter theorem) →
//! merge join (codes decide merge comparisons) → order-preserving split →
//! per-partition grouping → order-preserving merge — flat batches from
//! the scan to the result, with the comparison budget printed per stage.
//!
//! Run with: `cargo run --release --example query_pipeline`

use std::sync::Arc;

use ovc_bench::workload::{table, TableSpec};
use ovc_core::batch::{assert_batches_exact_spec, VecBatchStream};
use ovc_core::{BatchStream, ExecError, FlatRows, Row, SortSpec, Stats, Value};
use ovc_exec::exchange::by_cols_hash;
use ovc_exec::{route_batches, Aggregate, BatchFilter, GroupAggregate, JoinType, MergeJoin};
use ovc_sort::{merge_batch_streams, Run, SortOutput};
use ovc_storage::RleColumnStore;

/// Rows per batch between operators (the engine's default).
const BATCH: usize = 1024;

fn main() -> Result<(), ExecError> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);

    // Fact table: (region, amount); dimension: (region, tier).
    let mut fact = table(TableSpec {
        rows: n,
        key_cols: 1,
        payload_cols: 1,
        distinct_per_col: 32,
        seed: 1,
    });
    fact.sort();
    let mut dim: Vec<Row> = (0..32u64).map(|r| Row::new(vec![r, r % 3])).collect();
    dim.sort();

    let stats = Stats::new_shared();
    let fact_store = RleColumnStore::build(&fact, 1);
    println!(
        "fact: {} rows (RLE key compression ratio {:.4}); dim: {} rows\n",
        fact.len(),
        fact_store.key_compression_ratio(),
        dim.len()
    );

    // 1. Scan: codes for free, handed on as flat batches.
    let scan = Run::from_coded(fact_store.scan().collect(), 1).batches(BATCH);
    let mark = stats.snapshot();

    // 2. Filter: codes by the filter theorem.
    let filtered = BatchFilter::new(scan, |r: &[Value]| r[1] != 0, Arc::clone(&stats));

    // 3. Merge join with the dimension (sorted stream with derived codes).
    let dim_stream = Run::from_sorted_rows(dim, 1).batches(BATCH);
    let joined = MergeJoin::new(
        filtered,
        dim_stream,
        1,
        JoinType::Inner,
        2,
        2,
        BATCH,
        Arc::clone(&stats),
    );

    // 4. Order-preserving split into 4 partitions by region.
    let mut parts: Vec<Vec<FlatRows>> = vec![Vec::new(); 4];
    route_batches(joined, 4, by_cols_hash(vec![0], 4), BATCH, |p, batch| {
        parts[p].push(batch);
        true
    })?;
    let after_split = stats.snapshot().since(&mark);

    // 5. Per-partition grouping on (region); tier rides along as Min
    //    (single-valued per region in this dimension).
    let grouped_parts = parts
        .into_iter()
        .map(|batches| {
            Box::new(GroupAggregate::new(
                VecBatchStream::new(batches, SortSpec::asc(1)),
                1,
                vec![Aggregate::Min(1), Aggregate::Count, Aggregate::Sum(2)],
                BATCH,
                Arc::clone(&stats),
            )) as Box<dyn BatchStream + Send>
        })
        .collect();

    // 6. Order-preserving merge back to one sorted result stream.
    let merged = merge_batch_streams(grouped_parts, &SortSpec::asc(1), &stats)?;
    let mut merged = SortOutput::Merge(merged).batches(BATCH);
    let batches: Vec<FlatRows> =
        std::iter::from_fn(|| merged.next_batch().transpose()).collect::<Result<_, _>>()?;
    let total = stats.snapshot().since(&mark);

    assert_batches_exact_spec(&batches, &SortSpec::asc(1));
    let result: Vec<&[Value]> = batches
        .iter()
        .flat_map(|b| b.iter())
        .map(|(row, _)| row)
        .collect();

    println!("result groups: {}", result.len());
    for r in result.iter().take(8) {
        println!(
            "  region {:>2} tier {} count {:>8} sum {:>12}",
            r[0], r[1], r[2], r[3]
        );
    }
    if result.len() > 8 {
        println!("  ... ({} more)", result.len() - 8);
    }

    println!("\ncomparison budget:");
    println!(
        "  scan+filter+join+split: {} column comparisons (bound N*K = {})",
        after_split.col_value_cmps, n
    );
    println!(
        "  whole pipeline:         {} column comparisons, {} code comparisons",
        total.col_value_cmps, total.ovc_cmps
    );
    println!("\nevery operator consumed its input's codes and produced exact codes");
    println!("for the next one — verified by the end-to-end exactness check.");
    Ok(())
}
