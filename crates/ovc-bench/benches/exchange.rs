//! Hypothesis 1, order-preserving (merging) exchange (Section 4.10):
//! merging pre-sorted partition streams with the OVC tree-of-losers vs a
//! conventional binary-heap merge with full comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovc_baseline::merge_runs_plain;
use ovc_bench::workload::{table, TableSpec};
use ovc_core::{Row, SortSpec, Stats};
use ovc_sort::{merge_runs_spec, Run};

const ROWS_PER_PART: usize = 50_000;
const KEY_COLS: usize = 4;

fn parts(n_parts: usize) -> Vec<Vec<Row>> {
    (0..n_parts)
        .map(|i| {
            let mut rows = table(TableSpec {
                rows: ROWS_PER_PART,
                key_cols: KEY_COLS,
                payload_cols: 1,
                distinct_per_col: 8,
                seed: i as u64,
            });
            rows.sort();
            rows
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange_merge");
    g.sample_size(10);
    for n_parts in [4usize, 16] {
        let partitions = parts(n_parts);
        g.throughput(Throughput::Elements((n_parts * ROWS_PER_PART) as u64));

        g.bench_with_input(
            BenchmarkId::new("ovc_tree_of_losers", n_parts),
            &partitions,
            |b, partitions| {
                b.iter(|| {
                    let stats = Stats::new_shared();
                    let runs: Vec<Run> = partitions
                        .iter()
                        .map(|p| Run::from_sorted_rows(p.clone(), KEY_COLS))
                        .collect();
                    merge_runs_spec(runs, &SortSpec::asc(KEY_COLS), &stats).count()
                })
            },
        );

        g.bench_with_input(
            BenchmarkId::new("plain_heap_merge", n_parts),
            &partitions,
            |b, partitions| {
                b.iter(|| {
                    let stats = Stats::new_shared();
                    merge_runs_plain(partitions.clone(), KEY_COLS, &stats).len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
