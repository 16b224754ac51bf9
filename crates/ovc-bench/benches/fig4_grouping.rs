//! Figure 4: "Group boundaries from offset-value codes."
//!
//! In-stream aggregation over 1,000,000 sorted rows; the ratio of input
//! rows to output groups varies.  OVC detects boundaries with one integer
//! test per row; the baseline compares the grouping columns in full.
//! The `figures` binary prints the full 7-point sweep of the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovc_baseline::GroupFullCompare;
use ovc_bench::workload::grouped_sorted_table;
use ovc_core::{BatchStream, Stats, VecStream};
use ovc_exec::{Aggregate, GroupAggregate};
use ovc_sort::Run;
use std::sync::Arc;

const ROWS: usize = 1_000_000;
const KEY_COLS: usize = 8;
const GROUP_LEN: usize = 6;
/// The engine's default batch size.
const BATCH: usize = 1024;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_grouping");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ROWS as u64));

    for ratio in [1usize, 10, 100] {
        let rows = grouped_sorted_table(ROWS, KEY_COLS, ratio, 4);

        g.bench_with_input(
            BenchmarkId::new("ovc_offset_test", ratio),
            &rows,
            |b, rows| {
                b.iter(|| {
                    let input = Run::from_sorted_rows(rows.clone(), KEY_COLS).batches(BATCH);
                    let mut groups = GroupAggregate::new(
                        input,
                        GROUP_LEN,
                        vec![Aggregate::Count],
                        BATCH,
                        Stats::new_shared(),
                    );
                    std::iter::from_fn(|| groups.next_batch())
                        .map(|b| b.len())
                        .sum::<usize>()
                })
            },
        );

        g.bench_with_input(
            BenchmarkId::new("full_column_compare", ratio),
            &rows,
            |b, rows| {
                b.iter(|| {
                    let stats = Stats::new_shared();
                    let input = VecStream::from_sorted_rows(rows.clone(), KEY_COLS);
                    GroupFullCompare::new(
                        input,
                        GROUP_LEN,
                        vec![Aggregate::Count],
                        Arc::clone(&stats),
                    )
                    .count()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
