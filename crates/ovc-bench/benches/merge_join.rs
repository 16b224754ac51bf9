//! Hypothesis 1, merge join: the OVC merge join (codes decide merge
//! comparisons, codes produced for free) vs a conventional merge join
//! that compares join keys column by column and derives output codes the
//! expensive way ("comparing an operator's output row-by-row,
//! column-by-column").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovc_bench::workload::{table, TableSpec};
use ovc_core::compare::{compare_keys_counted, derive_code};
use ovc_core::{BatchStream, Ovc, Row, Stats};
use ovc_exec::{JoinType, MergeJoin};
use ovc_sort::Run;
use std::cmp::Ordering;
use std::sync::Arc;

const ROWS: usize = 200_000;
const KEY_COLS: usize = 3;
/// The engine's default batch size.
const BATCH: usize = 1024;

/// The pre-OVC method: plain merge join on sorted rows, with output codes
/// re-derived against each output's predecessor.
fn plain_merge_join_with_code_rederivation(
    l: &[Row],
    r: &[Row],
    join_len: usize,
    stats: &Arc<Stats>,
) -> usize {
    let mut out_count = 0usize;
    let mut prev_out: Option<Row> = None;
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        match compare_keys_counted(l[i].key(join_len), r[j].key(join_len), stats) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Gather both groups.
                let key = l[i].key(join_len).to_vec();
                let li = i;
                while i < l.len()
                    && compare_keys_counted(l[i].key(join_len), &key, stats) == Ordering::Equal
                {
                    i += 1;
                }
                let rj = j;
                while j < r.len()
                    && compare_keys_counted(r[j].key(join_len), &key, stats) == Ordering::Equal
                {
                    j += 1;
                }
                for lrow in &l[li..i] {
                    for rrow in &r[rj..j] {
                        let mut cols = lrow.cols().to_vec();
                        cols.extend_from_slice(&rrow.cols()[join_len..]);
                        let out = Row::new(cols);
                        // Output code the expensive way.
                        let _code: Ovc = match &prev_out {
                            None => Ovc::initial(out.key(join_len)),
                            Some(p) => derive_code(p.key(join_len), out.key(join_len), stats),
                        };
                        prev_out = Some(out);
                        out_count += 1;
                    }
                }
            }
        }
    }
    out_count
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_join");
    g.sample_size(10);
    g.throughput(Throughput::Elements(2 * ROWS as u64));
    let spec = |seed| TableSpec {
        rows: ROWS,
        key_cols: KEY_COLS,
        payload_cols: 1,
        distinct_per_col: 24,
        seed,
    };
    let mut l = table(spec(1));
    let mut r = table(spec(2));
    l.sort();
    r.sort();

    g.bench_with_input(
        BenchmarkId::new("ovc_merge_join", ROWS),
        &(l.clone(), r.clone()),
        |b, (l, r)| {
            b.iter(|| {
                let stats = Stats::new_shared();
                let ls = Run::from_sorted_rows(l.clone(), KEY_COLS).batches(BATCH);
                let rs = Run::from_sorted_rows(r.clone(), KEY_COLS).batches(BATCH);
                let mut join = MergeJoin::new(
                    ls,
                    rs,
                    KEY_COLS,
                    JoinType::Inner,
                    KEY_COLS + 1,
                    KEY_COLS + 1,
                    BATCH,
                    stats,
                );
                std::iter::from_fn(|| join.next_batch())
                    .map(|b| b.len())
                    .sum::<usize>()
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("plain_merge_join_rederive", ROWS),
        &(l, r),
        |b, (l, r)| {
            b.iter(|| {
                let stats = Stats::new_shared();
                plain_merge_join_with_code_rederivation(l, r, KEY_COLS, &stats)
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
