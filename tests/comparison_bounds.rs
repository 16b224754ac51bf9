//! The paper's headline complexity claim (Section 3): with tree-of-losers
//! priority queues and offset-value coding, "the sum of all increments and
//! thus the count of all column value comparisons are limited to N × K.
//! Importantly, there is no log(N) multiplier."  These tests measure the
//! claim directly with the instrumented comparators, including the
//! linear-growth (no log factor) check across doubling input sizes.

use std::sync::Arc;

use ovc_core::{BatchStream, Row, SortSpec, Stats};
use ovc_exec::{JoinType, MergeJoin};
use ovc_sort::{
    external_sort_spec_to_run, generate_runs_spec, sort_rows_ovc, FlatMerge, MemoryRunStorage, Run,
    RunGenStrategy, SortConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rows(n: usize, k: usize, domain: u64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Row::new((0..k).map(|_| rng.gen_range(0..domain)).collect()))
        .collect()
}

#[test]
fn run_generation_within_n_times_k() {
    for (n, k, domain) in [(1000, 2, 3), (1000, 4, 3), (5000, 3, 2), (2000, 6, 10)] {
        let stats = Stats::new_shared();
        let _ = sort_rows_ovc(rows(n, k, domain, 9), k, &stats);
        assert!(
            stats.col_value_cmps() <= (n * k) as u64,
            "N={n} K={k}: {} > N*K",
            stats.col_value_cmps()
        );
    }
}

#[test]
fn full_external_sort_within_levels_times_n_k() {
    // Two merge levels (fan-in forces them) plus run generation: <= 3*N*K.
    let n = 4000;
    let k = 3;
    let stats = Stats::new_shared();
    let cfg = SortConfig::new(k, 250).with_fan_in(4);
    let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
    let _ = external_sort_spec_to_run(
        rows(n, k, 4, 10),
        cfg,
        &SortSpec::asc(k),
        &mut storage,
        &stats,
    );
    let levels = 3u64; // run gen + two merge levels
    assert!(
        stats.col_value_cmps() <= levels * (n * k) as u64,
        "{} > levels*N*K",
        stats.col_value_cmps()
    );
}

#[test]
fn no_log_n_factor_in_column_comparisons() {
    // Column comparisons must grow linearly in N: doubling N should
    // roughly double them, never multiply by 2·log-ish factors.
    let k = 3;
    let mut counts = Vec::new();
    for exp in 0..4 {
        let n = 2000usize << exp;
        let stats = Stats::new_shared();
        let _ = sort_rows_ovc(rows(n, k, 4, 11), k, &stats);
        counts.push(stats.col_value_cmps() as f64);
    }
    for w in counts.windows(2) {
        let growth = w[1] / w[0];
        assert!(
            growth < 2.3,
            "column comparisons grew superlinearly: factor {growth:.2} on doubling"
        );
    }
    // Contrast: the quicksort baseline *does* carry the log factor, so its
    // comparison count is far higher at every size.
    let n = 16000;
    let s_ovc = Stats::new_shared();
    let s_plain = Stats::new_shared();
    let _ = sort_rows_ovc(rows(n, k, 4, 12), k, &s_ovc);
    let _ = ovc_baseline::sort_rows_plain(rows(n, k, 4, 12), k, &s_plain);
    assert!(s_ovc.col_value_cmps() * 3 < s_plain.col_value_cmps());
}

/// A tournament plays a fixed number of matches, whatever the data: its
/// build `cap − 1` and each leaf-to-root pass `log2(cap)`, with `cap` the
/// leaf count rounded up to a power of two.  So code comparisons have a
/// closed form, for run generation over `n` single-row leaves and for a
/// merge of `f` runs holding `N` rows.
#[test]
fn tournament_code_comparisons_have_a_closed_form() {
    let expect = |leaves: usize, rows: usize| {
        let cap = leaves.next_power_of_two() as u64;
        (cap - 1) + rows as u64 * u64::from(cap.trailing_zeros())
    };
    for n in [1usize, 2, 3, 5, 8, 100, 1024, 1500] {
        let stats = Stats::new_shared();
        let run = sort_rows_ovc(rows(n, 3, 4, 18), 3, &stats);
        assert_eq!(run.len(), n);
        assert_eq!(stats.ovc_cmps(), expect(n, n), "run generation, n={n}");
    }
    let k = 2;
    for f in [1usize, 2, 3, 5, 8, 9] {
        // Runs of unequal length, the second one empty.
        let runs: Vec<Run> = (0..f)
            .map(|i| {
                let len = if i == 1 { 0 } else { 20 + 7 * i };
                let mut rows = rows(len, k, 4, 19 + i as u64);
                rows.sort();
                Run::from_sorted_rows(rows, k)
            })
            .collect();
        let total: usize = runs.iter().map(Run::len).sum();
        let stats = Stats::new_shared();
        let merged = FlatMerge::new(runs, SortSpec::asc(k), Arc::clone(&stats)).into_run();
        assert_eq!(merged.len(), total);
        assert_eq!(stats.ovc_cmps(), expect(f, total), "merge, f={f}");
    }
}

#[test]
fn merge_join_column_comparisons_bounded() {
    for n in [500usize, 2000, 8000] {
        let k = 2;
        let stats = Stats::new_shared();
        let sorted = |seed| {
            let mut rows = rows(n, k, 8, seed);
            rows.sort();
            Run::from_sorted_rows(rows, k).batches(1024)
        };
        let mut join = MergeJoin::new(
            sorted(13),
            sorted(14),
            k,
            JoinType::Inner,
            k,
            k,
            1024,
            Arc::clone(&stats),
        );
        while join.next_batch().unwrap().is_some() {}
        assert!(
            stats.col_value_cmps() <= (2 * n * k) as u64,
            "join at N={n}: {} > 2N*K",
            stats.col_value_cmps()
        );
    }
}

#[test]
fn unique_first_column_costs_n_column_accesses() {
    // Section 7's extreme case: "with a unique first column, the entire
    // operation accesses not N × K but only N column values, each only
    // once to prime offset-value codes".  Priming happens when leaf codes
    // initialize (no counter); every further comparison is decided by
    // codes, so the
    // counted column comparisons during the sort are zero.
    let n = 4096;
    let mut shuffled: Vec<Row> = (0..n).map(|i| Row::new(vec![i as u64, 7, 7, 7])).collect();
    // Deterministic shuffle.
    let mut rng = StdRng::seed_from_u64(15);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let stats = Stats::new_shared();
    let out = sort_rows_ovc(shuffled, 4, &stats);
    assert_eq!(out.len(), n);
    assert_eq!(
        stats.col_value_cmps(),
        0,
        "a unique first column lets codes decide every comparison"
    );
}

#[test]
fn replacement_selection_bounded_by_constant_times_n_k() {
    // Replacement selection pays one run-assignment comparison per row
    // (<= K columns), the exact-output derivation (<= K), plus tree
    // comparisons bounded as usual: comfortably within 4*N*K.
    let n = 5000;
    let k = 3;
    let stats = Stats::new_shared();
    let runs = ovc_sort::replacement::generate_runs_replacement(rows(n, k, 4, 16), k, 64, &stats);
    assert!(!runs.is_empty());
    assert!(
        stats.col_value_cmps() <= (4 * n * k) as u64,
        "{} > 4*N*K",
        stats.col_value_cmps()
    );
    // And merging those runs stays within N*K again.
    let before = stats.snapshot();
    let merged = ovc_sort::merge_runs_to_run_spec(runs, &SortSpec::asc(k), &stats);
    assert_eq!(merged.len(), n);
    let delta = stats.snapshot().since(&before);
    assert!(delta.col_value_cmps <= (n * k) as u64);
}

#[test]
fn generate_runs_strategies_comparison_ordering() {
    // OVC PQ <= quicksort in column comparisons, at every size tested.
    for n in [1000usize, 4000] {
        let k = 4;
        let data = rows(n, k, 3, 17);
        let s_pq = Stats::new_shared();
        let s_qs = Stats::new_shared();
        let spec = SortSpec::asc(k);
        let _ = generate_runs_spec(
            data.clone(),
            &spec,
            256,
            RunGenStrategy::OvcPriorityQueue,
            &s_pq,
        );
        let _ = generate_runs_spec(data, &spec, 256, RunGenStrategy::Quicksort, &s_qs);
        assert!(s_pq.col_value_cmps() < s_qs.col_value_cmps());
    }
}
