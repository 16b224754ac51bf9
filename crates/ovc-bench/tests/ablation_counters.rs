//! Counter-based ablation, pinned: renders the comparison and spill
//! counters behind the paper's analytical claims — the N×K bound with no
//! log N factor (Section 3), the per-operator comparison budget of
//! Section 4, and the Figure 6 spill shape (the planner's two Figure 5
//! plans, one side forced) — and asserts that the text equals
//! `testdata/ablation_counters.txt` byte for byte.  Every number is a
//! seeded count, never a timing, so any drift in counted work fails.
//!
//! Print the current text with:
//! `cargo test -p ovc-bench --test ablation_counters -- --nocapture`

use std::fmt::Write;
use std::sync::Arc;

use ovc_baseline::{external_sort_plain, GroupFullCompare};
use ovc_bench::count_rows;
use ovc_bench::workload::{grouped_sorted_table, intersect_tables, table, TableSpec};
use ovc_core::Stats;
use ovc_exec::{Aggregate, BatchDedup, GroupAggregate, JoinType, MergeJoin};
use ovc_plan::figure5::{catalog_unsorted, run_intersect};
use ovc_plan::{PlannerConfig, Preference};
use ovc_sort::{external_sort_collect, sort_rows_ovc, Run, SortConfig};

/// The engine's default batch size.
const BATCH: usize = 1024;

fn render() -> Result<String, std::fmt::Error> {
    let mut out = String::new();
    writeln!(
        out,
        "# Ablation: comparison counters (the claims behind the figures)\n"
    )?;

    writeln!(out, "## N x K bound, no log N factor (Section 3)\n")?;
    writeln!(
        out,
        "{:>10} {:>4} {:>14} {:>10} {:>16} {:>12}",
        "N", "K", "ovc col-cmps", "N*K", "plain col-cmps", "plain/ovc"
    )?;
    for exp in 0..5 {
        let n = 25_000usize << exp;
        let k = 3;
        let rows = table(TableSpec {
            rows: n,
            key_cols: k,
            payload_cols: 0,
            distinct_per_col: 4,
            seed: 1,
        });
        let s_ovc = Stats::new_shared();
        let _ = sort_rows_ovc(rows.clone(), k, &s_ovc);
        let s_plain = Stats::new_shared();
        let _ = ovc_baseline::sort_rows_plain(rows, k, &s_plain);
        writeln!(
            out,
            "{:>10} {:>4} {:>14} {:>10} {:>16} {:>12.1}",
            n,
            k,
            s_ovc.col_value_cmps(),
            n * k,
            s_plain.col_value_cmps(),
            s_plain.col_value_cmps() as f64 / s_ovc.col_value_cmps().max(1) as f64
        )?;
    }

    writeln!(
        out,
        "\n## External sort: column comparisons per strategy (N = 400k, K = 4)\n"
    )?;
    let rows = table(TableSpec {
        rows: 400_000,
        key_cols: 4,
        payload_cols: 1,
        distinct_per_col: 8,
        seed: 2,
    });
    let s = Stats::new_shared();
    let _ = external_sort_collect(rows.clone(), SortConfig::new(4, 40_000), &s);
    writeln!(
        out,
        "{:<28} col-cmps {:>12}  code-cmps {:>12}",
        "ovc external sort",
        s.col_value_cmps(),
        s.ovc_cmps()
    )?;
    let s = Stats::new_shared();
    let _ = external_sort_plain(rows, 4, 40_000, 128, &s);
    writeln!(
        out,
        "{:<28} col-cmps {:>12}  code-cmps {:>12}",
        "plain external sort",
        s.col_value_cmps(),
        s.ovc_cmps()
    )?;

    writeln!(
        out,
        "\n## In-stream aggregation boundary tests (Figure 4's mechanism, N = 1M)\n"
    )?;
    let run = Run::from_sorted_rows(grouped_sorted_table(1_000_000, 4, 10, 3), 4);
    let s = Stats::new_shared();
    let _ = count_rows(GroupAggregate::new(
        run.clone().batches(BATCH),
        2,
        vec![Aggregate::Count],
        BATCH,
        Arc::clone(&s),
    ));
    writeln!(
        out,
        "{:<28} col-cmps {:>12}",
        "ovc offset test",
        s.col_value_cmps()
    )?;
    let s = Stats::new_shared();
    let _ = count_rows(GroupFullCompare::new(
        run.batches(BATCH),
        2,
        vec![Aggregate::Count],
        Arc::clone(&s),
    ));
    writeln!(
        out,
        "{:<28} col-cmps {:>12}",
        "full column compare",
        s.col_value_cmps()
    )?;

    writeln!(
        out,
        "\n## Merge join + dedup pipeline budget (2 x 200k rows, K = 2)\n"
    )?;
    let mut l = table(TableSpec {
        rows: 200_000,
        key_cols: 2,
        payload_cols: 1,
        distinct_per_col: 64,
        seed: 4,
    });
    let mut r = table(TableSpec {
        rows: 200_000,
        key_cols: 2,
        payload_cols: 1,
        distinct_per_col: 64,
        seed: 5,
    });
    l.sort();
    r.sort();
    let s = Stats::new_shared();
    let ls = Run::from_sorted_rows(l, 2).batches(BATCH);
    let rs = Run::from_sorted_rows(r, 2).batches(BATCH);
    let join = MergeJoin::new(ls, rs, 2, JoinType::Inner, 3, 3, BATCH, Arc::clone(&s));
    let n_out = count_rows(BatchDedup::new(join));
    writeln!(
        out,
        "join+dedup output rows {n_out}; col-cmps {} (bound 2*N*K = {})",
        s.col_value_cmps(),
        2 * 200_000 * 2
    )?;

    writeln!(
        out,
        "\n## Figure 6 spill shape (rows spilled; input 2 x N, memory N/10)\n"
    )?;
    writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>8}",
        "N", "hash plan", "sort plan", "ratio"
    )?;
    for n in [50_000usize, 200_000] {
        let (t1, t2) = intersect_tables(n, 6);
        let cat = catalog_unsorted(t1, t2);
        let spilled = |preference| {
            let cfg = PlannerConfig::default()
                .with_memory_rows(n / 10)
                .with_fan_in(128)
                .with_preference(preference);
            let stats = Stats::new_shared();
            run_intersect(&cat, cfg, &stats).expect("plans");
            stats.rows_spilled()
        };
        let (hash, sort) = (
            spilled(Preference::ForceHashBased),
            spilled(Preference::ForceSortBased),
        );
        writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>8.2}",
            n,
            hash,
            sort,
            hash as f64 / sort.max(1) as f64
        )?;
    }
    Ok(out)
}

#[test]
fn ablation_counters_match_the_pinned_text() {
    let got = render().expect("render into a String");
    print!("{got}");
    let want = include_str!("../testdata/ablation_counters.txt");
    if let Some((i, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "line {} differs from testdata/ablation_counters.txt:\n  want: {w}\n   got: {g}",
            i + 1
        );
    }
    assert_eq!(got, want, "same lines, different line count or endings");
}
