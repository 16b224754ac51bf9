//! The paper's Figure 5 experiment, expressed through the planner.
//!
//! Both Figure 5 plans come from one logical query — `select B from T1
//! intersect select B from T2` — over [`catalog_unsorted`]:
//! [`Preference::ForceSortBased`](crate::Preference) yields two
//! `InSortDistinct` (duplicates dropped before runs spill) under a
//! `SetOpMerge` that consumes their codes, two blocking operators;
//! [`Preference::ForceHashBased`](crate::Preference) yields two
//! `HashDistinct` under a `GraceHashJoin`, three blocking operators.
//! `Auto` leaves the choice to the cost model.  The `figures` binary,
//! the `ablation_counters` test, `tests/spill_accounting.rs` and the
//! `intersect_distinct` example all run [`run_intersect`], so Figure 6's
//! counts come from the code users' queries run.

use std::sync::Arc;

use ovc_core::{Row, Stats};

use crate::catalog::{Catalog, Table};
use crate::exec::{execute, ExecOptions, Output};
use crate::logical::{LogicalPlan, SetOp};
use crate::physical::PhysicalPlan;
use crate::planner::{PlanError, Planner, PlannerConfig};

/// The Figure 5 logical query: `select B from T1 intersect select B from
/// T2` over tables registered as `t1` and `t2`.
pub fn intersect_distinct_query() -> LogicalPlan {
    LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), SetOp::Intersect)
}

/// Catalog holding the two Figure 5 inputs as unsorted heap tables (the
/// experiment's setting: no interesting ordering exists yet, both plans
/// must earn their own).
pub fn catalog_unsorted(t1: Vec<Row>, t2: Vec<Row>) -> Catalog {
    let mut cat = Catalog::new();
    cat.register("t1", Table::unsorted(t1));
    cat.register("t2", Table::unsorted(t2));
    cat
}

/// Catalog holding the two inputs stored sorted (and therefore coded):
/// the "interesting orderings available" regime in which the planner
/// should elide every sort.
pub fn catalog_sorted(mut t1: Vec<Row>, mut t2: Vec<Row>) -> Catalog {
    t1.sort();
    t2.sort();
    let w1 = t1.first().map(Row::width).unwrap_or(1);
    let w2 = t2.first().map(Row::width).unwrap_or(1);
    let mut cat = Catalog::new();
    cat.register("t1", Table::sorted(t1, w1));
    cat.register("t2", Table::sorted(t2, w2));
    cat
}

/// Plan the Figure 5 query against `catalog`.
pub fn plan_intersect(catalog: &Catalog, config: PlannerConfig) -> Result<PhysicalPlan, PlanError> {
    Planner::new(catalog, config).plan(&intersect_distinct_query())
}

/// Plan and run the Figure 5 query in one call, returning its output and
/// the chosen plan (spills and comparisons accumulate in `stats`).
pub fn run_intersect(
    catalog: &Catalog,
    config: PlannerConfig,
    stats: &Arc<Stats>,
) -> Result<(PhysicalPlan, Output), PlanError> {
    let plan = plan_intersect(catalog, config)?;
    let out = execute(&plan, catalog, stats, &ExecOptions::default());
    Ok((plan, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Preference;
    use ovc_core::derive::assert_codes_exact;
    use ovc_core::{Ovc, OvcRow};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn table(n: usize, domain: u64, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..domain)]))
            .collect()
    }

    fn reference(t1: &[Row], t2: &[Row]) -> Vec<u64> {
        let a: BTreeSet<u64> = t1.iter().map(|r| r.cols()[0]).collect();
        let b: BTreeSet<u64> = t2.iter().map(|r| r.cols()[0]).collect();
        a.intersection(&b).copied().collect()
    }

    /// The Figure 5 experiment's knobs: memory per blocking operator,
    /// fan-in 64, one side forced.
    fn forced(memory_rows: usize, preference: Preference) -> PlannerConfig {
        PlannerConfig::default()
            .with_memory_rows(memory_rows)
            .with_fan_in(64)
            .with_preference(preference)
    }

    /// Plan and run the Figure 5 query over unsorted `t1`, `t2`.
    fn run(t1: &[Row], t2: &[Row], cfg: PlannerConfig) -> (PhysicalPlan, Output, Arc<Stats>) {
        let cat = catalog_unsorted(t1.to_vec(), t2.to_vec());
        let stats = Stats::new_shared();
        let (plan, out) = run_intersect(&cat, cfg, &stats).expect("plans");
        (plan, out, stats)
    }

    /// The sort plan's output in order, with its codes checked exact.
    fn coded_values(out: Output) -> Vec<u64> {
        let pairs: Vec<(Row, Ovc)> = out
            .into_coded()
            .into_iter()
            .map(|r: OvcRow| (r.row, r.code))
            .collect();
        assert_codes_exact(&pairs, 1);
        pairs.iter().map(|(r, _)| r.cols()[0]).collect()
    }

    /// `select distinct * from t` planned sort-based over an unsorted
    /// table: one `InSortDistinct`.
    fn planned_distinct(rows: Vec<Row>, memory_rows: usize) -> (Output, Arc<Stats>) {
        let mut cat = Catalog::new();
        cat.register("t", Table::unsorted(rows));
        let cfg = forced(memory_rows, Preference::ForceSortBased);
        let plan = Planner::new(&cat, cfg)
            .plan(&LogicalPlan::scan("t").distinct())
            .expect("plans");
        assert_eq!(plan.count_op("InSortDistinct"), 1, "{plan}");
        let stats = Stats::new_shared();
        let out = execute(&plan, &cat, &stats, &ExecOptions::default());
        (out, stats)
    }

    #[test]
    fn in_sort_distinct_output_is_distinct_sorted_exact() {
        let rows = table(2000, 50, 1);
        let expect: BTreeSet<u64> = rows.iter().map(|r| r.cols()[0]).collect();
        let (out, _) = planned_distinct(rows, 128);
        assert_eq!(coded_values(out), expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn in_sort_distinct_spills_less_than_input() {
        // With 2000 rows over 50 distinct values and 128-row memory, early
        // duplicate removal shrinks every spilled run drastically.
        let (_, stats) = planned_distinct(table(2000, 50, 2), 128);
        assert!(
            stats.rows_spilled() > 0 && stats.rows_spilled() < 2000,
            "in-sort aggregation must spill, and fewer rows than the input ({})",
            stats.rows_spilled()
        );
    }

    #[test]
    fn sort_intersect_matches_reference() {
        let (t1, t2) = (table(3000, 40, 3), table(3000, 60, 4));
        let (_, out, _) = run(&t1, &t2, forced(256, Preference::ForceSortBased));
        assert_eq!(coded_values(out), reference(&t1, &t2));
    }

    #[test]
    fn sort_plan_spills_each_row_at_most_once() {
        // Figure 6's claim: the sort-based plan spills each input row only
        // once (here even less, thanks to in-sort dedup).
        let (t1, t2) = (table(4000, 3000, 5), table(4000, 3000, 6)); // mostly distinct
        let (_, _, stats) = run(&t1, &t2, forced(400, Preference::ForceSortBased));
        assert!(
            stats.rows_spilled() > 0 && stats.rows_spilled() <= 8000,
            "each row spilled at most once, got {}",
            stats.rows_spilled()
        );
    }

    #[test]
    fn small_inputs_never_spill() {
        let (t1, t2) = (table(100, 10, 7), table(100, 10, 8));
        let (_, out, stats) = run(&t1, &t2, forced(1000, Preference::ForceSortBased));
        assert!(!out.into_rows().is_empty());
        assert_eq!(stats.rows_spilled(), 0);
    }

    #[test]
    fn hash_and_sort_plans_agree() {
        let (t1, t2) = (table(3000, 500, 1), table(3000, 700, 2));
        let (_, hash, _) = run(&t1, &t2, forced(200, Preference::ForceHashBased));
        let mut hash_rows = hash.into_rows();
        hash_rows.sort();
        let (_, sort, _) = run(&t1, &t2, forced(200, Preference::ForceSortBased));
        assert_eq!(hash_rows, sort.into_rows());
    }

    #[test]
    fn figure6_spill_shape_sort_beats_hash() {
        // The Figure 6 claim: with memory a tenth of the input, the hash
        // plan spills rows in both the aggregations and the join, while
        // the sort plan spills each input row at most once.
        let n = 5000;
        let (t1, t2) = (table(n, 4000, 3), table(n, 4000, 4));
        let (_, _, hs) = run(&t1, &t2, forced(n / 10, Preference::ForceHashBased));
        let (_, _, ss) = run(&t1, &t2, forced(n / 10, Preference::ForceSortBased));
        assert!(
            ss.rows_spilled() <= 2 * n as u64,
            "sort plan spills each row at most once: {}",
            ss.rows_spilled()
        );
        assert!(
            hs.rows_spilled() > ss.rows_spilled() * 5 / 4,
            "hash plan must spill substantially more: hash {} vs sort {}",
            hs.rows_spilled(),
            ss.rows_spilled()
        );
    }

    #[test]
    fn empty_inputs() {
        let some = table(10, 5, 5);
        for preference in [
            Preference::ForceHashBased,
            Preference::ForceSortBased,
            Preference::Auto,
        ] {
            for (t1, t2) in [(&[][..], &some[..]), (&some, &[]), (&[], &[])] {
                let (plan, out, _) = run(t1, t2, forced(10, preference));
                assert!(out.into_rows().is_empty(), "{preference:?}:\n{plan}");
            }
        }
    }

    /// Force sort, force hash and `Auto`, at dop 1 and dop 4, on random
    /// table sizes, value domains and memory budgets: rows must equal the
    /// `BTreeSet` intersection, and a coded output must carry exact codes.
    /// `RANDOM_SEED` reseeds it.
    #[test]
    fn planned_figure5_matches_the_oracle() {
        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(36);
        // Captured, so shown only when a check (e.g. `assert_codes_exact`)
        // fails.
        println!("RANDOM_SEED={seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..12 {
            let t1 = table(rng.gen_range(0..3000), rng.gen_range(1..2000), rng.gen());
            let t2 = table(rng.gen_range(0..3000), rng.gen_range(1..2000), rng.gen());
            let memory_rows = rng.gen_range(8..1024);
            let expect = reference(&t1, &t2);
            for preference in [
                Preference::ForceSortBased,
                Preference::ForceHashBased,
                Preference::Auto,
            ] {
                for dop in [1, 4] {
                    let cfg = forced(memory_rows, preference)
                        .with_dop(dop)
                        .with_parallel_threshold(1);
                    let (plan, out, _) = run(&t1, &t2, cfg);
                    let why = format!(
                        "seed {seed} case {case}: {} x {} rows, memory {memory_rows}, \
                         {preference:?} dop {dop}:\n{plan}",
                        t1.len(),
                        t2.len()
                    );
                    let got = if plan.props.coded {
                        coded_values(out)
                    } else {
                        let mut got: Vec<u64> =
                            out.into_rows().iter().map(|r| r.cols()[0]).collect();
                        got.sort();
                        got
                    };
                    assert_eq!(got, expect, "{why}");
                    if preference == Preference::ForceSortBased {
                        assert!(plan.props.coded, "{why}");
                    }
                }
            }
        }
    }

    #[test]
    fn planner_reproduces_figure5_sort_plan() {
        let (t1, t2) = (table(3000, 40, 1), table(3000, 60, 2));
        let cat = catalog_unsorted(t1.clone(), t2.clone());
        let cfg = PlannerConfig::default()
            .with_memory_rows(256)
            .with_preference(Preference::ForceSortBased);
        let plan = plan_intersect(&cat, cfg).expect("plans");
        // Two in-sort dedups under one merge set operation — Figure 5's
        // sort side, with only two blocking operators.
        assert_eq!(plan.count_op("InSortDistinct"), 2, "{plan}");
        assert_eq!(plan.count_op("SetOpMerge"), 1, "{plan}");
        assert!(!plan.uses_hash_based_ops(), "{plan}");

        let stats = Stats::new_shared();
        let out = execute(&plan, &cat, &stats, &ExecOptions::default());
        let got: Vec<u64> = out.into_rows().iter().map(|r| r.cols()[0]).collect();
        assert_eq!(got, reference(&t1, &t2));
    }

    #[test]
    fn planner_reproduces_figure5_hash_plan() {
        let (t1, t2) = (table(3000, 40, 3), table(3000, 60, 4));
        let cat = catalog_unsorted(t1.clone(), t2.clone());
        let cfg = PlannerConfig::default()
            .with_memory_rows(256)
            .with_preference(Preference::ForceHashBased);
        let plan = plan_intersect(&cat, cfg).expect("plans");
        // Three blocking hash operators — Figure 5's hash side.
        assert_eq!(plan.count_op("HashDistinct"), 2, "{plan}");
        assert_eq!(plan.count_op("GraceHashJoin"), 1, "{plan}");
        assert!(!plan.uses_sort_based_ops(), "{plan}");

        let stats = Stats::new_shared();
        let out = execute(&plan, &cat, &stats, &ExecOptions::default());
        let mut got: Vec<u64> = out.into_rows().iter().map(|r| r.cols()[0]).collect();
        got.sort();
        assert_eq!(got, reference(&t1, &t2));
    }

    #[test]
    fn sorted_coded_inputs_make_the_planner_elide_every_sort() {
        let (t1, t2) = (table(2000, 50, 5), table(2000, 70, 6));
        let cat = catalog_sorted(t1.clone(), t2.clone());
        let cfg = PlannerConfig::default().with_memory_rows(200);
        let plan = plan_intersect(&cat, cfg).expect("plans");
        // The acceptance shape: sort-based, sorts elided, coded scans in.
        assert!(plan.uses_sort_based_ops(), "{plan}");
        assert!(!plan.uses_hash_based_ops(), "{plan}");
        assert_eq!(plan.elided_sorts().len(), 2, "{plan}");
        assert_eq!(
            plan.count_op("SortOvc") + plan.count_op("InSortDistinct"),
            0,
            "{plan}"
        );

        let stats = Stats::new_shared();
        let out = execute(
            &plan,
            &cat,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        );
        let got: Vec<u64> = out.into_rows().iter().map(|r| r.cols()[0]).collect();
        assert_eq!(got, reference(&t1, &t2));
        // Nothing blocked, so nothing spilled.
        assert_eq!(stats.rows_spilled(), 0);
    }

    #[test]
    fn parallel_figure5_matches_serial_rows_and_codes() {
        let (t1, t2) = (table(4000, 500, 9), table(4000, 700, 10));
        let cat = catalog_unsorted(t1, t2);
        let serial_cfg = PlannerConfig::default()
            .with_memory_rows(256)
            .with_preference(Preference::ForceSortBased);
        let parallel_cfg = serial_cfg.with_dop(4).with_parallel_threshold(1);

        let serial_plan = plan_intersect(&cat, serial_cfg).expect("plans");
        let parallel_plan = plan_intersect(&cat, parallel_cfg).expect("plans");
        assert!(parallel_plan.explain().contains("dop=4"), "{parallel_plan}");
        assert_eq!(parallel_plan.props.dop, 4, "{parallel_plan}");
        assert_eq!(serial_plan.props.dop, 1, "{serial_plan}");

        let (s_stats, p_stats) = (Stats::new_shared(), Stats::new_shared());
        let serial = execute(&serial_plan, &cat, &s_stats, &ExecOptions::default()).into_coded();
        let parallel =
            execute(&parallel_plan, &cat, &p_stats, &ExecOptions::default()).into_coded();
        // The acceptance bar: identical rows *and* identical exact codes.
        assert_eq!(serial, parallel);
        // Counters follow the lowering: the serial plan spills (memory is
        // a sixteenth of the input), the parallel sorts keep their runs
        // resident and spill nothing — exactly what the parallel cost
        // functions promised at planning time.
        assert!(s_stats.rows_spilled() > 0);
        assert_eq!(p_stats.rows_spilled(), 0);
        assert_eq!(parallel_plan.cost.spill_rows, 0.0, "{parallel_plan}");
        assert!(serial_plan.cost.spill_rows > 0.0, "{serial_plan}");
        // Both lowerings respect the N × K column-comparison regime on
        // the sort inputs (8000 rows, 1 key column, plus merge slack).
        assert!(p_stats.col_value_cmps() <= s_stats.col_value_cmps() * 2);
    }

    #[test]
    fn auto_preference_picks_sort_when_memory_is_scarce() {
        // Figure 6's regime: memory a tenth of the input, mostly distinct
        // rows, so the hash plan spills (much of it twice) while the sort
        // plan spills each row at most once.  The cost model must see it.
        let n = 4000;
        let (t1, t2) = (table(n, 3000, 7), table(n, 3000, 8));
        let cat = catalog_unsorted(t1, t2);
        let cfg = PlannerConfig::default().with_memory_rows(n / 10);
        let plan = plan_intersect(&cat, cfg).expect("plans");
        assert!(
            plan.uses_sort_based_ops() && !plan.uses_hash_based_ops(),
            "expected the sort-based plan under spill pressure:\n{plan}"
        );
    }
}
