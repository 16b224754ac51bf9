//! Property tests of the `ovc-plan` planner: whatever physical plan it
//! picks, the answer must be the answer — and every sort it elides must
//! be justified by exact offset-value codes on the stream it trusted.

use std::collections::{BTreeMap, BTreeSet};

use ovc_core::derive::{assert_codes_exact, assert_codes_exact_spec, derive_codes_spec};
use ovc_core::{Direction, Ovc, OvcRow, Row, SortSpec, Stats};
use ovc_plan::exec::{execute, ExecOptions};
use ovc_plan::{
    Aggregate, Catalog, JoinType, LogicalPlan, Planner, PlannerConfig, Predicate, Preference,
    SetOp, Table,
};
use proptest::prelude::*;

/// Multiset of rows, order-insensitive.
fn multiset(rows: Vec<Row>) -> BTreeMap<Vec<u64>, usize> {
    let mut m = BTreeMap::new();
    for r in rows {
        *m.entry(r.cols().to_vec()).or_insert(0) += 1;
    }
    m
}

fn exec_with(
    q: &LogicalPlan,
    catalog: &Catalog,
    pref: Preference,
    verify: bool,
) -> (ovc_plan::PhysicalPlan, Vec<Row>) {
    let cfg = PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(8)
        .with_preference(pref);
    let plan = Planner::new(catalog, cfg).plan(q).expect("plans");
    let stats = Stats::new_shared();
    let out = execute(
        &plan,
        catalog,
        &stats,
        &ExecOptions {
            verify_trusted: verify,
            ..Default::default()
        },
    );
    (plan, out.into_rows())
}

/// The property at the heart of the planner tests: the cost-based choice,
/// the forced sort-based plan, and the forced hash-based plan all return
/// the same multiset of rows, and every elided sort survives the
/// exact-code audit.
fn assert_plan_choice_is_semantically_free(q: &LogicalPlan, catalog: &Catalog) {
    let (auto_plan, auto_rows) = exec_with(q, catalog, Preference::Auto, true);
    let (_, sort_rows) = exec_with(q, catalog, Preference::ForceSortBased, true);
    let (_, hash_rows) = exec_with(q, catalog, Preference::ForceHashBased, true);
    let auto = multiset(auto_rows);
    assert_eq!(
        auto,
        multiset(sort_rows),
        "auto and forced-sort disagree for plan:\n{auto_plan}"
    );
    assert_eq!(
        auto,
        multiset(hash_rows),
        "auto and forced-hash disagree for plan:\n{auto_plan}"
    );
}

fn rows_strategy(width: usize, max_rows: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(0u64..12, width), 0..max_rows)
        .prop_map(|v| v.into_iter().map(Row::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized Figure 5: intersect over unsorted heap tables.
    #[test]
    fn set_ops_agree_across_plan_choices(
        t1 in rows_strategy(1, 300),
        t2 in rows_strategy(1, 300),
        op_sel in 0usize..6,
    ) {
        let op = [SetOp::Union, SetOp::UnionAll, SetOp::Intersect,
                  SetOp::IntersectAll, SetOp::Except, SetOp::ExceptAll][op_sel];
        let mut catalog = Catalog::new();
        catalog.register("t1", Table::unsorted(t1));
        catalog.register("t2", Table::unsorted(t2));
        let q = LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), op);
        assert_plan_choice_is_semantically_free(&q, &catalog);
    }

    /// Joins (all types) with filters above scans; sorted and unsorted
    /// base tables mixed, so elision opportunities come and go.
    #[test]
    fn joins_agree_across_plan_choices(
        t1 in rows_strategy(2, 200),
        t2 in rows_strategy(2, 200),
        jt_sel in 0usize..6,
        sorted_left in 0usize..2,
        threshold in 0u64..12,
    ) {
        let jt = [JoinType::Inner, JoinType::LeftOuter, JoinType::RightOuter,
                  JoinType::FullOuter, JoinType::LeftSemi, JoinType::LeftAnti][jt_sel];
        let mut catalog = Catalog::new();
        if sorted_left == 1 {
            let mut s = t1;
            s.sort();
            catalog.register("t1", Table::sorted(s, 2));
        } else {
            catalog.register("t1", Table::unsorted(t1));
        }
        catalog.register("t2", Table::unsorted(t2));
        let q = LogicalPlan::scan("t1")
            .filter(Predicate::ColLt(0, threshold))
            .join(LogicalPlan::scan("t2"), 1, jt);
        assert_plan_choice_is_semantically_free(&q, &catalog);
    }

    /// Distinct and grouping over mixed-sortedness inputs.
    #[test]
    fn distinct_and_group_agree_across_plan_choices(
        rows in rows_strategy(2, 300),
        store_sorted in 0usize..2,
    ) {
        let mut catalog = Catalog::new();
        if store_sorted == 1 {
            let mut s = rows.clone();
            s.sort();
            catalog.register("t", Table::sorted(s, 2));
        } else {
            catalog.register("t", Table::unsorted(rows.clone()));
        }
        let q = LogicalPlan::scan("t").distinct();
        assert_plan_choice_is_semantically_free(&q, &catalog);

        let g = LogicalPlan::scan("t").group_by(1, vec![Aggregate::Count, Aggregate::Sum(1)]);
        assert_plan_choice_is_semantically_free(&g, &catalog);

        // Reference semantics for the grouping.
        let (_, got) = exec_with(&g, &catalog, Preference::Auto, true);
        let mut expect: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for r in &rows {
            let e = expect.entry(r.cols()[0]).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.cols()[1];
        }
        let expect_rows: Vec<Vec<u64>> =
            expect.into_iter().map(|(k, (c, s))| vec![k, c, s]).collect();
        let got_rows: Vec<Vec<u64>> = got.iter().map(|r| r.cols().to_vec()).collect();
        prop_assert_eq!(got_rows, expect_rows);
    }

    /// The ISSUE 3 satellite: a `SortSpec` plan with mixed asc/desc
    /// directions (normalized-key encoding included) produces rows
    /// byte-identical to the `ovc-baseline` full-compare sort under the
    /// same spec, and codes byte-identical to the reference derivation
    /// over those rows — serial, and at dop 4 with every workspace
    /// sorted on four threads.
    #[test]
    fn mixed_direction_sort_plan_matches_baseline_full_compare_sort(
        rows in rows_strategy(2, 300),
        dir_sel in 0usize..4,
        norm_sel in 0usize..2,
        dop_sel in 0usize..2,
    ) {
        let normalized = norm_sel == 1;
        let dirs = [
            [Direction::Asc, Direction::Desc],
            [Direction::Desc, Direction::Asc],
            [Direction::Desc, Direction::Desc],
            [Direction::Asc, Direction::Asc],
        ][dir_sel];
        let spec = SortSpec::with_dirs(&dirs).with_normalized(normalized);
        let mut catalog = Catalog::new();
        catalog.register("t", Table::unsorted(rows.clone()));
        let q = LogicalPlan::scan("t").sort_by(spec.clone());
        let dop = [1, 4][dop_sel];
        let cfg = PlannerConfig::default()
            .with_memory_rows(48)
            .with_fan_in(4)
            .with_dop(dop)
            .with_parallel_threshold(0);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        prop_assert_eq!(&plan.props.order, &spec, "{}", plan.explain());
        prop_assert_eq!(plan.props.dop, dop, "{}", plan.explain());
        let stats = Stats::new_shared();
        let out: Vec<OvcRow> =
            execute(&plan, &catalog, &stats, &ExecOptions { verify_trusted: true, ..Default::default() }).into_coded();

        // Reference: the baseline's instrumented full-compare sort.
        let baseline =
            ovc_baseline::sort_rows_plain_spec(rows, &spec, &Stats::new_shared());
        let got_rows: Vec<Row> = out.iter().map(|r| r.row.clone()).collect();
        prop_assert_eq!(&got_rows, &baseline, "rows byte-identical");
        let expect_codes = derive_codes_spec(&baseline, &spec);
        let got_codes: Vec<Ovc> = out.iter().map(|r| r.code).collect();
        prop_assert_eq!(got_codes, expect_codes, "codes byte-identical");
    }

    /// A descending-stored table under a descending Sort demand: the
    /// planner elides the sort (`TrustSorted` under a desc spec), and the
    /// `assert_codes_exact` audit of the trusted stream passes.
    #[test]
    fn descending_trust_sorted_elision_survives_code_audit(rows in rows_strategy(2, 300)) {
        let spec = SortSpec::desc(2);
        let mut s = rows;
        s.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
        let n = s.len();
        let mut catalog = Catalog::new();
        catalog.register("t", Table::sorted_by(s, spec.clone()));
        let q = LogicalPlan::scan("t").sort_by(spec.clone());
        let plan = Planner::new(&catalog, PlannerConfig::default()).plan(&q).expect("plans");
        prop_assert_eq!(plan.count_op("SortOvc"), 0, "{}", plan.explain());
        prop_assert_eq!(plan.count_op("Reverse"), 0, "{}", plan.explain());
        prop_assert_eq!(plan.elided_sorts().len(), 1, "{}", plan.explain());
        let stats = Stats::new_shared();
        // verify_trusted audits the trusted stream with
        // assert_codes_exact_spec under the descending spec.
        let out: Vec<OvcRow> =
            execute(&plan, &catalog, &stats, &ExecOptions { verify_trusted: true, ..Default::default() }).into_coded();
        prop_assert_eq!(out.len(), n);
        let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
        assert_codes_exact_spec(&pairs, &spec);
    }

    /// A sorted-table scan under an explicit Sort demand: the planner
    /// must elide the sort, and the elision must survive the code audit.
    #[test]
    fn sort_over_sorted_table_is_elided_and_justified(rows in rows_strategy(2, 300)) {
        let mut s = rows;
        s.sort();
        let n = s.len();
        let mut catalog = Catalog::new();
        catalog.register("t", Table::sorted(s, 2));
        let q = LogicalPlan::scan("t").sort(2);
        let cfg = PlannerConfig::default();
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        prop_assert_eq!(plan.count_op("SortOvc"), 0, "no sort needed:\n{}", plan.explain());
        prop_assert_eq!(plan.elided_sorts().len(), 1, "{}", plan.explain());
        let stats = Stats::new_shared();
        // verify_trusted drains the trusted stream through
        // assert_codes_exact — the elision's justification.
        let out = execute(&plan, &catalog, &stats, &ExecOptions { verify_trusted: true, ..Default::default() });
        prop_assert_eq!(out.into_rows().len(), n);
    }
}

/// On randomized inputs, the planner picks the sort-based plan for the
/// Figure 5 intersect-distinct workload when the inputs are sorted and
/// coded, elides the redundant sorts, and returns exactly the `BTreeSet`
/// intersection; the forced hash plan over the same tables stored
/// unsorted returns it too (order-insensitive).
#[test]
fn figure5_acceptance_sorted_inputs() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xF1605 + seed);
        let n = rng.gen_range(100..2000usize);
        let d1 = rng.gen_range(5..200u64);
        let d2 = rng.gen_range(5..200u64);
        let t1: Vec<Row> = (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..d1)]))
            .collect();
        let t2: Vec<Row> = (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..d2)]))
            .collect();

        // Planner side: inputs registered sorted (and therefore coded).
        let catalog = ovc_plan::figure5::catalog_sorted(t1.clone(), t2.clone());
        let cfg = PlannerConfig::default().with_memory_rows(n / 8 + 8);
        let plan = ovc_plan::figure5::plan_intersect(&catalog, cfg).expect("plans");
        assert!(
            plan.uses_sort_based_ops() && !plan.uses_hash_based_ops(),
            "sorted coded inputs must yield the sort-based plan (seed {seed}):\n{plan}"
        );
        assert_eq!(
            plan.elided_sorts().len(),
            2,
            "both input sorts must be elided (seed {seed}):\n{plan}"
        );
        assert_eq!(
            plan.count_op("SortOvc") + plan.count_op("InSortDistinct"),
            0,
            "no physical sort may remain (seed {seed}):\n{plan}"
        );

        let stats = Stats::new_shared();
        let out = execute(
            &plan,
            &catalog,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        );
        assert_eq!(stats.rows_spilled(), 0, "nothing blocks, nothing spills");
        // Oracle: the set intersection, independent of every kernel.
        let expect: Vec<Row> = {
            let a: BTreeSet<Row> = t1.iter().cloned().collect();
            let b: BTreeSet<Row> = t2.iter().cloned().collect();
            a.intersection(&b).cloned().collect()
        };
        assert_eq!(
            out.into_rows(),
            expect,
            "planner-produced sort plan must match the oracle (seed {seed})"
        );

        // The hash plan over the same tables stored unsorted.
        let unsorted = ovc_plan::figure5::catalog_unsorted(t1, t2);
        let cfg = cfg.with_preference(Preference::ForceHashBased);
        let (plan, out) =
            ovc_plan::figure5::run_intersect(&unsorted, cfg, &Stats::new_shared()).expect("plans");
        assert!(!plan.uses_sort_based_ops(), "(seed {seed}):\n{plan}");
        let mut hash_rows = out.into_rows();
        hash_rows.sort();
        assert_eq!(
            hash_rows, expect,
            "forced hash plan must match the oracle (seed {seed})"
        );
    }
}

/// EXPLAIN prints the full physical-property contract: the order spec
/// with per-column directions, the partitioning, and — on parallel
/// operators — the dop, instead of the old bare column-count and
/// `dop=N` suffix.
#[test]
fn explain_prints_full_order_and_partitioning_properties() {
    let rows: Vec<Row> = (0..500).map(|i| Row::new(vec![i % 13, i % 7])).collect();
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(rows.clone()));
    catalog.register("r", Table::unsorted(rows.clone()));

    // Serial mixed-direction sort: full spec in both the operator detail
    // and the property suffix.
    let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
    let plan = Planner::new(&catalog, PlannerConfig::default())
        .plan(&LogicalPlan::scan("l").sort_by(spec))
        .expect("plans");
    let ex = plan.explain();
    assert!(ex.contains("SortOvc key=[c0 asc, c1 desc]"), "{ex}");
    assert!(ex.contains("order=[c0 asc, c1 desc]"), "{ex}");
    assert!(ex.contains("part=single"), "{ex}");

    // Partition-parallel join: explicit exchange targets, hash
    // partitioning, and dop all visible.
    let cfg = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_dop(4)
        .with_parallel_threshold(1);
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
    let ex = plan.explain();
    assert!(ex.contains("Exchange -> hash(c0)x4"), "{ex}");
    assert!(ex.contains("Exchange -> single"), "{ex}");
    assert!(ex.contains("part=hash(c0)x4"), "{ex}");
    assert!(ex.contains("dop=4"), "{ex}");
    // A descending elision renders its spec too.
    let spec = SortSpec::desc(1);
    let mut sorted = rows;
    sorted.sort_by(|a, b| spec.cmp_keys(a.key(1), b.key(1)));
    catalog.register("d", Table::sorted_by(sorted, spec.clone()));
    let plan = Planner::new(&catalog, PlannerConfig::default())
        .plan(&LogicalPlan::scan("d").sort_by(spec))
        .expect("plans");
    let ex = plan.explain();
    assert!(
        ex.contains("TrustSorted key=[c0 desc] (sort elided)"),
        "{ex}"
    );
    assert!(ex.contains("order=[c0 desc]"), "{ex}");
}

/// Unknown tables and schema violations surface as planner errors, not
/// panics.
#[test]
fn planner_reports_errors() {
    let catalog = Catalog::new();
    let err = Planner::new(&catalog, PlannerConfig::default())
        .plan(&LogicalPlan::scan("nope"))
        .unwrap_err();
    assert!(matches!(err, ovc_plan::PlanError::UnknownTable(_)), "{err}");

    let mut catalog = Catalog::new();
    catalog.register("a", Table::unsorted(vec![Row::new(vec![1])]));
    catalog.register("b", Table::unsorted(vec![Row::new(vec![1, 2])]));
    let err = Planner::new(&catalog, PlannerConfig::default())
        .plan(&LogicalPlan::scan("a").set_op(LogicalPlan::scan("b"), SetOp::Union))
        .unwrap_err();
    assert!(matches!(err, ovc_plan::PlanError::Schema(_)), "{err}");
}

/// Regression: a hash join whose build side holds more rows of one join
/// key than the memory budget used to panic ("hash recursion too deep"),
/// and the planner lowers every hash-preferred join onto it.  Forced
/// onto the hash plan, the query now answers with the reference
/// multiset, the same as the sort plan.
#[test]
fn forced_hash_join_with_a_hot_key_beyond_memory() {
    let side = |n: u64, hot: u64| -> Vec<Row> {
        (0..n)
            .map(|i| {
                let key = if i < hot { 7 } else { i % 23 };
                Row::new(vec![key, i])
            })
            .collect()
    };
    let (l, r) = (side(200, 150), side(220, 100));
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(l.clone()));
    catalog.register("r", Table::unsorted(r.clone()));
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    let (plan, hash_rows) = exec_with(&q, &catalog, Preference::ForceHashBased, true);
    assert_eq!(plan.count_op("GraceHashJoin"), 1, "{plan}");
    let expect: Vec<Row> = l
        .iter()
        .flat_map(|a| {
            r.iter()
                .filter(move |b| b.cols()[0] == a.cols()[0])
                .map(move |b| Row::new(vec![a.cols()[0], a.cols()[1], b.cols()[1]]))
        })
        .collect();
    assert_eq!(multiset(hash_rows), multiset(expect.clone()));
    let (_, sort_rows) = exec_with(&q, &catalog, Preference::ForceSortBased, true);
    assert_eq!(multiset(sort_rows), multiset(expect));
}

/// Plan and run `q`, a grouping on one column, at `dop` over a catalog
/// of sorted tables and check what the paper promises of a grouping over
/// its own sort order: no sort in the plan, no column comparison in the
/// run, and exact codes on the group key.  Returns the output rows'
/// columns.
fn grouped_without_sorts(q: &LogicalPlan, catalog: &Catalog, dop: usize) -> Vec<Vec<u64>> {
    let cfg = PlannerConfig::default()
        .with_dop(dop)
        .with_parallel_threshold(1)
        .with_batch_size(7);
    let plan = Planner::new(catalog, cfg).plan(q).expect("plans");
    assert_eq!(
        plan.count_op("SortOvc"),
        0,
        "dop {dop}:\n{}",
        plan.explain()
    );
    assert_eq!(plan.count_op("InSortDistinct"), 0, "{}", plan.explain());
    let stats = Stats::new_shared();
    let out = execute(
        &plan,
        catalog,
        &stats,
        &ExecOptions {
            verify_trusted: true,
            ..Default::default()
        },
    )
    .into_coded();
    assert_eq!(stats.col_value_cmps(), 0, "dop {dop}:\n{}", plan.explain());
    // The code tests were counted on this handle, so the zero above is
    // a measurement.
    assert!(out.is_empty() || stats.ovc_cmps() > 0);
    let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
    assert_codes_exact(&pairs, 1);
    pairs.into_iter().map(|(r, _)| r.cols().to_vec()).collect()
}

/// Section 3's count-distinct, `select c0, count(distinct c1) group by
/// c0`, is the plan project → distinct → group-by with a count.  Over a
/// table stored sorted on all its columns, the dedup and the grouping
/// both run on the scan's codes: every sort is elided, at dop 1 and 4.
#[test]
fn planned_count_distinct_runs_on_the_scan_codes() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut rows: Vec<Row> = (0..2000)
        .map(|_| {
            Row::new(
                (0..4)
                    .map(|c| rng.gen_range(0..[12, 9, 4, 50][c]))
                    .collect(),
            )
        })
        .collect();
    rows.sort();
    let mut oracle: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in &rows {
        oracle.entry(r.cols()[0]).or_default().insert(r.cols()[1]);
    }
    let expect: Vec<Vec<u64>> = oracle
        .into_iter()
        .map(|(g, d)| vec![g, d.len() as u64])
        .collect();
    let count_distinct = |table: &str| {
        LogicalPlan::scan(table)
            .project(vec![0, 1])
            .distinct()
            .group_by(1, vec![Aggregate::Count])
    };
    let mut catalog = Catalog::new();
    catalog.register("t", Table::sorted(rows, 4));
    catalog.register("empty", Table::sorted(vec![], 4));
    for dop in [1, 4] {
        let got = grouped_without_sorts(&count_distinct("t"), &catalog, dop);
        assert_eq!(got, expect, "dop {dop}");
        let got = grouped_without_sorts(&count_distinct("empty"), &catalog, dop);
        assert!(got.is_empty(), "dop {dop}");
    }
}

/// One pivot bucket: the sum of column 2 over the rows whose column 1
/// equals `equals`.
fn bucket(equals: u64) -> Aggregate {
    Aggregate::SumWhere {
        col: 2,
        when: 1,
        equals,
    }
}

/// §4.6: "pivoting is like grouping and aggregation", so a pivot is a
/// group-by with one conditional sum per bucket.  The paper's (year,
/// month, sales) → (year, monthly sales) example, then a seeded table
/// against a `BTreeMap` oracle; the group-by keeps the output codes of
/// each group's first row, with no sort at dop 1 and 4.
#[test]
fn planned_pivot_is_a_group_by() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let sales = [
        [2021, 1, 100],
        [2021, 1, 50],
        [2021, 3, 70],
        [2022, 2, 10],
        [2022, 3, 20],
    ];
    let mut rng = StdRng::seed_from_u64(0x9107);
    let mut seeded: Vec<Row> = (0..1500)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..40u64),
                rng.gen_range(0..14u64),
                rng.gen_range(0..1000u64),
            ])
        })
        .collect();
    seeded.sort();
    // Months 1..=12; month 0 and 13 fall outside every bucket.
    let months: Vec<u64> = (1..=12).collect();
    let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in &seeded {
        let [year, month, amount] = [r.cols()[0], r.cols()[1], r.cols()[2]];
        let sums = oracle.entry(year).or_insert_with(|| vec![0; months.len()]);
        if let Some(i) = months.iter().position(|&m| m == month) {
            sums[i] += amount;
        }
    }
    let expect: Vec<Vec<u64>> = oracle
        .into_iter()
        .map(|(year, sums)| [vec![year], sums].concat())
        .collect();

    let mut catalog = Catalog::new();
    let rows = |rs: &[[u64; 3]]| rs.iter().map(|r| Row::new(r.to_vec())).collect();
    catalog.register("sales", Table::sorted(rows(&sales), 2));
    catalog.register("seeded", Table::sorted(seeded, 2));
    catalog.register("outside", Table::sorted(rows(&[[1, 99, 5]]), 2));
    catalog.register("empty", Table::sorted(vec![], 3));
    let pivot = |table: &str, buckets: &[u64]| {
        LogicalPlan::scan(table).group_by(1, buckets.iter().map(|&m| bucket(m)).collect())
    };
    for dop in [1, 4] {
        let got = grouped_without_sorts(&pivot("sales", &[1, 2, 3]), &catalog, dop);
        assert_eq!(got, [[2021, 150, 0, 70], [2022, 0, 10, 20]], "dop {dop}");
        let got = grouped_without_sorts(&pivot("seeded", &months), &catalog, dop);
        assert_eq!(got, expect, "dop {dop}");
        // A group whose values fall outside every bucket still yields
        // its row, all zeros.
        let got = grouped_without_sorts(&pivot("outside", &[1, 2]), &catalog, dop);
        assert_eq!(got, [[1, 0, 0]], "dop {dop}");
        for buckets in [&[][..], &[1, 2, 3]] {
            let got = grouped_without_sorts(&pivot("empty", buckets), &catalog, dop);
            assert!(got.is_empty(), "dop {dop}");
        }
    }
}
