//! Property tests of parallel execution: any degree of parallelism must
//! be invisible in the output — byte-identical rows *and* byte-identical
//! exact offset-value codes against the serial implementation, because
//! exact codes are a function of the output row sequence alone.

use ovc_core::derive::assert_codes_exact;
use ovc_core::{BatchStream, CodedBatch, FlatBatches, Ovc, OvcRow, Row, Stats, VecStream};
use ovc_exec::exchange::{self, partition};
use ovc_exec::parallel::{merge_threaded, repartition_threaded, split_threaded};
use ovc_plan::exec::{execute, ExecOptions};
use ovc_plan::{figure5, PlannerConfig, Preference};
use ovc_sort::external::external_sort_collect;
use ovc_sort::parallel::{parallel_sort, parallel_sort_distinct};
use ovc_sort::{Run, SortConfig};
use proptest::prelude::*;

/// Sorted rows as the serial batch kernels take them: one coded run, cut
/// every 64 rows.
fn batches(rows: &[Row], key_len: usize) -> FlatBatches {
    Run::from_sorted_rows(rows.to_vec(), key_len).batches(64)
}

/// Drain a serial batch kernel into the boxed coded rows the parallel
/// outputs below are compared with.
fn drain(mut kernel: impl BatchStream) -> Vec<OvcRow> {
    std::iter::from_fn(|| kernel.next_batch())
        .flat_map(|b| b.to_ovc_rows())
        .collect()
}

fn rows_strategy(width: usize, max_rows: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(0u64..40, width), 0..max_rows)
        .prop_map(|v| v.into_iter().map(Row::new).collect())
}

fn exact(pairs: &[(Row, Ovc)], key_len: usize) {
    assert_codes_exact(pairs, key_len);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel sort ≡ serial sort, rows and codes, threads ∈ {2, 4}.
    #[test]
    fn parallel_sort_equals_serial(rows in rows_strategy(2, 400), mem in 16usize..96) {
        let serial = external_sort_collect(
            rows.clone(),
            SortConfig::new(2, mem),
            &Stats::new_shared(),
        );
        for threads in [2usize, 4] {
            let stats = Stats::new_shared();
            let par: Vec<OvcRow> =
                parallel_sort(rows.clone(), 2, threads, mem, 64, &stats).collect();
            prop_assert_eq!(&par, &serial, "threads={}", threads);
            let pairs: Vec<(Row, Ovc)> = par.into_iter().map(|r| (r.row, r.code)).collect();
            exact(&pairs, 2);
        }
    }

    /// Parallel in-sort distinct ≡ sorted-dedup reference, with codes.
    #[test]
    fn parallel_distinct_equals_serial(rows in rows_strategy(2, 400)) {
        let mut expect = rows.clone();
        expect.sort();
        expect.dedup();
        for threads in [2usize, 4] {
            let out: Vec<OvcRow> =
                parallel_sort_distinct(rows.clone(), 2, threads, 32, 8, &Stats::new_shared())
                    .collect();
            let got: Vec<Row> = out.iter().map(|r| r.row.clone()).collect();
            prop_assert_eq!(&got, &expect, "threads={}", threads);
            let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
            exact(&pairs, 2);
        }
    }

    /// The threaded exchange matches the serial exchange partition by
    /// partition — including under extreme skew (every row to one
    /// partition, the others empty) — and a threaded split/merge round
    /// trip reproduces the input stream exactly.
    #[test]
    fn threaded_exchange_equals_serial(
        rows in rows_strategy(2, 300),
        parts in 2usize..5,
        skew_sel in 0usize..2,
    ) {
        let skewed = skew_sel == 1;
        let mut sorted = rows;
        sorted.sort();
        let make_part = |parts: usize, skewed: bool| -> Box<dyn FnMut(&Row) -> usize + Send> {
            if skewed {
                // One hot partition, the rest empty.
                Box::new(move |_: &Row| parts - 1)
            } else {
                Box::new(partition::by_hash(0, parts))
            }
        };

        let serial = exchange::split(
            VecStream::from_sorted_rows(sorted.clone(), 2),
            parts,
            make_part(parts, skewed),
        );
        let threaded = split_threaded(
            CodedBatch::from_sorted_rows(sorted.clone(), 2),
            parts,
            make_part(parts, skewed),
            8,
        )
        .collect_all();
        prop_assert_eq!(threaded.len(), parts);
        let mut batches = Vec::new();
        for (t, s) in threaded.into_iter().zip(serial) {
            let s_rows: Vec<OvcRow> = s.collect();
            prop_assert_eq!(t.to_ovc_rows(), s_rows);
            batches.push(t);
        }
        if skewed {
            prop_assert!(batches[..parts - 1].iter().all(|b| b.is_empty()));
            prop_assert_eq!(batches[parts - 1].len(), sorted.len());
        }

        // Round trip: merging the partitions restores the input stream.
        let merged: Vec<OvcRow> =
            merge_threaded(batches, 2, 8, &Stats::new_shared()).collect();
        let expect: Vec<OvcRow> = VecStream::from_sorted_rows(sorted, 2).collect();
        prop_assert_eq!(merged, expect);
    }

    /// Many-to-many repartitioning (N splitters, P mergers, all threaded)
    /// matches the serial many-to-many shuffle output for output.
    #[test]
    fn threaded_repartition_equals_serial(
        a in rows_strategy(2, 200),
        b in rows_strategy(2, 200),
        parts_out in 2usize..4,
    ) {
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        let stats = Stats::new_shared();
        let threaded = repartition_threaded(
            vec![
                CodedBatch::from_sorted_rows(a.clone(), 2),
                CodedBatch::from_sorted_rows(b.clone(), 2),
            ],
            2,
            parts_out,
            || partition::by_hash(1, parts_out),
            8,
            &stats,
        );
        let serial = exchange::many_to_many(
            vec![
                VecStream::from_sorted_rows(a, 2),
                VecStream::from_sorted_rows(b, 2),
            ],
            parts_out,
            || partition::by_hash(1, parts_out),
            &Stats::new_shared(),
        );
        for (t, s) in threaded.into_iter().zip(serial) {
            let s_rows: Vec<OvcRow> = s.collect();
            prop_assert_eq!(t.into_rows(), s_rows);
        }
    }

    /// Planned partition-parallel grouping ≡ the serial operator, rows
    /// and codes, for arbitrary inputs (few distinct keys leave
    /// partitions empty; the hash on the group key may park everything
    /// on one worker; the empty table runs every worker dry).
    #[test]
    fn partitioned_group_by_equals_serial(
        rows in rows_strategy(2, 300),
        parts in 2usize..5,
    ) {
        use ovc_exec::GroupAggregate;
        use ovc_plan::{Aggregate, Catalog, LogicalPlan, Planner, Table};
        let mut rows = rows;
        rows.sort();
        let aggs = vec![Aggregate::Count, Aggregate::Sum(1), Aggregate::Last(1)];
        let serial = drain(GroupAggregate::new(
            batches(&rows, 2),
            1,
            aggs.clone(),
            64,
            Stats::new_shared(),
        ));
        let mut catalog = Catalog::new();
        catalog.register("t", Table::sorted(rows, 2));
        let q = LogicalPlan::scan("t").group_by(1, aggs);
        let cfg = PlannerConfig::default()
            .with_preference(Preference::ForceSortBased)
            .with_dop(parts)
            .with_parallel_threshold(0);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        prop_assert_eq!(plan.count_op("Exchange"), 2, "split + gather:\n{}", plan);
        let gathered = execute(
            &plan,
            &catalog,
            &Stats::new_shared(),
            &ExecOptions { verify_trusted: true, ..Default::default() },
        )
        .into_coded();
        prop_assert_eq!(gathered, serial, "parts={}", parts);
    }

    /// Partition-parallel count-distinct (partials hashed on the full
    /// sort key, summed by the final merge) ≡ the serial operator.
    #[test]
    fn partitioned_count_distinct_equals_serial(
        rows in rows_strategy(2, 300),
        parts in 2usize..5,
    ) {
        use ovc_exec::parallel::count_distinct_partitions_partial;
        use ovc_exec::{Aggregate, GroupCountDistinct, GroupFinal};
        let mut rows = rows;
        rows.sort();
        let serial: Vec<OvcRow> = GroupCountDistinct::new(
            VecStream::from_sorted_rows(rows.clone(), 2),
            1,
            Stats::new_shared(),
        )
        .collect();
        let stats = Stats::new_shared();
        let split = split_threaded(
            CodedBatch::from_sorted_rows(rows, 2),
            parts,
            partition::by_key_hash(2, parts),
            8,
        )
        .collect_all();
        let partials = count_distinct_partitions_partial(split, 1, &stats);
        let gathered = merge_threaded(partials, 2, 8, &stats);
        let out: Vec<OvcRow> =
            GroupFinal::new(gathered, 1, vec![Aggregate::Count], std::sync::Arc::clone(&stats))
                .collect();
        prop_assert_eq!(out, serial, "parts={}", parts);
    }

    /// Planned partition-parallel set operations ≡ the serial operator,
    /// rows and codes, for all six operations over arbitrary (including
    /// empty) inputs.
    #[test]
    fn partitioned_set_ops_equal_serial(
        l in rows_strategy(2, 200),
        r in rows_strategy(2, 200),
        op_sel in 0usize..6,
        parts in 2usize..4,
    ) {
        use ovc_exec::SetOperation;
        use ovc_plan::{Catalog, LogicalPlan, Planner, SetOp, Table};
        let op = [
            SetOp::Union,
            SetOp::UnionAll,
            SetOp::Intersect,
            SetOp::IntersectAll,
            SetOp::Except,
            SetOp::ExceptAll,
        ][op_sel];
        let (mut l, mut r) = (l, r);
        l.sort();
        r.sort();
        let serial = drain(SetOperation::new(
            batches(&l, 2),
            batches(&r, 2),
            op,
            64,
            Stats::new_shared(),
        ));
        let mut catalog = Catalog::new();
        catalog.register("l", Table::sorted(l, 2));
        catalog.register("r", Table::sorted(r, 2));
        let q = LogicalPlan::scan("l").set_op(LogicalPlan::scan("r"), op);
        let cfg = PlannerConfig::default()
            .with_preference(Preference::ForceSortBased)
            .with_dop(parts)
            .with_parallel_threshold(0);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        prop_assert_eq!(plan.count_op("Exchange"), 3, "two splits + gather:\n{}", plan);
        let gathered = execute(
            &plan,
            &catalog,
            &Stats::new_shared(),
            &ExecOptions { verify_trusted: true, ..Default::default() },
        )
        .into_coded();
        prop_assert_eq!(gathered, serial, "{:?} parts={}", op, parts);
    }

    /// The acceptance property: the Figure-5 query planned with dop ∈
    /// {2, 4} executes to byte-identical rows and exact codes as the
    /// dop=1 plan, with every elided sort still passing the trusted-
    /// stream audit.
    #[test]
    fn figure5_parallel_plans_equal_serial(
        t1 in rows_strategy(1, 300),
        t2 in rows_strategy(1, 300),
    ) {
        let catalog = figure5::catalog_unsorted(t1, t2);
        let base = PlannerConfig::default()
            .with_memory_rows(48)
            .with_fan_in(8)
            .with_preference(Preference::ForceSortBased);
        let run = |cfg: PlannerConfig| -> Vec<OvcRow> {
            let plan = figure5::plan_intersect(&catalog, cfg).expect("plans");
            let stats = Stats::new_shared();
            execute(&plan, &catalog, &stats, &ExecOptions { verify_trusted: true, ..Default::default() }).into_coded()
        };
        let serial = run(base);
        let pairs: Vec<(Row, Ovc)> =
            serial.iter().map(|r| (r.row.clone(), r.code)).collect();
        exact(&pairs, 1);
        for dop in [2usize, 4] {
            let parallel = run(base.with_dop(dop).with_parallel_threshold(1));
            prop_assert_eq!(&parallel, &serial, "dop={}", dop);
        }
    }
}

/// The ISSUE 3 acceptance criterion: a planned merge join over two
/// hash-co-partitioned inputs runs with explicit `Exchange` nodes in
/// EXPLAIN — split both inputs on the join key, join partition pairs on
/// worker threads, gather with the order-preserving merging shuffle —
/// and returns byte-identical rows *and exact codes* vs the serial
/// single-thread plan.
#[test]
fn planned_merge_join_with_explicit_exchanges_matches_serial() {
    use ovc_core::Row;
    use ovc_plan::{Catalog, JoinType, LogicalPlan, Planner, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xE8C4A);
    let mk = |rng: &mut StdRng, n: usize| -> Vec<Row> {
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..25u64), rng.gen_range(0..50u64)]))
            .collect()
    };
    for join_type in [JoinType::Inner, JoinType::LeftOuter, JoinType::LeftSemi] {
        let mut catalog = Catalog::new();
        catalog.register("l", Table::unsorted(mk(&mut rng, 400)));
        catalog.register("r", Table::unsorted(mk(&mut rng, 350)));
        let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, join_type);
        let base = PlannerConfig::default()
            .with_memory_rows(64)
            .with_fan_in(8)
            .with_preference(Preference::ForceSortBased);

        // Serial plan: no exchanges anywhere.
        let serial_plan = Planner::new(&catalog, base).plan(&q).expect("plans");
        assert_eq!(serial_plan.count_op("Exchange"), 0, "{serial_plan}");

        // Parallel plan: split both join inputs, gather above the join.
        let par_cfg = base.with_dop(4).with_parallel_threshold(1);
        let par_plan = Planner::new(&catalog, par_cfg).plan(&q).expect("plans");
        assert_eq!(
            par_plan.count_op("Exchange"),
            3,
            "two splits + one gather ({join_type:?}):\n{par_plan}"
        );
        assert_eq!(par_plan.exchanges().len(), 3, "{par_plan}");
        let ex = par_plan.explain();
        assert!(ex.contains("Exchange -> hash(c0)x4"), "{ex}");
        assert!(ex.contains("Exchange -> single"), "{ex}");
        assert!(ex.contains("part=hash(c0)x4"), "{ex}");

        let run = |plan: &ovc_plan::PhysicalPlan| -> Vec<OvcRow> {
            let stats = Stats::new_shared();
            execute(
                plan,
                &catalog,
                &stats,
                &ExecOptions {
                    verify_trusted: true,
                    ..Default::default()
                },
            )
            .into_coded()
        };
        let serial = run(&serial_plan);
        let parallel = run(&par_plan);
        assert_eq!(parallel, serial, "{join_type:?}: rows and codes");
        // All three plans sort their inputs on the 1-column join key, so
        // the join output (semi included) is coded at arity 1.
        let pairs: Vec<(Row, Ovc)> = serial.into_iter().map(|r| (r.row, r.code)).collect();
        exact(&pairs, 1);
    }
}

/// The ISSUE 5 acceptance criterion, grouping half: a planned `dop=4`
/// group-by EXPLAINs with `Exchange -> hash(group key) x4` below the
/// grouping and `Exchange -> single` above it, runs on real threads via
/// `split_threaded`/`merge_threaded`, and produces rows and codes
/// byte-identical to the `dop=1` plan — all six aggregates included.
#[test]
fn planned_group_by_with_explicit_exchanges_matches_serial() {
    use ovc_core::Row;
    use ovc_plan::{Aggregate, Catalog, LogicalPlan, Planner, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x6A0B);
    let rows: Vec<Row> = (0..500)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..20u64),
                rng.gen_range(0..10u64),
                rng.gen_range(0..100u64),
            ])
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").group_by(
        1,
        vec![
            Aggregate::Count,
            Aggregate::Sum(2),
            Aggregate::Min(2),
            Aggregate::Max(2),
            Aggregate::First(2),
            Aggregate::Last(2),
        ],
    );
    let base = PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(8)
        .with_preference(Preference::ForceSortBased);

    // Serial plan: no exchanges anywhere.
    let serial_plan = Planner::new(&catalog, base).plan(&q).expect("plans");
    assert_eq!(serial_plan.count_op("Exchange"), 0, "{serial_plan}");

    // Parallel plan: split below the grouping, gather above it.
    let par_cfg = base.with_dop(4).with_parallel_threshold(1);
    let par_plan = Planner::new(&catalog, par_cfg).plan(&q).expect("plans");
    assert_eq!(
        par_plan.count_op("Exchange"),
        2,
        "one split + one gather:\n{par_plan}"
    );
    let ex = par_plan.explain();
    assert!(ex.contains("Exchange -> hash(c0)x4"), "{ex}");
    assert!(ex.contains("Exchange -> single"), "{ex}");
    assert!(ex.contains("part=hash(c0)x4"), "{ex}");
    assert!(ex.contains("dop=4"), "{ex}");
    assert_eq!(par_plan.props.dop, 4);

    let run = |plan: &ovc_plan::PhysicalPlan| -> Vec<OvcRow> {
        let stats = Stats::new_shared();
        let out = execute(
            plan,
            &catalog,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_coded();
        // Stats snapshots account every comparison: the grouping's
        // per-row boundary tests land in the caller's counters at any
        // dop (500 input rows at minimum, plus sort and exchange work).
        assert!(stats.ovc_cmps() >= 500, "boundary tests accounted");
        out
    };
    let serial = run(&serial_plan);
    let parallel = run(&par_plan);
    assert_eq!(parallel, serial, "rows and codes");
    let pairs: Vec<(Row, Ovc)> = serial.into_iter().map(|r| (r.row, r.code)).collect();
    exact(&pairs, 1);
}

/// The ISSUE 5 acceptance criterion, set-operation half: every planned
/// `dop=4` set operation EXPLAINs with `Exchange -> hash(whole row) x4`
/// under both inputs plus a gather, and answers byte-identically to the
/// serial plan — all six operations.
#[test]
fn planned_set_ops_with_explicit_exchanges_match_serial() {
    use ovc_core::Row;
    use ovc_plan::{Catalog, LogicalPlan, Planner, SetOp, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mk = |seed: u64, n: usize| -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Row::new(vec![rng.gen_range(0..15u64), rng.gen_range(0..4u64)]))
            .collect()
    };
    for op in [
        SetOp::Union,
        SetOp::UnionAll,
        SetOp::Intersect,
        SetOp::IntersectAll,
        SetOp::Except,
        SetOp::ExceptAll,
    ] {
        let mut catalog = Catalog::new();
        catalog.register("l", Table::unsorted(mk(0xA1, 400)));
        catalog.register("r", Table::unsorted(mk(0xB2, 350)));
        let q = LogicalPlan::scan("l").set_op(LogicalPlan::scan("r"), op);
        let base = PlannerConfig::default()
            .with_memory_rows(64)
            .with_fan_in(8)
            .with_preference(Preference::ForceSortBased);

        let serial_plan = Planner::new(&catalog, base).plan(&q).expect("plans");
        assert_eq!(serial_plan.count_op("Exchange"), 0, "{serial_plan}");

        let par_cfg = base.with_dop(4).with_parallel_threshold(1);
        let par_plan = Planner::new(&catalog, par_cfg).plan(&q).expect("plans");
        assert_eq!(
            par_plan.count_op("Exchange"),
            3,
            "two splits + one gather ({op:?}):\n{par_plan}"
        );
        let ex = par_plan.explain();
        assert!(ex.contains("Exchange -> hash(c0,c1)x4"), "{ex}");
        assert!(ex.contains("Exchange -> single"), "{ex}");

        let run = |plan: &ovc_plan::PhysicalPlan| -> Vec<OvcRow> {
            let stats = Stats::new_shared();
            execute(
                plan,
                &catalog,
                &stats,
                &ExecOptions {
                    verify_trusted: true,
                    ..Default::default()
                },
            )
            .into_coded()
        };
        let serial = run(&serial_plan);
        let parallel = run(&par_plan);
        assert_eq!(parallel, serial, "{op:?}: rows and codes");
        let pairs: Vec<(Row, Ovc)> = serial.into_iter().map(|r| (r.row, r.code)).collect();
        exact(&pairs, 2);
    }
}

/// Skew and empty partitions: a group-by whose keys all hash to one
/// partition (every other partition empty) still matches serial.
#[test]
fn skewed_planned_group_by_matches_serial() {
    use ovc_core::Row;
    use ovc_plan::{Aggregate, Catalog, LogicalPlan, Planner, Table};

    // One hot group key — all rows share it, so one partition gets
    // everything and dop-1 partitions run empty.
    let rows: Vec<Row> = (0..300).map(|i| Row::new(vec![7, i % 13])).collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").group_by(1, vec![Aggregate::Count, Aggregate::Sum(1)]);
    let base = PlannerConfig::default()
        .with_memory_rows(64)
        .with_preference(Preference::ForceSortBased);
    let run = |cfg: PlannerConfig| -> Vec<OvcRow> {
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        let stats = Stats::new_shared();
        execute(
            &plan,
            &catalog,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_coded()
    };
    let serial = run(base);
    let parallel = run(base.with_dop(4).with_parallel_threshold(1));
    assert_eq!(parallel, serial);
    assert_eq!(serial.len(), 1, "a single hot group");
}

/// The prefix-hash partial-aggregate decomposition at the operator
/// level: exchange hashed on the full sort key (groups split across
/// partitions), per-partition `GroupPartial` workers, gathering merge,
/// `GroupFinal` — byte-identical to the serial grouping for all six
/// aggregates, across partition counts and a skewed distribution.
#[test]
fn prefix_hash_partial_aggregate_matches_serial() {
    use ovc_exec::exchange::partition;
    use ovc_exec::parallel::group_partitions_partial;
    use ovc_exec::{Aggregate, GroupAggregate, GroupFinal};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xF00D);
    // Skewed: group 0 holds half of all rows.
    let mut rows: Vec<Row> = (0..600)
        .map(|_| {
            let g = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1..6u64)
            };
            Row::new(vec![g, rng.gen_range(0..25u64), rng.gen_range(0..50u64)])
        })
        .collect();
    rows.sort();
    let aggs = vec![
        Aggregate::Count,
        Aggregate::Sum(2),
        Aggregate::Min(2),
        Aggregate::Max(2),
        Aggregate::First(2),
        Aggregate::Last(2),
    ];
    let serial = drain(GroupAggregate::new(
        batches(&rows, 3),
        1,
        aggs.clone(),
        64,
        Stats::new_shared(),
    ));
    for parts in [2usize, 4] {
        let stats = Stats::new_shared();
        let split = split_threaded(
            CodedBatch::from_sorted_rows(rows.clone(), 3),
            parts,
            partition::by_key_hash(3, parts),
            16,
        )
        .collect_all();
        let partials = group_partitions_partial(split, 1, aggs.clone(), &stats);
        let gathered = merge_threaded(partials, 3, 16, &stats);
        let out: Vec<OvcRow> =
            GroupFinal::new(gathered, 1, aggs.clone(), std::sync::Arc::clone(&stats)).collect();
        assert_eq!(out, serial, "parts={parts}");
        let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
        exact(&pairs, 1);
    }
}

/// Regression (code review): the partitioning enforcer must not shuffle
/// streams whose trusted order is longer than the ascending join prefix
/// — a table stored `[c0 asc, c1 desc]` satisfies an ascending 1-column
/// join requirement via TrustSorted, but the threaded exchange path is
/// ascending-only, so the join stays serial (and correct) despite the
/// dop directive.
#[test]
fn mixed_direction_trusted_inputs_keep_joins_serial() {
    use ovc_core::{Direction, Row, SortSpec};
    use ovc_plan::{Catalog, JoinType, LogicalPlan, Planner, Table};

    let spec = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
    let mk = |seed: u64| -> Vec<Row> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..300)
            .map(|_| Row::new(vec![rng.gen_range(0..15u64), rng.gen_range(0..15u64)]))
            .collect();
        rows.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
        rows
    };
    let mut catalog = Catalog::new();
    catalog.register("l", Table::sorted_by(mk(7), spec.clone()));
    catalog.register("r", Table::sorted_by(mk(8), spec.clone()));
    for join_type in [JoinType::Inner, JoinType::LeftSemi] {
        let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, join_type);
        let cfg = PlannerConfig::default()
            .with_preference(Preference::ForceSortBased)
            .with_dop(4)
            .with_parallel_threshold(1);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        assert_eq!(
            plan.count_op("Exchange"),
            0,
            "mixed-direction trusted inputs must not be shuffled:\n{plan}"
        );
        assert_eq!(plan.elided_sorts().len(), 2, "{plan}");
        let stats = Stats::new_shared();
        let out = execute(
            &plan,
            &catalog,
            &stats,
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_coded();
        // Semi joins preserve the left spec; inner joins code at the
        // ascending join arity.
        match join_type {
            JoinType::LeftSemi => {
                let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
                ovc_core::derive::assert_codes_exact_spec(&pairs, &spec);
            }
            _ => {
                let pairs: Vec<(Row, Ovc)> = out.into_iter().map(|r| (r.row, r.code)).collect();
                exact(&pairs, 1);
            }
        }
    }
}

/// Deterministic spot-check of the planner threshold: small inputs stay
/// serial even when a dop is configured, large ones go parallel.
#[test]
fn dop_threshold_gates_parallel_sorts() {
    let rows: Vec<Row> = (0..100).map(|i| Row::new(vec![i % 7])).collect();
    let catalog = figure5::catalog_unsorted(rows.clone(), rows);
    let cfg = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_dop(8)
        .with_parallel_threshold(1000);
    let plan = figure5::plan_intersect(&catalog, cfg).expect("plans");
    assert_eq!(plan.props.dop, 1, "below threshold stays serial:\n{plan}");
    let plan = figure5::plan_intersect(&catalog, cfg.with_parallel_threshold(10)).expect("plans");
    assert_eq!(plan.props.dop, 8, "above threshold goes parallel:\n{plan}");
    assert!(plan.explain().contains("dop=8"), "{plan}");
}
