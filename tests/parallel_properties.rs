//! Property tests of parallel execution: any degree of parallelism must
//! be invisible in the output — byte-identical rows *and* byte-identical
//! exact offset-value codes against the serial implementation, because
//! exact codes are a function of the output row sequence alone.

use ovc_core::batch::{collect_batch_pairs, VecBatchStream};
use ovc_core::derive::{assert_codes_exact, assert_codes_exact_spec};
use ovc_core::{BatchStream, Direction, FlatBatches, FlatRows, Ovc, OvcRow, Row, SortSpec, Stats};
use ovc_exec::exchange::by_cols_hash;
use ovc_exec::route_batches;
use ovc_plan::exec::{execute, ExecOptions};
use ovc_plan::{figure5, PlannerConfig, Preference};
use ovc_sort::external::external_sort_collect;
use ovc_sort::parallel::{parallel_sort, parallel_sort_distinct};
use ovc_sort::{merge_batch_streams, Run, SortConfig};
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

    /// Parallel sort ≡ serial sort, rows and codes, threads ∈ {1, 2, 4, 8}.
    #[test]
    fn parallel_sort_equals_serial(rows in rows_strategy(2, 400), mem in 16usize..96) {
        let serial = external_sort_collect(
            rows.clone(),
            SortConfig::new(2, mem),
            &Stats::new_shared(),
        );
        for threads in [1usize, 2, 4, 8] {
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

    /// The §4.10 round trip on the batch exchange, under an ascending and
    /// a mixed-direction spec, at 2..=5 partitions and batch sizes
    /// {1, 7, 64}, with hash routing or everything routed to one
    /// partition: each partition holds exactly the input rows routed to
    /// it, in input order, with the codes re-derived from its own rows,
    /// and gathering the partitions returns the input's rows and codes.
    #[test]
    fn batch_exchange_splits_and_gathers_exactly(
        rows in rows_strategy(2, 300),
        spec_sel in 0usize..2,
        parts in 2usize..6,
        batch_sel in 0usize..3,
        skew_sel in 0usize..2,
    ) {
        let spec = [
            SortSpec::asc(2),
            SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]),
        ][spec_sel]
            .clone();
        let batch = [1usize, 7, 64][batch_sel];
        let skewed = skew_sel == 1;
        let mut rows = rows;
        rows.sort_by(|a, b| spec.cmp_keys(a.key(2), b.key(2)));
        let input = Run::from_sorted_rows_spec(rows.clone(), spec.clone());
        let mut hash = by_cols_hash(vec![0], parts);
        // Skewed: one hot partition, the rest empty.
        let mut route = move |r: &[u64]| if skewed { parts - 1 } else { hash(r) };

        let mut split: Vec<Vec<FlatRows>> = vec![Vec::new(); parts];
        route_batches(input.clone().batches(batch), parts, route.clone(), batch, |p, b| {
            assert!(!b.is_empty() && b.len() <= batch, "batch of {} rows", b.len());
            split[p].push(b);
            true
        });
        for (p, batches) in split.iter().enumerate() {
            let pairs = collect_batch_pairs(VecBatchStream::new(batches.clone(), spec.clone()));
            let expect: Vec<&Row> = rows.iter().filter(|r| route(r.cols()) == p).collect();
            let got: Vec<&Row> = pairs.iter().map(|(r, _)| r).collect();
            prop_assert_eq!(got, expect, "partition {}", p);
            assert_codes_exact_spec(&pairs, &spec);
        }

        // Round trip: merging the partitions restores the input stream.
        let streams = split
            .into_iter()
            .map(|b| Box::new(VecBatchStream::new(b, spec.clone())) as Box<dyn BatchStream + Send>)
            .collect();
        let merged = merge_batch_streams(streams, &spec, &Stats::new_shared()).into_run();
        prop_assert_eq!(merged.flat(), input.flat());
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
    /// {2, 4, 8} executes to byte-identical rows and exact codes as the
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
        for dop in [2usize, 4, 8] {
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
/// the batch exchange, and produces rows and codes
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
/// set operation at `dop` ∈ {4, 8} EXPLAINs with `Exchange -> hash(whole
/// row) x dop` under both inputs plus a gather, and answers
/// byte-identically to the serial plan — all six operations.
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
        for dop in [4usize, 8] {
            let par_cfg = base.with_dop(dop).with_parallel_threshold(1);
            let par_plan = Planner::new(&catalog, par_cfg).plan(&q).expect("plans");
            assert_eq!(
                par_plan.count_op("Exchange"),
                3,
                "two splits + one gather ({op:?}, dop {dop}):\n{par_plan}"
            );
            let ex = par_plan.explain();
            assert!(
                ex.contains(&format!("Exchange -> hash(c0,c1)x{dop}")),
                "{ex}"
            );
            assert!(ex.contains("Exchange -> single"), "{ex}");
            assert_eq!(run(&par_plan), serial, "{op:?} dop={dop}: rows and codes");
        }
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

/// Repartitioning on real threads equals the serial plan, and is the
/// paper's many-to-many shuffle: a gather followed by a split.  A
/// group-by on `c0` over a merge join on `(c0, c1)` takes the join's
/// `hash(c0,c1)` partitions to `hash(c0)` by gathering them to one stream
/// and splitting that on `c0`.  At dop 2 and 4 the plan says so, and its
/// rows and codes equal the dop-1 plan's.
#[test]
fn threaded_repartition_equals_serial() {
    use ovc_plan::{Aggregate, Catalog, JoinType, LogicalPlan, PhysicalPlan, Planner, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mk = |seed: u64, n: usize| -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| {
                Row::new(vec![
                    rng.gen_range(0..12u64),
                    rng.gen_range(0..6u64),
                    rng.gen_range(0..100u64),
                ])
            })
            .collect();
        rows.sort();
        rows
    };
    let mut catalog = Catalog::new();
    catalog.register("l", Table::sorted(mk(0x3A, 400), 2));
    catalog.register("r", Table::sorted(mk(0x3B, 300), 2));
    let q = LogicalPlan::scan("l")
        .join(LogicalPlan::scan("r"), 2, JoinType::Inner)
        .group_by(1, vec![Aggregate::Count, Aggregate::Sum(2)]);
    let base = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_parallel_threshold(0);
    let run = |plan: &PhysicalPlan| -> Vec<OvcRow> {
        execute(
            plan,
            &catalog,
            &Stats::new_shared(),
            &ExecOptions {
                verify_trusted: true,
                ..Default::default()
            },
        )
        .into_coded()
    };
    // The exchange targets of a subtree, preorder.
    let targets = |node: &PhysicalPlan| -> Vec<String> {
        node.exchanges().iter().map(|n| n.op_detail()).collect()
    };

    let serial_plan = Planner::new(&catalog, base).plan(&q).expect("plans");
    assert_eq!(serial_plan.count_op("Exchange"), 0, "{serial_plan}");
    let serial = run(&serial_plan);
    assert!(!serial.is_empty());
    for dop in [2usize, 4] {
        let plan = Planner::new(&catalog, base.with_dop(dop))
            .plan(&q)
            .expect("plans");
        let gather = " -> single".to_string();
        let split = format!(" -> hash(c0)x{dop}");
        let join = format!(" -> hash(c0,c1)x{dop}");
        // The group-by's split on c0 sits above the join's gather, which
        // sits above the join's two splits on (c0, c1).
        let resplit = plan.exchanges()[1];
        let below = [gather.clone(), join.clone(), join];
        assert_eq!(targets(resplit.exchanges()[1]), below, "{plan}");
        assert_eq!(targets(resplit)[0], split, "{plan}");
        assert_eq!(targets(resplit)[1..], below, "{plan}");
        assert_eq!(targets(&plan)[0], gather, "{plan}");
        assert_eq!(plan.count_op("Exchange"), 5, "{plan}");
        let ex = plan.explain();
        assert!(ex.contains(&format!("Exchange -> hash(c0)x{dop}")), "{ex}");
        assert_eq!(run(&plan), serial, "dop={dop}: rows and codes");
    }
}

/// Regression (code review): the partitioning enforcer must not shuffle
/// streams whose trusted order is longer than the ascending join prefix
/// — a table stored `[c0 asc, c1 desc]` satisfies an ascending 1-column
/// join requirement via TrustSorted, but the planner's partition gate is
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
