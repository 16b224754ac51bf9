//! The observability contract (DESIGN.md §11): profiling observes, it
//! never perturbs.  A profiled execution must produce byte-identical
//! rows and codes and identical `Stats` totals versus an unprofiled
//! execution of the same plan, the profile tree must mirror the plan
//! shape, exchange gauges must account for every row that crossed a
//! thread boundary, and `explain_analyze` must render the measured
//! counters the paper's argument is about (column comparisons vs
//! comparisons resolved by offset-value codes).

use ovc_core::{Ovc, OvcRow, Row, Stats};
use ovc_plan::exec::{execute, execute_profiled, ExecOptions};
use ovc_plan::{
    figure5, Aggregate, Catalog, JoinType, LogicalPlan, Planner, PlannerConfig, Predicate,
    Preference, Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(rng: &mut StdRng, n: usize, key_max: u64) -> Vec<Row> {
    (0..n)
        .map(|_| Row::new(vec![rng.gen_range(0..key_max), rng.gen_range(0..50u64)]))
        .collect()
}

/// Run one plan unprofiled and profiled under the same knobs and
/// demand byte-identity of rows, codes, and counter totals; return the
/// frozen profile.
fn assert_profiling_is_invisible(
    plan: &ovc_plan::PhysicalPlan,
    catalog: &Catalog,
    options: &ExecOptions,
) -> ovc_core::PlanProfile {
    let plain_stats = Stats::new_shared();
    let plain: Vec<(Row, Ovc)> = execute(plan, catalog, &plain_stats, options)
        .into_coded()
        .into_iter()
        .map(|r| (r.row, r.code))
        .collect();

    let prof_stats = Stats::new_shared();
    let (out, root) = execute_profiled(plan, catalog, &prof_stats, options);
    let profiled: Vec<(Row, Ovc)> = out
        .into_coded()
        .into_iter()
        .map(|r| (r.row, r.code))
        .collect();

    assert_eq!(
        plain, profiled,
        "profiled rows/codes must be byte-identical"
    );
    assert_eq!(
        plain_stats.snapshot(),
        prof_stats.snapshot(),
        "profiled Stats totals must be identical"
    );
    let profile = root.snapshot();
    assert_eq!(profile.metrics.rows_out, plain.len() as u64);
    profile
}

/// Profile tree and plan tree walk in lockstep: same node count, same
/// names, same details, preorder.
fn assert_mirrors(plan: &ovc_plan::PhysicalPlan, profile: &ovc_core::PlanProfile) {
    let plan_nodes = plan.nodes();
    let prof_nodes = profile.nodes();
    assert_eq!(plan_nodes.len(), prof_nodes.len(), "tree shapes differ");
    for (p, n) in plan_nodes.iter().zip(&prof_nodes) {
        assert_eq!(p.op_name(), n.name);
        assert_eq!(p.op_detail(), n.detail);
    }
}

/// The ISSUE 6 acceptance criterion, part 1: the Figure-5 sort plan,
/// profiled, matches the unprofiled run byte for byte, and its profile
/// carries per-operator rows/wall/comparison figures.
#[test]
fn figure5_sort_plan_profiles_without_perturbation() {
    let mut rng = StdRng::seed_from_u64(0x0B5E);
    let t1: Vec<Row> = (0..600)
        .map(|_| Row::new(vec![rng.gen_range(0..80u64)]))
        .collect();
    let t2: Vec<Row> = (0..500)
        .map(|_| Row::new(vec![rng.gen_range(0..80u64)]))
        .collect();
    let catalog = figure5::catalog_unsorted(t1, t2);
    let cfg = PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(8)
        .with_preference(Preference::ForceSortBased);
    let plan = figure5::plan_intersect(&catalog, cfg).expect("plans");
    assert!(plan.uses_sort_based_ops());

    let profile = assert_profiling_is_invisible(&plan, &catalog, &ExecOptions::default());
    assert_mirrors(&plan, &profile);

    // The sort side did measurable work: the blocking operators report
    // rows out and comparisons, and every figure the acceptance names
    // is present per operator.
    let distinct = profile
        .find("InSortDistinct")
        .expect("sort-based distinct in the profile");
    assert!(distinct.metrics.rows_out > 0);
    assert!(
        distinct.metrics.code_resolved_cmps() > 0,
        "in-sort dedup resolves comparisons by code"
    );
    let scans: Vec<_> = profile
        .nodes()
        .into_iter()
        .filter(|n| n.name == "ScanRows")
        .collect();
    assert_eq!(scans.len(), 2);
    assert_eq!(
        scans.iter().map(|s| s.metrics.rows_out).sum::<u64>(),
        1100,
        "scans observed every input row"
    );
    // Inclusive accounting: the root's wall time covers its subtree.
    for n in profile.nodes() {
        assert!(profile.metrics.wall >= n.metrics.wall || n.metrics.wall.is_zero());
    }
}

/// A sort-based inner join of two unsorted tables, planned at dop 4 with
/// `batch`-row exchange edges: two splitting exchanges feed a partitioned
/// merge join whose workers a gathering exchange merges.
fn dop4_exchange_join(batch: usize) -> (Catalog, ovc_plan::PhysicalPlan) {
    let mut rng = StdRng::seed_from_u64(0xD0B4);
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(random_rows(&mut rng, 400, 25)));
    catalog.register("r", Table::unsorted(random_rows(&mut rng, 350, 25)));
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    let cfg = PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(8)
        .with_preference(Preference::ForceSortBased)
        .with_dop(4)
        .with_parallel_threshold(1)
        .with_batch_size(batch);
    let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
    (catalog, plan)
}

/// The ISSUE 6 acceptance criterion, part 2: a planned dop=4 exchange
/// join — batches crossing every exchange channel — profiles without
/// perturbation, every Exchange node carries channel gauges, the gauges
/// account for every row that crossed, and queue depth is metered in
/// messages (batches), not rows.
#[test]
fn planned_dop4_exchange_join_profiles_with_gauges() {
    const BATCH: usize = 8;
    let (catalog, plan) = dop4_exchange_join(BATCH);
    assert_eq!(plan.count_op("Exchange"), 3, "two splits + one gather");

    let options = ExecOptions {
        batch_size: Some(BATCH),
        ..Default::default()
    };
    let profile = assert_profiling_is_invisible(&plan, &catalog, &options);
    assert_mirrors(&plan, &profile);

    // Every Exchange in the profile carries 4 channel gauges, and the
    // rows crossing each exchange equal the rows its subtree produced.
    let exchanges: Vec<_> = profile
        .nodes()
        .into_iter()
        .filter(|n| n.name == "Exchange")
        .collect();
    assert_eq!(exchanges.len(), 3);
    for ex in &exchanges {
        assert_eq!(ex.gauges.len(), 4, "one gauge per partition");
        let crossed: u64 = ex.gauges.iter().map(|g| g.rows).sum();
        assert_eq!(
            crossed, ex.metrics.rows_out,
            "gauges account for every row that crossed `{}{}`",
            ex.name, ex.detail
        );
        // Batches, not rows, are the channel currency: peak queue depth
        // is counted in messages, so on the bounded worker→gather edge
        // it can never exceed the message capacity (scaled down by the
        // batch size) plus the one message in flight.
        if ex.detail.contains("single") {
            let cap = ovc_exec::DEFAULT_CHANNEL_CAPACITY.div_ceil(BATCH) as u64;
            for (p, g) in ex.gauges.iter().enumerate() {
                assert!(
                    g.peak_depth <= cap + 1,
                    "gather channel {p}: peak {} > bound {}",
                    g.peak_depth,
                    cap + 1
                );
            }
        }
    }
    // Non-exchange operators have no gauges.
    for n in profile.nodes() {
        if n.name != "Exchange" {
            assert!(n.gauges.is_empty(), "{} should not carry gauges", n.name);
        }
    }
}

/// `explain_analyze` format contract: one line per operator carrying
/// estimates and the measured rows out / wall time / column comparisons
/// / code-resolved comparisons, with gauge lines under each exchange.
#[test]
fn explain_analyze_renders_estimates_and_measurements() {
    let mut rng = StdRng::seed_from_u64(0x0E5A);
    let t1: Vec<Row> = (0..300)
        .map(|_| Row::new(vec![rng.gen_range(0..40u64)]))
        .collect();
    let t2: Vec<Row> = (0..300)
        .map(|_| Row::new(vec![rng.gen_range(0..40u64)]))
        .collect();
    let catalog = figure5::catalog_unsorted(t1, t2);
    let cfg = PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(8)
        .with_preference(Preference::ForceSortBased);
    let plan = figure5::plan_intersect(&catalog, cfg).expect("plans");

    let text = plan.explain_analyze(&catalog, &ExecOptions::default());
    assert_eq!(text.lines().count(), plan.nodes().len(), "{text}");
    for node in plan.nodes() {
        assert!(text.contains(node.op_name()), "{text}");
    }
    for line in text.lines() {
        assert!(line.contains("(est rows~"), "{line}");
        assert!(line.contains("rows out="), "{line}");
        assert!(line.contains("wall="), "{line}");
        assert!(line.contains("col cmps="), "{line}");
        assert!(line.contains("code cmps="), "{line}");
    }

    // A parallel plan adds `~ channel` gauge lines beneath exchanges.
    let par = figure5::plan_intersect(&catalog, cfg.with_dop(4).with_parallel_threshold(1))
        .expect("plans");
    if par.count_op("Exchange") > 0 {
        let text = par.explain_analyze(&catalog, &ExecOptions::default());
        assert!(text.contains("~ channel 0:"), "{text}");
        assert!(text.contains("send wait="), "{text}");
        assert!(text.contains("recv wait="), "{text}");
        assert!(text.contains("peak depth="), "{text}");
    }
}

/// Profiling composes with `verify_trusted` (the planner audit mode)
/// and with early termination: a TopK root abandons its input, and the
/// profile still reports the rows that actually flowed — at most one
/// batch past the limit (DESIGN.md §12).
#[test]
fn profiled_topk_reports_partial_drains() {
    const BATCH: usize = 4;
    let mut rng = StdRng::seed_from_u64(0x109C);
    let rows: Vec<Row> = (0..500)
        .map(|_| Row::new(vec![rng.gen_range(0..1000u64), rng.gen_range(0..10u64)]))
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").top_k(1, 7);
    let cfg = PlannerConfig::default().with_memory_rows(64).with_fan_in(8);
    let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");

    let stats = Stats::new_shared();
    let options = ExecOptions {
        verify_trusted: true,
        batch_size: Some(BATCH),
    };
    let (out, root) = execute_profiled(&plan, &catalog, &stats, &options);
    let got: Vec<OvcRow> = out.into_coded();
    assert_eq!(got.len(), 7);
    let profile = root.snapshot();
    assert_eq!(profile.metrics.rows_out, 7, "TopK emitted exactly k rows");
    // The sort below it materialized all 500 input rows but streamed out
    // only the batches TopK pulled: the limit rounded up to a batch.
    let sort = profile.find("SortOvc").expect("sort below TopK");
    assert!(
        sort.metrics.rows_out < (7 + BATCH) as u64,
        "pull model: at most one batch of overdrain, got {}",
        sort.metrics.rows_out
    );
    assert_eq!(sort.metrics.batches, 2, "two batches of four cover k=7");
}

/// `pipeline_sorted`'s shape at a few thousand rows: a fact table sorted
/// on `(c0, c1, c2, c3)`, filtered on `c2`, merge-joined with a sorted
/// dimension on `(c0, c1)`, grouped on `(c0, c1)`.  Every sort is elided,
/// so the counted work is the filter's, the merge join's and the
/// grouping's.
fn sorted_pipeline() -> (Catalog, LogicalPlan) {
    const DOMAIN: u64 = 30;
    let mut rng = StdRng::seed_from_u64(0x9192);
    let fact: Vec<Row> = (0..4000)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..DOMAIN),
                rng.gen_range(0..DOMAIN),
                rng.gen_range(0..100u64),
                rng.gen_range(0..1000u64),
            ])
        })
        .collect();
    let dim: Vec<Row> = (0..DOMAIN)
        .flat_map(|a| (0..DOMAIN).map(move |b| (a, b)))
        .map(|(a, b)| Row::new(vec![a, b, rng.gen_range(0..1000u64)]))
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("fact", Table::sorted_from_unsorted(fact));
    catalog.register("dim", Table::sorted_from_unsorted(dim));
    let q = LogicalPlan::scan("fact")
        .filter(Predicate::ColLt(2, 30))
        .join(LogicalPlan::scan("dim"), 2, JoinType::Inner)
        .group_by(2, vec![Aggregate::Count, Aggregate::Sum(4)]);
    (catalog, q)
}

/// Run `plan` profiled at `batch` rows per batch; return each node's
/// (name, col cmps, code cmps), preorder, after checking that the root's
/// counters are the query's `Stats` totals and that every node's
/// counters cover its children's.
fn profiled_counts(
    plan: &ovc_plan::PhysicalPlan,
    catalog: &Catalog,
    batch: usize,
) -> Vec<(String, u64, u64)> {
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: Some(batch),
        ..Default::default()
    };
    let (out, root) = execute_profiled(plan, catalog, &stats, &options);
    assert!(!out.into_coded().is_empty());
    let profile = root.snapshot();
    assert_eq!(
        (
            profile.metrics.col_cmps(),
            profile.metrics.code_resolved_cmps()
        ),
        (stats.col_value_cmps(), stats.ovc_cmps()),
        "batch {batch}: the root holds every counted comparison"
    );
    assert_eq!(profile.metrics.stats, stats.snapshot(), "batch {batch}");
    for n in profile.nodes() {
        let mut children = ovc_core::StatsSnapshot::default();
        for c in &n.children {
            children.add(&c.metrics.stats);
        }
        let (own, sum) = (n.metrics.stats, children);
        assert!(
            own.col_value_cmps >= sum.col_value_cmps
                && own.ovc_cmps >= sum.ovc_cmps
                && own.row_cmps >= sum.row_cmps
                && own.rows_spilled >= sum.rows_spilled
                && own.bytes_spilled >= sum.bytes_spilled
                && own.rows_read_back >= sum.rows_read_back
                && own.bytes_read_back >= sum.bytes_read_back,
            "batch {batch}: `{}{}` ({own:?}) does not cover its children ({sum:?})",
            n.name,
            n.detail
        );
    }
    profile
        .nodes()
        .into_iter()
        .map(|n| {
            (
                format!("{}{}", n.name, n.detail),
                n.metrics.col_cmps(),
                n.metrics.code_resolved_cmps(),
            )
        })
        .collect()
}

/// A count belongs to the node whose code made it and inclusive is the
/// subtree sum (DESIGN.md §11): each node's inclusive counters are then
/// the same whatever the batch size, and the root's are the totals.
#[test]
fn per_node_counts_do_not_depend_on_batch_size() {
    let (catalog, q) = sorted_pipeline();
    let plan = Planner::new(&catalog, PlannerConfig::default())
        .plan(&q)
        .expect("plans");
    assert_eq!(plan.count_op("SortOvc"), 0, "every sort elided");
    let reference = profiled_counts(&plan, &catalog, 1024);
    let (_, root_col, root_code) = &reference[0];
    assert!(*root_code > 0, "the kernels counted: {reference:?}");
    assert!(*root_col > 0, "the merge join compared columns");
    for batch in [1, 7] {
        assert_eq!(
            profiled_counts(&plan, &catalog, batch),
            reference,
            "batch {batch}"
        );
    }
}

/// The totals check under early termination: a `TopK` whose k is
/// smaller than one batch stops pulling, and what the kernels below it
/// counted is still all in the root's subtree sum.
#[test]
fn early_stop_keeps_root_counts_equal_to_totals() {
    let (catalog, q) = sorted_pipeline();
    let q = q.top_k(2, 5);
    let plan = Planner::new(&catalog, PlannerConfig::default())
        .plan(&q)
        .expect("plans");
    for batch in [7, 64, 1024] {
        let counts = profiled_counts(&plan, &catalog, batch);
        assert!(counts[0].2 > 0, "batch {batch}: {counts:?}");
    }
}

/// Worker threads count into the blocks of the nodes whose code they
/// run, so a dop-4 plan's root holds the query's totals at every batch
/// size (`profiled_counts` checks it, and that each node covers its
/// children), and the partitioned join and the gather report the same
/// figures whatever the batch size.
#[test]
fn dop4_exchange_join_root_counts_equal_totals() {
    let (catalog, plan) = dop4_exchange_join(8);
    let reference = profiled_counts(&plan, &catalog, 8);
    assert!(reference[0].2 > 0, "the plan counted: {reference:?}");
    let join = reference
        .iter()
        .find(|(name, ..)| name.starts_with("MergeJoinOvc"))
        .expect("a merge join in the plan");
    assert!(
        join.2 > 0,
        "the partitioned join's workers counted: {join:?}"
    );
    assert_eq!(profiled_counts(&plan, &catalog, 1024), reference);
}
