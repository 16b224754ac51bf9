//! The batch-size × parallelism differential harness (DESIGN.md §12).
//! There is one executor; [`ExecOptions::batch_size`] and the planner's
//! dop tune granularity and threading, never results.  For any plan,
//! every point of `batch_size ∈ {None, 1, a small odd size, ≥ the input}`
//! × `dop ∈ {1, 2, 4}` must produce
//!
//! * **rows equal to an independent reference** — the logical plan
//!   interpreted over the `ovc-baseline` operators (plain sort, hash
//!   distinct, Grace hash join, full-compare grouping) and naive
//!   multiset arithmetic where the baseline has no operator;
//! * **exact offset-value codes**, re-derived from the rows by
//!   [`assert_codes_exact_spec`] under the plan's own output spec, and
//!   byte-identical rows and codes across *all* twelve points;
//! * **identical [`Stats`] totals across the batch sizes of one plan**
//!   (one dop).  Cross-dop runs execute different physical trees, which
//!   legitimately do different amounts of comparison work and owe only
//!   row/code identity.  The one exception inside a plan is early
//!   termination: under a `TopK`, operators finish the batch in flight
//!   before the limit is observed, so counters may grow with the batch
//!   size (never the results).
//!
//! Until the row-at-a-time executor was deleted this harness proved
//! row ≡ batched on the same corpus; that proof is what licensed the
//! delete, and the reference interpreter now stands where the row
//! executor stood.
//!
//! Plans are generated by a seeded recursive generator over tables
//! chosen adversarially for batching: duplicate-heavy (long runs of
//! equal keys spanning many seams), skewed (one hot value — exchange
//! partitions of wildly different sizes, some empty), uniform, and
//! empty.  Set `RANDOM_SEED` to explore a fresh corner of the space
//! (CI pins one job to the run id); the default seed is fixed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ovc_core::batch::collect_batch_pairs;
use ovc_core::derive::assert_codes_exact_spec;
use ovc_core::{Ovc, Row, RowBatches, SortSpec, Stats, StatsSnapshot};
use ovc_exec::NULL_VALUE;
use ovc_plan::exec::{execute, ExecOptions, Output};
use ovc_plan::logical::Logical;
use ovc_plan::{
    Aggregate, Catalog, JoinType, LogicalPlan, Planner, PlannerConfig, Predicate, Preference,
    SetOp, Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small batch sizes that put seams everywhere.
const SMALL_BATCHES: [usize; 4] = [2, 3, 7, 64];
/// Batch sizes no smaller than any stream in the corpus (tables hold
/// < 250 rows; the widest join output stays far below): one batch per
/// stream.
const WHOLE_INPUT_BATCHES: [usize; 2] = [1 << 16, 1 << 20];

fn table(rng: &mut StdRng, profile: usize, n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let key = match profile {
                // Duplicate-heavy: long runs of equal keys.
                0 => rng.gen_range(0..3u64),
                // Skewed: one hot key, a thin uniform tail.
                1 => {
                    if rng.gen_range(0..10) < 9 {
                        7
                    } else {
                        rng.gen_range(0..40u64)
                    }
                }
                // Uniform.
                _ => rng.gen_range(0..40u64),
            };
            Row::new(vec![key, rng.gen_range(0..50u64)])
        })
        .collect()
}

/// A catalog of width-2 tables with adversarial value distributions,
/// including an empty table and a stored-sorted one.
fn random_catalog(rng: &mut StdRng) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, profile) in [("dup", 0usize), ("skew", 1), ("uni", 2)] {
        let n = rng.gen_range(1..250);
        catalog.register(name, Table::unsorted(table(rng, profile, n)));
    }
    // An empty table is trivially sorted; `sorted_by` pins its width at 2
    // (`unsorted` would infer width 1 from zero rows).
    catalog.register("empty", Table::sorted_by(Vec::new(), SortSpec::asc(2)));
    let n = rng.gen_range(1..200);
    let mut sorted = table(rng, 2, n);
    sorted.sort();
    catalog.register("sorted", Table::sorted(sorted, 2));
    catalog
}

fn leaf(rng: &mut StdRng) -> LogicalPlan {
    let name = ["dup", "skew", "uni", "empty", "sorted"][rng.gen_range(0..5usize)];
    let scan = LogicalPlan::scan(name);
    if rng.gen_bool(0.4) {
        scan.filter(Predicate::ColLt(rng.gen_range(0..2), rng.gen_range(1..45)))
    } else {
        scan
    }
}

/// One random ordered-root plan over width-2 tables: a leaf, an optional
/// binary combiner (join on a 1-column prefix / whole-row set op), and an
/// ordered top (sort, distinct, group-by, or top-k) so every run yields a
/// coded stream whose codes the harness can audit and compare.
fn random_plan(rng: &mut StdRng) -> LogicalPlan {
    let body = match rng.gen_range(0..4) {
        0 => leaf(rng),
        1 => {
            let jt = [
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::RightOuter,
                JoinType::FullOuter,
                JoinType::LeftSemi,
                JoinType::LeftAnti,
            ][rng.gen_range(0..6usize)];
            leaf(rng).join(leaf(rng), 1, jt)
        }
        2 => {
            let op = [
                SetOp::Union,
                SetOp::UnionAll,
                SetOp::Intersect,
                SetOp::IntersectAll,
                SetOp::Except,
                SetOp::ExceptAll,
            ][rng.gen_range(0..6usize)];
            leaf(rng).set_op(leaf(rng), op)
        }
        _ => leaf(rng).group_by(1, vec![Aggregate::Count, Aggregate::Sum(1)]),
    };
    match rng.gen_range(0..4) {
        0 => body.sort(1),
        1 => body.distinct(),
        2 => body.top_k(1, rng.gen_range(1..40)),
        // Over an already-ordered body the planner elides this sort
        // (TrustSorted), so the bare pipeline is still what runs.
        _ => body.sort(1),
    }
}

/// Execute `plan` with `batch` rows per batch (`None` = the engine
/// default), every elided sort audited, and return the coded output
/// plus the run's counter totals.
fn run(
    plan: &ovc_plan::PhysicalPlan,
    catalog: &Catalog,
    batch: Option<usize>,
) -> (Vec<(Row, Ovc)>, StatsSnapshot) {
    let stats = Stats::new_shared();
    let options = ExecOptions {
        verify_trusted: true,
        batch_size: batch,
    };
    let pairs = match execute(plan, catalog, &stats, &options) {
        Output::Stream(run) => run.iter().map(|(r, c)| (Row::from_slice(r), c)).collect(),
        other => panic!(
            "harness plans have ordered roots; got {}",
            match other {
                Output::Rows(_) => "rows",
                Output::Partitions(_) => "partitions",
                Output::Stream(_) => unreachable!(),
            }
        ),
    };
    (pairs, stats.snapshot())
}

// ---------------------------------------------------------------------
// The reference: the logical plan interpreted without a single
// order-based operator of the engine under test.
// ---------------------------------------------------------------------

fn counted(rows: Vec<Row>) -> BTreeMap<Row, usize> {
    let mut m = BTreeMap::new();
    for r in rows {
        *m.entry(r).or_insert(0) += 1;
    }
    m
}

fn reference_join(l: Vec<Row>, r: Vec<Row>, j: usize, jt: JoinType) -> Vec<Row> {
    let stats = Stats::new_shared();
    let (lw, rw) = (2, 2); // every harness table is two columns wide
    let matched = |a: &Row, b: &Row| a.key(j) == b.key(j);
    let pad_right = |a: &Row| {
        let mut c = a.cols().to_vec();
        c.resize(lw + rw - j, NULL_VALUE);
        Row::new(c)
    };
    let pad_left = |b: &Row| {
        let mut c = b.cols()[..j].to_vec();
        c.resize(lw, NULL_VALUE);
        c.extend_from_slice(&b.cols()[j..]);
        Row::new(c)
    };
    let unmatched_left = || l.iter().filter(|a| !r.iter().any(|b| matched(a, b)));
    let unmatched_right = || r.iter().filter(|b| !l.iter().any(|a| matched(a, b)));
    let inner = || ovc_baseline::grace_hash_join(l.clone(), r.clone(), j, usize::MAX, &stats);
    match jt {
        JoinType::Inner => inner(),
        JoinType::LeftOuter => inner()
            .into_iter()
            .chain(unmatched_left().map(pad_right))
            .collect(),
        JoinType::RightOuter => inner()
            .into_iter()
            .chain(unmatched_right().map(pad_left))
            .collect(),
        JoinType::FullOuter => inner()
            .into_iter()
            .chain(unmatched_left().map(pad_right))
            .chain(unmatched_right().map(pad_left))
            .collect(),
        JoinType::LeftSemi => l
            .iter()
            .filter(|a| r.iter().any(|b| matched(a, b)))
            .cloned()
            .collect(),
        JoinType::LeftAnti => unmatched_left().cloned().collect(),
    }
}

fn reference_set_op(l: Vec<Row>, r: Vec<Row>, op: SetOp) -> Vec<Row> {
    let (lc, rc) = (counted(l), counted(r));
    let rows: BTreeSet<&Row> = lc.keys().chain(rc.keys()).collect();
    let mut out = Vec::new();
    for row in rows {
        let (a, b) = (
            lc.get(row).copied().unwrap_or(0),
            rc.get(row).copied().unwrap_or(0),
        );
        let copies = match op {
            SetOp::Union => 1,
            SetOp::UnionAll => a + b,
            SetOp::Intersect => usize::from(a > 0 && b > 0),
            SetOp::IntersectAll => a.min(b),
            SetOp::Except => usize::from(a > 0 && b == 0),
            SetOp::ExceptAll => a.saturating_sub(b),
        };
        out.extend(std::iter::repeat_n(row.clone(), copies));
    }
    out
}

/// The rows `node` denotes, in arbitrary order.  `TopK` is not handled
/// here — which tied rows make the cut is the plan's choice — the
/// harness checks it against its input's reference instead.
fn reference(node: &Logical, catalog: &Catalog) -> Vec<Row> {
    let stats = Stats::new_shared();
    match node {
        Logical::Scan { table } => catalog.get(table).expect("table").to_rows(),
        Logical::Filter { input, pred } => reference(input, catalog)
            .into_iter()
            .filter(|r| pred.eval(r))
            .collect(),
        Logical::Join {
            left,
            right,
            join_len,
            join_type,
        } => reference_join(
            reference(left, catalog),
            reference(right, catalog),
            *join_len,
            *join_type,
        ),
        Logical::SetOperation { left, right, op } => {
            reference_set_op(reference(left, catalog), reference(right, catalog), *op)
        }
        Logical::GroupBy {
            input,
            group_len,
            aggs,
        } => {
            let sorted =
                ovc_baseline::sort_rows_plain(reference(input, catalog), *group_len, &stats);
            let grouped = ovc_baseline::GroupFullCompare::new(
                RowBatches::new(sorted, 64),
                *group_len,
                aggs.clone(),
                Arc::clone(&stats),
            );
            collect_batch_pairs(grouped)
                .into_iter()
                .map(|(row, _)| row)
                .collect()
        }
        Logical::Distinct { input } => {
            ovc_baseline::hash_aggregate_distinct(reference(input, catalog), usize::MAX, &stats)
        }
        Logical::Sort { input, .. } => reference(input, catalog),
        other => panic!("the harness generator never emits {other:?}"),
    }
}

/// Hold the engine's rows to the reference: equal as multisets, or —
/// under a `TopK` root, where ties are the plan's to break — the right
/// count, the `k` smallest keys in order, every row drawn from the
/// input's reference.
fn assert_matches_reference(q: &LogicalPlan, catalog: &Catalog, got: &[(Row, Ovc)]) {
    let mut rows: Vec<Row> = got.iter().map(|(r, _)| r.clone()).collect();
    if let Logical::TopK { input, key_len, k } = &q.root {
        let mut pool = reference(input, catalog);
        pool.sort();
        assert_eq!(rows.len(), pool.len().min(*k), "TopK row count");
        let want: Vec<&[u64]> = pool.iter().take(*k).map(|r| r.key(*key_len)).collect();
        let keys: Vec<&[u64]> = rows.iter().map(|r| r.key(*key_len)).collect();
        assert_eq!(keys, want, "TopK keys");
        let pool = counted(pool);
        for (row, n) in counted(rows) {
            assert!(
                pool.get(&row).copied().unwrap_or(0) >= n,
                "TopK row {row:?}"
            );
        }
        return;
    }
    let mut want = reference(&q.root, catalog);
    rows.sort();
    want.sort();
    assert_eq!(rows, want, "engine rows vs the ovc-baseline reference");
}

/// The differential property for one logical plan (see the module
/// docs): every batch-size × dop point returns the same rows and codes,
/// those rows are the reference's, the codes re-derive exactly, and one
/// plan's counters do not depend on the batch size.
fn assert_batching_is_invisible(q: &LogicalPlan, catalog: &Catalog, rng: &mut StdRng) {
    let base = PlannerConfig::default()
        .with_memory_rows(48)
        .with_fan_in(8)
        .with_preference(Preference::ForceSortBased);
    // Four draws per case, as ever: the default seed still generates the
    // corpus the row ≡ batched proof ran on.
    let batches = [
        None,
        Some(1),
        Some(SMALL_BATCHES[rng.gen_range(0..SMALL_BATCHES.len())]),
        Some(WHOLE_INPUT_BATCHES[rng.gen_range(0..WHOLE_INPUT_BATCHES.len())]),
    ];

    let mut reference_run: Option<Vec<(Row, Ovc)>> = None;
    for dop in [1usize, 2, 4] {
        let cfg = if dop == 1 {
            base
        } else {
            // Half the parallel plans stamp their own batch size onto the
            // exchange edges (it wins there over ExecOptions), half leave
            // every edge to the option under test.
            let cfg = base.with_dop(dop).with_parallel_threshold(1);
            match rng.gen_range(0..2 * SMALL_BATCHES.len()) {
                i if i < SMALL_BATCHES.len() => cfg.with_batch_size(SMALL_BATCHES[i]),
                _ => cfg,
            }
        };
        let plan = Planner::new(catalog, cfg).plan(q).expect("plans");
        let spec: SortSpec = plan.props.order.clone();
        // Early termination quantizes to batch granularity (§12).
        let stats_comparable = plan.count_op("TopK") == 0;
        let mut plan_stats: Option<StatsSnapshot> = None;
        for batch in batches {
            let (got, stats) = run(&plan, catalog, batch);
            assert_codes_exact_spec(&got, &spec);
            match &reference_run {
                None => {
                    assert_matches_reference(q, catalog, &got);
                    reference_run = Some(got);
                }
                Some(first) => assert_eq!(&got, first, "dop={dop} batch={batch:?} rows/codes"),
            }
            if stats_comparable {
                let first = *plan_stats.get_or_insert(stats);
                assert_eq!(
                    stats, first,
                    "dop={dop} batch={batch:?} Stats vs batch=None"
                );
            }
        }
    }
}

/// ~200 seeded random plans (see the module docs for the table and plan
/// distributions).  `RANDOM_SEED` reseeds the whole corpus; CI runs the
/// fixed default on every push and a run-id seed on one extra job.
#[test]
fn random_plans_execute_identically_at_every_batch_size_and_dop() {
    let seed: u64 = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB47C_4ED5);
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..200 {
        let catalog = random_catalog(&mut rng);
        let q = random_plan(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_batching_is_invisible(&q, &catalog, &mut rng);
        }));
        if let Err(e) = result {
            panic!("case {case} (seed {seed:#x}) failed on {q}: {e:?}");
        }
    }
}

/// A hand-computed answer beside the interpreted reference: batching
/// must not change query *semantics* either (guards against a bug that
/// breaks every axis point identically at the exchange boundary).
#[test]
fn batched_group_by_matches_reference_semantics() {
    let mut rng = StdRng::seed_from_u64(0x6B0B);
    let rows = table(&mut rng, 0, 240);
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows.clone()));
    let q = LogicalPlan::scan("t").group_by(1, vec![Aggregate::Count, Aggregate::Sum(1)]);
    let mut expect: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &rows {
        let e = expect.entry(r.cols()[0]).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.cols()[1];
    }
    let expect_rows: Vec<Vec<u64>> = expect
        .into_iter()
        .map(|(k, (c, s))| vec![k, c, s])
        .collect();
    for dop in [1usize, 2, 4, 8] {
        let cfg = PlannerConfig::default()
            .with_preference(Preference::ForceSortBased)
            .with_dop(dop)
            .with_parallel_threshold(1)
            .with_batch_size(7);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        let (got, _) = run(&plan, &catalog, Some(7));
        let got_rows: Vec<Vec<u64>> = got.iter().map(|(r, _)| r.cols().to_vec()).collect();
        assert_eq!(got_rows, expect_rows, "dop={dop}");
    }
}

// ---------------------------------------------------------------------
// Batch-seam edge cases (deterministic): the places the seam rule has to
// earn its keep — batch size 1, a batch exactly the input length, a
// group spanning three or more seams, and a join key run straddling a
// seam — each audited with exact-code assertions on the output.
// ---------------------------------------------------------------------

fn seam_run(q: &LogicalPlan, catalog: &Catalog, b: usize) -> Vec<(Row, Ovc)> {
    let cfg = PlannerConfig::default().with_preference(Preference::ForceSortBased);
    let plan = Planner::new(catalog, cfg).plan(q).expect("plans");
    let spec = plan.props.order.clone();
    let (whole, whole_stats) = run(&plan, catalog, None);
    let (batched, batched_stats) = run(&plan, catalog, Some(b));
    assert_eq!(batched, whole, "batch={b} vs one batch per stream");
    assert_eq!(batched_stats, whole_stats, "batch={b} Stats");
    assert_codes_exact_spec(&batched, &spec);
    assert_matches_reference(q, catalog, &batched);
    batched
}

#[test]
fn batch_size_one_and_exact_input_length_hit_both_degenerate_seams() {
    let rows: Vec<Row> = (0..23u64).map(|k| Row::new(vec![k % 5, k])).collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").sort(2);
    // A seam after every row; then a single batch holding the whole
    // input (the only seam is end-of-stream).
    for b in [1usize, 23] {
        let out = seam_run(&q, &catalog, b);
        assert_eq!(out.len(), 23);
    }
}

#[test]
fn group_spanning_three_seams_aggregates_once() {
    // Key 9 contributes 8 rows; with batch size 2 that group crosses at
    // least three batch seams before it can be emitted.
    let mut rows: Vec<Row> = (0..8u64).map(|p| Row::new(vec![9, p])).collect();
    rows.extend((0..4u64).map(|k| Row::new(vec![k, 1])));
    let mut catalog = Catalog::new();
    catalog.register("t", Table::unsorted(rows));
    let q = LogicalPlan::scan("t").group_by(1, vec![Aggregate::Count, Aggregate::Sum(1)]);
    let out = seam_run(&q, &catalog, 2);
    assert_eq!(out.len(), 5, "four singleton groups plus the long one");
    let long = out.iter().find(|(r, _)| r.cols()[0] == 9).expect("group 9");
    assert_eq!(long.0.cols()[1], 8, "count survived the seams");
    assert_eq!(long.0.cols()[2], 28, "sum 0..=7 survived the seams");
}

#[test]
fn join_key_run_straddling_a_seam_matches_the_reference() {
    // Left has a run of 6 rows with key 4 (straddles every odd batch
    // size), right matches it 3 times: the 18-row cross-group must come
    // out identically coded however the batches cut the run.
    let mut left: Vec<Row> = (0..6u64).map(|p| Row::new(vec![4, p])).collect();
    left.extend([Row::new(vec![1, 0]), Row::new(vec![8, 0])]);
    let right: Vec<Row> = (0..3u64)
        .map(|p| Row::new(vec![4, 100 + p]))
        .chain([Row::new(vec![2, 0])])
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(left));
    catalog.register("r", Table::unsorted(right));
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    for b in [1usize, 3, 5] {
        let out = seam_run(&q, &catalog, b);
        assert_eq!(out.len(), 18, "6 left × 3 right on key 4, batch={b}");
    }
}

/// Seam behavior under parallel exchanges: tiny batches force many
/// channel messages per partition; the gather must still splice the
/// partition streams into the exact serial sequence.
#[test]
fn tiny_batches_through_dop4_exchanges_match_serial() {
    let mut rng = StdRng::seed_from_u64(0x5EA3);
    let mut catalog = Catalog::new();
    catalog.register("l", Table::unsorted(table(&mut rng, 1, 300)));
    catalog.register("r", Table::unsorted(table(&mut rng, 0, 250)));
    let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), 1, JoinType::Inner);
    let base = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_memory_rows(64)
        .with_fan_in(8);
    let serial_plan = Planner::new(&catalog, base).plan(&q).expect("plans");
    let (reference, _) = run(&serial_plan, &catalog, None);
    for b in [1usize, 2, 3] {
        let cfg = base
            .with_dop(4)
            .with_parallel_threshold(1)
            .with_batch_size(b);
        let plan = Planner::new(&catalog, cfg).plan(&q).expect("plans");
        assert!(plan.count_op("Exchange") >= 3, "{plan}");
        let (got, _) = run(&plan, &catalog, Some(b));
        assert_eq!(got, reference, "batch={b}");
    }
}
