//! Differential fault-injection suite (DESIGN.md §14).
//!
//! The system-wide invariant under test: **every injected fault yields
//! either a clean typed [`ExecError`] or byte-identical output — never
//! truncation, deadlock, or wrong rows.**  The seeded registry in
//! [`ovc_repro::core::fault`] arms spill I/O failures, spill
//! corruption, worker panics, and slow exchange consumers at the exact
//! points production faults occur; each test asserts the typed-error
//! side, the recovered-output side, or (with the registry disabled)
//! byte-identity of the fault-tolerant execution paths against the
//! plain ones.
//!
//! The fault registry is process-global, so every test here serializes
//! on one lock.  The seed comes from `RANDOM_SEED` when set (CI passes
//! its run id) so soak runs explore different fire patterns while any
//! single run stays reproducible from its log line.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ovc_repro::core::batch::collect_batch_pairs;
use ovc_repro::core::ctx::ExecError;
use ovc_repro::core::fault::{self, FaultConfig, FaultPoint};
use ovc_repro::core::{QueryCtx, Row, RowBatches, SortSpec, Stats};
use ovc_repro::plan::{
    execute, execute_ctx, execute_ctx_profiled, execute_profiled, Aggregate, Catalog, ExecOptions,
    JoinType, LogicalPlan, Planner, PlannerConfig, Preference, SetOp, Table,
};
use ovc_repro::sort::{try_sort_batches, MemoryRunStorage, RunStorage, SortConfig, SortOutput};
use ovc_repro::storage::FileRunStorage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One lock for the whole suite: the fault registry is process-global.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    match SUITE_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Deterministic per-run seed: CI passes its run id so consecutive runs
/// explore different fire patterns; the value is printed so a failure
/// replays exactly.
fn suite_seed() -> u64 {
    let seed = std::env::var("RANDOM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xEDB7_2023);
    eprintln!("fault_injection seed = {seed}");
    seed
}

fn random_rows(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..32u64),
                rng.gen_range(0..8u64),
                rng.gen_range(0..1000u64),
            ])
        })
        .collect()
}

fn catalog(rows: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t1: Vec<Row> = (0..rows)
        .map(|_| Row::new(vec![rng.gen_range(0..64u64), rng.gen_range(0..16u64)]))
        .collect();
    let mut t2: Vec<Row> = (0..rows)
        .map(|_| Row::new(vec![rng.gen_range(0..64u64), rng.gen_range(0..16u64)]))
        .collect();
    t1.sort();
    t2.sort();
    let mut cat = Catalog::new();
    cat.register("t1", Table::sorted(t1, 2));
    cat.register("t2", Table::sorted(t2, 2));
    cat.register(
        "heap",
        Table::unsorted(random_rows(2 * rows, seed ^ 0x5EED)),
    );
    cat
}

fn intersect_query() -> LogicalPlan {
    LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), SetOp::Intersect)
}

fn group_query() -> LogicalPlan {
    LogicalPlan::scan("heap")
        .group_by(2, vec![Aggregate::Count, Aggregate::Sum(2)])
        .sort(2)
}

/// Sort query forced through the serial spilling arm: a tiny memory
/// budget spills several runs, dop stays 1 (threshold unreachable).
fn spilling_sort_config() -> PlannerConfig {
    PlannerConfig::default()
        .with_memory_rows(64)
        .with_fan_in(4)
        .with_parallel_threshold(usize::MAX)
}

fn parallel_config() -> PlannerConfig {
    PlannerConfig::default()
        .with_dop(4)
        .with_parallel_threshold(512)
        .with_batch_size(256)
}

/// The batched-context fixture: a merge join over two heap tables whose
/// input sorts spill through the serial arm at dop 1 *and* at dop 4.
/// Each table (600 rows) stays under the parallel threshold, so its
/// sort is stamped serial and spills through a 64-row budget; the
/// join's combined input (1 200 rows) clears the threshold, so at dop 4
/// it is bracketed by exchanges and each sort — spill device included —
/// runs on a splitting exchange's producer thread.
fn spilling_join_catalog(seed: u64) -> Catalog {
    let mut cat = Catalog::new();
    cat.register("a", Table::unsorted(random_rows(600, seed ^ 0xA)));
    cat.register("b", Table::unsorted(random_rows(600, seed ^ 0xB)));
    cat
}

fn spilling_join_query() -> LogicalPlan {
    LogicalPlan::scan("a").join(LogicalPlan::scan("b"), 1, JoinType::Inner)
}

fn spilling_join_configs() -> [(usize, PlannerConfig); 2] {
    let base = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_memory_rows(64)
        .with_fan_in(4)
        .with_parallel_threshold(1_000)
        .with_batch_size(4);
    [(1, base), (4, base.with_dop(4))]
}

/// The fixture is what its doc says: serial spilling sorts under (at
/// dop 4) one gathering and two splitting exchanges.
fn assert_spilling_join_shape(cat: &Catalog, dop: usize, config: PlannerConfig) {
    let plan = Planner::new(cat, config)
        .plan(&spilling_join_query())
        .expect("plans");
    assert_eq!(plan.count_op("SortOvc"), 2, "{plan}");
    assert_eq!(
        plan.count_op("Exchange"),
        if dop == 1 { 0 } else { 3 },
        "{plan}"
    );
    for node in plan.nodes() {
        if node.op_name() == "SortOvc" {
            assert_eq!(node.props.dop, 1, "sorts must take the serial arm:\n{plan}");
        }
    }
}

/// The spilling-join fixture planned under `config`, with the options
/// that run it and the hard floor on its completion time once
/// `SlowConsumer` always fires: every context-checked operator boundary
/// and every exchange receive then sleeps 1 ms per batch, so the root's
/// batch count alone (read off a clean profiled run) is a lower bound
/// in milliseconds.
fn slowed_spilling_join(
    cat: &Catalog,
    config: PlannerConfig,
) -> (ovc_repro::plan::PhysicalPlan, ExecOptions, Duration) {
    let plan = Planner::new(cat, config)
        .plan(&spilling_join_query())
        .expect("plans");
    let options = ExecOptions {
        batch_size: config.batch_size,
        ..ExecOptions::default()
    };
    let (_, prof) = execute_profiled(&plan, cat, &Stats::new_shared(), &options);
    let floor = Duration::from_millis(prof.snapshot().metrics.batches);
    assert!(
        floor >= Duration::from_secs(1),
        "fixture too small: {floor:?}"
    );
    (plan, options, floor)
}

/// (rows, codes) of a coded output, for byte-identity assertions.
fn coded_pairs(out: ovc_repro::plan::Output) -> (Vec<Vec<u64>>, Vec<u64>) {
    out.into_coded()
        .into_iter()
        .map(|r| (r.row.cols().to_vec(), r.code.raw()))
        .unzip()
}

fn run_plain(
    cat: &Catalog,
    query: &LogicalPlan,
    config: PlannerConfig,
) -> (Vec<Vec<u64>>, Vec<u64>, ovc_repro::core::StatsSnapshot) {
    let plan = Planner::new(cat, config).plan(query).expect("plans");
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: config.batch_size,
        ..ExecOptions::default()
    };
    let (rows, codes) = coded_pairs(execute(&plan, cat, &stats, &options));
    (rows, codes, stats.snapshot())
}

/// Rows, codes, and engine-stat deltas of one context-tracked run.
type CtxRun = (Vec<Vec<u64>>, Vec<u64>, ovc_repro::core::StatsSnapshot);

fn run_ctx(
    cat: &Catalog,
    query: &LogicalPlan,
    config: PlannerConfig,
    qctx: &QueryCtx,
) -> Result<CtxRun, ExecError> {
    let plan = Planner::new(cat, config).plan(query).expect("plans");
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: config.batch_size,
        ..ExecOptions::default()
    };
    let out = execute_ctx(&plan, cat, &stats, &options, qctx)?;
    let (rows, codes) = coded_pairs(out);
    Ok((rows, codes, stats.snapshot()))
}

#[test]
fn injected_spill_write_fault_is_typed_and_retry_is_byte_identical() {
    let _l = locked();
    let seed = suite_seed();
    let rows = random_rows(800, seed);
    let spec = SortSpec::asc(2);
    let cfg = SortConfig::new(2, 64).with_fan_in(4);

    let reference: Vec<_> = {
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let sorted = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats);
        collect_batch_pairs(sorted.expect("clean sort").batches(64))
    };

    // The bare sort surfaces the injected write failure as a typed
    // error, not a panic and not wrong rows.
    let _guard = fault::install(FaultConfig::new(seed).once(FaultPoint::SpillWrite));
    let stats = Stats::new_shared();
    let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
    let err = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats)
        .map(|_| ())
        .expect_err("injected write fault must surface");
    assert_eq!(err.reason(), "spill_io");

    // The executor's retry (DESIGN.md §14) sorts the input again from
    // source, resident, on the same device: rows AND codes match, since
    // codes are a function of the output sequence alone.
    let sorted = sort_rows(rows, resident(cfg), &spec, &mut storage, &stats);
    let out = collect_batch_pairs(
        sorted
            .expect("the resident retry touches no device")
            .batches(64),
    );
    assert_eq!(out, reference, "retried output must be byte-identical");
}

/// The serial sort over `rows` cut into `cfg.memory_rows`-row batches.
fn sort_rows(
    rows: Vec<Row>,
    cfg: SortConfig,
    spec: &SortSpec,
    storage: &mut impl RunStorage,
    stats: &Arc<Stats>,
) -> Result<SortOutput, ExecError> {
    let input = RowBatches::new(rows, cfg.memory_rows);
    try_sort_batches(input, cfg, spec, false, storage, stats)
}

/// `cfg` with one unbounded run: a sort that never spills.
fn resident(cfg: SortConfig) -> SortConfig {
    SortConfig {
        memory_rows: usize::MAX,
        ..cfg
    }
}

#[test]
fn injected_spill_corruption_is_detected_and_recovered() {
    let _l = locked();
    let seed = suite_seed();
    let rows = random_rows(700, seed ^ 1);
    let spec = SortSpec::asc(2);
    let cfg = SortConfig::new(2, 64).with_fan_in(4);

    let reference: Vec<_> = {
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let sorted = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats);
        collect_batch_pairs(sorted.expect("clean sort").batches(64))
    };

    // A flipped byte in a spill frame comes back as a typed corruption
    // error on read-back.
    let _guard = fault::install(FaultConfig::new(seed).once(FaultPoint::SpillCorrupt));
    let stats = Stats::new_shared();
    let mut storage = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
    let err = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats)
        .map(|_| ())
        .expect_err("corrupted frame must fail the read-back");
    assert_eq!(err.reason(), "spill_corruption");

    // Recovered as the executor recovers: from source, resident.
    let sorted = sort_rows(rows, resident(cfg), &spec, &mut storage, &stats);
    let out = collect_batch_pairs(
        sorted
            .expect("the resident retry touches no device")
            .batches(64),
    );
    assert_eq!(out, reference);
}

#[test]
fn plan_level_spill_fault_recovers_to_identical_output() {
    let _l = locked();
    let seed = suite_seed();
    let cat = catalog(1_000, seed);
    let query = LogicalPlan::scan("heap").sort(3);
    let config = spilling_sort_config();
    let (rows, codes, clean) = run_plain(&cat, &query, config);
    assert!(
        clean.rows_read_back > 0,
        "the sort must spill and read back"
    );

    // The executor recovers serial sorts from spill-device faults, on
    // the way out (write) and on the way back (read): the injected
    // failure is absorbed by re-running the sort's input and sorting
    // resident, and the query still answers byte-identically.
    for point in [FaultPoint::SpillWrite, FaultPoint::SpillRead] {
        let _guard = fault::install(FaultConfig::new(seed).once(point));
        let qctx = QueryCtx::new();
        let (f_rows, f_codes, _) = run_ctx(&cat, &query, config, &qctx)
            .unwrap_or_else(|err| panic!("{point:?} must be recovered, got {err}"));
        assert_eq!(f_rows, rows, "{point:?}: recovered rows differ");
        assert_eq!(f_codes, codes, "{point:?}: recovered codes differ");
    }

    // The same on `with_batch_size` plans, serial and through exchanges
    // (where the failing sort runs on a producer thread): the sort's
    // input subtree is re-lowered and re-sorted resident, and the join
    // above answers byte-identically.
    let cat = spilling_join_catalog(seed);
    for (dop, config) in spilling_join_configs() {
        assert_spilling_join_shape(&cat, dop, config);
        let (rows, codes, clean) = run_plain(&cat, &spilling_join_query(), config);
        assert!(clean.rows_spilled > 0, "dop={dop}: the fixture must spill");
        for point in [FaultPoint::SpillWrite, FaultPoint::SpillRead] {
            let _guard = fault::install(FaultConfig::new(seed).once(point));
            let (f_rows, f_codes, _) =
                run_ctx(&cat, &spilling_join_query(), config, &QueryCtx::new()).unwrap_or_else(
                    |err| panic!("dop={dop} {point:?}: must be recovered, got {err}"),
                );
            assert_eq!(f_rows, rows, "dop={dop} {point:?}: recovered rows differ");
            assert_eq!(
                f_codes, codes,
                "dop={dop} {point:?}: recovered codes differ"
            );
        }
    }
}

/// A heap sort stamped dop 4 that spills: 2 000 rows through a 64-row
/// budget at fan-in 4, each workspace sorted on four threads.
fn parallel_spilling_sort_config() -> PlannerConfig {
    spilling_sort_config()
        .with_dop(4)
        .with_parallel_threshold(512)
}

/// A parallel sort is the one external sort: it spills exactly as the
/// serial one does, recovers from spill-device faults byte-identically,
/// is refused by a small spill budget, and turns a run-generation
/// worker's panic into a typed error.
#[test]
fn parallel_sort_spills_and_recovers_like_the_serial_one() {
    let _l = locked();
    let seed = suite_seed();
    let cat = catalog(1_000, seed ^ 6);
    let query = LogicalPlan::scan("heap").sort(3);
    let config = parallel_spilling_sort_config();
    let plan = Planner::new(&cat, config).plan(&query).expect("plans");
    let sort = plan.nodes().into_iter().find(|n| n.op_name() == "SortOvc");
    assert_eq!(sort.expect("a sort").props.dop, 4, "{plan}");
    let (rows, codes, clean) = run_plain(&cat, &query, config);
    assert!(clean.rows_spilled > 0, "the dop-4 sort must spill");
    let (s_rows, s_codes, serial) = run_plain(&cat, &query, spilling_sort_config());
    assert_eq!((&rows, &codes), (&s_rows, &s_codes));
    assert_eq!(
        (
            clean.rows_spilled,
            clean.bytes_spilled,
            clean.rows_read_back
        ),
        (
            serial.rows_spilled,
            serial.bytes_spilled,
            serial.rows_read_back
        )
    );

    for point in [FaultPoint::SpillWrite, FaultPoint::SpillRead] {
        let _guard = fault::install(FaultConfig::new(seed).once(point));
        let (f_rows, f_codes, _) = run_ctx(&cat, &query, config, &QueryCtx::new())
            .unwrap_or_else(|err| panic!("{point:?} must be recovered, got {err}"));
        assert_eq!(f_rows, rows, "{point:?}: recovered rows differ");
        assert_eq!(f_codes, codes, "{point:?}: recovered codes differ");
    }

    // The planned sort spills in memory, so a corrupted frame needs the
    // file device: the bare four-thread sort detects it on read-back and
    // the executor's resident retry is byte-identical.
    {
        let rows = random_rows(700, seed ^ 7);
        let (spec, cfg) = (SortSpec::asc(2), SortConfig::new(2, 64).with_fan_in(4));
        let stats = Stats::new_shared();
        let mut storage = MemoryRunStorage::new(Arc::clone(&stats));
        let sorted = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats);
        let reference = collect_batch_pairs(sorted.expect("clean sort").batches(64));
        let _guard = fault::install(FaultConfig::new(seed).once(FaultPoint::SpillCorrupt));
        let cfg = cfg.with_threads(4);
        let mut storage = FileRunStorage::new(Arc::clone(&stats)).expect("tempdir");
        let err = sort_rows(rows.clone(), cfg, &spec, &mut storage, &stats)
            .map(|_| ())
            .expect_err("corrupted frame must fail the read-back");
        assert_eq!(err.reason(), "spill_corruption");
        let sorted = sort_rows(rows, resident(cfg), &spec, &mut storage, &stats);
        let out = collect_batch_pairs(sorted.expect("resident retry").batches(64));
        assert_eq!(out, reference);
    }

    let starved = QueryCtx::build(None, Some(1));
    let err = run_ctx(&cat, &query, config, &starved).expect_err("starved spill budget");
    assert_eq!(err.reason(), "spill_budget");

    let _guard = fault::install(FaultConfig::new(seed).always(FaultPoint::WorkerPanic));
    let err = run_ctx(&cat, &query, config, &QueryCtx::new())
        .expect_err("every run-generation worker panics");
    assert_eq!(err.reason(), "worker_panic", "got {err}");
}

#[test]
fn worker_panic_is_contained_as_typed_error_without_deadlock() {
    let _l = locked();
    let seed = suite_seed();
    let cat = catalog(2_000, seed ^ 2);
    let config = parallel_config();

    // Every parallel worker panics on start: the exchanges must drain
    // their poison frames and fail the query with one typed error —
    // promptly (no deadlocked merge waiting on a dead splitter).  The
    // group-by plan is guaranteed to cross exchanges at this size and
    // dop, so it MUST fail; a plan the planner kept serial spawns no
    // workers and must then answer byte-identically.
    let (rows, codes, _) = run_plain(&cat, &group_query(), config);
    {
        let _guard = fault::install(FaultConfig::new(seed).always(FaultPoint::WorkerPanic));
        let err = run_ctx(&cat, &group_query(), config, &QueryCtx::new())
            .expect_err("a query whose every worker panics cannot succeed");
        assert_eq!(err.reason(), "worker_panic", "got {err}");
    }

    // The process (and the engine) survived: the same plan runs clean
    // and byte-identical immediately afterwards.
    let (c_rows, c_codes, _) =
        run_ctx(&cat, &group_query(), config, &QueryCtx::new()).expect("clean rerun");
    assert_eq!(c_rows, rows);
    assert_eq!(c_codes, codes);

    // Serial-or-parallel plans under the same injection obey the
    // invariant either way: typed error or exact output.
    let (i_rows, i_codes, _) = run_plain(&cat, &intersect_query(), config);
    let _guard = fault::install(FaultConfig::new(seed).always(FaultPoint::WorkerPanic));
    match run_ctx(&cat, &intersect_query(), config, &QueryCtx::new()) {
        Err(err) => assert_eq!(err.reason(), "worker_panic", "got {err}"),
        Ok((r, c, _)) => {
            assert_eq!(r, i_rows, "surviving run must be byte-identical");
            assert_eq!(c, i_codes);
        }
    }
}

#[test]
fn probabilistic_worker_panics_never_yield_wrong_rows() {
    let _l = locked();
    let seed = suite_seed();
    let cat = catalog(1_500, seed ^ 3);
    let config = parallel_config();
    let (rows, codes, _) = run_plain(&cat, &group_query(), config);

    // Sweep fire probabilities: each round must end in a typed error or
    // the exact reference output — the invariant admits nothing else.
    let (mut failed, mut succeeded) = (0u32, 0u32);
    for round in 0..8u64 {
        let _guard = fault::install(
            FaultConfig::new(seed.wrapping_add(round)).with(FaultPoint::WorkerPanic, 120),
        );
        match run_ctx(&cat, &group_query(), config, &QueryCtx::new()) {
            Err(err) => {
                assert_eq!(err.reason(), "worker_panic", "got {err}");
                failed += 1;
            }
            Ok((g_rows, g_codes, _)) => {
                assert_eq!(g_rows, rows, "survived round must be byte-identical");
                assert_eq!(g_codes, codes);
                succeeded += 1;
            }
        }
    }
    eprintln!("probabilistic panics: {failed} failed, {succeeded} clean");
}

#[test]
fn slow_consumers_only_delay_never_corrupt() {
    let _l = locked();
    let seed = suite_seed();
    let cat = catalog(1_500, seed ^ 4);
    let config = parallel_config();
    let (rows, codes, stats) = run_plain(&cat, &group_query(), config);

    let _guard = fault::install(FaultConfig::new(seed).with(FaultPoint::SlowConsumer, 150));
    let (s_rows, s_codes, s_stats) =
        run_ctx(&cat, &group_query(), config, &QueryCtx::new()).expect("slow consumers succeed");
    assert_eq!(s_rows, rows, "backpressure must not change rows");
    assert_eq!(s_codes, codes, "backpressure must not change codes");
    assert_eq!(s_stats, stats, "backpressure must not change accounting");
}

#[test]
fn deadline_cancellation_and_budget_fail_typed() {
    let _l = locked();
    fault::clear();
    let seed = suite_seed();
    let cat = catalog(1_000, seed ^ 5);
    let config = spilling_sort_config();
    let query = LogicalPlan::scan("heap").sort(3);

    // An already-expired deadline fails before any work happens.
    let expired = QueryCtx::with_timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let err = run_ctx(&cat, &query, config, &expired).expect_err("expired deadline");
    assert_eq!(err.reason(), "timeout");

    // A pre-cancelled context refuses likewise.
    let cancelled = QueryCtx::new();
    cancelled.cancel();
    let err = run_ctx(&cat, &query, config, &cancelled).expect_err("cancelled context");
    assert_eq!(err.reason(), "cancelled");

    // A one-byte spill budget trips on the first spilled run.  The
    // sort is *not* recoverable here — budget exhaustion is a policy
    // fault, not a device fault, so no retry is attempted.
    let starved = QueryCtx::build(None, Some(1));
    let err = run_ctx(&cat, &query, config, &starved).expect_err("starved spill budget");
    assert_eq!(err.reason(), "spill_budget");

    // Likewise on `with_batch_size` plans at dop 1 and dop 4 — at dop 4
    // the refusal is raised on an exchange producer thread and reaches
    // the caller as the same typed error through the poison protocol.
    let cat = spilling_join_catalog(seed);
    for (dop, config) in spilling_join_configs() {
        let starved = QueryCtx::build(None, Some(1));
        let err = run_ctx(&cat, &spilling_join_query(), config, &starved)
            .expect_err("starved spill budget");
        assert_eq!(err.reason(), "spill_budget", "dop={dop}: got {err}");
        assert!(
            starved.spilled_bytes() > 1,
            "dop={dop}: the spill was charged"
        );
    }
}

/// A deadline crossed *mid-plan* fails the query then, not after the
/// plan has run to completion.  Made deterministic with the
/// `SlowConsumer` fault (see [`slowed_spilling_join`]): a deadline far
/// below the plan's floor must return `timeout` in well under it.
#[test]
fn deadline_crossed_mid_plan_stops_the_plan() {
    let _l = locked();
    fault::clear();
    let seed = suite_seed();
    let cat = spilling_join_catalog(seed);
    for (dop, config) in spilling_join_configs() {
        let (plan, options, floor) = slowed_spilling_join(&cat, config);
        let _guard = fault::install(FaultConfig::new(seed).always(FaultPoint::SlowConsumer));
        let qctx = QueryCtx::with_timeout(floor / 20);
        let started = std::time::Instant::now();
        let err = execute_ctx(&plan, &cat, &Stats::new_shared(), &options, &qctx)
            .map(|_| ())
            .expect_err("the deadline is far below the plan's floor");
        let elapsed = started.elapsed();
        assert_eq!(err.reason(), "timeout", "dop={dop}: got {err}");
        assert!(
            elapsed < floor / 2,
            "dop={dop}: timeout surfaced after {elapsed:?}; the plan cannot complete \
             in under {floor:?}, so it was not stopped mid-plan"
        );
    }
}

/// Recovery re-runs the sort's input instead of having retained a copy
/// of it: after one recovered spill fault the profile shows exactly one
/// scan run twice (its rows counted twice), the other once, and the
/// join's output unchanged.
#[test]
fn recovered_sort_reruns_its_input_subtree() {
    let _l = locked();
    let seed = suite_seed();
    let cat = spilling_join_catalog(seed);
    let (dop, config) = spilling_join_configs()[0];
    assert_eq!(dop, 1);
    let plan = Planner::new(&cat, config)
        .plan(&spilling_join_query())
        .expect("plans");
    let options = ExecOptions {
        batch_size: config.batch_size,
        ..ExecOptions::default()
    };
    let (clean, _) = execute_profiled(&plan, &cat, &Stats::new_shared(), &options);
    let clean = coded_pairs(clean);

    let _guard = fault::install(FaultConfig::new(seed).once(FaultPoint::SpillWrite));
    let (out, prof) = execute_ctx_profiled(
        &plan,
        &cat,
        &Stats::new_shared(),
        &options,
        &QueryCtx::new(),
    )
    .expect("the spill fault is recovered");
    assert_eq!(coded_pairs(out), clean, "recovered output differs");
    let profile = prof.snapshot();
    let mut scanned: Vec<u64> = profile
        .nodes()
        .iter()
        .filter(|n| n.name == "ScanRows")
        .map(|n| n.metrics.rows_out)
        .collect();
    scanned.sort();
    assert_eq!(scanned, [600, 1_200], "one input re-lowered, once");
}

/// Cancellation from another thread stops a running plan at the next
/// batch, serial or parallel.  `SlowConsumer` (always firing) puts the
/// same hard floor under the plan's completion time as in the deadline
/// test, and the canceller waits for the query thread's go-ahead, so
/// "cancelled, well under the floor" can only mean "stopped mid-plan".
#[test]
fn cancellation_mid_plan_stops_the_plan() {
    let _l = locked();
    fault::clear();
    let seed = suite_seed();
    let cat = spilling_join_catalog(seed);
    for (dop, config) in spilling_join_configs() {
        let (plan, options, floor) = slowed_spilling_join(&cat, config);
        let _guard = fault::install(FaultConfig::new(seed).always(FaultPoint::SlowConsumer));
        let qctx = QueryCtx::new();
        let (go_tx, go_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let canceller = {
            let qctx = qctx.clone();
            std::thread::spawn(move || {
                go_rx.recv().expect("query thread signals its start");
                std::thread::sleep(Duration::from_millis(20));
                qctx.cancel();
            })
        };
        let started = std::time::Instant::now();
        go_tx.send(()).expect("canceller is waiting");
        let err = execute_ctx(&plan, &cat, &Stats::new_shared(), &options, &qctx)
            .map(|_| ())
            .expect_err("a cancelled query cannot succeed");
        let elapsed = started.elapsed();
        canceller.join().expect("canceller");
        assert_eq!(err.reason(), "cancelled", "dop={dop}: got {err}");
        assert!(
            elapsed < floor / 2,
            "dop={dop}: cancelled after {elapsed:?} of a plan that needs {floor:?}"
        );
    }
}

#[test]
fn disabled_registry_is_differentially_identical() {
    let _l = locked();
    fault::clear();
    assert!(!fault::enabled());
    let seed = suite_seed();
    let cat = catalog(1_500, seed ^ 6);

    // A serial spilling sort, parallel exchange plans, and the profiled
    // variants of each: the fault-tolerant entry points must
    // reproduce rows, codes, and Stats byte-for-byte when no fault is
    // armed — fault tolerance is free until a fault actually fires.
    let cases = [
        (LogicalPlan::scan("heap").sort(3), spilling_sort_config()),
        (group_query(), parallel_config()),
        (intersect_query(), parallel_config()),
    ];
    for (query, config) in cases {
        let (rows, codes, stats) = run_plain(&cat, &query, config);
        let (c_rows, c_codes, c_stats) =
            run_ctx(&cat, &query, config, &QueryCtx::new()).expect("ctx run");
        assert_eq!(c_rows, rows, "ctx rows differ");
        assert_eq!(c_codes, codes, "ctx codes differ");
        assert_eq!(c_stats, stats, "ctx stats differ");

        // Profiled differential: execute_profiled vs execute_ctx_profiled.
        let plan = Planner::new(&cat, config).plan(&query).expect("plans");
        let options = ExecOptions {
            batch_size: config.batch_size,
            ..ExecOptions::default()
        };
        let stats_a = Stats::new_shared();
        let (out_a, _) = execute_profiled(&plan, &cat, &stats_a, &options);
        let (p_rows, p_codes) = coded_pairs(out_a);
        let stats_b = Stats::new_shared();
        let (out_b, prof) = execute_ctx_profiled(&plan, &cat, &stats_b, &options, &QueryCtx::new())
            .expect("profiled ctx run");
        let (pc_rows, pc_codes) = coded_pairs(out_b);
        assert_eq!(pc_rows, p_rows, "profiled ctx rows differ");
        assert_eq!(pc_codes, p_codes, "profiled ctx codes differ");
        assert_eq!(
            stats_b.snapshot(),
            stats_a.snapshot(),
            "profiled stats differ"
        );
        assert!(
            prof.snapshot()
                .nodes()
                .iter()
                .any(|n| n.metrics.rows_out > 0),
            "ctx profiling still observes rows"
        );
    }
}

// ---------------------------------------------------------------------------
// Served-query fault surface: typed error frames on the wire and the
// cancelled / timed-out metrics they feed.
// ---------------------------------------------------------------------------

const GROUP_WIRE: &str = r#"{"plan": {"sort": {"input": {"group_by": {"input": {"scan": "heap"},
    "group_len": 2, "aggs": ["count", {"sum": 2}]}}, "key_len": 2}}}"#;

fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("missing series {name} in:\n{text}"))
        .parse()
        .expect("counter value")
}

#[test]
fn served_timeout_yields_typed_error_frame_and_metric() {
    use ovc_repro::server::{Client, Server, ServerConfig};
    let _l = locked();
    fault::clear();
    let seed = suite_seed();

    let server = Server::bind(
        ServerConfig {
            planner: parallel_config(),
            ..ServerConfig::default()
        },
        catalog(1_500, seed ^ 7),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // An already-expired deadline: the header frame still opens the
    // stream, then the typed error frame closes it — no hang, no
    // truncation, and the reason crosses the wire machine-readably.
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .query_with_headers(GROUP_WIRE, &[("x-query-timeout-ms", "0")])
        .expect_err("expired deadline must fail the query");
    assert_eq!(err.status, 200, "failure is mid-stream, not pre-header");
    assert!(err.message.contains("[timeout]"), "{err}");

    // A garbage timeout header is refused before execution.
    let err = client
        .query_with_headers(GROUP_WIRE, &[("x-query-timeout-ms", "soon")])
        .expect_err("unparseable timeout");
    assert_eq!(err.status, 400, "{err}");

    // The session survives the error frame: the very same connection
    // serves the same query cleanly with a generous deadline.
    let ok = client
        .query_with_headers(GROUP_WIRE, &[("x-query-timeout-ms", "60000")])
        .expect("follow-up query on the same connection");
    assert!(!ok.rows.is_empty());

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metric(&metrics, "ovc_queries_timed_out_total"), 1);
    assert_eq!(metric(&metrics, "ovc_queries_cancelled_total"), 0);
    assert_eq!(metric(&metrics, "ovc_queries_total"), 1);

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

#[test]
fn client_disconnect_mid_stream_counts_cancelled_and_frees_the_slot() {
    use ovc_repro::server::{Client, Server, ServerConfig};
    let _l = locked();
    fault::clear();
    let seed = suite_seed();

    // A response far larger than any socket buffer, so the server is
    // still writing when the client walks away.
    let mut big: Vec<Row> = random_rows(200_000, seed ^ 8);
    big.sort();
    let mut cat = catalog(500, seed ^ 9);
    cat.register("big", Table::sorted(big, 3));

    let server = Server::bind(ServerConfig::default(), cat).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let state = std::sync::Arc::clone(handle.state());
    let runner = std::thread::spawn(move || server.run());

    // Raw socket: send the query, never read the response, then close
    // with the stream mid-flight — the kernel RSTs, the server's write
    // fails, and the query must be counted cancelled, not completed.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("tcp connect");
        let body = r#"{"plan": {"scan": "big"}}"#;
        write!(
            raw,
            "POST /query HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("send request");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(50));
        // Dropped here with the whole response unread.
    }

    // The abandonment is observed as soon as the blocked write fails.
    let mut observer = Client::connect(addr).expect("observer connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = observer.metrics().expect("metrics");
        if metric(&metrics, "ovc_queries_cancelled_total") == 1 {
            assert_eq!(metric(&metrics, "ovc_queries_timed_out_total"), 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never noticed the disconnect:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The in-flight gauge drained and the slot is free: a fresh client
    // is admitted and served in full.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while state
        .in_flight_queries
        .load(std::sync::atomic::Ordering::SeqCst)
        != 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "in-flight gauge stuck after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let served = observer
        .query(r#"{"plan": {"scan": "big"}}"#)
        .expect("post-disconnect query");
    assert_eq!(served.rows.len(), 200_000, "full result after recovery");

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}
