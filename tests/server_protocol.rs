//! End-to-end contract of the served query engine (DESIGN.md §13):
//! results that cross the wire are the results the library computes.
//!
//! * **Byte identity under concurrency** — N concurrent clients running
//!   the Figure-5 intersect and a dop-4 batched-exchange group-by each
//!   receive rows *and* offset-value codes identical to direct library
//!   execution of the same plan, and the trailer's per-query counters
//!   equal the library run's [`Stats`] deltas.
//! * **Rate limiting is loss-free** — under a tiny token bucket some
//!   requests bounce with 429, but every admitted query still answers
//!   byte-identically, and retrying after `retry-after` succeeds.
//! * **Graceful shutdown drains** — shutdown during streaming never
//!   truncates a response: every client either gets its full trailer or
//!   a clean pre-header refusal, and `Server::run` returns only after
//!   the drain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ovc_repro::core::{Row, Stats};
use ovc_repro::plan::{
    execute, Aggregate, Catalog, ExecOptions, LogicalPlan, Planner, PlannerConfig, SetOp, Table,
};
use ovc_repro::server::ratelimit::RateLimitConfig;
use ovc_repro::server::{Client, QueryResult, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fault-injection test below arms the process-global fault
/// registry; everything else must not run concurrently with it.  Plain
/// tests share the gate with read locks (they still parallelize among
/// themselves); the fault test takes the write lock.
static FAULT_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn gate_read() -> std::sync::RwLockReadGuard<'static, ()> {
    match FAULT_GATE.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

const INTERSECT_WIRE: &str =
    r#"{"plan": {"set_op": {"left": {"scan": "t1"}, "right": {"scan": "t2"}, "op": "intersect"}}}"#;
const GROUP_WIRE: &str = r#"{"plan": {"sort": {"input": {"group_by": {"input": {"scan": "heap"},
    "group_len": 2, "aggs": ["count", {"sum": 2}]}}, "key_len": 2}}}"#;

/// The test catalog: Figure-5 style sorted pair + an unsorted table big
/// enough to clear the parallel threshold (batched exchanges, dop > 1).
fn catalog(rows: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(0xEDB7);
    let mut t1: Vec<Row> = (0..rows)
        .map(|_| Row::new(vec![rng.gen_range(0..64u64), rng.gen_range(0..16u64)]))
        .collect();
    let mut t2: Vec<Row> = (0..rows)
        .map(|_| Row::new(vec![rng.gen_range(0..64u64), rng.gen_range(0..16u64)]))
        .collect();
    t1.sort();
    t2.sort();
    let heap: Vec<Row> = (0..2 * rows)
        .map(|_| {
            Row::new(vec![
                rng.gen_range(0..32u64),
                rng.gen_range(0..8u64),
                rng.gen_range(0..1000u64),
            ])
        })
        .collect();
    let mut cat = Catalog::new();
    cat.register("t1", Table::sorted(t1, 2));
    cat.register("t2", Table::sorted(t2, 2));
    cat.register("heap", Table::unsorted(heap));
    cat
}

fn planner_config() -> PlannerConfig {
    PlannerConfig::default()
        .with_dop(4)
        .with_parallel_threshold(512)
        .with_batch_size(256)
}

/// Direct library execution of `query`: (rows, codes, stat deltas).
fn library_run(
    cat: &Catalog,
    query: &LogicalPlan,
) -> (Vec<Vec<u64>>, Vec<u64>, BTreeMap<String, u64>) {
    library_run_with(cat, query, planner_config())
}

/// [`library_run`] under another planner configuration.
fn library_run_with(
    cat: &Catalog,
    query: &LogicalPlan,
    config: PlannerConfig,
) -> (Vec<Vec<u64>>, Vec<u64>, BTreeMap<String, u64>) {
    let plan = Planner::new(cat, config).plan(query).expect("query plans");
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: config.batch_size,
        ..ExecOptions::default()
    };
    let coded = execute(&plan, cat, &stats, &options).into_coded();
    let (rows, codes) = coded
        .into_iter()
        .map(|r| (r.row.cols().to_vec(), r.code.raw()))
        .unzip();
    let s = stats.snapshot();
    let deltas = BTreeMap::from([
        ("col_value_cmps".to_string(), s.col_value_cmps),
        ("ovc_cmps".to_string(), s.ovc_cmps),
        ("row_cmps".to_string(), s.row_cmps),
        ("rows_spilled".to_string(), s.rows_spilled),
        ("rows_read_back".to_string(), s.rows_read_back),
    ]);
    (rows, codes, deltas)
}

fn intersect_query() -> LogicalPlan {
    LogicalPlan::scan("t1").set_op(LogicalPlan::scan("t2"), SetOp::Intersect)
}

fn group_query() -> LogicalPlan {
    LogicalPlan::scan("heap")
        .group_by(2, vec![Aggregate::Count, Aggregate::Sum(2)])
        .sort(2)
}

fn assert_served_matches(
    served: &QueryResult,
    rows: &[Vec<u64>],
    codes: &[u64],
    stats: &BTreeMap<String, u64>,
    what: &str,
) {
    assert_eq!(served.rows, rows, "{what}: served rows differ from library");
    assert_eq!(
        served.codes, codes,
        "{what}: served codes differ from library"
    );
    let served_stats: BTreeMap<String, u64> = served.stats.iter().cloned().collect();
    assert_eq!(
        &served_stats, stats,
        "{what}: served stat deltas differ from library"
    );
}

#[test]
fn concurrent_clients_byte_identical_to_library() {
    let _gate = gate_read();
    let cat = catalog(2_000);
    let (i_rows, i_codes, i_stats) = library_run(&cat, &intersect_query());
    let (g_rows, g_codes, g_stats) = library_run(&cat, &group_query());
    assert!(
        !i_rows.is_empty() && !g_rows.is_empty(),
        "workloads are non-trivial"
    );

    let config = ServerConfig {
        planner: planner_config(),
        batch_rows: 100, // many batch frames per response
        max_sessions: 16,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, cat).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (i_rows, i_codes, i_stats) = (&i_rows, &i_codes, &i_stats);
            let (g_rows, g_codes, g_stats) = (&g_rows, &g_codes, &g_stats);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    // Interleave the two workloads across clients.
                    if (c + round) % 2 == 0 {
                        let r = client.query(INTERSECT_WIRE).expect("intersect");
                        assert!(r.batches > 1, "small batch_rows must yield several frames");
                        assert_served_matches(&r, i_rows, i_codes, i_stats, "intersect");
                    } else {
                        let r = client.query(GROUP_WIRE).expect("group");
                        assert_served_matches(&r, g_rows, g_codes, g_stats, "group_by");
                    }
                }
            });
        }
    });

    // Request-id middleware: echo when given, generate when not.
    let mut client = Client::connect(addr).expect("connect");
    let echoed = client
        .query_with_headers(INTERSECT_WIRE, &[("x-request-id", "my-id-42")])
        .expect("query");
    assert_eq!(echoed.request_id, "my-id-42");
    let generated = client.query(INTERSECT_WIRE).expect("query");
    assert!(
        generated.request_id.starts_with("req-"),
        "generated id: {:?}",
        generated.request_id
    );

    // Service counters reflect the traffic.
    let metrics = client.metrics().expect("metrics");
    let queries_total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ovc_queries_total "))
        .expect("ovc_queries_total series")
        .parse()
        .expect("counter value");
    assert_eq!(queries_total, (CLIENTS * ROUNDS + 2) as u64);
    assert!(
        metrics.contains("ovc_engine_ovc_cmps_total"),
        "engine counters exported:\n{metrics}"
    );

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

#[test]
fn explain_and_analyze_over_the_wire() {
    let _gate = gate_read();
    let cat = catalog(1_000);
    let config = planner_config();
    let expected_explain = Planner::new(&cat, config)
        .plan(&intersect_query())
        .expect("plans")
        .explain();
    let (i_rows, i_codes, _) = library_run(&cat, &intersect_query());

    let server = Server::bind(
        ServerConfig {
            planner: config,
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let explain = client
        .explain(
            r#"{"set_op": {"left": {"scan": "t1"}, "right": {"scan": "t2"}, "op": "intersect"}}"#,
        )
        .expect("explain");
    assert_eq!(explain, expected_explain, "served EXPLAIN is the library's");

    let body = format!(
        "{}{}",
        &INTERSECT_WIRE[..INTERSECT_WIRE.len() - 1],
        r#", "mode": "analyze"}"#
    );
    let analyzed = client.query(&body).expect("analyze");
    assert_eq!(analyzed.rows, i_rows, "analyze mode still streams rows");
    assert_eq!(analyzed.codes, i_codes, "analyze mode still streams codes");
    let text = analyzed.analyze.expect("trailer carries the profile");
    for needle in ["rows out=", "SetOpMerge"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

#[test]
fn table_registration_and_errors_over_the_wire() {
    let _gate = gate_read();
    let server = Server::bind(ServerConfig::default(), Catalog::new()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");

    // Unknown table: a planner error surfaces as 400 with the name.
    let err = client
        .query(r#"{"plan": {"scan": "nope"}}"#)
        .expect_err("unknown table");
    assert_eq!(err.status, 400);
    assert!(err.message.contains("nope"), "{err}");

    // Register sorted, then scan: codes stream from storage.
    client
        .register_table(r#"{"name": "s", "rows": [[1, 5], [2, 3], [2, 4]], "sorted_key": 2}"#)
        .expect("register");
    let r = client.query(r#"{"plan": {"scan": "s"}}"#).expect("scan");
    assert_eq!(r.rows, vec![vec![1, 5], vec![2, 3], vec![2, 4]]);
    assert_eq!(r.codes.len(), 3, "sorted scans carry codes");

    // Malformed rows are refused with a reason, not registered.
    let err = client
        .register_table(r#"{"name": "bad", "rows": [[2], [1]], "sorted_key": 1}"#)
        .expect_err("unsorted rows with sorted_key");
    assert_eq!(err.status, 400);
    assert!(err.message.contains("not ordered"), "{err}");

    // Unknown routes 404; bad JSON 400.
    let resp = client
        .request("GET", "/nope", &[], "")
        .expect("404 response");
    assert_eq!(resp.status, 404);
    let resp = client
        .request("POST", "/query", &[], "{not json")
        .expect("400 response");
    assert_eq!(resp.status, 400);

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

#[test]
fn rate_limited_clients_lose_requests_never_results() {
    let _gate = gate_read();
    let cat = catalog(500);
    let (i_rows, i_codes, i_stats) = library_run(&cat, &intersect_query());
    let server = Server::bind(
        ServerConfig {
            planner: planner_config(),
            rate_limit: RateLimitConfig {
                per_second: 20.0,
                burst: 4.0,
            },
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // Hammer from several connections sharing one IP (same bucket):
    // some requests must bounce, every success must be byte-identical.
    let rejected = AtomicU64::new(0);
    let succeeded = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (rejected, succeeded) = (&rejected, &succeeded);
            let (i_rows, i_codes, i_stats) = (&i_rows, &i_codes, &i_stats);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..6 {
                    match client.query(INTERSECT_WIRE) {
                        Ok(r) => {
                            assert_served_matches(&r, i_rows, i_codes, i_stats, "limited");
                            succeeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert_eq!(e.status, 429, "only 429 is acceptable: {e}");
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "the bucket must have run dry (24 requests vs burst 4)"
    );
    assert!(
        succeeded.load(Ordering::Relaxed) >= 4,
        "the initial burst must have been admitted"
    );

    // After the bucket refills, the same client is served again.
    std::thread::sleep(Duration::from_millis(300));
    let mut client = Client::connect(addr).expect("connect");
    let r = client.query(INTERSECT_WIRE).expect("post-refill query");
    assert_served_matches(&r, &i_rows, &i_codes, &i_stats, "post-refill");

    // Monitoring bypasses the limiter even while query traffic bounces.
    for _ in 0..20 {
        client.health().expect("health is never rate limited");
    }

    let metrics = client.metrics().expect("metrics");
    let line = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ovc_rate_limited_total "))
        .expect("rate limit counter");
    assert_eq!(
        line.parse::<u64>().unwrap(),
        rejected.load(Ordering::Relaxed)
    );

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let _gate = gate_read();
    // Enough rows that a query streams for a while; tiny frames so
    // shutdown lands mid-stream with high probability.
    let cat = catalog(4_000);
    let (g_rows, g_codes, g_stats) = library_run(&cat, &group_query());
    let server = Server::bind(
        ServerConfig {
            planner: planner_config(),
            batch_rows: 16,
            max_sessions: 16,
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let state = std::sync::Arc::clone(handle.state());
    let runner = std::thread::spawn(move || server.run());

    let completed = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (completed, refused) = (&completed, &refused);
            let (g_rows, g_codes, g_stats) = (&g_rows, &g_codes, &g_stats);
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return, // listener already gone: clean refusal
                };
                loop {
                    match client.query(GROUP_WIRE) {
                        Ok(r) => {
                            // A response, once started, is always whole:
                            // every row, every code, the exact trailer.
                            assert_served_matches(&r, g_rows, g_codes, g_stats, "drained");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // Only clean pre-header refusals are
                            // acceptable — never a truncated stream.
                            assert!(
                                !e.message.contains("without a trailer"),
                                "truncated stream during shutdown: {e}"
                            );
                            refused.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
        // Let queries get going, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
    });

    runner
        .join()
        .expect("runner")
        .expect("run returns after drain");
    assert_eq!(
        state.in_flight_queries.load(Ordering::SeqCst),
        0,
        "run() returned with queries still in flight"
    );
    assert!(
        completed.load(Ordering::Relaxed) > 0,
        "some queries must have completed across the shutdown"
    );
    // After run() returns the listener is gone: connects fail cleanly.
    assert!(
        Client::connect(addr).is_err() || {
            // A racing OS may still accept briefly; a request must not work.
            let mut c = Client::connect(addr).unwrap();
            c.health().is_err()
        }
    );
}

#[test]
fn session_pool_bounds_concurrent_connections() {
    let _gate = gate_read();
    let server = Server::bind(
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
        catalog(100),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut first = Client::connect(addr).expect("first connect");
    first.health().expect("first session works");
    // The pool is full: the next connection is turned away with 503
    // before any request is read — read the refusal straight off the
    // raw socket (sending first would race the server's close).
    {
        use std::io::Read;
        let mut second = std::net::TcpStream::connect(addr).expect("tcp connect still succeeds");
        let mut refusal = String::new();
        second
            .read_to_string(&mut refusal)
            .expect("read 503 until close");
        assert!(
            refusal.starts_with("HTTP/1.1 503"),
            "expected a 503 refusal, got: {refusal:?}"
        );
    }
    drop(first);

    // With the first session closed, a new connection is admitted.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut again = Client::connect(addr).expect("reconnect");
        match again.request("GET", "/health", &[], "") {
            Ok(r) if r.status == 200 => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("pool never freed a slot: {other:?}"),
        }
    }

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

/// Shutdown while workers are being killed by injected panics: a
/// response, once its header has gone out, always ends in a trailer or
/// a typed error frame — never a truncated stream, and `Server::run`
/// still drains and returns.
#[test]
fn shutdown_with_injected_worker_panics_never_truncates() {
    // Exclusive: the fault registry is process-global.
    let fault_gate = match FAULT_GATE.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    use ovc_repro::core::fault::{self, FaultConfig, FaultPoint};

    let cat = catalog(2_000);
    let (g_rows, g_codes, g_stats) = library_run(&cat, &group_query());
    let server = Server::bind(
        ServerConfig {
            planner: planner_config(),
            batch_rows: 32,
            max_sessions: 16,
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // Roughly a third of worker spawns die; queries race shutdown.
    let _guard = fault::install(FaultConfig::new(0x005D_077A).with(FaultPoint::WorkerPanic, 300));

    let completed = AtomicU64::new(0);
    let panicked = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (completed, panicked, refused) = (&completed, &panicked, &refused);
            let (g_rows, g_codes, g_stats) = (&g_rows, &g_codes, &g_stats);
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                loop {
                    match client.query(GROUP_WIRE) {
                        Ok(r) => {
                            // A clean response is a WHOLE response, even
                            // with panics landing all around it.
                            assert_served_matches(&r, g_rows, g_codes, g_stats, "panic-storm");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.message.contains("[worker_panic]") => {
                            // The contained panic arrived as a typed
                            // error frame on an intact stream.
                            panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert!(
                                !e.message.contains("without a trailer"),
                                "truncated stream: {e}"
                            );
                            refused.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(150));
        handle.shutdown();
    });

    runner.join().expect("runner").expect("run drains");
    drop(_guard);
    drop(fault_gate);
    assert!(
        panicked.load(Ordering::Relaxed) > 0,
        "at 30% worker mortality some queries must have failed typed \
         (completed {}, refused {})",
        completed.load(Ordering::Relaxed),
        refused.load(Ordering::Relaxed)
    );
}

/// Client-supplied strings — the `x-request-id` header and a table
/// name — are escaped in every JSON body the server builds around them:
/// the `/tables` reply, the explain body and the `/shutdown` body each
/// parse and echo the value exactly.
#[test]
fn client_strings_are_escaped_in_every_body() {
    let _gate = gate_read();
    let server = Server::bind(ServerConfig::default(), Catalog::new()).expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());
    let parse = |body: &str| {
        ovc_json::Json::parse(body).unwrap_or_else(|e| panic!("unparseable body {body:?}: {e}"))
    };
    let field = |doc: &ovc_json::Json, key: &str| {
        doc.get(key)
            .and_then(ovc_json::Json::as_str)
            .map(str::to_string)
    };
    const ID: &str = "a\"b\\c";
    const TABLE: &str = "t\"1";

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(
            "POST",
            "/tables",
            &[],
            r#"{"name": "t\"1", "rows": [[2], [1]]}"#,
        )
        .expect("register");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body);
    assert_eq!(field(&doc, "table").as_deref(), Some(TABLE));
    assert_eq!(doc.get("rows").and_then(ovc_json::Json::as_num), Some(2.0));

    let resp = client
        .request(
            "POST",
            "/query",
            &[("x-request-id", ID)],
            r#"{"plan": {"scan": "t\"1"}, "mode": "explain"}"#,
        )
        .expect("explain");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body);
    assert_eq!(field(&doc, "request_id").as_deref(), Some(ID));
    let explain = field(&doc, "explain").expect("explain text");
    assert!(explain.contains(TABLE), "{explain}");

    let resp = client
        .request(
            "POST",
            "/shutdown",
            &[("x-request-id", ID), ("connection", "close")],
            "",
        )
        .expect("shutdown");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body);
    assert_eq!(field(&doc, "status").as_deref(), Some("shutting_down"));
    assert_eq!(field(&doc, "request_id").as_deref(), Some(ID));
    runner.join().expect("runner").expect("run");
}

/// A body nested deeper than the parser's bound is a 400 with a reason,
/// not a stack overflow that takes the process down: the same
/// connection and a fresh one both still get `/health`.
#[test]
fn deeply_nested_body_is_a_400_not_a_crash() {
    let _gate = gate_read();
    let server = Server::bind(ServerConfig::default(), catalog(100)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request("POST", "/query", &[], &"[".repeat(200 * 1024))
        .expect("a response, not a dropped connection");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    for mut c in [client, Client::connect(addr).expect("reconnect")] {
        let r = c.request("GET", "/health", &[], "").expect("health");
        assert_eq!(r.status, 200, "{}", r.body);
    }

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

/// `POST /tables` answers rows of unequal width, and a sort key longer
/// than the rows, with a 400 and a reason — not a registered table that
/// streams ragged rows, and not a panic that drops the session: the same
/// connection and a fresh one both still get `/health`.
#[test]
fn ragged_rows_and_overlong_keys_are_a_400_not_a_crash() {
    let _gate = gate_read();
    let server = Server::bind(ServerConfig::default(), Catalog::new()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    for body in [
        r#"{"name": "r", "rows": [[1, 2], [3]]}"#,
        r#"{"name": "r", "rows": [[1, 2], [3]], "sorted_key": 1}"#,
        r#"{"name": "r", "rows": [[1], [2]], "sorted_key": 2}"#,
    ] {
        let resp = client
            .request("POST", "/tables", &[], body)
            .unwrap_or_else(|err| panic!("{body}: no response ({err})"));
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
    }
    for mut c in [client, Client::connect(addr).expect("reconnect")] {
        let r = c.request("GET", "/health", &[], "").expect("health");
        assert_eq!(r.status, 200, "{}", r.body);
    }

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

/// A `group_by` aggregate or a `filter` predicate that reads past the
/// input's width is a planner schema error, answered with a 400 and a
/// reason before any kernel runs — not a worker panic inside a 200.
#[test]
fn out_of_range_aggregate_and_predicate_columns_are_a_400() {
    let _gate = gate_read();
    let server = Server::bind(ServerConfig::default(), catalog(100)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // `t1` has two columns.
    let mut client = Client::connect(addr).expect("connect");
    for body in [
        r#"{"plan": {"group_by": {"input": {"scan": "t1"}, "group_len": 1, "aggs": [{"sum": 99}]}}}"#,
        r#"{"plan": {"group_by": {"input": {"scan": "t1"}, "group_len": 1, "aggs": ["count", {"max": 2}]}}}"#,
        r#"{"plan": {"filter": {"input": {"scan": "t1"}, "pred": {"lt": [99, 5]}}}}"#,
    ] {
        let resp = client
            .request("POST", "/query", &[], body)
            .unwrap_or_else(|err| panic!("{body}: no response ({err})"));
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert!(resp.body.contains("schema error"), "{body}: {}", resp.body);
    }
    let r = client
        .query(r#"{"plan": {"group_by": {"input": {"scan": "t1"}, "group_len": 1, "aggs": [{"sum": 1}]}}}"#)
        .expect("in-range columns still answer");
    assert!(!r.rows.is_empty());

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}

/// The frames of a raw response body, one parsed document per line.
fn frames_of(body: &str) -> Vec<ovc_json::Json> {
    body.lines()
        .filter(|l| !l.is_empty())
        .map(|l| ovc_json::Json::parse(l).expect("every frame is a JSON line"))
        .collect()
}

fn frame_kind(frame: &ovc_json::Json) -> &str {
    frame
        .get("frame")
        .and_then(ovc_json::Json::as_str)
        .unwrap_or("")
}

/// Batch frames leave while the plan still runs, so a deadline can
/// expire after some have gone out.  The response is still whole: the
/// header, batch frames that are each complete and a prefix of the
/// result, then the typed `timeout` error frame — never a success
/// trailer — and the connection serves the next request.
#[test]
fn a_deadline_after_the_first_frame_ends_the_body_with_a_timeout_frame() {
    // Exclusive: the fault registry is process-global.
    let fault_gate = match FAULT_GATE.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    use ovc_repro::core::fault::{self, FaultConfig, FaultPoint};

    let cat = catalog(4_000);
    let (rows, codes, _) = library_run(&cat, &LogicalPlan::scan("t1"));
    let server = Server::bind(
        ServerConfig {
            // 250 executor batches of 16 rows, each held up >= 1 ms at
            // the operator boundary: the plan runs >= 250 ms, past the
            // 100 ms deadline, while its first batch is out in ~1 ms.
            planner: PlannerConfig::default().with_batch_size(16),
            batch_rows: 16,
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let response = {
        let _slow = fault::install(FaultConfig::new(0x51_0E).always(FaultPoint::SlowConsumer));
        client
            .request(
                "POST",
                "/query",
                &[("x-query-timeout-ms", "100")],
                r#"{"plan": {"scan": "t1"}}"#,
            )
            .expect("a whole response")
    };
    assert_eq!(response.status, 200);
    let frames = frames_of(&response.body);
    let kinds: Vec<&str> = frames.iter().map(frame_kind).collect();
    assert_eq!(kinds.first(), Some(&"header"), "{kinds:?}");
    assert_eq!(kinds.last(), Some(&"error"), "{kinds:?}");
    assert!(!kinds.contains(&"trailer"), "no success trailer: {kinds:?}");
    let batches = &frames[1..frames.len() - 1];
    assert!(
        !batches.is_empty(),
        "a batch frame left before the deadline"
    );
    assert!(
        batches.iter().all(|f| frame_kind(f) == "batch"),
        "{kinds:?}"
    );
    let last = frames.last().expect("error frame");
    assert_eq!(
        last.get("reason").and_then(ovc_json::Json::as_str),
        Some("timeout"),
        "{last:?}"
    );

    // Every frame that went out is whole and is the next slice of the
    // result, codes included.
    let u64s = |j: &ovc_json::Json| -> Vec<u64> {
        j.as_arr()
            .expect("array")
            .iter()
            .map(|v| v.as_str().expect("decimal string").parse().expect("u64"))
            .collect()
    };
    let (mut got_rows, mut got_codes) = (Vec::new(), Vec::new());
    for (seq, f) in batches.iter().enumerate() {
        assert_eq!(
            f.get("seq").and_then(ovc_json::Json::as_num),
            Some(seq as f64)
        );
        let frame_rows = f
            .get("rows")
            .and_then(ovc_json::Json::as_arr)
            .expect("rows");
        assert_eq!(frame_rows.len(), 16, "frame {seq} is whole");
        got_rows.extend(frame_rows.iter().map(u64s));
        got_codes.extend(u64s(f.get("codes").expect("codes")));
    }
    assert_eq!(got_rows, rows[..got_rows.len()], "rows are a prefix");
    assert_eq!(got_codes, codes[..got_codes.len()], "codes are a prefix");

    // The session survived the error frame.
    assert_eq!(
        client
            .health()
            .expect("health after the error frame")
            .get("status"),
        Some(&ovc_json::Json::Str("ok".into()))
    );
    handle.shutdown();
    runner.join().expect("runner").expect("run");
    drop(fault_gate);
}

/// A client that reads the header and the first batch frame of a dop-2
/// query and then hangs up: the server's next write fails, which stops
/// the plan; the session ends with every thread of the query joined,
/// and the server goes on answering — `/health`, and the next query
/// byte-identically to the library.
#[test]
fn a_client_gone_after_the_first_frame_stops_the_plan() {
    use std::io::{BufRead, BufReader, Write};
    let _gate = gate_read();
    let config = planner_config().with_dop(2);
    let mut cat = catalog(1_000);
    let (g_rows, g_codes, g_stats) = library_run_with(&cat, &group_query(), config);
    // A response far larger than any socket buffer (~10 MB), so the
    // server is still writing when the client leaves.
    let mut rng = StdRng::seed_from_u64(0xD0_9E);
    let big: Vec<Row> = (0..200_000)
        .map(|_| Row::new((0..3).map(|_| rng.gen_range(0..1_000_000u64)).collect()))
        .collect();
    cat.register("big", Table::unsorted(big));
    let server = Server::bind(
        ServerConfig {
            planner: config,
            ..ServerConfig::default()
        },
        cat,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let state = std::sync::Arc::clone(handle.state());
    let runner = std::thread::spawn(move || server.run());

    {
        let mut raw = std::net::TcpStream::connect(addr).expect("tcp connect");
        let body = r#"{"plan": {"sort": {"input": {"scan": "big"}, "key_len": 3}}}"#;
        write!(
            raw,
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("send request");
        let mut reader = BufReader::new(&raw);
        let mut seen = Vec::new();
        while !seen
            .iter()
            .any(|l: &String| l.contains(r#""frame":"batch""#))
        {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read") > 0,
                "stream ended early"
            );
            seen.push(line);
        }
        assert!(seen.iter().any(|l| l.contains(r#""frame":"header""#)));
        // Dropped here: the rest of the response is never read.
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while state.in_flight_queries.load(Ordering::SeqCst) != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the abandoned query never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = Client::connect(addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("\novc_queries_cancelled_total 1\n"),
        "the failed write cancelled the query:\n{metrics}"
    );
    // The abandoned session ends: only this client's remains.
    loop {
        let health = client.health().expect("health");
        let sessions = health
            .get("active_sessions")
            .and_then(ovc_json::Json::as_num);
        if sessions == Some(1.0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the abandoned session never ended: {sessions:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let r = client.query(GROUP_WIRE).expect("the next query");
    assert_served_matches(&r, &g_rows, &g_codes, &g_stats, "after a hang-up");

    handle.shutdown();
    runner.join().expect("runner").expect("run");
}
