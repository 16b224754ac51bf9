//! The three served workloads: an in-process server loaded over real
//! sockets by closed-loop keep-alive clients (each sends its next
//! request only when the previous reply is complete — analytic clients
//! wait for their answer).

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::api::{self, Agg, Coded, Counted, Db, Device, Engine, Query, Rows, SortParams};
use crate::gen::{self, RawTable, Scale};
use crate::http::{scan_body, Conn, Reply};
use crate::json::{self, Json};
use crate::library::{PlanProbes, BATCH_ROWS, MEMORY_ROWS};
use crate::reference::{self, RefRows};
use crate::stats::{median, ms, Op};
use crate::trace::Trace;
use crate::workload::{timed, Gate, Layers, Measured, Notes, TracedOps, Workload, WARMUP_OPS};

/// Closed-loop client connections: one per core of the 2-core host the
/// bounds were set on.
pub const CLIENTS: usize = 2;

const TABLE: &str = "t";

/// Slices each kind of load (untraced, traced) is cut into in the
/// traced run.
const LOAD_SLICES: u32 = 4;

fn engine() -> Engine {
    Engine {
        dop: 1,
        batch: Some(BATCH_ROWS),
        parallel_threshold: usize::MAX,
        memory_rows: MEMORY_ROWS,
    }
}

/// What tells one served workload from another.
pub trait ServedSpec {
    const NAME: &'static str;
    /// Whether the table is stored sorted (and so coded).
    const SORTED: bool;
    /// Whether the clients acknowledge segments at once (see `Stream`).
    const QUICK_ACK: bool = false;
    fn table(seed: u64, scale: Scale) -> RawTable;
    fn query() -> Query;
    fn reference(table: &RawTable) -> RefRows;
    /// Rows one request stands for in `rows_per_s`.
    fn unit_rows(table_rows: usize, result_rows: usize) -> u64;
}

fn scan() -> Box<Query> {
    Box::new(Query::Scan(TABLE))
}

pub struct Small;
impl ServedSpec for Small {
    const NAME: &'static str = "served_small";
    const SORTED: bool = true;
    fn table(seed: u64, scale: Scale) -> RawTable {
        gen::served_small_table(seed, scale)
    }
    fn query() -> Query {
        Query::GroupBy(scan(), 1, vec![Agg::Count, Agg::Sum(1)])
    }
    fn reference(table: &RawTable) -> RefRows {
        reference::group_c0(table, false)
    }
    fn unit_rows(table_rows: usize, _: usize) -> u64 {
        table_rows as u64
    }
}

pub struct Stream;
impl ServedSpec for Stream {
    const NAME: &'static str = "served_stream";
    const SORTED: bool = true;
    /// The server leaves Nagle's algorithm on and flushes every frame.
    /// With the client's default delayed ACKs that holds back the last
    /// frames of a long stream for ~44 ms on a coin flip whose odds
    /// move from run to run (15% to 85% of requests measured), which no
    /// median survives.  These clients therefore ACK at once; the flat
    /// stall stays measured where it is deterministic, in `served_small`
    /// and `served_sort_group`.
    const QUICK_ACK: bool = true;
    fn table(seed: u64, scale: Scale) -> RawTable {
        gen::served_stream_table(seed, scale)
    }
    fn query() -> Query {
        Query::FilterLt(scan(), 0, gen::SERVED_STREAM_FILTER_BELOW)
    }
    fn reference(table: &RawTable) -> RefRows {
        reference::filter_lt(table, gen::SERVED_STREAM_FILTER_BELOW)
    }
    fn unit_rows(_: usize, result_rows: usize) -> u64 {
        result_rows as u64
    }
}

pub struct SortGroup;
impl ServedSpec for SortGroup {
    const NAME: &'static str = "served_sort_group";
    const SORTED: bool = false;
    fn table(seed: u64, scale: Scale) -> RawTable {
        gen::served_sort_group_table(seed, scale)
    }
    fn query() -> Query {
        Query::GroupBy(scan(), 1, vec![Agg::Count, Agg::Sum(1), Agg::Max(2)])
    }
    fn reference(table: &RawTable) -> RefRows {
        reference::group_c0(table, true)
    }
    fn unit_rows(table_rows: usize, _: usize) -> u64 {
        table_rows as u64
    }
}

/// The wire form of a plan (`ovc-server`'s nested single-key objects).
pub fn wire_plan(q: &Query) -> String {
    match q {
        Query::Scan(t) => format!("{{\"scan\":{}}}", json::quote(t)),
        Query::FilterLt(i, col, v) => format!(
            "{{\"filter\":{{\"input\":{},\"pred\":{{\"lt\":[{col},{v}]}}}}}}",
            wire_plan(i)
        ),
        Query::FilterGt(i, col, v) => format!(
            "{{\"filter\":{{\"input\":{},\"pred\":{{\"gt\":[{col},{v}]}}}}}}",
            wire_plan(i)
        ),
        Query::InnerJoin(l, r, n) => format!(
            "{{\"join\":{{\"left\":{},\"right\":{},\"join_len\":{n},\"type\":\"inner\"}}}}",
            wire_plan(l),
            wire_plan(r)
        ),
        Query::GroupBy(i, n, aggs) => {
            let mut list = String::new();
            for (k, a) in aggs.iter().enumerate() {
                let sep = if k > 0 { "," } else { "" };
                let _ = match a {
                    Agg::Count => write!(list, "{sep}\"count\""),
                    Agg::Sum(c) => write!(list, "{sep}{{\"sum\":{c}}}"),
                    Agg::Max(c) => write!(list, "{sep}{{\"max\":{c}}}"),
                };
            }
            format!(
                "{{\"group_by\":{{\"input\":{},\"group_len\":{n},\"aggs\":[{list}]}}}}",
                wire_plan(i)
            )
        }
        Query::UnionAll(l, r) => format!(
            "{{\"set_op\":{{\"left\":{},\"right\":{},\"op\":\"union_all\"}}}}",
            wire_plan(l),
            wire_plan(r)
        ),
    }
}

/// Rows and codes out of a recorded NDJSON body, parsed frame by frame.
fn parse_frames(body: &[u8]) -> Result<Coded, String> {
    let mut out = Coded::default();
    let u64s = |j: &Json| -> Result<Vec<u64>, String> {
        j.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad u64 on the wire: {v:?}"))
            })
            .collect()
    };
    for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        let frame = json::parse(text)?;
        if frame.get("frame").and_then(Json::as_str) != Some("batch") {
            continue;
        }
        for row in frame
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("batch frame without rows")?
        {
            let row = u64s(row)?;
            out.width = row.len();
            out.values.extend(row);
        }
        if let Some(codes) = frame.get("codes") {
            out.codes.extend(u64s(codes)?);
        }
    }
    Ok(out)
}

/// The answer every timed response is held to.
#[derive(Clone, Copy, Debug)]
struct Want {
    batch_hash: u64,
    rows: u64,
    batches: u64,
    body_bytes: u64,
}

impl Want {
    fn met_by(&self, r: &Reply) -> bool {
        r.complete()
            && r.batch_hash == self.batch_hash
            && r.batches == self.batches
            && r.trailer_rows() == Some(self.rows)
    }
}

pub struct Served<S: ServedSpec> {
    db: Db,
    table: RawTable,
    server: Option<api::Served>,
    addr: SocketAddr,
    /// The `POST /query` body, rows mode and explain mode.
    body: String,
    explain_body: String,
    want: Want,
    spec: std::marker::PhantomData<S>,
}

/// One request, timed: issue -> trailer read, issue -> first batch
/// frame read.  A transport error reconnects and counts as a failure.
fn timed_query(conn: &mut Conn, body: &str, want: &Want) -> (Op, bool, Instant, Option<Reply>) {
    let start = Instant::now();
    let reply = conn.request("POST", "/query", body, false);
    let end = Instant::now();
    let total_ns = (end - start).as_nanos() as u64;
    match reply {
        Ok(r) => {
            let first = r
                .first_batch_at
                .map_or(total_ns, |t| (t - start).as_nanos() as u64);
            let ok = want.met_by(&r);
            (
                Op {
                    total_ns,
                    first_row_ns: first,
                },
                ok,
                start,
                Some(r),
            )
        }
        Err(_) => {
            let _ = conn.reconnect();
            (
                Op {
                    total_ns,
                    first_row_ns: total_ns,
                },
                false,
                start,
                None,
            )
        }
    }
}

impl<S: ServedSpec> Served<S> {
    /// `CLIENTS` closed-loop clients for `budget`; with `traced`, each
    /// request leaves a `request` span and its three phases.
    fn load(&self, budget: Duration, traced: Option<&mut Trace>) -> Measured {
        let deadline = Instant::now() + budget;
        let origin = traced.as_ref().map(|t| t.origin());
        let (addr, body, want) = (self.addr, &self.body, &self.want);
        let results: Vec<(Vec<Op>, u64, Option<Trace>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    // ovc-lint: allow(contained-spawn) -- load-generator client: joined two lines below, and a panic here must abort the measurement, not be contained
                    scope.spawn(move || {
                        let mut conn =
                            Conn::connect(addr, S::QUICK_ACK).expect("connect to the server");
                        let mut trace = origin.map(Trace::new);
                        let (mut ops, mut failed, mut n) = (Vec::new(), 0u64, 0u64);
                        loop {
                            let (op, ok, start, reply) = timed_query(&mut conn, body, want);
                            ops.push(op);
                            failed += u64::from(!ok);
                            n += 1;
                            if let (Some(t), Some(r)) = (trace.as_mut(), reply) {
                                record_request(t, (c as u64) << 32 | n, start, &op, &r);
                            }
                            if Instant::now() >= deadline {
                                break (ops, failed, trace);
                            }
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut measured = Measured::default();
        let mut traced = traced;
        for (ops, failed, trace) in results {
            measured.ops.push(ops);
            measured.failed += failed;
            if let (Some(all), Some(t)) = (traced.as_deref_mut(), trace) {
                all.absorb(t);
            }
        }
        measured
    }

    fn counters(&self) -> Result<(u64, u64), String> {
        let mut conn = Conn::connect(self.addr, S::QUICK_ACK).map_err(|e| e.to_string())?;
        let reply = conn
            .request("GET", "/metrics", "", true)
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(reply.body.as_deref().unwrap_or_default()).into_owned();
        let value = |name: &str| -> Result<u64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
                .map(|v| v as u64)
                .ok_or_else(|| format!("/metrics has no {name}"))
        };
        Ok((
            value("ovc_rate_limited_total ")? + value("ovc_sessions_rejected_total ")?,
            value("ovc_rows_streamed_total ")?,
        ))
    }
}

/// A request's spans: the whole exchange, and under it the send, the
/// wait for the first batch frame, and the rest of the stream.
fn record_request(t: &mut Trace, id: u64, start: Instant, op: &Op, r: &Reply) {
    let end = start + Duration::from_nanos(op.total_ns);
    let first = start + Duration::from_nanos(op.first_row_ns);
    let rows = r.trailer_rows().unwrap_or(0);
    let req = t.record("request", None, id, start, end, rows, r.body_bytes);
    t.record("request.to_first_batch", Some(req), id, start, first, 0, 0);
    t.record(
        "request.stream_rest",
        Some(req),
        id,
        first,
        end,
        rows,
        r.body_bytes,
    );
}

impl<S: ServedSpec> Workload for Served<S> {
    fn setup(seed: u64, scale: Scale, gate: &mut Gate) -> Self {
        let table = S::table(seed, scale);
        let mut db = Db::new();
        if S::SORTED {
            db.add_sorted(TABLE, &table);
        } else {
            db.add_unsorted(TABLE, &table);
        }
        let query = S::query();
        let library = api::run(&db, &api::plan(&db, &query, engine()), &Counted::new()).coded();
        gate.matches_reference(S::NAME, &library, &S::reference(&table));

        let server = api::serve(db.clone(), engine());
        let addr = server.addr;
        let plan = wire_plan(&query);
        let body = format!("{{\"plan\":{plan}}}");
        let explain_body = format!("{{\"plan\":{plan},\"mode\":\"explain\"}}");

        match api::client_query(addr, &body) {
            Ok(served) => gate.same(
                &format!("{}: Client::query vs library", S::NAME),
                &served,
                &library,
            ),
            Err(e) => gate.check(false, || format!("{}: Client::query failed: {e}", S::NAME)),
        }
        let mut want = Want {
            batch_hash: 0,
            rows: library.rows() as u64,
            batches: 0,
            body_bytes: 0,
        };
        let raw = Conn::connect(addr, S::QUICK_ACK)
            .and_then(|mut c| c.request("POST", "/query", &body, true));
        match raw {
            Ok(r) => {
                gate.check(r.complete(), || format!("{}: incomplete response", S::NAME));
                match parse_frames(r.body.as_deref().unwrap_or_default()) {
                    Ok(frames) => gate.same(
                        &format!("{}: wire frames vs library", S::NAME),
                        &frames,
                        &library,
                    ),
                    Err(e) => gate.check(false, || format!("{}: unreadable frames: {e}", S::NAME)),
                }
                want.batch_hash = r.batch_hash;
                want.batches = r.batches;
                want.body_bytes = r.body_bytes;
                gate.check(want.met_by(&r), || {
                    format!("{}: trailer row count differs", S::NAME)
                });
            }
            Err(e) => gate.check(false, || format!("{}: raw request failed: {e}", S::NAME)),
        }
        let w = Served {
            db,
            table,
            server: Some(server),
            addr,
            body,
            explain_body,
            want,
            spec: std::marker::PhantomData,
        };
        if let Ok(mut conn) = Conn::connect(addr, S::QUICK_ACK) {
            for _ in 0..WARMUP_OPS {
                timed_query(&mut conn, &w.body, &w.want);
            }
        }
        w
    }

    fn unit_rows(&self) -> u64 {
        S::unit_rows(self.table.rows(), self.want.rows as usize)
    }

    fn measure(&mut self, budget: Duration) -> Measured {
        self.load(budget, None)
    }

    fn trace(
        &mut self,
        budget: Duration,
        t: &mut Trace,
        layers: &mut Layers,
        notes: &mut Notes,
        gate: &mut Gate,
    ) -> TracedOps {
        let before = self.counters();
        // A quarter of the time under untraced load and a quarter under
        // traced load, in alternating slices so both see the same host;
        // the rest for the single-connection probes.
        let (mut untraced, mut traced) = (Measured::default(), Measured::default());
        for _ in 0..LOAD_SLICES {
            untraced.append(self.load(budget / (4 * LOAD_SLICES), None));
            traced.append(self.load(budget / (4 * LOAD_SLICES), Some(t)));
        }
        let mut queries = untraced.attempted() + traced.attempted();

        let query = S::query();
        let scans: &[&str] = if S::SORTED { &[TABLE] } else { &[] };
        let probes = PlanProbes::new(&self.db, &query, scans, engine(), notes);
        let planned = api::plan(&self.db, &query, engine());
        notes.push(("query".into(), planned.explain()));
        let sort = SortParams {
            key_len: 1,
            memory_rows: MEMORY_ROWS,
            fan_in: 64,
        };
        let mut conn = Conn::connect(self.addr, S::QUICK_ACK).expect("connect to the server");
        let deadline = Instant::now() + budget / 2;
        let mut id = 0;
        while id == 0 || Instant::now() < deadline {
            id += 1;
            let (r, _, s, e) = timed(|| conn.request("GET", "/health", "", false));
            gate.check(matches!(r, Ok(ref r) if r.status == 200), || {
                "GET /health failed".into()
            });
            t.record("server.health", None, id, s, e, 0, 0);
            let (r, _, s, e) = timed(|| conn.request("POST", "/query", &self.explain_body, false));
            gate.check(matches!(r, Ok(ref r) if r.status == 200), || {
                "explain failed".into()
            });
            t.record("server.explain", None, id, s, e, 0, 0);

            let counted = Counted::new();
            let (out, _, s, e) =
                timed(|| api::run(&self.db, &api::plan(&self.db, &query, engine()), &counted));
            t.record(
                "server.library_execute",
                None,
                id,
                s,
                e,
                out.len() as u64,
                0,
            );
            if id == 1 {
                let c = counted.read();
                let n = self.table.rows() as f64;
                layers.insert("core.col_cmps_per_row", c.col_cmps as f64 / n);
                layers.insert("core.code_cmps_per_row", c.code_cmps as f64 / n);
            }
            probes.pass(&self.db, &query, engine(), t, id);

            // The harness's own cost of reading a response: de-chunked
            // body through the frame scanner and the hash, off-line.
            if let Ok(r) = conn.request("POST", "/query", &self.body, true) {
                queries += 1;
                let body = r.body.unwrap_or_default();
                let (_, _, s, e) = timed(|| scan_body(&body));
                t.record(
                    "bench.client_read",
                    None,
                    id,
                    s,
                    e,
                    self.want.rows,
                    body.len() as u64,
                );
            }

            // The sort the unsorted table needs, taken apart in-process
            // with the server's memory budget.
            if !S::SORTED {
                let rows = Rows::from_table(&self.table);
                let n = rows.len() as u64;
                let counted = Counted::new();
                let (runs, _, s, e) = timed(|| api::generate_runs(rows, sort, &counted));
                t.record("sort.run_gen", None, id, s, e, n, 0);
                layers.insert("sort.runs", runs.len() as f64);
                let (_, _, s, e) = timed(|| api::merge_runs(runs, sort, &counted));
                t.record("sort.merge", None, id, s, e, n, 0);
                let rows = Rows::from_table(&self.table);
                let (_, _, s, e) =
                    timed(|| api::external_sort(rows, sort, Device::Memory, &Counted::new()));
                t.record("sort.resident", None, id, s, e, n, 0);
            }
        }

        let med = |name: &str| median(&t.self_ms_per_op(name));
        let latency = median(&ms(&untraced.ops, |o| o.total_ns));
        let ttfr = median(&ms(&untraced.ops, |o| o.first_row_ns));
        PlanProbes::layers(t, layers);
        layers.insert("plan.execute_batched_ms", med("server.library_execute"));
        layers.insert("server.health_rtt_ms", med("server.health"));
        layers.insert("server.explain_ms", med("server.explain"));
        layers.insert("server.library_execute_ms", med("server.library_execute"));
        // Streaming is what follows the first batch frame, read off the
        // traced requests.  What a request costs beyond planning (an
        // explain pays that too), the engine's work and streaming is
        // the remainder: socket waits, HTTP framing, contention between
        // the clients.  It goes negative where the engine's work
        // overlaps the streaming (a lazily executed filter).
        let stream_ms = median(&t.self_ms("request.stream_rest"));
        layers.insert("server.stream_ms", stream_ms);
        layers.insert(
            "bench.unattributed_pct",
            (latency - med("server.explain") - med("server.library_execute") - stream_ms) / latency
                * 100.0,
        );
        layers.insert(
            "server.stream_ns_per_row",
            stream_ms * 1e6 / self.want.rows.max(1) as f64,
        );
        layers.insert("server.ttfr_share", ttfr / latency);
        layers.insert("server.batches_per_query", self.want.batches as f64);
        layers.insert(
            "server.wire_bytes_per_row",
            self.want.body_bytes as f64 / self.want.rows.max(1) as f64,
        );
        layers.insert("bench.client_read_ms", med("bench.client_read"));
        if !S::SORTED {
            layers.insert("sort.run_gen_ms", med("sort.run_gen"));
            layers.insert("sort.merge_ms", med("sort.merge"));
            layers.insert("sort.resident_ms", med("sort.resident"));
        }
        match (before, self.counters()) {
            (Ok((rejected0, rows0)), Ok((rejected1, rows1))) => {
                layers.insert("server.rejected", (rejected1 - rejected0) as f64);
                layers.insert("server.rows_streamed", (rows1 - rows0) as f64);
                gate.check(rejected1 == rejected0, || {
                    "the server refused requests".into()
                });
                gate.check(rows1 - rows0 == queries * self.want.rows, || {
                    format!(
                        "ovc_rows_streamed_total moved by {}, expected {queries} x {}",
                        rows1 - rows0,
                        self.want.rows
                    )
                });
            }
            (Err(e), _) | (_, Err(e)) => gate.check(false, || format!("GET /metrics: {e}")),
        }
        TracedOps { untraced, traced }
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_plans_are_valid_json_in_the_servers_shape() {
        let q = Query::GroupBy(
            Box::new(Query::InnerJoin(
                Box::new(Query::FilterLt(scan(), 2, 30)),
                Box::new(Query::UnionAll(
                    scan(),
                    Box::new(Query::FilterGt(scan(), 0, 7)),
                )),
                2,
            )),
            1,
            vec![Agg::Count, Agg::Sum(1), Agg::Max(2)],
        );
        let doc = json::parse(&wire_plan(&q)).expect("valid JSON");
        let g = doc.get("group_by").expect("group_by node");
        assert_eq!(g.get("group_len").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            g.get("aggs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        let j = g
            .get("input")
            .and_then(|i| i.get("join"))
            .expect("join node");
        assert_eq!(j.get("type").and_then(Json::as_str), Some("inner"));
        assert!(j.get("left").and_then(|l| l.get("filter")).is_some());
        assert!(j.get("right").and_then(|r| r.get("set_op")).is_some());
    }

    #[test]
    fn frames_parse_back_to_rows_and_codes() {
        let body = b"{\"frame\":\"header\",\"width\":2}\n\
            {\"frame\":\"batch\",\"seq\":0,\"rows\":[[\"1\",\"2\"],[\"3\",\"4\"]],\"codes\":[\"9\",\"8\"]}\n\
            {\"frame\":\"batch\",\"seq\":1,\"rows\":[[\"5\",\"18446744073709551615\"]],\"codes\":[\"7\"]}\n\
            {\"frame\":\"trailer\",\"rows\":3}\n";
        let coded = parse_frames(body).expect("frames parse");
        assert_eq!(coded.width, 2);
        assert_eq!(coded.values, vec![1, 2, 3, 4, 5, u64::MAX]);
        assert_eq!(coded.codes, vec![9, 8, 7]);
    }
}
