//! The threaded query server: accept loop, bounded session pool,
//! request routing, streaming execution, graceful shutdown.
//!
//! ## Threading model
//!
//! One listener thread runs [`Server::run`]; every accepted connection
//! gets its own session thread (keep-alive: a session serves many
//! requests).  The pool is bounded by [`ServerConfig::max_sessions`] —
//! connection number `max+1` receives `503` and is closed, so a client
//! herd degrades loudly instead of queueing invisibly.  All state the
//! sessions share ([`crate::metrics::ServerMetrics`], the catalog, the
//! rate limiter) is behind `Arc`, which is exactly what the
//! `Arc<Stats>`/atomic refactor of this crate's PR bought: a physical
//! plan and its coded stream are `Send`, so a query can execute entirely
//! on the connection's thread.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or `POST /shutdown`) sets a flag and
//! self-connects to wake the blocking accept.  Sessions notice the flag
//! **between** requests only — a query mid-stream always runs to its
//! trailer frame, so shutdown drains in-flight work without dropping a
//! batch.  [`Server::run`] returns after every session thread has been
//! joined.

use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use ovc_core::ctx::ExecError;
use ovc_core::{FlatRows, Ovc, QueryCtx, Stats};
use ovc_json::{write_str, Json};
use ovc_plan::{
    build_profile, execute_into, Catalog, ExecOptions, Partitioning, Planner, PlannerConfig,
};

use crate::http::{read_request, write_response, ChunkedWriter, ParseError, Request};
use crate::metrics::ServerMetrics;
use crate::ratelimit::{Admission, RateLimitConfig, RateLimiter};
use crate::wire;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum concurrent session threads; further connections get 503.
    pub max_sessions: usize,
    /// Rows per streamed `batch` frame.
    pub batch_rows: usize,
    /// Per-IP token-bucket policy.
    pub rate_limit: RateLimitConfig,
    /// Planner knobs applied to every served query (memory budget,
    /// fan-in, degree of parallelism, executor batch size).
    pub planner: PlannerConfig,
    /// How long a session waits for the next request before re-checking
    /// the shutdown flag (liveness knob; correctness does not depend on
    /// it).
    pub poll_interval: Duration,
    /// How long a session waits for the remainder of a request once its
    /// first byte has arrived (slow-writer allowance; the connection is
    /// closed when it expires mid-request).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 32,
            batch_rows: 1000,
            rate_limit: RateLimitConfig::default(),
            planner: PlannerConfig::default(),
            poll_interval: Duration::from_millis(50),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// State shared by the listener and every session thread.
pub struct ServerState {
    config: ServerConfig,
    /// Snapshot-swap catalog: readers clone the `Arc` and drop the lock
    /// before executing, so a long query never blocks registration and a
    /// panicking executor can never poison the lock.
    catalog: RwLock<Arc<Catalog>>,
    /// Exported counters.
    pub metrics: ServerMetrics,
    limiter: RateLimiter,
    shutdown: AtomicBool,
    request_counter: AtomicU64,
    /// Queries currently streaming (admission to trailer) — drained to
    /// zero before [`Server::run`] returns.
    pub in_flight_queries: AtomicU64,
    local_addr: SocketAddr,
}

impl ServerState {
    /// The current catalog snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read().expect("catalog lock poisoned"))
    }

    /// Replace table `name`, snapshot-swapping the catalog (in-flight
    /// queries keep the snapshot they started with).
    pub fn register_table(&self, name: &str, table: ovc_plan::Table) {
        let mut guard = self.catalog.write().expect("catalog lock poisoned");
        let mut next = Catalog::clone(&guard);
        next.register(name, table);
        *guard = Arc::new(next);
    }

    /// Has shutdown been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept; the listener re-checks the flag on
        // every returned connection, so one poke suffices.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn next_request_id(&self) -> String {
        format!(
            "req-{}",
            // ovc-lint: allow(relaxed-ordering-audit) -- monotonic id counter; uniqueness needs atomicity, not ordering
            self.request_counter.fetch_add(1, Ordering::Relaxed)
        )
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A handle for controlling a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Request graceful shutdown: stop accepting, let in-flight queries
    /// stream to their trailers, then let [`Server::run`] return.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// The shared state (metrics, catalog, flags).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

impl Server {
    /// Bind the listener and wrap the initial catalog.
    pub fn bind(config: ServerConfig, catalog: Catalog) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let limiter = RateLimiter::new(config.rate_limit);
        let state = Arc::new(ServerState {
            config,
            catalog: RwLock::new(Arc::new(catalog)),
            metrics: ServerMetrics::default(),
            limiter,
            shutdown: AtomicBool::new(false),
            request_counter: AtomicU64::new(0),
            in_flight_queries: AtomicU64::new(0),
            local_addr,
        });
        Ok(Server { listener, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// A control handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Run the accept loop until shutdown, then join every session
    /// thread.  Returns only after all in-flight work has drained.
    pub fn run(self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.is_shutting_down() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            sessions.retain(|h| !h.is_finished());
            // ovc-lint: allow(relaxed-ordering-audit) -- admission gauge: the acceptor is the only incrementer, so the bound cannot be overshot; a dying session's decrement arriving late only under-admits
            let active = self.state.metrics.active_sessions.load(Ordering::Relaxed);
            if active as usize >= self.state.config.max_sessions {
                ServerMetrics::inc(&self.state.metrics.sessions_rejected_total);
                let mut w = BufWriter::new(&stream);
                let _ = write_response(
                    &mut w,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &[("connection", "close"), ("retry-after", "1")],
                    wire::error_body("-", "session pool full").as_bytes(),
                );
                continue;
            }
            ServerMetrics::inc(&self.state.metrics.active_sessions);
            let state = Arc::clone(&self.state);
            sessions.push(std::thread::spawn(move || {
                let _guard = SessionGuard(&state.metrics.active_sessions);
                // Contain session panics to a typed error: one broken
                // connection must never take the acceptor (or the
                // session slot accounting) down with it.
                if let Err(err) = ovc_core::ctx::contain(|| session_loop(&state, stream)) {
                    eprintln!("ovc-server: session aborted: {err}");
                }
            }));
        }
        for h in sessions {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Decrements `active_sessions` when the session thread exits, however
/// it exits.
struct SessionGuard<'a>(&'a AtomicU64);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        // ovc-lint: allow(relaxed-ordering-audit) -- gauge decrement; see the admission-site note
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve one keep-alive connection until the peer closes, an error
/// forces a close, or shutdown is observed between requests.
fn session_loop(state: &ServerState, stream: TcpStream) {
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut buffers = SessionBuffers::default();
    loop {
        // Wait for the next request in short slices so the shutdown flag
        // is observed promptly — but never abandon a request mid-parse.
        if reader.buffer().is_empty() {
            if state.is_shutting_down() {
                return;
            }
            let _ = stream.set_read_timeout(Some(state.config.poll_interval));
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return, // peer closed
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
        // A request has begun; allow a generous window for the rest of
        // it (slow writers), then parse it whole.
        let _ = stream.set_read_timeout(Some(state.config.read_timeout));
        let request = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(ParseError::UnexpectedEof) => return,
            Err(e) => {
                let mut w = BufWriter::new(&stream);
                let status = match e {
                    ParseError::TooLarge(_) => (413, "Payload Too Large"),
                    _ => (400, "Bad Request"),
                };
                let _ = write_response(
                    &mut w,
                    status.0,
                    status.1,
                    "application/json",
                    &[("connection", "close")],
                    wire::error_body("-", &e.to_string()).as_bytes(),
                );
                return;
            }
        };
        let close_after = request.wants_close() || state.is_shutting_down();
        let ok = handle_request(state, &stream, &request, peer_ip, close_after, &mut buffers);
        if !ok || close_after {
            return;
        }
    }
}

/// Route and answer one request.  Returns `false` when the connection
/// must close (I/O failure or protocol-level close).
fn handle_request(
    state: &ServerState,
    stream: &TcpStream,
    request: &Request,
    peer_ip: IpAddr,
    close_after: bool,
    buffers: &mut SessionBuffers,
) -> bool {
    ServerMetrics::inc(&state.metrics.requests_total);
    let request_id = request
        .header("x-request-id")
        .map(str::to_string)
        .unwrap_or_else(|| state.next_request_id());
    let conn_header = if close_after { "close" } else { "keep-alive" };
    let base_headers = [
        ("x-request-id", request_id.as_str()),
        ("connection", conn_header),
    ];
    let mut writer = BufWriter::new(stream);
    let respond =
        |w: &mut BufWriter<&TcpStream>, status: u16, reason: &str, ct: &str, body: &[u8]| {
            write_response(w, status, reason, ct, &base_headers, body).is_ok()
        };

    // Monitoring endpoints bypass the rate limiter by design.
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let body = format!(
                "{{\"status\":\"ok\",\"active_sessions\":{},\"in_flight_queries\":{},\
                 \"shutting_down\":{}}}\n",
                // ovc-lint: allow(relaxed-ordering-audit) -- statistical health snapshot; momentary drift is fine
                state.metrics.active_sessions.load(Ordering::Relaxed),
                // ovc-lint: allow(relaxed-ordering-audit) -- statistical health snapshot; momentary drift is fine
                state.in_flight_queries.load(Ordering::Relaxed),
                state.is_shutting_down()
            );
            return respond(&mut writer, 200, "OK", "application/json", body.as_bytes());
        }
        ("GET", "/metrics") => {
            let body = state.metrics.render_prometheus();
            return respond(
                &mut writer,
                200,
                "OK",
                "text/plain; version=0.0.4",
                body.as_bytes(),
            );
        }
        _ => {}
    }

    match state.limiter.check(peer_ip) {
        Admission::Allowed => {}
        Admission::Limited(retry_after) => {
            ServerMetrics::inc(&state.metrics.rate_limited_total);
            let retry = retry_after.to_string();
            let headers = [
                ("x-request-id", request_id.as_str()),
                ("connection", conn_header),
                ("retry-after", retry.as_str()),
            ];
            let body = wire::error_body(&request_id, "rate limit exceeded");
            return write_response(
                &mut writer,
                429,
                "Too Many Requests",
                "application/json",
                &headers,
                body.as_bytes(),
            )
            .is_ok();
        }
    }

    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => {
            handle_query(state, writer, request, &request_id, conn_header, buffers)
        }
        ("POST", "/tables") => {
            let outcome = parse_body(&request.body).and_then(|doc| {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| wire::WireError("table: missing field \"name\"".into()))?
                    .to_string();
                let table = wire::parse_table(&doc)?;
                Ok((name, table))
            });
            match outcome {
                Ok((name, table)) => {
                    let rows = table.len();
                    state.register_table(&name, table);
                    let mut body = String::from("{\"status\":\"ok\",\"table\":");
                    write_str(&mut body, &name);
                    body.push_str(&format!(",\"rows\":{rows}}}\n"));
                    respond(&mut writer, 200, "OK", "application/json", body.as_bytes())
                }
                Err(e) => respond(
                    &mut writer,
                    400,
                    "Bad Request",
                    "application/json",
                    wire::error_body(&request_id, &e.to_string()).as_bytes(),
                ),
            }
        }
        ("POST", "/shutdown") => {
            state.trigger_shutdown();
            let mut body = String::from("{\"status\":\"shutting_down\",\"request_id\":");
            write_str(&mut body, &request_id);
            body.push_str("}\n");
            // The flag is set, so the session loop closes after this
            // response either way.
            respond(&mut writer, 200, "OK", "application/json", body.as_bytes())
        }
        _ => respond(
            &mut writer,
            404,
            "Not Found",
            "application/json",
            wire::error_body(&request_id, "no such route").as_bytes(),
        ),
    }
}

fn parse_body(body: &[u8]) -> Result<Json, wire::WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| wire::WireError("body is not valid UTF-8".into()))?;
    Json::parse(text).map_err(wire::WireError)
}

/// `POST /query`: plan, then either answer `explain` in one response or
/// stream `rows`/`analyze` as chunked frames.
fn handle_query(
    state: &ServerState,
    mut writer: BufWriter<&TcpStream>,
    request: &Request,
    request_id: &str,
    conn_header: &str,
    buffers: &mut SessionBuffers,
) -> bool {
    let base_headers = [("x-request-id", request_id), ("connection", conn_header)];
    let bad_request = |writer: &mut BufWriter<&TcpStream>, msg: &str| {
        write_response(
            writer,
            400,
            "Bad Request",
            "application/json",
            &base_headers,
            wire::error_body(request_id, msg).as_bytes(),
        )
        .is_ok()
    };

    let doc = match parse_body(&request.body) {
        Ok(d) => d,
        Err(e) => return bad_request(&mut writer, &e.to_string()),
    };
    let mode = match doc.get("mode").map(|m| m.as_str()) {
        None => "rows",
        Some(Some(m @ ("rows" | "explain" | "analyze"))) => m,
        Some(other) => {
            return bad_request(
                &mut writer,
                &format!("mode: expected \"rows\", \"explain\", or \"analyze\", got {other:?}"),
            )
        }
    };
    let plan_json = match doc.get("plan") {
        Some(p) => p,
        None => return bad_request(&mut writer, "query: missing field \"plan\""),
    };
    let logical = match wire::parse_plan(plan_json) {
        Ok(p) => p,
        Err(e) => return bad_request(&mut writer, &e.to_string()),
    };

    // Planning and execution run against one catalog snapshot; a
    // concurrent /tables registration cannot shift the ground mid-query.
    let catalog = state.catalog();
    let planner = Planner::new(&catalog, state.config.planner);
    let physical = match planner.plan(&logical) {
        Ok(p) => p,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.query_errors_total);
            return bad_request(&mut writer, &format!("plan error: {e}"));
        }
    };
    let options = ExecOptions {
        batch_size: state.config.planner.batch_size,
        ..ExecOptions::default()
    };

    // Per-query fault context: `x-query-timeout-ms` arms a deadline the
    // executor re-checks at operator and run boundaries; the context is
    // also cancelled if the client disconnects mid-stream.
    let timeout = match request.header("x-query-timeout-ms") {
        None => None,
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                return bad_request(
                    &mut writer,
                    "x-query-timeout-ms: expected milliseconds as an unsigned integer",
                )
            }
        },
    };
    let qctx = QueryCtx::build(timeout, None);

    if mode == "explain" {
        let mut body = String::from("{\"status\":\"ok\",\"request_id\":");
        write_str(&mut body, request_id);
        body.push_str(",\"explain\":");
        write_str(&mut body, &physical.explain());
        body.push_str("}\n");
        return write_response(
            &mut writer,
            200,
            "OK",
            "application/json",
            &base_headers,
            body.as_bytes(),
        )
        .is_ok();
    }

    // Streaming modes.  From here on the query counts as in flight and
    // MUST reach its trailer (or error frame) before shutdown completes.
    state.in_flight_queries.fetch_add(1, Ordering::SeqCst);
    let result = stream_query(
        state,
        &mut writer,
        &base_headers,
        request_id,
        mode,
        &physical,
        &catalog,
        &options,
        &qctx,
        buffers,
    );
    state.in_flight_queries.fetch_sub(1, Ordering::SeqCst);
    // Every streamed query lands in exactly one counter: completed,
    // timed out, cancelled, or failed — so the /metrics series stay
    // individually interpretable.
    match result {
        Ok(None) => {
            ServerMetrics::inc(&state.metrics.queries_total);
            true
        }
        Ok(Some(err)) => {
            match err.reason() {
                "timeout" => ServerMetrics::inc(&state.metrics.queries_timed_out_total),
                "cancelled" => ServerMetrics::inc(&state.metrics.queries_cancelled_total),
                _ => ServerMetrics::inc(&state.metrics.query_errors_total),
            }
            // The error frame and terminal chunk were delivered; the
            // connection stays usable for the next request.
            true
        }
        Err(_) => {
            // The transport died mid-stream (client gone): cancel the
            // context so any work still referencing it stops at its next
            // check, and count the abandonment.  SessionGuard and the
            // in-flight decrement above free the slot either way.
            qctx.cancel();
            ServerMetrics::inc(&state.metrics.queries_cancelled_total);
            false
        }
    }
}

/// Execute and stream one query: header frame, row batches, trailer.
///
/// The header goes out **before** execution starts, and each batch
/// frame as soon as its rows exist: the executor hands the root's
/// batches to [`Frames`] on this thread while the plan runs, so no
/// result is materialized here.  When the executor fails — before the
/// first batch frame or after it — the typed [`ExecError`] is delivered
/// as an `error` frame on the already-open stream (`Ok(Some(err))`) and
/// a partly built frame is dropped; `Err` is a transport failure (the
/// client disconnected mid-stream), which stops the plan.
#[allow(clippy::too_many_arguments)]
fn stream_query(
    state: &ServerState,
    writer: &mut BufWriter<&TcpStream>,
    base_headers: &[(&str, &str)],
    request_id: &str,
    mode: &str,
    physical: &ovc_plan::PhysicalPlan,
    catalog: &Catalog,
    options: &ExecOptions,
    qctx: &QueryCtx,
    buffers: &mut SessionBuffers,
) -> std::io::Result<Option<ExecError>> {
    let stats = Stats::new_shared();
    let width = physical.props.width;
    let key_len = physical.props.order.len();
    let cw = ChunkedWriter::start(
        &mut *writer,
        200,
        "OK",
        "application/x-ndjson",
        base_headers,
    )?;
    let mut frames = Frames {
        cw,
        frame: &mut buffers.frame,
        codes: &mut buffers.codes,
        metrics: &state.metrics,
        coded: physical.props.coded,
        batch_rows: state.config.batch_rows.max(1),
        open: 0,
        seq: 0,
        rows: 0,
    };
    frames.send(|f| wire::header_frame(f, request_id, mode, width, key_len))?;
    if physical.props.partitioning != Partitioning::Single {
        // The planner always gathers to a single stream at the root;
        // reaching this is a planner bug, reported on the stream.
        frames.send(|f| wire::error_frame(f, "plan root is partitioned"))?;
        frames.cw.finish()?;
        return Ok(None);
    }

    let profile = (mode == "analyze").then(|| build_profile(physical));
    let mut transport = None;
    let executed = execute_into(
        physical,
        catalog,
        &stats,
        options,
        qctx,
        profile.as_ref(),
        &mut |batch| {
            frames.push(&batch).map_err(|err| {
                // The client is gone: stop every thread of the plan at
                // its next check, not only the root's pull.
                qctx.cancel();
                transport = Some(err);
                ExecError::Cancelled
            })
        },
    );
    // Keep the accounting of a failed attempt too — the engine counters
    // reflect work actually performed.
    let delta = stats.snapshot();
    state.metrics.absorb_query(&delta);
    if let Some(err) = transport {
        return Err(err);
    }
    if let Err(err) = executed {
        frames.send(|f| wire::typed_error_frame(f, err.reason(), &err.to_string()))?;
        frames.cw.finish()?;
        return Ok(Some(err));
    }
    // The last frame may be short.
    frames.emit()?;
    let analyze_text = profile.map(|root| {
        let snapshot = root.snapshot();
        state.metrics.absorb_gauges(&snapshot);
        ovc_plan::render_analyze(physical, &snapshot)
    });
    let (rows, batches) = (frames.rows, frames.seq);
    frames.send(|f| wire::trailer_frame(f, rows, batches, &delta, analyze_text.as_deref()))?;
    frames.cw.finish()?;
    Ok(None)
}

/// What a session reuses across its requests: the buffer every
/// response frame is encoded into, and the codes of the batch frame
/// being cut.  Once both have grown to the largest frame, streaming a
/// result allocates nothing per frame.
#[derive(Default)]
struct SessionBuffers {
    frame: String,
    codes: Vec<Ovc>,
}

/// One streaming response's frames: cuts a `batch` frame every
/// `batch_rows` rows of the result — wherever the executor's batches
/// begin and end — and sends each as one chunk.  A frame under
/// construction lives in `frame` (its rows) and `codes` (their codes,
/// which follow all rows in the frame), so it carries across root
/// batches.
struct Frames<'a, W: Write> {
    cw: ChunkedWriter<W>,
    frame: &'a mut String,
    codes: &'a mut Vec<Ovc>,
    metrics: &'a ServerMetrics,
    /// Does the output carry codes?  Only a coded stream sends them.
    coded: bool,
    batch_rows: usize,
    /// Rows in the open frame (0: no frame is open).
    open: usize,
    /// Batch frames sent (the next frame's `seq`).
    seq: u64,
    /// Rows sent in batch frames.
    rows: u64,
}

impl<W: Write> Frames<'_, W> {
    /// Encode one non-batch frame into the buffer and send it.
    fn send(&mut self, write: impl FnOnce(&mut String)) -> std::io::Result<()> {
        self.frame.clear();
        write(self.frame);
        self.cw.chunk(self.frame.as_bytes())
    }

    /// Append a root batch's rows to the open frame, sending every frame
    /// that fills.
    fn push(&mut self, batch: &FlatRows) -> std::io::Result<()> {
        let mut at = 0;
        while at < batch.len() {
            if self.open == 0 {
                // Nothing of a frame a failure abandoned carries over.
                self.frame.clear();
                self.codes.clear();
                wire::batch_frame_open(self.frame, self.seq);
            }
            let end = batch.len().min(at + self.batch_rows - self.open);
            wire::batch_frame_rows(self.frame, (at..end).map(|i| batch.row(i)));
            if self.coded {
                self.codes.extend_from_slice(&batch.codes()[at..end]);
            }
            self.open += end - at;
            at = end;
            if self.open == self.batch_rows {
                self.emit()?;
            }
        }
        Ok(())
    }

    /// Close and send the open frame, if there is one.
    fn emit(&mut self) -> std::io::Result<()> {
        if self.open == 0 {
            return Ok(());
        }
        wire::batch_frame_close(self.frame, self.coded.then_some(&self.codes[..]));
        self.cw.chunk(self.frame.as_bytes())?;
        ServerMetrics::add(&self.metrics.rows_streamed_total, self.open as u64);
        ServerMetrics::inc(&self.metrics.batches_streamed_total);
        self.rows += self.open as u64;
        self.seq += 1;
        self.open = 0;
        Ok(())
    }
}
