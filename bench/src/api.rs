//! The pinned engine surface: the **only** module that imports from the
//! `ovc-*` crates.
//!
//! Later changes may not edit the benchmark, so everything here is API
//! that ROADMAP items 1-5 say survives: the sort entry points and the
//! `RunStorage` devices, the planner/executor front door
//! (`Planner::plan`, `execute`, `Output::into_coded`), and the server's
//! `Server`/`Client`.  No operator constructors, no profiling wrappers,
//! no run codecs, no `ovc_bench`.  The rest of the harness sees only the
//! thin wrappers below, so an API move is a one-file fix.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ovc_core::{Row, SortSpec, Stats};
use ovc_plan::{
    execute, Aggregate, Catalog, ExecOptions, JoinType, LogicalPlan, Planner, PlannerConfig,
    Predicate, Preference, SetOp, Table,
};
use ovc_server::{Client, RateLimitConfig, Server, ServerConfig};
use ovc_sort::{
    external_sort_spec_to_run, generate_runs_spec, merge_runs_to_run_spec, MemoryRunStorage, Run,
    RunGenStrategy, RunStorage, SortConfig,
};
use ovc_storage::{EncodedRunStorage, FileRunStorage};

use crate::gen::{Fnv, RawTable};

// ---------------------------------------------------------------------
// Rows, results, counters
// ---------------------------------------------------------------------

/// Engine rows, ready to feed a sort or a table registration.
#[derive(Clone)]
pub struct Rows(Vec<Row>);

impl Rows {
    pub fn from_table(table: &RawTable) -> Rows {
        Rows(table.iter().map(Row::from_slice).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A result flattened for comparison: row values row-major, one code
/// per row (empty when the result is unordered).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coded {
    pub width: usize,
    pub values: Vec<u64>,
    pub codes: Vec<u64>,
}

impl Coded {
    pub fn rows(&self) -> usize {
        self.values.len().checked_div(self.width).unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.values.chunks_exact(self.width.max(1))
    }

    pub fn digest(&self) -> Digest {
        digest_of(self.iter().zip(self.codes.iter().copied()))
    }
}

/// Row count plus an order-sensitive hash of every value and code: the
/// cheap per-iteration check against the gate's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

fn digest_of<'a>(rows: impl Iterator<Item = (&'a [u64], u64)>) -> Digest {
    let mut h = Fnv::new();
    let mut n = 0;
    for (cols, code) in rows {
        for &v in cols {
            h.word(v);
        }
        h.word(code);
        n += 1;
    }
    Digest { rows: n, hash: h.0 }
}

fn flatten<'a>(rows: impl Iterator<Item = (&'a [u64], u64)>) -> Coded {
    let mut out = Coded::default();
    for (cols, code) in rows {
        out.width = cols.len();
        out.values.extend_from_slice(cols);
        out.codes.push(code);
    }
    out
}

/// The engine's comparison and spill counters since the handle was
/// created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub col_cmps: u64,
    pub code_cmps: u64,
    pub rows_spilled: u64,
    pub bytes_spilled: u64,
}

/// A live `Stats` handle, threaded into every engine call below.
pub struct Counted(Arc<Stats>);

impl Counted {
    pub fn new() -> Counted {
        Counted(Stats::new_shared())
    }

    pub fn read(&self) -> Counters {
        let s = self.0.snapshot();
        Counters {
            col_cmps: s.col_value_cmps,
            code_cmps: s.ovc_cmps,
            rows_spilled: s.rows_spilled,
            bytes_spilled: s.bytes_spilled,
        }
    }
}

// ---------------------------------------------------------------------
// ovc-sort + ovc-storage
// ---------------------------------------------------------------------

/// External-sort knobs (`RunGenStrategy::OvcPriorityQueue` throughout).
#[derive(Clone, Copy, Debug)]
pub struct SortParams {
    pub key_len: usize,
    pub memory_rows: usize,
    pub fan_in: usize,
}

impl SortParams {
    fn config(self) -> SortConfig {
        SortConfig::new(self.key_len, self.memory_rows)
            .with_fan_in(self.fan_in)
            .with_strategy(RunGenStrategy::OvcPriorityQueue)
    }

    fn spec(self) -> SortSpec {
        SortSpec::asc(self.key_len)
    }
}

/// Where runs spill.  `FileRaw` is the CRC32-framed raw-words format,
/// `FilePrefix` the prefix-truncated one; `Encoded` is the
/// prefix-truncated codec with no file behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Device {
    Memory,
    FileRaw,
    FilePrefix,
    Encoded,
}

/// A sorted, coded run (sort output or one initial run).
pub struct SortedRun(Run);

impl SortedRun {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn pairs(&self) -> impl Iterator<Item = (&[u64], u64)> {
        self.0.iter().map(|(cols, code)| (cols, code.raw()))
    }

    pub fn digest(&self) -> Digest {
        digest_of(self.pairs())
    }

    pub fn coded(&self) -> Coded {
        flatten(self.pairs())
    }
}

/// `external_sort_spec_to_run` through a fresh device of the given kind
/// (file devices get a fresh scratch directory, removed on return).
pub fn external_sort(input: Rows, p: SortParams, device: Device, stats: &Counted) -> SortedRun {
    let shared = Arc::clone(&stats.0);
    let (cfg, spec) = (p.config(), p.spec());
    let run = match device {
        Device::Memory => {
            let mut s = MemoryRunStorage::new(shared);
            external_sort_spec_to_run(input.0, cfg, &spec, &mut s, &stats.0)
        }
        Device::FileRaw => {
            let mut s = FileRunStorage::new_raw(shared).expect("create the spill directory");
            external_sort_spec_to_run(input.0, cfg, &spec, &mut s, &stats.0)
        }
        Device::FilePrefix => {
            let mut s = FileRunStorage::new(shared).expect("create the spill directory");
            external_sort_spec_to_run(input.0, cfg, &spec, &mut s, &stats.0)
        }
        Device::Encoded => {
            let mut s = EncodedRunStorage::new(shared);
            external_sort_spec_to_run(input.0, cfg, &spec, &mut s, &stats.0)
        }
    };
    SortedRun(run)
}

/// `generate_runs_spec`: the initial runs of the sort above.
pub fn generate_runs(input: Rows, p: SortParams, stats: &Counted) -> Vec<SortedRun> {
    generate_runs_spec(
        input.0,
        &p.spec(),
        p.memory_rows,
        RunGenStrategy::OvcPriorityQueue,
        &stats.0,
    )
    .into_iter()
    .map(SortedRun)
    .collect()
}

/// `merge_runs_to_run_spec` over runs held in memory.
pub fn merge_runs(runs: Vec<SortedRun>, p: SortParams, stats: &Counted) -> SortedRun {
    let runs = runs.into_iter().map(|r| r.0).collect();
    SortedRun(merge_runs_to_run_spec(runs, &p.spec(), &stats.0))
}

/// Write every run to a fresh device, then read every run back, calling
/// `on_call(is_write, start, end, rows)` around each `write_run` /
/// `read_run`.  Returns the runs as read back.
pub fn spill_round_trip(
    runs: Vec<SortedRun>,
    device: Device,
    stats: &Counted,
    on_call: &mut dyn FnMut(bool, Instant, Instant, usize),
) -> Vec<SortedRun> {
    let shared = Arc::clone(&stats.0);
    let mut storage: Box<dyn RunStorage> = match device {
        Device::Memory => Box::new(MemoryRunStorage::new(shared)),
        Device::FileRaw => {
            Box::new(FileRunStorage::new_raw(shared).expect("create the spill directory"))
        }
        Device::FilePrefix => {
            Box::new(FileRunStorage::new(shared).expect("create the spill directory"))
        }
        Device::Encoded => Box::new(EncodedRunStorage::new(shared)),
    };
    let mut handles = Vec::with_capacity(runs.len());
    for run in runs {
        let rows = run.len();
        let start = Instant::now();
        let handle = storage.write_run(run.0).expect("write a spill run");
        on_call(true, start, Instant::now(), rows);
        handles.push(handle);
    }
    let mut back = Vec::with_capacity(handles.len());
    for handle in handles {
        let start = Instant::now();
        let run = storage.read_run(handle).expect("read a spill run back");
        on_call(false, start, Instant::now(), run.len());
        back.push(SortedRun(run));
    }
    back
}

// ---------------------------------------------------------------------
// ovc-plan
// ---------------------------------------------------------------------

/// The harness's own plan description.  One value converts both to the
/// engine's `LogicalPlan` (here) and to the wire JSON (`served.rs`), so
/// the library and the server provably run the same query.
#[derive(Clone, Debug)]
pub enum Query {
    Scan(&'static str),
    /// Keep rows with `col < below`.
    FilterLt(Box<Query>, usize, u64),
    /// Keep rows with `col > above`.
    FilterGt(Box<Query>, usize, u64),
    /// Inner join on the leading `usize` columns.
    InnerJoin(Box<Query>, Box<Query>, usize),
    /// Group on the leading `usize` columns.
    GroupBy(Box<Query>, usize, Vec<Agg>),
    UnionAll(Box<Query>, Box<Query>),
}

#[derive(Clone, Copy, Debug)]
pub enum Agg {
    Count,
    Sum(usize),
    Max(usize),
}

fn logical(q: &Query) -> LogicalPlan {
    match q {
        Query::Scan(t) => LogicalPlan::scan(*t),
        Query::FilterLt(i, col, v) => logical(i).filter(Predicate::ColLt(*col, *v)),
        Query::FilterGt(i, col, v) => logical(i).filter(Predicate::ColGt(*col, *v)),
        Query::InnerJoin(l, r, n) => logical(l).join(logical(r), *n, JoinType::Inner),
        Query::GroupBy(i, n, aggs) => logical(i).group_by(
            *n,
            aggs.iter()
                .map(|a| match a {
                    Agg::Count => Aggregate::Count,
                    Agg::Sum(c) => Aggregate::Sum(*c),
                    Agg::Max(c) => Aggregate::Max(*c),
                })
                .collect(),
        ),
        Query::UnionAll(l, r) => logical(l).set_op(logical(r), SetOp::UnionAll),
    }
}

/// Planner + executor knobs.  `batch: None` is the row executor.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    pub dop: usize,
    pub batch: Option<usize>,
    /// Row floor above which operators go parallel.
    pub parallel_threshold: usize,
    /// Rows per blocking operator before it spills.
    pub memory_rows: usize,
}

impl Engine {
    /// `ForceSortBased`: every workload here is about the sort-based
    /// plans; the hash baseline is not what is being tracked.
    fn planner_config(self) -> PlannerConfig {
        let cfg = PlannerConfig::default()
            .with_preference(Preference::ForceSortBased)
            .with_dop(self.dop)
            .with_parallel_threshold(self.parallel_threshold)
            .with_memory_rows(self.memory_rows);
        match self.batch {
            Some(rows) => cfg.with_batch_size(rows),
            None => cfg,
        }
    }
}

/// Named tables.
#[derive(Clone, Default)]
pub struct Db(Catalog);

impl Db {
    pub fn new() -> Db {
        Db::default()
    }

    /// Store `table` sorted on the full row, codes derived once.
    pub fn add_sorted(&mut self, name: &str, table: &RawTable) {
        let rows = Rows::from_table(table).0;
        self.0.register(name, Table::sorted_from_unsorted(rows));
    }

    pub fn add_unsorted(&mut self, name: &str, table: &RawTable) {
        self.0
            .register(name, Table::unsorted(Rows::from_table(table).0));
    }
}

/// A physical plan, ready to execute any number of times.
pub struct Planned {
    plan: ovc_plan::PhysicalPlan,
    engine: Engine,
}

impl Planned {
    /// The rendered plan, kept in the trace file so a reader can see
    /// what actually ran (sorts elided, exchanges placed).
    pub fn explain(&self) -> String {
        self.plan.explain()
    }
}

/// `Planner::plan`.
pub fn plan(db: &Db, query: &Query, engine: Engine) -> Planned {
    let planner = Planner::new(&db.0, engine.planner_config());
    Planned {
        plan: planner
            .plan(&logical(query))
            .expect("benchmark query plans"),
        engine,
    }
}

/// A materialized ordered result.
pub struct ResultRows(Vec<ovc_core::OvcRow>);

impl ResultRows {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn pairs(&self) -> impl Iterator<Item = (&[u64], u64)> {
        self.0.iter().map(|r| (r.row.cols(), r.code.raw()))
    }

    pub fn digest(&self) -> Digest {
        digest_of(self.pairs())
    }

    pub fn coded(&self) -> Coded {
        flatten(self.pairs())
    }
}

/// `execute` + `Output::into_coded`: run the plan and drain it.
pub fn run(db: &Db, planned: &Planned, stats: &Counted) -> ResultRows {
    let options = ExecOptions {
        batch_size: planned.engine.batch,
        ..ExecOptions::default()
    };
    ResultRows(execute(&planned.plan, &db.0, &stats.0, &options).into_coded())
}

// ---------------------------------------------------------------------
// ovc-server
// ---------------------------------------------------------------------

/// An in-process server on an ephemeral port.
pub struct Served {
    pub addr: SocketAddr,
    handle: ovc_server::ServerHandle,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Rows per streamed `batch` frame.
pub const SERVER_BATCH_ROWS: usize = 1000;

/// Boot a server over `db`.  The rate limit is raised out of reach and
/// the session poll interval shortened so shutdown is prompt.
pub fn serve(db: Db, engine: Engine) -> Served {
    let config = ServerConfig {
        max_sessions: 64,
        batch_rows: SERVER_BATCH_ROWS,
        rate_limit: RateLimitConfig {
            per_second: 1e9,
            burst: 1e9,
        },
        planner: engine.planner_config(),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, db.0).expect("bind the server to an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    // ovc-lint: allow(contained-spawn) -- benchmark driver: a server panic must fail the run loudly at join, not be contained into a result
    let runner = std::thread::spawn(move || server.run());
    Served {
        addr,
        handle,
        runner,
    }
}

impl Served {
    /// Graceful shutdown; returns once every session thread has ended.
    pub fn stop(self) {
        self.handle.shutdown();
        self.runner
            .join()
            .expect("server thread panicked")
            .expect("server accept loop failed");
    }
}

/// `Client::query`: the repo's own client, used by the gate to tie the
/// wire answer to the library's.
pub fn client_query(addr: SocketAddr, body: &str) -> Result<Coded, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let r = client.query(body).map_err(|e| e.to_string())?;
    let mut out = Coded {
        codes: r.codes,
        ..Coded::default()
    };
    for row in &r.rows {
        out.width = row.len();
        out.values.extend_from_slice(row);
    }
    Ok(out)
}
