//! The three library workloads: the engine called in-process.

use std::time::{Duration, Instant};

use crate::api::{
    self, Agg, Counted, Db, Device, Digest, Engine, Planned, Query, Rows, SortParams,
};
use crate::gen::{self, Scale};
use crate::reference;
use crate::stats::{median, ms, Op};
use crate::trace::Trace;
use crate::workload::{
    paired_diff, timed, timed_loop, traced_passes, Gate, Layers, Measured, Notes, TracedOps,
    Workload, WARMUP_OPS,
};

/// Rows per flat batch on the batched executor.
pub const BATCH_ROWS: usize = 1024;
/// Memory budget, in rows, of every blocking operator and of the
/// `sort_spill` sort: a sixteenth of that workload's input.
pub const MEMORY_ROWS: usize = gen::SORT_SPILL_ROWS / gen::SORT_SPILL_RUNS;

fn box_q(q: Query) -> Box<Query> {
    Box::new(q)
}

/// A reject-all filter on top of `q`: the plan runs in full but
/// returns no rows, so a prefix plan's time holds no result
/// materialization and consecutive prefixes can be subtracted.
/// (Generated values and aggregates stay far below 2^53, the largest
/// integer the wire protocol carries exactly.)
pub fn capped(q: Query) -> Query {
    Query::FilterGt(box_q(q), 0, 1 << 53)
}

/// Comparison counts per input row of one call.
fn count_layers(layers: &mut Layers, counted: &Counted, rows: usize) {
    let c = counted.read();
    layers.insert("core.col_cmps_per_row", c.col_cmps as f64 / rows as f64);
    layers.insert("core.code_cmps_per_row", c.code_cmps as f64 / rows as f64);
}

/// The planner probes every planned workload reports: planning time,
/// the table scans alone, and the whole plan on each executor.
pub struct PlanProbes {
    scans: Option<Planned>,
    row_plan: Planned,
}

impl PlanProbes {
    /// `scan_tables`: the query's sorted base tables, scanned under a
    /// reject-all cap at dop 1.  (An unsorted table has no coded scan
    /// to drain through `into_coded`; pass none and `plan.scan_ms`
    /// stays 0.)
    pub fn new(
        db: &Db,
        query: &Query,
        scan_tables: &[&'static str],
        engine: Engine,
        notes: &mut Notes,
    ) -> Self {
        let scans = scan_tables
            .iter()
            .map(|t| capped(Query::Scan(t)))
            .reduce(|all, one| Query::UnionAll(box_q(all), box_q(one)))
            .map(|q| api::plan(db, &q, Engine { dop: 1, ..engine }));
        if let Some(scans) = &scans {
            notes.push(("plan.scan".into(), scans.explain()));
        }
        let row_engine = Engine {
            batch: None,
            ..engine
        };
        PlanProbes {
            scans,
            row_plan: api::plan(db, query, row_engine),
        }
    }

    /// One pass: `plan.plan`, `plan.scan`, `plan.execute_row` spans.
    pub fn pass(&self, db: &Db, query: &Query, engine: Engine, t: &mut Trace, op: u64) {
        let (_, _, s, e) = timed(|| api::plan(db, query, engine));
        t.record("plan.plan", None, op, s, e, 0, 0);
        if let Some(scans) = &self.scans {
            let (_, _, s, e) = timed(|| api::run(db, scans, &Counted::new()));
            t.record("plan.scan", None, op, s, e, 0, 0);
        }
        let (out, _, s, e) = timed(|| api::run(db, &self.row_plan, &Counted::new()));
        t.record("plan.execute_row", None, op, s, e, out.len() as u64, 0);
    }

    pub fn layers(t: &Trace, layers: &mut Layers) {
        layers.insert("plan.plan_us", median(&t.self_ms("plan.plan")) * 1e3);
        layers.insert("plan.scan_ms", median(&t.self_ms("plan.scan")));
        layers.insert(
            "plan.execute_row_ms",
            median(&t.self_ms("plan.execute_row")),
        );
    }
}

/// A planned query run in-process: plan, execute, drain, check.
struct PlannedOp {
    db: Db,
    query: Query,
    engine: Engine,
    want: Digest,
}

impl PlannedOp {
    /// The op and its gate answer: the result under `engine`, whose
    /// digest every later operation must reproduce.
    fn new(db: Db, query: Query, engine: Engine) -> (PlannedOp, api::Coded) {
        let mut op = PlannedOp {
            db,
            query,
            engine,
            want: Digest { rows: 0, hash: 0 },
        };
        let answer = op.coded(engine);
        op.want = answer.digest();
        (op, answer)
    }

    /// One timed operation; with a trace, also its `query` span and the
    /// `query.plan` / `query.execute` children.
    fn op(&self, traced: Option<(&mut Trace, u64)>) -> (Op, bool) {
        let start = Instant::now();
        let planned = api::plan(&self.db, &self.query, self.engine);
        let mid = Instant::now();
        let out = api::run(&self.db, &planned, &Counted::new());
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        if let Some((t, id)) = traced {
            let q = t.record("query", None, id, start, end, out.len() as u64, 0);
            t.record("query.plan", Some(q), id, start, mid, 0, 0);
            t.record("query.execute", Some(q), id, mid, end, out.len() as u64, 0);
        }
        (
            Op {
                total_ns: ns,
                first_row_ns: ns,
            },
            out.digest() == self.want,
        )
    }

    fn coded(&self, engine: Engine) -> api::Coded {
        api::run(
            &self.db,
            &api::plan(&self.db, &self.query, engine),
            &Counted::new(),
        )
        .coded()
    }

    /// The layers both planned library workloads close with; `whole` is
    /// the span whose time the differenced layers add up to.
    fn closing_layers(t: &Trace, layers: &mut Layers, untraced: &Measured, whole: &str) {
        PlanProbes::layers(t, layers);
        let iter_ms = median(&ms(&untraced.ops, |o| o.total_ns));
        layers.insert(
            "plan.execute_batched_ms",
            median(&t.self_ms("query.execute")),
        );
        layers.insert(
            "bench.unattributed_pct",
            (iter_ms - median(&t.self_ms(whole))) / iter_ms * 100.0,
        );
    }
}

// ---------------------------------------------------------------------
// sort_spill
// ---------------------------------------------------------------------

pub struct SortSpill {
    input: Rows,
    params: SortParams,
    want: Digest,
}

impl SortSpill {
    /// One timed sort; the input copy and the check stay untimed.
    fn op(&self) -> (Op, bool) {
        let input = self.input.clone();
        let (run, op, _, _) =
            timed(|| api::external_sort(input, self.params, Device::FileRaw, &Counted::new()));
        (op, run.digest() == self.want)
    }
}

impl Workload for SortSpill {
    fn setup(seed: u64, scale: Scale, gate: &mut Gate) -> Self {
        let table = gen::sort_spill_input(seed, scale);
        let params = SortParams {
            key_len: gen::SORT_SPILL_KEY_COLS,
            memory_rows: table.rows() / gen::SORT_SPILL_RUNS,
            fan_in: 128,
        };
        let input = Rows::from_table(&table);
        let resident =
            api::external_sort(input.clone(), params, Device::Memory, &Counted::new()).coded();
        let counted = Counted::new();
        let spilled = api::external_sort(input.clone(), params, Device::FileRaw, &counted);
        gate.same(
            "sort_spill: file spill vs memory spill",
            &spilled.coded(),
            &resident,
        );
        let k = params.key_len;
        let rows: Vec<&[u64]> = resident.iter().collect();
        gate.check(
            rows.len() == table.rows() && rows.windows(2).all(|w| w[0][..k] <= w[1][..k]),
            || "sort_spill: output is not the input sorted".into(),
        );
        gate.check(counted.read().rows_spilled == table.rows() as u64, || {
            "sort_spill: each row must spill exactly once".into()
        });
        let w = SortSpill {
            input,
            params,
            want: spilled.digest(),
        };
        for _ in 0..WARMUP_OPS {
            w.op();
        }
        w
    }

    fn unit_rows(&self) -> u64 {
        self.input.len() as u64
    }

    fn measure(&mut self, budget: Duration) -> Measured {
        timed_loop(budget, || self.op())
    }

    fn trace(
        &mut self,
        budget: Duration,
        t: &mut Trace,
        layers: &mut Layers,
        _notes: &mut Notes,
        gate: &mut Gate,
    ) -> TracedOps {
        let rows = self.input.len();
        let mut bytes_per_row = [0.0; 2];
        let pass = |id: u64| {
            // The same call again, with its spans.
            let iter = t.open("iteration", None, id);
            let (input, _, s, e) = timed(|| self.input.clone());
            t.record("bench.input_clone", Some(iter), id, s, e, rows as u64, 0);
            let counted = Counted::new();
            let (run, traced_op, s, e) =
                timed(|| api::external_sort(input, self.params, Device::FileRaw, &counted));
            let spilled = counted.read().bytes_spilled;
            t.record("sort.external", Some(iter), id, s, e, rows as u64, spilled);
            t.close(iter, rows as u64, spilled);
            let traced_ok = run.digest() == self.want;
            if id == 1 {
                count_layers(layers, &counted, rows);
            }

            // The sort taken apart: run generation, each device's
            // write_run/read_run, the final merge.  A round trip hands
            // back the runs it was given, so the devices chain.
            let parts = t.open("decomposed", None, id);
            let counted = Counted::new();
            let input = self.input.clone();
            let (mut runs, _, s, e) = timed(|| api::generate_runs(input, self.params, &counted));
            t.record("sort.run_gen", Some(parts), id, s, e, rows as u64, 0);
            layers.insert("sort.runs", runs.len() as f64);
            for (i, (device, write, read)) in [
                (Device::FileRaw, "storage.write_raw", "storage.read_raw"),
                (
                    Device::FilePrefix,
                    "storage.write_prefix",
                    "storage.read_prefix",
                ),
                (
                    Device::Encoded,
                    "storage.encode_prefix",
                    "storage.decode_prefix",
                ),
            ]
            .into_iter()
            .enumerate()
            {
                let before = counted.read().bytes_spilled;
                runs = api::spill_round_trip(runs, device, &counted, &mut |is_write, s, e, n| {
                    let name = if is_write { write } else { read };
                    t.record(name, Some(parts), id, s, e, n as u64, 0);
                });
                if i < 2 {
                    bytes_per_row[i] = (counted.read().bytes_spilled - before) as f64 / rows as f64;
                }
            }
            let (merged, _, s, e) = timed(|| api::merge_runs(runs, self.params, &counted));
            t.record("sort.merge", Some(parts), id, s, e, rows as u64, 0);
            t.close(parts, rows as u64, 0);
            gate.check(merged.digest() == self.want, || {
                "sort_spill: decomposed sort differs".into()
            });

            let input = self.input.clone();
            let (_, _, s, e) =
                timed(|| api::external_sort(input, self.params, Device::Memory, &Counted::new()));
            t.record("sort.resident", None, id, s, e, rows as u64, 0);
            (traced_op, traced_ok)
        };
        let ops = traced_passes(budget, || self.op(), pass);

        let iter_ms = median(&ms(&ops.untraced.ops, |o| o.total_ns));
        let total = |name: &str| median(&t.self_ms_per_op(name));
        let resident = total("sort.resident");
        for (layer, span) in [
            ("sort.run_gen_ms", "sort.run_gen"),
            ("sort.merge_ms", "sort.merge"),
            ("storage.write_raw_ms", "storage.write_raw"),
            ("storage.read_raw_ms", "storage.read_raw"),
            ("storage.write_prefix_ms", "storage.write_prefix"),
            ("storage.read_prefix_ms", "storage.read_prefix"),
            ("storage.encode_prefix_ms", "storage.encode_prefix"),
            ("storage.decode_prefix_ms", "storage.decode_prefix"),
            ("bench.input_clone_ms", "bench.input_clone"),
        ] {
            layers.insert(layer, total(span));
        }
        layers.insert("sort.resident_ms", resident);
        layers.insert(
            "storage.file_io_ms",
            total("storage.write_prefix") + total("storage.read_prefix")
                - total("storage.encode_prefix")
                - total("storage.decode_prefix"),
        );
        layers.insert("storage.raw_bytes_per_row", bytes_per_row[0]);
        layers.insert("storage.prefix_bytes_per_row", bytes_per_row[1]);
        layers.insert("storage.share_of_iter", (iter_ms - resident) / iter_ms);
        let attributed = total("sort.run_gen")
            + total("storage.write_raw")
            + total("storage.read_raw")
            + total("sort.merge");
        layers.insert(
            "bench.unattributed_pct",
            (iter_ms - attributed) / iter_ms * 100.0,
        );
        ops
    }
}

// ---------------------------------------------------------------------
// pipeline_sorted
// ---------------------------------------------------------------------

pub struct PipelineSorted {
    inner: PlannedOp,
    fact_rows: usize,
    filtered_rows: usize,
}

fn pipeline_prefixes() -> [Query; 4] {
    let scan = Query::Scan("fact");
    let filter = Query::FilterLt(box_q(scan.clone()), 2, gen::PIPELINE_FILTER_BELOW);
    let join = Query::InnerJoin(box_q(filter.clone()), box_q(Query::Scan("dim")), 2);
    // Join output: the fact columns, then the dimension's payload.
    let group = Query::GroupBy(box_q(join.clone()), 2, vec![Agg::Count, Agg::Sum(4)]);
    [scan, filter, join, group]
}

impl Workload for PipelineSorted {
    fn setup(seed: u64, scale: Scale, gate: &mut Gate) -> Self {
        let (fact, dim) = gen::pipeline_tables(seed, scale);
        let mut db = Db::new();
        db.add_sorted("fact", &fact);
        db.add_sorted("dim", &dim);
        let engine = Engine {
            dop: 1,
            batch: Some(BATCH_ROWS),
            parallel_threshold: usize::MAX,
            memory_rows: MEMORY_ROWS,
        };
        let [.., query] = pipeline_prefixes();
        let (inner, batched) = PlannedOp::new(db, query, engine);
        let row = inner.coded(Engine {
            batch: None,
            ..engine
        });
        gate.same("pipeline_sorted: batched vs row executor", &batched, &row);
        let want = reference::pipeline(&fact, &dim, gen::PIPELINE_FILTER_BELOW);
        gate.matches_reference("pipeline_sorted", &batched, &want);
        for _ in 0..WARMUP_OPS {
            inner.op(None);
        }
        PipelineSorted {
            inner,
            fact_rows: fact.rows(),
            filtered_rows: fact
                .iter()
                .filter(|r| r[2] < gen::PIPELINE_FILTER_BELOW)
                .count(),
        }
    }

    fn unit_rows(&self) -> u64 {
        self.fact_rows as u64
    }

    fn measure(&mut self, budget: Duration) -> Measured {
        timed_loop(budget, || self.inner.op(None))
    }

    fn trace(
        &mut self,
        budget: Duration,
        t: &mut Trace,
        layers: &mut Layers,
        notes: &mut Notes,
        _gate: &mut Gate,
    ) -> TracedOps {
        let PlannedOp {
            db, query, engine, ..
        } = &self.inner;
        let probes = PlanProbes::new(db, query, &["fact"], *engine, notes);
        // Prefix plans under the reject-all cap; the whole plan is the
        // last prefix, drained for real (its result is 1 600 rows).
        let [scan, filter, join, group] = pipeline_prefixes();
        let prefixes = [
            ("prefix.scan", api::plan(db, &capped(scan), *engine)),
            ("prefix.filter", api::plan(db, &capped(filter), *engine)),
            ("prefix.join", api::plan(db, &capped(join), *engine)),
            ("prefix.group", api::plan(db, &group, *engine)),
        ];
        for (name, planned) in &prefixes {
            notes.push(((*name).into(), planned.explain()));
        }
        let pass = |id: u64| {
            let traced = self.inner.op(Some((t, id)));
            for (name, planned) in &prefixes {
                let counted = Counted::new();
                let (out, _, s, e) = timed(|| api::run(db, planned, &counted));
                t.record(name, None, id, s, e, out.len() as u64, 0);
                if id == 1 && *name == "prefix.group" {
                    count_layers(layers, &counted, self.fact_rows);
                }
            }
            probes.pass(db, query, *engine, t, id);
            traced
        };
        let ops = traced_passes(budget, || self.inner.op(None), pass);
        PlannedOp::closing_layers(t, layers, &ops.untraced, "prefix.group");
        let by = |name: &str| t.self_ms_per_op(name);
        // ms per pass -> ns per input row of the operator.
        let per_row = |upper: &str, lower: &str, rows: usize| {
            paired_diff(&by(upper), &by(lower)) * 1e6 / rows as f64
        };
        layers.insert(
            "exec.filter_ns_per_row",
            per_row("prefix.filter", "prefix.scan", self.fact_rows),
        );
        layers.insert(
            "exec.merge_join_ns_per_row",
            per_row("prefix.join", "prefix.filter", self.filtered_rows),
        );
        // The dimension holds every key pair once: join output = input.
        layers.insert(
            "exec.group_ns_per_row",
            per_row("prefix.group", "prefix.join", self.filtered_rows),
        );
        ops
    }
}

// ---------------------------------------------------------------------
// exchange_dop2
// ---------------------------------------------------------------------

pub struct ExchangeDop2 {
    inner: PlannedOp,
    rows: usize,
}

impl Workload for ExchangeDop2 {
    fn setup(seed: u64, scale: Scale, gate: &mut Gate) -> Self {
        let (left, right) = gen::exchange_tables(seed, scale);
        let mut db = Db::new();
        db.add_sorted("left", &left);
        db.add_sorted("right", &right);
        let engine = Engine {
            dop: 2,
            batch: Some(BATCH_ROWS),
            parallel_threshold: 1,
            memory_rows: MEMORY_ROWS,
        };
        let query = Query::UnionAll(box_q(Query::Scan("left")), box_q(Query::Scan("right")));
        let (inner, parallel) = PlannedOp::new(db, query, engine);
        gate.same(
            "exchange_dop2: batched vs row executor",
            &parallel,
            &inner.coded(Engine {
                batch: None,
                ..engine
            }),
        );
        gate.same(
            "exchange_dop2: dop 2 vs dop 1",
            &parallel,
            &inner.coded(Engine { dop: 1, ..engine }),
        );
        gate.matches_reference(
            "exchange_dop2",
            &parallel,
            &reference::union_all(&left, &right),
        );
        for _ in 0..WARMUP_OPS {
            inner.op(None);
        }
        ExchangeDop2 {
            inner,
            rows: left.rows() + right.rows(),
        }
    }

    fn unit_rows(&self) -> u64 {
        self.rows as u64
    }

    fn measure(&mut self, budget: Duration) -> Measured {
        timed_loop(budget, || self.inner.op(None))
    }

    fn trace(
        &mut self,
        budget: Duration,
        t: &mut Trace,
        layers: &mut Layers,
        notes: &mut Notes,
        gate: &mut Gate,
    ) -> TracedOps {
        let PlannedOp {
            db,
            query,
            engine,
            want,
        } = &self.inner;
        let probes = PlanProbes::new(db, query, &["left", "right"], *engine, notes);
        let parallel = api::plan(db, query, *engine);
        let serial = api::plan(db, query, Engine { dop: 1, ..*engine });
        notes.push(("exchange.dop2".into(), parallel.explain()));
        notes.push(("exchange.dop1".into(), serial.explain()));
        let pass = |id: u64| {
            let traced = self.inner.op(Some((t, id)));
            let counted = Counted::new();
            let (out, _, s, e) = timed(|| api::run(db, &parallel, &counted));
            t.record("exchange.dop2", None, id, s, e, out.len() as u64, 0);
            if id == 1 {
                count_layers(layers, &counted, self.rows);
            }
            let (out, _, s, e) = timed(|| api::run(db, &serial, &Counted::new()));
            t.record("exchange.dop1", None, id, s, e, out.len() as u64, 0);
            gate.check(out.digest() == *want, || {
                "exchange_dop2: dop 1 differs".into()
            });
            probes.pass(db, query, *engine, t, id);
            traced
        };
        let ops = traced_passes(budget, || self.inner.op(None), pass);
        PlannedOp::closing_layers(t, layers, &ops.untraced, "exchange.dop2");
        let by = |name: &str| t.self_ms_per_op(name);
        layers.insert(
            "exec.exchange_overhead_ms",
            paired_diff(&by("exchange.dop2"), &by("exchange.dop1")),
        );
        layers.insert("exec.union_all_serial_ms", median(&by("exchange.dop1")));
        ops
    }
}
