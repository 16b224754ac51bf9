//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics.  `BENCHMARK.json`
//! at the repo root is generated from these tables
//! (`--print-benchmark-json`) and a test holds the two equal.

use std::fmt::Write as _;

use crate::json::quote;

/// How long one run measures, in seconds (also the default `--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "sort_spill",
        why: "400k-row external sort through a 25k-row budget onto CRC-framed spill files: larger than memory, so ovc-sort and ovc-storage do all the work and the planner, executors and server none",
    },
    WorkloadSpec {
        name: "pipeline_sorted",
        why: "sorted tables through filter, merge join and group-by with every sort elided, in memory: ovc-exec kernels and the ovc-plan batched executor do all the work, ovc-sort and ovc-storage none",
    },
    WorkloadSpec {
        name: "exchange_dop2",
        why: "UNION ALL of two sorted 100k-row tables at dop 2: no sort and a trivial kernel, so the split and gathering exchanges and their batch channels are the work",
    },
    WorkloadSpec {
        name: "served_small",
        why: "2 closed-loop clients, group-by over a 5k-row table with 16 result rows: per-request cost (HTTP, wire parse, planning, socket write pattern) dominates, the engine does under 1 ms",
    },
    WorkloadSpec {
        name: "served_stream",
        why: "2 closed-loop clients, filter returning about 50k rows as 2.3 MB of NDJSON batch frames: frame encoding and chunked writes dominate, per-request cost and engine work are small",
    },
    WorkloadSpec {
        name: "served_sort_group",
        why: "2 closed-loop clients, group-by over an unsorted 200k-row table: the whole stack on one request (HTTP, planner, run generation, merge, coded group-by), tiny result so streaming is bypassed",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "ttfr_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 41] = [
    layer("core.col_cmps_per_row", "count", "lower"),
    layer("core.code_cmps_per_row", "count", "lower"),
    layer("sort.run_gen_ms", "ms", "lower"),
    layer("sort.merge_ms", "ms", "lower"),
    layer("sort.runs", "count", "lower"),
    layer("sort.resident_ms", "ms", "lower"),
    layer("storage.write_raw_ms", "ms", "lower"),
    layer("storage.read_raw_ms", "ms", "lower"),
    layer("storage.write_prefix_ms", "ms", "lower"),
    layer("storage.read_prefix_ms", "ms", "lower"),
    layer("storage.encode_prefix_ms", "ms", "lower"),
    layer("storage.decode_prefix_ms", "ms", "lower"),
    layer("storage.file_io_ms", "ms", "lower"),
    layer("storage.raw_bytes_per_row", "bytes/row", "lower"),
    layer("storage.prefix_bytes_per_row", "bytes/row", "lower"),
    layer("storage.share_of_iter", "ratio", "lower"),
    layer("exec.filter_ns_per_row", "ns/row", "lower"),
    layer("exec.merge_join_ns_per_row", "ns/row", "lower"),
    layer("exec.group_ns_per_row", "ns/row", "lower"),
    layer("exec.exchange_overhead_ms", "ms", "lower"),
    layer("exec.union_all_serial_ms", "ms", "lower"),
    layer("plan.plan_us", "us", "lower"),
    layer("plan.scan_ms", "ms", "lower"),
    layer("plan.execute_batched_ms", "ms", "lower"),
    layer("plan.execute_row_ms", "ms", "lower"),
    layer("server.health_rtt_ms", "ms", "lower"),
    layer("server.explain_ms", "ms", "lower"),
    layer("server.library_execute_ms", "ms", "lower"),
    layer("server.stream_ms", "ms", "lower"),
    layer("server.stream_ns_per_row", "ns/row", "lower"),
    layer("server.ttfr_share", "ratio", "lower"),
    layer("server.batches_per_query", "count", "lower"),
    layer("server.rejected", "count", "lower"),
    layer("server.rows_streamed", "rows", "higher"),
    layer("server.wire_bytes_per_row", "bytes/row", "lower"),
    layer("bench.client_read_ms", "ms", "lower"),
    layer("bench.input_clone_ms", "ms", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.unattributed_pct", "%", "lower"),
    layer("bench.tail_percentile", "%", "higher"),
    layer("bench.latency_ms_tail", "ms", "lower"),
];

/// `BENCHMARK.json`, exactly as committed.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    for (i, c) in command.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}", quote(c));
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            quote(w.name),
            quote(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (unit, better) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
        {
            assert!(valid_unit(unit), "{unit}");
            assert!(matches!(better, "lower" | "higher"));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// What the harness emits = what `BENCHMARK.json` declares.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(&committed).expect("BENCHMARK.json parses");
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
    }
}
