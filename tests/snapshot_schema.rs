//! Bench snapshots (`BENCH_<name>.json`) must stay parseable and
//! schema-conformant: CI runs the figures binary in `--quick` mode and
//! validates the emitted file with the same
//! [`ovc_bench::snapshot::validate_snapshot`] exercised here.

use ovc_bench::snapshot::{validate_snapshot, BenchEntry, BenchSnapshot, SCHEMA_VERSION};
use ovc_json::Json;

/// An emitted snapshot round-trips through the hand-rolled parser and
/// passes schema validation, with the environment stanza intact.
#[test]
fn emitted_snapshot_round_trips_and_validates() {
    let mut snap = BenchSnapshot::new("integration");
    snap.push(
        BenchEntry::new("figure_6", "sort_plan")
            .metric("result_rows", 8082.0)
            .metric("wall_ns", 9_900_000.0)
            .metric("rows_spilled", 38161.0),
    );
    snap.push(BenchEntry::new("figure_4", "ratio_10").metric("speedup", 2.5));

    let dir = std::env::temp_dir();
    let path = snap.write_to(&dir).expect("snapshot written");
    let text = std::fs::read_to_string(&path).expect("snapshot readable");
    let _ = std::fs::remove_file(&path);

    let doc = Json::parse(&text).expect("snapshot parses");
    validate_snapshot(&doc).expect("snapshot conforms to schema");

    assert_eq!(
        doc.get("schema_version").unwrap().as_num(),
        Some(SCHEMA_VERSION as f64)
    );
    assert_eq!(doc.get("name").unwrap().as_str(), Some("integration"));
    let env = doc.get("environment").expect("environment stanza");
    let cores = env
        .get("available_parallelism")
        .and_then(Json::as_num)
        .expect("parallelism recorded");
    assert!(cores >= 1.0);
    assert_eq!(
        env.get("single_core").and_then(Json::as_bool),
        Some(cores == 1.0),
        "single-core hosts must be flagged in the snapshot itself"
    );
    assert_eq!(
        env.get("debug_assertions").and_then(Json::as_bool),
        Some(cfg!(debug_assertions))
    );
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(
        entries[0]
            .get("metrics")
            .and_then(|m| m.get("rows_spilled"))
            .and_then(Json::as_num),
        Some(38161.0)
    );
}

/// Any `BENCH_*.json` checked into (or left in) the repository root
/// must conform — the guard that keeps committed seeds and CI artifacts
/// honest.
#[test]
fn any_repo_root_snapshots_conform() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        validate_snapshot(&doc).unwrap_or_else(|e| panic!("{name}: schema violation: {e}"));
    }
}
