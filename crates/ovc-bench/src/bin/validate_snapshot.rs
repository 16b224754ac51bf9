//! Validate `BENCH_<name>.json` files against the documented snapshot
//! schema (see `ovc_bench::snapshot`).  CI runs this on the snapshot
//! the `figures` binary emits.
//!
//! Usage: `cargo run -p ovc-bench --bin validate_snapshot -- FILE...`
//! Exits non-zero (with the first violation on stderr) on any failure.

use ovc_bench::snapshot::validate_snapshot;
use ovc_json::Json;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_snapshot FILE...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("read failed: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("parse failed: {e}")))
            .and_then(|doc| validate_snapshot(&doc).map_err(|e| format!("schema violation: {e}")));
        match verdict {
            Ok(()) => println!("{path}: OK"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
