//! Machine-readable bench snapshots: `BENCH_<name>.json`.
//!
//! The figure binaries and benches print human-readable tables; CI and
//! regression tooling need the same numbers as data.  This module holds
//! the [`BenchSnapshot`] builder the binaries use and
//! [`validate_snapshot`] — the schema check CI runs against every
//! emitted file.  Writing and parsing are `ovc_json`'s.
//!
//! ## Snapshot schema (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "figures",
//!   "environment": {
//!     "available_parallelism": 1,
//!     "single_core": true,
//!     "debug_assertions": false,
//!     "rustc": "rustc 1.99.0 (...)",
//!     "os": "linux",
//!     "arch": "x86_64"
//!   },
//!   "entries": [
//!     { "group": "figure_6", "label": "sort_plan",
//!       "metrics": { "wall_ns": 12345.0, "rows_spilled": 2000.0 } }
//!   ]
//! }
//! ```
//!
//! Every metric is a JSON number (f64 — exact for the counter ranges
//! involved).  The `environment` stanza exists so a snapshot is
//! meaningless-proof: a single-core container or a debug build is
//! recorded in the file itself, not remembered out of band (this repo's
//! dev container has one core, where parallel sweeps measure overhead,
//! not speedup).

use std::time::Duration;

use ovc_json::Json;

/// The `environment` stanza: everything needed to judge whether two
/// snapshots are comparable.
#[derive(Clone, Debug)]
pub struct Environment {
    /// `std::thread::available_parallelism()` at snapshot time.
    pub available_parallelism: usize,
    /// `available_parallelism == 1` — parallel sweeps on such a host
    /// measure coordination overhead, not speedup.
    pub single_core: bool,
    /// Was the binary compiled with debug assertions (a debug profile)?
    pub debug_assertions: bool,
    /// `rustc --version` output, when the compiler is on `PATH`.
    pub rustc: Option<String>,
    /// Target OS.
    pub os: String,
    /// Target architecture.
    pub arch: String,
}

impl Environment {
    /// Probe the current process's environment.
    pub fn capture() -> Environment {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string());
        Environment {
            available_parallelism: parallelism,
            single_core: parallelism == 1,
            debug_assertions: cfg!(debug_assertions),
            rustc,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "available_parallelism".into(),
                Json::Num(self.available_parallelism as f64),
            ),
            ("single_core".into(), Json::Bool(self.single_core)),
            ("debug_assertions".into(), Json::Bool(self.debug_assertions)),
            (
                "rustc".into(),
                match &self.rustc {
                    Some(v) => Json::Str(v.clone()),
                    None => Json::Null,
                },
            ),
            ("os".into(), Json::Str(self.os.clone())),
            ("arch".into(), Json::Str(self.arch.clone())),
        ])
    }
}

/// One measured data point: a `(group, label)` name plus named metrics.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Which table/figure/sweep this point belongs to.
    pub group: String,
    /// The point within the group (parameter setting, plan name, …).
    pub label: String,
    /// Named measurements, insertion order preserved.
    pub metrics: Vec<(String, f64)>,
}

impl BenchEntry {
    /// An entry with no metrics yet.
    pub fn new(group: impl Into<String>, label: impl Into<String>) -> BenchEntry {
        BenchEntry {
            group: group.into(),
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Append a named metric.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> BenchEntry {
        self.metrics.push((name.into(), value));
        self
    }

    /// Append a wall time as `<name>_ns`.
    pub fn wall(self, name: &str, d: Duration) -> BenchEntry {
        self.metric(format!("{name}_ns"), d.as_nanos() as f64)
    }
}

/// Version stamped into every snapshot; bump when the shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A full `BENCH_<name>.json` document under construction.
#[derive(Clone, Debug)]
pub struct BenchSnapshot {
    /// Snapshot name (the `<name>` in the file name).
    pub name: String,
    /// Environment at capture time.
    pub environment: Environment,
    /// Measured points, in emission order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSnapshot {
    /// A snapshot named `name`, capturing the current environment.
    pub fn new(name: impl Into<String>) -> BenchSnapshot {
        BenchSnapshot {
            name: name.into(),
            environment: Environment::capture(),
            entries: Vec::new(),
        }
    }

    /// Record one entry.
    pub fn push(&mut self, entry: BenchEntry) {
        self.entries.push(entry);
    }

    /// The snapshot as a [`Json`] document (schema above).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("name".into(), Json::Str(self.name.clone())),
            ("environment".into(), self.environment.to_json()),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("group".into(), Json::Str(e.group.clone())),
                                ("label".into(), Json::Str(e.label.clone())),
                                (
                                    "metrics".into(),
                                    Json::Obj(
                                        e.metrics
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The file name this snapshot is written under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Write `BENCH_<name>.json` into `dir`, returning the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }
}

/// Validate a parsed snapshot document against the documented schema
/// (see the module docs).  Returns the first violation found.
pub fn validate_snapshot(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric `schema_version`")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("name")
        .and_then(Json::as_str)
        .ok_or("missing string `name`")?;
    let env = doc.get("environment").ok_or("missing `environment`")?;
    env.get("available_parallelism")
        .and_then(Json::as_num)
        .ok_or("environment: missing numeric `available_parallelism`")?;
    env.get("single_core")
        .and_then(Json::as_bool)
        .ok_or("environment: missing boolean `single_core`")?;
    env.get("debug_assertions")
        .and_then(Json::as_bool)
        .ok_or("environment: missing boolean `debug_assertions`")?;
    match env.get("rustc") {
        Some(Json::Str(_)) | Some(Json::Null) => {}
        _ => return Err("environment: `rustc` must be string or null".into()),
    }
    env.get("os")
        .and_then(Json::as_str)
        .ok_or("environment: missing string `os`")?;
    env.get("arch")
        .and_then(Json::as_str)
        .ok_or("environment: missing string `arch`")?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing array `entries`")?;
    for (i, entry) in entries.iter().enumerate() {
        entry
            .get("group")
            .and_then(Json::as_str)
            .ok_or(format!("entries[{i}]: missing string `group`"))?;
        entry
            .get("label")
            .and_then(Json::as_str)
            .ok_or(format!("entries[{i}]: missing string `label`"))?;
        match entry.get("metrics") {
            Some(Json::Obj(metrics)) => {
                for (k, v) in metrics {
                    if v.as_num().is_none() {
                        return Err(format!("entries[{i}]: metric `{k}` is not a number"));
                    }
                }
            }
            _ => return Err(format!("entries[{i}]: missing object `metrics`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let doc = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\\".into())),
            (
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)]),
            ),
            ("b".into(), Json::Bool(true)),
            ("n".into(), Json::Null),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(1234567.0).to_pretty(), "1234567\n");
        assert_eq!(Json::Num(0.5).to_pretty(), "0.5\n");
    }

    #[test]
    fn snapshot_emits_valid_schema() {
        let mut snap = BenchSnapshot::new("unit");
        snap.push(
            BenchEntry::new("g", "l")
                .metric("rows", 100.0)
                .wall("sort", Duration::from_micros(250)),
        );
        let text = snap.to_json().to_pretty();
        let parsed = Json::parse(&text).unwrap();
        validate_snapshot(&parsed).unwrap();
        assert_eq!(snap.file_name(), "BENCH_unit.json");
        let entry = &parsed.get("entries").unwrap().as_arr().unwrap()[0];
        let metrics = entry.get("metrics").unwrap();
        assert_eq!(metrics.get("rows").unwrap().as_num(), Some(100.0));
        assert_eq!(metrics.get("sort_ns").unwrap().as_num(), Some(250_000.0));
    }

    #[test]
    fn validation_pinpoints_violations() {
        let mut snap = BenchSnapshot::new("unit");
        snap.push(BenchEntry::new("g", "l"));
        let mut doc = snap.to_json();
        validate_snapshot(&doc).unwrap();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "environment");
        }
        let err = validate_snapshot(&doc).unwrap_err();
        assert!(err.contains("environment"), "{err}");
    }

    #[test]
    fn environment_capture_is_consistent() {
        let env = Environment::capture();
        assert_eq!(env.single_core, env.available_parallelism == 1);
        assert_eq!(env.debug_assertions, cfg!(debug_assertions));
        assert!(!env.os.is_empty());
        assert!(!env.arch.is_empty());
    }
}
