//! Machine-readable lint reports: `LINT_ovc.json`.
//!
//! Same design as the `BENCH_*.json` snapshots in `ovc-bench::snapshot`:
//! the [`LintReport`] builder and [`validate_report`] — the schema check
//! CI runs against the emitted file — over the workspace's one JSON
//! layer, `ovc_json`.  That crate is std-only and depends on nothing, so
//! a broken engine crate still never takes the linter down with it.
//!
//! ## Report schema (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "ovc-lint",
//!   "root": "/path/to/workspace",
//!   "rules": [ { "id": "no-unwrap-expect", "description": "..." } ],
//!   "summary": { "files_scanned": 90, "findings": 0, "suppressions": 14 },
//!   "findings": [
//!     { "rule": "bounded-channels-only", "file": "crates/x/src/a.rs",
//!       "line": 12, "snippet": "let (tx, rx) = mpsc::channel();",
//!       "message": "unbounded mpsc::channel() ..." }
//!   ],
//!   "suppressions": [
//!     { "rules": ["relaxed-ordering-audit"], "file": "crates/x/src/b.rs",
//!       "line": 30, "reason": "monotonic cancel flag ..." }
//!   ]
//! }
//! ```

use ovc_json::Json;

use crate::rules::{Finding, Suppression, RULES};

/// Version stamped into every report; bump when the shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A full lint run, ready to serialize.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Workspace root the walk started from.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings, ordered by (file, line).
    pub findings: Vec<Finding>,
    /// Honored suppressions, ordered by (file, line).
    pub suppressions: Vec<Suppression>,
}

impl LintReport {
    /// The report as a [`Json`] document (schema in the module docs).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("name".into(), Json::Str("ovc-lint".into())),
            ("root".into(), Json::Str(self.root.clone())),
            (
                "rules".into(),
                Json::Arr(
                    RULES
                        .iter()
                        .map(|(id, desc)| {
                            Json::Obj(vec![
                                ("id".into(), Json::Str((*id).into())),
                                ("description".into(), Json::Str((*desc).into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("files_scanned".into(), Json::Num(self.files_scanned as f64)),
                    ("findings".into(), Json::Num(self.findings.len() as f64)),
                    (
                        "suppressions".into(),
                        Json::Num(self.suppressions.len() as f64),
                    ),
                ]),
            ),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("rule".into(), Json::Str(f.rule.into())),
                                ("file".into(), Json::Str(f.file.clone())),
                                ("line".into(), Json::Num(f.line as f64)),
                                ("snippet".into(), Json::Str(f.snippet.clone())),
                                ("message".into(), Json::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "suppressions".into(),
                Json::Arr(
                    self.suppressions
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                (
                                    "rules".into(),
                                    Json::Arr(
                                        s.rules.iter().map(|r| Json::Str(r.clone())).collect(),
                                    ),
                                ),
                                ("file".into(), Json::Str(s.file.clone())),
                                ("line".into(), Json::Num(s.line as f64)),
                                ("reason".into(), Json::Str(s.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Validate a parsed report against the documented schema.  Returns
/// the first violation found.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric `schema_version`")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    match doc.get("name").and_then(Json::as_str) {
        Some("ovc-lint") => {}
        _ => return Err("`name` must be \"ovc-lint\"".into()),
    }
    doc.get("root")
        .and_then(Json::as_str)
        .ok_or("missing string `root`")?;
    let rules = doc
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("missing array `rules`")?;
    let mut known: Vec<&str> = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let id = rule
            .get("id")
            .and_then(Json::as_str)
            .ok_or(format!("rules[{i}]: missing string `id`"))?;
        rule.get("description")
            .and_then(Json::as_str)
            .ok_or(format!("rules[{i}]: missing string `description`"))?;
        known.push(id);
    }
    let summary = doc.get("summary").ok_or("missing `summary`")?;
    for key in ["files_scanned", "findings", "suppressions"] {
        summary
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("summary: missing numeric `{key}`"))?;
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing array `findings`")?;
    if summary.get("findings").and_then(Json::as_num) != Some(findings.len() as f64) {
        return Err("summary.findings disagrees with the findings array".into());
    }
    for (i, f) in findings.iter().enumerate() {
        let rule = f
            .get("rule")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}]: missing string `rule`"))?;
        if !known.contains(&rule) {
            return Err(format!("findings[{i}]: unknown rule `{rule}`"));
        }
        f.get("file")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}]: missing string `file`"))?;
        f.get("line")
            .and_then(Json::as_num)
            .filter(|n| *n >= 1.0)
            .ok_or(format!("findings[{i}]: missing 1-based `line`"))?;
        f.get("snippet")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}]: missing string `snippet`"))?;
        f.get("message")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}]: missing string `message`"))?;
    }
    let sups = doc
        .get("suppressions")
        .and_then(Json::as_arr)
        .ok_or("missing array `suppressions`")?;
    if summary.get("suppressions").and_then(Json::as_num) != Some(sups.len() as f64) {
        return Err("summary.suppressions disagrees with the suppressions array".into());
    }
    for (i, s) in sups.iter().enumerate() {
        let rules = s
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or(format!("suppressions[{i}]: missing array `rules`"))?;
        for r in rules {
            let r = r
                .as_str()
                .ok_or(format!("suppressions[{i}]: non-string rule"))?;
            if !known.contains(&r) {
                return Err(format!("suppressions[{i}]: unknown rule `{r}`"));
            }
        }
        s.get("file")
            .and_then(Json::as_str)
            .ok_or(format!("suppressions[{i}]: missing string `file`"))?;
        s.get("line")
            .and_then(Json::as_num)
            .filter(|n| *n >= 1.0)
            .ok_or(format!("suppressions[{i}]: missing 1-based `line`"))?;
        let reason = s
            .get("reason")
            .and_then(Json::as_str)
            .ok_or(format!("suppressions[{i}]: missing string `reason`"))?;
        if reason.trim().is_empty() {
            return Err(format!("suppressions[{i}]: empty reason"));
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
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let text = doc.to_pretty();
        assert_eq!(Json::parse(&text).expect("round trip"), doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
    }
}
