//! # ovc-lint — workspace-native static analysis
//!
//! Mechanizes the repo-wide invariants that `clippy` cannot see (they
//! are conventions of *this* codebase, not of Rust): live-handle
//! `Stats` assertions, bounded channels with named capacities,
//! unwrap-free lib/bin code, panic-contained spawns, and audited
//! `Relaxed` orderings.  See [`rules::RULES`] for the list and
//! DESIGN.md §15 for each rule's motivating incident.
//!
//! The tool depends on no engine crate: a hand-rolled
//! comment/string/raw-string-aware lexer ([`lexer`]), brace-level scope
//! tracking ([`scope`]), a line-scoped rule engine ([`rules`]), and a
//! JSON report ([`report`]) in the `BENCH_*.json` snapshot style, built
//! on the std-only, dependency-free `ovc-json`.  No syn, no serde — the
//! linter must keep working when the code it lints does not.
//!
//! ```
//! use ovc_lint::{lint_source, Config};
//! let report = lint_source(
//!     "crates/x/src/lib.rs",
//!     "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u64>(); }",
//!     &Config::default(),
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "bounded-channels-only");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use config::Config;
pub use report::{validate_report, LintReport};
pub use rules::{lint_source, FileReport, Finding, Suppression};

use std::path::{Path, PathBuf};

/// Directories never walked: external code and build products.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".github"];

/// Walk `root` and lint every `.rs` file outside the skipped
/// directories (`vendor/`, `target/`, `.git/`, `.github/`).
/// Returns the full report with findings ordered by (file, line).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = LintReport {
        root: root.display().to_string(),
        files_scanned: 0,
        findings: Vec::new(),
        suppressions: Vec::new(),
    };
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = lint_source(&rel, &src, cfg);
        report.files_scanned += 1;
        report.findings.extend(file.findings);
        report.suppressions.extend(file.suppressions);
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
