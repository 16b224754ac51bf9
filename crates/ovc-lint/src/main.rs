//! The `ovc-lint` binary: walk the workspace, enforce the five
//! invariants, emit a machine-readable report.
//!
//! ```text
//! cargo run -p ovc-lint --                  # report, always exit 0
//! cargo run -p ovc-lint -- --deny           # CI mode: exit 1 on findings
//! cargo run -p ovc-lint -- --json LINT_ovc.json
//! cargo run -p ovc-lint -- --validate LINT_ovc.json
//! cargo run -p ovc-lint -- --list-rules
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ovc_json::Json;
use ovc_lint::report::validate_report;
use ovc_lint::rules::RULES;
use ovc_lint::{lint_workspace, Config};

fn main() -> ExitCode {
    let mut deny = false;
    let mut quiet = false;
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut validate: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--quiet" => quiet = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a path"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--validate" => match args.next() {
                Some(v) => validate = Some(PathBuf::from(v)),
                None => return usage("--validate needs a path"),
            },
            "--list-rules" => {
                for (id, desc) in RULES {
                    println!("{id}\n    {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Validation mode: parse + schema-check an emitted report and exit.
    if let Some(path) = validate {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("ovc-lint: cannot read {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match Json::parse(&text).and_then(|doc| validate_report(&doc)) {
            Ok(()) => {
                println!("ovc-lint: {} conforms to schema", path.display());
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("ovc-lint: {} invalid: {why}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let report = match lint_workspace(&root, &Config::default()) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("ovc-lint: walk failed under {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if !quiet {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            println!("    {}", f.snippet);
        }
        println!(
            "ovc-lint: {} files, {} findings, {} suppressions",
            report.files_scanned,
            report.findings.len(),
            report.suppressions.len()
        );
    }

    if let Some(path) = json_out {
        let text = report.to_json().to_pretty();
        if let Err(err) = std::fs::write(&path, text) {
            eprintln!("ovc-lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!("ovc-lint: wrote {}", path.display());
        }
    }

    if deny && !report.findings.is_empty() {
        eprintln!(
            "ovc-lint: --deny: {} finding(s) — fix them or add a reasoned \
             `// ovc-lint: allow(rule) -- why` suppression",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("ovc-lint: {err}");
    }
    eprintln!(
        "usage: ovc-lint [--root PATH] [--deny] [--quiet] [--json PATH] \
         [--validate PATH] [--list-rules]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
