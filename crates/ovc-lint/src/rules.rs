//! The five workspace invariants, mechanized, plus suppression
//! handling.
//!
//! Each rule exists because the repo has already paid for its absence
//! at least once (see DESIGN.md §15 for the incident log):
//!
//! * [`NO_VACUOUS_STATS`] — asserting on a `Stats` handle that was
//!   never threaded into an operator is vacuously true (the PR 5/PR 6
//!   bug class: the §4 comparison-accounting claims silently stop
//!   being checked).
//! * [`BOUNDED_CHANNELS_ONLY`] — an unbounded `mpsc::channel()` hides
//!   the §4.10 deadlock-by-memory shape; `sync_channel(0)` is a
//!   rendezvous that wedges fair-drain loops; literal capacities dodge
//!   the named-constant review point.
//! * [`NO_UNWRAP_EXPECT`] — a bare `.unwrap()` in lib/bin code is a
//!   containment hole in the PR 9 fault model; `.expect` must carry a
//!   message.
//! * [`CONTAINED_SPAWN`] — a raw `thread::spawn` whose closure does not
//!   run under `ctx::contain` turns a worker panic into a poisoned
//!   join instead of a typed `ExecError`.
//! * [`RELAXED_ORDERING_AUDIT`] — `Ordering::Relaxed` is correct for
//!   monotonic counters/gauges and nothing else; every other site
//!   needs a justification.
//!
//! Suppressions are inline comments, reason mandatory:
//!
//! ```text
//! // ovc-lint: allow(bounded-channels-only) -- split edge is bounded by X
//! ```
//!
//! A suppression on a comment-only line applies to the next code line;
//! on a code line it applies to that line.  A reason-less or malformed
//! suppression is itself a finding ([`SUPPRESSION_HYGIENE`]) and
//! suppresses nothing.

use crate::config::Config;
use crate::lexer::{find_word, LexLine};
use crate::scope::{contexts, fn_spans, statement, LineCtx};

/// Rule id: vacuous assertions on dead `Stats` handles.
pub const NO_VACUOUS_STATS: &str = "no-vacuous-stats";
/// Rule id: unbounded/rendezvous/unnamed-capacity channels.
pub const BOUNDED_CHANNELS_ONLY: &str = "bounded-channels-only";
/// Rule id: `.unwrap()` / message-less `.expect` in lib/bin code.
pub const NO_UNWRAP_EXPECT: &str = "no-unwrap-expect";
/// Rule id: `thread::spawn` outside the panic-containment wrappers.
pub const CONTAINED_SPAWN: &str = "contained-spawn";
/// Rule id: `Ordering::Relaxed` outside allowlisted counter files.
pub const RELAXED_ORDERING_AUDIT: &str = "relaxed-ordering-audit";
/// Rule id: malformed or reason-less suppression comments.
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";

/// Every rule with its one-line description (emitted into the report).
pub const RULES: &[(&str, &str)] = &[
    (
        NO_VACUOUS_STATS,
        "assert on a Stats handle that was never threaded into an operator (vacuously true; PR 5/6 bug class)",
    ),
    (
        BOUNDED_CHANNELS_ONLY,
        "mpsc::channel() and sync_channel(0) forbidden outside the allowlist; capacities must be named constants (the §4.10 deadlock rule)",
    ),
    (
        NO_UNWRAP_EXPECT,
        ".unwrap() forbidden in non-test lib/bin code; .expect requires a non-empty message (PR 9 containment)",
    ),
    (
        CONTAINED_SPAWN,
        "raw thread::spawn/scope.spawn must run its closure under ctx::contain or be joined through a panic-mapping join (PR 9 containment)",
    ),
    (
        RELAXED_ORDERING_AUDIT,
        "Ordering::Relaxed only at allowlisted gauge/counter sites; every other site needs a reasoned suppression",
    ),
    (
        SUPPRESSION_HYGIENE,
        "ovc-lint suppressions must parse and carry a reason (`-- why`)",
    ),
];

/// Is `rule` a known rule id (including the hygiene meta-rule)?
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// One honored (valid, reasoned) suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// The rule ids it silences.
    pub rules: Vec<String>,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line the suppression applies to.
    pub line: usize,
    /// The mandatory justification.
    pub reason: String,
}

/// Result of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings that survived suppression, ordered by line.
    pub findings: Vec<Finding>,
    /// Valid suppressions seen in the file.
    pub suppressions: Vec<Suppression>,
}

/// Lint one file's source text.  `path` should be repo-relative with
/// forward slashes; it decides tree-level test context (`tests/`,
/// `benches/`, `examples/` trees) and allowlist membership.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> FileReport {
    let lines = crate::lexer::lex(src);
    let ctx = contexts(&lines);
    let raw: Vec<&str> = src.lines().collect();
    let tree_test = in_test_tree(path);

    let mut report = FileReport::default();
    let (sups, mut hygiene) = collect_suppressions(path, &lines, &raw);
    report.findings.append(&mut hygiene);

    let mut raw_findings: Vec<Finding> = Vec::new();

    rule_vacuous_stats(path, &lines, &raw, &mut raw_findings);
    rule_bounded_channels(path, &lines, &ctx, tree_test, cfg, &mut raw_findings);
    rule_unwrap_expect(path, &lines, &ctx, tree_test, &mut raw_findings);
    rule_contained_spawn(path, &lines, &ctx, tree_test, cfg, &mut raw_findings);
    rule_relaxed_ordering(path, &lines, &ctx, tree_test, cfg, &mut raw_findings);

    for finding in raw_findings {
        let suppressed = sups
            .iter()
            .any(|s| s.line == finding.line && s.rules.iter().any(|r| r == finding.rule));
        if !suppressed {
            report.findings.push(finding);
        }
    }
    report.suppressions = sups;
    report
        .findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

/// Is `path` inside a tree that is test-context as a whole?
pub fn in_test_tree(path: &str) -> bool {
    path.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples"))
}

/// Parse every `ovc-lint:` comment.  Returns honored suppressions
/// (mapped to the line they cover) and hygiene findings for malformed
/// or reason-less ones.
fn collect_suppressions(
    path: &str,
    lines: &[LexLine],
    raw: &[&str],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for comment in &line.comments {
            // Anchored at the comment start so prose *about* the
            // syntax (docs, examples) is never parsed as a directive.
            let Some(body) = comment.trim_start().strip_prefix("ovc-lint:") else {
                continue;
            };
            let body = body.trim();
            let snippet = raw.get(i).map(|s| s.trim().to_string()).unwrap_or_default();
            match parse_suppression(body) {
                Err(why) => findings.push(Finding {
                    rule: SUPPRESSION_HYGIENE,
                    file: path.to_string(),
                    line: i + 1,
                    snippet,
                    message: why,
                }),
                Ok((rules, reason)) => {
                    // A suppression on a comment-only line covers the
                    // next line that has code.
                    let mut target = i;
                    while lines[target].code.trim().is_empty() && target + 1 < lines.len() {
                        target += 1;
                    }
                    sups.push(Suppression {
                        rules,
                        file: path.to_string(),
                        line: target + 1,
                        reason,
                    });
                }
            }
        }
    }
    (sups, findings)
}

/// Parse `allow(rule, rule) -- reason`.  The reason is mandatory.
fn parse_suppression(body: &str) -> Result<(Vec<String>, String), String> {
    let rest = body
        .strip_prefix("allow(")
        .ok_or("malformed suppression: expected `ovc-lint: allow(rule, ...) -- reason`")?;
    let close = rest
        .find(')')
        .ok_or("malformed suppression: missing `)` after rule list")?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("malformed suppression: empty rule list".into());
    }
    for r in &rules {
        if !known_rule(r) || r == SUPPRESSION_HYGIENE {
            return Err(format!("malformed suppression: unknown rule `{r}`"));
        }
    }
    let after = rest[close + 1..].trim();
    let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err("suppression without a reason: append `-- <why this site is exempt>`".into());
    }
    Ok((rules, reason.to_string()))
}

// ---------------------------------------------------------------------
// Rule 1: no-vacuous-stats
// ---------------------------------------------------------------------

const STATS_CTORS: &[&str] = &["Stats::default()", "Stats::new_shared()", "Stats::new()"];

/// Applies everywhere, tests included — the bug class lives in tests.
fn rule_vacuous_stats(path: &str, lines: &[LexLine], raw: &[&str], out: &mut Vec<Finding>) {
    for span in fn_spans(lines) {
        // Pass 1: collect bindings `let <ident> = ..Stats ctor..`.
        struct Binding {
            ident: String,
            ctor: &'static str,
            line: usize,
            live: bool,
            dead_asserts: Vec<usize>,
        }
        let mut bindings: Vec<Binding> = Vec::new();
        let span_end = span.end.min(lines.len() - 1);
        for (i, line) in lines.iter().enumerate().take(span_end + 1).skip(span.start) {
            let code = line.code.trim();
            let Some(ident) = let_ident(code) else {
                continue;
            };
            // The ctor must be what the binding *is* (modulo shared
            // wrappers), not an argument buried in an operator call:
            // `let op = BatchFilter::new(.., Stats::new_shared())` binds a
            // live operator, not a dead handle.
            let Some(eq) = code.find('=') else { continue };
            let mut rhs = code[eq + 1..].trim_start();
            loop {
                let mut stripped = false;
                for wrapper in [
                    "Arc::new(",
                    "Rc::new(",
                    "std::sync::Arc::new(",
                    "std::rc::Rc::new(",
                ] {
                    if let Some(rest) = rhs.strip_prefix(wrapper) {
                        rhs = rest.trim_start();
                        stripped = true;
                    }
                }
                if !stripped {
                    break;
                }
            }
            let Some(ctor) = STATS_CTORS.iter().find(|c| rhs.starts_with(*c)) else {
                continue;
            };
            bindings.push(Binding {
                ident,
                ctor,
                line: i,
                live: false,
                dead_asserts: Vec::new(),
            });
        }
        // Pass 2: classify every later use of each binding.
        for b in &mut bindings {
            'scan: for i in (b.line + 1)..=span.end.min(lines.len() - 1) {
                let code = &lines[i].code;
                for pos in find_word(code, &b.ident) {
                    // A fresh `let <ident>` shadows the binding; stop.
                    if let Some(shadow) = let_ident(code.trim()) {
                        if shadow == b.ident && code.trim().starts_with("let") {
                            break 'scan;
                        }
                    }
                    let before = code[..pos].chars().next_back();
                    let after = code[pos + b.ident.len()..].chars().next();
                    match (before, after) {
                        (Some('&'), _) => {
                            b.live = true; // threaded by reference
                        }
                        (_, Some('.')) => {
                            let (stmt, _, _) = statement(lines, i);
                            if stmt.contains("assert") {
                                b.dead_asserts.push(i);
                            } else {
                                b.live = true; // driver call off the assert path
                            }
                        }
                        _ => {
                            b.live = true; // moved / passed by value
                        }
                    }
                }
            }
        }
        // Pass 3: a dead binding asserted on is vacuous — unless the
        // same assert also reads a live handle (comparing measured
        // against a fresh baseline is legitimate).
        let live_idents: Vec<String> = bindings
            .iter()
            .filter(|b| b.live)
            .map(|b| b.ident.clone())
            .collect();
        for b in &bindings {
            if b.live {
                continue;
            }
            for &i in &b.dead_asserts {
                let (stmt, _, _) = statement(lines, i);
                if live_idents
                    .iter()
                    .any(|ident| !find_word(&stmt, ident).is_empty())
                {
                    continue;
                }
                out.push(Finding {
                    rule: NO_VACUOUS_STATS,
                    file: path.to_string(),
                    line: i + 1,
                    snippet: raw.get(i).map(|s| s.trim().to_string()).unwrap_or_default(),
                    message: format!(
                        "`{}` is created by `{}` on line {} and only ever read in \
                         assertions — the assert is vacuously true; thread the live \
                         handle into the operator under test",
                        b.ident,
                        b.ctor,
                        b.line + 1
                    ),
                });
                break; // one finding per dead binding is enough
            }
        }
    }
}

/// The identifier bound by a `let`/`let mut` statement, if the line is
/// one and binds a plain identifier.
fn let_ident(code: &str) -> Option<String> {
    let rest = code.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty()
        || !ident
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return None;
    }
    // Require `=` next (skipping an optional type ascription) so
    // patterns like `let (a, b) = ..` are skipped.
    let after = rest[ident.len()..].trim_start();
    if after.starts_with('=') || after.starts_with(':') {
        Some(ident)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Rule 2: bounded-channels-only
// ---------------------------------------------------------------------

fn rule_bounded_channels(
    path: &str,
    lines: &[LexLine],
    ctx: &[LineCtx],
    tree_test: bool,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if cfg.allows(&cfg.channel_allowed_files, path) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if tree_test || ctx[i].test {
            continue;
        }
        let code = &line.code;
        for pos in find_word(code, "channel") {
            let after = &code[pos + "channel".len()..];
            if !(after.starts_with('(') || after.starts_with("::<")) {
                continue;
            }
            // `.channel(` is the gauge accessor, `fn channel(` is its
            // definition — neither constructs an mpsc channel.
            let before = code[..pos].trim_end();
            if code[..pos].ends_with('.') || before.ends_with("fn") {
                continue;
            }
            out.push(Finding {
                rule: BOUNDED_CHANNELS_ONLY,
                file: path.to_string(),
                line: i + 1,
                snippet: code.trim().to_string(),
                message: "unbounded `mpsc::channel()` — use `sync_channel` with a named \
                          capacity constant so backpressure is explicit (§4.10 deadlock rule)"
                    .to_string(),
            });
        }
        for pos in find_word(code, "sync_channel") {
            let mut after = &code[pos + "sync_channel".len()..];
            if let Some(stripped) = after.strip_prefix("::<") {
                let Some(gt) = stripped.find('>') else {
                    continue;
                };
                after = &stripped[gt + 1..];
            }
            let Some(arg) = after.strip_prefix('(') else {
                continue;
            };
            let arg = arg.trim_start();
            let literal: String = arg
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '_')
                .collect();
            if literal.is_empty() {
                continue; // named constant or computed capacity — fine
            }
            let (message, snippet) = if literal.chars().all(|c| c == '0' || c == '_') {
                (
                    "`sync_channel(0)` is a rendezvous channel — it wedges fair-drain \
                     loops (§4.10); use a named non-zero capacity"
                        .to_string(),
                    code.trim().to_string(),
                )
            } else {
                (
                    format!(
                        "literal channel capacity `{literal}` — name it as a constant \
                         (e.g. DEFAULT_CHANNEL_CAPACITY) so the bound is reviewable"
                    ),
                    code.trim().to_string(),
                )
            };
            out.push(Finding {
                rule: BOUNDED_CHANNELS_ONLY,
                file: path.to_string(),
                line: i + 1,
                snippet,
                message,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: no-unwrap-expect
// ---------------------------------------------------------------------

fn rule_unwrap_expect(
    path: &str,
    lines: &[LexLine],
    ctx: &[LineCtx],
    tree_test: bool,
    out: &mut Vec<Finding>,
) {
    for (i, line) in lines.iter().enumerate() {
        if tree_test || ctx[i].test {
            continue;
        }
        let code = &line.code;
        let mut from = 0;
        while let Some(rel) = code[from..].find(".unwrap()") {
            let pos = from + rel;
            out.push(Finding {
                rule: NO_UNWRAP_EXPECT,
                file: path.to_string(),
                line: i + 1,
                snippet: code.trim().to_string(),
                message: "`.unwrap()` in lib/bin code is a containment hole (DESIGN.md \
                          §14) — propagate a typed error or use `.expect(\"why this \
                          cannot fail\")`"
                    .to_string(),
            });
            from = pos + ".unwrap()".len();
        }
        let mut from = 0;
        while let Some(rel) = code[from..].find(".expect(") {
            let pos = from + rel;
            from = pos + ".expect(".len();
            let mut arg = code[pos + ".expect(".len()..].trim_start().to_string();
            if arg.is_empty() {
                // Argument starts on a later line: join the statement.
                let (stmt, _, _) = statement(lines, i);
                if let Some(p) = stmt.find(".expect(") {
                    arg = stmt[p + ".expect(".len()..].trim_start().to_string();
                }
            }
            if arg.starts_with("\"\"") {
                out.push(Finding {
                    rule: NO_UNWRAP_EXPECT,
                    file: path.to_string(),
                    line: i + 1,
                    snippet: code.trim().to_string(),
                    message: "`.expect(\"\")` carries no message — say why this cannot \
                              fail, or propagate a typed error"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: contained-spawn
// ---------------------------------------------------------------------

fn rule_contained_spawn(
    path: &str,
    lines: &[LexLine],
    ctx: &[LineCtx],
    tree_test: bool,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if cfg.allows(&cfg.spawn_allowed_files, path) {
        return;
    }
    let spans = fn_spans(lines);
    for (i, line) in lines.iter().enumerate() {
        if tree_test || ctx[i].test {
            continue;
        }
        let code = &line.code;
        if !(code.contains("thread::spawn") || code.contains("scope.spawn")) {
            continue;
        }
        // Two containment shapes are accepted (DESIGN.md §14):
        // contain-at-spawn — `ctx::contain` in the closure's prologue
        // (the spawn line and the next five; real wrappers set up
        // locals before `contain`) — and contain-at-join — the
        // enclosing fn maps panic payloads to typed errors when it
        // joins (`join_all`).
        let contained = (i..lines.len().min(i + 6)).any(|j| lines[j].code.contains("contain("))
            || spans
                .iter()
                .filter(|s| s.start <= i && i <= s.end)
                .any(|s| {
                    lines[s.start..=s.end]
                        .iter()
                        .any(|l| l.code.contains("join_all("))
                });
        if !contained {
            out.push(Finding {
                rule: CONTAINED_SPAWN,
                file: path.to_string(),
                line: i + 1,
                snippet: code.trim().to_string(),
                message: "raw spawn without `ctx::contain` — a worker panic here \
                          becomes a poisoned join instead of a typed ExecError \
                          (DESIGN.md §14); wrap the closure body in `ctx::contain`"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: relaxed-ordering-audit
// ---------------------------------------------------------------------

fn rule_relaxed_ordering(
    path: &str,
    lines: &[LexLine],
    ctx: &[LineCtx],
    tree_test: bool,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if cfg.allows(&cfg.relaxed_allowed_files, path) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if tree_test || ctx[i].test {
            continue;
        }
        if find_word(&line.code, "Relaxed").is_empty() {
            continue;
        }
        out.push(Finding {
            rule: RELAXED_ORDERING_AUDIT,
            file: path.to_string(),
            line: i + 1,
            snippet: line.code.trim().to_string(),
            message: "`Ordering::Relaxed` outside the allowlisted gauge/counter files — \
                      justify the site with a reasoned suppression or use a stronger \
                      ordering"
                .to_string(),
        });
    }
}
