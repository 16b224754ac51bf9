//! Conformance suite for `ovc-lint`: for every rule a true positive,
//! a true negative, a suppressed-with-reason case, and a
//! suppression-without-reason rejection — plus the JSON report
//! round-trip and a run over the real workspace asserting zero
//! findings.
//!
//! The true-positive fixtures are not synthetic: each reproduces a
//! violation that was live in this repo at some point (the PR 5/6
//! vacuous `Stats` asserts, the pre-PR 10 uncontained server session
//! spawn, the `mpsc::channel()` split edge in the batch executor), so
//! the suite doubles as a regression log of the incidents the rules
//! mechanize.

use ovc_json::Json;
use ovc_lint::report::{validate_report, SCHEMA_VERSION};
use ovc_lint::rules::{
    BOUNDED_CHANNELS_ONLY, CONTAINED_SPAWN, NO_UNWRAP_EXPECT, NO_VACUOUS_STATS,
    RELAXED_ORDERING_AUDIT, SUPPRESSION_HYGIENE,
};
use ovc_lint::{lint_source, lint_workspace, Config, FileReport};

/// Lint a fixture under a non-test lib path (all five rules active).
fn lint(src: &str) -> FileReport {
    lint_source("crates/fixture/src/lib.rs", src, &Config::default())
}

fn rules_of(report: &FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------
// Rule 1: no-vacuous-stats
// ---------------------------------------------------------------------

/// The PR 5/6 bug class verbatim: a `Stats` handle created fresh,
/// never threaded into an operator, then asserted on.  The assert is
/// vacuously true and the §4 comparison-accounting claim it was meant
/// to check silently stops being checked.
#[test]
fn vacuous_stats_true_positive() {
    let r = lint(
        r#"
fn check_comparisons() {
    let stats = Stats::new_shared();
    let run = sort_rows(input);
    assert!(stats.snapshot().comparisons > 0);
}
"#,
    );
    assert_eq!(rules_of(&r), vec![NO_VACUOUS_STATS]);
    assert_eq!(r.findings[0].line, 5);
    assert!(r.findings[0].message.contains("vacuously true"));
    assert!(r.findings[0].message.contains("Stats::new_shared()"));
}

/// Rule 1 is the one rule that applies inside test code too — that is
/// where the bug class lives (both historic incidents were in
/// `#[cfg(test)]` modules).
#[test]
fn vacuous_stats_applies_in_tests() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn counts_comparisons() {
        let stats = Stats::default();
        let sorted = sort(rows);
        assert!(stats.comparisons() > 0);
    }
}
"#;
    let r = lint(src);
    assert_eq!(rules_of(&r), vec![NO_VACUOUS_STATS]);
    // Same fixture under a tests/ tree path: still flagged.
    let r = lint_source("crates/fixture/tests/it.rs", src, &Config::default());
    assert_eq!(rules_of(&r), vec![NO_VACUOUS_STATS]);
}

/// Threading the handle into the operator (by reference or by value)
/// makes it live; the assert is then meaningful.
#[test]
fn vacuous_stats_true_negative_threaded() {
    let r = lint(
        r#"
fn check_by_ref() {
    let stats = Stats::new_shared();
    let sorted = sort_with_stats(rows, &stats);
    assert!(stats.snapshot().comparisons > 0);
}
fn check_by_value() {
    let stats = Stats::new_shared();
    let op = BatchFilter::new(input, pred, stats);
    assert!(op.next_batch().is_some());
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// The false-positive shape rule 1 must NOT flag: the ctor appears as
/// an *argument* to an operator constructor, so the binding is a live
/// operator, not a dead handle (`drop_all_is_empty` in
/// `crates/ovc-exec/src/filter.rs` has exactly this shape).
#[test]
fn vacuous_stats_true_negative_ctor_as_argument() {
    let r = lint(
        r#"
fn empty_filter_yields_nothing() {
    let filter = BatchFilter::new(input, |_| false, Stats::new_shared());
    assert!(filter.next_batch().is_none());
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// Comparing a measured handle against a fresh baseline in the same
/// assert is legitimate: the dead binding is the *expected* side.
#[test]
fn vacuous_stats_true_negative_fresh_baseline() {
    let r = lint(
        r#"
fn unchanged_against_baseline() {
    let baseline = Stats::default();
    let stats = Stats::new_shared();
    let sorted = sort_with_stats(rows, &stats);
    assert_eq!(stats.snapshot(), baseline.snapshot());
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// `Arc::new(Stats::default())` is still a dead handle if never
/// threaded — the shared wrapper does not launder it.
#[test]
fn vacuous_stats_sees_through_arc() {
    let r = lint(
        r#"
fn wrapped() {
    let stats = Arc::new(Stats::default());
    let sorted = sort(rows);
    assert!(stats.comparisons() > 0);
}
"#,
    );
    assert_eq!(rules_of(&r), vec![NO_VACUOUS_STATS]);
}

#[test]
fn vacuous_stats_suppressed_with_reason() {
    let r = lint(
        r#"
fn check() {
    let stats = Stats::new_shared();
    let run = sort_rows(input);
    // ovc-lint: allow(no-vacuous-stats) -- asserting the handle stays zeroed is the point here
    assert!(stats.snapshot().comparisons == 0);
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
    assert_eq!(r.suppressions[0].rules, vec![NO_VACUOUS_STATS]);
    assert!(r.suppressions[0].reason.contains("stays zeroed"));
}

/// A reason-less suppression suppresses nothing: the original finding
/// survives AND a hygiene finding is added.
#[test]
fn vacuous_stats_suppression_without_reason_rejected() {
    let r = lint(
        r#"
fn check() {
    let stats = Stats::new_shared();
    let run = sort_rows(input);
    // ovc-lint: allow(no-vacuous-stats)
    assert!(stats.snapshot().comparisons > 0);
}
"#,
    );
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, vec![NO_VACUOUS_STATS, SUPPRESSION_HYGIENE]);
    assert!(r.suppressions.is_empty());
}

// ---------------------------------------------------------------------
// Rule 2: bounded-channels-only
// ---------------------------------------------------------------------

/// The batch-executor split edge as it would look WITHOUT its reasoned
/// suppression (`crates/ovc-plan/src/batch_exec.rs`): an unbounded
/// `mpsc::channel()` hides the §4.10 deadlock-by-memory shape.
#[test]
fn bounded_channels_true_positive_unbounded() {
    let r = lint(
        r#"
fn split(parts: usize) {
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(batch).ok();
}
"#,
    );
    assert_eq!(rules_of(&r), vec![BOUNDED_CHANNELS_ONLY]);
    assert!(r.findings[0].message.contains("§4.10"));
}

/// Turbofish form is the same construction.
#[test]
fn bounded_channels_true_positive_turbofish() {
    let r = lint(
        r#"
fn split() {
    let (tx, rx) = mpsc::channel::<Batch>();
}
"#,
    );
    assert_eq!(rules_of(&r), vec![BOUNDED_CHANNELS_ONLY]);
}

/// `sync_channel(0)` is a rendezvous — it wedges fair-drain loops —
/// and a bare literal capacity dodges the named-constant review point.
#[test]
fn bounded_channels_true_positive_rendezvous_and_literal() {
    let r = lint(
        r#"
fn exchanges() {
    let (a_tx, a_rx) = std::sync::mpsc::sync_channel(0);
    let (b_tx, b_rx) = std::sync::mpsc::sync_channel(64);
}
"#,
    );
    assert_eq!(
        rules_of(&r),
        vec![BOUNDED_CHANNELS_ONLY, BOUNDED_CHANNELS_ONLY]
    );
    assert!(r.findings[0].message.contains("rendezvous"));
    assert!(r.findings[1].message.contains("name it as a constant"));
    assert!(r.findings[1].message.contains("64"));
}

/// Named-constant capacity is the sanctioned shape; the `.channel(`
/// gauge accessor and a `fn channel(` definition are not channel
/// constructions; test code is out of scope for this rule.
#[test]
fn bounded_channels_true_negatives() {
    let r = lint(
        r#"
const EXCHANGE_CAPACITY: usize = 4;
fn exchange() {
    let (tx, rx) = std::sync::mpsc::sync_channel(EXCHANGE_CAPACITY);
    let depth = metrics.channel(id).depth();
}
impl Gauges {
    fn channel(&self, id: usize) -> &Gauge { &self.channels[id] }
}
#[cfg(test)]
mod tests {
    #[test]
    fn unbounded_is_fine_in_tests() {
        let (tx, rx) = std::sync::mpsc::channel();
    }
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// The real batch_exec.rs exemption shape: suppression with the
/// boundedness argument in the reason.
#[test]
fn bounded_channels_suppressed_with_reason() {
    let r = lint(
        r#"
fn split() {
    // ovc-lint: allow(bounded-channels-only) -- in-flight data bounded by the producer's input (DESIGN.md s12)
    let (tx, rx) = std::sync::mpsc::channel();
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
}

#[test]
fn bounded_channels_suppression_without_reason_rejected() {
    let r = lint(
        r#"
fn split() {
    let (tx, rx) = std::sync::mpsc::channel(); // ovc-lint: allow(bounded-channels-only) --
}
"#,
    );
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, vec![BOUNDED_CHANNELS_ONLY, SUPPRESSION_HYGIENE]);
}

// ---------------------------------------------------------------------
// Rule 3: no-unwrap-expect
// ---------------------------------------------------------------------

#[test]
fn unwrap_true_positive() {
    let r = lint(
        r#"
fn run(path: &str) -> u64 {
    let file = std::fs::read(path).unwrap();
    file.len() as u64
}
"#,
    );
    assert_eq!(rules_of(&r), vec![NO_UNWRAP_EXPECT]);
    assert!(r.findings[0].message.contains("containment hole"));
}

/// `.expect("")` carries no message — it is `.unwrap()` with extra
/// keystrokes.  The multiline form (argument on the next line) must be
/// caught too.
#[test]
fn expect_empty_message_true_positive() {
    let r = lint(
        "fn f() {\n    let v = map.get(&k).expect(\"\");\n    let w = map\n        .get(&k)\n        .expect(\n            \"\",\n        );\n}\n",
    );
    assert_eq!(rules_of(&r), vec![NO_UNWRAP_EXPECT, NO_UNWRAP_EXPECT]);
}

/// A messaged expect is the sanctioned shape; unwrap in test context
/// (attribute region or tests/ tree) is fine; `.unwrap()` inside a
/// string literal or comment is not code.
#[test]
fn unwrap_true_negatives() {
    let r = lint(
        r#"
fn f() {
    let v = map.get(&k).expect("key inserted two lines up");
    // calling .unwrap() here would be wrong
    let s = "do not call .unwrap() in lib code";
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(parse("1").unwrap(), 1); }
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    let r = lint_source(
        "crates/fixture/benches/b.rs",
        "fn bench() { let v = setup().unwrap(); }\n",
        &Config::default(),
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

#[test]
fn unwrap_suppressed_with_reason() {
    let r = lint(
        r#"
fn f() {
    // ovc-lint: allow(no-unwrap-expect) -- mutex poisoning is already a contained panic upstream
    let guard = lock.lock().unwrap();
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
}

#[test]
fn unwrap_suppression_without_reason_rejected() {
    let r = lint(
        r#"
fn f() {
    // ovc-lint: allow(no-unwrap-expect)
    let guard = lock.lock().unwrap();
}
"#,
    );
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, vec![NO_UNWRAP_EXPECT, SUPPRESSION_HYGIENE]);
}

// ---------------------------------------------------------------------
// Rule 4: contained-spawn
// ---------------------------------------------------------------------

/// The pre-PR 10 server acceptor verbatim (`ovc-server/src/server.rs`
/// before this PR): a session thread whose panic took the slot
/// accounting down with it.  This is the live violation the rule was
/// built to catch — and the one real product fix in the sweep.
#[test]
fn contained_spawn_true_positive_server_session_shape() {
    let r = lint(
        r#"
fn accept_loop(state: &Shared) {
    let mut sessions = Vec::new();
    sessions.push(std::thread::spawn(move || {
        let _guard = SessionGuard(&state.metrics.active_sessions);
        session_loop(&state, stream)
    }));
}
"#,
    );
    assert_eq!(rules_of(&r), vec![CONTAINED_SPAWN]);
    assert!(r.findings[0].message.contains("ctx::contain"));
}

/// Contain-at-spawn: `ctx::contain` in the closure prologue (locals
/// may come first — the real wrappers set up counters and a Stats
/// handle before containing).
#[test]
fn contained_spawn_true_negative_contain_at_spawn() {
    let r = lint(
        r#"
fn accept_loop(state: &Shared) {
    std::thread::spawn(move || {
        let _guard = SessionGuard(&state.metrics.active_sessions);
        if let Err(err) = ovc_core::ctx::contain(|| session_loop(&state, stream)) {
            eprintln!("session aborted: {err}");
        }
    });
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// Contain-at-join: the enclosing fn maps panic payloads to typed
/// errors when it joins (the `ovc-sort`/`ovc-exec` parallel shape —
/// `join_all` routes payloads through `ctx::error_from_panic`).
#[test]
fn contained_spawn_true_negative_contain_at_join() {
    let r = lint(
        r#"
fn run_partitions(parts: Vec<Part>) -> Result<(), ExecError> {
    let mut handles = Vec::new();
    for part in parts {
        handles.push(std::thread::spawn(move || sort_part(part)));
    }
    join_all(handles)
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// The `server_bench` exemption shape: a bench driver WANTS a panic to
/// crash the run loudly.
#[test]
fn contained_spawn_suppressed_with_reason() {
    let r = lint(
        r#"
fn drive() {
    // ovc-lint: allow(contained-spawn) -- bench driver: a server panic should crash the run loudly
    let server = std::thread::spawn(move || serve(listener));
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
}

#[test]
fn contained_spawn_suppression_without_reason_rejected() {
    let r = lint(
        r#"
fn drive() {
    // ovc-lint: allow(contained-spawn) --
    let server = std::thread::spawn(move || serve(listener));
}
"#,
    );
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, vec![CONTAINED_SPAWN, SUPPRESSION_HYGIENE]);
}

// ---------------------------------------------------------------------
// Rule 5: relaxed-ordering-audit
// ---------------------------------------------------------------------

#[test]
fn relaxed_ordering_true_positive() {
    let r = lint(
        r#"
fn publish(flag: &AtomicBool) {
    flag.store(true, Ordering::Relaxed);
}
"#,
    );
    assert_eq!(rules_of(&r), vec![RELAXED_ORDERING_AUDIT]);
    assert!(r.findings[0].message.contains("allowlisted"));
}

/// The allowlisted counter files are exempt by path suffix — that is
/// where `Relaxed` is the point, not a hazard.
#[test]
fn relaxed_ordering_true_negative_allowlisted_file() {
    let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let cfg = Config::default();
    let r = lint_source("crates/ovc-core/src/stats.rs", src, &cfg);
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    // Same code outside the allowlist: flagged.
    let r = lint_source("crates/ovc-core/src/other.rs", src, &cfg);
    assert_eq!(rules_of(&r), vec![RELAXED_ORDERING_AUDIT]);
    // "Relaxed" in a string or comment is not an ordering.
    let r = lint(
        "fn f() {\n    // Ordering::Relaxed would be wrong here\n    let s = \"Ordering::Relaxed\";\n}\n",
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
}

/// The `ctx.rs` cancel-flag shape: a monotonic one-way flag with a
/// reasoned suppression.
#[test]
fn relaxed_ordering_suppressed_with_reason() {
    let r = lint(
        r#"
fn cancel(flag: &AtomicBool) {
    // ovc-lint: allow(relaxed-ordering-audit) -- monotonic one-way flag; observers only need eventual visibility
    flag.store(true, Ordering::Relaxed);
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
}

#[test]
fn relaxed_ordering_suppression_without_reason_rejected() {
    let r = lint(
        r#"
fn cancel(flag: &AtomicBool) {
    flag.store(true, Ordering::Relaxed); // ovc-lint: allow(relaxed-ordering-audit)
}
"#,
    );
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, vec![RELAXED_ORDERING_AUDIT, SUPPRESSION_HYGIENE]);
}

// ---------------------------------------------------------------------
// Suppression mechanics
// ---------------------------------------------------------------------

/// One suppression can name several rules; unknown rules are rejected;
/// the hygiene meta-rule cannot suppress itself; prose that merely
/// *mentions* the syntax mid-comment is not a directive.
#[test]
fn suppression_mechanics() {
    let r = lint(
        r#"
fn f(flag: &AtomicBool) {
    // ovc-lint: allow(relaxed-ordering-audit, no-unwrap-expect) -- flag is monotonic and the lock cannot be poisoned
    flag.store(lock.lock().unwrap().done, Ordering::Relaxed);
}
"#,
    );
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
    assert_eq!(r.suppressions[0].rules.len(), 2);

    let r = lint("fn f() {}\n// ovc-lint: allow(no-such-rule) -- whatever\n");
    assert_eq!(rules_of(&r), vec![SUPPRESSION_HYGIENE]);
    assert!(r.findings[0].message.contains("no-such-rule"));

    let r = lint("fn f() {}\n// ovc-lint: allow(suppression-hygiene) -- nice try\n");
    assert_eq!(rules_of(&r), vec![SUPPRESSION_HYGIENE]);

    // Prose about the syntax, not at the comment start: ignored.
    let r = lint("fn f() {}\n// to exempt a site, write `ovc-lint: allow(rule) -- why`\n");
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert!(r.suppressions.is_empty());
}

/// A suppression on its own comment line covers the next code line,
/// and covers ONLY that line — it is not file-wide.
#[test]
fn suppression_scope_is_one_line() {
    let r = lint(
        r#"
fn f(flag: &AtomicBool) {
    // ovc-lint: allow(relaxed-ordering-audit) -- first store is a monotonic flag
    flag.store(true, Ordering::Relaxed);
    flag.store(false, Ordering::Relaxed);
}
"#,
    );
    assert_eq!(rules_of(&r), vec![RELAXED_ORDERING_AUDIT]);
    assert_eq!(r.findings[0].line, 5);
}

// ---------------------------------------------------------------------
// Lexer robustness through the public surface
// ---------------------------------------------------------------------

/// Violations hidden in raw strings, nested block comments, and char
/// literals must not fire; real code after them still must.
#[test]
fn lexer_edge_cases() {
    let src = "fn f() {\n    let doc = r#\"call .unwrap() and mpsc::channel() freely\"#;\n    /* outer /* nested .unwrap() */ still comment */\n    let tick: char = '\\'';\n    let v = opt.unwrap();\n}\n";
    let r = lint(src);
    assert_eq!(rules_of(&r), vec![NO_UNWRAP_EXPECT]);
    assert_eq!(r.findings[0].line, 5);
}

// ---------------------------------------------------------------------
// JSON report round-trip (snapshot-validator pattern)
// ---------------------------------------------------------------------

/// The emitted report must round-trip through the parser and pass the
/// schema validator; a corrupted report must not.
#[test]
fn report_round_trips_and_validates() {
    let src = r#"
fn f(path: &str) {
    let v = std::fs::read(path).unwrap();
    // ovc-lint: allow(relaxed-ordering-audit) -- monotonic counter
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    let file = lint(src);
    let report = ovc_lint::LintReport {
        root: "fixture".to_string(),
        files_scanned: 1,
        findings: file.findings,
        suppressions: file.suppressions,
    };
    let pretty = report.to_json().to_pretty();
    let doc = Json::parse(&pretty).expect("emitted report must parse");
    validate_report(&doc).expect("emitted report must validate");

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_num),
        Some(SCHEMA_VERSION as f64)
    );
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(Json::as_str),
        Some(NO_UNWRAP_EXPECT)
    );
    let sups = doc
        .get("suppressions")
        .and_then(Json::as_arr)
        .expect("suppressions array");
    assert_eq!(sups.len(), 1);
    assert!(sups[0]
        .get("reason")
        .and_then(Json::as_str)
        .is_some_and(|s| !s.is_empty()));

    // Corruption: a wrong schema_version must be rejected.
    let corrupted = pretty.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 999",
        1,
    );
    assert_ne!(corrupted, pretty, "corruption must actually apply");
    let doc = Json::parse(&corrupted).expect("still valid JSON");
    assert!(validate_report(&doc).is_err());

    // Corruption: a summary count disagreeing with the array length.
    let corrupted = pretty.replacen("\"findings\": 1", "\"findings\": 7", 1);
    assert_ne!(corrupted, pretty, "corruption must actually apply");
    let doc = Json::parse(&corrupted).expect("still valid JSON");
    assert!(validate_report(&doc).is_err());
}

// ---------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------

/// The whole point: the actual workspace is at zero findings, every
/// suppression carries a reason, and the run covers a non-trivial file
/// count.  This is the same check CI runs via `ovc-lint --deny`.
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = lint_workspace(&root, &Config::default()).expect("workspace walk");
    assert!(
        report.findings.is_empty(),
        "workspace must be finding-free; got: {:#?}",
        report.findings
    );
    assert!(
        report.files_scanned > 100,
        "expected to scan the whole workspace, saw {} files",
        report.files_scanned
    );
    assert!(
        !report.suppressions.is_empty(),
        "the sweep recorded reasoned suppressions; none seen"
    );
    for s in &report.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "reason-less suppression honored at {}:{}",
            s.file,
            s.line
        );
    }
    // And the report it writes is schema-valid.
    let doc = Json::parse(&report.to_json().to_pretty()).expect("report parses");
    validate_report(&doc).expect("workspace report validates");
}
