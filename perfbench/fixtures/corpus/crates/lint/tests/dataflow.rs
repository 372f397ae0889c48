//! Dataflow fixture tests (R14–R16): a good/bad pair per rule with
//! exact witness-path assertions, budget/allow behavior against the
//! `r14`/`r15` ratchet keys, and the `--dataflow` document.
//!
//! Everything goes through [`lint_set`] / [`lint_set_all`] — the
//! per-file pass plus the workspace cross-check — because the dataflow
//! rules only exist at the set level: taint propagates through the
//! converged per-function summaries of the whole call graph.

use hetflow_lint::{
    json, lint_set, lint_set_all, ratchet, FileContext, FileKind, Report, RuleId, Violation,
};

fn inputs(files: Vec<(&str, &str, &str)>) -> Vec<(FileContext, String)> {
    files
        .into_iter()
        .map(|(krate, rel, src)| {
            (FileContext::new(krate, FileKind::LibSrc, rel), src.to_string())
        })
        .collect()
}

fn lint(files: Vec<(&str, &str, &str)>, budgets: &str) -> Report {
    let budgets = ratchet::parse(budgets).expect("fixture ratchet parses");
    lint_set(&inputs(files), &budgets)
}

fn rule_hits(report: &Report, rule: RuleId) -> Vec<&Violation> {
    report.violations.iter().filter(|v| v.rule == rule).collect()
}

// ---- R14 nondeterminism taint -------------------------------------------

#[test]
fn r14_bad_wall_clock_and_hash_order_chains_name_every_hop() {
    let report = lint(
        vec![("sim", "crates/sim/src/flows.rs", include_str!("fixtures/r14_bad.rs"))],
        "",
    );
    let r14 = rule_hits(&report, RuleId::R14);
    assert_eq!(r14.len(), 2, "{:?}", report.violations);
    assert!(
        r14.iter().any(|v| v.line == 7
            && v.message.contains("feeds Tracer::emit with wall-clock time")
            && v.message.contains("SystemTime::now() (line 5)")
            && v.message.contains("-> `t` (line 5)")
            && v.message.contains("-> `label` (line 6)")
            && v.message.contains("-> Tracer::emit (line 7)")),
        "wall-clock chain wrong: {r14:?}"
    );
    assert!(
        r14.iter().any(|v| v.line == 13
            && v.message.contains("feeds SimRng::stream with hash-iteration order")
            && v.message.contains("`pending.keys()` iteration order (line 12)")
            && v.message.contains("-> `name` (line 12)")
            && v.message.contains("-> SimRng::stream (line 13)")),
        "hash-order chain wrong: {r14:?}"
    );
    assert_eq!(report.nondet_taint, Some((2, 0)));
    assert!(!report.clean());
}

#[test]
fn r14_good_virtual_time_and_configured_name_are_clean() {
    let report = lint(
        vec![("sim", "crates/sim/src/flows.rs", include_str!("fixtures/r14_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.nondet_taint, Some((0, 0)));
    assert!(report.clean());
}

#[test]
fn r14_within_budget_surfaces_as_notes_not_violations() {
    let report = lint(
        vec![("sim", "crates/sim/src/flows.rs", include_str!("fixtures/r14_bad.rs"))],
        "r14 = 2\n",
    );
    assert!(rule_hits(&report, RuleId::R14).is_empty(), "{:?}", report.violations);
    assert_eq!(report.nondet_taint, Some((2, 2)));
    assert_eq!(
        report
            .notes
            .iter()
            .filter(|n| n.contains("R14 within budget"))
            .count(),
        2,
        "{:?}",
        report.notes
    );
    // The fixture still trips R1 (SystemTime) and R3 (hash iteration) —
    // the budget absorbs only the taint-flow findings.
    assert!(
        report
            .violations
            .iter()
            .all(|v| matches!(v.rule, RuleId::R1 | RuleId::R3)),
        "{:?}",
        report.violations
    );
}

// ---- R15 discarded fabric effects ---------------------------------------

#[test]
fn r15_bad_discard_carries_the_entry_path() {
    let report = lint(
        vec![("fabric", "crates/fabric/src/relay.rs", include_str!("fixtures/r15_bad.rs"))],
        "",
    );
    let r15 = rule_hits(&report, RuleId::R15);
    assert_eq!(r15.len(), 1, "{:?}", report.violations);
    assert_eq!(r15[0].line, 6);
    assert!(
        r15[0].message.contains("discards the Result of `inner.tasks.send_now()`"),
        "{}",
        r15[0].message
    );
    assert!(
        r15[0].message.contains("(path entry -> line 5 -> line 6)"),
        "entry path wrong: {}",
        r15[0].message
    );
    assert_eq!(report.discarded_effects, Some((1, 0)));
    assert!(!report.clean());
}

#[test]
fn r15_good_propagated_and_non_effect_discard_are_clean() {
    let report = lint(
        vec![("fabric", "crates/fabric/src/relay.rs", include_str!("fixtures/r15_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.discarded_effects, Some((0, 0)));
    assert!(report.clean());
}

#[test]
fn r15_budget_absorbs_the_site_and_notes_it() {
    let report = lint(
        vec![("fabric", "crates/fabric/src/relay.rs", include_str!("fixtures/r15_bad.rs"))],
        "r15 = 1\n",
    );
    assert!(rule_hits(&report, RuleId::R15).is_empty(), "{:?}", report.violations);
    assert_eq!(report.discarded_effects, Some((1, 1)));
    assert!(
        report.notes.iter().any(|n| n.contains("R15 within budget")
            && n.contains("crates/fabric/src/relay.rs:6")),
        "{:?}",
        report.notes
    );
    assert!(report.clean());
}

// ---- R16 lock across suspension -----------------------------------------

#[test]
fn r16_bad_await_and_blocking_wait_print_witness_paths() {
    let report = lint(
        vec![("sim", "crates/sim/src/pump.rs", include_str!("fixtures/r16_bad.rs"))],
        "",
    );
    let r16 = rule_hits(&report, RuleId::R16);
    assert_eq!(r16.len(), 2, "{:?}", report.violations);
    assert!(
        r16.iter().any(|v| v.line == 7
            && v.message.contains("holds guard `g`")
            && v.message.contains("an `.await` suspension point")
            && v.message.contains("witness path: line 6 -> line 7")),
        "guard across await: {r16:?}"
    );
    assert!(
        r16.iter().any(|v| v.line == 13
            && v.message.contains("blocking `wait`")
            && v.message.contains("witness path: line 12 -> line 13")),
        "guard across Condvar::wait: {r16:?}"
    );
    assert!(!report.clean());
}

#[test]
fn r16_good_drop_before_suspension_on_every_path_is_clean() {
    let report = lint(
        vec![("sim", "crates/sim/src/pump.rs", include_str!("fixtures/r16_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.clean());
}

// ---- the --dataflow document --------------------------------------------

#[test]
fn dataflow_doc_records_summaries_and_findings_and_round_trips() {
    let budgets = ratchet::parse("").unwrap();
    let set = inputs(vec![
        ("sim", "crates/sim/src/flows.rs", include_str!("fixtures/r14_bad.rs")),
        ("fabric", "crates/fabric/src/relay.rs", include_str!("fixtures/r15_bad.rs")),
    ]);
    let out = lint_set_all(&set, &budgets);
    assert!(
        out.dataflow.fns.iter().any(|f| f.qname == "sim::flows::stamp"),
        "summaries cover every parsed fn: {:?}",
        out.dataflow.fns.iter().map(|f| &f.qname).collect::<Vec<_>>()
    );
    let rules: Vec<&str> = out.dataflow.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"r14") && rules.contains(&"r15"), "{rules:?}");
    assert!(
        out.dataflow.findings.iter().all(|f| !f.suppressed),
        "nothing is allowed in these fixtures"
    );
    let doc = json::dataflow_to_json(&out.dataflow);
    let v = json::parse(&doc).expect("dataflow serializer output must parse");
    assert_eq!(
        v.get("tool").and_then(json::Value::as_str),
        Some("hetlint-dataflow")
    );
    assert_eq!(
        v.get("findings").and_then(json::Value::as_arr).map(<[json::Value]>::len),
        Some(out.dataflow.findings.len())
    );
    assert_eq!(
        v.get("functions").and_then(json::Value::as_arr).map(<[json::Value]>::len),
        Some(out.dataflow.fns.len())
    );
}
