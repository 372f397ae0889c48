//! Dataflow fixture tests (R14–R16): a good/bad pair per rule with
//! exact witness-path assertions, budget/allow behavior against the
//! `r14`/`r15` ratchet keys, and the `--dataflow` document.
//!
//! Everything goes through [`lint_set`] / [`lint_set_all`] — the
//! per-file pass plus the workspace cross-check — because the dataflow
//! rules only exist at the set level: taint propagates through the
//! converged per-function summaries of the whole call graph.

use hetflow_lint::{
    dataflow, json, lint_set, lint_set_all, ratchet, FileContext, FileKind, Report, RuleId,
    Violation,
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

/// `ping` emits its parameter and hands it to `pong`, which hands it
/// back: a two-function call cycle reaching `Tracer::emit`, fed once
/// from `f` with wall-clock time.
const PING_PONG: &str = "fn f(tr: T) {\nlet t = Instant::now();\nping(tr, t);\n}\n\
    fn ping(tr: T, v: u64) {\ntr.emit(kind, v);\npong(tr, v);\n}\n\
    fn pong(tr: T, v: u64) {\nping(tr, v);\n}\n";

#[test]
fn r14_call_cycle_counts_one_site_with_the_direct_witness() {
    let budgets = ratchet::parse("").unwrap();
    let out = lint_set_all(&inputs(vec![("sim", "crates/sim/src/cycle.rs", PING_PONG)]), &budgets);
    let r14 = rule_hits(&out.report, RuleId::R14);
    assert_eq!(r14.len(), 1, "one tainted call site, one hit: {r14:?}");
    assert_eq!(r14[0].line, 3);
    assert!(
        r14[0].message.contains("into `sim::cycle::ping`, which feeds Tracer::emit;"),
        "the direct sink is the witness: {}",
        r14[0].message
    );
    assert_eq!(out.report.nondet_taint, Some((1, 0)));
    let row = |q: &str| out.dataflow.fns.iter().find(|f| f.qname == q).unwrap();
    assert_eq!(row("sim::cycle::ping").param_sinks, ["Tracer::emit"]);
    assert_eq!(row("sim::cycle::pong").param_sinks, ["Tracer::emit (via `sim::cycle::ping`)"]);
    assert!(out.fixed_point.reached, "{:?}", out.fixed_point);
}

#[test]
fn r14_sink_three_calls_deep_keeps_its_witness() {
    let src = "fn f(tr: T) {\nlet t = Instant::now();\na(tr, t);\n}\n\
        fn a(tr: T, v: u64) {\nb(tr, v);\n}\n\
        fn b(tr: T, v: u64) {\nc(tr, v);\n}\n\
        fn c(tr: T, v: u64) {\ntr.emit(kind, v);\n}\n";
    let budgets = ratchet::parse("").unwrap();
    let out = lint_set_all(&inputs(vec![("sim", "crates/sim/src/chain.rs", src)]), &budgets);
    let r14 = rule_hits(&out.report, RuleId::R14);
    assert_eq!(r14.len(), 1, "{r14:?}");
    assert_eq!(r14[0].line, 3);
    assert!(
        r14[0].message.contains(
            "into `sim::chain::a`, which feeds \
             Tracer::emit (via `sim::chain::c`) (via `sim::chain::b`);"
        ),
        "depth-3 witness lost: {}",
        r14[0].message
    );
    assert_eq!(out.report.nondet_taint, Some((1, 0)));
}

#[test]
fn r14_summaries_keep_one_witness_per_sink_kind() {
    // `all` feeds its parameter to every sink kind, some of them twice
    // and some also through `relay`; its summary holds each kind once.
    let src = "fn all(tr: T, v: u64) {\ntr.emit(kind, v);\nrelay(tr, v);\ntr.emit(kind, v);\n\
        let r = rng.substream(v);\nlet s = SimRng::from_seed(v);\nlet u = SimRng::stream(v);\n\
        d.fold_event(v);\nd.fold_bytes(v);\nlet y = Symbol::intern(v);\nlet z = tab.intern(v);\n}\n\
        fn relay(tr: T, v: u64) {\ntr.emit(kind, v);\nd.fold_event(v);\n}\n";
    let budgets = ratchet::parse("").unwrap();
    let out = lint_set_all(&inputs(vec![("sim", "crates/sim/src/sinks.rs", src)]), &budgets);
    let all = out.dataflow.fns.iter().find(|f| f.qname == "sim::sinks::all").unwrap();
    let mut got = all.param_sinks.clone();
    got.sort();
    let mut want: Vec<String> =
        dataflow::SINK_KINDS.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(got, want, "local witnesses (0 hops) beat the ones through `relay`");
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
