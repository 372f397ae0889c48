//! The dataflow rules R14–R16: taint fixed points over per-function
//! CFGs, composed across the workspace call graph.
//!
//! The interprocedural rules (R10–R13) answer *reachability* questions:
//! can control get from here to there. These three answer *flow*
//! questions: does a nondeterministic **value** reach a
//! determinism-sensitive sink, along which statements, and is a lock
//! guard live on the path.
//!
//! - **R14 nondet-taint** — values derived from ambient nondeterminism
//!   (wall-clock reads, `HashMap`/`HashSet` iteration order, OS thread
//!   ids, `env::var`, `{:p}` pointer formatting) must not flow into the
//!   trace (`Tracer::emit`, the digest fold), seed material
//!   (`SimRng::from_seed` / `stream` / `substream`), or `Symbol`
//!   interning. The per-file rules R1/R3 ban the *sources* in
//!   sim-driven crates; R14 follows the *values* — through local
//!   bindings, branches, loops, and calls into other functions — so a
//!   source that is legal where it stands (a driver crate, an allowed
//!   site) is still caught when its value contaminates the trace.
//! - **R15 discarded-effects** — `let _ = …` on a fabric effect
//!   (submit/deliver/send paths) silently drops a delivery failure.
//!   Flow-sensitive: the message carries the entry-to-statement path,
//!   and intentional teardown-tolerant discards take a reasoned
//!   `allow(r15)`.
//! - **R16 lock-across-await** — a guard must not be live on any CFG
//!   path from its acquisition to an `.await` point, a blocking call,
//!   or a call into a function that can block transitively. This
//!   re-grounds R11's old token-span approximation on real paths:
//!   a branch that drops the guard before blocking no longer flags,
//!   and every message carries the concrete witness path *through the
//!   function*. R11 retains only lock-order inversion.
//!
//! Each function gets a [`Summary`] — does its return value carry
//! ambient taint, do its parameters flow to its return value, which
//! sinks do its parameters reach — and a worklist re-analyses a
//! function only when a callee's summary changed, until the workspace
//! reaches its fixed point. Summaries form a finite lattice: taint
//! chains are capped at [`MAX_HOPS`], and a function keeps one
//! [`SinkWitness`] per sink kind (fewest hops wins, first wins a tie),
//! so a call cycle cannot mint new witnesses forever. Everything
//! over-approximates (flattened expressions, suffix-matched calls), so
//! the lattice errs toward reporting; the escape hatch is a reasoned
//! `allow(..)`, never analysis cleverness.

use std::collections::{BTreeMap, VecDeque};

use crate::cfg::{CallKind, Cfg, Stmt, StmtCall};
use crate::graph::CallGraph;
use crate::parser::Callee;
use crate::ratchet::Ratchet;
use crate::scan;
use crate::{LintedFile, RuleId, Violation};

/// Chain-length cap: taint chains and sink witnesses stop growing
/// here, which both keeps messages readable and makes the fixed point
/// terminate through call cycles.
const MAX_HOPS: usize = 8;

/// Defensive cap on the worklist: at most this many analyses per
/// function on average. The workspace reaches its fixed point in
/// about 1.4; hitting the cap leaves a report note, never a silent
/// stop.
const MAX_ROUNDS: usize = 10;

/// Every sink kind [`local_sink`] recognizes; a summary holds at most
/// one [`SinkWitness`] per kind.
pub const SINK_KINDS: [&str; 6] = [
    "Tracer::emit",
    "SimRng::substream",
    "the trace digest fold",
    "Symbol interning",
    "SimRng::from_seed",
    "SimRng::stream",
];

/// Hash-container constructors whose results carry iteration-order
/// nondeterminism when iterated.
const HASH_CTORS: &[&str] = &["new", "with_capacity", "default", "from", "from_iter"];

/// Iteration methods that surface hash order.
const HASH_ITER: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// Fabric-effect calls whose `Result` must not be discarded (R15).
const EFFECT_CALLS: &[&str] =
    &["submit", "deliver", "deliver_inner", "send", "send_now", "try_send"];

/// The class of nondeterminism a tainted value carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `SystemTime::now()` / `Instant::now()` and friends.
    WallClock,
    /// `HashMap`/`HashSet` iteration order.
    HashOrder,
    /// `thread::current().id()`.
    ThreadId,
    /// `env::var` / `env::args`.
    Env,
    /// `{:p}` pointer formatting.
    PointerFmt,
}

impl TaintKind {
    /// Human description used in messages and the `--dataflow` doc.
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock time",
            TaintKind::HashOrder => "hash-iteration order",
            TaintKind::ThreadId => "an OS thread id",
            TaintKind::Env => "process-environment data",
            TaintKind::PointerFmt => "a formatted pointer address",
        }
    }
}

/// A taint label: what kind of nondeterminism, and the hop chain from
/// the source to the current carrier (rendered in every R14 message).
#[derive(Clone, Debug, PartialEq)]
pub struct Taint {
    /// The nondeterminism class.
    pub kind: TaintKind,
    /// Source-to-here hops, e.g. `SystemTime::now() (line 3)`,
    /// `` `t` (line 4)``.
    pub chain: Vec<String>,
}

fn push_hop(chain: &mut Vec<String>, hop: String) {
    if chain.len() < MAX_HOPS {
        chain.push(hop);
    }
}

fn render_chain(chain: &[String]) -> String {
    chain.join(" -> ")
}

/// A sink a parameter reaches, with the callees the value passes
/// through on the way there, innermost first (none for a sink in the
/// function itself).
#[derive(Clone, Debug, PartialEq)]
pub struct SinkWitness {
    /// One of [`SINK_KINDS`].
    pub sink: &'static str,
    /// Qualified callee names, capped at [`MAX_HOPS`].
    pub via: Vec<String>,
}

impl SinkWitness {
    /// The form messages and the `--dataflow` doc show:
    /// ``Tracer::emit (via `a`) (via `b`)``.
    pub fn render(&self) -> String {
        let mut out = self.sink.to_string();
        for callee in &self.via {
            out.push_str(&format!(" (via `{callee}`)"));
        }
        out
    }
}

/// Records a witness for `sink` through `via` (plus `hop`, the callee
/// it came from) unless `sinks` already holds one for that kind with no
/// more hops. One witness per kind, fewest hops wins, first wins a tie —
/// the same "chains never churn" rule [`merge_into`] uses for taint.
fn add_sink(sinks: &mut Vec<SinkWitness>, sink: &'static str, via: &[String], hop: Option<&str>) {
    let hops = (via.len() + usize::from(hop.is_some())).min(MAX_HOPS);
    let slot = sinks.iter().position(|w| w.sink == sink);
    if slot.is_some_and(|i| sinks[i].via.len() <= hops) {
        return;
    }
    let mut via = via.to_vec();
    if let Some(hop) = hop {
        push_hop(&mut via, hop.to_string());
    }
    let witness = SinkWitness { sink, via };
    match slot {
        Some(i) => sinks[i] = witness,
        None => sinks.push(witness),
    }
}

/// What one function exposes to its callers, computed to a workspace
/// fixed point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// The return value carries ambient taint regardless of arguments.
    pub returns_taint: Option<Taint>,
    /// Some parameter flows to the return value (so a tainted argument
    /// taints the call result).
    pub param_to_return: bool,
    /// Sinks a parameter reaches inside this function (or deeper), so a
    /// tainted argument is an R14 hit at the call site.
    pub param_sinks: Vec<SinkWitness>,
}

/// Per-variable dataflow fact.
#[derive(Clone, Debug, Default, PartialEq)]
struct VarState {
    /// Ambient taint carried by the binding, with its hop chain.
    taint: Option<Taint>,
    /// The binding derives from a function parameter (summary raw
    /// material, not a finding by itself).
    from_param: bool,
    /// The binding holds a `HashMap`/`HashSet` value; iterating it is a
    /// [`TaintKind::HashOrder`] source.
    hashish: bool,
}

/// Block-entry state: variable name → fact. `BTreeMap` keeps merge
/// order deterministic.
type State = BTreeMap<String, VarState>;

/// Merges `from` into `into`; returns true when anything changed.
/// First-wins on taint (chains never churn), union on the flags.
fn merge_into(into: &mut State, from: &State) -> bool {
    let mut changed = false;
    for (name, v) in from {
        match into.get_mut(name) {
            None => {
                into.insert(name.clone(), v.clone());
                changed = true;
            }
            Some(cur) => {
                if cur.taint.is_none() && v.taint.is_some() {
                    cur.taint = v.taint.clone();
                    changed = true;
                }
                if !cur.from_param && v.from_param {
                    cur.from_param = true;
                    changed = true;
                }
                if !cur.hashish && v.hashish {
                    cur.hashish = true;
                    changed = true;
                }
            }
        }
    }
    changed
}

/// A pre-suppression finding: `(file index, line, message)`.
type Finding = (usize, usize, String);

/// One row of the `--dataflow` document: a function's converged
/// summary.
#[derive(Clone, Debug)]
pub struct FnRow {
    /// Fully qualified name.
    pub qname: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// CFG size (blocks), a quick complexity signal.
    pub blocks: usize,
    /// Ambient-taint kind of the return value, when any.
    pub returns_taint: Option<String>,
    /// A parameter flows to the return value.
    pub param_to_return: bool,
    /// Sinks reachable from a parameter: one rendered [`SinkWitness`]
    /// per sink kind.
    pub param_sinks: Vec<String>,
    /// The function can block the OS thread (transitively).
    pub may_block: bool,
}

/// One finding row of the `--dataflow` document (kept even when
/// suppressed, so the artifact shows the full picture).
#[derive(Clone, Debug)]
pub struct FindingRow {
    /// Canonical rule key (`r14`/`r15`/`r16`).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Full message with the flow / witness path.
    pub message: String,
    /// A reasoned `allow(..)` covers the site.
    pub suppressed: bool,
}

/// The machine-readable dataflow document behind `hetlint --dataflow`.
#[derive(Clone, Debug, Default)]
pub struct Doc {
    /// Converged per-function summaries.
    pub fns: Vec<FnRow>,
    /// All R14–R16 findings, suppressed included.
    pub findings: Vec<FindingRow>,
}

/// How the summary worklist ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixedPoint {
    /// The worklist drained: every summary is stable under its callees'.
    pub reached: bool,
    /// Per-function analyses run, the initial pass included.
    pub analyses: usize,
}

/// What the dataflow phase hands back to report assembly.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(unsuppressed R14 sites, budget)` for the report row.
    pub nondet_taint: (usize, usize),
    /// `(unsuppressed R15 sites, budget)` for the report row.
    pub discarded_effects: (usize, usize),
    /// Informational lines (within-budget sites with their flows).
    pub notes: Vec<String>,
    /// The `--dataflow` document.
    pub doc: Doc,
    /// Whether the summaries converged, and at what cost.
    pub fixed_point: FixedPoint,
}

/// Runs R14–R16 over the parsed set, appending hits to each file's
/// report through its suppression table. R14 and R15 are ratcheted
/// (`r14` / `r15` keys in `hetlint.ratchet`); R16 is a hard violation.
pub fn check(files: &mut [LintedFile], budgets: &Ratchet, g: &CallGraph) -> Outcome {
    check_within(files, budgets, g, MAX_ROUNDS)
}

/// [`check`] with the worklist capped at `max_rounds` analyses per
/// function.
fn check_within(
    files: &mut [LintedFile],
    budgets: &Ratchet,
    g: &CallGraph,
    max_rounds: usize,
) -> Outcome {
    let (r14, r15, r16, doc, fixed_point) = {
        let ctx = Ctx::new(files, g);
        let (summaries, fixed_point) = ctx.converge(max_rounds * g.nodes.len());
        let may_block = ctx.may_block();
        let mut r14: Vec<Finding> = Vec::new();
        for n in 0..g.nodes.len() {
            if !ctx.r14_applies(n) {
                continue;
            }
            ctx.analyze_fn(&summaries, n, Some(&mut r14));
        }
        r14.dedup();
        let r15 = ctx.discarded_effects();
        let r16 = ctx.lock_across(&may_block);
        let mut doc = Doc::default();
        for n in 0..g.nodes.len() {
            let item = ctx.g.item(ctx.files, n);
            doc.fns.push(FnRow {
                qname: g.nodes[n].qname.clone(),
                path: g.nodes[n].path.clone(),
                line: g.nodes[n].line,
                blocks: item.cfg.blocks.len(),
                returns_taint: summaries[n]
                    .returns_taint
                    .as_ref()
                    .map(|t| t.kind.describe().to_string()),
                param_to_return: summaries[n].param_to_return,
                param_sinks: summaries[n].param_sinks.iter().map(SinkWitness::render).collect(),
                may_block: may_block[n],
            });
        }
        (r14, r15, r16, doc, fixed_point)
    };

    let mut out = Outcome { doc, fixed_point, ..Outcome::default() };
    if !fixed_point.reached {
        out.notes.push(format!(
            "R14 summaries stopped short of their fixed point after {} analyses \
             (cap: {max_rounds} per function); taint findings may be incomplete",
            fixed_point.analyses
        ));
    }
    out.nondet_taint =
        apply_budget(files, RuleId::R14, r14, budgets.nondet_taint, &mut out);
    out.discarded_effects =
        apply_budget(files, RuleId::R15, r15, budgets.discarded_effects, &mut out);
    for (file, line, message) in r16 {
        record_finding(&mut out.doc, files, RuleId::R16, file, line, &message);
        push_hit(&mut files[file], RuleId::R16, line, message);
    }
    out
}

/// Routes allow-covered sites through suppression, counts the rest
/// against the budget, and either reports them (over) or notes them
/// (within). Mirrors the R13 ratchet discipline.
fn apply_budget(
    files: &mut [LintedFile],
    rule: RuleId,
    sites: Vec<Finding>,
    budget: usize,
    out: &mut Outcome,
) -> (usize, usize) {
    let mut open: Vec<Finding> = Vec::new();
    for (file, line, message) in sites {
        record_finding(&mut out.doc, files, rule, file, line, &message);
        if scan::find_suppression(&files[file].suppr, rule.key(), line).is_some() {
            push_hit(&mut files[file], rule, line, message);
        } else {
            open.push((file, line, message));
        }
    }
    let count = open.len();
    if count > budget {
        for (file, line, message) in open {
            push_hit(&mut files[file], rule, line, message);
        }
    } else {
        for (file, line, message) in open {
            out.notes.push(format!(
                "{} within budget: {}:{line}: {message}",
                rule.key().to_uppercase(),
                files[file].ctx.rel_path
            ));
        }
    }
    (count, budget)
}

fn record_finding(
    doc: &mut Doc,
    files: &[LintedFile],
    rule: RuleId,
    file: usize,
    line: usize,
    message: &str,
) {
    doc.findings.push(FindingRow {
        rule: rule.key().to_string(),
        path: files[file].ctx.rel_path.clone(),
        line,
        message: message.to_string(),
        suppressed: scan::find_suppression(&files[file].suppr, rule.key(), line).is_some(),
    });
}

/// Routes one dataflow hit through the owning file's suppressions
/// (mirrors `interproc::push_hit`; kept separate so the phases stay
/// independently testable).
fn push_hit(file: &mut LintedFile, rule: RuleId, line: usize, message: String) {
    let found = scan::find_suppression(&file.suppr, rule.key(), line).cloned();
    match found {
        Some(s) => {
            file.matched_allows.push((rule.key().to_string(), s.line));
            file.report.suppressed.push(Violation {
                rule,
                path: file.ctx.rel_path.clone(),
                line,
                message,
                suppression: Some(s),
            });
        }
        None => file.report.violations.push(Violation {
            rule,
            path: file.ctx.rel_path.clone(),
            line,
            message,
            suppression: None,
        }),
    }
}

/// One function's CFG statement calls mapped back onto call-graph
/// edges, resolved once up front.
struct Sites {
    /// `first[b][s]`: index into `targets` of the first call of
    /// `cfg.blocks[b].stmts[s]`.
    first: Vec<Vec<usize>>,
    /// Target nodes of every CFG call, in block, statement, call order.
    targets: Vec<Vec<usize>>,
}

impl Sites {
    /// The targets of each of `stmt`'s calls (`stmt` is `stmts[s]` of
    /// block `b`).
    fn of(&self, b: usize, s: usize, stmt: &Stmt) -> &[Vec<usize>] {
        let first = self.first[b][s];
        &self.targets[first..first + stmt.calls.len()]
    }
}

/// Shared immutable analysis context.
struct Ctx<'a> {
    files: &'a [LintedFile],
    g: &'a CallGraph,
    /// Per node: its CFG calls' resolved targets.
    sites: Vec<Sites>,
}

impl<'a> Ctx<'a> {
    fn new(files: &'a [LintedFile], g: &'a CallGraph) -> Ctx<'a> {
        let mut sites = Vec::with_capacity(g.nodes.len());
        for n in 0..g.nodes.len() {
            let item = g.item(files, n);
            // `(line, final name)` → targets, matching a CFG call to the
            // parsed calls the graph resolved.
            let mut resolve: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
            for &(ci, target) in &g.call_targets[n] {
                let name = match &item.calls[ci].callee {
                    Callee::Path(segs) => match segs.last() {
                        Some(s) => s.as_str(),
                        None => continue,
                    },
                    Callee::Method(m) => m.as_str(),
                    Callee::Macro(_) => continue,
                };
                resolve.entry((item.calls[ci].line, name)).or_default().push(target);
            }
            let mut site = Sites { first: Vec::new(), targets: Vec::new() };
            for block in &item.cfg.blocks {
                let mut firsts = Vec::with_capacity(block.stmts.len());
                for stmt in &block.stmts {
                    firsts.push(site.targets.len());
                    for call in &stmt.calls {
                        let key = (call.line, call.name.as_str());
                        site.targets.push(resolve.get(&key).cloned().unwrap_or_default());
                    }
                }
                site.first.push(firsts);
            }
            sites.push(site);
        }
        Ctx { files, g, sites }
    }

    /// R14 findings only make sense where the determinism contract
    /// applies; binaries are drivers (the CLI times itself by design).
    fn r14_applies(&self, n: usize) -> bool {
        let node = &self.g.nodes[n];
        self.files[node.file].ctx.sim_driven() && !node.path.contains("/bin/")
    }

    /// The trace module folds the digest and the rng module handles raw
    /// seed material by design — their internals are sink-exempt.
    fn sink_exempt(&self, n: usize) -> bool {
        let ctx = &self.files[self.g.nodes[n].file].ctx;
        ctx.is_trace_module() || ctx.is_rng_module()
    }

    /// Which nodes can (transitively) block the OS thread: reverse BFS
    /// from every node with a syntactic blocking site (shared logic
    /// with R11's old span check, now feeding R16 path search).
    fn may_block(&self) -> Vec<bool> {
        let g = self.g;
        let mut may = vec![false; g.nodes.len()];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
        for (n, row) in g.edges.iter().enumerate() {
            for &m in row {
                rev[m].push(n);
            }
        }
        let mut queue: VecDeque<usize> = (0..g.nodes.len())
            .filter(|&n| !g.item(self.files, n).blocking.is_empty())
            .collect();
        for &n in &queue {
            may[n] = true;
        }
        while let Some(n) = queue.pop_front() {
            for &p in &rev[n] {
                if !may[p] {
                    may[p] = true;
                    queue.push_back(p);
                }
            }
        }
        may
    }

    /// Runs per-function analyses to the workspace fixed point: every
    /// node once in index order, then a node again only when the
    /// summary of one of its callees changed. Stops after `cap`
    /// analyses.
    fn converge(&self, cap: usize) -> (Vec<Summary>, FixedPoint) {
        let nodes = self.g.nodes.len();
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (n, site) in self.sites.iter().enumerate() {
            for &t in site.targets.iter().flatten() {
                if t != n && callers[t].last() != Some(&n) {
                    callers[t].push(n);
                }
            }
        }
        let mut summaries = vec![Summary::default(); nodes];
        let mut queue: VecDeque<usize> = (0..nodes).collect();
        let mut queued = vec![true; nodes];
        let mut fp = FixedPoint::default();
        while let Some(n) = queue.pop_front() {
            if fp.analyses == cap {
                return (summaries, fp);
            }
            queued[n] = false;
            fp.analyses += 1;
            let s = self.analyze_fn(&summaries, n, None);
            if s != summaries[n] {
                summaries[n] = s;
                for &p in &callers[n] {
                    if !queued[p] {
                        queued[p] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
        fp.reached = true;
        (summaries, fp)
    }

    /// Runs the forward taint fixed point over one function's CFG.
    /// With `findings`, does a final reporting pass using the converged
    /// block states.
    fn analyze_fn(
        &self,
        summaries: &[Summary],
        n: usize,
        findings: Option<&mut Vec<Finding>>,
    ) -> Summary {
        let item = self.g.item(self.files, n);
        let cfg = &item.cfg;
        let mut summary = Summary::default();
        let mut entry = State::new();
        for p in &item.params {
            entry.insert(p.clone(), VarState { from_param: true, ..VarState::default() });
        }
        let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
        in_states[cfg.entry] = Some(entry);
        let rpo = cfg.rpo();
        for _ in 0..cfg.blocks.len() + 2 {
            let mut changed = false;
            for &b in &rpo {
                let Some(mut s) = in_states[b].clone() else { continue };
                for si in 0..cfg.blocks[b].stmts.len() {
                    self.transfer(summaries, n, (b, si), &mut s, None, &mut summary);
                }
                for &succ in &cfg.blocks[b].succs {
                    match &mut in_states[succ] {
                        Some(cur) => changed |= merge_into(cur, &s),
                        None => {
                            in_states[succ] = Some(s.clone());
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if let Some(out) = findings {
            for &b in &rpo {
                let Some(mut s) = in_states[b].clone() else { continue };
                for si in 0..cfg.blocks[b].stmts.len() {
                    self.transfer(summaries, n, (b, si), &mut s, Some(out), &mut summary);
                }
            }
        }
        summary
    }

    /// One statement's transfer function: sources, sinks, calls, kills.
    /// `(b, si)` places the statement in `n`'s CFG.
    fn transfer(
        &self,
        summaries: &[Summary],
        n: usize,
        (b, si): (usize, usize),
        state: &mut State,
        mut findings: Option<&mut Vec<Finding>>,
        summary: &mut Summary,
    ) {
        let node = &self.g.nodes[n];
        let item = self.g.item(self.files, n);
        let stmt = &item.cfg.blocks[b].stmts[si];
        let targets = self.sites[n].of(b, si, stmt);
        let exempt = self.sink_exempt(n);

        // 1. Ambient sources generated by this statement.
        let mut ambient: Option<Taint> = None;
        for call in &stmt.calls {
            if let Some((kind, desc)) = ambient_source(call) {
                ambient = Some(Taint {
                    kind,
                    chain: vec![format!("{desc} (line {})", call.line)],
                });
                break;
            }
            if call.kind == CallKind::Method && HASH_ITER.contains(&call.name.as_str()) {
                let head = call.recv.split('.').next().unwrap_or("");
                if state.get(head).is_some_and(|v| v.hashish) {
                    ambient = Some(Taint {
                        kind: TaintKind::HashOrder,
                        chain: vec![format!(
                            "`{}.{}()` iteration order (line {})",
                            call.recv, call.name, call.line
                        )],
                    });
                    break;
                }
            }
        }

        // 2. Flow through callees, via their converged summaries.
        let mut through: Option<Taint> = None;
        let mut through_param = false;
        for (call, call_targets) in stmt.calls.iter().zip(targets) {
            let arg_taint = call
                .args
                .iter()
                .find_map(|a| state.get(a).and_then(|v| v.taint.clone()))
                .or_else(|| ambient.clone());
            let arg_param = call.args.iter().any(|a| state.get(a).is_some_and(|v| v.from_param));
            let mut reported = false;
            for &t in call_targets {
                if t == n {
                    continue;
                }
                let cs = &summaries[t];
                let callee = &self.g.nodes[t].qname;
                if through.is_none() {
                    if let Some(rt) = &cs.returns_taint {
                        let mut chain = rt.chain.clone();
                        push_hop(&mut chain, format!("returned by `{callee}` (line {})", call.line));
                        through = Some(Taint { kind: rt.kind, chain });
                    }
                }
                if let Some(at) = &arg_taint {
                    if !cs.param_sinks.is_empty() && !reported {
                        if let Some(out) = findings.as_deref_mut() {
                            for witness in &cs.param_sinks {
                                let sink = witness.render();
                                out.push((
                                    node.file,
                                    call.line,
                                    format!(
                                        "`{}` passes {} into `{callee}`, which feeds {sink}; \
                                         flow: {} -> `{callee}` (line {}); make the input \
                                         deterministic (virtual time, sorted iteration, named \
                                         streams) or annotate with `hetlint: allow(r14) — <why>`",
                                        item.qname,
                                        at.kind.describe(),
                                        render_chain(&at.chain),
                                        call.line
                                    ),
                                ));
                            }
                            reported = true;
                        }
                    }
                    if cs.param_to_return && through.is_none() {
                        let mut chain = at.chain.clone();
                        push_hop(&mut chain, format!("through `{callee}` (line {})", call.line));
                        through = Some(Taint { kind: at.kind, chain });
                    }
                }
                if arg_param {
                    for w in &cs.param_sinks {
                        add_sink(&mut summary.param_sinks, w.sink, &w.via, Some(callee));
                    }
                    if cs.param_to_return {
                        through_param = true;
                    }
                }
            }
        }

        // 3. Taint read from earlier bindings.
        let mut used: Option<Taint> = None;
        let mut used_param = false;
        for u in stmt.uses.iter().chain(stmt.calls.iter().flat_map(|c| c.args.iter())) {
            let Some(v) = state.get(u) else { continue };
            if used.is_none() {
                used = v.taint.clone();
            }
            used_param |= v.from_param;
        }

        // 4. Local sink checks.
        if !exempt {
            for call in &stmt.calls {
                let Some(sink) = local_sink(call) else { continue };
                let flow = call
                    .args
                    .iter()
                    .find_map(|a| state.get(a).and_then(|v| v.taint.clone()))
                    .or_else(|| ambient.clone())
                    .or_else(|| through.clone());
                if let Some(t) = flow {
                    if let Some(out) = findings.as_deref_mut() {
                        out.push((
                            node.file,
                            call.line,
                            format!(
                                "`{}` feeds {sink} with {}; flow: {} -> {sink} (line {}); \
                                 make the input deterministic (virtual time, sorted \
                                 iteration, named streams) or annotate with \
                                 `hetlint: allow(r14) — <why>`",
                                item.qname,
                                t.kind.describe(),
                                render_chain(&t.chain),
                                call.line
                            ),
                        ));
                    }
                }
                let arg_param =
                    call.args.iter().any(|a| state.get(a).is_some_and(|v| v.from_param));
                if arg_param {
                    add_sink(&mut summary.param_sinks, sink, &[], None);
                }
            }
        }

        // 5. Definitions: gen on incoming taint, kill on clean
        //    redefinition.
        let incoming = ambient.clone().or_else(|| through.clone()).or_else(|| used.clone());
        let incoming_param = used_param || through_param;
        let hash_gen = stmt.calls.iter().any(|c| {
            c.kind == CallKind::Path
                && HASH_CTORS.contains(&c.name.as_str())
                && c.segs.iter().any(|s| s == "HashMap" || s == "HashSet")
        });
        for d in &stmt.defs {
            let mut vs = VarState { from_param: incoming_param, hashish: hash_gen, taint: None };
            if let Some(t) = &incoming {
                let mut chain = t.chain.clone();
                push_hop(&mut chain, format!("`{d}` (line {})", stmt.line));
                vs.taint = Some(Taint { kind: t.kind, chain });
            }
            state.insert(d.clone(), vs);
        }

        // 6. Returns feed the summary.
        if stmt.is_return {
            if summary.returns_taint.is_none() {
                if let Some(t) = &incoming {
                    let mut chain = t.chain.clone();
                    push_hop(&mut chain, format!("returned (line {})", stmt.line));
                    summary.returns_taint = Some(Taint { kind: t.kind, chain });
                }
            }
            if incoming_param {
                summary.param_to_return = true;
            }
        }
    }

    /// R15 — discarded fabric effects, with the entry-to-site path.
    fn discarded_effects(&self) -> Vec<Finding> {
        let mut hits = Vec::new();
        for n in 0..self.g.nodes.len() {
            let node = &self.g.nodes[n];
            if !self.files[node.file].ctx.sim_driven() {
                continue;
            }
            let item = self.g.item(self.files, n);
            for (bi, block) in item.cfg.blocks.iter().enumerate() {
                for stmt in &block.stmts {
                    if !stmt.is_discard {
                        continue;
                    }
                    let Some(call) = stmt.calls.iter().find(|c| {
                        c.kind != CallKind::Macro && EFFECT_CALLS.contains(&c.name.as_str())
                    }) else {
                        continue;
                    };
                    let what = if call.recv.is_empty() {
                        format!("{}()", call.name)
                    } else {
                        format!("{}.{}()", call.recv, call.name)
                    };
                    let path = entry_path(&item.cfg, bi, stmt.line);
                    hits.push((
                        node.file,
                        stmt.line,
                        format!(
                            "`{}` discards the Result of `{what}` at line {} (path {path}); \
                             a dropped fabric effect is a silent message loss — handle or \
                             propagate the error, or annotate with \
                             `hetlint: allow(r15) — <why>`",
                            item.qname, stmt.line
                        ),
                    ));
                }
            }
        }
        hits
    }

    /// R16 — guards live across suspension points, by CFG path search.
    fn lock_across(&self, may_block: &[bool]) -> Vec<Finding> {
        let mut hits = Vec::new();
        for n in 0..self.g.nodes.len() {
            let item = self.g.item(self.files, n);
            for (bi, block) in item.cfg.blocks.iter().enumerate() {
                for (si, stmt) in block.stmts.iter().enumerate() {
                    for lock in &stmt.locks {
                        let Some(guard) = lock.guard.clone() else { continue };
                        self.guard_paths(n, may_block, (bi, si), lock, &guard, &mut hits);
                    }
                }
            }
        }
        hits
    }

    /// BFS over `(block, stmt)` positions from one acquisition; a
    /// `drop(guard)` kills the path, every suspension point on a
    /// surviving path is a hit with its witness line sequence.
    fn guard_paths(
        &self,
        n: usize,
        may_block: &[bool],
        acq: (usize, usize),
        lock: &crate::cfg::StmtLock,
        guard: &str,
        hits: &mut Vec<Finding>,
    ) {
        let (lock_line, target) = (lock.line, lock.target.as_str());
        let node = &self.g.nodes[n];
        let item = self.g.item(self.files, n);
        let cfg = &item.cfg;
        // Positions: (block, idx); idx == stmts.len() is the block-end
        // marker that fans out to successors.
        let start = (acq.0, acq.1 + 1);
        let mut parent: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
        let mut visited: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        visited.insert(start);
        queue.push_back(start);
        while let Some(pos) = queue.pop_front() {
            let (b, i) = pos;
            if i >= cfg.blocks[b].stmts.len() {
                for &s in &cfg.blocks[b].succs {
                    let next = (s, 0);
                    if visited.insert(next) {
                        parent.insert(next, pos);
                        queue.push_back(next);
                    }
                }
                continue;
            }
            let stmt = &cfg.blocks[b].stmts[i];
            let targets = self.sites[n].of(b, i, stmt);
            if let Some(what) = self.suspension_of(n, may_block, stmt, targets) {
                let mut lines = vec![stmt.line];
                let mut cur = pos;
                while let Some(&p) = parent.get(&cur) {
                    let (pb, pi) = p;
                    if pi < cfg.blocks[pb].stmts.len() {
                        let l = cfg.blocks[pb].stmts[pi].line;
                        if lines.last() != Some(&l) {
                            lines.push(l);
                        }
                    }
                    cur = p;
                }
                if lines.last() != Some(&lock_line) {
                    lines.push(lock_line);
                }
                lines.reverse();
                let path: Vec<String> = lines.iter().map(|l| format!("line {l}")).collect();
                hits.push((
                    node.file,
                    stmt.line,
                    format!(
                        "`{}` holds guard `{guard}` on `{target}` (line {lock_line}) across \
                         {what} (line {}); witness path: {}; drop the guard before the \
                         suspension point",
                        item.qname,
                        stmt.line,
                        path.join(" -> ")
                    ),
                ));
            }
            // A `drop(guard)` releases the lock; the path ends here.
            if stmt.drops.iter().any(|d| d == guard) {
                continue;
            }
            let next = (b, i + 1);
            if visited.insert(next) {
                parent.insert(next, pos);
                queue.push_back(next);
            }
        }
    }

    /// What makes a statement a suspension point for R16, if anything.
    fn suspension_of(
        &self,
        n: usize,
        may_block: &[bool],
        stmt: &Stmt,
        targets: &[Vec<usize>],
    ) -> Option<String> {
        if let Some(b) = stmt.blocking.first() {
            return Some(format!("blocking `{b}`"));
        }
        if stmt.has_await {
            return Some("an `.await` suspension point".to_string());
        }
        for &t in targets.iter().flatten() {
            if t != n && may_block[t] {
                return Some(format!(
                    "a call to `{}`, which can block (transitively)",
                    self.g.nodes[t].qname
                ));
            }
        }
        None
    }
}

/// The shortest block path entry → `target`, rendered as first-stmt
/// lines, ending at `site_line` (the R15 witness).
fn entry_path(cfg: &Cfg, target: usize, site_line: usize) -> String {
    let mut parent: Vec<Option<usize>> = vec![None; cfg.blocks.len()];
    let mut visited = vec![false; cfg.blocks.len()];
    let mut queue = VecDeque::new();
    visited[cfg.entry] = true;
    queue.push_back(cfg.entry);
    while let Some(b) = queue.pop_front() {
        if b == target {
            break;
        }
        for &s in &cfg.blocks[b].succs {
            if !visited[s] {
                visited[s] = true;
                parent[s] = Some(b);
                queue.push_back(s);
            }
        }
    }
    let mut blocks = vec![target];
    let mut cur = target;
    while let Some(p) = parent[cur] {
        blocks.push(p);
        cur = p;
    }
    blocks.reverse();
    let mut parts = vec!["entry".to_string()];
    for &b in blocks.iter().take(blocks.len().saturating_sub(1)) {
        if let Some(s) = cfg.blocks[b].stmts.first() {
            let part = format!("line {}", s.line);
            if parts.last() != Some(&part) {
                parts.push(part);
            }
        }
    }
    let last = format!("line {site_line}");
    if parts.last() != Some(&last) {
        parts.push(last);
    }
    parts.join(" -> ")
}

/// Ambient nondeterminism sources recognizable from a single call.
fn ambient_source(call: &StmtCall) -> Option<(TaintKind, String)> {
    match call.kind {
        CallKind::Path => {
            let has = |s: &str| call.segs.iter().any(|seg| seg == s);
            if has("SystemTime") || has("Instant") {
                return Some((TaintKind::WallClock, format!("{}()", call.segs.join("::"))));
            }
            if has("thread") && call.name == "current" {
                return Some((TaintKind::ThreadId, "thread::current()".to_string()));
            }
            if has("env")
                && matches!(call.name.as_str(), "var" | "var_os" | "vars" | "args" | "args_os")
            {
                return Some((TaintKind::Env, format!("env::{}()", call.name)));
            }
            None
        }
        CallKind::Method => None,
        CallKind::Macro => {
            if matches!(
                call.name.as_str(),
                "format" | "format_args" | "write" | "writeln" | "print" | "println"
            ) && call.strs.iter().any(|s| s.contains(":p}"))
            {
                return Some((
                    TaintKind::PointerFmt,
                    format!("`{}!` with a {{:p}} pointer format", call.name),
                ));
            }
            None
        }
    }
}

/// Determinism-sensitive sinks recognizable from a single call.
fn local_sink(call: &StmtCall) -> Option<&'static str> {
    match call.kind {
        CallKind::Method => match call.name.as_str() {
            "emit" => Some("Tracer::emit"),
            "substream" => Some("SimRng::substream"),
            "fold_event" | "fold_bytes" => Some("the trace digest fold"),
            "intern" => Some("Symbol interning"),
            _ => None,
        },
        CallKind::Path => {
            let pair = |a: &str, b: &str| {
                call.segs.len() >= 2
                    && call.segs[call.segs.len() - 2] == a
                    && call.segs[call.segs.len() - 1] == b
            };
            if pair("Symbol", "intern") {
                Some("Symbol interning")
            } else if pair("SimRng", "from_seed") {
                Some("SimRng::from_seed")
            } else if pair("SimRng", "stream") {
                Some("SimRng::stream")
            } else {
                None
            }
        }
        CallKind::Macro => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph, lint_file, FileContext, FileKind, LintedFile};

    fn set(files: &[(&str, &str, &str)]) -> Vec<LintedFile> {
        files
            .iter()
            .map(|(krate, rel, src)| {
                lint_file(&FileContext::new(krate, FileKind::LibSrc, rel), src)
            })
            .collect()
    }

    fn run(files: &mut [LintedFile], ratchet: &str) -> Outcome {
        let budgets = crate::ratchet::parse(ratchet).expect("ratchet parses");
        let g = graph::build(files);
        check(files, &budgets, &g)
    }

    fn rule_hits(files: &[LintedFile], rule: RuleId) -> Vec<&Violation> {
        files
            .iter()
            .flat_map(|f| f.report.violations.iter())
            .filter(|v| v.rule == rule)
            .collect()
    }

    #[test]
    fn r14_wall_clock_flows_to_emit_with_chain() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f(tr: T) {\nlet t = SystemTime::now();\nlet label = t;\ntr.emit(kind, label);\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R14);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("Tracer::emit"), "{}", v[0].message);
        assert!(
            v[0].message.contains("SystemTime::now() (line 2) -> `t` (line 2) -> `label` (line 3)"),
            "chain missing: {}",
            v[0].message
        );
    }

    #[test]
    fn r14_kill_on_clean_redefinition() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f(tr: T) {\nlet t = SystemTime::now();\nlet t = 0u64;\ntr.emit(kind, t);\n}\n",
        )]);
        run(&mut files, "");
        assert!(rule_hits(&files, RuleId::R14).is_empty());
    }

    #[test]
    fn r14_branch_taint_survives_the_join() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f(tr: T, c: bool) {\nlet mut x = 0u64;\nif c {\nx = seed_of();\n}\ntr.emit(kind, x);\n}\nfn seed_of() -> u64 {\nlet e = std::env::var(\"S\");\ne\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R14);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("process-environment data"), "{}", v[0].message);
        assert!(
            v[0].message.contains("returned by `sim::a::seed_of`"),
            "interprocedural hop missing: {}",
            v[0].message
        );
    }

    #[test]
    fn r14_hash_iteration_order_into_seed() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f() {\nlet m = HashMap::new();\nlet k = m.keys();\nlet r = SimRng::from_seed(k);\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R14);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("hash-iteration order"), "{}", v[0].message);
        assert!(v[0].message.contains("SimRng::from_seed"), "{}", v[0].message);
    }

    #[test]
    fn r14_tainted_argument_reaches_sink_inside_callee() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f(tr: T) {\nlet t = Instant::now();\nrecord(tr, t);\n}\nfn record(tr: T, v: u64) {\ntr.emit(kind, v);\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R14);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("passes wall-clock time into `sim::a::record`"),
            "{}", v[0].message);
        assert!(v[0].message.contains("Tracer::emit"), "{}", v[0].message);
    }

    #[test]
    fn r14_budget_and_allow_mirror_r13() {
        let src = "fn f(tr: T) {\nlet t = SystemTime::now();\ntr.emit(kind, t);\n}\n";
        // Within budget: a note, no violation.
        let mut files = set(&[("sim", "crates/sim/src/a.rs", src)]);
        let out = run(&mut files, "r14 = 1\n");
        assert_eq!(out.nondet_taint, (1, 1));
        assert!(rule_hits(&files, RuleId::R14).is_empty());
        assert!(out.notes.iter().any(|n| n.contains("R14 within budget")), "{:?}", out.notes);
        // Allowed: suppressed, not counted against the budget.
        let allowed = "fn f(tr: T) {\nlet t = SystemTime::now();\n// hetlint: allow(r14) — diagnostic panel, not folded into the digest\ntr.emit(kind, t);\n}\n";
        let mut files = set(&[("sim", "crates/sim/src/a.rs", allowed)]);
        let out = run(&mut files, "");
        assert_eq!(out.nondet_taint, (0, 0));
        assert!(rule_hits(&files, RuleId::R14).is_empty());
        assert!(files[0].report.suppressed.iter().any(|v| v.rule == RuleId::R14));
    }

    #[test]
    fn r14_silent_outside_sim_driven_crates() {
        let mut files = set(&[(
            "lint",
            "crates/lint/src/a.rs",
            "fn f(tr: T) {\nlet t = SystemTime::now();\ntr.emit(kind, t);\n}\n",
        )]);
        let out = run(&mut files, "");
        assert_eq!(out.nondet_taint, (0, 0));
        assert!(rule_hits(&files, RuleId::R14).is_empty());
    }

    #[test]
    fn r15_discard_of_fabric_effect_with_path() {
        let mut files = set(&[(
            "fabric",
            "crates/fabric/src/h.rs",
            "fn teardown(ep: E, c: bool) {\nif c {\nlet _ = ep.send_now(msg);\n}\n}\n",
        )]);
        let out = run(&mut files, "");
        assert_eq!(out.discarded_effects, (1, 0));
        let v = rule_hits(&files, RuleId::R15);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("`ep.send_now()`"), "{}", v[0].message);
        assert!(v[0].message.contains("path entry -> line 2 -> line 3"), "{}", v[0].message);
    }

    #[test]
    fn r15_allow_and_budget() {
        let allowed = "fn teardown(ep: E) {\n// hetlint: allow(r15) — teardown: the peer may already be gone\nlet _ = ep.send_now(msg);\n}\n";
        let mut files = set(&[("fabric", "crates/fabric/src/h.rs", allowed)]);
        let out = run(&mut files, "");
        assert_eq!(out.discarded_effects, (0, 0));
        assert!(rule_hits(&files, RuleId::R15).is_empty());
        assert!(files[0].report.suppressed.iter().any(|v| v.rule == RuleId::R15));
        // Budgeted: a note instead of a violation.
        let bare = "fn teardown(ep: E) {\nlet _ = ep.send_now(msg);\n}\n";
        let mut files = set(&[("fabric", "crates/fabric/src/h.rs", bare)]);
        let out = run(&mut files, "r15 = 1\n");
        assert_eq!(out.discarded_effects, (1, 1));
        assert!(rule_hits(&files, RuleId::R15).is_empty());
        assert!(out.notes.iter().any(|n| n.contains("R15 within budget")), "{:?}", out.notes);
    }

    #[test]
    fn r15_plain_binding_is_not_a_discard() {
        let mut files = set(&[(
            "fabric",
            "crates/fabric/src/h.rs",
            "fn fwd(ep: E) {\nlet r = ep.send_now(msg);\nr.unwrap_or_default();\n}\n",
        )]);
        let out = run(&mut files, "");
        assert_eq!(out.discarded_effects, (0, 0));
    }

    #[test]
    fn r16_direct_and_transitive_with_witness_paths() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "struct Q;\nimpl Q {\nfn direct(&self) {\nlet g = self.state.lock();\nself.cv.wait(g);\n}\nfn indirect(&self) {\nlet g = self.state.lock();\nself.blocky();\ndrop(g);\n}\nfn blocky(&self) {\nself.cv.wait(x);\n}\nfn fine(&self) {\nlet g = self.state.lock();\ndrop(g);\nself.blocky();\n}\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R16);
        assert_eq!(v.len(), 2, "direct + transitive, not the post-drop call: {v:?}");
        assert!(v[0].message.contains("blocking `wait`"), "{}", v[0].message);
        assert!(v[0].message.contains("witness path: line 4 -> line 5"), "{}", v[0].message);
        assert!(v[1].message.contains("can block (transitively)"), "{}", v[1].message);
        assert!(v[1].message.contains("witness path: line 8 -> line 9"), "{}", v[1].message);
    }

    #[test]
    fn r16_branch_that_drops_is_clean_other_branch_flags() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "struct Q;\nimpl Q {\nfn f(&self, c: bool) {\nlet g = self.m.lock();\nif c {\ndrop(g);\n} else {\nself.cv.wait(g);\n}\n}\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R16);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 8);
        assert!(v[0].message.contains("witness path: line 4 -> line 5 -> line 8"),
            "{}", v[0].message);
    }

    #[test]
    fn r16_await_under_guard_flags() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "struct Q;\nimpl Q {\nasync fn f(&self) {\nlet g = self.m.lock();\nself.ch.recv().await;\ndrop(g);\n}\n}\n",
        )]);
        run(&mut files, "");
        let v = rule_hits(&files, RuleId::R16);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`.await` suspension point"), "{}", v[0].message);
    }

    #[test]
    fn r16_suppressible_at_the_suspension() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "struct Q;\nimpl Q {\nfn f(&self) {\nlet g = self.state.lock();\n// hetlint: allow(r16) — guard protects the wait predicate itself\nself.cv.wait(g);\n}\n}\n",
        )]);
        run(&mut files, "");
        assert!(rule_hits(&files, RuleId::R16).is_empty());
        assert!(files[0].report.suppressed.iter().any(|v| v.rule == RuleId::R16));
    }

    #[test]
    fn worklist_reaches_the_fixed_point_and_a_cap_is_never_silent() {
        let src = "fn f(tr: T) {\nlet t = Instant::now();\nping(tr, t);\n}\n\
            fn ping(tr: T, v: u64) {\ntr.emit(kind, v);\npong(tr, v);\n}\n\
            fn pong(tr: T, v: u64) {\nping(tr, v);\n}\n";
        let mut files = set(&[("sim", "crates/sim/src/a.rs", src)]);
        let out = run(&mut files, "");
        // Three initial analyses; `ping` changes and requeues `f`
        // (`pong` is still queued), `pong` changes and requeues `ping`.
        assert_eq!(out.fixed_point, FixedPoint { reached: true, analyses: 5 });
        assert!(!out.notes.iter().any(|n| n.contains("fixed point")), "{:?}", out.notes);

        let mut files = set(&[("sim", "crates/sim/src/a.rs", src)]);
        let budgets = crate::ratchet::parse("").unwrap();
        let g = graph::build(&files);
        let out = check_within(&mut files, &budgets, &g, 1);
        assert_eq!(out.fixed_point, FixedPoint { reached: false, analyses: 3 });
        assert!(
            out.notes.iter().any(|n| n.contains("stopped short of their fixed point after 3")),
            "{:?}",
            out.notes
        );
    }

    #[test]
    fn doc_carries_summaries_and_findings() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn now_ms() -> u64 {\nlet t = SystemTime::now();\nt\n}\nfn ident(v: u64) -> u64 {\nv\n}\n",
        )]);
        let out = run(&mut files, "");
        let now = out.doc.fns.iter().find(|f| f.qname == "sim::a::now_ms").unwrap();
        assert_eq!(now.returns_taint.as_deref(), Some("wall-clock time"));
        let ident = out.doc.fns.iter().find(|f| f.qname == "sim::a::ident").unwrap();
        assert!(ident.param_to_return);
        assert!(ident.returns_taint.is_none());
    }
}
