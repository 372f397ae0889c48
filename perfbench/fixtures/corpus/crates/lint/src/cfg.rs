//! Per-function control-flow graphs over the token stream.
//!
//! The item parser gives hetlint *which* functions exist and what they
//! call; this layer gives it *order*: basic blocks of statements joined
//! by branch, loop, match, and early-return edges. The dataflow rules
//! (R14–R16) run fixed points over these graphs, so every statement
//! carries the facts gen/kill needs — bindings defined, identifiers
//! used, call expressions with their arguments, lock acquisitions and
//! guard drops, `.await` points, potentially-blocking calls, and `?`
//! early exits.
//!
//! Like the item parser, this is deliberately not a full Rust parser.
//! Statement-level `if`/`else`, `while`/`for`/`loop`, and `match` get
//! real branch structure; *expression*-level control flow
//! (`let x = if c { a } else { b };`, closures, `let … else`) is
//! flattened into the enclosing statement — its defs and uses merge,
//! which only ever over-approximates taint. Nested `fn` items are
//! skipped (they parse as their own items); closure bodies belong to
//! the statement that contains them.

use crate::lexer::{Tok, TokKind};

/// How a call inside a statement names its target (mirrors
/// [`crate::parser::Callee`] but stays token-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` / `a::b::foo(..)`.
    Path,
    /// `recv.foo(..)`.
    Method,
    /// `name!(..)`.
    Macro,
}

/// One call expression inside a statement, with the argument material
/// the taint engine reads.
#[derive(Clone, Debug)]
pub struct StmtCall {
    /// Final name: last path segment, method name, or macro name.
    pub name: String,
    /// Full path segments for [`CallKind::Path`] (`["SystemTime",
    /// "now"]`); empty otherwise.
    pub segs: Vec<String>,
    /// Receiver identifier chain for [`CallKind::Method`] (`self.queue`,
    /// `tracer`); empty otherwise.
    pub recv: String,
    /// Identifier arguments anywhere inside the parentheses
    /// (best-effort, flattened across nesting).
    pub args: Vec<String>,
    /// String-literal arguments (format strings, stream names).
    pub strs: Vec<String>,
    /// What syntactic form the call took.
    pub kind: CallKind,
    /// 1-based line of the call name.
    pub line: usize,
}

/// A lock acquisition inside a statement.
#[derive(Clone, Debug)]
pub struct StmtLock {
    /// Identifier chain of the locked object (`self.state`).
    pub target: String,
    /// The guard's binding when the statement is `let g = ….lock()…`;
    /// `None` for temporaries that die at the statement's end.
    pub guard: Option<String>,
    /// 1-based line.
    pub line: usize,
}

/// One statement with the facts the dataflow engine consumes.
#[derive(Clone, Debug, Default)]
pub struct Stmt {
    /// 1-based line of the statement's first token.
    pub line: usize,
    /// Bindings this statement introduces (`let` patterns, simple
    /// assignment targets). Pattern idents are collected
    /// over-approximately; `_` never appears here.
    pub defs: Vec<String>,
    /// Identifiers the statement reads (filtered: no call names, path
    /// prefixes, field names, or keywords).
    pub uses: Vec<String>,
    /// Call expressions, in source order.
    pub calls: Vec<StmtCall>,
    /// True for `let _ = …` — a value deliberately discarded.
    pub is_discard: bool,
    /// True when the statement contains an `.await` point.
    pub has_await: bool,
    /// True when the statement contains a `?` operator (adds an edge
    /// from the enclosing block to the exit block).
    pub has_try: bool,
    /// True for `return …` statements and block tail expressions.
    pub is_return: bool,
    /// Lock acquisitions in the statement.
    pub locks: Vec<StmtLock>,
    /// Guards released by `drop(<name>)` in the statement.
    pub drops: Vec<String>,
    /// Potentially thread-blocking operations (`wait`, `recv`, `join`,
    /// `scope`) not immediately `.await`ed.
    pub blocking: Vec<String>,
}

/// A basic block: straight-line statements plus successor edges.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// A function body's control-flow graph. Always has an entry and a
/// distinct exit block; every `return`, tail expression, and `?` edge
/// targets the exit.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// Blocks; indices are stable identifiers.
    pub blocks: Vec<Block>,
    /// Index of the entry block.
    pub entry: usize,
    /// Index of the exit block (always empty of statements).
    pub exit: usize,
}

impl Cfg {
    /// Blocks in reverse postorder from the entry — the iteration order
    /// under which a forward fixed point converges fastest.
    pub fn rpo(&self) -> Vec<usize> {
        let mut seen = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit phase marker (the graphs can
        // be deep for long match ladders).
        let mut stack: Vec<(usize, usize)> = vec![(self.entry, 0)];
        seen[self.entry] = true;
        while let Some((node, child)) = stack.pop() {
            if child < self.blocks[node].succs.len() {
                stack.push((node, child + 1));
                let next = self.blocks[node].succs[child];
                if !seen[next] {
                    seen[next] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(node);
            }
        }
        post.reverse();
        post
    }

    /// Predecessor lists (derived; the builder only records succs).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.succs {
                preds[s].push(b);
            }
        }
        preds
    }
}

/// Keywords that can head a statement without being calls or uses.
const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "if", "else", "match", "return", "in", "as", "move", "fn", "for",
    "while", "loop", "true", "false", "break", "continue", "await", "async", "unsafe", "const",
    "static", "struct", "enum", "impl", "dyn", "where", "pub", "crate", "super", "use", "mod",
    "box", "type", "trait", "_",
];

/// Blocking method names (shared contract with the item parser).
const BLOCKING_METHODS: &[&str] = &["wait", "wait_timeout", "recv", "recv_timeout", "join"];

/// Builds the CFG for a function body spanning `toks[lo..hi]` (the
/// tokens strictly between the body braces).
pub fn build(toks: &[Tok], lo: usize, hi: usize) -> Cfg {
    let mut b = Builder {
        t: C(toks),
        cfg: Cfg::default(),
        loops: Vec::new(),
    };
    b.cfg.blocks.push(Block::default()); // entry
    b.cfg.blocks.push(Block::default()); // exit
    b.cfg.entry = 0;
    b.cfg.exit = 1;
    let end = b.seq(lo, hi, 0);
    b.edge(end, 1);
    b.cfg
}

/// Thin token cursor (same shape as the parser's).
#[derive(Clone, Copy)]
struct C<'a>(&'a [Tok]);

impl<'a> C<'a> {
    fn kind(self, i: usize) -> Option<TokKind> {
        self.0.get(i).map(|t| t.kind)
    }
    fn text(self, i: usize) -> &'a str {
        match self.0.get(i) {
            Some(t) => t.text.as_str(),
            None => "",
        }
    }
    fn line(self, i: usize) -> usize {
        self.0.get(i).map(|t| t.line).unwrap_or(0)
    }
    fn id(self, i: usize, s: &str) -> bool {
        self.0.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }
    fn is_id(self, i: usize) -> bool {
        self.kind(i) == Some(TokKind::Ident)
    }
    fn p(self, i: usize, s: &str) -> bool {
        self.0.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }
}

struct Builder<'a> {
    t: C<'a>,
    cfg: Cfg,
    /// Innermost-last `(continue target, break target)` stack.
    loops: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.cfg.blocks.push(Block::default());
        self.cfg.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.cfg.blocks[from].succs.contains(&to) {
            self.cfg.blocks[from].succs.push(to);
        }
    }

    fn push_stmt(&mut self, block: usize, stmt: Stmt) {
        if stmt.has_try {
            let exit = self.cfg.exit;
            self.edge(block, exit);
        }
        self.cfg.blocks[block].stmts.push(stmt);
    }

    /// Index of the `}` matching the `{` at `open` (or `hi`).
    fn matching_brace(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < hi {
            if self.t.p(i, "{") {
                depth += 1;
            } else if self.t.p(i, "}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        hi
    }

    /// First index in `[lo, hi)` where `pred` holds at bracket depth 0
    /// (counting `()`, `[]`, `{}`).
    fn find_depth0(&self, lo: usize, hi: usize, pred: impl Fn(&Self, usize) -> bool) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = lo;
        while i < hi {
            // Test before depth adjustment, so a search *for* an opening
            // bracket can match it.
            if depth == 0 && pred(self, i) {
                return Some(i);
            }
            if self.t.p(i, "(") || self.t.p(i, "[") || self.t.p(i, "{") {
                depth += 1;
            } else if self.t.p(i, ")") || self.t.p(i, "]") || self.t.p(i, "}") {
                depth -= 1;
            }
            i += 1;
        }
        None
    }

    /// End of a flat statement starting at `lo`: the `;` at depth 0, or
    /// `hi` for a tail expression.
    fn stmt_end(&self, lo: usize, hi: usize) -> usize {
        self.find_depth0(lo, hi, |b, i| b.t.p(i, ";")).unwrap_or(hi)
    }

    /// Parses the statement sequence in `[lo, hi)` starting in block
    /// `cur`; returns the block control falls out of.
    fn seq(&mut self, lo: usize, hi: usize, mut cur: usize) -> usize {
        let mut i = lo;
        while i < hi {
            if self.t.p(i, ";") {
                i += 1;
                continue;
            }
            // Nested `fn` items parse as their own items; skip the
            // whole header + body here.
            if self.t.id(i, "fn") && self.t.is_id(i + 1) {
                let semi = self.find_depth0(i, hi, |b, k| b.t.p(k, ";"));
                let open = self.find_depth0(i, hi, |b, k| b.t.p(k, "{"));
                match (open, semi) {
                    (Some(o), Some(s)) if s < o => i = s + 1,
                    (Some(o), _) => i = self.matching_brace(o, hi) + 1,
                    (None, Some(s)) => i = s + 1,
                    (None, None) => i = hi,
                }
                continue;
            }
            if self.t.id(i, "if") {
                let (ni, join) = self.parse_if(i, hi, cur);
                i = ni;
                cur = join;
                continue;
            }
            if self.t.id(i, "while") || self.t.id(i, "for") {
                let Some(open) = self.find_depth0(i + 1, hi, |b, k| b.t.p(k, "{")) else {
                    i += 1;
                    continue;
                };
                let close = self.matching_brace(open, hi);
                let head = self.new_block();
                self.edge(cur, head);
                let cond = self.head_stmt(i, open);
                self.push_stmt(head, cond);
                let body = self.new_block();
                let after = self.new_block();
                self.edge(head, body);
                self.edge(head, after);
                self.loops.push((head, after));
                let body_end = self.seq(open + 1, close, body);
                self.loops.pop();
                self.edge(body_end, head);
                cur = after;
                i = close + 1;
                continue;
            }
            if self.t.id(i, "loop") {
                let Some(open) = self.find_depth0(i + 1, hi, |b, k| b.t.p(k, "{")) else {
                    i += 1;
                    continue;
                };
                let close = self.matching_brace(open, hi);
                let head = self.new_block();
                self.edge(cur, head);
                let after = self.new_block();
                // A bare `loop` only exits through `break` (or `?` /
                // `return` inside), so no head → after edge.
                self.loops.push((head, after));
                let body_end = self.seq(open + 1, close, head);
                self.loops.pop();
                self.edge(body_end, head);
                cur = after;
                i = close + 1;
                continue;
            }
            if self.t.id(i, "match") {
                let (ni, join) = self.parse_match(i, hi, cur);
                i = ni;
                cur = join;
                continue;
            }
            if self.t.id(i, "return") {
                let end = self.stmt_end(i, hi);
                let mut stmt = self.facts(i + 1, end);
                stmt.line = self.t.line(i);
                stmt.is_return = true;
                self.push_stmt(cur, stmt);
                let exit = self.cfg.exit;
                self.edge(cur, exit);
                cur = self.new_block();
                i = end + 1;
                continue;
            }
            if self.t.id(i, "break") || self.t.id(i, "continue") {
                let is_break = self.t.id(i, "break");
                let end = self.stmt_end(i, hi);
                if let Some(&(head, after)) = self.loops.last() {
                    self.edge(cur, if is_break { after } else { head });
                }
                cur = self.new_block();
                i = end + 1;
                continue;
            }
            if self.t.id(i, "unsafe") && self.t.p(i + 1, "{") {
                i += 1;
                continue;
            }
            if self.t.p(i, "{") {
                let close = self.matching_brace(i, hi);
                cur = self.seq(i + 1, close, cur);
                i = close + 1;
                continue;
            }
            // Flat statement (possibly a tail expression).
            let end = self.stmt_end(i, hi);
            let mut stmt = self.facts(i, end);
            if end >= hi {
                stmt.is_return = true;
            }
            self.push_stmt(cur, stmt);
            i = end + 1;
        }
        cur
    }

    /// Parses `if cond { … } [else if … | else { … }]` starting at the
    /// `if`; returns `(next index, join block)`.
    fn parse_if(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.find_depth0(i + 1, hi, |b, k| b.t.p(k, "{")) else {
            return (i + 1, cur);
        };
        let close = self.matching_brace(open, hi);
        let cond = self.head_stmt(i, open);
        self.push_stmt(cur, cond);
        let then_b = self.new_block();
        self.edge(cur, then_b);
        let then_end = self.seq(open + 1, close, then_b);
        if self.t.id(close + 1, "else") {
            if self.t.id(close + 2, "if") {
                let else_b = self.new_block();
                self.edge(cur, else_b);
                let (ni, inner_join) = self.parse_if(close + 2, hi, else_b);
                let join = self.new_block();
                self.edge(then_end, join);
                self.edge(inner_join, join);
                return (ni, join);
            }
            if self.t.p(close + 2, "{") {
                let eclose = self.matching_brace(close + 2, hi);
                let else_b = self.new_block();
                self.edge(cur, else_b);
                let else_end = self.seq(close + 3, eclose, else_b);
                let join = self.new_block();
                self.edge(then_end, join);
                self.edge(else_end, join);
                return (eclose + 1, join);
            }
        }
        let join = self.new_block();
        self.edge(then_end, join);
        self.edge(cur, join);
        (close + 1, join)
    }

    /// Parses `match expr { arms }`; returns `(next index, join block)`.
    fn parse_match(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.find_depth0(i + 1, hi, |b, k| b.t.p(k, "{")) else {
            return (i + 1, cur);
        };
        let close = self.matching_brace(open, hi);
        let scrut = self.head_stmt(i, open);
        self.push_stmt(cur, scrut);
        let join = self.new_block();
        let mut any_arm = false;
        let mut j = open + 1;
        while j < close {
            if self.t.p(j, ",") {
                j += 1;
                continue;
            }
            // Pattern (with optional guard) up to `=>`.
            let Some(arrow) = self.find_depth0(j, close, |b, k| b.t.p(k, "=") && b.t.p(k + 1, ">"))
            else {
                break;
            };
            let arm_b = self.new_block();
            self.edge(cur, arm_b);
            any_arm = true;
            // Pattern bindings become defs of a synthetic head stmt;
            // a guard's identifiers become its uses.
            let mut head = Stmt { line: self.t.line(j), ..Stmt::default() };
            collect_pattern_defs(self.t, j, arrow, &mut head.defs);
            if let Some(g) = (j..arrow).find(|&k| self.t.id(k, "if")) {
                collect_uses(self.t, g + 1, arrow, &mut head.uses);
            }
            self.push_stmt(arm_b, head);
            let body_start = arrow + 2;
            let arm_end = if self.t.p(body_start, "{") {
                let bclose = self.matching_brace(body_start, close);
                let end = self.seq(body_start + 1, bclose, arm_b);
                j = bclose + 1;
                end
            } else {
                let bend = self
                    .find_depth0(body_start, close, |b, k| b.t.p(k, ","))
                    .unwrap_or(close);
                let mut stmt = self.facts(body_start, bend);
                stmt.line = self.t.line(body_start);
                self.push_stmt(arm_b, stmt);
                j = bend + 1;
                arm_b
            };
            self.edge(arm_end, join);
        }
        if !any_arm {
            self.edge(cur, join);
        }
        (close + 1, join)
    }

    /// The condition/scrutinee statement of an `if`/`while`/`for`/
    /// `match` head spanning `[kw, open)`.
    fn head_stmt(&self, kw: usize, open: usize) -> Stmt {
        let t = self.t;
        let mut stmt;
        if t.id(kw, "for") {
            // `for pat in expr` — pattern defs, expression uses.
            let in_at = (kw + 1..open).find(|&k| t.id(k, "in")).unwrap_or(open);
            stmt = self.facts(in_at + 1, open);
            collect_pattern_defs(t, kw + 1, in_at, &mut stmt.defs);
        } else if t.id(kw + 1, "let") {
            // `if let pat = expr` / `while let pat = expr`.
            let eq = (kw + 2..open)
                .find(|&k| t.p(k, "=") && !t.p(k + 1, "="))
                .unwrap_or(open);
            stmt = self.facts(eq + 1, open);
            collect_pattern_defs(t, kw + 2, eq, &mut stmt.defs);
        } else {
            stmt = self.facts(kw + 1, open);
        }
        stmt.line = t.line(kw);
        stmt
    }

    /// Extracts statement facts from the flat token span `[lo, hi)`.
    fn facts(&self, lo: usize, hi: usize) -> Stmt {
        let t = self.t;
        let mut stmt = Stmt { line: t.line(lo), ..Stmt::default() };
        let mut uses_from = lo;

        if t.id(lo, "let") {
            // Pattern up to the `=` at depth 0 (generic angle brackets
            // are not bracket tokens, so `let x: Vec<u8> = …` finds the
            // right `=`).
            let eq = self
                .find_depth0(lo + 1, hi, |b, k| b.t.p(k, "=") && !b.t.p(k + 1, "="))
                .unwrap_or(hi);
            // Type annotations end the binding region at depth 0.
            let colon = self
                .find_depth0(lo + 1, eq, |b, k| b.t.p(k, ":"))
                .unwrap_or(eq);
            stmt.is_discard = t.id(lo + 1, "_") && (t.p(lo + 2, "=") || t.p(lo + 2, ":"));
            collect_pattern_defs(t, lo + 1, colon, &mut stmt.defs);
            uses_from = eq + 1;
        } else if t.is_id(lo) && !KEYWORDS.contains(&t.text(lo)) {
            // Simple assignment / compound assignment to a local.
            let target = t.text(lo).to_string();
            if t.p(lo + 1, "=") && !t.p(lo + 2, "=") {
                stmt.defs.push(target);
                uses_from = lo + 2;
            } else if matches!(t.text(lo + 1), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
                && t.kind(lo + 1) == Some(TokKind::Punct)
                && t.p(lo + 2, "=")
            {
                // Compound assignment both reads and writes the target.
                stmt.defs.push(target.clone());
                stmt.uses.push(target);
                uses_from = lo + 3;
            }
        }

        collect_uses(t, uses_from, hi, &mut stmt.uses);
        self.collect_calls(lo, hi, &mut stmt);

        let mut k = lo;
        while k + 1 < hi {
            if t.p(k, ".") && t.id(k + 1, "await") {
                stmt.has_await = true;
            }
            k += 1;
        }
        stmt.has_try = (lo..hi).any(|k| t.p(k, "?"));
        stmt
    }

    /// Collects call expressions (with lock/blocking/drop facts) from
    /// the span into `stmt`.
    fn collect_calls(&self, lo: usize, hi: usize, stmt: &mut Stmt) {
        let t = self.t;
        let mut i = lo;
        while i < hi {
            // Method call `.name(`.
            if t.p(i, ".") && t.is_id(i + 1) && t.p(i + 2, "(") {
                let name = t.text(i + 1).to_string();
                let line = t.line(i + 1);
                let recv = receiver_chain(t, i);
                let (args, strs) = call_args(t, i + 2, hi);
                if name == "lock" {
                    stmt.locks.push(StmtLock {
                        target: recv.clone(),
                        guard: match (&stmt.defs.first(), stmt.is_discard) {
                            (Some(g), false) => Some((*g).clone()),
                            _ => None,
                        },
                        line,
                    });
                }
                if BLOCKING_METHODS.contains(&name.as_str()) && !awaited_after(t, i + 2, hi) {
                    stmt.blocking.push(name.clone());
                }
                stmt.calls.push(StmtCall {
                    name,
                    segs: Vec::new(),
                    recv,
                    args,
                    strs,
                    kind: CallKind::Method,
                    line,
                });
                i += 3;
                continue;
            }
            // Macro `name!(` / `name![` / `name!{`.
            if t.is_id(i)
                && t.p(i + 1, "!")
                && (t.p(i + 2, "(") || t.p(i + 2, "[") || t.p(i + 2, "{"))
            {
                let name = t.text(i).to_string();
                let (args, strs) = call_args(t, i + 2, hi);
                stmt.calls.push(StmtCall {
                    name,
                    segs: Vec::new(),
                    recv: String::new(),
                    args,
                    strs,
                    kind: CallKind::Macro,
                    line: t.line(i),
                });
                i += 3;
                continue;
            }
            // Path call `a::b::c(` at the final segment.
            if t.is_id(i) && t.p(i + 1, "(") && !t.p(i.wrapping_sub(1), ".") {
                let name = t.text(i);
                if KEYWORDS.contains(&name) {
                    i += 1;
                    continue;
                }
                let mut segs = vec![name.to_string()];
                let mut k = i;
                while k >= 2 && t.p(k - 1, "::") && t.is_id(k - 2) {
                    segs.insert(0, t.text(k - 2).to_string());
                    k -= 2;
                }
                let (args, strs) = call_args(t, i + 1, hi);
                if segs.len() == 1 && name == "drop" && args.len() == 1 {
                    stmt.drops.push(args[0].clone());
                }
                if name == "scope" && segs.iter().any(|s| s == "thread") {
                    stmt.blocking.push("scope".to_string());
                }
                stmt.calls.push(StmtCall {
                    name: name.to_string(),
                    segs,
                    recv: String::new(),
                    args,
                    strs,
                    kind: CallKind::Path,
                    line: t.line(i),
                });
                i += 2;
                continue;
            }
            i += 1;
        }
    }
}

/// Identifier and string-literal arguments inside the bracket pair
/// opening at `open` (bounded by `hi`).
fn call_args(t: C<'_>, open: usize, hi: usize) -> (Vec<String>, Vec<String>) {
    let close_of = |o: &str| match o {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let open_text = t.text(open).to_string();
    let close_text = close_of(&open_text);
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut strs = Vec::new();
    let mut i = open;
    while i < hi {
        if t.p(i, "(") || t.p(i, "[") || t.p(i, "{") {
            depth += 1;
        } else if t.p(i, ")") || t.p(i, "]") || t.p(i, "}") {
            depth -= 1;
            if depth == 0 && t.text(i) == close_text {
                break;
            }
        } else if depth >= 1 {
            if t.kind(i) == Some(TokKind::Str) {
                strs.push(t.text(i).to_string());
            } else if t.is_id(i) && use_like(t, i) {
                let name = t.text(i).to_string();
                if !args.contains(&name) {
                    args.push(name);
                }
            }
        }
        i += 1;
    }
    (args, strs)
}

/// True when the call whose argument list opens at `open` is
/// immediately `.await`ed.
fn awaited_after(t: C<'_>, open: usize, hi: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open;
    while j < hi {
        if t.p(j, "(") {
            depth += 1;
        } else if t.p(j, ")") {
            depth -= 1;
            if depth == 0 {
                return t.p(j + 1, ".") && t.id(j + 2, "await");
            }
        }
        j += 1;
    }
    false
}

/// The `a.b.c` identifier chain ending just before the dot at `dot`.
fn receiver_chain(t: C<'_>, dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot;
    while k >= 1 {
        if t.is_id(k - 1) {
            parts.insert(0, t.text(k - 1).to_string());
            if k >= 3 && (t.p(k - 2, ".") || t.p(k - 2, "::")) {
                k -= 2;
                continue;
            }
        }
        break;
    }
    parts.join(".")
}

/// True when the identifier at `i` reads a value (not a call name, path
/// prefix, macro name, field name, or struct-field key).
fn use_like(t: C<'_>, i: usize) -> bool {
    let text = t.text(i);
    if KEYWORDS.contains(&text) {
        return false;
    }
    // Locals are snake_case; uppercase-initial idents are types, enum
    // variants, or deterministic consts — never taint carriers.
    if text.chars().next().is_some_and(|c| c.is_uppercase()) {
        return false;
    }
    if t.p(i + 1, "!") || t.p(i + 1, "::") || t.p(i + 1, "(") {
        return false;
    }
    // `key:` in struct literals and type ascriptions (but `::` is a
    // single token, so paths are unaffected).
    if t.p(i + 1, ":") {
        return false;
    }
    // Field or method name after a dot — the chain head is the use.
    if i >= 1 && t.p(i - 1, ".") {
        return false;
    }
    true
}

/// Collects reads from an expression span.
fn collect_uses(t: C<'_>, lo: usize, hi: usize, out: &mut Vec<String>) {
    for i in lo..hi {
        if t.is_id(i) && use_like(t, i) {
            let name = t.text(i).to_string();
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
}

/// Collects binding names from a pattern span: lowercase-initial
/// identifiers that are not keywords, path prefixes, or struct-pattern
/// field keys (`Foo { a: x }` binds `x`, not `a` — but collecting both
/// only over-approximates, so the filter stays simple).
fn collect_pattern_defs(t: C<'_>, lo: usize, hi: usize, out: &mut Vec<String>) {
    for i in lo..hi {
        if !t.is_id(i) {
            continue;
        }
        let text = t.text(i);
        if KEYWORDS.contains(&text) || text == "_" {
            continue;
        }
        if text.chars().next().is_some_and(|c| c.is_uppercase()) {
            continue;
        }
        if t.p(i + 1, "::") || t.p(i + 1, "!") {
            continue;
        }
        // A guard begins at `if`; everything after it reads, not binds.
        if (lo..i).any(|k| t.id(k, "if")) {
            break;
        }
        let name = text.to_string();
        if !out.contains(&name) {
            out.push(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    /// Builds the CFG of `fn f() { <body> }` for a body snippet.
    fn cfg_of(body: &str) -> Cfg {
        let src = format!("fn f() {{ {body} }}\n");
        let lex = lexer::lex(&src);
        let toks = &lex.tokens;
        let open = toks.iter().position(|t| t.text == "{").expect("open");
        let close = toks.len() - 1; // last token is the closing brace
        build(toks, open + 1, close)
    }

    /// All statements in RPO order, flattened.
    fn stmts(cfg: &Cfg) -> Vec<Stmt> {
        cfg.rpo()
            .into_iter()
            .flat_map(|b| cfg.blocks[b].stmts.clone())
            .collect()
    }

    #[test]
    fn straight_line_single_block() {
        let cfg = cfg_of("let x = source(); consume(x);");
        // entry(+stmts) and exit.
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 2);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
        let s = &cfg.blocks[cfg.entry].stmts[0];
        assert_eq!(s.defs, vec!["x"]);
        assert!(s.calls.iter().any(|c| c.name == "source"));
        let s2 = &cfg.blocks[cfg.entry].stmts[1];
        assert_eq!(s2.uses, vec!["x"]);
    }

    #[test]
    fn if_else_branches_join() {
        let cfg = cfg_of("let a = one(); if cond { f(a); } else { g(a); } after();");
        // entry → then, entry → else; both → join.
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.succs.len(), 2, "two branch successors: {cfg:?}");
        let join_candidates: Vec<usize> = entry
            .succs
            .iter()
            .map(|&b| cfg.blocks[b].succs[0])
            .collect();
        assert_eq!(join_candidates[0], join_candidates[1], "branches meet at one join");
        let join = join_candidates[0];
        assert_eq!(cfg.blocks[join].stmts.len(), 1, "after() lives in the join block");
        assert_eq!(cfg.blocks[join].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_without_else_skips_to_join() {
        let cfg = cfg_of("if cond { f(); } after();");
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.succs.len(), 2);
        // One successor is the then-block, the other the join itself.
        let then_b = *entry
            .succs
            .iter()
            .find(|&&b| !cfg.blocks[b].stmts.is_empty() || cfg.blocks[b].succs != vec![cfg.exit])
            .unwrap();
        assert!(entry.succs.iter().any(|&b| cfg.blocks[then_b].succs.contains(&b)));
    }

    #[test]
    fn while_loop_has_back_edge() {
        let cfg = cfg_of("while running { step(); } done();");
        // Find the head: a block whose stmt uses `running`.
        let head = (0..cfg.blocks.len())
            .find(|&b| cfg.blocks[b].stmts.iter().any(|s| s.uses.contains(&"running".into())))
            .expect("loop head exists");
        assert_eq!(cfg.blocks[head].succs.len(), 2, "body + after");
        let body = cfg.blocks[head].succs[0];
        assert!(cfg.blocks[body].succs.contains(&head), "back edge to head");
    }

    #[test]
    fn loop_with_break_reaches_after() {
        let cfg = cfg_of("loop { step(); if done { break; } } tail();");
        let tail_block = (0..cfg.blocks.len())
            .find(|&b| {
                cfg.blocks[b]
                    .stmts
                    .iter()
                    .any(|s| s.calls.iter().any(|c| c.name == "tail"))
            })
            .expect("tail block");
        // The after-block is reachable from the entry.
        let rpo = cfg.rpo();
        assert!(rpo.contains(&tail_block), "break edge makes tail reachable");
    }

    #[test]
    fn match_fans_out_and_rejoins() {
        let cfg = cfg_of("match e { A(x) => f(x), B => { g(); } _ => h(), } after();");
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.succs.len(), 3, "one successor per arm: {cfg:?}");
        let joins: Vec<usize> = entry
            .succs
            .iter()
            .map(|&arm| *cfg.blocks[arm].succs.last().unwrap())
            .collect();
        assert!(joins.windows(2).all(|w| w[0] == w[1]), "all arms meet: {joins:?}");
        // Arm pattern binds x.
        let arm_defs: Vec<Vec<String>> = entry
            .succs
            .iter()
            .map(|&arm| cfg.blocks[arm].stmts[0].defs.clone())
            .collect();
        assert!(arm_defs.iter().any(|d| d.contains(&"x".to_string())));
    }

    #[test]
    fn question_mark_adds_exit_edge() {
        let cfg = cfg_of("let v = fallible()?; use_it(v);");
        assert!(
            cfg.blocks[cfg.entry].succs.contains(&cfg.exit),
            "`?` adds an early edge to exit: {cfg:?}"
        );
        assert!(cfg.blocks[cfg.entry].stmts[0].has_try);
    }

    #[test]
    fn early_return_edges_to_exit_and_splits() {
        let cfg = cfg_of("if bad { return fail(); } good();");
        let ret_block = (0..cfg.blocks.len())
            .find(|&b| cfg.blocks[b].stmts.iter().any(|s| s.is_return))
            .expect("return stmt recorded");
        assert!(cfg.blocks[ret_block].succs.contains(&cfg.exit));
    }

    #[test]
    fn nested_closure_flattens_into_statement() {
        let cfg = cfg_of("let r = master.substream(1); pool.spawn(move || train(r));");
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.stmts.len(), 2, "closure body is part of the spawn stmt");
        assert!(entry.stmts[1].uses.contains(&"r".to_string()));
        assert!(entry.stmts[1].calls.iter().any(|c| c.name == "spawn"));
        assert!(entry.stmts[1].calls.iter().any(|c| c.name == "train"));
    }

    #[test]
    fn nested_fn_items_are_skipped() {
        let cfg = cfg_of("fn helper() { inner_only(); } outer();");
        let all = stmts(&cfg);
        assert!(all.iter().all(|s| s.calls.iter().all(|c| c.name != "inner_only")));
        assert!(all.iter().any(|s| s.calls.iter().any(|c| c.name == "outer")));
    }

    #[test]
    fn discard_and_lock_facts() {
        let cfg = cfg_of("let _ = tx.send_now(m); let g = self.state.lock(); drop(g);");
        let entry = &cfg.blocks[cfg.entry];
        assert!(entry.stmts[0].is_discard);
        assert!(entry.stmts[0].calls.iter().any(|c| c.name == "send_now"));
        let lock = &entry.stmts[1].locks[0];
        assert_eq!(lock.target, "self.state");
        assert_eq!(lock.guard.as_deref(), Some("g"));
        assert_eq!(entry.stmts[2].drops, vec!["g"]);
    }

    #[test]
    fn await_and_blocking_facts() {
        let cfg = cfg_of("rx.recv().await; cv.wait(g); tx.send(v).await;");
        let entry = &cfg.blocks[cfg.entry];
        assert!(entry.stmts[0].has_await);
        assert!(entry.stmts[0].blocking.is_empty(), "awaited recv is a suspension");
        assert_eq!(entry.stmts[1].blocking, vec!["wait"]);
    }

    #[test]
    fn for_loop_binds_pattern_and_uses_iterable() {
        let cfg = cfg_of("for (k, v) in pairs { f(k, v); }");
        let head = (0..cfg.blocks.len())
            .find(|&b| cfg.blocks[b].stmts.iter().any(|s| s.uses.contains(&"pairs".into())))
            .expect("head");
        let s = &cfg.blocks[head].stmts[0];
        assert_eq!(s.defs, vec!["k", "v"]);
    }

    #[test]
    fn if_let_binds_pattern() {
        let cfg = cfg_of("if let Some(inner) = holder { f(inner); }");
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.stmts[0].defs, vec!["inner"]);
        assert!(entry.stmts[0].uses.contains(&"holder".to_string()));
    }

    #[test]
    fn tail_expression_is_a_return() {
        let cfg = cfg_of("let x = compute(); x + offset");
        let all = stmts(&cfg);
        let tail = all.iter().find(|s| s.is_return).expect("tail marked");
        assert!(tail.uses.contains(&"x".to_string()));
    }

    #[test]
    fn rpo_visits_entry_first() {
        let cfg = cfg_of("if c { a(); } else { b(); } d();");
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], cfg.entry);
        assert!(rpo.contains(&cfg.exit));
    }
}
