//! The incremental analysis cache: per-file results keyed by content
//! hash.
//!
//! The per-file pass (lex → per-file rules → item parse → CFG build) is
//! where hetlint spends almost all of its time, and it is a pure
//! function of one file's text plus its [`FileContext`]. That makes it
//! cacheable: each linted file serializes to one JSON entry under
//! `target/hetlint-cache/`, keyed by the FNV-1a hash of its
//! workspace-relative path and validated against the FNV-1a hash of its
//! content. A warm run re-lexes nothing; it deserializes the entry and
//! goes straight to the cross-file phases (R7–R16), which always run
//! fresh because they see the whole workspace at once.
//!
//! **Invalidation rule.** An entry is used only when *all three* match:
//! the schema fingerprint (bumped whenever any per-file rule, the
//! parser, or the CFG builder changes behavior — see [`CACHE_SCHEMA`]),
//! the source content hash, and the relative path recorded inside the
//! entry. Anything else — missing file, parse error, truncated write,
//! field drift — is a cache miss, never an error: the file is re-linted
//! from source and the entry rewritten. Writes go through a temp file
//! and rename so concurrent runs never observe a half-written entry,
//! and a read-only filesystem degrades to cold runs rather than
//! failures.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::cfg::{Block, CallKind, Cfg, Stmt, StmtCall, StmtLock};
use crate::json::{self, Value};
use crate::parser::{
    BlockingSite, CallSite, Callee, DropSite, FnItem, LockSite, PanicSite, ParsedFile,
    RngSendSite, RngTypeEscape, SinkSite,
};
use crate::rules::{EmitKindRef, EmitSite, RegistryEntry, StreamUse};
use crate::scan::{SupprIndex, Suppression};
use crate::{FileContext, FileReport, LintedFile, RuleId, Violation};

/// Bumped whenever the per-file pass changes behavior: a new or changed
/// rule R1–R6, a parser or CFG change, or any field added to
/// [`LintedFile`]. Combined with the crate version into the entry
/// fingerprint, so a rebuilt tool never trusts entries written by an
/// older one.
pub const CACHE_SCHEMA: u32 = 1;

/// The full invalidation fingerprint written into every entry.
pub fn fingerprint() -> String {
    format!("hetlint-cache/{CACHE_SCHEMA}/{}", env!("CARGO_PKG_VERSION"))
}

/// FNV-1a, 64-bit. Chosen over anything fancier because it is four
/// lines, allocation-free, and collision resistance only has to beat
/// "two revisions of the same file while an entry is live".
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Where the cache lives for a workspace root. Inside `target/` so
/// `cargo clean` clears it and the source walk never scans it.
pub fn default_dir(root: &Path) -> PathBuf {
    root.join("target").join("hetlint-cache")
}

/// Hit/miss accounting for the summary line and the CI warm-run gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files served from a valid entry.
    pub hits: usize,
    /// Files re-linted from source (no entry, stale, or unreadable).
    pub misses: usize,
}

/// One entry per source file, named by the path hash so nested
/// workspace paths flatten into one directory.
fn entry_path(dir: &Path, rel_path: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv1a(rel_path.as_bytes())))
}

/// Loads the entry for `ctx.rel_path` if it matches `source` exactly;
/// `None` is a cache miss (absent, stale, or malformed — all equal).
pub fn load(dir: &Path, ctx: &FileContext, source: &str) -> Option<LintedFile> {
    let text = fs::read_to_string(entry_path(dir, &ctx.rel_path)).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("fingerprint")?.as_str()? != fingerprint() {
        return None;
    }
    if doc.get("source_hash")?.as_str()? != format!("{:016x}", fnv1a(source.as_bytes())) {
        return None;
    }
    if doc.get("path")?.as_str()? != ctx.rel_path {
        return None;
    }
    de_file(ctx, doc.get("file")?)
}

/// Writes the entry for one linted file: temp file then rename, so a
/// concurrent reader sees either the old entry or the new one, never a
/// prefix.
pub fn store(dir: &Path, source: &str, file: &LintedFile) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let doc = obj(vec![
        ("fingerprint", s(&fingerprint())),
        ("source_hash", s(&format!("{:016x}", fnv1a(source.as_bytes())))),
        ("path", s(&file.ctx.rel_path)),
        ("file", ser_file(file)),
    ]);
    let dest = entry_path(dir, &file.ctx.rel_path);
    let tmp = dest.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, json::render(&doc))?;
    fs::rename(&tmp, &dest)
}

/// The per-file pass with the cache in front: hit → deserialize, miss →
/// [`crate::lint_file`] then best-effort store (an unwritable cache
/// directory degrades to cold runs, it never fails the lint).
pub fn lint_file_cached(
    dir: &Path,
    ctx: &FileContext,
    source: &str,
    stats: &mut CacheStats,
) -> LintedFile {
    if let Some(file) = load(dir, ctx, source) {
        stats.hits += 1;
        return file;
    }
    stats.misses += 1;
    let file = crate::lint_file(ctx, source);
    let _ = store(dir, source, &file);
    file
}

// ---------------------------------------------------------------------
// Serialization: LintedFile → Value. Field names are short because a
// workspace writes one entry per source file; the document is a cache,
// not an interface.
// ---------------------------------------------------------------------

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn n(value: usize) -> Value {
    Value::Num(value as f64)
}

fn b(value: bool) -> Value {
    Value::Bool(value)
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn arr<T>(items: &[T], f: impl Fn(&T) -> Value) -> Value {
    Value::Arr(items.iter().map(f).collect())
}

fn strs(items: &[String]) -> Value {
    arr(items, |x| s(x))
}

fn nums(items: &[usize]) -> Value {
    arr(items, |&x| n(x))
}

/// A `Vec<bool>` line map packed into a `'1'`/`'0'` string; one char
/// per line keeps entries readable without a byte per JSON element.
fn bits(flags: &[bool]) -> Value {
    Value::Str(flags.iter().map(|&f| if f { '1' } else { '0' }).collect())
}

fn ser_file(file: &LintedFile) -> Value {
    obj(vec![
        ("report", ser_report(&file.report)),
        ("suppr", ser_suppr(&file.suppr)),
        ("streams", arr(&file.stream_uses, ser_stream)),
        ("emits", arr(&file.emit_sites, ser_emit)),
        ("registry", arr(&file.registry, ser_registry)),
        (
            "matched",
            arr(&file.matched_allows, |(rule, line)| {
                Value::Arr(vec![s(rule), n(*line)])
            }),
        ),
        ("items", ser_items(&file.items)),
    ])
}

fn ser_report(report: &FileReport) -> Value {
    obj(vec![
        ("violations", arr(&report.violations, ser_violation)),
        ("suppressed", arr(&report.suppressed, ser_violation)),
        ("bad_allows", arr(&report.bad_allows, ser_violation)),
        ("unwraps", nums(&report.unwrap_sites)),
    ])
}

fn ser_violation(v: &Violation) -> Value {
    let mut fields = vec![
        ("rule", s(v.rule.key())),
        ("path", s(&v.path)),
        ("line", n(v.line)),
        ("msg", s(&v.message)),
    ];
    if let Some(sup) = &v.suppression {
        fields.push(("allow", ser_suppression(sup)));
    }
    obj(fields)
}

fn ser_suppression(sup: &Suppression) -> Value {
    obj(vec![
        ("rule", s(&sup.rule)),
        ("reason", s(&sup.reason)),
        ("line", n(sup.line)),
    ])
}

fn ser_suppr(suppr: &SupprIndex) -> Value {
    obj(vec![
        ("allows", arr(&suppr.suppressions, ser_suppression)),
        ("code", bits(&suppr.code)),
        ("commented", bits(&suppr.commented)),
    ])
}

fn ser_stream(u: &StreamUse) -> Value {
    obj(vec![("name", s(&u.name)), ("line", n(u.line))])
}

fn ser_emit(e: &EmitSite) -> Value {
    let (tag, value) = match &e.kind {
        EmitKindRef::Const(name) => ("const", name),
        EmitKindRef::Literal(value) => ("lit", value),
    };
    obj(vec![("k", s(tag)), ("v", s(value)), ("line", n(e.line))])
}

fn ser_registry(e: &RegistryEntry) -> Value {
    obj(vec![
        ("const", s(&e.const_name)),
        ("value", s(&e.value)),
        ("line", n(e.line)),
    ])
}

fn ser_items(items: &ParsedFile) -> Value {
    obj(vec![
        ("fns", arr(&items.fns, ser_fn)),
        (
            "escapes",
            arr(&items.rng_type_escapes, |e: &RngTypeEscape| {
                obj(vec![("container", s(&e.container)), ("line", n(e.line))])
            }),
        ),
    ])
}

fn ser_fn(f: &FnItem) -> Value {
    obj(vec![
        ("name", s(&f.name)),
        ("qname", s(&f.qname)),
        (
            "impl_type",
            f.impl_type.as_deref().map_or(Value::Null, s),
        ),
        ("is_async", b(f.is_async)),
        ("has_await", b(f.has_await)),
        ("line", n(f.line)),
        ("params", strs(&f.params)),
        ("cfg", ser_cfg(&f.cfg)),
        ("calls", arr(&f.calls, ser_call_site)),
        (
            "sinks",
            arr(&f.sinks, |x: &SinkSite| {
                obj(vec![("what", s(&x.what)), ("line", n(x.line))])
            }),
        ),
        ("locks", arr(&f.locks, ser_lock_site)),
        (
            "blocking",
            arr(&f.blocking, |x: &BlockingSite| {
                obj(vec![("what", s(&x.what)), ("tok", n(x.tok)), ("line", n(x.line))])
            }),
        ),
        (
            "drops",
            arr(&f.drops, |x: &DropSite| {
                obj(vec![("name", s(&x.name)), ("tok", n(x.tok)), ("line", n(x.line))])
            }),
        ),
        (
            "panics",
            arr(&f.panics, |x: &PanicSite| {
                obj(vec![
                    ("what", s(&x.what)),
                    ("line", n(x.line)),
                    ("allowed", b(x.allowed)),
                ])
            }),
        ),
        (
            "rng_sends",
            arr(&f.rng_sends, |x: &RngSendSite| {
                obj(vec![("binding", s(&x.binding)), ("line", n(x.line))])
            }),
        ),
    ])
}

fn ser_call_site(c: &CallSite) -> Value {
    let callee = match &c.callee {
        Callee::Path(segs) => obj(vec![("k", s("path")), ("segs", strs(segs))]),
        Callee::Method(name) => obj(vec![("k", s("method")), ("name", s(name))]),
        Callee::Macro(name) => obj(vec![("k", s("macro")), ("name", s(name))]),
    };
    obj(vec![("callee", callee), ("line", n(c.line))])
}

fn ser_lock_site(l: &LockSite) -> Value {
    obj(vec![
        ("target", s(&l.target)),
        ("guard", l.guard.as_deref().map_or(Value::Null, s)),
        ("tok", n(l.tok)),
        ("line", n(l.line)),
    ])
}

fn ser_cfg(cfg: &Cfg) -> Value {
    obj(vec![
        ("entry", n(cfg.entry)),
        ("exit", n(cfg.exit)),
        (
            "blocks",
            arr(&cfg.blocks, |blk: &Block| {
                obj(vec![
                    ("stmts", arr(&blk.stmts, ser_stmt)),
                    ("succs", nums(&blk.succs)),
                ])
            }),
        ),
    ])
}

fn ser_stmt(st: &Stmt) -> Value {
    obj(vec![
        ("line", n(st.line)),
        ("defs", strs(&st.defs)),
        ("uses", strs(&st.uses)),
        ("calls", arr(&st.calls, ser_stmt_call)),
        ("discard", b(st.is_discard)),
        ("await", b(st.has_await)),
        ("try", b(st.has_try)),
        ("ret", b(st.is_return)),
        (
            "locks",
            arr(&st.locks, |l: &StmtLock| {
                obj(vec![
                    ("target", s(&l.target)),
                    ("guard", l.guard.as_deref().map_or(Value::Null, s)),
                    ("line", n(l.line)),
                ])
            }),
        ),
        ("drops", strs(&st.drops)),
        ("blocking", strs(&st.blocking)),
    ])
}

fn ser_stmt_call(c: &StmtCall) -> Value {
    let kind = match c.kind {
        CallKind::Path => "path",
        CallKind::Method => "method",
        CallKind::Macro => "macro",
    };
    obj(vec![
        ("name", s(&c.name)),
        ("segs", strs(&c.segs)),
        ("recv", s(&c.recv)),
        ("args", strs(&c.args)),
        ("strs", strs(&c.strs)),
        ("kind", s(kind)),
        ("line", n(c.line)),
    ])
}

// ---------------------------------------------------------------------
// Deserialization: Value → LintedFile. Every accessor is `?`-chained;
// one missing or mistyped field turns the whole entry into a miss.
// ---------------------------------------------------------------------

fn du(v: &Value) -> Option<usize> {
    v.as_u64().map(|x| x as usize)
}

fn dstr(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn dopt_str(v: &Value) -> Option<Option<String>> {
    match v {
        Value::Null => Some(None),
        Value::Str(text) => Some(Some(text.clone())),
        _ => None,
    }
}

fn dvec<T>(v: &Value, f: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(f).collect()
}

fn dbits(v: &Value) -> Option<Vec<bool>> {
    v.as_str()?
        .chars()
        .map(|c| match c {
            '1' => Some(true),
            '0' => Some(false),
            _ => None,
        })
        .collect()
}

fn de_file(ctx: &FileContext, v: &Value) -> Option<LintedFile> {
    Some(LintedFile {
        ctx: ctx.clone(),
        report: de_report(v.get("report")?)?,
        suppr: de_suppr(v.get("suppr")?)?,
        stream_uses: dvec(v.get("streams")?, de_stream)?,
        emit_sites: dvec(v.get("emits")?, de_emit)?,
        registry: dvec(v.get("registry")?, de_registry)?,
        matched_allows: dvec(v.get("matched")?, |pair| {
            let items = pair.as_arr()?;
            match items {
                [rule, line] => Some((dstr(rule)?, du(line)?)),
                _ => None,
            }
        })?,
        items: de_items(v.get("items")?)?,
    })
}

fn de_report(v: &Value) -> Option<FileReport> {
    Some(FileReport {
        violations: dvec(v.get("violations")?, de_violation)?,
        suppressed: dvec(v.get("suppressed")?, de_violation)?,
        bad_allows: dvec(v.get("bad_allows")?, de_violation)?,
        unwrap_sites: dvec(v.get("unwraps")?, du)?,
    })
}

fn de_violation(v: &Value) -> Option<Violation> {
    Some(Violation {
        rule: RuleId::from_key(v.get("rule")?.as_str()?)?,
        path: dstr(v.get("path")?)?,
        line: du(v.get("line")?)?,
        message: dstr(v.get("msg")?)?,
        suppression: match v.get("allow") {
            Some(sup) => Some(de_suppression(sup)?),
            None => None,
        },
    })
}

fn de_suppression(v: &Value) -> Option<Suppression> {
    Some(Suppression {
        rule: dstr(v.get("rule")?)?,
        reason: dstr(v.get("reason")?)?,
        line: du(v.get("line")?)?,
    })
}

fn de_suppr(v: &Value) -> Option<SupprIndex> {
    Some(SupprIndex {
        suppressions: dvec(v.get("allows")?, de_suppression)?,
        code: dbits(v.get("code")?)?,
        commented: dbits(v.get("commented")?)?,
    })
}

fn de_stream(v: &Value) -> Option<StreamUse> {
    Some(StreamUse { name: dstr(v.get("name")?)?, line: du(v.get("line")?)? })
}

fn de_emit(v: &Value) -> Option<EmitSite> {
    let value = dstr(v.get("v")?)?;
    let kind = match v.get("k")?.as_str()? {
        "const" => EmitKindRef::Const(value),
        "lit" => EmitKindRef::Literal(value),
        _ => return None,
    };
    Some(EmitSite { kind, line: du(v.get("line")?)? })
}

fn de_registry(v: &Value) -> Option<RegistryEntry> {
    Some(RegistryEntry {
        const_name: dstr(v.get("const")?)?,
        value: dstr(v.get("value")?)?,
        line: du(v.get("line")?)?,
    })
}

fn de_items(v: &Value) -> Option<ParsedFile> {
    Some(ParsedFile {
        fns: dvec(v.get("fns")?, de_fn)?,
        rng_type_escapes: dvec(v.get("escapes")?, |e| {
            Some(RngTypeEscape {
                container: dstr(e.get("container")?)?,
                line: du(e.get("line")?)?,
            })
        })?,
    })
}

fn de_fn(v: &Value) -> Option<FnItem> {
    Some(FnItem {
        name: dstr(v.get("name")?)?,
        qname: dstr(v.get("qname")?)?,
        impl_type: dopt_str(v.get("impl_type")?)?,
        is_async: v.get("is_async")?.as_bool()?,
        has_await: v.get("has_await")?.as_bool()?,
        line: du(v.get("line")?)?,
        params: dvec(v.get("params")?, dstr)?,
        cfg: de_cfg(v.get("cfg")?)?,
        calls: dvec(v.get("calls")?, de_call_site)?,
        sinks: dvec(v.get("sinks")?, |x| {
            Some(SinkSite { what: dstr(x.get("what")?)?, line: du(x.get("line")?)? })
        })?,
        locks: dvec(v.get("locks")?, |x| {
            Some(LockSite {
                target: dstr(x.get("target")?)?,
                guard: dopt_str(x.get("guard")?)?,
                tok: du(x.get("tok")?)?,
                line: du(x.get("line")?)?,
            })
        })?,
        blocking: dvec(v.get("blocking")?, |x| {
            Some(BlockingSite {
                what: dstr(x.get("what")?)?,
                tok: du(x.get("tok")?)?,
                line: du(x.get("line")?)?,
            })
        })?,
        drops: dvec(v.get("drops")?, |x| {
            Some(DropSite {
                name: dstr(x.get("name")?)?,
                tok: du(x.get("tok")?)?,
                line: du(x.get("line")?)?,
            })
        })?,
        panics: dvec(v.get("panics")?, |x| {
            Some(PanicSite {
                what: dstr(x.get("what")?)?,
                line: du(x.get("line")?)?,
                allowed: x.get("allowed")?.as_bool()?,
            })
        })?,
        rng_sends: dvec(v.get("rng_sends")?, |x| {
            Some(RngSendSite {
                binding: dstr(x.get("binding")?)?,
                line: du(x.get("line")?)?,
            })
        })?,
    })
}

fn de_call_site(v: &Value) -> Option<CallSite> {
    let callee = v.get("callee")?;
    let callee = match callee.get("k")?.as_str()? {
        "path" => Callee::Path(dvec(callee.get("segs")?, dstr)?),
        "method" => Callee::Method(dstr(callee.get("name")?)?),
        "macro" => Callee::Macro(dstr(callee.get("name")?)?),
        _ => return None,
    };
    Some(CallSite { callee, line: du(v.get("line")?)? })
}

fn de_cfg(v: &Value) -> Option<Cfg> {
    Some(Cfg {
        entry: du(v.get("entry")?)?,
        exit: du(v.get("exit")?)?,
        blocks: dvec(v.get("blocks")?, |blk| {
            Some(Block {
                stmts: dvec(blk.get("stmts")?, de_stmt)?,
                succs: dvec(blk.get("succs")?, du)?,
            })
        })?,
    })
}

fn de_stmt(v: &Value) -> Option<Stmt> {
    Some(Stmt {
        line: du(v.get("line")?)?,
        defs: dvec(v.get("defs")?, dstr)?,
        uses: dvec(v.get("uses")?, dstr)?,
        calls: dvec(v.get("calls")?, de_stmt_call)?,
        is_discard: v.get("discard")?.as_bool()?,
        has_await: v.get("await")?.as_bool()?,
        has_try: v.get("try")?.as_bool()?,
        is_return: v.get("ret")?.as_bool()?,
        locks: dvec(v.get("locks")?, |l| {
            Some(StmtLock {
                target: dstr(l.get("target")?)?,
                guard: dopt_str(l.get("guard")?)?,
                line: du(l.get("line")?)?,
            })
        })?,
        drops: dvec(v.get("drops")?, dstr)?,
        blocking: dvec(v.get("blocking")?, dstr)?,
    })
}

fn de_stmt_call(v: &Value) -> Option<StmtCall> {
    let kind = match v.get("kind")?.as_str()? {
        "path" => CallKind::Path,
        "method" => CallKind::Method,
        "macro" => CallKind::Macro,
        _ => return None,
    };
    Some(StmtCall {
        name: dstr(v.get("name")?)?,
        segs: dvec(v.get("segs")?, dstr)?,
        recv: dstr(v.get("recv")?)?,
        args: dvec(v.get("args")?, dstr)?,
        strs: dvec(v.get("strs")?, dstr)?,
        kind,
        line: du(v.get("line")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, lint_file};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A fresh per-test cache directory; deterministic (no clock) and
    /// unique across concurrently running tests.
    fn temp_dir() -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("hetlint-cache-test-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const SRC: &str = "use std::time::Instant;\n\
                       async fn f(q: usize) -> usize {\n\
                           let g = state.lock().unwrap();\n\
                           if q > 0 { return *g; }\n\
                           tick().await;\n\
                           q\n\
                       }\n";

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn round_trip_preserves_the_whole_linted_file() {
        let dir = temp_dir();
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        let fresh = lint_file(&ctx, SRC);
        assert!(!fresh.report.violations.is_empty(), "fixture should trip R1/R5");
        assert!(!fresh.items.fns.is_empty());
        store(&dir, SRC, &fresh).unwrap();
        let cached = load(&dir, &ctx, SRC).expect("entry should hit");
        // Byte-identical re-serialization is the strongest equality the
        // structs offer without deriving PartialEq everywhere.
        assert_eq!(json::render(&ser_file(&fresh)), json::render(&ser_file(&cached)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_content_is_a_miss() {
        let dir = temp_dir();
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        let fresh = lint_file(&ctx, SRC);
        store(&dir, SRC, &fresh).unwrap();
        assert!(load(&dir, &ctx, "fn g() {}\n").is_none());
        assert!(load(&dir, &ctx, SRC).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_entries_are_misses_not_errors() {
        let dir = temp_dir();
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        fs::create_dir_all(&dir).unwrap();
        // Garbage bytes.
        fs::write(entry_path(&dir, &ctx.rel_path), "{ not json").unwrap();
        assert!(load(&dir, &ctx, SRC).is_none());
        // Valid JSON, wrong fingerprint.
        let doc = format!(
            "{{\"fingerprint\": \"stale\", \"source_hash\": \"{:016x}\", \
             \"path\": {}, \"file\": {{}}}}",
            fnv1a(SRC.as_bytes()),
            json::escape(&ctx.rel_path),
        );
        fs::write(entry_path(&dir, &ctx.rel_path), doc).unwrap();
        assert!(load(&dir, &ctx, SRC).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_pass_counts_hits_and_misses() {
        let dir = temp_dir();
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        let mut stats = CacheStats::default();
        let cold = lint_file_cached(&dir, &ctx, SRC, &mut stats);
        assert_eq!(stats, CacheStats { hits: 0, misses: 1 });
        let warm = lint_file_cached(&dir, &ctx, SRC, &mut stats);
        assert_eq!(stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(
            json::render(&ser_file(&cold)),
            json::render(&ser_file(&warm)),
            "a cache hit must reproduce the cold pass bit for bit"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_degrades_to_cold_runs() {
        // A file where the directory should be makes create_dir_all
        // fail; the lint must still succeed.
        let dir = temp_dir();
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, b"occupied").unwrap();
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        let mut stats = CacheStats::default();
        let file = lint_file_cached(&dir, &ctx, SRC, &mut stats);
        assert!(!file.report.violations.is_empty());
        assert_eq!(stats, CacheStats { hits: 0, misses: 1 });
        let _ = fs::remove_file(&dir);
    }
}
