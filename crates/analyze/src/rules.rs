//! The rule catalog.
//!
//! | code | protects | rule |
//! |------|----------|------|
//! | D001 | determinism | no default-hasher `HashMap`/`HashSet` in pipeline crates |
//! | D002 | determinism | no unsorted iteration over hash maps in artifact-producing crates |
//! | D003 | determinism | no `Instant::now`/`SystemTime` outside the timing modules |
//! | D004 | determinism | no thread spawning outside the `ffet-pool` work-stealing pool |
//! | D005 | determinism | no environment reads or writes (`env::var`/`set_var`/…) outside the bench/CLI edge |
//! | R001 | robustness  | no `unwrap()`/`expect()`/`panic!` outside tests (baseline-frozen) |
//! | R002 | robustness  | no direct `fs::write`/`File::create` — artifacts go through `ckpt::atomic_write` |
//! | M001 | observability | metric/span names ⇆ DESIGN §9 catalog, both directions |
//!
//! Every rule is a pattern walk over the lexed token stream with tests-
//! stripped regions removed — no type information. D002 is therefore a
//! *heuristic*: it tracks `let`-bound locals whose initializer or type
//! annotation names a hash-map type, and flags direct `for … in` iteration
//! and unsorted iterator-method chains on them. The waiver syntax exists
//! precisely for the cases the heuristic cannot prove safe.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose on-disk artifacts (CSV, DEF, SPEF, JSON) must be
/// byte-identical at any pool width: D002 applies here.
const ARTIFACT_CRATES: &[&str] = &["lefdef", "sta", "rcx", "verify", "core", "obs"];

/// Crates exempt from the pipeline rules (D001, R001): the bench/CLI
/// harness. The analyzer itself is excluded from the walk entirely.
const NON_PIPELINE_CRATES: &[&str] = &["bench"];

/// Crates allowed to touch the process environment (D005): the bench/CLI
/// edge, which parses every run knob once into a `RunEnv`.
const ENV_CRATES: &[&str] = &["bench"];

/// `std::env` functions that read or write variables (D005).
const ENV_FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

/// Crates allowed to read wall clocks (D003): the observability crate and
/// the bench harness — timing is their purpose.
const TIMING_CRATES: &[&str] = &["obs", "bench"];

/// Files allowed to read wall clocks and spawn threads: the shared
/// work-stealing pool and its historical home in the DoE runner.
const RUNNER_FILES: &[&str] = &["crates/core/src/runner.rs", "crates/pool/src/lib.rs"];

/// Hash-map/-set type names for D001/D002 tracking.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods on maps/sets whose order is insertion/hash
/// dependent.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain members that make hash-order iteration harmless: ordered
/// re-collection or order-insensitive reductions.
const ORDER_SAFE: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "product",
    "count",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "all",
    "any",
];

/// Functions whose first string-literal argument is a metric/span name
/// (the `ffet_obs` recording API).
const METRIC_FNS: &[&str] = &["span", "counter_add", "gauge_set", "observe"];

/// A metric/span name literal found at a recording call site.
#[derive(Debug, Clone)]
pub struct MetricUse {
    /// The literal name.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// Extracts the crate name from a workspace-relative path
/// (`crates/<name>/src/…`).
#[must_use]
pub fn crate_of(relpath: &str) -> Option<&str> {
    let rest = relpath.strip_prefix("crates/")?;
    let name = rest.split('/').next()?;
    rest.strip_prefix(name)?.strip_prefix("/src/")?;
    Some(name)
}

/// Runs every token-stream rule over one file. `toks` must already be
/// test-stripped. Returns raw (pre-waiver) findings plus M001 name uses.
#[must_use]
pub fn scan_tokens(relpath: &str, toks: &[Tok]) -> (Vec<Finding>, Vec<MetricUse>) {
    let mut findings = Vec::new();
    let mut uses = Vec::new();
    let Some(krate) = crate_of(relpath) else {
        return (findings, uses);
    };
    let pipeline = !NON_PIPELINE_CRATES.contains(&krate);
    let artifact = ARTIFACT_CRATES.contains(&krate);
    let timing_ok = TIMING_CRATES.contains(&krate) || RUNNER_FILES.contains(&relpath);
    let spawn_ok = RUNNER_FILES.contains(&relpath);

    if pipeline {
        d001(relpath, toks, &mut findings);
        r001(relpath, toks, &mut findings);
    }
    if artifact {
        d002(relpath, toks, &mut findings);
    }
    if !timing_ok {
        d003(relpath, toks, &mut findings);
    }
    if !spawn_ok {
        d004(relpath, toks, &mut findings);
    }
    if !ENV_CRATES.contains(&krate) {
        d005(relpath, toks, &mut findings);
    }
    r002(relpath, toks, &mut findings);
    collect_metric_uses(toks, &mut uses);
    (findings, uses)
}

/// D001: any mention of the default-hasher types in pipeline code.
fn d001(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if let TokKind::Ident(id) = &t.kind {
            if id == "HashMap" || id == "HashSet" {
                out.push(Finding::new(
                    path,
                    t.line,
                    "D001",
                    format!(
                        "default-hasher `{id}` in pipeline crate: use \
                         `ffet_geom::Fx{id}` (deterministic) or `BTree{}` (ordered)",
                        id.strip_prefix("Hash").unwrap_or(id)
                    ),
                ));
            }
        }
    }
}

/// D002: unsorted iteration over hash-typed locals in artifact crates.
fn d002(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let bound = hash_bound_locals(toks);
    if bound.is_empty() {
        return;
    }

    // Direct `for pat in <expr>` where <expr> mentions a bound local but no
    // iterator method (method chains are handled below, with sanctions).
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("for") {
            if let Some((head_start, head_end)) = for_head(toks, i) {
                let head = &toks[head_start..head_end];
                let has_chain = head
                    .iter()
                    .any(|t| matches!(t.ident(), Some(id) if ITER_METHODS.contains(&id)));
                let hit = head
                    .iter()
                    .find(|t| matches!(t.ident(), Some(id) if bound.contains(id)));
                if let (Some(hit), false) = (hit, has_chain) {
                    let safe = head
                        .iter()
                        .any(|t| matches!(t.ident(), Some(id) if ORDER_SAFE.contains(&id)));
                    if !safe {
                        out.push(Finding::new(
                            path,
                            toks[i].line,
                            "D002",
                            format!(
                                "iteration over hash map/set `{}` in artifact-producing crate: \
                                 hash order must not reach artifacts — sort first, use a \
                                 BTreeMap, or waive with a determinism argument",
                                hit.ident().unwrap_or("?")
                            ),
                        ));
                    }
                }
                i = head_end;
                continue;
            }
        }
        i += 1;
    }

    // Iterator-method chains on bound locals: `m.keys()…`, `m.iter()…`.
    let mut i = 0usize;
    while i + 2 < toks.len() {
        let chain_hit = matches!(toks[i].ident(), Some(id) if bound.contains(id))
            && toks[i + 1].is_punct('.')
            && matches!(toks[i + 2].ident(), Some(id) if ITER_METHODS.contains(&id));
        if !chain_hit {
            i += 1;
            continue;
        }
        let (end, members) = walk_chain(toks, i + 1);
        // Sanctioned by the chain itself (turbofish / reduction), or by an
        // ordered type annotation earlier in the same statement
        // (`let x: BTreeMap<…> = m.iter().collect();`).
        let safe = members.iter().any(|m| ORDER_SAFE.contains(&m.as_str()))
            || statement_prefix_sanctions(toks, i);
        if !safe {
            out.push(Finding::new(
                path,
                toks[i].line,
                "D002",
                format!(
                    "unsorted `{}.{}()` chain in artifact-producing crate: collect into an \
                     ordered container, reduce order-insensitively, or waive with a \
                     determinism argument",
                    toks[i].ident().unwrap_or("?"),
                    toks[i + 2].ident().unwrap_or("?"),
                ),
            ));
        }
        i = end;
    }
}

/// True when the statement containing token `i` names an ordered container
/// before `i` (e.g. a `BTreeMap` type annotation on the binding).
fn statement_prefix_sanctions(toks: &[Tok], i: usize) -> bool {
    for t in toks[..i].iter().rev() {
        match &t.kind {
            TokKind::Punct(';' | '{' | '}') => return false,
            TokKind::Ident(id) if ORDER_SAFE.contains(&id.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// Collects `let`-bound local names whose declaration statement mentions a
/// hash-map/-set type (annotation or initializer).
fn hash_bound_locals(toks: &[Tok]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(Tok::ident) else {
            i = j;
            continue;
        };
        // Scan the statement to its top-level `;`, looking for hash types.
        let mut depth = 0i32;
        let mut k = j + 1;
        let mut is_hash = false;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Ident(id) if HASH_TYPES.contains(&id.as_str()) => is_hash = true,
                _ => {}
            }
            k += 1;
        }
        if is_hash {
            bound.insert(name.to_owned());
        }
        // Resume right after the binding so nested `let`s are still seen.
        i = j + 1;
    }
    bound
}

/// For a `for` at index `i`, returns the token range of the iterable
/// expression (between top-level `in` and the body `{`), or `None` when
/// this is not a `for … in` loop (e.g. `impl Trait for Type`).
fn for_head(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    let start = loop {
        match &toks.get(j)?.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return None,
            TokKind::Ident(id) if depth == 0 && id == "in" => break j + 1,
            _ => {}
        }
        j += 1;
    };
    let mut depth = 0i32;
    let mut j = start;
    loop {
        match &toks.get(j)?.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some((start, j)),
            _ => {}
        }
        j += 1;
    }
}

/// Walks a postfix method chain starting at the `.` token index. Returns
/// (index past the chain, method/turbofish identifiers seen).
fn walk_chain(toks: &[Tok], dot: usize) -> (usize, Vec<String>) {
    let mut members = Vec::new();
    let mut i = dot;
    while i + 1 < toks.len() && toks[i].is_punct('.') {
        let Some(m) = toks[i + 1].ident() else { break };
        members.push(m.to_owned());
        i += 2;
        // Turbofish: `::<…>` — collect type idents (BTreeMap sanctions).
        if i + 1 < toks.len() && toks[i].is_punct(':') && toks[i + 1].is_punct(':') {
            i += 2;
            if i < toks.len() && toks[i].is_punct('<') {
                let mut angle = 0i32;
                while i < toks.len() {
                    match &toks[i].kind {
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => {
                            angle -= 1;
                            if angle == 0 {
                                i += 1;
                                break;
                            }
                        }
                        TokKind::Ident(id) => members.push(id.clone()),
                        _ => {}
                    }
                    i += 1;
                }
            }
        }
        // Call arguments: skip balanced parens (argument internals — e.g.
        // closure bodies — do not sanction the chain).
        if i < toks.len() && toks[i].is_punct('(') {
            let mut depth = 0i32;
            while i < toks.len() {
                match &toks[i].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    (i, members)
}

/// D003: wall-clock reads outside the timing modules.
fn d003(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let instant_now = t.is_ident("Instant")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 3), Some(t) if t.is_ident("now"));
        if instant_now || t.is_ident("SystemTime") {
            let what = if instant_now {
                "Instant::now"
            } else {
                "SystemTime"
            };
            out.push(Finding::new(
                path,
                t.line,
                "D003",
                format!(
                    "wall-clock read (`{what}`) outside the timing modules (obs, runner, \
                     bench): artifacts must not depend on time"
                ),
            ));
        }
    }
}

/// D004: thread spawning outside the `ffet-pool` work-stealing pool.
fn d004(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("thread")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(
                toks.get(i + 3),
                Some(t) if t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder")
            )
        {
            let m = toks[i + 3].ident().unwrap_or("spawn");
            out.push(Finding::new(
                path,
                t.line,
                "D004",
                format!(
                    "`thread::{m}` outside ffet-pool: all parallelism goes through \
                     the deterministic work-stealing pool"
                ),
            ));
        }
    }
}

/// D005: environment access outside the CLI edge. A library that reads
/// `FFET_*` variables makes its results depend on ambient state no ledger
/// signature records; drivers parse the knobs once and pass them down.
fn d005(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("env")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(
                toks.get(i + 3).and_then(Tok::ident),
                Some(f) if ENV_FNS.contains(&f)
            )
        {
            let f = toks[i + 3].ident().unwrap_or("var");
            out.push(Finding::new(
                path,
                t.line,
                "D005",
                format!(
                    "`env::{f}` outside the bench/CLI edge: parse run knobs once in the \
                     driver and pass them down (`RunEnv`)"
                ),
            ));
        }
    }
}

/// R001: panic-family calls in pipeline code (baseline-frozen debt).
fn r001(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let method = t.is_punct('.')
            && matches!(
                toks.get(i + 1),
                Some(t) if t.is_ident("unwrap") || t.is_ident("expect")
            )
            && matches!(toks.get(i + 2), Some(t) if t.is_punct('('));
        if method {
            let m = toks[i + 1].ident().unwrap_or("unwrap");
            out.push(Finding::new(
                path,
                toks[i + 1].line,
                "R001",
                format!("`.{m}()` in pipeline code outside tests: return a typed error instead"),
            ));
        }
        if t.is_ident("panic") && matches!(toks.get(i + 1), Some(t) if t.is_punct('!')) {
            out.push(Finding::new(
                path,
                t.line,
                "R001",
                "`panic!` in pipeline code outside tests: return a typed error instead".to_owned(),
            ));
        }
    }
}

/// R002: direct non-atomic file creation. A kill between `create` and the
/// final `write` leaves a torn artifact that downstream tooling reads as
/// complete; every artifact write must go through
/// `ffet_core::ckpt::atomic_write` (sibling tmp file + `rename`), which is
/// itself the one waived call site. Applies to every scanned crate — the
/// bench/CLI harness writes most of the artifacts.
fn r002(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let path_call = |target: &str, method: &str| {
            t.is_ident(target)
                && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
                && matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
                && matches!(toks.get(i + 3), Some(t) if t.is_ident(method))
                && matches!(toks.get(i + 4), Some(t) if t.is_punct('('))
        };
        if path_call("fs", "write") {
            out.push(Finding::new(
                path,
                t.line,
                "R002",
                "direct `fs::write`: a mid-write kill leaves a torn artifact — publish \
                 through `ffet_core::ckpt::atomic_write` (tmp + rename), or waive with a \
                 crash-safety argument"
                    .to_owned(),
            ));
        }
        if path_call("File", "create") {
            out.push(Finding::new(
                path,
                t.line,
                "R002",
                "direct `File::create`: a mid-write kill leaves a torn artifact — publish \
                 through `ffet_core::ckpt::atomic_write` (tmp + rename), or waive with a \
                 crash-safety argument"
                    .to_owned(),
            ));
        }
    }
}

/// M001 collection: string-literal names at `ffet_obs` recording calls.
fn collect_metric_uses(toks: &[Tok], out: &mut Vec<MetricUse>) {
    for (i, t) in toks.iter().enumerate() {
        let is_metric_fn = matches!(t.ident(), Some(id) if METRIC_FNS.contains(&id));
        if is_metric_fn
            && matches!(toks.get(i + 1), Some(t) if t.is_punct('('))
            && matches!(toks.get(i + 2), Some(t) if matches!(t.kind, TokKind::Str(_)))
        {
            if let Some(Tok {
                kind: TokKind::Str(s),
                line,
            }) = toks.get(i + 2)
            {
                out.push(MetricUse {
                    name: s.clone(),
                    line: *line,
                });
            }
        }
    }
}

/// The DESIGN §9 name catalog, parsed from fenced ```` ```metrics ````
/// blocks.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Exact names (brace alternations pre-expanded) → line in DESIGN.md.
    pub exact: BTreeMap<String, u32>,
    /// Dynamic entries (containing `<placeholder>`) — documented but not
    /// checkable against literals.
    pub dynamic: Vec<(String, u32)>,
}

impl Catalog {
    /// Parses every ```` ```metrics ```` fenced block in `text`.
    #[must_use]
    pub fn parse(text: &str) -> Catalog {
        let mut cat = Catalog::default();
        let mut in_block = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(info) = line.strip_prefix("```") {
                in_block = !in_block && info.trim() == "metrics";
                continue;
            }
            if !in_block || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = i as u32 + 1;
            if line.contains('<') {
                cat.dynamic.push((line.to_owned(), lineno));
            } else {
                for name in expand_braces(line) {
                    cat.exact.insert(name, lineno);
                }
            }
        }
        cat
    }
}

/// Expands one level-agnostic brace alternation set:
/// `route.overflow.{front,back}.{h,v}` → the four concrete names.
#[must_use]
pub fn expand_braces(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_owned()];
    };
    let Some(close) = s[open..].find('}').map(|p| open + p) else {
        return vec![s.to_owned()];
    };
    let mut out = Vec::new();
    for alt in s[open + 1..close].split(',') {
        let expanded = format!("{}{}{}", &s[..open], alt.trim(), &s[close + 1..]);
        out.extend(expand_braces(&expanded));
    }
    out
}

/// M001 reconciliation: code uses ⇆ catalog, both directions.
pub fn m001(
    design_path: &str,
    catalog: &Catalog,
    uses: &BTreeMap<String, Vec<(String, u32)>>, // name -> [(file, line)]
    out: &mut Vec<Finding>,
) {
    for (name, sites) in uses {
        if !catalog.exact.contains_key(name) {
            for (file, line) in sites {
                out.push(Finding::new(
                    file,
                    *line,
                    "M001",
                    format!(
                        "metric/span name `{name}` is not in the DESIGN §9 catalog: add it to \
                         the ```metrics block (or fix the name)"
                    ),
                ));
            }
        }
    }
    for (name, line) in &catalog.exact {
        if !uses.contains_key(name) {
            out.push(Finding::new(
                design_path,
                *line,
                "M001",
                format!(
                    "catalog entry `{name}` has no recording call site in the workspace: \
                     remove it from DESIGN §9 or restore the instrumentation"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_regions};

    /// Fixture helper: full per-file pipeline (lex → strip → rules).
    fn scan(path: &str, src: &str) -> Vec<Finding> {
        let toks = strip_test_regions(lex(src).toks);
        scan_tokens(path, &toks).0
    }

    fn codes(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/pnr/src/route.rs"), Some("pnr"));
        assert_eq!(crate_of("crates/bench/src/bin/repro.rs"), Some("bench"));
        assert_eq!(crate_of("crates/pnr/tests/x.rs"), None);
        assert_eq!(crate_of("DESIGN.md"), None);
    }

    // ---- D001 ----------------------------------------------------------

    #[test]
    fn d001_flags_default_hasher_types() {
        let f = scan(
            "crates/pnr/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(codes(&f), vec!["D001", "D001", "D001"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d001_ignores_fx_types_bench_and_tests() {
        assert!(scan(
            "crates/pnr/src/x.rs",
            "fn f() { let m = ffet_geom::FxHashMap::<u32, u32>::default(); }",
        )
        .is_empty());
        assert!(scan("crates/bench/src/x.rs", "use std::collections::HashMap;").is_empty());
        assert!(scan(
            "crates/pnr/src/x.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        )
        .is_empty());
    }

    // ---- D002 ----------------------------------------------------------

    #[test]
    fn d002_flags_direct_for_iteration() {
        let f = scan(
            "crates/verify/src/x.rs",
            "fn f() { let m = FxHashMap::default(); for (k, v) in m { use_it(k, v); } }",
        );
        assert_eq!(codes(&f), vec!["D002"]);
    }

    #[test]
    fn d002_flags_unsorted_keys_chain() {
        let f = scan(
            "crates/verify/src/x.rs",
            "fn f() { let m = FxHashMap::default(); let v: Vec<_> = m.keys().copied().collect(); }",
        );
        assert_eq!(codes(&f), vec!["D002"]);
    }

    #[test]
    fn d002_accepts_ordered_or_reduced_chains() {
        let src = "fn f() {\n\
             let m = FxHashMap::default();\n\
             let total: usize = m.values().sum();\n\
             let sorted: std::collections::BTreeMap<_, _> = m.iter().collect::<BTreeMap<_, _>>();\n\
             let n = m.keys().count();\n\
         }";
        assert!(scan("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_only_in_artifact_crates() {
        let src = "fn f() { let m = FxHashMap::default(); for k in m { go(k); } }";
        assert!(scan("crates/pnr/src/x.rs", src).is_empty(), "pnr exempt");
        assert_eq!(codes(&scan("crates/obs/src/x.rs", src)), vec!["D002"]);
    }

    #[test]
    fn d002_lookups_are_fine() {
        let src = "fn f() { let m = FxHashMap::default(); let x = m.get(&1); m.insert(1, 2); }";
        assert!(scan("crates/verify/src/x.rs", src).is_empty());
    }

    // ---- D003 ----------------------------------------------------------

    #[test]
    fn d003_flags_wall_clock_outside_timing_modules() {
        let f = scan(
            "crates/pnr/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(codes(&f), vec!["D003"]);
        let f = scan("crates/sta/src/x.rs", "use std::time::SystemTime;");
        assert_eq!(codes(&f), vec!["D003"]);
    }

    #[test]
    fn d003_allows_obs_bench_and_runner() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(scan("crates/obs/src/x.rs", src).is_empty());
        assert!(scan("crates/bench/src/x.rs", src).is_empty());
        assert!(scan("crates/core/src/runner.rs", src).is_empty());
        assert_eq!(codes(&scan("crates/core/src/flow.rs", src)), vec!["D003"]);
    }

    // ---- D004 ----------------------------------------------------------

    #[test]
    fn d004_flags_thread_spawning() {
        let f = scan(
            "crates/rcx/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(codes(&f), vec!["D004"]);
        let f = scan("crates/rcx/src/x.rs", "fn f() { thread::scope(|s| {}); }");
        assert_eq!(codes(&f), vec!["D004"]);
    }

    #[test]
    fn d004_allows_runner() {
        assert!(scan(
            "crates/core/src/runner.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        )
        .is_empty());
        assert!(scan(
            "crates/pool/src/lib.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        )
        .is_empty());
    }

    // ---- D005 ----------------------------------------------------------

    #[test]
    fn d005_flags_env_access_in_library_crates() {
        let f = scan(
            "crates/core/src/x.rs",
            "fn f() { let v = std::env::var(\"FFET_JOBS\"); std::env::set_var(\"A\", \"1\"); }",
        );
        assert_eq!(codes(&f), vec!["D005", "D005"]);
        let f = scan(
            "crates/pool/src/x.rs",
            "use std::env::var_os;\nfn f() { env::remove_var(\"A\"); }",
        );
        assert_eq!(codes(&f), vec!["D005", "D005"]);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn d005_allows_bench_tests_and_other_env_items() {
        let src = "fn f() { let v = std::env::var(\"FFET_JOBS\"); }";
        assert!(scan("crates/bench/src/cli.rs", src).is_empty());
        assert!(scan(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::env::set_var(\"A\", \"1\"); } }",
        )
        .is_empty());
        assert!(scan(
            "crates/core/src/x.rs",
            "fn f() { let d = std::env::temp_dir(); let a = std::env::args(); let v = var(1); }",
        )
        .is_empty());
    }

    // ---- R001 ----------------------------------------------------------

    #[test]
    fn r001_flags_panic_family() {
        let f = scan(
            "crates/sta/src/x.rs",
            "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"boom\"); }",
        );
        assert_eq!(codes(&f), vec!["R001", "R001", "R001"]);
    }

    #[test]
    fn r001_ignores_tests_and_lookalikes() {
        assert!(scan(
            "crates/sta/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); panic!(); } }",
        )
        .is_empty());
        assert!(scan(
            "crates/sta/src/x.rs",
            "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.expect_err(\"e\"); }",
        )
        .is_empty());
    }

    // ---- R002 ----------------------------------------------------------

    #[test]
    fn r002_flags_direct_writes_everywhere() {
        let src = "fn f() { std::fs::write(\"results/a.csv\", b).ok(); }";
        assert_eq!(codes(&scan("crates/bench/src/x.rs", src)), vec!["R002"]);
        assert_eq!(codes(&scan("crates/core/src/x.rs", src)), vec!["R002"]);
        let f = scan(
            "crates/lefdef/src/x.rs",
            "fn f() { let out = std::fs::File::create(path)?; }",
        );
        assert_eq!(codes(&f), vec!["R002"]);
    }

    #[test]
    fn r002_ignores_tests_reads_and_lookalikes() {
        assert!(scan(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::fs::write(\"x\", \"y\").unwrap(); } }",
        )
        .is_empty());
        assert!(scan(
            "crates/core/src/x.rs",
            "fn f() { let t = std::fs::read_to_string(p)?; fs::create_dir_all(d)?; \
             let f = File::open(p)?; my_fs::write(p, b)?; }",
        )
        .is_empty());
    }

    // ---- M001 ----------------------------------------------------------

    fn catalog(entries: &str) -> Catalog {
        Catalog::parse(&format!("```metrics\n{entries}\n```\n"))
    }

    #[test]
    fn m001_both_directions() {
        let cat = catalog("route.rounds\nroute.vias.{front,back}\nsignoff.<rule>\nghost.metric");
        let toks = strip_test_regions(
            lex("fn f() { ffet_obs::counter_add(\"route.rounds\", 1); \
                 ffet_obs::gauge_set(\"route.vias.front\", 1.0); \
                 ffet_obs::span(\"rogue.name\"); }")
            .toks,
        );
        let (_, uses) = scan_tokens("crates/pnr/src/x.rs", &toks);
        let mut by_name: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
        for u in uses {
            by_name
                .entry(u.name)
                .or_default()
                .push(("crates/pnr/src/x.rs".to_owned(), u.line));
        }
        let mut findings = Vec::new();
        m001("DESIGN.md", &cat, &by_name, &mut findings);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`rogue.name`")));
        assert!(msgs.iter().any(|m| m.contains("`ghost.metric`")));
        assert!(
            msgs.iter().any(|m| m.contains("`route.vias.back`")),
            "unused expansion arm is reported"
        );
        assert!(
            !msgs.iter().any(|m| m.contains("signoff")),
            "dynamic entries are exempt"
        );
    }

    #[test]
    fn brace_expansion() {
        let mut v = expand_braces("route.overflow.{front,back}.{h,v}");
        v.sort();
        assert_eq!(
            v,
            vec![
                "route.overflow.back.h",
                "route.overflow.back.v",
                "route.overflow.front.h",
                "route.overflow.front.v",
            ]
        );
        assert_eq!(expand_braces("plain.name"), vec!["plain.name"]);
    }

    #[test]
    fn metric_literal_via_format_is_skipped() {
        let toks = lex("fn f() { ffet_obs::counter_add(&format!(\"signoff.{rule}\"), 1); }").toks;
        let (_, uses) = scan_tokens("crates/verify/src/x.rs", &toks);
        assert!(uses.is_empty());
    }
}
