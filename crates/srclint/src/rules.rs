//! The token-level rules: R1 (unsafe without SAFETY), R2 (nondeterminism),
//! R3 (panic sites), R5 (unordered float reductions), R6 (relaxed atomic
//! orderings). R4 (layering) works on manifests and lives in
//! [`crate::layering`].

use crate::lexer::{lex, test_spans, TokKind, Token};
use crate::{is_test_path, rule_ids, Config, Finding};

/// Run all file-scoped rules over one source file.
pub fn check_file(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let tokens = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let spans = test_spans(&tokens);
    let in_test_code =
        |line: u32| is_test_path(path) || spans.iter().any(|&(a, b)| line >= a && line <= b);

    let mut out = Vec::new();
    r1_unsafe_safety(path, &tokens, &lines, &mut out);
    if !cfg.sanctioned_nondet.iter().any(|p| p == path) {
        r2_nondeterminism(path, &tokens, &lines, &in_test_code, &mut out);
    }
    if cfg.panic_scope.iter().any(|p| path.starts_with(p.as_str())) {
        r3_panic_sites(path, &tokens, &lines, &in_test_code, &mut out);
    }
    if !cfg
        .float_reduce_exempt
        .iter()
        .any(|p| path.starts_with(p.as_str()))
    {
        r5_float_reduce(path, &tokens, &lines, &in_test_code, &mut out);
    }
    if !cfg.atomic_relaxed_allow.iter().any(|p| p == path) {
        r6_atomic_ordering(path, &tokens, &lines, &in_test_code, &mut out);
    }
    out
}

fn line_content(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .map(|s| s.to_string())
        .unwrap_or_default()
}

/// R1: every `unsafe` token (block, fn, or `unsafe impl`) needs a comment
/// containing `SAFETY:` on the same line, within the three lines above
/// (slack for a short binding the unsafe expression hangs off), or anywhere
/// in the contiguous run of comment-only lines directly above it (so a
/// long multi-line SAFETY justification still counts).
fn r1_unsafe_safety(path: &str, tokens: &[Token], lines: &[&str], out: &mut Vec<Finding>) {
    use std::collections::BTreeSet;
    let safety_comment_lines: BTreeSet<u32> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Comment(text) if text.contains("SAFETY:") => Some(t.line),
            _ => None,
        })
        .collect();
    // Lines holding only comment tokens (and whitespace): candidates for a
    // multi-line justification block.
    let comment_only: BTreeSet<u32> = {
        let mut has_comment = BTreeSet::new();
        let mut has_code = BTreeSet::new();
        for t in tokens {
            match &t.kind {
                TokKind::Comment(_) => {
                    has_comment.insert(t.line);
                }
                _ => {
                    has_code.insert(t.line);
                }
            }
        }
        &has_comment - &has_code
    };
    for t in tokens {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let mut justified = safety_comment_lines
            .iter()
            .any(|&cl| cl <= t.line && t.line - cl <= 3);
        if !justified {
            let mut l = t.line.saturating_sub(1);
            while l > 0 && comment_only.contains(&l) {
                if safety_comment_lines.contains(&l) {
                    justified = true;
                    break;
                }
                l -= 1;
            }
        }
        if !justified {
            out.push(Finding::new(
                rule_ids::UNSAFE_NO_SAFETY,
                path,
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` justification".into(),
                &line_content(lines, t.line),
            ));
        }
    }
}

/// Identifier-path patterns R2 bans: each is a sequence of identifiers
/// joined by `::`. Matching is suffix-tolerant (`std::time::Instant::now`
/// matches the `Instant::now` pattern).
const NONDET_PATHS: [(&[&str], &str); 5] = [
    (
        &["Instant", "now"],
        "raw `Instant::now()` — time must flow through the injectable `obs::Clock`",
    ),
    (
        &["SystemTime", "now"],
        "raw `SystemTime::now()` — time must flow through the injectable `obs::Clock`",
    ),
    (
        &["thread", "spawn"],
        "ad-hoc `thread::spawn` — parallelism must go through the deterministic pool",
    ),
    (
        &["SmallRng", "from_entropy"],
        "entropy-seeded RNG — seeds must be explicit for reproducibility",
    ),
    (
        &["thread_rng"],
        "thread-local entropy RNG — seeds must be explicit for reproducibility",
    ),
];

/// R2: nondeterministic constructs outside the sanctioned modules.
fn r2_nondeterminism(
    path: &str,
    tokens: &[Token],
    lines: &[&str],
    in_test_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    for i in 0..code.len() {
        for (pat, why) in NONDET_PATHS {
            if !matches_path(&code, i, pat) {
                continue;
            }
            let line = code[i].line;
            if in_test_code(line) {
                continue;
            }
            out.push(Finding::new(
                rule_ids::NONDETERMINISM,
                path,
                line,
                (*why).to_string(),
                &line_content(lines, line),
            ));
        }
    }
}

/// Does `ident :: ident :: …` starting at `code[i]` equal `pat`?
fn matches_path(code: &[&Token], i: usize, pat: &[&str]) -> bool {
    let mut j = i;
    for (k, want) in pat.iter().enumerate() {
        if code.get(j).and_then(|t| t.ident()) != Some(want) {
            return false;
        }
        j += 1;
        if k + 1 < pat.len() {
            if !(code.get(j).is_some_and(|t| t.is_punct(':'))
                && code.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
    }
    true
}

/// R3: lexical panic sites — `.unwrap()`, `.expect(…)`, `panic!`,
/// `unimplemented!`, `todo!` — in non-test code of the panic-scoped crates.
fn r3_panic_sites(
    path: &str,
    tokens: &[Token],
    lines: &[&str],
    in_test_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    for i in 0..code.len() {
        let t = code[i];
        let Some(what) = t.ident() else { continue };
        let hit = match what {
            // `.unwrap(` / `.expect(` — the dot distinguishes the method
            // from local functions that happen to share a name.
            "unwrap" | "expect" => {
                i > 0
                    && code[i - 1].is_punct('.')
                    && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            }
            "panic" | "unimplemented" | "todo" => code.get(i + 1).is_some_and(|n| n.is_punct('!')),
            _ => false,
        };
        if !hit || in_test_code(t.line) {
            continue;
        }
        out.push(Finding::new(
            rule_ids::PANIC_SITE,
            path,
            t.line,
            format!("`{what}` can panic in library code — propagate a Result instead"),
            &line_content(lines, t.line),
        ));
    }
}

/// Parallel-iterator entry points that start a chain R5 watches.
const PAR_SOURCES: [&str; 8] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_chunks_exact",
    "par_chunks_exact_mut",
    "par_windows",
];

/// R5: `.sum()` / `.reduce(` directly on a parallel chain. Tracks bracket
/// depth so `;` inside `map(|x| { … })` closures does not end the chain:
/// a chain lives at one depth, and only a `;` at that depth (or shallower)
/// terminates it.
fn r5_float_reduce(
    path: &str,
    tokens: &[Token],
    lines: &[&str],
    in_test_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    let mut depth: usize = 0;
    // Depth at which a parallel chain is live -> line of its source call.
    let mut live: Vec<Option<u32>> = vec![None; 1];
    for i in 0..code.len() {
        let t = code[i];
        match &t.kind {
            TokKind::Punct('(' | '[' | '{') => {
                depth += 1;
                if live.len() <= depth {
                    live.resize(depth + 1, None);
                }
            }
            TokKind::Punct(')' | ']' | '}') => {
                live[depth] = None; // chains do not escape their bracket
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') => live[depth] = None,
            TokKind::Ident(name) if PAR_SOURCES.contains(&name.as_str()) => {
                live[depth] = Some(t.line);
            }
            TokKind::Ident(name) if name == "sum" || name == "reduce" => {
                let is_method_call = i > 0 && code[i - 1].is_punct('.');
                if is_method_call && !in_test_code(t.line) {
                    if let Some(src_line) = live[depth] {
                        out.push(Finding::new(
                            rule_ids::FLOAT_REDUCE,
                            path,
                            t.line,
                            format!(
                                "direct `.{name}()` on a parallel iterator (chain starts line {src_line}) — \
                                 use the deterministic fixed-shape reducers in blas/contract"
                            ),
                            &line_content(lines, t.line),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

/// R6: `Ordering::Relaxed` outside the audited allowlist. A relaxed
/// access carries no happens-before edge, so any cross-thread protocol
/// built on it is invisible to the checkmate race detector and to TSan —
/// code either proves it only needs a monotone counter (and joins the
/// allowlist with that justification) or uses acquire/release.
fn r6_atomic_ordering(
    path: &str,
    tokens: &[Token],
    lines: &[&str],
    in_test_code: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    for i in 0..code.len() {
        if !matches_path(&code, i, &["Ordering", "Relaxed"]) {
            continue;
        }
        let line = code[i].line;
        if in_test_code(line) {
            continue;
        }
        out.push(Finding::new(
            rule_ids::ATOMIC_ORDERING,
            path,
            line,
            "`Ordering::Relaxed` on a shared atomic — no happens-before edge; \
             use acquire/release or justify the file into the audited allowlist"
                .to_string(),
            &line_content(lines, line),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, src, &Config::default())
    }

    #[test]
    fn r1_flags_bare_unsafe_and_accepts_justified() {
        let src = "fn f() {\n    let x = unsafe { *p };\n    // SAFETY: p is valid\n    let y = unsafe { *p };\n}\n";
        let f = run("crates/x/src/lib.rs", src);
        let r1: Vec<_> = f
            .iter()
            .filter(|f| f.rule == rule_ids::UNSAFE_NO_SAFETY)
            .collect();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].line, 2);
    }

    #[test]
    fn r1_same_line_safety_counts() {
        let src = "unsafe impl Send for X {} // SAFETY: X is a plain pointer wrapper\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_raw_instant_but_not_in_tests_or_sanctioned_files() {
        let src = "fn f() { let t = Instant::now(); }\n#[cfg(test)]\nmod tests {\n fn g() { let t = Instant::now(); }\n}\n";
        let f = run("crates/x/src/lib.rs", src);
        let r2: Vec<_> = f
            .iter()
            .filter(|f| f.rule == rule_ids::NONDETERMINISM)
            .collect();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].line, 1);
        assert!(run("crates/obs/src/clock.rs", "fn f() { Instant::now(); }").is_empty());
    }

    #[test]
    fn r2_matches_fully_qualified_paths() {
        let f = run(
            "crates/x/src/lib.rs",
            "fn f() { std::time::Instant::now(); std::thread::spawn(|| {}); }",
        );
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == rule_ids::NONDETERMINISM)
                .count(),
            2
        );
    }

    #[test]
    fn r3_only_in_scoped_crates_and_not_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(run("crates/core/src/a.rs", src).len(), 1);
        assert_eq!(run("crates/io/src/a.rs", src).len(), 1);
        assert!(run("crates/analysis/src/a.rs", src).is_empty());
        assert!(run("crates/core/src/tests.rs", src).is_empty());
        assert!(run("tests/a.rs", src).is_empty());
    }

    #[test]
    fn r3_distinguishes_methods_from_free_functions() {
        // obs::json has a free `expect(b, pos, lit)` helper: no dot, no hit.
        assert!(run("crates/obs/src/a.rs", "fn f() { expect(b, pos, lit); }").is_empty());
        assert_eq!(
            run("crates/obs/src/a.rs", "fn f() { v.expect(\"msg\"); }").len(),
            1
        );
    }

    #[test]
    fn r3_flags_panic_macros() {
        let f = run(
            "crates/jobmgr/src/a.rs",
            "fn f() { panic!(\"boom\"); todo!(); }",
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn r5_flags_par_chain_sum_through_closure_semicolons() {
        let src = "fn f(v: &[f64]) -> f64 {\n    v.par_iter()\n        .map(|x| { let y = x * x; y })\n        .sum::<f64>()\n}\n";
        let f = run("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rule_ids::FLOAT_REDUCE);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn r5_ignores_sequential_sums_and_exempt_files() {
        assert!(run(
            "crates/x/src/lib.rs",
            "fn f(v: &[f64]) -> f64 { v.iter().sum() }"
        )
        .is_empty());
        let par = "fn f(v: &[f64]) -> f64 { v.par_iter().cloned().sum() }";
        assert_eq!(run("crates/x/src/lib.rs", par).len(), 1);
        assert!(run("crates/core/src/blas.rs", par).is_empty());
        assert!(run("vendor/rayon/src/lib.rs", par).is_empty());
    }

    #[test]
    fn r5_chain_ends_at_statement_boundary() {
        let src = "fn f(v: &[f64]) -> f64 {\n    let w: Vec<f64> = v.par_iter().cloned().collect();\n    w.iter().sum()\n}\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r6_flags_relaxed_outside_allowlist() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let f = run("crates/x/src/lib.rs", src);
        let r6: Vec<_> = f
            .iter()
            .filter(|f| f.rule == rule_ids::ATOMIC_ORDERING)
            .collect();
        assert_eq!(r6.len(), 1);
        assert_eq!(r6[0].line, 1);
    }

    #[test]
    fn r6_matches_fully_qualified_paths_and_skips_other_orderings() {
        let src = "fn f(c: &AtomicU64) {\n    c.load(std::sync::atomic::Ordering::Relaxed);\n    c.load(Ordering::Acquire);\n    c.store(1, Ordering::SeqCst);\n}\n";
        let f = run("crates/x/src/lib.rs", src);
        let r6: Vec<_> = f
            .iter()
            .filter(|f| f.rule == rule_ids::ATOMIC_ORDERING)
            .collect();
        assert_eq!(r6.len(), 1, "only the Relaxed line: {f:?}");
        assert_eq!(r6[0].line, 2);
    }

    #[test]
    fn r6_exempts_allowlisted_files_and_test_code() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run("vendor/rayon/src/pool.rs", src)
            .iter()
            .all(|f| f.rule != rule_ids::ATOMIC_ORDERING));
        assert!(run("crates/obs/src/metrics.rs", src).is_empty());
        assert!(run("tests/threading.rs", src).is_empty());
        let in_mod =
            "#[cfg(test)]\nmod tests {\n fn g(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(run("crates/x/src/lib.rs", in_mod).is_empty());
    }

    #[test]
    fn content_hash_is_stable_under_line_moves() {
        let a = run("crates/core/src/a.rs", "fn f() { x.unwrap(); }");
        let b = run("crates/core/src/a.rs", "\n\nfn f() { x.unwrap(); }");
        assert_eq!(a[0].content_hash, b[0].content_hash);
        assert_ne!(a[0].line, b[0].line);
    }
}
