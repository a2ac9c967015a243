//! R4: crate-layering enforcement.
//!
//! Discovers every package manifest under the scan root, parses its
//! `[package] name` and `[dependencies]` with a purpose-built minimal TOML
//! reader (the two syntaxes this workspace uses: `key.workspace = true`
//! and `key = { path = "…" }`), then cross-references three things:
//!
//! 1. **Forbidden edges** — the layer policy from [`crate::Config`]
//!    (`core` must never depend on `jobmgr`/`bench`/`io`, `obs` on nothing
//!    in-workspace). Both the declared edge and actual `use`/path
//!    references are checked, so a policy hole cannot hide behind a
//!    transitively-reexported path.
//! 2. **Unused declarations** — a dependency listed in `[dependencies]`
//!    whose lib name is never referenced from the package's sources widens
//!    the layering graph for nothing and invites accidental coupling.
//! 3. **Undeclared references** — a source reference to a workspace lib
//!    that is not in `[dependencies]` (normally a compile error, but catches
//!    references smuggled in through `cfg`-gated code).

use crate::lexer::{lex, TokKind};
use crate::{rule_ids, Config, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One parsed manifest.
#[derive(Debug)]
struct Manifest {
    /// Package name (`[package] name = "…"`).
    name: String,
    /// Manifest path relative to the scan root.
    rel_path: String,
    /// Directory containing the manifest.
    dir: PathBuf,
    /// Dep key -> (1-based line in the manifest, raw line text). Only
    /// `[dependencies]`; dev-dependencies may be test-only and are exempt.
    deps: BTreeMap<String, (u32, String)>,
}

/// Parse the subset of TOML this workspace's manifests use.
fn parse_manifest(rel_path: &str, text: &str) -> Option<Manifest> {
    let mut name = None;
    let mut deps = BTreeMap::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if section == "package" {
            if let Some(v) = line.strip_prefix("name") {
                let v = v.trim_start();
                if let Some(v) = v.strip_prefix('=') {
                    name = Some(v.trim().trim_matches('"').to_string());
                }
            }
        } else if section == "dependencies" {
            // `rand.workspace = true` or `rand = { … }` or `rand = "1.0"`.
            let key: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !key.is_empty() {
                deps.insert(key, (i as u32 + 1, raw.to_string()));
            }
        }
    }
    Some(Manifest {
        name: name?,
        rel_path: rel_path.to_string(),
        dir: PathBuf::new(),
        deps,
    })
}

/// Find every `Cargo.toml` with a `[package]` section under `root`.
fn find_manifests(root: &Path, cfg: &Config) -> std::io::Result<Vec<Manifest>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                let dname = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !cfg.skip_dirs.iter().any(|s| s == dname) {
                    stack.push(p);
                }
            } else if p.file_name().and_then(|n| n.to_str()) == Some("Cargo.toml") {
                let text = std::fs::read_to_string(&p)?;
                let rel = crate::rel(root, &p);
                if let Some(mut m) = parse_manifest(&rel, &text) {
                    m.dir = p.parent().unwrap_or(root).to_path_buf();
                    out.push(m);
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

/// The lib (import) name of a dependency key: `-` becomes `_`.
fn lib_name(dep: &str) -> String {
    dep.replace('-', "_")
}

/// Every external crate name referenced from the package's sources, via
/// `use name::…`, `name::path`, or `extern crate name`. Token-level: a
/// `name ::` pair outside comments. Includes test code — a test import is
/// still a real dependency edge.
fn referenced_crates(pkg_dir: &Path, cfg: &Config) -> std::io::Result<BTreeSet<String>> {
    let mut refs = BTreeSet::new();
    for sub in ["src", "tests", "benches", "examples"] {
        let dir = pkg_dir.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d)? {
                let p = e?.path();
                if p.is_dir() {
                    let dname = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    if !cfg.skip_dirs.iter().any(|s| s == dname) {
                        stack.push(p);
                    }
                } else if p.extension().and_then(|x| x.to_str()) == Some("rs") {
                    let Ok(src) = std::fs::read_to_string(&p) else {
                        continue;
                    };
                    let toks = lex(&src);
                    let code: Vec<_> = toks
                        .iter()
                        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
                        .collect();
                    for i in 0..code.len() {
                        if let Some(name) = code[i].ident() {
                            let qualified = code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                                && code.get(i + 2).is_some_and(|t| t.is_punct(':'));
                            // `foo::bar` where foo is not itself preceded by
                            // `::` (which would make it a path segment).
                            let root_segment =
                                i < 2 || !(code[i - 1].is_punct(':') && code[i - 2].is_punct(':'));
                            // Bare re-exports: `use foo;` / `pub use foo as
                            // bar;` / `extern crate foo;` reference the crate
                            // root without a `::` pair.
                            let bare_use = i > 0
                                && code[i - 1]
                                    .ident()
                                    .is_some_and(|k| k == "use" || k == "crate");
                            if (qualified && root_segment) || bare_use {
                                refs.insert(name.to_string());
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(refs)
}

/// Run the layering checks over every package under `root`.
pub fn check_layering(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let manifests = find_manifests(root, cfg)?;
    let workspace: BTreeMap<String, String> = manifests
        .iter()
        .map(|m| (m.name.clone(), lib_name(&m.name)))
        .collect();
    // lib name -> package name, for resolving source references.
    let by_lib: BTreeMap<String, String> = manifests
        .iter()
        .map(|m| (lib_name(&m.name), m.name.clone()))
        .collect();

    let mut out = Vec::new();
    for m in &manifests {
        let forbidden: &[String] = cfg
            .forbidden_deps
            .iter()
            .find(|(pkg, _)| *pkg == m.name)
            .map(|(_, f)| f.as_slice())
            .unwrap_or(&[]);
        let isolated = cfg.isolated_packages.contains(&m.name);
        let refs = referenced_crates(&m.dir, cfg)?;

        for (dep, (line, raw)) in &m.deps {
            let in_workspace = workspace.contains_key(dep);
            let violates_edge = forbidden.iter().any(|f| f == dep);
            let violates_isolation = isolated && in_workspace;
            if violates_edge || violates_isolation {
                out.push(Finding::new(
                    rule_ids::LAYERING,
                    &m.rel_path,
                    *line,
                    format!(
                        "`{}` must not depend on `{dep}` ({})",
                        m.name,
                        if violates_isolation {
                            "package is layer-isolated: no in-workspace deps"
                        } else {
                            "forbidden layering edge"
                        }
                    ),
                    raw,
                ));
            }
            if !refs.contains(&lib_name(dep)) {
                out.push(Finding::new(
                    rule_ids::LAYERING,
                    &m.rel_path,
                    *line,
                    format!(
                        "`{}` declares dependency `{dep}` but never references `{}::` — \
                         remove it to keep the layering graph honest",
                        m.name,
                        lib_name(dep)
                    ),
                    raw,
                ));
            }
        }

        // Source references to workspace libs that are not declared, or
        // that cross a forbidden edge without a manifest entry.
        for r in &refs {
            let Some(ref_pkg) = by_lib.get(r) else {
                continue;
            };
            if *ref_pkg == m.name {
                continue; // crate-internal absolute path
            }
            if forbidden.iter().any(|f| f == ref_pkg) && !m.deps.contains_key(ref_pkg) {
                out.push(Finding::new(
                    rule_ids::LAYERING,
                    &m.rel_path,
                    1,
                    format!(
                        "sources of `{}` reference forbidden layer `{ref_pkg}` (via `{r}::`)",
                        m.name
                    ),
                    &format!("{}::{ref_pkg}", m.name),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_both_dep_syntaxes() {
        let m = parse_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n\n[dependencies]\nobs.workspace = true\nrand = { path = \"../rand\" }\nplain = \"1.0\"\n\n[dev-dependencies]\nproptest.workspace = true\n",
        )
        .unwrap();
        assert_eq!(m.name, "x");
        let keys: Vec<&String> = m.deps.keys().collect();
        assert_eq!(keys, ["obs", "plain", "rand"]);
        assert!(!m.deps.contains_key("proptest"));
    }

    #[test]
    fn lib_names_normalize_dashes() {
        assert_eq!(lib_name("lqcd-core"), "lqcd_core");
    }
}
