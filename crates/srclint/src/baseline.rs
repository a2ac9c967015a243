//! The suppression baseline: pre-existing violations committed as
//! `lint-baseline.json`, keyed by `(rule, path, content-hash)`.
//!
//! The content hash is of the *trimmed line text*, so a violation that
//! merely moves within its file stays suppressed, while fixing the line
//! changes its hash and leaves the suppression stale — and `--check`
//! refuses stale entries, so a fixed violation cannot be silently
//! reintroduced under its old suppression. `--update-baseline`
//! regenerates the file from the current tree.
//!
//! Serialization goes through the workspace's hand-rolled `obs::Json`
//! emitter with fully sorted entries, so the committed file is
//! byte-deterministic (round-trip covered by a test).

use crate::{rule_ids, Finding};
use obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One suppression entry. `line` and `content` are informational (for
/// human review of the baseline); matching uses only rule + path + hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub content_hash: String,
    /// Trimmed source line, for reviewability of the committed baseline.
    pub content: String,
}

/// A parsed baseline file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    pub suppressions: Vec<Suppression>,
}

/// Result of matching findings against a baseline.
#[derive(Debug, Default)]
pub struct Applied {
    /// Findings with no suppression: these fail `--check`.
    pub fresh: Vec<Finding>,
    /// Findings consumed by a suppression.
    pub suppressed: Vec<Finding>,
    /// Suppressions that matched nothing: the violation was fixed (or the
    /// file removed) — `--check` demands the baseline be shrunk.
    pub stale: Vec<Suppression>,
}

impl Baseline {
    /// Build a baseline that suppresses exactly `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut suppressions: Vec<Suppression> = findings
            .iter()
            .map(|f| Suppression {
                rule: f.rule.to_string(),
                path: f.path.clone(),
                line: f.line,
                content_hash: f.content_hash.clone(),
                content: String::new(),
            })
            .collect();
        suppressions.sort_by(sort_key);
        Baseline { suppressions }
    }

    /// Match `findings` against this baseline. Matching is multiset-style:
    /// each suppression absorbs at most one finding, so two identical
    /// violations need two entries and fixing one of them goes stale.
    pub fn apply(&self, findings: Vec<Finding>) -> Applied {
        let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for s in &self.suppressions {
            *budget
                .entry((s.rule.clone(), s.path.clone(), s.content_hash.clone()))
                .or_insert(0) += 1;
        }
        let mut applied = Applied::default();
        for f in findings {
            let key = (f.rule.to_string(), f.path.clone(), f.content_hash.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    applied.suppressed.push(f);
                }
                _ => applied.fresh.push(f),
            }
        }
        for s in &self.suppressions {
            let key = (s.rule.clone(), s.path.clone(), s.content_hash.clone());
            if let Some(n) = budget.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    applied.stale.push(s.clone());
                }
            }
        }
        applied
    }

    /// Render as the canonical baseline JSON (sorted, pretty, trailing
    /// newline) — the exact bytes `save` writes.
    pub fn to_json_string(&self) -> String {
        let mut entries = self.suppressions.clone();
        entries.sort_by(sort_key);
        Json::obj(vec![
            ("version", Json::from(1u64)),
            (
                "suppressions",
                Json::Arr(
                    entries
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("rule", Json::from(s.rule.as_str())),
                                ("path", Json::from(s.path.as_str())),
                                ("line", Json::from(s.line as u64)),
                                ("hash", Json::from(s.content_hash.as_str())),
                                ("content", Json::from(s.content.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string_pretty()
    }

    /// Parse a baseline document produced by [`Baseline::to_json_string`].
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let items = doc
            .get("suppressions")
            .and_then(Json::as_arr)
            .ok_or("baseline: missing `suppressions` array")?;
        let mut suppressions = Vec::with_capacity(items.len());
        for item in items {
            let s = |k: &str| {
                item.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry: missing `{k}`"))
            };
            let rule = s("rule")?;
            if !rule_ids::ALL.contains(&rule.as_str()) {
                return Err(format!("baseline entry: unknown rule `{rule}`"));
            }
            suppressions.push(Suppression {
                rule,
                path: s("path")?,
                line: item
                    .get("line")
                    .and_then(Json::as_u64)
                    .ok_or("baseline entry: missing `line`")? as u32,
                content_hash: s("hash")?,
                content: s("content")?,
            });
        }
        Ok(Baseline { suppressions })
    }

    /// Load from `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Write the canonical serialization to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

fn sort_key(a: &Suppression, b: &Suppression) -> std::cmp::Ordering {
    (&a.path, &a.rule, &a.content_hash, a.line).cmp(&(&b.path, &b.rule, &b.content_hash, b.line))
}

/// Baseline covering `findings` with the violating source line recorded on
/// each entry (what `--update-baseline` writes).
pub fn baseline_with_content(findings: &[Finding], root: &Path) -> Baseline {
    let mut cache: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut suppressions: Vec<Suppression> = findings
        .iter()
        .map(|f| {
            let lines = cache.entry(f.path.clone()).or_insert_with(|| {
                std::fs::read_to_string(root.join(&f.path))
                    .map(|s| s.lines().map(|l| l.trim().to_string()).collect())
                    .unwrap_or_default()
            });
            Suppression {
                rule: f.rule.to_string(),
                path: f.path.clone(),
                line: f.line,
                content_hash: f.content_hash.clone(),
                content: lines.get(f.line as usize - 1).cloned().unwrap_or_default(),
            }
        })
        .collect();
    suppressions.sort_by(sort_key);
    Baseline { suppressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32, content: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message: "m".into(),
            content_hash: crate::fnv64_hex(content.trim()),
        }
    }

    #[test]
    fn apply_partitions_fresh_suppressed_stale() {
        let old = vec![
            finding(rule_ids::PANIC_SITE, "a.rs", 3, "x.unwrap();"),
            finding(rule_ids::PANIC_SITE, "a.rs", 9, "y.unwrap();"),
        ];
        let base = Baseline::from_findings(&old);
        // y's line was fixed; a new violation appeared in b.rs; x moved.
        let now = vec![
            finding(rule_ids::PANIC_SITE, "a.rs", 30, "x.unwrap();"),
            finding(rule_ids::PANIC_SITE, "b.rs", 1, "z.unwrap();"),
        ];
        let applied = base.apply(now);
        assert_eq!(applied.suppressed.len(), 1);
        assert_eq!(applied.suppressed[0].line, 30);
        assert_eq!(applied.fresh.len(), 1);
        assert_eq!(applied.fresh[0].path, "b.rs");
        assert_eq!(applied.stale.len(), 1);
    }

    #[test]
    fn duplicate_lines_need_duplicate_entries() {
        let two = vec![
            finding(rule_ids::PANIC_SITE, "a.rs", 3, "x.unwrap();"),
            finding(rule_ids::PANIC_SITE, "a.rs", 7, "x.unwrap();"),
        ];
        let base = Baseline::from_findings(&two[..1]);
        let applied = base.apply(two);
        assert_eq!(applied.suppressed.len(), 1);
        assert_eq!(applied.fresh.len(), 1);
    }

    #[test]
    fn serialization_round_trips_byte_identically() {
        let base = Baseline::from_findings(&[
            finding(rule_ids::NONDETERMINISM, "b.rs", 2, "Instant::now()"),
            finding(rule_ids::PANIC_SITE, "a.rs", 3, "x.unwrap();"),
        ]);
        let text = base.to_json_string();
        let back = Baseline::parse(&text).unwrap();
        assert_eq!(back, base);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn unknown_rules_are_rejected() {
        let doc = "{\"version\": 1, \"suppressions\": [{\"rule\": \"R9-bogus\", \"path\": \"a\", \"line\": 1, \"hash\": \"00\", \"content\": \"\"}]}";
        assert!(Baseline::parse(doc).is_err());
    }
}
