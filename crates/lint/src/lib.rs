//! `harl-lint`: project-specific static analysis for the HARL workspace.
//!
//! The compiler and clippy cannot check the two properties this
//! reproduction lives on: **bit-determinism** (same Scenario + seed ⇒
//! byte-identical report) and **cost-model numeric hygiene** (Sec. III-D,
//! Eqs. 1–8). This crate is a two-pass semantic analyzer (still no parser
//! crate, no dependencies): pass 1 segments the token stream into a
//! lightweight item/module graph (`graph`), pass 2 runs the token rules
//! (`rules`) and the graph-aware semantic rules (`semantic`) described in
//! DESIGN.md Appendix D:
//!
//! | rule | scope | meaning |
//! |------|-------|---------|
//! | `determinism` | simulated-time crates | no `Instant`/`SystemTime`/env entropy |
//! | `cast-hygiene` | cost-model files | no bare `as <int>` casts |
//! | `float-eq` | cost-model files | no `==`/`!=` on floats |
//! | `simcontext-first` | everywhere | `&SimContext` is the first non-self arg |
//! | `recorded-twins` | everywhere | no `*_recorded` API resurrection |
//! | `metric-registry` | everywhere but `registry.rs` | no quoted metric names at Recorder calls |
//! | `map-iteration-order` | simulated-time crates | no HashMap/HashSet iteration without ordering |
//! | `unordered-parallel-merge` | simulated-time crates | parallel results merge in canonical key order |
//! | `float-accumulation` | `crates/harl` (minus `fold.rs`) | f64 accumulation via `harl::fold` helpers |
//!
//! Legitimate exceptions live in `lint.allow.toml` (rule + path + line
//! pattern + reason); unused entries are reported as `stale-allow` so the
//! allowlist ratchets down, never silently up.

// missing_docs / rust_2018_idioms come from [workspace.lints]. The
// cfg_attr tier keeps unwrap/expect/panic! out of this crate's library
// code at compile time; unit tests compile under cfg(test) and stay
// exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod semantic;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation (or allowlisted exception) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of the `rules::RULE_*` constants).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line, for context and allowlist matching.
    pub snippet: String,
    /// True when an allowlist entry covers this finding.
    pub allowed: bool,
}

/// Result of a lint run over the workspace.
#[derive(Debug)]
pub struct Report {
    /// All findings, allowlisted ones included.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of allowlist entries loaded.
    pub allow_entries: usize,
}

impl Report {
    /// Findings not covered by the allowlist — these fail the run.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// True when the workspace is clean (no non-allowlisted findings).
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }
}

/// Files and directories where wall-clock/entropy access is forbidden:
/// everything that runs under simulated time. `crates/bench` is the
/// wall-clock harness by design and is deliberately out of scope.
const DETERMINISM_SCOPES: &[&str] = &[
    "crates/simcore/src/",
    "crates/pfs/src/",
    "crates/middleware/src/",
    "crates/harl/src/",
];

/// The Sec. III-D cost-model implementation, held to the strictest
/// numeric rules.
const CAST_SCOPES: &[&str] = &[
    "crates/harl/src/model.rs",
    "crates/harl/src/optimizer.rs",
    "crates/harl/src/analysis.rs",
];

fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

/// Model/optimizer code held to fixed-order float accumulation
/// (`harl::fold`). The fold helpers themselves implement the pinned-order
/// loops the rule pushes everyone else towards, so `fold.rs` is the one
/// file out of scope.
const FLOAT_ACC_SCOPES: &[&str] = &["crates/harl/src/"];

/// Run every applicable rule on one file's source. Public so the fixture
/// tests can aim rules at synthetic paths.
///
/// Two passes: the item graph is built once (`graph::Graph::build`), the
/// token rules and the graph-aware semantic rules then share its
/// `#[cfg(test)]` mask.
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    let toks = lexer::lex(source);
    let graph = graph::Graph::build(&toks);
    let mask = graph.test_mask();
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    if in_scope(path, DETERMINISM_SCOPES) {
        rules::determinism(path, &toks, &mask, &lines, &mut out);
        semantic::map_iteration_order(path, &toks, &mask, &lines, &graph, &mut out);
        semantic::unordered_parallel_merge(path, &toks, &mask, &lines, &graph, &mut out);
    }
    if in_scope(path, FLOAT_ACC_SCOPES) && !path.ends_with("fold.rs") {
        semantic::float_accumulation(path, &toks, &mask, &lines, &graph, &mut out);
    }
    if in_scope(path, CAST_SCOPES) {
        rules::cast_hygiene(path, &toks, &mask, &lines, &mut out);
        rules::float_eq(path, &toks, &mask, &lines, &mut out);
    }
    rules::simcontext_first(path, &toks, &mask, &lines, &mut out);
    rules::recorded_twins(path, &toks, &mask, &lines, &mut out);
    if !path.ends_with("registry.rs") {
        rules::metric_registry(path, &toks, &mask, &lines, &mut out);
    }
    out
}

/// Directory names never descended into: build output, vendored
/// dependencies, and per-crate test/bench/fixture trees (integration
/// tests and benches are exempt from the rules, like `#[cfg(test)]`).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut batch: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("while walking {}: {e}", dir.display()))?;
        batch.push(entry.path());
    }
    // Deterministic scan order regardless of filesystem enumeration.
    batch.sort();
    for path in batch {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root`, applying the allowlist at
/// `allow_path` (a missing allowlist file means "no exceptions").
pub fn run(root: &Path, allow_path: &Path) -> Result<Report, String> {
    let mut allow_entries = Vec::new();
    if allow_path.exists() {
        let src = fs::read_to_string(allow_path)
            .map_err(|e| format!("cannot read {}: {e}", allow_path.display()))?;
        allow_entries = allow::parse(&src)?;
    }
    let known_rules = [
        rules::RULE_DETERMINISM,
        rules::RULE_CAST,
        rules::RULE_FLOAT_EQ,
        rules::RULE_SIMCONTEXT,
        rules::RULE_RECORDED,
        rules::RULE_METRIC,
        rules::RULE_MAP_ITER,
        rules::RULE_PAR_MERGE,
        rules::RULE_FLOAT_ACC,
    ];
    for e in &allow_entries {
        if !known_rules.contains(&e.rule.as_str()) {
            return Err(format!(
                "lint.allow.toml:{}: unknown rule `{}` (known: {})",
                e.line,
                e.rule,
                known_rules.join(", ")
            ));
        }
    }

    let mut files = Vec::new();
    let mut tops_found = 0usize;
    for top in ["crates", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            tops_found += 1;
            walk(&dir, &mut files)?;
        }
    }
    // A root with none of the source trees is a mistyped --root, not a
    // clean workspace — scanning nothing must not pass CI.
    if tops_found == 0 {
        return Err(format!(
            "{}: no crates/, src/ or examples/ directory — is this the workspace root?",
            root.display()
        ));
    }

    let mut findings = Vec::new();
    let files_scanned = files.len();
    for file in files {
        let source = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &source));
    }

    // Apply the allowlist; count hits so stale entries surface.
    let mut hits = vec![0usize; allow_entries.len()];
    for f in &mut findings {
        for (i, e) in allow_entries.iter().enumerate() {
            if e.rule == f.rule && e.path == f.path && f.snippet.contains(&e.pattern) {
                f.allowed = true;
                hits[i] += 1;
            }
        }
    }
    for (e, &n) in allow_entries.iter().zip(&hits) {
        if n == 0 {
            let (id, _) = rules::rule_doc(&e.rule);
            findings.push(Finding {
                rule: rules::RULE_STALE_ALLOW.to_string(),
                path: "lint.allow.toml".to_string(),
                line: e.line,
                message: format!(
                    "allow entry for {id} (rule `{}`, path `{}`, pattern `{}`) matches nothing — \
                     the violation was fixed, so delete the entry",
                    e.rule, e.path, e.pattern
                ),
                snippet: format!("pattern = \"{}\"", e.pattern),
                allowed: false,
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(Report {
        findings,
        files_scanned,
        allow_entries: allow_entries.len(),
    })
}

/// Human-readable report, one block per finding plus a summary line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in report.findings.iter().filter(|f| !f.allowed) {
        let (id, doc) = rules::rule_doc(&f.rule);
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", f.snippet);
        }
        let _ = writeln!(out, "    = {id}: {doc}");
    }
    let violations = report.violations().count();
    let allowed = report.findings.len() - violations;
    let _ = writeln!(
        out,
        "harl-lint: {} file(s) scanned, {} violation(s), {} allowlisted exception(s)",
        report.files_scanned, violations, allowed
    );
    out
}

/// Machine-readable report (`--json`). Rendered by hand: the lint crate
/// stays dependency-free so it can never be broken by the code it checks.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (id, doc) = rules::rule_doc(&f.rule);
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"id\": {}, \"doc\": {}, \"path\": {}, \"line\": {}, \
             \"message\": {}, \"snippet\": {}, \"allowed\": {}}}",
            json_str(&f.rule),
            json_str(id),
            json_str(doc),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet),
            f.allowed
        );
    }
    let violations = report.violations().count();
    let _ = write!(
        out,
        "\n  ],\n  \"files_scanned\": {},\n  \"allow_entries\": {},\n  \"violations\": {}\n}}\n",
        report.files_scanned, report.allow_entries, violations
    );
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_tables_are_prefixes() {
        assert!(in_scope("crates/harl/src/model.rs", CAST_SCOPES));
        assert!(!in_scope("crates/harl/src/rst.rs", CAST_SCOPES));
        assert!(in_scope(
            "crates/middleware/src/runtime.rs",
            DETERMINISM_SCOPES
        ));
        // The whole of simcore runs under simulated time; the profiler's
        // wall-clock timers survive via an allowlist entry, not a scope hole.
        assert!(in_scope(
            "crates/simcore/src/profiler.rs",
            DETERMINISM_SCOPES
        ));
        // The cluster-scale engine modules (calendar queue, disk fan-out)
        // are load-bearing for bit-determinism and must never fall out of
        // scope.
        assert!(in_scope(
            "crates/simcore/src/calendar.rs",
            DETERMINISM_SCOPES
        ));
        assert!(in_scope("crates/pfs/src/sim.rs", DETERMINISM_SCOPES));
        assert!(!in_scope(
            "crates/bench/src/ablations.rs",
            DETERMINISM_SCOPES
        ));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_output_parses_by_eye() {
        let report = Report {
            findings: vec![Finding {
                rule: "determinism".into(),
                path: "crates/harl/src/x.rs".into(),
                line: 3,
                message: "m".into(),
                snippet: "let t = Instant::now();".into(),
                allowed: false,
            }],
            files_scanned: 1,
            allow_entries: 0,
        };
        let json = render_json(&report);
        assert!(json.contains("\"violations\": 1"), "{json}");
        assert!(json.contains("\"rule\": \"determinism\""), "{json}");
        assert!(json.contains("\"id\": \"HL001\""), "{json}");
        assert!(
            json.contains("\"doc\": \"DESIGN.md#rules-and-scopes\""),
            "{json}"
        );
    }

    #[test]
    fn every_rule_has_a_doc_id() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in [
            rules::RULE_DETERMINISM,
            rules::RULE_CAST,
            rules::RULE_FLOAT_EQ,
            rules::RULE_SIMCONTEXT,
            rules::RULE_RECORDED,
            rules::RULE_METRIC,
            rules::RULE_MAP_ITER,
            rules::RULE_PAR_MERGE,
            rules::RULE_FLOAT_ACC,
            rules::RULE_STALE_ALLOW,
        ] {
            let (id, doc) = rules::rule_doc(rule);
            assert!(id.starts_with("HL"), "{rule}: id {id}");
            assert_ne!(id, "HL999", "{rule} is missing a dedicated id");
            assert!(doc.starts_with("DESIGN.md#"), "{rule}: doc {doc}");
            assert!(seen.insert(id), "duplicate doc id {id}");
        }
    }
}
