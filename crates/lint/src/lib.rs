//! `scbr-lint` — workspace-aware static analysis for the SCBR tree.
//!
//! The paper's security argument rests on invariants the test suite can
//! only *sample*: plaintext and key material never crosses the enclave
//! boundary in the clear, the matching hot path allocates nothing, every
//! stats counter actually reaches the telemetry registry, enclave-side
//! code never reads the wall clock. This crate turns those into
//! whole-tree build-time checks: a hand-rolled comment/string-aware
//! [`lexer`], a lightweight item-level [`parser`], and a [`rules`] engine
//! with stable codes (`SL01`–`SL06`), inline
//! `// lint: allow(<rule>, <reason>)` suppressions, JSON output, and
//! `--deny` exit-code semantics for CI.
//!
//! Boundary changes are manifest-driven: the ecall/ocall-crossing surface
//! is enumerated into `BOUNDARY.lock`, so any new crossing is an explicit,
//! reviewed diff to the lock file (rule SL05).
#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Bumped whenever the `LINT_REPORT.json` document shape changes (same
/// contract as `scbr_bench::json::SCHEMA_VERSION` for `BENCH_*.json`).
pub const SCHEMA_VERSION: u32 = 1;

/// One finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule code (`SL01` … `SL06`).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// The reason given by the matching `// lint: allow(...)`, when one
    /// covers this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, path: &str, line: u32, message: String) -> Self {
        Finding { rule, path: path.to_string(), line, message, suppressed: None }
    }
}

/// One `.ecall(` / `.ocall(` call site (the SL05 surface unit).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SurfaceSite {
    pub path: String,
    /// Enclosing function, `Type::name`-qualified when associated.
    pub function: String,
    /// `"ecall"` or `"ocall"`.
    pub kind: String,
    pub line: u32,
}

/// Tunable scope of the rules. [`LintConfig::default`] carries the real
/// repo's invariants; tests point the same engine at fixture trees.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes where SL01 bans wall-clock reads (the enclave-side
    /// modules; host-side code *within* them justifies itself with an
    /// inline allow).
    pub sl01_scope: Vec<String>,
    /// The declared zero-allocation function set for SL03: bare names, or
    /// `Type::name` for one type's method.
    pub sl03_fns: Vec<String>,
    /// Files allowed to contain `unsafe` (must carry `// SAFETY:` docs).
    pub sl06_unsafe_allow: Vec<String>,
    /// Path prefixes excluded from the SL05 surface scan (the gate's own
    /// crate — its internal tests exercise the gate, they do not cross it).
    pub boundary_exclude: Vec<String>,
    /// Top-level directories walked by [`lint_tree`].
    pub scan_roots: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            sl01_scope: vec![
                "crates/core/src".into(),
                "crates/aspe/src".into(),
                "crates/crypto/src".into(),
                "crates/sgx-sim/src".into(),
            ],
            sl03_fns: vec![
                "match_batch_into".into(),
                "match_encrypted_batch_into".into(),
                "match_into".into(),
                "route_batch".into(),
                // The Montgomery core (`scbr-crypto` `bigint/mont.rs`):
                // scratch is allocated once per exponentiation, never per
                // multiply or per window.
                "cios_mul".into(),
                "redc_wide".into(),
                "sub_n_masked".into(),
                "select_ct".into(),
                "ladder_ct".into(),
                "ladder_vartime".into(),
                // The bitsliced AES core (`scbr-crypto` `aes.rs`) and the
                // CTR keystream over it: state lives in fixed arrays.
                "sub_bytes".into(),
                "shift_rows".into(),
                "mix_columns".into(),
                "encrypt4".into(),
                "AesCtr::apply".into(),
                "Keystream::apply".into(),
                "Keystream::refill".into(),
                "Keystream::xor_append".into(),
                // Poly1305 (`scbr-crypto` `poly1305.rs`): limbs and the
                // partial block live in the state.
                "Poly1305::blocks".into(),
                "Poly1305::update".into(),
                "Poly1305::finalize".into(),
                // The overlay hop path: batches are read in place from the
                // opened frame, routed into reused spans and encoded per
                // link into a reused buffer.
                "PublishBatchView::next".into(),
                "split_member".into(),
                "encode_publish_batch".into(),
                "BrokerCore::route_into".into(),
            ],
            sl06_unsafe_allow: vec![
                "crates/core/tests/zero_alloc_batch.rs".into(),
                "crates/overlay/tests/zero_alloc_hop.rs".into(),
            ],
            boundary_exclude: vec!["crates/sgx-sim".into()],
            scan_roots: vec!["crates".into(), "src".into(), "tests".into(), "examples".into()],
        }
    }
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// All findings, each carrying its suppression state.
    pub findings: Vec<Finding>,
    /// The file's boundary-crossing call sites.
    pub surface: Vec<SurfaceSite>,
}

/// The outcome of linting a whole tree.
#[derive(Debug, Default)]
pub struct TreeReport {
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Suppressed findings with their reasons, same order.
    pub suppressed: Vec<Finding>,
    /// The enumerated boundary surface (aggregated, sorted).
    pub surface: Vec<SurfaceEntry>,
}

impl TreeReport {
    /// Findings for one rule code.
    pub fn of_rule(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }
}

/// An aggregated lock-file row: every call of `kind` from `function`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SurfaceEntry {
    pub path: String,
    pub function: String,
    pub kind: String,
    pub count: u32,
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A parsed `lint: allow(<rule>, <reason>)` comment.
#[derive(Debug, Clone)]
struct Allow {
    line: u32,
    rule: String,
    reason: String,
}

/// Extracts every allow from a file's comments. The accepted shape is
/// `lint: allow(SLxx, free-text reason)` anywhere inside a plain comment;
/// the reason is mandatory — an unexplained suppression is itself suspect.
/// Doc comments never suppress: prose *describing* the syntax must not
/// accidentally invoke it.
fn parse_allows(lexed: &lexer::Lexed, rel: &str, bad: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        let doc = ["///", "//!", "/**", "/*!"].iter().any(|p| c.text.starts_with(p));
        if doc {
            continue;
        }
        let Some(at) = c.text.find("lint:") else { continue };
        let rest = c.text[at + "lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else { continue };
        let Some(close) = args.find(')') else {
            bad.push(Finding::new("SL00", rel, c.line, "unterminated lint: allow(...)".into()));
            continue;
        };
        let body = &args[..close];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        if !rules::RULE_CODES.contains(&rule) || reason.is_empty() {
            bad.push(Finding::new(
                "SL00",
                rel,
                c.line,
                format!(
                    "malformed suppression `{}` — expected `lint: allow(SLxx, reason)` with a \
                     known rule code and a non-empty reason",
                    body.trim()
                ),
            ));
            continue;
        }
        allows.push(Allow { line: c.line, rule: rule.to_string(), reason: reason.to_string() });
    }
    allows
}

/// Line ranges each allow covers: its own line, the line below it, and —
/// when it sits in the contiguous comment block directly above an item
/// declaration — that item's whole span.
fn apply_suppressions(
    findings: &mut [Finding],
    allows: &[Allow],
    model: &parser::FileModel,
    lexed: &lexer::Lexed,
) {
    if allows.is_empty() {
        return;
    }
    let comment_lines: std::collections::BTreeSet<u32> =
        lexed.comments.iter().map(|c| c.line).collect();
    // (start, end, rule, reason) coverage spans.
    let mut spans: Vec<(u32, u32, &str, &str)> = Vec::new();
    for a in allows {
        spans.push((a.line, a.line + 1, &a.rule, &a.reason));
    }
    let mut items: Vec<(u32, u32)> = model
        .fns
        .iter()
        .map(|f| (f.decl_line, f.end_line))
        .chain(model.types.iter().map(|t| (t.decl_line, t.end_line)))
        .collect();
    items.sort_unstable();
    for (decl, end) in items {
        // Walk the contiguous comment block upward from the declaration.
        let mut top = decl;
        while top > 1 && comment_lines.contains(&(top - 1)) {
            top -= 1;
        }
        if top == decl {
            continue;
        }
        for a in allows {
            if a.line >= top && a.line < decl {
                spans.push((decl, end, &a.rule, &a.reason));
            }
        }
    }
    for f in findings.iter_mut() {
        if f.suppressed.is_some() {
            continue;
        }
        for (start, end, rule, reason) in &spans {
            if f.rule == *rule && f.line >= *start && f.line <= *end {
                f.suppressed = Some(reason.to_string());
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file and per-tree drivers
// ---------------------------------------------------------------------------

/// Lints one file's source as if it lived at `rel` (workspace-relative).
/// `crate_root` marks `src/lib.rs` files for the SL06 forbid check.
pub fn lint_file(rel: &str, source: &str, cfg: &LintConfig, crate_root: bool) -> FileOutcome {
    let lexed = lexer::lex(source);
    let model = parser::parse(&lexed);
    let (mut findings, surface) = rules::check_file(rel, &lexed, &model, cfg, crate_root);
    let allows = parse_allows(&lexed, rel, &mut findings);
    apply_suppressions(&mut findings, &allows, &model, &lexed);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileOutcome { findings, surface }
}

/// True for `crates/<name>/src/lib.rs` and the umbrella `src/lib.rs`.
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(parts.as_slice(), ["crates", _, "src", "lib.rs"])
}

/// Path components that end a walk: build output, vendored stand-ins, the
/// deliberately-violating fixture corpus.
const SKIP_COMPONENTS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if SKIP_COMPONENTS.contains(&name) {
            continue;
        }
        if path.is_dir() {
            walk(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// Lints the whole tree under `root` and checks the boundary surface
/// against `lock` (`None` defaults to `<root>/BOUNDARY.lock`).
pub fn lint_tree(root: &Path, cfg: &LintConfig, lock: Option<&Path>) -> TreeReport {
    let mut files = Vec::new();
    for top in &cfg.scan_roots {
        walk(&root.join(top), &mut files);
    }
    let mut report = TreeReport::default();
    let mut all: Vec<Finding> = Vec::new();
    let mut sites: Vec<SurfaceSite> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(source) = fs::read_to_string(path) else { continue };
        let outcome = lint_file(&rel, &source, cfg, is_crate_root(&rel));
        all.extend(outcome.findings);
        sites.extend(outcome.surface);
        report.files_scanned += 1;
    }
    report.surface = aggregate_surface(&sites);
    let lock_path = lock.map(Path::to_path_buf).unwrap_or_else(|| root.join("BOUNDARY.lock"));
    all.extend(check_boundary(&report.surface, &sites, &lock_path));
    all.sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    let (suppressed, findings) = all.into_iter().partition(|f| f.suppressed.is_some());
    report.findings = findings;
    report.suppressed = suppressed;
    report
}

// ---------------------------------------------------------------------------
// SL05: the boundary lock
// ---------------------------------------------------------------------------

fn aggregate_surface(sites: &[SurfaceSite]) -> Vec<SurfaceEntry> {
    let mut counts: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for s in sites {
        *counts.entry((s.path.clone(), s.function.clone(), s.kind.clone())).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|((path, function, kind), count)| SurfaceEntry { path, function, kind, count })
        .collect()
}

/// Renders the lock file for a surface.
pub fn render_lock(surface: &[SurfaceEntry]) -> String {
    let mut out = String::from(
        "# BOUNDARY.lock — the workspace's ecall/ocall-crossing surface, one row per\n\
         # (file, function, kind). Any change to this surface must be an explicit,\n\
         # reviewed diff to this file: regenerate with\n\
         #   cargo run -p scbr-lint -- --update-boundary\n",
    );
    for e in surface {
        out.push_str(&format!("{}\t{}\t{}\t{}\n", e.path, e.function, e.kind, e.count));
    }
    out
}

/// Parses a lock file's rows (comments and blank lines skipped).
pub fn parse_lock(text: &str) -> Vec<SurfaceEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(path), Some(function), Some(kind), Some(count)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        entries.push(SurfaceEntry {
            path: path.to_string(),
            function: function.to_string(),
            kind: kind.to_string(),
            count: count.parse().unwrap_or(0),
        });
    }
    entries.sort();
    entries
}

/// Compares the observed surface against the lock, producing SL05
/// findings for every drifted row. Suppressions deliberately do not apply:
/// the only way to admit a new crossing is to update the lock itself.
fn check_boundary(
    surface: &[SurfaceEntry],
    sites: &[SurfaceSite],
    lock_path: &Path,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Ok(text) = fs::read_to_string(lock_path) else {
        findings.push(Finding::new(
            "SL05",
            "BOUNDARY.lock",
            0,
            "BOUNDARY.lock is missing — generate it with `scbr-lint --update-boundary` and \
             check it in"
                .to_string(),
        ));
        return findings;
    };
    let locked = parse_lock(&text);
    for entry in surface {
        let known = locked
            .iter()
            .find(|l| l.path == entry.path && l.function == entry.function && l.kind == entry.kind);
        match known {
            Some(l) if l.count == entry.count => {}
            other => {
                let line = sites
                    .iter()
                    .find(|s| {
                        s.path == entry.path && s.function == entry.function && s.kind == entry.kind
                    })
                    .map(|s| s.line)
                    .unwrap_or(0);
                let detail = match other {
                    Some(l) => {
                        format!("{} site(s) in the lock, {} in the tree", l.count, entry.count)
                    }
                    None => "not in the lock".to_string(),
                };
                findings.push(Finding::new(
                    "SL05",
                    &entry.path,
                    line,
                    format!(
                        "boundary surface changed: `{}` {} in `{}` — {detail}; review the \
                         crossing and run `scbr-lint --update-boundary`",
                        entry.kind, entry.function, entry.path
                    ),
                ));
            }
        }
    }
    for l in &locked {
        let still = surface
            .iter()
            .any(|e| e.path == l.path && e.function == l.function && e.kind == l.kind);
        if !still {
            findings.push(Finding::new(
                "SL05",
                "BOUNDARY.lock",
                0,
                format!(
                    "stale lock row: `{}` {} in `{}` no longer exists — run \
                     `scbr-lint --update-boundary`",
                    l.kind, l.function, l.path
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG_SRC_PATH: &str = "crates/core/src/file.rs";

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f() { let t = Instant::now(); // lint: allow(SL01, host-side timer)\n}\n";
        let out = lint_file(CFG_SRC_PATH, src, &cfg(), false);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].suppressed.as_deref(), Some("host-side timer"));
    }

    #[test]
    fn allow_above_item_covers_whole_item() {
        let src = "\
// lint: allow(SL01, provably host-side helper)\n\
fn helper() {\n\
    let a = Instant::now();\n\
    let b = Instant::now();\n\
}\n\
fn unprotected() { let c = Instant::now(); }\n";
        let out = lint_file(CFG_SRC_PATH, src, &cfg(), false);
        let (supp, live): (Vec<_>, Vec<_>) =
            out.findings.iter().partition(|f| f.suppressed.is_some());
        assert_eq!(supp.len(), 2, "both reads inside the item are covered");
        assert_eq!(live.len(), 1, "the item allow does not leak to the next fn");
    }

    #[test]
    fn allow_without_reason_is_itself_a_finding() {
        let src = "fn f() {} // lint: allow(SL01)\n";
        let out = lint_file(CFG_SRC_PATH, src, &cfg(), false);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "SL00");
    }

    #[test]
    fn unknown_rule_code_is_rejected() {
        let src = "fn f() {} // lint: allow(SL99, nonsense)\n";
        let out = lint_file(CFG_SRC_PATH, src, &cfg(), false);
        assert_eq!(out.findings[0].rule, "SL00");
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/engine.rs"));
        assert!(!is_crate_root("crates/core/tests/lib.rs"));
    }

    #[test]
    fn lock_round_trips() {
        let surface = vec![
            SurfaceEntry {
                path: "crates/core/src/engine.rs".into(),
                function: "RouterEngine::call".into(),
                kind: "ecall".into(),
                count: 1,
            },
            SurfaceEntry {
                path: "examples/demo.rs".into(),
                function: "main".into(),
                kind: "ocall".into(),
                count: 3,
            },
        ];
        assert_eq!(parse_lock(&render_lock(&surface)), surface);
    }
}
