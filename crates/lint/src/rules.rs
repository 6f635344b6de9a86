//! The rule catalogue: each rule turns one repo invariant that used to be
//! enforced dynamically (or by convention) into a build-time check.
//!
//! | Code | Invariant |
//! |------|-----------|
//! | SL01 | Enclave-side code never reads the wall clock (`Instant::now`, `SystemTime`) — the virtual-clock discipline telemetry depends on. |
//! | SL02 | Types carrying key/plaintext material neither derive `Debug` nor implement `Display` (a log-leak channel); a *manual* `Debug` impl is the reviewed redaction pattern. |
//! | SL03 | The declared zero-allocation hot-path functions contain no allocating constructs — the static twin of the counting-allocator proof. |
//! | SL04 | Every `u64` field of a struct exporting `snapshot() -> Vec<(&'static str, u64)>` appears as a key in that snapshot (no counter drift toward dashboards). |
//! | SL05 | The ecall/ocall-crossing surface matches the checked-in `BOUNDARY.lock` manifest (handled tree-wide in [`crate::lint_tree`]). |
//! | SL06 | Every crate root retains `#![forbid(unsafe_code)]`, and `unsafe` appears nowhere outside the allowlisted, `// SAFETY:`-documented files. |
//! | SL08 | Every `pub` item (`fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`) is named as an identifier by some non-test code outside the item itself (handled tree-wide in [`crate::lint_tree`]). Non-test code excludes `#[cfg(test)]` items, files a `#[cfg(test)] mod name;` declares and everything under a `tests/` directory; examples and bench targets count as callers, and `benchmark/src` is read as a caller but never linted. Matching is by name alone, so the rule is conservative: when two items share a name, both count as reached. |

use crate::lexer::{Lexed, Tok};
use crate::parser::FileModel;
use crate::{Finding, LintConfig, SurfaceSite};

/// Stable rule codes, in catalogue order (`SL07` is reserved).
pub const RULE_CODES: [&str; 7] = ["SL01", "SL02", "SL03", "SL04", "SL05", "SL06", "SL08"];

/// Allocating constructs banned on the zero-alloc hot path. Method calls
/// are matched as `.name(`, macro names as `name!`, and associated
/// functions as `Type::name`.
const SL03_METHODS: [&str; 5] = ["to_vec", "clone", "collect", "to_owned", "to_string"];
const SL03_MACROS: [&str; 2] = ["vec", "format"];
const SL03_ASSOC: [(&str, &str); 5] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
];

/// The snapshot signature SL04 keys on, whitespace-normalized.
const SNAPSHOT_RET: &str = "Vec<(&'staticstr,u64)>";

/// Name fragments marking a type as secret-bearing for SL02, minus the
/// exclusions that mark *non*-secret material (`RsaPublicKey` is meant to
/// travel; `KeyEpoch` is a counter, not a key).
const SECRET_FRAGMENTS: [&str; 3] = ["Key", "Secret", "Plaintext"];
const SECRET_EXCLUSIONS: [&str; 2] = ["Public", "Epoch"];

/// Key holders whose names carry no fragment: they hold an expanded
/// cipher schedule, keyed MAC states, a one-time MAC key or buffered
/// keystream.
const SECRET_TYPES: [&str; 5] = ["AesCtr", "HmacSha256", "Poly1305", "SealedBox", "SecureLink"];

fn is_secret_name(name: &str) -> bool {
    SECRET_TYPES.contains(&name)
        || (SECRET_FRAGMENTS.iter().any(|f| name.contains(f))
            && !SECRET_EXCLUSIONS.iter().any(|e| name.contains(e)))
}

/// Runs every per-file rule, returning raw (unsuppressed) findings and the
/// file's contribution to the boundary surface.
pub fn check_file(
    rel: &str,
    lexed: &Lexed,
    model: &FileModel,
    cfg: &LintConfig,
    crate_root: bool,
) -> (Vec<Finding>, Vec<SurfaceSite>) {
    let mut findings = Vec::new();
    sl01_no_wallclock(rel, lexed, cfg, &mut findings);
    sl02_secret_no_debug(rel, model, &mut findings);
    sl03_hot_path_no_alloc(rel, lexed, model, cfg, &mut findings);
    sl04_snapshot_drift(rel, lexed, model, &mut findings);
    sl06_forbid_unsafe(rel, lexed, model, cfg, crate_root, &mut findings);
    let surface = sl05_surface(rel, lexed, model, cfg);
    (findings, surface)
}

/// SL01: wall-clock reads in enclave-side modules.
fn sl01_no_wallclock(rel: &str, lexed: &Lexed, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.sl01_scope.iter().any(|p| rel.starts_with(p.as_str())) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let hit = match name.as_str() {
            "Instant" => {
                matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(n)) if n == "now")
            }
            "SystemTime" => true,
            _ => false,
        };
        if hit {
            out.push(Finding::new(
                "SL01",
                rel,
                t.line,
                format!(
                    "wall-clock read `{}` in enclave-side module — route timing through the \
                     virtual clock (`MemorySim` elapsed_ns) or justify host-side placement",
                    if name == "Instant" { "Instant::now" } else { "SystemTime" }
                ),
            ));
        }
    }
}

/// SL02: secret-bearing types must not derive `Debug` or impl `Display`.
fn sl02_secret_no_debug(rel: &str, model: &FileModel, out: &mut Vec<Finding>) {
    for ty in &model.types {
        if !is_secret_name(&ty.name) {
            continue;
        }
        for derived in &ty.derives {
            if derived == "Debug" || derived == "Display" {
                out.push(Finding::new(
                    "SL02",
                    rel,
                    ty.line,
                    format!(
                        "secret-bearing type `{}` derives `{derived}` — derived formatting \
                         prints key material into logs; write a redacting manual impl instead",
                        ty.name
                    ),
                ));
            }
        }
    }
    for im in &model.impls {
        if im.trait_name.as_deref() == Some("Display") && is_secret_name(&im.self_ty) {
            out.push(Finding::new(
                "SL02",
                rel,
                im.line,
                format!(
                    "secret-bearing type `{}` implements `Display` — user-facing formatting \
                     of key material is a log-leak channel",
                    im.self_ty
                ),
            ));
        }
    }
}

/// SL03: allocating constructs inside the declared zero-alloc fn set.
fn sl03_hot_path_no_alloc(
    rel: &str,
    lexed: &Lexed,
    model: &FileModel,
    cfg: &LintConfig,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for f in &model.fns {
        if !cfg.sl03_fns.iter().any(|n| n == &f.name || n == &f.qualified) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let Tok::Ident(name) = &toks[i].tok else { continue };
            let next_punct = |k: usize| match toks.get(k).map(|t| &t.tok) {
                Some(Tok::Punct(c)) => Some(*c),
                _ => None,
            };
            let construct =
                if SL03_MACROS.contains(&name.as_str()) && next_punct(i + 1) == Some('!') {
                    Some(format!("{name}!"))
                } else if SL03_METHODS.contains(&name.as_str())
                    && i > 0
                    && next_punct(i - 1) == Some('.')
                    && (next_punct(i + 1) == Some('(') || next_punct(i + 1) == Some(':'))
                {
                    Some(format!(".{name}()"))
                } else if next_punct(i + 1) == Some(':') && next_punct(i + 2) == Some(':') {
                    match toks.get(i + 3).map(|t| &t.tok) {
                        Some(Tok::Ident(assoc))
                            if SL03_ASSOC.contains(&(name.as_str(), assoc.as_str())) =>
                        {
                            Some(format!("{name}::{assoc}"))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
            if let Some(construct) = construct {
                out.push(Finding::new(
                    "SL03",
                    rel,
                    toks[i].line,
                    format!(
                        "allocating construct `{construct}` in zero-alloc hot-path fn \
                         `{}` — reuse a caller-owned buffer or justify the allocation",
                        f.qualified
                    ),
                ));
            }
        }
    }
}

/// SL04: every `u64` field of a snapshot-exporting struct must appear as a
/// key literal in its `snapshot()` body.
fn sl04_snapshot_drift(rel: &str, lexed: &Lexed, model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for f in &model.fns {
        if f.name != "snapshot" || f.ret != SNAPSHOT_RET {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let Some(owner) = f.qualified.split("::").next().filter(|o| *o != f.name) else {
            continue;
        };
        let Some(def) = model.types.iter().find(|t| t.name == owner) else {
            continue;
        };
        let keys: Vec<&str> = toks[start..=end.min(toks.len() - 1)]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        for field in &def.fields {
            if field.ty != "u64" && field.ty != "Option<u64>" {
                continue;
            }
            if !keys.contains(&field.name.as_str()) {
                out.push(Finding::new(
                    "SL04",
                    rel,
                    field.line,
                    format!(
                        "counter `{owner}.{}` is not exported by `{owner}::snapshot()` — \
                         registry dashboards would silently lose it (export it, or rename \
                         the field to match its key)",
                        field.name
                    ),
                ));
            }
        }
    }
}

/// SL05 (collection half): `.ecall(` / `.ocall(` call sites with their
/// enclosing function — the boundary-crossing surface.
fn sl05_surface(rel: &str, lexed: &Lexed, model: &FileModel, cfg: &LintConfig) -> Vec<SurfaceSite> {
    if cfg.boundary_exclude.iter().any(|p| rel.starts_with(p.as_str())) {
        return Vec::new();
    }
    let toks = &lexed.tokens;
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if name != "ecall" && name != "ocall" {
            continue;
        }
        let dotted = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
        let called = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
        if dotted && called {
            let enclosing = model
                .enclosing_fn(i)
                .map(|f| f.qualified.clone())
                .unwrap_or_else(|| "<module>".to_string());
            sites.push(SurfaceSite {
                path: rel.to_string(),
                function: enclosing,
                kind: name.clone(),
                line: t.line,
            });
        }
    }
    sites
}

/// SL06: `#![forbid(unsafe_code)]` on crate roots, no `unsafe` anywhere
/// outside the allowlist (which in turn must carry `// SAFETY:` docs).
fn sl06_forbid_unsafe(
    rel: &str,
    lexed: &Lexed,
    model: &FileModel,
    cfg: &LintConfig,
    crate_root: bool,
    out: &mut Vec<Finding>,
) {
    if crate_root && !model.has_forbid_unsafe {
        out.push(Finding::new(
            "SL06",
            rel,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    let allowlisted = cfg.sl06_unsafe_allow.iter().any(|p| p == rel);
    let documented = lexed.comments.iter().any(|c| c.text.contains("SAFETY:"));
    for t in &lexed.tokens {
        if matches!(&t.tok, Tok::Ident(name) if name == "unsafe") {
            if allowlisted && documented {
                continue;
            }
            let message = if allowlisted {
                "allowlisted `unsafe` file has no `// SAFETY:` comment documenting it"
            } else {
                "`unsafe` outside the allowlisted counting-allocator test — the workspace \
                 is forbid(unsafe_code) by policy"
            };
            out.push(Finding::new("SL06", rel, t.line, message.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_name_heuristic() {
        for name in [
            "AspeKey",
            "SymmetricKey",
            "RsaKeyPair",
            "GroupKeyStore",
            "PlaintextFrame",
            "AesCtr",
            "HmacSha256",
            "Poly1305",
            "SealedBox",
            "SecureLink",
        ] {
            assert!(is_secret_name(name), "{name} should be secret-bearing");
        }
        for name in ["RsaPublicKey", "KeyEpoch", "BrokerStats", "Message"] {
            assert!(!is_secret_name(name), "{name} should not be secret-bearing");
        }
    }
}
