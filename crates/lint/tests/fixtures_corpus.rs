//! The fixture corpus: one violating and one conforming file per rule,
//! each bad fixture firing *exactly* its own rule; plus the tree-clean
//! check on the real workspace, the boundary-lock drift check and the
//! SL08 fixture tree.
//!
//! Fixtures live under `tests/fixtures/`, which the tree walker skips, so
//! the deliberately-violating files never pollute the real lint run.

use scbr_lint::{lint_file, lint_tree, Finding, LintConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read(name: &str) -> String {
    let path = fixtures().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(rule, bad fixture, good fixture, pretend-path, crate_root)` — the
/// pretend path places the fixture where its rule is in scope.
const CASES: [(&str, &str, &str, &str, bool); 5] = [
    ("SL01", "sl01_bad.rs", "sl01_good.rs", "crates/core/src/fixture.rs", false),
    ("SL02", "sl02_bad.rs", "sl02_good.rs", "crates/crypto/src/fixture.rs", false),
    ("SL03", "sl03_bad.rs", "sl03_good.rs", "crates/core/src/fixture.rs", false),
    ("SL04", "sl04_bad.rs", "sl04_good.rs", "crates/telemetry/src/fixture.rs", false),
    ("SL06", "sl06_bad.rs", "sl06_good.rs", "crates/demo/src/lib.rs", true),
];

#[test]
fn each_bad_fixture_fires_exactly_its_rule() {
    let cfg = LintConfig::default();
    for (rule, bad, _, rel, crate_root) in CASES {
        let out = lint_file(rel, &read(bad), &cfg, crate_root);
        let fired: BTreeSet<&str> = out.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            fired,
            BTreeSet::from([rule]),
            "{bad}: expected only {rule}, got {:?}",
            out.findings
        );
        assert!(
            out.findings.iter().all(|f| f.suppressed.is_none()),
            "{bad}: fixture findings must not be suppressed"
        );
    }
}

#[test]
fn each_good_fixture_is_silent() {
    let cfg = LintConfig::default();
    for (rule, _, good, rel, crate_root) in CASES {
        let out = lint_file(rel, &read(good), &cfg, crate_root);
        assert!(
            out.findings.is_empty(),
            "{good}: conforming fixture for {rule} still fired {:?}",
            out.findings
        );
    }
}

/// The Montgomery core is declared zero-alloc: scratch allocated per
/// multiply or per window, as the old `u32` core did, must not creep back.
#[test]
fn allocating_montgomery_ladder_is_an_sl03_finding() {
    let src = "impl MontCtx {\n\
               fn cios_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) { let s = vec![0u64; 4]; }\n\
               fn ladder_ct(&self, acc: &mut [u64]) { let base = acc.to_vec(); }\n\
               fn ladder_vartime(&self, acc: &mut [u64]) { let c: Vec<u64> = acc.iter().copied().collect(); }\n\
               }\n";
    let out = lint_file("crates/crypto/src/bigint/mont.rs", src, &LintConfig::default(), false);
    let sl03: Vec<u32> = out.findings.iter().filter(|f| f.rule == "SL03").map(|f| f.line).collect();
    assert_eq!(sl03, [2, 3, 4], "{:?}", out.findings);
}

/// The bitsliced AES rounds and the CTR keystream are declared zero-alloc
/// too; a `Type::name` entry binds one type's method, not every `apply`.
#[test]
fn allocating_bitsliced_aes_is_an_sl03_finding() {
    let src = "fn sub_bytes(q: &mut [u64; 8]) { let t = q.to_vec(); }\n\
               fn mix_columns(s: &mut [u64; 8]) { let r: Vec<u64> = s.iter().copied().collect(); }\n\
               impl Aes { fn encrypt4(&self, b: &[u8; 64]) -> Vec<u8> { vec![0u8; 64] } }\n\
               impl Keystream { fn refill(&mut self, aes: &Aes) { self.buf = aes.encrypt4(&self.blocks).clone(); } }\n\
               impl AesCtr { fn apply(&mut self, data: &mut [u8]) { let v: Vec<u8> = Vec::new(); } }\n\
               impl Filter { fn apply(&mut self, data: &mut [u8]) { let _ = data.to_vec(); } }\n";
    let out = lint_file("crates/crypto/src/aes.rs", src, &LintConfig::default(), false);
    let sl03: Vec<u32> = out.findings.iter().filter(|f| f.rule == "SL03").map(|f| f.line).collect();
    assert_eq!(sl03, [1, 2, 3, 4, 5], "{:?}", out.findings);
}

/// The X25519 ladder, field multiply and conditional swap are declared
/// zero-alloc: field elements stay fixed limb arrays.
#[test]
fn allocating_x25519_is_an_sl03_finding() {
    let src = "fn montgomery_ladder(k: &[u8; 32], u: &Fe) -> (Fe, Fe) { let t = u.to_vec(); }\n\
               fn fe_mul(a: &Fe, b: &Fe) -> Fe { let r = vec![0u128; 5]; }\n\
               fn fe_cswap(swap: u64, a: &mut Fe, b: &mut Fe) { let t: Vec<u64> = a.iter().copied().collect(); }\n";
    let out = lint_file("crates/crypto/src/x25519.rs", src, &LintConfig::default(), false);
    let sl03: Vec<u32> = out.findings.iter().filter(|f| f.rule == "SL03").map(|f| f.line).collect();
    assert_eq!(sl03, [1, 2, 3], "{:?}", out.findings);
}

/// The overlay hop path is declared zero-alloc: reading a batch in place,
/// routing it into reused spans and encoding it per link must not go back
/// to owned copies.
#[test]
fn allocating_hop_path_is_an_sl03_finding() {
    let src = "impl<'a> Iterator for PublishBatchView<'a> { fn next(&mut self) -> Option<Item> { let rest = self.rest.to_vec(); None } }\n\
               fn split_member(bytes: &[u8]) -> Result<(Item, &[u8]), E> { let member: Vec<u8> = bytes.iter().copied().collect(); }\n\
               fn encode_publish_batch(items: I, out: &mut Vec<u8>) { let body = Vec::new(); }\n\
               impl BrokerCore { fn route_into(&mut self, routes: &mut RouteSpans) { let spans = vec![0u32; 4]; } }\n\
               impl Cursor { fn next(&mut self) -> Option<u8> { self.buf.clone().pop() } }\n";
    let out = lint_file("crates/overlay/src/broker.rs", src, &LintConfig::default(), false);
    let sl03: Vec<u32> = out.findings.iter().filter(|f| f.rule == "SL03").map(|f| f.line).collect();
    assert_eq!(sl03, [1, 2, 3, 4], "{:?}", out.findings);
}

/// The acceptance gate: the real workspace lints clean under `--deny`
/// semantics (no unsuppressed findings against the checked-in lock).
#[test]
fn real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_tree(&root, &LintConfig::default(), None);
    assert!(report.findings.is_empty(), "workspace must lint clean, found: {:#?}", report.findings);
    assert!(report.files_scanned > 100, "walker missed the tree: {}", report.files_scanned);
    assert!(!report.surface.is_empty(), "boundary surface must not be empty");
}

#[test]
fn boundary_lock_accepts_matching_surface() {
    let root = fixtures().join("boundary_good");
    let report = lint_tree(&root, &LintConfig::default(), None);
    assert!(report.findings.is_empty(), "matching lock must be clean: {:?}", report.findings);
    assert_eq!(report.surface.len(), 2);
}

#[test]
fn deliberately_added_call_site_fails_the_lock_check() {
    let root = fixtures().join("boundary_drift");
    let report = lint_tree(&root, &LintConfig::default(), None);
    let sl05 = report.of_rule("SL05");
    assert!(!sl05.is_empty(), "the sneaked-in ecall must trip SL05");
    assert!(
        sl05.iter().any(|f| f.message.contains("Host::sneak")),
        "finding should name the new call site: {sl05:?}"
    );
}

/// SL05 has no suppression escape hatch: an allow comment on the call
/// site must not silence the lock drift.
#[test]
fn boundary_findings_cannot_be_suppressed() {
    let root = fixtures().join("boundary_drift");
    let report = lint_tree(&root, &LintConfig::default(), None);
    assert!(report.of_rule("SL05").iter().all(|f| f.suppressed.is_none()));
}

/// The items a set of SL08 findings names (`pub fn name`).
fn sl08_items(findings: &[&Finding]) -> BTreeSet<String> {
    findings
        .iter()
        .filter(|f| f.rule == "SL08")
        .map(|f| f.message.split('`').nth(1).expect("the item in backticks").to_string())
        .collect()
}

/// SL08 counts a name only where non-test code uses it as an identifier
/// outside the item itself: a `#[cfg(test)]` module, a file a
/// `#[cfg(test)] mod` declares, `tests/`, comments, strings and the
/// item's own body do not count, while a sibling file and a reference
/// root (`benchmark/src`, never linted itself) do.
#[test]
fn unreached_pub_items_are_flagged() {
    let root = fixtures().join("unreached_pub");
    let report = lint_tree(&root, &LintConfig::default(), None);
    let findings: Vec<&Finding> = report.findings.iter().collect();
    assert_eq!(report.of_rule("SL08").len(), findings.len(), "only SL08 fires: {findings:#?}");
    let expected = ["only_in_test_file", "only_mentioned", "only_recursive", "only_tested"];
    assert_eq!(sl08_items(&findings), expected.map(|n| format!("pub fn {n}")).into());
    assert!(findings.iter().all(|f| f.path == "src/lib.rs"), "{findings:#?}");

    let suppressed: Vec<&Finding> = report.suppressed.iter().collect();
    assert_eq!(sl08_items(&suppressed), BTreeSet::from(["pub fn kept".to_string()]));
    assert_eq!(
        suppressed[0].suppressed.as_deref(),
        Some("the fixture corpus checks that this reason is reported")
    );
}
