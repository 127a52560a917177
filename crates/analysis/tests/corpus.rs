//! The fixture corpus: the violating tree must produce *exactly* the
//! diagnostics its `// expect:` markers claim (no false negatives, no
//! false positives, correct lines), and the clean tree must produce
//! none.
//!
//! Marker syntax, inside the fixture sources:
//! - `// expect: rule-a, rule-b` — those rules fire on this line
//! - `// expect-above: rule` — the rule fires on the previous line
//!   (for violations that live inside a comment, like malformed escape
//!   directives)

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use at_analysis::diagnostics::Diagnostic;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(root: &Path) -> Vec<Diagnostic> {
    let cfg = at_analysis::config::load(&root.join("analysis.toml")).expect("fixture config");
    at_analysis::analyze(root, &cfg).expect("analysis over the fixture tree")
}

/// Collect `(file, line, rule)` for every marker in the fixture sources.
fn expected_markers(root: &Path) -> BTreeSet<(String, usize, String)> {
    let mut out = BTreeSet::new();
    let src = root.join("src");
    let mut entries: Vec<_> = std::fs::read_dir(&src)
        .expect("fixture src dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().map(|e| e != "rs").unwrap_or(true) {
            continue;
        }
        let rel = format!(
            "src/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        let text = std::fs::read_to_string(&path).expect("fixture source");
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let (rules, at) = if let Some(rest) = line.split("// expect-above:").nth(1) {
                (rest, lineno.checked_sub(1).expect("marker not on line 1"))
            } else if let Some(rest) = line.split("// expect:").nth(1) {
                (rest, lineno)
            } else {
                continue;
            };
            for rule in rules.split(',') {
                let rule = rule.trim();
                assert!(!rule.is_empty(), "{rel}:{lineno}: empty expect marker");
                out.insert((rel.clone(), at, rule.to_string()));
            }
        }
    }
    out
}

#[test]
fn violating_corpus_flags_every_seeded_violation_exactly() {
    let root = fixture("violating");
    let got: BTreeSet<(String, usize, String)> = run(&root)
        .into_iter()
        .map(|d| (d.file, d.line, d.rule))
        .collect();
    let want = expected_markers(&root);
    assert!(
        !want.is_empty(),
        "corpus must seed violations — did the marker scan break?"
    );
    let missed: Vec<_> = want.difference(&got).collect();
    let spurious: Vec<_> = got.difference(&want).collect();
    assert!(
        missed.is_empty() && spurious.is_empty(),
        "marker/diagnostic mismatch\n  missed (expected, not reported): {missed:?}\n  \
         spurious (reported, not expected): {spurious:?}"
    );
}

#[test]
fn violating_corpus_covers_every_rule() {
    let rules: BTreeSet<String> = run(&fixture("violating"))
        .into_iter()
        .map(|d| d.rule)
        .collect();
    for rule in [
        "hot-path-alloc",
        "clock-discipline",
        "panic-freedom",
        "lock-hygiene",
        "unwind-containment",
        "lock-order",
        "blocking-while-locked",
        "atomic-discipline",
        "lint-escape",
    ] {
        assert!(rules.contains(rule), "no seeded violation exercises {rule}");
    }
}

#[test]
fn every_registered_rule_has_a_rationale() {
    for rule in at_analysis::rule_names() {
        assert!(
            at_analysis::explain(rule).is_some(),
            "rule `{rule}` is registered but has no --explain text"
        );
    }
}

#[test]
fn clean_corpus_produces_no_diagnostics() {
    let diags = run(&fixture("clean"));
    assert!(
        diags.is_empty(),
        "clean corpus flagged:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hot_item_matching_no_fn_is_a_config_error() {
    let root = fixture("clean");
    let mut cfg = at_analysis::config::load(&root.join("analysis.toml")).expect("fixture config");
    let rule = cfg
        .rules
        .iter_mut()
        .find(|r| r.name == "hot-path-alloc")
        .expect("fixture enables hot-path-alloc");
    rule.items.push("src/hot.rs::renamed_away".to_string());
    let err = at_analysis::analyze(&root, &cfg).expect_err("stale item must not pass silently");
    assert!(
        err.to_string().contains("src/hot.rs::renamed_away"),
        "error must name the stale item: {err}"
    );
}
