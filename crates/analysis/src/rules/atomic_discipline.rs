//! `atomic-discipline`: every `Ordering::*` use must either target an
//! allowlisted telemetry counter (where `Relaxed` is the documented
//! default — the counters are monotone and never gate control flow) or
//! carry a per-site justification escape. This keeps relaxed loads from
//! silently creeping into protocol logic (stopped flags, fault-injector
//! call ordinals, restart budgets) where reordering is a correctness bug,
//! and conversely flags gratuitous `SeqCst` on plain counters.

use crate::config::{ConfigError, RuleConfig};
use crate::diagnostics::Diagnostic;
use crate::escapes;
use crate::lexer::{Token, TokenKind};
use crate::rules::{seq_matches, Pat};
use crate::FileData;

pub const NAME: &str = "atomic-discipline";

pub const EXPLAIN: &str = "Memory orderings are load-bearing: a Relaxed read of a protocol flag \
(stopped, ticket state, restart budget) can observe stale values and a Relaxed RMW publishes \
nothing about prior writes. The workspace convention is: telemetry counters — named in the \
`counters` allowlist in analysis.toml — use Relaxed and need no ceremony; every other \
`Ordering::*` site must say why its ordering is sufficient via `// lint: \
allow(atomic-discipline) reason=...`. The rule matches both `Ordering::X` and fully-qualified \
`std::sync::atomic::Ordering::X`, and resolves the receiver field through one call or index \
group (`self.ordinals(site).load(..)` -> `ordinals`).";

/// The atomic orderings; `cmp::Ordering`'s variants (Less/Equal/Greater)
/// never match, so the two enums sharing a name is harmless.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub fn run(
    rule: &RuleConfig,
    files: &[std::rc::Rc<FileData>],
    out: &mut Vec<Diagnostic>,
) -> Result<(), ConfigError> {
    for file in files {
        for i in 0..file.tokens.len() {
            if !rule.include_tests && file.ctxs[i].in_test {
                continue;
            }
            let Some(variant) = ordering_variant(&file.tokens, i) else {
                continue;
            };
            let line = file.tokens[i].line;
            let target = receiver_of(&file.tokens, i);
            let allowed = matches!(&target, Some(name) if rule.counters.iter().any(|c| c == name));
            if allowed && variant == "Relaxed" {
                continue;
            }
            if escapes::suppressed(&file.escapes, NAME, line) {
                continue;
            }
            let target_desc = target.as_deref().unwrap_or("<expr>");
            let detail = if allowed {
                format!(
                    "allowlisted counter `{target_desc}` uses `Ordering::{variant}` — counters \
                     take Relaxed; stronger orderings belong to protocol sites and need a \
                     justification"
                )
            } else {
                format!(
                    "`Ordering::{variant}` on `{target_desc}` is not an allowlisted telemetry \
                     counter — justify the ordering with `// lint: allow({NAME}) reason=...` \
                     or add the counter to `counters` in analysis.toml"
                )
            };
            out.push(Diagnostic::new(&file.rel, line, NAME, detail));
        }
    }
    Ok(())
}

/// If tokens at `i` start `Ordering :: <atomic variant>`, return the
/// variant. Fully-qualified paths match at their trailing `Ordering`.
fn ordering_variant(tokens: &[Token], i: usize) -> Option<&'static str> {
    if !seq_matches(tokens, i, &[Pat::I("Ordering"), Pat::P(':'), Pat::P(':')]) {
        return None;
    }
    let TokenKind::Ident(variant) = &tokens.get(i + 3)?.kind else {
        return None;
    };
    ATOMIC_ORDERINGS.iter().copied().find(|v| v == variant)
}

/// Walk backward from the `Ordering` token to the enclosing call's
/// receiver: skip to the unmatched `(`, take the method name before it,
/// then the receiver ident before the `.` (skipping one balanced
/// `(...)`/`[...]` group). `None` when the shape is anything else.
fn receiver_of(tokens: &[Token], i: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut j = i;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match tokens[j].kind {
            TokenKind::Punct(')') => depth += 1,
            TokenKind::Punct('(') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            // A statement boundary before the call opener: not inside a
            // method call at all (e.g. `use Ordering::Relaxed` — which
            // would be flagged with target `<expr>`, as it should).
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') if depth == 0 => {
                return None;
            }
            _ => {}
        }
    }
    // tokens[j] is the call's `(`; method ident before it.
    if j < 1 {
        return None;
    }
    let TokenKind::Ident(_method) = &tokens[j - 1].kind else {
        return None;
    };
    if j < 2 {
        return None;
    }
    let mut k = j - 2;
    // Static-style call `READS.load(..)` has `.`; `AtomicU64::load` style
    // paths do not occur, so require the dot.
    if !matches!(tokens[k].kind, TokenKind::Punct('.')) {
        return None;
    }
    if k == 0 {
        return None;
    }
    k -= 1;
    if let TokenKind::Punct(close @ (')' | ']')) = tokens[k].kind {
        let open = if close == ')' { '(' } else { '[' };
        let mut nest = 1usize;
        while k > 0 && nest > 0 {
            k -= 1;
            match tokens[k].kind {
                TokenKind::Punct(c) if c == close => nest += 1,
                TokenKind::Punct(c) if c == open => nest -= 1,
                _ => {}
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    match &tokens[k].kind {
        TokenKind::Ident(name) => Some(name.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escapes;
    use crate::lexer::lex;
    use crate::scope;
    use std::rc::Rc;

    fn file(src: &str) -> Rc<FileData> {
        let lexed = lex(src);
        let ctxs = scope::contexts(&lexed.tokens);
        let scan = escapes::scan(&lexed.comments, &[NAME.to_string()]);
        Rc::new(FileData {
            rel: "test.rs".into(),
            tokens: lexed.tokens,
            ctxs,
            escapes: scan.escapes,
        })
    }

    fn diags(src: &str, counters: &[&str]) -> Vec<Diagnostic> {
        let rule = RuleConfig {
            name: NAME.into(),
            enabled: true,
            counters: counters.iter().map(|s| s.to_string()).collect(),
            ..RuleConfig::default()
        };
        let mut out = Vec::new();
        run(&rule, &[file(src)], &mut out).expect("runs");
        out
    }

    #[test]
    fn allowlisted_counter_relaxed_is_clean() {
        assert!(diags(
            "fn f(c: &C) { c.completed.fetch_add(1, Ordering::Relaxed); }",
            &["completed"],
        )
        .is_empty());
    }

    #[test]
    fn fully_qualified_path_matches_too() {
        let out = diags(
            "fn f(c: &C) { c.stopped.load(std::sync::atomic::Ordering::Relaxed); }",
            &["completed"],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`stopped`"), "{}", out[0].message);
    }

    #[test]
    fn receiver_resolves_through_call_and_index_groups() {
        let out = diags(
            "fn f(s: &S) { s.ordinals(site).fetch_add(1, Ordering::Relaxed); \
             s.cells[i].load(Ordering::Acquire); }",
            &[],
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("`ordinals`"));
        assert!(out[1].message.contains("`cells`"));
    }

    #[test]
    fn strong_ordering_on_a_counter_is_flagged() {
        let out = diags(
            "fn f(c: &C) { c.completed.fetch_add(1, Ordering::SeqCst); }",
            &["completed"],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("stronger orderings"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn escape_justifies_a_protocol_site() {
        assert!(diags(
            "fn f(c: &C) {\n\
             // lint: allow(atomic-discipline) reason=single-writer ordinal, reads are monotone\n\
             c.cursor.fetch_add(1, Ordering::Relaxed); }",
            &[],
        )
        .is_empty());
    }

    #[test]
    fn cmp_ordering_variants_do_not_match() {
        assert!(diags(
            "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b).then(Ordering::Less) }",
            &[],
        )
        .is_empty());
    }

    #[test]
    fn tests_are_skipped_by_default() {
        assert!(diags(
            "#[cfg(test)] mod t { #[test] fn f() { X.load(Ordering::SeqCst); } }",
            &[],
        )
        .is_empty());
    }

    #[test]
    fn static_receiver_matches_allowlist() {
        assert!(diags(
            "fn f() { READS.fetch_add(1, Ordering::Relaxed); }",
            &["READS"],
        )
        .is_empty());
    }
}
