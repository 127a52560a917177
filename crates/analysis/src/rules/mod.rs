//! The five invariant rules and their shared token-pattern machinery.
//!
//! Each forbidden construct named in `analysis.toml` resolves here to a
//! short token sequence (so `xs.collect::<Vec<_>>()` is caught through
//! its `. collect` prefix regardless of turbofish) or to the special
//! `indexing` matcher. Unknown construct names are config errors, not
//! silently-dead patterns.

pub mod atomic_discipline;
pub mod blocking_while_locked;
pub mod clock_discipline;
pub mod guards;
pub mod hot_path_alloc;
pub mod lock_hygiene;
pub mod lock_order;
pub mod panic_freedom;
pub mod unwind_containment;

use crate::config::{ConfigError, RuleConfig};
use crate::diagnostics::Diagnostic;
use crate::escapes;
use crate::lexer::{Token, TokenKind};
use crate::FileData;

/// One element of a construct's token pattern.
#[derive(Debug, Clone, Copy)]
pub enum Pat {
    /// Exact identifier (maximal-munch lexing means `unwrap` never
    /// matches inside `unwrap_or`).
    I(&'static str),
    /// Exact punctuation character.
    P(char),
}

/// How a configured construct name is recognised.
#[derive(Debug, Clone)]
pub enum Matcher {
    Seq(Vec<Pat>),
    /// Bare `xs[i]` indexing (panic on out-of-bounds); heuristic over the
    /// token before `[`.
    Indexing,
}

/// Resolve a construct name from `analysis.toml` to its matcher.
pub fn matcher_for(name: &str) -> Result<Matcher, ConfigError> {
    use Pat::{I, P};
    let seq: &[Pat] = match name {
        "Vec::new" => &[I("Vec"), P(':'), P(':'), I("new")],
        "Vec::with_capacity" => &[I("Vec"), P(':'), P(':'), I("with_capacity")],
        "vec!" => &[I("vec"), P('!')],
        ".collect" => &[P('.'), I("collect")],
        ".to_vec" => &[P('.'), I("to_vec")],
        ".to_string" => &[P('.'), I("to_string")],
        ".to_owned" => &[P('.'), I("to_owned")],
        ".clone" => &[P('.'), I("clone")],
        "Box::new" => &[I("Box"), P(':'), P(':'), I("new")],
        "format!" => &[I("format"), P('!')],
        "String::from" => &[I("String"), P(':'), P(':'), I("from")],
        "String::new" => &[I("String"), P(':'), P(':'), I("new")],
        "Instant::now" => &[I("Instant"), P(':'), P(':'), I("now")],
        "SystemTime::now" => &[I("SystemTime"), P(':'), P(':'), I("now")],
        // The call paren keeps a struct field named `elapsed` legal.
        ".elapsed" => &[P('.'), I("elapsed"), P('(')],
        ".unwrap" => &[P('.'), I("unwrap")],
        ".expect" => &[P('.'), I("expect")],
        "panic!" => &[I("panic"), P('!')],
        "unreachable!" => &[I("unreachable"), P('!')],
        "todo!" => &[I("todo"), P('!')],
        "unimplemented!" => &[I("unimplemented"), P('!')],
        ".lock().unwrap" => &[P('.'), I("lock"), P('('), P(')'), P('.'), I("unwrap")],
        ".lock().expect" => &[P('.'), I("lock"), P('('), P(')'), P('.'), I("expect")],
        ".try_lock().unwrap" => &[P('.'), I("try_lock"), P('('), P(')'), P('.'), I("unwrap")],
        ".try_lock().expect" => &[P('.'), I("try_lock"), P('('), P(')'), P('.'), I("expect")],
        ".read().unwrap" => &[P('.'), I("read"), P('('), P(')'), P('.'), I("unwrap")],
        ".read().expect" => &[P('.'), I("read"), P('('), P(')'), P('.'), I("expect")],
        ".write().unwrap" => &[P('.'), I("write"), P('('), P(')'), P('.'), I("unwrap")],
        ".write().expect" => &[P('.'), I("write"), P('('), P(')'), P('.'), I("expect")],
        // Blocking constructs (blocking-while-locked). The call paren keeps
        // fields named `wait`/`recv` legal.
        ".wait" => &[P('.'), I("wait"), P('(')],
        ".wait_timeout" => &[P('.'), I("wait_timeout"), P('(')],
        ".recv" => &[P('.'), I("recv"), P('(')],
        ".recv_timeout" => &[P('.'), I("recv_timeout"), P('(')],
        ".join" => &[P('.'), I("join"), P('(')],
        ".submit" => &[P('.'), I("submit"), P('(')],
        "thread::sleep" => &[I("thread"), P(':'), P(':'), I("sleep")],
        // Bare identifiers: `std::panic::catch_unwind`, `use ...::catch_unwind`,
        // and direct calls all reduce to the one token.
        "catch_unwind" => &[I("catch_unwind")],
        "AssertUnwindSafe" => &[I("AssertUnwindSafe")],
        "indexing" => return Ok(Matcher::Indexing),
        _ => {
            return Err(ConfigError(format!(
                "unknown forbidden construct `{name}` — add it to rules::matcher_for"
            )))
        }
    };
    Ok(Matcher::Seq(seq.to_vec()))
}

/// Does `pats` match the token stream starting at `i`?
pub fn seq_matches(tokens: &[Token], i: usize, pats: &[Pat]) -> bool {
    if i + pats.len() > tokens.len() {
        return false;
    }
    pats.iter()
        .zip(&tokens[i..])
        .all(|(p, t)| match (p, &t.kind) {
            (Pat::I(name), TokenKind::Ident(s)) => s == name,
            (Pat::P(c), TokenKind::Punct(p)) => p == c,
            _ => false,
        })
}

/// Keywords that legitimately precede `[` without it being an index
/// expression (`&mut [T]`, `let [a, b] = ..`, `as [u8; 2]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Is `tokens[i]` the opening bracket of a bare index expression? True
/// when the preceding token could end an indexable expression: a
/// non-keyword identifier, a closing `)`/`]`, or a numeric literal
/// (tuple-field chains like `x.0[i]`).
pub fn is_index_bracket(tokens: &[Token], i: usize) -> bool {
    if !matches!(tokens[i].kind, TokenKind::Punct('[')) || i == 0 {
        return false;
    }
    match &tokens[i - 1].kind {
        TokenKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
        TokenKind::Num => true,
        _ => false,
    }
}

/// Shared engine for the path-scoped rules (clock-discipline,
/// panic-freedom, lock-hygiene): every token of every in-scope file is
/// tested against the rule's forbidden constructs; hits outside an
/// escape directive become diagnostics via `message`.
pub(crate) fn scan_paths(
    rule: &RuleConfig,
    rule_name: &str,
    files: &[std::rc::Rc<FileData>],
    out: &mut Vec<Diagnostic>,
    message: impl Fn(&str) -> String,
) -> Result<(), ConfigError> {
    let matchers: Vec<(String, Matcher)> = rule
        .forbid
        .iter()
        .map(|name| matcher_for(name).map(|m| (name.clone(), m)))
        .collect::<Result<_, _>>()?;

    for file in files {
        for i in 0..file.tokens.len() {
            if !rule.include_tests && file.ctxs[i].in_test {
                continue;
            }
            for (name, m) in &matchers {
                let hit = match m {
                    Matcher::Seq(p) => seq_matches(&file.tokens, i, p),
                    Matcher::Indexing => is_index_bracket(&file.tokens, i),
                };
                if !hit {
                    continue;
                }
                let line = file.tokens[i].line;
                if escapes::suppressed(&file.escapes, rule_name, line) {
                    continue;
                }
                out.push(Diagnostic::new(&file.rel, line, rule_name, message(name)));
            }
        }
    }
    Ok(())
}

/// Does `fn_name` match an item pattern (`exact` or `prefix*`)?
pub fn fn_matches(pattern: &str, fn_name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => fn_name.starts_with(prefix),
        None => fn_name == pattern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn first_match(src: &str, construct: &str) -> Option<usize> {
        let toks = lex(src).tokens;
        let m = matcher_for(construct).expect("known construct");
        (0..toks.len()).find(|&i| match &m {
            Matcher::Seq(p) => seq_matches(&toks, i, p),
            Matcher::Indexing => is_index_bracket(&toks, i),
        })
    }

    #[test]
    fn collect_matches_with_and_without_turbofish() {
        assert!(first_match("let v = xs.iter().collect::<Vec<_>>();", ".collect").is_some());
        assert!(first_match("let v: Vec<_> = xs.iter().collect();", ".collect").is_some());
    }

    #[test]
    fn unwrap_does_not_match_unwrap_or() {
        assert!(first_match("x.unwrap_or(0)", ".unwrap").is_none());
        assert!(first_match("x.unwrap_or_else(|| 0)", ".unwrap").is_none());
        assert!(first_match("x.unwrap()", ".unwrap").is_some());
    }

    #[test]
    fn lock_unwrap_needs_the_full_chain() {
        assert!(first_match("m.lock().unwrap()", ".lock().unwrap").is_some());
        assert!(first_match(
            "m.lock().unwrap_or_else(|p| p.into_inner())",
            ".lock().unwrap"
        )
        .is_none());
    }

    #[test]
    fn indexing_heuristic_flags_real_indexing_only() {
        for (src, expect) in [
            ("let y = xs[i];", true),
            ("arr[0] = 1;", true),
            ("f(a)[1]", true),
            ("grid[r][c]", true),
            ("x.0[i]", true),
            ("fn f(x: &[u8]) {}", false),
            ("fn f(x: &mut [u8]) {}", false),
            ("let v: Vec<[u8; 4]> = vec![];", false),
            ("#[test]\nfn t() {}", false),
            ("let [a, b] = pair;", false),
            ("fn g<'a>(x: &'a [u8]) {}", false),
        ] {
            assert_eq!(first_match(src, "indexing").is_some(), expect, "{src}");
        }
    }

    #[test]
    fn unknown_construct_is_a_config_error() {
        assert!(matcher_for("Vec::news").is_err());
    }

    #[test]
    fn fn_pattern_globs() {
        assert!(fn_matches("process_synopsis*", "process_synopsis_into"));
        assert!(fn_matches("pearson", "pearson"));
        assert!(!fn_matches("pearson", "pearson_on_common"));
    }
}
