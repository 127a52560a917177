//! Lexical guard-liveness tracking shared by `lock-order` and
//! `blocking-while-locked`.
//!
//! The walker replays a file's token stream with the same brace-stack
//! discipline as `scope::contexts`, tracking which lock guards are live
//! at each point:
//!
//! - `let g = recv.lock()...;` binds a guard that lives until its
//!   enclosing brace scope closes, `drop(g)` runs, or a
//!   `Condvar::wait(g)`-style call consumes it.
//! - An acquisition outside a `let` initializer is a temporary: it dies
//!   at the end of the statement (`;`) or, for `if !x.state().stopped {`
//!   conditions, at the opening `{` (Rust drops condition temporaries
//!   before entering the block).
//! - `state = guard;` renames a live guard (the `wait_timeout` reacquire
//!   idiom), so the rebound name keeps suppressing false "fresh lock"
//!   edges.
//!
//! Lock identity is the receiver field for `.lock`/`.read`/`.write`
//! (`self.inner.lock()` -> `inner`) and the helper name itself for the
//! workspace's guard-returning methods (`shared.state()` -> `state`).
//! This is deliberately name-based, not instance-based: two `Worker`
//! values each locking their own `state` field collapse onto one node,
//! which over-approximates (sound for deadlock *detection* on this
//! codebase, where the one cross-instance acquisition, the cluster
//! router's failover scan, takes one worker's lock at a time) — see
//! ANALYSIS.md for limitations.

use crate::config::{ConfigError, RuleConfig};
use crate::lexer::{Token, TokenKind};
use crate::rules::{matcher_for, seq_matches, Matcher, Pat};
use crate::FileData;

/// A lock-acquisition event observed while another guard was live.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Lock already held.
    pub held: String,
    /// Line where the held guard was acquired.
    pub held_line: usize,
    /// Lock being acquired.
    pub acquired: String,
    /// Line of the new acquisition (diagnostic site).
    pub line: usize,
}

/// A blocking construct reached with at least one live guard.
#[derive(Debug, Clone)]
pub struct BlockingHit {
    pub construct: String,
    pub line: usize,
    /// Live guards at the call: (lock name, acquisition line).
    pub held: Vec<(String, usize)>,
}

/// Result of walking one file.
#[derive(Debug, Default)]
pub struct Walk {
    pub edges: Vec<Edge>,
    pub blocking: Vec<BlockingHit>,
}

#[derive(Debug)]
struct LiveGuard {
    /// Binding name (`None` for statement temporaries).
    binding: Option<String>,
    lock: String,
    line: usize,
    /// Brace depth at acquisition; the guard dies when this scope closes.
    depth: usize,
    temp: bool,
}

/// Default acquisition constructs when a rule config names none.
pub const DEFAULT_ACQUIRE: &[&str] = &[".lock", ".read", ".write"];

/// Resolve a rule's `acquire` list to (construct, lock-method) matchers.
/// Only `.name`-style constructs are accepted; the primitive trio
/// (`.lock`/`.read`/`.write`) takes the receiver as the lock name, any
/// other method is itself the lock name (guard-returning helper).
pub fn acquire_matchers(rule: &RuleConfig) -> Result<Vec<(String, Vec<Pat>)>, ConfigError> {
    let names: Vec<String> = if rule.acquire.is_empty() {
        DEFAULT_ACQUIRE.iter().map(|s| s.to_string()).collect()
    } else {
        rule.acquire.clone()
    };
    names
        .into_iter()
        .map(|name| {
            let Some(method) = name.strip_prefix('.') else {
                return Err(ConfigError(format!(
                    "acquire construct `{name}` must be a `.method` name"
                )));
            };
            if method.is_empty() || !method.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(ConfigError(format!(
                    "acquire construct `{name}` is not a method name"
                )));
            }
            // `.lock(` -- the call paren keeps fields named `lock` legal.
            let pats = vec![Pat::P('.'), Pat::I(leak(method.to_string())), Pat::P('(')];
            Ok((name, pats))
        })
        .collect()
}

/// `Pat::I` wants `&'static str`; construct names come from config, so
/// leak the handful of short strings (bounded by the config size).
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Resolve a rule's `forbid` list to blocking-construct matchers via the
/// shared dictionary.
pub fn blocking_matchers(rule: &RuleConfig) -> Result<Vec<(String, Vec<Pat>)>, ConfigError> {
    rule.forbid
        .iter()
        .map(|name| match matcher_for(name)? {
            Matcher::Seq(p) => Ok((name.clone(), p)),
            Matcher::Indexing => Err(ConfigError(format!(
                "construct `{name}` cannot be used as a blocking call"
            ))),
        })
        .collect()
}

/// Is the lock acquired by the construct matching at `i` named by the
/// receiver (primitive `.lock`/`.read`/`.write`) or by the method itself?
fn lock_name(tokens: &[Token], i: usize, construct: &str) -> String {
    let method = construct.trim_start_matches('.');
    if !matches!(method, "lock" | "read" | "write") {
        return method.to_string();
    }
    // Receiver of `recv.lock()`: the token before the `.` at `i`, walking
    // backward over one balanced `(...)`/`[...]` group so
    // `self.queues[i].lock()` -> `queues` and `ordinals(site).lock()` ->
    // `ordinals`.
    let mut j = i; // tokens[i] is the `.`
    if j == 0 {
        return format!("<{method}>");
    }
    j -= 1;
    if let TokenKind::Punct(close @ (')' | ']')) = tokens[j].kind {
        let open = if close == ')' { '(' } else { '[' };
        let mut depth = 1usize;
        while j > 0 && depth > 0 {
            j -= 1;
            match tokens[j].kind {
                TokenKind::Punct(c) if c == close => depth += 1,
                TokenKind::Punct(c) if c == open => depth -= 1,
                _ => {}
            }
        }
        if j == 0 {
            return format!("<{method}>");
        }
        j -= 1;
    }
    match &tokens[j].kind {
        TokenKind::Ident(name) => name.clone(),
        _ => format!("<{method}>"),
    }
}

/// Walk one file, reporting acquisition edges and blocking-under-guard
/// hits. Events inside `#[test]` scopes are skipped unless
/// `include_tests`.
pub fn walk(
    file: &FileData,
    acquire: &[(String, Vec<Pat>)],
    blocking: &[(String, Vec<Pat>)],
    include_tests: bool,
) -> Walk {
    let tokens = &file.tokens;
    let mut out = Walk::default();
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    // `let` statement tracking: bindings collected between `let` and the
    // first `=`; an acquisition after the `=` (same statement) binds to
    // the first pattern ident instead of becoming a temporary.
    let mut let_depth: Option<usize> = None;
    let mut let_past_eq = false;
    let mut let_binding: Option<String> = None;
    let mut last_fn: Option<String> = None;

    for i in 0..tokens.len() {
        let in_test = file.ctxs[i].in_test;
        // Function boundary: guards cannot outlive their function.
        if file.ctxs[i].fn_name != last_fn {
            last_fn = file.ctxs[i].fn_name.clone();
            live.clear();
            let_depth = None;
        }
        match &tokens[i].kind {
            TokenKind::Punct('{') => {
                // If-condition / match-scrutinee temporaries drop before
                // the block body runs.
                live.retain(|g| !g.temp);
                depth += 1;
            }
            TokenKind::Punct('}') => {
                live.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(';') => {
                live.retain(|g| !g.temp);
                if let_depth == Some(depth) {
                    let_depth = None;
                }
                // Guard rename: `state = guard;` keeps the reacquired
                // guard live under its new binding.
                if i >= 3 {
                    if let (TokenKind::Ident(to), TokenKind::Punct('='), TokenKind::Ident(from)) = (
                        &tokens[i - 3].kind,
                        &tokens[i - 2].kind,
                        &tokens[i - 1].kind,
                    ) {
                        if live
                            .iter()
                            .any(|g| g.binding.as_deref() == Some(from.as_str()))
                        {
                            // Assignment drops whatever `to` held before.
                            live.retain(|g| g.binding.as_deref() != Some(to.as_str()));
                            let g = live
                                .iter_mut()
                                .find(|g| g.binding.as_deref() == Some(from.as_str()))
                                .expect("checked above");
                            g.binding = Some(to.clone());
                        }
                    }
                }
            }
            TokenKind::Ident(name) if name == "let" => {
                let_depth = Some(depth);
                let_past_eq = false;
                let_binding = None;
            }
            TokenKind::Ident(name)
                if let_depth == Some(depth)
                    && !let_past_eq
                    && !matches!(name.as_str(), "mut" | "ref")
                    && let_binding.is_none() =>
            {
                let_binding = Some(name.clone());
            }
            TokenKind::Punct('=') if let_depth == Some(depth) && !let_past_eq => {
                // `==`/`=>`/`<=` cannot appear before the initializer `=`
                // of a let statement, so any `=` here ends the pattern.
                let_past_eq = true;
            }
            _ => {}
        }

        // `drop(g)` releases a named guard early.
        if let TokenKind::Ident(name) = &tokens[i].kind {
            if name == "drop"
                && seq_matches(tokens, i + 1, &[Pat::P('(')])
                && i + 3 < tokens.len()
                && matches!(tokens[i + 3].kind, TokenKind::Punct(')'))
            {
                if let TokenKind::Ident(arg) = &tokens[i + 2].kind {
                    live.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                }
            }
        }

        let skip_events = in_test && !include_tests;

        // Acquisition?
        if let Some((construct, _)) = acquire
            .iter()
            .find(|(_, pats)| seq_matches(tokens, i, pats))
        {
            if !skip_events {
                let lock = lock_name(tokens, i, construct);
                let line = tokens[i].line;
                for g in &live {
                    out.edges.push(Edge {
                        held: g.lock.clone(),
                        held_line: g.line,
                        acquired: lock.clone(),
                        line,
                    });
                }
                let bound = let_depth == Some(depth) && let_past_eq;
                live.push(LiveGuard {
                    binding: if bound { let_binding.clone() } else { None },
                    lock,
                    line,
                    depth,
                    temp: !bound,
                });
            }
            continue;
        }

        // Blocking construct?
        if let Some((construct, pats)) = blocking
            .iter()
            .find(|(_, pats)| seq_matches(tokens, i, pats))
        {
            if skip_events {
                continue;
            }
            // `cv.wait(guard)` atomically releases the guard it consumes:
            // exclude a live binding passed as the first argument.
            let mut consumed: Option<String> = None;
            if matches!(construct.as_str(), ".wait" | ".wait_timeout") {
                let open = i + pats.len() - 1; // the `(` token
                if let Some(t) = tokens.get(open + 1) {
                    if let TokenKind::Ident(arg) = &t.kind {
                        consumed = Some(arg.clone());
                    }
                }
            }
            let held: Vec<(String, usize)> = live
                .iter()
                .filter(|g| consumed.is_none() || g.binding.as_deref() != consumed.as_deref())
                .map(|g| (g.lock.clone(), g.line))
                .collect();
            if !held.is_empty() {
                out.blocking.push(BlockingHit {
                    construct: construct.clone(),
                    line: tokens[i].line,
                    held,
                });
            }
            // The consumed guard is gone either way (wait returns a fresh
            // guard, typically rebound via `let` or `g = cv.wait(g)...`).
            if let Some(arg) = consumed {
                live.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleConfig;
    use crate::escapes;
    use crate::lexer::lex;
    use crate::scope;
    use crate::FileData;

    fn file(src: &str) -> FileData {
        let lexed = lex(src);
        let ctxs = scope::contexts(&lexed.tokens);
        let scan = escapes::scan(
            &lexed.comments,
            &[
                "lock-order".to_string(),
                "blocking-while-locked".to_string(),
            ],
        );
        FileData {
            rel: "test.rs".into(),
            tokens: lexed.tokens,
            ctxs,
            escapes: scan.escapes,
        }
    }

    fn run(src: &str) -> Walk {
        let rule = RuleConfig {
            acquire: vec![".lock".into(), ".state".into()],
            forbid: vec![
                ".wait".into(),
                ".wait_timeout".into(),
                "thread::sleep".into(),
            ],
            ..RuleConfig::default()
        };
        let acquire = acquire_matchers(&rule).expect("acquire");
        let blocking = blocking_matchers(&rule).expect("blocking");
        walk(&file(src), &acquire, &blocking, false)
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let w = run("fn f() { let a = self.a.lock(); let b = self.b.lock(); }");
        assert_eq!(w.edges.len(), 1);
        assert_eq!(w.edges[0].held, "a");
        assert_eq!(w.edges[0].acquired, "b");
    }

    #[test]
    fn drop_and_scope_end_release_guards() {
        let w = run("fn f() { let a = x.a.lock(); drop(a); let b = x.b.lock(); }");
        assert!(w.edges.is_empty(), "{:?}", w.edges);
        let w = run("fn f() { { let a = x.a.lock(); } let b = x.b.lock(); }");
        assert!(w.edges.is_empty(), "{:?}", w.edges);
    }

    #[test]
    fn statement_temporaries_die_at_semicolon_and_block_open() {
        let w = run("fn f() { *x.a.lock() += 1; let b = x.b.lock(); }");
        assert!(w.edges.is_empty(), "{:?}", w.edges);
        // if-condition temporary dies before the body.
        let w = run("fn f() { if x.state().stopped { thread::sleep(d); } }");
        assert!(w.blocking.is_empty(), "{:?}", w.blocking);
    }

    #[test]
    fn sleeping_under_a_guard_is_flagged() {
        let w = run("fn f() { let g = x.a.lock(); thread::sleep(d); }");
        assert_eq!(w.blocking.len(), 1);
        assert_eq!(w.blocking[0].held, vec![("a".into(), 1)]);
    }

    #[test]
    fn condvar_wait_consuming_its_own_guard_is_clean() {
        let w = run("fn f() { let mut g = x.state(); g = cv.wait(g); }");
        assert!(w.blocking.is_empty(), "{:?}", w.blocking);
    }

    #[test]
    fn condvar_wait_with_a_foreign_guard_is_flagged() {
        let w = run("fn f() { let held = x.a.lock(); let g = x.state(); let g = cv.wait(g); }");
        assert_eq!(w.blocking.len(), 1);
        assert_eq!(w.blocking[0].held, vec![("a".into(), 1)]);
    }

    #[test]
    fn guard_rename_keeps_liveness() {
        let w = run(
            "fn f() { let mut state = x.state(); let guard = x.state(); state = guard; \
             thread::sleep(d); }",
        );
        // Rebinding `guard` into `state` must not duplicate it, and the
        // sleep still sees a live guard (two acquisitions, one edge).
        assert_eq!(w.blocking.len(), 1);
    }

    #[test]
    fn wait_timeout_reacquire_idiom_is_clean() {
        // The dispatch_loop idiom: wait_timeout consumes `guard`, result
        // rebound into `state` which the next `.wait(state)` consumes.
        let w = run("fn f() { let mut state = s.state(); loop { \
             state = s.work.wait(state).unwrap_or_else(|p| p.into_inner()); \
             drop(state); \
             let guard = s.state(); \
             let (guard, _t) = s.work.wait_timeout(guard, d).unwrap_or_else(|p| p.into_inner()); \
             state = guard; } }");
        assert!(w.blocking.is_empty(), "{:?}", w.blocking);
        assert!(w.edges.is_empty(), "{:?}", w.edges);
    }

    #[test]
    fn receiver_extraction_handles_indexing_and_calls() {
        let w = run("fn f() { let a = self.queues[i].lock(); let b = ord(site).lock(); }");
        assert_eq!(w.edges.len(), 1);
        assert_eq!(w.edges[0].held, "queues");
        assert_eq!(w.edges[0].acquired, "ord");
    }

    #[test]
    fn test_scopes_are_skipped_by_default() {
        let w = run(
            "#[cfg(test)] mod t { #[test] fn f() { let a = x.a.lock(); let b = x.b.lock(); \
             thread::sleep(d); } }",
        );
        assert!(w.edges.is_empty());
        assert!(w.blocking.is_empty());
    }
}
