//! `lock-order`: build the workspace lock-acquisition graph (lock B
//! acquired while a guard for lock A is live => edge A -> B) and flag
//! every acquisition site whose edge participates in a cycle. Two
//! functions locking `{a, b}` in opposite orders deadlock under the
//! right interleaving; a consistent global order makes that impossible.
//! Each diagnostic names both conflicting chains with `file:line` per
//! edge so the fix (reorder or drop early) is mechanical.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{ConfigError, RuleConfig};
use crate::diagnostics::Diagnostic;
use crate::escapes;
use crate::rules::guards;
use crate::FileData;

pub const NAME: &str = "lock-order";

pub const EXPLAIN: &str = "Two threads acquiring the same pair of locks in opposite orders can \
each hold one and wait forever for the other; the latency budget does not survive a deadlocked \
dispatcher. This rule replays every function's guard scopes, records which lock is acquired \
while another guard is live, and rejects any cycle in the resulting acquisition graph. Lock \
identity is name-based (field or guard-helper method), which over-approximates across \
instances; justified single-lock-at-a-time idioms (the cluster router's failover scan) stay \
clean because they drop the first guard before taking the next.";

#[derive(Debug, Clone)]
struct Site {
    rel: String,
    line: usize,
    held_line: usize,
}

pub fn run(
    rule: &RuleConfig,
    files: &[std::rc::Rc<FileData>],
    out: &mut Vec<Diagnostic>,
) -> Result<(), ConfigError> {
    let acquire = guards::acquire_matchers(rule)?;

    // Aggregate edges across the whole scanned set: cycles typically span
    // files (submit in one, drain in another).
    let mut edge_sites: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    let mut edge_files: BTreeMap<(String, String), Vec<std::rc::Rc<FileData>>> = BTreeMap::new();
    for file in files {
        let walk = guards::walk(file, &acquire, &[], rule.include_tests);
        for e in walk.edges {
            let key = (e.held.clone(), e.acquired.clone());
            edge_sites.entry(key.clone()).or_default().push(Site {
                rel: file.rel.clone(),
                line: e.line,
                held_line: e.held_line,
            });
            edge_files.entry(key).or_default().push(file.clone());
        }
    }

    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (held, acquired) in edge_sites.keys() {
        adj.entry(held).or_default().insert(acquired);
    }

    for ((held, acquired), sites) in &edge_sites {
        // Edge held->acquired is cyclic iff `acquired` reaches `held`.
        let Some(path) = reach(&adj, acquired, held) else {
            continue;
        };
        let chain = describe_chain(&path, &edge_sites);
        for (site, file) in sites
            .iter()
            .zip(&edge_files[&(held.clone(), acquired.clone())])
        {
            if escapes::suppressed(&file.escapes, NAME, site.line) {
                continue;
            }
            out.push(Diagnostic::new(
                &site.rel,
                site.line,
                NAME,
                format!(
                    "acquiring `{acquired}` while holding `{held}` (held since {}:{}) conflicts \
                     with the reverse chain {chain}; pick one global order or drop the first \
                     guard before taking the second",
                    site.rel, site.held_line,
                ),
            ));
        }
    }
    Ok(())
}

/// Shortest path from `from` to `to` over the acquisition graph, as the
/// list of visited nodes (`from == to` yields `[from]`: a self-edge is a
/// re-acquisition deadlock on std's non-reentrant Mutex).
fn reach<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(node).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Render `a -> b (file:line), b -> c (file:line)` for the return path.
fn describe_chain(path: &[&str], sites: &BTreeMap<(String, String), Vec<Site>>) -> String {
    if path.len() < 2 {
        let lock = path.first().copied().unwrap_or("?");
        let site = sites
            .get(&(lock.to_string(), lock.to_string()))
            .and_then(|s| s.first());
        return match site {
            Some(s) => format!("`{lock}` -> `{lock}` ({}:{})", s.rel, s.line),
            None => format!("`{lock}` -> `{lock}`"),
        };
    }
    path.windows(2)
        .map(|w| {
            let key = (w[0].to_string(), w[1].to_string());
            match sites.get(&key).and_then(|s| s.first()) {
                Some(s) => format!("`{}` -> `{}` ({}:{})", w[0], w[1], s.rel, s.line),
                None => format!("`{}` -> `{}`", w[0], w[1]),
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escapes;
    use crate::lexer::lex;
    use crate::scope;
    use std::rc::Rc;

    fn file(rel: &str, src: &str) -> Rc<FileData> {
        let lexed = lex(src);
        let ctxs = scope::contexts(&lexed.tokens);
        let scan = escapes::scan(&lexed.comments, &[NAME.to_string()]);
        Rc::new(FileData {
            rel: rel.into(),
            tokens: lexed.tokens,
            ctxs,
            escapes: scan.escapes,
        })
    }

    fn rule() -> RuleConfig {
        RuleConfig {
            name: NAME.into(),
            enabled: true,
            acquire: vec![".lock".into()],
            ..RuleConfig::default()
        }
    }

    #[test]
    fn opposite_order_cycle_is_flagged_at_both_sites() {
        let files = vec![
            file(
                "ab.rs",
                "fn ab(x: &X) { let a = x.a.lock(); let b = x.b.lock(); }",
            ),
            file(
                "ba.rs",
                "fn ba(x: &X) { let b = x.b.lock(); let a = x.a.lock(); }",
            ),
        ];
        let mut out = Vec::new();
        run(&rule(), &files, &mut out).expect("runs");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|d| d.file == "ab.rs"));
        assert!(out.iter().any(|d| d.file == "ba.rs"));
        assert!(
            out[0].message.contains("reverse chain"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let files = vec![
            file(
                "one.rs",
                "fn f(x: &X) { let a = x.a.lock(); let b = x.b.lock(); }",
            ),
            file(
                "two.rs",
                "fn g(x: &X) { let a = x.a.lock(); let b = x.b.lock(); }",
            ),
        ];
        let mut out = Vec::new();
        run(&rule(), &files, &mut out).expect("runs");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn three_lock_cycle_is_found() {
        let files = vec![file(
            "tri.rs",
            "fn f(x: &X) { let a = x.a.lock(); let b = x.b.lock(); }\n\
             fn g(x: &X) { let b = x.b.lock(); let c = x.c.lock(); }\n\
             fn h(x: &X) { let c = x.c.lock(); let a = x.a.lock(); }",
        )];
        let mut out = Vec::new();
        run(&rule(), &files, &mut out).expect("runs");
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn self_reacquisition_is_flagged() {
        let files = vec![file(
            "re.rs",
            "fn f(x: &X) { let a = x.a.lock(); let again = x.a.lock(); }",
        )];
        let mut out = Vec::new();
        run(&rule(), &files, &mut out).expect("runs");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn escape_suppresses_a_cyclic_site() {
        let files = vec![
            file(
                "ab.rs",
                "fn ab(x: &X) { let a = x.a.lock();\n\
                 // lint: allow(lock-order) reason=b is only probed, never held\n\
                 let b = x.b.lock(); }",
            ),
            file(
                "ba.rs",
                "fn ba(x: &X) { let b = x.b.lock(); let a = x.a.lock(); }",
            ),
        ];
        let mut out = Vec::new();
        run(&rule(), &files, &mut out).expect("runs");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "ba.rs");
    }
}
