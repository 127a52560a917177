//! **hot-path-alloc** — the zero-allocation contract.
//!
//! The serving stack's steady-state hot path (Pearson scoring, stage-2
//! best-first improvement, synopsis processing, the output pool) must not
//! allocate per request: storage comes from thread-local scratch and
//! recycled `OutputPool` buffers, which is what makes warm-server tail
//! latency flat. This rule pins that property: inside the functions
//! listed as `items` in `analysis.toml` (matched by `file.rs::fn`, with a
//! trailing `*` glob on the fn name), allocating constructs from the
//! `forbid` list are diagnostics. Test code (`#[test]` / `#[cfg(test)]`)
//! is exempt; deliberate cold paths escape with
//! `lint: allow(hot-path-alloc) reason=...`.

use crate::config::{ConfigError, RuleConfig};
use crate::diagnostics::Diagnostic;
use crate::escapes;
use crate::rules::{fn_matches, is_index_bracket, matcher_for, seq_matches, Matcher};
use crate::FileData;

pub const NAME: &str = "hot-path-alloc";

pub const EXPLAIN: &str = "\
hot-path-alloc: no allocation in hot-path items.

The warm serving path must not touch the allocator: correlation scratch is
thread-local, output buffers are recycled through OutputPool, and ranking
is in place. A stray `Vec::new` / `vec![]` / `.collect()` / `format!` in a
hot function reintroduces a per-request allocation (and potential lock
contention in the allocator) exactly where tail latency is won or lost.

Scope: the `items` list in analysis.toml (`path/to/file.rs::fn_name`,
trailing `*` globs the fn name). Closures inside a hot function are hot;
`#[test]` / `#[cfg(test)]` code is exempt. An item whose pattern matches no
non-test fn in its file is a config error, like a missing file: a renamed
hot function must not drop out of the guard unnoticed. A deliberate cold
path (e.g. a pool-miss fallback that allocates once per buffer ever in
flight) escapes with `lint: allow(hot-path-alloc) reason=...` — the dynamic
allocation probe (tests/probe_alloc.rs) then proves those paths stay cold.";

pub fn run(
    rule: &RuleConfig,
    files: &[std::rc::Rc<FileData>],
    out: &mut Vec<Diagnostic>,
) -> Result<(), ConfigError> {
    let matchers: Vec<(String, Matcher)> = rule
        .forbid
        .iter()
        .map(|name| matcher_for(name).map(|m| (name.clone(), m)))
        .collect::<Result<_, _>>()?;

    for file in files {
        // Fn patterns whose items name this file.
        let patterns: Vec<&str> = rule
            .items
            .iter()
            .filter_map(|item| item.rsplit_once("::"))
            .filter(|(path, _)| *path == file.rel)
            .map(|(_, pat)| pat)
            .collect();
        if patterns.is_empty() {
            continue;
        }
        // A pattern that names no function guards nothing: a rename or
        // deletion must update the item list, not silently shrink it.
        if let Some(stale) = patterns.iter().find(|p| {
            !file
                .ctxs
                .iter()
                .any(|ctx| !ctx.in_test && ctx.fn_name.as_deref().is_some_and(|f| fn_matches(p, f)))
        }) {
            return Err(ConfigError(format!(
                "[rules.{NAME}] item `{}::{stale}` matches no non-test fn in that file — \
                 stale config?",
                file.rel
            )));
        }
        for i in 0..file.tokens.len() {
            let ctx = &file.ctxs[i];
            if ctx.in_test {
                continue;
            }
            let Some(fn_name) = &ctx.fn_name else {
                continue;
            };
            if !patterns.iter().any(|p| fn_matches(p, fn_name)) {
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
                if escapes::suppressed(&file.escapes, NAME, line) {
                    continue;
                }
                out.push(Diagnostic::new(
                    &file.rel,
                    line,
                    NAME,
                    format!(
                        "allocating construct `{name}` in hot item `{fn_name}` — reuse \
                         scratch/pooled buffers, or escape a deliberate cold path \
                         (see ANALYSIS.md)"
                    ),
                ));
            }
        }
    }
    Ok(())
}
