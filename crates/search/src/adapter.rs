//! AccuracyTrader adapter for the search engine.
//!
//! Maps the paper's search semantics onto the [`ApproximateService`] hooks:
//!
//! * **Correlation estimate** `c_i` — the similarity score of an
//!   *aggregated web page* (the merged contents of its member pages) to the
//!   query terms; a higher aggregated score means the group's original
//!   pages are more likely to contain actual top-10 pages.
//! * **Initial result** — an empty top-k: aggregated pages are not
//!   returnable results themselves, so stage 1's output is the *ranking*
//!   (the simulator/deadline loop guarantees improvement begins
//!   immediately with the best-ranked set).
//! * **Improvement** — score the original pages of one ranked set exactly
//!   and fold them into the top-k heap.

use at_core::{ApproximateService, ComposableService, Correlation, Ctx, Fnv1a, RouteKey};
use at_rtree::NodeId;
use at_synopsis::{Row, RowStore};

use crate::count_row::CountRow;
use crate::engine::search_exact;
use crate::index::InvertedIndex;
use crate::topk::TopK;

/// A search request: query terms, sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchRequest {
    /// Sorted, deduplicated term ids.
    pub terms: Vec<u32>,
}

impl SearchRequest {
    /// Build a request; sorts and dedups.
    pub fn new(mut terms: Vec<u32>) -> Self {
        terms.sort_unstable();
        terms.dedup();
        SearchRequest { terms }
    }
}

impl From<&at_workloads::Query> for SearchRequest {
    fn from(q: &at_workloads::Query) -> Self {
        SearchRequest::new(q.terms.clone())
    }
}

/// Stable placement hash over the (sorted, deduplicated) terms — exactly
/// what `Eq` compares — so repeated queries collapse on one worker under
/// hash-affinity routing.
impl RouteKey for SearchRequest {
    fn route_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &term in &self.terms {
            h.write_u32(term);
        }
        h.finish()
    }
}

/// The Lucene-style search service, AccuracyTrader-enabled. Owns the
/// component's inverted index, and rebuilds it from the component's pages
/// whenever [`Component::apply_updates`](at_core::Component::apply_updates)
/// changes them. Pages and merged pages are stored as [`CountRow`]s, and
/// both stages score them with [`InvertedIndex::score_query`].
///
/// `process_synopsis_into` resets recycled [`TopK`] heaps in place
/// ([`TopK::reset`]), so pooled serving allocates nothing for outputs.
#[derive(Clone, Debug)]
pub struct SearchService {
    index: InvertedIndex,
    k: usize,
}

impl SearchService {
    /// Build the inverted index over a component's pages, in any stored
    /// layout; results are top-`k` lists (paper: k = 10).
    pub fn build<R: Row>(pages: &RowStore<R>, k: usize) -> Self {
        SearchService {
            index: InvertedIndex::build(pages),
            k,
        }
    }

    /// The component's inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Result-list size `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ApproximateService for SearchService {
    type Row = CountRow;
    type Request = SearchRequest;
    type Output = TopK;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_, CountRow>,
        req: &SearchRequest,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output {
        let mut out = TopK::new(self.k);
        self.process_synopsis_into(ctx, req, corr, &mut out);
        out
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_, CountRow>,
        req: &SearchRequest,
        corr: &mut Vec<Correlation>,
        out: &mut Self::Output,
    ) {
        out.reset(self.k);
        let points = ctx.store.synopsis().points_with_stats();
        corr.reserve(points.len());
        corr.extend(points.iter().map(|(p, s)| {
            Correlation {
                node: p.node,
                score: self
                    .index
                    .score_query(p.info.cols(), p.info.counts(), s.sum, &req.terms),
            }
        }));
    }

    fn improve(
        &self,
        ctx: Ctx<'_, CountRow>,
        req: &SearchRequest,
        out: &mut Self::Output,
        _node: NodeId,
        members: &[u64],
    ) {
        for &doc in members {
            let row = ctx.dataset.row(doc);
            let sum = ctx.dataset.row_stats(doc).sum;
            let score = self
                .index
                .score_query(row.cols(), row.counts(), sum, &req.terms);
            if score > 0.0 {
                out.push(doc, score);
            }
        }
    }

    fn process_exact(&self, _ctx: Ctx<'_, CountRow>, req: &SearchRequest) -> Self::Output {
        search_exact(&self.index, &req.terms, self.k)
    }

    /// The pages changed: re-index them, so `process_exact`'s postings,
    /// idf and norms describe the pages `improve` scores.
    fn data_updated(&mut self, ctx: Ctx<'_, CountRow>) {
        self.index = InvertedIndex::build(ctx.dataset);
    }
}

/// Stride namespacing component-local document ids into the global id
/// space: global id = `component * COMPONENT_STRIDE + local doc`.
pub const COMPONENT_STRIDE: u64 = 1 << 32;

impl ComposableService for SearchService {
    type Response = TopK;

    /// Merge per-component top-k heaps into the global top-k — the paper's
    /// composing component for the search engine. Document ids are
    /// namespaced by component position via [`COMPONENT_STRIDE`].
    fn compose(&self, _req: &SearchRequest, parts: &[TopK]) -> TopK {
        let mut merged = TopK::new(self.k);
        for (component, part) in parts.iter().enumerate() {
            for h in part.sorted() {
                merged.push(component as u64 * COMPONENT_STRIDE + h.doc, h.score);
            }
        }
        merged
    }
}

/// Figure 4(b) analysis: rank the aggregated pages by similarity to `req`,
/// split into `n_sections`, and return each section's percentage of the
/// *actual top-k* pages (from exact search) whose group falls in that
/// section.
pub fn section_top_k_coverage(
    ctx: Ctx<'_, CountRow>,
    service: &SearchService,
    req: &SearchRequest,
    n_sections: usize,
) -> Vec<f64> {
    let actual: Vec<u64> = service.process_exact(ctx, req).doc_ids();
    if actual.is_empty() {
        return vec![0.0; n_sections];
    }
    let mut corr = Vec::new();
    service.process_synopsis(ctx, req, &mut corr);
    let ranked = at_core::rank(corr);
    let sections = at_core::sections(&ranked, n_sections);
    sections
        .iter()
        .map(|sec| {
            let mut hits = 0usize;
            for c in *sec {
                let members = ctx.store.index().members(c.node).expect("indexed node");
                hits += actual
                    .iter()
                    .filter(|d| members.binary_search(d).is_ok())
                    .count();
            }
            hits as f64 / actual.len() as f64 * 100.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::topk_overlap;
    use at_core::{Component, ExecutionPolicy};
    use at_linalg::svd::SvdConfig;
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use at_workloads::{Corpus, CorpusConfig, QueryGenerator};
    use std::time::Instant;

    fn component() -> (Component<SearchService>, Corpus) {
        let corpus = Corpus::generate(CorpusConfig::small());
        let mut pages = RowStore::new(corpus.config.vocab);
        for d in &corpus.docs {
            pages.push_row(SparseRow::from_pairs(d.terms.clone()));
        }
        let service = SearchService::build(&pages, 10);
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(20),
            size_ratio: 12,
            ..SynopsisConfig::default()
        };
        let (c, _) = Component::build(pages, AggregationMode::Merge, cfg, service);
        (c, corpus)
    }

    fn some_query(corpus: &Corpus, seed: u64) -> SearchRequest {
        let mut generator = QueryGenerator::new(corpus, seed);
        SearchRequest::from(&generator.next_query(corpus))
    }

    #[test]
    fn full_budget_matches_exact() {
        let (c, corpus) = component();
        for seed in 0..5u64 {
            let req = some_query(&corpus, seed);
            let approx = c
                .execute(&req, &ExecutionPolicy::budgeted(usize::MAX), Instant::now())
                .output;
            let exact = c
                .execute(&req, &ExecutionPolicy::Exact, Instant::now())
                .output;
            assert_eq!(
                approx.doc_ids(),
                exact.doc_ids(),
                "full improvement must equal exact search"
            );
        }
    }

    #[test]
    fn zero_budget_returns_empty_topk() {
        let (c, corpus) = component();
        let req = some_query(&corpus, 1);
        let o = c.execute(&req, &ExecutionPolicy::SynopsisOnly, Instant::now());
        assert!(o.output.is_empty());
        assert_eq!(o.sets_processed, 0);
    }

    #[test]
    fn overlap_grows_with_budget() {
        let (c, corpus) = component();
        let budgets = [1usize, 3, usize::MAX];
        let mut overlaps = vec![0.0; budgets.len()];
        for seed in 0..8u64 {
            let req = some_query(&corpus, seed);
            let actual = c
                .execute(&req, &ExecutionPolicy::Exact, Instant::now())
                .output
                .doc_ids();
            for (i, &b) in budgets.iter().enumerate() {
                let got = c
                    .execute(&req, &ExecutionPolicy::budgeted(b), Instant::now())
                    .output
                    .doc_ids();
                overlaps[i] += topk_overlap(&actual, &got);
            }
        }
        assert!(
            overlaps[2] >= overlaps[1] && overlaps[1] >= overlaps[0],
            "overlap must not shrink with budget: {overlaps:?}"
        );
        assert!(
            (overlaps[2] - 8.0).abs() < 1e-9,
            "full budget overlap must be total"
        );
    }

    #[test]
    fn few_top_sets_capture_most_top10() {
        // The heart of the paper's search result: a minority of top-ranked
        // sets contains the large majority of actual top-10 pages.
        let (c, corpus) = component();
        let n_groups = c.store().synopsis().len();
        let budget = n_groups.div_ceil(2); // top 50% of sets
        let mut total_overlap = 0.0;
        let mut n = 0;
        for seed in 0..20u64 {
            let req = some_query(&corpus, seed);
            let actual = c
                .execute(&req, &ExecutionPolicy::Exact, Instant::now())
                .output
                .doc_ids();
            if actual.is_empty() {
                continue;
            }
            let got = c
                .execute(&req, &ExecutionPolicy::budgeted(budget), Instant::now())
                .output
                .doc_ids();
            total_overlap += topk_overlap(&actual, &got);
            n += 1;
        }
        let mean = total_overlap / n as f64;
        assert!(
            mean > 0.7,
            "top 50% of ranked sets should capture most top-10 pages, got {mean}"
        );
    }

    #[test]
    fn section_coverage_concentrates_in_top_sections() {
        let (c, corpus) = component();
        let mut acc = vec![0.0; 4];
        let mut n = 0;
        for seed in 0..15u64 {
            let req = some_query(&corpus, seed);
            let cov = section_top_k_coverage(c.ctx(), c.service(), &req, 4);
            for (a, v) in acc.iter_mut().zip(&cov) {
                *a += v;
            }
            n += 1;
        }
        for a in &mut acc {
            *a /= n as f64;
        }
        assert!(
            acc[0] > acc[3],
            "top section must hold more of the actual top-10: {acc:?}"
        );
        assert!(acc[0] + acc[1] > 50.0, "top half should dominate: {acc:?}");
    }

    #[test]
    fn stage1_into_a_dirty_buffer_is_bit_identical_to_fresh() {
        let (c, corpus) = component();
        let svc = c.service();
        for seed in 0..4u64 {
            let req = some_query(&corpus, seed);
            let mut want_corr = Vec::new();
            let want_out = svc.process_synopsis(c.ctx(), &req, &mut want_corr);
            // A recycled heap with another request's stale hit and k.
            let mut out = TopK::new(3);
            out.push(42, 9.0);
            let mut corr = Vec::new();
            svc.process_synopsis_into(c.ctx(), &req, &mut corr, &mut out);
            assert_eq!(corr.len(), want_corr.len());
            for (a, b) in corr.iter().zip(&want_corr) {
                assert_eq!(a.node, b.node);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "scores must be bit-identical"
                );
            }
            assert!(out.is_empty(), "stage-1 top-k starts empty");
            assert_eq!(out.k(), want_out.k(), "recycled heap reset to service k");
        }
    }

    #[test]
    fn request_normalization() {
        let r = SearchRequest::new(vec![5, 1, 5, 3]);
        assert_eq!(r.terms, vec![1, 3, 5]);
    }
}
