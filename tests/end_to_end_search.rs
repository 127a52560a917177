//! End-to-end search pipeline across all crates: generate corpus →
//! partition → index → synopsis → `FanOutService::serve` → merged top-10
//! accuracy.

use accuracytrader::core::Component;
use accuracytrader::prelude::*;
use accuracytrader::search::{topk_overlap, InvertedIndex};
use std::time::{Duration, Instant};

fn deployment() -> (FanOutService<SearchService>, Corpus, Vec<SearchRequest>) {
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: 1600,
        vocab: 2500,
        n_topics: 12,
        ..CorpusConfig::default()
    });
    let rows: Vec<SparseRow> = corpus
        .docs
        .iter()
        .map(|d| SparseRow::from_pairs(d.terms.clone()))
        .collect();
    let subsets = partition_rows(corpus.config.vocab, rows, 4).expect("4 components");
    let components: Vec<Component<SearchService>> = subsets
        .into_iter()
        .map(|subset| {
            let engine = SearchService::build(&subset, 10);
            Component::build(
                subset,
                AggregationMode::Merge,
                SynopsisConfig {
                    svd: SvdConfig::default().with_epochs(20),
                    size_ratio: 15,
                    ..SynopsisConfig::default()
                },
                engine,
            )
            .0
        })
        .collect();
    let service = FanOutService::from_components(components);
    let mut generator = QueryGenerator::new(&corpus, 17);
    let queries = generator
        .batch(&corpus, 30)
        .iter()
        .map(SearchRequest::from)
        .collect();
    (service, corpus, queries)
}

#[test]
fn full_budget_serve_equals_exact_globally() {
    let (service, _, queries) = deployment();
    for q in queries.iter().take(8) {
        let approx = service.serve(q, &ExecutionPolicy::budgeted(usize::MAX));
        let exact = service.serve(q, &ExecutionPolicy::Exact);
        assert_eq!(approx.response.doc_ids(), exact.response.doc_ids());
        assert_eq!(approx.mean_coverage(), 1.0);
    }
}

#[test]
fn synopsis_only_serve_equals_zero_budget() {
    let (service, _, queries) = deployment();
    for q in queries.iter().take(8) {
        let syn = service.serve(q, &ExecutionPolicy::SynopsisOnly);
        let zero = service.serve(q, &ExecutionPolicy::budgeted(0));
        assert_eq!(syn.response.doc_ids(), zero.response.doc_ids());
        // Aggregated pages are not returnable results: the synopsis-only
        // top-k is empty, improvement fills it in.
        assert!(syn.response.is_empty());
        assert_eq!(syn.sets_processed(), 0);
    }
}

#[test]
fn expired_deadline_serve_returns_synopsis_only_response() {
    let (service, _, queries) = deployment();
    let q = &queries[0];
    let submitted = Instant::now() - Duration::from_millis(80);
    let served = service.serve_at(
        q,
        &ExecutionPolicy::deadline(Duration::from_millis(10)),
        submitted,
    );
    assert_eq!(served.sets_processed(), 0);
    let synopsis_only = service.serve(q, &ExecutionPolicy::SynopsisOnly);
    assert_eq!(served.response.doc_ids(), synopsis_only.response.doc_ids());
}

#[test]
fn top_40pct_of_sets_capture_most_top10() {
    // The paper's headline search observation: the top 40% of ranked sets
    // contain over 98% of the actual top-10 pages. At our scale we demand
    // > 85% on average.
    let (service, _, queries) = deployment();
    let mut total = 0.0;
    let mut n = 0;
    for q in &queries {
        let exact = service.serve(q, &ExecutionPolicy::Exact);
        if exact.response.is_empty() {
            continue;
        }
        let n_sets = service.components()[0].store().synopsis().len();
        let budget = (n_sets as f64 * 0.4).ceil() as usize;
        let approx = service.serve(q, &ExecutionPolicy::budgeted(budget));
        total += topk_overlap(&exact.response.doc_ids(), &approx.response.doc_ids());
        n += 1;
    }
    let mean = total / n as f64;
    assert!(
        mean > 0.85,
        "top-40% budget should capture most actual top-10 pages, got {mean}"
    );
}

#[test]
fn overlap_is_monotone_in_budget_on_average() {
    let (service, _, queries) = deployment();
    let budgets = [1usize, 4, 16, usize::MAX];
    let mut means = Vec::new();
    for &b in &budgets {
        let policy = ExecutionPolicy::budgeted(b);
        let mut total = 0.0;
        for q in &queries {
            let exact = service.serve(q, &ExecutionPolicy::Exact);
            let approx = service.serve(q, &policy);
            total += topk_overlap(&exact.response.doc_ids(), &approx.response.doc_ids());
        }
        means.push(total / queries.len() as f64);
    }
    for w in means.windows(2) {
        assert!(
            w[1] >= w[0] - 0.02,
            "mean overlap should grow with budget: {means:?}"
        );
    }
    assert!((means.last().unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn async_server_topk_matches_synchronous_serve() {
    let (service, _, queries) = deployment();
    let n_sets = service.components()[0].store().synopsis().len();
    let policy = ExecutionPolicy::Budgeted {
        sets: usize::MAX,
        imax: Some(ExecutionPolicy::imax_for_fraction(n_sets, 0.4)),
    };
    let server = Server::from_service(service, ServerConfig::default());
    let pending: Vec<_> = queries
        .iter()
        .map(|q| {
            (
                q.clone(),
                server.try_submit(q.clone(), policy).expect("room"),
            )
        })
        .collect();
    for (q, ticket) in pending {
        let got = ticket.wait().expect("fulfilled");
        let want = server.service().serve(&q, &policy);
        assert_eq!(got.response.doc_ids(), want.response.doc_ids());
        assert_eq!(got.components, want.components);
        assert!(got.response.len() <= 10);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, queries.len());
}

/// Admission control over the search adapter: the paper's `i_max` cap
/// (top 40% of ranked sets) survives degradation — a `Deadline` request
/// degraded to its `Budgeted` rung keeps the cap — and every degraded
/// response is a valid, correctly ordered top-k identical to serving
/// under the applied rung.
#[test]
fn admission_control_preserves_imax_and_topk_validity_under_overload() {
    let (service, _, queries) = deployment();
    let service = std::sync::Arc::new(service);
    let n_sets = service.components()[0].store().synopsis().len();
    let imax = ExecutionPolicy::imax_for_fraction(n_sets, 0.4);
    let requested = ExecutionPolicy::Deadline {
        l_spe: Duration::from_secs(30),
        imax: Some(imax),
    };
    let wait_budget = Duration::from_millis(15);
    let server = Server::with_controller(
        service.clone(),
        ServerConfig::default()
            .with_max_batch(16)
            .with_stats_window(32),
        LadderController::new(LadderConfig {
            step_fraction: 1.0,
            max_level: 3, // degradation only: never reach shed_level
            ..LadderConfig::for_deadline(wait_budget)
        }),
    );
    server.pause();
    let tickets: Vec<_> = queries
        .iter()
        .cycle()
        .take(40)
        .map(|q| {
            (
                q.clone(),
                server.try_submit(q.clone(), requested).expect("room"),
            )
        })
        .collect();
    std::thread::sleep(3 * wait_budget);
    server.resume();
    let mut degraded = 0usize;
    for (query, ticket) in tickets {
        let got = ticket
            .wait()
            .expect("degraded, never shed below shed_level");
        assert!(got.response.len() <= 10);
        let hits = got.response.sorted();
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score, "top-k not sorted");
        }
        if got.policy_applied != requested {
            degraded += 1;
            // Degrading a capped Deadline keeps the paper's i_max.
            if got.policy_applied.cost_rank() > ExecutionPolicy::SynopsisOnly.cost_rank() {
                assert_eq!(got.policy_applied.imax(), Some(imax));
            }
            let want = service.serve(&query, &got.policy_applied);
            assert_eq!(got.response.doc_ids(), want.response.doc_ids());
            assert_eq!(got.components, want.components);
        }
    }
    assert!(
        degraded > 0,
        "a burst waiting 3x the budget must trip the controller"
    );
    let stats = server.shutdown();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.completed, 40);
}

#[test]
fn search_policy_imax_caps_coverage() {
    // The paper's search setting (i_max = 40% of sets) must cap coverage
    // even under an effectively unlimited deadline.
    let (service, _, queries) = deployment();
    let n_sets = service.components()[0].store().synopsis().len();
    let policy = ExecutionPolicy::Deadline {
        l_spe: Duration::from_secs(30),
        imax: Some(n_sets.div_ceil(2)),
    };
    let served = service.serve(&queries[0], &policy);
    for c in &served.components {
        assert!(c.sets_processed <= n_sets.div_ceil(2));
    }
    assert!(served.mean_coverage() <= 0.75);
}

/// The term-walking row scorer `InvertedIndex::score_query` replaced,
/// kept as its oracle: every stored term of the `f64` row is visited,
/// matches summed in ascending term order, the length summed as it goes.
fn score_row(index: &InvertedIndex, row: &SparseRow, terms: &[u32]) -> f64 {
    let mut score = 0.0;
    let mut len = 0.0;
    for (t, c) in row.iter() {
        len += c;
        if terms.binary_search(&t).is_ok() {
            score += index.tf_idf(c, t);
        }
    }
    score / len.sqrt().max(1.0)
}

/// A `small`-shaped deployment (6 components × 150 pages, 1 200-term
/// vocabulary) and 500 distinct queries, generated the way the benchmark's
/// search deployment is.
fn small_deployment() -> (Vec<Component<SearchService>>, Vec<SearchRequest>) {
    const DATA_SEED: u64 = 0xACC0_2016;
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: 6 * 150,
        vocab: 1200,
        n_topics: 12,
        seed: DATA_SEED,
        ..CorpusConfig::default()
    });
    let rows: Vec<SparseRow> = corpus
        .docs
        .iter()
        .map(|d| SparseRow::from_pairs(d.terms.clone()))
        .collect();
    let mut generator = QueryGenerator::new(&corpus, DATA_SEED ^ 0x9e);
    let mut requests: Vec<SearchRequest> = Vec::new();
    let mut attempts = 0usize;
    while requests.len() < 500 && attempts < 500 * 20 {
        let req = SearchRequest::from(&generator.next_query(&corpus));
        if !requests.contains(&req) {
            requests.push(req);
        }
        attempts += 1;
    }
    assert_eq!(requests.len(), 500);
    let config = SynopsisConfig {
        svd: SvdConfig::default().with_epochs(30).with_seed(DATA_SEED),
        size_ratio: 12,
        ..SynopsisConfig::default()
    };
    let subsets = partition_rows(corpus.config.vocab, rows, 6).expect("6 components");
    let components = subsets
        .into_iter()
        .map(|subset| {
            let engine = SearchService::build(&subset, 10);
            Component::build(subset, AggregationMode::Merge, config, engine).0
        })
        .collect();
    (components, requests)
}

/// A top-k down to the bit: `(doc, score bits)` in rank order.
fn hit_bits(top: &TopK) -> Vec<(u64, u64)> {
    top.sorted()
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect()
}

/// Pins the query-driven kernel to the term-walking oracle on realistic
/// data: on [`small_deployment`], every request is scored against every
/// synopsis point and every original page of every component, from their
/// stored `u32` counts, and `score_query` must equal `score_row` over the
/// decoded `f64` rows bit for bit.
#[test]
fn score_query_matches_score_row_on_a_small_deployment() {
    let (components, requests) = small_deployment();
    let (mut points, mut pages) = (0usize, 0usize);
    for component in &components {
        let (index, dataset) = (component.service().index(), component.dataset());
        for req in &requests {
            let terms = &req.terms;
            for (p, stats) in component.store().synopsis().points_with_stats() {
                let got = index.score_query(p.info.cols(), p.info.counts(), stats.sum, terms);
                let want = score_row(index, &p.info.decode(), terms);
                assert_eq!(got.to_bits(), want.to_bits(), "point {:?}", p.node);
                points += 1;
            }
            for id in dataset.ids() {
                let row = dataset.row(id);
                let sum = dataset.row_stats(id).sum;
                let got = index.score_query(row.cols(), row.counts(), sum, terms);
                let want = score_row(index, &row.decode(), terms);
                assert_eq!(got.to_bits(), want.to_bits(), "page {id}");
                pages += 1;
            }
        }
    }
    assert_eq!(pages, 500 * 900);
    assert!(points > 0);
}

/// Stage 2 at the adapter boundary: on [`small_deployment`], for every
/// request, every component and every ranked set in rank order, the
/// production `improve` leaves the same top-k, by bits, as an oracle
/// `improve` that scores each member page with `score_row` over its
/// decoded `f64` row.
#[test]
fn improve_matches_score_row_oracle_on_a_small_deployment() {
    let (components, requests) = small_deployment();
    let mut sets = 0usize;
    for component in &components {
        let (ctx, service) = (component.ctx(), component.service());
        for req in &requests {
            let mut corr = Vec::new();
            let mut got = service.process_synopsis(ctx, req, &mut corr);
            let mut want = got.clone();
            for set in accuracytrader::core::rank(corr) {
                let members = ctx.store.index().members(set.node).expect("indexed node");
                service.improve(ctx, req, &mut got, set.node, members);
                for &doc in members {
                    let score =
                        score_row(service.index(), &ctx.dataset.row(doc).decode(), &req.terms);
                    if score > 0.0 {
                        want.push(doc, score);
                    }
                }
                assert_eq!(hit_bits(&got), hit_bits(&want), "set {:?}", set.node);
                sets += 1;
            }
        }
    }
    assert!(sets > 500 * components.len());
}

/// `apply_updates` re-indexes: after pages are added and changed, the
/// full-budget approximate path (which scores the stored pages) and
/// `Exact` (which reads the inverted index) still agree on every doc id
/// and every score bit, and a page added all about one term ranks first
/// for it.
#[test]
fn full_budget_equals_exact_after_updates() {
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: 300,
        vocab: 600,
        n_topics: 6,
        ..CorpusConfig::default()
    });
    let mut pages = RowStore::new(corpus.config.vocab);
    for d in &corpus.docs {
        pages.push_row(SparseRow::from_pairs(d.terms.clone()));
    }
    let engine = SearchService::build(&pages, 10);
    let config = SynopsisConfig {
        svd: SvdConfig::default().with_epochs(20),
        size_ratio: 15,
        ..SynopsisConfig::default()
    };
    let (mut component, _) = Component::build(pages, AggregationMode::Merge, config, engine);
    component.apply_updates(vec![
        DataUpdate::Add(SparseRow::from_pairs(vec![(5, 4.0)])),
        DataUpdate::Change {
            id: 7,
            row: SparseRow::from_pairs(vec![(5, 3.0), (11, 2.0), (40, 1.0)]),
        },
    ]);
    component
        .validate()
        .expect("component consistent after update");
    let mut generator = QueryGenerator::new(&corpus, 5);
    let mut requests: Vec<SearchRequest> = (0..20)
        .map(|_| SearchRequest::from(&generator.next_query(&corpus)))
        .collect();
    requests.push(SearchRequest::new(vec![5]));
    requests.push(SearchRequest::new(vec![5, 11, 40]));
    for req in &requests {
        let approx = component.execute(req, &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        let exact = component.execute(req, &ExecutionPolicy::Exact, Instant::now());
        assert_eq!(hit_bits(&approx.output), hit_bits(&exact.output), "{req:?}");
    }
    let exact = component.execute(
        &SearchRequest::new(vec![5]),
        &ExecutionPolicy::Exact,
        Instant::now(),
    );
    assert_eq!(exact.output.doc_ids()[0], 300, "the added page ranks first");
}
