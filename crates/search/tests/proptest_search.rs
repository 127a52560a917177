//! Property-based tests for the search substrate: top-k vs. a sort oracle,
//! exact search vs. brute-force scoring, and route-key laws.

use at_core::RouteKey;
use at_search::{search_exact, InvertedIndex, SearchRequest, TopK};
use at_synopsis::{RowStore, SparseRow};
use proptest::prelude::*;

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<(u8, u8)>>> {
    prop::collection::vec(prop::collection::vec((0u8..24, 1u8..=6), 1..10), 1..40)
}

fn build_store(docs: &[Vec<(u8, u8)>]) -> RowStore {
    let mut s = RowStore::new(24);
    for d in docs {
        s.push_row(SparseRow::from_pairs(
            d.iter().map(|&(t, c)| (t as u32, c as f64)).collect(),
        ));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topk_matches_sort_oracle(hits in prop::collection::vec((0u64..1000, 0.0f64..100.0), 0..200),
                                k in 1usize..20) {
        let mut dedup: std::collections::HashMap<u64, f64> = Default::default();
        for (d, s) in hits {
            dedup.insert(d, s);
        }
        let mut top = TopK::new(k);
        for (&d, &s) in &dedup {
            top.push(d, s);
        }
        let got = top.doc_ids();
        let mut oracle: Vec<(u64, f64)> = dedup.into_iter().collect();
        oracle.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        oracle.truncate(k);
        let want: Vec<u64> = oracle.into_iter().map(|(d, _)| d).collect();
        prop_assert_eq!(got, want);
    }

    /// The `RouteKey` law: requests that compare equal hash alike (term
    /// order and repeats are normalised away before either sees them).
    #[test]
    fn equal_search_requests_share_a_route_key(
        a in prop::collection::vec(0u32..4, 0..4),
        b in prop::collection::vec(0u32..4, 0..4),
    ) {
        let (ra, rb) = (SearchRequest::new(a.clone()), SearchRequest::new(b));
        if ra == rb {
            prop_assert_eq!(ra.route_key(), rb.route_key());
        }
        let mut doubled = a.clone();
        doubled.extend(a.iter().rev());
        let doubled = SearchRequest::new(doubled);
        prop_assert_eq!(&doubled, &ra);
        prop_assert_eq!(doubled.route_key(), ra.route_key());
    }

    #[test]
    fn search_matches_bruteforce_scoring(docs in docs_strategy(),
                                         terms in prop::collection::vec(0u8..24, 1..4)) {
        let store = build_store(&docs);
        let index = InvertedIndex::build(&store);
        let mut q: Vec<u32> = terms.iter().map(|&t| t as u32).collect();
        q.sort_unstable();
        q.dedup();

        let got = search_exact(&index, &q, 10);
        // Oracle: score every doc through the generic row scorer.
        let mut oracle = TopK::new(10);
        for id in store.ids() {
            let s = index.score_row(store.row(id).iter(), &q);
            if s > 0.0 {
                oracle.push(id, s);
            }
        }
        prop_assert_eq!(got.doc_ids(), oracle.doc_ids());
    }

    #[test]
    fn merge_of_shards_equals_global_search(docs in docs_strategy(),
                                            terms in prop::collection::vec(0u8..24, 1..4),
                                            n_shards in 1usize..4) {
        // Searching shard-by-shard and merging must equal searching one
        // global index, up to score ties (compare score multisets).
        let store = build_store(&docs);
        let global_index = InvertedIndex::build(&store);
        let mut q: Vec<u32> = terms.iter().map(|&t| t as u32).collect();
        q.sort_unstable();
        q.dedup();

        // NOTE: idf differs per shard, so this property is only exact when
        // scoring every shard with the *global* statistics — which is what
        // we do here via score_row on the global index.
        let mut merged = TopK::new(10);
        for shard in 0..n_shards {
            for id in store.ids().filter(|id| (*id as usize) % n_shards == shard) {
                let s = global_index.score_row(store.row(id).iter(), &q);
                if s > 0.0 {
                    merged.push(id, s);
                }
            }
        }
        let global = search_exact(&global_index, &q, 10);
        let mut a: Vec<u64> = merged.doc_ids();
        let mut b: Vec<u64> = global.doc_ids();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
