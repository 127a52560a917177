//! Property-based tests for the search substrate: top-k vs. a sort oracle,
//! exact search vs. brute-force scoring, the query-driven row scorer over
//! `u32` counts vs. the term-walking one over `f64` values, the `CountRow`
//! round trip, CSR postings vs. a nested-`Vec` build, and route-key laws.

use at_core::RouteKey;
use at_linalg::RowStats;
use at_search::{search_exact, CountRow, InvertedIndex, SearchRequest, TopK};
use at_synopsis::{Row, RowStore, SparseRow};
use proptest::prelude::*;

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

/// Pages whose counts span the whole range the corpora use (1..=65 535).
fn wide_docs_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..24, 1u32..=65_535), 0..10),
        1..40,
    )
}

fn build_wide_store(docs: &[Vec<(u32, u32)>]) -> RowStore {
    let mut s = RowStore::new(24);
    for d in docs {
        s.push_row(SparseRow::from_pairs(
            d.iter().map(|&(t, c)| (t, f64::from(c))).collect(),
        ));
    }
    s
}

/// The postings layout the CSR replaced: one `Vec` of `(doc, tf)` per
/// term, pushed in doc order.
fn reference_postings(store: &RowStore) -> Vec<Vec<(u64, f64)>> {
    let mut postings = vec![Vec::new(); store.feature_dim()];
    for id in store.ids() {
        for (t, c) in store.row(id).iter() {
            postings[t as usize].push((id, c));
        }
    }
    postings
}

#[test]
#[should_panic(expected = "not a whole number")]
fn fractional_count_panics_at_build() {
    let mut s = RowStore::new(4);
    s.push_row(SparseRow::from_pairs(vec![(1, 2.0), (3, 0.5)]));
    InvertedIndex::build(&s);
}

#[test]
#[should_panic(expected = "CountRow::encode: term count 0.5 is not a whole number")]
fn fractional_count_panics_at_encode() {
    CountRow::encode(SparseRow::from_pairs(vec![(1, 2.0), (3, 0.5)]));
}

#[test]
#[should_panic(expected = "CountRow::encode: term count -1 is not a whole number")]
fn negative_count_panics_at_encode() {
    CountRow::encode(SparseRow::from_pairs(vec![(1, -1.0)]));
}

#[test]
#[should_panic(expected = "CountRow::encode: term count 4294967296 is not a whole number")]
fn count_above_u32_max_panics_at_encode() {
    CountRow::encode(SparseRow::from_pairs(vec![
        (0, 1.0),
        (1, f64::from(u32::MAX) + 1.0),
    ]));
}

#[test]
#[should_panic(expected = "CountRow::encode: term count NaN is not a whole number")]
fn nan_count_panics_at_encode() {
    CountRow::encode(SparseRow::from_pairs(vec![(2, f64::NAN)]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `score_query` (query terms searched in the row's `u32` counts,
    /// cached length) equals `score_row` (every term of the `f64` row
    /// walked) bit for bit: rows may be empty, and query terms may be
    /// absent from the row, or from the vocabulary (terms 24..32). Rows and
    /// queries are dense enough that most cases sum three or more matches,
    /// where order shows in the bits.
    #[test]
    fn score_query_is_bit_identical_to_score_row(
        docs in wide_docs_strategy(),
        row in prop::collection::vec((0u32..32, 1u32..=65_535), 0..24),
        terms in prop::collection::vec(0u32..32, 0..16),
    ) {
        let index = InvertedIndex::build(&build_wide_store(&docs));
        let row = SparseRow::from_pairs(row.into_iter().map(|(t, c)| (t, f64::from(c))).collect());
        let q = SearchRequest::new(terms).terms;
        let sum = RowStats::of(&row.vals).sum;
        let want = score_row(&index, &row, &q);
        let counts = CountRow::encode(row);
        let got = index.score_query(counts.cols(), counts.counts(), sum, &q);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    /// Any row of whole `u32` counts survives `CountRow`: decoding gives
    /// back the same columns and the same value bits, `for_each` visits
    /// the same pairs, and re-encoding the decoded row is a fixed point.
    #[test]
    fn count_row_round_trips(
        pairs in prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..40),
    ) {
        let row = SparseRow::from_pairs(pairs.into_iter().map(|(t, c)| (t, f64::from(c))).collect());
        let encoded = CountRow::encode(row.clone());
        let decoded = encoded.decode();
        prop_assert_eq!(&decoded.cols, &row.cols);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&decoded.vals), bits(&row.vals));
        let mut visited = Vec::new();
        encoded.for_each(|t, c| visited.push((t, c.to_bits())));
        let want: Vec<(u32, u64)> = row.iter().map(|(t, c)| (t, c.to_bits())).collect();
        prop_assert_eq!(visited, want);
        prop_assert_eq!(CountRow::encode(decoded), encoded);
    }

    /// The CSR postings read back exactly as the nested-`Vec` build,
    /// term by term, in doc order, and the idf table holds exactly
    /// `ln(1 + N / df)` of the reference lists.
    #[test]
    fn csr_postings_equal_reference_build(docs in wide_docs_strategy()) {
        let store = build_wide_store(&docs);
        let index = InvertedIndex::build(&store);
        let want = reference_postings(&store);
        for (t, list) in want.iter().enumerate() {
            let got: Vec<(u64, f64)> = index.postings(t as u32).collect();
            prop_assert_eq!(&got, list);
            prop_assert_eq!(index.df(t as u32), list.len());
            let idf = if list.is_empty() {
                0.0
            } else {
                (1.0 + store.len() as f64 / list.len() as f64).ln()
            };
            prop_assert_eq!(index.idf(t as u32).to_bits(), idf.to_bits());
        }
        prop_assert_eq!(index.postings(24).len(), 0);
    }

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
            let s = score_row(&index, store.row(id), &q);
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
                let s = score_row(&global_index, store.row(id), &q);
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
