//! The per-component search engine: exact query evaluation over the
//! inverted index (the paper's Lucene stand-in).

use crate::index::InvertedIndex;
use crate::topk::TopK;

/// Evaluate `terms` (sorted ascending) over the index, returning the best
/// `k` pages. Documents are scored by summed sublinear tf-idf with length
/// normalization — the similarity score the paper ranks by.
pub fn search_exact(index: &InvertedIndex, terms: &[u32], k: usize) -> TopK {
    debug_assert!(
        terms.windows(2).all(|w| w[0] < w[1]),
        "terms must be sorted"
    );
    // Sum each document's contributions in term order into a dense
    // per-document buffer; `None` marks a document no query term's
    // posting list holds, so exactly the matched documents are pushed.
    let mut scores: Vec<Option<f64>> = vec![None; index.n_docs()];
    for &t in terms {
        for (doc, tf) in index.postings(t) {
            let slot = &mut scores[doc as usize];
            *slot = Some(slot.unwrap_or(0.0) + index.tf_idf(tf, t));
        }
    }
    let mut top = TopK::new(k);
    for (doc, raw) in scores.into_iter().enumerate() {
        if let Some(raw) = raw {
            let doc = doc as u64;
            top.push(doc, raw / index.doc_norm(doc));
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_synopsis::{RowStore, SparseRow};

    fn corpus() -> (RowStore, InvertedIndex) {
        let mut s = RowStore::new(10);
        // doc 0 is all about term 3; doc 1 mentions it once among much else;
        // doc 2 is irrelevant.
        s.push_row(SparseRow::from_pairs(vec![(3, 6.0)]));
        s.push_row(SparseRow::from_pairs(vec![
            (1, 3.0),
            (3, 1.0),
            (7, 4.0),
            (9, 4.0),
        ]));
        s.push_row(SparseRow::from_pairs(vec![(5, 2.0)]));
        let idx = InvertedIndex::build(&s);
        (s, idx)
    }

    #[test]
    fn relevant_doc_ranks_first() {
        let (_, idx) = corpus();
        let top = search_exact(&idx, &[3], 10);
        let ids = top.doc_ids();
        assert_eq!(ids[0], 0, "focused doc must outrank diluted doc");
        assert_eq!(ids.len(), 2, "irrelevant doc must not appear");
    }

    #[test]
    fn multi_term_union() {
        let (_, idx) = corpus();
        let top = search_exact(&idx, &[3, 5], 10);
        assert_eq!(top.len(), 3, "union of postings covers all matching docs");
    }

    #[test]
    fn k_limits_results() {
        let (_, idx) = corpus();
        let top = search_exact(&idx, &[3, 5], 1);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn no_match_is_empty() {
        let (_, idx) = corpus();
        assert!(search_exact(&idx, &[8], 10).is_empty());
    }

    #[test]
    fn scores_match_score_query() {
        // The postings path and the stored-row kernel agree.
        let (s, idx) = corpus();
        let s = s.into_layout::<crate::CountRow>();
        let terms = vec![3u32, 7];
        let top = search_exact(&idx, &terms, 10);
        for h in top.sorted() {
            let row = s.row(h.doc);
            let via_row = idx.score_query(row.cols(), row.counts(), s.row_stats(h.doc).sum, &terms);
            assert_eq!(h.score.to_bits(), via_row.to_bits(), "doc {}", h.doc);
        }
    }
}
