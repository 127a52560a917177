//! The inverted index — the search engine's offline artifact (§3.2: "the
//! web crawler crawls the web pages and builds the inverted index").
//!
//! Postings are term → `(doc, tf)` lists, stored as one CSR per component;
//! idf per term and document norms are precomputed at build. The index
//! serves the *exact* processing path; the synopsis path scores merged
//! aggregated pages with the same statistics so correlation estimates are
//! on the same scale as real scores.

use std::ops::Range;

use at_synopsis::{Row, RowStore};

use crate::count_row::whole_count;

/// Inverted index over one component's page subset.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    n_docs: usize,
    /// CSR row pointers: term `t`'s postings are
    /// `docs[offsets[t]..offsets[t + 1]]` / `counts[..]`, doc ascending.
    offsets: Vec<u32>,
    /// Posting doc ids.
    docs: Vec<u32>,
    /// Posting term frequencies; whole numbers, so `f64::from` is exact.
    counts: Vec<u32>,
    /// Per-term `ln(1 + N / df)`; 0 for unseen terms.
    idf: Vec<f64>,
    /// Per-document length norm: sqrt(total term occurrences).
    doc_norm: Vec<f64>,
}

impl InvertedIndex {
    /// Build from a page store (rows = pages, cols = terms, vals = counts)
    /// in any stored layout: the interchange [`SparseRow`](at_synopsis::SparseRow)
    /// store a deployment starts from, or a component's
    /// [`CountRow`](crate::CountRow) store after an update.
    ///
    /// # Panics
    /// If a count is not a whole number in `u32` range, or the component
    /// holds more than `u32::MAX` pages or postings.
    pub fn build<R: Row>(pages: &RowStore<R>) -> Self {
        let vocab = pages.feature_dim();
        let n_docs = pages.len();
        assert!(
            u32::try_from(n_docs).is_ok(),
            "InvertedIndex::build: more than u32::MAX pages"
        );
        // Pass 1: document frequencies, then their prefix sums.
        let mut offsets = vec![0u32; vocab + 1];
        for id in pages.ids() {
            pages.row(id).for_each(|t, _| offsets[t as usize + 1] += 1);
        }
        for t in 0..vocab {
            offsets[t + 1] = offsets[t]
                .checked_add(offsets[t + 1])
                .expect("InvertedIndex::build: more than u32::MAX postings");
        }
        let idf = offsets
            .windows(2)
            .map(|w| match w[1] - w[0] {
                0 => 0.0,
                df => (1.0 + n_docs as f64 / df as f64).ln(),
            })
            .collect();
        // Pass 2: fill each term's slots in doc order.
        let nnz = offsets[vocab] as usize;
        let mut docs = vec![0u32; nnz];
        let mut counts = vec![0u32; nnz];
        let mut next = offsets[..vocab].to_vec();
        let mut doc_norm = Vec::with_capacity(n_docs);
        for id in pages.ids() {
            let mut len = 0.0;
            pages.row(id).for_each(|t, c| {
                let slot = &mut next[t as usize];
                docs[*slot as usize] = id as u32;
                counts[*slot as usize] = whole_count("InvertedIndex::build", c);
                *slot += 1;
                len += c;
            });
            doc_norm.push(len.sqrt().max(1.0));
        }
        InvertedIndex {
            n_docs,
            offsets,
            docs,
            counts,
            idf,
            doc_norm,
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// `term`'s slots in `docs` / `counts`; empty for unseen terms.
    fn span(&self, term: u32) -> Range<usize> {
        let t = term as usize;
        match (self.offsets.get(t), self.offsets.get(t + 1)) {
            (Some(&a), Some(&b)) => a as usize..b as usize,
            _ => 0..0,
        }
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: u32) -> usize {
        self.span(term).len()
    }

    /// Inverse document frequency: `ln(1 + N / df)`; 0 for unseen terms.
    pub fn idf(&self, term: u32) -> f64 {
        self.idf.get(term as usize).copied().unwrap_or(0.0)
    }

    /// Posting list of `term` as `(doc, tf)` pairs, doc ascending.
    pub fn postings(&self, term: u32) -> impl ExactSizeIterator<Item = (u64, f64)> + '_ {
        let span = self.span(term);
        self.docs[span.clone()]
            .iter()
            .zip(&self.counts[span])
            .map(|(&doc, &tf)| (u64::from(doc), f64::from(tf)))
    }

    /// A document's length norm.
    pub fn doc_norm(&self, doc: u64) -> f64 {
        self.doc_norm[doc as usize]
    }

    /// Per-term score contribution: sublinear tf × idf.
    pub fn tf_idf(&self, tf: f64, term: u32) -> f64 {
        if tf <= 0.0 {
            0.0
        } else {
            (1.0 + tf.ln()) * self.idf(term)
        }
    }

    /// Score one stored page (or merged page) against query `terms`
    /// (sorted, deduplicated) using this index's corpus statistics: each
    /// query term is binary-searched in the row's sorted `cols`, matches
    /// are summed in ascending term order, and the row length is its
    /// cached value `sum` (`RowStats::sum`). This is the one scoring
    /// kernel of both stages; `counts` are whole numbers, so it equals a
    /// walk over every stored term of the `f64` row bit for bit.
    pub fn score_query(&self, cols: &[u32], counts: &[u32], sum: f64, terms: &[u32]) -> f64 {
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "terms must be sorted and deduplicated"
        );
        let mut score = 0.0;
        // Terms ascend, so each search starts past the previous position.
        let mut from = 0usize;
        for &t in terms {
            match cols[from..].binary_search(&t) {
                Ok(i) => {
                    score += self.tf_idf(f64::from(counts[from + i]), t);
                    from += i + 1;
                }
                Err(i) => from += i,
            }
        }
        score / sum.sqrt().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_synopsis::SparseRow;

    fn pages() -> RowStore {
        let mut s = RowStore::new(6);
        // doc 0: terms 0,1   doc 1: terms 1,2,2   doc 2: term 5 x4
        s.push_row(SparseRow::from_pairs(vec![(0, 1.0), (1, 1.0)]));
        s.push_row(SparseRow::from_pairs(vec![(1, 1.0), (2, 2.0)]));
        s.push_row(SparseRow::from_pairs(vec![(5, 4.0)]));
        s
    }

    #[test]
    fn build_statistics() {
        let idx = InvertedIndex::build(&pages());
        assert_eq!(idx.n_docs(), 3);
        assert_eq!(idx.df(1), 2);
        assert_eq!(idx.df(5), 1);
        assert_eq!(idx.df(4), 0);
        assert_eq!(idx.df(99), 0);
        assert_eq!(idx.idf(4), 0.0);
        assert_eq!(idx.idf(99), 0.0);
        assert!(idx.idf(5) > idx.idf(1), "rarer terms weigh more");
    }

    #[test]
    fn postings_sorted_by_doc() {
        let idx = InvertedIndex::build(&pages());
        let p: Vec<(u64, f64)> = idx.postings(1).collect();
        assert_eq!(p, [(0, 1.0), (1, 1.0)]);
        assert_eq!(idx.postings(2).collect::<Vec<_>>(), [(1, 2.0)]);
        assert_eq!(idx.postings(99).len(), 0);
    }

    #[test]
    fn csr_arrays_are_sized_exactly() {
        let idx = InvertedIndex::build(&pages());
        // 6 terms → 7 row pointers; 5 stored (doc, term) entries.
        assert_eq!(idx.offsets.len(), 7);
        assert_eq!(idx.offsets.capacity(), 7);
        assert_eq!(idx.idf.len(), 6);
        assert_eq!(idx.idf.capacity(), 6);
        for arr in [&idx.docs, &idx.counts] {
            assert_eq!(arr.len(), 5);
            assert_eq!(arr.capacity(), 5);
        }
        assert_eq!(idx.doc_norm.capacity(), 3);
    }

    #[test]
    fn doc_norms_reflect_length() {
        let idx = InvertedIndex::build(&pages());
        assert!((idx.doc_norm(0) - 2f64.sqrt()).abs() < 1e-12);
        assert!((idx.doc_norm(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn score_query_matches_manual() {
        let idx = InvertedIndex::build(&pages());
        // The row {1: 1, 2: 2} (length 3) against the query {2}.
        let got = idx.score_query(&[1, 2], &[1, 2], 3.0, &[2]);
        let want = (1.0 + 2f64.ln()) * idx.idf(2) / 3f64.sqrt();
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn score_query_no_match_is_zero() {
        let idx = InvertedIndex::build(&pages());
        assert_eq!(idx.score_query(&[0], &[1], 1.0, &[5]), 0.0);
    }

    #[test]
    fn count_row_store_builds_the_same_index() {
        let sparse = InvertedIndex::build(&pages());
        let counts = InvertedIndex::build(&pages().into_layout::<crate::CountRow>());
        assert_eq!(counts.offsets, sparse.offsets);
        assert_eq!(counts.docs, sparse.docs);
        assert_eq!(counts.counts, sparse.counts);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&counts.idf), bits(&sparse.idf));
        assert_eq!(bits(&counts.doc_norm), bits(&sparse.doc_norm));
    }
}
