//! Synthetic web-page corpus (Sogou-collection substitute).
//!
//! Substitution note (README § "What is simulated, what runs for real"):
//! the Sogou crawl is unavailable, so we generate a topic-model corpus with
//! the properties the search-engine experiments need: Zipf-skewed global
//! term frequencies, **topical clustering** of pages (what the R-tree
//! groups and what makes merged aggregated pages meaningful), and realistic
//! document-length variation.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::Zipf;

/// Parameters of the synthetic corpus.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Number of web pages per subset (paper: 0.5M; default laptop-scale).
    pub n_docs: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of topics pages cluster into.
    pub n_topics: usize,
    /// Terms drawn per document (before deduplication into counts).
    pub doc_len_mean: usize,
    /// Fraction of each document drawn from its topic (vs. background).
    pub topic_mix: f64,
    /// Zipf exponent of within-topic and background term skews.
    pub term_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_docs: 5000,
            vocab: 4000,
            n_topics: 25,
            doc_len_mean: 120,
            topic_mix: 0.75,
            term_skew: 1.0,
            seed: 0x50605,
        }
    }
}

impl CorpusConfig {
    /// A small config for tests.
    pub fn small() -> Self {
        CorpusConfig {
            n_docs: 400,
            vocab: 600,
            n_topics: 8,
            doc_len_mean: 60,
            ..CorpusConfig::default()
        }
    }
}

/// One web page: its topic (ground truth) and sparse term counts.
#[derive(Clone, Debug)]
pub struct Document {
    /// Ground-truth topic (for tests; real pages don't carry labels).
    pub topic: u32,
    /// `(term, count)` pairs, term-sorted.
    pub terms: Vec<(u32, f64)>,
}

/// A generated corpus.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Generation parameters.
    pub config: CorpusConfig,
    /// All documents; ids are positions.
    pub docs: Vec<Document>,
    /// Per-topic term windows: topic t owns a contiguous slice of the
    /// vocabulary plus the shared background head.
    topic_base: Vec<u32>,
}

impl Corpus {
    /// Generate deterministically from `config`.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(config.n_docs > 0 && config.vocab > 0 && config.n_topics > 0);
        assert!(
            config.vocab >= config.n_topics * 20,
            "vocabulary too small for topic structure"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);

        // Vocabulary layout: first 10% is shared background (stop-word-ish),
        // the rest is split evenly into per-topic windows.
        let background = (config.vocab / 10).max(1);
        let per_topic = (config.vocab - background) / config.n_topics;
        let topic_base: Vec<u32> = (0..config.n_topics)
            .map(|t| (background + t * per_topic) as u32)
            .collect();

        let bg_dist = Zipf::new(background, config.term_skew);
        let topic_dist = Zipf::new(per_topic, config.term_skew);

        let mut docs = Vec::with_capacity(config.n_docs);
        for _ in 0..config.n_docs {
            let topic = rng.random_range(0..config.n_topics) as u32;
            let len = (config.doc_len_mean / 2) + rng.random_range(0..config.doc_len_mean.max(1));
            let mut counts: std::collections::BTreeMap<u32, f64> =
                std::collections::BTreeMap::new();
            for _ in 0..len {
                let term = if rng.random::<f64>() < config.topic_mix {
                    topic_base[topic as usize] + topic_dist.sample(&mut rng) as u32
                } else {
                    bg_dist.sample(&mut rng) as u32
                };
                *counts.entry(term).or_insert(0.0) += 1.0;
            }
            docs.push(Document {
                topic,
                terms: counts.into_iter().collect(),
            });
        }
        Corpus {
            config,
            docs,
            topic_base,
        }
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the corpus has no pages (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The most characteristic terms of `topic` (its window head) — used by
    /// the query generator so queries actually match topical pages.
    pub fn topic_head_terms(&self, topic: u32, k: usize) -> Vec<u32> {
        let base = self.topic_base[topic as usize];
        (0..k as u32).map(|i| base + i).collect()
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.config.n_topics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small())
    }

    #[test]
    fn shape_and_determinism() {
        let a = corpus();
        assert_eq!(a.len(), 400);
        let b = corpus();
        assert_eq!(a.docs.len(), b.docs.len());
        assert_eq!(a.docs[7].terms, b.docs[7].terms);
    }

    #[test]
    fn terms_are_sorted_and_in_vocab() {
        let c = corpus();
        for d in &c.docs {
            assert!(!d.terms.is_empty());
            for w in d.terms.windows(2) {
                assert!(w[0].0 < w[1].0, "terms unsorted");
            }
            for &(t, count) in &d.terms {
                assert!((t as usize) < c.config.vocab);
                assert!(count >= 1.0);
            }
        }
    }

    #[test]
    fn same_topic_docs_share_more_terms() {
        let c = corpus();
        let mut same = (0usize, 0usize);
        let mut diff = (0usize, 0usize);
        let overlap = |a: &Document, b: &Document| {
            let sa: std::collections::HashSet<u32> = a.terms.iter().map(|t| t.0).collect();
            b.terms.iter().filter(|t| sa.contains(&t.0)).count()
        };
        for i in 0..80 {
            for j in (i + 1)..80 {
                let (a, b) = (&c.docs[i], &c.docs[j]);
                let o = overlap(a, b);
                if a.topic == b.topic {
                    same.0 += o;
                    same.1 += 1;
                } else {
                    diff.0 += o;
                    diff.1 += 1;
                }
            }
        }
        let same_mean = same.0 as f64 / same.1 as f64;
        let diff_mean = diff.0 as f64 / diff.1 as f64;
        assert!(
            same_mean > diff_mean * 1.5,
            "topic clustering weak: same {same_mean} vs diff {diff_mean}"
        );
    }

    #[test]
    fn topic_head_terms_appear_in_topic_docs() {
        let c = corpus();
        let heads = c.topic_head_terms(3, 5);
        assert_eq!(heads.len(), 5);
        // Head terms of topic 3 should appear in a good share of its docs.
        let topic_docs: Vec<&Document> = c.docs.iter().filter(|d| d.topic == 3).collect();
        assert!(!topic_docs.is_empty());
        let hits = topic_docs
            .iter()
            .filter(|d| d.terms.iter().any(|&(t, _)| t == heads[0]))
            .count();
        assert!(
            hits * 2 > topic_docs.len(),
            "head term in only {hits}/{} docs",
            topic_docs.len()
        );
    }

    #[test]
    #[should_panic(expected = "vocabulary too small")]
    fn tiny_vocab_panics() {
        Corpus::generate(CorpusConfig {
            vocab: 10,
            ..CorpusConfig::small()
        });
    }
}
