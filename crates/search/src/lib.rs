//! # at-search
//!
//! The inverted-index web search engine of the AccuracyTrader reproduction
//! (Han et al., ICPP 2016, §3.2 — the Lucene stand-in), with its
//! AccuracyTrader adapter:
//!
//! * [`mod@tokenize`] — tokenizer + interning vocabulary for text input.
//! * [`index`] — the inverted index (postings, idf, norms).
//! * [`engine`] — exact top-k query evaluation.
//! * [`topk`] — bounded best-k collection with merge (fan-out composition).
//! * [`accuracy`] — top-k overlap and accuracy-loss percentage.
//! * [`adapter`] — [`SearchService`]: the [`at_core::ApproximateService`]
//!   implementation plus the Figure-4(b) section-coverage analysis.

pub mod accuracy;
pub mod adapter;
pub mod engine;
pub mod index;
pub mod tokenize;
pub mod topk;

pub use accuracy::{accuracy_loss_pct, topk_overlap};
pub use adapter::{section_top_k_coverage, SearchRequest, SearchService, COMPONENT_STRIDE};
pub use engine::search_exact;
pub use index::InvertedIndex;
pub use tokenize::{tokenize, Vocabulary};
pub use topk::{Hit, TopK};
