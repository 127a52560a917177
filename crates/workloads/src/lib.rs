//! # at-workloads
//!
//! Synthetic workload generators for the AccuracyTrader reproduction (Han
//! et al., ICPP 2016). Each generator substitutes a dataset or trace the
//! paper used but that cannot be shipped (substitution rationale in
//! README § "What is simulated, what runs for real"):
//!
//! * [`ratings`] — MovieLens-like rating matrices (latent taste clusters,
//!   Zipf item popularity).
//! * [`corpus`] — Sogou-like web-page corpus (topic clusters, Zipf terms).
//! * [`queries`] — Sogou-like search queries over the corpus topics.
//! * [`diurnal`] — the 24-hour arrival-rate curve of the paper's Figure 7(a),
//!   with the characteristic increasing/steady/decreasing hours 9/10/24.
//! * [`arrivals`] — homogeneous and non-homogeneous Poisson processes.
//! * [`mapreduce`] — SWIM-like co-located MapReduce interference traces.
//! * [`zipf`] — the shared distribution toolbox.
//!
//! Everything is deterministic given a seed.

pub mod arrivals;
pub mod bursts;
pub mod corpus;
pub mod diurnal;
pub mod mapreduce;
pub mod queries;
pub mod ratings;
pub mod zipf;

pub use arrivals::{arrival_delays, poisson_arrivals, variable_rate_arrivals};
pub use bursts::{flash_crowd_arrivals, BurstConfig, BurstTrace};
pub use corpus::{Corpus, CorpusConfig, Document};
pub use diurnal::DiurnalPattern;
pub use mapreduce::{InterferenceTrace, Job, JobKind, MapReduceConfig};
pub use queries::{Query, QueryGenerator};
pub use ratings::{Rating, RatingsConfig, RatingsDataset};
pub use zipf::{exponential, normal, Zipf};
