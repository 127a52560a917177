//! # at-linalg
//!
//! Linear-algebra and statistics substrate for the AccuracyTrader
//! reproduction (Han et al., ICPP 2016).
//!
//! The paper's offline synopsis-creation pipeline needs three numeric
//! building blocks, all provided here:
//!
//! * [`Matrix`] / [`SparseMatrix`] — dense row-major and CSR sparse storage
//!   for input datasets (user-item rating matrices, document term vectors).
//! * [`svd::IncrementalSvd`] — the incremental, gradient-descent SVD of
//!   Gorrell / Funk that the paper cites for step 1 of synopsis creation
//!   (dimensionality reduction whose cost is independent of dataset size).
//! * [`stats`] / [`mod@pearson`] — percentile estimation (the 99.9th-percentile
//!   tail-latency metric), RMSE, and Pearson's correlation coefficient (the
//!   CF weight measure used for accuracy-correlation estimation).
//!
//! Everything is deterministic given a caller-supplied RNG and allocates
//! predictably; hot loops are written over contiguous slices so the compiler
//! can vectorise them.

pub mod blocked;
pub mod matrix;
pub mod pearson;
pub mod sparse;
pub mod stats;
pub mod svd;
pub mod vector;

pub use blocked::{
    for_each_target_slot, pearson_on_common_indexed, BlockedRow, IndexedRow, IndexedSet, LANES,
};
pub use matrix::Matrix;
pub use pearson::{pearson, pearson_on_common, pearson_on_common_alloc, WelfordPair};
pub use sparse::{SparseMatrix, SparseMatrixBuilder};
pub use stats::{mean, percentile, rmse, stddev, variance, Percentiles, RowStats, StreamingStats};
pub use svd::{IncrementalSvd, SvdConfig, SvdModel};
pub use vector::{add_assign, dot, euclidean, norm2, scale, sub};
