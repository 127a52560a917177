//! # at-synopsis
//!
//! Offline synopsis management for the AccuracyTrader reproduction (Han et
//! al., ICPP 2016, §2.2/§3.1): synopsis **creation** (SVD reduction → R-tree
//! organization → information aggregation), the **index file** mapping
//! aggregated data points to original points, and incremental synopsis
//! **updating** driven by input-data additions and changes.
//!
//! Stores are generic over the layout they keep rows in ([`Row`]): each row
//! is stored once, in the layout the serving adapter reads, and
//! [`SparseRow`] is the interchange form everything is built, updated and
//! decoded in. The default parameter is `SparseRow`, so plain `RowStore` /
//! `SynopsisStore` are the CSR stores.
//!
//! ```
//! use at_synopsis::{AggregationMode, RowStore, SparseRow, SynopsisConfig, SynopsisStore};
//! use at_linalg::svd::SvdConfig;
//!
//! // A component's subset: 120 data points over 10 feature columns.
//! let mut data = RowStore::new(10);
//! for r in 0..120u32 {
//!     let base = if r % 2 == 0 { 1.0 } else { 4.0 };
//!     data.push_row(SparseRow::from_pairs(
//!         (0..10).map(|c| (c, base + ((r + c) % 3) as f64 * 0.1)).collect(),
//!     ));
//! }
//!
//! let cfg = SynopsisConfig {
//!     svd: SvdConfig::default().with_epochs(10),
//!     size_ratio: 12,
//!     ..SynopsisConfig::default()
//! };
//! let (mut store, report) = SynopsisStore::build(&data, AggregationMode::Mean, cfg);
//! assert!(report.n_aggregated <= 120 / 12 + 1);
//!
//! // Input data changed? Update incrementally.
//! use at_synopsis::DataUpdate;
//! let row = data.row(3).clone();
//! store.apply_updates(&mut data, vec![DataUpdate::Change { id: 3, row }]);
//! assert!(store.validate().is_ok());
//! ```

pub mod build;
pub mod dataset;
pub mod index_file;
pub mod reduce;
pub mod synopsis;
pub mod update;

pub use build::{BuildReport, SynopsisConfig, SynopsisStore};
pub use dataset::{AggregationMode, Row, RowStore, SparseRow};
pub use index_file::IndexFile;
pub use reduce::Reducer;
pub use synopsis::{AggregatedPoint, Synopsis};
pub use update::{DataUpdate, UpdateReport};
