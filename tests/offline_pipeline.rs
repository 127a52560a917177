//! Cross-crate offline-module properties: synopsis creation and
//! incremental updating behave as §4.2 reports.

use accuracytrader::prelude::*;
use accuracytrader::recommender::rating_matrix;
use accuracytrader::workloads::ratings::Rating;

fn subset(n: usize) -> RowStore {
    let data = RatingsDataset::generate(RatingsConfig {
        n_users: n,
        n_items: 150,
        ratings_per_user: 40,
        ..RatingsConfig::small()
    });
    rating_matrix(n, 150, &data.ratings)
}

fn config(ratio: usize) -> SynopsisConfig {
    SynopsisConfig {
        svd: SvdConfig::default().with_epochs(20),
        size_ratio: ratio,
        ..SynopsisConfig::default()
    }
}

#[test]
fn updating_is_much_cheaper_than_recreation() {
    // Paper §4.2: "all the updating processes were completed much faster
    // than the synopsis creation processes."
    let mut rows = subset(1500);
    let t0 = std::time::Instant::now();
    let (mut store, _) = SynopsisStore::build(&rows, AggregationMode::Mean, config(40));
    let create = t0.elapsed();

    let updates: Vec<DataUpdate> = (0..15) // 1% of the subset
        .map(|i| DataUpdate::Add(rows.row(i as u64).clone()))
        .collect();
    let report = store.apply_updates(&mut rows, updates);
    assert!(
        report.duration < create / 3,
        "1% update ({:?}) should be far cheaper than creation ({:?})",
        report.duration,
        create
    );
    store.validate().unwrap();
}

#[test]
fn update_cost_scales_with_change_fraction() {
    // Figure 3's x-axis trend: bigger batches take longer.
    let rows = subset(1500);
    let (store, _) = SynopsisStore::build(&rows, AggregationMode::Mean, config(40));
    let run_pct = |pct: usize| {
        let mut d = rows.clone();
        let mut s = store.clone();
        let n = d.len() * pct / 100;
        let updates: Vec<DataUpdate> = (0..n)
            .map(|i| DataUpdate::Add(d.row((i % 1500) as u64).clone()))
            .collect();
        s.apply_updates(&mut d, updates).duration
    };
    let small = run_pct(1);
    let large = run_pct(10);
    assert!(
        large > small,
        "10% batch ({large:?}) should cost more than 1% ({small:?})"
    );
}

#[test]
fn incremental_equals_rebuild_semantically() {
    // After updates, the incrementally maintained synopsis must describe
    // exactly the same dataset partitioning a fresh build would: every
    // aggregated point equals a fresh aggregation of its members, and the
    // members partition the full id space.
    let mut rows = subset(800);
    let (mut store, _) = SynopsisStore::build(&rows, AggregationMode::Mean, config(25));
    let updates: Vec<DataUpdate> = (0..40)
        .map(|i| {
            if i % 2 == 0 {
                DataUpdate::Add(rows.row(i as u64).clone())
            } else {
                let id = (i * 13 % 800) as u64;
                let row = rows.row(id);
                DataUpdate::Change {
                    id,
                    row: SparseRow::from_pairs(
                        row.iter().map(|(c, v)| (c, (v + 1.0).min(5.0))).collect(),
                    ),
                }
            }
        })
        .collect();
    store.apply_updates(&mut rows, updates);
    store.validate().unwrap();

    let mut all: Vec<u64> = store
        .index()
        .iter()
        .flat_map(|(_, m)| m.iter().copied())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..rows.len() as u64).collect::<Vec<_>>());
    for p in store.synopsis().iter() {
        let members = store.index().members(p.node).unwrap();
        let expect = rows.aggregate(members, AggregationMode::Mean);
        assert_eq!(p.info, expect, "stale aggregation for {:?}", p.node);
    }
}

#[test]
fn aggregation_ratio_tracks_config() {
    // §4.2 reports mean group sizes (133.01 users / 42.55 pages): the
    // achieved ratio must sit near the requested size_ratio (within the
    // R-tree's level granularity).
    let rows = subset(2000);
    for ratio in [20usize, 60] {
        let (_, report) = SynopsisStore::build(&rows, AggregationMode::Mean, config(ratio));
        assert!(
            report.mean_group_size > ratio as f64 / 4.0
                && report.mean_group_size < ratio as f64 * 4.0,
            "ratio {ratio}: mean group size {} too far off",
            report.mean_group_size
        );
    }
}

/// The benchmark's data seed, which also seeds its SVD.
const SEED: u64 = 0xACC0_2016;

/// The ratings of one benchmark-shaped `large` CF component (1 000 users ×
/// 400 items, 133 ratings each), split 80/20 into training and held-out
/// ratings as the benchmark splits them.
fn large_cf_ratings() -> (Vec<Rating>, Vec<Rating>) {
    let data = RatingsDataset::generate(RatingsConfig {
        n_users: 1000,
        n_items: 400,
        ratings_per_user: 133,
        noise: 0.3,
        seed: SEED,
        ..RatingsConfig::default()
    });
    data.holdout_split(0.8, SEED ^ 0x51)
}

/// FNV-1a over little-endian bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a over the bits of every row factor, every column factor and the
/// global mean.
fn factor_hash(model: &accuracytrader::linalg::SvdModel) -> u64 {
    let factors = model.row_factors().as_slice().iter();
    let bits = factors
        .chain(model.col_factors().as_slice())
        .copied()
        .chain(std::iter::once(model.global_mean()))
        .map(f64::to_bits);
    fnv1a(bits.flat_map(u64::to_le_bytes))
}

#[test]
fn svd_factors_are_pinned_on_benchmark_shaped_components() {
    // The benchmark's SVD setting on one component of each of its shapes:
    // a `large` CF component (1 000 users × 400 items, 133 ratings each,
    // 80 % kept for training) and a `small` search component (150 pages,
    // 1 200 terms). The pins are the factors of the row-major fit, so a
    // change to the fit's arithmetic or its update order fails here.
    let svd = SvdConfig::default().with_epochs(30).with_seed(SEED);
    let (train, _) = large_cf_ratings();
    let cf = rating_matrix(1000, 400, &train).to_csr();
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: 150,
        vocab: 1200,
        n_topics: 12,
        seed: SEED,
        ..CorpusConfig::default()
    });
    let mut pages = RowStore::new(1200);
    for doc in &corpus.docs {
        pages.push_row(SparseRow::from_pairs(doc.terms.clone()));
    }
    let search = pages.to_csr();
    let pins = [
        ("cf", cf, 106_000, 0x11c7_a08c_e894_cc87),
        ("search", search, 8_330, 0xdf82_a481_8df7_e576),
    ];
    for (name, csr, nnz, pin) in pins {
        assert_eq!(csr.nnz(), nnz, "{name}: generated data moved");
        let model = IncrementalSvd::new(svd).fit(&csr);
        assert_eq!(factor_hash(&model), pin, "{name}: factors moved");
    }
}

#[test]
fn cf_outputs_and_block_counts_are_pinned_on_a_benchmark_shaped_component() {
    // One `large` CF component built as the benchmark builds it, serving
    // 64 of its users' held-out items. Counts before time: the mean number
    // of occupied column blocks a kernel walks per stored row and per
    // synopsis point pins the layout's work, and the hash pins every
    // prediction accumulator's bits under three policies, so a layout
    // change that moves either shows here.
    let (train, holdout) = large_cf_ratings();
    let rows = rating_matrix(1000, 400, &train);
    let requests: Vec<ActiveUser> = (0..64)
        .map(|user| {
            let targets = holdout.iter().filter(|r| r.user == user).map(|r| r.item);
            ActiveUser::new(rows.row(u64::from(user)).clone(), targets.collect())
        })
        .collect();
    let config = SynopsisConfig {
        svd: SvdConfig::default().with_epochs(30).with_seed(SEED),
        size_ratio: 12,
        ..SynopsisConfig::default()
    };
    let (component, _) = Component::build(rows, AggregationMode::Mean, config, CfService);

    let dataset = component.dataset();
    let row_blocks: usize = dataset.ids().map(|id| dataset.row(id).num_blocks()).sum();
    let synopsis = component.store().synopsis();
    let point_blocks: usize = synopsis.iter().map(|p| p.info.num_blocks()).sum();
    assert_eq!(
        (dataset.len(), synopsis.len()),
        (1000, 84),
        "deployment moved"
    );
    assert_eq!(
        (row_blocks, point_blocks),
        (6_889, 84 * 7),
        "blocks per row {:.2}, per synopsis point {:.2}",
        row_blocks as f64 / 1000.0,
        point_blocks as f64 / 84.0,
    );

    let submitted = std::time::Instant::now();
    let policies = [
        ExecutionPolicy::SynopsisOnly,
        ExecutionPolicy::budgeted(17),
        ExecutionPolicy::Exact,
    ];
    let bits = policies.iter().flat_map(|policy| {
        requests.iter().flat_map(|req| {
            let outcome = component.execute(req, policy, submitted);
            let accs = outcome.output.into_iter();
            accs.flat_map(|acc| [acc.num.to_bits(), acc.den.to_bits()])
        })
    });
    assert_eq!(
        fnv1a(bits.flat_map(u64::to_le_bytes)),
        0x96c5_a12f_d1fd_59d2,
        "predictions moved"
    );
}
