//! Top-N recommendation on top of rating prediction.
//!
//! The paper's motivating e-commerce scenario recommends *products*, not
//! raw scores: predict the active user's rating for every unrated item and
//! return the N best. Built entirely from the prediction primitives, so it
//! works identically through the exact and AccuracyTrader paths.

use at_synopsis::{Row, RowStore};

use crate::predict::{accumulate_neighbor, user_weight, PredictionAcc};
use crate::ratings::ActiveUser;

/// One recommended item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Item id.
    pub item: u32,
    /// Predicted rating.
    pub predicted: f64,
    /// Neighbourhood evidence mass (Σ|w|); low support means the
    /// prediction leans on the user-mean fallback.
    pub support: f64,
}

/// Recommend the `n` best unrated items for `active`, scoring against all
/// rows of `neighbors`. Ties break toward lower item ids.
pub fn recommend_top_n(active: &ActiveUser, neighbors: &RowStore, n: usize) -> Vec<Recommendation> {
    // Candidates: every item the active user has NOT rated.
    let profile = active.profile().decode();
    let rated: std::collections::HashSet<u32> = profile.cols.iter().copied().collect();
    let candidates: Vec<u32> = (0..neighbors.feature_dim() as u32)
        .filter(|i| !rated.contains(i))
        .collect();
    if candidates.is_empty() || n == 0 {
        return Vec::new();
    }
    let probe = ActiveUser::new(profile.clone(), candidates.clone());
    let mut acc = vec![PredictionAcc::default(); probe.targets.len()];
    for id in neighbors.ids() {
        let row = neighbors.row(id);
        let (w, _) = user_weight(&profile, row);
        accumulate_neighbor(
            &probe,
            row,
            w,
            neighbors.row_stats(id).mean(),
            1.0,
            &mut acc,
        );
    }
    let mean = probe.mean_rating();
    let mut recs: Vec<Recommendation> = probe
        .targets
        .iter()
        .zip(&acc)
        .map(|(&item, a)| Recommendation {
            item,
            predicted: a.predict(mean),
            support: a.den,
        })
        .collect();
    recs.sort_by(|a, b| {
        b.predicted
            .partial_cmp(&a.predicted)
            .expect("finite prediction")
            .then_with(|| b.support.partial_cmp(&a.support).expect("finite support"))
            .then_with(|| a.item.cmp(&b.item))
    });
    recs.truncate(n);
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_synopsis::SparseRow;

    /// Two items: item 0 loved by the active user's lookalikes, item 1
    /// hated by them.
    fn neighbors() -> RowStore {
        let mut s = RowStore::new(6);
        for i in 0..10u32 {
            // Lookalikes of the active user (rate items 2,3,4 the same way)
            // love item 0 and hate item 1.
            s.push_row(SparseRow::from_pairs(vec![
                (0, 5.0),
                (1, 1.0),
                (2, 4.0 + (i % 2) as f64 * 0.5),
                (3, 2.0),
                (4, 3.0),
            ]));
        }
        s
    }

    fn active() -> ActiveUser {
        ActiveUser::new(
            SparseRow::from_pairs(vec![(2, 4.0), (3, 2.0), (4, 3.0)]),
            vec![],
        )
    }

    #[test]
    fn loved_item_ranks_first() {
        let recs = recommend_top_n(&active(), &neighbors(), 3);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].item, 0, "lookalikes' favourite must rank first");
        assert!(recs[0].predicted > recs.last().unwrap().predicted);
        // Item 1 (hated) must rank last among scored items.
        let hated = recs.iter().position(|r| r.item == 1);
        assert!(hated.is_none() || hated == Some(2));
    }

    #[test]
    fn rated_items_are_excluded() {
        let recs = recommend_top_n(&active(), &neighbors(), 10);
        for r in &recs {
            assert!(
                ![2u32, 3, 4].contains(&r.item),
                "item {} was already rated",
                r.item
            );
        }
    }

    #[test]
    fn n_limits_output() {
        assert_eq!(recommend_top_n(&active(), &neighbors(), 1).len(), 1);
        assert!(recommend_top_n(&active(), &neighbors(), 0).is_empty());
    }

    #[test]
    fn unsupported_items_fall_back_to_user_mean() {
        // Item 5 is rated by nobody: prediction = user mean, support 0.
        let recs = recommend_top_n(&active(), &neighbors(), 10);
        let item5 = recs.iter().find(|r| r.item == 5).expect("present");
        assert_eq!(item5.support, 0.0);
        assert!((item5.predicted - active().mean_rating()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_ordering() {
        let a = recommend_top_n(&active(), &neighbors(), 5);
        let b = recommend_top_n(&active(), &neighbors(), 5);
        assert_eq!(a, b);
    }
}
