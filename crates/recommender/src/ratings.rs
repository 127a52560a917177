//! Rating-matrix plumbing: turning rating triples into the row stores the
//! synopsis pipeline and CF algorithm consume.

use at_core::{Fnv1a, RouteKey};
use at_linalg::{IndexedRow, IndexedSet, RowStats};
use at_synopsis::{Row, RowStore, SparseRow};
use at_workloads::Rating;

/// Build a user-row store (`n_users × n_items`) from rating triples.
/// Users absent from `ratings` get empty rows.
pub fn rating_matrix(n_users: usize, n_items: usize, ratings: &[Rating]) -> RowStore {
    let mut per_user: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_users];
    for r in ratings {
        assert!((r.user as usize) < n_users, "user {} out of range", r.user);
        assert!((r.item as usize) < n_items, "item {} out of range", r.item);
        per_user[r.user as usize].push((r.item, r.stars));
    }
    let mut store = RowStore::new(n_items);
    for pairs in per_user {
        store.push_row(SparseRow::from_pairs(pairs));
    }
    store
}

/// An active user's request: their known ratings (for weight computation)
/// and the items whose ratings to predict.
///
/// `PartialEq` compares profile and targets exactly — the same two things
/// [`RouteKey`] hashes; the private stats and target set are pure functions
/// of them. The batched serving path uses both to collapse duplicate
/// requests in one batch.
///
/// The profile and the target set are each stored once, in the
/// block-id-indexed form the serving kernels read ([`IndexedRow`],
/// [`IndexedSet`]; encoded at [`new`](ActiveUser::new) — request
/// construction, off the warm path). A kernel walks a neighbour's stored
/// blocks and finds the active side's block by id. [`Row::decode`] gives
/// the interchange form of the profile back for cold paths. The target set
/// stays private: every construction goes through `new`, which keeps it in
/// sync with the public `targets`.
#[derive(Clone, Debug)]
pub struct ActiveUser {
    /// Items to predict, sorted ascending.
    pub targets: Vec<u32>,
    profile: IndexedRow,
    profile_stats: RowStats,
    target_set: IndexedSet,
}

impl PartialEq for ActiveUser {
    fn eq(&self, other: &Self) -> bool {
        self.profile == other.profile && self.targets == other.targets
    }
}

impl ActiveUser {
    /// Build a request from the user's known ratings (item → rating) and
    /// the items to predict; sorts and dedups targets. Every array is sized
    /// exactly: a request pool carries no growth slack.
    ///
    /// # Panics
    /// Panics if `profile.cols` is not strictly ascending or differs in
    /// length from `profile.vals`.
    pub fn new(profile: SparseRow, mut targets: Vec<u32>) -> Self {
        targets.sort_unstable();
        targets.dedup();
        targets.shrink_to_fit();
        let target_set = IndexedSet::from_sorted(&targets);
        ActiveUser {
            targets,
            profile_stats: RowStats::of(&profile.vals),
            profile: IndexedRow::encode(profile),
            target_set,
        }
    }

    /// The active user's profile (item → rating) as stored.
    pub fn profile(&self) -> &IndexedRow {
        &self.profile
    }

    /// Cached block-id-indexed membership/rank set over `targets`.
    pub fn target_set(&self) -> &IndexedSet {
        &self.target_set
    }

    /// The user's mean rating (fallback prediction); 3.0 for empty profiles
    /// (the mid-scale prior).
    pub fn mean_rating(&self) -> f64 {
        if self.profile_stats.nnz == 0 {
            3.0
        } else {
            self.profile_stats.mean()
        }
    }
}

/// Stable placement hash over exactly what `PartialEq` compares (profile
/// pairs and targets), so byte-equal requests — the ones the batched
/// duplicate collapse merges — always share a worker under hash-affinity
/// routing.
impl RouteKey for ActiveUser {
    fn route_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.profile.for_each(|col, val| {
            h.write_u32(col);
            h.write_f64(val);
        });
        for &target in &self.targets {
            h.write_u32(target);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_places_ratings() {
        let ratings = vec![
            Rating {
                user: 0,
                item: 2,
                stars: 4.0,
            },
            Rating {
                user: 2,
                item: 0,
                stars: 1.0,
            },
            Rating {
                user: 0,
                item: 1,
                stars: 5.0,
            },
        ];
        let m = rating_matrix(3, 4, &ratings);
        assert_eq!(m.len(), 3);
        assert_eq!(m.row(0).get(2), Some(4.0));
        assert_eq!(m.row(0).get(1), Some(5.0));
        assert_eq!(m.row(1).nnz(), 0);
        assert_eq!(m.row(2).get(0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_user_panics() {
        rating_matrix(
            1,
            1,
            &[Rating {
                user: 5,
                item: 0,
                stars: 3.0,
            }],
        );
    }

    #[test]
    fn active_user_normalizes_targets() {
        let u = ActiveUser::new(
            SparseRow::from_pairs(vec![(0, 4.0), (1, 2.0)]),
            vec![3, 1, 3],
        );
        assert_eq!(u.targets, vec![1, 3]);
        assert_eq!(u.mean_rating(), 3.0);
    }

    #[test]
    fn active_user_arrays_are_sized_exactly() {
        // Duplicate targets leave dedup slack; the last rated item sits in
        // block 4, so the profile indexes blocks 0..=4, and the last target
        // in block 2.
        let l = at_linalg::LANES as u32;
        let (last, t1, t2) = (4 * l + 5, l + 1, 2 * l + 5);
        let u = ActiveUser::new(
            SparseRow::from_pairs(vec![(3, 4.0), (last, 2.0)]),
            vec![t2, 2, t2, 2, t1],
        );
        assert_eq!(u.targets, vec![2, t1, t2]);
        assert_eq!(u.targets.capacity(), 3);
        assert_eq!(u.profile().num_blocks(), 5);
        assert_eq!(u.target_set().num_blocks(), 3);
        assert_eq!(u.target_set().len(), 3);
        assert_eq!(
            u.profile().decode(),
            SparseRow::from_pairs(vec![(3, 4.0), (last, 2.0)])
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_profile_panics() {
        let profile = SparseRow {
            cols: vec![5, 2],
            vals: vec![1.0, 2.0],
        };
        ActiveUser::new(profile, vec![0]);
    }

    #[test]
    fn empty_profile_mean_is_mid_scale() {
        let u = ActiveUser::new(SparseRow::default(), vec![0]);
        assert_eq!(u.mean_rating(), 3.0);
    }
}
