//! Synthetic MovieLens-like rating data.
//!
//! Substitution note (README § "What is simulated, what runs for real"):
//! the paper evaluates the recommender on the MovieLens 10M dataset, which
//! we cannot ship. This generator produces a rating matrix with the
//! properties CF and the synopsis pipeline exploit: low-rank latent
//! structure (users/items have latent vectors), **taste clusters** (users
//! sampled from a small set of taste prototypes, so Pearson-similar users
//! exist for every active user), Zipf-skewed item popularity, and 1–5 star
//! ratings with noise.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::{normal, Zipf};

/// Parameters of the synthetic rating matrix.
#[derive(Clone, Copy, Debug)]
pub struct RatingsConfig {
    /// Number of users (data points per paper subset: ~4000).
    pub n_users: usize,
    /// Number of items (paper subset: ~1000).
    pub n_items: usize,
    /// Latent dimensionality of the taste space.
    pub latent_dim: usize,
    /// Number of taste prototypes users cluster around.
    pub n_tastes: usize,
    /// Expected ratings per user (paper subset: ~0.27M/4000 ≈ 67).
    pub ratings_per_user: usize,
    /// Rating noise std-dev (stars).
    pub noise: f64,
    /// Zipf exponent of item popularity.
    pub popularity_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RatingsConfig {
    fn default() -> Self {
        RatingsConfig {
            n_users: 4000,
            n_items: 1000,
            latent_dim: 4,
            n_tastes: 12,
            ratings_per_user: 67,
            noise: 0.4,
            popularity_skew: 0.8,
            seed: 0xACC0,
        }
    }
}

impl RatingsConfig {
    /// A laptop-scale config (hundreds of users) for tests and examples.
    pub fn small() -> Self {
        RatingsConfig {
            n_users: 400,
            n_items: 120,
            ratings_per_user: 40,
            ..RatingsConfig::default()
        }
    }
}

/// One generated rating triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rating {
    /// User id in `0..n_users`.
    pub user: u32,
    /// Item id in `0..n_items`.
    pub item: u32,
    /// Stars in `[1, 5]`.
    pub stars: f64,
}

/// The generated dataset: ratings plus the ground-truth latent model (used
/// by tests to verify that similar users really rate similarly).
#[derive(Clone, Debug)]
pub struct RatingsDataset {
    /// Generation parameters.
    pub config: RatingsConfig,
    /// All ratings, grouped by user, items sorted within a user.
    pub ratings: Vec<Rating>,
    /// Each user's taste prototype index (ground truth for tests).
    pub user_taste: Vec<u32>,
}

impl RatingsDataset {
    /// Generate deterministically from `config`.
    pub fn generate(config: RatingsConfig) -> Self {
        assert!(config.n_users > 0 && config.n_items > 0, "empty dataset");
        assert!(
            config.ratings_per_user <= config.n_items,
            "cannot rate more items than exist"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);

        // Taste prototypes and item latent vectors.
        let tastes: Vec<Vec<f64>> = (0..config.n_tastes)
            .map(|_| {
                (0..config.latent_dim)
                    .map(|_| normal(&mut rng, 0.0, 1.0))
                    .collect()
            })
            .collect();
        let items: Vec<Vec<f64>> = (0..config.n_items)
            .map(|_| {
                (0..config.latent_dim)
                    .map(|_| normal(&mut rng, 0.0, 1.0))
                    .collect()
            })
            .collect();
        let popularity = Zipf::new(config.n_items, config.popularity_skew);

        let mut ratings = Vec::with_capacity(config.n_users * config.ratings_per_user);
        let mut user_taste = Vec::with_capacity(config.n_users);
        let scale = 1.5 / (config.latent_dim as f64).sqrt();
        for user in 0..config.n_users as u32 {
            let taste_idx = rng.random_range(0..config.n_tastes);
            user_taste.push(taste_idx as u32);
            // The user's latent vector: prototype + small personal jitter.
            let uvec: Vec<f64> = tastes[taste_idx]
                .iter()
                .map(|&t| t + normal(&mut rng, 0.0, 0.15))
                .collect();

            // Choose distinct items, popularity-skewed.
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < config.ratings_per_user {
                chosen.insert(popularity.sample(&mut rng) as u32);
            }
            for item in chosen {
                let affinity: f64 = uvec
                    .iter()
                    .zip(&items[item as usize])
                    .map(|(a, b)| a * b)
                    .sum();
                let raw = 3.0 + affinity * scale + normal(&mut rng, 0.0, config.noise);
                let stars = (raw.round()).clamp(1.0, 5.0);
                ratings.push(Rating { user, item, stars });
            }
        }
        RatingsDataset {
            config,
            ratings,
            user_taste,
        }
    }

    /// Total number of ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// True when no ratings were generated (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Split each user's ratings into (train, holdout) with `train_frac`
    /// going to train — the paper's "80% of each user's randomly selected
    /// ratings are used in weight calculation". Deterministic per `seed`.
    pub fn holdout_split(&self, train_frac: f64, seed: u64) -> (Vec<Rating>, Vec<Rating>) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac out of range");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut hold = Vec::new();
        // Ratings are grouped by user already; walk runs of equal user.
        let mut i = 0usize;
        while i < self.ratings.len() {
            let user = self.ratings[i].user;
            let mut j = i;
            while j < self.ratings.len() && self.ratings[j].user == user {
                j += 1;
            }
            let mut idx: Vec<usize> = (i..j).collect();
            // Fisher-Yates shuffle.
            for k in (1..idx.len()).rev() {
                let swap = rng.random_range(0..=k);
                idx.swap(k, swap);
            }
            let cut = ((j - i) as f64 * train_frac).round() as usize;
            for (pos, &r) in idx.iter().enumerate() {
                if pos < cut {
                    train.push(self.ratings[r]);
                } else {
                    hold.push(self.ratings[r]);
                }
            }
            i = j;
        }
        (train, hold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RatingsDataset {
        RatingsDataset::generate(RatingsConfig::small())
    }

    #[test]
    fn generates_requested_shape() {
        let d = small();
        assert_eq!(d.user_taste.len(), 400);
        assert_eq!(d.len(), 400 * 40);
        for r in &d.ratings {
            assert!(r.user < 400);
            assert!(r.item < 120);
            assert!((1.0..=5.0).contains(&r.stars));
            assert_eq!(r.stars.fract(), 0.0, "stars are integral");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.ratings, b.ratings);
        let c = RatingsDataset::generate(RatingsConfig {
            seed: 999,
            ..RatingsConfig::small()
        });
        assert_ne!(a.ratings, c.ratings);
    }

    #[test]
    fn items_distinct_per_user() {
        let d = small();
        let mut i = 0;
        while i < d.ratings.len() {
            let user = d.ratings[i].user;
            let mut seen = std::collections::HashSet::new();
            while i < d.ratings.len() && d.ratings[i].user == user {
                assert!(
                    seen.insert(d.ratings[i].item),
                    "duplicate item for user {user}"
                );
                i += 1;
            }
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let d = small();
        let mut counts = vec![0usize; 120];
        for r in &d.ratings {
            counts[r.item as usize] += 1;
        }
        let head: usize = counts[..12].iter().sum();
        let tail: usize = counts[108..].iter().sum();
        assert!(
            head > tail * 2,
            "head {head} not much bigger than tail {tail}"
        );
    }

    #[test]
    fn same_taste_users_rate_more_similarly() {
        let d = small();
        // Average |star diff| on co-rated items: same-taste pairs should
        // disagree less than cross-taste pairs.
        use std::collections::HashMap;
        let mut by_user: HashMap<u32, HashMap<u32, f64>> = HashMap::new();
        for r in &d.ratings {
            by_user.entry(r.user).or_default().insert(r.item, r.stars);
        }
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for u in 0..100u32 {
            for v in (u + 1)..100u32 {
                let (a, b) = (&by_user[&u], &by_user[&v]);
                for (item, s) in a {
                    if let Some(t) = b.get(item) {
                        let delta = (s - t).abs();
                        if d.user_taste[u as usize] == d.user_taste[v as usize] {
                            same.0 += delta;
                            same.1 += 1;
                        } else {
                            diff.0 += delta;
                            diff.1 += 1;
                        }
                    }
                }
            }
        }
        let same_mean = same.0 / same.1 as f64;
        let diff_mean = diff.0 / diff.1 as f64;
        assert!(
            same_mean < diff_mean,
            "same-taste disagreement {same_mean} >= cross-taste {diff_mean}"
        );
    }

    #[test]
    fn holdout_split_partitions() {
        let d = small();
        let (train, hold) = d.holdout_split(0.8, 1);
        assert_eq!(train.len() + hold.len(), d.len());
        // Roughly 80/20.
        let frac = train.len() as f64 / d.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "train fraction {frac}");
        // Deterministic.
        let (train2, _) = d.holdout_split(0.8, 1);
        assert_eq!(train, train2);
    }

    #[test]
    #[should_panic(expected = "more items")]
    fn too_many_ratings_per_user_panics() {
        RatingsDataset::generate(RatingsConfig {
            n_items: 10,
            ratings_per_user: 11,
            ..RatingsConfig::small()
        });
    }
}
