//! Seeded request streams and arrival schedules. The program under test
//! only ever sees what these generate.

use at_workloads::Zipf;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// `len` zipf(`alpha`) draws over `0..n`; rank 0 is the hottest request.
pub fn zipf_stream(n: usize, alpha: f64, len: usize, seed: u64) -> Vec<u32> {
    let zipf = Zipf::new(n, alpha);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Open-loop arrival offsets (seconds, ascending) of a Poisson process at
/// `rate` per second over `[0, seconds)`, **conditioned on its count** in
/// each of `strata` equal parts: exactly `round(rate * seconds / strata)`
/// arrivals per part, placed as sorted uniform draws. Given its count, a
/// Poisson process's arrival times are exactly that, so inter-arrival gaps
/// keep their exponential burstiness while the offered load is the same
/// for every seed and every slice of the window, which keeps
/// `throughput_rps` comparable across runs.
pub fn poisson_schedule(rate: f64, seconds: f64, strata: usize, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0 && seconds > 0.0 && strata > 0, "empty schedule");
    let part = seconds / strata as f64;
    let per_part = (rate * part).round() as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut at = Vec::with_capacity(per_part * strata);
    for k in 0..strata {
        let from = at.len();
        at.extend((0..per_part).map(|_| (k as f64 + rng.random::<f64>()) * part));
        at[from..].sort_by(|a, b| a.partial_cmp(b).expect("offsets are finite"));
    }
    at
}

/// Share of draws that repeat an earlier draw of the same slice.
pub fn dup_share(stream: &[u32]) -> f64 {
    if stream.is_empty() {
        return 0.0;
    }
    1.0 - distinct(stream) as f64 / stream.len() as f64
}

pub fn distinct(stream: &[u32]) -> usize {
    let mut seen: Vec<u32> = stream.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = zipf_stream(2000, 1.1, 4096, 7);
        assert_eq!(a, zipf_stream(2000, 1.1, 4096, 7));
        assert_ne!(a, zipf_stream(2000, 1.1, 4096, 8));
        assert!(a.iter().all(|&i| i < 2000));
        // zipf(1.1): the hottest of 2000 requests takes about a sixth.
        let hottest = a.iter().filter(|&&i| i == 0).count() as f64 / a.len() as f64;
        assert!((0.12..0.22).contains(&hottest), "rank-0 share {hottest}");
        assert!(dup_share(&a) > 0.5);
    }

    #[test]
    fn schedule_repeats_has_exact_count_and_is_sorted() {
        let s = poisson_schedule(150.0, 10.0, 5, 3);
        assert_eq!(s, poisson_schedule(150.0, 10.0, 5, 3));
        assert_ne!(s, poisson_schedule(150.0, 10.0, 5, 4));
        assert_eq!(s.len(), 1500);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| (0.0..10.0).contains(&t)));
        for part in 0..5 {
            let range = (2.0 * part as f64)..(2.0 * (part + 1) as f64);
            assert_eq!(s.iter().filter(|t| range.contains(t)).count(), 300);
        }
        // Exponential gaps: coefficient of variation near 1, unlike a
        // metronome's 0.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.85..1.15).contains(&cv), "gap cv {cv}");
    }

    #[test]
    fn dup_share_counts_repeats() {
        assert_eq!(dup_share(&[1, 1, 1, 2]), 0.5);
        assert_eq!(distinct(&[3, 3, 4]), 2);
        assert_eq!(dup_share(&[]), 0.0);
    }
}
