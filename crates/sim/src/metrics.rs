//! Latency metric collection: tail percentiles and time-bucketed series.

use at_linalg::stats::Percentiles;

/// Accumulates sub-operation latencies (seconds) and reports percentiles
/// in milliseconds — the unit of every table/figure in the paper.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Record one latency (seconds).
    pub fn record(&mut self, latency_s: f64) {
        debug_assert!(latency_s >= 0.0, "negative latency");
        self.samples.push(latency_s);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile in **milliseconds**.
    ///
    /// # Panics
    /// Panics when empty.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        Percentiles::new(self.samples.clone()).get(p) * 1000.0
    }

    /// The paper's headline metric: the 99.9th-percentile latency (ms).
    pub fn p999_ms(&self) -> f64 {
        self.percentile_ms(99.9)
    }

    /// Raw samples (seconds).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Latencies bucketed by submission time — Figure 5's per-minute tail-
/// latency series within an hour.
#[derive(Clone, Debug)]
pub struct BucketedLatencies {
    bucket_s: f64,
    buckets: Vec<LatencyRecorder>,
}

impl BucketedLatencies {
    /// `n_buckets` buckets of `bucket_s` seconds each.
    pub fn new(bucket_s: f64, n_buckets: usize) -> Self {
        assert!(bucket_s > 0.0 && n_buckets > 0);
        BucketedLatencies {
            bucket_s,
            buckets: vec![LatencyRecorder::new(); n_buckets],
        }
    }

    /// Record a latency for a sub-op submitted at `arrival_s`; samples
    /// past the last bucket are clamped into it.
    pub fn record(&mut self, arrival_s: f64, latency_s: f64) {
        let idx = ((arrival_s / self.bucket_s) as usize).min(self.buckets.len() - 1);
        self.buckets[idx].record(latency_s);
    }

    /// Per-bucket 99.9th-percentile latency (ms); `None` for empty buckets.
    pub fn p999_series_ms(&self) -> Vec<Option<f64>> {
        self.buckets
            .iter()
            .map(|b| {
                if b.is_empty() {
                    None
                } else {
                    Some(b.p999_ms())
                }
            })
            .collect()
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when there are no buckets (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Borrow one bucket.
    pub fn bucket(&self, i: usize) -> &LatencyRecorder {
        &self.buckets[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_in_ms() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(i as f64 / 1000.0); // 1..100 ms
        }
        assert!((r.percentile_ms(50.0) - 50.5).abs() < 0.5);
        assert!(r.p999_ms() > 99.0);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn buckets_split_by_arrival() {
        let mut b = BucketedLatencies::new(60.0, 3);
        b.record(10.0, 0.001);
        b.record(70.0, 0.002);
        b.record(250.0, 0.003); // clamped into last bucket
        let series = b.p999_series_ms();
        assert_eq!(series.len(), 3);
        assert!((series[0].unwrap() - 1.0).abs() < 1e-9);
        assert!((series[1].unwrap() - 2.0).abs() < 1e-9);
        assert!((series[2].unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_bucket_is_none() {
        let b = BucketedLatencies::new(1.0, 2);
        assert_eq!(b.p999_series_ms(), vec![None, None]);
    }
}
