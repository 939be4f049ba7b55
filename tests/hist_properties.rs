//! Property-based tests of the `qosr_obs` histogram layer: merged
//! shards must be indistinguishable from one histogram fed the same
//! samples, and every recorded value must land inside its bucket's
//! half-open range.

use proptest::prelude::*;
use qosr::obs::hist::{bucket_bounds, bucket_index, psi_bucket_bounds, psi_bucket_index};
use qosr::obs::{Histogram, PsiHistogram, PSI_BUCKETS};

/// Sample values spanning the full log-bucketed range, biased toward
/// the realistic nanosecond band.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,                     // linear sub-32 region + first octaves
        100u64..1_000_000,            // µs-scale latencies
        1_000_000u64..10_000_000_000, // ms-to-seconds
        Just(u64::MAX),               // saturation
        any::<u64>(),                 // anything at all
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(256))]

    /// Sharded recording then merging reports the identical snapshot —
    /// count, sum, min, max, and every percentile — as one histogram
    /// that saw all the samples directly. This is what makes per-worker
    /// histogram shards safe to aggregate in the registry.
    #[test]
    fn merged_shards_match_a_single_histogram(
        samples in prop::collection::vec(value_strategy(), 1..200),
        shards in 2usize..6,
    ) {
        let single = Histogram::new();
        let parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            single.record(v);
            parts[i % shards].record(v);
        }
        let merged = Histogram::new();
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(merged.snapshot(), single.snapshot());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.percentile(q), single.percentile(q), "q={}", q);
        }
        prop_assert_eq!(merged.count(), samples.len() as u64);
    }

    /// Every value's bucket contains it: `lo <= v < hi` under the
    /// half-open bucket bounds (the top bucket saturates at `u64::MAX`,
    /// which stays representable because bounds are computed in u128).
    #[test]
    fn recorded_values_land_inside_their_bucket(v in value_strategy()) {
        let idx = bucket_index(v);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v, "lo {} > v {}", lo, v);
        if hi == u64::MAX {
            prop_assert!(v <= hi);
        } else {
            prop_assert!(v < hi, "v {} >= hi {} (bucket {})", v, hi, idx);
        }
        // Bucket edges partition: the previous bucket ends where this
        // one starts.
        if idx > 0 {
            let (_, prev_hi) = bucket_bounds(idx - 1);
            prop_assert_eq!(prev_hi, lo);
        }
    }

    /// Percentiles always return a value between the recorded extremes,
    /// and the 0/1 quantiles hit them exactly.
    #[test]
    fn percentiles_stay_within_recorded_extremes(
        samples in prop::collection::vec(value_strategy(), 1..100),
    ) {
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = hist.percentile(q).unwrap();
            prop_assert!(p >= lo && p <= hi, "q={} gave {} outside [{}, {}]", q, p, lo, hi);
        }
        prop_assert_eq!(hist.percentile(1.0), Some(hi));
        prop_assert_eq!(hist.min(), Some(lo));
        prop_assert_eq!(hist.max(), Some(hi));
    }

    /// The Ψ decile bucketing is a partition: every Ψ falls in exactly
    /// the bucket whose `[lower, upper)` range contains it, with the
    /// same boundary convention used by both the live counters and the
    /// replay renderer (satellite of the bucket-boundary fix).
    #[test]
    fn psi_values_land_inside_their_decile(psi in 0.0f64..1.5) {
        let idx = psi_bucket_index(psi);
        let (lo, hi) = psi_bucket_bounds(idx);
        prop_assert!(psi >= lo, "psi {} below lower bound {}", psi, lo);
        match hi {
            Some(hi) => prop_assert!(psi < hi, "psi {} not under upper bound {}", psi, hi),
            None => prop_assert!(psi >= *PSI_BUCKETS.last().unwrap()),
        }
        // Exact decile edges belong to the bucket they open, never the
        // one they close (the off-by-one the refactor guards against).
        for (i, &edge) in PSI_BUCKETS.iter().enumerate() {
            prop_assert_eq!(psi_bucket_index(edge), i + 1, "edge {}", edge);
        }
    }

    /// The milli-Ψ histogram layered under the decile counts sees every
    /// record exactly once and its total matches the decile totals.
    #[test]
    fn psi_histogram_layers_agree_on_totals(
        psis in prop::collection::vec(0.0f64..2.0, 1..100),
    ) {
        let hist = PsiHistogram::default();
        for &psi in &psis {
            hist.record(psi);
        }
        prop_assert_eq!(hist.total(), psis.len() as u64);
        prop_assert_eq!(hist.milli().count(), psis.len() as u64);
        prop_assert_eq!(hist.counts().iter().sum::<u64>(), psis.len() as u64);
    }
}
