//! Property tests for the telemetry plane's [`LogHistogram`]: merge must
//! be exactly associative and commutative (worker shards merge in
//! whatever order threads finish), percentile queries must stay within
//! one sub-bucket's relative error of the exact nearest-rank percentile,
//! and the JSON codec must round-trip record-for-record.

use hqw_core::spec::codec::Field;
use hqw_core::spec::json::Json;
use hqw_core::telemetry::LogHistogram;
use hqw_math::Rng64;
use proptest::prelude::*;

/// A random histogram: a few hundred observations spanning many octaves,
/// with occasional zeros (the dedicated zero bucket) and an occasional
/// non-finite value (ignored by contract).
fn arbitrary_histogram(rng: &mut Rng64) -> (LogHistogram, Vec<f64>) {
    let n = rng.next_index(300);
    let mut hist = LogHistogram::new();
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let v = match rng.next_index(10) {
            0 => 0.0,
            1 => rng.next_range(1e-9, 1e-6),
            2 => rng.next_range(1e6, 1e12),
            _ => rng.next_range(1e-3, 1e3),
        };
        hist.record(v);
        values.push(v);
    }
    if rng.next_bool() {
        hist.record(f64::NAN);
        hist.record(f64::INFINITY);
    }
    (hist, values)
}

/// The exact nearest-rank percentile of a value set (the definition the
/// histogram approximates): the value at rank `ceil(p/100 · n)`.
fn exact_percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is exactly associative and commutative: shards can be folded
    /// in any order and the result (buckets, counts, min/max — full
    /// structural equality) is identical.
    #[test]
    fn merge_is_associative_and_commutative(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let (a, _) = arbitrary_histogram(&mut rng);
        let (b, _) = arbitrary_histogram(&mut rng);
        let (c, _) = arbitrary_histogram(&mut rng);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Merging an empty histogram is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&LogHistogram::new());
        prop_assert_eq!(&with_empty, &a);
    }

    /// Every percentile query lands within one sub-bucket's relative
    /// error of the exact nearest-rank percentile of the recorded values
    /// (the bound [`LogHistogram::RELATIVE_ERROR`] documents), and
    /// queried percentiles are monotonically non-decreasing in `p`.
    #[test]
    fn percentiles_are_within_one_bucket_of_exact(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.next_index(400);
        let mut hist = LogHistogram::new();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            // Non-negative spread over ~9 octaves plus exact zeros.
            let v = if rng.next_index(8) == 0 {
                0.0
            } else {
                rng.next_range(0.5, 300.0)
            };
            hist.record(v);
            values.push(v);
        }

        let queries = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let mut previous = f64::NEG_INFINITY;
        for &p in &queries {
            let approx = hist.percentile(p);
            let exact = exact_percentile(&values, p);
            let tolerance = LogHistogram::RELATIVE_ERROR * exact + 1e-12;
            prop_assert!(
                (approx - exact).abs() <= tolerance,
                "p{p}: approx {approx} vs exact {exact} (n={n})"
            );
            prop_assert!(approx >= previous, "p{p}: percentiles must be ordered");
            previous = approx;
        }
        prop_assert_eq!(hist.percentile(0.0), hist.min());
        prop_assert_eq!(hist.percentile(100.0), hist.max());
    }

    /// record → to_json → serialize → parse → from_json reproduces the
    /// histogram exactly: same buckets, counts, min/max, and therefore
    /// identical percentile answers.
    #[test]
    fn json_codec_round_trips(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let (hist, _) = arbitrary_histogram(&mut rng);

        let text = LogHistogram::to_json(&hist).to_string_pretty();
        let doc = Json::parse(&text).expect("histogram JSON must parse");
        let back = LogHistogram::from_json(&doc, "hist", "test").expect("histogram JSON must decode");
        prop_assert_eq!(&back, &hist);
        for p in [0.0, 50.0, 99.0, 100.0] {
            prop_assert_eq!(back.percentile(p), hist.percentile(p));
        }

        // The merged round-trip also matches merging the originals: the
        // codec preserves exactly the state merge operates on.
        let (other, _) = arbitrary_histogram(&mut rng);
        let mut direct = hist.clone();
        direct.merge(&other);
        let other_doc = Json::parse(&LogHistogram::to_json(&other).to_string_pretty()).unwrap();
        let mut via_codec = back;
        via_codec.merge(&LogHistogram::from_json(&other_doc, "hist", "test").unwrap());
        prop_assert_eq!(&via_codec, &direct);
    }
}
