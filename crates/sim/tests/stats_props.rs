//! Property tests for the merge algebra of `osdc_sim::stats`.
//!
//! The telemetry layer merges per-task registries into a shared one
//! (`run_sharded`), so `merge` must be indistinguishable from having
//! recorded the concatenated observations in one accumulator.

use osdc_sim::stats::{Log2Histogram, Summary};
use proptest::prelude::*;

fn values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1e9, 0..200)
}

proptest! {
    #[test]
    fn histogram_merge_counts_and_sums_exact(xs in values(), ys in values()) {
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for &x in &xs {
            whole.record(x);
            a.record(x);
        }
        for &y in &ys {
            whole.record(y);
            b.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        // Bucket counts are integers: merging must be exact, not close.
        prop_assert_eq!(a.bucket_counts(), whole.bucket_counts());
        let scale = whole.sum().abs().max(1.0);
        prop_assert!((a.sum() - whole.sum()).abs() / scale < 1e-12);
    }

    #[test]
    fn histogram_merge_then_quantile_equals_concat_then_quantile(
        xs in values(),
        ys in values(),
        q in 0.0f64..=1.0,
    ) {
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for &x in &xs {
            whole.record(x);
            a.record(x);
        }
        for &y in &ys {
            whole.record(y);
            b.record(y);
        }
        a.merge(&b);
        // Identical buckets mean identical quantiles — exactly.
        prop_assert_eq!(a.quantile_upper_bound(q), whole.quantile_upper_bound(q));
    }

    #[test]
    fn histogram_merge_is_commutative(xs in values(), ys in values()) {
        let mut ab = Log2Histogram::new();
        let mut ba = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for &x in &xs {
            a.record(x);
        }
        for &y in &ys {
            b.record(y);
        }
        ab.merge(&a);
        ab.merge(&b);
        ba.merge(&b);
        ba.merge(&a);
        prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn summary_merge_matches_sequential(xs in values(), ys in values()) {
        let mut whole = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs {
            whole.record(x);
            a.record(x);
        }
        for &y in &ys {
            whole.record(y);
            b.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        let scale = whole.mean().abs().max(1.0);
        prop_assert!((a.mean() - whole.mean()).abs() / scale < 1e-9);
        let vscale = whole.variance().abs().max(1.0);
        prop_assert!((a.variance() - whole.variance()).abs() / vscale < 1e-6);
    }

    #[test]
    fn summary_merge_into_default_is_clone(xs in values()) {
        // The min = +inf sentinel of an empty summary must never leak
        // through a merge in either direction.
        let mut a = Summary::new();
        for &x in &xs {
            a.record(x);
        }
        let mut target = Summary::default();
        target.merge(&a);
        prop_assert_eq!(target.count(), a.count());
        prop_assert_eq!(target.min(), a.min());
        prop_assert_eq!(target.max(), a.max());
        prop_assert!(target.min().is_finite());
        let mut back = a.clone();
        back.merge(&Summary::default());
        prop_assert_eq!(back.count(), a.count());
        prop_assert_eq!(back.min(), a.min());
    }
}
