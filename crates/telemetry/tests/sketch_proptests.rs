//! Property tests for the mergeable latency histogram: shard merging
//! must be a lossless monoid.

use fractanet_telemetry::LatencyHistogram;
use proptest::prelude::*;

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut s = LatencyHistogram::new();
    for &v in samples {
        s.record(v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard histograms is commutative and associative,
    /// and any sharding of the stream merges to exactly the
    /// single-stream histogram.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
        c in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (sa, sb, sc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        // Commutativity.
        prop_assert_eq!(sa.merged(&sb), sb.merged(&sa));

        // Associativity.
        prop_assert_eq!(sa.merged(&sb).merged(&sc), sa.merged(&sb.merged(&sc)));

        // Losslessness: shards merge to the single-observer histogram.
        let mut whole: Vec<u64> = a.clone();
        whole.extend(&b);
        whole.extend(&c);
        prop_assert_eq!(sa.merged(&sb).merged(&sc), histogram_of(&whole));

        // The empty histogram is the identity.
        prop_assert_eq!(sa.merged(&LatencyHistogram::new()), sa);
    }
}
