//! Property tests of the k-way substrate: recursive bisection's reported
//! numbers, objective bounds, k = 2 consistency with the 2-way model.

use proptest::prelude::*;

use hypart_benchgen::random_hypergraph;
use hypart_core::PartitionAuditor;
use hypart_hypergraph::VertexId;
use hypart_kway::{recursive_bisection, KWayPartition};
use hypart_ml::MlConfig;

fn params() -> impl Strategy<Value = (usize, usize, usize, u64, u64, usize)> {
    (
        6usize..40,
        5usize..60,
        2usize..5,
        1u64..6,
        any::<u64>(),
        2usize..6, // k
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recursive bisection's reported cut and part weights pass the
    /// independent auditor, and its (λ−1) cost matches a recount.
    #[test]
    fn engine_results_verify((n, m, s, w, seed, k) in params()) {
        let h = random_hypergraph(n, m, s, w, seed);
        let out = recursive_bisection(&h, k, 0.5, &MlConfig::ml_lifo(), seed);
        let part_of = |v: VertexId| usize::from(out.assignment[v.index()]);
        let audit = PartitionAuditor::audit_parts(&h, k, part_of, out.cut, &out.part_weights, None);
        prop_assert!(audit.is_ok(), "{:?}", audit);
        let lambda_minus_one: u64 = h
            .nets()
            .map(|e| {
                let mut parts: Vec<usize> = h.net_pins(e).iter().map(|&v| part_of(v)).collect();
                parts.sort_unstable();
                parts.dedup();
                parts.len().saturating_sub(1) as u64 * u64::from(h.net_weight(e))
            })
            .sum();
        prop_assert_eq!(lambda_minus_one, out.lambda_minus_one);
    }

    /// λ−1 cost dominates hyperedge cut and both are bounded by their
    /// trivial maxima.
    #[test]
    fn objective_bounds((n, m, s, w, seed, k) in params()) {
        let h = random_hypergraph(n, m, s, w, seed);
        let assignment: Vec<u16> = (0..n).map(|i| ((i * 7 + 3) % k) as u16).collect();
        let p = KWayPartition::new(&h, k, assignment);
        prop_assert!(p.lambda_minus_one() >= p.cut());
        let total_weight: u64 = h.nets().map(|e| u64::from(h.net_weight(e))).sum();
        prop_assert!(p.cut() <= total_weight);
        prop_assert!(p.lambda_minus_one() <= total_weight * (k as u64 - 1));
    }

    /// k = 2 hyperedge cut equals the 2-way Bisection cut for identical
    /// assignments.
    #[test]
    fn two_way_consistency((n, m, s, w, seed, _k) in params(),
                           mask in any::<u64>()) {
        use hypart_core::Bisection;
        use hypart_hypergraph::PartId;
        let h = random_hypergraph(n, m, s, w, seed);
        let assignment: Vec<u16> = (0..n).map(|i| ((mask >> (i % 64)) & 1) as u16).collect();
        let kp = KWayPartition::new(&h, 2, assignment.clone());
        let parts: Vec<PartId> = assignment
            .iter()
            .map(|&p| if p == 0 { PartId::P0 } else { PartId::P1 })
            .collect();
        let bis = Bisection::new(&h, parts).expect("valid");
        prop_assert_eq!(kp.cut(), bis.cut());
        // For k = 2, λ−1 cost equals the cut (λ is 1 or 2).
        prop_assert_eq!(kp.lambda_minus_one(), bis.cut());
    }
}
