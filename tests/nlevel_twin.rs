//! Twin property test of the n-level machinery: restricted contraction
//! followed by memento undo with **zero** refinement moves must be the
//! identity on the input partition — same labels, same cut at every
//! step, and a byte-pristine [`DynHypergraph`] afterwards. This pins the
//! two invariants everything else in the backend leans on: contraction
//! within a side never changes the cut, and uncontraction is pure label
//! inheritance plus a count patch.

use proptest::prelude::*;

use hypart::benchgen::random_hypergraph;
use hypart::core::nlevel::{
    select_contractions, ContractScratch, ContractionLimits, DynHypergraph, NLevelPartition,
};
use hypart::prelude::*;

fn instance_params() -> impl Strategy<Value = (usize, usize, usize, u64, u64)> {
    (4usize..60, 4usize..90, 2usize..6, 1u64..12, any::<u64>())
}

/// Runs a traced n-level multi-start (2 starts, 1 V-cycle each) on `h`,
/// re-seeding whatever context — and therefore whatever workspace
/// state — the caller hands in, and returns the JSONL byte stream.
fn traced_multi_start(
    ml: &MlPartitioner,
    h: &Hypergraph,
    c: &BalanceConstraint,
    seed: u64,
    ctx: RunCtx<'_>,
) -> String {
    let sink = JsonlSink::new(Vec::new());
    let mut ctx = ctx.with_sink(&sink);
    ctx.seed = seed;
    multi_start_with(ml, h, c, &MultiStartPlan::count(2, 1), &mut ctx).expect("no start panics");
    drop(ctx);
    String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// contract (restricted to partition sides) → uncontract with no
    /// refinement reproduces the input partition exactly.
    #[test]
    fn contract_uncontract_is_identity_on_partitions((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n, m, k, w, seed);
        let sides: Vec<PartId> = (0..n)
            .map(|i| if (seed >> (i % 48)) & 1 == 1 { PartId::P1 } else { PartId::P0 })
            .collect();
        let reference_cut = {
            let bis = Bisection::new(&h, sides.clone()).expect("valid assignment");
            bis.recompute_cut()
        };

        // Contract as far as the restriction allows: never across sides,
        // no weight cap, stop only when no admissible pair remains.
        let mut d = DynHypergraph::new(&h);
        let limits = ContractionLimits {
            stop_size: 1,
            max_net_size: 300,
            cluster_cap: h.total_vertex_weight(),
        };
        let ctx = RunCtx::new(seed);
        let mut probe = ctx.probe();
        let mut scratch = ContractScratch::new();
        select_contractions(&mut d, &limits, Some(&sides), seed, &mut scratch, &mut probe);
        let mementos = scratch.mementos;

        // Every contraction stayed inside one side, so the per-slot input
        // sides are still a valid labeling of the coarse state — and its
        // cut must equal the flat partition's cut.
        let mut partition = NLevelPartition::new(&d, sides.clone());
        prop_assert_eq!(partition.cut(), reference_cut,
            "side-pure contraction must preserve the cut");

        // Undo the stack with zero refinement: the cut may never move.
        for m in mementos.iter().rev() {
            partition.begin_uncontract(&d, m);
            d.uncontract(m);
            prop_assert_eq!(partition.cut(), reference_cut,
                "uncontraction changed the cut");
        }
        prop_assert_eq!(partition.cut(), partition.recompute_cut(&d));
        prop_assert_eq!(partition.assignment(), &sides[..],
            "zero-refinement n-level must reproduce the input partition");
        d.validate_pristine(&h).expect("full undo must restore the pristine view");
    }

    /// Unrestricted contraction all the way down and back is structurally
    /// the identity on the hypergraph view, whatever the instance.
    #[test]
    fn full_contract_undo_restores_pristine_state((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n, m, k, w, seed);
        let mut d = DynHypergraph::new(&h);
        let limits = ContractionLimits {
            stop_size: 1,
            max_net_size: 300,
            cluster_cap: h.total_vertex_weight(),
        };
        let ctx = RunCtx::new(seed ^ 0xA5A5);
        let mut probe = ctx.probe();
        let mut scratch = ContractScratch::new();
        select_contractions(&mut d, &limits, None, seed, &mut scratch, &mut probe);
        while let Some(m) = scratch.mementos.pop() {
            d.uncontract(&m);
        }
        d.validate_pristine(&h).expect("pristine after full undo");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A context dirtied by n-level runs is behaviorally invisible. The
    /// n-level driver builds its own workspace per run but borrows the
    /// context's FM gain containers and runs the serial initial
    /// portfolio on its workspaces. The context is dirtied with
    /// unrelated work — the 2-way driver on a different instance, then
    /// 4-way recursive bisection of it, which resizes the containers
    /// for every region's induced subgraph — and a traced multi-start +
    /// V-cycle run on it must be bitwise identical to the same run on a
    /// fresh context.
    #[test]
    fn dirty_nlevel_workspace_is_behaviorally_invisible(
        (na, ma, ka, wa, seed_a) in instance_params(),
        (nb, mb, kb, wb, seed_b) in instance_params(),
    ) {
        let ha = random_hypergraph(na, ma, ka, wa, seed_a);
        let hb = random_hypergraph(nb, mb, kb, wb, seed_b);
        let ca = BalanceConstraint::with_fraction(ha.total_vertex_weight(), 0.10);
        let cb = BalanceConstraint::with_fraction(hb.total_vertex_weight(), 0.10);
        let nlevel_config = MlConfig::default().with_engine(EngineKind::NLevel);
        let ml = MlPartitioner::new(nlevel_config.clone());

        let mut dirty = RunCtx::new(seed_a);
        let _ = ml.run_with(&ha, &ca, &mut dirty);
        let _ = recursive_bisection_with(&ha, 4, 0.30, &nlevel_config, &mut dirty);

        let dirty_trace = traced_multi_start(&ml, &hb, &cb, seed_b, dirty);
        let fresh_trace = traced_multi_start(&ml, &hb, &cb, seed_b, RunCtx::new(0));
        prop_assert_eq!(dirty_trace, fresh_trace,
            "workspace reuse must be bitwise invisible");
    }
}
