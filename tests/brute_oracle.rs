//! Brute-force oracle for the 2-way engines: on random instances of at
//! most 14 cells, with random cell and net weights, fixed cells and
//! tolerances of 10–50 %, every engine's result is checked against the
//! exhaustive optimum and the [`PartitionAuditor`]'s independent recount.
//!
//! Each result must
//! - report the cut the auditor recounts (and keep every fixed cell on
//!   its side);
//! - claim `balanced` exactly when the auditor's window check passes;
//! - when balanced, cut no less than the optimum.
//!
//! The run also tallies, per engine, how often it hit the optimum and how
//! often it missed feasibility where the optimum is feasible. See them
//! with `cargo test --test brute_oracle -- --nocapture`.

use hypart::core::brute::optimal_bisection;
use hypart::core::PartitionAuditor;
use hypart::prelude::*;
use proptest::prelude::*;

/// Cases per engine.
const CASES: u32 = 256;

/// The engines under test, in the order of the printed tally.
const ENGINES: [&str; 5] = [
    "flat LIFO",
    "flat CLIP",
    "ML LIFO",
    "ML CLIP",
    "multi-start ML LIFO (2 starts, 1 V-cycle)",
];

/// A random instance: 2–14 cells of weight 1–6, 1–24 nets of 2–4 pins
/// (duplicates collapse) and weight 1–4, one cell in six fixed on a
/// random side, and a tolerance of 10–50 %.
fn instance() -> impl Strategy<Value = (Hypergraph, BalanceConstraint)> {
    (
        2usize..=14,
        proptest::collection::vec(1u64..=6, 14..15),
        proptest::collection::vec(
            (proptest::collection::vec(any::<usize>(), 2..5), 1u32..=4),
            1..25,
        ),
        proptest::collection::vec(0u8..12, 14..15),
        10u32..=50,
    )
        .prop_map(|(n, weights, nets, codes, percent)| {
            let mut b = HypergraphBuilder::new();
            for &w in &weights[..n] {
                b.add_vertex(w);
            }
            for (pins, w) in nets {
                let pins = pins.into_iter().map(|p| VertexId::from_index(p % n));
                b.add_net(pins, w).expect("pins in range");
            }
            for (i, &code) in codes[..n].iter().enumerate() {
                match code {
                    0 => b.fix_vertex(VertexId::from_index(i), PartId::P0),
                    1 => b.fix_vertex(VertexId::from_index(i), PartId::P1),
                    _ => {}
                }
            }
            let h = b.build().expect("valid hypergraph");
            let tolerance = f64::from(percent) / 100.0;
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
            (h, c)
        })
}

/// Runs engine `index` of [`ENGINES`]: (assignment, cut, balanced).
fn run_engine(
    index: usize,
    h: &Hypergraph,
    c: &BalanceConstraint,
    seed: u64,
) -> (Vec<PartId>, u64, bool) {
    let mut ctx = RunCtx::new(seed);
    match index {
        0 | 1 => {
            let cfg = [FmConfig::lifo(), FmConfig::clip()][index];
            let out = FmPartitioner::new(cfg).run_with(h, c, &mut ctx);
            (out.assignment, out.cut, out.balanced)
        }
        2 | 3 => {
            let cfg = [MlConfig::ml_lifo(), MlConfig::ml_clip()][index - 2].clone();
            let out = MlPartitioner::new(cfg).run_with(h, c, &mut ctx);
            (out.assignment, out.cut, out.balanced)
        }
        _ => {
            let ml = MlPartitioner::new(MlConfig::ml_lifo());
            let out = multi_start_with(&ml, h, c, &MultiStartPlan::count(2, 1), &mut ctx);
            (out.assignment, out.cut, out.balanced)
        }
    }
}

/// Per-engine counts over the cases.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    /// Cases whose optimum is feasible.
    feasible: u32,
    /// Of those, cases the engine solved with the optimal cut.
    hits: u32,
    /// Of those, cases the engine returned unbalanced.
    feasibility_misses: u32,
}

#[test]
fn two_way_engines_respect_the_brute_force_optimum() {
    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(CASES),
        "two_way_engines_respect_the_brute_force_optimum",
    );
    let strategy = (instance(), any::<u64>());
    let mut tally = [Tally::default(); ENGINES.len()];
    for case in 0..runner.cases() {
        let ((h, c), seed) = runner.generate(&strategy);
        let optimum = optimal_bisection(&h, &c);
        let window = Some((c.lower(), c.upper()));
        for (index, name) in ENGINES.iter().enumerate() {
            let (assignment, cut, balanced) = run_engine(index, &h, &c, seed);
            let context = format!("case {case}, {name}, seed {seed}");
            assert_eq!(assignment.len(), h.num_vertices(), "{context}");
            let part_of = |v: VertexId| assignment[v.index()].index();
            let mut weights = [0u64; 2];
            for v in h.vertices() {
                weights[part_of(v)] += h.vertex_weight(v);
            }
            if let Err(e) = PartitionAuditor::audit_parts(&h, 2, part_of, cut, &weights, None) {
                panic!("{context}: {e}");
            }
            let in_window =
                PartitionAuditor::audit_parts(&h, 2, part_of, cut, &weights, window).is_ok();
            assert_eq!(balanced, in_window, "{context}: balanced claim vs window");
            match &optimum {
                Some(opt) => {
                    let t = &mut tally[index];
                    t.feasible += 1;
                    if balanced {
                        assert!(cut >= opt.cut, "{context}: cut {cut} < optimum {}", opt.cut);
                        t.hits += u32::from(cut == opt.cut);
                    } else {
                        t.feasibility_misses += 1;
                    }
                }
                None => assert!(!balanced, "{context}: balanced with no feasible bisection"),
            }
        }
    }
    eprintln!("engine | optimum hits | feasibility misses (of cases with a feasible optimum)");
    for (name, t) in ENGINES.iter().zip(&tally) {
        eprintln!(
            "{name} | {}/{} | {}/{}",
            t.hits, t.feasible, t.feasibility_misses, t.feasible
        );
    }
}
