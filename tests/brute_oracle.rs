//! Brute-force oracle for the 2-way engines and for recursive bisection:
//! on random instances of at most 14 cells (8 for k-way), with random
//! cell and net weights, fixed cells and tolerances of 10–50 %, every
//! engine's result is checked against the exhaustive optimum and the
//! [`PartitionAuditor`]'s independent recount.
//!
//! Each result must
//! - report the cut the auditor recounts (and keep every fixed cell on
//!   its side, which at k > 2 is part 0 or 1);
//! - claim `balanced` exactly when the auditor's window check passes;
//! - when balanced, cut no less than the optimum.
//!
//! The multilevel engines run twice: at the default stop size of 120
//! cells, which no instance here reaches, so they never coarsen; and at a
//! stop size of 2, so coarsening, projection and restricted V-cycles are
//! checked against the optimum too.
//!
//! The run also tallies, per engine, how often it hit the optimum, how
//! often it missed feasibility where the optimum is feasible, and in how
//! many cases it coarsened at least once. A k-way miss is no failure:
//! recursive bisection meets the k-way window through per-level windows,
//! which can be stricter. See the tallies with
//! `cargo test --test brute_oracle -- --nocapture`.

use hypart::core::brute::optimal_bisection;
use hypart::core::PartitionAuditor;
use hypart::ml::coarsen::CoarsenConfig;
use hypart::prelude::*;
use proptest::prelude::*;

/// Cases per engine, and per k for recursive bisection.
const CASES: u32 = 256;

/// The engines under test, in the order of the printed tally.
const ENGINES: [&str; 8] = [
    "flat LIFO",
    "flat CLIP",
    "ML LIFO",
    "ML CLIP",
    "multi-start ML LIFO (2 starts, 1 V-cycle)",
    "ML LIFO, stop size 2",
    "ML CLIP, stop size 2",
    "multi-start ML LIFO (2 starts, 1 V-cycle), stop size 2",
];

/// A random instance and tolerance: 2–`max_cells` cells (at most 14) of
/// weight 1–6, 1–24 nets of 2–4 pins (duplicates collapse) and weight
/// 1–4, one cell in six fixed on a random side, and a tolerance of
/// 10–50 %.
fn instance(max_cells: usize) -> impl Strategy<Value = (Hypergraph, f64)> {
    (
        2usize..=max_cells,
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
            (h, f64::from(percent) / 100.0)
        })
}

/// Runs engine `index` of [`ENGINES`] under `sink`.
fn run_engine(
    index: usize,
    h: &Hypergraph,
    c: &BalanceConstraint,
    seed: u64,
    sink: &dyn TraceSink,
) -> Outcome {
    let mut ctx = RunCtx::new(seed).with_sink(sink);
    if index < 2 {
        let cfg = [FmConfig::lifo(), FmConfig::clip()][index];
        return FmPartitioner::new(cfg).run_with(h, c, &mut ctx);
    }
    let (row, coarsen) = match index {
        2..=4 => (index - 2, CoarsenConfig::default()),
        _ => (
            index - 5,
            CoarsenConfig {
                stop_size: 2,
                ..Default::default()
            },
        ),
    };
    let ml = |cfg: MlConfig| MlPartitioner::new(cfg.with_coarsen(coarsen));
    match row {
        0 => ml(MlConfig::ml_lifo()).run_with(h, c, &mut ctx),
        1 => ml(MlConfig::ml_clip()).run_with(h, c, &mut ctx),
        _ => {
            let plan = MultiStartPlan::count(2, 1);
            let out = multi_start_with(&ml(MlConfig::ml_lifo()), h, c, &plan, &mut ctx);
            out.expect("no start panics").outcome
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
    /// Of all cases, those in which the engine coarsened at least once.
    coarsened: u32,
}

#[test]
fn two_way_engines_respect_the_brute_force_optimum() {
    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(CASES),
        "two_way_engines_respect_the_brute_force_optimum",
    );
    let strategy = (instance(14), any::<u64>());
    let mut tally = [Tally::default(); ENGINES.len()];
    for case in 0..runner.cases() {
        let ((h, tolerance), seed) = runner.generate(&strategy);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
        let optimum = optimal_bisection(&h, &c);
        let window = Some((c.lower(), c.upper()));
        for (index, name) in ENGINES.iter().enumerate() {
            let sink = MemorySink::new();
            let out = run_engine(index, &h, &c, seed, &sink);
            let coarsened = sink
                .take()
                .iter()
                .any(|e| matches!(e, RunEvent::LevelDown { .. }));
            tally[index].coarsened += u32::from(coarsened);
            let (assignment, cut, balanced) = (out.assignment, out.cut, out.balanced);
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
    eprintln!(
        "engine | optimum hits | feasibility misses (of cases with a feasible optimum) \
         | coarsened (of all cases)"
    );
    for (name, t) in ENGINES.iter().zip(&tally) {
        eprintln!(
            "{name} | {}/{} | {}/{} | {}/{CASES}",
            t.hits, t.feasible, t.feasibility_misses, t.feasible, t.coarsened
        );
    }
    // The stop-size-2 rows are there to exercise coarsening.
    for (name, t) in ENGINES.iter().zip(&tally).skip(5) {
        assert!(
            t.coarsened > CASES / 2,
            "{name} coarsened in {} cases",
            t.coarsened
        );
    }
}

/// Depth-first search over k-way assignments, cell by cell, keeping each
/// net's pins per part so the cut grows incrementally; a branch ends once
/// a part is over the window or the cut reaches the best found.
struct KWaySearch<'a> {
    h: &'a Hypergraph,
    k: usize,
    upper: u64,
    lower: u64,
    weight: Vec<u64>,
    /// pins[e * k + p]: pins of net e placed in part p.
    pins: Vec<u32>,
    /// Parts each net touches so far.
    span: Vec<u32>,
    cut: u64,
    best: Option<u64>,
}

impl KWaySearch<'_> {
    fn visit(&mut self, next: usize) {
        if self.best.is_some_and(|b| self.cut >= b) {
            return;
        }
        if next == self.h.num_vertices() {
            if self.weight.iter().all(|&w| w >= self.lower) {
                self.best = Some(self.cut);
            }
            return;
        }
        let v = VertexId::from_index(next);
        let parts = match self.h.fixed_part(v) {
            Some(side) => side.index()..side.index() + 1,
            None => 0..self.k,
        };
        for p in parts {
            if self.weight[p] + self.h.vertex_weight(v) > self.upper {
                continue;
            }
            let before = self.cut;
            self.place(v, p, true);
            self.visit(next + 1);
            self.place(v, p, false);
            self.cut = before;
        }
    }

    /// Adds `v` to part `p`, or takes it out again.
    fn place(&mut self, v: VertexId, p: usize, add: bool) {
        let w = self.h.vertex_weight(v);
        if add {
            self.weight[p] += w;
        } else {
            self.weight[p] -= w;
        }
        for &e in self.h.vertex_nets(v) {
            let count = &mut self.pins[e.index() * self.k + p];
            if add {
                *count += 1;
                if *count == 1 {
                    self.span[e.index()] += 1;
                    if self.span[e.index()] == 2 {
                        self.cut += u64::from(self.h.net_weight(e));
                    }
                }
            } else {
                *count -= 1;
                if *count == 0 {
                    self.span[e.index()] -= 1;
                }
            }
        }
    }
}

/// The minimum hyperedge cut over k-way assignments inside `balance`'s
/// window, with each fixed cell in the part of its side; `None` if no
/// assignment fits.
fn optimal_kway_cut(h: &Hypergraph, balance: &KWayBalance) -> Option<u64> {
    let k = balance.num_parts();
    let mut search = KWaySearch {
        h,
        k,
        upper: balance.upper(),
        lower: balance.lower(),
        weight: vec![0; k],
        pins: vec![0; h.num_nets() * k],
        span: vec![0; h.num_nets()],
        cut: 0,
        best: None,
    };
    search.visit(0);
    search.best
}

#[test]
fn recursive_bisection_respects_the_brute_force_optimum() {
    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(CASES),
        "recursive_bisection_respects_the_brute_force_optimum",
    );
    let strategy = (instance(8), any::<u64>());
    eprintln!("k | optimum hits | feasibility misses (of cases with a feasible optimum)");
    for k in [3, 4] {
        let mut tally = Tally::default();
        for case in 0..runner.cases() {
            let ((h, tolerance), seed) = runner.generate(&strategy);
            let balance = KWayBalance::with_fraction(h.total_vertex_weight(), k, tolerance);
            let out = recursive_bisection(&h, k, tolerance, &MlConfig::ml_lifo(), seed);
            let context = format!("k = {k}, case {case}, seed {seed}");
            assert_eq!(out.assignment.len(), h.num_vertices(), "{context}");
            let part_of = |v: VertexId| usize::from(out.assignment[v.index()]);
            for v in h.vertices() {
                if let Some(side) = h.fixed_part(v) {
                    assert_eq!(part_of(v), side.index(), "{context}: fixed {v:?}");
                }
            }
            let weights = &out.part_weights;
            if let Err(e) = PartitionAuditor::audit_parts(&h, k, part_of, out.cut, weights, None) {
                panic!("{context}: {e}");
            }
            let window = Some((balance.lower(), balance.upper()));
            let in_window =
                PartitionAuditor::audit_parts(&h, k, part_of, out.cut, weights, window).is_ok();
            let balanced = out.is_balanced(&balance);
            assert_eq!(balanced, in_window, "{context}: balanced claim vs window");
            match optimal_kway_cut(&h, &balance) {
                Some(opt) => {
                    tally.feasible += 1;
                    if balanced {
                        assert!(out.cut >= opt, "{context}: cut {} < optimum {opt}", out.cut);
                        tally.hits += u32::from(out.cut == opt);
                    } else {
                        tally.feasibility_misses += 1;
                    }
                }
                None => assert!(
                    !balanced,
                    "{context}: balanced with no feasible k-way split"
                ),
            }
        }
        eprintln!(
            "{k} | {}/{} | {}/{}",
            tally.hits, tally.feasible, tally.feasibility_misses, tally.feasible
        );
    }
}
