//! Integration tests spanning the application-facing crates: placement,
//! k-way, and the non-FM baselines, driven end-to-end through the facade.

use hypart::baselines::{AnnealingPartitioner, SpectralPartitioner};
use hypart::benchgen::{ispd98_like, mcnc_like};
use hypart::kway::{KWayPartition, MlKWayPartitioner};
use hypart::place::{hpwl, Placement, Point, RowLegalizer};
use hypart::prelude::*;

#[test]
fn placement_stack_end_to_end() {
    let h = ispd98_like(1, 0.03, 5);
    let die = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let placer = TopDownPlacer::new(PlacerConfig::default());
    let coarse = placer.run(&h, die, 3);

    // Every cell inside the die, HPWL far below the random baseline.
    for (_, p) in coarse.iter() {
        assert!(die.contains(p));
    }
    let coarse_hpwl = hpwl(&h, &coarse);
    let spread_hpwl = {
        // Worst-case-ish baseline: alternate cells between opposite corners.
        let mut p = Placement::new(h.num_vertices());
        for (i, v) in h.vertices().enumerate() {
            let corner = if i % 2 == 0 {
                Point::new(die.x0, die.y0)
            } else {
                Point::new(die.x1, die.y1)
            };
            p.set_position(v, corner);
        }
        hpwl(&h, &p)
    };
    assert!(coarse_hpwl * 3.0 < spread_hpwl);

    // Legalize and confirm the HPWL does not explode.
    let legal = RowLegalizer::new(die, 25).legalize(&h, &coarse);
    let legal_hpwl = hpwl(&h, &legal.placement);
    assert!(
        legal_hpwl < coarse_hpwl * 1.5,
        "legalization exploded HPWL: {coarse_hpwl:.0} -> {legal_hpwl:.0}"
    );
}

#[test]
fn kway_stack_agrees_with_two_way_on_k2() {
    let h = mcnc_like(300, 2);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 2, 0.10);
    let kway = MlKWayPartitioner::default().run(&h, &balance, 4);
    assert!(kway.is_balanced(&balance));

    // Evaluate the same assignment through the 2-way model.
    let parts: Vec<PartId> = kway
        .assignment
        .iter()
        .map(|&p| if p == 0 { PartId::P0 } else { PartId::P1 })
        .collect();
    let bis = Bisection::new(&h, parts).expect("valid");
    assert_eq!(bis.cut(), kway.cut);

    // And the 2-way multilevel engine should land in the same quality band.
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let two_way = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, 4);
    assert!(
        kway.cut <= two_way.cut.max(1) * 3 && two_way.cut <= kway.cut.max(1) * 3,
        "k=2 multilevel-kway {} vs 2-way ML {}",
        kway.cut,
        two_way.cut
    );
}

#[test]
fn kway_outcome_verifies_for_odd_k() {
    let h = ispd98_like(2, 0.02, 11);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 3, 0.25);
    let out = MlKWayPartitioner::default().run(&h, &balance, 1);
    let p = KWayPartition::new(&h, 3, out.assignment.clone());
    assert_eq!(p.recompute_cut(), out.cut);
    assert_eq!(p.recompute_lambda_minus_one(), out.lambda_minus_one);
    assert!(out.is_balanced(&balance));
}

#[test]
fn baselines_run_through_the_eval_harness() {
    use hypart::eval::runner::{run_trials_with, Heuristic};
    let h = mcnc_like(200, 7);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let heuristics: Vec<Box<dyn Heuristic>> = vec![
        Box::new(SpectralPartitioner),
        Box::new(AnnealingPartitioner),
    ];
    for heuristic in &heuristics {
        let set = run_trials_with(heuristic.as_ref(), &h, &c, 3, &mut RunCtx::new(1));
        assert_eq!(set.len(), 3);
        assert!(set.balanced_fraction() > 0.99, "{}", set.heuristic);
        // Verify one reported cut from scratch.
        let trial_cut = set.trials[0].cut;
        let again = heuristic.solve_with(&h, &c, &mut RunCtx::new(set.trials[0].seed));
        assert_eq!(again.cut, trial_cut, "{} not reproducible", set.heuristic);
    }
}

#[test]
fn spectral_vs_fm_through_the_pareto_machinery() {
    use hypart::eval::pareto::{pareto_frontier, PerfPoint};
    use hypart::eval::runner::run_trials_with;
    use hypart::eval::runner::FlatFmHeuristic;

    let h = ispd98_like(1, 0.02, 3);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let fm_set = run_trials_with(
        &FlatFmHeuristic::new("fm", FmConfig::lifo()),
        &h,
        &c,
        5,
        &mut RunCtx::new(0),
    );
    let sp = SpectralPartitioner;
    let sp_set = run_trials_with(&sp, &h, &c, 5, &mut RunCtx::new(0));
    let points = vec![
        PerfPoint::new("fm", fm_set.avg_cut(), fm_set.avg_seconds()),
        PerfPoint::new("spectral", sp_set.avg_cut(), sp_set.avg_seconds()),
    ];
    let frontier = pareto_frontier(&points);
    // Which heuristic lands where depends on the trials' timings, so
    // assert what holds for any timings: no point beats the lowest cut
    // or the fastest run in both cost and time, so both are on the
    // frontier, and every point off it is dominated by one on it.
    let lowest_cut = points
        .iter()
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .unwrap();
    let fastest = points
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .unwrap();
    assert!(frontier.contains(lowest_cut), "{points:?}");
    assert!(frontier.contains(fastest), "{points:?}");
    for p in points.iter().filter(|p| !frontier.contains(p)) {
        assert!(
            frontier.iter().any(|q| p.is_dominated_by(q)),
            "{p:?} is off the frontier {frontier:?} but undominated"
        );
    }
}
