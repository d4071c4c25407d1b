//! Quickstart: build a hypergraph, partition it flat and multilevel,
//! inspect the result.
//!
//! Run: `cargo run --release --example quickstart`

use hypart::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a netlist by hand: two modules of four cells, one bridge net.
    let mut b = HypergraphBuilder::new();
    let cells: Vec<VertexId> = (0..8).map(|_| b.add_vertex(1)).collect();
    for group in [&cells[..4], &cells[4..]] {
        for w in group.windows(2) {
            b.add_net([w[0], w[1]], 1)?;
        }
        b.add_net(group.iter().copied(), 1)?; // one module-wide net
    }
    b.add_net([cells[3], cells[4]], 1)?; // the bridge
    let h = b.name("quickstart").build()?;

    println!(
        "instance: {} ({} cells, {} nets, {} pins)",
        h.name(),
        h.num_vertices(),
        h.num_nets(),
        h.num_pins()
    );

    // 2-way partition under a near-bisection constraint.
    let constraint = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);

    // Per-pass and per-level numbers are trace events: a sink on the
    // run's context receives them.
    let trace = MemorySink::new();
    let count = |kind: &str| trace.take().iter().filter(|e| e.kind() == kind).count();

    // Flat LIFO FM — the paper's competent flat engine.
    let mut ctx = RunCtx::new(42).with_sink(&trace);
    let flat = FmPartitioner::new(FmConfig::lifo()).run_with(&h, &constraint, &mut ctx);
    println!(
        "flat LIFO FM : cut {} (balanced: {}, passes: {})",
        flat.cut,
        flat.balanced,
        count("pass_end")
    );

    // Multilevel with the same refinement engine.
    let mut ctx = RunCtx::new(42).with_sink(&trace);
    let ml = MlPartitioner::new(MlConfig::ml_lifo()).run_with(&h, &constraint, &mut ctx);
    println!(
        "ML LIFO FM   : cut {} (balanced: {}, levels: {})",
        ml.cut,
        ml.balanced,
        count("level_down")
    );

    // Inspect the solution: which cells landed where.
    let left: Vec<usize> = ml
        .assignment
        .iter()
        .enumerate()
        .filter(|(_, p)| **p == PartId::P0)
        .map(|(i, _)| i)
        .collect();
    println!("partition 0 holds cells {left:?}");

    // Write the hypergraph and solution in interchange formats.
    let dir = std::env::temp_dir();
    hypart::hypergraph::io::hgr::write_path(&h, dir.join("quickstart.hgr"))?;
    hypart::hypergraph::io::partfile::write_path(&ml.assignment, dir.join("quickstart.part"))?;
    println!(
        "wrote {0}/quickstart.hgr and {0}/quickstart.part",
        dir.display()
    );

    Ok(())
}
