//! Top-down placement flow: the use model that motivates the paper (§2.1).
//!
//! A placer recursively bisects the netlist into bins; pads stay fixed on
//! their sides all the way down. This example splits an ISPD98-like
//! netlist with a fixed pad ring into 8 placement bins by recursive
//! multilevel min-cut bisection, under the tight runtime regime the
//! paper says placement imposes (one start at every node of the
//! recursion tree).
//!
//! Run: `cargo run --release --example placement_flow`

use std::time::Instant;

use hypart::benchgen::{ispd98_like, with_pad_ring};
use hypart::prelude::*;

fn main() {
    // An ibm01-like netlist with pads fixed alternately, as a chip has.
    let base = ispd98_like(1, 0.10, 2024);
    let h = with_pad_ring(&base, 64, 7);
    println!(
        "netlist: {} cells, {} nets, {} pins, {} fixed pads",
        h.num_vertices(),
        h.num_nets(),
        h.num_pins(),
        h.num_fixed()
    );

    let t0 = Instant::now();
    let out = recursive_bisection(&h, 8, 0.10, &MlConfig::ml_lifo(), 1000);
    let elapsed = t0.elapsed();

    // A pad fixed on side s ends in bin s.
    for v in h.vertices() {
        if let Some(side) = h.fixed_part(v) {
            assert_eq!(usize::from(out.assignment[v.index()]), side.index());
        }
    }
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 8, 0.10);
    println!(
        "recursive bisection into {} bins: cut {}, (λ−1) {} in {elapsed:.2?} \
         (bin weights {:?}, balanced: {})",
        out.num_parts,
        out.cut,
        out.lambda_minus_one,
        out.part_weights,
        out.is_balanced(&balance)
    );
}
