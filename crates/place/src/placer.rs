//! The recursive min-cut top-down placer.

use hypart_core::BalanceConstraint;
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, PartId, VertexId};
use hypart_ml::{MlConfig, MlPartitioner};

use crate::geometry::{Placement, Point, Rect};

/// Configuration of [`TopDownPlacer`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlacerConfig {
    /// Multilevel partitioner used at every bisection node.
    pub ml: MlConfig,
    /// Dunlop–Kernighan terminal propagation: project external pins of
    /// crossing nets onto the region and pin them as fixed zero-weight
    /// pseudo-terminals. Disable to measure its effect.
    pub terminal_propagation: bool,
}

impl PlacerConfig {
    /// Balance tolerance per split (fraction of region weight).
    pub const TOLERANCE: f64 = 0.10;
    /// Regions at or below this many cells are placed directly.
    pub const MIN_REGION_CELLS: usize = 8;
    /// Recursion depth cap (safety bound; 2^depth regions).
    pub const MAX_DEPTH: usize = 24;
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            ml: MlConfig::default(),
            terminal_propagation: true,
        }
    }
}

/// A top-down global placer: recursive min-cut bisection with alternating
/// cutline direction and area-proportional region splitting.
#[derive(Clone, Debug)]
pub struct TopDownPlacer {
    config: PlacerConfig,
}

impl TopDownPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        TopDownPlacer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Places every cell of `h` inside `die`, deterministically from
    /// `seed`. The input hypergraph's own fixed-vertex flags are ignored
    /// (they encode partition sides, not locations); all cells are treated
    /// as movable.
    pub fn run(&self, h: &Hypergraph, die: Rect, seed: u64) -> Placement {
        let ml = MlPartitioner::new(self.config.ml.clone());
        let mut placement = Placement::new(h.num_vertices());
        // Initial estimate: everything at the die center (refined as the
        // recursion descends; terminal propagation reads these estimates).
        for v in h.vertices() {
            placement.set_position(v, die.center());
        }

        let mut queue: Vec<(Vec<VertexId>, Rect, usize)> = vec![(h.vertices().collect(), die, 0)];
        let mut region_counter: u64 = 0;

        while let Some((cells, rect, depth)) = queue.pop() {
            if cells.len() <= PlacerConfig::MIN_REGION_CELLS || depth >= PlacerConfig::MAX_DEPTH {
                place_leaf(&cells, rect, &mut placement);
                continue;
            }
            region_counter += 1;
            let split_vertical = rect.width() >= rect.height();
            let sub = self.build_region_instance(h, &cells, rect, split_vertical, &placement);
            let constraint = BalanceConstraint::with_fraction(
                sub.total_vertex_weight(),
                PlacerConfig::TOLERANCE,
            );
            let out = ml.run(
                &sub,
                &constraint,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(region_counter),
            );

            // Children, ignoring the pseudo-terminal dummies at the tail.
            let mut first = Vec::new();
            let mut second = Vec::new();
            let mut weight = [0u64; 2];
            for (i, &orig) in cells.iter().enumerate() {
                let side = out.assignment[i];
                weight[side.index()] += h.vertex_weight(orig);
                match side {
                    PartId::P0 => first.push(orig),
                    PartId::P1 => second.push(orig),
                }
            }
            let total = (weight[0] + weight[1]).max(1);
            // Area-proportional cutline, kept away from the edges so thin
            // slivers cannot starve a child region.
            let fraction = (weight[0] as f64 / total as f64).clamp(0.1, 0.9);
            let (rect0, rect1) = if split_vertical {
                rect.split_vertical(fraction)
            } else {
                rect.split_horizontal(fraction)
            };
            // Refine the position estimates for subsequent terminal
            // propagation at deeper levels.
            for &v in &first {
                placement.set_position(v, rect0.center());
            }
            for &v in &second {
                placement.set_position(v, rect1.center());
            }
            if first.is_empty() || second.is_empty() {
                // Degenerate split (e.g. one giant macro): place directly.
                place_leaf(&cells, rect, &mut placement);
                continue;
            }
            queue.push((first, rect0, depth + 1));
            queue.push((second, rect1, depth + 1));
        }
        placement
    }

    /// Builds the partitioning instance for one region: the induced
    /// sub-hypergraph plus (optionally) two fixed zero-weight
    /// pseudo-terminals that crossing nets are pinned to, on the side
    /// nearest the projection of their external pins.
    fn build_region_instance(
        &self,
        h: &Hypergraph,
        cells: &[VertexId],
        rect: Rect,
        split_vertical: bool,
        placement: &Placement,
    ) -> Hypergraph {
        let mut index_of = vec![u32::MAX; h.num_vertices()];
        let mut builder = HypergraphBuilder::with_capacity(cells.len() + 2, cells.len());
        for (i, &v) in cells.iter().enumerate() {
            index_of[v.index()] = i as u32;
            builder.add_vertex(h.vertex_weight(v));
        }
        // Pseudo-terminals (zero weight so balance is unaffected).
        let left_terminal = builder.add_vertex(0);
        let right_terminal = builder.add_vertex(0);
        builder.fix_vertex(left_terminal, PartId::P0);
        builder.fix_vertex(right_terminal, PartId::P1);

        let center = rect.center();
        let mut seen = std::collections::HashSet::new();
        for &v in cells {
            for &e in h.vertex_nets(v) {
                if !seen.insert(e) {
                    continue;
                }
                let mut pins: Vec<VertexId> = Vec::new();
                let mut ext_x = 0.0f64;
                let mut ext_y = 0.0f64;
                let mut ext_count = 0usize;
                for &p in h.net_pins(e) {
                    if index_of[p.index()] != u32::MAX {
                        pins.push(VertexId::new(index_of[p.index()]));
                    } else {
                        let pos = placement.position(p);
                        ext_x += pos.x;
                        ext_y += pos.y;
                        ext_count += 1;
                    }
                }
                if self.config.terminal_propagation && ext_count > 0 && !pins.is_empty() {
                    let centroid = Point::new(ext_x / ext_count as f64, ext_y / ext_count as f64);
                    let projected = rect.project(centroid);
                    let to_first = if split_vertical {
                        projected.x <= center.x
                    } else {
                        projected.y <= center.y
                    };
                    pins.push(if to_first {
                        left_terminal
                    } else {
                        right_terminal
                    });
                }
                if pins.len() >= 2 {
                    if let Err(err) = builder.add_net(pins, h.net_weight(e)) {
                        unreachable!("region pins are distinct region vertices: {err}");
                    }
                }
            }
        }
        match builder.build() {
            Ok(sub) => sub,
            Err(e) => unreachable!("a region instance is a valid hypergraph: {e}"),
        }
    }
}

/// Places a leaf region's cells on a regular grid inside its rectangle
/// (deterministic; avoids stacking everything on the center point).
fn place_leaf(cells: &[VertexId], rect: Rect, placement: &mut Placement) {
    if cells.is_empty() {
        return;
    }
    let cols = (cells.len() as f64).sqrt().ceil() as usize;
    let rows = cells.len().div_ceil(cols);
    for (i, &v) in cells.iter().enumerate() {
        let col = i % cols;
        let row = i / cols;
        let x = rect.x0 + rect.width() * (col as f64 + 0.5) / cols as f64;
        let y = rect.y0 + rect.height() * (row as f64 + 0.5) / rows as f64;
        placement.set_position(v, Point::new(x, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wirelength::hpwl;
    use hypart_benchgen::toys::grid;
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 1000.0, 1000.0)
    }

    fn random_placement(h: &Hypergraph, die: Rect, seed: u64) -> Placement {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Placement::new(h.num_vertices());
        for v in h.vertices() {
            p.set_position(
                v,
                Point::new(
                    rng.gen_range(die.x0..=die.x1),
                    rng.gen_range(die.y0..=die.y1),
                ),
            );
        }
        p
    }

    #[test]
    fn all_cells_land_inside_the_die() {
        let h = mcnc_like(300, 3);
        let placement = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 1);
        for (_, p) in placement.iter() {
            assert!(die().contains(p), "{p:?} escaped the die");
        }
    }

    #[test]
    fn min_cut_placement_beats_random_on_hpwl() {
        let h = ispd98_like(1, 0.04, 3);
        let placed = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 1);
        let random = random_placement(&h, die(), 1);
        let placed_hpwl = hpwl(&h, &placed);
        let random_hpwl = hpwl(&h, &random);
        assert!(
            placed_hpwl * 2.0 < random_hpwl,
            "placed {placed_hpwl:.0} should be far below random {random_hpwl:.0}"
        );
    }

    #[test]
    fn terminal_propagation_helps_wirelength() {
        let h = ispd98_like(1, 0.04, 9);
        let with_tp = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 2);
        let without_tp = TopDownPlacer::new(PlacerConfig {
            terminal_propagation: false,
            ..PlacerConfig::default()
        })
        .run(&h, die(), 2);
        let hp_with = hpwl(&h, &with_tp);
        let hp_without = hpwl(&h, &without_tp);
        assert!(
            hp_with < hp_without * 1.02,
            "terminal propagation should not hurt: {hp_with:.0} vs {hp_without:.0}"
        );
    }

    #[test]
    fn grid_placement_recovers_locality() {
        // Neighbors in the logical grid should end up near each other.
        let h = grid(10, 10);
        let placement = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 5);
        // Average net length must be well below the die diagonal scale.
        let avg = hpwl(&h, &placement) / h.num_nets() as f64;
        assert!(avg < 400.0, "avg net HPWL {avg:.0}");
    }

    #[test]
    fn deterministic_per_seed() {
        let h = mcnc_like(200, 1);
        let a = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 7);
        let b = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_instance_is_a_single_leaf() {
        let h = mcnc_like(8, 1);
        let placement = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 0);
        // 8 cells <= MIN_REGION_CELLS: straight to the leaf grid.
        let mut xs: Vec<f64> = placement.iter().map(|(_, p)| p.x).collect();
        xs.dedup();
        assert!(xs.len() > 1, "leaf grid should spread cells");
    }
}
