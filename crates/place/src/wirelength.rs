//! Half-perimeter wirelength (HPWL) — the standard global-placement
//! quality metric, and the application-level measure that makes
//! partitioner comparisons meaningful for the §2.1 use model.

use crate::geometry::Placement;
use hypart_hypergraph::{Hypergraph, NetId};

/// HPWL of a single net: half the perimeter of the bounding box of its
/// pins, weighted by the net weight. Single-pin nets cost 0.
pub fn net_hpwl(h: &Hypergraph, placement: &Placement, e: NetId) -> f64 {
    let pins = h.net_pins(e);
    if pins.len() < 2 {
        return 0.0;
    }
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for &v in pins {
        let p = placement.position(v);
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    f64::from(h.net_weight(e)) * ((max_x - min_x) + (max_y - min_y))
}

/// Total HPWL of a placement: Σ over nets of [`net_hpwl`].
///
/// ```
/// use hypart_place::{hpwl, Placement, Point};
/// use hypart_hypergraph::{HypergraphBuilder, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..2).map(|_| b.add_vertex(1)).collect();
/// b.add_net([v[0], v[1]], 1)?;
/// let h = b.build()?;
/// let mut p = Placement::new(2);
/// p.set_position(v[0], Point::new(0.0, 0.0));
/// p.set_position(v[1], Point::new(3.0, 4.0));
/// assert_eq!(hpwl(&h, &p), 7.0);
/// # Ok(())
/// # }
/// ```
pub fn hpwl(h: &Hypergraph, placement: &Placement) -> f64 {
    h.nets().map(|e| net_hpwl(h, placement, e)).sum()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use hypart_hypergraph::{HypergraphBuilder, VertexId};

    fn place(coords: &[(f64, f64)]) -> Placement {
        let mut p = Placement::new(coords.len());
        for (i, &(x, y)) in coords.iter().enumerate() {
            p.set_position(VertexId::from_index(i), Point::new(x, y));
        }
        p
    }

    #[test]
    fn bounding_box_half_perimeter() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 1).unwrap();
        let h = b.build().unwrap();
        let p = place(&[(0.0, 0.0), (2.0, 1.0), (1.0, 5.0)]);
        assert_eq!(net_hpwl(&h, &p, hypart_hypergraph::NetId::new(0)), 7.0);
        assert_eq!(hpwl(&h, &p), 7.0);
    }

    #[test]
    fn weighted_nets_scale() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 3).unwrap();
        let h = b.build().unwrap();
        let p = place(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(hpwl(&h, &p), 6.0);
    }

    #[test]
    fn coincident_pins_cost_zero() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        let h = b.build().unwrap();
        let p = place(&[(4.0, 4.0), (4.0, 4.0)]);
        assert_eq!(hpwl(&h, &p), 0.0);
    }

    #[test]
    fn single_pin_net_costs_zero() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        b.add_net([v0], 1).unwrap();
        let h = b.build().unwrap();
        let p = place(&[(1.0, 2.0)]);
        assert_eq!(hpwl(&h, &p), 0.0);
    }
}
