//! Induced sub-hypergraphs.
//!
//! Top-down placement flows repeatedly partition *regions*: the
//! sub-hypergraph induced by the cells of one partition block. This module
//! provides that extraction.

use crate::builder::HypergraphBuilder;
use crate::graph::Hypergraph;
use crate::ids::VertexId;

/// The result of [`induce`]: the sub-hypergraph plus the mapping back to
/// the parent's vertex ids.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The induced hypergraph. Vertex `i` corresponds to `back_map[i]` in
    /// the parent.
    pub graph: Hypergraph,
    /// `back_map[sub_vertex] = parent_vertex`.
    pub back_map: Vec<VertexId>,
}

/// Induces the sub-hypergraph of `h` on `cells`: vertex weights and fixed
/// sides are inherited; each net is restricted to its pins inside the
/// region, and nets with fewer than two remaining pins are dropped
/// (they can never be cut).
///
/// Duplicate entries in `cells` are ignored after the first.
///
/// # Example
///
/// ```
/// use hypart_hypergraph::{HypergraphBuilder, subgraph::induce};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
/// b.add_net([v[0], v[1], v[2]], 1)?;
/// b.add_net([v[2], v[3]], 1)?;
/// let h = b.build()?;
/// let sub = induce(&h, &[v[0], v[1]]);
/// assert_eq!(sub.graph.num_vertices(), 2);
/// assert_eq!(sub.graph.num_nets(), 1); // net0 restricted to {v0, v1}
/// # Ok(())
/// # }
/// ```
pub fn induce(h: &Hypergraph, cells: &[VertexId]) -> InducedSubgraph {
    let mut index_of = vec![u32::MAX; h.num_vertices()];
    let mut back_map = Vec::with_capacity(cells.len());
    let mut builder = HypergraphBuilder::with_capacity(cells.len(), cells.len());
    for &v in cells {
        if index_of[v.index()] != u32::MAX {
            continue;
        }
        index_of[v.index()] = back_map.len() as u32;
        back_map.push(v);
        let sub_v = builder.add_vertex(h.vertex_weight(v));
        if let Some(p) = h.fixed_part(v) {
            builder.fix_vertex(sub_v, p);
        }
    }
    let mut seen = vec![false; h.num_nets()];
    for &v in &back_map {
        for &e in h.vertex_nets(v) {
            if seen[e.index()] {
                continue;
            }
            seen[e.index()] = true;
            let pins: Vec<VertexId> = h
                .net_pins(e)
                .iter()
                .filter(|p| index_of[p.index()] != u32::MAX)
                .map(|p| VertexId::new(index_of[p.index()]))
                .collect();
            if pins.len() >= 2 {
                builder
                    .add_net(pins, h.net_weight(e))
                    .expect("restricted pins are valid");
            }
        }
    }
    InducedSubgraph {
        graph: builder
            .name(format!("{}|sub{}", h.name(), back_map.len()))
            .build()
            .expect("induced graph is valid"),
        back_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HypergraphBuilder, PartId};

    fn two_islands() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|i| b.add_vertex(i as u64 + 1)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2]], 3).unwrap();
        b.add_net([v[3], v[4], v[5]], 1).unwrap();
        b.fix_vertex(v[0], PartId::P1);
        b.build().unwrap()
    }

    #[test]
    fn induce_keeps_weights_and_fixed() {
        let h = two_islands();
        let sub = induce(&h, &[VertexId::new(0), VertexId::new(1), VertexId::new(2)]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_nets(), 2);
        assert_eq!(sub.graph.vertex_weight(VertexId::new(1)), 2);
        assert_eq!(sub.graph.fixed_part(VertexId::new(0)), Some(PartId::P1));
        assert_eq!(sub.graph.net_weight(crate::NetId::new(1)), 3);
        sub.graph.validate().unwrap();
    }

    #[test]
    fn induce_drops_boundary_nets_below_two_pins() {
        let h = two_islands();
        // Only v1: both its nets reduce to single pins and vanish.
        let sub = induce(&h, &[VertexId::new(1)]);
        assert_eq!(sub.graph.num_vertices(), 1);
        assert_eq!(sub.graph.num_nets(), 0);
    }

    #[test]
    fn induce_ignores_duplicates() {
        let h = two_islands();
        let sub = induce(&h, &[VertexId::new(3), VertexId::new(3), VertexId::new(4)]);
        assert_eq!(sub.graph.num_vertices(), 2);
        assert_eq!(sub.back_map.len(), 2);
    }

    #[test]
    fn back_map_round_trips() {
        let h = two_islands();
        let cells = [VertexId::new(4), VertexId::new(0)];
        let sub = induce(&h, &cells);
        assert_eq!(sub.back_map, vec![VertexId::new(4), VertexId::new(0)]);
        for (i, &orig) in sub.back_map.iter().enumerate() {
            assert_eq!(
                sub.graph.vertex_weight(VertexId::from_index(i)),
                h.vertex_weight(orig)
            );
        }
    }
}
