//! Instance statistics: the "salient attributes of real-world inputs" the
//! paper enumerates (size, sparsity, degree/net-size averages, large nets,
//! area variation).
//!
//! [`InstanceStats::of`] computes all of them in one pass so experiment
//! reports can print a profile line per benchmark, and the synthetic
//! generators in `hypart-benchgen` can assert their outputs actually match
//! the ISPD98-style profiles they claim to emulate.

use crate::graph::Hypergraph;

/// Aggregate statistics of a hypergraph instance.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// Number of vertices (cells).
    pub num_vertices: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Number of pins.
    pub num_pins: usize,
    /// Average vertex degree (pins / vertices); 0 if empty.
    pub avg_vertex_degree: f64,
    /// Maximum vertex degree.
    pub max_vertex_degree: usize,
    /// Average net size (pins / nets); 0 if no nets.
    pub avg_net_size: f64,
    /// Maximum net size.
    pub max_net_size: usize,
    /// Number of "large" nets: size > 50 pins (clock/reset-like).
    pub num_large_nets: usize,
    /// Sparsity ratio nets / vertices; the paper notes this is ≈ 1 for
    /// real designs.
    pub net_vertex_ratio: f64,
    /// Total cell area.
    pub total_vertex_weight: u64,
    /// Smallest cell area.
    pub min_vertex_weight: u64,
    /// Largest cell area (macros).
    pub max_vertex_weight: u64,
    /// Largest cell area as a fraction of total area. A value above the
    /// balance tolerance means the instance can cork a CLIP pass.
    pub max_weight_fraction: f64,
    /// Number of fixed vertices (terminals).
    pub num_fixed: usize,
}

/// Net size above which a net counts as "large" (clock/reset-like) in
/// [`InstanceStats::num_large_nets`].
pub const LARGE_NET_THRESHOLD: usize = 50;

impl InstanceStats {
    /// Computes statistics for `h`.
    ///
    /// ```
    /// use hypart_hypergraph::{HypergraphBuilder, stats::InstanceStats};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = HypergraphBuilder::new();
    /// let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
    /// b.add_net([v[0], v[1]], 1)?;
    /// b.add_net([v[1], v[2], v[3]], 1)?;
    /// let s = InstanceStats::of(&b.build()?);
    /// assert_eq!(s.num_pins, 5);
    /// assert!((s.avg_net_size - 2.5).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn of(h: &Hypergraph) -> Self {
        let num_vertices = h.num_vertices();
        let num_nets = h.num_nets();
        let num_pins = h.num_pins();
        let mut max_net_size = 0;
        let mut num_large_nets = 0;
        for e in h.nets() {
            let s = h.net_size(e);
            max_net_size = max_net_size.max(s);
            if s > LARGE_NET_THRESHOLD {
                num_large_nets += 1;
            }
        }
        let mut min_w = u64::MAX;
        let mut max_w = 0u64;
        for v in h.vertices() {
            let w = h.vertex_weight(v);
            min_w = min_w.min(w);
            max_w = max_w.max(w);
        }
        if num_vertices == 0 {
            min_w = 0;
        }
        let total = h.total_vertex_weight();
        InstanceStats {
            num_vertices,
            num_nets,
            num_pins,
            avg_vertex_degree: ratio(num_pins, num_vertices),
            max_vertex_degree: h.max_vertex_degree(),
            avg_net_size: ratio(num_pins, num_nets),
            max_net_size,
            num_large_nets,
            net_vertex_ratio: ratio(num_nets, num_vertices),
            total_vertex_weight: total,
            min_vertex_weight: min_w,
            max_vertex_weight: max_w,
            max_weight_fraction: if total == 0 {
                0.0
            } else {
                max_w as f64 / total as f64
            },
            num_fixed: h.num_fixed(),
        }
    }

    /// One-line human-readable profile, e.g. for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "|V|={} |E|={} pins={} deg={:.2} net={:.2} maxnet={} large={} area=[{},{}] maxfrac={:.4} fixed={}",
            self.num_vertices,
            self.num_nets,
            self.num_pins,
            self.avg_vertex_degree,
            self.avg_net_size,
            self.max_net_size,
            self.num_large_nets,
            self.min_vertex_weight,
            self.max_vertex_weight,
            self.max_weight_fraction,
            self.num_fixed,
        )
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = [1u64, 1, 4, 10].iter().map(|&w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        b.add_net([v[0], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stats_basics() {
        let s = InstanceStats::of(&sample());
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_nets, 3);
        assert_eq!(s.num_pins, 7);
        assert_eq!(s.max_net_size, 3);
        assert_eq!(s.num_large_nets, 0);
        assert_eq!(s.min_vertex_weight, 1);
        assert_eq!(s.max_vertex_weight, 10);
        assert_eq!(s.total_vertex_weight, 16);
        assert!((s.max_weight_fraction - 10.0 / 16.0).abs() < 1e-12);
        assert!((s.net_vertex_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let h = HypergraphBuilder::new().build().unwrap();
        let s = InstanceStats::of(&h);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.min_vertex_weight, 0);
        assert_eq!(s.max_weight_fraction, 0.0);
        assert_eq!(s.avg_net_size, 0.0);
    }

    #[test]
    fn large_net_detection() {
        let mut b = HypergraphBuilder::new();
        let first = b.add_vertices(60, 1);
        let pins: Vec<_> = (0..60)
            .map(|i| crate::VertexId::new(first.raw() + i))
            .collect();
        b.add_net(pins, 1).unwrap();
        let s = InstanceStats::of(&b.build().unwrap());
        assert_eq!(s.num_large_nets, 1);
        assert_eq!(s.max_net_size, 60);
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = InstanceStats::of(&sample());
        let line = s.summary();
        assert!(line.contains("|V|=4"));
        assert!(line.contains("pins=7"));
    }
}
