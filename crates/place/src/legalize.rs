//! Row legalization: snapping a coarse placement onto standard-cell rows.
//!
//! The §2.1 use model refines the coarse min-cut placement "into a
//! 'detailed placement'"; legalization is the hand-off: each cell is
//! assigned to a row and packed left-to-right without overlap, staying as
//! close as possible to its coarse position. (Footnote 8 of the paper —
//! the discrete nature of cell rows — is exactly why horizontal cutlines
//! need tighter balance: rows quantize capacity.)

use std::cmp::Ordering;

use hypart_hypergraph::{Hypergraph, VertexId};

use crate::geometry::{Placement, Point, Rect};

/// A row-based legalizer: `rows` equal-height rows spanning the die.
#[derive(Clone, Copy, Debug)]
pub struct RowLegalizer {
    die: Rect,
    rows: usize,
}

/// Result of legalization.
#[derive(Clone, Debug)]
pub struct LegalizedPlacement {
    /// The legalized placement (row-center y, packed x).
    pub placement: Placement,
    /// Row index per cell.
    pub row_of: Vec<usize>,
    /// Total displacement (sum of |Δx| + |Δy|) from the input placement.
    pub total_displacement: f64,
}

impl RowLegalizer {
    /// Creates a legalizer for `rows` rows across `die`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn new(die: Rect, rows: usize) -> Self {
        assert!(rows >= 1, "need at least one row");
        RowLegalizer { die, rows }
    }

    /// Center y of row `r`.
    pub fn row_y(&self, r: usize) -> f64 {
        self.die.y0 + self.die.height() * (r as f64 + 0.5) / self.rows as f64
    }

    /// Legalizes `placement`: assigns each cell to the nearest row with
    /// free capacity (capacity = die width, cell width = its area /
    /// row height), then packs each row left-to-right in coarse-x order.
    ///
    /// Cell footprints are area-proportional: width = area / row_height,
    /// so total area capacity matches the die. Cells keep their relative
    /// x order within a row; rows overflow to the next-nearest row.
    pub fn legalize(&self, h: &Hypergraph, placement: &Placement) -> LegalizedPlacement {
        let row_height = self.die.height() / self.rows as f64;
        let capacity = self.die.width();
        let mut row_used = vec![0.0f64; self.rows];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); self.rows];
        let mut row_of = vec![0usize; h.num_vertices()];

        // Greedy assignment in descending area (big cells first, the
        // standard packing heuristic).
        let mut order: Vec<VertexId> = h.vertices().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(h.vertex_weight(v)));
        for v in order {
            let width = cell_width(h, v, row_height);
            let y = placement.position(v).y;
            let nearest = (((y - self.die.y0) / row_height - 0.5).round() as i64)
                .clamp(0, self.rows as i64 - 1) as usize;
            // Try rows in order of distance from the nearest.
            let mut chosen = None;
            for offset in 0..self.rows as i64 {
                for candidate in [nearest as i64 - offset, nearest as i64 + offset] {
                    if (0..self.rows as i64).contains(&candidate) {
                        let r = candidate as usize;
                        if row_used[r] + width <= capacity {
                            chosen = Some(r);
                            break;
                        }
                    }
                }
                if chosen.is_some() {
                    break;
                }
            }
            // If every row is "full" (over-utilized die), spill into the
            // least-used row rather than failing.
            let r = chosen.unwrap_or_else(|| {
                match row_used
                    .iter()
                    .enumerate()
                    .min_by(|a, b| by_value(*a.1, *b.1))
                {
                    Some((i, _)) => i,
                    None => unreachable!("rows >= 1"),
                }
            });
            row_used[r] += width;
            members[r].push(v);
            row_of[v.index()] = r;
        }

        // Pack each row left-to-right in coarse-x order.
        let mut legal = Placement::new(h.num_vertices());
        let mut total_displacement = 0.0;
        for (r, row_members) in members.iter_mut().enumerate() {
            row_members
                .sort_by(|&a, &b| by_value(placement.position(a).x, placement.position(b).x));
            // Position-preserving packing: each cell goes as close to its
            // coarse x as the already-packed prefix allows, then the whole
            // row is shifted left if it overflowed the right edge.
            let mut cursor = self.die.x0;
            let mut placed: Vec<(VertexId, f64, f64)> = Vec::with_capacity(row_members.len());
            for &v in row_members.iter() {
                let width = cell_width(h, v, row_height);
                let desired_left = placement.position(v).x - width / 2.0;
                let left = desired_left.max(cursor);
                placed.push((v, left, width));
                cursor = left + width;
            }
            if cursor > self.die.x1 {
                // The row ran past the right edge: right-to-left pass that
                // clamps each cell against the cell after it (or the die
                // edge). If the row's total width exceeds the die width
                // (overfull spill case) the leftmost cells stop at x0 and
                // may overlap — capacity-checked assignment above makes
                // that possible only when the whole die is over-utilized.
                let mut right = self.die.x1;
                for entry in placed.iter_mut().rev() {
                    let left = (right - entry.2).min(entry.1).max(self.die.x0);
                    entry.1 = left;
                    right = left;
                }
            }
            for (v, left, width) in placed {
                let target = Point::new(left + width / 2.0, self.row_y(r));
                let coarse = placement.position(v);
                total_displacement += (target.x - coarse.x).abs() + (target.y - coarse.y).abs();
                legal.set_position(v, target);
            }
        }
        LegalizedPlacement {
            placement: legal,
            row_of,
            total_displacement,
        }
    }
}

/// Orders two coordinates or row loads, which are never NaN.
fn by_value(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(order) => order,
        None => unreachable!("coordinates and row loads are never NaN"),
    }
}

fn cell_width(h: &Hypergraph, v: VertexId, row_height: f64) -> f64 {
    (h.vertex_weight(v) as f64 / row_height).max(f64::EPSILON)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::placer::{PlacerConfig, TopDownPlacer};
    use hypart_benchgen::mcnc_like;

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 50.0)
    }

    #[test]
    fn rows_are_respected_and_disjoint() {
        let h = mcnc_like(64, 2);
        let coarse = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 1);
        let legalizer = RowLegalizer::new(die(), 5);
        let legal = legalizer.legalize(&h, &coarse);

        // Every cell sits exactly on a row center line.
        for (v, p) in legal.placement.iter() {
            let r = legal.row_of[v.index()];
            assert!((p.y - legalizer.row_y(r)).abs() < 1e-9);
        }
        // Within a row, footprints do not overlap.
        let row_height = die().height() / 5.0;
        for r in 0..5 {
            let mut spans: Vec<(f64, f64)> = legal
                .placement
                .iter()
                .filter(|(v, _)| legal.row_of[v.index()] == r)
                .map(|(v, p)| {
                    let w = h.vertex_weight(v) as f64 / row_height;
                    (p.x - w / 2.0, p.x + w / 2.0)
                })
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            for pair in spans.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0 + 1e-9,
                    "row {r}: spans overlap: {pair:?}"
                );
            }
            for &(l, rr) in &spans {
                assert!(
                    l >= die().x0 - 1e-9 && rr <= die().x1 + 1e-9,
                    "row {r}: span [{l}, {rr}] escapes the die"
                );
            }
        }
    }

    #[test]
    fn displacement_is_reported() {
        let h = mcnc_like(32, 1);
        let coarse = TopDownPlacer::new(PlacerConfig::default()).run(&h, die(), 1);
        let legal = RowLegalizer::new(die(), 4).legalize(&h, &coarse);
        assert!(legal.total_displacement >= 0.0);
        assert!(legal.total_displacement.is_finite());
    }

    #[test]
    fn overfull_die_spills_without_panicking() {
        // Total area 1000 in a 100x10 die with 1 row: capacity 100 width
        // units at row height 10 = area 1000 exactly; add more to overflow.
        let mut b = hypart_hypergraph::HypergraphBuilder::new();
        b.add_vertices(30, 50);
        let h = b.build().unwrap();
        let small_die = Rect::new(0.0, 0.0, 100.0, 10.0);
        let coarse = Placement::new(h.num_vertices());
        let legal = RowLegalizer::new(small_die, 1).legalize(&h, &coarse);
        assert_eq!(legal.placement.len(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        let _ = RowLegalizer::new(die(), 0);
    }
}
