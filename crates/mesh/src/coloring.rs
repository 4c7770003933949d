//! Greedy element coloring.
//!
//! Two elements that share a node must not scatter to the global RHS
//! concurrently. A coloring of the element conflict graph partitions the
//! elements into classes that can each be processed fully in parallel with
//! plain (non-atomic) stores — the classic race-avoidance strategy for FEM
//! assembly, and one of the parallel drivers exposed by `alya-core`.

use crate::adjacency::ElementGraph;
use crate::tet::TetMesh;

/// A violation of the scatter-safety invariant: two elements assigned the
/// same color share a node, so processing the class in parallel with plain
/// stores would race on that node's RHS entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringConflict {
    /// The color class containing both elements.
    pub color: u32,
    /// The element that claimed the node first (class order).
    pub first: u32,
    /// The element that touched the same node afterwards.
    pub second: u32,
    /// The shared node.
    pub node: u32,
}

impl std::fmt::Display for ColoringConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "elements {} and {} of color {} share node {}",
            self.first, self.second, self.color, self.node
        )
    }
}

/// A proper coloring of the element conflict graph.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// Color of each element.
    color_of: Vec<u32>,
    /// Elements of each color, concatenated; `offsets` delimits classes.
    elements: Vec<u32>,
    offsets: Vec<u32>,
}

impl Coloring {
    /// Greedy first-fit coloring in natural element order.
    ///
    /// For meshes from the structured generators this yields a small number
    /// of colors (bounded by max degree + 1, typically far fewer).
    pub fn greedy(graph: &ElementGraph) -> Self {
        let ne = graph.num_elements();
        let mut color_of = vec![u32::MAX; ne];
        let mut used: Vec<bool> = Vec::new();
        let mut num_colors = 0usize;
        for e in 0..ne {
            used.clear();
            used.resize(num_colors, false);
            for &nb in graph.neighbors_of(e) {
                let c = color_of[nb as usize];
                if c != u32::MAX {
                    used[c as usize] = true;
                }
            }
            let c = used.iter().position(|&u| !u).unwrap_or(num_colors);
            if c == num_colors {
                num_colors += 1;
            }
            color_of[e] = c as u32;
        }

        // Bucket elements by color (stable within a color).
        let mut counts = vec![0u32; num_colors + 1];
        for &c in &color_of {
            counts[c as usize + 1] += 1;
        }
        for i in 0..num_colors {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut elements = vec![0u32; ne];
        for (e, &c) in color_of.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            elements[*slot as usize] = e as u32;
            *slot += 1;
        }

        Self {
            color_of,
            elements,
            offsets,
        }
    }

    /// Number of colors.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Color assigned to element `e`.
    #[inline]
    pub fn color_of(&self, e: usize) -> u32 {
        self.color_of[e]
    }

    /// The elements of color class `c`.
    #[inline]
    pub fn class(&self, c: usize) -> &[u32] {
        let lo = self.offsets[c] as usize;
        let hi = self.offsets[c + 1] as usize;
        &self.elements[lo..hi]
    }

    /// Iterates over all color classes.
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_colors()).map(move |c| self.class(c))
    }

    /// Rebuilds a coloring from an explicit per-element color assignment.
    ///
    /// No properness check is performed — the result may violate the
    /// scatter-safety invariant (that is the point: the static race
    /// detector's negative tests corrupt colorings through this entry).
    pub fn from_color_assignment(color_of: Vec<u32>) -> Self {
        let num_colors = color_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let ne = color_of.len();
        let mut counts = vec![0u32; num_colors + 1];
        for &c in &color_of {
            counts[c as usize + 1] += 1;
        }
        for i in 0..num_colors {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut elements = vec![0u32; ne];
        for (e, &c) in color_of.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            elements[*slot as usize] = e as u32;
            *slot += 1;
        }
        Self {
            color_of,
            elements,
            offsets,
        }
    }

    /// Statically proves the colored-scatter safety contract against the
    /// mesh, or returns the first counterexample: within every color class,
    /// no two elements may share a node. This is exactly the invariant the
    /// colored parallel driver's `unsafe` shared-RHS writes rely on.
    ///
    /// Runs in `O(4 × num_elements)` with a per-node stamp, independent of
    /// the conflict-graph construction the coloring came from — so it also
    /// catches bugs in the adjacency/graph layers, not just in the coloring
    /// heuristic.
    pub fn find_conflict(&self, mesh: &TetMesh) -> Option<ColoringConflict> {
        assert_eq!(
            self.color_of.len(),
            mesh.num_elements(),
            "coloring and mesh element counts differ"
        );
        // stamp[n] = color that last touched node n; owner[n] = the element.
        let mut stamp = vec![u32::MAX; mesh.num_nodes()];
        let mut owner = vec![u32::MAX; mesh.num_nodes()];
        for c in 0..self.num_colors() {
            for &e in self.class(c) {
                for n in mesh.element(e as usize) {
                    if stamp[n as usize] == c as u32 && owner[n as usize] != e {
                        return Some(ColoringConflict {
                            color: c as u32,
                            first: owner[n as usize],
                            second: e,
                            node: n,
                        });
                    }
                    stamp[n as usize] = c as u32;
                    owner[n as usize] = e;
                }
            }
        }
        None
    }

    /// `true` when [`Coloring::find_conflict`] finds no violation.
    pub fn is_race_free(&self, mesh: &TetMesh) -> bool {
        self.find_conflict(mesh).is_none()
    }

    /// Verifies properness against the graph: no two adjacent elements share
    /// a color. Intended for tests and debug assertions.
    pub fn is_proper(&self, graph: &ElementGraph) -> bool {
        (0..graph.num_elements()).all(|e| {
            graph
                .neighbors_of(e)
                .iter()
                .all(|&nb| self.color_of[nb as usize] != self.color_of[e])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::NodeToElements;
    use crate::generator::{BoxMeshBuilder, TerrainMeshBuilder};

    fn color(meshes: &TetMesh) -> (ElementGraph, Coloring) {
        let n2e = NodeToElements::build(meshes);
        let graph = ElementGraph::build(meshes, &n2e);
        let coloring = Coloring::greedy(&graph);
        (graph, coloring)
    }

    #[test]
    fn coloring_is_proper_on_box_mesh() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let (graph, coloring) = color(&mesh);
        assert!(coloring.is_proper(&graph));
    }

    #[test]
    fn coloring_is_proper_on_terrain_mesh() {
        let mesh = TerrainMeshBuilder::new(6, 6, 3).build();
        let (graph, coloring) = color(&mesh);
        assert!(coloring.is_proper(&graph));
    }

    #[test]
    fn classes_partition_all_elements() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let (_, coloring) = color(&mesh);
        let mut seen = vec![false; mesh.num_elements()];
        for class in coloring.classes() {
            for &e in class {
                assert!(!seen[e as usize], "element {e} in two classes");
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn class_and_color_of_agree() {
        let mesh = BoxMeshBuilder::new(3, 2, 2).build();
        let (_, coloring) = color(&mesh);
        for c in 0..coloring.num_colors() {
            for &e in coloring.class(c) {
                assert_eq!(coloring.color_of(e as usize), c as u32);
            }
        }
    }

    #[test]
    fn color_count_bounded_by_max_degree_plus_one() {
        let mesh = BoxMeshBuilder::new(4, 3, 2).build();
        let (graph, coloring) = color(&mesh);
        assert!(coloring.num_colors() <= graph.max_degree() + 1);
        // Greedy on Kuhn meshes stays way below the degree bound in practice.
        assert!(coloring.num_colors() < 64);
    }

    #[test]
    fn single_element_uses_one_color() {
        let mesh = crate::tet::unit_tet();
        let (_, coloring) = color(&mesh);
        assert_eq!(coloring.num_colors(), 1);
        assert_eq!(coloring.class(0), &[0]);
    }

    #[test]
    fn greedy_colorings_are_race_free() {
        for mesh in [
            BoxMeshBuilder::new(4, 3, 2).build(),
            TerrainMeshBuilder::new(5, 5, 3).build(),
        ] {
            let (_, coloring) = color(&mesh);
            assert!(coloring.is_race_free(&mesh));
        }
    }

    #[test]
    fn round_trip_through_color_assignment() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (_, coloring) = color(&mesh);
        let colors: Vec<u32> = (0..mesh.num_elements())
            .map(|e| coloring.color_of(e))
            .collect();
        let rebuilt = Coloring::from_color_assignment(colors);
        assert_eq!(rebuilt.num_colors(), coloring.num_colors());
        for c in 0..coloring.num_colors() {
            assert_eq!(rebuilt.class(c), coloring.class(c));
        }
    }
}
