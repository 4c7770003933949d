//! Pass 2 — the scatter race detector.
//!
//! The parallel drivers in `alya-core::drivers` scatter elemental
//! contributions through raw pointers (`SharedRhs`), and each `unsafe`
//! site rests on one statically provable invariant:
//!
//! * **colored scatter** — *no two elements of one color class share a
//!   node*, so concurrently processed elements write disjoint RHS slots.
//!   Proven by a per-node stamp sweep
//!   ([`alya_mesh::Coloring::find_conflict`]) — O(4·ne), independent of
//!   the element adjacency graph, so it also catches bugs *in* the graph
//!   construction that a graph-level properness check would inherit.
//! * **sharded interior writeback** — a node classified *interior* to a
//!   shard is touched by no element of any other shard, so plain
//!   unsynchronized stores from concurrent shards never alias. Proven by
//!   [`alya_mesh::ShardSet::validate`], which additionally proves the
//!   compact local↔global maps are mutually consistent, every element
//!   belongs to exactly one shard, each shard's elements are ascending,
//!   and the boundary replay covers every pair slot once in ascending
//!   element id — what makes the sharded RHS the serial one bit for bit.

use alya_mesh::{Coloring, ColoringConflict, Partition, ShardSet, TetMesh};

/// Outcome of the race check for one mesh/coloring pair.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Elements checked.
    pub num_elements: usize,
    /// Color classes checked.
    pub num_colors: usize,
    /// The first conflict found, if any: two same-color elements sharing a
    /// node — a data race in the colored scatter.
    pub conflict: Option<ColoringConflict>,
}

impl RaceReport {
    /// Whether the coloring is safe to scatter in parallel.
    pub fn is_race_free(&self) -> bool {
        self.conflict.is_none()
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.conflict {
            None => write!(
                f,
                "race-free: {} elements in {} color classes, no shared node within any class",
                self.num_elements, self.num_colors
            ),
            Some(c) => write!(f, "RACE: {c}"),
        }
    }
}

/// Checks one coloring of one mesh.
pub fn check_coloring(mesh: &TetMesh, coloring: &Coloring) -> RaceReport {
    RaceReport {
        num_elements: mesh.num_elements(),
        num_colors: coloring.num_colors(),
        conflict: coloring.find_conflict(mesh),
    }
}

/// Builds the production greedy coloring for `mesh` (the one
/// `ParallelStrategy::colored` uses) and checks it.
pub fn check_mesh(mesh: &TetMesh) -> RaceReport {
    use alya_mesh::adjacency::{ElementGraph, NodeToElements};
    let n2e = NodeToElements::build(mesh);
    let graph = ElementGraph::build(mesh, &n2e);
    check_coloring(mesh, &Coloring::greedy(&graph))
}

/// Outcome of the sharded-scatter invariant check for one mesh/shard-set
/// pair.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shards checked.
    pub num_shards: usize,
    /// Elements covered.
    pub num_elements: usize,
    /// Boundary-node slots across shards (an interface node counts once
    /// per shard touching it).
    pub boundary_slots: usize,
    /// The first violated invariant, if any — aliasing interior writes or
    /// inconsistent compact maps, a data race or corruption in the sharded
    /// scatter.
    pub violation: Option<String>,
}

impl ShardReport {
    /// Whether the shard set is safe for unsynchronized interior writeback.
    pub fn is_valid(&self) -> bool {
        self.violation.is_none()
    }
}

impl std::fmt::Display for ShardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.violation {
            None => write!(
                f,
                "shard-safe: {} elements in {} shards, {} boundary slots, interior writes exclusive, replay in serial order",
                self.num_elements, self.num_shards, self.boundary_slots
            ),
            Some(v) => write!(f, "SHARD VIOLATION: {v}"),
        }
    }
}

/// Checks one shard set against one mesh.
pub fn check_shard_set(mesh: &TetMesh, set: &ShardSet) -> ShardReport {
    ShardReport {
        num_shards: set.num_shards(),
        num_elements: mesh.num_elements(),
        boundary_slots: set.total_boundary_slots(),
        violation: set.validate(mesh).err(),
    }
}

/// Builds the production shard set for `mesh` with `shards` parts (the one
/// `ParallelStrategy::sharded` uses) and checks it.
pub fn check_mesh_shards(mesh: &TetMesh, shards: usize) -> ShardReport {
    let partition = Partition::rcb(mesh, shards);
    check_shard_set(mesh, &ShardSet::build(mesh, &partition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;
    use alya_mesh::{ordering, BoxMeshBuilder, Rng64};

    #[test]
    fn greedy_colorings_of_random_meshes_are_race_free() {
        assert!(check_mesh(&Fixture::new().mesh).is_race_free());
        let mut rng = Rng64::new(0x4ACE01);
        for _ in 0..12 {
            let nx = rng.range_usize(1, 6);
            let ny = rng.range_usize(1, 5);
            let nz = rng.range_usize(1, 5);
            let jitter = rng.range_f64(0.0, 0.25);
            let seed = rng.next_u64() % 1000;
            let mesh = BoxMeshBuilder::new(nx, ny, nz)
                .jitter(jitter)
                .seed(seed)
                .build();
            let report = check_mesh(&mesh);
            assert!(report.is_race_free(), "{report}");
            assert_eq!(report.num_elements, mesh.num_elements());
        }
    }

    #[test]
    fn corrupted_coloring_is_rejected_with_a_witness() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let report = check_mesh(&mesh);
        assert!(report.is_race_free());
        // Merge every class into one: neighbours now collide.
        let all_one = Coloring::from_color_assignment(vec![0; mesh.num_elements()]);
        let bad = check_coloring(&mesh, &all_one);
        assert!(!bad.is_race_free());
        let c = bad.conflict.unwrap();
        // The witness is genuine: both elements really contain the node.
        let conn = mesh.connectivity();
        assert!(conn[c.first as usize].contains(&c.node));
        assert!(conn[c.second as usize].contains(&c.node));
        assert_eq!(c.color, 0);
    }

    #[test]
    fn production_shard_sets_are_valid_and_mismatches_are_caught() {
        assert!(check_mesh_shards(&Fixture::new().mesh, 8).is_valid());
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(5).build();
        for shards in [1, 2, 8] {
            let report = check_mesh_shards(&mesh, shards);
            assert!(report.is_valid(), "{report}");
            assert_eq!(report.num_shards, shards);
            assert_eq!(report.num_elements, mesh.num_elements());
        }
        // A shard set validated against the wrong mesh must be rejected.
        let set = ShardSet::build(&mesh, &Partition::rcb(&mesh, 4));
        let other = BoxMeshBuilder::new(2, 2, 2).build();
        let bad = check_shard_set(&other, &set);
        assert!(!bad.is_valid());
        assert!(bad.to_string().contains("SHARD VIOLATION"));
        // So must a stale set that survived a Morton reorder of its own
        // mesh: same counts, but the compact connectivity no longer
        // matches.
        let perm = ordering::element_permutation(&mesh, ordering::ElementOrder::Morton);
        let reordered = ordering::reorder_elements(&mesh, &perm);
        assert!(!check_shard_set(&reordered, &set).is_valid());
    }

    #[test]
    fn single_element_swap_is_caught() {
        let mut rng = Rng64::new(0x4ACE02);
        for _ in 0..8 {
            let seed = rng.next_u64() % 100;
            let mesh = BoxMeshBuilder::new(3, 2, 3).jitter(0.1).seed(seed).build();
            use alya_mesh::adjacency::{ElementGraph, NodeToElements};
            let n2e = NodeToElements::build(&mesh);
            let graph = ElementGraph::build(&mesh, &n2e);
            let good = Coloring::greedy(&graph);
            // Move one element into a neighbour's class.
            let mut color_of: Vec<u32> =
                (0..mesh.num_elements()).map(|e| good.color_of(e)).collect();
            let victim = rng.range_usize(0, mesh.num_elements());
            let neighbour = graph.neighbors_of(victim)[0] as usize;
            color_of[victim] = color_of[neighbour];
            let class = color_of[victim];
            let bad = Coloring::from_color_assignment(color_of);
            let report = check_coloring(&mesh, &bad);
            let c = report
                .conflict
                .unwrap_or_else(|| panic!("swap of element {victim} undetected"));
            // The witness names the class the victim joined and a node
            // both of its elements really contain.
            assert_eq!(c.color, class);
            let conn = mesh.connectivity();
            assert!(conn[c.first as usize].contains(&c.node));
            assert!(conn[c.second as usize].contains(&c.node));
        }
    }
}
