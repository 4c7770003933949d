//! Element (re)ordering.
//!
//! The assembly's irreducible memory traffic is the indirect nodal
//! gather/scatter, and its cache behaviour is governed by *element order*:
//! consecutive elements that share nodes reuse cache lines. Structured
//! generators emit a reasonably local order; this module provides
//! space-filling-curve reordering (better locality), random shuffling
//! (worst case), and the permutation plumbing. The audit's
//! `shard-mismatch` seed and the shard tests reorder a mesh by Morton; the
//! mesh property tests take every order as an input.

use crate::tet::TetMesh;

/// Reordering strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementOrder {
    /// Generator order (lexicographic over the structured grid).
    Natural,
    /// Morton (Z-curve) order of element centroids.
    Morton,
    /// Deterministic pseudo-random shuffle (locality destroyed).
    Random,
}

impl ElementOrder {
    /// All orderings, for sweeps.
    pub const ALL: [ElementOrder; 3] = [
        ElementOrder::Natural,
        ElementOrder::Morton,
        ElementOrder::Random,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ElementOrder::Natural => "natural",
            ElementOrder::Morton => "morton",
            ElementOrder::Random => "random",
        }
    }
}

/// Computes the element permutation for an ordering: `perm[i]` is the old
/// index of the element placed at new position `i`.
pub fn element_permutation(mesh: &TetMesh, order: ElementOrder) -> Vec<u32> {
    let ne = mesh.num_elements();
    let mut perm: Vec<u32> = (0..ne as u32).collect();
    match order {
        ElementOrder::Natural => {}
        ElementOrder::Morton => {
            let (lo, hi) = mesh.bounding_box().unwrap_or(([0.0; 3], [1.0; 3]));
            let keys: Vec<u64> = (0..ne)
                .map(|e| {
                    let c = mesh.element_centroid(e);
                    morton_key(c, lo, hi)
                })
                .collect();
            perm.sort_by_key(|&e| keys[e as usize]);
        }
        ElementOrder::Random => {
            // Fisher–Yates with a fixed xorshift stream.
            let mut s = 0x5DEECE66Du64;
            for i in (1..ne).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let j = (s % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
        }
    }
    perm
}

/// Applies an element permutation, producing the reordered mesh.
pub fn reorder_elements(mesh: &TetMesh, perm: &[u32]) -> TetMesh {
    assert_eq!(perm.len(), mesh.num_elements());
    let connectivity = perm.iter().map(|&old| mesh.element(old as usize)).collect();
    TetMesh::from_raw(mesh.coords().to_vec(), connectivity)
}

/// 21-bit-per-axis Morton (Z-order) key of a point within a bounding box.
pub fn morton_key(p: [f64; 3], lo: [f64; 3], hi: [f64; 3]) -> u64 {
    let mut key = 0u64;
    let mut q = [0u64; 3];
    for d in 0..3 {
        let span = (hi[d] - lo[d]).max(f64::MIN_POSITIVE);
        let t = ((p[d] - lo[d]) / span).clamp(0.0, 1.0);
        q[d] = (t * ((1u64 << 21) - 1) as f64) as u64;
    }
    for bit in 0..21 {
        for (d, &qd) in q.iter().enumerate() {
            key |= ((qd >> bit) & 1) << (3 * bit + d);
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;

    #[test]
    fn permutations_are_bijections() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        for order in ElementOrder::ALL {
            let perm = element_permutation(&mesh, order);
            let mut seen = vec![false; perm.len()];
            for &p in &perm {
                assert!(!seen[p as usize], "{order:?}: duplicate {p}");
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn reordered_mesh_is_valid_and_same_volume() {
        let mesh = BoxMeshBuilder::new(4, 3, 5).build();
        for order in ElementOrder::ALL {
            let perm = element_permutation(&mesh, order);
            let reordered = reorder_elements(&mesh, &perm);
            assert!(reordered.validate().is_ok(), "{order:?}");
            assert!((reordered.total_volume() - mesh.total_volume()).abs() < 1e-12);
            assert_eq!(reordered.num_elements(), mesh.num_elements());
        }
    }

    #[test]
    fn natural_is_identity() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let perm = element_permutation(&mesh, ElementOrder::Natural);
        assert!(perm.iter().enumerate().all(|(i, &p)| i as u32 == p));
    }

    #[test]
    fn morton_keys_order_points_hierarchically() {
        let lo = [0.0; 3];
        let hi = [1.0; 3];
        // The lower octant precedes the upper octant.
        let a = morton_key([0.1, 0.1, 0.1], lo, hi);
        let b = morton_key([0.9, 0.9, 0.9], lo, hi);
        assert!(a < b);
        // Equal points tie.
        assert_eq!(a, morton_key([0.1, 0.1, 0.1], lo, hi));
    }

    #[test]
    fn random_shuffle_is_deterministic() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let a = element_permutation(&mesh, ElementOrder::Random);
        let b = element_permutation(&mesh, ElementOrder::Random);
        assert_eq!(a, b);
    }
}
