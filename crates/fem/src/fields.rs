//! Nodal field containers.
//!
//! Velocity, pressure and the assembled RHS live on mesh nodes. Vector
//! fields are stored component-blocked (`[all-x, all-y, all-z]`), matching
//! the layout the assembly kernels gather from and scatter to.

use alya_mesh::TetMesh;

/// A scalar field with one value per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    values: Vec<f64>,
}

impl ScalarField {
    /// Zero field on `n` nodes.
    pub fn zeros(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
        }
    }

    /// Builds from raw values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Field defined by a function of the node position.
    pub fn from_fn(mesh: &TetMesh, f: impl Fn([f64; 3]) -> f64) -> Self {
        Self {
            values: mesh.coords().iter().map(|&p| f(p)).collect(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the field has no nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at node `n`.
    #[inline]
    pub fn get(&self, n: usize) -> f64 {
        self.values[n]
    }

    /// Sets the value at node `n`.
    #[inline]
    pub fn set(&mut self, n: usize, v: f64) {
        self.values[n] = v;
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

/// A 3-component vector field, component-blocked: component `d` of node `n`
/// is stored at `d * num_nodes + n`.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    values: Vec<f64>,
    num_nodes: usize,
}

impl VectorField {
    /// Zero field on `n` nodes.
    pub fn zeros(n: usize) -> Self {
        Self {
            values: vec![0.0; 3 * n],
            num_nodes: n,
        }
    }

    /// Field defined by a function of the node position.
    pub fn from_fn(mesh: &TetMesh, f: impl Fn([f64; 3]) -> [f64; 3]) -> Self {
        let mut field = Self::zeros(mesh.num_nodes());
        for (i, &p) in mesh.coords().iter().enumerate() {
            field.set(i, f(p));
        }
        field
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The full component-blocked storage (length `3 × num_nodes`).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable full storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The block of component `d` (length `num_nodes`).
    #[inline]
    pub fn component(&self, d: usize) -> &[f64] {
        &self.values[d * self.num_nodes..(d + 1) * self.num_nodes]
    }

    /// Mutable component block.
    #[inline]
    pub fn component_mut(&mut self, d: usize) -> &mut [f64] {
        &mut self.values[d * self.num_nodes..(d + 1) * self.num_nodes]
    }

    /// Vector value at node `n`.
    #[inline]
    pub fn get(&self, n: usize) -> [f64; 3] {
        [
            self.values[n],
            self.values[self.num_nodes + n],
            self.values[2 * self.num_nodes + n],
        ]
    }

    /// Sets the vector value at node `n`.
    #[inline]
    pub fn set(&mut self, n: usize, v: [f64; 3]) {
        self.values[n] = v[0];
        self.values[self.num_nodes + n] = v[1];
        self.values[2 * self.num_nodes + n] = v[2];
    }

    /// Adds `v` to node `n`.
    #[inline]
    pub fn add(&mut self, n: usize, v: [f64; 3]) {
        self.values[n] += v[0];
        self.values[self.num_nodes + n] += v[1];
        self.values[2 * self.num_nodes + n] += v[2];
    }

    /// Fills the field with zeros (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.values.fill(0.0);
    }

    /// Euclidean norm over all components.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute component value.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Maximum absolute difference to another field.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.num_nodes, other.num_nodes);
        self.values
            .iter()
            .zip(&other.values)
            .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Total kinetic energy `½ Σ |u|²` (nodal, unweighted).
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.values.iter().map(|v| v * v).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_mesh::BoxMeshBuilder;

    #[test]
    fn scalar_field_roundtrip() {
        let mut f = ScalarField::zeros(5);
        assert_eq!(f.len(), 5);
        f.set(3, 2.5);
        assert_eq!(f.get(3), 2.5);
        assert_eq!(f.max_abs(), 2.5);
    }

    #[test]
    fn scalar_from_fn_samples_coordinates() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let f = ScalarField::from_fn(&mesh, |p| p[0] + 2.0 * p[1]);
        for (n, &p) in mesh.coords().iter().enumerate() {
            assert!((f.get(n) - (p[0] + 2.0 * p[1])).abs() < 1e-15);
        }
    }

    #[test]
    fn vector_field_blocked_layout() {
        let mut v = VectorField::zeros(4);
        v.set(1, [1.0, 2.0, 3.0]);
        assert_eq!(v.get(1), [1.0, 2.0, 3.0]);
        assert_eq!(v.component(0)[1], 1.0);
        assert_eq!(v.component(1)[1], 2.0);
        assert_eq!(v.component(2)[1], 3.0);
        assert_eq!(v.as_slice().len(), 12);
    }

    #[test]
    fn vector_add_accumulates() {
        let mut v = VectorField::zeros(2);
        v.add(0, [1.0, 0.0, -1.0]);
        v.add(0, [0.5, 2.0, 1.0]);
        assert_eq!(v.get(0), [1.5, 2.0, 0.0]);
    }

    #[test]
    fn norms_and_diffs() {
        let mut a = VectorField::zeros(2);
        let mut b = VectorField::zeros(2);
        a.set(0, [3.0, 0.0, 4.0]);
        b.set(0, [3.0, 1.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-15);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-15);
        assert!((a.kinetic_energy() - 12.5).abs() < 1e-15);
    }

    #[test]
    fn fill_zero_resets() {
        let mut v = VectorField::zeros(3);
        v.set(2, [1.0, 1.0, 1.0]);
        v.fill_zero();
        assert_eq!(v.norm(), 0.0);
    }
}
