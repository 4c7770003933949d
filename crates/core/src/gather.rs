//! Tracked gather and scatter through the mesh connectivity.
//!
//! The scattered, indirect nodal accesses are the irreducible memory
//! traffic of FEM assembly — after all optimizations they are what remains
//! (the paper's RSP/RSPR DRAM volume is almost exactly this gather/scatter).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use alya_fem::{ScalarField, VectorField};
use alya_machine::Recorder;

use crate::input::AssemblyInput;
use crate::layout::{self, Layout};
use crate::packs::{Lanes, Pack};

/// The node ids of one batch of elements: `[u32; 4]` for one element,
/// `[[u32; 4]; L]` for `L` elements in lockstep. The field gathers are
/// written once over this; what they return has one lane per element.
pub trait NodeIds {
    /// One gathered value: a lane per element of the batch.
    type Val: Lanes;
    /// Corner `a` of the element in lane `l`.
    fn node(&self, l: usize, a: usize) -> usize;
}

impl NodeIds for [u32; 4] {
    type Val = f64;
    #[inline(always)]
    fn node(&self, _l: usize, a: usize) -> usize {
        self[a] as usize
    }
}

impl<const L: usize> NodeIds for [[u32; 4]; L] {
    type Val = Pack<L>;
    #[inline(always)]
    fn node(&self, l: usize, a: usize) -> usize {
        self[l][a] as usize
    }
}

/// Loads the four node ids of element `e`.
#[inline]
pub fn gather_conn<R: Recorder>(
    input: &AssemblyInput,
    e: usize,
    layout: &Layout,
    rec: &mut R,
) -> [u32; 4] {
    if R::ENABLED {
        for a in 0..4 {
            rec.gload(layout.conn(e, a));
        }
    }
    input.mesh.element(e)
}

/// Loads the node ids of `L` elements. Like every access of a batch, the
/// load is recorded once, at lane 0's addresses.
#[inline]
pub fn gather_conn_lanes<const L: usize, R: Recorder>(
    input: &AssemblyInput,
    elems: &[usize; L],
    layout: &Layout,
    rec: &mut R,
) -> [[u32; 4]; L] {
    let mut nodes = [gather_conn(input, elems[0], layout, rec); L];
    for l in 1..L {
        nodes[l] = input.mesh.element(elems[l]);
    }
    nodes
}

/// Gathers the four node coordinates (12 loads): `out[a][d]`.
#[inline]
pub fn gather_coords<N: NodeIds, R: Recorder>(
    input: &AssemblyInput,
    nodes: &N,
    layout: &Layout,
    rec: &mut R,
) -> [[N::Val; 3]; 4] {
    let coords = input.mesh.coords();
    let mut out = [[N::Val::splat(0.0); 3]; 4];
    for a in 0..4 {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::COORD_BASE, nodes.node(0, a), d));
            }
        }
        for d in 0..3 {
            out[a][d] = N::Val::from_fn(|l| coords[nodes.node(l, a)][d]);
        }
    }
    out
}

/// Gathers the four nodal velocities (12 loads): `out[a][d]`.
#[inline]
pub fn gather_velocity<N: NodeIds, R: Recorder>(
    input: &AssemblyInput,
    nodes: &N,
    layout: &Layout,
    rec: &mut R,
) -> [[N::Val; 3]; 4] {
    let mut out = [[N::Val::splat(0.0); 3]; 4];
    for a in 0..4 {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::VEL_BASE, nodes.node(0, a), d));
            }
        }
        for d in 0..3 {
            let vel = input.velocity.component(d);
            out[a][d] = N::Val::from_fn(|l| vel[nodes.node(l, a)]);
        }
    }
    out
}

/// Gathers a nodal scalar field (4 loads): `out[a]`.
#[inline]
pub fn gather_scalar<N: NodeIds, R: Recorder>(
    field: &ScalarField,
    base: u64,
    nodes: &N,
    layout: &Layout,
    rec: &mut R,
) -> [N::Val; 4] {
    let mut out = [N::Val::splat(0.0); 4];
    for a in 0..4 {
        if R::ENABLED {
            rec.gload(layout.nodal_scalar(base, nodes.node(0, a)));
        }
        out[a] = N::Val::from_fn(|l| field.get(nodes.node(l, a)));
    }
    out
}

/// Where elemental RHS contributions go.
///
/// The drivers provide sinks with different concurrency disciplines
/// (serial read-modify-write, colored direct writes, per-worker buffers);
/// the kernels only see `add`.
pub trait ScatterSink {
    /// Accumulates `v` into component `d` of node `n`.
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, layout: &Layout, rec: &mut R);
}

/// Plain serial sink over the global RHS (read-modify-write: one load and
/// one store per component, the traffic an atomic reduction pays too).
pub struct DirectSink<'a> {
    /// The global RHS being assembled.
    pub rhs: &'a mut VectorField,
}

impl ScatterSink for DirectSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, layout: &Layout, rec: &mut R) {
        if R::ENABLED {
            let addr = layout.nodal_vec(layout::RHS_BASE, n as usize, d);
            rec.gload(addr);
            rec.gstore(addr);
            rec.flop(1);
        }
        let slice = self.rhs.component_mut(d);
        slice[n as usize] += v;
    }
}

/// RHS slots one element's scatter touches: 4 nodes × 3 components. The
/// read-modify-write scatter performs exactly this many global loads and
/// this many global stores, for every variant.
pub const fn rhs_slots_per_element() -> u64 {
    4 * 3
}

/// Scatters a full elemental RHS (4 nodes × 3 components).
#[inline]
pub fn scatter_elemental<R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[u32; 4],
    elrhs: &[[f64; 3]; 4],
    layout: &Layout,
    rec: &mut R,
) {
    scatter_nth(sink, nodes, elrhs, 0, layout, rec);
}

/// Scatters lane `l` of a batch's elemental RHS to that lane's `nodes`,
/// node-major / component-minor. Scattering the lanes in ascending order
/// accumulates the global RHS exactly as one-lane runs over the same
/// elements in that order would.
#[inline]
pub fn scatter_nth<V: Lanes, R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[u32; 4],
    elrhs: &[[V; 3]; 4],
    l: usize,
    layout: &Layout,
    rec: &mut R,
) {
    for (a, &n) in nodes.iter().enumerate() {
        for d in 0..3 {
            sink.add(n, d, elrhs[a][d].lane(l), layout, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_fem::{ScalarField, VectorField};
    use alya_machine::{NoRecord, TraceRecorder};
    use alya_mesh::BoxMeshBuilder;

    fn setup() -> (alya_mesh::TetMesh, VectorField, ScalarField, ScalarField) {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let v = VectorField::from_fn(&mesh, |p| [p[0], p[1], p[2]]);
        let p = ScalarField::from_fn(&mesh, |q| q[0] + q[1]);
        let t = ScalarField::zeros(mesh.num_nodes());
        (mesh, v, p, t)
    }

    #[test]
    fn gather_matches_fields() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let nodes = gather_conn(&input, 5, &layout, &mut NoRecord);
        assert_eq!(nodes, mesh.element(5));
        let coords = gather_coords(&input, &nodes, &layout, &mut NoRecord);
        assert_eq!(coords, mesh.element_coords(5));
        let vel = gather_velocity(&input, &nodes, &layout, &mut NoRecord);
        for a in 0..4 {
            assert_eq!(vel[a], v.get(nodes[a] as usize));
        }
    }

    #[test]
    fn gather_emits_expected_load_counts() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let mut rec = TraceRecorder::new();
        let nodes = gather_conn(&input, 0, &layout, &mut rec);
        let _ = gather_coords(&input, &nodes, &layout, &mut rec);
        let _ = gather_velocity(&input, &nodes, &layout, &mut rec);
        let _ = gather_scalar(&p, layout::PRES_BASE, &nodes, &layout, &mut rec);
        assert_eq!(rec.counts().global_loads, 4 + 12 + 12 + 4);
    }

    #[test]
    fn scatter_accumulates() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let nodes = gather_conn(&input, 0, &layout, &mut NoRecord);
        let mut rhs = VectorField::zeros(mesh.num_nodes());
        let mut sink = DirectSink { rhs: &mut rhs };
        let elrhs = [[1.0, 2.0, 3.0]; 4];
        scatter_elemental(&mut sink, &nodes, &elrhs, &layout, &mut NoRecord);
        scatter_elemental(&mut sink, &nodes, &elrhs, &layout, &mut NoRecord);
        for &n in &nodes {
            assert_eq!(rhs.get(n as usize), [2.0, 4.0, 6.0]);
        }
    }

    #[test]
    fn scatter_emits_rmw_traffic() {
        let (mesh, v, p, t) = setup();
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let layout = Layout::cpu(0, 16, mesh.num_nodes());
        let nodes = gather_conn(&input, 0, &layout, &mut NoRecord);
        let mut rhs = VectorField::zeros(mesh.num_nodes());
        let mut sink = DirectSink { rhs: &mut rhs };
        let mut rec = TraceRecorder::new();
        scatter_elemental(&mut sink, &nodes, &[[0.5; 3]; 4], &layout, &mut rec);
        let c = rec.counts();
        assert_eq!(c.global_loads, 12);
        assert_eq!(c.global_stores, 12);
    }
}
