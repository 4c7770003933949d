//! Tracked gather and scatter through the mesh connectivity.
//!
//! The scattered, indirect nodal accesses are the irreducible memory
//! traffic of FEM assembly — after all optimizations they are what remains
//! (the paper's RSP/RSPR DRAM volume is almost exactly this gather/scatter).

use alya_fem::{ScalarField, VectorField};
use alya_machine::Recorder;

use crate::input::AssemblyInput;
use crate::layout::{self, Layout};

/// Loads the four node ids of element `e`.
// alya:hot
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

/// Gathers the four node coordinates (12 loads).
// alya:hot
#[inline]
pub fn gather_coords<R: Recorder>(
    input: &AssemblyInput,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [[f64; 3]; 4] {
    let coords = input.mesh.coords();
    let mut out = [[0.0; 3]; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::COORD_BASE, n as usize, d));
            }
        }
        out[a] = coords[n as usize];
    }
    out
}

/// Gathers the four nodal velocities (12 loads).
// alya:hot
#[inline]
pub fn gather_velocity<R: Recorder>(
    input: &AssemblyInput,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [[f64; 3]; 4] {
    let mut out = [[0.0; 3]; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            for d in 0..3 {
                rec.gload(layout.nodal_vec(layout::VEL_BASE, n as usize, d));
            }
        }
        out[a] = input.velocity.get(n as usize);
    }
    out
}

/// Gathers a nodal scalar field (4 loads).
// alya:hot
#[inline]
pub fn gather_scalar<R: Recorder>(
    field: &ScalarField,
    base: u64,
    nodes: &[u32; 4],
    layout: &Layout,
    rec: &mut R,
) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (a, &n) in nodes.iter().enumerate() {
        if R::ENABLED {
            rec.gload(layout.nodal_scalar(base, n as usize));
        }
        out[a] = field.get(n as usize);
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

// alya:hot
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
// alya:hot
#[inline]
pub fn scatter_elemental<R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[u32; 4],
    elrhs: &[[f64; 3]; 4],
    layout: &Layout,
    rec: &mut R,
) {
    for (a, &n) in nodes.iter().enumerate() {
        for d in 0..3 {
            sink.add(n, d, elrhs[a][d], layout, rec);
        }
    }
}

// ---- Pack-granularity gathers (the AoSoA execution path) -------------------
//
// The packed kernels gather whole lanes at once: `out[a][d][lane]` — the
// node-major, component-middle, lane-minor layout every packed intermediate
// uses. Untracked: the packed path is pure execution (the models replay the
// scalar kernels), so there is no recorder parameter to thread.

/// Loads the node ids of `L` elements (pack connectivity gather).
// alya:hot
#[inline]
pub fn gather_conn_pack<const L: usize>(
    input: &AssemblyInput,
    elems: &[usize; L],
) -> [[u32; 4]; L] {
    let mut out = [[0u32; 4]; L];
    for l in 0..L {
        out[l] = input.mesh.element(elems[l]);
    }
    out
}

/// Gathers node coordinates for a pack: `out[a][d][lane]`.
// alya:hot
#[inline]
pub fn gather_coords_pack<const L: usize>(
    input: &AssemblyInput,
    conns: &[[u32; 4]; L],
) -> [[[f64; L]; 3]; 4] {
    let coords = input.mesh.coords();
    let mut out = [[[0.0; L]; 3]; 4];
    for a in 0..4 {
        for l in 0..L {
            let c = coords[conns[l][a] as usize];
            for d in 0..3 {
                out[a][d][l] = c[d];
            }
        }
    }
    out
}

/// Gathers nodal velocities for a pack: `out[a][d][lane]`.
// alya:hot
#[inline]
pub fn gather_velocity_pack<const L: usize>(
    input: &AssemblyInput,
    conns: &[[u32; 4]; L],
) -> [[[f64; L]; 3]; 4] {
    let mut out = [[[0.0; L]; 3]; 4];
    for a in 0..4 {
        for l in 0..L {
            let v = input.velocity.get(conns[l][a] as usize);
            for d in 0..3 {
                out[a][d][l] = v[d];
            }
        }
    }
    out
}

/// Gathers a nodal scalar field for a pack: `out[a][lane]`.
// alya:hot
#[inline]
pub fn gather_scalar_pack<const L: usize>(
    field: &ScalarField,
    conns: &[[u32; 4]; L],
) -> [[f64; L]; 4] {
    let mut out = [[0.0; L]; 4];
    for a in 0..4 {
        for l in 0..L {
            out[a][l] = field.get(conns[l][a] as usize);
        }
    }
    out
}

/// Scatters lane `l` of a completed pack RHS, node-major /
/// component-minor — exactly the order the scalar kernels scatter that
/// element in, so a driver that walks the lanes in ascending order
/// accumulates the global RHS bitwise identically to its scalar twin.
// alya:hot
#[inline]
pub fn scatter_lane<const L: usize, R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[u32; 4],
    elrhs: &[[[f64; L]; 3]; 4],
    l: usize,
    layout: &Layout,
    rec: &mut R,
) {
    for (a, &n) in nodes.iter().enumerate() {
        for d in 0..3 {
            sink.add(n, d, elrhs[a][d][l], layout, rec);
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
