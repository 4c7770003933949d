//! Scaffolding shared by the kernel variants.
//!
//! The four kernels repeat two kinds of code verbatim: the
//! array-style kernels (B, RS) share their gather prefix and their
//! scatter readback, and the scalar-private kernels (RSP, RSPR) share the
//! whole specialized prologue — gather into tracked privates, constant
//! geometry, velocity gradient, on-the-fly Vreman — plus the per-point
//! convection vector, the mean-pressure/effective-viscosity pair, and the
//! diffusion flux contraction. These helpers are those pieces, factored
//! once.
//!
//! They must be *bitwise* and *event-stream* neutral: every caller's
//! recorded trace is pinned by the contract checker (pass 1), by the
//! IR-derivation checker (pass 10), and by the bitwise equivalence suite,
//! so a helper that reorders one load or one `Def` fails three audits at
//! once. Helpers take the caller's catalog offsets and its `PrivAlloc` so
//! the address and id sequences are exactly what the inlined code
//! produced. They are `#[inline(always)]`: at eight lanes every value is a
//! 64-byte pack, and a real call boundary would pass and return arrays of
//! them through memory.

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::{self, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels::{ElemRhs, PrivAlloc, Pv, Pvs};
use crate::layout::{self, Layout};
use crate::ops;
use crate::packs::{Lanes, Pack};
use crate::workspace::Ws;

/// Gathers connectivity, coordinates, velocity and pressure into the
/// workspace arrays at the caller's catalog offsets — the common gather
/// prefix of the array-style kernels.
#[inline(always)]
pub(crate) fn gather_nodal_into_ws<const L: usize, R: Recorder>(
    input: &AssemblyInput,
    elems: &[usize; L],
    lay: &Layout,
    ws: &mut Ws<Pack<L>>,
    (elcod, elvel, elpre): (usize, usize, usize),
    rec: &mut R,
) -> [[u32; 4]; L] {
    let nodes = gather::gather_conn_lanes(input, elems, lay, rec);
    let coords = gather::gather_coords(input, &nodes, lay, rec);
    for a in 0..4 {
        for d in 0..3 {
            ws.st(elcod + 3 * a + d, coords[a][d], lay, rec);
        }
    }
    let vel = gather::gather_velocity(input, &nodes, lay, rec);
    for a in 0..4 {
        for d in 0..3 {
            ws.st(elvel + 3 * a + d, vel[a][d], lay, rec);
        }
    }
    let pre = gather::gather_scalar(input.pressure, layout::PRES_BASE, &nodes, lay, rec);
    for a in 0..4 {
        ws.st(elpre + a, pre[a], lay, rec);
    }
    nodes
}

/// Reads the completed 12-entry elemental RHS back from the workspace and
/// scatters lane 0 — the common epilogue of the array-style kernels.
#[inline(always)]
pub(crate) fn scatter_rhs_from_ws<const L: usize, R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[[u32; 4]; L],
    elrhs: usize,
    ws: &mut Ws<Pack<L>>,
    lay: &Layout,
    rec: &mut R,
) -> ElemRhs<L> {
    let mut out = [[Pack::ZERO; 3]; 4];
    for a in 0..4 {
        for d in 0..3 {
            out[a][d] = ws.ld(elrhs + 3 * a + d, lay, rec);
        }
    }
    gather::scatter_nth(sink, &nodes[0], &out, 0, lay, rec);
    out
}

/// Everything the scalar-private kernels compute before their accumulation
/// phases: the private state that outlives the prologue.
pub(crate) struct SpecPrologue<const L: usize> {
    /// Gathered connectivity.
    pub nodes: [[u32; 4]; L],
    /// Gathered nodal velocities.
    pub vel: Pvs<[[Pack<L>; 3]; 4]>,
    /// Gathered nodal pressures.
    pub pre: Pvs<[Pack<L>; 4]>,
    /// Constant shape-function gradients.
    pub grads: Pvs<[[Pack<L>; 3]; 4]>,
    /// Element volume.
    pub vol: Pv<Pack<L>>,
    /// Constant velocity gradient tensor.
    pub gve: Pvs<[[Pack<L>; 3]; 3]>,
    /// Vreman turbulent viscosity, one value per element.
    pub nut: Pv<Pack<L>>,
}

/// The shared RSP/RSPR prologue: gather straight into tracked private
/// values, constant geometry (coordinates die inside), constant velocity
/// gradient, Vreman ν_t on the fly. Private ids 0..=50, in this exact
/// definition order — the register-pressure pins of both contracts depend
/// on it.
#[inline(always)]
pub(crate) fn specialized_prologue<const L: usize, R: Recorder>(
    input: &AssemblyInput,
    elems: &[usize; L],
    lay: &Layout,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> SpecPrologue<L> {
    // --- Gather straight into private values. ---
    let nodes = gather::gather_conn_lanes(input, elems, lay, rec);
    let coords = pa.def_all(gather::gather_coords(input, &nodes, lay, rec), rec);
    let vel = pa.def_all(gather::gather_velocity(input, &nodes, lay, rec), rec);
    let pre = gather::gather_scalar(input.pressure, layout::PRES_BASE, &nodes, lay, rec);
    let pre = pa.def_all(pre, rec);

    // --- Geometry once; coordinates die here. ---
    let (grads, vol) = ops::tet4_grads(coords.all(rec), rec);
    let grads = pa.def_all(grads, rec);
    let vol = pa.def(vol, rec);

    // --- Constant velocity gradient. ---
    let mut gve = [[Pack::ZERO; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut gv = Pack::ZERO;
            for a in 0..4 {
                gv += grads.get((a, i), rec) * vel.get((a, j), rec);
            }
            rec.fma(4);
            gve[i][j] = gv;
        }
    }
    let gve = pa.def_all(gve, rec);

    // --- Vreman on the fly. ---
    let gve_for_nut = gve.all(rec);
    rec.flop(2);
    let delta = vol.get(rec).map(f64::cbrt);
    let nut = pa.def(ops::vreman(gve_for_nut, delta, input.vreman_c, rec), rec);

    SpecPrologue {
        nodes,
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    }
}

/// One Gauss point's convection vector `ρ (u·∇)u` from private state:
/// transient advection vector (defined, then immediately consumed), then
/// the contraction against the velocity gradient.
#[inline(always)]
pub(crate) fn gauss_convection<const L: usize, R: Recorder>(
    g: usize,
    vel: &Pvs<[[Pack<L>; 3]; 4]>,
    gve: &Pvs<[[Pack<L>; 3]; 3]>,
    rho: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> Pvs<[Pack<L>; 3]> {
    let mut adv_raw = [Pack::ZERO; 3];
    for (d, adv_d) in adv_raw.iter_mut().enumerate() {
        let mut adv = Pack::ZERO;
        for a in 0..4 {
            adv += Tet4::SHAPE[g][a] * vel.get((a, d), rec);
        }
        rec.fma(4);
        *adv_d = adv;
    }
    let adv = pa.def_all(adv_raw, rec);
    let mut con_raw = [Pack::ZERO; 3];
    for (d, con_d) in con_raw.iter_mut().enumerate() {
        let mut con = Pack::ZERO;
        for i in 0..3 {
            con += adv.get(i, rec) * gve.get((i, d), rec);
        }
        rec.fma(3);
        rec.flop(1);
        *con_d = rho * con;
    }
    pa.def_all(con_raw, rec)
}

/// The mean elemental pressure and the effective viscosity `μ + ρ ν_t`,
/// defined as two private values.
#[inline(always)]
pub(crate) fn mean_pressure_and_mu_eff<const L: usize, R: Recorder>(
    pre: &Pvs<[Pack<L>; 4]>,
    nut: Pv<Pack<L>>,
    rho: f64,
    mu: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> (Pv<Pack<L>>, Pv<Pack<L>>) {
    rec.flop(4);
    let pbar = pa.def(
        0.25 * (pre.get(0, rec) + pre.get(1, rec) + pre.get(2, rec) + pre.get(3, rec)),
        rec,
    );
    rec.flop(2);
    let mu_eff = pa.def(mu + rho * nut.get(rec), rec);
    (pbar, mu_eff)
}

/// The diffusion flux for one `(node, component)`: `Σ_b (∇N_a·∇N_b) u_b`.
#[inline(always)]
pub(crate) fn diffusion_flux<const L: usize, R: Recorder>(
    a: usize,
    d: usize,
    grads: &Pvs<[[Pack<L>; 3]; 4]>,
    vel: &Pvs<[[Pack<L>; 3]; 4]>,
    rec: &mut R,
) -> Pack<L> {
    let mut flux = Pack::ZERO;
    for b in 0..4 {
        let mut gdot = Pack::ZERO;
        for i in 0..3 {
            gdot += grads.get((a, i), rec) * grads.get((b, i), rec);
        }
        rec.fma(3);
        rec.fma(1);
        flux += gdot * vel.get((b, d), rec);
    }
    flux
}
