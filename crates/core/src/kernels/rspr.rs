//! The **RSPR** kernel: RSP + further Restructuring.
//!
//! The last GPU-specific restructuring from the paper: instead of
//! accumulating the entire 12-entry elemental RHS and scattering it at the
//! end, each node's three components are completed and **immediately
//! scattered**, then discarded. The convection vectors of all Gauss points
//! are hoisted before the node loop, after which the only long-lived
//! private state is the gathered velocity, the gradients and those vectors
//! — the accumulator footprint drops from 12 values to 3, which is what
//! buys the lower register count and the occupancy bump.
//!
//! (The paper notes this variant is not transferable to the CPU path: it
//! breaks the "one vectorized compute loop + one scalar scatter loop"
//! structure. The drivers therefore only offer it with conflict-safe
//! sinks.)

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::ScatterSink;
use crate::input::AssemblyInput;
use crate::kernels::{shared, ElemRhs, PrivAlloc};
use crate::layout::Layout;
use crate::packs::{Lanes, Pack};

/// Assembles `L` elements in lockstep the RSPR way.
// alya:hot
pub fn element<const L: usize, R: Recorder, S: ScatterSink>(
    input: &AssemblyInput,
    elems: &[usize; L],
    lay: &Layout,
    sink: &mut S,
    rec: &mut R,
) -> ElemRhs<L> {
    let rho = input.props.density;
    let mu = input.props.viscosity;
    let mut pa = PrivAlloc::new();

    // --- Gather, geometry, velocity gradient, Vreman (shared prologue).
    // gve is consumed entirely within the hoisted phase below (no
    // long-lived privates): Vreman first, convection vectors second, then
    // dead. ---
    let shared::SpecPrologue {
        nodes,
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    } = shared::specialized_prologue(input, elems, lay, &mut pa, rec);

    let con: [_; Tet4::NUM_GAUSS] = [
        shared::gauss_convection(0, &vel, &gve, rho, &mut pa, rec),
        shared::gauss_convection(1, &vel, &gve, rho, &mut pa, rec),
        shared::gauss_convection(2, &vel, &gve, rho, &mut pa, rec),
        shared::gauss_convection(3, &vel, &gve, rho, &mut pa, rec),
    ];

    let (pbar, mu_eff) = shared::mean_pressure_and_mu_eff(&pre, nut, rho, mu, &mut pa, rec);
    rec.flop(1);
    let volv = vol.get(rec);
    let gpvol = 0.25 * volv;

    // --- Node loop: finish three components, scatter, discard. ---
    let mut elrhs = [[Pack::ZERO; 3]; 4];
    for a in 0..4 {
        let mut acc_raw = [Pack::ZERO; 3];
        // Convection.
        for g in 0..Tet4::NUM_GAUSS {
            for (d, acc_d) in acc_raw.iter_mut().enumerate() {
                rec.flop(3);
                *acc_d -= gpvol * Tet4::SHAPE[g][a] * con[g].get(d, rec);
            }
        }
        // Pressure and force.
        for (d, acc_d) in acc_raw.iter_mut().enumerate() {
            rec.fma(2);
            rec.flop(3);
            *acc_d +=
                volv * pbar.get(rec) * grads.get((a, d), rec) + gpvol * rho * input.body_force[d];
        }
        // Diffusion.
        for (d, acc_d) in acc_raw.iter_mut().enumerate() {
            let flux = shared::diffusion_flux(a, d, &grads, &vel, rec);
            rec.flop(3);
            *acc_d -= volv * mu_eff.get(rec) * flux;
        }
        let acc = pa.def_all(acc_raw, rec);
        // Immediate scatter: the accumulator dies right here.
        for d in 0..3 {
            elrhs[a][d] = acc.get(d, rec);
            sink.add(nodes[0][a], d, elrhs[a][d].lane(0), lay, rec);
        }
    }
    elrhs
}
