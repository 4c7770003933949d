//! The **RSP** kernel: Restructured + Specialized + Privatized.
//!
//! Identical math to [`crate::kernels::rs`], but every intermediate is a
//! thread-private scalar. With the compile-time loop bounds of the
//! specialized path, a compiler maps these to registers; the register
//! allocator in `alya-machine` replays that decision over the `Def`/`Use`
//! events this kernel emits, spilling to local memory only beyond the
//! register budget. The irreducible global traffic that remains is the
//! nodal gather/scatter.

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::{self, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels::{shared, ElemRhs, PrivAlloc};
use crate::layout::Layout;
use crate::packs::Pack;

/// Assembles `L` elements in lockstep the RSP way.
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

    // --- Gather, geometry, velocity gradient, Vreman (shared prologue). ---
    let shared::SpecPrologue {
        nodes,
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    } = shared::specialized_prologue(input, elems, lay, &mut pa, rec);

    // --- RHS accumulators, live across the Gauss loop. ---
    let mut rhs = pa.def_all([[Pack::ZERO; 3]; 4], rec);

    rec.flop(1);
    let gpvol = 0.25 * vol.get(rec);

    // --- Gauss loop: transient advection/convection, immediate use. ---
    for g in 0..Tet4::NUM_GAUSS {
        let con = shared::gauss_convection(g, &vel, &gve, rho, &mut pa, rec);
        for a in 0..4 {
            for d in 0..3 {
                rec.flop(2);
                let inc = -gpvol * Tet4::SHAPE[g][a] * con.get(d, rec);
                rec.flop(1);
                let new = rhs.get((a, d), rec) + inc;
                rhs.set((a, d), new, rec);
            }
        }
    }

    // --- Pressure, force, diffusion. ---
    let (pbar, mu_eff) = shared::mean_pressure_and_mu_eff(&pre, nut, rho, mu, &mut pa, rec);
    let volv = vol.get(rec);
    for a in 0..4 {
        for d in 0..3 {
            rec.fma(2);
            rec.flop(2);
            let inc =
                volv * pbar.get(rec) * grads.get((a, d), rec) + gpvol * rho * input.body_force[d];
            rec.flop(1);
            let new = rhs.get((a, d), rec) + inc;
            rhs.set((a, d), new, rec);
        }
    }
    for a in 0..4 {
        for d in 0..3 {
            let flux = shared::diffusion_flux(a, d, &grads, &vel, rec);
            rec.flop(3);
            let new = rhs.get((a, d), rec) - volv * mu_eff.get(rec) * flux;
            rhs.set((a, d), new, rec);
        }
    }

    // --- Scatter the completed elemental RHS. ---
    let elrhs = *rhs.all(rec);
    gather::scatter_nth(sink, &nodes[0], &elrhs, 0, lay, rec);
    elrhs
}
