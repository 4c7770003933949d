//! The **B**aseline kernel (and, with a local workspace, variant **P**).
//!
//! Faithful to the structure of Alya's original vectorized assembly:
//!
//! * the element type is a *runtime* parameter — geometry is recomputed at
//!   every Gauss point through the generic Jacobian path, even though for
//!   tetrahedra it is constant;
//! * density and viscosity come from a runtime-dispatched constitutive
//!   model evaluated at every Gauss point from the interpolated
//!   temperature;
//! * the turbulent viscosity is *not* computed here: a separate pass
//!   ([`crate::nut`]) produced it at the start of the step, and the kernel
//!   gathers and interpolates it;
//! * second-derivative (Hessian) terms are computed and carried along even
//!   though they are identically zero for linear elements;
//! * the elemental *matrices* (convection + diffusion, one copy per
//!   velocity component) are built first and then multiplied by the nodal
//!   unknowns — the hold-over from implicit time-stepping the paper calls
//!   out;
//! * **every** intermediate above lives in a workspace array slot, written
//!   and re-read through memory.
//!
//! The result is bit-for-bit the same discrete operator as the specialized
//! variants, reached the expensive way — which is the entire point.

use alya_fem::element::{tet4_shape, ElementKind, TET4_GAUSS, TET4_LOCAL_GRADS};
use alya_machine::Recorder;

use crate::gather::{self, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels::{shared, ElemRhs};
use crate::layout::{self, Layout};
use crate::ops;
use crate::packs::{Lanes, Pack};
use crate::workspace::Ws;

// ---- Workspace value catalog (slot = base + offset) ------------------------
const ELCOD: usize = 0; // 12: gathered node coordinates
const ELVEL: usize = 12; // 12: gathered velocities
const ELPRE: usize = 24; // 4:  gathered pressures
const ELTEM: usize = 28; // 4:  gathered temperatures
const ELNUT: usize = 32; // 1:  gathered per-element nu_t
const GPJAC: usize = 33; // 36: Jacobian per Gauss point
const GPDET: usize = 69; // 4:  Jacobian determinant per Gauss point
const GPJIN: usize = 73; // 36: inverse Jacobian per Gauss point
const GPCAR: usize = 109; // 48: shape gradients per Gauss point
const GPVOL: usize = 157; // 4:  integration weight per Gauss point
const GPSHA: usize = 161; // 16: shape values per Gauss point
const GPADV: usize = 177; // 12: advection velocity per Gauss point
const GPGVE: usize = 189; // 36: velocity gradient per Gauss point
const GPDEN: usize = 225; // 4:  density per Gauss point
const GPVIS: usize = 229; // 4:  viscosity per Gauss point
const GPTEM: usize = 233; // 4:  temperature per Gauss point
const GPNUT: usize = 237; // 4:  turbulent viscosity per Gauss point
const GPPRE: usize = 241; // 4:  pressure per Gauss point
const GPFOR: usize = 245; // 12: body force per Gauss point
const GPHES: usize = 257; // 24: Hessian diagonal terms (zero for P1!)
const CMAT: usize = 281; // 48: convection matrix, one 4x4 per component
const KMAT: usize = 329; // 48: diffusion matrix, one 4x4 per component
const EMAT: usize = 377; // 48: assembled elemental matrix per component
const ELMASS: usize = 425; // 4:  lumped mass (byproduct for the projection)
const ELRHS: usize = 429; // 12: elemental RHS

/// Workspace slots per element.
pub const NVALUES: usize = 441;
/// Distinct intermediate arrays (for reports; the paper counts 32).
pub const NUM_ARRAYS: usize = 25;

const NGAUSS: usize = 4;
const NNODE: usize = 4;

/// Closed-form count of workspace *stores* one baseline element performs,
/// phase by phase, as written in [`element`] below (`G` Gauss points, `N`
/// nodes; `ws.acc` is a load + store pair). The contract checker in
/// `alya-analyze` verifies every recorded trace against this formula, so
/// it can never drift from the code silently.
pub const fn ws_stores_per_element() -> u64 {
    let g = NGAUSS as u64;
    let n = NNODE as u64;
    // gather: elcod + elvel (3·N each), elpre + eltem (N each), elnut
    (6 * n + 2 * n + 1)
        // geometry per point: jac 9, det 1, inv 9, car 3·N, vol 1, sha N, hes 6
        + g * (9 + 1 + 9 + 3 * n + 1 + n + 6)
        // interpolation per point: adv 3, tem 1, pre 1, den 1, vis 1, nut 1, for 3, gve 9
        + g * (3 + 1 + 1 + 1 + 1 + 1 + 3 + 9)
        // elemental matrices: cmat/kmat zero-init, then one acc-store each
        // per (gauss, component, a, b)
        + 2 * 3 * n * n
        + 2 * g * 3 * n * n
        // emat = cmat + kmat
        + 3 * n * n
        // lumped mass + elemental rhs
        + n
        + 3 * n
}

/// Closed-form count of workspace *loads* of one baseline element (same
/// phase-by-phase derivation as [`ws_stores_per_element`]).
pub const fn ws_loads_per_element() -> u64 {
    let g = NGAUSS as u64;
    let n = NNODE as u64;
    // geometry per point: jac build 9·N, jac reload 9, car 9·N, vol reads det
    g * (9 * n + 9 + 9 * n + 1)
        // interpolation per point: adv 2·3·N, tem/pre 3·N, reloads 3, gve 2·9·N
        + g * (6 * n + 3 * n + 3 + 18 * n)
        // matrix accumulation: 20 loads per (gauss, component, a, b) —
        // 6 adv_dot + 3 coeffs + 1 acc + 6 grad_dot + 3 coeffs + 1 acc
        + g * 3 * n * n * 20
        // emat: cmat + kmat reads
        + 2 * 3 * n * n
        // lumped mass: vol + sha per (node, gauss)
        + 2 * n * g
        // elemental rhs per (node, component): 2·N matrix half + 5·G force half
        + 3 * n * (2 * n + 5 * g)
        // scatter readback of elrhs
        + 3 * n
}

/// Closed-form count of global *input* loads of one baseline element:
/// connectivity, coordinates, velocity, pressure and temperature per node,
/// plus the one per-element ν_t value from the precompute pass.
pub const fn input_loads_per_element() -> u64 {
    let n = NNODE as u64;
    (1 + 3 + 3 + 1 + 1) * n + 1
}

/// Assembles `L` elements in lockstep the baseline way.
///
/// Inlined into its caller so the workspace placement the element loop
/// passes (`stride = L`, `lane = 0`) folds into every slot index.
#[inline(always)]
pub fn element<const L: usize, R: Recorder, S: ScatterSink>(
    input: &AssemblyInput,
    elems: &[usize; L],
    lay: &Layout,
    ws: Ws<Pack<L>>,
    sink: &mut S,
    rec: &mut R,
) -> ElemRhs<L> {
    let kind = ElementKind::Tet4; // runtime value, "unknown" to the compiler
    let ngauss = kind.num_gauss();
    let nnode = kind.num_nodes();
    debug_assert_eq!((ngauss, nnode), (NGAUSS, NNODE));
    let mut ws = ws.first_slots(NVALUES);

    // --- Gather phase: copy nodal data into element arrays. ---
    let nodes =
        shared::gather_nodal_into_ws(input, elems, lay, &mut ws, (ELCOD, ELVEL, ELPRE), rec);
    let tem = gather::gather_scalar(input.temperature, layout::TEMP_BASE, &nodes, lay, rec);
    for a in 0..nnode {
        ws.st(ELTEM + a, tem[a], lay, rec);
    }
    // Per-element nu_t from the precompute pass.
    let nut_e = match input.nu_t {
        Some(nut) => {
            if R::ENABLED {
                rec.gload(lay.elemental(layout::NUT_BASE, elems[0]));
            }
            Pack::from_fn(|l| nut[elems[l]])
        }
        None => Pack::ZERO,
    };
    ws.st(ELNUT, nut_e, lay, rec);

    // --- Geometry at every Gauss point (generic: no constant-gradient
    // shortcut, the Jacobian is rebuilt per point). ---
    for g in 0..ngauss {
        // J[r][d] = sum_a dN_a/dxi_r * x_a[d]
        for r in 0..3 {
            for d in 0..3 {
                let mut j = Pack::ZERO;
                for a in 0..nnode {
                    let x = ws.ld(ELCOD + 3 * a + d, lay, rec);
                    j += TET4_LOCAL_GRADS[a][r] * x;
                }
                rec.fma(nnode as u32);
                ws.st(GPJAC + 9 * g + 3 * r + d, j, lay, rec);
            }
        }
        let mut jm = [[Pack::ZERO; 3]; 3];
        for r in 0..3 {
            for d in 0..3 {
                jm[r][d] = ws.ld(GPJAC + 9 * g + 3 * r + d, lay, rec);
            }
        }
        let det = ops::det3(&jm, rec);
        ws.st(GPDET + g, det, lay, rec);
        let inv = ops::inv3(&jm, det, rec);
        for r in 0..3 {
            for d in 0..3 {
                ws.st(GPJIN + 9 * g + 3 * r + d, inv[r][d], lay, rec);
            }
        }
        // Physical gradients: gpcar[a][d] = sum_r inv[r]... (J^-1 applied).
        for a in 0..nnode {
            for d in 0..3 {
                let mut c = Pack::ZERO;
                for r in 0..3 {
                    let ji = ws.ld(GPJIN + 9 * g + 3 * d + r, lay, rec);
                    c += ji * TET4_LOCAL_GRADS[a][r];
                }
                rec.fma(3);
                ws.st(GPCAR + 12 * g + 3 * a + d, c, lay, rec);
            }
        }
        // Integration weight.
        let det = ws.ld(GPDET + g, lay, rec);
        rec.flop(1);
        ws.st(GPVOL + g, kind.gauss_weight(g) * det, lay, rec);
        // Shape values, "evaluated" generically at the runtime Gauss point.
        let sha = tet4_shape(TET4_GAUSS[g]);
        rec.flop(3);
        for a in 0..nnode {
            ws.st(GPSHA + 4 * g + a, Pack::splat(sha[a]), lay, rec);
        }
        // Hessians of the shape functions — identically zero for linear
        // tets, but the generic path computes and stores them anyway.
        for h in 0..6 {
            rec.flop(4);
            ws.st(GPHES + 6 * g + h, Pack::ZERO, lay, rec);
        }
    }

    // --- Interpolation to Gauss points. ---
    for g in 0..ngauss {
        for d in 0..3 {
            let mut adv = Pack::ZERO;
            for a in 0..nnode {
                let n = ws.ld(GPSHA + 4 * g + a, lay, rec);
                let u = ws.ld(ELVEL + 3 * a + d, lay, rec);
                adv += n * u;
            }
            rec.fma(nnode as u32);
            ws.st(GPADV + 3 * g + d, adv, lay, rec);
        }
        let mut tem = Pack::ZERO;
        let mut pre = Pack::ZERO;
        for a in 0..nnode {
            let n = ws.ld(GPSHA + 4 * g + a, lay, rec);
            tem += n * ws.ld(ELTEM + a, lay, rec);
            pre += n * ws.ld(ELPRE + a, lay, rec);
        }
        rec.fma(2 * nnode as u32);
        ws.st(GPTEM + g, tem, lay, rec);
        ws.st(GPPRE + g, pre, lay, rec);
        // Constitutive model, dispatched at run time per Gauss point.
        let t = ws.ld(GPTEM + g, lay, rec);
        rec.flop(4);
        ws.st(GPDEN + g, t.map(|t| input.density_at(t)), lay, rec);
        rec.flop(4);
        ws.st(GPVIS + g, t.map(|t| input.viscosity_at(t)), lay, rec);
        // nu_t interpolation (constant per element, copied per point).
        let nut = ws.ld(ELNUT, lay, rec);
        ws.st(GPNUT + g, nut, lay, rec);
        // Body force per Gauss point.
        let den = ws.ld(GPDEN + g, lay, rec);
        for d in 0..3 {
            rec.flop(1);
            ws.st(GPFOR + 3 * g + d, den * input.body_force[d], lay, rec);
        }
        // Velocity gradient tensor at the point.
        for i in 0..3 {
            for j in 0..3 {
                let mut gv = Pack::ZERO;
                for a in 0..nnode {
                    let c = ws.ld(GPCAR + 12 * g + 3 * a + i, lay, rec);
                    let u = ws.ld(ELVEL + 3 * a + j, lay, rec);
                    gv += c * u;
                }
                rec.fma(nnode as u32);
                ws.st(GPGVE + 9 * g + 3 * i + j, gv, lay, rec);
            }
        }
    }

    // --- Elemental matrices, one copy per velocity component (the generic
    // code keeps separate storage even though the blocks are identical). ---
    for d in 0..3 {
        for ab in 0..nnode * nnode {
            ws.st(CMAT + 16 * d + ab, Pack::ZERO, lay, rec);
            ws.st(KMAT + 16 * d + ab, Pack::ZERO, lay, rec);
        }
    }
    for g in 0..ngauss {
        for d in 0..3 {
            for a in 0..nnode {
                for b in 0..nnode {
                    // Convection: rho * N_a * (u_gp . grad N_b).
                    let mut adv_dot = Pack::ZERO;
                    for i in 0..3 {
                        let u = ws.ld(GPADV + 3 * g + i, lay, rec);
                        let c = ws.ld(GPCAR + 12 * g + 3 * b + i, lay, rec);
                        adv_dot += u * c;
                    }
                    rec.fma(3);
                    let vol = ws.ld(GPVOL + g, lay, rec);
                    let den = ws.ld(GPDEN + g, lay, rec);
                    let sha = ws.ld(GPSHA + 4 * g + a, lay, rec);
                    rec.flop(3);
                    let cinc = vol * den * sha * adv_dot;
                    ws.acc(CMAT + 16 * d + 4 * a + b, cinc, lay, rec);

                    // Diffusion: (mu + rho nu_t) grad N_a . grad N_b, plus
                    // the Hessian term (zero for P1, still computed).
                    let mut grad_dot = Pack::ZERO;
                    for i in 0..3 {
                        let ca = ws.ld(GPCAR + 12 * g + 3 * a + i, lay, rec);
                        let cb = ws.ld(GPCAR + 12 * g + 3 * b + i, lay, rec);
                        grad_dot += ca * cb;
                    }
                    rec.fma(3);
                    let vis = ws.ld(GPVIS + g, lay, rec);
                    let nut = ws.ld(GPNUT + g, lay, rec);
                    let hes = ws.ld(GPHES + 6 * g, lay, rec);
                    rec.flop(5);
                    let kinc = vol * (vis + den * nut) * (grad_dot + hes);
                    ws.acc(KMAT + 16 * d + 4 * a + b, kinc, lay, rec);
                }
            }
        }
    }
    for d in 0..3 {
        for ab in 0..nnode * nnode {
            let c = ws.ld(CMAT + 16 * d + ab, lay, rec);
            let k = ws.ld(KMAT + 16 * d + ab, lay, rec);
            rec.flop(1);
            ws.st(EMAT + 16 * d + ab, c + k, lay, rec);
        }
    }

    // Lumped mass, a byproduct kept for the pressure projection.
    for a in 0..nnode {
        let mut m = Pack::ZERO;
        for g in 0..ngauss {
            let vol = ws.ld(GPVOL + g, lay, rec);
            let sha = ws.ld(GPSHA + 4 * g + a, lay, rec);
            m += vol * sha;
        }
        rec.fma(ngauss as u32);
        ws.st(ELMASS + a, m, lay, rec);
    }

    // --- Elemental RHS = -(A u) + pressure + force terms. ---
    for a in 0..nnode {
        for d in 0..3 {
            let mut r = Pack::ZERO;
            for b in 0..nnode {
                let m = ws.ld(EMAT + 16 * d + 4 * a + b, lay, rec);
                let u = ws.ld(ELVEL + 3 * b + d, lay, rec);
                r -= m * u;
            }
            rec.fma(nnode as u32);
            for g in 0..ngauss {
                let vol = ws.ld(GPVOL + g, lay, rec);
                let pre = ws.ld(GPPRE + g, lay, rec);
                let car = ws.ld(GPCAR + 12 * g + 3 * a + d, lay, rec);
                let sha = ws.ld(GPSHA + 4 * g + a, lay, rec);
                let f = ws.ld(GPFOR + 3 * g + d, lay, rec);
                rec.fma(2);
                rec.flop(2);
                r += vol * pre * car + vol * sha * f;
            }
            ws.st(ELRHS + 3 * a + d, r, lay, rec);
        }
    }

    // --- Scatter. ---
    shared::scatter_rhs_from_ws(sink, &nodes, ELRHS, &mut ws, lay, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_catalog_is_disjoint_and_contiguous() {
        // (offset, len) for every array in declaration order.
        let regions = [
            (ELCOD, 12),
            (ELVEL, 12),
            (ELPRE, 4),
            (ELTEM, 4),
            (ELNUT, 1),
            (GPJAC, 36),
            (GPDET, 4),
            (GPJIN, 36),
            (GPCAR, 48),
            (GPVOL, 4),
            (GPSHA, 16),
            (GPADV, 12),
            (GPGVE, 36),
            (GPDEN, 4),
            (GPVIS, 4),
            (GPTEM, 4),
            (GPNUT, 4),
            (GPPRE, 4),
            (GPFOR, 12),
            (GPHES, 24),
            (CMAT, 48),
            (KMAT, 48),
            (EMAT, 48),
            (ELMASS, 4),
            (ELRHS, 12),
        ];
        let mut cursor = 0;
        for (off, len) in regions {
            assert_eq!(off, cursor, "catalog gap/overlap at offset {off}");
            cursor += len;
        }
        assert_eq!(cursor, NVALUES, "NVALUES out of sync with the catalog");
        assert_eq!(regions.len(), NUM_ARRAYS, "NUM_ARRAYS out of sync");
    }

    #[test]
    fn catalog_matches_paper_scale() {
        // Paper: baseline = 430 values in 32 arrays; we carry 441 in 25.
        assert!((400..500).contains(&NVALUES));
    }

    #[test]
    fn closed_forms_evaluate_to_the_audited_totals() {
        // The values the contract checker pins (see alya-analyze): 825
        // workspace stores and 5088 workspace loads per element.
        assert_eq!(ws_stores_per_element(), 825);
        assert_eq!(ws_loads_per_element(), 5088);
        // Every workspace slot is written at least once.
        assert!(ws_stores_per_element() >= NVALUES as u64);
    }
}
