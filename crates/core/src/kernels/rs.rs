//! The **RS** kernel: Restructured + Specialized.
//!
//! Specialization: compile-time linear tetrahedra (constant shape-function
//! gradients computed *once* per element), constant density/viscosity as
//! parameters, the Vreman turbulent viscosity evaluated on the fly — one
//! value per element, not per Gauss point.
//!
//! Restructuring: no elemental matrices — the elemental RHS is accumulated
//! directly, and intermediate lifetimes are kept short.
//!
//! What it deliberately keeps from the baseline: every intermediate still
//! lives in an interleaved `VECTOR_DIM` workspace array (13 arrays, down
//! from 25) — privatization is the *next* step (RSP).

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::ScatterSink;
use crate::input::AssemblyInput;
use crate::kernels::{shared, ElemRhs};
use crate::layout::Layout;
use crate::ops;
use crate::packs::{Lanes, Pack};
use crate::workspace::Ws;

// ---- Workspace value catalog ----------------------------------------------
const ELCOD: usize = 0; // 12: gathered node coordinates
const ELVEL: usize = 12; // 12: gathered velocities
const ELPRE: usize = 24; // 4:  gathered pressures
const CARTE: usize = 28; // 12: constant shape gradients
const VOL: usize = 40; // 1:  element volume
const GVE: usize = 41; // 9:  (constant) velocity gradient
const NUT: usize = 50; // 1:  Vreman nu_t, one per element
const GPADV: usize = 51; // 12: advection velocity per Gauss point
const GPCON: usize = 63; // 12: convection vector per Gauss point
const PBAR: usize = 75; // 1:  mean elemental pressure
const FORCE: usize = 76; // 3:  rho * body force
const DIFF: usize = 79; // 12: per-node diffusion fluxes
const ELRHS: usize = 91; // 12: elemental RHS

/// Workspace slots per element.
pub const NVALUES: usize = 103;
/// Distinct intermediate arrays (the paper counts 13 after RS).
pub const NUM_ARRAYS: usize = 13;

const NGAUSS: u64 = Tet4::NUM_GAUSS as u64;
const NNODE: u64 = 4;

/// Closed-form count of workspace *stores* one RS element performs, phase
/// by phase as written in [`element`] below (`G` Gauss points, `N` nodes;
/// `ws.acc` is a load + store pair). Mirrors
/// [`baseline::ws_stores_per_element`](crate::kernels::baseline::ws_stores_per_element);
/// the contract checker in `alya-analyze` verifies every recorded trace
/// against this formula, so it can never drift from the code silently.
pub const fn ws_stores_per_element() -> u64 {
    let g = NGAUSS;
    let n = NNODE;
    // gather: elcod + elvel (3·N each), elpre (N)
    (6 * n + n)
        // geometry once: carte 3·N, vol 1
        + (3 * n + 1)
        // constant velocity gradient: 9 entries
        + 9
        // Vreman ν_t: one value per element
        + 1
        // per Gauss point: adv 3, con 3
        + g * (3 + 3)
        // mean pressure + body force
        + (1 + 3)
        // elemental RHS zero-init: 3·N
        + 3 * n
        // convection accumulation: one acc-store per (gauss, node, comp)
        + g * n * 3
        // pressure + force closed-form term: one acc-store per (node, comp)
        + n * 3
        // diffusion: flux store + acc-store per (node, comp)
        + 2 * n * 3
}

/// Closed-form count of workspace *loads* of one RS element (same
/// phase-by-phase derivation as [`ws_stores_per_element`]).
pub const fn ws_loads_per_element() -> u64 {
    let g = NGAUSS;
    let n = NNODE;
    // geometry: elcod reload (3·N)
    3 * n
        // velocity gradient: carte + elvel per (i, j, node) = 2·N per entry
        + 9 * 2 * n
        // Vreman: gve reload 9 + vol 1
        + (9 + 1)
        // advection per (gauss, comp): N elvel reads
        + g * 3 * n
        // convection per (gauss, comp): 3 × (adv + gve)
        + g * 3 * 6
        // mean pressure: N elpre reads; vol reload for gpvol
        + n
        + 1
        // convection accumulation per (gauss, node, comp): con + acc-load
        + g * n * 3 * 2
        // pressure/force: pbar reload + (carte + force + acc-load) per (node, comp)
        + 1
        + n * 3 * 3
        // diffusion: nut reload + per (node, comp): N × (3·(ca + cb) + u)
        // then flux reload + acc-load
        + 1
        + n * 3 * (n * 7 + 2)
        // scatter readback of elrhs
        + 3 * n
}

/// Closed-form count of global *input* loads of one specialized element
/// (RS and the scalar-private RSP/RSPR share the gather): connectivity,
/// coordinates, velocity and pressure per node — no temperature gather
/// (constant properties) and no ν_t pass (on-the-fly Vreman).
pub const fn input_loads_per_element() -> u64 {
    (1 + 3 + 3 + 1) * NNODE
}

/// Assembles `L` elements in lockstep the RS way.
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
    let rho = input.props.density;
    let mu = input.props.viscosity;
    let mut ws = ws.first_slots(NVALUES);

    // --- Gather into element arrays. ---
    let nodes =
        shared::gather_nodal_into_ws(input, elems, lay, &mut ws, (ELCOD, ELVEL, ELPRE), rec);

    // --- Geometry once per element (constant gradients). ---
    let mut elcod = [[Pack::ZERO; 3]; 4];
    for a in 0..4 {
        for d in 0..3 {
            elcod[a][d] = ws.ld(ELCOD + 3 * a + d, lay, rec);
        }
    }
    let (grads, vol) = ops::tet4_grads(&elcod, rec);
    for a in 0..4 {
        for d in 0..3 {
            ws.st(CARTE + 3 * a + d, grads[a][d], lay, rec);
        }
    }
    ws.st(VOL, vol, lay, rec);

    // --- Velocity gradient, once (it is constant too). ---
    for i in 0..3 {
        for j in 0..3 {
            let mut gv = Pack::ZERO;
            for a in 0..4 {
                let c = ws.ld(CARTE + 3 * a + i, lay, rec);
                let u = ws.ld(ELVEL + 3 * a + j, lay, rec);
                gv += c * u;
            }
            rec.fma(4);
            ws.st(GVE + 3 * i + j, gv, lay, rec);
        }
    }

    // --- Vreman on the fly: one value per element. ---
    let mut gve = [[Pack::ZERO; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            gve[i][j] = ws.ld(GVE + 3 * i + j, lay, rec);
        }
    }
    let v = ws.ld(VOL, lay, rec);
    rec.flop(2);
    let delta = v.map(f64::cbrt);
    let nut = ops::vreman(&gve, delta, input.vreman_c, rec);
    ws.st(NUT, nut, lay, rec);

    // --- Per-Gauss-point advection and convection vectors. ---
    for g in 0..Tet4::NUM_GAUSS {
        for d in 0..3 {
            let mut adv = Pack::ZERO;
            for a in 0..4 {
                let u = ws.ld(ELVEL + 3 * a + d, lay, rec);
                adv += Tet4::SHAPE[g][a] * u;
            }
            rec.fma(4);
            ws.st(GPADV + 3 * g + d, adv, lay, rec);
        }
        for d in 0..3 {
            let mut con = Pack::ZERO;
            for i in 0..3 {
                let adv = ws.ld(GPADV + 3 * g + i, lay, rec);
                let gv = ws.ld(GVE + 3 * i + d, lay, rec);
                con += adv * gv;
            }
            rec.fma(3);
            rec.flop(1);
            ws.st(GPCON + 3 * g + d, rho * con, lay, rec);
        }
    }

    // --- Mean pressure and force. ---
    let mut pbar = Pack::ZERO;
    for a in 0..4 {
        pbar += ws.ld(ELPRE + a, lay, rec);
    }
    rec.flop(4);
    ws.st(PBAR, 0.25 * pbar, lay, rec);
    for d in 0..3 {
        rec.flop(1);
        ws.st(FORCE + d, Pack::splat(rho * input.body_force[d]), lay, rec);
    }

    // --- Direct RHS accumulation (no elemental matrix). ---
    let vol = ws.ld(VOL, lay, rec);
    rec.flop(1);
    let gpvol = 0.25 * vol;
    for a in 0..4 {
        for d in 0..3 {
            ws.st(ELRHS + 3 * a + d, Pack::ZERO, lay, rec);
        }
    }
    for g in 0..Tet4::NUM_GAUSS {
        for a in 0..4 {
            for d in 0..3 {
                let con = ws.ld(GPCON + 3 * g + d, lay, rec);
                rec.flop(2);
                ws.acc(
                    ELRHS + 3 * a + d,
                    -gpvol * Tet4::SHAPE[g][a] * con,
                    lay,
                    rec,
                );
            }
        }
    }
    // Pressure and force (constant gradients: single closed-form term).
    let pbar = ws.ld(PBAR, lay, rec);
    for a in 0..4 {
        for d in 0..3 {
            let car = ws.ld(CARTE + 3 * a + d, lay, rec);
            let f = ws.ld(FORCE + d, lay, rec);
            rec.fma(2);
            rec.flop(2);
            ws.acc(ELRHS + 3 * a + d, vol * pbar * car + gpvol * f, lay, rec);
        }
    }
    // Diffusion.
    let nut = ws.ld(NUT, lay, rec);
    rec.flop(2);
    let mu_eff = mu + rho * nut;
    for a in 0..4 {
        for d in 0..3 {
            let mut flux = Pack::ZERO;
            for b in 0..4 {
                let mut gdot = Pack::ZERO;
                for i in 0..3 {
                    let ca = ws.ld(CARTE + 3 * a + i, lay, rec);
                    let cb = ws.ld(CARTE + 3 * b + i, lay, rec);
                    gdot += ca * cb;
                }
                rec.fma(3);
                let u = ws.ld(ELVEL + 3 * b + d, lay, rec);
                rec.fma(1);
                flux += gdot * u;
            }
            ws.st(DIFF + 3 * a + d, flux, lay, rec);
            let flux = ws.ld(DIFF + 3 * a + d, lay, rec);
            rec.flop(2);
            ws.acc(ELRHS + 3 * a + d, -vol * mu_eff * flux, lay, rec);
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
        let regions = [
            (ELCOD, 12),
            (ELVEL, 12),
            (ELPRE, 4),
            (CARTE, 12),
            (VOL, 1),
            (GVE, 9),
            (NUT, 1),
            (GPADV, 12),
            (GPCON, 12),
            (PBAR, 1),
            (FORCE, 3),
            (DIFF, 12),
            (ELRHS, 12),
        ];
        let mut cursor = 0;
        for (off, len) in regions {
            assert_eq!(off, cursor, "catalog gap/overlap at offset {off}");
            cursor += len;
        }
        assert_eq!(cursor, NVALUES);
        assert_eq!(regions.len(), NUM_ARRAYS);
    }

    #[test]
    fn closed_forms_match_the_measured_counts() {
        // The values the contracts used to pin directly, now derived.
        assert_eq!(ws_stores_per_element(), 175);
        assert_eq!(ws_loads_per_element(), 725);
        assert_eq!(input_loads_per_element(), 32);
        // Sanity: every workspace slot is written at least once.
        assert!(ws_stores_per_element() >= NVALUES as u64);
    }

    #[test]
    fn reduction_matches_paper_ratio() {
        // Paper: 430 -> 130 values (3.3x); ours 441 -> 103 (4.3x).
        let ratio = crate::kernels::baseline::NVALUES as f64 / NVALUES as f64;
        assert!((2.5..6.0).contains(&ratio), "reduction ratio {ratio}");
    }
}
