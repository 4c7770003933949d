//! Seeded inputs shared by the workloads, and the checks on their outputs.
//!
//! The case is the Bolund-like terrain snapshot of `crates/bench/src/case.rs`
//! (air, weak synoptic forcing, log-law inflow, no-slip ground). The seed
//! moves only the phases and amplitudes of the inflow perturbation: every
//! seed gives a different field — so no run can be answered from a previous
//! one — but the same mesh and nearly the same amount of work, which is
//! what lets runs with different seeds be compared.

use alya_core::AssemblyInput;
use alya_fem::bc::DirichletBc;
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::generator::TerrainProfile;
use alya_mesh::{Rng64, TerrainMeshBuilder, TetMesh};
use alya_solver::{StepConfig, TimeScheme};

/// Fluid properties of every workload (air).
pub const PROPS: ConstantProperties = ConstantProperties::AIR;
/// Uniform body force (weak synoptic pressure-gradient forcing).
pub const BODY_FORCE: [f64; 3] = [1.2e-3, 0.0, 0.0];
/// Time step of the step and serve workloads.
pub const DT: f64 = 5e-4;
/// The terrain: the Bolund-like hill and escarpment `TerrainMeshBuilder`
/// defaults to, spelled out so the benchmark knows where the ground is.
const TERRAIN: TerrainProfile = TerrainProfile {
    hill_height: 0.12,
    hill_center: (1.0, 1.0),
    hill_sigma: 0.25,
    cliff_height: 0.06,
    cliff_x: 0.7,
    cliff_width: 0.05,
};
/// Element count of the cache-resident case (405 nodes).
pub const SMALL_ELEMS: usize = 1536;

/// Stream of seeded draws for `purpose`, independent of the other purposes
/// of the same `--seed`.
pub fn rng(seed: u64, purpose: u64) -> Rng64 {
    Rng64::new(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The seeded inflow: log-law profile plus a lateral perturbation and a
/// recirculation hint, with seeded phases and amplitudes.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    lateral_amp: f64,
    phases: [f64; 3],
}

impl Flow {
    /// The flow of `--seed seed`.
    pub fn seeded(seed: u64) -> Self {
        let mut r = rng(seed, 1);
        Self {
            lateral_amp: r.range_f64(0.0495, 0.0505),
            phases: [
                r.range_f64(0.0, 0.1),
                r.range_f64(0.0, 0.1),
                r.range_f64(0.0, 0.1),
            ],
        }
    }

    /// Velocity at point `p`.
    pub fn velocity(&self, p: [f64; 3]) -> [f64; 3] {
        let (u_star, z0, kappa) = (0.4, 3e-4, 0.4);
        let z = p[2].max(z0 * 1.01);
        let log_u = u_star / kappa * (z / z0).ln();
        let [a, b, c] = self.phases;
        [
            log_u * (1.0 + self.lateral_amp * (6.0 * p[1] + a).sin()),
            0.3 * (4.0 * p[0] + b).sin() * (-(p[2] * 4.0)).exp(),
            0.2 * (5.0 * (p[0] - 1.0) + c).sin() * (-(p[2] * 3.0)).exp(),
        ]
    }
}

/// The terrain mesh with roughly `elems` tetrahedra.
pub fn mesh(elems: usize) -> TetMesh {
    TerrainMeshBuilder::with_approx_elements(elems)
        .profile(TERRAIN)
        .build()
}

/// No-slip on the ground. The ground follows the terrain, which is above
/// `z = 0` everywhere, so `DirichletBc::no_slip_ground` (a test on `z`
/// alone) would constrain nothing; this pins the nodes on the terrain.
pub fn no_slip_ground(mesh: &TetMesh) -> DirichletBc {
    let mut bc = DirichletBc::new();
    bc.fix_where(
        mesh,
        |p| p[2] <= TERRAIN.height(p[0], p[1]) + 1e-9,
        |_| [0.0; 3],
    );
    bc
}

/// Integrator configuration of the step and serve workloads.
pub fn step_config(scheme: TimeScheme, parallel: bool) -> StepConfig {
    StepConfig {
        dt: DT,
        scheme,
        props: PROPS,
        body_force: BODY_FORCE,
        parallel,
        ..StepConfig::default()
    }
}

/// The nodal snapshot the assembly workloads sweep over.
pub struct Snapshot {
    /// Seeded velocity.
    pub velocity: VectorField,
    /// Hydrostatic-ish background pressure with a wake low.
    pub pressure: ScalarField,
    /// Lapse-rate temperature (unused by the specialised variants).
    pub temperature: ScalarField,
}

impl Snapshot {
    /// Samples the fields on `mesh`.
    pub fn new(mesh: &TetMesh, flow: &Flow) -> Self {
        let rho = PROPS.density;
        Self {
            velocity: VectorField::from_fn(mesh, |p| flow.velocity(p)),
            pressure: ScalarField::from_fn(mesh, |p| {
                -rho * 9.81 * p[2] * 0.01
                    - 0.5 * (-((p[0] - 1.2).powi(2) + (p[1] - 1.0).powi(2)) * 4.0).exp()
            }),
            temperature: ScalarField::from_fn(mesh, |p| 288.0 - 6.5 * p[2]),
        }
    }

    /// The assembly input over `mesh` and this snapshot.
    pub fn input<'a>(&'a self, mesh: &'a TetMesh) -> AssemblyInput<'a> {
        AssemblyInput::new(mesh, &self.velocity, &self.pressure, &self.temperature)
            .props(PROPS)
            .body_force(BODY_FORCE)
    }
}

/// Largest componentwise difference of `a` from `reference`, relative to
/// the reference's max-norm.
pub fn rel_err_max(a: &[f64], reference: &[f64]) -> f64 {
    if a.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut diff = 0.0f64;
    for (x, y) in a.iter().zip(reference) {
        let d = (x - y).abs();
        // `f64::max` drops a NaN operand, so test for it before folding.
        if !d.is_finite() {
            return f64::INFINITY;
        }
        diff = diff.max(d);
    }
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

/// FNV-1a offset basis — the seed `alya-serve` starts its state digests
/// from, so a directly computed digest is comparable with a served one.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Bitwise digest of a solver state, folded the way `alya-serve` digests a
/// retired step session (velocity, then pressure).
pub fn state_digest(velocity: &VectorField, pressure: &ScalarField) -> u64 {
    let h = alya_serve::digest_bits(FNV_OFFSET, velocity.as_slice());
    alya_serve::digest_bits(h, pressure.as_slice())
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not offer it).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_flow_other_seed_other_flow() {
        let p = [0.7, 0.3, 0.2];
        assert_eq!(Flow::seeded(5).velocity(p), Flow::seeded(5).velocity(p));
        assert_ne!(Flow::seeded(5).velocity(p), Flow::seeded(6).velocity(p));
        assert_ne!(rng(5, 1).next_u64(), rng(5, 2).next_u64());
    }

    #[test]
    fn rel_err_is_relative_to_the_reference_and_rejects_non_finite() {
        assert_eq!(rel_err_max(&[1.0, 10.0], &[1.0, 10.0]), 0.0);
        assert!((rel_err_max(&[1.0, 10.5], &[1.0, 10.0]) - 0.05).abs() < 1e-15);
        assert_eq!(rel_err_max(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(rel_err_max(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn ground_bc_pins_exactly_the_bottom_layer_of_nodes() {
        let m = mesh(SMALL_ELEMS); // 8 x 8 x 4 cells
        assert_eq!(
            m,
            TerrainMeshBuilder::with_approx_elements(SMALL_ELEMS).build()
        );
        assert_eq!(no_slip_ground(&m).len(), 9 * 9 * 3);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
