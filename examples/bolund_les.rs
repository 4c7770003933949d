//! Mini-LES of flow over the synthetic Bolund-like cliff: the full
//! fractional-step loop (explicit momentum with the RSPR assembly,
//! pressure projection, correction) on the terrain mesh with no-slip
//! ground and a logarithmic inflow.
//!
//! Run with: `cargo run --release --example bolund_les [elems] [steps]`

use alya_core::Variant;
use alya_fem::bc::DirichletBc;
use alya_fem::material::ConstantProperties;
use alya_mesh::{MeshStats, TerrainMeshBuilder};
use alya_solver::step::{FractionalStep, StepConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let elems: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    let mesh = TerrainMeshBuilder::with_approx_elements(elems).build();
    println!("{}", MeshStats::gather(&mesh));

    let mut config = StepConfig::default();
    config.dt = 2e-3;
    config.props = ConstantProperties::AIR;
    config.cg_tol = 1e-6;
    config.cg_max_iters = 400;

    let mut solver = FractionalStep::new(&mesh, config);

    // No-slip at the terrain surface, log-law inflow everywhere else low.
    let mut bc = DirichletBc::new();
    // Ground: nodes on the terrain surface (z below the local terrain + eps
    // is hard without the heightmap; use the bottom mesh layer instead).
    bc.fix_where(
        &mesh,
        |p| p[2] < 0.02 + 0.2 * (-((p[0] - 1.0).powi(2) + (p[1] - 1.0).powi(2)) / 0.125).exp(),
        |_| [0.0; 3],
    );
    solver.set_bc(bc);

    let (u_star, z0, kappa) = (0.4, 3e-4, 0.4);
    solver.set_velocity(move |p| {
        let z = p[2].max(z0 * 1.01);
        [u_star / kappa * (z / z0).ln() * 0.2, 0.0, 0.0]
    });

    println!("\nstep     time    CFL    KE          |div u|    CG iters  nu_t-active",);
    for step in 1..=steps {
        let stats = solver.step(Variant::Rspr);
        if step % (steps / 10).max(1) == 0 || step == 1 {
            let input = alya_core::AssemblyInput::new(
                &mesh,
                solver.velocity(),
                solver.pressure(),
                solver.pressure(), // placeholder temperature; unused
            );
            let nut = alya_core::nut::compute_nu_t(&input);
            let active = nut.iter().filter(|&&n| n > 0.0).count();
            println!(
                "{:4}  {:7.4}  {:5.2}  {:.4e}  {:.3e}  {:8}  {:6}/{}",
                step,
                solver.time(),
                solver.cfl(),
                stats.kinetic_energy,
                stats.divergence_after,
                stats.cg.iterations,
                active,
                mesh.num_elements()
            );
            assert!(stats.kinetic_energy.is_finite(), "simulation diverged");
        }
    }
    println!("\ndone: LES advanced to t = {:.4}", solver.time());
}
