//! Solver-substrate benchmarks: SpMV, the pressure projection solve, and a
//! full fractional-step time step.

use alya_bench::harness::{Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_core::Variant;
use alya_mesh::BoxMeshBuilder;
use alya_solver::poisson::{laplacian, lumped_mass, weak_divergence, ProjectionOp};
use alya_solver::solve_cg;
use alya_solver::step::{FractionalStep, StepConfig};

fn bench_solver(c: &mut Criterion) {
    let mesh = BoxMeshBuilder::new(16, 16, 16).build();
    let n = mesh.num_nodes();

    // SpMV on the P1 Laplacian.
    let lap = laplacian(&mesh);
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    let mut group = c.benchmark_group("solver");
    group.throughput(Throughput::Elements(lap.nnz() as u64));
    group.sample_size(20);
    group.bench_function("spmv", |b| b.iter(|| lap.spmv(&x, &mut y)));
    group.finish();

    // Pressure projection solve.
    let mass = lumped_mass(&mesh);
    let u = alya_fem::VectorField::from_fn(&mesh, |p| {
        [(2.0 * std::f64::consts::PI * p[0]).sin(), 0.0, 0.0]
    });
    let mut b_rhs = weak_divergence(&mesh, &u);
    for v in b_rhs.as_mut_slice() {
        *v *= 1000.0;
    }
    let mut group = c.benchmark_group("pressure_solve");
    group.sample_size(10);
    group.bench_function("cg_projection", |b| {
        b.iter(|| {
            let op = ProjectionOp::new(&mesh, &mass);
            let mut p = vec![0.0; n];
            let res = solve_cg(&op, b_rhs.as_slice(), &mut p, 1e-8, 500);
            assert!(res.converged);
            res.iterations
        });
    });
    group.finish();

    // A full fractional-step time step.
    let mut group = c.benchmark_group("fractional_step");
    group.sample_size(10);
    group.bench_function("step_rsp", |b| {
        let mut solver = FractionalStep::new(&mesh, StepConfig::default());
        solver.set_velocity(|p| [0.1 * (3.0 * p[2]).sin(), 0.0, 0.0]);
        b.iter(|| solver.step(Variant::Rsp).kinetic_energy);
    });
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
