//! Benchmarks of the extension subsystems: multigrid preconditioning and
//! reuse-distance analysis.

use alya_bench::harness::{Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_machine::reuse::analyze;
use alya_mesh::BoxMeshBuilder;
use alya_solver::multigrid::{solve_pcg, Jacobi, TwoLevelMg};
use alya_solver::poisson::{laplacian, lumped_mass};

fn bench_subsystems(c: &mut Criterion) {
    // Multigrid-PCG vs Jacobi-PCG on the shifted Laplacian.
    let pm = BoxMeshBuilder::new(10, 10, 10).build();
    let lap = laplacian(&pm);
    let mass = lumped_mass(&pm);
    let mut trips = Vec::new();
    for r in 0..lap.num_rows() {
        let (cols, vals) = lap.row(r);
        for (col, v) in cols.iter().zip(vals) {
            trips.push((r as u32, *col, *v));
        }
        trips.push((r as u32, r as u32, 0.1 * mass[r]));
    }
    let a = alya_solver::CsrMatrix::from_triplets(lap.num_rows(), lap.num_cols(), trips);
    let b_rhs: Vec<f64> = pm.coords().iter().map(|p| (3.0 * p[0]).sin()).collect();
    let mut group = c.benchmark_group("pressure_preconditioners");
    group.sample_size(10);
    group.bench_function("jacobi_pcg", |bch| {
        let j = Jacobi::new(&a.diagonal());
        bch.iter(|| {
            let mut x = vec![0.0; b_rhs.len()];
            solve_pcg(&a, &j, &b_rhs, &mut x, 1e-8, 2000).iterations
        });
    });
    group.bench_function("mg_pcg", |bch| {
        let mg = TwoLevelMg::new(&pm, a.clone(), 48);
        bch.iter(|| {
            let mut x = vec![0.0; b_rhs.len()];
            solve_pcg(&a, &mg, &b_rhs, &mut x, 1e-8, 2000).iterations
        });
    });
    group.finish();

    // Reuse-distance analysis throughput.
    let mut events = Vec::new();
    let mut s = 7u64;
    for _ in 0..60_000 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        events.push(alya_machine::Event::GLoad((s >> 20) % (1 << 22)));
    }
    let mut group = c.benchmark_group("reuse_analysis");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    group.bench_function("mattson_60k", |b| b.iter(|| analyze(&events, 32).cold));
    group.finish();
}

criterion_group!(benches, bench_subsystems);
criterion_main!(benches);
