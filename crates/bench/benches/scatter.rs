//! Parallel scatter-strategy ablation: colored vs compact-numbered
//! owner-computes shards (both race-free by construction).

use alya_bench::harness::{BenchmarkId, Criterion, Throughput};
use alya_bench::{criterion_group, criterion_main};

use alya_bench::case::Case;
use alya_core::nut::compute_nu_t;
use alya_core::{assemble_parallel, ParallelStrategy, Variant};

fn bench_scatter(c: &mut Criterion) {
    let case = Case::bolund(20_000);
    let nut = compute_nu_t(&case.input());
    let mut input = case.input();
    input.nu_t = Some(&nut);
    let ne = case.mesh.num_elements() as u64;

    let strategies = [
        ("colored", ParallelStrategy::colored(&case.mesh)),
        ("sharded", ParallelStrategy::sharded(&case.mesh, 8)),
    ];

    let mut group = c.benchmark_group("scatter_strategy");
    group.throughput(Throughput::Elements(ne));
    group.sample_size(10);
    for (name, strategy) in &strategies {
        group.bench_with_input(BenchmarkId::from_parameter(name), strategy, |b, s| {
            b.iter(|| assemble_parallel(Variant::Rsp, &input, s));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scatter);
criterion_main!(benches);
