//! Distributed-assembly equivalence and reproducibility: the rank-parallel
//! driver matches the serial reference for every variant at every rank
//! count, is bitwise reproducible at a fixed rank count whatever the
//! process-wide thread cap — and whether compute/exchange overlap is on
//! or off — honors the analyzer's comm contract on random meshes, and the
//! committed `BENCH_comm.json` matches the recomputed closed-form halo
//! budget and records a real overlap win. (The telemetry an overlapped run
//! emits is analyzer pass 6, `alya_analyze::telemetry`.)

use alya_analyze::bench::BenchFile;
use alya_analyze::comm::{check_bench_comm, check_distributed};
use alya_core::{assemble_serial, AssemblyInput, DistributedDriver, Variant};
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{BoxMeshBuilder, Rng64, TetMesh};

const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fields(mesh: &TetMesh) -> (VectorField, ScalarField, ScalarField) {
    let v = VectorField::from_fn(mesh, |p| {
        [
            p[2] * p[2] + 0.4 * (2.0 * p[1]).sin(),
            0.6 * p[0] - (3.0 * p[2]).cos(),
            0.3 * p[0] * p[1] - 0.2 * p[2],
        ]
    });
    let p = ScalarField::from_fn(mesh, |q| q[0] - 0.3 * q[1] + q[2] * q[2]);
    let t = ScalarField::zeros(mesh.num_nodes());
    (v, p, t)
}

#[test]
fn distributed_matches_serial_for_every_variant_and_rank_count() {
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.12).seed(29).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t)
        .props(ConstantProperties::AIR)
        .body_force([0.05, -0.02, -0.4]);
    for ranks in RANK_COUNTS {
        let driver = DistributedDriver::new(&mesh, ranks);
        for variant in Variant::ALL {
            let serial = assemble_serial(variant, &input);
            let scale = serial.max_abs().max(1e-12);
            let (rhs, report) = driver.assemble(variant, &input);
            let dev = rhs.max_abs_diff(&serial) / scale;
            assert!(dev < 1e-12, "{variant} × {ranks} ranks: deviation {dev}");
            assert!(report.all_delivered(), "{variant} × {ranks}: {report:#?}");
            // The exchange volume is a property of the decomposition, not
            // the variant: every variant ships the same halo.
            assert_eq!(report.total_bytes(), driver.expected_halo_bytes() as u64);
        }
    }
}

#[test]
fn distributed_assembly_is_bitwise_reproducible_across_thread_caps() {
    use alya_machine::par;
    let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(43).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
    for ranks in [2, 8] {
        let driver = DistributedDriver::new(&mesh, ranks);
        // The rank count is fixed by the decomposition; a process-wide
        // worker cap changes scheduling only, so the deterministic
        // sender-ordered combine must reproduce every bit.
        par::set_thread_cap(Some(1));
        let (a, ra) = driver.assemble(Variant::Rspr, &input);
        par::set_thread_cap(Some(8));
        let (b, rb) = driver.assemble(Variant::Rspr, &input);
        par::set_thread_cap(None);
        assert_eq!(
            a.max_abs_diff(&b),
            0.0,
            "{ranks} ranks: combine order leaked into the result"
        );
        // The accounting is deterministic too.
        assert_eq!(ra, rb, "{ranks} ranks: nondeterministic comm report");
    }
}

#[test]
fn overlap_on_and_off_agree_bitwise_for_every_variant_and_rank_count() {
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.11).seed(61).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t)
        .props(ConstantProperties::AIR)
        .body_force([-0.03, 0.07, -0.3]);
    for ranks in RANK_COUNTS {
        let on = DistributedDriver::new(&mesh, ranks);
        let off = DistributedDriver::from_shard_set(on.shard_set().clone()).overlap(false);
        assert!(on.overlap_enabled() && !off.overlap_enabled());
        for variant in Variant::ALL {
            // Interior elements never touch boundary slots and both modes
            // assemble boundary elements first in the same order, so the
            // shipped halos — and therefore every combined bit — must
            // match exactly.
            let (a, ra) = on.assemble(variant, &input);
            let (b, rb) = off.assemble(variant, &input);
            assert_eq!(
                a.max_abs_diff(&b),
                0.0,
                "{variant} × {ranks} ranks: overlap changed a bit"
            );
            assert_eq!(ra, rb, "{variant} × {ranks} ranks: comm report diverged");
        }
    }
}

/// Communication follows the interface, not the volume: doubling the mesh
/// along one axis doubles the work while the 2-rank bisection interface
/// keeps its size, so the closed-form halo bytes *per element* must fall.
#[test]
fn communication_volume_scales_with_interface_not_volume() {
    let small = BoxMeshBuilder::new(4, 4, 4).build();
    let large = BoxMeshBuilder::new(8, 4, 4).extent(2.0, 1.0, 1.0).build();
    let per_elem = |mesh: &TetMesh| {
        let bytes = DistributedDriver::new(mesh, 2).expected_halo_bytes();
        assert!(bytes > 0, "a 2-rank decomposition must exchange something");
        bytes as f64 / mesh.num_elements() as f64
    };
    let (s, l) = (per_elem(&small), per_elem(&large));
    assert!(l < 0.75 * s, "surface-to-volume not visible: {s} vs {l}");
}

#[test]
fn live_exchanges_honor_the_comm_contract_on_random_meshes() {
    let mut rng = Rng64::new(0xD157);
    for _ in 0..6 {
        let nx = rng.range_usize(2, 5);
        let ny = rng.range_usize(2, 4);
        let nz = rng.range_usize(2, 4);
        let jitter = rng.range_f64(0.0, 0.2);
        let seed = rng.next_u64() % 1000;
        let ranks = rng.range_usize(2, 9);
        let mesh = BoxMeshBuilder::new(nx, ny, nz)
            .jitter(jitter)
            .seed(seed)
            .build();
        let (v, p, t) = fields(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let (report, _, _) = check_distributed(&input, ranks);
        assert!(
            report.is_clean(),
            "{nx}×{ny}×{nz} mesh at {ranks} ranks: {report}"
        );
    }
}

#[test]
fn committed_bench_comm_report_matches_the_closed_form() {
    let root = alya_analyze::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let bench = BenchFile::read(&root.join("BENCH_comm.json")).unwrap_or_else(|e| panic!("{e}"));
    let report = check_bench_comm(&bench);
    assert!(report.is_clean(), "{report}");
    assert!(report.rows_checked >= RANK_COUNTS.len(), "{report:?}");

    // The analyzer proves the overlap accounting self-consistent; the
    // claim that overlap actually *helps* is ours to hold: once several
    // ranks exchange real halo traffic, overlapped interior assembly must
    // have absorbed part of the blocked wait.
    let mut multi_rank_rows = 0;
    for row in bench.rows() {
        let (Some(ranks), Some(win)) = (row.num("ranks"), row.num("overlap_win")) else {
            continue;
        };
        if ranks >= 4.0 {
            multi_rank_rows += 1;
            assert!(
                win > 0.0,
                "committed BENCH_comm.json shows no overlap win at {ranks} ranks ({win})"
            );
        }
    }
    assert!(
        multi_rank_rows > 0,
        "committed report carries no rows at ≥4 ranks"
    );
}
