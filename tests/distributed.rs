//! Distributed-assembly equivalence and reproducibility: the rank-parallel
//! driver matches the serial reference for every variant at every rank
//! count, is bitwise reproducible at a fixed rank count whatever the
//! process-wide thread cap — and whether compute/exchange overlap is on
//! or off — honors the analyzer's comm contract on random meshes, and the
//! committed `BENCH_comm.json` matches the recomputed closed-form halo
//! budget and records a real overlap win. An overlapped run inside a
//! telemetry session must also emit a contract-exact Table-I profile and
//! a trace in which every rank's halo sends are posted before its
//! interior is assembled.

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

/// The acceptance run: a 4-rank overlapped assembly on a mesh with a
/// large interior on every rank, run inside a telemetry session. The
/// Table-I view must count every mesh element once, the chrome-trace
/// export must parse, and the analyzer's telemetry pass must certify the
/// lot — including the program order of each rank's phases: `halo-post`
/// closes before `assemble-overlap` opens, the overlap made visible.
#[test]
fn overlapped_run_emits_contract_exact_telemetry_and_posts_before_the_interior() {
    use alya_analyze::telemetry::{check_report, expectation};
    use alya_core::metrics;
    use alya_telemetry::export::validate_json;

    // 15×15×13 boxes → 17550 tets: >4k interior elements per rank.
    let mesh = BoxMeshBuilder::new(15, 15, 13)
        .jitter(0.05)
        .seed(11)
        .build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
    let driver = DistributedDriver::new(&mesh, 4);
    assert!(driver.overlap_enabled());

    let session = alya_telemetry::session();
    let _ = driver.assemble(Variant::Rsp, &input);
    let report = session.finish();

    // Table-I view: one RSP row over every mesh element.
    let profile = metrics::table_one(&report);
    assert_eq!(profile.rows.len(), 1, "{profile}");
    assert_eq!(profile.rows[0].elements, mesh.num_elements() as u64);

    // The chrome export is well-formed trace_event JSON.
    validate_json(&report.chrome_trace()).expect("chrome trace parses");

    // Pass 6 certifies the element count, span nesting and the phase
    // order: sends posted before the interior assembles.
    let exp = expectation(&driver, Variant::Rsp);
    let checked = check_report(&report, &exp);
    assert!(checked.is_clean(), "{checked}");
    assert_eq!(checked.observed_elements, mesh.num_elements() as u64);
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
    // tests/ compiles into alya-bench, so the workspace root is two up.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_comm.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
    let report = check_bench_comm(&json);
    assert!(report.is_clean(), "{report}");
    assert!(report.rows_checked >= RANK_COUNTS.len(), "{report:?}");

    // The analyzer proves the overlap accounting self-consistent; the
    // claim that overlap actually *helps* is ours to hold: once several
    // ranks exchange real halo traffic, overlapped interior assembly must
    // have absorbed part of the blocked wait.
    for (ranks, win) in committed_overlap_wins(&json) {
        if ranks >= 4 {
            assert!(
                win > 0.0,
                "committed BENCH_comm.json shows no overlap win at {ranks} ranks ({win})"
            );
        }
    }
}

/// Pulls `(ranks, overlap_win)` out of each result row of the committed
/// report (one row per line, as `comm --json` renders it).
fn committed_overlap_wins(json: &str) -> Vec<(usize, f64)> {
    fn field(line: &str, name: &str) -> Option<f64> {
        let rest = line.split(&format!("\"{name}\": ")).nth(1)?;
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }
    let rows: Vec<(usize, f64)> = json
        .lines()
        .filter_map(|l| {
            let ranks = field(l, "ranks")? as usize;
            Some((ranks, field(l, "overlap_win")?))
        })
        .collect();
    assert!(
        rows.iter().any(|&(r, _)| r >= 4),
        "committed report carries no rows at ≥4 ranks"
    );
    rows
}
