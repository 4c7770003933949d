//! Randomized cross-variant equivalence: on random meshes, random smooth
//! fields and random physical parameters, all five kernel variants (and all
//! parallel scatter strategies) produce the same RHS. Seeded and
//! deterministic — see `alya_mesh::rng`.

use alya_core::{
    assemble_parallel, assemble_parallel_with, assemble_serial, assemble_serial_with,
    AssemblyInput, ExecMode, ParallelStrategy, Variant,
};
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{BoxMeshBuilder, Rng64};

/// A random smooth vector field from a small trigonometric basis.
fn field_from_coeffs(mesh: &alya_mesh::TetMesh, c: &[f64; 9]) -> VectorField {
    VectorField::from_fn(mesh, |p| {
        [
            c[0] * p[2] * p[2] + c[1] * (2.0 * p[1]).sin() + c[2],
            c[3] * p[0] + c[4] * (3.0 * p[2]).cos() + c[5] * p[1] * p[0],
            c[6] * p[1] + c[7] * (p[0] * p[1]) + c[8],
        ]
    })
}

fn arb_coeffs(rng: &mut Rng64) -> [f64; 9] {
    let mut c = [0.0; 9];
    for x in &mut c {
        *x = rng.range_f64(-1.0, 1.0);
    }
    c
}

#[test]
fn variants_agree_on_random_inputs() {
    let mut rng = Rng64::new(0xEC01);
    for _ in 0..12 {
        let nx = rng.range_usize(2, 4);
        let nz = rng.range_usize(2, 4);
        let jitter = rng.range_f64(0.0, 0.2);
        let seed = rng.next_u64() % 1000;
        let coeffs = arb_coeffs(&mut rng);
        let rho = rng.range_f64(0.5, 2.0);
        let mu = rng.range_f64(1e-4, 1e-1);
        let fz = rng.range_f64(-1.0, 1.0);

        let mesh = BoxMeshBuilder::new(nx, 3, nz)
            .jitter(jitter)
            .seed(seed)
            .build();
        let velocity = field_from_coeffs(&mesh, &coeffs);
        let pressure = ScalarField::from_fn(&mesh, |p| coeffs[0] * p[0] - coeffs[3] * p[1] * p[2]);
        let temperature = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
            .props(ConstantProperties {
                density: rho,
                viscosity: mu,
            })
            .body_force([0.0, 0.1, fz]);

        let reference = assemble_serial(Variant::Rsp, &input);
        let scale = reference.max_abs().max(1e-12);
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            let dev = rhs.max_abs_diff(&reference) / scale;
            assert!(dev < 1e-10, "{variant} deviates by {dev}");
        }
    }
}

#[test]
fn parallel_strategies_agree_on_random_inputs() {
    let mut rng = Rng64::new(0xEC02);
    for _ in 0..12 {
        let seed = rng.next_u64() % 1000;
        let coeffs = arb_coeffs(&mut rng);
        let parts = rng.range_usize(2, 9);

        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(seed).build();
        let velocity = field_from_coeffs(&mesh, &coeffs);
        let pressure = ScalarField::from_fn(&mesh, |p| p[0] + p[1] * p[2]);
        let temperature = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
            .props(ConstantProperties::AIR);

        let reference = assemble_serial(Variant::Rspr, &input);
        let scale = reference.max_abs().max(1e-12);
        for strategy in [
            ParallelStrategy::colored(&mesh),
            ParallelStrategy::partitioned(&mesh, parts),
            ParallelStrategy::sharded(&mesh, parts),
        ] {
            let rhs = assemble_parallel(Variant::Rspr, &input, &strategy);
            let dev = rhs.max_abs_diff(&reference) / scale;
            assert!(dev < 1e-10, "{} deviation {dev}", strategy.name());
        }
    }
}

/// Full equivalence sweep: every parallel strategy matches the serial
/// reference within 1e-12 (relative, per node), for every variant, with
/// 1/2/8-way decompositions, on a mesh big enough to spawn real worker
/// threads (288 elements, above `par`'s serial cutoff of 256) **and** on a
/// degenerate 24-element mesh that takes the serial fast path everywhere.
#[test]
fn all_strategies_match_serial_across_variants_and_worker_counts() {
    let meshes = [
        (
            BoxMeshBuilder::new(4, 4, 3).jitter(0.12).seed(41).build(),
            "288-element",
        ),
        (
            BoxMeshBuilder::new(2, 2, 1).build(),
            "degenerate 24-element",
        ),
    ];
    for (mesh, label) in &meshes {
        let velocity = field_from_coeffs(mesh, &[0.4, -0.2, 0.9, 0.3, -0.6, 0.1, 0.7, 0.2, -0.4]);
        let pressure = ScalarField::from_fn(mesh, |p| p[0] - 0.3 * p[1] + p[2] * p[2]);
        let temperature = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(mesh, &velocity, &pressure, &temperature)
            .props(ConstantProperties::AIR)
            .body_force([0.05, -0.02, -0.4]);

        // Worker-count-independent strategies once, owner-computes
        // decompositions at every worker count.
        let mut strategies = vec![
            ParallelStrategy::colored(mesh),
            ParallelStrategy::auto(mesh),
        ];
        for workers in [1, 2, 8] {
            strategies.push(ParallelStrategy::partitioned(mesh, workers));
            strategies.push(ParallelStrategy::sharded(mesh, workers));
        }

        for variant in Variant::ALL {
            let serial = assemble_serial(variant, &input);
            let scale = serial.max_abs().max(1e-12);
            assert!(serial.max_abs() > 0.0, "{label}: degenerate input");
            for strategy in &strategies {
                let rhs = assemble_parallel(variant, &input, strategy);
                let dev = rhs.max_abs_diff(&serial) / scale;
                assert!(
                    dev < 1e-12,
                    "{label} mesh, {variant} × {}: deviation {dev}",
                    strategy.name()
                );
            }
        }
    }
}

/// The same sweep under explicit thread caps: the process-wide worker
/// count must never change the assembled values, only the parallelism.
#[test]
fn thread_cap_never_changes_the_result() {
    use alya_machine::par;
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.1).seed(17).build();
    let velocity = field_from_coeffs(&mesh, &[0.2, 0.5, -0.1, 0.8, 0.0, -0.3, 0.4, -0.7, 0.6]);
    let pressure = ScalarField::from_fn(&mesh, |p| 2.0 * p[0] * p[2] - p[1]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);

    let serial = assemble_serial(Variant::Rsp, &input);
    let scale = serial.max_abs().max(1e-12);
    let strategies = [
        ParallelStrategy::colored(&mesh),
        ParallelStrategy::partitioned(&mesh, 8),
        ParallelStrategy::sharded(&mesh, 8),
    ];
    for cap in [1, 2, 8] {
        par::set_thread_cap(Some(cap));
        for strategy in &strategies {
            let rhs = assemble_parallel(Variant::Rsp, &input, strategy);
            let dev = rhs.max_abs_diff(&serial) / scale;
            assert!(
                dev < 1e-12,
                "cap {cap}, {}: deviation {dev}",
                strategy.name()
            );
        }
    }
    par::set_thread_cap(None);
}

/// Telemetry must be a pure observer: the RHS assembled inside a
/// telemetry session is **bitwise** identical to the one assembled with
/// telemetry off, for every variant × strategy × worker cap. Counters
/// tally at closed-form contract rates and spans only read the clock, so
/// not one floating-point operation is added or reordered — this test is
/// the enforcement.
#[test]
fn telemetry_on_or_off_never_changes_a_bit() {
    use alya_machine::par;
    use alya_telemetry::Metric;
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.12).seed(41).build();
    let velocity = field_from_coeffs(&mesh, &[0.4, -0.2, 0.9, 0.3, -0.6, 0.1, 0.7, 0.2, -0.4]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[0] - 0.3 * p[1] + p[2] * p[2]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);

    let strategies = [
        ParallelStrategy::colored(&mesh),
        ParallelStrategy::partitioned(&mesh, 8),
        ParallelStrategy::sharded(&mesh, 8),
    ];
    // Serial first, then every parallel strategy, telemetry off/on.
    let sweep = |variant| {
        let mut out = vec![assemble_serial(variant, &input)];
        out.extend(
            strategies
                .iter()
                .map(|s| assemble_parallel(variant, &input, s)),
        );
        out
    };
    for cap in [1, 2, 8] {
        par::set_thread_cap(Some(cap));
        for variant in Variant::ALL {
            let baseline = sweep(variant);
            let session = alya_telemetry::session();
            let observed = sweep(variant);
            let report = session.finish();
            // The session really was live and counting…
            assert!(report.total(Metric::ElementsAssembled) > 0);
            // …and changed nothing.
            for (b, o) in baseline.iter().zip(&observed) {
                assert_eq!(
                    o.max_abs_diff(b),
                    0.0,
                    "cap {cap}, {variant}: telemetry perturbed the RHS"
                );
            }
        }
    }
    par::set_thread_cap(None);
}

/// The lane-packed execution path is not merely equivalent to the scalar
/// path — it is **bitwise identical**, for every variant × strategy ×
/// worker cap. Both are the same kernel statements at a different lane
/// count (no operation mixes lanes, no FMA contraction), so a
/// 1e-12 tolerance would already be loose; this test pins equality at
/// zero, on a mesh whose element count is *not* a multiple of the lane
/// width so the scalar remainder path is exercised too.
#[test]
fn packed_execution_matches_scalar_across_variants_strategies_and_worker_counts() {
    use alya_machine::par;
    let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.12).seed(41).build();
    assert!(
        mesh.num_elements() % alya_core::DEFAULT_LANES != 0,
        "fixture must exercise the scalar remainder"
    );
    let velocity = field_from_coeffs(&mesh, &[0.4, -0.2, 0.9, 0.3, -0.6, 0.1, 0.7, 0.2, -0.4]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[0] - 0.3 * p[1] + p[2] * p[2]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR)
        .body_force([0.05, -0.02, -0.4]);

    let strategies = [
        ParallelStrategy::colored(&mesh),
        ParallelStrategy::partitioned(&mesh, 8),
        ParallelStrategy::sharded(&mesh, 8),
    ];
    for cap in [1, 2, 8] {
        par::set_thread_cap(Some(cap));
        // Variant::ALL on purpose: at eight lanes P is B's loop over a
        // thread-private workspace, and must stay bitwise its one-lane run.
        for variant in Variant::ALL {
            let scalar = assemble_serial_with(variant, &input, ExecMode::Scalar);
            let packed = assemble_serial_with(variant, &input, ExecMode::Packed);
            assert_eq!(
                packed.max_abs_diff(&scalar),
                0.0,
                "cap {cap}, {variant}: packed serial diverged from scalar"
            );
            for strategy in &strategies {
                let scalar = assemble_parallel_with(variant, &input, strategy, ExecMode::Scalar);
                let packed = assemble_parallel_with(variant, &input, strategy, ExecMode::Packed);
                assert_eq!(
                    packed.max_abs_diff(&scalar),
                    0.0,
                    "cap {cap}, {variant} × {}: packed diverged from scalar",
                    strategy.name()
                );
            }
        }
    }
    par::set_thread_cap(None);
}

/// Bitwise reproducibility of the packed path itself: at the fixed
/// default lane count, re-assembling the same input through the packed
/// path gives the same bits, run after run and across worker caps — the
/// deterministic-scatter guarantee extends to packed execution.
#[test]
fn packed_execution_is_bitwise_reproducible() {
    use alya_machine::par;
    let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(29).build();
    let velocity = field_from_coeffs(&mesh, &[0.3, 0.1, -0.5, 0.7, -0.2, 0.4, 0.0, 0.6, -0.1]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[1] + 0.5 * p[0] * p[2]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);

    for variant in [Variant::Rsp, Variant::Rspr] {
        let reference = assemble_serial_with(variant, &input, ExecMode::Packed);
        for _ in 0..3 {
            let again = assemble_serial_with(variant, &input, ExecMode::Packed);
            assert_eq!(again.max_abs_diff(&reference), 0.0, "{variant}: serial");
        }
        // A parallel strategy reproduces against its own packed runs (a
        // different strategy accumulates in a different order, so it is
        // equivalent, not bitwise-equal, to serial).
        let strategy = ParallelStrategy::sharded(&mesh, 8);
        let parallel_ref = assemble_parallel_with(variant, &input, &strategy, ExecMode::Packed);
        for cap in [1, 2, 8] {
            par::set_thread_cap(Some(cap));
            let rhs = assemble_parallel_with(variant, &input, &strategy, ExecMode::Packed);
            assert_eq!(
                rhs.max_abs_diff(&parallel_ref),
                0.0,
                "{variant}: sharded at cap {cap}"
            );
        }
        par::set_thread_cap(None);
    }
}

/// The jittered box and smooth fields the packed-execution profile and
/// trace tests share.
fn packed_case() -> (alya_mesh::TetMesh, VectorField, ScalarField, ScalarField) {
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.12).seed(41).build();
    let velocity = field_from_coeffs(&mesh, &[0.4, -0.2, 0.9, 0.3, -0.6, 0.1, 0.7, 0.2, -0.4]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[0] - 0.3 * p[1] + p[2] * p[2]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    (mesh, velocity, pressure, temperature)
}

/// The Table-I telemetry profile is invariant under the execution mode:
/// counters tally at pack granularity through the same per-driver-call
/// chokepoint the scalar path uses, so packed assembly reports exactly
/// the scalar profile — same elements, same contract-rate counters, zero
/// deviation — and telemetry still perturbs nothing.
#[test]
fn table_one_profile_is_invariant_under_packed_execution() {
    use alya_core::metrics;
    use alya_telemetry::Metric;
    let (mesh, velocity, pressure, temperature) = packed_case();
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);

    for variant in [Variant::Rsp, Variant::Rspr] {
        let session = alya_telemetry::session();
        let scalar = assemble_serial_with(variant, &input, ExecMode::Scalar);
        let scalar_report = session.finish();

        let session = alya_telemetry::session();
        let packed = assemble_serial_with(variant, &input, ExecMode::Packed);
        let packed_report = session.finish();

        // Telemetry perturbed neither mode, and the modes agree bitwise.
        assert_eq!(packed.max_abs_diff(&scalar), 0.0, "{variant}");
        // Same elements tallied (pack granularity never double- or
        // under-counts), identical exact Table-I profiles.
        assert_eq!(
            scalar_report.total(Metric::ElementsAssembled),
            packed_report.total(Metric::ElementsAssembled),
            "{variant}"
        );
        assert!(scalar_report.total(Metric::ElementsAssembled) > 0);
        let sp = metrics::table_one(&scalar_report);
        let pp = metrics::table_one(&packed_report);
        assert!(sp.is_exact(), "{variant} scalar profile: {sp}");
        assert!(pp.is_exact(), "{variant} packed profile: {pp}");
        assert_eq!(
            sp.to_string(),
            pp.to_string(),
            "{variant}: packed execution changed the Table-I profile"
        );
    }
}

/// A traced pack measures the code that runs: the kernels emit one event
/// per statement whatever the lane count, at lane 0's addresses, so the
/// stream of a `DEFAULT_LANES`-wide call is event for event the stream of a
/// one-lane call on its first element — and therefore meets the variant's
/// contract exactly as pass 1 checks a one-lane stream.
#[test]
fn a_traced_pack_records_the_stream_of_its_lane_zero_element() {
    use alya_analyze::contracts::check_trace;
    use alya_core::drivers::{trace_element, CPU_VECTOR_DIM};
    use alya_core::gather::DirectSink;
    use alya_core::layout::Layout;
    use alya_core::DEFAULT_LANES as L;
    use alya_machine::TraceRecorder;
    let (mesh, velocity, pressure, temperature) = packed_case();
    let mut input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);
    let nut = alya_core::nut::compute_nu_t(&input);
    input.nu_t = Some(&nut);
    let (ne, nn) = (mesh.num_elements(), mesh.num_nodes());

    for variant in Variant::ALL {
        for first in [0, ne / 2 + 3] {
            // Scattered lanes: nothing below may depend on the pack being
            // consecutive elements.
            let elems: [usize; L] = std::array::from_fn(|l| (first + 37 * l) % ne);
            for lay in [
                Layout::cpu(elems[0], CPU_VECTOR_DIM, nn),
                Layout::gpu(elems[0], ne, nn),
            ] {
                let mut rec = TraceRecorder::new();
                let mut ws_buf = vec![0.0; (variant.nvalues() * L).max(1)];
                let mut rhs = VectorField::zeros(nn);
                let mut sink = DirectSink { rhs: &mut rhs };
                let ws = &mut ws_buf;
                alya_core::kernels::element(
                    variant, &input, &elems, &lay, ws, L, 0, &mut sink, &mut rec,
                );

                let one = trace_element(variant, &input, elems[0], &lay);
                assert!(!one.events.is_empty());
                assert!(
                    rec.events == one.events,
                    "{variant} pack at {first}: {} events, its lane-0 element alone {}",
                    rec.events.len(),
                    one.events.len()
                );
                let violations = check_trace(variant, &variant.contract(), &rec.events);
                assert!(violations.is_empty(), "{variant}: {violations:?}");
            }
        }
    }
}

/// Layout invariance: the CPU pack and GPU launch addressing conventions
/// change *where* the modelled traffic lands, never how much of it there
/// is nor what gets computed.
#[test]
fn cpu_and_gpu_layouts_trace_identical_counts() {
    use alya_core::drivers::{trace_element, CPU_VECTOR_DIM};
    use alya_core::layout::Layout;
    let mesh = BoxMeshBuilder::new(3, 3, 2).jitter(0.05).seed(23).build();
    let velocity = field_from_coeffs(&mesh, &[0.1, 0.3, 0.5, -0.2, 0.4, 0.0, 0.6, -0.1, 0.2]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[0] + p[1] - p[2]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature);
    let (ne, nn) = (mesh.num_elements(), mesh.num_nodes());
    for variant in Variant::ALL {
        for e in [0, ne / 2, ne - 1] {
            let cpu = trace_element(variant, &input, e, &Layout::cpu(e, CPU_VECTOR_DIM, nn));
            let gpu = trace_element(variant, &input, e, &Layout::gpu(e, ne, nn));
            assert_eq!(
                cpu.counts(),
                gpu.counts(),
                "{variant} element {e}: layout changed the operation counts"
            );
        }
    }
}

#[test]
fn rigid_translation_always_yields_zero_rhs() {
    let mut rng = Rng64::new(0xEC03);
    for _ in 0..12 {
        let ux = rng.range_f64(-2.0, 2.0);
        let uy = rng.range_f64(-2.0, 2.0);
        let uz = rng.range_f64(-2.0, 2.0);
        let seed = rng.next_u64() % 100;
        // Constant velocity, no pressure, no forcing: every term of the
        // momentum RHS vanishes identically, on any mesh.
        let mesh = BoxMeshBuilder::new(3, 2, 3).jitter(0.15).seed(seed).build();
        let velocity = VectorField::from_fn(&mesh, |_| [ux, uy, uz]);
        let pressure = ScalarField::zeros(mesh.num_nodes());
        let temperature = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature);
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            assert!(rhs.max_abs() < 1e-11, "{variant}: {}", rhs.max_abs());
        }
    }
}

#[test]
fn rhs_is_linear_in_body_force() {
    let mut rng = Rng64::new(0xEC04);
    for _ in 0..12 {
        let f = [
            rng.range_f64(-5.0, 5.0),
            rng.range_f64(-5.0, 5.0),
            rng.range_f64(-5.0, 5.0),
        ];
        let alpha = rng.range_f64(0.1, 3.0);
        // With zero velocity and pressure the RHS is exactly linear in f.
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let velocity = VectorField::zeros(mesh.num_nodes());
        let pressure = ScalarField::zeros(mesh.num_nodes());
        let temperature = ScalarField::zeros(mesh.num_nodes());
        let base = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature);
        let r1 = assemble_serial(Variant::Rsp, &base.body_force(f));
        let scaled = [alpha * f[0], alpha * f[1], alpha * f[2]];
        let r2 = assemble_serial(Variant::Rsp, &base.body_force(scaled));
        for n in 0..mesh.num_nodes() {
            for d in 0..3 {
                let a = alpha * r1.get(n)[d];
                let b = r2.get(n)[d];
                assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()));
            }
        }
    }
}

/// FNV-1a digests (`alya_serve::digest_bits` from the FNV offset basis) of
/// the RHS on the 1536-element terrain case, one row per assembly path,
/// one column per variant in `Variant::ALL` order (B, P, RS, RSP, RSPR).
/// B, RSP and RSPR were recorded at the commit before the drivers were
/// collapsed onto one element loop, P and RS at the commit before the
/// kernels became lane-generic (where P × Packed still ran the scalar
/// kernel). Scalar and packed execution were bitwise equal at both, so one
/// digest pins both modes.
const GOLDEN_RHS_BITS: [(&str, [u64; 5]); 8] = [
    (
        "serial",
        [
            0x174d_34b1_05f4_4205,
            0x174d_34b1_05f4_4205,
            0xc64c_4c7b_c061_1160,
            0xc64c_4c7b_c061_1160,
            0xc64c_4c7b_c061_1160,
        ],
    ),
    (
        "colored",
        [
            0x2d3a_6249_2380_2d0d,
            0x2d3a_6249_2380_2d0d,
            0xdcae_6816_88b1_f464,
            0xdcae_6816_88b1_f464,
            0xdcae_6816_88b1_f464,
        ],
    ),
    (
        "partitioned/2",
        [
            0x16db_a2f3_6ea5_f131,
            0x16db_a2f3_6ea5_f131,
            0xf16f_b1ba_a714_a279,
            0xf16f_b1ba_a714_a279,
            0xf16f_b1ba_a714_a279,
        ],
    ),
    (
        "partitioned/3",
        [
            0x4735_3671_3716_d6d5,
            0x4735_3671_3716_d6d5,
            0xf4e3_33ef_b6d0_2295,
            0xf4e3_33ef_b6d0_2295,
            0xf4e3_33ef_b6d0_2295,
        ],
    ),
    (
        "sharded/2",
        [
            0x16db_a2f3_6ea5_f131,
            0x16db_a2f3_6ea5_f131,
            0xf16f_b1ba_a714_a279,
            0xf16f_b1ba_a714_a279,
            0xf16f_b1ba_a714_a279,
        ],
    ),
    (
        "sharded/3",
        [
            0x4735_3671_3716_d6d5,
            0x4735_3671_3716_d6d5,
            0xf4e3_33ef_b6d0_2295,
            0xf4e3_33ef_b6d0_2295,
            0xf4e3_33ef_b6d0_2295,
        ],
    ),
    (
        "distributed/2",
        [
            0xaa25_807f_3728_0f4b,
            0xaa25_807f_3728_0f4b,
            0xa6f4_af7a_9293_b2db,
            0xa6f4_af7a_9293_b2db,
            0xa6f4_af7a_9293_b2db,
        ],
    ),
    (
        "distributed/4",
        [
            0x00f8_f97b_8f63_0b7e,
            0x00f8_f97b_8f63_0b7e,
            0xf73c_e367_a6b6_400c,
            0xf73c_e367_a6b6_400c,
            0xf73c_e367_a6b6_400c,
        ],
    ),
];

/// The row of `GOLDEN_RHS_BITS` a strategy must reproduce. `auto` has no
/// digests of its own: it is held to the row of whatever it resolves to,
/// and a one-part partition sums in the serial order.
fn golden_row(strategy: &ParallelStrategy) -> String {
    match strategy {
        ParallelStrategy::Colored(_) => "colored".into(),
        ParallelStrategy::Partitioned(state) => match state.partition.num_parts() {
            1 => "serial".into(),
            parts => format!("partitioned/{parts}"),
        },
        ParallelStrategy::Sharded(shards) => format!("sharded/{}", shards.num_shards()),
    }
}

/// The 1e-12-of-serial and packed == scalar suites cannot see a refactor
/// that reorders a strategy's nodal sums; these digests can. Every
/// (path, variant, mode) cell must reproduce the recorded bits exactly.
#[test]
fn every_assembly_path_reproduces_its_recorded_rhs_bits() {
    use alya_core::DistributedDriver;
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let case = alya_bench::case::Case::bolund(1536);
    let mesh = &case.mesh;
    assert_eq!(mesh.num_elements(), 1536);
    let input = case.input();

    let strategies = [
        ParallelStrategy::colored(mesh),
        ParallelStrategy::partitioned(mesh, 2),
        ParallelStrategy::partitioned(mesh, 3),
        ParallelStrategy::sharded(mesh, 2),
        ParallelStrategy::sharded(mesh, 3),
    ];
    let auto = ParallelStrategy::auto(mesh);
    let auto_row = golden_row(&auto);
    let (_, auto_golden) = GOLDEN_RHS_BITS
        .iter()
        .find(|(path, _)| *path == auto_row)
        .unwrap_or_else(|| panic!("auto resolved to {auto_row}, which has no recorded row"));
    for (col, variant) in Variant::ALL.into_iter().enumerate() {
        for mode in [ExecMode::Scalar, ExecMode::Packed] {
            // Same order as the rows of `GOLDEN_RHS_BITS`.
            let mut paths = vec![assemble_serial_with(variant, &input, mode)];
            for strategy in &strategies {
                paths.push(assemble_parallel_with(variant, &input, strategy, mode));
            }
            for ranks in [2, 4] {
                let driver = DistributedDriver::new(mesh, ranks).packed(mode == ExecMode::Packed);
                assert!(driver.overlap_enabled());
                paths.push(driver.assemble(variant, &input).0);
            }
            assert_eq!(paths.len(), GOLDEN_RHS_BITS.len());
            for (rhs, (path, golden)) in paths.iter().zip(GOLDEN_RHS_BITS) {
                let bits = alya_serve::digest_bits(FNV_OFFSET, rhs.as_slice());
                assert_eq!(
                    bits,
                    golden[col],
                    "{path} × {variant} × {}: RHS digest {bits:#018x} left the recorded bits",
                    mode.name()
                );
            }
            let rhs = assemble_parallel_with(variant, &input, &auto, mode);
            let bits = alya_serve::digest_bits(FNV_OFFSET, rhs.as_slice());
            assert_eq!(
                bits,
                auto_golden[col],
                "auto × {variant} × {}: RHS digest {bits:#018x} is not the {auto_row} row's",
                mode.name()
            );
        }
    }
}

/// `ParallelStrategy::auto` reads no table while assembling; this holds its
/// rule to the committed one instead. On the benched mesh, for every
/// committed thread count and variant, the packed row of the strategy
/// `auto_with` resolves to is within 5 % of the best committed row and no
/// slower than `serial-packed` — so a regenerated `BENCH_drivers.json` that
/// contradicts the rule fails here rather than silently steering nothing.
#[test]
fn auto_is_the_committed_tables_best_row_with_serial_as_the_floor() {
    use alya_core::drivers::ThroughputDb;
    let json = include_str!("../BENCH_drivers.json");
    let db = ThroughputDb::parse(json).expect("BENCH_drivers.json holds throughput rows");
    let elements: usize = json
        .split_once("\"elements\": ")
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(n, _)| n.parse().ok())
        .expect("BENCH_drivers.json names its element count");
    let mesh = alya_mesh::TerrainMeshBuilder::with_approx_elements(elements).build();
    assert_eq!(mesh.num_elements(), elements, "not the benched mesh");

    let serial_floor = |variant: &str| db.melem_per_s("serial-packed", variant, 1);
    let mut cells = 0;
    for threads in 1..=64 {
        for variant in Variant::ALL.map(Variant::name) {
            if db.melem_per_s("sharded-packed", variant, threads).is_none() {
                continue;
            }
            let auto = ParallelStrategy::auto_with(&mesh, threads);
            let got = match golden_row(&auto).split('/').next() {
                Some("serial") => serial_floor(variant),
                Some(name) => db.melem_per_s(&format!("{name}-packed"), variant, threads),
                None => None,
            }
            .unwrap_or_else(|| panic!("no packed {} row at {threads} threads", auto.name()));
            let best = ["serial", "colored", "partitioned", "sharded"]
                .iter()
                .flat_map(|s| [(*s).to_string(), format!("{s}-packed")])
                .filter_map(|s| db.melem_per_s(&s, variant, threads))
                .fold(0.0, f64::max);
            let floor = serial_floor(variant).expect("a serial-packed row at one thread");
            assert!(
                got >= 0.95 * best && got >= floor,
                "{variant} at {threads} threads: auto = {} at {got} Melem/s, \
                 best committed row {best}, serial-packed {floor}",
                auto.name()
            );
            cells += 1;
        }
    }
    assert!(
        cells >= 2,
        "the committed table has no packed rows to hold auto to"
    );
}
