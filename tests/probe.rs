//! The always-on flight recorder is a pure observer: assembling with the
//! recorder on is **bitwise** identical to assembling with it off, for
//! every variant × strategy and for the distributed driver. A seeded halo
//! fault must return a typed stall and leave a black-box dump naming the
//! starved rank's open phase and the blocking rank, and no per-thread ring
//! may outgrow its fixed capacity.
//!
//! The recorder's enabled gate and last-dump slot are process-global, so
//! every test that toggles or reads them serializes on [`GATE`].

use std::sync::Mutex;
use std::time::Duration;

use alya_core::{
    assemble_parallel, assemble_serial, AssemblyInput, DistributedDriver, HaloFault,
    ParallelStrategy, Variant,
};
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::BoxMeshBuilder;
use alya_probe as probe;

/// Serializes probe-global state across the tests in this binary.
static GATE: Mutex<()> = Mutex::new(());

fn lock_gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fields(mesh: &alya_mesh::TetMesh) -> (VectorField, ScalarField, ScalarField) {
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

fn bits_equal(a: &VectorField, b: &VectorField) -> bool {
    let (xs, ys) = (a.as_slice(), b.as_slice());
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn recorder_on_or_off_never_changes_a_bit_across_strategies() {
    let _g = lock_gate();
    probe::init();
    let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.12).seed(23).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t)
        .props(ConstantProperties::AIR)
        .body_force([0.0, 0.1, -0.3]);
    let strategies = [
        ParallelStrategy::colored(&mesh),
        ParallelStrategy::sharded(&mesh, 8),
    ];
    let sweep = |variant| {
        let mut out = vec![assemble_serial(variant, &input)];
        out.extend(
            strategies
                .iter()
                .map(|s| assemble_parallel(variant, &input, s)),
        );
        out
    };
    for variant in Variant::ALL {
        probe::set_enabled(true);
        let on = sweep(variant);
        probe::set_enabled(false);
        let off = sweep(variant);
        probe::set_enabled(true);
        for (a, b) in on.iter().zip(&off) {
            assert!(
                bits_equal(a, b),
                "{variant}: the flight recorder perturbed the RHS"
            );
        }
    }
}

#[test]
fn recorder_on_or_off_never_changes_a_distributed_bit() {
    let _g = lock_gate();
    probe::init();
    let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.1).seed(51).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
    // One spilling and one register-resident variant: the instrumented
    // paths differ, the bits may not.
    for (ranks, variant) in [2, 4]
        .into_iter()
        .flat_map(|r| [(r, Variant::Rsp), (r, Variant::Rspr)])
    {
        let driver = DistributedDriver::new(&mesh, ranks);
        probe::set_enabled(true);
        let before = probe::total_events();
        let (a, ra) = driver.assemble(variant, &input);
        assert!(
            probe::total_events() > before,
            "{variant} × {ranks} ranks: the enabled recorder saw nothing"
        );
        probe::set_enabled(false);
        let (b, rb) = driver.assemble(variant, &input);
        probe::set_enabled(true);
        assert!(
            bits_equal(&a, &b),
            "{variant} × {ranks} ranks: the flight recorder perturbed the distributed RHS"
        );
        assert_eq!(
            ra, rb,
            "{variant} × {ranks} ranks: recording changed the comm report"
        );
    }
    // The recorder forgets; it never grows.
    for log in &probe::snapshot("retention check").threads {
        assert!(
            log.events.len() <= probe::RING_CAP,
            "thread '{}' retained {} events, past the {}-slot ring",
            log.label,
            log.events.len(),
            probe::RING_CAP
        );
    }
}

#[test]
fn a_seeded_stall_leaves_a_dump_naming_stage_and_blocking_rank() {
    let _g = lock_gate();
    probe::init();
    probe::set_enabled(true);
    probe::clear_last_dump();
    let mesh = BoxMeshBuilder::new(3, 3, 2).build();
    let (v, p, t) = fields(&mesh);
    let input = AssemblyInput::new(&mesh, &v, &p, &t);
    let driver = DistributedDriver::new(&mesh, 4).stall_timeout(Duration::from_millis(150));
    // Withhold a message that is really owed, so exactly one rank starves.
    let plan = driver.exchange_plan();
    let (from, to) = (0..4u32)
        .find_map(|r| plan.rank(r as usize).sends.first().map(|&(to, _)| (r, to)))
        .expect("a 4-rank decomposition always exchanges something");
    let stall = driver
        .try_assemble(Variant::Rsp, &input, Some(HaloFault { from, to }))
        .unwrap_err();
    assert_eq!((stall.rank, stall.peer), (to, from), "{stall}");

    let dump = probe::last_dump().expect("the halo stall captured a black box");
    // The diagnosis line itself, not the stall message in the header,
    // must name the open phase and the rank it waited on.
    let diagnosis = dump
        .lines()
        .find(|l| l.contains(&format!("rank {to} stalled in \"halo-drain\"")))
        .unwrap_or_else(|| panic!("dump does not diagnose the drain phase:\n{dump}"));
    assert!(
        diagnosis.contains(&format!("waiting on rank {from}")),
        "dump does not blame the withheld rank {from}:\n{dump}"
    );
    // The same snapshot exports a parsing chrome trace.
    let trace = probe::snapshot("probe test").chrome_trace();
    alya_telemetry::export::validate_json(&trace).expect("black-box trace parses");
}
