//! The canonical fixture: a small jittered box mesh with smooth
//! non-trivial fields, shared by contract derivation here and every
//! analyzer pass (`alya-analyze` re-exports it). The contracts are
//! structural, but derivation replays one element of a real mesh, so the
//! fixture has jitter and curvature — a degenerate mesh could let a
//! data-dependent branch skew the derived counts or hide behind zeros.

use alya_core::AssemblyInput;
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{BoxMeshBuilder, TetMesh};

/// Owns the mesh and fields an [`AssemblyInput`] borrows.
pub struct Fixture {
    /// The fixture mesh (jittered 4×4×4 box, 384 tets).
    pub mesh: TetMesh,
    velocity: VectorField,
    pressure: ScalarField,
    temperature: ScalarField,
}

impl Fixture {
    /// Builds the canonical fixture.
    pub fn new() -> Self {
        let mesh = BoxMeshBuilder::new(4, 4, 4).jitter(0.1).seed(7).build();
        let velocity =
            VectorField::from_fn(&mesh, |p| [p[2] * p[2], (2.0 * p[1]).sin(), p[0] * p[1]]);
        let pressure = ScalarField::from_fn(&mesh, |p| p[0] + p[1] * p[2]);
        let temperature = ScalarField::zeros(mesh.num_nodes());
        Self {
            mesh,
            velocity,
            pressure,
            temperature,
        }
    }

    /// The assembly input over the fixture's fields.
    pub fn input(&self) -> AssemblyInput<'_> {
        AssemblyInput::new(
            &self.mesh,
            &self.velocity,
            &self.pressure,
            &self.temperature,
        )
        .props(ConstantProperties::AIR)
        .body_force([0.0, 0.1, -0.3])
    }
}

impl Default for Fixture {
    fn default() -> Self {
        Self::new()
    }
}
