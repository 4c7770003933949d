//! Legacy-VTK output of meshes and solution fields.
//!
//! Writes ASCII `UNSTRUCTURED_GRID` files readable by ParaView/VisIt —
//! the practical exit point for anyone running the examples (the paper's
//! Figure 1 is exactly such a volume rendering).

use std::io::{self, Write};

use alya_fem::{ScalarField, VectorField};
use alya_mesh::TetMesh;

/// VTK cell type id for linear tetrahedra.
const VTK_TETRA: u8 = 10;

/// A VTK dataset under construction: a mesh plus named point fields.
pub struct VtkWriter<'a> {
    mesh: &'a TetMesh,
    scalars: Vec<(String, &'a ScalarField)>,
    vectors: Vec<(String, &'a VectorField)>,
}

impl<'a> VtkWriter<'a> {
    /// Starts a dataset for `mesh`.
    pub fn new(mesh: &'a TetMesh) -> Self {
        Self {
            mesh,
            scalars: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Attaches a nodal scalar field.
    pub fn scalar(mut self, name: &str, field: &'a ScalarField) -> Self {
        assert_eq!(field.len(), self.mesh.num_nodes(), "field size mismatch");
        self.scalars.push((name.to_string(), field));
        self
    }

    /// Attaches a nodal vector field.
    pub fn vector(mut self, name: &str, field: &'a VectorField) -> Self {
        assert_eq!(
            field.num_nodes(),
            self.mesh.num_nodes(),
            "field size mismatch"
        );
        self.vectors.push((name.to_string(), field));
        self
    }

    /// Writes the dataset to any sink.
    // alya:cold: file output — shares the name `write` with the
    // `RwLock::write` of the split CSR product.
    pub fn write(&self, mut w: impl Write) -> io::Result<()> {
        let mesh = self.mesh;
        writeln!(w, "# vtk DataFile Version 3.0")?;
        writeln!(w, "alya-rs output")?;
        writeln!(w, "ASCII")?;
        writeln!(w, "DATASET UNSTRUCTURED_GRID")?;
        writeln!(w, "POINTS {} double", mesh.num_nodes())?;
        for p in mesh.coords() {
            writeln!(w, "{} {} {}", p[0], p[1], p[2])?;
        }
        let ne = mesh.num_elements();
        writeln!(w, "CELLS {} {}", ne, 5 * ne)?;
        for conn in mesh.connectivity() {
            writeln!(w, "4 {} {} {} {}", conn[0], conn[1], conn[2], conn[3])?;
        }
        writeln!(w, "CELL_TYPES {ne}")?;
        for _ in 0..ne {
            writeln!(w, "{VTK_TETRA}")?;
        }
        if !self.scalars.is_empty() || !self.vectors.is_empty() {
            writeln!(w, "POINT_DATA {}", mesh.num_nodes())?;
        }
        for (name, field) in &self.scalars {
            writeln!(w, "SCALARS {name} double 1")?;
            writeln!(w, "LOOKUP_TABLE default")?;
            for v in field.as_slice() {
                writeln!(w, "{v}")?;
            }
        }
        for (name, field) in &self.vectors {
            writeln!(w, "VECTORS {name} double")?;
            for n in 0..field.num_nodes() {
                let v = field.get(n);
                writeln!(w, "{} {} {}", v[0], v[1], v[2])?;
            }
        }
        Ok(())
    }

    /// Writes the dataset to a file path.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write(io::BufWriter::new(file))
    }

    /// Renders to a string (tests, small meshes).
    pub fn to_string_lossy(&self) -> String {
        let mut buf = Vec::new();
        self.write(&mut buf).expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("VTK output is ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_mesh::BoxMeshBuilder;

    fn sample() -> (TetMesh, ScalarField, VectorField) {
        let mesh = BoxMeshBuilder::new(1, 1, 1).build();
        let p = ScalarField::from_fn(&mesh, |q| q[0]);
        let v = VectorField::from_fn(&mesh, |q| [q[2], 0.0, -q[0]]);
        (mesh, p, v)
    }

    #[test]
    fn header_and_counts() {
        let (mesh, p, v) = sample();
        let s = VtkWriter::new(&mesh)
            .scalar("pressure", &p)
            .vector("velocity", &v)
            .to_string_lossy();
        assert!(s.starts_with("# vtk DataFile Version 3.0"));
        assert!(s.contains("POINTS 8 double"));
        assert!(s.contains("CELLS 6 30"));
        assert!(s.contains("CELL_TYPES 6"));
        assert!(s.contains("POINT_DATA 8"));
        assert!(s.contains("SCALARS pressure double 1"));
        assert!(s.contains("VECTORS velocity double"));
    }

    #[test]
    fn every_cell_is_a_tet_with_valid_nodes() {
        let (mesh, _, _) = sample();
        let s = VtkWriter::new(&mesh).to_string_lossy();
        let cells: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("CELLS"))
            .skip(1)
            .take(6)
            .collect();
        for c in cells {
            let ids: Vec<usize> = c.split_whitespace().map(|t| t.parse().unwrap()).collect();
            assert_eq!(ids[0], 4);
            assert!(ids[1..].iter().all(|&n| n < 8));
        }
    }

    #[test]
    fn mesh_only_dataset_skips_point_data() {
        let (mesh, _, _) = sample();
        let s = VtkWriter::new(&mesh).to_string_lossy();
        assert!(!s.contains("POINT_DATA"));
    }

    #[test]
    fn file_roundtrip() {
        let (mesh, p, _) = sample();
        let dir = std::env::temp_dir().join("alya_vtk_test.vtk");
        VtkWriter::new(&mesh)
            .scalar("p", &p)
            .write_file(&dir)
            .unwrap();
        let content = std::fs::read_to_string(&dir).unwrap();
        assert!(content.contains("SCALARS p double 1"));
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn size_mismatch_panics() {
        let (mesh, _, _) = sample();
        let wrong = ScalarField::zeros(3);
        let _ = VtkWriter::new(&mesh).scalar("bad", &wrong);
    }
}
