//! # alya-mesh — tetrahedral mesh substrate
//!
//! Unstructured linear-tetrahedral meshes as used by the Alya right-hand-side
//! assembly study: node coordinates, element connectivity, the adjacency
//! structures needed for gather/scatter assembly, greedy element coloring for
//! race-free parallel scatter, and recursive-coordinate-bisection partitioning
//! for the multi-worker scaling experiments.
//!
//! The paper's benchmark mesh (Bolund cliff, 5.6 M nodes / 32 M tets) is a
//! proprietary dataset; [`generator`] provides size-configurable synthetic
//! stand-ins — a structured box decomposed into tetrahedra and a
//! terrain-following deformation with a Gaussian "cliff" — that reproduce the
//! access pattern the assembly kernels care about (unstructured node reuse of
//! roughly 5–6 elements per interior node).
//!
//! ```
//! use alya_mesh::generator::BoxMeshBuilder;
//!
//! let mesh = BoxMeshBuilder::new(8, 8, 4).extent(2.0, 2.0, 1.0).build();
//! assert_eq!(mesh.num_elements(), 8 * 8 * 4 * 6);
//! assert!(mesh.total_volume() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod adjacency;
pub mod coloring;
pub mod generator;
pub mod ordering;
pub mod partition;
pub mod quality;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod tet;

pub use adjacency::{ElementGraph, NodeToElements};
pub use coloring::{Coloring, ColoringConflict};
pub use generator::{BoxMeshBuilder, TerrainMeshBuilder};
pub use partition::Partition;
pub use rng::Rng64;
pub use shard::{ExchangePlan, RankExchange, Shard, ShardSet};
pub use stats::MeshStats;
pub use tet::{Point3, TetMesh, NODES_PER_TET};
