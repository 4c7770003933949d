//! Shards: mesh partitions with a **compact local node renumbering**.
//!
//! The owner-computes parallel driver in `alya-core` historically gave
//! every worker a full `num_nodes × 3` accumulation buffer — O(workers ×
//! nn) allocation and a serial full-width reduction, exactly the memory
//! traffic the paper says governs RHS-assembly throughput. A [`Shard`]
//! fixes that index space: on top of a [`Partition`] it computes, per
//! part,
//!
//! * the set of nodes its elements touch, renumbered into a **dense local
//!   index space** `0..num_local_nodes()` (so a worker's buffer is
//!   O(nodes-in-shard), not O(nn));
//! * an **interior / boundary classification**: a node is *interior* to a
//!   shard when every element touching it belongs to that shard — its
//!   accumulated value can be written straight into the global RHS with no
//!   synchronization, because no other shard ever contributes to it; the
//!   remaining *boundary* (interface) nodes are shared with neighbouring
//!   shards;
//! * a **pair slot** per boundary (element, corner) pair, after the node
//!   slots: an element's contribution to a boundary node lands in a slot
//!   of its own, so nothing is summed inside the shard that the serial
//!   loop would sum in a different order;
//! * the element connectivity rewritten in local numbering
//!   ([`Shard::local_conn`]: interior corners to node slots, boundary
//!   corners to pair slots), so the assembly inner loop never performs a
//!   global→local hash or search;
//! * the inverse map ([`Shard::global_nodes`]) for the scatter-back,
//!   with interior nodes first (`..num_interior()`) and boundary nodes
//!   after, each block sorted ascending by global id.
//!
//! Across shards, [`ShardSet::replay`] lists every boundary node's pair
//! slots in ascending global element id — the order the serial element
//! loop adds them in. Each shard's elements are ascending too, so an
//! interior node is summed in that order already: summing the replay from
//! zero gives the serial bits at any shard count.
//!
//! This is the standard compact-local-numbering gather/scatter of
//! distributed FEM codes (NekRS's per-rank local ordering, deal.II's
//! matrix-free index storage) and the groundwork for multi-device and
//! distributed assembly.

use std::collections::BTreeMap;

use crate::partition::Partition;
use crate::tet::{TetMesh, NODES_PER_TET};

const NO_LOCAL: u32 = u32::MAX;

/// One partition part with its compact local node index space.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global ids of the elements of this shard.
    elements: Vec<u32>,
    /// Element connectivity in local numbering (parallel to `elements`):
    /// interior corners point at node slots, boundary corners at pair
    /// slots.
    local_conn: Vec<[u32; NODES_PER_TET]>,
    /// Local → global node map. Interior nodes occupy `..num_interior`,
    /// boundary nodes the tail; both blocks sorted ascending by global id.
    global_nodes: Vec<u32>,
    /// Number of interior (exclusively-owned) nodes.
    num_interior: usize,
    /// Pair slot `global_nodes.len() + k` belongs to the boundary node in
    /// node slot `pair_nodes[k]`. Pair slots are numbered in element order.
    pair_nodes: Vec<u32>,
}

impl Shard {
    /// Global ids of this shard's elements.
    #[inline]
    pub fn elements(&self) -> &[u32] {
        &self.elements
    }

    /// Connectivity of [`Self::elements`] in local node numbering.
    #[inline]
    pub fn local_conn(&self) -> &[[u32; NODES_PER_TET]] {
        &self.local_conn
    }

    /// Local → global node map (interior block first, then boundary).
    #[inline]
    pub fn global_nodes(&self) -> &[u32] {
        &self.global_nodes
    }

    /// Nodes this shard touches: the node slots.
    #[inline]
    pub fn num_local_nodes(&self) -> usize {
        self.global_nodes.len()
    }

    /// Node slots plus pair slots: the per-component length of the
    /// shard's accumulation buffer.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.global_nodes.len() + self.pair_nodes.len()
    }

    /// For each pair slot, in slot order: the node slot of its boundary
    /// node. Pair slot `k` is local slot `num_local_nodes() + k`.
    #[inline]
    pub fn pair_nodes(&self) -> &[u32] {
        &self.pair_nodes
    }

    /// The global node behind local slot `l` (node or pair slot), or
    /// `None` past the last slot.
    fn slot_node(&self, l: usize) -> Option<u32> {
        let nodes = self.global_nodes.len();
        let node_slot = match l.checked_sub(nodes) {
            None => l,
            Some(k) => *self.pair_nodes.get(k)? as usize,
        };
        self.global_nodes.get(node_slot).copied()
    }

    /// Interior nodes: touched by this shard's elements only, written to
    /// the global RHS directly with no synchronization.
    #[inline]
    pub fn num_interior(&self) -> usize {
        self.num_interior
    }

    /// Boundary (interface) nodes: shared with other shards.
    #[inline]
    pub fn num_boundary(&self) -> usize {
        self.global_nodes.len() - self.num_interior
    }

    /// Global ids of the boundary nodes (sorted ascending).
    #[inline]
    pub fn boundary_global_nodes(&self) -> &[u32] {
        &self.global_nodes[self.num_interior..]
    }

    /// The compact local slot of boundary node `g`, or `None` when `g` is
    /// not a boundary node of this shard. O(log boundary) — the boundary
    /// block is sorted by global id.
    pub fn boundary_slot(&self, g: u32) -> Option<u32> {
        self.boundary_global_nodes()
            .binary_search(&g)
            .ok()
            .map(|b| (self.num_interior + b) as u32)
    }

    /// Whether element position `i` (an index into [`Shard::elements`])
    /// touches at least one boundary node (writes a pair slot). Boundary
    /// elements are the only producers of halo-message contributions:
    /// assembling them first lets the distributed driver post its sends
    /// before the interior bulk.
    #[inline]
    pub fn is_boundary_element(&self, i: usize) -> bool {
        let ni = self.num_interior as u32;
        self.local_conn[i].iter().any(|&l| l >= ni)
    }

    /// Element positions split into `(boundary, interior)`, each ascending.
    ///
    /// Concatenated they enumerate every element exactly once; the
    /// boundary-first order is what both overlap modes of the distributed
    /// driver assemble in, so the split cannot perturb a single bit.
    pub fn element_split(&self) -> (Vec<u32>, Vec<u32>) {
        let mut boundary = Vec::new();
        let mut interior = Vec::new();
        for i in 0..self.elements.len() {
            if self.is_boundary_element(i) {
                boundary.push(i as u32);
            } else {
                interior.push(i as u32);
            }
        }
        (boundary, interior)
    }
}

/// A full decomposition of a mesh into [`Shard`]s.
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Shard>,
    /// `(global node, shard, pair slot)`, see [`ShardSet::replay`].
    replay: Vec<(u32, u32, u32)>,
    num_mesh_elements: usize,
    num_mesh_nodes: usize,
}

impl ShardSet {
    /// Builds the shard set of `mesh` induced by `partition`.
    ///
    /// Cost: two O(4·ne) sweeps plus an O(touched · log touched) sort per
    /// shard and one O(pairs · log pairs) sort of the replay; a single
    /// `nn`-sized scratch map is reused across shards (it is reset by
    /// visiting only the nodes each shard touched).
    pub fn build(mesh: &TetMesh, partition: &Partition) -> Self {
        let nn = mesh.num_nodes();
        let ne = mesh.num_elements();
        let conn = mesh.connectivity();

        // Pass 1 — node ownership: a node touched by elements of more than
        // one part is shared (boundary for every shard that touches it).
        let mut owner = vec![u32::MAX; nn];
        let mut shared = vec![false; nn];
        for (e, c) in conn.iter().enumerate() {
            let p = partition.part_of(e);
            for &node in c {
                let o = &mut owner[node as usize];
                if *o == u32::MAX {
                    *o = p;
                } else if *o != p {
                    shared[node as usize] = true;
                }
            }
        }

        // Pass 2 — per shard: collect touched nodes, classify, renumber.
        let mut local_of = vec![NO_LOCAL; nn];
        let mut shards = Vec::with_capacity(partition.num_parts());
        // (global node, global element, shard, pair slot) per boundary pair.
        let mut pairs: Vec<(u32, u32, u32, u32)> = Vec::new();
        for p in 0..partition.num_parts() {
            let elements: Vec<u32> = partition.part(p).to_vec();

            // Touched nodes, deduplicated through the scratch map.
            let mut touched: Vec<u32> = Vec::new();
            for &e in &elements {
                for &node in &conn[e as usize] {
                    if local_of[node as usize] == NO_LOCAL {
                        local_of[node as usize] = 0; // mark; real id below
                        touched.push(node);
                    }
                }
            }

            // Interior block first, boundary block after; both sorted
            // (`boundary_slot` searches the boundary block).
            let mut interior: Vec<u32> = Vec::new();
            let mut boundary: Vec<u32> = Vec::new();
            for &node in &touched {
                if shared[node as usize] {
                    boundary.push(node);
                } else {
                    interior.push(node);
                }
            }
            interior.sort_unstable();
            boundary.sort_unstable();
            let num_interior = interior.len();
            let mut global_nodes = interior;
            global_nodes.extend_from_slice(&boundary);

            for (l, &g) in global_nodes.iter().enumerate() {
                local_of[g as usize] = l as u32;
            }
            // Interior corners keep their node slot; each boundary corner
            // gets the next pair slot.
            let mut pair_nodes: Vec<u32> = Vec::new();
            let mut local_conn: Vec<[u32; NODES_PER_TET]> = Vec::with_capacity(elements.len());
            for &e in &elements {
                local_conn.push(conn[e as usize].map(|g| {
                    let l = local_of[g as usize];
                    if (l as usize) < num_interior {
                        return l;
                    }
                    let slot = (global_nodes.len() + pair_nodes.len()) as u32;
                    pair_nodes.push(l);
                    pairs.push((g, e, p as u32, slot));
                    slot
                }));
            }

            // Reset the scratch map by visiting only this shard's nodes.
            for &g in &global_nodes {
                local_of[g as usize] = NO_LOCAL;
            }

            shards.push(Shard {
                elements,
                local_conn,
                global_nodes,
                num_interior,
                pair_nodes,
            });
        }

        // An element touches a node once, so (node, element) is unique.
        pairs.sort_unstable_by_key(|&(g, e, _, _)| (g, e));
        let replay = pairs.into_iter().map(|(g, _, s, l)| (g, s, l)).collect();
        Self {
            shards,
            replay,
            num_mesh_elements: ne,
            num_mesh_nodes: nn,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`.
    #[inline]
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// Iterates over all shards.
    pub fn shards(&self) -> impl Iterator<Item = &Shard> + '_ {
        self.shards.iter()
    }

    /// Total boundary-node slots across shards (each interface node counts
    /// once per shard that touches it).
    pub fn total_boundary_slots(&self) -> usize {
        self.shards.iter().map(Shard::num_boundary).sum()
    }

    /// The boundary replay: one `(global node, shard, pair slot)` per
    /// boundary (element, corner) pair, ascending by node and, within a
    /// node, by global element id — the order the serial element loop adds
    /// the contributions in. Summed into a zeroed RHS in this order, the
    /// pair slots give every boundary node its serial bits.
    pub fn replay(&self) -> &[(u32, u32, u32)] {
        &self.replay
    }

    /// Bytes the replay moves per assembly: per pair, its 12-byte entry and
    /// the 3 × 8-byte pair value read, and the 3 × 8-byte RHS entry read
    /// and written back.
    pub fn replay_bytes(&self) -> usize {
        self.replay.len() * (12 + 3 * 8 + 2 * 3 * 8)
    }

    /// Boundary (interface) nodes counted **once** each, however many
    /// shards touch them — the distinct node count of the interface.
    pub fn num_distinct_boundary_nodes(&self) -> usize {
        self.boundary_touch_map().len()
    }

    /// Halo-exchange send slots: boundary-node contributions that must
    /// cross a rank boundary when each shard runs as its own rank. Every
    /// interface node is touched by `k ≥ 2` shards; the owner keeps its
    /// own contribution and the other `k − 1` ship theirs, so
    ///
    /// ```text
    /// halo_send_slots = total_boundary_slots − num_distinct_boundary_nodes
    /// ```
    ///
    /// — the closed form the analyzer's comm contract checks live
    /// exchange traffic against.
    pub fn halo_send_slots(&self) -> usize {
        self.total_boundary_slots() - self.num_distinct_boundary_nodes()
    }

    /// For every interface node (ascending global id): the sorted list of
    /// shards touching it. The lowest-numbered shard is the node's
    /// **owner** in the rank-parallel exchange (Alya's convention).
    pub fn boundary_touch_map(&self) -> Vec<(u32, Vec<u32>)> {
        let mut touch: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for &g in shard.boundary_global_nodes() {
                touch.entry(g).or_default().push(s as u32);
            }
        }
        // Shards iterate in order, so each list is already sorted.
        touch.into_iter().collect()
    }

    /// Proves the invariants the sharded scatter's `unsafe` interior
    /// writeback and its serial bits rest on, against `mesh`:
    ///
    /// 1. every mesh element appears in exactly one shard, and each
    ///    shard's element list is strictly ascending;
    /// 2. each shard's `local_conn` is its elements' connectivity mapped
    ///    through its slots (the compact maps are mutually inverse): every
    ///    boundary corner points at a pair slot of its own, every pair
    ///    slot at its element's corner node;
    /// 3. interior exclusivity: a node interior to shard `s` is touched by
    ///    no element of any other shard — so plain unsynchronized stores
    ///    from concurrent shards never alias;
    /// 4. the interior/boundary split point is consistent;
    /// 5. the replay covers every pair slot exactly once and lists each
    ///    boundary node's sources in ascending global element id.
    ///
    /// Returns the first violated invariant as an error message.
    pub fn validate(&self, mesh: &TetMesh) -> Result<(), String> {
        if self.num_mesh_elements != mesh.num_elements() || self.num_mesh_nodes != mesh.num_nodes()
        {
            return Err(format!(
                "shard set built for a {}-element/{}-node mesh, validated against {}/{}",
                self.num_mesh_elements,
                self.num_mesh_nodes,
                mesh.num_elements(),
                mesh.num_nodes()
            ));
        }
        let nn = mesh.num_nodes();
        let mut seen = vec![false; mesh.num_elements()];
        let mut interior_of = vec![u32::MAX; nn];
        // Per shard, per pair slot: the global element writing it.
        let mut pair_elements: Vec<Vec<u32>> = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.num_interior > shard.global_nodes.len() {
                return Err(format!(
                    "shard {s}: interior count {} exceeds {} local nodes",
                    shard.num_interior,
                    shard.global_nodes.len()
                ));
            }
            for (l, &g) in shard.global_nodes.iter().enumerate() {
                if g as usize >= nn {
                    return Err(format!(
                        "shard {s}: local node {l} maps to global {g} >= {nn}"
                    ));
                }
                if l < shard.num_interior {
                    if interior_of[g as usize] != u32::MAX {
                        return Err(format!(
                            "node {g} interior to both shard {} and shard {s}",
                            interior_of[g as usize]
                        ));
                    }
                    interior_of[g as usize] = s as u32;
                }
            }
            if shard.local_conn.len() != shard.elements.len() {
                return Err(format!("shard {s}: local_conn/elements length mismatch"));
            }
            if let Some(w) = shard.elements.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "shard {s}: element {} listed after element {}",
                    w[1], w[0]
                ));
            }
            let nodes = shard.global_nodes.len();
            if let Some(&b) = shard
                .pair_nodes
                .iter()
                .find(|&&b| (b as usize) < shard.num_interior || b as usize >= nodes)
            {
                return Err(format!(
                    "shard {s}: a pair slot names node slot {b}, not a boundary node"
                ));
            }
            let mut writer = vec![u32::MAX; shard.pair_nodes.len()];
            for (i, &e) in shard.elements.iter().enumerate() {
                let e = e as usize;
                if e >= mesh.num_elements() {
                    return Err(format!("shard {s}: element {e} out of range"));
                }
                if seen[e] {
                    return Err(format!("element {e} appears in more than one shard"));
                }
                seen[e] = true;
                let global = mesh.element(e);
                for a in 0..NODES_PER_TET {
                    let l = shard.local_conn[i][a] as usize;
                    let Some(g) = shard.slot_node(l) else {
                        return Err(format!(
                            "shard {s}: element {e} local slot {l} out of compact range"
                        ));
                    };
                    if g != global[a] {
                        return Err(format!(
                            "shard {s}: element {e} corner {a} maps to global {g} but mesh says {}",
                            global[a]
                        ));
                    }
                    if (shard.num_interior..nodes).contains(&l) {
                        return Err(format!(
                            "shard {s}: element {e} corner {a} writes boundary node {g} directly, not through a pair slot"
                        ));
                    }
                    if l >= nodes {
                        let w = &mut writer[l - nodes];
                        if *w != u32::MAX {
                            return Err(format!(
                                "shard {s}: pair slot {l} written by elements {} and {e}",
                                *w
                            ));
                        }
                        *w = e as u32;
                    }
                }
            }
            if let Some(k) = writer.iter().position(|&w| w == u32::MAX) {
                return Err(format!("shard {s}: pair slot {} has no writer", nodes + k));
            }
            pair_elements.push(writer);
        }
        if let Some(e) = seen.iter().position(|&s| !s) {
            return Err(format!("element {e} belongs to no shard"));
        }
        // The replay: every pair slot once, each node's sources ascending
        // by global element id.
        let mut last_element: Vec<Option<u32>> = vec![None; nn];
        for &(g, s, l) in &self.replay {
            let (Some(shard), Some(writers)) = (
                self.shards.get(s as usize),
                pair_elements.get_mut(s as usize),
            ) else {
                return Err(format!("replay names shard {s} of {}", self.shards.len()));
            };
            let k = (l as usize).checked_sub(shard.global_nodes.len());
            let Some(e) = k.and_then(|k| writers.get_mut(k)) else {
                return Err(format!(
                    "replay names slot {l} of shard {s}, not a pair slot"
                ));
            };
            if *e == u32::MAX {
                return Err(format!("replay names pair slot {l} of shard {s} twice"));
            }
            if shard.slot_node(l as usize) != Some(g) {
                return Err(format!(
                    "replay sums pair slot {l} of shard {s} into node {g}, not its own node"
                ));
            }
            let last = &mut last_element[g as usize];
            if last.is_some_and(|prev| prev >= *e) {
                return Err(format!(
                    "replay adds node {g}'s element {} after element {}",
                    *e,
                    last.unwrap_or_default()
                ));
            }
            *last = Some(*e);
            *e = u32::MAX;
        }
        for (s, writers) in pair_elements.iter().enumerate() {
            if let Some(k) = writers.iter().position(|&e| e != u32::MAX) {
                return Err(format!(
                    "replay misses pair slot {} of shard {s}",
                    self.shards[s].global_nodes.len() + k
                ));
            }
        }
        // Interior exclusivity: no element of shard t touches a node that
        // is interior to a different shard s.
        for (t, shard) in self.shards.iter().enumerate() {
            for &e in &shard.elements {
                for &g in &mesh.element(e as usize) {
                    let owner = interior_of[g as usize];
                    if owner != u32::MAX && owner != t as u32 {
                        return Err(format!(
                            "node {g} is interior to shard {owner} but touched by shard {t}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One rank's halo-exchange schedule (see [`ExchangePlan`]).
#[derive(Debug, Clone, Default)]
pub struct RankExchange {
    /// Outgoing messages: for each neighbor rank that **owns** nodes this
    /// rank touches, the `(my_local_slot, owner_local_slot)` pairs to
    /// ship, sorted ascending by the owner's slot. Neighbors sorted by
    /// rank; empty lists are never stored.
    pub sends: Vec<(u32, Vec<(u32, u32)>)>,
    /// Ranks this rank expects exactly one message from (sorted).
    pub recv_peers: Vec<u32>,
    /// Local slots (all `≥ num_interior`) of the boundary nodes this rank
    /// owns — the slots incoming contributions are summed into, and the
    /// boundary part of the rank's owned output.
    pub owned_boundary_slots: Vec<u32>,
}

/// The full halo-exchange schedule of a [`ShardSet`] run one-shard-per-
/// rank: who sends which compact slots to whom, and who owns what.
///
/// Ownership follows Alya's convention — the lowest-numbered rank
/// touching an interface node owns it; every other toucher ships its
/// contribution to the owner, which combines them **in ascending sender
/// rank order** (deterministic, so the distributed assembly is bitwise
/// reproducible at a fixed rank count). Interior nodes never appear here:
/// they are exclusively owned by construction.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    ranks: Vec<RankExchange>,
}

impl ExchangePlan {
    /// Derives the schedule from a shard set.
    pub fn build(set: &ShardSet) -> Self {
        let mut ranks = vec![RankExchange::default(); set.num_shards()];
        for (g, touchers) in set.boundary_touch_map() {
            let owner = touchers[0]; // lists are sorted; lowest rank owns
            let owner_slot = set
                .shard(owner as usize)
                .boundary_slot(g)
                .expect("owner touches its node");
            ranks[owner as usize].owned_boundary_slots.push(owner_slot);
            for &t in &touchers[1..] {
                let my_slot = set
                    .shard(t as usize)
                    .boundary_slot(g)
                    .expect("toucher holds the node");
                match ranks[t as usize]
                    .sends
                    .iter_mut()
                    .find(|(to, _)| *to == owner)
                {
                    Some((_, list)) => list.push((my_slot, owner_slot)),
                    None => ranks[t as usize]
                        .sends
                        .push((owner, vec![(my_slot, owner_slot)])),
                }
                let peers = &mut ranks[owner as usize].recv_peers;
                if !peers.contains(&t) {
                    peers.push(t);
                }
            }
        }
        for r in &mut ranks {
            r.sends.sort_by_key(|(to, _)| *to);
            for (_, list) in &mut r.sends {
                list.sort_by_key(|&(_, owner_slot)| owner_slot);
            }
            r.recv_peers.sort_unstable();
            r.owned_boundary_slots.sort_unstable();
        }
        Self { ranks }
    }

    /// Number of ranks in the schedule.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Rank `r`'s schedule.
    pub fn rank(&self, r: usize) -> &RankExchange {
        &self.ranks[r]
    }

    /// Point-to-point messages one assembly exchanges (non-empty send
    /// lists across all ranks).
    pub fn num_messages(&self) -> usize {
        self.ranks.iter().map(|r| r.sends.len()).sum()
    }

    /// Total `(slot, value)` entries shipped per assembly — equals
    /// [`ShardSet::halo_send_slots`] of the set the plan was built from.
    pub fn total_send_entries(&self) -> usize {
        self.ranks
            .iter()
            .flat_map(|r| r.sends.iter())
            .map(|(_, list)| list.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{BoxMeshBuilder, TerrainMeshBuilder};
    use crate::ordering::{element_permutation, reorder_elements, ElementOrder};

    fn shard_set(mesh: &TetMesh, parts: usize) -> ShardSet {
        ShardSet::build(mesh, &Partition::rcb(mesh, parts))
    }

    #[test]
    fn shards_cover_all_elements_once_and_validate() {
        let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.1).seed(3).build();
        for parts in [1, 2, 5, 8] {
            let set = shard_set(&mesh, parts);
            assert_eq!(set.num_shards(), parts);
            set.validate(&mesh).unwrap();
            let total: usize = set.shards().map(|s| s.elements().len()).sum();
            assert_eq!(total, mesh.num_elements());
        }
    }

    #[test]
    fn element_split_is_an_exact_partition_consistent_with_the_classifier() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.08).seed(11).build();
        for parts in [1, 2, 4, 6] {
            let set = shard_set(&mesh, parts);
            for shard in set.shards() {
                let (boundary, interior) = shard.element_split();
                assert_eq!(boundary.len() + interior.len(), shard.elements().len());
                // Each list ascending; concatenation covers every position
                // exactly once.
                assert!(boundary.windows(2).all(|w| w[0] < w[1]));
                assert!(interior.windows(2).all(|w| w[0] < w[1]));
                let mut all: Vec<u32> = boundary.iter().chain(&interior).copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..shard.elements().len() as u32).collect::<Vec<_>>());
                for &i in &boundary {
                    assert!(shard.is_boundary_element(i as usize));
                }
                for &i in &interior {
                    assert!(!shard.is_boundary_element(i as usize));
                }
                if parts == 1 {
                    // A single shard has no interface nodes at all.
                    assert!(boundary.is_empty());
                }
            }
        }
    }

    #[test]
    fn compact_maps_are_mutually_inverse() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let set = shard_set(&mesh, 4);
        for shard in set.shards() {
            // No duplicate global ids within a shard.
            let mut sorted = shard.global_nodes().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), shard.num_local_nodes());
            // local_conn round-trips through the slots.
            for (i, &e) in shard.elements().iter().enumerate() {
                let global = mesh.element(e as usize);
                for a in 0..NODES_PER_TET {
                    let l = shard.local_conn()[i][a] as usize;
                    assert_eq!(shard.slot_node(l), Some(global[a]));
                }
            }
        }
    }

    #[test]
    fn validate_rejects_a_permuted_replay_or_an_unsorted_element_list() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(9).build();
        let set = shard_set(&mesh, 3);
        set.validate(&mesh).unwrap();

        // Two sources of one node swapped: the replay no longer adds them
        // in ascending element order.
        let mut permuted = set.clone();
        let i = permuted
            .replay
            .windows(2)
            .position(|w| w[0].0 == w[1].0)
            .expect("a boundary node with two sources");
        permuted.replay.swap(i, i + 1);
        let err = permuted.validate(&mesh).unwrap_err();
        assert!(err.contains("after element"), "{err}");

        // Two elements of shard 0 swapped with their connectivity rows: the
        // maps stay consistent, but the list is no longer ascending.
        let mut unsorted = set.clone();
        let shard = &mut unsorted.shards[0];
        shard.elements.swap(0, 1);
        shard.local_conn.swap(0, 1);
        let err = unsorted.validate(&mesh).unwrap_err();
        assert!(err.contains("listed after"), "{err}");
    }

    #[test]
    fn interior_nodes_are_exclusive_and_boundary_matches_interfaces() {
        let mesh = TerrainMeshBuilder::new(10, 10, 5).build();
        let partition = Partition::rcb(&mesh, 8);
        let set = ShardSet::build(&mesh, &partition);
        set.validate(&mesh).unwrap();

        // The distinct boundary nodes across shards are exactly the
        // partition's interface nodes.
        let mut is_boundary = vec![false; mesh.num_nodes()];
        for shard in set.shards() {
            for &g in shard.boundary_global_nodes() {
                is_boundary[g as usize] = true;
            }
        }
        let distinct = is_boundary.iter().filter(|&&b| b).count();
        assert_eq!(distinct, partition.num_interface_nodes(&mesh));

        // Compact: per-shard buffers are far smaller than 3 × nn each.
        let full = 3 * mesh.num_nodes() * set.num_shards();
        let compact: usize = set.shards().map(|s| 3 * s.num_local_nodes()).sum();
        assert!(
            compact * 2 < full,
            "compact {compact} values vs full per-worker {full}"
        );
    }

    #[test]
    fn boundary_blocks_are_sorted_for_linear_merging() {
        // `boundary_slot` binary-searches the boundary block.
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.15).seed(9).build();
        let set = shard_set(&mesh, 6);
        for shard in set.shards() {
            let b = shard.boundary_global_nodes();
            assert!(b.windows(2).all(|w| w[0] < w[1]));
            let i = &shard.global_nodes()[..shard.num_interior()];
            assert!(i.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let set = shard_set(&mesh, 1);
        assert_eq!(set.num_shards(), 1);
        assert_eq!(set.shard(0).num_boundary(), 0);
        assert_eq!(set.shard(0).num_local_nodes(), mesh.num_nodes());
        assert_eq!(set.total_boundary_slots(), 0);
        set.validate(&mesh).unwrap();
    }

    #[test]
    fn halo_closed_forms_match_a_brute_force_count() {
        let mesh = TerrainMeshBuilder::new(8, 8, 4).build();
        for parts in [2, 3, 8] {
            let set = shard_set(&mesh, parts);
            // Brute force: per interface node, touchers − 1 slots cross.
            let mut touchers = vec![0usize; mesh.num_nodes()];
            for shard in set.shards() {
                for &g in shard.boundary_global_nodes() {
                    touchers[g as usize] += 1;
                }
            }
            let distinct = touchers.iter().filter(|&&t| t > 0).count();
            let crossing: usize = touchers.iter().filter(|&&t| t > 0).map(|&t| t - 1).sum();
            assert_eq!(set.num_distinct_boundary_nodes(), distinct);
            assert_eq!(set.halo_send_slots(), crossing);
            assert_eq!(set.halo_send_slots(), set.total_boundary_slots() - distinct);
            // Every toucher list is sorted and has ≥ 2 entries.
            for (g, list) in set.boundary_touch_map() {
                assert!(list.len() >= 2, "node {g} boundary but 1 toucher");
                assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn exchange_plan_ships_every_crossing_slot_to_its_owner_once() {
        let mesh = BoxMeshBuilder::new(5, 4, 3).jitter(0.1).seed(13).build();
        for parts in [1, 2, 6] {
            let set = shard_set(&mesh, parts);
            let plan = ExchangePlan::build(&set);
            assert_eq!(plan.num_ranks(), parts);
            assert_eq!(plan.total_send_entries(), set.halo_send_slots());

            let mut received_per_owner = vec![0usize; parts];
            for r in 0..parts {
                let rx = plan.rank(r);
                // Owned boundary slots point at real boundary nodes of r.
                let shard = set.shard(r);
                for &slot in &rx.owned_boundary_slots {
                    assert!((slot as usize) >= shard.num_interior());
                    assert!((slot as usize) < shard.num_local_nodes());
                }
                for (to, list) in &rx.sends {
                    assert_ne!(*to as usize, r, "self-send scheduled");
                    assert!(!list.is_empty(), "empty message scheduled");
                    let owner = set.shard(*to as usize);
                    // Owner-slot-sorted, unique (no double counting), and
                    // both endpoints agree on the global node.
                    assert!(list.windows(2).all(|w| w[0].1 < w[1].1));
                    for &(mine, theirs) in list {
                        let g = shard.global_nodes()[mine as usize];
                        assert_eq!(owner.global_nodes()[theirs as usize], g);
                        // The receiver owns the node: it's in its owned set.
                        assert!(plan
                            .rank(*to as usize)
                            .owned_boundary_slots
                            .binary_search(&theirs)
                            .is_ok());
                    }
                    received_per_owner[*to as usize] += 1;
                    // The receiver expects exactly this sender.
                    assert!(plan
                        .rank(*to as usize)
                        .recv_peers
                        .binary_search(&(r as u32))
                        .is_ok());
                }
            }
            for r in 0..parts {
                assert_eq!(
                    plan.rank(r).recv_peers.len(),
                    received_per_owner[r],
                    "rank {r}: recv expectation does not match scheduled senders"
                );
            }
            if parts == 1 {
                assert_eq!(plan.num_messages(), 0);
                assert_eq!(set.halo_send_slots(), 0);
            }
        }
    }

    #[test]
    fn boundary_slot_finds_every_boundary_node_and_only_those() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).build();
        let set = shard_set(&mesh, 4);
        for shard in set.shards() {
            for (b, &g) in shard.boundary_global_nodes().iter().enumerate() {
                assert_eq!(
                    shard.boundary_slot(g),
                    Some((shard.num_interior() + b) as u32)
                );
            }
            for &g in &shard.global_nodes()[..shard.num_interior()] {
                assert_eq!(shard.boundary_slot(g), None, "interior node resolved");
            }
        }
    }

    #[test]
    fn validate_rejects_a_mismatched_mesh() {
        // Build shards on one element ordering, validate against another:
        // the compact connectivity no longer matches and must be rejected.
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let set = shard_set(&mesh, 4);
        let perm = element_permutation(&mesh, ElementOrder::Morton);
        let reordered = reorder_elements(&mesh, &perm);
        assert_eq!(reordered.num_elements(), mesh.num_elements());
        if reordered.connectivity() != mesh.connectivity() {
            assert!(set.validate(&reordered).is_err());
        }
        let smaller = BoxMeshBuilder::new(2, 2, 2).build();
        assert!(set.validate(&smaller).is_err());
    }
}
