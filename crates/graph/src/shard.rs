//! Shard placement and cross-shard boundary bookkeeping.
//!
//! The partitioned serving layer (`socialreach-core`'s coordinator,
//! behind both `ShardedSystem` and `NetworkedSystem`) hash-partitions
//! members across N independent epoch-published graphs, in process or
//! in shard server processes. This module holds the graph-side
//! vocabulary of that split:
//!
//! * [`ShardAssignment`] — the member → shard placement function.
//!   Placement must be **deterministic and seedable**: the same member
//!   name maps to the same shard on every run, every process and every
//!   machine (a `RandomState`-keyed map would silently reshuffle the
//!   fleet on restart). The hashed variant uses FNV-1a over the member
//!   name mixed with a user seed; the explicit variant pins selected
//!   members (regression tests build adversarial placements with it)
//!   and falls back to the hash for everyone else.
//! * [`BoundaryTable`] — the record of every relationship whose
//!   endpoints live on different shards. The serving layer replicates
//!   each boundary edge into both endpoint shards (attached to a ghost
//!   copy of the remote endpoint) and uses this table for
//!   introspection, rebalancing decisions and audits; a write that
//!   cannot commit is rolled back with [`BoundaryTable::truncate`].
//! * [`MaskedStateKey`] / [`MaskedExportSet`] — the vocabulary of
//!   **masked** boundary exports. The batched serving path evaluates a
//!   whole bundle of access conditions in one cross-shard fixpoint:
//!   every product state a shard exports carries a bitmask of the
//!   bundle conditions that reached it, and the router forwards only
//!   bits it has not forwarded before. Bundles wider than 64
//!   conditions split into multiple mask **words**; the word index is
//!   part of the key, so one export set serves an arbitrarily wide
//!   bundle without cross-talk between words. [`MaskedExport`] is the
//!   serialization-friendly wire entry (the unit the networked shard
//!   protocol batches onto sockets).

use crate::ids::LabelId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable FNV-1a hash of `bytes`, independent of platform and process
/// (unlike `std`'s `RandomState`-keyed hashers).
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 tail) so low-entropy names still
    // spread across small shard counts.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The member → shard placement function of a sharded deployment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ShardAssignment {
    /// Every member placed by a stable seeded hash of their name.
    Hashed {
        /// Number of shards (≥ 1).
        shards: u32,
        /// Hash seed; two deployments with the same seed agree on
        /// every placement.
        seed: u64,
    },
    /// Selected members pinned to explicit shards; everyone else falls
    /// back to the hashed placement. Regression tests use this to build
    /// graphs whose only satisfying paths cross shard boundaries.
    Explicit {
        /// Number of shards (≥ 1).
        shards: u32,
        /// Hash seed for unpinned members.
        seed: u64,
        /// `name → shard` pins (must be `< shards`).
        pins: Vec<(String, u32)>,
    },
}

impl ShardAssignment {
    /// A hashed assignment over `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn hashed(shards: u32, seed: u64) -> Self {
        assert!(shards >= 1, "a deployment has at least one shard");
        ShardAssignment::Hashed { shards, seed }
    }

    /// An explicit assignment: `pins` placed verbatim, everyone else
    /// hashed with `seed`.
    ///
    /// # Panics
    /// Panics when `shards == 0` or any pin names a shard `>= shards`.
    pub fn explicit(shards: u32, seed: u64, pins: Vec<(String, u32)>) -> Self {
        assert!(shards >= 1, "a deployment has at least one shard");
        for (name, s) in &pins {
            assert!(*s < shards, "pin {name:?} -> {s} exceeds shard count");
        }
        ShardAssignment::Explicit { shards, seed, pins }
    }

    /// Number of shards in the deployment.
    pub fn shards(&self) -> u32 {
        match *self {
            ShardAssignment::Hashed { shards, .. } | ShardAssignment::Explicit { shards, .. } => {
                shards
            }
        }
    }

    /// The shard a member named `name` lives on. Pure: depends only on
    /// the assignment value and the name.
    pub fn shard_of(&self, name: &str) -> u32 {
        match self {
            ShardAssignment::Hashed { shards, seed } => {
                (fnv1a(*seed, name.as_bytes()) % u64::from(*shards)) as u32
            }
            ShardAssignment::Explicit { shards, seed, pins } => pins
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, s)| s)
                .unwrap_or_else(|| (fnv1a(*seed, name.as_bytes()) % u64::from(*shards)) as u32),
        }
    }
}

/// One relationship instance whose endpoints live on different shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryEdge {
    /// Global id of the source member.
    pub src: u32,
    /// Global id of the target member.
    pub dst: u32,
    /// Relationship type.
    pub label: LabelId,
    /// Shard owning the source member.
    pub src_shard: u32,
    /// Shard owning the target member.
    pub dst_shard: u32,
}

/// The record of every cross-shard relationship in a deployment,
/// indexed by the shards it touches.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BoundaryTable {
    edges: Vec<BoundaryEdge>,
    /// `per_shard[s]` lists indexes into `edges` of boundary edges with
    /// an endpoint owned by shard `s` (each edge appears under both of
    /// its shards).
    per_shard: Vec<Vec<u32>>,
}

impl BoundaryTable {
    /// An empty table sized for `shards` shards.
    pub fn new(shards: u32) -> Self {
        BoundaryTable {
            edges: Vec::new(),
            per_shard: vec![Vec::new(); shards as usize],
        }
    }

    /// Records a cross-shard edge.
    ///
    /// # Panics
    /// Panics when the edge does not actually cross shards, or names a
    /// shard the table was not sized for.
    pub fn record(&mut self, edge: BoundaryEdge) {
        assert_ne!(
            edge.src_shard, edge.dst_shard,
            "boundary edges cross shards by definition"
        );
        let i = self.edges.len() as u32;
        self.per_shard[edge.src_shard as usize].push(i);
        self.per_shard[edge.dst_shard as usize].push(i);
        self.edges.push(edge);
    }

    /// Forgets every edge recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.edges.truncate(len);
        for list in &mut self.per_shard {
            while list.last().is_some_and(|&i| i as usize >= len) {
                list.pop();
            }
        }
    }

    /// All recorded boundary edges, in insertion order.
    pub fn edges(&self) -> &[BoundaryEdge] {
        &self.edges
    }

    /// Boundary edges with an endpoint owned by `shard`.
    pub fn for_shard(&self, shard: u32) -> impl Iterator<Item = &BoundaryEdge> {
        self.per_shard[shard as usize]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Number of cross-shard edges recorded.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge crosses shards.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A cross-shard product-state coordinate of a **masked** boundary
/// export: the global member, the path-automaton position
/// `(step, depth)` (depth already saturated, so the coordinate is
/// canonical across independently built shards), and the mask **word**
/// the accompanying bitmask belongs to. Bundles wider than 64
/// conditions are evaluated in 64-condition chunks; each chunk owns a
/// word, and keeping the word in the key lets one export set cover the
/// whole bundle with no cross-talk between chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MaskedStateKey {
    /// Global id of the member the state sits at.
    pub member: u32,
    /// Path step index.
    pub step: u16,
    /// Depth within the step, capped at the step's saturation point.
    pub depth: u32,
    /// Mask word index (condition `i` of a bundle lives in word
    /// `i / 64`, bit `i % 64`).
    pub word: u32,
}

/// One masked boundary export on the wire: the state key plus the
/// condition bits being forwarded. This is the unit a distributed
/// transport would batch between shard processes, so it round-trips
/// through serde.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskedExport {
    /// The product-state coordinate.
    pub key: MaskedStateKey,
    /// Condition bits (within `key.word`) that reached the state.
    pub mask: u64,
}

/// The router's record of which condition bits have already been
/// forwarded to a member's home shard, per masked state key. Bits only
/// ever accumulate, so the cross-shard fixpoint terminates after at
/// most `states × words × 64` insertions of new bits.
#[derive(Clone, Debug, Default)]
pub struct MaskedExportSet {
    masks: HashMap<MaskedStateKey, u64>,
}

impl MaskedExportSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `mask` bits for `key` and returns the bits that were
    /// **new** (never recorded for this key before) — exactly the bits
    /// the router still needs to forward. Returns `0` when every bit
    /// was already known.
    pub fn insert(&mut self, key: MaskedStateKey, mask: u64) -> u64 {
        let slot = self.masks.entry(key).or_insert(0);
        let new = mask & !*slot;
        *slot |= new;
        new
    }

    /// The bits recorded for `key` so far.
    pub fn mask(&self, key: &MaskedStateKey) -> u64 {
        self.masks.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct state keys recorded.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The recorded `(key, mask)` pairs as serialization-friendly wire
    /// entries, sorted by key for determinism.
    pub fn to_entries(&self) -> Vec<MaskedExport> {
        let mut entries: Vec<MaskedExport> = self
            .masks
            .iter()
            .map(|(&key, &mask)| MaskedExport { key, mask })
            .collect();
        entries.sort_unstable_by_key(|e| (e.key.member, e.key.step, e.key.depth, e.key.word));
        entries
    }

    /// Rebuilds a set from wire entries (bits of duplicate keys union).
    pub fn from_entries(entries: &[MaskedExport]) -> Self {
        let mut set = Self::new();
        for e in entries {
            set.insert(e.key, e.mask);
        }
        set
    }
}

/// Per-shard member census of an assignment over a name universe —
/// handy for balance checks and the workload generators.
pub fn shard_census<'a>(
    assignment: &ShardAssignment,
    names: impl Iterator<Item = &'a str>,
) -> Vec<usize> {
    let mut census = vec![0usize; assignment.shards() as usize];
    for name in names {
        census[assignment.shard_of(name) as usize] += 1;
    }
    census
}

/// Groups a name universe into per-shard member lists (used by the
/// cross-shard workload generator to sample endpoints by shard).
pub fn members_by_shard(assignment: &ShardAssignment, names: &[String]) -> Vec<Vec<u32>> {
    let mut by_shard = vec![Vec::new(); assignment.shards() as usize];
    for (i, name) in names.iter().enumerate() {
        by_shard[assignment.shard_of(name) as usize].push(i as u32);
    }
    by_shard
}

/// A deterministic map snapshot `name → shard` over a name universe,
/// for round-trip tests and operator tooling.
pub fn placement_map(
    assignment: &ShardAssignment,
    names: impl Iterator<Item = String>,
) -> HashMap<String, u32> {
    names
        .map(|n| {
            let s = assignment.shard_of(&n);
            (n, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_wire_encodings_are_frozen() {
        // These JSON strings are the on-the-wire shape of the masked
        // traversal state exchanged between shard processes. They are
        // frozen field order and all: reordering or renaming a field
        // must fail here, not surface as a mixed-version fleet
        // misrouting masks.
        let key = MaskedStateKey {
            member: 7,
            step: 2,
            depth: 9,
            word: 1,
        };
        assert_eq!(
            serde_json::to_string(&key).unwrap(),
            r#"{"member":7,"step":2,"depth":9,"word":1}"#
        );
        let export = MaskedExport { key, mask: 11 };
        assert_eq!(
            serde_json::to_string(&export).unwrap(),
            r#"{"key":{"member":7,"step":2,"depth":9,"word":1},"mask":11}"#
        );
        let edge = BoundaryEdge {
            src: 3,
            dst: 8,
            label: LabelId(1),
            src_shard: 0,
            dst_shard: 2,
        };
        assert_eq!(
            serde_json::to_string(&edge).unwrap(),
            r#"{"src":3,"dst":8,"label":1,"src_shard":0,"dst_shard":2}"#
        );
        // And back: decoding the frozen strings reproduces the values.
        assert_eq!(
            serde_json::from_str::<MaskedExport>(
                r#"{"key":{"member":7,"step":2,"depth":9,"word":1},"mask":11}"#
            )
            .unwrap(),
            export
        );
    }

    #[test]
    fn hashed_assignment_is_deterministic_across_constructions() {
        let a = ShardAssignment::hashed(4, 99);
        let b = ShardAssignment::hashed(4, 99);
        for i in 0..500 {
            let name = format!("u{i}");
            assert_eq!(a.shard_of(&name), b.shard_of(&name));
            assert!(a.shard_of(&name) < 4);
        }
    }

    #[test]
    fn hashed_assignment_depends_on_seed() {
        let a = ShardAssignment::hashed(8, 1);
        let b = ShardAssignment::hashed(8, 2);
        let moved = (0..500)
            .filter(|i| {
                let name = format!("u{i}");
                a.shard_of(&name) != b.shard_of(&name)
            })
            .count();
        assert!(moved > 200, "different seeds reshuffle placements: {moved}");
    }

    #[test]
    fn hashed_assignment_matches_pinned_expectations() {
        // Frozen expectations: placement is part of the on-disk/wire
        // contract, so a hash change must fail loudly here.
        let a = ShardAssignment::hashed(4, 42);
        let got: Vec<u32> = (0..8).map(|i| a.shard_of(&format!("u{i}"))).collect();
        assert_eq!(got, vec![0, 2, 1, 2, 2, 1, 1, 2]);
    }

    #[test]
    fn hashed_assignment_balances_roughly() {
        let a = ShardAssignment::hashed(4, 7);
        let names: Vec<String> = (0..2000).map(|i| format!("u{i}")).collect();
        let census = shard_census(&a, names.iter().map(String::as_str));
        assert_eq!(census.iter().sum::<usize>(), 2000);
        for (s, &c) in census.iter().enumerate() {
            assert!(
                (350..=650).contains(&c),
                "shard {s} holds {c} of 2000 members"
            );
        }
    }

    #[test]
    fn explicit_pins_override_the_hash() {
        let hashed = ShardAssignment::hashed(4, 5);
        let pinned = ShardAssignment::explicit(4, 5, vec![("Alice".into(), 3), ("Bob".into(), 0)]);
        assert_eq!(pinned.shard_of("Alice"), 3);
        assert_eq!(pinned.shard_of("Bob"), 0);
        assert_eq!(pinned.shard_of("Carol"), hashed.shard_of("Carol"));
        assert_eq!(pinned.shards(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardAssignment::hashed(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds shard count")]
    fn out_of_range_pin_rejected() {
        ShardAssignment::explicit(2, 0, vec![("X".into(), 2)]);
    }

    #[test]
    fn boundary_table_indexes_both_endpoint_shards() {
        let mut t = BoundaryTable::new(3);
        assert!(t.is_empty());
        t.record(BoundaryEdge {
            src: 0,
            dst: 1,
            label: LabelId(0),
            src_shard: 0,
            dst_shard: 2,
        });
        t.record(BoundaryEdge {
            src: 2,
            dst: 3,
            label: LabelId(1),
            src_shard: 1,
            dst_shard: 0,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.for_shard(0).count(), 2);
        assert_eq!(t.for_shard(1).count(), 1);
        assert_eq!(t.for_shard(2).count(), 1);
        assert_eq!(t.edges()[0].dst_shard, 2);
    }

    #[test]
    #[should_panic(expected = "cross shards")]
    fn boundary_table_rejects_intra_shard_edges() {
        let mut t = BoundaryTable::new(2);
        t.record(BoundaryEdge {
            src: 0,
            dst: 1,
            label: LabelId(0),
            src_shard: 1,
            dst_shard: 1,
        });
    }

    #[test]
    fn members_by_shard_partitions_the_universe() {
        let a = ShardAssignment::hashed(3, 11);
        let names: Vec<String> = (0..60).map(|i| format!("u{i}")).collect();
        let by_shard = members_by_shard(&a, &names);
        let total: usize = by_shard.iter().map(Vec::len).sum();
        assert_eq!(total, 60);
        for (s, members) in by_shard.iter().enumerate() {
            for &m in members {
                assert_eq!(a.shard_of(&names[m as usize]), s as u32);
            }
        }
    }

    #[test]
    fn masked_export_set_reports_only_new_bits() {
        let mut set = MaskedExportSet::new();
        let key = MaskedStateKey {
            member: 7,
            step: 1,
            depth: 2,
            word: 0,
        };
        assert_eq!(set.insert(key, 0b1011), 0b1011, "first arrival is all new");
        assert_eq!(set.insert(key, 0b1110), 0b0100, "only the unseen bit");
        assert_eq!(
            set.insert(key, 0b1111),
            0,
            "fully known mask forwards nothing"
        );
        assert_eq!(set.mask(&key), 0b1111);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn masked_export_words_do_not_cross_talk() {
        // A 64+-condition bundle splits into words; the same (member,
        // step, depth) coordinate must track each word independently.
        let mut set = MaskedExportSet::new();
        let coord = |word| MaskedStateKey {
            member: 3,
            step: 0,
            depth: 1,
            word,
        };
        assert_eq!(set.insert(coord(0), 0b01), 0b01);
        assert_eq!(
            set.insert(coord(1), 0b01),
            0b01,
            "bit 0 of word 1 is condition 64, distinct from condition 0"
        );
        assert_eq!(set.insert(coord(0), 0b11), 0b10);
        assert_eq!(set.mask(&coord(0)), 0b11);
        assert_eq!(set.mask(&coord(1)), 0b01);
        assert_eq!(set.len(), 2, "one entry per word");
    }

    #[test]
    fn masked_exports_round_trip_through_serde() {
        let mut set = MaskedExportSet::new();
        set.insert(
            MaskedStateKey {
                member: 1,
                step: 0,
                depth: 1,
                word: 0,
            },
            0xdead_beef,
        );
        set.insert(
            MaskedStateKey {
                member: 9,
                step: 2,
                depth: 0,
                word: 3,
            },
            u64::MAX,
        );
        let entries = set.to_entries();
        let json = serde_json::to_string(&entries).expect("exports serialize");
        let back: Vec<MaskedExport> = serde_json::from_str(&json).expect("exports parse");
        assert_eq!(back, entries);
        let rebuilt = MaskedExportSet::from_entries(&back);
        assert_eq!(rebuilt.to_entries(), entries);
        for e in &entries {
            assert_eq!(rebuilt.mask(&e.key), e.mask);
        }
    }

    #[test]
    fn placement_map_round_trips_through_serde() {
        let a = ShardAssignment::explicit(4, 9, vec![("hub".into(), 1)]);
        let json = serde_json::to_string(&a).expect("assignment serializes");
        let back: ShardAssignment = serde_json::from_str(&json).expect("assignment parses");
        assert_eq!(back, a);
        let names: Vec<String> = (0..40).map(|i| format!("m{i}")).collect();
        let before = placement_map(&a, names.iter().cloned());
        let after = placement_map(&back, names.iter().cloned());
        assert_eq!(before, after);
    }
}
