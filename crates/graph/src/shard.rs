//! Shard placement and the vocabulary of masked boundary exports.
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
//! * [`MaskedStateKey`] / [`MaskedExport`] — the vocabulary of
//!   **masked** boundary exports. The batched serving path evaluates a
//!   whole bundle of access conditions in one cross-shard fixpoint:
//!   every product state a shard exports carries a bitmask of the
//!   bundle conditions that newly reached it, and the driver forwards
//!   each export to its member's home shard as received. Bundles wider
//!   than 64 conditions split into multiple mask **words**; the word
//!   index is part of the key, so one bundle's words never cross-talk.
//!   [`MaskedExport`] is the serialization-friendly wire entry (the
//!   unit the networked shard protocol batches onto sockets).
//!
//! A relationship whose endpoints live on different shards has no
//! record of its own: it is an edge of the coordinator's edge log whose
//! endpoints have different home shards.

use serde::{Deserialize, Serialize};

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

/// A cross-shard product-state coordinate of a **masked** boundary
/// export: the global member, the path-automaton position
/// `(step, depth)` (depth already saturated, so the coordinate is
/// canonical across independently built shards), and the mask **word**
/// the accompanying bitmask belongs to. Bundles wider than 64
/// conditions are evaluated in 64-condition chunks; each chunk owns a
/// word, and keeping the word in the key keeps the chunks' bits apart.
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

/// Groups a name universe into per-shard member lists (used by the
/// cross-shard workload generator to sample endpoints by shard).
pub fn members_by_shard(assignment: &ShardAssignment, names: &[String]) -> Vec<Vec<u32>> {
    let mut by_shard = vec![Vec::new(); assignment.shards() as usize];
    for (i, name) in names.iter().enumerate() {
        by_shard[assignment.shard_of(name) as usize].push(i as u32);
    }
    by_shard
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
        let mut census = [0usize; 4];
        for name in &names {
            census[a.shard_of(name) as usize] += 1;
        }
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
    fn masked_exports_round_trip_through_serde() {
        let key = |member, step, depth, word| MaskedStateKey {
            member,
            step,
            depth,
            word,
        };
        // A batch keeps its order and its repeated keys: the driver
        // forwards exports as received.
        let entries = vec![
            MaskedExport {
                key: key(9, 2, 0, 3),
                mask: u64::MAX,
            },
            MaskedExport {
                key: key(1, 0, 1, 0),
                mask: 0xdead_beef,
            },
            MaskedExport {
                key: key(9, 2, 0, 3),
                mask: 1,
            },
        ];
        let json = serde_json::to_string(&entries).expect("exports serialize");
        let back: Vec<MaskedExport> = serde_json::from_str(&json).expect("exports parse");
        assert_eq!(back, entries);
    }

    #[test]
    fn placement_map_round_trips_through_serde() {
        let a = ShardAssignment::explicit(4, 9, vec![("hub".into(), 1)]);
        let json = serde_json::to_string(&a).expect("assignment serializes");
        let back: ShardAssignment = serde_json::from_str(&json).expect("assignment parses");
        assert_eq!(back, a);
        let names: Vec<String> = (0..40).map(|i| format!("m{i}")).collect();
        let placed =
            |a: &ShardAssignment| -> Vec<u32> { names.iter().map(|n| a.shard_of(n)).collect() };
        assert_eq!(placed(&a), placed(&back));
    }
}
