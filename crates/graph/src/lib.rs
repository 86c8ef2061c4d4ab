#![warn(missing_docs)]
//! Social-network graph substrate for the `socialreach` workspace.
//!
//! This crate implements Definition 1 of Ben Dhia (EDBT 2012): a directed,
//! edge-labeled multigraph `G = (V, E, δ, β)` where `δ` maps each node to a
//! set of attributes and `β` maps each edge to a relationship type drawn
//! from a finite alphabet `Σ`.
//!
//! The crate is split into:
//!
//! * [`ids`] — copy-cheap typed identifiers ([`NodeId`], [`EdgeId`],
//!   [`LabelId`], [`AttrKey`]);
//! * [`attrs`] — dynamically typed attribute values and per-node /
//!   per-edge attribute maps;
//! * [`vocab`] — string interning for relationship types and attribute
//!   keys, so the hot paths work on integers;
//! * [`graph`] — the mutable [`SocialGraph`] itself, carrying a
//!   process-unique mutation *generation* stamp;
//! * [`csr`] — immutable label-partitioned CSR adjacency snapshots
//!   ([`CsrSnapshot`]): the online engine's hot-path layout, split into
//!   immutable, reference-counted pages of 256 consecutive members.
//!   Snapshots build **in parallel** (workers claim pages of both
//!   directions from one queue) and refresh **copy-on-write** after
//!   append-only growth ([`CsrSnapshot::apply_edge_appends`] rebuilds
//!   only the pages that appended edges or members land on and shares
//!   the rest with the previous snapshot); the enforcement layers above
//!   publish one `Arc<CsrSnapshot>` per epoch and share it across
//!   concurrent readers;
//! * [`digraph`] — a compact CSR digraph used by index structures (the
//!   line graph, condensations, …);
//! * [`algo`] — BFS, iterative Tarjan SCC, condensation and topological
//!   order over [`digraph::DiGraph`];
//! * [`shard`] — shard placement ([`ShardAssignment`]: deterministic,
//!   seedable member → shard hashing with explicit pins for tests), the
//!   substrate of the core crate's sharded serving layer. Its masked
//!   traversal state ([`MaskedStateKey`], [`MaskedExport`]) doubles as
//!   the **wire vocabulary** of the networked deployment:
//!   the serde encodings are frozen by golden-bytes tests (here and in
//!   core's `wire_roundtrip` suite) because shard *processes* exchange
//!   them over sockets — a field reorder is a protocol break, not a
//!   refactor;
//! * [`bitset`] — a small dense bit set used by reachability algorithms;
//! * [`wire`] — CRC-32 and bounds-checked little-endian binary
//!   primitives for on-disk persistence;
//! * [`persist`] — the binary snapshot codec for [`SocialGraph`],
//!   decoding through the public mutation API so rebuilt graphs assign
//!   identical ids (the property WAL suffix replay relies on);
//! * [`export`] — DOT and edge-list renderings for debugging and the
//!   paper-figure artifacts.
//!
//! # Example
//!
//! ```
//! use socialreach_graph::{SocialGraph, Direction};
//!
//! let mut g = SocialGraph::new();
//! let alice = g.add_node("Alice");
//! let bob = g.add_node("Bob");
//! let friend = g.intern_label("friend");
//! g.add_edge(alice, bob, friend);
//! assert_eq!(g.out_degree(alice), 1);
//! assert_eq!(g.neighbors(alice, friend, Direction::Out).count(), 1);
//! ```

pub mod algo;
pub mod attrs;
pub mod bitset;
pub mod csr;
pub mod digraph;
pub mod error;
pub mod export;
pub mod graph;
pub mod ids;
pub mod persist;
pub mod shard;
pub mod vocab;
pub mod wire;

pub use attrs::{AttrMap, AttrValue};
pub use bitset::BitSet;
pub use csr::CsrSnapshot;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use graph::{Direction, EdgeRecord, SocialGraph};
pub use ids::{AttrKey, EdgeId, LabelId, NodeId};
pub use persist::{decode_graph, encode_graph};
pub use shard::{MaskedExport, MaskedStateKey, ShardAssignment};
pub use vocab::Vocabulary;
pub use wire::{crc32, crc32_parts, WireError, WireReader, WireWriter};
