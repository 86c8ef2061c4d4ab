#![warn(missing_docs)]
//! Synthetic workloads for the `socialreach` evaluation — the *"large
//! representative synthetic datasets"* §5 of the paper defers to future
//! work.
//!
//! * [`topology`] — seeded random-graph families (Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, planted communities);
//! * [`spec`] — full dataset descriptions: topology + relationship-type
//!   assignment + member attributes + reciprocity, deterministic per
//!   seed;
//! * [`policies`] — random access-rule workloads over a graph's labels;
//! * [`sharding`] — shard-aware tie generation with a controlled
//!   cross-shard crossing rate under the serving placement;
//! * [`requests`] — access-request streams with ground-truth outcomes
//!   and controllable grant rates;
//! * [`replay`] — deployment-agnostic replay of a request stream
//!   through any `AccessService` backend, audited against the stream's
//!   ground truth.
//!
//! ```
//! use socialreach_workload::{GraphSpec, PolicyWorkloadConfig};
//! use socialreach_core::PolicyStore;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut g = GraphSpec::ba_osn(100, 42).build();
//! let mut store = PolicyStore::new();
//! let mut rng = StdRng::seed_from_u64(42);
//! let rids = socialreach_workload::generate_policies(
//!     &mut g, &mut store, &PolicyWorkloadConfig::default(), &mut rng);
//! assert_eq!(rids.len(), 50);
//! ```

pub mod io;
pub mod policies;
pub mod replay;
pub mod requests;
pub mod sharding;
pub mod spec;
pub mod stats;
pub mod topology;

pub use io::{read_edge_list, write_edge_list, EdgeListError};
pub use policies::{generate_policies, random_path_text, PolicyWorkloadConfig};
pub use replay::{compare_replays, replay_requests, DecisionFlip, DriftReport, ReplayReport};
pub use requests::{requests_with_grant_rate, uniform_requests, Request};
pub use sharding::CrossShardTopology;
pub use spec::{AttributeModel, GraphSpec, LabelModel};
pub use stats::GraphStats;
pub use topology::Topology;
