#![warn(missing_docs)]
//! # socialreach
//!
//! Reachability-based access control for social networks — a
//! production-quality Rust reproduction of:
//!
//! > Imen Ben Dhia. *Access Control in Social Networks: A
//! > reachability-Based Approach.* EDBT/ICDT Workshops (PhD Symposium),
//! > 2012.
//!
//! A resource owner describes the audience of each shared resource as a
//! **path expression** over the social graph — *"only the colleagues of
//! my friends (or of my friends' friends)"* is `friend+[1,2]/colleague+[1]`
//! — and every access request becomes an *ordered label-constraint
//! reachability query*, answered online (constrained BFS) or through the
//! paper's precomputed line-graph + 2-hop cluster join index.
//!
//! ## One API, any deployment
//!
//! Serving goes through the **deployment-agnostic service API**
//! ([`AccessService`] for reads, [`MutateService`] for writes): a
//! [`Deployment`] config constructs either the single-graph backend
//! (one epoch-published CSR snapshot, pluggable engines) or the
//! sharded backend (members hash-partitioned across N epoch-published
//! shards with cross-shard fixpoint reads). Everything downstream of
//! the config line — the CLI, the examples, the benches, the
//! differential test harnesses — holds `&dyn AccessService` and never
//! learns which backend answers.
//!
//! ```
//! use socialreach::{AccessService, Decision, Deployment, MutateService};
//!
//! // The deployment is the only backend-specific line:
//! let mut svc = Deployment::online().build();
//! // let mut svc = Deployment::sharded(4, 7).build(); // …same program.
//!
//! let alice = svc.add_user("Alice");
//! let bob = svc.add_user("Bob");
//! let carol = svc.add_user("Carol");
//! svc.add_relationship(alice, "friend", bob);
//! svc.add_relationship(bob, "friend", carol);
//! svc.set_user_attr(carol, "age", 26i64.into());
//!
//! let album = svc.add_resource(alice);
//! svc.add_rule(album, "friend+[1,2]{age>=18}").unwrap();
//!
//! let reads = svc.reads();
//! assert_eq!(reads.check(album, carol).unwrap(), Decision::Grant);
//! assert_eq!(reads.check(album, bob).unwrap(), Decision::Deny); // no age
//! assert_eq!(
//!     reads.explain_lines(album, carol).unwrap().unwrap(),
//!     vec!["Alice -friend-> Bob -friend-> Carol".to_owned()]
//! );
//! ```
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`graph`] — the directed, edge-labeled, node-attributed social
//!   graph substrate (`socialreach-graph`);
//! * [`reach`] — reachability indexes: line graphs, transitive closure,
//!   interval labeling, 2-hop covers, the cluster join index
//!   (`socialreach-reach`);
//! * [`core`] — the access-control model, engines, and the service API
//!   (`socialreach-core`);
//! * [`workload`] — seeded synthetic graphs, policies, request streams
//!   and the service-level request replay (`socialreach-workload`).
//!
//! The most common entry points are re-exported at the crate root.

pub use socialreach_core as core;
pub use socialreach_graph as graph;
pub use socialreach_reach as reach;
pub use socialreach_workload as workload;

pub use socialreach_core::{
    examples, online, parse_path, read_history, resource_audience_batch_with_stats,
    AccessCondition, AccessControlSystem, AccessEngine, AccessResponse, AccessRule, AccessService,
    Applied, AudienceDiff, AuditError, BundleStrategy, CheckPlan, CompactionReport, Decision,
    Deployment, DurabilityError, DurableService, Enforcer, EngineChoice, EvalError, Explanation,
    HistoryEntry, JoinEngineConfig, JoinIndexEngine, JoinStrategy, MutateService, Mutation,
    NetworkedSpec, NetworkedSystem, OnlineEngine, ParseError, PathExpr, PlannedService, Planner,
    PlannerMode, PolicyStore, ReadBatch, ReadRequest, ReadStats, RecoveryReport, RemoteError,
    ResourceId, ServiceInstance, ShardAddr, ShardHandle, ShardServer, ShardedSystem, WalkHop,
    WitnessWalk,
};
pub use socialreach_graph::{AttrValue, Direction, EdgeId, LabelId, NodeId, SocialGraph};
