#![warn(missing_docs)]
//! # socialreach-core
//!
//! Reachability-based access control for social networks — a
//! production-quality implementation of Ben Dhia's EDBT 2012 model.
//!
//! Resources are shared under **access rules** whose audiences are
//! **path expressions** over the social graph: *"only the children of my
//! friends' friends can read my notes"* becomes
//! `friend+[1,2]/children+[1]`. Enforcement reduces each access request
//! to an ordered label-constraint reachability query. Every serving
//! backend answers it by a constrained product BFS over CSR snapshots
//! it publishes itself ([`online`] and the masked plan engine of
//! [`query`]). The paper's two engines — the online BFS of §1
//! ([`engine::OnlineEngine`]) and the precomputed line-graph cluster
//! join index of §3 ([`joinengine::JoinIndexEngine`]) — implement the
//! [`AccessEngine`] trait, and the paper's experiments and tests wrap
//! either in an [`Enforcer`] to compare them on the same requests. The
//! join index is not a serving backend: it is built for a static
//! graph, and on the benchmark's feed inputs it refuses most reads past
//! its candidate-tuple limit.
//!
//! ## Quick start
//!
//! Serving goes through the deployment-agnostic [`service`] API: pick
//! a [`Deployment`] (one epoch-published graph, or N hash-partitioned
//! shards), mutate through [`MutateService`], read through
//! [`AccessService`] — nothing downstream of the config line knows
//! which backend answers.
//!
//! ```
//! use socialreach_core::{AccessService, Decision, Deployment, MutateService};
//!
//! let mut svc = Deployment::online().build();
//! // …or Deployment::sharded(4, 7).build(): nothing below changes.
//! let alice = svc.add_user("Alice");
//! let bob = svc.add_user("Bob");
//! let carol = svc.add_user("Carol");
//! svc.add_relationship(alice, "friend", bob);
//! svc.add_relationship(bob, "friend", carol);
//!
//! let photos = svc.add_resource(alice);
//! svc.add_rule(photos, "friend+[1,2]").unwrap(); // friends ≤ 2 hops away
//!
//! assert_eq!(svc.reads().check(photos, carol).unwrap(), Decision::Grant);
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`path`] | §2 Def. 3 | path-expression AST, parser, printer |
//! | [`policy`] | §2 Def. 2 | access rules, policy store, decisions |
//! | [`online`] | §1 | constrained product BFS over a label-partitioned CSR snapshot (flat-array engine; checks walk from both ends; degenerate product spaces run as the one-path plan on the `query` engine) |
//! | [`lineplan`] | §3.1 | depth expansion into line queries (Fig. 4) |
//! | [`joinengine`] | §3.3–3.4 | join pipeline + post-processing (a library engine: experiments and tests, not a serving backend) |
//! | [`engine`] | §1, §3 | the engine trait the experiments swap (`name`, `check`, `audience`) and the caching enforcer over it |
//! | [`service`] | — | the deployment-agnostic serving API: `AccessService` / `MutateService` traits, the `Mutation` write vocabulary (applied by every backend, logged by the WAL), request/response vocabulary, `Deployment` builder |
//! | [`query`] | — | openCypher-flavored query front-end + shared-prefix bundle plan compiler and its masked trie engine |
//! | [`planner`] | — | telemetry-fed adaptive read planner: one measured argmin over per-resource decayed route costs picks each bundle's and check batch's route |
//! | [`system`] | — | single-graph backend (`AccessControlSystem`), evaluated online |
//! | [`coordinator`] | — | the partitioned coordinator over N shard links: placement, ghosts, the edge log, the cross-shard reads and writes of both partitioned backends |
//! | `link` | — | `ShardLink`: how the coordinator reaches a shard, and the in-process link |
//! | `publish` | — | `Publisher`: the epoch-published CSR snapshot of one owned graph, patched from the last epoch on appends |
//! | `shard` | — | `ShardCore`: one shard's graph, id tables, snapshot publication and round/trace, in process or in a server |
//! | [`sharded`] | — | `ShardedSystem`: the coordinator over in-process shards |
//! | [`durability`] | — | durable decorator: write-ahead log of `Mutation`s, checksummed snapshots, crash recovery, point-in-time audit reads |
//! | [`remote`] | — | shards as **processes**: CRC-framed wire protocol over TCP/Unix sockets, shard servers, and the remote link (`NetworkedSystem`) |
//! | [`examples`] | §2–3 | the Figure 1 graph, Q1, worked queries |
//! | [`carminati`] | §4 | the Carminati et al. trust+radius baseline |
//!
//! ## Epoch-published snapshots
//!
//! The online engine runs over an immutable
//! [`socialreach_graph::csr::CsrSnapshot`]: edges sorted by
//! `(node, label)` with per-(node, label) offset runs, so each step
//! expands exactly the matching `O(deg_label)` slice. Each serving
//! backend treats snapshots as **publications**: at any time one
//! `Arc<CsrSnapshot>` is the current *epoch*, and every reader —
//! `check`, `audience`, `check_batch`, `audience_batch`, all `&self` —
//! clones that `Arc` and traverses the immutable index concurrently.
//! Mutations (`&mut self` on [`AccessControlSystem`]) never touch the
//! published snapshot; they advance the graph's process-unique
//! *generation* stamp, which makes the epoch stale. The next reader
//! republishes under a write lock — **incrementally**, since the
//! backend owns its graph and every topology write is an append, and by
//! a **parallel full build** for the first epoch (workers claim pages
//! of both directions from one queue).
//! The index is split into immutable pages of 256 consecutive members,
//! so the incremental path
//! ([`CsrSnapshot::apply_edge_appends`](socialreach_graph::csr::CsrSnapshot::apply_edge_appends))
//! is copy-on-write: it rebuilds only the pages that appended edges or
//! members land on and shares every other page with the previous
//! epoch, so one new relationship costs two page rebuilds, not a copy
//! of the whole index. In-flight readers keep their epoch's `Arc` —
//! and with it every page it references — alive until they finish, so
//! publication is wait-free for them.
//!
//! On top of the shared snapshot, `audience_batch` evaluates all the
//! owners/conditions of a policy bundle with a multi-source flat BFS
//! over the bundle's shared-prefix plan
//! ([`query::evaluate_bundle_audiences`]): up to 64 conditions traverse
//! together, one frontier pass per `(label, direction)` layer,
//! amortizing edge scans across the bundle.
//!
//! ## Partitioned serving: one coordinator, two links
//!
//! [`ShardedSystem`] and [`NetworkedSystem`] are one coordinator,
//! [`Partitioned`] ([`coordinator`]), over two kinds of shard link. It
//! hash-partitions members across N shards (deterministic, seedable
//! placement — [`socialreach_graph::shard::ShardAssignment`]) and
//! replicates each cross-shard relationship (an edge-log entry whose
//! endpoints have different home shards) into both endpoint shards
//! against *ghost* replicas. Each shard is a `ShardCore` (module
//! `shard`): an epoch-published graph of its own, with the incremental
//! append-patching pipeline above. The in-process
//! link owns one and calls it; the remote link ([`remote`]) reaches one
//! inside a [`remote::ShardServer`] process over a CRC-framed wire,
//! stages writes for a two-phase epoch fence, and revives a restarted
//! server from its op log.
//!
//! Every partitioned read — a bundle's audiences, one condition's
//! audience, one targeted `check`/`explain` — is the **same** round
//! loop, the crate-private `fixpoint::masked_fixpoint`: each shard runs
//! a seeded masked BFS over a shared-prefix plan
//! ([`query::evaluate_plan_batch_seeded`]) and exports the states it
//! visits at ghosts with the bits newly arrived there; the driver
//! forwards each export to its member's home shard as received, until
//! nothing is pending or the targeted requester is hit. Each shard's
//! mask state persists across the rounds of a read and absorbs bits it
//! already holds, so total work is linear in the explored region. A bundle of up to 64 conditions runs
//! one fixpoint. Witnesses are stitched off the shards' parent chains.
//! Remote shards compute in parallel between a round's send and its
//! receive; an in-process shard runs its round inside the send.
//! Transport faults surface as typed [`EvalError::Remote`] errors,
//! never as a wrong decision. `tests/differential_matrix.rs` pins every
//! deployment, bare, durable and planned, to a test oracle that shares
//! no code with the crate; `tests/remote_conformance.rs` adds the wire's
//! fixed-input regressions.
//!
//! ## Masked reads cost what they explore
//!
//! The one masked engine ([`query::PlanBatchState`]) — behind every
//! bundle and every partitioned read, targeted or not — keeps its flat
//! state in a pooled scratch (see [`online`], "Pooled mask scratch"):
//! a dense `u32` directory per product state over a compact arena of
//! the states a read actually reaches. Constructing an engine takes a
//! scratch from the calling thread's pool (all-zero by invariant, so
//! nothing is filled); dropping it walks the arena once to clear what
//! the read reached and gives the scratch back, unless the thread is
//! panicking. A shard
//! lane opens and drops its engine on the fixpoint's driver thread, a
//! shard server's session on its connection thread, so after warm-up a
//! masked read allocates nothing `|V|`-sized and a read that never
//! leaves its seed costs the same at 10³ and at 10⁵ members.
//! [`online::thread_cache_stats`] reports the pool;
//! [`online::release_thread_caches`] sheds it.
//!
//! ## One read seam, one decision layer, every backend
//!
//! [`AccessService`] has one required read, [`AccessService::read`]: a
//! [`ReadBatch`] of checks, audiences, explains and ad-hoc queries in,
//! one [`AccessResponse`] per read out, in request order. A batch may
//! force its checks' route ([`CheckPlan`]) and its bundles' traversal
//! ([`BundleStrategy`]). Every named read (`check`, `explain`,
//! `audience_batch_forced`, `query_audience`, …) is a provided wrapper
//! over `read`; the rest of the trait is metadata.
//!
//! Behind `read` sits the paper's grant rule — *the owner is always
//! granted; otherwise some rule must have all of its conditions
//! satisfied; no rules means private* — written **once**, in the
//! crate-private `decision` module, with everything else a read does:
//! the split of a batch by kind, the choice of route, the targeted
//! loop, the membership route of a check batch, the bundle merge, the
//! query scatter, the census attribution and the decision cache (a
//! bounded table that every write retires at once by bumping its
//! generation). A backend contributes only
//! how it evaluates conditions — a walk of the online engine over the
//! single graph's published snapshot (pinned only after a cache miss;
//! a check walks from both ends),
//! or the masked fixpoint over the partitioned coordinator's shard
//! links — so
//! decisions and `cache_stats` cannot drift between deployments.
//! Decorators forward `read`; [`PlannedService`] first fills a batch's
//! unset route from its planner.

//! ## Query front-end and bundle-wide plan sharing
//!
//! The [`query`] module adds a second policy surface and a second
//! batch execution strategy. Its front-end parses an
//! openCypher-flavored query language —
//! `MATCH (owner)-[:friend*1..2]->(v {age >= 18})` — into the same
//! [`path::PathExpr`] AST as the classic syntax, with the same caret
//! errors; [`query::parse_policy`] accepts either grammar, so
//! `add_rule` and the CLI take both, and ad-hoc audience questions
//! enter through [`AccessService::query_audience`] without
//! registering a resource. Its back half is the batched read paths'
//! one planner, a **shared-prefix trie** ([`query::BundlePlan`]): a
//! bundle's distinct conditions
//! compile into one plan whose nodes are canonicalized steps, the
//! masked multi-source BFS ([`query::engine`]) walks each shared
//! prefix once per 64-condition chunk, and condition masks fork only
//! where paths diverge — on the single graph, inside the sharded
//! fixpoint, and across the wire (a plan session). The compression
//! achieved is reported per read as
//! [`ReadStats::plan_states`]/[`ReadStats::expr_states`]. A bundle past the
//! plan's `u16` node budget is bisected into several plans and served
//! through the same code (one *path* past that budget,
//! [`PathExpr::MAX_STEPS`], is refused by both parsers with a caret
//! error); `tests/query_differential.rs` pins the
//! bisected path to per-condition evaluation on the single graph and a
//! partition.

pub mod carminati;
pub mod coordinator;
mod decision;
pub mod durability;
pub mod engine;
pub mod error;
pub mod examples;
mod fixpoint;
pub mod joinengine;
pub mod lineplan;
mod link;
pub mod online;
pub mod path;
pub mod planner;
pub mod policy;
mod publish;
pub mod query;
pub mod remote;
pub mod service;
mod shard;
pub mod sharded;
pub mod system;

pub use carminati::{CarminatiOutcome, CarminatiRule, TrustAggregation};
pub use coordinator::Partitioned;
pub use durability::{
    read_history, AudienceDiff, AuditError, CompactionReport, DurabilityError, DurableService,
    HistoryEntry, RecoveryReport, TornTail,
};
pub use engine::{
    resource_audience, AccessEngine, AudienceOutcome, CheckOutcome, Enforcer, EvalStats,
    OnlineEngine,
};
pub use error::{EvalError, ParseError};
pub use joinengine::{JoinEngineConfig, JoinIndexEngine, JoinStrategy};
pub use lineplan::{plan, LinePlan, LineQuery, PlanConfig};
pub use path::{parse_path, AttrPredicate, CmpOp, DepthSet, PathExpr, Step};
pub use planner::{PlannedService, Planner, PlannerMode, PlannerTally};
pub use policy::{AccessCondition, AccessRule, Decision, PolicyStore, ResourceId};
pub use query::{parse_policy, parse_query, render_query, BundlePlan};
pub use remote::{NetworkedSystem, RemoteError, ShardAddr, ShardHandle, ShardServer};
pub use service::{
    AccessResponse, AccessService, Applied, BundleStrategy, CheckPlan, Deployment, Explanation,
    MutateService, Mutation, NetworkedSpec, ReadBatch, ReadRequest, ReadStats, ServiceInstance,
    WalkHop, WitnessWalk,
};
pub use sharded::ShardedSystem;
pub use system::AccessControlSystem;

// Re-exported so `JoinEngineConfig` can be configured without naming the
// reach crate directly.
pub use socialreach_reach::{JoinIndex, JoinIndexConfig};
