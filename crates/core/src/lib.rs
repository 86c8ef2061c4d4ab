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
//! to an ordered label-constraint reachability query, answered either
//! by a constrained product BFS ([`engine::OnlineEngine`]) or through
//! the precomputed line-graph cluster join index of §3
//! ([`joinengine::JoinIndexEngine`]).
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
//! | [`online`] | §1 | constrained product BFS over a label-partitioned CSR snapshot (flat-array engine + retained reference implementation) |
//! | [`lineplan`] | §3.1 | depth expansion into line queries (Fig. 4) |
//! | [`joinengine`] | §3.3–3.4 | join pipeline + post-processing |
//! | [`engine`] | — | engine trait, caching enforcer, per-generation snapshot cache |
//! | [`service`] | — | the deployment-agnostic serving API: `AccessService` / `MutateService` traits, request/response vocabulary, `Deployment` builder |
//! | [`query`] | — | openCypher-flavored query front-end + shared-prefix bundle plan compiler and its masked trie engine |
//! | [`planner`] | — | telemetry-fed adaptive read planner: per-resource decaying profiles pick the winning engine per bundle |
//! | [`system`] | — | single-graph backend (`AccessControlSystem`) |
//! | [`sharded`] | — | hash-partitioned multi-shard backend with cross-shard stitching |
//! | [`remote`] | — | shards as **processes**: CRC-framed wire protocol over TCP/Unix sockets, shard servers, and the networked router |
//! | [`examples`] | §2–3 | the Figure 1 graph, Q1, worked queries |
//! | [`carminati`] | §4 | the Carminati et al. trust+radius baseline |
//!
//! ## Epoch-published snapshots
//!
//! The online engine runs over an immutable
//! [`socialreach_graph::csr::CsrSnapshot`]: edges sorted by
//! `(node, label)` with per-(node, label) offset runs, so each step
//! expands exactly the matching `O(deg_label)` slice. The enforcement
//! layer treats snapshots as **publications**: at any time one
//! `Arc<CsrSnapshot>` is the current *epoch*, and every reader —
//! `check`, `audience`, `check_batch`, `audience_batch`, all `&self` —
//! clones that `Arc` and traverses the immutable index concurrently.
//! Mutations (`&mut self` on [`AccessControlSystem`]) never touch the
//! published snapshot; they advance the graph's process-unique
//! *generation* stamp, which makes the epoch stale. The next reader
//! republishes under a write lock — **incrementally** when the owner
//! can vouch for append-only lineage, and by a **parallel full build**
//! otherwise (workers claim pages of both directions from one queue).
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
//! ([`query::evaluate_plan_audiences`]): up to 64 conditions traverse
//! together, one frontier pass per `(label, direction)` layer,
//! amortizing edge scans across the bundle.
//!
//! ## Sharded serving
//!
//! [`ShardedSystem`] scales the read path horizontally: members are
//! hash-partitioned across N independent shards (deterministic,
//! seedable placement — [`socialreach_graph::shard::ShardAssignment`]),
//! each shard an epoch-published graph of its own with the incremental
//! append-patching pipeline above. Cross-shard relationships are
//! recorded in a boundary table and replicated into both endpoint
//! shards against attribute-synchronized *ghost* replicas. Reads run a
//! round-based fixpoint of per-shard **seeded** masked BFS over a
//! shared-prefix plan ([`query::evaluate_plan_batch_seeded`]): each
//! shard traverses its local CSR snapshot, exports every product state
//! visited at a ghost, and the router re-seeds those states at the
//! member's home shard until no new state appears. Witnesses stitch
//! per-shard walk segments. A differential proptest suite
//! (`tests/shard_differential.rs`) pins the sharded semantics to the
//! single-graph system across shard counts.
//!
//! Bundle reads are **batch-amortized**: `ShardedSystem::audience_batch`
//! and `check_batch` run *one* masked fixpoint per bundle instead of
//! one per condition. The bundle's distinct conditions compile into a
//! shared-prefix plan and traverse together as condition bits of the
//! fixpoint; boundary exports carry those masks
//! ([`socialreach_graph::shard::MaskedStateKey`], chunked into further
//! 64-bit words for wider bundles), and each shard's visited/mask
//! state persists across the fixpoint's rounds, keeping total work
//! linear in the explored region even when walks ping-pong across a
//! boundary. One condition — a targeted check, or one condition of the
//! per-condition bundle arm — is the same fixpoint over its one-path
//! plan. The batched path is pinned to the single-graph batch BFS and
//! the reference engine by `tests/shard_batch_differential.rs`.
//!
//! ## One fixpoint driver, two lanes
//!
//! Every cross-shard read — a bundle's audiences, one condition's
//! audience or one targeted `check`/`explain`, in process or over the
//! wire — runs the **same** round loop over the **same** engine, the
//! crate-private `fixpoint::masked_fixpoint`:
//! take each shard's pending seeds, send every active shard its seeds,
//! then receive their reports in shard order and merge them, forward
//! only condition bits a home shard has not been sent before, stop on
//! the targeted requester's hit, and end every lane it opened whatever
//! the outcome. Everything runs on the caller's thread: remote shards
//! compute in parallel in their own processes between the send and the
//! receive, and an in-process shard runs its round inside the send.
//! The loop is generic over a small `ShardLane` trait (`send(seeds,
//! stop)` in global ids → `recv` → `end`, opening lazily on the first
//! send) with exactly two implementations: the in-process lane of
//! [`sharded`] (a function call) and the remote lane of [`remote`] (one
//! request frame and one response frame per round on a pooled
//! connection; the first round opens the shard's session). The shard-local
//! half of a round — global→local seed translation, one plan-engine
//! run, ghost filtering, local→global exports — is likewise one
//! function, called by the in-process lane and by the shard server's
//! `Round` handler. [`ShardedSystem`] and [`NetworkedSystem`]
//! contribute seed construction and, for `explain` only, parent
//! tracking and witness stitching (a `check` needs neither); the
//! single-graph backend needs no lanes and calls the plan engine
//! directly. Per-condition sharded reads
//! ([`ShardedSystem::evaluate_condition`]) run this driver too, so
//! they are no independent check of it: the oracles the differential
//! suites compare the driver against are [`online::evaluate_reference`]
//! and the single-graph deployment.
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
//! ## One decision layer, three backends
//!
//! Above the engines sits the paper's grant rule — *the owner is
//! always granted; otherwise some rule must have all of its conditions
//! satisfied; no rules means private* — and it is written **once**, in
//! the crate-private `decision` module: `check` (owner fast path →
//! decision cache → the rules-disjoin / conditions-conjoin loop),
//! `explain` (the same loop collecting witness walks),
//! `check_via_audiences` (the membership route of a check batch), the
//! targeted per-request loop and the ad-hoc query parse → scatter. The
//! [`Enforcer`] of the single graph, [`ShardedSystem`] and
//! [`NetworkedSystem`] each own one `DecisionCache` and pass a closure
//! that evaluates *one condition* their own way — a snapshot walk
//! (pinned only after a cache miss), the in-process targeted fixpoint,
//! the over-the-wire one under its whole-read retry — so decisions and
//! `cache_stats` accounting cannot drift between deployments. The
//! [`AccessService`] trait mirrors that split: a backend implements
//! thirteen required methods (naming, the five census-returning read
//! primitives, its default check route) and every other read is a
//! provided method defined once on the trait.
//!
//! ## Networked serving: shards as processes
//!
//! The [`remote`] module lifts the sharded backend across process
//! boundaries. Each shard runs as a [`remote::ShardServer`] — a plain
//! `std::net` acceptor (TCP or Unix domain socket) with blocking
//! worker threads — speaking a hand-rolled length-prefixed, CRC-framed
//! request/response protocol ([`remote::frame`], [`remote::proto`]):
//! `[u32 len][u32 crc][payload]`, the checksum covering length bytes
//! and payload so a damaged header can never masquerade as a valid
//! frame. The [`remote::NetworkedSystem`] router implements
//! [`AccessService`]/[`MutateService`] by driving the *same*
//! round-based masked fixpoint as [`ShardedSystem`], exchanging
//! `MaskedExportSet` batches with remote shards (bounded per-round
//! sub-batches, at most one frame in flight per shard) and stitching
//! witnesses from remote `Trace` segments. Mutations publish through a
//! two-phase **epoch fence** — `Prepare` everywhere, then `Commit`
//! everywhere; any prepare failure aborts the epoch on every shard
//! that staged it — and reads carry the expected epoch in each shard's
//! first round, so a lagging shard refuses the evaluation rather than
//! serving a torn epoch. Transport faults surface as typed
//! [`EvalError::Remote`] errors, never as a wrong decision; a
//! wire-level conformance and fault-injection tier
//! (`tests/wire_roundtrip.rs`, `tests/remote_faults.rs`,
//! `tests/remote_conformance.rs`) pins the networked deployment to its
//! in-process twins byte by byte and fault by fault.
//!
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
//! [`ReadStats::plan_states`]/[`ReadStats::expr_states`] and feeds the
//! adaptive planner's per-resource profiles. A bundle past the
//! plan's `u16` node budget is bisected into several plans and served
//! through the same code (one *path* past that budget,
//! [`PathExpr::MAX_STEPS`], is refused by both parsers with a caret
//! error); `tests/query_differential.rs` pins the
//! planned path to per-condition evaluation on all three deployments.

pub mod carminati;
mod decision;
pub mod durability;
pub mod engine;
pub mod error;
pub mod examples;
mod fixpoint;
pub mod joinengine;
pub mod lineplan;
pub mod online;
pub mod path;
pub mod planner;
pub mod policy;
pub mod query;
pub mod remote;
pub mod service;
pub mod sharded;
pub mod system;

pub use carminati::{CarminatiOutcome, CarminatiRule, TrustAggregation};
pub use durability::{
    read_history, AudienceDiff, AuditError, CompactionReport, DurabilityError, DurableService,
    HistoryEntry, RecoveryReport, TornTail, WalRecord,
};
pub use engine::{
    resource_audience, resource_audience_batch_per_condition_with_stats,
    resource_audience_batch_with_stats, AccessEngine, AudienceOutcome, CheckOutcome, Enforcer,
    EvalStats, OnlineEngine,
};
pub use error::{EvalError, ParseError};
pub use joinengine::{JoinEngineConfig, JoinIndexEngine, JoinStrategy};
pub use lineplan::{plan, LinePlan, LineQuery, PlanConfig};
pub use path::{parse_path, AttrPredicate, CmpOp, DepthSet, PathExpr, Step};
pub use planner::{
    CostEstimate, PlannedService, Planner, PlannerMode, PlannerTally, ResourceProfile,
};
pub use policy::{AccessCondition, AccessRule, Decision, PolicyStore, ResourceId};
pub use query::{parse_policy, parse_query, render_query, BundlePlan};
pub use remote::{NetworkedSystem, RemoteError, ShardAddr, ShardHandle, ShardServer};
pub use service::{
    AccessResponse, AccessService, BundleStrategy, CheckPlan, Deployment, Explanation,
    MutateService, NetworkedSpec, ReadBatch, ReadRequest, ReadStats, ServiceInstance, WalkHop,
    WitnessWalk,
};
pub use sharded::{BundleFixpointStats, ShardedEval, ShardedHop, ShardedSystem};
pub use system::{AccessControlSystem, EngineChoice};

// Re-exported so `JoinEngineConfig` can be configured without naming the
// reach crate directly.
pub use socialreach_reach::{JoinIndex, JoinIndexConfig};
