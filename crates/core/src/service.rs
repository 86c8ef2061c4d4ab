//! The deployment-agnostic serving API: one request/response
//! vocabulary over every enforcement backend.
//!
//! The paper's model is a single contract — a path-expression rule
//! evaluated as an ordered label-constraint reachability query — but
//! the repo grew two serving facades with drifting surfaces:
//! [`AccessControlSystem`] (one epoch-published graph, pluggable
//! engines) and [`ShardedSystem`] (N hash-partitioned shards with
//! cross-shard fixpoints). This module is the seam that makes the
//! backends interchangeable:
//!
//! * [`AccessService`] — the **object-safe read surface** (`check`,
//!   `check_batch`, `audience`, `audience_batch`, `explain`, …) every
//!   backend implements. Callers hold a `&dyn AccessService` and never
//!   learn which deployment answers them.
//! * [`MutateService`] — the `&mut self` write surface: one required
//!   method, [`MutateService::apply`], taking a [`Mutation`] (the same
//!   value the write-ahead log records) and returning the [`Applied`]
//!   id or a typed refusal; `add_user` / `add_relationship` /
//!   `add_resource` / `add_rule` are provided wrappers over it.
//! * [`ReadRequest`] / [`ReadBatch`] / [`AccessResponse`] — a uniform
//!   request/response vocabulary carrying decisions, audiences,
//!   structured witnesses and per-read [`ReadStats`].
//! * [`Deployment`] — the builder that constructs either backend from
//!   one config: [`Deployment::single`] wraps an [`EngineChoice`],
//!   [`Deployment::sharded`] a shard count + placement seed (or a full
//!   [`ShardAssignment`] via [`Deployment::sharded_with`]).
//! * [`ServiceInstance`] — the constructed backend, usable as both
//!   traits or narrowed with [`ServiceInstance::reads`] /
//!   [`ServiceInstance::writes`].
//!
//! The differential harnesses compare any two `&dyn AccessService`
//! implementations, so a future backend (e.g. the ROADMAP's
//! distributed-transport shards) is testable against the existing ones
//! the day it implements the trait.
//!
//! ```
//! use socialreach_core::service::{AccessService, Deployment, MutateService};
//! use socialreach_core::{Decision, EngineChoice};
//!
//! // One config line decides the deployment; nothing below changes.
//! let mut svc = Deployment::single(EngineChoice::Online).build();
//! // let mut svc = Deployment::sharded(4, 7).build();
//!
//! let alice = svc.add_user("Alice");
//! let bob = svc.add_user("Bob");
//! svc.add_relationship(alice, "friend", bob);
//! let album = svc.add_resource(alice);
//! svc.add_rule(album, "friend+[1,2]").unwrap();
//!
//! let reads = svc.reads(); // &dyn AccessService
//! assert_eq!(reads.check(album, bob).unwrap(), Decision::Grant);
//! assert_eq!(reads.audience(album).unwrap(), vec![alice, bob]);
//! ```

use crate::error::EvalError;
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::remote::{NetworkedSystem, ShardAddr};
use crate::sharded::ShardedSystem;
use crate::system::{AccessControlSystem, EngineChoice};
use serde::{Deserialize, Serialize};
use socialreach_graph::shard::ShardAssignment;
use socialreach_graph::{AttrValue, GraphError, LabelId, NodeId, SocialGraph};
use std::fmt;

// ---------------------------------------------------------------------
// Uniform read statistics
// ---------------------------------------------------------------------

/// Uniform work census of a read, comparable across deployments (zero
/// where a backend has nothing to report — the same convention as
/// [`crate::EvalStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Distinct `(owner, path)` conditions evaluated after bundle-level
    /// dedup.
    pub conditions: usize,
    /// Shared traversal passes run — one per 64-condition mask chunk
    /// of the bundle's shared-prefix plan on every deployment
    /// (multi-source mask BFS passes on a single graph, masked
    /// fixpoints on a sharded or networked one), so the column is
    /// comparable across backends; one per condition for targeted and
    /// per-condition reads.
    pub traversals: usize,
    /// Fixpoint rounds across those traversals. Equals `traversals` on
    /// a single graph (one pass is one "round"); on a sharded
    /// deployment it counts the cross-shard round-trips the read paid.
    pub rounds: usize,
    /// Product states expanded by the engines (cumulative across
    /// shards; zero for the join-index engine, which counts work in
    /// [`crate::EvalStats::line_queries`] instead).
    pub states_expanded: usize,
    /// Boundary states routed between shards (always zero on
    /// single-graph deployments — a useful sanity probe for tests).
    pub exported_states: usize,
    /// Automaton layers of the shared-prefix bundle plan
    /// ([`crate::query::BundlePlan`]) the batched read compiled — each
    /// shared prefix counted **once**. Zero when no bundle plan was
    /// compiled (targeted and per-condition reads, empty bundles).
    pub plan_states: usize,
    /// Automaton layers the same bundle occupies with one chain per
    /// condition (no sharing). `1 − plan_states / expr_states` is the
    /// bundle's shared-prefix hit rate — the telemetry
    /// [`crate::planner::PlannedService`] learns from.
    pub expr_states: usize,
}

impl ReadStats {
    /// The census of one targeted single-graph evaluation: one
    /// condition, one traversal, one pass (a pass is one "round" where
    /// there is no cross-shard fixpoint).
    pub(crate) fn one_pass(states_expanded: usize) -> ReadStats {
        ReadStats {
            conditions: 1,
            traversals: 1,
            rounds: 1,
            states_expanded,
            ..ReadStats::default()
        }
    }

    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: &ReadStats) {
        self.conditions += other.conditions;
        self.traversals += other.traversals;
        self.rounds += other.rounds;
        self.states_expanded += other.states_expanded;
        self.exported_states += other.exported_states;
        self.plan_states += other.plan_states;
        self.expr_states += other.expr_states;
    }

    /// The bundle's shared-prefix hit rate in `[0, 1]` — the fraction
    /// of per-condition automaton layers the compiled plan elided —
    /// or `None` when no plan census was recorded: the read was
    /// targeted or per-condition (every batched read compiles a plan).
    pub fn prefix_share(&self) -> Option<f64> {
        if self.expr_states == 0 {
            return None;
        }
        Some(1.0 - self.plan_states as f64 / self.expr_states as f64)
    }
}

// ---------------------------------------------------------------------
// Witnesses
// ---------------------------------------------------------------------

/// One hop of a witness walk, in deployment-global member ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkHop {
    /// Global id of the edge's source member.
    pub src: NodeId,
    /// Global id of the edge's target member.
    pub dst: NodeId,
    /// Relationship type.
    pub label: LabelId,
    /// Whether the hop traverses the edge along its orientation.
    pub forward: bool,
}

impl WalkHop {
    /// The member the hop departs from.
    pub fn from(&self) -> NodeId {
        if self.forward {
            self.src
        } else {
            self.dst
        }
    }

    /// The member the hop arrives at.
    pub fn to(&self) -> NodeId {
        if self.forward {
            self.dst
        } else {
            self.src
        }
    }
}

/// A witness walk for one satisfied access condition: real edges from
/// the condition owner to the requester, in walk order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessWalk {
    /// The condition owner the walk starts from.
    pub start: NodeId,
    /// The hops, chaining `start ⇝ requester` (empty when the
    /// requester *is* the condition owner of an empty path).
    pub hops: Vec<WalkHop>,
}

/// Why a request was granted: the structured form every backend
/// produces, renderable to the human-readable walk strings with
/// [`Explanation::render`] and replayable through the path automaton
/// by the conformance suites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Explanation {
    /// The requester owns the resource.
    Ownership {
        /// The owning member.
        owner: NodeId,
    },
    /// Some rule granted: one witness walk per condition of the first
    /// granting rule.
    Rule {
        /// The per-condition walks, in rule-condition order.
        walks: Vec<WitnessWalk>,
    },
}

impl Explanation {
    /// Renders the explanation as human-readable lines (`"Alice
    /// -friend-> Bob"` walks, or the ownership sentence), resolving
    /// names through the service that produced it.
    pub fn render<S: AccessService + ?Sized>(&self, svc: &S) -> Vec<String> {
        match self {
            Explanation::Ownership { owner } => {
                vec![format!("{} owns the resource", svc.member_name(*owner))]
            }
            Explanation::Rule { walks } => walks
                .iter()
                .map(|walk| {
                    let mut line = vec![svc.member_name(walk.start).to_owned()];
                    for hop in &walk.hops {
                        let label = svc.label_name(hop.label);
                        line.push(if hop.forward {
                            format!("-{label}->")
                        } else {
                            format!("<-{label}-")
                        });
                        line.push(svc.member_name(hop.to()).to_owned());
                    }
                    line.join(" ")
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Request / response vocabulary
// ---------------------------------------------------------------------

/// One read, in the shared deployment-agnostic vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadRequest {
    /// Decide whether `requester` may access `resource`.
    Check {
        /// The requested resource.
        resource: ResourceId,
        /// Who is asking.
        requester: NodeId,
    },
    /// Materialize the full audience of `resource`.
    Audience {
        /// The resource whose audience to materialize.
        resource: ResourceId,
    },
    /// Decide and, when granted, explain with witness walks.
    Explain {
        /// The requested resource.
        resource: ResourceId,
        /// Who is asking.
        requester: NodeId,
    },
}

/// A batch of reads evaluated together (backends answer every request
/// of one batch against a coherent snapshot state, amortizing shared
/// work — condition dedup, multi-source traversal — across the batch).
#[derive(Clone, Debug, Default)]
pub struct ReadBatch {
    /// The reads, answered in order.
    pub reads: Vec<ReadRequest>,
    /// Worker-thread hint for backends that fan a batch out per
    /// request (sharded deployments parallelize per fixpoint round
    /// across shards instead and ignore it). `0` behaves as `1`.
    pub threads: usize,
}

impl ReadBatch {
    /// An empty batch with the default thread hint.
    pub fn new() -> Self {
        ReadBatch::default()
    }

    /// Appends a check read.
    pub fn check(mut self, resource: ResourceId, requester: NodeId) -> Self {
        self.reads.push(ReadRequest::Check {
            resource,
            requester,
        });
        self
    }

    /// Appends an audience read.
    pub fn audience(mut self, resource: ResourceId) -> Self {
        self.reads.push(ReadRequest::Audience { resource });
        self
    }

    /// Appends an explain read.
    pub fn explain(mut self, resource: ResourceId, requester: NodeId) -> Self {
        self.reads.push(ReadRequest::Explain {
            resource,
            requester,
        });
        self
    }
}

/// The response to one [`ReadRequest`]: exactly the fields the request
/// kind implies are populated, plus the read's share of the batch work
/// census (shared traversal work is attributed to the first read that
/// triggered it and zero on the rest, so summing responses stays
/// truthful — the [`crate::AccessEngine`] convention).
#[derive(Clone, Debug, Default)]
pub struct AccessResponse {
    /// The decision (`Check` and `Explain` reads).
    pub decision: Option<Decision>,
    /// The materialized audience, sorted (`Audience` reads).
    pub audience: Option<Vec<NodeId>>,
    /// The structured witness walks (`Explain` reads that granted).
    pub explanation: Option<Explanation>,
    /// This read's share of the work census.
    pub stats: ReadStats,
}

// ---------------------------------------------------------------------
// Evaluation-strategy vocabulary (the planner's dispatch alphabet)
// ---------------------------------------------------------------------

/// How a bundle's deduped access conditions are traversed. Both
/// in-tree backends implement both strategies with identical
/// semantics — the choice moves latency, never correctness — which is
/// what lets [`crate::planner::PlannedService`] pick per bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BundleStrategy {
    /// The multi-source masked engine: up to 64 conditions ride one
    /// traversal (the single-graph 64-way mask BFS, or the sharded
    /// masked cross-shard fixpoint). Wins when conditions share path
    /// templates over dense regions.
    Batched,
    /// One independent traversal per deduped condition. Wins on sparse
    /// graphs and low-overlap bundles where mask bookkeeping is pure
    /// overhead.
    PerCondition,
}

/// How a batch of `check` requests is decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckPlan {
    /// Early-exit targeted evaluation, one per request: stop as soon
    /// as the requester is reached. Wins for small batches over
    /// resources with large audiences.
    Targeted,
    /// Materialize the deduped resources' audiences with the given
    /// bundle strategy and decide each request by (binary-search)
    /// membership. Wins when many requests share few resources.
    Audience(BundleStrategy),
}

// ---------------------------------------------------------------------
// The read trait
// ---------------------------------------------------------------------

/// The deployment-agnostic **read** surface of an access-control
/// serving backend. Object-safe: callers hold `&dyn AccessService`
/// and stay oblivious to whether one epoch-published graph, N
/// in-process shards or N shard processes answer them.
///
/// **Required = what a backend answers differently; provided =
/// written once.** A backend (or decorator) implements thirteen
/// methods:
///
/// * seven naming/introspection methods — [`describe`], [`num_members`],
///   [`num_relationships`], [`resolve_user`], [`member_name`],
///   [`label_name`], [`cache_stats`];
/// * five read primitives, each returning its answer *and* the real
///   work census of producing it — [`check_with_stats`],
///   [`explain_with_stats`], [`audience_batch_forced`] (bundle strategy
///   named by the caller), [`check_batch_forced`] (decision route named
///   by the caller), [`query_audience_bundle`];
/// * one policy answer — [`default_check_plan`], the route an
///   unplanned check batch of a given size takes.
///
/// Every other read — [`check`], [`check_batch`],
/// [`check_batch_with_stats`], [`explain`], [`explain_lines`],
/// [`audience`], [`audience_batch`], [`audience_batch_with_stats`],
/// [`query_audience`], [`read_batch`] — is a provided method defined
/// here, once, in terms of those primitives, so it cannot drift between
/// deployments. Decorators forward the required methods and override a
/// provided one only where they *choose* a policy
/// ([`crate::PlannedService`] picks the strategy of
/// `audience_batch_with_stats` and the route of
/// `check_batch_with_stats`).
///
/// The in-tree backends decide through one shared decision layer (the
/// crate-private `decision` module): the grant rule below is written
/// once and each backend contributes only how it evaluates a single
/// condition.
///
/// [`describe`]: AccessService::describe
/// [`num_members`]: AccessService::num_members
/// [`num_relationships`]: AccessService::num_relationships
/// [`resolve_user`]: AccessService::resolve_user
/// [`member_name`]: AccessService::member_name
/// [`label_name`]: AccessService::label_name
/// [`cache_stats`]: AccessService::cache_stats
/// [`check_with_stats`]: AccessService::check_with_stats
/// [`explain_with_stats`]: AccessService::explain_with_stats
/// [`audience_batch_forced`]: AccessService::audience_batch_forced
/// [`check_batch_forced`]: AccessService::check_batch_forced
/// [`query_audience_bundle`]: AccessService::query_audience_bundle
/// [`default_check_plan`]: AccessService::default_check_plan
/// [`check`]: AccessService::check
/// [`check_batch`]: AccessService::check_batch
/// [`check_batch_with_stats`]: AccessService::check_batch_with_stats
/// [`explain`]: AccessService::explain
/// [`explain_lines`]: AccessService::explain_lines
/// [`audience`]: AccessService::audience
/// [`audience_batch`]: AccessService::audience_batch
/// [`audience_batch_with_stats`]: AccessService::audience_batch_with_stats
/// [`query_audience`]: AccessService::query_audience
/// [`read_batch`]: AccessService::read_batch
pub trait AccessService: Send + Sync {
    // -- required: naming and introspection ---------------------------

    /// Deployment label for logs and benchmark tables
    /// (e.g. `"single(online-bfs)"`, `"sharded(n=4)"`).
    fn describe(&self) -> String;

    /// Number of registered members.
    fn num_members(&self) -> usize;

    /// Number of relationships (each boundary edge counted once on
    /// sharded deployments).
    fn num_relationships(&self) -> usize;

    /// Looks a member up by display name (first registered wins).
    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError>;

    /// Display name of a member.
    fn member_name(&self, member: NodeId) -> &str;

    /// Display name of a relationship type.
    fn label_name(&self, label: LabelId) -> &str;

    /// Decision-cache statistics `(hits, misses)`: owner requests
    /// count as neither, a request answered from the cache is a hit, a
    /// request that had to be evaluated is a miss — on every route of
    /// every backend (a duplicate of an uncached request within one
    /// batch is one miss, then one hit).
    fn cache_stats(&self) -> (u64, u64);

    // -- required: the read primitives --------------------------------

    /// Decides whether `requester` may access `resource` (owner always
    /// granted; rules disjoin; conditions within a rule conjoin; no
    /// rules ⇒ private), plus the read's work census. Decision-cache
    /// hits and the owner fast path legitimately report an all-zero
    /// census — no traversal ran.
    fn check_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError>;

    /// Explains a grant with structured witness walks, or `None` when
    /// access is denied, plus the read's work census. Render with
    /// [`Explanation::render`] or [`AccessService::explain_lines`];
    /// replay through the path automaton in conformance tests.
    fn explain_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError>;

    /// Audiences of a whole bundle of resources in `rids` order, with
    /// the bundle's deduped conditions traversed by the **named**
    /// strategy, plus the bundle's uniform work census. This is the
    /// primitive every audience read builds on. Both strategies return
    /// identical audiences on every backend — the choice moves
    /// latency, never correctness.
    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError>;

    /// Decides a batch of requests over one coherent snapshot state
    /// along the **named** route; decisions come back in request order
    /// with the batch's cumulative census. `threads` is the worker
    /// hint of [`ReadBatch::threads`]. Every route returns identical
    /// decisions and moves [`AccessService::cache_stats`] identically.
    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError>;

    /// Materializes the audiences of a bundle of **ad-hoc queries**,
    /// in request order: each `(owner, text)` pair is parsed with
    /// [`crate::query::parse_policy`] (openCypher-flavored `MATCH`
    /// syntax or classic path syntax) and evaluated as a raw access
    /// condition anchored at `owner` — the sorted members some
    /// matching walk reaches. No resource or rule is registered;
    /// parsing is read-only against the deployment's vocabulary, and a
    /// query mentioning a relationship type or attribute the graph has
    /// never seen has an empty audience. Backends share traversal
    /// across the bundle exactly as registered-rule bundles do.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError>;

    // -- required: the one policy answer ------------------------------

    /// The route an unplanned [`AccessService::check_batch`] of `len`
    /// requests takes on this backend (a single graph walks targeted;
    /// a partitioned one materializes batched audiences once a batch
    /// holds more than one request). [`crate::PlannedService`] serves
    /// it verbatim on cold start.
    fn default_check_plan(&self, len: usize) -> CheckPlan;

    // -- provided: written once ---------------------------------------

    /// [`AccessService::check_with_stats`] without the census.
    fn check(&self, resource: ResourceId, requester: NodeId) -> Result<Decision, EvalError> {
        Ok(self.check_with_stats(resource, requester)?.0)
    }

    /// [`AccessService::check_batch_with_stats`] without the census.
    fn check_batch(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<Vec<Decision>, EvalError> {
        Ok(self.check_batch_with_stats(requests, threads)?.0)
    }

    /// Decides a batch along the backend's default route:
    /// [`AccessService::check_batch_forced`] under
    /// [`AccessService::default_check_plan`].
    fn check_batch_with_stats(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        let plan = self.default_check_plan(requests.len());
        self.check_batch_forced(requests, threads, plan)
    }

    /// [`AccessService::explain_with_stats`] without the census.
    fn explain(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<Option<Explanation>, EvalError> {
        Ok(self.explain_with_stats(resource, requester)?.0)
    }

    /// [`AccessService::explain`], rendered to the human-readable walk
    /// lines the CLI and examples print.
    fn explain_lines(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<Option<Vec<String>>, EvalError> {
        Ok(self.explain(resource, requester)?.map(|e| e.render(self)))
    }

    /// The full audience of one resource (global member ids, sorted).
    fn audience(&self, resource: ResourceId) -> Result<Vec<NodeId>, EvalError> {
        Ok(self
            .audience_batch(std::slice::from_ref(&resource))?
            .pop()
            .expect("one audience per requested resource"))
    }

    /// Audiences of a whole bundle of resources, in `rids` order.
    fn audience_batch(&self, rids: &[ResourceId]) -> Result<Vec<Vec<NodeId>>, EvalError> {
        Ok(self.audience_batch_with_stats(rids)?.0)
    }

    /// Audiences of a bundle plus its census under the default bundle
    /// strategy: [`AccessService::audience_batch_forced`] with
    /// [`BundleStrategy::Batched`].
    fn audience_batch_with_stats(
        &self,
        rids: &[ResourceId],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        self.audience_batch_forced(rids, BundleStrategy::Batched)
    }

    /// [`AccessService::query_audience_bundle`] for one query.
    fn query_audience(&self, owner: NodeId, text: &str) -> Result<Vec<NodeId>, EvalError> {
        Ok(self
            .query_audience_bundle(&[(owner, text)])?
            .pop()
            .expect("one audience per query"))
    }

    /// Evaluates a heterogeneous batch of reads, responses in request
    /// order. Check reads of the batch are decided together through
    /// [`AccessService::check_batch_with_stats`] (whose census is
    /// attributed to the first check read); audience reads together
    /// through [`AccessService::audience_batch_with_stats`] (census on
    /// the first audience read); explains run targeted, each carrying
    /// its own census.
    fn read_batch(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError> {
        let mut responses: Vec<AccessResponse> = (0..batch.reads.len())
            .map(|_| AccessResponse::default())
            .collect();
        let mut checks: Vec<(usize, (ResourceId, NodeId))> = Vec::new();
        let mut audiences: Vec<(usize, ResourceId)> = Vec::new();
        for (i, read) in batch.reads.iter().enumerate() {
            match *read {
                ReadRequest::Check {
                    resource,
                    requester,
                } => checks.push((i, (resource, requester))),
                ReadRequest::Audience { resource } => audiences.push((i, resource)),
                ReadRequest::Explain {
                    resource,
                    requester,
                } => {
                    let (explanation, stats) = self.explain_with_stats(resource, requester)?;
                    responses[i].decision = Some(if explanation.is_some() {
                        Decision::Grant
                    } else {
                        Decision::Deny
                    });
                    responses[i].explanation = explanation;
                    responses[i].stats = stats;
                }
            }
        }
        if !checks.is_empty() {
            let requests: Vec<(ResourceId, NodeId)> = checks.iter().map(|&(_, r)| r).collect();
            let (decisions, stats) =
                self.check_batch_with_stats(&requests, batch.threads.max(1))?;
            for (k, (&(i, _), d)) in checks.iter().zip(decisions).enumerate() {
                responses[i].decision = Some(d);
                if k == 0 {
                    responses[i].stats = stats;
                }
            }
        }
        if !audiences.is_empty() {
            let rids: Vec<ResourceId> = audiences.iter().map(|&(_, r)| r).collect();
            let (results, stats) = self.audience_batch_with_stats(&rids)?;
            for (k, (&(i, _), audience)) in audiences.iter().zip(results).enumerate() {
                responses[i].audience = Some(audience);
                if k == 0 {
                    responses[i].stats = stats;
                }
            }
        }
        Ok(responses)
    }
}

// ---------------------------------------------------------------------
// The write trait
// ---------------------------------------------------------------------

/// One write, in the one vocabulary every backend applies, the
/// write-ahead log records and recovery replays. Ids are carried (not
/// re-derived), so a replayed log can be cross-checked against each
/// backend's sequential id assignment. The serde form is the WAL's
/// on-disk record format.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Register a member ([`MutateService::add_user`]).
    AddUser {
        /// Display name.
        name: String,
    },
    /// Set a member attribute ([`MutateService::set_user_attr`]).
    SetUserAttr {
        /// The member.
        user: NodeId,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: AttrValue,
    },
    /// Add a directed relationship
    /// ([`MutateService::add_relationship`]).
    AddRelationship {
        /// Source member.
        src: NodeId,
        /// Relationship type name.
        label: String,
        /// Target member.
        dst: NodeId,
    },
    /// Register a resource ([`MutateService::add_resource`]).
    AddResource {
        /// The owner.
        owner: NodeId,
    },
    /// Attach a rule ([`MutateService::add_rule`]); the text re-parses
    /// on replay.
    AddRule {
        /// The resource.
        resource: ResourceId,
        /// The path-expression text.
        path: String,
    },
}

impl Mutation {
    /// The checks every backend runs before it changes anything: a
    /// member outside `0..members` is [`GraphError::UnknownNode`], and
    /// a NaN or infinite float attribute — which neither the log nor
    /// the wire can carry — is [`EvalError::NonFiniteAttr`].
    pub(crate) fn validate(&self, members: usize) -> Result<(), EvalError> {
        let named = match self {
            Mutation::SetUserAttr { user, key, value } => {
                if matches!(value, AttrValue::Float(x) if !x.is_finite()) {
                    return Err(EvalError::NonFiniteAttr { key: key.clone() });
                }
                [Some(*user), None]
            }
            Mutation::AddRelationship { src, dst, .. } => [Some(*src), Some(*dst)],
            Mutation::AddResource { owner } => [Some(*owner), None],
            Mutation::AddUser { .. } | Mutation::AddRule { .. } => [None, None],
        };
        match named.into_iter().flatten().find(|m| m.index() >= members) {
            Some(unknown) => Err(GraphError::UnknownNode(unknown).into()),
            None => Ok(()),
        }
    }

    /// Applies the mutation to a graph and its policy store — the one
    /// function that does, for the single-graph backend, the durable
    /// layer's canonical mirror and recovery alike. The mutation is
    /// validated first, so on `Err` the graph and store are unchanged
    /// (a rule whose text fails to parse may leave newly interned
    /// vocabulary behind, which no read observes).
    pub fn apply_to(
        &self,
        graph: &mut SocialGraph,
        store: &mut PolicyStore,
    ) -> Result<Applied, EvalError> {
        self.validate(graph.num_nodes())?;
        Ok(match self {
            Mutation::AddUser { name } => Applied::Member(graph.add_node(name)),
            Mutation::SetUserAttr { user, key, value } => {
                graph.set_node_attr(*user, key, value.clone());
                Applied::Done
            }
            Mutation::AddRelationship { src, label, dst } => {
                graph.connect(*src, label, *dst);
                Applied::Done
            }
            Mutation::AddResource { owner } => Applied::Resource(store.register_resource(*owner)),
            Mutation::AddRule { resource, path } => {
                store.allow(*resource, path, graph)?;
                Applied::Done
            }
        })
    }
}

impl fmt::Display for Mutation {
    /// Human-readable one-liner for audit surfaces (`history` in the
    /// CLI, the audit-trail example).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::AddUser { name } => write!(f, "add-user {name:?}"),
            Mutation::SetUserAttr { user, key, value } => {
                write!(f, "set-attr member={user} {key}={value:?}")
            }
            Mutation::AddRelationship { src, label, dst } => {
                write!(f, "add-relationship {src} -{label}-> {dst}")
            }
            Mutation::AddResource { owner } => write!(f, "add-resource owner={owner}"),
            Mutation::AddRule { resource, path } => {
                write!(f, "add-rule resource={} {path:?}", resource.0)
            }
        }
    }
}

/// What an applied [`Mutation`] assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// [`Mutation::AddUser`]: the new member's id.
    Member(NodeId),
    /// [`Mutation::AddResource`]: the new resource's id.
    Resource(ResourceId),
    /// Every other mutation assigns nothing.
    Done,
}

/// The deployment-agnostic **write** surface: every mutation takes
/// `&mut self`, guaranteeing exclusivity against the lock-free `&self`
/// readers of [`AccessService`]. Backends only *stale* derived state
/// on mutation and republish incrementally on the next read.
///
/// A backend (or decorator) implements one method, [`apply`]: each
/// backend's write logic lives there and nowhere else. The named
/// writes ([`add_user`], [`add_relationship`], …) are provided
/// wrappers that build the [`Mutation`] and apply it.
///
/// [`apply`]: MutateService::apply
/// [`add_user`]: MutateService::add_user
/// [`add_relationship`]: MutateService::add_relationship
pub trait MutateService {
    /// Applies one mutation and reports the id it assigned. A refusal
    /// is a typed error, never a panic: a member id the deployment
    /// never registered is [`EvalError::Graph`]
    /// ([`GraphError::UnknownNode`]), a non-finite float attribute is
    /// [`EvalError::NonFiniteAttr`], an unknown resource or an
    /// unparsable rule is refused as [`MutateService::add_rule`]
    /// documents, and a networked fleet that could not commit the
    /// write is [`EvalError::Remote`]. On `Err` the deployment is
    /// unchanged.
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError>;

    /// Registers a member.
    ///
    /// # Panics
    /// When [`MutateService::apply`] refuses the write (a networked
    /// fleet's transport failure); call `apply` for the typed error.
    fn add_user(&mut self, name: &str) -> NodeId {
        let name = name.to_owned();
        match applied(self, Mutation::AddUser { name }) {
            Applied::Member(id) => id,
            other => unreachable!("AddUser applied as {other:?}"),
        }
    }

    /// Sets a member attribute (path predicates read these).
    ///
    /// # Panics
    /// When [`MutateService::apply`] refuses the write (an unknown
    /// member, a non-finite float, a networked fleet's transport
    /// failure); call `apply` for the typed error.
    fn set_user_attr(&mut self, user: NodeId, key: &str, value: AttrValue) {
        let key = key.to_owned();
        applied(self, Mutation::SetUserAttr { user, key, value });
    }

    /// Adds a directed relationship.
    ///
    /// # Panics
    /// When [`MutateService::apply`] refuses the write (an unknown
    /// member, a networked fleet's transport failure); call `apply`
    /// for the typed error.
    fn add_relationship(&mut self, src: NodeId, label: &str, dst: NodeId) {
        let label = label.to_owned();
        applied(self, Mutation::AddRelationship { src, label, dst });
    }

    /// Adds a mutual relationship (both directions), as platforms model
    /// symmetric friendship: two [`Mutation::AddRelationship`] writes.
    ///
    /// # Panics
    /// As [`MutateService::add_relationship`].
    fn add_mutual_relationship(&mut self, a: NodeId, label: &str, b: NodeId) {
        self.add_relationship(a, label, b);
        self.add_relationship(b, label, a);
    }

    /// Registers a resource owned by `owner`. New resources are
    /// private until a rule is attached.
    ///
    /// # Panics
    /// When [`MutateService::apply`] refuses the write (an unknown
    /// owner); call `apply` for the typed error.
    fn add_resource(&mut self, owner: NodeId) -> ResourceId {
        match applied(self, Mutation::AddResource { owner }) {
            Applied::Resource(id) => id,
            other => unreachable!("AddResource applied as {other:?}"),
        }
    }

    /// Attaches a rule granting access along `path_text`
    /// (e.g. `"friend+[1,2]/colleague+[1]"`); repeated rules disjoin.
    ///
    /// # Errors
    /// Every refusal of [`MutateService::apply`]: an unregistered
    /// resource ([`EvalError::UnknownResource`]), a path that fails to
    /// parse ([`EvalError::Parse`]), a networked fleet's failure.
    fn add_rule(&mut self, resource: ResourceId, path_text: &str) -> Result<(), EvalError> {
        let path = path_text.to_owned();
        self.apply(&Mutation::AddRule { resource, path })
            .map(|_| ())
    }
}

/// Applies `m` for an infallible provided wrapper, panicking on a
/// refusal (the `# Panics` contract of those wrappers).
fn applied<S: MutateService + ?Sized>(svc: &mut S, m: Mutation) -> Applied {
    svc.apply(&m)
        .unwrap_or_else(|e| panic!("write `{m}` refused: {e}"))
}

// ---------------------------------------------------------------------
// Deployment builder
// ---------------------------------------------------------------------

/// One config describing *which* backend serves: the deployment is the
/// only place the backend choice appears; everything downstream holds
/// trait objects.
///
/// Three constructions cover every serving shape:
///
/// * [`Deployment::build`] — an empty in-memory backend;
/// * [`Deployment::from_graph`] — a backend over an existing graph and
///   policy store (ids preserved);
/// * [`Deployment::durable`] (in [`crate::durability`]) — a persistent
///   backend in a data directory: every mutation is write-ahead
///   logged, [`crate::DurableService::snapshot`] checkpoints, and
///   reopening the same directory recovers newest-valid-snapshot +
///   WAL-suffix-replay. Either backend can sit behind it — durability
///   wraps the deployment, not a particular engine.
///
/// A durable directory also answers **point-in-time audit reads**:
/// [`Deployment::durable_at`] recovers the state as of any logged
/// position into a throwaway backend of this shape,
/// [`Deployment::audience_diff`] compares a resource's audience
/// between two positions, and [`crate::read_history`] enumerates the
/// records themselves — see [`crate::durability`].
#[derive(Clone, Debug)]
pub enum Deployment {
    /// One epoch-published graph behind the chosen evaluation engine.
    Single(EngineChoice),
    /// Members hash-partitioned across shards under the placement.
    Sharded(ShardAssignment),
    /// Shards as **processes**: the same hash placement, but each
    /// shard is a [`crate::remote::ShardServer`] reached over the
    /// CRC-framed wire protocol. The fleet must already be listening
    /// on the spec's endpoints when the deployment is built.
    Networked(NetworkedSpec),
}

/// Endpoints + placement seed of a networked deployment
/// ([`Deployment::Networked`]); one endpoint per shard, shard index =
/// position in `addrs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkedSpec {
    /// One listening endpoint per shard.
    pub addrs: Vec<ShardAddr>,
    /// Seed of the hashed placement (must match any in-process twin
    /// the deployment is compared against).
    pub seed: u64,
}

impl Deployment {
    /// A single-graph deployment with an explicit engine choice.
    pub fn single(choice: EngineChoice) -> Self {
        Deployment::Single(choice)
    }

    /// A single-graph deployment evaluating online (good default for
    /// evolving graphs).
    pub fn online() -> Self {
        Deployment::Single(EngineChoice::Online)
    }

    /// A sharded deployment of `shards` hash-partitioned shards
    /// (placement seeded by `seed`).
    pub fn sharded(shards: u32, seed: u64) -> Self {
        Deployment::Sharded(ShardAssignment::hashed(shards, seed))
    }

    /// A sharded deployment with an explicit placement function.
    pub fn sharded_with(assignment: ShardAssignment) -> Self {
        Deployment::Sharded(assignment)
    }

    /// A networked deployment over an already-listening shard fleet
    /// (placement seed 0). Spawn a local fleet with
    /// [`crate::remote::spawn_local_fleet`], or point this at
    /// `socialreach serve-shard` processes.
    pub fn networked(addrs: Vec<ShardAddr>) -> Self {
        Self::networked_with(addrs, 0)
    }

    /// [`Deployment::networked`] with an explicit placement seed.
    pub fn networked_with(addrs: Vec<ShardAddr>, seed: u64) -> Self {
        Deployment::Networked(NetworkedSpec { addrs, seed })
    }

    /// Deployment label for logs and benchmark tables.
    pub fn describe(&self) -> String {
        match self {
            Deployment::Single(choice) => format!("single({choice:?})"),
            Deployment::Sharded(a) => format!("sharded(n={})", a.shards()),
            Deployment::Networked(spec) => format!("networked(n={})", spec.addrs.len()),
        }
    }

    /// Constructs an empty backend for this deployment.
    pub fn build(&self) -> ServiceInstance {
        match self {
            Deployment::Single(choice) => {
                ServiceInstance::Single(AccessControlSystem::new(*choice))
            }
            Deployment::Sharded(a) => {
                ServiceInstance::Sharded(ShardedSystem::with_assignment(a.clone()))
            }
            Deployment::Networked(spec) => ServiceInstance::Networked(
                NetworkedSystem::connect(&spec.addrs, spec.seed)
                    .expect("networked deployment: shard fleet unreachable"),
            ),
        }
    }

    /// Constructs a backend serving an existing graph under an
    /// existing policy store (ids preserved — a store built against
    /// `g` is adopted verbatim). This is the one-liner the benches and
    /// differential harnesses use to stand any backend up over a
    /// shared workload.
    pub fn from_graph(&self, g: &SocialGraph, store: PolicyStore) -> ServiceInstance {
        match self {
            Deployment::Single(choice) => {
                let mut sys = AccessControlSystem::from_graph(g, *choice);
                sys.adopt_store(store);
                ServiceInstance::Single(sys)
            }
            Deployment::Sharded(a) => {
                let mut sys = ShardedSystem::from_graph(g, a.clone());
                sys.adopt_store(store);
                ServiceInstance::Sharded(sys)
            }
            Deployment::Networked(spec) => ServiceInstance::Networked(
                NetworkedSystem::from_graph(
                    &spec.addrs,
                    ShardAssignment::hashed(spec.addrs.len() as u32, spec.seed),
                    g,
                    store,
                )
                .expect("networked deployment: shard fleet unreachable"),
            ),
        }
    }
}

/// A constructed serving backend. Use it directly (it implements both
/// traits), or narrow to the read/write halves with
/// [`ServiceInstance::reads`] / [`ServiceInstance::writes`].
pub enum ServiceInstance {
    /// One epoch-published graph ([`AccessControlSystem`]).
    Single(AccessControlSystem),
    /// Hash-partitioned shards ([`ShardedSystem`]).
    Sharded(ShardedSystem),
    /// Remote shard processes behind a router ([`NetworkedSystem`]).
    Networked(NetworkedSystem),
}

impl ServiceInstance {
    /// This backend as a deployment-agnostic read service.
    pub fn reads(&self) -> &dyn AccessService {
        match self {
            ServiceInstance::Single(s) => s,
            ServiceInstance::Sharded(s) => s,
            ServiceInstance::Networked(s) => s,
        }
    }

    /// This backend as a deployment-agnostic write service.
    pub fn writes(&mut self) -> &mut dyn MutateService {
        match self {
            ServiceInstance::Single(s) => s,
            ServiceInstance::Sharded(s) => s,
            ServiceInstance::Networked(s) => s,
        }
    }

    /// The wrapped single-graph system, if this deployment is one.
    pub fn as_single(&self) -> Option<&AccessControlSystem> {
        match self {
            ServiceInstance::Single(s) => Some(s),
            _ => None,
        }
    }

    /// The wrapped sharded system, if this deployment is one.
    pub fn as_sharded(&self) -> Option<&ShardedSystem> {
        match self {
            ServiceInstance::Sharded(s) => Some(s),
            _ => None,
        }
    }

    /// The wrapped networked router, if this deployment is one.
    pub fn as_networked(&self) -> Option<&NetworkedSystem> {
        match self {
            ServiceInstance::Networked(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to the wrapped networked router (retargeting a
    /// restarted shard takes `&self`; shrinking the read timeout takes
    /// `&mut self`).
    pub fn as_networked_mut(&mut self) -> Option<&mut NetworkedSystem> {
        match self {
            ServiceInstance::Networked(s) => Some(s),
            _ => None,
        }
    }
}

/// Forwards the required methods to the wrapped backend; the provided
/// reads then run against it unchanged.
impl AccessService for ServiceInstance {
    fn describe(&self) -> String {
        self.reads().describe()
    }

    fn num_members(&self) -> usize {
        self.reads().num_members()
    }

    fn num_relationships(&self) -> usize {
        self.reads().num_relationships()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.reads().resolve_user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        self.reads().member_name(member)
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.reads().label_name(label)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.reads().cache_stats()
    }

    fn check_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        self.reads().check_with_stats(resource, requester)
    }

    fn explain_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        self.reads().explain_with_stats(resource, requester)
    }

    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        self.reads().audience_batch_forced(rids, strategy)
    }

    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        self.reads().check_batch_forced(requests, threads, plan)
    }

    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        self.reads().query_audience_bundle(queries)
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        self.reads().default_check_plan(len)
    }
}

impl MutateService for ServiceInstance {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        self.writes().apply(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populate(svc: &mut dyn MutateService) -> (Vec<NodeId>, ResourceId) {
        let alice = svc.add_user("Alice");
        let bob = svc.add_user("Bob");
        let carol = svc.add_user("Carol");
        let dave = svc.add_user("Dave");
        svc.add_relationship(alice, "friend", bob);
        svc.add_relationship(bob, "friend", carol);
        svc.add_relationship(carol, "colleague", dave);
        let rid = svc.add_resource(alice);
        svc.add_rule(rid, "friend+[1,2]").unwrap();
        (vec![alice, bob, carol, dave], rid)
    }

    #[test]
    fn both_deployments_serve_the_same_script() {
        for deployment in [
            Deployment::online(),
            Deployment::single(EngineChoice::JoinIndex(
                crate::joinengine::JoinEngineConfig::default(),
            )),
            Deployment::sharded(3, 7),
        ] {
            let mut svc = deployment.build();
            let (members, rid) = populate(svc.writes());
            let reads = svc.reads();
            assert_eq!(reads.num_members(), 4, "{}", deployment.describe());
            assert_eq!(reads.num_relationships(), 3);
            assert_eq!(reads.resolve_user("Carol").unwrap(), members[2]);
            assert_eq!(reads.check(rid, members[1]).unwrap(), Decision::Grant);
            assert_eq!(reads.check(rid, members[3]).unwrap(), Decision::Deny);
            assert_eq!(
                reads.audience(rid).unwrap(),
                vec![members[0], members[1], members[2]],
                "{}",
                deployment.describe()
            );
        }
    }

    #[test]
    fn read_batch_mixes_request_kinds() {
        let mut svc = Deployment::sharded(2, 5).build();
        let (members, rid) = populate(svc.writes());
        let batch = ReadBatch::new()
            .check(rid, members[2])
            .audience(rid)
            .explain(rid, members[1])
            .check(rid, members[3]);
        let responses = svc.reads().read_batch(&batch).unwrap();
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].decision, Some(Decision::Grant));
        assert_eq!(
            responses[1].audience.as_deref(),
            Some(&[members[0], members[1], members[2]][..])
        );
        assert!(responses[1].stats.conditions > 0, "census attributed");
        assert_eq!(responses[2].decision, Some(Decision::Grant));
        let lines = responses[2]
            .explanation
            .as_ref()
            .expect("granted explain carries walks")
            .render(svc.reads());
        assert_eq!(lines, vec!["Alice -friend-> Bob".to_owned()]);
        assert_eq!(responses[3].decision, Some(Decision::Deny));
    }

    #[test]
    fn explanation_rendering_matches_the_legacy_strings() {
        let mut svc = Deployment::online().build();
        let (members, rid) = populate(svc.writes());
        let reads = svc.reads();
        assert_eq!(
            reads.explain_lines(rid, members[0]).unwrap().unwrap(),
            vec!["Alice owns the resource".to_owned()]
        );
        assert_eq!(
            reads.explain_lines(rid, members[2]).unwrap().unwrap(),
            vec!["Alice -friend-> Bob -friend-> Carol".to_owned()]
        );
        assert_eq!(reads.explain_lines(rid, members[3]).unwrap(), None);
    }

    #[test]
    fn query_audience_is_deployment_agnostic() {
        for deployment in [Deployment::online(), Deployment::sharded(3, 7)] {
            let mut svc = deployment.build();
            let (members, _) = populate(svc.writes());
            let reads = svc.reads();
            let a = reads
                .query_audience(members[0], "MATCH (owner)-[:friend*1..2]->(v)")
                .unwrap();
            assert_eq!(a, vec![members[1], members[2]], "{}", deployment.describe());
            assert_eq!(
                a,
                reads.query_audience(members[0], "friend+[1,2]").unwrap(),
                "both syntaxes answer alike"
            );
            assert!(
                reads
                    .query_audience(members[0], "MATCH (o)-[:stranger]->(v)")
                    .unwrap()
                    .is_empty(),
                "unknown relationship type has an empty audience"
            );
            let bundled = reads
                .query_audience_bundle(&[
                    (members[0], "friend+[1]"),
                    (members[1], "MATCH (o)-[:friend]->(v)-[:colleague]->(w)"),
                    (members[2], "MATCH (o)"),
                ])
                .unwrap();
            assert_eq!(bundled[0], vec![members[1]]);
            assert_eq!(bundled[1], vec![members[3]]);
            assert_eq!(bundled[2], vec![members[2]], "empty path yields the owner");
        }
    }

    #[test]
    fn deployment_describe_names_the_backend() {
        assert!(Deployment::online().describe().starts_with("single("));
        assert_eq!(Deployment::sharded(4, 0).describe(), "sharded(n=4)");
    }
}
