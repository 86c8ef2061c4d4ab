//! The deployment-agnostic serving API: one request/response
//! vocabulary over every enforcement backend.
//!
//! The paper's model is a single contract — a path-expression rule
//! evaluated as an ordered label-constraint reachability query — but
//! the repo grew two serving facades with drifting surfaces:
//! [`AccessControlSystem`] (one epoch-published graph, evaluated
//! online) and [`ShardedSystem`] (N hash-partitioned shards with
//! cross-shard fixpoints). This module is the seam that makes the
//! backends interchangeable:
//!
//! * [`AccessService`] — the **object-safe read surface**: one required
//!   read, [`AccessService::read`], taking a [`ReadBatch`] and returning
//!   one [`AccessResponse`] per read; `check` / `audience` / `explain` /
//!   `query_audience` and their batched and forced forms are provided
//!   wrappers over it. Callers hold a `&dyn AccessService` and never
//!   learn which deployment answers them.
//! * [`MutateService`] — the `&mut self` write surface: one required
//!   method, [`MutateService::apply`], taking a [`Mutation`] (the same
//!   value the write-ahead log records) and returning the [`Applied`]
//!   id or a typed refusal; `add_user` / `add_relationship` /
//!   `add_resource` / `add_rule` are provided wrappers over it.
//! * [`ReadRequest`] / [`ReadBatch`] / [`AccessResponse`] — a uniform
//!   request/response vocabulary carrying decisions, audiences,
//!   structured witnesses and per-read [`ReadStats`]; a batch may force
//!   its checks' route ([`CheckPlan`]) and its bundles' traversal
//!   ([`BundleStrategy`]).
//! * [`Deployment`] — the builder that constructs any backend from
//!   one config: [`Deployment::online`] is the single graph,
//!   [`Deployment::sharded`] a shard count + placement seed (or a full
//!   [`ShardAssignment`] via [`Deployment::sharded_with`]), and
//!   [`Deployment::networked`] a fleet of shard processes.
//! * [`ServiceInstance`] — the constructed backend, usable as both
//!   traits or narrowed with [`ServiceInstance::reads`] /
//!   [`ServiceInstance::writes`].
//!
//! The differential harnesses compare any two `&dyn AccessService`
//! implementations, so a new backend is testable the day it implements
//! [`AccessService::read`].
//!
//! ```
//! use socialreach_core::service::{AccessService, Deployment, MutateService};
//! use socialreach_core::Decision;
//!
//! // One config line decides the deployment; nothing below changes.
//! let mut svc = Deployment::online().build();
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
use crate::system::AccessControlSystem;
use serde::{Deserialize, Serialize};
use socialreach_graph::shard::ShardAssignment;
use socialreach_graph::{AttrValue, GraphError, LabelId, NodeId, SocialGraph};
use std::borrow::Cow;
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
    /// shards).
    pub states_expanded: usize,
    /// Masked boundary exports forwarded between shards, as received
    /// (always zero on single-graph deployments — a useful sanity
    /// probe for tests).
    pub exported_states: usize,
    /// Automaton layers of the shared-prefix bundle plan
    /// ([`crate::query::BundlePlan`]) the batched read compiled — each
    /// shared prefix counted **once**. Zero when no bundle plan was
    /// compiled (targeted and per-condition reads, empty bundles).
    pub plan_states: usize,
    /// Automaton layers the same bundle occupies with one chain per
    /// condition (no sharing). `1 − plan_states / expr_states` is the
    /// bundle's shared-prefix hit rate ([`ReadStats::prefix_share`]).
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Materialize the audience of an **ad-hoc query**: `text`, in
    /// either syntax of [`crate::query::parse_policy`], evaluated as a
    /// raw access condition anchored at `owner`. No resource or rule is
    /// registered; parsing is read-only, and a query naming vocabulary
    /// the graph has never seen has an empty audience.
    Query {
        /// The member the query's walks start from.
        owner: NodeId,
        /// The query text.
        text: String,
    },
}

impl ReadRequest {
    /// The resource a check, audience or explain read names.
    pub(crate) fn resource(&self) -> ResourceId {
        match *self {
            ReadRequest::Check { resource, .. }
            | ReadRequest::Audience { resource }
            | ReadRequest::Explain { resource, .. } => resource,
            ReadRequest::Query { .. } => unreachable!("a query names no resource"),
        }
    }

    /// The `(resource, requester)` of a check or explain read.
    pub(crate) fn request(&self) -> (ResourceId, NodeId) {
        match *self {
            ReadRequest::Check {
                resource,
                requester,
            }
            | ReadRequest::Explain {
                resource,
                requester,
            } => (resource, requester),
            _ => unreachable!("only checks and explains name a requester"),
        }
    }
}

/// A batch of reads evaluated together (backends answer every request
/// of one batch against a coherent snapshot state, amortizing shared
/// work — condition dedup, multi-source traversal — across the batch):
/// its checks along one route, its audiences and its queries as one
/// bundle each, its explains one by one. An unset forced field leaves
/// the choice to the deployment (a [`crate::PlannedService`] asks its
/// planner); every choice returns the same answers.
#[derive(Clone, Debug, Default)]
pub struct ReadBatch {
    /// The reads, answered in order.
    pub reads: Vec<ReadRequest>,
    /// Worker-thread hint for backends that fan a batch out per
    /// request (sharded deployments parallelize per fixpoint round
    /// across shards instead and ignore it). `0` behaves as `1`.
    pub threads: usize,
    /// The route of the batch's checks. Unset:
    /// [`AccessService::default_check_plan`] of their number.
    pub plan: Option<CheckPlan>,
    /// The traversal strategy of the batch's audience and query
    /// bundles. Unset: [`BundleStrategy::Batched`].
    pub strategy: Option<BundleStrategy>,
}

impl ReadBatch {
    /// An empty batch with the default thread hint and no forced field.
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

    /// Appends an ad-hoc query read.
    pub fn query(mut self, owner: NodeId, text: &str) -> Self {
        let text = text.to_owned();
        self.reads.push(ReadRequest::Query { owner, text });
        self
    }

    /// Forces the route of the batch's checks.
    pub fn with_plan(mut self, plan: CheckPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Forces the strategy of the batch's audience and query bundles.
    pub fn with_strategy(mut self, strategy: BundleStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Answers the batch one read kind at a time: `read_kind` gets a
    /// batch of one kind's reads, in request order and under this
    /// batch's thread hint and forced fields, and returns one response
    /// per read; the responses are scattered back into request order.
    /// A batch of a single kind is handed over as it is.
    pub(crate) fn by_kind(
        &self,
        mut read_kind: impl FnMut(&ReadBatch) -> Result<Vec<AccessResponse>, EvalError>,
    ) -> Result<Vec<AccessResponse>, EvalError> {
        let kind = std::mem::discriminant::<ReadRequest>;
        let Some(first) = self.reads.first() else {
            return Ok(Vec::new());
        };
        if self.reads.iter().all(|r| kind(r) == kind(first)) {
            return read_kind(self);
        }
        let mut responses = vec![AccessResponse::default(); self.reads.len()];
        let mut done = Vec::new();
        for read in &self.reads {
            if done.contains(&kind(read)) {
                continue;
            }
            done.push(kind(read));
            let slots: Vec<usize> = (0..self.reads.len())
                .filter(|&i| kind(&self.reads[i]) == kind(read))
                .collect();
            let sub = ReadBatch {
                reads: slots.iter().map(|&i| self.reads[i].clone()).collect(),
                ..*self
            };
            for (i, response) in slots.into_iter().zip(read_kind(&sub)?) {
                responses[i] = response;
            }
        }
        Ok(responses)
    }
}

/// The response to one [`ReadRequest`]: exactly the fields the request
/// kind implies are populated, plus the read's share of the batch work
/// census (the work shared by a batch's reads of one kind is
/// attributed to the first of them and zero on the rest — each explain
/// carries its own — so summing responses stays truthful, the
/// [`crate::AccessEngine`] convention).
#[derive(Clone, Debug, Default)]
pub struct AccessResponse {
    /// The decision (`Check` and `Explain` reads).
    pub decision: Option<Decision>,
    /// The materialized audience, sorted (`Audience` and `Query`
    /// reads).
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
/// **One required read; every named read written once.** A backend (or
/// decorator) implements [`read`] — a [`ReadBatch`] in, one
/// [`AccessResponse`] per read out, in request order — plus eight
/// metadata methods, [`describe`] through [`default_check_plan`]. Every
/// other method is a named read: a provided wrapper that builds a
/// batch, calls `read` and unpacks the responses, so none can drift
/// between deployments. A `*_forced` read sets the batch's forced field
/// ([`ReadBatch::plan`], [`ReadBatch::strategy`]); its unforced twin
/// leaves it unset. A lone check is always targeted.
///
/// The in-tree backends answer `read` through one shared decision layer
/// (the crate-private `decision` module): the grant rule, the split of
/// a batch by kind, the choice between a forced and the default route,
/// the bundle merge and the census attribution are written there once,
/// and each backend contributes only how it evaluates conditions.
/// Decorators forward `read` ([`crate::PlannedService`] first fills a
/// batch's unset fields from its planner).
///
/// [`read`]: AccessService::read
/// [`describe`]: AccessService::describe
/// [`default_check_plan`]: AccessService::default_check_plan
pub trait AccessService: Send + Sync {
    // -- required: the one read ---------------------------------------

    /// Evaluates a batch of reads: one response per read, in request
    /// order. Checks decide as `check` documents, audiences are the
    /// sorted members a resource admits, explains carry witness walks
    /// when granted, queries the sorted members their walks reach. Each
    /// kind's census is attributed as [`AccessResponse`] documents.
    /// Decision-cache hits and the owner fast path legitimately report
    /// an all-zero census — no traversal ran.
    fn read(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError>;

    // -- required: metadata -------------------------------------------

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

    /// The route a check batch of `len` requests takes when the batch
    /// forces none (a single graph walks targeted; a partitioned one
    /// materializes batched audiences once a batch holds more than one
    /// request). [`crate::PlannedService`] serves it verbatim on cold
    /// start.
    fn default_check_plan(&self, len: usize) -> CheckPlan;

    // -- provided: the named reads, written once ----------------------

    /// [`AccessService::check_with_stats`] without the census.
    fn check(&self, resource: ResourceId, requester: NodeId) -> Result<Decision, EvalError> {
        Ok(self.check_with_stats(resource, requester)?.0)
    }

    /// Decides whether `requester` may access `resource` (owner always
    /// granted; rules disjoin; conditions within a rule conjoin; no
    /// rules ⇒ private) by one early-exit targeted evaluation, plus the
    /// read's work census.
    fn check_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        let batch = ReadBatch {
            reads: vec![ReadRequest::Check {
                resource,
                requester,
            }],
            plan: Some(CheckPlan::Targeted),
            ..ReadBatch::default()
        };
        let response = self.read(&batch)?.pop().expect("one response per read");
        let decision = response.decision.expect("a check is decided");
        Ok((decision, response.stats))
    }

    /// [`AccessService::check_batch_with_stats`] without the census.
    fn check_batch(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<Vec<Decision>, EvalError> {
        Ok(self.check_batch_with_stats(requests, threads)?.0)
    }

    /// Decides a batch along the deployment's route (a planner's pick,
    /// or [`AccessService::default_check_plan`]); decisions come back in
    /// request order with the batch's cumulative census.
    fn check_batch_with_stats(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        Ok(unpack(self.read(&check_batch(requests, threads))?, |r| {
            r.decision
        }))
    }

    /// [`AccessService::check_batch_with_stats`] along the **named**
    /// route. Every route returns identical decisions and moves
    /// [`AccessService::cache_stats`] identically.
    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        let batch = check_batch(requests, threads).with_plan(plan);
        Ok(unpack(self.read(&batch)?, |r| r.decision))
    }

    /// [`AccessService::explain_with_stats`] without the census.
    fn explain(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<Option<Explanation>, EvalError> {
        Ok(self.explain_with_stats(resource, requester)?.0)
    }

    /// Explains a grant with structured witness walks, or `None` when
    /// access is denied, plus the read's work census. Render with
    /// [`Explanation::render`] or [`AccessService::explain_lines`];
    /// replay through the path automaton in conformance tests.
    fn explain_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        let batch = ReadBatch::new().explain(resource, requester);
        let response = self.read(&batch)?.pop().expect("one response per read");
        Ok((response.explanation, response.stats))
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

    /// Audiences of a bundle plus its census, under the deployment's
    /// strategy (a planner's pick, or [`BundleStrategy::Batched`]).
    fn audience_batch_with_stats(
        &self,
        rids: &[ResourceId],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        Ok(unpack(self.read(&audience_batch(rids))?, |r| r.audience))
    }

    /// Audiences of a bundle in `rids` order, with the bundle's deduped
    /// conditions traversed by the **named** strategy, plus the
    /// bundle's uniform work census. Both strategies return identical
    /// audiences on every backend.
    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let batch = audience_batch(rids).with_strategy(strategy);
        Ok(unpack(self.read(&batch)?, |r| r.audience))
    }

    /// [`AccessService::query_audience_bundle`] for one query.
    fn query_audience(&self, owner: NodeId, text: &str) -> Result<Vec<NodeId>, EvalError> {
        Ok(self
            .query_audience_bundle(&[(owner, text)])?
            .pop()
            .expect("one audience per query"))
    }

    /// Materializes the audiences of a bundle of ad-hoc queries
    /// ([`ReadRequest::Query`]), in request order. Backends share
    /// traversal across the bundle exactly as registered-rule bundles
    /// do.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        let batch = queries
            .iter()
            .fold(ReadBatch::new(), |b, &(owner, text)| b.query(owner, text));
        Ok(unpack(self.read(&batch)?, |r| r.audience).0)
    }
}

/// A batch of check reads.
fn check_batch(requests: &[(ResourceId, NodeId)], threads: usize) -> ReadBatch {
    let batch = ReadBatch {
        threads,
        ..ReadBatch::default()
    };
    requests.iter().fold(batch, |b, &(rid, m)| b.check(rid, m))
}

/// A batch of audience reads.
fn audience_batch(rids: &[ResourceId]) -> ReadBatch {
    rids.iter()
        .fold(ReadBatch::new(), |b, &rid| b.audience(rid))
}

/// Each response's `field`, in order, plus the batch's census.
fn unpack<T>(
    responses: Vec<AccessResponse>,
    field: impl Fn(AccessResponse) -> Option<T>,
) -> (Vec<T>, ReadStats) {
    let mut stats = ReadStats::default();
    let fields = responses
        .into_iter()
        .map(|r| {
            stats.absorb(&r.stats);
            field(r).expect("a read of the batch's kind answers it")
        })
        .collect();
    (fields, stats)
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

    /// Applies the mutation to a graph and its policy store: the
    /// single-graph backend's whole write path, live and in recovery's
    /// replay alike. The mutation is validated first, so on `Err` the
    /// graph, its vocabulary and the store are unchanged.
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
    /// One epoch-published graph, evaluated online
    /// ([`AccessControlSystem`]).
    Single,
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
    /// A single-graph deployment evaluating online.
    pub fn online() -> Self {
        Deployment::Single
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
            Deployment::Single => "single(online-bfs)".to_owned(),
            Deployment::Sharded(a) => format!("sharded(n={})", a.shards()),
            Deployment::Networked(spec) => format!("networked(n={})", spec.addrs.len()),
        }
    }

    /// Constructs an empty backend for this deployment.
    pub fn build(&self) -> ServiceInstance {
        match self {
            Deployment::Single => ServiceInstance::Single(AccessControlSystem::new_online()),
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
            Deployment::Single => self.adopt_graph(g.clone(), store),
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

    /// [`Deployment::from_graph`] taking the graph by value: a single
    /// graph adopts it without a copy, a partitioned backend loads it
    /// and drops it.
    pub(crate) fn adopt_graph(&self, g: SocialGraph, store: PolicyStore) -> ServiceInstance {
        match self {
            Deployment::Single => {
                let mut sys = AccessControlSystem::adopting(g);
                sys.adopt_store(store);
                ServiceInstance::Single(sys)
            }
            _ => self.from_graph(&g, store),
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

    /// The deployment's canonical state: one graph and its policy store,
    /// what a snapshot persists and [`Deployment::from_graph`] rebuilds
    /// the same backend from. The single graph lends its own; a
    /// partitioned backend builds the graph from its metadata and its
    /// shards' attributes on each call.
    pub fn canonical(&self) -> (Cow<'_, SocialGraph>, &PolicyStore) {
        match self {
            ServiceInstance::Single(s) => (Cow::Borrowed(s.graph()), s.store()),
            ServiceInstance::Sharded(s) => (Cow::Owned(s.export_graph()), s.store()),
            ServiceInstance::Networked(s) => (Cow::Owned(s.export_graph()), s.store()),
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

/// Forwards `read` and the metadata to the wrapped backend; the
/// provided reads then run against it unchanged.
impl AccessService for ServiceInstance {
    fn read(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError> {
        self.reads().read(batch)
    }

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
        for deployment in [Deployment::online(), Deployment::sharded(3, 7)] {
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
    fn read_mixes_request_kinds() {
        let mut svc = Deployment::sharded(2, 5).build();
        let (members, rid) = populate(svc.writes());
        let batch = ReadBatch::new()
            .check(rid, members[2])
            .audience(rid)
            .explain(rid, members[1])
            .check(rid, members[3])
            .query(members[0], "friend+[1]");
        let responses = svc.reads().read(&batch).unwrap();
        assert_eq!(responses.len(), 5);
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
        assert_eq!(responses[4].audience, Some(vec![members[1]]));
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
