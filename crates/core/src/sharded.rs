//! `ShardedSystem` — horizontal partitioning of the serving layer.
//!
//! The epoch-publication pipeline ([`crate::engine::Enforcer`] +
//! `Arc<CsrSnapshot>`) serves one graph per enforcer. This module
//! scales the read path out: members are **hash-partitioned** across N
//! independent shards ([`ShardAssignment`], deterministic and
//! seedable), each shard owning a [`SocialGraph`] + enforcer of its
//! own, with its own epoch-published snapshot and its own incremental
//! append patching.
//!
//! # Data placement
//!
//! * A member lives on exactly one **home shard** (by stable hash of
//!   their name). Intra-shard relationships are ordinary edges of the
//!   home shard's graph.
//! * A relationship whose endpoints live on different shards is a
//!   **boundary edge**: it is recorded in the global [`BoundaryTable`]
//!   and **replicated into both endpoint shards**, attached to a
//!   *ghost* copy of the remote endpoint. Ghosts carry a synchronized
//!   copy of the member's attribute tuple (path predicates evaluate at
//!   either replica) but are never reported as audience members — only
//!   a member's home shard speaks for them.
//!
//! # Cross-shard reads: one masked fixpoint
//!
//! Every read fans out over the shards through the existing `&self`
//! epoch read path, and every read — a bundle's audiences, one
//! condition's audience, one targeted check — is the same
//! **round-based masked fixpoint** of per-shard seeded plan BFS
//! ([`crate::query::evaluate_plan_batch_seeded`]):
//!
//! 1. The conditions compile into one shared-prefix trie
//!    ([`crate::query::BundlePlan`]; one condition is its one-path
//!    plan) and every 64-condition chunk seeds its owners' home shards
//!    at `(owner, root node, depth 0)`, each under its condition bit.
//! 2. Each active shard traverses its local CSR snapshot, every product
//!    state carrying the bitmask of the conditions that reached it.
//!    Whenever the walk visits a state at a ghost, that masked
//!    `(member, node, depth)` coordinate is exported
//!    ([`socialreach_graph::shard::MaskedStateKey`]; bundles wider
//!    than 64 conditions chunk into further mask words).
//! 3. The driver forwards to each exported member's home shard — the
//!    one place that has the member's full adjacency — only the bits it
//!    has not forwarded before, and the next round begins.
//!
//! Each shard's visited/mask state **persists across rounds** of the
//! evaluation, so a walk that ping-pongs through one shard k times
//! expands each product state at most once per arriving bit: total
//! work is linear in the explored region. In process the shards of a
//! round run one after the other on the caller's thread, and exports
//! are merged in shard order. Decisions for `check_batch` fall out of
//! the materialized audiences (a requester is granted exactly when a
//! rule's every condition-audience contains them); a single `check`
//! runs the condition as a 1-bit bundle of its one-path plan with
//! early exit on the requester's home shard. `explain` runs the same
//! read with first-arrival parent tracking, and the witness is stitched
//! from the shards' persistent parent chains.
//! The per-condition bundle arm ([`BundleStrategy::PerCondition`]) is
//! one such fixpoint per distinct condition.
//!
//! The round loop itself — pending seeds, send-then-receive,
//! shard-order merge, new-bit forwarding — lives once, in
//! `crate::fixpoint`; this module contributes the in-process lane (one
//! shard, reached by a function call), seed construction and witness
//! stitching.
//!
//! # Mutations
//!
//! Mutations (`&mut self`) route to the owning shard(s): an edge
//! append touches one shard (intra) or two (boundary), a ghost
//! materialization appends a node — all **append-only**, so every
//! shard's next publication goes through
//! `CsrSnapshot::apply_edge_appends` instead of a rebuild. The
//! top-level decision cache drops on any mutation; published shard
//! snapshots are retained as patch bases.

use crate::decision::{self, DecisionCache};
use crate::engine::{Enforcer, OnlineEngine};
use crate::error::EvalError;
use crate::fixpoint::{self, LaneRound, ShardEngine, ShardLane, ShardView, StateKey};
use crate::online::WitnessHop;
use crate::path::PathExpr;
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::query::{BundlePlan, ChunkMasks, PlanBatchState};
use crate::service::{
    AccessService, BundleStrategy, CheckPlan, Explanation, MutateService, ReadStats, WalkHop,
};
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::shard::{BoundaryEdge, BoundaryTable, MaskedExport, ShardAssignment};
use socialreach_graph::{AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::borrow::Cow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// One hop of a stitched cross-shard witness walk, in **global** ids —
/// the shared [`WalkHop`] of the service vocabulary (the name is kept
/// as an alias for downstream code).
pub type ShardedHop = WalkHop;

/// Result of one cross-shard access-condition evaluation.
#[derive(Clone, Debug)]
pub struct ShardedEval {
    /// Every member matching the condition (global ids, sorted).
    /// Populated only for audience evaluations (`target == None`).
    pub matched: Vec<NodeId>,
    /// Whether the target requester matched.
    pub granted: bool,
    /// A stitched walk from the owner to the requester when granted.
    pub witness: Option<Vec<ShardedHop>>,
}

/// Work census of one batched bundle evaluation (the masked
/// cross-shard fixpoint), for benchmarks and the round-linearity
/// regression tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BundleFixpointStats {
    /// Masked fixpoints run: one per 64-condition chunk of the shared
    /// trie plan — *not* one per condition.
    pub fixpoints: usize,
    /// Fixpoint rounds across all of them.
    pub rounds: usize,
    /// Product states expanded per shard, cumulative across the whole
    /// bundle. Persistence of per-shard mask state across rounds keeps
    /// this linear in the explored region per condition bit.
    pub states_expanded: Vec<usize>,
    /// Masked boundary exports the router forwarded (new bits only).
    pub exported_states: usize,
    /// Automaton states the shared trie plan occupies — see
    /// [`crate::query::BundlePlan::plan_states`].
    pub plan_states: usize,
    /// Automaton states one-chain-per-condition evaluation would
    /// occupy.
    pub expr_states: usize,
}

impl BundleFixpointStats {
    /// This census as the uniform [`ReadStats`] of a bundle of
    /// `conditions` deduped conditions.
    pub(crate) fn read_stats(&self, conditions: usize) -> ReadStats {
        ReadStats {
            conditions,
            traversals: self.fixpoints,
            rounds: self.rounds,
            states_expanded: self.states_expanded.iter().sum(),
            exported_states: self.exported_states,
            plan_states: self.plan_states,
            expr_states: self.expr_states,
        }
    }
}

/// Size census of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Members homed on the shard.
    pub members: usize,
    /// Ghost replicas of remote members.
    pub ghosts: usize,
    /// Edges in the shard's graph (intra + replicated boundary).
    pub edges: usize,
}

/// One partition: a graph of home members + ghost replicas, and the
/// enforcer publishing its epoch snapshots.
struct Shard {
    graph: SocialGraph,
    enforcer: Enforcer<OnlineEngine>,
    /// Local node index → global member id.
    globals: Vec<NodeId>,
    /// Local node index → is a ghost replica (the seeded BFS's watch
    /// set: states visited here are exported to the home shard).
    ghost: Vec<bool>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            graph: SocialGraph::new(),
            // Every mutation this module performs on a shard graph is
            // an append, so incremental publication is safe.
            enforcer: Enforcer::new(OnlineEngine).with_append_publication(),
            globals: Vec::new(),
            ghost: Vec::new(),
        }
    }

    fn stats(&self) -> ShardStats {
        let ghosts = self.ghost.iter().filter(|&&g| g).count();
        ShardStats {
            members: self.graph.num_nodes() - ghosts,
            ghosts,
            edges: self.graph.num_edges(),
        }
    }
}

/// Where a member lives, plus every ghost replica of them.
struct MemberEntry {
    home: u32,
    local: NodeId,
    /// `(shard, local id)` of each ghost replica.
    ghosts: Vec<(u32, NodeId)>,
}

/// What an in-process lane runs once it opens: one 64-condition chunk
/// of a compiled plan.
#[derive(Clone, Copy)]
struct LaneProgram<'a> {
    plan: &'a BundlePlan,
    masks: &'a ChunkMasks,
    /// The one-path plan of a targeted read: a stop member is allowed.
    one_path: bool,
    /// Track first-arrival parents, for `explain`'s witness.
    parents: bool,
}

/// The in-process [`ShardLane`]: one shard of a [`ShardedSystem`],
/// reached by a function call over its pinned snapshot.
struct LocalLane<'a> {
    index: u32,
    members: &'a [MemberEntry],
    shard: &'a Shard,
    snap: &'a CsrSnapshot,
    program: LaneProgram<'a>,
    word: u32,
    /// Materialized with the lane's first round: shards a traversal
    /// never touches never take a mask scratch.
    engine: Option<ShardEngine<'a>>,
    /// The round `send` ran, until `recv` hands it over.
    sent: Option<LaneRound>,
}

impl ShardLane for LocalLane<'_> {
    type Error = Infallible;

    /// Runs the round here, on the driver's thread.
    fn send(&mut self, seeds: &[MaskedExport], stop: Option<u32>) -> Result<(), Infallible> {
        let (shard, snap, program) = (self.shard, self.snap, self.program);
        let engine = self.engine.get_or_insert_with(|| ShardEngine {
            engine: if program.parents {
                PlanBatchState::with_parents(&shard.graph, snap, &program.plan.nodes)
            } else {
                PlanBatchState::new(&shard.graph, snap, &program.plan.nodes)
            },
            nodes: Cow::Borrowed(&program.plan.nodes),
            masks: Cow::Borrowed(program.masks),
            one_path: program.one_path,
        });
        let view = ShardView {
            graph: &shard.graph,
            snap,
            globals: &shard.globals,
            ghost: &shard.ghost,
        };
        // Seeds and the stop member are routed to their home shard,
        // where `local` is the member's node.
        let (index, members) = (self.index, self.members);
        let local_of = |m: u32| {
            members
                .get(m as usize)
                .filter(|e| e.home == index)
                .map(|e| e.local)
        };
        self.sent = Some(
            fixpoint::local_round(&view, local_of, engine, self.word, seeds, stop)
                .expect("the driver routes seeds and stops to their members' home shards"),
        );
        Ok(())
    }

    fn recv(&mut self) -> Result<LaneRound, Infallible> {
        Ok(self.sent.take().expect("received after a send"))
    }

    /// Nothing to close: the engine dies with the lane, and its drop —
    /// on the driver thread — returns the scratch to that thread's pool.
    fn end(&mut self) {}
}

/// The sharded serving façade: the [`crate::AccessControlSystem`] API
/// over N hash-partitioned epoch-published shards (see the module docs
/// for placement and the cross-shard read algorithm).
pub struct ShardedSystem {
    assignment: ShardAssignment,
    /// Master vocabulary; every shard's vocabulary is a prefix-aligned
    /// copy (same names interned in the same order), so `LabelId` /
    /// `AttrKey` values are valid on every shard.
    vocab: Vocabulary,
    shards: Vec<Shard>,
    members: Vec<MemberEntry>,
    names: Vec<String>,
    /// First-registration-wins name lookup (mirrors
    /// [`SocialGraph::node_by_name`]).
    name_lookup: HashMap<String, NodeId>,
    store: PolicyStore,
    boundary: BoundaryTable,
    /// Global edge log `(src, label, dst)` in insertion order —
    /// introspection, audits, witness validation.
    edges: Vec<(NodeId, LabelId, NodeId)>,
    decisions: DecisionCache,
}

impl ShardedSystem {
    /// A system of `shards` hash-partitioned shards (placement seeded
    /// by `seed`; see [`ShardAssignment::hashed`]).
    pub fn new(shards: u32, seed: u64) -> Self {
        Self::with_assignment(ShardAssignment::hashed(shards, seed))
    }

    /// A system with an explicit placement function.
    pub fn with_assignment(assignment: ShardAssignment) -> Self {
        let n = assignment.shards();
        ShardedSystem {
            assignment,
            vocab: Vocabulary::new(),
            shards: (0..n).map(|_| Shard::new()).collect(),
            members: Vec::new(),
            names: Vec::new(),
            name_lookup: HashMap::new(),
            store: PolicyStore::new(),
            boundary: BoundaryTable::new(n),
            edges: Vec::new(),
            decisions: DecisionCache::default(),
        }
    }

    /// Ingests an existing graph: same member ids (insertion order),
    /// same label/attr-key ids (the master vocabulary interns the
    /// source vocabulary in order), same edge order. A policy store
    /// built against `g` can then be adopted verbatim with
    /// [`ShardedSystem::adopt_store`].
    pub fn from_graph(g: &SocialGraph, assignment: ShardAssignment) -> Self {
        let mut sys = Self::with_assignment(assignment);
        for (_, name) in g.vocab().labels() {
            sys.vocab.intern_label(name);
        }
        for i in 0..g.vocab().num_attrs() {
            sys.vocab.intern_attr(
                g.vocab()
                    .attr_name(socialreach_graph::AttrKey::from_index(i)),
            );
        }
        sys.sync_vocab();
        for v in g.nodes() {
            let global = sys.add_user(g.node_name(v));
            debug_assert_eq!(global, v, "ingestion preserves member ids");
            for (k, val) in g.node_attrs(v).iter() {
                sys.set_user_attr(global, g.vocab().attr_name(k), val.clone());
            }
        }
        for (_, rec) in g.edges() {
            sys.connect(rec.src, g.vocab().label_name(rec.label), rec.dst);
        }
        sys
    }

    /// Adopts a policy store built against the graph this system was
    /// ingested from ([`ShardedSystem::from_graph`] — ids align by
    /// construction).
    pub fn adopt_store(&mut self, store: PolicyStore) {
        self.dirty();
        self.store = store;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The placement function.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered members (across all shards, ghosts not
    /// counted).
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Number of relationships (each boundary edge counted once).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The home shard of a member.
    pub fn member_shard(&self, member: NodeId) -> u32 {
        self.members[member.index()].home
    }

    /// Display name of a member.
    pub fn member_name(&self, member: NodeId) -> &str {
        &self.names[member.index()]
    }

    /// The cross-shard boundary table.
    pub fn boundary(&self) -> &BoundaryTable {
        &self.boundary
    }

    /// Per-shard size census.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Per-shard snapshot publication epochs (mirrors
    /// [`crate::AccessControlSystem::snapshot_epoch`] per shard).
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.enforcer.snapshot_epoch())
            .collect()
    }

    /// The global edge log `(src, label, dst)` in insertion order.
    pub fn edge_log(&self) -> &[(NodeId, LabelId, NodeId)] {
        &self.edges
    }

    /// Read-only view of the policy store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// Master vocabulary (labels + attribute keys).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Looks a member up by name (first registered wins, as in
    /// [`SocialGraph::node_by_name`]).
    pub fn user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.name_lookup
            .get(name)
            .copied()
            .ok_or_else(|| socialreach_graph::GraphError::UnknownName(name.to_owned()).into())
    }

    // ------------------------------------------------------------------
    // Mutations (route to the owning shard(s))
    // ------------------------------------------------------------------

    /// Registers a member on their hash-assigned home shard.
    pub fn add_user(&mut self, name: &str) -> NodeId {
        self.dirty();
        let global = NodeId::from_index(self.members.len());
        let home = self.assignment.shard_of(name);
        let shard = &mut self.shards[home as usize];
        let local = shard.graph.add_node(name);
        shard.globals.push(global);
        shard.ghost.push(false);
        debug_assert_eq!(shard.globals.len(), shard.graph.num_nodes());
        self.members.push(MemberEntry {
            home,
            local,
            ghosts: Vec::new(),
        });
        self.names.push(name.to_owned());
        self.name_lookup.entry(name.to_owned()).or_insert(global);
        global
    }

    /// Sets a member attribute on the home replica **and every ghost
    /// replica**, so path predicates evaluate identically on any shard
    /// the member appears on.
    pub fn set_user_attr(&mut self, member: NodeId, key: &str, value: impl Into<AttrValue>) {
        self.dirty();
        self.vocab.intern_attr(key);
        self.sync_vocab();
        let value: AttrValue = value.into();
        let entry = &self.members[member.index()];
        let (home, local) = (entry.home, entry.local);
        let copies: Vec<(u32, NodeId)> = entry.ghosts.clone();
        self.shards[home as usize]
            .graph
            .set_node_attr(local, key, value.clone());
        for (shard, ghost_local) in copies {
            self.shards[shard as usize]
                .graph
                .set_node_attr(ghost_local, key, value.clone());
        }
    }

    /// Adds a directed relationship. Intra-shard edges land on the home
    /// shard; cross-shard edges are recorded in the boundary table and
    /// replicated into both endpoint shards against ghost replicas.
    pub fn connect(&mut self, src: NodeId, label: &str, dst: NodeId) {
        self.dirty();
        let l = self.vocab.intern_label(label);
        self.sync_vocab();
        self.edges.push((src, l, dst));
        let s_home = self.members[src.index()].home;
        let d_home = self.members[dst.index()].home;
        if s_home == d_home {
            let shard = &mut self.shards[s_home as usize];
            let (ls, ld) = (
                self.members[src.index()].local,
                self.members[dst.index()].local,
            );
            shard.graph.add_edge(ls, ld, l);
        } else {
            let ghost_dst = self.ensure_ghost(dst, s_home);
            let ghost_src = self.ensure_ghost(src, d_home);
            let ls = self.members[src.index()].local;
            let ld = self.members[dst.index()].local;
            self.shards[s_home as usize]
                .graph
                .add_edge(ls, ghost_dst, l);
            self.shards[d_home as usize]
                .graph
                .add_edge(ghost_src, ld, l);
            self.boundary.record(BoundaryEdge {
                src: src.0,
                dst: dst.0,
                label: l,
                src_shard: s_home,
                dst_shard: d_home,
            });
        }
    }

    /// Adds a mutual relationship (both directions).
    pub fn connect_mutual(&mut self, a: NodeId, label: &str, b: NodeId) {
        self.connect(a, label, b);
        self.connect(b, label, a);
    }

    /// Registers a resource owned by `owner` (private until a rule is
    /// attached).
    pub fn share(&mut self, owner: NodeId) -> ResourceId {
        self.dirty();
        self.store.register_resource(owner)
    }

    /// Attaches a single-condition rule parsed from `path_text` — in
    /// either syntax, classic path notation or the openCypher-flavored
    /// `MATCH` grammar (same surface as
    /// [`crate::AccessControlSystem::allow`]).
    pub fn allow(&mut self, rid: ResourceId, path_text: &str) -> Result<(), EvalError> {
        self.dirty();
        let owner = self.store.owner_of(rid)?;
        let path = crate::query::parse_policy(path_text, &mut self.vocab)?;
        self.sync_vocab();
        self.store.add_rule(crate::policy::AccessRule {
            resource: rid,
            conditions: vec![crate::policy::AccessCondition { owner, path }],
        })
    }

    /// Parses a policy in either syntax against the master vocabulary.
    pub fn parse(&mut self, text: &str) -> Result<PathExpr, EvalError> {
        let path = crate::query::parse_policy(text, &mut self.vocab)?;
        self.sync_vocab();
        Ok(path)
    }

    /// Materializes (or finds) the ghost replica of `member` on
    /// `shard`, copying the member's current attribute tuple.
    fn ensure_ghost(&mut self, member: NodeId, shard: u32) -> NodeId {
        if let Some(&(_, local)) = self.members[member.index()]
            .ghosts
            .iter()
            .find(|&&(s, _)| s == shard)
        {
            return local;
        }
        let entry = &self.members[member.index()];
        let (home, home_local) = (entry.home, entry.local);
        debug_assert_ne!(home, shard, "a member is never its own ghost");
        let attrs: Vec<(String, AttrValue)> = self.shards[home as usize]
            .graph
            .node_attrs(home_local)
            .iter()
            .map(|(k, v)| (self.vocab.attr_name(k).to_owned(), v.clone()))
            .collect();
        let target = &mut self.shards[shard as usize];
        let local = target.graph.add_node(&self.names[member.index()]);
        target.globals.push(member);
        target.ghost.push(true);
        for (key, value) in attrs {
            target.graph.set_node_attr(local, &key, value);
        }
        self.members[member.index()].ghosts.push((shard, local));
        local
    }

    /// Interns any master-vocabulary labels/keys the shards have not
    /// seen yet, in master order, so interned ids agree everywhere.
    /// (Interning never advances a graph's generation, so published
    /// snapshots stay valid.)
    fn sync_vocab(&mut self) {
        for shard in &mut self.shards {
            for i in shard.graph.vocab().num_labels()..self.vocab.num_labels() {
                let name = self.vocab.label_name(LabelId::from_index(i)).to_owned();
                let id = shard.graph.intern_label(&name);
                debug_assert_eq!(id.index(), i);
            }
            for i in shard.graph.vocab().num_attrs()..self.vocab.num_attrs() {
                let name = self
                    .vocab
                    .attr_name(socialreach_graph::AttrKey::from_index(i))
                    .to_owned();
                let id = shard.graph.intern_attr(&name);
                debug_assert_eq!(id.index(), i);
            }
        }
    }

    /// Any mutation stales every cached decision. Published shard
    /// snapshots are retained as incremental patch bases.
    fn dirty(&mut self) {
        self.decisions.clear();
    }

    // ------------------------------------------------------------------
    // Reads (the `&self` fan-out path)
    // ------------------------------------------------------------------

    /// This backend as a deployment-agnostic read service.
    pub fn service(&self) -> &dyn AccessService {
        self
    }

    /// The per-condition bundle path: every distinct condition runs its
    /// **own** one-condition masked fixpoint
    /// ([`ShardedSystem::evaluate_condition`] without a target), so no
    /// two conditions share a traversal. Semantics are identical to
    /// [`AccessService::audience_batch`].
    pub fn audience_batch_per_condition(
        &self,
        rids: &[ResourceId],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        Ok(self.audience_batch_per_condition_with_stats(rids)?.0)
    }

    /// [`ShardedSystem::audience_batch_per_condition`] plus the
    /// bundle's cumulative work census — the
    /// [`crate::BundleStrategy::PerCondition`] entry point the planner
    /// dispatches to, and the same loop as the networked router's. Each
    /// deduped condition reports one condition and its fixpoint;
    /// one-condition plans share nothing, so there is no plan census.
    pub fn audience_batch_per_condition_with_stats(
        &self,
        rids: &[ResourceId],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        crate::engine::merge_bundle_audiences(&self.store, rids, |uniq| {
            let mut stats = ReadStats::default();
            let audiences = uniq
                .iter()
                .map(|&(owner, path)| {
                    let (eval, s) = self.evaluate_condition_with_stats(owner, path, None);
                    stats.absorb(&s);
                    eval.matched
                })
                .collect();
            Ok((audiences, stats))
        })
    }

    /// Publishes every shard's snapshot for its current topology and
    /// returns them (index-aligned with the shards).
    fn publish_all(&self) -> Vec<Arc<CsrSnapshot>> {
        self.shards
            .iter()
            .map(|s| {
                s.enforcer
                    .publish_snapshot(&s.graph)
                    .expect("online engine publishes snapshots")
            })
            .collect()
    }

    /// Evaluates one access condition `(owner, path)` across the
    /// shards. With `target = Some(v)` it is the targeted read
    /// ([`ShardedSystem::evaluate_condition_targeted_with_stats`]):
    /// it short-circuits on grant and stitches a witness. With `None`
    /// it is a one-condition
    /// [`ShardedSystem::evaluate_conditions_batched`] that materializes
    /// the full (global) audience.
    pub fn evaluate_condition(
        &self,
        owner: NodeId,
        path: &PathExpr,
        target: Option<NodeId>,
    ) -> ShardedEval {
        self.evaluate_condition_with_stats(owner, path, target).0
    }

    /// [`ShardedSystem::evaluate_condition`] plus the fixpoint's
    /// uniform work census: one condition, its traversal, the
    /// cross-shard rounds, the product states the shards expanded and
    /// the boundary states exported between them (no plan census — a
    /// one-condition plan shares nothing).
    pub fn evaluate_condition_with_stats(
        &self,
        owner: NodeId,
        path: &PathExpr,
        target: Option<NodeId>,
    ) -> (ShardedEval, ReadStats) {
        if let Some(requester) = target {
            return self.evaluate_condition_targeted_with_stats(owner, path, requester);
        }
        let (mut audiences, stats) = self.evaluate_conditions_batched(&[(owner, path)]);
        (
            ShardedEval {
                matched: audiences.pop().expect("one audience per condition"),
                granted: false,
                witness: None,
            },
            ReadStats {
                plan_states: 0,
                expr_states: 0,
                ..stats.read_stats(1)
            },
        )
    }

    /// Evaluates a bundle's distinct access conditions through the
    /// masked batch fixpoint (`crate::fixpoint`): the whole bundle
    /// compiles into one shared-prefix trie
    /// ([`crate::query::BundlePlan`]) and each 64-condition chunk of
    /// it runs as **one** round-based cross-shard fixpoint — shared
    /// prefixes traverse once per chunk, masks fork at divergence
    /// points. Seeds carry the condition's *root plan node* in the
    /// `step` slot of the masked state key; per-bit reachability is
    /// step-for-step the linear automaton of that bit's own chain (see
    /// [`crate::query::plan`]). Per-shard visited/mask state persists
    /// across the rounds of a chunk, so total work is linear in the
    /// explored region per condition bit. Returns each condition's
    /// audience (global ids, sorted) in `conds` order, plus the work
    /// census.
    pub fn evaluate_conditions_batched(
        &self,
        conds: &[(NodeId, &PathExpr)],
    ) -> (Vec<Vec<NodeId>>, BundleFixpointStats) {
        // Published on the first chunk that traverses anything.
        let mut snaps: Option<Vec<Arc<CsrSnapshot>>> = None;
        let Ok(out) =
            fixpoint::bundle_audiences(conds, self.shards.len(), |plan, masks, word, seeds| {
                let snaps = snaps.get_or_insert_with(|| self.publish_all());
                let program = LaneProgram {
                    plan,
                    masks,
                    one_path: false,
                    parents: false,
                };
                fixpoint::masked_fixpoint(
                    &mut self.lanes(snaps, program, word),
                    |m| self.members[m as usize].home as usize,
                    seeds,
                    None,
                    |_, run| Ok(run),
                )
            });
        out
    }

    /// One unopened in-process lane per shard, over the pinned
    /// snapshots.
    fn lanes<'a>(
        &'a self,
        snaps: &'a [Arc<CsrSnapshot>],
        program: LaneProgram<'a>,
        word: u32,
    ) -> Vec<LocalLane<'a>> {
        self.shards
            .iter()
            .zip(snaps)
            .enumerate()
            .map(|(index, (shard, snap))| LocalLane {
                index: index as u32,
                members: &self.members,
                shard,
                snap,
                program,
                word,
                engine: None,
                sent: None,
            })
            .collect()
    }

    /// Targeted single-condition evaluation: does `requester` satisfy
    /// `(owner, path)`? The condition runs as a 1-bit bundle (bit 0,
    /// word 0) of its one-path plan through the same cross-shard
    /// fixpoint that serves batched audiences — round-persistent
    /// per-shard mask state keeps the work linear in the explored
    /// region even when a walk ping-pongs across a boundary — with two
    /// targeted extras: the requester's home shard **early-exits** the
    /// moment the requester completes the final step, and every engine
    /// tracks first-arrival parent pointers so the stitched witness is
    /// read off the persistent chains.
    /// The plan and its masks are compiled once per call, not per lane.
    ///
    /// `matched` is always empty — audiences go through
    /// [`ShardedSystem::evaluate_conditions_batched`].
    pub fn evaluate_condition_targeted_with_stats(
        &self,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> (ShardedEval, ReadStats) {
        self.targeted(owner, path, requester, true)
    }

    /// The targeted read behind `check` (`witness == false`: no parent
    /// tracking, no stitching, `witness` stays `None` on a grant) and
    /// behind [`ShardedSystem::evaluate_condition_targeted_with_stats`]
    /// (`witness == true`).
    fn targeted(
        &self,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
        witness: bool,
    ) -> (ShardedEval, ReadStats) {
        let mut stats = ReadStats {
            conditions: 1,
            traversals: 1,
            ..ReadStats::default()
        };
        if path.is_empty() {
            let granted = requester == owner;
            return (
                ShardedEval {
                    matched: Vec::new(),
                    granted,
                    witness: granted.then(Vec::new),
                },
                stats,
            );
        }
        let snaps = self.publish_all();
        let req_entry = &self.members[requester.index()];
        let plan = BundlePlan::compile(&[path]).expect("a parsed path fits a plan");
        let masks = plan.chunk_masks(&[0]);
        let program = LaneProgram {
            plan: &plan,
            masks: &masks,
            one_path: true,
            parents: witness,
        };
        let mut lanes = self.lanes(&snaps, program, 0);
        let Ok((walk, run)) = fixpoint::masked_fixpoint(
            &mut lanes,
            |m| self.members[m as usize].home as usize,
            &[fixpoint::owner_seed(owner)],
            Some((req_entry.home as usize, requester.0)),
            |lanes, run| {
                let walk = run.hit.filter(|_| witness).map(|(shard_ix, step, depth)| {
                    let at = (shard_ix, req_entry.local, step, depth);
                    self.stitch_traced(lanes, &run.origin, owner, at)
                });
                Ok((walk, run))
            },
        );
        run.add_to(&mut stats);
        (
            ShardedEval {
                matched: Vec::new(),
                granted: run.hit.is_some(),
                witness: walk,
            },
            stats,
        )
    }

    /// Stitches a targeted grant's witness by walking the per-shard
    /// **persistent parent chains** (no replay), starting `at` the hit
    /// `(shard, local member, step, depth)`: the hit shard's segment
    /// ends at a seed the router forwarded; `origin` names the shard
    /// that exported it, where the chain continues from the member's
    /// ghost replica — until the owner seed terminates the walk.
    fn stitch_traced(
        &self,
        lanes: &[LocalLane<'_>],
        origin: &HashMap<StateKey, usize>,
        owner: NodeId,
        at: (usize, NodeId, u16, u32),
    ) -> Vec<ShardedHop> {
        let (mut shard_ix, mut local, mut step, mut depth) = at;
        let mut segments: Vec<Vec<ShardedHop>> = Vec::new();
        loop {
            let engine = lanes[shard_ix]
                .engine
                .as_ref()
                .expect("a traced shard opened");
            let (hops, (seed_local, seed_step, seed_depth)) = engine
                .engine
                .trace(local, step, depth)
                .expect("granting chain is parent-tracked");
            segments.push(self.translate_hops(shard_ix, &hops));
            let global = self.shards[shard_ix].globals[seed_local.index()];
            if global == owner && seed_step == 0 && seed_depth == 0 {
                break;
            }
            let src = *origin
                .get(&(global.0, seed_step, seed_depth))
                .expect("every imported seed has an exporting shard");
            let ghost_local = self.members[global.index()]
                .ghosts
                .iter()
                .find(|&&(s, _)| s as usize == src)
                .map(|&(_, l)| l)
                .expect("exported states live at ghost replicas");
            shard_ix = src;
            local = ghost_local;
            step = seed_step;
            depth = seed_depth;
        }
        segments.reverse();
        segments.concat()
    }

    /// Translates shard-local witness hops into global
    /// [`ShardedHop`]s.
    fn translate_hops(&self, shard_ix: usize, hops: &[WitnessHop]) -> Vec<ShardedHop> {
        let shard = &self.shards[shard_ix];
        hops.iter()
            .map(|&(eid, forward)| {
                let rec = shard.graph.edge(eid);
                ShardedHop {
                    src: shard.globals[rec.src.index()],
                    dst: shard.globals[rec.dst.index()],
                    label: rec.label,
                    forward,
                }
            })
            .collect()
    }
}

/// The deployment-agnostic read surface: this impl block is the **one
/// place** the sharded backend's reads live. Decisions run the shared
/// decision layer; this backend contributes the cross-shard evaluation
/// of one condition (targeted) or one bundle (batched).
impl AccessService for ShardedSystem {
    fn describe(&self) -> String {
        format!("sharded(n={})", self.shards.len())
    }

    fn num_members(&self) -> usize {
        ShardedSystem::num_members(self)
    }

    fn num_relationships(&self) -> usize {
        self.num_edges()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        ShardedSystem::member_name(self, member)
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.vocab.label_name(label)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.decisions.stats()
    }

    /// Each condition runs the early-exiting targeted cross-shard
    /// fixpoint, without the parent tracking and stitching only a
    /// witness needs.
    fn check_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        decision::check(&self.decisions, &self.store, rid, requester, |cond| {
            let (out, s) = self.targeted(cond.owner, &cond.path, requester, false);
            Ok((out.granted, s))
        })
    }

    /// One stitched cross-shard walk per condition of the first
    /// granting rule.
    fn explain_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        decision::explain(&self.store, rid, requester, |cond| {
            let (out, s) =
                self.evaluate_condition_targeted_with_stats(cond.owner, &cond.path, requester);
            Ok((out.witness, s))
        })
    }

    /// `Batched` runs **one** masked cross-shard fixpoint per bundle:
    /// the distinct `(owner, path)` conditions compile into one
    /// shared-prefix plan and traverse together as condition bits of a
    /// seeded mask BFS ([`ShardedSystem::evaluate_conditions_batched`]).
    /// `PerCondition` runs one such fixpoint per condition
    /// ([`ShardedSystem::audience_batch_per_condition_with_stats`]).
    /// The per-resource merge semantics are the single-graph system's,
    /// literally (`engine::merge_bundle_audiences`).
    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        if strategy == BundleStrategy::PerCondition {
            return self.audience_batch_per_condition_with_stats(rids);
        }
        crate::engine::merge_bundle_audiences(&self.store, rids, |uniq| {
            let (audiences, s) = self.evaluate_conditions_batched(uniq);
            Ok((audiences, s.read_stats(uniq.len())))
        })
    }

    /// `threads` is accepted for API stability; every read runs on the
    /// caller's thread.
    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        _threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        match plan {
            CheckPlan::Targeted => {
                decision::check_each(requests, |rid, req| self.check_with_stats(rid, req))
            }
            CheckPlan::Audience(strategy) => {
                decision::check_via_audiences(&self.decisions, &self.store, requests, |need| {
                    self.audience_batch_forced(need, strategy)
                })
            }
        }
    }

    /// Ad-hoc query bundles run the same masked cross-shard fixpoint
    /// as registered-rule bundles, parsed read-only against the master
    /// vocabulary.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        decision::query_bundle(&self.vocab, queries, |conds| {
            Ok(self.evaluate_conditions_batched(conds).0)
        })
    }

    /// A lone check is cheaper through the early-exiting targeted
    /// fixpoint; anything larger materializes the touched resources'
    /// audiences in **one** masked fixpoint per bundle and decides by
    /// membership.
    fn default_check_plan(&self, len: usize) -> CheckPlan {
        partitioned_check_plan(len)
    }
}

/// The unplanned check route of the partitioned backends (in-process
/// and networked shards share it).
pub(crate) fn partitioned_check_plan(len: usize) -> CheckPlan {
    if len <= 1 {
        CheckPlan::Targeted
    } else {
        CheckPlan::Audience(BundleStrategy::Batched)
    }
}

/// The deployment-agnostic write surface (thin forwards onto the
/// inherent mutators, which stay for richer ergonomics).
impl MutateService for ShardedSystem {
    fn add_user(&mut self, name: &str) -> NodeId {
        ShardedSystem::add_user(self, name)
    }

    fn set_user_attr(&mut self, user: NodeId, key: &str, value: AttrValue) {
        ShardedSystem::set_user_attr(self, user, key, value);
    }

    fn add_relationship(&mut self, src: NodeId, label: &str, dst: NodeId) {
        self.connect(src, label, dst);
    }

    fn add_mutual_relationship(&mut self, a: NodeId, label: &str, b: NodeId) {
        self.connect_mutual(a, label, b);
    }

    fn add_resource(&mut self, owner: NodeId) -> ResourceId {
        self.share(owner)
    }

    fn add_rule(&mut self, rid: ResourceId, path_text: &str) -> Result<(), EvalError> {
        self.allow(rid, path_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The system.rs fixture, sharded: Alice→Bob→Carol chained friends,
    /// Carol→Dave colleague, a resource of Alice's with `friend+[1,2]`.
    fn populated(shards: u32) -> (ShardedSystem, ResourceId) {
        let mut sys = ShardedSystem::new(shards, 7);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        let dave = sys.add_user("Dave");
        sys.connect(alice, "friend", bob);
        sys.connect(bob, "friend", carol);
        sys.connect(carol, "colleague", dave);
        let rid = sys.share(alice);
        sys.allow(rid, "friend+[1,2]").unwrap();
        (sys, rid)
    }

    #[test]
    fn decisions_match_the_unsharded_semantics_across_shard_counts() {
        for shards in [1, 2, 3, 5] {
            let (sys, rid) = populated(shards);
            let bob = sys.user("Bob").unwrap();
            let carol = sys.user("Carol").unwrap();
            let dave = sys.user("Dave").unwrap();
            assert_eq!(
                sys.service().check(rid, bob).unwrap(),
                Decision::Grant,
                "{shards}"
            );
            assert_eq!(
                sys.service().check(rid, carol).unwrap(),
                Decision::Grant,
                "{shards}"
            );
            assert_eq!(
                sys.service().check(rid, dave).unwrap(),
                Decision::Deny,
                "{shards}"
            );
        }
    }

    #[test]
    fn audience_matches_across_shard_counts() {
        for shards in [1, 2, 3, 5] {
            let (sys, rid) = populated(shards);
            let names: Vec<&str> = sys
                .service()
                .audience(rid)
                .unwrap()
                .iter()
                .map(|&n| sys.member_name(n))
                .collect();
            assert_eq!(names, vec!["Alice", "Bob", "Carol"], "shards {shards}");
        }
    }

    #[test]
    fn members_land_on_their_assigned_shards() {
        let (sys, _) = populated(4);
        for name in ["Alice", "Bob", "Carol", "Dave"] {
            let m = sys.user(name).unwrap();
            assert_eq!(sys.member_shard(m), sys.assignment().shard_of(name));
        }
        let census: usize = sys.shard_stats().iter().map(|s| s.members).sum();
        assert_eq!(census, 4);
    }

    #[test]
    fn boundary_table_records_cross_shard_edges() {
        // Pin everyone to alternating shards so every edge crosses.
        let a = ShardAssignment::explicit(
            2,
            0,
            vec![
                ("Alice".into(), 0),
                ("Bob".into(), 1),
                ("Carol".into(), 0),
                ("Dave".into(), 1),
            ],
        );
        let mut sys = ShardedSystem::with_assignment(a);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        let dave = sys.add_user("Dave");
        sys.connect(alice, "friend", bob);
        sys.connect(bob, "friend", carol);
        sys.connect(carol, "colleague", dave);
        assert_eq!(sys.boundary().len(), 3, "every edge crosses");
        let stats = sys.shard_stats();
        assert_eq!(stats[0].members, 2);
        assert_eq!(stats[1].members, 2);
        assert!(stats[0].ghosts > 0 && stats[1].ghosts > 0);
        let rid = sys.share(alice);
        sys.allow(rid, "friend+[1,2]").unwrap();
        assert_eq!(sys.service().check(rid, carol).unwrap(), Decision::Grant);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        let audience: Vec<&str> = sys
            .service()
            .audience(rid)
            .unwrap()
            .iter()
            .map(|&n| sys.member_name(n))
            .collect();
        assert_eq!(audience, vec!["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn explain_stitches_a_walk_across_shards() {
        let a = ShardAssignment::explicit(2, 0, vec![("Alice".into(), 0), ("Carol".into(), 1)]);
        let mut sys = ShardedSystem::with_assignment(a);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        sys.connect(alice, "friend", bob);
        sys.connect(bob, "friend", carol);
        let rid = sys.share(alice);
        sys.allow(rid, "friend+[1,2]").unwrap();
        let lines = sys
            .service()
            .explain_lines(rid, carol)
            .unwrap()
            .expect("granted");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("Alice"));
        assert!(lines[0].contains("-friend->"));
        assert!(lines[0].ends_with("Carol"), "{}", lines[0]);
        assert!(sys.service().explain_lines(rid, bob).unwrap().is_some());
        assert_eq!(
            sys.service().explain_lines(rid, alice).unwrap().unwrap()[0],
            "Alice owns the resource"
        );
    }

    #[test]
    fn appends_republish_shards_incrementally() {
        let (mut sys, rid) = populated(2);
        let dave = sys.user("Dave").unwrap();
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        let epochs_before = sys.snapshot_epochs();
        assert!(epochs_before.iter().all(|&e| e >= 1), "reads published");
        let alice = sys.user("Alice").unwrap();
        sys.connect(alice, "friend", dave);
        assert_eq!(
            sys.service().check(rid, dave).unwrap(),
            Decision::Grant,
            "post-append reads see the new edge"
        );
        let epochs_after = sys.snapshot_epochs();
        assert!(
            epochs_after.iter().zip(&epochs_before).any(|(a, b)| a > b),
            "the touched shard republished"
        );
    }

    #[test]
    fn cache_and_batch_mirror_the_facade() {
        let (sys, rid) = populated(3);
        let bob = sys.user("Bob").unwrap();
        let dave = sys.user("Dave").unwrap();
        sys.service().check(rid, bob).unwrap();
        sys.service().check(rid, bob).unwrap();
        assert_eq!(sys.service().cache_stats(), (1, 1));
        let requests: Vec<_> = (0..30)
            .map(|i| (rid, if i % 2 == 0 { bob } else { dave }))
            .collect();
        let sequential: Vec<Decision> = requests
            .iter()
            .map(|&(r, u)| sys.service().check(r, u).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                sys.service().check_batch(&requests, threads).unwrap(),
                sequential
            );
        }
        assert!(matches!(
            sys.service().check(ResourceId(99), bob),
            Err(EvalError::UnknownResource(99))
        ));
    }

    #[test]
    fn from_graph_preserves_ids_and_decisions() {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        g.connect(a, "friend", b);
        g.connect(b, "colleague", c);
        g.set_node_attr(c, "age", 44i64);
        let mut store = PolicyStore::new();
        let rid = store.register_resource(a);
        store
            .allow(rid, "friend+[1]/colleague+[1]{age>=40}", &mut g)
            .unwrap();

        let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(3, 1));
        sys.adopt_store(store.clone());
        assert_eq!(sys.num_members(), 3);
        assert_eq!(sys.num_edges(), 2);
        assert_eq!(sys.user("Carol").unwrap(), c);
        assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Grant);
        assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Deny);
        let audience = sys.service().audience(rid).unwrap();
        assert_eq!(audience, vec![a, c]);
    }

    #[test]
    fn ghost_attributes_stay_synchronized() {
        // Predicate at a boundary member: the ghost replica must see
        // attribute updates made after the ghost materialized.
        let a = ShardAssignment::explicit(2, 0, vec![("A".into(), 0), ("B".into(), 1)]);
        let mut sys = ShardedSystem::with_assignment(a);
        let x = sys.add_user("A");
        let y = sys.add_user("B");
        sys.connect(x, "friend", y); // materializes ghosts
        sys.set_user_attr(y, "age", 20i64); // after ghost creation
        let rid = sys.share(x);
        sys.allow(rid, "friend+[1]{age>=30}").unwrap();
        assert_eq!(sys.service().check(rid, y).unwrap(), Decision::Deny);
        sys.set_user_attr(y, "age", 35i64);
        assert_eq!(sys.service().check(rid, y).unwrap(), Decision::Grant);
        let lines = sys
            .service()
            .explain_lines(rid, y)
            .unwrap()
            .expect("granted");
        assert_eq!(lines[0], "A -friend-> B");
    }
}
