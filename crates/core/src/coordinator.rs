//! The partitioned coordinator: one design for both sharded
//! deployments.
//!
//! [`Partitioned`] hash-partitions the members of one social graph
//! across N shards ([`ShardAssignment`], deterministic and seedable) and
//! serves [`AccessService`] and [`MutateService`] over them, through one
//! `ShardLink` per shard: in process ([`crate::ShardedSystem`]) or over
//! a socket ([`crate::NetworkedSystem`]).
//!
//! A member lives on one **home shard**. A relationship between members
//! of two shards is a **boundary edge**: an entry of the edge log whose
//! endpoints have different home shards, replicated into both shards
//! against a *ghost* copy of the remote endpoint, which carries the
//! member's attributes but is never reported as an audience member. The
//! coordinator keeps placement, names, ghost lists, the edge log and the
//! policy store; what a shard holds — its graph and id tables, and
//! for a remote shard the attribute tuples that seed new ghosts and the
//! op log that revives a restarted server — stays behind its link.
//!
//! Every read is one round-based masked fixpoint over the links' lanes
//! (`crate::fixpoint`): a bundle runs one per 64-condition chunk of its
//! shared-prefix plan, a `check` one early-exiting 1-bit fixpoint of its
//! condition's one-path plan, an `explain` the same with parent
//! tracking, stitched into a witness off the lanes' parent chains.
//!
//! A write updates the metadata here and hands the shards' part to the
//! links as typed, append-only writes. In process they apply at once;
//! over the wire they are staged and committed in epochs of at most
//! [`crate::remote::MAX_EPOCH_OPS`] shard ops, and when an epoch cannot
//! commit the coordinator rolls back to the last committed op ([`Mark`])
//! — so on `Err` nothing changed, save for a mutation of more shard ops
//! than one epoch carries, which keeps the epochs it committed.

use crate::decision::{self, DecisionCache, Ground};
use crate::error::EvalError;
use crate::fixpoint;
use crate::link::{Program, ShardLink, Write};
use crate::path::PathExpr;
use crate::policy::{AccessCondition, PolicyStore};
use crate::query::BundlePlan;
use crate::service::{
    AccessResponse, AccessService, Applied, BundleStrategy, CheckPlan, MutateService, Mutation,
    ReadBatch, ReadStats, WalkHop,
};
use socialreach_graph::shard::ShardAssignment;
use socialreach_graph::{AttrKey, AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::collections::HashMap;

/// Work census of one batched bundle evaluation (the masked
/// cross-shard fixpoint), before it becomes the uniform [`ReadStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct BundleFixpointStats {
    /// Masked fixpoints run: one per 64-condition chunk of the shared
    /// trie plan — *not* one per condition.
    pub fixpoints: usize,
    /// Fixpoint rounds across all of them.
    pub rounds: usize,
    /// Product states expanded per shard, cumulative across the whole
    /// bundle. Persistence of per-shard mask state across rounds keeps
    /// this linear in the explored region per condition bit.
    pub states_expanded: Vec<usize>,
    /// Masked boundary exports the driver forwarded.
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

/// How far the coordinator's append-only metadata reached when a write
/// was made: the point a failed flush rolls it back to.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mark {
    members: usize,
    ghosts: usize,
    edges: usize,
}

impl Mark {
    /// Members registered as of the mark.
    pub(crate) fn members(&self) -> usize {
        self.members
    }
}

/// Where a member lives, and the shards holding a ghost of them, oldest
/// first.
struct Member {
    home: u32,
    ghosts: Vec<u32>,
}

/// The partitioned serving façade over N shards reached through links
/// of type `L` (see the module docs). Use it as
/// [`crate::ShardedSystem`] or [`crate::NetworkedSystem`].
pub struct Partitioned<L: ShardLink> {
    assignment: ShardAssignment,
    /// Master vocabulary; every shard interns the same names in the
    /// same order, so `LabelId`/`AttrKey` values agree everywhere.
    vocab: Vocabulary,
    pub(crate) links: Vec<L>,
    pub(crate) fleet: L::Fleet,
    members: Vec<Member>,
    names: Vec<String>,
    /// First-registration-wins name lookup (mirrors
    /// [`SocialGraph::node_by_name`]).
    name_lookup: HashMap<String, NodeId>,
    /// The member of each ghost made, in order (rollback pops them).
    ghost_log: Vec<u32>,
    store: PolicyStore,
    /// Global edge log `(src, label, dst)` in insertion order.
    edges: Vec<(NodeId, LabelId, NodeId)>,
    decisions: DecisionCache,
}

impl<L: ShardLink> Partitioned<L> {
    /// An empty deployment over `links`, one per shard of `assignment`.
    pub(crate) fn over(assignment: ShardAssignment, links: Vec<L>, fleet: L::Fleet) -> Self {
        assert_eq!(
            links.len(),
            assignment.shards() as usize,
            "one link per shard of the placement"
        );
        Partitioned {
            assignment,
            vocab: Vocabulary::new(),
            links,
            fleet,
            members: Vec::new(),
            names: Vec::new(),
            name_lookup: HashMap::new(),
            ghost_log: Vec::new(),
            store: PolicyStore::new(),
            edges: Vec::new(),
            decisions: DecisionCache::default(),
        }
    }

    /// Loads `g`: same member ids (insertion order), same label and
    /// attribute-key ids (the master vocabulary is `g`'s), same edge
    /// order, flushing each time a batch of shard writes is staged.
    pub(crate) fn load(mut self, g: &SocialGraph) -> Result<Self, L::Error> {
        self.vocab = g.vocab().clone();
        // A graph decoded without its lookups lends a vocabulary that
        // resolves no name; a rule naming a loaded label must find it.
        self.vocab.rebuild_lookups();
        L::sync_vocab(&mut self.links, &self.vocab);
        for v in g.nodes() {
            let member = self.add_member(g.node_name(v));
            debug_assert_eq!(member, v, "ingestion preserves member ids");
            for (key, value) in g.node_attrs(v).iter() {
                self.set_attr(member, key, value);
            }
            self.flush(false)?;
        }
        for (_, rec) in g.edges() {
            self.add_edge(rec.src, rec.label, rec.dst);
            self.flush(false)?;
        }
        self.flush(true)?;
        Ok(self)
    }

    /// The deployment's state as one graph, the inverse of loading one
    /// ([`crate::ShardedSystem::from_graph`]): the master vocabulary, the
    /// members in id order with their names and their home copies'
    /// attributes, and the edge log in insertion order. Built on each call — the shards hold
    /// the topology, so there is no global graph to lend.
    pub(crate) fn export_graph(&self) -> SocialGraph {
        let mut g = SocialGraph::new();
        *g.vocab_mut() = self.vocab.clone();
        for (name, m) in self.names.iter().zip(&self.members) {
            let member = g.add_node(name);
            for (key, value) in L::attrs(&self.links, &self.fleet, m.home, member).iter() {
                g.set_node_attr_key(member, key, value.clone());
            }
        }
        for &(src, label, dst) in &self.edges {
            g.add_edge(src, dst, label);
        }
        g
    }

    /// Adopts a policy store built against the graph this deployment
    /// was loaded from (ids align by construction).
    pub fn adopt_store(&mut self, store: PolicyStore) {
        self.decisions.clear();
        self.store = store;
    }

    /// The placement function.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.links.len()
    }

    /// Number of registered members (ghosts not counted).
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

    /// Parses a policy in either syntax against the master vocabulary.
    pub fn parse(&mut self, text: &str) -> Result<PathExpr, EvalError> {
        let path = crate::query::parse_policy(text, &mut self.vocab)?;
        L::sync_vocab(&mut self.links, &self.vocab);
        Ok(path)
    }

    /// This backend as a deployment-agnostic read service.
    pub fn service(&self) -> &dyn AccessService {
        self
    }

    // ------------------------------------------------------------------
    // Writes: metadata here, the shards' part through the links
    // ------------------------------------------------------------------

    fn mark(&self) -> Mark {
        Mark {
            members: self.members.len(),
            ghosts: self.ghost_log.len(),
            edges: self.edges.len(),
        }
    }

    fn write(&mut self, write: Write<'_>) {
        let mark = self.mark();
        L::write(&mut self.links, &mut self.fleet, &self.vocab, write, mark);
    }

    /// Registers a member on their hash-assigned home shard.
    fn add_member(&mut self, name: &str) -> NodeId {
        let member = NodeId::from_index(self.members.len());
        let home = self.assignment.shard_of(name);
        self.members.push(Member {
            home,
            ghosts: Vec::new(),
        });
        self.names.push(name.to_owned());
        self.name_lookup.entry(name.to_owned()).or_insert(member);
        let mark = self.mark();
        let write = Write::Node {
            shard: home,
            member,
            name,
            home: None,
        };
        L::write(&mut self.links, &mut self.fleet, &self.vocab, write, mark);
        member
    }

    /// Sets a member attribute on the home copy **and every ghost**.
    fn set_attr(&mut self, member: NodeId, key: AttrKey, value: &AttrValue) {
        let mark = self.mark();
        let m = &self.members[member.index()];
        let write = Write::Attr {
            member,
            home: m.home,
            ghosts: &m.ghosts,
            key,
            value,
        };
        L::write(&mut self.links, &mut self.fleet, &self.vocab, write, mark);
    }

    /// Adds a directed relationship: on the shared home shard, or on
    /// both endpoint shards against ghosts (made as needed). The edge
    /// counts once its last copy is written.
    fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) {
        let (s_home, d_home) = (self.member_shard(src), self.member_shard(dst));
        if s_home != d_home {
            self.ensure_ghost(dst, s_home);
            self.ensure_ghost(src, d_home);
            self.write(Write::Edge {
                shard: s_home,
                src,
                label,
                dst,
            });
        }
        self.edges.push((src, label, dst));
        self.write(Write::Edge {
            shard: d_home,
            src,
            label,
            dst,
        });
    }

    /// Makes the ghost of `member` on `shard`, unless it exists.
    fn ensure_ghost(&mut self, member: NodeId, shard: u32) {
        let m = &mut self.members[member.index()];
        if m.ghosts.contains(&shard) {
            return;
        }
        m.ghosts.push(shard);
        let home = m.home;
        self.ghost_log.push(member.0);
        let mark = self.mark();
        let write = Write::Node {
            shard,
            member,
            name: &self.names[member.index()],
            home: Some(home),
        };
        L::write(&mut self.links, &mut self.fleet, &self.vocab, write, mark);
    }

    /// Flushes the links' staged writes; on failure rolls the metadata
    /// back to the last write they made visible.
    fn flush(&mut self, all: bool) -> Result<(), L::Error> {
        let (err, to) = match L::flush(&mut self.links, &mut self.fleet, &self.vocab, all) {
            Ok(()) => return Ok(()),
            Err(failed) => failed,
        };
        let first_dropped = NodeId::from_index(to.members);
        for name in self.names.drain(to.members..) {
            if self
                .name_lookup
                .get(&name)
                .is_some_and(|&m| m >= first_dropped)
            {
                self.name_lookup.remove(&name);
            }
        }
        self.members.truncate(to.members);
        for member in self.ghost_log.drain(to.ghosts..).rev() {
            if let Some(m) = self.members.get_mut(member as usize) {
                m.ghosts.pop();
            }
        }
        self.edges.truncate(to.edges);
        Err(err)
    }

    // ------------------------------------------------------------------
    // Reads: the masked fixpoint over the links' lanes
    // ------------------------------------------------------------------

    fn home_of(&self, member: u32) -> usize {
        self.members[member as usize].home as usize
    }

    /// The batched bundle fixpoint: the distinct `(owner, path)`
    /// conditions compile into one shared-prefix plan and each
    /// 64-condition chunk of it runs **one** fixpoint. Returns each
    /// condition's audience (global ids, sorted) in `conds` order, and
    /// the work census.
    pub(crate) fn bundle(
        &self,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, BundleFixpointStats), L::Error> {
        fixpoint::bundle_audiences(conds, self.links.len(), |plan, masks, word, seeds| {
            let program = Program {
                plan,
                masks,
                word,
                one_path: false,
                parents: false,
            };
            fixpoint::masked_fixpoint(
                &mut L::lanes(&self.links, &self.fleet, &self.vocab, program),
                |m| self.home_of(m),
                seeds,
                None,
                |_, run| Ok(run),
            )
        })
    }

    /// [`Partitioned::bundle`] as a read: retried as the link allows,
    /// with the uniform census.
    fn bundle_read(
        &self,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let (audiences, stats) = L::read(|| self.bundle(conds))?;
        Ok((audiences, stats.read_stats(conds.len())))
    }

    /// The targeted read: does `requester` satisfy `(owner, path)`? The
    /// condition runs as a 1-bit fixpoint (bit 0, word 0) of its
    /// one-path plan that **early-exits** on the requester's home shard.
    /// Returns `Some(walk)` on a grant: with `witness` every lane tracks
    /// first-arrival parents and the walk is stitched off them while the
    /// lanes are open; without it nothing is tracked and the walk is
    /// empty.
    pub(crate) fn targeted(
        &self,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
        witness: bool,
    ) -> Result<(Option<Vec<WalkHop>>, ReadStats), L::Error> {
        let mut stats = ReadStats {
            conditions: 1,
            traversals: 1,
            ..ReadStats::default()
        };
        if path.is_empty() {
            return Ok(((requester == owner).then(Vec::new), stats));
        }
        let plan = BundlePlan::compile(&[path]).expect("a parsed path fits a plan");
        let masks = plan.chunk_masks(&[0]);
        let program = Program {
            plan: &plan,
            masks: &masks,
            word: 0,
            one_path: true,
            parents: witness,
        };
        let mut lanes = L::lanes(&self.links, &self.fleet, &self.vocab, program);
        fixpoint::masked_fixpoint(
            &mut lanes,
            |m| self.home_of(m),
            &[fixpoint::owner_seed(owner)],
            Some((self.home_of(requester.0), requester.0)),
            |lanes, run| {
                run.add_to(&mut stats);
                let walk = match run.hit {
                    Some((lane, step, depth)) if witness => {
                        let at = (lane, requester.0, step, depth);
                        Some(fixpoint::stitch(lanes, &run.origin, owner, at)?)
                    }
                    hit => hit.map(|_| Vec::new()),
                };
                Ok((walk, stats))
            },
        )
    }
}

/// A lone check is cheaper through the early-exiting targeted fixpoint;
/// anything larger materializes the touched resources' audiences in
/// **one** masked fixpoint per bundle and decides by membership.
fn default_check_plan(len: usize) -> CheckPlan {
    if len <= 1 {
        CheckPlan::Targeted
    } else {
        CheckPlan::Audience(BundleStrategy::Batched)
    }
}

/// How both partitioned backends evaluate conditions: one condition for
/// a requester is the early-exiting targeted fixpoint (a witness walk
/// the same with parent tracking), a bundle the masked fixpoint of its
/// shared-prefix plan, each run as the link's read (over the wire: with
/// one whole-read retry). Checks run on the caller's thread.
impl<L: ShardLink> decision::Evaluate for Partitioned<L> {
    type Pin = ();

    fn ground(&self) -> Ground<'_> {
        Ground {
            members: self.members.len(),
            store: &self.store,
            vocab: &self.vocab,
            cache: &self.decisions,
            default_check_plan,
            fans_out: false,
        }
    }

    fn pin(&self) {}

    /// Without the parent tracking and stitching only a witness needs.
    fn satisfied(
        &self,
        _: &(),
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(bool, ReadStats), EvalError> {
        let (walk, s) = L::read(|| self.targeted(cond.owner, &cond.path, requester, false))?;
        Ok((walk.is_some(), s))
    }

    fn walk(
        &self,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(Option<Vec<WalkHop>>, ReadStats), EvalError> {
        L::read(|| self.targeted(cond.owner, &cond.path, requester, true))
    }

    /// `PerCondition` runs each condition's one-path plan alone; a plan
    /// of one condition shares nothing, so there is no plan census.
    fn audiences(
        &self,
        conds: &[(NodeId, &PathExpr)],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        if strategy == BundleStrategy::Batched {
            return self.bundle_read(conds);
        }
        let (mut audiences, mut total) = (Vec::with_capacity(conds.len()), ReadStats::default());
        for &cond in conds {
            let (mut audience, s) = self.bundle_read(&[cond])?;
            total.absorb(&ReadStats {
                plan_states: 0,
                expr_states: 0,
                ..s
            });
            audiences.push(audience.pop().expect("one audience per condition"));
        }
        Ok((audiences, total))
    }
}

/// The deployment-agnostic read surface of both partitioned backends:
/// every read runs the shared decision layer over the coordinator.
impl<L: ShardLink> AccessService for Partitioned<L> {
    fn read(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError> {
        decision::read(self, batch)
    }

    fn describe(&self) -> String {
        format!("{}(n={})", L::KIND, self.links.len())
    }

    fn num_members(&self) -> usize {
        self.members.len()
    }

    fn num_relationships(&self) -> usize {
        self.edges.len()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        &self.names[member.index()]
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.vocab.label_name(label)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.decisions.stats()
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        default_check_plan(len)
    }
}

/// The deployment-agnostic write surface of both partitioned backends:
/// after the validation every backend runs, a topology write updates
/// the metadata and reaches the shards through the links; resources
/// and rules are the coordinator's alone. On `Err` — an unknown id, a
/// rejected rule, shards that could not take the write
/// ([`EvalError::Remote`]) — nothing changed (see the module docs for
/// the one exception).
impl<L: ShardLink> MutateService for Partitioned<L> {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        m.validate(self.members.len())?;
        let applied = match m {
            Mutation::AddUser { name } => Applied::Member(self.add_member(name)),
            Mutation::SetUserAttr { user, key, value } => {
                let key = self.vocab.intern_attr(key);
                L::sync_vocab(&mut self.links, &self.vocab);
                self.set_attr(*user, key, value);
                Applied::Done
            }
            Mutation::AddRelationship { src, label, dst } => {
                let label = self.vocab.intern_label(label);
                L::sync_vocab(&mut self.links, &self.vocab);
                self.add_edge(*src, label, *dst);
                Applied::Done
            }
            Mutation::AddResource { owner } => {
                Applied::Resource(self.store.register_resource(*owner))
            }
            Mutation::AddRule { resource, path } => {
                self.store.allow_in(*resource, path, &mut self.vocab)?;
                L::sync_vocab(&mut self.links, &self.vocab);
                Applied::Done
            }
        };
        self.flush(true).map_err(Into::into)?;
        self.decisions.clear();
        Ok(applied)
    }
}
