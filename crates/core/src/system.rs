//! `AccessControlSystem` — the single-graph serving backend: members,
//! relationships, shared resources, textual policies, and enforced
//! access checks with pluggable engines. Reads are served through the
//! deployment-agnostic [`AccessService`] trait (the inherent read
//! methods are deprecated one-line forwards onto it), writes through
//! [`MutateService`]; construct one via
//! [`crate::service::Deployment::single`] to stay backend-agnostic.
//!
//! # Read/write split and the publication lifecycle
//!
//! Every **read** — [`check`](AccessControlSystem::check),
//! [`check_batch`](AccessControlSystem::check_batch),
//! [`audience`](AccessControlSystem::audience),
//! [`audience_batch`](AccessControlSystem::audience_batch),
//! [`explain`](AccessControlSystem::explain) — takes `&self`, so any
//! number of requester threads can evaluate concurrently against one
//! system (e.g. through `std::thread::scope`). Reads share the
//! epoch-published [`CsrSnapshot`] held by the wrapped [`Enforcer`]:
//! each read clones the current epoch's `Arc` and traverses the
//! immutable index lock-free. Every **mutation** — adding members,
//! relationships, resources or rules — takes `&mut self`, guaranteeing
//! exclusivity, and only *stales* derived state: the decision caches
//! drop immediately, while the published snapshot is retained so the
//! next read can republish it **incrementally**
//! ([`CsrSnapshot::apply_edge_appends`] — the system owns its graph,
//! so the append-only lineage the patch requires holds by
//! construction). The lazily built join index is dropped and rebuilt
//! on the next indexed read, as in the paper's static-graph model.
//!
//! [`CsrSnapshot`]: socialreach_graph::csr::CsrSnapshot
//! [`CsrSnapshot::apply_edge_appends`]: socialreach_graph::csr::CsrSnapshot::apply_edge_appends

use crate::engine::{AccessEngine, Enforcer, OnlineEngine};
use crate::error::EvalError;
use crate::joinengine::{JoinEngineConfig, JoinIndexEngine};
use crate::online;
use crate::path::PathExpr;
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::query::{parse_policy, parse_queries_readonly};
use crate::service::{
    AccessService, BundleStrategy, CheckPlan, Explanation, MutateService, ReadStats, WalkHop,
    WitnessWalk,
};
use parking_lot::RwLock;
use socialreach_graph::{AttrValue, EdgeId, LabelId, NodeId, SocialGraph};
use std::sync::Arc;

/// Which engine evaluates access conditions.
#[derive(Clone, Copy, Debug)]
pub enum EngineChoice {
    /// Constrained product BFS per request (no precomputation).
    Online,
    /// The §3 line-graph cluster join index (built lazily, rebuilt after
    /// mutations).
    JoinIndex(JoinEngineConfig),
}

/// High-level access-control façade (see the module docs for the
/// `&self` read path / `&mut self` write path contract).
pub struct AccessControlSystem {
    graph: SocialGraph,
    store: PolicyStore,
    choice: EngineChoice,
    join: RwLock<Option<Arc<Enforcer<JoinIndexEngine>>>>,
    online: Enforcer<OnlineEngine>,
}

impl AccessControlSystem {
    /// A system evaluating requests online (good default for evolving
    /// graphs).
    pub fn new_online() -> Self {
        Self::new(EngineChoice::Online)
    }

    /// A system evaluating requests through the join index (good for
    /// read-mostly graphs).
    pub fn new_indexed() -> Self {
        Self::new(EngineChoice::JoinIndex(JoinEngineConfig::default()))
    }

    /// A system with an explicit engine choice.
    pub fn new(choice: EngineChoice) -> Self {
        AccessControlSystem {
            graph: SocialGraph::new(),
            store: PolicyStore::new(),
            choice,
            join: RwLock::new(None),
            // The system owns its graph and routes every mutation, so
            // the append-only lineage incremental publication needs is
            // guaranteed by construction.
            online: Enforcer::new(OnlineEngine).with_append_publication(),
        }
    }

    /// A system serving a copy of an existing graph: same member ids,
    /// same label/attr-key ids, same edge order. A policy store built
    /// against `g` can then be adopted verbatim with
    /// [`AccessControlSystem::adopt_store`] (the mirror of
    /// [`crate::ShardedSystem::from_graph`], so
    /// [`crate::service::Deployment::from_graph`] stands either backend
    /// up over one shared workload).
    pub fn from_graph(g: &SocialGraph, choice: EngineChoice) -> Self {
        let mut sys = Self::new(choice);
        sys.graph = g.clone();
        sys
    }

    /// Adopts a policy store built against the graph this system was
    /// ingested from ([`AccessControlSystem::from_graph`] — ids align
    /// by construction).
    pub fn adopt_store(&mut self, store: PolicyStore) {
        self.dirty();
        self.store = store;
    }

    /// This backend as a deployment-agnostic read service (the
    /// [`AccessService`] all read callers should migrate to).
    pub fn service(&self) -> &dyn AccessService {
        self
    }

    // ------------------------------------------------------------------
    // Graph management (mutations invalidate caches/indexes)
    // ------------------------------------------------------------------

    /// Registers a member.
    pub fn add_user(&mut self, name: &str) -> NodeId {
        self.dirty();
        self.graph.add_node(name)
    }

    /// Sets a member attribute.
    pub fn set_user_attr(&mut self, user: NodeId, key: &str, value: impl Into<AttrValue>) {
        self.dirty();
        self.graph.set_node_attr(user, key, value);
    }

    /// Adds a directed relationship.
    pub fn connect(&mut self, src: NodeId, label: &str, dst: NodeId) -> EdgeId {
        self.dirty();
        self.graph.connect(src, label, dst)
    }

    /// Adds a mutual relationship (both directions), as platforms model
    /// symmetric friendship.
    pub fn connect_mutual(&mut self, a: NodeId, label: &str, b: NodeId) -> (EdgeId, EdgeId) {
        self.dirty();
        let e1 = self.graph.connect(a, label, b);
        let e2 = self.graph.connect(b, label, a);
        (e1, e2)
    }

    /// Looks a member up by name.
    pub fn user(&self, name: &str) -> Result<NodeId, EvalError> {
        Ok(self.graph.require_node(name)?)
    }

    /// Read-only view of the social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Read-only view of the policy store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    // ------------------------------------------------------------------
    // Resources and policies
    // ------------------------------------------------------------------

    /// Registers a resource owned by `owner`. New resources are private.
    pub fn share(&mut self, owner: NodeId) -> ResourceId {
        self.dirty();
        self.store.register_resource(owner)
    }

    /// Attaches a rule granting access along `path_text` (e.g.
    /// `"friend+[1,2]/colleague+[1]"`) to the resource's audience.
    pub fn allow(&mut self, rid: ResourceId, path_text: &str) -> Result<(), EvalError> {
        self.dirty();
        self.store.allow(rid, path_text, &mut self.graph)
    }

    // ------------------------------------------------------------------
    // Enforcement (the `&self` read path)
    // ------------------------------------------------------------------

    /// The lazily built join-index enforcer (double-checked so
    /// concurrent cold readers build it once).
    ///
    /// # Panics
    /// Panics when called under [`EngineChoice::Online`].
    fn join_enforcer(&self) -> Arc<Enforcer<JoinIndexEngine>> {
        let EngineChoice::JoinIndex(cfg) = self.choice else {
            unreachable!("join enforcer requested under the online choice")
        };
        if let Some(join) = self.join.read().as_ref() {
            return Arc::clone(join);
        }
        let mut slot = self.join.write();
        if let Some(join) = slot.as_ref() {
            return Arc::clone(join);
        }
        let fresh = Arc::new(Enforcer::new(JoinIndexEngine::build(&self.graph, cfg)));
        *slot = Some(Arc::clone(&fresh));
        fresh
    }

    /// Decides whether `requester` may access `rid`.
    #[deprecated(since = "0.2.0", note = "read through the `AccessService` trait")]
    pub fn check(&self, rid: ResourceId, requester: NodeId) -> Result<Decision, EvalError> {
        AccessService::check(self, rid, requester)
    }

    /// Decides a batch of requests on up to `threads` worker threads
    /// sharing the current snapshot epoch; decisions come back in
    /// request order ([`Enforcer::check_batch`]).
    #[deprecated(since = "0.2.0", note = "read through the `AccessService` trait")]
    pub fn check_batch(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<Vec<Decision>, EvalError> {
        AccessService::check_batch(self, requests, threads)
    }

    /// The full audience of a resource: the union over rules of the
    /// intersection over each rule's conditions (plus the owner).
    #[deprecated(since = "0.2.0", note = "read through the `AccessService` trait")]
    pub fn audience(&self, rid: ResourceId) -> Result<Vec<NodeId>, EvalError> {
        AccessService::audience(self, rid)
    }

    /// Audiences of a whole bundle of resources at once (a feed of
    /// posts, an album), in `rids` order.
    #[deprecated(since = "0.2.0", note = "read through the `AccessService` trait")]
    pub fn audience_batch(&self, rids: &[ResourceId]) -> Result<Vec<Vec<NodeId>>, EvalError> {
        AccessService::audience_batch(self, rids)
    }

    /// Number of snapshot publications the online enforcer has made
    /// (each rebuild or incremental patch is one epoch).
    pub fn snapshot_epoch(&self) -> u64 {
        self.online.snapshot_epoch()
    }

    /// Explains a grant as human-readable walk lines, or `None` when
    /// access is denied.
    #[deprecated(since = "0.2.0", note = "read through the `AccessService` trait")]
    pub fn explain(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<Option<Vec<String>>, EvalError> {
        AccessService::explain_lines(self, rid, requester)
    }

    /// Parses a policy in either syntax — classic path notation or the
    /// openCypher-flavored `MATCH` grammar — against this system's
    /// vocabulary (exposed for examples and tests).
    pub fn parse(&mut self, text: &str) -> Result<crate::path::PathExpr, EvalError> {
        Ok(parse_policy(text, self.graph.vocab_mut())?)
    }

    /// Decision-cache statistics of the active engine `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        match self.choice {
            EngineChoice::Online => self.online.cache_stats(),
            EngineChoice::JoinIndex(_) => self
                .join
                .read()
                .as_ref()
                .map(|e| e.cache_stats())
                .unwrap_or((0, 0)),
        }
    }

    fn dirty(&mut self) {
        // Decisions are stale after any mutation, but the published CSR
        // snapshot is *kept* as the next epoch's base: the system's
        // mutations are all appends or attribute/policy writes, so the
        // next read either revalidates it (non-topology writes) or
        // patches it incrementally (appends). The join index has no
        // incremental path; drop it and rebuild lazily.
        self.online.invalidate_decisions();
        *self.join.get_mut() = None;
    }
}

/// The deployment-agnostic read surface: this impl block is the **one
/// place** the single-graph backend's reads live (the deprecated
/// inherent methods forward here).
impl AccessService for AccessControlSystem {
    fn describe(&self) -> String {
        match self.choice {
            EngineChoice::Online => "single(online-bfs)".to_owned(),
            EngineChoice::JoinIndex(_) => "single(join-index)".to_owned(),
        }
    }

    fn num_members(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_relationships(&self) -> usize {
        self.graph.num_edges()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        self.graph.node_name(member)
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.graph.vocab().label_name(label)
    }

    fn check(&self, rid: ResourceId, requester: NodeId) -> Result<Decision, EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .check_access(&self.graph, &self.store, rid, requester)
            }
            EngineChoice::JoinIndex(_) => {
                self.join_enforcer()
                    .check_access(&self.graph, &self.store, rid, requester)
            }
        }
    }

    fn check_batch(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<Vec<Decision>, EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .check_batch(&self.graph, &self.store, requests, threads)
            }
            EngineChoice::JoinIndex(_) => {
                self.join_enforcer()
                    .check_batch(&self.graph, &self.store, requests, threads)
            }
        }
    }

    /// Under the online engine the bundle's distinct conditions are
    /// deduped and every set of owners sharing a path template
    /// traverses the shared snapshot together in one multi-source pass
    /// — the batch-audience workload this system is built around.
    fn audience_batch_with_stats(
        &self,
        rids: &[ResourceId],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .audience_batch_with_stats(&self.graph, &self.store, rids)
            }
            EngineChoice::JoinIndex(_) => {
                self.join_enforcer()
                    .audience_batch_with_stats(&self.graph, &self.store, rids)
            }
        }
    }

    /// Ad-hoc query bundles always run on the online engine over the
    /// published snapshot — they are one-shot reads, so the join
    /// index's precomputation has nothing to amortize. Parsing is
    /// read-only against the system's vocabulary: a query mentioning a
    /// never-seen relationship type or attribute is unsatisfiable and
    /// reports an empty audience without ever touching the graph.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        let texts: Vec<&str> = queries.iter().map(|&(_, t)| t).collect();
        let parsed = parse_queries_readonly(&texts, self.graph.vocab())?;
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); queries.len()];
        let mut conds: Vec<(NodeId, &PathExpr)> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        for (i, path) in parsed.iter().enumerate() {
            if let Some(path) = path {
                conds.push((queries[i].0, path));
                slots.push(i);
            }
        }
        if conds.is_empty() {
            return Ok(out);
        }
        match self.online.publish_snapshot(&self.graph) {
            Some(snap) => {
                let (audiences, _) =
                    OnlineEngine.audience_batch_with_snapshot(&self.graph, &snap, &conds)?;
                for (slot, audience) in slots.into_iter().zip(audiences) {
                    out[slot] = audience;
                }
            }
            None => {
                // Edge-free graph: nothing to publish, nothing to walk.
                for (slot, &(owner, path)) in slots.into_iter().zip(&conds) {
                    if path.is_empty() {
                        out[slot] = vec![owner];
                    }
                }
            }
        }
        Ok(out)
    }

    /// Always uses the online engine (the join index does not keep
    /// witnesses).
    fn explain(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<Option<Explanation>, EvalError> {
        Ok(self.explain_with_stats(rid, requester)?.0)
    }

    fn cache_stats(&self) -> (u64, u64) {
        AccessControlSystem::cache_stats(self)
    }

    fn check_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .check_access_with_stats(&self.graph, &self.store, rid, requester)
            }
            EngineChoice::JoinIndex(_) => self.join_enforcer().check_access_with_stats(
                &self.graph,
                &self.store,
                rid,
                requester,
            ),
        }
    }

    fn check_batch_with_stats(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .check_batch_with_stats(&self.graph, &self.store, requests, threads)
            }
            EngineChoice::JoinIndex(_) => self.join_enforcer().check_batch_with_stats(
                &self.graph,
                &self.store,
                requests,
                threads,
            ),
        }
    }

    fn explain_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        let mut stats = ReadStats::default();
        let owner = self.store.owner_of(rid)?;
        if requester == owner {
            return Ok((Some(Explanation::Ownership { owner }), stats));
        }
        let rules = self.store.rules_for(rid).to_vec();
        'rules: for rule in &rules {
            if rule.conditions.is_empty() {
                continue;
            }
            let mut walks = Vec::new();
            for cond in &rule.conditions {
                let out = online::evaluate(&self.graph, cond.owner, &cond.path, Some(requester));
                stats.conditions += 1;
                stats.traversals += 1;
                stats.rounds += 1;
                stats.states_expanded += out.stats.states_visited;
                let Some(witness) = out.witness else {
                    continue 'rules;
                };
                let mut hops = Vec::with_capacity(witness.len());
                let mut at = cond.owner;
                for (eid, forward) in witness {
                    let rec = self.graph.edge(eid);
                    hops.push(WalkHop {
                        src: rec.src,
                        dst: rec.dst,
                        label: rec.label,
                        forward,
                    });
                    at = if forward { rec.dst } else { rec.src };
                }
                debug_assert_eq!(at, requester);
                walks.push(WitnessWalk {
                    start: cond.owner,
                    hops,
                });
            }
            return Ok((Some(Explanation::Rule { walks }), stats));
        }
        Ok((None, stats))
    }

    fn stats_supported(&self) -> bool {
        true
    }

    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        match self.choice {
            EngineChoice::Online => {
                self.online
                    .audience_batch_forced(&self.graph, &self.store, rids, strategy)
            }
            EngineChoice::JoinIndex(_) => {
                self.join_enforcer()
                    .audience_batch_forced(&self.graph, &self.store, rids, strategy)
            }
        }
    }

    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        match plan {
            CheckPlan::Targeted => self.check_batch_with_stats(requests, threads),
            CheckPlan::Audience(strategy) => match self.choice {
                EngineChoice::Online => self.online.check_batch_via_audiences(
                    &self.graph,
                    &self.store,
                    requests,
                    strategy,
                ),
                EngineChoice::JoinIndex(_) => self.join_enforcer().check_batch_via_audiences(
                    &self.graph,
                    &self.store,
                    requests,
                    strategy,
                ),
            },
        }
    }
}

/// The deployment-agnostic write surface (thin forwards onto the richer
/// inherent mutators, which remain for callers that want `EdgeId`s or
/// `impl Into<AttrValue>` ergonomics).
impl MutateService for AccessControlSystem {
    fn add_user(&mut self, name: &str) -> NodeId {
        AccessControlSystem::add_user(self, name)
    }

    fn set_user_attr(&mut self, user: NodeId, key: &str, value: AttrValue) {
        AccessControlSystem::set_user_attr(self, user, key, value);
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

    fn populated(choice: EngineChoice) -> (AccessControlSystem, ResourceId) {
        let mut sys = AccessControlSystem::new(choice);
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
    fn online_and_indexed_agree_end_to_end() {
        for choice in [
            EngineChoice::Online,
            EngineChoice::JoinIndex(JoinEngineConfig::default()),
        ] {
            let (sys, rid) = populated(choice);
            let bob = sys.user("Bob").unwrap();
            let carol = sys.user("Carol").unwrap();
            let dave = sys.user("Dave").unwrap();
            assert_eq!(sys.service().check(rid, bob).unwrap(), Decision::Grant);
            assert_eq!(sys.service().check(rid, carol).unwrap(), Decision::Grant);
            assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        }
    }

    #[test]
    fn audience_includes_owner_and_matching_members() {
        let (sys, rid) = populated(EngineChoice::Online);
        let names: Vec<String> = sys
            .service()
            .audience(rid)
            .unwrap()
            .iter()
            .map(|&n| sys.graph().node_name(n).to_owned())
            .collect();
        assert_eq!(names, vec!["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn mutation_invalidates_the_index() {
        let (mut sys, rid) = populated(EngineChoice::JoinIndex(JoinEngineConfig::default()));
        let dave = sys.user("Dave").unwrap();
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        // Alice befriends Dave directly; the index must be rebuilt.
        let alice = sys.user("Alice").unwrap();
        sys.connect(alice, "friend", dave);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Grant);
    }

    #[test]
    fn explain_produces_a_readable_walk() {
        let (sys, rid) = populated(EngineChoice::Online);
        let carol = sys.user("Carol").unwrap();
        let explanation = sys
            .service()
            .explain_lines(rid, carol)
            .unwrap()
            .expect("granted");
        assert_eq!(explanation.len(), 1);
        assert!(explanation[0].contains("Alice"));
        assert!(explanation[0].contains("-friend->"));
        assert!(explanation[0].ends_with("Carol"));
        let dave = sys.user("Dave").unwrap();
        assert!(sys.service().explain_lines(rid, dave).unwrap().is_none());
    }

    #[test]
    fn owner_explanation_is_ownership() {
        let (sys, rid) = populated(EngineChoice::Online);
        let alice = sys.user("Alice").unwrap();
        let explanation = sys.service().explain_lines(rid, alice).unwrap().unwrap();
        assert!(explanation[0].contains("owns"));
    }

    #[test]
    fn mutual_connection_adds_both_directions() {
        let mut sys = AccessControlSystem::new_online();
        let a = sys.add_user("A");
        let b = sys.add_user("B");
        sys.connect_mutual(a, "friend", b);
        assert_eq!(sys.graph().num_edges(), 2);
    }

    #[test]
    fn cache_stats_track_repeat_checks() {
        let (sys, rid) = populated(EngineChoice::Online);
        let bob = sys.user("Bob").unwrap();
        sys.service().check(rid, bob).unwrap();
        sys.service().check(rid, bob).unwrap();
        let (hits, misses) = sys.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn concurrent_readers_share_one_snapshot_epoch() {
        let (sys, rid) = populated(EngineChoice::Online);
        let bob = sys.user("Bob").unwrap();
        let carol = sys.user("Carol").unwrap();
        let dave = sys.user("Dave").unwrap();
        // Many threads checking through `&self` against one system.
        let decisions: Vec<Decision> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let sys = &sys;
                    let user = [bob, carol, dave][i % 3];
                    scope.spawn(move || sys.service().check(rid, user).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, d) in decisions.iter().enumerate() {
            let expect = if i % 3 == 2 {
                Decision::Deny
            } else {
                Decision::Grant
            };
            assert_eq!(*d, expect);
        }
        assert_eq!(
            sys.snapshot_epoch(),
            1,
            "all readers shared a single publication"
        );
    }

    #[test]
    fn appends_republish_incrementally_not_from_scratch() {
        let (mut sys, rid) = populated(EngineChoice::Online);
        let dave = sys.user("Dave").unwrap();
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        assert_eq!(sys.snapshot_epoch(), 1);
        let alice = sys.user("Alice").unwrap();
        sys.connect(alice, "friend", dave);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Grant);
        assert_eq!(sys.snapshot_epoch(), 2, "append published a new epoch");
        // Attribute writes keep the epoch: the snapshot stores no
        // attributes, so no republication happens.
        sys.set_user_attr(dave, "age", 44i64);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Grant);
        assert_eq!(sys.snapshot_epoch(), 2);
    }

    #[test]
    fn check_batch_through_the_facade_matches_sequential() {
        let (sys, rid) = populated(EngineChoice::Online);
        let bob = sys.user("Bob").unwrap();
        let dave = sys.user("Dave").unwrap();
        let requests: Vec<_> = (0..30)
            .map(|i| (rid, if i % 2 == 0 { bob } else { dave }))
            .collect();
        let sequential: Vec<Decision> = requests
            .iter()
            .map(|&(r, u)| sys.service().check(r, u).unwrap())
            .collect();
        assert_eq!(sys.service().check_batch(&requests, 4).unwrap(), sequential);
    }

    #[test]
    fn audience_batch_matches_per_resource_audiences() {
        for choice in [
            EngineChoice::Online,
            EngineChoice::JoinIndex(JoinEngineConfig::default()),
        ] {
            let (mut sys, rid) = populated(choice);
            let bob = sys.user("Bob").unwrap();
            let rid2 = sys.share(bob);
            sys.allow(rid2, "friend+[1,2]").unwrap();
            let rid3 = sys.share(bob); // private
            let bundle = [rid, rid2, rid3];
            let batched = sys.service().audience_batch(&bundle).unwrap();
            for (&r, batch) in bundle.iter().zip(&batched) {
                assert_eq!(batch, &sys.service().audience(r).unwrap());
            }
        }
    }

    #[test]
    fn unknown_user_and_resource_error() {
        let mut sys = AccessControlSystem::new_online();
        assert!(sys.user("Nobody").is_err());
        let alice = sys.add_user("Alice");
        assert!(matches!(
            sys.service().check(ResourceId(99), alice),
            Err(EvalError::UnknownResource(99))
        ));
    }
}
