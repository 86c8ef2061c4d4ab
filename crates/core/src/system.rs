//! `AccessControlSystem` — the single-graph serving backend: members,
//! relationships, shared resources, textual policies, and enforced
//! access checks with pluggable engines. Reads are served through the
//! deployment-agnostic [`AccessService`] trait, writes through
//! [`MutateService`]; construct one via
//! [`crate::service::Deployment::single`] to stay backend-agnostic.
//!
//! # Read/write split and the publication lifecycle
//!
//! Every **read** — [`check`](AccessService::check),
//! [`check_batch`](AccessService::check_batch),
//! [`audience`](AccessService::audience),
//! [`audience_batch`](AccessService::audience_batch),
//! [`explain`](AccessService::explain) — takes `&self`, so any
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
//! construction). The patch rebuilds only the index pages the new
//! members and relationships land on and shares the rest with the
//! previous epoch. The lazily built join index is dropped and rebuilt
//! on the next indexed read, as in the paper's static-graph model.
//!
//! [`CsrSnapshot`]: socialreach_graph::csr::CsrSnapshot
//! [`CsrSnapshot::apply_edge_appends`]: socialreach_graph::csr::CsrSnapshot::apply_edge_appends

use crate::decision;
use crate::engine::{AccessEngine, Enforcer, OnlineEngine};
use crate::error::EvalError;
use crate::joinengine::{JoinEngineConfig, JoinIndexEngine};
use crate::online;
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::query::parse_policy;
use crate::service::{
    AccessService, Applied, BundleStrategy, CheckPlan, Explanation, MutateService, Mutation,
    ReadStats, WalkHop,
};
use parking_lot::RwLock;
use socialreach_graph::{LabelId, NodeId, SocialGraph};
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

    /// This backend as a deployment-agnostic read service.
    pub fn service(&self) -> &dyn AccessService {
        self
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

    /// Number of snapshot publications the online enforcer has made
    /// (each rebuild or incremental patch is one epoch).
    pub fn snapshot_epoch(&self) -> u64 {
        self.online.snapshot_epoch()
    }

    /// Parses a policy in either syntax — classic path notation or the
    /// openCypher-flavored `MATCH` grammar — against this system's
    /// vocabulary (exposed for examples and tests).
    pub fn parse(&mut self, text: &str) -> Result<crate::path::PathExpr, EvalError> {
        Ok(parse_policy(text, self.graph.vocab_mut())?)
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

/// Runs `$body` with `$e` bound to the active engine's enforcer — the
/// online one, or the lazily built join-index one — statically
/// dispatched on both arms.
macro_rules! with_enforcer {
    ($sys:expr, |$e:ident| $body:expr) => {
        match $sys.choice {
            EngineChoice::Online => {
                let $e = &$sys.online;
                $body
            }
            EngineChoice::JoinIndex(_) => {
                let join = $sys.join_enforcer();
                let $e = &*join;
                $body
            }
        }
    };
}

/// The deployment-agnostic read surface: this impl block is the **one
/// place** the single-graph backend's reads live. Decisions run the
/// shared decision layer inside the active [`Enforcer`].
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

    /// Of the active engine (zero before the join index is first
    /// built).
    fn cache_stats(&self) -> (u64, u64) {
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

    fn check_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        with_enforcer!(self, |e| e.check_access_with_stats(
            &self.graph,
            &self.store,
            rid,
            requester
        ))
    }

    /// Always uses the online engine (the join index does not keep
    /// witnesses).
    fn explain_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        // The published snapshot, not the thread cache: reads of every
        // kind share one epoch. Generation 0 cannot be published.
        let snap = self.online.publish_snapshot(&self.graph);
        decision::explain(&self.store, rid, requester, |cond| {
            let (owner, path, target) = (cond.owner, &cond.path, Some(requester));
            let out = match &snap {
                Some(snap) => {
                    online::evaluate_with_snapshot(&self.graph, snap, owner, path, target)
                }
                None => online::evaluate_reference(&self.graph, owner, path, target),
            };
            let census = ReadStats::one_pass(out.stats.states_visited);
            let hops = out.witness.map(|witness| {
                witness
                    .into_iter()
                    .map(|(eid, forward)| {
                        let rec = self.graph.edge(eid);
                        WalkHop {
                            src: rec.src,
                            dst: rec.dst,
                            label: rec.label,
                            forward,
                        }
                    })
                    .collect()
            });
            Ok((hops, census))
        })
    }

    /// Under the online engine the bundle's distinct conditions are
    /// deduped and compiled into one shared-prefix plan that traverses
    /// the shared snapshot in one multi-source pass per 64-condition
    /// chunk — the batch-audience workload this system is built around.
    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        with_enforcer!(self, |e| e.audience_batch_forced(
            &self.graph,
            &self.store,
            rids,
            strategy
        ))
    }

    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        with_enforcer!(self, |e| e.check_batch_forced(
            &self.graph,
            &self.store,
            requests,
            threads,
            plan
        ))
    }

    /// Ad-hoc query bundles always run on the online engine over the
    /// published snapshot — they are one-shot reads, so the join
    /// index's precomputation has nothing to amortize.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        decision::query_bundle(self.graph.vocab(), queries, |conds| {
            match self.online.publish_snapshot(&self.graph) {
                Some(snap) => Ok(OnlineEngine
                    .audience_batch_with_snapshot(&self.graph, &snap, conds)?
                    .0),
                // Edge-free graph: nothing to publish, nothing to walk.
                None => Ok(conds
                    .iter()
                    .map(|&(owner, path)| {
                        if path.is_empty() {
                            vec![owner]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect()),
            }
        })
    }

    /// One early-exit walk per request, whatever the batch size.
    fn default_check_plan(&self, _len: usize) -> CheckPlan {
        CheckPlan::Targeted
    }
}

/// The deployment-agnostic write surface: the graph-plus-store
/// mutation every durable mirror applies, then stale derived state.
impl MutateService for AccessControlSystem {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        self.dirty();
        m.apply_to(&mut self.graph, &mut self.store)
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
        sys.add_relationship(alice, "friend", bob);
        sys.add_relationship(bob, "friend", carol);
        sys.add_relationship(carol, "colleague", dave);
        let rid = sys.add_resource(alice);
        sys.add_rule(rid, "friend+[1,2]").unwrap();
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
        sys.add_relationship(alice, "friend", dave);
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
    fn explain_reads_the_published_snapshot() {
        online::release_thread_snapshot();
        let (sys, rid) = populated(EngineChoice::Online);
        let carol = sys.user("Carol").unwrap();
        let explained: Vec<_> = (0..3)
            .map(|_| sys.service().explain(rid, carol).unwrap())
            .collect();
        assert!(
            matches!(&explained[0], Some(Explanation::Rule { walks }) if walks[0].hops.len() == 2)
        );
        assert!(
            explained.iter().all(|e| *e == explained[0]),
            "witness unchanged"
        );
        assert!(
            !online::thread_cache_stats().snapshot_cached,
            "no per-thread CSR built beside the published one"
        );
        assert_eq!(sys.snapshot_epoch(), 1, "one publication served all three");
    }

    #[test]
    fn mutual_connection_adds_both_directions() {
        let mut sys = AccessControlSystem::new_online();
        let a = sys.add_user("A");
        let b = sys.add_user("B");
        sys.add_mutual_relationship(a, "friend", b);
        assert_eq!(sys.graph().num_edges(), 2);
    }

    #[test]
    fn cache_stats_track_repeat_checks() {
        let (sys, rid) = populated(EngineChoice::Online);
        let bob = sys.user("Bob").unwrap();
        sys.service().check(rid, bob).unwrap();
        sys.service().check(rid, bob).unwrap();
        assert_eq!(sys.service().cache_stats(), (1, 1));
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
        sys.add_relationship(alice, "friend", dave);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Grant);
        assert_eq!(sys.snapshot_epoch(), 2, "append published a new epoch");
        // Attribute writes keep the epoch: the snapshot stores no
        // attributes, so no republication happens.
        sys.set_user_attr(dave, "age", 44i64.into());
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
            let rid2 = sys.add_resource(bob);
            sys.add_rule(rid2, "friend+[1,2]").unwrap();
            let rid3 = sys.add_resource(bob); // private
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
