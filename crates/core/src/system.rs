//! `AccessControlSystem` — the single-graph serving backend: members,
//! relationships, shared resources, textual policies, and enforced
//! access checks by the online engine (a constrained product BFS over
//! an epoch-published CSR snapshot). Reads are served through the
//! deployment-agnostic [`AccessService`] trait, writes through
//! [`MutateService`]; construct one via
//! [`crate::service::Deployment::online`] to stay backend-agnostic.
//! The paper's §3 join index ([`crate::joinengine::JoinIndexEngine`])
//! is a library engine for the experiments, not a serving backend: its
//! index is built for a static graph.
//!
//! # Read/write split and the publication lifecycle
//!
//! Every **read** enters through [`AccessService::read`] — the named
//! reads ([`check`](AccessService::check),
//! [`audience_batch`](AccessService::audience_batch),
//! [`explain`](AccessService::explain), …) are wrappers over it — and
//! runs the shared decision layer over the system. A check decides
//! each condition with the online engine's walk from both ends
//! (`online::decide`: forward from the owner, backward from the
//! requester, meeting in the middle). Everything else walks forward on
//! the plan engine: an explanation's witness walks and a per-condition
//! audience are the condition's one-path plan
//! ([`online::evaluate_with_snapshot`]), as on the partitioned
//! backends, and bundles run [`query::evaluate_bundle_audiences`].
//! Reads take `&self`, so any
//! number of requester threads can evaluate concurrently against one
//! system (e.g. through `std::thread::scope`), and a targeted check
//! batch fans out over its thread hint. Reads share the system's
//! epoch-published [`CsrSnapshot`]: each read clones the current
//! epoch's `Arc` and traverses the immutable index lock-free. Every
//! **mutation** — adding members, relationships, resources or rules —
//! takes `&mut self`, guaranteeing exclusivity, and only *stales*
//! derived state: the decision cache bumps its generation, which
//! retires every cached decision at once, while the published
//! snapshot is retained so the next read can republish it
//! **incrementally** ([`CsrSnapshot::apply_edge_appends`] — the system
//! owns its graph, so the append-only lineage the patch requires holds
//! by construction). The patch rebuilds only the index pages the new
//! members and relationships land on and shares the rest with the
//! previous epoch.
//!
//! [`CsrSnapshot`]: socialreach_graph::csr::CsrSnapshot
//! [`CsrSnapshot::apply_edge_appends`]: socialreach_graph::csr::CsrSnapshot::apply_edge_appends

use crate::decision::{self, DecisionCache, Ground};
use crate::error::EvalError;
use crate::online;
use crate::path::PathExpr;
use crate::policy::{AccessCondition, PolicyStore};
use crate::publish::Publisher;
use crate::query::{self, parse_policy};
use crate::service::{
    AccessResponse, AccessService, Applied, BundleStrategy, CheckPlan, MutateService, Mutation,
    ReadBatch, ReadStats, WalkHop,
};
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{LabelId, NodeId, SocialGraph};
use std::sync::Arc;

/// High-level access-control façade (see the module docs for the
/// `&self` read path / `&mut self` write path contract).
pub struct AccessControlSystem {
    graph: SocialGraph,
    store: PolicyStore,
    snapshots: Publisher,
    decisions: DecisionCache,
}

impl AccessControlSystem {
    /// An empty system evaluating requests online.
    pub fn new_online() -> Self {
        AccessControlSystem {
            graph: SocialGraph::new(),
            store: PolicyStore::new(),
            snapshots: Publisher::default(),
            decisions: DecisionCache::default(),
        }
    }

    /// A system serving a copy of an existing graph: same member ids,
    /// same label/attr-key ids, same edge order. A policy store built
    /// against `g` can then be adopted verbatim with
    /// [`AccessControlSystem::adopt_store`] (the mirror of
    /// [`crate::ShardedSystem::from_graph`], so
    /// [`crate::service::Deployment::from_graph`] stands either backend
    /// up over one shared workload).
    pub fn from_graph(g: &SocialGraph) -> Self {
        Self::adopting(g.clone())
    }

    /// [`AccessControlSystem::from_graph`] without the copy: the system
    /// takes `g` itself. A graph deserialized without
    /// [`SocialGraph::rebuild_lookups`] resolves no name, not even its
    /// first member's: it gets its lookups rebuilt, so it resolves
    /// names like any other.
    pub(crate) fn adopting(mut g: SocialGraph) -> Self {
        let first = g.nodes().next();
        if first.is_some_and(|v| g.node_by_name(g.node_name(v)).is_none()) {
            g.rebuild_lookups();
        }
        let mut sys = Self::new_online();
        sys.graph = g;
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

    /// Number of snapshot publications the system has made (each
    /// rebuild or incremental patch is one epoch).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshots.epoch()
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
        // patches it incrementally (appends).
        self.decisions.clear();
    }
}

/// One early-exit walk per request, whatever the batch size.
fn default_check_plan(_len: usize) -> CheckPlan {
    CheckPlan::Targeted
}

/// The single graph under the decision layer: conditions are
/// evaluated over the published snapshot — checks walking from both
/// ends, witnesses and audiences forward on the plan engine.
impl decision::Evaluate for AccessControlSystem {
    type Pin = Arc<CsrSnapshot>;

    fn ground(&self) -> Ground<'_> {
        Ground {
            members: self.graph.num_nodes(),
            store: &self.store,
            vocab: self.graph.vocab(),
            cache: &self.decisions,
            default_check_plan,
            fans_out: true,
        }
    }

    fn pin(&self) -> Self::Pin {
        self.snapshots.current(&self.graph)
    }

    fn satisfied(
        &self,
        pin: &Self::Pin,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(bool, ReadStats), EvalError> {
        let (granted, stats) = online::decide(&self.graph, pin, cond.owner, &cond.path, requester);
        Ok((granted, ReadStats::one_pass(stats.states_visited)))
    }

    fn walk(
        &self,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(Option<Vec<WalkHop>>, ReadStats), EvalError> {
        // The published snapshot, not the thread cache: reads of every
        // kind share one epoch.
        let snap = self.snapshots.current(&self.graph);
        let (owner, path) = (cond.owner, &cond.path);
        let out = online::evaluate_with_snapshot(&self.graph, &snap, owner, path, Some(requester));
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
        Ok((hops, ReadStats::one_pass(out.stats.states_visited)))
    }

    /// `Batched` runs the bundle's shared-prefix plans; `PerCondition`
    /// one traversal per condition. Both return identical audiences.
    fn audiences(
        &self,
        conds: &[(NodeId, &PathExpr)],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let snap = self.snapshots.current(&self.graph);
        if strategy == BundleStrategy::Batched {
            return Ok(query::evaluate_bundle_audiences(&self.graph, &snap, conds));
        }
        let mut stats = ReadStats {
            conditions: conds.len(),
            traversals: conds.len(),
            rounds: conds.len(),
            ..ReadStats::default()
        };
        let audiences = conds
            .iter()
            .map(|&(owner, path)| {
                let out = online::evaluate_with_snapshot(&self.graph, &snap, owner, path, None);
                stats.states_expanded += out.stats.states_visited;
                out.matched
            })
            .collect();
        Ok((audiences, stats))
    }
}

/// The deployment-agnostic read surface: every read runs the shared
/// decision layer over the system.
impl AccessService for AccessControlSystem {
    fn read(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError> {
        decision::read(self, batch)
    }

    fn describe(&self) -> String {
        "single(online-bfs)".to_owned()
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

    fn cache_stats(&self) -> (u64, u64) {
        self.decisions.stats()
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        default_check_plan(len)
    }
}

/// The deployment-agnostic write surface: the graph-plus-store
/// mutation ([`Mutation::apply_to`]), then stale derived state.
impl MutateService for AccessControlSystem {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        self.dirty();
        m.apply_to(&mut self.graph, &mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Decision, ResourceId};
    use crate::service::{Deployment, Explanation};

    fn populated() -> (AccessControlSystem, ResourceId) {
        let mut sys = AccessControlSystem::new_online();
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
    fn audience_includes_owner_and_matching_members() {
        let (sys, rid) = populated();
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
    fn explain_produces_a_readable_walk() {
        let (sys, rid) = populated();
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
        let (sys, rid) = populated();
        let alice = sys.user("Alice").unwrap();
        let explanation = sys.service().explain_lines(rid, alice).unwrap().unwrap();
        assert!(explanation[0].contains("owns"));
    }

    #[test]
    fn explain_reads_the_published_snapshot() {
        online::release_thread_snapshot();
        let (sys, rid) = populated();
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
        let (sys, rid) = populated();
        let bob = sys.user("Bob").unwrap();
        sys.service().check(rid, bob).unwrap();
        sys.service().check(rid, bob).unwrap();
        assert_eq!(sys.service().cache_stats(), (1, 1));
    }

    #[test]
    fn concurrent_readers_share_one_snapshot_epoch() {
        let (sys, rid) = populated();
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
        let (mut sys, rid) = populated();
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
        let (sys, rid) = populated();
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
        let (mut sys, rid) = populated();
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

    /// A graph decoded by serde without `rebuild_lookups` (no name
    /// lookup) serves like the original: names resolve, and both check
    /// routes and both bundle strategies answer as the original does.
    #[test]
    fn a_decoded_graph_without_lookups_serves_like_the_original() {
        let (mut sys, rid) = populated();
        let bob = sys.user("Bob").unwrap();
        let rid2 = sys.add_resource(bob);
        sys.add_rule(rid2, "friend-[1]/friend+[1..2]").unwrap();
        let json = serde_json::to_string(sys.graph()).unwrap();
        let decoded: SocialGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded.node_by_name("Alice"), None, "no lookups");
        let revived = Deployment::online().from_graph(&decoded, sys.store().clone());
        let (reads, original) = (revived.reads(), sys.service());
        for member in sys.graph().nodes() {
            let name = sys.graph().node_name(member);
            assert_eq!(reads.resolve_user(name).unwrap(), member);
        }
        let rids = [rid, rid2];
        let requests: Vec<_> = rids
            .iter()
            .flat_map(|&r| sys.graph().nodes().map(move |m| (r, m)))
            .collect();
        for plan in [
            CheckPlan::Targeted,
            CheckPlan::Audience(BundleStrategy::Batched),
        ] {
            assert_eq!(
                reads.check_batch_forced(&requests, 1, plan).unwrap().0,
                original.check_batch_forced(&requests, 1, plan).unwrap().0,
                "{plan:?}"
            );
        }
        for strategy in [BundleStrategy::Batched, BundleStrategy::PerCondition] {
            assert_eq!(
                reads.audience_batch_forced(&rids, strategy).unwrap().0,
                original.audience_batch_forced(&rids, strategy).unwrap().0,
                "{strategy:?}"
            );
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
