//! The engine abstraction and the caching enforcer.
//!
//! Both evaluation engines (online product BFS, §1; join index, §3)
//! implement [`AccessEngine`], so the enforcer, the benchmarks and the
//! property tests can swap them. [`Enforcer`] implements the paper's
//! enforcement loop: *"Each time a user submits an access request to a
//! given resource of another user, the system will intercept the
//! request, and, on the basis of the specified access rules, it
//! determines whether access should be granted or denied."*

use crate::decision::{self, DecisionCache};
use crate::error::EvalError;
use crate::online;
use crate::path::PathExpr;
use crate::policy::{AccessCondition, Decision, PolicyStore, ResourceId};
use crate::service::{BundleStrategy, ReadStats};
use parking_lot::RwLock;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{NodeId, SocialGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unified work counters across engines (zero where not applicable).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Product states dequeued (online engine).
    pub states_visited: usize,
    /// Label-matching edge traversals (online engine; comparable
    /// across the CSR and reference implementations).
    pub edges_scanned: usize,
    /// Non-matching edges inspected and skipped (reference
    /// implementation only; the CSR engine never touches them).
    pub edges_filtered: usize,
    /// Line queries evaluated (join engine).
    pub line_queries: usize,
    /// Candidate tuples generated by the joins (join engine).
    pub candidate_tuples: usize,
    /// Tuples surviving §3.4 post-processing (join engine).
    pub tuples_kept: usize,
    /// Whether an unbounded depth set was truncated (join engine).
    pub truncated: bool,
}

impl EvalStats {
    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.states_visited += other.states_visited;
        self.edges_scanned += other.edges_scanned;
        self.edges_filtered += other.edges_filtered;
        self.line_queries += other.line_queries;
        self.candidate_tuples += other.candidate_tuples;
        self.tuples_kept += other.tuples_kept;
        self.truncated |= other.truncated;
    }
}

impl From<online::SearchStats> for EvalStats {
    fn from(s: online::SearchStats) -> Self {
        EvalStats {
            states_visited: s.states_visited,
            edges_scanned: s.edges_scanned,
            edges_filtered: s.edges_filtered,
            ..EvalStats::default()
        }
    }
}

/// Outcome of a single `(owner, path, requester)` check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Whether the requester matches the condition.
    pub granted: bool,
    /// Work counters.
    pub stats: EvalStats,
}

/// Outcome of an audience materialization.
#[derive(Clone, Debug)]
pub struct AudienceOutcome {
    /// Every member matching the condition, sorted.
    pub members: Vec<NodeId>,
    /// Work counters.
    pub stats: EvalStats,
}

/// An access-condition evaluator.
pub trait AccessEngine {
    /// Engine name for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Does `requester` satisfy the condition `(owner, path)`?
    fn check(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> Result<CheckOutcome, EvalError>;

    /// Every member satisfying the condition.
    fn audience(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
    ) -> Result<AudienceOutcome, EvalError>;

    /// True when the engine can exploit a label-partitioned
    /// [`CsrSnapshot`] of the graph. The enforcement layer builds and
    /// caches one per graph generation only for engines that want it.
    fn uses_snapshot(&self) -> bool {
        false
    }

    /// [`AccessEngine::check`] with a caller-cached snapshot. Engines
    /// that don't consume snapshots ignore it.
    fn check_with_snapshot(
        &self,
        g: &SocialGraph,
        _snap: &CsrSnapshot,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> Result<CheckOutcome, EvalError> {
        self.check(g, owner, path, requester)
    }

    /// [`AccessEngine::audience`] with a caller-cached snapshot.
    fn audience_with_snapshot(
        &self,
        g: &SocialGraph,
        _snap: &CsrSnapshot,
        owner: NodeId,
        path: &PathExpr,
    ) -> Result<AudienceOutcome, EvalError> {
        self.audience(g, owner, path)
    }

    /// Audiences of many `(owner, path)` conditions over one shared
    /// snapshot — `conds[i]` maps to the `i`-th returned (sorted)
    /// audience — plus the work census of the traversals that actually
    /// ran. The default evaluates one condition at a time; engines that
    /// can amortize graph traversal across conditions (the online
    /// engine's shared-prefix plan) override it. `rounds` equals
    /// `traversals` on a single graph — there is no cross-shard
    /// fixpoint — and `exported_states` stays zero.
    fn audience_batch_with_snapshot(
        &self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        per_condition(self, g, Some(snap), conds)
    }
}

/// The index-free engine of §1 (constrained product BFS).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineEngine;

impl AccessEngine for OnlineEngine {
    fn name(&self) -> &'static str {
        "online-bfs"
    }

    fn check(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> Result<CheckOutcome, EvalError> {
        let out = online::evaluate(g, owner, path, Some(requester));
        Ok(CheckOutcome {
            granted: out.granted,
            stats: out.stats.into(),
        })
    }

    fn audience(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
    ) -> Result<AudienceOutcome, EvalError> {
        let out = online::evaluate(g, owner, path, None);
        Ok(AudienceOutcome {
            members: out.matched,
            stats: out.stats.into(),
        })
    }

    fn uses_snapshot(&self) -> bool {
        true
    }

    fn check_with_snapshot(
        &self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> Result<CheckOutcome, EvalError> {
        let out = online::evaluate_with_snapshot(g, snap, owner, path, Some(requester));
        Ok(CheckOutcome {
            granted: out.granted,
            stats: out.stats.into(),
        })
    }

    fn audience_with_snapshot(
        &self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owner: NodeId,
        path: &PathExpr,
    ) -> Result<AudienceOutcome, EvalError> {
        let out = online::evaluate_with_snapshot(g, snap, owner, path, None);
        Ok(AudienceOutcome {
            members: out.matched,
            stats: out.stats.into(),
        })
    }

    /// Materializes the whole bundle's audiences in shared traversals:
    /// the conditions compile into one shared-prefix trie
    /// ([`crate::query::BundlePlan`]) and the masked multi-source BFS
    /// walks each shared prefix once per 64-condition chunk
    /// ([`crate::query::evaluate_plan_audiences`]), forking the
    /// condition masks only where the paths diverge. The census counts
    /// one traversal per chunk and carries the plan-vs-chains automaton
    /// state counts behind [`ReadStats::prefix_share`].
    fn audience_batch_with_snapshot(
        &self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let mut stats = ReadStats {
            conditions: conds.len(),
            ..ReadStats::default()
        };
        let mut audiences = Vec::with_capacity(conds.len());
        let paths: Vec<&PathExpr> = conds.iter().map(|&(_, p)| p).collect();
        for (part, plan) in crate::query::BundlePlan::compile_all(&paths) {
            let owners: Vec<NodeId> = conds[part].iter().map(|&(o, _)| o).collect();
            let run = crate::query::evaluate_plan_audiences(g, snap, &plan, &owners);
            audiences.extend(run.audiences);
            stats.traversals += run.traversals;
            stats.states_expanded += run.states_visited;
            stats.plan_states += plan.plan_states();
            stats.expr_states += plan.expr_states();
        }
        stats.rounds = stats.traversals;
        Ok((audiences, stats))
    }
}

/// The full audience of a resource under the policy semantics: the
/// union over its rules of the intersection over each rule's condition
/// audiences, plus the owner. Shared by [`crate::system`] and the
/// workload generators.
pub fn resource_audience<E: AccessEngine>(
    g: &SocialGraph,
    store: &PolicyStore,
    rid: ResourceId,
    engine: &E,
) -> Result<Vec<NodeId>, EvalError> {
    let owner = store.owner_of(rid)?;
    let mut audience: Vec<NodeId> = vec![owner];
    for rule in store.rules_for(rid) {
        let mut rule_audience: Option<Vec<NodeId>> = None;
        for cond in &rule.conditions {
            let members = engine.audience(g, cond.owner, &cond.path)?.members;
            rule_audience = Some(match rule_audience {
                None => members,
                Some(prev) => prev.into_iter().filter(|m| members.contains(m)).collect(),
            });
        }
        if let Some(members) = rule_audience {
            audience.extend(members);
        }
    }
    audience.sort_unstable();
    audience.dedup();
    Ok(audience)
}

/// One engine traversal per condition, over `snap` when given: one
/// condition, traversal and round each. `exported_states` stays zero —
/// a single graph has no boundary.
fn per_condition<E: AccessEngine + ?Sized>(
    engine: &E,
    g: &SocialGraph,
    snap: Option<&CsrSnapshot>,
    conds: &[(NodeId, &PathExpr)],
) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
    let mut stats = ReadStats {
        conditions: conds.len(),
        traversals: conds.len(),
        rounds: conds.len(),
        ..ReadStats::default()
    };
    let audiences = conds
        .iter()
        .map(|&(owner, path)| {
            let out = match snap {
                Some(snap) => engine.audience_with_snapshot(g, snap, owner, path)?,
                None => engine.audience(g, owner, path)?,
            };
            stats.states_expanded += out.stats.states_visited;
            Ok(out.members)
        })
        .collect::<Result<_, EvalError>>()?;
    Ok((audiences, stats))
}

/// Caching policy enforcer: intercepts access requests, consults the
/// policy store, delegates to the engine and memoizes decisions until
/// invalidated (graph or policy mutation).
///
/// # Epoch-published snapshots
///
/// For snapshot-consuming engines ([`AccessEngine::uses_snapshot`]) the
/// enforcer maintains a **publication pipeline**: at any time one
/// `Arc<CsrSnapshot>` is *published* as the current epoch's index, and
/// every reader — each check, each bundle, each worker of a check batch
/// fanned out over threads — clones the `Arc` and runs against that
/// immutable snapshot concurrently, through `&self`.
/// When a reader finds the published snapshot stale for `g`, exactly
/// one publisher (under the write lock) installs a fresh one — built
/// from scratch, or **patched** from the previous epoch via
/// [`CsrSnapshot::apply_edge_appends`] when the owner has opted in
/// with [`Enforcer::with_append_publication`] — and bumps the epoch
/// counter ([`Enforcer::snapshot_epoch`]). A patch is copy-on-write:
/// the new epoch shares every index page the appends did not touch
/// with the previous one and rebuilds only the rest, so republishing
/// after one new relationship costs two page rebuilds. Mutators never
/// touch the published snapshot in place, and no page is ever
/// modified once built; in-flight readers keep their epoch's `Arc`
/// alive until they finish and read exactly what it held.
#[derive(Debug)]
pub struct Enforcer<E> {
    engine: E,
    decisions: DecisionCache,
    published: RwLock<Option<Arc<CsrSnapshot>>>,
    epoch: AtomicU64,
    append_publication: bool,
}

impl<E: AccessEngine> Enforcer<E> {
    /// Wraps an engine with an empty decision cache.
    pub fn new(engine: E) -> Self {
        Enforcer {
            engine,
            decisions: DecisionCache::default(),
            published: RwLock::new(None),
            epoch: AtomicU64::new(0),
            append_publication: false,
        }
    }

    /// Opts into **incremental publication**: when the published
    /// snapshot goes stale, the publisher first tries
    /// [`CsrSnapshot::apply_edge_appends`] from it before falling back
    /// to a full rebuild.
    ///
    /// Only safe when the caller guarantees the snapshot's lineage:
    /// every graph this enforcer is handed must be the same graph,
    /// advanced only by node/edge appends (and attribute or policy
    /// writes). [`crate::AccessControlSystem`] owns its graph and
    /// routes every mutation, so it enables this; bare enforcers that
    /// may see unrelated graphs must not.
    pub fn with_append_publication(mut self) -> Self {
        self.append_publication = true;
        self
    }

    /// A current snapshot of `g`, from the published epoch when
    /// possible. `None` for graphs that cannot be validated against a
    /// cache key (generation 0: deserialized without `rebuild_lookups`).
    fn snapshot_for(&self, g: &SocialGraph) -> Option<Arc<CsrSnapshot>> {
        if g.topology_generation() == 0 {
            return None;
        }
        if let Some(s) = self.published.read().as_ref() {
            if s.matches(g) {
                return Some(Arc::clone(s));
            }
        }
        // Double-check under the write lock: concurrent cold readers
        // (check_batch fan-out) must not each build their own snapshot;
        // one publishes while the rest wait and reuse it.
        let mut slot = self.published.write();
        if let Some(s) = slot.as_ref() {
            if s.matches(g) {
                return Some(Arc::clone(s));
            }
        }
        let patched = if self.append_publication {
            slot.as_ref().and_then(|base| base.apply_edge_appends(g))
        } else {
            None
        };
        let fresh = Arc::new(patched.unwrap_or_else(|| CsrSnapshot::build(g)));
        *slot = Some(Arc::clone(&fresh));
        self.epoch.fetch_add(1, Ordering::Relaxed);
        Some(fresh)
    }

    /// Ensures a snapshot current for `g` is published (patching or
    /// rebuilding as needed) and returns it. `None` when the engine
    /// does not consume snapshots or `g` cannot be validated.
    pub fn publish_snapshot(&self, g: &SocialGraph) -> Option<Arc<CsrSnapshot>> {
        if self.engine.uses_snapshot() {
            self.snapshot_for(g)
        } else {
            None
        }
    }

    /// The currently published snapshot, if any, without refreshing it.
    pub fn current_snapshot(&self) -> Option<Arc<CsrSnapshot>> {
        self.published.read().clone()
    }

    /// Number of snapshot publications since construction (each build
    /// or patch that replaced the published `Arc` counts as one epoch).
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Decides an access request.
    ///
    /// Semantics (documented in `policy.rs`): the owner is always
    /// granted; otherwise access is granted iff some rule of the
    /// resource has **all** of its conditions satisfied; resources
    /// without rules are private. The snapshot is pinned by the first
    /// condition that actually evaluates.
    pub fn check_access(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<Decision, EvalError> {
        let pin = || self.publish_snapshot(g);
        let members = g.num_nodes();
        let satisfied = |snap: &Option<Arc<CsrSnapshot>>, cond: &AccessCondition| {
            self.satisfied(g, snap.as_deref(), cond, requester)
        };
        let (d, _) = decision::check(
            &self.decisions,
            store,
            members,
            rid,
            requester,
            pin,
            satisfied,
        )?;
        Ok(d)
    }

    /// Whether `requester` satisfies `cond` — over `snap` when the
    /// engine consumes one — plus the evaluation's census: one
    /// condition / traversal / round, product states from the engine's
    /// own counters.
    pub(crate) fn satisfied(
        &self,
        g: &SocialGraph,
        snap: Option<&CsrSnapshot>,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(bool, ReadStats), EvalError> {
        let out = match snap {
            Some(s) => self
                .engine
                .check_with_snapshot(g, s, cond.owner, &cond.path, requester)?,
            None => self.engine.check(g, cond.owner, &cond.path, requester)?,
        };
        Ok((out.granted, ReadStats::one_pass(out.stats.states_visited)))
    }

    /// The audiences of distinct conditions, in `conds` order, over the
    /// published snapshot, traversed by `strategy`: `Batched` through
    /// [`AccessEngine::audience_batch_with_snapshot`], `PerCondition` —
    /// and `Batched` without a snapshot — one traversal per condition.
    /// Both return identical audiences.
    pub(crate) fn audiences(
        &self,
        g: &SocialGraph,
        conds: &[(NodeId, &PathExpr)],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        match (self.publish_snapshot(g), strategy) {
            (Some(snap), BundleStrategy::Batched) => {
                self.engine.audience_batch_with_snapshot(g, &snap, conds)
            }
            (snap, _) => per_condition(&self.engine, g, snap.as_deref(), conds),
        }
    }

    /// The decision cache.
    pub(crate) fn decisions(&self) -> &DecisionCache {
        &self.decisions
    }

    /// Drops every cached decision but **keeps** the published snapshot
    /// as the base the next publication can patch
    /// ([`CsrSnapshot::apply_edge_appends`]) or revalidate against —
    /// the right call after mutations the owner knows are appends,
    /// attribute writes, or policy changes (everything
    /// `AccessControlSystem` can do).
    pub fn invalidate_decisions(&self) {
        self.decisions.clear();
    }

    /// Drops every cached decision, the published snapshot, **and**
    /// the calling thread's fallback snapshot cache
    /// ([`online::release_thread_snapshot`]) — the conservative reset
    /// when the enforcer may next see an unrelated graph. (Only the
    /// calling thread's fallback cache can be dropped from here;
    /// other threads validate theirs by generation on next use.)
    pub fn invalidate(&self) {
        self.decisions.clear();
        *self.published.write() = None;
        online::release_thread_snapshot();
    }

    /// `(hits, misses)` counters since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.decisions.stats()
    }

    /// Number of cached decisions.
    pub fn cache_len(&self) -> usize {
        self.decisions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use crate::policy::AccessRule;
    use crate::service::{AccessService, CheckPlan};
    use crate::system::AccessControlSystem;

    /// `g` and `store` served by the single graph, whose reads run the
    /// enforcer through the decision layer.
    fn served(g: &SocialGraph, store: &PolicyStore) -> AccessControlSystem {
        let mut sys = AccessControlSystem::from_graph(g);
        sys.adopt_store(store.clone());
        sys
    }

    fn setup() -> (SocialGraph, PolicyStore, ResourceId) {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        g.connect(a, "friend", b);
        g.connect(b, "friend", c);
        let mut store = PolicyStore::new();
        let rid = store.register_resource(a);
        (g, store, rid)
    }

    #[test]
    fn owner_always_granted_even_without_rules() {
        let (g, store, rid) = setup();
        let alice = g.node_by_name("Alice").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, alice).unwrap(),
            Decision::Grant
        );
    }

    #[test]
    fn private_by_default() {
        let (g, store, rid) = setup();
        let bob = g.node_by_name("Bob").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, bob).unwrap(),
            Decision::Deny
        );
    }

    #[test]
    fn single_rule_grant_and_deny() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, bob).unwrap(),
            Decision::Grant
        );
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Deny
        );
    }

    #[test]
    fn conditions_conjoin_within_a_rule() {
        let (mut g, mut store, rid) = setup();
        let alice = g.node_by_name("Alice").unwrap();
        // Rule: requester must be a friend within 2 hops AND a direct
        // friend — Carol satisfies only the first.
        let p_wide = parse_path("friend+[1,2]", g.vocab_mut()).unwrap();
        let p_tight = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        store
            .add_rule(AccessRule {
                resource: rid,
                conditions: vec![
                    AccessCondition {
                        owner: alice,
                        path: p_wide,
                    },
                    AccessCondition {
                        owner: alice,
                        path: p_tight,
                    },
                ],
            })
            .unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, bob).unwrap(),
            Decision::Grant
        );
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Deny
        );
    }

    #[test]
    fn rules_disjoin_across_rules() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "colleague+[1]", &mut g).unwrap(); // never matches
        store.allow(rid, "friend+[2]", &mut g).unwrap(); // Carol matches
        let carol = g.node_by_name("Carol").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Grant
        );
    }

    #[test]
    fn empty_condition_rule_never_grants() {
        let (g, mut store, rid) = setup();
        store
            .add_rule(AccessRule {
                resource: rid,
                conditions: vec![],
            })
            .unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(
            enforcer.check_access(&g, &store, rid, bob).unwrap(),
            Decision::Deny,
            "a rule with no conditions is vacuous, not world-readable"
        );
    }

    #[test]
    fn cache_hits_and_invalidation() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        enforcer.check_access(&g, &store, rid, bob).unwrap();
        enforcer.check_access(&g, &store, rid, bob).unwrap();
        let (hits, misses) = enforcer.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(enforcer.cache_len(), 1);
        enforcer.invalidate();
        assert_eq!(enforcer.cache_len(), 0);
        enforcer.check_access(&g, &store, rid, bob).unwrap();
        assert_eq!(enforcer.cache_stats(), (1, 2));
    }

    #[test]
    fn check_batch_matches_sequential_and_respects_order() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1,2]", &mut g).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let requests: Vec<_> = (0..40)
            .map(|i| match i % 3 {
                0 => (rid, alice),
                1 => (rid, bob),
                _ => (rid, carol),
            })
            .collect();
        let enforcer = Enforcer::new(OnlineEngine);
        let sequential: Vec<Decision> = requests
            .iter()
            .map(|&(r, u)| enforcer.check_access(&g, &store, r, u).unwrap())
            .collect();
        let sys = served(&g, &store);
        for threads in [1, 2, 4, 7] {
            let (parallel, _) = sys
                .check_batch_forced(&requests, threads, CheckPlan::Targeted)
                .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn check_batch_propagates_errors() {
        let (g, store, _) = setup();
        let alice = g.node_by_name("Alice").unwrap();
        let bad = vec![(crate::policy::ResourceId(999), alice)];
        assert!(matches!(
            served(&g, &store).check_batch_forced(&bad, 4, CheckPlan::Targeted),
            Err(EvalError::UnknownResource(999))
        ));
    }

    #[test]
    fn check_batch_on_empty_input() {
        let (g, store, _) = setup();
        let (decisions, census) = served(&g, &store)
            .check_batch_forced(&[], 8, CheckPlan::Targeted)
            .unwrap();
        assert!(decisions.is_empty());
        assert_eq!(census, ReadStats::default());
    }

    #[test]
    fn snapshot_cache_follows_graph_generation() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        let carol = g.node_by_name("Carol").unwrap();
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Deny
        );
        // Mutate the graph: the per-generation snapshot must be rebuilt
        // (the decision cache is keyed separately and cleared here the
        // way the system façade does on any mutation).
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        enforcer.invalidate();
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Grant,
            "fresh snapshot sees the new edge"
        );
    }

    #[test]
    fn online_engine_advertises_snapshot_use() {
        assert!(OnlineEngine.uses_snapshot());
        let (mut g, _, _) = setup();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let direct = OnlineEngine.check(&g, alice, &p, bob).unwrap();
        let snapped = OnlineEngine
            .check_with_snapshot(&g, &snap, alice, &p, bob)
            .unwrap();
        assert_eq!(direct.granted, snapped.granted);
        assert_eq!(direct.stats, snapped.stats);
        let aud = OnlineEngine
            .audience_with_snapshot(&g, &snap, alice, &p)
            .unwrap();
        assert_eq!(
            aud.members,
            OnlineEngine.audience(&g, alice, &p).unwrap().members
        );
    }

    #[test]
    fn publication_epoch_advances_per_snapshot_not_per_read() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1,2]", &mut g).unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        assert_eq!(enforcer.snapshot_epoch(), 0);
        assert!(enforcer.current_snapshot().is_none());
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        enforcer.check_access(&g, &store, rid, bob).unwrap();
        enforcer.check_access(&g, &store, rid, carol).unwrap();
        assert_eq!(enforcer.snapshot_epoch(), 1, "one publication serves reads");
        let published = enforcer.current_snapshot().expect("published");
        assert!(published.matches(&g));
        // A topology append stales the epoch; the next read republishes.
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        enforcer.invalidate_decisions();
        enforcer.check_access(&g, &store, rid, carol).unwrap();
        assert_eq!(enforcer.snapshot_epoch(), 2);
    }

    #[test]
    fn append_publication_patches_instead_of_losing_the_base() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        let enforcer = Enforcer::new(OnlineEngine).with_append_publication();
        let carol = g.node_by_name("Carol").unwrap();
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Deny
        );
        let base = enforcer.current_snapshot().expect("published");
        // Append-only mutation + decision-only invalidation: the next
        // read must see the new edge through a *patched* publication.
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        enforcer.invalidate_decisions();
        assert_eq!(
            enforcer.check_access(&g, &store, rid, carol).unwrap(),
            Decision::Grant,
            "patched snapshot sees the appended edge"
        );
        let patched = enforcer.current_snapshot().expect("republished");
        assert!(patched.matches(&g));
        assert_eq!(patched.num_edges(), base.num_edges() + 1);
        // And the patch is exactly what a rebuild would produce.
        assert_eq!(*patched, g.snapshot());
    }

    #[test]
    fn a_pinned_epoch_is_unchanged_by_later_publications() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        // Several pages of members, so later patches share pages with
        // the pinned epoch instead of replacing them all.
        let friend = g.intern_label("friend");
        for i in 0..1000u32 {
            let v = g.add_node(&format!("m{i}"));
            g.add_edge(NodeId(i % 3), v, friend);
        }
        let enforcer = Enforcer::new(OnlineEngine).with_append_publication();
        let pinned = enforcer
            .publish_snapshot(&g)
            .expect("online engine publishes");
        let epoch = enforcer.snapshot_epoch();
        // Built independently, so it shares no page with `pinned`.
        let expected = CsrSnapshot::build(&g);
        for k in 1..=5u32 {
            let v = g.add_node(&format!("late{k}"));
            g.add_edge(NodeId(k), v, friend);
            g.add_edge(v, NodeId(999 - k), friend);
            enforcer.invalidate_decisions();
            enforcer.check_access(&g, &store, rid, v).unwrap();
            assert_eq!(enforcer.snapshot_epoch(), epoch + u64::from(k));
        }
        assert_eq!(*pinned, expected, "the pinned epoch reads what it read");
        assert!(!pinned.matches(&g));
        let latest = enforcer.current_snapshot().expect("published");
        assert!(latest.matches(&g));
        assert_eq!(*latest, CsrSnapshot::build(&g));
    }

    #[test]
    fn audience_batch_matches_sequential_resource_audiences() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1,2]", &mut g).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        // A second resource sharing Alice's path template plus one of
        // its own, and a third with no rules (private).
        let rid2 = store.register_resource(bob);
        store.allow(rid2, "friend+[1,2]", &mut g).unwrap();
        store.allow(rid2, "friend-[1]", &mut g).unwrap();
        let rid3 = store.register_resource(alice);
        let sys = served(&g, &store);
        let bundle = [rid, rid2, rid3, rid];
        let batched = sys.audience_batch(&bundle).unwrap();
        for (&r, batch) in bundle.iter().zip(&batched) {
            let solo = resource_audience(&g, &store, r, &OnlineEngine).unwrap();
            assert_eq!(batch, &solo, "resource {r:?}");
        }
        assert!(matches!(
            sys.audience_batch(&[ResourceId(999)]).unwrap_err(),
            EvalError::UnknownResource(999)
        ));
    }

    #[test]
    fn invalidate_drops_thread_fallback_snapshot_too() {
        let (mut g, mut store, rid) = setup();
        store.allow(rid, "friend+[1]", &mut g).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        // Populate the calling thread's fallback cache via a bare
        // audience evaluation.
        let p = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let _ = online::evaluate(&g, alice, &p, None);
        assert!(online::thread_cache_stats().snapshot_cached);
        let enforcer = Enforcer::new(OnlineEngine);
        enforcer.invalidate();
        assert!(
            !online::thread_cache_stats().snapshot_cached,
            "invalidate releases the calling thread's stale fallback"
        );
    }

    #[test]
    fn bundle_census_pins_group_count_across_spelling_variants() {
        // The bundle work census must count ONE traversal for a bundle
        // whose two rules spell the same condition differently (one
        // chunk, fully shared plan). Owner differs per rule so the
        // conditions don't dedupe upstream in the bundle merge.
        let (mut g, mut store, rid) = setup();
        let bob = g.node_by_name("Bob").unwrap();
        let rid2 = store.register_resource(bob);
        store
            .allow(rid, "friend+[1,2]{age>=18,city=\"lyon\"}", &mut g)
            .unwrap();
        store
            .allow(rid2, "friend+[1..2]{city=\"lyon\",age>=18}", &mut g)
            .unwrap();
        let (_, stats) = served(&g, &store)
            .audience_batch_with_stats(&[rid, rid2])
            .unwrap();
        assert_eq!(stats.conditions, 2, "distinct owners keep both conditions");
        assert_eq!(
            stats.traversals, 1,
            "canonicalized spellings share one traversal"
        );
        assert_eq!(stats.plan_states, stats.expr_states / 2, "one shared chain");
        assert_eq!(stats.prefix_share(), Some(0.5));
    }

    #[test]
    fn eval_stats_absorb_accumulates() {
        let mut a = EvalStats {
            states_visited: 1,
            edges_scanned: 2,
            edges_filtered: 6,
            line_queries: 3,
            candidate_tuples: 4,
            tuples_kept: 5,
            truncated: false,
        };
        let b = EvalStats {
            states_visited: 10,
            truncated: true,
            ..EvalStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.states_visited, 11);
        assert_eq!(a.tuples_kept, 5);
        assert!(a.truncated);
    }
}
