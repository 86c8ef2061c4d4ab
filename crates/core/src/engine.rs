//! The engine abstraction and the caching enforcer.
//!
//! Both evaluation engines (online product BFS, §1; join index, §3)
//! implement [`AccessEngine`] — `name`, `check` and `audience` — so the
//! experiments and the property tests can swap them. The serving
//! backends do not go through it: they publish their own CSR snapshots
//! and call [`crate::online`] and [`crate::query`] directly.
//!
//! [`Enforcer`] implements the paper's enforcement loop: *"Each time a
//! user submits an access request to a given resource of another user,
//! the system will intercept the request, and, on the basis of the
//! specified access rules, it determines whether access should be
//! granted or denied."*

use crate::decision::{self, DecisionCache};
use crate::error::EvalError;
use crate::online;
use crate::path::PathExpr;
use crate::policy::{AccessCondition, Decision, PolicyStore, ResourceId};
use crate::service::ReadStats;
use socialreach_graph::{NodeId, SocialGraph};

/// Unified work counters across engines (zero where not applicable).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Product states dequeued (online engine).
    pub states_visited: usize,
    /// Label-matching edge traversals (online engine; comparable
    /// across its flat and sparse variants).
    pub edges_scanned: usize,
    /// Non-matching edges inspected and skipped (the sparse variant
    /// only; the CSR slices of a flat read never hold them).
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
}

/// The index-free engine of §1 (constrained product BFS): a check walks
/// from both ends, as the single graph's serving checks do; an audience
/// walks forward from the owner.
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
        let (granted, stats) = online::decide_on_thread_snapshot(g, owner, path, requester);
        Ok(CheckOutcome {
            granted,
            stats: stats.into(),
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
}

/// The full audience of a resource under the policy semantics — the
/// union over its rules of the intersection over each rule's condition
/// audiences, plus the owner — with one `engine.audience` per distinct
/// condition, merged by the decision layer's bundle merge. The
/// experiments, the tests and the workload generators use it to read a
/// resource's audience off a library engine.
pub fn resource_audience<E: AccessEngine>(
    g: &SocialGraph,
    store: &PolicyStore,
    rid: ResourceId,
    engine: &E,
) -> Result<Vec<NodeId>, EvalError> {
    let (mut audiences, _) = decision::merge_bundle_audiences(store, &[rid], |conds| {
        let audiences = conds
            .iter()
            .map(|&(owner, path)| Ok(engine.audience(g, owner, path)?.members))
            .collect::<Result<_, EvalError>>()?;
        Ok((audiences, ReadStats::default()))
    })?;
    Ok(audiences.pop().expect("one audience per resource"))
}

/// Caching policy enforcer: intercepts access requests, consults the
/// policy store, delegates to the engine and memoizes decisions until
/// invalidated (graph or policy mutation), in a bounded table that
/// keeps at most 2^18 of them and evicts a full set's oldest. The
/// experiments wrap each engine in one to compare them on the same
/// requests; the serving backends evaluate the online engine directly
/// ([`crate::AccessControlSystem`]).
#[derive(Debug)]
pub struct Enforcer<E> {
    engine: E,
    decisions: DecisionCache,
}

impl<E: AccessEngine> Enforcer<E> {
    /// Wraps an engine with an empty decision cache.
    pub fn new(engine: E) -> Self {
        Enforcer {
            engine,
            decisions: DecisionCache::default(),
        }
    }

    /// Decides an access request.
    ///
    /// Semantics (documented in `policy.rs`): the owner is always
    /// granted; otherwise access is granted iff some rule of the
    /// resource has **all** of its conditions satisfied; resources
    /// without rules are private.
    pub fn check_access(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<Decision, EvalError> {
        let satisfied = |_: &(), cond: &AccessCondition| {
            let out = self.engine.check(g, cond.owner, &cond.path, requester)?;
            Ok((out.granted, ReadStats::default()))
        };
        let members = g.num_nodes();
        let cache = &self.decisions;
        let (d, _) = decision::check(cache, store, members, rid, requester, || (), satisfied)?;
        Ok(d)
    }

    /// Retires every cached decision in O(1) by bumping the decision
    /// cache's generation — the right call after mutations of the
    /// graph or the policy store the enforcer is handed.
    pub fn invalidate_decisions(&self) {
        self.decisions.clear();
    }

    /// Retires every cached decision **and** drops the calling thread's
    /// snapshot cache ([`online::release_thread_snapshot`]) — the
    /// conservative reset when the enforcer may next see an unrelated
    /// graph. (Only the calling thread's cache can be dropped from
    /// here; other threads validate theirs by generation on next use.)
    pub fn invalidate(&self) {
        self.decisions.clear();
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
    use crate::joinengine::{JoinEngineConfig, JoinIndexEngine};
    use crate::path::parse_path;
    use crate::policy::AccessRule;
    use crate::service::{AccessService, CheckPlan, MutateService};
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

    /// The service and the §3 join index, as a library enforcer over
    /// the service's own graph and store, decide and materialize alike.
    #[test]
    fn online_and_indexed_agree_end_to_end() {
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
        let (g, store) = (sys.graph(), sys.store());
        let engine = JoinIndexEngine::build(g, JoinEngineConfig::default());
        assert_eq!(
            resource_audience(g, store, rid, &engine).unwrap(),
            sys.service().audience(rid).unwrap()
        );
        let indexed = Enforcer::new(engine);
        for (user, expect) in [
            (bob, Decision::Grant),
            (carol, Decision::Grant),
            (dave, Decision::Deny),
        ] {
            assert_eq!(sys.service().check(rid, user).unwrap(), expect, "{user}");
            assert_eq!(
                indexed.check_access(g, store, rid, user).unwrap(),
                expect,
                "{user}"
            );
        }
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
