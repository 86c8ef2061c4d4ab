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
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::service::{BundleStrategy, CheckPlan, ReadStats};
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
        let mut stats = ReadStats {
            conditions: conds.len(),
            traversals: conds.len(),
            rounds: conds.len(),
            ..ReadStats::default()
        };
        let audiences = conds
            .iter()
            .map(|&(owner, path)| {
                let out = self.audience_with_snapshot(g, snap, owner, path)?;
                stats.states_expanded += out.stats.states_visited;
                Ok(out.members)
            })
            .collect::<Result<_, EvalError>>()?;
        Ok((audiences, stats))
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

/// [`resource_audience`] for a whole **bundle** of resources at once,
/// plus the bundle's uniform work census ([`ReadStats`]).
///
/// Every distinct `(owner, path)` condition across the bundle's rules
/// is evaluated exactly once through
/// [`AccessEngine::audience_batch_with_snapshot`], so engines that
/// amortize traversal across conditions (the online engine's
/// shared-prefix plan) pay one shared frontier pass per 64-condition
/// chunk of the bundle's plan instead of one walk per condition.
/// Results come back in `rids` order with the usual policy semantics
/// per resource: union over rules of the intersection over each rule's
/// condition audiences, plus the owner. The census is the engine's own
/// (deduped conditions, traversal passes, product states, the
/// plan-vs-chains counts behind [`ReadStats::prefix_share`]); `rounds`
/// equals `traversals` on a single graph — there is no cross-shard
/// fixpoint — and `exported_states` is always zero here. Without a
/// snapshot the conditions fall back to one-at-a-time
/// [`AccessEngine::audience`].
pub fn resource_audience_batch_with_stats<E: AccessEngine>(
    g: &SocialGraph,
    store: &PolicyStore,
    rids: &[ResourceId],
    engine: &E,
    snap: Option<&CsrSnapshot>,
) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
    let Some(snap) = snap else {
        return resource_audience_batch_per_condition_with_stats(g, store, rids, engine, None);
    };
    merge_bundle_audiences(store, rids, |uniq| {
        engine.audience_batch_with_snapshot(g, snap, uniq)
    })
}

/// [`resource_audience_batch_with_stats`] with batching **disabled**:
/// one independent engine traversal per deduped condition over the
/// shared snapshot — the [`BundleStrategy::PerCondition`] entry point
/// the planner dispatches to, and the strategy experiment P10
/// showed winning on sparse graphs. Audiences and census conventions are
/// identical to the batched path; only the traversal grouping differs.
pub fn resource_audience_batch_per_condition_with_stats<E: AccessEngine>(
    g: &SocialGraph,
    store: &PolicyStore,
    rids: &[ResourceId],
    engine: &E,
    snap: Option<&CsrSnapshot>,
) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
    merge_bundle_audiences(store, rids, |uniq| {
        let mut stats = ReadStats {
            conditions: uniq.len(),
            traversals: uniq.len(),
            rounds: uniq.len(),
            ..ReadStats::default()
        };
        let audiences = uniq
            .iter()
            .map(|&(o, p)| {
                let out = match snap {
                    Some(s) => engine.audience_with_snapshot(g, s, o, p)?,
                    None => engine.audience(g, o, p)?,
                };
                stats.states_expanded += out.stats.states_visited;
                Ok(out.members)
            })
            .collect::<Result<_, EvalError>>()?;
        Ok((audiences, stats))
    })
}

/// The bundle-audience **semantics**, shared by every serving backend
/// (the single-graph functions above, the sharded and the networked
/// `audience_batch_forced`): dedupe the distinct `(owner, path)`
/// conditions across the bundle's rules, obtain each unique
/// condition's **sorted** audience from `eval` (called once, in
/// condition-discovery order, returning the audiences and the census
/// of producing them), and merge per resource — union over rules of
/// the intersection over each rule's condition audiences, plus the
/// owner; empty-condition rules contribute nothing. The census passes
/// through.
pub(crate) fn merge_bundle_audiences<F>(
    store: &PolicyStore,
    rids: &[ResourceId],
    eval: F,
) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError>
where
    F: for<'a> FnOnce(
        &'a [(NodeId, &'a PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError>,
{
    // Dedupe conditions across the bundle; remember each resource's
    // rule structure as indices into the unique list.
    let mut uniq: Vec<(NodeId, &PathExpr)> = Vec::new();
    let mut shape: Vec<(NodeId, Vec<Vec<usize>>)> = Vec::with_capacity(rids.len());
    for &rid in rids {
        let owner = store.owner_of(rid)?;
        let mut rule_shapes = Vec::new();
        for rule in store.rules_for(rid) {
            let mut cond_ix = Vec::with_capacity(rule.conditions.len());
            for cond in &rule.conditions {
                let i = uniq
                    .iter()
                    .position(|&(o, p)| o == cond.owner && *p == cond.path)
                    .unwrap_or_else(|| {
                        uniq.push((cond.owner, &cond.path));
                        uniq.len() - 1
                    });
                cond_ix.push(i);
            }
            rule_shapes.push(cond_ix);
        }
        shape.push((owner, rule_shapes));
    }

    let (audiences, stats) = eval(&uniq)?;
    debug_assert_eq!(audiences.len(), uniq.len());

    let merged = shape
        .into_iter()
        .map(|(owner, rule_shapes)| {
            let mut audience = vec![owner];
            for cond_ix in rule_shapes {
                let mut rule_audience: Option<Vec<NodeId>> = None;
                for i in cond_ix {
                    let members = &audiences[i];
                    rule_audience = Some(match rule_audience {
                        None => members.clone(),
                        Some(prev) => prev
                            .into_iter()
                            .filter(|m| members.binary_search(m).is_ok())
                            .collect(),
                    });
                }
                if let Some(members) = rule_audience {
                    audience.extend(members);
                }
            }
            audience.sort_unstable();
            audience.dedup();
            audience
        })
        .collect();
    Ok((merged, stats))
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
/// every reader — [`Enforcer::check_access`], [`Enforcer::audience_batch`],
/// each [`Enforcer::check_batch_forced`] worker — clones the `Arc` and runs
/// against that immutable snapshot concurrently, through `&self`.
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
    /// without rules are private.
    pub fn check_access(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<Decision, EvalError> {
        Ok(self.check_access_with_stats(g, store, rid, requester)?.0)
    }

    /// [`Enforcer::check_access`] plus the read's uniform work census:
    /// one condition / traversal / round per engine evaluation actually
    /// run (short-circuited conditions don't count), product states
    /// from the engine's own counters. The owner fast path and
    /// decision-cache hits report an all-zero census — no traversal
    /// ran, and no snapshot was pinned: the epoch's `Arc` is cloned by
    /// the first condition that actually evaluates.
    pub fn check_access_with_stats(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        let mut pinned: Option<Option<Arc<CsrSnapshot>>> = None;
        let members = g.num_nodes();
        decision::check(&self.decisions, store, members, rid, requester, |cond| {
            let snap = pinned.get_or_insert_with(|| self.publish_snapshot(g));
            let out = match snap {
                Some(s) => self
                    .engine
                    .check_with_snapshot(g, s, cond.owner, &cond.path, requester)?,
                None => self.engine.check(g, cond.owner, &cond.path, requester)?,
            };
            Ok((out.granted, ReadStats::one_pass(out.stats.states_visited)))
        })
    }

    /// Decides a batch of requests along the forced route; decisions
    /// come back in request order with the batch's cumulative census.
    ///
    /// [`CheckPlan::Targeted`] runs one early-exit walk per request on
    /// up to `threads` scoped worker threads (no detached state). The
    /// decision cache is shared across workers, so duplicate requests
    /// are answered once. [`CheckPlan::Audience`] materializes the
    /// uncached resources' audiences with the given bundle strategy and
    /// decides by membership (`threads` is unused). Owner fast path and
    /// cache accounting are identical on both routes, so they are
    /// interchangeable per batch.
    ///
    /// Engines are immutable after construction, so `E: Sync` is the
    /// only extra requirement.
    pub fn check_batch_forced(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError>
    where
        E: Sync,
    {
        if let CheckPlan::Audience(strategy) = plan {
            let members = g.num_nodes();
            return decision::check_via_audiences(
                &self.decisions,
                store,
                members,
                requests,
                |need| self.audience_batch_forced(g, store, need, strategy),
            );
        }
        let check = |slice: &[(ResourceId, NodeId)]| {
            decision::check_each(slice, |rid, req| {
                self.check_access_with_stats(g, store, rid, req)
            })
        };
        let threads = threads.max(1).min(requests.len().max(1));
        if threads == 1 {
            return check(requests);
        }
        // Publish the epoch's snapshot once up front so cold workers
        // start traversing immediately instead of queueing on the
        // publisher's write lock.
        let _ = self.publish_snapshot(g);
        let chunk = requests.len().div_ceil(threads);
        type ChunkResult = Result<(Vec<Decision>, ReadStats), EvalError>;
        let results: Vec<ChunkResult> = std::thread::scope(|scope| {
            let check = &check;
            let handles: Vec<_> = requests
                .chunks(chunk)
                .map(|slice| scope.spawn(move || check(slice)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(requests.len());
        let mut stats = ReadStats::default();
        for r in results {
            let (decisions, s) = r?;
            out.extend(decisions);
            stats.absorb(&s);
        }
        Ok((out, stats))
    }

    /// Audiences of a whole bundle of resources over one shared
    /// snapshot epoch, batched through the engine
    /// ([`resource_audience_batch_with_stats`]); results come back in
    /// `rids` order.
    pub fn audience_batch(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rids: &[ResourceId],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        Ok(self
            .audience_batch_forced(g, store, rids, BundleStrategy::Batched)?
            .0)
    }

    /// [`Enforcer::audience_batch`] plus the bundle's uniform work
    /// census ([`ReadStats`]), with the bundle strategy **forced**:
    /// `Batched` is the multi-source path; `PerCondition` runs one
    /// traversal per deduped condition over the same published
    /// snapshot. Both arms return identical audiences — the planner's
    /// single-graph dispatch seam.
    pub fn audience_batch_forced(
        &self,
        g: &SocialGraph,
        store: &PolicyStore,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let snap = self.publish_snapshot(g);
        match strategy {
            BundleStrategy::Batched => {
                resource_audience_batch_with_stats(g, store, rids, &self.engine, snap.as_deref())
            }
            BundleStrategy::PerCondition => resource_audience_batch_per_condition_with_stats(
                g,
                store,
                rids,
                &self.engine,
                snap.as_deref(),
            ),
        }
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
    use crate::policy::{AccessCondition, AccessRule};

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
        for threads in [1, 2, 4, 7] {
            let (parallel, _) = enforcer
                .check_batch_forced(&g, &store, &requests, threads, CheckPlan::Targeted)
                .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn check_batch_propagates_errors() {
        let (g, store, _) = setup();
        let alice = g.node_by_name("Alice").unwrap();
        let enforcer = Enforcer::new(OnlineEngine);
        let bad = vec![(crate::policy::ResourceId(999), alice)];
        assert!(matches!(
            enforcer.check_batch_forced(&g, &store, &bad, 4, CheckPlan::Targeted),
            Err(EvalError::UnknownResource(999))
        ));
    }

    #[test]
    fn check_batch_on_empty_input() {
        let (g, store, _) = setup();
        let enforcer = Enforcer::new(OnlineEngine);
        let (decisions, census) = enforcer
            .check_batch_forced(&g, &store, &[], 8, CheckPlan::Targeted)
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
        let enforcer = Enforcer::new(OnlineEngine);
        let bundle = [rid, rid2, rid3, rid];
        let batched = enforcer.audience_batch(&g, &store, &bundle).unwrap();
        for (&r, batch) in bundle.iter().zip(&batched) {
            let solo = resource_audience(&g, &store, r, &OnlineEngine).unwrap();
            assert_eq!(batch, &solo, "resource {r:?}");
        }
        assert!(matches!(
            enforcer
                .audience_batch(&g, &store, &[ResourceId(999)])
                .unwrap_err(),
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
        // conditions don't dedupe upstream in `merge_bundle_audiences`.
        let (mut g, mut store, rid) = setup();
        let bob = g.node_by_name("Bob").unwrap();
        let rid2 = store.register_resource(bob);
        store
            .allow(rid, "friend+[1,2]{age>=18,city=\"lyon\"}", &mut g)
            .unwrap();
        store
            .allow(rid2, "friend+[1..2]{city=\"lyon\",age>=18}", &mut g)
            .unwrap();
        let snap = g.snapshot();
        let (_, stats) = resource_audience_batch_with_stats(
            &g,
            &store,
            &[rid, rid2],
            &OnlineEngine,
            Some(&snap),
        )
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
