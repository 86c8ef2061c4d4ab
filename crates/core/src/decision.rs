//! The decision layer: the paper's grant rule, written once.
//!
//! *The owner is always granted; otherwise some rule must have **all**
//! of its owner-anchored reachability conditions satisfied; a resource
//! without rules is private* (`policy.rs`, §2 Definitions 2–3). Every
//! backend decides through the functions below and contributes only a
//! closure that evaluates **one condition** its own way — a snapshot
//! walk on the single graph, the early-exit masked fixpoint on the
//! partitioned backends — so the rule, the decision-cache accounting
//! and the ad-hoc query scatter cannot drift between deployments.
//!
//! All closures are generic (no `dyn`): on the single graph the
//! compiler inlines the layer into the enforcer, and the owner fast
//! path and cache hits return before the closure — hence before any
//! snapshot is pinned — is ever called.

use crate::error::EvalError;
use crate::path::PathExpr;
use crate::policy::{AccessCondition, Decision, PolicyStore, ResourceId};
use crate::query::parse_queries_readonly;
use crate::service::{Explanation, ReadStats, WalkHop, WitnessWalk};
use parking_lot::RwLock;
use socialreach_graph::{GraphError, NodeId, Vocabulary};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Memoized decisions plus the `(hits, misses)` counters every backend
/// reports through `AccessService::cache_stats`. Owner requests touch
/// neither counter; a request found in the cache is one hit; a request
/// that had to be evaluated is one miss — so a duplicate of an uncached
/// request within one batch is a miss followed by a hit on every route.
#[derive(Debug, Default)]
pub(crate) struct DecisionCache {
    cache: RwLock<HashMap<(ResourceId, NodeId), Decision>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecisionCache {
    /// Drops every cached decision (the counters keep running).
    pub(crate) fn clear(&self) {
        self.cache.write().clear();
    }

    /// `(hits, misses)` since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached decisions.
    pub(crate) fn len(&self) -> usize {
        self.cache.read().len()
    }

    fn hit(&self, d: Decision) -> Decision {
        self.hits.fetch_add(1, Ordering::Relaxed);
        d
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Refuses a member id outside `0..members` — typed, as writes refuse
/// one ([`crate::Mutation`]), on every backend alike.
fn known(member: NodeId, members: usize) -> Result<(), EvalError> {
    if member.index() < members {
        Ok(())
    } else {
        Err(GraphError::UnknownNode(member).into())
    }
}

fn decision(granted: bool) -> Decision {
    if granted {
        Decision::Grant
    } else {
        Decision::Deny
    }
}

/// The grant rule: rules disjoin, conditions within a rule conjoin, a
/// rule without conditions is vacuous (never world-readable). Returns
/// the witnesses of the **first** rule whose every condition `witness`
/// vouches for, in condition order, plus the census of every
/// evaluation that ran (short-circuited conditions don't count).
fn granting_rule<W>(
    store: &PolicyStore,
    rid: ResourceId,
    mut witness: impl FnMut(&AccessCondition) -> Result<(Option<W>, ReadStats), EvalError>,
) -> Result<(Option<Vec<W>>, ReadStats), EvalError> {
    let mut stats = ReadStats::default();
    'rules: for rule in store.rules_for(rid) {
        if rule.conditions.is_empty() {
            continue;
        }
        let mut witnesses = Vec::with_capacity(rule.conditions.len());
        for cond in &rule.conditions {
            let (w, s) = witness(cond)?;
            stats.absorb(&s);
            match w {
                Some(w) => witnesses.push(w),
                None => continue 'rules, // conjunction failed; try the next rule
            }
        }
        return Ok((Some(witnesses), stats));
    }
    Ok((None, stats))
}

/// Decides one request of a deployment of `members` members.
/// `satisfied` answers whether `requester` satisfies one condition and
/// reports that evaluation's census; the owner fast path and
/// decision-cache hits return an all-zero census without calling it.
pub(crate) fn check(
    cache: &DecisionCache,
    store: &PolicyStore,
    members: usize,
    rid: ResourceId,
    requester: NodeId,
    mut satisfied: impl FnMut(&AccessCondition) -> Result<(bool, ReadStats), EvalError>,
) -> Result<(Decision, ReadStats), EvalError> {
    known(requester, members)?;
    if requester == store.owner_of(rid)? {
        return Ok((Decision::Grant, ReadStats::default()));
    }
    if let Some(&d) = cache.cache.read().get(&(rid, requester)) {
        return Ok((cache.hit(d), ReadStats::default()));
    }
    cache.miss();
    // `Vec<()>` never allocates: the check path pays for no witnesses.
    let (granted, stats) = granting_rule(store, rid, |cond| {
        let (ok, s) = satisfied(cond)?;
        Ok((ok.then_some(()), s))
    })?;
    let d = decision(granted.is_some());
    cache.cache.write().insert((rid, requester), d);
    Ok((d, stats))
}

/// Explains a grant: ownership, or one witness walk per condition of
/// the first granting rule (`walk` returns the hops from the
/// condition's owner to the requester). `None` when access is denied.
/// Explanations are never cached — each one re-walks.
pub(crate) fn explain(
    store: &PolicyStore,
    members: usize,
    rid: ResourceId,
    requester: NodeId,
    mut walk: impl FnMut(&AccessCondition) -> Result<(Option<Vec<WalkHop>>, ReadStats), EvalError>,
) -> Result<(Option<Explanation>, ReadStats), EvalError> {
    known(requester, members)?;
    let owner = store.owner_of(rid)?;
    if requester == owner {
        return Ok((Some(Explanation::Ownership { owner }), ReadStats::default()));
    }
    let (walks, stats) = granting_rule(store, rid, |cond| {
        let (hops, s) = walk(cond)?;
        let start = cond.owner;
        Ok((hops.map(|hops| WitnessWalk { start, hops }), s))
    })?;
    Ok((walks.map(|walks| Explanation::Rule { walks }), stats))
}

/// The targeted route of a check batch: one `check` per request, in
/// order, censuses summed. Duplicates are served by the decision cache.
pub(crate) fn check_each(
    requests: &[(ResourceId, NodeId)],
    mut check: impl FnMut(ResourceId, NodeId) -> Result<(Decision, ReadStats), EvalError>,
) -> Result<(Vec<Decision>, ReadStats), EvalError> {
    let mut stats = ReadStats::default();
    let mut decisions = Vec::with_capacity(requests.len());
    for &(rid, req) in requests {
        let (d, s) = check(rid, req)?;
        stats.absorb(&s);
        decisions.push(d);
    }
    Ok((decisions, stats))
}

/// The audience route of a check batch: materialize the audiences of
/// the resources some non-owner, uncached request names (`audiences`,
/// called at most once, deduped in first-request order) and decide
/// each request by binary search — equivalent to targeted checks
/// because a resource's audience is exactly the union over rules of
/// the intersection of their condition audiences. Decisions come back
/// in request order, populate the cache, and are counted exactly as
/// [`check`] counts them.
pub(crate) fn check_via_audiences(
    cache: &DecisionCache,
    store: &PolicyStore,
    members: usize,
    requests: &[(ResourceId, NodeId)],
    audiences: impl FnOnce(&[ResourceId]) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError>,
) -> Result<(Vec<Decision>, ReadStats), EvalError> {
    let mut decisions: Vec<Option<Decision>> = Vec::with_capacity(requests.len());
    let mut need: Vec<ResourceId> = Vec::new();
    {
        let mut needed: HashSet<ResourceId> = HashSet::new();
        let cached = cache.cache.read();
        for &(rid, req) in requests {
            known(req, members)?;
            decisions.push(if req == store.owner_of(rid)? {
                Some(Decision::Grant)
            } else if let Some(&d) = cached.get(&(rid, req)) {
                Some(cache.hit(d))
            } else {
                if needed.insert(rid) {
                    need.push(rid);
                }
                None
            });
        }
    }
    if need.is_empty() {
        let decided = decisions.into_iter().flatten().collect();
        return Ok((decided, ReadStats::default()));
    }
    let (audiences, stats) = audiences(&need)?;
    let by_rid: HashMap<ResourceId, &Vec<NodeId>> = need.iter().copied().zip(&audiences).collect();
    let mut cached = cache.cache.write();
    let decided = requests
        .iter()
        .zip(decisions)
        .map(|(&(rid, req), known)| {
            known.unwrap_or_else(|| match cached.get(&(rid, req)) {
                // An earlier duplicate in this batch (or a racing
                // reader) decided it meanwhile.
                Some(&d) => cache.hit(d),
                None => {
                    cache.miss();
                    let d = decision(by_rid[&rid].binary_search(&req).is_ok());
                    cached.insert((rid, req), d);
                    d
                }
            })
        })
        .collect();
    Ok((decided, stats))
}

/// Audiences of a bundle of ad-hoc `(owner, text)` queries, in request
/// order: parse read-only against `vocab`, hand the satisfiable
/// conditions to `audiences` (called at most once) and scatter its
/// answers back; a query naming vocabulary the deployment has never
/// seen keeps its empty audience without being evaluated.
pub(crate) fn query_bundle(
    vocab: &Vocabulary,
    members: usize,
    queries: &[(NodeId, &str)],
    audiences: impl FnOnce(&[(NodeId, &PathExpr)]) -> Result<Vec<Vec<NodeId>>, EvalError>,
) -> Result<Vec<Vec<NodeId>>, EvalError> {
    for &(owner, _) in queries {
        known(owner, members)?;
    }
    let texts: Vec<&str> = queries.iter().map(|&(_, t)| t).collect();
    let parsed = parse_queries_readonly(&texts, vocab)?;
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); queries.len()];
    let mut conds: Vec<(NodeId, &PathExpr)> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    for (i, path) in parsed.iter().enumerate() {
        if let Some(path) = path {
            conds.push((queries[i].0, path));
            slots.push(i);
        }
    }
    if !conds.is_empty() {
        for (slot, audience) in slots.into_iter().zip(audiences(&conds)?) {
            out[slot] = audience;
        }
    }
    Ok(out)
}
