//! The decision layer: the paper's grant rule and every read route,
//! written once.
//!
//! *The owner is always granted; otherwise some rule must have **all**
//! of its owner-anchored reachability conditions satisfied; a resource
//! without rules is private* (`policy.rs`, §2 Definitions 2–3). Every
//! backend's `AccessService::read` is [`read`] over an [`Evaluate`]:
//! the backend says how it evaluates conditions, and this module does
//! the rest, so no backend keeps a copy of it.
//!
//! Everything is generic (no `dyn`): on the single graph the compiler
//! inlines the layer into the system's own evaluation, and the owner
//! fast path and cache hits return before any condition is evaluated —
//! hence before any snapshot is pinned.

use crate::error::EvalError;
use crate::path::PathExpr;
use crate::policy::{AccessCondition, Decision, PolicyStore, ResourceId};
use crate::query::parse_queries_readonly;
use crate::service::{
    AccessResponse, BundleStrategy, CheckPlan, Explanation, ReadBatch, ReadRequest, ReadStats,
    WalkHop, WitnessWalk,
};
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
/// reports that evaluation's census; it is handed what `pin` returns,
/// called once before the first condition evaluates. The owner fast
/// path and decision-cache hits return an all-zero census without
/// calling either.
pub(crate) fn check<P>(
    cache: &DecisionCache,
    store: &PolicyStore,
    members: usize,
    rid: ResourceId,
    requester: NodeId,
    pin: impl Fn() -> P,
    mut satisfied: impl FnMut(&P, &AccessCondition) -> Result<(bool, ReadStats), EvalError>,
) -> Result<(Decision, ReadStats), EvalError> {
    known(requester, members)?;
    if requester == store.owner_of(rid)? {
        return Ok((Decision::Grant, ReadStats::default()));
    }
    if let Some(&d) = cache.cache.read().get(&(rid, requester)) {
        return Ok((cache.hit(d), ReadStats::default()));
    }
    cache.miss();
    let mut pinned = None;
    // `Vec<()>` never allocates: the check path pays for no witnesses.
    let (granted, stats) = granting_rule(store, rid, |cond| {
        let (ok, s) = satisfied(pinned.get_or_insert_with(&pin), cond)?;
        Ok((ok.then_some(()), s))
    })?;
    let d = decision(granted.is_some());
    cache.cache.write().insert((rid, requester), d);
    Ok((d, stats))
}

/// What a read consults besides condition evaluation.
pub(crate) struct Ground<'a> {
    /// Registered members: a read naming another is refused.
    pub(crate) members: usize,
    pub(crate) store: &'a PolicyStore,
    /// The vocabulary ad-hoc queries parse against, read-only.
    pub(crate) vocab: &'a Vocabulary,
    pub(crate) cache: &'a DecisionCache,
    /// The route of a check batch of `len` requests that forces none.
    pub(crate) default_check_plan: fn(usize) -> CheckPlan,
    /// Whether a targeted check batch fans out over the batch's thread
    /// hint (or runs on the caller's thread whatever the hint).
    pub(crate) fans_out: bool,
}

/// How a backend evaluates access conditions: all [`read`] asks of it.
pub(crate) trait Evaluate: Sync {
    /// What a check pins before its first condition evaluates and hands
    /// to the rest (the single graph's published snapshot).
    type Pin;

    /// What the backend's reads consult.
    fn ground(&self) -> Ground<'_>;

    /// Pins what a check's condition evaluations share.
    fn pin(&self) -> Self::Pin;

    /// Whether `requester` satisfies `cond`, plus the evaluation's
    /// census.
    fn satisfied(
        &self,
        pin: &Self::Pin,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(bool, ReadStats), EvalError>;

    /// The hops of a walk from `cond`'s owner to `requester` when
    /// `requester` satisfies `cond`, plus the evaluation's census.
    fn walk(
        &self,
        cond: &AccessCondition,
        requester: NodeId,
    ) -> Result<(Option<Vec<WalkHop>>, ReadStats), EvalError>;

    /// The sorted audiences of distinct conditions, in `conds` order,
    /// traversed by `strategy`, plus the census of producing them.
    fn audiences(
        &self,
        conds: &[(NodeId, &PathExpr)],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError>;
}

/// Answers a batch of reads: the body of every backend's
/// `AccessService::read`. The batch's reads of one kind are answered
/// together ([`ReadBatch::by_kind`]): its checks along the forced route
/// or the backend's default, its audiences and its queries as one
/// bundle each under the forced strategy or
/// [`BundleStrategy::Batched`], its explains one by one. Each kind's
/// census goes to its first read; each explain carries its own.
pub(crate) fn read<B: Evaluate>(
    b: &B,
    batch: &ReadBatch,
) -> Result<Vec<AccessResponse>, EvalError> {
    let ground = b.ground();
    // A lone check forced targeted (every `check`) skips the batch
    // machinery: its census is its own.
    if let ([read @ ReadRequest::Check { .. }], Some(CheckPlan::Targeted)) =
        (&batch.reads[..], batch.plan)
    {
        let (d, stats) = check_one(b, &ground, read.request())?;
        return Ok(vec![AccessResponse {
            stats,
            ..decided(d)
        }]);
    }
    let strategy = batch.strategy.unwrap_or(BundleStrategy::Batched);
    batch.by_kind(|batch| {
        let reads = &batch.reads;
        let default = || (ground.default_check_plan)(reads.len());
        let plan = batch.plan.unwrap_or_else(default);
        let (responses, stats) = match reads[0] {
            ReadRequest::Check { .. } => match plan {
                CheckPlan::Targeted => targeted(b, &ground, reads, batch.threads)?,
                CheckPlan::Audience(s) => check_via_audiences(b, &ground, reads, s)?,
            },
            ReadRequest::Audience { .. } => {
                let rids: Vec<ResourceId> = reads.iter().map(ReadRequest::resource).collect();
                materialized(merge_bundle_audiences(ground.store, &rids, |uniq| {
                    b.audiences(uniq, strategy)
                })?)
            }
            ReadRequest::Explain { .. } => {
                let explained = reads.iter().map(|r| explain(b, &ground, r.request()));
                return explained.collect();
            }
            ReadRequest::Query { .. } => materialized(queries(b, &ground, reads, strategy)?),
        };
        Ok(attributed(responses, stats))
    })
}

/// One kind's responses with the kind's census on the first read and
/// none on the rest, so summing a batch's censuses stays truthful.
fn attributed(mut responses: Vec<AccessResponse>, stats: ReadStats) -> Vec<AccessResponse> {
    if let Some(first) = responses.first_mut() {
        first.stats = stats;
    }
    responses
}

fn decided(d: Decision) -> AccessResponse {
    AccessResponse {
        decision: Some(d),
        ..AccessResponse::default()
    }
}

/// Audiences as responses, with their census.
fn materialized(
    (audiences, stats): (Vec<Vec<NodeId>>, ReadStats),
) -> (Vec<AccessResponse>, ReadStats) {
    let responses = audiences.into_iter().map(|audience| AccessResponse {
        audience: Some(audience),
        ..AccessResponse::default()
    });
    (responses.collect(), stats)
}

/// The targeted route of a check batch: one early-exit `check` per
/// request, in order, censuses summed; duplicates are served by the
/// decision cache. A backend that fans out splits the batch over up to
/// `threads` scoped workers sharing that cache.
fn targeted<B: Evaluate>(
    b: &B,
    ground: &Ground,
    reads: &[ReadRequest],
    threads: usize,
) -> Result<(Vec<AccessResponse>, ReadStats), EvalError> {
    let each = |reads: &[ReadRequest]| -> Result<(Vec<AccessResponse>, ReadStats), EvalError> {
        let mut stats = ReadStats::default();
        let mut responses = Vec::with_capacity(reads.len());
        for read in reads {
            let (d, s) = check_one(b, ground, read.request())?;
            stats.absorb(&s);
            responses.push(decided(d));
        }
        Ok((responses, stats))
    };
    let threads = if ground.fans_out {
        threads.clamp(1, reads.len().max(1))
    } else {
        1
    };
    if threads == 1 {
        return each(reads);
    }
    // Pin once up front so cold workers start evaluating at once
    // instead of queueing on the publisher's write lock.
    let _ = b.pin();
    let each = &each;
    std::thread::scope(|scope| {
        let chunk = reads.len().div_ceil(threads);
        let workers: Vec<_> = reads
            .chunks(chunk)
            .map(|slice| scope.spawn(move || each(slice)))
            .collect();
        let (mut responses, mut stats) = (Vec::with_capacity(reads.len()), ReadStats::default());
        for worker in workers {
            let (chunk, s) = worker.join().expect("worker thread panicked")?;
            responses.extend(chunk);
            stats.absorb(&s);
        }
        Ok((responses, stats))
    })
}

/// Decides one request through `b`'s condition evaluation.
fn check_one<B: Evaluate>(
    b: &B,
    ground: &Ground,
    (rid, requester): (ResourceId, NodeId),
) -> Result<(Decision, ReadStats), EvalError> {
    let satisfied = |pin: &B::Pin, cond: &AccessCondition| b.satisfied(pin, cond, requester);
    let (cache, store, members) = (ground.cache, ground.store, ground.members);
    check(cache, store, members, rid, requester, || b.pin(), satisfied)
}

/// Explains a grant: ownership, or one witness walk per condition of
/// the first granting rule. The explanation is `None` when access is
/// denied. Explanations are never cached — each one re-walks.
fn explain<B: Evaluate>(
    b: &B,
    ground: &Ground,
    (rid, requester): (ResourceId, NodeId),
) -> Result<AccessResponse, EvalError> {
    known(requester, ground.members)?;
    let owner = ground.store.owner_of(rid)?;
    let (explanation, stats) = if requester == owner {
        (Some(Explanation::Ownership { owner }), ReadStats::default())
    } else {
        let (walks, stats) = granting_rule(ground.store, rid, |cond| {
            let (hops, s) = b.walk(cond, requester)?;
            let start = cond.owner;
            Ok((hops.map(|hops| WitnessWalk { start, hops }), s))
        })?;
        (walks.map(|walks| Explanation::Rule { walks }), stats)
    };
    Ok(AccessResponse {
        decision: Some(decision(explanation.is_some())),
        explanation,
        stats,
        ..AccessResponse::default()
    })
}

/// The audience route of a check batch: materialize the audiences of
/// the resources some non-owner, uncached request names (deduped in
/// first-request order, as one bundle under `strategy`) and decide each
/// request by binary search — equivalent to targeted checks because a
/// resource's audience is exactly the union over rules of the
/// intersection of their condition audiences. Decisions come back in
/// request order, populate the cache, and are counted exactly as
/// [`check`] counts them.
fn check_via_audiences<B: Evaluate>(
    b: &B,
    ground: &Ground,
    reads: &[ReadRequest],
    strategy: BundleStrategy,
) -> Result<(Vec<AccessResponse>, ReadStats), EvalError> {
    let (cache, store) = (ground.cache, ground.store);
    let mut decisions: Vec<Option<Decision>> = Vec::with_capacity(reads.len());
    let mut need: Vec<ResourceId> = Vec::new();
    {
        let mut needed: HashSet<ResourceId> = HashSet::new();
        let cached = cache.cache.read();
        for read in reads {
            let (rid, req) = read.request();
            known(req, ground.members)?;
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
        let responses = decisions.into_iter().flatten().map(decided).collect();
        return Ok((responses, ReadStats::default()));
    }
    let (audiences, stats) =
        merge_bundle_audiences(store, &need, |uniq| b.audiences(uniq, strategy))?;
    let by_rid: HashMap<ResourceId, &Vec<NodeId>> = need.iter().copied().zip(&audiences).collect();
    let mut cached = cache.cache.write();
    let responses = reads
        .iter()
        .zip(decisions)
        .map(|(read, known)| {
            let (rid, req) = read.request();
            decided(known.unwrap_or_else(|| match cached.get(&(rid, req)) {
                // An earlier duplicate in this batch (or a racing
                // reader) decided it meanwhile.
                Some(&d) => cache.hit(d),
                None => {
                    cache.miss();
                    let d = decision(by_rid[&rid].binary_search(&req).is_ok());
                    cached.insert((rid, req), d);
                    d
                }
            }))
        })
        .collect();
    Ok((responses, stats))
}

/// Audiences of a bundle of ad-hoc query reads, in request order, plus
/// the bundle's census: parse read-only against the backend's
/// vocabulary, hand the satisfiable conditions to
/// [`Evaluate::audiences`] (at most once) and scatter its answers
/// back; a query naming vocabulary the deployment has never seen keeps
/// its empty audience without being evaluated.
fn queries<B: Evaluate>(
    b: &B,
    ground: &Ground,
    reads: &[ReadRequest],
    strategy: BundleStrategy,
) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
    let (mut owners, mut texts) = (Vec::new(), Vec::new());
    for read in reads {
        let ReadRequest::Query { owner, text } = read else {
            unreachable!("a batch of one read kind")
        };
        known(*owner, ground.members)?;
        owners.push(*owner);
        texts.push(text.as_str());
    }
    let parsed = parse_queries_readonly(&texts, ground.vocab)?;
    let (slots, conds): (Vec<usize>, Vec<(NodeId, &PathExpr)>) = parsed
        .iter()
        .enumerate()
        .filter_map(|(i, path)| Some((i, (owners[i], path.as_ref()?))))
        .unzip();
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); reads.len()];
    if conds.is_empty() {
        return Ok((out, ReadStats::default()));
    }
    let (audiences, stats) = b.audiences(&conds, strategy)?;
    for (slot, audience) in slots.into_iter().zip(audiences) {
        out[slot] = audience;
    }
    Ok((out, stats))
}

/// The bundle-audience **semantics**, shared by every serving backend:
/// dedupe the distinct `(owner, path)` conditions across the bundle's
/// rules, obtain each unique condition's **sorted** audience from
/// `eval` (called once, in condition-discovery order, returning the
/// audiences and the census of producing them), and merge per resource
/// — union over rules of the intersection over each rule's condition
/// audiences, plus the owner; empty-condition rules contribute nothing.
/// The census passes through.
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
