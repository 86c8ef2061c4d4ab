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
///
/// The decisions live in a bounded table ([`DecisionTable`]): 4-way
/// sets of 16-byte slots, starting at 1 Ki slots (16 KB) and doubling
/// only when an insert would evict a current decision from a table at
/// least a quarter full, up to [`MAX_SLOTS`] (4 MB). Otherwise an
/// insert into a full set evicts that set's oldest decision. A lookup
/// takes the read lock, an insert the write lock. Every slot is stamped
/// with the generation it was decided in, so [`DecisionCache::clear`] —
/// called after every write — retires all of them at once by bumping
/// the generation.
#[derive(Debug, Default)]
pub(crate) struct DecisionCache {
    table: RwLock<DecisionTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecisionCache {
    /// Retires every cached decision in O(1) by bumping the generation
    /// (the counters keep running).
    pub(crate) fn clear(&self) {
        self.table.write().clear();
    }

    /// `(hits, misses)` since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached decisions of the current generation.
    pub(crate) fn len(&self) -> usize {
        self.table.read().live
    }

    fn hit(&self, d: Decision) -> Decision {
        self.hits.fetch_add(1, Ordering::Relaxed);
        d
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ways per set of the decision table.
const WAYS: usize = 4;
/// Slots a decision table starts with (16 KB).
const MIN_SLOTS: usize = 1 << 10;
/// Slots a decision table stops growing at (4 MB).
const MAX_SLOTS: usize = 1 << 18;
/// The largest generation a slot's stamp holds next to its grant bit.
const MAX_GENERATION: u32 = u32::MAX >> 1;

/// One cached decision: `stamp` is `generation << 1 | granted`, and 0
/// (generation 0, never current) marks an empty slot.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    rid: u64,
    requester: u32,
    stamp: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// The decision cache's storage: a set-associative table of [`Slot`]s.
/// A key's set is picked by a multiplicative hash of `(rid,
/// requester)`; a lookup matches the **whole** key and the current
/// generation. Within a set the ways run newest first and the current
/// decisions form a prefix, so an insert takes the first way that holds
/// its key or no current decision, or else the last (oldest) way, and
/// shifts the ways before it down one.
#[derive(Debug)]
struct DecisionTable {
    slots: Box<[Slot]>,
    /// `64 - log2(sets)`: a set is the top bits of the key's hash.
    shift: u32,
    /// The current generation, in `1..=MAX_GENERATION`.
    generation: u32,
    /// Slots holding a decision of the current generation.
    live: usize,
}

impl Default for DecisionTable {
    fn default() -> Self {
        DecisionTable::with_slots(MIN_SLOTS)
    }
}

impl DecisionTable {
    fn with_slots(slots: usize) -> Self {
        DecisionTable {
            slots: vec![Slot::default(); slots].into_boxed_slice(),
            shift: 64 - (slots / WAYS).trailing_zeros(),
            generation: 1,
            live: 0,
        }
    }

    /// The first slot of the set `(rid, requester)` lives in.
    fn set_at(&self, rid: u64, requester: u32) -> usize {
        let h = rid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(requester);
        (h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> self.shift) as usize * WAYS
    }

    fn get(&self, rid: ResourceId, requester: NodeId) -> Option<Decision> {
        let at = self.set_at(rid.0, requester.0);
        self.slots[at..at + WAYS]
            .iter()
            .find(|s| {
                s.rid == rid.0 && s.requester == requester.0 && s.stamp >> 1 == self.generation
            })
            .map(|s| decision(s.stamp & 1 == 1))
    }

    fn insert(&mut self, rid: ResourceId, requester: NodeId, d: Decision) {
        let granted = u32::from(d == Decision::Grant);
        self.put(Slot {
            rid: rid.0,
            requester: requester.0,
            stamp: self.generation << 1 | granted,
        });
    }

    fn put(&mut self, slot: Slot) {
        let at = self.set_at(slot.rid, slot.requester);
        let generation = self.generation;
        // Some set overflows long before the table fills (the larger the
        // table, the sooner), so a table under a quarter full evicts
        // instead of doubling.
        let grows = self.slots.len() < MAX_SLOTS && self.live >= self.slots.len() / 4;
        let set = &mut self.slots[at..at + WAYS];
        let way = set.iter().position(|s| {
            s.stamp >> 1 != generation || (s.rid, s.requester) == (slot.rid, slot.requester)
        });
        let way = match way {
            Some(way) => {
                if set[way].stamp >> 1 != generation {
                    self.live += 1;
                }
                way
            }
            None if grows => {
                self.grow();
                return self.put(slot);
            }
            None => WAYS - 1,
        };
        set.copy_within(0..way, 1);
        set[0] = slot;
    }

    /// Doubles the table, re-inserting the current decisions oldest
    /// first so each set keeps its order. Each set splits in two, so
    /// no re-insert evicts.
    fn grow(&mut self) {
        let mut bigger = DecisionTable::with_slots(self.slots.len() * 2);
        bigger.generation = self.generation;
        for set in self.slots.chunks_exact(WAYS) {
            for &s in set.iter().rev() {
                if s.stamp >> 1 == self.generation {
                    bigger.put(s);
                }
            }
        }
        *self = bigger;
    }

    /// Retires every decision: a new generation, or — when the stamp
    /// would overflow — generation 1 over zeroed slots, so no stamp of
    /// an earlier generation 1 survives.
    fn clear(&mut self) {
        self.live = 0;
        if self.generation == MAX_GENERATION {
            self.generation = 1;
            self.slots.fill(Slot::default());
        } else {
            self.generation += 1;
        }
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
    if let Some(d) = cache.table.read().get(rid, requester) {
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
    cache.table.write().insert(rid, requester, d);
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
        let cached = cache.table.read();
        for read in reads {
            let (rid, req) = read.request();
            known(req, ground.members)?;
            decisions.push(if req == store.owner_of(rid)? {
                Some(Decision::Grant)
            } else if let Some(d) = cached.get(rid, req) {
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
    let mut cached = cache.table.write();
    let responses = reads
        .iter()
        .zip(decisions)
        .map(|(read, known)| {
            let (rid, req) = read.request();
            decided(known.unwrap_or_else(|| match cached.get(rid, req) {
                // An earlier duplicate in this batch (or a racing
                // reader) decided it meanwhile.
                Some(d) => cache.hit(d),
                None => {
                    cache.miss();
                    let d = decision(by_rid[&rid].binary_search(&req).is_ok());
                    cached.insert(rid, req, d);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MutateService;
    use crate::system::AccessControlSystem;

    /// `n` keys `(rid, requester)` that share `key`'s set in a table of
    /// `table`'s size, varying one half of the key.
    fn set_mates(
        table: &DecisionTable,
        key: (u64, u32),
        vary_rid: bool,
        n: usize,
    ) -> Vec<(u64, u32)> {
        let at = table.set_at(key.0, key.1);
        let candidates = (1..).map(|i| {
            if vary_rid {
                (key.0 + i, key.1)
            } else {
                (key.0, key.1 + i as u32)
            }
        });
        candidates
            .filter(|&(rid, req)| table.set_at(rid, req) == at)
            .take(n)
            .collect()
    }

    #[test]
    fn keys_sharing_a_set_never_answer_for_each_other() {
        for vary_rid in [true, false] {
            let mut table = DecisionTable::default();
            let first = (7u64, 3u32);
            let mates = set_mates(&table, first, vary_rid, WAYS - 1);
            let keys: Vec<_> = std::iter::once(first).chain(mates).collect();
            // Alternating decisions: a key answering for its neighbour
            // would flip one.
            for (i, &(rid, req)) in keys.iter().enumerate() {
                assert_eq!(table.get(ResourceId(rid), NodeId(req)), None);
                table.insert(ResourceId(rid), NodeId(req), decision(i.is_multiple_of(2)));
            }
            assert_eq!(table.slots.len(), MIN_SLOTS, "one set holds {WAYS} keys");
            for (i, &(rid, req)) in keys.iter().enumerate() {
                let got = table.get(ResourceId(rid), NodeId(req));
                assert_eq!(got, Some(decision(i.is_multiple_of(2))), "{rid}/{req}");
            }
            // A set-mate never inserted is a miss, not a neighbour's hit.
            let (rid, req) = set_mates(&table, first, vary_rid, WAYS)[WAYS - 1];
            assert_eq!(table.get(ResourceId(rid), NodeId(req)), None);
            // A sparse table evicts the set's oldest decision instead of
            // doubling.
            table.insert(ResourceId(rid), NodeId(req), Decision::Deny);
            assert_eq!((table.slots.len(), table.live), (MIN_SLOTS, WAYS));
            assert_eq!(table.get(ResourceId(first.0), NodeId(first.1)), None);
            for &(rid, req) in keys[1..].iter().chain([&(rid, req)]) {
                assert!(table.get(ResourceId(rid), NodeId(req)).is_some());
            }
        }
    }

    #[test]
    fn the_table_grows_to_its_cap_and_stops() {
        let mut table = DecisionTable::default();
        let key = |i: u64| (ResourceId(i % 1021), NodeId((i / 1021) as u32));
        let granted = |i: u64| i.is_multiple_of(3);
        let inserts = 1u64 << 20;
        for i in 0..inserts {
            let (rid, req) = key(i);
            table.insert(rid, req, decision(granted(i)));
            assert!(table.slots.len() <= MAX_SLOTS);
        }
        assert_eq!(table.slots.len(), MAX_SLOTS, "the table stops at its cap");
        assert!(table.live <= MAX_SLOTS);
        let mut hits = 0;
        for i in 0..inserts {
            let (rid, req) = key(i);
            if let Some(d) = table.get(rid, req) {
                assert_eq!(d, decision(granted(i)), "{rid:?}/{req}");
                hits += 1;
            }
        }
        assert_eq!(hits, table.live, "every live slot answers for its key");
        assert!(hits > MAX_SLOTS / 2, "a full table keeps most of its slots");
        // Only a set's oldest way is evicted: the last inserts stay.
        for i in inserts - WAYS as u64..inserts {
            let (rid, req) = key(i);
            assert_eq!(table.get(rid, req), Some(decision(granted(i))));
        }
    }

    #[test]
    fn clear_retires_every_entry_even_across_a_generation_wrap() {
        let mut table = DecisionTable::default();
        let keys: Vec<_> = (0..2000u32)
            .map(|i| (ResourceId(u64::from(i % 7)), NodeId(i)))
            .collect();
        let fill = |table: &mut DecisionTable| {
            for &(rid, req) in &keys {
                table.insert(rid, req, Decision::Grant);
            }
            let hits = keys
                .iter()
                .filter(|&&(rid, req)| table.get(rid, req).is_some());
            let hits = hits.count();
            assert!(hits > keys.len() / 2, "{hits} of {} kept", keys.len());
            assert_eq!(table.live, hits);
        };
        let all_miss = |table: &DecisionTable| {
            assert_eq!(table.live, 0);
            assert!(keys.iter().all(|&(rid, req)| table.get(rid, req).is_none()));
        };
        fill(&mut table);
        table.clear();
        all_miss(&table);
        // Generation-1 stamps outlive the 2^31 - 2 clears that take the
        // generation to its last value (done here by hand, as those
        // clears would): the wrap back to generation 1 must not revive
        // them.
        let mut table = DecisionTable::default();
        fill(&mut table);
        let size = table.slots.len();
        (table.generation, table.live) = (MAX_GENERATION, 0);
        table.clear();
        assert_eq!(table.generation, 1, "the generation wrapped");
        assert_eq!(table.slots.len(), size, "a wrap keeps the table's size");
        all_miss(&table);
        fill(&mut table);
        table.clear();
        all_miss(&table);
    }

    #[test]
    fn a_duplicate_in_one_batch_is_a_miss_then_a_hit() {
        let mut sys = AccessControlSystem::new_online();
        let (alice, bob) = (sys.add_user("Alice"), sys.add_user("Bob"));
        sys.add_relationship(alice, "friend", bob);
        let rid = sys.add_resource(alice);
        sys.add_rule(rid, "friend+[1]").unwrap();
        let plans = [
            CheckPlan::Targeted,
            CheckPlan::Audience(BundleStrategy::Batched),
        ];
        for plan in plans {
            sys.apply(&crate::Mutation::SetUserAttr {
                user: alice,
                key: "age".to_owned(),
                value: 30i64.into(),
            })
            .unwrap(); // a write: nothing stays cached
            let reads = sys.service();
            let (hits, misses) = reads.cache_stats();
            let requests = [(rid, bob), (rid, alice), (rid, bob)];
            let (decisions, _) = reads.check_batch_forced(&requests, 1, plan).unwrap();
            assert_eq!(decisions, [Decision::Grant; 3], "{plan:?}");
            let (h, m) = reads.cache_stats();
            assert_eq!((h - hits, m - misses), (1, 1), "{plan:?}");
        }
    }
}
