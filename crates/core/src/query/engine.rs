//! Masked seeded BFS over a shared-prefix plan — the one masked engine.
//!
//! The state space is `(member, plan node, depth within node)` over a
//! [`BundlePlan`] trie: completion at a node ε-forks into the node's
//! *children* with the condition masks intersected against each
//! child's [`ChunkMasks::node_mask`], and a member is reported into a
//! condition's audience when its bit is in the completing node's
//! `accept_mask`. Up to 64 conditions traverse together, each product
//! state carrying the bitmask of the conditions that reached it, so one
//! scan of a `(node, label, direction)` CSR slice serves every
//! condition whose frontier touches that member, and shared prefixes
//! are walked once for every condition that spells them.
//!
//! A linear path is the **one-path plan** `BundlePlan::compile(&[path])`,
//! whose node ids are its step indexes: this engine is therefore also
//! the crate's only forward walk — every backend's explanations and
//! per-condition audiences, the single graph's through
//! [`crate::online::evaluate_with_snapshot`] — and exported
//! `(member, step, depth)` keys keep their meaning. The single graph's
//! check walks from both ends in [`crate::online`] instead.
//!
//! * **Seeded runs.** A run enters the product space at arbitrary
//!   `(member, node, depth, mask)` states and exports the masked states
//!   it visits at *watched* members (a shard's ghost replicas) — plan
//!   node ids travel in the `step` slot of [`MaskedSeedState`], which
//!   is why trie node ids share its `u16` budget.
//! * **Round persistence.** `seen`/`pending` masks live in a
//!   caller-owned [`PlanBatchState`] across runs, so re-seeding known
//!   bits is a no-op and a fixpoint that re-enters a shard round after
//!   round pays only for the bits each round newly delivers: total work
//!   stays linear in the explored region.
//! * **Early exit and parent tracking** (the targeted `check`/`explain`
//!   read). A run may name a `stop` member and returns the moment that
//!   member is accepted ([`SeededBatchOutcome::hit`]). An engine built
//!   with [`PlanBatchState::with_parents`] records, for every product
//!   state, the state it was **first** reached from and the hop taken,
//!   across runs, so [`PlanBatchState::trace`] reads a witness chain
//!   back to its seed without replaying anything. First arrivals ignore
//!   condition bits, so a chain is only guaranteed to carry a given bit
//!   for a one-condition read.
//!
//! Two variants give identical answers, and [`PlanBatchState::new`]
//! picks between them: the flat one over dense arrays when the product
//! space is reasonable (`online::flat_dimensions`, the one test the
//! check sizes its arrays by too), and a sparse mirror (the same slot
//! arena under a hashed directory) for degenerate product spaces
//! (astronomical saturation depths) and, in release builds, snapshots
//! stale for the graph (debug builds panic on one: every caller hands
//! a current one). The flat
//! variant owns no array of its own: its state directory and slot
//! arena are a `MaskScratch`, taken from the calling thread's pool by
//! [`PlanBatchState::new`] and given back — zeroed in
//! `O(states reached)` — when the state is dropped.
//! The all-zero invariant, who resets, and why parents need no reset
//! are written once, in [`crate::online`]'s module docs; this engine
//! only ever reaches the masks through `MaskMarks`, which is what keeps
//! every reached state on record for the reset. A read therefore costs
//! what its traversal explores, not `16 B × plan layers × |V|` per
//! 64-condition chunk.

use crate::online::{
    flat_dimensions, is_watched, MaskScratch, MaskedSeedState, SeedState, SeededBatchOutcome,
    WitnessHop, HOP_NONE, NO_PARENT,
};
use crate::path::PathExpr;
use crate::query::plan::{BundlePlan, ChunkMasks, PlanNode};
use crate::service::ReadStats;
use socialreach_graph::csr::Neighbors;
use socialreach_graph::{CsrSnapshot, Direction, NodeId, SocialGraph};
use std::collections::HashMap;

/// Product state of the sparse variant: `(member, plan node, depth)`.
type PState = (u32, u16, u32);

/// Everything about a `(node, depth)` layer that is constant across
/// its `|V|` states.
#[derive(Clone, Copy, Debug)]
struct PlanLayerInfo {
    /// Plan node this layer belongs to.
    node: u16,
    /// `d >= 1 && d ∈ I_node`: states here may complete the node.
    completes: bool,
    /// States here may take another edge of the node's label.
    expands: bool,
    /// Layer id reached by that edge (`min(d+1, sat)` of the node).
    next_layer: u32,
}

/// Round-persistent bookkeeping of the plan engine: which condition
/// bits have ever arrived at each product state, which await
/// processing, and which bits each member has already been reported
/// under. One value serves one `(graph, snapshot, plan, ≤64
/// conditions)` chunk across arbitrarily many seeded runs; the
/// cross-shard fixpoint keeps one per shard per chunk.
pub struct PlanBatchState {
    states_expanded: usize,
    inner: PlanInner,
}

enum PlanInner {
    Flat(FlatPlanBatch),
    Sparse(SparsePlanBatch),
}

/// Dense variant: state directory indexed by `layer · |V| + member`, in
/// a pooled `MaskScratch` that drop gives back.
struct FlatPlanBatch {
    /// First layer id of each plan node.
    bases: Vec<u32>,
    /// Saturation depth of each plan node's step.
    sats: Vec<u32>,
    layers: Vec<PlanLayerInfo>,
    /// Whether slots remember the hop of their first arrival
    /// ([`PlanBatchState::with_parents`]).
    track_parents: bool,
    scratch: MaskScratch,
}

impl Drop for FlatPlanBatch {
    fn drop(&mut self) {
        self.scratch.give_back();
    }
}

/// Sparse mirror for degenerate product spaces: the flat variant's
/// slot arena, with a hash map for its dense directory. Only arrivals
/// hash; frontiers queue arena positions.
struct SparsePlanBatch {
    sats: Vec<u32>,
    states: SparseStates,
    matched_mask: HashMap<u32, u64>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Whether [`PlanBatchState::trace`] may follow parents
    /// ([`PlanBatchState::with_parents`]).
    track_parents: bool,
}

/// The sparse variant's reached states: arena positions by
/// `(member, node, depth)`, and the arena in arrival order.
#[derive(Default)]
struct SparseStates {
    directory: HashMap<PState, u32>,
    slots: Vec<SparseSlot>,
}

/// What the sparse variant knows about one product state it reached.
struct SparseSlot {
    state: PState,
    /// Bits ever arrived.
    seen: u64,
    /// Bits arrived since the state was last processed (`⊆ seen`).
    pending: u64,
    /// Arena position of the state this one was **first** reached
    /// from, or [`NO_PARENT`] for a seed.
    parent: u32,
    /// The hop of that first arrival.
    hop: Option<WitnessHop>,
}

impl PlanBatchState {
    /// State for evaluating `nodes` over `snap`/`g`. Picks the flat
    /// dense-array variant (arrays from this thread's scratch pool)
    /// when the product space is reasonable, and the sparse mirror
    /// otherwise — run results are identical either way. `snap` must
    /// be current for `g`: debug builds panic on a stale one, release
    /// builds take the sparse mirror.
    pub fn new(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode]) -> Self {
        Self::build(g, snap, nodes, false)
    }

    /// [`PlanBatchState::new`] with **first-arrival parent tracking**,
    /// surviving across runs, for [`PlanBatchState::trace`]. Chains
    /// follow first arrivals regardless of condition bits, so they are
    /// only guaranteed to carry a given bit for one-condition reads —
    /// the targeted `check`/`explain` path.
    pub fn with_parents(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode]) -> Self {
        Self::build(g, snap, nodes, true)
    }

    fn build(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode], parents: bool) -> Self {
        assert!(
            !nodes.is_empty(),
            "a plan chunk traverses at least one node"
        );
        let current = snap.matches(g);
        debug_assert!(current, "stale snapshot: every caller hands a current one");
        let flat = flat_dimensions(snap, nodes.iter().map(|n| &n.step)).filter(|_| current);
        let inner = match flat {
            Some((v_count, layer_count)) => {
                let mut bases = Vec::with_capacity(nodes.len());
                let mut sats = Vec::with_capacity(nodes.len());
                let mut layers = Vec::with_capacity(layer_count as usize);
                let mut base = 0u32;
                for (id, n) in nodes.iter().enumerate() {
                    let sat = n.step.depths.saturation();
                    let unbounded = n.step.depths.is_unbounded();
                    bases.push(base);
                    sats.push(sat);
                    for d in 0..=sat {
                        layers.push(PlanLayerInfo {
                            node: id as u16,
                            completes: d >= 1 && n.step.depths.contains(d),
                            expands: d < sat || unbounded,
                            next_layer: base + (d + 1).min(sat),
                        });
                    }
                    base += sat + 1;
                }
                PlanInner::Flat(FlatPlanBatch {
                    bases,
                    sats,
                    layers,
                    track_parents: parents,
                    scratch: MaskScratch::take(v_count, layer_count as usize),
                })
            }
            None => return Self::sparse(nodes, parents),
        };
        PlanBatchState {
            states_expanded: 0,
            inner,
        }
    }

    /// The sparse mirror, whatever the snapshot: what [`Self::build`]
    /// picks for the inputs no current flat space serves (a product
    /// space past the flat caps, a stale snapshot in release builds).
    /// Its runs read `g` and ignore the snapshot.
    fn sparse(nodes: &[PlanNode], parents: bool) -> Self {
        PlanBatchState {
            states_expanded: 0,
            inner: PlanInner::Sparse(SparsePlanBatch {
                sats: nodes.iter().map(|n| n.step.depths.saturation()).collect(),
                states: SparseStates::default(),
                matched_mask: HashMap::new(),
                frontier: Vec::new(),
                next: Vec::new(),
                track_parents: parents,
            }),
        }
    }

    /// Total product states processed across every run so far. Each
    /// state is processed once per *wave of new bits*, so for a
    /// one-condition evaluation this is exactly the number of distinct
    /// states explored — the counter the round-linearity regression
    /// pins.
    pub fn states_expanded(&self) -> usize {
        self.states_expanded
    }

    /// Walks the persistent parent chain back from the product state
    /// `(member, node, depth)` to a **seed** of some earlier run,
    /// returning the hops in walk order plus the seed's coordinate.
    /// `None` when the engine wasn't built with
    /// [`PlanBatchState::with_parents`], the node is not in the plan or
    /// the state was never reached. Valid after an early-exit hit —
    /// tracing is the one operation an exhausted engine still supports.
    pub fn trace(
        &self,
        member: NodeId,
        node: u16,
        depth: u32,
    ) -> Option<(Vec<WitnessHop>, SeedState)> {
        match &self.inner {
            PlanInner::Flat(fb) => {
                if !fb.track_parents {
                    return None;
                }
                let lay = fb.bases.get(node as usize)? + depth.min(fb.sats[node as usize]);
                let (hops, seed_lay, seed_v) = fb.scratch.marks.chain(lay, member.0)?;
                let li = fb.layers[seed_lay as usize];
                let seed_depth = seed_lay - fb.bases[li.node as usize];
                Some((hops, (NodeId(seed_v), li.node, seed_depth)))
            }
            PlanInner::Sparse(sb) => {
                if !sb.track_parents {
                    return None;
                }
                let st: PState = (member.0, node, depth.min(*sb.sats.get(node as usize)?));
                let slots = &sb.states.slots;
                let mut slot = &slots[*sb.states.directory.get(&st)? as usize];
                let mut hops = Vec::new();
                while slot.parent != NO_PARENT {
                    hops.extend(slot.hop);
                    slot = &slots[slot.parent as usize];
                }
                hops.reverse();
                let (v, n, d) = slot.state;
                Some((hops, (NodeId(v), n, d)))
            }
        }
    }
}

/// One seeded run of the plan engine: drains the frontier produced by
/// `seeds`, recording accepts and exporting masked states visited at
/// `watched` members (an empty slice watches nobody). Bits reported
/// (matched or exported) are disjoint across runs, and re-seeding known
/// bits is a no-op. With `stop = Some(m)` the run returns the moment
/// `m` is accepted under a new bit (`hit` carries the accepting
/// `(node, depth)`), leaving the frontier undrained: after a hit the
/// engine may only be traced.
///
/// Per condition bit the semantics are those of the bit's own path
/// automaton restricted to this graph's edges: a state accumulates bit
/// `b` exactly when the unsharded engine could reach it from one of
/// `b`'s seeds using only locally present edges. The sharded backends
/// obtain global semantics by fixpointing runs across shards.
///
/// `state` must have been created for this same `(g, snap, nodes)`;
/// `masks` must stay the same chunk across runs.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_plan_batch_seeded(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    nodes: &[PlanNode],
    masks: &ChunkMasks,
    state: &mut PlanBatchState,
    seeds: &[MaskedSeedState],
    watched: &[bool],
    stop: Option<NodeId>,
) -> SeededBatchOutcome {
    let PlanBatchState {
        states_expanded,
        inner,
    } = state;
    match inner {
        PlanInner::Flat(fb) => fb.run(g, snap, nodes, masks, seeds, watched, stop, states_expanded),
        PlanInner::Sparse(sb) => sb.run(g, nodes, masks, seeds, watched, stop, states_expanded),
    }
}

impl FlatPlanBatch {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        nodes: &[PlanNode],
        masks: &ChunkMasks,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        stop: Option<NodeId>,
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        debug_assert!(snap.matches(g), "snapshot pinned for the whole bundle");
        let mut out = SeededBatchOutcome::default();
        let FlatPlanBatch {
            bases,
            sats,
            layers,
            track_parents,
            scratch,
        } = self;
        let MaskScratch {
            marks,
            frontier,
            next,
        } = scratch;

        debug_assert!(frontier.is_empty(), "previous run drained its frontier");
        for &(m, node, depth, bits) in seeds {
            let lay = bases[node as usize] + depth.min(sats[node as usize]);
            marks.send(frontier, lay, m.0, bits);
        }

        while !frontier.is_empty() {
            for &packed in frontier.iter() {
                let v = packed as u32;
                let lay = (packed >> 32) as u32;
                let (at, delta) = marks.take_pending(lay, v);
                debug_assert_ne!(delta, 0, "queued state without pending bits");
                out.stats.states_visited += 1;
                *states_expanded += 1;
                let li = layers[lay as usize];
                let pn = &nodes[li.node as usize];
                let step = &pn.step;
                let node = NodeId(v);

                if is_watched(watched, node.index()) {
                    out.exports
                        .push((node, li.node, lay - bases[li.node as usize], delta));
                }

                // Node completion for the newly arrived bits: accept
                // the bits whose condition ends here, ε-fork the rest
                // into the children on their chains.
                if li.completes && step.conds.iter().all(|c| c.eval(g.node_attrs(node))) {
                    // Only an accepting bit touches the member's word.
                    let accept = delta & masks.accept_mask[li.node as usize];
                    let acc = if accept != 0 {
                        marks.claim_matched(v, accept)
                    } else {
                        0
                    };
                    if acc != 0 {
                        out.matched.push((node, acc));
                        if stop == Some(node) {
                            out.hit = Some((li.node, lay - bases[li.node as usize]));
                            return out;
                        }
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        if fwd != 0 {
                            marks.send_from(next, bases[child as usize], v, fwd, at, HOP_NONE);
                        }
                    }
                }

                // Edge expansion within the node. Only a parent-tracked
                // engine reads the edge-id column.
                if !li.expands {
                    continue;
                }
                let mut expand = |nbrs: Neighbors<'_>, forward: u32| {
                    out.stats.edges_scanned += nbrs.nodes.len();
                    if *track_parents {
                        for (&nbr, &eid) in nbrs.nodes.iter().zip(nbrs.edges) {
                            let hop = (eid << 1) | forward;
                            marks.send_from(next, li.next_layer, nbr, delta, at, hop);
                        }
                    } else {
                        for &nbr in nbrs.nodes {
                            marks.send(next, li.next_layer, nbr, delta);
                        }
                    }
                };
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    expand(snap.out_neighbors(v, step.label), 1);
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    expand(snap.in_neighbors(v, step.label), 0);
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        out
    }
}

impl SparseStates {
    /// Forwards `bits` to `st` from the slot at `parent` over `hop`,
    /// queueing it on the 0 → non-zero pending transition. A state's
    /// first-ever arrival creates its slot, recording that parent.
    #[inline]
    fn send(
        &mut self,
        queue: &mut Vec<u32>,
        st: PState,
        bits: u64,
        parent: u32,
        hop: Option<WitnessHop>,
    ) {
        if bits == 0 {
            return;
        }
        let SparseStates { directory, slots } = self;
        let at = *directory.entry(st).or_insert_with(|| {
            let at = u32::try_from(slots.len()).expect("below 2^32 reached states");
            slots.push(SparseSlot {
                state: st,
                seen: 0,
                pending: 0,
                parent,
                hop,
            });
            at
        });
        let slot = &mut slots[at as usize];
        let new = bits & !slot.seen;
        if new != 0 {
            slot.seen |= new;
            if slot.pending == 0 {
                queue.push(at);
            }
            slot.pending |= new;
        }
    }
}

impl SparsePlanBatch {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        g: &SocialGraph,
        nodes: &[PlanNode],
        masks: &ChunkMasks,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        stop: Option<NodeId>,
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        let mut out = SeededBatchOutcome::default();
        let SparsePlanBatch {
            sats,
            states,
            matched_mask,
            frontier,
            next,
            ..
        } = self;

        debug_assert!(frontier.is_empty(), "previous run drained its frontier");
        for &(m, node, depth, bits) in seeds {
            let st: PState = (m.0, node, depth.min(sats[node as usize]));
            states.send(frontier, st, bits, NO_PARENT, None);
        }

        while !frontier.is_empty() {
            for &at in frontier.iter() {
                let slot = &mut states.slots[at as usize];
                let (v, n, d) = slot.state;
                let delta = std::mem::take(&mut slot.pending);
                debug_assert_ne!(delta, 0, "queued state without pending bits");
                out.stats.states_visited += 1;
                *states_expanded += 1;
                let pn = &nodes[n as usize];
                let step = &pn.step;
                let node = NodeId(v);

                if is_watched(watched, node.index()) {
                    out.exports.push((node, n, d, delta));
                }

                if d >= 1
                    && step.depths.contains(d)
                    && step.conds.iter().all(|c| c.eval(g.node_attrs(node)))
                {
                    let mask = matched_mask.entry(v).or_insert(0);
                    let acc = delta & masks.accept_mask[n as usize] & !*mask;
                    if acc != 0 {
                        *mask |= acc;
                        out.matched.push((node, acc));
                        if stop == Some(node) {
                            out.hit = Some((n, d));
                            return out;
                        }
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        states.send(next, (v, child, 0), fwd, at, None);
                    }
                }

                if d >= sats[n as usize] && !step.depths.is_unbounded() {
                    continue;
                }
                let d_next = (d + 1).min(sats[n as usize]);
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    for (eid, rec) in g.out_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        let ns = (rec.dst.0, n, d_next);
                        states.send(next, ns, delta, at, Some((eid, true)));
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    for (eid, rec) in g.in_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        let ns = (rec.src.0, n, d_next);
                        states.send(next, ns, delta, at, Some((eid, false)));
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        out
    }
}

/// Result of a whole-bundle plan evaluation on a single graph.
#[derive(Clone, Debug, Default)]
pub struct PlanAudienceOutcome {
    /// Per condition (same order as the compiled bundle), the sorted
    /// members whose walks satisfy it. Empty paths yield the owner.
    pub audiences: Vec<Vec<NodeId>>,
    /// Product states processed across all chunks.
    pub states_visited: usize,
    /// Edges scanned across all chunks.
    pub edges_scanned: usize,
    /// Number of 64-condition chunk traversals run.
    pub traversals: usize,
}

/// Evaluates a compiled bundle on one graph: every 64 conditions share
/// one plan traversal, each seeded at its owner on its root node.
/// `owners[i]` is the owner of condition `i`; the result is
/// per-condition audiences identical to evaluating each condition's
/// path alone (the differential suite pins this).
pub fn evaluate_plan_audiences(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    plan: &BundlePlan,
    owners: &[NodeId],
) -> PlanAudienceOutcome {
    assert_eq!(owners.len(), plan.num_conds(), "one owner per condition");
    let mut out = PlanAudienceOutcome {
        audiences: vec![Vec::new(); owners.len()],
        ..Default::default()
    };
    let mut traversable = Vec::new();
    for (i, &owner) in owners.iter().enumerate() {
        match plan.root_of(i) {
            Some(_) => traversable.push(i),
            None => out.audiences[i].push(owner), // empty path: owner only
        }
    }
    if traversable.is_empty() {
        return out;
    }
    for chunk in traversable.chunks(64) {
        let masks = plan.chunk_masks(chunk);
        let mut state = PlanBatchState::new(g, snap, &plan.nodes);
        let seeds: Vec<MaskedSeedState> = chunk
            .iter()
            .enumerate()
            .map(|(bit, &cond)| {
                (
                    owners[cond],
                    plan.root_of(cond).expect("traversable condition"),
                    0,
                    1u64 << bit,
                )
            })
            .collect();
        // No ghosts on a single graph: nobody is watched.
        let run =
            evaluate_plan_batch_seeded(g, snap, &plan.nodes, &masks, &mut state, &seeds, &[], None);
        for (member, mut bits) in run.matched {
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.audiences[chunk[bit]].push(member);
            }
        }
        out.states_visited += run.stats.states_visited;
        out.edges_scanned += run.stats.edges_scanned;
        out.traversals += 1;
    }
    for a in &mut out.audiences {
        a.sort_unstable_by_key(|n| n.0);
        a.dedup();
    }
    out
}

/// The audiences of a bundle of `(owner, path)` conditions on one
/// graph, in `conds` order, plus the bundle's census. The conditions
/// compile into shared-prefix plans — one, or several when the bundle
/// is bisected past the plan's node budget
/// ([`BundlePlan::compile_all`]) — and each plan runs
/// [`evaluate_plan_audiences`]. The census counts one traversal per
/// 64-condition chunk, sums the plan-vs-chains automaton state counts
/// behind [`ReadStats::prefix_share`], and has `rounds == traversals`:
/// a single graph has no cross-shard fixpoint and exports nothing.
pub fn evaluate_bundle_audiences(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    conds: &[(NodeId, &PathExpr)],
) -> (Vec<Vec<NodeId>>, ReadStats) {
    let mut stats = ReadStats {
        conditions: conds.len(),
        ..ReadStats::default()
    };
    let mut audiences = Vec::with_capacity(conds.len());
    let paths: Vec<&PathExpr> = conds.iter().map(|&(_, p)| p).collect();
    for (part, plan) in BundlePlan::compile_all(&paths) {
        let owners: Vec<NodeId> = conds[part].iter().map(|&(o, _)| o).collect();
        let run = evaluate_plan_audiences(g, snap, &plan, &owners);
        audiences.extend(run.audiences);
        stats.traversals += run.traversals;
        stats.states_expanded += run.states_visited;
        stats.plan_states += plan.plan_states();
        stats.expr_states += plan.expr_states();
    }
    stats.rounds = stats.traversals;
    (audiences, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{decided_audience, evaluate_with_snapshot, on_stale_snapshot};
    use crate::path::parse_path;

    /// A small two-community graph: a friend chain 0-1-2-3 (out
    /// edges), colleagues 2→4, 3→4, and a boss edge 5→0.
    fn fixture() -> SocialGraph {
        let mut g = SocialGraph::new();
        for i in 0..6 {
            let n = g.add_node(&format!("m{i}"));
            assert_eq!(n.0, i);
        }
        for (s, d) in [(0, 1), (1, 2), (2, 3)] {
            g.connect(NodeId(s), "friend", NodeId(d));
        }
        g.connect(NodeId(2), "colleague", NodeId(4));
        g.connect(NodeId(3), "colleague", NodeId(4));
        g.connect(NodeId(5), "boss", NodeId(0));
        for i in 0..6u32 {
            g.set_node_attr(NodeId(i), "age", 20 + i as i64);
        }
        g
    }

    #[test]
    fn plan_matches_per_condition_evaluation() {
        let mut g = fixture();
        let texts = [
            "friend+[1..2]",
            "friend+[1..2]/colleague+[1]",
            "friend+[1..3]",
            "boss-[1]",
            "friend*[1..]{age>=21}",
        ];
        let paths: Vec<_> = texts
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).unwrap())
            .collect();
        let snap = g.snapshot();
        let owners = vec![NodeId(0); paths.len()];
        let plan = BundlePlan::compile(&paths.iter().collect::<Vec<_>>()).unwrap();
        let got = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        for (i, path) in paths.iter().enumerate() {
            let want = decided_audience(&g, &snap, owners[i], path);
            assert_eq!(got.audiences[i], want, "condition {i}: {}", texts[i]);
        }
        assert!(got.traversals == 1, "five conditions share one traversal");
    }

    #[test]
    fn shared_prefix_expands_fewer_states_than_separate_chains() {
        let mut g = fixture();
        let shared = [
            "friend+[1..2]",
            "friend+[1..2]/colleague+[1]",
            "friend+[1..2]/friend+[1]",
        ];
        let paths: Vec<_> = shared
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).unwrap())
            .collect();
        let snap = g.snapshot();
        let owners = vec![NodeId(0); paths.len()];
        let plan = BundlePlan::compile(&paths.iter().collect::<Vec<_>>()).unwrap();
        let fused = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        let mut separate = 0;
        for (i, path) in paths.iter().enumerate() {
            let solo_plan = BundlePlan::compile(&[path]).unwrap();
            let solo = evaluate_plan_audiences(&g, &snap, &solo_plan, &owners[i..i + 1]);
            separate += solo.states_visited;
        }
        assert!(
            fused.states_visited < separate,
            "shared prefix must save work: fused {} vs separate {separate}",
            fused.states_visited
        );
    }

    #[test]
    fn empty_paths_and_mixed_owners() {
        let mut g = fixture();
        let friend = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let empty = crate::path::PathExpr::new(vec![]);
        let paths = vec![&friend, &empty, &friend, &empty];
        let owners = vec![NodeId(0), NodeId(3), NodeId(1), NodeId(3)];
        let plan = BundlePlan::compile(&paths).unwrap();
        let got = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        assert_eq!(got.audiences[0], vec![NodeId(1)]);
        assert_eq!(
            got.audiences[1],
            vec![NodeId(3)],
            "empty path yields the owner"
        );
        assert_eq!(got.audiences[2], vec![NodeId(2)]);
        assert_eq!(got.audiences[3], vec![NodeId(3)], "duplicate owners too");
    }

    /// Audiences of many `owners` under one `path`: the one-path
    /// plan, every owner a condition of it.
    fn one_path_audiences(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owners: &[NodeId],
        path: &crate::path::PathExpr,
    ) -> PlanAudienceOutcome {
        let plan = BundlePlan::compile(&vec![path; owners.len()]).unwrap();
        evaluate_plan_audiences(g, snap, &plan, owners)
    }

    #[test]
    fn one_path_plan_amortizes_edge_scans_across_owners() {
        // A star: every leaf's friend-[1] audience passes through the
        // hub, so the shared frontier scans far fewer edges than the
        // per-owner sum.
        let mut g = SocialGraph::new();
        let hub = g.add_node("hub");
        let leaves: Vec<NodeId> = (0..30).map(|i| g.add_node(&format!("l{i}"))).collect();
        for &l in &leaves {
            g.connect(hub, "friend", l);
        }
        let p = parse_path("friend-[1]/friend+[1]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let batch = one_path_audiences(&g, &snap, &leaves, &p);
        let solo_total: usize = leaves
            .iter()
            .map(|&o| {
                evaluate_with_snapshot(&g, &snap, o, &p, None)
                    .stats
                    .edges_scanned
            })
            .sum();
        assert!(
            batch.edges_scanned < solo_total / 2,
            "batch {} vs per-owner sum {solo_total}",
            batch.edges_scanned
        );
        for (i, &o) in leaves.iter().enumerate() {
            assert_eq!(batch.audiences[i], decided_audience(&g, &snap, o, &p));
        }
    }

    /// Both variants walk one automaton the same way: on every path and
    /// pair of the fixture they reach the same audiences from the same
    /// number of states, and trace witness walks of the same length.
    #[test]
    fn sparse_and_flat_variants_count_the_same_states() {
        let mut g = fixture();
        let texts = [
            "friend+[1..2]/colleague+[1]",
            "friend*[1..]{age>=21}",
            "boss-[1]/friend+[2..]",
        ];
        let snap = g.snapshot();
        let paths: Vec<_> = texts
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).unwrap())
            .collect();
        let run = |sparse: bool, path: &PathExpr, owner: NodeId, stop: Option<NodeId>| {
            let plan = BundlePlan::compile(&[path]).unwrap();
            let masks = plan.chunk_masks(&[0]);
            let mut state = match sparse {
                true => PlanBatchState::sparse(&plan.nodes, true),
                false => PlanBatchState::with_parents(&g, &snap, &plan.nodes),
            };
            assert_eq!(matches!(state.inner, PlanInner::Sparse(_)), sparse);
            let seed = [(owner, 0, 0, 1)];
            let nodes = &plan.nodes;
            let out =
                evaluate_plan_batch_seeded(&g, &snap, nodes, &masks, &mut state, &seed, &[], stop);
            let mut matched: Vec<NodeId> = out.matched.iter().map(|&(m, _)| m).collect();
            matched.sort_unstable();
            let hops = out.hit.zip(stop).map(|((node, depth), m)| {
                state
                    .trace(m, node, depth)
                    .expect("hit states trace")
                    .0
                    .len()
            });
            (matched, out.stats.states_visited, hops)
        };
        for (path, text) in paths.iter().zip(texts) {
            for owner in g.nodes() {
                let flat = run(false, path, owner, None);
                assert_eq!(run(true, path, owner, None), flat, "{text} from {owner}");
                for requester in g.nodes() {
                    let stop = Some(requester);
                    let at = format!("{text} {owner}->{requester}");
                    assert_eq!(
                        run(true, path, owner, stop),
                        run(false, path, owner, stop),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_snapshots_fall_back_to_the_current_graph() {
        let mut g = fixture();
        let snap = g.snapshot();
        g.connect(NodeId(0), "friend", NodeId(5)); // stales `snap`
        let p = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let read = || one_path_audiences(&g, &snap, &[NodeId(0)], &p);
        if let Some(batch) = on_stale_snapshot(read) {
            assert!(
                batch.audiences[0].contains(&NodeId(5)),
                "stale snapshot must not hide the new edge"
            );
        }
    }

    #[test]
    fn persistence_reseeding_known_bits_is_a_noop() {
        let mut g = fixture();
        let path = parse_path("friend+[1..2]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let plan = BundlePlan::compile(&[&path]).unwrap();
        let masks = plan.chunk_masks(&[0]);
        let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
        let watched = vec![false; g.num_nodes()];
        let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
        let first = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(!first.matched.is_empty());
        let again = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(again.matched.is_empty(), "bits are disjoint across runs");
        assert_eq!(
            again.stats.states_visited, 0,
            "re-seeding known bits is free"
        );
    }

    #[test]
    fn watched_members_export_plan_states() {
        let mut g = fixture();
        let path = parse_path("friend+[1..3]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let plan = BundlePlan::compile(&[&path]).unwrap();
        let masks = plan.chunk_masks(&[0]);
        let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
        let mut watched = vec![false; g.num_nodes()];
        watched[2] = true;
        let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
        let run = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(
            run.exports
                .iter()
                .any(|&(m, n, d, bits)| m == NodeId(2) && n == 0 && d == 2 && bits == 1),
            "watched member exports its arrival states: {:?}",
            run.exports
        );
    }
}
