//! Masked seeded BFS over a shared-prefix plan.
//!
//! The per-expression seeded engine ([`crate::online`]) runs one
//! product automaton — the linear chain of a single path — carrying 64
//! condition bits that all share that chain. This module generalizes
//! the automaton to a [`BundlePlan`] trie: the state space is
//! `(member, plan node, depth within node)`, completion at a node
//! ε-forks into the node's *children* with the condition masks
//! intersected against each child's [`ChunkMasks::node_mask`], and a
//! member is reported into a condition's audience when its bit is in
//! the completing node's `accept_mask`. Shared prefixes are therefore
//! walked once for every condition that spells them, and the engine
//! degenerates to exactly the per-expression engine when no two
//! conditions share a prefix.
//!
//! The mechanics mirror the linear engine state for state: the same
//! dense flat-array variant with the same size caps, the same sparse
//! fallback, the same round persistence (`seen`/`pending` masks make
//! re-seeding idempotent, so the sharded fixpoint re-enters shards
//! cheaply), the same `matched` report deduplication, and the
//! same watched-member export contract — exports carry the **plan
//! node id** in the slot where the linear engine carries the step
//! index, which is why trie node ids share the `u16` budget of
//! [`MaskedSeedState`]. Parent tracking and early-exit are
//! deliberately absent: targeted `check`/`explain` and witness
//! reconstruction stay on the per-expression engine.
//!
//! The flat variant owns no array of its own: its state directory and
//! slot arena are the linear engine's `MaskScratch`, taken from the
//! calling thread's pool by [`PlanBatchState::new`] and given back —
//! zeroed in `O(states reached)` — when the state is dropped. The
//! all-zero invariant, who resets, and why nothing else needs resetting
//! are written once, in [`crate::online`]'s module docs; this engine
//! only ever reaches the masks through `MaskMarks`, which is what keeps
//! every reached state on record for the reset. A bundle read on a
//! single graph therefore costs what its traversal explores, not
//! `16 B × plan layers × |V|` per 64-condition chunk.

use crate::online::{
    is_watched, MaskScratch, MaskedSeedState, SeededBatchOutcome, MAX_FLAT_LAYERS, MAX_FLAT_STATES,
};
use crate::query::plan::{BundlePlan, ChunkMasks, PlanNode};
use socialreach_graph::{CsrSnapshot, Direction, NodeId, SocialGraph};
use std::collections::HashMap;

/// Product state of the sparse variant: `(member, plan node, depth)`.
type PState = (u32, u16, u32);

/// Everything about a `(node, depth)` layer that is constant across
/// its `|V|` states (the plan analog of the linear engine's layer
/// table).
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

/// Round-persistent bookkeeping of the plan engine — one value serves
/// one `(graph, snapshot, plan, ≤64 conditions)` chunk across
/// arbitrarily many seeded runs, exactly like
/// [`crate::online::SeededBatchState`] serves one path.
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
    scratch: MaskScratch,
}

impl Drop for FlatPlanBatch {
    fn drop(&mut self) {
        self.scratch.give_back();
    }
}

/// Sparse mirror for degenerate product spaces, keyed by
/// `(member, node, depth)`.
struct SparsePlanBatch {
    sats: Vec<u32>,
    seen: HashMap<PState, u64>,
    pending: HashMap<PState, u64>,
    matched_mask: HashMap<u32, u64>,
    frontier: Vec<PState>,
    next: Vec<PState>,
}

/// `(v_count, layer_count)` when the dense product space of the plan
/// over `snap` is reasonable (same caps as the linear engine).
fn flat_plan_dimensions(snap: &CsrSnapshot, nodes: &[PlanNode]) -> Option<(u32, u64)> {
    let num_nodes = snap.num_nodes() as u64;
    let layer_count: u64 = nodes
        .iter()
        .map(|n| n.step.depths.saturation() as u64 + 1)
        .sum();
    if num_nodes == 0 || layer_count > MAX_FLAT_LAYERS || layer_count * num_nodes > MAX_FLAT_STATES
    {
        return None;
    }
    Some((num_nodes as u32, layer_count))
}

impl PlanBatchState {
    /// State for evaluating `nodes` over `snap`/`g`. Picks the flat
    /// dense-array variant (arrays from this thread's scratch pool)
    /// when the product space is reasonable and the sparse mirror
    /// otherwise — run results are identical either way.
    pub fn new(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode]) -> Self {
        assert!(
            !nodes.is_empty(),
            "a plan chunk traverses at least one node"
        );
        let inner = match if snap.matches(g) {
            flat_plan_dimensions(snap, nodes)
        } else {
            None
        } {
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
                    scratch: MaskScratch::take(v_count, layer_count as usize),
                })
            }
            None => PlanInner::Sparse(SparsePlanBatch {
                sats: nodes.iter().map(|n| n.step.depths.saturation()).collect(),
                seen: HashMap::new(),
                pending: HashMap::new(),
                matched_mask: HashMap::new(),
                frontier: Vec::new(),
                next: Vec::new(),
            }),
        };
        PlanBatchState {
            states_expanded: 0,
            inner,
        }
    }

    /// Total product states processed across every run so far.
    pub fn states_expanded(&self) -> usize {
        self.states_expanded
    }
}

/// One seeded run of the plan engine: drains the frontier produced by
/// `seeds`, recording accepts and exporting masked states visited at
/// `watched` members (an empty slice watches nobody). The contract matches
/// [`crate::online::evaluate_audience_batch_seeded`] — bits reported
/// (matched or exported) are disjoint across runs, and re-seeding
/// known bits is a no-op — with plan node ids in the `step` slot of
/// seeds and exports. `state` must have been created by
/// [`PlanBatchState::new`] for this same `(g, snap, nodes)`; `masks`
/// must stay the same chunk across runs.
pub fn evaluate_plan_batch_seeded(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    nodes: &[PlanNode],
    masks: &ChunkMasks,
    state: &mut PlanBatchState,
    seeds: &[MaskedSeedState],
    watched: &[bool],
) -> SeededBatchOutcome {
    let PlanBatchState {
        states_expanded,
        inner,
    } = state;
    match inner {
        PlanInner::Flat(fb) => fb.run(g, snap, nodes, masks, seeds, watched, states_expanded),
        PlanInner::Sparse(sb) => sb.run(g, nodes, masks, seeds, watched, states_expanded),
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
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        debug_assert!(snap.matches(g), "snapshot pinned for the whole bundle");
        let mut out = SeededBatchOutcome::default();
        let FlatPlanBatch {
            bases,
            sats,
            layers,
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
                let (_, delta) = marks.take_pending(lay, v);
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
                    let acc = marks.claim_matched(v, delta & masks.accept_mask[li.node as usize]);
                    if acc != 0 {
                        out.matched.push((node, acc));
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        if fwd != 0 {
                            marks.send(next, bases[child as usize], v, fwd);
                        }
                    }
                }

                // Edge expansion within the node.
                if !li.expands {
                    continue;
                }
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    for &nbr in snap.out_neighbors(v, step.label).nodes {
                        out.stats.edges_scanned += 1;
                        marks.send(next, li.next_layer, nbr, delta);
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    for &nbr in snap.in_neighbors(v, step.label).nodes {
                        out.stats.edges_scanned += 1;
                        marks.send(next, li.next_layer, nbr, delta);
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        out
    }
}

impl SparsePlanBatch {
    #[inline]
    fn send(
        seen: &mut HashMap<PState, u64>,
        pending: &mut HashMap<PState, u64>,
        queue: &mut Vec<PState>,
        st: PState,
        bits: u64,
    ) {
        let slot = seen.entry(st).or_insert(0);
        let new = bits & !*slot;
        if new != 0 {
            *slot |= new;
            let p = pending.entry(st).or_insert(0);
            if *p == 0 {
                queue.push(st);
            }
            *p |= new;
        }
    }

    fn run(
        &mut self,
        g: &SocialGraph,
        nodes: &[PlanNode],
        masks: &ChunkMasks,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        let mut out = SeededBatchOutcome::default();
        let SparsePlanBatch {
            sats,
            seen,
            pending,
            matched_mask,
            frontier,
            next,
        } = self;

        debug_assert!(frontier.is_empty(), "previous run drained its frontier");
        for &(m, node, depth, bits) in seeds {
            let st: PState = (m.0, node, depth.min(sats[node as usize]));
            Self::send(seen, pending, frontier, st, bits);
        }

        while !frontier.is_empty() {
            for &st in frontier.iter() {
                let (v, n, d) = st;
                let delta = pending.insert(st, 0).unwrap_or(0);
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
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        if fwd != 0 {
                            Self::send(seen, pending, next, (v, child, 0), fwd);
                        }
                    }
                }

                if d >= sats[n as usize] && !step.depths.is_unbounded() {
                    continue;
                }
                let d_next = (d + 1).min(sats[n as usize]);
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    for (_, rec) in g.out_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        Self::send(seen, pending, next, (rec.dst.0, n, d_next), delta);
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    for (_, rec) in g.in_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        Self::send(seen, pending, next, (rec.src.0, n, d_next), delta);
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
        let run = evaluate_plan_batch_seeded(g, snap, &plan.nodes, &masks, &mut state, &seeds, &[]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::evaluate_with_snapshot;
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

    fn single_audience(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owner: NodeId,
        path: &crate::path::PathExpr,
    ) -> Vec<NodeId> {
        let mut a = evaluate_with_snapshot(g, snap, owner, path, None).matched;
        a.sort_unstable_by_key(|n| n.0);
        a
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
            let want = single_audience(&g, &snap, owners[i], path);
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
            assert_eq!(batch.audiences[i], single_audience(&g, &snap, o, &p));
        }
    }

    #[test]
    fn stale_snapshots_fall_back_to_the_current_graph() {
        let mut g = fixture();
        let snap = g.snapshot();
        g.connect(NodeId(0), "friend", NodeId(5)); // stales `snap`
        let p = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let batch = one_path_audiences(&g, &snap, &[NodeId(0)], &p);
        assert!(
            batch.audiences[0].contains(&NodeId(5)),
            "stale snapshot must not hide the new edge"
        );
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
