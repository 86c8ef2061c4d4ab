//! The online evaluation engine: constrained product BFS over the social
//! graph.
//!
//! This is the paper's §1 baseline (*"apply a Depth-First Search
//! algorithm (respectively, Breadth-First Search algorithm) together
//! with the constraints to reduce the search space"*) and the semantic
//! **ground truth** the join-index engine is property-tested against.
//!
//! The search runs over product states `(member, step, depth-in-step)`:
//!
//! * from `(v, i, d)` every edge labeled `label_i` in direction `dir_i`
//!   leads to `(u, i, d+1)`, as long as `d+1` does not exceed the step's
//!   saturation depth (unbounded depth sets saturate: once `d` reaches
//!   the open tail every further depth behaves identically, so the state
//!   space stays finite);
//! * a state `(u, i, d)` with `d ∈ I_i` whose attribute conditions
//!   accept `u` *completes* step `i`: it matches the whole path when `i`
//!   is the last step, and otherwise ε-moves to `(u, i+1, 0)`.
//!
//! Matching is over **walks** — members and relationships may repeat.
//!
//! # The forward walk, the check and the mask-scratch pool
//!
//! * [`evaluate`] / [`evaluate_with_snapshot`] — the **forward walk**:
//!   the path as its one-path plan on [`crate::query::engine`]'s plan
//!   engine, seeded at the owner's start state. With a target it stops
//!   as soon as the target matches and traces a shortest witness walk
//!   off first-arrival parents; without one it returns the whole
//!   audience. The plan engine picks its flat variant over the
//!   label-partitioned [`CsrSnapshot`] when the dense product space is
//!   reasonable, and its sparse variant for the rest: astronomical
//!   saturation depths and, in release builds, a snapshot stale for the
//!   graph (debug builds panic on one). It is the route the partitioned
//!   backends take for every explanation and per-condition audience, so
//!   the plan engine is the crate's only forward engine.
//!   `tests/csr_differential.rs` pins it to a test oracle that shares no
//!   code with the crate.
//! * `decide` — the **check**, and the one walk this module keeps of
//!   its own. The single graph's serving backend calls it for every
//!   condition it decides and [`crate::OnlineEngine`] for every check.
//!   It walks the same snapshot from both ends, over one epoch-stamped
//!   dense array indexed by `(step, depth) · |V| + member` and
//!   swap-buffer frontiers: a path step scans only the `O(deg_label)`
//!   matching CSR slice, and the hot loop touches no hash map. A
//!   forward level expands from the owner's start state; a backward
//!   level expands from the requester over the **reversed** product
//!   automaton. One function builds both move tables. The backward
//!   table reads:
//!   - the walk ends at the requester in every completing layer of the
//!     last step, when that step's conditions accept the requester;
//!   - `(i, d)` is entered over an edge from `(i, d-1)`, and at the
//!     saturation depth of an unbounded step from `(i, d)` itself;
//!   - `(i+1, 0)` is entered by an ε-move from each completing layer of
//!     step `i` at the same member, when step `i`'s conditions accept
//!     that member;
//!   - an `Out` step is walked backward over `in_neighbors`, an `In`
//!     step over `out_neighbors`, a `Both` step over both.
//!
//!   Each level expands the side with the smaller frontier (forward on
//!   a tie). Both sides stamp the one epoch-stamped array, each with an
//!   epoch of its own, so a state holds the stamp of the side that
//!   reached it first; a check reserves both epochs at once, so a wrap
//!   of the counter (which clears the array) never falls between them.
//!   The walk grants when a side reaches a state the
//!   other side has stamped, and denies as soon as either frontier
//!   empties, so a deny costs the cheaper side's closure, not the whole
//!   bounded walk from the owner. It keeps no parents: explanations and
//!   audiences take the forward walk. Its [`SearchStats::states_visited`]
//!   counts the states both sides processed. A product space past the
//!   flat caps and a stale snapshot in release builds run the forward
//!   walk instead.
//! * The pooled mask scratch (below) — the state of the plan engine's
//!   flat variant, which serves every forward walk, every bundle, every
//!   partitioned read and every seeded run.
//!
//! The forward walk and both sides of a check expand states in
//! level-synchronous FIFO order, so decisions agree, and witness walks
//! are shortest. [`SearchStats::edges_scanned`] counts label-matching
//! traversals only on every walk, so the series share an axis in
//! experiments. The plan engine's sparse variant walks the graph's
//! adjacency lists and additionally reports the non-matching edges it
//! had to inspect and skip as [`SearchStats::edges_filtered`]; the CSR
//! slices never hold those, so every flat read reports zero.
//!
//! # Pooled mask scratch: the all-zero invariant
//!
//! The plan engine's flat variant keeps its state in one type,
//! `MaskScratch`, held in a per-thread pool beside the targeted
//! engine's epoch-stamped scratch (one stamp array, 4 B per product
//! state, and the frontiers).
//! A read must cost what its walk explores — in time *and* in memory it
//! dirties — not `layers · |V|`, so a scratch is a dense **directory**
//! (`u32` per product state: where the state's slot is, `0` for a state
//! not reached) over a compact **slot arena** holding `seen`, `pending`
//! and the first-arrival parent of exactly the states a read reaches,
//! plus one `matched` word per member and the two frontier queues.
//!
//! * **Invariant:** a scratch that is not in use has its directory and
//!   `matched` all zero and its arena and queues empty. Taking one from
//!   the pool is therefore a pop — no fill — and a fresh one is a
//!   lazily zeroed allocation (the pool's *grow* step, the only place a
//!   `|V|`-sized array is allocated on a masked read).
//! * **Who resets:** `MaskMarks::send_from` is the only writer of the
//!   directory, and every entry it sets has a slot that records its
//!   index; dropping a [`crate::query::PlanBatchState`] gives the
//!   scratch back, which walks the arena once, zeroing each slot's
//!   directory entry and its member's `matched` word (`matched[v]` is
//!   only written while a state at `v` is processed, so the arena
//!   covers it), then clears the arena. Reset is `O(states reached)`.
//!   Once a read has reached more than `1/8` of the dense span,
//!   give-back `fill(0)`s the span instead and drops the oversized
//!   arena.
//! * **Parents need no reset:** a parent pointer is a field of the slot
//!   created on a state's first arrival, naming an older slot of the
//!   same arena; [`crate::query::PlanBatchState::trace`] enters through
//!   the directory and follows slots. The arena is cleared wholesale,
//!   so nothing of an earlier use is reachable.
//! * **Never recycled dirty:** an engine dropped while its thread is
//!   panicking drops its scratch instead of returning it, and debug
//!   builds assert the whole buffer is zero on give-back.
//!
//! What a thread retains per scratch is the directory (4 B per product
//! state of the largest space served), `matched` (8 B per member) and
//! an arena no larger than the directory — a quarter of the 16 B
//! `seen`/`pending` pair the engines used to allocate and zero per
//! read, and the part a read makes resident is the pages it touches.
//! [`release_thread_caches`] drops the pool and the epoch-stamped
//! scratch; [`thread_cache_stats`] reports what the pool holds and what
//! it has done, and how many stamp slots the scratch holds.

use crate::path::{PathExpr, Step};
use crate::query::{evaluate_plan_batch_seeded, BundlePlan, PlanBatchState};
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{Direction, EdgeId, NodeId, SocialGraph};
use std::cell::RefCell;
use std::rc::Rc;

/// Counters describing how much work an evaluation performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Product states dequeued.
    pub states_visited: usize,
    /// Label-matching edge traversals. Every walk counts exactly the
    /// edges whose label matches the active step, so the series is
    /// comparable across the forward walk and the check.
    pub edges_scanned: usize,
    /// Edges inspected and skipped because their label did not match.
    /// Only the plan engine's sparse variant pays this cost (it filters
    /// the full adjacency list); the per-(node, label) CSR slices of
    /// every flat read never touch a non-matching edge, so those
    /// report zero.
    pub edges_filtered: usize,
}

/// One traversed relationship of a witness walk: the edge plus the
/// direction it was taken in (`true` = along its orientation).
pub type WitnessHop = (EdgeId, bool);

/// Result of evaluating one access condition online.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// Whether the target requester matched (always `false` when no
    /// target was supplied).
    pub granted: bool,
    /// Every member that matches the full path (the audience) — only
    /// populated when no early-exit target was supplied.
    pub matched: Vec<NodeId>,
    /// A shortest witness walk to the target, when granted.
    pub witness: Option<Vec<WitnessHop>>,
    /// Work counters.
    pub stats: SearchStats,
}

impl OnlineOutcome {
    fn empty_path(owner: NodeId, target: Option<NodeId>) -> Self {
        let granted = target == Some(owner);
        OnlineOutcome {
            granted,
            matched: if target.is_none() {
                vec![owner]
            } else {
                vec![]
            },
            witness: granted.then(Vec::new),
            stats: SearchStats::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Flat-array check
// ---------------------------------------------------------------------

/// Cap on `layers · |V|` dense state slots (64 MiB of visited stamps).
/// Above it the plan engine's sparse bookkeeping wins.
const MAX_FLAT_STATES: u64 = 1 << 24;
/// Cap on the number of `(step, depth)` layers by themselves, so a
/// degenerate `label+[1..2^30]` cannot force a huge layer table.
const MAX_FLAT_LAYERS: u64 = 1 << 20;
/// A slot's hop packs `edge id << 1 | forward`; this marks ε-moves and
/// seeds.
pub(crate) const HOP_NONE: u32 = u32::MAX;

/// Reusable per-thread search buffers, epoch-stamped so reuse costs
/// `O(1)` instead of a clear per query. Frontier entries pack
/// `(layer << 32) | member` so the hot loop decodes with shifts instead
/// of division; the flat array index is `layer · |V| + member`.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    visited: Vec<u32>,
    /// [`decide`]'s forward frontiers …
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// … and its backward ones (both sides stamp `visited`).
    back_frontier: Vec<u64>,
    back_next: Vec<u64>,
    /// The per-path move tables, one per direction of walk, and the
    /// layers they move to, rebuilt per call without reallocating.
    forward_moves: Vec<Moves>,
    backward_moves: Vec<Moves>,
    move_targets: Vec<u32>,
}

impl Scratch {
    /// Reserves `N` fresh reuse epochs, all of them above every stamp in
    /// the arrays. When the counter has no room for all `N`, it clears
    /// the stamp array first and starts over, so no epoch handed out
    /// can alias a stamp left by an earlier call.
    fn next_epochs<const N: usize>(&mut self) -> [u32; N] {
        if self.epoch > u32::MAX - N as u32 {
            self.visited.fill(0);
            self.epoch = 0;
        }
        let first = self.epoch + 1;
        self.epoch += N as u32;
        std::array::from_fn(|k| first + k as u32)
    }
}

/// What a walk does from a state of one `(step, depth)` layer — forward
/// over the product automaton, or backward over its reversal —
/// precomputed once per call so the per-state loop is table lookups.
/// Layer `(i, d)` is numbered `Σ_{j<i} (sat_j + 1) + d`, so a product
/// state is the single index `layer · |V| + member`.
#[derive(Clone, Copy, Debug)]
struct Moves {
    /// The step whose label the edge moves take.
    step: u16,
    /// The direction they take it in (reversed on the backward side).
    dir: Direction,
    /// The step whose conditions the member must pass to take the
    /// ε-moves.
    eps_step: u16,
    /// `targets[eps.0..eps.1]`: the layers an ε-move reaches, at the
    /// same member.
    eps: (u32, u32),
    /// `targets[edges.0..edges.1]`: the layers an edge move reaches, at
    /// the neighbour.
    edges: (u32, u32),
}

/// Fills the two move tables over the layers of `steps`, the layers
/// they move to in `targets`, and returns the backward walk's starts —
/// the last step's completing layers — as a range of `targets`.
///
/// Forward, `(i, d)` with `d >= 1` and `d ∈ I_i` completes step `i`:
/// before the last step it ε-moves to `(i+1, 0)` (on the last step the
/// backward walk's starts are the completing layers); and
/// `(i, d)` takes an edge to `(i, min(d+1, sat))` while `d < sat` or the
/// step is unbounded. Backward is the reversal:
/// * `(i, d)` is entered over an edge from `(i, d-1)` and, at the
///   saturation depth of an unbounded step, from `(i, d)` itself;
/// * `(i+1, 0)` is entered by an ε-move from every completing layer of
///   step `i` at the same member, when step `i`'s conditions accept it.
fn fill_move_tables(
    steps: &[Step],
    forward: &mut Vec<Moves>,
    backward: &mut Vec<Moves>,
    targets: &mut Vec<u32>,
) -> (u32, u32) {
    forward.clear();
    backward.clear();
    targets.clear();
    let mut base = 0u32;
    let mut completing = (0, 0);
    for (i, step) in steps.iter().enumerate() {
        let sat = step.depths.saturation();
        let unbounded = step.depths.is_unbounded();
        let last = i == steps.len() - 1;
        let before = completing;
        let start = targets.len() as u32;
        targets.extend(
            (1..=sat)
                .filter(|&d| step.depths.contains(d))
                .map(|d| base + d),
        );
        completing = (start, targets.len() as u32);
        let reversed = match step.dir {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        };
        for d in 0..=sat {
            let mut push = |layers: &[u32]| {
                let start = targets.len() as u32;
                targets.extend_from_slice(layers);
                (start, targets.len() as u32)
            };
            let completes = d >= 1 && step.depths.contains(d);
            let eps = if completes && !last {
                push(&[base + sat + 1]) // first layer of step i+1
            } else {
                push(&[])
            };
            let edges = if d < sat || unbounded {
                push(&[base + (d + 1).min(sat)])
            } else {
                push(&[])
            };
            forward.push(Moves {
                step: i as u16,
                dir: step.dir,
                eps_step: i as u16,
                eps,
                edges,
            });
            let edges = match d {
                0 => push(&[]),
                _ if d == sat && unbounded => push(&[base + d - 1, base + d]),
                _ => push(&[base + d - 1]),
            };
            backward.push(Moves {
                step: i as u16,
                dir: reversed,
                eps_step: i.saturating_sub(1) as u16,
                eps: if d == 0 { before } else { (0, 0) },
                edges,
            });
        }
        base += sat + 1;
    }
    completing
}

/// `(v_count, layer_count)` when the dense product space of `steps`
/// (a path's, or a plan's nodes') over `snap` is reasonable: within
/// [`MAX_FLAT_LAYERS`] `(step, depth)` layers and [`MAX_FLAT_STATES`]
/// states, with edge ids that fit a packed hop. `None` when the plan
/// engine's sparse bookkeeping should take over. The check and the
/// plan engine size their flat arrays by this one test.
pub(crate) fn flat_dimensions<'s>(
    snap: &CsrSnapshot,
    steps: impl Iterator<Item = &'s Step>,
) -> Option<(u32, u64)> {
    let num_nodes = snap.num_nodes() as u64;
    let layer_count: u64 = steps.map(|s| s.depths.saturation() as u64 + 1).sum();
    if num_nodes == 0
        || layer_count > MAX_FLAT_LAYERS
        || layer_count * num_nodes > MAX_FLAT_STATES
        || snap.num_edges() as u64 >= u64::from(HOP_NONE >> 1)
    {
        return None;
    }
    Some((num_nodes as u32, layer_count))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
    /// The mask engines' scratches this thread holds, all of them
    /// all-zero (see the module docs).
    static MASK_POOL: RefCell<MaskPool> = RefCell::default();
    /// One cached snapshot per thread for library callers that evaluate
    /// against a bare `&SocialGraph` (the serving backends publish their
    /// own shared snapshot; see `crate::publish`).
    static SNAPSHOT: RefCell<Option<Rc<CsrSnapshot>>> = const { RefCell::new(None) };
}

/// Returns a current snapshot of `g`, reusing the thread-local cache
/// when the topology generation still matches.
fn thread_snapshot(g: &SocialGraph) -> Rc<CsrSnapshot> {
    SNAPSHOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(s) = slot.as_ref() {
            if s.matches(g) {
                return Rc::clone(s);
            }
        }
        let fresh = Rc::new(CsrSnapshot::build(g));
        *slot = Some(Rc::clone(&fresh));
        fresh
    })
}

/// The thread-cached snapshot when it is already current for `g`,
/// without building one. Single-shot label scans (`carminati`) use
/// this: they profit from a snapshot another evaluation already paid
/// for, but a full two-direction all-label index build would cost more
/// than their one bounded scan.
pub(crate) fn thread_snapshot_if_current(g: &SocialGraph) -> Option<Rc<CsrSnapshot>> {
    SNAPSHOT.with(|slot| {
        slot.borrow()
            .as_ref()
            .filter(|s| s.matches(g))
            .map(Rc::clone)
    })
}

/// Releases this thread's cached snapshot, the check's search buffers
/// (the stamp array both of its sides use) and pooled mask scratches.
///
/// The caches are sized to the largest graph/query this thread has
/// evaluated and are otherwise retained for reuse; a long-lived worker
/// that has finished with a large graph can call this to return the
/// memory.
pub fn release_thread_caches() {
    release_thread_snapshot();
    SCRATCH.with(|scratch| *scratch.borrow_mut() = Scratch::default());
    // The pool's counters are monotonic instrumentation; only the
    // buffers go.
    MASK_POOL.with(|pool| pool.borrow_mut().free = Vec::new());
}

/// Releases only this thread's cached [`CsrSnapshot`], keeping the BFS
/// scratch buffers.
///
/// The library enforcer calls this from `Enforcer::invalidate`: after
/// a mutation the calling thread's fallback snapshot is stale and would
/// otherwise pin the old index in memory until the thread's next
/// bare-graph evaluation notices the generation moved. The scratch
/// stays — it is epoch-stamped and graph-agnostic, so retaining it is
/// free and keeps mutate-then-check loops allocation-free.
pub fn release_thread_snapshot() {
    SNAPSHOT.with(|slot| slot.borrow_mut().take());
}

/// Observable footprint of this thread's online-engine caches, for
/// tests and capacity instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCacheStats {
    /// Whether a CSR snapshot is cached for this thread.
    pub snapshot_cached: bool,
    /// Dense visited slots currently allocated in the check's scratch.
    pub scratch_state_slots: usize,
    /// The mask engines' scratch pool.
    pub mask_pool: MaskPoolStats,
}

/// Footprint and work counters of this thread's mask-scratch pool (see
/// the module docs). The counters are monotonic over the thread's life;
/// [`release_thread_caches`] drops the buffers and leaves them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaskPoolStats {
    /// Scratches held by the pool (not those currently lent to an
    /// engine).
    pub buffers_held: usize,
    /// Heap bytes those scratches have allocated.
    pub bytes_held: usize,
    /// Scratches handed to an engine.
    pub takes: u64,
    /// Takes that had to allocate a `|V|`-sized array (a first use, or
    /// a larger product space than the scratch had served before).
    pub grows: u64,
    /// Reached states cleared one by one on give-back.
    pub slots_reset: u64,
    /// Give-backs that fell back to `fill(0)` over the dense span.
    pub full_fills: u64,
}

/// Reports this thread's cached-snapshot presence, scratch size and
/// mask-scratch pool.
pub fn thread_cache_stats() -> ThreadCacheStats {
    ThreadCacheStats {
        snapshot_cached: SNAPSHOT.with(|slot| slot.borrow().is_some()),
        scratch_state_slots: SCRATCH.with(|scratch| scratch.borrow().visited.len()),
        mask_pool: MASK_POOL.with(|pool| {
            let pool = pool.borrow();
            MaskPoolStats {
                buffers_held: pool.free.len(),
                bytes_held: pool.free.iter().map(MaskScratch::heap_bytes).sum(),
                ..pool.stats
            }
        }),
    }
}

/// Evaluates `path` from `owner` by the forward walk.
///
/// With `target = Some(v)` the search exits as soon as `v` matches and
/// traces a shortest witness walk. With `target = None` it explores the
/// whole product space and returns the full audience (sorted).
///
/// Runs [`evaluate_with_snapshot`] over this thread's cached
/// [`CsrSnapshot`] of `g`, built when the topology generation moved.
/// Callers holding a snapshot — the serving backends do — should call
/// [`evaluate_with_snapshot`] themselves.
pub fn evaluate(
    g: &SocialGraph,
    owner: NodeId,
    path: &PathExpr,
    target: Option<NodeId>,
) -> OnlineOutcome {
    if path.is_empty() {
        return OnlineOutcome::empty_path(owner, target);
    }
    evaluate_with_snapshot(g, &thread_snapshot(g), owner, path, target)
}

/// [`evaluate`] over a caller-provided snapshot (no cache probe, no
/// build): the path as its one-path plan on the plan engine, seeded at
/// the owner's start state and stopping at `target`, its witness traced
/// off first-arrival parents. The plan engine runs its flat variant
/// when the dense product space is reasonable and its sparse variant
/// otherwise. A snapshot stale for `g` is a caller's bug: debug builds
/// panic on one, release builds run the sparse variant, which reads `g`
/// itself.
pub fn evaluate_with_snapshot(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    owner: NodeId,
    path: &PathExpr,
    target: Option<NodeId>,
) -> OnlineOutcome {
    if path.is_empty() {
        return OnlineOutcome::empty_path(owner, target);
    }
    let plan = BundlePlan::compile(&[path]).expect("a parsed path fits a plan");
    let masks = plan.chunk_masks(&[0]);
    let build = match target {
        Some(_) => PlanBatchState::with_parents,
        None => PlanBatchState::new,
    };
    let mut state = build(g, snap, &plan.nodes);
    let seed = [(owner, 0, 0, 1)];
    let run =
        evaluate_plan_batch_seeded(g, snap, &plan.nodes, &masks, &mut state, &seed, &[], target);
    let witness = match (run.hit, target) {
        (Some((node, depth)), Some(requester)) => state.trace(requester, node, depth),
        _ => None,
    };
    let mut matched: Vec<NodeId> = run.matched.iter().map(|&(m, _)| m).collect();
    matched.sort_unstable();
    OnlineOutcome {
        granted: run.hit.is_some(),
        matched,
        witness: witness.map(|(hops, _)| hops),
        stats: run.stats,
    }
}

/// Decides whether `requester` matches `path` from `owner`, walking from
/// both ends: forward from the owner over the product automaton and
/// backward from the requester over its reversal, a level at a time on
/// whichever side has the smaller frontier (forward on a tie). It
/// grants on the first state both sides have stamped, and denies when
/// either side runs out of states.
///
/// It answers what `evaluate_with_snapshot(.., Some(requester))` answers,
/// without a witness: explanations and audiences take the forward
/// walk. Its [`SearchStats::states_visited`] counts the states both
/// sides processed. A stale snapshot (a caller's bug: debug builds
/// panic) or a product space past [`flat_dimensions`] runs the forward
/// walk, [`evaluate_with_snapshot`], instead.
///
/// The single graph's checks run here, and the library engine's
/// through [`decide_on_thread_snapshot`].
pub(crate) fn decide(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    owner: NodeId,
    path: &PathExpr,
    requester: NodeId,
) -> (bool, SearchStats) {
    if path.is_empty() {
        return (owner == requester, SearchStats::default());
    }
    let current = snap.matches(g);
    debug_assert!(current, "stale snapshot: every caller hands a current one");
    let steps = &path.steps;
    let Some((v_count, layer_count)) = flat_dimensions(snap, steps.iter()).filter(|_| current)
    else {
        let out = evaluate_with_snapshot(g, snap, owner, path, Some(requester));
        return (out.granted, out.stats);
    };
    let total_states = (layer_count * u64::from(v_count)) as usize;
    let mut stats = SearchStats::default();

    let granted = SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        let starts = fill_move_tables(
            steps,
            &mut s.forward_moves,
            &mut s.backward_moves,
            &mut s.move_targets,
        );
        if s.visited.len() < total_states {
            s.visited.resize(total_states, 0);
        }
        // Two fresh epochs, one per side: a state holds the stamp of the
        // side that reached it first, and the other side reaching it is
        // the meet.
        let [forward, backward] = s.next_epochs();
        let Scratch {
            visited,
            frontier,
            next,
            back_frontier,
            back_next,
            forward_moves,
            backward_moves,
            move_targets,
            ..
        } = s;
        frontier.clear();
        back_frontier.clear();

        visited[owner.index()] = forward; // layer 0 is (step 0, depth 0)
        frontier.push(u64::from(owner.0));
        let last = steps.len() - 1;
        if steps[last]
            .conds
            .iter()
            .all(|c| c.eval(g.node_attrs(requester)))
        {
            for &layer in &move_targets[starts.0 as usize..starts.1 as usize] {
                visited[(layer * v_count + requester.0) as usize] = backward;
                back_frontier.push((u64::from(layer) << 32) | u64::from(requester.0));
            }
        }

        let walk = Walk {
            g,
            snap,
            steps,
            targets: move_targets,
            v_count,
        };
        loop {
            if frontier.is_empty() || back_frontier.is_empty() {
                break false;
            }
            let met = if frontier.len() <= back_frontier.len() {
                let sides = (forward, backward);
                let met = walk.level(forward_moves, visited, sides, frontier, next, &mut stats);
                std::mem::swap(frontier, next);
                met
            } else {
                let sides = (backward, forward);
                let met = walk.level(
                    backward_moves,
                    visited,
                    sides,
                    back_frontier,
                    back_next,
                    &mut stats,
                );
                std::mem::swap(back_frontier, back_next);
                met
            };
            if met {
                break true;
            }
        }
    });
    (granted, stats)
}

/// [`decide`] over this thread's cached snapshot of `g`, built when the
/// topology generation moved — the library engine's check.
pub(crate) fn decide_on_thread_snapshot(
    g: &SocialGraph,
    owner: NodeId,
    path: &PathExpr,
    requester: NodeId,
) -> (bool, SearchStats) {
    decide(g, &thread_snapshot(g), owner, path, requester)
}

/// What both sides of one [`decide`] call share.
struct Walk<'a> {
    g: &'a SocialGraph,
    snap: &'a CsrSnapshot,
    steps: &'a [Step],
    targets: &'a [u32],
    v_count: u32,
}

impl Walk<'_> {
    /// Expands every state of `frontier` by `moves`, stamping what it
    /// reaches with `mine` of the `(mine, theirs)` epochs and queueing it
    /// on `next` (cleared first). Returns `true` as soon as it reaches a
    /// state stamped `theirs`: the two walks meet there.
    fn level(
        &self,
        moves: &[Moves],
        visited: &mut [u32],
        (mine, theirs): (u32, u32),
        frontier: &[u64],
        next: &mut Vec<u64>,
        stats: &mut SearchStats,
    ) -> bool {
        next.clear();
        let v_count = self.v_count;
        let mut stamp = |layer: u32, u: u32| {
            let idx = (layer * v_count + u) as usize;
            let stamped = visited[idx];
            if stamped == mine {
                return false;
            }
            if stamped == theirs {
                return true;
            }
            visited[idx] = mine;
            next.push((u64::from(layer) << 32) | u64::from(u));
            false
        };
        for &state in frontier {
            let v = state as u32;
            let m = moves[(state >> 32) as usize];
            stats.states_visited += 1;
            let eps = &self.targets[m.eps.0 as usize..m.eps.1 as usize];
            if !eps.is_empty() {
                let conds = &self.steps[m.eps_step as usize].conds;
                if conds.iter().all(|c| c.eval(self.g.node_attrs(NodeId(v)))) {
                    for &layer in eps {
                        if stamp(layer, v) {
                            return true;
                        }
                    }
                }
            }
            let edges = &self.targets[m.edges.0 as usize..m.edges.1 as usize];
            if edges.is_empty() {
                continue;
            }
            let label = self.steps[m.step as usize].label;
            let (out, inn) = match m.dir {
                Direction::Out => (self.snap.out_neighbors(v, label).nodes, &[][..]),
                Direction::In => (&[][..], self.snap.in_neighbors(v, label).nodes),
                Direction::Both => (
                    self.snap.out_neighbors(v, label).nodes,
                    self.snap.in_neighbors(v, label).nodes,
                ),
            };
            for &u in out.iter().chain(inn) {
                stats.edges_scanned += 1;
                for &layer in edges {
                    if stamp(layer, u) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// Pooled mask scratch (the state of the plan engine's flat variant)
// ---------------------------------------------------------------------

/// Give-back clears the directory entry by entry while at most this
/// fraction of the dense span was reached, and `fill(0)`s the span past
/// it (dropping the then-oversized slot arena): a sequential fill moves
/// 4 B per state at memory bandwidth, a reached state costs two
/// scattered stores.
const REACHED_FILL_DIVISOR: usize = 8;

/// Scratches one thread retains; a give-back past it drops the buffer.
/// A thread needs as many at once as one fixpoint has lanes open (one
/// per active shard).
const MASK_POOL_CAP: usize = 8;

/// `parent` of a slot nothing leads to: a seed, or any slot of an
/// engine that does not track parents.
pub(crate) const NO_PARENT: u32 = u32::MAX;

#[derive(Default)]
struct MaskPool {
    free: Vec<MaskScratch>,
    /// Work counters (`buffers_held`/`bytes_held` are computed on
    /// read).
    stats: MaskPoolStats,
}

/// Everything a mask engine knows about one product state it has
/// reached. Slots live in a per-read arena in arrival order, so the
/// memory a read dirties is proportional to the states it reaches.
#[derive(Clone, Copy)]
struct MaskSlot {
    /// Bits ever arrived.
    seen: u64,
    /// Bits arrived since the state was last processed (`⊆ seen`).
    pending: u64,
    /// The state's dense index `layer · |V| + member` — the directory
    /// entry that points here.
    idx: u32,
    /// Arena position of the state this one was **first** reached
    /// from, or [`NO_PARENT`].
    parent: u32,
    /// `(eid << 1) | forward` of that first arrival, or [`HOP_NONE`]
    /// for seeds and ε-moves.
    hop: u32,
}

/// The mask state of a [`MaskScratch`] behind the only operations that
/// write it, so every directory entry that leaves zero has a slot
/// recording where it is (see the module docs for the invariant this
/// keeps).
#[derive(Default)]
pub(crate) struct MaskMarks {
    v_count: u32,
    /// `layers · |V|` of the current use; every state it addresses is
    /// below it (the directory may be longer, from an earlier use).
    span: usize,
    /// `1 +` arena position of each reached state, `0` for the others,
    /// indexed by `layer · |V| + member`.
    dir: Vec<u32>,
    /// The reached states, in arrival order.
    slots: Vec<MaskSlot>,
    /// Bits already reported as matched, per member.
    matched: Vec<u64>,
}

impl MaskMarks {
    #[inline]
    fn index(&self, layer: u32, v: u32) -> usize {
        (layer * self.v_count + v) as usize
    }

    /// Forwards `bits` to a state, queueing it on the 0 → non-zero
    /// pending transition. On the state's **first-ever** arrival it
    /// gets its slot, remembering `from` (the arena position of the
    /// state being processed, [`NO_PARENT`] for a seed) and `hop`.
    #[inline]
    pub(crate) fn send_from(
        &mut self,
        queue: &mut Vec<u64>,
        layer: u32,
        v: u32,
        bits: u64,
        from: u32,
        hop: u32,
    ) {
        let idx = self.index(layer, v);
        let packed = (u64::from(layer) << 32) | u64::from(v);
        match self.dir[idx] {
            0 if bits != 0 => {
                self.slots.push(MaskSlot {
                    seen: bits,
                    pending: bits,
                    idx: idx as u32,
                    parent: from,
                    hop,
                });
                self.dir[idx] = self.slots.len() as u32;
                queue.push(packed);
            }
            0 => {}
            at => {
                let slot = &mut self.slots[at as usize - 1];
                let new = bits & !slot.seen;
                if new != 0 {
                    slot.seen |= new;
                    if slot.pending == 0 {
                        queue.push(packed);
                    }
                    slot.pending |= new;
                }
            }
        }
    }

    /// [`MaskMarks::send_from`] for an engine that keeps no parent
    /// chains, and for seeds.
    #[inline]
    pub(crate) fn send(&mut self, queue: &mut Vec<u64>, layer: u32, v: u32, bits: u64) {
        self.send_from(queue, layer, v, bits, NO_PARENT, HOP_NONE);
    }

    /// Takes the bits awaiting processing at a queued state; also
    /// returns its arena position (the `from` of what it forwards).
    #[inline]
    pub(crate) fn take_pending(&mut self, layer: u32, v: u32) -> (u32, u64) {
        let at = self.dir[self.index(layer, v)] - 1;
        (at, std::mem::take(&mut self.slots[at as usize].pending))
    }

    /// The bits of `bits` member `v` has not been reported under yet,
    /// now marked reported. Only called while a state at `v` is being
    /// processed, so `v` has a slot.
    #[inline]
    pub(crate) fn claim_matched(&mut self, v: u32, bits: u64) -> u64 {
        let word = &mut self.matched[v as usize];
        let new = bits & !*word;
        *word |= new;
        new
    }

    /// Follows first-arrival parents from the state `(layer, v)` back to
    /// its chain's seed: the hops in walk order plus the seed's
    /// `(layer, member)`. `None` for a state never reached.
    pub(crate) fn chain(&self, layer: u32, v: u32) -> Option<(Vec<WitnessHop>, u32, u32)> {
        let mut slot = &self.slots[self.dir[self.index(layer, v)].checked_sub(1)? as usize];
        let mut hops = Vec::new();
        loop {
            if slot.hop != HOP_NONE {
                hops.push((EdgeId(slot.hop >> 1), slot.hop & 1 == 1));
            }
            if slot.parent == NO_PARENT {
                break;
            }
            slot = &self.slots[slot.parent as usize];
        }
        hops.reverse();
        Some((hops, slot.idx / self.v_count, slot.idx % self.v_count))
    }
}

/// The reusable state of the plan engine's flat variant
/// ([`crate::query::engine`]): the state directory with its slot
/// arena, the per-member matched words and the two frontier queues. Taken from and given back to this thread's
/// pool; all-zero (and empty) whenever it is not in use.
#[derive(Default)]
pub(crate) struct MaskScratch {
    pub(crate) marks: MaskMarks,
    /// Packed `(layer << 32) | member` states of the current level.
    pub(crate) frontier: Vec<u64>,
    /// … and of the level being built.
    pub(crate) next: Vec<u64>,
}

/// Replaces `v` by a (lazily) zeroed array of `len` when it is shorter.
/// The old content is all-zero by the pool invariant, so nothing is
/// copied.
fn grow_zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> bool {
    if v.len() >= len {
        return false;
    }
    *v = vec![T::default(); len];
    true
}

impl MaskScratch {
    /// Takes a scratch for a `layers × v_count` product space from this
    /// thread's pool, growing (never shrinking) its dense arrays — this
    /// is the only place a `|V|`-sized array is allocated on a masked
    /// read.
    pub(crate) fn take(v_count: u32, layers: usize) -> Self {
        let span = layers * v_count as usize;
        MASK_POOL.with(|pool| {
            let pool = &mut *pool.borrow_mut();
            let mut s = pool.free.pop().unwrap_or_default();
            let grew = grow_zeroed(&mut s.marks.dir, span)
                | grow_zeroed(&mut s.marks.matched, v_count as usize);
            pool.stats.takes += 1;
            pool.stats.grows += u64::from(grew);
            s.marks.v_count = v_count;
            s.marks.span = span;
            s
        })
    }

    /// Returns the scratch to this thread's pool (leaving `self`
    /// empty), zeroing what the use reached. A panicking thread drops
    /// it instead — an unwound engine is never recycled dirty — and so
    /// does a pool already at [`MASK_POOL_CAP`].
    pub(crate) fn give_back(&mut self) {
        let mut s = std::mem::take(self);
        if std::thread::panicking() {
            return;
        }
        // `try_with`: an engine dropped while the thread's locals are
        // being destroyed just frees its scratch.
        let _ = MASK_POOL.try_with(|pool| {
            let pool = &mut *pool.borrow_mut();
            if pool.free.len() >= MASK_POOL_CAP {
                return;
            }
            s.reset(&mut pool.stats);
            pool.free.push(s);
        });
    }

    /// Restores the all-zero invariant in `O(states reached)` — or,
    /// when more than `1/REACHED_FILL_DIVISOR` of the span was reached,
    /// by a fill of the span, dropping the arena and queues: those are
    /// then the footprint of one huge read, not something to retain.
    fn reset(&mut self, stats: &mut MaskPoolStats) {
        let m = &mut self.marks;
        if m.slots.len() > m.span / REACHED_FILL_DIVISOR {
            m.dir[..m.span].fill(0);
            m.matched[..m.v_count as usize].fill(0);
            stats.full_fills += 1;
            m.slots = Vec::new();
            self.frontier = Vec::new();
            self.next = Vec::new();
        } else {
            for slot in &m.slots {
                m.dir[slot.idx as usize] = 0;
                m.matched[(slot.idx % m.v_count) as usize] = 0;
            }
            stats.slots_reset += m.slots.len() as u64;
            m.slots.clear();
            self.frontier.clear();
            self.next.clear();
        }
        debug_assert!(
            m.dir.iter().all(|&e| e == 0) && m.matched.iter().all(|&w| w == 0),
            "a mask scratch must be all-zero when it returns to the pool"
        );
    }

    fn heap_bytes(&self) -> usize {
        let m = &self.marks;
        std::mem::size_of::<u32>() * m.dir.capacity()
            + std::mem::size_of::<MaskSlot>() * m.slots.capacity()
            + std::mem::size_of::<u64>()
                * (m.matched.capacity() + self.frontier.capacity() + self.next.capacity())
    }
}

/// `watched[v]`, where an empty `watched` slice means nobody is watched
/// (a single-graph read has no ghosts and allocates no watch set).
#[inline]
pub(crate) fn is_watched(watched: &[bool], v: usize) -> bool {
    !watched.is_empty() && watched[v]
}

// ---------------------------------------------------------------------
// Seed states and run outcomes of the masked engine
// ---------------------------------------------------------------------

/// A product-automaton coordinate `(member, step, depth)` — a plan node
/// id in the step slot — with `depth` capped at the step's saturation
/// point, which makes it canonical across independently built shards.
pub type SeedState = (NodeId, u16, u32);

/// A masked product state exchanged between the fixpoint driver and
/// the per-shard mask engine: a [`SeedState`] plus the condition bits
/// that reached it.
pub type MaskedSeedState = (NodeId, u16, u32, u64);

/// Result of one [`crate::query::evaluate_plan_batch_seeded`] run.
#[derive(Clone, Debug, Default)]
pub struct SeededBatchOutcome {
    /// Members that completed the final step during this run, each
    /// with the condition bits that **newly** matched them (the state
    /// remembers what it already reported, so bits never repeat across
    /// runs). Watched members are included; the caller filters ghosts.
    pub matched: Vec<(NodeId, u64)>,
    /// Masked states visited at watched members during this run, with
    /// the bits that newly arrived there (depth already saturated).
    /// Bits at one state are disjoint across runs by construction.
    pub exports: Vec<MaskedSeedState>,
    /// The `(node, depth)` coordinate at which the `stop` member of an
    /// early-exit run completed an accepting plan node, when it did.
    /// The run returns immediately on a hit, so a hit run's frontier is
    /// **not** drained: after a hit the engine may only be used for
    /// [`crate::query::PlanBatchState::trace`].
    pub hit: Option<(u16, u32)>,
    /// Work counters for this run only.
    pub stats: SearchStats,
}

/// Runs a read that is handed a stale snapshot on purpose. Debug builds
/// must panic with "stale snapshot" (`None`); release builds fall back
/// and return the read's result for the caller to check.
#[cfg(test)]
pub(crate) fn on_stale_snapshot<R>(read: impl FnOnce() -> R) -> Option<R> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read));
    if !cfg!(debug_assertions) {
        return Some(outcome.unwrap_or_else(|p| std::panic::resume_unwind(p)));
    }
    let payload = match outcome {
        Ok(_) => panic!("debug builds must panic on a stale snapshot"),
        Err(payload) => payload,
    };
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("stale snapshot"),
        "unexpected panic: {message}"
    );
    None
}

/// The members [`decide`] grants `path` from `owner`, in id order: an
/// audience taken from the check, to hold the plan engine's against.
#[cfg(test)]
pub(crate) fn decided_audience(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    owner: NodeId,
    path: &PathExpr,
) -> Vec<NodeId> {
    let granted = |&m: &NodeId| decide(g, snap, owner, path, m).0;
    g.nodes().filter(granted).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{parse_path, PathExpr};
    use crate::query::{evaluate_plan_batch_seeded, BundlePlan, ChunkMasks, PlanBatchState};

    fn parse(g: &mut SocialGraph, text: &str) -> PathExpr {
        parse_path(text, g.vocab_mut()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Alice -friend-> Bob -friend-> Carol -colleague-> Dave
    ///   \--friend-> Eve
    fn chain() -> SocialGraph {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        let d = g.add_node("Dave");
        let e = g.add_node("Eve");
        g.connect(a, "friend", b);
        g.connect(b, "friend", c);
        g.connect(c, "colleague", d);
        g.connect(a, "friend", e);
        g
    }

    fn names(g: &SocialGraph, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| g.node_name(n).to_owned()).collect()
    }

    #[test]
    fn single_hop_out() {
        let mut g = chain();
        let p = parse(&mut g, "friend+[1]");
        let alice = g.node_by_name("Alice").unwrap();
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Eve"]);
    }

    #[test]
    fn depth_set_reaches_exact_levels() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p2 = parse(&mut g, "friend+[2]");
        let out = evaluate(&g, alice, &p2, None);
        assert_eq!(names(&g, &out.matched), vec!["Carol"]);
        let p12 = parse(&mut g, "friend+[1,2]");
        let out = evaluate(&g, alice, &p12, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Carol", "Eve"]);
    }

    #[test]
    fn multi_step_path() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Dave"]);
    }

    #[test]
    fn incoming_direction() {
        let mut g = chain();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse(&mut g, "friend-[1]");
        let out = evaluate(&g, bob, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice"]);
    }

    #[test]
    fn both_direction_unions_orientations() {
        let mut g = chain();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse(&mut g, "friend*[1]");
        let out = evaluate(&g, bob, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice", "Carol"]);
    }

    #[test]
    fn unbounded_depth_saturates() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1..]");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Carol", "Eve"]);
    }

    #[test]
    fn unbounded_with_hole_skips_depths() {
        // friend+[3..] from Alice: only Carol is 3+ friend-hops away?
        // Alice -> Bob (1) -> Carol (2); chain ends. Nothing at 3+.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[3..]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn walks_may_revisit_nodes() {
        // Alice <-friend-> Bob (mutual), query friend+[3]: walks
        // A->B->A->B land on Bob at depth 3.
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g.connect(b, "friend", a);
        let p = parse(&mut g, "friend+[3]");
        let out = evaluate(&g, a, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob"]);
    }

    #[test]
    fn attribute_conditions_filter_endpoints() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let eve = g.node_by_name("Eve").unwrap();
        g.set_node_attr(bob, "age", 17i64);
        g.set_node_attr(eve, "age", 30i64);
        let p = parse(&mut g, "friend+[1]{age>=18}");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Eve"]);
    }

    #[test]
    fn conditions_apply_at_step_end_not_mid_run() {
        // friend+[2]{age>=18}: the intermediate member (Bob, 17) is only
        // passed through; the condition tests the endpoint (Carol, 20).
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        g.set_node_attr(bob, "age", 17i64);
        g.set_node_attr(carol, "age", 20i64);
        let p = parse(&mut g, "friend+[2]{age>=18}");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Carol"]);
    }

    #[test]
    fn target_early_exit_and_witness() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, Some(dave));
        assert!(out.granted);
        let witness = out.witness.expect("witness present on grant");
        assert_eq!(witness.len(), 3, "2 friend hops + 1 colleague hop");
        // Replay the witness: it must be a connected walk from Alice to
        // Dave.
        let mut at = alice;
        for (eid, forward) in witness {
            let rec = g.edge(eid);
            if forward {
                assert_eq!(rec.src, at);
                at = rec.dst;
            } else {
                assert_eq!(rec.dst, at);
                at = rec.src;
            }
        }
        assert_eq!(at, dave);
    }

    #[test]
    fn deny_when_no_matching_walk() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let p = parse(&mut g, "colleague+[1]");
        let out = evaluate(&g, alice, &p, Some(dave));
        assert!(!out.granted);
        assert!(out.witness.is_none());
    }

    #[test]
    fn empty_path_matches_owner_only() {
        let g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let p = PathExpr::new(vec![]);
        assert!(evaluate(&g, alice, &p, Some(alice)).granted);
        assert!(!evaluate(&g, alice, &p, Some(bob)).granted);
        assert_eq!(evaluate(&g, alice, &p, None).matched, vec![alice]);
    }

    #[test]
    fn unknown_label_matches_nothing() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "enemy+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.stats.states_visited > 0);
        assert!(out.stats.edges_scanned > 0);
    }

    #[test]
    fn owner_can_be_in_their_own_audience_via_cycles() {
        // Mutual friendship: friend+[2] from Alice loops back to Alice.
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g.connect(b, "friend", a);
        let p = parse(&mut g, "friend+[2]");
        let out = evaluate(&g, a, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice"]);
    }

    /// The forward walk answers as the check does on every pair of the
    /// chain: the same audiences and decisions, with a witness walk
    /// exactly when it grants.
    #[test]
    fn snapshot_engine_matches_reference_on_the_chain() {
        let mut g = chain();
        g.set_node_attr(g.node_by_name("Carol").unwrap(), "age", 20i64);
        let texts = [
            "friend+[1]",
            "friend+[1,2]",
            "friend*[1..]",
            "friend+[1,2]/colleague+[1]",
            "friend+[2]{age>=18}",
            "friend-[1]",
        ];
        let paths: Vec<PathExpr> = texts.iter().map(|t| parse(&mut g, t)).collect();
        let snap = g.snapshot();
        for (p, text) in paths.iter().zip(texts) {
            for owner in g.nodes() {
                let audience = evaluate_with_snapshot(&g, &snap, owner, p, None).matched;
                let decided = decided_audience(&g, &snap, owner, p);
                assert_eq!(audience, decided, "{text} from {owner}");
                for requester in g.nodes() {
                    let out = evaluate_with_snapshot(&g, &snap, owner, p, Some(requester));
                    let at = format!("{text} {owner}->{requester}");
                    assert_eq!(out.granted, decided.contains(&requester), "{at}");
                    assert_eq!(out.witness.is_some(), out.granted, "{at}");
                }
            }
        }
    }

    /// The walk from both ends decides as the forward walk does, on
    /// every pair of the chain, under bounded, unbounded, multi-step
    /// and conditioned paths.
    #[test]
    fn decide_answers_as_the_forward_walk_on_the_chain() {
        let mut g = chain();
        g.set_node_attr(g.node_by_name("Carol").unwrap(), "age", 20i64);
        g.connect(
            g.node_by_name("Carol").unwrap(),
            "friend",
            g.node_by_name("Alice").unwrap(),
        );
        let texts = [
            "friend+[1]",
            "friend+[2..]",
            "friend-[1..]",
            "friend*[1..]/colleague+[1]",
            "friend+[1..]/friend-[2..]",
            "friend+[2]{age>=18}/colleague*[1,3]",
            "friend+[1,3]/friend+[1]{age>=18}",
        ];
        let paths: Vec<PathExpr> = texts.iter().map(|t| parse(&mut g, t)).collect();
        let snap = g.snapshot();
        for (p, text) in paths.iter().zip(texts) {
            for owner in g.nodes() {
                for requester in g.nodes() {
                    let (granted, _) = decide(&g, &snap, owner, p, requester);
                    let forward = evaluate_with_snapshot(&g, &snap, owner, p, Some(requester));
                    assert_eq!(granted, forward.granted, "{text} {owner}->{requester}");
                }
            }
        }
    }

    /// A deny costs what the cheaper side costs: a requester nobody has
    /// an edge to is settled from its end, whatever the owner's degree.
    #[test]
    fn a_deny_at_an_unreachable_member_walks_from_its_end() {
        let mut g = SocialGraph::new();
        let hub = g.add_node("hub");
        for i in 0..1_000 {
            let leaf = g.add_node(&format!("leaf{i}"));
            g.connect(hub, "friend", leaf);
        }
        let loner = g.add_node("loner");
        g.connect(loner, "friend", hub);
        let p = parse(&mut g, "friend+[1..2]");
        let snap = g.snapshot();
        let forward = evaluate_with_snapshot(&g, &snap, hub, &p, Some(loner));
        assert!(!forward.granted);
        assert_eq!(
            forward.stats.states_visited, 1_001,
            "forward walks every leaf"
        );
        let (granted, stats) = decide(&g, &snap, hub, &p, loner);
        assert!(!granted);
        assert!(
            stats.states_visited <= 4,
            "{} states for a deny nothing leads to",
            stats.states_visited
        );
        assert!(
            decide(&g, &snap, loner, &p, NodeId(1)).0,
            "loner -> hub -> leaf0"
        );
    }

    /// A stale snapshot and a space past the flat caps take the
    /// one-path-plan fallback, which decides as the flat walk does.
    #[test]
    fn decide_falls_back_on_stale_snapshots_and_past_the_caps() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let [carol, dave] = ["Carol", "Dave"].map(|n| g.node_by_name(n).unwrap());
        let deep = parse(&mut g, "friend+[1..1073741824]");
        let snap = g.snapshot();
        let (granted, stats) = decide(&g, &snap, alice, &deep, carol);
        assert!(granted, "Carol is two friend hops away");
        let out = evaluate_with_snapshot(&g, &snap, alice, &deep, Some(carol));
        assert_eq!(stats, out.stats, "the fallback runs unchanged");
        assert!(!decide(&g, &snap, alice, &deep, dave).0);

        g.connect(alice, "friend", dave); // stales `snap`
        let p = parse(&mut g, "friend+[1]");
        if let Some((granted, _)) = on_stale_snapshot(|| decide(&g, &snap, alice, &p, dave)) {
            assert!(granted, "stale snapshot must not hide the new edge");
        }
    }

    /// The reuse epochs wrap without a stamp outliving its call. A check
    /// (two epochs) entering at each epoch near `u32::MAX` answers as
    /// the forward walk does, which keeps no epoch-stamped state, and
    /// leaves no stamp above the counter. So does it when the counter
    /// comes round to those epochs again, as it does 2^32 epochs later,
    /// with no clear but the wrap's in between.
    #[test]
    fn epochs_wrap_without_aliasing_a_stamp() {
        let mut g = chain();
        let [alice, carol] = ["Alice", "Carol"].map(|n| g.node_by_name(n).unwrap());
        g.connect(carol, "friend", alice);
        let texts = ["friend+[1..]", "friend+[1,2]/colleague+[1]", "friend*[2..]"];
        let paths: Vec<PathExpr> = texts.iter().map(|t| parse(&mut g, t)).collect();
        let snap = g.snapshot();
        // Moves the counter to `e` as epochs handed out without stamping
        // would; moving it back passes a wrap, which clears.
        let advance_to = |e: u32| {
            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                if e < s.epoch {
                    s.visited.fill(0);
                }
                s.epoch = e;
            })
        };
        let no_stamp_above_the_counter = || {
            SCRATCH.with(|s| {
                let s = s.borrow();
                s.visited.iter().all(|&e| e <= s.epoch)
            })
        };
        let near_the_end = u32::MAX - 3..=u32::MAX;
        for (p, text) in paths.iter().zip(texts) {
            for owner in g.nodes() {
                for requester in g.nodes() {
                    let truth = evaluate_with_snapshot(&g, &snap, owner, p, Some(requester));
                    let at = format!("{text} {owner}->{requester}");
                    let check = || decide(&g, &snap, owner, p, requester).0;
                    for entry in near_the_end.clone() {
                        for again in near_the_end.clone() {
                            advance_to(entry);
                            assert_eq!(check(), truth.granted, "check from {entry}: {at}");
                            assert!(no_stamp_above_the_counter(), "check from {entry}");
                            advance_to(again);
                            assert_eq!(check(), truth.granted, "{entry}, {again}: {at}");
                        }
                    }
                }
            }
        }
    }

    /// The thread-cached path and a caller's snapshot are one engine:
    /// same decision, same audience, same work counters.
    #[test]
    fn evaluate_matches_a_caller_snapshot() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse(&mut g, "friend+[1]");
        let snap = g.snapshot();
        let direct = evaluate(&g, alice, &p, Some(bob));
        let snapped = evaluate_with_snapshot(&g, &snap, alice, &p, Some(bob));
        assert_eq!(direct.granted, snapped.granted);
        assert_eq!(direct.stats, snapped.stats);
        assert_eq!(
            evaluate(&g, alice, &p, None).matched,
            evaluate_with_snapshot(&g, &snap, alice, &p, None).matched
        );
    }

    #[test]
    fn stale_snapshot_falls_back_to_current_graph_semantics() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        g.connect(alice, "friend", dave); // invalidates `snap`
        let p = parse(&mut g, "friend+[1]");
        let read = || evaluate_with_snapshot(&g, &snap, alice, &p, Some(dave));
        if let Some(out) = on_stale_snapshot(read) {
            assert!(out.granted, "stale snapshot must not hide the new edge");
        }
    }

    #[test]
    fn astronomical_depths_use_the_reference_fallback() {
        // sat ≈ 2^30 would want a ~2^30-layer dense space; the read
        // must run on the plan engine's sparse variant instead and
        // still answer as its flat variant does on the same walks. So
        // must every read of a graph decoded without `rebuild_lookups`.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let p = parse(&mut g, "friend+[1073741824..]");
        let deep = parse(&mut g, "friend+[1..1073741824]");
        let open = parse(&mut g, "friend+[1..]");
        let decoded: SocialGraph =
            serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        assert_eq!(decoded.node_by_name("Alice"), None, "no lookups");
        let flat = evaluate_with_snapshot(&g, &g.snapshot(), alice, &open, Some(carol));
        for g in [&g, &decoded] {
            assert!(evaluate(g, alice, &p, None).matched.is_empty());
            let audience = evaluate(g, alice, &open, None).matched;
            assert_eq!(names(g, &audience), vec!["Bob", "Carol", "Eve"]);
            let audience = evaluate(g, alice, &deep, None).matched;
            assert_eq!(names(g, &audience), vec!["Bob", "Carol", "Eve"]);
            let check = evaluate(g, alice, &deep, Some(carol));
            assert!(check.granted, "Carol is two friend hops away");
            assert_eq!(check.witness, flat.witness);
        }
    }

    #[test]
    fn attribute_writes_reuse_the_snapshot_but_change_results() {
        // Attribute churn must not stale the topology snapshot, yet the
        // engine must see fresh attribute values (it reads them live).
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let snap = g.snapshot();
        let p = parse(&mut g, "friend+[1]{age>=18}");
        assert!(evaluate_with_snapshot(&g, &snap, alice, &p, None)
            .matched
            .is_empty());
        g.set_node_attr(bob, "age", 30i64);
        assert!(snap.matches(&g), "attr write keeps the snapshot current");
        let out = evaluate_with_snapshot(&g, &snap, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob"]);
    }

    #[test]
    fn reference_engine_reports_filtered_edges_separately() {
        // `friend+[1..2000000]` is past the flat caps, so it runs on
        // the plan engine's sparse variant; on the chain it walks what
        // `friend+[1..]` walks on the flat variant.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let deep = parse(&mut g, "friend+[1..2000000]");
        let open = parse(&mut g, "friend+[1..]");
        let snap = g.snapshot();
        let slow = evaluate_with_snapshot(&g, &snap, alice, &deep, None);
        let fast = evaluate_with_snapshot(&g, &snap, alice, &open, None);
        // Same matching traversals on both variants, shared axis.
        assert_eq!(fast.matched, slow.matched);
        assert_eq!(fast.stats.edges_scanned, slow.stats.edges_scanned);
        assert_eq!(fast.stats.edges_filtered, 0, "CSR never inspects misses");
        // Alice's neighborhood spans friend and colleague edges, so the
        // sparse variant must have filtered at least one.
        let colleague = parse(&mut g, "colleague*[1..2000000]");
        let slow = evaluate_with_snapshot(&g, &snap, alice, &colleague, None);
        assert!(slow.stats.edges_filtered > 0);
    }

    #[test]
    fn release_thread_caches_is_safe_mid_stream() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]");
        let before = evaluate(&g, alice, &p, None).matched;
        release_thread_caches();
        let after = evaluate(&g, alice, &p, None).matched;
        assert_eq!(before, after);
    }

    /// A path as the masked engine runs it over one graph: the one-path
    /// plan (its node ids are the step indexes), with every condition
    /// bit riding the one chain.
    struct OnePath<'a> {
        g: &'a SocialGraph,
        snap: &'a CsrSnapshot,
        plan: BundlePlan,
        masks: ChunkMasks,
    }

    impl<'a> OnePath<'a> {
        fn new(g: &'a SocialGraph, snap: &'a CsrSnapshot, p: &PathExpr) -> Self {
            let plan = BundlePlan::compile(&[p]).expect("one path fits a plan");
            let masks = plan.chunk_masks(&[0; 64]);
            OnePath {
                g,
                snap,
                plan,
                masks,
            }
        }

        /// A fresh engine, parent-tracked when `traced`.
        fn engine(&self, traced: bool) -> PlanBatchState {
            let build = if traced {
                PlanBatchState::with_parents
            } else {
                PlanBatchState::new
            };
            build(self.g, self.snap, &self.plan.nodes)
        }

        fn run(
            &self,
            state: &mut PlanBatchState,
            seeds: &[MaskedSeedState],
            watched: &[bool],
            stop: Option<NodeId>,
        ) -> SeededBatchOutcome {
            let (g, snap, nodes, masks) = (self.g, self.snap, &self.plan.nodes, &self.masks);
            evaluate_plan_batch_seeded(g, snap, nodes, masks, state, seeds, watched, stop)
        }
    }

    #[test]
    fn release_apis_drop_exactly_their_caches() {
        // Regression for the stale thread-local fallback risk: the
        // release functions must observably drop what they claim to.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]");
        release_thread_caches();
        let _ = decide_on_thread_snapshot(&g, alice, &p, alice); // builds + caches
        let warm = thread_cache_stats();
        assert!(warm.snapshot_cached, "a library check caches a snapshot");
        assert!(warm.scratch_state_slots > 0, "scratch sized to the search");
        let snap = g.snapshot();
        let _ = decide(&g, &snap, alice, &p, alice);
        assert_eq!(
            thread_cache_stats(),
            warm,
            "both sides of a check stamp the one array"
        );

        release_thread_snapshot();
        let after_snap = thread_cache_stats();
        assert!(!after_snap.snapshot_cached, "snapshot dropped");
        assert_eq!(
            after_snap.scratch_state_slots, warm.scratch_state_slots,
            "scratch survives a snapshot-only release"
        );

        let _ = decide_on_thread_snapshot(&g, alice, &p, alice);
        // A masked read leaves its scratch in the pool …
        let one = OnePath::new(&g, &snap, &p);
        let mut state = one.engine(true);
        let out = one.run(&mut state, &[(alice, 0, 0, 1)], &[], None);
        assert!(!out.matched.is_empty());
        assert_eq!(thread_cache_stats().mask_pool.buffers_held, 0, "lent out");
        drop(state);
        let pooled = thread_cache_stats().mask_pool;
        assert_eq!(pooled.buffers_held, 1, "drop gives the scratch back");
        assert!(pooled.bytes_held > 0);
        assert_eq!((pooled.takes, pooled.grows), (1, 1), "first use allocates");
        assert!(pooled.slots_reset + pooled.full_fills > 0, "and was reset");
        // … which a snapshot-only release keeps …
        release_thread_snapshot();
        assert_eq!(thread_cache_stats().mask_pool, pooled);

        // … and a full release drops, counters aside.
        release_thread_caches();
        let cold = thread_cache_stats();
        assert!(!cold.snapshot_cached);
        assert_eq!(cold.scratch_state_slots, 0, "full release drops scratch");
        assert_eq!(
            cold.mask_pool,
            MaskPoolStats {
                buffers_held: 0,
                bytes_held: 0,
                ..pooled
            },
            "full release drops the pooled scratches and keeps the counters"
        );
    }

    #[test]
    fn the_pool_retains_a_bounded_number_of_scratches() {
        let mut g = chain();
        let p = parse(&mut g, "friend+[1,2]");
        let snap = g.snapshot();
        let one = OnePath::new(&g, &snap, &p);
        release_thread_caches();
        let lent: Vec<PlanBatchState> = (0..MASK_POOL_CAP + 3).map(|_| one.engine(false)).collect();
        drop(lent);
        assert_eq!(
            thread_cache_stats().mask_pool.buffers_held,
            MASK_POOL_CAP,
            "excess scratches are dropped on give-back"
        );
        release_thread_caches();
    }

    #[test]
    fn a_recycled_scratch_serves_smaller_and_larger_spaces_alike() {
        // One pooled buffer through: a hit that leaves the frontier
        // undrained and `pending` non-zero, a path with fewer layers,
        // a larger graph (grow), the fill fallback — each answer equal
        // to the check's, and the give-back assert (debug builds)
        // checking the whole buffer after every one.
        release_thread_caches();
        let mut small = chain();
        let alice = small.node_by_name("Alice").unwrap();
        let bob = small.node_by_name("Bob").unwrap();
        let long = parse(&mut small, "friend+[1..3]/colleague+[1]");
        let short = parse(&mut small, "friend+[1]");
        let small_snap = small.snapshot();
        let mut big = SocialGraph::new();
        let nodes: Vec<NodeId> = (0..200).map(|i| big.add_node(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            big.connect(w[0], "friend", w[1]);
        }
        let ring = parse(&mut big, "friend+[1..]");
        let big_snap = big.snapshot();

        let audience = |g: &SocialGraph, snap: &CsrSnapshot, p: &PathExpr, owner: NodeId| {
            let one = OnePath::new(g, snap, p);
            let out = one.run(&mut one.engine(false), &[(owner, 0, 0, 1)], &[], None);
            audiences_by_bit(&out.matched, 1).remove(0)
        };

        let traced = OnePath::new(&small, &small_snap, &long);
        let mut state = traced.engine(true);
        let hit = traced.run(&mut state, &[(alice, 0, 0, 1)], &[], Some(bob));
        assert!(hit.hit.is_none(), "Bob never completes the colleague step");
        drop(state);
        let dave = small.node_by_name("Dave").unwrap();
        let mut state = traced.engine(true);
        let hit = traced.run(&mut state, &[(alice, 0, 0, 1)], &[], Some(dave));
        let (step, depth) = hit.hit.expect("Dave completes the path");
        let (hops, seed) = state.trace(dave, step, depth).expect("parent-tracked");
        assert_eq!(seed, (alice, 0, 0));
        assert_eq!(hops.len(), 3, "two friend hops, then a colleague hop");
        drop(state);

        assert_eq!(
            audience(&small, &small_snap, &short, alice),
            decided_audience(&small, &small_snap, alice, &short)
        );
        let fills = thread_cache_stats().mask_pool.full_fills;
        assert_eq!(
            audience(&big, &big_snap, &ring, nodes[0]),
            decided_audience(&big, &big_snap, nodes[0], &ring)
        );
        let after_big = thread_cache_stats().mask_pool;
        assert!(after_big.full_fills > fills, "the whole chain was touched");
        assert_eq!(
            audience(&small, &small_snap, &long, alice),
            decided_audience(&small, &small_snap, alice, &long)
        );
        let done = thread_cache_stats().mask_pool;
        assert_eq!(done.buffers_held, 1, "one buffer served every read");
        assert_eq!(
            done.grows, after_big.grows,
            "shrinking back allocates nothing"
        );
        release_thread_caches();
    }

    #[test]
    fn thread_local_snapshot_is_reused_within_a_generation() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1]");
        let gen_before = g.generation();
        let _ = evaluate(&g, alice, &p, None);
        let _ = evaluate(&g, alice, &p, None);
        assert_eq!(g.generation(), gen_before, "evaluation never mutates");
    }

    #[test]
    fn seeded_flat_and_sparse_agree() {
        // A snapshot of another graph is stale for `g`: release builds
        // run the sparse variant over `g`'s adjacency (the pool lends it
        // nothing), debug builds panic on it. Both variants match,
        // export, stop and trace alike.
        let mut g = chain();
        let [alice, bob, carol, dave] =
            ["Alice", "Bob", "Carol", "Dave"].map(|n| g.node_by_name(n).unwrap());
        let mut watched = vec![false; g.num_nodes()];
        watched[bob.index()] = true;
        let p = parse(&mut g, "friend+[1..3]");
        let (snap, stale) = (g.snapshot(), SocialGraph::new().snapshot());
        let seeds = [(alice, 0u16, 0u32, 1u64), (bob, 0, 2, 1), (dave, 0, 99, 1)];
        let run = |snap: &CsrSnapshot| {
            let one = OnePath::new(&g, snap, &p);
            let mut out = one.run(&mut one.engine(true), &seeds, &watched, None);
            out.matched.sort_unstable();
            out.exports.sort_unstable();
            let mut state = one.engine(true);
            let hit = one.run(&mut state, &seeds, &watched, Some(carol)).hit;
            let (step, depth) = hit.expect("Carol is on the friend walk");
            // A seed traces to itself; an unreached state, a node past
            // the plan and an untraced engine trace to nothing.
            assert_eq!(state.trace(bob, 0, 2), Some((vec![], (bob, 0, 2))));
            assert_eq!(state.trace(alice, 0, 3), None);
            assert_eq!(state.trace(alice, 7, 0), None);
            let mut untraced = one.engine(false);
            one.run(&mut untraced, &seeds, &watched, None);
            assert_eq!(untraced.trace(carol, step, depth), None);
            let trace = state.trace(carol, step, depth);
            (out.matched, out.exports, (step, depth), trace)
        };
        let flat = run(&snap);
        assert!(!flat.1.is_empty(), "Bob is on the friend walk");
        assert!(flat.0.contains(&(dave, 1)), "depth 99 saturates to 3");
        let (hops, seed) = flat.3.as_ref().expect("Carol's hit traces");
        assert_eq!((hops.len(), *seed), (1, (bob, 0, 2)), "one hop past a seed");
        let takes = thread_cache_stats().mask_pool.takes;
        if let Some(sparse) = on_stale_snapshot(|| run(&stale)) {
            assert_eq!(
                thread_cache_stats().mask_pool.takes,
                takes,
                "a stale snapshot runs the sparse variant"
            );
            assert_eq!(flat, sparse);
        }
    }

    /// Collects a masked run's audiences per condition bit, sorted.
    fn audiences_by_bit(matched: &[(NodeId, u64)], bits: usize) -> Vec<Vec<NodeId>> {
        let audience = |bit: usize| {
            let mut a: Vec<NodeId> = matched
                .iter()
                .filter(|&&(_, mask)| mask & (1 << bit) != 0)
                .map(|&(node, _)| node)
                .collect();
            a.sort_unstable();
            a
        };
        (0..bits).map(audience).collect()
    }

    #[test]
    fn masked_engine_matches_per_owner_evaluation() {
        let mut g = chain();
        let snap = g.snapshot();
        let owners: Vec<NodeId> = g.nodes().collect();
        let none = vec![false; g.num_nodes()];
        for text in ["friend+[1,2]", "friend*[1..]/colleague+[1]", "friend-[1]"] {
            let p = parse(&mut g, text);
            let truth: Vec<Vec<NodeId>> = owners
                .iter()
                .map(|&o| decided_audience(&g, &snap, o, &p))
                .collect();
            let one = OnePath::new(&g, &snap, &p);
            let seeds: Vec<MaskedSeedState> = owners
                .iter()
                .enumerate()
                .map(|(bit, &o)| (o, 0, 0, 1u64 << bit))
                .collect();
            let out = one.run(&mut one.engine(false), &seeds, &none, None);
            assert!(out.exports.is_empty(), "nothing watched");
            assert_eq!(
                audiences_by_bit(&out.matched, owners.len()),
                truth,
                "path {text}"
            );
        }
    }

    #[test]
    fn masked_engine_reports_each_bit_once_across_runs() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1,2]");
        let snap = g.snapshot();
        let one = OnePath::new(&g, &snap, &p);
        let mut state = one.engine(false);
        let out = one.run(&mut state, &[(alice, 0, 0, 1)], &none, None);
        assert!(!out.matched.is_empty());
        let expanded = state.states_expanded();
        assert!(expanded > 0);

        // Re-seeding known bits is a no-op: persistence makes the
        // fixpoint linear in the explored region.
        let again = one.run(&mut state, &[(alice, 0, 0, 1)], &none, None);
        assert!(again.matched.is_empty());
        assert!(again.exports.is_empty());
        assert_eq!(again.stats.states_visited, 0);
        assert_eq!(state.states_expanded(), expanded, "no re-traversal");

        // A new bit through the same region reports only itself.
        let fresh = one.run(&mut state, &[(bob, 0, 0, 2)], &none, None);
        for &(_, mask) in &fresh.matched {
            assert_eq!(mask & 1, 0, "bit 0 was already reported");
        }
    }

    #[test]
    fn masked_engine_exports_watched_states_with_delta_bits() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let eve = g.node_by_name("Eve").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let mut watched = vec![false; g.num_nodes()];
        watched[bob.index()] = true;
        let p = parse(&mut g, "friend+[1,2]");
        let snap = g.snapshot();
        let one = OnePath::new(&g, &snap, &p);
        let mut state = one.engine(false);
        let seeds = [(alice, 0, 0, 0b01), (eve, 0, 0, 0b10)];
        let out = one.run(&mut state, &seeds, &watched, None);
        // Alice reaches Bob at depth 1; Eve does not reach Bob at all.
        assert_eq!(out.exports, vec![(bob, 0, 1, 0b01)]);
        // A later run delivering Eve's bit to Bob exports only it.
        let relay = one.run(&mut state, &[(bob, 0, 1, 0b11)], &watched, None);
        assert_eq!(relay.exports, vec![(bob, 0, 1, 0b10)]);
    }

    #[test]
    fn masked_engine_sparse_variant_matches_per_owner_evaluation() {
        // A saturation depth past MAX_FLAT_LAYERS forces the sparse
        // mirror (which takes nothing from the pool); answers must not
        // change.
        let mut g = chain();
        let owners: Vec<NodeId> = g.nodes().collect();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1..4000000]");
        // The chain's friend walks end within two hops, so the open
        // tail accepts the same walks inside the flat caps.
        let open = parse(&mut g, "friend+[1..]");
        let snap = g.snapshot();
        let one = OnePath::new(&g, &snap, &p);
        let takes = thread_cache_stats().mask_pool.takes;
        let mut state = one.engine(false);
        assert_eq!(
            thread_cache_stats().mask_pool.takes,
            takes,
            "degenerate saturation uses the sparse mirror"
        );
        let seeds: Vec<MaskedSeedState> = owners
            .iter()
            .enumerate()
            .map(|(bit, &o)| (o, 0, 0, 1u64 << bit))
            .collect();
        let out = one.run(&mut state, &seeds, &none, None);
        let audiences = audiences_by_bit(&out.matched, owners.len());
        for (bit, &owner) in owners.iter().enumerate() {
            let truth = decided_audience(&g, &snap, owner, &open);
            assert_eq!(audiences[bit], truth, "owner {owner}");
        }
    }
}
