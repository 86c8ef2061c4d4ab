//! Differential property tests for the online engine: on random graphs
//! × random path expressions, the forward walk — `evaluate` /
//! `evaluate_with_snapshot`, the path's one-path plan on the plan
//! engine — must return exactly the decisions and audiences of the
//! shared-nothing test oracle (`common::oracle`), with witnesses the
//! oracle replays and whose lengths are the oracle's shortest walks.
//! It must on both variants of the plan engine: the flat one over the
//! label-partitioned CSR, and the sparse one on paths past the flat
//! caps, where it answers as the flat variant does on an equivalent
//! path inside them. The online engine's check walks from both ends, as
//! the single graph's serving checks do; it decides as the oracle and
//! the forward walk do, on either side of the flat caps.

mod common;

use common::oracle::{self, Cond, Step, LABELS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use socialreach_core::query::{
    evaluate_plan_audiences, evaluate_plan_batch_seeded, PlanBatchState,
};
use socialreach_core::{
    online, parse_path, AccessEngine, BundlePlan, MutateService, OnlineEngine, PathExpr,
};
use socialreach_graph::Direction::{Both, In, Out};
use socialreach_graph::{CsrSnapshot, EdgeId, NodeId, SocialGraph};

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    paths: Vec<Vec<Step>>,
}

/// Random graphs of 2–9 members (see `common::oracle::graph`) and one
/// to three paths of one to three steps over their three labels.
fn case_strategy() -> impl Strategy<Value = Case> {
    (
        common::graphs(2..10, 0..28, 3),
        proptest::collection::vec(common::paths(1..4, 3), 1..4),
    )
        .prop_map(|(graph, paths)| Case { graph, paths })
}

/// The oracle's audience of `steps` from `owner`, sorted.
fn oracle_audience(g: &SocialGraph, owner: NodeId, steps: &[Step]) -> Vec<NodeId> {
    let cond = Cond {
        owner,
        steps: steps.to_vec(),
    };
    oracle::reach(g, &cond).into_iter().collect()
}

/// Replays an engine's witness walk through the oracle: real edges,
/// chained from `owner` to `requester`, accepted by the steps.
fn replay_witness(
    g: &SocialGraph,
    owner: NodeId,
    steps: &[Step],
    requester: NodeId,
    witness: &[(EdgeId, bool)],
) -> Result<(), String> {
    let hops: Vec<oracle::Hop> = witness
        .iter()
        .map(|&(eid, forward)| {
            let rec = g.edge(eid);
            (rec.src, rec.dst, g.vocab().label_name(rec.label), forward)
        })
        .collect();
    let cond = Cond {
        owner,
        steps: steps.to_vec(),
    };
    oracle::replay(g, &cond, requester, &hops)
}

/// Every check and audience of `path` (parsed from `steps`) over `g`
/// through both entry points of the online engine: decisions and
/// audiences against the oracle, witnesses replayed by it and as long
/// as its shortest walk.
fn assert_online_matches_the_oracle(g: &SocialGraph, steps: &[Step], path: &PathExpr) {
    let text = oracle::path_text(steps);
    let snap = g.snapshot();
    for owner in g.nodes() {
        let truth = oracle_audience(g, owner, steps);
        let fast = online::evaluate_with_snapshot(g, &snap, owner, path, None);
        prop_assert_eq!(
            &fast.matched,
            &truth,
            "audience mismatch: path={} owner={}",
            text,
            owner
        );
        // The wrapper (thread-cached snapshot) agrees too.
        let wrapped = online::evaluate(g, owner, path, None);
        prop_assert_eq!(&wrapped.matched, &truth);

        for requester in g.nodes() {
            let fast = online::evaluate_with_snapshot(g, &snap, owner, path, Some(requester));
            prop_assert_eq!(
                fast.granted,
                truth.binary_search(&requester).is_ok(),
                "decision mismatch: path={} owner={} requester={}",
                text,
                owner,
                requester
            );
            prop_assert_eq!(fast.witness.is_some(), fast.granted);
            if let Some(w) = &fast.witness {
                let replayed = replay_witness(g, owner, steps, requester, w);
                prop_assert!(replayed.is_ok(), "path={}: {:?}", text, replayed);
                let cond = Cond {
                    owner,
                    steps: steps.to_vec(),
                };
                let shortest = oracle::shortest(g, &cond, requester);
                prop_assert_eq!(Some(w.len()), shortest, "witness length: path={}", text);
            }
        }
    }
}

/// The online engine's check — walking from both ends — on every pair
/// of `g`: the oracle's decision, and the forward walk's.
fn assert_checks_match(g: &SocialGraph, steps: &[Step], path: &PathExpr) {
    let text = oracle::path_text(steps);
    let snap = g.snapshot();
    for owner in g.nodes() {
        let truth = oracle_audience(g, owner, steps);
        for requester in g.nodes() {
            let granted = OnlineEngine
                .check(g, owner, path, requester)
                .expect("the online engine never refuses")
                .granted;
            prop_assert_eq!(
                granted,
                truth.binary_search(&requester).is_ok(),
                "check vs oracle: path={} owner={} requester={}",
                text,
                owner,
                requester
            );
            let forward = online::evaluate_with_snapshot(g, &snap, owner, path, Some(requester));
            prop_assert_eq!(granted, forward.granted, "check vs forward: path={}", text);
        }
    }
}

/// A step bound no flat layer table holds: `2^21` layers, past the
/// flat engines' cap of `2^20`.
const PAST_THE_FLAT_CAPS: u32 = 1 << 21;

/// Graphs of 2–9 members over the three labels whose edges all run
/// from a lower to a higher member id, with ages on some members.
fn ascending_graph(rng: &mut StdRng) -> SocialGraph {
    let mut g = SocialGraph::new();
    let n = rng.gen_range(2..10u32);
    for i in 0..n {
        g.add_node(&format!("u{i}"));
    }
    let ids: Vec<_> = LABELS.iter().map(|l| g.intern_label(l)).collect();
    for _ in 0..rng.gen_range(0..28) {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s != t {
            let label = ids[rng.gen_range(0..LABELS.len())];
            g.add_edge(NodeId(s.min(t)), NodeId(s.max(t)), label);
        }
        g.set_node_attr(NodeId(rng.gen_range(0..n)), "age", rng.gen_range(10..60i64));
    }
    g
}

/// One or two `+`/`-` steps, one of them bounded at
/// [`PAST_THE_FLAT_CAPS`]: over an ascending graph every walk of them
/// ends within `|V|` hops a step.
fn deep_path(rng: &mut StdRng) -> Vec<Step> {
    let mut steps: Vec<Step> = (0..rng.gen_range(1..3))
        .map(|_| oracle::random_step(rng, LABELS.len()))
        .collect();
    for step in &mut steps {
        if step.dir == Both {
            step.dir = [Out, In][rng.gen_range(0..2usize)];
        }
    }
    let deep = rng.gen_range(0..steps.len());
    steps[deep].depths = vec![(rng.gen_range(1..4), Some(PAST_THE_FLAT_CAPS))];
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_engine_is_decision_equivalent_to_the_reference(case in case_strategy()) {
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|s| parse_path(&oracle::path_text(s), g.vocab_mut()).expect("generated paths parse"))
            .collect();
        for (path, steps) in parsed.iter().zip(&case.paths) {
            assert_online_matches_the_oracle(&g, steps, path);
        }
    }

    #[test]
    fn both_ends_decide_as_the_oracle_and_the_forward_walk(
        case in case_strategy(),
        deep_graph in common::seeded(ascending_graph),
        deep_steps in common::seeded(deep_path),
    ) {
        // Inside the flat caps, then past them (the one-path-plan
        // fallback). A stale snapshot never reaches a check through the
        // engine; the unit tests of `online` pin that fallback.
        let mut g = case.graph;
        for steps in &case.paths {
            let text = oracle::path_text(steps);
            let path = parse_path(&text, g.vocab_mut()).expect("generated paths parse");
            assert_checks_match(&g, steps, &path);
        }
        let mut g = deep_graph;
        let path = parse_path(&oracle::path_text(&deep_steps), g.vocab_mut()).expect("parses");
        assert_checks_match(&g, &deep_steps, &path);
    }

    #[test]
    fn batch_audiences_equal_reference_audiences(case in case_strategy()) {
        // The multi-source plan engine, run as a one-path plan with
        // every owner a condition of it, must agree member-for-member
        // with the oracle for every owner, including duplicate owners
        // in one chunk (masks must not cross-contaminate).
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|s| parse_path(&oracle::path_text(s), g.vocab_mut()).expect("generated paths parse"))
            .collect();
        let snap = g.snapshot();
        let mut owners: Vec<NodeId> = g.nodes().collect();
        owners.push(NodeId(0)); // duplicate source in the same chunk

        for (path, steps) in parsed.iter().zip(&case.paths) {
            let plan = BundlePlan::compile(&vec![path; owners.len()]).expect("one chain");
            let batch = evaluate_plan_audiences(&g, &snap, &plan, &owners);
            prop_assert_eq!(batch.audiences.len(), owners.len());
            for (owner, audience) in owners.iter().zip(&batch.audiences) {
                let truth = oracle_audience(&g, *owner, steps);
                prop_assert_eq!(
                    audience, &truth,
                    "batch audience mismatch: path={} owner={}", oracle::path_text(steps), owner
                );
            }
        }
    }

    #[test]
    fn mutation_during_a_session_is_always_visible(case in case_strategy()) {
        // Evaluate → mutate → evaluate must see the new edge through
        // every entry point (generation invalidation end to end).
        let mut g = case.graph;
        let Some(steps) = case.paths.first() else { return Ok(()); };
        let text = oracle::path_text(steps);
        let path = parse_path(&text, g.vocab_mut()).expect("parses");
        let owner = NodeId(0);
        let _ = online::evaluate(&g, owner, &path, None);
        let label = g.vocab().label(LABELS[0]).unwrap();
        let extra = NodeId((g.num_nodes() - 1) as u32);
        g.add_edge(owner, extra, label);
        let after = online::evaluate(&g, owner, &path, None);
        prop_assert_eq!(after.matched, oracle_audience(&g, owner, steps), "path={}", text);
    }

    #[test]
    fn past_the_flat_caps_the_one_path_plan_matches_the_oracle(
        g in common::seeded(ascending_graph),
        steps in common::seeded(deep_path),
    ) {
        // The flat variant refuses the layer table, so every read runs
        // on the sparse variant: checks with their witnesses, audiences,
        // and the multi-owner plan read beside. Every walk here ends
        // within |V| - 1 hops, so `[lo..]` in place of `[lo..2^21]`
        // accepts the same walks inside the flat caps: the flat
        // variant answers it as the sparse one answers the deep path.
        let mut g = g;
        let text = oracle::path_text(&steps);
        let path = parse_path(&text, g.vocab_mut()).expect("generated paths parse");
        let unbounded: Vec<Step> = steps
            .iter()
            .cloned()
            .map(|mut step| {
                for (_, hi) in &mut step.depths {
                    if *hi == Some(PAST_THE_FLAT_CAPS) {
                        *hi = None;
                    }
                }
                step
            })
            .collect();
        let equivalent = parse_path(&oracle::path_text(&unbounded), g.vocab_mut())
            .expect("generated paths parse");
        assert_online_matches_the_oracle(&g, &steps, &path);
        let snap = g.snapshot();
        for owner in g.nodes() {
            for target in g.nodes().map(Some).chain([None]) {
                let deep = online::evaluate_with_snapshot(&g, &snap, owner, &path, target);
                let flat = online::evaluate_with_snapshot(&g, &snap, owner, &equivalent, target);
                if target.is_none() {
                    prop_assert_eq!(deep.matched, flat.matched, "path={}", text);
                }
                prop_assert_eq!(deep.granted, flat.granted, "path={}", text);
                let hops = |w: Option<Vec<(EdgeId, bool)>>| w.map(|w| w.len());
                prop_assert_eq!(hops(deep.witness), hops(flat.witness), "path={}", text);
            }
        }
        let owners: Vec<NodeId> = g.nodes().collect();
        let plan = BundlePlan::compile(&vec![&path; owners.len()]).expect("one chain");
        let batch = evaluate_plan_audiences(&g, &g.snapshot(), &plan, &owners);
        for (&owner, audience) in owners.iter().zip(&batch.audiences) {
            prop_assert_eq!(audience, &oracle_audience(&g, owner, &steps), "path={}", text);
        }
    }
}

// ---------------------------------------------------------------------
// Recycled mask scratch can never change an answer
// ---------------------------------------------------------------------

/// A small **dense** graph over two labels (the three-label graphs of
/// `case_strategy` leave most reads at their seed): 4–9 members, 12–39
/// edges.
fn dense_graph_strategy() -> impl Strategy<Value = SocialGraph> {
    common::graphs(4..10, 12..40, 2)
}

/// A dense graph padded with isolated members to 96–200 nodes: reads
/// from its first ten members are as eventful as on the small graphs
/// but touch under an eighth of the dense span, so give-back takes the
/// slot-by-slot path (the small graphs take the `fill` fallback).
fn padded_graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (dense_graph_strategy(), 96..200usize).prop_map(|(mut g, n)| {
        for i in g.num_nodes()..n {
            g.add_node(&format!("pad{i}"));
        }
        g
    })
}

/// One masked read, by shape. Indexes are taken modulo what the chosen
/// graph offers.
#[derive(Clone, Debug)]
struct ReadSpec {
    /// 0 = targeted check with witness trace (an early hit leaves the
    /// frontier undrained and `pending` non-zero), 1 = plan bundle over
    /// every path, 2 = one-path audience under up to three owner bits.
    kind: usize,
    graph: usize,
    path: usize,
    members: [u32; 3],
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Check {
        granted: bool,
        witness_hops: Option<usize>,
    },
    Audiences(Vec<Vec<NodeId>>),
}

struct World {
    graphs: Vec<SocialGraph>,
    snaps: Vec<CsrSnapshot>,
    /// The generated paths, as the oracle reads them.
    steps: Vec<Vec<Step>>,
    /// `paths[graph][i]`: the i-th path parsed against that graph.
    paths: Vec<Vec<PathExpr>>,
}

impl World {
    fn member(&self, graph: usize, raw: u32) -> NodeId {
        NodeId(raw % self.graphs[graph].num_nodes() as u32)
    }

    /// The conditions of a bundle read: every path, from two owners.
    fn bundle(&self, graph: usize, a: NodeId, b: NodeId) -> Vec<(NodeId, &PathExpr)> {
        self.paths[graph]
            .iter()
            .flat_map(|p| [(a, p), (b, p)])
            .collect()
    }

    /// Answers `read` on the plan engine (pooled scratch); kinds 0 and
    /// 2 run one path as its one-path plan.
    fn masked(&self, read: &ReadSpec) -> Answer {
        let gi = read.graph % self.graphs.len();
        let (g, snap) = (&self.graphs[gi], &self.snaps[gi]);
        let pi = read.path % self.paths[gi].len();
        let path = &self.paths[gi][pi];
        let [a, b, c] = read.members.map(|m| self.member(gi, m));
        let one_path = BundlePlan::compile(&[path]).expect("one chain");
        match read.kind {
            0 => {
                let masks = one_path.chunk_masks(&[0]);
                let mut state = PlanBatchState::with_parents(g, snap, &one_path.nodes);
                let run = evaluate_plan_batch_seeded(
                    g,
                    snap,
                    &one_path.nodes,
                    &masks,
                    &mut state,
                    &[(a, 0, 0, 1)],
                    &[],
                    Some(b),
                );
                let witness_hops = run.hit.map(|(step, depth)| {
                    let (hops, seed) = state.trace(b, step, depth).expect("hit states trace");
                    assert_eq!(seed, (a, 0, 0), "the chain ends at the owner's seed");
                    let replayed = replay_witness(g, a, &self.steps[pi], b, &hops);
                    assert!(replayed.is_ok(), "{replayed:?}");
                    hops.len()
                });
                Answer::Check {
                    granted: run.hit.is_some(),
                    witness_hops,
                }
            }
            1 => {
                let conds = self.bundle(gi, a, b);
                let plan = BundlePlan::compile(&conds.iter().map(|&(_, p)| p).collect::<Vec<_>>())
                    .expect("a few short chains");
                let owners: Vec<NodeId> = conds.iter().map(|&(o, _)| o).collect();
                Answer::Audiences(evaluate_plan_audiences(g, snap, &plan, &owners).audiences)
            }
            _ => {
                let masks = one_path.chunk_masks(&[0, 0, 0]);
                let mut state = PlanBatchState::new(g, snap, &one_path.nodes);
                let seeds = [(a, 0, 0, 0b001), (b, 0, 0, 0b010), (c, 0, 0, 0b100)];
                let run = evaluate_plan_batch_seeded(
                    g,
                    snap,
                    &one_path.nodes,
                    &masks,
                    &mut state,
                    &seeds,
                    &[],
                    None,
                );
                let mut audiences = vec![Vec::new(); 3];
                for (member, mask) in run.matched {
                    for (bit, audience) in audiences.iter_mut().enumerate() {
                        if mask & (1 << bit) != 0 {
                            audience.push(member);
                        }
                    }
                }
                for audience in &mut audiences {
                    audience.sort_unstable();
                }
                Answer::Audiences(audiences)
            }
        }
    }

    /// Answers `read` on the oracle: decisions, audiences and the
    /// lengths of shortest witness walks.
    fn oracle(&self, read: &ReadSpec) -> Answer {
        let gi = read.graph % self.graphs.len();
        let g = &self.graphs[gi];
        let pi = read.path % self.paths[gi].len();
        let steps = &self.steps[pi];
        let [a, b, c] = read.members.map(|m| self.member(gi, m));
        match read.kind {
            0 => Answer::Check {
                granted: oracle_audience(g, a, steps).contains(&b),
                witness_hops: oracle::shortest(
                    g,
                    &Cond {
                        owner: a,
                        steps: steps.to_vec(),
                    },
                    b,
                ),
            },
            1 => Answer::Audiences(
                self.steps
                    .iter()
                    .flat_map(|s| [oracle_audience(g, a, s), oracle_audience(g, b, s)])
                    .collect(),
            ),
            _ => Answer::Audiences(
                [a, b, c]
                    .iter()
                    .map(|&o| oracle_audience(g, o, steps))
                    .collect(),
            ),
        }
    }
}

fn read_strategy() -> impl Strategy<Value = ReadSpec> {
    (
        0..3usize,
        0..3usize,
        0..8usize,
        // Below ten, so that on the padded graph the members are the
        // connected ones.
        (0..10u32, 0..10u32, 0..10u32),
    )
        .prop_map(|(kind, graph, path, (a, b, c))| ReadSpec {
            kind,
            graph,
            path,
            members: [a, b, c],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recycled_scratch_never_changes_an_answer(
        small in dense_graph_strategy(),
        other in common::graphs(2..10, 0..28, 3),
        padded in padded_graph_strategy(),
        steps in proptest::collection::vec(common::paths(1..4, 2), 1..4),
        reads in proptest::collection::vec(read_strategy(), 4..24),
    ) {
        // Three graphs of different |V| (one of them large enough for
        // the slot-by-slot reset), paths of different layer counts,
        // reads of different shapes — in one random order
        // through one thread's pool, so every read inherits whatever
        // the previous shapes left in (and grew) the buffers.
        let mut graphs = vec![small, other, padded];
        let texts: Vec<String> = steps.iter().map(|s| oracle::path_text(s)).collect();
        let paths: Vec<Vec<PathExpr>> = graphs
            .iter_mut()
            .map(|g| {
                texts
                    .iter()
                    .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
                    .collect()
            })
            .collect();
        let snaps = graphs.iter().map(|g| g.snapshot()).collect();
        let world = World { graphs, snaps, steps, paths };

        online::release_thread_caches();
        let recycled: Vec<Answer> = reads.iter().map(|r| world.masked(r)).collect();
        let fresh: Vec<Answer> = reads
            .iter()
            .map(|r| {
                online::release_thread_caches(); // a brand-new pool per read
                world.masked(r)
            })
            .collect();
        let truth: Vec<Answer> = reads.iter().map(|r| world.oracle(r)).collect();
        prop_assert_eq!(&recycled, &fresh, "reads={:?} paths={:?}", reads, texts);
        prop_assert_eq!(&recycled, &truth, "reads={:?} paths={:?}", reads, texts);
    }
}

#[test]
fn seed_only_sharded_checks_reset_what_they_touched_and_allocate_nothing() {
    // 10^4 members on two shards, a friend ring, and rules over a label
    // nobody has an edge of: every check explores exactly its seed. No
    // wall clock — the pool's own counters say what a read cost.
    use socialreach_core::{Decision, ShardedSystem};
    let mut sys = ShardedSystem::new(2, 0);
    let members: Vec<NodeId> = (0..10_000)
        .map(|i| sys.add_user(&format!("m{i}")))
        .collect();
    for (i, &m) in members.iter().enumerate() {
        sys.add_relationship(m, "friend", members[(i + 1) % members.len()]);
    }
    let resources: Vec<_> = members[..120]
        .iter()
        .map(|&owner| {
            let rid = sys.add_resource(owner);
            sys.add_rule(rid, "mentor+[1..2]").unwrap();
            rid
        })
        .collect();
    let svc = sys.service();
    // Warm-up: both shards' lanes have been opened at their sizes.
    for (i, &rid) in resources[..20].iter().enumerate() {
        assert_eq!(svc.check(rid, members[5_000 + i]).unwrap(), Decision::Deny);
    }
    let warm = online::thread_cache_stats().mask_pool;
    for (i, &rid) in resources[20..].iter().enumerate() {
        assert_eq!(svc.check(rid, members[6_000 + i]).unwrap(), Decision::Deny);
    }
    let done = online::thread_cache_stats().mask_pool;
    assert!(done.takes >= warm.takes + 100, "every check ran an engine");
    assert_eq!(
        done.grows, warm.grows,
        "no dense array allocated after warm-up"
    );
    assert_eq!(done.full_fills, warm.full_fills, "no |V|-sized fill");
    assert!(
        done.slots_reset - warm.slots_reset <= 4 * 100,
        "reset is O(states touched): {} slots for 100 seed-only checks",
        done.slots_reset - warm.slots_reset
    );
}
