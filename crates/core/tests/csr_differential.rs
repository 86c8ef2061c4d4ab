//! Differential property tests for the CSR flat-array online engine:
//! on random graphs × random path expressions, `evaluate` /
//! `evaluate_with_snapshot` (label-partitioned CSR, dense state arrays,
//! swap-buffer frontiers) must return exactly the same decisions,
//! audiences and *valid* witnesses as `evaluate_reference` (the
//! original HashMap/VecDeque product BFS, retained as the executable
//! specification).

use proptest::prelude::*;
use socialreach_core::query::{
    evaluate_plan_audiences, evaluate_plan_batch_seeded, PlanBatchState,
};
use socialreach_core::{online, parse_path, BundlePlan, MutateService, PathExpr};
use socialreach_graph::{NodeId, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    paths: Vec<String>,
}

/// A random labeled multigraph (self-loops and parallel edges welcome)
/// with discriminating ages sprinkled on some members.
fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (2..10usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..3usize, 10..60i64), 0..28).prop_map(
            move |edges| {
                let mut g = SocialGraph::new();
                for i in 0..n {
                    g.add_node(&format!("u{i}"));
                }
                for l in LABELS {
                    g.intern_label(l);
                }
                for (i, (s, t, l, age)) in edges.iter().enumerate() {
                    let label = g.vocab().label(LABELS[*l]).unwrap();
                    g.add_edge(NodeId(*s), NodeId(*t), label);
                    let node = NodeId((i as u32 + s + t) % n as u32);
                    g.set_node_attr(node, "age", *age);
                }
                g
            },
        )
    })
}

/// A random path expression, step by step: label, direction, depth set
/// shape (single / range / list-with-hole / unbounded tail), and an
/// optional endpoint predicate.
fn path_text_strategy() -> impl Strategy<Value = String> {
    let step = (0..3usize, 0..3usize, 1..4u32, 0..3u32, 0..5usize).prop_map(
        |(label, dir, lo, extra, shape)| {
            let dir = ["+", "-", "*"][dir];
            let hi = lo + extra;
            let depths = match shape {
                0 => format!("[{lo}]"),
                1 => format!("[{lo}..{hi}]"),
                2 => format!("[{lo},{}]", hi + 2),
                3 => format!("[{lo}..]"),
                _ => format!("[{lo}..{hi}]{{age>=30}}"),
            };
            format!("{}{}{}", LABELS[label], dir, depths)
        },
    );
    proptest::collection::vec(step, 1..4).prop_map(|steps| steps.join("/"))
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        proptest::collection::vec(path_text_strategy(), 1..4),
    )
        .prop_map(|(graph, paths)| Case { graph, paths })
}

fn replay_witness(
    g: &SocialGraph,
    owner: NodeId,
    witness: &[(socialreach_graph::EdgeId, bool)],
) -> NodeId {
    let mut at = owner;
    for &(eid, forward) in witness {
        let rec = g.edge(eid);
        if forward {
            assert_eq!(rec.src, at, "witness hop disconnects");
            at = rec.dst;
        } else {
            assert_eq!(rec.dst, at, "witness hop disconnects");
            at = rec.src;
        }
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_engine_is_decision_equivalent_to_the_reference(case in case_strategy()) {
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
            .collect();
        let snap = g.snapshot();

        for (path, text) in parsed.iter().zip(&case.paths) {
            for owner in g.nodes() {
                let truth = online::evaluate_reference(&g, owner, path, None);
                let fast = online::evaluate_with_snapshot(&g, &snap, owner, path, None);
                prop_assert_eq!(
                    &fast.matched, &truth.matched,
                    "audience mismatch: path={} owner={}", text, owner
                );
                // Identical traversal ⇒ identical state counts.
                prop_assert_eq!(
                    fast.stats.states_visited, truth.stats.states_visited,
                    "state count mismatch: path={} owner={}", text, owner
                );
                // The wrapper (thread-cached snapshot) agrees too.
                let wrapped = online::evaluate(&g, owner, path, None);
                prop_assert_eq!(&wrapped.matched, &truth.matched);

                for requester in g.nodes() {
                    let truth = online::evaluate_reference(&g, owner, path, Some(requester));
                    let fast = online::evaluate_with_snapshot(&g, &snap, owner, path, Some(requester));
                    prop_assert_eq!(
                        fast.granted, truth.granted,
                        "decision mismatch: path={} owner={} requester={}",
                        text, owner, requester
                    );
                    prop_assert_eq!(fast.witness.is_some(), fast.granted);
                    if let Some(w) = &fast.witness {
                        // Valid witness: a connected walk owner ⇝ requester.
                        let end = replay_witness(&g, owner, w);
                        prop_assert_eq!(end, requester, "path={}", text);
                        // Same-length (both BFS, both shortest in hops).
                        let truth_len = truth.witness.as_ref().expect("reference grants too").len();
                        prop_assert_eq!(w.len(), truth_len, "witness length: path={}", text);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_audiences_equal_reference_audiences(case in case_strategy()) {
        // The multi-source plan engine, run as a one-path plan with
        // every owner a condition of it, must agree member-for-member
        // with the reference spec for every owner, including duplicate
        // owners in one chunk (masks must not cross-contaminate).
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
            .collect();
        let snap = g.snapshot();
        let mut owners: Vec<NodeId> = g.nodes().collect();
        owners.push(NodeId(0)); // duplicate source in the same chunk

        for (path, text) in parsed.iter().zip(&case.paths) {
            let plan = BundlePlan::compile(&vec![path; owners.len()]).expect("one chain");
            let batch = evaluate_plan_audiences(&g, &snap, &plan, &owners);
            prop_assert_eq!(batch.audiences.len(), owners.len());
            for (owner, audience) in owners.iter().zip(&batch.audiences) {
                let truth = online::evaluate_reference(&g, *owner, path, None);
                prop_assert_eq!(
                    audience, &truth.matched,
                    "batch audience mismatch: path={} owner={}", text, owner
                );
            }
        }
    }

    #[test]
    fn mutation_during_a_session_is_always_visible(case in case_strategy()) {
        // Evaluate → mutate → evaluate must see the new edge through
        // every entry point (generation invalidation end to end).
        let mut g = case.graph;
        let Some(text) = case.paths.first() else { return Ok(()); };
        let path = parse_path(text, g.vocab_mut()).expect("parses");
        let owner = NodeId(0);
        let _ = online::evaluate(&g, owner, &path, None);
        let label = g.vocab().label(LABELS[0]).unwrap();
        let extra = NodeId((g.num_nodes() - 1) as u32);
        g.add_edge(owner, extra, label);
        let after = online::evaluate(&g, owner, &path, None);
        let truth = online::evaluate_reference(&g, owner, &path, None);
        prop_assert_eq!(after.matched, truth.matched, "path={}", text);
    }
}

// ---------------------------------------------------------------------
// Recycled mask scratch can never change an answer
// ---------------------------------------------------------------------

/// A small **dense** graph over two labels (`graph_strategy`'s sparse
/// three-label graphs leave most reads at their seed): 4–10 members,
/// 12–40 edges.
fn dense_graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (4..10usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..2usize, 10..60i64), 12..40)
            .prop_map(move |edges| {
                let mut g = SocialGraph::new();
                for i in 0..n {
                    g.add_node(&format!("u{i}"));
                }
                for l in LABELS {
                    g.intern_label(l);
                }
                for (s, t, l, age) in edges {
                    let label = g.vocab().label(LABELS[l]).unwrap();
                    g.add_edge(NodeId(s), NodeId(t), label);
                    g.set_node_attr(NodeId(t), "age", age);
                }
                g
            })
    })
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

/// Paths over the dense graphs' two labels, one to three steps.
fn dense_path_strategy() -> impl Strategy<Value = String> {
    let step = (0..2usize, 0..3usize, 1..3u32, 0..5usize).prop_map(|(label, dir, lo, shape)| {
        let dir = ["+", "-", "*"][dir];
        let depths = match shape {
            0 => format!("[{lo}]"),
            1 => format!("[{lo}..{}]", lo + 1),
            2 => format!("[{lo},{}]", lo + 2),
            3 => format!("[{lo}..]"),
            _ => format!("[1..{lo}]{{age>=30}}"),
        };
        format!("{}{}{}", LABELS[label], dir, depths)
    });
    proptest::collection::vec(step, 1..4).prop_map(|steps| steps.join("/"))
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
    snaps: Vec<socialreach_graph::CsrSnapshot>,
    /// `paths[graph][i]`: the i-th path text parsed against that graph.
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
        let path = &self.paths[gi][read.path % self.paths[gi].len()];
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
                    assert_eq!(
                        replay_witness(g, a, &hops),
                        b,
                        "witness reaches the requester"
                    );
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

    /// Answers `read` on the HashMap/VecDeque specification.
    fn reference(&self, read: &ReadSpec) -> Answer {
        let gi = read.graph % self.graphs.len();
        let g = &self.graphs[gi];
        let path = &self.paths[gi][read.path % self.paths[gi].len()];
        let [a, b, c] = read.members.map(|m| self.member(gi, m));
        match read.kind {
            0 => {
                let truth = online::evaluate_reference(g, a, path, Some(b));
                Answer::Check {
                    granted: truth.granted,
                    witness_hops: truth.witness.map(|w| w.len()),
                }
            }
            1 => Answer::Audiences(
                self.bundle(gi, a, b)
                    .into_iter()
                    .map(|(o, p)| online::evaluate_reference(g, o, p, None).matched)
                    .collect(),
            ),
            _ => Answer::Audiences(
                [a, b, c]
                    .iter()
                    .map(|&o| online::evaluate_reference(g, o, path, None).matched)
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
        other in graph_strategy(),
        padded in padded_graph_strategy(),
        texts in proptest::collection::vec(dense_path_strategy(), 1..4),
        reads in proptest::collection::vec(read_strategy(), 4..24),
    ) {
        // Three graphs of different |V| (one of them large enough for
        // the slot-by-slot reset), paths of different layer counts,
        // reads of different shapes — in one random order
        // through one thread's pool, so every read inherits whatever
        // the previous shapes left in (and grew) the buffers.
        let mut graphs = vec![small, other, padded];
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
        let world = World { graphs, snaps, paths };

        online::release_thread_caches();
        let recycled: Vec<Answer> = reads.iter().map(|r| world.masked(r)).collect();
        let fresh: Vec<Answer> = reads
            .iter()
            .map(|r| {
                online::release_thread_caches(); // a brand-new pool per read
                world.masked(r)
            })
            .collect();
        let truth: Vec<Answer> = reads.iter().map(|r| world.reference(r)).collect();
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
