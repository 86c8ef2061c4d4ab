//! Differential property tests for incremental snapshot maintenance:
//! on random base graphs × random append sequences,
//! `CsrSnapshot::apply_edge_appends` must produce exactly the index a
//! full `CsrSnapshot::build` of the grown graph would — and the online
//! engine must return identical decisions, audiences and witnesses
//! over either snapshot.
//!
//! The first two properties run on graphs of 2–8 members, where the
//! engine check can afford every owner × requester pair. The last one
//! runs on graphs of three to four pages of members, aimed at the page
//! boundaries of the copy-on-write patch.

mod common;

use common::oracle::LABELS;
use proptest::prelude::*;
use socialreach_core::{online, parse_path, PathExpr};
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{NodeId, SocialGraph};

#[derive(Clone, Debug)]
struct Append {
    /// Add this many fresh members first.
    new_nodes: usize,
    /// Then these edges, endpoints modulo the grown node count.
    edges: Vec<(u32, u32, usize)>,
}

#[derive(Clone, Debug)]
struct Case {
    base_nodes: usize,
    base_edges: Vec<(u32, u32, usize)>,
    /// Successive append batches (each patches the previous snapshot).
    appends: Vec<Append>,
    paths: Vec<String>,
}

fn append_strategy() -> impl Strategy<Value = Append> {
    (
        0..3usize,
        proptest::collection::vec((0..64u32, 0..64u32, 0..3usize), 0..12),
    )
        .prop_map(|(new_nodes, edges)| Append { new_nodes, edges })
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2..8usize,
        proptest::collection::vec((0..64u32, 0..64u32, 0..3usize), 0..16),
        proptest::collection::vec(append_strategy(), 1..4),
        proptest::collection::vec(common::path_texts(1..3, 3), 1..3),
    )
        .prop_map(|(base_nodes, base_edges, appends, paths)| Case {
            base_nodes,
            base_edges,
            appends,
            paths,
        })
}

fn add_edges(g: &mut SocialGraph, edges: &[(u32, u32, usize)]) {
    let n = g.num_nodes() as u32;
    for &(s, t, l) in edges {
        let label = g.vocab().label(LABELS[l]).unwrap();
        g.add_edge(NodeId(s % n), NodeId(t % n), label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn patched_snapshots_are_identical_to_rebuilds(case in case_strategy()) {
        let mut g = SocialGraph::new();
        for i in 0..case.base_nodes {
            g.add_node(&format!("u{i}"));
        }
        for l in LABELS {
            g.intern_label(l);
        }
        add_edges(&mut g, &case.base_edges);

        // Chain one patch per append batch; every intermediate patched
        // snapshot must equal a from-scratch rebuild of that topology.
        let mut snap = g.snapshot();
        prop_assert_eq!(&snap, &CsrSnapshot::build(&g));
        for (round, append) in case.appends.iter().enumerate() {
            for k in 0..append.new_nodes {
                g.add_node(&format!("extra{round}-{k}"));
            }
            add_edges(&mut g, &append.edges);
            snap = snap.apply_edge_appends(&g).expect("append-only lineage");
            prop_assert!(snap.matches(&g), "round {}", round);
            prop_assert_eq!(&snap, &CsrSnapshot::build(&g), "round {}", round);
        }

        // The online engine agrees decision-for-decision over the
        // patched snapshot (audiences, grants and witnesses) with
        // itself over a from-scratch rebuild of the final graph: the
        // rebuild is the patch's oracle.
        let rebuilt = CsrSnapshot::build(&g);
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
            .collect();
        for (path, text) in parsed.iter().zip(&case.paths) {
            for owner in g.nodes() {
                let truth = online::evaluate_with_snapshot(&g, &rebuilt, owner, path, None);
                let fast = online::evaluate_with_snapshot(&g, &snap, owner, path, None);
                prop_assert_eq!(
                    &fast.matched, &truth.matched,
                    "audience mismatch: path={} owner={}", text, owner
                );
                for requester in g.nodes() {
                    let truth =
                        online::evaluate_with_snapshot(&g, &rebuilt, owner, path, Some(requester));
                    let fast =
                        online::evaluate_with_snapshot(&g, &snap, owner, path, Some(requester));
                    prop_assert_eq!(
                        fast.granted, truth.granted,
                        "decision mismatch: path={} owner={} requester={}",
                        text, owner, requester
                    );
                    prop_assert_eq!(&fast.witness, &truth.witness, "path={}", text);
                }
            }
        }
    }

    #[test]
    fn one_shot_patch_equals_chained_patches(case in case_strategy()) {
        // Applying every append in one patch and applying them batch by
        // batch must converge on the same index.
        let mut g = SocialGraph::new();
        for i in 0..case.base_nodes {
            g.add_node(&format!("u{i}"));
        }
        for l in LABELS {
            g.intern_label(l);
        }
        add_edges(&mut g, &case.base_edges);
        let base = g.snapshot();

        let mut chained = base.clone();
        for (round, append) in case.appends.iter().enumerate() {
            for k in 0..append.new_nodes {
                g.add_node(&format!("extra{round}-{k}"));
            }
            add_edges(&mut g, &append.edges);
            chained = chained.apply_edge_appends(&g).expect("append-only lineage");
        }
        let one_shot = base.apply_edge_appends(&g).expect("append-only lineage");
        prop_assert_eq!(one_shot, chained);
    }

    #[test]
    fn paged_patches_are_identical_to_rebuilds(case in paged_case_strategy()) {
        let mut g = SocialGraph::new();
        for i in 0..case.base_nodes {
            g.add_node(&format!("u{i}"));
        }
        for l in LABELS {
            g.intern_label(l);
        }
        let friend = g.vocab().label("friend").unwrap();
        let n = g.num_nodes() as u32;
        for &(s, t, l) in &case.base_edges {
            let label = g.vocab().label(LABELS[l]).unwrap();
            g.add_edge(NodeId(s % n), NodeId(t % n), label);
        }
        // The hub's `friend` run outweighs the rest of its page.
        let hub = NodeId(case.hub % n);
        for i in 0..case.hub_degree as u32 {
            g.add_edge(hub, NodeId(i.wrapping_mul(7919) % n), friend);
        }

        let base = g.snapshot();
        let mut chained = base.clone();
        for (round, append) in case.appends.iter().enumerate() {
            let n = g.num_nodes() as u32;
            let new_nodes = match append.new_nodes {
                // Fill the partial last page exactly (a full page more
                // when the last page is already full).
                (0, _) => PAGE - n % PAGE,
                // Open at least one new page.
                (1, x) => PAGE + x % PAGE,
                (_, x) => x % 4,
            };
            for k in 0..new_nodes {
                g.add_node(&format!("extra{round}-{k}"));
            }
            for &(s, t, l) in &append.edges {
                let (s, t) = (endpoint(&g, hub, s), endpoint(&g, hub, t));
                let label = g.vocab().label(LABELS[l]).unwrap();
                g.add_edge(s, t, label);
            }
            chained = chained.apply_edge_appends(&g).expect("append-only lineage");
            prop_assert!(chained.matches(&g), "round {}", round);
            prop_assert_eq!(&chained, &CsrSnapshot::build(&g), "round {}", round);
        }
        let one_shot = base.apply_edge_appends(&g).expect("append-only lineage");
        prop_assert_eq!(&one_shot, &chained);

        // Audiences from owners on both sides of every page boundary,
        // and from the hub, over the patched snapshot and a rebuild.
        let rebuilt = CsrSnapshot::build(&g);
        let paths: Vec<PathExpr> = ["friend+[1..2]", "colleague-[1]", "parent*[1]"]
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("fixed paths parse"))
            .collect();
        let n = g.num_nodes() as u32;
        let owners = (1..=n / PAGE)
            .flat_map(|k| [k * PAGE - 1, k * PAGE])
            .filter(|&v| v < n)
            .map(NodeId)
            .chain([hub]);
        for owner in owners {
            for path in &paths {
                let truth = online::evaluate_with_snapshot(&g, &rebuilt, owner, path, None);
                let fast = online::evaluate_with_snapshot(&g, &chained, owner, path, None);
                prop_assert_eq!(&fast.matched, &truth.matched, "owner={}", owner);
            }
        }
    }
}

/// `socialreach_graph::csr`'s page size (a private constant there): the
/// paged property aims its appends at multiples of it.
const PAGE: u32 = 256;

/// An endpoint spec, resolved by [`endpoint`].
type Spec = (u8, u32);

#[derive(Clone, Debug)]
struct PagedAppend {
    /// `(mode, x)`: mode 0 fills the partial last page, mode 1 opens
    /// new pages, anything else adds `x % 4` members.
    new_nodes: Spec,
    /// Edges between [`endpoint`] specs.
    edges: Vec<(Spec, Spec, usize)>,
}

#[derive(Clone, Debug)]
struct PagedCase {
    /// Between two and three and a half pages, so the graph spans at
    /// least three.
    base_nodes: usize,
    base_edges: Vec<(u32, u32, usize)>,
    hub: u32,
    hub_degree: usize,
    appends: Vec<PagedAppend>,
}

/// Resolves an endpoint spec against the current graph: kind 0 is the
/// last member of a page (`k·PAGE − 1`), kind 1 the first member of the
/// next (`k·PAGE`), kind 2 the hub, anything else member `x`.
fn endpoint(g: &SocialGraph, hub: NodeId, (kind, x): Spec) -> NodeId {
    let n = g.num_nodes() as u32;
    let k = 1 + x % n.div_ceil(PAGE);
    NodeId(
        match kind {
            0 => k * PAGE - 1,
            1 => k * PAGE,
            2 => hub.0,
            _ => x,
        } % n,
    )
}

fn paged_case_strategy() -> impl Strategy<Value = PagedCase> {
    let spec = (0..5u8, 0..4096u32);
    let append = (
        (0..4u8, 0..4096u32),
        proptest::collection::vec((spec.clone(), spec, 0..3usize), 1..12),
    )
        .prop_map(|(new_nodes, edges)| PagedAppend { new_nodes, edges });
    (
        (2 * PAGE as usize + 1)..(3 * PAGE as usize + PAGE as usize / 2),
        proptest::collection::vec((0..4096u32, 0..4096u32, 0..3usize), 400..1200),
        (0..4096u32, 300..900usize),
        proptest::collection::vec(append, 1..5),
    )
        .prop_map(
            |(base_nodes, base_edges, (hub, hub_degree), appends)| PagedCase {
                base_nodes,
                base_edges,
                hub,
                hub_degree,
                appends,
            },
        )
}
