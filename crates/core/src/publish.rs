//! `Publisher` — the epoch publication of a serving backend's CSR
//! snapshots, shared by the single graph ([`crate::AccessControlSystem`])
//! and every shard (`ShardCore`).
//!
//! At any time one `Arc<CsrSnapshot>` is *published* as the current
//! epoch's index, and every reader — each check, each bundle, each
//! worker of a check batch fanned out over threads, each shard session
//! — clones the `Arc` and runs against that immutable snapshot
//! concurrently, through `&self`. When a reader finds the published
//! snapshot stale for its graph, exactly one publisher (under the write
//! lock) installs a fresh one and bumps the epoch counter. The fresh
//! snapshot is **patched** from the previous epoch by
//! [`CsrSnapshot::apply_edge_appends`] when it can be, and built from
//! scratch otherwise. A patch is copy-on-write: the new epoch shares
//! every index page the appends did not touch with the previous one and
//! rebuilds only the rest, so republishing after one new relationship
//! costs two page rebuilds. Mutators never touch the published snapshot
//! in place, and no page is ever modified once built; in-flight readers
//! keep their epoch's `Arc` alive until they finish and read exactly
//! what it held.
//!
//! The patch needs the snapshot's lineage: every graph a publisher is
//! handed must be the same graph, advanced only by node and edge
//! appends (and attribute or policy writes). Both owners hold their
//! graph and route every mutation, so that holds by construction.

use parking_lot::RwLock;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::SocialGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The published snapshot of one owned graph and its epoch counter.
#[derive(Debug, Default)]
pub(crate) struct Publisher {
    published: RwLock<Option<Arc<CsrSnapshot>>>,
    epoch: AtomicU64,
}

impl Publisher {
    /// A snapshot current for `g`: the published epoch when it still
    /// matches, otherwise a new epoch patched from it or rebuilt.
    pub(crate) fn current(&self, g: &SocialGraph) -> Arc<CsrSnapshot> {
        if let Some(s) = self.published.read().as_ref() {
            if s.matches(g) {
                return Arc::clone(s);
            }
        }
        // Double-check under the write lock: concurrent cold readers
        // (a check batch's fan-out) must not each build their own
        // snapshot; one publishes while the rest wait and reuse it.
        let mut slot = self.published.write();
        if let Some(s) = slot.as_ref() {
            if s.matches(g) {
                return Arc::clone(s);
            }
        }
        let patched = slot.as_ref().and_then(|base| base.apply_edge_appends(g));
        let fresh = Arc::new(patched.unwrap_or_else(|| CsrSnapshot::build(g)));
        *slot = Some(Arc::clone(&fresh));
        self.epoch.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// Number of publications since construction (each build or patch
    /// that replaced the published `Arc` counts as one epoch).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The published snapshot, without refreshing it.
    #[cfg(test)]
    fn published(&self) -> Option<Arc<CsrSnapshot>> {
        self.published.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online;
    use crate::path::{parse_path, PathExpr};
    use socialreach_graph::NodeId;

    /// Alice -friend-> Bob -friend-> Carol, and `friend+[1]` from Alice.
    fn setup() -> (SocialGraph, PathExpr) {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        g.connect(a, "friend", b);
        g.connect(b, "friend", c);
        let p = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        (g, p)
    }

    /// Whether `requester` satisfies `path` from Alice, over the
    /// snapshot `p` publishes for `g`.
    fn granted(p: &Publisher, g: &SocialGraph, path: &PathExpr, requester: NodeId) -> bool {
        let snap = p.current(g);
        let alice = g.node_by_name("Alice").unwrap();
        online::evaluate_with_snapshot(g, &snap, alice, path, Some(requester)).granted
    }

    #[test]
    fn snapshot_cache_follows_graph_generation() {
        let (mut g, p) = setup();
        let publisher = Publisher::default();
        let carol = g.node_by_name("Carol").unwrap();
        assert!(!granted(&publisher, &g, &p, carol));
        // Mutate the graph: the published snapshot is stale and the
        // next read must publish one that sees the new edge.
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        assert!(
            granted(&publisher, &g, &p, carol),
            "fresh snapshot sees the new edge"
        );
    }

    #[test]
    fn publication_epoch_advances_per_snapshot_not_per_read() {
        let (mut g, p) = setup();
        let publisher = Publisher::default();
        assert_eq!(publisher.epoch(), 0);
        assert!(publisher.published().is_none());
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        granted(&publisher, &g, &p, bob);
        granted(&publisher, &g, &p, carol);
        assert_eq!(publisher.epoch(), 1, "one publication serves reads");
        let published = publisher.published().expect("published");
        assert!(published.matches(&g));
        // A topology append stales the epoch; the next read republishes.
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        granted(&publisher, &g, &p, carol);
        assert_eq!(publisher.epoch(), 2);
    }

    #[test]
    fn append_publication_patches_instead_of_losing_the_base() {
        let (mut g, p) = setup();
        let publisher = Publisher::default();
        let carol = g.node_by_name("Carol").unwrap();
        assert!(!granted(&publisher, &g, &p, carol));
        let base = publisher.published().expect("published");
        // An append: the next read must see the new edge through a
        // *patched* publication.
        let alice = g.node_by_name("Alice").unwrap();
        g.connect(alice, "friend", carol);
        assert!(
            granted(&publisher, &g, &p, carol),
            "patched snapshot sees the appended edge"
        );
        let patched = publisher.published().expect("republished");
        assert!(patched.matches(&g));
        assert_eq!(patched.num_edges(), base.num_edges() + 1);
        // And the patch is exactly what a rebuild would produce.
        assert_eq!(*patched, g.snapshot());
    }

    #[test]
    fn a_pinned_epoch_is_unchanged_by_later_publications() {
        let (mut g, p) = setup();
        // Several pages of members, so later patches share pages with
        // the pinned epoch instead of replacing them all.
        let friend = g.intern_label("friend");
        for i in 0..1000u32 {
            let v = g.add_node(&format!("m{i}"));
            g.add_edge(NodeId(i % 3), v, friend);
        }
        let publisher = Publisher::default();
        let pinned = publisher.current(&g);
        let epoch = publisher.epoch();
        // Built independently, so it shares no page with `pinned`.
        let expected = CsrSnapshot::build(&g);
        for k in 1..=5u32 {
            let v = g.add_node(&format!("late{k}"));
            g.add_edge(NodeId(k), v, friend);
            g.add_edge(v, NodeId(999 - k), friend);
            granted(&publisher, &g, &p, v);
            assert_eq!(publisher.epoch(), epoch + u64::from(k));
        }
        assert_eq!(*pinned, expected, "the pinned epoch reads what it read");
        assert!(!pinned.matches(&g));
        let latest = publisher.published().expect("published");
        assert!(latest.matches(&g));
        assert_eq!(*latest, CsrSnapshot::build(&g));
    }
}
