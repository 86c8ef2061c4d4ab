//! The social-network graph of Definition 1.
//!
//! [`SocialGraph`] is a directed, edge-labeled multigraph whose nodes are
//! members with a display name and an attribute tuple, and whose edges are
//! typed relationship instances (optionally attributed, e.g. the
//! `Babysitting; 0.8` annotation in Figure 1 of the paper).

use crate::attrs::{AttrMap, AttrValue};
use crate::csr::CsrSnapshot;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::ids::{AttrKey, EdgeId, LabelId, NodeId};
use crate::vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global mutation-generation counter. Stamps are unique across every
/// live graph in the process, so a `(generation)` key never aliases two
/// different topologies (clones share a stamp only while identical —
/// the first mutation of either moves it to a fresh one).
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A generation stamp whose `Default` draws a fresh one, so serde —
/// which fills a skipped field with its default — stamps a decoded
/// graph as [`SocialGraph::new`] stamps an empty one.
#[derive(Clone, Copy, Debug)]
struct Stamp(u64);

impl Default for Stamp {
    fn default() -> Self {
        Stamp(next_generation())
    }
}

/// Traversal direction of a relationship, relative to a node.
///
/// The paper's access-condition steps carry `dir ∈ {+, −, ∗}`: `+` follows
/// the edge from source to target (outgoing), `−` follows it against its
/// orientation (incoming), and `∗` allows both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Outgoing: follow edges whose source is the current node (`+`).
    Out,
    /// Incoming: follow edges whose target is the current node (`−`).
    In,
    /// Either orientation (`∗`, the model's default).
    Both,
}

impl Direction {
    /// The paper's one-character rendering of the direction.
    pub fn symbol(self) -> char {
        match self {
            Direction::Out => '+',
            Direction::In => '-',
            Direction::Both => '*',
        }
    }
}

/// A single directed, labeled relationship instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// Source member.
    pub src: NodeId,
    /// Target member.
    pub dst: NodeId,
    /// Relationship type.
    pub label: LabelId,
    /// Optional edge annotations (topic, trust score, …).
    pub attrs: AttrMap,
}

/// Directed, edge-labeled, node-attributed multigraph (Definition 1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SocialGraph {
    vocab: Vocabulary,
    node_names: Vec<String>,
    #[serde(skip)]
    name_lookup: HashMap<String, NodeId>,
    node_attrs: Vec<AttrMap>,
    edges: Vec<EdgeRecord>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    /// Mutation stamp for cache invalidation, advanced by **every**
    /// mutating operation (see [`SocialGraph::generation`]). Not
    /// serialized: a decoded graph draws a fresh one.
    #[serde(skip)]
    generation: Stamp,
    /// Stamp advanced only by **topology** mutations (nodes/edges
    /// added). [`CsrSnapshot`]s key on this one: attribute writes never
    /// force a re-index, because snapshots store no attributes.
    #[serde(skip)]
    topology_generation: Stamp,
}

impl Default for SocialGraph {
    fn default() -> Self {
        let stamp = Stamp::default();
        SocialGraph {
            vocab: Vocabulary::default(),
            node_names: Vec::new(),
            name_lookup: HashMap::new(),
            node_attrs: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            generation: stamp,
            topology_generation: stamp,
        }
    }
}

impl SocialGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the non-serialized name lookups after deserialization
    /// (a decoded graph resolves no member, label or attribute name
    /// until then).
    pub fn rebuild_lookups(&mut self) {
        self.vocab.rebuild_lookups();
        // `add_node` gives duplicate display names first-wins semantics
        // (`entry().or_insert()`); rebuild the same way so a serde
        // round-trip cannot silently re-point `node_by_name`.
        self.name_lookup = HashMap::with_capacity(self.node_names.len());
        for (i, s) in self.node_names.iter().enumerate() {
            self.name_lookup
                .entry(s.clone())
                .or_insert(NodeId::from_index(i));
        }
    }

    /// The graph's mutation generation: a process-unique stamp advanced
    /// by every mutating operation (topology *and* attribute writes).
    pub fn generation(&self) -> u64 {
        self.generation.0
    }

    /// The graph's topology generation: advanced only when nodes or
    /// edges are added. [`CsrSnapshot`]s record the stamp they were
    /// built at, so caches can tell a current snapshot from a stale one
    /// in O(1) ([`CsrSnapshot::matches`]) without rebuilding after mere
    /// attribute churn (conditions read attributes live from the graph).
    pub fn topology_generation(&self) -> u64 {
        self.topology_generation.0
    }

    /// Builds an immutable label-partitioned CSR adjacency snapshot of
    /// the current topology.
    pub fn snapshot(&self) -> CsrSnapshot {
        CsrSnapshot::build(self)
    }

    #[inline]
    fn touch(&mut self) {
        self.generation = Stamp::default();
    }

    #[inline]
    fn touch_topology(&mut self) {
        let stamp = Stamp::default();
        self.generation = stamp;
        self.topology_generation = stamp;
    }

    // ------------------------------------------------------------------
    // Vocabulary passthroughs
    // ------------------------------------------------------------------

    /// Interns a relationship type name.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.vocab.intern_label(name)
    }

    /// Interns an attribute key name.
    pub fn intern_attr(&mut self, name: &str) -> AttrKey {
        self.vocab.intern_attr(name)
    }

    /// Shared vocabulary (labels + attribute keys).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable vocabulary access (the policy parser interns labels and
    /// attribute keys it encounters).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Adds a member with a display name. Names are convenience handles
    /// and need not be unique; [`SocialGraph::node_by_name`] returns the
    /// first member registered under a name.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.touch_topology();
        let id = NodeId::from_index(self.node_names.len());
        self.node_names.push(name.to_owned());
        self.name_lookup.entry(name.to_owned()).or_insert(id);
        self.node_attrs.push(AttrMap::new());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Number of members (`|V|`).
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// True when `n` is a valid member of this graph.
    pub fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.num_nodes()
    }

    /// Display name of a member.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.index()]
    }

    /// Finds a member by display name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_lookup.get(name).copied()
    }

    /// Finds a member by display name, as a `Result` for `?`-friendly use.
    pub fn require_node(&self, name: &str) -> Result<NodeId, GraphError> {
        self.node_by_name(name)
            .ok_or_else(|| GraphError::UnknownName(name.to_owned()))
    }

    /// Iterates over all member ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Sets a node attribute (interning the key name).
    pub fn set_node_attr(&mut self, n: NodeId, key: &str, value: impl Into<AttrValue>) {
        let k = self.vocab.intern_attr(key);
        self.set_node_attr_key(n, k, value.into());
    }

    /// Sets a node attribute under an interned key.
    pub fn set_node_attr_key(&mut self, n: NodeId, key: AttrKey, value: AttrValue) {
        self.touch();
        self.node_attrs[n.index()].set(key, value);
    }

    /// Reads a node attribute by interned key.
    pub fn node_attr(&self, n: NodeId, key: AttrKey) -> Option<&AttrValue> {
        self.node_attrs[n.index()].get(key)
    }

    /// Reads a node attribute by key name.
    pub fn node_attr_by_name(&self, n: NodeId, key: &str) -> Option<&AttrValue> {
        self.vocab.attr(key).and_then(|k| self.node_attr(n, k))
    }

    /// The full attribute tuple `δ(n)`.
    pub fn node_attrs(&self, n: NodeId) -> &AttrMap {
        &self.node_attrs[n.index()]
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    /// Adds a directed relationship `src --label--> dst`. Parallel edges
    /// (same endpoints, same or different label) are permitted, as in any
    /// multigraph.
    ///
    /// # Panics
    /// Panics if either endpoint is not a member of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: LabelId) -> EdgeId {
        self.touch_topology();
        assert!(self.contains_node(src), "add_edge: unknown src {src:?}");
        assert!(self.contains_node(dst), "add_edge: unknown dst {dst:?}");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeRecord {
            src,
            dst,
            label,
            attrs: AttrMap::new(),
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Convenience: interns `label` and adds the edge.
    pub fn connect(&mut self, src: NodeId, label: &str, dst: NodeId) -> EdgeId {
        let l = self.intern_label(label);
        self.add_edge(src, dst, l)
    }

    /// Number of relationship instances (`|E|`).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge record lookup.
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edges[e.index()]
    }

    /// Sets an edge attribute (interning the key name).
    pub fn set_edge_attr(&mut self, e: EdgeId, key: &str, value: impl Into<AttrValue>) {
        self.touch();
        let k = self.vocab.intern_attr(key);
        self.edges[e.index()].attrs.set(k, value.into());
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::from_index)
    }

    /// Iterates over `(EdgeId, &EdgeRecord)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, r)| (EdgeId::from_index(i), r))
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> {
        self.out_adj[n.index()].iter().map(|&e| (e, self.edge(e)))
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> {
        self.in_adj[n.index()].iter().map(|&e| (e, self.edge(e)))
    }

    /// Out-degree of `n` (all labels).
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// In-degree of `n` (all labels).
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// Neighbors of `n` over edges labeled `label` in direction `dir`.
    /// For [`Direction::Both`] a neighbor reachable both ways appears
    /// once per witnessing edge (walk semantics count edge traversals).
    pub fn neighbors(
        &self,
        n: NodeId,
        label: LabelId,
        dir: Direction,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let out = matches!(dir, Direction::Out | Direction::Both);
        let inc = matches!(dir, Direction::In | Direction::Both);
        let out_iter = self.out_adj[n.index()]
            .iter()
            .filter(move |_| out)
            .map(|&e| self.edge(e))
            .filter(move |r| r.label == label)
            .map(|r| r.dst);
        let in_iter = self.in_adj[n.index()]
            .iter()
            .filter(move |_| inc)
            .map(|&e| self.edge(e))
            .filter(move |r| r.label == label)
            .map(|r| r.src);
        out_iter.chain(in_iter)
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Projects the node-to-node connectivity (all labels collapsed) into
    /// a compact [`DiGraph`] for plain-reachability baselines.
    pub fn to_digraph(&self) -> DiGraph {
        let edges: Vec<(u32, u32)> = self.edges.iter().map(|r| (r.src.0, r.dst.0)).collect();
        DiGraph::from_edges(self.num_nodes(), &edges)
    }

    /// Projects only the edges with the given label.
    pub fn label_subgraph(&self, label: LabelId) -> DiGraph {
        let edges: Vec<(u32, u32)> = self
            .edges
            .iter()
            .filter(|r| r.label == label)
            .map(|r| (r.src.0, r.dst.0))
            .collect();
        DiGraph::from_edges(self.num_nodes(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SocialGraph, NodeId, NodeId, NodeId, LabelId, LabelId) {
        let mut g = SocialGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let friend = g.intern_label("friend");
        let colleague = g.intern_label("colleague");
        g.add_edge(a, b, friend);
        g.add_edge(b, c, colleague);
        g.add_edge(a, c, friend);
        (g, a, b, c, friend, colleague)
    }

    #[test]
    fn nodes_and_names() {
        let (g, a, b, _, _, _) = tiny();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.node_name(a), "A");
        assert_eq!(g.node_by_name("B"), Some(b));
        assert_eq!(g.node_by_name("Z"), None);
        assert!(g.require_node("Z").is_err());
        assert!(g.contains_node(a));
        assert!(!g.contains_node(NodeId(99)));
    }

    #[test]
    fn duplicate_names_resolve_to_first() {
        let mut g = SocialGraph::new();
        let first = g.add_node("X");
        let _second = g.add_node("X");
        assert_eq!(g.node_by_name("X"), Some(first));
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn edges_and_degrees() {
        let (g, a, b, c, friend, colleague) = tiny();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 2);
        let (eid, rec) = g.out_edges(b).next().unwrap();
        assert_eq!(rec.label, colleague);
        assert_eq!(g.edge(eid).dst, c);
        let friends_of_a: Vec<_> = g.neighbors(a, friend, Direction::Out).collect();
        assert_eq!(friends_of_a, vec![b, c]);
    }

    #[test]
    fn neighbors_respect_direction() {
        let (g, a, b, _, friend, _) = tiny();
        assert_eq!(g.neighbors(b, friend, Direction::Out).count(), 0);
        let incoming: Vec<_> = g.neighbors(b, friend, Direction::In).collect();
        assert_eq!(incoming, vec![a]);
        let both: Vec<_> = g.neighbors(b, friend, Direction::Both).collect();
        assert_eq!(both, vec![a]);
    }

    #[test]
    fn node_attrs_round_trip() {
        let (mut g, a, _, _, _, _) = tiny();
        g.set_node_attr(a, "age", 24i64);
        g.set_node_attr(a, "gender", "female");
        assert_eq!(g.node_attr_by_name(a, "age"), Some(&AttrValue::Int(24)));
        assert_eq!(g.node_attr_by_name(a, "height"), None);
        assert_eq!(g.node_attrs(a).len(), 2);
    }

    #[test]
    fn edge_attrs_round_trip() {
        let (mut g, _, _, _, _, _) = tiny();
        let e = EdgeId(0);
        g.set_edge_attr(e, "trust", 0.8f64);
        let k = g.vocab().attr("trust").unwrap();
        assert_eq!(g.edge(e).attrs.get(k), Some(&AttrValue::Float(0.8)));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let f = g.intern_label("friend");
        g.add_edge(a, b, f);
        g.add_edge(a, b, f);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(a, f, Direction::Out).count(), 2);
    }

    #[test]
    fn digraph_projection_collapses_labels() {
        let (g, _, _, _, _, _) = tiny();
        let d = g.to_digraph();
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.successors(0), &[1, 2]);
    }

    #[test]
    fn label_subgraph_filters_edges() {
        let (g, _, _, _, friend, colleague) = tiny();
        assert_eq!(g.label_subgraph(friend).num_edges(), 2);
        assert_eq!(g.label_subgraph(colleague).num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown dst")]
    fn add_edge_rejects_unknown_endpoint() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let f = g.intern_label("f");
        g.add_edge(a, NodeId(5), f);
    }

    #[test]
    fn rebuild_lookups_after_clone_reset() {
        let (g, a, _, _, _, _) = tiny();
        let mut g2 = g.clone();
        g2.name_lookup.clear();
        g2.rebuild_lookups();
        assert_eq!(g2.node_by_name("A"), Some(a));
    }

    #[test]
    fn a_decoded_graph_draws_a_fresh_stamp() {
        let (g, a, _, _, _, _) = tiny();
        let json = serde_json::to_string(&g).unwrap();
        let mut decoded: SocialGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            json,
            "stamps are not encoded"
        );
        assert_ne!(decoded.topology_generation(), g.topology_generation());
        assert!(!g.snapshot().matches(&decoded), "a fresh stamp");
        assert!(decoded.snapshot().matches(&decoded));
        assert_eq!(decoded.node_by_name("A"), None, "no lookups yet");
        decoded.rebuild_lookups();
        assert_eq!(decoded.node_by_name("A"), Some(a));
    }

    #[test]
    fn rebuild_lookups_keeps_first_wins_for_duplicate_names() {
        // Regression: the rebuild used to insert last-wins while
        // `add_node` resolves duplicates first-wins, so a serde
        // round-trip silently re-pointed `node_by_name`.
        let mut g = SocialGraph::new();
        let first = g.add_node("X");
        let _second = g.add_node("X");
        assert_eq!(g.node_by_name("X"), Some(first));
        let mut g2 = g.clone();
        g2.name_lookup.clear();
        g2.rebuild_lookups();
        assert_eq!(g2.node_by_name("X"), Some(first));
    }

    #[test]
    fn generation_advances_on_every_mutation() {
        let mut g = SocialGraph::new();
        let g0 = g.generation();
        let a = g.add_node("a");
        assert_ne!(g.generation(), g0);
        let g1 = g.generation();
        let b = g.add_node("b");
        let e = g.connect(a, "friend", b);
        assert_ne!(g.generation(), g1);
        let g2 = g.generation();
        g.set_node_attr(a, "age", 4i64);
        assert_ne!(g.generation(), g2);
        let g3 = g.generation();
        g.set_edge_attr(e, "trust", 0.5f64);
        assert_ne!(g.generation(), g3);
        // Distinct graphs never share a stamp.
        let other = SocialGraph::new();
        assert_ne!(other.generation(), g.generation());
    }

    #[test]
    fn topology_generation_ignores_attribute_writes() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.connect(a, "friend", b);
        let topo = g.topology_generation();
        g.set_node_attr(a, "age", 4i64);
        g.set_edge_attr(e, "trust", 0.5f64);
        assert_eq!(
            g.topology_generation(),
            topo,
            "attribute churn must not force a CSR re-index"
        );
        assert_ne!(g.generation(), topo, "overall generation still advances");
        g.add_edge(a, b, g.vocab().label("friend").unwrap());
        assert_ne!(g.topology_generation(), topo);
    }

    #[test]
    fn snapshot_convenience_matches_current_generation() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.connect(a, "friend", b);
        let s = g.snapshot();
        assert!(s.matches(&g));
        assert_eq!(s.generation(), g.generation());
    }
}
