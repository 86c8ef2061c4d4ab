//! The cluster-based join index of §3.3: per-label base tables, the
//! center clusters `(U_w, w, V_w)`, and the W-table that routes a
//! reachability join to the relevant centers.
//!
//! The paper stores, for every relationship type, a three-column base
//! table `T_ℓ(ℓ, ℓ_in, ℓ_out)` in a relational database, plus a B⁺-tree
//! whose non-leaf entries are 2-hop centers `w`, each holding the cluster
//! `U_w` of line vertices that reach `w` and the cluster `V_w` of line
//! vertices reachable from `w`. A reachability join
//! `T_x ⋈_{x ↪ y} T_y` is then `⋃_{w ∈ W(x,y)} (U_w ∩ T_x) × (V_w ∩ T_y)`,
//! where the W-table entry `W(x, y)` lists the centers that can
//! contribute at all.
//!
//! In-memory substitutions for the paper's disk structures: the B⁺-tree
//! becomes a [`BTreeMap`] keyed by center id; base tables become sorted
//! vectors of line-vertex ids per `(label, orientation)`.

use crate::line::{LineGraph, LineGraphConfig};
use crate::twohop::TwoHopLabeling;
use crate::util::{sorted_contains, sorted_intersection};
use socialreach_graph::algo::tarjan_scc;
use socialreach_graph::{LabelId, NodeId, SocialGraph};
use std::collections::{BTreeMap, HashMap};

/// A base-table key: relationship type plus traversal orientation
/// (`true` = the edge is taken src→dst).
pub type LabelKey = (LabelId, bool);

/// Per-(label, orientation) tables of line vertices — the relational
/// `T_friend`, `T_colleague`, … of §3.3.
#[derive(Clone, Debug, Default)]
pub struct BaseTables {
    map: HashMap<LabelKey, Vec<u32>>,
}

impl BaseTables {
    /// Collects the base tables from a line graph (virtual roots are
    /// never part of a base table).
    pub fn build(line: &LineGraph) -> Self {
        let mut map: HashMap<LabelKey, Vec<u32>> = HashMap::new();
        for (label, forward) in line.label_keys() {
            map.insert((label, forward), line.nodes_with(label, forward).to_vec());
        }
        for rows in map.values_mut() {
            rows.sort_unstable();
        }
        BaseTables { map }
    }

    /// Rows of `T_key` (ascending line-vertex ids); empty if absent.
    pub fn table(&self, key: LabelKey) -> &[u32] {
        self.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All table keys present.
    pub fn keys(&self) -> impl Iterator<Item = LabelKey> + '_ {
        self.map.keys().copied()
    }

    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }
}

/// The two clusters a center maintains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cluster {
    /// `U_w`: line vertices whose `L_out` contains `w` (they reach `w`).
    pub u: Vec<u32>,
    /// `V_w`: line vertices whose `L_in` contains `w` (reachable from `w`).
    pub v: Vec<u32>,
}

/// The cluster-based join index: an ordered map (standing in for the
/// paper's B⁺-tree) from center id to its clusters.
#[derive(Clone, Debug, Default)]
pub struct ClusterIndex {
    clusters: BTreeMap<u32, Cluster>,
}

impl ClusterIndex {
    /// Derives the clusters from a 2-hop labeling: vertex `x` joins
    /// `U_w` for every `w ∈ L_out(comp(x))` and `V_w` for every
    /// `w ∈ L_in(comp(x))`.
    pub fn build(line: &LineGraph, labeling: &TwoHopLabeling) -> Self {
        let mut clusters: BTreeMap<u32, Cluster> = BTreeMap::new();
        for x in 0..line.num_nodes() as u32 {
            let c = labeling.comp_of(x);
            for &w in labeling.lout_comps(c) {
                clusters.entry(w).or_default().u.push(x);
            }
            for &w in labeling.lin_comps(c) {
                clusters.entry(w).or_default().v.push(x);
            }
        }
        // Vertex ids were pushed in ascending order, so clusters are
        // already sorted; assert in debug builds.
        debug_assert!(clusters
            .values()
            .all(|c| c.u.windows(2).all(|w| w[0] < w[1]) && c.v.windows(2).all(|w| w[0] < w[1])));
        ClusterIndex { clusters }
    }

    /// Cluster of a center, if the center is in use.
    pub fn cluster(&self, w: u32) -> Option<&Cluster> {
        self.clusters.get(&w)
    }

    /// Iterates `(center, cluster)` in ascending center order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Cluster)> {
        self.clusters.iter().map(|(&w, c)| (w, c))
    }

    /// Number of centers.
    pub fn num_centers(&self) -> usize {
        self.clusters.len()
    }

    /// Heap bytes of all clusters.
    pub fn heap_bytes(&self) -> usize {
        self.clusters
            .values()
            .map(|c| (c.u.len() + c.v.len()) * 4)
            .sum::<usize>()
            + self.clusters.len() * (4 + std::mem::size_of::<Cluster>())
    }
}

/// The W-table: for a pair of base-table keys `(x, y)`, the centers whose
/// clusters can contribute tuples to `T_x ⋈ T_y` (Figure 6).
#[derive(Clone, Debug, Default)]
pub struct WTable {
    map: HashMap<(LabelKey, LabelKey), Vec<u32>>,
}

impl WTable {
    /// Builds the W-table from the cluster index: center `w` serves
    /// `(x, y)` iff `U_w` holds at least one `x`-vertex and `V_w` at
    /// least one `y`-vertex.
    pub fn build(line: &LineGraph, clusters: &ClusterIndex) -> Self {
        let mut map: HashMap<(LabelKey, LabelKey), Vec<u32>> = HashMap::new();
        let key_of = |x: u32| -> Option<LabelKey> {
            let ln = line.node(x);
            ln.label.map(|l| {
                let forward = matches!(
                    ln.kind,
                    crate::line::LineNodeKind::Real { forward: true, .. }
                );
                (l, forward)
            })
        };
        for (w, cluster) in clusters.iter() {
            let mut u_keys: Vec<LabelKey> = cluster.u.iter().filter_map(|&x| key_of(x)).collect();
            u_keys.sort_unstable();
            u_keys.dedup();
            let mut v_keys: Vec<LabelKey> = cluster.v.iter().filter_map(|&x| key_of(x)).collect();
            v_keys.sort_unstable();
            v_keys.dedup();
            for &xk in &u_keys {
                for &yk in &v_keys {
                    map.entry((xk, yk)).or_default().push(w);
                }
            }
        }
        for centers in map.values_mut() {
            centers.sort_unstable();
            centers.dedup();
        }
        WTable { map }
    }

    /// Centers relevant to the join `T_x ⋈ T_y` (ascending); empty when
    /// the join is provably empty.
    pub fn centers(&self, x: LabelKey, y: LabelKey) -> &[u32] {
        self.map.get(&(x, y)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates all `((x, y), centers)` entries.
    pub fn iter(&self) -> impl Iterator<Item = ((LabelKey, LabelKey), &[u32])> {
        self.map.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Number of populated `(x, y)` entries.
    pub fn num_entries(&self) -> usize {
        self.map.len()
    }
}

/// How the labeling for the join index is constructed.
#[derive(Clone, Copy, Debug)]
pub struct JoinIndexConfig {
    /// Materialize backward edge occurrences (needed for `−`/`∗` steps).
    pub augment_reverse: bool,
    /// Use the greedy (paper-faithful) cover when the condensation has
    /// at most this many components; otherwise fall back to pruned
    /// landmark labeling.
    pub greedy_cover_max_comps: usize,
    /// Optional virtual root (Figure 5 artifact only).
    pub virtual_root: Option<NodeId>,
}

impl Default for JoinIndexConfig {
    fn default() -> Self {
        JoinIndexConfig {
            augment_reverse: true,
            greedy_cover_max_comps: 256,
            virtual_root: None,
        }
    }
}

/// Everything §3.3 precomputes, bundled: the line graph, the 2-hop
/// labeling of its condensation, the base tables, the cluster index and
/// the W-table.
#[derive(Clone, Debug)]
pub struct JoinIndex {
    line: LineGraph,
    labeling: TwoHopLabeling,
    base: BaseTables,
    clusters: ClusterIndex,
    wtable: WTable,
}

impl JoinIndex {
    /// Builds the full index for a social graph.
    pub fn build(g: &SocialGraph, cfg: &JoinIndexConfig) -> Self {
        let line = LineGraph::build(
            g,
            &LineGraphConfig {
                augment_reverse: cfg.augment_reverse,
                virtual_root: cfg.virtual_root,
            },
        );
        Self::build_on_line(line, cfg)
    }

    /// Builds the index over an existing line graph.
    pub fn build_on_line(line: LineGraph, cfg: &JoinIndexConfig) -> Self {
        let cond = tarjan_scc(line.graph()).condense(line.graph());
        let labeling = if cond.dag.num_nodes() <= cfg.greedy_cover_max_comps {
            TwoHopLabeling::build_greedy_on_condensation(line.graph(), &cond)
        } else {
            TwoHopLabeling::build_pruned_on_condensation(&cond)
        };
        let base = BaseTables::build(&line);
        let clusters = ClusterIndex::build(&line, &labeling);
        let wtable = WTable::build(&line, &clusters);
        JoinIndex {
            line,
            labeling,
            base,
            clusters,
            wtable,
        }
    }

    /// The underlying line graph.
    pub fn line(&self) -> &LineGraph {
        &self.line
    }

    /// The 2-hop labeling.
    pub fn labeling(&self) -> &TwoHopLabeling {
        &self.labeling
    }

    /// The base tables.
    pub fn base_tables(&self) -> &BaseTables {
        &self.base
    }

    /// The cluster index.
    pub fn clusters(&self) -> &ClusterIndex {
        &self.clusters
    }

    /// The W-table.
    pub fn wtable(&self) -> &WTable {
        &self.wtable
    }

    /// Line-vertex-level reachability via the 2-hop labels
    /// (`L_out(a) ∩ L_in(b) ≠ ∅`, Definition 5).
    #[inline]
    pub fn reaches_line(&self, a: u32, b: u32) -> bool {
        self.labeling
            .reaches_comp(self.labeling.comp_of(a), self.labeling.comp_of(b))
    }

    /// The paper's full reachability join
    /// `T_x ⋈ T_y = ⋃_{w ∈ W(x,y)} (U_w ∩ T_x) × (V_w ∩ T_y)`,
    /// deduplicated and sorted.
    pub fn join_full(&self, x: LabelKey, y: LabelKey) -> Vec<(u32, u32)> {
        let tx = self.base.table(x);
        let ty = self.base.table(y);
        let mut out = Vec::new();
        // Reflexive pairs: Definition 5's `u ⇝ v` includes the trivial
        // path, which the cover need not spend centers on (mirrors the
        // `cu == cv` short-circuit of `reaches_comp`).
        if x == y {
            out.extend(tx.iter().map(|&v| (v, v)));
        }
        for &w in self.wtable.centers(x, y) {
            let Some(cluster) = self.clusters.cluster(w) else {
                continue;
            };
            let us = sorted_intersection(&cluster.u, tx);
            if us.is_empty() {
                continue;
            }
            let vs = sorted_intersection(&cluster.v, ty);
            for &u in &us {
                for &v in &vs {
                    out.push((u, v));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate continuations of a tuple ending at line vertex `end`
    /// (whose key is `x`): all `y`-vertices reachable from `end`,
    /// computed through the W-table clusters — the owner-seeded variant
    /// of the paper's join (ablation P5 compares the strategies).
    pub fn successors_via_wtable(&self, end: u32, x: LabelKey, y: LabelKey) -> Vec<u32> {
        let ty = self.base.table(y);
        let mut out = Vec::new();
        if x == y {
            out.push(end); // trivial path (see `join_full`)
        }
        for &w in self.wtable.centers(x, y) {
            let Some(cluster) = self.clusters.cluster(w) else {
                continue;
            };
            if !sorted_contains(&cluster.u, end) {
                continue;
            }
            out.extend(sorted_intersection(&cluster.v, ty));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate continuations by scanning `T_y` with direct 2-hop
    /// queries (no W-table). Same result set as
    /// [`JoinIndex::successors_via_wtable`].
    pub fn successors_via_scan(&self, end: u32, y: LabelKey) -> Vec<u32> {
        self.base
            .table(y)
            .iter()
            .copied()
            .filter(|&v| self.reaches_line(end, v))
            .collect()
    }

    /// Total heap bytes of the index (line graph + labels + tables +
    /// clusters), the P2 figure of merit.
    pub fn index_bytes(&self) -> usize {
        use crate::oracle::ReachabilityOracle as _;
        self.line.heap_bytes()
            + self.labeling.index_bytes()
            + self.base.total_rows() * 4
            + self.clusters.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialreach_graph::Direction;

    /// Alice -friend-> Bob -colleague-> Carol; Alice -friend-> Carol;
    /// Carol -parent-> Dave.
    fn sample() -> (SocialGraph, LabelId, LabelId, LabelId) {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        let d = g.add_node("Dave");
        let friend = g.intern_label("friend");
        let colleague = g.intern_label("colleague");
        let parent = g.intern_label("parent");
        g.add_edge(a, b, friend);
        g.add_edge(b, c, colleague);
        g.add_edge(a, c, friend);
        g.add_edge(c, d, parent);
        (g, friend, colleague, parent)
    }

    fn forward_index(g: &SocialGraph) -> JoinIndex {
        JoinIndex::build(
            g,
            &JoinIndexConfig {
                augment_reverse: false,
                ..JoinIndexConfig::default()
            },
        )
    }

    #[test]
    fn base_tables_partition_line_vertices() {
        let (g, friend, colleague, parent) = sample();
        let idx = forward_index(&g);
        assert_eq!(idx.base_tables().table((friend, true)).len(), 2);
        assert_eq!(idx.base_tables().table((colleague, true)).len(), 1);
        assert_eq!(idx.base_tables().table((parent, true)).len(), 1);
        assert_eq!(idx.base_tables().total_rows(), 4);
        assert!(idx.base_tables().table((friend, false)).is_empty());
    }

    #[test]
    fn join_full_matches_ground_truth_reachability() {
        let (g, friend, colleague, _) = sample();
        let idx = forward_index(&g);
        let got = idx.join_full((friend, true), (colleague, true));
        // Ground truth: all (x, y) with x friend-labeled, y colleague-
        // labeled, x ⇝ y in L(G).
        let mut expect = Vec::new();
        for &x in idx.base_tables().table((friend, true)) {
            for &y in idx.base_tables().table((colleague, true)) {
                let reach = socialreach_graph::algo::bfs_reachable(idx.line().graph(), x)
                    .contains(y as usize);
                if reach {
                    expect.push((x, y));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(!got.is_empty(), "friend A->B reaches colleague B->C");
    }

    #[test]
    fn wtable_routes_only_useful_centers() {
        let (g, friend, _, parent) = sample();
        let idx = forward_index(&g);
        // parent C->D cannot be continued by a friend edge (D has no
        // out-edges), so W(parent, friend) must be empty and so is the
        // join.
        assert!(idx
            .wtable()
            .centers((parent, true), (friend, true))
            .is_empty());
        assert!(idx.join_full((parent, true), (friend, true)).is_empty());
    }

    #[test]
    fn wtable_and_scan_successors_agree() {
        let (g, friend, colleague, parent) = sample();
        let idx = forward_index(&g);
        let keys = [(friend, true), (colleague, true), (parent, true)];
        for &xk in &keys {
            for &end in idx.base_tables().table(xk) {
                for &yk in &keys {
                    assert_eq!(
                        idx.successors_via_wtable(end, xk, yk),
                        idx.successors_via_scan(end, yk),
                        "strategy mismatch at end={end}, x={xk:?}, y={yk:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn augmented_index_supports_backward_joins() {
        let (g, friend, _, _) = sample();
        let idx = JoinIndex::build(&g, &JoinIndexConfig::default());
        // friend' B->A (backward) continued by friend A->C (forward):
        // realizes Bob -friend⁻-> Alice -friend-> Carol.
        let got = idx.join_full((friend, false), (friend, true));
        assert!(!got.is_empty());
        // Verify one tuple is the expected pair of oriented endpoints.
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let witness = got.iter().any(|&(x, y)| {
            idx.line().node(x).from == bob
                && idx.line().node(y).to == carol
                && idx.line().adjacent(x, y)
        });
        assert!(witness, "expected Bob->Alice->Carol candidate, got {got:?}");
    }

    #[test]
    fn join_candidates_are_a_superset_of_adjacent_pairs() {
        // §3.3: the reachability join yields candidates; §3.4 filters by
        // adjacency. Every truly adjacent (x, y) pair must be among the
        // candidates.
        let (g, friend, colleague, parent) = sample();
        let idx = forward_index(&g);
        for &xk in &[(friend, true), (colleague, true), (parent, true)] {
            for &yk in &[(friend, true), (colleague, true), (parent, true)] {
                let joined = idx.join_full(xk, yk);
                for &x in idx.base_tables().table(xk) {
                    for &y in idx.base_tables().table(yk) {
                        if idx.line().adjacent(x, y) {
                            assert!(
                                joined.contains(&(x, y)),
                                "adjacent pair ({x},{y}) missing from join {xk:?}x{yk:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn index_bytes_accounts_for_components() {
        let (g, ..) = sample();
        let idx = forward_index(&g);
        assert!(idx.index_bytes() > 0);
    }

    #[test]
    fn large_graph_falls_back_to_pruned_labeling() {
        use crate::twohop::TwoHopConstruction;
        let mut g = SocialGraph::new();
        let f = g.intern_label("friend");
        let nodes: Vec<NodeId> = (0..600).map(|i| g.add_node(&format!("u{i}"))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], f);
        }
        let idx = JoinIndex::build(
            &g,
            &JoinIndexConfig {
                augment_reverse: false,
                greedy_cover_max_comps: 16,
                virtual_root: None,
            },
        );
        assert_eq!(idx.labeling().construction(), TwoHopConstruction::Pruned);
        // Sanity: a long chain joins with itself.
        assert!(!idx.join_full((f, true), (f, true)).is_empty());
    }

    #[test]
    fn neighbors_direction_sanity_for_augmented_walks() {
        // The augmented line graph realizes exactly the Both-direction
        // neighborhood of the social graph.
        let (g, friend, _, _) = sample();
        let idx = JoinIndex::build(&g, &JoinIndexConfig::default());
        let alice = g.node_by_name("Alice").unwrap();
        let mut via_line: Vec<NodeId> = idx
            .line()
            .leaving(alice)
            .iter()
            .filter(|&&x| idx.line().node(x).label == Some(friend))
            .map(|&x| idx.line().node(x).to)
            .collect();
        via_line.sort_unstable();
        let mut via_graph: Vec<NodeId> = g.neighbors(alice, friend, Direction::Both).collect();
        via_graph.sort_unstable();
        assert_eq!(via_line, via_graph);
    }
}
