//! Label-partitioned CSR snapshots of a [`SocialGraph`].
//!
//! The online enforcement engine spends nearly all of its time expanding
//! `(member, label, direction)` neighborhoods. The mutable
//! [`SocialGraph`] stores adjacency as one `Vec<EdgeId>` per node in
//! insertion order, so every label-constrained step scans **all**
//! `deg(v)` incident edges and filters — `O(deg)` work and two pointer
//! chases per edge for `O(deg_label)` useful output.
//!
//! [`CsrSnapshot`] is the immutable, cache-friendly alternative
//! (pruned-landmark systems and production relationship-policy engines
//! use the same layout): the edge occurrences of one direction live in
//! two parallel arrays (`neighbor`, `edge id`), sorted by
//! `(node, label, edge id)`, with a per-node run table locating each
//! label's contiguous slice. A label-constrained expansion is then a
//! binary search over the node's (few) label runs followed by a linear
//! scan of exactly the matching edges.
//!
//! # Pages
//!
//! Each direction index is split into **pages** of `PAGE_NODES` (256)
//! consecutive members; the last page may be partial. A page holds
//! those arrays for its members only, with page-local offsets, and a
//! direction index is a `Vec<Arc<Page>>`. An expansion of `v` looks up
//! page `v / PAGE_NODES` and then reads a plain CSR: one extra pointer
//! hop, and [`Neighbors`] is still two contiguous slices.
//!
//! A page is built once and **never mutated**. That is what lets
//! successive snapshots share it: a snapshot of a grown graph reuses,
//! by `Arc::clone`, every page the growth did not touch, and a reader
//! still holding the previous `Arc<CsrSnapshot>` keeps reading exactly
//! the pages it pinned.
//!
//! # Lifecycle: build, patch, publish
//!
//! Snapshots are tied to the graph's mutation [`generation`]
//! (`SocialGraph::generation`). One page builder serves both refresh
//! paths:
//!
//! * [`CsrSnapshot::build`] — full (re)index: edge ids are bucketed by
//!   page, then up to `threads` workers claim pages from one queue
//!   covering both directions ([`CsrSnapshot::build_with_threads`] pins
//!   the worker count). A page's bucket is freed as soon as its page
//!   is built, so the build never holds a flat copy of the index
//!   beside the pages.
//! * [`CsrSnapshot::apply_edge_appends`] — **copy-on-write patch**: when
//!   the graph has only grown (the only topology mutations
//!   [`SocialGraph`] offers are node/edge appends), a page is rebuilt
//!   from its old edge ids plus the appended ones only if appended edges
//!   or new members land on it; every other page is shared. One appended
//!   edge costs one page per direction plus `|V| / PAGE_NODES` pointer
//!   copies, instead of rewriting both `O(|V| + |E|)` indexes.
//! * [`CsrSnapshot::matches`] — O(1) currency check used by the
//!   publication layers in `socialreach-core`, which hold one
//!   `Arc<CsrSnapshot>` per epoch and republish (patched or rebuilt)
//!   after mutations.
//!
//! [`generation`]: CsrSnapshot::generation

use crate::graph::SocialGraph;
use crate::ids::{EdgeId, LabelId};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Members per page. A power of two, so a member's page and slot are a
/// shift and a mask. 256 keeps the rebuild behind one appended edge
/// small (1024 measured slower on `churn_durable`) for one extra pointer
/// hop per expansion.
const PAGE_NODES: usize = 256;

/// `log2(PAGE_NODES)`.
const PAGE_SHIFT: u32 = PAGE_NODES.trailing_zeros();

// The page builder packs a page-local slot into the top 16 bits of its
// sort key.
const _: () = assert!(PAGE_NODES.is_power_of_two() && PAGE_NODES <= 1 << 16);

/// Below this many edges a snapshot builds on the calling thread: thread
/// spawn overhead would dominate.
const PARALLEL_MIN_EDGES: usize = 1 << 13;

/// One contiguous run of same-label edge occurrences of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LabelRun {
    /// Interned label of every occurrence in the run.
    label: u16,
    /// Start offset into the page's arrays.
    start: u32,
    /// One past the last offset.
    end: u32,
}

/// Which endpoint of an edge buckets it in a direction index.
#[derive(Clone, Copy, Debug)]
enum Side {
    /// Bucket by `src`, store `dst` (outgoing adjacency).
    Out,
    /// Bucket by `dst`, store `src` (incoming adjacency).
    In,
}

/// One edge occurrence as the page builder takes it: a key packing
/// `(slot, label, edge id)`, so ordering never goes back to the graph,
/// and the stored neighbor.
type Occurrence = (u64, u32);

/// Packs an occurrence of edge `e` at page slot `slot`.
#[inline]
fn pack(slot: usize, label: u16, e: u32, nbr: u32) -> Occurrence {
    (
        ((slot as u64) << 48) | (u64::from(label) << 32) | u64::from(e),
        nbr,
    )
}

impl Side {
    /// The member whose adjacency edge `e` belongs to.
    #[inline]
    fn key(self, g: &SocialGraph, e: u32) -> usize {
        let rec = g.edge(EdgeId(e));
        match self {
            Side::Out => rec.src.index(),
            Side::In => rec.dst.index(),
        }
    }

    /// Edge `e` as an occurrence on the page of its `key` member.
    #[inline]
    fn occurrence(self, g: &SocialGraph, e: u32) -> Occurrence {
        let rec = g.edge(EdgeId(e));
        let (v, nbr) = match self {
            Side::Out => (rec.src.index(), rec.dst.0),
            Side::In => (rec.dst.index(), rec.src.0),
        };
        pack(v & (PAGE_NODES - 1), rec.label.0, e, nbr)
    }
}

/// Number of members on page `p` of a graph with `n` members.
fn page_len(n: usize, p: usize) -> usize {
    (n - (p << PAGE_SHIFT)).min(PAGE_NODES)
}

/// The ids of edges `edges`, bucketed by the page of their `side`
/// endpoint over `pages` pages, ascending within each bucket. Every
/// bucket is allocated at its exact size.
fn bucket_by_page(g: &SocialGraph, side: Side, pages: usize, edges: Range<usize>) -> Vec<Vec<u32>> {
    let page_of = |e: usize| side.key(g, e as u32) >> PAGE_SHIFT;
    let mut counts = vec![0usize; pages];
    for e in edges.clone() {
        counts[page_of(e)] += 1;
    }
    let mut buckets: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for e in edges {
        buckets[page_of(e)].push(e as u32);
    }
    buckets
}

/// The adjacency of one page of members in one direction. Every offset
/// is page-local: slot `s` is member `page · PAGE_NODES + s`.
#[derive(Debug, PartialEq, Eq)]
struct Page {
    /// `node_offsets[s]..node_offsets[s+1]` spans slot `s`'s occurrences
    /// (all labels, label-sorted).
    node_offsets: Vec<u32>,
    /// `run_offsets[s]..run_offsets[s+1]` spans slot `s`'s label runs.
    run_offsets: Vec<u32>,
    /// Label runs, per slot, ascending by label.
    runs: Vec<LabelRun>,
    /// Neighbor member ids (`dst` for out, `src` for in).
    neighbor: Vec<u32>,
    /// Parallel underlying edge ids.
    edge: Vec<u32>,
}

/// A label-constrained neighborhood: parallel slices of neighbor member
/// ids and the edge ids that witness them, in ascending edge-id order.
#[derive(Clone, Copy, Debug)]
pub struct Neighbors<'a> {
    /// Neighbor member ids.
    pub nodes: &'a [u32],
    /// Witnessing edge ids, parallel to `nodes`.
    pub edges: &'a [u32],
}

impl Neighbors<'_> {
    /// Number of matching edge occurrences.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no edge matches.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(neighbor, edge id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nodes.iter().copied().zip(self.edges.iter().copied())
    }
}

impl Page {
    /// The one page builder, shared by the full build and the patch:
    /// indexes a page of `slots` members from the occurrences of exactly
    /// the edges that belong on it, in any order. A counting scatter by
    /// slot, then a stable sort of each slot's segment by
    /// `(label, edge id)` — linear for a segment that was already sorted
    /// apart from a few appended occurrences at its tail.
    fn build(slots: usize, occurrences: Vec<Occurrence>) -> Page {
        let slot_of = |o: &Occurrence| (o.0 >> 48) as usize;
        let mut node_offsets = vec![0u32; slots + 1];
        for o in &occurrences {
            node_offsets[slot_of(o) + 1] += 1;
        }
        for s in 0..slots {
            node_offsets[s + 1] += node_offsets[s];
        }
        let mut sorted: Vec<Occurrence> = vec![(0, 0); occurrences.len()];
        let mut cursor = node_offsets[..slots].to_vec();
        for o in occurrences {
            let s = slot_of(&o);
            sorted[cursor[s] as usize] = o;
            cursor[s] += 1;
        }

        for s in 0..slots {
            let (lo, hi) = (node_offsets[s] as usize, node_offsets[s + 1] as usize);
            sorted[lo..hi].sort_by_key(|&(key, _)| key);
        }

        // A label run starts wherever `(slot, label)`, the key above the
        // edge id, changes. The runs are counted first so their array is
        // allocated once at its exact size: a page is rebuilt on every
        // write, and growth slack or a shrinking realloc there fragments
        // the heap.
        let group = |i: usize| sorted[i].0 >> 32;
        let starts = || (0..sorted.len()).filter(|&i| i == 0 || group(i) != group(i - 1));
        let mut runs: Vec<LabelRun> = Vec::with_capacity(starts().count());
        let mut run_offsets = vec![0u32; slots + 1];
        for i in starts() {
            if let Some(prev) = runs.last_mut() {
                prev.end = i as u32;
            }
            run_offsets[(group(i) >> 16) as usize + 1] += 1;
            runs.push(LabelRun {
                label: group(i) as u16,
                start: i as u32,
                end: sorted.len() as u32,
            });
        }
        for s in 0..slots {
            run_offsets[s + 1] += run_offsets[s];
        }
        Page {
            node_offsets,
            run_offsets,
            runs,
            neighbor: sorted.iter().map(|&(_, nbr)| nbr).collect(),
            edge: sorted.iter().map(|&(key, _)| key as u32).collect(),
        }
    }

    /// This page's occurrences in key order, read back from its own
    /// arrays, with room for `extra` more.
    fn occurrences(&self, extra: usize) -> Vec<Occurrence> {
        let mut out = Vec::with_capacity(self.edge.len() + extra);
        for s in 0..self.slots() {
            let runs = &self.runs[self.run_offsets[s] as usize..self.run_offsets[s + 1] as usize];
            for run in runs {
                for i in run.start as usize..run.end as usize {
                    out.push(pack(s, run.label, self.edge[i], self.neighbor[i]));
                }
            }
        }
        out
    }

    /// Members on this page.
    fn slots(&self) -> usize {
        self.node_offsets.len() - 1
    }

    #[inline]
    fn label_slice(&self, slot: usize, label: LabelId) -> Neighbors<'_> {
        let runs = &self.runs[self.run_offsets[slot] as usize..self.run_offsets[slot + 1] as usize];
        // Nodes touch a handful of labels; runs are sorted by label, so
        // binary search — and for the tiny common case the linear probe
        // inside `binary_search_by` is already optimal.
        match runs.binary_search_by(|r| r.label.cmp(&label.0)) {
            Ok(i) => {
                let r = runs[i];
                Neighbors {
                    nodes: &self.neighbor[r.start as usize..r.end as usize],
                    edges: &self.edge[r.start as usize..r.end as usize],
                }
            }
            Err(_) => Neighbors {
                nodes: &[],
                edges: &[],
            },
        }
    }

    #[inline]
    fn all_slice(&self, slot: usize) -> Neighbors<'_> {
        let (lo, hi) = (
            self.node_offsets[slot] as usize,
            self.node_offsets[slot + 1] as usize,
        );
        Neighbors {
            nodes: &self.neighbor[lo..hi],
            edges: &self.edge[lo..hi],
        }
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Page>()
            + (self.node_offsets.len() + self.run_offsets.len()) * 4
            + self.runs.len() * std::mem::size_of::<LabelRun>()
            + (self.neighbor.len() + self.edge.len()) * 4
    }
}

/// Page `p` of `side` from `ids`, its bucket of edge ids.
fn bucket_page(g: &SocialGraph, side: Side, p: usize, ids: Vec<u32>) -> Page {
    let occurrences = ids.iter().map(|&e| side.occurrence(g, e)).collect();
    drop(ids);
    Page::build(page_len(g.num_nodes(), p), occurrences)
}

/// Builds every page of `jobs` — `(side, page, edge ids)` — in job
/// order, with up to `workers` threads (the calling thread among them)
/// claiming pages from one queue. Claiming page by page, rather than
/// splitting the pages into fixed chunks, keeps a hub's page from
/// serializing anything but itself.
fn build_pages(
    g: &SocialGraph,
    jobs: Vec<(Side, usize, Vec<u32>)>,
    workers: usize,
) -> Vec<Arc<Page>> {
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let claim = || {
        let mut built = Vec::new();
        loop {
            // The guard drops at the end of this statement: building
            // runs unlocked.
            let job = queue.lock().expect("page queue poisoned").next();
            let Some((i, (side, p, ids))) = job else {
                return built;
            };
            built.push((i, bucket_page(g, side, p, ids)));
        }
    };
    let mut built: Vec<(usize, Page)> = std::thread::scope(|scope| {
        let claim = &claim;
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut built = claim();
        for h in helpers {
            built.extend(h.join().expect("page builder panicked"));
        }
        built
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, page)| Arc::new(page)).collect()
}

/// Paged adjacency of one direction (out or in).
#[derive(Clone, Debug, PartialEq, Eq)]
struct DirIndex {
    /// Page `p` covers members `p · PAGE_NODES ..`.
    pages: Vec<Arc<Page>>,
}

impl DirIndex {
    /// This direction for `g`, which must extend the indexed graph by
    /// appends only (edge ids `old_m..` are new). A page is rebuilt from
    /// its old occurrences plus its appended ones when appended edges or
    /// new members land on it, and shared otherwise.
    fn apply_appends(&self, g: &SocialGraph, side: Side, old_m: usize) -> DirIndex {
        let n = g.num_nodes();
        let appended = bucket_by_page(g, side, n.div_ceil(PAGE_NODES), old_m..g.num_edges());
        let pages = appended
            .into_iter()
            .enumerate()
            .map(|(p, added)| match self.pages.get(p) {
                Some(page) if added.is_empty() && page.slots() == page_len(n, p) => {
                    Arc::clone(page)
                }
                old => {
                    let mut occurrences = old.map_or_else(
                        || Vec::with_capacity(added.len()),
                        |page| page.occurrences(added.len()),
                    );
                    occurrences.extend(added.iter().map(|&e| side.occurrence(g, e)));
                    Arc::new(Page::build(page_len(n, p), occurrences))
                }
            })
            .collect();
        DirIndex { pages }
    }

    #[inline]
    fn page(&self, v: u32) -> (&Page, usize) {
        let v = v as usize;
        (&self.pages[v >> PAGE_SHIFT], v & (PAGE_NODES - 1))
    }

    #[inline]
    fn label_slice(&self, v: u32, label: LabelId) -> Neighbors<'_> {
        let (page, slot) = self.page(v);
        page.label_slice(slot, label)
    }

    #[inline]
    fn all_slice(&self, v: u32) -> Neighbors<'_> {
        let (page, slot) = self.page(v);
        page.all_slice(slot)
    }

    fn heap_bytes(&self) -> usize {
        self.pages.len() * std::mem::size_of::<Arc<Page>>()
            + self.pages.iter().map(|p| p.heap_bytes()).sum::<usize>()
    }
}

/// Immutable label-partitioned CSR adjacency snapshot (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrSnapshot {
    generation: u64,
    num_nodes: u32,
    num_edges: u32,
    out: DirIndex,
    inn: DirIndex,
}

impl CsrSnapshot {
    /// Builds a snapshot of the graph's current topology, using up to
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// worker threads, **capped at 8** — the build is memory-bound, so
    /// wider fan-out mostly adds spawn overhead; pass a bigger budget
    /// explicitly through [`CsrSnapshot::build_with_threads`] to probe
    /// beyond the cap. `O(|V| + |E| log(page edges))` total work, with
    /// the pages of both directions fanned across the workers.
    pub fn build(g: &SocialGraph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self::build_with_threads(g, threads)
    }

    /// [`CsrSnapshot::build`] with an explicit worker-thread budget.
    /// `threads <= 1` (or a graph below the parallel threshold) builds
    /// entirely on the calling thread — the configuration benchmarked
    /// as the single-threaded baseline.
    pub fn build_with_threads(g: &SocialGraph, threads: usize) -> Self {
        let pages = g.num_nodes().div_ceil(PAGE_NODES);
        let workers = if g.num_edges() < PARALLEL_MIN_EDGES {
            1
        } else {
            threads.max(1)
        };
        let jobs = [Side::Out, Side::In]
            .into_iter()
            .flat_map(|side| {
                bucket_by_page(g, side, pages, 0..g.num_edges())
                    .into_iter()
                    .enumerate()
                    .map(move |(p, ids)| (side, p, ids))
            })
            .collect();
        let mut out = build_pages(g, jobs, workers);
        let inn = out.split_off(pages);
        CsrSnapshot {
            generation: g.topology_generation(),
            num_nodes: g.num_nodes() as u32,
            num_edges: g.num_edges() as u32,
            out: DirIndex { pages: out },
            inn: DirIndex { pages: inn },
        }
    }

    /// Patches this snapshot to cover `g` **incrementally**, copy on
    /// write: every page that no appended edge or member lands on is
    /// shared with `self`, and each touched page is rebuilt from its
    /// old edge ids plus its appended ones. One appended edge costs one
    /// page rebuild per direction (`O(page edges · log)`) plus
    /// `O(|V| / PAGE_NODES)` pointer copies; `self` is left untouched,
    /// so readers still holding it are unaffected.
    ///
    /// # Precondition (caller-guaranteed lineage)
    ///
    /// `g` must be the **same graph** this snapshot was built from,
    /// advanced only by `add_node` / `add_edge` appends — which are the
    /// only topology mutations [`SocialGraph`] offers, so any owner
    /// that routes every mutation (e.g. `AccessControlSystem`) can
    /// guarantee this. Generations are process-unique random-ish
    /// stamps, so lineage cannot be verified here; what *can* be
    /// checked is checked: `None` is returned when `g` has fewer nodes
    /// or edges than the snapshot. Callers receiving `None` must
    /// rebuild.
    pub fn apply_edge_appends(&self, g: &SocialGraph) -> Option<CsrSnapshot> {
        let (old_n, old_m) = (self.num_nodes as usize, self.num_edges as usize);
        if g.num_nodes() < old_n || g.num_edges() < old_m {
            return None;
        }
        if g.num_nodes() == old_n && g.num_edges() == old_m {
            // Nothing appended (the generation still moved if nodes or
            // edges were added elsewhere in the lineage — impossible
            // under the precondition). Re-stamp only.
            let mut same = self.clone();
            same.generation = g.topology_generation();
            return Some(same);
        }
        Some(CsrSnapshot {
            generation: g.topology_generation(),
            num_nodes: g.num_nodes() as u32,
            num_edges: g.num_edges() as u32,
            out: self.out.apply_appends(g, Side::Out, old_m),
            inn: self.inn.apply_appends(g, Side::In, old_m),
        })
    }

    /// The graph **topology** generation this snapshot was built at
    /// (attribute writes advance only the overall generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when the snapshot is current for `g` — same topology
    /// generation (and, defensively, same node/edge counts). Attribute
    /// writes do **not**
    /// stale a snapshot: it stores no attributes, and condition
    /// evaluation reads them live from the graph.
    pub fn matches(&self, g: &SocialGraph) -> bool {
        self.generation == g.topology_generation()
            && self.num_nodes as usize == g.num_nodes()
            && self.num_edges as usize == g.num_edges()
    }

    /// Number of members at snapshot time.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of relationship instances at snapshot time.
    pub fn num_edges(&self) -> usize {
        self.num_edges as usize
    }

    /// `label`-edges leaving `v` (`v --label--> x`).
    #[inline]
    pub fn out_neighbors(&self, v: u32, label: LabelId) -> Neighbors<'_> {
        self.out.label_slice(v, label)
    }

    /// `label`-edges entering `v` (`x --label--> v`).
    #[inline]
    pub fn in_neighbors(&self, v: u32, label: LabelId) -> Neighbors<'_> {
        self.inn.label_slice(v, label)
    }

    /// All edges leaving `v`, label-sorted.
    #[inline]
    pub fn out_all(&self, v: u32) -> Neighbors<'_> {
        self.out.all_slice(v)
    }

    /// All edges entering `v`, label-sorted.
    #[inline]
    pub fn in_all(&self, v: u32) -> Neighbors<'_> {
        self.inn.all_slice(v)
    }

    /// Heap bytes reachable from this snapshot (for index-size
    /// reporting); pages shared with other epochs count in each.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inn.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;
    use crate::ids::NodeId;

    fn snap_of(g: &SocialGraph) -> CsrSnapshot {
        CsrSnapshot::build(g)
    }

    /// Cross-check a snapshot slice against the mutable graph's
    /// filtered adjacency (order-insensitive on the graph side; the
    /// snapshot must be ascending by edge id).
    fn assert_slices_agree(g: &SocialGraph, snap: &CsrSnapshot) {
        for v in 0..g.num_nodes() as u32 {
            for (label, _) in g.vocab().labels() {
                let out = snap.out_neighbors(v, label);
                let mut expect: Vec<(u32, u32)> = g
                    .out_edges(NodeId(v))
                    .filter(|(_, r)| r.label == label)
                    .map(|(e, r)| (r.dst.0, e.0))
                    .collect();
                expect.sort_by_key(|&(_, e)| e);
                assert_eq!(
                    out.iter().collect::<Vec<_>>(),
                    expect,
                    "out v={v} {label:?}"
                );
                assert!(out.edges.windows(2).all(|w| w[0] < w[1]));

                let inn = snap.in_neighbors(v, label);
                let mut expect: Vec<(u32, u32)> = g
                    .in_edges(NodeId(v))
                    .filter(|(_, r)| r.label == label)
                    .map(|(e, r)| (r.src.0, e.0))
                    .collect();
                expect.sort_by_key(|&(_, e)| e);
                assert_eq!(inn.iter().collect::<Vec<_>>(), expect, "in v={v} {label:?}");
            }
            // The all-labels slice covers exactly the node's degree.
            assert_eq!(snap.out_all(v).len(), g.out_degree(NodeId(v)));
            assert_eq!(snap.in_all(v).len(), g.in_degree(NodeId(v)));
        }
    }

    /// Deterministic pseudo-random multigraph with `n` members and
    /// `edges` relationship instances over three labels.
    fn random_graph(n: u32, edges: usize, seed: u64) -> SocialGraph {
        let mut g = SocialGraph::new();
        for i in 0..n {
            g.add_node(&format!("u{i}"));
        }
        let labels = [
            g.intern_label("a"),
            g.intern_label("b"),
            g.intern_label("c"),
        ];
        let mut x = seed;
        for _ in 0..edges {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = ((x >> 16) % n as u64) as u32;
            let t = ((x >> 40) % n as u64) as u32;
            let l = labels[((x >> 8) % 3) as usize];
            g.add_edge(NodeId(s), NodeId(t), l);
        }
        g
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = SocialGraph::new();
        let s = snap_of(&g);
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.num_edges(), 0);
        assert!(s.matches(&g));
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let mut g = SocialGraph::new();
        g.add_node("a");
        g.add_node("b");
        let f = g.intern_label("friend");
        let s = snap_of(&g);
        assert!(s.out_neighbors(0, f).is_empty());
        assert!(s.in_neighbors(1, f).is_empty());
        assert!(s.out_all(0).is_empty());
    }

    #[test]
    fn unknown_label_yields_empty_slice() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.connect(a, "friend", b);
        let ghost = LabelId(7); // never interned on any edge
        let s = snap_of(&g);
        assert!(s.out_neighbors(a.0, ghost).is_empty());
    }

    #[test]
    fn label_runs_partition_multi_label_nodes() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        // Interleave labels so runs must be carved out of mixed input.
        g.connect(a, "friend", b);
        g.connect(a, "colleague", c);
        g.connect(a, "friend", c);
        g.connect(a, "colleague", b);
        let s = snap_of(&g);
        assert_slices_agree(&g, &s);
        let friend = g.vocab().label("friend").unwrap();
        let out = s.out_neighbors(a.0, friend);
        assert_eq!(out.nodes, &[b.0, c.0]);
        assert_eq!(out.edges, &[0, 2], "edge-id order within the run");
    }

    #[test]
    fn multi_edges_appear_once_per_instance() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let f = g.intern_label("friend");
        g.add_edge(a, b, f);
        g.add_edge(a, b, f);
        let s = snap_of(&g);
        assert_eq!(s.out_neighbors(a.0, f).nodes, &[b.0, b.0]);
        assert_eq!(s.in_neighbors(b.0, f).len(), 2);
        assert_slices_agree(&g, &s);
    }

    #[test]
    fn self_loops_occur_in_both_directions() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let f = g.intern_label("friend");
        g.add_edge(a, a, f);
        let s = snap_of(&g);
        assert_eq!(s.out_neighbors(a.0, f).nodes, &[a.0]);
        assert_eq!(s.in_neighbors(a.0, f).nodes, &[a.0]);
        assert_slices_agree(&g, &s);
    }

    #[test]
    fn snapshot_matches_until_mutation() {
        let mut g = SocialGraph::new();
        let a = g.add_node("a");
        let s = snap_of(&g);
        assert!(s.matches(&g));
        let b = g.add_node("b");
        assert!(!s.matches(&g), "add_node invalidates");
        let s = snap_of(&g);
        g.connect(a, "friend", b);
        assert!(!s.matches(&g), "add_edge invalidates");
        let s = snap_of(&g);
        g.set_node_attr(a, "age", 9i64);
        assert!(
            s.matches(&g),
            "attribute writes keep the snapshot current (it stores no attributes)"
        );
    }

    #[test]
    fn dense_random_graph_agrees_with_filtered_adjacency() {
        let g = random_graph(23, 200, 12345);
        let snap = snap_of(&g);
        assert_slices_agree(&g, &snap);
        assert!(snap.heap_bytes() > 0);
        // Spot-check against the Direction-based neighbor iterator.
        let v = NodeId(3);
        let label = g.vocab().label("a").unwrap();
        let both: Vec<u32> = snap
            .out_neighbors(3, label)
            .nodes
            .iter()
            .chain(snap.in_neighbors(3, label).nodes)
            .copied()
            .collect();
        let mut expect: Vec<u32> = g
            .neighbors(v, label, Direction::Both)
            .map(|n| n.0)
            .collect();
        let mut both_sorted = both;
        both_sorted.sort_unstable();
        expect.sort_unstable();
        assert_eq!(both_sorted, expect);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        // Above the parallel threshold so the fan-out actually engages.
        let g = random_graph(257, (PARALLEL_MIN_EDGES) + 1017, 777);
        let seq = CsrSnapshot::build_with_threads(&g, 1);
        for threads in [2, 3, 4, 8] {
            let par = CsrSnapshot::build_with_threads(&g, threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
        assert_slices_agree(&g, &seq);
    }

    #[test]
    fn apply_edge_appends_matches_rebuild() {
        let mut g = random_graph(41, 160, 99);
        let base = snap_of(&g);
        // Append interleaved-label edges, a new label, and new members.
        let d = g.intern_label("d");
        let n0 = g.num_nodes() as u32;
        let x = g.add_node("x");
        let y = g.add_node("y");
        let a_label = g.vocab().label("a").unwrap();
        g.add_edge(NodeId(0), x, d);
        g.add_edge(x, y, a_label);
        g.add_edge(NodeId(5), NodeId(5), d); // self-loop append
        for i in 0..40u32 {
            g.add_edge(NodeId(i % n0), NodeId((i * 7) % n0), a_label);
        }
        let patched = base.apply_edge_appends(&g).expect("append-only lineage");
        let rebuilt = snap_of(&g);
        assert_eq!(patched, rebuilt);
        assert!(patched.matches(&g));
        assert_slices_agree(&g, &patched);
    }

    #[test]
    fn apply_edge_appends_chains() {
        // patch ∘ patch must equal one rebuild at the end.
        let mut g = random_graph(19, 60, 4242);
        let mut snap = snap_of(&g);
        let b = g.vocab().label("b").unwrap();
        for round in 0..5u32 {
            let v = g.add_node(&format!("extra{round}"));
            for i in 0..7u32 {
                g.add_edge(NodeId((round * 3 + i) % 19), v, b);
            }
            snap = snap.apply_edge_appends(&g).expect("append-only lineage");
        }
        assert_eq!(snap, snap_of(&g));
    }

    #[test]
    fn apply_edge_appends_without_topology_change_restamps() {
        let mut g = random_graph(7, 20, 31);
        let base = snap_of(&g);
        g.set_node_attr(NodeId(0), "age", 9i64); // attrs only
        let same = base.apply_edge_appends(&g).expect("no shrink");
        assert!(same.matches(&g));
        assert_eq!(same, base, "topology unchanged ⇒ identical index");
    }

    #[test]
    fn apply_edge_appends_rejects_shrunk_graphs() {
        let big = random_graph(9, 30, 8);
        let small = random_graph(4, 5, 8);
        let snap = snap_of(&big);
        assert!(
            snap.apply_edge_appends(&small).is_none(),
            "fewer nodes/edges than the snapshot cannot be an append"
        );
    }

    #[test]
    fn apply_edge_appends_onto_empty_snapshot() {
        let mut g = SocialGraph::new();
        let base = snap_of(&g);
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.connect(a, "friend", b);
        g.connect(b, "friend", a);
        let patched = base.apply_edge_appends(&g).expect("pure appends");
        assert_eq!(patched, snap_of(&g));
        assert_slices_agree(&g, &patched);
    }

    /// Pages of `patched` that are not the very `Arc` of `base`'s page
    /// at the same index (a page `base` lacks counts as rebuilt).
    fn rebuilt_pages(base: &DirIndex, patched: &DirIndex) -> Vec<usize> {
        (0..patched.pages.len())
            .filter(|&p| {
                base.pages
                    .get(p)
                    .is_none_or(|old| !Arc::ptr_eq(old, &patched.pages[p]))
            })
            .collect()
    }

    #[test]
    fn a_one_edge_append_shares_every_untouched_page() {
        // Four and a half pages.
        let n = 4 * PAGE_NODES as u32 + PAGE_NODES as u32 / 2;
        let mut g = random_graph(n, 6 * n as usize, 2024);
        let base = snap_of(&g);
        assert_eq!(base.out.pages.len(), 5);
        let a = g.vocab().label("a").unwrap();
        // Source on page 0, target on page 3.
        g.add_edge(NodeId(7), NodeId(3 * PAGE_NODES as u32 + 1), a);
        let patched = base.apply_edge_appends(&g).expect("append-only lineage");
        assert_eq!(rebuilt_pages(&base.out, &patched.out), vec![0]);
        assert_eq!(rebuilt_pages(&base.inn, &patched.inn), vec![3]);
        assert_eq!(patched, snap_of(&g));
        assert_slices_agree(&g, &patched);
        // The base epoch still reads its own adjacency.
        assert_eq!(base.out_all(7).len() + 1, patched.out_all(7).len());
    }

    #[test]
    fn appending_a_member_touches_only_the_last_page() {
        // A partial last page gains a slot; a full one gets a new page
        // behind it.
        for n in [2 * PAGE_NODES as u32 + 9, 3 * PAGE_NODES as u32] {
            let mut g = random_graph(n, 5 * n as usize, u64::from(n));
            let base = snap_of(&g);
            g.add_node("newcomer");
            let patched = base.apply_edge_appends(&g).expect("append-only lineage");
            let last = patched.out.pages.len() - 1;
            assert_eq!(last, n as usize / PAGE_NODES, "n = {n}");
            assert_eq!(rebuilt_pages(&base.out, &patched.out), vec![last]);
            assert_eq!(rebuilt_pages(&base.inn, &patched.inn), vec![last]);
            assert_eq!(patched, snap_of(&g), "n = {n}");
            assert!(patched.out_all(n).is_empty() && patched.in_all(n).is_empty());
        }
    }
}
