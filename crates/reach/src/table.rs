//! The reachability table of Figure 5: for every line vertex, its
//! postorder number and interval set in `G1 = cond(L(G))` (descendant
//! direction, `po↓ / I↓`) and in `G2 = reverse(G1)` (ancestor direction,
//! `po↑ / I↑`).
//!
//! Exact digits depend on tie-breaking the paper leaves unspecified
//! (which SCC representative, sibling visit order), so the artifact is
//! validated by the labeling's containment property against ground-truth
//! BFS, not digit-for-digit.

use crate::interval::IntervalLabeling;
use crate::line::LineGraph;
use socialreach_graph::algo::tarjan_scc;
use socialreach_graph::SocialGraph;
use std::fmt;

/// One row of the Figure 5 table.
#[derive(Clone, Debug)]
pub struct ReachRow {
    /// Line-vertex index (`w` column).
    pub idx: u32,
    /// Paper-style vertex name (`friend A-C`, `Null A`, …).
    pub name: String,
    /// Postorder number in the descendant labeling.
    pub po_down: u32,
    /// Interval set in the descendant labeling.
    pub down: Vec<(u32, u32)>,
    /// Postorder number in the ancestor labeling.
    pub po_up: u32,
    /// Interval set in the ancestor labeling.
    pub up: Vec<(u32, u32)>,
}

/// The Figure 5 artifact: interval labels of the line graph in both
/// directions.
#[derive(Clone, Debug)]
pub struct ReachabilityTable {
    rows: Vec<ReachRow>,
    down: IntervalLabeling,
    up: IntervalLabeling,
}

impl ReachabilityTable {
    /// Labels `cond(L(G))` and its reverse, then lists every line vertex
    /// with the labels of its component.
    pub fn build(g: &SocialGraph, line: &LineGraph) -> Self {
        let lg = line.graph();
        let down_cond = tarjan_scc(lg).condense(lg);
        let down = IntervalLabeling::build_on_condensation(&down_cond);
        let rev = lg.reversed();
        let up = IntervalLabeling::build(&rev);

        let rows = (0..line.num_nodes() as u32)
            .map(|i| {
                let cd = down.comp_of(i);
                let cu = up.comp_of(i);
                ReachRow {
                    idx: i,
                    name: line.display_name(g, i),
                    po_down: down.postorder(cd),
                    down: down.intervals(cd).to_vec(),
                    po_up: up.postorder(cu),
                    up: up.intervals(cu).to_vec(),
                }
            })
            .collect();

        ReachabilityTable { rows, down, up }
    }

    /// Table rows in line-vertex order.
    pub fn rows(&self) -> &[ReachRow] {
        &self.rows
    }

    /// `a ⇝ b` per the descendant labeling (used by the artifact's
    /// self-check).
    pub fn reaches_down(&self, a: u32, b: u32) -> bool {
        self.down
            .reaches_comp(self.down.comp_of(a), self.down.comp_of(b))
    }

    /// `a` is an ancestor of `b` per the ancestor labeling — i.e.
    /// `b ⇝ a` in `L(G)`.
    pub fn reaches_up(&self, a: u32, b: u32) -> bool {
        self.up.reaches_comp(self.up.comp_of(a), self.up.comp_of(b))
    }
}

fn fmt_intervals(ivs: &[(u32, u32)]) -> String {
    ivs.iter()
        .map(|(lo, hi)| format!("[{lo},{hi}]"))
        .collect::<Vec<_>>()
        .join(";")
}

impl fmt::Display for ReachabilityTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max("node".len());
        let down_w = self
            .rows
            .iter()
            .map(|r| fmt_intervals(&r.down).len())
            .max()
            .unwrap_or(4)
            .max("I v".len());
        let (w_h, node_h, pod_h, id_h, pou_h, iu_h) = ("w", "node", "po v", "I v", "po ^", "I ^");
        writeln!(
            f,
            "{w_h:>3}  {node_h:<name_w$}  {pod_h:>4}  {id_h:<down_w$}  {pou_h:>4}  {iu_h}"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>3}  {:<name_w$}  {:>4}  {:<down_w$}  {:>4}  {}",
                r.idx,
                r.name,
                r.po_down,
                fmt_intervals(&r.down),
                r.po_up,
                fmt_intervals(&r.up)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineGraphConfig;
    use socialreach_graph::algo::bfs_reachable;

    fn sample() -> (SocialGraph, LineGraph) {
        let mut g = SocialGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let friend = g.intern_label("friend");
        let colleague = g.intern_label("colleague");
        g.add_edge(a, b, friend);
        g.add_edge(b, c, colleague);
        g.add_edge(a, c, friend);
        let line = LineGraph::build(
            &g,
            &LineGraphConfig {
                augment_reverse: false,
                virtual_root: Some(a),
            },
        );
        (g, line)
    }

    #[test]
    fn table_has_one_row_per_line_vertex() {
        let (g, line) = sample();
        let t = ReachabilityTable::build(&g, &line);
        assert_eq!(t.rows().len(), line.num_nodes());
        assert!(t.rows().iter().any(|r| r.name == "Null A"));
    }

    #[test]
    fn labels_match_bfs_in_both_directions() {
        let (g, line) = sample();
        let t = ReachabilityTable::build(&g, &line);
        let lg = line.graph();
        for a in 0..lg.num_nodes() as u32 {
            let reach = bfs_reachable(lg, a);
            for b in 0..lg.num_nodes() as u32 {
                assert_eq!(
                    t.reaches_down(a, b),
                    reach.contains(b as usize),
                    "down mismatch at ({a},{b})"
                );
            }
        }
        let rev = lg.reversed();
        for a in 0..rev.num_nodes() as u32 {
            let reach = bfs_reachable(&rev, a);
            for b in 0..rev.num_nodes() as u32 {
                assert_eq!(
                    t.reaches_up(a, b),
                    reach.contains(b as usize),
                    "up mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn display_renders_header_and_rows() {
        let (g, line) = sample();
        let rendered = ReachabilityTable::build(&g, &line).to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 1 + line.num_nodes());
        assert!(lines[0].contains("po v"));
        assert!(rendered.contains("friend A-B"));
    }
}
