//! Shared-prefix plan compiler: one trie over a bundle's conditions.
//!
//! A bundle of access conditions overwhelmingly shares *prefixes* even
//! when the full paths differ (`friend.friend` vs
//! `friend.friend.colleague` in a feed-shaped read). Sharing traversal
//! only between conditions whose path expressions are *identical*
//! misses that, so the batched evaluators share by prefix: each bundle
//! compiles into one
//! [`BundlePlan`] whose nodes are canonicalized [`Step`]s, conditions
//! that spell the same first k steps share the first k trie nodes, and
//! the masked multi-source BFS walks each shared node **once**,
//! forking its 64-bit condition masks only where the paths diverge.
//!
//! A condition *accepts* at the last node of its chain; interior nodes
//! both forward (ε-move to children) and accept when some shorter
//! condition ends there. Per 64-condition chunk, [`ChunkMasks`] gives
//! each node the set of condition bits whose chains pass through it
//! (`node_mask`, the ε-fork filter) and the bits that accept there
//! (`accept_mask`).
//!
//! Equivalence argument: every condition bit is masked into exactly
//! the trie chain of its own path — ε-forks intersect with
//! `node_mask[child]`, so a bit never enters a node outside its chain,
//! and within its chain the node sequence *is* the linear automaton of
//! its path. Per-bit reachability is therefore identical to running
//! the path's own automaton — the targeted engine's — state for state.

use crate::path::ast::{PathExpr, Step};
use std::ops::Range;

/// One node of the shared-prefix trie: a canonical step plus the trie
/// edges to the steps that may follow it in some condition.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// The canonicalized step this node matches.
    pub step: Step,
    /// Trie children (divergence points fork the condition masks).
    pub children: Vec<u16>,
}

/// Per-64-condition-chunk bit masks over a plan's nodes.
#[derive(Clone, Debug, Default)]
pub struct ChunkMasks {
    /// `node_mask[n]` — bits of the chunk's conditions whose chains
    /// pass through node `n`; the filter applied when ε-forking into
    /// `n`.
    pub node_mask: Vec<u64>,
    /// `accept_mask[n]` — bits whose condition accepts (reports the
    /// member into its audience) upon completing node `n`.
    pub accept_mask: Vec<u64>,
}

/// A compiled bundle: the trie plus each condition's chain through it.
#[derive(Clone, Debug)]
pub struct BundlePlan {
    /// Trie nodes; ids are indexes (they travel in the `step` slot of
    /// masked state keys, hence the `u16` budget).
    pub nodes: Vec<PlanNode>,
    /// Root nodes (distinct first steps across the bundle).
    pub roots: Vec<u16>,
    /// Per condition, the node ids along its path — `None` for the
    /// empty path (matches only the owner; never traversed).
    chains: Vec<Option<Vec<u16>>>,
}

impl BundlePlan {
    /// Compiles a bundle of condition paths into one shared-prefix
    /// trie. Steps are canonicalized before node lookup, so
    /// semantically identical steps share a node regardless of how
    /// they were written. Returns `None` if the bundle needs more than
    /// [`PathExpr::MAX_STEPS`] trie nodes — node ids travel in the
    /// `u16` step slot of masked state keys;
    /// [`BundlePlan::compile_all`] splits such a bundle into several
    /// plans.
    pub fn compile(paths: &[&PathExpr]) -> Option<BundlePlan> {
        let mut plan = BundlePlan {
            nodes: Vec::new(),
            roots: Vec::new(),
            chains: Vec::with_capacity(paths.len()),
        };
        for path in paths {
            if path.is_empty() {
                plan.chains.push(None);
                continue;
            }
            let mut chain = Vec::with_capacity(path.len());
            let mut parent: Option<u16> = None;
            for step in &path.steps {
                let step = step.canonical();
                let siblings = match parent {
                    None => &plan.roots,
                    Some(p) => &plan.nodes[p as usize].children,
                };
                let node = match siblings
                    .iter()
                    .copied()
                    .find(|&n| plan.nodes[n as usize].step == step)
                {
                    Some(n) => n,
                    None => {
                        if plan.nodes.len() >= PathExpr::MAX_STEPS {
                            return None;
                        }
                        let id = plan.nodes.len() as u16;
                        plan.nodes.push(PlanNode {
                            step,
                            children: Vec::new(),
                        });
                        match parent {
                            None => plan.roots.push(id),
                            Some(p) => plan.nodes[p as usize].children.push(id),
                        }
                        id
                    }
                };
                chain.push(node);
                parent = Some(node);
            }
            plan.chains.push(Some(chain));
        }
        Some(plan)
    }

    /// Compiles a bundle into plans that together cover `paths` in
    /// order: each `(range, plan)` pair plans `paths[range]`, and the
    /// ranges partition `0..paths.len()`. That is one plan for the whole
    /// bundle unless it overflows [`BundlePlan::compile`]'s node budget,
    /// in which case the list is bisected until every part fits — the
    /// batched read paths run the parts back to back through the same
    /// code, losing only the prefix sharing across a cut.
    pub fn compile_all(paths: &[&PathExpr]) -> Vec<(Range<usize>, BundlePlan)> {
        fn go(paths: &[&PathExpr], offset: usize, out: &mut Vec<(Range<usize>, BundlePlan)>) {
            match BundlePlan::compile(paths) {
                Some(plan) => out.push((offset..offset + paths.len(), plan)),
                None => {
                    // Unreachable for a parsed policy: both grammars
                    // refuse a path past `PathExpr::MAX_STEPS`, which
                    // is exactly the budget a lone path needs.
                    assert!(
                        paths.len() > 1,
                        "a path of more than PathExpr::MAX_STEPS steps was built past the parsers"
                    );
                    let mid = paths.len() / 2;
                    go(&paths[..mid], offset, out);
                    go(&paths[mid..], offset + mid, out);
                }
            }
        }
        let mut out = Vec::with_capacity(1);
        go(paths, 0, &mut out);
        out
    }

    /// Number of conditions the plan was compiled from.
    pub fn num_conds(&self) -> usize {
        self.chains.len()
    }

    /// The root node where condition `cond` is seeded, or `None` for
    /// an empty path.
    pub fn root_of(&self, cond: usize) -> Option<u16> {
        self.chains[cond].as_ref().map(|c| c[0])
    }

    /// Bit masks for a chunk of up to 64 condition indexes
    /// (`chunk[bit]` is the condition carried by `1 << bit`). Empty
    /// paths must not appear in a chunk.
    pub fn chunk_masks(&self, chunk: &[usize]) -> ChunkMasks {
        assert!(
            chunk.len() <= 64,
            "a mask chunk holds at most 64 conditions"
        );
        let mut masks = ChunkMasks {
            node_mask: vec![0; self.nodes.len()],
            accept_mask: vec![0; self.nodes.len()],
        };
        for (bit, &cond) in chunk.iter().enumerate() {
            let chain = self.chains[cond]
                .as_ref()
                .expect("empty-path conditions are resolved before planning");
            for &n in chain {
                masks.node_mask[n as usize] |= 1 << bit;
            }
            masks.accept_mask[*chain.last().unwrap() as usize] |= 1 << bit;
        }
        masks
    }

    /// Product-automaton layers of one node: depths `0..=sat` of its
    /// step (mirrors the targeted engine's layer table).
    fn node_layers(&self, n: u16) -> usize {
        self.nodes[n as usize].step.depths.saturation() as usize + 1
    }

    /// Automaton states the shared plan occupies — each trie node
    /// contributes its layers once, however many conditions share it.
    pub fn plan_states(&self) -> usize {
        (0..self.nodes.len() as u16)
            .map(|n| self.node_layers(n))
            .sum()
    }

    /// Automaton states one-chain-per-condition evaluation would
    /// occupy: every condition pays for its full path. The ratio
    /// `plan_states / expr_states` is the shared-prefix compression
    /// a read's census reports.
    pub fn expr_states(&self) -> usize {
        self.chains
            .iter()
            .filter_map(|c| c.as_ref())
            .map(|chain| chain.iter().map(|&n| self.node_layers(n)).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use socialreach_graph::Vocabulary;

    fn paths(texts: &[&str]) -> (Vec<PathExpr>, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let ps = texts
            .iter()
            .map(|t| parse_path(t, &mut vocab).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        (ps, vocab)
    }

    fn compile(texts: &[&str]) -> BundlePlan {
        let (ps, _) = paths(texts);
        BundlePlan::compile(&ps.iter().collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let plan = compile(&[
            "friend+[1]/friend+[1]",
            "friend+[1]/friend+[1]/colleague+[1]",
            "friend+[1]/colleague+[1]",
        ]);
        // Trie: friend -> {friend -> {colleague}, colleague}.
        assert_eq!(plan.nodes.len(), 4);
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.root_of(0), plan.root_of(1));
        assert_eq!(plan.root_of(0), plan.root_of(2));
        assert!(plan.plan_states() < plan.expr_states());
    }

    #[test]
    fn divergent_steps_fork() {
        let plan = compile(&["friend+[1]", "friend+[1..2]", "friend-[1]", "boss+[1]"]);
        // Same label but different depths/direction are different steps.
        assert_eq!(plan.roots.len(), 4);
        assert_eq!(plan.plan_states(), plan.expr_states(), "nothing shared");
    }

    #[test]
    fn identical_paths_collapse_to_one_chain() {
        let plan = compile(&["friend+[1]/colleague+[1]", "friend+[1]/colleague+[1]"]);
        assert_eq!(plan.nodes.len(), 2);
        let masks = plan.chunk_masks(&[0, 1]);
        let accept = *plan.chains[0].as_ref().unwrap().last().unwrap() as usize;
        assert_eq!(masks.accept_mask[accept], 0b11, "both bits accept together");
        assert_eq!(masks.node_mask[accept], 0b11);
    }

    #[test]
    fn canonicalization_merges_textual_variants() {
        // Same predicates in different order: one trie chain.
        let plan = compile(&[
            "friend+[1]{age>=18,city=\"lyon\"}",
            "friend+[1]{city=\"lyon\",age>=18}",
        ]);
        assert_eq!(plan.nodes.len(), 1);
        assert_eq!(plan.roots.len(), 1);
    }

    #[test]
    fn chunk_masks_route_bits_to_their_chains() {
        let plan = compile(&[
            "friend+[1]/friend+[1]",
            "friend+[1]/colleague+[1]",
            "boss-[1]",
        ]);
        let masks = plan.chunk_masks(&[0, 1, 2]);
        let root_friend = plan.root_of(0).unwrap() as usize;
        let root_boss = plan.root_of(2).unwrap() as usize;
        assert_eq!(
            masks.node_mask[root_friend], 0b011,
            "conds 0,1 share the root"
        );
        assert_eq!(masks.node_mask[root_boss], 0b100);
        assert_eq!(
            masks.accept_mask[root_friend], 0,
            "nothing ends at the shared root"
        );
        assert_eq!(masks.accept_mask[root_boss], 0b100);
        let end0 = *plan.chains[0].as_ref().unwrap().last().unwrap() as usize;
        let end1 = *plan.chains[1].as_ref().unwrap().last().unwrap() as usize;
        assert_eq!(masks.accept_mask[end0], 0b001);
        assert_eq!(masks.accept_mask[end1], 0b010);
    }

    #[test]
    fn node_budget_overflow_bisects_into_plans_that_fit() {
        // 261 paths of 252 steps, every step distinguished by its
        // attribute predicate: 65 772 distinct trie nodes (no sharing)
        // with two-layer nodes, so the tables stay tiny.
        let mut vocab = Vocabulary::new();
        let ps: Vec<PathExpr> = (0..261)
            .map(|i| {
                let steps: Vec<String> = (0..252)
                    .map(|j| format!("friend+[1]{{age>={}}}", i * 252 + j))
                    .collect();
                parse_path(&steps.join("/"), &mut vocab).unwrap()
            })
            .collect();
        let refs: Vec<&PathExpr> = ps.iter().collect();
        assert!(BundlePlan::compile(&refs).is_none(), "past the u16 budget");
        let parts = BundlePlan::compile_all(&refs);
        assert_eq!(parts.len(), 2, "one bisection suffices");
        assert_eq!(parts[0].0, 0..130);
        assert_eq!(parts[1].0, 130..261);
        for (range, plan) in &parts {
            assert_eq!(plan.num_conds(), range.len());
            assert_eq!(plan.nodes.len(), range.len() * 252);
            assert_eq!(plan.plan_states(), plan.expr_states(), "nothing shared");
        }
        // A bundle that fits stays one plan over the whole range.
        let whole = BundlePlan::compile_all(&refs[..3]);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].0, 0..3);
    }

    #[test]
    fn empty_paths_have_no_chain() {
        let (mut ps, _) = paths(&["friend+[1]"]);
        ps.push(PathExpr::new(vec![]));
        let plan = BundlePlan::compile(&ps.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(plan.num_conds(), 2);
        assert!(plan.root_of(1).is_none());
        assert_eq!(plan.nodes.len(), 1);
    }

    #[test]
    fn interior_accepts_coexist_with_forwarding() {
        let plan = compile(&["friend+[1]", "friend+[1]/colleague+[1]"]);
        let masks = plan.chunk_masks(&[0, 1]);
        let root = plan.root_of(0).unwrap() as usize;
        assert_eq!(masks.node_mask[root], 0b11);
        assert_eq!(
            masks.accept_mask[root], 0b01,
            "cond 0 accepts at the prefix"
        );
        assert_eq!(plan.nodes[root].children.len(), 1);
    }
}
