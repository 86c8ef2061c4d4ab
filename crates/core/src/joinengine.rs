//! The join-index evaluation engine — §3.3 (pattern matching over the
//! cluster-based join index) and §3.4 (post-processing).
//!
//! Pipeline per access condition:
//!
//! 1. the path is expanded into line queries
//!    ([`crate::lineplan::plan`], Figure 4);
//! 2. every line query is matched against the base tables by chained
//!    reachability joins routed through the W-table — producing
//!    *candidate* tuples of line vertices (§3.3's temporal tables);
//! 3. post-processing keeps the tuples whose consecutive vertices are
//!    adjacent (they form a single walk), whose first vertex leaves the
//!    owner and last vertex enters the requester, and whose step-end
//!    members satisfy the attribute conditions (§3.4).
//!
//! Three join strategies, compared in experiment P5:
//!
//! * [`JoinStrategy::PaperFaithful`] — the paper's exact recipe: joins
//!   start from the *full* first base table and the owner/requester are
//!   only checked in post-processing;
//! * [`JoinStrategy::OwnerSeeded`] — identical joins, but the first
//!   table is pre-filtered to the owner's leaving vertices (a
//!   straightforward optimization the paper's §3.4 example hints at);
//! * [`JoinStrategy::AdjacencyOnly`] — extends tuples along line-graph
//!   adjacency instead of reachability (no superset, post-adjacency is
//!   vacuous); this is effectively a BFS in line-graph space and serves
//!   as the optimized upper bound.

use crate::engine::{AccessEngine, AudienceOutcome, CheckOutcome, EvalStats};
use crate::error::EvalError;
use crate::lineplan::{plan, LineQuery, PlanConfig};
use crate::path::PathExpr;
use socialreach_graph::{NodeId, SocialGraph};
use socialreach_reach::{JoinIndex, JoinIndexConfig, LineNodeKind};

/// Candidate-generation strategy for the join pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Full-table joins, endpoints checked in post-processing (§3.3).
    PaperFaithful,
    /// Joins seeded with the owner's leaving vertices.
    OwnerSeeded,
    /// Tuple extension along line-graph adjacency (exact matching).
    AdjacencyOnly,
}

/// Configuration of [`JoinIndexEngine`].
#[derive(Clone, Copy, Debug)]
pub struct JoinEngineConfig {
    /// Line-query expansion limits.
    pub plan: PlanConfig,
    /// Candidate-generation strategy.
    pub strategy: JoinStrategy,
    /// Index construction options.
    pub index: JoinIndexConfig,
    /// Abort evaluation when the candidate tuple set outgrows this.
    pub max_tuples: usize,
}

impl Default for JoinEngineConfig {
    fn default() -> Self {
        JoinEngineConfig {
            plan: PlanConfig::default(),
            strategy: JoinStrategy::OwnerSeeded,
            index: JoinIndexConfig::default(),
            max_tuples: 1_000_000,
        }
    }
}

/// The precomputed engine: owns the [`JoinIndex`] of §3.3.
#[derive(Clone, Debug)]
pub struct JoinIndexEngine {
    index: JoinIndex,
    cfg: JoinEngineConfig,
}

impl JoinIndexEngine {
    /// Builds the line graph, labeling, base tables, clusters and
    /// W-table for `g`.
    pub fn build(g: &SocialGraph, cfg: JoinEngineConfig) -> Self {
        let index = JoinIndex::build(g, &cfg.index);
        JoinIndexEngine { index, cfg }
    }

    /// The underlying index (for artifact printing and size reporting).
    pub fn index(&self) -> &JoinIndex {
        &self.index
    }

    /// The engine configuration.
    pub fn config(&self) -> &JoinEngineConfig {
        &self.cfg
    }

    /// Evaluates one access condition. `target = None` collects the full
    /// audience; `target = Some(v)` reports whether `v` matches.
    pub fn evaluate(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        target: Option<NodeId>,
    ) -> Result<JoinOutcome, EvalError> {
        let mut stats = EvalStats::default();

        if path.is_empty() {
            let granted = target == Some(owner);
            return Ok(JoinOutcome {
                granted,
                matched: if target.is_none() {
                    vec![owner]
                } else {
                    vec![]
                },
                stats,
            });
        }
        if path.needs_reverse() && !self.index.line().is_augmented() {
            return Err(EvalError::UnsupportedDirection);
        }

        let line_plan = plan(path, &self.cfg.plan)?;
        stats.truncated = line_plan.truncated;
        stats.line_queries = line_plan.queries.len();

        let mut matched: Vec<NodeId> = Vec::new();
        let mut granted = false;
        for q in &line_plan.queries {
            self.eval_line_query(g, owner, path, q, target, &mut matched, &mut stats)?;
            if target.is_some() && matched.iter().any(|&m| Some(m) == target) {
                granted = true;
                break; // early exit on grant
            }
        }
        matched.sort_unstable();
        matched.dedup();
        if target.is_some() {
            granted = matched.iter().any(|&m| Some(m) == target);
        }
        Ok(JoinOutcome {
            granted,
            matched,
            stats,
        })
    }

    /// Matches one line query, appending every member that terminates a
    /// valid tuple to `matched`.
    #[allow(clippy::too_many_arguments)]
    fn eval_line_query(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        q: &LineQuery,
        target: Option<NodeId>,
        matched: &mut Vec<NodeId>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        debug_assert!(!q.is_empty(), "planned queries have >= 1 hop");
        let line = self.index.line();

        // ---- W-table / base-table pruning ----------------------------
        // A hop over an absent (label, orientation) can never match; an
        // empty W-table entry proves no x-labeled vertex reaches any
        // y-labeled vertex, hence no adjacency either. This is the
        // deny fast path the cluster index buys (experiment P4).
        if q.hops
            .iter()
            .any(|&k| self.index.base_tables().table(k).is_empty())
        {
            return Ok(());
        }
        if q.hops
            .windows(2)
            .any(|w| self.index.wtable().centers(w[0], w[1]).is_empty())
        {
            return Ok(());
        }

        if self.cfg.strategy == JoinStrategy::AdjacencyOnly {
            return self.eval_line_query_frontier(g, owner, path, q, target, matched, stats);
        }

        // ---- Candidate generation (§3.3 pattern matching) -------------
        let first_key = q.hops[0];
        let seed: Vec<u32> = match self.cfg.strategy {
            JoinStrategy::PaperFaithful => self.index.base_tables().table(first_key).to_vec(),
            JoinStrategy::OwnerSeeded | JoinStrategy::AdjacencyOnly => {
                self.leaving_with_key(owner, first_key)
            }
        };

        let mut tuples: Vec<Vec<u32>> = seed.into_iter().map(|x| vec![x]).collect();
        for w in q.hops.windows(2) {
            let (xk, yk) = (w[0], w[1]);
            // Size the hop before materializing it: a hop of more than
            // `max_tuples` tuples is refused without cloning any.
            let mut total = 0usize;
            let mut continuations = Vec::with_capacity(tuples.len());
            for t in &tuples {
                let end = *t.last().expect("tuples are non-empty");
                let ys = self.index.successors_via_wtable(end, xk, yk);
                total += ys.len();
                if total > self.cfg.max_tuples {
                    return Err(EvalError::TupleOverflow {
                        limit: self.cfg.max_tuples,
                    });
                }
                continuations.push(ys);
            }
            let mut next: Vec<Vec<u32>> = Vec::with_capacity(total);
            for (t, ys) in tuples.iter().zip(continuations) {
                for y in ys {
                    let mut nt = t.clone();
                    nt.push(y);
                    next.push(nt);
                }
            }
            tuples = next;
        }
        stats.candidate_tuples += tuples.len();

        // ---- Post-processing (§3.4) -----------------------------------
        let cond_sites = q.step_end_positions();
        'tuple: for t in &tuples {
            // (a) consecutive vertices must chain into a single walk.
            for w in t.windows(2) {
                if !line.adjacent(w[0], w[1]) {
                    continue 'tuple;
                }
            }
            // (b) the walk starts at the owner …
            if line.node(t[0]).from != owner {
                continue 'tuple;
            }
            // … and ends at the requester (when checking a target).
            let endpoint = line.node(*t.last().expect("non-empty")).to;
            if let Some(v) = target {
                if endpoint != v {
                    continue 'tuple;
                }
            }
            // (c) attribute conditions at each step's final member.
            for &(pos, step_idx) in &cond_sites {
                let member = line.node(t[pos]).to;
                let conds = &path.steps[step_idx as usize].conds;
                if !conds.iter().all(|c| c.eval(g.node_attrs(member))) {
                    continue 'tuple;
                }
            }
            stats.tuples_kept += 1;
            matched.push(endpoint);
        }
        Ok(())
    }

    /// Oriented line vertices leaving `owner` whose key matches.
    fn leaving_with_key(&self, owner: NodeId, key: socialreach_reach::LabelKey) -> Vec<u32> {
        let line = self.index.line();
        line.leaving(owner)
            .iter()
            .copied()
            .filter(|&x| {
                let ln = line.node(x);
                ln.label == Some(key.0)
                    && matches!(ln.kind, LineNodeKind::Real { forward, .. } if forward == key.1)
            })
            .collect()
    }

    /// Frontier-based matching for [`JoinStrategy::AdjacencyOnly`]: a
    /// BFS over `(line vertex, hop position)` states. Unlike the tuple
    /// pipelines it deduplicates states per position, so hub-heavy
    /// graphs cost `O(positions · |L(G)|)` instead of enumerating every
    /// walk. Correctness relies on step conditions being *positional*
    /// (each predicate looks only at the member reached at its own step
    /// end, never at walk history).
    #[allow(clippy::too_many_arguments)]
    fn eval_line_query_frontier(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        q: &LineQuery,
        target: Option<NodeId>,
        matched: &mut Vec<NodeId>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        let line = self.index.line();
        let cond_sites = q.step_end_positions();
        let cond_at = |pos: usize| -> Option<u16> {
            cond_sites
                .iter()
                .find(|&&(p, _)| p == pos)
                .map(|&(_, step)| step)
        };

        let mut frontier: Vec<u32> = self.leaving_with_key(owner, q.hops[0]);
        for pos in 0..q.hops.len() {
            // Apply the owning step's attribute conditions at its final
            // hop (they constrain the member the hop arrives at).
            if let Some(step_idx) = cond_at(pos) {
                let conds = &path.steps[step_idx as usize].conds;
                if !conds.is_empty() {
                    frontier.retain(|&x| {
                        let member = line.node(x).to;
                        conds.iter().all(|c| c.eval(g.node_attrs(member)))
                    });
                }
            }
            stats.candidate_tuples += frontier.len();
            if frontier.is_empty() {
                return Ok(());
            }
            if pos + 1 == q.hops.len() {
                break;
            }
            let next_key = q.hops[pos + 1];
            let mut next: Vec<u32> = Vec::new();
            for &x in &frontier {
                for &y in line.graph().successors(x) {
                    let ln = line.node(y);
                    if ln.label == Some(next_key.0)
                        && matches!(ln.kind, LineNodeKind::Real { forward, .. } if forward == next_key.1)
                    {
                        next.push(y);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }

        for &x in &frontier {
            let endpoint = line.node(x).to;
            if let Some(v) = target {
                if endpoint != v {
                    continue;
                }
            }
            stats.tuples_kept += 1;
            matched.push(endpoint);
        }
        Ok(())
    }
}

/// Result of a join-index evaluation.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// Whether the target matched.
    pub granted: bool,
    /// Matching members (complete audience only when `target = None`).
    pub matched: Vec<NodeId>,
    /// Work counters.
    pub stats: EvalStats,
}

impl AccessEngine for JoinIndexEngine {
    fn name(&self) -> &'static str {
        match self.cfg.strategy {
            JoinStrategy::PaperFaithful => "join-index/paper",
            JoinStrategy::OwnerSeeded => "join-index/seeded",
            JoinStrategy::AdjacencyOnly => "join-index/adjacency",
        }
    }

    fn check(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
    ) -> Result<CheckOutcome, EvalError> {
        let out = self.evaluate(g, owner, path, Some(requester))?;
        Ok(CheckOutcome {
            granted: out.granted,
            stats: out.stats,
        })
    }

    fn audience(
        &self,
        g: &SocialGraph,
        owner: NodeId,
        path: &PathExpr,
    ) -> Result<AudienceOutcome, EvalError> {
        let out = self.evaluate(g, owner, path, None)?;
        Ok(AudienceOutcome {
            members: out.matched,
            stats: out.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online;
    use crate::path::parse_path;

    /// Alice -friend-> Bob -friend-> Carol -colleague-> Dave;
    /// Alice -friend-> Eve; Carol -parent-> Frank.
    fn sample() -> SocialGraph {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        let d = g.add_node("Dave");
        let e = g.add_node("Eve");
        let f = g.add_node("Frank");
        g.connect(a, "friend", b);
        g.connect(b, "friend", c);
        g.connect(c, "colleague", d);
        g.connect(a, "friend", e);
        g.connect(c, "parent", f);
        g
    }

    fn engines(g: &SocialGraph) -> Vec<JoinIndexEngine> {
        [
            JoinStrategy::PaperFaithful,
            JoinStrategy::OwnerSeeded,
            JoinStrategy::AdjacencyOnly,
        ]
        .into_iter()
        .map(|strategy| {
            JoinIndexEngine::build(
                g,
                JoinEngineConfig {
                    strategy,
                    ..JoinEngineConfig::default()
                },
            )
        })
        .collect()
    }

    fn audience_names(
        g: &SocialGraph,
        engine: &JoinIndexEngine,
        owner: &str,
        path: &str,
    ) -> Vec<String> {
        let mut g2 = g.clone();
        let p = parse_path(path, g2.vocab_mut()).unwrap();
        let o = g.node_by_name(owner).unwrap();
        let out = engine.evaluate(&g2, o, &p, None).unwrap();
        out.matched
            .iter()
            .map(|&n| g.node_name(n).to_owned())
            .collect()
    }

    #[test]
    fn all_strategies_match_q1_style_queries() {
        let g = sample();
        for engine in engines(&g) {
            assert_eq!(
                audience_names(&g, &engine, "Alice", "friend+[1,2]/colleague+[1]"),
                vec!["Dave"],
                "strategy {}",
                engine.name()
            );
        }
    }

    #[test]
    fn strategies_agree_with_online_on_varied_paths() {
        let mut g = sample();
        g.set_node_attr(g.node_by_name("Dave").unwrap(), "age", 40i64);
        g.set_node_attr(g.node_by_name("Frank").unwrap(), "age", 10i64);
        let paths = [
            "friend+[1]",
            "friend+[2]",
            "friend+[1..3]",
            "friend*[1]",
            "friend-[1]",
            "friend+[1,2]/colleague+[1]",
            "friend+[2]/parent+[1]",
            "friend+[2]/colleague+[1]{age>=18}",
            "friend+[2]/parent+[1]{age>=18}",
            "colleague+[1]",
            "missing+[1]",
        ];
        let engines = engines(&g);
        for path_text in paths {
            let p = parse_path(path_text, g.vocab_mut()).unwrap();
            for owner in g.nodes() {
                let truth = online::evaluate(&g, owner, &p, None);
                for engine in &engines {
                    let got = engine.evaluate(&g, owner, &p, None).unwrap();
                    assert_eq!(
                        got.matched,
                        truth.matched,
                        "{} disagrees with online for {path_text} from {}",
                        engine.name(),
                        g.node_name(owner)
                    );
                }
            }
        }
    }

    #[test]
    fn check_grants_and_denies() {
        let mut g = sample();
        let p = parse_path("friend+[1,2]/colleague+[1]", g.vocab_mut()).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let eve = g.node_by_name("Eve").unwrap();
        for engine in engines(&g) {
            assert!(engine.check(&g, alice, &p, dave).unwrap().granted);
            assert!(!engine.check(&g, alice, &p, eve).unwrap().granted);
        }
    }

    #[test]
    fn unaugmented_index_rejects_reverse_steps() {
        let g = sample();
        let mut cfg = JoinEngineConfig::default();
        cfg.index.augment_reverse = false;
        let engine = JoinIndexEngine::build(&g, cfg);
        let mut g2 = g.clone();
        let p = parse_path("friend-[1]", g2.vocab_mut()).unwrap();
        let alice = g2.node_by_name("Alice").unwrap();
        assert_eq!(
            engine.evaluate(&g2, alice, &p, None).unwrap_err(),
            EvalError::UnsupportedDirection
        );
        // Forward-only paths still work.
        let p_fwd = parse_path("friend+[1]", g2.vocab_mut()).unwrap();
        assert!(engine.evaluate(&g2, alice, &p_fwd, None).is_ok());
    }

    #[test]
    fn tuple_overflow_is_reported() {
        // A clique-ish graph with a tiny tuple budget must overflow.
        let mut g = SocialGraph::new();
        let nodes: Vec<_> = (0..6).map(|i| g.add_node(&format!("u{i}"))).collect();
        let f = g.intern_label("friend");
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    g.add_edge(x, y, f);
                }
            }
        }
        let cfg = JoinEngineConfig {
            max_tuples: 10,
            strategy: JoinStrategy::PaperFaithful,
            ..JoinEngineConfig::default()
        };
        let engine = JoinIndexEngine::build(&g, cfg);
        let p = parse_path("friend+[3]", g.vocab_mut()).unwrap();
        assert!(matches!(
            engine.evaluate(&g, nodes[0], &p, None),
            Err(EvalError::TupleOverflow { limit: 10 })
        ));
        // The boundary: the last hop's candidates are the line query's
        // whole output, and a hop of exactly `max_tuples` answers.
        let two_hops = parse_path("friend+[2]", g.vocab_mut()).unwrap();
        let unlimited = JoinIndexEngine::build(
            &g,
            JoinEngineConfig {
                max_tuples: usize::MAX,
                ..cfg
            },
        );
        let candidates = |path: &PathExpr| {
            let out = unlimited.evaluate(&g, nodes[0], path, None).unwrap();
            out.stats.candidate_tuples
        };
        let last_hop = candidates(&p);
        assert!(
            candidates(&two_hops) < last_hop - 1,
            "only the last hop overflows"
        );
        let with_limit = |max_tuples| {
            JoinIndexEngine::build(&g, JoinEngineConfig { max_tuples, ..cfg })
                .evaluate(&g, nodes[0], &p, None)
        };
        assert!(with_limit(last_hop).is_ok());
        assert_eq!(
            with_limit(last_hop - 1).unwrap_err(),
            EvalError::TupleOverflow {
                limit: last_hop - 1
            }
        );
    }

    #[test]
    fn stats_report_candidates_and_survivors() {
        let mut g = sample();
        let p = parse_path("friend+[1,2]/colleague+[1]", g.vocab_mut()).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        let engine = JoinIndexEngine::build(
            &g,
            JoinEngineConfig {
                strategy: JoinStrategy::PaperFaithful,
                ..JoinEngineConfig::default()
            },
        );
        let out = engine.evaluate(&g, alice, &p, None).unwrap();
        assert_eq!(out.stats.line_queries, 2);
        assert!(out.stats.candidate_tuples >= out.stats.tuples_kept);
        assert!(out.stats.tuples_kept >= 1);
    }

    #[test]
    fn empty_path_matches_owner() {
        let g = sample();
        let alice = g.node_by_name("Alice").unwrap();
        let p = PathExpr::new(vec![]);
        for engine in engines(&g) {
            let out = engine.evaluate(&g, alice, &p, Some(alice)).unwrap();
            assert!(out.granted);
        }
    }

    #[test]
    fn truncation_flag_propagates() {
        let mut g = sample();
        let p = parse_path("friend+[1..]", g.vocab_mut()).unwrap();
        let alice = g.node_by_name("Alice").unwrap();
        let engine = &engines(&g)[1];
        let out = engine.evaluate(&g, alice, &p, None).unwrap();
        assert!(out.stats.truncated);
    }
}
