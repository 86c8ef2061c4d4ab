//! The differential tier's reference semantics, sharing nothing with
//! the serving code: a seeded generator of structured cases, their
//! rendering into both policy grammars, and an evaluator and witness
//! replay that read the structure itself. Nothing here calls
//! `socialreach_core`, so no bug there can hide by being shared.
//!
//! Definition 2: the owner of a resource always reads it; anyone else
//! reads it when some rule with at least one condition has **all** its
//! conditions satisfied, each anchored at its own owner. A condition
//! holds for the last member of a walk from its owner that splits into
//! runs matching its steps in order: `d` hops of the step's label and
//! direction, `d` in its depth list, ending where its predicate holds.

use rand::rngs::StdRng;
use rand::Rng;
use socialreach_graph::Direction::{self, Both, In, Out};
use socialreach_graph::{AttrValue, EdgeRecord, NodeId, SocialGraph};
use std::collections::BTreeSet;
use std::ops::Range;

/// The relationship types generated graphs and paths draw from.
pub const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

/// One step of a condition's path. Depth items are `(lo, hi)`, overlaps
/// allowed; `hi = None` is an open tail `lo..`. The predicate `min_age`
/// holds for a member with an integer age of at least it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub label: &'static str,
    pub dir: Direction,
    pub depths: Vec<(u32, Option<u32>)>,
    pub min_age: Option<i64>,
}

/// An access condition: a path anchored at its own owner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cond {
    pub owner: NodeId,
    pub steps: Vec<Step>,
}

/// A resource and its rules, each a conjunction of conditions.
#[derive(Clone, Debug)]
pub struct Resource {
    pub owner: NodeId,
    pub rules: Vec<Vec<Cond>>,
}

/// A generated case: a graph and resources, in registration order.
#[derive(Clone, Debug)]
pub struct Case {
    pub graph: SocialGraph,
    pub resources: Vec<Resource>,
}

/// A graph of `n` members and `m` edges (self-loops and parallel edges
/// welcome) over the first `k` of [`LABELS`], all of them interned,
/// with ages 10..60 on some members.
pub fn graph(rng: &mut StdRng, n: Range<usize>, m: Range<usize>, k: usize) -> SocialGraph {
    let mut g = SocialGraph::new();
    let n = rng.gen_range(n) as u32;
    for i in 0..n {
        g.add_node(&format!("u{i}"));
    }
    let ids: Vec<_> = LABELS[..k].iter().map(|l| g.intern_label(l)).collect();
    for _ in 0..rng.gen_range(m) {
        let (s, t) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        g.add_edge(s, t, ids[rng.gen_range(0..k)]);
        g.set_node_attr(NodeId(rng.gen_range(0..n)), "age", rng.gen_range(10..60i64));
    }
    g
}

/// A random step over the first `labels` labels: one to three depth
/// items (level, range or open tail), a predicate two times in five.
pub fn random_step(rng: &mut StdRng, labels: usize) -> Step {
    let item = |rng: &mut StdRng| {
        let lo = rng.gen_range(1..4);
        let his = [None, Some(lo), Some(lo + 1), Some(lo + 1), Some(lo + 2)];
        (lo, his[rng.gen_range(0..5usize)])
    };
    let depths = (0..rng.gen_range(1..4)).map(|_| item(rng)).collect();
    let min_age = rng.gen_bool(0.4).then(|| rng.gen_range(2..6i64) * 10);
    let dir = [Out, In, Both][rng.gen_range(0..3usize)];
    let label = LABELS[rng.gen_range(0..labels)];
    Step {
        label,
        dir,
        depths,
        min_age,
    }
}

/// A case of 2–12 members: resources whose rules instantiate a few
/// path templates under several owners, drawn from a pool of steps in
/// which two differ only in their predicate, so that templates share
/// prefixes. Most rules are one condition at the resource owner; some
/// conjoin a second condition at another member, a few have none.
pub fn case(rng: &mut StdRng) -> Case {
    let graph = graph(rng, 2..13, 0..30, LABELS.len());
    let n = graph.num_nodes() as u32;
    let mut pool: Vec<Step> = (0..3).map(|_| random_step(rng, LABELS.len())).collect();
    let mut twin = pool[0].clone();
    twin.min_age = twin.min_age.xor(Some(30));
    pool.push(twin);
    let template = |rng: &mut StdRng| -> Vec<Step> {
        (0..rng.gen_range(1..3))
            .map(|_| pool[rng.gen_range(0..4usize)].clone())
            .collect()
    };
    let templates: Vec<_> = (0..rng.gen_range(1..4)).map(|_| template(rng)).collect();
    let cond = |rng: &mut StdRng, owner| {
        let steps = templates[rng.gen_range(0..templates.len())].clone();
        Cond { owner, steps }
    };
    let mut resources = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let owner = NodeId(rng.gen_range(0..n));
        let rules = (0..rng.gen_range(0..3)).map(|_| match rng.gen_range(0..8) {
            0 => Vec::new(),
            1 | 2 => {
                let other = NodeId(rng.gen_range(0..n));
                vec![cond(rng, owner), cond(rng, other)]
            }
            _ => vec![cond(rng, owner)],
        });
        let rules = rules.collect();
        resources.push(Resource { owner, rules });
    }
    Case { graph, resources }
}

impl Step {
    /// The step as `friend+[1,2..3,4..]{age>=30}`.
    pub fn text(&self) -> String {
        let dirs = [(Out, '+'), (In, '-'), (Both, '*')];
        let dir = dirs.iter().find(|d| d.0 == self.dir).unwrap().1;
        let item = |&(lo, hi): &(u32, Option<u32>)| match hi {
            Some(hi) if hi == lo => lo.to_string(),
            Some(hi) => format!("{lo}..{hi}"),
            None => format!("{lo}.."),
        };
        let items: Vec<String> = self.depths.iter().map(item).collect();
        let age = self.min_age.map(|k| format!("{{age>={k}}}"));
        let age = age.unwrap_or_default();
        format!("{}{dir}[{}]{age}", self.label, items.join(","))
    }

    /// The step as a `MATCH` relationship and the node it reaches, when
    /// its depth levels form one interval (the query grammar's only
    /// shape).
    fn query(&self, k: usize) -> Option<String> {
        let lo = self.depths.iter().map(|d| d.0).min()?;
        let top = self.depths.iter().map(|&(lo, hi)| hi.unwrap_or(lo)).max()?;
        let open = self.depths.iter().any(|d| d.1.is_none());
        let hops = match (open, lo == top) {
            _ if !(lo..=top).all(|d| self.allows(d)) => return None,
            (true, _) => format!("{lo}.."),
            (false, true) => lo.to_string(),
            (false, false) => format!("{lo}..{top}"),
        };
        let rel = format!("[:{}*{hops}]", self.label);
        let rel = match self.dir {
            Out => format!("-{rel}->"),
            In => format!("<-{rel}-"),
            Both => format!("-{rel}-"),
        };
        let age = self.min_age.map(|k| format!(" {{age >= {k}}}"));
        Some(format!("{rel}(v{k}{})", age.unwrap_or_default()))
    }

    fn allows(&self, d: u32) -> bool {
        self.depths
            .iter()
            .any(|&(lo, hi)| d >= lo && hi.is_none_or(|h| d <= h))
    }

    /// The deepest level worth walking among `n` members: a run of `lo +
    /// n` or more hops repeats a member in its last `n` hops, and cutting
    /// that cycle out leaves a run of `lo` or more hops to the same end.
    fn cap(&self, n: u32) -> u32 {
        let cut = |&(lo, hi): &(u32, Option<u32>)| hi.unwrap_or(u32::MAX).min(lo + n.max(1) - 1);
        self.depths.iter().map(cut).max().unwrap_or(0)
    }

    fn passes(&self, g: &SocialGraph, m: NodeId) -> bool {
        let age = g.node_attr_by_name(m, "age");
        self.min_age
            .is_none_or(|k| matches!(age, Some(AttrValue::Int(a)) if *a >= k))
    }

    fn follows(&self, label: &str, forward: bool) -> bool {
        label == self.label && (self.dir == Both || (self.dir == Out) == forward)
    }

    /// The members one hop of this step away from `from`.
    fn hop(&self, g: &SocialGraph, from: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let name = |e: &EdgeRecord| g.vocab().label_name(e.label).to_owned();
        let mut next = BTreeSet::new();
        for &v in from {
            let out = g.out_edges(v).filter(|(_, e)| self.follows(&name(e), true));
            next.extend(out.map(|(_, e)| e.dst));
            let back = g.in_edges(v).filter(|(_, e)| self.follows(&name(e), false));
            next.extend(back.map(|(_, e)| e.src));
        }
        next
    }
}

/// The steps of a path in the classic grammar.
pub fn path_text(steps: &[Step]) -> String {
    let steps: Vec<String> = steps.iter().map(Step::text).collect();
    steps.join("/")
}

impl Cond {
    /// The path in the classic grammar.
    pub fn text(&self) -> String {
        path_text(&self.steps)
    }

    /// The path in the `MATCH` grammar, when every step can say its
    /// depths there.
    pub fn query(&self) -> Option<String> {
        let steps = self.steps.iter().enumerate();
        let steps: Option<String> = steps.map(|(k, s)| s.query(k)).collect();
        Some(format!("MATCH (owner){}", steps?))
    }
}

/// The members satisfying `cond`: exact-depth member-set layers, step
/// by step.
pub fn reach(g: &SocialGraph, cond: &Cond) -> BTreeSet<NodeId> {
    let n = g.num_nodes() as u32;
    let layers = |from, step: &Step| {
        let (mut layer, mut reached) = (from, BTreeSet::new());
        for d in 1..=step.cap(n) {
            layer = step.hop(g, &layer);
            if step.allows(d) {
                reached.extend(layer.iter().filter(|&&m| step.passes(g, m)));
            }
        }
        reached
    };
    cond.steps.iter().fold(BTreeSet::from([cond.owner]), layers)
}

/// The hop count of a shortest walk from the condition owner to
/// `requester` that the steps accept, `None` when none is: a BFS over
/// `(member, step, depth)` states, each run cut at the step's
/// [`Step::cap`] (cutting a longer run's cycle out shortens the walk).
pub fn shortest(g: &SocialGraph, cond: &Cond, requester: NodeId) -> Option<usize> {
    let (steps, n) = (&cond.steps, g.num_nodes() as u32);
    let Some(last) = steps.len().checked_sub(1) else {
        return (requester == cond.owner).then_some(0);
    };
    let mut layer = vec![(cond.owner, 0, 0)];
    let mut seen = BTreeSet::from([layer[0]]);
    for hops in 0.. {
        let mut k = 0; // the layer grows by its ε-moves as it is read
        while let Some(&(m, i, d)) = layer.get(k) {
            k += 1;
            let done = d >= 1 && steps[i].allows(d) && steps[i].passes(g, m);
            if done && i == last && m == requester {
                return Some(hops);
            }
            if done && i < last && seen.insert((m, i + 1, 0)) {
                layer.push((m, i + 1, 0));
            }
        }
        let reach = |&(m, i, d): &(NodeId, usize, u32)| {
            let next = (d < steps[i].cap(n)).then(|| steps[i].hop(g, &BTreeSet::from([m])));
            next.into_iter().flatten().map(move |u| (u, i, d + 1))
        };
        layer = layer
            .iter()
            .flat_map(reach)
            .filter(|&s| seen.insert(s))
            .collect();
        if layer.is_empty() {
            break;
        }
    }
    None
}

/// The audience of `res`, sorted: its owner, and whoever some rule
/// with conditions grants.
pub fn audience(g: &SocialGraph, res: &Resource) -> Vec<NodeId> {
    let reached = |rule: &Vec<Cond>| rule.iter().map(|c| reach(g, c)).collect::<Vec<_>>();
    let rules: Vec<Vec<BTreeSet<NodeId>>> = res.rules.iter().map(reached).collect();
    let grants = |m: &NodeId| {
        rules
            .iter()
            .any(|r| !r.is_empty() && r.iter().all(|a| a.contains(m)))
    };
    g.nodes().filter(|m| *m == res.owner || grants(m)).collect()
}

/// One hop of a witness walk: `(src, dst, label, forward)`.
pub type Hop<'a> = (NodeId, NodeId, &'a str, bool);

/// Replays a witness walk: it must be made of real edges, chain from
/// the condition owner to `requester`, and be accepted by the steps'
/// automaton over `(step, depth)` states.
pub fn replay(g: &SocialGraph, cond: &Cond, requester: NodeId, hops: &[Hop]) -> Result<(), String> {
    let steps = &cond.steps;
    let done = |(i, d): (usize, u32), m| d >= 1 && steps[i].allows(d) && steps[i].passes(g, m);
    let advance = |states: BTreeSet<(usize, u32)>, at| {
        let next = states
            .iter()
            .filter(|&&s| s.0 + 1 < steps.len() && done(s, at));
        let next: Vec<_> = next.map(|&(i, _)| (i + 1, 0)).collect();
        states.into_iter().chain(next).collect::<BTreeSet<_>>()
    };
    let (mut at, mut states) = (cond.owner, BTreeSet::from([(0, 0)]));
    for &(src, dst, label, forward) in hops {
        let edge =
            |(_, e): (_, &EdgeRecord)| e.dst == dst && g.vocab().label_name(e.label) == label;
        let (from, to) = if forward { (src, dst) } else { (dst, src) };
        if !g.out_edges(src).any(edge) || from != at {
            return Err(format!("hop {src}-{label}->{dst} is no edge from {at}"));
        }
        let moves = |&(i, _): &(usize, u32)| i < steps.len() && steps[i].follows(label, forward);
        let moved = advance(states, at).into_iter().filter(moves);
        states = moved.map(|(i, d)| (i, d + 1)).collect();
        at = to;
    }
    let last = |(i, d): (usize, u32)| i + 1 == steps.len() && done((i, d), at);
    let accepted = match steps.len() {
        0 => hops.is_empty(),
        _ => advance(states, at).into_iter().any(last),
    };
    let refused = format!(
        "the steps of {} refuse the walk to {requester}",
        cond.text()
    );
    (accepted && at == requester).then_some(()).ok_or(refused)
}
