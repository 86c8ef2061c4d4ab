//! Path-expression AST — the access-condition paths of §2, Definition 3.
//!
//! A path `p = s1, s2, …, sn` is a sequence of ordered steps. Each step
//! `si = (r, dir, I, C)` constrains:
//!
//! * `r` — the relationship type of the edges traversed by the step;
//! * `dir` — the orientation (`+` outgoing, `−` incoming, `∗` either;
//!   the model's default is `∗`);
//! * `I` — the *set of authorized depth levels*: the step matches a run
//!   of `k` consecutive `r`-edges for any `k ∈ I`;
//! * `C` — attribute conditions on the member reached at the end of the
//!   step.
//!
//! A requester `v` satisfies the condition when some **walk** from the
//! owner to `v` decomposes into runs matching the steps in order (walk
//! semantics: members and relationships may repeat, as with the paper's
//! BFS baseline).

use serde::{Deserialize, Serialize};
use socialreach_graph::{AttrKey, AttrMap, AttrValue, Direction, LabelId, Vocabulary};
use std::cmp::Ordering;
use std::fmt::Write as _;

/// A set of authorized depth levels `I` — a normalized union of integer
/// intervals over `1..`, the last of which may be unbounded
/// (`[2..]` = "two or more hops").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthSet {
    /// Sorted, disjoint, non-adjacent `(lo, hi)` intervals; `hi = None`
    /// means unbounded and can only appear last.
    intervals: Vec<(u32, Option<u32>)>,
}

impl DepthSet {
    /// Exactly `d` hops. Panics if `d == 0` (a step traverses at least
    /// one edge).
    pub fn single(d: u32) -> Self {
        Self::from_intervals(vec![(d, Some(d))])
    }

    /// Any depth in `lo..=hi`.
    pub fn range(lo: u32, hi: u32) -> Self {
        Self::from_intervals(vec![(lo, Some(hi))])
    }

    /// Any depth `>= lo`.
    pub fn at_least(lo: u32) -> Self {
        Self::from_intervals(vec![(lo, None)])
    }

    /// Normalizes arbitrary intervals: sorts, merges overlap/adjacency,
    /// drops everything after an unbounded interval.
    ///
    /// # Panics
    /// Panics on an empty list, a zero bound, or `lo > hi`.
    pub fn from_intervals(mut intervals: Vec<(u32, Option<u32>)>) -> Self {
        assert!(!intervals.is_empty(), "DepthSet must be non-empty");
        for &(lo, hi) in &intervals {
            assert!(lo >= 1, "depth levels start at 1");
            if let Some(hi) = hi {
                assert!(lo <= hi, "empty depth interval [{lo},{hi}]");
            }
        }
        intervals.sort_by(|a, b| match a.0.cmp(&b.0) {
            Ordering::Equal => match (a.1, b.1) {
                (None, _) => Ordering::Greater,
                (_, None) => Ordering::Less,
                (Some(x), Some(y)) => x.cmp(&y),
            },
            o => o,
        });
        let mut out: Vec<(u32, Option<u32>)> = Vec::with_capacity(intervals.len());
        for (lo, hi) in intervals {
            match out.last_mut() {
                Some(last) => match last.1 {
                    None => break, // already unbounded; nothing to add
                    Some(last_hi) if lo <= last_hi.saturating_add(1) => {
                        last.1 = hi.map(|h| last_hi.max(h));
                    }
                    _ => out.push((lo, hi)),
                },
                None => out.push((lo, hi)),
            }
        }
        DepthSet { intervals: out }
    }

    /// Is `d` an authorized depth?
    pub fn contains(&self, d: u32) -> bool {
        self.intervals
            .iter()
            .any(|&(lo, hi)| d >= lo && hi.is_none_or(|h| d <= h))
    }

    /// Smallest authorized depth.
    pub fn min_depth(&self) -> u32 {
        self.intervals[0].0
    }

    /// Largest authorized depth, or `None` when unbounded.
    pub fn max_depth(&self) -> Option<u32> {
        self.intervals.last().and_then(|&(_, hi)| hi)
    }

    /// True when the set extends to infinity.
    pub fn is_unbounded(&self) -> bool {
        self.max_depth().is_none() && !self.intervals.is_empty()
    }

    /// The saturation point for product-automaton search: all depths
    /// `>= sat` behave identically (same membership, same continuation).
    pub(crate) fn saturation(&self) -> u32 {
        match self.intervals.last() {
            Some(&(lo, None)) => lo,
            Some(&(_, Some(hi))) => hi,
            None => unreachable!("DepthSet is never empty"),
        }
    }

    /// Enumerates authorized depths up to `cap` (inclusive). Unbounded
    /// tails are cut at `cap` — the join planner's truncation point.
    pub fn depths_up_to(&self, cap: u32) -> Vec<u32> {
        let mut out = Vec::new();
        for &(lo, hi) in &self.intervals {
            let hi = hi.unwrap_or(cap).min(cap);
            for d in lo..=hi.max(lo).min(cap) {
                if d >= lo && d <= hi {
                    out.push(d);
                }
            }
        }
        out
    }

    /// The normalized intervals.
    pub fn intervals(&self) -> &[(u32, Option<u32>)] {
        &self.intervals
    }
}

impl Default for DepthSet {
    /// The model's default: exactly one hop.
    fn default() -> Self {
        DepthSet::single(1)
    }
}

/// Comparison operator of an attribute condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=` — equal (numeric coercion between int and float).
    Eq,
    /// `!=` — not equal.
    Ne,
    /// `<` — strictly less.
    Lt,
    /// `<=` — at most.
    Le,
    /// `>` — strictly greater.
    Gt,
    /// `>=` — at least.
    Ge,
    /// `~` — text containment.
    Contains,
}

impl CmpOp {
    /// Textual rendering used by the parser and printer.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "~",
        }
    }
}

/// One attribute condition `c ∈ C` of a step: a constraint on the
/// properties of the member reached at the end of the step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttrPredicate {
    /// Interned attribute key.
    pub key: AttrKey,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: AttrValue,
}

impl AttrPredicate {
    /// Evaluates against a member's attribute tuple. A missing attribute
    /// or an incomparable type makes the predicate **false** (policies
    /// fail closed).
    pub fn eval(&self, attrs: &AttrMap) -> bool {
        let Some(actual) = attrs.get(self.key) else {
            return false;
        };
        match self.op {
            CmpOp::Eq => actual.eq_coerced(&self.value),
            CmpOp::Ne => match actual.partial_cmp_coerced(&self.value) {
                Some(o) => o != Ordering::Equal,
                None => false,
            },
            CmpOp::Lt => actual.partial_cmp_coerced(&self.value) == Some(Ordering::Less),
            CmpOp::Le => matches!(
                actual.partial_cmp_coerced(&self.value),
                Some(Ordering::Less | Ordering::Equal)
            ),
            CmpOp::Gt => actual.partial_cmp_coerced(&self.value) == Some(Ordering::Greater),
            CmpOp::Ge => matches!(
                actual.partial_cmp_coerced(&self.value),
                Some(Ordering::Greater | Ordering::Equal)
            ),
            CmpOp::Contains => actual.contains_text(&self.value),
        }
    }
}

/// One ordered step `(r, dir, I, C)` of an access-condition path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Relationship type `r`.
    pub label: LabelId,
    /// Orientation `dir` (the model defaults to [`Direction::Both`]).
    pub dir: Direction,
    /// Authorized depth levels `I`.
    pub depths: DepthSet,
    /// Conditions `C` on the member reached at the end of the step.
    pub conds: Vec<AttrPredicate>,
}

impl Step {
    /// A single-hop outgoing step with no conditions — the commonest
    /// shape (`friend+`).
    pub fn out(label: LabelId) -> Self {
        Step {
            label,
            dir: Direction::Out,
            depths: DepthSet::default(),
            conds: Vec::new(),
        }
    }

    /// Sets the depth set (builder style).
    pub fn with_depths(mut self, depths: DepthSet) -> Self {
        self.depths = depths;
        self
    }

    /// Sets the direction (builder style).
    pub fn with_dir(mut self, dir: Direction) -> Self {
        self.dir = dir;
        self
    }

    /// Adds an attribute condition (builder style).
    pub fn with_cond(mut self, pred: AttrPredicate) -> Self {
        self.conds.push(pred);
        self
    }
}

impl Step {
    /// Canonical form of the step: attribute predicates sorted by
    /// `(key, operator, rendered literal)` and exact duplicates
    /// dropped. Predicates conjoin, so reordering and deduplication
    /// preserve semantics exactly. Depth sets are already canonical by
    /// construction ([`DepthSet::from_intervals`] sorts, merges
    /// overlap/adjacency and drops everything after an unbounded
    /// interval), and labels/keys are interned ids, so two
    /// semantically identical steps — however they were written —
    /// compare equal after this.
    pub fn canonical(&self) -> Step {
        let mut conds = self.conds.clone();
        conds.sort_by(|a, b| {
            (a.key.0, a.op.symbol(), render_value(&a.value)).cmp(&(
                b.key.0,
                b.op.symbol(),
                render_value(&b.value),
            ))
        });
        conds.dedup();
        Step {
            label: self.label,
            dir: self.dir,
            depths: self.depths.clone(),
            conds,
        }
    }
}

/// A full access-condition path: the ordered sequence of steps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PathExpr {
    /// The steps, applied in order from the resource owner.
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// The step budget of one path: the largest one-path bundle
    /// [`crate::query::BundlePlan::compile`] accepts. Every engine
    /// addresses a path's steps (or a plan's nodes) in the `u16` slot
    /// of its product-state key, so the parsers of both policy
    /// syntaxes refuse a longer path with a caret error instead of
    /// letting an engine wrap the index.
    pub const MAX_STEPS: usize = u16::MAX as usize;

    /// Builds a path from steps.
    pub fn new(steps: Vec<Step>) -> Self {
        PathExpr { steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty path (matches only the owner).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True when any step traverses against edge orientation (`−`/`∗`),
    /// which requires an orientation-augmented line graph.
    pub fn needs_reverse(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.dir, Direction::In | Direction::Both))
    }

    /// True when any step has an unbounded depth set.
    pub fn has_unbounded_depth(&self) -> bool {
        self.steps.iter().any(|s| s.depths.is_unbounded())
    }

    /// Canonical form of the whole path: every step canonicalized via
    /// [`Step::canonical`]. Two `PathExpr`s that authorize exactly the
    /// same walks — regardless of predicate order, duplicate
    /// predicates, or how their depth intervals were originally spelled
    /// — compare equal (`==`) after canonicalization, which is what the
    /// bundle evaluators key traversal sharing on.
    pub fn canonical(&self) -> PathExpr {
        PathExpr {
            steps: self.steps.iter().map(Step::canonical).collect(),
        }
    }

    /// Canonical textual form, resolving interned ids through `vocab`
    /// ([`crate::path::parse_path`] round-trips it).
    pub fn to_text(&self, vocab: &Vocabulary) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(vocab.label_name(s.label));
            out.push(s.dir.symbol());
            out.push('[');
            for (j, &(lo, hi)) in s.depths.intervals().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match hi {
                    Some(h) if h == lo => {
                        let _ = write!(out, "{lo}");
                    }
                    Some(h) => {
                        let _ = write!(out, "{lo}..{h}");
                    }
                    None => {
                        let _ = write!(out, "{lo}..");
                    }
                }
            }
            out.push(']');
            if !s.conds.is_empty() {
                out.push('{');
                for (j, c) in s.conds.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{}{}{}",
                        vocab.attr_name(c.key),
                        c.op.symbol(),
                        render_value(&c.value)
                    );
                }
                out.push('}');
            }
        }
        out
    }
}

pub(crate) fn render_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Text(s) => format!("\"{s}\""),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_set_normalization() {
        let d = DepthSet::from_intervals(vec![(3, Some(4)), (1, Some(2))]);
        assert_eq!(d.intervals(), &[(1, Some(4))]); // adjacency merges
        let d = DepthSet::from_intervals(vec![(1, Some(1)), (3, Some(3))]);
        assert_eq!(d.intervals(), &[(1, Some(1)), (3, Some(3))]);
        let d = DepthSet::from_intervals(vec![(2, None), (5, Some(9))]);
        assert_eq!(d.intervals(), &[(2, None)]);
    }

    #[test]
    fn depth_set_membership_and_bounds() {
        let d = DepthSet::from_intervals(vec![(1, Some(2)), (4, None)]);
        assert!(d.contains(1) && d.contains(2) && d.contains(4) && d.contains(99));
        assert!(!d.contains(3));
        assert_eq!(d.min_depth(), 1);
        assert_eq!(d.max_depth(), None);
        assert!(d.is_unbounded());
        assert_eq!(d.saturation(), 4);
        let b = DepthSet::range(2, 5);
        assert_eq!(b.max_depth(), Some(5));
        assert_eq!(b.saturation(), 5);
        assert!(!b.is_unbounded());
    }

    #[test]
    fn depths_up_to_respects_cap_and_holes() {
        let d = DepthSet::from_intervals(vec![(1, Some(2)), (4, None)]);
        assert_eq!(d.depths_up_to(6), vec![1, 2, 4, 5, 6]);
        assert_eq!(d.depths_up_to(3), vec![1, 2]);
        assert_eq!(DepthSet::single(3).depths_up_to(10), vec![3]);
    }

    #[test]
    #[should_panic(expected = "depth levels start at 1")]
    fn zero_depth_rejected() {
        DepthSet::single(0);
    }

    #[test]
    #[should_panic(expected = "empty depth interval")]
    fn inverted_interval_rejected() {
        DepthSet::range(5, 2);
    }

    #[test]
    fn predicate_eval_fails_closed() {
        let mut attrs = AttrMap::new();
        attrs.set(AttrKey(0), AttrValue::Int(24));
        let ge = AttrPredicate {
            key: AttrKey(0),
            op: CmpOp::Ge,
            value: AttrValue::Int(18),
        };
        assert!(ge.eval(&attrs));
        let missing = AttrPredicate {
            key: AttrKey(9),
            op: CmpOp::Eq,
            value: AttrValue::Int(1),
        };
        assert!(!missing.eval(&attrs), "missing attribute denies");
        let mismatched = AttrPredicate {
            key: AttrKey(0),
            op: CmpOp::Ne,
            value: AttrValue::Text("x".into()),
        };
        assert!(!mismatched.eval(&attrs), "incomparable types deny");
    }

    #[test]
    fn predicate_operators() {
        let mut attrs = AttrMap::new();
        attrs.set(AttrKey(0), AttrValue::Float(2.5));
        attrs.set(AttrKey(1), AttrValue::Text("database systems".into()));
        let p = |op, value| AttrPredicate {
            key: AttrKey(0),
            op,
            value,
        };
        assert!(p(CmpOp::Lt, AttrValue::Int(3)).eval(&attrs));
        assert!(p(CmpOp::Le, AttrValue::Float(2.5)).eval(&attrs));
        assert!(p(CmpOp::Gt, AttrValue::Int(2)).eval(&attrs));
        assert!(p(CmpOp::Ge, AttrValue::Float(2.5)).eval(&attrs));
        assert!(p(CmpOp::Ne, AttrValue::Int(3)).eval(&attrs));
        assert!(!p(CmpOp::Eq, AttrValue::Int(3)).eval(&attrs));
        let contains = AttrPredicate {
            key: AttrKey(1),
            op: CmpOp::Contains,
            value: AttrValue::Text("base".into()),
        };
        assert!(contains.eval(&attrs));
    }

    #[test]
    fn to_text_renders_canonical_form() {
        let mut vocab = Vocabulary::new();
        let friend = vocab.intern_label("friend");
        let colleague = vocab.intern_label("colleague");
        let age = vocab.intern_attr("age");
        let path = PathExpr::new(vec![
            Step::out(friend).with_depths(DepthSet::range(1, 2)),
            Step::out(colleague).with_cond(AttrPredicate {
                key: age,
                op: CmpOp::Ge,
                value: AttrValue::Int(18),
            }),
        ]);
        assert_eq!(path.to_text(&vocab), "friend+[1..2]/colleague+[1]{age>=18}");
        assert!(!path.needs_reverse());
        assert!(!path.has_unbounded_depth());
    }

    #[test]
    fn needs_reverse_and_unbounded_flags() {
        let mut vocab = Vocabulary::new();
        let friend = vocab.intern_label("friend");
        let p = PathExpr::new(vec![Step::out(friend)
            .with_dir(Direction::Both)
            .with_depths(DepthSet::at_least(1))]);
        assert!(p.needs_reverse());
        assert!(p.has_unbounded_depth());
        assert_eq!(p.to_text(&vocab), "friend*[1..]");
    }

    #[test]
    fn canonical_sorts_and_dedups_predicates() {
        let age_ge = AttrPredicate {
            key: AttrKey(1),
            op: CmpOp::Ge,
            value: AttrValue::Int(18),
        };
        let city_eq = AttrPredicate {
            key: AttrKey(0),
            op: CmpOp::Eq,
            value: AttrValue::Text("lyon".into()),
        };
        let a = PathExpr::new(vec![Step::out(LabelId(0))
            .with_cond(age_ge.clone())
            .with_cond(city_eq.clone())]);
        let b = PathExpr::new(vec![Step::out(LabelId(0))
            .with_cond(city_eq.clone())
            .with_cond(age_ge.clone())
            .with_cond(age_ge.clone())]);
        assert_ne!(a, b, "textually different");
        assert_eq!(a.canonical(), b.canonical(), "semantically identical");
        assert_eq!(b.canonical().steps[0].conds.len(), 2, "duplicate dropped");
        // Depth notation is already canonical by construction: [1,2] == [1..2].
        let c = PathExpr::new(vec![Step::out(LabelId(0))
            .with_depths(DepthSet::from_intervals(vec![(1, Some(1)), (2, Some(2))]))]);
        let d = PathExpr::new(vec![
            Step::out(LabelId(0)).with_depths(DepthSet::range(1, 2))
        ]);
        assert_eq!(c, d);
    }

    #[test]
    fn empty_path_properties() {
        let p = PathExpr::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(!p.needs_reverse());
    }
}
