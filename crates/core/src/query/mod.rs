//! Policy query front-end and shared-prefix plan compiler.
//!
//! Two layers on top of the path-expression core:
//!
//! * **Front-end** ([`parse_query`]): an openCypher-flavored query
//!   language — `MATCH (owner)-[:friend*1..2]->(v {age >= 18})` —
//!   that lowers to the same [path AST](crate::path::PathExpr)
//!   the classic syntax (`friend+[1..2]{age>=18}`) parses to, with the
//!   same position-annotated caret errors. [`parse_policy`] accepts
//!   either syntax, so `add_rule` and the CLI take both;
//!   [`render_query`] prints a path back in query syntax.
//! * **Plan compiler** ([`plan::BundlePlan`]): compiles a bundle of
//!   conditions into one shared-prefix trie so the masked multi-source
//!   BFS ([`engine`]) walks each shared prefix **once** and forks
//!   64-bit condition masks only where the paths diverge. It is the
//!   one batched read path of the single-graph, sharded and networked
//!   backends; per-condition evaluation is the oracle it is tested
//!   against.
//!
//! Ad-hoc audience queries enter through
//! [`AccessService::query_audience`](crate::service::AccessService::query_audience):
//!
//! ```
//! use socialreach_core::service::{AccessService, MutateService, Deployment};
//!
//! let mut svc = Deployment::online().build();
//! let alice = svc.add_user("alice");
//! let bob = svc.add_user("bob");
//! let carol = svc.add_user("carol");
//! svc.add_relationship(alice, "friend", bob);
//! svc.add_relationship(bob, "friend", carol);
//!
//! // Friends-of-friends of alice, in either syntax:
//! let a = svc.query_audience(alice, "MATCH (owner)-[:friend*1..2]->(v)").unwrap();
//! let b = svc.query_audience(alice, "friend+[1..2]").unwrap();
//! assert_eq!(a, vec![bob, carol]);
//! assert_eq!(a, b);
//! ```
//!
//! Queries are **read-only**: they are parsed against a clone of the
//! deployment's vocabulary, and a query that mentions a relationship
//! type or attribute key the graph has never seen simply has an empty
//! audience (an unknown label can head no edge, and a predicate on an
//! unknown attribute fails closed — in both cases no step can
//! complete), instead of growing the shared vocabulary as rule
//! registration does.

pub mod engine;
pub mod parse;
pub mod plan;

pub use engine::{
    evaluate_bundle_audiences, evaluate_plan_audiences, evaluate_plan_batch_seeded, PlanBatchState,
};
pub use parse::{looks_like_query, parse_query, render_query};
pub use plan::{BundlePlan, ChunkMasks, PlanNode};

use crate::error::{EvalError, ParseError};
use crate::path::{parse_path, PathExpr};
use socialreach_graph::Vocabulary;

/// Parses a policy/query in **either** syntax: texts that start with
/// the `MATCH` keyword and an opening `(` use the query grammar
/// ([`parse_query`]), everything else the classic path grammar
/// ([`parse_path`]). The dispatch is unambiguous — no path expression
/// starts with `match (` (a relationship type named `match` is
/// followed by `+`/`-`/`*`/`[`/`{`/`/` or the end, never `(`).
pub fn parse_policy(text: &str, vocab: &mut Vocabulary) -> Result<PathExpr, ParseError> {
    if looks_like_query(text) {
        parse_query(text, vocab)
    } else {
        parse_path(text, vocab)
    }
}

/// Parses ad-hoc query texts **read-only** against `vocab`: each text
/// may use either syntax, nothing is interned into the caller's
/// vocabulary, and a query that mentions a label or attribute the
/// vocabulary does not know comes back as `None` — unsatisfiable,
/// because every step must traverse at least one edge of its (never
/// seen) label or pass a predicate on a (never set) attribute, so its
/// audience is empty. Backends must not evaluate `None` entries: their
/// interned ids exceed the real vocabulary.
pub fn parse_queries_readonly(
    texts: &[&str],
    vocab: &Vocabulary,
) -> Result<Vec<Option<PathExpr>>, EvalError> {
    let mut scratch = vocab.clone();
    let labels = vocab.num_labels();
    let attrs = vocab.num_attrs();
    let mut out = Vec::with_capacity(texts.len());
    for text in texts {
        let path = parse_policy(text, &mut scratch)?;
        let grew = scratch.num_labels() != labels || scratch.num_attrs() != attrs;
        out.push(if grew {
            // Unknown vocabulary: provably empty audience. Reset the
            // scratch so one unknown query cannot mask another's.
            scratch = vocab.clone();
            None
        } else {
            Some(path)
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_dispatches_on_syntax() {
        let mut vocab = Vocabulary::new();
        let classic = parse_policy("friend+[1..2]/colleague+[1]", &mut vocab).unwrap();
        let cypher = parse_policy(
            "MATCH (o)-[:friend*1..2]->(a)-[:colleague]->(v)",
            &mut vocab,
        )
        .unwrap();
        assert_eq!(classic, cypher);
        // A relationship type named `match` still parses as a path.
        let p = parse_policy("match+[1]", &mut vocab).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(vocab.label_name(p.steps[0].label), "match");
    }

    #[test]
    fn parse_policy_propagates_caret_errors_from_both_grammars() {
        let mut vocab = Vocabulary::new();
        let e = parse_policy("friend+[0]", &mut vocab).unwrap_err();
        assert!(e.to_string().contains("start at 1"));
        let e = parse_policy("MATCH (o)-[friend]->(v)", &mut vocab).unwrap_err();
        assert!(e.to_string().contains("':' before the relationship type"));
    }

    #[test]
    fn readonly_parsing_never_grows_the_vocabulary() {
        let mut vocab = Vocabulary::new();
        vocab.intern_label("friend");
        vocab.intern_attr("age");
        let before = (vocab.num_labels(), vocab.num_attrs());
        let parsed = parse_queries_readonly(
            &[
                "MATCH (o)-[:friend]->(v {age > 18})",
                "MATCH (o)-[:stranger]->(v)", // unknown label
                "friend+[1]{height>170}",     // unknown attr
                "friend+[1..2]",
            ],
            &vocab,
        )
        .unwrap();
        assert_eq!((vocab.num_labels(), vocab.num_attrs()), before);
        assert!(parsed[0].is_some());
        assert!(parsed[1].is_none(), "unknown label is unsatisfiable");
        assert!(parsed[2].is_none(), "unknown attr is unsatisfiable");
        assert!(
            parsed[3].is_some(),
            "a prior unknown must not poison later queries"
        );
    }

    #[test]
    fn readonly_parsing_surfaces_syntax_errors() {
        let vocab = Vocabulary::new();
        let err = parse_queries_readonly(&["MATCH (o)-[:x*0]->(v)"], &vocab).unwrap_err();
        assert!(matches!(err, EvalError::Parse(_)));
    }
}
