//! Error types of the access-control core.

use std::fmt;

/// Position-annotated syntax error from the path-expression parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source text.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
    /// The offending source text (for caret rendering).
    pub source: String,
}

impl ParseError {
    pub(crate) fn new(pos: usize, message: impl Into<String>, source: &str) -> Self {
        ParseError {
            pos,
            message: message.into(),
            source: source.to_owned(),
        }
    }

    /// The refusal both policy grammars raise at the first step past
    /// [`crate::path::PathExpr::MAX_STEPS`] (`pos` is where it starts).
    pub(crate) fn too_many_steps(pos: usize, source: &str) -> Self {
        let budget = crate::path::PathExpr::MAX_STEPS;
        ParseError::new(pos, format!("a path holds at most {budget} steps"), source)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "path syntax error at byte {}: {}",
            self.pos, self.message
        )?;
        writeln!(f, "  {}", self.source)?;
        write!(f, "  {}^", " ".repeat(self.pos.min(self.source.len())))
    }
}

impl std::error::Error for ParseError {}

/// Errors raised while evaluating access conditions.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// Path parsing failed (when evaluating textual rules).
    Parse(ParseError),
    /// A node id in a rule does not exist in the graph.
    Graph(socialreach_graph::GraphError),
    /// Depth expansion produced more line queries than the configured
    /// limit (`max_line_queries`); §3.1's transformation is exponential
    /// in `∗`-direction steps and wide depth sets.
    PlanOverflow {
        /// Number of line queries the plan would have needed.
        needed: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The candidate tuple set outgrew the configured limit
    /// (`max_tuples`). The paper's full-table join can explode on dense
    /// graphs; benchmarks P5 quantifies this.
    TupleOverflow {
        /// The configured cap.
        limit: usize,
    },
    /// The join index was built without backward edge occurrences but
    /// the policy uses `−` or `∗` steps.
    UnsupportedDirection,
    /// The policy references a resource that was never registered.
    UnknownResource(u64),
    /// A write sets a float attribute to NaN or an infinity, which
    /// neither the write-ahead log nor the wire protocol can carry.
    NonFiniteAttr {
        /// The attribute key.
        key: String,
    },
    /// A networked deployment could not complete the read against its
    /// shard fleet (transport failure, corrupt frame, protocol
    /// violation, or a shard's typed refusal) even after the router's
    /// revive-and-retry pass. The read produced **no** decision — a
    /// transport fault is never converted into a grant or a deny.
    Remote(crate::remote::RemoteError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Parse(e) => write!(f, "{e}"),
            EvalError::Graph(e) => write!(f, "{e}"),
            EvalError::PlanOverflow { needed, limit } => write!(
                f,
                "line-query expansion needs {needed} queries, exceeding the limit of {limit}"
            ),
            EvalError::TupleOverflow { limit } => {
                write!(f, "candidate tuple set exceeded the limit of {limit}")
            }
            EvalError::UnsupportedDirection => write!(
                f,
                "policy uses incoming ('-') or undirected ('*') steps but the join index \
                 was built with augment_reverse = false"
            ),
            EvalError::UnknownResource(r) => write!(f, "unknown resource id {r}"),
            EvalError::NonFiniteAttr { key } => {
                write!(f, "attribute {key:?} must be a finite number")
            }
            EvalError::Remote(e) => write!(f, "remote shard fleet: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ParseError> for EvalError {
    fn from(e: ParseError) -> Self {
        EvalError::Parse(e)
    }
}

impl From<socialreach_graph::GraphError> for EvalError {
    fn from(e: socialreach_graph::GraphError) -> Self {
        EvalError::Graph(e)
    }
}

/// What an in-process read that cannot fail fails with.
impl From<std::convert::Infallible> for EvalError {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}

impl From<crate::remote::RemoteError> for EvalError {
    fn from(e: crate::remote::RemoteError) -> Self {
        EvalError::Remote(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_renders_caret() {
        let e = ParseError::new(3, "unexpected token", "abc!def");
        let s = e.to_string();
        assert!(s.contains("byte 3"));
        assert!(s.contains("abc!def"));
        assert!(s.ends_with("   ^"));
    }

    #[test]
    fn eval_error_messages() {
        let e = EvalError::PlanOverflow {
            needed: 9000,
            limit: 4096,
        };
        assert!(e.to_string().contains("9000"));
        assert!(EvalError::UnsupportedDirection
            .to_string()
            .contains("augment_reverse"));
        assert!(EvalError::UnknownResource(7).to_string().contains('7'));
    }
}
