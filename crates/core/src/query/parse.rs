//! Recursive-descent parser for the openCypher-flavored query syntax.
//!
//! Grammar (whitespace is permitted between tokens; `MATCH` is
//! case-insensitive):
//!
//! ```text
//! query := 'MATCH' node ( rel node )*
//! node  := '(' ident? props? ')'
//! props := '{' prop ( ',' prop )* '}'
//! prop  := ident ( ':' value | op value )
//! rel   := '-[' ':' label hops? ']->'     -- outgoing  ('+')
//!        | '<-[' ':' label hops? ']-'     -- incoming  ('-')
//!        | '-[' ':' label hops? ']-'      -- undirected ('*')
//! hops  := '*' ( INT ( '..' INT? )? | '..' INT )?
//! op    := '=' | '==' | '!=' | '<' | '<=' | '>' | '>=' | '~'
//! value := INT | FLOAT | 'true' | 'false' | '"…"' | ident
//! ident := [A-Za-z_][A-Za-z0-9_]*
//! ```
//!
//! `MATCH (owner)-[:friend*1..2]->(v {age >= 18})` lowers to the path
//! expression `friend+[1..2]{age>=18}` — each relationship pattern
//! becomes one [`Step`] and the properties of the node it *reaches*
//! become that step's attribute conditions. The first node is the
//! owner anchor; its variable name is decorative and properties on it
//! are rejected (the owner is given by the request, not matched).
//! `MATCH (owner)` alone is the empty path, whose audience is the
//! owner themself.
//!
//! Hop counts follow openCypher: no star means one hop, `*` alone
//! means `1..` (unbounded), `*3` exactly three, `*1..2` a range,
//! `*2..` an open range, and `*..3` is `1..3`. Node labels
//! (`(:colleague)`) are rejected with a caret error — members are
//! untyped in the paper's model; constrain them with `{key op value}`
//! properties instead.

use crate::error::ParseError;
use crate::path::ast::{AttrPredicate, CmpOp, DepthSet, PathExpr, Step};
use socialreach_graph::{AttrValue, Direction, Vocabulary};

/// Parses an openCypher-flavored query, interning labels/keys into
/// `vocab`. See the module docs for the grammar.
pub fn parse_query(text: &str, vocab: &mut Vocabulary) -> Result<PathExpr, ParseError> {
    let mut p = Parser {
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
        anchor_props_pos: 0,
    };
    p.skip_ws();
    if p.at_end() {
        return Err(p.err("empty query"));
    }
    if !p.keyword("match") {
        return Err(p.err("expected the MATCH keyword"));
    }
    p.skip_ws();
    // Owner anchor: name only, no properties.
    let anchor_props = p.node(vocab)?;
    if !anchor_props.is_empty() {
        return Err(ParseError::new(
            p.anchor_props_pos,
            "properties on the owner anchor are not supported: the owner is \
             given by the request, not matched",
            p.src,
        ));
    }
    let mut steps = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        if steps.len() == PathExpr::MAX_STEPS {
            return Err(ParseError::too_many_steps(p.pos, p.src));
        }
        let (label_name, dir, depths) = p.rel()?;
        let label = vocab.intern_label(label_name);
        p.skip_ws();
        let conds = p.node(vocab)?;
        steps.push(Step {
            label,
            dir,
            depths,
            conds,
        });
    }
    Ok(PathExpr::new(steps))
}

/// Does `text` look like the query syntax rather than a classic path
/// expression? True when it starts (after whitespace) with the
/// case-insensitive keyword `MATCH` followed by an opening `(` — the
/// one shape no path expression can take (`match` alone is a valid
/// relationship type).
pub fn looks_like_query(text: &str) -> bool {
    let rest = text.trim_start();
    let Some(after) = rest
        .get(..5)
        .filter(|kw| kw.eq_ignore_ascii_case("match"))
        .map(|_| &rest[5..])
    else {
        return false;
    };
    after.trim_start().starts_with('(')
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Where the anchor's property block started (for its error caret).
    anchor_props_pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, msg, self.src)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    /// Consumes `word` case-insensitively if it is the next token.
    fn keyword(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        let matches = self
            .src
            .get(self.pos..end)
            .is_some_and(|s| s.eq_ignore_ascii_case(word));
        // The keyword must not run into a longer identifier (`matches`).
        let bounded =
            !matches!(self.bytes.get(end), Some(c) if c.is_ascii_alphanumeric() || *c == b'_');
        if matches && bounded {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.pos += 1,
            _ => return Err(self.err("expected an identifier")),
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        Ok(&self.src[start..self.pos])
    }

    fn integer(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        self.src[start..self.pos]
            .parse::<u32>()
            .map_err(|_| ParseError::new(start, "depth does not fit in u32", self.src))
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    /// Parses a node pattern `( name? props? )`, returning its
    /// property predicates.
    fn node(&mut self, vocab: &mut Vocabulary) -> Result<Vec<AttrPredicate>, ParseError> {
        self.expect(b'(').map_err(|mut e| {
            e.message = "expected '(' to open a node pattern".into();
            e
        })?;
        self.skip_ws();
        if self.peek() == Some(b':') {
            return Err(self.err(
                "node labels are not supported: members are untyped — constrain \
                 them with {key op value} properties instead",
            ));
        }
        if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
            self.ident()?; // variable name, decorative
            self.skip_ws();
        }
        let mut conds = Vec::new();
        if self.peek() == Some(b'{') {
            self.anchor_props_pos = self.pos;
            self.pos += 1;
            loop {
                self.skip_ws();
                conds.push(self.prop(vocab)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}' in property list")),
                }
            }
            self.skip_ws();
        }
        self.expect(b')').map_err(|mut e| {
            e.message = "expected ')' to close the node pattern".into();
            e
        })?;
        Ok(conds)
    }

    /// Parses one property predicate `key (':' | op) value`. The
    /// openCypher `key: value` form is sugar for equality.
    fn prop(&mut self, vocab: &mut Vocabulary) -> Result<AttrPredicate, ParseError> {
        let key_name = self.ident().map_err(|mut e| {
            e.message = "expected a property name".into();
            e
        })?;
        let key = vocab.intern_attr(key_name);
        self.skip_ws();
        let op = match (self.peek(), self.bytes.get(self.pos + 1).copied()) {
            (Some(b':'), _) => {
                self.pos += 1;
                CmpOp::Eq
            }
            (Some(b'='), Some(b'=')) => {
                self.pos += 2;
                CmpOp::Eq
            }
            (Some(b'='), _) => {
                self.pos += 1;
                CmpOp::Eq
            }
            (Some(b'!'), Some(b'=')) => {
                self.pos += 2;
                CmpOp::Ne
            }
            (Some(b'<'), Some(b'=')) => {
                self.pos += 2;
                CmpOp::Le
            }
            (Some(b'<'), _) => {
                self.pos += 1;
                CmpOp::Lt
            }
            (Some(b'>'), Some(b'=')) => {
                self.pos += 2;
                CmpOp::Ge
            }
            (Some(b'>'), _) => {
                self.pos += 1;
                CmpOp::Gt
            }
            (Some(b'~'), _) => {
                self.pos += 1;
                CmpOp::Contains
            }
            _ => return Err(self.err("expected ':' or a comparison operator")),
        };
        self.skip_ws();
        let value = self.value()?;
        Ok(AttrPredicate { key, op, value })
    }

    /// Parses a relationship pattern, returning the label name, the
    /// lowered direction and the depth set.
    fn rel(&mut self) -> Result<(&'a str, Direction, DepthSet), ParseError> {
        let incoming = match self.peek() {
            Some(b'<') => {
                self.pos += 1;
                self.expect(b'-')?;
                true
            }
            Some(b'-') => {
                self.pos += 1;
                false
            }
            _ => return Err(self.err("expected a relationship pattern or end of query")),
        };
        self.expect(b'[').map_err(|mut e| {
            e.message = "expected '[' to open the relationship pattern".into();
            e
        })?;
        self.skip_ws();
        self.expect(b':').map_err(|mut e| {
            e.message = "expected ':' before the relationship type".into();
            e
        })?;
        self.skip_ws();
        let label = self.ident().map_err(|mut e| {
            e.message = "expected a relationship type".into();
            e
        })?;
        self.skip_ws();
        let depths = if self.peek() == Some(b'*') {
            self.pos += 1;
            self.hops()?
        } else {
            DepthSet::default()
        };
        self.skip_ws();
        self.expect(b']').map_err(|mut e| {
            e.message = "expected ']' to close the relationship pattern".into();
            e
        })?;
        self.expect(b'-')?;
        let dir = if incoming {
            if self.peek() == Some(b'>') {
                return Err(self.err(
                    "a relationship cannot point both ways: \
                                     use -[:r]- for either direction",
                ));
            }
            Direction::In
        } else if self.peek() == Some(b'>') {
            self.pos += 1;
            Direction::Out
        } else {
            Direction::Both
        };
        Ok((label, dir, depths))
    }

    /// Parses the hop spec after `*`: nothing (`1..`), `n`, `n..`,
    /// `n..m`, or `..m` (= `1..m`).
    fn hops(&mut self) -> Result<DepthSet, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c.is_ascii_digit() => {
                let at = self.pos;
                let lo = self.integer()?;
                if lo == 0 {
                    return Err(ParseError::new(at, "hop counts start at 1", self.src));
                }
                self.skip_ws();
                if self.peek() == Some(b'.') {
                    self.expect(b'.')?;
                    self.expect(b'.').map_err(|mut e| {
                        e.message = "expected '..' in a hop range".into();
                        e
                    })?;
                    self.skip_ws();
                    if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        let hi = self.integer()?;
                        if hi < lo {
                            return Err(self.err(format!("empty hop range *{lo}..{hi}")));
                        }
                        Ok(DepthSet::range(lo, hi))
                    } else {
                        Ok(DepthSet::at_least(lo))
                    }
                } else {
                    Ok(DepthSet::single(lo))
                }
            }
            Some(b'.') => {
                self.expect(b'.')?;
                self.expect(b'.').map_err(|mut e| {
                    e.message = "expected '..' in a hop range".into();
                    e
                })?;
                self.skip_ws();
                let hi = self.integer().map_err(|mut e| {
                    e.message = "expected an upper hop bound after '..'".into();
                    e
                })?;
                if hi == 0 {
                    return Err(self.err("hop counts start at 1"));
                }
                Ok(DepthSet::range(1, hi))
            }
            // Bare '*': any number of hops.
            _ => Ok(DepthSet::at_least(1)),
        }
    }

    /// Literal values share the path parser's shapes.
    fn value(&mut self) -> Result<AttrValue, ParseError> {
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'"' {
                        let s = &self.src[start..self.pos];
                        self.pos += 1;
                        return Ok(AttrValue::Text(s.to_owned()));
                    }
                    self.pos += 1;
                }
                Err(self.err("unterminated string literal"))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
                let mut is_float = false;
                if self.peek() == Some(b'.')
                    && matches!(self.bytes.get(self.pos + 1), Some(c) if c.is_ascii_digit())
                {
                    is_float = true;
                    self.pos += 1;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                let text = &self.src[start..self.pos];
                if is_float {
                    text.parse::<f64>()
                        .map(AttrValue::Float)
                        .map_err(|_| ParseError::new(start, "invalid float literal", self.src))
                } else {
                    text.parse::<i64>()
                        .map(AttrValue::Int)
                        .map_err(|_| ParseError::new(start, "invalid integer literal", self.src))
                }
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let word = self.ident()?;
                Ok(match word {
                    "true" => AttrValue::Bool(true),
                    "false" => AttrValue::Bool(false),
                    other => AttrValue::Text(other.to_owned()),
                })
            }
            _ => Err(self.err("expected a literal value")),
        }
    }
}

/// Renders a path expression back into the query syntax, or `None`
/// when the path is inexpressible in it (a step whose depth set has
/// holes, e.g. `[1,4..5]` — the `*lo..hi` hop syntax covers only a
/// single interval).
pub fn render_query(path: &PathExpr, vocab: &Vocabulary) -> Option<String> {
    use std::fmt::Write as _;
    let mut out = String::from("MATCH (owner)");
    for (i, s) in path.steps.iter().enumerate() {
        let ivals = s.depths.intervals();
        if ivals.len() != 1 {
            return None;
        }
        let hops = match ivals[0] {
            (1, Some(1)) => String::new(),
            (d, Some(h)) if h == d => format!("*{d}"),
            (1, None) => "*".to_owned(),
            (lo, None) => format!("*{lo}.."),
            (lo, Some(hi)) => format!("*{lo}..{hi}"),
        };
        let (open, close) = match s.dir {
            Direction::Out => ("-[", "]->"),
            Direction::In => ("<-[", "]-"),
            Direction::Both => ("-[", "]-"),
        };
        let _ = write!(out, "{open}:{}{hops}{close}", vocab.label_name(s.label));
        let _ = write!(out, "(u{}", i + 1);
        if !s.conds.is_empty() {
            out.push_str(" {");
            for (j, c) in s.conds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let op = match c.op {
                    CmpOp::Eq => ":".to_owned(),
                    other => format!(" {}", other.symbol()),
                };
                let _ = write!(
                    out,
                    "{}{op} {}",
                    vocab.attr_name(c.key),
                    crate::path::ast::render_value(&c.value)
                );
            }
            out.push('}');
        }
        out.push(')');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;

    fn parse(text: &str) -> (PathExpr, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let p = parse_query(text, &mut vocab).unwrap_or_else(|e| panic!("{e}"));
        (p, vocab)
    }

    #[test]
    fn lowers_the_issue_example() {
        let (p, vocab) = parse("MATCH (owner)-[:friend*1..2]->(v {age >= 18})");
        assert_eq!(p.len(), 1);
        assert_eq!(vocab.label_name(p.steps[0].label), "friend");
        assert_eq!(p.steps[0].dir, Direction::Out);
        assert_eq!(p.steps[0].depths, DepthSet::range(1, 2));
        assert_eq!(p.steps[0].conds.len(), 1);
        assert_eq!(vocab.attr_name(p.steps[0].conds[0].key), "age");
        assert_eq!(p.steps[0].conds[0].op, CmpOp::Ge);
        assert_eq!(p.steps[0].conds[0].value, AttrValue::Int(18));
    }

    #[test]
    fn query_and_path_syntax_lower_identically() {
        let cases = [
            (
                "MATCH (owner)-[:friend*1..2]->(a)-[:colleague]-(b {age >= 18})",
                "friend+[1..2]/colleague*[1]{age>=18}",
            ),
            ("MATCH (o)<-[:boss]-(v)", "boss-[1]"),
            ("MATCH (o)-[:friend*]-(v)", "friend*[1..]"),
            ("MATCH (o)-[:friend*3]->(v)", "friend+[3]"),
            ("MATCH (o)-[:friend*2..]->(v)", "friend+[2..]"),
            ("MATCH (o)-[:friend*..3]->(v)", "friend+[1..3]"),
            (
                r#"MATCH (o)-[:works]-(v {dept: "eng", senior: true})"#,
                r#"works*[1]{dept="eng",senior=true}"#,
            ),
        ];
        for (query, path) in cases {
            let mut vq = Vocabulary::new();
            let from_query = parse_query(query, &mut vq).unwrap_or_else(|e| panic!("{e}"));
            let mut vp = Vocabulary::new();
            let from_path = parse_path(path, &mut vp).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(from_query, from_path, "{query} should lower to {path}");
        }
    }

    #[test]
    fn match_keyword_is_case_insensitive_and_anchor_named_freely() {
        let (p, _) = parse("match (alice)-[:friend]->(f)");
        assert_eq!(p.len(), 1);
        let (p, _) = parse("Match(owner)");
        assert!(p.is_empty(), "MATCH (owner) alone is the empty path");
    }

    #[test]
    fn anonymous_and_unnamed_nodes_accepted() {
        let (p, _) = parse("MATCH (o)-[:friend]->()-[:colleague]->( {age > 30} )");
        assert_eq!(p.len(), 2);
        assert_eq!(p.steps[1].conds.len(), 1);
        assert!(p.steps[0].conds.is_empty());
    }

    #[test]
    fn colon_property_is_equality_sugar() {
        let (p, _) = parse(r#"MATCH (o)-[:friend]-(v {city: "lyon"})"#);
        assert_eq!(p.steps[0].conds[0].op, CmpOp::Eq);
        assert_eq!(p.steps[0].conds[0].value, AttrValue::Text("lyon".into()));
    }

    #[test]
    fn rejects_malformed_queries_with_caret_errors() {
        let cases = [
            ("", "empty query"),
            ("friend+[1]", "expected the MATCH keyword"),
            ("MATCH owner", "expected '(' to open a node pattern"),
            ("MATCH (owner {age: 3})-[:friend]->(v)", "owner anchor"),
            (
                "MATCH (o)-[:friend]->(:colleague)",
                "node labels are not supported",
            ),
            (
                "MATCH (o)-[friend]->(v)",
                "expected ':' before the relationship type",
            ),
            ("MATCH (o)-[:friend*0]->(v)", "hop counts start at 1"),
            ("MATCH (o)-[:friend*3..2]->(v)", "empty hop range"),
            ("MATCH (o)-[:friend*..]->(v)", "upper hop bound"),
            ("MATCH (o)<-[:friend]->(v)", "cannot point both ways"),
            (
                "MATCH (o)-[:friend]->(v",
                "expected ')' to close the node pattern",
            ),
            (
                "MATCH (o)-[:friend->(v)",
                "expected ']' to close the relationship pattern",
            ),
            (
                "MATCH (o)-[:friend]->(v {age})",
                "expected ':' or a comparison operator",
            ),
            (
                "MATCH (o)-[:friend]->(v) nonsense",
                "relationship pattern or end of query",
            ),
        ];
        for (text, needle) in cases {
            let mut vocab = Vocabulary::new();
            let err = parse_query(text, &mut vocab).expect_err(text);
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "error for {text:?} should mention {needle:?}, got: {msg}"
            );
            assert!(msg.contains('^'), "caret missing for {text:?}: {msg}");
        }
    }

    #[test]
    fn looks_like_query_dispatch() {
        assert!(looks_like_query("MATCH (owner)"));
        assert!(looks_like_query("  match ( o )-[:friend]->(v)"));
        assert!(looks_like_query("Match(o)"));
        assert!(!looks_like_query("friend+[1,2]/colleague+[1]"));
        assert!(!looks_like_query("match")); // a relationship type named `match`
        assert!(!looks_like_query("match+[1]"));
        assert!(!looks_like_query("matches (o)")); // longer identifier
        assert!(!looks_like_query("match_this/friend"));
    }

    #[test]
    fn render_round_trips_and_reports_inexpressible() {
        let texts = [
            "MATCH (owner)-[:friend*1..2]->(u1)-[:colleague]-(u2 {age >= 18})",
            "MATCH (owner)<-[:boss]-(u1)",
            "MATCH (owner)-[:friend*]-(u1)-[:friend*2..]->(u2)",
            r#"MATCH (owner)-[:works]-(u1 {dept: "eng", trust > 0.5, senior: true})"#,
            "MATCH (owner)",
        ];
        for text in texts {
            let mut vocab = Vocabulary::new();
            let p1 = parse_query(text, &mut vocab).unwrap_or_else(|e| panic!("{e}"));
            let rendered = render_query(&p1, &vocab).expect(text);
            let p2 = parse_query(&rendered, &mut vocab).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(p1, p2, "round trip failed: {text} -> {rendered}");
        }
        // Depth sets with holes have no hop syntax.
        let mut vocab = Vocabulary::new();
        let p = parse_path("friend+[1,4..5]", &mut vocab).unwrap();
        assert_eq!(render_query(&p, &vocab), None);
    }
}
