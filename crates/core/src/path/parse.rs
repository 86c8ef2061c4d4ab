//! Recursive-descent parser for textual path expressions.
//!
//! Grammar (whitespace is permitted between tokens):
//!
//! ```text
//! path    := step ( ('/' | '=') step )*
//! step    := label dir? depths? conds?
//! label   := ident                       -- relationship type
//! dir     := '+' | '-' | '*'             -- default '*' (the model's default)
//! depths  := '[' item (',' item)* ']'    -- default [1]
//! item    := INT | INT '..' INT?         -- level, range, or open range
//! conds   := '{' cond (',' cond)* '}'
//! cond    := ident op value
//! op      := '=' | '==' | '!=' | '<' | '<=' | '>' | '>=' | '~'
//! value   := INT | FLOAT | 'true' | 'false' | '"…"' | ident
//! ident   := [A-Za-z_][A-Za-z0-9_-]*
//! ```
//!
//! Both separators of the paper are accepted: `friend=friend=children`
//! (§1) and `friend+[1,2]/colleague+[1]` (Figure 2). The canonical
//! printer ([`PathExpr::to_text`]) uses `/`.
//!
//! Labels and attribute keys are interned into the supplied
//! [`Vocabulary`] — a policy may mention a relationship type before any
//! edge of that type exists.

use crate::error::ParseError;
use crate::path::ast::{AttrPredicate, CmpOp, DepthSet, PathExpr, Step};
use socialreach_graph::{AttrValue, Direction, Vocabulary};

/// Parses a path expression, interning labels/keys into `vocab`.
pub fn parse_path(text: &str, vocab: &mut Vocabulary) -> Result<PathExpr, ParseError> {
    let mut p = Parser {
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if p.at_end() {
        return Err(p.err("empty path expression"));
    }
    let mut steps = vec![p.step(vocab)?];
    loop {
        p.skip_ws();
        match p.peek() {
            Some(b'/') | Some(b'=') => {
                p.pos += 1;
                p.skip_ws();
                if steps.len() == PathExpr::MAX_STEPS {
                    return Err(ParseError::too_many_steps(p.pos, p.src));
                }
                steps.push(p.step(vocab)?);
            }
            None => break,
            Some(_) => return Err(p.err("expected '/' or end of path")),
        }
    }
    Ok(PathExpr::new(steps))
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
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

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.pos += 1,
            _ => return Err(self.err("expected an identifier")),
        }
        // `-` is NOT an identifier character: it would be ambiguous with
        // the incoming-direction marker (`boss-`). Use `_` in names.
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

    fn step(&mut self, vocab: &mut Vocabulary) -> Result<Step, ParseError> {
        let label_name = self.ident().map_err(|mut e| {
            e.message = "expected a relationship type".into();
            e
        })?;
        let label = vocab.intern_label(label_name);

        self.skip_ws();
        // The model's default direction is '*' (both), per §2 Def. 3.
        let dir = match self.peek() {
            Some(b'+') => {
                self.pos += 1;
                Direction::Out
            }
            Some(b'-') => {
                self.pos += 1;
                Direction::In
            }
            Some(b'*') => {
                self.pos += 1;
                Direction::Both
            }
            _ => Direction::Both,
        };

        self.skip_ws();
        let depths = if self.peek() == Some(b'[') {
            self.pos += 1;
            let mut items = Vec::new();
            loop {
                self.skip_ws();
                let lo = self.integer()?;
                if lo == 0 {
                    return Err(self.err("depth levels start at 1"));
                }
                self.skip_ws();
                let item = if self.peek() == Some(b'.') {
                    self.expect(b'.')?;
                    self.expect(b'.').map_err(|mut e| {
                        e.message = "expected '..' in a depth range".into();
                        e
                    })?;
                    self.skip_ws();
                    if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        let hi = self.integer()?;
                        if hi < lo {
                            return Err(self.err(format!("empty depth range [{lo}..{hi}]")));
                        }
                        (lo, Some(hi))
                    } else {
                        (lo, None)
                    }
                } else {
                    (lo, Some(lo))
                };
                items.push(item);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or ']' in depth set")),
                }
            }
            DepthSet::from_intervals(items)
        } else {
            DepthSet::default()
        };

        self.skip_ws();
        let mut conds = Vec::new();
        if self.peek() == Some(b'{') {
            self.pos += 1;
            loop {
                self.skip_ws();
                conds.push(self.cond(vocab)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}' in condition list")),
                }
            }
        }

        Ok(Step {
            label,
            dir,
            depths,
            conds,
        })
    }

    fn cond(&mut self, vocab: &mut Vocabulary) -> Result<AttrPredicate, ParseError> {
        let key_name = self.ident().map_err(|mut e| {
            e.message = "expected an attribute name".into();
            e
        })?;
        let key = vocab.intern_attr(key_name);
        self.skip_ws();
        let op = match (self.peek(), self.bytes.get(self.pos + 1).copied()) {
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
            _ => return Err(self.err("expected a comparison operator")),
        };
        self.skip_ws();
        let value = self.value()?;
        Ok(AttrPredicate { key, op, value })
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use socialreach_graph::Direction;

    fn parse(text: &str) -> (PathExpr, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let p = parse_path(text, &mut vocab).unwrap_or_else(|e| panic!("{e}"));
        (p, vocab)
    }

    #[test]
    fn parses_q1_from_figure_2() {
        let (p, vocab) = parse("friend+[1,2]/colleague+[1]");
        assert_eq!(p.len(), 2);
        assert_eq!(vocab.label_name(p.steps[0].label), "friend");
        assert_eq!(p.steps[0].dir, Direction::Out);
        assert!(p.steps[0].depths.contains(1) && p.steps[0].depths.contains(2));
        assert!(!p.steps[0].depths.contains(3));
        assert_eq!(p.steps[1].depths.max_depth(), Some(1));
    }

    #[test]
    fn parses_paper_equals_separator() {
        let (p, vocab) = parse("friend=friend=children");
        assert_eq!(p.len(), 3);
        assert_eq!(vocab.label_name(p.steps[2].label), "children");
        // Unannotated steps default to '*' direction and depth [1].
        assert_eq!(p.steps[0].dir, Direction::Both);
        assert_eq!(p.steps[0].depths, DepthSet::single(1));
    }

    #[test]
    fn parses_directions() {
        let (p, _) = parse("friend+/boss-/follows*");
        assert_eq!(p.steps[0].dir, Direction::Out);
        assert_eq!(p.steps[1].dir, Direction::In);
        assert_eq!(p.steps[2].dir, Direction::Both);
    }

    #[test]
    fn parses_depth_ranges_and_open_ranges() {
        let (p, _) = parse("friend+[1..3]/friend+[2..]/friend+[1,4..5]");
        assert_eq!(p.steps[0].depths, DepthSet::range(1, 3));
        assert_eq!(p.steps[1].depths, DepthSet::at_least(2));
        assert_eq!(
            p.steps[2].depths,
            DepthSet::from_intervals(vec![(1, Some(1)), (4, Some(5))])
        );
    }

    #[test]
    fn parses_conditions() {
        let (p, vocab) =
            parse(r#"friend+{age>=18, gender="female"}/colleague+{dept~eng, senior=true}"#);
        let c = &p.steps[0].conds;
        assert_eq!(c.len(), 2);
        assert_eq!(vocab.attr_name(c[0].key), "age");
        assert_eq!(c[0].op, CmpOp::Ge);
        assert_eq!(c[0].value, AttrValue::Int(18));
        assert_eq!(c[1].value, AttrValue::Text("female".into()));
        let c2 = &p.steps[1].conds;
        assert_eq!(c2[0].op, CmpOp::Contains);
        assert_eq!(c2[0].value, AttrValue::Text("eng".into()));
        assert_eq!(c2[1].value, AttrValue::Bool(true));
    }

    #[test]
    fn parses_numeric_literals() {
        let (p, _) = parse("friend+{trust>=0.8, karma>-5}");
        assert_eq!(p.steps[0].conds[0].value, AttrValue::Float(0.8));
        assert_eq!(p.steps[0].conds[1].value, AttrValue::Int(-5));
    }

    #[test]
    fn tolerates_whitespace() {
        let (p, _) = parse("  friend + [ 1 , 2 ] / colleague - [ 2 .. ] ");
        assert_eq!(p.len(), 2);
        assert_eq!(p.steps[1].dir, Direction::In);
        assert!(p.steps[1].depths.is_unbounded());
    }

    #[test]
    fn round_trips_canonical_text() {
        for text in [
            "friend+[1..2]/colleague+[1]",
            "friend*[1..]",
            "parent-[2]",
            "friend+[1]{age>=18}/colleague*[1,3..4]{dept=\"eng\"}",
            "works_with+[1]",
        ] {
            let mut vocab = Vocabulary::new();
            let p1 = parse_path(text, &mut vocab).expect(text);
            let rendered = p1.to_text(&vocab);
            let p2 = parse_path(&rendered, &mut vocab).expect(&rendered);
            assert_eq!(p1, p2, "round trip failed for {text} -> {rendered}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let cases = [
            ("", "empty"),
            ("/friend", "expected a relationship type"),
            ("friend+[0]", "start at 1"),
            ("friend+[3..2]", "empty depth range"),
            ("friend+[1", "expected ',' or ']'"),
            ("friend{age}", "comparison operator"),
            ("friend{age>}", "literal value"),
            ("friend{age>\"x}", "unterminated"),
            ("friend+[]", "expected a number"),
            ("friend korea", "expected '/'"),
            ("friend//friend", "relationship type"),
        ];
        for (text, needle) in cases {
            let mut vocab = Vocabulary::new();
            let err = parse_path(text, &mut vocab).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "error for {text:?} should mention {needle:?}, got: {err}"
            );
        }
    }

    #[test]
    fn depth_one_point_five_is_not_a_range() {
        // `[1.5]` is not valid depth syntax.
        let mut vocab = Vocabulary::new();
        assert!(parse_path("friend+[1.5]", &mut vocab).is_err());
    }
}
