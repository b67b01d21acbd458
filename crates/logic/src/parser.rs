//! A text syntax for schema mappings.
//!
//! Grammar (informal):
//!
//! ```text
//! mapping    := (decl | rule)* ;
//! decl       := ("source" | "target") Ident "(" attrs ")" ";"
//!             | "key" Ident "(" attrs ")" ";"
//! rule       := conj "->" disj ";"
//! conj       := atom ("&" atom)*
//! disj       := conj ("|" conj)*          -- "|" only in disjunctive rules
//! atom       := Ident "(" term ("," term)* ")"
//! term       := Ident | Int | String | "true" | "false"
//! ```
//!
//! Variables are lowercase-initial identifiers; existential
//! quantification is implicit (a right-hand-side variable not occurring
//! on the left is existential, exactly as in the paper's formula (1)).
//! Comments run from `--` or `//` to end of line.
//!
//! Example (the paper's Figure 1 mapping):
//!
//! ```text
//! source Takes(name, course);
//! target Student(id, name);
//! target Assgn(name, course);
//! Takes(x, y) -> Student(z, x) & Assgn(x, y);
//! ```

// The parser is the boundary where untrusted bytes enter the system:
// every failure on malformed input must surface as a `ParseError`, never
// a panic. The lints below make that a compile-time guarantee (the test
// module opts back out — panicking on a failed assertion is the point).
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![deny(clippy::panic)]

use crate::atom::Atom;
use crate::mapping::Mapping;
use crate::print::key_egds;
use crate::span::{SourceMap, Span};
use crate::term::Term;
use crate::tgd::{DisjTgd, Egd, StTgd};
use dex_relational::{Constant, Fd, Name, RelSchema, Schema};
use std::fmt;

/// A parse failure, with 1-based line/column of the offending token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// Build a parse error anchored at the start of `span`.
    fn at(span: Span, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: span.line,
            col: span.col,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Arrow,
    Amp,
    Pipe,
    Eq,
    Turnstile,
    Eof,
}

#[derive(Clone, Debug)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    col: usize,
    end_line: usize,
    end_col: usize,
}

impl SpannedTok {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
            end_line: self.end_line,
            end_col: self.end_col,
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = input.chars().peekable();
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }
    loop {
        let (l, c0) = (line, col);
        let Some(&c) = chars.peek() else {
            out.push(SpannedTok {
                tok: Tok::Eof,
                line,
                col,
                end_line: line,
                end_col: col,
            });
            return Ok(out);
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '(' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::LParen,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            ')' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::RParen,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            ',' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::Comma,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            ';' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::Semi,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            '&' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::Amp,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            '|' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::Pipe,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            '=' => {
                bump!();
                out.push(SpannedTok {
                    tok: Tok::Eq,
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            ':' => {
                bump!();
                if chars.peek() == Some(&'-') {
                    bump!();
                    out.push(SpannedTok {
                        tok: Tok::Turnstile,
                        line: l,
                        col: c0,
                        end_line: line,
                        end_col: col,
                    });
                } else {
                    return Err(ParseError {
                        message: "expected `:-`".into(),
                        line: l,
                        col: c0,
                    });
                }
            }
            '-' => {
                bump!();
                match chars.peek() {
                    Some('>') => {
                        bump!();
                        out.push(SpannedTok {
                            tok: Tok::Arrow,
                            line: l,
                            col: c0,
                            end_line: line,
                            end_col: col,
                        });
                    }
                    Some('-') => {
                        // comment to end of line
                        while let Some(&c2) = chars.peek() {
                            if c2 == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let mut n = String::from("-");
                        while let Some(&d) = chars.peek() {
                            if d.is_ascii_digit() {
                                n.push(d);
                                bump!();
                            } else {
                                break;
                            }
                        }
                        let v = n.parse::<i64>().map_err(|_| ParseError {
                            message: format!("bad integer literal {n}"),
                            line: l,
                            col: c0,
                        })?;
                        out.push(SpannedTok {
                            tok: Tok::Int(v),
                            line: l,
                            col: c0,
                            end_line: line,
                            end_col: col,
                        });
                    }
                    _ => {
                        return Err(ParseError {
                            message: "expected `->`, `--`, or a number after `-`".into(),
                            line: l,
                            col: c0,
                        })
                    }
                }
            }
            '/' => {
                bump!();
                if chars.peek() == Some(&'/') {
                    while let Some(&c2) = chars.peek() {
                        if c2 == '\n' {
                            break;
                        }
                        bump!();
                    }
                } else {
                    return Err(ParseError {
                        message: "expected `//`".into(),
                        line: l,
                        col: c0,
                    });
                }
            }
            '\'' | '"' => {
                let quote = c;
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some(c2) if c2 == quote => break,
                        Some(c2) => s.push(c2),
                        None => {
                            return Err(ParseError {
                                message: "unterminated string literal".into(),
                                line: l,
                                col: c0,
                            })
                        }
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Str(s),
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            d if d.is_ascii_digit() => {
                let mut n = String::new();
                while let Some(&d2) = chars.peek() {
                    if d2.is_ascii_digit() {
                        n.push(d2);
                        bump!();
                    } else {
                        break;
                    }
                }
                let v = n.parse::<i64>().map_err(|_| ParseError {
                    message: format!("bad integer literal {n}"),
                    line: l,
                    col: c0,
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(v),
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            a if a.is_alphabetic() || a == '_' => {
                let mut s = String::new();
                while let Some(&a2) = chars.peek() {
                    if a2.is_alphanumeric() || a2 == '_' {
                        s.push(a2);
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(s),
                    line: l,
                    col: c0,
                    end_line: line,
                    end_col: col,
                });
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character {other:?}"),
                    line: l,
                    col: c0,
                })
            }
        }
    }
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &SpannedTok {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    /// Span of the token about to be consumed.
    fn cur_span(&self) -> Span {
        self.peek().span()
    }

    /// Span of the most recently consumed token.
    fn last_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span()
    }

    fn next(&mut self) -> SpannedTok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParseError> {
        if &self.peek().tok == tok {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                match s.as_str() {
                    "true" => Ok(Term::cnst(true)),
                    "false" => Ok(Term::cnst(false)),
                    _ => Ok(Term::var(s)),
                }
            }
            Tok::Int(i) => {
                self.next();
                Ok(Term::Const(Constant::Int(i)))
            }
            Tok::Str(s) => {
                self.next();
                Ok(Term::Const(Constant::Str(s)))
            }
            _ => Err(self.err("expected a term (variable, number, or string)")),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let rel = self.ident("a relation name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = vec![self.term()?];
        while self.peek().tok == Tok::Comma {
            self.next();
            args.push(self.term()?);
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(Atom::new(rel, args))
    }

    fn conjunction(&mut self) -> Result<Vec<Atom>, ParseError> {
        let mut atoms = vec![self.atom()?];
        while self.peek().tok == Tok::Amp {
            self.next();
            atoms.push(self.atom()?);
        }
        Ok(atoms)
    }

    /// rule := conj -> conj (| conj)* ;   (a tgd)
    fn rule(&mut self) -> Result<DisjTgd, ParseError> {
        match self.rule_or_egd()? {
            Rule::Tgd(d) => Ok(d),
            Rule::Egd(_) => Err(self.err("expected a tgd, found an egd rule")),
        }
    }

    /// rule := conj -> conj (| conj)* ;             (a tgd)
    ///       | conj -> term = term (& term = term)* ; (an egd)
    fn rule_or_egd(&mut self) -> Result<Rule, ParseError> {
        let lhs = self.conjunction()?;
        self.expect(&Tok::Arrow, "`->`")?;
        // Lookahead: `Ident (` begins an atom (tgd); `term =` begins an
        // equality (egd).
        let is_atom = matches!(
            (
                &self.toks[self.pos].tok,
                self.toks.get(self.pos + 1).map(|t| &t.tok)
            ),
            (Tok::Ident(_), Some(Tok::LParen))
        );
        if is_atom {
            let mut disjuncts = vec![self.conjunction()?];
            while self.peek().tok == Tok::Pipe {
                self.next();
                disjuncts.push(self.conjunction()?);
            }
            self.expect(&Tok::Semi, "`;`")?;
            Ok(Rule::Tgd(DisjTgd::new(lhs, disjuncts)))
        } else {
            let mut equalities = Vec::new();
            loop {
                let a = self.term()?;
                self.expect(&Tok::Eq, "`=`")?;
                let b = self.term()?;
                equalities.push((a, b));
                if self.peek().tok == Tok::Amp {
                    self.next();
                    continue;
                }
                break;
            }
            self.expect(&Tok::Semi, "`;`")?;
            Ok(Rule::Egd(Egd::new(lhs, equalities)))
        }
    }

    fn attr_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut attrs = vec![self.ident("an attribute name")?];
        while self.peek().tok == Tok::Comma {
            self.next();
            attrs.push(self.ident("an attribute name")?);
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(attrs)
    }
}

/// A parsed rule: either a (disjunctive) tgd or an egd.
enum Rule {
    Tgd(DisjTgd),
    Egd(Egd),
}

/// Parse a conjunctive query like `q(x, c) :- Student(i, x), Assgn(x, c)`
/// (commas or `&` separate body atoms). Returns the head variables and
/// the body.
pub fn parse_query(input: &str) -> Result<(Vec<Name>, Vec<Atom>), ParseError> {
    let toks = tokenize(input.trim())?;
    let mut p = Parser { toks, pos: 0 };
    let _name = p.ident("a query name")?;
    p.expect(&Tok::LParen, "`(`")?;
    let mut head = Vec::new();
    if p.peek().tok != Tok::RParen {
        head.push(Name::new(p.ident("a head variable")?));
        while p.peek().tok == Tok::Comma {
            p.next();
            head.push(Name::new(p.ident("a head variable")?));
        }
    }
    p.expect(&Tok::RParen, "`)`")?;
    p.expect(&Tok::Turnstile, "`:-`")?;
    let mut body = vec![p.atom()?];
    while matches!(p.peek().tok, Tok::Comma | Tok::Amp) {
        p.next();
        body.push(p.atom()?);
    }
    if p.peek().tok == Tok::Semi {
        p.next();
    }
    if p.peek().tok != Tok::Eof {
        return Err(p.err("trailing input after query"));
    }
    Ok((head, body))
}

/// Parse a single egd rule like
/// `Manager(x, y) & Manager(x, z) -> y = z;`.
pub fn parse_egd(input: &str) -> Result<Egd, ParseError> {
    let mut input = input.trim().to_string();
    if !input.ends_with(';') {
        input.push(';');
    }
    let toks = tokenize(&input)?;
    let mut p = Parser { toks, pos: 0 };
    match p.rule_or_egd()? {
        Rule::Egd(e) => {
            if p.peek().tok != Tok::Eof {
                return Err(p.err("trailing input after rule"));
            }
            Ok(e)
        }
        Rule::Tgd(_) => Err(p.err("expected an egd (t1 = t2 on the right-hand side)")),
    }
}

/// Parse a single tgd rule like `Emp(x) -> Manager(x, y);` (the
/// trailing `;` is optional here).
pub fn parse_tgd(input: &str) -> Result<StTgd, ParseError> {
    let mut input = input.trim().to_string();
    if !input.ends_with(';') {
        input.push(';');
    }
    let toks = tokenize(&input)?;
    let mut p = Parser { toks, pos: 0 };
    let mut d = p.rule()?;
    if d.disjuncts.len() != 1 {
        return Err(p.err("expected a non-disjunctive tgd"));
    }
    if p.peek().tok != Tok::Eof {
        return Err(p.err("trailing input after rule"));
    }
    let Some(rhs) = d.disjuncts.pop() else {
        return Err(p.err("rule has no right-hand side"));
    };
    Ok(StTgd::new(d.lhs, rhs))
}

/// Parse a disjunctive tgd rule like `Parent(x,y) -> Father(x,y) | Mother(x,y);`.
pub fn parse_disj_tgd(input: &str) -> Result<DisjTgd, ParseError> {
    let mut input = input.trim().to_string();
    if !input.ends_with(';') {
        input.push(';');
    }
    let toks = tokenize(&input)?;
    let mut p = Parser { toks, pos: 0 };
    let d = p.rule()?;
    if p.peek().tok != Tok::Eof {
        return Err(p.err("trailing input after rule"));
    }
    Ok(d)
}

/// Parse a full mapping file: `source`/`target`/`key` declarations plus
/// rules. Rules whose left-hand relations are all target relations are
/// classified as *target tgds*; rules with equalities on the right are
/// target egds; everything else must be an st-tgd.
///
/// ```
/// use dex_logic::parse_mapping;
///
/// let m = parse_mapping(r#"
///     source Emp(name);
///     target Manager(emp, mgr);
///     key Manager(emp);
///     Emp(x) -> Manager(x, y);
/// "#).unwrap();
/// assert_eq!(m.st_tgds().len(), 1);
/// assert_eq!(m.target_egds().len(), 1);
/// assert_eq!(
///     m.st_tgds()[0].to_string(),
///     "∀x (Emp(x) → ∃y Manager(x, y))"
/// );
/// ```
pub fn parse_mapping(input: &str) -> Result<Mapping, ParseError> {
    parse_mapping_with_spans(input).map(|(m, _)| m)
}

/// Like [`parse_mapping`], but also returns a [`SourceMap`] locating
/// every declaration and rule in the input text. The map's vectors are
/// aligned index-for-index with the mapping's accessors, so tooling
/// (e.g. the `dex-analyze` lint pass) can attach diagnostics to
/// concrete source spans.
pub fn parse_mapping_with_spans(input: &str) -> Result<(Mapping, SourceMap), ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser { toks, pos: 0 };
    let mut source = Schema::new();
    let mut target = Schema::new();
    let mut keys: Vec<(String, Vec<String>, Span)> = Vec::new();
    let mut rules: Vec<(DisjTgd, Span)> = Vec::new();
    let mut egd_rules: Vec<(Egd, Span)> = Vec::new();
    let mut map = SourceMap::default();

    loop {
        let start = p.cur_span();
        match p.peek().tok.clone() {
            Tok::Eof => break,
            Tok::Ident(kw) if kw == "source" || kw == "target" => {
                // Lookahead: `source Rel(attrs);` — but `source` could in
                // principle be a relation name in a rule; we require
                // declarations to look like `source Ident (`.
                let save = p.pos;
                p.next();
                if matches!(p.peek().tok, Tok::Ident(_)) {
                    let rel = p.ident("a relation name")?;
                    let attrs = p.attr_list()?;
                    p.expect(&Tok::Semi, "`;`")?;
                    let span = start.merge(p.last_span());
                    // Check vocabulary disjointness eagerly, so the
                    // error points at the second declaration.
                    let other = if kw == "source" { &target } else { &source };
                    if other.relation(&rel).is_some() {
                        return Err(ParseError::at(
                            span,
                            format!(
                                "relation `{rel}` is declared in both the source and \
                                 the target schema"
                            ),
                        ));
                    }
                    let rs = RelSchema::untyped(rel.clone(), attrs)
                        .map_err(|e| ParseError::at(span, e.to_string()))?;
                    if kw == "source" {
                        source
                            .add_relation(rs)
                            .map_err(|e| ParseError::at(span, e.to_string()))?;
                        map.source_decls.push((rel, span));
                    } else {
                        target
                            .add_relation(rs)
                            .map_err(|e| ParseError::at(span, e.to_string()))?;
                        map.target_decls.push((rel, span));
                    }
                } else {
                    // Not a declaration after all: re-parse as a rule.
                    p.pos = save;
                    match p.rule_or_egd()? {
                        Rule::Tgd(d) => rules.push((d, start.merge(p.last_span()))),
                        Rule::Egd(e) => egd_rules.push((e, start.merge(p.last_span()))),
                    }
                }
            }
            Tok::Ident(kw) if kw == "key" => {
                p.next();
                let rel = p.ident("a relation name")?;
                let attrs = p.attr_list()?;
                p.expect(&Tok::Semi, "`;`")?;
                keys.push((rel, attrs, start.merge(p.last_span())));
            }
            Tok::Ident(_) => match p.rule_or_egd()? {
                Rule::Tgd(d) => rules.push((d, start.merge(p.last_span()))),
                Rule::Egd(e) => egd_rules.push((e, start.merge(p.last_span()))),
            },
            _ => return Err(p.err("expected a declaration or a rule")),
        }
    }
    // Errors detected only after the whole input is consumed anchor at
    // the end of input (the Eof token's true position — never 0:0).
    let eof_span = p.cur_span();

    // Apply key declarations: FD on the schema + an egd if on the target.
    let mut target_egds: Vec<(Egd, Span)> = Vec::new();
    for (rel, attrs, span) in keys {
        let (is_target, rs) = if let Some(rs) = target.relation(&rel) {
            (true, rs.clone())
        } else if let Some(rs) = source.relation(&rel) {
            (false, rs.clone())
        } else {
            return Err(ParseError::at(
                span,
                format!("key declared on unknown relation `{rel}`"),
            ));
        };
        let schema = if is_target { &mut target } else { &mut source };
        let key: Vec<Name> = attrs.iter().map(Name::new).collect();
        let key_positions: Vec<usize> = attrs
            .iter()
            .map(|a| {
                rs.position(a).ok_or_else(|| {
                    ParseError::at(span, format!("key attribute `{a}` not in relation `{rel}`"))
                })
            })
            .collect::<Result<_, _>>()?;
        let non_key: Vec<Name> = rs
            .attr_names()
            .enumerate()
            .filter(|(i, _)| !key_positions.contains(i))
            .map(|(_, a)| a.clone())
            .collect();
        if !non_key.is_empty() {
            let fd = Fd::new(key.clone(), non_key);
            let updated = rs
                .clone()
                .with_fd(fd)
                .map_err(|e| ParseError::at(span, e.to_string()))?;
            schema.remove_relation(&rel);
            schema
                .add_relation(updated)
                .map_err(|e| ParseError::at(span, e.to_string()))?;
        }
        if is_target {
            for e in key_egds(&rs, &key) {
                target_egds.push((e, span));
            }
        }
    }

    // Explicit egd rules must live entirely on the target side.
    for (e, span) in egd_rules {
        let all_target = e
            .lhs
            .iter()
            .all(|a| target.relation(a.relation.as_str()).is_some());
        if !all_target {
            return Err(ParseError::at(
                span,
                format!(
                    "egd `{e}` must mention only target relations (egds are \
                     target dependencies)"
                ),
            ));
        }
        target_egds.push((e, span));
    }

    // Classify rules, validating each against its schemas so arity and
    // unknown-relation errors point at the offending rule.
    let mut st_tgds: Vec<(StTgd, Span)> = Vec::new();
    let mut target_tgds: Vec<(StTgd, Span)> = Vec::new();
    for (mut r, span) in rules {
        if r.disjuncts.len() != 1 {
            return Err(ParseError::at(
                span,
                format!("disjunctive rule `{r}` not allowed in a mapping file"),
            ));
        }
        let Some(rhs) = r.disjuncts.pop() else {
            return Err(ParseError::at(span, "rule has no right-hand side"));
        };
        let tgd = StTgd::new(r.lhs, rhs);
        let lhs_all_target = tgd
            .lhs
            .iter()
            .all(|a| target.relation(a.relation.as_str()).is_some());
        if lhs_all_target {
            tgd.validate(&target, &target)
                .map_err(|e| ParseError::at(span, e.to_string()))?;
            target_tgds.push((tgd, span));
        } else {
            tgd.validate(&source, &target)
                .map_err(|e| ParseError::at(span, e.to_string()))?;
            st_tgds.push((tgd, span));
        }
    }
    for (e, span) in &target_egds {
        e.validate(&target)
            .map_err(|err| ParseError::at(*span, err.to_string()))?;
    }

    map.st_tgds = st_tgds.iter().map(|(_, s)| *s).collect();
    map.target_tgds = target_tgds.iter().map(|(_, s)| *s).collect();
    map.target_egds = target_egds.iter().map(|(_, s)| *s).collect();

    let mapping = Mapping::with_target_deps(
        source,
        target,
        st_tgds.into_iter().map(|(t, _)| t).collect(),
        target_tgds.into_iter().map(|(t, _)| t).collect(),
        target_egds.into_iter().map(|(e, _)| e).collect(),
    )
    .map_err(|e| ParseError::at(eof_span, e.to_string()))?;
    Ok((mapping, map))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_tgd() {
        let t = parse_tgd("Emp(x) -> Manager(x, y)").unwrap();
        assert_eq!(t.to_string(), "∀x (Emp(x) → ∃y Manager(x, y))");
    }

    #[test]
    fn parse_tgd_with_constants() {
        let t = parse_tgd("R(x, 42, 'alice') -> S(x, \"bob\", true);").unwrap();
        assert_eq!(t.lhs[0].args[1], Term::cnst(42i64));
        assert_eq!(t.lhs[0].args[2], Term::cnst("alice"));
        assert_eq!(t.rhs[0].args[1], Term::cnst("bob"));
        assert_eq!(t.rhs[0].args[2], Term::cnst(true));
    }

    #[test]
    fn parse_negative_int() {
        let t = parse_tgd("R(x, -5) -> S(x);").unwrap();
        assert_eq!(t.lhs[0].args[1], Term::cnst(-5i64));
    }

    #[test]
    fn parse_conjunction_both_sides() {
        let t = parse_tgd("Student(x, y) & Assgn(y, z) -> Enrollment(x, z);").unwrap();
        assert_eq!(t.lhs.len(), 2);
        assert_eq!(t.rhs.len(), 1);
        assert!(t.is_full());
    }

    #[test]
    fn parse_disjunctive_rule() {
        let d = parse_disj_tgd("Parent(x, y) -> Father(x, y) | Mother(x, y)").unwrap();
        assert_eq!(d.disjuncts.len(), 2);
        assert_eq!(d.to_string(), "Parent(x, y) → Father(x, y) ∨ Mother(x, y)");
    }

    #[test]
    fn parse_full_mapping_file() {
        let m = parse_mapping(
            r#"
            -- the paper's Figure 1, upper part
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);

            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap();
        assert_eq!(m.source().len(), 1);
        assert_eq!(m.target().len(), 2);
        assert_eq!(m.st_tgds().len(), 1);
        assert_eq!(
            m.st_tgds()[0].to_string(),
            "∀x,y (Takes(x, y) → ∃z Student(z, x) ∧ Assgn(x, y))"
        );
    }

    #[test]
    fn parse_mapping_with_key() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            key Manager(emp);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        assert_eq!(m.target_egds().len(), 1);
        assert_eq!(m.target().relation("Manager").unwrap().fds().len(), 1);
    }

    #[test]
    fn target_rules_classified_as_target_tgds() {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a);
            target T(a);
            R(x) -> S(x);
            S(x) -> T(x);
            "#,
        )
        .unwrap();
        assert_eq!(m.st_tgds().len(), 1);
        assert_eq!(m.target_tgds().len(), 1);
    }

    #[test]
    fn comments_both_styles() {
        let t = parse_tgd("Emp(x) -- trailing comment\n// full line\n -> Manager(x, y);").unwrap();
        assert_eq!(t.lhs[0].relation, "Emp");
    }

    #[test]
    fn error_positions_reported() {
        let e = parse_tgd("Emp(x) -> ").unwrap_err();
        assert!(e.line >= 1);
        assert!(e.message.contains("expected"));
        let e = parse_mapping("source ;").unwrap_err();
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn unknown_key_relation_errors() {
        let e = parse_mapping("source R(a);\nkey S(a);").unwrap_err();
        assert!(e.message.contains("unknown relation"));
        // The error points at the `key` declaration, not 0:0.
        assert_eq!((e.line, e.col), (2, 1));
    }

    #[test]
    fn late_errors_carry_true_positions() {
        // Arity mismatch detected after parsing: points at the rule.
        let e = parse_mapping("source R(a);\ntarget S(a, b);\nR(x, y) -> S(x, y);").unwrap_err();
        assert!(e.message.contains("arity"), "{}", e.message);
        assert_eq!((e.line, e.col), (3, 1));
        // Source-side egd: points at the egd rule.
        let e = parse_mapping(
            "source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) & Emp(y) -> x = y;",
        )
        .unwrap_err();
        assert_eq!((e.line, e.col), (3, 1));
        // Overlapping declaration: points at the second declaration.
        let e = parse_mapping("source R(a);\ntarget R(a);").unwrap_err();
        assert!(e.message.contains("both"), "{}", e.message);
        assert_eq!((e.line, e.col), (2, 1));
        // Duplicate attribute in a declaration: points at the declaration.
        let e = parse_mapping("source R(a);\ntarget S(b, b);").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
    }

    #[test]
    fn eof_errors_report_last_position() {
        // End-of-input errors report the true position of the end of
        // input (1-based), never line 0.
        // (`parse_tgd` trims and appends `;`, so the error lands on it.)
        let e = parse_tgd("Emp(x) -> ").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10));
        let e = parse_mapping("source R(a);\nR(x) ->").unwrap_err();
        assert_eq!((e.line, e.col), (2, 8));
    }

    #[test]
    fn source_map_locates_rules_and_decls() {
        let (m, map) = parse_mapping_with_spans(
            "source Emp(name);\n\
             target Manager(emp, mgr);\n\
             key Manager(emp);\n\
             Emp(x) -> Manager(x, y);\n\
             Manager(x, y) -> Manager(x, y);\n\
             Manager(x, y) & Manager(x, z) -> y = z;\n",
        )
        .unwrap();
        assert_eq!(m.st_tgds().len(), 1);
        assert_eq!(map.st_tgds.len(), 1);
        let s = map.st_tgds[0];
        assert_eq!((s.line, s.col), (4, 1));
        assert_eq!((s.end_line, s.end_col), (4, 25));
        // The target tgd sits on line 5.
        assert_eq!(map.target_tgds.len(), 1);
        assert_eq!(map.target_tgds[0].line, 5);
        // Egds: the key expansion carries the key decl's span (line 3),
        // the explicit rule its own (line 6) — in mapping order.
        assert_eq!(m.target_egds().len(), 2);
        assert_eq!(map.target_egds[0].line, 3);
        assert_eq!(map.target_egds[1].line, 6);
        // Declarations are findable by name.
        assert_eq!(map.source_decl("Emp").unwrap().line, 1);
        assert_eq!(map.target_decl("Manager").unwrap().line, 2);
        assert!(map.source_decl("Nope").is_none());
    }

    #[test]
    fn bad_arity_rejected_at_mapping_level() {
        let e = parse_mapping(
            r#"
            source R(a);
            target S(a, b);
            R(x, y) -> S(x, y);
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("arity"));
    }

    #[test]
    fn round_trip_through_display() {
        // parse → display (paper style) differs from input syntax, but
        // re-parsing the machine-readable form must agree.
        let t1 = parse_tgd("Takes(x, y) -> Student(z, x) & Assgn(x, y)").unwrap();
        let roundtrip = format!(
            "{} -> {}",
            t1.lhs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" & "),
            t1.rhs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" & ")
        );
        let t2 = parse_tgd(&roundtrip).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn parse_query_head_and_body() {
        let (head, body) = parse_query("q(n, c) :- Student(i, n), Assgn(n, c)").unwrap();
        assert_eq!(head, vec![Name::new("n"), Name::new("c")]);
        assert_eq!(body.len(), 2);
        assert_eq!(body[0].relation, "Student");
        // `&` works as a separator too; `;` is optional; boolean query.
        let (head, body) = parse_query("q() :- R(x) & S(x);").unwrap();
        assert!(head.is_empty());
        assert_eq!(body.len(), 2);
        assert!(parse_query("q(x) :-").is_err());
        assert!(parse_query("q(x) Student(x)").is_err());
    }

    #[test]
    fn parse_explicit_egd_rule() {
        let e = parse_egd("Manager(x, y) & Manager(x, z) -> y = z").unwrap();
        assert_eq!(e.lhs.len(), 2);
        assert_eq!(e.equalities.len(), 1);
        assert_eq!(e.to_string(), "Manager(x, y) ∧ Manager(x, z) → y = z");
        // Multiple equalities.
        let e2 = parse_egd("R(x, y, u, v) & R(x, z, w, q) -> y = z & u = w").unwrap();
        assert_eq!(e2.equalities.len(), 2);
    }

    #[test]
    fn egd_rules_in_mapping_become_target_egds() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            Manager(x, y) & Manager(x, z) -> y = z;
            "#,
        )
        .unwrap();
        assert_eq!(m.target_egds().len(), 1);
        assert_eq!(m.st_tgds().len(), 1);
    }

    #[test]
    fn source_side_egd_rejected() {
        let err = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) & Emp(y) -> x = y;
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("target relations"));
    }

    #[test]
    fn parse_egd_rejects_tgds_and_vice_versa() {
        assert!(parse_egd("Emp(x) -> Manager(x, y)").is_err());
        assert!(parse_tgd("R(x, y) -> x = y").is_err());
    }

    #[test]
    fn unterminated_string_reported() {
        let e = parse_tgd("R('abc) -> S(x)").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }
}
