//! The crate's one parser for Boolean expressions, and the bid-formula
//! language that runs on it.
//!
//! Bid formulas and [`crate::targeting`] expressions share one grammar of
//! connectives (precedence low → high): `or := and (OR and)*`,
//! `and := unary (AND unary)*`, `unary := NOT unary | '(' or ')' | atom`.
//! One recursive descent parses it for both languages, bounded at
//! [`MAX_NESTING_DEPTH`], and both report a [`ParseError`]. A language
//! brings only its lexer, which spells the connectives, and its atoms.
//!
//! Formula atoms are `'Click' | 'Purchase' | 'SlotN' | 'HeavySlotN' |
//! 'true' | 'false'`. Both ASCII (`& | !`) and the paper's mathematical
//! connectives (`∧ ∨ ¬`) are accepted, as are the spellings
//! `AND`/`OR`/`NOT` (case-insensitive) used by the SQL-flavoured bidding
//! programs. A formula holds at most [`MAX_FORMULA_ATOMS`] atoms.

use crate::formula::Formula;
use crate::ids::SlotId;
use std::fmt;

/// Maximum nesting depth of a formula or a targeting expression. Both
/// arrive from untrusted advertisers; unbounded `(((…` or `!!!…` chains
/// would otherwise overflow the recursive descent's stack.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Maximum number of atoms in one bid formula. A flat chain such as
/// `Click & Click & …` parses without nesting, but it builds a [`Formula`]
/// tree one level deep per atom, which is then cloned, compared, evaluated
/// and dropped recursively: an unbounded chain would overflow the stack
/// of whichever thread touches it. At this bound every one of those walks
/// runs on a 2 MiB thread. Targeting expressions are not bounded this way:
/// their compiled programs and their trees' drop do not recurse.
pub const MAX_FORMULA_ATOMS: usize = 1024;

/// What kind of parse failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseErrorKind {
    /// Malformed input (bad token, missing operand, trailing input, …).
    #[default]
    Syntax,
    /// Nesting exceeded [`MAX_NESTING_DEPTH`], or a formula held more
    /// than [`MAX_FORMULA_ATOMS`] atoms (its tree nests one level deeper
    /// per atom of a flat chain).
    TooDeep,
}

/// Error produced when a formula or a targeting source cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input at which the error occurred.
    pub position: usize,
    /// Failure category (syntax vs. the nesting depth limit).
    pub kind: ParseErrorKind,
}

impl ParseError {
    /// A [`ParseErrorKind::Syntax`] error at byte `position`.
    pub(crate) fn syntax(message: impl Into<String>, position: usize) -> Self {
        ParseError {
            message: message.into(),
            position,
            kind: ParseErrorKind::Syntax,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A Boolean language the shared descent parses: its token type with the
/// five tokens that spell the connectives and parentheses, its lexer, and
/// its atoms.
pub(crate) trait Grammar: Sized {
    /// What the lexer yields.
    type Token: Clone + PartialEq;
    /// What the parser builds.
    type Expr;
    /// The most atoms one expression may hold.
    const MAX_ATOMS: usize = usize::MAX;
    const AND: Self::Token;
    const OR: Self::Token;
    const NOT: Self::Token;
    const LPAREN: Self::Token;
    const RPAREN: Self::Token;

    /// Lexes one token at the cursor, which stands on a non-space
    /// character.
    fn token(lexer: &mut Lexer<'_>) -> Result<Self::Token, ParseError>;

    /// Parses one atom at the parser's next token, which is neither `NOT`
    /// nor `(`.
    fn atom(parser: &mut Parser<Self>) -> Result<Self::Expr, ParseError>;

    /// The connectives' constructors.
    fn and(lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn or(lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn not(inner: Self::Expr) -> Self::Expr;
}

/// A cursor over the source text; a language's [`Grammar::token`]
/// advances it past one token.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Lexer<'a> {
    /// The input not lexed yet.
    pub(crate) fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// A syntax error at the cursor.
    pub(crate) fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::syntax(message, self.pos)
    }

    /// Consumes the first of `symbols` the rest of the input starts with.
    pub(crate) fn symbol<T, const N: usize>(&mut self, symbols: [(&str, T); N]) -> Option<T> {
        let rest = self.rest();
        let (symbol, token) = symbols.into_iter().find(|(s, _)| rest.starts_with(s))?;
        self.pos += symbol.len();
        Some(token)
    }

    /// Consumes the word of ASCII letters, digits and `_` at the cursor;
    /// an error if the cursor stands on any other character.
    pub(crate) fn word(&mut self) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        match rest.chars().next() {
            Some(first) if len == 0 => Err(self.error(format!("unexpected character {first:?}"))),
            _ => {
                self.pos += len;
                Ok(&rest[..len])
            }
        }
    }
}

/// The recursive descent over one language's tokens.
pub(crate) struct Parser<G: Grammar> {
    tokens: Vec<(G::Token, usize)>,
    index: usize,
    input_len: usize,
    /// Current nesting depth.
    depth: usize,
    /// Atoms parsed so far.
    atoms: usize,
}

impl<G: Grammar> Parser<G> {
    /// Byte offset of the next token; the input's length at the end.
    pub(crate) fn position(&self) -> usize {
        self.tokens
            .get(self.index)
            .map_or(self.input_len, |(_, p)| *p)
    }

    /// Consumes the next token.
    pub(crate) fn advance(&mut self) -> Option<G::Token> {
        let t = self.tokens.get(self.index).map(|(t, _)| t.clone());
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    /// A syntax error at the next token.
    pub(crate) fn syntax(&self, message: impl Into<String>) -> ParseError {
        ParseError::syntax(message, self.position())
    }

    /// Consumes the next token if it is `token`.
    fn eat(&mut self, token: &G::Token) -> bool {
        let hit = self.tokens.get(self.index).is_some_and(|(t, _)| t == token);
        self.index += usize::from(hit);
        hit
    }

    /// Enters one nesting level; errors once [`MAX_NESTING_DEPTH`] is hit.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(ParseError {
                message: format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
                position: self.position(),
                kind: ParseErrorKind::TooDeep,
            })
        } else {
            Ok(())
        }
    }

    fn parse_or(&mut self) -> Result<G::Expr, ParseError> {
        self.descend()?;
        let or = self.parse_or_at_depth();
        self.depth -= 1;
        or
    }

    fn parse_or_at_depth(&mut self) -> Result<G::Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&G::OR) {
            lhs = G::or(lhs, self.parse_and()?);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<G::Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while self.eat(&G::AND) {
            lhs = G::and(lhs, self.parse_unary()?);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<G::Expr, ParseError> {
        if self.eat(&G::NOT) {
            self.descend()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            return Ok(G::not(inner?));
        }
        if self.eat(&G::LPAREN) {
            let inner = self.parse_or()?;
            return match self.advance() {
                Some(t) if t == G::RPAREN => Ok(inner),
                _ => Err(self.syntax("expected ')'")),
            };
        }
        self.atoms += 1;
        if self.atoms > G::MAX_ATOMS {
            return Err(ParseError {
                message: format!("more than {} atoms", G::MAX_ATOMS),
                position: self.position(),
                kind: ParseErrorKind::TooDeep,
            });
        }
        G::atom(self)
    }
}

/// Parses `input` in language `G`: lexes it whole, runs the descent, and
/// refuses trailing input.
pub(crate) fn parse<G: Grammar>(input: &str) -> Result<G::Expr, ParseError> {
    let mut lexer = Lexer { input, pos: 0 };
    let mut tokens = Vec::new();
    loop {
        lexer.pos = input.len() - lexer.rest().trim_start().len();
        if lexer.pos == input.len() {
            break;
        }
        let start = lexer.pos;
        tokens.push((G::token(&mut lexer)?, start));
    }
    let mut parser = Parser::<G> {
        tokens,
        index: 0,
        input_len: input.len(),
        depth: 0,
        atoms: 0,
    };
    let expr = parser.parse_or()?;
    if parser.index != parser.tokens.len() {
        return Err(parser.syntax("trailing input after expression"));
    }
    Ok(expr)
}

/// The bid-formula language.
struct Formulas;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    And,
    Or,
    Not,
    LParen,
    RParen,
    Click,
    Purchase,
    Slot(u16),
    HeavySlot(u16),
    True,
    False,
}

impl Grammar for Formulas {
    type Token = Token;
    type Expr = Formula;
    const MAX_ATOMS: usize = MAX_FORMULA_ATOMS;
    const AND: Token = Token::And;
    const OR: Token = Token::Or;
    const NOT: Token = Token::Not;
    const LPAREN: Token = Token::LParen;
    const RPAREN: Token = Token::RParen;

    fn token(lexer: &mut Lexer<'_>) -> Result<Token, ParseError> {
        let start = lexer.pos;
        if let Some(token) = lexer.symbol([
            ("∧", Token::And),
            ("∨", Token::Or),
            ("¬", Token::Not),
            ("⊤", Token::True),
            ("⊥", Token::False),
            ("&&", Token::And),
            ("||", Token::Or),
            ("&", Token::And),
            ("|", Token::Or),
            ("!", Token::Not),
            ("(", Token::LParen),
            (")", Token::RParen),
        ]) {
            return Ok(token);
        }
        let word = lexer.word()?;
        let lower = word.to_ascii_lowercase();
        Ok(match lower.as_str() {
            "and" => Token::And,
            "or" => Token::Or,
            "not" => Token::Not,
            "click" => Token::Click,
            "purchase" => Token::Purchase,
            "true" => Token::True,
            "false" => Token::False,
            _ => {
                if let Some(num) = lower.strip_prefix("heavyslot") {
                    Token::HeavySlot(parse_slot_number(num, start)?)
                } else if let Some(num) = lower.strip_prefix("slot") {
                    Token::Slot(parse_slot_number(num, start)?)
                } else {
                    return Err(ParseError::syntax(
                        format!("unknown identifier {word:?}"),
                        start,
                    ));
                }
            }
        })
    }

    fn atom(parser: &mut Parser<Self>) -> Result<Formula, ParseError> {
        let position = parser.position();
        match parser.advance() {
            Some(Token::Click) => Ok(Formula::click()),
            Some(Token::Purchase) => Ok(Formula::purchase()),
            Some(Token::Slot(n)) => Ok(Formula::slot(SlotId::new(n))),
            Some(Token::HeavySlot(n)) => Ok(Formula::heavy_in_slot(SlotId::new(n))),
            Some(Token::True) => Ok(Formula::True),
            Some(Token::False) => Ok(Formula::False),
            other => Err(ParseError::syntax(
                format!("expected a predicate, found {other:?}"),
                position,
            )),
        }
    }

    fn and(lhs: Formula, rhs: Formula) -> Formula {
        lhs & rhs
    }

    fn or(lhs: Formula, rhs: Formula) -> Formula {
        lhs | rhs
    }

    fn not(inner: Formula) -> Formula {
        !inner
    }
}

fn parse_slot_number(digits: &str, position: usize) -> Result<u16, ParseError> {
    let n: u16 = digits
        .parse()
        .map_err(|_| ParseError::syntax(format!("invalid slot number {digits:?}"), position))?;
    if n == 0 {
        return Err(ParseError::syntax("slot numbers are 1-based", position));
    }
    Ok(n)
}

/// Parses a formula from text; more than [`MAX_FORMULA_ATOMS`] atoms are
/// refused as [`ParseErrorKind::TooDeep`].
///
/// ```
/// use ssa_bidlang::{parse_formula, Formula, SlotId};
/// let f = parse_formula("Click & Slot1 | Purchase").unwrap();
/// assert_eq!(
///     f,
///     Formula::click() & Formula::slot(SlotId::new(1)) | Formula::purchase()
/// );
/// ```
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    parse::<Formulas>(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figures() {
        // Figure 4 / 6 formulas.
        assert_eq!(
            parse_formula("Click ∧ Slot1").unwrap(),
            Formula::click() & Formula::slot(SlotId::new(1))
        );
        assert_eq!(parse_formula("Click").unwrap(), Formula::click());
        // Figure 3.
        assert_eq!(
            parse_formula("Slot1 ∨ Slot2").unwrap(),
            Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(2))
        );
        assert_eq!(parse_formula("Purchase").unwrap(), Formula::purchase());
    }

    #[test]
    fn ascii_and_word_operators() {
        let expect = Formula::click() & !Formula::purchase();
        assert_eq!(parse_formula("Click & !Purchase").unwrap(), expect);
        assert_eq!(parse_formula("Click AND NOT Purchase").unwrap(), expect);
        assert_eq!(parse_formula("Click && ¬Purchase").unwrap(), expect);
    }

    #[test]
    fn precedence_and_parentheses() {
        // AND binds tighter than OR.
        assert_eq!(
            parse_formula("Purchase | Click & Slot2").unwrap(),
            Formula::purchase() | (Formula::click() & Formula::slot(SlotId::new(2)))
        );
        assert_eq!(
            parse_formula("(Purchase | Click) & Slot2").unwrap(),
            (Formula::purchase() | Formula::click()) & Formula::slot(SlotId::new(2))
        );
    }

    #[test]
    fn heavy_slots_and_constants() {
        assert_eq!(
            parse_formula("HeavySlot3 & true").unwrap(),
            Formula::heavy_in_slot(SlotId::new(3)) & Formula::True
        );
        assert_eq!(parse_formula("false").unwrap(), Formula::False);
    }

    #[test]
    fn case_insensitive_atoms() {
        assert_eq!(parse_formula("click").unwrap(), Formula::click());
        assert_eq!(
            parse_formula("SLOT2").unwrap(),
            Formula::slot(SlotId::new(2))
        );
    }

    #[test]
    fn errors() {
        assert!(parse_formula("").is_err());
        assert!(parse_formula("Click &").is_err());
        assert!(parse_formula("(Click").is_err());
        assert!(parse_formula("Slot0").is_err());
        assert!(parse_formula("Gadget").is_err());
        assert!(parse_formula("Click Click").is_err());
        assert!(parse_formula("Slot99999999").is_err());
        for (input, position) in [
            ("Click @ Purchase", 6),
            ("Slot1 | Clické", 13),
            ("Click & ∅", 8),
        ] {
            let err = parse_formula(input).unwrap_err();
            assert!(err.message.contains("unexpected character"), "{input:?}");
            assert_eq!(err.position, position, "{input:?}");
        }
        // Targeting syntax is no formula syntax.
        for (input, position) in [("geo = 'us'", 0), ("Slot1 in (1)", 6), ("Click = 1", 6)] {
            let err = parse_formula(input).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{input:?}");
            assert_eq!(err.position, position, "{input:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        // Untrusted advertiser programs must not be able to overflow the
        // parser stack: `(((…`, `!!!…`, and word-operator chains all stop
        // at the depth limit with a typed error.
        for input in [
            format!("{}Click{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}Click", "!".repeat(100_000)),
            format!("{}Click", "NOT ".repeat(100_000)),
        ] {
            let err = parse_formula(&input).expect_err("depth limit");
            assert_eq!(
                err.kind,
                ParseErrorKind::TooDeep,
                "input {} bytes",
                input.len()
            );
            assert!(err.message.contains("nesting"));
        }
        // Reasonable nesting still parses.
        let ok = format!("{}Click{}", "(".repeat(20), ")".repeat(20));
        assert_eq!(parse_formula(&ok).unwrap(), Formula::click());
        // Ordinary syntax errors keep the Syntax kind.
        assert_eq!(
            parse_formula("Click &").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    /// A flat chain nests its tree one level per atom, and every walk of a
    /// `Formula` recurses: the cap keeps each one inside a 2 MiB thread,
    /// and a chain past it is refused at its 1 025th atom, so no deeper
    /// tree is ever built. Without the cap the 100 000-term chain aborts
    /// the test binary with a stack overflow.
    #[test]
    fn formula_chains_are_bounded() {
        let chain = |terms: usize| vec!["Click"; terms].join(" & ");
        let on_small_stack = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let err = parse_formula(&chain(100_000)).expect_err("past the cap");
                assert_eq!(err.kind, ParseErrorKind::TooDeep);
                assert!(err.message.contains("1024 atoms"), "{err}");
                assert_eq!(err.position, MAX_FORMULA_ATOMS * "Click & ".len());

                let source = chain(MAX_FORMULA_ATOMS);
                let formula = parse_formula(&source).expect("at the cap");
                let copy = formula.clone();
                assert_eq!(copy, formula);
                let view = crate::AdvertiserView {
                    slot: Some(SlotId::new(1)),
                    clicked: true,
                    purchased: false,
                    heavy_pattern: None,
                };
                assert!(formula.eval(&view));
                assert!(!formula.eval(&crate::AdvertiserView::unplaced()));
                drop((formula, copy));
            })
            .expect("spawn");
        on_small_stack.join().expect("no stack overflow");
    }

    #[test]
    fn display_roundtrip() {
        for text in [
            "Click ∧ Slot1",
            "Purchase ∨ Click ∧ Slot2",
            "(Purchase ∨ Click) ∧ Slot2",
            "¬(Click ∨ Purchase)",
            "Slot1 ∨ Slot2 ∨ Slot3",
        ] {
            let f = parse_formula(text).unwrap();
            let reparsed = parse_formula(&f.to_string()).unwrap();
            assert_eq!(f, reparsed, "roundtrip failed for {text}");
        }
    }
}
