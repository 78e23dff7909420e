//! A small text parser for bid formulas.
//!
//! Grammar (precedence low → high): `or := and ('|' and)*`,
//! `and := unary ('&' unary)*`, `unary := '!' unary | atom`,
//! `atom := 'Click' | 'Purchase' | 'SlotN' | 'HeavySlotN' | 'true' | 'false'
//! | '(' or ')'`.
//!
//! Both ASCII (`& | !`) and the paper's mathematical connectives
//! (`∧ ∨ ¬`) are accepted, as are the spellings `AND`/`OR`/`NOT`
//! (case-insensitive) used by the SQL-flavoured bidding programs.

use crate::formula::Formula;
use crate::ids::SlotId;
use std::fmt;

/// Maximum formula nesting depth. Formulas arrive from untrusted
/// advertiser programs; unbounded `(((…` or `!!!…` chains would otherwise
/// overflow the recursive-descent parser's stack.
pub const MAX_FORMULA_DEPTH: usize = 64;

/// What kind of parse failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseErrorKind {
    /// Malformed input (bad token, missing operand, trailing input, …).
    #[default]
    Syntax,
    /// Nesting exceeded [`MAX_FORMULA_DEPTH`].
    TooDeep,
}

/// Error produced when a formula string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input at which the error occurred.
    pub position: usize,
    /// Failure category (syntax vs. the nesting depth limit).
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

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

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
            kind: ParseErrorKind::Syntax,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn next_token(&mut self) -> Result<Option<(Token, usize)>, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let rest = self.rest();
        let Some(first) = rest.chars().next() else {
            return Ok(None);
        };
        // Single-char / symbol tokens first.
        for (sym, tok) in [
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
        ] {
            if let Some(stripped) = rest.strip_prefix(sym) {
                self.pos = self.input.len() - stripped.len();
                return Ok(Some((tok, start)));
            }
        }
        // Identifier tokens.
        let word_len = rest
            .char_indices()
            .take_while(|(_, c)| c.is_ascii_alphanumeric() || *c == '_')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if word_len == 0 {
            return Err(self.error(format!("unexpected character {first:?}")));
        }
        let word = &rest[..word_len];
        self.pos += word_len;
        let lower = word.to_ascii_lowercase();
        let tok = match lower.as_str() {
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
                    return Err(ParseError {
                        message: format!("unknown identifier {word:?}"),
                        position: start,
                        kind: ParseErrorKind::Syntax,
                    });
                }
            }
        };
        Ok(Some((tok, start)))
    }
}

fn parse_slot_number(digits: &str, position: usize) -> Result<u16, ParseError> {
    let n: u16 = digits.parse().map_err(|_| ParseError {
        message: format!("invalid slot number {digits:?}"),
        position,
        kind: ParseErrorKind::Syntax,
    })?;
    if n == 0 {
        return Err(ParseError {
            message: "slot numbers are 1-based".to_string(),
            position,
            kind: ParseErrorKind::Syntax,
        });
    }
    Ok(n)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    index: usize,
    input_len: usize,
    /// Current recursive-descent nesting depth.
    depth: usize,
}

impl Parser {
    /// Enters one nesting level; errors once [`MAX_FORMULA_DEPTH`] is hit.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_FORMULA_DEPTH {
            Err(ParseError {
                message: format!("formula nesting deeper than {MAX_FORMULA_DEPTH} levels"),
                position: self.position(),
                kind: ParseErrorKind::TooDeep,
            })
        } else {
            Ok(())
        }
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.index).map(|(t, _)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.index)
            .map(|(_, p)| *p)
            .unwrap_or(self.input_len)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.index).map(|(t, _)| t.clone());
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        self.descend()?;
        let or = self.parse_or_at_depth();
        self.ascend();
        or
    }

    fn parse_or_at_depth(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Token::Or) {
            self.advance();
            let rhs = self.parse_and()?;
            lhs = lhs | rhs;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_unary()?;
        while self.peek() == Some(&Token::And) {
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = lhs & rhs;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        if self.peek() == Some(&Token::Not) {
            self.advance();
            self.descend()?;
            let inner = self.parse_unary();
            self.ascend();
            return Ok(!inner?);
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Formula, ParseError> {
        let position = self.position();
        match self.advance() {
            Some(Token::Click) => Ok(Formula::click()),
            Some(Token::Purchase) => Ok(Formula::purchase()),
            Some(Token::Slot(n)) => Ok(Formula::slot(SlotId::new(n))),
            Some(Token::HeavySlot(n)) => Ok(Formula::heavy_in_slot(SlotId::new(n))),
            Some(Token::True) => Ok(Formula::True),
            Some(Token::False) => Ok(Formula::False),
            Some(Token::LParen) => {
                let inner = self.parse_or()?;
                match self.advance() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseError {
                        message: "expected ')'".to_string(),
                        position: self.position(),
                        kind: ParseErrorKind::Syntax,
                    }),
                }
            }
            other => Err(ParseError {
                message: format!("expected a predicate, found {other:?}"),
                position,
                kind: ParseErrorKind::Syntax,
            }),
        }
    }
}

/// Parses a formula from text.
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
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        tokens.push(tok);
    }
    let mut parser = Parser {
        tokens,
        index: 0,
        input_len: input.len(),
        depth: 0,
    };
    let formula = parser.parse_or()?;
    if parser.index != parser.tokens.len() {
        return Err(ParseError {
            message: "trailing input after formula".to_string(),
            position: parser.position(),
            kind: ParseErrorKind::Syntax,
        });
    }
    Ok(formula)
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
