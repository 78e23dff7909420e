//! Typed user-attribute targeting: a small expression language campaigns
//! use to restrict which queries they bid on.
//!
//! A query carries a [`UserAttrs`] bag of typed attributes — the
//! conventional sponsored-search context keys (`geo`, `device`,
//! `segment`) plus arbitrary integer/string custom keys. A campaign may
//! attach a targeting expression over those attributes:
//!
//! ```text
//! geo = 'us' and (device = 'mobile' or segment in ('sports', 'autos'))
//!     and not age < 21
//! ```
//!
//! The connectives are the bid formulas' Boolean grammar, spelled only
//! `and`, `or`, `not` and `( … )`, and the crate's one recursive descent
//! ([`crate::parser`]) parses both languages. Hostile `(((…` / `not not
//! not …` sources from untrusted advertisers fail with a typed
//! [`TooDeep`](crate::ParseErrorKind::TooDeep) at [`MAX_NESTING_DEPTH`]
//! instead of overflowing the stack, and every error is a [`ParseError`].
//! A targeting atom is a comparison,
//! `key (= != < <= > >=) value | key 'in' '(' value, … ')'`, against an
//! integer literal or a quoted string.
//!
//! Expressions are parsed once per campaign into a [`TargetExpr`] AST and
//! compiled to a [`CompiledTargeting`] postfix bytecode program; the hot
//! serve path only ever runs [`CompiledTargeting::matches`] — a
//! fixed-size-stack bytecode loop with no allocation, no recursion, and
//! no re-parsing per auction. Nothing on the way recurses once per link
//! of a flat `and`/`or` chain — parsing, compiling, matching, nor dropping
//! the AST — so a chain of any length that fits a frame registers on a
//! thread's default stack.
//!
//! # Semantics
//!
//! * A missing attribute fails **every** comparison on its key, including
//!   `!=` and `in` — absence is not a value.
//! * `=` / `!=` compare any two values of the same type; a type mismatch
//!   (e.g. `geo = 5` against `geo: "us"`) is simply false.
//! * Ordered comparisons (`<`, `<=`, `>`, `>=`) hold only between two
//!   integers; strings never order.

use crate::parser::{parse, Grammar, Lexer, ParseError, Parser, MAX_NESTING_DEPTH};
use std::fmt;

/// Stack slots the bytecode evaluator reserves. Parsing bounds nesting at
/// [`MAX_NESTING_DEPTH`], and the evaluation stack of a postfix program
/// never exceeds the expression's nesting depth plus one (left-deep
/// operator chains — the only unbounded shape — evaluate in two slots).
const EVAL_STACK: usize = MAX_NESTING_DEPTH + 2;

// ---------------------------------------------------------------------------
// Attribute values and the per-query attribute bag.
// ---------------------------------------------------------------------------

/// A typed attribute value: an integer or a string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrValue {
    /// A signed integer attribute (ages, scores, versions, …).
    Int(i64),
    /// A string attribute (geo codes, device classes, segments, …).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(n) => write!(f, "{n}"),
            AttrValue::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::Int(n)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

/// The typed user attributes attached to one query: a small map from
/// attribute key to [`AttrValue`], kept sorted by key so two equal bags
/// are byte-identical when serialized (wire frames, WAL records).
///
/// Built fluently:
///
/// ```
/// use ssa_bidlang::targeting::UserAttrs;
///
/// let attrs = UserAttrs::new()
///     .geo("us")
///     .device("mobile")
///     .set_int("age", 34);
/// assert_eq!(attrs.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct UserAttrs {
    /// Key → value pairs, sorted by key, each key at most once.
    entries: Vec<(String, AttrValue)>,
}

/// The shared empty attribute bag (legacy keyword-only queries).
static EMPTY_ATTRS: UserAttrs = UserAttrs {
    entries: Vec::new(),
};

impl UserAttrs {
    /// An empty attribute bag.
    pub fn new() -> Self {
        UserAttrs::default()
    }

    /// A `'static` reference to the empty bag, for call sites that need an
    /// attribute reference but carry none (legacy keyword-only queries).
    pub fn empty_ref() -> &'static UserAttrs {
        &EMPTY_ATTRS
    }

    /// Inserts or replaces `key`, keeping the entries sorted.
    pub fn set(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        let key = key.into();
        let value = value.into();
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
        self
    }

    /// Inserts or replaces a string attribute.
    pub fn set_str(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set(key, AttrValue::Str(value.into()))
    }

    /// Inserts or replaces an integer attribute.
    pub fn set_int(self, key: impl Into<String>, value: i64) -> Self {
        self.set(key, AttrValue::Int(value))
    }

    /// Sets the conventional `geo` key (e.g. a country code).
    pub fn geo(self, value: impl Into<String>) -> Self {
        self.set_str("geo", value)
    }

    /// Sets the conventional `device` key (e.g. `"mobile"`).
    pub fn device(self, value: impl Into<String>) -> Self {
        self.set_str("device", value)
    }

    /// Sets the conventional `segment` key (an audience segment).
    pub fn segment(self, value: impl Into<String>) -> Self {
        self.set_str("segment", value)
    }

    /// Looks up an attribute by key.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of attributes set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no attribute is set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, AttrValue)> for UserAttrs {
    fn from_iter<I: IntoIterator<Item = (String, AttrValue)>>(iter: I) -> Self {
        iter.into_iter()
            .fold(UserAttrs::new(), |attrs, (k, v)| attrs.set(k, v))
    }
}

// ---------------------------------------------------------------------------
// The expression AST and its reference evaluator.
// ---------------------------------------------------------------------------

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<` (integers only)
    Lt,
    /// `<=` (integers only)
    Le,
    /// `>` (integers only)
    Gt,
    /// `>=` (integers only)
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A parsed targeting expression. This is the *slow reference* form: its
/// [`TargetExpr::matches`] walks the tree recursively and exists to
/// cross-check the compiled bytecode in tests. Production serving always
/// goes through [`CompiledTargeting`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetExpr {
    /// Both sides must hold.
    And(Box<TargetExpr>, Box<TargetExpr>),
    /// Either side must hold.
    Or(Box<TargetExpr>, Box<TargetExpr>),
    /// The inner expression must not hold.
    Not(Box<TargetExpr>),
    /// `key op value`; see the [module docs](self) for missing-key and
    /// type-mismatch semantics.
    Cmp {
        /// Attribute key compared.
        key: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal compared against.
        value: AttrValue,
    },
    /// `key in (v1, v2, …)`: the attribute equals one of the listed values.
    In {
        /// Attribute key tested.
        key: String,
        /// Accepted values.
        values: Vec<AttrValue>,
    },
}

/// One comparison under the module's semantics: missing key ⇒ false,
/// `=`/`!=` need matching types, ordered operators need two integers.
fn compare(have: Option<&AttrValue>, op: CmpOp, want: &AttrValue) -> bool {
    use AttrValue::{Int, Str};
    let Some(have) = have else { return false };
    match (op, have, want) {
        (CmpOp::Eq, _, _) => have == want,
        (CmpOp::Ne, Int(_), Int(_)) | (CmpOp::Ne, Str(_), Str(_)) => have != want,
        (CmpOp::Lt, Int(a), Int(b)) => a < b,
        (CmpOp::Le, Int(a), Int(b)) => a <= b,
        (CmpOp::Gt, Int(a), Int(b)) => a > b,
        (CmpOp::Ge, Int(a), Int(b)) => a >= b,
        _ => false,
    }
}

impl TargetExpr {
    /// Reference evaluation by direct AST interpretation. Quadratic-ish
    /// and recursive — for tests and cross-checking only; serving uses
    /// [`CompiledTargeting::matches`].
    pub fn matches(&self, attrs: &UserAttrs) -> bool {
        match self {
            TargetExpr::And(a, b) => a.matches(attrs) && b.matches(attrs),
            TargetExpr::Or(a, b) => a.matches(attrs) || b.matches(attrs),
            TargetExpr::Not(inner) => !inner.matches(attrs),
            TargetExpr::Cmp { key, op, value } => compare(attrs.get(key), *op, value),
            TargetExpr::In { key, values } => attrs
                .get(key)
                .map(|have| values.iter().any(|v| v == have))
                .unwrap_or(false),
        }
    }
}

impl Drop for TargetExpr {
    /// Frees the tree through an explicit stack: the compiler's drop glue
    /// recurses once per node, and a flat `and` chain parses into a
    /// left-deep tree as deep as the chain is long.
    fn drop(&mut self) {
        let mut detached = Vec::new();
        detach_children(self, &mut detached);
        while let Some(mut node) = detached.pop() {
            detach_children(&mut node, &mut detached);
        }
    }
}

/// Moves `expr`'s connective children onto `detached`, leaving empty
/// leaves in their place, so dropping `expr` recurses no further.
fn detach_children(expr: &mut TargetExpr, detached: &mut Vec<TargetExpr>) {
    let children = match expr {
        TargetExpr::And(a, b) | TargetExpr::Or(a, b) => [Some(a), Some(b)],
        TargetExpr::Not(a) => [Some(a), None],
        TargetExpr::Cmp { .. } | TargetExpr::In { .. } => return,
    };
    for child in children.into_iter().flatten() {
        if !matches!(**child, TargetExpr::Cmp { .. } | TargetExpr::In { .. }) {
            let leaf = TargetExpr::In {
                key: String::new(),
                values: Vec::new(),
            };
            detached.push(std::mem::replace(&mut **child, leaf));
        }
    }
}

// ---------------------------------------------------------------------------
// The targeting language on the crate's shared descent.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    And,
    Or,
    Not,
    In,
    LParen,
    RParen,
    Comma,
    Op(CmpOp),
    Ident(String),
    Int(i64),
    Str(String),
}

/// The targeting language.
struct Targeting;

impl Grammar for Targeting {
    type Token = Token;
    type Expr = TargetExpr;
    const AND: Token = Token::And;
    const OR: Token = Token::Or;
    const NOT: Token = Token::Not;
    const LPAREN: Token = Token::LParen;
    const RPAREN: Token = Token::RParen;

    fn token(lexer: &mut Lexer<'_>) -> Result<Token, ParseError> {
        // Multi-char operators before their single-char prefixes.
        if let Some(token) = lexer.symbol([
            ("!=", Token::Op(CmpOp::Ne)),
            ("<=", Token::Op(CmpOp::Le)),
            (">=", Token::Op(CmpOp::Ge)),
            ("=", Token::Op(CmpOp::Eq)),
            ("<", Token::Op(CmpOp::Lt)),
            (">", Token::Op(CmpOp::Gt)),
            ("(", Token::LParen),
            (")", Token::RParen),
            (",", Token::Comma),
        ]) {
            return Ok(token);
        }
        let rest = lexer.rest();
        // Quoted string literals ('…' or "…"; no escapes — attribute
        // values are plain codes and segments).
        if let Some(quote @ ('\'' | '"')) = rest.chars().next() {
            let body = &rest[1..];
            let Some(end) = body.find(quote) else {
                return Err(lexer.error("unterminated string literal"));
            };
            lexer.pos += 1 + end + 1;
            return Ok(Token::Str(body[..end].to_string()));
        }
        // Integer literals (optionally negative).
        let digits_at = usize::from(rest.starts_with('-'));
        let digit_len = rest[digits_at..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - digits_at);
        if digit_len > 0 {
            let text = &rest[..digits_at + digit_len];
            let n: i64 = text
                .parse()
                .map_err(|_| lexer.error(format!("invalid integer literal {text:?}")))?;
            lexer.pos += text.len();
            return Ok(Token::Int(n));
        }
        // Identifiers and word operators (a lone '-' is no word).
        let word = lexer.word()?;
        Ok(match word.to_ascii_lowercase().as_str() {
            "and" => Token::And,
            "or" => Token::Or,
            "not" => Token::Not,
            "in" => Token::In,
            _ => Token::Ident(word.to_string()),
        })
    }

    fn atom(parser: &mut Parser<Self>) -> Result<TargetExpr, ParseError> {
        let key = match parser.advance() {
            Some(Token::Ident(key)) => key,
            other => {
                return Err(parser.syntax(format!("expected an attribute key, found {other:?}")))
            }
        };
        match parser.advance() {
            Some(Token::Op(op)) => {
                let value = parse_value(parser)?;
                Ok(TargetExpr::Cmp { key, op, value })
            }
            Some(Token::In) => {
                if parser.advance() != Some(Token::LParen) {
                    return Err(parser.syntax("expected '(' after 'in'"));
                }
                let mut values = vec![parse_value(parser)?];
                loop {
                    match parser.advance() {
                        Some(Token::Comma) => values.push(parse_value(parser)?),
                        Some(Token::RParen) => break,
                        _ => return Err(parser.syntax("expected ',' or ')' in value list")),
                    }
                }
                Ok(TargetExpr::In { key, values })
            }
            other => Err(parser.syntax(format!(
                "expected a comparison operator or 'in' after {key:?}, found {other:?}"
            ))),
        }
    }

    fn and(lhs: TargetExpr, rhs: TargetExpr) -> TargetExpr {
        TargetExpr::And(Box::new(lhs), Box::new(rhs))
    }

    fn or(lhs: TargetExpr, rhs: TargetExpr) -> TargetExpr {
        TargetExpr::Or(Box::new(lhs), Box::new(rhs))
    }

    fn not(inner: TargetExpr) -> TargetExpr {
        TargetExpr::Not(Box::new(inner))
    }
}

fn parse_value(parser: &mut Parser<Targeting>) -> Result<AttrValue, ParseError> {
    match parser.advance() {
        Some(Token::Int(n)) => Ok(AttrValue::Int(n)),
        Some(Token::Str(s)) => Ok(AttrValue::Str(s)),
        other => Err(parser.syntax(format!(
            "expected an integer or quoted string literal, found {other:?}"
        ))),
    }
}

/// Parses a targeting expression from text into its [`TargetExpr`] AST.
///
/// ```
/// use ssa_bidlang::targeting::{parse_targeting, UserAttrs};
///
/// let expr = parse_targeting("geo = 'us' and not device = 'tv'").unwrap();
/// assert!(expr.matches(&UserAttrs::new().geo("us").device("mobile")));
/// assert!(!expr.matches(&UserAttrs::new().geo("us").device("tv")));
/// assert!(!expr.matches(&UserAttrs::new()));
/// ```
pub fn parse_targeting(input: &str) -> Result<TargetExpr, ParseError> {
    parse::<Targeting>(input)
}

// ---------------------------------------------------------------------------
// The compiled matcher.
// ---------------------------------------------------------------------------

/// One postfix bytecode instruction; leaves push a comparison result,
/// connectives pop and combine.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TargetOp {
    And,
    Or,
    Not,
    Cmp {
        key: String,
        op: CmpOp,
        value: AttrValue,
    },
    In {
        key: String,
        values: Vec<AttrValue>,
    },
}

/// A targeting expression compiled to postfix bytecode, retaining its
/// source text (which is what wire frames and WAL records carry).
///
/// Compiled once per campaign at registration; the per-auction cost is
/// one pass of [`CompiledTargeting::matches`] — an allocation-free,
/// recursion-free stack loop whose depth the parser's
/// [`MAX_NESTING_DEPTH`] bounds.
///
/// ```
/// use ssa_bidlang::targeting::{CompiledTargeting, UserAttrs};
///
/// let t = CompiledTargeting::parse("segment in ('sports', 'autos') and age >= 21").unwrap();
/// assert!(t.matches(&UserAttrs::new().segment("autos").set_int("age", 34)));
/// assert!(!t.matches(&UserAttrs::new().segment("autos").set_int("age", 20)));
/// assert_eq!(t.source(), "segment in ('sports', 'autos') and age >= 21");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTargeting {
    source: String,
    ops: Vec<TargetOp>,
}

/// Appends `expr`'s postfix code to `ops` iteratively (an explicit work
/// list, so left-deep chains of any length compile without recursion).
fn emit(expr: &TargetExpr, ops: &mut Vec<TargetOp>) {
    enum Work<'a> {
        Visit(&'a TargetExpr),
        Emit(&'a TargetExpr),
    }
    let mut stack = vec![Work::Visit(expr)];
    while let Some(item) = stack.pop() {
        match item {
            Work::Visit(e) => match e {
                TargetExpr::And(a, b) | TargetExpr::Or(a, b) => {
                    stack.push(Work::Emit(e));
                    stack.push(Work::Visit(b));
                    stack.push(Work::Visit(a));
                }
                TargetExpr::Not(inner) => {
                    stack.push(Work::Emit(e));
                    stack.push(Work::Visit(inner));
                }
                leaf => stack.push(Work::Emit(leaf)),
            },
            Work::Emit(e) => ops.push(match e {
                TargetExpr::And(..) => TargetOp::And,
                TargetExpr::Or(..) => TargetOp::Or,
                TargetExpr::Not(..) => TargetOp::Not,
                TargetExpr::Cmp { key, op, value } => TargetOp::Cmp {
                    key: key.clone(),
                    op: *op,
                    value: value.clone(),
                },
                TargetExpr::In { key, values } => TargetOp::In {
                    key: key.clone(),
                    values: values.clone(),
                },
            }),
        }
    }
}

impl CompiledTargeting {
    /// Parses and compiles a targeting source in one step.
    pub fn parse(source: &str) -> Result<Self, ParseError> {
        let expr = parse_targeting(source)?;
        Ok(CompiledTargeting::compile(&expr, source))
    }

    /// Compiles an already-parsed expression, recording `source` as the
    /// canonical text to journal and put on the wire.
    pub fn compile(expr: &TargetExpr, source: &str) -> Self {
        let mut ops = Vec::new();
        emit(expr, &mut ops);
        let compiled = CompiledTargeting {
            source: source.to_string(),
            ops,
        };
        debug_assert!(
            compiled.max_stack() <= EVAL_STACK,
            "postfix stack outgrew the depth bound"
        );
        compiled
    }

    /// The source text the expression was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Maximum evaluation-stack occupancy of the program.
    fn max_stack(&self) -> usize {
        let mut depth = 0usize;
        let mut max = 0usize;
        for op in &self.ops {
            match op {
                TargetOp::And | TargetOp::Or => depth -= 1,
                TargetOp::Not => {}
                TargetOp::Cmp { .. } | TargetOp::In { .. } => {
                    depth += 1;
                    max = max.max(depth);
                }
            }
        }
        max
    }

    /// Whether a query with these attributes satisfies the expression.
    /// Allocation-free and recursion-free: one pass over the bytecode with
    /// a fixed-size boolean stack.
    pub fn matches(&self, attrs: &UserAttrs) -> bool {
        let mut stack = [false; EVAL_STACK];
        let mut top = 0usize;
        for op in &self.ops {
            match op {
                TargetOp::And => {
                    top -= 1;
                    stack[top - 1] = stack[top - 1] && stack[top];
                }
                TargetOp::Or => {
                    top -= 1;
                    stack[top - 1] = stack[top - 1] || stack[top];
                }
                TargetOp::Not => stack[top - 1] = !stack[top - 1],
                TargetOp::Cmp { key, op, value } => {
                    stack[top] = compare(attrs.get(key), *op, value);
                    top += 1;
                }
                TargetOp::In { key, values } => {
                    stack[top] = attrs
                        .get(key)
                        .map(|have| values.iter().any(|v| v == have))
                        .unwrap_or(false);
                    top += 1;
                }
            }
        }
        debug_assert_eq!(top, 1, "a well-formed program leaves one result");
        stack[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParseErrorKind;

    fn attrs() -> UserAttrs {
        UserAttrs::new()
            .geo("us")
            .device("mobile")
            .segment("sports")
            .set_int("age", 34)
    }

    #[test]
    fn attribute_bags_sort_and_replace() {
        let a = UserAttrs::new().set_int("z", 1).geo("us").set_int("z", 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("z"), Some(&AttrValue::Int(2)));
        assert_eq!(a.get("geo"), Some(&AttrValue::Str("us".into())));
        assert_eq!(a.get("missing"), None);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["geo", "z"], "entries stay sorted by key");
        // Insertion order never matters: equal content ⇒ equal bags.
        let b = UserAttrs::new().geo("us").set_int("z", 2);
        assert_eq!(a, b);
        assert!(UserAttrs::empty_ref().is_empty());
    }

    #[test]
    fn comparisons_follow_the_documented_semantics() {
        let t = |src: &str| CompiledTargeting::parse(src).expect("parses");
        let a = attrs();
        assert!(t("geo = 'us'").matches(&a));
        assert!(!t("geo = 'de'").matches(&a));
        assert!(t("geo != 'de'").matches(&a));
        assert!(t("age >= 21").matches(&a));
        assert!(t("age < 35").matches(&a));
        assert!(!t("age > 34").matches(&a));
        assert!(t("age <= 34").matches(&a));
        // Missing keys fail every comparison, != and in included.
        let empty = UserAttrs::new();
        for src in ["geo = 'us'", "geo != 'us'", "age < 99", "geo in ('us')"] {
            assert!(!t(src).matches(&empty), "{src} held on empty attrs");
        }
        // Type mismatches are false, both directions.
        assert!(!t("geo = 5").matches(&a));
        assert!(!t("geo != 5").matches(&a), "!= needs matching types");
        assert!(!t("age = 'us'").matches(&a));
        // Strings never order.
        assert!(!t("geo < 'zz'").matches(&a));
        // Set membership.
        assert!(t("segment in ('autos', 'sports')").matches(&a));
        assert!(!t("segment in ('autos', 'news')").matches(&a));
        assert!(t("age in (33, 34)").matches(&a));
    }

    #[test]
    fn connectives_and_precedence() {
        let t = |src: &str| CompiledTargeting::parse(src).expect("parses");
        let a = attrs();
        assert!(t("geo = 'us' and device = 'mobile'").matches(&a));
        assert!(!t("geo = 'us' and device = 'tv'").matches(&a));
        assert!(t("geo = 'de' or device = 'mobile'").matches(&a));
        assert!(t("not geo = 'de'").matches(&a));
        // and binds tighter than or: the left disjunct alone decides.
        assert!(t("geo = 'us' or device = 'tv' and age < 0").matches(&a));
        assert!(!t("(geo = 'us' or device = 'tv') and age < 0").matches(&a));
        // Case-insensitive word operators.
        assert!(t("geo = 'us' AND NOT device = 'tv'").matches(&a));
    }

    #[test]
    fn compiled_matches_reference_on_every_shape() {
        // The bytecode and the AST interpreter must agree everywhere,
        // including deep mixes of every construct.
        let sources = [
            "geo = 'us'",
            "not not geo = 'us'",
            "geo = 'us' and device = 'mobile' or segment in ('sports') and age > 30",
            "not (geo = 'de' or (device = 'tv' and not age < 21))",
            "age in (1, 2, 34) or (geo != 'us' and age >= 0)",
        ];
        let bags = [
            UserAttrs::new(),
            attrs(),
            UserAttrs::new().geo("de").device("tv"),
            UserAttrs::new().set_int("age", 20),
        ];
        for src in sources {
            let expr = parse_targeting(src).expect("parses");
            let compiled = CompiledTargeting::compile(&expr, src);
            for bag in &bags {
                assert_eq!(
                    compiled.matches(bag),
                    expr.matches(bag),
                    "compiled and reference disagree on {src:?}"
                );
            }
        }
    }

    #[test]
    fn long_flat_chains_evaluate_in_constant_stack() {
        // Left-deep chains are the unbounded shape the fixed-size stack
        // must absorb: 10k conjuncts parse at depth 1 and evaluate fine.
        let chain = |terms: usize| {
            (0..terms)
                .map(|i| format!("age != {}", i + 1000))
                .collect::<Vec<_>>()
                .join(" and ")
        };
        let t = CompiledTargeting::parse(&chain(10_000)).expect("flat chains are not deep");
        assert!(t.matches(&UserAttrs::new().set_int("age", 7)));
        assert!(!t.matches(&UserAttrs::new().set_int("age", 1500)));
        assert!(!t.matches(&UserAttrs::new()), "missing key fails !=");
        // Parsing, compiling and dropping the AST never recurse per link
        // either: 100k conjuncts fit the 2 MiB stack of a thread started
        // with `std::thread::spawn`, such as a server's executor.
        let src = chain(100_000);
        let matched = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let t = CompiledTargeting::parse(&src).expect("flat chains are not deep");
                t.matches(&UserAttrs::new().set_int("age", 7))
            })
            .expect("spawn")
            .join()
            .expect("a 100k-term chain fits a 2 MiB stack");
        assert!(matched);
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        for input in [
            format!("{}geo = 'us'{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}geo = 'us'", "not ".repeat(100_000)),
        ] {
            let err = parse_targeting(&input).expect_err("depth limit");
            assert_eq!(err.kind, ParseErrorKind::TooDeep, "{} bytes", input.len());
            assert!(err.message.contains("nesting"));
        }
        // Reasonable nesting still parses (and compiles).
        let ok = format!("{}geo = 'us'{}", "(".repeat(20), ")".repeat(20));
        assert!(CompiledTargeting::parse(&ok).is_ok());
    }

    #[test]
    fn syntax_errors_are_typed_and_positioned() {
        for src in [
            "",
            "geo",
            "geo =",
            "geo = 'us",
            "= 'us'",
            "geo in ()",
            "geo in ('us'",
            "geo ~ 'us'",
            "geo = 'us' extra",
            "and geo = 'us'",
            "age = 99999999999999999999999",
        ] {
            let err = CompiledTargeting::parse(src).expect_err(src);
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{src:?}");
        }
        for (src, position) in [
            ("geo ~ 'us'", 4),
            ("gé = 'us'", 1),
            ("age < ٣", 6),
            // Formula syntax is no targeting syntax.
            ("geo = 'us' & age >= 21", 11),
            ("geo = 'us' ∧ age >= 21", 11),
            ("!geo = 'us'", 0),
            ("true", 4),
        ] {
            let err = CompiledTargeting::parse(src).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{src:?}");
            assert_eq!(err.position, position, "{src:?}");
            let display: Box<dyn std::error::Error> = Box::new(err);
            assert!(display.to_string().contains(&format!("byte {position}")));
        }
    }

    #[test]
    fn source_survives_compilation() {
        let src = "geo = 'us' and device in ('mobile', 'tablet')";
        let t = CompiledTargeting::parse(src).unwrap();
        assert_eq!(t.source(), src);
        // Reparsing the retained source reproduces the same program —
        // the round trip the WAL and wire layers rely on.
        assert_eq!(CompiledTargeting::parse(t.source()).unwrap(), t);
    }
}
