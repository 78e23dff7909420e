//! Recursive-descent parser for the SQL dialect.

use crate::ast::{
    AggFunc, CmpOp, ColumnRef, Expr, ParamRef, Select, SelectItem, SetClause, Statement,
};
use crate::error::{DbError, DbResult};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::{ArithOp, Value, ValueType};

/// Maximum combined statement/expression nesting depth. Bidding programs
/// come from untrusted advertisers; unbounded recursive descent would let
/// `((((…` or deeply nested `IF`s overflow the parser stack.
pub(crate) const MAX_PARSE_DEPTH: usize = 64;

/// Parses a script of one or more `;`-separated statements.
pub(crate) fn parse_script(input: &str) -> DbResult<Vec<Statement>> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        index: 0,
        input_len: input.len(),
        depth: 0,
        positional: 0,
        trigger: None,
    };
    let mut statements = Vec::new();
    loop {
        p.skip_semicolons();
        if p.at_end() {
            break;
        }
        statements.push(p.parse_statement()?);
    }
    Ok(statements)
}

struct Parser {
    tokens: Vec<Token>,
    index: usize,
    input_len: usize,
    /// Current recursive-descent nesting depth (statements + expressions).
    depth: usize,
    /// Positional (`?`) parameters seen so far, in statement order.
    positional: usize,
    /// The trigger whose body is being parsed, if any. A body holds only
    /// `UPDATE`, `DELETE`, `SET`, `IF` and `SELECT`, and no placeholder:
    /// it runs long after the creating statement's parameters are gone.
    /// Both are refused here rather than when the trigger fires.
    trigger: Option<String>,
}

impl Parser {
    /// Enters one nesting level; errors once [`MAX_PARSE_DEPTH`] is hit.
    fn descend(&mut self) -> DbResult<()> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            Err(DbError::NestingTooDeep {
                limit: MAX_PARSE_DEPTH,
            })
        } else {
            Ok(())
        }
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }
    fn at_end(&self) -> bool {
        self.index >= self.tokens.len()
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.index)
            .map(|t| t.position)
            .unwrap_or(self.input_len)
    }

    fn error(&self, message: impl Into<String>) -> DbError {
        DbError::Parse {
            message: message.into(),
            position: self.position(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.index).map(|t| &t.kind)
    }

    fn peek_at(&self, offset: usize) -> Option<&TokenKind> {
        self.tokens.get(self.index + offset).map(|t| &t.kind)
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.index).map(|t| t.kind.clone());
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Keyword(k)) if k.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.index += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: char) -> bool {
        if matches!(self.peek(), Some(TokenKind::Symbol(c)) if *c == sym) {
            self.index += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: char) -> DbResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.peek() {
            Some(kind) => match ident_like(kind) {
                Some(name) => {
                    self.index += 1;
                    Ok(name)
                }
                None => Err(self.error("expected an identifier")),
            },
            None => Err(self.error("expected an identifier")),
        }
    }

    fn skip_semicolons(&mut self) {
        while self.eat_symbol(';') {}
    }

    // ---- statements ------------------------------------------------------

    fn parse_statement(&mut self) -> DbResult<Statement> {
        self.descend()?;
        let statement = self.parse_statement_at_depth();
        self.ascend();
        statement
    }

    fn parse_statement_at_depth(&mut self) -> DbResult<Statement> {
        if let Some(trigger) = &self.trigger {
            if let Some(statement) = self.refused_in_body() {
                return Err(DbError::TriggerBody {
                    trigger: trigger.clone(),
                    statement,
                    position: self.position(),
                });
            }
        }
        match self.peek() {
            Some(TokenKind::Keyword(k)) => match k.to_ascii_uppercase().as_str() {
                "CREATE" => self.parse_create(),
                "DROP" => self.parse_drop(),
                "INSERT" => self.parse_insert(),
                "UPDATE" => self.parse_update(),
                "DELETE" => self.parse_delete(),
                "SELECT" => Ok(Statement::Select(self.parse_select()?)),
                "IF" => self.parse_if(),
                "SET" => self.parse_set_var(),
                other => Err(self.error(format!("unexpected keyword {other}"))),
            },
            _ => Err(self.error("expected a statement")),
        }
    }

    /// The statement starting here, named by its leading words (`INSERT
    /// INTO Log`, `DROP TABLE Bids`, `EXPLAIN`), if a trigger body may not
    /// hold it: any statement led by a word other than `UPDATE`, `DELETE`,
    /// `SET`, `IF` and `SELECT` is refused before it is parsed, so the
    /// error names the rule, not some flaw in the refused statement.
    fn refused_in_body(&self) -> Option<String> {
        let lead = match self.peek()? {
            TokenKind::Keyword(k) => k.to_ascii_uppercase(),
            TokenKind::Ident(word) => return Some(word.to_ascii_uppercase()),
            _ => return None,
        };
        if matches!(lead.as_str(), "UPDATE" | "DELETE" | "SET" | "IF" | "SELECT") {
            return None;
        }
        let mut words = vec![lead];
        if let Some(TokenKind::Keyword(k)) = self.peek_at(1) {
            words.push(k.to_ascii_uppercase());
            words.extend(self.peek_at(2).and_then(ident_like));
        }
        Some(words.join(" "))
    }

    fn parse_create(&mut self) -> DbResult<Statement> {
        self.expect_keyword("CREATE")?;
        if self.eat_keyword("TABLE") {
            let name = self.expect_ident()?;
            self.expect_symbol('(')?;
            let mut columns: Vec<(String, ValueType)> = Vec::new();
            loop {
                let col = self.expect_ident()?;
                if columns
                    .iter()
                    .any(|(seen, _)| seen.eq_ignore_ascii_case(&col))
                {
                    return Err(DbError::DuplicateColumn(col));
                }
                let ty = self.parse_type()?;
                columns.push((col, ty));
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_keyword("TRIGGER") {
            let name = self.expect_ident()?;
            self.expect_keyword("AFTER")?;
            self.expect_keyword("INSERT")?;
            self.expect_keyword("ON")?;
            let table = self.expect_ident()?;
            self.expect_symbol('{')?;
            let mut body = Vec::new();
            // A body cannot hold a `CREATE TRIGGER`, so there is no outer
            // trigger to restore; an error abandons the whole parse.
            self.trigger = Some(name.clone());
            loop {
                self.skip_semicolons();
                if self.eat_symbol('}') {
                    break;
                }
                if self.at_end() {
                    return Err(self.error("unterminated trigger body"));
                }
                body.push(self.parse_statement()?);
            }
            self.trigger = None;
            Ok(Statement::CreateTrigger { name, table, body })
        } else {
            Err(self.error("expected TABLE or TRIGGER after CREATE"))
        }
    }

    fn parse_drop(&mut self) -> DbResult<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_ident()?;
        Ok(Statement::DropTable { name })
    }

    fn parse_type(&mut self) -> DbResult<ValueType> {
        let kw = match self.advance() {
            Some(TokenKind::Keyword(k)) => k,
            _ => return Err(self.error("expected a column type")),
        };
        let ty = match kw.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" => ValueType::Int,
            "FLOAT" | "REAL" => ValueType::Float,
            "TEXT" | "VARCHAR" => {
                // Optional length: VARCHAR(40).
                if self.eat_symbol('(') {
                    match self.advance() {
                        Some(TokenKind::Int(_)) => {}
                        _ => return Err(self.error("expected length")),
                    }
                    self.expect_symbol(')')?;
                }
                ValueType::Text
            }
            "BOOL" | "BOOLEAN" => ValueType::Bool,
            other => return Err(self.error(format!("unknown type {other}"))),
        };
        Ok(ty)
    }

    fn parse_insert(&mut self) -> DbResult<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        let columns = if self.eat_symbol('(') {
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol('(')?;
            let mut exprs = Vec::new();
            loop {
                exprs.push(self.parse_expr()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            rows.push(exprs);
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> DbResult<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.expect_ident()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let column = self.expect_ident()?;
            if !matches!(self.advance(), Some(TokenKind::Eq)) {
                return Err(self.error("expected '=' in SET clause"));
            }
            let value = self.parse_expr()?;
            sets.push(SetClause { column, value });
            if !self.eat_symbol(',') {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn parse_delete(&mut self) -> DbResult<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn parse_if(&mut self) -> DbResult<Statement> {
        self.expect_keyword("IF")?;
        let mut arms = Vec::new();
        let mut else_block = None;
        let cond = self.parse_expr()?;
        self.expect_keyword("THEN")?;
        let block = self.parse_block_until(&["ELSEIF", "ELSE", "ENDIF"])?;
        arms.push((cond, block));
        loop {
            if self.eat_keyword("ELSEIF") {
                let cond = self.parse_expr()?;
                self.expect_keyword("THEN")?;
                let block = self.parse_block_until(&["ELSEIF", "ELSE", "ENDIF"])?;
                arms.push((cond, block));
            } else if self.eat_keyword("ELSE") {
                else_block = Some(self.parse_block_until(&["ENDIF"])?);
            } else if self.eat_keyword("ENDIF") {
                break;
            } else {
                return Err(self.error("expected ELSEIF, ELSE, or ENDIF"));
            }
        }
        Ok(Statement::If { arms, else_block })
    }

    fn parse_block_until(&mut self, terminators: &[&str]) -> DbResult<Vec<Statement>> {
        let mut block = Vec::new();
        loop {
            self.skip_semicolons();
            match self.peek() {
                Some(TokenKind::Keyword(k))
                    if terminators.contains(&k.to_ascii_uppercase().as_str()) =>
                {
                    break
                }
                None => return Err(self.error("unterminated IF block")),
                _ => block.push(self.parse_statement()?),
            }
        }
        Ok(block)
    }

    fn parse_set_var(&mut self) -> DbResult<Statement> {
        self.expect_keyword("SET")?;
        let name = self.expect_ident()?;
        if !matches!(self.advance(), Some(TokenKind::Eq)) {
            return Err(self.error("expected '=' in SET"));
        }
        let value = self.parse_expr()?;
        Ok(Statement::SetVar { name, value })
    }

    fn parse_select(&mut self) -> DbResult<Select> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_symbol(',') {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.expect_ident()?;
        let alias = match self.peek() {
            Some(TokenKind::Ident(_)) => Some(self.expect_ident()?),
            Some(TokenKind::Keyword(k)) if k.eq_ignore_ascii_case("AS") => {
                self.index += 1;
                Some(self.expect_ident()?)
            }
            _ => None,
        };
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            items,
            from,
            alias,
            where_clause,
        })
    }

    fn parse_select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_symbol('*') {
            return Ok(SelectItem::Star);
        }
        if let Some(TokenKind::Keyword(k)) = self.peek() {
            // Aggregate only when followed by '(' — `SELECT max FROM t`
            // reads a column called "max".
            if let Some(agg) = agg_from_keyword(k) {
                if matches!(self.peek_at(1), Some(TokenKind::Symbol('('))) {
                    self.index += 2;
                    let inner = if self.eat_symbol('*') {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect_symbol(')')?;
                    return Ok(SelectItem::Agg(agg, inner));
                }
            }
        }
        Ok(SelectItem::Expr(self.parse_expr()?))
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> DbResult<Expr> {
        self.descend()?;
        let expr = self.parse_or();
        self.ascend();
        expr
    }

    fn parse_or(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_and()?;
        let mut charged = 0usize;
        while self.eat_keyword("OR") {
            // Chained operators build a left-nested tree whose spine later
            // tree walks (lowering, evaluation) recurse down, so each term
            // draws on the same depth budget as parenthesised nesting.
            self.descend()?;
            charged += 1;
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth -= charged;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_not()?;
        let mut charged = 0usize;
        while self.eat_keyword("AND") {
            self.descend()?;
            charged += 1;
            let rhs = self.parse_not()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth -= charged;
        Ok(lhs)
    }

    fn parse_not(&mut self) -> DbResult<Expr> {
        if self.eat_keyword("NOT") {
            self.descend()?;
            let inner = self.parse_not();
            self.ascend();
            Ok(Expr::Not(Box::new(inner?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> DbResult<Expr> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Some(TokenKind::Eq) => Some(CmpOp::Eq),
            Some(TokenKind::Neq) => Some(CmpOp::Neq),
            Some(TokenKind::Lt) => Some(CmpOp::Lt),
            Some(TokenKind::Le) => Some(CmpOp::Le),
            Some(TokenKind::Gt) => Some(CmpOp::Gt),
            Some(TokenKind::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.index += 1;
            let rhs = self.parse_additive()?;
            Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_additive(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        let mut charged = 0usize;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Symbol('+')) => ArithOp::Add,
                Some(TokenKind::Symbol('-')) => ArithOp::Sub,
                _ => break,
            };
            self.index += 1;
            self.descend()?;
            charged += 1;
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        self.depth -= charged;
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_unary()?;
        let mut charged = 0usize;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Symbol('*')) => ArithOp::Mul,
                Some(TokenKind::Symbol('/')) => ArithOp::Div,
                Some(TokenKind::Symbol('%')) => ArithOp::Mod,
                _ => break,
            };
            self.index += 1;
            self.descend()?;
            charged += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        self.depth -= charged;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> DbResult<Expr> {
        if self.eat_symbol('-') {
            self.descend()?;
            let inner = self.parse_unary();
            self.ascend();
            Ok(Expr::Neg(Box::new(inner?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> DbResult<Expr> {
        match self.peek().cloned() {
            Some(TokenKind::Question) => {
                if self.trigger.is_some() {
                    return Err(self.error(
                        "parameters are not allowed in trigger bodies \
                         (use host variables for per-firing values)",
                    ));
                }
                self.index += 1;
                let i = self.positional;
                self.positional += 1;
                Ok(Expr::Param(ParamRef::Positional(i)))
            }
            Some(TokenKind::NamedParam(name)) => {
                if self.trigger.is_some() {
                    return Err(self.error(
                        "parameters are not allowed in trigger bodies \
                         (use host variables for per-firing values)",
                    ));
                }
                self.index += 1;
                Ok(Expr::Param(ParamRef::Named(name)))
            }
            Some(TokenKind::Int(v)) => {
                self.index += 1;
                Ok(Expr::Literal(Value::Int(v)))
            }
            Some(TokenKind::Float(v)) => {
                self.index += 1;
                Ok(Expr::Literal(Value::Float(v)))
            }
            Some(TokenKind::Str(s)) => {
                self.index += 1;
                Ok(Expr::Literal(Value::Text(s.into())))
            }
            Some(TokenKind::Keyword(k)) if k.eq_ignore_ascii_case("NULL") => {
                self.index += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(TokenKind::Keyword(k)) if k.eq_ignore_ascii_case("TRUE") => {
                self.index += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(TokenKind::Keyword(k)) if k.eq_ignore_ascii_case("FALSE") => {
                self.index += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(TokenKind::Symbol('(')) => {
                self.index += 1;
                if self.peek_keyword("SELECT") {
                    let select = self.parse_select()?;
                    self.expect_symbol(')')?;
                    Ok(Expr::Subquery(Box::new(select)))
                } else {
                    let inner = self.parse_expr()?;
                    self.expect_symbol(')')?;
                    Ok(inner)
                }
            }
            Some(ref kind) if ident_like(kind).is_some() => {
                let first = self.expect_ident()?;
                if matches!(self.peek(), Some(TokenKind::Symbol('.')))
                    && self
                        .peek_at(1)
                        .map(|k| ident_like(k).is_some())
                        .unwrap_or(false)
                {
                    self.index += 1; // '.'
                    let column = self.expect_ident()?;
                    Ok(Expr::Column(ColumnRef {
                        qualifier: Some(first),
                        column,
                    }))
                } else {
                    Ok(Expr::Column(ColumnRef {
                        qualifier: None,
                        column: first,
                    }))
                }
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Keywords that may double as identifiers ("soft" keywords). The paper's
/// own Figure 4 names a column `text`, so type and aggregate names must not
/// be reserved in identifier position.
const SOFT_IDENT_KEYWORDS: &[&str] = &[
    "TEXT", "INT", "FLOAT", "BOOL", "INTEGER", "REAL", "VARCHAR", "BOOLEAN", "MAX", "MIN", "SUM",
    "AVG", "COUNT",
];

fn ident_like(kind: &TokenKind) -> Option<String> {
    match kind {
        TokenKind::Ident(name) => Some(name.clone()),
        TokenKind::Keyword(k) if SOFT_IDENT_KEYWORDS.contains(&k.to_ascii_uppercase().as_str()) => {
            Some(k.clone())
        }
        _ => None,
    }
}

fn agg_from_keyword(k: &str) -> Option<AggFunc> {
    match k.to_ascii_uppercase().as_str() {
        "MAX" => Some(AggFunc::Max),
        "MIN" => Some(AggFunc::Min),
        "SUM" => Some(AggFunc::Sum),
        "COUNT" => Some(AggFunc::Count),
        "AVG" => Some(AggFunc::Avg),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses exactly one statement.
    fn parse_statement(input: &str) -> DbResult<Statement> {
        let mut statements = parse_script(input)?;
        let n = statements.len();
        match statements.pop() {
            Some(statement) if n == 1 => Ok(statement),
            _ => Err(DbError::Parse {
                message: format!("expected exactly one statement, found {n}"),
                position: 0,
            }),
        }
    }

    #[test]
    fn create_table() {
        let s = parse_statement("CREATE TABLE Keywords (text TEXT, bid INT, roi FLOAT)").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "Keywords".into(),
                columns: vec![
                    ("text".into(), ValueType::Text),
                    ("bid".into(), ValueType::Int),
                    ("roi".into(), ValueType::Float),
                ],
            }
        );
    }

    #[test]
    fn duplicate_column_names_are_rejected() {
        let sql = "CREATE TABLE X (a INT, A INT)";
        assert!(
            matches!(parse_statement(sql), Err(DbError::DuplicateColumn(_))),
            "{sql} accepted"
        );
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
                assert_eq!(rows.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_with_subquery() {
        let s = parse_statement(
            "UPDATE Keywords SET bid = bid + 1 \
             WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K ) AND relevance > 0",
        )
        .unwrap();
        match s {
            Statement::Update {
                sets, where_clause, ..
            } => {
                assert_eq!(sets.len(), 1);
                let w = where_clause.expect("where");
                // AND of (roi = subquery) and (relevance > 0).
                assert!(matches!(w, Expr::And(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_elseif_endif() {
        let s = parse_statement(
            "IF a < b THEN UPDATE t SET x = 1; \
             ELSEIF a > b THEN UPDATE t SET x = 2; \
             ELSE UPDATE t SET x = 3; ENDIF",
        )
        .unwrap();
        match s {
            Statement::If { arms, else_block } => {
                assert_eq!(arms.len(), 2);
                assert!(else_block.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trigger_with_body() {
        let s = parse_statement(
            "CREATE TRIGGER bid AFTER INSERT ON Query { \
               UPDATE Bids SET value = 0; \
               UPDATE Bids SET value = 1 WHERE formula = 'Click'; \
             }",
        )
        .unwrap();
        match s {
            Statement::CreateTrigger { name, table, body } => {
                assert_eq!(name, "bid");
                assert_eq!(table, "Query");
                assert_eq!(body.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_and_aggregates() {
        let s = parse_statement("SELECT * FROM t WHERE a >= 2").unwrap();
        assert!(matches!(s, Statement::Select(_)));
        let s = parse_statement("SELECT COUNT(*), SUM(bid), AVG(roi) FROM t").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 3);
                assert!(matches!(
                    sel.items[0],
                    SelectItem::Agg(AggFunc::Count, None)
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let s = parse_statement("SELECT a + b * 2 FROM t").unwrap();
        match s {
            Statement::Select(sel) => match &sel.items[0] {
                SelectItem::Expr(Expr::Arith(_, ArithOp::Add, rhs)) => {
                    assert!(matches!(**rhs, Expr::Arith(_, ArithOp::Mul, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qualified_columns_and_alias() {
        let s = parse_statement("SELECT K.bid FROM Keywords K WHERE K.relevance > 0.7").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.alias.as_deref(), Some("K"));
                assert!(matches!(
                    &sel.items[0],
                    SelectItem::Expr(Expr::Column(ColumnRef { qualifier: Some(q), .. })) if q == "K"
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_var_statement() {
        let s = parse_statement("SET amtSpent = amtSpent + 3").unwrap();
        assert!(matches!(s, Statement::SetVar { .. }));
    }

    #[test]
    fn parameters_positional_and_named() {
        let s = parse_statement("UPDATE t SET a = ?, b = :bee WHERE c = ?").unwrap();
        match s {
            Statement::Update {
                sets, where_clause, ..
            } => {
                assert_eq!(
                    sets[0].value,
                    Expr::Param(ParamRef::Positional(0)),
                    "first ? is index 0"
                );
                assert_eq!(sets[1].value, Expr::Param(ParamRef::Named("bee".into())));
                let w = where_clause.expect("where");
                assert!(matches!(
                    w,
                    Expr::Cmp(_, CmpOp::Eq, rhs) if *rhs == Expr::Param(ParamRef::Positional(1))
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Parenthesised expressions.
        let deep = format!(
            "SELECT {}1{} FROM t",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        assert_eq!(
            parse_statement(&deep),
            Err(DbError::NestingTooDeep {
                limit: MAX_PARSE_DEPTH
            })
        );
        // NOT and unary-minus chains recurse without parentheses.
        let nots = format!("SELECT * FROM t WHERE {} a > 0", "NOT ".repeat(10_000));
        assert!(matches!(
            parse_statement(&nots),
            Err(DbError::NestingTooDeep { .. })
        ));
        let negs = format!("SELECT {}1 FROM t", "- ".repeat(10_000));
        assert!(matches!(
            parse_statement(&negs),
            Err(DbError::NestingTooDeep { .. })
        ));
        // Nested IF statements.
        let ifs = format!(
            "{} UPDATE t SET a = 1; {}",
            "IF 1 = 1 THEN ".repeat(10_000),
            "ENDIF; ".repeat(10_000)
        );
        assert!(matches!(
            parse_statement(&ifs),
            Err(DbError::NestingTooDeep { .. })
        ));
        // Nested scalar subqueries.
        let subs = format!(
            "SELECT {} MAX(a) {} FROM t",
            "( SELECT ".repeat(10_000),
            "FROM t )".repeat(10_000)
        );
        assert!(matches!(
            parse_statement(&subs),
            Err(DbError::NestingTooDeep { .. })
        ));
        // Reasonable nesting still parses.
        let ok = format!("SELECT {}1{} FROM t", "(".repeat(20), ")".repeat(20));
        assert!(parse_statement(&ok).is_ok());
    }

    #[test]
    fn errors() {
        assert!(parse_statement("").is_err());
        // No statement begins with `EXPLAIN`: the word is an identifier.
        assert!(matches!(
            parse_script("EXPLAIN SELECT * FROM t"),
            Err(DbError::Parse { .. })
        ));
        assert!(parse_statement("CREATE").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("UPDATE t SET").is_err());
        assert!(parse_statement("IF a THEN UPDATE t SET x = 1;").is_err()); // no ENDIF
        assert!(parse_statement("INSERT INTO t VALUES (1); SELECT * FROM t").is_err()); // two stmts
        assert!(parse_script("SELECT * FROM t; SELECT * FROM u").map(|v| v.len()) == Ok(2));
    }

    #[test]
    fn script_with_trailing_semicolons() {
        let script = parse_script(";;SELECT * FROM t;;;").unwrap();
        assert_eq!(script.len(), 1);
    }
}
