//! SQL abstract syntax tree.
//!
//! The grammar covers what the TPC-D suite and the SAP R/3 simulator's
//! generated SQL need: select/insert/delete/update, DDL, joins (explicit
//! and comma-style), nested subqueries (scalar, IN, EXISTS), aggregates
//! with DISTINCT, CASE, LIKE, BETWEEN, date/interval arithmetic, and
//! positional `?` parameters.

use crate::types::{DataType, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Statement {
    Select(Box<SelectStmt>),
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        primary_key: Vec<String>,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    CreateView {
        name: String,
        query: Box<SelectStmt>,
    },
    DropTable {
        name: String,
    },
    DropIndex {
        name: String,
    },
    DropView {
        name: String,
    },
    /// Recompute optimizer statistics for one table or all tables.
    Analyze {
        table: Option<String>,
    },
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
}

/// A SELECT statement (also used as subquery body and view definition).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional output alias
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TableRef {
    /// Base table or view, optionally aliased.
    Named { name: String, alias: Option<String> },
    /// Explicit `a JOIN b ON cond`.
    Join { left: Box<TableRef>, right: Box<TableRef>, kind: JoinKind, on: Expr },
    /// Derived table `(SELECT ...) AS alias`.
    Subquery { query: Box<SelectStmt>, alias: String },
}

impl TableRef {
    /// The binding name this reference introduces (alias or table name)
    /// when it is a leaf.
    pub fn binding(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    /// Positional parameter `?` (0-based index in bind order).
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    ScalarSubquery(Box<SelectStmt>),
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Agg {
        func: AggFunc,
        /// `None` for COUNT(*).
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// `EXTRACT(unit FROM expr)`.
    Extract {
        unit: IntervalUnit,
        expr: Box<Expr>,
    },
    /// `expr + INTERVAL 'n' unit` / `expr - INTERVAL 'n' unit`.
    IntervalAdd {
        expr: Box<Expr>,
        amount: i32,
        unit: IntervalUnit,
    },
    /// Named scalar function (SUBSTR, VENDOR_CONTAINS, ...).
    Func {
        name: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        match name.split_once('.') {
            Some((q, n)) => Expr::Column { qualifier: Some(q.to_string()), name: n.to_string() },
            None => Expr::Column { qualifier: None, name: name.to_string() },
        }
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::And, right)
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::Eq, right)
    }

    /// Combine a list of predicates with AND; `None` for an empty list.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() { return None } else { preds.remove(0) };
        Some(preds.into_iter().fold(first, Expr::and))
    }

    /// Split an expression into its top-level AND conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary { left, op: BinOp::And, right } => {
                let mut v = left.split_conjuncts();
                v.extend(right.split_conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Does this expression contain a parameter marker?
    pub fn contains_param(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                found = true;
            }
        });
        found
    }

    /// `==` that also tells literals apart by variant and exact value
    /// ([`Value::identical`]), subqueries included: `b + 1` is not
    /// `b + 1.0`, `'x'` is not `'x '`.
    pub fn identical(&self, other: &Expr) -> bool {
        self == other
            && identical_literals(
                literals(|f| self.walk(true, &mut |n| f(n))),
                literals(|f| other.walk(true, &mut |n| f(n))),
            )
    }

    /// Pre-order visit of this expression's nodes (not descending into
    /// subquery bodies).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.walk(false, &mut |node| {
            if let Node::Expr(e) = node {
                f(e)
            }
        })
    }

    /// Pre-order walk of this expression's nodes; `deep` also walks
    /// subquery bodies.
    fn walk<'a, F: FnMut(Node<'a>)>(&'a self, deep: bool, f: &mut F) {
        f(Node::Expr(self));
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Extract { expr, .. }
            | Expr::IntervalAdd { expr, .. } => expr.walk(deep, f),
            Expr::Binary { left, right, .. } | Expr::Like { expr: left, pattern: right, .. } => {
                left.walk(deep, f);
                right.walk(deep, f);
            }
            Expr::Between { expr, low, high, .. } => {
                for e in [expr, low, high] {
                    e.walk(deep, f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(deep, f);
                for e in list {
                    e.walk(deep, f);
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                expr.walk(deep, f);
                if deep {
                    query.walk(f);
                }
            }
            Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => {
                if deep {
                    query.walk(f);
                }
            }
            Expr::Case { branches, else_expr } => {
                for (c, r) in branches {
                    c.walk(deep, f);
                    r.walk(deep, f);
                }
                if let Some(e) = else_expr {
                    e.walk(deep, f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(deep, f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(deep, f);
                }
            }
        }
    }

    /// Column references in this expression (not descending into subqueries).
    pub fn column_refs(&self) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.clone(), name.clone()));
            }
        });
        out
    }

    /// Is this expression a bind-time constant: built only from literals and
    /// scalar operators, with no column, parameter, aggregate, or subquery?
    pub fn is_bind_constant(&self) -> bool {
        match self {
            Expr::Literal(_) => true,
            Expr::Unary { expr, .. } => expr.is_bind_constant(),
            Expr::Binary { left, op, right } => {
                !matches!(op, BinOp::And | BinOp::Or)
                    && left.is_bind_constant()
                    && right.is_bind_constant()
            }
            Expr::Extract { expr, .. } | Expr::IntervalAdd { expr, .. } => expr.is_bind_constant(),
            Expr::Func { args, .. } => args.iter().all(Expr::is_bind_constant),
            _ => false,
        }
    }
}

/// What a walk of a statement meets: every expression node, and the name
/// of every table or view a FROM clause reads. A DML statement's target is
/// written, not read, and is not a node.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    Expr(&'a Expr),
    Table(&'a str),
}

/// A statement's identity: a hash of its normal form
/// ([`Statement::normalized`]), so the literal variants of one statement
/// share an id. The hash follows each literal's variant and exact value
/// ([`Value::hash_exact`]), not SQL equality: `SELECT 3` and `SELECT 3.0`
/// project constants of different types and are different statements.
/// Keys that must never merge two statements (the plan cache) compare the
/// statements themselves ([`Statement::identical`]); the statement
/// statistics accept a 64-bit collision, as `pg_stat_statements`' queryid
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatementId(pub u64);

impl StatementId {
    /// The id of `stmt` as written (pass a normal form).
    pub fn of(stmt: &Statement) -> StatementId {
        let mut h = std::hash::DefaultHasher::new();
        stmt.hash(&mut h);
        stmt.visit_exprs(&mut |e| {
            if let Expr::Literal(v) = e {
                v.hash_exact(&mut h);
            }
        });
        StatementId(h.finish())
    }
}

impl Statement {
    /// The statement's normal form, and the constants it replaced in
    /// parameter order. Constants become `?` where a prepared cursor binds
    /// them: a SELECT's predicate operands ([`SelectStmt::parameterized`]),
    /// an UPDATE's SET values and WHERE, a DELETE's WHERE and an INSERT's
    /// VALUES. A statement that already carries `?` markers is its own
    /// normal form (renumbering them would scramble the client's binds),
    /// and DDL stays as written.
    pub fn normalized(mut self) -> (Statement, Vec<Expr>) {
        let (mut n, mut bound) = (0, Vec::new());
        if !self.has_params() {
            match &mut self {
                Statement::Select(q) => parameterize_select(q, &mut n, &mut bound),
                Statement::Insert { rows, .. } => {
                    for e in rows.iter_mut().flatten() {
                        parameterize_operand(e, &mut n, &mut bound);
                    }
                }
                Statement::Update { assignments, filter, .. } => {
                    for (_, e) in assignments {
                        parameterize_operand(e, &mut n, &mut bound);
                    }
                    if let Some(w) = filter {
                        parameterize_pred(w, &mut n, &mut bound);
                    }
                }
                Statement::Delete { filter: Some(w), .. } => {
                    parameterize_pred(w, &mut n, &mut bound)
                }
                _ => {}
            }
        }
        (self, bound)
    }

    /// The id of this statement's normal form.
    pub fn into_id(self) -> StatementId {
        StatementId::of(&self.normalized().0)
    }

    /// `==` that also tells literals apart by variant and exact value
    /// ([`Value::identical`]): `3` is not `3.0`, `'x'` is not `'x '`.
    pub fn identical(&self, other: &Statement) -> bool {
        self == other
            && identical_literals(
                literals(|f| self.walk(&mut |n| f(n))),
                literals(|f| other.walk(&mut |n| f(n))),
            )
    }

    /// Pre-order walk of the whole statement, subqueries and derived
    /// tables included (see [`Node`]).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        match self {
            Statement::Select(q) | Statement::CreateView { query: q, .. } => q.walk(f),
            Statement::Insert { rows, .. } => rows.iter().flatten().for_each(|e| e.walk(true, f)),
            Statement::Update { assignments, filter, .. } => {
                assignments.iter().map(|(_, e)| e).chain(filter).for_each(|e| e.walk(true, f))
            }
            Statement::Delete { filter, .. } => filter.iter().for_each(|e| e.walk(true, f)),
            _ => {}
        }
    }

    /// [`Statement::walk`]'s expressions.
    fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.walk(&mut |node| {
            if let Node::Expr(e) = node {
                f(e)
            }
        })
    }

    /// Does this statement contain positional parameters (`?`)?
    fn has_params(&self) -> bool {
        let mut found = false;
        self.visit_exprs(&mut |e| found |= matches!(e, Expr::Param(_)));
        found
    }
}

impl SelectStmt {
    /// The statement as a prepared cursor sees it: every constant operand of
    /// a comparison (or BETWEEN / IN-list element) in a predicate position is
    /// replaced by a positional parameter. This mirrors how R/3's Open SQL
    /// layer binds ABAP host variables instead of inlining values, so a plan
    /// built from the result shows the access paths the parameter-blind
    /// optimizer picks (§4.1).
    pub fn parameterized(&self) -> SelectStmt {
        let mut q = self.clone();
        parameterize_select(&mut q, &mut 0, &mut Vec::new());
        q
    }

    /// Pre-order walk of the query: projections, FROM (names, join
    /// conditions, derived tables), WHERE, GROUP BY, HAVING, ORDER BY, and
    /// the subqueries in any of them.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        for item in &self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.walk(true, f);
            }
        }
        for t in &self.from {
            t.walk(f);
        }
        let clauses = self.where_clause.iter().chain(&self.group_by).chain(&self.having);
        for e in clauses.chain(self.order_by.iter().map(|o| &o.expr)) {
            e.walk(true, f);
        }
    }
}

/// The literals a walk visits, in walk order.
fn literals<'a>(walk: impl FnOnce(&mut dyn FnMut(Node<'a>))) -> Vec<&'a Value> {
    let mut out = Vec::new();
    walk(&mut |node| {
        if let Node::Expr(Expr::Literal(v)) = node {
            out.push(v);
        }
    });
    out
}

/// Are two `==` trees' literals, in walk order, pairwise
/// [`Value::identical`]?
fn identical_literals(a: Vec<&Value>, b: Vec<&Value>) -> bool {
    a.into_iter().zip(b).all(|(a, b)| a.identical(b))
}

impl TableRef {
    fn walk<'a, F: FnMut(Node<'a>)>(&'a self, f: &mut F) {
        match self {
            TableRef::Named { name, .. } => f(Node::Table(name)),
            TableRef::Join { left, right, on, .. } => {
                left.walk(f);
                right.walk(f);
                on.walk(true, f);
            }
            TableRef::Subquery { query, .. } => query.walk(f),
        }
    }
}

fn parameterize_select(q: &mut SelectStmt, n: &mut usize, bound: &mut Vec<Expr>) {
    for t in &mut q.from {
        parameterize_tableref(t, n, bound);
    }
    if let Some(w) = &mut q.where_clause {
        parameterize_pred(w, n, bound);
    }
    if let Some(h) = &mut q.having {
        parameterize_pred(h, n, bound);
    }
    for item in &mut q.projections {
        if let SelectItem::Expr { expr, .. } = item {
            parameterize_pred(expr, n, bound);
        }
    }
}

fn parameterize_tableref(t: &mut TableRef, n: &mut usize, bound: &mut Vec<Expr>) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Join { left, right, on, .. } => {
            parameterize_tableref(left, n, bound);
            parameterize_tableref(right, n, bound);
            parameterize_pred(on, n, bound);
        }
        TableRef::Subquery { query, .. } => parameterize_select(query, n, bound),
    }
}

fn bind(e: &mut Expr, n: &mut usize, bound: &mut Vec<Expr>) {
    bound.push(std::mem::replace(e, Expr::Param(*n)));
    *n += 1;
}

/// A value position (BETWEEN bound, IN-list element, SET value, VALUES
/// cell): a constant there is bound whole.
fn parameterize_operand(e: &mut Expr, n: &mut usize, bound: &mut Vec<Expr>) {
    if e.is_bind_constant() {
        bind(e, n, bound);
    } else {
        parameterize_pred(e, n, bound);
    }
}

fn parameterize_pred(e: &mut Expr, n: &mut usize, bound: &mut Vec<Expr>) {
    match e {
        Expr::Binary { left, op, right } => {
            if op.is_comparison() {
                match (left.is_bind_constant(), right.is_bind_constant()) {
                    (false, true) => {
                        parameterize_pred(left, n, bound);
                        bind(right, n, bound);
                    }
                    (true, false) => {
                        bind(left, n, bound);
                        parameterize_pred(right, n, bound);
                    }
                    _ => {
                        parameterize_pred(left, n, bound);
                        parameterize_pred(right, n, bound);
                    }
                }
            } else {
                parameterize_pred(left, n, bound);
                parameterize_pred(right, n, bound);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            parameterize_pred(expr, n, bound);
            parameterize_operand(low, n, bound);
            parameterize_operand(high, n, bound);
        }
        Expr::InList { expr, list, .. } => {
            parameterize_pred(expr, n, bound);
            for item in list {
                parameterize_operand(item, n, bound);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            parameterize_pred(expr, n, bound);
            parameterize_select(query, n, bound);
        }
        Expr::Exists { query, .. } => parameterize_select(query, n, bound),
        Expr::ScalarSubquery(query) => parameterize_select(query, n, bound),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => parameterize_pred(expr, n, bound),
        Expr::Like { expr, pattern, .. } => {
            parameterize_pred(expr, n, bound);
            parameterize_pred(pattern, n, bound);
        }
        Expr::Case { branches, else_expr } => {
            for (c, r) in branches {
                parameterize_pred(c, n, bound);
                parameterize_pred(r, n, bound);
            }
            if let Some(el) = else_expr {
                parameterize_pred(el, n, bound);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                parameterize_pred(a, n, bound);
            }
        }
        Expr::Extract { expr, .. } | Expr::IntervalAdd { expr, .. } => {
            parameterize_pred(expr, n, bound)
        }
        Expr::Func { args, .. } => {
            for a in args {
                parameterize_pred(a, n, bound);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunction_helpers() {
        assert_eq!(Expr::conjunction(vec![]), None);
        let a = Expr::col("a");
        let b = Expr::col("b");
        let c = Expr::col("c");
        let e = Expr::conjunction(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let parts = e.split_conjuncts();
        assert_eq!(parts, vec![a, b, c]);
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let e = Expr::binary(
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col("x"))), distinct: false },
            BinOp::Div,
            Expr::lit(Value::Int(2)),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn column_refs_collects_qualified() {
        let e = Expr::and(
            Expr::eq(Expr::col("t.a"), Expr::lit(Value::Int(1))),
            Expr::eq(Expr::col("b"), Expr::col("t.a")),
        );
        let refs = e.column_refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0], (Some("t".into()), "a".into()));
        assert_eq!(refs[1], (None, "b".into()));
    }

    #[test]
    fn binding_names() {
        let t = TableRef::Named { name: "ORDERS".into(), alias: Some("O".into()) };
        assert_eq!(t.binding(), Some("O"));
        let t = TableRef::Named { name: "ORDERS".into(), alias: None };
        assert_eq!(t.binding(), Some("ORDERS"));
    }
}
