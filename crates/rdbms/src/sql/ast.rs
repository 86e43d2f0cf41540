//! SQL abstract syntax tree.
//!
//! The grammar covers what the TPC-D suite and the SAP R/3 simulator's
//! generated SQL need: select/insert/delete/update, DDL, joins (explicit
//! and comma-style), nested subqueries (scalar, IN, EXISTS), aggregates
//! with DISTINCT, CASE, LIKE, BETWEEN, date/interval arithmetic, and
//! positional `?` parameters.

use crate::types::{DataType, Value};
use std::fmt;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
}

/// A SELECT statement (also used as subquery body and view definition).
#[derive(Debug, Clone, PartialEq, Default)]
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

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional output alias
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

#[derive(Debug, Clone, PartialEq)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
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

    /// Pre-order visit of this expression's nodes (not descending into
    /// subquery bodies).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Exists { .. } => {}
            Expr::ScalarSubquery(_) => {}
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Case { branches, else_expr } => {
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit(f);
                }
            }
            Expr::Extract { expr, .. } => expr.visit(f),
            Expr::IntervalAdd { expr, .. } => expr.visit(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
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

impl SelectStmt {
    /// The statement as a prepared cursor sees it: every constant operand of
    /// a comparison (or BETWEEN / IN-list element) in a predicate position is
    /// replaced by a positional parameter. This mirrors how R/3's Open SQL
    /// layer binds ABAP host variables instead of inlining values, so a plan
    /// built from the result shows the access paths the parameter-blind
    /// optimizer picks (§4.1).
    pub fn parameterized(&self) -> SelectStmt {
        self.parameterized_collect().0
    }

    /// [`SelectStmt::parameterized`], also returning the constant expression
    /// each introduced parameter replaced, in parameter-index order. A plan
    /// cache evaluates these to bind values: plan from the parameterized
    /// statement (shared across literal variants), execute with the values
    /// extracted from the concrete text — the wire protocol's Parse/Bind
    /// split over a single literal statement.
    pub fn parameterized_collect(&self) -> (SelectStmt, Vec<Expr>) {
        let mut q = self.clone();
        let mut n = 0usize;
        let mut bound = Vec::new();
        parameterize_select(&mut q, &mut n, &mut bound);
        (q, bound)
    }

    /// Does this statement already contain positional parameters (`?`)?
    /// Such a statement is its own normalized form: re-parameterizing it
    /// would renumber markers, so plan caches key it as written.
    pub fn has_params(&self) -> bool {
        select_has_params(self)
    }
}

fn select_has_params(q: &SelectStmt) -> bool {
    let mut found = false;
    let mut check = |e: &Expr| {
        visit_with_subqueries(e, &mut |x| {
            if matches!(x, Expr::Param(_)) {
                found = true;
            }
        });
    };
    for t in &q.from {
        if tableref_has_params(t) {
            return true;
        }
    }
    for item in &q.projections {
        if let SelectItem::Expr { expr, .. } = item {
            check(expr);
        }
    }
    if let Some(w) = &q.where_clause {
        check(w);
    }
    for e in &q.group_by {
        check(e);
    }
    if let Some(h) = &q.having {
        check(h);
    }
    for o in &q.order_by {
        check(&o.expr);
    }
    found
}

fn tableref_has_params(t: &TableRef) -> bool {
    match t {
        TableRef::Named { .. } => false,
        TableRef::Join { left, right, on, .. } => {
            let mut found = false;
            visit_with_subqueries(on, &mut |x| {
                if matches!(x, Expr::Param(_)) {
                    found = true;
                }
            });
            found || tableref_has_params(left) || tableref_has_params(right)
        }
        TableRef::Subquery { query, .. } => select_has_params(query),
    }
}

/// Like [`Expr::visit`] but descending into subquery bodies too.
fn visit_with_subqueries(e: &Expr, f: &mut impl FnMut(&Expr)) {
    e.visit(f);
    match e {
        Expr::InSubquery { query, .. } | Expr::Exists { query, .. } => {
            visit_select_exprs(query, f);
        }
        Expr::ScalarSubquery(query) => visit_select_exprs(query, f),
        _ => {}
    }
}

fn visit_select_exprs(q: &SelectStmt, f: &mut impl FnMut(&Expr)) {
    for item in &q.projections {
        if let SelectItem::Expr { expr, .. } = item {
            visit_with_subqueries(expr, f);
        }
    }
    for t in &q.from {
        visit_tableref_exprs(t, f);
    }
    if let Some(w) = &q.where_clause {
        visit_with_subqueries(w, f);
    }
    for e in &q.group_by {
        visit_with_subqueries(e, f);
    }
    if let Some(h) = &q.having {
        visit_with_subqueries(h, f);
    }
    for o in &q.order_by {
        visit_with_subqueries(&o.expr, f);
    }
}

fn visit_tableref_exprs(t: &TableRef, f: &mut impl FnMut(&Expr)) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Join { left, right, on, .. } => {
            visit_tableref_exprs(left, f);
            visit_tableref_exprs(right, f);
            visit_with_subqueries(on, f);
        }
        TableRef::Subquery { query, .. } => visit_select_exprs(query, f),
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
    bound.push(e.clone());
    *e = Expr::Param(*n);
    *n += 1;
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
            if low.is_bind_constant() {
                bind(low, n, bound);
            } else {
                parameterize_pred(low, n, bound);
            }
            if high.is_bind_constant() {
                bind(high, n, bound);
            } else {
                parameterize_pred(high, n, bound);
            }
        }
        Expr::InList { expr, list, .. } => {
            parameterize_pred(expr, n, bound);
            for item in list {
                if item.is_bind_constant() {
                    bind(item, n, bound);
                } else {
                    parameterize_pred(item, n, bound);
                }
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
