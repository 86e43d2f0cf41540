//! Bound expressions and the expression evaluator.
//!
//! The planner resolves AST expressions ([`crate::sql::ast::Expr`]) into
//! [`BExpr`] trees whose column references are positional, so evaluation
//! never does name lookups. Subqueries carry their own physical plan and
//! are executed through the evaluation context, with correlated references
//! resolved against a stack of enclosing rows.

use crate::error::{DbError, DbResult};
use crate::sql::ast::{AggFunc, BinOp, IntervalUnit};
use crate::types::{Decimal, Value};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use trace::meter::{CostMeter, Counter};

/// Scalar functions supported by the engine. `VendorContains` is the
/// "special, non-standard SQL string function" of the paper's Section 3.4.4
/// footnote — Native SQL reports may use it; Open SQL cannot emit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// SUBSTR(s, start_1based, len)
    Substr,
    Upper,
    Lower,
    /// VENDOR_CONTAINS(s, sub) -> bool; the vendor's fast substring
    /// primitive (non-portable).
    VendorContains,
    /// LENGTH(s)
    Length,
}

impl ScalarFunc {
    pub fn from_name(name: &str) -> Option<(ScalarFunc, usize)> {
        match name {
            "SUBSTR" | "SUBSTRING" => Some((ScalarFunc::Substr, 3)),
            "UPPER" => Some((ScalarFunc::Upper, 1)),
            "LOWER" => Some((ScalarFunc::Lower, 1)),
            "VENDOR_CONTAINS" => Some((ScalarFunc::VendorContains, 2)),
            "LENGTH" => Some((ScalarFunc::Length, 1)),
            _ => None,
        }
    }
}

/// How a subquery expression is consumed.
#[derive(Debug, Clone)]
pub enum SubqueryKind {
    /// Single value (first column of the single result row); NULL on empty.
    Scalar,
    /// EXISTS / NOT EXISTS.
    Exists { negated: bool },
    /// `lhs IN (subquery)` / `NOT IN`, with full SQL NULL semantics.
    In { lhs: Box<BExpr>, negated: bool },
}

/// A subquery bound into an expression.
pub struct BoundSubquery {
    pub plan: crate::exec::plan::Plan,
    pub kind: SubqueryKind,
    /// Whether the subquery references columns of any enclosing query.
    /// Uncorrelated subqueries are evaluated once per statement execution
    /// and cached; correlated ones re-execute per outer row (the naive
    /// strategy the paper attributes to the back-end RDBMS, Section 3.4.4).
    pub correlated: bool,
    /// Stable id for per-execution caching.
    pub cache_id: usize,
}

impl std::fmt::Debug for BoundSubquery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundSubquery")
            .field("kind", &self.kind)
            .field("correlated", &self.correlated)
            .finish_non_exhaustive()
    }
}

/// A bound (positional) expression.
#[derive(Debug, Clone)]
pub enum BExpr {
    /// Column of the current row.
    Column(usize),
    /// Column of an enclosing row; depth 1 = immediate enclosing query.
    Outer {
        depth: usize,
        index: usize,
    },
    Literal(Value),
    Param(usize),
    Neg(Box<BExpr>),
    Not(Box<BExpr>),
    Binary {
        left: Box<BExpr>,
        op: BinOp,
        right: Box<BExpr>,
    },
    Between {
        expr: Box<BExpr>,
        low: Box<BExpr>,
        high: Box<BExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BExpr>,
        list: Vec<BExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BExpr>,
        pattern: Box<BExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<BExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(BExpr, BExpr)>,
        else_expr: Option<Box<BExpr>>,
    },
    Extract {
        unit: IntervalUnit,
        expr: Box<BExpr>,
    },
    IntervalAdd {
        expr: Box<BExpr>,
        amount: i32,
        unit: IntervalUnit,
    },
    Func {
        func: ScalarFunc,
        args: Vec<BExpr>,
    },
    Subquery(Arc<BoundSubquery>),
}

/// An aggregate computed by the Aggregate operator.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` for COUNT(*).
    pub arg: Option<BExpr>,
    pub distinct: bool,
}

/// The executor's hasher for its per-row hash structures: FxHash's
/// word-at-a-time multiplicative mix (the one rustc hashes with). Fixed and
/// unseeded, so a key costs one multiply per word instead of a SipHash
/// pass; a crafted key set only lengthens chains, and every chain hit
/// compares whole keys (DESIGN.md §15.4). `Value`'s `Hash` decides what
/// hashes alike, so `Int 3` and `Decimal 3.00` still do.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

/// [`FxHasher`] as a `HashMap`/`HashSet` hasher.
pub type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = words.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best mixed: rotate them down to
    /// where bucket indexes are taken from.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Cached result of an uncorrelated subquery within one execution.
pub enum SubqueryResult {
    Scalar(Value),
    Exists(bool),
    /// `samples` holds one member of each group of mutually comparable
    /// types in the set, so a probe that matches no member and cannot be
    /// compared with one is an error, as it is in `IN (list)`. A probe
    /// that matches is not checked: the set has no order, so it is read
    /// as a list whose match comes first.
    InSet {
        set: HashSet<Value, FxBuild>,
        samples: Vec<Value>,
        has_null: bool,
    },
}

/// The row an expression reads its columns from: one slice, or the two
/// halves of a join pair addressed as if concatenated — so join predicates
/// are evaluated without building the combined row first.
#[derive(Clone, Copy)]
pub(crate) struct RowRef<'v> {
    left: &'v [Value],
    right: &'v [Value],
}

impl<'v> RowRef<'v> {
    fn single(row: &'v [Value]) -> Self {
        RowRef { left: row, right: &[] }
    }

    #[inline]
    fn get(self, i: usize) -> &'v Value {
        match i.checked_sub(self.left.len()) {
            None => &self.left[i],
            Some(j) => &self.right[j],
        }
    }
}

/// Per-execution state shared by all operators of one statement execution.
pub struct ExecCtx<'a> {
    pub params: &'a [Value],
    pub meter: &'a CostMeter,
    /// Innermost enclosing row and the context it was pushed onto: the
    /// stack of enclosing rows is a chain of borrowed frames, so entering
    /// a correlated subquery copies neither the row nor the stack.
    outer: Option<(RowRef<'a>, &'a ExecCtx<'a>)>,
    /// Cache for uncorrelated subquery results, keyed by `cache_id`.
    pub subquery_cache: Arc<Mutex<HashMap<usize, Arc<SubqueryResult>, FxBuild>>>,
}

impl<'a> ExecCtx<'a> {
    pub fn new(params: &'a [Value], meter: &'a CostMeter) -> Self {
        ExecCtx { params, meter, outer: None, subquery_cache: Arc::default() }
    }

    /// Child context with `row` pushed as the innermost enclosing row.
    pub fn push_outer<'b>(&'b self, row: &'b [Value]) -> ExecCtx<'b> {
        self.push_frame(RowRef::single(row))
    }

    fn push_frame<'b>(&'b self, row: RowRef<'b>) -> ExecCtx<'b> {
        ExecCtx {
            params: self.params,
            meter: self.meter,
            outer: Some((row, self)),
            subquery_cache: Arc::clone(&self.subquery_cache),
        }
    }

    fn outer_value(&self, depth: usize, index: usize) -> DbResult<&Value> {
        let mut frames = std::iter::successors(self.outer, |(_, parent)| parent.outer);
        match depth.checked_sub(1).and_then(|above| frames.nth(above)) {
            Some((row, _)) => Ok(row.get(index)),
            None => Err(DbError::execution(format!(
                "outer reference depth {depth} exceeds context ({} frames)",
                std::iter::successors(self.outer, |(_, parent)| parent.outer).count()
            ))),
        }
    }
}

impl BExpr {
    pub fn boxed(self) -> Box<BExpr> {
        Box::new(self)
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value], ctx: &ExecCtx) -> DbResult<Value> {
        self.eval_value(RowRef::single(row), ctx)
    }

    /// Evaluate as a three-valued boolean: `None` is SQL UNKNOWN.
    pub fn eval_bool(&self, row: &[Value], ctx: &ExecCtx) -> DbResult<Option<bool>> {
        self.eval_bool_ref(RowRef::single(row), ctx)
    }

    /// [`BExpr::eval_bool`] against the row `left ++ right` without
    /// building it (join predicates: the combined row is only materialized
    /// for pairs that match).
    pub fn eval_bool_pair(
        &self,
        left: &[Value],
        right: &[Value],
        ctx: &ExecCtx,
    ) -> DbResult<Option<bool>> {
        self.eval_bool_ref(RowRef { left, right }, ctx)
    }

    /// [`BExpr::eval`] that borrows where the result already exists — a
    /// column, literal, parameter or outer reference is handed out by
    /// reference, so comparing or matching it copies nothing.
    pub(crate) fn eval_cow<'v>(
        &'v self,
        row: &'v [Value],
        ctx: &'v ExecCtx<'v>,
    ) -> DbResult<Cow<'v, Value>> {
        self.eval_ref(RowRef::single(row), ctx)
    }

    /// Connectives and comparisons — what predicates are made of — answer
    /// here directly, without a `Value::Bool` per node in between.
    fn eval_bool_ref(&self, row: RowRef, ctx: &ExecCtx) -> DbResult<Option<bool>> {
        match self {
            BExpr::Binary { left, op: BinOp::And, right } => {
                let l = left.eval_bool_ref(row, ctx)?;
                if l == Some(false) {
                    return Ok(l);
                }
                Ok(and3(l, right.eval_bool_ref(row, ctx)?))
            }
            BExpr::Binary { left, op: BinOp::Or, right } => {
                let l = left.eval_bool_ref(row, ctx)?;
                if l == Some(true) {
                    return Ok(l);
                }
                Ok(or3(l, right.eval_bool_ref(row, ctx)?))
            }
            BExpr::Binary { left, op, right } if op.is_comparison() => {
                let l = left.eval_ref(row, ctx)?;
                let r = right.eval_ref(row, ctx)?;
                Ok(compare(&l, &r)?.map(|ord| match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::NotEq => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::LtEq => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::GtEq => ord.is_ge(),
                    _ => unreachable!(),
                }))
            }
            // `v >= low AND v <= high`: `high` is not evaluated, errors and
            // all, when the first comparison is false.
            BExpr::Between { expr, low, high, negated } => {
                let v = expr.eval_ref(row, ctx)?;
                let ge = compare(&v, &*low.eval_ref(row, ctx)?)?.map(Ordering::is_ge);
                let r = if ge == Some(false) {
                    ge
                } else {
                    and3(ge, compare(&v, &*high.eval_ref(row, ctx)?)?.map(Ordering::is_le))
                };
                Ok(maybe_negate(r, *negated))
            }
            // `v = item OR ...` in list order, stopping at the first match.
            BExpr::InList { expr, list, negated } => {
                let v = expr.eval_ref(row, ctx)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    match compare(&v, &*item.eval_ref(row, ctx)?)? {
                        Some(Ordering::Equal) => return Ok(Some(!negated)),
                        Some(_) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null { None } else { Some(*negated) })
            }
            _ => match &*self.eval_ref(row, ctx)? {
                Value::Null => Ok(None),
                Value::Bool(b) => Ok(Some(*b)),
                other => Err(DbError::execution(format!(
                    "predicate evaluated to {}, expected BOOLEAN",
                    other.type_name()
                ))),
            },
        }
    }

    /// Values that already exist are borrowed; everything else is computed.
    /// Forced inline so that a leaf operand costs its caller a match, not a
    /// call handing 48 bytes back through memory (a comparison of two
    /// columns: 50 ns as a call, 33 ns inlined).
    #[inline(always)]
    fn eval_ref<'v>(&'v self, row: RowRef<'v>, ctx: &'v ExecCtx<'v>) -> DbResult<Cow<'v, Value>> {
        match self {
            BExpr::Column(i) => Ok(Cow::Borrowed(row.get(*i))),
            BExpr::Outer { depth, index } => ctx.outer_value(*depth, *index).map(Cow::Borrowed),
            BExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BExpr::Param(i) => {
                ctx.params.get(*i).map(Cow::Borrowed).ok_or(DbError::UnboundParameter(*i))
            }
            _ => self.eval_value(row, ctx).map(Cow::Owned),
        }
    }

    fn eval_value(&self, row: RowRef, ctx: &ExecCtx) -> DbResult<Value> {
        Ok(match self {
            BExpr::Column(_) | BExpr::Outer { .. } | BExpr::Literal(_) | BExpr::Param(_) => {
                self.eval_ref(row, ctx)?.into_owned()
            }
            // Arithmetic takes the numeric kernel where it can.
            BExpr::Neg(_) | BExpr::Binary { .. } if let Some(n) = self.num(row) => n.into(),
            BExpr::Neg(e) => match &*e.eval_ref(row, ctx)? {
                Value::Null => Value::Null,
                Value::Int(v) => Value::Int(-v),
                Value::Decimal(d) => Value::Decimal(d.neg()),
                other => {
                    return Err(DbError::execution(format!("cannot negate {}", other.type_name())))
                }
            },
            BExpr::Not(e) => match &*e.eval_ref(row, ctx)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                other => {
                    return Err(DbError::execution(format!("NOT applied to {}", other.type_name())))
                }
            },
            BExpr::Binary { op, .. }
                if matches!(op, BinOp::And | BinOp::Or) || op.is_comparison() =>
            {
                bool3_to_value(self.eval_bool_ref(row, ctx)?)
            }
            BExpr::Between { .. } | BExpr::InList { .. } => {
                bool3_to_value(self.eval_bool_ref(row, ctx)?)
            }
            BExpr::Binary { left, op, right } => {
                let l = left.eval_ref(row, ctx)?;
                let r = right.eval_ref(row, ctx)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                arith(&l, *op, &r)?
            }
            BExpr::Like { expr, pattern, negated } => {
                let v = expr.eval_ref(row, ctx)?;
                let p = pattern.eval_ref(row, ctx)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let matched = like_match(v.as_str()?.trim_end(), p.as_str()?);
                Value::Bool(matched != *negated)
            }
            BExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval_ref(row, ctx)?.is_null() != *negated)
            }
            BExpr::Case { branches, else_expr } => {
                for (cond, result) in branches {
                    if cond.eval_bool_ref(row, ctx)? == Some(true) {
                        return result.eval_value(row, ctx);
                    }
                }
                match else_expr {
                    Some(e) => return e.eval_value(row, ctx),
                    None => Value::Null,
                }
            }
            BExpr::Extract { unit, expr } => {
                let v = expr.eval_ref(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let d = v.as_date()?;
                Value::Int(match unit {
                    IntervalUnit::Year => d.year() as i64,
                    IntervalUnit::Month => d.month() as i64,
                    IntervalUnit::Day => d.day() as i64,
                })
            }
            BExpr::IntervalAdd { expr, amount, unit } => {
                let v = expr.eval_ref(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let d = v.as_date()?;
                Value::Date(match unit {
                    IntervalUnit::Day => d.add_days(*amount),
                    IntervalUnit::Month => d.add_months(*amount),
                    IntervalUnit::Year => d.add_years(*amount),
                })
            }
            BExpr::Func { func, args } => eval_func(*func, args, row, ctx)?,
            BExpr::Subquery(sq) => eval_subquery(sq, row, ctx)?,
        })
    }

    /// Mark in `cols` every column of the evaluated row this expression
    /// can read: its own column references plus, for subqueries, the outer
    /// references their plans make back into this row.
    pub fn mark_columns(&self, cols: &mut [bool]) {
        self.visit(&mut |e| match e {
            BExpr::Column(i) => cols[*i] = true,
            BExpr::Subquery(sq) => sq.plan.mark_outer_refs(1, cols),
            _ => {}
        });
    }

    /// Mark the columns of the enclosing row `level` frames up that this
    /// expression reads (see [`crate::exec::plan::Plan::mark_outer_refs`]).
    pub(crate) fn mark_outer_refs(&self, level: usize, cols: &mut [bool]) {
        self.visit(&mut |e| match e {
            BExpr::Outer { depth, index } if *depth == level => cols[*index] = true,
            BExpr::Subquery(sq) => sq.plan.mark_outer_refs(level + 1, cols),
            _ => {}
        });
    }

    /// The mutable mirror of [`BExpr::mark_columns`] (`level` 0) and
    /// `mark_outer_refs`: the row `level` frames up (0 = the
    /// evaluated row) lost columns, and its column `i` is now column
    /// `map[i]`. A reference to a column `map` drops becomes a NULL
    /// literal. Subquery plans are rebound one level deeper; each must be
    /// owned by this expression alone, or planning fails.
    pub fn rebind(&mut self, level: usize, map: &[Option<usize>]) -> DbResult<()> {
        match self {
            BExpr::Column(i) if level == 0 => {
                *self = map[*i].map_or(BExpr::Literal(Value::Null), BExpr::Column);
            }
            BExpr::Outer { depth, index } if *depth == level => {
                let depth = *depth;
                *self = map[*index]
                    .map_or(BExpr::Literal(Value::Null), |index| BExpr::Outer { depth, index });
            }
            BExpr::Subquery(sq) => {
                let sq = Arc::get_mut(sq).ok_or_else(|| {
                    DbError::analysis("a subquery plan shared by two expressions cannot be rebound")
                })?;
                if let SubqueryKind::In { lhs, .. } = &mut sq.kind {
                    lhs.rebind(level, map)?;
                }
                sq.plan.rebind_outer_refs(level + 1, map)?;
            }
            _ => {
                let mut rebound = Ok(());
                self.children_mut(&mut |e| {
                    if rebound.is_ok() {
                        rebound = e.rebind(level, map);
                    }
                });
                rebound?;
            }
        }
        Ok(())
    }

    /// Replace every subtree made only of literals by the literal it
    /// evaluates to, in this expression and in the plans of the subqueries
    /// it alone owns. A subtree whose evaluation fails stays as it is, so
    /// an error still happens where and when it did (`CASE WHEN k = 2
    /// THEN 1/0 ...`, a `1/0` under a filter that rejects every row); a
    /// `CASE` around it may still fold. A column, outer reference,
    /// parameter or subquery is never folded. Returns whether this
    /// expression is made only of literals, folded or not.
    pub fn fold_literals(&mut self) -> bool {
        match self {
            BExpr::Literal(_) => return true,
            BExpr::Column(_) | BExpr::Outer { .. } | BExpr::Param(_) => return false,
            BExpr::Subquery(sq) => {
                if let Some(sq) = Arc::get_mut(sq) {
                    if let SubqueryKind::In { lhs, .. } = &mut sq.kind {
                        lhs.fold_literals();
                    }
                    sq.plan.fold_literals();
                }
                return false;
            }
            _ => {}
        }
        let mut literal = true;
        self.children_mut(&mut |e| literal &= e.fold_literals());
        if literal {
            // Literals read no row, parameter or counter.
            let meter = CostMeter::default();
            if let Ok(v) = self.eval(&[], &ExecCtx::new(&[], &meter)) {
                *self = BExpr::Literal(v);
            }
        }
        literal
    }

    /// Visit all nodes (not crossing into subquery plans).
    pub fn visit(&self, f: &mut impl FnMut(&BExpr)) {
        f(self);
        self.children(&mut |e| e.visit(f));
    }

    /// Call `f` on each operand of this node, left to right; an `IN`
    /// subquery's left operand is one, its plan is not.
    fn children<'e>(&'e self, f: &mut impl FnMut(&'e BExpr)) {
        match self {
            BExpr::Column(_) | BExpr::Outer { .. } | BExpr::Literal(_) | BExpr::Param(_) => {}
            BExpr::Neg(e)
            | BExpr::Not(e)
            | BExpr::IsNull { expr: e, .. }
            | BExpr::Extract { expr: e, .. }
            | BExpr::IntervalAdd { expr: e, .. } => f(e),
            BExpr::Binary { left: a, right: b, .. } | BExpr::Like { expr: a, pattern: b, .. } => {
                f(a);
                f(b);
            }
            BExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BExpr::Case { branches, else_expr } => {
                for (c, r) in branches {
                    f(c);
                    f(r);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            BExpr::Func { args, .. } => args.iter().for_each(f),
            BExpr::Subquery(sq) => {
                if let SubqueryKind::In { lhs, .. } = &sq.kind {
                    f(lhs);
                }
            }
        }
    }

    /// [`BExpr::children`], to rewrite. A subquery's operand sits behind
    /// its `Arc` and is not reached: a caller that rewrites subqueries
    /// takes them apart itself (`Arc::get_mut`), and decides what a
    /// shared one means.
    fn children_mut(&mut self, f: &mut impl FnMut(&mut BExpr)) {
        match self {
            BExpr::Column(_)
            | BExpr::Outer { .. }
            | BExpr::Literal(_)
            | BExpr::Param(_)
            | BExpr::Subquery(_) => {}
            BExpr::Neg(e)
            | BExpr::Not(e)
            | BExpr::IsNull { expr: e, .. }
            | BExpr::Extract { expr: e, .. }
            | BExpr::IntervalAdd { expr: e, .. } => f(e),
            BExpr::Binary { left: a, right: b, .. } | BExpr::Like { expr: a, pattern: b, .. } => {
                f(a);
                f(b);
            }
            BExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            BExpr::Case { branches, else_expr } => {
                for (c, r) in branches {
                    f(c);
                    f(r);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            BExpr::Func { args, .. } => args.iter_mut().for_each(f),
        }
    }

    /// The numeric kernel: `+ − ×` and negation over numeric columns and
    /// literals, computed without a `Value`, `Cow` or `DbResult` per inner
    /// node, by [`arith`]'s rules (`Int` op `Int` stays `Int`, anything
    /// else is `Decimal` through `Decimal::add`/`sub`/`mul`, NULL in, NULL
    /// out). `None` for any other node or leaf, division included: the
    /// caller then takes the general path, which gives every error its
    /// text. Both sides are computed before NULL is looked at, as there.
    fn num(&self, row: RowRef) -> Option<Num> {
        let leaf = match self {
            BExpr::Column(i) => row.get(*i),
            BExpr::Literal(v) => v,
            BExpr::Binary { left, op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), right } => {
                let l = left.num(row)?;
                return Some(l.arith(*op, right.num(row)?));
            }
            BExpr::Neg(e) => {
                return Some(match e.num(row)? {
                    Num::Null => Num::Null,
                    Num::Int(v) => Num::Int(-v),
                    Num::Dec(d) => Num::Dec(d.neg()),
                })
            }
            _ => return None,
        };
        match leaf {
            Value::Null => Some(Num::Null),
            Value::Int(v) => Some(Num::Int(*v)),
            Value::Decimal(d) => Some(Num::Dec(*d)),
            _ => None,
        }
    }
}

/// A value of the numeric kernel ([`BExpr::num`]).
#[derive(Clone, Copy)]
enum Num {
    Null,
    Int(i64),
    Dec(Decimal),
}

impl Num {
    /// [`arith`] for `+ − ×`.
    #[inline]
    fn arith(self, op: BinOp, r: Num) -> Num {
        let (a, b) = match (self, r) {
            (Num::Null, _) | (_, Num::Null) => return Num::Null,
            (Num::Int(a), Num::Int(b)) => {
                return Num::Int(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                })
            }
            (a, b) => (a.decimal(), b.decimal()),
        };
        Num::Dec(match op {
            BinOp::Add => a.add(b),
            BinOp::Sub => a.sub(b),
            _ => a.mul(b),
        })
    }

    fn decimal(self) -> Decimal {
        match self {
            Num::Int(v) => Decimal::from_int(v),
            Num::Dec(d) => d,
            Num::Null => unreachable!("NULL is handled first"),
        }
    }
}

impl From<Num> for Value {
    fn from(n: Num) -> Value {
        match n {
            Num::Null => Value::Null,
            Num::Int(v) => Value::Int(v),
            Num::Dec(d) => Value::Decimal(d),
        }
    }
}

/// SQL comparison: `None` (UNKNOWN) when either side is NULL, an error
/// when the two types cannot be compared. Every comparing form —
/// comparison operators, `BETWEEN`, `IN` — answers through it.
fn compare(l: &Value, r: &Value) -> DbResult<Option<Ordering>> {
    if l.is_null() || r.is_null() {
        return Ok(None);
    }
    l.sql_cmp(r).map(Some).ok_or_else(|| {
        DbError::execution(format!("cannot compare {} with {}", l.type_name(), r.type_name()))
    })
}

/// Numeric arithmetic with the engine's type rules: Int op Int stays Int
/// (except division, which always produces a Decimal), everything else is
/// exact Decimal.
pub fn arith(l: &Value, op: BinOp, r: &Value) -> DbResult<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            BinOp::Add => return Ok(Value::Int(a + b)),
            BinOp::Sub => return Ok(Value::Int(a - b)),
            BinOp::Mul => return Ok(Value::Int(a * b)),
            BinOp::Div => {
                return Decimal::from_int(*a).div(Decimal::from_int(*b)).map(Value::Decimal)
            }
            _ => {}
        }
    }
    let a = l.as_decimal()?;
    let b = r.as_decimal()?;
    let d = match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => a.div(b)?,
        other => return Err(DbError::execution(format!("{other} is not arithmetic"))),
    };
    Ok(Value::Decimal(d))
}

fn eval_func(func: ScalarFunc, args: &[BExpr], row: RowRef, ctx: &ExecCtx) -> DbResult<Value> {
    let vals: Vec<Cow<Value>> =
        args.iter().map(|a| a.eval_ref(row, ctx)).collect::<DbResult<_>>()?;
    if vals.iter().any(|v| v.is_null()) {
        return Ok(Value::Null);
    }
    match func {
        ScalarFunc::Substr => {
            let s = vals[0].as_str()?;
            let start = vals[1].as_int()?.max(1) as usize - 1;
            let len = vals[2].as_int()?.max(0) as usize;
            Ok(Value::Str(s.chars().skip(start).take(len).collect()))
        }
        ScalarFunc::Upper => Ok(Value::Str(vals[0].as_str()?.to_uppercase())),
        ScalarFunc::Lower => Ok(Value::Str(vals[0].as_str()?.to_lowercase())),
        ScalarFunc::VendorContains => {
            let s = vals[0].as_str()?;
            let sub = vals[1].as_str()?.trim_end();
            Ok(Value::Bool(s.contains(sub)))
        }
        ScalarFunc::Length => Ok(Value::Int(vals[0].as_str()?.trim_end().len() as i64)),
    }
}

fn eval_subquery(sq: &Arc<BoundSubquery>, row: RowRef, ctx: &ExecCtx) -> DbResult<Value> {
    // Uncorrelated: compute once per execution and cache.
    let cached: Option<Arc<SubqueryResult>> =
        if !sq.correlated { ctx.subquery_cache.lock().get(&sq.cache_id).cloned() } else { None };
    let result: Arc<SubqueryResult> = match cached {
        Some(r) => r,
        None => {
            let child_ctx = ctx.push_frame(row);
            let rows = sq.plan.execute(&child_ctx)?;
            ctx.meter.add(Counter::DbTuples, rows.len() as u64);
            let computed = match &sq.kind {
                SubqueryKind::Scalar => {
                    if rows.len() > 1 {
                        return Err(DbError::execution(
                            "scalar subquery returned more than one row",
                        ));
                    }
                    let v = rows.into_iter().next().map_or(Value::Null, |mut r| r.swap_remove(0));
                    SubqueryResult::Scalar(v)
                }
                SubqueryKind::Exists { .. } => SubqueryResult::Exists(!rows.is_empty()),
                SubqueryKind::In { .. } => {
                    let mut set = HashSet::with_capacity_and_hasher(rows.len(), FxBuild::default());
                    let mut samples: Vec<Value> = Vec::new();
                    let mut has_null = false;
                    for mut r in rows {
                        let v = r.swap_remove(0);
                        if v.is_null() {
                            has_null = true;
                        } else {
                            if samples.iter().all(|s| s.sql_cmp(&v).is_none()) {
                                samples.push(v.clone());
                            }
                            set.insert(v);
                        }
                    }
                    SubqueryResult::InSet { set, samples, has_null }
                }
            };
            let computed = Arc::new(computed);
            if !sq.correlated {
                ctx.subquery_cache.lock().insert(sq.cache_id, Arc::clone(&computed));
            }
            computed
        }
    };
    match (&sq.kind, result.as_ref()) {
        (SubqueryKind::Scalar, SubqueryResult::Scalar(v)) => Ok(v.clone()),
        (SubqueryKind::Exists { negated }, SubqueryResult::Exists(found)) => {
            Ok(Value::Bool(found != negated))
        }
        (SubqueryKind::In { lhs, negated }, SubqueryResult::InSet { set, samples, has_null }) => {
            let v = lhs.eval_ref(row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            if set.contains(&*v) {
                return Ok(Value::Bool(!negated));
            }
            for s in samples {
                compare(&v, s)?;
            }
            if *has_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        _ => Err(DbError::execution("subquery kind/result mismatch")),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn maybe_negate(v: Option<bool>, negate: bool) -> Option<bool> {
    if negate {
        v.map(|b| !b)
    } else {
        v
    }
}

fn bool3_to_value(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// SQL LIKE pattern matching: `%` matches any sequence, `_` any single char.
/// Runs over the two strings in place (no per-call buffers): on a mismatch
/// it retries from the most recent `%` with that `%` swallowing one more
/// character, which is all the backtracking LIKE ever needs.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let pattern = pattern.trim_end();
    let (mut si, mut pi) = (0, 0);
    // (pattern offset just after the last `%`, subject offset it resumed at)
    let mut retry: Option<(usize, usize)> = None;
    loop {
        let sc = s[si..].chars().next();
        match (pattern[pi..].chars().next(), sc) {
            (Some('%'), _) => {
                pi += 1;
                retry = Some((pi, si));
            }
            (Some(pc), Some(c)) if pc == '_' || pc == c => {
                pi += pc.len_utf8();
                si += c.len_utf8();
            }
            (None, None) => return true,
            // Subject exhausted with pattern left over: a longer `%` match
            // only leaves less subject, so nothing can match.
            (Some(_), None) => return false,
            _ => match retry {
                Some((after_pct, resumed)) => {
                    let skipped = s[resumed..].chars().next().expect("subject not exhausted");
                    si = resumed + skipped.len_utf8();
                    pi = after_pct;
                    retry = Some((after_pct, si));
                }
                None => return false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::meter::CostMeter;

    fn ctx<'a>(params: &'a [Value], meter: &'a CostMeter) -> ExecCtx<'a> {
        ExecCtx::new(params, meter)
    }

    #[test]
    fn like_matching() {
        assert!(like_match("green metallic paint", "%green%"));
        assert!(!like_match("red paint", "%green%"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("promo burnished", "PROMO%".to_lowercase().as_str()));
        assert!(like_match("xyz", "x%z"));
        assert!(like_match("xz", "x%z"));
    }

    #[test]
    fn arithmetic_type_rules() {
        assert_eq!(arith(&Value::Int(2), BinOp::Add, &Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(arith(&Value::Int(2), BinOp::Mul, &Value::Int(3)).unwrap(), Value::Int(6));
        let d = arith(&Value::Int(1), BinOp::Div, &Value::Int(4)).unwrap();
        assert_eq!(d.as_decimal().unwrap().to_f64(), 0.25);
        let d = arith(&Value::Decimal(Decimal::parse("1.5").unwrap()), BinOp::Add, &Value::Int(1))
            .unwrap();
        assert_eq!(d.to_string(), "2.5");
    }

    #[test]
    fn three_valued_logic() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        // NULL AND FALSE = FALSE
        let e = BExpr::Binary {
            left: BExpr::Literal(Value::Null).boxed(),
            op: BinOp::And,
            right: BExpr::Literal(Value::Bool(false)).boxed(),
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::Bool(false));
        // NULL OR TRUE = TRUE
        let e = BExpr::Binary {
            left: BExpr::Literal(Value::Null).boxed(),
            op: BinOp::Or,
            right: BExpr::Literal(Value::Bool(true)).boxed(),
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::Bool(true));
        // NULL = 1 -> NULL
        let e = BExpr::Binary {
            left: BExpr::Literal(Value::Null).boxed(),
            op: BinOp::Eq,
            right: BExpr::Literal(Value::Int(1)).boxed(),
        };
        assert!(e.eval(&[], &c).unwrap().is_null());
        assert_eq!(e.eval_bool(&[], &c).unwrap(), None);
    }

    #[test]
    fn in_list_null_semantics() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        // 3 IN (1, 2, NULL) -> NULL (not FALSE)
        let e = BExpr::InList {
            expr: BExpr::Literal(Value::Int(3)).boxed(),
            list: vec![
                BExpr::Literal(Value::Int(1)),
                BExpr::Literal(Value::Int(2)),
                BExpr::Literal(Value::Null),
            ],
            negated: false,
        };
        assert!(e.eval(&[], &c).unwrap().is_null());
        // 2 IN (1, 2, NULL) -> TRUE
        let e = BExpr::InList {
            expr: BExpr::Literal(Value::Int(2)).boxed(),
            list: vec![
                BExpr::Literal(Value::Int(1)),
                BExpr::Literal(Value::Int(2)),
                BExpr::Literal(Value::Null),
            ],
            negated: false,
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn params_bind_and_missing_param_errors() {
        let meter = CostMeter::default();
        let params = [Value::Int(42)];
        let c = ctx(&params, &meter);
        assert_eq!(BExpr::Param(0).eval(&[], &c).unwrap(), Value::Int(42));
        assert!(matches!(BExpr::Param(1).eval(&[], &c), Err(DbError::UnboundParameter(1))));
    }

    #[test]
    fn case_expression() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        let e = BExpr::Case {
            branches: vec![(
                BExpr::Binary {
                    left: BExpr::Column(0).boxed(),
                    op: BinOp::Eq,
                    right: BExpr::Literal(Value::str("BRAZIL")).boxed(),
                },
                BExpr::Column(1),
            )],
            else_expr: Some(BExpr::Literal(Value::Int(0)).boxed()),
        };
        let row1 = vec![Value::str("BRAZIL"), Value::Int(7)];
        let row2 = vec![Value::str("PERU"), Value::Int(7)];
        assert_eq!(e.eval(&row1, &c).unwrap(), Value::Int(7));
        assert_eq!(e.eval(&row2, &c).unwrap(), Value::Int(0));
    }

    #[test]
    fn scalar_funcs() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        let sub = BExpr::Func {
            func: ScalarFunc::Substr,
            args: vec![
                BExpr::Literal(Value::str("PROMO ANODIZED")),
                BExpr::Literal(Value::Int(1)),
                BExpr::Literal(Value::Int(5)),
            ],
        };
        assert_eq!(sub.eval(&[], &c).unwrap(), Value::str("PROMO"));
        let vc = BExpr::Func {
            func: ScalarFunc::VendorContains,
            args: vec![
                BExpr::Literal(Value::str("forest green metallic")),
                BExpr::Literal(Value::str("green")),
            ],
        };
        assert_eq!(vc.eval(&[], &c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn extract_and_interval() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        let e = BExpr::Extract {
            unit: IntervalUnit::Year,
            expr: BExpr::Literal(Value::date(1995, 3, 15)).boxed(),
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::Int(1995));
        let e = BExpr::IntervalAdd {
            expr: BExpr::Literal(Value::date(1998, 12, 1)).boxed(),
            amount: -90,
            unit: IntervalUnit::Day,
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::date(1998, 9, 2));
    }

    #[test]
    fn outer_references() {
        let meter = CostMeter::default();
        let base = ctx(&[], &meter);
        let outer_row = vec![Value::Int(99)];
        let child = base.push_outer(&outer_row);
        let e = BExpr::Outer { depth: 1, index: 0 };
        assert_eq!(e.eval(&[], &child).unwrap(), Value::Int(99));
        assert!(e.eval(&[], &base).is_err(), "no frame at depth 1");
        // Two levels deep.
        let inner_row = vec![Value::Int(5)];
        let grand = child.push_outer(&inner_row);
        assert_eq!(BExpr::Outer { depth: 2, index: 0 }.eval(&[], &grand).unwrap(), Value::Int(99));
        assert_eq!(BExpr::Outer { depth: 1, index: 0 }.eval(&[], &grand).unwrap(), Value::Int(5));
    }

    #[test]
    fn between_negated() {
        let meter = CostMeter::default();
        let c = ctx(&[], &meter);
        let e = BExpr::Between {
            expr: BExpr::Literal(Value::Int(5)).boxed(),
            low: BExpr::Literal(Value::Int(1)).boxed(),
            high: BExpr::Literal(Value::Int(10)).boxed(),
            negated: true,
        };
        assert_eq!(e.eval(&[], &c).unwrap(), Value::Bool(false));
    }
}
