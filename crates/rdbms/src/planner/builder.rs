//! Translation of a parsed `SelectStmt` into an executable physical plan.

use crate::catalog::{Catalog, Table};
use crate::error::{DbError, DbResult};
use crate::exec::expr::{AggSpec, BExpr, BoundSubquery, ScalarFunc, SubqueryKind};
use crate::exec::plan::{IndexKeyBound, Plan};
use crate::planner::columns::prune_columns;
use crate::planner::sarg::{extract_sargs, match_index, IndexAccess, Sarg};
use crate::planner::selectivity::conjunct_selectivity;
use crate::planner::PlannerConfig;
use crate::schema::{Column, Schema};
use crate::sql::ast::{AggFunc, BinOp, Expr, JoinKind, SelectItem, SelectStmt, TableRef};
use crate::types::{DataType, Value};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use trace::meter::Calibration;

/// A fully planned query.
pub struct PlannedQuery {
    pub plan: Plan,
    pub schema: Schema,
    pub n_params: usize,
    /// Every table, view and `M$` view name the planner resolved
    /// (upper-cased), including names inside view bodies, derived tables
    /// and subqueries, each mapped to whether it was resolved inside an
    /// expression subquery (scalar, IN, EXISTS), whose plan runs outside
    /// the main plan tree. Set by [`Planner::plan_query`].
    pub(crate) names: BTreeMap<String, bool>,
}

/// The planner. Create one per statement; it is cheap.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    pub config: PlannerConfig,
    /// Cost constants for access-path decisions: the database's own.
    calibration: Calibration,
    next_cache_id: Cell<usize>,
    max_param: Cell<usize>,
    /// Run the needed-column pass (always, except under
    /// [`Planner::keep_all_columns`]).
    prune: bool,
    /// Names resolved so far ([`PlannedQuery::names`]).
    names: RefCell<BTreeMap<String, bool>>,
    /// Expression subqueries being planned right now.
    subquery_depth: Cell<usize>,
}

/// One relation in the FROM list after flattening.
struct Rel {
    schema: Schema,
    source: RelSource,
    /// Single-relation conjuncts assigned to this relation (AST).
    preds: Vec<Expr>,
    /// Estimated output cardinality after applying `preds`.
    est_rows: f64,
}

enum RelSource {
    Base(Arc<Table>),
    Derived(Plan),
}

/// An equi-join predicate `a_col = b_col` between two relations.
struct EquiPred {
    rel_a: usize,
    col_a: Expr,
    rel_b: usize,
    col_b: Expr,
    consumed: bool,
    /// max(NDV of the two join columns) — drives join-size estimation.
    /// A join on a 7-valued column (e.g. a line number alone) must not be
    /// mistaken for a key join, or greedy ordering builds huge
    /// intermediates.
    ndv: f64,
}

/// A partially built join tree.
struct Built {
    plan: Plan,
    schema: Schema,
    card: f64,
    rels: HashSet<usize>,
}

impl<'a> Planner<'a> {
    /// A planner over `catalog` that prices access paths with
    /// `calibration` ([`crate::Database::planner`] passes the database's).
    pub fn new(catalog: &'a Catalog, config: PlannerConfig, calibration: Calibration) -> Self {
        Planner {
            catalog,
            config,
            calibration,
            next_cache_id: Cell::new(0),
            max_param: Cell::new(0),
            prune: true,
            names: RefCell::default(),
            subquery_depth: Cell::new(0),
        }
    }

    /// Leave every scan at its default of decoding all columns. This is the
    /// reference the differential tests compare pruned plans against; the
    /// engine itself never calls it.
    #[doc(hidden)]
    pub fn keep_all_columns(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Shrink the rows under a finished plan to the columns it reads, given
    /// which of its own output columns are read. The output columns that
    /// are read keep their positions, so the caller rebinds nothing.
    fn prune(&self, plan: &mut Plan, required: Vec<bool>) -> DbResult<()> {
        if self.prune {
            prune_columns(plan, required)?;
        }
        Ok(())
    }

    /// Plan a top-level query.
    pub fn plan_query(&self, stmt: &SelectStmt) -> DbResult<PlannedQuery> {
        self.max_param.set(0);
        self.names.borrow_mut().clear();
        self.subquery_depth.set(0);
        let mut used = HashSet::new();
        let mut pq = self.plan_select(stmt, &[], &mut used)?;
        if !used.is_empty() {
            return Err(DbError::analysis("top-level query has unresolved outer references"));
        }
        pq.n_params = self.max_param.get();
        pq.names = self.names.take();
        self.prune(&mut pq.plan, vec![true; pq.schema.len()])?;
        pq.plan.fold_literals();
        Ok(pq)
    }

    // ---------------------------------------------------------------------
    // SELECT planning
    // ---------------------------------------------------------------------

    fn plan_select(
        &self,
        stmt: &SelectStmt,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<PlannedQuery> {
        // 1. FROM resolution.
        let mut rels: Vec<Rel> = Vec::new();
        let mut join_conjuncts: Vec<Expr> = Vec::new();
        for tref in &stmt.from {
            self.collect_from(tref, &mut rels, &mut join_conjuncts, outer, used_outer)?;
        }
        if rels.is_empty() {
            // SELECT without FROM: one empty row.
            rels.push(Rel {
                schema: Schema::new(Vec::new()),
                source: RelSource::Derived(Plan::Values { rows: vec![vec![]] }),
                preds: Vec::new(),
                est_rows: 1.0,
            });
        }

        // 2. Predicate classification.
        let mut conjuncts: Vec<Expr> = join_conjuncts;
        if let Some(w) = &stmt.where_clause {
            conjuncts.extend(w.clone().split_conjuncts());
        }
        let mut equi_preds: Vec<EquiPred> = Vec::new();
        let mut post_preds: Vec<Expr> = Vec::new();
        for c in conjuncts {
            match self.classify_conjunct(&c, &rels)? {
                Classified::Single(i) => rels[i].preds.push(c),
                Classified::Equi { rel_a, col_a, rel_b, col_b } => {
                    let ndv = join_col_ndv(&rels[rel_a], &col_a)
                        .max(join_col_ndv(&rels[rel_b], &col_b))
                        .max(1.0);
                    equi_preds.push(EquiPred { rel_a, col_a, rel_b, col_b, consumed: false, ndv })
                }
                Classified::Post => post_preds.push(c),
            }
        }

        // 3. Access paths + per-relation cardinalities.
        let mut inputs: Vec<Built> = Vec::new();
        for (i, rel) in rels.iter_mut().enumerate() {
            let built = self.build_rel_access(rel, i, outer, used_outer)?;
            inputs.push(built);
        }

        // 4. Greedy join ordering.
        let mut joined = self.order_joins(inputs, &mut equi_preds, outer, used_outer)?;

        // 5. Post-join filters.
        if !post_preds.is_empty() {
            let pred_ast = Expr::conjunction(post_preds).expect("nonempty");
            let pred = self.bind_expr(&pred_ast, &joined.schema, outer, used_outer)?;
            joined.plan = Plan::Filter { input: Box::new(joined.plan), pred };
        }

        // 6. Aggregation.
        let mut agg_asts: Vec<Expr> = Vec::new();
        let collect_aggs = |e: &Expr, out: &mut Vec<Expr>| {
            e.visit(&mut |node| {
                if matches!(node, Expr::Agg { .. }) && !out.iter().any(|a| a.identical(node)) {
                    out.push(node.clone());
                }
            });
        };
        for item in &stmt.projections {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggs(expr, &mut agg_asts);
            }
        }
        if let Some(h) = &stmt.having {
            collect_aggs(h, &mut agg_asts);
        }
        for o in &stmt.order_by {
            collect_aggs(&o.expr, &mut agg_asts);
        }
        let has_agg = !agg_asts.is_empty() || !stmt.group_by.is_empty();

        let (mut current_plan, mut current_schema) = (joined.plan, joined.schema);

        if has_agg {
            if stmt.having.is_some() && stmt.group_by.is_empty() && agg_asts.is_empty() {
                return Err(DbError::analysis("HAVING without aggregation"));
            }
            // Bind group keys and aggregate args against the join output.
            let mut groups: Vec<BExpr> = Vec::new();
            let mut group_cols: Vec<Column> = Vec::new();
            let mut group_quals: Vec<Option<String>> = Vec::new();
            for g in &stmt.group_by {
                let bound = self.bind_expr(g, &current_schema, outer, used_outer)?;
                let (name, qual, ty) = self.describe_output(g, &current_schema, group_cols.len());
                groups.push(bound);
                group_cols.push(Column::new(name, ty));
                group_quals.push(qual);
            }
            let mut aggs: Vec<AggSpec> = Vec::new();
            let mut agg_cols: Vec<Column> = Vec::new();
            for (i, a) in agg_asts.iter().enumerate() {
                let Expr::Agg { func, arg, distinct } = a else { unreachable!() };
                let bound_arg = match arg {
                    Some(e) => Some(self.bind_expr(e, &current_schema, outer, used_outer)?),
                    None => None,
                };
                aggs.push(AggSpec { func: *func, arg: bound_arg, distinct: *distinct });
                let ty = match func {
                    AggFunc::Count => DataType::Int,
                    _ => DataType::Decimal { precision: 18, scale: 6 },
                };
                agg_cols.push(Column::new(format!("AGG_{i}"), ty));
            }
            current_plan = Plan::Aggregate { input: Box::new(current_plan), groups, aggs };
            // Aggregate output schema: group keys then aggregates.
            let mut schema = Schema::new(Vec::new());
            for (c, q) in group_cols.iter().zip(&group_quals) {
                let s = match q {
                    Some(q) => Schema::qualified(vec![c.clone()], q),
                    None => Schema::new(vec![c.clone()]),
                };
                schema = schema.join(&s);
            }
            schema = schema.join(&Schema::new(agg_cols));
            current_schema = schema;

            // HAVING.
            if let Some(h) = &stmt.having {
                let pred = self.bind_post_agg(
                    h,
                    &stmt.group_by,
                    &agg_asts,
                    &current_schema,
                    outer,
                    used_outer,
                )?;
                current_plan = Plan::Filter { input: Box::new(current_plan), pred };
            }

            // Projections (post-aggregation).
            let (exprs, out_schema, proj_names) = self.bind_projections_post_agg(
                stmt,
                &stmt.group_by,
                &agg_asts,
                &current_schema,
                outer,
                used_outer,
            )?;
            current_plan = Plan::Project { input: Box::new(current_plan), exprs };
            let pre_sort_schema = current_schema;
            current_schema = out_schema;

            self.finish_select(
                stmt,
                current_plan,
                current_schema,
                proj_names,
                Some((pre_sort_schema, agg_asts)),
                outer,
                used_outer,
            )
        } else {
            // Projections (no aggregation).
            let (exprs, out_schema, proj_names) =
                self.bind_projections_plain(stmt, &current_schema, outer, used_outer)?;
            let pre_schema = current_schema.clone();
            current_plan = Plan::Project { input: Box::new(current_plan), exprs };
            current_schema = out_schema;
            self.finish_select(
                stmt,
                current_plan,
                current_schema,
                proj_names,
                Some((pre_schema, Vec::new())),
                outer,
                used_outer,
            )
        }
    }

    /// DISTINCT, ORDER BY, LIMIT — common tail of SELECT planning.
    #[allow(clippy::too_many_arguments)]
    fn finish_select(
        &self,
        stmt: &SelectStmt,
        mut plan: Plan,
        schema: Schema,
        proj_names: Vec<String>,
        _pre: Option<(Schema, Vec<Expr>)>,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<PlannedQuery> {
        if stmt.distinct {
            plan = Plan::Distinct { input: Box::new(plan) };
        }
        if !stmt.order_by.is_empty() {
            let mut keys: Vec<(BExpr, bool)> = Vec::new();
            for item in &stmt.order_by {
                let key =
                    self.resolve_order_key(&item.expr, &proj_names, &schema, outer, used_outer)?;
                keys.push((key, item.desc));
            }
            plan = Plan::Sort { input: Box::new(plan), keys };
        }
        if let Some(n) = stmt.limit {
            plan = Plan::Limit { input: Box::new(plan), n };
        }
        Ok(PlannedQuery { plan, schema, n_params: 0, names: BTreeMap::new() })
    }

    /// Resolve one ORDER BY expression against the projection output:
    /// by alias, by ordinal, or by re-binding against the output schema.
    fn resolve_order_key(
        &self,
        e: &Expr,
        proj_names: &[String],
        out_schema: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<BExpr> {
        // Ordinal: ORDER BY 1
        if let Expr::Literal(Value::Int(n)) = e {
            let idx = *n as usize;
            if idx == 0 || idx > proj_names.len() {
                return Err(DbError::analysis(format!("ORDER BY position {n} out of range")));
            }
            return Ok(BExpr::Column(idx - 1));
        }
        // Output alias.
        if let Expr::Column { qualifier: None, name } = e {
            if let Some(i) = proj_names.iter().position(|p| p == name) {
                return Ok(BExpr::Column(i));
            }
        }
        // Re-bind against the output schema (output columns carry their
        // source names, so `ORDER BY o_orderdate` works when projected).
        self.bind_expr(e, out_schema, outer, used_outer)
    }

    // ---------------------------------------------------------------------
    // FROM handling
    // ---------------------------------------------------------------------

    /// Resolve a FROM-clause name — base table, then view (planned), then
    /// `M$` view — and record it in [`PlannedQuery::names`]. This is the
    /// only place a SELECT's table and view names are resolved.
    fn resolve_named(&self, name: &str, binding: &str) -> DbResult<Rel> {
        let rel =
            |schema: Schema, source, est_rows| Rel { schema, source, preds: Vec::new(), est_rows };
        let resolved = if let Some(table) = self.catalog.try_table(name) {
            rel(table.schema.with_qualifier(binding), RelSource::Base(table), 0.0)
        } else if let Some(view) = self.catalog.view(name) {
            let mut sub_used = HashSet::new();
            let pq = self.plan_select(&view, &[], &mut sub_used)?;
            // Views have no statistics: a modest default.
            rel(pq.schema.with_qualifier(binding), RelSource::Derived(pq.plan), 1000.0)
        } else if let Some(mv) = self.catalog.monitor_view(name) {
            let schema = mv.schema().with_qualifier(binding);
            rel(schema, RelSource::Derived(Plan::MonitorScan { view: mv }), 100.0)
        } else {
            return Err(DbError::catalog(format!("no table or view '{name}'")));
        };
        let in_subquery = self.subquery_depth.get() > 0;
        *self.names.borrow_mut().entry(name.to_ascii_uppercase()).or_default() |= in_subquery;
        Ok(resolved)
    }

    fn collect_from(
        &self,
        tref: &TableRef,
        rels: &mut Vec<Rel>,
        join_conjuncts: &mut Vec<Expr>,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<()> {
        match tref {
            TableRef::Named { name, alias } => {
                rels.push(self.resolve_named(name, alias.as_deref().unwrap_or(name))?);
                Ok(())
            }
            TableRef::Subquery { query, alias } => {
                let pq = self.plan_select(query, outer, used_outer)?;
                rels.push(Rel {
                    schema: pq.schema.with_qualifier(alias),
                    source: RelSource::Derived(pq.plan),
                    preds: Vec::new(),
                    est_rows: 1000.0,
                });
                Ok(())
            }
            TableRef::Join { left, right, kind, on } => match kind {
                JoinKind::Inner => {
                    self.collect_from(left, rels, join_conjuncts, outer, used_outer)?;
                    self.collect_from(right, rels, join_conjuncts, outer, used_outer)?;
                    join_conjuncts.extend(on.clone().split_conjuncts());
                    Ok(())
                }
                JoinKind::LeftOuter => {
                    // Outer joins are planned structurally (no reordering).
                    let (plan, schema) = self.plan_join_block(tref, outer, used_outer)?;
                    rels.push(Rel {
                        schema,
                        source: RelSource::Derived(plan),
                        preds: Vec::new(),
                        est_rows: 10_000.0,
                    });
                    Ok(())
                }
            },
        }
    }

    /// Structural planning for a join tree containing outer joins.
    fn plan_join_block(
        &self,
        tref: &TableRef,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<(Plan, Schema)> {
        match tref {
            TableRef::Named { name, alias } => {
                let rel = self.resolve_named(name, alias.as_deref().unwrap_or(name))?;
                let plan = match rel.source {
                    RelSource::Base(table) => {
                        let needed = vec![true; rel.schema.len()];
                        Plan::SeqScan { table, filter: None, needed }
                    }
                    RelSource::Derived(plan) => plan,
                };
                Ok((plan, rel.schema))
            }
            TableRef::Subquery { query, alias } => {
                let pq = self.plan_select(query, outer, used_outer)?;
                Ok((pq.plan, pq.schema.with_qualifier(alias)))
            }
            TableRef::Join { left, right, kind, on } => {
                let (lplan, lschema) = self.plan_join_block(left, outer, used_outer)?;
                let (rplan, rschema) = self.plan_join_block(right, outer, used_outer)?;
                let combined = lschema.join(&rschema);
                // Try to use a hash join for a single equi conjunct set.
                let conjs = on.clone().split_conjuncts();
                let mut lkeys = Vec::new();
                let mut rkeys = Vec::new();
                let mut residual = Vec::new();
                for c in conjs {
                    // Without hash joins every conjunct stays in the
                    // nested-loop join's ON predicate.
                    if !self.config.enable_hash_join {
                        residual.push(c);
                        continue;
                    }
                    if let Expr::Binary { left: a, op: BinOp::Eq, right: b } = &c {
                        let a_left = self.binds_fully(a, &lschema);
                        let b_right = self.binds_fully(b, &rschema);
                        let a_right = self.binds_fully(a, &rschema);
                        let b_left = self.binds_fully(b, &lschema);
                        if a_left && b_right {
                            lkeys.push(self.bind_expr(a, &lschema, outer, used_outer)?);
                            rkeys.push(self.bind_expr(b, &rschema, outer, used_outer)?);
                            continue;
                        }
                        if a_right && b_left {
                            lkeys.push(self.bind_expr(b, &lschema, outer, used_outer)?);
                            rkeys.push(self.bind_expr(a, &rschema, outer, used_outer)?);
                            continue;
                        }
                    }
                    residual.push(c);
                }
                let right_width = rschema.len();
                if !lkeys.is_empty() {
                    let residual_pred = match Expr::conjunction(residual) {
                        Some(p) => Some(self.bind_expr(&p, &combined, outer, used_outer)?),
                        None => None,
                    };
                    Ok((
                        Plan::HashJoin {
                            left: Box::new(lplan),
                            right: Box::new(rplan),
                            left_keys: lkeys,
                            right_keys: rkeys,
                            residual: residual_pred,
                            kind: *kind,
                            right_width,
                        },
                        combined,
                    ))
                } else {
                    let on_pred = match Expr::conjunction(residual) {
                        Some(p) => Some(self.bind_expr(&p, &combined, outer, used_outer)?),
                        None => None,
                    };
                    Ok((
                        Plan::NLJoin {
                            left: Box::new(lplan),
                            right: Box::new(rplan),
                            kind: *kind,
                            on: on_pred,
                            right_correlated: false,
                            right_width,
                        },
                        combined,
                    ))
                }
            }
        }
    }

    /// Does `e` bind fully against `schema` (ignoring outer scopes)?
    fn binds_fully(&self, e: &Expr, schema: &Schema) -> bool {
        let refs = e.column_refs();
        !refs.is_empty()
            && refs.iter().all(|(q, n)| schema.try_resolve(q.as_deref(), n).is_some())
            && !has_subquery(e)
    }

    // ---------------------------------------------------------------------
    // Conjunct classification
    // ---------------------------------------------------------------------

    fn classify_conjunct(&self, c: &Expr, rels: &[Rel]) -> DbResult<Classified> {
        if has_subquery(c) {
            return Ok(Classified::Post);
        }
        let refs = c.column_refs();
        let mut rel_set: Vec<usize> = Vec::new();
        for (q, n) in &refs {
            let mut found: Option<usize> = None;
            for (i, rel) in rels.iter().enumerate() {
                if rel.schema.try_resolve(q.as_deref(), n).is_some() {
                    if found.is_some() && found != Some(i) {
                        return Err(DbError::analysis(format!("ambiguous column '{n}'")));
                    }
                    found = Some(i);
                }
            }
            if let Some(i) = found {
                if !rel_set.contains(&i) {
                    rel_set.push(i);
                }
            }
            // Unresolved refs may be outer correlation — handled at binding.
        }
        match rel_set.len() {
            0 => Ok(if rels.len() == 1 { Classified::Single(0) } else { Classified::Post }),
            1 => Ok(Classified::Single(rel_set[0])),
            2 => {
                if let Expr::Binary { left, op: BinOp::Eq, right } = c {
                    if let (Expr::Column { .. }, Expr::Column { .. }) =
                        (left.as_ref(), right.as_ref())
                    {
                        let (q1, n1) = &refs[0];
                        let left_rel = rels
                            .iter()
                            .position(|r| r.schema.try_resolve(q1.as_deref(), n1).is_some());
                        if let Some(la) = left_rel {
                            let other = if rel_set[0] == la { rel_set[1] } else { rel_set[0] };
                            return Ok(Classified::Equi {
                                rel_a: la,
                                col_a: (**left).clone(),
                                rel_b: other,
                                col_b: (**right).clone(),
                            });
                        }
                    }
                }
                Ok(Classified::Post)
            }
            _ => Ok(Classified::Post),
        }
    }

    // ---------------------------------------------------------------------
    // Access-path selection
    // ---------------------------------------------------------------------

    fn build_rel_access(
        &self,
        rel: &mut Rel,
        _idx: usize,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<Built> {
        match &rel.source {
            RelSource::Derived(_) => {
                // Take the plan out; apply predicates as a filter.
                let RelSource::Derived(plan) = std::mem::replace(
                    &mut rel.source,
                    RelSource::Derived(Plan::Values { rows: vec![] }),
                ) else {
                    unreachable!()
                };
                let mut plan = plan;
                if !rel.preds.is_empty() {
                    let pred_ast = Expr::conjunction(rel.preds.clone()).expect("nonempty");
                    let pred = self.bind_expr(&pred_ast, &rel.schema, outer, used_outer)?;
                    plan = Plan::Filter { input: Box::new(plan), pred };
                }
                Ok(Built {
                    plan,
                    schema: rel.schema.clone(),
                    card: rel.est_rows.max(1.0),
                    rels: HashSet::new(),
                })
            }
            RelSource::Base(table) => {
                let table = Arc::clone(table);
                let stats = table.stats.read().clone();
                let (base_rows, base_pages) = if stats.analyzed {
                    (stats.row_count as f64, stats.pages.max(1) as f64)
                } else {
                    // No statistics yet: fall back to live heap counters so
                    // scan costing is still sane on freshly loaded tables.
                    (table.row_count() as f64, table.heap.page_count().max(1) as f64)
                };
                let base_rows = base_rows.max(1.0);

                let schema = rel.schema.clone();
                let resolve_local =
                    |q: Option<&str>, n: &str| -> Option<usize> { schema.try_resolve(q, n) };

                // Selectivity of all single-table predicates.
                let mut sel = 1.0;
                for p in &rel.preds {
                    sel *= conjunct_selectivity(p, &stats, &resolve_local);
                }
                let est_rows = (base_rows * sel).max(1.0);

                // Sarg extraction.
                let constantish = |e: &Expr| -> Option<bool> {
                    if has_subquery(e) || e.contains_aggregate() {
                        return None;
                    }
                    let refs = e.column_refs();
                    let mut unknown = e.contains_param();
                    for (q, n) in &refs {
                        if schema.try_resolve(q.as_deref(), n).is_some() {
                            return None; // references the local table
                        }
                        unknown = true; // outer reference: value unknown at plan time
                    }
                    Some(unknown)
                };
                let sargs = extract_sargs(&rel.preds, &resolve_local, &constantish);

                // Candidate index accesses.
                let mut best: Option<(Arc<crate::catalog::Index>, IndexAccess, f64)> = None;
                for index in table.indexes.read().iter() {
                    if let Some(access) = match_index(&index.columns, &sargs) {
                        let acc_sel = self.access_selectivity(&access, &stats, &schema);
                        let better = match &best {
                            None => true,
                            Some((_, _, s)) => acc_sel < *s,
                        };
                        if better {
                            best = Some((Arc::clone(index), access, acc_sel));
                        }
                    }
                }

                let cal = &self.calibration;
                let scan_cost = base_pages * cal.ms_seq_page_read + base_rows * cal.ms_db_tuple;

                let use_index = match &best {
                    None => false,
                    Some((index, access, acc_sel)) => {
                        if access.involves_unknown()
                            && self.config.blind_param_plans
                            && *acc_sel < 0.3
                        {
                            // §4.1: the optimizer cannot see the constant and
                            // blindly prefers the index (rule-based fallback).
                            true
                        } else {
                            let matching = base_rows * acc_sel;
                            let index_cost = (index.height() as f64 + matching)
                                * cal.ms_rand_page_read
                                + matching * cal.ms_db_tuple;
                            index_cost < scan_cost
                        }
                    }
                };

                let plan = if use_index {
                    let (index, access, _) = best.expect("use_index implies candidate");
                    self.build_index_scan(&table, index, access, rel, &schema, outer, used_outer)?
                } else {
                    let filter = match Expr::conjunction(rel.preds.clone()) {
                        Some(p) => Some(self.bind_expr(&p, &schema, outer, used_outer)?),
                        None => None,
                    };
                    let needed = vec![true; schema.len()];
                    Plan::SeqScan { table: Arc::clone(&table), filter, needed }
                };
                Ok(Built { plan, schema, card: est_rows, rels: HashSet::new() })
            }
        }
    }

    fn access_selectivity(
        &self,
        access: &IndexAccess,
        stats: &crate::catalog::TableStats,
        schema: &Schema,
    ) -> f64 {
        let resolve = |q: Option<&str>, n: &str| schema.try_resolve(q, n);
        let mut sel = 1.0;
        for s in &access.eq_sargs {
            sel *= self.sarg_selectivity(s, stats, &resolve);
        }
        let mut range = 1.0;
        if let Some(s) = &access.lower {
            range *= self.sarg_selectivity(s, stats, &resolve);
        }
        if let Some(s) = &access.upper {
            range *= self.sarg_selectivity(s, stats, &resolve);
        }
        sel * range
    }

    fn sarg_selectivity(
        &self,
        s: &Sarg,
        stats: &crate::catalog::TableStats,
        _resolve: &dyn Fn(Option<&str>, &str) -> Option<usize>,
    ) -> f64 {
        use crate::planner::selectivity::{cmp_selectivity, default_for};
        let col_stats = if stats.analyzed { stats.columns.get(s.column) } else { None };
        if let Expr::Literal(v) = &s.rhs {
            cmp_selectivity(s.op, v, col_stats)
        } else if s.op == crate::sql::ast::BinOp::Eq {
            // Equality against an unknown constant: 1/NDV is still a sound
            // estimate (the classic System R rule). This keeps the blind
            // optimizer from treating a one-valued column (e.g. SAP's
            // MANDT client) as selective.
            match col_stats {
                Some(st) if st.n_distinct > 0 => 1.0 / st.n_distinct as f64,
                _ => default_for(s.op),
            }
        } else {
            default_for(s.op)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_index_scan(
        &self,
        table: &Arc<Table>,
        index: Arc<crate::catalog::Index>,
        access: IndexAccess,
        rel: &Rel,
        schema: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<Plan> {
        // Bind the bound-value expressions. They must not reference local
        // columns (guaranteed by sarg extraction) — bind against an empty
        // current schema so local refs error out loudly.
        let empty = Schema::new(Vec::new());
        let mut eq_vals: Vec<BExpr> = Vec::new();
        for s in &access.eq_sargs {
            eq_vals.push(self.bind_expr(&s.rhs, &empty, outer, used_outer)?);
        }
        let mut lower_vals = eq_vals.clone();
        let mut lower_inclusive = true;
        let mut lower = if eq_vals.is_empty() { None } else { Some(()) };
        if let Some(s) = &access.lower {
            lower_vals.push(self.bind_expr(&s.rhs, &empty, outer, used_outer)?);
            lower_inclusive = s.op == BinOp::GtEq;
            lower = Some(());
        }
        let mut upper_vals = eq_vals.clone();
        let mut upper_inclusive = true;
        let mut upper = if eq_vals.is_empty() { None } else { Some(()) };
        if let Some(s) = &access.upper {
            upper_vals.push(self.bind_expr(&s.rhs, &empty, outer, used_outer)?);
            upper_inclusive = s.op == BinOp::LtEq;
            upper = Some(());
        }
        let consumed = access.consumed_conjuncts();
        let residual_asts: Vec<Expr> = rel
            .preds
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, p)| p.clone())
            .collect();
        let residual = match Expr::conjunction(residual_asts) {
            Some(p) => Some(self.bind_expr(&p, schema, outer, used_outer)?),
            None => None,
        };
        Ok(Plan::IndexScan {
            table: Arc::clone(table),
            index,
            lower: lower.map(|_| IndexKeyBound { values: lower_vals, inclusive: lower_inclusive }),
            upper: upper.map(|_| IndexKeyBound { values: upper_vals, inclusive: upper_inclusive }),
            residual,
            needed: vec![true; schema.len()],
        })
    }

    // ---------------------------------------------------------------------
    // Join ordering
    // ---------------------------------------------------------------------

    fn order_joins(
        &self,
        mut inputs: Vec<Built>,
        equi_preds: &mut [EquiPred],
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<Built> {
        for (i, b) in inputs.iter_mut().enumerate() {
            b.rels.insert(i);
        }
        if inputs.len() == 1 {
            return Ok(inputs.pop().expect("one input"));
        }
        // Start with the smallest relation.
        let start = inputs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.card.total_cmp(&b.card))
            .map(|(i, _)| i)
            .expect("nonempty");
        let mut remaining: Vec<Built> = Vec::new();
        let mut current: Option<Built> = None;
        for (i, b) in inputs.into_iter().enumerate() {
            if i == start {
                current = Some(b);
            } else {
                remaining.push(b);
            }
        }
        let mut current = current.expect("start chosen");

        while !remaining.is_empty() {
            // Find the connected relation producing the smallest join.
            let mut best: Option<(usize, f64, Vec<usize>)> = None; // (idx in remaining, est card, pred idxs)
            for (ri, r) in remaining.iter().enumerate() {
                let preds: Vec<usize> = equi_preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        !p.consumed
                            && ((current.rels.contains(&p.rel_a) && r.rels.contains(&p.rel_b))
                                || (current.rels.contains(&p.rel_b) && r.rels.contains(&p.rel_a)))
                    })
                    .map(|(i, _)| i)
                    .collect();
                if preds.is_empty() {
                    continue;
                }
                // Join selectivity: product over the predicates of
                // 1/max(NDV of the join columns) — System R's estimate.
                let mut sel = 1.0f64;
                for &pi in &preds {
                    sel *= 1.0 / equi_preds[pi].ndv;
                }
                let est = (current.card * r.card * sel).max(1.0);
                let better = match &best {
                    None => true,
                    Some((_, c, _)) => est < *c,
                };
                if better {
                    best = Some((ri, est, preds));
                }
            }
            let (ri, est, pred_idxs) = match best {
                Some(b) => b,
                None => {
                    // Disconnected: cross join with the smallest remaining.
                    let ri = remaining
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.card.total_cmp(&b.card))
                        .map(|(i, _)| i)
                        .expect("nonempty");
                    let est = current.card * remaining[ri].card;
                    (ri, est, Vec::new())
                }
            };
            let next = remaining.remove(ri);
            current =
                self.make_join(current, next, est, pred_idxs, equi_preds, outer, used_outer)?;
        }
        Ok(current)
    }

    #[allow(clippy::too_many_arguments)]
    fn make_join(
        &self,
        a: Built,
        b: Built,
        est: f64,
        pred_idxs: Vec<usize>,
        equi_preds: &mut [EquiPred],
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<Built> {
        // Build on the smaller side.
        let (build, probe) = if a.card <= b.card { (a, b) } else { (b, a) };
        let schema = build.schema.join(&probe.schema);
        let mut rels = build.rels.clone();
        rels.extend(&probe.rels);
        if pred_idxs.is_empty() || !self.config.enable_hash_join {
            // Cross/NL join; bind consumed equi preds as ON if present.
            let mut on_asts = Vec::new();
            for &pi in &pred_idxs {
                let p = &mut equi_preds[pi];
                p.consumed = true;
                on_asts.push(Expr::binary(p.col_a.clone(), BinOp::Eq, p.col_b.clone()));
            }
            let on = match Expr::conjunction(on_asts) {
                Some(p) => Some(self.bind_expr(&p, &schema, outer, used_outer)?),
                None => None,
            };
            let right_width = probe.schema.len();
            return Ok(Built {
                plan: Plan::NLJoin {
                    left: Box::new(build.plan),
                    right: Box::new(probe.plan),
                    kind: JoinKind::Inner,
                    on,
                    right_correlated: false,
                    right_width,
                },
                schema,
                card: est,
                rels,
            });
        }
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for &pi in &pred_idxs {
            let p = &mut equi_preds[pi];
            p.consumed = true;
            // Which side does col_a live on?
            let a_on_build = self.binds_fully(&p.col_a, &build.schema);
            let (bk, pk) = if a_on_build { (&p.col_a, &p.col_b) } else { (&p.col_b, &p.col_a) };
            left_keys.push(self.bind_expr(bk, &build.schema, outer, used_outer)?);
            right_keys.push(self.bind_expr(pk, &probe.schema, outer, used_outer)?);
        }
        let right_width = probe.schema.len();
        Ok(Built {
            plan: Plan::HashJoin {
                left: Box::new(build.plan),
                right: Box::new(probe.plan),
                left_keys,
                right_keys,
                residual: None,
                kind: JoinKind::Inner,
                right_width,
            },
            schema,
            card: est,
            rels,
        })
    }

    // ---------------------------------------------------------------------
    // Projections
    // ---------------------------------------------------------------------

    fn bind_projections_plain(
        &self,
        stmt: &SelectStmt,
        input: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<(Vec<BExpr>, Schema, Vec<String>)> {
        let mut exprs = Vec::new();
        let mut cols: Vec<Column> = Vec::new();
        let mut quals: Vec<Option<String>> = Vec::new();
        let mut names = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard => {
                    for i in 0..input.len() {
                        exprs.push(BExpr::Column(i));
                        cols.push(input.column(i).clone());
                        quals.push(input.qualifier(i).map(|s| s.to_string()));
                        names.push(input.column(i).name.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for i in 0..input.len() {
                        if input.qualifier(i) == Some(q.to_ascii_uppercase().as_str()) {
                            exprs.push(BExpr::Column(i));
                            cols.push(input.column(i).clone());
                            quals.push(Some(q.clone()));
                            names.push(input.column(i).name.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(DbError::analysis(format!("unknown qualifier '{q}.*'")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, input, outer, used_outer)?;
                    let (name, qual, ty) = match alias {
                        Some(a) => (a.clone(), None, self.infer_type(expr, input)),
                        None => self.describe_output(expr, input, exprs.len()),
                    };
                    exprs.push(bound);
                    names.push(name.clone());
                    cols.push(Column::new(name, ty));
                    quals.push(qual);
                }
            }
        }
        let schema = schema_from(cols, quals);
        Ok((exprs, schema, names))
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_projections_post_agg(
        &self,
        stmt: &SelectStmt,
        group_by: &[Expr],
        agg_asts: &[Expr],
        agg_schema: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<(Vec<BExpr>, Schema, Vec<String>)> {
        let mut exprs = Vec::new();
        let mut cols: Vec<Column> = Vec::new();
        let mut quals: Vec<Option<String>> = Vec::new();
        let mut names = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(DbError::analysis("* not allowed with GROUP BY/aggregates"));
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self
                        .bind_post_agg(expr, group_by, agg_asts, agg_schema, outer, used_outer)?;
                    let (name, qual, ty) = match alias {
                        Some(a) => (a.clone(), None, self.infer_type(expr, agg_schema)),
                        None => self.describe_output(expr, agg_schema, exprs.len()),
                    };
                    exprs.push(bound);
                    names.push(name.clone());
                    cols.push(Column::new(name, ty));
                    quals.push(qual);
                }
            }
        }
        let schema = schema_from(cols, quals);
        Ok((exprs, schema, names))
    }

    /// Bind an expression in the post-aggregation scope: GROUP BY
    /// expressions and aggregate calls become columns of the Aggregate
    /// operator's output; anything else must be composed of those.
    fn bind_post_agg(
        &self,
        e: &Expr,
        group_by: &[Expr],
        agg_asts: &[Expr],
        agg_schema: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<BExpr> {
        if let Some(i) = group_by.iter().position(|g| g.identical(e)) {
            return Ok(BExpr::Column(i));
        }
        if let Some(i) = agg_asts.iter().position(|a| a.identical(e)) {
            return Ok(BExpr::Column(group_by.len() + i));
        }
        let rec = |x: &Expr, u: &mut HashSet<usize>| {
            self.bind_post_agg(x, group_by, agg_asts, agg_schema, outer, u)
        };
        match e {
            Expr::Column { qualifier, name } => {
                // A bare column not in GROUP BY is an error — unless it
                // names an outer scope (correlated HAVING).
                if let Some(b) =
                    self.try_bind_outer(qualifier.as_deref(), name, outer, used_outer)?
                {
                    return Ok(b);
                }
                Err(DbError::analysis(format!(
                    "column '{name}' must appear in GROUP BY or an aggregate"
                )))
            }
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::Param(i) => {
                self.note_param(*i);
                Ok(BExpr::Param(*i))
            }
            Expr::Unary { op, expr } => {
                let inner = rec(expr, used_outer)?;
                Ok(match op {
                    crate::sql::ast::UnaryOp::Neg => BExpr::Neg(inner.boxed()),
                    crate::sql::ast::UnaryOp::Not => BExpr::Not(inner.boxed()),
                })
            }
            Expr::Binary { left, op, right } => Ok(BExpr::Binary {
                left: rec(left, used_outer)?.boxed(),
                op: *op,
                right: rec(right, used_outer)?.boxed(),
            }),
            Expr::Between { expr, low, high, negated } => Ok(BExpr::Between {
                expr: rec(expr, used_outer)?.boxed(),
                low: rec(low, used_outer)?.boxed(),
                high: rec(high, used_outer)?.boxed(),
                negated: *negated,
            }),
            Expr::InList { expr, list, negated } => Ok(BExpr::InList {
                expr: rec(expr, used_outer)?.boxed(),
                list: list
                    .iter()
                    .map(|x| {
                        self.bind_post_agg(x, group_by, agg_asts, agg_schema, outer, used_outer)
                    })
                    .collect::<DbResult<_>>()?,
                negated: *negated,
            }),
            Expr::Like { expr, pattern, negated } => Ok(BExpr::Like {
                expr: rec(expr, used_outer)?.boxed(),
                pattern: rec(pattern, used_outer)?.boxed(),
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => {
                Ok(BExpr::IsNull { expr: rec(expr, used_outer)?.boxed(), negated: *negated })
            }
            Expr::Case { branches, else_expr } => Ok(BExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.bind_post_agg(
                                c, group_by, agg_asts, agg_schema, outer, used_outer,
                            )?,
                            self.bind_post_agg(
                                r, group_by, agg_asts, agg_schema, outer, used_outer,
                            )?,
                        ))
                    })
                    .collect::<DbResult<_>>()?,
                else_expr: match else_expr {
                    Some(x) => Some(rec(x, used_outer)?.boxed()),
                    None => None,
                },
            }),
            Expr::Extract { unit, expr } => {
                Ok(BExpr::Extract { unit: *unit, expr: rec(expr, used_outer)?.boxed() })
            }
            Expr::IntervalAdd { expr, amount, unit } => Ok(BExpr::IntervalAdd {
                expr: rec(expr, used_outer)?.boxed(),
                amount: *amount,
                unit: *unit,
            }),
            Expr::Func { name, args } => {
                let (func, arity) = ScalarFunc::from_name(name)
                    .ok_or_else(|| DbError::analysis(format!("unknown function '{name}'")))?;
                if args.len() != arity {
                    return Err(DbError::analysis(format!("{name} expects {arity} arguments")));
                }
                Ok(BExpr::Func {
                    func,
                    args: args
                        .iter()
                        .map(|x| {
                            self.bind_post_agg(x, group_by, agg_asts, agg_schema, outer, used_outer)
                        })
                        .collect::<DbResult<_>>()?,
                })
            }
            Expr::ScalarSubquery(q) => {
                self.bind_subquery(q, SubKindTag::Scalar, None, agg_schema, outer, used_outer)
            }
            Expr::Exists { query, negated } => self.bind_subquery(
                query,
                SubKindTag::Exists(*negated),
                None,
                agg_schema,
                outer,
                used_outer,
            ),
            Expr::InSubquery { expr, query, negated } => {
                let lhs = rec(expr, used_outer)?;
                self.bind_subquery(
                    query,
                    SubKindTag::In(*negated),
                    Some(lhs),
                    agg_schema,
                    outer,
                    used_outer,
                )
            }
            Expr::Agg { .. } => Err(DbError::analysis(
                "aggregate expression not collected — nested aggregates are not supported",
            )),
        }
    }

    /// Output column naming & typing for a projection item without alias.
    fn describe_output(
        &self,
        e: &Expr,
        input: &Schema,
        idx: usize,
    ) -> (String, Option<String>, DataType) {
        if let Expr::Column { qualifier, name } = e {
            if let Some(i) = input.try_resolve(qualifier.as_deref(), name) {
                return (
                    input.column(i).name.clone(),
                    input.qualifier(i).map(|s| s.to_string()),
                    input.column(i).ty,
                );
            }
            return (name.clone(), qualifier.clone(), DataType::VarChar(64));
        }
        (format!("EXPR_{idx}"), None, self.infer_type(e, input))
    }

    fn infer_type(&self, e: &Expr, input: &Schema) -> DataType {
        match e {
            Expr::Column { qualifier, name } => input
                .try_resolve(qualifier.as_deref(), name)
                .map(|i| input.column(i).ty)
                .unwrap_or(DataType::VarChar(64)),
            Expr::Literal(Value::Int(_)) => DataType::Int,
            Expr::Literal(Value::Decimal(_)) => DataType::Decimal { precision: 18, scale: 6 },
            Expr::Literal(Value::Str(_)) => DataType::VarChar(128),
            Expr::Literal(Value::Date(_)) => DataType::Date,
            Expr::Literal(Value::Bool(_)) => DataType::Bool,
            Expr::Agg { func: AggFunc::Count, .. } => DataType::Int,
            Expr::Agg { .. } => DataType::Decimal { precision: 18, scale: 6 },
            Expr::Binary { op, .. } if op.is_comparison() => DataType::Bool,
            Expr::Binary { .. } | Expr::Unary { .. } => {
                DataType::Decimal { precision: 18, scale: 6 }
            }
            Expr::Extract { .. } => DataType::Int,
            Expr::IntervalAdd { .. } => DataType::Date,
            Expr::Case { branches, .. } => branches
                .first()
                .map(|(_, r)| self.infer_type(r, input))
                .unwrap_or(DataType::VarChar(64)),
            Expr::Func { name, .. } => match name.as_str() {
                "LENGTH" => DataType::Int,
                "VENDOR_CONTAINS" => DataType::Bool,
                _ => DataType::VarChar(128),
            },
            _ => DataType::Bool,
        }
    }

    // ---------------------------------------------------------------------
    // Expression binding (pre-aggregation scope)
    // ---------------------------------------------------------------------

    fn note_param(&self, i: usize) {
        if i + 1 > self.max_param.get() {
            self.max_param.set(i + 1);
        }
    }

    fn try_bind_outer(
        &self,
        qualifier: Option<&str>,
        name: &str,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<Option<BExpr>> {
        // Innermost enclosing frame first.
        for (dist, frame_abs) in (0..outer.len()).rev().enumerate() {
            match outer[frame_abs].resolve_opt(qualifier, name)? {
                Some(idx) => {
                    used_outer.insert(frame_abs);
                    return Ok(Some(BExpr::Outer { depth: dist + 1, index: idx }));
                }
                None => continue,
            }
        }
        Ok(None)
    }

    pub(crate) fn bind_expr(
        &self,
        e: &Expr,
        current: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<BExpr> {
        match e {
            Expr::Column { qualifier, name } => {
                if let Some(idx) = current.resolve_opt(qualifier.as_deref(), name)? {
                    return Ok(BExpr::Column(idx));
                }
                if let Some(b) =
                    self.try_bind_outer(qualifier.as_deref(), name, outer, used_outer)?
                {
                    return Ok(b);
                }
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(DbError::analysis(format!("unknown column '{full}'")))
            }
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::Param(i) => {
                self.note_param(*i);
                Ok(BExpr::Param(*i))
            }
            Expr::Unary { op, expr } => {
                let inner = self.bind_expr(expr, current, outer, used_outer)?;
                Ok(match op {
                    crate::sql::ast::UnaryOp::Neg => BExpr::Neg(inner.boxed()),
                    crate::sql::ast::UnaryOp::Not => BExpr::Not(inner.boxed()),
                })
            }
            Expr::Binary { left, op, right } => Ok(BExpr::Binary {
                left: self.bind_expr(left, current, outer, used_outer)?.boxed(),
                op: *op,
                right: self.bind_expr(right, current, outer, used_outer)?.boxed(),
            }),
            Expr::Between { expr, low, high, negated } => Ok(BExpr::Between {
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
                low: self.bind_expr(low, current, outer, used_outer)?.boxed(),
                high: self.bind_expr(high, current, outer, used_outer)?.boxed(),
                negated: *negated,
            }),
            Expr::InList { expr, list, negated } => Ok(BExpr::InList {
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
                list: list
                    .iter()
                    .map(|x| self.bind_expr(x, current, outer, used_outer))
                    .collect::<DbResult<_>>()?,
                negated: *negated,
            }),
            Expr::Like { expr, pattern, negated } => Ok(BExpr::Like {
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
                pattern: self.bind_expr(pattern, current, outer, used_outer)?.boxed(),
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => Ok(BExpr::IsNull {
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
                negated: *negated,
            }),
            Expr::Case { branches, else_expr } => Ok(BExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.bind_expr(c, current, outer, used_outer)?,
                            self.bind_expr(r, current, outer, used_outer)?,
                        ))
                    })
                    .collect::<DbResult<_>>()?,
                else_expr: match else_expr {
                    Some(x) => Some(self.bind_expr(x, current, outer, used_outer)?.boxed()),
                    None => None,
                },
            }),
            Expr::Extract { unit, expr } => Ok(BExpr::Extract {
                unit: *unit,
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
            }),
            Expr::IntervalAdd { expr, amount, unit } => Ok(BExpr::IntervalAdd {
                expr: self.bind_expr(expr, current, outer, used_outer)?.boxed(),
                amount: *amount,
                unit: *unit,
            }),
            Expr::Func { name, args } => {
                let (func, arity) = ScalarFunc::from_name(name)
                    .ok_or_else(|| DbError::analysis(format!("unknown function '{name}'")))?;
                if args.len() != arity {
                    return Err(DbError::analysis(format!("{name} expects {arity} arguments")));
                }
                Ok(BExpr::Func {
                    func,
                    args: args
                        .iter()
                        .map(|x| self.bind_expr(x, current, outer, used_outer))
                        .collect::<DbResult<_>>()?,
                })
            }
            Expr::ScalarSubquery(q) => {
                self.bind_subquery(q, SubKindTag::Scalar, None, current, outer, used_outer)
            }
            Expr::Exists { query, negated } => self.bind_subquery(
                query,
                SubKindTag::Exists(*negated),
                None,
                current,
                outer,
                used_outer,
            ),
            Expr::InSubquery { expr, query, negated } => {
                let lhs = self.bind_expr(expr, current, outer, used_outer)?;
                self.bind_subquery(
                    query,
                    SubKindTag::In(*negated),
                    Some(lhs),
                    current,
                    outer,
                    used_outer,
                )
            }
            Expr::Agg { .. } => {
                Err(DbError::analysis("aggregate function not allowed in this context"))
            }
        }
    }

    fn bind_subquery(
        &self,
        q: &SelectStmt,
        tag: SubKindTag,
        lhs: Option<BExpr>,
        current: &Schema,
        outer: &[Schema],
        used_outer: &mut HashSet<usize>,
    ) -> DbResult<BExpr> {
        let mut frames: Vec<Schema> = outer.to_vec();
        frames.push(current.clone());
        let mut sub_used = HashSet::new();
        self.subquery_depth.set(self.subquery_depth.get() + 1);
        let planned = self.plan_select(q, &frames, &mut sub_used);
        self.subquery_depth.set(self.subquery_depth.get() - 1);
        let mut pq = planned?;
        match tag {
            SubKindTag::Scalar | SubKindTag::In(_) => {
                if pq.schema.len() != 1 {
                    return Err(DbError::analysis(format!(
                        "subquery must return exactly one column, returns {}",
                        pq.schema.len()
                    )));
                }
                self.prune(&mut pq.plan, vec![true])?;
            }
            SubKindTag::Exists(_) => {
                // EXISTS only needs one row, and none of its columns.
                self.prune(&mut pq.plan, vec![false; pq.schema.len()])?;
                pq.plan = Plan::Limit { input: Box::new(pq.plan), n: 1 };
            }
        }
        let correlated = !sub_used.is_empty();
        // Propagate correlation beyond our own frame to our caller.
        for &abs in &sub_used {
            if abs < outer.len() {
                used_outer.insert(abs);
            }
        }
        let kind = match tag {
            SubKindTag::Scalar => SubqueryKind::Scalar,
            SubKindTag::Exists(negated) => SubqueryKind::Exists { negated },
            SubKindTag::In(negated) => {
                SubqueryKind::In { lhs: lhs.expect("In subquery has lhs").boxed(), negated }
            }
        };
        let cache_id = self.next_cache_id.get();
        self.next_cache_id.set(cache_id + 1);
        Ok(BExpr::Subquery(Arc::new(BoundSubquery { plan: pq.plan, kind, correlated, cache_id })))
    }
}

enum SubKindTag {
    Scalar,
    Exists(bool),
    In(bool),
}

enum Classified {
    Single(usize),
    Equi { rel_a: usize, col_a: Expr, rel_b: usize, col_b: Expr },
    Post,
}

/// NDV of a join column in a relation (for join-size estimation).
fn join_col_ndv(rel: &Rel, col: &Expr) -> f64 {
    let Expr::Column { qualifier, name } = col else {
        return 1000.0;
    };
    let Some(idx) = rel.schema.try_resolve(qualifier.as_deref(), name) else {
        return 1000.0;
    };
    match &rel.source {
        RelSource::Base(table) => {
            let stats = table.stats.read();
            if stats.analyzed {
                stats
                    .columns
                    .get(idx)
                    .map(|c| c.n_distinct as f64)
                    .filter(|&n| n > 0.0)
                    .unwrap_or(1000.0)
            } else {
                table.row_count().max(1) as f64
            }
        }
        RelSource::Derived(_) => 1000.0,
    }
}

fn schema_from(cols: Vec<Column>, quals: Vec<Option<String>>) -> Schema {
    let mut schema = Schema::new(Vec::new());
    for (c, q) in cols.into_iter().zip(quals) {
        let s = match q {
            Some(q) => Schema::qualified(vec![c], &q),
            None => Schema::new(vec![c]),
        };
        schema = schema.join(&s);
    }
    schema
}

/// Does the expression contain any subquery node?
pub fn has_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |node| {
        if matches!(node, Expr::ScalarSubquery(_) | Expr::Exists { .. } | Expr::InSubquery { .. }) {
            found = true;
        }
    });
    found
}
