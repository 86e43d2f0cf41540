//! The needed-column pass: every row holds only the columns the plan
//! above it reads.
//!
//! One top-down walk. `required[i]` says whether column `i` of a node's
//! *output* is read by anything above it; each node adds what its own
//! expressions read and hands the result to its input(s). `Project` and
//! `Aggregate` start a fresh set (only what their expressions mention
//! survives below them), which is where the pruning comes from. Each
//! `SeqScan`/`IndexScan` then emits only its required columns, in stored
//! order, and the walk returns every node's *column map* on its way back
//! up: old output column `i` is new column `map[i]`, or gone. A node
//! rebinds its own expressions with its input's map ([`BExpr::rebind`]),
//! and a join recomputes `right_width`. `Project` and `Aggregate` compute
//! every output they had, so their own map is the identity; an unread
//! `Project` output is computed over a NULL literal where it read a
//! dropped column.
//!
//! Outer references count as reads of the row they resolve to:
//! [`BExpr::mark_columns`] follows a subquery's plan back to the columns of
//! the row it is evaluated under (at any nesting depth), and a correlated
//! join inner marks the left row the same way. They are rebound with the
//! same map as that row ([`Plan::rebind_outer_refs`]). Subquery plans
//! themselves are pruned where they are bound ([`super::builder`]), before
//! they are sealed into the expression, and rebound later, in place, as
//! the rows around them shrink: planning fails rather than skip a shared
//! one.

use crate::error::DbResult;
use crate::exec::expr::BExpr;
use crate::exec::plan::Plan;

/// Old column → new column, `None` for a dropped one.
pub type ColumnMap = Vec<Option<usize>>;

fn mark_all<'e>(exprs: impl IntoIterator<Item = &'e BExpr>, cols: &mut [bool]) {
    for e in exprs {
        e.mark_columns(cols);
    }
}

fn rebind_all<'e>(
    exprs: impl IntoIterator<Item = &'e mut BExpr>,
    map: &[Option<usize>],
) -> DbResult<()> {
    exprs.into_iter().try_for_each(|e| e.rebind(0, map))
}

fn has_subquery(e: &BExpr) -> bool {
    let mut found = false;
    e.visit(&mut |node| found |= matches!(node, BExpr::Subquery(_)));
    found
}

/// The map of a row that keeps the columns `kept` marks.
fn keeping(kept: &[bool]) -> ColumnMap {
    let mut next = 0;
    kept.iter()
        .map(|&k| {
            next += usize::from(k);
            k.then(|| next - 1)
        })
        .collect()
}

fn identity(width: usize) -> ColumnMap {
    (0..width).map(Some).collect()
}

/// A join's map: the left map, then the right one past the new left width.
fn joined(left: ColumnMap, right: &[Option<usize>], left_width: usize) -> ColumnMap {
    left.into_iter().chain(right.iter().map(|m| m.map(|j| left_width + j))).collect()
}

/// Shrink the rows of every node under `plan` to the columns read above
/// them, given which of `plan`'s output columns are read
/// (`required.len() == plan.width()`). Returns `plan`'s column map. The
/// planner runs it on every plan it builds; it is public only so the
/// differential tests can run it on plans built by hand.
pub fn prune_columns(plan: &mut Plan, mut required: Vec<bool>) -> DbResult<ColumnMap> {
    debug_assert_eq!(required.len(), plan.width());
    Ok(match plan {
        Plan::SeqScan { filter: pred, needed, .. }
        | Plan::IndexScan { residual: pred, needed, .. } => {
            mark_all(pred.as_ref(), &mut required);
            let map = keeping(&required);
            rebind_all(pred.as_mut(), &map)?;
            *needed = required;
            map
        }
        Plan::Values { .. } | Plan::MonitorScan { .. } => identity(required.len()),
        Plan::Filter { input, pred } => {
            pred.mark_columns(&mut required);
            let map = prune_columns(input, required)?;
            pred.rebind(0, &map)?;
            map
        }
        Plan::Project { input, exprs } => {
            // An output nobody reads is still computed, over NULL — except
            // a subquery, which would then run with NULL correlation
            // values, so those always keep their inputs.
            let mut below = vec![false; input.width()];
            for (e, wanted) in exprs.iter().zip(&required) {
                if *wanted || has_subquery(e) {
                    e.mark_columns(&mut below);
                }
            }
            let map = prune_columns(input, below)?;
            rebind_all(exprs.iter_mut(), &map)?;
            identity(exprs.len())
        }
        Plan::Sort { input, keys } => {
            mark_all(keys.iter().map(|(e, _)| e), &mut required);
            let map = prune_columns(input, required)?;
            rebind_all(keys.iter_mut().map(|(e, _)| e), &map)?;
            map
        }
        Plan::Aggregate { input, groups, aggs } => {
            let mut below = vec![false; input.width()];
            mark_all(groups.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())), &mut below);
            let map = prune_columns(input, below)?;
            rebind_all(
                groups.iter_mut().chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut())),
                &map,
            )?;
            identity(groups.len() + aggs.len())
        }
        // Duplicate elimination compares whole rows.
        Plan::Distinct { input } => prune_columns(input, vec![true; required.len()])?,
        Plan::Limit { input, .. } => prune_columns(input, required)?,
        Plan::NLJoin { left, right, on, right_correlated, right_width, .. } => {
            mark_all(on.as_ref(), &mut required);
            let right_required = required.split_off(required.len() - *right_width);
            if *right_correlated {
                right.mark_outer_refs(1, &mut required);
            }
            let left_map = prune_columns(left, required)?;
            if *right_correlated {
                right.rebind_outer_refs(1, &left_map)?;
            }
            let right_map = prune_columns(right, right_required)?;
            *right_width = right.width();
            let map = joined(left_map, &right_map, left.width());
            rebind_all(on.as_mut(), &map)?;
            map
        }
        Plan::HashJoin { left, right, left_keys, right_keys, residual, right_width, .. } => {
            mark_all(residual.as_ref(), &mut required);
            let mut right_required = required.split_off(required.len() - *right_width);
            mark_all(left_keys.iter(), &mut required);
            mark_all(right_keys.iter(), &mut right_required);
            let left_map = prune_columns(left, required)?;
            let right_map = prune_columns(right, right_required)?;
            rebind_all(left_keys.iter_mut(), &left_map)?;
            rebind_all(right_keys.iter_mut(), &right_map)?;
            *right_width = right.width();
            let map = joined(left_map, &right_map, left.width());
            rebind_all(residual.as_mut(), &map)?;
            map
        }
    })
}
