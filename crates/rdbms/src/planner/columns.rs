//! The needed-column pass: tell every scan which stored columns the plan
//! above it can read, so the executor decodes only those.
//!
//! One top-down walk. `required[i]` says whether column `i` of a node's
//! *output* is read by anything above it; each node adds what its own
//! expressions read and hands the result to its input(s). `Project` and
//! `Aggregate` start a fresh set (only what their expressions mention
//! survives below them), which is where the pruning comes from. Columns
//! nobody asked for stay in the row as `Value::Null` placeholders: widths
//! and positions never change, so no expression is rebound.
//!
//! Outer references count as reads of the row they resolve to:
//! [`BExpr::mark_columns`] follows a subquery's plan back to the columns of
//! the row it is evaluated under (at any nesting depth), and a correlated
//! join inner marks the left row the same way. Subquery plans themselves
//! are pruned where they are bound ([`super::builder`]), before they are
//! sealed into the expression.

use crate::exec::expr::BExpr;
use crate::exec::plan::Plan;

fn mark_all<'e>(exprs: impl IntoIterator<Item = &'e BExpr>, cols: &mut [bool]) {
    for e in exprs {
        e.mark_columns(cols);
    }
}

fn has_subquery(e: &BExpr) -> bool {
    let mut found = false;
    e.visit(&mut |node| found |= matches!(node, BExpr::Subquery(_)));
    found
}

/// Narrow the `needed` set of every scan under `plan`, given which of
/// `plan`'s output columns are read (`required.len() == plan.width()`).
pub(crate) fn prune_columns(plan: &mut Plan, mut required: Vec<bool>) {
    debug_assert_eq!(required.len(), plan.width());
    match plan {
        Plan::SeqScan { filter: pred, needed, .. }
        | Plan::IndexScan { residual: pred, needed, .. } => {
            mark_all(pred.as_ref(), &mut required);
            *needed = required;
        }
        Plan::Values { .. } | Plan::MonitorScan { .. } => {}
        Plan::Filter { input, pred } => {
            pred.mark_columns(&mut required);
            prune_columns(input, required);
        }
        Plan::Project { input, exprs } => {
            // An output nobody reads is still computed, but over NULL
            // placeholders — except a subquery, which would then run with
            // NULL correlation values, so those always keep their inputs.
            let mut below = vec![false; input.width()];
            for (e, wanted) in exprs.iter().zip(&required) {
                if *wanted || has_subquery(e) {
                    e.mark_columns(&mut below);
                }
            }
            prune_columns(input, below);
        }
        Plan::Sort { input, keys } => {
            mark_all(keys.iter().map(|(e, _)| e), &mut required);
            prune_columns(input, required);
        }
        Plan::Aggregate { input, groups, aggs } => {
            let mut below = vec![false; input.width()];
            mark_all(groups.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())), &mut below);
            prune_columns(input, below);
        }
        // Duplicate elimination compares whole rows.
        Plan::Distinct { input } => prune_columns(input, vec![true; required.len()]),
        Plan::Limit { input, .. } => prune_columns(input, required),
        Plan::NLJoin { left, right, on, right_correlated, right_width, .. } => {
            mark_all(on.as_ref(), &mut required);
            let right_required = required.split_off(required.len() - *right_width);
            if *right_correlated {
                right.mark_outer_refs(1, &mut required);
            }
            prune_columns(left, required);
            prune_columns(right, right_required);
        }
        Plan::HashJoin { left, right, left_keys, right_keys, residual, right_width, .. } => {
            mark_all(residual.as_ref(), &mut required);
            let mut right_required = required.split_off(required.len() - *right_width);
            mark_all(left_keys.iter(), &mut required);
            mark_all(right_keys.iter(), &mut right_required);
            prune_columns(left, required);
            prune_columns(right, right_required);
        }
    }
}
