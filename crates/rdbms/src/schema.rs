//! Table schemas and rows.

use crate::error::{DbError, DbResult};
use crate::types::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column { name: name.into().to_ascii_uppercase(), ty, nullable: true }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// A schema: an ordered list of columns, optionally qualified by a table
/// alias so expressions can resolve `alias.column` references.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
    /// Qualifier (table name or alias) per column; parallel to `columns`.
    qualifiers: Vec<Option<String>>,
}

pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        let qualifiers = vec![None; columns.len()];
        Schema { columns, qualifiers }
    }

    /// All columns qualified by the same name (a base-table scan).
    pub fn qualified(columns: Vec<Column>, qualifier: &str) -> Self {
        let q = Some(qualifier.to_ascii_uppercase());
        let qualifiers = vec![q; columns.len()];
        Schema { columns, qualifiers }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn qualifier(&self, i: usize) -> Option<&str> {
        self.qualifiers[i].as_deref()
    }

    /// Append another schema (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut qualifiers = self.qualifiers.clone();
        qualifiers.extend(other.qualifiers.iter().cloned());
        Schema { columns, qualifiers }
    }

    /// Re-qualify every column (e.g. for `FROM (subquery) AS alias`).
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        let q = Some(qualifier.to_ascii_uppercase());
        Schema { columns: self.columns.clone(), qualifiers: vec![q; self.columns.len()] }
    }

    /// Resolve a possibly-qualified column reference to an index.
    ///
    /// Ambiguous unqualified references are an analysis error, matching
    /// standard SQL name resolution.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        let name = name.to_ascii_uppercase();
        let qualifier = qualifier.map(|q| q.to_ascii_uppercase());
        let mut found: Option<usize> = None;
        for (i, col) in self.columns.iter().enumerate() {
            if col.name != name {
                continue;
            }
            if let Some(q) = &qualifier {
                if self.qualifiers[i].as_deref() != Some(q.as_str()) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(DbError::analysis(format!("ambiguous column reference '{name}'")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            let full = match &qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            };
            DbError::analysis(format!("unknown column '{full}'"))
        })
    }

    /// Like [`Schema::resolve`], but a missing column is `Ok(None)` while
    /// ambiguity is still an error. Used by scoped name resolution, where a
    /// miss falls through to outer scopes.
    pub fn resolve_opt(&self, qualifier: Option<&str>, name: &str) -> DbResult<Option<usize>> {
        let name = name.to_ascii_uppercase();
        let qualifier = qualifier.map(|q| q.to_ascii_uppercase());
        let mut found: Option<usize> = None;
        for (i, col) in self.columns.iter().enumerate() {
            if col.name != name {
                continue;
            }
            if let Some(q) = &qualifier {
                if self.qualifiers[i].as_deref() != Some(q.as_str()) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(DbError::analysis(format!("ambiguous column reference '{name}'")));
            }
            found = Some(i);
        }
        Ok(found)
    }

    /// Look up by name without error (used by the optimizer).
    pub fn try_resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.resolve(qualifier, name).ok()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if let Some(q) = &self.qualifiers[i] {
                write!(f, "{q}.")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

/// A row of values. Rows are reference-counted internally where sharing
/// matters (hash join build sides); the public type is a plain vector for
/// ergonomic construction.
pub type Row = Vec<Value>;

/// Validate and coerce a row against a schema (INSERT path).
pub fn coerce_row(schema: &Schema, row: &[Value]) -> DbResult<Row> {
    if row.len() != schema.len() {
        return Err(DbError::execution(format!(
            "row has {} values, table has {} columns",
            row.len(),
            schema.len()
        )));
    }
    let mut out = Vec::with_capacity(row.len());
    for (v, c) in row.iter().zip(schema.columns()) {
        if v.is_null() {
            if !c.nullable {
                return Err(DbError::constraint(format!("column {} is NOT NULL", c.name)));
            }
            out.push(Value::Null);
        } else {
            out.push(
                v.coerce_to(&c.ty)
                    .map_err(|e| DbError::execution(format!("column {}: {e}", c.name)))?,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::qualified(
            vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("name", DataType::VarChar(20)),
                Column::new("price", DataType::Decimal { precision: 10, scale: 2 }),
            ],
            "items",
        )
    }

    #[test]
    fn resolve_by_name_and_qualifier() {
        let s = sample();
        assert_eq!(s.resolve(None, "id").unwrap(), 0);
        assert_eq!(s.resolve(Some("items"), "name").unwrap(), 1);
        assert_eq!(s.resolve(Some("ITEMS"), "NAME").unwrap(), 1);
        assert!(s.resolve(Some("other"), "id").is_err());
        assert!(s.resolve(None, "missing").is_err());
    }

    #[test]
    fn resolve_detects_ambiguity() {
        let joined = sample().join(&sample().with_qualifier("i2"));
        assert!(joined.resolve(None, "id").is_err());
        assert_eq!(joined.resolve(Some("items"), "id").unwrap(), 0);
        assert_eq!(joined.resolve(Some("i2"), "id").unwrap(), 3);
    }

    #[test]
    fn join_concatenates() {
        let j = sample().join(&sample().with_qualifier("b"));
        assert_eq!(j.len(), 6);
        assert_eq!(j.qualifier(0), Some("ITEMS"));
        assert_eq!(j.qualifier(3), Some("B"));
    }

    #[test]
    fn coerce_row_checks_arity_nullability_types() {
        let s = sample();
        assert!(coerce_row(&s, &[Value::Int(1)]).is_err());
        assert!(coerce_row(&s, &[Value::Null, Value::Null, Value::Null]).is_err());
        let ok = coerce_row(&s, &[Value::Int(1), Value::str("x"), Value::Int(3)]).unwrap();
        assert_eq!(ok[2].to_string(), "3.00");
    }

    #[test]
    fn column_names_uppercased() {
        let c = Column::new("l_shipdate", DataType::Date);
        assert_eq!(c.name, "L_SHIPDATE");
    }
}
