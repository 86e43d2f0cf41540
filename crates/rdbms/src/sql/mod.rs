//! SQL front-end: lexer, parser, AST.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{
    AggFunc, BinOp, ColumnDef, Expr, IntervalUnit, JoinKind, OrderItem, SelectItem, SelectStmt,
    Statement, StatementId, TableRef, UnaryOp,
};
pub use parser::{parse_query, parse_statement};
