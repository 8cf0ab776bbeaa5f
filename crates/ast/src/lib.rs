//! The MaJIC MATLAB frontend: lexer, parser and abstract syntax tree.
//!
//! The first pass of the MaJIC compiler (paper Figure 1, pass 1) is a
//! scanner/parser that transforms MATLAB source into an abstract syntax
//! tree. This crate implements that pass for the MATLAB subset exercised by
//! the paper's benchmarks: functions with multiple return values, `for` /
//! `while` / `if` control flow, matrix literals, colon ranges, `end`
//! subscripts, complex literals, element-wise and matrix operators, and
//! command-syntax `clear` / `global`.
//!
//! Every expression node carries a unique [`NodeId`]; later passes
//! (disambiguation, type inference, code selection) attach their results in
//! side tables indexed by it.
//!
//! # Examples
//!
//! ```
//! use majic_ast::parse_source;
//!
//! let src = "function p = poly(x)\np = x.^5 + 3*x + 2;\n";
//! let file = parse_source(src).unwrap();
//! assert_eq!(file.functions[0].name, "poly");
//! assert_eq!(file.functions[0].params, ["x"]);
//! ```

mod ast;
mod display;
mod error;
mod lexer;
mod parser;
mod token;

pub use ast::{
    walk_exprs, walk_stmts, BinOp, Expr, ExprKind, Function, LValue, NodeId, SourceFile, Stmt,
    StmtKind, UnOp,
};
pub use error::ParseError;
pub use lexer::Lexer;
pub use parser::{parse_expression, parse_source, parse_statements, Parser};
pub use token::{Span, Token, TokenKind};
