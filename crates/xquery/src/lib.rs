//! # xquery — a from-scratch XQuery interpreter
//!
//! This crate implements the XQuery subset that the SIGMOD 2005 paper
//! *"Lopsided Little Languages: Experience with XQuery in a Document
//! Generation Subsystem"* exercised on Galax, with exactly the semantics the
//! paper analyses:
//!
//! * **flat sequences** — `(1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7)`,
//!   with all internal sequence structure washed out;
//! * **attribute nodes as values** — `attribute troubles {1}` yields a
//!   detached attribute node that *folds into* a constructed element when it
//!   appears before any other content, and raises an error after content;
//! * **existential general comparison** — `1 = (1,2,3)` is true, while the
//!   singleton operators (`eq`, `lt`, …) demand singletons;
//! * the **syntactic quirks** catalogued by the paper: `$`-prefixed
//!   variables, bare names as child steps, dashes inside names (`$n-1` is a
//!   variable with a three-letter name), `div` for division;
//! * `fn:error` and `fn:trace`, together with an **optimizer whose dead-code
//!   elimination deletes `trace` calls** when Galax-compatibility quirks are
//!   enabled — the paper's debugging catastrophe, reproducible on demand.
//!
//! The public entry point is [`Engine`].
//!
//! ```
//! use xquery::Engine;
//!
//! let mut engine = Engine::new();
//! let out = engine.evaluate_str("for $i in (1, 2, 3) return $i * 10", None).unwrap();
//! assert_eq!(engine.display_sequence(&out), "10 20 30");
//! ```

pub mod ast;
pub mod compare;
pub mod context;
pub mod cursor;
pub mod engine;
pub mod error;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod lopt;
pub mod lower;
pub mod obs;
pub mod optimizer;
pub mod parser;
pub mod run;
pub mod static_typing;
pub mod types;
pub mod value;

pub use engine::{CompiledQuery, DupAttrPolicy, Engine, EngineOptions, StackPool};
pub use error::{Error, ErrorCode};
pub use obs::{EvalStats, PoolTiming, ReuseStats, TraceEvent, TraceSink};
pub use value::{Atomic, Item, Sequence};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests_paper;
