//! Static and dynamic evaluation context.
//!
//! Deliberately free of observability state: the per-query counter block
//! ([`crate::obs::EvalStats`]) and the trace sink ride in the run/eval
//! environments, not here, so the context stays a pure (variables, focus)
//! pair that both engines share unchanged and a pooled worker can build
//! without touching the engine.

use crate::ast::FunctionDecl;
use crate::error::{Error, ErrorCode, Result};
use crate::value::{Item, Sequence};
use std::collections::HashMap;
use std::sync::Arc;

/// The focus: context item, position, and size (`.`, `position()`, `last()`).
#[derive(Debug, Clone)]
pub struct Focus {
    pub item: Item,
    pub position: usize,
    pub size: usize,
}

/// A lexically scoped variable stack. Scopes are cheap (an index into one
/// vector); shadowing works by pushing and searching from the top.
#[derive(Debug, Default)]
pub struct VarStack {
    entries: Vec<(String, Arc<Sequence>)>,
}

/// A handle that pops everything pushed after it was taken.
#[derive(Debug, Clone, Copy)]
pub struct ScopeMark(usize);

impl VarStack {
    pub fn new() -> Self {
        VarStack::default()
    }

    pub fn mark(&self) -> ScopeMark {
        ScopeMark(self.entries.len())
    }

    pub fn pop_to(&mut self, mark: ScopeMark) {
        self.entries.truncate(mark.0);
    }

    pub fn bind(&mut self, name: impl Into<String>, value: Sequence) {
        self.entries.push((name.into(), Arc::new(value)));
    }

    pub fn lookup(&self, name: &str) -> Option<&Arc<Sequence>> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// The dynamic context threaded through evaluation.
#[derive(Debug, Default)]
pub struct DynamicContext {
    pub vars: VarStack,
    pub focus: Option<Focus>,
}

impl DynamicContext {
    pub fn new() -> Self {
        DynamicContext::default()
    }

    /// The context item, or the engine's (possibly Galax-flavoured)
    /// "undefined context item" error.
    pub fn context_item(&self, galax_quirks: bool, position: (u32, u32)) -> Result<&Item> {
        match &self.focus {
            Some(f) => Ok(&f.item),
            None if galax_quirks => {
                // Reproduces the error the paper quotes — no position, and
                // phrased in terms of the compiler-internal variable that
                // stands for ".". "It would have been helpful to have a line
                // number in this message."
                Err(Error::new(
                    ErrorCode::Internal,
                    "Internal_Error: Variable '$glx:dot' not found.",
                ))
            }
            None => Err(
                Error::new(ErrorCode::XPDY0002, "the context item is undefined")
                    .at(position.0, position.1),
            ),
        }
    }
}

/// The static context: declared functions keyed by (name, arity), plus
/// global variable declarations evaluated at query start.
#[derive(Debug, Default, Clone)]
pub struct StaticContext {
    pub functions: HashMap<(String, usize), Arc<FunctionDecl>>,
}

impl StaticContext {
    pub fn declare(&mut self, decl: FunctionDecl) -> Result<()> {
        let key = (decl.name.clone(), decl.params.len());
        if self.functions.contains_key(&key) {
            return Err(Error::new(
                ErrorCode::XPST0017,
                format!("function {}#{} declared twice", key.0, key.1),
            ));
        }
        self.functions.insert(key, Arc::new(decl));
        Ok(())
    }

    pub fn lookup(&self, name: &str, arity: usize) -> Option<&Arc<FunctionDecl>> {
        self.functions.get(&(name.to_string(), arity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_and_scope_pop() {
        let mut vars = VarStack::new();
        vars.bind("x", Sequence::singleton(Item::integer(1)));
        let mark = vars.mark();
        vars.bind("x", Sequence::singleton(Item::integer(2)));
        assert_eq!(
            vars.lookup("x").unwrap().as_singleton(),
            Some(&Item::integer(2))
        );
        vars.pop_to(mark);
        assert_eq!(
            vars.lookup("x").unwrap().as_singleton(),
            Some(&Item::integer(1))
        );
        assert!(vars.lookup("y").is_none());
    }

    #[test]
    fn galax_context_item_message_verbatim() {
        let ctx = DynamicContext::new();
        let err = ctx.context_item(true, (9, 9)).unwrap_err();
        assert_eq!(
            err.message,
            "Internal_Error: Variable '$glx:dot' not found."
        );
        assert!(err.position.is_none(), "Galax gave no line number");
    }

    #[test]
    fn standard_context_item_error_has_position() {
        let ctx = DynamicContext::new();
        let err = ctx.context_item(false, (3, 14)).unwrap_err();
        assert_eq!(err.code, ErrorCode::XPDY0002);
        assert_eq!(err.position, Some((3, 14)));
    }

    #[test]
    fn duplicate_function_declaration_rejected() {
        let mut sc = StaticContext::default();
        let decl = FunctionDecl {
            name: "local:f".into(),
            params: vec![],
            return_type: None,
            body: crate::ast::Expr::Literal(crate::value::Atomic::Int(1)),
            position: (1, 1),
        };
        sc.declare(decl.clone()).unwrap();
        assert!(sc.declare(decl).is_err());
        assert!(sc.lookup("local:f", 0).is_some());
        assert!(sc.lookup("local:f", 1).is_none());
    }
}
