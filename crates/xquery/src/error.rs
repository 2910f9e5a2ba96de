//! Evaluation and compilation errors.
//!
//! Error codes follow the W3C naming the working drafts introduced
//! (`XPST…` static, `XPDY…`/`XQDY…` dynamic, `FO…` function/operator). The
//! paper's complaint that Galax reported *"Internal_Error: Variable
//! '$glx:dot' not found."* for an undefined context item — with no line
//! number — is reproducible by turning on
//! [`EngineOptions::galax_quirks`](crate::EngineOptions).

use crate::value::Sequence;
use std::fmt;

/// Machine-readable error codes (W3C style plus engine-internal ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Static: syntax error.
    XPST0003,
    /// Static: undefined variable.
    XPST0008,
    /// Static: undefined function (name/arity).
    XPST0017,
    /// Dynamic: context item undefined.
    XPDY0002,
    /// Dynamic/type: operand has the wrong (sequence) type.
    XPTY0004,
    /// Path step produced a non-node where nodes were required.
    XPTY0019,
    /// Constructed element has two attributes with the same name.
    XQDY0025,
    /// Attribute node encountered after non-attribute content.
    XQTY0024,
    /// `fn:error` was called (user-raised).
    FOER0000,
    /// Invalid argument to a function (e.g. bad cast source).
    FORG0001,
    /// Effective boolean value undefined for the operand.
    FORG0006,
    /// fn:zero-or-one / fn:exactly-one / fn:one-or-more cardinality failure.
    FORG0004,
    /// Division by zero.
    FOAR0001,
    /// Engine limitation or internal invariant failure.
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::XPST0003 => "XPST0003",
            ErrorCode::XPST0008 => "XPST0008",
            ErrorCode::XPST0017 => "XPST0017",
            ErrorCode::XPDY0002 => "XPDY0002",
            ErrorCode::XPTY0004 => "XPTY0004",
            ErrorCode::XPTY0019 => "XPTY0019",
            ErrorCode::XQDY0025 => "XQDY0025",
            ErrorCode::XQTY0024 => "XQTY0024",
            ErrorCode::FOER0000 => "FOER0000",
            ErrorCode::FORG0001 => "FORG0001",
            ErrorCode::FORG0006 => "FORG0006",
            ErrorCode::FORG0004 => "FORG0004",
            ErrorCode::FOAR0001 => "FOAR0001",
            ErrorCode::Internal => "LOPS0000",
        };
        f.write_str(s)
    }
}

/// An XQuery error: code, message, optional source position, and — for
/// `fn:error($value)` — the user-supplied value.
#[derive(Debug, Clone)]
pub struct Error {
    pub code: ErrorCode,
    pub message: String,
    /// 1-based line/column of the originating token, when known. Galax-quirk
    /// errors deliberately discard this ("It would have been helpful to have
    /// a line number in this message").
    pub position: Option<(u32, u32)>,
    /// The value passed to `fn:error`, if any.
    pub value: Option<Sequence>,
}

impl Error {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Error {
            code,
            message: message.into(),
            position: None,
            value: None,
        }
    }

    pub fn at(mut self, line: u32, column: u32) -> Self {
        self.position = Some((line, column));
        self
    }

    /// Attaches a position only when none is recorded yet — used by call
    /// sites that know the call position but must not clobber a more
    /// precise position set deeper in the expression (and must leave
    /// Galax-quirk errors, which deliberately have none, alone — callers
    /// guard on [`ErrorCode::Internal`] for that).
    pub fn at_if_unset(mut self, line: u32, column: u32) -> Self {
        if self.position.is_none() {
            self.position = Some((line, column));
        }
        self
    }

    pub fn with_value(mut self, value: Sequence) -> Self {
        self.value = Some(value);
        self
    }

    /// Syntax error helper.
    pub fn syntax(message: impl Into<String>, line: u32, column: u32) -> Self {
        Error::new(ErrorCode::XPST0003, message).at(line, column)
    }

    /// Internal invariant failure.
    pub fn internal(message: impl Into<String>) -> Self {
        Error::new(ErrorCode::Internal, message)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if let Some((line, column)) = self.position {
            write!(f, " (line {line}, column {column})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// Convenient result alias for the whole crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_position() {
        let e = Error::syntax("expected ')'", 4, 12);
        assert_eq!(e.to_string(), "[XPST0003] expected ')' (line 4, column 12)");
    }

    #[test]
    fn display_without_position() {
        let e = Error::new(ErrorCode::XPDY0002, "context item undefined");
        assert_eq!(e.to_string(), "[XPDY0002] context item undefined");
    }

    #[test]
    fn codes_render_w3c_names() {
        assert_eq!(ErrorCode::XQTY0024.to_string(), "XQTY0024");
        assert_eq!(ErrorCode::Internal.to_string(), "LOPS0000");
    }
}
