//! Qualified names.
//!
//! The paper's workloads use namespaces only incidentally (the `glx:` prefix
//! appears in Galax error messages, `fn:`/`xs:` in XQuery), so a [`QName`]
//! keeps its prefix *literally* rather than resolving it against namespace
//! declarations. Two names are equal iff prefix and local part are equal.

use crate::sym::{intern, Sym};
use std::fmt;

/// A qualified XML name: optional prefix plus local part, both interned.
/// Equality and hashing are integer operations on the symbols, and the type
/// is `Copy` — cloning a name costs nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct QName {
    prefix: Option<Sym>,
    local: Sym,
}

impl QName {
    /// Creates a name with no prefix.
    pub fn unprefixed(local: impl AsRef<str>) -> Self {
        QName {
            prefix: None,
            local: intern(local.as_ref()),
        }
    }

    /// Creates a prefixed name.
    pub fn prefixed(prefix: impl AsRef<str>, local: impl AsRef<str>) -> Self {
        QName {
            prefix: Some(intern(prefix.as_ref())),
            local: intern(local.as_ref()),
        }
    }

    /// Parses `prefix:local` or `local`. Returns `None` for malformed input
    /// (empty parts, more than one colon).
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let first = parts.next()?;
        match (parts.next(), parts.next()) {
            (None, _) if !first.is_empty() => Some(QName::unprefixed(first)),
            (Some(local), None) if !first.is_empty() && !local.is_empty() => {
                Some(QName::prefixed(first, local))
            }
            _ => None,
        }
    }

    /// The prefix, if any.
    pub fn prefix(&self) -> Option<&'static str> {
        self.prefix.map(Sym::as_str)
    }

    /// The prefix symbol, if any.
    pub fn prefix_sym(&self) -> Option<Sym> {
        self.prefix
    }

    /// Convenience alias used throughout the workspace.
    pub fn local(&self) -> &'static str {
        self.local.as_str()
    }

    /// The local-part symbol.
    pub fn local_sym(&self) -> Sym {
        self.local
    }

    /// `true` when the local part (ignoring prefix) equals `s`.
    pub fn has_local(&self, s: &str) -> bool {
        self.local.as_str() == s
    }

    /// `true` when the displayed form (`prefix:local` or `local`) equals
    /// `s`, without allocating.
    pub fn display_is(&self, s: &str) -> bool {
        match self.prefix {
            None => self.local.as_str() == s,
            Some(p) => {
                let (pfx, loc) = (p.as_str(), self.local.as_str());
                s.len() == pfx.len() + 1 + loc.len()
                    && s.starts_with(pfx)
                    && s.as_bytes()[pfx.len()] == b':'
                    && s.ends_with(loc)
            }
        }
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordering compares resolved text (prefix first, then local part), matching
/// the pre-interning derive on `(Option<Box<str>>, Box<str>)`.
impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let self_prefix = self.prefix.map(Sym::as_str);
        let other_prefix = other.prefix.map(Sym::as_str);
        self_prefix
            .cmp(&other_prefix)
            .then_with(|| self.local.as_str().cmp(other.local.as_str()))
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QName({self})")
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => f.write_str(self.local.as_str()),
        }
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::parse(s).unwrap_or_else(|| QName::unprefixed(s))
    }
}

/// Is `c` acceptable as the first character of an XML name?
///
/// This is a pragmatic subset of the XML 1.0 `NameStartChar` production:
/// ASCII letters, `_`, and any non-ASCII character.
pub fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || !c.is_ascii()
}

/// Is `c` acceptable as a continuation character of an XML name?
///
/// Includes `-` and `.` — the dash being the source of the paper's
/// "`$n-1` is a variable with a three-letter name" quirk.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

/// Is `s` a well-formed NCName (no colon)?
pub fn is_ncname(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => chars.all(is_name_char),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_name_roundtrip() {
        let q = QName::unprefixed("book");
        assert_eq!(q.to_string(), "book");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local(), "book");
    }

    #[test]
    fn prefixed_name_roundtrip() {
        let q = QName::prefixed("glx", "dot");
        assert_eq!(q.to_string(), "glx:dot");
        assert_eq!(q.prefix(), Some("glx"));
        assert_eq!(q.local(), "dot");
    }

    #[test]
    fn parse_accepts_one_colon() {
        assert_eq!(QName::parse("a:b"), Some(QName::prefixed("a", "b")));
        assert_eq!(QName::parse("ab"), Some(QName::unprefixed("ab")));
        assert_eq!(QName::parse("a:b:c"), None);
        assert_eq!(QName::parse(":b"), None);
        assert_eq!(QName::parse("a:"), None);
        assert_eq!(QName::parse(""), None);
    }

    #[test]
    fn names_with_dashes_are_one_name() {
        assert!(is_ncname("n-1"));
        assert!(is_ncname("without-leading-or-trailing-spaces"));
        assert!(!is_ncname("1n"));
        assert!(!is_ncname("-n"));
    }

    #[test]
    fn equality_is_literal_on_prefix() {
        assert_ne!(QName::prefixed("a", "x"), QName::prefixed("b", "x"));
        assert_ne!(QName::prefixed("a", "x"), QName::unprefixed("x"));
    }
}
