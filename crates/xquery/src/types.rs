//! Sequence types: the sliver of XQuery's "extensive, almost baroque, type
//! system" that the paper's project actually touched.
//!
//! The paper ran Galax in *untyped mode* — nodes atomize to
//! `xs:untypedAtomic` and nothing is validated against a schema — but the
//! team "made the mistake of trying to put type annotations on some utility
//! functions", whereupon "types rapidly metastatize". This module provides
//! what that experiment needs: sequence types with occurrence indicators,
//! `instance of`, `cast as`, and runtime checking of annotated function
//! signatures. Experiment E8 measures the metastasis over the shipped
//! XQuery sources.

use crate::error::{Error, ErrorCode, Result};
use crate::value::{Atomic, Item, Sequence};
use std::fmt;
use xmlstore::{NodeKind, Store};

/// Occurrence indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// exactly one
    One,
    /// `?`
    ZeroOrOne,
    /// `*`
    ZeroOrMore,
    /// `+`
    OneOrMore,
}

impl Occurrence {
    pub fn accepts(self, len: usize) -> bool {
        match self {
            Occurrence::One => len == 1,
            Occurrence::ZeroOrOne => len <= 1,
            Occurrence::ZeroOrMore => true,
            Occurrence::OneOrMore => len >= 1,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::ZeroOrOne => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        }
    }
}

/// Atomic types the engine knows. The real XML Schema list has twenty-three
/// primitive types; the project "never used anything but strings, numbers,
/// and booleans", which is what we carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicType {
    String,
    Integer,
    Double,
    Boolean,
    UntypedAtomic,
    AnyAtomic,
}

impl AtomicType {
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::String => "xs:string",
            AtomicType::Integer => "xs:integer",
            AtomicType::Double => "xs:double",
            AtomicType::Boolean => "xs:boolean",
            AtomicType::UntypedAtomic => "xs:untypedAtomic",
            AtomicType::AnyAtomic => "xs:anyAtomicType",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        let local = name.strip_prefix("xs:").unwrap_or(name);
        Some(match local {
            "string" => AtomicType::String,
            "integer" | "int" | "long" | "nonNegativeInteger" | "positiveInteger" => {
                AtomicType::Integer
            }
            "double" | "decimal" | "float" => AtomicType::Double,
            "boolean" => AtomicType::Boolean,
            "untypedAtomic" => AtomicType::UntypedAtomic,
            "anyAtomicType" | "anySimpleType" => AtomicType::AnyAtomic,
            _ => return None,
        })
    }

    fn matches(self, a: &Atomic) -> bool {
        match (self, a) {
            (AtomicType::AnyAtomic, _) => true,
            (AtomicType::String, Atomic::Str(_)) => true,
            (AtomicType::Integer, Atomic::Int(_)) => true,
            // xs:integer is (for our purposes) a subtype of xs:double.
            (AtomicType::Double, Atomic::Dbl(_) | Atomic::Int(_)) => true,
            (AtomicType::Boolean, Atomic::Bool(_)) => true,
            (AtomicType::UntypedAtomic, Atomic::Untyped(_)) => true,
            _ => false,
        }
    }
}

/// Item types.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemType {
    /// `item()`
    AnyItem,
    /// `node()`
    AnyNode,
    /// `element()` / `element(name)`
    Element(Option<String>),
    /// `attribute()` / `attribute(name)`
    Attribute(Option<String>),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `document-node()`
    Document,
    /// an atomic type
    Atomic(AtomicType),
}

impl ItemType {
    pub fn matches(&self, item: &Item, store: &Store) -> bool {
        match (self, item) {
            (ItemType::AnyItem, _) => true,
            (ItemType::Atomic(t), Item::Atomic(a)) => t.matches(a),
            (ItemType::Atomic(_), Item::Node(_)) => false,
            (_, Item::Atomic(_)) => false,
            (ItemType::AnyNode, Item::Node(_)) => true,
            (ItemType::Element(name), Item::Node(n)) => match store.kind(*n) {
                NodeKind::Element(q) => name.as_deref().is_none_or(|want| q.display_is(want)),
                _ => false,
            },
            (ItemType::Attribute(name), Item::Node(n)) => match store.kind(*n) {
                NodeKind::Attribute(q, _) => name.as_deref().is_none_or(|want| q.display_is(want)),
                _ => false,
            },
            (ItemType::Text, Item::Node(n)) => matches!(store.kind(*n), NodeKind::Text(_)),
            (ItemType::Comment, Item::Node(n)) => matches!(store.kind(*n), NodeKind::Comment(_)),
            (ItemType::Pi, Item::Node(n)) => matches!(store.kind(*n), NodeKind::Pi(..)),
            (ItemType::Document, Item::Node(n)) => matches!(store.kind(*n), NodeKind::Document),
        }
    }
}

impl fmt::Display for ItemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemType::AnyItem => f.write_str("item()"),
            ItemType::AnyNode => f.write_str("node()"),
            ItemType::Element(None) => f.write_str("element()"),
            ItemType::Element(Some(n)) => write!(f, "element({n})"),
            ItemType::Attribute(None) => f.write_str("attribute()"),
            ItemType::Attribute(Some(n)) => write!(f, "attribute({n})"),
            ItemType::Text => f.write_str("text()"),
            ItemType::Comment => f.write_str("comment()"),
            ItemType::Pi => f.write_str("processing-instruction()"),
            ItemType::Document => f.write_str("document-node()"),
            ItemType::Atomic(t) => f.write_str(t.name()),
        }
    }
}

/// A sequence type: item type plus occurrence, or `empty-sequence()`.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqType {
    Empty,
    Of(ItemType, Occurrence),
}

impl SeqType {
    /// `item()*` — matches anything.
    pub fn any() -> Self {
        SeqType::Of(ItemType::AnyItem, Occurrence::ZeroOrMore)
    }

    /// Does `seq` conform?
    pub fn matches(&self, seq: &Sequence, store: &Store) -> bool {
        match self {
            SeqType::Empty => seq.is_empty(),
            SeqType::Of(item_ty, occ) => {
                occ.accepts(seq.len()) && seq.iter().all(|i| item_ty.matches(i, store))
            }
        }
    }

    /// Checks `seq` against this type, producing the engine's standard
    /// `XPTY0004` diagnostic on mismatch.
    pub fn check(&self, seq: &Sequence, store: &Store, what: &str) -> Result<()> {
        if self.matches(seq, store) {
            Ok(())
        } else {
            Err(Error::new(
                ErrorCode::XPTY0004,
                format!(
                    "{what}: expected {self}, got a sequence of {} item(s)",
                    seq.len()
                ),
            ))
        }
    }
}

impl fmt::Display for SeqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqType::Empty => f.write_str("empty-sequence()"),
            SeqType::Of(item, occ) => write!(f, "{item}{}", occ.suffix()),
        }
    }
}

/// `cast as` for atomic targets. Node items are atomized by the caller.
pub fn cast_atomic(value: &Atomic, target: AtomicType) -> Result<Atomic> {
    let fail = || {
        Error::new(
            ErrorCode::FORG0001,
            format!(
                "cannot cast {} ({}) to {}",
                value.to_text(),
                value.type_name(),
                target.name()
            ),
        )
    };
    Ok(match target {
        AtomicType::String => Atomic::Str(value.to_text().into()),
        AtomicType::UntypedAtomic => Atomic::Untyped(value.to_text().into()),
        AtomicType::AnyAtomic => value.clone(),
        AtomicType::Integer => match value {
            Atomic::Int(i) => Atomic::Int(*i),
            Atomic::Dbl(d) if d.is_finite() => Atomic::Int(*d as i64),
            Atomic::Bool(b) => Atomic::Int(i64::from(*b)),
            Atomic::Str(s) | Atomic::Untyped(s) => {
                Atomic::Int(s.trim().parse::<i64>().map_err(|_| fail())?)
            }
            _ => return Err(fail()),
        },
        AtomicType::Double => match value {
            Atomic::Int(i) => Atomic::Dbl(*i as f64),
            Atomic::Dbl(d) => Atomic::Dbl(*d),
            Atomic::Bool(b) => Atomic::Dbl(if *b { 1.0 } else { 0.0 }),
            Atomic::Str(s) | Atomic::Untyped(s) => {
                Atomic::Dbl(s.trim().parse::<f64>().map_err(|_| fail())?)
            }
        },
        AtomicType::Boolean => match value {
            Atomic::Bool(b) => Atomic::Bool(*b),
            Atomic::Int(i) => Atomic::Bool(*i != 0),
            Atomic::Dbl(d) => Atomic::Bool(*d != 0.0 && !d.is_nan()),
            Atomic::Str(s) | Atomic::Untyped(s) => match s.trim() {
                "true" | "1" => Atomic::Bool(true),
                "false" | "0" => Atomic::Bool(false),
                _ => return Err(fail()),
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new()
    }

    #[test]
    fn occurrence_rules() {
        assert!(Occurrence::One.accepts(1));
        assert!(!Occurrence::One.accepts(0));
        assert!(Occurrence::ZeroOrOne.accepts(0));
        assert!(!Occurrence::ZeroOrOne.accepts(2));
        assert!(Occurrence::ZeroOrMore.accepts(17));
        assert!(!Occurrence::OneOrMore.accepts(0));
    }

    #[test]
    fn atomic_matching_with_integer_under_double() {
        assert!(AtomicType::Double.matches(&Atomic::Int(3)));
        assert!(!AtomicType::Integer.matches(&Atomic::Dbl(3.0)));
        assert!(AtomicType::AnyAtomic.matches(&Atomic::Untyped("x".into())));
        assert!(!AtomicType::String.matches(&Atomic::Untyped("x".into())));
    }

    #[test]
    fn seq_type_matches_nodes() {
        let mut s = store();
        let el = s.create_element("book").unwrap();
        let attr = s.create_attribute("year", "1983").unwrap();
        let el_item = Item::Node(el);
        let at_item = Item::Node(attr);
        assert!(ItemType::Element(None).matches(&el_item, &s));
        assert!(ItemType::Element(Some("book".into())).matches(&el_item, &s));
        assert!(!ItemType::Element(Some("pamphlet".into())).matches(&el_item, &s));
        assert!(ItemType::Attribute(None).matches(&at_item, &s));
        assert!(ItemType::AnyNode.matches(&at_item, &s));
        assert!(!ItemType::Element(None).matches(&at_item, &s));
    }

    #[test]
    fn seq_type_check_reports_xpty0004() {
        let s = store();
        let ty = SeqType::Of(ItemType::Atomic(AtomicType::String), Occurrence::One);
        let seq: Sequence = vec![Item::integer(1), Item::integer(2)]
            .into_iter()
            .collect();
        let err = ty.check(&seq, &s, "argument $x").unwrap_err();
        assert_eq!(err.code, ErrorCode::XPTY0004);
        assert!(err.message.contains("argument $x"), "{}", err.message);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SeqType::any().to_string(), "item()*");
        assert_eq!(
            SeqType::Of(ItemType::Atomic(AtomicType::String), Occurrence::ZeroOrOne).to_string(),
            "xs:string?"
        );
        assert_eq!(SeqType::Empty.to_string(), "empty-sequence()");
    }

    #[test]
    fn casts() {
        assert_eq!(
            cast_atomic(&Atomic::Str("42".into()), AtomicType::Integer).unwrap(),
            Atomic::Int(42)
        );
        assert_eq!(
            cast_atomic(&Atomic::Int(1), AtomicType::Boolean).unwrap(),
            Atomic::Bool(true)
        );
        assert_eq!(
            cast_atomic(&Atomic::Untyped("2.5".into()), AtomicType::Double).unwrap(),
            Atomic::Dbl(2.5)
        );
        assert!(cast_atomic(&Atomic::Str("pony".into()), AtomicType::Integer).is_err());
        assert_eq!(
            cast_atomic(&Atomic::Bool(false), AtomicType::String).unwrap(),
            Atomic::Str("false".into())
        );
    }

    #[test]
    fn from_name_accepts_schema_zoo() {
        // "twenty-three primitive types" — the aliases we fold together.
        assert_eq!(
            AtomicType::from_name("xs:nonNegativeInteger"),
            Some(AtomicType::Integer)
        );
        assert_eq!(
            AtomicType::from_name("xs:decimal"),
            Some(AtomicType::Double)
        );
        assert_eq!(AtomicType::from_name("xs:duration"), None);
    }
}
