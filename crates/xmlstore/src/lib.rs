//! # xmlstore — an arena-based XML document store
//!
//! This crate is the XML substrate for the *Lopsided Little Languages*
//! reproduction. It provides, from scratch (no external XML crates):
//!
//! * an arena [`Store`] holding any number of XML trees addressed by
//!   [`NodeId`], with **attribute nodes as first-class nodes** (the XQuery
//!   data model the paper exercises requires detached attribute nodes),
//! * an XML 1.0 [`parser`] with position-carrying errors,
//! * a [`serializer`] (compact and pretty),
//! * a mutation API (append/insert/remove/replace, text splitting) used by
//!   the "Java rewrite" document generator,
//! * document-order comparison and ancestry/descendant iteration, on which
//!   the XQuery engine's axes are built.
//!
//! ## Example
//!
//! ```
//! use xmlstore::{Store, parser::ParseOptions};
//!
//! let mut store = Store::new();
//! let doc = store
//!     .parse_str("<book year='2005'><title>Lopsided</title></book>", &ParseOptions::default())
//!     .unwrap();
//! let root = store.document_element(doc).unwrap();
//! assert_eq!(store.name(root).unwrap().local(), "book");
//! assert_eq!(store.string_value(root), "Lopsided");
//! ```

pub mod error;
mod frozen;
pub mod parser;
pub mod qname;
pub mod serializer;
pub mod store;
pub mod sym;

pub use error::{XmlError, XmlErrorKind};
pub use frozen::TreeSnapshot;
pub use qname::QName;
pub use store::{Descendants, NameSpan, NodeId, NodeKind, OrderKey, Store, StoreStats};
pub use sym::{intern, Sym};

#[cfg(test)]
mod proptests;
