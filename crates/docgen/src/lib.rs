//! # docgen — the AWB document-generation subsystem, twice
//!
//! "The document generator is, of course, designed to produce documents
//! involving boilerplate text and information extracted from the AWB model.
//! Its main input is a template, in XML."
//!
//! This crate contains **both implementations the paper describes**:
//!
//! * [`native`] — the "Java rewrite": a recursive walk dispatching on tag
//!   names, a [`trouble::GenTrouble`] error type carried by `Result` (Rust's
//!   stand-in for Java's checked exceptions — "we could get away with not
//!   checking for errors except at the highest level"), mutable state for
//!   the table of contents and the visited-node set, and skeleton-then-fill
//!   table construction.
//! * [`xq`] — the original architecture: the same template language
//!   implemented as **XQuery programs** (shipped `.xq` sources under
//!   `src/xq/`), run by this workspace's engine in **five phases** that each
//!   copy the entire document, communicating through `<INTERNAL-DATA>`
//!   elements; error handling via the error-value convention.
//!
//! The two engines accept the same templates and are held to byte-identical
//! output on clean models (experiment E7); their relative costs are
//! experiments E2/E3/E5/E6.
//!
//! ## The template language
//!
//! A template is XML. Non-directive elements and text pass through; the
//! directives are:
//!
//! | directive | meaning |
//! |---|---|
//! | `<for nodes="all.T">body</for>` | generate `body` once per node of type `T` (focus set) |
//! | `<for><query>…</query>body</for>` | iterate a calculus query result |
//! | `<if><test><focus-is-type type="T"/></test><then>…</then><else>…</else></if>` | conditional |
//! | `<label/>` | label of the focus node |
//! | `<value-of property="p" default="d"?/>` | property of the focus (error when absent and no default) |
//! | `<section heading="H">body</section>` | numbered section + table-of-contents entry |
//! | `<table-of-contents/>` | inserted table of contents |
//! | `<table-of-omissions types="T,U"/>` | nodes of those types never focused |
//! | `<awb-table rows="all.R" cols="all.C" relation="rel" corner="…"/>` | the row/col relation table |
//! | `<list><query>…</query></list>` | `<ul>` of query-result labels |
//! | `<marker-content marker="M">body</marker-content>` | generate `body`, splice it wherever the text `M` appears |

pub mod report;
pub mod template;
pub mod trouble;

pub mod batch;
pub mod native;
pub mod xq;

#[cfg(test)]
mod testgen;

pub use native::{EditFootprint, IncrementalDoc};
pub use report::normalized_equal;
pub use template::Template;
pub use trouble::GenTrouble;

/// Everything a generation run needs: the model, its metamodel, and the
/// parsed template.
pub struct GenInputs<'a> {
    pub model: &'a awb::Model,
    pub meta: &'a awb::Metamodel,
    pub template: &'a Template,
}
