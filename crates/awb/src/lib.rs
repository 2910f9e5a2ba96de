//! # awb — the Architect's Workbench substrate
//!
//! The paper's document generator consumed data exported by AWB, "a device
//! for collecting, maintaining, and documenting the multifarious and
//! barely-structured information required for producing an IT architecture".
//! This crate rebuilds everything the generator depended on:
//!
//! * the **metamodel** ([`meta`]): single-inheritance node types with
//!   scalar-typed properties, hierarchically typed relations, and
//!   *suggestive* (never compulsory) requirements;
//! * the **model** ([`model`]): a directed, annotated multigraph whose users
//!   may override the metamodel at will — extra properties, off-metamodel
//!   relation endpoints — because "AWB is intended to allow users to do what
//!   they think best whenever possible";
//! * the **XML exchange format** ([`xmlio`]): the "nice, clean XML format"
//!   AWB saves models in, which the XQuery document generator took as input;
//! * the **query calculus** ([`calculus`]): "Start at this user; follow the
//!   relation likes forwards; follow the relation uses but only to computer
//!   programs from there; collect the results, sorted by label" — with two
//!   evaluators, one native and one compiled to XQuery, whose forced
//!   unification triggered the Java rewrite;
//! * the **omissions checker** ([`omissions`]): the always-visible UI window
//!   listing incomplete parts of the model;
//! * **workload generators** ([`workload`]): deterministic IT-architecture
//!   models, the antique-glass-dealer retarget, and seeded random graphs.

pub mod calculus;
pub mod meta;
pub mod model;
pub mod omissions;
pub mod workload;
pub mod xmlio;

pub use calculus::{Direction, PreparedQuery, Query, QueryStep, StartSet};
pub use meta::{Metamodel, PropType, Requirement};
pub use model::{Changes, Model, NodeRef, PropValue, RelRef};
pub use omissions::{Omission, OmissionKind};
