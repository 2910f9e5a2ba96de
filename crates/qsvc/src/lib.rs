//! # qsvc — the query service front end
//!
//! The paper's lesson, read service-shaped: an XQuery engine that is fine
//! as a library call becomes a different beast as a long-running server —
//! suddenly compile time, document parse time, and per-request setup
//! dominate, and the fixes (prepared statements, a plan cache, a document
//! cache) have correctness seams of their own. This crate is that server,
//! built from the engine's existing pieces:
//!
//! * **Plan cache** ([`PlanCache`]) — compiled queries keyed by the
//!   query text *and* the full [`EngineOptions::cache_key`]
//!   fingerprint, so tenants on different engine configurations can never
//!   share (and thus leak) a plan. [`CompiledQuery`] is `Arc`-shared: a hit
//!   is two refcount bumps.
//! * **Document cache** ([`DocCache`]) — parsed documents as
//!   [`TreeSnapshot`]s under a byte budget with admission control.
//!   Snapshots are mounted into per-connection engines via `Store::adopt`;
//!   eviction drops only the cache's `Arc`, so an in-flight query keeps the
//!   exact tree it started with.
//! * **Service** ([`Service`]) — a framed TCP protocol ([`proto`]) with one
//!   engine per connection over one shared big-stack [`StackPool`] (plans
//!   that may recurse run on its workers, shallow ones on the connection
//!   thread; its worker count caps evaluations in flight either way),
//!   per-tenant [`TenantStats`] aggregation, and errors that cross the
//!   socket with their code and source position intact ([`WireError`]).
//!
//! [`EngineOptions::cache_key`]: xquery::EngineOptions::cache_key
//! [`CompiledQuery`]: xquery::CompiledQuery
//! [`StackPool`]: xquery::StackPool

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod stats;

pub use cache::{AdmitError, DocCache, PlanCache};
pub use client::{Client, ClientError};
pub use proto::{Frame, WireError};
pub use server::{Service, ServiceConfig};
pub use stats::{parse_stats, TenantStats};

pub use xmlstore::TreeSnapshot;
