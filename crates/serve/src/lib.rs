//! # exq-serve — the resident explanation server
//!
//! Turns the one-shot `exq` pipeline into a long-lived service, the
//! setting the paper's §6 prototype assumed (a resident SQL Server
//! instance amortizing storage and join work across repeated what-if
//! questions). Three pieces:
//!
//! * a [`catalog::Catalog`] of named datasets whose expensive
//!   intermediates (semijoin reduction, universal relation) are built
//!   **once** at startup via [`exq_core::prepared::PreparedDb`], shared
//!   across requests, and maintained *incrementally* as live appends
//!   arrive (each append bumps the dataset's epoch);
//! * a [`cache::ResultCache`] — sharded, byte-budgeted LRU over
//!   rendered response documents, keyed by the collision-free canonical
//!   encodings of [`key`] (a cache-hit `POST /v1/explain` is a hash
//!   lookup plus a memcpy);
//! * a std-only HTTP/1.1 server ([`server`]) — hand-rolled parser
//!   ([`http`]), a blocking accept thread feeding a thread-per-connection
//!   worker pool ([`pump`]), bounded accept
//!   queue with `503` + `Retry-After` backpressure, per-request read
//!   timeouts, opt-in keep-alive (a client sending `Connection:
//!   keep-alive` — the router front, the CLI batch client — keeps its
//!   stream open across requests), and cooperative SIGINT/SIGTERM
//!   shutdown ([`signal`]) that drains in-flight work and hands back a
//!   final metrics snapshot. With [`ServerConfig::cache_persist`] set,
//!   the cache is dumped at shutdown and reloaded (epoch-filtered) at
//!   boot ([`persist`]) so restarts start warm.
//!
//! Every answered request becomes one [`record::RequestRecord`], which
//! feeds the last-N ring, the retention of errors and slow requests,
//! and the access log ([`record`]).
//!
//! Endpoints (JSON unless noted, same document shapes as
//! `exq --format json`; every response carries an `X-Exq-Trace-Id`
//! header naming the request's record):
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/explain` | ranked top-K explanations for a question |
//! | `POST /v1/report`  | full report: both rankings, tau, drill-down |
//! | `POST /v1/datasets/{name}/rows` | append rows, bump the dataset epoch |
//! | `GET /v1/datasets` | catalog listing with tuple counts and epochs |
//! | `GET /v1/metrics`  | live counters/spans/histograms snapshot (`?format=prometheus` for text exposition, `?format=snapshot` for the mergeable wire encoding) |
//! | `GET /metrics`     | Prometheus text exposition 0.0.4 (scrape target), exemplar comments included |
//! | `GET /v1/debug/requests` | the last N request records, each with its `seq` |
//! | `GET /v1/debug/traces` | retained records: errors and slow requests, with `reason`, `hist` and `bucket_upper` |
//! | `GET /healthz`     | liveness probe |
//! | `GET /v1/health`   | worker identity: shard id, dataset epochs, cache occupancy |
//!
//! Everything stays zero-new-dependency (vendored-stub policy from
//! PR 1): no async runtime, no HTTP crate, no JSON crate, no libc.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod http;
pub mod json;
pub mod key;
pub mod persist;
pub mod pump;
pub mod record;
pub mod server;
pub mod signal;

pub use cache::ResultCache;
pub use catalog::{Catalog, Dataset};
pub use record::{LineLog, RequestLog, RequestRecord};
pub use server::{start, start_on, Handle, ServerConfig, INGEST_COUNTERS, SERVER_COUNTERS};
