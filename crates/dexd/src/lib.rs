//! `dexd` — the fault-tolerant, multi-tenant data-exchange daemon.
//!
//! Serves a catalog of named schema mappings over a deliberately tiny
//! HTTP/1.1 + JSON surface (hand-rolled on `std::net`; no async
//! runtime, no HTTP dependency):
//!
//! | endpoint                          | meaning                         |
//! |-----------------------------------|---------------------------------|
//! | `GET /healthz`                    | process liveness                |
//! | `GET /readyz`                     | availability (503 only when     |
//! |                                   | draining or *no* mapping can    |
//! |                                   | serve; body lists quarantined   |
//! |                                   | and migrating mappings)         |
//! | `GET /statz`                      | counters, per-mapping state,    |
//! |                                   | per-endpoint latency p50/p99/max|
//! | `POST /v1/mappings/{m}/compile`   | lens template + holes report    |
//! | `POST /v1/mappings/{m}/lint`      | diagnostics (422 on errors)     |
//! | `POST /v1/mappings/{m}/explain`   | static chase-cost plan          |
//! | `POST /v1/mappings/{m}/chase`     | governed chase of `source`      |
//! | `POST /v1/mappings/{m}/exchange`  | governed lens forward pass      |
//! | `POST /v1/mappings/{m}/put`       | lens backward (updatable view)  |
//! | `POST /v1/mappings/{m}/migrate`   | crash-safe live migration of a  |
//! |                                   | persisted run (quarantines the  |
//! |                                   | mapping; resumable via 206)     |
//!
//! The robustness model is the paper's governed-execution story lifted
//! to a shared process: *every* failure mode has a typed, bounded
//! response. Static cost bounds refuse hopeless requests before any
//! work (422, DEX502); a bounded queue sheds load at the acceptor
//! (429 + `Retry-After`); per-mapping in-flight caps keep one tenant
//! from starving the rest (429); budgets govern every chase, and
//! exhaustion returns the consistent partial result (206 +
//! `ExhaustionReport`) instead of an error; panics are caught per
//! request, answered with 500, and quarantine the offending mapping
//! (503 thereafter) so a deterministic bug cannot crash-loop the
//! process; graceful shutdown drains under a deadline, cancelling
//! overrunning work into 206s. The status codes are in 1:1
//! correspondence with the CLI's exit-code contract
//! (`200↔0`, `206↔3`, `422↔2`, `500↔70`). Admission, the budget rule,
//! the governed runs and the migration planner live in [`pipeline`],
//! which `dexcli` calls too, so the two front ends agree by sharing
//! code.
//!
//! Chaos coverage: with the `failpoints` feature the network layer
//! exposes `server.accept` / `server.read_request` / `server.dispatch`
//! / `server.write_response` fail-point sites
//! ([`dex_relational::fail::SERVER_SITES`]); `tests/chaos.rs` drives
//! the full site × {error, panic} matrix through a live server and
//! asserts the daemon keeps answering well-formed responses.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is the failure report.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod handlers;
pub mod http;
pub mod json;
pub mod pipeline;
pub mod server;

pub use catalog::{Catalog, CatalogEntry};
pub use http::{Request, Response, MAX_BODY_BYTES};
pub use server::{ServerConfig, ServerCtx, ServerHandle, ServerStats};
