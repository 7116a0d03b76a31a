//! # drd-serve — desynchronization as a long-running service
//!
//! `drdesync serve` turns the one-shot CLI flow into a resident server:
//! many concurrent desynchronization jobs over newline-delimited JSON,
//! on stdin/stdout (`--stdio`) or a Unix domain socket. The pieces:
//!
//! * [`json`] — the dependency-free RFC 8259 reader/writer of the
//!   `drd-json` crate (the workspace has no serde by policy), re-exported
//!   under its old path;
//! * [`protocol`] — request/response grammar, the [`drd_core::DesyncError`]
//!   → `error_class` mapping and the CLI exit-code taxonomy in response
//!   `exit_code` fields;
//! * [`server`] — the [`server::Server`]: shared gatefile, content-hash
//!   flow cache, per-job deadlines, a fixed count of tokens that caps the
//!   flows running at once, stats, and graceful drain on shutdown.
//!
//! The load-bearing invariant, inherited from the one-shot flow: a job's
//! report, SDC, Verilog and deterministic trace are **byte-identical**
//! whether it runs through the CLI or the server, alone or next to 63
//! other jobs, cold or out of the cache. The differential oracle in the
//! workspace root (`tests/serve_differential.rs`) holds the server to
//! that.

pub use drd_json as json;
pub mod protocol;
pub mod server;

pub use protocol::{parse_request, DesyncJob, Request, RequestError};
pub use server::{serve_stream, serve_unix, Server};
