//! # semask-net — network serving for SemaSK
//!
//! A TCP front end and cross-process shard fabric over the serve layer,
//! built on `std::net` only (the build environment is offline; every
//! transport is loopback-tested plain TCP):
//!
//! ```text
//!                       ┌────────────────────┐
//!  NetClient ──frames──▶│ ServeServer        │   NetHandler for ServeEngine:
//!  NetClient ──frames──▶│  readers ⇄ FairGate│   submit_request → PendingResponse,
//!                       │  → writers         │   the serve layer's one way in
//!                       └─────────┬──────────┘
//!                                 │ RouterHandler
//!                       ┌─────────▼──────────┐
//!                       │ ShardRouter        │ plans once, fans out,
//!                       └──┬───────┬───────┬─┘ merges, refines
//!                  ShardQuery  ShardQuery  ShardQuery
//!                       ┌──▼──┐ ┌──▼──┐ ┌──▼──┐
//!                       │shard│ │shard│ │shard│  separate processes,
//!                       │  0  │ │  1  │ │  2  │  each holding the dataset
//!                       └─────┘ └─────┘ └─────┘  and its own slice
//! ```
//!
//! - [`proto`] — the versioned length-prefixed frame protocol, the
//!   request/response envelope codecs (floats as raw bits: answers
//!   survive the wire bit-exactly), and [`proto::FrameReader`], which
//!   takes every frame a socket already holds in one `read`.
//! - [`fair`] — weighted round-robin admission across connections (the
//!   PR 4 hot-client-starvation fix), served by the connections' own
//!   reader threads, one at a time.
//! - [`server`] — [`server::ServeServer`], thread-per-connection with
//!   per-connection in-flight caps, read timeouts, and writers that
//!   send every reply already answered in one `write`. In front of a
//!   `ServeEngine` a request is admitted by
//!   `ServeEngine::submit_request`, and the writer probes the claim it
//!   returns (`PendingResponse::try_wait`) before it parks on it.
//! - [`router`] — [`router::ShardRouter`], the one place per-shard
//!   answers merge: for every exact plan the routed answer is
//!   bit-identical to the router's engine over the whole collection, and
//!   every routed answer is the merge of the nodes' own replies
//!   (see the module docs); graceful degradation when shards go down or
//!   answer what the merge cannot trust. [`router::ShardHandler`] is a
//!   shard node: the dataset plus its slice, built by
//!   [`boot::build_shard`].
//! - [`client`] — [`client::NetClient`] with connect retry and
//!   pipelining.
//!
//! The `semask-shard` and `semask-router` binaries wrap the shard and
//! router roles for process-level tests and the `net_serve` example.

#![warn(missing_docs)]

pub mod boot;
pub mod client;
pub mod fair;
pub mod proto;
pub mod router;
pub mod server;

pub use client::{ClientConfig, NetClient};
pub use proto::{Frame, FrameKind, FrameReader, ProtoError, ShardQuery, ShardReply};
pub use router::{RoutedOutcome, RouterConfig, RouterHandler, ShardHandler, ShardRouter};
pub use server::{IoStats, NetHandler, Reply, ServeServer, ServerConfig};
