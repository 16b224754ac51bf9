//! # ovc-server — the query engine as a network service
//!
//! A threaded HTTP/1.1 server over `std::net` exposing the `ovc-plan`
//! builder API on the wire: clients POST a logical plan as JSON and
//! receive the answer as a stream of row batches riding the flat-batch
//! executor, with exact offset-value codes alongside every ordered
//! result.  No external crates — the workspace builds without crates.io,
//! so the HTTP layer and rate limiter are local, and JSON goes through
//! the workspace's one std-only JSON crate, `ovc-json`.
//!
//! The crate exists to demonstrate the paper's claim end to end: the
//! engine's orderings and codes are *properties of the data*, not of the
//! process that computed them.  A query served over a socket returns
//! rows and codes byte-identical to the same plan executed in-process
//! (`tests/server_protocol.rs` proves it under concurrency), which is
//! only possible because every operator under the planner became `Send`
//! — statistics atomic, spill devices per worker — in this PR.
//!
//! ## Pieces
//!
//! * [`http`] — minimal HTTP/1.1: parsing, keep-alive, chunked bodies;
//! * [`wire`] — JSON plan decoding and response frame encoding (codes
//!   travel as decimal strings: they exceed `f64`'s exact range);
//! * [`ratelimit`] — per-IP token buckets;
//! * [`metrics`] — service + engine counters, Prometheus rendering;
//! * [`server`] — accept loop, bounded session pool, routing, streaming
//!   execution, graceful drain-then-exit shutdown.
//!
//! ## Quick start
//!
//! ```
//! use ovc_core::Row;
//! use ovc_plan::{Catalog, Table};
//! use ovc_server::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("t", Table::sorted(vec![Row::new(vec![1]), Row::new(vec![2])], 1));
//! let server = Server::bind(ServerConfig::default(), catalog).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let runner = std::thread::spawn(move || server.run());
//!
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! let body = r#"{"plan": {"scan": "t"}}"#;
//! write!(conn, "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}", body.len(), body).unwrap();
//! let mut line = String::new();
//! BufReader::new(&conn).read_line(&mut line).unwrap();
//! assert!(line.starts_with("HTTP/1.1 200"));
//!
//! handle.shutdown();
//! runner.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod ratelimit;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, QueryResult};
pub use metrics::ServerMetrics;
pub use ratelimit::{Admission, RateLimitConfig, RateLimiter};
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
pub use wire::{parse_plan, parse_predicate, parse_table, WireError};
