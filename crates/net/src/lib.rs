//! # proxy-net
//!
//! The service layer that puts the paper's servers on a network: a
//! [`Transport`] abstraction with two implementations, a [`ServiceMux`]
//! that dispatches decoded [`proxy_wire`] frames into the service
//! crates' concurrent hot paths, and a pooled blocking [`TcpClient`]
//! with per-request deadlines, bounded retries, and jittered backoff.
//!
//! * [`Loopback`] — in-process: every message round-trips through its
//!   real frame encoding and is tallied on a [`netsim::Network`] link
//!   via the atomic-only [`netsim::Network::record`] path, so the
//!   deterministic figure harnesses keep their exact counts.
//! * [`EventLoopServer`]/[`TcpClient`] — real TCP: each server worker
//!   owns a [`proxy_runtime::Poller`] (one epoll instance) and drains
//!   thousands of nonblocking connections through per-connection state
//!   machines with write-queue backpressure and idle reaping; the
//!   client is std-only and blocking.
//!
//! The servers behind the mux are the *same instances* an in-process
//! caller would use; networking is a layer, not a fork of the logic.

// L1, panic-free decode (DESIGN.md §11): this crate reads bytes a peer
// or a disk chose, so outside test code a reachable panic is a remote
// crash. Index with `get`, narrow with `try_from`, return typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]

pub mod api;
pub mod client;
pub mod error;
pub mod event_loop;
pub mod mux;
pub mod transport;

pub use api::Deposit;
pub use client::{ClientOptions, RetryPolicy, TcpClient};
pub use error::NetError;
pub use event_loop::{EventLoopOptions, EventLoopServer};
pub use mux::ServiceMux;
pub use transport::{Loopback, Transport};
