//! # proxy-net
//!
//! The service layer that puts the paper's servers on a network: a
//! [`Transport`] abstraction, a [`ServiceMux`] that dispatches decoded
//! [`proxy_wire`] frames into the service crates' concurrent hot paths,
//! and real TCP on both sides. Each [`EventLoopServer`] worker owns a
//! [`proxy_runtime::Poller`] (one epoll instance) and drains thousands
//! of nonblocking connections through per-connection state machines
//! with write-queue backpressure and idle reaping. The pooled blocking
//! [`TcpClient`] is std-only, with per-request deadlines, bounded
//! retries, and jittered backoff.
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
pub use transport::Transport;
