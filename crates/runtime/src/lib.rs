//! # proxy-runtime
//!
//! A readiness [`Poller`] over Linux `epoll` for the event-loop server.
//! It has no other backend: a host where `epoll_create1` fails gets
//! that error from [`Poller::new`].
//!
//! No tokio, no mio, no libc crate — the whole machinery is a thin
//! audited FFI module ([`sys`]) over three syscalls.
//!
//! The crate also holds the counting allocator the e2e benchmark's
//! traced run installs ([`alloc_count`]; `proxy-bench` registers it).
//! `unsafe` is denied crate-wide and allowed *only* inside those two
//! modules, whose every `unsafe` block carries a local safety argument;
//! every other crate but `proxy-crypto` (whose SHA-NI compression and
//! eight-lane Ed25519 engine are the other audited `unsafe` modules)
//! stays `forbid(unsafe_code)`.

pub mod alloc_count;
pub mod poller;
pub mod sys;

pub use poller::{Event, Interest, Poller};
