//! # proxy-runtime
//!
//! A readiness [`Poller`] (epoll with a portable `poll(2)` fallback)
//! for the event-loop server.
//!
//! No tokio, no mio, no libc crate — the whole machinery is a thin
//! audited FFI module ([`sys`]) over the two readiness syscalls.
//! `unsafe` is denied crate-wide and allowed *only* inside `sys`, whose
//! every call site carries a local safety argument; the rest of the
//! workspace stays `forbid(unsafe_code)`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod poller;
pub mod sys;

pub use poller::{Event, Interest, Poller, PollerKind};
