//! # proxy-runtime
//!
//! A readiness [`Poller`] over Linux `epoll` for the event-loop server.
//! It has no other backend: a host where `epoll_create1` fails gets
//! that error from [`Poller::new`].
//!
//! No tokio, no mio, no libc crate — the whole machinery is a thin
//! audited FFI module ([`sys`]) over four syscalls.
//! `unsafe` is denied crate-wide and allowed *only* inside `sys`, whose
//! every call site carries a local safety argument; every other crate
//! but `proxy-bench` (whose counting allocator is the one other audited
//! `unsafe` module) stays `forbid(unsafe_code)`.

pub mod poller;
pub mod sys;

pub use poller::{Event, Interest, Poller};
