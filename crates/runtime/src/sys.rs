//! Thin, audited FFI over the three syscalls the [`crate::poller`]
//! needs: `epoll_create1`, `epoll_ctl` and `epoll_wait`.
//!
//! One of the workspace's two modules that contain `unsafe` code (the
//! other is `proxy-bench`'s counting allocator, `bench/src/alloc_count.rs`),
//! and the audit argument for every call site is local:
//!
//! * `epoll_create1` takes no pointers at all, and the fd it returns
//!   goes straight into an [`OwnedFd`], which closes it;
//! * `epoll_ctl` passes a pointer to one stack-owned [`EpollEvent`]
//!   that outlives the call (the kernel copies it before returning);
//! * `epoll_wait` writes into a caller-owned slice whose length is
//!   passed as the capacity, so the kernel can never write past the
//!   buffer; the returned count is validated against that length before
//!   any element is read.
//!
//! No file descriptor is fabricated here: every fd handed to these
//! wrappers comes from a live `std::net` socket (via `AsRawFd`) or from
//! `epoll_create1` itself, and [`EpollFd`] owns its descriptor as an
//! [`OwnedFd`], whose `Drop` closes it exactly once.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// `EPOLL_CLOEXEC`: the epoll fd must not leak across `exec`.
const EPOLL_CLOEXEC: i32 = 0o2000000;
/// `epoll_ctl` opcodes.
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Readable readiness (`EPOLLIN`).
pub const EVENT_IN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EVENT_OUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never requested).
pub const EVENT_ERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`; always reported, never requested).
pub const EVENT_HUP: u32 = 0x010;
/// Edge-triggered delivery (`EPOLLET`).
pub const EVENT_EDGE: u32 = 1 << 31;

/// One `struct epoll_event`. On x86-64 the kernel ABI packs the struct
/// (no padding between `events` and `data`); elsewhere it is naturally
/// aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bit set (`EVENT_*`).
    pub events: u32,
    /// Caller token, echoed back verbatim on readiness.
    pub data: u64,
}

#[allow(unsafe_code)]
mod ffi {
    //! The raw `extern` declarations, isolated so every use above goes
    //! through the audited safe wrappers.
    use super::EpollEvent;
    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// Converts a `-1` syscall return into the thread's `errno` as
/// [`io::Error`].
fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct EpollFd(OwnedFd);

impl EpollFd {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, if any (`EMFILE`/`ENFILE` out of
    /// descriptors, `ENOMEM`, `ENOSYS` on a host without epoll).
    #[allow(unsafe_code)]
    pub fn create() -> io::Result<Self> {
        // SAFETY: no pointers; returns a fresh fd or -1, and a fresh fd
        // is owned by nothing else, so the `OwnedFd` may take it.
        let fd = unsafe { OwnedFd::from_raw_fd(check(ffi::epoll_create1(EPOLL_CLOEXEC))?) };
        Ok(Self(fd))
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value for the duration of the
        // call; the kernel copies it before returning. `DEL` ignores the
        // pointer but a valid one is passed anyway (pre-2.6.9 kernels
        // required it).
        #[allow(unsafe_code)]
        check(unsafe { ffi::epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with interest `events`, tagging readiness with
    /// `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces the interest set of a registered `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever), filling
    /// `buf` from the front. Returns how many entries are valid.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` failure, if any (`EINTR` is retried internally).
    #[allow(unsafe_code)]
    pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = i32::try_from(buf.len()).unwrap_or(i32::MAX).clamp(1, 1024);
        loop {
            // SAFETY: `buf` is caller-owned and lives across the call;
            // `cap` never exceeds `buf.len()`, so the kernel writes only
            // into the slice. The returned count is clamped to the same
            // bound before the caller reads any entry.
            let ret =
                unsafe { ffi::epoll_wait(self.0.as_raw_fd(), buf.as_mut_ptr(), cap, timeout_ms) };
            match check(ret) {
                Ok(n) => return Ok((n.max(0) as usize).min(buf.len())),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readability_with_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let ep = EpollFd::create().expect("epoll available on this host");
        ep.add(server.as_raw_fd(), EVENT_IN, 42).unwrap();

        let mut buf = [EpollEvent::default(); 8];
        // Nothing to read yet: a zero timeout returns no events.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = buf[0];
        assert_eq!({ ev.data }, 42);
        assert_ne!({ ev.events } & EVENT_IN, 0);

        ep.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn epoll_modify_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let ep = EpollFd::create().unwrap();
        ep.add(server.as_raw_fd(), EVENT_IN, 7).unwrap();
        // An idle socket with only read interest: no events.
        let mut buf = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
        // Switch to write interest: an empty send buffer is writable now.
        ep.modify(server.as_raw_fd(), EVENT_OUT, 7).unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!({ buf[0].events } & EVENT_OUT, 0);
    }
}
