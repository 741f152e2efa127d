//! Readiness polling over Linux `epoll`: register sockets with a token
//! and an interest set, then [`Poller::wait`] for batches of [`Event`]s.
//!
//! One `epoll` instance per poller, and no other backend: `wait` is
//! O(ready), not O(registered), which is the property the C10k server
//! leans on — thousands of idle connections cost nothing per wakeup. A
//! host that cannot create an epoll instance gets the error from
//! [`Poller::new`] rather than a slower poller in its place.
//!
//! Delivery is level-triggered, or edge-triggered for a registration
//! that asks for [`Interest::EDGE`].

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use crate::sys;

/// What to watch a descriptor for. Combine with `|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable readiness.
    pub const READ: Interest = Interest(sys::EVENT_IN);
    /// Writable readiness.
    pub const WRITE: Interest = Interest(sys::EVENT_OUT);
    /// Edge-triggered delivery: a descriptor is reported once per
    /// readiness change, not on every wait while it stays ready.
    pub const EDGE: Interest = Interest(sys::EVENT_EDGE);

    /// Whether every bit of `other` is present in `self`.
    #[must_use]
    pub fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor has bytes to read (or a pending accept).
    pub readable: bool,
    /// The descriptor can take more bytes.
    pub writable: bool,
    /// Error or hangup: the connection is dead or dying. Reported even
    /// when not requested.
    pub hangup: bool,
}

impl Event {
    fn from_bits(token: u64, bits: u32) -> Self {
        Self {
            token,
            readable: bits & sys::EVENT_IN != 0,
            writable: bits & sys::EVENT_OUT != 0,
            hangup: bits & (sys::EVENT_ERR | sys::EVENT_HUP) != 0,
        }
    }
}

/// A readiness poller over raw socket descriptors: one `epoll` instance
/// and the buffer its waits fill.
///
/// The caller owns descriptor lifetimes: a registered fd must stay open
/// until [`Poller::deregister`] (dropping a socket while registered is
/// not UB — the kernel drops the epoll entry — but stale events may
/// surface for its token, which callers already tolerate by lookup).
pub struct Poller {
    ep: sys::EpollFd,
    buf: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("ep", &self.ep).finish()
    }
}

impl Poller {
    /// A poller on a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, as is: `EMFILE`/`ENFILE` when the
    /// process or system is out of descriptors, `ENOMEM`, or `ENOSYS`
    /// on a host without epoll. There is no fallback to degrade to.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            ep: sys::EpollFd::create()?,
            buf: vec![sys::EpollEvent::default(); 512],
        })
    }

    /// Starts watching `fd` with `interest`; readiness is reported under
    /// `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure (e.g. `EEXIST`: the fd is already
    /// registered).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ep.add(fd, interest.0, token)
    }

    /// Replaces the interest set of a registered `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure (e.g. `ENOENT`: the fd was never
    /// registered).
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ep.modify(fd, interest.0, token)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure (e.g. `ENOENT`: the fd was never
    /// registered).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ep.delete(fd)
    }

    /// Blocks until at least one descriptor is ready or `timeout`
    /// elapses (`None` = wait forever), appending the ready set to
    /// `events` (which is cleared first).
    ///
    /// # Errors
    ///
    /// The `epoll_wait` failure (`EINTR` is absorbed by the sys layer).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms = timeout.map_or(-1i32, |d| {
            i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(0)
        });
        let n = self.ep.wait(&mut self.buf, timeout_ms)?;
        for ev in self.buf.iter().take(n) {
            // Copy out of the (packed) ABI struct before use.
            let (bits, token) = ({ ev.events }, { ev.data });
            events.push(Event::from_bits(token, bits));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reports_read_readiness_under_token() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller
            .register(server.as_raw_fd(), 99, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "idle socket");

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 99);
        assert!(events[0].readable);
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn reregister_switches_read_to_write_interest() {
        let mut poller = Poller::new().unwrap();
        let (_client, server) = pair();
        poller
            .register(server.as_raw_fd(), 5, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
        poller
            .reregister(server.as_raw_fd(), 6, Interest::WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 6, "token updated on reregister");
        assert!(events[0].writable);
    }

    #[test]
    fn hangup_is_reported_even_when_only_reading() {
        let mut poller = Poller::new().unwrap();
        let (client, mut server) = pair();
        poller
            .register(server.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        // A clean close surfaces as readable-with-EOF (and often a
        // HUP bit); either way a read now returns 0.
        assert!(events[0].readable || events[0].hangup);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn deregistered_fd_reports_nothing() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller
            .register(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"z").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn edge_interest_reports_unread_bytes_once_and_level_on_every_wait() {
        let mut poller = Poller::new().unwrap();
        let (mut client, edge) = pair();
        let (mut client2, level) = pair();
        poller
            .register(edge.as_raw_fd(), 1, Interest::READ | Interest::EDGE)
            .unwrap();
        poller
            .register(level.as_raw_fd(), 2, Interest::READ)
            .unwrap();
        client.write_all(b"e").unwrap();
        client2.write_all(b"l").unwrap();
        let mut events = Vec::new();
        let mut seen = Vec::new();
        while seen.len() < 2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert!(!events.is_empty(), "both sockets became readable");
            seen.extend(events.iter().map(|e| e.token));
        }
        seen.sort_unstable();
        assert_eq!(seen, [1, 2]);
        // Neither socket was read: only the level-triggered one is
        // reported again.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        let again: Vec<u64> = events.iter().map(|e| e.token).collect();
        assert_eq!(again, [2]);
    }

    #[test]
    fn errors_come_back_from_the_kernel() {
        let mut poller = Poller::new().unwrap();
        let (_client, server) = pair();
        let fd = server.as_raw_fd();
        assert!(
            poller.reregister(fd, 1, Interest::READ).is_err(),
            "not registered"
        );
        assert!(poller.deregister(fd).is_err(), "not registered");
        poller.register(fd, 1, Interest::READ).unwrap();
        assert!(
            poller.register(fd, 1, Interest::READ).is_err(),
            "registered twice"
        );
    }

    #[test]
    fn interest_bit_ops() {
        let rw = Interest::READ | Interest::WRITE;
        assert!(rw.contains(Interest::READ));
        assert!(rw.contains(Interest::WRITE));
        assert!(!Interest::READ.contains(Interest::WRITE));
        assert!((Interest::READ | Interest::EDGE).contains(Interest::EDGE));
    }
}
