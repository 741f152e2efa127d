//! # netsim
//!
//! A deterministic simulated network fabric for the proxy-aa workspace.
//!
//! Protocol code in the other crates calls plain Rust methods on servers;
//! this crate supplies the *measurable* part of a network: a logical
//! clock, a link latency, message/byte accounting, an eavesdropper tap
//! (for the capture-resistance experiments), and deterministic fault
//! injection.
//! Every benchmark that reports "messages" or "latency" reads them from a
//! [`Network`].
//!
//! Reproducibility: all randomness comes from the seed passed to
//! [`Network::new`], and time is a logical tick counter — the same program
//! produces the same trace on every run.
//!
//! ```
//! use netsim::{EndpointId, Network};
//! let mut net = Network::new(0);
//! net.set_default_latency(5);
//! let d = net.transmit(&EndpointId::new("a"), &EndpointId::new("b"), b"hello");
//! assert!(d.delivered);
//! assert_eq!(net.now(), 5);
//! assert_eq!(net.total_bytes(), 5);
//! ```

// L4, no ambient time: clocks are injected `Timestamp`s, so runs replay
// the same under a fixed seed (clippy.toml lists the methods).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A network endpoint name (maps 1:1 to a principal in higher layers).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(String);

impl EndpointId {
    /// Creates an endpoint name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "endpoint name must be non-empty");
        Self(name)
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EndpointId({})", self.0)
    }
}

impl From<&str> for EndpointId {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

/// One recorded transmission (the eavesdropper's view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TapRecord {
    /// Sender.
    pub from: EndpointId,
    /// Receiver.
    pub to: EndpointId,
    /// The full payload as it crossed the wire.
    pub payload: Vec<u8>,
    /// Logical send time.
    pub sent_at: u64,
}

/// Outcome of a transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// False when fault injection dropped the message.
    pub delivered: bool,
    /// Logical time at which the message arrives (sender clock + latency).
    pub arrives_at: u64,
}

/// Deterministic network fabric.
///
/// Traffic counters are atomic tallies, so concurrent benchmark workers
/// can account traffic via [`Self::record`] from `&self` while the
/// single-threaded experiment path ([`Self::transmit`], `&mut self` —
/// clock, tap, fault injection) stays exactly as deterministic as
/// before.
#[derive(Debug)]
pub struct Network {
    now: u64,
    default_latency: u64,
    messages: AtomicU64,
    bytes: AtomicU64,
    tap: Option<Vec<TapRecord>>,
    drop_next: u64,
    duplicate_next: u64,
    rng: StdRng,
}

impl Network {
    /// Creates a network with the given RNG seed and a default link
    /// latency of 1 tick.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            now: 0,
            default_latency: 1,
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            tap: None,
            drop_next: 0,
            duplicate_next: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current logical time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by `ticks` (e.g. to model server think time).
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }

    /// Sets the latency of every link.
    pub fn set_default_latency(&mut self, ticks: u64) {
        self.default_latency = ticks;
    }

    /// Starts recording every transmission (the eavesdropper tap).
    pub fn enable_tap(&mut self) {
        if self.tap.is_none() {
            self.tap = Some(Vec::new());
        }
    }

    /// Everything recorded since [`enable_tap`](Self::enable_tap).
    #[must_use]
    pub fn tapped(&self) -> &[TapRecord] {
        self.tap.as_deref().unwrap_or(&[])
    }

    /// Forces the next `n` transmissions to be dropped (deterministic
    /// fault injection).
    pub fn drop_next(&mut self, n: u64) {
        self.drop_next += n;
    }

    /// Forces the next `n` delivered transmissions to be duplicated: the
    /// link carries the payload twice (counted and tapped twice), modeling
    /// at-least-once delivery. Replay caches exist for exactly this.
    pub fn duplicate_next(&mut self, n: u64) {
        self.duplicate_next += n;
    }

    /// Transmits `payload` from `from` to `to`: advances the clock by the
    /// link latency, updates counters and the tap, and applies fault
    /// injection. Returns whether the message was delivered.
    pub fn transmit(&mut self, from: &EndpointId, to: &EndpointId, payload: &[u8]) -> Delivery {
        let sent_at = self.now;
        let arrives_at = sent_at.saturating_add(self.default_latency);
        let dropped = self.drop_next > 0;
        if dropped {
            self.drop_next -= 1;
        }
        let copies = if !dropped && self.duplicate_next > 0 {
            self.duplicate_next -= 1;
            2
        } else {
            1
        };
        self.messages.fetch_add(copies, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload.len() as u64 * copies, Ordering::Relaxed);
        if let Some(tap) = self.tap.as_mut().filter(|_| !dropped) {
            for _ in 0..copies {
                tap.push(TapRecord {
                    from: from.clone(),
                    to: to.clone(),
                    payload: payload.to_vec(),
                    sent_at,
                });
            }
        }
        self.now = arrives_at;
        Delivery {
            delivered: !dropped,
            arrives_at,
        }
    }

    /// Accounts one message of `bytes` payload bytes, from `&self` — the
    /// concurrent-benchmark path.
    ///
    /// Unlike [`Self::transmit`], this touches *only* the atomic
    /// tallies: no clock, no tap, no fault injection, so calling it from
    /// many threads cannot perturb the deterministic single-threaded
    /// experiments sharing the same `Network`.
    pub fn record(&self, _from: &EndpointId, _to: &EndpointId, bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total messages across all links.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes across all links.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Draws random bytes from the network's deterministic RNG (handy for
    /// challenges in protocol drivers).
    pub fn random_bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.rng.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(name: &str) -> EndpointId {
        EndpointId::new(name)
    }

    #[test]
    fn transmit_advances_clock_by_latency() {
        let mut net = Network::new(0);
        net.set_default_latency(5);
        let d = net.transmit(&e("a"), &e("b"), b"hello");
        assert_eq!(
            d,
            Delivery {
                delivered: true,
                arrives_at: 5
            }
        );
        assert_eq!(net.now(), 5);
        net.set_default_latency(2);
        let d = net.transmit(&e("a"), &e("b"), b"hi");
        assert_eq!(d.arrives_at, 7);
    }

    #[test]
    fn counters_accumulate_across_links() {
        let mut net = Network::new(0);
        net.transmit(&e("a"), &e("b"), b"12345");
        net.transmit(&e("a"), &e("b"), b"678");
        net.transmit(&e("b"), &e("a"), b"9");
        assert_eq!(net.total_messages(), 3);
        assert_eq!(net.total_bytes(), 9);
    }

    #[test]
    fn tap_records_payloads() {
        let mut net = Network::new(0);
        net.enable_tap();
        net.transmit(&e("a"), &e("b"), b"secret-ish");
        assert_eq!(net.tapped().len(), 1);
        assert_eq!(net.tapped()[0].payload, b"secret-ish");
        assert_eq!(net.tapped()[0].from, e("a"));
    }

    #[test]
    fn deterministic_drops() {
        let mut net = Network::new(0);
        net.drop_next(2);
        assert!(!net.transmit(&e("a"), &e("b"), b"x").delivered);
        assert!(!net.transmit(&e("a"), &e("b"), b"y").delivered);
        assert!(net.transmit(&e("a"), &e("b"), b"z").delivered);
        // A dropped message still crossed the sender's link.
        assert_eq!(net.total_messages(), 3);
    }

    #[test]
    fn dropped_messages_do_not_reach_the_tap() {
        let mut net = Network::new(0);
        net.enable_tap();
        net.drop_next(1);
        net.transmit(&e("a"), &e("b"), b"lost");
        net.transmit(&e("a"), &e("b"), b"kept");
        assert_eq!(net.tapped().len(), 1);
        assert_eq!(net.tapped()[0].payload, b"kept");
    }

    #[test]
    fn random_bytes_deterministic_per_seed() {
        let mut a = Network::new(3);
        let mut b = Network::new(3);
        assert_eq!(a.random_bytes::<32>(), b.random_bytes::<32>());
    }

    #[test]
    fn concurrent_record_tallies_exactly() {
        let net = Network::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let net = &net;
                scope.spawn(move || {
                    for _ in 0..500 {
                        net.record(&e("client"), &e("server"), 100 + t);
                    }
                });
            }
        });
        assert_eq!(net.total_messages(), 4000);
        assert_eq!(
            net.total_bytes(),
            (0..8u64).map(|t| 500 * (100 + t)).sum::<u64>()
        );
        // The concurrent path leaves the deterministic machinery alone.
        assert_eq!(net.now(), 0);
    }

    #[test]
    fn duplication_doubles_counts_and_tap() {
        let mut net = Network::new(0);
        net.enable_tap();
        net.duplicate_next(1);
        net.transmit(&e("a"), &e("b"), b"dup");
        net.transmit(&e("a"), &e("b"), b"single");
        assert_eq!(net.total_messages(), 3);
        assert_eq!(net.tapped().len(), 3);
        assert_eq!(net.tapped()[0].payload, b"dup");
        assert_eq!(net.tapped()[1].payload, b"dup");
    }
}
