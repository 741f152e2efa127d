//! C10k benchmark (`figures --c10k`): thousands of concurrent pipelined
//! loopback connections on the fig3 authz-query path, served by the
//! readiness-driven [`proxy_net::EventLoopServer`].
//!
//! ## What the sweep measures
//!
//! The connection count `N` sweeps from tens to thousands while the
//! **aggregate in-flight window stays fixed**: at any moment
//! `GROUP × BURST` requests (16 connections × depth-4 bursts = 64) are
//! outstanding, rotating round-robin over all `N` connections so every
//! connection is exercised. Holding the offered load constant makes the
//! latency series an honest scaling probe: if p99 stays flat as `N`
//! grows, open-but-quiet connections cost the active ones nothing —
//! which is exactly the property a readiness-driven server buys
//! (epoll waits are O(ready), not O(open)).
//!
//! Latency is recorded per burst (send of a connection's burst to its
//! last reply), so a point's p50/p99 reflect what one pipelined client
//! experiences while `N − GROUP` other connections sit open.
//!
//! A point's p99 is the median, over its rounds (at least sixteen, each
//! the same 64 bursts at every point, the points' rounds interleaved),
//! of each round's p99: a stall of a shared host moves one of those,
//! where it would move a p99 pooled over the point's bursts as far as it
//! likes.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer};
use proxy_crypto::keys::SymmetricKey;
use proxy_net::{EventLoopOptions, EventLoopServer, ServiceMux};
use proxy_wire::frame::read_frame;
use proxy_wire::Message;
use restricted_proxy::prelude::*;

use crate::{percentile, rng, value_of, window, Row};

/// Connection counts (the scaling axis) and the minimum measured
/// requests per point (rounds are scaled up so small-`N` points still
/// collect a meaningful sample): the full sweep, and the smoke sweep
/// `ci.sh` runs.
const FULL: (&[usize], u64) = (&[64, 512, 2048, 6000], 8192);
const SMOKE: (&[usize], u64) = (&[64, 2048], 2048);
/// Rounds every point runs at least, so its p99 is a median of that many.
const MIN_ROUNDS: u64 = 16;
/// Groups of bursts in one measured round, at every point alike: a round
/// lasts as long at 6 000 connections as at 64, so a stall of the host
/// is as likely to land in a round of either.
const ROUND_GROUPS: usize = 4;
/// Connections with a burst in flight at any moment.
const GROUP: usize = 16;
/// Pipelined requests per connection per burst.
const BURST: usize = 4;
/// Event-loop worker threads serving the sweep.
const WORKERS: usize = 1;

/// The Fig. 3 world: an authorization server where client `C` may read
/// object `X` at end-server `S`.
fn fig3_mux() -> Arc<ServiceMux<MapResolver>> {
    let mut setup = rng(31);
    let r_key = SymmetricKey::generate(&mut setup);
    let mut authz = AuthorizationServer::new(
        PrincipalId::new("R"),
        GrantAuthority::SharedKey(r_key),
        MapResolver::new(),
    );
    authz.database_mut(PrincipalId::new("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(PrincipalId::new("C")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    Arc::new(ServiceMux::new().with_authz(Arc::new(authz)))
}

/// The fig3 request every connection pipelines: an authorization query
/// for C's read of X (granted — the reply carries a signed proxy).
fn authz_query() -> Message {
    Message::AuthzQuery {
        client: PrincipalId::new("C"),
        presentations: vec![],
        end_server: PrincipalId::new("S"),
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        validity: window(),
        now: Timestamp(1),
    }
}

/// One connection count of the sweep: its server, its open connections
/// and what its rounds measured so far.
struct Point {
    n: usize,
    _server: EventLoopServer,
    conns: Vec<TcpStream>,
    /// The connection the next group starts at.
    next: usize,
    connect_secs: f64,
    rounds: u64,
    request_id: u64,
    latencies: Vec<u64>,
    round_p99s: Vec<u64>,
    busy: Duration,
}

impl Point {
    /// A fresh event-loop server with `n` connections open, warmed by one
    /// unmeasured rotation over all of them: first-touch costs
    /// (server-side connection install, buffer growth, allocator and
    /// cache warm-up) land there, so the measured rounds compare steady
    /// states across connection counts rather than cold-start slopes.
    fn open(n: usize, min_total_ops: u64, frame: &Message) -> Point {
        let server = EventLoopServer::spawn_with(
            fig3_mux(),
            EventLoopOptions {
                workers: WORKERS,
                ..EventLoopOptions::default()
            },
            31,
        )
        .expect("spawn event-loop server");
        let connect_start = Instant::now();
        let conns = (0..n)
            .map(|_| {
                let s = TcpStream::connect(server.addr()).expect("c10k connect");
                s.set_nodelay(true).expect("nodelay");
                s
            })
            .collect();
        let connect_secs = connect_start.elapsed().as_secs_f64();
        // Enough rounds for the point's requests, and for every
        // connection to be measured once.
        let per_round = (ROUND_GROUPS * GROUP * BURST) as u64;
        let rounds = min_total_ops
            .div_ceil(per_round)
            .max(n.div_ceil(ROUND_GROUPS * GROUP) as u64)
            .max(MIN_ROUNDS);
        let mut point = Point {
            n,
            _server: server,
            conns,
            next: 0,
            connect_secs,
            rounds,
            request_id: 0,
            latencies: Vec::with_capacity((rounds * n as u64) as usize),
            round_p99s: Vec::with_capacity(rounds as usize),
            busy: Duration::ZERO,
        };
        point.groups(n.div_ceil(GROUP), frame, &mut Vec::new());
        point
    }

    /// `count` groups of [`GROUP`] depth-[`BURST`] pipelined bursts, on
    /// the connections round-robin from where the last group stopped,
    /// each burst measured from its write to its last reply — which
    /// includes the queueing the whole in-flight window imposes, the
    /// figure a loaded client actually sees.
    fn groups(&mut self, count: usize, frame: &Message, sample: &mut Vec<u64>) {
        for _ in 0..count {
            let group: Vec<usize> = (0..GROUP.min(self.n))
                .map(|i| (self.next + i) % self.n)
                .collect();
            self.next = (self.next + GROUP) % self.n;
            // Send a pipelined burst on every connection in the group…
            let mut burst_starts: Vec<(usize, Instant, u64)> = Vec::with_capacity(GROUP);
            for c in group {
                let mut bytes = Vec::new();
                let first_id = self.request_id;
                for _ in 0..BURST {
                    bytes.extend_from_slice(&frame.to_frame(self.request_id));
                    self.request_id += 1;
                }
                let t0 = Instant::now();
                self.conns[c].write_all(&bytes).expect("burst write");
                burst_starts.push((c, t0, first_id));
            }
            // …then collect every reply.
            for (c, t0, first_id) in burst_starts {
                for k in 0..BURST {
                    let (header, _body) = read_frame(&mut self.conns[c]).expect("burst reply");
                    assert_eq!(header.request_id, first_id + k as u64);
                    assert_ne!(header.msg_type, 0x7F, "authz query must not error");
                }
                sample.push(t0.elapsed().as_micros() as u64);
            }
        }
    }

    /// One measured round: its bursts join the point's sample, and its
    /// p99 the point's per-round p99s.
    fn round(&mut self, frame: &Message, round: &mut Vec<u64>) {
        round.clear();
        let started = Instant::now();
        self.groups(ROUND_GROUPS, frame, round);
        self.busy += started.elapsed();
        self.latencies.extend_from_slice(round);
        round.sort_unstable();
        self.round_p99s.push(percentile(round, 99.0));
    }

    /// The point's rows at `x = n`: throughput, burst p50, the median of
    /// the rounds' burst p99s, and the time to open the connections.
    fn rows(mut self) -> [Row; 4] {
        self.latencies.sort_unstable();
        self.round_p99s.sort_unstable();
        let ops = self.rounds * (ROUND_GROUPS * GROUP * BURST) as u64;
        let ops_per_s = ops as f64 / self.busy.as_secs_f64().max(1e-9);
        let p50 = percentile(&self.latencies, 50.0) as f64;
        let p99 = percentile(&self.round_p99s, 50.0) as f64;
        let point = |series, value, unit| Row::new("C10K", series, self.n as u64, value, unit);
        [
            point("event-loop-throughput", ops_per_s, "ops/s"),
            point("event-loop-burst-p50", p50, "µs"),
            point("event-loop-burst-p99", p99, "µs"),
            point("event-loop-connect", self.connect_secs, "s"),
        ]
    }
}

/// A fresh event-loop server per connection count in `conns`, all open
/// at once, their measured rounds interleaved so a noisy stretch of the
/// host falls on every point alike; then each point's rows, and
/// `event-loop-p99-ratio`: the p99 (the median of the rounds' p99s) at
/// the last count over the p99 at the first.
fn sweep(conns: &[usize], min_total_ops: u64) -> Vec<Row> {
    let frame = authz_query();
    let mut points: Vec<Point> = conns
        .iter()
        .map(|&n| Point::open(n, min_total_ops, &frame))
        .collect();
    let most = points.iter().map(|p| p.rounds).max().unwrap_or(0);
    let mut round = Vec::new();
    for r in 0..most {
        for point in points.iter_mut().filter(|p| r < p.rounds) {
            point.round(&frame, &mut round);
        }
    }
    let mut rows: Vec<Row> = points.into_iter().flat_map(Point::rows).collect();
    let p99: Vec<f64> = rows
        .iter()
        .filter(|row| row.series == "event-loop-burst-p99")
        .map(|row| row.value)
        .collect();
    let ratio = match (p99.first(), p99.last()) {
        (Some(&low), Some(&high)) if low > 0.0 => high / low,
        _ => f64::INFINITY,
    };
    let top = conns.last().copied().unwrap_or(0) as u64;
    rows.push(Row::new("C10K", "event-loop-p99-ratio", top, ratio, "x"));
    rows
}

/// Runs the C10k sweep, full or smoke, prints its rows and asserts its
/// gates: p99 (the median of the rounds' p99s) at the highest connection
/// count within 2× of the lowest, and (full) at least 5 000 connections.
///
/// # Panics
///
/// When a gate fails.
pub fn run(smoke: bool) -> Vec<Row> {
    let (conns, min_total_ops) = if smoke { SMOKE } else { FULL };
    let (low, top) = (conns[0], conns[conns.len() - 1]);
    assert!(
        smoke || top >= 5000,
        "full c10k sweep must reach at least 5000 concurrent connections"
    );
    let rows = sweep(conns, min_total_ops);
    rows.iter().for_each(Row::print);
    let ratio = value_of(&rows, "event-loop-p99-ratio");
    assert!(
        ratio <= 2.0,
        "p99 degraded more than 2x across the connection sweep: \
         {ratio:.2}x ({top} conns vs {low} conns)"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_every_point() {
        let rows = sweep(&[8, 32], 64);
        assert_eq!(rows.len(), 9);
        let at = |series: &str, x: u64| {
            rows.iter()
                .find(|row| row.series == series && row.x == x)
                .map(|row| row.value)
                .expect("row")
        };
        for x in [8, 32] {
            assert!(at("event-loop-throughput", x) > 0.0);
            assert!(at("event-loop-burst-p99", x) >= at("event-loop-burst-p50", x));
        }
        let ratio = at("event-loop-p99-ratio", 32);
        assert_eq!(
            ratio,
            at("event-loop-burst-p99", 32) / at("event-loop-burst-p99", 8)
        );
    }
}
