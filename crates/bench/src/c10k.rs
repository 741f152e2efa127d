//! C10k benchmark (`figures --c10k`): thousands of concurrent pipelined
//! loopback connections on the fig3 authz-query path, served by the
//! readiness-driven [`proxy_net::EventLoopServer`].
//!
//! ## What the sweep measures
//!
//! The connection count `N` sweeps from tens to thousands while the
//! **aggregate in-flight window stays fixed**: at any moment
//! `group × burst` requests (16 connections × depth-4 bursts = 64) are
//! outstanding, rotating round-robin over all `N` connections so every
//! connection is exercised. Holding the offered load constant makes the
//! latency series an honest scaling probe: if p99 stays flat as `N`
//! grows, open-but-quiet connections cost the active ones nothing —
//! which is exactly the property a readiness-driven server buys
//! (epoll waits are O(ready), not O(open)).
//!
//! Latency is recorded per burst (send of a connection's burst to its
//! last reply), so a point's p50/p99 reflect what one pipelined client
//! experiences while `N − group` other connections sit open.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer};
use proxy_crypto::keys::SymmetricKey;
use proxy_net::{EventLoopOptions, EventLoopServer, ServiceMux};
use proxy_wire::frame::read_frame;
use proxy_wire::Message;
use restricted_proxy::prelude::*;

use crate::{percentile, rng, window};

/// C10k harness configuration.
#[derive(Clone, Debug)]
pub struct C10kOptions {
    /// Connection counts to sweep (the scaling axis).
    pub conn_counts: Vec<usize>,
    /// Connections with a burst in flight at any moment.
    pub group: usize,
    /// Pipelined requests per connection per burst.
    pub burst: usize,
    /// Minimum measured requests per point (rounds are scaled up so
    /// small-`N` points still collect a meaningful latency sample).
    pub min_total_ops: u64,
    /// Event-loop worker threads serving the sweep.
    pub workers: usize,
}

impl Default for C10kOptions {
    fn default() -> Self {
        Self {
            conn_counts: vec![64, 512, 2048, 6000],
            group: 16,
            burst: 4,
            min_total_ops: 8192,
            workers: 1,
        }
    }
}

impl C10kOptions {
    /// A reduced-scale configuration for CI smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            conn_counts: vec![64, 512],
            min_total_ops: 2048,
            ..Self::default()
        }
    }
}

/// One measured point: connection count → throughput and burst latency.
#[derive(Clone, Copy, Debug)]
pub struct C10kPoint {
    /// Concurrent open connections.
    pub connections: usize,
    /// Requests completed across the whole point.
    pub total_ops: u64,
    /// Wall-clock seconds for the measured rounds (connect time
    /// excluded).
    pub elapsed_secs: f64,
    /// Requests per wall-clock second.
    pub ops_per_sec: f64,
    /// Median burst round-trip, microseconds.
    pub p50_us: u64,
    /// 99th-percentile burst round-trip, microseconds.
    pub p99_us: u64,
    /// Seconds to open (and get accepted on) all `connections`.
    pub connect_secs: f64,
}

/// The C10k report: one point per connection count.
#[derive(Clone, Debug)]
pub struct C10kReport {
    /// Event-loop worker threads used.
    pub workers: usize,
    /// Event-loop server, one point per connection count.
    pub event_loop: Vec<C10kPoint>,
}

impl C10kReport {
    /// p99 ratio of the highest-connection point over the lowest — the
    /// "flat p99" acceptance gate.
    #[must_use]
    pub fn p99_ratio(&self) -> f64 {
        match (self.event_loop.first(), self.event_loop.last()) {
            (Some(low), Some(high)) if low.p99_us > 0 => high.p99_us as f64 / low.p99_us as f64,
            _ => f64::INFINITY,
        }
    }

    /// Renders the report as a JSON object (hand-rolled; numbers only).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn point(p: &C10kPoint) -> String {
            format!(
                "{{\"connections\": {}, \"total_ops\": {}, \"elapsed_secs\": {:.4}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"connect_secs\": {:.4}}}",
                p.connections,
                p.total_ops,
                p.elapsed_secs,
                p.ops_per_sec,
                p.p50_us,
                p.p99_us,
                p.connect_secs
            )
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str("  \"event_loop\": [\n");
        for (i, p) in self.event_loop.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&point(p));
            out.push_str(if i + 1 < self.event_loop.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

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

/// Opens `n` connections, then drives `rounds` round-robin sweeps of
/// depth-`burst` pipelined bursts in groups of `group`, measuring each
/// burst's round trip.
fn drive(addr: std::net::SocketAddr, opts: &C10kOptions, n: usize) -> C10kPoint {
    let connect_start = Instant::now();
    let mut conns: Vec<TcpStream> = (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("c10k connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let connect_secs = connect_start.elapsed().as_secs_f64();

    let frame = authz_query();
    let burst = opts.burst.max(1);
    let group = opts.group.max(1);
    let per_round = (n * burst) as u64;
    let rounds = opts.min_total_ops.div_ceil(per_round.max(1)).max(1);

    let mut latencies: Vec<u64> = Vec::with_capacity((rounds * n as u64) as usize);
    let mut request_id: u64 = 0;

    // One full rotation over all connections, reply-buffer by
    // reply-buffer, measured per burst from its write to its last reply
    // — which includes the queueing the whole in-flight window imposes,
    // the figure a loaded client actually sees. `sample` is None for
    // warm-up rotations.
    let rotate =
        |conns: &mut [TcpStream], request_id: &mut u64, mut sample: Option<&mut Vec<u64>>| -> u64 {
            let mut ops = 0u64;
            for chunk_start in (0..n).step_by(group) {
                let chunk_end = (chunk_start + group).min(n);
                // Send a pipelined burst on every connection in the group…
                let mut burst_starts: Vec<(usize, Instant, u64)> = Vec::with_capacity(group);
                for (c, conn) in conns
                    .iter_mut()
                    .enumerate()
                    .take(chunk_end)
                    .skip(chunk_start)
                {
                    let mut bytes = Vec::new();
                    let first_id = *request_id;
                    for _ in 0..burst {
                        bytes.extend_from_slice(&frame.to_frame(*request_id));
                        *request_id += 1;
                    }
                    let t0 = Instant::now();
                    conn.write_all(&bytes).expect("burst write");
                    burst_starts.push((c, t0, first_id));
                }
                // …then collect every reply.
                for (c, t0, first_id) in burst_starts {
                    for k in 0..burst {
                        let (header, _body) = read_frame(&mut conns[c]).expect("burst reply");
                        assert_eq!(header.request_id, first_id + k as u64);
                        assert_ne!(header.msg_type, 0x7F, "authz query must not error");
                    }
                    let us = t0.elapsed().as_micros() as u64;
                    if let Some(sample) = sample.as_deref_mut() {
                        sample.push(us);
                    }
                    ops += burst as u64;
                }
            }
            ops
        };

    // Warm-up rotation, unmeasured: first-touch costs (server-side
    // connection install, buffer growth, allocator and cache warm-up)
    // land here, so the measured rounds compare steady states across
    // connection counts rather than cold-start slopes.
    rotate(&mut conns, &mut request_id, None);

    let mut total_ops: u64 = 0;
    let started = Instant::now();
    for _ in 0..rounds {
        total_ops += rotate(&mut conns, &mut request_id, Some(&mut latencies));
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    C10kPoint {
        connections: n,
        total_ops,
        elapsed_secs: elapsed.as_secs_f64(),
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        connect_secs,
    }
}

/// Runs the C10k sweep: a fresh event-loop server per connection count.
#[must_use]
pub fn run(opts: &C10kOptions) -> C10kReport {
    let event_loop = opts
        .conn_counts
        .iter()
        .map(|&n| {
            let server = EventLoopServer::spawn_with(
                fig3_mux(),
                EventLoopOptions {
                    workers: opts.workers,
                    ..EventLoopOptions::default()
                },
                31,
            )
            .expect("spawn event-loop server");
            drive(server.addr(), opts, n)
        })
        .collect();
    C10kReport {
        workers: opts.workers,
        event_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serializes() {
        let opts = C10kOptions {
            conn_counts: vec![8, 32],
            min_total_ops: 64,
            ..C10kOptions::default()
        };
        let report = run(&opts);
        assert_eq!(report.event_loop.len(), 2);
        for p in &report.event_loop {
            assert!(p.ops_per_sec > 0.0);
            assert!(p.p99_us >= p.p50_us);
            assert!(p.total_ops >= 64);
        }
        assert!(report.p99_ratio().is_finite());
        let json = report.to_json();
        assert!(json.contains("\"event_loop\""));
        let count = |c: char| json.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }
}
