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

use crate::{percentile, rng, value_of, window, Row};

/// Connection counts (the scaling axis) and the minimum measured
/// requests per point (rounds are scaled up so small-`N` points still
/// collect a meaningful sample): the full sweep, and the smoke sweep
/// `ci.sh` runs.
const FULL: (&[usize], u64) = (&[64, 512, 2048, 6000], 8192);
const SMOKE: (&[usize], u64) = (&[64, 512], 2048);
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

/// Opens `n` connections, then drives `rounds` round-robin sweeps of
/// depth-[`BURST`] pipelined bursts in groups of [`GROUP`], measuring each
/// burst's round trip. Returns the point's rows at `x = n`: throughput,
/// burst p50 and p99, and the time to open the connections.
fn drive(addr: std::net::SocketAddr, n: usize, min_total_ops: u64) -> [Row; 4] {
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
    let per_round = (n * BURST) as u64;
    let rounds = min_total_ops.div_ceil(per_round.max(1)).max(1);

    let mut latencies: Vec<u64> = Vec::with_capacity((rounds * n as u64) as usize);
    let mut request_id: u64 = 0;

    // One full rotation over all connections, reply-buffer by
    // reply-buffer, measured per burst from its write to its last reply
    // — which includes the queueing the whole in-flight window imposes,
    // the figure a loaded client actually sees.
    let rotate = |conns: &mut [TcpStream], request_id: &mut u64, sample: &mut Vec<u64>| {
        for chunk_start in (0..n).step_by(GROUP) {
            let chunk_end = (chunk_start + GROUP).min(n);
            // Send a pipelined burst on every connection in the group…
            let mut burst_starts: Vec<(usize, Instant, u64)> = Vec::with_capacity(GROUP);
            for (c, conn) in conns
                .iter_mut()
                .enumerate()
                .take(chunk_end)
                .skip(chunk_start)
            {
                let mut bytes = Vec::new();
                let first_id = *request_id;
                for _ in 0..BURST {
                    bytes.extend_from_slice(&frame.to_frame(*request_id));
                    *request_id += 1;
                }
                let t0 = Instant::now();
                conn.write_all(&bytes).expect("burst write");
                burst_starts.push((c, t0, first_id));
            }
            // …then collect every reply.
            for (c, t0, first_id) in burst_starts {
                for k in 0..BURST {
                    let (header, _body) = read_frame(&mut conns[c]).expect("burst reply");
                    assert_eq!(header.request_id, first_id + k as u64);
                    assert_ne!(header.msg_type, 0x7F, "authz query must not error");
                }
                sample.push(t0.elapsed().as_micros() as u64);
            }
        }
    };

    // Warm-up rotation, unmeasured: first-touch costs (server-side
    // connection install, buffer growth, allocator and cache warm-up)
    // land here, so the measured rounds compare steady states across
    // connection counts rather than cold-start slopes.
    rotate(&mut conns, &mut request_id, &mut Vec::new());

    let started = Instant::now();
    for _ in 0..rounds {
        rotate(&mut conns, &mut request_id, &mut latencies);
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let ops_per_s = (rounds * per_round) as f64 / elapsed.as_secs_f64().max(1e-9);
    let p50 = percentile(&latencies, 50.0) as f64;
    let p99 = percentile(&latencies, 99.0) as f64;
    let point = |series, value, unit| Row::new("C10K", series, n as u64, value, unit);
    [
        point("event-loop-throughput", ops_per_s, "ops/s"),
        point("event-loop-burst-p50", p50, "µs"),
        point("event-loop-burst-p99", p99, "µs"),
        point("event-loop-connect", connect_secs, "s"),
    ]
}

/// A fresh event-loop server per connection count in `conns`, each
/// point's rows, then `event-loop-p99-ratio`: the p99 at the last count
/// over the p99 at the first.
fn sweep(conns: &[usize], min_total_ops: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in conns {
        let server = EventLoopServer::spawn_with(
            fig3_mux(),
            EventLoopOptions {
                workers: WORKERS,
                ..EventLoopOptions::default()
            },
            31,
        )
        .expect("spawn event-loop server");
        rows.extend(drive(server.addr(), n, min_total_ops));
    }
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
/// gates: p99 at the highest connection count within 2× of the lowest,
/// and (full) at least 5 000 connections.
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
