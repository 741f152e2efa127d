//! Readiness-driven server invariants: partial reads and writes resume
//! across frame boundaries, a slow-loris sender costs patience but not
//! correctness, thousands of idle connections do not starve an active
//! one, write-queue backpressure pauses reading a connection whose
//! replies are backed up, idle connections are reaped, and the error
//! posture distinguishes a malformed body (typed reply, connection
//! kept) from broken framing (best-effort reply, then close).

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_net::{
    ClientOptions, EventLoopOptions, EventLoopServer, ServiceMux, TcpClient, Transport,
};
use proxy_wire::frame::read_frame;
use proxy_wire::{ErrorCode, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer, GroupServer};
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

/// A cheap total request: list groups for a requester.
fn ping() -> Message {
    Message::GroupQuery {
        requester: PrincipalId::new("C"),
        groups: vec!["staff".to_string()],
        validity: Validity::new(Timestamp(0), Timestamp(1000)),
    }
}

/// The Fig. 3 world behind one mux (same construction as the loopback
/// tests): authz server "R" that lets C read X at S, end-server S
/// trusting R, and a group server with C in "staff".
fn fig3_mux() -> ServiceMux<MapResolver> {
    let mut rng = StdRng::seed_from_u64(1);
    let r_key = SymmetricKey::generate(&mut rng);
    let mut authz = AuthorizationServer::new(
        p("R"),
        GrantAuthority::SharedKey(r_key.clone()),
        MapResolver::new(),
    );
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("C")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    let mut end = EndServer::new(
        p("S"),
        MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(r_key)),
    );
    end.acls.set(
        ObjectName::new("X"),
        Acl::new().with(AclSubject::Principal(p("R")), AclRights::all()),
    );
    let groups = GroupServer::new(
        p("G"),
        GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
    );
    groups.create_group("staff");
    groups.add_member("staff", p("C"));
    ServiceMux::new()
        .with_authz(Arc::new(authz))
        .with_end_server(Arc::new(end))
        .with_groups(Arc::new(groups))
}

fn spawn_default() -> EventLoopServer {
    EventLoopServer::spawn(Arc::new(fig3_mux()), 42).expect("spawn event-loop server")
}

#[test]
fn round_trips_a_call() {
    let server = spawn_default();
    let client = TcpClient::new(server.addr(), ClientOptions::default());
    let reply = client.call(&ping()).expect("call succeeds");
    assert!(matches!(reply, Message::GroupGrant { .. }));
}

/// A request trickled in one byte per write (with the server polling in
/// between) must still be answered: partial frames wait for more bytes,
/// across both the header/body boundary and byte boundaries inside each.
#[test]
fn slow_loris_one_byte_per_tick_still_gets_served() {
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let frame = ping().to_frame(7);
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        // Give the event loop a wakeup between bytes (cheap: readiness,
        // read of 1 byte, no complete frame, back to waiting).
        std::thread::sleep(Duration::from_millis(1));
    }
    let (header, body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 7);
    let reply = Message::decode_body(header.msg_type, &body).unwrap();
    assert!(matches!(reply, Message::GroupGrant { .. }));
}

/// Two frames split at an arbitrary byte offset across two writes: the
/// second read must resume the partial frame and answer both.
#[test]
fn partial_reads_resume_across_frame_boundaries() {
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut bytes = ping().to_frame(1);
    bytes.extend_from_slice(&ping().to_frame(2));
    // Split mid-way through the second frame's header.
    let split = ping().to_frame(1).len() + 9;
    stream.write_all(&bytes[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    stream.write_all(&bytes[split..]).unwrap();
    stream.flush().unwrap();
    for expected_id in [1, 2] {
        let (header, body) = read_frame(&mut stream).unwrap();
        assert_eq!(header.request_id, expected_id);
        let reply = Message::decode_body(header.msg_type, &body).unwrap();
        assert!(matches!(reply, Message::GroupGrant { .. }));
    }
}

/// A deep pipeline sent in one burst comes back complete and in order —
/// reply packing and (if the socket buffer fills) partial-write resume.
#[test]
fn deep_pipeline_replies_complete_and_ordered() {
    const DEPTH: u64 = 256;
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut bytes = Vec::new();
    for id in 0..DEPTH {
        bytes.extend_from_slice(&ping().to_frame(id));
    }
    stream.write_all(&bytes).unwrap();
    stream.flush().unwrap();
    for expected_id in 0..DEPTH {
        let (header, _body) = read_frame(&mut stream).unwrap();
        assert_eq!(header.request_id, expected_id);
    }
}

/// Two thousand connections sit idle while one keeps calling: the active
/// connection must stay served (readiness-driven waits are O(ready), and
/// idle sockets cost nothing per wakeup).
#[test]
fn thousands_of_idle_connections_do_not_starve_an_active_one() {
    const IDLE: usize = 2000;
    let server = spawn_default();
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(server.addr()).expect("idle connect"))
        .collect();
    let client = TcpClient::new(server.addr(), ClientOptions::default());
    // Warm the pooled connection, then time the steady state.
    client.call(&ping()).expect("warmup");
    let start = Instant::now();
    for _ in 0..50 {
        let reply = client.call(&ping()).expect("active call");
        assert!(matches!(reply, Message::GroupGrant { .. }));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "50 calls took {elapsed:?} with {IDLE} idle connections"
    );
    drop(idle);
}

/// A client that stops reading replies gets paused, not buffered
/// without bound: once the backlog crosses `write_queue_cap` the server
/// stops reading the connection, which surfaces to the sender as a stall
/// (its writes stop draining). Reading the replies un-pauses it and
/// every request is answered exactly once.
#[test]
fn backpressure_pauses_reading_a_backed_up_connection() {
    let opts = EventLoopOptions {
        write_queue_cap: 8 * 1024,
        ..EventLoopOptions::default()
    };
    let server =
        EventLoopServer::spawn_with(Arc::new(fig3_mux()), opts, 42).expect("spawn with options");
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_nonblocking(true).unwrap();

    // Garbage AuthzQuery bodies: correctly framed, instantly answered
    // with a typed error (no crypto), so the reply stream backs up as
    // fast as the request stream arrives. Every frame has the same
    // length (fixed-width header, same body), which lets a flat byte
    // cursor count complete frames even if the stall lands mid-frame.
    const FRAMES: u64 = 400_000;
    let one = proxy_wire::frame::encode_frame(0x01, 0, &[0xFF; 8]);
    let frame_len = one.len();
    let mut bytes = Vec::with_capacity(frame_len * FRAMES as usize);
    for id in 0..FRAMES {
        bytes.extend_from_slice(&proxy_wire::frame::encode_frame(0x01, id, &[0xFF; 8]));
    }

    // Send without ever reading. The replies fill the server's socket
    // buffer, then its write queue; past the cap the server stops
    // reading this connection, so the requests jam the receive-side
    // buffers and our send side stalls.
    let mut sent = 0usize;
    let mut quiet = Duration::ZERO;
    let stalled = loop {
        if sent >= bytes.len() {
            break false;
        }
        match (&stream).write(&bytes[sent..]) {
            Ok(n) => {
                sent += n;
                quiet = Duration::ZERO;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if quiet >= Duration::from_millis(500) {
                    break true; // no forward progress for 500 ms: stalled
                }
                std::thread::sleep(Duration::from_millis(5));
                quiet += Duration::from_millis(5);
            }
            Err(e) => panic!("send failed: {e}"),
        }
    };
    assert!(
        stalled,
        "send side never stalled after {sent} bytes; backpressure did not engage"
    );
    let complete_frames = (sent / frame_len) as u64;
    assert!(complete_frames > 0);

    // Now drain the replies; the server must resume reading and answer
    // every completely-sent request exactly once, in order. (A trailing
    // partial frame, if the stall split one, is simply never completed.)
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut stream = stream;
    for expected_id in 0..complete_frames {
        let (header, _body) = read_frame(&mut stream).expect("reply after backpressure release");
        assert_eq!(header.request_id, expected_id);
    }
}

/// Connections silent past `idle_timeout` are closed by the server; a
/// fresh request on the reaped socket fails, a new dial succeeds.
#[test]
fn idle_connections_are_reaped() {
    let opts = EventLoopOptions {
        idle_timeout: Duration::from_millis(100),
        ..EventLoopOptions::default()
    };
    let server =
        EventLoopServer::spawn_with(Arc::new(fig3_mux()), opts, 42).expect("spawn with options");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&ping().to_frame(1)).unwrap();
    let (header, _body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 1);

    // Sit idle well past the timeout (reap sweeps run at timeout/4).
    std::thread::sleep(Duration::from_millis(400));
    // The reaped socket is dead: either the write fails or the read
    // returns EOF/reset instead of a reply.
    let dead = match stream.write_all(&ping().to_frame(2)).and(stream.flush()) {
        Err(_) => true,
        Ok(()) => read_frame(&mut stream).is_err(),
    };
    assert!(dead, "connection survived past idle_timeout");

    // A fresh dial is served normally.
    let mut fresh = TcpStream::connect(server.addr()).unwrap();
    fresh.write_all(&ping().to_frame(3)).unwrap();
    let (header, _body) = read_frame(&mut fresh).unwrap();
    assert_eq!(header.request_id, 3);
}

/// A garbled body inside an intact frame earns a typed error reply and
/// the connection keeps serving.
#[test]
fn malformed_body_gets_typed_error_and_connection_survives() {
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // msg_type 0x01 (AuthzQuery) with a garbage body, correctly framed.
    let garbage = proxy_wire::frame::encode_frame(0x01, 9, &[0xFF; 8]);
    stream.write_all(&garbage).unwrap();
    let (header, body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 9);
    match Message::decode_body(header.msg_type, &body).unwrap() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error reply, got {other:?}"),
    }
    // Framing stayed in sync: the next request is served normally.
    stream.write_all(&ping().to_frame(10)).unwrap();
    let (header, _body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 10);
}

/// Broken framing (bad magic) earns a best-effort error reply and then
/// the connection is closed — the byte stream cannot re-synchronize.
#[test]
fn broken_framing_gets_error_reply_then_close() {
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"NOTAFRAMENOTAFRAME").unwrap();
    let (header, body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 0);
    match Message::decode_body(header.msg_type, &body).unwrap() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error reply, got {other:?}"),
    }
    // Then EOF: the server closed after flushing the error.
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(1), 0);
    assert!(rest.is_empty());
}

/// A request racing the client's write-side shutdown is still answered:
/// the hangup path drains buffered bytes before closing.
#[test]
fn request_racing_a_half_close_is_still_answered() {
    let server = spawn_default();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&ping().to_frame(11)).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (header, _body) = read_frame(&mut stream).unwrap();
    assert_eq!(header.request_id, 11);
}

/// Multiple event-loop workers share the listener; connections land on
/// both and every call is served.
#[test]
fn multiple_workers_share_the_listener() {
    let opts = EventLoopOptions {
        workers: 2,
        ..EventLoopOptions::default()
    };
    let server =
        EventLoopServer::spawn_with(Arc::new(fig3_mux()), opts, 42).expect("spawn with options");
    let streams: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    for (i, mut stream) in streams.into_iter().enumerate() {
        let id = i as u64;
        stream.write_all(&ping().to_frame(id)).unwrap();
        let (header, _body) = read_frame(&mut stream).unwrap();
        assert_eq!(header.request_id, id);
    }
}
