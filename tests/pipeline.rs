//! Pipelined wire-path invariants over real TCP sockets: correlation of
//! out-of-order replies, per-request denial isolation, the accept-once
//! replay cache under deep pipelines and racing pipelined clients, the
//! fail-closed treatment of unknown restriction tags arriving mid-stream,
//! and pooled-connection recovery after server disconnects (including a
//! disconnect that lands mid-frame).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer};
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::net::{
    ClientOptions, EventLoopOptions, EventLoopServer, NetError, RetryPolicy, ServiceMux, TcpClient,
    Transport,
};
use proxy_aa::proxy::prelude::*;
use proxy_aa::wire::frame::{read_frame, write_frame};
use proxy_aa::wire::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1000))
}

fn spawn(mux: ServiceMux<MapResolver>, workers: usize, seed: u64) -> EventLoopServer {
    EventLoopServer::spawn_with(
        Arc::new(mux),
        EventLoopOptions {
            workers,
            ..EventLoopOptions::default()
        },
        seed,
    )
    .expect("spawn server")
}

/// An end-server "S" trusting grantor "alice" (shared key), with an ACL
/// granting alice reads on "X". Returns the mux and alice's authority.
fn end_world(seed: u64) -> (ServiceMux<MapResolver>, GrantAuthority) {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = SymmetricKey::generate(&mut rng);
    let mut end = EndServer::new(
        p("S"),
        MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(key.clone())),
    );
    end.acls.set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("alice")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    (
        ServiceMux::new().with_end_server(Arc::new(end)),
        GrantAuthority::SharedKey(key),
    )
}

/// An EndRequest presenting `pres` for a read of "X".
fn read_x(pres: Presentation) -> Message {
    Message::EndRequest {
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        authenticated: vec![],
        presentations: vec![pres],
        now: Timestamp(1),
        amounts: vec![],
    }
}

/// Replies are matched to requests by correlation id, so a batch mixing
/// grants and denials must come back with each verdict in its own slot.
#[test]
fn pipelined_replies_correlate_and_isolate_denials() {
    let mut rng = StdRng::seed_from_u64(1);
    let key = SymmetricKey::generate(&mut rng);
    let mut authz =
        AuthorizationServer::new(p("R"), GrantAuthority::SharedKey(key), MapResolver::new());
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("C")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    let mux = ServiceMux::new().with_authz(Arc::new(authz));
    let srv = spawn(mux, 2, 1);

    let query = |op: &str| Message::AuthzQuery {
        client: p("C"),
        presentations: vec![],
        end_server: p("S"),
        operation: Operation::new(op),
        object: ObjectName::new("X"),
        validity: window(),
        now: Timestamp(1),
    };
    let requests: Vec<Message> = (0..32)
        .map(|i| query(if i % 2 == 0 { "read" } else { "write" }))
        .collect();
    let client = TcpClient::new(srv.addr(), ClientOptions::default());
    let results = client.call_pipelined(&requests, 8);
    assert_eq!(results.len(), 32);
    for (i, result) in results.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                matches!(result, Ok(Message::AuthzGrant { .. })),
                "read {i} must be granted: {result:?}"
            );
        } else {
            assert!(
                matches!(result, Err(NetError::Remote { .. })),
                "write {i} must be denied without disturbing the pipeline: {result:?}"
            );
        }
    }
}

/// §7.7 over the wire: one accept-once proxy presented 24 times by two
/// racing pipelined clients is honored exactly once — the server's
/// lock-striped replay cache is the single linearization point even when
/// each connection keeps many requests in flight.
#[test]
fn accept_once_is_honored_exactly_once_across_racing_pipelines() {
    let (mux, authority) = end_world(2);
    let srv = spawn(mux, 4, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let proxy = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new().with(Restriction::AcceptOnce { id: 7 }),
        window(),
        1,
        &mut rng,
    );

    let accepted: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u8)
            .map(|t| {
                let (srv, proxy) = (&srv, &proxy);
                s.spawn(move || {
                    let requests: Vec<Message> = (0..12u8)
                        .map(|i| read_x(proxy.present_bearer([t * 12 + i + 1; 32], &p("S"))))
                        .collect();
                    let client = TcpClient::new(srv.addr(), ClientOptions::default());
                    client
                        .call_pipelined(&requests, 8)
                        .iter()
                        .filter(|r| r.is_ok())
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("presenter"))
            .sum()
    });
    assert_eq!(
        accepted, 1,
        "accept-once honored exactly once under pipelined racing"
    );
}

/// Distinct accept-once ids in one deep pipeline all clear: the replay
/// cache rejects repeats, not concurrency.
#[test]
fn distinct_accept_once_ids_all_clear_one_deep_pipeline() {
    let (mux, authority) = end_world(4);
    let srv = spawn(mux, 2, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let requests: Vec<Message> = (0..16u64)
        .map(|i| {
            let proxy = grant(
                &p("alice"),
                &authority,
                RestrictionSet::new().with(Restriction::AcceptOnce { id: i }),
                window(),
                i,
                &mut rng,
            );
            read_x(proxy.present_bearer([i as u8 + 1; 32], &p("S")))
        })
        .collect();
    let client = TcpClient::new(srv.addr(), ClientOptions::default());
    let results = client.call_pipelined(&requests, 16);
    assert!(
        results.iter().all(Result::is_ok),
        "every distinct accept-once id must clear: {results:?}"
    );
}

/// Fail-closed mid-pipeline: a frame whose certificate carries an
/// unknown restriction tag (a restriction this implementation cannot
/// interpret) is denied with a typed error, while well-formed frames
/// before and after it on the same connection are answered normally.
#[test]
fn unknown_restriction_tag_denies_only_its_own_request_mid_pipeline() {
    let (mux, authority) = end_world(6);
    let srv = spawn(mux, 2, 4);
    let mut rng = StdRng::seed_from_u64(7);

    let mut bearer = |serial: u64, nonce: u8| {
        let proxy = grant(
            &p("alice"),
            &authority,
            RestrictionSet::new(),
            window(),
            serial,
            &mut rng,
        );
        read_x(proxy.present_bearer([nonce; 32], &p("S")))
    };
    let good_before = bearer(1, 1);
    let good_after = bearer(2, 2);

    // A marker accept-once id makes the restriction's encoded bytes
    // recognizable: tag 7 followed by eight 0x5A bytes. Rewriting the
    // tag to 99 yields a syntactically intact frame (the CRC is computed
    // over the mutated body) whose restriction set no longer decodes.
    let marked = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new().with(Restriction::AcceptOnce {
            id: 0x5A5A_5A5A_5A5A_5A5A,
        }),
        window(),
        3,
        &mut rng,
    );
    let hostile = read_x(marked.present_bearer([3; 32], &p("S")));
    let mut body = hostile.encode_body();
    let pattern: [u8; 9] = [7, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A];
    let pos = body
        .windows(pattern.len())
        .position(|w| w == pattern)
        .expect("marker restriction bytes present in encoded request");
    body[pos] = 99;

    let mut stream = TcpStream::connect(srv.addr()).expect("connect");
    write_frame(
        &mut stream,
        good_before.msg_type(),
        1,
        &good_before.encode_body(),
    )
    .expect("send frame 1");
    write_frame(&mut stream, hostile.msg_type(), 2, &body).expect("send frame 2");
    write_frame(
        &mut stream,
        good_after.msg_type(),
        3,
        &good_after.encode_body(),
    )
    .expect("send frame 3");

    for _ in 0..3 {
        let (header, reply_body) = read_frame(&mut stream).expect("read reply");
        let reply = Message::decode_body(header.msg_type, &reply_body).expect("decode reply");
        match header.request_id {
            1 | 3 => assert!(
                matches!(reply, Message::EndDecision { .. }),
                "well-formed request {} must be answered: {reply:?}",
                header.request_id
            ),
            2 => assert!(
                matches!(reply, Message::Error { .. }),
                "unknown restriction must be denied: {reply:?}"
            ),
            other => panic!("reply to unsent request id {other}"),
        }
    }
}

/// How one accepted connection of the scripted flaky server behaves.
enum Behavior {
    /// Answer `n` requests, then close the connection.
    Serve(usize),
    /// Answer one request; on the next, send half a reply frame and
    /// close mid-frame.
    ThenPartial,
    /// Answer requests until the client goes away.
    Tail,
}

/// Answers one framed request with an empty `EndDecision` echoing the
/// request's correlation id. Returns false once the peer is gone.
fn serve_one(stream: &mut TcpStream) -> bool {
    use std::io::Write;
    let Ok((header, _body)) = read_frame(stream) else {
        return false;
    };
    let reply = Message::EndDecision {
        principals: vec![],
        groups: vec![],
    };
    let mut out = Vec::new();
    reply.encode_frame_into(&mut out, header.request_id);
    stream.write_all(&out).is_ok()
}

/// A protocol-speaking server that follows `script`, one entry per
/// accepted connection — the controlled way to close connections under
/// the client at precise points.
fn flaky_server(script: Vec<Behavior>) -> (SocketAddr, JoinHandle<()>) {
    use std::io::Write;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        for behavior in script {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            match behavior {
                Behavior::Serve(n) => {
                    for _ in 0..n {
                        if !serve_one(&mut stream) {
                            break;
                        }
                    }
                }
                Behavior::ThenPartial => {
                    serve_one(&mut stream);
                    if let Ok((header, _)) = read_frame(&mut stream) {
                        let reply = Message::EndDecision {
                            principals: vec![],
                            groups: vec![],
                        };
                        let mut out = Vec::new();
                        reply.encode_frame_into(&mut out, header.request_id);
                        let _ = stream.write_all(&out[..out.len() / 2]);
                    }
                }
                Behavior::Tail => while serve_one(&mut stream) {},
            }
        }
    });
    (addr, handle)
}

fn no_retry_client(addr: SocketAddr) -> TcpClient {
    TcpClient::new(
        addr,
        ClientOptions {
            retry: RetryPolicy::none(),
            ..ClientOptions::default()
        },
    )
}

fn ping() -> Message {
    Message::EndRequest {
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        authenticated: vec![],
        presentations: vec![],
        now: Timestamp(1),
        amounts: vec![],
    }
}

/// A pooled connection the server closed while it sat idle is discarded
/// and redialed transparently — with the retry budget at zero, so the
/// recovery is the pool's, not the retry loop's.
#[test]
fn stale_pooled_connection_is_discarded_and_redialed() {
    let (addr, server) = flaky_server(vec![Behavior::Serve(1), Behavior::Tail]);
    let client = no_retry_client(addr);
    assert!(client.call(&ping()).is_ok(), "first call on a fresh dial");
    // The server has closed the pooled connection; the next call must
    // notice, discard it, and answer over a fresh dial.
    assert!(
        client.call(&ping()).is_ok(),
        "stale pooled connection must be replaced transparently"
    );
    assert!(client.call(&ping()).is_ok(), "the fresh connection pools");
    drop(client);
    server.join().expect("server thread");
}

/// A disconnect landing mid-frame (half a reply on the wire) must not
/// confuse the client: the dead connection is discarded and the request
/// completes over a fresh dial, again with no retry budget.
#[test]
fn mid_frame_disconnect_discards_the_pooled_connection() {
    let (addr, server) = flaky_server(vec![Behavior::ThenPartial, Behavior::Tail]);
    let client = no_retry_client(addr);
    assert!(client.call(&ping()).is_ok(), "first call on a fresh dial");
    assert!(
        client.call(&ping()).is_ok(),
        "mid-frame disconnect must be recovered on a fresh dial"
    );
    assert_eq!(
        client.pooled_connections(),
        1,
        "dead socket never re-pooled"
    );
    drop(client);
    server.join().expect("server thread");
}

/// A whole pipelined batch landing on a stale pooled connection restarts
/// transparently on a fresh dial — no reply was received, so no request
/// can have been executed twice.
#[test]
fn pipelined_batch_recovers_from_a_stale_pooled_connection() {
    let (addr, server) = flaky_server(vec![Behavior::Serve(4), Behavior::Tail]);
    let client = no_retry_client(addr);
    let batch: Vec<Message> = (0..4).map(|_| ping()).collect();
    let first = client.call_pipelined(&batch, 2);
    assert!(first.iter().all(Result::is_ok), "fresh pipeline: {first:?}");
    // The server closed the connection after the fourth reply.
    let second = client.call_pipelined(&batch, 4);
    assert!(
        second.iter().all(Result::is_ok),
        "stale pooled pipeline must restart on a fresh dial: {second:?}"
    );
    drop(client);
    server.join().expect("server thread");
}

/// A **server-initiated** close — the event-loop server's idle reaper —
/// must surface to a pooled client as an ordinary stale connection:
/// discarded on the next call and redialed transparently, with the retry
/// budget at zero. This is the contract that lets the server reap
/// abandoned sockets without clients ever observing an error.
#[test]
fn server_side_idle_reap_surfaces_as_clean_redial() {
    let (mux, authority) = end_world(9);
    let srv = EventLoopServer::spawn_with(
        Arc::new(mux),
        EventLoopOptions {
            idle_timeout: std::time::Duration::from_millis(100),
            tick: std::time::Duration::from_millis(10),
            ..EventLoopOptions::default()
        },
        9,
    )
    .expect("event-loop server");
    let mut rng = StdRng::seed_from_u64(9);
    let proxy = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    );
    let client = no_retry_client(srv.addr());
    let first = client.call(&read_x(proxy.present_bearer([1u8; 32], &p("S"))));
    assert!(first.is_ok(), "first call on a fresh dial: {first:?}");
    assert_eq!(client.pooled_connections(), 1, "connection pooled");

    // Sit idle past the server's reap horizon (sweeps run at timeout/4).
    std::thread::sleep(std::time::Duration::from_millis(400));

    // The pooled socket is now dead server-side; the next call must
    // notice, discard it, and answer over a fresh dial — no error, no
    // retry budget consumed.
    let second = client.call(&read_x(proxy.present_bearer([2u8; 32], &p("S"))));
    assert!(
        second.is_ok(),
        "reaped pooled connection must be replaced transparently: {second:?}"
    );

    // And a pipelined batch after another reap recovers the same way.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let batch: Vec<Message> = (3..7u8)
        .map(|i| read_x(proxy.present_bearer([i; 32], &p("S"))))
        .collect();
    let results = client.call_pipelined(&batch, 4);
    assert!(
        results.iter().all(Result::is_ok),
        "pipelined batch after a server-side reap must restart cleanly: {results:?}"
    );
}
