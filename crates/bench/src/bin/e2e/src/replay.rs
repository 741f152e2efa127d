//! The in-process replay: one workload's requests taken, on one thread,
//! through every step a round trip crosses and through the layers
//! beneath the service entry point, each call inside a span.

use std::sync::Arc;

use proxy_accounting::{account_object, debit_op, Check};
use proxy_authz::{EndServer, Request};
use proxy_crypto::ed25519::{self, Signature, VerifyingKey};
use proxy_crypto::hmac::HmacSha256;
use proxy_wire::frame::split_frame;
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::*;

use crate::harness::HostLog;
use crate::spans::{Round, Sink, TimedReplay};
use crate::stats::CALIB_REF_NS;
use crate::worlds::{Inputs, Workload, World, NOW, REPLAY_CAPACITY};

/// Operations a sub-microsecond step is timed over at once: two clock
/// reads cost about as much as a `split_frame` of a 73-byte frame.
pub const BATCH: usize = 64;

/// The direct service call behind `ServiceMux::handle` for `request`.
fn call_service(inputs: &Inputs, request: &Message, rng: &mut StdRng) -> Result<(), String> {
    match (inputs, request) {
        (
            Inputs::Fig3 { authz, .. },
            Message::AuthzQuery {
                client,
                presentations,
                end_server,
                operation,
                object,
                validity,
                now,
            },
        ) => authz
            .request_authorization(
                client,
                presentations,
                end_server,
                operation,
                object,
                *validity,
                *now,
                rng,
            )
            .map(drop)
            .map_err(|e| e.to_string()),
        (
            Inputs::Fig4 { end, .. },
            Message::EndRequest {
                operation,
                object,
                authenticated,
                presentations,
                now,
                amounts,
            },
        ) => {
            // Built as `ServiceMux::handle` builds it from the message.
            let request = Request {
                operation: operation.clone(),
                object: object.clone(),
                authenticated: authenticated.clone(),
                presentations: presentations.clone(),
                now: *now,
                amounts: amounts.clone(),
            };
            end.authorize(&request).map(drop).map_err(|e| e.to_string())
        }
        (
            Inputs::Fig5 { bank, .. },
            Message::CheckDeposit {
                check,
                depositor,
                to_account,
                next_hop,
                now,
            },
        ) => {
            let check = Check {
                proxy: check.clone(),
            };
            bank.deposit(&check, depositor, to_account, next_hop.clone(), *now, rng)
                .map(drop)
                .map_err(|e| e.to_string())
        }
        _ => Err("request does not belong to this workload".to_owned()),
    }
}

/// The span name of the workload's direct service call.
pub fn service_span(workload: Workload) -> &'static str {
    match workload {
        Workload::Fig3Query => "authz.request_authorization",
        Workload::Fig4Hot | Workload::Fig4Cold => "authz.authorize",
        Workload::Fig5Mem | Workload::Fig5Wal => "accounting.deposit",
    }
}

/// A verifier configured like the one inside the workload's server
/// (seal cache of 1 024, revocation directory attached), the context
/// that server verifies in, and the replay cache behind the timing
/// guard. `None` on fig3, whose queries carry no proxy.
struct ChainVerifier {
    verifier: Verifier<MapResolver>,
    ctx: RequestContext,
    replay: ReplayCache,
    /// The key that seals the head certificate of every chain.
    head_key: VerifyingKey,
}

impl ChainVerifier {
    fn for_world(world: &World) -> Option<ChainVerifier> {
        let (server, grantor, key, ctx) = match &world.inputs {
            Inputs::Fig3 { .. } => return None,
            Inputs::Fig4 {
                grantor,
                grantor_key,
                ..
            } => {
                let server = PrincipalId::new("S");
                let ctx = RequestContext::new(
                    server.clone(),
                    Operation::new("read"),
                    ObjectName::new("doc"),
                );
                (server, grantor.clone(), grantor_key.clone(), ctx.at(NOW))
            }
            Inputs::Fig5 { payor_key, .. } => {
                // As `AccountingServer` builds it for a check drawn on
                // itself: the depositor and the server are authenticated.
                let server = PrincipalId::new("bank");
                let mut ctx =
                    RequestContext::new(server.clone(), debit_op(), account_object("acct"))
                        .at(NOW)
                        .consuming(Currency::new("USD"), 1);
                ctx.authenticated = vec![PrincipalId::new("shop"), server.clone()];
                (server, PrincipalId::new("payor"), payor_key.clone(), ctx)
            }
        };
        let GrantorVerifier::PublicKey(head_key) = key else {
            return None;
        };
        let verifier = Verifier::new(server, MapResolver::new().with(grantor, key))
            .with_seal_cache(EndServer::<MapResolver>::SEAL_CACHE_CAPACITY)
            .with_revocation(Arc::new(RevocationDirectory::new()));
        Some(ChainVerifier {
            verifier,
            ctx,
            replay: ReplayCache::with_capacity(REPLAY_CAPACITY, ReplayCache::DEFAULT_SHARDS),
            head_key,
        })
    }
}

/// The presentation a request carries, as its server verifies it, and
/// the time it is verified at.
fn presentation_of(request: &Message) -> Option<(Presentation, Timestamp)> {
    match request {
        Message::EndRequest {
            presentations, now, ..
        } => Some((presentations.first()?.clone(), *now)),
        Message::CheckDeposit { check, now, .. } => Some((check.present_delegate(), *now)),
        _ => None,
    }
}

/// One Ed25519 check a chain asks for: message, signature, key.
type Seal = (Vec<u8>, Signature, VerifyingKey);

/// The chain's own seals: each certificate's body under the key that
/// sealed it.
fn seals_of(presentation: &Presentation, head_key: VerifyingKey) -> Vec<Seal> {
    let mut key = head_key;
    let mut seals = Vec::with_capacity(presentation.certs.len());
    for cert in &presentation.certs {
        if let CertSeal::Ed25519(sig) = &cert.seal {
            seals.push((cert.body_bytes(), *sig, key));
        }
        if let KeyMaterial::PublicKey(next) = &cert.key_material {
            key = *next;
        }
    }
    seals
}

fn has_ed25519_possession(presentation: &Presentation) -> bool {
    matches!(presentation.proof, Proof::Possession { .. })
        && presentation
            .certs
            .last()
            .is_some_and(|c| matches!(c.key_material, KeyMaterial::PublicKey(_)))
}

/// The in-process replay of one workload.
pub struct Replay<'a> {
    /// The replayed world: built like the served one, never served.
    pub world: World,
    sink: &'a Sink,
    /// The randomness `ServiceMux::handle` and the services draw on.
    pub rng: StdRng,
    chain: Option<ChainVerifier>,
    next_req: u64,
    /// Cache misses per verified presentation, measured on the
    /// stand-alone verifier: the seals `crypto.per_op` re-checks.
    crypto_seals_per_op: usize,
    /// Body of the most recent fig3 grant, for [`Self::grant_hmac`].
    last_grant_body: Option<Vec<u8>>,
    /// `(request, reply)` frame lengths seen.
    pub frame_bytes: (Vec<f64>, Vec<f64>),
    /// Presentations verified.
    pub presentations_seen: usize,
    /// How many of them carried an Ed25519 possession proof.
    pub possession_checks: usize,
    /// Everything that went wrong, empty when nothing did.
    pub problems: Vec<String>,
}

impl<'a> Replay<'a> {
    /// A replay of `world` recording into `sink`. Its request
    /// identifiers start far from the TCP side's.
    pub fn new(world: World, sink: &'a Sink, seed: u64) -> Replay<'a> {
        let chain = ChainVerifier::for_world(&world);
        Replay {
            world,
            sink,
            rng: StdRng::seed_from_u64(seed),
            chain,
            next_req: 1 << 40,
            crypto_seals_per_op: 0,
            last_grant_body: None,
            frame_bytes: (Vec::new(), Vec::new()),
            presentations_seen: 0,
            possession_checks: 0,
            problems: Vec::new(),
        }
    }

    fn take_req_ids(&mut self, n: usize) -> u64 {
        let first = self.next_req;
        self.next_req += n as u64;
        first
    }

    /// One batch through the seven round-trip steps.
    pub fn wire_and_handle(&mut self) {
        let requests = self.world.next_batch(BATCH);
        let first = self.take_req_ids(BATCH);
        let sink = self.sink;
        sink.span("replay.batch", Some(first), BATCH, || {
            let mut frames: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
            sink.span("wire.encode_req", None, BATCH, || {
                for (i, (request, out)) in requests.iter().zip(&mut frames).enumerate() {
                    request.encode_frame_into(out, first + i as u64);
                }
            });
            let split = sink.span("wire.split_req", None, BATCH, || split_all(&frames));
            let decoded = sink.span("wire.decode_req", None, BATCH, || decode_all(&split));
            let (Ok(split), Ok(decoded)) = (split, decoded) else {
                self.problems
                    .push("a request frame did not survive the wire".to_owned());
                return;
            };
            drop(split);
            self.frame_bytes
                .0
                .extend(frames.iter().map(|f| f.len() as f64));
            let replies: Vec<Message> = decoded
                .into_iter()
                .enumerate()
                .map(|(i, request)| {
                    let req = Some(first + i as u64);
                    sink.span("net.mux_handle", req, 1, || {
                        self.world.mux.handle(request, &mut self.rng)
                    })
                })
                .collect();
            let mut frames: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
            sink.span("wire.encode_reply", None, BATCH, || {
                for (i, (reply, out)) in replies.iter().zip(&mut frames).enumerate() {
                    reply.encode_frame_into(out, first + i as u64);
                }
            });
            let split = sink.span("wire.split_reply", None, BATCH, || split_all(&frames));
            let decoded = sink.span("wire.decode_reply", None, BATCH, || decode_all(&split));
            self.frame_bytes
                .1
                .extend(frames.iter().map(|f| f.len() as f64));
            if let Some(Message::AuthzGrant { proxy }) = replies.last() {
                self.last_grant_body = Some(proxy.final_cert().body_bytes());
            }
            match decoded {
                Ok(decoded) => {
                    for (i, reply) in decoded.iter().enumerate() {
                        self.world.record_reply(reply, i == 0);
                    }
                }
                Err(e) => self
                    .problems
                    .push(format!("a reply frame did not survive the wire: {e}")),
            }
        });
    }

    /// One batch of direct calls into the workload's service. Returns
    /// the batch: the stand-alone verifier is shown the same chains.
    pub fn service_direct(&mut self) -> Vec<Message> {
        let requests = self.world.next_batch(BATCH);
        let first = self.take_req_ids(BATCH);
        let name = service_span(self.world.workload);
        for (i, request) in requests.iter().enumerate() {
            let result = self.sink.span(name, Some(first + i as u64), 1, || {
                call_service(&self.world.inputs, request, &mut self.rng)
            });
            // The world's tally counts what went through `handle`; a
            // refused direct call is reported on its own.
            if let Err(e) = result {
                self.problems.push(format!("{name} refused: {e}"));
            } else if let Inputs::Fig5 { settled, .. } = &mut self.world.inputs {
                *settled += 1;
            }
        }
        requests
    }

    /// The chains of `requests` through `Verifier::verify` (which has
    /// its own seal cache and replay guard, so they are as new to it as
    /// they were to the service), then the crypto those verifications
    /// needed, called directly.
    pub fn verify_and_crypto(&mut self, requests: &[Message]) {
        if self.chain.is_none() {
            return;
        }
        let first = self.take_req_ids(requests.len());
        let Some(chain) = &self.chain else { return };
        let sink = self.sink;
        let (presentations, times): (Vec<Presentation>, Vec<Timestamp>) =
            requests.iter().filter_map(presentation_of).unzip();
        // One batch, one tick.
        let ctx = chain.ctx.clone().at(times.first().copied().unwrap_or(NOW));
        let misses_before = chain.verifier.seal_cache().map_or(0, |c| c.stats().1);
        for (i, presentation) in presentations.iter().enumerate() {
            let mut guard = TimedReplay::new(&chain.replay, sink);
            let verified = sink.span("proxy.verify", Some(first + i as u64), 1, || {
                chain.verifier.verify(presentation, &ctx, &mut guard)
            });
            if let Err(e) = verified {
                self.problems
                    .push(format!("stand-alone verifier refused: {e}"));
            }
        }
        let misses = chain.verifier.seal_cache().map_or(0, |c| c.stats().1) - misses_before;
        self.crypto_seals_per_op = (misses as usize).div_ceil(presentations.len().max(1));

        for (i, presentation) in presentations.iter().enumerate() {
            let req = Some(first + i as u64);
            let seals = seals_of(presentation, chain.head_key);
            let Some(last) = seals.last() else { continue };
            // The unit cost: one seal, one equation.
            let ok = sink.span("crypto.ed25519_verify", req, 1, || {
                last.2.verify(&last.0, &last.1).is_ok()
            });
            // What one `verify` spends on curve arithmetic here: the
            // seals its cache missed as one batch equation, plus the
            // possession proof. That proof signs bytes the proxy crate
            // does not expose, so it is timed as one more verification
            // of the last seal: the same curve work on a message of
            // the same size class.
            let missed = &seals[seals.len() - self.crypto_seals_per_op.min(seals.len())..];
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> = missed
                .iter()
                .map(|(m, s, k)| (m.as_slice(), s, k))
                .collect();
            let possession = has_ed25519_possession(presentation);
            self.presentations_seen += 1;
            self.possession_checks += usize::from(possession);
            let ok = ok
                && sink.span("crypto.per_op", req, 1, || {
                    (items.is_empty() || ed25519::verify_batch(&items).is_ok())
                        && (!possession || last.2.verify(&last.0, &last.1).is_ok())
                });
            if !ok {
                self.problems
                    .push("a chain's own seal did not verify".to_owned());
            }
        }
    }

    /// Fig. 3 has no chain to verify; its crypto is the HMAC that
    /// seals each grant, timed here over the last granted certificate's
    /// own body (under a stand-in key: the cost does not depend on it).
    fn grant_hmac(&mut self) {
        if self.last_grant_body.is_none() {
            return;
        }
        let first = self.take_req_ids(BATCH);
        let Some(body) = &self.last_grant_body else {
            return;
        };
        let key = [0x5a_u8; 32];
        let tag = self.sink.span("crypto.hmac", Some(first), BATCH, || {
            let mut tag = [0u8; 32];
            for _ in 0..BATCH {
                tag = HmacSha256::mac(std::hint::black_box(&key), std::hint::black_box(body));
            }
            tag
        });
        std::hint::black_box(tag);
    }

    /// One round: each step over `batches` batches, a yardstick run
    /// before every step of every batch.
    pub fn round(&mut self, batches: usize, host: &mut HostLog) -> Round {
        let from = self.sink.len();
        let mut requests = Vec::new();
        let sample = host.interleaved(3 * batches, |piece| match piece % 3 {
            0 => self.wire_and_handle(),
            1 => requests = self.service_direct(),
            _ => self.verify_and_crypto(&requests),
        });
        self.grant_hmac();
        Round {
            spans: from..self.sink.len(),
            cpu_scale: CALIB_REF_NS / sample.calib_ns,
        }
    }
}

fn split_all(frames: &[Vec<u8>]) -> Result<Vec<(u8, &[u8])>, String> {
    frames
        .iter()
        .map(|frame| match split_frame(frame) {
            Ok(Some((header, body, used))) if used == frame.len() => Ok((header.msg_type, body)),
            Ok(_) => Err("frame incomplete".to_owned()),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

fn decode_all(split: &Result<Vec<(u8, &[u8])>, String>) -> Result<Vec<Message>, String> {
    split
        .as_ref()
        .map_err(Clone::clone)?
        .iter()
        .map(|(msg_type, body)| Message::decode_body(*msg_type, body).map_err(|e| e.to_string()))
        .collect()
}
