//! The five workloads: the servers each one mounts, the requests it
//! sends, and the checks that say its replies were right.
//!
//! A [`World`] is built from the seed alone, so two worlds built with
//! the same arguments are identically configured and independent — the
//! traced run serves one over TCP and replays the same requests against
//! the other in-process. The servers only ever see generated messages.

use std::path::PathBuf;
use std::sync::Arc;

use proxy_accounting::{write_check, AccountingServer};
use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer};
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use proxy_net::{NetError, ServiceMux};
use proxy_storage::{MemStorage, Storage, WalOptions, WalStorage};
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use restricted_proxy::prelude::*;

/// The request timestamp fig3 and fig4 use throughout and fig5 starts
/// from.
pub const NOW: Timestamp = Timestamp(1);

/// Accept-once identifiers the accounting server is provisioned for.
/// The replay guard is bounded and fails closed, one shard at a time,
/// so this sits far above what the longest permitted run (60 s) can
/// deposit; the guard allocates per identifier seen, not per slot.
pub const REPLAY_CAPACITY: usize = 1 << 22;

/// Ticks a fig5 check stays valid. The clock advances one tick per
/// batch of requests, so the accounting server remembers the checks of
/// about this many slices — it may forget a spent check once the check
/// has expired (paper §4) — and its journal snapshots, which carry that
/// memory, stay the same size throughout a run. With checks that never
/// expired, throughput fell by a third over 100 000 deposits.
const CHECK_LIFETIME: u64 = 8;

/// Balance the payor starts with; every check draws one unit.
const FUNDING: u64 = 1 << 40;

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

/// One of the five benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3: `AuthzQuery` → `AuthzGrant`.
    Fig3Query,
    /// Fig. 4: depth-4 cascade, working set inside the seal cache.
    Fig4Hot,
    /// Fig. 4: depth-4 cascade, working set four times the seal cache.
    Fig4Cold,
    /// Fig. 5: `CheckDeposit` journaled to memory.
    Fig5Mem,
    /// Fig. 5: `CheckDeposit` journaled to a group-commit WAL on disk.
    Fig5Wal,
}

/// Per-workload operation counts. Slices are count-based so that a
/// slice is the same work on every run and every commit.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Depth-1 calls per latency slice, and per piece of it: the
    /// yardstick runs between pieces.
    pub rtt: (usize, usize),
    /// Pipelined calls per saturation slice, and per piece of it (one
    /// `call_pipelined`, so at least a few times the depth).
    pub sat: (usize, usize),
    /// Warm-up calls per mode (depth 1, then depth 16) during set-up.
    pub warmup_ops: usize,
    /// Distinct certificate chains (fig4 only).
    pub working_set: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Fig3Query,
        Workload::Fig4Hot,
        Workload::Fig4Cold,
        Workload::Fig5Mem,
        Workload::Fig5Wal,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Query => "fig3_query",
            Workload::Fig4Hot => "fig4_hot",
            Workload::Fig4Cold => "fig4_cold",
            Workload::Fig5Mem => "fig5_mem",
            Workload::Fig5Wal => "fig5_wal",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shipped sizes: latency pieces of about a millisecond and
    /// saturation pieces of 2 to 7 ms at the magnitudes in the README,
    /// slices of 50 to 170 ms, a warm-up that makes set-up at least half
    /// a second, and fig4 working sets on either side of the 1 024-entry
    /// seal cache (64 chains × 4 links fit; 4 096 × 4 cycle through it
    /// FIFO, so every lookup misses).
    pub fn scale(self) -> Scale {
        match self {
            Workload::Fig3Query => Scale {
                rtt: (4_800, 80),
                sat: (12_800, 256),
                warmup_ops: 24_000,
                working_set: 0,
            },
            Workload::Fig4Hot => Scale {
                rtt: (800, 16),
                sat: (1_600, 32),
                warmup_ops: 4_800,
                working_set: 64,
            },
            Workload::Fig4Cold => Scale {
                rtt: (256, 4),
                sat: (512, 32),
                warmup_ops: 512,
                working_set: 4_096,
            },
            // The journal compacts every 1 024 records: slices of whole
            // periods each pay for the same number of snapshots.
            Workload::Fig5Mem => Scale {
                rtt: (1_024, 16),
                sat: (2_048, 32),
                warmup_ops: 2_048,
                working_set: 0,
            },
            Workload::Fig5Wal => Scale {
                rtt: (512, 4),
                sat: (1_024, 32),
                warmup_ops: 1_024,
                working_set: 0,
            },
        }
    }

    /// Reduced sizes for `--smoke` and the tests: the same code paths in
    /// a fraction of a second. The cold working set still overflows the
    /// seal cache, also in the traced run, whose replay deals the chains
    /// out to three verifiers in turn.
    pub fn smoke_scale(self) -> Scale {
        let cold = self == Workload::Fig4Cold;
        Scale {
            rtt: (48, 8),
            sat: (96, 32),
            warmup_ops: if cold { 512 } else { 64 },
            working_set: match self {
                Workload::Fig4Hot => 8,
                Workload::Fig4Cold => 2_048,
                _ => 0,
            },
        }
    }

    fn durable(self) -> bool {
        self == Workload::Fig5Wal
    }
}

/// Wraps the accounting server's storage backend; the traced run passes
/// its span-recording decorator, everything else the identity.
pub type StorageWrap<'a> = &'a dyn Fn(Arc<dyn Storage>) -> Arc<dyn Storage>;

/// Returns the backend unchanged.
pub fn plain_storage(store: Arc<dyn Storage>) -> Arc<dyn Storage> {
    store
}

/// What varies between two worlds of one workload.
pub struct WorldCfg<'a> {
    /// Operation counts.
    pub scale: Scale,
    /// Directory the WAL workload may create its log under.
    pub scratch: PathBuf,
    /// Accept-once capacity of the accounting server.
    pub replay_capacity: usize,
    /// Decorator for the accounting server's storage.
    pub wrap_storage: StorageWrap<'a>,
}

/// Workload-specific servers and request generators.
pub enum Inputs {
    /// Fig. 3 state.
    Fig3 {
        /// The authorization server `R` behind the mux.
        authz: Arc<AuthorizationServer<MapResolver>>,
        /// The one query every operation sends.
        query: Message,
        /// End-server `S`'s verifier, resolving `R`: checks grants.
        grant_verifier: Verifier<MapResolver>,
    },
    /// Fig. 4 state.
    Fig4 {
        /// The end-server behind the mux.
        end: Arc<EndServer<MapResolver>>,
        /// One `EndRequest` per chain, already in the seeded order.
        requests: Vec<Message>,
        /// Next request to send (wraps).
        cursor: usize,
        /// Root grantor every decision must name.
        grantor: PrincipalId,
        /// The grantor's public key, for identically configured
        /// verifiers.
        grantor_key: GrantorVerifier,
    },
    /// Fig. 5 state.
    Fig5 {
        /// The drawee bank behind the mux.
        bank: Arc<AccountingServer>,
        /// The payor's signing authority.
        payor_authority: GrantAuthority,
        /// The payor's public key as the bank knows it.
        payor_key: GrantorVerifier,
        /// Randomness for check key material.
        rng: StdRng,
        /// Next check number.
        next_check: u64,
        /// The clock: one tick per batch.
        now: u64,
        /// A check already deposited and still valid, for the
        /// double-spend probe: the first of the latest batch.
        spent: Option<Message>,
        /// Deposits the server acknowledged as settled.
        settled: u64,
        /// WAL directory (`fig5_wal` only).
        wal_dir: Option<PathBuf>,
        /// Capacity the bank's replay guard was built with.
        replay_capacity: usize,
        /// The seed the bank's keys derive from (recovery rebuilds it).
        seed: u64,
    },
}

/// One workload's servers, inputs and running correctness tally.
pub struct World {
    /// Which workload this is.
    pub workload: Workload,
    /// The services, as mounted behind the TCP server.
    pub mux: Arc<ServiceMux<MapResolver>>,
    /// Servers and generators.
    pub inputs: Inputs,
    /// Operations whose reply was examined.
    pub attempted: u64,
    /// Operations that returned an error, a `Message::Error`, or a
    /// reply of the wrong shape.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failure_notes: Vec<String>,
}

impl World {
    /// Builds the workload's servers and inputs from `seed`.
    pub fn build(workload: Workload, seed: u64, cfg: &WorldCfg<'_>) -> Result<World, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mux, inputs) = match workload {
            Workload::Fig3Query => build_fig3(&mut rng),
            Workload::Fig4Hot | Workload::Fig4Cold => build_fig4(&mut rng, cfg.scale.working_set),
            Workload::Fig5Mem | Workload::Fig5Wal => build_fig5(workload, seed, rng, cfg)?,
        };
        Ok(World {
            workload,
            mux: Arc::new(mux),
            inputs,
            attempted: 0,
            failed: 0,
            failure_notes: Vec::new(),
        })
    }

    /// The next `n` requests. Generation is untimed: callers take a
    /// batch between slices, never all of a run's inputs up front.
    pub fn next_batch(&mut self, n: usize) -> Vec<Message> {
        match &mut self.inputs {
            Inputs::Fig3 { query, .. } => vec![query.clone(); n],
            Inputs::Fig4 {
                requests, cursor, ..
            } => {
                let batch = requests.iter().cycle().skip(*cursor).take(n).cloned();
                let batch: Vec<Message> = batch.collect();
                *cursor = (*cursor + n) % requests.len();
                batch
            }
            Inputs::Fig5 {
                payor_authority,
                rng,
                next_check,
                now,
                spent,
                ..
            } => {
                *now += 1;
                let batch: Vec<Message> = (0..n)
                    .map(|_| {
                        let check_no = *next_check;
                        *next_check += 1;
                        deposit_message(payor_authority, check_no, Timestamp(*now), rng)
                    })
                    .collect();
                *spent = batch.first().cloned();
                batch
            }
        }
    }

    /// Records one client-side result. `deep` additionally verifies a
    /// fig3 grant cryptographically (done once per slice: it costs a
    /// possession proof and a chain walk, all untimed).
    pub fn record(&mut self, result: &Result<Message, NetError>, deep: bool) {
        match result {
            Ok(reply) => self.record_reply(reply, deep),
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("{e}"));
            }
        }
    }

    /// Records one reply message; a `Message::Error` is a failure.
    pub fn record_reply(&mut self, reply: &Message, deep: bool) {
        self.attempted += 1;
        let problem = match (&mut self.inputs, reply) {
            (Inputs::Fig3 { grant_verifier, .. }, Message::AuthzGrant { proxy }) => {
                if deep {
                    verify_grant(grant_verifier, proxy).err()
                } else {
                    None
                }
            }
            (Inputs::Fig4 { grantor, .. }, Message::EndDecision { principals, .. }) => {
                if principals.contains(grantor) {
                    None
                } else {
                    Some(format!("decision does not name {grantor}"))
                }
            }
            (Inputs::Fig5 { settled, .. }, Message::CheckSettled { payor, amount, .. }) => {
                if *amount == 1 && *payor == p("payor") {
                    *settled += 1;
                    None
                } else {
                    Some(format!("settled {amount} for {payor}"))
                }
            }
            (_, Message::Error { code, detail }) => Some(format!("{code}: {detail}")),
            (_, other) => Some(format!("unexpected reply {}", other.kind())),
        };
        if let Some(problem) = problem {
            self.fail(problem);
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(note);
        }
    }

    /// `(hits, misses)` of the serving verifier's seal cache; zero on
    /// fig3, whose queries carry no chain.
    pub fn seal_cache_stats(&self) -> (u64, u64) {
        let cache = match &self.inputs {
            Inputs::Fig3 { .. } => None,
            Inputs::Fig4 { end, .. } => end.seal_cache(),
            Inputs::Fig5 { bank, .. } => bank.seal_cache(),
        };
        cache.map_or((0, 0), |c| c.stats())
    }

    /// End-of-run checks that need the server still answering: `call`
    /// sends one more request and returns its result. Returns what was
    /// wrong, empty when all is well.
    pub fn check_online(
        &mut self,
        mut call: impl FnMut(&Message) -> Result<Message, NetError>,
    ) -> Vec<String> {
        let mut wrong = Vec::new();
        match &self.inputs {
            Inputs::Fig3 { .. } => {}
            Inputs::Fig4 { .. } => {
                let (hits, misses) = self.seal_cache_stats();
                let ratio = hit_ratio(hits, misses);
                let ok = match self.workload {
                    Workload::Fig4Hot => ratio > 0.95,
                    _ => ratio < 0.05,
                };
                if !ok {
                    wrong.push(format!(
                        "{}: seal-cache hit ratio {ratio:.3} ({hits} hits, {misses} misses)",
                        self.workload.name()
                    ));
                }
            }
            Inputs::Fig5 {
                bank,
                spent,
                settled,
                ..
            } => {
                let shop = bank.account("shop").map_or(0, |a| a.balance(&usd()));
                let payor = bank.account("acct").map_or(0, |a| a.balance(&usd()));
                if shop != *settled {
                    wrong.push(format!("shop holds {shop}, {settled} deposits settled"));
                }
                if FUNDING - payor != *settled {
                    wrong.push(format!(
                        "payor fell by {}, {settled} deposits settled",
                        FUNDING - payor
                    ));
                }
                match spent {
                    None => wrong.push("no check was ever deposited".to_owned()),
                    Some(spent) => {
                        if let Ok(reply) = call(spent) {
                            wrong.push(format!("spent check re-deposited: {}", reply.kind()));
                        }
                    }
                }
            }
        }
        wrong
    }

    /// End-of-run checks that need the server gone: the caller has
    /// dropped the TCP server and every other handle on the mux. For
    /// `fig5_wal` the log directory is reopened and must recover every
    /// acknowledged deposit. Removes the directory afterwards.
    pub fn check_offline(self) -> Vec<String> {
        let World { inputs, mux, .. } = self;
        drop(mux);
        let Inputs::Fig5 {
            bank,
            settled,
            wal_dir: Some(dir),
            replay_capacity,
            seed,
            ..
        } = inputs
        else {
            return Vec::new();
        };
        drop(bank);
        let recovered = WalStorage::open(&dir, WalOptions::default())
            .map_err(|e| e.to_string())
            .and_then(|store| new_bank(seed, replay_capacity, Arc::new(store)));
        let wrong = match recovered {
            Err(e) => vec![format!("WAL reopen failed: {e}")],
            Ok(bank) => {
                let shop = bank.account("shop").map_or(0, |a| a.balance(&usd()));
                if shop == settled {
                    Vec::new()
                } else {
                    vec![format!(
                        "WAL recovered {shop} deposits, {settled} were acknowledged"
                    )]
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        wrong
    }
}

/// Hits as a share of lookups; zero when there were none.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn verify_grant(verifier: &Verifier<MapResolver>, proxy: &Proxy) -> Result<(), String> {
    let ctx = RequestContext::new(p("S"), Operation::new("read"), ObjectName::new("X")).at(NOW);
    let presentation = proxy.present_bearer([7u8; 32], &p("S"));
    let mut replay = MemoryReplayGuard::new();
    match verifier.verify(&presentation, &ctx, &mut replay) {
        Ok(v) if v.grantor == p("R") => Ok(()),
        Ok(v) => Err(format!("grant names {} as grantor", v.grantor)),
        Err(e) => Err(format!("grant does not verify: {e}")),
    }
}

fn build_fig3(rng: &mut StdRng) -> (ServiceMux<MapResolver>, Inputs) {
    let r_key = SymmetricKey::generate(rng);
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
    let authz = Arc::new(authz);
    let query = Message::AuthzQuery {
        client: p("C"),
        presentations: Vec::new(),
        end_server: p("S"),
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        validity: window(),
        now: NOW,
    };
    let grant_verifier = Verifier::new(
        p("S"),
        MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(r_key)),
    );
    (
        ServiceMux::new().with_authz(Arc::clone(&authz)),
        Inputs::Fig3 {
            authz,
            query,
            grant_verifier,
        },
    )
}

/// Cascade depth of every fig4 chain (Fig. 4's grant plus three
/// bearer derivations, all Ed25519).
pub const CASCADE_DEPTH: usize = 4;

fn build_fig4(rng: &mut StdRng, working_set: usize) -> (ServiceMux<MapResolver>, Inputs) {
    let root = SigningKey::generate(rng);
    let grantor = p("alice");
    let grantor_key = GrantorVerifier::PublicKey(root.verifying_key());
    let authority = GrantAuthority::Keypair(root);
    let mut requests: Vec<Message> = (0..working_set as u64)
        .map(|chain| {
            // Seeded serials, distinct along a chain.
            let serial = (rng.gen::<u64>() >> 16) + chain;
            let mut proxy = grant(
                &grantor,
                &authority,
                RestrictionSet::new(),
                window(),
                serial,
                rng,
            );
            for link in 1..CASCADE_DEPTH as u64 {
                proxy = proxy
                    .derive(RestrictionSet::new(), window(), serial + link, rng)
                    .expect("derived inside the parent's window");
            }
            let mut challenge = [0u8; 32];
            rand::RngCore::fill_bytes(rng, &mut challenge);
            Message::EndRequest {
                operation: Operation::new("read"),
                object: ObjectName::new("doc"),
                authenticated: Vec::new(),
                presentations: vec![proxy.present_bearer(challenge, &p("S"))],
                now: NOW,
                amounts: Vec::new(),
            }
        })
        .collect();
    // The working-set permutation: Fisher–Yates under the seeded rng.
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.gen_range(0..i + 1));
    }
    let mut end = EndServer::new(
        p("S"),
        MapResolver::new().with(grantor.clone(), grantor_key.clone()),
    );
    end.acls.set(
        ObjectName::new("doc"),
        Acl::new().with(AclSubject::Principal(grantor.clone()), AclRights::all()),
    );
    let end = Arc::new(end);
    (
        ServiceMux::new().with_end_server(Arc::clone(&end)),
        Inputs::Fig4 {
            end,
            requests,
            cursor: 0,
            grantor,
            grantor_key,
        },
    )
}

/// `(bank, payor)` signing keys, from their own seeded stream so that
/// the recovery check can rebuild the bank without replaying the check
/// generator.
fn bank_keys(seed: u64) -> (SigningKey, SigningKey) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB4A2_0C0D_E5EE_D001);
    (
        SigningKey::generate(&mut rng),
        SigningKey::generate(&mut rng),
    )
}

fn new_bank(
    seed: u64,
    replay_capacity: usize,
    store: Arc<dyn Storage>,
) -> Result<AccountingServer, String> {
    // Capacity before storage: recovered accept-once marks must land
    // in the guard the server will keep.
    AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_keys(seed).0))
        .with_replay_capacity(replay_capacity)
        .with_storage(store)
        .map_err(|e| e.to_string())
}

fn build_fig5(
    workload: Workload,
    seed: u64,
    rng: StdRng,
    cfg: &WorldCfg<'_>,
) -> Result<(ServiceMux<MapResolver>, Inputs), String> {
    let (_, payor_key) = bank_keys(seed);
    let wal_dir = workload.durable().then(|| {
        cfg.scratch
            .join(format!("wal-{}-{seed}", std::process::id()))
    });
    let store: Arc<dyn Storage> = match &wal_dir {
        None => Arc::new(MemStorage::new()),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let wal = WalStorage::open(dir, WalOptions::default()).map_err(|e| e.to_string())?;
            Arc::new(wal)
        }
    };
    let mut bank = new_bank(seed, cfg.replay_capacity, (cfg.wrap_storage)(store))?;
    let payor_verifier = GrantorVerifier::PublicKey(payor_key.verifying_key());
    bank.register_grantor(p("payor"), payor_verifier.clone());
    bank.open_account("shop", vec![p("shop")]);
    bank.open_account("acct", vec![p("payor")]);
    bank.account_mut("acct")
        .map_err(|e| e.to_string())?
        .credit(usd(), FUNDING);
    let bank = Arc::new(bank);
    Ok((
        ServiceMux::new().with_accounting(Arc::clone(&bank)),
        Inputs::Fig5 {
            bank,
            payor_authority: GrantAuthority::Keypair(payor_key),
            payor_key: payor_verifier,
            rng,
            // Check numbers start at a seed-dependent base.
            next_check: 1 + (seed % 1_000) * 1_000_000_000,
            now: NOW.0,
            spent: None,
            settled: 0,
            wal_dir,
            replay_capacity: cfg.replay_capacity,
            seed,
        },
    ))
}

fn deposit_message(
    authority: &GrantAuthority,
    check_no: u64,
    now: Timestamp,
    rng: &mut StdRng,
) -> Message {
    let check = write_check(
        &p("payor"),
        authority,
        &p("bank"),
        "acct",
        p("shop"),
        check_no,
        usd(),
        1,
        Validity::starting_at(now, CHECK_LIFETIME),
        rng,
    );
    Message::CheckDeposit {
        check: check.proxy,
        depositor: p("shop"),
        to_account: "shop".to_owned(),
        next_hop: p("bank"),
        now,
    }
}
