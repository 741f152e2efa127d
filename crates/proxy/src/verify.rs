//! End-server verification of presented proxies.
//!
//! The verifier walks the certificate chain (Fig. 4) entirely offline —
//! the efficiency difference from Sollins's cascaded authentication, where
//! the end-server must contact the authentication server (§3.4) — then
//! evaluates the additive union of restrictions and checks the presenter's
//! proof (possession for bearer proxies, authenticated identity for
//! delegate proxies).

use std::ops::Range;
use std::sync::Arc;

use proxy_crypto::ed25519::{self, Signature, VerifyingKey};
use proxy_crypto::sha256::Sha256;

use crate::cache::{SealKey, VerifiedCertCache};
use crate::cert::{Certificate, SigningAuthorityKind};
use crate::context::RequestContext;
use crate::encode::{Bounded, Encoder};
use crate::error::VerifyError;
use crate::key::{append_possession_prefix, GrantorVerifier, KeyResolver, SealCheck};
use crate::keytable::KeyTable;
use crate::present::{append_presentation_binding, Presentation, Proof};
use crate::principal::PrincipalId;
use crate::replay::ReplayGuard;
use crate::restriction::RestrictionSet;
use crate::revocation::RevocationDirectory;
use crate::shard::rank;
use crate::time::Timestamp;

/// Appends `cert`'s canonical body to `out` and returns where it lies.
fn append_body(cert: &Certificate, out: &mut Vec<u8>) -> Range<usize> {
    let start = out.len();
    let mut e = Encoder::from_vec(std::mem::take(out));
    cert.body_bytes_onto(&mut e);
    *out = e.finish();
    start..out.len()
}

/// Most Ed25519 checks one settle equation takes. Past forty a check
/// costs within 2 % of what it does in an equation of eighty
/// (EXPERIMENTS.md C3, `group-per-request` at 8 and 16 depth-4
/// presentations), and eighty holds sixteen of those. Each check holds
/// ~3 KiB of Straus tables while its equation runs, so a group of any
/// size settles in equations of at most this many.
const MAX_EQUATION_CHECKS: usize = 80;

/// Fewest lone checks under one prepared key that settle as one
/// equation ([`ed25519::PreparedKey::holds_all`]). Below it, as many
/// prepared lone checks cost no more: on the scalar chain the equation
/// read 1.08× their time at four and 0.99× at five (EXPERIMENTS.md C3,
/// the one-key table's `parent` columns). Against runs of eight lanes
/// ([`MIN_LANE_LONE_CHECKS`]) the stopwatch puts the break-even between
/// sixteen and twenty (`one-key/n` against `prepared-lone-lanes/n`:
/// 1.10× at sixteen, 0.86× at twenty; 1.06× at sixteen over `fig5_mem`'s
/// own check bodies), but no workload has from five to fifteen lone
/// checks under one key, and `fig5_mem`'s reads of sixteen under one
/// payor run slower in lanes end to end (57.3k ops/s against the
/// equation's 62.0k), so the threshold stays where the scalar chain put
/// it, on every build.
const MIN_ONE_KEY_CHECKS: usize = 5;

/// Fewest lone checks under prepared keys that settle as one run of
/// eight lanes ([`ed25519::PreparedKey::verify_eight`]), the lanes past
/// them padding. One run reads 1.12× two lone checks' time, 0.81× three
/// and 0.38× eight (EXPERIMENTS.md C3, `prepared-lone-lanes/n` against
/// `prepared-lone×n/n`); so a group's lone checks settle eight at a time,
/// and a last run of one or two alone. A build without the lanes runs
/// the eight chains one after another and shares one inversion among
/// them, which no count of lone checks pays more for.
const MIN_LANE_LONE_CHECKS: usize = 3;

/// An Ed25519 check postponed so that everything a presentation asks of
/// the curve — its uncached seals and its possession proof — is settled
/// in one step, together with the checks of the rest of its group.
#[derive(Debug)]
struct PendingCheck {
    /// The signed bytes, as a range of the presentation's one scratch
    /// buffer.
    message: Range<usize>,
    sig: Signature,
    vk: VerifyingKey,
    subject: Subject,
}

/// What a [`PendingCheck`] decides.
#[derive(Debug)]
enum Subject {
    /// The seal of the certificate at chain position `index`.
    Seal {
        index: usize,
        /// The body's digest — with the check's signature and key, the
        /// cache entry — and the expiry to cache it until; `None`
        /// without a cache.
        cache_entry: Option<([u8; 32], Timestamp)>,
    },
    /// The presenter's possession proof. Queued after every seal.
    Possession,
}

impl PendingCheck {
    /// The error a failure of this check is reported as.
    fn blame(&self) -> VerifyError {
        match self.subject {
            Subject::Seal { index, .. } => VerifyError::BadSeal { index },
            Subject::Possession => VerifyError::BadPossession,
        }
    }
}

/// A presentation between the pure part of its verification and the
/// stateful finish. [`Verifier::prepare`] walks the chain and queues its
/// Ed25519 checks, [`Verifier::settle`] decides the checks of a whole
/// group of these at once, and [`Verifier::finish`] gives the verdict;
/// [`Verifier::verify`] is the group of one.
#[derive(Debug)]
pub struct Prepared {
    /// The first error the presentation is reported with, if any: pass
    /// 1's, then the settle step's.
    verdict: Result<(), VerifyError>,
    /// What the proof was found to be other than as a pending check,
    /// reported only once the checks have settled.
    proof: Result<(), VerifyError>,
    pending: Vec<PendingCheck>,
    /// Every byte string the pending checks read.
    scratch: Vec<u8>,
    /// Earliest expiry along the chain.
    expires: Timestamp,
    /// The request's time, which the seal cache is probed and filled at.
    now: Timestamp,
    /// The verdict on its one pending check, when the settle step gave
    /// it before the equations: in an equation with the group's other
    /// lone checks under the same key (only ever `true`: a failed one
    /// decides nothing), or in a lane beside seven other lone checks.
    lone_verdict: Option<bool>,
}

impl Prepared {
    /// The pending checks as `ed25519` items, in queue order.
    fn items(&self) -> impl Iterator<Item = (&[u8], &Signature, &VerifyingKey)> {
        self.pending
            .iter()
            .map(|c| (&self.scratch[c.message.clone()], &c.sig, &c.vk))
    }

    /// Whether its checks settle as an equation: two or more. A lone
    /// check goes through the key table instead.
    fn joins_equation(&self) -> bool {
        self.pending.len() >= 2
    }

    /// The key of its check when it has exactly one.
    fn lone_key(&self) -> Option<VerifyingKey> {
        match self.pending.as_slice() {
            [lone] => Some(lone.vk),
            _ => None,
        }
    }
}

/// The outcome of successful verification: what the proxy conveys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedProxy {
    /// The original grantor, whose rights (as limited by the restrictions)
    /// the request now carries.
    pub grantor: PrincipalId,
    /// The additive union of all restrictions along the chain.
    pub restrictions: RestrictionSet,
    /// Earliest expiry along the chain.
    pub expires: Timestamp,
    /// Chain length (1 = direct proxy, >1 = cascaded).
    pub chain_len: usize,
}

/// An end-server's proxy verifier.
#[derive(Clone, Debug)]
pub struct Verifier<R> {
    server: PrincipalId,
    resolver: R,
    /// Optional cache of positive Ed25519 seal checks; see
    /// [`VerifiedCertCache`] for what is (and is deliberately not)
    /// memoized. Shared across clones so every handle benefits.
    cache: Option<Arc<VerifiedCertCache>>,
    /// Optional local revocation mirror ([`RevocationDirectory`]); when
    /// attached, every certificate's (grantor, serial) is checked against
    /// the mirrored revoked sets — an O(1) local probe, no round trips.
    revocations: Option<Arc<RevocationDirectory>>,
    /// What earlier checks computed about the Ed25519 keys they ran
    /// under; a presentation that needs exactly one check (the
    /// possession proof of a cached chain, the seal of a one-link
    /// delegate proxy) settles it through here. See [`crate::keytable`].
    /// Shared across clones, like the seal cache.
    keys: Arc<KeyTable>,
}

impl<R: KeyResolver> Verifier<R> {
    /// Creates a verifier for the end-server named `server`, resolving
    /// grantor keys through `resolver`.
    pub fn new(server: PrincipalId, resolver: R) -> Self {
        Self {
            server,
            resolver,
            cache: None,
            revocations: None,
            keys: Arc::new(KeyTable::new()),
        }
    }

    /// Attaches a bounded seal cache, making repeated presentations of the
    /// same chain O(1) in signature checks.
    #[must_use]
    pub fn with_seal_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(Arc::new(VerifiedCertCache::new(capacity)));
        self
    }

    /// The attached seal cache, if any.
    #[must_use]
    pub fn seal_cache(&self) -> Option<&VerifiedCertCache> {
        self.cache.as_deref()
    }

    /// Attaches a (possibly shared) local revocation mirror. Every
    /// certificate in a presented chain is then checked against its
    /// grantor's mirrored revoked-serial set before anything else is
    /// spent on it — one hash probe per certificate, zero round trips.
    #[must_use]
    pub fn with_revocation(mut self, revocations: Arc<RevocationDirectory>) -> Self {
        self.revocations = Some(revocations);
        self
    }

    /// The attached revocation mirror, if any.
    #[must_use]
    pub fn revocation_directory(&self) -> Option<&Arc<RevocationDirectory>> {
        self.revocations.as_ref()
    }

    /// The end-server this verifier speaks for.
    #[must_use]
    pub fn server(&self) -> &PrincipalId {
        &self.server
    }

    /// The key resolver backing this verifier.
    #[must_use]
    pub fn resolver(&self) -> &R {
        &self.resolver
    }

    /// Mutable access to the resolver, so a long-lived verifier can learn
    /// new grantors without being rebuilt (and without discarding its seal
    /// cache).
    pub fn resolver_mut(&mut self) -> &mut R {
        &mut self.resolver
    }

    /// Verifies a presentation against a request context.
    ///
    /// Checks, in order: chain seals (offline), validity windows,
    /// presenter proof (possession or identity), and the additive
    /// restriction union. The group of one: [`Self::prepare`], then
    /// [`Self::settle`], then [`Self::finish`].
    ///
    /// # Errors
    ///
    /// Every failure mode is a distinct [`VerifyError`]; see its docs.
    pub fn verify(
        &self,
        presentation: &Presentation,
        ctx: &RequestContext,
        replay: &mut dyn ReplayGuard,
    ) -> Result<VerifiedProxy, VerifyError> {
        rank::assert_unheld("Verifier::verify");
        let mut group = [self.prepare(presentation, ctx.now)];
        self.settle(&mut group);
        self.finish(&group[0], presentation, ctx, replay)
    }

    /// The pure part of verifying `presentation` at `now`: the chain
    /// walk (validity, revocation, grantor lookup, HMAC seals, seal-cache
    /// probes) and the possession message. Its Ed25519 checks wait for
    /// [`Self::settle`]; nothing here consults a replay guard.
    pub fn prepare(&self, presentation: &Presentation, now: Timestamp) -> Prepared {
        let mut prepared = Prepared {
            verdict: Ok(()),
            proof: Ok(()),
            pending: Vec::new(),
            scratch: Vec::new(),
            expires: Timestamp::MAX,
            now,
            lone_verdict: None,
        };
        prepared.verdict = self.walk(presentation, &mut prepared);
        if prepared.verdict.is_err() {
            // A chain that failed its walk settles nothing.
            prepared.pending.clear();
        }
        prepared
    }

    /// Passes 1 and 3 of [`Self::prepare`], into `p`.
    fn walk(&self, presentation: &Presentation, p: &mut Prepared) -> Result<(), VerifyError> {
        let certs = &presentation.certs;
        if certs.is_empty() {
            return Err(VerifyError::EmptyChain);
        }
        let now = p.now;
        let (pending, scratch) = (&mut p.pending, &mut p.scratch);

        // Pass 1: verify seals and recover proxy-key verifiers link by
        // link. Key recovery never depends on a seal being *valid* (only
        // on the recovered key of the prior link), so Ed25519 seal checks
        // are deferred — unless the seal cache already vouches for a
        // certificate — and settled by `settle` together with the
        // possession proof. HMAC seals are cheaper than the cache digest
        // and are checked inline.
        let mut prev_key: Option<GrantorVerifier> = None;
        // One scratch buffer for every byte string the presentation's
        // checks read: the body of each certificate in turn, kept when
        // its seal is deferred and overwritten by the next body when not,
        // then the possession message.
        *scratch = Certificate::ENCODE_CAPACITY_HINT.vec();
        let mut kept = 0;
        let mut final_body = 0..0;
        // The SHA-256 of the last body, when the seal cache was asked
        // about it: the possession proof binds the same digest.
        let mut final_digest = None;
        // The mirror is read once per run of links under one issuer; a
        // revoked link is still reported where the walk reaches it.
        let revoked_at = self.revocations.as_ref().and_then(|revocations| {
            revocations.first_revoked(certs.iter().map(|cert| (&cert.grantor, cert.serial)))
        });
        for (index, cert) in certs.iter().enumerate() {
            if !cert.validity.contains(now) {
                return Err(VerifyError::NotValidAt { index, now });
            }
            if revoked_at == Some(index) {
                return Err(VerifyError::Revoked {
                    index,
                    serial: cert.serial,
                });
            }
            p.expires = p.expires.min(cert.expires());
            scratch.truncate(kept);
            final_body = append_body(cert, scratch);
            let body = &scratch[final_body.clone()];
            let sealer = match cert.authority {
                SigningAuthorityKind::Grantor => self
                    .resolver
                    .grantor_verifier(&cert.grantor)
                    .ok_or_else(|| VerifyError::UnknownGrantor(cert.grantor.clone()))?,
                SigningAuthorityKind::PriorProxyKey => {
                    prev_key.take().ok_or(VerifyError::HeadNotGrantorSealed)?
                }
            };
            let ed25519_seal = match sealer.check_seal(body, &cert.seal) {
                SealCheck::Valid => None,
                SealCheck::Deferred(vk, sig) => Some((vk, sig)),
                SealCheck::Invalid => return Err(VerifyError::BadSeal { index }),
                SealCheck::FlavorMismatch => return Err(VerifyError::FlavorMismatch { index }),
            };
            final_digest = None;
            if let Some((vk, sig)) = ed25519_seal {
                // Deferred, unless the cache already vouches for this
                // exact (body, seal, key) triple.
                let digest = self.cache.as_ref().map(|_| Sha256::digest(body));
                final_digest = digest;
                let vouched = self
                    .cache
                    .as_ref()
                    .zip(digest.as_ref())
                    .is_some_and(|(cache, d)| cache.contains(&SealKey::new(d, &sig, &vk), now));
                if !vouched {
                    if pending.is_empty() {
                        // Every later link may defer too, then the proof.
                        Bounded::len_of(certs.get(index..).unwrap_or_default())
                            .plus(Bounded::fixed::<1>())
                            .reserve_in(pending);
                    }
                    pending.push(PendingCheck {
                        message: final_body.clone(),
                        sig,
                        vk,
                        subject: Subject::Seal {
                            index,
                            cache_entry: digest.map(|d| (d, cert.expires())),
                        },
                    });
                    kept = scratch.len();
                }
            }
            prev_key = Some(
                cert.key_material
                    .unseal(&sealer)
                    .ok_or(VerifyError::KeyUnrecoverable { index })?,
            );
        }
        let final_key = prev_key.expect("chain non-empty");

        // Pass 3: the presenter's proof. An Ed25519 possession proof is
        // one more pending check; anything else about the proof is
        // decided here and reported only after the checks have settled,
        // so a bad seal is blamed before a bad proof whichever the
        // verifier happened to look at first.
        match &presentation.proof {
            Proof::Possession {
                challenge,
                response,
            } => {
                let final_digest =
                    final_digest.unwrap_or_else(|| Sha256::digest(&scratch[final_body]));
                let start = scratch.len();
                append_possession_prefix(scratch, challenge);
                append_presentation_binding(scratch, &self.server, &final_digest);
                let message = start..scratch.len();
                match &final_key {
                    GrantorVerifier::SharedKey(k) => {
                        if !k.verify_mac(&scratch[message], response) {
                            p.proof = Err(VerifyError::BadPossession);
                        }
                    }
                    GrantorVerifier::PublicKey(vk) => match Signature::try_from_slice(response) {
                        Ok(sig) => pending.push(PendingCheck {
                            message,
                            sig,
                            vk: *vk,
                            subject: Subject::Possession,
                        }),
                        Err(_) => p.proof = Err(VerifyError::BadPossession),
                    },
                }
            }
            Proof::Identity => {
                // Only delegate proxies may be exercised without possession.
                if !certs.iter().any(|c| c.restrictions.has_grantee()) {
                    p.proof = Err(VerifyError::BearerRequiresPossession);
                }
            }
        }
        Ok(())
    }

    /// Settles every pending check of `group`, in order.
    ///
    /// The presentations whose checks would each settle as an equation (two
    /// or more) share one, in equations of at most eighty checks, so the
    /// Straus tables of one (~3 KiB a check) stay bounded however large the
    /// group. A group's lone checks under keys the table holds prepared
    /// settle together: five or more under one key (`MIN_ONE_KEY_CHECKS`) — a
    /// bank's deposits under one payor — in one equation under that key
    /// ([`ed25519::PreparedKey::holds_all`], at most eighty to an equation),
    /// and the rest, a read's possession proofs each under its own chain's
    /// key among them, eight at a time in lanes
    /// ([`ed25519::PreparedKey::verify_eight`]), from three up
    /// (`MIN_LANE_LONE_CHECKS`), each on its own verdict. Any other lone
    /// check settles through the key table, which promotes a key on its
    /// second sighting. When a shared equation fails, or has a single member,
    /// each of its members settles on its own as [`Self::verify`] would:
    /// `first_failure` runs its equation and, if that fails, repeats each
    /// check alone, in chain order with the proof last, up to the first that
    /// fails. So a verdict, and the index it blames, never depend on the
    /// group. If every seal of a presentation holds, the positive results
    /// enter the cache — even when its proof then fails: a seal's validity
    /// does not depend on who presents it — and if any seal fails none of its
    /// seals do. Only seal validity is ever cached, never a request-dependent
    /// decision.
    pub fn settle(&self, group: &mut [Prepared]) {
        rank::assert_unheld("Verifier::settle");
        self.settle_shared_keys(group);
        self.settle_lone_lanes(group);
        let mut rest = group;
        while !rest.is_empty() {
            let (len, members) = next_equation(rest);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let holds = members >= 2 && {
                let items: Vec<_> = chunk
                    .iter()
                    .filter(|p| p.joins_equation())
                    .flat_map(Prepared::items)
                    .collect();
                ed25519::batch_holds(&items)
            };
            for p in chunk {
                let failed = match p.lone_verdict {
                    Some(verified) => (!verified).then_some(0),
                    None if holds && p.joins_equation() => None,
                    None => self.first_failure(p),
                };
                self.record(p, failed);
            }
        }
    }

    /// Gives every lone check of `group` whose key's equation holds the
    /// verdict `true`: one equation per key, over the lone checks under
    /// it, when there are [`MIN_ONE_KEY_CHECKS`] or more and the key
    /// table holds the key prepared. Decides nothing else: a check under
    /// a key seen only once (which this never prepares), or in an
    /// equation that failed, is left to the lanes or the key table.
    fn settle_shared_keys(&self, group: &mut [Prepared]) {
        let mut members = Vec::new();
        for first in 0..group.len() {
            let Some(key) = group[first].lone_key() else {
                continue;
            };
            // Each key once, at its first lone check.
            if group[..first].iter().any(|p| p.lone_key() == Some(key)) {
                continue;
            }
            let under_key = |i: &usize| group[*i].lone_key() == Some(key);
            if (first..group.len()).filter(under_key).count() < MIN_ONE_KEY_CHECKS {
                continue;
            }
            let Some(prepared) = self.keys.prepared(&key) else {
                continue;
            };
            members.clear();
            members.extend((first..group.len()).filter(under_key));
            for equation in members.chunks(MAX_EQUATION_CHECKS) {
                let items: Vec<(&[u8], &Signature)> = equation
                    .iter()
                    .flat_map(|&i| group[i].items())
                    .map(|(message, sig, _)| (message, sig))
                    .collect();
                if prepared.holds_all(&items) {
                    for &i in equation {
                        group[i].lone_verdict = Some(true);
                    }
                }
            }
        }
    }

    /// Gives the lone checks of `group` still without a verdict whose key
    /// the table holds prepared their verdicts, eight to a run of lanes,
    /// and the last run only if it has [`MIN_LANE_LONE_CHECKS`]; the rest
    /// — a short last run, a check under a key seen once or not at all —
    /// settle alone through the key table, which promotes as ever. A
    /// group with fewer undecided lone checks than a run needs — a lone
    /// request, a read that was not pipelined — probes no slot. The run
    /// holds the `Arc`s the probe handed out: no slot is held while the
    /// lanes run.
    fn settle_lone_lanes(&self, group: &mut [Prepared]) {
        let undecided = |p: &&Prepared| p.lone_verdict.is_none() && p.lone_key().is_some();
        if group.iter().filter(undecided).count() < MIN_LANE_LONE_CHECKS {
            return;
        }
        let mut run: [Option<(usize, Arc<ed25519::PreparedKey>)>; 8] = Default::default();
        let mut filled = 0;
        for i in 0..group.len() {
            if group[i].lone_verdict.is_some() {
                continue;
            }
            let Some(prepared) = group[i].lone_key().and_then(|key| self.keys.prepared(&key))
            else {
                continue;
            };
            run[filled] = Some((i, prepared));
            filled += 1;
            if filled == run.len() {
                settle_run(group, &mut run);
                filled = 0;
            }
        }
        if filled >= MIN_LANE_LONE_CHECKS {
            settle_run(group, &mut run);
        }
    }

    /// The index of `p`'s first pending check that fails on its own
    /// terms: a lone check through the key table, more through
    /// `first_failure`.
    fn first_failure(&self, p: &Prepared) -> Option<usize> {
        match p.pending.as_slice() {
            [] => None,
            [lone] => self
                .keys
                .verify(&lone.vk, &p.scratch[lone.message.clone()], &lone.sig)
                .err()
                .map(|_| 0),
            _ => ed25519::first_failure(&p.items().collect::<Vec<_>>()),
        }
    }

    /// Takes the settle step's word on `p`: caches its seals unless one
    /// of them failed, and blames the failed check.
    fn record(&self, p: &mut Prepared, failed: Option<usize>) {
        let failed = failed.and_then(|i| p.pending.get(i));
        let seal_failed = failed.is_some_and(|c| matches!(c.subject, Subject::Seal { .. }));
        if let (false, Some(cache)) = (seal_failed, &self.cache) {
            for check in &p.pending {
                if let Subject::Seal {
                    cache_entry: Some((digest, expires)),
                    ..
                } = check.subject
                {
                    cache.insert(SealKey::new(&digest, &check.sig, &check.vk), expires, p.now);
                }
            }
        }
        if let Some(blame) = failed.map(PendingCheck::blame) {
            p.verdict = Err(blame);
        }
    }

    /// The stateful finish of a settled presentation: its verdict so
    /// far, then its proof's, then delegate resolution and every
    /// certificate's restrictions under `ctx`, accept-once marks
    /// included. `presentation` is the one `prepared` was prepared from.
    ///
    /// # Errors
    ///
    /// As [`Self::verify`].
    pub fn finish(
        &self,
        prepared: &Prepared,
        presentation: &Presentation,
        ctx: &RequestContext,
        replay: &mut dyn ReplayGuard,
    ) -> Result<VerifiedProxy, VerifyError> {
        prepared.verdict.clone()?;
        prepared.proof.clone()?;
        let certs = &presentation.certs;

        // Pass 2: resolve delegate cascades into an effective identity set.
        // A subordinate holding a cascade link from a named delegate may act
        // as that delegate (§2: "or by someone with a suitable additional
        // proxy issued by a named delegate").
        let mut effective = ctx.authenticated.clone();
        for cert in certs.iter().skip(1).rev() {
            if cert.authority == SigningAuthorityKind::Grantor
                && grantee_satisfied(&cert.restrictions, &effective)
                && !effective.contains(&cert.grantor)
            {
                effective.push(cert.grantor.clone());
            }
        }
        let mut eval_ctx = ctx.clone();
        eval_ctx.authenticated = effective;

        // Pass 4: evaluate every certificate's restrictions (additive).
        for cert in certs {
            cert.restrictions
                .evaluate(&eval_ctx, &cert.grantor, cert.expires(), replay)?;
        }

        Ok(VerifiedProxy {
            grantor: certs[0].grantor.clone(),
            restrictions: certs
                .iter()
                .fold(RestrictionSet::new(), |acc, c| acc.union(&c.restrictions)),
            expires: prepared.expires,
            chain_len: certs.len(),
        })
    }
}

/// Settles the lone checks `run` names, filled from its front, one lane
/// each, and empties it.
fn settle_run(group: &mut [Prepared], run: &mut [Option<(usize, Arc<ed25519::PreparedKey>)>; 8]) {
    // Curve arithmetic, which no slot may wait behind.
    rank::assert_unheld("settle_run");
    let verdicts = {
        let lanes = run.each_ref().map(|lane| {
            let (i, key) = lane.as_ref()?;
            let (message, sig, _) = group[*i].items().next()?;
            Some((message, sig, &**key))
        });
        let Some(filler) = lanes[0] else {
            return;
        };
        let filled = lanes.iter().flatten().count();
        ed25519::PreparedKey::verify_eight(&lanes.map(|lane| lane.unwrap_or(filler))[..filled])
    };
    for (lane, verified) in run.iter_mut().zip(verdicts) {
        if let Some((i, _)) = lane.take() {
            group[i].lone_verdict = Some(verified);
        }
    }
}

/// The next equation of a settle step over `group`: how many
/// presentations from its front it spans, and how many of those join it
/// — up to the first that would take it past [`MAX_EQUATION_CHECKS`]
/// checks. Spans at least one presentation, and joins one that has more
/// checks than the cap on its own.
fn next_equation(group: &[Prepared]) -> (usize, usize) {
    let (mut checks, mut members, mut len) = (0, 0, 0);
    for p in group {
        if p.joins_equation() {
            if members > 0 && checks + p.pending.len() > MAX_EQUATION_CHECKS {
                break;
            }
            checks += p.pending.len();
            members += 1;
        }
        len += 1;
    }
    (len, members)
}

fn grantee_satisfied(restrictions: &RestrictionSet, authenticated: &[PrincipalId]) -> bool {
    use crate::restriction::Restriction;
    restrictions.iter().all(|r| match r {
        Restriction::Grantee {
            delegates,
            required,
        } => {
            delegates
                .iter()
                .filter(|d| authenticated.contains(d))
                .count() as u32
                >= *required
        }
        // This helper decides only the *grantee* question; the other
        // restrictions are enforced by `RestrictionSet::evaluate` during
        // chain verification. Enumerated (not `_`) so a new variant
        // forces an explicit decision here (§7.9).
        Restriction::ForUseByGroup { .. }
        | Restriction::IssuedFor { .. }
        | Restriction::Quota { .. }
        | Restriction::Authorized { .. }
        | Restriction::GroupMembership { .. }
        | Restriction::AcceptOnce { .. }
        | Restriction::LimitRestriction { .. } => true,
    }) && restrictions.has_grantee()
}

#[cfg(test)]
mod group_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertSeal;
    use crate::key::{GrantAuthority, MapResolver};
    use crate::proxy::{delegate_cascade, grant};
    use crate::replay::ReplayCache;
    use crate::restriction::{ObjectName, Operation, Restriction};
    use crate::time::{Timestamp, Validity};
    use proxy_crypto::ed25519::SigningKey;
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    fn ctx() -> RequestContext {
        RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("file"))
            .at(Timestamp(10))
    }

    struct Setup {
        rng: StdRng,
        shared: SymmetricKey,
        verifier: Verifier<MapResolver>,
    }

    fn symmetric_setup(seed: u64) -> Setup {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        Setup {
            rng,
            shared,
            verifier: Verifier::new(p("fs"), resolver),
        }
    }

    #[test]
    fn bearer_symmetric_round_trip() {
        let mut s = symmetric_setup(1);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([7u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        let verified = s.verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.grantor, p("alice"));
        assert_eq!(verified.chain_len, 1);
    }

    #[test]
    fn two_presentations_under_one_resolver_derive_the_grantor_schedule_once() {
        let mut s = symmetric_setup(23);
        // The grantor's own copy of the key: nothing it derives can
        // reach the resolver's.
        let auth = GrantAuthority::SharedKey(SymmetricKey::from_bytes(*s.shared.as_bytes()));
        for serial in [1, 2] {
            let proxy = grant(
                &p("alice"),
                &auth,
                RestrictionSet::new(),
                window(),
                serial,
                &mut s.rng,
            );
            let pres = proxy.present_bearer([7u8; 32], &p("fs"));
            s.verifier
                .verify(&pres, &ctx(), &mut ReplayCache::new())
                .unwrap();
        }
        // Each verification worked under its own `grantor_verifier()`
        // clone. Two more clones hold one schedule between them only if
        // the stored key is the one that derived it.
        let clones = [(); 2].map(|()| s.verifier.resolver.grantor_verifier(&p("alice")));
        let [Some(GrantorVerifier::SharedKey(a)), Some(GrantorVerifier::SharedKey(b))] = clones
        else {
            panic!("alice is registered with a shared key");
        };
        assert!(a.shares_schedule_with(&b));
        assert!(!a.shares_schedule_with(&s.shared));
    }

    /// A two-link HMAC chain and its bearer presentation, recorded from
    /// the commit before keys kept their schedule (PR 22): the same
    /// seeded grant must produce these bytes (so what this build seals,
    /// that one verifies), and these bytes must verify here — HMAC seal,
    /// sealed proxy key and possession proof alike.
    #[test]
    fn a_chain_sealed_before_keys_kept_their_schedule_is_reproduced_and_verifies() {
        let golden: Vec<u8> = {
            let hex = "02000000a80000008300000070726f78792d6161206365727420763101000000\
             5229000000000000000a00000000000000e80300000000000000000000004c00\
             00003dfe4131b70896cd6fec6c98873fe062e619444cd25cdfb3089f76a7f2bf\
             2c7330053b2f2db16cad369fe9d2fa308f3792ea916f34ef6a39cdc292f6645b\
             c111972f8deeb545475b531598c80000d2ab525a68d754b3836b2749900add13\
             92bed0e563cc147aa1f7a6dc9f888ddaa80000008300000070726f78792d6161\
             206365727420763101000000522a000000000000000a00000000000000e80300\
             000000000000000000004c000000ac655bd0e8e6f6cde89b57b532aeabb13dab\
             f0f2a0624734da0b9bfc651ac6bdeb4c20bd5fdbf0352ff047773688c2fcf1db\
             5fcb06390781e8f652e4f1d4e2b852486a6d920eb731d42a30f3010036b18363\
             f64c0536d2aca9ba296ce6c57b09d7b2840328db4809c87e37d65ad500777777\
             7777777777777777777777777777777777777777777777777777777777200000\
             009c111b88c6efed6a93bbce31c347ddbdf349eb1104584eb1c5b0eb55a28abb\
             a1";
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let key = SymmetricKey::from_bytes(std::array::from_fn(|i| {
            (i as u8).wrapping_mul(7).wrapping_add(3)
        }));
        let validity = Validity::new(Timestamp(10), Timestamp(1000));
        let mut rng = StdRng::seed_from_u64(0x5eed_0023);
        let proxy = grant(
            &p("R"),
            &GrantAuthority::SharedKey(key.clone()),
            RestrictionSet::new(),
            validity,
            41,
            &mut rng,
        )
        .derive(RestrictionSet::new(), validity, 42, &mut rng)
        .unwrap();
        assert_eq!(proxy.present_bearer([0x77; 32], &p("S")).encode(), golden);

        let verifier = Verifier::new(
            p("S"),
            MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(key)),
        );
        let ctx = RequestContext::new(p("S"), Operation::new("read"), ObjectName::new("file"))
            .at(Timestamp(10));
        let pres = Presentation::decode(&golden).unwrap();
        let verified = verifier
            .verify(&pres, &ctx, &mut ReplayCache::new())
            .unwrap();
        assert_eq!((verified.grantor, verified.chain_len), (p("R"), 2));
    }

    #[test]
    fn revoked_serial_rejected_unrevoked_accepted() {
        let mut s = symmetric_setup(77);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let dir = Arc::new(RevocationDirectory::new());
        let verifier = s.verifier.clone().with_revocation(dir.clone());
        let revoked = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            41,
            &mut s.rng,
        );
        let fine = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            42,
            &mut s.rng,
        );
        // Mirror a snapshot revoking serial 41 (seal already verified in
        // this unit's scope; directory applies verified artifacts).
        let artifact = crate::revocation::RevocationArtifact::seal(
            p("alice"),
            1,
            crate::revocation::ArtifactKind::Snapshot,
            [41u64].into_iter().collect(),
            &auth,
        );
        dir.apply_verified(&artifact).unwrap();
        let mut guard = ReplayCache::new();
        let pres = revoked.present_bearer([7u8; 32], &p("fs"));
        assert_eq!(
            verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::Revoked {
                index: 0,
                serial: 41
            })
        );
        let pres = fine.present_bearer([8u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // A verifier without the mirror still accepts the revoked serial —
        // revocation is strictly opt-in state, never ambient.
        let pres = revoked.present_bearer([9u8; 32], &p("fs"));
        assert!(s.verifier.verify(&pres, &ctx(), &mut guard).is_ok());
    }

    /// A verifier that knows each of `grantors`' public keys (one key per
    /// name), with a bearer presentation of a proxy each of them granted,
    /// prepared, and the first grantor's key.
    #[cfg(debug_assertions)]
    fn prepared_public_key_group(
        grantors: &[&str],
    ) -> (Verifier<MapResolver>, Vec<Prepared>, VerifyingKey) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut resolver = MapResolver::new();
        let mut proxies = Vec::new();
        for (serial, name) in (1..).zip(grantors) {
            let sk = SigningKey::from_seed(&Sha256::digest(name.as_bytes()));
            resolver.insert(p(name), GrantorVerifier::PublicKey(sk.verifying_key()));
            let auth = GrantAuthority::Keypair(sk);
            proxies.push(grant(
                &p(name),
                &auth,
                RestrictionSet::new(),
                window(),
                serial,
                &mut rng,
            ));
        }
        let verifier = Verifier::new(p("fs"), resolver);
        let group = proxies
            .iter()
            .map(|proxy| {
                verifier.prepare(&proxy.present_bearer([7u8; 32], &p("fs")), Timestamp(10))
            })
            .collect();
        let first = SigningKey::from_seed(&Sha256::digest(grantors[0].as_bytes())).verifying_key();
        (verifier, group, first)
    }

    /// The former L6 fixture `l6_group_equation_under_slot_guard`: the
    /// shared equation of a group under several keys, settled while a
    /// key-table slot is held, trips the witness.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Verifier::settle entered holding")]
    fn a_group_settled_under_a_slot_guard_trips_the_witness() {
        let (verifier, mut group, key) = prepared_public_key_group(&["alice", "bob"]);
        verifier
            .keys
            .holding_slot_of(&key, || verifier.settle(&mut group));
    }

    /// The former L6 fixture `l6_one_key_equation_under_slot_guard`: a
    /// run of checks under one prepared key, settled while that key's
    /// slot is held, trips the witness.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Verifier::settle entered holding")]
    fn a_one_key_run_settled_under_its_slot_trips_the_witness() {
        let (verifier, mut group, key) = prepared_public_key_group(&["alice", "alice"]);
        // Seen twice, the key is prepared: the next run is one-key.
        verifier.settle(&mut group);
        let (_, mut again, _) = prepared_public_key_group(&["alice", "alice"]);
        verifier
            .keys
            .holding_slot_of(&key, || verifier.settle(&mut again));
    }

    /// A read's lone checks under eight prepared keys — eight one-link
    /// delegate proxies, each presented by identity, under eight
    /// grantors the verifier has seen twice — settle in lanes. The run
    /// itself, its keys probed first and then settled while one key's
    /// slot is held, trips the witness (past `settle`'s own entry check,
    /// which `a_group_settled_under_a_slot_guard_trips_the_witness`
    /// drives).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "settle_run entered holding")]
    fn a_lane_run_settled_under_a_slot_trips_the_witness() {
        let mut rng = StdRng::seed_from_u64(29);
        let grantors: Vec<(PrincipalId, SigningKey)> = (0..8)
            .map(|i| (p(&format!("grantor-{i}")), SigningKey::generate(&mut rng)))
            .collect();
        let mut resolver = MapResolver::new();
        for (name, sk) in &grantors {
            resolver.insert(name.clone(), GrantorVerifier::PublicKey(sk.verifying_key()));
        }
        let verifier = Verifier::new(p("fs"), resolver);
        let read = |rng: &mut StdRng| -> Vec<Prepared> {
            grantors
                .iter()
                .map(|(name, sk)| {
                    let proxy = grant(
                        name,
                        &GrantAuthority::Keypair(sk.clone()),
                        RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
                        window(),
                        1,
                        rng,
                    );
                    verifier.prepare(&proxy.present_delegate(), Timestamp(10))
                })
                .collect()
        };
        // Seen once, then prepared on the second sighting.
        for _ in 0..2 {
            verifier.settle(&mut read(&mut rng));
        }
        let mut lanes = read(&mut rng);
        verifier.settle(&mut lanes);
        assert!(lanes.iter().all(|p| p.lone_verdict == Some(true)));
        let mut again = read(&mut rng);
        let mut run: [Option<(usize, Arc<ed25519::PreparedKey>)>; 8] = Default::default();
        for (i, lane) in run.iter_mut().enumerate() {
            let key = again[i].lone_key().expect("a lone check");
            *lane = Some((i, verifier.keys.prepared(&key).expect("prepared")));
        }
        let key = grantors[0].1.verifying_key();
        verifier
            .keys
            .holding_slot_of(&key, || settle_run(&mut again, &mut run));
    }

    #[test]
    fn bearer_public_key_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        let pres = proxy.present_bearer([7u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
    }

    #[test]
    fn unknown_grantor_rejected() {
        let mut s = symmetric_setup(3);
        let other_key = SymmetricKey::generate(&mut s.rng);
        let auth = GrantAuthority::SharedKey(other_key);
        let proxy = grant(
            &p("mallory"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::UnknownGrantor(p("mallory")))
        );
    }

    #[test]
    fn forged_seal_rejected() {
        let mut s = symmetric_setup(4);
        // Mallory knows alice's name but not the shared key.
        let mallory_key = SymmetricKey::generate(&mut s.rng);
        let auth = GrantAuthority::SharedKey(mallory_key);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn restriction_stripping_detected() {
        let mut s = symmetric_setup(5);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let restricted = RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("only-this"),
            Operation::new("read"),
        ));
        let proxy = grant(&p("alice"), &auth, restricted, window(), 1, &mut s.rng);
        let mut pres = proxy.present_bearer([0u8; 32], &p("fs"));
        // Attacker strips the restrictions from the certificate.
        pres.certs[0].restrictions = RestrictionSet::new();
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn expired_proxy_rejected() {
        let mut s = symmetric_setup(6);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(5)),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard), // ctx.now = 10
            Err(VerifyError::NotValidAt {
                index: 0,
                now: Timestamp(10)
            })
        );
    }

    #[test]
    fn wrong_challenge_response_rejected() {
        let mut s = symmetric_setup(7);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let mut pres = proxy.present_bearer([1u8; 32], &p("fs"));
        // Server actually issued a different challenge: simulate by
        // swapping the challenge after the response was computed.
        if let Proof::Possession { challenge, .. } = &mut pres.proof {
            *challenge = [2u8; 32];
        }
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn presentation_bound_to_server() {
        // A response computed for server A must not verify at server B.
        let mut s = symmetric_setup(8);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres_for_other = proxy.present_bearer([1u8; 32], &p("other-server"));
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres_for_other, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn bearer_without_possession_rejected() {
        let mut s = symmetric_setup(9);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate(); // wrong: bearer needs PoP
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BearerRequiresPossession)
        );
    }

    #[test]
    fn delegate_requires_named_identity() {
        let mut s = symmetric_setup(10);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate();
        let mut guard = ReplayCache::new();
        // Unauthenticated: denied.
        assert!(matches!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Authenticated as carol: still denied.
        let carol_ctx = ctx().authenticated_as(p("carol"));
        assert!(matches!(
            s.verifier.verify(&pres, &carol_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Authenticated as bob: accepted.
        let bob_ctx = ctx().authenticated_as(p("bob"));
        assert!(s.verifier.verify(&pres, &bob_ctx, &mut guard).is_ok());
    }

    #[test]
    fn bearer_cascade_verifies_and_restricts() {
        let mut s = symmetric_setup(11);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(Restriction::authorize_op(
                    ObjectName::new("file"),
                    Operation::new("read"),
                )),
                window(),
                2,
                &mut s.rng,
            )
            .unwrap();
        let mut guard = ReplayCache::new();
        // Allowed: matches the added restriction.
        let pres = child.present_bearer([3u8; 32], &p("fs"));
        let verified = s.verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.chain_len, 2);
        // Denied: outside the added restriction.
        let mut write_ctx = ctx();
        write_ctx.operation = Operation::new("write");
        assert!(matches!(
            s.verifier.verify(&pres, &write_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Crucially, the *parent* proxy still allows writes (restrictions
        // were added, not transformed).
        let parent_pres = parent.present_bearer([4u8; 32], &p("fs"));
        assert!(s
            .verifier
            .verify(&parent_pres, &write_ctx, &mut guard)
            .is_ok());
    }

    #[test]
    fn delegate_cascade_grants_subordinate_access() {
        let mut s = symmetric_setup(12);
        let alice_auth = GrantAuthority::SharedKey(s.shared.clone());
        // Alice grants a delegate proxy to the print server.
        let parent = grant(
            &p("alice"),
            &alice_auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
            window(),
            1,
            &mut s.rng,
        );
        // The print server passes it to the file server with its own
        // signature (audit trail).
        let print_shared = SymmetricKey::generate(&mut s.rng);
        let print_auth = GrantAuthority::SharedKey(print_shared.clone());
        let child = delegate_cascade(
            &parent.certs,
            &p("print"),
            &print_auth,
            p("fsworker"),
            RestrictionSet::new(),
            window(),
            2,
            &mut s.rng,
        )
        .unwrap();
        // End-server knows both alice's and print's keys.
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::SharedKey(s.shared.clone()))
            .with(p("print"), GrantorVerifier::SharedKey(print_shared));
        let verifier = Verifier::new(p("fs"), resolver);
        let pres = child.present_delegate();
        let mut guard = ReplayCache::new();
        // The subordinate authenticates as itself; the cascade makes it an
        // effective delegate of alice's proxy.
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        let verified = verifier.verify(&pres, &sub_ctx, &mut guard).unwrap();
        assert_eq!(verified.grantor, p("alice"));
        assert_eq!(verified.chain_len, 2);
        // Someone else authenticating cannot use the chain.
        let other_ctx = ctx().authenticated_as(p("intruder"));
        assert!(matches!(
            verifier.verify(&pres, &other_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
    }

    #[test]
    fn head_sealed_by_prior_key_rejected() {
        let mut s = symmetric_setup(13);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let child = parent
            .derive(RestrictionSet::new(), window(), 2, &mut s.rng)
            .unwrap();
        // Present only the tail link, pretending it is a whole chain.
        let mut pres = child.present_bearer([0u8; 32], &p("fs"));
        pres.certs.remove(0);
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::HeadNotGrantorSealed)
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let s = symmetric_setup(14);
        let pres = Presentation {
            certs: vec![],
            proof: Proof::Identity,
        };
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::EmptyChain)
        );
    }

    #[test]
    fn eavesdropper_cannot_reuse_presentation() {
        // The attacker records a full presentation off the wire, then tries
        // to use the proxy with a *new* challenge from the server. Without
        // the proxy key it can only replay the old response, which fails.
        let mut s = symmetric_setup(15);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let recorded = proxy.present_bearer([10u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        assert!(s.verifier.verify(&recorded, &ctx(), &mut guard).is_ok());
        // Fresh challenge from the server; attacker replays the old response.
        let Proof::Possession { response, .. } = &recorded.proof else {
            unreachable!()
        };
        let replayed = Presentation {
            certs: recorded.certs.clone(),
            proof: Proof::Possession {
                challenge: [11u8; 32],
                response: response.clone(),
            },
        };
        assert_eq!(
            s.verifier.verify(&replayed, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn accept_once_enforced_through_verifier() {
        let mut s = symmetric_setup(16);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::AcceptOnce { id: 99 }),
            window(),
            1,
            &mut s.rng,
        );
        let mut guard = ReplayCache::new();
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(s.verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // Second acceptance (even via a fresh presentation) is rejected.
        let pres2 = proxy.present_bearer([2u8; 32], &p("fs"));
        assert!(matches!(
            s.verifier.verify(&pres2, &ctx(), &mut guard),
            Err(VerifyError::Denied(
                crate::restriction::Denial::AlreadyAccepted { id: 99 }
            ))
        ));
    }

    #[test]
    fn public_key_cascade_round_trip() {
        let mut rng = StdRng::seed_from_u64(17);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(Restriction::issued_for_one(p("fs"))),
                window(),
                2,
                &mut rng,
            )
            .unwrap();
        let grandchild = child
            .derive(RestrictionSet::new(), window(), 3, &mut rng)
            .unwrap();
        let pres = grandchild.present_bearer([5u8; 32], &p("fs"));
        let mut guard = ReplayCache::new();
        let verified = verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.chain_len, 3);
    }

    #[test]
    fn issued_for_blocks_other_servers() {
        let mut rng = StdRng::seed_from_u64(18);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        // Same resolver at two servers (public keys are universal — exactly
        // the §7.3 concern).
        let fs = Verifier::new(p("fs"), resolver.clone());
        let mail = Verifier::new(p("mail"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::issued_for_one(p("fs"))),
            window(),
            1,
            &mut rng,
        );
        let mut guard = ReplayCache::new();
        let pres_fs = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(fs.verify(&pres_fs, &ctx(), &mut guard).is_ok());
        let pres_mail = proxy.present_bearer([1u8; 32], &p("mail"));
        let mut mail_ctx = ctx();
        mail_ctx.server = p("mail");
        assert!(matches!(
            mail.verify(&pres_mail, &mail_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
    }

    #[test]
    fn mismatched_seal_flavor_rejected() {
        let mut s = symmetric_setup(19);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let mut pres = proxy.present_bearer([1u8; 32], &p("fs"));
        // Replace the HMAC seal with an Ed25519 signature: the resolver
        // says alice uses a shared key, so the flavors cannot line up.
        let sk = SigningKey::generate(&mut s.rng);
        pres.certs[0].seal = CertSeal::Ed25519(sk.sign(b"x"));
        let mut guard = ReplayCache::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::FlavorMismatch { index: 0 })
        );
    }

    /// Seal flavour and key flavour must agree on every arm of the chain
    /// walk: a grantor's key at the head, the prior proxy key on a bearer
    /// cascade, an intermediate's key on a delegate cascade. The other
    /// flavour's seal is a mismatch at its own index, whatever it holds,
    /// and nothing about the chain reaches the seal cache.
    #[test]
    fn a_seal_of_the_other_flavour_is_a_mismatch_at_every_kind_of_link() {
        let mut rng = StdRng::seed_from_u64(28);
        let [alice_sk, print_sk, forger] = [(); 3].map(|()| SigningKey::generate(&mut rng));
        let [alice_k, print_k] = [(); 2].map(|()| SymmetricKey::generate(&mut rng));
        let flavours = [
            (
                GrantAuthority::Keypair(alice_sk.clone()),
                GrantAuthority::Keypair(print_sk.clone()),
                MapResolver::new()
                    .with(
                        p("alice"),
                        GrantorVerifier::PublicKey(alice_sk.verifying_key()),
                    )
                    .with(
                        p("print"),
                        GrantorVerifier::PublicKey(print_sk.verifying_key()),
                    ),
                CertSeal::Hmac([0u8; 32]),
            ),
            (
                GrantAuthority::SharedKey(alice_k.clone()),
                GrantAuthority::SharedKey(print_k.clone()),
                MapResolver::new()
                    .with(p("alice"), GrantorVerifier::SharedKey(alice_k))
                    .with(p("print"), GrantorVerifier::SharedKey(print_k)),
                CertSeal::Ed25519(forger.sign(b"x")),
            ),
        ];
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        for (alice, print, resolver, other_seal) in flavours {
            let head = grant(
                &p("alice"),
                &alice,
                RestrictionSet::new(),
                window(),
                1,
                &mut rng,
            );
            let bearer = head
                .derive(RestrictionSet::new(), window(), 2, &mut rng)
                .unwrap();
            let to_print = grant(
                &p("alice"),
                &alice,
                RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
                window(),
                3,
                &mut rng,
            );
            let delegate = delegate_cascade(
                &to_print.certs,
                &p("print"),
                &print,
                p("fsworker"),
                RestrictionSet::new(),
                window(),
                4,
                &mut rng,
            )
            .unwrap();
            let cases = [
                (head.present_bearer([1u8; 32], &p("fs")), 0),
                (bearer.present_bearer([2u8; 32], &p("fs")), 1),
                (delegate.present_delegate(), 1),
            ];
            for (honest, index) in cases {
                let case = format!("{other_seal:?} at link {index} of {}", honest.certs.len());
                let verifier = || Verifier::new(p("fs"), resolver.clone()).with_seal_cache(64);
                let mut guard = ReplayCache::new();
                assert!(
                    verifier().verify(&honest, &sub_ctx, &mut guard).is_ok(),
                    "{case}"
                );
                let mut swapped = honest;
                swapped.certs[index].seal = other_seal.clone();
                let verifier = verifier();
                assert_eq!(
                    verifier.verify(&swapped, &sub_ctx, &mut guard),
                    Err(VerifyError::FlavorMismatch { index }),
                    "{case}"
                );
                assert_eq!(verifier.seal_cache().unwrap().len(), 0, "{case}");
            }
        }
    }

    #[test]
    fn verification_works_on_decoded_wire_presentations() {
        let mut s = symmetric_setup(20);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut s.rng)
        .unwrap();
        let wire = proxy.present_bearer([2u8; 32], &p("fs")).encode();
        let decoded = crate::present::Presentation::decode(&wire).unwrap();
        let mut guard = ReplayCache::new();
        assert!(s.verifier.verify(&decoded, &ctx(), &mut guard).is_ok());
    }

    #[test]
    fn grantee_concurrence_required_at_verification() {
        // required = 2 delegates must be authenticated together.
        let mut s = symmetric_setup(21);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::Grantee {
                delegates: vec![p("bob"), p("carol")],
                required: 2,
            }),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate();
        let mut guard = ReplayCache::new();
        let one = ctx().authenticated_as(p("bob"));
        assert!(matches!(
            s.verifier.verify(&pres, &one, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        let both = ctx()
            .authenticated_as(p("bob"))
            .authenticated_as(p("carol"));
        assert!(s.verifier.verify(&pres, &both, &mut guard).is_ok());
    }

    #[test]
    fn cached_verifier_round_trips_and_records_hits() {
        let mut rng = StdRng::seed_from_u64(23);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut rng)
        .unwrap();
        let mut guard = ReplayCache::new();
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        let cache = verifier.seal_cache().unwrap();
        assert_eq!(cache.len(), 2, "both chain links cached");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 2));
        // Re-presentation with a fresh challenge: both seals hit.
        let pres2 = proxy.present_bearer([2u8; 32], &p("fs"));
        assert!(verifier.verify(&pres2, &ctx(), &mut guard).is_ok());
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn cached_verifier_still_rejects_tampering() {
        let mut rng = StdRng::seed_from_u64(24);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::authorize_op(
                ObjectName::new("file"),
                Operation::new("read"),
            )),
            window(),
            1,
            &mut rng,
        );
        let mut guard = ReplayCache::new();
        // Warm the cache with the honest certificate.
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // A stripped variant is a different body, so a different digest:
        // the cache cannot vouch for it and the seal check fails.
        let mut stripped = proxy.present_bearer([2u8; 32], &p("fs"));
        stripped.certs[0].restrictions = RestrictionSet::new();
        assert_eq!(
            verifier.verify(&stripped, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn bad_link_in_batched_chain_blames_its_index() {
        let mut rng = StdRng::seed_from_u64(25);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut rng)
        .unwrap()
        .derive(RestrictionSet::new(), window(), 3, &mut rng)
        .unwrap();
        let mut pres = proxy.present_bearer([3u8; 32], &p("fs"));
        // Corrupt the middle link's serial: the batched seal check must
        // fail and attribute the failure to index 1.
        pres.certs[1].serial ^= 1;
        let mut guard = ReplayCache::new();
        assert_eq!(
            verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 1 })
        );
    }

    /// Every way a depth-4 Ed25519 cascade can fail its seals and its
    /// proof at once, cold and warm. The seals and the possession proof
    /// are settled as one equation, and none of that may show: a forged
    /// seal is blamed at its chain index before anything is said about
    /// the proof, and seals that hold are cached whatever the proof does.
    #[test]
    fn forged_seal_and_bad_proof_matrix_on_a_depth4_cascade() {
        let mut rng = StdRng::seed_from_u64(26);
        let sk = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let auth = GrantAuthority::Keypair(sk);
        let mut proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        for serial in 2..=4 {
            proxy = proxy
                .derive(RestrictionSet::new(), window(), serial, &mut rng)
                .unwrap();
        }
        let honest = proxy.present_bearer([4u8; 32], &p("fs"));
        assert_eq!(honest.certs.len(), 4);
        let thief = crate::proxy::Proxy {
            certs: proxy.certs.clone(),
            key: GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
        };
        let Proof::Possession {
            challenge,
            response,
        } = honest.proof.clone()
        else {
            unreachable!()
        };
        let proofs = [
            (honest.proof.clone(), Ok(())),
            (
                thief.present_bearer(challenge, &p("fs")).proof,
                Err(VerifyError::BadPossession),
            ),
            (
                Proof::Possession {
                    challenge,
                    response: response[..63].to_vec(),
                },
                Err(VerifyError::BadPossession),
            ),
            (Proof::Identity, Err(VerifyError::BearerRequiresPossession)),
        ];
        // Cold: every seal is pending when the proof arrives. Warm: the
        // honest links hit the seal cache, so a forged one is pending
        // alone or with the proof — the blame must still be its chain
        // index, not its place in the batch.
        for warm in [false, true] {
            for (proof, proof_verdict) in &proofs {
                for forged_at in [None, Some(0), Some(1), Some(2), Some(3)] {
                    let verifier = Verifier::new(p("fs"), resolver.clone()).with_seal_cache(64);
                    let cache = verifier.seal_cache().unwrap();
                    let mut guard = ReplayCache::new();
                    if warm {
                        assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
                    }
                    let cached_before = cache.len();
                    let mut pres = honest.clone();
                    pres.proof = proof.clone();
                    if let Some(k) = forged_at {
                        let body = pres.certs[k].body_bytes();
                        pres.certs[k].seal = CertSeal::Ed25519(forger.sign(&body));
                    }
                    let expect = match forged_at {
                        Some(index) => Err(VerifyError::BadSeal { index }),
                        None => proof_verdict.clone(),
                    };
                    let case = format!("warm={warm} proof={proof:?} forged_at={forged_at:?}");
                    assert_eq!(
                        verifier.verify(&pres, &ctx(), &mut guard).map(|_| ()),
                        expect,
                        "{case}"
                    );
                    // A forged seal caches nothing; four good seals are
                    // cached even under a proof that fails.
                    let cached = if forged_at.is_some() {
                        cached_before
                    } else {
                        4
                    };
                    assert_eq!(cache.len(), cached, "{case}");
                    let (hits, misses) = cache.stats();
                    let looked_up = if warm { 8 } else { 4 };
                    assert_eq!(hits + misses, looked_up, "{case}");
                }
            }
        }
    }

    #[test]
    fn symmetric_proof_failure_is_reported_after_a_forged_ed25519_seal() {
        // A chain may mix flavours: alice seals with Ed25519, and the
        // end-server shares a key with the delegate "print", whose cascade
        // link carries a symmetric proxy key. The HMAC proof is checked
        // while alice's seal is still pending; its failure must wait for
        // the seal's verdict.
        let mut rng = StdRng::seed_from_u64(27);
        let sk = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let print_shared = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()))
            .with(p("print"), GrantorVerifier::SharedKey(print_shared.clone()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let parent = grant(
            &p("alice"),
            &GrantAuthority::Keypair(sk),
            RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
            window(),
            1,
            &mut rng,
        );
        let child = delegate_cascade(
            &parent.certs,
            &p("print"),
            &GrantAuthority::SharedKey(print_shared),
            p("fsworker"),
            RestrictionSet::new(),
            window(),
            2,
            &mut rng,
        )
        .unwrap();
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        let mut guard = ReplayCache::new();
        let mut pres = child.present_bearer([1u8; 32], &p("fs"));
        if let Proof::Possession { response, .. } = &mut pres.proof {
            response[0] ^= 1;
        }
        let mut forged = pres.clone();
        let body = forged.certs[0].body_bytes();
        forged.certs[0].seal = CertSeal::Ed25519(forger.sign(&body));
        assert_eq!(
            verifier.verify(&forged, &sub_ctx, &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
        assert_eq!(verifier.seal_cache().unwrap().len(), 0);
        assert_eq!(
            verifier.verify(&pres, &sub_ctx, &mut guard),
            Err(VerifyError::BadPossession)
        );
        assert_eq!(verifier.seal_cache().unwrap().len(), 1, "alice's seal held");
        let good = child.present_bearer([2u8; 32], &p("fs"));
        assert!(verifier.verify(&good, &sub_ctx, &mut guard).is_ok());
    }
}
