//! Granting, deriving (bearer cascade), and delegate-cascading proxies.
//!
//! * [`grant`] issues a fresh proxy — the head of a chain (Fig. 1).
//! * [`Proxy::derive`] adds restrictions to a bearer proxy by signing a new
//!   certificate with the current proxy key (Fig. 4). No party identity is
//!   involved, so the cascade leaves no audit trail.
//! * [`delegate_cascade`] passes a *delegate* proxy onward: the
//!   intermediate signs the new certificate with its own authority and
//!   names the subordinate, leaving an audit trail (§3.4).

use rand::RngCore;

use crate::cert::{CertSeal, Certificate, SigningAuthorityKind};
use crate::error::GrantError;
use crate::key::GrantAuthority;
use crate::principal::PrincipalId;
use crate::restriction::{Restriction, RestrictionSet};
use crate::time::Validity;

/// A proxy as held by its grantee: the certificate chain plus the (secret)
/// proxy key for the final link.
#[derive(Clone, Debug)]
pub struct Proxy {
    /// Certificate chain, head (original grantor) first.
    pub certs: Vec<Certificate>,
    /// Secret proxy key matching the final certificate's key material:
    /// the authority to seal the next link of a bearer cascade.
    pub key: GrantAuthority,
}

impl Proxy {
    /// The original grantor — the principal whose rights the proxy conveys.
    #[must_use]
    pub fn grantor(&self) -> &PrincipalId {
        &self.certs[0].grantor
    }

    /// The final certificate in the chain.
    #[must_use]
    pub fn final_cert(&self) -> &Certificate {
        self.certs.last().expect("proxy chains are non-empty")
    }

    /// The union of all restrictions along the chain.
    #[must_use]
    pub fn combined_restrictions(&self) -> RestrictionSet {
        self.certs
            .iter()
            .fold(RestrictionSet::new(), |acc, c| acc.union(&c.restrictions))
    }

    /// The effective validity window (intersection along the chain), or
    /// `None` for a malformed chain with disjoint windows.
    #[must_use]
    pub fn effective_validity(&self) -> Option<Validity> {
        let mut iter = self.certs.iter();
        let mut v = iter.next()?.validity;
        for cert in iter {
            v = v.intersect(&cert.validity)?;
        }
        Some(v)
    }

    /// True when any certificate carries a `grantee` restriction, making
    /// this a delegate proxy (§7.1).
    #[must_use]
    pub fn is_delegate(&self) -> bool {
        self.certs.iter().any(|c| c.restrictions.has_grantee())
    }

    /// Total wire size of the certificate chain in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.certs.iter().map(Certificate::encoded_len).sum()
    }

    /// A human-readable audit trail of the chain: one line per link,
    /// showing who sealed it and with what authority. Delegate cascades
    /// name every intermediate (the §3.4 audit property); bearer cascades
    /// show as anonymous key-sealed links.
    #[must_use]
    pub fn audit_trail(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, cert) in self.certs.iter().enumerate() {
            let how = match cert.authority {
                SigningAuthorityKind::Grantor => format!("sealed by {}", cert.grantor),
                SigningAuthorityKind::PriorProxyKey => {
                    "sealed with the prior proxy key (anonymous)".to_string()
                }
            };
            let _ = writeln!(
                out,
                "[{i}] serial {} — {} — {} restriction(s), valid {}..{}",
                cert.serial,
                how,
                cert.restrictions.len(),
                cert.validity.from,
                cert.validity.until,
            );
        }
        out
    }

    /// Derives a more-restricted proxy by signing a new certificate with
    /// the current proxy key (bearer cascade, Fig. 4).
    ///
    /// The new certificate carries only `additional` restrictions — the
    /// parent's restrictions keep applying because the parent certificates
    /// stay in the chain. The requested validity is clipped to the parent's
    /// effective window.
    ///
    /// # Errors
    ///
    /// [`GrantError::ValidityOutsideParent`] when `validity` does not
    /// overlap the parent's effective window.
    pub fn derive<R: RngCore>(
        &self,
        additional: RestrictionSet,
        validity: Validity,
        serial: u64,
        rng: &mut R,
    ) -> Result<Proxy, GrantError> {
        let parent_window = self.effective_validity().ok_or(GrantError::EmptyParent)?;
        let validity = validity
            .intersect(&parent_window)
            .ok_or(GrantError::ValidityOutsideParent)?;
        let (cert, key) = seal_link(
            self.grantor(),
            &self.key,
            SigningAuthorityKind::PriorProxyKey,
            additional,
            validity,
            serial,
            rng,
        );
        let mut certs = self.certs.clone();
        certs.push(cert);
        Ok(Proxy { certs, key })
    }
}

/// Seals one link under `signer` — a grantor's own authority or, on a
/// bearer cascade, the proxy key of the link before (`authority` records
/// which) — and mints the proxy key the link certifies.
fn seal_link<R: RngCore>(
    grantor: &PrincipalId,
    signer: &GrantAuthority,
    authority: SigningAuthorityKind,
    restrictions: RestrictionSet,
    validity: Validity,
    serial: u64,
    rng: &mut R,
) -> (Certificate, GrantAuthority) {
    let (key, key_material) = signer.mint_next(rng);
    let mut cert = Certificate {
        grantor: grantor.clone(),
        serial,
        validity,
        restrictions,
        key_material,
        authority,
        seal: CertSeal::UNSEALED,
    };
    cert.seal = signer.seal(&cert.body_bytes());
    (cert, key)
}

/// Grants a fresh restricted proxy (Fig. 1).
///
/// For a *bearer* proxy, leave `grantee` restrictions out of
/// `restrictions`; for a *delegate* proxy include one (§7.1). The returned
/// [`Proxy`] bundles the certificate and the secret proxy key; transfer to
/// the grantee must protect the key from disclosure (§2).
pub fn grant<R: RngCore>(
    grantor: &PrincipalId,
    authority: &GrantAuthority,
    restrictions: RestrictionSet,
    validity: Validity,
    serial: u64,
    rng: &mut R,
) -> Proxy {
    let (cert, key) = seal_link(
        grantor,
        authority,
        SigningAuthorityKind::Grantor,
        restrictions,
        validity,
        serial,
        rng,
    );
    Proxy {
        certs: vec![cert],
        key,
    }
}

/// Passes a delegate proxy to a subordinate (§3.4).
///
/// `parent_certs` is the chain of the delegate proxy naming `intermediate`;
/// the new certificate is signed directly by `intermediate` (not with the
/// proxy key), names `subordinate` as its grantee, and is appended to the
/// chain — so the chain records exactly which intermediaries took part (the
/// audit trail the paper contrasts with bearer cascades).
///
/// # Errors
///
/// [`GrantError::EmptyParent`] when `parent_certs` is empty;
/// [`GrantError::ValidityOutsideParent`] when `validity` does not overlap
/// the parent chain's effective window.
#[allow(clippy::too_many_arguments)]
pub fn delegate_cascade<R: RngCore>(
    parent_certs: &[Certificate],
    intermediate: &PrincipalId,
    authority: &GrantAuthority,
    subordinate: PrincipalId,
    additional: RestrictionSet,
    validity: Validity,
    serial: u64,
    rng: &mut R,
) -> Result<Proxy, GrantError> {
    if parent_certs.is_empty() {
        return Err(GrantError::EmptyParent);
    }
    let mut window = parent_certs[0].validity;
    for cert in &parent_certs[1..] {
        window = window
            .intersect(&cert.validity)
            .ok_or(GrantError::ValidityOutsideParent)?;
    }
    let validity = validity
        .intersect(&window)
        .ok_or(GrantError::ValidityOutsideParent)?;
    let restrictions = additional.with(Restriction::grantee_one(subordinate));
    let (cert, key) = seal_link(
        intermediate,
        authority,
        SigningAuthorityKind::Grantor,
        restrictions,
        validity,
        serial,
        rng,
    );
    let mut certs = parent_certs.to_vec();
    certs.push(cert);
    Ok(Proxy { certs, key })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restriction::{ObjectName, Operation};
    use crate::time::Timestamp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn window(a: u64, b: u64) -> Validity {
        Validity::new(Timestamp(a), Timestamp(b))
    }

    fn symmetric_authority(rng: &mut StdRng) -> GrantAuthority {
        GrantAuthority::SharedKey(proxy_crypto::keys::SymmetricKey::generate(rng))
    }

    #[test]
    fn grant_produces_single_cert_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let auth = symmetric_authority(&mut rng);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(0, 100),
            1,
            &mut rng,
        );
        assert_eq!(proxy.certs.len(), 1);
        assert_eq!(proxy.grantor(), &p("alice"));
        assert!(!proxy.is_delegate());
        assert_eq!(proxy.effective_validity(), Some(window(0, 100)));
    }

    #[test]
    fn derive_appends_and_narrows_validity() {
        let mut rng = StdRng::seed_from_u64(2);
        let auth = symmetric_authority(&mut rng);
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(0, 100),
            1,
            &mut rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(Restriction::authorize_op(
                    ObjectName::new("f"),
                    Operation::new("read"),
                )),
                window(0, 500),
                2,
                &mut rng,
            )
            .unwrap();
        assert_eq!(child.certs.len(), 2);
        // Clipped to the parent's window.
        assert_eq!(child.effective_validity(), Some(window(0, 100)));
        assert_eq!(child.combined_restrictions().len(), 1);
        assert_eq!(child.grantor(), &p("alice"));
        assert_eq!(
            child.certs[1].authority,
            SigningAuthorityKind::PriorProxyKey
        );
    }

    #[test]
    fn derive_rejects_disjoint_validity() {
        let mut rng = StdRng::seed_from_u64(3);
        let auth = symmetric_authority(&mut rng);
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(0, 10),
            1,
            &mut rng,
        );
        let err = parent
            .derive(RestrictionSet::new(), window(10, 20), 2, &mut rng)
            .unwrap_err();
        assert_eq!(err, GrantError::ValidityOutsideParent);
    }

    #[test]
    fn derive_chains_deepen() {
        let mut rng = StdRng::seed_from_u64(4);
        let auth = GrantAuthority::Keypair(proxy_crypto::ed25519::SigningKey::generate(&mut rng));
        let mut proxy = grant(
            &p("a"),
            &auth,
            RestrictionSet::new(),
            window(0, 1000),
            0,
            &mut rng,
        );
        for i in 1..=5 {
            proxy = proxy
                .derive(
                    RestrictionSet::new().with(Restriction::AcceptOnce { id: i }),
                    window(0, 1000),
                    i,
                    &mut rng,
                )
                .unwrap();
        }
        assert_eq!(proxy.certs.len(), 6);
        assert_eq!(proxy.combined_restrictions().len(), 5);
    }

    #[test]
    fn delegate_cascade_names_subordinate_and_keeps_audit_trail() {
        let mut rng = StdRng::seed_from_u64(5);
        let alice_auth = symmetric_authority(&mut rng);
        let parent = grant(
            &p("alice"),
            &alice_auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("printserver"))),
            window(0, 100),
            1,
            &mut rng,
        );
        assert!(parent.is_delegate());
        let print_auth = symmetric_authority(&mut rng);
        let child = delegate_cascade(
            &parent.certs,
            &p("printserver"),
            &print_auth,
            p("fileserver"),
            RestrictionSet::new(),
            window(0, 100),
            2,
            &mut rng,
        )
        .unwrap();
        assert_eq!(child.certs.len(), 2);
        // Audit trail: the new link records the intermediate's identity.
        assert_eq!(child.certs[1].grantor, p("printserver"));
        assert_eq!(child.certs[1].authority, SigningAuthorityKind::Grantor);
        assert!(child.certs[1].restrictions.has_grantee());
        // The chain still conveys alice's rights.
        assert_eq!(child.grantor(), &p("alice"));
    }

    #[test]
    fn delegate_cascade_rejects_empty_parent() {
        let mut rng = StdRng::seed_from_u64(6);
        let auth = symmetric_authority(&mut rng);
        let err = delegate_cascade(
            &[],
            &p("i"),
            &auth,
            p("s"),
            RestrictionSet::new(),
            window(0, 10),
            0,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, GrantError::EmptyParent);
    }

    #[test]
    fn combined_restrictions_union_across_links() {
        let mut rng = StdRng::seed_from_u64(7);
        let auth = symmetric_authority(&mut rng);
        let r1 = Restriction::issued_for_one(p("s1"));
        let r2 = Restriction::AcceptOnce { id: 9 };
        let parent = grant(
            &p("a"),
            &auth,
            RestrictionSet::new().with(r1.clone()),
            window(0, 100),
            1,
            &mut rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(r2.clone()),
                window(0, 100),
                2,
                &mut rng,
            )
            .unwrap();
        let combined = child.combined_restrictions();
        assert!(combined.iter().any(|r| *r == r1));
        assert!(combined.iter().any(|r| *r == r2));
    }

    #[test]
    fn audit_trail_names_intermediaries_only_on_delegate_cascades() {
        let mut rng = StdRng::seed_from_u64(8);
        let auth = symmetric_authority(&mut rng);
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("spooler"))),
            window(0, 100),
            1,
            &mut rng,
        );
        let spool_auth = symmetric_authority(&mut rng);
        let cascaded = delegate_cascade(
            &parent.certs,
            &p("spooler"),
            &spool_auth,
            p("worker"),
            RestrictionSet::new(),
            window(0, 100),
            2,
            &mut rng,
        )
        .unwrap();
        let trail = cascaded.audit_trail();
        assert!(trail.contains("sealed by alice"));
        assert!(trail.contains("sealed by spooler"));
        // Bearer cascade: anonymous.
        let bearer = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(0, 100),
            3,
            &mut rng,
        )
        .derive(RestrictionSet::new(), window(0, 100), 4, &mut rng)
        .unwrap();
        assert!(bearer.audit_trail().contains("anonymous"));
    }
}
