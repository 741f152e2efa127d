//! Checks as numbered delegate proxies (§4).
//!
//! "A principal authorized to debit an account (the payor) issues a
//! numbered delegate proxy (a check) authorizing the payee to transfer
//! funds from the payor's account to that of the payee." Every semantic
//! field of the check — payee, amount limit, check number, drawee server,
//! debited account — is carried as a *restriction* inside the signed
//! certificate, so tampering with any of them breaks the seal.

use rand::RngCore;

use restricted_proxy::key::GrantAuthority;
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::proxy::{delegate_cascade, grant, Proxy};
use restricted_proxy::restriction::{
    AuthorizedEntry, Currency, ObjectName, Operation, Restriction, RestrictionSet,
};
use restricted_proxy::time::Validity;

use crate::error::AcctError;

/// The operation name used for debiting via checks.
#[must_use]
pub fn debit_op() -> Operation {
    Operation::new("debit")
}

/// The object name representing an account in restriction terms.
#[must_use]
pub fn account_object(account: &str) -> ObjectName {
    ObjectName::new(format!("acct:{account}"))
}

/// A check: a restricted proxy whose certificate chain starts with the
/// payor's numbered delegate proxy and grows by one endorsement per hop
/// (Fig. 5).
#[derive(Clone, Debug)]
pub struct Check {
    /// The underlying proxy chain.
    pub proxy: Proxy,
}

/// The semantic fields of a check, parsed out of its restrictions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckInfo {
    /// Who wrote the check (the payor).
    pub payor: PrincipalId,
    /// Who it is payable to.
    pub payee: PrincipalId,
    /// The check number (`accept-once` identifier).
    pub check_no: u64,
    /// The currency.
    pub currency: Currency,
    /// The face amount (`quota` limit).
    pub amount: u64,
    /// The accounting server the check is drawn on (`issued-for`).
    pub drawn_on: PrincipalId,
    /// The payor's account to debit.
    pub payor_account: String,
}

/// Writes a check (the `check: [ckno,amount,S]C` of Fig. 5).
///
/// `authority` is the payor's signing credential as known to `drawn_on`
/// (session key or identity keypair). The check is a delegate proxy: only
/// `payee` (or a chain of endorsements rooted at `payee`) can negotiate it.
#[allow(clippy::too_many_arguments)]
pub fn write_check<R: RngCore>(
    payor: &PrincipalId,
    authority: &GrantAuthority,
    drawn_on: &PrincipalId,
    payor_account: &str,
    payee: PrincipalId,
    check_no: u64,
    currency: Currency,
    amount: u64,
    validity: Validity,
    rng: &mut R,
) -> Check {
    let restrictions = RestrictionSet::new()
        .with(Restriction::grantee_one(payee))
        .with(Restriction::AcceptOnce { id: check_no })
        .with(Restriction::Quota {
            currency,
            limit: amount,
        })
        .with(Restriction::issued_for_one(drawn_on.clone()))
        .with(Restriction::Authorized {
            entries: vec![AuthorizedEntry::ops(
                account_object(payor_account),
                vec![debit_op()],
            )],
        });
    Check {
        proxy: grant(payor, authority, restrictions, validity, check_no, rng),
    }
}

impl Check {
    /// Parses the check's semantic fields from its head certificate.
    ///
    /// # Errors
    ///
    /// [`AcctError::MalformedCheck`] naming the missing restriction.
    pub fn info(&self) -> Result<CheckInfo, AcctError> {
        let head = self
            .proxy
            .certs
            .first()
            .ok_or(AcctError::MalformedCheck("empty certificate chain"))?;
        let mut payee = None;
        let mut check_no = None;
        let mut money = None;
        let mut drawn_on = None;
        let mut payor_account = None;
        for r in head.restrictions.iter() {
            match r {
                Restriction::Grantee { delegates, .. } => payee = delegates.first().cloned(),
                Restriction::AcceptOnce { id } => check_no = Some(*id),
                Restriction::Quota { currency, limit } => {
                    money = Some((currency.clone(), *limit));
                }
                Restriction::IssuedFor { servers } => drawn_on = servers.first().cloned(),
                Restriction::Authorized { entries } => {
                    payor_account = entries
                        .first()
                        .and_then(|e| e.object.as_str().strip_prefix("acct:").map(str::to_string));
                }
                // Not check fields: these restrict *use* of the check and
                // are enforced by chain verification, not parsed here.
                // Enumerated (not `_`) so a new Restriction variant forces
                // an explicit decision at this site (§7.9).
                Restriction::ForUseByGroup { .. }
                | Restriction::GroupMembership { .. }
                | Restriction::LimitRestriction { .. } => {}
            }
        }
        let (currency, amount) = money.ok_or(AcctError::MalformedCheck("quota"))?;
        Ok(CheckInfo {
            payor: head.grantor.clone(),
            payee: payee.ok_or(AcctError::MalformedCheck("grantee"))?,
            check_no: check_no.ok_or(AcctError::MalformedCheck("accept-once"))?,
            currency,
            amount,
            drawn_on: drawn_on.ok_or(AcctError::MalformedCheck("issued-for"))?,
            payor_account: payor_account.ok_or(AcctError::MalformedCheck("authorized account"))?,
        })
    }

    /// Endorses the check onward (the `E1`/`E2` messages of Fig. 5): the
    /// current holder grants `to` the right to collect on its behalf.
    ///
    /// A *restricted* (deposit-only) endorsement is a delegate cascade —
    /// it names `to` and leaves an audit trail; pass
    /// `deposit_only = Some(account)` to bind the target account into the
    /// signed endorsement. An unrestricted endorsement passes `None`.
    ///
    /// # Errors
    ///
    /// Propagates [`restricted_proxy::error::GrantError`] as
    /// [`AcctError::Verify`]-free grant failures (window mismatch).
    #[allow(clippy::too_many_arguments)]
    pub fn endorse<R: RngCore>(
        &self,
        endorser: &PrincipalId,
        authority: &GrantAuthority,
        to: PrincipalId,
        deposit_only: Option<&str>,
        validity: Validity,
        serial: u64,
        rng: &mut R,
    ) -> Result<Check, AcctError> {
        let mut additional = RestrictionSet::new();
        if let Some(account) = deposit_only {
            // Bind the deposit target into the signed endorsement, scoped
            // to the endorser's processing (ignored by the drawee's
            // restriction evaluation).
            additional.push(Restriction::LimitRestriction {
                servers: vec![endorser.clone()],
                restrictions: vec![Restriction::Authorized {
                    entries: vec![AuthorizedEntry::ops(
                        ObjectName::new(format!("deposit:{account}")),
                        vec![Operation::new("deposit")],
                    )],
                }],
            });
        }
        let proxy = delegate_cascade(
            &self.proxy.certs,
            endorser,
            authority,
            to,
            additional,
            validity,
            serial,
            rng,
        )
        .map_err(|_| AcctError::MalformedCheck("endorsement window"))?;
        Ok(Check { proxy })
    }

    /// Number of endorsements on the check.
    #[must_use]
    pub fn endorsement_count(&self) -> usize {
        self.proxy.certs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::time::Timestamp;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    fn sample_check(rng: &mut StdRng) -> Check {
        let authority = GrantAuthority::SharedKey(SymmetricKey::generate(rng));
        write_check(
            &p("carol"),
            &authority,
            &p("bank2"),
            "carol-checking",
            p("shop"),
            42,
            Currency::new("USD"),
            250,
            window(),
            rng,
        )
    }

    #[test]
    fn info_round_trips_all_fields() {
        let mut rng = StdRng::seed_from_u64(1);
        let check = sample_check(&mut rng);
        let info = check.info().unwrap();
        assert_eq!(
            info,
            CheckInfo {
                payor: p("carol"),
                payee: p("shop"),
                check_no: 42,
                currency: Currency::new("USD"),
                amount: 250,
                drawn_on: p("bank2"),
                payor_account: "carol-checking".into(),
            }
        );
    }

    #[test]
    fn empty_chain_check_is_malformed_not_panic() {
        use restricted_proxy::key::GrantAuthority;
        // Regression: `info()` indexed `certs[0]` and panicked on a
        // hand-built check with no certificates; it must fail closed.
        let mut rng = StdRng::seed_from_u64(3);
        let check = Check {
            proxy: Proxy {
                certs: vec![],
                key: GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            },
        };
        assert!(matches!(
            check.info(),
            Err(AcctError::MalformedCheck("empty certificate chain"))
        ));
    }

    #[test]
    fn check_is_delegate_proxy() {
        let mut rng = StdRng::seed_from_u64(2);
        let check = sample_check(&mut rng);
        assert!(check.proxy.is_delegate());
        assert_eq!(check.endorsement_count(), 0);
    }

    #[test]
    fn endorsements_extend_the_chain() {
        let mut rng = StdRng::seed_from_u64(3);
        let check = sample_check(&mut rng);
        let shop_auth = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        let endorsed = check
            .endorse(
                &p("shop"),
                &shop_auth,
                p("bank1"),
                Some("shop-account"),
                window(),
                1,
                &mut rng,
            )
            .unwrap();
        assert_eq!(endorsed.endorsement_count(), 1);
        // The original fields still parse from the head.
        assert_eq!(endorsed.info().unwrap().check_no, 42);
        // Second endorsement: bank1 → bank2.
        let bank1_auth = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        let endorsed2 = endorsed
            .endorse(
                &p("bank1"),
                &bank1_auth,
                p("bank2"),
                None,
                window(),
                2,
                &mut rng,
            )
            .unwrap();
        assert_eq!(endorsed2.endorsement_count(), 2);
    }

    #[test]
    fn malformed_check_reports_missing_field() {
        let mut rng = StdRng::seed_from_u64(4);
        let authority = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        // A plain proxy without check restrictions is not a check.
        let proxy = restricted_proxy::proxy::grant(
            &p("carol"),
            &authority,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        let check = Check { proxy };
        assert_eq!(check.info(), Err(AcctError::MalformedCheck("quota")));
    }
}
