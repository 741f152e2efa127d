//! Accounts: named, ACL-protected, multi-currency (§4).
//!
//! "At a minimum, each account contains a unique name, an
//! access-control-list, and a collection of records, each record
//! specifying a currency and a balance."

use std::collections::HashMap;

use restricted_proxy::encode::{DecodeError, Decoder, Encoder};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::Currency;

use crate::error::AcctError;

/// A hold placed on funds for a certified check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hold {
    /// The held currency.
    pub currency: Currency,
    /// The held amount.
    pub amount: u64,
    /// The party the certified check is payable to.
    pub payee: PrincipalId,
}

/// An account on an accounting server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Account {
    name: String,
    owners: Vec<PrincipalId>,
    balances: HashMap<Currency, u64>,
    /// Funds held for outstanding certified checks, by check number.
    holds: HashMap<u64, Hold>,
    /// Funds set aside for live resource allocations (quota, §4).
    allocated: HashMap<Currency, u64>,
}

impl Account {
    /// Creates an account owned by `owners` (each may debit it).
    #[must_use]
    pub fn new(name: impl Into<String>, owners: Vec<PrincipalId>) -> Self {
        Self {
            name: name.into(),
            owners,
            balances: HashMap::new(),
            holds: HashMap::new(),
            allocated: HashMap::new(),
        }
    }

    /// The account's name (unique per server).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when `principal` may debit the account.
    #[must_use]
    pub fn is_owner(&self, principal: &PrincipalId) -> bool {
        self.owners.contains(principal)
    }

    /// Available (unheld, unallocated) balance in `currency`.
    #[must_use]
    pub fn balance(&self, currency: &Currency) -> u64 {
        self.balances.get(currency).copied().unwrap_or(0)
    }

    /// Funds currently allocated (quota in use) in `currency`.
    #[must_use]
    pub fn allocated(&self, currency: &Currency) -> u64 {
        self.allocated.get(currency).copied().unwrap_or(0)
    }

    /// Total held for certified checks in `currency`.
    #[must_use]
    pub fn held(&self, currency: &Currency) -> u64 {
        self.holds
            .values()
            .filter(|h| h.currency == *currency)
            .map(|h| h.amount)
            .sum()
    }

    /// Credits the account.
    pub fn credit(&mut self, currency: Currency, amount: u64) {
        *self.balances.entry(currency).or_insert(0) += amount;
    }

    /// Whether the balance can cover `amount` of `currency`: the check
    /// [`Self::debit`] makes, for a caller that must know before it
    /// commits to debiting.
    ///
    /// # Errors
    ///
    /// [`AcctError::InsufficientFunds`] when it cannot.
    pub fn covers(&self, currency: &Currency, amount: u64) -> Result<(), AcctError> {
        let available = self.balance(currency);
        if available < amount {
            return Err(AcctError::InsufficientFunds {
                currency: currency.clone(),
                requested: amount,
                available,
            });
        }
        Ok(())
    }

    /// Debits the account.
    ///
    /// # Errors
    ///
    /// [`AcctError::InsufficientFunds`] when the balance cannot cover it.
    pub fn debit(&mut self, currency: &Currency, amount: u64) -> Result<(), AcctError> {
        self.covers(currency, amount)?;
        // No entry means a balance of zero, which covers only zero.
        if let Some(balance) = self.balances.get_mut(currency) {
            *balance -= amount;
        }
        Ok(())
    }

    /// Whether [`Self::place_hold`] can hold `amount` of `currency` for
    /// `check_no`: the check the hold is for is the only one that number
    /// may pay, so a number holds once.
    pub(crate) fn can_hold(
        &self,
        check_no: u64,
        currency: &Currency,
        amount: u64,
    ) -> Result<(), AcctError> {
        if self.holds.contains_key(&check_no) {
            return Err(AcctError::held_number(check_no));
        }
        self.covers(currency, amount)
    }

    /// Places a hold for a certified check: funds move out of the balance
    /// into the hold (§4: "The accounting server places a hold on the
    /// resources").
    ///
    /// # Errors
    ///
    /// [`AcctError::Verify`] (the number already accepted) when
    /// `check_no` already has a hold; [`AcctError::InsufficientFunds`]
    /// when the balance cannot cover it. Either way nothing moves.
    pub fn place_hold(
        &mut self,
        check_no: u64,
        currency: Currency,
        amount: u64,
        payee: PrincipalId,
    ) -> Result<(), AcctError> {
        self.can_hold(check_no, &currency, amount)?;
        self.debit(&currency, amount)?;
        self.holds.insert(
            check_no,
            Hold {
                currency,
                amount,
                payee,
            },
        );
        Ok(())
    }

    /// Takes the hold for `check_no`, if present (settling a certified
    /// check).
    pub fn take_hold(&mut self, check_no: u64) -> Option<Hold> {
        self.holds.remove(&check_no)
    }

    /// Peeks at the hold for `check_no` without consuming it — the
    /// durable settle path must know *whether* the debit comes from a
    /// hold before staging its journal record, and only then apply.
    #[must_use]
    pub fn hold(&self, check_no: u64) -> Option<&Hold> {
        self.holds.get(&check_no)
    }

    /// Releases the hold for `check_no`, returning funds to the balance
    /// (a certified check that was never cashed).
    ///
    /// # Errors
    ///
    /// [`AcctError::NoHold`] when no such hold exists.
    pub fn release_hold(&mut self, check_no: u64) -> Result<(), AcctError> {
        let hold = self
            .holds
            .remove(&check_no)
            .ok_or(AcctError::NoHold { check_no })?;
        self.credit(hold.currency, hold.amount);
        Ok(())
    }

    /// Allocates quota: moves funds from the balance into the allocated
    /// bucket ("transferring funds of the appropriate currency out of an
    /// account when the resource is allocated", §4).
    ///
    /// # Errors
    ///
    /// [`AcctError::InsufficientFunds`] when the balance cannot cover it.
    pub fn allocate(&mut self, currency: Currency, amount: u64) -> Result<(), AcctError> {
        self.debit(&currency, amount)?;
        *self.allocated.entry(currency).or_insert(0) += amount;
        Ok(())
    }

    /// Releases quota: returns allocated funds to the balance
    /// ("transferring the funds back when the resource is released", §4).
    ///
    /// # Errors
    ///
    /// [`AcctError::InsufficientFunds`] when more is released than is
    /// allocated.
    pub fn release(&mut self, currency: &Currency, amount: u64) -> Result<(), AcctError> {
        let current = self.allocated(currency);
        if current < amount {
            return Err(AcctError::InsufficientFunds {
                currency: currency.clone(),
                requested: amount,
                available: current,
            });
        }
        // No entry means nothing allocated, so the guard let through only
        // a release of nothing: it changes nothing.
        let Some(allocated) = self.allocated.get_mut(currency) else {
            return Ok(());
        };
        *allocated -= amount;
        self.credit(currency.clone(), amount);
        Ok(())
    }

    /// Canonically encodes the full account state for the durable
    /// journal's snapshots and administrative records. Hash-map order is
    /// unstable, so balances and allocations are sorted by currency and
    /// holds by check number — two equal accounts encode identically.
    pub fn encode_onto(&self, e: &mut Encoder) {
        e.str(&self.name);
        e.count(self.owners.len());
        for o in &self.owners {
            e.str(o.as_str());
        }
        let mut balances: Vec<_> = self.balances.iter().collect();
        balances.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        e.count(balances.len());
        for (c, v) in balances {
            e.str(c.as_str());
            e.u64(*v);
        }
        let mut holds: Vec<_> = self.holds.iter().collect();
        holds.sort_by_key(|(no, _)| **no);
        e.count(holds.len());
        for (no, h) in holds {
            e.u64(*no);
            e.str(h.currency.as_str());
            e.u64(h.amount);
            e.str(h.payee.as_str());
        }
        let mut allocated: Vec<_> = self.allocated.iter().collect();
        allocated.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        e.count(allocated.len());
        for (c, v) in allocated {
            e.str(c.as_str());
            e.u64(*v);
        }
    }

    /// Decodes an account previously written by [`Self::encode_onto`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed input.
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = d.str()?.to_string();
        let mut owners = Vec::new();
        for _ in 0..d.counted(2)? {
            owners.push(d.principal()?);
        }
        let mut balances = HashMap::new();
        for _ in 0..d.counted(10)? {
            let c = Currency::new(d.str()?);
            balances.insert(c, d.u64()?);
        }
        let mut holds = HashMap::new();
        for _ in 0..d.counted(20)? {
            let no = d.u64()?;
            let currency = Currency::new(d.str()?);
            let amount = d.u64()?;
            let payee = d.principal()?;
            holds.insert(
                no,
                Hold {
                    currency,
                    amount,
                    payee,
                },
            );
        }
        let mut allocated = HashMap::new();
        for _ in 0..d.counted(10)? {
            let c = Currency::new(d.str()?);
            allocated.insert(c, d.u64()?);
        }
        Ok(Self {
            name,
            owners,
            balances,
            holds,
            allocated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn usd() -> Currency {
        Currency::new("USD")
    }

    #[test]
    fn credit_debit_round_trip() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        acct.credit(usd(), 100);
        assert_eq!(acct.balance(&usd()), 100);
        acct.debit(&usd(), 40).unwrap();
        assert_eq!(acct.balance(&usd()), 60);
        let err = acct.debit(&usd(), 61).unwrap_err();
        assert_eq!(
            err,
            AcctError::InsufficientFunds {
                currency: usd(),
                requested: 61,
                available: 60
            }
        );
    }

    #[test]
    fn multiple_currencies_are_independent() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        acct.credit(usd(), 10);
        acct.credit(Currency::new("pages"), 500);
        assert_eq!(acct.balance(&usd()), 10);
        assert_eq!(acct.balance(&Currency::new("pages")), 500);
        acct.debit(&Currency::new("pages"), 200).unwrap();
        assert_eq!(acct.balance(&usd()), 10, "USD untouched");
        // A currency never held has a balance of zero, not a panic.
        acct.debit(&Currency::new("kWh"), 0).unwrap();
        assert!(acct.debit(&Currency::new("kWh"), 1).is_err());
    }

    #[test]
    fn holds_move_funds_out_of_balance() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        acct.credit(usd(), 100);
        acct.place_hold(1, usd(), 30, p("bob")).unwrap();
        assert_eq!(acct.balance(&usd()), 70);
        assert_eq!(acct.held(&usd()), 30);
        // Settling consumes the hold without touching the balance.
        let hold = acct.take_hold(1).unwrap();
        assert_eq!(hold.amount, 30);
        assert_eq!(acct.balance(&usd()), 70);
        assert_eq!(acct.held(&usd()), 0);
    }

    #[test]
    fn releasing_hold_returns_funds() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        acct.credit(usd(), 100);
        acct.place_hold(2, usd(), 25, p("bob")).unwrap();
        acct.release_hold(2).unwrap();
        assert_eq!(acct.balance(&usd()), 100);
        assert_eq!(acct.release_hold(2), Err(AcctError::NoHold { check_no: 2 }));
    }

    #[test]
    fn quota_allocate_release_conserves_total() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        let blocks = Currency::new("disk-blocks");
        acct.credit(blocks.clone(), 1000);
        acct.allocate(blocks.clone(), 400).unwrap();
        assert_eq!(acct.balance(&blocks), 600);
        assert_eq!(acct.allocated(&blocks), 400);
        acct.release(&blocks, 150).unwrap();
        assert_eq!(acct.balance(&blocks), 750);
        assert_eq!(acct.allocated(&blocks), 250);
        // Cannot release more than allocated.
        assert!(acct.release(&blocks, 251).is_err());
        // Cannot allocate more than the balance.
        assert!(acct.allocate(blocks.clone(), 751).is_err());
    }

    #[test]
    fn releasing_nothing_of_an_unallocated_currency_is_a_no_op() {
        let mut acct = Account::new("alice", vec![p("alice")]);
        let before = acct.clone();
        acct.release(&Currency::new("disk-blocks"), 0).unwrap();
        assert_eq!(acct, before);
        assert!(acct.release(&Currency::new("disk-blocks"), 1).is_err());
    }

    #[test]
    fn ownership_checks() {
        let acct = Account::new("joint", vec![p("alice"), p("bob")]);
        assert!(acct.is_owner(&p("alice")));
        assert!(acct.is_owner(&p("bob")));
        assert!(!acct.is_owner(&p("carol")));
    }

    #[test]
    fn encode_round_trips_full_state() {
        let mut acct = Account::new("joint", vec![p("alice"), p("bob")]);
        acct.credit(usd(), 900);
        acct.credit(Currency::new("pages"), 44);
        acct.place_hold(9, usd(), 100, p("shop")).unwrap();
        acct.allocate(Currency::new("pages"), 4).unwrap();

        let mut e = Encoder::new();
        acct.encode_onto(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = Account::decode_from(&mut d).unwrap();
        d.finish().unwrap();

        assert_eq!(back.name(), "joint");
        assert!(back.is_owner(&p("alice")) && back.is_owner(&p("bob")));
        assert_eq!(back.balance(&usd()), 800);
        assert_eq!(back.balance(&Currency::new("pages")), 40);
        assert_eq!(back.held(&usd()), 100);
        assert_eq!(back.hold(9).unwrap().payee, p("shop"));
        assert_eq!(back.allocated(&Currency::new("pages")), 4);

        // Canonical: re-encoding the decoded account is byte-identical.
        let mut e2 = Encoder::new();
        back.encode_onto(&mut e2);
        assert_eq!(e2.finish(), bytes);
    }
}
