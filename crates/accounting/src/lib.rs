//! # proxy-accounting
//!
//! The distributed accounting service of paper §4, built on restricted
//! proxies:
//!
//! * [`account`] — named, owner-protected, multi-currency accounts with
//!   holds (certified checks) and allocate/release (quota).
//! * [`check`] — checks as numbered delegate proxies: payee, amount,
//!   check number, drawee, and debited account all ride as restrictions
//!   inside the signed certificate; endorsements are delegate cascades.
//! * [`server`] — the accounting server: deposit, collect, certify,
//!   payment application, bounce handling. A handler verifies,
//!   validates, builds the record of what changes, and replies.
//! * [`clearing`] — the multi-server Fig. 5 flow with routing and
//!   message accounting on the simulated network.
//! * [`journal`] — the durable redo journal (DESIGN.md §15): every
//!   money-moving operation is staged to a `proxy_storage` backend
//!   before its effect is visible; a snapshot is the shortest log that
//!   rebuilds the state.
//! * `ledger` (private) — accounts, uncollected checks, the replay
//!   guard and the serial counter, and the one function that applies a
//!   journal record to them: the same code live, on replay and out of
//!   a snapshot, so recovery rebuilds what the handlers built.
//!
//! ```
//! use proxy_accounting::AccountingServer;
//! use proxy_crypto::ed25519::SigningKey;
//! use rand::{rngs::StdRng, SeedableRng};
//! use restricted_proxy::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut bank = AccountingServer::new(
//!     PrincipalId::new("bank"),
//!     GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
//! );
//! bank.open_account("alice", vec![PrincipalId::new("alice")]);
//! bank.account_mut("alice")?.credit(Currency::new("USD"), 100);
//! assert_eq!(bank.account("alice").unwrap().balance(&Currency::new("USD")), 100);
//! # Ok::<(), proxy_accounting::AcctError>(())
//! ```

// L1, panic-free decode (DESIGN.md §11): this crate reads bytes a peer
// or a disk chose, so outside test code a reachable panic is a remote
// crash. Index with `get`, narrow with `try_from`, return typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]
// L2, fail-closed matches (paper §7.9): every arm over a local enum is
// named, so a new variant breaks each decision site instead of falling
// into a wildcard.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
// L4, no ambient time: clocks are injected `Timestamp`s, so runs replay
// the same under a fixed seed (clippy.toml lists the methods).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod account;
pub mod check;
pub mod clearing;
pub mod error;
pub mod journal;
mod ledger;
pub mod server;

pub use account::{Account, Hold};
pub use check::{account_object, debit_op, write_check, Check, CheckInfo};
pub use clearing::{ClearingHouse, ClearingReport};
pub use error::AcctError;
pub use journal::{decode_snapshot, encode_snapshot, Journal, JournalRecord};
pub use server::{AccountMut, AccountingServer, Deposit, DepositGroup, DepositOutcome, Payment};
