// lint-fixture: path=crates/proxy/src/key.rs rule=L3
// The one signer type holds a grantor's long-term secret or a proxy
// key; a derived `==` on it is a variable-time byte compare.

#[derive(Clone, PartialEq, Eq)]
pub enum GrantAuthority {
    SharedKey(SymmetricKey),
    Keypair(SigningKey),
}
