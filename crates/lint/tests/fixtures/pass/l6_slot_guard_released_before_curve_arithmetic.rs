// lint-fixture: path=crates/proxy/src/keytable.rs rule=L6
// The key table's discipline: a slot guard lives for a comparison and a
// copy — its block, or its one statement — and all curve arithmetic
// (building a key's tables, verifying with them) runs with no slot
// held.

struct Slot {
    seen: Mutex<Option<Seen>>,
}

impl Slot {
    fn tenant(&self) -> MutexGuard<'_, Option<Seen>> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn check(&self, key: &DecompressedKey, message: &[u8], signature: &Signature) -> bool {
        let known = {
            let guard = self.tenant();
            guard.as_ref().and_then(Seen::prepared)
        };
        let prepared = match known {
            Some(prepared) => prepared,
            None => {
                let prepared = Arc::new(PreparedKey::new(key));
                *self.tenant() = Some(Seen::Prepared(Arc::clone(&prepared)));
                prepared
            }
        };
        prepared.verify(message, signature).is_ok()
    }
}
