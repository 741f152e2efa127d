// lint-fixture: path=crates/proxy/src/keytable.rs rule=L6
// The key table's slot locks are stripes like any other: every key
// that hashes to the slot queues behind the holder. Building a key's
// tables (most of a verification) and verifying with them are tens
// of microseconds of curve arithmetic — both sit inside the guard's
// live range here.

struct Slot {
    seen: Mutex<Option<Seen>>,
}

impl Slot {
    fn check(&self, key: &DecompressedKey, message: &[u8], signature: &Signature) -> bool {
        let mut guard = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        let prepared = Arc::new(PreparedKey::new(key));
        *guard = Some(Seen::Prepared(Arc::clone(&prepared)));
        prepared.verify(message, signature).is_ok()
    }
}
