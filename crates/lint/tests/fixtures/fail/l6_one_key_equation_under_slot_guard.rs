// lint-fixture: path=crates/proxy/src/keytable.rs rule=L6
// A run of lone checks under one key settled inside the key's slot
// guard: the one-key equation — a stride chain over the key's tables
// and a Straus chain over every signature's R — runs while the guard
// is live, so every key that hashes to the slot waits out the whole
// run. The probe clones the prepared key's `Arc` and drops the guard
// before any curve arithmetic.

struct Slot {
    seen: Mutex<Option<Arc<PreparedKey>>>,
}

impl Slot {
    fn settle_run(&self, items: &[Item]) -> bool {
        let guard = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(prepared) => prepared.holds_all(items),
            None => false,
        }
    }
}
