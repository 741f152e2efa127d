// lint-fixture: path=crates/proxy/src/keytable.rs rule=L6
// A group's settle step under a key-table slot guard: the shared
// equation — up to eighty checks of curve arithmetic — and, when it
// fails, the lone checks that name the culprit, all inside the guard's
// live range, so every key that hashes to the slot waits out the whole
// group. The settle step holds no shard or slot lock; the seal cache
// locks only for one probe or one insert.

struct Slot {
    seen: Mutex<Option<Seen>>,
}

impl Slot {
    fn settle(&self, items: &[Item]) -> Option<usize> {
        let mut guard = self.seen.lock().unwrap_or_else(PoisonError::into_inner);
        if batch_holds(items) {
            *guard = None;
            return None;
        }
        first_lone_failure(items)
    }
}
