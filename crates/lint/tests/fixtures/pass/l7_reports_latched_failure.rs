// lint-fixture: path=crates/storage/src/mem.rs rule=L7
// The durable wait of a store whose only failure is the one its latch
// already holds: every `Err` sits under a read of the latch, so there is
// nothing new to latch.

struct Mem {
    poisoned: AtomicBool,
}

impl Mem {
    fn wait_durable(&self, _ticket: Ticket) -> Result<(), StorageError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StorageError::Crashed);
        }
        Ok(())
    }
}
