// lint-fixture: path=crates/storage/src/wal.rs rule=L7
// The durable entry point checks the latch on entry and sets it on the
// error path, through a function of the same file that stores it: a
// storage error fences every later operation.

struct Wal {
    state: Mutex<WalState>,
    poisoned: AtomicBool,
}

impl Wal {
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
        self.check_poison()?;
        let mut st = self.state.lock();
        match self.append_record(record) {
            Ok(seq) => Ok(Ticket(seq)),
            Err(e) => {
                self.poison(&e);
                Err(e)
            }
        }
    }

    fn check_poison(&self) -> Result<(), StorageError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    fn poison(&self, _e: &StorageError) {
        self.poisoned.store(true, Ordering::Release);
    }
}
