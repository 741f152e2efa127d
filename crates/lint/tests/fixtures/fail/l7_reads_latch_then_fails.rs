// lint-fixture: path=crates/storage/src/mem.rs rule=L7
// A snapshot install that reads the latch on entry, then fails an I/O
// write and hands the error back without setting it: the store keeps
// serving stages on top of a snapshot that may be half written. Reading
// the latch is not latching it.

struct Mem {
    poisoned: AtomicBool,
    dir: PathBuf,
}

impl Mem {
    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StorageError::Crashed);
        }
        std::fs::write(self.dir.join("snapshot"), state)?;
        Ok(())
    }
}
