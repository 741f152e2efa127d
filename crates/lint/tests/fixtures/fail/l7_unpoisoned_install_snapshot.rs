// lint-fixture: path=crates/storage/src/wal.rs rule=L7
// A snapshot install that can fail halfway — the temp file written, the
// rename refused — and hands the error back without latching the
// poison flag: the next stage appends to a log the snapshot may already
// have replaced.

struct Wal {
    dir: PathBuf,
}

impl Wal {
    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join("snapshot.tmp");
        std::fs::write(&tmp, state)?;
        std::fs::rename(&tmp, self.dir.join("snapshot"))?;
        Ok(())
    }
}
