// lint-fixture: path=crates/accounting/src/journal.rs rule=L7
// The journal's durable wait and its compaction route every storage
// error through the function that sets the latch before passing it up:
// the first failure fences every later operation.

struct Journal {
    store: Option<Arc<dyn Storage>>,
    poisoned: OnceLock<StorageError>,
}

struct OpGuard<'a> {
    journal: &'a Journal,
    last: Option<Ticket>,
}

impl OpGuard<'_> {
    fn wait(self) -> Result<(), AcctError> {
        if let (Some(store), Some(ticket)) = (&self.journal.store, self.last) {
            store.wait_durable(ticket).map_err(|e| self.journal.poison(e))?;
        }
        Ok(())
    }
}

impl Journal {
    fn compact(&self, snapshot: &[u8]) -> Result<(), AcctError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        self.check_poison()?;
        store
            .install_snapshot(snapshot)
            .map_err(|e| self.poison(e))
    }

    fn check_poison(&self) -> Result<(), AcctError> {
        match self.poisoned.get() {
            Some(e) => Err(AcctError::Storage(e.clone())),
            None => Ok(()),
        }
    }

    fn poison(&self, e: StorageError) -> AcctError {
        let _ = self.poisoned.set(e.clone());
        AcctError::Storage(e)
    }
}
