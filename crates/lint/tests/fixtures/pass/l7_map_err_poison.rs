// lint-fixture: path=crates/accounting/src/journal.rs rule=L7
// The journal's durable wait and its compaction route every storage
// error through the latch before passing it up: the first failure
// fences every later operation.

struct Journal {
    store: Option<Arc<dyn Storage>>,
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
}
