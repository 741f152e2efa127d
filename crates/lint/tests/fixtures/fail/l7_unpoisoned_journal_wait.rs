// lint-fixture: path=crates/accounting/src/journal.rs rule=L7
// The journal's durable wait passes a flush failure up with `?` and no
// latch: this operation refuses, but the next one stages behind a record
// the device may never have taken, and can be acknowledged on top of it.

struct OpGuard<'a> {
    journal: &'a Journal,
    last: Option<Ticket>,
}

impl OpGuard<'_> {
    fn wait(self) -> Result<(), AcctError> {
        if let (Some(store), Some(ticket)) = (&self.journal.store, self.last) {
            store.wait_durable(ticket)?;
        }
        Ok(())
    }
}
