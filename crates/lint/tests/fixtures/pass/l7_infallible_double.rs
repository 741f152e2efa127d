// lint-fixture: path=crates/storage/src/mem.rs rule=L7
// An in-memory double whose entry points cannot fail has no error path
// to latch: an infallible body needs no poison.

struct Mem {
    log: Mutex<Vec<Vec<u8>>>,
}

impl Mem {
    fn stage(&self, record: &[u8]) -> Ticket {
        let mut log = self.log.lock();
        log.push(record.to_vec());
        Ticket(log.len() as u64)
    }

    fn wait_durable(&self, _ticket: Ticket) {}
}
