// lint-fixture: path=crates/wire/src/frame.rs rule=L8
// The read-into-a-sized-buffer discipline (`read_frame`): the header's
// declared body length is compared against the protocol ceiling before
// it sizes the reused scratch buffer, so the allocation is bounded no
// matter what the bytes claim.

const MAX_FRAME_BODY: usize = 1 << 20;

fn read_body_into(header: &[u8], body: &mut Vec<u8>) -> Result<(), WireError> {
    let word = header
        .get(4..8)
        .and_then(|w| w.first_chunk::<4>())
        .ok_or(WireError::Truncated)?;
    let body_len = u32::from_le_bytes(*word) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(WireError::OversizedBody(body_len));
    }
    body.clear();
    body.resize(body_len, 0);
    Ok(())
}
