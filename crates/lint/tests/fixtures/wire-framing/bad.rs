// Fixture: true positives for wire-framing — building and sealing
// MeToMe stream frames outside me/wire.rs bypasses the cell padding
// that keeps every frame towards a destination the same size.

pub fn send_start(ch: &mut Channel, frame: &mut Vec<u8>) -> Vec<u8> {
    pad_frame(frame, 4096);
    ch.seal(frame)
}

pub fn send_announce(ch: &mut Channel, total: u32) -> Vec<u8> {
    ch.seal(&MeToMe::ChunkStart { total }.to_bytes())
}

pub fn send_chunk(stream: &Stream, idx: u32, buf: &mut Vec<u8>) {
    encode_chunk(stream, idx, buf);
}

pub fn send_chunk_cell(ch: &mut Channel, nonce: &Nonce, body: CellBody) -> Vec<u8> {
    ch.seal_cell(&MeToMe::chunk_header(nonce, 0, 4096), body)
}

pub fn send_pad(ch: &mut Channel, header: &[u8], outs: &mut [&mut [u8]]) {
    ch.seal_many(&[(header, CellBody::zero_pad(4096))], 1, outs);
}
