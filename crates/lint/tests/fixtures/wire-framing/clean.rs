// Fixture: compliant frame construction — everything routes through
// the me/wire.rs cell constructors, which pad to the wire cell.

pub fn send_start(ch: &mut Channel, start: &MeToMe, cell: u32) -> Vec<Vec<u8>> {
    wire::seal_frames(ch, &[wire::lead_cell(start, cell)], 1)
}

pub fn send_chunk(ch: &mut Channel, stream: &Stream, idx: u32, cell: u32) -> Vec<Vec<u8>> {
    wire::seal_frames(ch, &[wire::chunk_cell(stream, idx, cell)], 1)
}

pub fn send_ack(ch: &mut Channel, ack: &MeToMe) -> Vec<u8> {
    wire::seal_msg(ch, ack)
}

pub fn budget(frame_len: usize) -> u32 {
    wire::cell_for_frame_len(frame_len)
}
