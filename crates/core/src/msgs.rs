//! Protocol messages exchanged over the attested secure channels.
//!
//! Two message families exist, mirroring Fig. 2 of the paper:
//!
//! * [`LibToMe`] / [`MeToLib`] — between a Migration Library and its local
//!   Migration Enclave, inside the local-attestation channel;
//! * [`MeToMe`] — between the source and destination Migration Enclaves,
//!   inside the remote-attestation channel.
//!
//! All of these travel *encrypted*; the enum encodings here are the
//! channel plaintexts.
//!
//! **Bulk state travels beside, not inside.** The app's bulk state is a
//! container already sealed under the Migration Sealing Key (see
//! [`crate::library::bulk`]). [`LibToMe::MigrateRequest`] and
//! [`MeToLib::IncomingMigration`] carry only Table I plus the
//! container's 32-byte root; the untrusted hosts relay the container
//! itself as a trailing field of the same frame ([`write_relay`] /
//! [`decode_relay`]), and the receiving enclave checks it against the
//! root before keeping it. The ME↔ME messages carry the root next to
//! Table I in [`MeToMe::Transfer`], [`MeToMe::ChunkStart`] and
//! [`MeToMe::DeltaStart`]; the destination ME releases a reassembled
//! container only once it matches that root.
//!
//! Beyond the paper's single-shot `Transfer`, the ME↔ME family carries
//! the streaming state-transfer protocol of [`crate::transfer`]:
//! [`MeToMe::ChunkStart`] announces a full chunked transfer (geometry,
//! container root, generation number, and the Table I control data),
//! [`MeToMe::DeltaStart`] announces a dirty-page *delta* stream (chunk
//! geometry plus the [`DeltaManifest`] naming the base generation and
//! changed pages), [`MeToMe::Chunk`] carries one chunk,
//! [`MeToMe::ChunkAck`] cumulatively acknowledges received chunks
//! (driving the source's send window), [`MeToMe::ResumeRequest`] /
//! [`MeToMe::Resume`] renegotiate the resume point after a crash, and
//! [`MeToMe::DeltaNack`] tells a source whose delta base the destination
//! does not hold to fall back to a full stream.
//!
//! **Per-nonce multiplexing and wire cells.** Several chunk streams to
//! the same destination interleave on one attested channel, each frame
//! tagged by its [`TransferNonce`]; the channel's per-session sequence
//! numbers keep the *interleaving itself* tamper-evident, and the root
//! check at release rejects any cross-stream splice below it. Every
//! [`MeToMe`] message travels as one channel *cell*: the encoding here
//! ([`MeToMe::header`]) is the encrypted header, and the cell's public,
//! authenticated body is a chunk's payload plus zero pad, or zero pad
//! alone ([`MeToMe::body_pad`]; the frame layout is
//! [`crate::me::wire`]'s). The simulated network delivers smaller
//! ciphertexts earlier, so every source→destination stream frame
//! (`ChunkStart` / `DeltaStart` / `Chunk`) is padded to the destination
//! link's current *wire cell* — frames of equal length stay FIFO — and
//! the small destination→source control frames (`Delivered` / `Stored`
//! / `ChunkAck` / `Resume` / `DeltaNack`) are padded to one uniform
//! [`CTRL_FRAME_LEN`] for the same reason.

use crate::library::state::MigrationData;
use crate::transfer::chunker::TransferNonce;
use crate::transfer::delta::DeltaManifest;

/// Zero padding appended to `ResumeRequest` so its ciphertext is larger
/// than any `RA_FINISH` frame (see [`MeToMe::body_pad`]).
const RESUME_REQUEST_PAD: usize = 4096;

use crate::me::wire::{CELL_TRAILER_LEN, CTRL_FRAME_LEN};
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// Writes the relay frame of a sealed local-channel message and the
/// bulk container the host relays beside it (empty when none) into `w`
/// as one length-prefixed byte string. The frame is `[len | ciphertext]
/// ‖ container`; it travels on the app↔ME hops (`LIB_MSG` from the app,
/// `ME_FORWARD` to it).
pub fn write_relay(w: &mut WireWriter, ciphertext: &[u8], container: &[u8]) {
    let len = 4 + ciphertext.len() + container.len();
    w.u32(u32::try_from(len).unwrap_or(u32::MAX))
        .bytes(ciphertext)
        .raw(container);
}

/// Splits a relay frame into the sealed message and the trailing
/// container. Framing only: the enclave checks the container against
/// the root inside the sealed message.
///
/// # Errors
///
/// [`SgxError::Decode`] when the frame does not start with a complete
/// length-prefixed ciphertext.
pub fn decode_relay(bytes: &[u8]) -> Result<(&[u8], &[u8]), SgxError> {
    let mut r = WireReader::new(bytes);
    let ciphertext = r.bytes()?;
    let container = bytes
        .get(bytes.len() - r.remaining()..)
        .ok_or(SgxError::Decode)?;
    Ok((ciphertext, container))
}

/// Writes an optional container root (flag + 32 bytes).
pub(crate) fn write_root(w: &mut WireWriter, root: Option<&[u8; 32]>) {
    match root {
        None => {
            w.u8(0);
        }
        Some(root) => {
            w.u8(1);
            w.array(root);
        }
    }
}

/// Reads an optional container root.
pub(crate) fn read_root(r: &mut WireReader<'_>) -> Result<Option<[u8; 32]>, SgxError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.array()?)),
        _ => Err(SgxError::Decode),
    }
}

/// Library → Migration Enclave (local channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LibToMe {
    /// Start an outgoing migration: transfer `data` and the staged bulk
    /// container named by `root` to `destination` (the `migrate`
    /// message of Fig. 2). The container rides beside the sealed
    /// message ([`write_relay`]).
    MigrateRequest {
        /// The machine the enclave should migrate to.
        destination: MachineId,
        /// The Table I payload.
        data: MigrationData,
        /// Root of the staged bulk container, `None` when none is
        /// staged.
        root: Option<[u8; 32]>,
    },
    /// Confirmation that incoming migration data was installed
    /// (the `DONE` message of Fig. 2).
    Done,
}

impl LibToMe {
    /// Serializes the message (channel plaintext).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            LibToMe::MigrateRequest {
                destination,
                data,
                root,
            } => {
                w.u8(1);
                w.u64(destination.0);
                w.bytes(&data.to_bytes());
                write_root(&mut w, root.as_ref());
            }
            LibToMe::Done => {
                w.u8(2);
            }
        }
        w.finish()
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            1 => LibToMe::MigrateRequest {
                destination: MachineId(r.u64()?),
                data: MigrationData::from_bytes(r.bytes()?)?,
                root: read_root(&mut r)?,
            },
            2 => LibToMe::Done,
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Migration Enclave → Library (local channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeToLib {
    /// Deliver incoming migration data (the `restore data` of Fig. 2);
    /// the bulk container rides beside the sealed message.
    IncomingMigration {
        /// The Table I payload from the source enclave.
        data: MigrationData,
        /// Root of the accompanying bulk container, `None` when none.
        root: Option<[u8; 32]>,
    },
    /// The outgoing migration completed; the destination confirmed.
    MigrationComplete,
}

impl MeToLib {
    /// Serializes the message (channel plaintext).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            MeToLib::IncomingMigration { data, root } => {
                w.u8(1);
                w.bytes(&data.to_bytes());
                write_root(&mut w, root.as_ref());
            }
            MeToLib::MigrationComplete => {
                w.u8(2);
            }
        }
        w.finish()
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            1 => MeToLib::IncomingMigration {
                data: MigrationData::from_bytes(r.bytes()?)?,
                root: read_root(&mut r)?,
            },
            2 => MeToLib::MigrationComplete,
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Migration Enclave ↔ Migration Enclave (remote channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeToMe {
    /// Source → destination: the migrating enclave's identity and payload
    /// — the single-shot fast path for small state.
    /// (§VI-A: "the MRENCLAVE value is appended to the migration data of
    /// the enclave before sending it to the destination".)
    Transfer {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The Table I payload.
        data: MigrationData,
        /// Root of `state`, `None` when it is empty.
        root: Option<[u8; 32]>,
        /// Accompanying bulk container (possibly empty).
        state: Vec<u8>,
    },
    /// Destination → source: the named enclave's data was delivered to a
    /// matching local enclave and confirmed (`DONE` propagated).
    Delivered {
        /// MRENCLAVE of the migrated enclave.
        mr_enclave: MrEnclave,
    },
    /// Destination → source: data accepted and stored; delivery pending
    /// until a matching enclave attests.
    Stored {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
    },
    /// Source → destination: announces a chunked full-state transfer.
    ChunkStart {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// Per-transfer nonce (names the stream on the shared channel).
        nonce: TransferNonce,
        /// State generation this stream installs (the delta base for a
        /// later repeat migration).
        generation: u64,
        /// Total bulk-state length in bytes.
        total_len: u64,
        /// Chunk size used by the sender.
        chunk_size: u32,
        /// Root of the streamed container (the release gate).
        root: [u8; 32],
        /// The Table I control payload (travels with the announcement).
        data: MigrationData,
    },
    /// Source → destination: announces a chunked dirty-page **delta**
    /// stream. The chunked payload is the packed dirty pages described by
    /// `manifest`; the destination applies them onto its retained copy of
    /// `manifest.base_generation` and checks the result against `root`.
    DeltaStart {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// Per-transfer nonce (names the stream on the shared channel).
        nonce: TransferNonce,
        /// Chunk size used by the sender.
        chunk_size: u32,
        /// Root of the reconstructed container (the release gate).
        root: [u8; 32],
        /// Which pages changed, against which base generation.
        manifest: DeltaManifest,
        /// The Table I control payload (travels with the announcement).
        data: MigrationData,
    },
    /// Destination → source: the delta base named by a `DeltaStart` is
    /// not held here — restart the transfer as a full stream.
    DeltaNack {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The rejected delta transfer.
        nonce: TransferNonce,
    },
    /// Source → destination: one chunk of the announced transfer. The
    /// header names the chunk; its payload is the first `len` bytes of
    /// the cell's public body, the rest of which is zero pad equalizing
    /// the wire size of all frames towards the destination.
    Chunk {
        /// The transfer this chunk belongs to.
        nonce: TransferNonce,
        /// Chunk index (strictly in-order delivery).
        idx: u32,
        /// Payload length (exactly `chunk_size` bytes except the final
        /// chunk).
        len: u32,
    },
    /// Destination → source: cumulative acknowledgement — every chunk
    /// with `idx < upto` has been verified and stored.
    ChunkAck {
        /// The transfer being acknowledged.
        nonce: TransferNonce,
        /// One past the highest in-order verified chunk index.
        upto: u32,
    },
    /// Source → destination (after a crash/reconnect): where should the
    /// stream identified by `nonce` resume?
    ResumeRequest {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The interrupted transfer.
        nonce: TransferNonce,
    },
    /// Destination → source: resume the stream from `from_idx`
    /// (`0` restarts the stream, including a fresh `ChunkStart`).
    Resume {
        /// The transfer to resume.
        nonce: TransferNonce,
        /// First chunk index the destination still needs.
        from_idx: u32,
    },
}

impl MeToMe {
    /// The encrypted header of a [`MeToMe::Chunk`] cell: tag, transfer
    /// nonce, chunk index and payload length. The payload itself is the
    /// cell's body.
    #[must_use]
    pub fn chunk_header(nonce: &TransferNonce, idx: u32, len: u32) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(25);
        w.u8(5).array(nonce).u32(idx).u32(len);
        w.finish()
    }

    /// Serializes the message as its cell header — every field; the
    /// zero pad goes in the body.
    #[must_use]
    pub fn header(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            MeToMe::Transfer {
                mr_enclave,
                data,
                root,
                state,
            } => {
                w.u8(1);
                w.array(&mr_enclave.0);
                w.bytes(&data.to_bytes());
                write_root(&mut w, root.as_ref());
                // The last field runs to the end of the header.
                w.raw(state);
            }
            MeToMe::Delivered { mr_enclave } => {
                w.u8(2);
                w.array(&mr_enclave.0);
            }
            MeToMe::Stored { mr_enclave } => {
                w.u8(3);
                w.array(&mr_enclave.0);
            }
            MeToMe::ChunkStart {
                mr_enclave,
                nonce,
                generation,
                total_len,
                chunk_size,
                root,
                data,
            } => {
                w.u8(4);
                w.array(&mr_enclave.0);
                w.array(nonce);
                w.u64(*generation);
                w.u64(*total_len);
                w.u32(*chunk_size);
                w.array(root);
                w.bytes(&data.to_bytes());
            }
            MeToMe::Chunk { nonce, idx, len } => {
                return Self::chunk_header(nonce, *idx, *len);
            }
            MeToMe::DeltaStart {
                mr_enclave,
                nonce,
                chunk_size,
                root,
                manifest,
                data,
            } => {
                w.u8(9);
                w.array(&mr_enclave.0);
                w.array(nonce);
                w.u32(*chunk_size);
                w.array(root);
                w.bytes(&manifest.to_bytes());
                w.bytes(&data.to_bytes());
            }
            MeToMe::DeltaNack { mr_enclave, nonce } => {
                w.u8(10);
                w.array(&mr_enclave.0);
                w.array(nonce);
            }
            MeToMe::ChunkAck { nonce, upto } => {
                w.u8(6);
                w.array(nonce);
                w.u32(*upto);
            }
            MeToMe::ResumeRequest { mr_enclave, nonce } => {
                w.u8(7);
                w.array(&mr_enclave.0);
                w.array(nonce);
            }
            MeToMe::Resume { nonce, from_idx } => {
                w.u8(8);
                w.array(nonce);
                w.u32(*from_idx);
            }
        }
        w.finish()
    }

    /// The zero pad this message's cell body carries on its own, given
    /// its `header` length. Control frames pad up to one uniform
    /// [`CTRL_FRAME_LEN`]; a `ResumeRequest` pads above the `RA_FINISH`
    /// frame size, so the first post-handshake data frame cannot overtake
    /// the handshake finish on the size-ordered simulated network (smaller
    /// messages arrive earlier within one step). Stream frames get their
    /// pad from the destination's wire cell instead
    /// (`me::wire::lead_cell`), and a `Transfer` has none.
    #[must_use]
    pub fn body_pad(&self, header_len: usize) -> usize {
        match self {
            MeToMe::Delivered { .. }
            | MeToMe::Stored { .. }
            | MeToMe::DeltaNack { .. }
            | MeToMe::ChunkAck { .. }
            | MeToMe::Resume { .. } => CTRL_FRAME_LEN.saturating_sub(header_len + CELL_TRAILER_LEN),
            MeToMe::ResumeRequest { .. } => RESUME_REQUEST_PAD,
            MeToMe::Transfer { .. }
            | MeToMe::ChunkStart { .. }
            | MeToMe::DeltaStart { .. }
            | MeToMe::Chunk { .. } => 0,
        }
    }

    /// Parses a cell header.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_header(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            1 => {
                let mr_enclave = MrEnclave(r.array()?);
                let data = MigrationData::from_bytes(r.bytes()?)?;
                let root = read_root(&mut r)?;
                let state = bytes
                    .get(bytes.len() - r.remaining()..)
                    .ok_or(SgxError::Decode)?
                    .to_vec();
                return Ok(MeToMe::Transfer {
                    mr_enclave,
                    data,
                    root,
                    state,
                });
            }
            2 => MeToMe::Delivered {
                mr_enclave: MrEnclave(r.array()?),
            },
            3 => MeToMe::Stored {
                mr_enclave: MrEnclave(r.array()?),
            },
            4 => MeToMe::ChunkStart {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
                generation: r.u64()?,
                total_len: r.u64()?,
                chunk_size: r.u32()?,
                root: r.array()?,
                data: MigrationData::from_bytes(r.bytes()?)?,
            },
            5 => MeToMe::Chunk {
                nonce: r.array()?,
                idx: r.u32()?,
                len: r.u32()?,
            },
            6 => MeToMe::ChunkAck {
                nonce: r.array()?,
                upto: r.u32()?,
            },
            7 => MeToMe::ResumeRequest {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
            },
            8 => MeToMe::Resume {
                nonce: r.array()?,
                from_idx: r.u32()?,
            },
            9 => MeToMe::DeltaStart {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
                chunk_size: r.u32()?,
                root: r.array()?,
                manifest: DeltaManifest::from_bytes(r.bytes()?)?,
                data: MigrationData::from_bytes(r.bytes()?)?,
            },
            10 => MeToMe::DeltaNack {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
            },
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::state::COUNTER_SLOTS;

    fn data() -> MigrationData {
        let mut d = MigrationData {
            counters_active: [false; COUNTER_SLOTS],
            counter_values: [0; COUNTER_SLOTS],
            msk: [7; 16],
        };
        d.counters_active[1] = true;
        d.counter_values[1] = 99;
        d
    }

    #[test]
    fn lib_to_me_round_trip() {
        let msgs = [
            LibToMe::MigrateRequest {
                destination: MachineId(9),
                data: data(),
                root: Some([3; 32]),
            },
            LibToMe::MigrateRequest {
                destination: MachineId(9),
                data: data(),
                root: None,
            },
            LibToMe::Done,
        ];
        for msg in msgs {
            assert_eq!(LibToMe::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn me_to_lib_round_trip() {
        let msgs = [
            MeToLib::IncomingMigration {
                data: data(),
                root: Some([3; 32]),
            },
            MeToLib::IncomingMigration {
                data: data(),
                root: None,
            },
            MeToLib::MigrationComplete,
        ];
        for msg in msgs {
            assert_eq!(MeToLib::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn me_to_me_round_trip() {
        let msgs = [
            MeToMe::Transfer {
                mr_enclave: MrEnclave([5; 32]),
                data: data(),
                root: Some([4; 32]),
                state: b"sealed state".to_vec(),
            },
            MeToMe::Transfer {
                mr_enclave: MrEnclave([5; 32]),
                data: data(),
                root: None,
                state: Vec::new(),
            },
            MeToMe::Delivered {
                mr_enclave: MrEnclave([5; 32]),
            },
            MeToMe::Stored {
                mr_enclave: MrEnclave([6; 32]),
            },
            MeToMe::ChunkStart {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
                generation: 3,
                total_len: 1_000_000,
                chunk_size: 4096,
                root: [9; 32],
                data: data(),
            },
            MeToMe::DeltaStart {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
                chunk_size: 4096,
                root: [7; 32],
                manifest: crate::transfer::delta::DeltaManifest {
                    base_generation: 3,
                    new_generation: 4,
                    page_size: 4096,
                    base_len: 1_000_000,
                    new_len: 1_000_000,
                    base_digest: [5; 32],
                    dirty: vec![0, 5, 9],
                },
                data: data(),
            },
            MeToMe::DeltaNack {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
            },
            MeToMe::Chunk {
                nonce: [8; 16],
                idx: 7,
                len: 3,
            },
            MeToMe::ChunkAck {
                nonce: [8; 16],
                upto: 8,
            },
            MeToMe::ResumeRequest {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
            },
            MeToMe::Resume {
                nonce: [8; 16],
                from_idx: 3,
            },
        ];
        for msg in msgs {
            assert_eq!(MeToMe::from_header(&msg.header()).unwrap(), msg);
        }
    }

    #[test]
    fn chunk_header_is_fixed_size_and_matches_variant_encoding() {
        // Every chunk header is the same 25 bytes, whatever the payload
        // length, so a full chunk and a short final chunk padded up to
        // the same body length make frames of one size.
        let chunk = MeToMe::Chunk {
            nonce: [1; 16],
            idx: 3,
            len: 50,
        };
        assert_eq!(chunk.header(), MeToMe::chunk_header(&[1; 16], 3, 50));
        assert_eq!(MeToMe::chunk_header(&[1; 16], 0, 0).len(), 25);
        assert_eq!(MeToMe::chunk_header(&[1; 16], 9, u32::MAX).len(), 25);
    }

    #[test]
    fn relay_frames_split_back_and_are_total() {
        for (ct, container) in [(&b"sealed"[..], &b"container"[..]), (b"", b""), (b"x", b"")] {
            let mut w = WireWriter::new();
            write_relay(&mut w, ct, container);
            let written = w.finish();
            let frame = WireReader::new(&written).bytes().unwrap();
            assert_eq!(frame.len() + 4, written.len());
            assert_eq!(decode_relay(frame).unwrap(), (ct, container));
            for cut in 0..4.min(frame.len()) {
                assert!(decode_relay(&frame[..cut]).is_err());
            }
        }
        // The sealed message's length does not depend on the state size.
        let msg = |root| {
            LibToMe::MigrateRequest {
                destination: MachineId(1),
                data: data(),
                root,
            }
            .to_bytes()
            .len()
        };
        assert_eq!(msg(Some([0; 32])), msg(Some([0xFF; 32])));
    }

    #[test]
    fn control_frames_share_one_wire_size() {
        // All destination→source control frames must seal to the same
        // ciphertext length; an interleaved multi-stream ack sequence
        // would otherwise reorder on the size-ordered network.
        let frames = [
            MeToMe::Delivered {
                mr_enclave: MrEnclave([5; 32]),
            },
            MeToMe::Stored {
                mr_enclave: MrEnclave([6; 32]),
            },
            MeToMe::ChunkAck {
                nonce: [8; 16],
                upto: 8,
            },
            MeToMe::Resume {
                nonce: [8; 16],
                from_idx: 3,
            },
            MeToMe::DeltaNack {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
            },
        ];
        for msg in &frames {
            let header = msg.header().len();
            assert_eq!(
                header + msg.body_pad(header) + CELL_TRAILER_LEN,
                CTRL_FRAME_LEN,
                "control frames are uniform"
            );
        }
    }

    #[test]
    fn cell_headers_keep_their_frames_lengths() {
        // Moving the pad out of the encrypted header keeps each frame's
        // length: the pad-length field the plaintext used to carry is the
        // cell's trailer now, and a Transfer's container (its last field)
        // runs to the end of the header instead of carrying a prefix.
        let resume = MeToMe::ResumeRequest {
            mr_enclave: MrEnclave([5; 32]),
            nonce: [8; 16],
        };
        let header = resume.header().len();
        assert_eq!(header, 1 + 32 + 16);
        assert_eq!(resume.body_pad(header), RESUME_REQUEST_PAD);
        let transfer = |state: Vec<u8>| MeToMe::Transfer {
            mr_enclave: MrEnclave([5; 32]),
            data: data(),
            root: Some([4; 32]),
            state,
        };
        let empty = transfer(Vec::new()).header().len();
        assert_eq!(transfer(vec![1; 100]).header().len(), empty + 100);
        assert_eq!(transfer(Vec::new()).body_pad(empty), 0);
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(LibToMe::from_bytes(&[9]).is_err());
        assert!(MeToLib::from_bytes(&[9]).is_err());
        assert!(MeToMe::from_header(&[11]).is_err());
        assert!(MeToMe::from_header(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = LibToMe::Done.to_bytes();
        bytes.push(0);
        assert!(LibToMe::from_bytes(&bytes).is_err());
        let mut header = MeToMe::ChunkAck {
            nonce: [8; 16],
            upto: 8,
        }
        .header();
        header.push(0);
        assert!(MeToMe::from_header(&header).is_err());
    }
}
