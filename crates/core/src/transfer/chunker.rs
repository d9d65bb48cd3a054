//! The chunking/streaming engine: split a state payload into fixed-size
//! chunks, reassemble them strictly in order, and resume from an
//! arbitrary chunk boundary after a crash.
//!
//! The engine itself checks only position and length: a chunk is
//! accepted at the next index with the length the announced geometry
//! gives it. Integrity is enforced once, at release. The payload is a
//! library-sealed bulk container (or the packed dirty pages that
//! rebuild one), and the destination Migration Enclave releases the
//! reassembled container only when it matches the root announced in
//! `ChunkStart` / `DeltaStart`
//! ([`crate::library::bulk::verify_root`]). A reordered, replayed,
//! cross-transfer-spliced or tampered chunk — even one re-injected
//! across a *resumed* session, where the secure channel's per-session
//! sequence numbers restart — therefore yields a container that fails
//! the root check, and the stream is quarantined instead of released.

use crate::error::MigError;
use mig_crypto::sha256::Sha256;
use sgx_sim::wire::{WireReader, WireWriter};
use std::sync::Arc;

/// A per-transfer nonce: names one stream on the shared ME↔ME channel.
pub type TransferNonce = [u8; 16];

/// Upper bound on a streamed payload (adversarial-allocation guard).
pub const MAX_STREAM_LEN: u64 = 1 << 30;

/// Label for the public trace-id derivation.
const TRACE_ID_LABEL: &[u8] = b"sgx-migrate.trace-id.v1";

/// Derives the public trace id for a transfer nonce.
///
/// The nonce never leaves the attested channel; telemetry instead
/// identifies a migration by this one-way hash, which both endpoints
/// derive independently.
#[must_use]
pub fn trace_id(nonce: &TransferNonce) -> [u8; 8] {
    let mut h = Sha256::new();
    h.update(TRACE_ID_LABEL);
    h.update(nonce);
    let digest = h.finalize();
    let mut id = [0u8; 8];
    id.copy_from_slice(&digest[..8]);
    id
}

/// Number of chunks a payload of `total_len` splits into.
#[must_use]
pub fn chunk_count(total_len: u64, chunk_size: u32) -> u32 {
    debug_assert!(chunk_size > 0);
    u32::try_from(total_len.div_ceil(u64::from(chunk_size))).expect("bounded by MAX_STREAM_LEN")
}

/// Source side: a payload split into chunks.
///
/// The payload is held behind an `Arc<[u8]>` so callers (the Migration
/// Enclave's retained state, delta payloads) share one allocation with
/// the stream instead of cloning megabytes; [`ChunkStream::chunk`] hands
/// out borrowed slices.
pub struct ChunkStream {
    nonce: TransferNonce,
    chunk_size: u32,
    payload: Arc<[u8]>,
}

impl std::fmt::Debug for ChunkStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkStream")
            .field("total_len", &self.payload.len())
            .field("chunk_size", &self.chunk_size)
            .field("n_chunks", &self.n_chunks())
            .finish_non_exhaustive()
    }
}

impl ChunkStream {
    /// Prepares `payload` for streaming under `nonce` with the given
    /// chunk size. Accepts any `Arc<[u8]>`-convertible payload; passing
    /// an existing `Arc` is zero-copy, and nothing is hashed.
    ///
    /// # Panics
    ///
    /// Panics on a zero chunk size or a payload over [`MAX_STREAM_LEN`]
    /// — caller invariants, enforced by [`super::TransferConfig`]
    /// validation and the Migration Library.
    #[must_use]
    pub fn new(nonce: TransferNonce, chunk_size: u32, payload: impl Into<Arc<[u8]>>) -> Self {
        let payload: Arc<[u8]> = payload.into();
        assert!(chunk_size > 0, "zero chunk size");
        assert!(
            payload.len() as u64 <= MAX_STREAM_LEN,
            "payload exceeds MAX_STREAM_LEN"
        );
        ChunkStream {
            nonce,
            chunk_size,
            payload,
        }
    }

    /// The transfer nonce.
    #[must_use]
    pub fn nonce(&self) -> TransferNonce {
        self.nonce
    }

    /// Total payload length in bytes.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Number of chunks.
    #[must_use]
    pub fn n_chunks(&self) -> u32 {
        chunk_count(self.total_len(), self.chunk_size)
    }

    /// The configured chunk size.
    #[must_use]
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Payload of chunk `idx`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index (caller bug).
    #[must_use]
    pub fn chunk(&self, idx: u32) -> &[u8] {
        let start = idx as usize * self.chunk_size as usize;
        let end = (start + self.chunk_size as usize).min(self.payload.len());
        &self.payload[start..end]
    }
}

/// The public, authenticated-only **body** of an ME↔ME channel cell:
/// bytes of a [`ChunkStream`] payload followed by zero pad, or zero pad
/// alone.
///
/// A cell encrypts only its small header (message tag, transfer nonce,
/// chunk index and lengths, or a whole announcement with Table I) and
/// authenticates its body without encrypting it
/// ([`crate::secure_channel::SecureChannel::seal_cell`]). The body
/// is therefore visible on the wire, and this type is the only way to
/// build one: its constructors take a chunk of a stream (the container
/// ciphertext the source ME checked against its root, or packed pages
/// of that container for a delta) or a pad length. Table I, the MSK and
/// every other secret can only travel in a header.
#[derive(Clone, Copy)]
pub struct CellBody<'a> {
    payload: &'a [u8],
    pad: usize,
}

impl CellBody<'static> {
    /// The empty body: a cell that is all header, sealed exactly like a
    /// plain channel message.
    pub const EMPTY: CellBody<'static> = CellBody {
        payload: &[],
        pad: 0,
    };

    /// A body of `len` zero bytes (the traffic-shaping pad of a frame
    /// that carries no chunk).
    #[must_use]
    pub fn zero_pad(len: usize) -> Self {
        CellBody {
            payload: &[],
            pad: len,
        }
    }
}

impl<'a> CellBody<'a> {
    /// Chunk `idx` of `stream`, zero-padded up to `cell` bytes (a chunk
    /// already at or above `cell` is not padded).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index (caller bug, as
    /// [`ChunkStream::chunk`]).
    #[must_use]
    pub fn chunk(stream: &'a ChunkStream, idx: u32, cell: u32) -> Self {
        let payload = stream.chunk(idx);
        CellBody {
            payload,
            pad: (cell as usize).saturating_sub(payload.len()),
        }
    }

    /// Body length in bytes (payload plus pad).
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len() + self.pad
    }

    /// Whether the body is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the chunk payload at the front of the body.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Writes the body's bytes — payload, then zero pad — into `out`,
    /// which is exactly [`CellBody::len`] bytes.
    pub(crate) fn write_into(&self, out: &mut [u8]) {
        let (payload, pad) = out.split_at_mut(self.payload.len());
        payload.copy_from_slice(self.payload);
        pad.fill(0);
    }
}

/// Destination side: in-order reassembly, serializable for crash-safe
/// persistence.
pub struct ChunkAssembler {
    chunk_size: u32,
    n_chunks: u32,
    total_len: u64,
    buf: Vec<u8>,
    next_idx: u32,
}

impl std::fmt::Debug for ChunkAssembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkAssembler")
            .field("next_idx", &self.next_idx)
            .field("n_chunks", &self.n_chunks)
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl ChunkAssembler {
    /// Opens an assembler for an announced transfer.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when the announced geometry is degenerate
    /// (zero chunk size, empty payload) or exceeds [`MAX_STREAM_LEN`].
    pub fn new(chunk_size: u32, total_len: u64) -> Result<Self, MigError> {
        if chunk_size == 0 {
            return Err(MigError::Transfer("zero chunk size"));
        }
        if total_len == 0 || total_len > MAX_STREAM_LEN {
            return Err(MigError::Transfer("stream length out of bounds"));
        }
        Ok(ChunkAssembler {
            chunk_size,
            n_chunks: chunk_count(total_len, chunk_size),
            total_len,
            buf: Vec::new(),
            next_idx: 0,
        })
    }

    /// The payload prefix received so far.
    #[must_use]
    pub fn received(&self) -> &[u8] {
        &self.buf
    }

    /// Index of the next chunk the assembler will accept — equivalently,
    /// the cumulative acknowledgement (`idx < next_idx` are received).
    #[must_use]
    pub fn next_idx(&self) -> u32 {
        self.next_idx
    }

    /// Total chunk count of the transfer.
    #[must_use]
    pub fn n_chunks(&self) -> u32 {
        self.n_chunks
    }

    /// Whether every chunk has been accepted.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next_idx == self.n_chunks
    }

    fn expected_len(&self, idx: u32) -> u64 {
        if idx + 1 == self.n_chunks {
            self.total_len - u64::from(idx) * u64::from(self.chunk_size)
        } else {
            u64::from(self.chunk_size)
        }
    }

    /// Appends chunk `idx`.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on an out-of-order index (a loss artifact:
    /// the prefix is kept) or a wrong payload length.
    pub fn accept(&mut self, idx: u32, payload: &[u8]) -> Result<(), MigError> {
        if idx != self.next_idx {
            return Err(MigError::Transfer("chunk index out of order"));
        }
        if payload.len() as u64 != self.expected_len(idx) {
            return Err(MigError::Transfer("chunk length mismatch"));
        }
        self.buf.extend_from_slice(payload);
        self.next_idx += 1;
        Ok(())
    }

    /// Consumes the assembler, returning the reassembled payload (which
    /// the caller checks before releasing it).
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when chunks are missing.
    pub fn finish(self) -> Result<Vec<u8>, MigError> {
        if !self.is_complete() {
            return Err(MigError::Transfer("stream incomplete"));
        }
        Ok(self.buf)
    }

    /// Serializes the assembler (ME durable-state persistence).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.chunk_size);
        w.u64(self.total_len);
        w.u32(self.next_idx);
        w.bytes(&self.buf);
        w.finish()
    }

    /// Restores a persisted assembler.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] / [`MigError::Sgx`] on malformed or
    /// internally inconsistent input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MigError> {
        let mut r = WireReader::new(bytes);
        let chunk_size = r.u32()?;
        let total_len = r.u64()?;
        let next_idx = r.u32()?;
        let buf = r.bytes_vec()?;
        r.finish()?;

        let mut assembler = Self::new(chunk_size, total_len)?;
        if next_idx > assembler.n_chunks {
            return Err(MigError::Transfer("restored index out of range"));
        }
        let expected_buf: u64 = (0..next_idx).map(|i| assembler.expected_len(i)).sum();
        if buf.len() as u64 != expected_buf {
            return Err(MigError::Transfer("restored buffer length mismatch"));
        }
        assembler.next_idx = next_idx;
        assembler.buf = buf;
        Ok(assembler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::bulk::tests::test_container;
    use crate::library::bulk::verify_root;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// A container of `n` 300-byte items whose bytes start at `fill`,
    /// and its root.
    fn container(n: usize, fill: u8) -> (Vec<u8>, [u8; 32]) {
        let items: Vec<Vec<u8>> = (0..n)
            .map(|i| vec![fill.wrapping_add(i as u8); 300])
            .collect();
        test_container(&items)
    }

    fn stream_through(stream: &ChunkStream, assembler: &mut ChunkAssembler, from: u32) {
        for idx in from..stream.n_chunks() {
            assembler.accept(idx, stream.chunk(idx)).unwrap();
        }
    }

    /// Reassembles `stream` into a fresh assembler and applies the
    /// release gate against `root`.
    fn release(stream: &ChunkStream, root: &[u8; 32]) -> Result<Vec<u8>, MigError> {
        let mut asm = ChunkAssembler::new(stream.chunk_size(), stream.total_len()).unwrap();
        stream_through(stream, &mut asm, 0);
        let out = asm.finish()?;
        verify_root(&out, root, 1)?;
        Ok(out)
    }

    #[test]
    fn round_trip_various_sizes() {
        for len in [1usize, 7, 256, 257, 1024, 5000] {
            let data = payload(len);
            let stream = ChunkStream::new([7; 16], 256, data.clone());
            let mut asm = ChunkAssembler::new(256, stream.total_len()).unwrap();
            assert_eq!(asm.n_chunks(), stream.n_chunks());
            stream_through(&stream, &mut asm, 0);
            assert_eq!(asm.finish().unwrap(), data);
        }
    }

    #[test]
    fn chunk_slices_partition_the_payload() {
        // The sender hashes nothing: its chunks are plain slices that
        // concatenate back to the payload for every geometry.
        for len in [1usize, 255, 256, 1000] {
            let data = payload(len);
            for chunk_size in [1u32, 3, 64, 256, 4096] {
                let stream = ChunkStream::new([9; 16], chunk_size, data.clone());
                let joined: Vec<u8> = (0..stream.n_chunks())
                    .flat_map(|idx| stream.chunk(idx).to_vec())
                    .collect();
                assert_eq!(joined, data, "chunk_size={chunk_size} len={len}");
                assert_eq!(stream.n_chunks(), chunk_count(len as u64, chunk_size));
            }
        }
    }

    #[test]
    fn out_of_order_and_replay_rejected() {
        let (bytes, root) = container(4, 1);
        let stream = ChunkStream::new([1; 16], 64, bytes.clone());
        let mut asm = ChunkAssembler::new(64, stream.total_len()).unwrap();
        // Skipping ahead fails.
        assert!(matches!(
            asm.accept(1, stream.chunk(1)),
            Err(MigError::Transfer(_))
        ));
        asm.accept(0, stream.chunk(0)).unwrap();
        // Replay of an accepted chunk fails.
        assert!(matches!(
            asm.accept(0, stream.chunk(0)),
            Err(MigError::Transfer(_))
        ));
        // A chunk presented at the wrong position with its index field
        // rewritten passes the engine, but the container it builds fails
        // the root at release.
        asm.accept(1, stream.chunk(2)).unwrap();
        stream_through(&stream, &mut asm, 2);
        let out = asm.finish().unwrap();
        assert_ne!(out, bytes);
        assert!(verify_root(&out, &root, 1).is_err());
    }

    #[test]
    fn cross_transfer_splice_rejected() {
        let (a, root_a) = container(4, 1);
        let (b, _) = container(4, 9);
        assert_eq!(a.len(), b.len(), "same geometry, different content");
        let xa = ChunkStream::new([1; 16], 64, a.clone());
        let xb = ChunkStream::new([2; 16], 64, b);
        for spliced in 0..xa.n_chunks() {
            let mut asm = ChunkAssembler::new(64, xa.total_len()).unwrap();
            for idx in 0..xa.n_chunks() {
                let chunk = if idx == spliced {
                    xb.chunk(idx)
                } else {
                    xa.chunk(idx)
                };
                asm.accept(idx, chunk).unwrap();
            }
            let out = asm.finish().unwrap();
            if out != a {
                assert!(
                    verify_root(&out, &root_a, 1).is_err(),
                    "splice at {spliced}"
                );
            }
        }
        assert_eq!(release(&xa, &root_a).unwrap(), a);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (bytes, root) = container(3, 4);
        let stream = ChunkStream::new([3; 16], 32, bytes.clone());
        for at in [0usize, 17, bytes.len() / 2, bytes.len() - 1] {
            let mut evil = bytes.clone();
            evil[at] ^= 1;
            let evil_stream = ChunkStream::new([3; 16], 32, evil);
            assert!(release(&evil_stream, &root).is_err(), "flip at {at}");
        }
        assert_eq!(release(&stream, &root).unwrap(), bytes);
    }

    #[test]
    fn resume_from_serialized_state() {
        let data = payload(1000);
        let stream = ChunkStream::new([9; 16], 128, data.clone());
        let mut asm = ChunkAssembler::new(128, 1000).unwrap();
        for idx in 0..3 {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        // Crash: persist, restore, resume from next_idx.
        let blob = asm.to_bytes();
        let mut restored = ChunkAssembler::from_bytes(&blob).unwrap();
        assert_eq!(restored.next_idx(), 3);
        assert_eq!(restored.received().len(), 3 * 128);
        stream_through(&stream, &mut restored, 3);
        assert_eq!(restored.finish().unwrap(), data);
    }

    #[test]
    fn release_gate_rejects_a_wrong_root() {
        // Interrupted or not, the reassembled container is released only
        // under the root it was announced with.
        let (bytes, root) = container(5, 2);
        let (_, other_root) = container(5, 3);
        let stream = ChunkStream::new([9; 16], 128, bytes.clone());
        let mut asm = ChunkAssembler::new(128, stream.total_len()).unwrap();
        for idx in 0..3 {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        let mut asm = ChunkAssembler::from_bytes(&asm.to_bytes()).unwrap();
        stream_through(&stream, &mut asm, 3);
        let out = asm.finish().unwrap();
        verify_root(&out, &root, 1).unwrap();
        assert_eq!(out, bytes);
        assert!(matches!(
            verify_root(&out, &other_root, 1),
            Err(MigError::BulkMismatch)
        ));
    }

    #[test]
    fn incomplete_or_wrong_root_rejected() {
        let (bytes, root) = container(2, 5);
        let stream = ChunkStream::new([4; 16], 64, bytes);
        let asm = ChunkAssembler::new(64, stream.total_len()).unwrap();
        assert!(matches!(asm.finish(), Err(MigError::Transfer(_))));
        assert!(release(&stream, &[0; 32]).is_err());
        assert!(release(&stream, &root).is_ok());
    }

    #[test]
    fn geometry_validation() {
        assert!(ChunkAssembler::new(0, 10).is_err());
        assert!(ChunkAssembler::new(16, 0).is_err());
        assert!(ChunkAssembler::new(16, MAX_STREAM_LEN + 1).is_err());
        assert_eq!(chunk_count(0, 16), 0);
        assert_eq!(chunk_count(16, 16), 1);
        assert_eq!(chunk_count(17, 16), 2);
    }

    #[test]
    fn tampered_persisted_state_rejected() {
        let (bytes, root) = container(3, 6);
        let stream = ChunkStream::new([5; 16], 32, bytes);
        let mut asm = ChunkAssembler::new(32, stream.total_len()).unwrap();
        for idx in 0..4 {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        let blob = asm.to_bytes();
        // Truncations never panic.
        for cut in 1..blob.len().min(64) {
            assert!(ChunkAssembler::from_bytes(&blob[..blob.len() - cut]).is_err());
        }
        // A flipped byte in the persisted prefix restores, but the
        // container it completes fails the root at release.
        let mut evil = blob.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x10;
        let mut restored = ChunkAssembler::from_bytes(&evil).unwrap();
        stream_through(&stream, &mut restored, 4);
        assert!(verify_root(&restored.finish().unwrap(), &root, 1).is_err());
    }
}
