//! Authenticated-encryption channels over attested session keys.
//!
//! Both attested key exchanges in the protocol — library ↔ ME (local
//! attestation DH, §V-B) and ME ↔ ME (remote attestation, §V-D) — yield a
//! 128-bit session key. A [`SecureChannel`] turns that key into a
//! bidirectional AEAD channel with strictly increasing per-direction
//! sequence numbers, so recorded protocol messages cannot be replayed or
//! reordered within a session.
//!
//! **Cells.** Every message is a *cell*: a secret header, encrypted, and
//! a public [`CellBody`], authenticated but sent as it is. Both go
//! through one AES-GCM call under the message's sequence nonce, with
//! AAD = `CHANNEL_AAD ‖ body` and plaintext = header
//! ([`mig_crypto::gcm::AesGcm::seal_split_in_place`]); the sealed cell is
//! `ciphertext ‖ tag ‖ body`. A bit flip in the header, the tag or the
//! body, a replayed or reordered cell, or a body moved to another cell
//! fails the one tag check at [`SecureChannel::open_cell`]. A plain
//! message is a cell with an empty body, so [`SecureChannel::seal`] is
//! exactly [`SecureChannel::seal_cell`] with [`CellBody::EMPTY`] and its
//! bytes are those of a whole-message AES-GCM seal. Only the ME↔ME
//! stream gives cells a body: the chunk payload, which is already
//! MSK-sealed container ciphertext, and zero pad
//! ([`crate::me::wire`]).

use crate::error::MigError;
use crate::transfer::chunker::CellBody;
use mig_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};

/// Which end of the channel this instance is (determines nonce spaces).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelRole {
    /// The side that initiated the key exchange.
    Initiator,
    /// The side that responded.
    Responder,
}

impl ChannelRole {
    fn direction_byte(self) -> u8 {
        match self {
            ChannelRole::Initiator => 0x01,
            ChannelRole::Responder => 0x02,
        }
    }

    fn peer(self) -> ChannelRole {
        match self {
            ChannelRole::Initiator => ChannelRole::Responder,
            ChannelRole::Responder => ChannelRole::Initiator,
        }
    }
}

/// A sequenced AEAD channel bound to an attested session key.
///
/// # Example
///
/// ```
/// use mig_core::secure_channel::{ChannelRole, SecureChannel};
///
/// # fn main() -> Result<(), mig_core::MigError> {
/// let key = [7u8; 16];
/// let mut alice = SecureChannel::new(key, ChannelRole::Initiator);
/// let mut bob = SecureChannel::new(key, ChannelRole::Responder);
/// let ct = alice.seal(b"migration data");
/// assert_eq!(bob.open(&ct)?, b"migration data");
/// # Ok(())
/// # }
/// ```
pub struct SecureChannel {
    aead: AesGcm,
    role: ChannelRole,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("role", &self.role)
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

impl SecureChannel {
    /// Creates a channel endpoint over an attested session key.
    #[must_use]
    pub fn new(session_key: [u8; 16], role: ChannelRole) -> Self {
        SecureChannel {
            aead: AesGcm::new(session_key),
            role,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    fn nonce(direction: u8, seq: u64) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[0] = direction;
        nonce[4..].copy_from_slice(&seq.to_le_bytes());
        nonce
    }

    /// Encrypts and sequences a message: a cell with an empty body.
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.seal_cell(plaintext, CellBody::EMPTY)
    }

    /// Seals and sequences one cell, returning `ciphertext ‖ tag ‖ body`:
    /// the header is encrypted in place and the body is written once,
    /// straight from its source, and authenticated where it lies.
    #[must_use]
    pub fn seal_cell(&mut self, header: &[u8], body: CellBody<'_>) -> Vec<u8> {
        let nonce = Self::nonce(self.role.direction_byte(), self.send_seq);
        self.send_seq += 1;
        let mut out = vec![0; sealed_cell_len(header, &body)];
        seal_cell_with(&self.aead, &nonce, header, body, &mut out);
        out
    }

    /// Decrypts the next in-order message from the peer.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) on tampering, replay, reordering,
    /// or a message sealed under a different session key.
    pub fn open(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, MigError> {
        self.open_cell(ciphertext, &[])
    }

    /// Opens the next in-order cell from the peer: checks the tag over
    /// the borrowed `body` and decrypts only the header `sealed`
    /// (`ciphertext ‖ tag`), which it returns. The body is never copied;
    /// the caller keeps using its slice once this returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) when the header, the tag or the
    /// body was altered, the cell is replayed, reordered or spliced from
    /// another position, or it was sealed under another session key. A
    /// failed open consumes no receive sequence number.
    pub fn open_cell(&mut self, sealed: &[u8], body: &[u8]) -> Result<Vec<u8>, MigError> {
        let nonce = Self::nonce(self.role.peer().direction_byte(), self.recv_seq);
        let header = open_cell_with(&self.aead, &nonce, sealed, body)
            .ok_or(MigError::Sgx(sgx_sim::SgxError::MacMismatch))?;
        self.recv_seq += 1;
        Ok(header)
    }

    /// Seals a run of cells, assigning them consecutive send sequence
    /// numbers in slice order and writing cell `i` into `outs[i]` (each
    /// exactly `header ‖ tag ‖ body` long, so a caller can lay a whole
    /// batch container out first and have every cell sealed in place),
    /// with the AEAD work fanned out over `lanes` worker threads (cell `i`
    /// on lane `i % lanes`). The output is byte-identical to sequential
    /// [`SecureChannel::seal_cell`] calls — the lane split only
    /// overlaps the work, it never reorders the sequence space.
    ///
    /// # Panics
    ///
    /// Panics when `outs` and `cells` differ in length, or an output
    /// slice has the wrong length (caller bugs).
    pub fn seal_many(
        &mut self,
        cells: &[(&[u8], CellBody<'_>)],
        lanes: u32,
        outs: &mut [&mut [u8]],
    ) {
        assert_eq!(cells.len(), outs.len(), "one output buffer per cell");
        let direction = self.role.direction_byte();
        let base = self.send_seq;
        self.send_seq += cells.len() as u64;
        let lanes = effective_lanes(lanes, cells.len());
        let aead = &self.aead;
        let seal = |i: usize, out: &mut [u8]| {
            let (header, body) = cells[i];
            seal_cell_with(
                aead,
                &Self::nonce(direction, base + i as u64),
                header,
                body,
                out,
            );
        };
        if lanes <= 1 {
            for (i, out) in outs.iter_mut().enumerate() {
                seal(i, out);
            }
            return;
        }
        let mut per_lane: Vec<Vec<(usize, &mut [u8])>> = (0..lanes).map(|_| Vec::new()).collect();
        for (i, out) in outs.iter_mut().enumerate() {
            per_lane[i % lanes].push((i, &mut **out));
        }
        let seal = &seal;
        std::thread::scope(|s| {
            for work in per_lane {
                s.spawn(move || {
                    for (i, out) in work {
                        seal(i, out);
                    }
                });
            }
        });
    }

    /// Opens a run of cells (`(sealed header, body)` pairs) expected at
    /// consecutive receive sequence numbers, fanning the AEAD work over
    /// `lanes` worker threads (cell `i` on lane `i % lanes`), and returns
    /// the decrypted headers.
    ///
    /// Semantics match a loop of sequential [`SecureChannel::open_cell`]
    /// calls exactly: the verified *prefix* before the first failing
    /// cell is returned and only those cells consume receive sequence
    /// numbers; everything at and after the first failure is discarded.
    /// The `bool` is `true` when every cell verified.
    #[must_use]
    pub fn open_many(&mut self, cells: &[(&[u8], &[u8])], lanes: u32) -> (Vec<Vec<u8>>, bool) {
        let direction = self.role.peer().direction_byte();
        let base = self.recv_seq;
        let lanes = effective_lanes(lanes, cells.len());
        let aead = &self.aead;
        let open = |i: usize| {
            let (sealed, body) = cells[i];
            open_cell_with(aead, &Self::nonce(direction, base + i as u64), sealed, body)
        };
        let mut opened: Vec<Option<Vec<u8>>> = if lanes <= 1 {
            (0..cells.len()).map(open).collect()
        } else {
            let mut out: Vec<Option<Vec<u8>>> = vec![None; cells.len()];
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..lanes)
                    .map(|lane| {
                        s.spawn(move || {
                            (lane..cells.len())
                                .step_by(lanes)
                                .map(|i| (i, open(i)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    // mig-lint: allow(enclave-panic, "a panicked open lane is a caller bug (AesGcm::open_split returns Result); propagating the panic preserves fail-stop semantics")
                    for (i, header) in handle.join().expect("open lane panicked") {
                        out[i] = header;
                    }
                }
            });
            out
        };
        let verified = opened.iter().take_while(|pt| pt.is_some()).count();
        self.recv_seq += verified as u64;
        let ok = verified == cells.len();
        opened.truncate(verified);
        let prefix = opened.into_iter().flatten().collect();
        (prefix, ok)
    }
}

/// Length of a sealed cell: header ciphertext, tag and body.
fn sealed_cell_len(header: &[u8], body: &CellBody<'_>) -> usize {
    header.len() + TAG_LEN + body.len()
}

/// Writes one sealed cell, `ciphertext ‖ tag ‖ body`, into `out`: the
/// header bytes go in first and are encrypted where they lie, the body
/// is written once behind the tag slot, and the tag is computed over it
/// in place.
fn seal_cell_with(
    aead: &AesGcm,
    nonce: &[u8; NONCE_LEN],
    header: &[u8],
    body: CellBody<'_>,
    out: &mut [u8],
) {
    assert_eq!(
        out.len(),
        sealed_cell_len(header, &body),
        "a sealed cell's output slice"
    );
    let (sealed, body_out) = out.split_at_mut(header.len() + TAG_LEN);
    body.write_into(body_out);
    let (ct, tag) = sealed.split_at_mut(header.len());
    ct.copy_from_slice(header);
    tag.copy_from_slice(&aead.seal_split_in_place(nonce, CHANNEL_AAD, body_out, ct));
}

/// Opens one cell: the header it returns, or `None` when the tag does
/// not verify.
fn open_cell_with(
    aead: &AesGcm,
    nonce: &[u8; NONCE_LEN],
    sealed: &[u8],
    body: &[u8],
) -> Option<Vec<u8>> {
    aead.open_split(nonce, CHANNEL_AAD, body, sealed).ok()
}

/// AAD binding every channel message to this protocol.
const CHANNEL_AAD: &[u8] = b"sgx-migrate.channel";

/// Worker-lane count actually used for a batch of `items` cells: the
/// configured count, clamped to the item count and to the host's
/// available parallelism. Lane assignment is by index modulo lanes, so
/// the clamp only changes scheduling, never bytes — extra lanes on a
/// single-core host are pure thread overhead.
fn effective_lanes(lanes: u32, items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (lanes.max(1) as usize).min(items.max(1)).min(cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::chunker::ChunkStream;

    fn pair() -> (SecureChannel, SecureChannel) {
        let key = [0x5A; 16];
        (
            SecureChannel::new(key, ChannelRole::Initiator),
            SecureChannel::new(key, ChannelRole::Responder),
        )
    }

    #[test]
    fn bidirectional_round_trip() {
        let (mut a, mut b) = pair();
        let ct1 = a.seal(b"hello");
        assert_eq!(b.open(&ct1).unwrap(), b"hello");
        let ct2 = b.seal(b"world");
        assert_eq!(a.open(&ct2).unwrap(), b"world");
    }

    #[test]
    fn sequences_are_independent_per_direction() {
        let (mut a, mut b) = pair();
        // Three messages one way, none the other.
        for i in 0..3u8 {
            let ct = a.seal(&[i]);
            assert_eq!(b.open(&ct).unwrap(), vec![i]);
        }
        let ct = b.seal(b"back");
        assert_eq!(a.open(&ct).unwrap(), b"back");
    }

    #[test]
    fn replay_is_rejected() {
        let (mut a, mut b) = pair();
        let ct = a.seal(b"once");
        assert_eq!(b.open(&ct).unwrap(), b"once");
        assert!(b.open(&ct).is_err(), "replay of the same ciphertext");
    }

    #[test]
    fn reordering_is_rejected() {
        let (mut a, mut b) = pair();
        let ct1 = a.seal(b"first");
        let ct2 = a.seal(b"second");
        assert!(b.open(&ct2).is_err(), "out-of-order delivery");
        // A failed open does not consume the receive sequence: in-order
        // delivery still succeeds afterwards.
        assert_eq!(b.open(&ct1).unwrap(), b"first");
        assert_eq!(b.open(&ct2).unwrap(), b"second");
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut a, mut b) = pair();
        let mut ct = a.seal(b"payload");
        ct[0] ^= 1;
        assert!(b.open(&ct).is_err());
    }

    #[test]
    fn direction_confusion_rejected() {
        // A message sealed by the initiator cannot be opened by another
        // initiator-side endpoint (reflection attack).
        let key = [1u8; 16];
        let mut a = SecureChannel::new(key, ChannelRole::Initiator);
        let mut a2 = SecureChannel::new(key, ChannelRole::Initiator);
        let ct = a.seal(b"reflect");
        assert!(a2.open(&ct).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let mut a = SecureChannel::new([1; 16], ChannelRole::Initiator);
        let mut b = SecureChannel::new([2; 16], ChannelRole::Responder);
        let ct = a.seal(b"x");
        assert!(b.open(&ct).is_err());
    }

    /// Today's plain-message seal, spelled out: AES-GCM over the whole
    /// message with AAD = `CHANNEL_AAD` under the direction/sequence
    /// nonce.
    fn whole_message_seal(key: [u8; 16], role: ChannelRole, seq: u64, pt: &[u8]) -> Vec<u8> {
        AesGcm::new(key).seal(
            &SecureChannel::nonce(role.direction_byte(), seq),
            CHANNEL_AAD,
            pt,
        )
    }

    /// Seals `cells` with `seal_many` into one buffer each.
    fn seal_all(
        c: &mut SecureChannel,
        cells: &[(&[u8], CellBody<'_>)],
        lanes: u32,
    ) -> Vec<Vec<u8>> {
        let mut outs: Vec<Vec<u8>> = cells
            .iter()
            .map(|(h, b)| vec![0; sealed_cell_len(h, b)])
            .collect();
        let mut slices: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        c.seal_many(cells, lanes, &mut slices);
        outs
    }

    fn cells(n: u8, body_len: usize) -> Vec<(Vec<u8>, ChunkStream)> {
        (0..n)
            .map(|i| {
                let stream = ChunkStream::new([i; 16], 4096, vec![i ^ 0x5A; body_len]);
                (vec![i; 25 + i as usize], stream)
            })
            .collect()
    }

    #[test]
    fn empty_body_cell_is_the_plain_message_seal() {
        // `seal(pt)` is exactly `seal_cell(pt, EMPTY)`, and both are the
        // whole-message AES-GCM seal every non-stream message has always
        // used: their bytes do not change.
        let key = [0x33; 16];
        let mut by_seal = SecureChannel::new(key, ChannelRole::Initiator);
        let mut by_cell = SecureChannel::new(key, ChannelRole::Initiator);
        for (seq, len) in [0usize, 1, 15, 16, 17, 1400].into_iter().enumerate() {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let expected = whole_message_seal(key, ChannelRole::Initiator, seq as u64, &pt);
            assert_eq!(by_seal.seal(&pt), expected, "len {len}");
            assert_eq!(
                by_cell.seal_cell(&pt, CellBody::EMPTY),
                expected,
                "len {len}"
            );
        }
    }

    #[test]
    fn cell_is_gcm_over_channel_aad_and_body() {
        // A cell with a body is `seal(nonce, CHANNEL_AAD ‖ body, header)`
        // followed by the body as it is.
        let key = [0x34; 16];
        let stream = ChunkStream::new([1; 16], 4096, vec![0xC3; 5000]);
        let mut c = SecureChannel::new(key, ChannelRole::Responder);
        for (seq, idx) in [0u32, 1].into_iter().enumerate() {
            let body = CellBody::chunk(&stream, idx, 4096);
            let mut body_bytes = vec![0; body.len()];
            body.write_into(&mut body_bytes);
            let mut expected = AesGcm::new(key).seal(
                &SecureChannel::nonce(ChannelRole::Responder.direction_byte(), seq as u64),
                &[CHANNEL_AAD, &body_bytes[..]].concat(),
                b"header",
            );
            expected.extend_from_slice(&body_bytes);
            assert_eq!(c.seal_cell(b"header", body), expected, "chunk {idx}");
        }
    }

    #[test]
    fn open_cell_rejects_any_flipped_bit_in_header_tag_or_body() {
        let (mut a, mut b) = pair();
        let stream = ChunkStream::new([2; 16], 4096, vec![0x11; 300]);
        let header = b"secret header: Table I would live here".to_vec();
        let sealed = a.seal_cell(&header, CellBody::chunk(&stream, 0, 512));
        let split = header.len() + TAG_LEN;
        for at in 0..sealed.len() {
            for bit in [0u8, 7] {
                let mut bad = sealed.clone();
                bad[at] ^= 1 << bit;
                let (head, body) = bad.split_at(split);
                assert!(b.open_cell(head, body).is_err(), "byte {at} bit {bit}");
            }
        }
        // The genuine cell still opens in order afterwards.
        let (head, body) = sealed.split_at(split);
        assert_eq!(b.open_cell(head, body).unwrap(), header);
        assert_eq!(body, &[&[0x11u8; 300][..], &[0u8; 212][..]].concat()[..]);
    }

    #[test]
    fn swapped_bodies_fail_at_open() {
        // Two cells of one run: each body only opens under its own header
        // and sequence number.
        let (mut a, mut b) = pair();
        let stream = ChunkStream::new([3; 16], 64, (0..128u8).collect::<Vec<u8>>());
        let first = a.seal_cell(b"h0", CellBody::chunk(&stream, 0, 64));
        let second = a.seal_cell(b"h1", CellBody::chunk(&stream, 1, 64));
        let split = 2 + TAG_LEN;
        assert!(b.open_cell(&first[..split], &second[split..]).is_err());
        assert!(b.open_cell(&second[..split], &first[split..]).is_err());
        assert_eq!(
            b.open_cell(&first[..split], &first[split..]).unwrap(),
            b"h0"
        );
        assert_eq!(
            b.open_cell(&second[..split], &second[split..]).unwrap(),
            b"h1"
        );
    }

    #[test]
    fn seal_many_matches_sequential_seals_for_every_lane_count() {
        let cells = cells(7, 100);
        let bodies: Vec<(&[u8], CellBody<'_>)> = cells
            .iter()
            .map(|(h, s)| (&h[..], CellBody::chunk(s, 0, 128)))
            .collect();
        let mut reference = SecureChannel::new([3; 16], ChannelRole::Initiator);
        let expected: Vec<Vec<u8>> = bodies
            .iter()
            .map(|(h, body)| reference.seal_cell(h, *body))
            .collect();
        for lanes in [1, 2, 3, 8] {
            let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
            let outs = seal_all(&mut c, &bodies, lanes);
            assert_eq!(outs, expected, "lanes={lanes}");
            // Cells sealed into slices of one buffer land in place.
            let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
            let mut joined = vec![0u8; outs.iter().map(Vec::len).sum()];
            let mut rest = &mut joined[..];
            let mut slices = Vec::new();
            for out in &outs {
                let (head, tail) = rest.split_at_mut(out.len());
                slices.push(head);
                rest = tail;
            }
            c.seal_many(&bodies, lanes, &mut slices);
            assert_eq!(joined, outs.concat(), "lanes={lanes}");
        }
        // Follow-on single seals continue the sequence space.
        let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
        let _ = seal_all(&mut c, &bodies[..3], 4);
        assert_eq!(c.seal_cell(bodies[3].0, bodies[3].1), expected[3]);
    }

    #[test]
    fn open_many_round_trips_and_keeps_prefix_on_failure() {
        let (mut a, mut b) = pair();
        let cells = cells(6, 64);
        let bodies: Vec<(&[u8], CellBody<'_>)> = cells
            .iter()
            .map(|(h, s)| (&h[..], CellBody::chunk(s, 0, 80)))
            .collect();
        let headers: Vec<Vec<u8>> = cells.iter().map(|(h, _)| h.clone()).collect();
        let split = |sealed: &[Vec<u8>]| -> Vec<(Vec<u8>, Vec<u8>)> {
            sealed
                .iter()
                .zip(&headers)
                .map(|(ct, h)| {
                    let (head, body) = ct.split_at(h.len() + TAG_LEN);
                    (head.to_vec(), body.to_vec())
                })
                .collect()
        };
        let sealed = seal_all(&mut a, &bodies, 3);
        let parts = split(&sealed);
        let refs: Vec<(&[u8], &[u8])> = parts.iter().map(|(h, b)| (&h[..], &b[..])).collect();
        let (opened, ok) = b.open_many(&refs, 3);
        assert!(ok);
        assert_eq!(opened, headers);

        // A tampered body mid-run: the verified prefix is kept, exactly
        // the cells before it consume receive sequence numbers, and the
        // channel continues in-order from there.
        let sealed = seal_all(&mut a, &bodies, 2);
        let parts = split(&sealed);
        let mut tampered = parts.clone();
        tampered[3].1[0] ^= 1;
        let refs: Vec<(&[u8], &[u8])> = tampered.iter().map(|(h, b)| (&h[..], &b[..])).collect();
        let (opened, ok) = b.open_many(&refs, 4);
        assert!(!ok);
        assert_eq!(opened, &headers[..3]);
        // The untampered original of cell 3 still opens next in order.
        assert_eq!(b.open_cell(&parts[3].0, &parts[3].1).unwrap(), headers[3]);
    }
}
