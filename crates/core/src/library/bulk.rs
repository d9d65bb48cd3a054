//! The library-sealed bulk container — the only form in which an app's
//! bulk state is staged, persisted and migrated.
//!
//! The app hands the library plaintext *segments* (at most
//! [`SEGMENT_LEN`] bytes each); the library seals every segment under
//! the Migration Sealing Key with a positional AAD, so a segment sealed
//! at one index cannot be presented at another. A sealed **index** lists
//! the SHA-256 of every sealed segment, authenticated (not encrypted:
//! hashes of ciphertext need no secrecy) under the MSK, and the
//! container's **root** is `SHA-256(sealed index)`. The library's persistent header (Table II)
//! binds only that 32-byte root, so persisting costs the same at any
//! state size, and an update reseals only the segments it changed plus
//! the index.
//!
//! Wire encoding (all lengths little-endian `u32`):
//!
//! ```text
//! [magic 2][len | sealed index][segment count][len | sealed segment]…
//! sealed segment = nonce(12) ‖ AES-GCM ciphertext ‖ tag(16)
//! sealed index   = nonce(12) ‖ tag(16) ‖ [segment count][SHA-256 of each sealed segment]…
//! ```
//!
//! The index's tag covers its entries as associated data, so an update
//! changes only the entries of the segments it resealed plus the nonce
//! and tag: the container's bytes stay the same wherever the state did,
//! which keeps the ME's dirty-page deltas small.
//!
//! What is verified where: `InitRequest::Restore` and an incoming
//! migration's install check the root against the container the host
//! returned or relayed, and [`super::MigrationLibrary::open_bulk`]
//! checks the index and every segment before handing plaintext to the
//! app. Splicing a segment from another container fails the index hash;
//! presenting a whole older container is left to the app's own
//! version-vs-counter check.
//!
//! On migration the container travels as the ciphertext it already is,
//! beside the small sealed channel messages that carry its root.
//! [`verify_root`] checks a container against a root without the MSK,
//! so the Migration Enclaves can refuse a host-swapped or damaged
//! container on arrival and before release.

use crate::error::MigError;
use mig_crypto::ct::ct_eq;
use mig_crypto::gcm::AesGcm;
use mig_crypto::sha256::sha256;
use sgx_sim::enclave::EnclaveEnv;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::ops::Range;

/// Maximum plaintext bytes per sealed segment.
pub const SEGMENT_LEN: usize = 4096;
/// Leading byte of a container.
const CONTAINER_MAGIC: u8 = 2;
/// AAD of the sealed index.
const INDEX_AAD: &[u8] = b"sgx-migrate.bulk.index.v1";
/// AAD prefix of a sealed segment; the segment's position follows.
const SEGMENT_AAD: &[u8] = b"sgx-migrate.bulk.segment.v1:";
const NONCE_LEN: usize = 12;

fn segment_aad(idx: usize) -> Vec<u8> {
    let mut aad = SEGMENT_AAD.to_vec();
    aad.extend_from_slice(&(idx as u64).to_le_bytes());
    aad
}

/// Seals `plaintext` as `nonce ‖ ciphertext ‖ tag`.
fn seal_item(aead: &AesGcm, env: &mut EnclaveEnv<'_>, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; NONCE_LEN];
    env.random_bytes(&mut nonce);
    let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + 16);
    out.extend_from_slice(&nonce);
    aead.seal_into(&nonce, aad, plaintext, &mut out);
    out
}

/// Authenticates the index entries `plain` as `nonce ‖ tag ‖ plain`.
fn seal_index(aead: &AesGcm, env: &mut EnclaveEnv<'_>, plain: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; NONCE_LEN];
    env.random_bytes(&mut nonce);
    let aad = [INDEX_AAD, plain].concat();
    let mut out = Vec::with_capacity(NONCE_LEN + 16 + plain.len());
    out.extend_from_slice(&nonce);
    aead.seal_into(&nonce, &aad, &[], &mut out);
    out.extend_from_slice(plain);
    out
}

/// Opens an item sealed by [`seal_item`] under `aad`.
fn open_item(aead: &AesGcm, aad: &[u8], item: &[u8]) -> Result<Vec<u8>, MigError> {
    let mut r = WireReader::new(item);
    let nonce: [u8; NONCE_LEN] = r.array()?;
    let sealed = item
        .get(NONCE_LEN..)
        .ok_or(MigError::Sgx(SgxError::Decode))?;
    aead.open(&nonce, aad, sealed)
        .map_err(|_| MigError::Sgx(SgxError::MacMismatch))
}

/// An upper bound on the encoded length of a container of `count`
/// segments (each full, with its index entry).
#[must_use]
pub(super) fn max_encoded_len(count: usize) -> u64 {
    let per_segment = 4 + NONCE_LEN + SEGMENT_LEN + 16 + 32;
    (count as u64) * per_segment as u64 + 64
}

/// Where the sealed index and the sealed segments sit in a container's
/// encoding. Decoding the layout checks framing only — no key needed —
/// so the untrusted host can use it too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Span of the sealed index.
    pub index: Range<usize>,
    /// Span of each sealed segment, in order.
    pub segments: Vec<Range<usize>>,
}

impl Layout {
    /// Decodes the framing of an encoded container.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on a wrong magic byte, truncation, a segment
    /// count the remaining bytes cannot hold, or trailing bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        if r.u8()? != CONTAINER_MAGIC {
            return Err(SgxError::Decode);
        }
        let span = |r: &mut WireReader<'_>| -> Result<Range<usize>, SgxError> {
            let field = r.bytes()?;
            let end = bytes.len() - r.remaining();
            Ok(end - field.len()..end)
        };
        let index = span(&mut r)?;
        let n = r.u32()? as usize;
        // Every segment costs at least its length prefix, which bounds
        // the allocation below by the input size.
        if n > r.remaining() / 4 {
            return Err(SgxError::Decode);
        }
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            segments.push(span(&mut r)?);
        }
        r.finish()?;
        Ok(Layout { index, segments })
    }
}

/// Returns the bytes of `span` in `bytes` (spans come from a [`Layout`]
/// of those same bytes).
fn slice(bytes: &[u8], span: Range<usize>) -> Result<&[u8], MigError> {
    bytes
        .get(span)
        .ok_or(MigError::SessionInvariant("bulk layout out of range"))
}

/// Splits the sealed index into `nonce ‖ tag` and its entries.
fn index_parts<'a>(bytes: &'a [u8], layout: &Layout) -> Result<(&'a [u8], &'a [u8]), MigError> {
    slice(bytes, layout.index.clone())?
        .split_at_checked(NONCE_LEN + 16)
        .ok_or(MigError::Sgx(SgxError::Decode))
}

/// Decodes the index entries: the SHA-256 of every sealed segment.
fn index_entries(plain: &[u8], layout: &Layout) -> Result<Vec<[u8; 32]>, MigError> {
    let mut r = WireReader::new(plain);
    let n = r.u32()? as usize;
    if n != layout.segments.len() || r.remaining() != 32 * n {
        return Err(MigError::Sgx(SgxError::Decode));
    }
    let mut hashes = Vec::with_capacity(n);
    for _ in 0..n {
        hashes.push(r.array::<32>()?);
    }
    r.finish()?;
    Ok(hashes)
}

/// Verifies the sealed index and returns its entries.
fn open_index(aead: &AesGcm, bytes: &[u8], layout: &Layout) -> Result<Vec<[u8; 32]>, MigError> {
    let (auth, plain) = index_parts(bytes, layout)?;
    let mut r = WireReader::new(auth);
    let nonce: [u8; NONCE_LEN] = r.array()?;
    let tag: [u8; 16] = r.array()?;
    aead.open(&nonce, &[INDEX_AAD, plain].concat(), &tag)
        .map_err(|_| MigError::Sgx(SgxError::MacMismatch))?;
    index_entries(plain, layout)
}

/// Decodes the layout of `bytes` and checks that its sealed index is
/// the one `root` names.
fn check_index(bytes: &[u8], root: &[u8; 32]) -> Result<Layout, MigError> {
    let layout = Layout::parse(bytes)?;
    if !ct_eq(&sha256(slice(bytes, layout.index.clone())?), root) {
        return Err(MigError::BulkMismatch);
    }
    Ok(layout)
}

/// Checks that `bytes` is exactly the container `root` names: the
/// framing decodes, `SHA-256(sealed index) == root`, and every sealed
/// segment hashes to its index entry. Needs no key — the index entries
/// are authenticated by the root itself — so a Migration Enclave can
/// check a relayed container it cannot open. Given collision-resistant
/// hashing, a container that passes is byte-identical to the one the
/// library staged under `root`. The segment hashes fan out over up to
/// `lanes` worker threads ([`mig_crypto::sha256::sha256_each`]); the
/// verdict does not depend on the lane count.
///
/// # Errors
///
/// [`SgxError::Decode`] for malformed framing; [`MigError::BulkMismatch`]
/// when the index is not the one `root` names;
/// [`SgxError::MacMismatch`] when a segment differs from its entry.
pub fn verify_root(bytes: &[u8], root: &[u8; 32], lanes: u32) -> Result<(), MigError> {
    let layout = check_index(bytes, root)?;
    let (_, plain) = index_parts(bytes, &layout)?;
    let hashes = index_entries(plain, &layout)?;
    let segments = layout
        .segments
        .iter()
        .map(|span| slice(bytes, span.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let actual = mig_crypto::sha256::sha256_each(&segments, lanes);
    if actual.len() != hashes.len() || !actual.iter().zip(&hashes).all(|(a, h)| ct_eq(a, h)) {
        return Err(MigError::Sgx(SgxError::MacMismatch));
    }
    Ok(())
}

/// Checks a relayed bulk payload against the root its sealed message
/// carried: `None` admits only an empty payload, `Some` runs
/// [`verify_root`] on `lanes` hash lanes.
///
/// # Errors
///
/// [`MigError::BulkMismatch`] for bytes without a root; otherwise as
/// [`verify_root`].
pub fn verify_relayed(bytes: &[u8], root: Option<&[u8; 32]>, lanes: u32) -> Result<(), MigError> {
    match root {
        Some(root) => verify_root(bytes, root, lanes),
        None if bytes.is_empty() => Ok(()),
        None => Err(MigError::BulkMismatch),
    }
}

/// The staged container: its encoding plus what the library needs to
/// update it without reading it again.
pub(super) struct Container {
    bytes: Vec<u8>,
    layout: Layout,
    /// SHA-256 of every sealed segment (the index entries).
    hashes: Vec<[u8; 32]>,
    root: [u8; 32],
}

impl Container {
    /// Adopts the encoded container `root` names, sealed under `msk`:
    /// checks the root and opens the index, not the segments (those are
    /// checked when the app opens the container). No root admits only
    /// an empty container, which stages nothing.
    pub(super) fn decode(
        msk: [u8; 16],
        bytes: &[u8],
        root: Option<&[u8; 32]>,
    ) -> Result<Option<Self>, MigError> {
        let Some(root) = root else {
            return verify_relayed(bytes, None, 1).map(|()| None);
        };
        let layout = check_index(bytes, root)?;
        let hashes = open_index(&AesGcm::new(msk), bytes, &layout)?;
        Ok(Some(Container {
            bytes: bytes.to_vec(),
            layout,
            hashes,
            root: *root,
        }))
    }

    pub(super) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub(super) fn root(&self) -> &[u8; 32] {
        &self.root
    }

    /// Stages a container of `count` segments into `slot`: reseals the
    /// segments in `changed` (index, plaintext) and the index, and keeps
    /// every other segment's ciphertext. Every index at or past the
    /// previous count must be in `changed`. Validates before sealing.
    /// Returns the new root.
    pub(super) fn stage(
        slot: &mut Option<Container>,
        msk: [u8; 16],
        env: &mut EnclaveEnv<'_>,
        count: usize,
        changed: &[(usize, &[u8])],
    ) -> Result<[u8; 32], MigError> {
        let old_hashes: &[[u8; 32]] = slot.as_ref().map_or(&[], |c| c.hashes.as_slice());
        let mut fresh: Vec<Option<&[u8]>> = vec![None; count];
        for &(idx, plain) in changed {
            if plain.len() > SEGMENT_LEN {
                return Err(MigError::Transfer("bulk segment exceeds SEGMENT_LEN"));
            }
            let entry = fresh
                .get_mut(idx)
                .ok_or(MigError::Transfer("bulk segment index out of range"))?;
            *entry = Some(plain);
        }
        if fresh.iter().skip(old_hashes.len()).any(Option::is_none) {
            return Err(MigError::Transfer("new bulk segment missing"));
        }

        let aead = AesGcm::new(msk);
        let sealed: Vec<Option<Vec<u8>>> = fresh
            .iter()
            .enumerate()
            .map(|(i, plain)| plain.map(|p| seal_item(&aead, env, &segment_aad(i), p)))
            .collect();
        let mut index = WireWriter::with_capacity(4 + 32 * count);
        index.u32(count as u32);
        let mut hashes = Vec::with_capacity(count);
        for (i, item) in sealed.iter().enumerate() {
            let hash = match (item, old_hashes.get(i)) {
                (Some(item), _) => sha256(item),
                (None, Some(hash)) => *hash,
                (None, None) => return Err(MigError::SessionInvariant("bulk hash missing")),
            };
            index.array(&hash);
            hashes.push(hash);
        }
        let sealed_index = seal_index(&aead, env, &index.finish());
        let root = sha256(&sealed_index);

        match slot {
            Some(old) if old.fits(&sealed, &sealed_index) => {
                old.overwrite(&sealed, &sealed_index)?;
                old.hashes = hashes;
                old.root = root;
            }
            _ => {
                let (bytes, layout) = encode(slot.as_ref(), &sealed, &sealed_index)?;
                *slot = Some(Container {
                    bytes,
                    layout,
                    hashes,
                    root,
                });
            }
        }
        Ok(root)
    }

    /// Whether the resealed items have the lengths of the ones they
    /// replace, so the encoding can be patched in place.
    fn fits(&self, sealed: &[Option<Vec<u8>>], sealed_index: &[u8]) -> bool {
        sealed.len() == self.layout.segments.len()
            && sealed_index.len() == self.layout.index.len()
            && sealed
                .iter()
                .zip(&self.layout.segments)
                .all(|(item, span)| item.as_ref().is_none_or(|s| s.len() == span.len()))
    }

    fn overwrite(
        &mut self,
        sealed: &[Option<Vec<u8>>],
        sealed_index: &[u8],
    ) -> Result<(), MigError> {
        let spans = std::iter::once((Some(sealed_index), &self.layout.index)).chain(
            sealed
                .iter()
                .map(Option::as_deref)
                .zip(&self.layout.segments),
        );
        for (item, span) in spans {
            if let Some(item) = item {
                self.bytes
                    .get_mut(span.clone())
                    .ok_or(MigError::SessionInvariant("bulk layout out of range"))?
                    .copy_from_slice(item);
            }
        }
        Ok(())
    }
}

/// Encodes a container from freshly sealed items, taking every other
/// segment's ciphertext from `old`.
fn encode(
    old: Option<&Container>,
    sealed: &[Option<Vec<u8>>],
    sealed_index: &[u8],
) -> Result<(Vec<u8>, Layout), MigError> {
    let total: usize = sealed
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            Some(item) => item.len(),
            None => old
                .and_then(|c| c.layout.segments.get(i))
                .map_or(0, Range::len),
        })
        .sum();
    let mut w = WireWriter::with_capacity(9 + sealed_index.len() + 4 * sealed.len() + total);
    w.u8(CONTAINER_MAGIC).bytes(sealed_index);
    let index = w.len() - sealed_index.len()..w.len();
    w.u32(sealed.len() as u32);
    let mut segments = Vec::with_capacity(sealed.len());
    for (i, item) in sealed.iter().enumerate() {
        let item = match (item, old) {
            (Some(item), _) => item.as_slice(),
            (None, Some(old)) => {
                let span = old
                    .layout
                    .segments
                    .get(i)
                    .ok_or(MigError::SessionInvariant("bulk segment missing"))?;
                slice(&old.bytes, span.clone())?
            }
            (None, None) => return Err(MigError::SessionInvariant("bulk segment missing")),
        };
        w.bytes(item);
        segments.push(w.len() - item.len()..w.len());
    }
    Ok((w.finish(), Layout { index, segments }))
}

/// A container whose index and every segment verified under this
/// enclave's MSK, with the plaintext they hold. Only
/// [`super::MigrationLibrary::open_bulk`] makes one, so staging it with
/// [`super::MigrationLibrary::adopt_bulk`] never stages bytes the
/// library did not seal.
pub struct OpenedBulk<'a> {
    bytes: &'a [u8],
    layout: Layout,
    hashes: Vec<[u8; 32]>,
    root: [u8; 32],
    plaintext: Vec<u8>,
}

impl OpenedBulk<'_> {
    /// The concatenated segment plaintext.
    #[must_use]
    pub fn plaintext(&self) -> &[u8] {
        &self.plaintext
    }

    /// The container root, `SHA-256(sealed index)`.
    #[must_use]
    pub fn root(&self) -> &[u8; 32] {
        &self.root
    }

    /// The staged form of the opened container (one copy of it).
    pub(super) fn into_container(self) -> Container {
        Container {
            bytes: self.bytes.to_vec(),
            layout: self.layout,
            hashes: self.hashes,
            root: self.root,
        }
    }

    /// Opens `bytes`: decodes the layout, opens the index, and checks
    /// every segment's ciphertext hash and positional AAD.
    pub(super) fn open(msk: [u8; 16], bytes: &[u8]) -> Result<OpenedBulk<'_>, MigError> {
        let layout = Layout::parse(bytes)?;
        let aead = AesGcm::new(msk);
        let hashes = open_index(&aead, bytes, &layout)?;
        let mut plaintext = Vec::with_capacity(layout.segments.len() * SEGMENT_LEN);
        for (i, (span, hash)) in layout.segments.iter().zip(&hashes).enumerate() {
            let item = slice(bytes, span.clone())?;
            if !ct_eq(&sha256(item), hash) {
                // A segment spliced in from another container.
                return Err(MigError::Sgx(SgxError::MacMismatch));
            }
            plaintext.extend_from_slice(&open_item(&aead, &segment_aad(i), item)?);
        }
        Ok(OpenedBulk {
            bytes,
            root: sha256(slice(bytes, layout.index.clone())?),
            layout,
            hashes,
            plaintext,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Encodes a container whose segment items are `items` as given — not
    /// sealed, which [`verify_root`] never needs — and returns it with its
    /// root (fixtures for the release-gate tests).
    pub(crate) fn test_container(items: &[Vec<u8>]) -> (Vec<u8>, [u8; 32]) {
        let mut entries = WireWriter::new();
        entries.u32(items.len() as u32);
        for item in items {
            entries.array(&sha256(item));
        }
        let mut sealed_index = vec![0u8; NONCE_LEN + 16];
        sealed_index.extend_from_slice(&entries.finish());
        let sealed: Vec<Option<Vec<u8>>> = items.iter().cloned().map(Some).collect();
        let (bytes, _) = encode(None, &sealed, &sealed_index).expect("every item is fresh");
        (bytes, sha256(&sealed_index))
    }

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 100 + i]).collect()
    }

    #[test]
    fn verify_root_accepts_only_the_named_container() {
        let (bytes, root) = test_container(&items(5));
        verify_relayed(&[], None, 1).unwrap();
        assert!(matches!(
            verify_relayed(&bytes, None, 1),
            Err(MigError::BulkMismatch)
        ));
        // The verdicts are the same on one hash lane and on several.
        for lanes in [1, 4] {
            verify_root_verdicts(&bytes, &root, lanes);
        }
    }

    fn verify_root_verdicts(bytes: &[u8], root: &[u8; 32], lanes: u32) {
        verify_root(bytes, root, lanes).unwrap();
        verify_relayed(bytes, Some(root), lanes).unwrap();

        // Another container's root: the index does not match.
        let (other, other_root) = test_container(&items(4));
        assert!(matches!(
            verify_root(bytes, &other_root, lanes),
            Err(MigError::BulkMismatch)
        ));
        // A segment swapped in from another container under the genuine
        // index fails its entry.
        let mut swapped = items(5);
        swapped[2] = vec![0xEE; 102];
        let (spliced, _) = test_container(&swapped);
        let layout = Layout::parse(bytes).unwrap();
        let mut evil = bytes.to_vec();
        let span = layout.segments[2].clone();
        let spliced_layout = Layout::parse(&spliced).unwrap();
        evil[span].copy_from_slice(&spliced[spliced_layout.segments[2].clone()]);
        assert!(matches!(
            verify_root(&evil, root, lanes),
            Err(MigError::Sgx(SgxError::MacMismatch))
        ));
        // Every single-byte flip anywhere is refused, never a panic.
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x40;
            assert!(verify_root(&flipped, root, lanes).is_err(), "flip at {i}");
        }
        assert!(verify_root(&other, root, lanes).is_err());
        assert!(verify_root(&bytes[..bytes.len() - 1], root, lanes).is_err());
    }
}
