//! Native SGX sealing (`sgx_seal_data` / `sgx_unseal_data`).
//!
//! Sealing encrypts enclave data under a key derived from the CPU secret
//! and the enclave identity (per the chosen [`KeyPolicy`]), using
//! AES-128-GCM exactly like the SDK. The sealed blob is *machine-bound*:
//! it cannot be unsealed on any other machine, which is the limitation
//! the paper's Migration Sealing Key works around.
//!
//! This module defines the blob format and the pure sealing/unsealing
//! logic; enclaves reach it through [`crate::enclave::EnclaveEnv::seal_data`]
//! and [`crate::enclave::EnclaveEnv::unseal_data`].

use crate::cpu::{egetkey, CpuSecret, KeyName, KeyPolicy, KeyRequest};
use crate::error::SgxError;
use crate::measurement::EnclaveIdentity;
use crate::wire::{WireReader, WireWriter};
use mig_crypto::gcm::AesGcm;

const FORMAT_VERSION: u8 = 1;

/// Parsed header of a sealed blob (everything except the ciphertext).
///
/// Exposed so tests and tools can inspect how a blob was sealed without
/// being able to decrypt it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedHeader {
    /// Identity-binding policy the sealing key was derived under.
    pub policy: KeyPolicy,
    /// Per-blob key diversifier.
    pub key_id: [u8; 16],
    /// AES-GCM nonce.
    pub nonce: [u8; 12],
    /// The authenticated-but-not-encrypted additional data.
    pub aad: Vec<u8>,
}

/// Inspects a sealed blob's header without decrypting.
///
/// # Errors
///
/// Returns [`SgxError::Decode`] on malformed input.
pub fn parse_sealed_header(blob: &[u8]) -> Result<SealedHeader, SgxError> {
    let mut r = WireReader::new(blob);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(SgxError::Decode);
    }
    let policy = KeyPolicy::from_u8(r.u8()?)?;
    let key_id: [u8; 16] = r.array()?;
    let nonce: [u8; 12] = r.array()?;
    let aad = r.bytes_vec()?;
    let _ct = r.bytes()?;
    r.finish()?;
    Ok(SealedHeader {
        policy,
        key_id,
        nonce,
        aad,
    })
}

/// Length of the sealed blob at the front of `bytes`, which may go on
/// with other data (the blob's fields describe their own lengths).
///
/// # Errors
///
/// Returns [`SgxError::Decode`] when `bytes` does not start with a
/// complete sealed blob.
pub fn sealed_prefix_len(bytes: &[u8]) -> Result<usize, SgxError> {
    let mut r = WireReader::new(bytes);
    if r.u8()? != FORMAT_VERSION {
        return Err(SgxError::Decode);
    }
    KeyPolicy::from_u8(r.u8()?)?;
    r.array::<16>()?;
    r.array::<12>()?;
    r.bytes()?;
    r.bytes()?;
    Ok(bytes.len() - r.remaining())
}

/// Computes the sealed size for a given plaintext/AAD size (format
/// overhead is constant).
#[must_use]
pub fn sealed_size(aad_len: usize, plaintext_len: usize) -> usize {
    // version + policy + key_id + nonce + (len+aad) + (len+ct+tag)
    1 + 1 + 16 + 12 + 4 + aad_len + 4 + plaintext_len + 16
}

pub(crate) fn seal(
    cpu: &CpuSecret,
    identity: &EnclaveIdentity,
    policy: KeyPolicy,
    key_id: [u8; 16],
    nonce: [u8; 12],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let key = egetkey(
        cpu,
        identity,
        &KeyRequest {
            name: KeyName::Seal,
            policy,
            key_id,
        },
    );
    let mut header = WireWriter::new();
    header
        .u8(FORMAT_VERSION)
        .u8(policy.as_u8())
        .array(&key_id)
        .array(&nonce)
        .bytes(aad);
    let header_bytes = header.finish();

    // The whole header (including user AAD) is authenticated.
    let aead = AesGcm::new(key);
    let ct = aead.seal(&nonce, &header_bytes, plaintext);

    let mut out = header_bytes;
    let mut tail = WireWriter::new();
    tail.bytes(&ct);
    out.extend_from_slice(&tail.finish());
    out
}

pub(crate) fn unseal(
    cpu: &CpuSecret,
    identity: &EnclaveIdentity,
    blob: &[u8],
) -> Result<(Vec<u8>, Vec<u8>), SgxError> {
    let mut r = WireReader::new(blob);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(SgxError::Decode);
    }
    let policy = KeyPolicy::from_u8(r.u8()?)?;
    let key_id: [u8; 16] = r.array()?;
    let nonce: [u8; 12] = r.array()?;
    let aad = r.bytes_vec()?;
    let ct = r.bytes_vec()?;
    r.finish()?;

    // Reconstruct the authenticated header exactly as sealed.
    let mut header = WireWriter::new();
    header
        .u8(FORMAT_VERSION)
        .u8(policy.as_u8())
        .array(&key_id)
        .array(&nonce)
        .bytes(&aad);
    let header_bytes = header.finish();

    let key = egetkey(
        cpu,
        identity,
        &KeyRequest {
            name: KeyName::Seal,
            policy,
            key_id,
        },
    );
    let aead = AesGcm::new(key);
    let plaintext = aead
        .open(&nonce, &header_bytes, &ct)
        .map_err(|_| SgxError::MacMismatch)?;
    Ok((plaintext, aad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{MrEnclave, MrSigner};

    fn identity(tag: u8) -> EnclaveIdentity {
        EnclaveIdentity {
            mr_enclave: MrEnclave([tag; 32]),
            mr_signer: MrSigner([0xEE; 32]),
        }
    }

    fn seal_simple(cpu: &CpuSecret, id: &EnclaveIdentity, policy: KeyPolicy) -> Vec<u8> {
        seal(cpu, id, policy, [1; 16], [2; 12], b"aad", b"secret data")
    }

    #[test]
    fn seal_unseal_round_trip() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        let (pt, aad) = unseal(&cpu, &identity(1), &blob).unwrap();
        assert_eq!(pt, b"secret data");
        assert_eq!(aad, b"aad");
    }

    #[test]
    fn sealed_blob_is_machine_bound() {
        let cpu1 = CpuSecret::from_seed([5; 32]);
        let cpu2 = CpuSecret::from_seed([6; 32]);
        let blob = seal_simple(&cpu1, &identity(1), KeyPolicy::MrEnclave);
        assert_eq!(
            unseal(&cpu2, &identity(1), &blob).unwrap_err(),
            SgxError::MacMismatch
        );
    }

    #[test]
    fn mrenclave_policy_binds_to_exact_enclave() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        assert_eq!(
            unseal(&cpu, &identity(2), &blob).unwrap_err(),
            SgxError::MacMismatch
        );
    }

    #[test]
    fn mrsigner_policy_shared_across_versions() {
        let cpu = CpuSecret::from_seed([5; 32]);
        // Same signer, different measurement (e.g. an upgraded enclave).
        let v1 = identity(1);
        let mut v2 = identity(2);
        v2.mr_signer = v1.mr_signer;
        let blob = seal_simple(&cpu, &v1, KeyPolicy::MrSigner);
        let (pt, _) = unseal(&cpu, &v2, &blob).unwrap();
        assert_eq!(pt, b"secret data");
    }

    #[test]
    fn tampering_any_byte_is_detected() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(unseal(&cpu, &identity(1), &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn header_parses_without_key() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal(
            &cpu,
            &identity(1),
            KeyPolicy::MrSigner,
            [9; 16],
            [8; 12],
            b"public metadata",
            b"secret",
        );
        let header = parse_sealed_header(&blob).unwrap();
        assert_eq!(header.policy, KeyPolicy::MrSigner);
        assert_eq!(header.key_id, [9; 16]);
        assert_eq!(header.nonce, [8; 12]);
        assert_eq!(header.aad, b"public metadata");
    }

    #[test]
    fn sealed_size_matches_actual() {
        let cpu = CpuSecret::from_seed([5; 32]);
        for (aad_len, pt_len) in [(0usize, 0usize), (3, 10), (100, 1000)] {
            let blob = seal(
                &cpu,
                &identity(1),
                KeyPolicy::MrEnclave,
                [0; 16],
                [0; 12],
                &vec![1; aad_len],
                &vec![2; pt_len],
            );
            assert_eq!(blob.len(), sealed_size(aad_len, pt_len));
        }
    }
}
