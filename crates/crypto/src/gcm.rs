//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the workhorse AEAD of the workspace: the simulated
//! `sgx_seal_data`, the migratable sealing of the Migration Library, and
//! every attested secure channel all encrypt with AES-128-GCM, mirroring the
//! SGX SDK (the paper, §II-A4, notes SGX sealing uses AES-GCM). Validated
//! against the original McGrew–Viega GCM specification test cases.
//!
//! # Kernel design
//!
//! Both halves of GCM run as multi-block kernels. The CTR keystream is
//! generated `PARALLEL_BLOCKS` counter blocks at a time through the bitsliced AES
//! kernel ([`Aes128::encrypt_blocks`]), so the per-call fixed cost of the
//! bitslice transform is amortized over 128 bytes of keystream. GHASH
//! uses Shoup's 8-bit table method: a 4 KiB per-key table (`htable[b]` =
//! byte-polynomial `b` times `H`) plus a shared key-independent 4 KiB
//! reduction table, bringing a block multiply down to 16 table lookups —
//! half the lookups of the 4-bit method it replaces (which survives in
//! `reference` as an oracle, alongside the bit-serial multiply).
//! Blocks are absorbed two at a time via a second table for `H²`:
//! `y·H² ⊕ x·H` runs as two *independent* Shoup walks whose table-load
//! latencies overlap in the out-of-order core, where the naive
//! block-at-a-time fold is one long serial dependency chain
//! ([`gf_mul_pair`]). [`AesGcm::seal_into`] writes `ciphertext || tag`
//! straight into a caller-provided buffer so batched seals never
//! reallocate.

use crate::aes::{Aes128, BLOCK_LEN, KEY_LEN, PARALLEL_BLOCKS};
use crate::ct::ct_eq;
use crate::{CryptoError, Result};

/// Nonce (IV) size: GCM's recommended 96-bit IV.
pub const NONCE_LEN: usize = 12;
/// Authentication-tag size: the full 128 bits.
pub const TAG_LEN: usize = 16;

/// An AES-128-GCM cipher instance with a fixed key.
///
/// `seal` produces `ciphertext || tag`; `open` verifies and strips the tag.
///
/// # Nonce discipline
///
/// A (key, nonce) pair must never be reused for different plaintexts.
/// Callers in this workspace either use random nonces from a CSPRNG or
/// strictly increasing counters per session key.
///
/// # Example
///
/// ```
/// use mig_crypto::gcm::AesGcm;
///
/// # fn main() -> Result<(), mig_crypto::CryptoError> {
/// let aead = AesGcm::new([0x42; 16]);
/// let ct = aead.seal(&[1; 12], b"header", b"payload");
/// assert_eq!(aead.open(&[1; 12], b"header", &ct)?, b"payload");
/// assert!(aead.open(&[1; 12], b"tampered", &ct).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct AesGcm {
    cipher: Aes128,
    /// GHASH key H = E(K, 0^128), as a big-endian u128.
    h: u128,
    /// Shoup 8-bit multiplication table: `htable[b]` = (8-bit
    /// polynomial `b`) · H, so a GHASH block costs 16 table lookups.
    /// Boxed: 4 KiB inline would bloat every struct that embeds a
    /// channel (`MeSession` already boxes for the same reason).
    htable: Box<[u128; 256]>,
    /// The same table for H² = H·H, used by the two-blocks-at-a-time
    /// GHASH fold ([`gf_mul_pair`]). Key-derived and zeroized on drop,
    /// like `htable`.
    htable2: Box<[u128; 256]>,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesGcm").finish_non_exhaustive()
    }
}

impl Drop for AesGcm {
    fn drop(&mut self) {
        // H = E(K, 0) lets an attacker forge tags; `cipher` scrubs itself.
        // Both multiplication tables are H-derived and equally sensitive.
        crate::zeroize::zeroize_u128(&mut self.h);
        for entry in self.htable.iter_mut().chain(self.htable2.iter_mut()) {
            crate::zeroize::zeroize_u128(entry);
        }
    }
}

impl AesGcm {
    /// Creates a GCM instance for the given 128-bit key.
    #[must_use]
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        let cipher = Aes128::new(&key);
        let h_block = cipher.encrypt(&[0u8; BLOCK_LEN]);
        let h = u128::from_be_bytes(h_block);
        let htable = build_htable(h);
        let mut h2 = gf_mul_8bit(h, &htable);
        let htable2 = build_htable(h2);
        crate::zeroize::zeroize_u128(&mut h2);
        AesGcm {
            cipher,
            h,
            htable,
            htable2,
        }
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Encrypts `plaintext` bound to `aad`, appending `ciphertext || tag`
    /// to `out` — the allocation-free entry point for batched seals.
    ///
    /// Reserves exactly the bytes it appends, so a caller that pre-sizes
    /// `out` (or reuses one buffer across a batch) never reallocates or
    /// copies the ciphertext a second time.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.reserve(plaintext.len() + TAG_LEN);
        let ct_start = out.len();
        out.extend_from_slice(plaintext);
        let tag = self.seal_split_in_place(nonce, aad, &[], &mut out[ct_start..]);
        out.extend_from_slice(&tag);
    }

    /// Encrypts `buf` in place and returns the tag over the additional
    /// data `aad ‖ body` — the **split-AAD** seal. `body` is authenticated
    /// but neither encrypted nor copied, so a caller whose message is a
    /// small secret header beside a large public body pays CTR only on
    /// the header and a single GHASH pass over the body.
    ///
    /// `ciphertext ‖ tag` is byte-identical to
    /// [`AesGcm::seal`]`(nonce, aad ‖ body, buf)`: the split only saves
    /// the caller from concatenating the two AAD parts.
    #[must_use]
    pub fn seal_split_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        body: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let j0 = self.j0(nonce);
        self.ctr(inc32(j0), buf);
        self.tag(j0, [aad, body], buf)
    }

    /// Decrypts `sealed` (= `ciphertext || tag`) bound to `aad`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `sealed` is shorter than a
    /// tag, and [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify (wrong key, nonce, AAD, or tampered ciphertext).
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        self.open_split(nonce, aad, &[], sealed)
    }

    /// Decrypts `sealed` (= `ciphertext || tag`) whose tag covers the
    /// additional data `aad ‖ body` — the inverse of
    /// [`AesGcm::seal_split_in_place`]. The tag is checked over the
    /// borrowed `body` before anything is decrypted, and only the
    /// ciphertext (the small header) is decrypted.
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open`]: [`CryptoError::InvalidLength`] below a tag,
    /// [`CryptoError::AuthenticationFailed`] when any bit of `aad`,
    /// `body`, the ciphertext or the tag differs from what was sealed.
    pub fn open_split(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        body: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let j0 = self.j0(nonce);
        let expected = self.tag(j0, [aad, body], ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut out = ciphertext.to_vec();
        self.ctr(inc32(j0), &mut out);
        Ok(out)
    }

    /// Pre-counter block for a 96-bit IV: `IV || 0^31 || 1`.
    fn j0(&self, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
        let mut j0 = [0u8; BLOCK_LEN];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK_LEN - 1] = 1;
        j0
    }

    /// CTR-mode keystream XOR starting from counter block `icb`,
    /// `PARALLEL_BLOCKS` keystream blocks per bitsliced kernel call.
    fn ctr(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        let mut ctr = u32::from_be_bytes(icb[12..16].try_into().expect("4 bytes"));
        let mut ks = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        for chunk in data.chunks_mut(BLOCK_LEN * PARALLEL_BLOCKS) {
            for (j, block) in ks.iter_mut().enumerate() {
                block[..12].copy_from_slice(&icb[..12]);
                block[12..].copy_from_slice(&ctr.wrapping_add(j as u32).to_be_bytes());
            }
            self.cipher.encrypt_blocks(&mut ks);
            for (sub, kblock) in chunk.chunks_mut(BLOCK_LEN).zip(ks.iter()) {
                for (d, k) in sub.iter_mut().zip(kblock.iter()) {
                    *d ^= k;
                }
            }
            ctr = ctr.wrapping_add(PARALLEL_BLOCKS as u32);
        }
        // Unconsumed keystream from a ragged tail must not linger.
        for block in &mut ks {
            crate::zeroize::zeroize_bytes(block);
        }
    }

    /// GHASH over the additional data `aad[0] ‖ aad[1]` and
    /// `ciphertext`, then encrypted with `E(K, J0)`.
    fn tag(&self, j0: [u8; BLOCK_LEN], aad: [&[u8]; 2], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut y = 0u128;
        y = self.ghash_concat(y, aad);
        y = self.ghash_blocks(y, ciphertext);
        let aad_len = (aad[0].len() + aad[1].len()) as u64;
        let mut len_block = [0u8; BLOCK_LEN];
        len_block[..8].copy_from_slice(&(aad_len * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        y = gf_mul_8bit(y ^ u128::from_be_bytes(len_block), &self.htable);

        let ekj0 = self.cipher.encrypt(&j0);
        let mut tag = y.to_be_bytes();
        for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
            *t ^= k;
        }
        tag
    }

    /// Absorbs `parts[0] ‖ parts[1]` as one GHASH input, zero-padded to
    /// a block boundary only at its end. The block that straddles the two
    /// parts is assembled in a scratch block; the rest of each part runs
    /// through the two-blocks-at-a-time [`Self::ghash_blocks`] fold in
    /// place, so a large second part is never copied.
    fn ghash_concat(&self, mut y: u128, parts: [&[u8]; 2]) -> u128 {
        let [first, mut second] = parts;
        let whole = first.len() - first.len() % BLOCK_LEN;
        y = self.ghash_blocks(y, &first[..whole]);
        let tail = &first[whole..];
        if !tail.is_empty() {
            let take = (BLOCK_LEN - tail.len()).min(second.len());
            let mut block = [0u8; BLOCK_LEN];
            block[..tail.len()].copy_from_slice(tail);
            block[tail.len()..tail.len() + take].copy_from_slice(&second[..take]);
            y = gf_mul_8bit(y ^ u128::from_be_bytes(block), &self.htable);
            second = &second[take..];
        }
        self.ghash_blocks(y, second)
    }

    /// Absorbs `data` (zero-padded to full blocks) into the GHASH state,
    /// two blocks per fold: `((y ⊕ b₀)·H ⊕ b₁)·H = (y ⊕ b₀)·H² ⊕ b₁·H`,
    /// so each pair costs one latency-overlapped [`gf_mul_pair`] instead
    /// of two serial multiplies.
    fn ghash_blocks(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut pairs = data.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut pairs {
            let b0 = u128::from_be_bytes(pair[..BLOCK_LEN].try_into().expect("exact block"));
            let b1 = u128::from_be_bytes(pair[BLOCK_LEN..].try_into().expect("exact block"));
            y = gf_mul_pair(y ^ b0, b1, &self.htable2, &self.htable);
        }
        let mut blocks = pairs.remainder().chunks_exact(BLOCK_LEN);
        for chunk in &mut blocks {
            let block = u128::from_be_bytes(chunk.try_into().expect("exact block"));
            y = gf_mul_8bit(y ^ block, &self.htable);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; BLOCK_LEN];
            block[..tail.len()].copy_from_slice(tail);
            y = gf_mul_8bit(y ^ u128::from_be_bytes(block), &self.htable);
        }
        y
    }
}

/// Multiplies the reflected GCM element `v` by the field element `x`
/// (one right shift with conditional reduction).
fn mul_x(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    (v >> 1) ^ if v & 1 == 1 { R } else { 0 }
}

/// Builds the Shoup 8-bit table for multiplication by `h`: `t[b]` is
/// the product of the 8-bit polynomial `b` and `h`, where bit 7 of `b`
/// is the group's lowest-degree coefficient (GCM's reflected order).
/// 4 KiB per key; exposed (with [`gf_mul_8bit`]) for the
/// `crypto_kernels` microbench.
#[must_use]
pub fn build_htable(h: u128) -> Box<[u128; 256]> {
    let mut t = Box::new([0u128; 256]);
    let mut v = h;
    for bit in [0x80usize, 0x40, 0x20, 0x10, 8, 4, 2, 1] {
        t[bit] = v;
        v = mul_x(v);
    }
    // Composite entries combine the power-of-two entries; powers of two
    // reduce to themselves (the other operands index slot 0 = 0).
    for n in 0..256usize {
        t[n] = t[n & 0x80]
            ^ t[n & 0x40]
            ^ t[n & 0x20]
            ^ t[n & 0x10]
            ^ t[n & 8]
            ^ t[n & 4]
            ^ t[n & 2]
            ^ t[n & 1];
    }
    t
}

/// Reduction constants for shifting a reflected element right by eight
/// bits: `rem[b]` folds the eight shifted-out low bits `b` back in.
/// Because the reduction polynomial `0xe1 << 120` has no bits below
/// position 120, the eight single-bit steps never cascade, so the
/// combined constant is a plain XOR of shifted copies.
fn rem_8bit() -> [u128; 256] {
    const R: u128 = 0xe1 << 120;
    let mut t = [0u128; 256];
    for (n, entry) in t.iter_mut().enumerate() {
        let mut v = 0u128;
        for bit in 0..8 {
            if (n >> bit) & 1 == 1 {
                // The bit shifted out on step `bit` is reduced and then
                // shifted right by the remaining `7 - bit` steps.
                v ^= R >> (7 - bit);
            }
        }
        *entry = v;
    }
    t
}

/// The shared reduction table: depends only on the GCM polynomial, not
/// the key, so one copy serves all instances.
fn rem_table() -> &'static [u128; 256] {
    static REM: std::sync::OnceLock<[u128; 256]> = std::sync::OnceLock::new();
    REM.get_or_init(rem_8bit)
}

/// Multiplies the reflected element `x` by the table's key `H`,
/// 8 bits at a time (Shoup's method): 16 key-table lookups plus 15
/// reduction lookups per block — half the lookups of the 4-bit method.
#[must_use]
pub fn gf_mul_8bit(x: u128, htable: &[u128; 256]) -> u128 {
    let rem = rem_table();
    let mut z = 0u128;
    // Byte m holds the degree-(120 - 8m)..(127 - 8m) coefficient
    // group; Horner over groups runs from the lowest byte (highest
    // x-power) to the highest.
    for m in 0..16 {
        if m != 0 {
            z = (z >> 8) ^ rem[(z & 0xFF) as usize];
        }
        z ^= htable[((x >> (8 * m)) & 0xFF) as usize];
    }
    z
}

/// Computes `a·H² ⊕ b·H` given the Shoup tables for `H²` and `H` — one
/// GHASH fold over two blocks. The two Shoup walks are independent, so
/// interleaving them in one loop lets each step's table loads overlap
/// with the other walk's, roughly halving the per-block latency of the
/// serial one-multiply-per-block fold. Exposed (with [`gf_mul_8bit`]
/// and [`build_htable`]) for the `crypto_kernels` microbench.
#[must_use]
pub fn gf_mul_pair(a: u128, b: u128, htable2: &[u128; 256], htable: &[u128; 256]) -> u128 {
    let rem = rem_table();
    let mut za = 0u128;
    let mut zb = 0u128;
    for m in 0..16 {
        if m != 0 {
            za = (za >> 8) ^ rem[(za & 0xFF) as usize];
            zb = (zb >> 8) ^ rem[(zb & 0xFF) as usize];
        }
        za ^= htable2[((a >> (8 * m)) & 0xFF) as usize];
        zb ^= htable[((b >> (8 * m)) & 0xFF) as usize];
    }
    za ^ zb
}

/// Increments the last 32 bits of a counter block (mod 2^32).
fn inc32(mut block: [u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
    block[12..16].copy_from_slice(&ctr.wrapping_add(1).to_be_bytes());
    block
}

/// The pre-kernel GHASH implementations, retained as independent oracles
/// for tests and the `crypto_kernels` microbench (`reference` feature).
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::mul_x;

    /// Builds the Shoup 4-bit table (the previous production path):
    /// `t[n]` = (4-bit polynomial `n`) · `h`, bit 3 of `n` being the
    /// group's lowest-degree coefficient.
    #[must_use]
    pub fn build_htable_4bit(h: u128) -> [u128; 16] {
        let mut t = [0u128; 16];
        let mut v = h;
        for bit in [8usize, 4, 2, 1] {
            t[bit] = v;
            v = mul_x(v);
        }
        for n in 0..16usize {
            t[n] = t[n & 8] ^ t[n & 4] ^ t[n & 2] ^ t[n & 1];
        }
        t
    }

    /// Multiplies the reflected element `x` by the table's key, 4 bits
    /// at a time: 32 table lookups per block.
    #[must_use]
    pub fn gf_mul_4bit(x: u128, htable: &[u128; 16]) -> u128 {
        static REM: std::sync::OnceLock<[u128; 16]> = std::sync::OnceLock::new();
        let rem = REM.get_or_init(rem_4bit);
        let mut z = 0u128;
        for m in 0..32 {
            if m != 0 {
                z = (z >> 4) ^ rem[(z & 0xF) as usize];
            }
            z ^= htable[((x >> (4 * m)) & 0xF) as usize];
        }
        z
    }

    fn rem_4bit() -> [u128; 16] {
        const R: u128 = 0xe1 << 120;
        let mut t = [0u128; 16];
        for (n, entry) in t.iter_mut().enumerate() {
            let mut v = 0u128;
            for bit in 0..4 {
                if (n >> bit) & 1 == 1 {
                    v ^= R >> (3 - bit);
                }
            }
            *entry = v;
        }
        t
    }

    /// Multiplication in GF(2^128) with the GCM polynomial, bit-serial.
    ///
    /// Operands use GCM's reflected bit order: bit 0 of the block is the
    /// u128 MSB, and the reduction polynomial appears as `0xe1 << 120`.
    /// The ground-truth oracle both table methods are tested against.
    #[must_use]
    pub fn gf_mul_bit_serial(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{build_htable_4bit, gf_mul_4bit, gf_mul_bit_serial};
    use super::*;
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;

    fn run_case(key: &str, iv: &str, pt: &str, aad: &str, expect_ct: &str, expect_tag: &str) {
        let key: [u8; 16] = hex_decode(key).try_into().unwrap();
        let iv: [u8; 12] = hex_decode(iv).try_into().unwrap();
        let pt = hex_decode(pt);
        let aad = hex_decode(aad);
        let aead = AesGcm::new(key);
        let sealed = aead.seal(&iv, &aad, &pt);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(hex_encode(ct), expect_ct);
        assert_eq!(hex_encode(tag), expect_tag);
        assert_eq!(aead.open(&iv, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn gcm_spec_case1_empty() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    #[test]
    fn gcm_spec_case2_single_zero_block() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    #[test]
    fn gcm_spec_case3_four_blocks() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    #[test]
    fn gcm_spec_case4_with_aad_and_partial_block() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn table_multiplies_match_bit_serial() {
        // Pseudo-random operands from a tiny LCG (no rand dependency).
        let mut s = 0x243F_6A88_85A3_08D3u128;
        let mut next = || {
            s = s
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            s ^ (s >> 64)
        };
        for _ in 0..200 {
            let h = next();
            let x = next();
            let expected = gf_mul_bit_serial(x, h);
            assert_eq!(
                expected,
                gf_mul_8bit(x, &build_htable(h)),
                "8-bit h={h:#034x} x={x:#034x}"
            );
            assert_eq!(
                expected,
                gf_mul_4bit(x, &build_htable_4bit(h)),
                "4-bit h={h:#034x} x={x:#034x}"
            );
        }
        // Edge operands.
        let h = next();
        let table = build_htable(h);
        for x in [0u128, 1, 1 << 127, u128::MAX] {
            assert_eq!(gf_mul_bit_serial(x, h), gf_mul_8bit(x, &table));
        }
        assert_eq!(gf_mul_8bit(7, &build_htable(0)), 0);
    }

    #[test]
    fn seal_into_appends_without_disturbing_prefix() {
        let aead = AesGcm::new([0x21; 16]);
        let nonce = [3u8; 12];
        let mut out = b"prefix".to_vec();
        aead.seal_into(&nonce, b"aad", b"hello world", &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(out[6..], aead.seal(&nonce, b"aad", b"hello world"));
    }

    #[test]
    fn open_rejects_truncated_input() {
        let aead = AesGcm::new([0; 16]);
        assert_eq!(
            aead.open(&[0; 12], b"", &[0u8; 15]).unwrap_err(),
            CryptoError::InvalidLength
        );
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        let aead = AesGcm::new([7; 16]);
        let nonce = [9; 12];
        let sealed = aead.seal(&nonce, b"aad", b"some plaintext");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(aead.open(&nonce, b"aad", &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn open_rejects_wrong_nonce_aad_key() {
        let aead = AesGcm::new([7; 16]);
        let sealed = aead.seal(&[1; 12], b"aad", b"pt");
        assert!(aead.open(&[2; 12], b"aad", &sealed).is_err());
        assert!(aead.open(&[1; 12], b"aax", &sealed).is_err());
        assert!(AesGcm::new([8; 16])
            .open(&[1; 12], b"aad", &sealed)
            .is_err());
    }

    #[test]
    fn round_trip_various_lengths() {
        let aead = AesGcm::new([3; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = aead.seal(&nonce, b"", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(aead.open(&nonce, b"", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn empty_plaintext_still_authenticates_aad() {
        let aead = AesGcm::new([5; 16]);
        let sealed = aead.seal(&[0; 12], b"important aad", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert!(aead.open(&[0; 12], b"important aad", &sealed).is_ok());
        assert!(aead.open(&[0; 12], b"other aad", &sealed).is_err());
    }

    /// Reconstructs the pre-kernel seal (scalar AES CTR one block at a
    /// time + 4-bit GHASH) entirely from oracle parts.
    fn seal_old(key: [u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        use crate::aes::reference::ScalarAes128;
        let cipher = ScalarAes128::new(&key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; BLOCK_LEN]));
        let htable = build_htable_4bit(h);

        let mut j0 = [0u8; BLOCK_LEN];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK_LEN - 1] = 1;

        let mut out = plaintext.to_vec();
        let mut counter = inc32(j0);
        for chunk in out.chunks_mut(BLOCK_LEN) {
            let ks = cipher.encrypt(&counter);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            counter = inc32(counter);
        }

        let mut y = 0u128;
        for data in [aad, &out[..]] {
            for chunk in data.chunks(BLOCK_LEN) {
                let mut block = [0u8; BLOCK_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                y = gf_mul_4bit(y ^ u128::from_be_bytes(block), &htable);
            }
        }
        let mut len_block = [0u8; BLOCK_LEN];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((out.len() as u64) * 8).to_be_bytes());
        y = gf_mul_4bit(y ^ u128::from_be_bytes(len_block), &htable);

        let ekj0 = cipher.encrypt(&j0);
        let mut tag = y.to_be_bytes();
        for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
            *t ^= k;
        }
        out.extend_from_slice(&tag);
        out
    }

    proptest! {
        #[test]
        fn prop_8bit_ghash_matches_4bit_and_bit_serial(
            hb in any::<[u8; 16]>(),
            xb in any::<[u8; 16]>(),
        ) {
            let h = u128::from_be_bytes(hb);
            let x = u128::from_be_bytes(xb);
            let expected = gf_mul_bit_serial(x, h);
            prop_assert_eq!(expected, gf_mul_8bit(x, &build_htable(h)));
            prop_assert_eq!(expected, gf_mul_4bit(x, &build_htable_4bit(h)));
        }

        #[test]
        fn prop_pair_fold_matches_sequential_fold(
            hb in any::<[u8; 16]>(),
            yb in any::<[u8; 16]>(),
            b0b in any::<[u8; 16]>(),
            b1b in any::<[u8; 16]>(),
        ) {
            // The two-block fold (y ⊕ b₀)·H² ⊕ b₁·H must equal two
            // sequential one-block folds against the bit-serial oracle.
            let h = u128::from_be_bytes(hb);
            let y = u128::from_be_bytes(yb);
            let b0 = u128::from_be_bytes(b0b);
            let b1 = u128::from_be_bytes(b1b);
            let htable = build_htable(h);
            let htable2 = build_htable(gf_mul_bit_serial(h, h));
            let sequential = gf_mul_bit_serial(gf_mul_bit_serial(y ^ b0, h) ^ b1, h);
            prop_assert_eq!(gf_mul_pair(y ^ b0, b1, &htable2, &htable), sequential);
        }

        #[test]
        fn prop_kernel_seal_is_byte_identical_to_old_seal(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
            pt in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Wire-format pin: the multi-block kernels must produce the
            // exact bytes of the byte-serial implementation they replaced.
            let aead = AesGcm::new(key);
            prop_assert_eq!(aead.seal(&nonce, &aad, &pt), seal_old(key, &nonce, &aad, &pt));
        }

        #[test]
        fn prop_split_aad_seal_matches_seal_over_concatenated_aad(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            body in proptest::collection::vec(any::<u8>(), 0..600),
            header in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            // Wire-format pin: the split-AAD seal is exactly GCM over
            // AAD = aad ‖ body, whatever the lengths' block alignment
            // (the straddling block is assembled across the two parts).
            let aead = AesGcm::new(key);
            let expected = aead.seal(&nonce, &[&aad[..], &body[..]].concat(), &header);
            let mut buf = header.clone();
            let tag = aead.seal_split_in_place(&nonce, &aad, &body, &mut buf);
            buf.extend_from_slice(&tag);
            prop_assert_eq!(&buf, &expected);
            prop_assert_eq!(aead.open_split(&nonce, &aad, &body, &buf).unwrap(), header);
            // The concatenation is all that is authenticated: moving the
            // split point between the two AAD parts opens the same bytes.
            let cut = aad.len() / 2;
            let shifted = [&aad[cut..], &body[..]].concat();
            prop_assert!(aead.open_split(&nonce, &aad[..cut], &shifted, &buf).is_ok());
        }

        #[test]
        fn prop_split_open_rejects_any_flipped_bit(
            key in any::<[u8; 16]>(),
            body in proptest::collection::vec(any::<u8>(), 1..300),
            header in proptest::collection::vec(any::<u8>(), 1..40),
            pick in any::<usize>(),
            bit in 0u8..8,
        ) {
            let aead = AesGcm::new(key);
            let nonce = [4u8; 12];
            let mut sealed = header.clone();
            let tag = aead.seal_split_in_place(&nonce, b"aad", &body, &mut sealed);
            sealed.extend_from_slice(&tag);
            // One flipped bit anywhere in the encrypted header, the tag or
            // the authenticated body is refused.
            let at = pick % (sealed.len() + body.len());
            let (mut sealed_bad, mut body_bad) = (sealed.clone(), body.clone());
            if at < sealed.len() {
                sealed_bad[at] ^= 1 << bit;
            } else {
                body_bad[at - sealed.len()] ^= 1 << bit;
            }
            prop_assert_eq!(
                aead.open_split(&nonce, b"aad", &body_bad, &sealed_bad).unwrap_err(),
                CryptoError::AuthenticationFailed
            );
        }
    }
}
