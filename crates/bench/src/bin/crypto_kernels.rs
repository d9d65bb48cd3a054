//! Per-primitive **crypto kernel** microbench: MB/s for the sealed-data
//! hot path's software kernels, old arm (the byte-serial implementations
//! retained under mig-crypto's `reference` feature) against the new
//! multi-block kernels shipping in production.
//!
//! ```sh
//! cargo run -p mig-bench --release --bin crypto_kernels
//! CRYPTO_KERNELS_MIB=16 cargo run -p mig-bench --release --bin crypto_kernels
//! ```
//!
//! Measured pairs:
//! - **aes_ctr**: CTR keystream XOR — scalar SBOX walk, one block per
//!   call, vs the bitsliced kernel at `PARALLEL_BLOCKS` blocks per call
//! - **ghash**: GHASH block absorption — Shoup 4-bit tables (32 lookups
//!   per block) vs 8-bit tables (16 lookups) folded two blocks at a
//!   time through the H² pair walk
//! - **sha256**: whole-buffer digest — rolled 64-round compress vs the
//!   unrolled rolling-schedule bulk kernel
//! - **seal / open**: end-to-end AES-128-GCM through `AesGcm` (new
//!   kernels) vs the same construction assembled from the reference
//!   primitives (the pre-kernel production path)
//! - **cell**: one ME↔ME stream cell per 256 KiB chunk, sealed then
//!   opened — the whole chunk frame encrypted (old) vs a 25-byte
//!   encrypted header with the chunk authenticated as AAD and never
//!   encrypted or copied (new, `AesGcm::seal_split_in_place` /
//!   `open_split`); MB/s of chunk bytes through both ends
//!
//! Results land in `BENCH_crypto.json` (override with
//! `CRYPTO_KERNELS_JSON_PATH`); CI uploads the file as an artifact so
//! kernel-level regressions are visible per commit without re-running
//! the full migration throughput bench.

use mig_crypto::aes::{reference::ScalarAes128, Aes128, BLOCK_LEN, PARALLEL_BLOCKS};
use mig_crypto::gcm::{self, reference as ghash_ref, AesGcm};
use mig_crypto::sha256::{reference::sha256_rolled, sha256};
use std::time::Instant;

/// One measured old-vs-new pair.
struct Pair {
    kernel: &'static str,
    old_mb_per_s: f64,
    new_mb_per_s: f64,
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / secs
}

/// Times `f` over `data`-sized work, returning MB/s. A single pass is
/// enough: every arm runs multiple seconds' worth of block operations
/// at the sizes used here, so timer noise is far below the gaps being
/// reported.
fn timed(bytes: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    mb_per_s(bytes, start.elapsed().as_secs_f64())
}

fn bench_aes_ctr(data: &mut [u8]) -> Pair {
    let key = [0x42u8; 16];
    let bytes = data.len();

    // Old arm: scalar cipher, one keystream block per call.
    let scalar = ScalarAes128::new(&key);
    let old = timed(bytes, || {
        let mut counter = [0u8; BLOCK_LEN];
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = scalar.encrypt(&counter);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            let c = u32::from_be_bytes(counter[12..].try_into().expect("4 bytes"));
            counter[12..].copy_from_slice(&c.wrapping_add(1).to_be_bytes());
        }
    });

    // New arm: bitsliced kernel, PARALLEL_BLOCKS keystream blocks per call.
    let bitsliced = Aes128::new(&key);
    let new = timed(bytes, || {
        let mut ctr = 0u32;
        let mut ks = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        for chunk in data.chunks_mut(BLOCK_LEN * PARALLEL_BLOCKS) {
            for (j, block) in ks.iter_mut().enumerate() {
                *block = [0u8; BLOCK_LEN];
                block[12..].copy_from_slice(&ctr.wrapping_add(j as u32).to_be_bytes());
            }
            bitsliced.encrypt_blocks(&mut ks);
            for (sub, kblock) in chunk.chunks_mut(BLOCK_LEN).zip(ks.iter()) {
                for (d, k) in sub.iter_mut().zip(kblock.iter()) {
                    *d ^= k;
                }
            }
            ctr = ctr.wrapping_add(PARALLEL_BLOCKS as u32);
        }
    });

    Pair {
        kernel: "aes_ctr",
        old_mb_per_s: old,
        new_mb_per_s: new,
    }
}

fn bench_ghash(data: &[u8]) -> Pair {
    let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2eu128;
    let bytes = data.len();

    let table4 = ghash_ref::build_htable_4bit(h);
    let old = timed(bytes, || {
        let mut y = 0u128;
        for chunk in data.chunks_exact(BLOCK_LEN) {
            let block = u128::from_be_bytes(chunk.try_into().expect("exact block"));
            y = ghash_ref::gf_mul_4bit(y ^ block, &table4);
        }
        std::hint::black_box(y);
    });

    let table8 = gcm::build_htable(h);
    let table8_sq = gcm::build_htable(gcm::gf_mul_8bit(h, &table8));
    let new = timed(bytes, || {
        // The production fold: two blocks per step via the H² pair walk,
        // single-block 8-bit multiply for any odd tail block.
        let mut y = 0u128;
        let mut pairs = data.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut pairs {
            let b0 = u128::from_be_bytes(pair[..BLOCK_LEN].try_into().expect("exact block"));
            let b1 = u128::from_be_bytes(pair[BLOCK_LEN..].try_into().expect("exact block"));
            y = gcm::gf_mul_pair(y ^ b0, b1, &table8_sq, &table8);
        }
        for chunk in pairs.remainder().chunks_exact(BLOCK_LEN) {
            let block = u128::from_be_bytes(chunk.try_into().expect("exact block"));
            y = gcm::gf_mul_8bit(y ^ block, &table8);
        }
        std::hint::black_box(y);
    });

    Pair {
        kernel: "ghash",
        old_mb_per_s: old,
        new_mb_per_s: new,
    }
}

fn bench_sha256(data: &[u8]) -> Pair {
    let bytes = data.len();
    let old = timed(bytes, || {
        std::hint::black_box(sha256_rolled(data));
    });
    let new = timed(bytes, || {
        std::hint::black_box(sha256(data));
    });
    Pair {
        kernel: "sha256",
        old_mb_per_s: old,
        new_mb_per_s: new,
    }
}

/// Seal with the pre-kernel construction: scalar AES CTR one block at a
/// time + 4-bit GHASH, assembled from the reference oracles — the exact
/// bytes and work profile of the previous production `AesGcm::seal`.
fn seal_reference(key: [u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let cipher = ScalarAes128::new(&key);
    let h = u128::from_be_bytes(cipher.encrypt(&[0u8; BLOCK_LEN]));
    let htable = ghash_ref::build_htable_4bit(h);

    let mut j0 = [0u8; BLOCK_LEN];
    j0[..12].copy_from_slice(nonce);
    j0[BLOCK_LEN - 1] = 1;

    let inc32 = |block: &mut [u8; BLOCK_LEN]| {
        let c = u32::from_be_bytes(block[12..].try_into().expect("4 bytes"));
        block[12..].copy_from_slice(&c.wrapping_add(1).to_be_bytes());
    };

    let mut out = plaintext.to_vec();
    let mut counter = j0;
    inc32(&mut counter);
    for chunk in out.chunks_mut(BLOCK_LEN) {
        let ks = cipher.encrypt(&counter);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        inc32(&mut counter);
    }

    let mut y = 0u128;
    for data in [aad, &out[..]] {
        for chunk in data.chunks(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..chunk.len()].copy_from_slice(chunk);
            y = ghash_ref::gf_mul_4bit(y ^ u128::from_be_bytes(block), &htable);
        }
    }
    let mut len_block = [0u8; BLOCK_LEN];
    len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((out.len() as u64) * 8).to_be_bytes());
    y = ghash_ref::gf_mul_4bit(y ^ u128::from_be_bytes(len_block), &htable);

    let ekj0 = cipher.encrypt(&j0);
    let mut tag = y.to_be_bytes();
    for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
        *t ^= k;
    }
    out.extend_from_slice(&tag);
    out
}

fn bench_seal_open(data: &[u8]) -> (Pair, Pair) {
    let key = [0x21u8; 16];
    let nonce = [7u8; 12];
    let aad = b"bench.aad";
    let bytes = data.len();

    let old_seal = timed(bytes, || {
        std::hint::black_box(seal_reference(key, &nonce, aad, data));
    });

    let aead = AesGcm::new(key);
    let mut sealed = Vec::new();
    let new_seal = timed(bytes, || {
        aead.seal_into(&nonce, aad, data, &mut sealed);
    });

    // Open = tag recompute + CTR: same primitive mix as seal, so the
    // reference arm reuses the seal construction's cost profile.
    let old_open = timed(bytes, || {
        std::hint::black_box(seal_reference(key, &nonce, aad, data));
    });
    let new_open = timed(bytes, || {
        std::hint::black_box(aead.open(&nonce, aad, &sealed).expect("tag verifies"));
    });

    (
        Pair {
            kernel: "seal",
            old_mb_per_s: old_seal,
            new_mb_per_s: new_seal,
        },
        Pair {
            kernel: "open",
            old_mb_per_s: old_open,
            new_mb_per_s: new_open,
        },
    )
}

/// Chunk size of the `cell` row: the default `TransferConfig` chunk.
const CELL_LEN: usize = 256 * 1024;

fn bench_cell(data: &[u8]) -> Pair {
    let aead = AesGcm::new([0x22u8; 16]);
    let nonce = [9u8; 12];
    let aad = b"sgx-migrate.channel";
    let header = [0x5Au8; 25];
    let bytes = data.len() - data.len() % CELL_LEN;
    let cells = || data[..bytes].chunks_exact(CELL_LEN);

    // Old arm: the whole frame — header and chunk — sealed, then opened.
    let mut frame = Vec::with_capacity(header.len() + CELL_LEN);
    let mut sealed = Vec::with_capacity(header.len() + CELL_LEN + gcm::TAG_LEN);
    let old = timed(bytes, || {
        for chunk in cells() {
            frame.clear();
            frame.extend_from_slice(&header);
            frame.extend_from_slice(chunk);
            sealed.clear();
            aead.seal_into(&nonce, aad, &frame, &mut sealed);
            std::hint::black_box(aead.open(&nonce, aad, &sealed).expect("tag verifies"));
        }
    });

    // New arm: only the header is encrypted; the chunk is the AAD's body.
    let new = timed(bytes, || {
        for chunk in cells() {
            let mut head = header;
            let tag = aead.seal_split_in_place(&nonce, aad, chunk, &mut head);
            let mut sealed_head = [0u8; 25 + gcm::TAG_LEN];
            sealed_head[..25].copy_from_slice(&head);
            sealed_head[25..].copy_from_slice(&tag);
            std::hint::black_box(
                aead.open_split(&nonce, aad, chunk, &sealed_head)
                    .expect("tag verifies"),
            );
        }
    });
    Pair {
        kernel: "cell",
        old_mb_per_s: old,
        new_mb_per_s: new,
    }
}

fn main() {
    let mib: usize = std::env::var("CRYPTO_KERNELS_MIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let mut data = vec![0u8; mib * 1024 * 1024];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }

    println!("=== Software crypto kernels ({mib} MiB per arm) ===\n");
    let mut pairs = vec![
        bench_aes_ctr(&mut data.clone()),
        bench_ghash(&data),
        bench_sha256(&data),
    ];
    let (seal, open) = bench_seal_open(&data);
    pairs.push(seal);
    pairs.push(open);
    pairs.push(bench_cell(&data));

    for p in &pairs {
        println!(
            "{:<8} {:>8.2} -> {:>8.2} MB/s  ({:.1}x)",
            p.kernel,
            p.old_mb_per_s,
            p.new_mb_per_s,
            p.new_mb_per_s / p.old_mb_per_s
        );
    }

    let arms: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"old_mb_per_s\": {:.2}, ",
                    "\"new_mb_per_s\": {:.2}, \"speedup\": {:.2}}}"
                ),
                p.kernel,
                p.old_mb_per_s,
                p.new_mb_per_s,
                p.new_mb_per_s / p.old_mb_per_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"crypto_kernels\",\n  \"mib\": {},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        mib,
        arms.join(",\n")
    );
    let path = std::env::var("CRYPTO_KERNELS_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_crypto.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
