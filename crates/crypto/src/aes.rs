//! AES-128 block cipher (FIPS 197), encryption direction only, as a
//! constant-time bitsliced multi-block kernel.
//!
//! GCM mode ([`crate::gcm`]) only requires the forward cipher, which is the
//! only consumer in this workspace; SGX sealing keys are 128-bit, matching
//! the paper's 128-bit Migration Sealing Key (Table I).
//!
//! # Kernel design
//!
//! The cipher state for **[`PARALLEL_BLOCKS`] blocks at once** is held
//! as eight bit-planes of `GROUPS` four-block groups each (`Bs` =
//! `[u64; GROUPS]`, one `u64` per group): within a group's plane, the
//! bit for row `r`, column `c` of block `j` lives at position
//! `16·r + 4·c + j`, and `q[0]` carries the least-significant bit of
//! every state byte, `q[7]` the most. SubBytes becomes the
//! Boyar–Peralta 113-gate boolean circuit evaluated once across all
//! the state bytes simultaneously; ShiftRows and MixColumns become
//! fixed mask/rotate networks on the planes. Every gate is an
//! element-wise op over the group limbs, which the backend lowers to
//! wide vector logic (one 256-bit op per gate at `GROUPS = 4` on any
//! AVX2 target — see `sub_bytes` for how the circuit is shaped to
//! make that happen); the extra groups ride the same gate count the
//! single-group kernel pays. There are no key- or data-dependent
//! table lookups or branches anywhere — the kernel is constant-time
//! by construction, unlike the byte-serial SBOX walk it replaces
//! (which survives as the test/`reference` oracle). This is the
//! classic `aes_ct64` construction from the constant-time software
//! AES literature, widened to a group vector.
//!
//! Validated against the FIPS 197 Appendix B/C and SP 800-38A vectors,
//! and pinned to the scalar SBOX oracle by property tests.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
/// Blocks processed per bitsliced kernel invocation.
pub const PARALLEL_BLOCKS: usize = 4 * GROUPS;
/// Four-block bitslice groups per kernel invocation.
const GROUPS: usize = 4;

/// One bit-plane across all groups: limb `g` is the plane for
/// four-block group `g`. The S-box circuit, ShiftRows, and MixColumns
/// operate on whole planes, so widening the kernel is purely a matter
/// of raising `GROUPS` — all gate code is element-wise over the
/// limbs, which the backend lowers to the widest vector logic the
/// build target offers.
#[derive(Clone, Copy, Default)]
struct Bs([u64; GROUPS]);

impl std::ops::BitXor for Bs {
    type Output = Bs;
    #[inline(always)]
    fn bitxor(mut self, rhs: Bs) -> Bs {
        for g in 0..GROUPS {
            self.0[g] ^= rhs.0[g];
        }
        self
    }
}

impl std::ops::BitXorAssign for Bs {
    #[inline(always)]
    fn bitxor_assign(&mut self, rhs: Bs) {
        *self = *self ^ rhs;
    }
}

impl std::ops::BitAnd for Bs {
    type Output = Bs;
    #[inline(always)]
    fn bitand(mut self, rhs: Bs) -> Bs {
        for g in 0..GROUPS {
            self.0[g] &= rhs.0[g];
        }
        self
    }
}

impl std::ops::BitOr for Bs {
    type Output = Bs;
    #[inline(always)]
    fn bitor(mut self, rhs: Bs) -> Bs {
        for g in 0..GROUPS {
            self.0[g] |= rhs.0[g];
        }
        self
    }
}

impl std::ops::Not for Bs {
    type Output = Bs;
    #[inline(always)]
    fn not(mut self) -> Bs {
        for g in 0..GROUPS {
            self.0[g] = !self.0[g];
        }
        self
    }
}

impl Bs {
    /// Masks every limb with the same constant.
    #[inline(always)]
    fn mask(mut self, m: u64) -> Bs {
        for g in 0..GROUPS {
            self.0[g] &= m;
        }
        self
    }

    /// Shifts every limb left.
    #[inline(always)]
    fn shl(mut self, n: u32) -> Bs {
        for g in 0..GROUPS {
            self.0[g] <<= n;
        }
        self
    }

    /// Shifts every limb right.
    #[inline(always)]
    fn shr(mut self, n: u32) -> Bs {
        for g in 0..GROUPS {
            self.0[g] >>= n;
        }
        self
    }

    /// Rotates every limb right.
    #[inline(always)]
    fn rotate_right(mut self, n: u32) -> Bs {
        for g in 0..GROUPS {
            self.0[g] = self.0[g].rotate_right(n);
        }
        self
    }
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Swaps the `s`-bit sub-lanes selected by `cl`/`ch` between two planes;
/// three passes of these build the 8×8 bit-matrix transpose in [`ortho`].
macro_rules! swapn {
    ($cl:expr, $s:expr, $x:expr, $y:expr) => {{
        let a = $x;
        let b = $y;
        $x = (a & $cl) | ((b & $cl) << $s);
        $y = ((a >> $s) & $cl) | (b & !$cl);
    }};
}

/// Self-inverse orthogonalization: converts 8 interleaved words (one bit
/// position per byte lane) into 8 bit-planes and back.
fn ortho(q: &mut [u64; 8]) {
    const CL2: u64 = 0x5555_5555_5555_5555;
    swapn!(CL2, 1, q[0], q[1]);
    swapn!(CL2, 1, q[2], q[3]);
    swapn!(CL2, 1, q[4], q[5]);
    swapn!(CL2, 1, q[6], q[7]);
    const CL4: u64 = 0x3333_3333_3333_3333;
    swapn!(CL4, 2, q[0], q[2]);
    swapn!(CL4, 2, q[1], q[3]);
    swapn!(CL4, 2, q[4], q[6]);
    swapn!(CL4, 2, q[5], q[7]);
    const CL8: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    swapn!(CL8, 4, q[0], q[4]);
    swapn!(CL8, 4, q[1], q[5]);
    swapn!(CL8, 4, q[2], q[6]);
    swapn!(CL8, 4, q[3], q[7]);
}

/// Spreads four little-endian state words so that byte `k` of each word
/// occupies bit positions `16k..16k+16` nibble-interleaved with the other
/// three words; block `j` of a 4-block group contributes `(q[j], q[4+j])`.
fn interleave_in(w: &[u32; 4]) -> (u64, u64) {
    let mut x0 = u64::from(w[0]);
    let mut x1 = u64::from(w[1]);
    let mut x2 = u64::from(w[2]);
    let mut x3 = u64::from(w[3]);
    x0 |= x0 << 16;
    x1 |= x1 << 16;
    x2 |= x2 << 16;
    x3 |= x3 << 16;
    x0 &= 0x0000_ffff_0000_ffff;
    x1 &= 0x0000_ffff_0000_ffff;
    x2 &= 0x0000_ffff_0000_ffff;
    x3 &= 0x0000_ffff_0000_ffff;
    x0 |= x0 << 8;
    x1 |= x1 << 8;
    x2 |= x2 << 8;
    x3 |= x3 << 8;
    x0 &= 0x00ff_00ff_00ff_00ff;
    x1 &= 0x00ff_00ff_00ff_00ff;
    x2 &= 0x00ff_00ff_00ff_00ff;
    x3 &= 0x00ff_00ff_00ff_00ff;
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// Inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let mut x0 = q0 & 0x00ff_00ff_00ff_00ff;
    let mut x1 = q1 & 0x00ff_00ff_00ff_00ff;
    let mut x2 = (q0 >> 8) & 0x00ff_00ff_00ff_00ff;
    let mut x3 = (q1 >> 8) & 0x00ff_00ff_00ff_00ff;
    x0 |= x0 >> 8;
    x1 |= x1 >> 8;
    x2 |= x2 >> 8;
    x3 |= x3 >> 8;
    x0 &= 0x0000_ffff_0000_ffff;
    x1 &= 0x0000_ffff_0000_ffff;
    x2 &= 0x0000_ffff_0000_ffff;
    x3 &= 0x0000_ffff_0000_ffff;
    [
        (x0 | (x0 >> 16)) as u32,
        (x1 | (x1 >> 16)) as u32,
        (x2 | (x2 >> 16)) as u32,
        (x3 | (x3 >> 16)) as u32,
    ]
}

/// The S-box circuit values crossing the top-linear → nonlinear →
/// bottom-linear section boundaries (`x7` rides along because both
/// later sections AND with it).
#[allow(clippy::similar_names)]
struct SboxMid {
    y1: Bs,
    y2: Bs,
    y3: Bs,
    y4: Bs,
    y5: Bs,
    y6: Bs,
    y7: Bs,
    y8: Bs,
    y9: Bs,
    y10: Bs,
    y11: Bs,
    y12: Bs,
    y13: Bs,
    y14: Bs,
    y15: Bs,
    y16: Bs,
    y17: Bs,
    y18: Bs,
    y19: Bs,
    y20: Bs,
    y21: Bs,
    x7: Bs,
}

/// The GF(2^4) inversion-tower outputs feeding the `z` multiplies.
#[allow(clippy::similar_names)]
struct SboxInv {
    t29: Bs,
    t33: Bs,
    t37: Bs,
    t40: Bs,
    t41: Bs,
    t42: Bs,
    t43: Bs,
    t44: Bs,
    t45: Bs,
}

/// SubBytes over all blocks: the Boyar–Peralta combinational circuit
/// for the AES S-box ("A new combinational logic minimization technique
/// with applications to cryptology", 2009), evaluated on bit-planes.
/// `q[7]` carries the most significant bit of every byte (circuit input
/// `x0`), `q[0]` the least (input `x7`).
///
/// The circuit runs as three sections with `#[inline(never)]` memory
/// boundaries between them. This is deliberate: as one flat ~130-gate
/// function the whole dataflow lives in scalar SSA and the backend's
/// SLP vectorizer gives up on rebuilding vectors across it, emitting
/// per-limb scalar code. Bounded sections re-seed vectorization from
/// the loads/stores at each boundary, so every gate lowers to one wide
/// vector op per plane; the handful of L1 round trips at the seams is
/// noise next to the ~2× throughput of vectorized gates.
fn sub_bytes(q: &mut [Bs; 8]) {
    let mid = sb_linear_top(q);
    let inv = sb_nonlinear(&mid);
    sb_linear_bottom(&mid, &inv, q);
}

/// Top linear transformation of the S-box circuit.
#[allow(clippy::similar_names)]
#[inline(never)]
fn sb_linear_top(q: &[Bs; 8]) -> SboxMid {
    let x0 = q[7];
    let x1 = q[6];
    let x2 = q[5];
    let x3 = q[4];
    let x4 = q[3];
    let x5 = q[2];
    let x6 = q[1];
    let x7 = q[0];

    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    SboxMid {
        y1,
        y2,
        y3,
        y4,
        y5,
        y6,
        y7,
        y8,
        y9,
        y10,
        y11,
        y12,
        y13,
        y14,
        y15,
        y16,
        y17,
        y18,
        y19,
        y20,
        y21,
        x7,
    }
}

/// Non-linear section of the S-box circuit (GF(2^4) inversion tower).
#[allow(clippy::similar_names)]
#[inline(never)]
fn sb_nonlinear(m: &SboxMid) -> SboxInv {
    let SboxMid {
        y1,
        y2,
        y3,
        y4,
        y5,
        y6,
        y7,
        y8,
        y9,
        y10,
        y11,
        y12,
        y13,
        y14,
        y15,
        y16,
        y17,
        y18,
        y19,
        y20,
        y21,
        x7,
    } = *m;

    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;

    SboxInv {
        t29,
        t33,
        t37,
        t40,
        t41,
        t42,
        t43,
        t44,
        t45,
    }
}

/// Output multiplies (`z`) and bottom linear transformation of the
/// S-box circuit; writes the substituted planes back into `q`.
#[allow(clippy::similar_names)]
#[inline(never)]
fn sb_linear_bottom(m: &SboxMid, inv: &SboxInv, q: &mut [Bs; 8]) {
    let SboxMid {
        y1,
        y2,
        y3,
        y4,
        y5,
        y6,
        y7,
        y8,
        y9,
        y10,
        y11,
        y12,
        y13,
        y14,
        y15,
        y16,
        y17,
        x7,
        ..
    } = *m;
    let SboxInv {
        t29,
        t33,
        t37,
        t40,
        t41,
        t42,
        t43,
        t44,
        t45,
    } = *inv;

    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    q[7] = s0;
    q[6] = s1;
    q[5] = s2;
    q[4] = s3;
    q[3] = s4;
    q[2] = s5;
    q[1] = s6;
    q[0] = s7;
}

/// ShiftRows on bit-planes: each 16-bit group of a plane limb holds one
/// state row across a four-block group (4 bits per column), so row `r`
/// rotates by `4·r` bit positions within its group.
fn shift_rows(q: &mut [Bs; 8]) {
    for x in q.iter_mut() {
        *x = x.mask(0x0000_0000_0000_ffff)
            | x.mask(0x0000_0000_fff0_0000).shr(4)
            | x.mask(0x0000_0000_000f_0000).shl(12)
            | x.mask(0x0000_ff00_0000_0000).shr(8)
            | x.mask(0x0000_00ff_0000_0000).shl(8)
            | x.mask(0xf000_0000_0000_0000).shr(12)
            | x.mask(0x0fff_0000_0000_0000).shl(4);
    }
}

/// MixColumns on bit-planes: with `ρ` = rotate-right-16 (move to next row)
/// this is `b = 2·(a ⊕ ρa) ⊕ ρa ⊕ ρ²(a ⊕ ρa)`, where the doubling feeds
/// plane `i`'s input into plane `i+1` with the AES polynomial folded into
/// planes 0, 1, 3 and 4.
#[allow(clippy::similar_names)]
fn mix_columns(q: &mut [Bs; 8]) {
    let q0 = q[0];
    let q1 = q[1];
    let q2 = q[2];
    let q3 = q[3];
    let q4 = q[4];
    let q5 = q[5];
    let q6 = q[6];
    let q7 = q[7];
    let r0 = q0.rotate_right(16);
    let r1 = q1.rotate_right(16);
    let r2 = q2.rotate_right(16);
    let r3 = q3.rotate_right(16);
    let r4 = q4.rotate_right(16);
    let r5 = q5.rotate_right(16);
    let r6 = q6.rotate_right(16);
    let r7 = q7.rotate_right(16);

    q[0] = q7 ^ r7 ^ r0 ^ (q0 ^ r0).rotate_right(32);
    q[1] = q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ (q1 ^ r1).rotate_right(32);
    q[2] = q1 ^ r1 ^ r2 ^ (q2 ^ r2).rotate_right(32);
    q[3] = q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ (q3 ^ r3).rotate_right(32);
    q[4] = q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ (q4 ^ r4).rotate_right(32);
    q[5] = q4 ^ r4 ^ r5 ^ (q5 ^ r5).rotate_right(32);
    q[6] = q5 ^ r5 ^ r6 ^ (q6 ^ r6).rotate_right(32);
    q[7] = q6 ^ r6 ^ r7 ^ (q7 ^ r7).rotate_right(32);
}

/// Constant-time SubWord for the key schedule: runs one 32-bit word
/// through the bitsliced S-box circuit (the other lanes are zero).
fn sub_word(x: u32) -> u32 {
    let mut g = [0u64; 8];
    g[0] = u64::from(x);
    ortho(&mut g);
    let mut q = [Bs::default(); 8];
    for (plane, lane) in q.iter_mut().zip(g.iter()) {
        plane.0[0] = *lane;
    }
    sub_bytes(&mut q);
    for (lane, plane) in g.iter_mut().zip(q.iter()) {
        *lane = plane.0[0];
    }
    ortho(&mut g);
    let out = g[0] as u32;
    crate::zeroize::zeroize_u64s(&mut g);
    for plane in &mut q {
        crate::zeroize::zeroize_u64s(&mut plane.0);
    }
    out
}

/// An AES-128 key schedule expanded into bitsliced form, ready to
/// encrypt [`PARALLEL_BLOCKS`] blocks per call.
///
/// # Example
///
/// ```
/// use mig_crypto::aes::Aes128;
///
/// let cipher = Aes128::new(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// cipher.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Bitsliced round keys: each round key replicated across every
    /// block lane, pre-orthogonalized so AddRoundKey is 8 plane XORs.
    round_keys: [[Bs; 8]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Round keys are secret; never print them.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        // The expanded key schedule is equivalent to the key itself.
        for rk in &mut self.round_keys {
            for plane in rk.iter_mut() {
                crate::zeroize::zeroize_u64s(&mut plane.0);
            }
        }
    }
}

impl Aes128 {
    /// Expands `key` into the 11 bitsliced round keys of AES-128.
    ///
    /// The word expansion is the standard FIPS 197 recurrence but with
    /// SubWord routed through the bitsliced S-box — no table lookups on
    /// key-derived indices.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [0u32; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord on little-endian-decoded words is a right rotation.
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / 4 - 1]);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[Bs([0u64; GROUPS]); 8]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            let words: [u32; 4] = w[4 * r..4 * r + 4].try_into().expect("4 words per round");
            let (lo, hi) = interleave_in(&words);
            // Replicate the round key into all four lanes of a group, then
            // move to the bit-plane domain once so the per-call AddRoundKey
            // is a plain XOR (ortho is a bit permutation, hence XOR-linear);
            // every group sees the same key, so broadcast the planes.
            let mut g = [lo, lo, lo, lo, hi, hi, hi, hi];
            ortho(&mut g);
            for (plane, lane) in rk.iter_mut().zip(g.iter()) {
                *plane = Bs([*lane; GROUPS]);
            }
            crate::zeroize::zeroize_u64s(&mut g);
        }
        crate::zeroize::zeroize_u32s(&mut w);
        Aes128 { round_keys }
    }

    /// Runs the 10 AES rounds on a bit-plane state covering all blocks.
    fn encrypt_planes(&self, q: &mut [Bs; 8]) {
        for (i, x) in q.iter_mut().enumerate() {
            *x ^= self.round_keys[0][i];
        }
        for round in 1..10 {
            sub_bytes(q);
            shift_rows(q);
            mix_columns(q);
            for (i, x) in q.iter_mut().enumerate() {
                *x ^= self.round_keys[round][i];
            }
        }
        sub_bytes(q);
        shift_rows(q);
        for (i, x) in q.iter_mut().enumerate() {
            *x ^= self.round_keys[10][i];
        }
    }

    /// Encrypts [`PARALLEL_BLOCKS`] 16-byte blocks in place with one
    /// pass through the bitsliced kernel — the hot entry point for CTR
    /// keystream generation. All lanes cost the same as one.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK_LEN]; PARALLEL_BLOCKS]) {
        // Orthogonalize each four-block group separately (ortho is a
        // 64-bit in-place permutation), then zip the groups into the
        // multi-limb planes the round functions run on.
        let mut groups = [[0u64; 8]; GROUPS];
        for (g, quad) in blocks.chunks_exact(4).enumerate() {
            for (j, block) in quad.iter().enumerate() {
                let mut words = [0u32; 4];
                for (c, chunk) in block.chunks_exact(4).enumerate() {
                    words[c] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                }
                let (lo, hi) = interleave_in(&words);
                groups[g][j] = lo;
                groups[g][4 + j] = hi;
            }
            ortho(&mut groups[g]);
        }
        let mut q: [Bs; 8] = std::array::from_fn(|i| Bs(std::array::from_fn(|g| groups[g][i])));
        self.encrypt_planes(&mut q);
        for (g, group) in groups.iter_mut().enumerate() {
            for (lane, plane) in group.iter_mut().zip(q.iter()) {
                *lane = plane.0[g];
            }
            ortho(group);
        }
        for (g, quad) in blocks.chunks_exact_mut(4).enumerate() {
            for (j, block) in quad.iter_mut().enumerate() {
                let words = interleave_out(groups[g][j], groups[g][4 + j]);
                for (c, word) in words.iter().enumerate() {
                    block[4 * c..4 * c + 4].copy_from_slice(&word.to_le_bytes());
                }
            }
        }
        for group in &mut groups {
            crate::zeroize::zeroize_u64s(group);
        }
        for plane in &mut q {
            crate::zeroize::zeroize_u64s(&mut plane.0);
        }
    }

    /// Encrypts one 16-byte block in place (runs the multi-block kernel
    /// with the other lanes idle; used for GCM's `H` and `E(K, J0)`
    /// one-offs).
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let mut group = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        group[0] = *block;
        self.encrypt_blocks(&mut group);
        *block = group[0];
        for b in &mut group {
            crate::zeroize::zeroize_bytes(b);
        }
    }

    /// Encrypts one block, returning the ciphertext (convenience).
    #[must_use]
    pub fn encrypt(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// The byte-serial SBOX-table AES the bitsliced kernel replaced, retained
/// verbatim as an independent oracle for tests and the `crypto_kernels`
/// microbench (`reference` feature). Not constant-time — never use it on
/// live keys outside tests/benches.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::{BLOCK_LEN, KEY_LEN, RCON};

    const SBOX: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
        0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
        0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
        0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
        0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
        0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
        0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
        0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
        0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
        0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
        0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
        0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
        0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
        0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
        0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
        0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
        0x16,
    ];

    /// The AES S-box, exposed for pinning the bitsliced SubWord.
    #[must_use]
    pub fn sbox(b: u8) -> u8 {
        SBOX[b as usize]
    }

    /// Multiplication by x in GF(2^8) with the AES polynomial.
    #[inline]
    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (((b >> 7) & 1) * 0x1b)
    }

    /// Scalar one-block-at-a-time AES-128 (SBOX table walk).
    pub struct ScalarAes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl ScalarAes128 {
        /// Expands `key` with the byte-oriented FIPS 197 schedule.
        #[must_use]
        pub fn new(key: &[u8; KEY_LEN]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for i in 0..4 {
                w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for t in &mut temp {
                        *t = SBOX[*t as usize];
                    }
                    temp[0] ^= RCON[i / 4 - 1];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            ScalarAes128 { round_keys }
        }

        /// Encrypts one 16-byte block in place.
        pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
            add_round_key(block, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(block);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, &self.round_keys[round]);
            }
            sub_bytes(block);
            shift_rows(block);
            add_round_key(block, &self.round_keys[10]);
        }

        /// Encrypts one block, returning the ciphertext (convenience).
        #[must_use]
        pub fn encrypt(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
            let mut out = *block;
            self.encrypt_block(&mut out);
            out
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    // State is column-major: state[4*c + r] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex_decode("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex_decode("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let cipher = Aes128::new(&key);
        assert_eq!(
            hex_encode(&cipher.encrypt(&pt)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex_decode("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex_decode("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        let cipher = Aes128::new(&key);
        assert_eq!(
            hex_encode(&cipher.encrypt(&pt)),
            "3925841d02dc09fbdc118597196a0b32"
        );
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors_via_encrypt_blocks() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt: four blocks under one key,
        // replicated into every four-block group — exactly one bitsliced
        // kernel invocation, all lanes live, and every group must agree
        // with the others and with the single-block path.
        let key: [u8; 16] = hex_decode("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let cipher = Aes128::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        let mut group = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        for (lane, (pt_hex, _)) in cases.iter().cycle().take(PARALLEL_BLOCKS).enumerate() {
            group[lane] = hex_decode(pt_hex).try_into().unwrap();
        }
        cipher.encrypt_blocks(&mut group);
        for (lane, (pt_hex, ct_hex)) in cases.iter().cycle().take(PARALLEL_BLOCKS).enumerate() {
            assert_eq!(hex_encode(&group[lane]), *ct_hex, "lane {lane}");
            // Single-block path must agree with its lane.
            let pt: [u8; 16] = hex_decode(pt_hex).try_into().unwrap();
            assert_eq!(hex_encode(&cipher.encrypt(&pt)), *ct_hex);
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let pt = [0x42u8; 16];
        let c1 = Aes128::new(&[0u8; 16]).encrypt(&pt);
        let c2 = Aes128::new(&[1u8; 16]).encrypt(&pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn encrypt_block_matches_encrypt() {
        let cipher = Aes128::new(b"0123456789abcdef");
        let pt = *b"fedcba9876543210";
        let mut in_place = pt;
        cipher.encrypt_block(&mut in_place);
        assert_eq!(in_place, cipher.encrypt(&pt));
    }

    #[test]
    fn ortho_is_an_involution() {
        let mut q = [0u64; 8];
        for (i, x) in q.iter_mut().enumerate() {
            *x = 0x0123_4567_89ab_cdefu64.wrapping_mul(i as u64 + 1);
        }
        let orig = q;
        ortho(&mut q);
        assert_ne!(q, orig);
        ortho(&mut q);
        assert_eq!(q, orig);
    }

    #[test]
    fn bitsliced_sub_word_matches_sbox_table_exhaustively() {
        // Every byte value in every byte position of the word.
        for b in 0..=255u8 {
            for pos in 0..4 {
                let x = u32::from(b) << (8 * pos);
                let expected = u32::from(reference::sbox(b)) << (8 * pos)
                    | (u32::from(reference::sbox(0)) * 0x0101_0101) & !(0xffu32 << (8 * pos));
                assert_eq!(sub_word(x), expected, "byte {b:#x} pos {pos}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bitsliced_matches_scalar_oracle(
            key in any::<[u8; KEY_LEN]>(),
            data in any::<[u8; BLOCK_LEN * PARALLEL_BLOCKS]>(),
        ) {
            let bitsliced = Aes128::new(&key);
            let scalar = reference::ScalarAes128::new(&key);
            let mut blocks = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
            for (lane, chunk) in data.chunks_exact(BLOCK_LEN).enumerate() {
                blocks[lane].copy_from_slice(chunk);
            }
            let mut group = blocks;
            bitsliced.encrypt_blocks(&mut group);
            for lane in 0..PARALLEL_BLOCKS {
                prop_assert_eq!(group[lane], scalar.encrypt(&blocks[lane]));
            }
        }

        #[test]
        fn prop_interleave_round_trips(q0 in any::<u64>(), q1 in any::<u64>()) {
            let words = interleave_out(q0, q1);
            let (lo, hi) = interleave_in(&words);
            prop_assert_eq!((lo, hi), (q0, q1));
        }
    }
}
