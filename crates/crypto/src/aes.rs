//! AES block cipher (FIPS-197), supporting 128- and 256-bit keys.
//!
//! SCBR encrypts publication headers and subscriptions with AES in CTR mode
//! (see [`crate::ctr`]); this module provides the underlying block
//! permutation, forward direction only (CTR never runs the inverse).
//!
//! # Bitsliced, table-free core
//!
//! The cipher encrypts four blocks per call over eight `u64` words, one
//! per bit position: bit `4·j + b` of word `i` is bit `i` of byte `j` of
//! block `b`, where `j = 4·column + row` is the FIPS-197 column-major byte
//! index. So each 16-bit lane of a word is one column of all four blocks,
//! and within a lane each nibble is one row. The round layers follow
//! from that layout:
//!
//! * SubBytes is the Boyar–Peralta circuit (113 XOR/AND/XNOR gates) run
//!   on the eight words at once;
//! * ShiftRows rotates each row's nibbles across lanes: two masked
//!   64-bit rotations per word (rows 2–3 by two lanes, then rows 1 and 3
//!   by one more);
//! * MixColumns rotates rows within each 16-bit lane and multiplies by
//!   `x` with a bitsliced `xtime` (a shuffle of words plus three XORs);
//! * AddRoundKey XORs round keys that were bitsliced once, at key
//!   expansion, with the key replicated into all four block slots.
//!
//! The key schedule's SubWord runs through the same circuit. No load
//! anywhere, in the rounds or in the schedule, is indexed by key or data,
//! and no branch depends on either.
//!
//! An [`Aes`] holds the expanded, bitsliced schedule in fixed arrays and
//! costs a key expansion to build, so the code that encrypts repeatedly
//! under one key builds it once: [`crate::ctr::AesCtr`] (and through it
//! a router's cached header cipher and the producer's `SK` cipher) and
//! [`crate::authenc::SealedBox`].

use crate::error::CryptoError;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Blocks the bitsliced core encrypts per call.
pub(crate) const PARALLEL_BLOCKS: usize = 4;

/// Bytes in and out of one call of the bitsliced core.
pub(crate) const PARALLEL_LEN: usize = PARALLEL_BLOCKS * BLOCK_LEN;

/// AES-256's round count, the most any key size needs.
const MAX_ROUNDS: usize = 14;

/// Eight bit planes of four blocks; see the module docs for the layout.
type State = [u64; 8];

/// Round constants for key expansion (AES-128 uses all ten).
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Row `r` of every column: nibble `r` of each 16-bit lane.
const ROW0: u64 = 0x000f_000f_000f_000f;
const ROW1: u64 = ROW0 << 4;
const ROW2: u64 = ROW0 << 8;
const ROW3: u64 = ROW0 << 12;

/// An expanded AES key for block encryption.
///
/// ```
/// use scbr_crypto::aes::Aes;
///
/// let aes = Aes::new(&[0u8; 16])?;
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_eq!(block[..4], [0x66, 0xe9, 0x4b, 0xd4]);
/// # Ok::<(), scbr_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Bitsliced round keys, each replicated across the four block slots;
    /// entries past `rounds` are unused zeros.
    round_keys: [State; MAX_ROUNDS + 1],
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expands `key` (16 or 32 bytes) into round keys.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for any other key size.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8, 14),
            _ => return Err(CryptoError::InvalidLength { context: "aes key" }),
        };
        let total_words = 4 * (rounds + 1);
        // Key schedule words, little-endian: byte 0 of a word is its low byte.
        let mut w = [0u32; 4 * (MAX_ROUNDS + 1)];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord moves byte 1 to byte 0: a right rotation here.
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / nk - 1]);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        // Bitslice four round keys per pack, one per block slot, then copy
        // each slot's bits into all four (bits `4·j + b` → `4·j .. 4·j + 3`).
        let mut round_keys = [[0u64; 8]; MAX_ROUNDS + 1];
        for (rks, words) in round_keys.chunks_mut(4).zip(w[..total_words].chunks(16)) {
            let mut four = [0u8; PARALLEL_LEN];
            for (slot, word) in four.chunks_exact_mut(4).zip(words) {
                slot.copy_from_slice(&word.to_le_bytes());
            }
            let s = pack(&four);
            for (b, rk) in rks.iter_mut().enumerate() {
                *rk = s.map(|plane| ((plane >> b) & 0x1111_1111_1111_1111) * 0xf);
            }
        }
        Ok(Aes { round_keys, rounds })
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypts one 16-byte block in place (through the four-block core,
    /// so a caller with several blocks should batch them, as CTR does).
    // lint: allow(SL08, aes128_fips197_example and aes256_fips197_example in tests/kat.rs)
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let mut four = [0u8; PARALLEL_LEN];
        four[..BLOCK_LEN].copy_from_slice(block);
        block.copy_from_slice(&self.encrypt4(&four)[..BLOCK_LEN]);
    }

    /// Encrypts the four consecutive 16-byte blocks of `blocks`.
    pub(crate) fn encrypt4(&self, blocks: &[u8; PARALLEL_LEN]) -> [u8; PARALLEL_LEN] {
        let mut s = pack(blocks);
        add_round_key(&mut s, &self.round_keys[0]);
        for rk in &self.round_keys[1..self.rounds] {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, rk);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[self.rounds]);
        unpack(&s)
    }
}

/// SubWord of the key schedule, through the bitsliced S-box: bit `i` of
/// byte `k` sits at bit `8·k` of word `i`, and the circuit is bitwise.
fn sub_word(w: u32) -> u32 {
    let mut s: State = std::array::from_fn(|i| u64::from((w >> i) & 0x0101_0101));
    sub_bytes(&mut s);
    s.iter().enumerate().fold(0u32, |acc, (i, &plane)| {
        // The circuit's XNORs set the unused bits: mask them off.
        acc | ((plane as u32 & 0x0101_0101) << i)
    })
}

/// One SWAPMOVE: exchanges the bits of word `i` selected by `mask << n`
/// with the bits of word `j` selected by `mask`.
#[inline(always)]
fn swap_move(s: &mut State, i: usize, j: usize, mask: u64, n: u32) {
    let t = ((s[i] >> n) ^ s[j]) & mask;
    s[j] ^= t;
    s[i] ^= t << n;
}

/// Transposes the 8×8 bit matrix in each byte lane across the eight
/// words: bit `k` of byte `m` of word `i` trades places with bit `i` of
/// byte `m` of word `k`. Its own inverse.
#[inline(always)]
fn transpose(s: &mut State) {
    for i in [0, 2, 4, 6] {
        swap_move(s, i, i + 1, 0x5555_5555_5555_5555, 1);
    }
    for i in [0, 1, 4, 5] {
        swap_move(s, i, i + 2, 0x3333_3333_3333_3333, 2);
    }
    for i in 0..4 {
        swap_move(s, i, i + 4, 0x0f0f_0f0f_0f0f_0f0f, 4);
    }
}

/// The even-indexed bytes of `x`, packed into its low half.
#[inline(always)]
fn even_bytes(x: u64) -> u64 {
    let x = x & 0x00ff_00ff_00ff_00ff;
    let x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0x0000_0000_ffff_ffff
}

/// Inverse of [`even_bytes`]: spreads the low four bytes of `x` to the
/// even byte positions.
#[inline(always)]
fn spread_bytes(x: u64) -> u64 {
    let x = x & 0x0000_0000_ffff_ffff;
    let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    (x | (x << 8)) & 0x00ff_00ff_00ff_00ff
}

/// Four blocks into bit planes. Word `4·h + b` first collects the bytes
/// `j ≡ h (mod 2)` of block `b`, in order; the transpose then lands bit
/// `i` of byte `j` of block `b` at bit `8·(j/2) + 4·h + b = 4·j + b` of
/// word `i`.
#[inline(always)]
fn pack(blocks: &[u8; PARALLEL_LEN]) -> State {
    let mut s = [0u64; 8];
    for (b, block) in blocks.chunks_exact(BLOCK_LEN).enumerate() {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
        s[b] = even_bytes(lo) | (even_bytes(hi) << 32);
        s[4 + b] = even_bytes(lo >> 8) | (even_bytes(hi >> 8) << 32);
    }
    transpose(&mut s);
    s
}

/// Inverse of [`pack`].
#[inline(always)]
fn unpack(s: &State) -> [u8; PARALLEL_LEN] {
    let mut t = *s;
    transpose(&mut t);
    let mut out = [0u8; PARALLEL_LEN];
    for (b, block) in out.chunks_exact_mut(BLOCK_LEN).enumerate() {
        let (even, odd) = (t[b], t[4 + b]);
        let lo = spread_bytes(even) | (spread_bytes(odd) << 8);
        let hi = spread_bytes(even >> 32) | (spread_bytes(odd >> 32) << 8);
        block[..8].copy_from_slice(&lo.to_le_bytes());
        block[8..].copy_from_slice(&hi.to_le_bytes());
    }
    out
}

#[inline(always)]
fn add_round_key(s: &mut State, rk: &State) {
    for (x, k) in s.iter_mut().zip(rk) {
        *x ^= k;
    }
}

/// The AES S-box on every byte at once: the Boyar–Peralta circuit ("A
/// new combinational logic minimization technique with applications to
/// cryptology", 2009). `x0`/`s0` are the most significant bit.
#[inline(always)]
fn sub_bytes(q: &mut State) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
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

    // Non-linear section: inversion in GF(2^4)^2.
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

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// Row `r` of each column takes column `c + r`'s byte: row `r`'s nibbles
/// rotate down by `r` lanes, done as rows 2–3 by two lanes, then rows 1
/// and 3 by one more.
#[inline(always)]
fn shift_rows(s: &mut State) {
    for x in s.iter_mut() {
        let y = blend(*x, x.rotate_right(32), ROW2 | ROW3);
        *x = blend(y, y.rotate_right(16), ROW1 | ROW3);
    }
}

/// The bits of `b` where `mask` is set, of `a` elsewhere.
#[inline(always)]
fn blend(a: u64, b: u64, mask: u64) -> u64 {
    a ^ ((a ^ b) & mask)
}

/// Within each 16-bit lane (column), row `r` takes row `r + 1`'s nibble.
#[inline(always)]
fn rotate_rows_1(x: u64) -> u64 {
    ((x >> 4) & 0x0fff_0fff_0fff_0fff) | ((x << 12) & 0xf000_f000_f000_f000)
}

/// Within each 16-bit lane (column), row `r` takes row `r + 2`'s nibble.
#[inline(always)]
fn rotate_rows_2(x: u64) -> u64 {
    ((x >> 8) & 0x00ff_00ff_00ff_00ff) | ((x << 8) & 0xff00_ff00_ff00_ff00)
}

/// `a'[r] = 2·a[r] ⊕ 3·a[r+1] ⊕ a[r+2] ⊕ a[r+3]`, computed as
/// `xtime(t[r]) ⊕ a[r+1] ⊕ t[r+2]` with `t[r] = a[r] ⊕ a[r+1]`.
#[inline(always)]
fn mix_columns(s: &mut State) {
    let r: State = s.map(rotate_rows_1);
    let t: State = std::array::from_fn(|i| s[i] ^ r[i]);
    // xtime on bit planes: shift up one plane, fold bit 7 back in as 0x1b.
    let xt = [t[7], t[0] ^ t[7], t[1], t[2] ^ t[7], t[3] ^ t[7], t[4], t[5], t[6]];
    for (i, x) in s.iter_mut().enumerate() {
        *x = xt[i] ^ r[i] ^ rotate_rows_2(t[i]);
    }
}

/// The byte-oriented FIPS-197 forward cipher this module replaced, kept
/// verbatim as the oracle for the bitsliced core.
#[cfg(test)]
pub(crate) mod reference {
    use crate::error::CryptoError;

    /// AES S-box.
    #[rustfmt::skip]
    pub(crate) const SBOX: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
        0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
        0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
        0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
        0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
        0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
        0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
        0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
        0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
        0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
        0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
        0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
        0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
        0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
        0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
    ];

    /// Round constants for key expansion.
    const RCON: [u8; 15] =
        [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a];

    /// AES block size in bytes.
    pub const BLOCK_LEN: usize = 16;

    /// Multiplication by x in GF(2^8) with the AES polynomial.
    #[inline]
    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (((b >> 7) & 1) * 0x1b)
    }

    /// An expanded AES key.
    #[derive(Clone)]
    pub struct Aes {
        pub(crate) round_keys: Vec<[u8; 16]>,
        rounds: usize,
    }

    impl Aes {
        /// Expands `key` (16 or 32 bytes) into round keys.
        pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
            let (nk, rounds) = match key.len() {
                16 => (4usize, 10usize),
                32 => (8, 14),
                _ => return Err(CryptoError::InvalidLength { context: "aes key" }),
            };
            let total_words = 4 * (rounds + 1);
            let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
            for i in 0..nk {
                w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
            }
            for i in nk..total_words {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp.rotate_left(1);
                    for b in temp.iter_mut() {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / nk - 1];
                } else if nk > 6 && i % nk == 4 {
                    for b in temp.iter_mut() {
                        *b = SBOX[*b as usize];
                    }
                }
                let prev = w[i - nk];
                w.push([
                    prev[0] ^ temp[0],
                    prev[1] ^ temp[1],
                    prev[2] ^ temp[2],
                    prev[3] ^ temp[3],
                ]);
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| {
                    let mut rk = [0u8; 16];
                    for (j, word) in c.iter().enumerate() {
                        rk[4 * j..4 * j + 4].copy_from_slice(word);
                    }
                    rk
                })
                .collect();
            Ok(Aes { round_keys, rounds })
        }

        /// Encrypts one 16-byte block in place.
        pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
            add_round_key(block, &self.round_keys[0]);
            for round in 1..self.rounds {
                sub_bytes(block);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, &self.round_keys[round]);
            }
            sub_bytes(block);
            shift_rows(block);
            add_round_key(block, &self.round_keys[self.rounds]);
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[4*c + r]` is row `r`, column `c`.
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
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
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    // FIPS-197 Appendix B: AES-128.
    #[test]
    fn fips197_aes128() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3925841d02dc09fbdc118597196a0b32"));
    }

    // FIPS-197 Appendix C.1: AES-128 with sequential key/plaintext.
    #[test]
    fn fips197_appendix_c1() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // FIPS-197 Appendix C.3: AES-256.
    #[test]
    fn fips197_appendix_c3_aes256() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.rounds(), 14);
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn rejects_bad_key_sizes() {
        for n in [0usize, 8, 15, 17, 24, 31, 33] {
            assert!(
                Aes::new(&vec![0u8; n]).is_err(),
                "key length {n} should be rejected (only 16/32 supported)"
            );
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let blocks: [u8; PARALLEL_LEN] = std::array::from_fn(|i| (i * 37 + 5) as u8);
        let s = pack(&blocks);
        assert_eq!(unpack(&s), blocks);
        // The documented layout: bit `4·j + b` of word `i` is bit `i` of
        // byte `j` of block `b`.
        for (b, block) in blocks.chunks_exact(BLOCK_LEN).enumerate() {
            for (j, byte) in block.iter().enumerate() {
                for (i, plane) in s.iter().enumerate() {
                    assert_eq!((plane >> (4 * j + b)) & 1, u64::from((byte >> i) & 1));
                }
            }
        }
    }

    /// The circuit is the S-box on every one of the 256 inputs, both in
    /// the four-block layout and through the key schedule's SubWord.
    #[test]
    fn sbox_circuit_matches_table_on_all_inputs() {
        for chunk in 0..4u8 {
            let blocks: [u8; PARALLEL_LEN] = std::array::from_fn(|i| chunk * 64 + i as u8);
            let mut s = pack(&blocks);
            sub_bytes(&mut s);
            let expected = blocks.map(|x| reference::SBOX[x as usize]);
            assert_eq!(unpack(&s), expected, "inputs {}..{}", chunk * 64, chunk as u16 * 64 + 64);
        }
        for x in 0..=255u8 {
            let word = [x, x.wrapping_add(1), x ^ 0x5a, !x];
            let expected = word.map(|b| reference::SBOX[b as usize]);
            assert_eq!(sub_word(u32::from_le_bytes(word)).to_le_bytes(), expected, "{x:#04x}");
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        assert_eq!(format!("{aes:?}"), "Aes { rounds: 10 }");
    }

    proptest! {
        /// The bitsliced core ≡ the byte-oriented reference, for random
        /// 128- and 256-bit keys: every round key, and 1–4 random blocks
        /// encrypted in one call (the unused slots hold other data).
        #[test]
        fn bitsliced_matches_reference(
            key in prop_oneof![
                proptest::collection::vec(any::<u8>(), 16),
                proptest::collection::vec(any::<u8>(), 32),
            ],
            blocks in proptest::collection::vec(any::<[u8; BLOCK_LEN]>(), 1..PARALLEL_BLOCKS + 1),
            filler: [u8; BLOCK_LEN],
        ) {
            let aes = Aes::new(&key).unwrap();
            let oracle = reference::Aes::new(&key).unwrap();
            prop_assert_eq!(aes.rounds() + 1, oracle.round_keys.len());
            for (rk, expected) in aes.round_keys.iter().zip(&oracle.round_keys) {
                let replicated = unpack(rk);
                for slot in replicated.chunks_exact(BLOCK_LEN) {
                    prop_assert_eq!(slot, &expected[..]);
                }
            }
            let mut input = [0u8; PARALLEL_LEN];
            for (slot, block) in
                input.chunks_exact_mut(BLOCK_LEN).zip(blocks.iter().chain(std::iter::repeat(&filler)))
            {
                slot.copy_from_slice(block);
            }
            let out = aes.encrypt4(&input);
            for (got, block) in out.chunks_exact(BLOCK_LEN).zip(&blocks) {
                let mut expected = *block;
                oracle.encrypt_block(&mut expected);
                prop_assert_eq!(got, &expected[..]);
            }
            let mut single = blocks[0];
            aes.encrypt_block(&mut single);
            prop_assert_eq!(&single[..], &out[..BLOCK_LEN]);
        }
    }
}
