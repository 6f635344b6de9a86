//! Poly1305 (Bernstein, FSE 2005; RFC 8439 §2.5): the one-time
//! authenticator under [`crate::authenc::SealedBox`].
//!
//! A 32-byte key `(r, s)` turns a message into a 16-byte tag: each
//! 16-byte block, read little-endian with a 1 appended above its top
//! byte, is added into an accumulator `h` that is then multiplied by
//! the clamped `r` modulo p = 2¹³⁰ − 5; the tag is `h + s mod 2¹²⁸`.
//! A key authenticates **one** message: two tags under one `(r, s)`
//! reveal enough to forge. [`crate::authenc::SealedBox`] keeps `r` and
//! takes a fresh `s` per message from the AES-CTR keystream under the
//! message's nonce (Poly1305-AES), which is one-time as long as the
//! nonce is.
//!
//! The arithmetic follows poly1305-donna-64: `h` and `r` are held in
//! three limbs of 44, 44 and 42 bits, a limb product fits a `u128`, and
//! the bits above 2¹³⁰ fold back in times 5 (2¹³⁰ ≡ 5 mod p). The final
//! reduction to `[0, p)` computes `h − p` beside `h` and keeps one of the
//! two by a mask taken from the borrow. Nothing branches on, or indexes
//! memory by, the key, the message or the tag; only the message length
//! steers the loop.

/// Bytes of a Poly1305 key: `r` (clamped on use), then `s`.
pub const KEY_LEN: usize = 32;

/// Bytes of a Poly1305 tag.
pub const TAG_LEN: usize = 16;

/// Bytes of one Poly1305 block.
const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// The 1 appended above a full block's top byte: bit 128, which is bit 40
/// of the third limb.
const HIBIT: u64 = 1 << 40;

/// `r` with the RFC 8439 §2.5 clamp applied: the top four bits of bytes
/// 3, 7, 11 and 15 and the bottom two bits of bytes 4, 8 and 12 cleared,
/// as two little-endian words.
fn clamp(r: &[u8; 16]) -> [u64; 2] {
    let lo = u64::from_le_bytes(r[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(r[8..].try_into().expect("8 bytes"));
    [lo & 0x0fff_fffc_0fff_ffff, hi & 0x0fff_fffc_0fff_fffc]
}

/// Splits 128 bits, as two little-endian words, into 44/44/40-bit limbs.
#[inline(always)]
fn limbs(lo: u64, hi: u64) -> [u64; 3] {
    [lo & MASK44, ((lo >> 44) | (hi << 20)) & MASK44, hi >> 24]
}

#[inline(always)]
fn mul(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// An incremental Poly1305 computation under one key.
///
/// ```
/// use scbr_crypto::poly1305::Poly1305;
///
/// let key = [7u8; 32];
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"Cryptographic Forum ");
/// mac.update(b"Research Group");
/// let mut oneshot = Poly1305::new(&key);
/// oneshot.update(b"Cryptographic Forum Research Group");
/// assert_eq!(mac.finalize(), oneshot.finalize());
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, in limbs.
    r: [u64; 3],
    /// `20·r₁` and `20·r₂`: a product limb that lands at 2¹³² or above
    /// wraps to the bottom times 5, and the 2² of the limb offset makes
    /// it 20.
    r20: [u64; 2],
    s: u128,
    /// The accumulator, in limbs (not fully reduced between blocks).
    h: [u64; 3],
    /// A message tail shorter than a block, waiting for more bytes.
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `r` and `s` are the key; the accumulator and buffer derive from it.
        f.debug_struct("Poly1305").finish_non_exhaustive()
    }
}

impl Poly1305 {
    /// A fresh computation under `key = r ‖ s` (RFC 8439's layout; `r`
    /// is clamped here).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let [r_lo, r_hi] = clamp(key[..16].try_into().expect("16 bytes"));
        let r = limbs(r_lo, r_hi);
        Poly1305 {
            r,
            r20: [r[1] * 20, r[2] * 20],
            s: u128::from_le_bytes(key[16..].try_into().expect("16 bytes")),
            h: [0; 3],
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs every whole block of `data` (a tail shorter than a block
    /// is left alone), each with `hibit` as its appended bit.
    fn blocks(&mut self, data: &[u8], hibit: u64) {
        let [r0, r1, r2] = self.r;
        let [r1_20, r2_20] = self.r20;
        let [mut h0, mut h1, mut h2] = self.h;
        for block in data.chunks_exact(BLOCK_LEN) {
            let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
            let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
            let [m0, m1, m2] = limbs(lo, hi);
            h0 += m0;
            h1 += m1;
            h2 += m2 | hibit;

            let d0 = mul(h0, r0) + mul(h1, r2_20) + mul(h2, r1_20);
            let d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, r2_20);
            let d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);

            let d1 = d1 + (d0 >> 44);
            h0 = d0 as u64 & MASK44;
            let d2 = d2 + (d1 >> 44);
            h1 = d1 as u64 & MASK44;
            let c = (d2 >> 42) as u64;
            h2 = d2 as u64 & MASK42;
            h0 += c * 5;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        self.h = [h0, h1, h2];
    }

    /// Absorbs one full block held in the buffer.
    fn flush(&mut self, hibit: u64) {
        let block = self.buf;
        self.blocks(&block, hibit);
        self.buffered = 0;
    }

    /// Feeds more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            self.flush(HIBIT);
        }
        let whole = data.len() - data.len() % BLOCK_LEN;
        self.blocks(&data[..whole], HIBIT);
        let tail = &data[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Zero-pads the message so far to a whole number of blocks: RFC
    /// 8439 §2.8's `pad16` after a part whose length was not a multiple
    /// of 16.
    pub fn pad16(&mut self) {
        if self.buffered > 0 {
            self.buf[self.buffered..].fill(0);
            self.flush(HIBIT);
        }
    }

    /// The tag of everything fed so far.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // A short last block carries its appended 1 in the byte after
            // it, not at bit 128.
            self.buf[self.buffered] = 1;
            self.buf[self.buffered + 1..].fill(0);
            self.flush(0);
        }

        // Carry h through its limbs twice, as poly1305-donna does: after
        // that h < 2p, so one conditional subtraction of p reduces it.
        let [mut h0, mut h1, mut h2] = self.h;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;

        // g = h + 5 − 2¹³⁰ = h − p. Its top limb borrows (wraps to a
        // value with bit 63 set) exactly when h < p.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Bits at and above 2¹²⁸ drop out of both the sum and the shifts.
        let h =
            u128::from(h0).wrapping_add(u128::from(h1) << 44).wrapping_add(u128::from(h2) << 88);
        h.wrapping_add(self.s).to_le_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_clears_exactly_the_rfc_bits() {
        let [lo, hi] = clamp(&[0xff; 16]);
        let clamped = [lo.to_le_bytes(), hi.to_le_bytes()].concat();
        assert_eq!(
            clamped,
            [
                0xff, 0xff, 0xff, 0x0f, 0xfc, 0xff, 0xff, 0x0f, 0xfc, 0xff, 0xff, 0x0f, 0xfc, 0xff,
                0xff, 0x0f
            ]
        );
    }

    #[test]
    fn any_split_of_the_message_gives_the_one_shot_tag() {
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i * 29 + 3) as u8);
        let msg: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(151)).collect();
        let mut oneshot = Poly1305::new(&key);
        oneshot.update(&msg);
        let expected = oneshot.finalize();
        for split in 0..=msg.len() {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&[]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn pad16_equals_feeding_the_zeros() {
        let key = [0x5a; KEY_LEN];
        let mut padded = Poly1305::new(&key);
        padded.update(b"seventeen bytes!!");
        padded.pad16();
        padded.pad16(); // already aligned: no effect
        let mut explicit = Poly1305::new(&key);
        explicit.update(b"seventeen bytes!!");
        explicit.update(&[0; 15]);
        assert_eq!(padded.finalize(), explicit.finalize());
    }

    #[test]
    fn debug_redacts_the_key() {
        let mut mac = Poly1305::new(&[0x42; KEY_LEN]);
        mac.update(b"message");
        assert_eq!(format!("{mac:?}"), "Poly1305 { .. }");
    }
}
