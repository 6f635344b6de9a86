//! AES in counter (CTR) mode — the symmetric cipher used by SCBR for
//! publication headers and subscriptions.
//!
//! The counter block is formed from an 8-byte nonce followed by a 64-bit
//! big-endian block counter, matching the common Crypto++/SDK layout the
//! paper's prototype used. The counter wraps per block, modulo 2⁶⁴.
//!
//! The keystream is produced 64 bytes at a time: one call of the
//! bitsliced AES core ([`crate::aes`]) encrypts four consecutive counter
//! blocks, and the buffered bytes are XORed in a word at a time. A stream
//! may start at any block ([`AesCtr::seek_block`]), not only at a
//! multiple of four.
//!
//! [`SymmetricKey`] is plain key bytes; the expanded schedule belongs to
//! whoever encrypts repeatedly under one key: an [`AesCtr`] (a router's
//! cached header cipher, the producer's `SK` cipher) or a
//! [`crate::authenc::SealedBox`]. [`AesCtr::encrypt_with_nonce`], which
//! takes a `SymmetricKey`, expands it on every call.

use crate::aes::{Aes, BLOCK_LEN, PARALLEL_LEN};
use crate::error::CryptoError;
use crate::rng::CryptoRng;

/// Length in bytes of the per-message CTR nonce.
pub const NONCE_LEN: usize = 8;

/// A 128- or 256-bit symmetric key for AES-CTR.
///
/// In SCBR terms this is `SK`, the key shared between the publisher and the
/// code running inside the enclave.
#[derive(Clone, PartialEq, Eq)]
pub struct SymmetricKey {
    bytes: Vec<u8>,
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricKey({} bits, redacted)", self.bytes.len() * 8)
    }
}

impl SymmetricKey {
    /// Wraps an existing 16- or 32-byte key.
    pub fn from_bytes<B: Into<Vec<u8>>>(bytes: B) -> Self {
        let bytes = bytes.into();
        assert!(bytes.len() == 16 || bytes.len() == 32, "symmetric keys are 16 or 32 bytes");
        SymmetricKey { bytes }
    }

    /// Parses a key, returning an error instead of panicking on bad length.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] unless the slice is 16 or 32
    /// bytes long.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() == 16 || bytes.len() == 32 {
            Ok(SymmetricKey { bytes: bytes.to_vec() })
        } else {
            Err(CryptoError::InvalidLength { context: "symmetric key" })
        }
    }

    /// Generates a fresh random 128-bit key.
    pub fn generate(rng: &mut CryptoRng) -> Self {
        let mut bytes = vec![0u8; 16];
        rng.fill(&mut bytes);
        SymmetricKey { bytes }
    }

    /// Generates a fresh random 256-bit key.
    pub fn generate_256(rng: &mut CryptoRng) -> Self {
        let mut bytes = vec![0u8; 32];
        rng.fill(&mut bytes);
        SymmetricKey { bytes }
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// AES-CTR keystream generator and in-place cipher.
///
/// Encryption and decryption are the same operation; call [`AesCtr::apply`]
/// with the same key and nonce to invert.
///
/// ```
/// use scbr_crypto::ctr::{AesCtr, SymmetricKey};
///
/// let key = SymmetricKey::from_bytes([9u8; 32]);
/// let mut msg = b"price<50".to_vec();
/// AesCtr::new(&key, [0; 8]).apply(&mut msg);
/// AesCtr::new(&key, [0; 8]).apply(&mut msg);
/// assert_eq!(msg, b"price<50");
/// ```
#[derive(Clone)]
pub struct AesCtr {
    aes: Aes,
    stream: Keystream,
}

impl std::fmt::Debug for AesCtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the schedule or the buffered keystream (keystream ⊕
        // ciphertext is the plaintext).
        f.debug_struct("AesCtr").field("next_block", &self.stream.counter).finish_non_exhaustive()
    }
}

impl AesCtr {
    /// Creates a CTR cipher positioned at block 0 of the keystream.
    pub fn new(key: &SymmetricKey, nonce: [u8; NONCE_LEN]) -> Self {
        let aes = Aes::new(key.as_bytes()).expect("SymmetricKey guarantees a valid length");
        AesCtr { aes, stream: Keystream::new(nonce) }
    }

    /// Repositions the keystream at an arbitrary block index (random access).
    // lint: allow(SL08, ctr_check in tests/kat.rs starts at the SP 800-38A counter block)
    pub fn seek_block(&mut self, block: u64) {
        self.stream.counter = block;
        self.stream.used = KEYSTREAM_LEN;
    }

    /// Restarts the stream at block 0 under a new nonce, reusing the
    /// expanded key schedule — [`AesCtr::new`] pays the AES key expansion
    /// on every call, which dominates when decrypting many short headers
    /// under one session key.
    pub fn reset_nonce(&mut self, nonce: [u8; NONCE_LEN]) {
        self.stream = Keystream::new(nonce);
    }

    /// Decrypts `nonce || ciphertext`, the inverse of
    /// [`AesCtr::encrypt_with_nonce`], into `out` (cleared first) on
    /// `self`'s key schedule: the message's nonce replaces the cipher's
    /// stream position via [`AesCtr::reset_nonce`]. Allocation-free once
    /// `out` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `message` is shorter than
    /// a nonce; `out` is left cleared in that case.
    pub fn decrypt_into(&mut self, message: &[u8], out: &mut Vec<u8>) -> Result<(), CryptoError> {
        self.stream = open_framed(&self.aes, message, out)?;
        Ok(())
    }

    /// XORs the keystream into `data`, advancing the stream position.
    pub fn apply(&mut self, data: &mut [u8]) {
        self.stream.apply(&self.aes, data);
    }

    /// Convenience: encrypts `plaintext` with a freshly drawn nonce, returning
    /// `nonce || ciphertext`.
    pub fn encrypt_with_nonce(
        key: &SymmetricKey,
        rng: &mut CryptoRng,
        plaintext: &[u8],
    ) -> Vec<u8> {
        let aes = Aes::new(key.as_bytes()).expect("SymmetricKey guarantees a valid length");
        seal_framed(&aes, rng, plaintext)
    }
}

/// Bytes of keystream one refill produces: four counter blocks, the
/// bitsliced core's width.
const KEYSTREAM_LEN: usize = PARALLEL_LEN;

/// The position and buffered keystream of one CTR stream, apart from the
/// schedule that fills it, so one key holder's schedule serves a stream
/// per message ([`open_framed`], [`split_first_block`]) without being
/// copied.
#[derive(Clone)]
pub(crate) struct Keystream {
    nonce: [u8; NONCE_LEN],
    /// Counter of the next block a refill encrypts.
    counter: u64,
    buf: [u8; KEYSTREAM_LEN],
    /// Offset of the next unused byte of `buf`; `KEYSTREAM_LEN` means empty.
    used: usize,
}

impl Keystream {
    /// A stream at block 0 under `nonce`.
    fn new(nonce: [u8; NONCE_LEN]) -> Self {
        Keystream { nonce, counter: 0, buf: [0u8; KEYSTREAM_LEN], used: KEYSTREAM_LEN }
    }

    /// Encrypts the next four counter blocks; the counter wraps per block.
    fn refill(&mut self, aes: &Aes) {
        let mut blocks = [0u8; KEYSTREAM_LEN];
        for block in blocks.chunks_exact_mut(BLOCK_LEN) {
            block[..NONCE_LEN].copy_from_slice(&self.nonce);
            block[NONCE_LEN..].copy_from_slice(&self.counter.to_be_bytes());
            self.counter = self.counter.wrapping_add(1);
        }
        self.buf = aes.encrypt4(&blocks);
        self.used = 0;
    }

    /// The next run of keystream, at most `max` bytes and never crossing
    /// a refill, advancing the stream position past it.
    fn next_run(&mut self, aes: &Aes, max: usize) -> &[u8] {
        if self.used == KEYSTREAM_LEN {
            self.refill(aes);
        }
        let n = (KEYSTREAM_LEN - self.used).min(max);
        self.used += n;
        &self.buf[self.used - n..self.used]
    }

    /// XORs the keystream into `data`, advancing the stream position.
    fn apply(&mut self, aes: &Aes, data: &mut [u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            let run = self.next_run(aes, rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
            xor_words(head, run);
            rest = tail;
        }
    }

    /// Appends `src ⊕ keystream` to `dst`: the cipher writes its output
    /// in one pass, so the input is never copied on its own first.
    pub(crate) fn xor_append(&mut self, aes: &Aes, src: &[u8], dst: &mut Vec<u8>) {
        dst.reserve(src.len());
        let mut rest = src;
        while !rest.is_empty() {
            let run = self.next_run(aes, rest.len());
            let (head, tail) = rest.split_at(run.len());
            dst.extend(head.iter().zip(run).map(|(s, k)| s ^ k));
            rest = tail;
        }
    }
}

/// `data ^= keystream`, eight bytes at a time.
#[inline(always)]
fn xor_words(data: &mut [u8], keystream: &[u8]) {
    let mut words = data.chunks_exact_mut(8);
    let mut keys = keystream.chunks_exact(8);
    for (d, k) in (&mut words).zip(&mut keys) {
        let x = u64::from_ne_bytes(d.try_into().expect("8 bytes"))
            ^ u64::from_ne_bytes(k.try_into().expect("8 bytes"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, k) in words.into_remainder().iter_mut().zip(keys.remainder()) {
        *d ^= k;
    }
}

/// `nonce || ciphertext` of `plaintext` under a freshly drawn nonce.
fn seal_framed(aes: &Aes, rng: &mut CryptoRng, plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill(&mut nonce);
    let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len());
    out.extend_from_slice(&nonce);
    Keystream::new(nonce).xor_append(aes, plaintext, &mut out);
    out
}

/// Decrypts `nonce || ciphertext` into `out` (cleared first), returning
/// the stream positioned after the message.
///
/// # Errors
///
/// [`CryptoError::InvalidLength`] if `message` is shorter than a nonce;
/// `out` is left cleared in that case.
fn open_framed(aes: &Aes, message: &[u8], out: &mut Vec<u8>) -> Result<Keystream, CryptoError> {
    out.clear();
    let Some((nonce, ciphertext)) = message.split_first_chunk::<NONCE_LEN>() else {
        return Err(CryptoError::InvalidLength { context: "ctr message" });
    };
    let mut stream = Keystream::new(*nonce);
    stream.xor_append(aes, ciphertext, out);
    Ok(stream)
}

/// Keystream block 0 under `nonce`, and the stream positioned at block 1.
/// [`crate::authenc::SealedBox`] takes block 0 as the message's Poly1305
/// `s` and encrypts from block 1, so one refill serves both.
///
/// It refills directly rather than through [`Keystream::next_run`]: a
/// third caller makes the compiler stop inlining `next_run` into
/// [`Keystream::xor_append`], which every header decrypt runs.
pub(crate) fn split_first_block(aes: &Aes, nonce: [u8; NONCE_LEN]) -> ([u8; BLOCK_LEN], Keystream) {
    let mut stream = Keystream::new(nonce);
    stream.refill(aes);
    stream.used = BLOCK_LEN;
    let first = stream.buf[..BLOCK_LEN].try_into().expect("a refill holds four blocks");
    (first, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_lengths() {
        let key = SymmetricKey::from_bytes([3u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut data = plain.clone();
            AesCtr::new(&key, [5; 8]).apply(&mut data);
            if len > 0 {
                assert_ne!(data, plain, "len {len}");
            }
            AesCtr::new(&key, [5; 8]).apply(&mut data);
            assert_eq!(data, plain, "len {len}");
        }
    }

    #[test]
    fn chunked_apply_equals_oneshot() {
        let key = SymmetricKey::from_bytes([0xaau8; 32]);
        let plain: Vec<u8> = (0..257u32).map(|i| i as u8).collect();
        let mut oneshot = plain.clone();
        AesCtr::new(&key, [1; 8]).apply(&mut oneshot);
        let mut chunked = plain.clone();
        let mut ctr = AesCtr::new(&key, [1; 8]);
        for chunk in chunked.chunks_mut(7) {
            ctr.apply(chunk);
        }
        assert_eq!(oneshot, chunked);
    }

    #[test]
    fn different_nonce_different_ciphertext() {
        let key = SymmetricKey::from_bytes([1u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        AesCtr::new(&key, [0; 8]).apply(&mut a);
        AesCtr::new(&key, [1; 8]).apply(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn seek_block_gives_random_access() {
        let key = SymmetricKey::from_bytes([9u8; 16]);
        let mut full = vec![0u8; 64];
        AesCtr::new(&key, [2; 8]).apply(&mut full);
        // Decrypt only the third block via seek.
        let mut third = vec![0u8; 16];
        let mut ctr = AesCtr::new(&key, [2; 8]);
        ctr.seek_block(2);
        ctr.apply(&mut third);
        assert_eq!(&full[32..48], &third[..]);
    }

    #[test]
    fn nonce_framed_round_trip() {
        let key = SymmetricKey::from_bytes([7u8; 16]);
        let mut rng = CryptoRng::from_seed(42);
        let msg = b"symbol=INTC volume>10000";
        let wire = AesCtr::encrypt_with_nonce(&key, &mut rng, msg);
        assert_eq!(wire.len(), msg.len() + NONCE_LEN);
        let mut back = Vec::new();
        AesCtr::new(&key, [0; NONCE_LEN]).decrypt_into(&wire, &mut back).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn decrypt_rejects_truncated() {
        let key = SymmetricKey::from_bytes([7u8; 16]);
        let mut cipher = AesCtr::new(&key, [0; NONCE_LEN]);
        assert!(cipher.decrypt_into(&[1, 2, 3], &mut Vec::new()).is_err());
    }

    #[test]
    fn decrypt_into_reuses_buffer() {
        let key = SymmetricKey::from_bytes([7u8; 16]);
        let mut rng = CryptoRng::from_seed(9);
        let mut out = Vec::with_capacity(64);
        let buffer = out.as_ptr();
        for msg in [&b"first message"[..], b"a longer second message", b"x"] {
            let wire = AesCtr::encrypt_with_nonce(&key, &mut rng, msg);
            AesCtr::new(&key, [0; NONCE_LEN]).decrypt_into(&wire, &mut out).unwrap();
            assert_eq!(out, msg);
            assert_eq!(out.as_ptr(), buffer, "the buffer is reused");
        }
        // Errors clear the buffer rather than leaving stale plaintext.
        assert!(AesCtr::new(&key, [0; NONCE_LEN]).decrypt_into(&[1, 2], &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn decrypt_into_reuses_key_schedule() {
        let key = SymmetricKey::from_bytes([7u8; 16]);
        let mut rng = CryptoRng::from_seed(9);
        let mut cipher = AesCtr::new(&key, [0; NONCE_LEN]);
        let mut out = Vec::new();
        // One cipher decrypts many independently-nonced messages, and
        // agrees with a fresh cipher per message.
        for msg in [&b"first message"[..], b"a longer second message", b"x", b""] {
            let wire = AesCtr::encrypt_with_nonce(&key, &mut rng, msg);
            cipher.decrypt_into(&wire, &mut out).unwrap();
            assert_eq!(out, msg);
            let mut fresh = Vec::new();
            AesCtr::new(&key, [0; NONCE_LEN]).decrypt_into(&wire, &mut fresh).unwrap();
            assert_eq!(out, fresh);
        }
        assert!(cipher.decrypt_into(&[1, 2], &mut out).is_err());
        assert!(out.is_empty());
    }

    /// Keystream block `k` under `nonce`, from the byte-oriented
    /// reference cipher, one block at a time.
    fn reference_block(key: &SymmetricKey, nonce: [u8; NONCE_LEN], k: u64) -> [u8; BLOCK_LEN] {
        let oracle = crate::aes::reference::Aes::new(key.as_bytes()).unwrap();
        let mut block = [0u8; BLOCK_LEN];
        block[..NONCE_LEN].copy_from_slice(&nonce);
        block[NONCE_LEN..].copy_from_slice(&k.to_be_bytes());
        oracle.encrypt_block(&mut block);
        block
    }

    /// `blocks` keystream blocks from block `start` on.
    fn keystream(key: &SymmetricKey, nonce: [u8; NONCE_LEN], start: u64, blocks: usize) -> Vec<u8> {
        let mut ks = vec![0u8; blocks * BLOCK_LEN];
        let mut ctr = AesCtr::new(key, nonce);
        ctr.seek_block(start);
        ctr.apply(&mut ks);
        ks
    }

    #[test]
    fn seek_to_blocks_off_the_refill_boundary() {
        let key = SymmetricKey::from_bytes([0x31u8; 32]);
        for start in [1u64, 2, 3, 5, 6, 7, 1001] {
            let ks = keystream(&key, [4; 8], start, 5);
            for (k, block) in (start..).zip(ks.chunks_exact(BLOCK_LEN)) {
                assert_eq!(block, reference_block(&key, [4; 8], k), "seek {start}, block {k}");
            }
        }
    }

    /// The counter wraps per block, also inside one four-block refill.
    #[test]
    fn counter_wraps_per_block_at_u64_max() {
        let key = SymmetricKey::from_bytes([0x52u8; 16]);
        for start in [u64::MAX - 1, u64::MAX] {
            let ks = keystream(&key, [6; 8], start, 4);
            for (i, block) in ks.chunks_exact(BLOCK_LEN).enumerate() {
                let k = start.wrapping_add(i as u64);
                assert_eq!(block, reference_block(&key, [6; 8], k), "block {k}");
            }
        }
    }

    proptest::proptest! {
        /// Any split of a message into `apply` calls, wherever the cuts
        /// fall in the 64-byte keystream buffer, gives the one-shot bytes.
        #[test]
        fn chunked_apply_equals_oneshot_at_random_splits(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            mut cuts in proptest::collection::vec(0usize..300, 0..8),
            wide: bool,
            nonce: [u8; NONCE_LEN],
        ) {
            let key = SymmetricKey::from_bytes(if wide { vec![0x13; 32] } else { vec![0x13; 16] });
            let mut oneshot = data.clone();
            AesCtr::new(&key, nonce).apply(&mut oneshot);
            cuts.iter_mut().for_each(|c| *c = (*c).min(data.len()));
            cuts.sort_unstable();
            let mut chunked = data.clone();
            let mut ctr = AesCtr::new(&key, nonce);
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                ctr.apply(&mut chunked[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(chunked, oneshot);
        }
    }

    #[test]
    fn key_debug_redacts() {
        let key = SymmetricKey::from_bytes([7u8; 16]);
        assert_eq!(format!("{key:?}"), "SymmetricKey(128 bits, redacted)");
    }

    #[test]
    fn try_from_bytes_validates() {
        assert!(SymmetricKey::try_from_bytes(&[0; 16]).is_ok());
        assert!(SymmetricKey::try_from_bytes(&[0; 32]).is_ok());
        assert!(SymmetricKey::try_from_bytes(&[0; 24]).is_err());
        assert!(SymmetricKey::try_from_bytes(&[]).is_err());
    }
}
