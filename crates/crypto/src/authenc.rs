//! Authenticated encryption: AES-CTR with a Poly1305-AES tag.
//!
//! The SGX simulator uses this construction for sealed storage (real SGX
//! uses AES-GCM inside `sgx_seal_data`, another counter-mode cipher with
//! a polynomial one-time MAC), `scbr-net` for sealed broker-to-broker
//! link frames, and SCBR for the `SK` grant, registration envelopes, the
//! pairwise client keys and group keys.
//!
//! # Construction
//!
//! * [`SealedBox::new`] derives two sub-keys from the master key by HKDF,
//!   each under its own info label: an AES-128 key (`enc`) and a
//!   Poly1305 `r` (`poly1305-r`, clamped as RFC 8439 §2.5 says).
//! * Per message, under its 8-byte nonce, keystream block 0 is
//!   Poly1305's `s`, and the payload is encrypted from block 1 on.
//! * The tag is `Poly1305_r(aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64 |aad| ‖
//!   le64 |ct|) + s mod 2¹²⁸`, RFC 8439 §2.8's input layout.
//! * A [`SealedBox::seal`] blob is `nonce (8) ‖ ct ‖ tag (16)`. Opening
//!   compares the tag with [`crate::ct::ct_eq`] before any byte is
//!   decrypted.
//!
//! With `r` fixed per key and `s = AES_k(nonce ‖ 0)` per message, this is
//! Bernstein's Poly1305-AES (FSE 2005): as long as no nonce repeats, a
//! forgery attempt on an `L`-byte message succeeds with probability at
//! most about `8⌈L/16⌉ / 2¹⁰⁶`, plus whatever distinguishes AES from a
//! random permutation.
//!
//! # Why one reserved keystream block, not two
//!
//! RFC 8439 takes a fresh 32-byte `(r, s)` from each message's first
//! keystream block. Here only `s` is per message, so one 16-byte block is
//! reserved. The keystream is made four blocks per AES call
//! ([`crate::ctr`]), and the most common sealed message, a link frame
//! carrying one publication, is 111–112 bytes: 7 payload blocks, 8 with
//! `s`, still two calls. Reserving two blocks would need a third.
//!
//! # Nonces
//!
//! A nonce must never repeat under one key. [`SealedBox::seal`] draws 8
//! random bytes, which stays collision-free with high probability well
//! below 2³² messages per key. [`SealedBox::seal_into`] takes the
//! caller's nonce: a sealed link derives it from the frame's direction
//! and sequence number (`scbr_net::link`). A repeat costs more than the
//! two messages involved. They share a keystream, so their XOR leaks,
//! and they share `(r, s)`, so the difference of their tags is a
//! polynomial in `r` alone: solving it for `r` lets the holder forge
//! under any nonce that was used for a sealed message, for as long as the
//! key lives.
//!
//! A [`SealedBox`] is a key holder: it keeps the cipher's expanded AES
//! schedule and `r`, and so pays no key expansion per [`SealedBox::seal`]
//! or [`SealedBox::open`].

use crate::aes::Aes;
use crate::ctr::{self, SymmetricKey, NONCE_LEN};
use crate::error::CryptoError;
use crate::hkdf;
use crate::poly1305::{Poly1305, KEY_LEN, TAG_LEN};
use crate::rng::CryptoRng;

/// Authenticated encryption box deriving independent cipher and MAC keys
/// from one master key.
///
/// Wire format of [`SealedBox::seal`]: `nonce (8) || ciphertext || tag
/// (16)`. The optional *associated data* is authenticated but not
/// encrypted.
///
/// ```
/// use scbr_crypto::{SealedBox, CryptoRng};
/// use scbr_crypto::ctr::SymmetricKey;
///
/// let key = SymmetricKey::from_bytes([1u8; 16]);
/// let sealed = SealedBox::new(&key);
/// let mut rng = CryptoRng::from_seed(3);
/// let ct = sealed.seal(b"enclave state", b"header-v1", &mut rng);
/// assert_eq!(sealed.open(&ct, b"header-v1")?, b"enclave state");
/// # Ok::<(), scbr_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct SealedBox {
    cipher: Aes,
    /// Poly1305's `r`, fixed for the key (clamped by [`Poly1305::new`]);
    /// each message brings its own `s`.
    r: [u8; 16],
}

impl std::fmt::Debug for SealedBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the schedule or `r`.
        f.debug_struct("SealedBox").finish_non_exhaustive()
    }
}

impl SealedBox {
    /// Derives the cipher key and Poly1305 `r` from `master` via HKDF.
    pub fn new(master: &SymmetricKey) -> Self {
        let mut enc = [0u8; 16];
        let mut r = [0u8; 16];
        hkdf::derive(b"scbr-sealedbox", master.as_bytes(), b"enc", &mut enc);
        hkdf::derive(b"scbr-sealedbox", master.as_bytes(), b"poly1305-r", &mut r);
        SealedBox { cipher: Aes::new(&enc).expect("16-byte derived key"), r }
    }

    /// Encrypts and authenticates `plaintext` under a nonce drawn from
    /// `rng`, binding `aad` into the tag. Returns `nonce || ciphertext ||
    /// tag`.
    pub fn seal(&self, plaintext: &[u8], aad: &[u8], rng: &mut CryptoRng) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        self.seal_into(nonce, plaintext, aad, &mut out);
        out
    }

    /// Appends `ciphertext || tag` of `plaintext` under `nonce` to `out`,
    /// binding `aad` into the tag. The nonce itself is not written: the
    /// caller carries or re-derives it, and opens with
    /// [`SealedBox::open_into`].
    ///
    /// `nonce` must never repeat under this box's key (see the module
    /// doc for what a repeat costs).
    pub fn seal_into(
        &self,
        nonce: [u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) {
        let (s, mut stream) = ctr::split_first_block(&self.cipher, nonce);
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        stream.xor_append(&self.cipher, plaintext, out);
        let tag = self.tag(s, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts a message sealed by [`SealedBox::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not match
    /// (tampered ciphertext, wrong key, or wrong associated data) and
    /// [`CryptoError::InvalidLength`] for impossible sizes.
    pub fn open(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let Some((nonce, body)) = sealed.split_first_chunk::<NONCE_LEN>() else {
            return Err(CryptoError::InvalidLength { context: "sealed message" });
        };
        let mut plain = Vec::new();
        self.open_into(*nonce, body, aad, &mut plain)?;
        Ok(plain)
    }

    /// Verifies `ciphertext || tag` written by [`SealedBox::seal_into`]
    /// under `nonce` and appends its plaintext to `out`, the twin of
    /// [`SealedBox::seal_into`]. Nothing is decrypted unless the tag
    /// matches, and on an error nothing is appended.
    ///
    /// # Errors
    ///
    /// As [`SealedBox::open`].
    pub fn open_into(
        &self,
        nonce: [u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.verify(nonce, sealed, aad)?.decrypt_into(out);
        Ok(())
    }

    /// Checks the tag of `ciphertext || tag` written by
    /// [`SealedBox::seal_into`] under `nonce`, decrypting nothing: the
    /// first half of [`SealedBox::open_into`], for a caller that may
    /// still refuse an authentic message (a sealed link frame ahead of
    /// its receive counter) without paying for its keystream pass.
    ///
    /// # Errors
    ///
    /// As [`SealedBox::open`].
    pub fn verify<'a>(
        &'a self,
        nonce: [u8; NONCE_LEN],
        sealed: &'a [u8],
        aad: &[u8],
    ) -> Result<Verified<'a>, CryptoError> {
        let Some(body_len) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(CryptoError::InvalidLength { context: "sealed message" });
        };
        let (ciphertext, tag) = sealed.split_at(body_len);
        let (s, stream) = ctr::split_first_block(&self.cipher, nonce);
        if !crate::ct::ct_eq(&self.tag(s, aad, ciphertext), tag) {
            return Err(CryptoError::VerificationFailed);
        }
        Ok(Verified { cipher: &self.cipher, stream, ciphertext })
    }

    /// RFC 8439 §2.8's tag over `aad` and `ciphertext`, keyed by this
    /// box's `r` and the message's `s`.
    fn tag(&self, s: [u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut key = [0u8; KEY_LEN];
        key[..16].copy_from_slice(&self.r);
        key[16..].copy_from_slice(&s);
        let mut mac = Poly1305::new(&key);
        mac.update(aad);
        mac.pad16();
        mac.update(ciphertext);
        mac.pad16();
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }
}

/// A sealed message whose tag [`SealedBox::verify`] accepted, not yet
/// decrypted.
pub struct Verified<'a> {
    cipher: &'a Aes,
    /// The message's keystream, block 0 (Poly1305's `s`) already spent.
    stream: ctr::Keystream,
    ciphertext: &'a [u8],
}

impl Verified<'_> {
    /// Decrypts the message, appending its plaintext to `out`.
    pub fn decrypt_into(mut self, out: &mut Vec<u8>) {
        self.stream.xor_append(self.cipher, self.ciphertext, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SealedBox, CryptoRng) {
        (SealedBox::new(&SymmetricKey::from_bytes([7u8; 16])), CryptoRng::from_seed(10))
    }

    #[test]
    fn seal_open_round_trip() {
        let (sb, mut rng) = setup();
        for len in [0usize, 1, 16, 100, 4096] {
            let msg = vec![0x5au8; len];
            let sealed = sb.seal(&msg, b"aad", &mut rng);
            assert_eq!(sealed.len(), len + NONCE_LEN + TAG_LEN);
            assert_eq!(sb.open(&sealed, b"aad").unwrap(), msg);
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (sb, mut rng) = setup();
        let mut sealed = sb.seal(b"data", b"", &mut rng);
        sealed[NONCE_LEN] ^= 1;
        assert_eq!(sb.open(&sealed, b""), Err(CryptoError::VerificationFailed));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let (sb, mut rng) = setup();
        let mut sealed = sb.seal(b"data", b"", &mut rng);
        sealed[0] ^= 1;
        assert!(sb.open(&sealed, b"").is_err());
    }

    #[test]
    fn tampered_tag_rejected() {
        let (sb, mut rng) = setup();
        let mut sealed = sb.seal(b"data", b"", &mut rng);
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(sb.open(&sealed, b"").is_err());
    }

    #[test]
    fn verify_then_decrypt_is_open() {
        let (sb, _) = setup();
        let nonce = [3u8; NONCE_LEN];
        let mut sealed = Vec::new();
        sb.seal_into(nonce, b"verified first", b"aad", &mut sealed);
        let mut out = b"kept ".to_vec();
        sb.verify(nonce, &sealed, b"aad").unwrap().decrypt_into(&mut out);
        assert_eq!(out, b"kept verified first");
        assert!(matches!(sb.verify(nonce, &sealed, b"bad"), Err(CryptoError::VerificationFailed)));
        assert!(matches!(
            sb.verify(nonce, &sealed[..3], b"aad"),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn wrong_aad_rejected() {
        let (sb, mut rng) = setup();
        let sealed = sb.seal(b"data", b"version 1", &mut rng);
        assert!(sb.open(&sealed, b"version 2").is_err());
        assert!(sb.open(&sealed, b"version 1").is_ok());
    }

    #[test]
    fn wrong_key_rejected() {
        let (sb, mut rng) = setup();
        let other = SealedBox::new(&SymmetricKey::from_bytes([8u8; 16]));
        let sealed = sb.seal(b"data", b"", &mut rng);
        assert!(other.open(&sealed, b"").is_err());
    }

    #[test]
    fn too_short_rejected() {
        let (sb, _) = setup();
        assert!(matches!(sb.open(&[0u8; 10], b""), Err(CryptoError::InvalidLength { .. })));
    }

    /// `{:?}` on the key holders prints no key, keyed MAC state or
    /// keystream bytes.
    #[test]
    fn debug_redacts_keys_midstates_and_keystream() {
        let (sb, mut rng) = setup();
        sb.seal(b"data", b"", &mut rng);
        assert_eq!(format!("{sb:?}"), "SealedBox { .. }");
        let mut mac = crate::hmac::HmacSha256::new(&[0x42; 32]);
        mac.update(b"message");
        assert_eq!(format!("{mac:?}"), "HmacSha256 { .. }");
        let mut ctr = crate::ctr::AesCtr::new(&SymmetricKey::from_bytes([9u8; 16]), [3; 8]);
        ctr.apply(&mut [0u8; 5]);
        assert_eq!(format!("{ctr:?}"), "AesCtr { next_block: 4, .. }");
    }

    #[test]
    fn seal_into_with_a_given_nonce_round_trips_and_binds_the_nonce() {
        let (sb, _) = setup();
        let mut frame = b"header".to_vec();
        sb.seal_into([4; NONCE_LEN], b"payload", b"aad", &mut frame);
        assert_eq!(&frame[..6], b"header", "appends after what is there");
        let body = &frame[6..];
        assert_eq!(body.len(), 7 + TAG_LEN, "no nonce on the wire");
        let mut out = Vec::new();
        sb.open_into([4; NONCE_LEN], body, b"aad", &mut out).unwrap();
        assert_eq!(out, b"payload");
        assert_eq!(
            sb.open_into([5; NONCE_LEN], body, b"aad", &mut out),
            Err(CryptoError::VerificationFailed)
        );
        // `seal` is `seal_into` behind a drawn nonce.
        let mut rng = CryptoRng::from_seed(10);
        let blob = sb.seal(b"payload", b"aad", &mut rng);
        let mut nonce = [0u8; NONCE_LEN];
        CryptoRng::from_seed(10).fill(&mut nonce);
        assert_eq!(blob[..NONCE_LEN], nonce);
        let mut again = Vec::new();
        sb.seal_into(nonce, b"payload", b"aad", &mut again);
        assert_eq!(blob[NONCE_LEN..], again[..]);
        assert!(matches!(
            sb.open_into([4; NONCE_LEN], &[0; TAG_LEN - 1], b"", &mut out),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn open_into_appends_and_leaves_the_buffer_alone_on_refusal() {
        let (sb, _) = setup();
        let mut body = Vec::new();
        sb.seal_into([6; NONCE_LEN], b"payload", b"aad", &mut body);
        let mut out = b"kept".to_vec();
        sb.open_into([6; NONCE_LEN], &body, b"aad", &mut out).unwrap();
        assert_eq!(out, b"keptpayload");
        body[0] ^= 1;
        assert_eq!(
            sb.open_into([6; NONCE_LEN], &body, b"aad", &mut out),
            Err(CryptoError::VerificationFailed)
        );
        assert_eq!(out, b"keptpayload", "nothing appended on a refused tag");
    }

    /// The tag is RFC 8439 §2.8's: Poly1305 over the padded associated
    /// data and ciphertext and their little-endian lengths, with `s` the
    /// keystream block before the ciphertext's.
    #[test]
    fn tag_is_poly1305_over_the_rfc8439_layout() {
        let (sb, _) = setup();
        let nonce = [9; NONCE_LEN];
        let (aad, plain) = (b"seventeen bytes!!".as_slice(), [0x33u8; 40]);
        let mut body = Vec::new();
        sb.seal_into(nonce, &plain, aad, &mut body);
        let (ct, tag) = body.split_at(plain.len());

        let mut stream = vec![0u8; 16 + plain.len()];
        let mut enc = [0u8; 16];
        let mut r = [0u8; 16];
        hkdf::derive(b"scbr-sealedbox", &[7u8; 16], b"enc", &mut enc);
        hkdf::derive(b"scbr-sealedbox", &[7u8; 16], b"poly1305-r", &mut r);
        crate::ctr::AesCtr::new(&SymmetricKey::from_bytes(enc), nonce).apply(&mut stream);
        let expected_ct: Vec<u8> = plain.iter().zip(&stream[16..]).map(|(p, k)| p ^ k).collect();
        assert_eq!(ct, expected_ct);

        let mut input = aad.to_vec();
        input.resize(32, 0);
        input.extend_from_slice(ct);
        input.resize(32 + 48, 0);
        input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        input.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        let mut key = [0u8; KEY_LEN];
        key[..16].copy_from_slice(&r);
        key[16..].copy_from_slice(&stream[..16]);
        let mut mac = Poly1305::new(&key);
        mac.update(&input);
        assert_eq!(tag, mac.finalize());
    }

    #[test]
    fn seal_is_randomised() {
        let (sb, mut rng) = setup();
        let a = sb.seal(b"same", b"", &mut rng);
        let b = sb.seal(b"same", b"", &mut rng);
        assert_ne!(a, b);
    }
}
