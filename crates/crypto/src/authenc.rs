//! Authenticated encryption: AES-CTR + HMAC-SHA256 (encrypt-then-MAC).
//!
//! The SGX simulator uses this construction for sealed storage (real SGX
//! uses AES-GCM inside `sgx_seal_data`; encrypt-then-MAC with independent
//! keys provides the same integrity + confidentiality contract), and SCBR
//! uses it for the signed, encrypted subscription envelopes forwarded by
//! producers to routers.
//!
//! A [`SealedBox`] is a key holder: it derives its cipher and MAC keys
//! once, keeps the cipher's expanded AES schedule and the HMAC's keyed
//! ipad/opad SHA-256 states, and so pays neither a key expansion nor a
//! key-block compression per [`SealedBox::seal`] or [`SealedBox::open`].

use crate::aes::Aes;
use crate::ctr::{self, SymmetricKey, NONCE_LEN};
use crate::error::CryptoError;
use crate::hkdf;
use crate::hmac::{HmacSha256, TAG_LEN};
use crate::rng::CryptoRng;

/// Authenticated encryption box deriving independent cipher and MAC keys
/// from one master key.
///
/// Wire format: `nonce (8) || ciphertext || tag (32)`. The optional
/// *associated data* is authenticated but not encrypted.
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
    /// HMAC keyed with the derived MAC key and fed nothing else: each tag
    /// starts from a copy.
    mac: HmacSha256,
}

impl std::fmt::Debug for SealedBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the schedule or the keyed MAC states.
        f.debug_struct("SealedBox").finish_non_exhaustive()
    }
}

impl SealedBox {
    /// Derives the cipher and MAC sub-keys from `master` via HKDF.
    pub fn new(master: &SymmetricKey) -> Self {
        let mut enc = [0u8; 16];
        let mut mac = [0u8; 32];
        hkdf::derive(b"scbr-sealedbox", master.as_bytes(), b"enc", &mut enc);
        hkdf::derive(b"scbr-sealedbox", master.as_bytes(), b"mac", &mut mac);
        SealedBox {
            cipher: Aes::new(&enc).expect("16-byte derived key"),
            mac: HmacSha256::new(&mac),
        }
    }

    /// Encrypts and authenticates `plaintext`, binding `aad` into the tag.
    pub fn seal(&self, plaintext: &[u8], aad: &[u8], rng: &mut CryptoRng) -> Vec<u8> {
        let mut out = ctr::seal_framed(&self.cipher, rng, plaintext, TAG_LEN);
        let tag = self.tag(&out, aad);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a sealed message.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not match
    /// (tampered ciphertext, wrong key, or wrong associated data) and
    /// [`CryptoError::InvalidLength`] for impossible sizes.
    pub fn open(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < NONCE_LEN + TAG_LEN {
            return Err(CryptoError::InvalidLength { context: "sealed message" });
        }
        let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(body, aad);
        if !crate::ct::ct_eq(&expected, tag) {
            return Err(CryptoError::VerificationFailed);
        }
        let mut plain = Vec::new();
        ctr::open_framed(&self.cipher, body, &mut plain)?;
        Ok(plain)
    }

    fn tag(&self, nonce_and_ct: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac.clone();
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        mac.update(nonce_and_ct);
        mac.finalize()
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
        let mut mac = HmacSha256::new(&[0x42; 32]);
        mac.update(b"message");
        assert_eq!(format!("{mac:?}"), "HmacSha256 { .. }");
        let mut ctr = crate::ctr::AesCtr::new(&SymmetricKey::from_bytes([9u8; 16]), [3; 8]);
        ctr.apply(&mut [0u8; 5]);
        assert_eq!(format!("{ctr:?}"), "AesCtr { next_block: 4, .. }");
    }

    #[test]
    fn seal_is_randomised() {
        let (sb, mut rng) = setup();
        let a = sb.seal(b"same", b"", &mut rng);
        let b = sb.seal(b"same", b"", &mut rng);
        assert_ne!(a, b);
    }
}
