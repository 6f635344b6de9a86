//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used to authenticate sealed enclave state, subscription envelopes and the
//! simulator's memory-integrity tree.

use crate::ct::ct_eq;
use crate::sha256::{Sha256, DIGEST_LEN};

/// Length of an HMAC-SHA256 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA256 computation.
///
/// ```
/// use scbr_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert!(HmacSha256::verify(b"key", b"The quick brown fox jumps over the lazy dog", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keyed ipad/opad states are as good as the key for forging
        // tags: never print them.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC and returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; TAG_LEN] {
        let mut m = HmacSha256::new(key);
        m.update(data);
        m.finalize()
    }

    /// Verifies `tag` over `data` under `key` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        ct_eq(&expected, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let tag = HmacSha256::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case_3() {
        let tag = HmacSha256::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(hex(&tag), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let tag = HmacSha256::mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"k", b"msg");
        assert!(HmacSha256::verify(b"k", b"msg", &tag));
        assert!(!HmacSha256::verify(b"k", b"msh", &tag));
        assert!(!HmacSha256::verify(b"j", b"msg", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"msg", &bad));
        assert!(!HmacSha256::verify(b"k", b"msg", &tag[..31]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut m = HmacSha256::new(b"key");
        m.update(b"hello ");
        m.update(b"world");
        assert_eq!(m.finalize(), HmacSha256::mac(b"key", b"hello world"));
    }
}
