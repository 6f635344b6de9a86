//! HKDF-SHA256 (RFC 5869).
//!
//! Used for deriving session keys in the remote-attestation handshake and
//! for enclave sealing-key derivation in the SGX simulator.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes of output keying
/// material bound to `info`.
///
/// # Panics
///
/// Panics if more than `255 * 32` bytes are requested, per RFC 5869.
pub fn expand(prk: &[u8], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "hkdf output too long");
    let keyed = HmacSha256::new(prk);
    // T(0) is empty; T(i) = HMAC(prk, T(i-1) || info || i).
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0;
    for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1..=u8::MAX) {
        let mut mac = keyed.clone();
        mac.update(&t[..t_len]);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        t_len = DIGEST_LEN;
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-shot HKDF: extract-then-expand.
///
/// ```
/// let mut key = [0u8; 16];
/// scbr_crypto::hkdf::derive(b"salt", b"shared secret", b"scbr session", &mut key);
/// assert_ne!(key, [0u8; 16]);
/// ```
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(hex(&prk), "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let prk = extract(b"", &ikm);
        let mut okm = [0u8; 42];
        expand(&prk, b"", &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn different_info_different_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"s", b"ikm", b"context a", &mut a);
        derive(b"s", b"ikm", b"context b", &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn expands_to_the_maximum_length() {
        let prk = extract(b"salt", b"ikm");
        let mut max = vec![0u8; 255 * DIGEST_LEN];
        expand(&prk, b"info", &mut max);
        let mut short = [0u8; DIGEST_LEN];
        expand(&prk, b"info", &mut short);
        assert_eq!(&max[..DIGEST_LEN], &short[..]);
        assert_ne!(&max[254 * DIGEST_LEN..], &[0u8; DIGEST_LEN][..]);
    }

    #[test]
    fn multi_block_expand() {
        let prk = extract(b"salt", b"ikm");
        let mut long = vec![0u8; 100];
        expand(&prk, b"info", &mut long);
        let mut short = vec![0u8; 32];
        expand(&prk, b"info", &mut short);
        // Prefix property: the first block of a longer expansion matches.
        assert_eq!(&long[..32], &short[..]);
    }
}
