//! # scbr-crypto
//!
//! From-scratch cryptographic substrate for the SCBR reproduction.
//!
//! The original SCBR prototype ([Pires et al., Middleware '16]) used the
//! Crypto++ library outside the enclave and the Intel SGX SDK crypto inside
//! it, with **AES-CTR** for symmetric encryption of publication headers and
//! subscriptions, and **RSA** for the client → producer leg of the key
//! exchange. This crate implements AES-CTR, RSA signatures (producer
//! registrations and platform quotes) and **X25519** for every key
//! agreement (the attested exchange that provisions `SK` and keys overlay
//! links, and each admitted client's pairwise key with the producer),
//! plus the supporting hash/MAC/KDF machinery, with no external
//! dependencies beyond a random number generator, so that the whole
//! system can be built and audited offline.
//!
//! ## Contents
//!
//! * [`aes`] — AES-128/AES-256 block cipher (FIPS-197), bitsliced and
//!   table-free, four blocks per call.
//! * [`ctr`] — counter-mode stream encryption ([`ctr::AesCtr`]), as used for
//!   SCBR headers and subscriptions.
//! * [`authenc`] — AES-CTR + Poly1305-AES authenticated encryption
//!   ([`authenc::SealedBox`]), used by the enclave simulator for sealing,
//!   by sealed overlay links, and by SCBR for the `SK` grant, client
//!   submissions and group keys.
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439 §2.5).
//! * [`sha256`], [`hmac`], [`hkdf`] — SHA-256, HMAC-SHA256 and HKDF.
//! * [`bigint`], [`prime`], [`rsa`] — multi-precision arithmetic, prime
//!   generation and RSA (PKCS#1 v1.5 SHA-256 signatures).
//! * [`x25519`] — X25519 Diffie–Hellman (RFC 7748): the ephemeral keys of
//!   the attested key exchange and the clients' pairwise keys.
//! * [`ct`] — constant-time comparison helpers.
//! * [`rng`] — deterministic and OS-seeded random sources.
//!
//! ## Quick example
//!
//! ```
//! use scbr_crypto::ctr::{AesCtr, SymmetricKey};
//!
//! let key = SymmetricKey::from_bytes([7u8; 16]);
//! let nonce = [1u8; 8];
//! let mut data = b"symbol=HAL price=49.5".to_vec();
//! AesCtr::new(&key, nonce).apply(&mut data); // encrypt in place
//! AesCtr::new(&key, nonce).apply(&mut data); // decrypt in place
//! assert_eq!(&data, b"symbol=HAL price=49.5");
//! ```
//!
//! ## Security note
//!
//! Enclaves hold keys here, so the code that uses a key keeps its timing
//! independent of it where that was in scope. AES has no load indexed by
//! key or data and no branch on either, in the rounds or in the key
//! schedule (a bitsliced circuit, see [`aes`]); RSA's private-key
//! operations run on a constant-time ladder (see [`rsa`] for exactly
//! which paths are constant-time); Poly1305 has no branch on key,
//! message or tag, down to its masked final reduction ([`poly1305`]);
//! X25519 runs all 255 ladder steps whatever the scalar, swaps its
//! working points by a mask rather than a branch, inverts by a fixed
//! chain for the public exponent p − 2 and reduces by carries rather
//! than comparisons, so no load and no branch depends on the scalar or
//! the point ([`x25519`]); tags are compared in constant time ([`ct`]).
//! What stays variable-time: RSA is not blinded and its
//! public-key operations, key generation and `BigUint` arithmetic branch
//! on their inputs; lengths (of messages, associated data and HKDF
//! output) are public and steer loops; and nothing models cache or
//! power leakage of the platform itself. These are faithful functional
//! substitutes for the paper's crypto stack, suitable for research and
//! reproduction, **not** for production deployment.
//!
//! [Pires et al., Middleware '16]: https://doi.org/10.1145/2988336.2988346

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod authenc;
pub mod bigint;
pub mod ct;
pub mod ctr;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;
pub mod x25519;

pub use authenc::SealedBox;
pub use bigint::BigUint;
pub use ctr::{AesCtr, SymmetricKey};
pub use error::CryptoError;
pub use rng::CryptoRng;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::Sha256;

#[cfg(test)]
mod tests {
    use super::CryptoRng;

    /// The workspace's one seeded generator, reached through the crate
    /// root as every other crate reaches it: equal seeds agree draw for
    /// draw, neighbouring seeds do not.
    #[test]
    fn deterministic_per_seed() {
        let mut a = CryptoRng::from_seed(42);
        let mut b = CryptoRng::from_seed(42);
        let mut c = CryptoRng::from_seed(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
