//! RSA public-key encryption and signatures (PKCS#1 v1.5-style padding).
//!
//! SCBR uses RSA on the client → producer leg of the subscription key
//! exchange: the client encrypts its subscription under the producer's
//! public key `PK`, and the producer signs re-encrypted subscriptions it
//! forwards to the routing enclave.
//!
//! Key generation draws two random primes (via [`crate::prime`]) and uses
//! the standard `e = 65537`. Each key builds its Montgomery contexts once —
//! `n` for a public key, `p` and `q` for a private key — and every
//! operation reuses them.
//!
//! **Timing.** Constant-time in the private key: [`RsaPrivateKey::sign`]
//! and [`RsaPrivateKey::decrypt`] run both CRT halves on a fixed 4-bit
//! window ladder over the full width of `p`/`q` (masked table reads, masked
//! final subtraction), recombine with a masked add, and scan the type-2
//! padding with masks; what remains data-dependent is the result's
//! conversion to bytes (it skips leading zero bytes), the length of the
//! plaintext returned and whether the padding was valid. Variable-time on
//! purpose: [`RsaPublicKey::verify`] and [`RsaPublicKey::encrypt`]
//! (square-and-multiply over the public `e`) and key generation's
//! rejection of prime candidates (trial division and Miller–Rabin exit
//! early on a composite, which reveals nothing about the primes kept).
//!
//! Signing is deterministic PKCS#1 v1.5: the same key and message always
//! give the same signature bytes.

use crate::bigint::{BigUint, MontCtx};
use crate::error::CryptoError;
use crate::prime::generate_rsa_factor;
use crate::rng::CryptoRng;
use crate::sha256::Sha256;

/// Fixed public exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// DER prefix of the `DigestInfo` structure for SHA-256 (RFC 8017 §9.2).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
///
/// Equality and `Debug` see `(n, e)` only, never the cached context.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Montgomery context for `n`; `None` only for an even or unit modulus
    /// handed to [`RsaPublicKey::from_parts`], under which every operation
    /// fails.
    ctx: Option<MontCtx>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey").field("n", &self.n).field("e", &self.e).finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    n: BigUint,
    d: BigUint,
    p: CrtFactor,
    q: CrtFactor,
    /// `q⁻¹ mod p`, in the Montgomery form of `p`'s context.
    q_inv: Vec<u64>,
}

/// One prime of the CRT: its Montgomery context and the exponent
/// `d mod (f − 1)`, padded to the context's width.
#[derive(Clone)]
struct CrtFactor {
    ctx: MontCtx,
    exp: Vec<u64>,
}

impl CrtFactor {
    fn new(f: &BigUint, d: &BigUint) -> Self {
        let ctx = MontCtx::new(f).expect("RSA factors are odd primes");
        let exp = ctx.exponent(&d.rem(&f.checked_sub(&BigUint::one()).expect("f >= 2")));
        CrtFactor { ctx, exp }
    }

    /// `c^exp mod f` as plain limbs, on the constant-time ladder.
    fn pow(&self, c: &BigUint) -> Vec<u64> {
        self.ctx.redc(&self.ctx.pow_ct(&self.ctx.to_mont(c), &self.exp))
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey").field("modulus_bits", &self.n.bits()).finish()
    }
}

/// A matched RSA key pair.
///
/// ```
/// use scbr_crypto::{RsaKeyPair, CryptoRng};
///
/// let mut rng = CryptoRng::from_seed(7);
/// let pair = RsaKeyPair::generate(512, &mut rng)?;
/// let ct = pair.public().encrypt(b"secret subscription", &mut rng)?;
/// assert_eq!(pair.private().decrypt(&ct)?, b"secret subscription");
/// # Ok::<(), scbr_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    private: RsaPrivateKey,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Show only the public half; the private key redacts itself too.
        f.debug_struct("RsaKeyPair").field("public", &self.public).finish()
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with an `bits`-bit modulus.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if `bits < 256` (too small even
    /// for testing) or odd sizes are requested.
    pub fn generate(bits: usize, rng: &mut CryptoRng) -> Result<Self, CryptoError> {
        if bits < 256 || !bits.is_multiple_of(2) {
            return Err(CryptoError::InvalidKey {
                reason: "modulus size must be an even number >= 256",
            });
        }
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = generate_rsa_factor(bits / 2, &e, rng);
            let q = generate_rsa_factor(bits / 2, &e, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.checked_sub(&one).expect("p >= 2");
            let q1 = q.checked_sub(&one).expect("q >= 2");
            let phi = p1.mul(&q1);
            let d = match e.mod_inverse(&phi) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let q_inv = match q.mod_inverse(&p) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let (p, q) = (CrtFactor::new(&p, &d), CrtFactor::new(&q, &d));
            let q_inv = p.ctx.to_mont(&q_inv);
            let public = RsaPublicKey::from_parts(n.clone(), e.clone());
            let private = RsaPrivateKey { n, d, p, q, q_inv };
            return Ok(RsaKeyPair { public, private });
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private half.
    pub fn private(&self) -> &RsaPrivateKey {
        &self.private
    }

    /// Splits the pair into its halves.
    pub fn into_parts(self) -> (RsaPublicKey, RsaPrivateKey) {
        (self.public, self.private)
    }
}

impl RsaPublicKey {
    /// Constructs a public key from raw `n` and `e`.
    ///
    /// Unchecked: under an even modulus or `n < 3` (which
    /// [`RsaPublicKey::from_bytes`] refuses) every operation returns an
    /// error.
    pub fn from_parts(n: BigUint, e: BigUint) -> Self {
        let ctx = MontCtx::new(&n);
        RsaPublicKey { n, e, ctx }
    }

    /// Serialises the key as `len(n) (4 BE) || n || len(e) (4 BE) || e`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses a key serialised by [`RsaPublicKey::to_bytes`].
    ///
    /// The bytes are attacker-supplied in the link handshake and during
    /// provisioning, so structurally impossible keys are refused here.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] on malformed input, an even
    /// modulus, `n < 3` or `e = 0`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = CryptoError::InvalidEncoding { context: "rsa public key" };
        let read = |buf: &[u8]| -> Result<(BigUint, usize), CryptoError> {
            if buf.len() < 4 {
                return Err(err.clone());
            }
            let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            if buf.len() < 4 + len {
                return Err(err.clone());
            }
            Ok((BigUint::from_bytes_be(&buf[4..4 + len]), 4 + len))
        };
        let (n, used) = read(bytes)?;
        let (e, used2) = read(&bytes[used..])?;
        if used + used2 != bytes.len() || e.is_zero() {
            return Err(err);
        }
        let key = RsaPublicKey::from_parts(n, e);
        if key.ctx.is_none() {
            return Err(err);
        }
        Ok(key)
    }

    /// Modulus size in bytes (k in RFC 8017 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Modulus.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// Public exponent.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// A short fingerprint of the key (first 8 bytes of SHA-256 of `n || e`).
    pub fn fingerprint(&self) -> [u8; 8] {
        let mut h = Sha256::new();
        h.update(&self.n.to_bytes_be());
        h.update(&self.e.to_bytes_be());
        let d = h.finalize();
        d[..8].try_into().expect("8 bytes")
    }

    /// Encrypts `msg` with PKCS#1 v1.5 padding (type 2).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if `msg` exceeds `k - 11`
    /// bytes for a `k`-byte modulus, and [`CryptoError::InvalidKey`] under
    /// an even modulus or `n < 3`.
    pub fn encrypt(&self, msg: &[u8], rng: &mut CryptoRng) -> Result<Vec<u8>, CryptoError> {
        let Some(ctx) = &self.ctx else {
            return Err(CryptoError::InvalidKey { reason: "modulus must be odd and at least 3" });
        };
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong);
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_len = k - 3 - msg.len();
        for i in 0..ps_len {
            let mut b = [0u8; 1];
            loop {
                rng.fill(&mut b);
                if b[0] != 0 {
                    break;
                }
            }
            em[2 + i] = b[0];
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        // EM starts with 0x00, so m < 256^(k−1) ≤ n.
        let m = BigUint::from_bytes_be(&em);
        ctx.pow_public(&m, &self.e).to_bytes_be_padded(k)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the signature does not
    /// check out, and [`CryptoError::InvalidLength`] if it has the wrong
    /// size.
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength { context: "rsa signature" });
        }
        let s = BigUint::from_bytes_be(signature);
        let Some(ctx) = &self.ctx else {
            return Err(CryptoError::VerificationFailed);
        };
        if s >= self.n {
            return Err(CryptoError::VerificationFailed);
        }
        let em = ctx.pow_public(&s, &self.e).to_bytes_be_padded(k)?;
        let expected = signature_encoding(msg, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

/// EMSA-PKCS1-v1_5 encoding of the SHA-256 digest of `msg`.
fn signature_encoding(msg: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = Sha256::digest(msg);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::InvalidKey { reason: "modulus too small for sha-256 signature" });
    }
    let mut em = vec![0xffu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    em[k - t_len - 1] = 0x00;
    em[k - t_len..k - digest.len()].copy_from_slice(&SHA256_DIGEST_INFO);
    em[k - digest.len()..].copy_from_slice(&digest);
    Ok(em)
}

impl RsaPrivateKey {
    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// The private exponent `d` (exposed for auditing and tests).
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// RSA private operation `c^d mod n` for `c < n`, via the CRT and in
    /// constant time.
    fn private_op(&self, c: &BigUint) -> BigUint {
        let m1 = self.p.pow(c);
        let m2 = self.q.pow(c);
        self.p.ctx.crt_combine(&m1, &m2, &self.q_inv, &self.q.ctx)
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] on any padding problem
    /// (deliberately indistinguishable) and [`CryptoError::InvalidLength`]
    /// for wrong-size inputs.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if ciphertext.len() != k || k < 11 {
            return Err(CryptoError::InvalidLength { context: "rsa ciphertext" });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.n {
            return Err(CryptoError::VerificationFailed);
        }
        let em = self.private_op(&c).to_bytes_be_padded(k)?;
        // The 0x00 separator must follow at least 8 bytes of padding. Find
        // the first one by a masked scan of every byte (0 if there is none)
        // and judge the whole encoding at once.
        let mut sep = 0usize;
        for (i, &b) in em.iter().enumerate().skip(2) {
            let first = usize::from(b == 0) & usize::from(sep == 0);
            sep |= i & first.wrapping_neg();
        }
        if (em[0] == 0x00) & (em[1] == 0x02) & (sep >= 10) {
            Ok(em[sep + 1..].to_vec())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }

    /// Signs the SHA-256 digest of `msg` (PKCS#1 v1.5).
    ///
    /// # Errors
    ///
    /// Returns an error if the modulus is too small to hold the encoding.
    pub fn sign(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        let em = signature_encoding(msg, k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.private_op(&m);
        s.to_bytes_be_padded(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pair() -> RsaKeyPair {
        // 512-bit keys keep tests fast; generation is still exercised.
        let mut rng = CryptoRng::from_seed(1234);
        RsaKeyPair::generate(512, &mut rng).unwrap()
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let pair = test_pair();
        let mut rng = CryptoRng::from_seed(5);
        for msg in [&b""[..], b"x", b"hello scbr", &[0xffu8; 53]] {
            let ct = pair.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(ct.len(), pair.public().modulus_len());
            assert_eq!(pair.private().decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomised() {
        let pair = test_pair();
        let mut rng = CryptoRng::from_seed(6);
        let a = pair.public().encrypt(b"same message", &mut rng).unwrap();
        let b = pair.public().encrypt(b"same message", &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn message_too_long_rejected() {
        let pair = test_pair();
        let mut rng = CryptoRng::from_seed(7);
        let too_long = vec![1u8; pair.public().modulus_len() - 10];
        assert_eq!(pair.public().encrypt(&too_long, &mut rng), Err(CryptoError::MessageTooLong));
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let pair = test_pair();
        let mut rng = CryptoRng::from_seed(8);
        let mut ct = pair.public().encrypt(b"secret", &mut rng).unwrap();
        ct[10] ^= 1;
        assert!(pair.private().decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_length_ciphertext_fails() {
        let pair = test_pair();
        assert!(pair.private().decrypt(&[0u8; 10]).is_err());
    }

    #[test]
    fn sign_verify_round_trip() {
        let pair = test_pair();
        let sig = pair.private().sign(b"subscription: price < 50").unwrap();
        assert!(pair.public().verify(b"subscription: price < 50", &sig).is_ok());
    }

    #[test]
    fn signature_rejects_wrong_message() {
        let pair = test_pair();
        let sig = pair.private().sign(b"msg a").unwrap();
        assert_eq!(pair.public().verify(b"msg b", &sig), Err(CryptoError::VerificationFailed));
    }

    #[test]
    fn signature_rejects_tampering() {
        let pair = test_pair();
        let mut sig = pair.private().sign(b"msg").unwrap();
        sig[0] ^= 0x80;
        assert!(pair.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let pair_a = test_pair();
        let mut rng = CryptoRng::from_seed(4321);
        let pair_b = RsaKeyPair::generate(512, &mut rng).unwrap();
        let sig = pair_a.private().sign(b"msg").unwrap();
        assert!(pair_b.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn generate_rejects_tiny_or_odd_sizes() {
        let mut rng = CryptoRng::from_seed(9);
        assert!(RsaKeyPair::generate(128, &mut rng).is_err());
        assert!(RsaKeyPair::generate(511, &mut rng).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let a = test_pair();
        let mut rng = CryptoRng::from_seed(99);
        let b = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert_eq!(a.public().fingerprint(), a.public().fingerprint());
        assert_ne!(a.public().fingerprint(), b.public().fingerprint());
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let pair = test_pair();
        let bytes = pair.public().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, pair.public());
        // Debug shows (n, e) only, never the cached context.
        assert_eq!(
            format!("{back:?}"),
            format!("RsaPublicKey {{ n: {:?}, e: {:?} }}", back.n(), back.e())
        );
        // Malformed inputs are rejected.
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RsaPublicKey::from_bytes(&extra).is_err());
    }

    #[test]
    fn private_exponent_consistent_with_crt() {
        // e * d == 1 (mod lcm is implied); check the textbook identity
        // m^(e*d) == m (mod n) using the exposed d directly.
        let pair = test_pair();
        let m = BigUint::from_u64(0x1234_5678_9abc);
        let c = m.modpow(pair.public().e(), pair.public().n());
        let back = c.modpow(pair.private().d(), pair.public().n());
        assert_eq!(back, m);
    }

    #[test]
    fn crt_private_op_equals_plain_exponentiation() {
        let pair = test_pair();
        let n = pair.public().n();
        let n_minus_1 = n.checked_sub(&BigUint::one()).unwrap();
        let em = BigUint::from_bytes_be(
            &signature_encoding(b"msg", pair.public().modulus_len()).unwrap(),
        );
        for m in [BigUint::zero(), BigUint::one(), BigUint::from_u64(2), n_minus_1, em] {
            assert_eq!(pair.private().private_op(&m), m.modpow(pair.private().d(), n));
        }
    }

    #[test]
    fn hostile_public_keys_are_refused() {
        let pair = test_pair();
        let n = pair.public().n();
        let e = pair.public().e().clone();
        let even = n.add(&BigUint::one());
        for bad_n in [even, BigUint::one(), BigUint::from_u64(2), BigUint::zero()] {
            let bytes = RsaPublicKey::from_parts(bad_n.clone(), e.clone()).to_bytes();
            assert!(RsaPublicKey::from_bytes(&bytes).is_err(), "n = {bad_n:?}");
            // The unchecked constructor still yields a key whose every
            // operation fails cleanly.
            let key = RsaPublicKey::from_parts(bad_n, e.clone());
            let k = key.modulus_len();
            for sig in [vec![0u8; k], vec![0xffu8; k], vec![1u8; k + 1]] {
                assert!(key.verify(b"msg", &sig).is_err());
            }
            assert!(key.encrypt(b"x", &mut CryptoRng::from_seed(1)).is_err());
        }
    }

    #[test]
    fn debug_does_not_leak_private_key() {
        let pair = test_pair();
        let dbg = format!("{:?}", pair.private());
        assert!(dbg.contains("modulus_bits"));
        assert!(!dbg.to_lowercase().contains("d:"));
    }
}
