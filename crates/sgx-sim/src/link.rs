//! Attested broker-to-broker link sessions.
//!
//! The SCBR overlay (a Siena-style network of routing enclaves) needs a
//! way for two routers on *different* machines to convince each other that
//! the peer really is the expected routing code in a genuine enclave, and
//! to agree on a symmetric key protecting the link between them. This
//! module builds that on the attested key exchange of [`crate::attest`],
//! the one `SK` provisioning runs: a three-message handshake of **mutual
//! quotes**, each side's hello a [`QuotedKey`] (a quote committing to a
//! fresh RSA response key), finishing with an HKDF-derived 256-bit link
//! key.
//!
//! ```text
//! initiator                                   responder
//!   [hello]  ── quote(bind pk_i), pk_i ──────▶  verify quote+policy
//!            ◀─ quote(bind pk_r), pk_r, ───── [accept]
//!               {secret_r}pk_i
//!  [finish]  ── {secret_i}pk_r ──────────────▶ [complete]
//!
//!   link key = HKDF(salt = mr_i ‖ mr_r,
//!                   ikm  = secret_i ‖ secret_r,
//!                   info = "scbr-overlay-link-v1")
//! ```
//!
//! Each side refuses to contribute its secret before the peer's quoted key
//! has passed [`QuotedKey::verify`] against the [`AttestationService`]
//! *and* the caller's [`VerifierPolicy`] — a router whose measurement
//! differs (tampered binary) or whose platform is untrusted (emulator)
//! never obtains a link key, so it can neither receive forwarded
//! subscriptions nor inject publications into the overlay.

use crate::attest::{join_prefixed, split_prefixed, AttestationService, QuotedKey, VerifierPolicy};
use crate::enclave::{Enclave, Measurement};
use crate::error::SgxError;
use crate::platform::SgxPlatform;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaKeyPair;

/// Length of a derived link key in bytes.
pub const LINK_KEY_LEN: usize = 32;

/// Per-secret contribution length in bytes.
const SECRET_LEN: usize = 32;

/// HKDF info label pinning the protocol version.
const LINK_INFO: &[u8] = b"scbr-overlay-link-v1";

/// A symmetric key shared by the two enclaves at the ends of a link.
#[derive(Clone, PartialEq, Eq)]
pub struct LinkKey([u8; LINK_KEY_LEN]);

impl LinkKey {
    /// The raw key bytes (feed into an AEAD, e.g. a sealed link channel).
    pub fn as_bytes(&self) -> &[u8; LINK_KEY_LEN] {
        &self.0
    }
}

impl std::fmt::Debug for LinkKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "LinkKey(…)")
    }
}

/// Second handshake message: the responder's hello plus its wrapped secret.
#[derive(Debug, Clone)]
pub struct LinkAccept {
    /// The responder's own quoted response key.
    pub hello: QuotedKey,
    /// The responder's secret contribution, encrypted to the initiator's
    /// response key.
    pub wrapped_secret: Vec<u8>,
}

impl LinkAccept {
    /// Serialises for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        join_prefixed(&[&self.hello.to_bytes(), &self.wrapped_secret])
    }

    /// Parses an accept serialised by [`LinkAccept::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let [hello, wrapped] = split_prefixed(bytes, "malformed link accept")?;
        Ok(LinkAccept { hello: QuotedKey::from_bytes(hello)?, wrapped_secret: wrapped.to_vec() })
    }
}

/// Third handshake message: the initiator's wrapped secret.
#[derive(Debug, Clone)]
pub struct LinkFinish {
    /// The initiator's secret contribution, encrypted to the responder's
    /// response key.
    pub wrapped_secret: Vec<u8>,
}

impl LinkFinish {
    /// Serialises for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        join_prefixed(&[&self.wrapped_secret])
    }

    /// Parses a finish serialised by [`LinkFinish::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let [wrapped] = split_prefixed(bytes, "malformed link finish")?;
        Ok(LinkFinish { wrapped_secret: wrapped.to_vec() })
    }
}

/// Initiator-side handshake state between [`initiate`] and [`finish`]
/// (conceptually enclave-resident: it holds the response private key).
#[derive(Debug)]
pub struct LinkInitiator {
    pair: RsaKeyPair,
    mr_local: Measurement,
}

/// Responder-side handshake state between [`accept`] and [`complete`].
#[derive(Debug)]
pub struct LinkResponder {
    pair: RsaKeyPair,
    secret_local: [u8; SECRET_LEN],
    mr_initiator: Measurement,
    mr_local: Measurement,
}

/// Starts a link handshake: inside the enclave, generate a response key
/// pair and the report committing to it; the hello is its quote.
///
/// # Errors
///
/// Propagates key-generation and quoting failures.
pub fn initiate(
    platform: &SgxPlatform,
    enclave: &Enclave,
    rng: &mut CryptoRng,
) -> Result<(QuotedKey, LinkInitiator), SgxError> {
    let (report, pair) = enclave.ecall(|ctx| QuotedKey::generate(ctx, rng))?;
    let hello = QuotedKey::quote(platform, &report, &pair)?;
    Ok((hello, LinkInitiator { pair, mr_local: enclave.identity().mr_enclave }))
}

/// Responder side: verify the initiator's quoted key against `service`
/// and `policy`, then answer with an own quoted key plus a wrapped secret
/// contribution.
///
/// # Errors
///
/// Any attestation failure, policy violation or binding mismatch refuses
/// the link before any secret material is produced.
pub fn accept(
    platform: &SgxPlatform,
    enclave: &Enclave,
    service: &AttestationService,
    policy: &VerifierPolicy,
    peer: &QuotedKey,
    rng: &mut CryptoRng,
) -> Result<(LinkAccept, LinkResponder), SgxError> {
    let (mr_initiator, (report, pair), (secret, wrapped)) = enclave.ecall(|ctx| {
        let mr_initiator = peer.verify(service, policy)?.mr_enclave;
        let own = QuotedKey::generate(ctx, rng)?;
        Ok::<_, SgxError>((mr_initiator, own, contribute(peer, rng)?))
    })?;
    let accept =
        LinkAccept { hello: QuotedKey::quote(platform, &report, &pair)?, wrapped_secret: wrapped };
    let responder = LinkResponder {
        pair,
        secret_local: secret,
        mr_initiator,
        mr_local: enclave.identity().mr_enclave,
    };
    Ok((accept, responder))
}

/// Initiator side: verify the responder's quoted key, unwrap its secret,
/// contribute an own secret, and derive the link key.
///
/// # Errors
///
/// Any attestation failure, policy violation, binding mismatch or unwrap
/// failure aborts the handshake.
pub fn finish(
    initiator: LinkInitiator,
    peer: &LinkAccept,
    service: &AttestationService,
    policy: &VerifierPolicy,
    enclave: &Enclave,
    rng: &mut CryptoRng,
) -> Result<(LinkFinish, LinkKey), SgxError> {
    enclave.ecall(|_ctx| {
        let mr_responder = peer.hello.verify(service, policy)?.mr_enclave;
        let secret_peer = unwrap_secret(&initiator.pair, &peer.wrapped_secret)?;
        let (secret_local, wrapped) = contribute(&peer.hello, rng)?;
        let key = derive_key(initiator.mr_local, mr_responder, &secret_local, &secret_peer);
        Ok((LinkFinish { wrapped_secret: wrapped }, key))
    })
}

/// Responder side: unwrap the initiator's secret and derive the same link
/// key as [`finish`].
///
/// # Errors
///
/// [`SgxError::AttestationFailed`] if the wrapped secret does not unwrap
/// under the responder's response key.
pub fn complete(
    responder: LinkResponder,
    finish: &LinkFinish,
    enclave: &Enclave,
) -> Result<LinkKey, SgxError> {
    enclave.ecall(|_ctx| {
        let secret_peer = unwrap_secret(&responder.pair, &finish.wrapped_secret)?;
        Ok(derive_key(
            responder.mr_initiator,
            responder.mr_local,
            &secret_peer,
            &responder.secret_local,
        ))
    })
}

/// Draws this side's secret contribution and wraps it to the peer's
/// response key, which [`QuotedKey::verify`] has accepted.
fn contribute(
    peer: &QuotedKey,
    rng: &mut CryptoRng,
) -> Result<([u8; SECRET_LEN], Vec<u8>), SgxError> {
    let mut secret = [0u8; SECRET_LEN];
    rng.fill(&mut secret);
    let wrapped = peer
        .response_key
        .encrypt(&secret, rng)
        .map_err(|_| SgxError::AttestationFailed { reason: "link secret wrap failed" })?;
    Ok((secret, wrapped))
}

/// Unwraps the peer's secret contribution under this side's response key.
fn unwrap_secret(pair: &RsaKeyPair, wrapped: &[u8]) -> Result<Vec<u8>, SgxError> {
    pair.private()
        .decrypt(wrapped)
        .map_err(|_| SgxError::AttestationFailed { reason: "link secret unwrap failed" })
}

/// Both ends derive the same key from the ordered measurements and the
/// ordered secret contributions (initiator first).
fn derive_key(
    mr_initiator: Measurement,
    mr_responder: Measurement,
    secret_initiator: &[u8],
    secret_responder: &[u8],
) -> LinkKey {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(&mr_initiator);
    salt.extend_from_slice(&mr_responder);
    let mut ikm = Vec::with_capacity(secret_initiator.len() + secret_responder.len());
    ikm.extend_from_slice(secret_initiator);
    ikm.extend_from_slice(secret_responder);
    let mut key = [0u8; LINK_KEY_LEN];
    scbr_crypto::hkdf::derive(&salt, &ikm, LINK_INFO, &mut key);
    LinkKey(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;

    const ROUTER_CODE: &[u8] = b"scbr overlay router v1";

    fn router(platform: &SgxPlatform) -> Enclave {
        platform.launch(EnclaveBuilder::new("scbr-router").add_page(ROUTER_CODE)).unwrap()
    }

    fn trust_both(a: &SgxPlatform, b: &SgxPlatform) -> AttestationService {
        let mut service = AttestationService::new();
        service.trust_platform(a.attestation_public_key().clone());
        service.trust_platform(b.attestation_public_key().clone());
        service
    }

    /// Runs the whole handshake between two enclaves, returning both keys.
    fn handshake(
        pa: &SgxPlatform,
        ea: &Enclave,
        pb: &SgxPlatform,
        eb: &Enclave,
        service: &AttestationService,
        policy: &VerifierPolicy,
        seed: u64,
    ) -> Result<(LinkKey, LinkKey), SgxError> {
        let mut rng_a = CryptoRng::from_seed(seed);
        let mut rng_b = CryptoRng::from_seed(seed + 1);
        let (hello, st_a) = initiate(pa, ea, &mut rng_a)?;
        // Everything travels as bytes, as it would over a real link.
        let hello = QuotedKey::from_bytes(&hello.to_bytes())?;
        let (accept_msg, st_b) = accept(pb, eb, service, policy, &hello, &mut rng_b)?;
        let accept_msg = LinkAccept::from_bytes(&accept_msg.to_bytes())?;
        let (finish_msg, key_a) = finish(st_a, &accept_msg, service, policy, ea, &mut rng_a)?;
        let finish_msg = LinkFinish::from_bytes(&finish_msg.to_bytes())?;
        let key_b = complete(st_b, &finish_msg, eb)?;
        Ok((key_a, key_b))
    }

    #[test]
    fn both_ends_derive_the_same_key() {
        let pa = SgxPlatform::for_testing(1);
        let pb = SgxPlatform::for_testing(2);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let (key_a, key_b) = handshake(&pa, &ea, &pb, &eb, &service, &policy, 100).unwrap();
        assert_eq!(key_a, key_b);
        assert_ne!(key_a.as_bytes(), &[0u8; LINK_KEY_LEN]);
    }

    #[test]
    fn distinct_links_get_distinct_keys() {
        let pa = SgxPlatform::for_testing(3);
        let pb = SgxPlatform::for_testing(4);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let (k1, _) = handshake(&pa, &ea, &pb, &eb, &service, &policy, 100).unwrap();
        let (k2, _) = handshake(&pa, &ea, &pb, &eb, &service, &policy, 300).unwrap();
        assert_ne!(k1, k2, "fresh secrets per handshake");
    }

    #[test]
    fn tampered_measurement_is_refused_by_responder() {
        let pa = SgxPlatform::for_testing(5);
        let pb = SgxPlatform::for_testing(6);
        let rogue =
            pa.launch(EnclaveBuilder::new("scbr-router").add_page(b"router + backdoor")).unwrap();
        let eb = router(&pb);
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(eb.identity().mr_enclave);
        let mut rng = CryptoRng::from_seed(7);
        let (hello, _st) = initiate(&pa, &rogue, &mut rng).unwrap();
        let result = accept(&pb, &eb, &service, &policy, &hello, &mut rng);
        assert!(matches!(
            result,
            Err(SgxError::AttestationFailed { reason: "unexpected mrenclave" })
        ));
    }

    #[test]
    fn untrusted_platform_is_refused() {
        let pa = SgxPlatform::for_testing(8);
        let emulator = SgxPlatform::for_testing(9);
        let ea = router(&pa);
        let on_emulator = router(&emulator);
        // Only pa's platform is trusted.
        let mut service = AttestationService::new();
        service.trust_platform(pa.attestation_public_key().clone());
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng = CryptoRng::from_seed(10);
        let (hello, _st) = initiate(&emulator, &on_emulator, &mut rng).unwrap();
        assert!(accept(&pa, &ea, &service, &policy, &hello, &mut rng).is_err());
    }

    #[test]
    fn initiator_verifies_responder_too() {
        let pa = SgxPlatform::for_testing(11);
        let pb = SgxPlatform::for_testing(12);
        let ea = router(&pa);
        let rogue =
            pb.launch(EnclaveBuilder::new("scbr-router").add_page(b"router + backdoor")).unwrap();
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng_a = CryptoRng::from_seed(13);
        let mut rng_b = CryptoRng::from_seed(14);
        let (hello, st_a) = initiate(&pa, &ea, &mut rng_a).unwrap();
        // The rogue responder skips its own policy check and answers anyway.
        let lax = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let (accept_msg, _st_b) = accept(&pb, &rogue, &service, &lax, &hello, &mut rng_b).unwrap();
        assert!(finish(st_a, &accept_msg, &service, &policy, &ea, &mut rng_a).is_err());
    }

    #[test]
    fn substituted_response_key_is_refused() {
        let pa = SgxPlatform::for_testing(15);
        let pb = SgxPlatform::for_testing(16);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng = CryptoRng::from_seed(17);
        let (mut hello, _st) = initiate(&pa, &ea, &mut rng).unwrap();
        // A man in the middle swaps in their own response key.
        let mitm = RsaKeyPair::generate(512, &mut rng).unwrap();
        hello.response_key = mitm.public().clone();
        assert!(matches!(
            accept(&pb, &eb, &service, &policy, &hello, &mut rng),
            Err(SgxError::AttestationFailed { reason: "response key not bound in quote" })
        ));
    }

    #[test]
    fn handshake_charges_enclave_crossings() {
        let pa = SgxPlatform::for_testing(18);
        let pb = SgxPlatform::for_testing(19);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        handshake(&pa, &ea, &pb, &eb, &service, &policy, 100).unwrap();
        // initiate + finish on one side, accept + complete on the other.
        assert_eq!(ea.memory().stats().ecalls, 2);
        assert_eq!(eb.memory().stats().ecalls, 2);
    }

    /// One handshake at fixed seeds, pinned: the SHA-256 of each message
    /// on the wire and of the derived key, and each side's next RNG draw.
    /// A change that moves a draw — the response-key generation, a
    /// secret, a wrap — fails here even when the handshake still
    /// succeeds.
    #[test]
    fn handshake_transcript_is_pinned() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let digest = |bytes: &[u8]| hex(&scbr_crypto::sha256::Sha256::digest(bytes));
        let pa = SgxPlatform::for_testing(20);
        let pb = SgxPlatform::for_testing(21);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng_a = CryptoRng::from_seed(22);
        let mut rng_b = CryptoRng::from_seed(23);
        let (hello, st_a) = initiate(&pa, &ea, &mut rng_a).unwrap();
        let (accept_msg, st_b) = accept(&pb, &eb, &service, &policy, &hello, &mut rng_b).unwrap();
        let (finish_msg, key) =
            finish(st_a, &accept_msg, &service, &policy, &ea, &mut rng_a).unwrap();
        assert_eq!(complete(st_b, &finish_msg, &eb).unwrap(), key);
        assert_eq!(
            [
                digest(&hello.to_bytes()),
                digest(&accept_msg.to_bytes()),
                digest(&finish_msg.to_bytes()),
                digest(key.as_bytes()),
            ],
            [
                "c6bc3d6ba174c56e9f258af6307428374bf8610f10b24670dba508fd7e0f2fed",
                "b3095263ba846879c8d1f3d09bc243d47278f66b2543d073e6a432b9768e4707",
                "98bde8696f73c59a28b48cdb800621990e5cfa9d1cda7a0b05ce14f43b10081a",
                "2f0d2e3bfffa92d67fbf9c32dfc71c76b80491c36dc14e3e05879c463192b187",
            ]
        );
        assert_eq!(
            (rng_a.next_u64(), rng_b.next_u64()),
            (7885724225543536813, 13188714651745728861)
        );
    }

    #[test]
    fn wire_forms_reject_garbage() {
        assert!(QuotedKey::from_bytes(b"nope").is_err());
        assert!(LinkAccept::from_bytes(&[0, 0, 0, 9, 1]).is_err());
        assert!(LinkFinish::from_bytes(&[0, 0, 0, 1, 7, 8]).is_err());
    }
}
