//! Attested broker-to-broker link sessions.
//!
//! The SCBR overlay (a Siena-style network of routing enclaves) needs a
//! way for two routers on *different* machines to convince each other that
//! the peer really is the expected routing code in a genuine enclave, and
//! to agree on a symmetric key protecting the link between them. This
//! module builds that on the attested key exchange of [`crate::attest`],
//! the one `SK` provisioning runs: a three-message handshake of **mutual
//! quotes**, each side's hello a [`QuotedKey`] (a quote committing to a
//! fresh X25519 public key), agreeing the link key by Diffie–Hellman and
//! confirming it with the third message.
//!
//! ```text
//! initiator                                   responder
//!   [hello]  ── quote(bind X_i), X_i ────────▶  verify quote+policy,
//!                                               DH = x_r · X_i
//!            ◀─ quote(bind X_r), X_r ──────── [accept]
//!   verify quote+policy,
//!   DH = x_i · X_r
//!  [finish]  ── confirmation tag ────────────▶ [complete] checks the tag
//!
//!   link key ‖ tag = HKDF(salt = mr_i ‖ mr_r,
//!                         ikm  = DH,
//!                         info = "scbr-overlay-link-v2" ‖ X_i ‖ X_r)
//! ```
//!
//! Each side agrees nothing before the peer's quoted key has passed
//! [`QuotedKey::verify`] against the [`AttestationService`] *and* the
//! caller's [`VerifierPolicy`] — a router whose measurement differs
//! (tampered binary) or whose platform is untrusted (emulator) never
//! obtains a link key, so it can neither receive forwarded subscriptions
//! nor inject publications into the overlay. A peer key of small order
//! (an all-zero shared secret) is refused too. The responder hands out
//! the key only once the initiator's tag shows it derived the same one.

use crate::attest::{join_prefixed, split_prefixed, AttestationService, QuotedKey, VerifierPolicy};
use crate::enclave::{Enclave, Measurement};
use crate::error::SgxError;
use crate::platform::SgxPlatform;
use scbr_crypto::ct::ct_eq;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::{X25519Secret, KEY_LEN};

/// Length of a derived link key in bytes.
pub const LINK_KEY_LEN: usize = 32;

/// Length of the key-confirmation tag in bytes.
const TAG_LEN: usize = 32;

/// HKDF info label pinning the protocol version; the two public keys
/// follow it.
const LINK_INFO: &[u8] = b"scbr-overlay-link-v2";

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

/// Second handshake message: the responder's own quoted key.
pub type LinkAccept = QuotedKey;

/// Third handshake message: the initiator's key-confirmation tag.
#[derive(Debug, Clone)]
pub struct LinkFinish {
    /// The HKDF output after the link key: equal on both ends exactly
    /// when they derived the same key.
    tag: [u8; TAG_LEN],
}

impl LinkFinish {
    /// Serialises for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        join_prefixed(&[&self.tag])
    }

    /// Parses a finish serialised by [`LinkFinish::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let [tag] = split_prefixed(bytes, "malformed link finish")?;
        let tag = tag
            .try_into()
            .map_err(|_| SgxError::AttestationFailed { reason: "malformed link finish" })?;
        Ok(LinkFinish { tag })
    }
}

/// Initiator-side handshake state between [`initiate`] and [`finish`]
/// (conceptually enclave-resident: it holds the X25519 secret).
#[derive(Debug)]
pub struct LinkInitiator {
    secret: X25519Secret,
    mr_local: Measurement,
}

/// Responder-side handshake state between [`accept`] and [`complete`]:
/// the derived key, held back until the initiator's tag confirms it.
pub struct LinkResponder {
    key: LinkKey,
    tag: [u8; TAG_LEN],
}

impl std::fmt::Debug for LinkResponder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The tag would let anyone forge the finish: never print it.
        write!(f, "LinkResponder(…)")
    }
}

/// Starts a link handshake: inside the enclave, generate an X25519 key
/// pair and the report committing to it; the hello is its quote.
///
/// # Errors
///
/// Propagates quoting failures.
pub fn initiate(
    platform: &SgxPlatform,
    enclave: &Enclave,
    rng: &mut CryptoRng,
) -> Result<(QuotedKey, LinkInitiator), SgxError> {
    let (report, secret) = enclave.ecall(|ctx| QuotedKey::generate(ctx, rng));
    let hello = QuotedKey::quote(platform, &report, &secret)?;
    Ok((hello, LinkInitiator { secret, mr_local: enclave.identity().mr_enclave }))
}

/// Responder side: verify the initiator's quoted key against `service`
/// and `policy`, then answer with an own quoted key and derive the link
/// key, which [`complete`] releases.
///
/// # Errors
///
/// Any attestation failure, policy violation, binding mismatch or
/// low-order peer key refuses the link.
pub fn accept(
    platform: &SgxPlatform,
    enclave: &Enclave,
    service: &AttestationService,
    policy: &VerifierPolicy,
    peer: &QuotedKey,
    rng: &mut CryptoRng,
) -> Result<(LinkAccept, LinkResponder), SgxError> {
    let (report, secret, responder) = enclave.ecall(|ctx| {
        let mr_initiator = peer.verify(service, policy)?.mr_enclave;
        let (report, secret) = QuotedKey::generate(ctx, rng);
        let shared = agree(&secret, &peer.public_key)?;
        let mr_local = ctx.identity().mr_enclave;
        let (key, tag) =
            derive([mr_initiator, mr_local], &shared, [&peer.public_key, secret.public_key()]);
        Ok::<_, SgxError>((report, secret, LinkResponder { key, tag }))
    })?;
    Ok((QuotedKey::quote(platform, &report, &secret)?, responder))
}

/// Initiator side: verify the responder's quoted key, derive the link
/// key, and confirm it with the finish tag. Draws nothing from `_rng`.
///
/// # Errors
///
/// Any attestation failure, policy violation, binding mismatch or
/// low-order peer key aborts the handshake.
pub fn finish(
    initiator: LinkInitiator,
    peer: &LinkAccept,
    service: &AttestationService,
    policy: &VerifierPolicy,
    enclave: &Enclave,
    _rng: &mut CryptoRng,
) -> Result<(LinkFinish, LinkKey), SgxError> {
    enclave.ecall(|_ctx| {
        let mr_responder = peer.verify(service, policy)?.mr_enclave;
        let shared = agree(&initiator.secret, &peer.public_key)?;
        let (key, tag) = derive(
            [initiator.mr_local, mr_responder],
            &shared,
            [initiator.secret.public_key(), &peer.public_key],
        );
        Ok((LinkFinish { tag }, key))
    })
}

/// Responder side: check the initiator's tag in constant time, then
/// release the link key [`accept`] derived.
///
/// # Errors
///
/// [`SgxError::AttestationFailed`] if the tag does not match: the
/// initiator derived another key.
pub fn complete(
    responder: LinkResponder,
    finish: &LinkFinish,
    enclave: &Enclave,
) -> Result<LinkKey, SgxError> {
    enclave.ecall(|_ctx| {
        if ct_eq(&responder.tag, &finish.tag) {
            Ok(responder.key)
        } else {
            Err(SgxError::AttestationFailed { reason: "link key confirmation failed" })
        }
    })
}

/// The Diffie–Hellman secret with a verified peer key.
///
/// # Errors
///
/// [`SgxError::AttestationFailed`] if it is all zero (a low-order peer
/// key).
fn agree(own: &X25519Secret, peer: &[u8; KEY_LEN]) -> Result<[u8; KEY_LEN], SgxError> {
    own.diffie_hellman(peer)
        .map_err(|_| SgxError::AttestationFailed { reason: "low-order peer key" })
}

/// Both ends derive the same key and tag from the ordered measurements,
/// the shared secret and the ordered public keys (initiator first).
fn derive(
    [mr_initiator, mr_responder]: [Measurement; 2],
    shared: &[u8; KEY_LEN],
    [key_initiator, key_responder]: [&[u8; KEY_LEN]; 2],
) -> (LinkKey, [u8; TAG_LEN]) {
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(&mr_initiator);
    salt[32..].copy_from_slice(&mr_responder);
    let mut info = Vec::with_capacity(LINK_INFO.len() + 2 * KEY_LEN);
    info.extend_from_slice(LINK_INFO);
    info.extend_from_slice(key_initiator);
    info.extend_from_slice(key_responder);
    let mut okm = [0u8; LINK_KEY_LEN + TAG_LEN];
    scbr_crypto::hkdf::derive(&salt, shared, &info, &mut okm);
    let (key, tag) = okm.split_at(LINK_KEY_LEN);
    (LinkKey(key.try_into().expect("32 bytes")), tag.try_into().expect("32 bytes"))
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
        // A man in the middle swaps in their own key.
        let mitm = X25519Secret::generate(&mut rng);
        hello.public_key = *mitm.public_key();
        assert!(matches!(
            accept(&pb, &eb, &service, &policy, &hello, &mut rng),
            Err(SgxError::AttestationFailed { reason: "response key not bound in quote" })
        ));
    }

    /// A genuine enclave whose quote commits to a low-order point: the
    /// quote verifies, the all-zero shared secret does not.
    fn low_order_hello(platform: &SgxPlatform, enclave: &Enclave, u: u8) -> QuotedKey {
        let mut public_key = [0u8; KEY_LEN];
        public_key[0] = u;
        let data = crate::attest::bind_key(&public_key);
        let report = enclave.ecall(|ctx| crate::attest::create_report(ctx, data));
        QuotedKey { quote: platform.quote(&report).unwrap(), public_key }
    }

    #[test]
    fn low_order_peer_keys_are_refused_both_ways() {
        let pa = SgxPlatform::for_testing(24);
        let pb = SgxPlatform::for_testing(25);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng = CryptoRng::from_seed(26);
        for u in [0, 1] {
            // A low-order hello: the responder refuses to accept.
            let hello = low_order_hello(&pa, &ea, u);
            assert!(hello.verify(&service, &policy).is_ok());
            assert!(matches!(
                accept(&pb, &eb, &service, &policy, &hello, &mut rng),
                Err(SgxError::AttestationFailed { reason: "low-order peer key" })
            ));
            // A low-order accept: the initiator refuses to finish.
            let (_, st_a) = initiate(&pa, &ea, &mut rng).unwrap();
            let accept_msg = low_order_hello(&pb, &eb, u);
            assert!(matches!(
                finish(st_a, &accept_msg, &service, &policy, &ea, &mut rng),
                Err(SgxError::AttestationFailed { reason: "low-order peer key" })
            ));
        }
    }

    #[test]
    fn a_wrong_confirmation_tag_withholds_the_key() {
        let pa = SgxPlatform::for_testing(27);
        let pb = SgxPlatform::for_testing(28);
        let (ea, eb) = (router(&pa), router(&pb));
        let service = trust_both(&pa, &pb);
        let policy = VerifierPolicy::require_mr_enclave(ea.identity().mr_enclave);
        let mut rng = CryptoRng::from_seed(29);
        let (hello, st_a) = initiate(&pa, &ea, &mut rng).unwrap();
        let (accept_msg, st_b) = accept(&pb, &eb, &service, &policy, &hello, &mut rng).unwrap();
        let (mut finish_msg, _) =
            finish(st_a, &accept_msg, &service, &policy, &ea, &mut rng).unwrap();
        finish_msg.tag[0] ^= 1;
        assert!(matches!(
            complete(st_b, &finish_msg, &eb),
            Err(SgxError::AttestationFailed { reason: "link key confirmation failed" })
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
    /// A change that moves a draw — either side's X25519 key — fails
    /// here even when the handshake still succeeds.
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
                "20ee0b5dad1607884482db1dd61834e723142cb419ec9deece9b391de6027c74",
                "94cc8657fd0c8b3e6c24a876107b86af870c76909ba91d6cbf5234b1530b9e8e",
                "5d1387aa34cd1791ae0411ded9a03ebbbb2194324aaee04bceb5ac44842ddb4f",
                "ada99186d2d56e471b6e3520a227cd368d1a95b4bf54cc1d9b4b08c49992f69e",
            ]
        );
        assert_eq!(
            (rng_a.next_u64(), rng_b.next_u64()),
            (12550849026259220575, 11197449226209884227)
        );
    }

    #[test]
    fn wire_forms_reject_garbage() {
        assert!(QuotedKey::from_bytes(b"nope").is_err());
        assert!(LinkAccept::from_bytes(&[0, 0, 0, 9, 1]).is_err());
        assert!(LinkFinish::from_bytes(&[0, 0, 0, 1, 7, 8]).is_err());
        assert!(LinkFinish::from_bytes(&[0, 0, 0, 1, 7]).is_err());
    }
}
