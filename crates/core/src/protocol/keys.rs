//! Key material and the subscription key-exchange.
//!
//! The producer owns three long-lived secrets: its RSA key pair
//! (`PK`/`PK⁻¹`) that clients encrypt subscriptions to, the symmetric key
//! `SK` shared with routing enclaves, and an RSA signing identity routers
//! use to authenticate forwarded registrations (the same key pair serves
//! both roles here, as in the prototype).

use crate::codec::{self, Reader, Writer};
use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::publication::PublicationSpec;
use crate::subscription::SubscriptionSpec;
use scbr_crypto::ctr::{AesCtr, SymmetricKey, NONCE_LEN};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use scbr_crypto::x25519::{X25519Secret, KEY_LEN};
use scbr_crypto::{CryptoError, SealedBox};
use sgx_sim::attest::{AttestationService, QuotedKey, VerifierPolicy};
use sgx_sim::SgxPlatform;

/// Hybrid public-key encryption: a fresh 128-bit content key is RSA-
/// encrypted, the body is sealed (AES-CTR + HMAC) under it.
///
/// # Errors
///
/// Propagates RSA failures (e.g. a key too small to wrap the content key).
pub fn hybrid_encrypt(
    pk: &RsaPublicKey,
    msg: &[u8],
    rng: &mut CryptoRng,
) -> Result<Vec<u8>, ScbrError> {
    let content_key = SymmetricKey::generate(rng);
    let wrapped = pk.encrypt(content_key.as_bytes(), rng)?;
    let sealed = SealedBox::new(&content_key).seal(msg, b"scbr-hybrid", rng);
    let mut w = Writer::new();
    w.bytes(&wrapped).bytes(&sealed);
    Ok(w.into_bytes())
}

/// Inverse of [`hybrid_encrypt`].
///
/// # Errors
///
/// [`ScbrError::Crypto`] on any unwrap or authentication failure.
pub fn hybrid_decrypt(pair: &RsaKeyPair, ciphertext: &[u8]) -> Result<Vec<u8>, ScbrError> {
    let mut r = Reader::new(ciphertext);
    let wrapped = r.bytes()?;
    let sealed = r.bytes()?;
    let content_key_bytes = pair.private().decrypt(&wrapped)?;
    let content_key = SymmetricKey::try_from_bytes(&content_key_bytes)?;
    Ok(SealedBox::new(&content_key).open(&sealed, b"scbr-hybrid")?)
}

/// The producer's cryptographic identity and the operations of protocol
/// steps 2 and 4.
#[derive(Debug, Clone)]
pub struct ProducerCrypto {
    rsa: RsaKeyPair,
    sk: SymmetricKey,
    /// `SK`'s expanded schedule, so headers and envelopes are encrypted
    /// without a key expansion each.
    sk_cipher: AesCtr,
}

impl ProducerCrypto {
    /// Generates fresh producer keys (`bits`-bit RSA modulus plus a random
    /// 128-bit `SK`).
    ///
    /// # Errors
    ///
    /// Propagates RSA key-generation failures.
    pub fn generate(bits: usize, rng: &mut CryptoRng) -> Result<Self, ScbrError> {
        let rsa = RsaKeyPair::generate(bits, rng)?;
        let sk = SymmetricKey::generate(rng);
        let sk_cipher = AesCtr::new(&sk, [0u8; NONCE_LEN]);
        Ok(ProducerCrypto { rsa, sk, sk_cipher })
    }

    /// The public key `PK` clients encrypt subscriptions to (also the
    /// signature-verification key routers pin).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.rsa.public()
    }

    /// The symmetric key `SK` shared with routing enclaves.
    pub fn sk(&self) -> &SymmetricKey {
        &self.sk
    }

    /// Decrypts a client's `{s}PK` submission (protocol step 2, first
    /// half).
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] or [`ScbrError::Codec`] on malformed input.
    pub fn open_client_subscription(
        &self,
        ciphertext: &[u8],
    ) -> Result<SubscriptionSpec, ScbrError> {
        let plain = hybrid_decrypt(&self.rsa, ciphertext)?;
        codec::decode_subscription(&plain)
    }

    /// Re-encrypts a validated subscription under `SK` and signs it
    /// (protocol step 2, second half). The output is what routers accept in
    /// [`crate::engine::MatchingEngine::register_envelope`].
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn seal_registration(
        &self,
        spec: &SubscriptionSpec,
        id: SubscriptionId,
        client: ClientId,
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, ScbrError> {
        let body = codec::encode_registration(spec, id, client);
        let body_ct = self.encrypt_under_sk(&body, rng);
        let signature = self.rsa.private().sign(&body_ct)?;
        let mut w = Writer::new();
        w.bytes(&body_ct).bytes(&signature);
        Ok(w.into_bytes())
    }

    /// Seals an unregistration under `SK` and signs it — the removal
    /// counterpart of [`ProducerCrypto::seal_registration`]. Routers
    /// accept the output in
    /// [`crate::engine::MatchingEngine::unregister_envelope`], and overlay
    /// brokers forward it hop by hop (each enclave re-authenticates it
    /// independently).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn seal_unregistration(
        &self,
        id: SubscriptionId,
        client: ClientId,
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, ScbrError> {
        let body = codec::encode_unregistration(id, client);
        let body_ct = self.encrypt_under_sk(&body, rng);
        let signature = self.rsa.private().sign(&body_ct)?;
        let mut w = Writer::new();
        w.bytes(&body_ct).bytes(&signature);
        Ok(w.into_bytes())
    }

    /// Encrypts a publication header under `SK` (protocol step 4).
    pub fn encrypt_header(&self, publication: &PublicationSpec, rng: &mut CryptoRng) -> Vec<u8> {
        let plain = codec::encode_header(publication);
        self.encrypt_under_sk(&plain, rng)
    }

    /// `nonce || ciphertext` of `plain` under `SK` and a fresh nonce — the
    /// bytes [`AesCtr::encrypt_with_nonce`] produces, on the cached
    /// schedule.
    fn encrypt_under_sk(&self, plain: &[u8], rng: &mut CryptoRng) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut out = Vec::with_capacity(NONCE_LEN + plain.len());
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plain);
        let mut cipher = self.sk_cipher.clone();
        cipher.reset_nonce(nonce);
        cipher.apply(&mut out[NONCE_LEN..]);
        out
    }
}

/// Client-side helper for protocol step 1: encrypt a subscription to the
/// producer.
///
/// # Errors
///
/// Propagates hybrid-encryption failures.
pub fn encrypt_subscription_for_producer(
    producer_pk: &RsaPublicKey,
    spec: &SubscriptionSpec,
    rng: &mut CryptoRng,
) -> Result<Vec<u8>, ScbrError> {
    hybrid_encrypt(producer_pk, &codec::encode_subscription(spec), rng)
}

/// The canonical bytes a client signs to prove an unsubscribe request:
/// a domain-separation label plus the client and subscription ids. Both
/// the client ([`crate::roles::ClientNode::unsubscribe`]) and the
/// producer's verification build exactly this buffer.
pub fn unsubscribe_signing_bytes(client: ClientId, id: SubscriptionId) -> Vec<u8> {
    let mut w = Writer::new();
    w.str("scbr-unsubscribe-v1").u64(client.0).u64(id.0);
    w.into_bytes()
}

/// HKDF info label of the `SK` grant; the producer's ephemeral public
/// key and the enclave's quoted one follow it.
const SK_GRANT_INFO: &[u8] = b"scbr-sk-grant-v1";

/// Whoever answers an enclave's request for `SK`: the producer itself,
/// or, as the enclave sees it, any host relaying the producer's grant.
pub trait SkIssuer {
    /// Verifies `request` against `service` and `policy`, then grants
    /// `SK` and the producer's verification key to the key it quotes.
    ///
    /// # Errors
    ///
    /// Any attestation or policy failure refuses the grant.
    fn grant_sk(
        &self,
        request: &QuotedKey,
        service: &AttestationService,
        policy: &VerifierPolicy,
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, ScbrError>;
}

impl SkIssuer for ProducerCrypto {
    /// `E ‖ SealedBox(SK ‖ PK)`: the box is keyed by HKDF of the
    /// Diffie–Hellman secret of a fresh ephemeral key `E` (32 bytes of
    /// `rng`) and the quoted key `X`, and binds `E ‖ X` as associated
    /// data; its nonce is 8 more bytes of `rng`.
    fn grant_sk(
        &self,
        request: &QuotedKey,
        service: &AttestationService,
        policy: &VerifierPolicy,
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, ScbrError> {
        request.verify(service, policy)?;
        let ephemeral = X25519Secret::generate(rng);
        let shared = ephemeral.diffie_hellman(&request.public_key)?;
        let (sealed, aad) = grant_box(&shared, ephemeral.public_key(), &request.public_key);
        let mut payload = Writer::new();
        payload.bytes(self.sk.as_bytes()).bytes(&self.public_key().to_bytes());
        let mut grant = ephemeral.public_key().to_vec();
        grant.extend(sealed.seal(&payload.into_bytes(), &aad, rng));
        Ok(grant)
    }
}

/// The box an `SK` grant is sealed in and the associated data it binds,
/// from the Diffie–Hellman secret of the producer's ephemeral key and the
/// enclave's quoted key.
fn grant_box(
    shared: &[u8; KEY_LEN],
    ephemeral: &[u8; KEY_LEN],
    quoted: &[u8; KEY_LEN],
) -> (SealedBox, [u8; 2 * KEY_LEN]) {
    let mut aad = [0u8; 2 * KEY_LEN];
    aad[..KEY_LEN].copy_from_slice(ephemeral);
    aad[KEY_LEN..].copy_from_slice(quoted);
    let mut info = SK_GRANT_INFO.to_vec();
    info.extend_from_slice(&aad);
    let mut key = [0u8; 16];
    scbr_crypto::hkdf::derive(b"", shared, &info, &mut key);
    (SealedBox::new(&SymmetricKey::from_bytes(key)), aad)
}

/// Provisions `SK` (and the producer's verification key) into a routing
/// enclave via remote attestation:
///
/// 1. inside the enclave, generate a fresh X25519 key pair and the report
///    committing to its public half `X` ([`QuotedKey::generate`]);
/// 2. have the platform quote the report;
/// 3. as the producer, verify the quote against the attestation service
///    and a measurement policy ([`QuotedKey::verify`]), then grant
///    `E ‖ SealedBox(SK ‖ PK)` under a key agreed between a fresh
///    ephemeral key `E` and `X` ([`SkIssuer::grant_sk`]);
/// 4. back inside the enclave, agree the same key from `E`, open the box
///    (`E ‖ X` is its associated data) and parse `SK` and `PK` from it.
///
/// Returns `SK` and the producer's public key as seen inside the enclave.
/// The host between steps 3 and 4 can change neither: both travel in one
/// authenticated box.
///
/// # Errors
///
/// Any attestation, policy or crypto failure aborts provisioning, and so
/// does a grant whose `E` is a low-order point.
pub fn provision_sk_via_attestation(
    platform: &SgxPlatform,
    enclave: &sgx_sim::Enclave,
    service: &AttestationService,
    policy: &VerifierPolicy,
    producer: &impl SkIssuer,
    enclave_rng: &mut CryptoRng,
    producer_rng: &mut CryptoRng,
) -> Result<(SymmetricKey, RsaPublicKey), ScbrError> {
    // Steps 1 and 2: inside the enclave, then the quoting enclave.
    let (report, secret) = enclave.ecall(|ctx| QuotedKey::generate(ctx, enclave_rng));
    let request = QuotedKey::quote(platform, &report, &secret)?;
    // Step 3: producer side.
    let grant = producer.grant_sk(&request, service, policy, producer_rng)?;
    // Step 4: inside the enclave again.
    enclave.ecall(|_ctx| {
        let (ephemeral, sealed) = grant
            .split_first_chunk::<KEY_LEN>()
            .ok_or(CryptoError::InvalidLength { context: "sk grant" })?;
        let shared = secret.diffie_hellman(ephemeral)?;
        let (sealed_box, aad) = grant_box(&shared, ephemeral, &request.public_key);
        let plain = sealed_box.open(sealed, &aad)?;
        let mut r = Reader::new(&plain);
        let sk = SymmetricKey::try_from_bytes(r.bytes_ref()?)?;
        let pk = RsaPublicKey::from_bytes(r.bytes_ref()?)?;
        if !r.is_exhausted() {
            return Err(ScbrError::Codec { context: "sk grant" });
        }
        Ok((sk, pk))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;

    fn rng(seed: u64) -> CryptoRng {
        CryptoRng::from_seed(seed)
    }

    #[test]
    fn hybrid_round_trip_large_message() {
        let mut r = rng(1);
        let pair = RsaKeyPair::generate(512, &mut r).unwrap();
        let msg = vec![0x7fu8; 10_000]; // far beyond one RSA block
        let ct = hybrid_encrypt(pair.public(), &msg, &mut r).unwrap();
        assert_eq!(hybrid_decrypt(&pair, &ct).unwrap(), msg);
    }

    #[test]
    fn hybrid_tamper_rejected() {
        let mut r = rng(2);
        let pair = RsaKeyPair::generate(512, &mut r).unwrap();
        let mut ct = hybrid_encrypt(pair.public(), b"secret", &mut r).unwrap();
        let n = ct.len();
        ct[n - 1] ^= 1;
        assert!(hybrid_decrypt(&pair, &ct).is_err());
    }

    #[test]
    fn hybrid_wrong_key_rejected() {
        let mut r = rng(3);
        let a = RsaKeyPair::generate(512, &mut r).unwrap();
        let b = RsaKeyPair::generate(512, &mut r).unwrap();
        let ct = hybrid_encrypt(a.public(), b"secret", &mut r).unwrap();
        assert!(hybrid_decrypt(&b, &ct).is_err());
    }

    #[test]
    fn client_submission_round_trip() {
        let mut r = rng(4);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let spec = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
        let ct = encrypt_subscription_for_producer(producer.public_key(), &spec, &mut r).unwrap();
        assert_eq!(producer.open_client_subscription(&ct).unwrap(), spec);
    }

    #[test]
    fn header_encryption_round_trip() {
        let mut r = rng(5);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let publication = PublicationSpec::new().attr("symbol", "HAL").attr("price", 12.5);
        let ct = producer.encrypt_header(&publication, &mut r);
        let plain = AesCtr::decrypt_with_nonce(producer.sk(), &ct).unwrap();
        let decoded = codec::decode_header(&plain).unwrap();
        assert_eq!(decoded.header(), publication.header());
    }

    /// Seeded producer, so the header ciphertext and the whole signed
    /// envelope are pinned byte for byte.
    #[test]
    fn seeded_header_and_registration_are_pinned() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let mut r = rng(26);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let publication = PublicationSpec::new().attr("symbol", "HAL").attr("price", 12.5);
        let header = producer.encrypt_header(&publication, &mut r);
        let spec = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(7), ClientId(3), &mut r).unwrap();
        assert_eq!(
            hex(&header),
            "46518e40a7832ccb93ff36a1c094940658e59ddcd1635d3632e7fe40a7cf61f8fde7eb3d99e1ab667cca\
             4006d6c9"
        );
        assert_eq!(
            hex(&envelope),
            "00000044f7bac95702f3f27a7412db415799a41b3e0e8f250b26a522599e29c7d8538ab2f7c99274\
             7117b69e68ca39b5802701aac5b44bdee4ff96bfd0b7d63f275ab153bb1fcaac0000004065724730\
             042f1be510c9e6b00d97dec6b0c51d9240f2cf31b1828e9c76e55de521ccb94af4b563b0aa2d7b5c\
             9455b03ea496cbed2e52aea8bfa93d3d6d3c7c79"
        );
    }

    #[test]
    fn unregistration_sealing_round_trip() {
        use crate::ids::{ClientId, SubscriptionId};
        let mut r = rng(11);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let envelope =
            producer.seal_unregistration(SubscriptionId(9), ClientId(4), &mut r).unwrap();
        // The envelope opens exactly like a registration: signature over the
        // ciphertext, body under SK.
        let mut reader = Reader::new(&envelope);
        let body_ct = reader.bytes().unwrap();
        let signature = reader.bytes().unwrap();
        producer.public_key().verify(&body_ct, &signature).unwrap();
        let body = AesCtr::decrypt_with_nonce(producer.sk(), &body_ct).unwrap();
        assert_eq!(codec::decode_unregistration(&body).unwrap(), (SubscriptionId(9), ClientId(4)));
    }

    #[test]
    fn unsubscribe_signing_bytes_are_canonical_and_distinct() {
        use crate::ids::{ClientId, SubscriptionId};
        let a = unsubscribe_signing_bytes(ClientId(1), SubscriptionId(2));
        assert_eq!(a, unsubscribe_signing_bytes(ClientId(1), SubscriptionId(2)));
        assert_ne!(a, unsubscribe_signing_bytes(ClientId(2), SubscriptionId(1)));
        assert_ne!(a, unsubscribe_signing_bytes(ClientId(1), SubscriptionId(3)));
    }

    #[test]
    fn attestation_provisioning_end_to_end() {
        let platform = SgxPlatform::for_testing(42);
        let enclave = platform
            .launch(EnclaveBuilder::new("scbr-router").add_page(b"engine").isv_prod_id(1))
            .unwrap();
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        let mut producer_rng = rng(6);
        let producer = ProducerCrypto::generate(512, &mut producer_rng).unwrap();
        let mut enclave_rng = rng(7);

        let (sk, pk) = provision_sk_via_attestation(
            &platform,
            &enclave,
            &service,
            &policy,
            &producer,
            &mut enclave_rng,
            &mut producer_rng,
        )
        .unwrap();
        assert_eq!(sk.as_bytes(), producer.sk().as_bytes());
        assert_eq!(&pk, producer.public_key());
    }

    /// Provisioning at fixed seeds, pinned: the `SK` and producer key the
    /// enclave receives, and both RNGs' next draws. A change that moves a
    /// draw — either X25519 key, the grant's nonce — fails here even
    /// when provisioning still succeeds.
    #[test]
    fn provisioning_transcript_is_pinned() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let platform = SgxPlatform::for_testing(44);
        let enclave = platform
            .launch(EnclaveBuilder::new("scbr-router").add_page(b"engine").isv_prod_id(1))
            .unwrap();
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        let mut producer_rng = rng(45);
        let producer = ProducerCrypto::generate(512, &mut producer_rng).unwrap();
        let mut enclave_rng = rng(46);
        let (sk, pk) = provision_sk_via_attestation(
            &platform,
            &enclave,
            &service,
            &policy,
            &producer,
            &mut enclave_rng,
            &mut producer_rng,
        )
        .unwrap();
        assert_eq!(hex(sk.as_bytes()), "3ab5ddcd017c3918011faea65e391172");
        assert_eq!(
            hex(&scbr_crypto::sha256::Sha256::digest(&pk.to_bytes())),
            "fbe9a4e4292b0eff0fd35dcd3befc45b400c544df6cc62b711d6b02e6be2453c"
        );
        assert_eq!(
            (enclave_rng.next_u64(), producer_rng.next_u64()),
            (2351835461894720056, 8213260559185562414)
        );
    }

    /// A host between the producer and the enclave that rewrites the
    /// grant on its way.
    struct TamperingHost<'a> {
        producer: &'a ProducerCrypto,
        tamper: &'a dyn Fn(&mut Vec<u8>),
    }

    impl SkIssuer for TamperingHost<'_> {
        fn grant_sk(
            &self,
            request: &QuotedKey,
            service: &AttestationService,
            policy: &VerifierPolicy,
            rng: &mut CryptoRng,
        ) -> Result<Vec<u8>, ScbrError> {
            let mut grant = self.producer.grant_sk(request, service, policy, rng)?;
            (self.tamper)(&mut grant);
            Ok(grant)
        }
    }

    /// Provisions through `tamper` at fixed seeds.
    fn provision_through(
        tamper: &dyn Fn(&mut Vec<u8>),
    ) -> Result<(SymmetricKey, RsaPublicKey), ScbrError> {
        let platform = SgxPlatform::for_testing(47);
        let enclave = platform
            .launch(EnclaveBuilder::new("scbr-router").add_page(b"engine").isv_prod_id(1))
            .unwrap();
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        let mut producer_rng = rng(48);
        let producer = ProducerCrypto::generate(512, &mut producer_rng).unwrap();
        provision_sk_via_attestation(
            &platform,
            &enclave,
            &service,
            &policy,
            &TamperingHost { producer: &producer, tamper },
            &mut rng(49),
            &mut producer_rng,
        )
    }

    #[test]
    fn the_grant_binds_the_producer_key_to_sk() {
        assert!(provision_through(&|_| {}).is_ok());
        // The host knows both producer keys and where the plaintext's
        // key sits (just before the tag), so under CTR alone it could
        // swap one for the other; the tag refuses it.
        let honest = ProducerCrypto::generate(512, &mut rng(48)).unwrap().public_key().to_bytes();
        let attacker = RsaKeyPair::generate(512, &mut rng(50)).unwrap().public().to_bytes();
        assert_eq!(honest.len(), attacker.len());
        let swap = |grant: &mut Vec<u8>| {
            let at = grant.len() - scbr_crypto::poly1305::TAG_LEN - honest.len();
            for (i, (h, a)) in honest.iter().zip(&attacker).enumerate() {
                grant[at + i] ^= h ^ a;
            }
        };
        assert!(matches!(provision_through(&swap), Err(ScbrError::Crypto(_))));
        // One flipped bit anywhere in the grant: the ephemeral key (also
        // associated data), the nonce, the ciphertext or the tag.
        for at in [0, KEY_LEN, KEY_LEN + 8, KEY_LEN + 30] {
            let flip = move |grant: &mut Vec<u8>| grant[at] ^= 1;
            assert!(provision_through(&flip).is_err(), "flipped byte {at}");
        }
        let flip_last = |grant: &mut Vec<u8>| *grant.last_mut().unwrap() ^= 1;
        assert!(provision_through(&flip_last).is_err());
    }

    /// The producer's ephemeral key is not quoted, so the enclave itself
    /// refuses one of small order.
    #[test]
    fn a_low_order_ephemeral_key_is_refused() {
        for u in [0u8, 1] {
            let low_order = move |grant: &mut Vec<u8>| {
                grant[..KEY_LEN].fill(0);
                grant[0] = u;
            };
            assert!(matches!(
                provision_through(&low_order),
                Err(ScbrError::Crypto(CryptoError::InvalidKey {
                    reason: "low-order x25519 point"
                }))
            ));
        }
    }

    #[test]
    fn attestation_provisioning_rejects_wrong_measurement() {
        let platform = SgxPlatform::for_testing(43);
        let enclave =
            platform.launch(EnclaveBuilder::new("evil-router").add_page(b"evil engine")).unwrap();
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        // Policy pins a different measurement.
        let policy = VerifierPolicy::require_mr_enclave([0xde; 32]);
        let mut producer_rng = rng(8);
        let producer = ProducerCrypto::generate(512, &mut producer_rng).unwrap();
        let mut enclave_rng = rng(9);
        let result = provision_sk_via_attestation(
            &platform,
            &enclave,
            &service,
            &policy,
            &producer,
            &mut enclave_rng,
            &mut producer_rng,
        );
        assert!(result.is_err(), "SK must not reach an unexpected enclave");
    }
}
