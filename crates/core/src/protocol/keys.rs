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
use scbr_crypto::SealedBox;
use sgx_sim::attest::{provision, AttestationService, VerifierPolicy};
use sgx_sim::enclave::EnclaveContext;
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

/// Provisions `SK` (and the producer's verification key) into a routing
/// enclave via remote attestation:
///
/// 1. inside the enclave, generate a fresh response key pair and bind its
///    public half into a report;
/// 2. have the platform quote the report;
/// 3. as the producer, verify the quote against the attestation service
///    and a measurement policy, then release `SK` encrypted to the bound
///    key;
/// 4. back inside the enclave, unwrap `SK`.
///
/// Returns the unwrapped key material as seen inside the enclave, plus the
/// producer's public key bytes delivered alongside.
///
/// # Errors
///
/// Any attestation, policy or crypto failure aborts provisioning.
pub fn provision_sk_via_attestation(
    platform: &SgxPlatform,
    enclave: &sgx_sim::Enclave,
    service: &AttestationService,
    policy: &VerifierPolicy,
    producer: &ProducerCrypto,
    enclave_rng: &mut CryptoRng,
    producer_rng: &mut CryptoRng,
) -> Result<(SymmetricKey, RsaPublicKey), ScbrError> {
    // Step 1: inside the enclave.
    let (report, response_pair) = enclave.ecall(|ctx: &EnclaveContext<'_>| {
        let pair = RsaKeyPair::generate(512, enclave_rng)?;
        let report = sgx_sim::attest::create_report(ctx, provision::bind_key(pair.public()));
        Ok::<_, ScbrError>((report, pair))
    })?;
    // Step 2: quoting enclave.
    let quote = platform.quote(&report)?;
    let request =
        provision::ProvisioningRequest { quote, response_key: response_pair.public().clone() };
    // Step 3: producer side. SK and the verification key travel together.
    let mut secret = Writer::new();
    secret.bytes(producer.sk().as_bytes());
    let wrapped_secret =
        provision::release_secret(service, policy, &request, &secret.into_bytes(), producer_rng)?;
    let pk_bytes = producer.public_key().to_bytes();
    // Step 4: inside the enclave again.
    let sk = enclave.ecall(|_ctx| {
        let plain = response_pair.private().decrypt(&wrapped_secret)?;
        let mut r = Reader::new(&plain);
        let sk_bytes = r.bytes()?;
        Ok::<_, ScbrError>(SymmetricKey::try_from_bytes(&sk_bytes)?)
    })?;
    let pk = RsaPublicKey::from_bytes(&pk_bytes)?;
    Ok((sk, pk))
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
