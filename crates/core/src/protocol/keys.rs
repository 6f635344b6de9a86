//! Key material and the subscription key-exchange.
//!
//! The producer owns three long-lived secrets: the symmetric key `SK`
//! shared with routing enclaves, an RSA key pair whose signature routers
//! use to authenticate forwarded registrations, and a static X25519 key
//! `X_P` that each admitted client agrees its [`PairwiseKey`] with.
//! Clients never encrypt to the producer's RSA key: a submission, an
//! unsubscribe and a group-key update all travel under the pairwise key.

use crate::codec::{self, Reader, Writer};
use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch, SubscriptionId};
use crate::publication::PublicationSpec;
use crate::subscription::SubscriptionSpec;
use scbr_crypto::ctr::{AesCtr, SymmetricKey, NONCE_LEN};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use scbr_crypto::x25519::{X25519Secret, KEY_LEN};
use scbr_crypto::{CryptoError, SealedBox};
use sgx_sim::attest::{AttestationService, QuotedKey, VerifierPolicy};
use sgx_sim::SgxPlatform;

/// The producer's cryptographic identity and the operations of protocol
/// steps 2 and 4.
#[derive(Debug, Clone)]
pub struct ProducerCrypto {
    rsa: RsaKeyPair,
    sk: SymmetricKey,
    /// `SK`'s expanded schedule, so headers and envelopes are encrypted
    /// without a key expansion each.
    sk_cipher: AesCtr,
    /// `x_P`, the static key every client's pairwise key is agreed with.
    exchange: X25519Secret,
}

impl ProducerCrypto {
    /// Generates fresh producer keys: a `bits`-bit RSA modulus, a random
    /// 128-bit `SK`, then the static X25519 key (32 more bytes of `rng`).
    ///
    /// # Errors
    ///
    /// Propagates RSA key-generation failures.
    pub fn generate(bits: usize, rng: &mut CryptoRng) -> Result<Self, ScbrError> {
        let rsa = RsaKeyPair::generate(bits, rng)?;
        let sk = SymmetricKey::generate(rng);
        let sk_cipher = AesCtr::new(&sk, [0u8; NONCE_LEN]);
        let exchange = X25519Secret::generate(rng);
        Ok(ProducerCrypto { rsa, sk, sk_cipher, exchange })
    }

    /// The signature-verification key `PK` routers pin.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.rsa.public()
    }

    /// `X_P`, the X25519 key clients agree their pairwise key with
    /// (handed to them at signup).
    pub fn exchange_key(&self) -> &[u8; KEY_LEN] {
        self.exchange.public_key()
    }

    /// The symmetric key `SK` shared with routing enclaves.
    pub fn sk(&self) -> &SymmetricKey {
        &self.sk
    }

    /// The pairwise key of `client`, whose X25519 key is `client_key`:
    /// the producer's half of admission.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when `client_key` is a low-order point.
    pub fn pairwise_key(
        &self,
        client: ClientId,
        client_key: &[u8; KEY_LEN],
    ) -> Result<PairwiseKey, ScbrError> {
        let info = [PAIRWISE_INFO, &client.0.to_be_bytes(), client_key, self.exchange_key()];
        Ok(PairwiseKey(dh_box(&self.exchange, client_key, &info)?))
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

/// HKDF info label of a client's pairwise key; the client id, the
/// client's key and the producer's follow it.
const PAIRWISE_INFO: &[u8] = b"scbr-client-v1";

/// Associated data of a sealed subscription submission. A `v2` box holds
/// a sequence number ahead of the subscription, so a `v1` box is refused
/// rather than misread.
const SUBMISSION_AD: &[u8] = b"scbr-submission-v2";

/// Associated data of a sealed group-key update.
const KEY_UPDATE_AD: &[u8] = b"scbr-key-update-v1";

/// `K_c`, the key one admitted client shares with the producer:
/// HKDF(DH(x_c, X_P), `scbr-client-v1` ‖ client id ‖ `X_c` ‖ `X_P`) as a
/// [`SealedBox`]. It carries the client's submissions (protocol step 1),
/// authenticates its unsubscribes and wraps the group keys pushed to it,
/// each under its own associated data. Because the client id is in the
/// derivation, nobody but the client and the producer can seal a request
/// the producer accepts in that client's name.
#[derive(Clone)]
pub struct PairwiseKey(SealedBox);

impl std::fmt::Debug for PairwiseKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairwiseKey").finish_non_exhaustive()
    }
}

impl PairwiseKey {
    /// The client's half of admission: `secret` is the client's key,
    /// `producer_key` the producer's [`ProducerCrypto::exchange_key`].
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when `producer_key` is a low-order point.
    pub fn for_client(
        secret: &X25519Secret,
        client: ClientId,
        producer_key: &[u8; KEY_LEN],
    ) -> Result<Self, ScbrError> {
        let info = [PAIRWISE_INFO, &client.0.to_be_bytes(), secret.public_key(), producer_key];
        Ok(PairwiseKey(dh_box(secret, producer_key, &info)?))
    }

    /// Seals a subscription for the producer (protocol step 1) as the
    /// client's submission number `seq`. The producer refuses a `seq` no
    /// higher than one it has already opened, so a captured submission
    /// cannot be replayed.
    pub fn seal_subscription(
        &self,
        seq: u64,
        spec: &SubscriptionSpec,
        rng: &mut CryptoRng,
    ) -> Vec<u8> {
        let mut body = seq.to_be_bytes().to_vec();
        body.extend_from_slice(&codec::encode_subscription(spec));
        self.0.seal(&body, SUBMISSION_AD, rng)
    }

    /// Opens a submission sealed by [`PairwiseKey::seal_subscription`]
    /// (protocol step 2, first half): its sequence number and
    /// subscription.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when it was sealed under another key or
    /// altered, [`ScbrError::Codec`] on a malformed subscription.
    pub fn open_subscription(&self, sealed: &[u8]) -> Result<(u64, SubscriptionSpec), ScbrError> {
        let body = self.0.open(sealed, SUBMISSION_AD)?;
        let (seq, spec) =
            body.split_first_chunk::<8>().ok_or(ScbrError::Codec { context: "submission" })?;
        Ok((u64::from_be_bytes(*seq), codec::decode_subscription(spec)?))
    }

    /// The tag proving that this key's client asks to retire `id`: a
    /// sealed empty message over [`unsubscribe_signing_bytes`].
    pub fn unsubscribe_tag(
        &self,
        client: ClientId,
        id: SubscriptionId,
        rng: &mut CryptoRng,
    ) -> Vec<u8> {
        self.0.seal(&[], &unsubscribe_signing_bytes(client, id), rng)
    }

    /// Checks a tag made by [`PairwiseKey::unsubscribe_tag`].
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when the tag is for another key, client or
    /// subscription, or is malformed.
    pub fn check_unsubscribe(
        &self,
        client: ClientId,
        id: SubscriptionId,
        tag: &[u8],
    ) -> Result<(), ScbrError> {
        self.0.open(tag, &unsubscribe_signing_bytes(client, id))?;
        Ok(())
    }

    /// Wraps the group key of `epoch` for this key's client.
    pub fn seal_key_update(
        &self,
        epoch: KeyEpoch,
        key: &SymmetricKey,
        rng: &mut CryptoRng,
    ) -> Vec<u8> {
        let mut body = epoch.0.to_be_bytes().to_vec();
        body.extend_from_slice(key.as_bytes());
        self.0.seal(&body, KEY_UPDATE_AD, rng)
    }

    /// Unwraps an update made by [`PairwiseKey::seal_key_update`].
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when the update was sealed for another
    /// client or altered, [`ScbrError::Codec`] on a malformed body.
    pub fn open_key_update(&self, wrapped: &[u8]) -> Result<(KeyEpoch, SymmetricKey), ScbrError> {
        let body = self.0.open(wrapped, KEY_UPDATE_AD)?;
        let (epoch, key) =
            body.split_first_chunk::<8>().ok_or(ScbrError::Codec { context: "key update" })?;
        Ok((KeyEpoch(u64::from_be_bytes(*epoch)), SymmetricKey::try_from_bytes(key)?))
    }
}

/// The canonical bytes a client's unsubscribe tag covers: a
/// domain-separation label plus the client and subscription ids. Both
/// the client ([`crate::roles::ClientNode::unsubscribe`]) and the
/// producer's check build exactly this buffer.
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
        let aad = [ephemeral.public_key().as_slice(), &request.public_key].concat();
        let sealed = dh_box(&ephemeral, &request.public_key, &[SK_GRANT_INFO, &aad])?;
        let mut payload = Writer::new();
        payload.bytes(self.sk.as_bytes()).bytes(&self.public_key().to_bytes());
        let mut grant = ephemeral.public_key().to_vec();
        grant.extend(sealed.seal(&payload.into_bytes(), &aad, rng));
        Ok(grant)
    }
}

/// A box keyed by HKDF of the Diffie–Hellman secret of `own` and `peer`,
/// with the concatenated `info` as HKDF info: the `SK` grant's, and each
/// client's [`PairwiseKey`].
///
/// # Errors
///
/// [`ScbrError::Crypto`] when `peer` is a low-order point.
fn dh_box(
    own: &X25519Secret,
    peer: &[u8; KEY_LEN],
    info: &[&[u8]],
) -> Result<SealedBox, ScbrError> {
    let shared = own.diffie_hellman(peer)?;
    let mut key = [0u8; 16];
    scbr_crypto::hkdf::derive(b"", &shared, &info.concat(), &mut key);
    Ok(SealedBox::new(&SymmetricKey::from_bytes(key)))
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
        let aad = [ephemeral.as_slice(), &request.public_key].concat();
        let plain = dh_box(&secret, ephemeral, &[SK_GRANT_INFO, &aad])?.open(sealed, &aad)?;
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

    /// Alice's pairwise key as she derives it and as the producer does.
    fn alice_both_sides(
        producer: &ProducerCrypto,
        r: &mut CryptoRng,
    ) -> (PairwiseKey, PairwiseKey) {
        let alice = X25519Secret::generate(r);
        let client = PairwiseKey::for_client(&alice, ClientId(1), producer.exchange_key()).unwrap();
        let server = producer.pairwise_key(ClientId(1), alice.public_key()).unwrap();
        (client, server)
    }

    #[test]
    fn both_sides_derive_one_pairwise_key() {
        let mut r = rng(1);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let (client, server) = alice_both_sides(&producer, &mut r);
        // A large subscription: a sealed box has no size limit.
        let spec = (0..200).fold(SubscriptionSpec::new(), |s, i| s.gt(&format!("a{i}"), 1.0));
        let sealed = client.seal_subscription(7, &spec, &mut r);
        assert_eq!(server.open_subscription(&sealed).unwrap(), (7, spec));
        let tag = client.unsubscribe_tag(ClientId(1), SubscriptionId(4), &mut r);
        server.check_unsubscribe(ClientId(1), SubscriptionId(4), &tag).unwrap();
        let wrapped = server.seal_key_update(KeyEpoch(3), producer.sk(), &mut r);
        let (epoch, key) = client.open_key_update(&wrapped).unwrap();
        assert_eq!((epoch, key.as_bytes()), (KeyEpoch(3), producer.sk().as_bytes()));
    }

    #[test]
    fn a_tampered_submission_is_refused() {
        let mut r = rng(2);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let (client, server) = alice_both_sides(&producer, &mut r);
        let sealed = client.seal_subscription(1, &SubscriptionSpec::new().eq("s", "HAL"), &mut r);
        for at in [0, 8, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[at] ^= 1;
            assert!(server.open_subscription(&bad).is_err(), "flipped byte {at}");
        }
        assert!(server.open_subscription(&sealed[..sealed.len() - 3]).is_err());
    }

    /// Each key opens only what it sealed, and each job only its own
    /// messages: another client's key, another client id, another
    /// subscription or another job's box is refused.
    #[test]
    fn another_clients_pairwise_key_opens_nothing() {
        let mut r = rng(3);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let (alice, alice_at_producer) = alice_both_sides(&producer, &mut r);
        let bob = X25519Secret::generate(&mut r);
        let bob = PairwiseKey::for_client(&bob, ClientId(2), producer.exchange_key()).unwrap();
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        assert!(alice_at_producer
            .open_subscription(&bob.seal_subscription(1, &spec, &mut r))
            .is_err());
        // Alice's own scalar under another client's id is another key.
        let tag = bob.unsubscribe_tag(ClientId(1), SubscriptionId(4), &mut r);
        assert!(alice_at_producer.check_unsubscribe(ClientId(1), SubscriptionId(4), &tag).is_err());
        let tag = alice.unsubscribe_tag(ClientId(1), SubscriptionId(4), &mut r);
        assert!(alice_at_producer.check_unsubscribe(ClientId(2), SubscriptionId(4), &tag).is_err());
        assert!(alice_at_producer.check_unsubscribe(ClientId(1), SubscriptionId(5), &tag).is_err());
        let wrapped = alice_at_producer.seal_key_update(KeyEpoch(0), producer.sk(), &mut r);
        assert!(bob.open_key_update(&wrapped).is_err());
        assert!(alice.open_subscription(&wrapped).is_err(), "a key update is no submission");
    }

    #[test]
    fn client_submission_round_trip() {
        let mut r = rng(4);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let (client, server) = alice_both_sides(&producer, &mut r);
        let spec = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
        let sealed = client.seal_subscription(u64::MAX, &spec, &mut r);
        assert_eq!(server.open_subscription(&sealed).unwrap(), (u64::MAX, spec));
    }

    /// Either side refuses a low-order peer key: the "pairwise" key it
    /// gives is one an attacker knows without any scalar.
    #[test]
    fn a_low_order_key_is_refused_on_either_side() {
        let mut r = rng(12);
        let producer = ProducerCrypto::generate(512, &mut r).unwrap();
        let client = X25519Secret::generate(&mut r);
        for u in [0u8, 1] {
            let mut key = [0u8; KEY_LEN];
            key[0] = u;
            for refused in [
                producer.pairwise_key(ClientId(1), &key),
                PairwiseKey::for_client(&client, ClientId(1), &key),
            ] {
                assert!(matches!(refused, Err(ScbrError::Crypto(CryptoError::InvalidKey { .. }))));
            }
        }
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
            "4dfd1a3e6faff8a2a994dab4cab52898e86f589ab8d5fdea590483a0ce681f7ff9226b216d49f08e\
             5be6b750ad1a"
        );
        assert_eq!(
            hex(&envelope),
            "000000441561c1cf8ce287c3ed5b3e296a65b7656f4f44cea34636378cab0bb3869404c604685bd2\
             40096a8d40b8e0361731ee2ec8e763f25e0b7f69527562fe384144538c6dfa60000000407730bfdc\
             1988c458bfe9946d70d0252915fcaaa0590200e15a5185705c7f98dc234ca21903f8d6d4d1ba3341\
             718c193e7a12b9c2bd09e2ba093810c24db517ef"
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
            (2351835461894720056, 4176409124227897208)
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
