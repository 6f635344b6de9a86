//! Failure injection across the trust boundaries the paper's design
//! defends: the infrastructure provider (router host) is the adversary.

use scbr::engine::MatchingEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{IndexKind, SubscriptionIndex};
use scbr::protocol::keys::{provision_sk_via_attestation, PairwiseKey, ProducerCrypto};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::X25519Secret;
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::seal::{SealPolicy, VersionedSeal};
use sgx_sim::{MemorySim, SgxPlatform};

fn producer(seed: u64) -> (ProducerCrypto, CryptoRng) {
    let mut rng = CryptoRng::from_seed(seed);
    let crypto = ProducerCrypto::new(&mut rng);
    (crypto, rng)
}

#[test]
fn infrastructure_cannot_forge_registrations() {
    // A malicious host without `SK`, and so without the registration key,
    // cannot inject subscriptions into the engine.
    let (honest, mut rng) = producer(1);
    let (rogue, _) = producer(2);
    let mem = MemorySim::native_default();
    let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
    engine.provision(honest.sk().clone());

    let spec = SubscriptionSpec::new().eq("symbol", "SPY");
    let forged = rogue
        .seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng)
        .expect("rogue can build envelopes");
    assert!(engine.register_envelope(&forged).is_err());
    // A genuine envelope of the other kind does not register either.
    let unregistration =
        honest.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    assert!(engine.register_envelope(&unregistration).is_err());
    assert_eq!(engine.index().len(), 0);
}

#[test]
fn infrastructure_cannot_replay_modified_envelopes() {
    let (honest, mut rng) = producer(3);
    let mem = MemorySim::native_default();
    let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
    engine.provision(honest.sk().clone());
    let spec = SubscriptionSpec::new().eq("symbol", "SPY");
    let envelope =
        honest.seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    // Unmodified: accepted. Any bit flip anywhere: rejected.
    assert!(engine.register_envelope(&envelope).is_ok());
    for i in (0..envelope.len()).step_by(envelope.len() / 16) {
        let mut bad = envelope.clone();
        bad[i] ^= 1;
        assert!(engine.register_envelope(&bad).is_err(), "flip at {i} accepted");
    }
}

/// Every hostile envelope, of either kind, is refused, and the engine's
/// index and retained registrations stay as they were: each single byte
/// flipped, each truncation, one sealed under a foreign `SK`, and a
/// genuine envelope offered as the other kind.
#[test]
fn hostile_envelopes_leave_the_engine_unchanged() {
    let (honest, mut rng) = producer(16);
    let (foreign, _) = producer(17);
    let mem = MemorySim::native_default();
    let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
    engine.provision(honest.sk().clone());
    let spec = SubscriptionSpec::new().eq("symbol", "SPY");
    let live =
        honest.seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    engine.register_envelope(&live).expect("a genuine registration");
    let before = (engine.index().len(), engine.snapshot());

    let spec = spec.lt("price", 5.0);
    let registration =
        honest.seal_registration(&spec, SubscriptionId(2), ClientId(2), &mut rng).expect("seal");
    let unregistration =
        honest.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    let foreign_registration =
        foreign.seal_registration(&spec, SubscriptionId(2), ClientId(2), &mut rng).expect("seal");
    let foreign_unregistration =
        foreign.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    // (what, bytes, offered as a registration)
    let mut hostile = vec![
        ("foreign SK".to_owned(), foreign_registration, true),
        ("foreign SK".to_owned(), foreign_unregistration, false),
        ("the other kind".to_owned(), registration.clone(), false),
        ("the other kind".to_owned(), unregistration.clone(), true),
    ];
    for (envelope, as_registration) in [(&registration, true), (&unregistration, false)] {
        for at in 0..envelope.len() {
            let mut flipped = envelope.clone();
            flipped[at] ^= 1;
            hostile.push((format!("byte {at} flipped"), flipped, as_registration));
        }
        for len in 0..envelope.len() {
            hostile.push((
                format!("truncated to {len}"),
                envelope[..len].to_vec(),
                as_registration,
            ));
        }
    }
    for (what, envelope, as_registration) in hostile {
        let refused = if as_registration {
            engine.register_envelope(&envelope).is_err()
        } else {
            engine.unregister_envelope(&envelope).is_err()
        };
        assert!(refused, "{what} accepted");
        assert_eq!((engine.index().len(), engine.snapshot()), before, "{what} changed the engine");
    }
    // The genuine envelopes still do their jobs.
    assert_eq!(engine.register_envelope(&registration).expect("registers"), SubscriptionId(2));
    let removed = engine.unregister_envelope(&unregistration).expect("unregisters");
    assert_eq!(removed, (SubscriptionId(1), ClientId(1), true));
}

#[test]
fn producer_rejects_garbage_submissions() {
    let (honest, mut rng) = producer(4);
    let client = X25519Secret::generate(&mut rng);
    let at_producer = honest.pairwise_key(ClientId(1), client.public_key()).expect("admit");
    // Submission sealed for a different producer.
    let (other, _) = producer(5);
    let spec = SubscriptionSpec::new().lt("price", 1.0);
    let wrong_key = PairwiseKey::for_client(&client, ClientId(1), other.public_key())
        .expect("pairwise key")
        .seal_subscription(1, &spec, &mut rng);
    assert!(at_producer.open_subscription(&wrong_key).is_err());
    // Truncated ciphertext.
    let ok = PairwiseKey::for_client(&client, ClientId(1), honest.public_key())
        .expect("pairwise key")
        .seal_subscription(1, &spec, &mut rng);
    assert_eq!(at_producer.open_subscription(&ok).expect("opens"), (1, spec));
    assert!(at_producer.open_subscription(&ok[..ok.len() - 3]).is_err());
}

#[test]
fn sk_never_reaches_an_unexpected_enclave() {
    let platform = SgxPlatform::for_testing(6);
    // The attacker controls what code actually runs; the measurement
    // policy pins the honest engine's identity.
    let honest_measurement =
        EnclaveBuilder::new("scbr-router").add_page(b"honest engine v1").measurement();
    let evil = platform
        .launch(EnclaveBuilder::new("scbr-router").add_page(b"evil engine"))
        .expect("launch");
    let mut service = AttestationService::new();
    service.trust_platform(platform.attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(honest_measurement);
    let (crypto, mut producer_rng) = producer(7);
    let mut enclave_rng = CryptoRng::from_seed(8);
    let result = provision_sk_via_attestation(
        &platform,
        &evil,
        &service,
        &policy,
        &crypto,
        &mut enclave_rng,
        &mut producer_rng,
    );
    assert!(result.is_err(), "evil enclave must not receive SK");
}

#[test]
fn untrusted_platform_cannot_attest() {
    // A platform whose attestation key the service does not trust (e.g. a
    // software emulation of SGX) cannot obtain secrets.
    let rogue_platform = SgxPlatform::for_testing(9);
    let enclave = rogue_platform
        .launch(EnclaveBuilder::new("scbr-router").add_page(b"honest engine v1"))
        .expect("launch");
    let service = AttestationService::new(); // trusts nobody
    let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
    let (crypto, mut producer_rng) = producer(10);
    let mut enclave_rng = CryptoRng::from_seed(11);
    let result = provision_sk_via_attestation(
        &rogue_platform,
        &enclave,
        &service,
        &policy,
        &crypto,
        &mut enclave_rng,
        &mut producer_rng,
    );
    assert!(result.is_err());
}

#[test]
fn sealed_router_state_resists_rollback() {
    // The enclave persists its subscription database via sealing with a
    // monotonic counter; the host serving a stale (but validly sealed)
    // snapshot is detected — the paper's §2 replay discussion.
    let platform = SgxPlatform::for_testing(12);
    let enclave =
        platform.launch(EnclaveBuilder::new("router").add_page(b"engine")).expect("launch");
    let counter = platform.create_counter();
    let mut rng = CryptoRng::from_seed(13);

    let (_, old_state) = enclave
        .ecall(|ctx| {
            VersionedSeal::seal_link(
                ctx,
                SealPolicy::MrEnclave,
                &platform,
                counter,
                None,
                b"10 subs",
                &mut rng,
            )
        })
        .expect("seal v1");
    let (_, new_state) = enclave
        .ecall(|ctx| {
            VersionedSeal::seal_link(
                ctx,
                SealPolicy::MrEnclave,
                &platform,
                counter,
                None,
                b"12 subs",
                &mut rng,
            )
        })
        .expect("seal v2");

    // Host restarts the enclave and serves the stale file.
    let restarted = platform
        .launch(EnclaveBuilder::new("router").add_page(b"engine"))
        .expect("same code, same measurement");
    let stale = restarted.ecall(|ctx| {
        VersionedSeal::unseal_chain(ctx, SealPolicy::MrEnclave, &platform, counter, &[&old_state])
    });
    assert!(stale.is_err(), "stale sealed state rejected");
    let (_, fresh) = restarted
        .ecall(|ctx| {
            VersionedSeal::unseal_chain(
                ctx,
                SealPolicy::MrEnclave,
                &platform,
                counter,
                &[&new_state],
            )
        })
        .expect("fresh state accepted");
    assert_eq!(fresh, [b"12 subs"]);
}

#[test]
fn headers_and_subscriptions_are_opaque_on_the_wire() {
    // What the infrastructure sees: AES-CTR ciphertexts. Sanity-check that
    // neither the symbol nor the price survives in the clear.
    let (crypto, mut rng) = producer(15);
    let publication =
        scbr::publication::PublicationSpec::new().attr("symbol", "NVDA").attr("price", 1234.5);
    let header_ct = crypto.encrypt_header(&publication, &mut rng);
    assert!(!header_ct.windows(4).any(|w| w == b"NVDA"));

    let spec = SubscriptionSpec::new().eq("symbol", "NVDA");
    let sub_ct =
        crypto.seal_registration(&spec, SubscriptionId(1), ClientId(1), &mut rng).expect("seal");
    assert!(!sub_ct.windows(4).any(|w| w == b"NVDA"));
}
