//! The trust story of §3.1, demonstrated: why the producer's secret key
//! only ever lands in the *right* code on the *right* hardware.
//!
//! Three attempts to obtain `SK`:
//!
//! 1. the genuine routing enclave on a genuine platform — succeeds;
//! 2. a tampered router binary (different measurement) — rejected by the
//!    producer's measurement policy;
//! 3. the right binary on an *untrusted* platform (an SGX emulator, say) —
//!    rejected by the attestation service.
//!
//! Then the sealed-state lifecycle: the enclave persists its state,
//! restarts, restores — and a rollback attempt by the host is caught.
//!
//! ```text
//! cargo run --example cloud_router
//! ```

use scbr::protocol::keys::{provision_sk_via_attestation, ProducerCrypto};
use scbr_crypto::rng::CryptoRng;
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::seal::{SealPolicy, VersionedSeal};
use sgx_sim::SgxPlatform;

fn router_builder(code: &[u8]) -> EnclaveBuilder {
    EnclaveBuilder::new("scbr-router").add_page(code).isv_prod_id(1)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const GENUINE_CODE: &[u8] = b"scbr matching engine v1.0";

    // The producer knows the measurement of the router build it audited.
    let expected = router_builder(GENUINE_CODE).measurement();
    println!("producer pins mrenclave {:02x?}…\n", &expected[..6]);

    let genuine_platform = SgxPlatform::for_testing(1);
    let mut ias = AttestationService::new();
    ias.trust_platform(genuine_platform.attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(expected);

    let mut producer_rng = CryptoRng::from_seed(2);
    let producer = ProducerCrypto::new(&mut producer_rng);

    // --- 1. Genuine enclave, genuine platform. ---------------------------
    let genuine = genuine_platform.launch(router_builder(GENUINE_CODE))?;
    let mut rng1 = CryptoRng::from_seed(3);
    match provision_sk_via_attestation(
        &genuine_platform,
        &genuine,
        &ias,
        &policy,
        &producer,
        &mut rng1,
        &mut producer_rng,
    ) {
        Ok((sk, ())) => {
            println!("[1] genuine enclave:   SK provisioned ({} key bytes) ✓", sk.as_bytes().len())
        }
        Err(e) => println!("[1] genuine enclave:   UNEXPECTED failure: {e}"),
    }

    // --- 2. Tampered router binary. ---------------------------------------
    let tampered =
        genuine_platform.launch(router_builder(b"scbr matching engine v1.0 + backdoor"))?;
    let mut rng2 = CryptoRng::from_seed(4);
    match provision_sk_via_attestation(
        &genuine_platform,
        &tampered,
        &ias,
        &policy,
        &producer,
        &mut rng2,
        &mut producer_rng,
    ) {
        Ok(_) => println!("[2] tampered binary:   UNEXPECTEDLY got SK!"),
        Err(e) => println!("[2] tampered binary:   rejected ✓  ({e})"),
    }

    // --- 3. Genuine binary, untrusted platform. ----------------------------
    let emulator = SgxPlatform::for_testing(99); // IAS does not know this key
    let on_emulator = emulator.launch(router_builder(GENUINE_CODE))?;
    let mut rng3 = CryptoRng::from_seed(5);
    match provision_sk_via_attestation(
        &emulator,
        &on_emulator,
        &ias,
        &policy,
        &producer,
        &mut rng3,
        &mut producer_rng,
    ) {
        Ok(_) => println!("[3] untrusted platform: UNEXPECTEDLY got SK!"),
        Err(e) => println!("[3] untrusted platform: rejected ✓  ({e})"),
    }

    // --- Sealed state with rollback protection. ----------------------------
    println!("\nsealed-state lifecycle:");
    let counter = genuine_platform.create_counter();
    let mut seal_rng = CryptoRng::from_seed(6);
    let v1 = genuine.ecall(|ctx| {
        VersionedSeal::seal(
            ctx,
            SealPolicy::MrEnclave,
            &genuine_platform,
            counter,
            b"index: 10k subs",
            &mut seal_rng,
        )
    })?;
    let v2 = genuine.ecall(|ctx| {
        VersionedSeal::seal(
            ctx,
            SealPolicy::MrEnclave,
            &genuine_platform,
            counter,
            b"index: 12k subs",
            &mut seal_rng,
        )
    })?;
    println!("  sealed v1 ({} bytes) and v2 ({} bytes)", v1.len(), v2.len());

    // Host restarts the enclave and serves the current file: fine.
    let restarted = genuine_platform.launch(router_builder(GENUINE_CODE))?;
    let restored = restarted.ecall(|ctx| {
        VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &genuine_platform, counter, &v2)
    })?;
    println!("  restart + restore:   {:?} ✓", String::from_utf8_lossy(&restored));

    // Host serves the stale file instead: caught by the monotonic counter.
    match restarted.ecall(|ctx| {
        VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &genuine_platform, counter, &v1)
    }) {
        Ok(_) => println!("  rollback:            UNEXPECTEDLY accepted!"),
        Err(e) => println!("  rollback:            rejected ✓  ({e})"),
    }

    // Every trust operation above crossed a call gate — the cost axis the
    // batch-first pipeline amortises for data traffic.
    let genuine_stats = genuine.memory().stats();
    let restarted_stats = restarted.memory().stats();
    println!("\nenclave crossings (MemStats.ecalls):");
    println!(
        "  genuine router:   {} ecalls ({} ocalls) across attestation + sealing",
        genuine_stats.ecalls, genuine_stats.ocalls
    );
    println!(
        "  restarted router: {} ecalls ({} ocalls) across restore + rollback checks",
        restarted_stats.ecalls, restarted_stats.ocalls
    );
    Ok(())
}
