//! Quickstart: the SCBR engine in thirty lines.
//!
//! Registers a couple of subscriptions in a matching engine hosted inside
//! a simulated SGX enclave and routes a few publications through it —
//! plaintext first, then the real encrypted path.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use scbr::engine::RouterEngine;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::IndexKind;
use scbr::protocol::keys::ProducerCrypto;
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use sgx_sim::SgxPlatform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated SGX machine (8 MB LLC, 128 MB EPC) and an enclave-hosted
    // routing engine on it.
    let platform = SgxPlatform::for_testing(1);
    let mut router = RouterEngine::in_enclave(&platform, IndexKind::Poset)?;
    println!(
        "enclave launched, mrenclave = {:02x?}…",
        &router.enclave().unwrap().identity().mr_enclave[..4]
    );

    // The producer owns SK (shared with the enclave).
    let mut rng = CryptoRng::from_seed(2);
    let producer = ProducerCrypto::new(&mut rng);
    let sk = producer.sk().clone();
    router.call(move |e| e.provision(sk));

    // Subscriptions travel sealed under a subkey of SK.
    let alice = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
    let bob = SubscriptionSpec::new().gt("volume", 10_000i64);
    for (i, (spec, client)) in [(alice, 1u64), (bob, 2u64)].into_iter().enumerate() {
        let envelope = producer.seal_registration(
            &spec,
            SubscriptionId(i as u64),
            ClientId(client),
            &mut rng,
        )?;
        router.call(|e| e.register_envelope(&envelope))?;
        println!("registered {spec} for client#{client}");
    }

    // Publications: the header is AES-CTR-encrypted under SK; the router
    // decrypts and matches *inside the enclave*.
    let quotes = [
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 42.0).attr("volume", 500i64),
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 55.0).attr("volume", 90_000i64),
        PublicationSpec::new().attr("symbol", "IBM").attr("price", 10.0).attr("volume", 3i64),
    ];
    for quote in &quotes {
        let header_ct = producer.encrypt_header(quote, &mut rng);
        let clients = router.call(|e| e.match_encrypted(&header_ct))?;
        println!(
            "quote {{symbol={}, price={}, volume={}}} -> {clients:?}",
            quote.header()[0].1,
            quote.header()[1].1,
            quote.header()[2].1
        );
    }

    println!(
        "\nvirtual time spent inside the enclave: {:.1} µs over {} ecalls",
        router.elapsed_ns() / 1_000.0,
        router.enclave().unwrap().ecall_count()
    );
    Ok(())
}
