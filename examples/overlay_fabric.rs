//! The multi-hop overlay, demonstrated: a tree of attested routing
//! enclaves on five untrusted hosts — including a mid-run broker crash
//! and sealed-recovery rejoin.
//!
//! ```text
//!        r0 ── r1 ── r3 ── r4        (r2 hangs off r1)
//!              │
//!              r2
//! ```
//!
//! 1. **Attest** — every broker proves its measurement to the producer
//!    (SK provisioning) and to each neighbour (mutual-quote link
//!    handshake); a tampered router binary is refused a link.
//! 2. **Propagate** — subscriptions registered at edge brokers flow up
//!    the tree, covering-pruned per link.
//! 3. **Publish** — a batch injected at one edge crosses the tree in one
//!    enclave crossing per hop and is delivered exactly to the matching
//!    edge subscribers.
//! 4. **Crash + rejoin** — a broker loses all volatile state, restarts
//!    from its rollback-protected sealed record, re-attests, re-keys its
//!    links and asks the surviving neighbours to replay their live sets;
//!    delivery is exact again, with recovery traffic only on its own
//!    links.
//!
//! ```text
//! cargo run --example overlay_fabric
//! ```

use scbr::ids::ClientId;
use scbr::{PublicationSpec, SubscriptionSpec};
use scbr_overlay::broker::{Broker, Input, Output};
use scbr_overlay::fabric::{router_measurement, FabricConfig, OverlayFabric, ROUTER_ENCLAVE_CODE};
use scbr_overlay::Topology;
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Build + attest the fabric. ----------------------------------
    let topology = Topology::tree(5, &[(0, 1), (1, 2), (1, 3), (3, 4)])?;
    println!("building a 5-broker overlay (diameter {} hops) …", topology.diameter());
    let mut fabric = OverlayFabric::build(topology, FabricConfig::attested(2016))?;
    println!("all brokers attested; every link sealed under a mutual-quote key\n");

    // A tampered router build cannot join: its quote carries the wrong
    // measurement, so an honest broker refuses the handshake hello.
    let mut rng = scbr_crypto::rng::CryptoRng::from_seed(900);
    let producer = scbr::protocol::keys::ProducerCrypto::new(&mut rng);
    let mut honest = Broker::attested(10, 900, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())?;
    let mut rogue = Broker::attested(11, 901, b"router + backdoor", false, EpcConfig::default())?;
    let mut service = AttestationService::new();
    service.trust_platform(honest.platform().attestation_public_key().clone());
    service.trust_platform(rogue.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    let lax =
        VerifierPolicy { mr_enclave: None, mr_signer: None, min_isv_svn: 0, allow_debug: true };
    honest.set_neighbors(&[11]);
    rogue.set_neighbors(&[10]);
    honest.provision_attested(&service, &policy, &producer, &mut rng)?;
    rogue.provision_attested(&service, &lax, &producer, &mut rng)?;
    let hello = honest
        .step(0, Input::Tick)?
        .into_iter()
        .find_map(|o| match o {
            Output::Frame(f) => Some(f),
            _ => None,
        })
        .expect("honest broker initiates toward the higher id");
    let accept = rogue
        .step(1, Input::Frame { from: 10, bytes: hello.bytes })?
        .into_iter()
        .find_map(|o| match o {
            Output::Frame(f) => Some(f),
            _ => None,
        })
        .expect("rogue responder answers");
    match honest.step(2, Input::Frame { from: 11, bytes: accept.bytes }) {
        Ok(_) => println!("rogue broker: UNEXPECTEDLY linked!"),
        Err(e) => println!("rogue broker refused a link ✓  ({e})\n"),
    }

    // --- 2. Covering-pruned subscription propagation. -------------------
    println!("subscribing at the edges:");
    let subs: [(usize, u64, SubscriptionSpec); 4] = [
        (0, 1, SubscriptionSpec::new().gt("price", 0.0)),
        (0, 2, SubscriptionSpec::new().gt("price", 50.0)), // covered by client 1's
        (2, 3, SubscriptionSpec::new().eq("symbol", "HAL")),
        // Pruned at r1 towards r0: client 3's broader HAL interest
        // already crossed that link.
        (4, 4, SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 30.0)),
    ];
    for (router, client, spec) in &subs {
        fabric.subscribe(*router, ClientId(*client), spec)?;
        println!("  client {client} at r{router}: {spec}");
    }
    println!(
        "propagation: {} link-forwards sent, {} covering-pruned, {} index entries fabric-wide\n",
        fabric.total_forwarded(),
        fabric.total_pruned(),
        fabric.total_index_entries()
    );

    // --- 3. Multi-hop publication batch. --------------------------------
    let batch = [
        PublicationSpec::new().attr("symbol", "HAL").attr("price", 20.0),
        PublicationSpec::new().attr("symbol", "IBM").attr("price", 80.0),
        PublicationSpec::new().attr("symbol", "HAL").attr("price", -5.0),
    ];
    fabric.reset_counters();
    let deliveries = fabric.publish(4, &batch)?;
    println!("published a {}-message batch at r4:", batch.len());
    for d in &deliveries {
        println!("  publication {} → client {} at r{}", d.publication, d.client.0, d.router);
    }

    // The paper's cost lens: transition counts stay one-per-hop-per-batch.
    println!("\nper-broker enclave crossings for the batch:");
    for stats in fabric.broker_stats() {
        println!(
            "  r{}: {} ecalls ({} ocalls), {:>8.1} virtual µs, {} index entries",
            stats.router,
            stats.ecalls,
            stats.ocalls,
            stats.elapsed_ns / 1_000.0,
            stats.subscriptions
        );
    }
    println!("\ntotal: {} ecalls across 5 brokers for a 3-message batch", fabric.total_ecalls());

    // --- 4. Crash + sealed-recovery rejoin. -----------------------------
    println!("\ncrashing r1 (the hub): all volatile state gone …");
    fabric.crash(1)?;
    // Life goes on around the hole — this removal's frame toward r1 is
    // dropped, and the rejoin reconciles it later.
    let lost = fabric.publish(4, &[PublicationSpec::new().attr("symbol", "HAL")])?;
    println!(
        "  publish during the outage: {} deliveries (r0/r2 side unreachable), {} frames dropped",
        lost.len(),
        fabric.dropped_frames()
    );
    let report = fabric.restart(1)?;
    println!(
        "r1 rejoined: {} subs restored from the sealed record, {} envelopes replayed by \
         neighbours, {} stale dropped, {} recovery frames (incident links only)",
        report.restored, report.replayed, report.dropped_stale, report.recovery_frames
    );
    let healed = fabric.publish(4, &batch)?;
    println!("post-rejoin delivery: {} deliveries (exact again)", healed.len());
    Ok(())
}
