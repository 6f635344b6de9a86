//! The paper's motivating scenario as a running system: a stock exchange
//! (producer) streams quotes through an untrusted cloud router to paying
//! clients, end to end over the in-process transport with real threads and
//! real crypto.
//!
//! ```text
//! cargo run --example stock_exchange
//! ```

use scbr::ids::ClientId;
use scbr::protocol::keys::ProducerCrypto;
use scbr::roles::{ClientNode, Producer, ProducerCommand};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_net::transport::{InProcNetwork, Transport};
use scbr_overlay::fabric::{router_measurement, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Broker, Router};
use scbr_workloads::{MarketConfig, StockMarket};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InProcNetwork::new();
    let router_listener = net.bind("router")?;
    let producer_listener = net.bind("exchange")?;

    // --- Infrastructure provider: launches the routing enclave. ---------
    let mut broker = Broker::attested(0, 1, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())?;
    println!("[cloud] routing enclave launched");

    // --- Service provider: attests the enclave, provisions SK. ----------
    let mut exchange_rng = CryptoRng::from_seed(2);
    let exchange_keys = ProducerCrypto::new(&mut exchange_rng);
    let mut ias = AttestationService::new();
    ias.trust_platform(broker.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    broker.provision_attested(&ias, &policy, &exchange_keys, &mut exchange_rng)?;
    println!("[exchange] enclave attested; SK provisioned");

    // --- Spawn the roles. ------------------------------------------------
    let router = Router::spawn(router_listener, broker);
    let producer = Producer::spawn(
        producer_listener,
        net.connect("router")?,
        exchange_keys.clone(),
        exchange_rng,
    );

    // --- Clients with different portfolios. ------------------------------
    let portfolios: [(&str, SubscriptionSpec); 3] = [
        ("alice", SubscriptionSpec::new().eq("symbol", "A").lt("close", 100.0)),
        ("bob", SubscriptionSpec::new().eq("symbol", "B")),
        ("carol", SubscriptionSpec::new().gt("volume", 40_000i64)),
    ];
    let mut clients = Vec::new();
    for (i, (name, spec)) in portfolios.into_iter().enumerate() {
        let id = ClientId(i as u64 + 1);
        let mut client = ClientNode::connect(
            id,
            exchange_keys.public_key(),
            net.connect("exchange")?,
            net.connect("router")?,
            CryptoRng::from_seed(100 + i as u64),
        )?;
        producer
            .handle()
            .send(ProducerCommand::Admit { client: id, public_key: *client.public_key() });
        while client.epochs_held() == 0 {
            client.drain_key_updates(Duration::from_millis(200))?;
        }
        let sub = client.subscribe(&spec, WAIT)?;
        println!("[{name}] admitted, group key received, subscription {sub} accepted");
        clients.push((name, client));
    }

    // --- The exchange publishes a morning of quotes. ----------------------
    let market = StockMarket::generate(&MarketConfig::small(), 7);
    let mut published = 0;
    for day in 0..3 {
        for sym in 0..market.symbols().len().min(4) {
            let quote = market.quote(sym, day);
            let publication = quote.to_publication(
                &[],
                format!("{} d{} close={}", quote.symbol, quote.day, quote.close).into_bytes(),
            );
            producer.handle().send(ProducerCommand::Publish(publication));
            published += 1;
        }
    }
    println!("[exchange] published {published} quotes");

    // --- Clients read their deliveries. -----------------------------------
    for (name, client) in clients.iter_mut() {
        let mut received = Vec::new();
        while let Some(delivery) = client.poll_delivery(Duration::from_millis(500))? {
            received.push(String::from_utf8_lossy(&delivery.payload).into_owned());
        }
        println!("[{name}] received {} matching quotes:", received.len());
        for r in received.iter().take(3) {
            println!("    {r}");
        }
    }

    producer.shutdown()?;
    let broker = router.join()?;
    let stats = broker.stats();
    println!(
        "[cloud] done: {} subscriptions registered, {} ecalls into the enclave, {} sealed checkpoints",
        broker.subscriptions(),
        stats.ecalls,
        stats.seals
    );
    Ok(())
}
