//! The stock-exchange scenario over real TCP sockets: producer, router and
//! client run against `127.0.0.1` listeners instead of the in-process
//! transport, standing in for the prototype's ZeroMQ deployment (producer
//! and consumer on one machine, the filtering engine on another).
//!
//! ```text
//! cargo run --example tcp_deployment
//! ```

use scbr::ids::ClientId;
use scbr::protocol::keys::ProducerCrypto;
use scbr::publication::PublicationSpec;
use scbr::roles::{ClientNode, Producer, ProducerCommand};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_net::transport::{TcpTransport, Transport};
use scbr_overlay::fabric::{router_measurement, ROUTER_ENCLAVE_CODE};
use scbr_overlay::{Broker, Router};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::EpcConfig;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tcp = TcpTransport::new();
    let (router_listener, router_addr) = tcp.bind_ephemeral()?;
    let (producer_listener, producer_addr) = tcp.bind_ephemeral()?;
    println!("router on {router_addr}, producer on {producer_addr}");

    // The routing enclave, provisioned with SK by remote attestation
    // (the `stock_exchange` example walks through the flow).
    let mut broker = Broker::attested(0, 1, ROUTER_ENCLAVE_CODE, false, EpcConfig::default())?;
    let mut rng = CryptoRng::from_seed(2);
    let keys = ProducerCrypto::new(&mut rng);
    let mut ias = AttestationService::new();
    ias.trust_platform(broker.platform().attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(router_measurement());
    broker.provision_attested(&ias, &policy, &keys, &mut rng)?;

    let router = Router::spawn(router_listener, broker);
    let producer =
        Producer::spawn(producer_listener, tcp.connect(&router_addr)?, keys.clone(), rng);

    // One client over TCP.
    let mut client = ClientNode::connect(
        ClientId(1),
        keys.public_key(),
        tcp.connect(&producer_addr)?,
        tcp.connect(&router_addr)?,
        CryptoRng::from_seed(3),
    )?;
    producer
        .handle()
        .send(ProducerCommand::Admit { client: ClientId(1), public_key: *client.public_key() });
    while client.epochs_held() == 0 {
        client.drain_key_updates(Duration::from_millis(200))?;
    }
    let sub = client.subscribe(
        &SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0),
        Duration::from_secs(5),
    )?;
    println!("subscription {sub} accepted over tcp");

    producer.handle().send(ProducerCommand::Publish(
        PublicationSpec::new()
            .attr("symbol", "HAL")
            .attr("price", 48.75)
            .payload(b"HAL 48.75 -0.4%".to_vec()),
    ));
    let delivery = client.poll_delivery(Duration::from_secs(5))?.expect("delivery arrives");
    println!("delivered over tcp: {:?}", String::from_utf8_lossy(&delivery.payload));

    producer.shutdown()?;
    router.join()?;
    println!("clean shutdown");
    Ok(())
}
