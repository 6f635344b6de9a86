//! How a broker unit test gets a broker: launched on its own platform,
//! `SK` provisioned through remote attestation against a local
//! attestation service, and sealed links to phantom neighbours. The test
//! plays the neighbours through [`Peers`], which seals the frames they
//! send and opens the frames the broker sends them.
//!
//! The links skip the handshake's quotes: a test installs the key a
//! completed handshake would have agreed. That is the only shortcut, and
//! it lives here, in test code.

use super::*;
use crate::fabric::ROUTER_ENCLAVE_CODE;

/// The phantom neighbours' ends of a broker's sealed links: per
/// neighbour, `outbound` seals what it sends the broker and `inbound`
/// opens what the broker sends it.
pub(super) struct Peers {
    links: BTreeMap<usize, LinkChannel>,
}

impl Peers {
    /// The input that delivers `wire` from neighbour `from`, sealed on
    /// its link.
    pub(super) fn frame(&mut self, from: usize, wire: &[u8]) -> Input {
        let link = self.links.get_mut(&from).expect("a linked neighbour");
        Input::Frame { from, bytes: link.outbound.seal_meta(wire, 0) }
    }

    /// Opens `frame`, which the broker sealed toward one of the
    /// neighbours. Frames on one link open only in the order they were
    /// sent.
    pub(super) fn open(&mut self, frame: &LinkFrame) -> Message {
        let link = self.links.get_mut(&frame.to).expect("a linked neighbour");
        let wire = link.inbound.open(&frame.bytes).expect("the broker's next frame on the link");
        Message::from_wire(&wire).expect("a message")
    }
}

/// Provisions `SK` into `broker`'s enclave through remote attestation,
/// against a service that trusts the broker's platform and a policy that
/// requires the broker's own measurement.
pub(super) fn provision(broker: &mut Broker, producer: &ProducerCrypto) {
    let mut service = AttestationService::new();
    service.trust_platform(broker.platform().attestation_public_key().clone());
    provision_under(broker, producer, &service);
}

/// [`provision`] against `service`, which also becomes the broker's link
/// trust anchor.
pub(super) fn provision_under(
    broker: &mut Broker,
    producer: &ProducerCrypto,
    service: &AttestationService,
) {
    let policy = VerifierPolicy::require_mr_enclave(router_builder(&broker.code).measurement());
    let mut producer_rng = CryptoRng::from_seed(broker.id as u64);
    broker.provision_attested(service, &policy, producer, &mut producer_rng).expect("attestation");
}

/// Installs a sealed link to every neighbour of `broker` under a fresh
/// key and returns the neighbours' ends. No lifecycle transition and no
/// heal follow, so after a restart this is the host's whole relink.
pub(super) fn relink(broker: &mut Broker) -> Peers {
    let mut links = BTreeMap::new();
    for n in broker.neighbors() {
        let mut key = [0u8; 32];
        broker.rng.fill(&mut key);
        broker.install_sealed_link(n, &key);
        let (local, peer) = (n as u64, broker.id as u64);
        links.insert(
            n,
            LinkChannel {
                outbound: SecureLink::outbound(&key, local, peer),
                inbound: SecureLink::inbound(&key, local, peer),
            },
        );
    }
    Peers { links }
}

/// Broker `id` with `neighbors`, provisioned and linked to each of them
/// as if every bring-up handshake had just completed: `Serving`.
pub(super) fn serving(
    id: usize,
    seed: u64,
    flood: bool,
    neighbors: &[usize],
    producer: &ProducerCrypto,
) -> (Broker, Peers) {
    let mut broker = Broker::attested(id, seed, ROUTER_ENCLAVE_CODE, flood, EpcConfig::default())
        .expect("launch");
    broker.set_neighbors(neighbors);
    provision(&mut broker, producer);
    let peers = relink(&mut broker);
    for &n in neighbors {
        broker.post_link_up(n, &mut Vec::new()).expect("link up");
    }
    assert_eq!(broker.lifecycle(), Lifecycle::Serving);
    (broker, peers)
}
