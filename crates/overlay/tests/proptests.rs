//! Property: covering-pruned subscription propagation is
//! **delivery-equivalent** to flooding every subscription to every
//! router.
//!
//! Pruning is a pure traffic optimisation: a subscription withheld from a
//! link because a broader one already crossed it must never change which
//! edge clients receive which publications — the broader interest pulls
//! the publications to the pruning router, whose local index finishes the
//! job. These properties drive random subscription sets over random
//! trees, publish random batches from random routers, and require the
//! pruned and flooded fabrics to produce identical delivery sets — plus a
//! single-router oracle check: the overlay delivers exactly what one big
//! flat router would.

mod common;

use common::*;
use proptest::prelude::*;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::FlatOracle;
use scbr::protocol::keys::ProducerCrypto;
use scbr::publication::PublicationSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_overlay::fabric::{FabricConfig, OverlayFabric, Propagation};
use scbr_overlay::{Delivery, Topology};
use sgx_sim::{CacheConfig, CostModel, MemorySim};

/// One producer identity for the whole run.
fn shared_producer() -> ProducerCrypto {
    ProducerCrypto::new(&mut CryptoRng::from_seed(0x70726f70))
}

/// Runs one fabric end to end and returns the sorted delivery set.
fn run_fabric(
    topology: &Topology,
    propagation: Propagation,
    seed: u64,
    subs: &[RawSub],
    pubs: &[PublicationSpec],
    publish_at: usize,
) -> (Vec<Delivery>, OverlayFabric) {
    let config = FabricConfig { propagation, ..FabricConfig::attested(seed) };
    let mut fabric =
        OverlayFabric::build_with_producer(topology.clone(), config, shared_producer())
            .expect("fabric build");
    for (i, raw) in subs.iter().enumerate() {
        let at = raw.router % topology.routers();
        fabric
            .subscribe(at, ClientId(i as u64), &build_sub(raw))
            .expect("generated subscriptions register");
    }
    let deliveries = fabric.publish(publish_at, pubs).expect("publish routes");
    (deliveries, fabric)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pruned ≡ flooded over random trees, random subscriptions and random
    /// publication batches.
    #[test]
    fn pruned_propagation_is_delivery_equivalent_to_flooding(
        parents in proptest::collection::vec(0usize..8, 1..5),
        subs in proptest::collection::vec(sub_strategy(), 0..12),
        pubs in proptest::collection::vec(pub_strategy(), 1..6),
        publish_router in 0usize..64,
        seed in 0u64..1_000,
    ) {
        let topology = build_tree(&parents);
        let publish_at = publish_router % topology.routers();
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();

        let (pruned, pruned_fabric) = run_fabric(
            &topology, Propagation::CoveringPruned,
            seed, &subs, &publications, publish_at,
        );
        let (flooded, flooded_fabric) = run_fabric(
            &topology, Propagation::Flood,
            seed, &subs, &publications, publish_at,
        );
        prop_assert_eq!(&pruned, &flooded, "pruned and flooded fabrics disagree");
        // Pruning never *increases* propagation traffic or state.
        prop_assert!(
            pruned_fabric.total_forwarded() <= flooded_fabric.total_forwarded(),
            "pruning must not forward more than flooding"
        );
        prop_assert!(
            pruned_fabric.total_index_entries() <= flooded_fabric.total_index_entries(),
            "pruning must not store more than flooding"
        );
    }

    /// The overlay (pruned, multi-hop) delivers exactly what a single
    /// big router holding every subscription would.
    #[test]
    fn overlay_matches_single_router_oracle(
        parents in proptest::collection::vec(0usize..8, 1..4),
        subs in proptest::collection::vec(sub_strategy(), 0..10),
        pubs in proptest::collection::vec(pub_strategy(), 1..5),
        publish_router in 0usize..64,
        seed in 0u64..1_000,
    ) {
        let topology = build_tree(&parents);
        let publish_at = publish_router % topology.routers();
        let publications: Vec<PublicationSpec> = pubs.iter().map(build_pub).collect();
        let (deliveries, _) = run_fabric(
            &topology, Propagation::CoveringPruned,
            seed, &subs, &publications, publish_at,
        );

        // Oracle: one flat matcher with every subscription.
        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut oracle = FlatOracle::new(&mem);
        for (i, raw) in subs.iter().enumerate() {
            oracle
                .register_plain(SubscriptionId(i as u64), ClientId(i as u64), &build_sub(raw))
                .expect("oracle registration");
        }
        let mut expected: Vec<Delivery> = Vec::new();
        for (p, publication) in publications.iter().enumerate() {
            for client in oracle.match_plain(publication).expect("oracle match") {
                let raw = &subs[client.0 as usize];
                expected.push(Delivery {
                    router: raw.router % topology.routers(),
                    client,
                    publication: p,
                });
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(deliveries, expected, "overlay disagrees with the flat oracle");
    }
}
