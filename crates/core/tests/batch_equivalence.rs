//! Property: batch matching is **match-set-equivalent** to sequential
//! per-message matching and to a flat scan.
//!
//! The batch-first pipeline (PR 2) must be a pure amortisation: moving N
//! publications through one enclave crossing may change *cost*, never
//! *results*. These properties drive random subscription databases and
//! header batches through the engine and through the enclave-hosted
//! [`RouterEngine::match_batch_into`] gate, and require bit-identical
//! client lists against the one-message-at-a-time path and the
//! [`FlatOracle`] — with a poisoned header sinking only itself.

use proptest::prelude::*;
use scbr::engine::{BatchMatches, MatchingEngine, RouterEngine};
use scbr::ids::{ClientId, SubscriptionId};
use scbr::index::{FlatOracle, IndexKind};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaPublicKey;
use sgx_sim::{CacheConfig, CostModel, MemorySim, SgxPlatform};

const SYMBOLS: [&str; 3] = ["HAL", "IBM", "AMD"];
const NUMERIC: [&str; 3] = ["price", "volume", "change"];

/// A generated subscription: optional symbol equality plus numeric bounds.
#[derive(Debug, Clone)]
struct RawSub {
    symbol: Option<usize>,
    bounds: Vec<(usize, u8, f64)>,
}

fn sub_strategy() -> impl Strategy<Value = RawSub> {
    (
        proptest::option::of(0usize..SYMBOLS.len()),
        proptest::collection::vec((0usize..NUMERIC.len(), 0u8..4, -20.0f64..120.0), 0..3),
    )
        .prop_map(|(symbol, bounds)| RawSub { symbol, bounds })
}

fn build_sub(raw: &RawSub) -> SubscriptionSpec {
    let mut spec = SubscriptionSpec::new();
    if let Some(s) = raw.symbol {
        spec = spec.eq("symbol", SYMBOLS[s]);
    }
    let mut used = std::collections::HashSet::new();
    for (attr, op, bound) in &raw.bounds {
        if !used.insert(*attr) {
            continue; // one predicate per attribute avoids contradictions
        }
        let name = NUMERIC[*attr];
        spec = match op {
            0 => spec.lt(name, *bound),
            1 => spec.le(name, *bound),
            2 => spec.gt(name, *bound),
            _ => spec.ge(name, *bound),
        };
    }
    spec
}

/// A generated publication header: a symbol and all numeric attributes.
#[derive(Debug, Clone)]
struct RawPub {
    symbol: usize,
    values: Vec<f64>,
}

fn pub_strategy() -> impl Strategy<Value = RawPub> {
    (0usize..SYMBOLS.len(), proptest::collection::vec(-30.0f64..130.0, NUMERIC.len()))
        .prop_map(|(symbol, values)| RawPub { symbol, values })
}

fn build_pub(raw: &RawPub) -> PublicationSpec {
    let mut spec = PublicationSpec::new().attr("symbol", SYMBOLS[raw.symbol]);
    for (i, v) in raw.values.iter().enumerate() {
        spec = spec.attr(NUMERIC[i], *v);
    }
    spec
}

/// The per-header spans of a batch in which every header matched.
fn spans(batch: &BatchMatches) -> Vec<Vec<ClientId>> {
    batch.iter().map(|span| span.expect("valid header").to_vec()).collect()
}

fn test_key() -> (SymmetricKey, RsaPublicKey) {
    (
        SymmetricKey::from_bytes([0x42; 16]),
        RsaPublicKey::from_parts(
            scbr_crypto::BigUint::from_u64(3233),
            scbr_crypto::BigUint::from_u64(17),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `match_encrypted_batch_into` equals the sequential per-message path
    /// and the flat oracle item by item, and a poisoned header records its
    /// own error while its batch-mates' spans stay intact.
    #[test]
    fn batch_equals_sequential_for_all_index_kinds(
        subs in proptest::collection::vec(sub_strategy(), 0..24),
        pubs in proptest::collection::vec(pub_strategy(), 1..10),
        seed in 0u64..1_000,
    ) {
        let (sk, pk) = test_key();
        let mut rng = CryptoRng::from_seed(seed);
        let headers: Vec<Vec<u8>> = pubs
            .iter()
            .map(|p| {
                let plain = scbr::codec::encode_header(&build_pub(p));
                AesCtr::encrypt_with_nonce(&sk, &mut rng, &plain)
            })
            .collect();

        let mem = MemorySim::native(CacheConfig::default(), CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        let mut oracle = FlatOracle::new(&mem);
        engine.provision_keys(sk, pk);
        for (i, raw) in subs.iter().enumerate() {
            // Collide clients: dedup paths.
            let (id, client, spec) = (SubscriptionId(i as u64), ClientId(i as u64 % 7), build_sub(raw));
            engine.register_plain(id, client, &spec).expect("generated subscriptions compile");
            oracle.register_plain(id, client, &spec).expect("generated subscriptions compile");
        }

        let mut out = BatchMatches::new();
        engine.match_encrypted_batch_into(&headers, &mut out);
        let batched = spans(&out);
        prop_assert_eq!(batched.len(), headers.len());
        for (i, ct) in headers.iter().enumerate() {
            let sequential = engine.match_encrypted(ct).expect("sequential matches");
            prop_assert_eq!(&batched[i], &sequential, "publication {}", i);
            let flat = oracle.match_plain(&build_pub(&pubs[i])).expect("flat matches");
            prop_assert_eq!(&batched[i], &flat, "flat oracle, publication {}", i);
        }
        // Poison one header: the reused buffer reports that error alone,
        // every other span is what it was.
        let poisoned = seed as usize % headers.len();
        let mut mixed = headers.clone();
        mixed[poisoned].truncate(3);
        engine.match_encrypted_batch_into(&mixed, &mut out);
        prop_assert_eq!(out.len(), headers.len());
        for (i, outcome) in out.iter().enumerate() {
            if i == poisoned {
                prop_assert!(outcome.is_err());
            } else {
                prop_assert_eq!(outcome.expect("untouched"), batched[i].as_slice());
            }
        }
    }

    /// The enclave-gated batch API returns the same match sets as the
    /// ungated engine, for any batch split.
    #[test]
    fn enclave_match_batch_equals_outside(
        subs in proptest::collection::vec(sub_strategy(), 0..16),
        pubs in proptest::collection::vec(pub_strategy(), 1..8),
        split in 1usize..8,
    ) {
        let (sk, pk) = test_key();
        let mut rng = CryptoRng::from_seed(9);
        let platform = SgxPlatform::for_testing(1);
        let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).expect("launch");
        let mut outside = RouterEngine::outside(&platform);
        for engine in [&mut inside, &mut outside] {
            let (sk, pk) = (sk.clone(), pk.clone());
            engine.call(move |e| e.provision_keys(sk, pk));
            for (i, raw) in subs.iter().enumerate() {
                engine
                    .call(|e| {
                        e.register_plain(SubscriptionId(i as u64), ClientId(i as u64), &build_sub(raw))
                    })
                    .expect("register");
            }
        }
        let headers: Vec<Vec<u8>> = pubs
            .iter()
            .map(|p| {
                let plain = scbr::codec::encode_header(&build_pub(p));
                AesCtr::encrypt_with_nonce(&sk, &mut rng, &plain)
            })
            .collect();

        let ecalls_before = inside.stats().ecalls;
        let mut out = BatchMatches::new();
        let mut inside_results = Vec::new();
        for chunk in headers.chunks(split) {
            inside.match_batch_into(chunk, &mut out);
            inside_results.extend(spans(&out));
        }
        let crossings = inside.stats().ecalls - ecalls_before;
        prop_assert_eq!(crossings, headers.chunks(split).len() as u64, "one ECALL per chunk");

        outside.match_batch_into(&headers, &mut out);
        prop_assert_eq!(inside_results, spans(&out));
    }
}
