//! The enclave placement of the SCBR matching engine.
//!
//! [`MatchingEngine`] is the trusted core (re-exported from
//! `scbr_enclave`). [`RouterEngine`] places it inside a simulated SGX
//! enclave (every operation crosses the call gate and the index lives in
//! EPC-backed memory) or outside (native memory) — the two configurations
//! the paper's Figures 5 and 7 compare. Launching an enclave is host
//! work, so the placement stays on this side of the boundary.

pub use scbr_enclave::engine::*;

use crate::error::ScbrError;
use crate::index::IndexKind;
use scbr_telemetry::StageSummary;
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::{Enclave, MemStats, MemorySim, SgxPlatform};

/// A matching engine bound to a placement — the unit the benchmarks drive.
#[derive(Debug)]
pub struct RouterEngine {
    enclave: Option<Enclave>,
    engine: MatchingEngine,
}

impl RouterEngine {
    /// Builds an engine hosted inside a new enclave on `platform`. The
    /// `kind` parameter is a shim that goes with the next benchmark change.
    ///
    /// # Errors
    ///
    /// Propagates enclave-launch failures.
    pub fn in_enclave(platform: &SgxPlatform, kind: IndexKind) -> Result<Self, ScbrError> {
        let enclave = platform.launch(
            EnclaveBuilder::new("scbr-router").add_page(b"scbr matching engine v1").isv_prod_id(1),
        )?;
        let engine = MatchingEngine::new(enclave.memory(), kind);
        Ok(RouterEngine { enclave: Some(enclave), engine })
    }

    /// Builds an engine in native memory shaped by `platform`'s cache and
    /// cost model (the outside-enclave baseline on the same machine).
    pub fn outside(platform: &SgxPlatform) -> Self {
        let mem = MemorySim::native(*platform.cache_config(), platform.cost_model().clone());
        RouterEngine { enclave: None, engine: MatchingEngine::new(&mem, IndexKind::Poset) }
    }

    /// The enclave, when placed inside one.
    pub fn enclave(&self) -> Option<&Enclave> {
        self.enclave.as_ref()
    }

    /// Runs `f` on the engine, crossing the call gate when in an enclave.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut MatchingEngine) -> R) -> R {
        let engine = &mut self.engine;
        match &self.enclave {
            Some(enclave) => enclave.ecall(|_ctx| f(engine)),
            None => f(engine),
        }
    }

    /// Matches a batch of encrypted headers in a **single enclave
    /// crossing** into a reusable flat result buffer — the paper's
    /// future-work optimisation ("message batching … to reduce the
    /// frequency of enclave enters/exits"): the EENTER/EEXIT pair (and its
    /// [`MemStats::ecalls`] tick) is paid once for the whole slice of
    /// headers, so per-message transition cost scales as `1/batch_size`,
    /// and each [`MAX_DRAIN`] chunk walks the covering forest once, so a
    /// node the batch's publications share is read once.
    /// Each header's outcome is independent and a steady-state call
    /// allocates nothing (see
    /// [`MatchingEngine::match_encrypted_batch_into`]).
    pub fn match_batch_into(&mut self, headers: &[Vec<u8>], out: &mut BatchMatches) {
        self.call(|e| e.match_encrypted_batch_into(headers, out))
    }

    /// Read-only access without crossing the gate (setup/inspection).
    pub fn engine(&self) -> &MatchingEngine {
        &self.engine
    }

    /// Virtual nanoseconds elapsed on the engine's memory.
    pub fn elapsed_ns(&self) -> f64 {
        self.engine.memory().elapsed_ns()
    }

    /// Memory counters of the engine's memory.
    pub fn stats(&self) -> MemStats {
        self.engine.memory().stats()
    }

    /// Resets time and counters (between measurement phases).
    pub fn reset_counters(&self) {
        self.engine.memory().reset_counters()
    }

    /// Enables or disables the inner engine's per-stage latency
    /// instrumentation (no enclave crossing: a configuration flip, not
    /// trusted work).
    pub fn set_telemetry(&mut self, on: bool) {
        self.engine.set_telemetry(on);
    }

    /// Per-stage latency summaries recorded by the inner engine.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.engine.stage_summaries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, SubscriptionId};
    use crate::index::SubscriptionIndex;
    use crate::protocol::keys::ProducerCrypto;
    use crate::publication::PublicationSpec;
    use crate::subscription::SubscriptionSpec;
    use scbr_crypto::CryptoRng;
    use scbr_telemetry::Stage;

    fn producer(rng: &mut CryptoRng) -> ProducerCrypto {
        ProducerCrypto::new(rng)
    }

    #[test]
    fn telemetry_records_stages_without_changing_results_or_cost() {
        let mut rng = CryptoRng::from_seed(77);
        let producer = producer(&mut rng);
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(1), ClientId(2), &mut rng).unwrap();
        let publication = PublicationSpec::new().attr("symbol", "HAL").attr("price", 3.0);
        let header_ct = producer.encrypt_header(&publication, &mut rng);

        let run = |telemetry: bool| {
            // A real cost model so the virtual clock actually advances.
            let mem =
                MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::default());
            let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
            engine.provision(producer.sk().clone());
            engine.set_telemetry(telemetry);
            engine.register_envelope(&envelope).unwrap();
            let clients = engine.match_encrypted(&header_ct).unwrap();
            (clients, mem.elapsed_ns(), engine.stage_summaries())
        };

        let (plain_clients, plain_ns, plain_stages) = run(false);
        let (instr_clients, instr_ns, instr_stages) = run(true);
        assert_eq!(plain_clients, instr_clients, "telemetry must not change matches");
        assert_eq!(plain_ns, instr_ns, "reading the clock must not charge it");
        assert!(plain_stages.is_empty(), "disabled telemetry records nothing");
        let stages: Vec<_> = instr_stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Decrypt, Stage::IndexMatch]);
        assert!(instr_stages.iter().all(|s| s.count == 1 && s.p50_ns > 0));
    }

    #[test]
    fn encrypted_round_trip() {
        let mut rng = CryptoRng::from_seed(1);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());

        let spec = SubscriptionSpec::new().eq("symbol", "INTC");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(7), ClientId(3), &mut rng).unwrap();
        assert_eq!(engine.register_envelope(&envelope).unwrap(), SubscriptionId(7));

        let publication = PublicationSpec::new().attr("symbol", "INTC").attr("price", 1.0);
        let header_ct = producer.encrypt_header(&publication, &mut rng);
        assert_eq!(engine.match_encrypted(&header_ct).unwrap(), vec![ClientId(3)]);
    }

    #[test]
    fn unregister_envelope_removes_and_is_idempotent() {
        let mut rng = CryptoRng::from_seed(41);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let envelope =
            producer.seal_registration(&spec, SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        engine.register_envelope(&envelope).unwrap();
        assert_eq!(engine.index().len(), 1);

        let unreg = producer.seal_unregistration(SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        assert_eq!(
            engine.unregister_envelope(&unreg).unwrap(),
            (SubscriptionId(3), ClientId(5), true)
        );
        assert_eq!(engine.index().len(), 0);
        let publication = PublicationSpec::new().attr("symbol", "HAL");
        assert!(engine.match_plain(&publication).unwrap().is_empty());
        // Second removal authenticates but reports "did not exist".
        let unreg2 =
            producer.seal_unregistration(SubscriptionId(3), ClientId(5), &mut rng).unwrap();
        assert_eq!(
            engine.unregister_envelope(&unreg2).unwrap(),
            (SubscriptionId(3), ClientId(5), false)
        );
    }

    #[test]
    fn forged_unregistration_rejected_and_changes_nothing() {
        let mut rng = CryptoRng::from_seed(42);
        let producer = producer(&mut rng);
        let rogue = ProducerCrypto::new(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&envelope).unwrap();
        // Sealed under another producer's SK: refused, index untouched.
        let forged = rogue.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        assert!(engine.unregister_envelope(&forged).is_err());
        // Tampered ciphertext: refused too.
        let mut bent =
            producer.seal_unregistration(SubscriptionId(1), ClientId(1), &mut rng).unwrap();
        bent[6] ^= 1;
        assert!(engine.unregister_envelope(&bent).is_err());
        // A registration envelope fed to the unregister path fails its
        // tag: it is not a removal.
        assert!(engine.unregister_envelope(&envelope).is_err());
        assert_eq!(engine.index().len(), 1, "nothing was removed");
    }

    #[test]
    fn unregistered_subscriptions_never_survive_a_snapshot() {
        let mut rng = CryptoRng::from_seed(43);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "A"))
            .unwrap();
        engine
            .register_plain(SubscriptionId(2), ClientId(2), &SubscriptionSpec::new().eq("s", "B"))
            .unwrap();
        assert!(engine.unregister(SubscriptionId(1)));
        let snapshot = engine.snapshot();
        let mem2 = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
        assert_eq!(restored.restore(&snapshot).unwrap(), 1, "only the live subscription");
        assert!(restored.match_plain(&PublicationSpec::new().attr("s", "A")).unwrap().is_empty());
        assert_eq!(
            restored.match_plain(&PublicationSpec::new().attr("s", "B")).unwrap(),
            vec![ClientId(2)]
        );
    }

    #[test]
    fn re_registration_replaces_instead_of_duplicating() {
        let mut rng = CryptoRng::from_seed(44);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        let envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", "X"),
                SubscriptionId(7),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&envelope).unwrap();
        engine.register_envelope(&envelope).unwrap();
        assert_eq!(engine.index().len(), 1, "same id registered twice keeps one row");
        // One removal fully clears it.
        assert!(engine.unregister(SubscriptionId(7)));
        assert_eq!(engine.index().len(), 0);
        assert_eq!(engine.snapshot(), MatchingEngine::new(&mem, IndexKind::Poset).snapshot());
    }

    #[test]
    fn register_envelope_requires_keys() {
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        assert!(matches!(
            engine.register_envelope(b"whatever"),
            Err(ScbrError::MissingKeys { .. })
        ));
    }

    #[test]
    fn tampered_envelope_rejected() {
        let mut rng = CryptoRng::from_seed(2);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        let mut envelope = producer
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        envelope[6] ^= 1;
        assert!(engine.register_envelope(&envelope).is_err());
        assert_eq!(engine.index().len(), 0, "nothing was inserted");
    }

    #[test]
    fn unsigned_registration_rejected() {
        // A malicious infrastructure (or client bypassing the producer)
        // cannot register subscriptions: it lacks SK, and so the
        // registration key.
        let mut rng = CryptoRng::from_seed(3);
        let producer = producer(&mut rng);
        let rogue = ProducerCrypto::new(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        let envelope = rogue
            .seal_registration(
                &SubscriptionSpec::new().eq("s", 1i64),
                SubscriptionId(1),
                ClientId(1),
                &mut rng,
            )
            .unwrap();
        assert!(engine.register_envelope(&envelope).is_err());
    }

    #[test]
    fn match_encrypted_with_wrong_key_fails_or_mismatches() {
        let mut rng = CryptoRng::from_seed(4);
        let producer_a = producer(&mut rng);
        let producer_b = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer_a.sk().clone());
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "X"))
            .unwrap();
        // Header encrypted under the wrong SK decrypts to garbage: the codec
        // rejects it (or it simply never matches).
        let publication = PublicationSpec::new().attr("s", "X");
        let ct = producer_b.encrypt_header(&publication, &mut rng);
        match engine.match_encrypted(&ct) {
            Err(_) => {}
            Ok(clients) => assert!(clients.is_empty()),
        }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut rng = CryptoRng::from_seed(21);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        // Mix of plaintext and envelope registrations.
        engine
            .register_plain(SubscriptionId(1), ClientId(1), &SubscriptionSpec::new().eq("s", "A"))
            .unwrap();
        let env = producer
            .seal_registration(
                &SubscriptionSpec::new().gt("p", 5.0),
                SubscriptionId(2),
                ClientId(2),
                &mut rng,
            )
            .unwrap();
        engine.register_envelope(&env).unwrap();

        let snapshot = engine.snapshot();
        // A fresh engine (fresh schema!) restores and matches identically.
        let mem2 = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut restored = MatchingEngine::new(&mem2, IndexKind::Poset);
        assert_eq!(restored.restore(&snapshot).unwrap(), 2);
        let publication = PublicationSpec::new().attr("s", "A").attr("p", 9.0);
        assert_eq!(
            restored.match_plain(&publication).unwrap(),
            engine.match_plain(&publication).unwrap()
        );
        assert_eq!(restored.index().len(), 2);
        // Corrupt snapshots are rejected.
        assert!(restored.restore(&snapshot[..snapshot.len() - 2]).is_err());
    }

    #[test]
    fn snapshot_survives_sealing_through_enclave_restart() {
        // The full §2 restart story: seal the snapshot with a monotonic
        // counter, restart the enclave, unseal and restore.
        use sgx_sim::seal::{SealPolicy, VersionedSeal};
        let platform = SgxPlatform::for_testing(22);
        let mut rng = CryptoRng::from_seed(23);
        let counter = platform.create_counter();

        let build = || {
            platform
                .launch(sgx_sim::enclave::EnclaveBuilder::new("scbr-router").add_page(b"engine v1"))
                .unwrap()
        };
        let enclave = build();
        let mut engine = MatchingEngine::new(enclave.memory(), IndexKind::Poset);
        engine
            .register_plain(SubscriptionId(1), ClientId(7), &SubscriptionSpec::new().eq("x", 1i64))
            .unwrap();
        let (_, sealed) = enclave
            .ecall(|ctx| {
                VersionedSeal::seal_link(
                    ctx,
                    SealPolicy::MrEnclave,
                    &platform,
                    counter,
                    None,
                    &engine.snapshot(),
                    &mut rng,
                )
            })
            .unwrap();

        // "Reboot": a new enclave with the same measurement restores.
        let restarted = build();
        let mut engine2 = MatchingEngine::new(restarted.memory(), IndexKind::Poset);
        let (_, snapshot) = restarted
            .ecall(|ctx| {
                VersionedSeal::unseal_chain(
                    ctx,
                    SealPolicy::MrEnclave,
                    &platform,
                    counter,
                    &[&sealed],
                )
            })
            .unwrap();
        assert_eq!(engine2.restore(&snapshot[0]).unwrap(), 1);
        let publication = PublicationSpec::new().attr("x", 1i64);
        assert_eq!(engine2.match_plain(&publication).unwrap(), vec![ClientId(7)]);
    }

    #[test]
    fn match_batch_into_agrees_with_vec_batch_and_isolates_errors() {
        let mut rng = CryptoRng::from_seed(26);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        for i in 0..10u64 {
            engine
                .register_plain(
                    SubscriptionId(i),
                    ClientId(i),
                    &SubscriptionSpec::new().gt("p", i as f64),
                )
                .unwrap();
        }
        let headers: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let publication = PublicationSpec::new().attr("p", 2.5 + i as f64);
                producer.encrypt_header(&publication, &mut rng)
            })
            .collect();
        let mut out = BatchMatches::new();
        engine.match_encrypted_batch_into(&headers, &mut out);
        assert_eq!(out.len(), headers.len());
        assert!(!out.is_empty());
        for (i, ct) in headers.iter().enumerate() {
            assert_eq!(out.get(i).unwrap(), engine.match_encrypted(ct).unwrap().as_slice());
        }
        assert_eq!(out.total_clients(), out.iter().map(|r| r.unwrap().len()).sum::<usize>());

        // A poisoned header records its error without sinking batch-mates,
        // and the reused buffer fully forgets the previous batch.
        let mut mixed = headers.clone();
        mixed[2].truncate(3);
        engine.match_encrypted_batch_into(&mixed, &mut out);
        assert_eq!(out.len(), mixed.len());
        assert!(out.get(2).is_err());
        for (i, ct) in headers.iter().enumerate() {
            if i != 2 {
                assert_eq!(out.get(i).unwrap(), engine.match_encrypted(ct).unwrap().as_slice());
            }
        }
    }

    #[test]
    fn fresh_engine_isolates_a_truncated_last_header() {
        let mut rng = CryptoRng::from_seed(47);
        let producer = producer(&mut rng);
        let mem = MemorySim::native(sgx_sim::CacheConfig::default(), sgx_sim::CostModel::free());
        let mut engine = MatchingEngine::new(&mem, IndexKind::Poset);
        engine.provision(producer.sk().clone());
        for i in 0..4u64 {
            let spec = SubscriptionSpec::new().gt("p", i as f64);
            engine.register_plain(SubscriptionId(i), ClientId(i), &spec).unwrap();
        }
        let mut headers: Vec<Vec<u8>> = [1.5, 3.5]
            .iter()
            .map(|&p| producer.encrypt_header(&PublicationSpec::new().attr("p", p), &mut rng))
            .collect();
        // Shorter than a nonce: it fails before its decode slot is filled,
        // on an engine whose scratch has never held three headers.
        headers.push(vec![0u8; 3]);
        let mut out = BatchMatches::new();
        engine.match_encrypted_batch_into(&headers, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out.get(0).unwrap(), &[ClientId(0), ClientId(1)]);
        assert_eq!(out.get(1).unwrap(), &[ClientId(0), ClientId(1), ClientId(2), ClientId(3)]);
        assert!(out.get(2).is_err());
    }

    #[test]
    fn match_batch_is_one_enclave_crossing() {
        let platform = SgxPlatform::for_testing(8);
        let mut rng = CryptoRng::from_seed(25);
        let producer = producer(&mut rng);
        let mut engine = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        engine.call(|e| e.provision(producer.sk().clone()));
        for i in 0..8u64 {
            let spec = SubscriptionSpec::new().gt("p", i as f64);
            engine.call(|e| e.register_plain(SubscriptionId(i), ClientId(i), &spec)).unwrap();
        }
        let headers: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                producer.encrypt_header(&PublicationSpec::new().attr("p", i as f64 + 0.5), &mut rng)
            })
            .collect();

        engine.reset_counters();
        let sequential: Vec<_> =
            headers.iter().map(|ct| engine.call(|e| e.match_encrypted(ct)).unwrap()).collect();
        let seq_stats = engine.stats();
        assert_eq!(seq_stats.ecalls, headers.len() as u64);

        engine.reset_counters();
        let mut batched = BatchMatches::new();
        engine.match_batch_into(&headers, &mut batched);
        let batch_stats = engine.stats();
        assert_eq!(batch_stats.ecalls, 1, "whole batch crosses the gate once");
        let spans: Vec<_> = batched.iter().map(|span| span.unwrap().to_vec()).collect();
        assert_eq!(spans, sequential, "batching never changes the match set");
        assert!(
            batch_stats.elapsed_ns < seq_stats.elapsed_ns,
            "amortised transitions are cheaper: {} vs {}",
            batch_stats.elapsed_ns,
            seq_stats.elapsed_ns
        );

        // A poisoned header is isolated behind the gate too, still in
        // one crossing.
        let mut mixed = headers.clone();
        mixed[3].truncate(2);
        engine.reset_counters();
        engine.match_batch_into(&mixed, &mut batched);
        assert_eq!(engine.stats().ecalls, 1);
        assert!(batched.get(3).is_err());
        for (i, outcome) in batched.iter().enumerate() {
            if i != 3 {
                assert_eq!(outcome.unwrap(), sequential[i].as_slice());
            }
        }
    }

    #[test]
    fn enclave_placement_charges_transitions() {
        let platform = SgxPlatform::for_testing(5);
        let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        let mut outside = RouterEngine::outside(&platform);
        assert!(inside.enclave().is_some());
        assert!(outside.enclave().is_none());

        let spec = SubscriptionSpec::new().eq("s", "X");
        inside.call(|e| e.register_plain(SubscriptionId(1), ClientId(1), &spec)).unwrap();
        outside.call(|e| e.register_plain(SubscriptionId(1), ClientId(1), &spec)).unwrap();
        assert_eq!(inside.enclave().unwrap().ecall_count(), 1);
        assert!(
            inside.elapsed_ns() > outside.elapsed_ns(),
            "enclave pays call-gate and EPC admission costs"
        );
    }

    #[test]
    fn inside_and_outside_agree_on_results() {
        let platform = SgxPlatform::for_testing(6);
        let mut rng = CryptoRng::from_seed(7);
        let producer = producer(&mut rng);
        let mut inside = RouterEngine::in_enclave(&platform, IndexKind::Poset).unwrap();
        let mut outside = RouterEngine::outside(&platform);
        for engine in [&mut inside, &mut outside] {
            engine.call(|e| e.provision(producer.sk().clone()));
        }
        for i in 0..20u64 {
            let spec = SubscriptionSpec::new().gt("price", i as f64);
            let env = producer
                .seal_registration(&spec, SubscriptionId(i), ClientId(i), &mut rng)
                .unwrap();
            inside.call(|e| e.register_envelope(&env)).unwrap();
            outside.call(|e| e.register_envelope(&env)).unwrap();
        }
        let publication = PublicationSpec::new().attr("price", 10.5);
        let ct = producer.encrypt_header(&publication, &mut rng);
        let a = inside.call(|e| e.match_encrypted(&ct)).unwrap();
        let b = outside.call(|e| e.match_encrypted(&ct)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 11); // price > 0 .. price > 10
    }
}
