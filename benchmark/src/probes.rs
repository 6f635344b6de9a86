//! Replay probes: the same publications, fed through each layer's public
//! functions in isolation.
//!
//! A probe times one layer on exactly the batches the reference publish
//! pass carried, so `end-to-end − Σ probe × multiplicity` is what no
//! layer accounts for (reported as `overlay.unattributed_us_per_msg`,
//! never hidden). Times come from adaptive repetition; counts come from
//! one fixed pass over a freshly built structure, so they repeat exactly.

use crate::trace::Tracer;
use crate::workloads::SubInput;
use scbr::attr::AttrSchema;
use scbr::codec;
use scbr::engine::{BatchMatches, MatchingEngine};
use scbr::index::{new_index, IndexKind, MatchScratch, SubscriptionIndex};
use scbr::protocol::keys::ProducerCrypto;
use scbr::protocol::messages::{Message, PublishItem};
use scbr::publication::CompiledHeader;
use scbr::{ClientId, KeyEpoch, PublicationSpec, SubscriptionId};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::{AesCtr, RsaKeyPair, SealedBox, SymmetricKey};
use scbr_net::{batch, SecureLink};
use sgx_sim::attest::{AttestationService, VerifierPolicy};
use sgx_sim::seal::{SealPolicy, VersionedSeal};
use sgx_sim::{link, CostModel, EnclaveBuilder, MemorySim, SgxPlatform};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Trace id the reference pass and every probe span share.
pub const PROBE_TRACE: u64 = 1;
/// Wall time one probe may spend repeating its body.
const PROBE_BUDGET: Duration = Duration::from_millis(100);
/// Subscriptions the write-path probes add and remove again.
const WRITE_PROBE_OPS: usize = 256;
/// Buffer the sealing probes seal.
const SEAL_PROBE_BYTES: usize = 256 * 1024;

/// What the probes measured. Times are nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `codec::encode_header`, per message.
    pub encode_header_ns: f64,
    /// `AesCtr::encrypt_with_nonce` of one header, per message.
    pub ctr_encrypt_ns: f64,
    /// `AesCtr::decrypt_into` of one header, per message.
    pub ctr_decrypt_ns: f64,
    /// Mean header ciphertext size.
    pub header_bytes: f64,
    /// `codec::decode_header_into`, per message.
    pub decode_header_ns: f64,
    /// `SubscriptionIndex::match_into` on enclave memory, per message.
    pub index_match_ns: f64,
    /// The same on native memory under `CostModel::free`.
    pub index_match_free_ns: f64,
    /// Tracked memory reads of one index pass, per message.
    pub index_reads_per_msg: f64,
    /// Matching subscriptions (before client dedup), per message.
    pub matches_per_msg: f64,
    /// Index structure size.
    pub node_count: f64,
    /// Index simulated footprint.
    pub logical_bytes: f64,
    /// `SubscriptionIndex::insert`, per subscription.
    pub index_insert_ns: f64,
    /// `SubscriptionIndex::remove`, per subscription.
    pub index_remove_ns: f64,
    /// `MatchingEngine::match_encrypted_batch_into`, per message.
    pub engine_match_ns: f64,
    /// `MatchingEngine::register_envelope`, per subscription.
    pub register_envelope_ns: f64,
    /// `MatchingEngine::unregister_envelope`, per subscription.
    pub unregister_envelope_ns: f64,
    /// `MatchingEngine::snapshot` of the whole population.
    pub snapshot_ns: f64,
    /// `MatchingEngine::restore` of that snapshot.
    pub restore_ns: f64,
    /// Size of that snapshot.
    pub snapshot_bytes: f64,
    /// RSA-512 signature over a registration-sized body.
    pub rsa_sign_ns: f64,
    /// Its verification.
    pub rsa_verify_ns: f64,
    /// `SealedBox::seal`, per KiB.
    pub authenc_seal_ns_per_kib: f64,
    /// `SealedBox::open`, per KiB.
    pub authenc_open_ns_per_kib: f64,
    /// One empty `Enclave::ecall`.
    pub ecall_ns: f64,
    /// `VersionedSeal::seal`, per MiB.
    pub seal_ns_per_mib: f64,
    /// `VersionedSeal::unseal`, per MiB.
    pub unseal_ns_per_mib: f64,
    /// One mutual-attestation link handshake (4 messages).
    pub link_handshake_ns: f64,
    /// `Message::PublishBatch` to wire and back, per batch.
    pub message_wire_ns: f64,
    /// `batch::pack`, per batch.
    pub batch_pack_ns: f64,
    /// `batch::unpack`, per batch.
    pub batch_unpack_ns: f64,
    /// `SecureLink::seal` of one full-batch frame.
    pub link_seal_ns: f64,
    /// `SecureLink::open` of that frame.
    pub link_open_ns: f64,
    /// Sealed frame size per carried message.
    pub frame_bytes_per_msg: f64,
}

/// Repeats `body` (after one calibration call) until [`PROBE_BUDGET`] is
/// used, inside one span, and returns nanoseconds per call.
fn timed(tracer: &mut Tracer, name: &'static str, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    body();
    let once = start.elapsed().max(Duration::from_nanos(50));
    let reps = (PROBE_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 4096) as u32;
    tracer.span(name, PROBE_TRACE, |_| {
        let start = Instant::now();
        for _ in 0..reps {
            body();
        }
        start.elapsed().as_nanos() as f64 / f64::from(reps)
    })
}

/// Runs `body` exactly once inside a span (for work that cannot be
/// repeated on the same state) and returns nanoseconds per operation.
fn once(tracer: &mut Tracer, name: &'static str, operations: usize, body: impl FnOnce()) -> f64 {
    tracer.span(name, PROBE_TRACE, |_| {
        let start = Instant::now();
        body();
        start.elapsed().as_nanos() as f64 / operations.max(1) as f64
    })
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe over `batches` (the reference pass's batches) against
/// structures holding exactly `population`.
///
/// # Errors
///
/// Any layer call failing: a probe that cannot run is a harness defect.
pub fn run(
    tracer: &mut Tracer,
    population: &[SubInput],
    batches: &[&[PublicationSpec]],
    seed: u64,
) -> Result<Probes, String> {
    let mut p = Probes::default();
    let mut rng = CryptoRng::from_seed(seed ^ 0x70_726f_6265);
    let messages: Vec<&PublicationSpec> = batches.iter().flat_map(|b| b.iter()).collect();
    let per_msg = messages.len() as f64;
    let per_batch = batches.len() as f64;
    let producer = ProducerCrypto::generate(512, &mut rng).map_err(text)?;
    let sk = producer.sk().clone();

    // ---- codec + AES-CTR: the per-message fixed work ----------------------
    p.encode_header_ns = timed(tracer, "probe.codec.encode_header", || {
        for m in &messages {
            black_box(codec::encode_header(m));
        }
    }) / per_msg;
    let plains: Vec<Vec<u8>> = messages.iter().map(|m| codec::encode_header(m)).collect();
    p.ctr_encrypt_ns = timed(tracer, "probe.crypto.ctr_encrypt", || {
        for plain in &plains {
            black_box(AesCtr::encrypt_with_nonce(&sk, &mut rng, plain));
        }
    }) / per_msg;
    let headers: Vec<Vec<u8>> =
        plains.iter().map(|plain| AesCtr::encrypt_with_nonce(&sk, &mut rng, plain)).collect();
    p.header_bytes = headers.iter().map(Vec::len).sum::<usize>() as f64 / per_msg;
    let mut cipher = AesCtr::new(&sk, [0u8; scbr_crypto::ctr::NONCE_LEN]);
    let mut plain = Vec::new();
    let mut failed = false;
    p.ctr_decrypt_ns = timed(tracer, "probe.crypto.ctr_decrypt", || {
        for header in &headers {
            failed |= cipher.decrypt_into(header, &mut plain).is_err();
            black_box(&plain);
        }
    }) / per_msg;
    let schema = AttrSchema::new();
    let mut compiled = CompiledHeader::empty();
    p.decode_header_ns = timed(tracer, "probe.codec.decode_header", || {
        for plain in &plains {
            failed |= codec::decode_header_into(plain, &schema, &mut compiled).is_err();
            black_box(&compiled);
        }
    }) / per_msg;
    if failed {
        return Err("probe header did not decrypt or decode".to_owned());
    }

    // ---- the index alone, on enclave memory and on free native memory -----
    let platform = SgxPlatform::for_testing(seed ^ 0x706c_6174);
    let enclave_mem = || {
        MemorySim::enclave(
            *platform.cache_config(),
            *platform.epc_config(),
            platform.cost_model().clone(),
        )
    };
    let compiled_headers: Vec<CompiledHeader> = messages
        .iter()
        .map(|m| m.compile_header(&schema).map_err(text))
        .collect::<Result<_, _>>()?;
    let compiled_subs = population
        .iter()
        .map(|s| s.spec.compile(&schema).map_err(text))
        .collect::<Result<Vec<_>, _>>()?;
    let fill = |index: &mut dyn SubscriptionIndex| {
        for (i, (sub, compiled)) in population.iter().zip(&compiled_subs).enumerate() {
            index.insert(SubscriptionId(i as u64), sub.client, compiled.clone());
        }
    };
    let mem = enclave_mem();
    let mut index = new_index(IndexKind::Poset, &mem);
    fill(index.as_mut());
    let mut scratch = MatchScratch::new();
    let mut clients: Vec<ClientId> = Vec::new();
    let mut pass = |index: &dyn SubscriptionIndex, clients: &mut Vec<ClientId>| {
        let mut matched = 0;
        for header in &compiled_headers {
            clients.clear();
            index.match_into(header, &mut scratch, clients);
            matched += clients.len();
        }
        matched
    };
    // Counts: one pass over the freshly built index.
    let before = mem.stats();
    let matched = pass(index.as_ref(), &mut clients);
    p.index_reads_per_msg = (mem.stats().reads - before.reads) as f64 / per_msg;
    p.matches_per_msg = matched as f64 / per_msg;
    p.node_count = index.node_count() as f64;
    p.logical_bytes = index.logical_bytes() as f64;
    p.index_match_ns = timed(tracer, "probe.index.match", || {
        black_box(pass(index.as_ref(), &mut clients));
    }) / per_msg;
    // Write path: fresh ids beyond the population, added then removed.
    let extra: Vec<usize> = (0..WRITE_PROBE_OPS.min(population.len())).collect();
    let base = population.len() as u64;
    p.index_insert_ns = once(tracer, "probe.index.insert", extra.len(), || {
        for &i in &extra {
            let id = SubscriptionId(base + i as u64);
            index.insert(id, population[i].client, compiled_subs[i].clone());
        }
    });
    p.index_remove_ns = once(tracer, "probe.index.remove", extra.len(), || {
        for &i in &extra {
            black_box(index.remove(SubscriptionId(base + i as u64)));
        }
    });
    drop(index);
    let free_mem = MemorySim::native(*platform.cache_config(), CostModel::free());
    let mut free_index = new_index(IndexKind::Poset, &free_mem);
    fill(free_index.as_mut());
    p.index_match_free_ns = timed(tracer, "probe.index.match_free_memory", || {
        black_box(pass(free_index.as_ref(), &mut clients));
    }) / per_msg;
    drop(free_index);

    // ---- the engine without its gate --------------------------------------
    let mut engine = MatchingEngine::new(&enclave_mem(), IndexKind::Poset);
    engine.provision_keys(sk.clone(), producer.public_key().clone());
    for (i, sub) in population.iter().enumerate() {
        engine.register_plain(SubscriptionId(i as u64), sub.client, &sub.spec).map_err(text)?;
    }
    let header_batches: Vec<Vec<Vec<u8>>> = batches
        .iter()
        .map(|b| b.iter().map(|m| producer.encrypt_header(m, &mut rng)).collect())
        .collect();
    let mut matches = BatchMatches::new();
    p.engine_match_ns = timed(tracer, "probe.engine.match_batch", || {
        for headers in &header_batches {
            engine.match_encrypted_batch_into(headers, &mut matches);
            black_box(matches.total_clients());
        }
    }) / per_msg;
    if matches.iter().any(|outcome| outcome.is_err()) {
        return Err("probe engine rejected a header".to_owned());
    }
    let envelopes = |unregister: bool, rng: &mut CryptoRng| -> Result<Vec<Vec<u8>>, String> {
        extra
            .iter()
            .map(|&i| {
                let (id, sub) = (SubscriptionId(base + i as u64), &population[i]);
                if unregister {
                    producer.seal_unregistration(id, sub.client, rng)
                } else {
                    producer.seal_registration(&sub.spec, id, sub.client, rng)
                }
                .map_err(text)
            })
            .collect()
    };
    let registrations = envelopes(false, &mut rng)?;
    let removals = envelopes(true, &mut rng)?;
    let mut rejected = false;
    p.register_envelope_ns = once(tracer, "probe.engine.register_envelope", extra.len(), || {
        for envelope in &registrations {
            rejected |= engine.register_envelope(envelope).is_err();
        }
    });
    p.unregister_envelope_ns =
        once(tracer, "probe.engine.unregister_envelope", extra.len(), || {
            for envelope in &removals {
                rejected |= !matches!(engine.unregister_envelope(envelope), Ok((_, _, true)));
            }
        });
    if rejected {
        return Err("probe engine rejected a write-path envelope".to_owned());
    }
    p.snapshot_ns = timed(tracer, "probe.engine.snapshot", || {
        black_box(engine.snapshot());
    });
    let snapshot = engine.snapshot();
    p.snapshot_bytes = snapshot.len() as f64;
    drop(engine);
    let mut restored = MatchingEngine::new(&enclave_mem(), IndexKind::Poset);
    p.restore_ns = once(tracer, "probe.engine.restore", 1, || {
        rejected |= restored.restore(&snapshot).is_err();
    });
    if rejected {
        return Err("probe engine rejected its own snapshot".to_owned());
    }

    // ---- public-key and authenticated crypto ------------------------------
    let pair = RsaKeyPair::generate(512, &mut rng).map_err(text)?;
    let body = vec![0x5au8; 160];
    let signature = pair.private().sign(&body).map_err(text)?;
    p.rsa_sign_ns = timed(tracer, "probe.crypto.rsa_sign", || {
        black_box(pair.private().sign(&body).is_ok());
    });
    p.rsa_verify_ns = timed(tracer, "probe.crypto.rsa_verify", || {
        black_box(pair.public().verify(&body, &signature).is_ok());
    });
    let sealed_box = SealedBox::new(&SymmetricKey::generate_256(&mut rng));
    let kib16 = vec![0xa5u8; 16 * 1024];
    p.authenc_seal_ns_per_kib = timed(tracer, "probe.crypto.authenc_seal", || {
        black_box(sealed_box.seal(&kib16, b"probe", &mut rng));
    }) / 16.0;
    let sealed = sealed_box.seal(&kib16, b"probe", &mut rng);
    p.authenc_open_ns_per_kib = timed(tracer, "probe.crypto.authenc_open", || {
        black_box(sealed_box.open(&sealed, b"probe").is_ok());
    }) / 16.0;

    // ---- sgx-sim: gate, sealing, link handshake ---------------------------
    let builder = || EnclaveBuilder::new("probe").add_page(b"scbr benchmark probe enclave");
    let enclave = platform.launch(builder()).map_err(text)?;
    p.ecall_ns = timed(tracer, "probe.sgx_sim.ecall", || {
        for _ in 0..1000 {
            black_box(enclave.ecall(|_| black_box(0u64)));
        }
    }) / 1000.0;
    let counter = platform.create_counter();
    let state = vec![0x3cu8; SEAL_PROBE_BYTES];
    let mib = SEAL_PROBE_BYTES as f64 / (1024.0 * 1024.0);
    let seal = |rng: &mut CryptoRng| {
        enclave.ecall(|ctx| {
            VersionedSeal::seal(ctx, SealPolicy::MrEnclave, &platform, counter, &state, rng)
        })
    };
    p.seal_ns_per_mib = timed(tracer, "probe.sgx_sim.seal", || {
        black_box(seal(&mut rng).is_ok());
    }) / mib;
    let blob = seal(&mut rng).map_err(text)?;
    p.unseal_ns_per_mib = timed(tracer, "probe.sgx_sim.unseal", || {
        let opened = enclave.ecall(|ctx| {
            VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &platform, counter, &blob)
        });
        black_box(opened.is_ok());
    }) / mib;
    let peer_platform = SgxPlatform::for_testing(seed ^ 0x7065_6572);
    let peer = peer_platform.launch(builder()).map_err(text)?;
    let mut service = AttestationService::new();
    service.trust_platform(platform.attestation_public_key().clone());
    service.trust_platform(peer_platform.attestation_public_key().clone());
    let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
    let mut link_key = None;
    let handshake = |rng: &mut CryptoRng| -> Result<link::LinkKey, sgx_sim::SgxError> {
        let (hello, initiator) = link::initiate(&platform, &enclave, rng)?;
        let (accept, responder) =
            link::accept(&peer_platform, &peer, &service, &policy, &hello, rng)?;
        let (finish, key) = link::finish(initiator, &accept, &service, &policy, &enclave, rng)?;
        link::complete(responder, &finish, &peer)?;
        Ok(key)
    };
    p.link_handshake_ns = timed(tracer, "probe.sgx_sim.link_handshake", || {
        link_key = handshake(&mut rng).ok();
    });
    let link_key = link_key.ok_or("probe link handshake failed")?;

    // ---- net: what one full-batch frame costs on one link -----------------
    let epoch = KeyEpoch(0);
    let item_batches: Vec<Vec<PublishItem>> = header_batches
        .iter()
        .map(|headers| {
            headers
                .iter()
                .enumerate()
                .map(|(i, header_ct)| PublishItem {
                    header_ct: header_ct.clone(),
                    epoch,
                    payload_ct: (i as u32).to_be_bytes().to_vec(),
                })
                .collect()
        })
        .collect();
    let mut undecodable = false;
    p.message_wire_ns = timed(tracer, "probe.codec.message_wire", || {
        for items in &item_batches {
            let wire = Message::PublishBatch { items: items.clone() }.to_wire();
            undecodable |= Message::from_wire(&wire).is_err();
        }
    }) / per_batch;
    let members: Vec<Vec<Vec<u8>>> = item_batches
        .iter()
        .map(|items| {
            items
                .iter()
                .map(|i| codec::encode_publish(&i.header_ct, epoch, &i.payload_ct))
                .collect()
        })
        .collect();
    p.batch_pack_ns = timed(tracer, "probe.net.batch_pack", || {
        for items in &members {
            undecodable |= batch::pack(items).is_err();
        }
    }) / per_batch;
    let packed: Vec<Vec<u8>> =
        members.iter().map(|items| batch::pack(items).map_err(text)).collect::<Result<_, _>>()?;
    p.batch_unpack_ns = timed(tracer, "probe.net.batch_unpack", || {
        for payload in &packed {
            undecodable |= batch::unpack(payload).is_err();
        }
    }) / per_batch;
    let wires: Vec<Vec<u8>> = item_batches
        .iter()
        .map(|items| Message::PublishBatch { items: items.clone() }.to_wire())
        .collect();
    let mut outbound = SecureLink::outbound(link_key.as_bytes(), 0, 1);
    let mut inbound = SecureLink::inbound(link_key.as_bytes(), 1, 0);
    // Seal and open alternate (the receive counter must follow the send
    // counter), each under its own clock.
    let (mut seal_time, mut open_time, mut frames, mut frame_bytes) =
        (Duration::ZERO, Duration::ZERO, 0u32, 0usize);
    tracer.span("probe.net.link_seal_open", PROBE_TRACE, |_| {
        let budget = Instant::now();
        while frames == 0 || budget.elapsed() < 2 * PROBE_BUDGET {
            for wire in &wires {
                let start = Instant::now();
                let frame = outbound.seal(wire, &mut rng);
                seal_time += start.elapsed();
                let start = Instant::now();
                undecodable |= inbound.open(&frame).is_err();
                open_time += start.elapsed();
                frames += 1;
                frame_bytes += frame.len();
            }
        }
    });
    if undecodable {
        return Err("probe frame did not survive its round trip".to_owned());
    }
    p.link_seal_ns = seal_time.as_nanos() as f64 / f64::from(frames);
    p.link_open_ns = open_time.as_nanos() as f64 / f64::from(frames);
    p.frame_bytes_per_msg = frame_bytes as f64 / f64::from(frames) / (per_msg / per_batch);
    Ok(p)
}
