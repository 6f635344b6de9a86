//! Microbenchmarks of the crypto substrate (wall-clock).
//!
//! These measure the *real* throughput of our from-scratch primitives —
//! useful to confirm the substitution documented in DESIGN.md (software
//! AES vs the paper's Crypto++/AES-NI) and to keep regressions visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::hmac::HmacSha256;
use scbr_crypto::poly1305::Poly1305;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaKeyPair;
use scbr_crypto::sha256::Sha256;
use scbr_crypto::SealedBox;
use std::hint::black_box;

fn bench_aes_ctr(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes_ctr");
    let key = SymmetricKey::from_bytes([7u8; 16]);
    for size in [64usize, 1024, 16 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut buf = vec![0u8; size];
            b.iter(|| {
                AesCtr::new(&key, [1; 8]).apply(black_box(&mut buf));
            });
        });
    }
    group.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 4096] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let buf = vec![0xabu8; size];
            b.iter(|| Sha256::digest(black_box(&buf)));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    c.bench_function("hmac_sha256_1k", |b| {
        let buf = vec![0u8; 1024];
        b.iter(|| HmacSha256::mac(b"key", black_box(&buf)));
    });
}

/// The two MACs side by side at a one-publication link frame (112 B) and
/// a full-batch frame (9 KiB).
fn bench_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac");
    for size in [112usize, 9 * 1024] {
        let buf = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("hmac_sha256", size), &size, |b, _| {
            b.iter(|| HmacSha256::mac(b"key", black_box(&buf)));
        });
        group.bench_with_input(BenchmarkId::new("poly1305", size), &size, |b, _| {
            b.iter(|| {
                let mut mac = Poly1305::new(&[7u8; 32]);
                mac.update(black_box(&buf));
                mac.finalize()
            });
        });
    }
    group.finish();
}

fn bench_sealed_box(c: &mut Criterion) {
    c.bench_function("sealed_box_roundtrip_1k", |b| {
        let key = SymmetricKey::from_bytes([3u8; 16]);
        let sb = SealedBox::new(&key);
        let mut rng = CryptoRng::from_seed(1);
        let msg = vec![0u8; 1024];
        b.iter(|| {
            let sealed = sb.seal(black_box(&msg), b"aad", &mut rng);
            sb.open(&sealed, b"aad").unwrap()
        });
    });
}

/// The sizes the publish path runs at: a 9 KiB link frame (a 64-message
/// batch, sealed and opened once per hop under a cached schedule) and a
/// ~100-byte publication header.
fn bench_publish_path(c: &mut Criterion) {
    let key = SymmetricKey::from_bytes([5u8; 16]);
    let mut frame = vec![0u8; 9 * 1024];
    let mut ctr = AesCtr::new(&key, [2; 8]);
    c.bench_function("aes_ctr_9k_cached_schedule", |b| {
        b.iter(|| {
            ctr.reset_nonce([2; 8]);
            ctr.apply(black_box(&mut frame));
        });
    });
    let sb = SealedBox::new(&key);
    let mut rng = CryptoRng::from_seed(4);
    c.bench_function("sealed_box_seal_9k", |b| {
        b.iter(|| sb.seal(black_box(&frame), b"aad", &mut rng));
    });
    let sealed = sb.seal(&frame, b"aad", &mut rng);
    c.bench_function("sealed_box_open_9k", |b| {
        b.iter(|| sb.open(black_box(&sealed), b"aad").unwrap());
    });
    let header = [0x2au8; 100];
    c.bench_function("aes_ctr_encrypt_with_nonce_100", |b| {
        b.iter(|| AesCtr::encrypt_with_nonce(&key, &mut rng, black_box(&header)));
    });
}

fn bench_rsa(c: &mut Criterion) {
    // 512 bits is the size every producer, link and attestation key uses.
    let mut rng = CryptoRng::from_seed(512);
    let small = RsaKeyPair::generate(512, &mut rng).expect("keygen");
    c.bench_function("rsa512_sign", |b| {
        b.iter(|| small.private().sign(black_box(b"registration body")).unwrap());
    });
    let sig = small.private().sign(b"registration body").unwrap();
    c.bench_function("rsa512_verify", |b| {
        b.iter(|| small.public().verify(black_box(b"registration body"), &sig).unwrap());
    });
    c.bench_function("rsa512_keygen", |b| {
        b.iter(|| RsaKeyPair::generate(512, &mut rng).unwrap());
    });

    let mut rng = CryptoRng::from_seed(2);
    let pair = RsaKeyPair::generate(1024, &mut rng).expect("keygen");
    c.bench_function("rsa1024_encrypt", |b| {
        b.iter(|| pair.public().encrypt(black_box(b"a symmetric key"), &mut rng).unwrap());
    });
    let ct = pair.public().encrypt(b"a symmetric key", &mut rng).unwrap();
    c.bench_function("rsa1024_decrypt", |b| {
        b.iter(|| pair.private().decrypt(black_box(&ct)).unwrap());
    });
    c.bench_function("rsa1024_sign", |b| {
        b.iter(|| pair.private().sign(black_box(b"registration body")).unwrap());
    });
    let sig = pair.private().sign(b"registration body").unwrap();
    c.bench_function("rsa1024_verify", |b| {
        b.iter(|| pair.public().verify(black_box(b"registration body"), &sig).unwrap());
    });
}

criterion_group!(
    benches,
    bench_aes_ctr,
    bench_sha256,
    bench_hmac,
    bench_mac,
    bench_sealed_box,
    bench_publish_path,
    bench_rsa
);
criterion_main!(benches);
