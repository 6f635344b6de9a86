//! Sealed storage and monotonic counters.
//!
//! An enclave can persist secrets across restarts by *sealing* them: the
//! platform derives a key from its fused device key and the enclave's
//! identity, so only the same enclave (policy `MrEnclave`) or any enclave
//! from the same vendor (policy `MrSigner`) on the same machine can unseal.
//!
//! The paper (§2, end) points out that sealing alone does not prevent
//! *rollback*: an attacker can serve a stale-but-valid sealed file. The
//! fix, modelled here, is to bind a platform [`MonotonicCounter`] value
//! into the sealed blob and compare it on unseal.
//!
//! State that changes a little at a time need not be re-sealed whole:
//! [`VersionedSeal::seal_link`] / [`VersionedSeal::unseal_chain`] keep it as
//! a sealed *base* plus an append-only chain of sealed *deltas*, each blob
//! on its own counter value, with the same guarantee — the host can serve
//! the genuine, complete, current chain or be refused. That chain is the
//! one versioned format: a single sealed blob is a base with no deltas.
//!
//! A launched enclave derives its seal key once per policy, the first time
//! it seals or unseals under that policy, and holds the resulting
//! [`scbr_crypto::SealedBox`] for the rest of the launch. That is sound
//! because the key is a pure function of the platform key, the enclave's
//! identity and the policy, none of which changes while the enclave runs;
//! the held box is enclave-private state like any other key the enclave
//! keeps (a broker's `SK` and `K_reg`), and a relaunch starts without it.
//! Every sealed byte and every nonce draw is what a fresh derivation per
//! seal would give; only the HKDF and AES key schedule are not repeated.

use crate::enclave::EnclaveContext;
use crate::error::SgxError;
use scbr_crypto::ctr::{SymmetricKey, NONCE_LEN};
use scbr_crypto::poly1305::TAG_LEN;
use scbr_crypto::rng::CryptoRng;

/// Key-derivation policy for sealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealPolicy {
    /// Key bound to the exact enclave measurement: new versions of the code
    /// cannot read old data.
    MrEnclave,
    /// Key bound to the signer: any enclave from the same vendor (and
    /// product id) can read the data.
    MrSigner,
}

#[cfg(test)]
thread_local! {
    /// How many times [`seal_key`] ran on this thread.
    static SEAL_KEY_DERIVATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Derives the seal key for the calling enclave under `policy`.
///
/// Deterministic per (platform, identity, policy): the same enclave gets
/// the same key on every call, a different enclave gets an unrelated key.
/// Since none of the three changes during a launch, the enclave runs this
/// once per launch and policy and keeps the box it keys (see the module
/// doc); sealing never re-derives it per blob.
pub fn seal_key(ctx: &EnclaveContext<'_>, policy: SealPolicy) -> SymmetricKey {
    #[cfg(test)]
    SEAL_KEY_DERIVATIONS.with(|n| n.set(n.get() + 1));
    let identity = ctx.identity();
    let mut info = Vec::with_capacity(72);
    match policy {
        SealPolicy::MrEnclave => {
            info.extend_from_slice(b"seal-mrenclave");
            info.extend_from_slice(&identity.mr_enclave);
        }
        SealPolicy::MrSigner => {
            info.extend_from_slice(b"seal-mrsigner");
            info.extend_from_slice(&identity.mr_signer);
            info.extend_from_slice(&identity.isv_prod_id.to_be_bytes());
        }
    }
    let mut key = [0u8; 32];
    scbr_crypto::hkdf::derive(ctx.platform_key(), b"sgx-seal", &info, &mut key);
    SymmetricKey::from_bytes(key)
}

/// A platform monotonic counter (SGX PSE-style).
///
/// Counters only move forward; enclaves bind the current value into sealed
/// state to detect rollback.
#[derive(Debug, Default)]
pub struct MonotonicCounter {
    value: u64,
}

impl MonotonicCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        MonotonicCounter { value: 0 }
    }

    /// Current value.
    pub fn read(&self) -> u64 {
        self.value
    }

    /// Increments and returns the new value.
    pub fn increment(&mut self) -> u64 {
        self.value += 1;
        self.value
    }
}

/// Sealed state with rollback protection: a sealed *base* plus an
/// append-only chain of sealed *deltas*, each blob bound to its own
/// monotonic-counter value, so the host can serve the genuine, complete,
/// current chain or be refused. One blob on its own is a chain with no
/// deltas ([`VersionedSeal::seal`] / [`VersionedSeal::unseal`]).
///
/// ```
/// # use sgx_sim::platform::SgxPlatform;
/// # use sgx_sim::enclave::EnclaveBuilder;
/// # use sgx_sim::seal::{VersionedSeal, SealPolicy};
/// # use scbr_crypto::CryptoRng;
/// let platform = SgxPlatform::for_testing(1);
/// let enclave = platform
///     .launch(EnclaveBuilder::new("e").add_page(b"code"))
///     .unwrap();
/// let counter = platform.create_counter();
/// let mut rng = CryptoRng::from_seed(2);
/// let policy = SealPolicy::MrEnclave;
/// let (base, v1) = enclave.ecall(|ctx| {
///     VersionedSeal::seal_link(ctx, policy, &platform, counter, None, b"state v1", &mut rng)
/// }).unwrap();
/// let (_, delta) = enclave.ecall(|ctx| {
///     VersionedSeal::seal_link(ctx, policy, &platform, counter, Some(base), b"+v2", &mut rng)
/// }).unwrap();
/// let (_, state) = enclave.ecall(|ctx| {
///     VersionedSeal::unseal_chain(ctx, policy, &platform, counter, &[&v1, &delta])
/// }).unwrap();
/// assert_eq!(state, [b"state v1".to_vec(), b"+v2".to_vec()]);
/// // The base alone is no longer the current state: rollback refused.
/// let stale = enclave.ecall(|ctx| {
///     VersionedSeal::unseal_chain(ctx, policy, &platform, counter, &[&v1])
/// });
/// assert!(stale.is_err());
/// ```
#[derive(Debug)]
pub struct VersionedSeal;

impl VersionedSeal {
    /// Increments counter `counter_id` and seals `data` bound to the new
    /// value: a fresh base, [`VersionedSeal::seal_link`] with no base.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NotFound`] for an unknown counter.
    pub fn seal(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        platform: &crate::platform::SgxPlatform,
        counter_id: crate::platform::CounterId,
        data: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, SgxError> {
        Self::seal_link(ctx, policy, platform, counter_id, None, data, rng).map(|(_, blob)| blob)
    }

    /// Unseals a blob produced by [`VersionedSeal::seal`]: a chain of
    /// that one base, so it must be authentic and sealed at the live
    /// counter value ([`VersionedSeal::unseal_chain`]).
    ///
    /// # Errors
    ///
    /// As [`VersionedSeal::unseal_chain`].
    pub fn unseal(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        platform: &crate::platform::SgxPlatform,
        counter_id: crate::platform::CounterId,
        blob: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let (_, mut payloads) = Self::unseal_chain(ctx, policy, platform, counter_id, &[blob])?;
        Ok(payloads.pop().expect("one blob, one payload"))
    }

    /// Seals one link of a chain: a fresh base (`base: None`) or a delta
    /// on the base that was sealed at counter value `base`.
    ///
    /// The blob takes a fresh counter value `v`; its associated data
    /// binds `v ‖ kind ‖ base version` (a base names itself), so a blob
    /// authenticates its own place in exactly one chain. Returns `v` with
    /// the blob: the caller names it as `base` in the deltas that follow
    /// a base. The blob is `header ‖ nonce ‖ ciphertext ‖ tag`, sealed
    /// straight into one buffer on the launch's held box.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NotFound`] for an unknown counter.
    pub fn seal_link(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        platform: &crate::platform::SgxPlatform,
        counter_id: crate::platform::CounterId,
        base: Option<u64>,
        data: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(u64, Vec<u8>), SgxError> {
        let version = platform.increment_counter(counter_id)?;
        let header = LinkHeader {
            version,
            kind: if base.is_some() { LINK_DELTA } else { LINK_BASE },
            base: base.unwrap_or(version),
        }
        .to_bytes();
        // The nonce is drawn as `SealedBox::seal` draws it, so the blob is
        // byte for byte `header ‖ seal(data)`.
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut blob = Vec::with_capacity(LINK_HEADER_LEN + NONCE_LEN + data.len() + TAG_LEN);
        blob.extend_from_slice(&header);
        blob.extend_from_slice(&nonce);
        ctx.seal_box(policy).seal_into(nonce, data, &header, &mut blob);
        Ok((version, blob))
    }

    /// Unseals a chain written by [`VersionedSeal::seal_link`]: `blobs[0]`
    /// the base, the rest its deltas in the order they were sealed.
    /// Returns the base's counter value and every payload, base first.
    ///
    /// The chain must be the *whole, current* one: a base at `v_b`, deltas
    /// at exactly `v_b+1, v_b+2, …`, all naming `v_b`, the last blob at the
    /// live counter value. A truncated tail, a dropped, reordered or
    /// duplicated delta, deltas spliced across two bases, a delta offered
    /// as a base, or an older whole chain all fail one of those checks
    /// before any MAC is computed; the MAC over each blob's header then
    /// vouches that the host did not simply rewrite the numbers. Every
    /// blob opens on the launch's held seal box.
    ///
    /// # Errors
    ///
    /// [`SgxError::UnsealFailed`] for any chain the rules above refuse or
    /// a blob that fails authentication; [`SgxError::NotFound`] for an
    /// unknown counter.
    pub fn unseal_chain(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        platform: &crate::platform::SgxPlatform,
        counter_id: crate::platform::CounterId,
        blobs: &[&[u8]],
    ) -> Result<(u64, Vec<Vec<u8>>), SgxError> {
        let live = platform.read_counter(counter_id)?;
        let Some(first) = blobs.first() else {
            return Err(SgxError::UnsealFailed { reason: "empty chain" });
        };
        let base = LinkHeader::parse(first)?;
        if base.kind != LINK_BASE || base.base != base.version {
            return Err(SgxError::UnsealFailed { reason: "chain does not start with a base" });
        }
        let mut last = base.version;
        for (i, blob) in blobs.iter().enumerate().skip(1) {
            let header = LinkHeader::parse(blob)?;
            if header.kind != LINK_DELTA || header.base != base.version {
                return Err(SgxError::UnsealFailed { reason: "delta from another chain" });
            }
            if base.version.checked_add(i as u64) != Some(header.version) {
                return Err(SgxError::UnsealFailed { reason: "chain gap or reordering" });
            }
            last = header.version;
        }
        if last != live {
            return Err(SgxError::UnsealFailed { reason: "stale counter (rollback detected)" });
        }
        let sealer = ctx.seal_box(policy);
        let mut payloads = Vec::with_capacity(blobs.len());
        for blob in blobs {
            let (aad, sealed) = blob.split_at(LINK_HEADER_LEN);
            payloads.push(
                sealer
                    .open(sealed, aad)
                    .map_err(|_| SgxError::UnsealFailed { reason: "mac mismatch" })?,
            );
        }
        Ok((base.version, payloads))
    }
}

const LINK_BASE: u8 = 0;
const LINK_DELTA: u8 = 1;
const LINK_HEADER_LEN: usize = 17;

/// The clear, MAC-bound header of one chain blob.
struct LinkHeader {
    version: u64,
    kind: u8,
    base: u64,
}

impl LinkHeader {
    fn to_bytes(&self) -> [u8; LINK_HEADER_LEN] {
        let mut out = [0u8; LINK_HEADER_LEN];
        out[..8].copy_from_slice(&self.version.to_be_bytes());
        out[8] = self.kind;
        out[9..].copy_from_slice(&self.base.to_be_bytes());
        out
    }

    fn parse(blob: &[u8]) -> Result<Self, SgxError> {
        let Some(header) = blob.get(..LINK_HEADER_LEN) else {
            return Err(SgxError::UnsealFailed { reason: "blob too short" });
        };
        Ok(LinkHeader {
            version: u64::from_be_bytes(header[..8].try_into().expect("8 bytes")),
            kind: header[8],
            base: u64::from_be_bytes(header[9..].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;
    use crate::platform::SgxPlatform;

    fn platform() -> SgxPlatform {
        SgxPlatform::for_testing(7)
    }

    fn launch(p: &SgxPlatform, name: &str, page: &[u8]) -> crate::enclave::Enclave {
        p.launch(EnclaveBuilder::new(name).add_page(page).signer([5u8; 32])).expect("launch")
    }

    /// Seals `data` as one bare blob on the launch's box under `policy`
    /// (versioned state seals through [`VersionedSeal::seal_link`]).
    fn seal_data(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        data: &[u8],
        aad: &[u8],
        rng: &mut CryptoRng,
    ) -> Vec<u8> {
        ctx.seal_box(policy).seal(data, aad, rng)
    }

    /// Opens a blob sealed with [`seal_data`]; a blob from another
    /// enclave, policy or platform, or a tampered one, is refused.
    fn unseal_data(
        ctx: &EnclaveContext<'_>,
        policy: SealPolicy,
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        ctx.seal_box(policy)
            .open(sealed, aad)
            .map_err(|_| SgxError::UnsealFailed { reason: "mac mismatch" })
    }

    #[test]
    fn seal_unseal_same_enclave() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let mut rng = CryptoRng::from_seed(1);
        let sealed =
            e.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, b"secret", b"v1", &mut rng));
        let out = e.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &sealed, b"v1"));
        assert_eq!(out.unwrap(), b"secret");
    }

    #[test]
    fn different_enclave_cannot_unseal_mrenclave_policy() {
        let p = platform();
        let a = launch(&p, "a", b"code-a");
        let b = launch(&p, "b", b"code-b");
        let mut rng = CryptoRng::from_seed(2);
        let sealed = a.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, b"secret", b"", &mut rng));
        let out = b.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &sealed, b""));
        assert!(out.is_err());
    }

    #[test]
    fn same_signer_can_unseal_mrsigner_policy() {
        let p = platform();
        let a = launch(&p, "a", b"code-a");
        let b = launch(&p, "b", b"code-b"); // same signer, different code
        let mut rng = CryptoRng::from_seed(3);
        let sealed = a.ecall(|ctx| seal_data(ctx, SealPolicy::MrSigner, b"shared", b"", &mut rng));
        let out = b.ecall(|ctx| unseal_data(ctx, SealPolicy::MrSigner, &sealed, b""));
        assert_eq!(out.unwrap(), b"shared");
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let p1 = platform();
        let p2 = SgxPlatform::for_testing(8);
        let a1 = launch(&p1, "a", b"code");
        let a2 = launch(&p2, "a", b"code"); // identical enclave, other machine
        let mut rng = CryptoRng::from_seed(4);
        let sealed = a1.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, b"local", b"", &mut rng));
        assert!(a2.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &sealed, b"")).is_err());
    }

    #[test]
    fn tampered_blob_rejected() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let mut rng = CryptoRng::from_seed(5);
        let mut sealed =
            e.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, b"secret", b"", &mut rng));
        sealed[9] ^= 1;
        assert!(e.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &sealed, b"")).is_err());
    }

    /// What `seal_data` wrote for this enclave before sealed storage moved
    /// from HMAC-SHA256 to Poly1305-AES: `b"sealed before Poly1305"`
    /// under associated data `b"v1"`, as an 8-byte nonce, the ciphertext
    /// and a 32-byte tag.
    const HMAC_LAYOUT_BLOB: &str = "74829ff9779d61da8371eaed82c1d2be103dd1f29cfdb6ddca923ba5186c\
                                    ba0b7485f6415edf1df51c0d47874ad0ebb1a6809c75bba60d16fbf94f18cd7c";

    #[test]
    fn hmac_layout_blob_is_refused() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let old: Vec<u8> = (0..HMAC_LAYOUT_BLOB.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&HMAC_LAYOUT_BLOB[i..i + 2], 16).unwrap())
            .collect();
        let got = e.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &old, b"v1"));
        assert!(matches!(got, Err(SgxError::UnsealFailed { .. })), "got {got:?}");
        // The same state sealed now opens under the same key.
        let mut rng = CryptoRng::from_seed(32);
        let plain = b"sealed before Poly1305";
        let blob = e.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, plain, b"v1", &mut rng));
        assert_eq!(blob[..8], old[..8], "same drawn nonce");
        assert_eq!(blob.len(), old.len() - 16, "a 16-byte tag in place of 32");
        let opened = e.ecall(|ctx| unseal_data(ctx, SealPolicy::MrEnclave, &blob, b"v1"));
        assert_eq!(opened.unwrap(), plain);
    }

    #[test]
    fn monotonic_counter_moves_forward() {
        let mut c = MonotonicCounter::new();
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment(), 1);
        assert_eq!(c.increment(), 2);
        assert_eq!(c.read(), 2);
    }

    /// Seals `data` as a one-base chain on `counter`.
    fn seal_one(
        e: &crate::enclave::Enclave,
        p: &SgxPlatform,
        counter: crate::platform::CounterId,
        data: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<Vec<u8>, SgxError> {
        e.ecall(|ctx| {
            VersionedSeal::seal_link(ctx, SealPolicy::MrEnclave, p, counter, None, data, rng)
        })
        .map(|(_, blob)| blob)
    }

    /// Opens `blob` as a chain of that one base.
    fn open_one(
        e: &crate::enclave::Enclave,
        p: &SgxPlatform,
        counter: crate::platform::CounterId,
        blob: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        e.ecall(|ctx| VersionedSeal::unseal_chain(ctx, SealPolicy::MrEnclave, p, counter, &[blob]))
            .map(|(_, mut payloads)| payloads.pop().expect("one payload"))
    }

    #[test]
    fn versioned_seal_round_trip() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let counter = p.create_counter();
        let mut rng = CryptoRng::from_seed(6);
        let blob = seal_one(&e, &p, counter, b"cfg", &mut rng).unwrap();
        assert_eq!(open_one(&e, &p, counter, &blob).unwrap(), b"cfg");
        // `seal` / `unseal` write and read that same one-base chain.
        let unsealed =
            e.ecall(|ctx| VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &p, counter, &blob));
        assert_eq!(unsealed.unwrap(), b"cfg");
        let sealed = e.ecall(|ctx| {
            VersionedSeal::seal(ctx, SealPolicy::MrEnclave, &p, counter, b"cfg2", &mut rng)
        });
        assert_eq!(open_one(&e, &p, counter, &sealed.unwrap()).unwrap(), b"cfg2");
    }

    #[test]
    fn versioned_seal_detects_rollback() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let counter = p.create_counter();
        let mut rng = CryptoRng::from_seed(7);
        let old = seal_one(&e, &p, counter, b"v1", &mut rng).unwrap();
        let new = seal_one(&e, &p, counter, b"v2", &mut rng).unwrap();
        // Serving the stale blob must fail; the fresh one must succeed.
        let stale = open_one(&e, &p, counter, &old);
        assert!(matches!(stale, Err(SgxError::UnsealFailed { .. })));
        assert_eq!(open_one(&e, &p, counter, &new).unwrap(), b"v2");
    }

    #[test]
    fn versioned_seal_unknown_counter() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let mut rng = CryptoRng::from_seed(8);
        let bogus = crate::platform::CounterId::invalid_for_tests();
        let r = seal_one(&e, &p, bogus, b"x", &mut rng);
        assert!(matches!(r, Err(SgxError::NotFound { .. })));
        let genuine = p.create_counter();
        let blob = seal_one(&e, &p, genuine, b"x", &mut rng).unwrap();
        assert!(matches!(open_one(&e, &p, bogus, &blob), Err(SgxError::NotFound { .. })));
    }

    /// A chain fixture: one enclave, one counter, and helpers sealing and
    /// opening links through the call gate like a broker would.
    struct Chain {
        p: SgxPlatform,
        e: crate::enclave::Enclave,
        counter: crate::platform::CounterId,
        rng: CryptoRng,
    }

    impl Chain {
        fn new(seed: u64) -> Self {
            let p = platform();
            let e = launch(&p, "chain", b"code");
            let counter = p.create_counter();
            Chain { p, e, counter, rng: CryptoRng::from_seed(seed) }
        }

        fn link(&mut self, base: Option<u64>, data: &[u8]) -> (u64, Vec<u8>) {
            let Chain { p, e, counter, rng } = self;
            e.ecall(|ctx| {
                VersionedSeal::seal_link(ctx, SealPolicy::MrEnclave, p, *counter, base, data, rng)
            })
            .unwrap()
        }

        fn open(&self, blobs: &[&Vec<u8>]) -> Result<(u64, Vec<Vec<u8>>), SgxError> {
            let blobs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
            self.e.ecall(|ctx| {
                VersionedSeal::unseal_chain(
                    ctx,
                    SealPolicy::MrEnclave,
                    &self.p,
                    self.counter,
                    &blobs,
                )
            })
        }

        fn refused(&self, blobs: &[&Vec<u8>], what: &str) {
            let got = self.open(blobs);
            assert!(matches!(got, Err(SgxError::UnsealFailed { .. })), "{what}: got {got:?}");
        }
    }

    #[test]
    fn chain_round_trips_and_every_link_takes_one_counter_value() {
        let mut c = Chain::new(20);
        let (vb, base) = c.link(None, b"base");
        assert_eq!(c.open(&[&base]).unwrap(), (vb, vec![b"base".to_vec()]));
        let (v1, d1) = c.link(Some(vb), b"d1");
        let (v2, d2) = c.link(Some(vb), b"d2");
        assert_eq!((v1, v2), (vb + 1, vb + 2));
        assert_eq!(c.p.read_counter(c.counter).unwrap(), v2, "one increment per link");
        let (got_base, payloads) = c.open(&[&base, &d1, &d2]).unwrap();
        assert_eq!(got_base, vb);
        assert_eq!(payloads, vec![b"base".to_vec(), b"d1".to_vec(), b"d2".to_vec()]);
    }

    #[test]
    fn hostile_host_cannot_edit_a_chain() {
        // Two generations: base A + 3 deltas, a compaction to base B, then
        // 3 more deltas. The host kept every blob it was ever handed.
        let mut c = Chain::new(21);
        let (va, a) = c.link(None, b"A");
        let a_deltas: Vec<Vec<u8>> = (0..3u8).map(|i| c.link(Some(va), &[b'a', i]).1).collect();
        let old_file: Vec<&Vec<u8>> = std::iter::once(&a).chain(&a_deltas).collect();
        assert!(c.open(&old_file).is_ok(), "the first generation was current once");
        let (vb, b) = c.link(None, b"B");
        let b_deltas: Vec<Vec<u8>> = (0..3u8).map(|i| c.link(Some(vb), &[b'b', i]).1).collect();
        let genuine: Vec<&Vec<u8>> = std::iter::once(&b).chain(&b_deltas).collect();

        c.refused(&[], "no blobs at all");
        c.refused(&genuine[..3], "truncated tail");
        c.refused(&genuine[..1], "base alone, deltas withheld");
        c.refused(&[&b, &b_deltas[0], &b_deltas[2]], "middle delta dropped");
        c.refused(&[&b, &b_deltas[1], &b_deltas[0], &b_deltas[2]], "two deltas swapped");
        c.refused(&[&b, &b_deltas[0], &b_deltas[0], &b_deltas[1], &b_deltas[2]], "duplicate");
        c.refused(
            &[&b, &a_deltas[0], &a_deltas[1], &a_deltas[2]],
            "pre-compaction deltas on the post-compaction base",
        );
        c.refused(
            &[&a, &b_deltas[0], &b_deltas[1], &b_deltas[2]],
            "post-compaction deltas on the pre-compaction base",
        );
        c.refused(&[&b_deltas[0], &b_deltas[1], &b_deltas[2]], "delta in base position");
        c.refused(&[&b, &b, &b_deltas[0]], "base in delta position");
        c.refused(&old_file, "older whole file");
        for victim in 0..genuine.len() {
            // One bit in the clear header, one in the ciphertext, one in
            // the tag of every blob.
            for at in [LINK_HEADER_LEN - 1, LINK_HEADER_LEN + 9, genuine[victim].len() - 1] {
                let mut bent = genuine[victim].clone();
                bent[at] ^= 1;
                let mut file = genuine.clone();
                file[victim] = &bent;
                c.refused(&file, "bit flip");
            }
        }
        // A blob in the retired single-blob layout (the bare counter value
        // as its clear header) does not pass for a chain link.
        let legacy = {
            let Chain { p, e, counter, rng } = &mut c;
            let version = p.increment_counter(*counter).unwrap().to_be_bytes();
            let sealed =
                e.ecall(|ctx| seal_data(ctx, SealPolicy::MrEnclave, b"legacy", &version, rng));
            [&version[..], &sealed].concat()
        };
        c.refused(&[&legacy], "legacy blob offered as a chain");
        let (_, fresh) = c.link(None, b"C");
        assert_eq!(c.open(&[&fresh]).unwrap().1, vec![b"C".to_vec()]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A seeded base and two deltas, byte for byte: what the seal key,
    /// the link header, the nonce draw and the cipher write together.
    /// A change to how or how often a key is derived must leave it alone.
    #[test]
    fn seeded_chain_is_pinned() {
        let mut c = Chain::new(23);
        let (vb, base) = c.link(None, b"pinned base state");
        let (_, d1) = c.link(Some(vb), b"+delta one");
        let (_, d2) = c.link(Some(vb), b"+delta two");
        let got: Vec<String> = [&base, &d1, &d2].iter().map(|b| hex(b)).collect();
        assert_eq!(
            got,
            [
                "0000000000000001000000000000000001\
                 3e29ec071ea4f56a15b9f82bc1b1eefe491292812bfd22953dc513d68f39a2b119a69490d3431af527",
                "0000000000000002010000000000000001\
                 08aa36d0252d08e5620022eeb18df47f595c5fed5b2b46235cd24b26d32f4fc8f70a",
                "0000000000000003010000000000000001\
                 a4900ce6b8700fa80500e296a39761204b83cc186be7648545b6b6af1d887c37379a",
            ]
        );
        let (_, payloads) = c.open(&[&base, &d1, &d2]).unwrap();
        assert_eq!(payloads, [&b"pinned base state"[..], b"+delta one", b"+delta two"]);
    }

    fn derivations() -> u64 {
        SEAL_KEY_DERIVATIONS.with(std::cell::Cell::get)
    }

    /// Seals a base and `deltas` deltas under `policy` on a fresh counter.
    fn seal_chain(
        e: &crate::enclave::Enclave,
        p: &SgxPlatform,
        policy: SealPolicy,
        deltas: u8,
        rng: &mut CryptoRng,
    ) -> (crate::platform::CounterId, Vec<Vec<u8>>) {
        let counter = p.create_counter();
        let (vb, base) = e
            .ecall(|ctx| VersionedSeal::seal_link(ctx, policy, p, counter, None, b"base", rng))
            .unwrap();
        let mut blobs = vec![base];
        for i in 0..deltas {
            let (_, d) = e
                .ecall(|ctx| VersionedSeal::seal_link(ctx, policy, p, counter, Some(vb), &[i], rng))
                .unwrap();
            blobs.push(d);
        }
        (counter, blobs)
    }

    fn open_chain(
        e: &crate::enclave::Enclave,
        p: &SgxPlatform,
        policy: SealPolicy,
        counter: crate::platform::CounterId,
        blobs: &[Vec<u8>],
    ) -> Result<(u64, Vec<Vec<u8>>), SgxError> {
        let blobs: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        e.ecall(|ctx| VersionedSeal::unseal_chain(ctx, policy, p, counter, &blobs))
    }

    #[test]
    fn a_launch_derives_its_seal_key_once_per_policy() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let mut rng = CryptoRng::from_seed(24);
        let before = derivations();
        let (c1, mre) = seal_chain(&e, &p, SealPolicy::MrEnclave, 49, &mut rng);
        let (c2, mrs) = seal_chain(&e, &p, SealPolicy::MrSigner, 49, &mut rng);
        assert_eq!(mre.len() + mrs.len(), 100, "100 seal_link calls");
        assert_eq!(open_chain(&e, &p, SealPolicy::MrEnclave, c1, &mre).unwrap().1.len(), 50);
        assert_eq!(open_chain(&e, &p, SealPolicy::MrSigner, c2, &mrs).unwrap().1.len(), 50);
        let blob = e.ecall(|ctx| {
            VersionedSeal::seal(ctx, SealPolicy::MrEnclave, &p, c1, b"whole", &mut rng)
        });
        let opened = e
            .ecall(|ctx| VersionedSeal::unseal(ctx, SealPolicy::MrEnclave, &p, c1, &blob.unwrap()));
        assert_eq!(opened.unwrap(), b"whole");
        assert_eq!(derivations() - before, 2, "one derivation per policy per launch");
    }

    #[test]
    fn held_boxes_keep_the_policies_apart() {
        let p = platform();
        let e = launch(&p, "a", b"code");
        let mut rng = CryptoRng::from_seed(25);
        let (c1, mre) = seal_chain(&e, &p, SealPolicy::MrEnclave, 1, &mut rng);
        let (c2, mrs) = seal_chain(&e, &p, SealPolicy::MrSigner, 1, &mut rng);
        // Both boxes are held now; each chain opens under its own policy
        // only.
        assert!(open_chain(&e, &p, SealPolicy::MrEnclave, c1, &mre).is_ok());
        assert!(open_chain(&e, &p, SealPolicy::MrSigner, c2, &mrs).is_ok());
        for (policy, counter, blobs) in
            [(SealPolicy::MrSigner, c1, &mre), (SealPolicy::MrEnclave, c2, &mrs)]
        {
            let got = open_chain(&e, &p, policy, counter, blobs);
            assert!(
                matches!(got, Err(SgxError::UnsealFailed { reason: "mac mismatch" })),
                "{policy:?}: got {got:?}"
            );
        }
    }

    #[test]
    fn a_relaunch_derives_again_and_opens_its_predecessors_chain() {
        let p = platform();
        let mut rng = CryptoRng::from_seed(26);
        let first = launch(&p, "a", b"code");
        let before = derivations();
        let (counter, blobs) = seal_chain(&first, &p, SealPolicy::MrEnclave, 3, &mut rng);
        assert_eq!(derivations() - before, 1);
        drop(first);
        let second = launch(&p, "a", b"code");
        let (_, payloads) =
            open_chain(&second, &p, SealPolicy::MrEnclave, counter, &blobs).unwrap();
        assert_eq!(payloads, [&b"base"[..], &[0], &[1], &[2]]);
        assert_eq!(derivations() - before, 2, "a relaunch starts with no held box");
    }

    #[test]
    fn genuine_chain_still_opens_after_refusals_and_only_for_its_enclave() {
        let mut c = Chain::new(22);
        let (vb, base) = c.link(None, b"state");
        let (_, d1) = c.link(Some(vb), b"+1");
        c.refused(&[&base], "truncated");
        assert_eq!(c.open(&[&base, &d1]).unwrap().1.len(), 2, "refusals change nothing");
        let other = launch(&c.p, "other", b"other code");
        let blobs: Vec<&[u8]> = vec![&base, &d1];
        let got = other.ecall(|ctx| {
            VersionedSeal::unseal_chain(ctx, SealPolicy::MrEnclave, &c.p, c.counter, &blobs)
        });
        assert!(matches!(got, Err(SgxError::UnsealFailed { reason: "mac mismatch" })));
    }
}
