//! Enclave lifecycle: measured construction, identity and call gates.
//!
//! Mirrors the SGX flow the paper describes in §2: an enclave is created
//! (`ECREATE`), pages are added and measured (`EADD`/`EEXTEND`), and the
//! measurement is finalised (`EINIT`) into `MRENCLAVE`. Afterwards the only
//! way in is through call gates (`EENTER`/`EEXIT`), whose transition cost
//! the paper identifies as one of the SGX overheads worth batching away.
//!
//! The simulator models identity and cost faithfully; it does not attempt
//! to model *memory isolation* within a single OS process (code using the
//! simulator is trusted to route enclave state through
//! [`EnclaveContext::memory`]).

use crate::costs::{CacheConfig, CostModel, EpcConfig};
use crate::error::SgxError;
use crate::mem::MemorySim;
use crate::seal::{seal_key, SealPolicy};
use scbr_crypto::sha256::Sha256;
use scbr_crypto::SealedBox;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A 256-bit enclave measurement (`MRENCLAVE`) or signer digest
/// (`MRSIGNER`).
pub type Measurement = [u8; 32];

/// The identity of an initialised enclave, as reflected in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveIdentity {
    /// Hash of the enclave's measured contents.
    pub mr_enclave: Measurement,
    /// Hash of the signer's public key.
    pub mr_signer: Measurement,
    /// Product id assigned by the signer.
    pub isv_prod_id: u16,
    /// Security version number.
    pub isv_svn: u16,
    /// True if built in debug mode (debug enclaves are not trustworthy).
    pub debug: bool,
}

/// Incrementally measures enclave contents, mirroring
/// `ECREATE`/`EADD`/`EEXTEND`.
///
/// ```
/// use sgx_sim::enclave::EnclaveBuilder;
///
/// let builder = EnclaveBuilder::new("scbr-router")
///     .add_page(b"matching engine code")
///     .isv_prod_id(1);
/// // identical content => identical measurement
/// let again = EnclaveBuilder::new("scbr-router")
///     .add_page(b"matching engine code")
///     .isv_prod_id(1);
/// assert_eq!(builder.measurement(), again.measurement());
/// ```
#[derive(Debug, Clone)]
pub struct EnclaveBuilder {
    hasher: Sha256,
    signer: Measurement,
    isv_prod_id: u16,
    isv_svn: u16,
    debug: bool,
    pages: u64,
}

impl EnclaveBuilder {
    /// Starts measuring an enclave named `name` (the name seeds the
    /// `ECREATE` record, standing in for SECS attributes).
    pub fn new(name: &str) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"ECREATE");
        hasher.update(&(name.len() as u64).to_be_bytes());
        hasher.update(name.as_bytes());
        EnclaveBuilder {
            hasher,
            signer: [0u8; 32],
            isv_prod_id: 0,
            isv_svn: 1,
            debug: false,
            pages: 0,
        }
    }

    /// Measures one page of content (`EADD` + `EEXTEND`).
    #[must_use]
    pub fn add_page(mut self, content: &[u8]) -> Self {
        self.hasher.update(b"EADD");
        self.hasher.update(&self.pages.to_be_bytes());
        self.hasher.update(b"EEXTEND");
        self.hasher.update(&(content.len() as u64).to_be_bytes());
        self.hasher.update(content);
        self.pages += 1;
        self
    }

    /// Sets the signer identity (digest of the vendor's signing key).
    #[must_use]
    pub fn signer(mut self, signer: Measurement) -> Self {
        self.signer = signer;
        self
    }

    /// Sets the product id.
    #[must_use]
    pub fn isv_prod_id(mut self, id: u16) -> Self {
        self.isv_prod_id = id;
        self
    }

    /// Sets the security version number.
    #[must_use]
    pub fn isv_svn(mut self, svn: u16) -> Self {
        self.isv_svn = svn;
        self
    }

    /// Marks the enclave as a debug build.
    #[must_use]
    pub fn debug(mut self, debug: bool) -> Self {
        self.debug = debug;
        self
    }

    /// The measurement that `EINIT` would lock in right now.
    pub fn measurement(&self) -> Measurement {
        let mut h = self.hasher.clone();
        h.update(b"EINIT");
        h.finalize()
    }

    /// Finalises the identity.
    pub(crate) fn build_identity(&self) -> EnclaveIdentity {
        EnclaveIdentity {
            mr_enclave: self.measurement(),
            mr_signer: self.signer,
            isv_prod_id: self.isv_prod_id,
            isv_svn: self.isv_svn,
            debug: self.debug,
        }
    }
}

/// An initialised enclave: identity plus protected memory and call gates.
///
/// Create via [`crate::platform::SgxPlatform::launch`].
#[derive(Debug, Clone)]
pub struct Enclave {
    inner: Arc<EnclaveInner>,
}

#[derive(Debug)]
pub(crate) struct EnclaveInner {
    pub(crate) identity: EnclaveIdentity,
    pub(crate) mem: MemorySim,
    pub(crate) costs: CostModel,
    pub(crate) ecalls: AtomicU64,
    /// Key material tied to the platform, used for report MACs and sealing.
    pub(crate) platform_key: [u8; 32],
    /// This launch's seal boxes, `MrEnclave` then `MrSigner`, each derived
    /// the first time that policy seals or unseals. They are enclave
    /// memory: a relaunch starts without them and derives them again.
    seal_boxes: [OnceLock<SealedBox>; 2],
}

impl Enclave {
    pub(crate) fn from_parts(
        identity: EnclaveIdentity,
        cache: CacheConfig,
        epc: EpcConfig,
        costs: CostModel,
        platform_key: [u8; 32],
    ) -> Self {
        let mem = MemorySim::enclave(cache, epc, costs.clone());
        Enclave {
            inner: Arc::new(EnclaveInner {
                identity,
                mem,
                costs,
                ecalls: AtomicU64::new(0),
                platform_key,
                seal_boxes: Default::default(),
            }),
        }
    }

    /// The enclave's identity.
    pub fn identity(&self) -> &EnclaveIdentity {
        &self.inner.identity
    }

    /// Enters the enclave, runs `f` with an [`EnclaveContext`], and exits.
    ///
    /// Charges the `EENTER`/`EEXIT` transition costs on the enclave's
    /// virtual clock, like the paper's call gates, and records the
    /// transition in the memory's [`crate::mem::MemStats::ecalls`] counter
    /// so batching experiments can observe amortisation directly. The cost
    /// is per *crossing*, not per unit of work: matching a whole batch of
    /// publications inside one `ecall` pays the pair exactly once.
    pub fn ecall<R>(&self, f: impl FnOnce(&EnclaveContext<'_>) -> R) -> R {
        self.inner.ecalls.fetch_add(1, Ordering::Relaxed);
        self.inner.mem.record_ecall(self.inner.costs.eenter_ns);
        let ctx = EnclaveContext { inner: &self.inner };
        let result = f(&ctx);
        self.inner.mem.charge_ns(self.inner.costs.eexit_ns);
        result
    }

    /// Number of ECALLs performed so far.
    pub fn ecall_count(&self) -> u64 {
        self.inner.ecalls.load(Ordering::Relaxed)
    }

    /// The enclave's protected memory (for arenas living inside it).
    pub fn memory(&self) -> &MemorySim {
        &self.inner.mem
    }
}

/// Capabilities available to code running inside an enclave.
#[derive(Debug)]
pub struct EnclaveContext<'a> {
    inner: &'a EnclaveInner,
}

impl EnclaveContext<'_> {
    /// The enclave's identity (what `EREPORT` reflects).
    pub fn identity(&self) -> &EnclaveIdentity {
        &self.inner.identity
    }

    /// Protected memory for enclave data structures.
    pub fn memory(&self) -> &MemorySim {
        &self.inner.mem
    }

    /// Performs an OCALL: leaves the enclave, runs `f` untrusted, re-enters.
    pub fn ocall<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.mem.record_ocall(
            self.inner.costs.eexit_ns + self.inner.costs.ocall_ns + self.inner.costs.eenter_ns,
        );
        f()
    }

    /// Platform-bound key material (used by sealing and reports).
    pub(crate) fn platform_key(&self) -> &[u8; 32] {
        &self.inner.platform_key
    }

    /// This launch's seal box under `policy`: the cipher and MAC keys of
    /// [`seal_key`], derived on the first call and held from then on.
    pub(crate) fn seal_box(&self, policy: SealPolicy) -> &SealedBox {
        let slot = match policy {
            SealPolicy::MrEnclave => 0,
            SealPolicy::MrSigner => 1,
        };
        self.inner.seal_boxes[slot].get_or_init(|| SealedBox::new(&seal_key(self, policy)))
    }
}

/// Checks preconditions shared by launch paths.
///
/// # Errors
///
/// Rejects enclaves that declare no measured pages.
pub(crate) fn validate_builder(builder: &EnclaveBuilder) -> Result<(), SgxError> {
    if builder.pages == 0 {
        return Err(SgxError::InvalidState { expected: "at least one measured page" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> EnclaveBuilder {
        EnclaveBuilder::new("test").add_page(b"code").signer([9u8; 32])
    }

    #[test]
    fn measurement_is_deterministic() {
        assert_eq!(builder().measurement(), builder().measurement());
    }

    #[test]
    fn measurement_changes_with_content() {
        let a = EnclaveBuilder::new("e").add_page(b"v1").measurement();
        let b = EnclaveBuilder::new("e").add_page(b"v2").measurement();
        let c = EnclaveBuilder::new("f").add_page(b"v1").measurement();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn measurement_depends_on_page_order() {
        let ab = EnclaveBuilder::new("e").add_page(b"a").add_page(b"b").measurement();
        let ba = EnclaveBuilder::new("e").add_page(b"b").add_page(b"a").measurement();
        assert_ne!(ab, ba);
    }

    #[test]
    fn signer_not_part_of_mrenclave() {
        let a = builder().measurement();
        let b = builder().signer([1u8; 32]).measurement();
        assert_eq!(a, b, "mrenclave covers content, not signer");
        assert_ne!(
            builder().build_identity().mr_signer,
            builder().signer([1u8; 32]).build_identity().mr_signer
        );
    }

    #[test]
    fn empty_builder_rejected() {
        let b = EnclaveBuilder::new("empty");
        assert!(validate_builder(&b).is_err());
        assert!(validate_builder(&builder()).is_ok());
    }

    fn enclave() -> Enclave {
        Enclave::from_parts(
            builder().build_identity(),
            CacheConfig { capacity: 4096, ways: 4, line_size: 64 },
            EpcConfig { total_bytes: 64 * 4096, usable_bytes: 32 * 4096, page_size: 4096 },
            CostModel::default(),
            [3u8; 32],
        )
    }

    #[test]
    fn ecall_charges_transitions_and_counts() {
        let e = enclave();
        let t0 = e.memory().elapsed_ns();
        let out = e.ecall(|_ctx| 42);
        assert_eq!(out, 42);
        assert_eq!(e.ecall_count(), 1);
        let cost = e.memory().elapsed_ns() - t0;
        let expected = CostModel::default().eenter_ns + CostModel::default().eexit_ns;
        assert!((cost - expected).abs() < 1e-9, "cost {cost} vs {expected}");
    }

    #[test]
    fn ocall_charges_round_trip() {
        let e = enclave();
        e.ecall(|ctx| {
            let t0 = ctx.memory().elapsed_ns();
            let v = ctx.ocall(|| 7);
            assert_eq!(v, 7);
            assert!(ctx.memory().elapsed_ns() > t0);
        });
    }

    #[test]
    fn mem_stats_count_transitions_and_reset() {
        let e = enclave();
        e.ecall(|_| ());
        e.ecall(|ctx| {
            ctx.ocall(|| ());
        });
        let st = e.memory().stats();
        assert_eq!(st.ecalls, 2, "one per crossing, not per unit of work");
        assert_eq!(st.ocalls, 1);
        e.memory().reset_counters();
        assert_eq!(e.memory().stats().ecalls, 0, "phase counters reset");
        assert_eq!(e.ecall_count(), 2, "lifetime counter survives reset");
    }

    #[test]
    fn context_reflects_identity() {
        let e = enclave();
        e.ecall(|ctx| {
            assert_eq!(ctx.identity(), e.identity());
        });
    }
}
