//! The simulated SGX-capable machine.
//!
//! An [`SgxPlatform`] owns the per-machine resources real SGX fuses into
//! the die or manages in privileged mode: the device root key (from which
//! report and seal keys derive), the quoting enclave with its attestation
//! key, the EPC configuration, and the monotonic-counter service.

use crate::attest::{Quote, QuotingEnclave, Report};
use crate::costs::{CacheConfig, CostModel, EpcConfig};
use crate::enclave::{validate_builder, Enclave, EnclaveBuilder};
use crate::error::SgxError;
use crate::seal::MonotonicCounter;
use parking_lot::Mutex;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a platform monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u64);

impl CounterId {
    /// An id that never refers to a live counter (for negative tests).
    #[cfg(test)]
    pub(crate) fn invalid_for_tests() -> Self {
        CounterId(u64::MAX)
    }
}

struct PlatformState {
    counters: HashMap<CounterId, MonotonicCounter>,
    next_counter: u64,
}

/// A simulated SGX machine.
///
/// ```
/// use sgx_sim::platform::SgxPlatform;
/// use sgx_sim::enclave::EnclaveBuilder;
///
/// let platform = SgxPlatform::for_testing(1);
/// let enclave = platform
///     .launch(EnclaveBuilder::new("demo").add_page(b"code"))
///     .unwrap();
/// assert_eq!(enclave.ecall(|_| 2 + 2), 4);
/// ```
pub struct SgxPlatform {
    device_key: [u8; 32],
    cache: CacheConfig,
    epc: EpcConfig,
    costs: CostModel,
    quoting: QuotingEnclave,
    state: Arc<Mutex<PlatformState>>,
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxPlatform").field("cache", &self.cache).field("epc", &self.epc).finish()
    }
}

impl SgxPlatform {
    /// Builds a platform with explicit geometry, costs and attestation key
    /// strength. `seed` determines the device key and attestation key pair
    /// deterministically.
    pub fn with_config(
        seed: u64,
        cache: CacheConfig,
        epc: EpcConfig,
        costs: CostModel,
        attestation_key_bits: usize,
    ) -> Self {
        let mut rng = CryptoRng::from_seed(seed);
        let mut device_key = [0u8; 32];
        rng.fill(&mut device_key);
        let key_pair = RsaKeyPair::generate(attestation_key_bits, &mut rng)
            .expect("attestation key generation");
        SgxPlatform {
            device_key,
            cache,
            epc,
            costs,
            quoting: QuotingEnclave::new(key_pair),
            state: Arc::new(Mutex::new(PlatformState {
                counters: HashMap::new(),
                next_counter: 0,
            })),
        }
    }

    /// A platform shaped like the paper's machine (8 MB LLC, 128 MB EPC)
    /// with a 1024-bit attestation key.
    pub fn new(seed: u64) -> Self {
        SgxPlatform::with_config(
            seed,
            CacheConfig::default(),
            EpcConfig::default(),
            CostModel::default(),
            1024,
        )
    }

    /// A fast-to-construct platform for tests: default geometry, small
    /// attestation key.
    pub fn for_testing(seed: u64) -> Self {
        SgxPlatform::with_config(
            seed,
            CacheConfig::default(),
            EpcConfig::default(),
            CostModel::default(),
            512,
        )
    }

    /// The EPC configuration in force.
    pub fn epc_config(&self) -> &EpcConfig {
        &self.epc
    }

    /// The cache geometry in force.
    pub fn cache_config(&self) -> &CacheConfig {
        &self.cache
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.costs
    }

    /// Measures, validates and initialises an enclave.
    ///
    /// # Errors
    ///
    /// Rejects builders with no measured pages.
    pub fn launch(&self, builder: EnclaveBuilder) -> Result<Enclave, SgxError> {
        validate_builder(&builder)?;
        Ok(Enclave::from_parts(
            builder.build_identity(),
            self.cache,
            self.epc,
            self.costs.clone(),
            self.device_key,
        ))
    }

    /// Verifies a local report produced on this platform (a unit-test
    /// helper).
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] for reports from other platforms or
    /// tampered reports.
    #[cfg(test)]
    pub(crate) fn verify_local_report(&self, report: &Report) -> Result<(), SgxError> {
        crate::attest::verify_report(&self.device_key, report)
    }

    /// Asks the quoting enclave to convert a report into a quote.
    ///
    /// # Errors
    ///
    /// Propagates local-verification failures.
    pub fn quote(&self, report: &Report) -> Result<Quote, SgxError> {
        self.quoting.quote(&self.device_key, report)
    }

    /// The public key remote verifiers use to authenticate this platform's
    /// quotes.
    pub fn attestation_public_key(&self) -> &RsaPublicKey {
        self.quoting.attestation_public_key()
    }

    /// Creates a fresh monotonic counter.
    pub fn create_counter(&self) -> CounterId {
        let mut st = self.state.lock();
        let id = CounterId(st.next_counter);
        st.next_counter += 1;
        st.counters.insert(id, MonotonicCounter::new());
        id
    }

    /// Reads a counter.
    ///
    /// # Errors
    ///
    /// [`SgxError::NotFound`] for unknown ids.
    pub fn read_counter(&self, id: CounterId) -> Result<u64, SgxError> {
        self.state
            .lock()
            .counters
            .get(&id)
            .map(|c| c.read())
            .ok_or(SgxError::NotFound { what: "monotonic counter" })
    }

    /// Increments a counter, returning the new value.
    ///
    /// # Errors
    ///
    /// [`SgxError::NotFound`] for unknown ids.
    pub fn increment_counter(&self, id: CounterId) -> Result<u64, SgxError> {
        self.state
            .lock()
            .counters
            .get_mut(&id)
            .map(|c| c.increment())
            .ok_or(SgxError::NotFound { what: "monotonic counter" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;

    #[test]
    fn launch_requires_pages() {
        let p = SgxPlatform::for_testing(1);
        assert!(p.launch(EnclaveBuilder::new("empty")).is_err());
        assert!(p.launch(EnclaveBuilder::new("ok").add_page(b"x")).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SgxPlatform::for_testing(5);
        let b = SgxPlatform::for_testing(5);
        let c = SgxPlatform::for_testing(6);
        assert_eq!(a.attestation_public_key(), b.attestation_public_key());
        assert_ne!(a.attestation_public_key(), c.attestation_public_key());
    }

    #[test]
    fn counters_lifecycle() {
        let p = SgxPlatform::for_testing(2);
        let c1 = p.create_counter();
        let c2 = p.create_counter();
        assert_ne!(c1, c2);
        assert_eq!(p.read_counter(c1).unwrap(), 0);
        assert_eq!(p.increment_counter(c1).unwrap(), 1);
        assert_eq!(p.read_counter(c1).unwrap(), 1);
        assert_eq!(p.read_counter(c2).unwrap(), 0, "counters independent");
        assert!(p.read_counter(CounterId::invalid_for_tests()).is_err());
    }

    #[test]
    fn enclaves_share_platform_epc_config() {
        let p = SgxPlatform::for_testing(3);
        let e = p.launch(EnclaveBuilder::new("a").add_page(b"x")).unwrap();
        // Enclave memory reflects the platform's EPC sizing.
        assert_eq!(e.memory().protection(), crate::mem::Protection::Enclave);
        assert_eq!(p.epc_config().total_bytes, 128 * 1024 * 1024);
    }
}
