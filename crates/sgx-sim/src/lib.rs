//! # sgx-sim
//!
//! A software model of Intel SGX for the SCBR reproduction
//! ([Pires et al., Middleware '16]).
//!
//! Real SGX hardware is unavailable in this environment (and the extension
//! set has since been removed from client CPUs), so this crate rebuilds the
//! two things the paper's evaluation actually exercises:
//!
//! 1. **The performance physics of enclave memory.** Every effect the paper
//!    measures is a memory-hierarchy effect: enclave and native execution
//!    match until the working set exceeds the CPU cache (8 MB), diverge by
//!    tens of percent as the memory-encryption engine (MEE) taxes every
//!    cache miss, and fall off a cliff once the working set exceeds the
//!    usable EPC (~90 of 128 MB) and page swaps begin. The [`mem`] module
//!    replays exactly this on a virtual clock: a set-associative LLC model
//!    ([`cache`]), per-miss MEE surcharges, and an EPC pager ([`epc`])
//!    with CLOCK eviction.
//! 2. **The security contract of SGX.** Enclaves are measured at build time
//!    ([`enclave`]); secrets are provisioned after remote attestation
//!    ([`attest`]); and state is sealed with rollback protection
//!    ([`seal`]).
//!
//! ## Quick example
//!
//! ```
//! use sgx_sim::platform::SgxPlatform;
//! use sgx_sim::enclave::EnclaveBuilder;
//! use sgx_sim::mem::SimArena;
//!
//! let platform = SgxPlatform::for_testing(1);
//! let enclave = platform
//!     .launch(EnclaveBuilder::new("router").add_page(b"engine code"))
//!     .unwrap();
//!
//! // Data structures inside the enclave allocate from its protected memory
//! // and pay MEE/EPC costs on access.
//! let mut subs: SimArena<u64> = SimArena::with_stride(enclave.memory(), 432);
//! enclave.ecall(|_ctx| {
//!     let idx = subs.push(7);
//!     assert_eq!(*subs.read(idx), 7);
//! });
//! assert!(enclave.memory().elapsed_ns() > 0.0);
//! ```
//!
//! ## What is and is not modelled
//!
//! * Modelled: costs (cache, paging, ECALL/OCALL transitions, and the
//!   MEE as a per-miss and per-integrity-tree-level charge in
//!   [`CostModel`]), measurement, attestation, sealing, rollback
//!   protection.
//! * Not modelled: intra-process memory *isolation* (a Rust test harness
//!   cannot fault on stray loads), the MEE's encryption and integrity tree
//!   themselves (an evicted page is only charged for, never encrypted or
//!   verified), speculative-execution attacks, and the EPID
//!   group-signature scheme (quotes use plain RSA signatures).
//!
//! [Pires et al., Middleware '16]: https://doi.org/10.1145/2988336.2988346

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod cache;
pub mod costs;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod link;
pub mod mem;
pub mod platform;
pub mod seal;

pub use costs::{CacheConfig, CostModel, EpcConfig};
pub use enclave::{Enclave, EnclaveBuilder, EnclaveIdentity};
pub use error::SgxError;
pub use mem::{MemStats, MemorySim, SimArena};
pub use platform::SgxPlatform;
