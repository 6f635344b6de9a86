//! The SCBR protocol: key exchange, admission control and group keys.
//!
//! The paper's Figure 4 flow, implemented end to end:
//!
//! 0. At admission the client and the producer agree a pairwise key `K_c`
//!    by X25519 ([`keys::PairwiseKey`]); the paper's `{s}PK` becomes
//!    `{s}K_c`, since only the producer ever opens it.
//! 1. A client seals its subscription under `K_c`, numbered by a counter
//!    that rises with each submission, and sends it to the producer —
//!    [`keys::PairwiseKey::seal_subscription`].
//! 2. The producer checks the client's standing
//!    ([`admission::ClientDirectory`]), opens the submission under that
//!    client's `K_c`, refuses a number it has already passed (a replay),
//!    and seals it under `K_reg`, a subkey of the symmetric key `SK` it
//!    shares with the routing enclave, where the paper re-encrypts under
//!    `SK` and signs — [`keys::ProducerCrypto::seal_registration`].
//! 3. The routing enclave opens the envelope inside the enclave and
//!    inserts the subscription into its index (see
//!    [`crate::engine::MatchingEngine::register_envelope`]).
//! 4. Publications flow back (the paper's steps 4–6): headers encrypted
//!    under `SK`, payloads under a rotating *group key*
//!    ([`group::GroupKeyManager`], each epoch key sealed under the `K_c`
//!    of each member it is sent to) so revoked clients lose access to new messages.
//!
//! `SK` itself reaches the enclave through remote attestation
//! ([`keys::provision_sk_via_attestation`]), so the infrastructure provider
//! never sees it.

pub mod admission;
pub mod group;
pub mod keys;
pub mod messages;
