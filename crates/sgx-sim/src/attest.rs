//! Local and remote attestation, and secret provisioning.
//!
//! SCBR's security hinges on one step: the service provider must convince
//! itself that the routing engine really is the expected code running in a
//! genuine enclave *before* handing over the symmetric key `SK`. The paper
//! relies on Intel's remote-attestation protocol; the simulator models the
//! same roles:
//!
//! * [`Report`] — `EREPORT`: the enclave's identity plus 64 bytes of
//!   caller-chosen data, MAC'd with a platform key (local attestation).
//! * [`Quote`] — the quoting enclave verifies a report and signs it with
//!   the platform's attestation key (stand-in for EPID).
//! * [`AttestationService`] — the verifier's trust anchor: checks quote
//!   signatures against the known attestation public key (stand-in for the
//!   Intel Attestation Service).
//! * [`QuotedKey`] — the attested key exchange: the enclave binds the
//!   public half of a fresh X25519 key into its report data; the verifier
//!   checks the quote, its policy and the binding, and only then agrees a
//!   secret with that key by Diffie–Hellman (as Intel's remote
//!   attestation agrees its session key by ECDH). Provisioning `SK` and
//!   the overlay's link handshake both run it.

use crate::enclave::{EnclaveContext, EnclaveIdentity, Measurement};
use crate::error::SgxError;
use crate::platform::SgxPlatform;
use scbr_crypto::hmac::HmacSha256;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use scbr_crypto::sha256::Sha256;
use scbr_crypto::x25519::{X25519Secret, KEY_LEN};

/// Free-form data an enclave binds into its report (64 bytes, like SGX).
pub type ReportData = [u8; 64];

/// A local attestation report (`EREPORT`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The reporting enclave's identity.
    pub identity: EnclaveIdentity,
    /// Caller-chosen payload (e.g. a hash of a fresh public key).
    pub report_data: ReportData,
    mac: [u8; 32],
}

impl Report {
    fn signing_bytes(identity: &EnclaveIdentity, data: &ReportData) -> Vec<u8> {
        let mut out = Vec::with_capacity(160);
        out.extend_from_slice(&identity.mr_enclave);
        out.extend_from_slice(&identity.mr_signer);
        out.extend_from_slice(&identity.isv_prod_id.to_be_bytes());
        out.extend_from_slice(&identity.isv_svn.to_be_bytes());
        out.push(identity.debug as u8);
        out.extend_from_slice(data);
        out
    }

    /// Serialises the report for the wire (fixed layout: identity,
    /// report data, MAC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Report::signing_bytes(&self.identity, &self.report_data);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses a report serialised by [`Report::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on truncated or oversized input.
    /// (The MAC itself is only checked by verification, as on hardware.)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        // mr_enclave(32) mr_signer(32) prod(2) svn(2) debug(1) data(64) mac(32)
        const LEN: usize = 32 + 32 + 2 + 2 + 1 + 64 + 32;
        if bytes.len() != LEN {
            return Err(SgxError::AttestationFailed { reason: "malformed report bytes" });
        }
        let mut mr_enclave = [0u8; 32];
        mr_enclave.copy_from_slice(&bytes[0..32]);
        let mut mr_signer = [0u8; 32];
        mr_signer.copy_from_slice(&bytes[32..64]);
        let isv_prod_id = u16::from_be_bytes([bytes[64], bytes[65]]);
        let isv_svn = u16::from_be_bytes([bytes[66], bytes[67]]);
        let debug = match bytes[68] {
            0 => false,
            1 => true,
            _ => return Err(SgxError::AttestationFailed { reason: "malformed report bytes" }),
        };
        let mut report_data = [0u8; 64];
        report_data.copy_from_slice(&bytes[69..133]);
        let mut mac = [0u8; 32];
        mac.copy_from_slice(&bytes[133..165]);
        Ok(Report {
            identity: EnclaveIdentity { mr_enclave, mr_signer, isv_prod_id, isv_svn, debug },
            report_data,
            mac,
        })
    }
}

/// Creates a report for the calling enclave (`EREPORT`).
pub fn create_report(ctx: &EnclaveContext<'_>, report_data: ReportData) -> Report {
    let identity = ctx.identity().clone();
    let mut key = [0u8; 32];
    scbr_crypto::hkdf::derive(ctx.platform_key(), b"sgx-report-key", b"", &mut key);
    let mac = HmacSha256::mac(&key, &Report::signing_bytes(&identity, &report_data));
    Report { identity, report_data, mac }
}

/// Verifies a report against a platform key (local attestation: only code
/// on the same platform can do this).
///
/// # Errors
///
/// [`SgxError::AttestationFailed`] if the MAC does not verify.
pub(crate) fn verify_report(platform_key: &[u8; 32], report: &Report) -> Result<(), SgxError> {
    let mut key = [0u8; 32];
    scbr_crypto::hkdf::derive(platform_key, b"sgx-report-key", b"", &mut key);
    let expected =
        HmacSha256::mac(&key, &Report::signing_bytes(&report.identity, &report.report_data));
    if scbr_crypto::ct::ct_eq(&expected, &report.mac) {
        Ok(())
    } else {
        Err(SgxError::AttestationFailed { reason: "report mac mismatch" })
    }
}

/// A remotely verifiable quote: a report counter-signed by the platform's
/// quoting enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The quoted report (identity + report data).
    pub report: Report,
    signature: Vec<u8>,
}

impl Quote {
    /// Serialises the quote for the wire (report, then the platform
    /// signature length-prefixed), so overlay routers can exchange quotes
    /// over untrusted links.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.report.to_bytes();
        out.extend(join_prefixed(&[&self.signature]));
        out
    }

    /// Parses a quote serialised by [`Quote::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on malformed input. A parsed quote
    /// carries no trust until [`AttestationService::verify`] accepts it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        const REPORT_LEN: usize = 165;
        let malformed = SgxError::AttestationFailed { reason: "malformed quote bytes" };
        let (report, rest) = bytes.split_at_checked(REPORT_LEN).ok_or(malformed)?;
        let [signature] = split_prefixed(rest, "malformed quote bytes")?;
        Ok(Quote { report: Report::from_bytes(report)?, signature: signature.to_vec() })
    }
}

/// The platform component that turns reports into quotes.
#[derive(Debug)]
pub(crate) struct QuotingEnclave {
    key_pair: RsaKeyPair,
}

impl QuotingEnclave {
    pub(crate) fn new(key_pair: RsaKeyPair) -> Self {
        QuotingEnclave { key_pair }
    }

    pub(crate) fn attestation_public_key(&self) -> &RsaPublicKey {
        self.key_pair.public()
    }

    /// Verifies the local report and signs it into a quote.
    ///
    /// # Errors
    ///
    /// Propagates report-verification failures.
    pub(crate) fn quote(
        &self,
        platform_key: &[u8; 32],
        report: &Report,
    ) -> Result<Quote, SgxError> {
        verify_report(platform_key, report)?;
        let body = Report::signing_bytes(&report.identity, &report.report_data);
        let signature = self
            .key_pair
            .private()
            .sign(&body)
            .map_err(|_| SgxError::AttestationFailed { reason: "quote signing failed" })?;
        Ok(Quote { report: report.clone(), signature })
    }
}

/// The remote verifier's trust anchor (stand-in for the Intel Attestation
/// Service): knows the genuine platforms' attestation public keys.
#[derive(Debug, Clone, Default)]
pub struct AttestationService {
    trusted_keys: Vec<RsaPublicKey>,
}

impl AttestationService {
    /// An attestation service trusting no platforms yet.
    pub fn new() -> Self {
        AttestationService::default()
    }

    /// Registers a genuine platform's attestation public key.
    pub fn trust_platform(&mut self, key: RsaPublicKey) {
        self.trusted_keys.push(key);
    }

    /// Verifies a quote: genuine platform signature over the report body.
    ///
    /// Returns the attested identity and report data on success.
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] if no trusted platform signed this
    /// quote.
    pub fn verify(&self, quote: &Quote) -> Result<(EnclaveIdentity, ReportData), SgxError> {
        let body = Report::signing_bytes(&quote.report.identity, &quote.report.report_data);
        for key in &self.trusted_keys {
            if key.verify(&body, &quote.signature).is_ok() {
                return Ok((quote.report.identity.clone(), quote.report.report_data));
            }
        }
        Err(SgxError::AttestationFailed { reason: "quote not signed by a trusted platform" })
    }
}

/// Expected-identity policy a verifier enforces before releasing secrets.
#[derive(Debug, Clone)]
pub struct VerifierPolicy {
    /// Required `MRENCLAVE`; `None` accepts any measurement (discouraged).
    pub mr_enclave: Option<Measurement>,
    /// Required `MRSIGNER`.
    pub mr_signer: Option<Measurement>,
    /// Minimum security version.
    pub min_isv_svn: u16,
    /// Whether debug enclaves are acceptable.
    pub allow_debug: bool,
}

impl VerifierPolicy {
    /// Policy pinning an exact measurement.
    pub fn require_mr_enclave(m: Measurement) -> Self {
        VerifierPolicy { mr_enclave: Some(m), mr_signer: None, min_isv_svn: 0, allow_debug: false }
    }

    /// Checks an attested identity against the policy.
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] naming the violated clause.
    pub fn check(&self, identity: &EnclaveIdentity) -> Result<(), SgxError> {
        if let Some(required) = &self.mr_enclave {
            if &identity.mr_enclave != required {
                return Err(SgxError::AttestationFailed { reason: "unexpected mrenclave" });
            }
        }
        if let Some(required) = &self.mr_signer {
            if &identity.mr_signer != required {
                return Err(SgxError::AttestationFailed { reason: "unexpected mrsigner" });
            }
        }
        if identity.isv_svn < self.min_isv_svn {
            return Err(SgxError::AttestationFailed { reason: "isv svn too old" });
        }
        if identity.debug && !self.allow_debug {
            return Err(SgxError::AttestationFailed { reason: "debug enclave rejected" });
        }
        Ok(())
    }
}

/// Binds `key` into report data: SHA-256 of the public key, zero padded
/// to 64 bytes.
pub(crate) fn bind_key(key: &[u8; KEY_LEN]) -> ReportData {
    let mut data = [0u8; 64];
    data[..32].copy_from_slice(&Sha256::digest(key));
    data
}

/// A quote and the ephemeral X25519 public key its report data commits
/// to: what an enclave presents to obtain a secret — `SK` from the
/// producer, or a link key from a peer router. The verifier agrees a
/// shared secret with `public_key` only after [`QuotedKey::verify`]
/// passes; only the enclave that holds the matching [`X25519Secret`]
/// can agree the same one.
// lint: allow(SL02, a quote and a public key - both travel in clear)
#[derive(Debug, Clone)]
pub struct QuotedKey {
    /// Quote whose report data commits to `public_key`.
    pub quote: Quote,
    /// The X25519 public key a verifier agrees the secret with.
    pub public_key: [u8; KEY_LEN],
}

impl QuotedKey {
    /// Inside the enclave: draws a fresh X25519 key pair (32 bytes of
    /// `rng`) and the report committing to its public half. The secret
    /// half never leaves the enclave; the host quotes the report with
    /// [`QuotedKey::quote`].
    pub fn generate(ctx: &EnclaveContext<'_>, rng: &mut CryptoRng) -> (Report, X25519Secret) {
        let secret = X25519Secret::generate(rng);
        (create_report(ctx, bind_key(secret.public_key())), secret)
    }

    /// Outside the enclave: has `platform` quote `report` and pairs the
    /// quote with the public half of `secret`, the key the report commits
    /// to.
    ///
    /// # Errors
    ///
    /// Propagates quoting failures.
    pub fn quote(
        platform: &SgxPlatform,
        report: &Report,
        secret: &X25519Secret,
    ) -> Result<Self, SgxError> {
        Ok(QuotedKey { quote: platform.quote(report)?, public_key: *secret.public_key() })
    }

    /// Verifier side: checks the quote against `service`, the attested
    /// identity against `policy`, and that the quote commits to
    /// `public_key`. No secret may be agreed with `public_key` before
    /// this passes. Returns the attested identity.
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] naming the failed check.
    pub fn verify(
        &self,
        service: &AttestationService,
        policy: &VerifierPolicy,
    ) -> Result<EnclaveIdentity, SgxError> {
        let (identity, report_data) = service.verify(&self.quote)?;
        policy.check(&identity)?;
        if report_data != bind_key(&self.public_key) {
            return Err(SgxError::AttestationFailed { reason: "response key not bound in quote" });
        }
        Ok(identity)
    }

    /// Serialises for the wire: the quote, then the public key.
    pub fn to_bytes(&self) -> Vec<u8> {
        join_prefixed(&[&self.quote.to_bytes(), &self.public_key])
    }

    /// Parses a quoted key serialised by [`QuotedKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] on malformed input. A parsed key
    /// carries no trust until [`QuotedKey::verify`] accepts it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let [quote, key] = split_prefixed(bytes, "malformed quoted key")?;
        let public_key = key
            .try_into()
            .map_err(|_| SgxError::AttestationFailed { reason: "malformed response key" })?;
        Ok(QuotedKey { quote: Quote::from_bytes(quote)?, public_key })
    }
}

/// `parts`, each `u32`-length-prefixed: the wire layout of the quote's
/// signature and of every key-exchange message.
pub(crate) fn join_prefixed(parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(|part| 4 + part.len()).sum());
    for part in parts {
        out.extend_from_slice(&(part.len() as u32).to_be_bytes());
        out.extend_from_slice(part);
    }
    out
}

/// Splits `bytes` into the `N` parts [`join_prefixed`] wrote.
///
/// # Errors
///
/// [`SgxError::AttestationFailed`] with `reason` on truncated input or
/// trailing bytes.
pub(crate) fn split_prefixed<'a, const N: usize>(
    mut bytes: &'a [u8],
    reason: &'static str,
) -> Result<[&'a [u8]; N], SgxError> {
    let malformed = SgxError::AttestationFailed { reason };
    let mut parts = [&bytes[..0]; N];
    for part in &mut parts {
        let (len, rest) = bytes.split_first_chunk::<4>().ok_or(malformed.clone())?;
        (*part, bytes) =
            rest.split_at_checked(u32::from_be_bytes(*len) as usize).ok_or(malformed.clone())?;
    }
    bytes.is_empty().then_some(parts).ok_or(malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;

    fn setup() -> (SgxPlatform, crate::enclave::Enclave, AttestationService) {
        let platform = SgxPlatform::for_testing(42);
        let enclave = platform
            .launch(EnclaveBuilder::new("router").add_page(b"matching code").signer([2u8; 32]))
            .unwrap();
        let mut service = AttestationService::new();
        service.trust_platform(platform.attestation_public_key().clone());
        (platform, enclave, service)
    }

    #[test]
    fn report_verifies_on_same_platform() {
        let (platform, enclave, _) = setup();
        let report = enclave.ecall(|ctx| create_report(ctx, [7u8; 64]));
        assert!(platform.verify_local_report(&report).is_ok());
    }

    #[test]
    fn report_fails_on_other_platform() {
        let (_, enclave, _) = setup();
        let other = SgxPlatform::for_testing(43);
        let report = enclave.ecall(|ctx| create_report(ctx, [7u8; 64]));
        assert!(other.verify_local_report(&report).is_err());
    }

    #[test]
    fn tampered_report_rejected() {
        let (platform, enclave, _) = setup();
        let mut report = enclave.ecall(|ctx| create_report(ctx, [7u8; 64]));
        report.report_data[0] ^= 1;
        assert!(platform.verify_local_report(&report).is_err());
    }

    #[test]
    fn quote_round_trip() {
        let (platform, enclave, service) = setup();
        let report = enclave.ecall(|ctx| create_report(ctx, [9u8; 64]));
        let quote = platform.quote(&report).unwrap();
        let (identity, data) = service.verify(&quote).unwrap();
        assert_eq!(&identity, enclave.identity());
        assert_eq!(data, [9u8; 64]);
    }

    #[test]
    fn quote_from_untrusted_platform_rejected() {
        let (_, enclave, service) = setup();
        let rogue = SgxPlatform::for_testing(99);
        // The rogue platform can't even produce a quote for this report
        // (local MAC fails)...
        let report = enclave.ecall(|ctx| create_report(ctx, [0u8; 64]));
        assert!(rogue.quote(&report).is_err());
        // ...and a quote from a rogue platform's own enclave fails at the
        // service, which doesn't trust that platform.
        let rogue_enclave =
            rogue.launch(EnclaveBuilder::new("router").add_page(b"matching code")).unwrap();
        let rogue_report = rogue_enclave.ecall(|ctx| create_report(ctx, [0u8; 64]));
        let rogue_quote = rogue.quote(&rogue_report).unwrap();
        assert!(service.verify(&rogue_quote).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let (platform, enclave, service) = setup();
        let report = enclave.ecall(|ctx| create_report(ctx, [1u8; 64]));
        let mut quote = platform.quote(&report).unwrap();
        quote.signature[5] ^= 1;
        assert!(service.verify(&quote).is_err());
    }

    #[test]
    fn policy_checks() {
        let (_, enclave, _) = setup();
        let id = enclave.identity().clone();
        assert!(VerifierPolicy::require_mr_enclave(id.mr_enclave).check(&id).is_ok());
        assert!(VerifierPolicy::require_mr_enclave([0u8; 32]).check(&id).is_err());
        let svn_policy = VerifierPolicy {
            mr_enclave: None,
            mr_signer: Some(id.mr_signer),
            min_isv_svn: 99,
            allow_debug: false,
        };
        assert!(matches!(
            svn_policy.check(&id),
            Err(SgxError::AttestationFailed { reason: "isv svn too old" })
        ));
    }

    #[test]
    fn debug_enclaves_rejected_by_default() {
        let platform = SgxPlatform::for_testing(50);
        let enclave =
            platform.launch(EnclaveBuilder::new("dbg").add_page(b"code").debug(true)).unwrap();
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        assert!(matches!(
            policy.check(enclave.identity()),
            Err(SgxError::AttestationFailed { reason: "debug enclave rejected" })
        ));
    }

    #[test]
    fn report_and_quote_wire_round_trip() {
        let (platform, enclave, service) = setup();
        let report = enclave.ecall(|ctx| create_report(ctx, [3u8; 64]));
        let parsed = Report::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(parsed, report);
        let quote = platform.quote(&report).unwrap();
        let parsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(parsed, quote);
        // The round-tripped quote still verifies.
        assert!(service.verify(&parsed).is_ok());
        // Truncations and trailing bytes are rejected.
        let bytes = quote.to_bytes();
        assert!(Quote::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Quote::from_bytes(&long).is_err());
        assert!(Report::from_bytes(&report.to_bytes()[..100]).is_err());
    }

    #[test]
    fn end_to_end_secret_provisioning() {
        let (platform, enclave, service) = setup();
        let mut verifier_rng = CryptoRng::from_seed(1);
        let mut enclave_rng = CryptoRng::from_seed(2);

        // Inside the enclave: generate a key pair and quote its public half.
        let (report, enclave_secret) =
            enclave.ecall(|ctx| QuotedKey::generate(ctx, &mut enclave_rng));
        let request = QuotedKey::quote(&platform, &report, &enclave_secret).unwrap();

        // Verifier: agree a secret only with the expected measurement.
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        assert_eq!(&request.verify(&service, &policy).unwrap(), enclave.identity());
        let ephemeral = X25519Secret::generate(&mut verifier_rng);
        let verifier_shared = ephemeral.diffie_hellman(&request.public_key).unwrap();

        // Enclave agrees the same secret from the verifier's public key.
        let enclave_shared = enclave_secret.diffie_hellman(ephemeral.public_key()).unwrap();
        assert_eq!(enclave_shared, verifier_shared);
    }

    #[test]
    fn provisioning_rejects_substituted_key() {
        let (platform, enclave, service) = setup();
        let mut rng = CryptoRng::from_seed(3);
        let (report, honest) = enclave.ecall(|ctx| QuotedKey::generate(ctx, &mut rng));
        let mut request = QuotedKey::quote(&platform, &report, &honest).unwrap();
        // A man in the middle swaps in their own key.
        let attacker = X25519Secret::generate(&mut rng);
        request.public_key = *attacker.public_key();
        let policy = VerifierPolicy::require_mr_enclave(enclave.identity().mr_enclave);
        assert!(matches!(
            request.verify(&service, &policy),
            Err(SgxError::AttestationFailed { reason: "response key not bound in quote" })
        ));
    }
}
