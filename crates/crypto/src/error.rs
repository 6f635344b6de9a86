//! Error type shared by all cryptographic operations in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by cryptographic operations.
///
/// The `Display` messages deliberately avoid leaking which internal check
/// failed for authenticated operations, mirroring standard practice
/// against oracle attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A ciphertext, tag or signature failed verification.
    VerificationFailed,
    /// The input has an invalid length for the requested operation.
    InvalidLength {
        /// What was being parsed or processed.
        context: &'static str,
    },
    /// A key could not be generated or is structurally invalid.
    InvalidKey {
        /// Why the key was rejected.
        reason: &'static str,
    },
    /// An arithmetic precondition was violated (e.g. division by zero,
    /// non-invertible element).
    Arithmetic {
        /// Which precondition failed.
        reason: &'static str,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::InvalidLength { context } => {
                write!(f, "invalid length for {context}")
            }
            CryptoError::InvalidKey { reason } => write!(f, "invalid key: {reason}"),
            CryptoError::Arithmetic { reason } => write!(f, "arithmetic error: {reason}"),
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_terse() {
        let errors = [
            CryptoError::VerificationFailed,
            CryptoError::InvalidLength { context: "aes key" },
            CryptoError::InvalidKey { reason: "modulus too small" },
            CryptoError::Arithmetic { reason: "division by zero" },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
