//! Constant-time comparison.

/// Compares two byte slices in time independent of where they differ.
///
/// Returns `false` immediately if the lengths differ (length is assumed
/// public).
///
/// ```
/// assert!(scbr_crypto::ct::ct_eq(b"abc", b"abc"));
/// assert!(!scbr_crypto::ct::ct_eq(b"abc", b"abd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"x", b"x"));
        assert!(!ct_eq(b"x", b"y"));
        assert!(!ct_eq(b"x", b"xx"));
        assert!(!ct_eq(b"ab", b"ba"));
    }
}
