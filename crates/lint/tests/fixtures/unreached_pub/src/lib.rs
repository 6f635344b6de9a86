//! SL08 fixture: `pub` items reached, or not, from each place the rule
//! tells apart.
#![forbid(unsafe_code)]

mod other;
#[cfg(test)]
mod test_support;

/// Named only from the `#[cfg(test)]` module below and from
/// `tests/it.rs`: flagged.
pub fn only_tested() -> u32 {
    1
}

/// Named only in a comment and a string: flagged.
pub fn only_mentioned() -> u32 {
    2
}

/// Named only from `test_support.rs`, which `#[cfg(test)] mod` declares:
/// flagged.
pub fn only_in_test_file() -> u32 {
    3
}

/// Named from `other.rs`: clean.
pub fn called_elsewhere() -> u32 {
    4
}

/// Named only from `benchmark/src`, a reference root: clean.
pub fn benchmarked() -> u32 {
    5
}

/// Recursion is the item naming itself: flagged.
pub fn only_recursive(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        only_recursive(n - 1)
    }
}

/// Named by nothing, kept on purpose.
// lint: allow(SL08, the fixture corpus checks that this reason is reported)
pub fn kept() -> u32 {
    6
}

pub(crate) fn describe() -> &'static str {
    // only_mentioned() would answer here
    "only_mentioned"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tested() {
        assert_eq!(only_tested(), 1);
    }
}
