//! Declared by `#[cfg(test)] mod test_support;`: test-only code.

pub fn helper() -> u32 {
    crate::only_in_test_file()
}
