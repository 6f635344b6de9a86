//! An integration test: test-only code, however it names the crate.

#[test]
fn reaches_the_crate() {
    assert_eq!(fixture::only_tested() + fixture::only_in_test_file(), 4);
}
