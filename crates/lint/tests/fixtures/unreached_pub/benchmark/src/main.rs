//! Stands in for the benchmark harness: read for references, never linted,
//! so its own unreached `pub` item is not a finding.

pub fn never_linted() {}

fn main() {
    println!("{}", fixture::benchmarked());
}
