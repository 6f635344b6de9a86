//! A sibling module: its calls reach `lib.rs` items.

pub(crate) fn run() -> usize {
    crate::called_elsewhere() as usize + crate::describe().len()
}
