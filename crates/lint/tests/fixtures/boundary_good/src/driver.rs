//! Drives both crossings of `caller.rs`, so the tree is clean under SL08
//! as well as SL05.

use crate::caller::Host;

pub(crate) fn drive(host: &Host) -> u32 {
    host.once() + host.twice()
}
