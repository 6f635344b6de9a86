//! Fuzz-style properties of the wire substrate: round trips hold and
//! decoders never panic on adversarial input.

use proptest::prelude::*;
use scbr_net::frame;
use std::io::Cursor;

proptest! {
    #[test]
    fn frame_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload).unwrap();
        prop_assert_eq!(frame::read_frame(Cursor::new(&buf)).unwrap(), payload);
    }

    #[test]
    fn frame_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = frame::read_frame(Cursor::new(&bytes));
    }
}
