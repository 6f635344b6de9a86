//! Sealed link channels: authenticated encryption for broker-to-broker
//! overlay links.
//!
//! Once two routers have agreed on a link key (e.g. via the mutual
//! attestation handshake in `sgx_sim::link`), every frame between them
//! travels through a [`SecureLink`]: AES-CTR + Poly1305-AES
//! ([`SealedBox`]) with the frame's **direction and sequence number**
//! bound in as associated data. That gives each link:
//!
//! * confidentiality — the infrastructure between two brokers sees only
//!   ciphertext (it already cannot read headers, which are encrypted under
//!   `SK`, but link sealing also hides message kinds, sizes of inner
//!   fields, and the registration traffic pattern);
//! * integrity — a flipped bit anywhere is detected;
//! * replay/reorder protection — a captured frame cannot be replayed nor
//!   delivered out of order, because the receive counter must match;
//! * direction binding — a frame sealed A→B never opens as B→A, even
//!   though both directions share one key;
//! * **loss detection** — each frame carries its sequence number in the
//!   clear (it is authenticated through the associated data, and frame
//!   *ordering* is visible to the infrastructure anyway). When an
//!   authentic frame arrives whose sequence is ahead of the receive
//!   counter, [`SecureLink::open`] reports a typed
//!   [`NetError::Gap`] instead of a generic failure: proof that the
//!   intervening frames were lost, which the overlay uses as the
//!   liveness signal for crashed peers and link re-establishment.
//!
//! One [`SecureLink`] value handles **one direction**; an endpoint owns
//! two (its outbound and inbound halves), constructed with mirrored
//! endpoint identifiers.
//!
//! Alongside the sequence number, every frame carries an 8-byte **meta
//! word** in the clear — routing metadata such as a telemetry trace id.
//! Like the sequence number it is authenticated through the associated
//! data (it cannot be altered undetected) but deliberately not
//! encrypted: it describes the *frame*, not the content, and reveals
//! nothing beyond the linkability that frame observation (sizes,
//! direction, timing, sequence) already provides.
//!
//! # Frame layout and nonce
//!
//! A frame is `seq (8) ‖ meta (8) ‖ ciphertext ‖ tag (16)`, both words
//! big-endian. It carries no nonce: the one it was sealed under is
//! `seq | d << 63`, where the direction bit `d` is 1 when the sender's
//! endpoint identifier is greater than the receiver's. The receiver
//! knows both, and both are authenticated, so the nonce costs neither
//! bytes nor an RNG call.
//!
//! Poly1305 is a one-time MAC, so a nonce must never repeat under a key:
//!
//! * the two directions share the key, and the direction bit keeps their
//!   nonces apart (a link from an endpoint to itself has no direction
//!   and is refused);
//! * within a direction the sequence number never repeats, and one half
//!   seals at most 2⁶³ frames (the bit above is the direction's), which
//!   [`SecureLink::seal_meta`] enforces;
//! * a link re-established after a crash or a wedge restarts at sequence
//!   0, but under the fresh key of a new handshake, never the old one.

use crate::error::NetError;
use scbr_crypto::ctr::NONCE_LEN;
use scbr_crypto::poly1305::TAG_LEN;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::{SealedBox, SymmetricKey};

/// One direction of a sealed broker-to-broker link.
///
/// ```
/// use scbr_net::link::SecureLink;
/// use scbr_crypto::rng::CryptoRng;
///
/// let key = [7u8; 32];
/// let mut rng = CryptoRng::from_seed(1);
/// let mut a_to_b = SecureLink::outbound(&key, 0, 1);
/// let mut b_from_a = SecureLink::inbound(&key, 1, 0);
/// let sealed = a_to_b.seal(b"publish batch", &mut rng);
/// assert_eq!(b_from_a.open(&sealed).unwrap(), b"publish batch");
/// ```
pub struct SecureLink {
    sealer: SealedBox,
    label: [u8; LABEL_LEN],
    /// The direction bit of every nonce on this half (bit 63).
    direction: u64,
    seq: u64,
    /// Meta word of the last successfully opened frame (inbound half).
    last_meta: u64,
}

impl std::fmt::Debug for SecureLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The sealer's keyed state stays out of logs.
        f.debug_struct("SecureLink")
            .field("seq", &self.seq)
            .field("last_meta", &self.last_meta)
            .finish_non_exhaustive()
    }
}

/// `b"scbr-link " || from || to`.
const LABEL_LEN: usize = 26;

/// The direction label, then the frame's sequence number and meta word.
const AAD_LEN: usize = LABEL_LEN + 16;

/// The clear sequence number and meta word ahead of the ciphertext.
const HEADER_LEN: usize = 16;

/// Sequence numbers stay below the direction bit.
const MAX_FRAMES: u64 = 1 << 63;

/// The direction label of the link from `from` to `to`.
fn direction_label(from: u64, to: u64) -> [u8; LABEL_LEN] {
    let mut label = [0u8; LABEL_LEN];
    label[..10].copy_from_slice(b"scbr-link ");
    label[10..18].copy_from_slice(&from.to_be_bytes());
    label[18..].copy_from_slice(&to.to_be_bytes());
    label
}

impl SecureLink {
    /// The sending half at endpoint `local`, towards `peer`.
    ///
    /// # Panics
    ///
    /// If `local == peer`: both halves would seal under the same nonces.
    pub fn outbound(key: &[u8], local: u64, peer: u64) -> Self {
        Self::half(key, local, peer)
    }

    /// The receiving half at endpoint `local`, from `peer`.
    ///
    /// # Panics
    ///
    /// If `local == peer`, as [`SecureLink::outbound`].
    pub fn inbound(key: &[u8], local: u64, peer: u64) -> Self {
        Self::half(key, peer, local)
    }

    /// The half carrying frames from `from` to `to`.
    fn half(key: &[u8], from: u64, to: u64) -> Self {
        assert_ne!(from, to, "a sealed link joins two distinct endpoints");
        SecureLink {
            sealer: SealedBox::new(&SymmetricKey::from_bytes(key)),
            label: direction_label(from, to),
            direction: u64::from(from > to) << 63,
            seq: 0,
            last_meta: 0,
        }
    }

    /// Frames sealed (outbound half) or expected (inbound half) so far (a
    /// unit-test helper).
    #[cfg(test)]
    fn sequence(&self) -> u64 {
        self.seq
    }

    /// Meta word of the most recently opened frame on this inbound half
    /// (0 until a frame opens, and for frames sealed without metadata).
    pub fn last_meta(&self) -> u64 {
        self.last_meta
    }

    /// Associated data for frame `seq` carrying `meta` on this half.
    fn aad_for(&self, seq: u64, meta: u64) -> [u8; AAD_LEN] {
        let mut aad = [0u8; AAD_LEN];
        aad[..LABEL_LEN].copy_from_slice(&self.label);
        aad[LABEL_LEN..LABEL_LEN + 8].copy_from_slice(&seq.to_be_bytes());
        aad[LABEL_LEN + 8..].copy_from_slice(&meta.to_be_bytes());
        aad
    }

    /// The nonce frame `seq` is sealed under on this half.
    fn nonce_for(&self, seq: u64) -> [u8; NONCE_LEN] {
        (seq | self.direction).to_be_bytes()
    }

    /// Seals one outbound frame with a zero meta word, advancing the
    /// sequence counter. The sequence number travels in the clear ahead
    /// of the ciphertext (authenticated via the associated data) so the
    /// receiver can distinguish a *lost-frame gap* from a forgery.
    ///
    /// `rng` is not drawn from: the nonce comes from the sequence number.
    /// The parameter stays so that existing callers of this signature,
    /// the benchmark's replay probes among them, keep compiling.
    pub fn seal(&mut self, plain: &[u8], _rng: &mut CryptoRng) -> Vec<u8> {
        self.seal_meta(plain, 0)
    }

    /// Seals one outbound frame carrying `meta` in the clear (bound into
    /// the associated data, so tampering is detected on open), straight
    /// into the frame it returns.
    ///
    /// # Panics
    ///
    /// After 2⁶³ frames on this half, where its nonces would run into the
    /// other direction's.
    pub fn seal_meta(&mut self, plain: &[u8], meta: u64) -> Vec<u8> {
        assert!(self.seq < MAX_FRAMES, "sealed link half out of nonces");
        let mut frame = Vec::with_capacity(HEADER_LEN + plain.len() + TAG_LEN);
        frame.extend_from_slice(&self.seq.to_be_bytes());
        frame.extend_from_slice(&meta.to_be_bytes());
        let aad = self.aad_for(self.seq, meta);
        self.sealer.seal_into(self.nonce_for(self.seq), plain, &aad, &mut frame);
        self.seq += 1;
        frame
    }

    /// Opens the next inbound frame. The counter advances only on
    /// success, so a tampered frame does not desynchronise the link.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when authentication fails — tampering, a
    /// replayed or reordered frame, the wrong direction, or the wrong
    /// key. [`NetError::Gap`] when the frame is *authentic* but its
    /// sequence number is ahead of the receive counter: the frames in
    /// between were lost, and the link cannot make progress until it is
    /// re-established (the counter does not advance).
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut plain = Vec::new();
        self.open_into(sealed, &mut plain)?;
        Ok(plain)
    }

    /// [`SecureLink::open`], appending the plaintext to `out` instead of
    /// returning it, so a receiver opens every frame into one reused
    /// buffer. On an error nothing is appended.
    ///
    /// # Errors
    ///
    /// As [`SecureLink::open`].
    pub fn open_into(&mut self, sealed: &[u8], out: &mut Vec<u8>) -> Result<(), NetError> {
        let Some((header, body)) = sealed.split_first_chunk::<HEADER_LEN>() else {
            return Err(NetError::Malformed { context: "sealed link frame" });
        };
        let claimed = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
        let meta = u64::from_be_bytes(header[8..].try_into().expect("8 bytes"));
        if claimed < self.seq || claimed >= MAX_FRAMES {
            // A frame from the past is a replay regardless of its MAC, and
            // no half seals past the direction bit.
            return Err(NetError::Malformed { context: "sealed link frame" });
        }
        let start = out.len();
        self.sealer
            .open_into(self.nonce_for(claimed), body, &self.aad_for(claimed, meta), out)
            .map_err(|_| NetError::Malformed { context: "sealed link frame" })?;
        if claimed > self.seq {
            out.truncate(start);
            return Err(NetError::Gap { expected: self.seq, got: claimed });
        }
        self.seq += 1;
        self.last_meta = meta;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [0x42; 32];

    fn pair() -> (SecureLink, SecureLink) {
        (SecureLink::outbound(&KEY, 5, 9), SecureLink::inbound(&KEY, 9, 5))
    }

    #[test]
    fn frames_round_trip_in_order() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(1);
        for i in 0..5u8 {
            let sealed = tx.seal(&[i; 10], &mut rng);
            assert_eq!(rx.open(&sealed).unwrap(), vec![i; 10]);
        }
        assert_eq!(tx.sequence(), 5);
        assert_eq!(rx.sequence(), 5);
    }

    #[test]
    fn replay_is_rejected() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(2);
        let sealed = tx.seal(b"once", &mut rng);
        assert!(rx.open(&sealed).is_ok());
        assert!(rx.open(&sealed).is_err(), "same frame must not open twice");
    }

    #[test]
    fn reorder_is_rejected() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(3);
        let first = tx.seal(b"first", &mut rng);
        let second = tx.seal(b"second", &mut rng);
        assert!(rx.open(&second).is_err(), "skipping a frame fails");
        // The failed open did not advance the counter: in-order delivery
        // still works.
        assert!(rx.open(&first).is_ok());
        assert!(rx.open(&second).is_ok());
    }

    #[test]
    fn lost_frame_surfaces_as_typed_gap() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(7);
        let _lost = tx.seal(b"frame 0", &mut rng);
        let _also_lost = tx.seal(b"frame 1", &mut rng);
        let arrives = tx.seal(b"frame 2", &mut rng);
        match rx.open(&arrives) {
            Err(NetError::Gap { expected: 0, got: 2 }) => {}
            other => panic!("expected Gap {{ expected: 0, got: 2 }}, got {other:?}"),
        }
        // A gap does not advance the counter: the link is stuck (the lost
        // frames will never arrive) until it is re-established.
        assert_eq!(rx.sequence(), 0);
        let later = tx.seal(b"frame 3", &mut rng);
        assert!(matches!(rx.open(&later), Err(NetError::Gap { expected: 0, got: 3 })));
    }

    #[test]
    fn healthy_link_records_no_gap() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(9);
        for _ in 0..3 {
            let sealed = tx.seal(b"ok", &mut rng);
            rx.open(&sealed).unwrap();
        }
        // A forged frame is a Malformed error, never a gap.
        let mut forged = tx.seal(b"x", &mut rng);
        let n = forged.len();
        forged[n - 1] ^= 1;
        assert!(matches!(rx.open(&forged), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn gap_requires_an_authentic_frame() {
        // A forged "future" frame must read as tampering, not as a gap —
        // otherwise the infrastructure could fake liveness signals.
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(8);
        let _lost = tx.seal(b"frame 0", &mut rng);
        let mut future = tx.seal(b"frame 1", &mut rng);
        let n = future.len();
        future[n - 1] ^= 1;
        assert!(
            matches!(rx.open(&future), Err(NetError::Malformed { .. })),
            "tampered future frame is a forgery, not a gap"
        );
        // Relabelling an old frame as a future one fails the same way.
        let (mut tx2, mut rx2) = pair();
        let mut relabelled = tx2.seal(b"frame 0", &mut rng);
        relabelled[..8].copy_from_slice(&5u64.to_be_bytes());
        assert!(matches!(rx2.open(&relabelled), Err(NetError::Malformed { .. })));
        // Truncated-to-header frames are malformed outright.
        assert!(matches!(rx2.open(&[1, 2, 3]), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn open_into_reuses_the_buffer_and_appends_nothing_on_a_gap() {
        let (mut tx, mut rx) = pair();
        let mut wire = Vec::new();
        rx.open_into(&tx.seal_meta(b"first", 3), &mut wire).unwrap();
        assert_eq!((wire.as_slice(), rx.last_meta()), (b"first".as_slice(), 3));
        wire.clear();
        let _lost = tx.seal_meta(b"lost", 0);
        let ahead = tx.seal_meta(b"ahead", 0);
        assert!(matches!(rx.open_into(&ahead, &mut wire), Err(NetError::Gap { .. })));
        assert!(wire.is_empty(), "an authentic frame past a gap yields no bytes");
        assert_eq!(rx.sequence(), 1);
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(4);
        let mut sealed = tx.seal(b"payload", &mut rng);
        let n = sealed.len();
        sealed[n / 2] ^= 1;
        assert!(rx.open(&sealed).is_err());
    }

    #[test]
    fn direction_is_bound() {
        // B cannot reflect A's frame back to A, even with the shared key.
        let mut a_out = SecureLink::outbound(&KEY, 1, 2);
        let mut a_in = SecureLink::inbound(&KEY, 1, 2);
        let mut rng = CryptoRng::from_seed(5);
        let sealed = a_out.seal(b"hello", &mut rng);
        assert!(a_in.open(&sealed).is_err(), "A->B frame must not open as B->A");
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut tx = SecureLink::outbound(&KEY, 1, 2);
        let mut rx = SecureLink::inbound(&[0x43; 32], 2, 1);
        let mut rng = CryptoRng::from_seed(6);
        let sealed = tx.seal(b"hello", &mut rng);
        assert!(rx.open(&sealed).is_err());
    }

    #[test]
    fn meta_word_rides_in_clear_and_round_trips() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(10);
        let sealed = tx.seal_meta(b"traced batch", 0xDEAD_BEEF);
        // Visible to the infrastructure without the key…
        assert_eq!(u64::from_be_bytes(sealed[8..16].try_into().unwrap()), 0xDEAD_BEEF);
        // …and surfaced to the receiver after authentication.
        assert_eq!(rx.open(&sealed).unwrap(), b"traced batch");
        assert_eq!(rx.last_meta(), 0xDEAD_BEEF);
        // Plain `seal` carries meta 0 and resets the receiver's view.
        let plain = tx.seal(b"untraced", &mut rng);
        rx.open(&plain).unwrap();
        assert_eq!(rx.last_meta(), 0);
    }

    #[test]
    fn debug_prints_no_key_material() {
        let (mut tx, _) = pair();
        tx.seal(b"frame 0", &mut CryptoRng::from_seed(12));
        assert_eq!(format!("{tx:?}"), "SecureLink { seq: 1, last_meta: 0, .. }");
    }

    /// A frame pinned byte for byte: sequence, meta word, ciphertext and
    /// tag. No nonce travels, and none is drawn: the frame depends on the
    /// key, the direction, the sequence number, the meta word and the
    /// payload alone.
    #[test]
    fn seeded_frame_is_pinned() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(26);
        let first = tx.seal(b"frame 0", &mut rng);
        // 71 bytes: with the Poly1305 block in front, crosses one 64-byte
        // keystream refill.
        let payload: Vec<u8> = (0..71u8).collect();
        let frame = tx.seal_meta(&payload, 0xDEAD_BEEF);
        assert_eq!(frame.len(), HEADER_LEN + payload.len() + TAG_LEN);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_FRAME.split_whitespace().collect::<String>());
        rx.open(&first).unwrap();
        assert_eq!(rx.open(&frame).unwrap(), payload);
    }

    const PINNED_FRAME: &str = "000000000000000100000000deadbeef10a3fe349ea820bbbf3b7c728d93cf59\
                                 e151a4692def4f10d6bb9ae2612b0fd80b03761034facc9e754ca96c149c3753\
                                 ea2daeae3732ea70febfd3b057f25e9f986524e835f81c4e00436b7fae5e7744\
                                 523a0913987720";

    /// The same frame as sealed before links used Poly1305: a random
    /// nonce after the meta word and a 32-byte HMAC-SHA256 tag.
    const HMAC_LAYOUT_FRAME: &str = "000000000000000100000000deadbeef190740ee6b0ff62660247ecf5ca7b8b7\
                                     f6fa976322129d0f8d08fee0ba4a17289f7424fe9b552bd7301dfcc33a6e0872\
                                     692f5d8a9dd30b4eef9d60ddc122046cb9cf444e235440b08c8fe598663a05b7\
                                     f46184f8d1ab3257ac08f09171d6c3d19924840e913bf15e7f0af6edef19b8";

    #[test]
    fn hmac_layout_frame_is_refused() {
        let (mut tx, mut rx) = pair();
        rx.open(&tx.seal(b"frame 0", &mut CryptoRng::from_seed(26))).unwrap();
        let hex: String = HMAC_LAYOUT_FRAME.split_whitespace().collect();
        let old: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        assert!(matches!(rx.open(&old), Err(NetError::Malformed { .. })));
        assert_eq!(rx.sequence(), 1, "a refused frame does not advance the link");
    }

    /// Both directions share the key; the direction bit keeps their
    /// nonces, and so their keystreams and tags, apart.
    #[test]
    fn the_two_directions_seal_the_same_frame_differently() {
        let mut rng = CryptoRng::from_seed(13);
        let mut up = SecureLink::outbound(&KEY, 5, 9);
        let mut down = SecureLink::outbound(&KEY, 9, 5);
        for _ in 0..3 {
            let a = up.seal(b"same plaintext", &mut rng);
            let b = down.seal(b"same plaintext", &mut rng);
            assert_eq!(a[..HEADER_LEN], b[..HEADER_LEN], "same sequence number and meta word");
            let (ct_a, ct_b) =
                (&a[HEADER_LEN..a.len() - TAG_LEN], &b[HEADER_LEN..b.len() - TAG_LEN]);
            assert_ne!(ct_a, ct_b, "different keystreams");
            assert_ne!(a[a.len() - TAG_LEN..], b[b.len() - TAG_LEN..], "different tags");
        }
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn an_outbound_link_to_itself_is_refused() {
        let _ = SecureLink::outbound(&KEY, 3, 3);
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn an_inbound_link_from_itself_is_refused() {
        let _ = SecureLink::inbound(&KEY, 3, 3);
    }

    /// Sequence numbers never reach the direction bit: a half that would
    /// seal past 2⁶³ − 1 stops, and a frame claiming such a number is a
    /// forgery.
    #[test]
    fn sequence_numbers_stay_below_the_direction_bit() {
        let (mut tx, mut rx) = pair();
        let mut frame = tx.seal(b"x", &mut CryptoRng::from_seed(14));
        frame[..8].copy_from_slice(&MAX_FRAMES.to_be_bytes());
        assert!(matches!(rx.open(&frame), Err(NetError::Malformed { .. })));
        tx.seq = MAX_FRAMES - 1;
        tx.seal(b"last", &mut CryptoRng::from_seed(14));
        let spent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.seal_meta(b"", 0)));
        assert!(spent.is_err(), "no frame past 2^63 - 1");
    }

    #[test]
    fn tampered_meta_word_is_detected() {
        let (mut tx, mut rx) = pair();
        let mut sealed = tx.seal_meta(b"payload", 7);
        sealed[15] ^= 1; // flip a bit of the in-clear meta word
        assert!(
            matches!(rx.open(&sealed), Err(NetError::Malformed { .. })),
            "meta is authenticated through the AAD"
        );
        assert_eq!(rx.last_meta(), 0, "failed open must not surface forged meta");
    }
}
