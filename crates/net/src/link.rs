//! Sealed link channels: authenticated encryption for broker-to-broker
//! overlay links.
//!
//! Once two routers have agreed on a link key (e.g. via the mutual
//! attestation handshake in `sgx_sim::link`), every frame between them
//! travels through a [`SecureLink`]: AES-CTR + HMAC with the frame's
//! **direction and sequence number** bound in as associated data. That
//! gives each link:
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

use crate::error::NetError;
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
    seq: u64,
    /// First sequence gap observed on this (inbound) half, if any:
    /// `(expected, got)` at the moment the gap surfaced. Sticky — a
    /// gapped link cannot make progress, so the record stands until the
    /// link is re-keyed (a fresh [`SecureLink`]).
    gap: Option<(u64, u64)>,
    /// Meta word of the last successfully opened frame (inbound half).
    last_meta: u64,
}

impl std::fmt::Debug for SecureLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The sealer's keyed state stays out of logs.
        f.debug_struct("SecureLink")
            .field("seq", &self.seq)
            .field("gap", &self.gap)
            .field("last_meta", &self.last_meta)
            .finish_non_exhaustive()
    }
}

/// `b"scbr-link " || from || to`.
const LABEL_LEN: usize = 26;

/// The direction label, then the frame's sequence number and meta word.
const AAD_LEN: usize = LABEL_LEN + 16;

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
    pub fn outbound(key: &[u8], local: u64, peer: u64) -> Self {
        SecureLink {
            sealer: SealedBox::new(&SymmetricKey::from_bytes(key)),
            label: direction_label(local, peer),
            seq: 0,
            gap: None,
            last_meta: 0,
        }
    }

    /// The receiving half at endpoint `local`, from `peer`.
    pub fn inbound(key: &[u8], local: u64, peer: u64) -> Self {
        SecureLink {
            sealer: SealedBox::new(&SymmetricKey::from_bytes(key)),
            label: direction_label(peer, local),
            seq: 0,
            gap: None,
            last_meta: 0,
        }
    }

    /// Frames sealed (outbound half) or expected (inbound half) so far.
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// The first sequence gap this inbound half observed, as
    /// `(expected, got)`. A gapped link is wedged — the lost frames will
    /// never arrive and the counter cannot advance — so the record is
    /// sticky until the link is re-keyed. This is the per-channel wedge
    /// predicate the overlay's suspicion timers key off.
    pub fn gap_observed(&self) -> Option<(u64, u64)> {
        self.gap
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

    /// Seals one outbound frame with a zero meta word, advancing the
    /// sequence counter. The sequence number travels in the clear ahead
    /// of the ciphertext (authenticated via the associated data) so the
    /// receiver can distinguish a *lost-frame gap* from a forgery.
    pub fn seal(&mut self, plain: &[u8], rng: &mut CryptoRng) -> Vec<u8> {
        self.seal_meta(plain, 0, rng)
    }

    /// Seals one outbound frame carrying `meta` in the clear (bound into
    /// the associated data, so tampering is detected on open).
    pub fn seal_meta(&mut self, plain: &[u8], meta: u64, rng: &mut CryptoRng) -> Vec<u8> {
        let sealed = self.sealer.seal(plain, &self.aad_for(self.seq, meta), rng);
        let mut frame = Vec::with_capacity(16 + sealed.len());
        frame.extend_from_slice(&self.seq.to_be_bytes());
        frame.extend_from_slice(&meta.to_be_bytes());
        frame.extend_from_slice(&sealed);
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
        if sealed.len() < 16 {
            return Err(NetError::Malformed { context: "sealed link frame" });
        }
        let (header, body) = sealed.split_at(16);
        let claimed = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
        let meta = u64::from_be_bytes(header[8..].try_into().expect("8 bytes"));
        if claimed < self.seq {
            // A frame from the past is a replay regardless of its MAC.
            return Err(NetError::Malformed { context: "sealed link frame" });
        }
        let plain = self
            .sealer
            .open(body, &self.aad_for(claimed, meta))
            .map_err(|_| NetError::Malformed { context: "sealed link frame" })?;
        if claimed > self.seq {
            if self.gap.is_none() {
                self.gap = Some((self.seq, claimed));
            }
            return Err(NetError::Gap { expected: self.seq, got: claimed });
        }
        self.seq += 1;
        self.last_meta = meta;
        Ok(plain)
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
        // The wedge is recorded stickily, pinned to the *first* gap.
        assert_eq!(rx.gap_observed(), Some((0, 2)));
        let later = tx.seal(b"frame 3", &mut rng);
        assert!(matches!(rx.open(&later), Err(NetError::Gap { expected: 0, got: 3 })));
        assert_eq!(rx.gap_observed(), Some((0, 2)), "first gap record is sticky");
    }

    #[test]
    fn healthy_link_records_no_gap() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(9);
        for _ in 0..3 {
            let sealed = tx.seal(b"ok", &mut rng);
            rx.open(&sealed).unwrap();
        }
        assert_eq!(rx.gap_observed(), None);
        // A forged frame is a Malformed error, never a gap record.
        let mut forged = tx.seal(b"x", &mut rng);
        let n = forged.len();
        forged[n - 1] ^= 1;
        assert!(rx.open(&forged).is_err());
        assert_eq!(rx.gap_observed(), None);
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
        let sealed = tx.seal_meta(b"traced batch", 0xDEAD_BEEF, &mut rng);
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
        assert_eq!(format!("{tx:?}"), "SecureLink { seq: 1, gap: None, last_meta: 0, .. }");
    }

    /// A seeded frame pinned byte for byte: sequence, meta word, nonce,
    /// ciphertext and tag (the tag binds the direction label).
    #[test]
    fn seeded_frame_is_pinned() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(26);
        let first = tx.seal(b"frame 0", &mut rng);
        // 71 bytes: crosses one 64-byte keystream refill.
        let payload: Vec<u8> = (0..71u8).collect();
        let frame = tx.seal_meta(&payload, 0xDEAD_BEEF, &mut rng);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "000000000000000100000000deadbeef190740ee6b0ff62660247ecf5ca7b8b7f6fa976322129d0f\
             8d08fee0ba4a17289f7424fe9b552bd7301dfcc33a6e0872692f5d8a9dd30b4eef9d60ddc122046c\
             b9cf444e235440b08c8fe598663a05b7f46184f8d1ab3257ac08f09171d6c3d19924840e913bf15e\
             7f0af6edef19b8"
        );
        rx.open(&first).unwrap();
        assert_eq!(rx.open(&frame).unwrap(), payload);
    }

    #[test]
    fn tampered_meta_word_is_detected() {
        let (mut tx, mut rx) = pair();
        let mut rng = CryptoRng::from_seed(11);
        let mut sealed = tx.seal_meta(b"payload", 7, &mut rng);
        sealed[15] ^= 1; // flip a bit of the in-clear meta word
        assert!(
            matches!(rx.open(&sealed), Err(NetError::Malformed { .. })),
            "meta is authenticated through the AAD"
        );
        assert_eq!(rx.last_meta(), 0, "failed open must not surface forged meta");
    }
}
