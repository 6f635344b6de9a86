//! Wire messages exchanged by the SCBR roles.
//!
//! Every message travels as one binary unit, `u8 tag ‖ body`: the tag
//! names the variant and the body holds its fields in the encoding of
//! [`crate::codec`] (big-endian integers; byte blobs and strings as
//! `u32 len ‖ bytes`). The enum covers the whole Figure 4 flow plus
//! delivery, key updates and the overlay's link traffic.
//!
//! | tag | variant | body |
//! |----:|---------|------|
//! | 1 | `SubmitSubscription` | `u64 client ‖ bytes encrypted_subscription` |
//! | 2 | `SubscriptionAccepted` | `u64 id` |
//! | 3 | `SubscriptionRejected` | `str reason` |
//! | 4 | `Register` | `bytes envelope` |
//! | 5 | `RegisterAck` | `u64 id` |
//! | 6 | `Unsubscribe` | `u64 client ‖ u64 id ‖ bytes signature` |
//! | 7 | `Unsubscribed` | `u64 id` |
//! | 8 | `Unregister` | `bytes envelope` |
//! | 9 | `UnregisterAck` | `u64 id` |
//! | 10 | `Publish` | `bytes header_ct ‖ u64 epoch ‖ bytes payload_ct` |
//! | 11 | `PublishBatch` | `u32 count ‖ (u32 len ‖ item) × count`, each item a `Publish` body |
//! | 12 | `Deliver` | `u64 epoch ‖ bytes payload_ct` |
//! | 13 | `KeyUpdate` | `bytes wrapped` |
//! | 14 | `Hello` | `u64 client` |
//! | 15–17 | `LinkHello`, `LinkAccept`, `LinkFinish` | `bytes payload` |
//! | 18, 19 | `SubForward`, `SubRemove` | `bytes envelope` |
//! | 20 | `ReplayRequest` | empty |
//! | 21 | `ReplayDone` | `u32 count` |
//! | 22 | `SubDrop` | `u64 id` |
//! | 23 | `Heartbeat` | empty |
//! | 24 | `Error` | `str message` |
//! | 25 | `Shutdown` | empty |
//!
//! The `PublishBatch` body is the [`scbr_net::batch`] frame, at most
//! [`MAX_BATCH_ITEMS`] items and [`MAX_FRAME`] bytes. Decoding is strict:
//! an unknown tag, a short body or trailing bytes is a
//! [`ScbrError::Codec`], so a message that decodes re-encodes to the same
//! bytes.
//!
//! A router forwards publications without owning them:
//! [`PublishBatchView`] checks a `PublishBatch` wire once and then yields
//! its items as [`PublishItemRef`]s borrowed from the frame, and
//! [`encode_publish_batch`] writes a batch from borrowed items into a
//! buffer the caller reuses. [`Message::from_wire`] reads batches through
//! the same view.

use crate::codec::{Reader, Writer};
use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr_net::batch::MAX_BATCH_ITEMS;
use scbr_net::frame::MAX_FRAME;

// Wire tags, one per variant (the table in the module docs).
const TAG_SUBMIT: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_REJECTED: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REGISTER_ACK: u8 = 5;
const TAG_UNSUBSCRIBE: u8 = 6;
const TAG_UNSUBSCRIBED: u8 = 7;
const TAG_UNREGISTER: u8 = 8;
const TAG_UNREGISTER_ACK: u8 = 9;
const TAG_PUBLISH: u8 = 10;
const TAG_PUBLISH_BATCH: u8 = 11;
const TAG_DELIVER: u8 = 12;
const TAG_KEY_UPDATE: u8 = 13;
const TAG_HELLO: u8 = 14;
const TAG_LINK_HELLO: u8 = 15;
const TAG_LINK_ACCEPT: u8 = 16;
const TAG_LINK_FINISH: u8 = 17;
const TAG_SUB_FORWARD: u8 = 18;
const TAG_SUB_REMOVE: u8 = 19;
const TAG_REPLAY_REQUEST: u8 = 20;
const TAG_REPLAY_DONE: u8 = 21;
const TAG_SUB_DROP: u8 = 22;
const TAG_HEARTBEAT: u8 = 23;
const TAG_ERROR: u8 = 24;
const TAG_SHUTDOWN: u8 = 25;

/// One publication inside a [`Message::PublishBatch`]: the same triple a
/// [`Message::Publish`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishItem {
    /// `{header}SK`.
    pub header_ct: Vec<u8>,
    /// Group-key epoch of the payload.
    pub epoch: KeyEpoch,
    /// Payload ciphertext (opaque to the router).
    pub payload_ct: Vec<u8>,
}

impl PublishItem {
    /// Borrows the item.
    pub fn view(&self) -> PublishItemRef<'_> {
        PublishItemRef {
            header_ct: &self.header_ct,
            epoch: self.epoch,
            payload_ct: &self.payload_ct,
        }
    }
}

/// A [`PublishItem`] borrowed from a wire frame or from an owned item.
#[derive(Debug, Clone, Copy)]
pub struct PublishItemRef<'a> {
    /// `{header}SK`.
    pub header_ct: &'a [u8],
    /// Group-key epoch of the payload.
    pub epoch: KeyEpoch,
    /// Payload ciphertext (opaque to the router).
    pub payload_ct: &'a [u8],
}

impl PublishItemRef<'_> {
    /// Copies the item out of what it borrows from.
    pub fn to_item(&self) -> PublishItem {
        PublishItem {
            header_ct: self.header_ct.to_vec(),
            epoch: self.epoch,
            payload_ct: self.payload_ct.to_vec(),
        }
    }
}

/// Splits one `u32 len ‖ item` member off the front of a batch body.
fn split_member(bytes: &[u8]) -> Result<(PublishItemRef<'_>, &[u8]), ScbrError> {
    let member = Reader::new(bytes).bytes_ref()?;
    let mut r = Reader::new(member);
    let item = PublishItemRef {
        header_ct: r.bytes_ref()?,
        epoch: KeyEpoch(r.u64()?),
        payload_ct: r.bytes_ref()?,
    };
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "publish item trailing bytes" });
    }
    Ok((item, &bytes[4 + member.len()..]))
}

/// The items of a checked `PublishBatch` wire, read in place and yielded
/// in batch order. Building the view checks the whole batch, so iterating
/// it cannot fail and a router never acts on half of a malformed batch;
/// clone the view to read the batch again.
#[derive(Debug, Clone)]
pub struct PublishBatchView<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> PublishBatchView<'a> {
    /// The view of `wire` if it is a `PublishBatch` message, `None` if it
    /// carries another tag (or none).
    ///
    /// # Errors
    ///
    /// [`ScbrError::Codec`] when the batch body is malformed: short,
    /// over [`MAX_BATCH_ITEMS`] items or [`MAX_FRAME`] bytes, an item
    /// running past the frame, or trailing bytes.
    pub fn from_wire(wire: &'a [u8]) -> Result<Option<Self>, ScbrError> {
        match wire.split_first() {
            Some((&TAG_PUBLISH_BATCH, body)) => Self::parse(body).map(Some),
            _ => Ok(None),
        }
    }

    fn parse(body: &'a [u8]) -> Result<Self, ScbrError> {
        if body.len() > MAX_FRAME {
            return Err(ScbrError::Codec { context: "publish batch size" });
        }
        let count = Reader::new(body).u32()? as usize;
        if count > MAX_BATCH_ITEMS {
            return Err(ScbrError::Codec { context: "publish batch count" });
        }
        let items = &body[4..];
        let mut rest = items;
        for _ in 0..count {
            rest = split_member(rest)?.1;
        }
        if !rest.is_empty() {
            return Err(ScbrError::Codec { context: "publish batch trailing bytes" });
        }
        Ok(PublishBatchView { rest: items, remaining: count })
    }
}

impl<'a> Iterator for PublishBatchView<'a> {
    type Item = PublishItemRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let (item, rest) = split_member(self.rest).expect("checked when the view was built");
        self.rest = rest;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PublishBatchView<'_> {}

/// Writes the `PublishBatch` message carrying `items` into `out`, which
/// is cleared first: the same bytes as [`Message::to_wire`], with no
/// owned item built on the way.
///
/// # Errors
///
/// [`ScbrError::Codec`] for more than [`MAX_BATCH_ITEMS`] items or a body
/// over [`MAX_FRAME`] bytes; `out` then holds a partial encoding.
pub fn encode_publish_batch<'a>(
    items: impl IntoIterator<Item = PublishItemRef<'a>>,
    out: &mut Vec<u8>,
) -> Result<(), ScbrError> {
    out.clear();
    out.extend_from_slice(&[TAG_PUBLISH_BATCH, 0, 0, 0, 0]);
    let mut count = 0usize;
    for item in items {
        count += 1;
        let len = 4 + item.header_ct.len() + 8 + 4 + item.payload_ct.len();
        if count > MAX_BATCH_ITEMS || out.len() - 1 + 4 + len > MAX_FRAME {
            return Err(ScbrError::Codec { context: "publish batch beyond frame limits" });
        }
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.extend_from_slice(&(item.header_ct.len() as u32).to_be_bytes());
        out.extend_from_slice(item.header_ct);
        out.extend_from_slice(&item.epoch.0.to_be_bytes());
        out.extend_from_slice(&(item.payload_ct.len() as u32).to_be_bytes());
        out.extend_from_slice(item.payload_ct);
    }
    out[1..5].copy_from_slice(&(count as u32).to_be_bytes());
    Ok(())
}

/// All SCBR protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → producer: `{s}PK` plus the client's identity (step 1).
    SubmitSubscription {
        /// Requesting client.
        client: ClientId,
        /// Hybrid-encrypted subscription bytes.
        encrypted_subscription: Vec<u8>,
    },
    /// Producer → client: subscription accepted under this id.
    SubscriptionAccepted {
        /// The id the producer allocated.
        id: SubscriptionId,
    },
    /// Producer → client: subscription refused.
    SubscriptionRejected {
        /// Human-readable reason (no sensitive detail).
        reason: String,
    },
    /// Producer → router: signed `{s}SK` registration envelope (step 2).
    Register {
        /// Envelope accepted by the routing enclave.
        envelope: Vec<u8>,
    },
    /// Router → producer: registration landed.
    RegisterAck {
        /// The registered subscription id.
        id: SubscriptionId,
    },
    /// Client → producer: retire one of this client's subscriptions. The
    /// signature (by the client's admission key, over
    /// [`crate::protocol::keys::unsubscribe_signing_bytes`]) proves the
    /// request really comes from the subscription's owner.
    Unsubscribe {
        /// The requesting client.
        client: ClientId,
        /// The subscription to retire.
        id: SubscriptionId,
        /// Client signature over the canonical unsubscribe bytes.
        signature: Vec<u8>,
    },
    /// Producer → client: the subscription was retired (idempotent — a
    /// second unsubscribe of the same id also lands here).
    Unsubscribed {
        /// The retired subscription id.
        id: SubscriptionId,
    },
    /// Producer → router: signed `{id, client}SK` unregistration envelope
    /// — the removal counterpart of [`Message::Register`], authenticated
    /// by the routing enclave the same way.
    Unregister {
        /// Envelope accepted by the routing enclave.
        envelope: Vec<u8>,
    },
    /// Router → producer: unregistration processed (idempotent).
    UnregisterAck {
        /// The retired subscription id.
        id: SubscriptionId,
    },
    /// Producer → router: encrypted header + payload (step 4).
    Publish {
        /// `{header}SK`.
        header_ct: Vec<u8>,
        /// Group-key epoch of the payload.
        epoch: KeyEpoch,
        /// Payload ciphertext (opaque to the router).
        payload_ct: Vec<u8>,
    },
    /// Producer → router: a whole batch of encrypted publications in one
    /// wire unit (the batch-first pipeline; the router matches the batch
    /// through a single enclave crossing).
    PublishBatch {
        /// The batched publications, in publish order.
        items: Vec<PublishItem>,
    },
    /// Router → client: matched publication payload (step 6).
    Deliver {
        /// Group-key epoch of the payload.
        epoch: KeyEpoch,
        /// Payload ciphertext.
        payload_ct: Vec<u8>,
    },
    /// Producer → client: a wrapped group key for an epoch.
    KeyUpdate {
        /// Hybrid-encrypted `epoch || key` bytes.
        wrapped: Vec<u8>,
    },
    /// Client → router: identify this connection as a client's delivery
    /// channel.
    Hello {
        /// The connecting client.
        client: ClientId,
    },
    /// Router → router: first overlay link-handshake message (a serialised
    /// `sgx_sim::link::LinkHello` — quote plus bound response key).
    LinkHello {
        /// Opaque handshake bytes (parsed by the overlay layer).
        payload: Vec<u8>,
    },
    /// Router → router: second link-handshake message (responder quote and
    /// wrapped secret; a serialised `sgx_sim::link::LinkAccept`).
    LinkAccept {
        /// Opaque handshake bytes.
        payload: Vec<u8>,
    },
    /// Router → router: final link-handshake message (a serialised
    /// `sgx_sim::link::LinkFinish`).
    LinkFinish {
        /// Opaque handshake bytes.
        payload: Vec<u8>,
    },
    /// Router → router: a registration envelope propagated through the
    /// overlay (covering-pruned at each hop). The envelope is the same
    /// producer-signed `{s}SK` unit a [`Message::Register`] carries, so
    /// the next hop's enclave can authenticate it independently.
    SubForward {
        /// The forwarded registration envelope.
        envelope: Vec<u8>,
    },
    /// Router → router: an unregistration envelope propagated through the
    /// overlay. Sent only on links the subscription was actually forwarded
    /// on (a covering-pruned removal generates no traffic); receiving it
    /// may *uncover* previously-pruned subscriptions, which the receiver
    /// then forwards upstream as fresh [`Message::SubForward`]s.
    SubRemove {
        /// The forwarded unregistration envelope.
        envelope: Vec<u8>,
    },
    /// Router → router: a rejoining broker asks a surviving neighbour to
    /// replay the live registration envelopes it had forwarded on this
    /// link. The neighbour answers with one [`Message::SubForward`] per
    /// live forwarded subscription, terminated by a
    /// [`Message::ReplayDone`].
    ReplayRequest,
    /// Router → router: terminates a replay; `count` is the number of
    /// [`Message::SubForward`]s that preceded it, so the rejoiner can
    /// cross-check completeness before reconciling its restored state.
    ReplayDone {
        /// Envelopes replayed on this link.
        count: u32,
    },
    /// Router → router: withdraw subscription `id` without a signed
    /// unregistration envelope. Only valid **down** the reverse path: the
    /// receiver accepts it solely for a subscription it learnt *from this
    /// link* (link authentication — the attested peer — stands in for the
    /// producer signature, which the peer may never have seen if the
    /// removal happened while this broker was crashed). Used during
    /// rejoin reconciliation to propagate removals that were lost while a
    /// broker was down.
    SubDrop {
        /// The withdrawn subscription.
        id: SubscriptionId,
    },
    /// Router → router: a liveness beacon. Carries no payload — on a
    /// sealed link the frame is AEAD-sealed and sequence-numbered like
    /// any data frame, so receiving one (or observing its sequence
    /// number skip ahead) is an authenticated signal that the peer is
    /// alive (or that frames were lost). Brokers emit one per link per
    /// heartbeat interval from their timer tick.
    Heartbeat,
    /// Generic failure notice.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Orderly shutdown of a role's event loop.
    Shutdown,
}

impl Message {
    /// Stable, human-readable label of this variant (for logs and tests;
    /// the wire carries the numeric tag).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::SubmitSubscription { .. } => "submit",
            Message::SubscriptionAccepted { .. } => "accepted",
            Message::SubscriptionRejected { .. } => "rejected",
            Message::Register { .. } => "register",
            Message::RegisterAck { .. } => "register-ack",
            Message::Unsubscribe { .. } => "unsubscribe",
            Message::Unsubscribed { .. } => "unsubscribed",
            Message::Unregister { .. } => "unregister",
            Message::UnregisterAck { .. } => "unregister-ack",
            Message::Publish { .. } => "publish",
            Message::PublishBatch { .. } => "publish-batch",
            Message::Deliver { .. } => "deliver",
            Message::KeyUpdate { .. } => "key-update",
            Message::Hello { .. } => "hello",
            Message::LinkHello { .. } => "link-hello",
            Message::LinkAccept { .. } => "link-accept",
            Message::LinkFinish { .. } => "link-finish",
            Message::SubForward { .. } => "sub-forward",
            Message::SubRemove { .. } => "sub-remove",
            Message::ReplayRequest => "replay-request",
            Message::ReplayDone { .. } => "replay-done",
            Message::SubDrop { .. } => "sub-drop",
            Message::Heartbeat => "heartbeat",
            Message::Error { .. } => "error",
            Message::Shutdown => "shutdown",
        }
    }

    /// Serialises to wire bytes: the variant's tag, then its body.
    ///
    /// # Panics
    ///
    /// Panics if a [`Message::PublishBatch`] exceeds the net layer's
    /// frame limits (more than [`MAX_BATCH_ITEMS`] items or a body beyond
    /// [`MAX_FRAME`]). The producer role never builds such batches — it
    /// chunks outgoing traffic (see [`crate::roles::producer`]); direct
    /// API users assembling their own `PublishBatch` messages must do the
    /// same.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::SubmitSubscription { client, encrypted_subscription } => {
                w.u8(TAG_SUBMIT).u64(client.0).bytes(encrypted_subscription);
            }
            Message::SubscriptionAccepted { id } => {
                w.u8(TAG_ACCEPTED).u64(id.0);
            }
            Message::SubscriptionRejected { reason } => {
                w.u8(TAG_REJECTED).str(reason);
            }
            Message::Register { envelope } => {
                w.u8(TAG_REGISTER).bytes(envelope);
            }
            Message::RegisterAck { id } => {
                w.u8(TAG_REGISTER_ACK).u64(id.0);
            }
            Message::Unsubscribe { client, id, signature } => {
                w.u8(TAG_UNSUBSCRIBE).u64(client.0).u64(id.0).bytes(signature);
            }
            Message::Unsubscribed { id } => {
                w.u8(TAG_UNSUBSCRIBED).u64(id.0);
            }
            Message::Unregister { envelope } => {
                w.u8(TAG_UNREGISTER).bytes(envelope);
            }
            Message::UnregisterAck { id } => {
                w.u8(TAG_UNREGISTER_ACK).u64(id.0);
            }
            Message::Publish { header_ct, epoch, payload_ct } => {
                w.u8(TAG_PUBLISH).bytes(header_ct).u64(epoch.0).bytes(payload_ct);
            }
            Message::PublishBatch { items } => {
                let mut wire = Vec::new();
                encode_publish_batch(items.iter().map(PublishItem::view), &mut wire)
                    .expect("publish batch within frame limits");
                return wire;
            }
            Message::Deliver { epoch, payload_ct } => {
                w.u8(TAG_DELIVER).u64(epoch.0).bytes(payload_ct);
            }
            Message::KeyUpdate { wrapped } => {
                w.u8(TAG_KEY_UPDATE).bytes(wrapped);
            }
            Message::Hello { client } => {
                w.u8(TAG_HELLO).u64(client.0);
            }
            Message::LinkHello { payload } => {
                w.u8(TAG_LINK_HELLO).bytes(payload);
            }
            Message::LinkAccept { payload } => {
                w.u8(TAG_LINK_ACCEPT).bytes(payload);
            }
            Message::LinkFinish { payload } => {
                w.u8(TAG_LINK_FINISH).bytes(payload);
            }
            Message::SubForward { envelope } => {
                w.u8(TAG_SUB_FORWARD).bytes(envelope);
            }
            Message::SubRemove { envelope } => {
                w.u8(TAG_SUB_REMOVE).bytes(envelope);
            }
            Message::ReplayRequest => {
                w.u8(TAG_REPLAY_REQUEST);
            }
            Message::ReplayDone { count } => {
                w.u8(TAG_REPLAY_DONE).u32(*count);
            }
            Message::SubDrop { id } => {
                w.u8(TAG_SUB_DROP).u64(id.0);
            }
            Message::Heartbeat => {
                w.u8(TAG_HEARTBEAT);
            }
            Message::Error { message } => {
                w.u8(TAG_ERROR).str(message);
            }
            Message::Shutdown => {
                w.u8(TAG_SHUTDOWN);
            }
        }
        w.into_bytes()
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Codec`] for an empty input, an unknown tag, a short
    /// or malformed body, or trailing bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, ScbrError> {
        let Some((&tag, body)) = bytes.split_first() else {
            return Err(ScbrError::Codec { context: "message tag" });
        };
        let mut r = Reader::new(body);
        let msg = match tag {
            TAG_SUBMIT => Message::SubmitSubscription {
                client: ClientId(r.u64()?),
                encrypted_subscription: r.bytes()?,
            },
            TAG_ACCEPTED => Message::SubscriptionAccepted { id: SubscriptionId(r.u64()?) },
            TAG_REJECTED => Message::SubscriptionRejected { reason: r.str()? },
            TAG_REGISTER => Message::Register { envelope: r.bytes()? },
            TAG_REGISTER_ACK => Message::RegisterAck { id: SubscriptionId(r.u64()?) },
            TAG_UNSUBSCRIBE => Message::Unsubscribe {
                client: ClientId(r.u64()?),
                id: SubscriptionId(r.u64()?),
                signature: r.bytes()?,
            },
            TAG_UNSUBSCRIBED => Message::Unsubscribed { id: SubscriptionId(r.u64()?) },
            TAG_UNREGISTER => Message::Unregister { envelope: r.bytes()? },
            TAG_UNREGISTER_ACK => Message::UnregisterAck { id: SubscriptionId(r.u64()?) },
            TAG_PUBLISH => Message::Publish {
                header_ct: r.bytes()?,
                epoch: KeyEpoch(r.u64()?),
                payload_ct: r.bytes()?,
            },
            TAG_PUBLISH_BATCH => {
                let items = PublishBatchView::parse(body)?.map(|i| i.to_item()).collect();
                return Ok(Message::PublishBatch { items });
            }
            TAG_DELIVER => Message::Deliver { epoch: KeyEpoch(r.u64()?), payload_ct: r.bytes()? },
            TAG_KEY_UPDATE => Message::KeyUpdate { wrapped: r.bytes()? },
            TAG_HELLO => Message::Hello { client: ClientId(r.u64()?) },
            TAG_LINK_HELLO => Message::LinkHello { payload: r.bytes()? },
            TAG_LINK_ACCEPT => Message::LinkAccept { payload: r.bytes()? },
            TAG_LINK_FINISH => Message::LinkFinish { payload: r.bytes()? },
            TAG_SUB_FORWARD => Message::SubForward { envelope: r.bytes()? },
            TAG_SUB_REMOVE => Message::SubRemove { envelope: r.bytes()? },
            TAG_REPLAY_REQUEST => Message::ReplayRequest,
            TAG_REPLAY_DONE => Message::ReplayDone { count: r.u32()? },
            TAG_SUB_DROP => Message::SubDrop { id: SubscriptionId(r.u64()?) },
            TAG_HEARTBEAT => Message::Heartbeat,
            TAG_ERROR => Message::Error { message: r.str()? },
            TAG_SHUTDOWN => Message::Shutdown,
            _ => return Err(ScbrError::Codec { context: "message tag" }),
        };
        if !r.is_exhausted() {
            return Err(ScbrError::Codec { context: "message trailing bytes" });
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let wire = msg.to_wire();
        assert_eq!(Message::from_wire(&wire).unwrap(), msg);
    }

    fn item(header: &[u8], epoch: u64, payload: &[u8]) -> PublishItem {
        PublishItem {
            header_ct: header.to_vec(),
            epoch: KeyEpoch(epoch),
            payload_ct: payload.to_vec(),
        }
    }

    /// One message per variant, every variable-length field non-empty
    /// where it has one.
    fn samples() -> Vec<Message> {
        vec![
            Message::SubmitSubscription { client: ClientId(7), encrypted_subscription: vec![1, 2] },
            Message::SubscriptionAccepted { id: SubscriptionId(9) },
            Message::SubscriptionRejected { reason: "no".into() },
            Message::Register { envelope: vec![4, 5] },
            Message::RegisterAck { id: SubscriptionId(1) },
            Message::Unsubscribe { client: ClientId(3), id: SubscriptionId(8), signature: vec![7] },
            Message::Unsubscribed { id: SubscriptionId(8) },
            Message::Unregister { envelope: vec![6] },
            Message::UnregisterAck { id: SubscriptionId(8) },
            Message::Publish { header_ct: vec![1], epoch: KeyEpoch(2), payload_ct: vec![3] },
            Message::PublishBatch { items: vec![item(&[1, 2], 3, &[4]), item(&[], 0, &[5])] },
            Message::Deliver { epoch: KeyEpoch(2), payload_ct: vec![3] },
            Message::KeyUpdate { wrapped: vec![9] },
            Message::Hello { client: ClientId(1) },
            Message::LinkHello { payload: vec![1] },
            Message::LinkAccept { payload: vec![2] },
            Message::LinkFinish { payload: vec![3] },
            Message::SubForward { envelope: vec![4] },
            Message::SubRemove { envelope: vec![5] },
            Message::ReplayRequest,
            Message::ReplayDone { count: 17 },
            Message::SubDrop { id: SubscriptionId(42) },
            Message::Heartbeat,
            Message::Error { message: "boom".into() },
            Message::Shutdown,
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn all_variants_round_trip() {
        for msg in samples() {
            round_trip(msg);
        }
        round_trip(Message::PublishBatch { items: vec![] });
        round_trip(Message::PublishBatch {
            items: vec![item(&[1, 2], 3, &[4]), item(&[], 0, &[5; 100])],
        });
        round_trip(Message::Deliver { epoch: KeyEpoch(0), payload_ct: vec![] });
        round_trip(Message::LinkAccept { payload: vec![] });
        round_trip(Message::Unsubscribe {
            client: ClientId(3),
            id: SubscriptionId(8),
            signature: vec![7; 64],
        });
    }

    /// The wire format, pinned: any change to it is a reviewed diff here.
    #[test]
    fn encodings_are_pinned() {
        let golden = [
            "010000000000000007000000020102",
            "020000000000000009",
            "03000000026e6f",
            "04000000020405",
            "050000000000000001",
            "06000000000000000300000000000000080000000107",
            "070000000000000008",
            "080000000106",
            "090000000000000008",
            "0a000000010100000000000000020000000103",
            "0b000000020000001300000002010200000000000000030000000104000000110000000000000000000000000000000105",
            "0c00000000000000020000000103",
            "0d0000000109",
            "0e0000000000000001",
            "0f0000000101",
            "100000000102",
            "110000000103",
            "120000000104",
            "130000000105",
            "14",
            "1500000011",
            "16000000000000002a",
            "17",
            "1800000004626f6f6d",
            "19",
        ];
        for (msg, expected) in samples().iter().zip(golden) {
            assert_eq!(hex(&msg.to_wire()), expected, "{}", msg.kind());
        }
    }

    /// The `PublishBatch` body is the net layer's batch frame of
    /// `Publish` bodies.
    #[test]
    fn publish_batch_body_is_the_batch_frame() {
        let items = vec![item(&[1, 2], 3, &[4]), item(&[], 0, &[5; 70])];
        let members: Vec<Vec<u8>> = items
            .iter()
            .map(|i| crate::codec::encode_publish(&i.header_ct, i.epoch, &i.payload_ct))
            .collect();
        let wire = Message::PublishBatch { items }.to_wire();
        assert_eq!(wire[0], TAG_PUBLISH_BATCH);
        assert_eq!(wire[1..], scbr_net::batch::pack(&members).unwrap()[..]);
    }

    #[test]
    fn unknown_kind_rejected() {
        let known: Vec<u8> = samples().iter().map(|m| m.to_wire()[0]).collect();
        for tag in 0..=u8::MAX {
            if !known.contains(&tag) {
                assert!(Message::from_wire(&[tag]).is_err(), "tag {tag}");
                assert!(Message::from_wire(&[tag, 0, 0, 0, 0]).is_err(), "tag {tag}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for msg in samples() {
            let mut wire = msg.to_wire();
            wire.push(0);
            assert!(Message::from_wire(&wire).is_err(), "{}", msg.kind());
        }
    }

    /// An empty input, and every variant with its body cut short at every
    /// offset (an empty body included), is an error.
    #[test]
    fn malformed_wire_rejected() {
        assert!(Message::from_wire(&[]).is_err());
        for msg in samples() {
            let wire = msg.to_wire();
            for cut in 0..wire.len() {
                assert!(Message::from_wire(&wire[..cut]).is_err(), "{} cut at {cut}", msg.kind());
            }
        }
    }

    #[test]
    fn corrupt_publish_batch_rejected() {
        let wire = Message::PublishBatch { items: vec![item(&[1], 2, &[3])] }.to_wire();
        let reject = |bytes: &[u8]| {
            assert!(Message::from_wire(bytes).is_err());
            assert!(PublishBatchView::from_wire(bytes).is_err());
        };
        // A count above the batch limit.
        let mut bytes = wire.clone();
        bytes[1..5].copy_from_slice(&(MAX_BATCH_ITEMS as u32 + 1).to_be_bytes());
        reject(&bytes);
        // A count promising more items than the frame holds.
        bytes[1..5].copy_from_slice(&2u32.to_be_bytes());
        reject(&bytes);
        // An item length running past the frame.
        let mut bytes = wire.clone();
        bytes[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        reject(&bytes);
        // An item length shorter than the item it frames.
        let mut bytes = wire.clone();
        bytes[8] -= 1;
        reject(&bytes);
        // A header length running past its item.
        let mut bytes = wire;
        bytes[12] += 1;
        reject(&bytes);
    }

    /// The view takes batches, reading what `from_wire` reads, and
    /// declines every other message.
    #[test]
    fn view_reads_only_publish_batches() {
        for msg in samples() {
            let wire = msg.to_wire();
            match (PublishBatchView::from_wire(&wire).unwrap(), msg) {
                (Some(view), Message::PublishBatch { items }) => {
                    assert_eq!(view.len(), items.len());
                    assert_eq!(view.map(|i| i.to_item()).collect::<Vec<_>>(), items);
                }
                (view, msg) => {
                    assert!(view.is_none() && msg.kind() != "publish-batch", "{}", msg.kind())
                }
            }
        }
        assert!(PublishBatchView::from_wire(&[]).unwrap().is_none());
    }

    #[test]
    fn oversized_batches_are_refused_by_the_encoder() {
        let empty = PublishItemRef { header_ct: &[], epoch: KeyEpoch(0), payload_ct: &[] };
        let mut out = Vec::new();
        assert!(encode_publish_batch(std::iter::repeat_n(empty, MAX_BATCH_ITEMS), &mut out).is_ok());
        assert!(encode_publish_batch(std::iter::repeat_n(empty, MAX_BATCH_ITEMS + 1), &mut out)
            .is_err());
        let huge = vec![0u8; MAX_FRAME];
        let big = PublishItemRef { header_ct: &huge, epoch: KeyEpoch(0), payload_ct: &[] };
        assert!(encode_publish_batch([big], &mut out).is_err());
    }
}
