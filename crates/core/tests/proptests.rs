//! Property-based tests of the core matching semantics and the wire codec.
//!
//! The containment relation is the engine's load-bearing invariant: if
//! `covers` ever lied, the poset would silently drop matches. These
//! properties pin it down against randomly generated subscriptions and
//! headers.

use proptest::prelude::*;
use scbr::attr::AttrSchema;
use scbr::ids::{ClientId, KeyEpoch, SubscriptionId};
use scbr::predicate::Op;
use scbr::protocol::messages::{encode_publish_batch, Message, PublishBatchView, PublishItem};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr::value::Value;

const ATTRS: [&str; 4] = ["price", "volume", "size", "symbol"];
const SYMBOLS: [&str; 3] = ["HAL", "IBM", "AMD"];

#[derive(Debug, Clone)]
struct RawPred {
    attr: usize,
    op: u8,
    num: f64,
    sym: usize,
}

fn pred_strategy() -> impl Strategy<Value = RawPred> {
    (0usize..ATTRS.len(), 0u8..5, -50.0f64..150.0, 0usize..SYMBOLS.len())
        .prop_map(|(attr, op, num, sym)| RawPred { attr, op, num, sym })
}

/// Builds a spec from raw predicates, skipping combinations the API
/// rejects (contradictions are filtered by retrying compile).
fn build_spec(preds: &[RawPred]) -> SubscriptionSpec {
    let mut spec = SubscriptionSpec::new();
    let mut used = std::collections::HashSet::new();
    for p in preds {
        let attr = ATTRS[p.attr];
        if !used.insert(attr) {
            continue; // one predicate per attribute: avoids contradictions
        }
        if attr == "symbol" {
            spec = spec.eq(attr, SYMBOLS[p.sym]);
        } else {
            let op = match p.op {
                0 => Op::Eq,
                1 => Op::Lt,
                2 => Op::Le,
                3 => Op::Gt,
                _ => Op::Ge,
            };
            spec = spec.with(attr, op, Value::Float(p.num));
        }
    }
    spec
}

fn build_header(
    schema: &AttrSchema,
    values: &[f64],
    sym: usize,
) -> scbr::publication::CompiledHeader {
    PublicationSpec::new()
        .attr("price", values[0])
        .attr("volume", values[1])
        .attr("size", values[2])
        .attr("symbol", SYMBOLS[sym])
        .compile_header(schema)
        .expect("header compiles")
}

/// One message of every wire variant, its fields drawn from `a`, `b`, `n`.
fn every_variant(a: &[u8], b: &[u8], n: u64) -> Vec<Message> {
    let text = String::from_utf8_lossy(a).into_owned();
    let item = |header: &[u8], payload: &[u8]| PublishItem {
        header_ct: header.to_vec(),
        epoch: KeyEpoch(n),
        payload_ct: payload.to_vec(),
    };
    vec![
        Message::SubmitSubscription { client: ClientId(n), encrypted_subscription: a.to_vec() },
        Message::SubscriptionAccepted { id: SubscriptionId(n) },
        Message::SubscriptionRejected { reason: text.clone() },
        Message::Register { envelope: a.to_vec() },
        Message::RegisterAck { id: SubscriptionId(n) },
        Message::Unsubscribe { client: ClientId(n), id: SubscriptionId(!n), tag: b.to_vec() },
        Message::Unsubscribed { id: SubscriptionId(n) },
        Message::Unregister { envelope: b.to_vec() },
        Message::UnregisterAck { id: SubscriptionId(n) },
        Message::PublishBatch { items: vec![item(a, b), item(b, &[]), item(&[], a)] },
        Message::Deliver { epoch: KeyEpoch(n), payload_ct: b.to_vec() },
        Message::KeyUpdate { wrapped: a.to_vec() },
        Message::Hello { client: ClientId(n) },
        Message::LinkQuote { payload: a.to_vec() },
        Message::LinkAccept { payload: b.to_vec() },
        Message::LinkFinish { payload: a.to_vec() },
        Message::SubForward { envelope: b.to_vec() },
        Message::SubRemove { envelope: a.to_vec() },
        Message::ReplayRequest,
        Message::ReplayDone { count: n as u32 },
        Message::SubDrop { id: SubscriptionId(n) },
        Message::Heartbeat,
        Message::Error { message: text },
        Message::Shutdown,
    ]
}

proptest! {
    /// covers is reflexive on canonical forms.
    #[test]
    fn covers_is_reflexive(preds in proptest::collection::vec(pred_strategy(), 0..4)) {
        let schema = AttrSchema::new();
        if let Ok(c) = build_spec(&preds).compile(&schema) {
            prop_assert!(c.covers(&c));
        }
    }

    /// The semantic definition: a.covers(b) implies every header matching
    /// b also matches a.
    #[test]
    fn covers_implies_match_subset(
        a_preds in proptest::collection::vec(pred_strategy(), 0..4),
        b_preds in proptest::collection::vec(pred_strategy(), 0..4),
        headers in proptest::collection::vec((proptest::collection::vec(-60.0f64..160.0, 3), 0usize..3), 1..20),
    ) {
        let schema = AttrSchema::new();
        let (Ok(a), Ok(b)) = (build_spec(&a_preds).compile(&schema), build_spec(&b_preds).compile(&schema)) else {
            return Ok(());
        };
        if a.covers(&b) {
            for (values, sym) in &headers {
                let h = build_header(&schema, values, *sym);
                if b.matches(&h) {
                    prop_assert!(a.matches(&h), "b matched {values:?}/{sym} but a did not");
                }
            }
        }
    }

    /// covers is transitive.
    #[test]
    fn covers_is_transitive(
        a_preds in proptest::collection::vec(pred_strategy(), 0..3),
        b_preds in proptest::collection::vec(pred_strategy(), 0..3),
        c_preds in proptest::collection::vec(pred_strategy(), 0..3),
    ) {
        let schema = AttrSchema::new();
        let (Ok(a), Ok(b), Ok(c)) = (
            build_spec(&a_preds).compile(&schema),
            build_spec(&b_preds).compile(&schema),
            build_spec(&c_preds).compile(&schema),
        ) else {
            return Ok(());
        };
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    /// Mutual covering means identical matching behaviour (canonical
    /// equality), and fingerprints agree.
    #[test]
    fn mutual_covering_is_equality(
        a_preds in proptest::collection::vec(pred_strategy(), 0..4),
        b_preds in proptest::collection::vec(pred_strategy(), 0..4),
    ) {
        let schema = AttrSchema::new();
        let (Ok(a), Ok(b)) = (build_spec(&a_preds).compile(&schema), build_spec(&b_preds).compile(&schema)) else {
            return Ok(());
        };
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(&a, &b, "mutual covering implies canonical equality");
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    /// The empty subscription covers everything and matches everything.
    #[test]
    fn top_covers_all(preds in proptest::collection::vec(pred_strategy(), 0..4),
                      values in proptest::collection::vec(-60.0f64..160.0, 3),
                      sym in 0usize..3) {
        let schema = AttrSchema::new();
        let top = SubscriptionSpec::new().compile(&schema).expect("empty compiles");
        if let Ok(c) = build_spec(&preds).compile(&schema) {
            prop_assert!(top.covers(&c));
        }
        prop_assert!(top.matches(&build_header(&schema, &values, sym)));
    }

    /// Wire round-trip: any buildable spec encodes and decodes losslessly.
    #[test]
    fn codec_round_trip(preds in proptest::collection::vec(pred_strategy(), 0..6)) {
        let spec = build_spec(&preds);
        let bytes = scbr::codec::encode_subscription(&spec);
        prop_assert_eq!(scbr::codec::decode_subscription(&bytes).unwrap(), spec);
    }

    /// Decoding never panics on arbitrary bytes.
    #[test]
    fn codec_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = scbr::codec::decode_subscription(&bytes);
        let _ = scbr::codec::decode_header(&bytes);
        let _ = scbr::codec::decode_registration(&bytes);
        let _ = scbr::protocol::messages::Message::from_wire(&bytes);
    }

    /// Every variant round-trips. Cutting its encoding at any offset is an
    /// error, and so is a trailing byte; flipping any one byte either
    /// fails or decodes to a message that re-encodes to exactly the
    /// flipped bytes. Nothing panics.
    #[test]
    fn wire_mutation_is_safe(a in proptest::collection::vec(any::<u8>(), 0..48),
                             b in proptest::collection::vec(any::<u8>(), 0..48),
                             n in any::<u64>(),
                             flip in any::<u64>(),
                             mask in 1u8..=255) {
        for msg in every_variant(&a, &b, n) {
            let wire = msg.to_wire();
            prop_assert_eq!(&Message::from_wire(&wire).unwrap(), &msg);
            for cut in 0..wire.len() {
                prop_assert!(Message::from_wire(&wire[..cut]).is_err(), "{} cut at {}", msg.kind(), cut);
            }
            let mut longer = wire.clone();
            longer.push(0);
            prop_assert!(Message::from_wire(&longer).is_err());
            let mut flipped = wire.clone();
            flipped[(flip % wire.len() as u64) as usize] ^= mask;
            if let Ok(decoded) = Message::from_wire(&flipped) {
                prop_assert_eq!(decoded.to_wire(), flipped);
            }
        }
    }

    /// On every valid batch the borrowed view reads what `from_wire`
    /// reads, and encoding from the view reproduces the wire.
    #[test]
    fn wire_round_trip(items in proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 0..64), any::<u64>(),
         proptest::collection::vec(any::<u8>(), 0..64)), 0..24)) {
        let items: Vec<PublishItem> = items
            .into_iter()
            .map(|(header_ct, epoch, payload_ct)| PublishItem { header_ct, epoch: KeyEpoch(epoch), payload_ct })
            .collect();
        let msg = Message::PublishBatch { items: items.clone() };
        let wire = msg.to_wire();
        prop_assert_eq!(Message::from_wire(&wire).unwrap(), msg);
        let view = PublishBatchView::from_wire(&wire).unwrap().expect("a publish batch");
        prop_assert_eq!(view.len(), items.len());
        prop_assert_eq!(view.clone().map(|i| i.to_item()).collect::<Vec<_>>(), items);
        let mut again = Vec::new();
        encode_publish_batch(view, &mut again).unwrap();
        prop_assert_eq!(again, wire);
    }

    /// The batch parser behind the view never panics on an arbitrary
    /// `publish-batch` body, and what it accepts re-encodes exactly.
    #[test]
    fn publish_batch_decoder_never_panics(count in 0u32..4,
                                          body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut wire = Message::PublishBatch { items: vec![] }.to_wire();
        wire.truncate(1);
        wire.extend_from_slice(&count.to_be_bytes());
        wire.extend_from_slice(&body);
        if let Ok(Some(view)) = PublishBatchView::from_wire(&wire) {
            let mut again = Vec::new();
            encode_publish_batch(view, &mut again).unwrap();
            prop_assert_eq!(again, wire);
        }
    }
}
