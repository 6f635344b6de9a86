//! Group-key lifecycle (§3.4) on the producer's own state machine
//! ([`ProducerCore`]), with no sockets: payloads are encrypted under a
//! rotating group key the router never sees; revoking a client and
//! rekeying cuts it off from *new* messages while past ones stay
//! readable. Each epoch key reaches a member sealed under the pairwise key
//! it agreed with the producer at admission. Exits nonzero if the revoked
//! client reads a quote published after its revocation, or if a replayed
//! submission registers a second time.
//!
//! ```text
//! cargo run --example revocation
//! ```

use scbr::ids::{ClientId, KeyEpoch};
use scbr::protocol::group::GroupKeyStore;
use scbr::protocol::keys::{PairwiseKey, ProducerCrypto};
use scbr::protocol::messages::Message;
use scbr::publication::PublicationSpec;
use scbr::roles::producer::{Input, ProducerCommand, ProducerCore, To};
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::X25519Secret;
use std::error::Error;

/// A client as this example plays it: its key, its connection to the
/// producer and the group keys it has received.
struct Member {
    key: PairwiseKey,
    conn: u64,
    store: GroupKeyStore,
}

impl Member {
    /// Connects client `id` on `conn` (its `Hello`) and has the producer
    /// admit it, ingesting the group key the admission sends.
    fn admit(
        producer: &mut ProducerCore,
        producer_key: &[u8; 32],
        id: u64,
        conn: u64,
    ) -> Result<Self, Box<dyn Error>> {
        let secret = X25519Secret::generate(&mut CryptoRng::from_seed(id));
        let key = PairwiseKey::for_client(&secret, ClientId(id), producer_key)?;
        let mut out = Vec::new();
        producer
            .step(Input::Msg(To::Conn(conn), Message::Hello { client: ClientId(id) }), &mut out);
        let admit =
            ProducerCommand::Admit { client: ClientId(id), public_key: *secret.public_key() };
        producer.step(Input::Command(admit), &mut out);
        let mut member = Member { key, conn, store: GroupKeyStore::new() };
        member.ingest(&out)?;
        Ok(member)
    }

    /// Ingests the key updates `out` sends to this member's connection,
    /// returning their epochs.
    fn ingest(&mut self, out: &[(To, Message)]) -> Result<Vec<KeyEpoch>, Box<dyn Error>> {
        let mut epochs = Vec::new();
        for (to, message) in out {
            if let (To::Conn(conn), Message::KeyUpdate { wrapped }) = (to, message) {
                if *conn == self.conn {
                    epochs.push(self.store.ingest_update(&self.key, wrapped)?);
                }
            }
        }
        Ok(epochs)
    }

    /// Reads a published quote, as the payload of its one item.
    fn read(&self, published: &[(To, Message)]) -> Result<String, Box<dyn Error>> {
        let [(To::Router, Message::PublishBatch { items })] = published else {
            return Err("a quote goes to the router as one batch".into());
        };
        let payload = self.store.open_payload(items[0].epoch, &items[0].payload_ct)?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }
}

fn publish(producer: &mut ProducerCore, quote: &[u8]) -> Vec<(To, Message)> {
    let quote = PublicationSpec::new().attr("symbol", "HAL").payload(quote.to_vec());
    let mut out = Vec::new();
    producer.step(Input::Command(ProducerCommand::Publish(quote)), &mut out);
    out
}

fn main() -> Result<(), Box<dyn Error>> {
    let crypto = ProducerCrypto::new(&mut CryptoRng::from_seed(1));
    let producer_key = *crypto.public_key();
    let mut producer = ProducerCore::new(crypto, CryptoRng::from_seed(2));

    // Two paying clients with their own X25519 keys; admitting each
    // agrees its pairwise key and sends it the current group key.
    let mut alice = Member::admit(&mut producer, &producer_key, 1, 1)?;
    let mut bob = Member::admit(&mut producer, &producer_key, 2, 2)?;
    println!("epoch 0: both members hold the group key");

    // A captured submission replays into nothing: the producer has
    // already seen its number.
    let spec = SubscriptionSpec::new().eq("symbol", "HAL");
    let sealed = alice.key.seal_subscription(1, &spec, &mut CryptoRng::from_seed(3));
    let mut out = Vec::new();
    for _ in 0..2 {
        let submission = Message::SubmitSubscription {
            client: ClientId(1),
            encrypted_subscription: sealed.clone(),
        };
        producer.step(Input::Msg(To::Conn(alice.conn), submission), &mut out);
    }
    let registered = out.iter().filter(|(_, m)| matches!(m, Message::Register { .. })).count();
    if registered != 1 {
        return Err(format!("one submission sent twice registered {registered} times").into());
    }
    println!("alice's submission sent twice registers once; the replay is rejected");

    let quote1 = publish(&mut producer, b"HAL 49.75 +0.3%");
    println!("  alice reads: {:?}", alice.read(&quote1)?);
    println!("  bob reads:   {:?}", bob.read(&quote1)?);

    // Bob stops paying: revoke, which rekeys and sends the new key to
    // the remaining members alone.
    println!("\nbob's subscription lapses: revoking and rotating the key …");
    let mut rekeyed = Vec::new();
    producer.step(Input::Command(ProducerCommand::Revoke(ClientId(2))), &mut rekeyed);
    if alice.ingest(&rekeyed)? != [KeyEpoch(1)] || !bob.ingest(&rekeyed)?.is_empty() {
        return Err("the rekey reaches alice alone, once".into());
    }
    for (_, message) in &rekeyed {
        if let Message::KeyUpdate { wrapped } = message {
            if bob.store.ingest_update(&bob.key, wrapped).is_ok() {
                return Err("bob ingested a key update sealed for alice".into());
            }
        }
    }

    let quote2 = publish(&mut producer, b"HAL 51.20 +2.9%");
    println!("epoch 1: new quote published");
    println!("  alice reads: {:?}", alice.read(&quote2)?);
    match bob.read(&quote2) {
        Ok(_) => return Err("bob decrypted a quote published after his revocation".into()),
        Err(e) => println!("  bob reads:   ✗ cannot decrypt ({e})"),
    }
    // …but bob keeps what he legitimately received.
    println!("  bob re-reads the old quote: {:?} (history stays readable)", bob.read(&quote1)?);
    Ok(())
}
