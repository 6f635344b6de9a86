//! The client role: subscribes through the producer, receives deliveries
//! from the router, and decrypts payloads with group keys.

use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch, SubscriptionId};
use crate::protocol::group::GroupKeyStore;
use crate::protocol::keys::PairwiseKey;
use crate::protocol::messages::Message;
use crate::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::{X25519Secret, KEY_LEN};
use scbr_net::Connection;
use std::time::Duration;

/// A decrypted delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The group-key epoch the payload was encrypted under.
    pub epoch: KeyEpoch,
    /// The decrypted payload.
    pub payload: Vec<u8>,
}

/// A synchronous SCBR client.
///
/// Owns two connections: to the producer (subscriptions, key updates) and
/// to the router (deliveries). Methods drain key updates opportunistically
/// as they arrive interleaved with other traffic.
pub struct ClientNode {
    id: ClientId,
    /// `X_c`, handed to the producer at admission.
    public_key: [u8; KEY_LEN],
    /// `K_c`, agreed with the producer's key when the client connects.
    pairwise_key: PairwiseKey,
    /// The number of this client's latest submission; the producer
    /// refuses one that does not rise above it.
    seq: u64,
    keys: GroupKeyStore,
    producer: Box<dyn Connection>,
    router: Box<dyn Connection>,
    rng: CryptoRng,
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("id", &self.id)
            .field("epochs_held", &self.keys.len())
            .finish()
    }
}

impl ClientNode {
    /// Creates a client with a fresh X25519 key (32 bytes of `rng`),
    /// agrees its pairwise key with `producer_key` (the producer's
    /// [`crate::protocol::keys::ProducerCrypto::public_key`], obtained
    /// at signup) and announces the client on both connections.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] when `producer_key` is a low-order point;
    /// transport failures.
    pub fn connect(
        id: ClientId,
        producer_key: &[u8; KEY_LEN],
        producer: Box<dyn Connection>,
        router: Box<dyn Connection>,
        mut rng: CryptoRng,
    ) -> Result<Self, ScbrError> {
        let secret = X25519Secret::generate(&mut rng);
        let pairwise_key = PairwiseKey::for_client(&secret, id, producer_key)?;
        let hello = Message::Hello { client: id };
        producer.send(&hello.to_wire())?;
        router.send(&hello.to_wire())?;
        Ok(ClientNode {
            id,
            public_key: *secret.public_key(),
            pairwise_key,
            seq: 0,
            keys: GroupKeyStore::new(),
            producer,
            router,
            rng,
        })
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The X25519 public key the producer should be given at admission
    /// time.
    pub fn public_key(&self) -> &[u8; KEY_LEN] {
        &self.public_key
    }

    /// Submits a subscription (protocol step 1) and waits for the verdict.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotAdmitted`] when rejected; transport/crypto failures
    /// otherwise.
    pub fn subscribe(
        &mut self,
        spec: &SubscriptionSpec,
        timeout: Duration,
    ) -> Result<SubscriptionId, ScbrError> {
        self.seq += 1;
        let ct = self.pairwise_key.seal_subscription(self.seq, spec, &mut self.rng);
        let msg = Message::SubmitSubscription { client: self.id, encrypted_subscription: ct };
        self.producer.send(&msg.to_wire())?;
        // Wait for the verdict, stashing any interleaved key updates.
        self.await_producer_reply(timeout, |msg| match msg {
            Message::SubscriptionAccepted { id } => Ok(Some(id)),
            Message::SubscriptionRejected { reason } => {
                Err(ScbrError::UnexpectedMessage { got: format!("rejected: {reason}") })
            }
            other => Err(ScbrError::UnexpectedMessage { got: other.kind().to_owned() }),
        })
    }

    /// Retires one of this client's subscriptions and waits for the
    /// producer's confirmation. The request carries a tag under the
    /// client's pairwise key so nobody else can shed this client's
    /// interest.
    ///
    /// # Errors
    ///
    /// [`ScbrError::UnexpectedMessage`] when the producer rejects the
    /// request (not admitted, bad tag, not the owner) or the wait times
    /// out; transport/crypto failures otherwise.
    pub fn unsubscribe(&mut self, id: SubscriptionId, timeout: Duration) -> Result<(), ScbrError> {
        let tag = self.pairwise_key.unsubscribe_tag(self.id, id, &mut self.rng);
        let msg = Message::Unsubscribe { client: self.id, id, tag };
        self.producer.send(&msg.to_wire())?;
        self.await_producer_reply(timeout, |msg| match msg {
            Message::Unsubscribed { id: got } if got == id => Ok(Some(())),
            Message::Error { message } => {
                Err(ScbrError::UnexpectedMessage { got: format!("rejected: {message}") })
            }
            other => Err(ScbrError::UnexpectedMessage { got: other.kind().to_owned() }),
        })
    }

    /// Blocks on the producer connection until `judge` resolves the reply,
    /// ingesting any key updates that arrive interleaved with it. `judge`
    /// returns `Ok(Some(_))` on the terminal message, `Ok(None)` to keep
    /// waiting, or an error to abort.
    ///
    /// The client runs on the untrusted host, so the deadline is real wall
    /// time bounding a real network wait — the enclave's virtual clock has
    /// no business here.
    // lint: allow(SL01, host-side client bounding a network wait with wall time)
    fn await_producer_reply<T>(
        &mut self,
        timeout: Duration,
        mut judge: impl FnMut(Message) -> Result<Option<T>, ScbrError>,
    ) -> Result<T, ScbrError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let Some(frame) = self.producer.recv_timeout(remaining)? else {
                return Err(ScbrError::UnexpectedMessage { got: "timeout".into() });
            };
            match Message::from_wire(&frame)? {
                Message::KeyUpdate { wrapped } => {
                    let _ = self.keys.ingest_update(&self.pairwise_key, &wrapped);
                }
                other => {
                    if let Some(done) = judge(other)? {
                        return Ok(done);
                    }
                }
            }
        }
    }

    /// Waits for the next delivery from the router and decrypts it.
    ///
    /// Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`ScbrError::MissingKeys`] when the payload's epoch key was never
    /// received (e.g. after revocation); transport or crypto failures
    /// otherwise.
    pub fn poll_delivery(&mut self, timeout: Duration) -> Result<Option<Delivery>, ScbrError> {
        self.drain_key_updates(Duration::from_millis(0))?;
        let Some(frame) = self.router.recv_timeout(timeout)? else {
            return Ok(None);
        };
        match Message::from_wire(&frame)? {
            Message::Deliver { epoch, payload_ct } => {
                let payload = self.keys.open_payload(epoch, &payload_ct)?;
                Ok(Some(Delivery { epoch, payload }))
            }
            other => Err(ScbrError::UnexpectedMessage { got: other.kind().to_owned() }),
        }
    }

    /// Like [`ClientNode::poll_delivery`] but returns the raw ciphertext
    /// without requiring the group key (what a revoked client still sees).
    ///
    /// # Errors
    ///
    /// Transport or decoding failures.
    // lint: allow(SL08, revoked_client_cannot_read_new_payloads in tests/end_to_end.rs)
    pub fn poll_delivery_raw(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(KeyEpoch, Vec<u8>)>, ScbrError> {
        let Some(frame) = self.router.recv_timeout(timeout)? else {
            return Ok(None);
        };
        match Message::from_wire(&frame)? {
            Message::Deliver { epoch, payload_ct } => Ok(Some((epoch, payload_ct))),
            other => Err(ScbrError::UnexpectedMessage { got: other.kind().to_owned() }),
        }
    }

    /// Drains pending key updates from the producer connection.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn drain_key_updates(&mut self, timeout: Duration) -> Result<usize, ScbrError> {
        let mut n = 0;
        while let Some(frame) = self.producer.recv_timeout(timeout)? {
            if let Ok(Message::KeyUpdate { wrapped }) = Message::from_wire(&frame) {
                if self.keys.ingest_update(&self.pairwise_key, &wrapped).is_ok() {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Number of group-key epochs this client can decrypt.
    pub fn epochs_held(&self) -> usize {
        self.keys.len()
    }
}
