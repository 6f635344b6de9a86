//! Client admission control.
//!
//! SCBR's design gives producers the ability to "decide whether they accept
//! a subscription from a client, as well as to subsequently invalidate it"
//! (§3.3): clients pay for the service and can be suspended or excluded.
//! The producer consults this directory in protocol step 2 before
//! forwarding any subscription to a router. It is also the one place a
//! client's [`PairwiseKey`] is kept: submissions and unsubscribes are
//! opened under it, and group-key updates sealed under it
//! ([`crate::protocol::group::GroupKeyManager::key_update`]).

use crate::error::ScbrError;
use crate::ids::{ClientId, SubscriptionId};
use crate::protocol::keys::PairwiseKey;
use std::collections::HashMap;

/// A client's standing with the service provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientStatus {
    /// In good standing; subscriptions are accepted.
    Active,
    /// Barred (e.g. payment lapse): subscriptions are refused.
    Suspended,
    /// Permanently excluded.
    Revoked,
}

/// Per-client record.
#[derive(Debug, Clone)]
pub struct ClientRecord {
    status: ClientStatus,
    /// The key agreed with the client at admission.
    pairwise_key: PairwiseKey,
    /// The highest submission number issued a subscription: a replayed
    /// submission carries none above it.
    last_seq: u64,
    subscriptions: Vec<SubscriptionId>,
}

impl ClientRecord {
    /// The key agreed with the client at admission.
    pub fn pairwise_key(&self) -> &PairwiseKey {
        &self.pairwise_key
    }

    /// Subscriptions registered on behalf of this client.
    pub fn subscriptions(&self) -> &[SubscriptionId] {
        &self.subscriptions
    }
}

/// The producer's directory of known clients.
#[derive(Debug, Default)]
pub struct ClientDirectory {
    clients: HashMap<ClientId, ClientRecord>,
    next_subscription: u64,
}

impl ClientDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        ClientDirectory::default()
    }

    /// Admits a new client with the key agreed with it
    /// ([`crate::protocol::keys::ProducerCrypto::pairwise_key`]).
    pub fn admit(&mut self, id: ClientId, pairwise_key: PairwiseKey) {
        let status = ClientStatus::Active;
        let record = ClientRecord { status, pairwise_key, last_seq: 0, subscriptions: Vec::new() };
        self.clients.insert(id, record);
    }

    /// Suspends an active client.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotFound`] for unknown clients.
    pub fn suspend(&mut self, id: ClientId) -> Result<(), ScbrError> {
        let record = self.clients.get_mut(&id).ok_or(ScbrError::NotFound { what: "client" })?;
        if record.status == ClientStatus::Active {
            record.status = ClientStatus::Suspended;
        }
        Ok(())
    }

    /// Permanently revokes a client.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotFound`] for unknown clients.
    pub fn revoke(&mut self, id: ClientId) -> Result<(), ScbrError> {
        let record = self.clients.get_mut(&id).ok_or(ScbrError::NotFound { what: "client" })?;
        record.status = ClientStatus::Revoked;
        Ok(())
    }

    /// Checks that `id` may register subscriptions right now.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotAdmitted`] naming the current status.
    pub fn check_admitted(&self, id: ClientId) -> Result<&ClientRecord, ScbrError> {
        match self.clients.get(&id) {
            None => Err(ScbrError::NotAdmitted { status: "unknown" }),
            Some(r) => match r.status {
                ClientStatus::Active => Ok(r),
                ClientStatus::Suspended => Err(ScbrError::NotAdmitted { status: "suspended" }),
                ClientStatus::Revoked => Err(ScbrError::NotAdmitted { status: "revoked" }),
            },
        }
    }

    /// Records a subscription issued to an admitted client for its
    /// submission number `seq`, allocating its id.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotAdmitted`] if the client is not in good standing,
    /// [`ScbrError::InvalidSubscription`] if `seq` is not above every
    /// number the client used before: the submission is a replay.
    pub fn issue_subscription(
        &mut self,
        id: ClientId,
        seq: u64,
    ) -> Result<SubscriptionId, ScbrError> {
        self.check_admitted(id)?;
        let record = self.clients.get_mut(&id).expect("checked above");
        if seq <= record.last_seq {
            return Err(ScbrError::InvalidSubscription { reason: "replayed submission" });
        }
        record.last_seq = seq;
        let sub = SubscriptionId(self.next_subscription);
        self.next_subscription += 1;
        record.subscriptions.push(sub);
        Ok(sub)
    }

    /// Retires a subscription previously issued to `id` — the bookkeeping
    /// half of an unsubscribe. Ownership is enforced: a client can only
    /// retire its own subscriptions.
    ///
    /// # Errors
    ///
    /// [`ScbrError::NotFound`] for unknown clients or for a subscription
    /// not (or no longer) owned by this client.
    pub fn retire_subscription(
        &mut self,
        id: ClientId,
        sub: SubscriptionId,
    ) -> Result<(), ScbrError> {
        let record = self.clients.get_mut(&id).ok_or(ScbrError::NotFound { what: "client" })?;
        let pos = record
            .subscriptions
            .iter()
            .position(|s| *s == sub)
            .ok_or(ScbrError::NotFound { what: "subscription" })?;
        record.subscriptions.remove(pos);
        Ok(())
    }

    /// Looks up a client record regardless of standing.
    pub fn get(&self, id: ClientId) -> Option<&ClientRecord> {
        self.clients.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::keys::ProducerCrypto;
    use scbr_crypto::x25519::X25519Secret;
    use scbr_crypto::CryptoRng;

    fn key(rng: &mut CryptoRng) -> PairwiseKey {
        let producer = ProducerCrypto::generate(512, rng).unwrap();
        producer.pairwise_key(ClientId(1), X25519Secret::generate(rng).public_key()).unwrap()
    }

    #[test]
    fn lifecycle() {
        let mut rng = CryptoRng::from_seed(1);
        let mut dir = ClientDirectory::new();
        let c = ClientId(1);
        assert!(dir.check_admitted(c).is_err());
        dir.admit(c, key(&mut rng));
        assert!(dir.check_admitted(c).is_ok());

        dir.suspend(c).unwrap();
        assert!(matches!(
            dir.check_admitted(c),
            Err(ScbrError::NotAdmitted { status: "suspended" })
        ));

        dir.revoke(c).unwrap();
        assert!(matches!(dir.check_admitted(c), Err(ScbrError::NotAdmitted { status: "revoked" })));
    }

    #[test]
    fn unknown_client_operations_fail() {
        let mut dir = ClientDirectory::new();
        assert!(dir.suspend(ClientId(9)).is_err());
        assert!(dir.revoke(ClientId(9)).is_err());
        assert!(dir.issue_subscription(ClientId(9), 1).is_err());
    }

    #[test]
    fn subscription_issuance_tracks_ids() {
        let mut rng = CryptoRng::from_seed(2);
        let mut dir = ClientDirectory::new();
        dir.admit(ClientId(1), key(&mut rng));
        dir.admit(ClientId(2), key(&mut rng));
        let s1 = dir.issue_subscription(ClientId(1), 1).unwrap();
        let s2 = dir.issue_subscription(ClientId(2), 1).unwrap();
        let s3 = dir.issue_subscription(ClientId(1), 2).unwrap();
        assert_ne!(s1, s2);
        assert_ne!(s2, s3);
        assert_eq!(dir.get(ClientId(1)).unwrap().subscriptions(), &[s1, s3]);
        // A number already used is a replay, and issues nothing.
        for seq in [1, 2] {
            assert!(dir.issue_subscription(ClientId(1), seq).is_err(), "seq {seq} replayed");
        }
        assert_eq!(dir.get(ClientId(1)).unwrap().subscriptions(), &[s1, s3]);
    }

    #[test]
    fn retire_enforces_ownership_and_is_single_shot() {
        let mut rng = CryptoRng::from_seed(5);
        let mut dir = ClientDirectory::new();
        dir.admit(ClientId(1), key(&mut rng));
        dir.admit(ClientId(2), key(&mut rng));
        let s1 = dir.issue_subscription(ClientId(1), 1).unwrap();
        // The wrong client cannot retire someone else's subscription.
        assert!(dir.retire_subscription(ClientId(2), s1).is_err());
        assert_eq!(dir.get(ClientId(1)).unwrap().subscriptions(), &[s1]);
        // The owner can, exactly once.
        dir.retire_subscription(ClientId(1), s1).unwrap();
        assert!(dir.get(ClientId(1)).unwrap().subscriptions().is_empty());
        assert!(dir.retire_subscription(ClientId(1), s1).is_err(), "already retired");
        // Unknown clients are a clean error.
        assert!(dir.retire_subscription(ClientId(9), s1).is_err());
    }

    #[test]
    fn suspended_client_cannot_subscribe() {
        let mut rng = CryptoRng::from_seed(3);
        let mut dir = ClientDirectory::new();
        dir.admit(ClientId(1), key(&mut rng));
        dir.suspend(ClientId(1)).unwrap();
        assert!(dir.issue_subscription(ClientId(1), 1).is_err());
    }
}
