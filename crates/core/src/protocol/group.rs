//! Group-key management for payload encryption.
//!
//! Publication *payloads* are opaque to SCBR: they are encrypted under a
//! symmetric group key shared between the producer and its current
//! clients, never by the router (§3.4). Rotating the key on membership
//! change ("rekeying") cuts off clients that cancelled or were revoked —
//! they can still receive forwarded ciphertexts but cannot read them.
//!
//! Key distribution seals each epoch key individually under the
//! [`PairwiseKey`] of each member it is sent to, which the producer's
//! [`ClientDirectory`] holds. (The paper scopes smarter group-key schemes out; this is the
//! straightforward realisation.)

use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch};
use crate::protocol::admission::ClientDirectory;
use crate::protocol::keys::PairwiseKey;
use scbr_crypto::ctr::SymmetricKey;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::SealedBox;
use std::collections::{BTreeSet, HashMap};

/// Producer-side group-key state.
pub struct GroupKeyManager {
    epoch: KeyEpoch,
    current: SymmetricKey,
    members: BTreeSet<ClientId>,
}

impl std::fmt::Debug for GroupKeyManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the current epoch key; epoch + membership suffice.
        f.debug_struct("GroupKeyManager")
            .field("epoch", &self.epoch)
            .field("members", &self.members.len())
            .finish()
    }
}

impl GroupKeyManager {
    /// Creates a manager at epoch 0 with a fresh key and no members.
    pub fn new(rng: &mut CryptoRng) -> Self {
        GroupKeyManager {
            epoch: KeyEpoch::default(),
            current: SymmetricKey::generate(rng),
            members: BTreeSet::new(),
        }
    }

    /// Current members, in id order.
    pub fn members(&self) -> Vec<ClientId> {
        self.members.iter().copied().collect()
    }

    /// Adds a member; call [`GroupKeyManager::rekey`] afterwards if forward
    /// secrecy against the new member is wanted for *past* messages (new
    /// members cannot read earlier epochs anyway unless handed old keys).
    pub fn add_member(&mut self, id: ClientId) {
        self.members.insert(id);
    }

    /// Removes a member. Until the next [`GroupKeyManager::rekey`] the
    /// removed client can still read the *current* epoch.
    pub fn remove_member(&mut self, id: ClientId) -> bool {
        self.members.remove(&id)
    }

    /// Rotates to a fresh key and a new epoch.
    pub fn rekey(&mut self, rng: &mut CryptoRng) -> KeyEpoch {
        self.epoch = self.epoch.next();
        self.current = SymmetricKey::generate(rng);
        self.epoch
    }

    /// Encrypts a payload under the current epoch key. Returns the epoch to
    /// stamp on the publication.
    pub fn encrypt_payload(&self, payload: &[u8], rng: &mut CryptoRng) -> (KeyEpoch, Vec<u8>) {
        let sealed = SealedBox::new(&self.current).seal(payload, &self.epoch.0.to_be_bytes(), rng);
        (self.epoch, sealed)
    }

    /// Seals the current epoch key for `client` under the pairwise key
    /// `directory` holds for it; `None` when `client` is not a member or
    /// the directory does not know it.
    pub fn key_update(
        &self,
        client: ClientId,
        directory: &ClientDirectory,
        rng: &mut CryptoRng,
    ) -> Option<Vec<u8>> {
        if !self.members.contains(&client) {
            return None;
        }
        let key = directory.get(client)?.pairwise_key();
        Some(key.seal_key_update(self.epoch, &self.current, rng))
    }
}

/// Client-side store of received group keys.
#[derive(Default)]
pub struct GroupKeyStore {
    keys: HashMap<KeyEpoch, SymmetricKey>,
}

impl std::fmt::Debug for GroupKeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print which epochs are held, never the key material.
        let mut epochs: Vec<_> = self.keys.keys().copied().collect();
        epochs.sort_unstable_by_key(|e| e.0);
        f.debug_struct("GroupKeyStore").field("epochs", &epochs).finish()
    }
}

impl GroupKeyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GroupKeyStore::default()
    }

    /// Ingests a wrapped key update addressed to this client, whose
    /// pairwise key is `key`.
    ///
    /// # Errors
    ///
    /// Crypto failures when the update was sealed for another client.
    pub fn ingest_update(
        &mut self,
        key: &PairwiseKey,
        wrapped: &[u8],
    ) -> Result<KeyEpoch, ScbrError> {
        let (epoch, group_key) = key.open_key_update(wrapped)?;
        self.keys.insert(epoch, group_key);
        Ok(epoch)
    }

    /// Decrypts a payload stamped with `epoch`.
    ///
    /// # Errors
    ///
    /// [`ScbrError::MissingKeys`] when this client never received that
    /// epoch's key (e.g. it was revoked before the rekey), or crypto errors
    /// on tampering.
    pub fn open_payload(&self, epoch: KeyEpoch, sealed: &[u8]) -> Result<Vec<u8>, ScbrError> {
        let key =
            self.keys.get(&epoch).ok_or(ScbrError::MissingKeys { which: "group key epoch" })?;
        Ok(SealedBox::new(key).open(sealed, &epoch.0.to_be_bytes())?)
    }

    /// Number of epochs held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key has been received yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::keys::ProducerCrypto;
    use scbr_crypto::x25519::X25519Secret;

    /// A producer's directory with clients `ids` admitted, and each
    /// client's own derivation of its pairwise key.
    fn admitted(seed: u64, ids: &[u64]) -> (ClientDirectory, Vec<PairwiseKey>) {
        let mut rng = CryptoRng::from_seed(seed);
        let producer = ProducerCrypto::new(&mut rng);
        let mut directory = ClientDirectory::new();
        let keys = ids
            .iter()
            .map(|&id| {
                let secret = X25519Secret::generate(&mut rng);
                let key = producer.pairwise_key(ClientId(id), secret.public_key()).unwrap();
                directory.admit(ClientId(id), key);
                PairwiseKey::for_client(&secret, ClientId(id), producer.public_key()).unwrap()
            })
            .collect();
        (directory, keys)
    }

    #[test]
    fn member_receives_and_reads_payload() {
        let mut rng = CryptoRng::from_seed(1);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, alice) = admitted(100, &[1]);
        mgr.add_member(ClientId(1));

        let mut store = GroupKeyStore::new();
        let wrapped = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        store.ingest_update(&alice[0], &wrapped).unwrap();
        // A client outside the group is sealed nothing.
        assert!(mgr.key_update(ClientId(2), &directory, &mut rng).is_none());
        let (epoch, sealed) = mgr.encrypt_payload(b"quote body", &mut rng);
        assert_eq!(store.open_payload(epoch, &sealed).unwrap(), b"quote body");
    }

    #[test]
    fn revoked_member_loses_new_epochs() {
        let mut rng = CryptoRng::from_seed(2);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, keys) = admitted(101, &[1, 2]);
        mgr.add_member(ClientId(1));
        mgr.add_member(ClientId(2));

        let mut alice_store = GroupKeyStore::new();
        let mut bob_store = GroupKeyStore::new();
        for (id, store) in [(1, &mut alice_store), (2, &mut bob_store)] {
            let wrapped = mgr.key_update(ClientId(id), &directory, &mut rng).unwrap();
            store.ingest_update(&keys[id as usize - 1], &wrapped).unwrap();
        }
        // Bob cancels; producer rekeys and distributes to remaining members.
        mgr.remove_member(ClientId(2));
        mgr.rekey(&mut rng);
        assert!(mgr.key_update(ClientId(2), &directory, &mut rng).is_none(), "bob gets nothing");
        let wrapped = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        alice_store.ingest_update(&keys[0], &wrapped).unwrap();
        let (epoch, sealed) = mgr.encrypt_payload(b"fresh data", &mut rng);
        assert_eq!(alice_store.open_payload(epoch, &sealed).unwrap(), b"fresh data");
        assert!(matches!(
            bob_store.open_payload(epoch, &sealed),
            Err(ScbrError::MissingKeys { .. })
        ));
    }

    #[test]
    fn old_epoch_remains_readable_by_old_members() {
        let mut rng = CryptoRng::from_seed(3);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, bob) = admitted(103, &[2]);
        mgr.add_member(ClientId(2));
        let mut bob_store = GroupKeyStore::new();
        let wrapped = mgr.key_update(ClientId(2), &directory, &mut rng).unwrap();
        bob_store.ingest_update(&bob[0], &wrapped).unwrap();
        let (old_epoch, old_sealed) = mgr.encrypt_payload(b"old", &mut rng);
        mgr.remove_member(ClientId(2));
        mgr.rekey(&mut rng);
        // Bob keeps access to what he legitimately received.
        assert_eq!(bob_store.open_payload(old_epoch, &old_sealed).unwrap(), b"old");
    }

    /// An update sealed for Alice does not ingest at Bob, though both
    /// are admitted members of the same producer.
    #[test]
    fn wrong_client_cannot_ingest_update() {
        let mut rng = CryptoRng::from_seed(4);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, keys) = admitted(104, &[1, 2]);
        mgr.add_member(ClientId(1));
        let update = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        assert!(mgr.key_update(ClientId(2), &directory, &mut rng).is_none(), "bob is no member");
        let mut bob_store = GroupKeyStore::new();
        assert!(bob_store.ingest_update(&keys[1], &update).is_err());
        assert!(bob_store.is_empty());
        assert!(GroupKeyStore::new().ingest_update(&keys[0], &update).is_ok());
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut rng = CryptoRng::from_seed(5);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, alice) = admitted(106, &[1]);
        mgr.add_member(ClientId(1));
        let mut store = GroupKeyStore::new();
        let wrapped = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        store.ingest_update(&alice[0], &wrapped).unwrap();
        let (epoch, mut sealed) = mgr.encrypt_payload(b"data", &mut rng);
        sealed[10] ^= 1;
        assert!(store.open_payload(epoch, &sealed).is_err());
    }

    #[test]
    fn epochs_are_isolated() {
        let mut rng = CryptoRng::from_seed(6);
        let mut mgr = GroupKeyManager::new(&mut rng);
        let (directory, alice) = admitted(107, &[1]);
        mgr.add_member(ClientId(1));
        let mut store = GroupKeyStore::new();
        let wrapped = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        store.ingest_update(&alice[0], &wrapped).unwrap();
        let (e0, sealed0) = mgr.encrypt_payload(b"zero", &mut rng);
        mgr.rekey(&mut rng);
        let wrapped = mgr.key_update(ClientId(1), &directory, &mut rng).unwrap();
        store.ingest_update(&alice[0], &wrapped).unwrap();
        // A payload from epoch 1 cannot be opened claiming epoch 0.
        let (e1, sealed1) = mgr.encrypt_payload(b"one", &mut rng);
        assert_ne!(e0, e1);
        assert!(store.open_payload(e0, &sealed1).is_err());
        assert_eq!(store.open_payload(e0, &sealed0).unwrap(), b"zero");
        assert_eq!(store.open_payload(e1, &sealed1).unwrap(), b"one");
        assert_eq!(store.len(), 2);
    }
}
