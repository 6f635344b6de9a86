//! Group-key lifecycle (§3.4): payloads are encrypted under a rotating
//! group key the router never sees; revoking a client and rekeying cuts it
//! off from *new* messages while past ones stay readable. Each epoch key
//! reaches a member sealed under the pairwise key it agreed with the
//! producer at admission. Exits nonzero if the revoked client reads a
//! quote published after its revocation.
//!
//! ```text
//! cargo run --example revocation
//! ```

use scbr::ids::ClientId;
use scbr::protocol::admission::ClientDirectory;
use scbr::protocol::group::{GroupKeyManager, GroupKeyStore};
use scbr::protocol::keys::{PairwiseKey, ProducerCrypto};
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::x25519::X25519Secret;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = CryptoRng::from_seed(1);
    let producer = ProducerCrypto::generate(512, &mut rng)?;
    let mut directory = ClientDirectory::new();
    let mut group = GroupKeyManager::new(&mut rng);

    // Two paying clients with their own X25519 keys; admitting each
    // agrees its pairwise key (the producer's copy lives in the directory).
    let mut admit = |id: ClientId| -> Result<PairwiseKey, Box<dyn std::error::Error>> {
        let secret = X25519Secret::generate(&mut rng);
        directory.admit(id, producer.pairwise_key(id, secret.public_key())?);
        group.add_member(id);
        Ok(PairwiseKey::for_client(&secret, id, producer.exchange_key())?)
    };
    let alice_key = admit(ClientId(1))?;
    let bob_key = admit(ClientId(2))?;

    let mut alice = GroupKeyStore::new();
    let mut bob = GroupKeyStore::new();
    for (client, wrapped) in group.key_updates(&directory, &mut rng) {
        match client {
            ClientId(1) => alice.ingest_update(&alice_key, &wrapped)?,
            _ => bob.ingest_update(&bob_key, &wrapped)?,
        };
    }
    println!("epoch {}: both members hold the group key", group.epoch());

    let (epoch0, quote1) = group.encrypt_payload(b"HAL 49.75 +0.3%", &mut rng);
    println!("  alice reads: {:?}", String::from_utf8_lossy(&alice.open_payload(epoch0, &quote1)?));
    println!("  bob reads:   {:?}", String::from_utf8_lossy(&bob.open_payload(epoch0, &quote1)?));

    // Bob stops paying: revoke + rekey + redistribute.
    println!("\nbob's subscription lapses: revoking and rotating the key …");
    directory.revoke(ClientId(2))?;
    group.remove_member(ClientId(2));
    group.rekey(&mut rng);
    for (client, wrapped) in group.key_updates(&directory, &mut rng) {
        assert_eq!(client, ClientId(1));
        alice.ingest_update(&alice_key, &wrapped)?;
        // The update is sealed for alice alone.
        if bob.ingest_update(&bob_key, &wrapped).is_ok() {
            return Err("bob ingested a key update sealed for alice".into());
        }
    }

    let (epoch1, quote2) = group.encrypt_payload(b"HAL 51.20 +2.9%", &mut rng);
    println!("epoch {}: new quote published", group.epoch());
    println!("  alice reads: {:?}", String::from_utf8_lossy(&alice.open_payload(epoch1, &quote2)?));
    match bob.open_payload(epoch1, &quote2) {
        Ok(_) => return Err("bob decrypted a quote published after his revocation".into()),
        Err(e) => println!("  bob reads:   ✗ cannot decrypt ({e})"),
    }
    // …but bob keeps what he legitimately received.
    println!(
        "  bob re-reads the old quote: {:?} (history stays readable)",
        String::from_utf8_lossy(&bob.open_payload(epoch0, &quote1)?)
    );
    Ok(())
}
