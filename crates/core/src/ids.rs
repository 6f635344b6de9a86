//! Identifier newtypes used across the SCBR protocol.

use std::fmt;

/// Identifies a client (subscriber) of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl ClientId {
    /// Top bit reserved for synthetic delivery identities that stand for
    /// an overlay link rather than an edge client. Real client ids never
    /// carry it; a broker routes a match on it to the link, not to a
    /// local client.
    pub const INTERFACE_BIT: u64 = 1 << 63;

    /// True when this id is a synthetic link-interface identity rather
    /// than a real edge client.
    pub fn is_interface(self) -> bool {
        self.0 & Self::INTERFACE_BIT != 0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Identifies a registered subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Identifies a group-key epoch for payload encryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyEpoch(pub u64);

impl KeyEpoch {
    /// The epoch after this one.
    #[must_use]
    pub fn next(self) -> KeyEpoch {
        KeyEpoch(self.0 + 1)
    }
}

impl fmt::Display for KeyEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ClientId(3).to_string(), "client#3");
        assert_eq!(SubscriptionId(9).to_string(), "sub#9");
        assert_eq!(KeyEpoch(2).to_string(), "epoch#2");
    }

    #[test]
    fn epoch_next() {
        assert_eq!(KeyEpoch::default().next(), KeyEpoch(1));
    }

    #[test]
    fn interface_bit_tags_link_identities() {
        assert!(!ClientId(3).is_interface());
        assert!(ClientId(ClientId::INTERFACE_BIT | 7).is_interface());
    }
}
