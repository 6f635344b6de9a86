//! Attribute-name interning.
//!
//! Wire messages carry attribute *names*; each matching engine interns them
//! into dense [`AttrId`]s so compiled subscriptions and headers are
//! fixed-size and comparisons are integer comparisons.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Dense identifier of an interned attribute name (engine-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

#[derive(Debug, Default)]
struct SchemaInner {
    by_name: HashMap<String, AttrId>,
    names: Vec<String>,
}

/// A shared, thread-safe attribute interning table.
///
/// Cloning shares the underlying table.
///
/// ```
/// use scbr_enclave::attr::AttrSchema;
///
/// let schema = AttrSchema::new();
/// let price = schema.intern("price");
/// assert_eq!(schema.intern("price"), price); // stable
/// assert_eq!(schema.name(price).as_deref(), Some("price"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttrSchema {
    inner: Arc<RwLock<SchemaInner>>,
}

impl AttrSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        AttrSchema::default()
    }

    /// Shared access to the table. The table only ever grows, so a
    /// poisoned lock is taken over.
    fn read(&self) -> RwLockReadGuard<'_, SchemaInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns `name`, returning its stable id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct attributes are interned
    /// (far beyond any realistic header).
    pub fn intern(&self, name: &str) -> AttrId {
        if let Some(&id) = self.read().by_name.get(name) {
            return id;
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = inner.by_name.get(name) {
            return id; // raced with another writer
        }
        let id = AttrId(u16::try_from(inner.names.len()).expect("too many attributes"));
        inner.names.push(name.to_owned());
        inner.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name without interning it: what a
    /// decoder of untrusted input uses, so that input cannot grow the
    /// table.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.read().by_name.get(name).copied()
    }

    /// The name behind an id, if valid.
    pub fn name(&self, id: AttrId) -> Option<String> {
        self.read().names.get(id.0 as usize).cloned()
    }

    /// Number of interned attributes.
    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let s = AttrSchema::new();
        let a = s.intern("alpha");
        let b = s.intern("beta");
        assert_eq!(a, AttrId(0));
        assert_eq!(b, AttrId(1));
        assert_eq!(s.intern("alpha"), a);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lookup_and_name() {
        let s = AttrSchema::new();
        assert!(s.lookup("missing").is_none());
        let id = s.intern("price");
        assert_eq!(s.lookup("price"), Some(id));
        assert_eq!(s.name(id).as_deref(), Some("price"));
        assert!(s.name(AttrId(99)).is_none());
    }

    #[test]
    fn clones_share_state() {
        let s = AttrSchema::new();
        let s2 = s.clone();
        let id = s.intern("volume");
        assert_eq!(s2.lookup("volume"), Some(id));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let s = AttrSchema::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    (0..100).map(|i| s.intern(&format!("a{i}"))).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<AttrId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(s.len(), 100);
    }
}
