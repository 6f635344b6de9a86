//! Brute-force reference: which deliveries a batch must produce.
//!
//! The oracle compiles every live subscription with
//! `SubscriptionSpec::compile` and tests every publication against every
//! one of them with `CompiledSubscription::matches` — no index, no
//! covering, no overlay. A client subscribed several times at one router
//! receives a matching publication there once.

use crate::sut::Delivery;
use scbr::attr::AttrSchema;
use scbr::{ClientId, CompiledSubscription, PublicationSpec, SubscriptionId, SubscriptionSpec};
use std::collections::BTreeMap;

/// A live subscription as the oracle sees it.
#[derive(Debug, Clone)]
struct LiveSubscription {
    /// Edge router it was issued at.
    router: usize,
    /// Receiving client.
    client: ClientId,
    /// Compiled against the oracle's schema.
    compiled: CompiledSubscription,
}

/// The live subscription set and the reference matcher over it.
#[derive(Debug, Default)]
pub struct Oracle {
    schema: AttrSchema,
    live: BTreeMap<SubscriptionId, LiveSubscription>,
}

impl Oracle {
    /// An oracle with no live subscription.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Records a subscription the system admitted.
    ///
    /// # Errors
    ///
    /// A filter that does not compile.
    pub fn insert(
        &mut self,
        id: SubscriptionId,
        router: usize,
        client: ClientId,
        spec: &SubscriptionSpec,
    ) -> Result<(), String> {
        let compiled = spec.compile(&self.schema).map_err(|e| e.to_string())?;
        self.live.insert(id, LiveSubscription { router, client, compiled });
        Ok(())
    }

    /// Records a removal.
    pub fn remove(&mut self, id: SubscriptionId) {
        self.live.remove(&id);
    }

    /// The sorted delivery set publishing `publications` as one batch must
    /// produce.
    ///
    /// # Errors
    ///
    /// A publication header that does not compile.
    pub fn expected(&self, publications: &[PublicationSpec]) -> Result<Vec<Delivery>, String> {
        let mut out = Vec::new();
        for (i, publication) in publications.iter().enumerate() {
            let header = publication.compile_header(&self.schema).map_err(|e| e.to_string())?;
            for sub in self.live.values() {
                if sub.compiled.matches(&header) {
                    out.push((sub.router, sub.client.0, i));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// How many of a batch's `publications` have a delivery set in `got` that
/// differs from `expected` (both sorted).
pub fn mismatched_publications(
    expected: &[Delivery],
    got: &[Delivery],
    publications: usize,
) -> usize {
    let of = |set: &[Delivery], i: usize| -> Vec<(usize, u64)> {
        set.iter().filter(|d| d.2 == i).map(|d| (d.0, d.1)).collect()
    };
    if expected == got {
        return 0;
    }
    (0..publications).filter(|&i| of(expected, i) != of(got, i)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        let mut oracle = Oracle::new();
        let hal = SubscriptionSpec::new().eq("symbol", "HAL");
        let cheap = SubscriptionSpec::new().lt("price", 10.0);
        oracle.insert(SubscriptionId(0), 0, ClientId(7), &hal).unwrap();
        oracle.insert(SubscriptionId(1), 0, ClientId(7), &hal.clone().gt("price", 1.0)).unwrap();
        oracle.insert(SubscriptionId(2), 2, ClientId(8), &cheap).unwrap();
        oracle
    }

    fn batch() -> Vec<PublicationSpec> {
        vec![
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 5.0),
            PublicationSpec::new().attr("symbol", "IBM").attr("price", 50.0),
            PublicationSpec::new().attr("symbol", "HAL").attr("price", 50.0),
        ]
    }

    #[test]
    fn expected_set_is_sorted_and_deduplicated_per_client() {
        let mut oracle = oracle();
        // Client 7 matches publication 0 through two subscriptions: once.
        assert_eq!(oracle.expected(&batch()).unwrap(), vec![(0, 7, 0), (0, 7, 2), (2, 8, 0)]);
        oracle.remove(SubscriptionId(2));
        assert_eq!(oracle.expected(&batch()).unwrap(), vec![(0, 7, 0), (0, 7, 2)]);
    }

    #[test]
    fn a_dropped_delivery_is_caught() {
        let expected = oracle().expected(&batch()).unwrap();
        assert_eq!(mismatched_publications(&expected, &expected, 3), 0);
        let mut dropped = expected.clone();
        dropped.remove(2); // (2, 8, 0) never arrived
        assert_eq!(mismatched_publications(&expected, &dropped, 3), 1);
        let mut spurious = expected.clone();
        spurious.push((0, 9, 1));
        spurious.push((0, 9, 2));
        spurious.sort_unstable();
        assert_eq!(mismatched_publications(&expected, &spurious, 3), 2);
    }
}
