//! World-chat-style push-notification fan-out workload.
//!
//! Models the load profile of a large chat/notification service routed
//! through content-based pub/sub — the regime the million-subscriber
//! bench (`bench/src/bin/million.rs`) drives:
//!
//! * **Per-user subscriptions.** Each user follows a handful of topics
//!   (channels) with a minimum-priority threshold:
//!   `topic = "t<k>" ∧ priority ≥ p`. Thresholds over one topic nest, so
//!   hot topics grow the deep containment chains the poset index prunes.
//! * **Zipf topics.** Topic popularity follows a Zipf law (exponent
//!   `s ≈ 1`): a few world channels dominate both subscription interest
//!   and publication traffic, mirroring the paper's `z100` datasets.
//!
//! Everything is deterministic per seed, so benchmarks and equivalence
//! tests can replay identical streams against the forest and its oracle.

use crate::zipf::Zipf;
use scbr::ids::{ClientId, SubscriptionId};
use scbr::publication::PublicationSpec;
use scbr::subscription::SubscriptionSpec;
use scbr_crypto::rng::CryptoRng;

/// Shape of the push-notification workload.
#[derive(Debug, Clone)]
pub struct PushFeedConfig {
    /// Distinct users; each owns `subs_per_user` subscriptions.
    pub users: usize,
    /// Distinct topics (chat channels), rank 0 the hottest.
    pub topics: usize,
    /// Subscriptions per user.
    pub subs_per_user: usize,
    /// Zipf exponent for topic popularity (1.0 = the paper's `z100`).
    pub zipf_s: f64,
    /// Priority levels (`0..levels`); subscriptions filter `priority ≥ p`.
    pub priority_levels: u8,
}

impl PushFeedConfig {
    /// A small smoke-test shape (~3k subscriptions).
    pub fn small() -> Self {
        PushFeedConfig {
            users: 1_000,
            topics: 100,
            subs_per_user: 3,
            zipf_s: 1.0,
            priority_levels: 4,
        }
    }

    /// Scales the user count so the workload carries `total` live
    /// subscriptions (the bench's sweep axis).
    pub fn with_total_subscriptions(total: usize) -> Self {
        let mut cfg = PushFeedConfig::small();
        cfg.users = total.div_ceil(cfg.subs_per_user).max(1);
        // Keep roughly 100 users per topic so hot topics stay hot without
        // collapsing the whole feed into one channel.
        cfg.topics = (cfg.users / 100).clamp(100, 50_000);
        cfg
    }

    /// Total subscriptions this config generates.
    pub fn total_subscriptions(&self) -> usize {
        self.users * self.subs_per_user
    }
}

/// Deterministic generator for the push-notification workload.
#[derive(Debug, Clone)]
pub struct PushFeed {
    cfg: PushFeedConfig,
    topic_zipf: Zipf,
}

impl PushFeed {
    /// Builds a generator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (zero topics or priority levels).
    pub fn new(cfg: PushFeedConfig) -> Self {
        assert!(cfg.priority_levels > 0, "need at least one priority level");
        let topic_zipf = Zipf::new(cfg.topics, cfg.zipf_s);
        PushFeed { cfg, topic_zipf }
    }

    /// The configuration.
    pub fn config(&self) -> &PushFeedConfig {
        &self.cfg
    }

    fn subscription_spec(&self, rng: &mut CryptoRng) -> SubscriptionSpec {
        let topic = self.topic_zipf.sample(rng);
        let p = (rng.unit_f64() * self.cfg.priority_levels as f64) as i64;
        SubscriptionSpec::new().eq("topic", format!("t{topic}").as_str()).ge("priority", p)
    }

    /// The full initial subscription set: `users × subs_per_user` rows,
    /// ids dense from 0, clients = user index.
    pub fn subscriptions(&self, seed: u64) -> Vec<(SubscriptionId, ClientId, SubscriptionSpec)> {
        let mut rng = CryptoRng::from_seed(seed);
        let mut out = Vec::with_capacity(self.cfg.total_subscriptions());
        for user in 0..self.cfg.users as u64 {
            for _ in 0..self.cfg.subs_per_user {
                let id = SubscriptionId(out.len() as u64);
                out.push((id, ClientId(user), self.subscription_spec(&mut rng)));
            }
        }
        out
    }

    fn publication_spec(&self, rng: &mut CryptoRng) -> PublicationSpec {
        let topic = self.topic_zipf.sample(rng);
        let priority = (rng.unit_f64() * self.cfg.priority_levels as f64) as i64;
        let sender = (rng.unit_f64() * self.cfg.users.max(1) as f64) as i64;
        PublicationSpec::new()
            .attr("topic", format!("t{topic}").as_str())
            .attr("priority", priority)
            .attr("sender", sender)
            .attr("len", 1 + (rng.unit_f64() * 4096.0) as i64)
    }

    /// `count` publication headers, topic-Zipf and priority-uniform.
    pub fn publications(&self, count: usize, seed: u64) -> Vec<PublicationSpec> {
        let mut rng = CryptoRng::from_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
        (0..count).map(|_| self.publication_spec(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriptions_are_deterministic_and_sized() {
        let feed = PushFeed::new(PushFeedConfig::small());
        let a = feed.subscriptions(7);
        let b = feed.subscriptions(7);
        assert_eq!(a.len(), feed.config().total_subscriptions());
        assert_eq!(a.len(), b.len());
        for ((ia, ca, sa), (ib, cb, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ca, cb);
            assert_eq!(sa, sb);
        }
        // Every subscription is topic-eq + priority-ge.
        for (_, _, spec) in &a {
            assert_eq!(spec.predicates().len(), 2);
        }
    }

    #[test]
    fn hot_topics_dominate() {
        let feed = PushFeed::new(PushFeedConfig::small());
        let subs = feed.subscriptions(11);
        let on_t0 = subs
            .iter()
            .filter(|(_, _, s)| {
                s.predicates().iter().any(|p| format!("{:?}", p.value).contains("\"t0\""))
            })
            .count();
        assert!(
            on_t0 * 10 > subs.len(),
            "rank-0 topic should hold far more than 1/{} of interest: {on_t0}/{}",
            feed.config().topics,
            subs.len()
        );
    }

    #[test]
    fn with_total_subscriptions_hits_the_target() {
        let cfg = PushFeedConfig::with_total_subscriptions(30_000);
        assert!(cfg.total_subscriptions() >= 30_000);
        assert!(cfg.total_subscriptions() < 30_000 + cfg.subs_per_user);
    }
}
