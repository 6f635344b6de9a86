//! # scbr-enclave — what the routing enclave runs
//!
//! The paper's trust argument (§3) is that only the matcher and `SK` live
//! inside the enclave. This crate is that inside: the data model
//! ([`value`], [`attr`], [`publication`], [`subscription`],
//! [`predicate`], [`codec`]), the containment poset ([`index`]), the
//! matching engine ([`engine::MatchingEngine`]) and the overlay broker's
//! core ([`broker::BrokerCore`], with [`forwarding`] and [`journal`]),
//! whose `pub` methods are the ecall table. Host code — enclave launch,
//! sockets, threads, the broker lifecycle — lives in `scbr` and
//! `scbr-overlay`, which depend on this crate and never the reverse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod broker;
pub mod codec;
pub mod engine;
pub mod error;
pub mod forwarding;
pub mod ids;
pub mod index;
pub mod journal;
pub mod predicate;
pub mod publication;
pub mod subscription;
pub mod value;

pub use error::ScbrError;
pub use subscription::CompiledSubscription;
