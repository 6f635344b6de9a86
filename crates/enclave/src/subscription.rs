//! Subscriptions: the wire-level specification and the compiled form the
//! matching engine stores.
//!
//! A [`SubscriptionSpec`] is what clients author and what travels (encrypted)
//! through the SCBR protocol: a list of named predicates such as
//! `symbol = "HAL" ∧ price < 50`. Inside the engine it is *compiled*
//! against the engine's [`crate::attr::AttrSchema`] into a
//! [`CompiledSubscription`]: per-attribute canonical constraints, sorted by
//! attribute id, with a bounded constraint count so index nodes have a
//! fixed footprint.

use crate::attr::{AttrId, AttrSchema};
use crate::error::ScbrError;
use crate::predicate::{Bound, ConstraintSet, Op};
use crate::value::{Value, ValueKind};
use std::fmt;

/// Maximum number of constrained attributes per subscription. Together with
/// the per-constraint layout this pins the index node footprint at the
/// ~432 bytes/subscription the paper's datasets exhibit (10 k subs ≈
/// 4.37 MB).
pub const MAX_CONSTRAINTS: usize = 16;

/// One named predicate as authored by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateSpec {
    /// Attribute name.
    pub attr: String,
    /// Comparison operator.
    pub op: Op,
    /// Operand value.
    pub value: Value,
}

/// A wire-level subscription: a conjunction of named predicates.
///
/// ```
/// use scbr_enclave::subscription::SubscriptionSpec;
///
/// let spec = SubscriptionSpec::new()
///     .eq("symbol", "HAL")
///     .lt("price", 50.0);
/// assert_eq!(spec.predicates().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubscriptionSpec {
    predicates: Vec<PredicateSpec>,
}

impl SubscriptionSpec {
    /// An empty conjunction (matches every publication).
    pub fn new() -> Self {
        SubscriptionSpec::default()
    }

    /// Adds an arbitrary predicate.
    #[must_use]
    pub fn with(mut self, attr: &str, op: Op, value: impl Into<Value>) -> Self {
        self.predicates.push(PredicateSpec { attr: attr.to_owned(), op, value: value.into() });
        self
    }

    /// Adds `attr = value`.
    #[must_use]
    pub fn eq(self, attr: &str, value: impl Into<Value>) -> Self {
        self.with(attr, Op::Eq, value)
    }

    /// Adds `attr < value`.
    #[must_use]
    pub fn lt(self, attr: &str, value: impl Into<Value>) -> Self {
        self.with(attr, Op::Lt, value)
    }

    /// Adds `attr <= value`.
    #[must_use]
    pub fn le(self, attr: &str, value: impl Into<Value>) -> Self {
        self.with(attr, Op::Le, value)
    }

    /// Adds `attr > value`.
    #[must_use]
    pub fn gt(self, attr: &str, value: impl Into<Value>) -> Self {
        self.with(attr, Op::Gt, value)
    }

    /// Adds `attr >= value`.
    #[must_use]
    pub fn ge(self, attr: &str, value: impl Into<Value>) -> Self {
        self.with(attr, Op::Ge, value)
    }

    /// Adds `lo <= attr <= hi`.
    #[must_use]
    pub fn between(self, attr: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        self.ge(attr, lo).le(attr, hi)
    }

    /// The raw predicates.
    pub fn predicates(&self) -> &[PredicateSpec] {
        &self.predicates
    }

    /// Compiles against `schema`, canonicalising per-attribute constraints.
    ///
    /// # Errors
    ///
    /// * [`ScbrError::InvalidSubscription`] for NaN operands, ordered
    ///   comparisons on strings, contradictory conjunctions (e.g.
    ///   `price < 1 ∧ price > 2`), or too many distinct attributes.
    pub fn compile(&self, schema: &AttrSchema) -> Result<CompiledSubscription, ScbrError> {
        let mut constraints: Vec<(AttrId, ConstraintSet)> = Vec::new();
        for pred in &self.predicates {
            if pred.value.is_nan() {
                return Err(ScbrError::InvalidSubscription { reason: "nan operand" });
            }
            let scalar = pred.value.to_scalar();
            let set = match (pred.op, pred.value.kind()) {
                (Op::Eq, ValueKind::Str) => {
                    let crate::value::Scalar::Str(h) = scalar else { unreachable!() };
                    ConstraintSet::StrEq(h)
                }
                (_, ValueKind::Str) => {
                    return Err(ScbrError::InvalidSubscription {
                        reason: "ordered comparison on string attribute",
                    })
                }
                (Op::Eq, _) => ConstraintSet::point(scalar),
                (Op::Lt, _) => {
                    ConstraintSet::Range { lo: Bound::Unbounded, hi: Bound::Exclusive(scalar) }
                }
                (Op::Le, _) => {
                    ConstraintSet::Range { lo: Bound::Unbounded, hi: Bound::Inclusive(scalar) }
                }
                (Op::Gt, _) => {
                    ConstraintSet::Range { lo: Bound::Exclusive(scalar), hi: Bound::Unbounded }
                }
                (Op::Ge, _) => {
                    ConstraintSet::Range { lo: Bound::Inclusive(scalar), hi: Bound::Unbounded }
                }
            };
            let attr = schema.intern(&pred.attr);
            match constraints.iter_mut().find(|(a, _)| *a == attr) {
                Some((_, existing)) => {
                    *existing = existing.intersect(&set).ok_or(ScbrError::InvalidSubscription {
                        reason: "contradictory predicates",
                    })?;
                }
                None => constraints.push((attr, set)),
            }
        }
        if constraints.len() > MAX_CONSTRAINTS {
            return Err(ScbrError::InvalidSubscription { reason: "too many attributes" });
        }
        constraints.sort_by_key(|(a, _)| *a);
        Ok(CompiledSubscription { constraints })
    }
}

/// A compiled subscription: canonical constraints sorted by attribute id.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSubscription {
    constraints: Vec<(AttrId, ConstraintSet)>,
}

impl CompiledSubscription {
    /// The canonical constraints, sorted by attribute id.
    pub fn constraints(&self) -> &[(AttrId, ConstraintSet)] {
        &self.constraints
    }

    /// Number of constrained attributes.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when the subscription matches everything.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Does `header` satisfy every constraint?
    ///
    /// `header` must be sorted by attribute id (guaranteed by
    /// [`crate::publication::CompiledHeader`]).
    pub fn matches(&self, header: &crate::publication::CompiledHeader) -> bool {
        // Merge-join over the two sorted lists.
        let attrs = header.entries();
        let mut h = 0usize;
        for (attr, set) in &self.constraints {
            // Advance the header cursor to this attribute.
            while h < attrs.len() && attrs[h].0 < *attr {
                h += 1;
            }
            match attrs.get(h) {
                Some((a, scalar)) if a == attr => {
                    if !set.matches(scalar) {
                        return false;
                    }
                }
                _ => return false, // attribute absent: conjunction fails
            }
        }
        true
    }

    /// A stable 64-bit fingerprint of the canonical constraints (FNV-1a
    /// over attribute ids, kinds and bound bit patterns). Equal
    /// subscriptions have equal fingerprints; used by the index to
    /// diversify sibling sampling.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (attr, set) in &self.constraints {
            mix(&attr.0.to_be_bytes());
            match set {
                crate::predicate::ConstraintSet::StrEq(v) => {
                    mix(&[1]);
                    mix(&v.to_be_bytes());
                }
                crate::predicate::ConstraintSet::Range { lo, hi } => {
                    mix(&[2]);
                    for bound in [lo, hi] {
                        match bound {
                            crate::predicate::Bound::Unbounded => mix(&[0]),
                            crate::predicate::Bound::Inclusive(s) => {
                                mix(&[1]);
                                mix(&scalar_bits(s).to_be_bytes());
                            }
                            crate::predicate::Bound::Exclusive(s) => {
                                mix(&[2]);
                                mix(&scalar_bits(s).to_be_bytes());
                            }
                        }
                    }
                }
            }
        }
        h
    }

    /// Containment: does `self` cover `other` (every event matching `other`
    /// also matches `self`)?
    ///
    /// Holds iff every constraint of `self` is implied by a tighter or equal
    /// constraint of `other` on the same attribute.
    pub fn covers(&self, other: &CompiledSubscription) -> bool {
        let theirs = &other.constraints;
        let mut t = 0usize;
        for (attr, mine) in &self.constraints {
            while t < theirs.len() && theirs[t].0 < *attr {
                t += 1;
            }
            match theirs.get(t) {
                Some((a, their_set)) if a == attr => {
                    if !mine.covers(their_set) {
                        return false;
                    }
                }
                _ => return false, // other leaves the attribute free
            }
        }
        true
    }
}

/// Bit pattern of a scalar for fingerprinting.
fn scalar_bits(s: &crate::value::Scalar) -> u64 {
    match s {
        crate::value::Scalar::Int(i) => *i as u64,
        crate::value::Scalar::Float(f) => f.to_bits(),
        crate::value::Scalar::Str(h) => *h,
    }
}

impl fmt::Display for SubscriptionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "⊤");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{} {} {}", p.attr, p.op, p.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publication::PublicationSpec;

    fn schema() -> AttrSchema {
        AttrSchema::new()
    }

    fn header(schema: &AttrSchema, attrs: &[(&str, Value)]) -> crate::publication::CompiledHeader {
        let mut spec = PublicationSpec::new();
        for (name, v) in attrs {
            spec = spec.attr(name, v.clone());
        }
        spec.compile_header(schema).unwrap()
    }

    #[test]
    fn paper_example_matches() {
        // The paper's running example: symbol = "HAL" ∧ price < 50.
        let s = schema();
        let sub = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
        let compiled = sub.compile(&s).unwrap();
        let hit = header(&s, &[("symbol", "HAL".into()), ("price", 49.5.into())]);
        let miss_price = header(&s, &[("symbol", "HAL".into()), ("price", 50.0.into())]);
        let miss_symbol = header(&s, &[("symbol", "IBM".into()), ("price", 10.0.into())]);
        assert!(compiled.matches(&hit));
        assert!(!compiled.matches(&miss_price));
        assert!(!compiled.matches(&miss_symbol));
    }

    #[test]
    fn missing_attribute_fails_conjunction() {
        let s = schema();
        let sub = SubscriptionSpec::new().gt("volume", 100i64).compile(&s).unwrap();
        let no_volume = header(&s, &[("price", 10.0.into())]);
        assert!(!sub.matches(&no_volume));
    }

    #[test]
    fn empty_subscription_matches_everything() {
        let s = schema();
        let sub = SubscriptionSpec::new().compile(&s).unwrap();
        assert!(sub.is_empty());
        assert!(sub.matches(&header(&s, &[("x", 1i64.into())])));
        assert!(sub.matches(&header(&s, &[])));
    }

    #[test]
    fn repeated_attribute_intersects() {
        let s = schema();
        let sub = SubscriptionSpec::new().ge("price", 10.0).le("price", 20.0).compile(&s).unwrap();
        assert_eq!(sub.len(), 1, "two predicates fold into one constraint");
        assert!(sub.matches(&header(&s, &[("price", 15.0.into())])));
        assert!(!sub.matches(&header(&s, &[("price", 25.0.into())])));
        assert!(!sub.matches(&header(&s, &[("price", 5.0.into())])));
    }

    #[test]
    fn between_helper() {
        let s = schema();
        let sub = SubscriptionSpec::new().between("price", 1.0, 2.0).compile(&s).unwrap();
        assert!(sub.matches(&header(&s, &[("price", 1.0.into())])));
        assert!(sub.matches(&header(&s, &[("price", 2.0.into())])));
        assert!(!sub.matches(&header(&s, &[("price", 2.5.into())])));
    }

    #[test]
    fn contradiction_rejected() {
        let s = schema();
        let err = SubscriptionSpec::new().lt("price", 1.0).gt("price", 2.0).compile(&s);
        assert!(matches!(err, Err(ScbrError::InvalidSubscription { .. })));
        // Mixing kinds on one attribute is also contradictory.
        let err2 = SubscriptionSpec::new().eq("price", 5i64).lt("price", 10.0).compile(&s);
        assert!(err2.is_err());
    }

    #[test]
    fn string_ordering_rejected() {
        let s = schema();
        let err = SubscriptionSpec::new().lt("symbol", "HAL").compile(&s);
        assert!(matches!(err, Err(ScbrError::InvalidSubscription { .. })));
    }

    #[test]
    fn nan_rejected() {
        let s = schema();
        assert!(SubscriptionSpec::new().lt("p", f64::NAN).compile(&s).is_err());
    }

    #[test]
    fn too_many_attributes_rejected() {
        let s = schema();
        let mut spec = SubscriptionSpec::new();
        for i in 0..=MAX_CONSTRAINTS {
            spec = spec.eq(&format!("a{i}"), i as i64);
        }
        assert!(spec.compile(&s).is_err());
    }

    #[test]
    fn covers_general_vs_specific() {
        let s = schema();
        // "x > 0" covers "x = 1" and covers "x > 0 ∧ y = 1" (paper §3.2).
        let general = SubscriptionSpec::new().gt("x", 0.0).compile(&s).unwrap();
        let point = SubscriptionSpec::new().eq("x", 1.0).compile(&s).unwrap();
        let extra = SubscriptionSpec::new().gt("x", 0.0).eq("y", 1.0).compile(&s).unwrap();
        assert!(general.covers(&point));
        assert!(general.covers(&extra));
        assert!(!point.covers(&general));
        assert!(!extra.covers(&general));
    }

    #[test]
    fn covers_is_reflexive_and_antisymmetric_on_distinct() {
        let s = schema();
        let a = SubscriptionSpec::new().eq("sym", "A").lt("p", 5.0).compile(&s).unwrap();
        let b = SubscriptionSpec::new().eq("sym", "A").lt("p", 4.0).compile(&s).unwrap();
        assert!(a.covers(&a));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn covers_unconstrained_attribute() {
        let s = schema();
        let loose = SubscriptionSpec::new().eq("sym", "A").compile(&s).unwrap();
        let tight = SubscriptionSpec::new().eq("sym", "A").eq("p", 1.0).compile(&s).unwrap();
        assert!(loose.covers(&tight), "fewer constraints is more general");
        assert!(!tight.covers(&loose));
    }

    #[test]
    fn display_spec() {
        let spec = SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0);
        assert_eq!(spec.to_string(), "symbol = \"HAL\" ∧ price < 50");
        assert_eq!(SubscriptionSpec::new().to_string(), "⊤");
    }
}
