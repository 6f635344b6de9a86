//! Predicates, canonical constraints, and their containment relation.
//!
//! A subscription is a conjunction of predicates over attributes. For
//! matching and containment purposes every attribute's predicates are
//! canonicalised into a single [`ConstraintSet`]: a (possibly half-open)
//! interval for numeric attributes, or an equality test for strings.
//!
//! Containment ("covering" in Siena terminology) is the workhorse of the
//! SCBR index: subscription *A covers B* when every event matching B also
//! matches A. The index exploits this to prune whole subtrees during
//! matching.

use crate::value::{Scalar, ValueKind};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a raw predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Equal.
    Eq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// One endpoint of a numeric interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// No bound on this side.
    Unbounded,
    /// Endpoint included.
    Inclusive(Scalar),
    /// Endpoint excluded.
    Exclusive(Scalar),
}

impl Bound {
    /// The scalar at this bound, if any.
    pub fn scalar(&self) -> Option<&Scalar> {
        match self {
            Bound::Unbounded => None,
            Bound::Inclusive(s) | Bound::Exclusive(s) => Some(s),
        }
    }
}

/// Canonical constraint over one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintSet {
    /// Numeric interval `lo .. hi` (either side may be unbounded).
    Range {
        /// Lower endpoint.
        lo: Bound,
        /// Upper endpoint.
        hi: Bound,
    },
    /// String equality, compiled to an FNV-1a hash.
    StrEq(u64),
}

impl ConstraintSet {
    /// Point equality on a numeric scalar.
    pub fn point(s: Scalar) -> Self {
        ConstraintSet::Range { lo: Bound::Inclusive(s), hi: Bound::Inclusive(s) }
    }

    /// Does `value` satisfy this constraint? Kind mismatches never match.
    pub fn matches(&self, value: &Scalar) -> bool {
        match self {
            ConstraintSet::StrEq(h) => matches!(value, Scalar::Str(v) if v == h),
            ConstraintSet::Range { lo, hi } => {
                let lo_ok = match lo {
                    Bound::Unbounded => !matches!(value, Scalar::Str(_)),
                    Bound::Inclusive(s) => {
                        matches!(value.order(s), Some(Ordering::Greater | Ordering::Equal))
                    }
                    Bound::Exclusive(s) => matches!(value.order(s), Some(Ordering::Greater)),
                };
                let hi_ok = match hi {
                    Bound::Unbounded => !matches!(value, Scalar::Str(_)),
                    Bound::Inclusive(s) => {
                        matches!(value.order(s), Some(Ordering::Less | Ordering::Equal))
                    }
                    Bound::Exclusive(s) => matches!(value.order(s), Some(Ordering::Less)),
                };
                lo_ok && hi_ok
            }
        }
    }

    /// Containment: does `self` accept every value `other` accepts?
    pub fn covers(&self, other: &ConstraintSet) -> bool {
        match (self, other) {
            (ConstraintSet::StrEq(a), ConstraintSet::StrEq(b)) => a == b,
            (
                ConstraintSet::Range { lo: alo, hi: ahi },
                ConstraintSet::Range { lo: blo, hi: bhi },
            ) => lo_covers(alo, blo) && hi_covers(ahi, bhi),
            // A range never covers a string constraint or vice versa: their
            // value domains are disjoint, and an empty-domain `other` would
            // make coverage vacuous but also useless for the index.
            _ => false,
        }
    }

    /// Intersects with another constraint on the same attribute (used when a
    /// subscription repeats an attribute). Returns `None` when the
    /// intersection is empty or the kinds are incompatible.
    pub fn intersect(&self, other: &ConstraintSet) -> Option<ConstraintSet> {
        match (self, other) {
            (ConstraintSet::StrEq(a), ConstraintSet::StrEq(b)) => {
                if a == b {
                    Some(*self)
                } else {
                    None
                }
            }
            (
                ConstraintSet::Range { lo: alo, hi: ahi },
                ConstraintSet::Range { lo: blo, hi: bhi },
            ) => {
                let lo = tighter_lo(alo, blo)?;
                let hi = tighter_hi(ahi, bhi)?;
                if range_is_empty(&lo, &hi) {
                    None
                } else {
                    Some(ConstraintSet::Range { lo, hi })
                }
            }
            _ => None,
        }
    }

    /// The value kind this constraint applies to, if determinable.
    pub fn kind(&self) -> Option<ValueKind> {
        match self {
            ConstraintSet::StrEq(_) => Some(ValueKind::Str),
            ConstraintSet::Range { lo, hi } => {
                lo.scalar().or_else(|| hi.scalar()).map(|s| s.kind())
            }
        }
    }
}

/// True when lower bound `a` is at least as permissive as `b`.
fn lo_covers(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Inclusive(x), Bound::Inclusive(y)) | (Bound::Exclusive(x), Bound::Exclusive(y)) => {
            matches!(x.order(y), Some(Ordering::Less | Ordering::Equal))
        }
        (Bound::Inclusive(x), Bound::Exclusive(y)) => {
            // [x covers (y when x <= y (x=y: (y,..) ⊂ [y,..)).
            matches!(x.order(y), Some(Ordering::Less | Ordering::Equal))
        }
        (Bound::Exclusive(x), Bound::Inclusive(y)) => {
            // (x covers [y only when x < y.
            matches!(x.order(y), Some(Ordering::Less))
        }
    }
}

/// True when upper bound `a` is at least as permissive as `b`.
fn hi_covers(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Inclusive(x), Bound::Inclusive(y)) | (Bound::Exclusive(x), Bound::Exclusive(y)) => {
            matches!(x.order(y), Some(Ordering::Greater | Ordering::Equal))
        }
        (Bound::Inclusive(x), Bound::Exclusive(y)) => {
            matches!(x.order(y), Some(Ordering::Greater | Ordering::Equal))
        }
        (Bound::Exclusive(x), Bound::Inclusive(y)) => {
            matches!(x.order(y), Some(Ordering::Greater))
        }
    }
}

/// The more restrictive of two lower bounds; `None` on kind mismatch.
fn tighter_lo(a: &Bound, b: &Bound) -> Option<Bound> {
    match (a, b) {
        (Bound::Unbounded, other) | (other, Bound::Unbounded) => Some(*other),
        _ => {
            let (x, y) = (a.scalar().expect("bounded"), b.scalar().expect("bounded"));
            x.order(y)?; // kinds must agree
            if lo_covers(a, b) {
                Some(*b)
            } else {
                Some(*a)
            }
        }
    }
}

/// The more restrictive of two upper bounds; `None` on kind mismatch.
fn tighter_hi(a: &Bound, b: &Bound) -> Option<Bound> {
    match (a, b) {
        (Bound::Unbounded, other) | (other, Bound::Unbounded) => Some(*other),
        _ => {
            let (x, y) = (a.scalar().expect("bounded"), b.scalar().expect("bounded"));
            x.order(y)?;
            if hi_covers(a, b) {
                Some(*b)
            } else {
                Some(*a)
            }
        }
    }
}

/// True when the interval `[lo, hi]` contains no values.
fn range_is_empty(lo: &Bound, hi: &Bound) -> bool {
    match (lo.scalar(), hi.scalar()) {
        (Some(l), Some(h)) => match l.order(h) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => {
                // Equal endpoints: empty unless both inclusive.
                !(matches!(lo, Bound::Inclusive(_)) && matches!(hi, Bound::Inclusive(_)))
            }
            Some(Ordering::Less) => false,
            None => true,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: Bound, hi: Bound) -> ConstraintSet {
        ConstraintSet::Range { lo, hi }
    }

    /// Matches any value of a numeric kind.
    fn unbounded() -> ConstraintSet {
        range(Bound::Unbounded, Bound::Unbounded)
    }

    fn f(v: f64) -> Scalar {
        Scalar::Float(v)
    }

    #[test]
    fn point_matching() {
        let c = ConstraintSet::point(f(5.0));
        assert!(c.matches(&f(5.0)));
        assert!(!c.matches(&f(5.1)));
        assert!(!c.matches(&Scalar::Int(5)), "kind strictness");
    }

    #[test]
    fn interval_matching_with_openness() {
        let c = range(Bound::Exclusive(f(1.0)), Bound::Inclusive(f(2.0)));
        assert!(!c.matches(&f(1.0)));
        assert!(c.matches(&f(1.5)));
        assert!(c.matches(&f(2.0)));
        assert!(!c.matches(&f(2.5)));
    }

    #[test]
    fn unbounded_sides() {
        let c = range(Bound::Unbounded, Bound::Exclusive(f(0.0)));
        assert!(c.matches(&f(-1e300)));
        assert!(!c.matches(&f(0.0)));
        let any = unbounded();
        assert!(any.matches(&f(1.0)));
        assert!(any.matches(&Scalar::Int(1)));
        assert!(!any.matches(&Scalar::Str(7)), "ranges never match strings");
    }

    #[test]
    fn string_equality() {
        let c = ConstraintSet::StrEq(42);
        assert!(c.matches(&Scalar::Str(42)));
        assert!(!c.matches(&Scalar::Str(41)));
        assert!(!c.matches(&Scalar::Int(42)));
    }

    #[test]
    fn covers_intervals() {
        let wide = range(Bound::Inclusive(f(0.0)), Bound::Inclusive(f(10.0)));
        let narrow = range(Bound::Inclusive(f(2.0)), Bound::Inclusive(f(8.0)));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide), "reflexive");
    }

    #[test]
    fn covers_respects_openness() {
        let closed = range(Bound::Inclusive(f(0.0)), Bound::Inclusive(f(1.0)));
        let open = range(Bound::Exclusive(f(0.0)), Bound::Exclusive(f(1.0)));
        assert!(closed.covers(&open));
        assert!(!open.covers(&closed), "(0,1) does not cover [0,1]");
    }

    #[test]
    fn covers_unbounded() {
        let any = unbounded();
        let something = range(Bound::Inclusive(f(3.0)), Bound::Unbounded);
        assert!(any.covers(&something));
        assert!(!something.covers(&any));
    }

    #[test]
    fn covers_strings() {
        assert!(ConstraintSet::StrEq(1).covers(&ConstraintSet::StrEq(1)));
        assert!(!ConstraintSet::StrEq(1).covers(&ConstraintSet::StrEq(2)));
        assert!(!unbounded().covers(&ConstraintSet::StrEq(1)));
    }

    #[test]
    fn covers_implies_matches_subset() {
        // Spot-check the semantic definition on a grid of values.
        let a = range(Bound::Inclusive(f(0.0)), Bound::Exclusive(f(5.0)));
        let b = range(Bound::Exclusive(f(1.0)), Bound::Inclusive(f(4.0)));
        assert!(a.covers(&b));
        for i in -10..100 {
            let v = f(i as f64 / 10.0);
            if b.matches(&v) {
                assert!(a.matches(&v), "value {v:?} matched b but not a");
            }
        }
    }

    #[test]
    fn intersect_narrows() {
        let a = range(Bound::Inclusive(f(0.0)), Bound::Inclusive(f(10.0)));
        let b = range(Bound::Inclusive(f(5.0)), Bound::Inclusive(f(20.0)));
        let i = a.intersect(&b).unwrap();
        assert!(i.matches(&f(7.0)));
        assert!(!i.matches(&f(3.0)));
        assert!(!i.matches(&f(15.0)));
    }

    #[test]
    fn intersect_empty_is_none() {
        let a = range(Bound::Inclusive(f(0.0)), Bound::Inclusive(f(1.0)));
        let b = range(Bound::Inclusive(f(2.0)), Bound::Inclusive(f(3.0)));
        assert!(a.intersect(&b).is_none());
        // Touching open endpoints: (1,2) ∩ [2,3] is empty.
        let open = range(Bound::Exclusive(f(1.0)), Bound::Exclusive(f(2.0)));
        assert!(open.intersect(&b).is_none());
        // Touching closed endpoints: [0,2] ∩ [2,3] = {2}.
        let c = range(Bound::Inclusive(f(0.0)), Bound::Inclusive(f(2.0)));
        let point = c.intersect(&b).unwrap();
        assert!(point.matches(&f(2.0)));
        assert!(!point.matches(&f(2.1)));
    }

    #[test]
    fn intersect_strings() {
        assert!(ConstraintSet::StrEq(1).intersect(&ConstraintSet::StrEq(1)).is_some());
        assert!(ConstraintSet::StrEq(1).intersect(&ConstraintSet::StrEq(2)).is_none());
        assert!(ConstraintSet::StrEq(1).intersect(&unbounded()).is_none());
    }

    #[test]
    fn intersect_kind_mismatch_is_none() {
        let ints = range(Bound::Inclusive(Scalar::Int(0)), Bound::Unbounded);
        let floats = range(Bound::Inclusive(f(0.0)), Bound::Unbounded);
        assert!(ints.intersect(&floats).is_none());
    }

    #[test]
    fn kind_inference() {
        assert_eq!(ConstraintSet::StrEq(1).kind(), Some(ValueKind::Str));
        assert_eq!(ConstraintSet::point(f(1.0)).kind(), Some(ValueKind::Float));
        assert_eq!(unbounded().kind(), None);
    }

    #[test]
    fn op_display() {
        assert_eq!(Op::Eq.to_string(), "=");
        assert_eq!(Op::Le.to_string(), "<=");
    }
}
