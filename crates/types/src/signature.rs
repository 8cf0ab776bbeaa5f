//! Type signatures (paper §2.2.1).

use crate::Type;
use std::fmt;

/// The type signature of a compiled function: one [`Type`] per formal
/// parameter.
///
/// The code repository keys compiled versions by signature. An invocation
/// with actual parameter types `Q = {Q1 … Qn}` may safely execute code
/// compiled for `T = {T1 … Tn}` iff `Qi ⊑ Ti` for all `i`; among safe
/// candidates the repository picks the one with the smallest
/// Manhattan-like [`distance`](Signature::distance).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Signature {
    params: Vec<Type>,
}

impl Signature {
    /// A signature from parameter types.
    pub fn new(params: Vec<Type>) -> Signature {
        Signature { params }
    }

    /// The empty (zero-parameter) signature.
    pub fn empty() -> Signature {
        Signature { params: Vec::new() }
    }

    /// Replace the parameter types with `params`, reusing the buffer.
    pub fn refill(&mut self, params: impl IntoIterator<Item = Type>) {
        self.params.clear();
        self.params.extend(params);
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Parameter types.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Safety check: may an invocation with these actual types run code
    /// compiled for `self`?
    ///
    /// Arity must match exactly and every actual type must be a subtype of
    /// the corresponding formal type.
    pub fn admits(&self, actuals: &Signature) -> bool {
        self.params.len() == actuals.params.len()
            && actuals
                .params
                .iter()
                .zip(&self.params)
                .all(|(q, t)| q.is_subtype_of(t))
    }

    /// Manhattan-like distance between an invocation and this signature:
    /// the sum of per-parameter type distances. `None` if arities differ.
    pub fn distance(&self, actuals: &Signature) -> Option<u64> {
        if self.params.len() != actuals.params.len() {
            return None;
        }
        Some(
            actuals
                .params
                .iter()
                .zip(&self.params)
                .map(|(q, t)| q.distance(t))
                .sum(),
        )
    }
}

impl FromIterator<Type> for Signature {
    fn from_iter<I: IntoIterator<Item = Type>>(iter: I) -> Self {
        Signature::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, t) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Intrinsic, Lattice};

    #[test]
    fn admits_requires_matching_arity() {
        let sig = Signature::new(vec![Type::scalar(Intrinsic::Real)]);
        let inv = Signature::new(vec![Type::constant(1.0), Type::constant(2.0)]);
        assert!(!sig.admits(&inv));
        assert_eq!(sig.distance(&inv), None);
    }

    #[test]
    fn admits_checks_every_parameter() {
        let sig = Signature::new(vec![
            Type::scalar(Intrinsic::Real),
            Type::matrix(Intrinsic::Real, 3, 3),
        ]);
        let good = Signature::new(vec![
            Type::constant(1.5),
            Type::matrix(Intrinsic::Int, 3, 3),
        ]);
        let bad = Signature::new(vec![
            Type::constant(1.5),
            Type::matrix(Intrinsic::Real, 4, 3),
        ]);
        assert!(sig.admits(&good));
        assert!(!sig.admits(&bad));
    }

    #[test]
    fn distance_orders_candidates() {
        let inv = Signature::new(vec![Type::constant(3.0)]);
        let tight = Signature::new(vec![Type::scalar(Intrinsic::Int)]);
        let loose = Signature::new(vec![Type::top()]);
        assert!(tight.admits(&inv));
        assert!(loose.admits(&inv));
        assert!(tight.distance(&inv).unwrap() < loose.distance(&inv).unwrap());
    }

    #[test]
    fn empty_signature_admits_empty_invocation() {
        assert!(Signature::empty().admits(&Signature::empty()));
        assert_eq!(Signature::empty().arity(), 0);
    }

    #[test]
    fn collects_from_iterator() {
        let sig: Signature = [Type::constant(1.0), Type::constant(2.0)]
            .into_iter()
            .collect();
        assert_eq!(sig.arity(), 2);
    }
}
