//! Four-valued digital logic (`0`, `1`, `X`, `Z`) and logic vectors.
//!
//! The event-driven simulator in `psnt-netlist` and the sensor models in
//! `psnt-core` operate on [`Logic`] values. `X` models an unknown or
//! metastable value (e.g. a flip-flop whose setup time was violated and
//! which has not resolved yet); `Z` models an undriven net.
//!
//! Gate evaluation follows the usual dominance rules of IEEE-1164-style
//! logic: a controlling input (e.g. `0` on an AND) forces the output even
//! when the other input is `X`/`Z`; otherwise uncertainty propagates.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::logic::Logic;
//!
//! assert_eq!(Logic::Zero.and(Logic::X), Logic::Zero); // controlling 0
//! assert_eq!(Logic::One.and(Logic::X), Logic::X);     // X propagates
//! assert_eq!(Logic::One.or(Logic::X), Logic::One);    // controlling 1
//! ```

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::CellError;

/// A four-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Logic {
    /// Driven low.
    Zero,
    /// Driven high.
    One,
    /// Unknown (uninitialised, metastable or conflicting).
    #[default]
    X,
    /// High impedance (undriven).
    Z,
}

impl Logic {
    /// All four levels, in display order `0, 1, X, Z`.
    pub const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// `true` when the value is a definite `0` or `1`.
    #[inline]
    pub fn is_known(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// Converts a definite level to `bool`; `None` for `X`/`Z`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// Logical negation. `X`/`Z` invert to `X` (a floating input reads as
    /// unknown through a gate). Also available as the `!` operator via
    /// the [`std::ops::Not`] impl.
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X | Logic::Z => Logic::X,
        }
    }

    /// Logical AND with dominance: `0` wins over `X`/`Z`.
    #[inline]
    #[must_use]
    pub fn and(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Logical OR with dominance: `1` wins over `X`/`Z`.
    #[inline]
    #[must_use]
    pub fn or(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical XOR; any uncertainty poisons the result.
    #[inline]
    #[must_use]
    pub fn xor(self, rhs: Logic) -> Logic {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Logic::from(a ^ b),
            _ => Logic::X,
        }
    }

    /// Two-input multiplexer: returns `a` when `sel` is `0`, `b` when `sel`
    /// is `1`. When `sel` is unknown the output is known only if both data
    /// inputs agree on a definite value.
    #[inline]
    #[must_use]
    pub fn mux(sel: Logic, a: Logic, b: Logic) -> Logic {
        match sel {
            Logic::Zero => a,
            Logic::One => b,
            Logic::X | Logic::Z => {
                if a == b && a.is_known() {
                    a
                } else {
                    Logic::X
                }
            }
        }
    }

    /// Resolution of two drivers on the same net (wired logic).
    /// `Z` yields to any driver; conflicting or unknown drivers give `X`.
    #[inline]
    #[must_use]
    pub fn resolve(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Z, v) | (v, Logic::Z) => v,
            (a, b) if a == b => a,
            _ => Logic::X,
        }
    }

    /// The character used in waveform dumps: `0`, `1`, `x`, `z`.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;

    #[inline]
    fn not(self) -> Logic {
        Logic::not(self)
    }
}

impl From<bool> for Logic {
    #[inline]
    fn from(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

impl TryFrom<char> for Logic {
    type Error = CellError;

    fn try_from(c: char) -> Result<Logic, CellError> {
        match c {
            '0' => Ok(Logic::Zero),
            '1' => Ok(Logic::One),
            'x' | 'X' => Ok(Logic::X),
            'z' | 'Z' => Ok(Logic::Z),
            other => Err(CellError::InvalidLogicChar(other)),
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// An ordered vector of [`Logic`] values.
///
/// Bit 0 is the **leftmost** character in the textual form, matching how
/// the paper prints sensor outputs (e.g. `0011111`, most-loaded element
/// first). Indexing is positional, not numeric.
///
/// ```
/// use psnt_cells::logic::{Logic, LogicVector};
///
/// let v: LogicVector = "0011111".parse().unwrap();
/// assert_eq!(v.len(), 7);
/// assert_eq!(v.get(0), Some(Logic::Zero));
/// assert_eq!(v.count_ones(), 5);
/// assert_eq!(v.to_string(), "0011111");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LogicVector(Vec<Logic>);

impl LogicVector {
    /// Creates an empty vector.
    pub fn new() -> LogicVector {
        LogicVector(Vec::new())
    }

    /// Creates a vector of `n` copies of `value`.
    pub fn repeat(value: Logic, n: usize) -> LogicVector {
        LogicVector(vec![value; n])
    }

    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> LogicVector {
        LogicVector::repeat(Logic::Zero, n)
    }

    /// Creates a vector of `n` ones.
    pub fn ones(n: usize) -> LogicVector {
        LogicVector::repeat(Logic::One, n)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns the element at `i`, if in range.
    pub fn get(&self, i: usize) -> Option<Logic> {
        self.0.get(i).copied()
    }

    /// Sets the element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, v: Logic) {
        self.0[i] = v;
    }

    /// Appends an element.
    pub fn push(&mut self, v: Logic) {
        self.0.push(v);
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Logic>> {
        self.0.iter().copied()
    }

    /// View of the underlying slice.
    pub fn as_slice(&self) -> &[Logic] {
        &self.0
    }

    /// Number of definite `1` elements.
    pub fn count_ones(&self) -> usize {
        self.0.iter().filter(|&&b| b == Logic::One).count()
    }

    /// Number of definite `0` elements.
    pub fn count_zeros(&self) -> usize {
        self.0.iter().filter(|&&b| b == Logic::Zero).count()
    }

    /// `true` when every element is a definite `0` or `1`.
    pub fn is_fully_known(&self) -> bool {
        self.0.iter().all(|b| b.is_known())
    }

    /// Element-wise negation.
    #[must_use]
    pub fn not(&self) -> LogicVector {
        LogicVector(self.0.iter().map(|b| b.not()).collect())
    }

    /// Interprets the vector as an unsigned big-endian integer
    /// (element 0 is the most significant bit). Returns `None` when any
    /// element is `X`/`Z` or the vector is longer than 64 elements.
    pub fn to_u64(&self) -> Option<u64> {
        if self.0.len() > 64 {
            return None;
        }
        let mut acc = 0u64;
        for b in &self.0 {
            acc = (acc << 1) | u64::from(b.to_bool()?);
        }
        Some(acc)
    }

    /// Builds a vector of width `width` from the unsigned integer `value`
    /// (big-endian: element 0 is the most significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn from_u64(value: u64, width: usize) -> LogicVector {
        assert!(width <= 64, "width > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut out = LogicVector::zeros(width);
        for i in 0..width {
            let bit = (value >> (width - 1 - i)) & 1 == 1;
            out.set(i, Logic::from(bit));
        }
        out
    }
}

impl FromIterator<Logic> for LogicVector {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> LogicVector {
        LogicVector(iter.into_iter().collect())
    }
}

impl Extend<Logic> for LogicVector {
    fn extend<I: IntoIterator<Item = Logic>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl IntoIterator for LogicVector {
    type Item = Logic;
    type IntoIter = std::vec::IntoIter<Logic>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a LogicVector {
    type Item = Logic;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Logic>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromStr for LogicVector {
    type Err = CellError;

    fn from_str(s: &str) -> Result<LogicVector, CellError> {
        s.chars().map(Logic::try_from).collect::<Result<_, _>>()
    }
}

impl fmt::Display for LogicVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn not_truth_table() {
        assert_eq!(Logic::Zero.not(), Logic::One);
        assert_eq!(Logic::One.not(), Logic::Zero);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::Z.not(), Logic::X);
    }

    #[test]
    fn not_operator_matches_method() {
        for v in Logic::ALL {
            assert_eq!(!v, v.not());
        }
    }

    #[test]
    fn and_dominance() {
        for v in Logic::ALL {
            assert_eq!(Logic::Zero.and(v), Logic::Zero);
            assert_eq!(v.and(Logic::Zero), Logic::Zero);
        }
        assert_eq!(Logic::One.and(Logic::One), Logic::One);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::Z.and(Logic::One), Logic::X);
    }

    #[test]
    fn or_dominance() {
        for v in Logic::ALL {
            assert_eq!(Logic::One.or(v), Logic::One);
            assert_eq!(v.or(Logic::One), Logic::One);
        }
        assert_eq!(Logic::Zero.or(Logic::Zero), Logic::Zero);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
    }

    #[test]
    fn xor_poisoned_by_unknown() {
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
        assert_eq!(Logic::One.xor(Logic::X), Logic::X);
        assert_eq!(Logic::Z.xor(Logic::Zero), Logic::X);
    }

    #[test]
    fn mux_select() {
        assert_eq!(Logic::mux(Logic::Zero, Logic::One, Logic::Zero), Logic::One);
        assert_eq!(Logic::mux(Logic::One, Logic::One, Logic::Zero), Logic::Zero);
        // Unknown select with agreeing inputs stays known.
        assert_eq!(Logic::mux(Logic::X, Logic::One, Logic::One), Logic::One);
        assert_eq!(Logic::mux(Logic::X, Logic::One, Logic::Zero), Logic::X);
    }

    #[test]
    fn resolve_wired() {
        assert_eq!(Logic::Z.resolve(Logic::One), Logic::One);
        assert_eq!(Logic::Zero.resolve(Logic::Z), Logic::Zero);
        assert_eq!(Logic::One.resolve(Logic::One), Logic::One);
        assert_eq!(Logic::One.resolve(Logic::Zero), Logic::X);
        assert_eq!(Logic::Z.resolve(Logic::Z), Logic::Z);
    }

    #[test]
    fn char_roundtrip() {
        for v in Logic::ALL {
            assert_eq!(Logic::try_from(v.to_char()).unwrap(), v);
        }
        assert!(Logic::try_from('q').is_err());
    }

    #[test]
    fn vector_parse_and_display() {
        let v: LogicVector = "0011111".parse().unwrap();
        assert_eq!(v.len(), 7);
        assert_eq!(v.count_ones(), 5);
        assert_eq!(v.count_zeros(), 2);
        assert_eq!(v.to_string(), "0011111");
        assert!(v.is_fully_known());

        let w: LogicVector = "1x0z".parse().unwrap();
        assert!(!w.is_fully_known());
        assert_eq!(w.to_string(), "1x0z");
        assert!("10a1".parse::<LogicVector>().is_err());
    }

    #[test]
    fn vector_u64_roundtrip() {
        let v = LogicVector::from_u64(0b0011111, 7);
        assert_eq!(v.to_string(), "0011111");
        assert_eq!(v.to_u64(), Some(0b0011111));
        let w: LogicVector = "1x1".parse().unwrap();
        assert_eq!(w.to_u64(), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_overflow_panics() {
        let _ = LogicVector::from_u64(8, 3);
    }

    #[test]
    fn vector_constructors() {
        assert_eq!(LogicVector::zeros(3).to_string(), "000");
        assert_eq!(LogicVector::ones(2).to_string(), "11");
        assert!(LogicVector::new().is_empty());
    }

    #[test]
    fn vector_not() {
        let v: LogicVector = "01xz".parse().unwrap();
        assert_eq!(v.not().to_string(), "10xx");
    }

    #[test]
    fn vector_collect_and_extend() {
        let mut v: LogicVector = [Logic::One, Logic::Zero].into_iter().collect();
        v.extend([Logic::X]);
        assert_eq!(v.to_string(), "10x");
        let bits: Vec<Logic> = (&v).into_iter().collect();
        assert_eq!(bits.len(), 3);
    }

    fn arb_logic() -> impl Strategy<Value = Logic> {
        prop_oneof![
            Just(Logic::Zero),
            Just(Logic::One),
            Just(Logic::X),
            Just(Logic::Z)
        ]
    }

    proptest! {
        #[test]
        fn demorgan_holds_for_known(a in any::<bool>(), b in any::<bool>()) {
            let (la, lb) = (Logic::from(a), Logic::from(b));
            prop_assert_eq!(la.and(lb).not(), la.not().or(lb.not()));
            prop_assert_eq!(la.or(lb).not(), la.not().and(lb.not()));
        }

        #[test]
        fn and_or_commutative(a in arb_logic(), b in arb_logic()) {
            prop_assert_eq!(a.and(b), b.and(a));
            prop_assert_eq!(a.or(b), b.or(a));
            prop_assert_eq!(a.xor(b), b.xor(a));
            prop_assert_eq!(a.resolve(b), b.resolve(a));
        }

        #[test]
        fn double_negation_known(a in any::<bool>()) {
            let l = Logic::from(a);
            prop_assert_eq!(l.not().not(), l);
        }

        #[test]
        fn u64_roundtrip(value in 0u64..128, ) {
            let v = LogicVector::from_u64(value, 7);
            prop_assert_eq!(v.to_u64(), Some(value));
            prop_assert_eq!(v.len(), 7);
        }

        #[test]
        fn string_roundtrip(s in "[01xz]{0,32}") {
            let v: LogicVector = s.parse().unwrap();
            prop_assert_eq!(v.to_string(), s);
        }
    }
}
