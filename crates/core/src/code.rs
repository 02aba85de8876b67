//! Thermometer output codes.
//!
//! The multi-bit sensor emits one bit per element, printed **most-loaded
//! element first** exactly as the paper does: `0011111` means the two
//! most-loaded (highest-threshold) elements failed and the other five
//! sampled correctly. Because element thresholds rise with load, a clean
//! measurement is always of the form `0…01…1` — a *thermometer* code,
//! like a flash ADC's. Metastability can flip a bit near the boundary and
//! produce a *bubble* (`0101111`); [`ThermometerCode::correct_bubbles`]
//! restores the canonical form the way flash-ADC encoders do.
//!
//! # Examples
//!
//! ```
//! use psnt_core::code::ThermometerCode;
//!
//! let code: ThermometerCode = "0011111".parse()?;
//! assert_eq!(code.fail_count(), 2);
//! assert_eq!(code.level(), 5);
//! assert!(code.is_canonical());
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use std::fmt;
use std::str::FromStr;

use psnt_cells::logic::{Logic, LogicVector};
use serde::{Deserialize, Serialize};

use crate::error::SensorError;

/// A sensor array output vector, most-loaded element first.
///
/// Bit semantics: `1` = the element sampled correctly (no setup error),
/// `0` = the element failed. `X` marks an unresolved (metastable) capture
/// when the system is configured to surface them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ThermometerCode(LogicVector);

impl ThermometerCode {
    /// Wraps a raw logic vector.
    pub fn new(bits: LogicVector) -> ThermometerCode {
        ThermometerCode(bits)
    }

    /// The canonical code with `fails` leading zeros out of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `fails > width`.
    pub fn from_fail_count(fails: usize, width: usize) -> ThermometerCode {
        assert!(fails <= width, "fail count exceeds width");
        let mut v = LogicVector::ones(width);
        for i in 0..fails {
            v.set(i, Logic::Zero);
        }
        ThermometerCode(v)
    }

    /// Number of elements.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The underlying bits.
    pub fn bits(&self) -> &LogicVector {
        &self.0
    }

    /// Elements that failed (definite `0`s).
    pub fn fail_count(&self) -> usize {
        self.0.count_zeros()
    }

    /// Elements that sampled correctly (definite `1`s).
    pub fn pass_count(&self) -> usize {
        self.0.count_ones()
    }

    /// The thermometer *level*: the number of passing elements. For a
    /// canonical code this fully determines the vector.
    pub fn level(&self) -> usize {
        self.pass_count()
    }

    /// `true` when every bit is a definite `0`/`1`.
    pub fn is_resolved(&self) -> bool {
        self.0.is_fully_known()
    }

    /// `true` when the code is all zeros — the rail is below the minimum
    /// measurable value ("all errors" in the paper).
    pub fn is_underflow(&self) -> bool {
        self.is_resolved() && self.fail_count() == self.width()
    }

    /// `true` when the code is all ones — the rail is above the maximum
    /// measurable value ("none error").
    pub fn is_overflow(&self) -> bool {
        self.is_resolved() && self.pass_count() == self.width()
    }

    /// `true` when the code has the canonical `0…01…1` thermometer shape
    /// (fails first, passes after, no interleaving, no unknowns).
    pub fn is_canonical(&self) -> bool {
        if !self.is_resolved() {
            return false;
        }
        let mut seen_one = false;
        for b in self.0.iter() {
            match b {
                Logic::One => seen_one = true,
                Logic::Zero if seen_one => return false,
                _ => {}
            }
        }
        true
    }

    /// Positions (from the most-loaded end) whose bit breaks the
    /// thermometer property — the *bubbles*. Unknown bits always count.
    pub fn bubbles(&self) -> Vec<usize> {
        let corrected = self.correct_bubbles();
        (0..self.width())
            .filter(|&i| self.0.get(i) != corrected.0.get(i))
            .collect()
    }

    /// Returns the nearest canonical code: the level is taken as the
    /// total number of passing bits (`X` counts as half a pass, rounded
    /// down), then re-expanded to `0…01…1` — the standard flash-ADC
    /// bubble-correction rule.
    #[must_use]
    pub fn correct_bubbles(&self) -> ThermometerCode {
        ThermometerCode::from_fail_count(self.width() - self.corrected_level(), self.width())
    }

    /// The level of [`ThermometerCode::correct_bubbles`], without
    /// building the corrected code.
    pub(crate) fn corrected_level(&self) -> usize {
        let (ones, zeros) = self.0.iter().fold((0, 0), |(o, z), b| match b {
            Logic::One => (o + 1, z),
            Logic::Zero => (o, z + 1),
            _ => (o, z),
        });
        ones + (self.width() - ones - zeros) / 2
    }
}

impl FromStr for ThermometerCode {
    type Err = SensorError;

    fn from_str(s: &str) -> Result<ThermometerCode, SensorError> {
        let bits: LogicVector = s.parse().map_err(|_| SensorError::InvalidConfig {
            name: "code",
            reason: format!("cannot parse {s:?} as a logic vector"),
        })?;
        Ok(ThermometerCode(bits))
    }
}

impl fmt::Display for ThermometerCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_counts() {
        let c: ThermometerCode = "0011111".parse().unwrap();
        assert_eq!(c.width(), 7);
        assert_eq!(c.fail_count(), 2);
        assert_eq!(c.pass_count(), 5);
        assert_eq!(c.level(), 5);
        assert!(c.is_resolved());
        assert!(c.is_canonical());
        assert!(!c.is_underflow());
        assert!(!c.is_overflow());
    }

    #[test]
    fn underflow_and_overflow() {
        let under: ThermometerCode = "0000000".parse().unwrap();
        assert!(under.is_underflow());
        assert!(under.is_canonical());
        let over: ThermometerCode = "1111111".parse().unwrap();
        assert!(over.is_overflow());
        assert!(over.is_canonical());
    }

    #[test]
    fn from_fail_count_round_trip() {
        for fails in 0..=7 {
            let c = ThermometerCode::from_fail_count(fails, 7);
            assert_eq!(c.fail_count(), fails);
            assert!(c.is_canonical());
        }
    }

    #[test]
    #[should_panic(expected = "fail count exceeds width")]
    fn from_fail_count_overflow_panics() {
        ThermometerCode::from_fail_count(8, 7);
    }

    #[test]
    fn non_canonical_detected() {
        let c: ThermometerCode = "0101111".parse().unwrap();
        assert!(!c.is_canonical());
        assert_eq!(c.bubbles(), vec![1, 2]);
        let fixed = c.correct_bubbles();
        assert!(fixed.is_canonical());
        assert_eq!(fixed.to_string(), "0011111");
    }

    #[test]
    fn unknown_bits_break_canonical() {
        let c: ThermometerCode = "00x1111".parse().unwrap();
        assert!(!c.is_canonical());
        assert!(!c.is_resolved());
        // X counts as half a pass: 4 ones + 0 (1 unknown / 2) → level 4.
        assert_eq!(c.correct_bubbles().to_string(), "0001111");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("0012".parse::<ThermometerCode>().is_err());
    }

    #[test]
    fn display_matches_paper_format() {
        let c = ThermometerCode::from_fail_count(5, 7);
        assert_eq!(c.to_string(), "0000011");
    }

    proptest! {
        #[test]
        fn correction_is_idempotent(s in "[01x]{1,16}") {
            let c: ThermometerCode = s.parse().unwrap();
            let once = c.correct_bubbles();
            let twice = once.correct_bubbles();
            prop_assert_eq!(once.clone(), twice);
            prop_assert!(once.is_canonical());
        }

        #[test]
        fn corrected_level_matches_the_corrected_code(s in "[01xX]{7}") {
            let c: ThermometerCode = s.parse().unwrap();
            prop_assert_eq!(c.corrected_level(), c.correct_bubbles().level());
        }

        #[test]
        fn correction_preserves_width_and_ones_bound(s in "[01]{1,16}") {
            let c: ThermometerCode = s.parse().unwrap();
            let fixed = c.correct_bubbles();
            prop_assert_eq!(fixed.width(), c.width());
            prop_assert_eq!(fixed.pass_count(), c.pass_count());
        }

        #[test]
        fn canonical_codes_survive_correction(fails in 0usize..=12, extra in 0usize..=4) {
            let width = fails + extra;
            prop_assume!(width >= 1);
            let c = ThermometerCode::from_fail_count(fails, width);
            prop_assert_eq!(c.correct_bubbles(), c);
        }

        #[test]
        fn level_plus_fails_is_width(s in "[01]{1,16}") {
            let c: ThermometerCode = s.parse().unwrap();
            prop_assert_eq!(c.level() + c.fail_count(), c.width());
        }
    }
}
