//! The ENC block: thermometer-to-binary encoding of the array outputs.
//!
//! The paper's FF arrays feed an encoder "which encodes \[them\] in a noise
//! word OUTE" consumed by the control block and the external interface.
//! Like a flash ADC's encoder, it must tolerate non-ideal codes: a
//! metastable boundary element can produce a bubble, and an unresolved
//! output can read as `X`. Two policies are provided and compared by the
//! `xp_encoding` ablation bench:
//!
//! * [`EncodingPolicy::Truncate`] — trust the first 0→1 transition
//!   scanning from the most-loaded element (cheapest hardware: a priority
//!   chain);
//! * [`EncodingPolicy::BubbleCorrect`] — majority-style correction to the
//!   nearest canonical code before encoding (one extra gate layer).
//!
//! # Examples
//!
//! ```
//! use psnt_core::code::ThermometerCode;
//! use psnt_core::encoder::{Encoder, EncodingPolicy};
//!
//! let enc = Encoder::new(7, EncodingPolicy::BubbleCorrect)?;
//! let word = enc.encode(&"0011111".parse()?);
//! assert_eq!(word.level, 5);
//! assert!(!word.underflow && !word.overflow && !word.bubbled);
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use serde::{Deserialize, Serialize};

use psnt_cells::logic::{Logic, LogicVector};

use crate::code::ThermometerCode;
use crate::error::SensorError;

/// How non-canonical codes are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EncodingPolicy {
    /// Priority-chain behaviour: the level is the number of passing
    /// elements counted from the most-loaded end up to the first failure
    /// below an already-passing element (bubbles *below* the boundary are
    /// ignored; bubbles above truncate).
    Truncate,
    /// Correct to the nearest canonical code first (counts all passes;
    /// `X` weighs half).
    #[default]
    BubbleCorrect,
}

/// The encoded noise word (the paper's `OUTE`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OuteWord {
    /// The thermometer level (number of passing elements), 0..=width.
    pub level: usize,
    /// Binary form of `level`, MSB first, `ceil(log2(width+1))` bits.
    pub binary: LogicVector,
    /// All elements failed: the rail is below the dynamic range.
    pub underflow: bool,
    /// No element failed: the rail is above the dynamic range.
    pub overflow: bool,
    /// The raw code was non-canonical (bubble or unresolved bit).
    pub bubbled: bool,
}

/// The widest array [`Encoder::level_table`] serves: its table has
/// `2^width` entries.
pub(crate) const LEVEL_TABLE_MAX_BITS: usize = 16;

/// The thermometer-to-binary encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encoder {
    width: usize,
    policy: EncodingPolicy,
}

impl Encoder {
    /// Creates an encoder for `width`-bit arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for zero width.
    pub fn new(width: usize, policy: EncodingPolicy) -> Result<Encoder, SensorError> {
        if width == 0 {
            return Err(SensorError::InvalidConfig {
                name: "width",
                reason: "encoder width must be positive".into(),
            });
        }
        Ok(Encoder { width, policy })
    }

    /// The array width this encoder expects.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bubble policy.
    pub fn policy(&self) -> EncodingPolicy {
        self.policy
    }

    /// Output word size in bits.
    pub fn binary_bits(&self) -> usize {
        (usize::BITS - self.width.leading_zeros()) as usize
    }

    /// Encodes a code into an [`OuteWord`].
    ///
    /// # Panics
    ///
    /// Panics if the code width differs from the encoder width.
    pub fn encode(&self, code: &ThermometerCode) -> OuteWord {
        assert_eq!(
            code.width(),
            self.width,
            "encoder width {} vs code width {}",
            self.width,
            code.width()
        );
        let level = self.level(code);
        OuteWord {
            level,
            binary: LogicVector::from_u64(level as u64, self.binary_bits()),
            underflow: level == 0,
            overflow: level == self.width,
            bubbled: !code.is_canonical(),
        }
    }

    /// The thermometer level [`Encoder::encode`] puts in the word,
    /// without building the rest of it.
    pub(crate) fn level(&self, code: &ThermometerCode) -> usize {
        match self.policy {
            EncodingPolicy::BubbleCorrect => code.corrected_level(),
            EncodingPolicy::Truncate => {
                // Scan from the most-loaded element: count definite 1s
                // after the last leading failure; the first 0 *after* a 1
                // truncates the level (priority-encoder behaviour).
                let mut level = 0usize;
                let mut counting = false;
                for b in code.bits().iter() {
                    match b {
                        Logic::One => {
                            counting = true;
                            level += 1;
                        }
                        _ if counting => break,
                        _ => {}
                    }
                }
                level
            }
        }
    }

    /// [`Encoder::encode`]'s level of every binary code, indexed by the
    /// code's pass bits packed into an integer: bit `i` is element `i`
    /// in ascending-load order, i.e. code position `width − 1 − i`, so
    /// the index written in binary is the code as it prints.
    ///
    /// # Panics
    ///
    /// Panics for widths above [`LEVEL_TABLE_MAX_BITS`].
    pub(crate) fn level_table(&self) -> Box<[u8]> {
        assert!(
            self.width <= LEVEL_TABLE_MAX_BITS,
            "no level table for a {}-bit array",
            self.width
        );
        (0..1usize << self.width)
            .map(|word| {
                let bits: LogicVector = (0..self.width)
                    .rev()
                    .map(|i| Logic::from(word >> i & 1 == 1))
                    .collect();
                self.level(&ThermometerCode::new(bits)) as u8
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enc(policy: EncodingPolicy) -> Encoder {
        Encoder::new(7, policy).unwrap()
    }

    fn code(s: &str) -> ThermometerCode {
        s.parse().unwrap()
    }

    #[test]
    fn width_validation() {
        assert!(Encoder::new(0, EncodingPolicy::Truncate).is_err());
        assert_eq!(
            Encoder::new(7, EncodingPolicy::Truncate).unwrap().width(),
            7
        );
    }

    #[test]
    fn binary_bits_sizing() {
        assert_eq!(
            Encoder::new(7, EncodingPolicy::default())
                .unwrap()
                .binary_bits(),
            3
        );
        assert_eq!(
            Encoder::new(8, EncodingPolicy::default())
                .unwrap()
                .binary_bits(),
            4
        );
        assert_eq!(
            Encoder::new(1, EncodingPolicy::default())
                .unwrap()
                .binary_bits(),
            1
        );
    }

    #[test]
    fn canonical_codes_encode_identically_under_both_policies() {
        for fails in 0..=7 {
            let c = ThermometerCode::from_fail_count(fails, 7);
            let a = enc(EncodingPolicy::Truncate).encode(&c);
            let b = enc(EncodingPolicy::BubbleCorrect).encode(&c);
            assert_eq!(a, b, "{c}");
            assert_eq!(a.level, 7 - fails);
            assert!(!a.bubbled);
        }
    }

    #[test]
    fn saturation_flags() {
        let under = enc(EncodingPolicy::default()).encode(&code("0000000"));
        assert!(under.underflow && !under.overflow);
        assert_eq!(under.binary.to_string(), "000");
        let over = enc(EncodingPolicy::default()).encode(&code("1111111"));
        assert!(over.overflow && !over.underflow);
        assert_eq!(over.binary.to_string(), "111");
    }

    #[test]
    fn bubble_handling_differs_between_policies() {
        // 0101111: a pass at position 1 interrupted by a fail at 2.
        let bubbly = code("0101111");
        let trunc = enc(EncodingPolicy::Truncate).encode(&bubbly);
        // Priority scan: first 1 at index 1, then 0 at index 2 truncates.
        assert_eq!(trunc.level, 1);
        assert!(trunc.bubbled);
        let fixed = enc(EncodingPolicy::BubbleCorrect).encode(&bubbly);
        // Majority: 5 ones.
        assert_eq!(fixed.level, 5);
        assert!(fixed.bubbled);
    }

    #[test]
    fn unresolved_bits_flag_and_weigh_half() {
        let c = code("00x1111");
        let word = enc(EncodingPolicy::BubbleCorrect).encode(&c);
        assert!(word.bubbled);
        assert_eq!(word.level, 4);
        assert_eq!(word.binary.to_string(), "100");
    }

    #[test]
    #[should_panic(expected = "encoder width")]
    fn wrong_width_panics() {
        enc(EncodingPolicy::default()).encode(&code("01"));
    }

    #[test]
    fn paper_fig9_words() {
        let e = enc(EncodingPolicy::default());
        assert_eq!(e.encode(&code("0011111")).level, 5);
        assert_eq!(e.encode(&code("0000011")).level, 2);
        assert_eq!(e.encode(&code("0011111")).binary.to_string(), "101");
        assert_eq!(e.encode(&code("0000011")).binary.to_string(), "010");
    }

    #[test]
    fn level_table_matches_the_encoder_for_every_binary_code() {
        for policy in [EncodingPolicy::Truncate, EncodingPolicy::BubbleCorrect] {
            let e = enc(policy);
            let table = e.level_table();
            assert_eq!(table.len(), 1 << 7);
            for (word, &level) in table.iter().enumerate() {
                let c = code(&format!("{word:07b}"));
                assert_eq!(
                    usize::from(level),
                    e.encode(&c).level,
                    "{policy:?} code {c}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn level_bounded(s in "[01x]{7}") {
            for policy in [EncodingPolicy::Truncate, EncodingPolicy::BubbleCorrect] {
                let word = enc(policy).encode(&code(&s));
                prop_assert!(word.level <= 7);
                prop_assert_eq!(word.underflow, word.level == 0);
                prop_assert_eq!(word.overflow, word.level == 7);
            }
        }

        #[test]
        fn level_is_the_encoded_level(s in "[01x]{7}") {
            for policy in [EncodingPolicy::Truncate, EncodingPolicy::BubbleCorrect] {
                let e = enc(policy);
                prop_assert_eq!(e.level(&code(&s)), e.encode(&code(&s)).level);
            }
        }

        #[test]
        fn binary_roundtrips_level(s in "[01]{7}") {
            let word = enc(EncodingPolicy::BubbleCorrect).encode(&code(&s));
            prop_assert_eq!(word.binary.to_u64(), Some(word.level as u64));
        }

        #[test]
        fn bubbled_iff_not_canonical(s in "[01x]{7}") {
            let c = code(&s);
            let word = enc(EncodingPolicy::default()).encode(&c);
            prop_assert_eq!(word.bubbled, !c.is_canonical());
        }
    }
}
