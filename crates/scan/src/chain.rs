//! Serial readout — "a PSN scan chain".
//!
//! The paper's closing analogy: the sensor system "can be thought for
//! PSN as scan chains are for data faults". [`ScanChain`] implements the
//! readout half of that analogy: the captured thermometer codes of every
//! site are concatenated (site order, most-loaded bit first) into one
//! frame which is shifted out a bit per scan-clock, and deserialized on
//! the tester side.
//!
//! # Examples
//!
//! ```
//! use psnt_core::code::ThermometerCode;
//! use psnt_scan::chain::ScanChain;
//!
//! let chain = ScanChain::new(vec!["a".into(), "b".into()], 7);
//! let frame = chain.capture(&[
//!     "0011111".parse()?,
//!     "0000011".parse()?,
//! ])?;
//! assert_eq!(frame.to_string(), "00111110000011");
//! let codes = chain.deserialize(&frame)?;
//! assert_eq!(codes[1].to_string(), "0000011");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use psnt_cells::logic::LogicVector;
use psnt_core::code::ThermometerCode;
use serde::{Deserialize, Serialize};

use crate::error::ScanError;

/// A serial scan chain over the sensor sites.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanChain {
    site_names: Vec<String>,
    bits_per_site: usize,
}

impl ScanChain {
    /// Creates a chain over the named sites, each contributing
    /// `bits_per_site` flip-flops.
    pub fn new(site_names: Vec<String>, bits_per_site: usize) -> ScanChain {
        ScanChain {
            site_names,
            bits_per_site,
        }
    }

    /// The site names in shift order.
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Total chain length in flip-flops.
    pub fn len(&self) -> usize {
        self.site_names.len() * self.bits_per_site
    }

    /// Flip-flops contributed by each site (the array width).
    pub fn bits_per_site(&self) -> usize {
        self.bits_per_site
    }

    /// `true` when the chain has no sites.
    pub fn is_empty(&self) -> bool {
        self.site_names.is_empty()
    }

    /// Scan-clock cycles to shift one full frame out.
    pub fn shift_cycles(&self) -> usize {
        self.len()
    }

    /// Captures one code per site into a serial frame.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::FrameMismatch`] when the number of codes or a
    /// code's width does not match the chain geometry.
    pub fn capture(&self, codes: &[ThermometerCode]) -> Result<LogicVector, ScanError> {
        if codes.len() != self.site_names.len() {
            return Err(ScanError::FrameMismatch {
                expected: self.site_names.len(),
                got: codes.len(),
            });
        }
        let mut frame = LogicVector::new();
        for code in codes {
            if code.width() != self.bits_per_site {
                return Err(ScanError::FrameMismatch {
                    expected: self.bits_per_site,
                    got: code.width(),
                });
            }
            frame.extend(code.bits().iter());
        }
        Ok(frame)
    }

    /// Splits a shifted-out frame back into per-site codes.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::FrameMismatch`] when the frame length is
    /// wrong.
    pub fn deserialize(&self, frame: &LogicVector) -> Result<Vec<ThermometerCode>, ScanError> {
        if frame.len() != self.len() {
            return Err(ScanError::FrameMismatch {
                expected: self.len(),
                got: frame.len(),
            });
        }
        (0..self.site_names.len())
            .map(|s| {
                let bits: LogicVector = (0..self.bits_per_site)
                    .map(|b| {
                        frame
                            .get(s * self.bits_per_site + b)
                            .ok_or(ScanError::FrameMismatch {
                                expected: self.len(),
                                got: frame.len(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                Ok(ThermometerCode::new(bits))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(n: usize) -> ScanChain {
        ScanChain::new((0..n).map(|i| format!("s{i}")).collect(), 7)
    }

    fn code(s: &str) -> ThermometerCode {
        s.parse().unwrap()
    }

    #[test]
    fn geometry() {
        let c = chain(3);
        assert_eq!(c.len(), 21);
        assert_eq!(c.shift_cycles(), 21);
        assert!(!c.is_empty());
        assert!(ScanChain::new(vec![], 7).is_empty());
    }

    #[test]
    fn capture_concatenates_in_site_order() {
        let c = chain(2);
        let frame = c.capture(&[code("0011111"), code("0000011")]).unwrap();
        assert_eq!(frame.to_string(), "00111110000011");
    }

    #[test]
    fn roundtrip() {
        let c = chain(3);
        let codes = vec![code("0000000"), code("0011111"), code("1111111")];
        let frame = c.capture(&codes).unwrap();
        let back = c.deserialize(&frame).unwrap();
        assert_eq!(back, codes);
    }

    #[test]
    fn mismatches_rejected() {
        let c = chain(2);
        assert!(matches!(
            c.capture(&[code("0011111")]),
            Err(ScanError::FrameMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(c.capture(&[code("011"), code("0011111")]).is_err());
        let short = LogicVector::zeros(3);
        assert!(c.deserialize(&short).is_err());
    }

    #[test]
    fn campaign_scale_chain_roundtrips() {
        // The chip-scale shape: 256 sites × 7 bits = 1,792 flip-flops.
        // Nothing in the chain may assume a small site count.
        let c = chain(256);
        assert_eq!(c.len(), 1792);
        let codes: Vec<ThermometerCode> = (0..256)
            .map(|i| {
                let level = i % 8;
                let s: String = (0..7)
                    .map(|b| if 7 - b <= level { '1' } else { '0' })
                    .collect();
                code(&s)
            })
            .collect();
        let frame = c.capture(&codes).unwrap();
        assert_eq!(frame.len(), 1792);
        assert_eq!(c.deserialize(&frame).unwrap(), codes);
    }

    proptest! {
        #[test]
        fn roundtrip_random_codes(raw in proptest::collection::vec("[01x]{7}", 1..6)) {
            let c = ScanChain::new((0..raw.len()).map(|i| format!("s{i}")).collect(), 7);
            let codes: Vec<ThermometerCode> = raw.iter().map(|s| s.parse().unwrap()).collect();
            let frame = c.capture(&codes).unwrap();
            prop_assert_eq!(c.deserialize(&frame).unwrap(), codes);
        }
    }
}
