//! Error types for the cell substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the `psnt-cells` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CellError {
    /// A character other than `0`, `1`, `x`/`X`, `z`/`Z` was parsed as a
    /// logic level.
    InvalidLogicChar(char),
    /// A delay table was constructed with non-monotonic or empty axes.
    InvalidTable(String),
    /// A physical parameter was outside its valid domain (e.g. supply at or
    /// below threshold voltage).
    InvalidParameter {
        /// The parameter name.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::InvalidLogicChar(c) => {
                write!(f, "invalid logic character {c:?} (expected 0, 1, x or z)")
            }
            CellError::InvalidTable(why) => write!(f, "invalid delay table: {why}"),
            CellError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
        }
    }
}

impl Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CellError::InvalidLogicChar('q').to_string().contains("'q'"));
        assert!(CellError::InvalidTable("empty axis".into())
            .to_string()
            .contains("empty axis"));
        let e = CellError::InvalidParameter {
            name: "vdd",
            reason: "below threshold".into(),
        };
        assert!(e.to_string().contains("vdd"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<CellError>();
    }
}
