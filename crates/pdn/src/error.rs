//! Error types for the PDN substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the `psnt-pdn` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdnError {
    /// A waveform was constructed from invalid breakpoints.
    InvalidWaveform(String),
    /// A circuit element value was outside its physical domain.
    InvalidParameter {
        /// The parameter name.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// A grid coordinate was out of bounds.
    OutOfBounds {
        /// Requested row.
        row: usize,
        /// Requested column.
        col: usize,
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A supervised solve loop (e.g. `quasi_static_transient` driven by
    /// a context whose supervisor is armed) was stopped cooperatively.
    Interrupted(psnt_sup::Interrupt),
    /// A windowed waveform query received an empty interval.
    EmptyInterval {
        /// Window start.
        from: psnt_cells::units::Time,
        /// Window end (before `from`, or equal where a width is needed).
        to: psnt_cells::units::Time,
    },
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::InvalidWaveform(why) => write!(f, "invalid waveform: {why}"),
            PdnError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            PdnError::OutOfBounds {
                row,
                col,
                rows,
                cols,
            } => {
                write!(f, "tile ({row}, {col}) outside {rows}×{cols} grid")
            }
            PdnError::Interrupted(reason) => {
                write!(f, "pdn solve interrupted: {reason}")
            }
            PdnError::EmptyInterval { from, to } => {
                write!(f, "empty waveform interval [{from}, {to}]")
            }
        }
    }
}

impl Error for PdnError {}

impl From<psnt_sup::Interrupt> for PdnError {
    fn from(reason: psnt_sup::Interrupt) -> PdnError {
        PdnError::Interrupted(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PdnError::InvalidWaveform("x".into())
            .to_string()
            .contains("x"));
        assert!(PdnError::OutOfBounds {
            row: 9,
            col: 1,
            rows: 4,
            cols: 4
        }
        .to_string()
        .contains("9"));
        assert!(PdnError::InvalidParameter {
            name: "r",
            reason: "neg".into()
        }
        .to_string()
        .contains("r"));
        assert!(PdnError::EmptyInterval {
            from: psnt_cells::units::Time::from_ns(2.0),
            to: psnt_cells::units::Time::from_ns(1.0),
        }
        .to_string()
        .contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<PdnError>();
    }
}
