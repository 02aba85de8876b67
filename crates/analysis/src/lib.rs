//! # psnt-analysis — measurement analysis and reporting
//!
//! Post-processing for the `psn-thermometer` workspace (reproduction of
//! Graziano & Vittori, IEEE SOCC 2009):
//!
//! * [`stats`] — summaries, quantiles and histograms of measurement
//!   series;
//! * [`adc_metrics`] — flash-ADC linearity metrics (DNL/INL, code
//!   density) for capacitor-ladder designs, since the paper likens the
//!   array to "a flash A/D converter";
//! * [`reconstruct`] — fidelity scoring of readouts against waveform
//!   ground truth;
//! * [`report`] — the plain-text tables every reproduction binary
//!   prints;
//! * [`spectrum`](mod@crate::spectrum) — single-tone spectral estimation from irregularly
//!   timed sensor samples (what frequency is the noise?).
//!
//! # Example
//!
//! ```
//! use psnt_analysis::adc_metrics::linearity;
//! use psnt_cells::units::Voltage;
//!
//! let thresholds: Vec<Voltage> =
//!     [0.827, 0.896, 0.929, 0.961, 0.992, 1.021, 1.053]
//!         .into_iter().map(Voltage::from_v).collect();
//! let rep = linearity(&thresholds);
//! // The paper's ladder trades a wide bottom step for dynamic range.
//! assert!(rep.dnl[0] > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod adc_metrics;
pub mod reconstruct;
pub mod report;
pub mod spectrum;
pub mod stats;

pub use adc_metrics::{code_density_widths, linearity, LinearityReport};
pub use reconstruct::{reconstruction_rmse, score_series, FidelityReport};
pub use report::{fmt_ps, fmt_v, Table};
pub use spectrum::{
    amplitude_at, dominant_frequency, resolution, spectrum, spectrum_envelope, SpectrumPoint,
};
pub use stats::{quantile, summarize, Histogram, Summary};
