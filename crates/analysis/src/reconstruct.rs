//! Comparing sensor readouts against waveform ground truth.
//!
//! The simulation environment knows the true `VDD-n(t)`; these helpers
//! quantify how faithfully a measurement series or an equivalent-time
//! reconstruction recovers it — the verification-use-case quality
//! metrics for the experiments.

use psnt_cells::units::{Time, Voltage};
use psnt_core::system::Measurement;
use psnt_pdn::waveform::Waveform;
use serde::{Deserialize, Serialize};

/// Fidelity of a measurement series against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Measurements whose decoded interval contained the true window
    /// average.
    pub hits: usize,
    /// Measurements with a decodable (non-saturated) interval.
    pub resolved: usize,
    /// All measurements considered.
    pub total: usize,
    /// RMS error of interval midpoints against the truth (resolved
    /// measurements only), volts.
    pub rmse: f64,
    /// Worst absolute midpoint error, volts.
    pub max_error: f64,
}

/// Scores a HIGH-SENSE measurement series against the true supply
/// waveform. `window` is the sensor's P→CP skew (the averaging window
/// used at capture).
pub fn score_series(
    measurements: &[Measurement],
    truth: &Waveform,
    window: Time,
) -> FidelityReport {
    let mut hits = 0;
    let mut resolved = 0;
    let mut sq_sum = 0.0;
    let mut max_error: f64 = 0.0;
    for m in measurements {
        let true_v = Voltage::from_v(truth.mean_over(m.at, m.at + window.max(Time::from_ps(1.0))));
        if m.hs_interval.contains(true_v) {
            hits += 1;
        }
        if let Some(mid) = m.hs_interval.midpoint() {
            resolved += 1;
            let err = (mid - true_v).volts();
            sq_sum += err * err;
            max_error = max_error.max(err.abs());
        }
    }
    // Saturated measurements have no midpoint but can still "hit" when the
    // truth is outside the range on the same side; count hits over all.
    FidelityReport {
        hits,
        resolved,
        total: measurements.len(),
        rmse: if resolved == 0 {
            0.0
        } else {
            (sq_sum / resolved as f64).sqrt()
        },
        max_error,
    }
}

/// RMS error between a binned reconstruction and the truth sampled at the
/// bin centres (offset by `t0`, the phase origin). Empty bins are
/// skipped; returns `None` when no bin holds a value.
pub fn reconstruction_rmse(
    bin_values: &[Option<Voltage>],
    bin_times: impl Fn(usize) -> Time,
    truth: impl Fn(Time) -> f64,
    t0: Time,
) -> Option<f64> {
    let mut sq = 0.0;
    let mut n = 0usize;
    for (i, v) in bin_values.iter().enumerate() {
        if let Some(v) = v {
            let t = t0 + bin_times(i);
            let err = v.volts() - truth(t);
            sq += err * err;
            n += 1;
        }
    }
    (n > 0).then(|| (sq / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_core::system::{SensorConfig, SensorSystem};
    use psnt_pdn::sources::SupplyNoiseBuilder;

    #[test]
    fn perfect_series_scores_full_hits() {
        let system = SensorSystem::new(SensorConfig::default()).unwrap();
        let vdd = SupplyNoiseBuilder::new(Voltage::from_v(0.95))
            .span(Time::ZERO, Time::from_us(1.0))
            .resolution(Time::from_ns(1.0))
            .resonance(
                psnt_cells::units::Frequency::from_mhz(20.0),
                Voltage::from_mv(25.0),
                0.0,
            )
            .build()
            .unwrap();
        let gnd = Waveform::constant(0.0);
        let skew = system
            .pulse_generator()
            .skew(system.config().hs_code, &system.config().pvt);
        let measurements: Vec<Measurement> = (0..50)
            .map(|k| {
                system
                    .measure_at(&vdd, &gnd, Time::from_ns(20.0 + 15.0 * k as f64))
                    .unwrap()
            })
            .collect();
        let report = score_series(&measurements, &vdd, skew);
        assert_eq!(report.total, 50);
        assert_eq!(report.resolved, 50, "0.95 ± 25 mV stays in range");
        // Decoding is interval-exact by construction.
        assert_eq!(report.hits, 50);
        // Midpoint error bounded by half a code width (~17 mV).
        assert!(report.rmse < 0.02, "rmse {}", report.rmse);
        assert!(report.max_error < 0.035, "max {}", report.max_error);
    }

    #[test]
    fn saturated_series_has_no_resolved() {
        let system = SensorSystem::new(SensorConfig::default()).unwrap();
        let vdd = Waveform::constant(1.3);
        let gnd = Waveform::constant(0.0);
        let measurements: Vec<Measurement> = (0..5)
            .map(|k| {
                system
                    .measure_at(&vdd, &gnd, Time::from_ns(10.0 * (k + 1) as f64))
                    .unwrap()
            })
            .collect();
        let skew = Time::from_ps(149.0);
        let report = score_series(&measurements, &vdd, skew);
        assert_eq!(report.resolved, 0);
        assert_eq!(report.rmse, 0.0);
        // Overflow interval (lower bound only) still contains the truth.
        assert_eq!(report.hits, 5);
    }

    #[test]
    fn reconstruction_rmse_basics() {
        let bins = vec![Some(Voltage::from_v(1.0)), None, Some(Voltage::from_v(0.9))];
        let rmse =
            reconstruction_rmse(&bins, |i| Time::from_ns(i as f64), |_| 0.95, Time::ZERO).unwrap();
        assert!((rmse - 0.05).abs() < 1e-12);
        assert!(reconstruction_rmse(&[None, None], |_| Time::ZERO, |_| 0.0, Time::ZERO).is_none());
    }
}
