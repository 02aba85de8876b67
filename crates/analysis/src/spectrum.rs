//! Spectral estimation of measured noise.
//!
//! A verification engineer pointing the sensor at an unknown rail wants
//! the *frequency* of the dominant noise — is it the package resonance,
//! a clock harmonic, a regulator artifact? This module estimates single
//! frequencies from irregularly timed `(t, v)` samples (the natural
//! output of iterated sensor measures) using direct discrete-Fourier
//! projections, which unlike an FFT need no uniform resampling.
//!
//! # Examples
//!
//! ```
//! use psnt_analysis::spectrum::dominant_frequency;
//! use psnt_cells::units::{Frequency, Time};
//!
//! // 35 mV of 50 MHz ripple sampled at 4 ns.
//! let samples: Vec<(Time, f64)> = (0..200)
//!     .map(|k| {
//!         let t = Time::from_ns(4.0 * k as f64);
//!         (t, 0.94 + 0.035 * (std::f64::consts::TAU * 50.0e6 * t.seconds()).sin())
//!     })
//!     .collect();
//! let (f, amp) = dominant_frequency(
//!     &samples, Frequency::from_mhz(10.0), Frequency::from_mhz(100.0), 400,
//! ).unwrap();
//! assert!((f.hertz() - 50.0e6).abs() < 1.0e6);
//! assert!((amp - 0.035).abs() < 0.005);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use psnt_cells::units::{Frequency, Time};
use serde::{Deserialize, Serialize};

/// One spectral sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectrumPoint {
    /// The analysis frequency.
    pub frequency: Frequency,
    /// Estimated sinusoid amplitude at that frequency (same unit as the
    /// input values).
    pub amplitude: f64,
}

/// Projects mean-removed samples onto `cos`/`sin` at one frequency and
/// returns the implied sinusoid amplitude. Robust to irregular sampling
/// (least-squares single-tone fit under the near-orthogonality of the
/// quadratures).
///
/// Returns 0 for fewer than two samples.
fn amplitude_at(samples: &[(Time, f64)], f: Frequency) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().map(|&(_, v)| v).sum::<f64>() / n;
    let w = std::f64::consts::TAU * f.hertz();
    let (mut c, mut s) = (0.0f64, 0.0f64);
    for &(t, v) in samples {
        let phase = w * t.seconds();
        c += (v - mean) * phase.cos();
        s += (v - mean) * phase.sin();
    }
    2.0 * (c * c + s * s).sqrt() / n
}

/// Sweeps `bins` log-spaced frequencies in `[lo, hi]` and returns the
/// spectrum.
///
/// # Panics
///
/// Panics if `bins < 2` or the bounds are not positive and increasing.
pub fn spectrum(
    samples: &[(Time, f64)],
    lo: Frequency,
    hi: Frequency,
    bins: usize,
) -> Vec<SpectrumPoint> {
    assert!(bins >= 2, "need at least two bins");
    assert!(lo.hertz() > 0.0 && hi > lo, "bad frequency bounds");
    let (l0, l1) = (lo.hertz().log10(), hi.hertz().log10());
    (0..bins)
        .map(|i| {
            let f = Frequency::from_hz(10f64.powf(l0 + (l1 - l0) * i as f64 / (bins - 1) as f64));
            SpectrumPoint {
                frequency: f,
                amplitude: amplitude_at(samples, f),
            }
        })
        .collect()
}

/// The spectral line width of an observation window: a tone projected
/// over a span `T` has a main lobe of width ≈ `1/T`, so any search grid
/// must step by at most half of that or it will straddle the line.
pub fn resolution(samples: &[(Time, f64)]) -> Option<Frequency> {
    let t_min = samples.iter().map(|&(t, _)| t).min_by(Time::total_cmp)?;
    let t_max = samples.iter().map(|&(t, _)| t).max_by(Time::total_cmp)?;
    let span = (t_max - t_min).seconds();
    (span > 0.0).then(|| Frequency::from_hz(1.0 / span))
}

/// A display-friendly log-binned envelope: each of the `bins` log bins
/// reports the *maximum* amplitude over a resolution-aware linear
/// sub-sweep, so narrow lines cannot fall between bins.
///
/// # Panics
///
/// Panics on invalid bounds (see [`spectrum`]).
pub fn spectrum_envelope(
    samples: &[(Time, f64)],
    lo: Frequency,
    hi: Frequency,
    bins: usize,
) -> Vec<SpectrumPoint> {
    assert!(bins >= 2, "need at least two bins");
    assert!(lo.hertz() > 0.0 && hi > lo, "bad frequency bounds");
    let df = resolution(samples).map_or(f64::INFINITY, |r| r.hertz() / 2.0);
    let (l0, l1) = (lo.hertz().log10(), hi.hertz().log10());
    (0..bins)
        .map(|i| {
            let f_a = 10f64.powf(l0 + (l1 - l0) * i as f64 / bins as f64);
            let f_b = 10f64.powf(l0 + (l1 - l0) * (i + 1) as f64 / bins as f64);
            let steps = (((f_b - f_a) / df).ceil() as usize).clamp(1, 400);
            let amplitude = (0..=steps)
                .map(|k| {
                    let f = f_a + (f_b - f_a) * k as f64 / steps as f64;
                    amplitude_at(samples, Frequency::from_hz(f))
                })
                .fold(0.0, f64::max);
            SpectrumPoint {
                frequency: Frequency::from_hz((f_a * f_b).sqrt()),
                amplitude,
            }
        })
        .collect()
}

/// Finds the dominant tone: a resolution-aware linear sweep (grid step
/// `min((hi−lo)/bins, 1/(2·span))`, capped at 40 000 points) followed by
/// a golden-section refinement around the best grid point. Returns
/// `(frequency, amplitude)`, or `None` with fewer than four samples.
///
/// # Panics
///
/// Panics on invalid bounds (see [`spectrum`]).
pub fn dominant_frequency(
    samples: &[(Time, f64)],
    lo: Frequency,
    hi: Frequency,
    bins: usize,
) -> Option<(Frequency, f64)> {
    assert!(bins >= 2, "need at least two bins");
    assert!(lo.hertz() > 0.0 && hi > lo, "bad frequency bounds");
    if samples.len() < 4 {
        return None;
    }
    let span_hz = hi.hertz() - lo.hertz();
    let df_window = resolution(samples).map_or(span_hz / bins as f64, |r| r.hertz() / 2.0);
    let n = ((span_hz / df_window.min(span_hz / bins as f64)).ceil() as usize).clamp(bins, 40_000);
    let step = span_hz / n as f64;
    let mut best = (lo.hertz(), 0.0f64);
    for k in 0..=n {
        let f = lo.hertz() + step * k as f64;
        let a = amplitude_at(samples, Frequency::from_hz(f));
        if a > best.1 {
            best = (f, a);
        }
    }
    // Refine between the neighbours of the best grid point.
    let f_lo = (best.0 - step).max(lo.hertz());
    let f_hi = (best.0 + step).min(hi.hertz());
    if f_hi <= f_lo {
        let f = Frequency::from_hz(best.0);
        return Some((f, amplitude_at(samples, f)));
    }
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (f_lo, f_hi);
    let eval = |f: f64| amplitude_at(samples, Frequency::from_hz(f));
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let (mut fc, mut fd) = (eval(c), eval(d));
    for _ in 0..80 {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = eval(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = eval(d);
        }
    }
    let f = Frequency::from_hz((a + b) / 2.0);
    Some((f, amplitude_at(samples, f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tone(f_hz: f64, amp: f64, n: usize, dt_ns: f64, phase: f64) -> Vec<(Time, f64)> {
        (0..n)
            .map(|k| {
                let t = Time::from_ns(dt_ns * k as f64);
                (t, 1.0 + amp * (TAU * f_hz * t.seconds() + phase).sin())
            })
            .collect()
    }

    #[test]
    fn amplitude_of_a_pure_tone() {
        let samples = tone(50.0e6, 0.03, 400, 1.7, 0.4);
        let a = amplitude_at(&samples, Frequency::from_mhz(50.0));
        assert!((a - 0.03).abs() < 0.002, "{a}");
        // Off-tone projection is small.
        let off = amplitude_at(&samples, Frequency::from_mhz(18.0));
        assert!(off < 0.006, "{off}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(amplitude_at(&[], Frequency::from_mhz(1.0)), 0.0);
        assert_eq!(
            amplitude_at(&[(Time::ZERO, 1.0)], Frequency::from_mhz(1.0)),
            0.0
        );
        assert!(dominant_frequency(
            &tone(1.0e6, 0.1, 3, 10.0, 0.0),
            Frequency::from_mhz(0.1),
            Frequency::from_mhz(10.0),
            10
        )
        .is_none());
    }

    #[test]
    fn dominant_frequency_recovers_the_tone() {
        let samples = tone(73.0e6, 0.025, 500, 2.3, 1.1);
        let (f, amp) = dominant_frequency(
            &samples,
            Frequency::from_mhz(10.0),
            Frequency::from_mhz(300.0),
            300,
        )
        .unwrap();
        assert!(
            (f.hertz() - 73.0e6).abs() / 73.0e6 < 0.02,
            "estimated {:.3e}",
            f.hertz()
        );
        assert!((amp - 0.025).abs() < 0.004, "{amp}");
    }

    #[test]
    fn irregular_sampling_supported() {
        // Deliberately jittered timestamps (equivalent-time style).
        let samples: Vec<(Time, f64)> = (0..400)
            .map(|k| {
                let jitter = ((k * 7919) % 13) as f64 * 0.11;
                let t = Time::from_ns(3.0 * k as f64 + jitter);
                (t, 0.9 + 0.04 * (TAU * 40.0e6 * t.seconds()).sin())
            })
            .collect();
        let (f, _) = dominant_frequency(
            &samples,
            Frequency::from_mhz(5.0),
            Frequency::from_mhz(200.0),
            300,
        )
        .unwrap();
        assert!(
            (f.hertz() - 40.0e6).abs() / 40.0e6 < 0.03,
            "{:.3e}",
            f.hertz()
        );
    }

    #[test]
    fn spectrum_shape() {
        let samples = tone(50.0e6, 0.05, 300, 1.9, 0.0);
        let sp = spectrum(
            &samples,
            Frequency::from_mhz(10.0),
            Frequency::from_mhz(200.0),
            60,
        );
        assert_eq!(sp.len(), 60);
        let peak = sp
            .iter()
            .max_by(|a, b| a.amplitude.total_cmp(&b.amplitude))
            .unwrap();
        assert!((peak.frequency.hertz() - 50.0e6).abs() / 50.0e6 < 0.12);
    }

    #[test]
    #[should_panic(expected = "bad frequency bounds")]
    fn spectrum_bounds_checked() {
        let samples = tone(1.0e6, 0.1, 10, 10.0, 0.0);
        let _ = spectrum(
            &samples,
            Frequency::from_mhz(2.0),
            Frequency::from_mhz(1.0),
            10,
        );
    }
}
