//! The complete sensor system — paper Fig. 6.
//!
//! A [`SensorSystem`] bundles the HIGH-SENSE array (observing `VDD-n`),
//! the LOW-SENSE array (observing `GND-n`), the pulse generator, the
//! control FSM and the encoder. It runs the PREPARE/SENSE sequence
//! against supply and ground *waveforms* (from `psnt-pdn`), producing a
//! stream of timestamped [`Measurement`]s — the digital noise samples the
//! paper would ship off-chip for verification or hand to an on-chip
//! power-aware policy.
//!
//! The separation of the two arrays follows the paper: "HS-INV have
//! nominal Ground, and, viceversa, LS-INV have nominal PS", so the two
//! rails are measured independently and without interference — the
//! property the ring-oscillator baseline in [`crate::baseline`]
//! fundamentally lacks.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::Time;
//! use psnt_core::system::{SensorConfig, SensorSystem};
//! use psnt_ctx::RunCtx;
//! use psnt_pdn::waveform::Waveform;
//!
//! let mut system = SensorSystem::new(SensorConfig::default())?;
//! let mut ctx = RunCtx::serial();
//! let vdd = Waveform::constant(1.0);
//! let gnd = Waveform::constant(0.0);
//! let measures = system.run(&mut ctx, &vdd, &gnd, Time::ZERO, 2)?;
//! assert_eq!(measures.len(), 2);
//! assert_eq!(measures[0].hs_code.to_string(), "0011111"); // Fig. 9
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use psnt_cells::process::Pvt;
use psnt_cells::units::{Time, Voltage};
use psnt_ctx::RunCtx;
use psnt_obs::Event as ObsEvent;
use psnt_pdn::waveform::Waveform;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::calibration::{trim_for_corner, TrimResult};
use crate::code::ThermometerCode;
use crate::control::{Controller, CtrlInputs};
use crate::element::RailMode;
use crate::encoder::{Encoder, EncodingPolicy, OuteWord, LEVEL_TABLE_MAX_BITS};
use crate::error::SensorError;
use crate::pulsegen::{DelayCode, PulseGenerator};
use crate::thermometer::{CodeInterval, OperatingPoint, ThermometerArray};

/// Static configuration of a sensor system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Delay code for the HIGH-SENSE (VDD) array.
    pub hs_code: DelayCode,
    /// Delay code for the LOW-SENSE (GND) array.
    pub ls_code: DelayCode,
    /// The control-system clock period (must exceed the CNTR critical
    /// path; the paper's 1.22 ns supports "most typical CUT clocks").
    pub clock_period: Time,
    /// Operating point of the clean (control) domain.
    pub pvt: Pvt,
    /// Bubble-handling policy of the ENC block.
    pub encoding: EncodingPolicy,
}

impl Default for SensorConfig {
    fn default() -> SensorConfig {
        SensorConfig {
            // Delay code 011, the code Fig. 9 demonstrates.
            hs_code: DelayCode::new(3).expect("static code"),
            ls_code: DelayCode::new(3).expect("static code"),
            clock_period: Time::from_ns(2.0),
            pvt: Pvt::typical(),
            encoding: EncodingPolicy::BubbleCorrect,
        }
    }
}

/// One complete two-rail measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// The SENSE instant (CP edge at the sensor pins).
    pub at: Time,
    /// Raw HIGH-SENSE thermometer code.
    pub hs_code: ThermometerCode,
    /// Raw LOW-SENSE thermometer code.
    pub ls_code: ThermometerCode,
    /// Encoded HS noise word.
    pub hs_word: OuteWord,
    /// Encoded LS noise word.
    pub ls_word: OuteWord,
    /// Decoded VDD-n interval.
    pub hs_interval: CodeInterval,
    /// Decoded GND-n interval.
    pub ls_interval: CodeInterval,
}

/// The assembled sensor system.
///
/// The two arrays are held at their operating points (the configured
/// delay codes and PVT point), rebuilt whenever those change, so a
/// measurement solves nothing and a threshold-solve failure surfaces
/// where the codes are set, not at the next read. A deserialised
/// system rebuilds them the same way.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SensorSystem {
    hs: ThermometerArray,
    ls: ThermometerArray,
    pg: PulseGenerator,
    #[serde(skip)]
    ctrl: Controller,
    hs_encoder: Encoder,
    ls_encoder: Encoder,
    config: SensorConfig,
    #[serde(skip)]
    hs_at: OperatingPoint,
    #[serde(skip)]
    ls_at: OperatingPoint,
    /// The HIGH-SENSE encoder's level of every binary code, indexed by
    /// the packed pass bits ([`Encoder::level_table`]).
    #[serde(skip)]
    hs_levels: Box<[u8]>,
}

/// The serialised fields of a [`SensorSystem`]; the operating points
/// and the level table are derived from them.
#[derive(Deserialize)]
struct SensorParts {
    hs: ThermometerArray,
    ls: ThermometerArray,
    pg: PulseGenerator,
    hs_encoder: Encoder,
    ls_encoder: Encoder,
    config: SensorConfig,
}

impl Deserialize for SensorSystem {
    fn from_value(v: &Value) -> Result<SensorSystem, DeError> {
        SensorSystem::from_parts(SensorParts::from_value(v)?)
            .map_err(|e| DeError::new(e.to_string()))
    }
}

impl SensorSystem {
    fn from_parts(p: SensorParts) -> Result<SensorSystem, SensorError> {
        if p.hs_encoder.width() != p.hs.bits()
            || p.ls_encoder.width() != p.ls.bits()
            || p.hs.bits() > LEVEL_TABLE_MAX_BITS
        {
            return Err(SensorError::InvalidConfig {
                name: "encoder",
                reason: format!(
                    "encoders of {} and {} bits for arrays of {} and {} \
                     (HIGH-SENSE at most {LEVEL_TABLE_MAX_BITS})",
                    p.hs_encoder.width(),
                    p.ls_encoder.width(),
                    p.hs.bits(),
                    p.ls.bits()
                ),
            });
        }
        let (hs_at, ls_at) = operating_points(&p.hs, &p.ls, &p.pg, &p.config)?;
        Ok(SensorSystem {
            hs_levels: p.hs_encoder.level_table(),
            hs: p.hs,
            ls: p.ls,
            pg: p.pg,
            ctrl: Controller::new(None),
            hs_encoder: p.hs_encoder,
            ls_encoder: p.ls_encoder,
            config: p.config,
            hs_at,
            ls_at,
        })
    }
}

/// The HIGH-SENSE and LOW-SENSE arrays at `config`'s delay codes and
/// PVT point, solved in that order (so a HIGH-SENSE failure is the one
/// reported when both fail).
fn operating_points(
    hs: &ThermometerArray,
    ls: &ThermometerArray,
    pg: &PulseGenerator,
    config: &SensorConfig,
) -> Result<(OperatingPoint, OperatingPoint), SensorError> {
    let pvt = &config.pvt;
    let hs_at = hs.at(pg.skew(config.hs_code, pvt), pvt)?;
    let ls_at = ls.at(pg.skew(config.ls_code, pvt), pvt)?;
    Ok((hs_at, ls_at))
}

impl SensorSystem {
    /// Builds the paper's system: two 7-bit arrays over the Fig. 5
    /// ladder, the published PG table, and the Fig. 8 controller.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for a clock period that the
    /// control system cannot meet (below 1.5 ns), and propagates a
    /// threshold-solve failure at the configured delay codes and PVT
    /// point (HIGH-SENSE first).
    pub fn new(config: SensorConfig) -> Result<SensorSystem, SensorError> {
        if config.clock_period < Time::from_ps(1500.0) {
            return Err(SensorError::InvalidConfig {
                name: "clock_period",
                reason: format!(
                    "{} is below the CNTR critical path headroom (1.5 ns floor)",
                    config.clock_period
                ),
            });
        }
        SensorSystem::assemble(
            ThermometerArray::paper(RailMode::Supply),
            ThermometerArray::paper(RailMode::Ground),
            config,
        )
    }

    /// The system over explicit arrays and the paper's PG table.
    fn assemble(
        hs: ThermometerArray,
        ls: ThermometerArray,
        config: SensorConfig,
    ) -> Result<SensorSystem, SensorError> {
        SensorSystem::from_parts(SensorParts {
            hs_encoder: Encoder::new(hs.bits(), config.encoding)?,
            ls_encoder: Encoder::new(ls.bits(), config.encoding)?,
            hs,
            ls,
            pg: PulseGenerator::paper_table(),
            config,
        })
    }

    /// Moves both arrays to `config`'s operating points. On a failed
    /// threshold solve the system keeps its previous configuration.
    fn retune(&mut self, config: SensorConfig) -> Result<(), SensorError> {
        (self.hs_at, self.ls_at) = operating_points(&self.hs, &self.ls, &self.pg, &config)?;
        self.config = config;
        Ok(())
    }

    /// The active configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// The HIGH-SENSE array.
    pub fn hs_array(&self) -> &ThermometerArray {
        &self.hs
    }

    /// The pulse generator.
    pub fn pulse_generator(&self) -> &PulseGenerator {
        &self.pg
    }

    /// The HIGH-SENSE array at its configured operating point.
    pub fn hs_point(&self) -> &OperatingPoint {
        &self.hs_at
    }

    /// Reprograms the delay codes on-site — the paper's dynamic-range
    /// adaptation.
    ///
    /// # Errors
    ///
    /// Propagates a threshold-solve failure at the new codes
    /// (HIGH-SENSE first); the system then keeps its previous codes.
    pub fn set_delay_codes(&mut self, hs: DelayCode, ls: DelayCode) -> Result<(), SensorError> {
        self.retune(SensorConfig {
            hs_code: hs,
            ls_code: ls,
            ..self.config.clone()
        })
    }

    /// Retrims both arrays' delay codes for a different operating point
    /// against the current typical characteristic — the paper's
    /// process-variation-aware configuration. Returns the (HS, LS) trim
    /// results and applies the codes.
    ///
    /// The code sweep runs on the context's engine; when the context
    /// carries an observer, the chosen codes and residuals of each trim
    /// decision are logged as a `sensor`/`trim` event.
    ///
    /// # Errors
    ///
    /// Propagates characterisation failures and a threshold-solve
    /// failure at the trimmed operating points; the system then keeps
    /// its previous configuration.
    pub fn trim(
        &mut self,
        ctx: &mut RunCtx<'_>,
        corner: &Pvt,
    ) -> Result<(TrimResult, TrimResult), SensorError> {
        let hs_trim = trim_for_corner(
            ctx,
            &self.hs,
            &self.pg,
            self.config.hs_code,
            &self.config.pvt,
            corner,
        )?;
        let ls_trim = trim_for_corner(
            ctx,
            &self.ls,
            &self.pg,
            self.config.ls_code,
            &self.config.pvt,
            corner,
        )?;
        self.retune(SensorConfig {
            hs_code: hs_trim.code,
            ls_code: ls_trim.code,
            pvt: *corner,
            ..self.config.clone()
        })?;
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("sensor.trims", 1);
            obs.event(
                ObsEvent::new("sensor", "trim")
                    .field("corner", &format!("{:?}", corner.corner))
                    .field("hs_code", &hs_trim.code.value())
                    .field("ls_code", &ls_trim.code.value())
                    .field("hs_residual_mv", &(hs_trim.residual.volts() * 1e3))
                    .field("ls_residual_mv", &(ls_trim.residual.volts() * 1e3)),
            );
        }
        Ok((hs_trim, ls_trim))
    }

    /// The PREPARE-phase output of the HS array — always the all-fail
    /// pattern (`0000000` in the paper's Fig. 9 annotation).
    pub fn hs_prepare_code(&self) -> ThermometerCode {
        ThermometerCode::from_fail_count(self.hs.bits(), self.hs.bits())
    }

    /// Performs one measurement with the SENSE instant at `at`. The rail
    /// values are averaged over the P→CP window, modelling the inverter
    /// integrating the supply across its transition.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::WaveformGap`] when a waveform does not cover
    /// the window, and propagates decode failures.
    pub fn measure_at(
        &self,
        vdd: &Waveform,
        gnd: &Waveform,
        at: Time,
    ) -> Result<Measurement, SensorError> {
        let v = self.window_value(vdd, at, self.hs_at.skew())?;
        let g = self.window_value(gnd, at, self.ls_at.skew())?;
        self.package(at, self.hs_at.measure(v), self.ls_at.measure(g))
    }

    /// Performs one measurement from *instantaneous* rail values instead
    /// of waveform windows — the causal sensing path of the cycle-stepped
    /// co-simulation loop. Mid-transient only the rail state up to the
    /// current cycle exists, so the P→CP averaging window of
    /// [`SensorSystem::measure_at`] (which spans into the next cycle's
    /// samples) cannot be formed without peeking at the future; this
    /// entry point holds the rails at their current values across the
    /// sense window instead. `at` only timestamps the result. On a
    /// constant waveform the two paths agree exactly.
    ///
    /// # Errors
    ///
    /// Propagates decode failures (none at the arrays' own width).
    pub fn measure_value(
        &self,
        vdd: Voltage,
        gnd: Voltage,
        at: Time,
    ) -> Result<Measurement, SensorError> {
        self.package(at, self.hs_at.measure(vdd), self.ls_at.measure(gnd))
    }

    // SENSE READ PATH START
    /// The HIGH-SENSE level of one instantaneous measurement: exactly
    /// `measure_value(vdd, 0 V, at)?.hs_word.level` for any `at`,
    /// without the LOW-SENSE measure, the decodes or the words. The
    /// array's pass bits, packed into an integer, index the encoder's
    /// level table: no lock, no allocation, nothing re-solved.
    pub fn hs_level(&self, vdd: Voltage) -> usize {
        usize::from(self.hs_levels[self.hs_at.passed_bits(vdd) as usize])
    }
    // SENSE READ PATH END

    fn window_value(&self, wave: &Waveform, at: Time, skew: Time) -> Result<Voltage, SensorError> {
        if at < wave.start() || at + skew > wave.end() {
            // Constant waveforms extend infinitely by definition.
            if !wave.is_constant() {
                return Err(SensorError::WaveformGap {
                    at_ps: at.picoseconds(),
                });
            }
        }
        Ok(Voltage::from_v(
            wave.mean_over(at, at + skew.max(Time::from_ps(1.0))),
        ))
    }

    fn package(
        &self,
        at: Time,
        hs_code: ThermometerCode,
        ls_code: ThermometerCode,
    ) -> Result<Measurement, SensorError> {
        let hs_word = self.hs_encoder.encode(&hs_code);
        let ls_word = self.ls_encoder.encode(&ls_code);
        let hs_interval = self.hs_at.decode(&hs_code)?;
        let ls_interval = self.ls_at.decode(&ls_code)?;
        Ok(Measurement {
            at,
            hs_code,
            ls_code,
            hs_word,
            ls_word,
            hs_interval,
            ls_interval,
        })
    }

    /// Runs the control FSM from `from` and collects `count` measurements.
    /// Each measure occupies the Fig. 8 sequence (READY → S_PRP0 → S_PRP →
    /// S_SNS0 → SENSE), i.e. one SENSE every five control-clock cycles;
    /// the SENSE instant includes the PG's CP-path delay.
    ///
    /// When the context carries an observer, FSM state transitions,
    /// each measurement, and any metastability incident (a bubbled or
    /// unresolved raw code) are logged through it; the
    /// `sensor.measures` / `sensor.metastability_incidents` counters
    /// accumulate in its registry. Measurement results are identical
    /// with and without an observer.
    ///
    /// # Errors
    ///
    /// Propagates [`SensorSystem::measure_at`] failures.
    pub fn run(
        &mut self,
        ctx: &mut RunCtx<'_>,
        vdd: &Waveform,
        gnd: &Waveform,
        from: Time,
        count: usize,
    ) -> Result<Vec<Measurement>, SensorError> {
        self.ctrl.reset();
        let inputs = CtrlInputs {
            enable: true,
            start: true,
        };
        let mut out = Vec::with_capacity(count);
        let mut cycle: u64 = 0;
        // Divergence guard: 5 cycles per measure plus pipeline fill.
        let max_cycles = (count as u64 + 2) * 6 + 4;
        while out.len() < count && cycle < max_cycles {
            let cycle_start = from + self.config.clock_period * (cycle as f64);
            let step = self.ctrl.step_ctx(ctx, inputs, cycle_start);
            cycle += 1;
            if step.capture {
                let sense_at =
                    cycle_start + self.pg.emit(self.config.hs_code, &self.config.pvt).cp_edge;
                let m = self.measure_at(vdd, gnd, sense_at)?;
                if let Some(obs) = ctx.observer() {
                    obs.metrics.counter_add("sensor.measures", 1);
                    // A bubbled word whose encoder runs BubbleCorrect
                    // was repaired in flight: count each repair so
                    // degraded runs are visible in telemetry (the
                    // `characterize` footer surfaces this).
                    let corrected = [
                        (self.hs_encoder.policy(), m.hs_word.bubbled),
                        (self.ls_encoder.policy(), m.ls_word.bubbled),
                    ]
                    .iter()
                    .filter(|(p, b)| *b && *p == EncodingPolicy::BubbleCorrect)
                    .count();
                    if corrected > 0 {
                        obs.metrics
                            .counter_add("encoder.bubbles_corrected", corrected as u64);
                    }
                    if m.hs_word.bubbled || m.ls_word.bubbled {
                        obs.metrics.counter_add("sensor.metastability_incidents", 1);
                        obs.event(
                            ObsEvent::new("sensor", "metastability")
                                .at(sense_at)
                                .field("hs_code", &m.hs_code.to_string())
                                .field("ls_code", &m.ls_code.to_string()),
                        );
                    }
                    obs.event(
                        ObsEvent::new("sensor", "measure")
                            .at(sense_at)
                            .field("hs_level", &(m.hs_word.level as u64))
                            .field("ls_level", &(m.ls_word.level as u64)),
                    );
                }
                out.push(m);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_pdn::sources::supply_step;

    fn system() -> SensorSystem {
        SensorSystem::new(SensorConfig::default()).unwrap()
    }

    #[test]
    fn clock_floor_enforced() {
        let cfg = SensorConfig {
            clock_period: Time::from_ns(1.0),
            ..SensorConfig::default()
        };
        assert!(matches!(
            SensorSystem::new(cfg),
            Err(SensorError::InvalidConfig {
                name: "clock_period",
                ..
            })
        ));
    }

    #[test]
    fn fig9_two_measure_sequence() {
        // Paper Fig. 9: delay code 011, first measure at VDD-n = 1 V gives
        // 0011111 (range 0.992–1.021 V), second at 0.9 V gives 0000011
        // (range 0.896–0.929 V); PREPARE reads 0000000.
        let mut sys = system();
        assert_eq!(sys.hs_prepare_code().to_string(), "0000000");
        // A supply that steps 1.0 → 0.9 V between the two measures.
        let end = Time::from_us(1.0);
        let vdd = supply_step(
            Voltage::from_v(1.0),
            Voltage::from_v(0.9),
            Time::from_ns(15.0),
            end,
        )
        .unwrap();
        let gnd = Waveform::constant(0.0);
        let measures = sys
            .run(&mut RunCtx::serial(), &vdd, &gnd, Time::ZERO, 2)
            .unwrap();
        assert_eq!(measures.len(), 2);

        let first = &measures[0];
        assert_eq!(first.hs_code.to_string(), "0011111");
        assert!((first.hs_interval.lower.unwrap().volts() - 0.992).abs() < 0.003);
        assert!((first.hs_interval.upper.unwrap().volts() - 1.021).abs() < 0.003);

        let second = &measures[1];
        assert_eq!(second.hs_code.to_string(), "0000011");
        assert!((second.hs_interval.lower.unwrap().volts() - 0.896).abs() < 0.003);
        assert!((second.hs_interval.upper.unwrap().volts() - 0.929).abs() < 0.003);

        // The measures reflect the two "input" noise values.
        assert!(first.hs_interval.contains(Voltage::from_v(1.0)));
        assert!(second.hs_interval.contains(Voltage::from_v(0.9)));
    }

    #[test]
    fn sense_instants_progress_with_the_fsm() {
        let mut sys = system();
        let vdd = Waveform::constant(1.0);
        let gnd = Waveform::constant(0.0);
        let measures = sys
            .run(&mut RunCtx::serial(), &vdd, &gnd, Time::ZERO, 3)
            .unwrap();
        // One SENSE per 5 control cycles.
        let spacing = measures[1].at - measures[0].at;
        assert_eq!(spacing, sys.config().clock_period * 5.0);
        assert_eq!(measures[2].at - measures[1].at, spacing);
        assert!(measures[0].at > Time::ZERO);
    }

    #[test]
    fn both_rails_measured_independently() {
        // Droop on VDD only: HS reacts, LS stays at its quiet code.
        let sys = system();
        let gnd = Waveform::constant(0.0);
        let quiet = sys
            .measure_at(&Waveform::constant(1.0), &gnd, Time::from_ns(10.0))
            .unwrap();
        let droop = sys
            .measure_at(&Waveform::constant(0.93), &gnd, Time::from_ns(10.0))
            .unwrap();
        assert!(droop.hs_word.level < quiet.hs_word.level);
        assert_eq!(droop.ls_code, quiet.ls_code);

        // Bounce on GND only: LS reacts, HS unchanged.
        let bounce = sys
            .measure_at(
                &Waveform::constant(1.0),
                &Waveform::constant(0.08),
                Time::from_ns(10.0),
            )
            .unwrap();
        assert!(bounce.ls_word.level < quiet.ls_word.level);
        assert_eq!(bounce.hs_code, quiet.hs_code);
    }

    #[test]
    fn window_averaging_smooths_fast_noise() {
        // A spike far narrower than the sense window is averaged down.
        let sys = system();
        let spike = Waveform::from_points(vec![
            (Time::ZERO, 1.0),
            (Time::from_ps(10_000.0), 1.0),
            (Time::from_ps(10_003.0), 0.8),
            (Time::from_ps(10_006.0), 1.0),
            (Time::from_ns(40.0), 1.0),
        ])
        .unwrap();
        let gnd = Waveform::constant(0.0);
        let m = sys
            .measure_at(&spike, &gnd, Time::from_ps(9_950.0))
            .unwrap();
        // Instantaneous sampling at the spike bottom (0.8 V) would read
        // all-errors; the 6 ps × 0.2 V spike dilutes to ~4 mV over the
        // 149 ps window, so the nominal code survives.
        assert_eq!(m.hs_code.to_string(), "0011111");
    }

    #[test]
    fn instantaneous_measure_matches_windowed_on_constant_rails() {
        let sys = system();
        for (v, g) in [(1.0, 0.0), (0.93, 0.0), (1.0, 0.08), (0.9, 0.05)] {
            let windowed = sys
                .measure_at(
                    &Waveform::constant(v),
                    &Waveform::constant(g),
                    Time::from_ns(10.0),
                )
                .unwrap();
            let instant = sys
                .measure_value(Voltage::from_v(v), Voltage::from_v(g), Time::from_ns(10.0))
                .unwrap();
            assert_eq!(instant, windowed, "rails ({v}, {g})");
        }
    }

    #[test]
    fn waveform_gap_detected() {
        let sys = system();
        let short = supply_step(
            Voltage::from_v(1.0),
            Voltage::from_v(0.9),
            Time::from_ns(5.0),
            Time::from_ns(10.0),
        )
        .unwrap();
        let gnd = Waveform::constant(0.0);
        let err = sys
            .measure_at(&short, &gnd, Time::from_ns(50.0))
            .unwrap_err();
        assert!(matches!(err, SensorError::WaveformGap { .. }));
    }

    #[test]
    fn dynamic_range_reprogramming() {
        let mut sys = system();
        let vdd = Waveform::constant(1.15);
        let gnd = Waveform::constant(0.0);
        // With code 011 a 1.15 V rail saturates high.
        let sat = sys.measure_at(&vdd, &gnd, Time::from_ns(10.0)).unwrap();
        assert!(sat.hs_word.overflow);
        // Code 010 shifts the range up ("also overvoltages can be
        // measured"): the same rail now resolves.
        sys.set_delay_codes(DelayCode::new(2).unwrap(), DelayCode::new(3).unwrap())
            .unwrap();
        let resolved = sys.measure_at(&vdd, &gnd, Time::from_ns(10.0)).unwrap();
        assert!(!resolved.hs_word.overflow && !resolved.hs_word.underflow);
        assert!(resolved.hs_interval.contains(Voltage::from_v(1.15)));
    }

    #[test]
    fn trim_applies_new_codes() {
        use psnt_cells::process::ProcessCorner;
        use psnt_cells::units::Temperature;
        let mut sys = system();
        let ss = Pvt::new(
            ProcessCorner::SS,
            Voltage::from_v(1.0),
            Temperature::from_celsius(25.0),
        );
        let (hs_trim, ls_trim) = sys.trim(&mut RunCtx::serial(), &ss).unwrap();
        assert_eq!(sys.config().hs_code, hs_trim.code);
        assert_eq!(sys.config().ls_code, ls_trim.code);
        assert_eq!(sys.config().pvt, ss);
        assert!(hs_trim.residual <= hs_trim.untrimmed_residual);
    }

    #[test]
    fn measurement_tracks_a_droop_event() {
        use psnt_cells::units::Frequency;
        use psnt_pdn::sources::SupplyNoiseBuilder;
        let mut sys = system();
        let vdd = SupplyNoiseBuilder::new(Voltage::from_v(1.0))
            .span(Time::ZERO, Time::from_us(1.0))
            .resolution(Time::from_ps(100.0))
            // A slow (overdamped-looking) droop so the 10 ns sampling
            // cadence cannot alias over it.
            .droop(
                Time::from_ns(40.0),
                Voltage::from_mv(100.0),
                Time::from_ns(20.0),
                Frequency::from_mhz(4.0),
            )
            .build()
            .unwrap();
        let gnd = Waveform::constant(0.0);
        let measures = sys
            .run(&mut RunCtx::serial(), &vdd, &gnd, Time::ZERO, 40)
            .unwrap();
        let levels: Vec<usize> = measures.iter().map(|m| m.hs_word.level).collect();
        let min_level = *levels.iter().min().unwrap();
        let first = levels[0];
        let last = *levels.last().unwrap();
        // The droop pulls some mid-run measures below the steady level,
        // and the rail recovers by the end.
        assert!(min_level < first, "droop not captured: {levels:?}");
        assert_eq!(first, last, "rail should recover: {levels:?}");
    }

    /// A 7-element array for `mode`, its inverters' threshold at
    /// `vth_v`, whose most-loaded element sits far beyond the threshold
    /// search range, so every threshold solve on it fails (with an
    /// error that names the search range, hence `vth_v`).
    fn unsolvable_array(mode: RailMode, vth_v: f64) -> ThermometerArray {
        use crate::element::SenseElement;
        use crate::thermometer::CapacitorLadder;
        use psnt_cells::delay::AlphaPowerDelay;
        use psnt_cells::dff::Dff;
        use psnt_cells::units::Capacitance;
        let mut caps = CapacitorLadder::paper_fig5().caps().to_vec();
        caps[6] = Capacitance::from_pf(40.0);
        let inv = AlphaPowerDelay::new(
            32.0,
            Capacitance::from_ff(205.0),
            Time::ZERO,
            Voltage::from_v(vth_v),
            1.3,
        )
        .unwrap();
        let elements = caps
            .into_iter()
            .map(|c| SenseElement::new(inv, Dff::standard_90nm(), c, mode))
            .collect();
        ThermometerArray::from_elements(elements, mode)
    }

    /// The configuration at HIGH-SENSE delay code `hs` and `corner`
    /// (0 TT, 1 SS, 2 FF), with the LOW-SENSE code rotated off the HS
    /// one.
    fn level_config(hs: u8, corner: usize) -> SensorConfig {
        SensorConfig {
            hs_code: DelayCode::new(hs).unwrap(),
            ls_code: DelayCode::new((hs + 3) % 8).unwrap(),
            pvt: [Pvt::typical(), Pvt::slow(), Pvt::fast()][corner],
            ..SensorConfig::default()
        }
    }

    #[test]
    fn broken_arrays_fail_at_construction_hs_first() {
        // `broken` bit 0 / bit 1 swaps in an unsolvable HS / LS array,
        // the two failing with different errors.
        let build = |broken: u8| {
            let hs = if broken & 1 != 0 {
                unsolvable_array(RailMode::Supply, 0.30)
            } else {
                ThermometerArray::paper(RailMode::Supply)
            };
            let ls = if broken & 2 != 0 {
                unsolvable_array(RailMode::Ground, 0.35)
            } else {
                ThermometerArray::paper(RailMode::Ground)
            };
            SensorSystem::assemble(hs, ls, level_config(3, 0))
        };
        assert!(build(0).is_ok());
        let hs_err = build(1).unwrap_err();
        let ls_err = build(2).unwrap_err();
        assert!(matches!(hs_err, SensorError::ThresholdOutOfRange { .. }));
        assert_ne!(hs_err, ls_err, "the two failures must be told apart");
        assert_eq!(build(3).unwrap_err(), hs_err);
    }

    #[test]
    fn failed_retune_keeps_the_previous_configuration() {
        let mut sys = system();
        let before = sys.clone();
        sys.hs = unsolvable_array(RailMode::Supply, 0.30);
        let codes = (DelayCode::new(2).unwrap(), DelayCode::new(2).unwrap());
        assert!(sys.set_delay_codes(codes.0, codes.1).is_err());
        assert_eq!(sys.config(), before.config());
        assert_eq!(sys.hs_point(), before.hs_point());
    }

    #[test]
    fn mismatched_encoder_widths_are_refused() {
        let wide = ThermometerArray::new(
            &crate::thermometer::CapacitorLadder::linear(
                psnt_cells::units::Capacitance::from_pf(1.75),
                psnt_cells::units::Capacitance::from_ff(30.0),
                17,
            )
            .unwrap(),
            RailMode::Supply,
        );
        let err = SensorSystem::assemble(
            wide,
            ThermometerArray::paper(RailMode::Ground),
            SensorConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SensorError::InvalidConfig {
                name: "encoder",
                ..
            }
        ));
        let mut json = serde::json::to_value(&system());
        if let serde::Value::Map(fields) = &mut json {
            let enc = fields.iter_mut().find(|(k, _)| k == "hs_encoder").unwrap();
            enc.1 = serde::json::to_value(&Encoder::new(6, EncodingPolicy::Truncate).unwrap());
        }
        assert!(serde::json::from_value::<SensorSystem>(&json).is_err());
    }

    #[test]
    fn deserialised_system_rebuilds_its_operating_points() {
        let mut sys = system();
        sys.set_delay_codes(DelayCode::new(2).unwrap(), DelayCode::new(5).unwrap())
            .unwrap();
        let json = serde::json::to_string(&sys);
        let back: SensorSystem = serde::json::from_str(&json).unwrap();
        assert_eq!(back, sys);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Rails for the level proptest: `kind` 0–1 draws `uniform`
        /// (−1 to 2.5 V), 2 a non-finite rail, 3 a HIGH-SENSE
        /// threshold ±1 ulp.
        fn pick_rail(sys: &SensorSystem, kind: u8, uniform: f64, pick: usize) -> Voltage {
            let v = match kind {
                0 | 1 => uniform,
                2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick % 3],
                _ => {
                    let th = sys.hs_point().thresholds();
                    let bits = th[pick % th.len()].volts().to_bits();
                    f64::from_bits(bits - 1 + (pick as u64 / 8) % 3)
                }
            };
            Voltage::from_v(v)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `hs_level` is `measure_value(..)?.hs_word.level` over
            /// rails from −1 to 2.5 V, non-finite rails and the
            /// thresholds ±1 ulp, at every HS delay code, the TT/SS/FF
            /// corners and both encoding policies.
            #[test]
            fn hs_level_matches_measure_value(
                rails in proptest::collection::vec((0u8..4, -1.0..2.5f64, 0usize..64), 1..16),
                corner in 0usize..3,
                truncate in any::<bool>(),
            ) {
                for hs in 0..8u8 {
                    let encoding = if truncate {
                        EncodingPolicy::Truncate
                    } else {
                        EncodingPolicy::BubbleCorrect
                    };
                    let sys = SensorSystem::new(SensorConfig {
                        encoding,
                        ..level_config(hs, corner)
                    })
                    .unwrap();
                    for &(kind, uniform, pick) in &rails {
                        let vdd = pick_rail(&sys, kind, uniform, pick);
                        let full = sys
                            .measure_value(vdd, Voltage::ZERO, Time::from_ns(1.0))
                            .unwrap()
                            .hs_word
                            .level;
                        prop_assert_eq!(sys.hs_level(vdd), full, "code {} rail {:?}", hs, vdd);
                    }
                }
            }
        }
    }
}
