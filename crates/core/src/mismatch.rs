//! Local (within-die) mismatch Monte-Carlo for the sensor array.
//!
//! The paper's corner trim handles *global* process shifts; the remaining
//! risk is *local* mismatch between the seven supposedly identical
//! INV+FF elements: random drive-strength, load and threshold-voltage
//! variation scatters the per-element thresholds and can even invert
//! their order, breaking the thermometer property (a static bubble no
//! delay code can trim out — the "fine tuning" the paper alludes to).
//!
//! [`monte_carlo_yield`] quantifies that: it draws `n` mismatched arrays
//! and reports how many keep strictly monotone thresholds, plus the
//! threshold scatter — the data behind the `xp_mismatch` ablation.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::Time;
//! use psnt_core::element::RailMode;
//! use psnt_core::mismatch::{monte_carlo_yield, MismatchModel};
//! use psnt_core::thermometer::ThermometerArray;
//! use psnt_ctx::RunCtx;
//!
//! let array = ThermometerArray::paper(RailMode::Supply);
//! let mut ctx = RunCtx::serial().with_seed(7);
//! let report = monte_carlo_yield(
//!     &mut ctx, &array, Time::from_ps(149.0), &Pvt::typical(),
//!     &MismatchModel::local_90nm(), 50,
//! )?;
//! assert_eq!(report.trials, 50);
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use psnt_cells::delay::AlphaPowerDelay;
use psnt_cells::process::Pvt;
use psnt_cells::units::{Time, Voltage};
use psnt_ctx::RunCtx;
use psnt_engine::{lane_seed, JobSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::element::SenseElement;
use crate::error::SensorError;
use crate::lanes::{self, LaneTasks, LANES};
use crate::thermometer::ThermometerArray;

/// Relative/absolute sigmas of local device variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MismatchModel {
    /// Relative sigma of the inverter drive (current factor).
    pub sigma_drive: f64,
    /// Relative sigma of the load capacitor value.
    pub sigma_load: f64,
    /// Absolute sigma of the device threshold voltage.
    pub sigma_vth: Voltage,
}

impl MismatchModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for negative sigmas.
    pub fn new(
        sigma_drive: f64,
        sigma_load: f64,
        sigma_vth: Voltage,
    ) -> Result<MismatchModel, SensorError> {
        if sigma_drive < 0.0 || sigma_load < 0.0 || sigma_vth < Voltage::ZERO {
            return Err(SensorError::InvalidConfig {
                name: "sigma",
                reason: "mismatch sigmas must be non-negative".into(),
            });
        }
        Ok(MismatchModel {
            sigma_drive,
            sigma_load,
            sigma_vth,
        })
    }

    /// Representative 90 nm local mismatch for small devices: 2 % drive,
    /// 1 % capacitor matching, 8 mV threshold sigma.
    pub fn local_90nm() -> MismatchModel {
        MismatchModel {
            sigma_drive: 0.02,
            sigma_load: 0.01,
            sigma_vth: Voltage::from_mv(8.0),
        }
    }

    /// A copy with every sigma scaled by `k` (for sigma sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `k < 0`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> MismatchModel {
        assert!(k >= 0.0, "scale must be non-negative");
        MismatchModel {
            sigma_drive: self.sigma_drive * k,
            sigma_load: self.sigma_load * k,
            sigma_vth: self.sigma_vth * k,
        }
    }

    /// Draws a mismatched copy of one element.
    pub fn perturb_element<R: Rng + ?Sized>(
        &self,
        element: &SenseElement,
        rng: &mut R,
    ) -> SenseElement {
        let inv = element.inverter();
        let (zd, zl, zv) = gaussian_triple(rng);
        // Drive error scales A inversely; clamp factors to stay physical.
        let drive = (1.0 + self.sigma_drive * zd).max(0.5);
        let load_f = (1.0 + self.sigma_load * zl).max(0.5);
        let vth = inv.vth() + self.sigma_vth * zv;
        let perturbed = AlphaPowerDelay::new(
            inv.a_ps_per_pf() / drive,
            inv.c_intrinsic(),
            inv.t_intrinsic(),
            vth.max(Voltage::from_mv(50.0)),
            inv.alpha(),
        )
        .expect("perturbed parameters stay in the valid domain");
        SenseElement::new(
            perturbed,
            *element.flip_flop(),
            element.load() * load_f,
            element.mode(),
        )
    }

    /// Draws a mismatched copy of a whole array (independent elements).
    pub fn perturb_array<R: Rng + ?Sized>(
        &self,
        array: &ThermometerArray,
        rng: &mut R,
    ) -> ThermometerArray {
        ThermometerArray::from_elements(
            array
                .elements()
                .iter()
                .map(|e| self.perturb_element(e, rng))
                .collect(),
            array.mode(),
        )
    }
}

/// The three deviates of one element draw (drive, load, vth), through
/// the fused [`psnt_cells::fastmath::gaussian3_from_uniforms`] kernel —
/// the same float program (and the same six-draw stream order) the
/// 64-lane batch transform executes, so scalar and batched draws agree
/// bit for bit.
fn gaussian_triple<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64, f64) {
    let u = [
        rng.gen_range(f64::EPSILON..1.0),
        rng.gen_range(0.0..1.0),
        rng.gen_range(f64::EPSILON..1.0),
        rng.gen_range(0.0..1.0),
        rng.gen_range(f64::EPSILON..1.0),
        rng.gen_range(0.0..1.0),
    ];
    psnt_cells::fastmath::gaussian3_from_uniforms(&u)
}

/// The result of a mismatch Monte-Carlo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YieldReport {
    /// Arrays drawn.
    pub trials: usize,
    /// Arrays whose thresholds stayed strictly monotone (thermometer
    /// property preserved for every input voltage).
    pub monotone: usize,
    /// Mean absolute per-element threshold shift from nominal, volts.
    pub mean_abs_shift: f64,
    /// Worst per-element threshold shift seen, volts.
    pub worst_shift: f64,
}

impl YieldReport {
    /// The fraction of arrays preserving the thermometer property.
    pub fn yield_fraction(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.monotone as f64 / self.trials as f64
        }
    }
}

/// What one Monte-Carlo trial contributes to the [`YieldReport`].
struct TrialScore {
    monotone: bool,
    abs_sum: f64,
    worst: f64,
    samples: usize,
}

/// What one 64-lane batch contributes to the [`YieldReport`]: the
/// per-lane trial scores, packed SoA so the fold can replay the exact
/// trial-order accumulation of the scalar sweep.
struct BatchScore {
    /// Live lanes in this batch (`< LANES` only for the ragged tail).
    lanes: usize,
    /// Bit `l` set ⇔ lane `l`'s ladder stayed strictly monotone.
    monotone: u64,
    /// Per-lane sum of absolute threshold shifts, element order.
    abs_sum: [f64; LANES],
    /// Per-lane worst absolute shift.
    worst: [f64; LANES],
    /// Elements per trial.
    samples: usize,
}

/// Runs one 64-lane batch of mismatch trials in lockstep: draws the
/// per-lane perturbations with the *same unit-typed float program* as
/// [`MismatchModel::perturb_element`] (each lane from its own
/// [`lane_seed`] stream), then solves every element's threshold across
/// all lanes at once through [`lanes::solve`].
#[allow(clippy::too_many_arguments)]
fn run_lane_batch(
    array: &ThermometerArray,
    skew: Time,
    pvt: &Pvt,
    model: &MismatchModel,
    nominal: &[Voltage],
    seed: u64,
    batch_index: usize,
    lanes_n: usize,
) -> Result<BatchScore, SensorError> {
    debug_assert!(0 < lanes_n && lanes_n <= LANES);
    let lane_mask = if lanes_n == LANES {
        u64::MAX
    } else {
        (1u64 << lanes_n) - 1
    };
    let mut rngs: Vec<StdRng> = (0..lanes_n)
        .map(|l| StdRng::seed_from_u64(lane_seed(seed, batch_index as u64, LANES as u64, l as u64)))
        .collect();
    let df = pvt.drive_factor();
    let mut tasks = LaneTasks {
        n: lanes_n,
        ..LaneTasks::default()
    };
    let mut out = [0.0f64; LANES];
    let mut monotone = lane_mask;
    let mut abs_sum = [0.0f64; LANES];
    let mut worst = [0.0f64; LANES];
    let mut prev_rail = [f64::NEG_INFINITY; LANES];
    let mut errored = 0u64;
    let mut err_lo = [0.0f64; LANES];
    // Raw per-lane uniform draws, two per gaussian, three gaussians per
    // element (drive, load, vth — the `perturb_element` order).
    let mut u = [[0.0f64; LANES]; 6];
    // Constants hoisted through the *same unit constructors* the scalar
    // program uses, so the raw-f64 lane loop below replays
    // `perturb_element` + `lane_task` bit for bit.
    let vth_floor_v = Voltage::from_mv(50.0).volts();
    let vth_shift_v = pvt.effective_vth(Voltage::ZERO).volts();
    for (e_idx, elem) in array.elements().iter().enumerate() {
        let inv = elem.inverter();
        let window_ps = (skew - elem.flip_flop().setup()).picoseconds();
        let t_int_ps = inv.t_intrinsic().picoseconds();
        let alpha = inv.alpha();
        let a_nom = inv.a_ps_per_pf();
        let c_int_pf = inv.c_intrinsic().picofarads();
        let load_pf = elem.load().picofarads();
        let vth_nom_v = inv.vth().volts();
        for (l, rng) in rngs.iter_mut().enumerate() {
            // Scalar RNG advance, exactly `gaussian`'s draw order.
            u[0][l] = rng.gen_range(f64::EPSILON..1.0);
            u[1][l] = rng.gen_range(0.0..1.0);
            u[2][l] = rng.gen_range(f64::EPSILON..1.0);
            u[3][l] = rng.gen_range(0.0..1.0);
            u[4][l] = rng.gen_range(f64::EPSILON..1.0);
            u[5][l] = rng.gen_range(0.0..1.0);
        }
        // Indexes six `u` rows plus every `tasks` plane in lockstep; a
        // zip chain would bury the straight-line lane program.
        #[allow(clippy::needless_range_loop)]
        for l in 0..lanes_n {
            // The exact perturbation program of `perturb_element`,
            // without constructing the intermediate element: pure
            // straight-line f64 ops, vectorized across lanes.
            let (zd, zl, zv) = psnt_cells::fastmath::gaussian3_from_uniforms(&[
                u[0][l], u[1][l], u[2][l], u[3][l], u[4][l], u[5][l],
            ]);
            let drive = (1.0 + model.sigma_drive * zd).max(0.5);
            let load_f = (1.0 + model.sigma_load * zl).max(0.5);
            let vth = vth_nom_v + model.sigma_vth.volts() * zv;
            let vth_eff = vth.max(vth_floor_v) + vth_shift_v;
            let a = a_nom / drive;
            let load = load_pf * load_f;
            tasks.ac_ps[l] = a * (c_int_pf + load);
            tasks.t_int_ps[l] = t_int_ps;
            tasks.vth_eff_v[l] = vth_eff;
            tasks.alpha[l] = alpha;
            tasks.window_ps[l] = window_ps;
        }
        let bad = lanes::solve(&tasks, df, &mut out) & lane_mask;
        // A lane's trial error is its *first* failing element, exactly
        // like the scalar per-trial element loop.
        let mut fresh = bad & !errored;
        while fresh != 0 {
            let l = fresh.trailing_zeros() as usize;
            err_lo[l] = lanes::lo_bound_v(tasks.vth_eff_v[l]);
            fresh &= fresh - 1;
        }
        errored |= bad;
        let t0 = nominal[e_idx].volts();
        for l in 0..lanes_n {
            let rail = elem
                .rail_from_effective(Voltage::from_v(out[l]), pvt)
                .volts();
            let shift = (rail - t0).abs();
            abs_sum[l] += shift;
            worst[l] = worst[l].max(shift);
            if rail <= prev_rail[l] {
                monotone &= !(1u64 << l);
            }
            prev_rail[l] = rail;
        }
    }
    if errored != 0 {
        let l = errored.trailing_zeros() as usize;
        return Err(SensorError::Trial {
            index: batch_index * LANES + l,
            source: Box::new(SensorError::ThresholdOutOfRange {
                lo: err_lo[l],
                hi: lanes::hi_bound_v(),
            }),
        });
    }
    Ok(BatchScore {
        lanes: lanes_n,
        monotone,
        abs_sum,
        worst,
        samples: array.elements().len(),
    })
}

/// Draws `n` mismatched copies of `array` and scores their threshold
/// ladders against the nominal one.
///
/// Trials are packed 64 to a machine word and evaluated in lockstep by
/// the [`crate::lanes`] kernel: the engine distributes `⌈n/64⌉` batches,
/// and lane `i` of batch `b` draws from the RNG stream
/// `lane_seed(ctx.seed(), b, 64, i) = split_seed(ctx.seed(), b·64+i)` —
/// the *same* stream trial `b·64+i` consumed before batching existed, so
/// reports are bit-identical to [`monte_carlo_yield_scalar`] and to any
/// worker count. When the context carries an observer, the batch's
/// worker metrics are folded into its registry.
///
/// # Errors
///
/// Propagates threshold-search failures as [`SensorError::Trial`],
/// carrying the failing trial's index; when several trials fail, the
/// lowest-indexed trial's error is returned. When the context's
/// supervisor trips (cancellation, deadline, or budget) before every
/// batch has run, returns [`SensorError::Interrupted`].
pub fn monte_carlo_yield(
    ctx: &mut RunCtx<'_>,
    array: &ThermometerArray,
    skew: Time,
    pvt: &Pvt,
    model: &MismatchModel,
    n: usize,
) -> Result<YieldReport, SensorError> {
    let nominal = array.solve_thresholds(skew, pvt)?;
    let seed = ctx.seed();
    let batches = n.div_ceil(LANES);
    let batch = ctx.engine().run_batch_supervised(
        &JobSpec::new(batches).seed(seed),
        ctx.supervisor(),
        |job| {
            let b = job.index();
            let lanes_n = LANES.min(n - b * LANES);
            run_lane_batch(array, skew, pvt, model, &nominal, seed, b, lanes_n)
        },
    )?;
    if let Some(obs) = ctx.observer() {
        obs.metrics.merge(&batch.metrics);
    }
    let mut monotone = 0usize;
    let mut abs_sum = 0.0f64;
    let mut worst = 0.0f64;
    let mut samples = 0usize;
    // Fold in trial order (batch-major, lane-minor), so the float
    // accumulation is identical to the serial scalar sweep.
    for score in &batch.results {
        for l in 0..score.lanes {
            if score.monotone & (1u64 << l) != 0 {
                monotone += 1;
            }
            abs_sum += score.abs_sum[l];
            worst = worst.max(score.worst[l]);
            samples += score.samples;
        }
    }
    Ok(YieldReport {
        trials: n,
        monotone,
        mean_abs_shift: if samples == 0 {
            0.0
        } else {
            abs_sum / samples as f64
        },
        worst_shift: worst,
    })
}

/// The scalar reference implementation of [`monte_carlo_yield`]: one
/// trial per engine job, one bisection per element per trial. Kept as
/// the ground truth the batched kernel is proptested against (and the
/// baseline the `mismatch_monte_carlo_3200` bench compares), not for
/// production use.
///
/// # Errors
///
/// Propagates threshold-search failures as [`SensorError::Trial`] with
/// the failing trial's index; the lowest-indexed trial's error wins.
/// When the context's supervisor trips before every trial has run,
/// returns [`SensorError::Interrupted`].
pub fn monte_carlo_yield_scalar(
    ctx: &mut RunCtx<'_>,
    array: &ThermometerArray,
    skew: Time,
    pvt: &Pvt,
    model: &MismatchModel,
    n: usize,
) -> Result<YieldReport, SensorError> {
    let nominal = array.solve_thresholds(skew, pvt)?;
    let seed = ctx.seed();
    let batch = ctx.engine().run_batch_supervised(
        &JobSpec::new(n).seed(seed),
        ctx.supervisor(),
        |job| {
            let mut rng = job.rng();
            let drawn = model.perturb_array(array, &mut rng);
            let th = drawn
                .solve_thresholds(skew, pvt)
                .map_err(|e| SensorError::Trial {
                    index: job.index(),
                    source: Box::new(e),
                })?;
            let mut abs_sum = 0.0f64;
            let mut worst = 0.0f64;
            for (t, t0) in th.iter().zip(&nominal) {
                let shift = (*t - *t0).volts().abs();
                abs_sum += shift;
                worst = worst.max(shift);
            }
            Ok::<TrialScore, SensorError>(TrialScore {
                monotone: th.windows(2).all(|w| w[1] > w[0]),
                abs_sum,
                worst,
                samples: th.len(),
            })
        },
    )?;
    if let Some(obs) = ctx.observer() {
        obs.metrics.merge(&batch.metrics);
    }
    let mut monotone = 0usize;
    let mut abs_sum = 0.0f64;
    let mut worst = 0.0f64;
    let mut samples = 0usize;
    // Fold in trial order, so the float accumulation is identical to
    // the serial sweep.
    for score in &batch.results {
        if score.monotone {
            monotone += 1;
        }
        abs_sum += score.abs_sum;
        worst = worst.max(score.worst);
        samples += score.samples;
    }
    Ok(YieldReport {
        trials: n,
        monotone,
        mean_abs_shift: if samples == 0 {
            0.0
        } else {
            abs_sum / samples as f64
        },
        worst_shift: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::RailMode;
    use psnt_engine::Engine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array() -> ThermometerArray {
        ThermometerArray::paper(RailMode::Supply)
    }

    fn skew() -> Time {
        Time::from_ps(149.0)
    }

    #[test]
    fn model_validation() {
        assert!(MismatchModel::new(0.02, 0.01, Voltage::from_mv(8.0)).is_ok());
        assert!(MismatchModel::new(-0.1, 0.01, Voltage::from_mv(8.0)).is_err());
        assert!(MismatchModel::new(0.02, 0.01, Voltage::from_mv(-1.0)).is_err());
    }

    #[test]
    fn zero_sigma_is_identity() {
        let model = MismatchModel::new(0.0, 0.0, Voltage::ZERO).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let drawn = model.perturb_array(&array(), &mut rng);
        let a = array().solve_thresholds(skew(), &Pvt::typical()).unwrap();
        let b = drawn.solve_thresholds(skew(), &Pvt::typical()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < Voltage::from_mv(0.02));
        }
        let report = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(3),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            10,
        )
        .unwrap();
        assert_eq!(report.monotone, 10);
        assert!(report.worst_shift < 1e-4);
    }

    #[test]
    fn gaussian_triples_are_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 7_000; // triples → 21 000 deviates
        let mut xs = Vec::with_capacity(3 * n);
        for _ in 0..n {
            let (a, b, c) = gaussian_triple(&mut rng);
            xs.extend([a, b, c]);
        }
        let m = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / m;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / m;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn mismatch_scatters_thresholds() {
        let model = MismatchModel::local_90nm();
        let report = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(9),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            100,
        )
        .unwrap();
        assert_eq!(report.trials, 100);
        // 2 % drive sigma ⇒ threshold sigma ~20 mV: shifts are visible…
        assert!(
            report.mean_abs_shift > 0.005,
            "mean {}",
            report.mean_abs_shift
        );
        assert!(report.worst_shift > report.mean_abs_shift);
        // …and with ~30 mV element spacing some arrays lose monotonicity,
        // but not all.
        assert!(report.monotone > 0);
        assert!(report.monotone < 100, "expected some order inversions");
    }

    #[test]
    fn yield_degrades_with_sigma() {
        let base = MismatchModel::local_90nm();
        let mut prev = usize::MAX;
        for k in [0.25, 1.0, 3.0] {
            let report = monte_carlo_yield(
                &mut RunCtx::serial().with_seed(11),
                &array(),
                skew(),
                &Pvt::typical(),
                &base.scaled(k),
                120,
            )
            .unwrap();
            assert!(
                report.monotone <= prev,
                "yield should not improve with more mismatch (k={k})"
            );
            prev = report.monotone;
        }
        assert!(prev < 60, "large mismatch should break most arrays");
    }

    #[test]
    fn seeded_reproducibility() {
        let model = MismatchModel::local_90nm();
        let run = |seed: u64| {
            monte_carlo_yield(
                &mut RunCtx::serial().with_seed(seed),
                &array(),
                skew(),
                &Pvt::typical(),
                &model,
                30,
            )
            .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
        let c = run(6);
        assert_ne!(a, c);
    }

    #[test]
    fn cancelled_supervisor_interrupts_monte_carlo() {
        let model = MismatchModel::local_90nm();
        let token = psnt_sup::CancelToken::new();
        token.cancel();
        let sup = psnt_sup::Supervisor::new(token, psnt_sup::RunBudget::unlimited());
        let mut ctx = RunCtx::serial().with_seed(5).with_supervisor(sup);
        let err =
            monte_carlo_yield(&mut ctx, &array(), skew(), &Pvt::typical(), &model, 30).unwrap_err();
        assert_eq!(
            err,
            SensorError::Interrupted(psnt_sup::Interrupt::Cancelled)
        );
        let err = monte_carlo_yield_scalar(&mut ctx, &array(), skew(), &Pvt::typical(), &model, 30)
            .unwrap_err();
        assert_eq!(
            err,
            SensorError::Interrupted(psnt_sup::Interrupt::Cancelled)
        );
    }

    #[test]
    fn detached_supervisor_yield_is_bit_identical() {
        let model = MismatchModel::local_90nm();
        let baseline = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            30,
        )
        .unwrap();
        // An explicit detached supervisor (the default) must not perturb
        // the sweep: same trials, same fold order, same floats.
        let supervised = monte_carlo_yield(
            &mut RunCtx::serial()
                .with_seed(5)
                .with_supervisor(psnt_sup::Supervisor::detached()),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            30,
        )
        .unwrap();
        assert_eq!(baseline, supervised);
    }

    #[test]
    fn parallel_yield_is_bit_identical_to_serial() {
        let model = MismatchModel::local_90nm();
        let serial = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            40,
        )
        .unwrap();
        for jobs in [1usize, 2, 7] {
            let parallel = monte_carlo_yield(
                &mut RunCtx::new(Engine::new(jobs)).with_seed(5),
                &array(),
                skew(),
                &Pvt::typical(),
                &model,
                40,
            )
            .unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn batched_yield_is_bit_identical_to_scalar() {
        let model = MismatchModel::local_90nm();
        // 100 trials = one full batch + a ragged 36-lane tail.
        let scalar = monte_carlo_yield_scalar(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            100,
        )
        .unwrap();
        let batched = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            100,
        )
        .unwrap();
        assert_eq!(batched, scalar);
        assert_eq!(
            batched.mean_abs_shift.to_bits(),
            scalar.mean_abs_shift.to_bits()
        );
        assert_eq!(batched.worst_shift.to_bits(), scalar.worst_shift.to_bits());
    }

    #[test]
    fn trial_error_carries_lowest_failing_index() {
        // A huge load sigma drives some trial's element off the search
        // bracket; both paths must name the same (lowest) trial.
        let model = MismatchModel::new(0.02, 60.0, Voltage::from_mv(8.0)).unwrap();
        let run_scalar = monte_carlo_yield_scalar(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            100,
        );
        let run_batched = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(5),
            &array(),
            skew(),
            &Pvt::typical(),
            &model,
            100,
        );
        let scalar_err = run_scalar.unwrap_err();
        let batched_err = run_batched.unwrap_err();
        let SensorError::Trial { index, ref source } = scalar_err else {
            panic!("expected Trial error, got {scalar_err}");
        };
        assert!(matches!(**source, SensorError::ThresholdOutOfRange { .. }));
        // Ground truth: replay trials serially and find the first failure.
        let mut first_failing = None;
        for k in 0..100usize {
            let mut rng = StdRng::seed_from_u64(psnt_engine::split_seed(5, k as u64));
            let drawn = model.perturb_array(&array(), &mut rng);
            if drawn.solve_thresholds(skew(), &Pvt::typical()).is_err() {
                first_failing = Some(k);
                break;
            }
        }
        assert_eq!(Some(index), first_failing, "scalar index");
        assert_eq!(batched_err, scalar_err, "batched error must match scalar");
    }

    #[test]
    fn yield_fraction_math() {
        let r = YieldReport {
            trials: 40,
            monotone: 30,
            mean_abs_shift: 0.01,
            worst_shift: 0.03,
        };
        assert!((r.yield_fraction() - 0.75).abs() < 1e-12);
        let empty = YieldReport {
            trials: 0,
            monotone: 0,
            mean_abs_shift: 0.0,
            worst_shift: 0.0,
        };
        assert_eq!(empty.yield_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative() {
        let _ = MismatchModel::local_90nm().scaled(-1.0);
    }
}
