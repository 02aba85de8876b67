//! The multi-bit noise thermometer — paper Fig. 1 (right) and Fig. 5.
//!
//! Seven identical INV+FF elements share the same `P`/`CP` pulses; only
//! the load capacitor at each `DS-i` differs, rising along a ladder so
//! each flip-flop has a different failure threshold. The array output is
//! a [`ThermometerCode`] "proportional to the VDD-n value … in principle
//! similar to a flash A/D converter".
//!
//! Two ladders are provided:
//!
//! * [`CapacitorLadder::paper_fig5`] — calibrated so the delay-code-011
//!   thresholds land on the paper's published values (0.827, 0.896,
//!   0.929, …, 1.053 V);
//! * [`CapacitorLadder::linear`] — the idealised uniform ladder the paper
//!   describes ("the capacitor at DS-i increases linearly"), used by the
//!   ladder-design ablation.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::element::RailMode;
//! use psnt_core::thermometer::{CapacitorLadder, ThermometerArray};
//!
//! let array = ThermometerArray::paper(RailMode::Supply);
//! let skew = Time::from_ps(149.0); // delay code 011
//! let code = array.measure(Voltage::from_v(1.0), skew, &Pvt::typical());
//! assert_eq!(code.to_string(), "0011111"); // paper Fig. 9, first measure
//! # let _ = CapacitorLadder::paper_fig5();
//! ```

use std::sync::Mutex;

use psnt_cells::logic::LogicVector;
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use psnt_ctx::RunCtx;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::code::ThermometerCode;
use crate::element::{ElementReading, RailMode, SenseElement};
use crate::error::SensorError;

/// An ascending ladder of load capacitances, one per array element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitorLadder {
    caps: Vec<Capacitance>,
}

impl CapacitorLadder {
    /// Builds a ladder from explicit values.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when empty, non-positive or
    /// not strictly increasing.
    pub fn from_caps(caps: Vec<Capacitance>) -> Result<CapacitorLadder, SensorError> {
        if caps.is_empty() {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "must have at least one element".into(),
            });
        }
        if caps.iter().any(|&c| c <= Capacitance::ZERO) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be positive".into(),
            });
        }
        if caps.windows(2).any(|w| w[1] <= w[0]) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be strictly increasing".into(),
            });
        }
        Ok(CapacitorLadder { caps })
    }

    /// The idealised uniform ladder: `c0, c0+step, …` for `n` elements.
    ///
    /// # Errors
    ///
    /// Propagates [`CapacitorLadder::from_caps`] validation.
    pub fn linear(
        c0: Capacitance,
        step: Capacitance,
        n: usize,
    ) -> Result<CapacitorLadder, SensorError> {
        CapacitorLadder::from_caps((0..n).map(|i| c0 + step * i as f64).collect())
    }

    /// The 7-element ladder calibrated against the paper's Fig. 5
    /// (delay code 011 characteristics): thresholds at 0.827 / 0.896 /
    /// 0.929 / 0.961 / 0.992 / 1.021 / 1.053 V. Nearly linear with a
    /// slightly larger first step, as the published boundaries imply.
    pub fn paper_fig5() -> CapacitorLadder {
        CapacitorLadder {
            caps: [1.7504, 1.9129, 1.9861, 2.0541, 2.1179, 2.1756, 2.2373]
                .into_iter()
                .map(Capacitance::from_pf)
                .collect(),
        }
    }

    /// The capacitances, ascending.
    pub fn caps(&self) -> &[Capacitance] {
        &self.caps
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// `true` when empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// A decoded voltage interval for a thermometer code: the rail lies
/// between `lower` and `upper` (either side open-ended at the dynamic
/// range boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeInterval {
    /// Greatest threshold at or below the rail (absent at underflow).
    pub lower: Option<Voltage>,
    /// Smallest threshold above the rail (absent at overflow).
    pub upper: Option<Voltage>,
}

impl CodeInterval {
    /// The interval midpoint, when both bounds exist.
    pub fn midpoint(&self) -> Option<Voltage> {
        match (self.lower, self.upper) {
            (Some(a), Some(b)) => Some(a.lerp(b, 0.5)),
            _ => None,
        }
    }

    /// `true` when `v` is inside the (half-open) interval.
    pub fn contains(&self, v: Voltage) -> bool {
        self.lower.is_none_or(|lo| v >= lo) && self.upper.is_none_or(|hi| v < hi)
    }
}

/// Bounded memo of the array's per-operating-point state. The
/// thresholds are a pure function of `(skew, pvt)` (and the elements,
/// which are immutable post-construction), and virtually every caller —
/// `measure`, `decode`, [`crate::system::SensorSystem`], the scan
/// campaign, the equivalent-time sampler — re-asks at a handful of
/// operating points many times. A miss solves every element at once
/// through the 64-lane `exp2_fast` bisection kernel
/// ([`ThermometerArray::thresholds`]), so the memo removes that solve
/// from every repeat. A small move-to-front map (rather than a
/// single-entry memo) keeps alternating-corner sweeps — e.g.
/// `calibration::trim_for_corner` bouncing between the reference and
/// corner PVT points — from thrashing it.
///
/// Each entry also carries the point's [`FlashTable`], built by the
/// first `measure` or `decode` there (never by `thresholds`, so
/// Monte-Carlo trials and trim sweeps on fresh arrays do not pay for
/// it).
///
/// The tally counts threshold requests (`thresholds`,
/// `thresholds_ctx`, `decode`): a hit is a request answered from the
/// memo, a miss is a solve, whoever triggered it. A failed solve is
/// remembered like a successful one. `measure`'s table reads are not
/// requests and are not tallied. The totals surface through
/// [`ThermometerArray::memo_stats`] so ctx-threaded callers can fold
/// them into a `MetricsRegistry`.
///
/// A `Mutex` (not a `RefCell`) keeps the array `Sync`: Monte-Carlo yield
/// closures capture `&ThermometerArray` across engine worker threads.
/// Key-based lookup makes invalidation automatic — a new skew or PVT
/// point simply misses and evicts the coldest entry — and perturbed
/// copies built through [`ThermometerArray::from_elements`] start with
/// an empty memo.
#[derive(Debug, Default)]
struct ThresholdMemo {
    entries: Vec<MemoEntry>,
    hits: u64,
    misses: u64,
}

/// One memoised `(skew, pvt)` operating point.
#[derive(Debug)]
struct MemoEntry {
    skew: Time,
    pvt: Pvt,
    /// The kernel thresholds in ascending-load order, or the solve's
    /// error.
    thresholds: Result<Vec<Voltage>, SensorError>,
    /// Built on first use by [`MemoEntry::flash`].
    flash: Option<FlashTable>,
}

impl MemoEntry {
    /// The entry's flash table, built and verified on first use.
    fn flash(&mut self, elements: &[SenseElement]) -> &FlashTable {
        let (skew, pvt, thresholds) = (self.skew, self.pvt, &self.thresholds);
        self.flash
            .get_or_insert_with(|| FlashTable::build(elements, thresholds, skew, &pvt))
    }
}

/// Distinct `(skew, pvt)` operating points retained per array. Sized
/// for the workloads in-tree: a trim sweep touches a reference plus a
/// few corners, a characterisation sweep one PVT point per code.
const THRESHOLD_MEMO_CAPACITY: usize = 8;

/// Half-width of an element's bracket around its kernel threshold:
/// ten times the kernel's 10 µV bisection tolerance, and far above the
/// `exp2_fast`-vs-`powf_pos` difference (~1e-10 relative), so the
/// direct model's switching point lies strictly inside the bracket and
/// the build-time check passes.
const BRACKET_HALF_WIDTH_V: f64 = 100e-6;

/// How far past its bracket edge an element's outcome is taken from
/// the table. Beyond it the rail is unphysical (the alpha-power kernel
/// is only defined on finite, moderate supplies) and goes to the
/// direct model.
const LOOKUP_SPAN_V: f64 = 0.5;

/// The flash-ADC view of one operating point: the array is a
/// comparator ladder against fixed per-element thresholds, so a rail
/// clear of an element's threshold settles that bit with two compares.
#[derive(Debug)]
struct FlashTable {
    /// One bracket per element, ascending-load order.
    brackets: Vec<Bracket>,
    /// The thresholds sorted ascending — `decode`'s interval table.
    /// Empty when the threshold solve failed.
    ascending: Vec<Voltage>,
}

impl FlashTable {
    fn build(
        elements: &[SenseElement],
        thresholds: &Result<Vec<Voltage>, SensorError>,
        skew: Time,
        pvt: &Pvt,
    ) -> FlashTable {
        match thresholds {
            Ok(th) => {
                let mut ascending = th.clone();
                ascending.sort_by(Voltage::total_cmp);
                FlashTable {
                    brackets: elements
                        .iter()
                        .zip(th)
                        .map(|(e, &t)| Bracket::verified(e, t, skew, pvt))
                        .collect(),
                    ascending,
                }
            }
            Err(_) => FlashTable {
                brackets: vec![Bracket::EMPTY; elements.len()],
                ascending: Vec::new(),
            },
        }
    }
}

/// The rails, as closed intervals in volts, at which one element's
/// outcome is known without evaluating it.
///
/// Exactness: the inner edges `t ∓ δ` are checked against
/// [`SenseElement::measure`] when the bracket is built — HIGH-SENSE
/// must fail at `t − δ` and pass at `t + δ`, LOW-SENSE the mirror
/// image — and the direct model is monotone in the rail
/// (`tests/characteristic.rs` pins it over the whole span). So every
/// rail in `fail` fails and every rail in `pass` passes, bit for bit
/// what the direct model would say. Rails strictly between the edges,
/// beyond the span, and NaN (every compare is false) go to the direct
/// model. An element whose check fails gets [`Bracket::EMPTY`] and is
/// always evaluated directly.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    fail: (f64, f64),
    pass: (f64, f64),
}

impl Bracket {
    /// Contains no rail: every measure evaluates the element.
    const EMPTY: Bracket = Bracket {
        fail: (f64::INFINITY, f64::NEG_INFINITY),
        pass: (f64::INFINITY, f64::NEG_INFINITY),
    };

    fn verified(e: &SenseElement, threshold: Voltage, skew: Time, pvt: &Pvt) -> Bracket {
        let t = threshold.volts();
        let (below, above) = (t - BRACKET_HALF_WIDTH_V, t + BRACKET_HALF_WIDTH_V);
        let passes = |v: f64| e.measure(Voltage::from_v(v), skew, pvt).passed;
        let low = (below - LOOKUP_SPAN_V, below);
        let high = (above, above + LOOKUP_SPAN_V);
        match (e.mode(), passes(below), passes(above)) {
            (RailMode::Supply, false, true) => Bracket {
                fail: low,
                pass: high,
            },
            (RailMode::Ground, true, false) => Bracket {
                fail: high,
                pass: low,
            },
            _ => Bracket::EMPTY,
        }
    }

    /// The element's outcome at rail `v`, when the table knows it.
    fn outcome(&self, v: f64) -> Option<bool> {
        if self.pass.0 <= v && v <= self.pass.1 {
            Some(true)
        } else if self.fail.0 <= v && v <= self.fail.1 {
            Some(false)
        } else {
            None
        }
    }
}

/// A multi-bit sensor array: identical elements, rising loads.
#[derive(Debug, Serialize, Deserialize)]
pub struct ThermometerArray {
    elements: Vec<SenseElement>,
    mode: RailMode,
    #[serde(skip, default)]
    memo: Mutex<ThresholdMemo>,
}

impl Clone for ThermometerArray {
    fn clone(&self) -> ThermometerArray {
        ThermometerArray {
            elements: self.elements.clone(),
            mode: self.mode,
            memo: Mutex::default(),
        }
    }
}

impl PartialEq for ThermometerArray {
    fn eq(&self, other: &ThermometerArray) -> bool {
        // The memo is derived state; identity is elements + mode.
        self.elements == other.elements && self.mode == other.mode
    }
}

impl ThermometerArray {
    /// Builds an array of paper-calibrated elements over a ladder.
    pub fn new(ladder: &CapacitorLadder, mode: RailMode) -> ThermometerArray {
        ThermometerArray {
            elements: ladder
                .caps()
                .iter()
                .map(|&c| SenseElement::paper(c, mode))
                .collect(),
            mode,
            memo: Mutex::default(),
        }
    }

    /// The paper's 7-bit array ([`CapacitorLadder::paper_fig5`]).
    pub fn paper(mode: RailMode) -> ThermometerArray {
        ThermometerArray::new(&CapacitorLadder::paper_fig5(), mode)
    }

    /// Builds an array from explicit elements (e.g. mismatched copies
    /// from [`crate::mismatch`]). The caller is responsible for the
    /// intended load ordering — a mismatched array may legitimately have
    /// inverted thresholds, which is exactly what the yield analysis
    /// quantifies.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or an element's rail mode differs
    /// from `mode`.
    pub fn from_elements(elements: Vec<SenseElement>, mode: RailMode) -> ThermometerArray {
        assert!(!elements.is_empty(), "array needs at least one element");
        assert!(
            elements.iter().all(|e| e.mode() == mode),
            "all elements must observe the same rail"
        );
        ThermometerArray {
            elements,
            mode,
            memo: Mutex::default(),
        }
    }

    /// Number of output bits.
    pub fn bits(&self) -> usize {
        self.elements.len()
    }

    /// The rail this array observes.
    pub fn mode(&self) -> RailMode {
        self.mode
    }

    /// The elements, in ascending-load order.
    pub fn elements(&self) -> &[SenseElement] {
        &self.elements
    }

    /// Performs one measurement; the code prints most-loaded element
    /// first, matching the paper's `0011111` notation.
    ///
    /// A flash lookup: each bit is read from the operating point's
    /// per-element bracket around the memoised threshold, checked
    /// against the delay model when the point is first measured or
    /// decoded. Only an element whose bracket holds the rail is
    /// evaluated directly. The code is bit-identical to
    /// [`ThermometerArray::measure_detailed`]'s.
    pub fn measure(&self, rail: Voltage, skew: Time, pvt: &Pvt) -> ThermometerCode {
        self.with_entry(skew, pvt, false, |entry| {
            self.flash_code(entry, rail, skew, pvt)
        })
    }

    /// [`ThermometerArray::measure`] under the same memo lock as the
    /// check [`ThermometerArray::decode`] makes: fails with the
    /// operating point's threshold-solve error exactly when `decode`
    /// would, and counts as one threshold request like it.
    pub(crate) fn measure_checked(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<ThermometerCode, SensorError> {
        self.with_entry(skew, pvt, true, |entry| {
            if let Err(e) = &entry.thresholds {
                return Err(e.clone());
            }
            Ok(self.flash_code(entry, rail, skew, pvt))
        })
    }

    /// Fails with the threshold-solve error at `(skew, pvt)` exactly
    /// when [`ThermometerArray::decode`] would, as one threshold
    /// request.
    pub(crate) fn check_thresholds(&self, skew: Time, pvt: &Pvt) -> Result<(), SensorError> {
        self.with_entry(skew, pvt, true, |entry| match &entry.thresholds {
            Ok(_) => Ok(()),
            Err(e) => Err(e.clone()),
        })
    }

    /// The flash lookup behind [`ThermometerArray::measure`], on the
    /// memo entry of `(skew, pvt)`.
    fn flash_code(
        &self,
        entry: &mut MemoEntry,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
    ) -> ThermometerCode {
        let v = rail.volts();
        let table = entry.flash(&self.elements);
        // Most-loaded first: reverse of the ascending element order.
        let bits: LogicVector = self
            .elements
            .iter()
            .zip(&table.brackets)
            .rev()
            .map(|(e, b)| {
                let passed = b
                    .outcome(v)
                    .unwrap_or_else(|| e.measure(rail, skew, pvt).passed);
                psnt_cells::logic::Logic::from(passed)
            })
            .collect();
        ThermometerCode::new(bits)
    }

    /// Like [`ThermometerArray::measure`] but also returning each
    /// element's reading (ascending-load order). Always evaluates every
    /// element: this is the direct reference the lookup is tested
    /// against.
    pub fn measure_detailed(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
    ) -> (ThermometerCode, Vec<ElementReading>) {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure(rail, skew, pvt))
            .collect();
        (ThermometerArray::pack(&readings), readings)
    }

    /// Stochastic variant: metastable boundary elements resolve randomly,
    /// occasionally producing bubble codes.
    pub fn measure_with_rng<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        rng: &mut R,
    ) -> ThermometerCode {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure_with_rng(rail, skew, pvt, rng))
            .collect();
        ThermometerArray::pack(&readings)
    }

    fn pack(readings: &[ElementReading]) -> ThermometerCode {
        // Most-loaded first: reverse of the ascending element order.
        let bits: LogicVector = readings
            .iter()
            .rev()
            .map(|r| psnt_cells::logic::Logic::from(r.passed))
            .collect();
        ThermometerCode::new(bits)
    }

    /// Oversampled measurement: the mean *level* across `n` stochastic
    /// measures. Near a threshold, metastability dithers the boundary
    /// element, so the mean carries sub-LSB information about the rail —
    /// the stochastic-flash-ADC effect behind the paper's advice that
    /// "measures should be iterated".
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn oversampled_level<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        n: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(n > 0, "need at least one measure");
        let total: usize = (0..n)
            .map(|_| {
                self.measure_with_rng(rail, skew, pvt, rng)
                    .correct_bubbles()
                    .level()
            })
            .sum();
        total as f64 / n as f64
    }

    /// The analytic expectation of the (stochastic) level at a rail
    /// value: the sum of each element's capture probability given its DS
    /// arrival. This is the smooth transfer curve that oversampling
    /// samples — strictly monotone in the rail across the dynamic range,
    /// which is what makes sub-LSB inversion possible.
    pub fn expected_level(&self, rail: Voltage, skew: Time, pvt: &Pvt) -> f64 {
        self.elements()
            .iter()
            .map(|e| {
                let arrival = e.ds_delay(rail, pvt) - skew;
                let p_new = e.flip_flop().capture_probability(arrival);
                match self.mode {
                    // Capturing the SENSE transition is a pass for both
                    // modes; only the rail→arrival mapping differs (and
                    // ds_delay already encodes it).
                    RailMode::Supply | RailMode::Ground => p_new,
                }
            })
            .sum()
    }

    /// Inverts an oversampled mean level into a sub-LSB voltage estimate
    /// by bisecting the analytic [`ThermometerArray::expected_level`]
    /// curve. With the paper's array the metastability windows of
    /// adjacent elements overlap (±8 ps ≈ 70 mV vs ~30 mV element
    /// spacing), so several elements dither simultaneously; the expected-
    /// level curve accounts for all of them at once. Returns `None` when
    /// the mean sits at a saturated end (nothing to interpolate).
    ///
    /// # Errors
    ///
    /// Propagates threshold-search failures (used for the bisection
    /// bracket).
    pub fn decode_oversampled(
        &self,
        mean_level: f64,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<Option<Voltage>, SensorError> {
        let bits = self.bits() as f64;
        if mean_level <= 0.0 || mean_level >= bits {
            return Ok(None);
        }
        let (range_lo, range_hi) = self.dynamic_range(skew, pvt)?;
        let margin = Voltage::from_mv(150.0);
        // Bisect along the direction of increasing level: HIGH-SENSE
        // level rises with the rail, LOW-SENSE with a *shrinking* bounce.
        let (mut lo, mut hi) = match self.mode {
            RailMode::Supply => (range_lo - margin, range_hi + margin),
            RailMode::Ground => (range_hi + margin, range_lo - margin),
        };
        for _ in 0..60 {
            let mid = lo.lerp(hi, 0.5);
            if self.expected_level(mid, skew, pvt) < mean_level {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo.lerp(hi, 0.5)))
    }

    /// Per-element failure thresholds, ascending-load order. For
    /// HIGH-SENSE these rise with load; for LOW-SENSE (ground) they fall.
    ///
    /// Memoised per `(skew, pvt)` in a small move-to-front map, so
    /// repeated requests at an operating point —
    /// the common case for a system run or scan campaign — skip the
    /// solve entirely. Misses solve every element at once through the
    /// 64-lane lockstep kernel ([`crate::lanes::solve`], one lane per
    /// element) — bit-identical to the per-element
    /// [`SenseElement::threshold`] calls, which share the same float
    /// program.
    ///
    /// # Errors
    ///
    /// Propagates [`SenseElement::threshold`] failures.
    pub fn thresholds(&self, skew: Time, pvt: &Pvt) -> Result<Vec<Voltage>, SensorError> {
        self.with_entry(skew, pvt, true, |entry| entry.thresholds.clone())
    }

    /// Runs `f` on the memo entry for `(skew, pvt)` under the memo lock,
    /// solving the entry on a miss and moving it to the front. A
    /// `request` counts a hit when the entry was there already.
    fn with_entry<R>(
        &self,
        skew: Time,
        pvt: &Pvt,
        request: bool,
        f: impl FnOnce(&mut MemoEntry) -> R,
    ) -> R {
        let mut memo = self.memo.lock().expect("threshold memo poisoned");
        match memo
            .entries
            .iter()
            .position(|e| e.skew == skew && e.pvt == *pvt)
        {
            Some(ix) => {
                if request {
                    memo.hits += 1;
                }
                // Move-to-front: the hottest operating points survive
                // eviction.
                memo.entries[..=ix].rotate_right(1);
            }
            None => {
                memo.misses += 1;
                if memo.entries.len() >= THRESHOLD_MEMO_CAPACITY {
                    memo.entries.pop();
                }
                let thresholds = self.solve_thresholds(skew, pvt);
                memo.entries.insert(
                    0,
                    MemoEntry {
                        skew,
                        pvt: *pvt,
                        thresholds,
                        flash: None,
                    },
                );
            }
        }
        f(&mut memo.entries[0])
    }

    /// The memo-miss path: all elements through the lanes kernel, 64 per
    /// solve call, lowest failing element reported exactly like the
    /// serial per-element sweep.
    fn solve_thresholds(&self, skew: Time, pvt: &Pvt) -> Result<Vec<Voltage>, SensorError> {
        use crate::lanes::{self, LaneTasks, LANES};
        let df = pvt.drive_factor();
        let mut th = Vec::with_capacity(self.elements.len());
        for chunk in self.elements.chunks(LANES) {
            let mut tasks = LaneTasks {
                n: chunk.len(),
                ..LaneTasks::default()
            };
            for (l, e) in chunk.iter().enumerate() {
                let (ac_ps, t_int_ps, vth_eff_v, alpha, window_ps) = e.lane_task(skew, pvt);
                tasks.ac_ps[l] = ac_ps;
                tasks.t_int_ps[l] = t_int_ps;
                tasks.vth_eff_v[l] = vth_eff_v;
                tasks.alpha[l] = alpha;
                tasks.window_ps[l] = window_ps;
            }
            let mut out = [0.0f64; LANES];
            let mask = if chunk.len() == LANES {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            let bad = lanes::solve(&tasks, df, &mut out) & mask;
            if bad != 0 {
                let l = bad.trailing_zeros() as usize;
                return Err(SensorError::ThresholdOutOfRange {
                    lo: lanes::lo_bound_v(tasks.vth_eff_v[l]),
                    hi: lanes::hi_bound_v(),
                });
            }
            th.extend(
                chunk
                    .iter()
                    .zip(&out)
                    .map(|(e, &v)| e.rail_from_effective(Voltage::from_v(v), pvt)),
            );
        }
        Ok(th)
    }

    /// [`ThermometerArray::thresholds`] threaded through a [`RunCtx`]:
    /// memo misses run all elements through one 64-lane lockstep solve
    /// (bit-identical to the serial per-element sweep), and the call's
    /// memo hit/miss deltas are folded into the observer's metrics as
    /// the `thermometer.memo_hits` / `thermometer.memo_misses` counters.
    ///
    /// # Errors
    ///
    /// Propagates [`SenseElement::threshold`] failures.
    pub fn thresholds_ctx(
        &self,
        ctx: &mut RunCtx<'_>,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<Vec<Voltage>, SensorError> {
        let (hits_before, misses_before) = self.memo_stats();
        let th = self.thresholds(skew, pvt)?;
        if let Some(obs) = ctx.observer() {
            let (hits, misses) = self.memo_stats();
            obs.metrics
                .counter_add("thermometer.memo_hits", hits - hits_before);
            obs.metrics
                .counter_add("thermometer.memo_misses", misses - misses_before);
        }
        Ok(th)
    }

    /// Lifetime hit/miss totals of the threshold memo, as
    /// `(hits, misses)`. Derived state only: clones and deserialised
    /// arrays restart at zero.
    pub fn memo_stats(&self) -> (u64, u64) {
        let memo = self.memo.lock().expect("threshold memo poisoned");
        (memo.hits, memo.misses)
    }

    /// The measurable span `(min, max)` of rail values: outside it the
    /// code saturates at all-0 / all-1.
    ///
    /// # Errors
    ///
    /// Propagates threshold-search failures.
    pub fn dynamic_range(&self, skew: Time, pvt: &Pvt) -> Result<(Voltage, Voltage), SensorError> {
        let th = self.thresholds(skew, pvt)?;
        let lo = th
            .iter()
            .copied()
            .fold(Voltage::from_v(f64::INFINITY), Voltage::min);
        let hi = th
            .iter()
            .copied()
            .fold(Voltage::from_v(f64::NEG_INFINITY), Voltage::max);
        Ok((lo, hi))
    }

    /// Decodes a measured code into the rail-voltage interval it implies
    /// (the inverse of the array characteristic). Bubbles are corrected
    /// first. The interval is read in place from the operating point's
    /// ascending thresholds, kept beside its flash table.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the code width does not
    /// match the array, and propagates threshold-search failures.
    pub fn decode(
        &self,
        code: &ThermometerCode,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<CodeInterval, SensorError> {
        if code.width() != self.bits() {
            return Err(SensorError::InvalidConfig {
                name: "code",
                reason: format!(
                    "code width {} does not match array width {}",
                    code.width(),
                    self.bits()
                ),
            });
        }
        let n = self.bits();
        let f = n - code.corrected_level();
        self.with_entry(skew, pvt, true, |entry| {
            if let Err(e) = &entry.thresholds {
                return Err(e.clone());
            }
            let asc = &entry.flash(&self.elements).ascending;
            Ok(self.interval(asc, f))
        })
    }

    /// The interval between the ascending thresholds that `f` failing
    /// elements imply.
    fn interval(&self, asc: &[Voltage], f: usize) -> CodeInterval {
        let n = asc.len();
        match self.mode {
            RailMode::Supply => CodeInterval {
                // f elements fail ⇒ the rail sits between the (n−f)-th and
                // (n−f+1)-th ascending thresholds.
                lower: (f < n).then(|| asc[n - f - 1]),
                upper: (f > 0).then(|| asc[n - f]),
            },
            RailMode::Ground => CodeInterval {
                // Ground bounce fails *above* thresholds: f fails ⇒ the
                // bounce exceeds the f smallest thresholds.
                lower: (f > 0).then(|| asc[f - 1]),
                upper: (f < n).then(|| asc[f]),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pvt() -> Pvt {
        Pvt::typical()
    }

    /// Delay code 011: 84 ps insertion + 65 ps tap.
    fn skew011() -> Time {
        Time::from_ps(149.0)
    }

    /// Delay code 010: 84 ps insertion + 50 ps tap.
    fn skew010() -> Time {
        Time::from_ps(134.0)
    }

    fn array() -> ThermometerArray {
        ThermometerArray::paper(RailMode::Supply)
    }

    #[test]
    fn ladder_validation() {
        let pf = Capacitance::from_pf;
        assert!(CapacitorLadder::from_caps(vec![]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(1.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(2.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(0.0), pf(1.0)]).is_err());
        let lin = CapacitorLadder::linear(pf(1.75), Capacitance::from_ff(81.0), 7).unwrap();
        assert_eq!(lin.len(), 7);
        assert!((lin.caps()[6].picofarads() - 2.236).abs() < 1e-9);
    }

    #[test]
    fn paper_ladder_reproduces_fig5_thresholds() {
        // Paper Fig. 5 / §III-B, delay code 011: thresholds at
        // 0.827, 0.896, 0.929, (0.961), 0.992, 1.021, 1.053 V.
        let th = array().thresholds(skew011(), &pvt()).unwrap();
        let expected = [0.827, 0.896, 0.929, 0.961, 0.992, 1.021, 1.053];
        for (i, (&t, &e)) in th.iter().zip(&expected).enumerate() {
            assert!(
                (t.volts() - e).abs() < 0.003,
                "element {i}: threshold {t} vs paper {e} V"
            );
        }
    }

    #[test]
    fn fig5_dynamic_range_code_011() {
        // "the threshold range goes from 0.827 V (all errors) to 1.053 V
        // (no errors)".
        let (lo, hi) = array().dynamic_range(skew011(), &pvt()).unwrap();
        assert!((lo.volts() - 0.827).abs() < 0.003, "low end {lo}");
        assert!((hi.volts() - 1.053).abs() < 0.003, "high end {hi}");
    }

    #[test]
    fn fig5_dynamic_range_code_010_shifts_up() {
        // "In case the delay code is 010, the dynamic ranges from 0.951 V
        // to 1.237 V (also overvoltages can be measured)".
        let (lo, hi) = array().dynamic_range(skew010(), &pvt()).unwrap();
        assert!((lo.volts() - 0.951).abs() < 0.004, "low end {lo}");
        // Our alpha-power model puts the top at ≈1.25 V vs the paper's
        // 1.237 V (1.4 % — see DESIGN.md §2); assert the shape.
        assert!((hi.volts() - 1.237).abs() < 0.025, "high end {hi}");
        let (lo011, hi011) = array().dynamic_range(skew011(), &pvt()).unwrap();
        assert!(lo > lo011 && hi > hi011, "010 range must sit above 011");
    }

    #[test]
    fn fig9_measurement_codes() {
        // Paper Fig. 9, delay code 011: VDD-n = 1.0 V ⇒ 0011111,
        // VDD-n = 0.9 V ⇒ 0000011.
        let a = array();
        let first = a.measure(Voltage::from_v(1.0), skew011(), &pvt());
        assert_eq!(first.to_string(), "0011111");
        let second = a.measure(Voltage::from_v(0.9), skew011(), &pvt());
        assert_eq!(second.to_string(), "0000011");
    }

    #[test]
    fn saturation_codes() {
        let a = array();
        let under = a.measure(Voltage::from_v(0.70), skew011(), &pvt());
        assert!(under.is_underflow());
        let over = a.measure(Voltage::from_v(1.20), skew011(), &pvt());
        assert!(over.is_overflow());
    }

    #[test]
    fn codes_are_canonical_and_monotone_in_voltage() {
        let a = array();
        let mut prev_level = 0;
        for mv in (700..=1200).step_by(5) {
            let code = a.measure(Voltage::from_mv(mv as f64), skew011(), &pvt());
            assert!(code.is_canonical(), "bubble at {mv} mV: {code}");
            assert!(
                code.level() >= prev_level,
                "level dropped at {mv} mV: {code}"
            );
            prev_level = code.level();
        }
        assert_eq!(prev_level, 7);
    }

    #[test]
    fn decode_inverts_measure() {
        // Paper: "0011111 corresponds to a VDD-n in the range
        // 0.992 V–1.021 V, while 0000011 to the range 0.896 V–0.929 V".
        let a = array();
        let code: ThermometerCode = "0011111".parse().unwrap();
        let interval = a.decode(&code, skew011(), &pvt()).unwrap();
        let lo = interval.lower.unwrap().volts();
        let hi = interval.upper.unwrap().volts();
        assert!((lo - 0.992).abs() < 0.003, "lower {lo}");
        assert!((hi - 1.021).abs() < 0.003, "upper {hi}");

        let code2: ThermometerCode = "0000011".parse().unwrap();
        let interval2 = a.decode(&code2, skew011(), &pvt()).unwrap();
        assert!((interval2.lower.unwrap().volts() - 0.896).abs() < 0.003);
        assert!((interval2.upper.unwrap().volts() - 0.929).abs() < 0.003);
    }

    #[test]
    fn decode_saturated_codes_open_ended() {
        let a = array();
        let over: ThermometerCode = "1111111".parse().unwrap();
        let i = a.decode(&over, skew011(), &pvt()).unwrap();
        assert!(i.lower.is_some() && i.upper.is_none());
        let under: ThermometerCode = "0000000".parse().unwrap();
        let i = a.decode(&under, skew011(), &pvt()).unwrap();
        assert!(i.lower.is_none() && i.upper.is_some());
    }

    #[test]
    fn decode_rejects_wrong_width() {
        let a = array();
        let code: ThermometerCode = "011".parse().unwrap();
        assert!(a.decode(&code, skew011(), &pvt()).is_err());
    }

    #[test]
    fn interval_contains_true_voltage() {
        let a = array();
        for mv in (840..=1040).step_by(7) {
            let v = Voltage::from_mv(mv as f64);
            let code = a.measure(v, skew011(), &pvt());
            let interval = a.decode(&code, skew011(), &pvt()).unwrap();
            assert!(
                interval.contains(v),
                "decoded interval missed {v} for code {code}"
            );
        }
    }

    #[test]
    fn ground_array_mirrors() {
        let a = ThermometerArray::paper(RailMode::Ground);
        // Quiet ground: the LS inverters see the full nominal swing, so
        // the code equals the HS code at nominal VDD — the two most-loaded
        // elements sit above 1.0 V and fail even with no bounce.
        let quiet = a.measure(Voltage::ZERO, skew011(), &pvt());
        assert_eq!(quiet.to_string(), "0011111");
        // Monotone: more bounce, more failures.
        let mut prev = quiet.fail_count();
        for mv in (0..=300).step_by(5) {
            let code = a.measure(Voltage::from_mv(mv as f64), skew011(), &pvt());
            assert!(code.is_canonical(), "bubble at {mv} mV bounce");
            let fails = code.fail_count();
            assert!(fails >= prev, "failures dropped at {mv} mV");
            prev = fails;
        }
        assert_eq!(prev, 7);
        // Ground thresholds fall with load (most-loaded trips first).
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        for w in th.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn ground_decode_contains_true_bounce() {
        let a = ThermometerArray::paper(RailMode::Ground);
        for mv in (10..=160).step_by(7) {
            let g = Voltage::from_mv(mv as f64);
            let code = a.measure(g, skew011(), &pvt());
            let interval = a.decode(&code, skew011(), &pvt()).unwrap();
            assert!(interval.contains(g), "missed bounce {g} for {code}");
        }
    }

    #[test]
    fn stochastic_measurement_can_bubble_but_corrects() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let mut rng = StdRng::seed_from_u64(11);
        // Sit exactly on a threshold: the boundary element resolves
        // randomly (and its immediate neighbours, ~3.5 ps away, are also
        // inside the 8 ps metastability window and may flip).
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        let mut saw_both = (false, false);
        for _ in 0..64 {
            let code = a.measure_with_rng(th[3], skew011(), &pvt(), &mut rng);
            let fixed = code.correct_bubbles();
            assert!(fixed.is_canonical());
            let fails = fixed.fail_count();
            assert!(
                (1..=6).contains(&fails),
                "implausible fail count {fails} at a threshold"
            );
            match fails {
                3 => saw_both.0 = true,
                4 => saw_both.1 = true,
                _ => {}
            }
        }
        assert!(saw_both.0 && saw_both.1, "boundary element never flipped");
    }

    #[test]
    fn lane_solved_thresholds_match_per_element_search() {
        // The memo-miss path packs all elements into one 64-lane solve;
        // it must replay the standalone per-element search bit for bit.
        let a = array();
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        for (e, t) in a.elements().iter().zip(&th) {
            let alone = e.threshold(skew011(), &pvt()).unwrap();
            assert_eq!(t.volts().to_bits(), alone.volts().to_bits());
        }
    }

    #[test]
    fn threshold_memo_is_transparent() {
        // Memo hit, key-based invalidation and clone-freshness all
        // produce exactly the values a cold array computes.
        let warm = array();
        let s11 = warm.thresholds(skew011(), &pvt()).unwrap();
        assert_eq!(warm.thresholds(skew011(), &pvt()).unwrap(), s11);
        // Changing the skew misses the memo and recomputes.
        let s10 = warm.thresholds(skew010(), &pvt()).unwrap();
        assert_eq!(s10, array().thresholds(skew010(), &pvt()).unwrap());
        assert_ne!(s10, s11);
        // A changed PVT point also misses.
        let hot = Pvt::new(
            psnt_cells::process::ProcessCorner::TT,
            Voltage::from_v(1.0),
            psnt_cells::units::Temperature::from_celsius(85.0),
        );
        let s_hot = warm.thresholds(skew011(), &hot).unwrap();
        assert_eq!(s_hot, array().thresholds(skew011(), &hot).unwrap());
        assert_ne!(s_hot, s11);
        // Clones start cold but agree.
        let cloned = warm.clone();
        assert_eq!(cloned.thresholds(skew011(), &pvt()).unwrap(), s11);
        assert_eq!(cloned, warm);
    }

    #[test]
    fn threshold_memo_keeps_alternating_corners_resident() {
        let warm = array();
        let hot = Pvt::new(
            psnt_cells::process::ProcessCorner::TT,
            Voltage::from_v(1.0),
            psnt_cells::units::Temperature::from_celsius(85.0),
        );
        assert_eq!(warm.memo_stats(), (0, 0));
        // Alternating between two operating points thrashed the old
        // single-entry memo; the bounded map keeps both resident, so
        // only the first visit of each point misses.
        for _ in 0..3 {
            warm.thresholds(skew011(), &pvt()).unwrap();
            warm.thresholds(skew011(), &hot).unwrap();
        }
        let (hits, misses) = warm.memo_stats();
        assert_eq!(misses, 2, "only the first visit of each point may miss");
        assert_eq!(hits, 4);

        // The ctx-threaded path returns the same values and folds the
        // call's hit/miss deltas into the observer's metrics.
        let mut obs = psnt_obs::Observer::ring(8);
        let mut ctx = RunCtx::serial().with_observer(&mut obs);
        let via_ctx = warm.thresholds_ctx(&mut ctx, skew011(), &pvt()).unwrap();
        drop(ctx);
        assert_eq!(via_ctx, warm.thresholds(skew011(), &pvt()).unwrap());
        assert_eq!(obs.metrics.counter_value("thermometer.memo_hits"), 1);
        assert_eq!(obs.metrics.counter_value("thermometer.memo_misses"), 0);

        // Clone-cold semantics extend to the tally.
        assert_eq!(warm.clone().memo_stats(), (0, 0));
    }

    #[test]
    fn interval_midpoint() {
        let i = CodeInterval {
            lower: Some(Voltage::from_v(0.9)),
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!((i.midpoint().unwrap().volts() - 0.95).abs() < 1e-12);
        let open = CodeInterval {
            lower: None,
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!(open.midpoint().is_none());
    }

    #[test]
    fn oversampling_resolves_below_one_lsb() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        // Probe points straddling threshold T4 at sub-LSB offsets (the
        // LSB here is ~30 mV; the metastability window covers ≈ ±70 mV
        // around each threshold).
        for offset_mv in [-20.0, -8.0, 0.0, 8.0, 20.0] {
            let v = th[3] + Voltage::from_mv(offset_mv);
            let mean = a.oversampled_level(v, skew011(), &pvt(), 3000, &mut rng);
            let est = a
                .decode_oversampled(mean, skew011(), &pvt())
                .unwrap()
                .expect("in range");
            let err = (est - v).abs();
            assert!(
                err < Voltage::from_mv(6.0),
                "offset {offset_mv} mV: estimated {est} vs true {v} (err {err})"
            );
        }
    }

    #[test]
    fn oversampled_decode_saturation_returns_none() {
        let a = array();
        assert_eq!(a.decode_oversampled(0.0, skew011(), &pvt()).unwrap(), None);
        assert_eq!(a.decode_oversampled(7.0, skew011(), &pvt()).unwrap(), None);
        assert!(a
            .decode_oversampled(3.5, skew011(), &pvt())
            .unwrap()
            .is_some());
    }

    #[test]
    #[should_panic(expected = "at least one measure")]
    fn oversampled_level_rejects_zero_samples() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let _ = array().oversampled_level(Voltage::from_v(1.0), skew011(), &pvt(), 0, &mut rng);
    }

    /// Every operating point the paper array runs at: both rails, all
    /// eight delay codes, the typical, slow and fast corners.
    fn operating_points() -> Vec<(RailMode, Time, Pvt)> {
        let pg = crate::pulsegen::PulseGenerator::paper_table();
        let mut points = Vec::new();
        for mode in [RailMode::Supply, RailMode::Ground] {
            for pvt in [Pvt::typical(), Pvt::slow(), Pvt::fast()] {
                for code in crate::pulsegen::DelayCode::all() {
                    points.push((mode, pg.skew(code, &pvt), pvt));
                }
            }
        }
        points
    }

    /// Mismatched copies of the paper arrays, wide enough that some
    /// thresholds invert.
    fn perturbed_arrays() -> Vec<ThermometerArray> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = crate::mismatch::MismatchModel::local_90nm().scaled(6.0);
        let mut rng = StdRng::seed_from_u64(23);
        let mut arrays = Vec::new();
        for mode in [RailMode::Supply, RailMode::Ground] {
            for _ in 0..4 {
                arrays.push(model.perturb_array(&ThermometerArray::paper(mode), &mut rng));
            }
        }
        let inverted = arrays.iter().any(|a| {
            let th = a.thresholds(skew011(), &pvt()).unwrap();
            th.windows(2).any(|w| match a.mode() {
                RailMode::Supply => w[1] < w[0],
                RailMode::Ground => w[1] > w[0],
            })
        });
        assert!(inverted, "no mismatched array inverts a threshold pair");
        arrays
    }

    /// The rails the lookup pivots on at one operating point: every
    /// threshold and every finite bracket edge, each with its two ulp
    /// neighbours.
    fn pivot_rails(a: &ThermometerArray, skew: Time, pvt: &Pvt) -> Vec<f64> {
        a.measure(Voltage::ZERO, skew, pvt);
        let mut memo = a.memo.lock().unwrap();
        let entry = memo
            .entries
            .iter_mut()
            .find(|e| e.skew == skew && e.pvt == *pvt)
            .expect("measure memoises its operating point");
        let mut pivots: Vec<f64> = match &entry.thresholds {
            Ok(th) => th.iter().map(|t| t.volts()).collect(),
            Err(_) => Vec::new(),
        };
        for b in &entry.flash(&a.elements).brackets {
            pivots.extend([b.fail.0, b.fail.1, b.pass.0, b.pass.1]);
        }
        pivots
            .into_iter()
            .filter(|v| v.is_finite())
            .flat_map(|v| {
                let bits = v.to_bits();
                [
                    f64::from_bits(bits.wrapping_sub(1)),
                    v,
                    f64::from_bits(bits.wrapping_add(1)),
                ]
            })
            .collect()
    }

    fn assert_lookup_matches_direct(a: &ThermometerArray, rail: f64, skew: Time, pvt: &Pvt) {
        let v = Voltage::from_v(rail);
        assert_eq!(
            a.measure(v, skew, pvt),
            a.measure_detailed(v, skew, pvt).0,
            "{:?} array at {rail:e} V, skew {skew}, {:?}",
            a.mode(),
            pvt.corner
        );
    }

    #[test]
    fn lookup_matches_direct_at_every_bracket_edge() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            -1e300,
        ];
        for (mode, skew, pvt) in operating_points() {
            let a = ThermometerArray::paper(mode);
            let pivots = pivot_rails(&a, skew, &pvt);
            assert_eq!(pivots.len(), 7 * 5 * 3, "{mode:?} {:?}", pvt.corner);
            for rail in pivots.into_iter().chain(specials) {
                assert_lookup_matches_direct(&a, rail, skew, &pvt);
            }
            // Every paper element passes its build-time check, so no
            // bit of a clear rail falls back to the direct model.
            let memo = a.memo.lock().unwrap();
            let table = memo.entries[0].flash.as_ref().unwrap();
            assert!(table.brackets.iter().all(|b| b.pass.0 <= b.pass.1));
        }
        let (skew, pvt) = (skew011(), pvt());
        for a in perturbed_arrays() {
            for rail in pivot_rails(&a, skew, &pvt).into_iter().chain(specials) {
                assert_lookup_matches_direct(&a, rail, skew, &pvt);
            }
        }
    }

    /// The decode this crate shipped before the flash table: clone the
    /// thresholds, sort them, and index by the corrected code's fails.
    fn decode_by_sorting(
        a: &ThermometerArray,
        code: &ThermometerCode,
        skew: Time,
        pvt: &Pvt,
    ) -> CodeInterval {
        let mut asc = a.thresholds(skew, pvt).unwrap();
        asc.sort_by(Voltage::total_cmp);
        let (n, f) = (a.bits(), code.correct_bubbles().fail_count());
        match a.mode() {
            RailMode::Supply => CodeInterval {
                lower: (f < n).then(|| asc[n - f - 1]),
                upper: (f > 0).then(|| asc[n - f]),
            },
            RailMode::Ground => CodeInterval {
                lower: (f > 0).then(|| asc[f - 1]),
                upper: (f < n).then(|| asc[f]),
            },
        }
    }

    #[test]
    fn decode_matches_the_sorting_decode_for_every_fail_count() {
        let arrays = [
            ThermometerArray::paper(RailMode::Supply),
            ThermometerArray::paper(RailMode::Ground),
        ];
        for a in arrays.iter().chain(&perturbed_arrays()) {
            for fails in 0..=a.bits() {
                let code = ThermometerCode::from_fail_count(fails, a.bits());
                assert_eq!(
                    a.decode(&code, skew011(), &pvt()).unwrap(),
                    decode_by_sorting(a, &code, skew011(), &pvt()),
                    "{:?} array, {fails} fails",
                    a.mode()
                );
            }
        }
    }

    #[test]
    fn memo_tallies_requests_and_solves_not_lookups() {
        let a = array();
        a.measure(Voltage::from_v(0.95), skew011(), &pvt());
        a.measure(Voltage::from_v(0.90), skew011(), &pvt());
        // The first measure solved the point; measures are not requests.
        assert_eq!(a.memo_stats(), (0, 1));
        let code = a.measure(Voltage::from_v(0.95), skew011(), &pvt());
        a.decode(&code, skew011(), &pvt()).unwrap();
        a.thresholds(skew011(), &pvt()).unwrap();
        assert_eq!(a.memo_stats(), (2, 1));
        // Requesting thresholds never builds the flash table.
        let cold = array();
        cold.thresholds(skew010(), &pvt()).unwrap();
        assert!(cold.memo.lock().unwrap().entries[0].flash.is_none());
    }

    proptest! {
        #[test]
        fn lookup_matches_direct_for_random_rails(
            ground in any::<bool>(),
            corner in 0usize..3,
            code in 0u8..8,
            rail in -1.0..2.5f64,
        ) {
            let mode = if ground { RailMode::Ground } else { RailMode::Supply };
            let pvt = [Pvt::typical(), Pvt::slow(), Pvt::fast()][corner];
            let code = crate::pulsegen::DelayCode::new(code).unwrap();
            let skew = crate::pulsegen::PulseGenerator::paper_table().skew(code, &pvt);
            let a = ThermometerArray::paper(mode);
            let v = Voltage::from_v(rail);
            prop_assert_eq!(a.measure(v, skew, &pvt), a.measure_detailed(v, skew, &pvt).0);
        }

        #[test]
        fn lookup_matches_direct_on_mismatched_arrays(
            seed in any::<u64>(),
            ground in any::<bool>(),
            rail in -0.5..1.5f64,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mode = if ground { RailMode::Ground } else { RailMode::Supply };
            let model = crate::mismatch::MismatchModel::local_90nm().scaled(6.0);
            let a = model.perturb_array(
                &ThermometerArray::paper(mode),
                &mut StdRng::seed_from_u64(seed),
            );
            let v = Voltage::from_v(rail);
            prop_assert_eq!(
                a.measure(v, skew011(), &pvt()),
                a.measure_detailed(v, skew011(), &pvt()).0
            );
        }

        #[test]
        fn decode_matches_the_sorting_decode_for_any_code(s in "[01xX]{7}") {
            let code: ThermometerCode = s.parse().unwrap();
            for a in [
                ThermometerArray::paper(RailMode::Supply),
                ThermometerArray::paper(RailMode::Ground),
            ] {
                prop_assert_eq!(
                    a.decode(&code, skew011(), &pvt()).unwrap(),
                    decode_by_sorting(&a, &code, skew011(), &pvt())
                );
            }
        }

        #[test]
        fn measured_code_always_canonical(mv in 600.0..1300.0f64) {
            let code = array().measure(Voltage::from_mv(mv), skew011(), &pvt());
            prop_assert!(code.is_canonical());
        }

        #[test]
        fn level_monotone_in_voltage(a in 600.0..1300.0f64, b in 600.0..1300.0f64) {
            prop_assume!(a < b);
            let arr = array();
            let la = arr.measure(Voltage::from_mv(a), skew011(), &pvt()).level();
            let lb = arr.measure(Voltage::from_mv(b), skew011(), &pvt()).level();
            prop_assert!(la <= lb);
        }

        #[test]
        fn decode_roundtrip_contains_voltage(mv in 830.0..1050.0f64) {
            let arr = array();
            let v = Voltage::from_mv(mv);
            let code = arr.measure(v, skew011(), &pvt());
            let interval = arr.decode(&code, skew011(), &pvt()).unwrap();
            prop_assert!(interval.contains(v));
        }
    }
}
