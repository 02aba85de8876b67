//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a serde-able list of [`Fault`]s describing how a
//! simulated die deviates from the healthy netlist: stuck nodes, slow or
//! fast gates, single-event upsets, supply glitches, and seeded transient
//! capture errors. Plans are *descriptions only* — the event kernel in
//! `psnt-netlist` resolves net/gate/flip-flop names against a concrete
//! [`Netlist`](../psnt_netlist/struct.Netlist.html) and applies the
//! faults at schedule/commit time, so an **empty plan is bit-identical to
//! a fault-free run** (pinned by proptest in `tests/fault_equiv.rs`).
//!
//! Determinism contract: every fault is either static (stuck-at, delay
//! scale), time-triggered (bit upset, supply glitch), or drawn from a
//! [`SplitMix64`] stream whose seed is part of the plan (transient).
//! Nothing consults wall-clock time or ambient randomness, so the same
//! plan over the same stimulus reproduces the same faulty trace at any
//! worker count.
//!
//! ```
//! use psnt_fault::{Fault, FaultPlan};
//! use psnt_cells::logic::Logic;
//!
//! let plan = FaultPlan::new()
//!     .with(Fault::stuck_at("inv3.out", Logic::Zero))
//!     .with(Fault::delay_scale("inv1", 1.8));
//! let json = plan.to_json();
//! assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
//! ```

#![warn(unreachable_pub)]

use psnt_cells::logic::Logic;
use psnt_cells::units::{Time, Voltage};
use serde::{json, Deserialize, Serialize};

/// One injected hardware defect or disturbance.
///
/// Variant names refer to netlist objects **by name** (as passed to
/// `Netlist::add_net` / `add_gate` / `add_dff` / `add_domain`); the
/// simulator resolves them when the plan is installed and reports
/// `NetlistError::UnknownNet` for names that do not exist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// The net is tied to `value` for the whole run: every scheduled
    /// transition on it is rewritten to `value` at commit time, and the
    /// settled initial state pins it too (classic stuck-at-0/1 model).
    StuckAt {
        /// Net name, e.g. `"inv3.out"`.
        net: String,
        /// The value the defect ties the node to.
        value: Logic,
    },
    /// The gate's propagation delays (rise, fall) are multiplied by
    /// `factor` — `> 1` models a resistive/slow transistor, `< 1` a fast
    /// (hold-hazard) one. Applied when the delay cache is built, so the
    /// event hot path pays nothing.
    DelayScale {
        /// Gate instance name, e.g. `"inv1"`.
        gate: String,
        /// Multiplier on both delay arcs; must be finite and `> 0`.
        factor: f64,
    },
    /// Single-event upset: the flip-flop's output is inverted once at
    /// time `at` (X flips to [`Logic::One`] so the disturbance is
    /// observable). The flip propagates through fanout like any edge.
    BitUpset {
        /// Flip-flop instance name, e.g. `"ff4"`.
        ff: String,
        /// Simulation time of the upset.
        at: Time,
    },
    /// The named supply domain's rail moves by `dv` inside the window
    /// (inclusive start, exclusive end); delays are re-derived at both
    /// boundaries from the momentary supply.
    SupplyGlitch {
        /// Domain name, e.g. `"vdd_noisy"`.
        domain: String,
        /// `(start, end)` of the glitch, `start <= end`.
        window: (Time, Time),
        /// Signed rail excursion (negative = droop).
        dv: Voltage,
    },
    /// Seeded transient capture errors: every flip-flop capture
    /// independently inverts its sampled value with `probability`, drawn
    /// from a [`SplitMix64`] stream over `seed`. Same seed + same
    /// stimulus → same error sequence.
    Transient {
        /// Per-capture flip probability in `[0, 1]`.
        probability: f64,
        /// Stream seed (decorrelate runs by varying it).
        seed: u64,
    },
    /// Harness-level fault: the campaign job for scan site `site` panics
    /// on its first attempt. Exists to exercise the graceful-degradation
    /// path (`JobOutcome::Failed` → `SiteOutcome::Degraded`) end to end;
    /// the event kernel ignores it.
    SitePanic {
        /// Zero-based site index within the campaign's placement order.
        site: usize,
    },
    /// Harness-level fault: a streamed campaign's record sink starts
    /// returning errors after delivering `after_records` records —
    /// exercises the abort path (producer joined, terminal
    /// `StreamRecord::Aborted` emitted, partials preserved). The event
    /// kernel ignores it; test sinks and the chaos soak harness apply
    /// it.
    SinkError {
        /// Records the sink delivers successfully before failing.
        after_records: u64,
    },
    /// Harness-level fault: the campaign job with global index `job`
    /// panics on attempt `attempt` — the generalisation of
    /// [`Fault::SitePanic`] past attempt 0, so retry policies can be
    /// defeated deterministically (set `attempt` ≥ the policy's
    /// max attempts − 1 to exhaust every retry). The event kernel
    /// ignores it.
    WorkerPanic {
        /// Zero-based global job index within the batch.
        job: usize,
        /// The attempt number (0-based) on which the job panics; the
        /// job panics on every attempt up to and including this one.
        attempt: u32,
    },
    /// Harness-level fault: the run's cancellation token is cancelled
    /// when the workload stepper reaches `cycle` — a deterministic
    /// stand-in for an operator's Ctrl-C, so cancellation-at-a-point
    /// is reproducible in tests. The event kernel ignores it.
    CancelAt {
        /// The stepper cycle at which cancellation fires.
        cycle: u64,
    },
    /// Harness-level fault: the run's supervisor is force-expired at
    /// the first supervised boundary, exercising the genuine
    /// wall-clock-deadline path without waiting out a real deadline.
    /// The event kernel ignores it.
    DeadlineTrip,
}

impl Fault {
    /// Shorthand for [`Fault::StuckAt`].
    pub fn stuck_at(net: impl Into<String>, value: Logic) -> Fault {
        Fault::StuckAt {
            net: net.into(),
            value,
        }
    }

    /// Shorthand for [`Fault::DelayScale`].
    pub fn delay_scale(gate: impl Into<String>, factor: f64) -> Fault {
        Fault::DelayScale {
            gate: gate.into(),
            factor,
        }
    }

    /// Shorthand for [`Fault::BitUpset`].
    pub fn bit_upset(ff: impl Into<String>, at: Time) -> Fault {
        Fault::BitUpset { ff: ff.into(), at }
    }

    /// Shorthand for [`Fault::SupplyGlitch`].
    pub fn supply_glitch(domain: impl Into<String>, window: (Time, Time), dv: Voltage) -> Fault {
        Fault::SupplyGlitch {
            domain: domain.into(),
            window,
            dv,
        }
    }

    /// True when the 64-lane batch kernel can carry this fault on a
    /// single lane. Everything is batch-supported except
    /// [`Fault::SupplyGlitch`]: the rail excursion retimes the *shared*
    /// delay cache, so it cannot be confined to one lane of a word.
    pub fn batch_supported(&self) -> bool {
        !matches!(self, Fault::SupplyGlitch { .. })
    }
}

/// A deterministic list of faults to inject into one run.
///
/// The default plan is empty; an empty plan installed on a simulator is
/// bit-identical to no plan at all.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The faults, applied together.
    #[serde(default)]
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: appends `fault` and returns the plan.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Validates value ranges that do not need a netlist: delay factors
    /// must be finite and positive, probabilities in `[0, 1]`, glitch
    /// windows ordered. Name resolution happens later, in the simulator.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (i, fault) in self.faults.iter().enumerate() {
            match fault {
                Fault::DelayScale { gate, factor } => {
                    if !factor.is_finite() || *factor <= 0.0 {
                        return Err(PlanError {
                            index: i,
                            reason: format!(
                                "delay factor {factor} for gate {gate:?} must be finite and > 0"
                            ),
                        });
                    }
                }
                Fault::Transient { probability, .. } => {
                    if !probability.is_finite() || !(0.0..=1.0).contains(probability) {
                        return Err(PlanError {
                            index: i,
                            reason: format!(
                                "transient probability {probability} must be in [0, 1]"
                            ),
                        });
                    }
                }
                Fault::SupplyGlitch { domain, window, .. } => {
                    if window.1 < window.0 {
                        return Err(PlanError {
                            index: i,
                            reason: format!("glitch window on {domain:?} ends before it starts"),
                        });
                    }
                }
                Fault::StuckAt { .. }
                | Fault::BitUpset { .. }
                | Fault::SitePanic { .. }
                | Fault::SinkError { .. }
                | Fault::WorkerPanic { .. }
                | Fault::CancelAt { .. }
                | Fault::DeadlineTrip => {}
            }
        }
        Ok(())
    }

    /// Serializes the plan to JSON (the `--fault-plan <file.json>`
    /// format).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a plan from JSON, then [`validate`](FaultPlan::validate)s
    /// it.
    pub fn from_json(text: &str) -> Result<FaultPlan, PlanError> {
        let plan: FaultPlan = json::from_str(text).map_err(|e| PlanError {
            index: 0,
            reason: format!("malformed fault plan: {e:?}"),
        })?;
        plan.validate()?;
        Ok(plan)
    }

    /// True when every fault in the plan is
    /// [`Fault::batch_supported`] — the precondition for assigning the
    /// plan to a lane of the 64-wide batch simulator. Campaign code
    /// uses this to route supply-glitch plans to the scalar path while
    /// everything else sweeps 64-per-word.
    pub fn batch_supported(&self) -> bool {
        self.faults.iter().all(Fault::batch_supported)
    }

    /// The sites named by [`Fault::SitePanic`] entries, for the campaign
    /// layer.
    pub fn panicking_sites(&self) -> Vec<usize> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::SitePanic { site } => Some(*site),
                _ => None,
            })
            .collect()
    }

    /// The earliest [`Fault::SinkError`] threshold in the plan, if any:
    /// the record count after which a chaos-wrapped sink starts
    /// failing.
    pub fn sink_error_after(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::SinkError { after_records } => Some(*after_records),
                _ => None,
            })
            .min()
    }

    /// The `(job, attempt)` pairs named by [`Fault::WorkerPanic`]
    /// entries, for the campaign layer: job `job` panics on attempts
    /// `0..=attempt`.
    pub fn worker_panics(&self) -> Vec<(usize, u32)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::WorkerPanic { job, attempt } => Some((*job, *attempt)),
                _ => None,
            })
            .collect()
    }

    /// The earliest [`Fault::CancelAt`] cycle in the plan, if any.
    pub fn cancel_at_cycle(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::CancelAt { cycle } => Some(*cycle),
                _ => None,
            })
            .min()
    }

    /// True when the plan carries a [`Fault::DeadlineTrip`].
    pub fn deadline_trip(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::DeadlineTrip))
    }
}

/// A fault plan failed range validation or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// Index of the offending fault within the plan (0 for parse errors).
    pub index: usize,
    /// Human-readable explanation.
    pub reason: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault[{}]: {}", self.index, self.reason)
    }
}

impl std::error::Error for PlanError {}

/// SplitMix64 — the same mixer `psnt-engine` uses for per-job seeds,
/// repackaged as a sequential stream for transient-fault draws.
///
/// Kept dependency-free on purpose: `psnt-netlist` links this crate and
/// must not pull in the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A stream over `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly mixed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next draw in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_roundtrips() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    #[test]
    fn full_taxonomy_roundtrips_through_json() {
        let plan = FaultPlan::new()
            .with(Fault::stuck_at("inv3.out", Logic::Zero))
            .with(Fault::stuck_at("p", Logic::One))
            .with(Fault::delay_scale("inv1", 1.8))
            .with(Fault::bit_upset("ff4", Time::from_ns(6.0)))
            .with(Fault::supply_glitch(
                "vdd_noisy",
                (Time::from_ns(2.0), Time::from_ns(4.0)),
                Voltage::from_v(-0.12),
            ))
            .with(Fault::Transient {
                probability: 0.25,
                seed: 99,
            })
            .with(Fault::SitePanic { site: 3 })
            .with(Fault::SinkError { after_records: 12 })
            .with(Fault::SinkError { after_records: 5 })
            .with(Fault::WorkerPanic { job: 9, attempt: 2 })
            .with(Fault::CancelAt { cycle: 500 })
            .with(Fault::CancelAt { cycle: 40 })
            .with(Fault::DeadlineTrip);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.panicking_sites(), vec![3]);
        assert_eq!(back.sink_error_after(), Some(5), "earliest threshold wins");
        assert_eq!(back.worker_panics(), vec![(9, 2)]);
        assert_eq!(back.cancel_at_cycle(), Some(40), "earliest cycle wins");
        assert!(back.deadline_trip());
    }

    #[test]
    fn harness_faults_are_absent_by_default() {
        let empty = FaultPlan::new();
        assert_eq!(empty.sink_error_after(), None);
        assert!(empty.worker_panics().is_empty());
        assert_eq!(empty.cancel_at_cycle(), None);
        assert!(!empty.deadline_trip());
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        let bad_factor = FaultPlan::new().with(Fault::delay_scale("g", 0.0));
        assert!(bad_factor.validate().is_err());
        let bad_prob = FaultPlan::new().with(Fault::Transient {
            probability: 1.5,
            seed: 0,
        });
        assert!(bad_prob.validate().is_err());
        let bad_window = FaultPlan::new().with(Fault::supply_glitch(
            "d",
            (Time::from_ns(4.0), Time::from_ns(2.0)),
            Voltage::from_v(0.1),
        ));
        let err = bad_window.validate().unwrap_err();
        assert!(err.to_string().contains("window"));
    }

    #[test]
    fn batch_supported_excludes_only_supply_glitches() {
        let ok = FaultPlan::new()
            .with(Fault::stuck_at("n", Logic::One))
            .with(Fault::delay_scale("g", 2.0))
            .with(Fault::bit_upset("ff0", Time::from_ns(1.0)))
            .with(Fault::Transient {
                probability: 0.1,
                seed: 1,
            })
            .with(Fault::SitePanic { site: 0 });
        assert!(ok.batch_supported());
        let glitchy = ok.with(Fault::supply_glitch(
            "vdd",
            (Time::ZERO, Time::from_ns(1.0)),
            Voltage::from_v(-0.1),
        ));
        assert!(!glitchy.batch_supported());
        assert!(FaultPlan::new().batch_supported());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{\"faults\": [{\"Nope\": {}}]}").is_err());
    }

    /// A plan holding every fault variant, valid.
    fn every_fault() -> FaultPlan {
        FaultPlan::new()
            .with(Fault::stuck_at("inv3.out", Logic::One))
            .with(Fault::delay_scale("inv1", 1.5))
            .with(Fault::bit_upset("ff4", Time::from_ns(2.0)))
            .with(Fault::supply_glitch(
                "vdd",
                (Time::ZERO, Time::from_ns(1.0)),
                Voltage::from_v(-0.1),
            ))
            .with(Fault::Transient {
                probability: 0.25,
                seed: 7,
            })
            .with(Fault::SitePanic { site: 3 })
            .with(Fault::SinkError { after_records: 9 })
            .with(Fault::WorkerPanic { job: 2, attempt: 1 })
            .with(Fault::CancelAt { cycle: 500 })
            .with(Fault::DeadlineTrip)
    }

    #[test]
    fn out_of_range_values_name_their_fault() {
        let doc = every_fault().to_json();
        assert_eq!(FaultPlan::from_json(&doc), Ok(every_fault()));
        for (from, to, index) in [
            ("\"factor\":1.5", "\"factor\":-1.5", 1),
            ("\"factor\":1.5", "\"factor\":0.0", 1),
            ("\"factor\":1.5", "\"factor\":1e999", 1),
            ("\"probability\":0.25", "\"probability\":1.5", 4),
            ("\"window\":[0.0,1000.0]", "\"window\":[1000.0,0.0]", 3),
        ] {
            assert!(doc.contains(from), "{from} not in {doc}");
            let err = FaultPlan::from_json(&doc.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.index, index, "{to}: {err}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]
        /// Mutation fuzzing of a plan holding every fault variant:
        /// ASCII byte flips, truncation, deleted and duplicated runs.
        /// Nothing panics; a mutant parses to a plan that validates and
        /// round-trips through `to_json`, or fails with a `PlanError`
        /// whose index names one of its faults.
        #[test]
        fn mutated_fault_plans_parse_or_fail_cleanly(
            kind in 0u8..4,
            at in 0usize..1 << 16,
            len in 1usize..24,
            byte in 0x20u8..0x7f,
        ) {
            let doc = every_fault().to_json();
            let mut bytes = doc.into_bytes();
            let i = at % bytes.len();
            let j = (i + len).min(bytes.len());
            match kind {
                0 => bytes[i] = byte,
                1 => bytes.truncate(i),
                2 => {
                    bytes.drain(i..j);
                }
                _ => {
                    let run = bytes[i..j].to_vec();
                    bytes.splice(i..i, run);
                }
            }
            let text = String::from_utf8(bytes).unwrap();
            match FaultPlan::from_json(&text) {
                Ok(plan) => {
                    proptest::prop_assert_eq!(plan.validate(), Ok(()));
                    proptest::prop_assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
                }
                Err(e) => {
                    proptest::prop_assert!(!e.reason.is_empty());
                    proptest::prop_assert!(e.index < every_fault().len() + len, "{}", e);
                }
            }
            if kind == 1 {
                proptest::prop_assert!(FaultPlan::from_json(&text).is_err(), "{} parsed", text);
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let again: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws, again);
        let mut c = SplitMix64::new(7);
        let mean: f64 = (0..4096).map(|_| c.next_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
        assert!((0.0..1.0).contains(&c.next_f64()));
    }
}
