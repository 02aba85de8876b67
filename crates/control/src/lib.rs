//! # psnt-control — closed-loop droop mitigation
//!
//! The paper's argument for a *fully digital* noise sensor is that its
//! thermometer output is available on-chip, within cycles — early
//! enough for a power-aware policy to act on it. This crate supplies
//! that policy layer for the cycle-stepped co-simulation core in
//! `psnt-workload`: a [`Mitigator`] observes the thermometer codes
//! sensed at cycle *t* (optionally delayed through a [`DelayLine`]
//! modelling code-distribution latency) and mutates cycle *t + 1*
//! through the sanctioned [`Actuation`] interface — per-domain
//! clock-stretch (activity scaling), load-throttle and supply boost.
//! No controller touches simulator state directly.
//!
//! Determinism rules (enforced by CI): controllers are **sim-time
//! pure** — their decisions are functions of the frames they observed
//! and their own state, never of wall-clock time (a CI grep gate bars
//! wall-clock reads from this crate), ambient randomness, or thread
//! identity. Two runs with the same seed and latency produce
//! bit-identical actuation traces at any worker count.
//!
//! Built-in controllers ([`controllers`]):
//!
//! * [`ThresholdStretch`] — stretch the domain clock (scale activity)
//!   while the domain's worst code sits at or below a threshold;
//! * [`ThresholdThrottle`] — hold new traffic injection while engaged;
//! * [`SupplyBoost`] — step the domain supply up while engaged;
//! * [`PiBoost`] — a proportional-integral supply boost with
//!   anti-windup (clamped conditional integration) and a deadband.
//!
//! The threshold controllers carry mandatory hysteresis (release level
//! strictly above engage level), which is what keeps them from
//! limit-cycling when a code hovers at the threshold.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod controllers;

use serde::{Deserialize, Serialize};
use std::fmt;

pub use controllers::{PiBoost, SupplyBoost, ThresholdStretch, ThresholdThrottle};

/// Errors produced by the `psnt-control` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// A controller parameter violated a constraint.
    InvalidConfig {
        /// The parameter name.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::InvalidConfig { name, reason } => {
                write!(f, "invalid controller configuration {name}: {reason}")
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// One monitor site's contribution to a [`ControlFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteReading {
    /// The power domain (mesh tile) the site monitors.
    pub domain: usize,
    /// The HIGH-SENSE thermometer level the site reported, or `None`
    /// when the site degraded this cycle (a panicked sense). Lower
    /// levels mean deeper droop.
    pub level: Option<usize>,
}

/// Everything a [`Mitigator`] sees of one cycle: the thermometer codes
/// of every monitor site, already digital — exactly what the paper's
/// sensor ships on-chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlFrame {
    /// The cycle the codes were sensed at.
    pub cycle: u64,
    /// Per-site readings, in floorplan site order.
    pub readings: Vec<SiteReading>,
}

impl ControlFrame {
    /// The worst (minimum) healthy level observed in each of `domains`
    /// power domains; `None` for a domain with no healthy reading this
    /// cycle, which controllers treat as "hold previous actuation" —
    /// a degraded site never desyncs the loop.
    pub fn domain_min_levels(&self, domains: usize) -> Vec<Option<usize>> {
        let mut mins = vec![None; domains];
        for r in &self.readings {
            if let (Some(level), Some(slot)) = (r.level, mins.get_mut(r.domain)) {
                *slot = Some(slot.map_or(level, |m: usize| m.min(level)));
            }
        }
        mins
    }
}

/// Floor of the per-domain activity scale a clock-stretch may request:
/// stretching below 4× (scale 0.25) would starve a domain outright.
pub const MIN_STRETCH: f64 = 0.25;

/// Ceiling of the per-domain supply boost, in volts (a realistic
/// header-switch / LDO authority; more would cook the domain).
pub const MAX_BOOST_V: f64 = 0.2;

/// The sanctioned mutation interface between a [`Mitigator`] and the
/// cycle stepper: per-domain clock-stretch, load-throttle and supply
/// boost, all clamped to physical authority at the setter. The stepper
/// applies an actuation to cycle *t + 1* after the controller observed
/// cycle *t*; there is no other way for a controller to reach
/// simulator state.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Actuation {
    stretch: Vec<f64>,
    throttle: Vec<bool>,
    boost: Vec<f64>,
}

impl Clone for Actuation {
    fn clone(&self) -> Actuation {
        Actuation {
            stretch: self.stretch.clone(),
            throttle: self.throttle.clone(),
            boost: self.boost.clone(),
        }
    }

    /// Copies `source` field by field into the buffers `self` already
    /// holds, so a same-sized copy allocates nothing.
    fn clone_from(&mut self, source: &Actuation) {
        self.stretch.clone_from(&source.stretch);
        self.throttle.clone_from(&source.throttle);
        self.boost.clone_from(&source.boost);
    }
}

impl Actuation {
    /// The do-nothing actuation over `domains` power domains: scale
    /// 1.0, no throttle, zero boost. A stepper driven with a neutral
    /// actuation is bit-identical to the uncontrolled batch path.
    pub fn neutral(domains: usize) -> Actuation {
        Actuation {
            stretch: vec![1.0; domains],
            throttle: vec![false; domains],
            boost: vec![0.0; domains],
        }
    }

    /// Number of power domains.
    pub fn domains(&self) -> usize {
        self.stretch.len()
    }

    /// Requests a clock stretch on `domain`: activity scales by
    /// `scale`, clamped into `[`[`MIN_STRETCH`]`, 1.0]` (non-finite
    /// requests clamp to 1.0).
    pub fn set_stretch(&mut self, domain: usize, scale: f64) {
        if let Some(s) = self.stretch.get_mut(domain) {
            *s = if scale.is_finite() {
                scale.clamp(MIN_STRETCH, 1.0)
            } else {
                1.0
            };
        }
    }

    /// Requests (or releases) a traffic-injection hold on `domain`.
    pub fn set_throttle(&mut self, domain: usize, on: bool) {
        if let Some(t) = self.throttle.get_mut(domain) {
            *t = on;
        }
    }

    /// Requests a supply boost on `domain`, in volts, clamped into
    /// `[0, `[`MAX_BOOST_V`]`]` (non-finite requests clamp to 0).
    pub fn set_boost(&mut self, domain: usize, volts: f64) {
        if let Some(b) = self.boost.get_mut(domain) {
            *b = if volts.is_finite() {
                volts.clamp(0.0, MAX_BOOST_V)
            } else {
                0.0
            };
        }
    }

    /// The activity scale of `domain`.
    pub fn stretch(&self, domain: usize) -> f64 {
        self.stretch[domain]
    }

    /// Whether `domain` is holding new injections.
    pub fn throttled(&self, domain: usize) -> bool {
        self.throttle[domain]
    }

    /// The supply boost of `domain`, volts.
    pub fn boost(&self, domain: usize) -> f64 {
        self.boost[domain]
    }

    /// Whether this actuation changes nothing (every domain at scale
    /// 1.0, unthrottled, zero boost).
    pub fn is_neutral(&self) -> bool {
        self.stretch.iter().all(|&s| s == 1.0)
            && self.throttle.iter().all(|&t| !t)
            && self.boost.iter().all(|&b| b == 0.0)
    }
}

/// A droop-mitigation policy: observes the thermometer codes of one
/// cycle and updates the actuation the stepper will apply to the next.
///
/// Implementations must be sim-time pure (see the crate docs) and must
/// tolerate degraded readings (`level: None`) by holding the affected
/// domain's previous actuation — never by resetting their own state.
pub trait Mitigator {
    /// A short, stable policy name for telemetry and experiment tables.
    fn name(&self) -> &'static str;

    /// Observes `frame` (sensed `latency` cycles ago when a
    /// [`DelayLine`] sits in front) and mutates `act`, the actuation
    /// applied to the next cycle.
    fn observe(&mut self, frame: &ControlFrame, act: &mut Actuation);

    /// Serializes the controller's state for checkpointing, or `None`
    /// (the default) when the policy does not support it — a resumed
    /// run then restarts the controller cold, which is safe but may
    /// diverge from the uninterrupted run until it re-converges.
    fn state_snapshot(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`Mitigator::state_snapshot`] on an
    /// identically configured controller; returns `false` (the
    /// default) when the payload is unsupported or unrecognized, in
    /// which case the controller keeps its current state.
    fn restore_state(&mut self, _snapshot: &str) -> bool {
        false
    }
}

impl fmt::Debug for dyn Mitigator + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mitigator({})", self.name())
    }
}

/// Models the distribution latency between the sensor's scan codes and
/// the controller: a frame pushed at cycle *t* emerges at cycle
/// *t + latency*. Latency 0 passes frames straight through — the
/// paper's best case of codes consumed on-chip the cycle they resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayLine {
    latency: usize,
    queue: std::collections::VecDeque<ControlFrame>,
}

impl DelayLine {
    /// A delay line of `latency` cycles.
    pub fn new(latency: usize) -> DelayLine {
        DelayLine {
            latency,
            queue: std::collections::VecDeque::with_capacity(latency + 1),
        }
    }

    /// The configured latency, cycles.
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Pushes this cycle's frame; returns the frame sensed `latency`
    /// cycles ago, or `None` while the line is still filling.
    pub fn push(&mut self, frame: ControlFrame) -> Option<ControlFrame> {
        self.queue.push_back(frame);
        if self.queue.len() > self.latency {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Takes the oldest frame in flight ahead of [`DelayLine::push`]
    /// when it is due for cycle `cycle`. A frame sensed at cycle *f*
    /// leaves the line at the end of cycle *f + latency* and governs
    /// the cycles after it, so it is due for `cycle` when
    /// *f + latency < cycle*. A loop that prepares `cycle` before it has
    /// pushed the frames of the cycles just before it takes the due
    /// frames first, oldest first, and observes them in the order
    /// `push` would have returned them; a frame taken here is not
    /// returned by `push` again.
    pub fn take_due(&mut self, cycle: u64) -> Option<ControlFrame> {
        let due = self
            .queue
            .front()
            .is_some_and(|f| f.cycle.saturating_add(self.latency as u64) < cycle);
        if due {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// The frames currently in flight, oldest first — what a
    /// checkpoint must capture to resume the loop without a sensing
    /// gap.
    pub fn in_flight(&self) -> impl Iterator<Item = &ControlFrame> {
        self.queue.iter()
    }

    /// Rebuilds a delay line with `frames` (oldest first) already in
    /// flight, as captured by [`DelayLine::in_flight`].
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] when more than
    /// `latency` frames are supplied — a line never holds more between
    /// pushes, so such a snapshot is corrupt.
    pub fn with_in_flight(
        latency: usize,
        frames: Vec<ControlFrame>,
    ) -> Result<DelayLine, ControlError> {
        if frames.len() > latency {
            return Err(ControlError::InvalidConfig {
                name: "frames",
                reason: format!(
                    "{} frames in flight exceed the line's latency of {latency}",
                    frames.len()
                ),
            });
        }
        Ok(DelayLine {
            latency,
            queue: frames.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(cycle: u64, levels: &[(usize, Option<usize>)]) -> ControlFrame {
        ControlFrame {
            cycle,
            readings: levels
                .iter()
                .map(|&(domain, level)| SiteReading { domain, level })
                .collect(),
        }
    }

    #[test]
    fn domain_min_levels_skip_degraded_readings() {
        let f = frame(
            3,
            &[
                (0, Some(5)),
                (0, Some(2)),
                (1, None),
                (2, Some(7)),
                (9, Some(0)),
            ],
        );
        // Domain 9 is out of range for a 3-domain view and ignored.
        assert_eq!(
            f.domain_min_levels(3),
            vec![Some(2), None, Some(7)],
            "worst healthy reading per domain"
        );
    }

    #[test]
    fn actuation_clamps_to_physical_authority() {
        let mut a = Actuation::neutral(2);
        assert!(a.is_neutral());
        a.set_stretch(0, 0.01);
        assert_eq!(a.stretch(0), MIN_STRETCH);
        a.set_stretch(0, 2.0);
        assert_eq!(a.stretch(0), 1.0);
        a.set_stretch(0, f64::NAN);
        assert_eq!(a.stretch(0), 1.0);
        a.set_boost(1, 5.0);
        assert_eq!(a.boost(1), MAX_BOOST_V);
        a.set_boost(1, -1.0);
        assert_eq!(a.boost(1), 0.0);
        a.set_throttle(1, true);
        assert!(a.throttled(1) && !a.is_neutral());
        // Out-of-range domains are ignored, not panicked on.
        a.set_stretch(7, 0.5);
        a.set_throttle(7, true);
        a.set_boost(7, 0.1);
        assert_eq!(a.domains(), 2);
    }

    #[test]
    fn delay_line_delays_by_exactly_latency() {
        let mut dl = DelayLine::new(3);
        assert_eq!(dl.latency(), 3);
        for c in 0u64..3 {
            assert_eq!(dl.push(frame(c, &[])), None, "still filling at {c}");
        }
        for c in 3u64..8 {
            let out = dl.push(frame(c, &[])).expect("line full");
            assert_eq!(out.cycle, c - 3);
        }
        // Latency 0 is a pass-through.
        let mut zero = DelayLine::new(0);
        assert_eq!(zero.push(frame(11, &[])).unwrap().cycle, 11);
    }

    #[test]
    fn due_frames_leave_early_in_push_order() {
        // Two lines see the same frames; one has each frame taken as
        // soon as it is due for the cycle after next.
        let (mut late, mut early) = (DelayLine::new(2), DelayLine::new(2));
        let (mut pushed, mut taken) = (Vec::new(), Vec::new());
        for c in 0u64..10 {
            while let Some(f) = early.take_due(c + 1) {
                taken.push(f.cycle);
            }
            pushed.extend(late.push(frame(c, &[])).map(|f| f.cycle));
            taken.extend(early.push(frame(c, &[])).map(|f| f.cycle));
        }
        assert_eq!(pushed, (0..8).collect::<Vec<_>>());
        assert_eq!(taken, pushed, "same frames, same order");
        // Whatever was taken early, the frames left in flight agree.
        assert!(late.in_flight().eq(early.in_flight()));
        // A frame is due only once `cycle` is past its push cycle.
        let mut dl = DelayLine::new(2);
        dl.push(frame(4, &[]));
        assert_eq!(dl.take_due(6), None);
        assert_eq!(dl.take_due(7).map(|f| f.cycle), Some(4));
        assert_eq!(dl.take_due(u64::MAX), None);
    }

    #[test]
    fn actuation_clone_from_reuses_its_buffers() {
        let mut a = Actuation::neutral(3);
        let mut b = Actuation::neutral(3);
        b.set_boost(1, 0.05);
        b.set_throttle(2, true);
        let at = a.boost.as_ptr();
        a.clone_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.boost.as_ptr(), at, "same-sized copy kept its buffer");
    }
}
