//! The closed-loop co-simulation driver: stepper + sensor + mitigator.
//!
//! [`NocWorkload::run_mitigated`] closes the loop the paper gestures
//! at. It plugs into the same supervised cycle loop as the open-loop
//! campaign: every cycle, the [`CycleStepper`] advances the chip one cycle,
//! each monitor site senses its local rail through
//! [`SensorSystem::hs_level`] (the instantaneous
//! [`SensorSystem::measure_value`] path, the causal sensing entry point
//! — the windowed `measure_at` would peek into the *next* cycle's
//! waveform — reduced to the HIGH-SENSE level the loop keeps), and the
//! thermometer levels travel through a
//! [`DelayLine`] modelling code-distribution latency before a
//! [`Mitigator`] turns them into the [`Actuation`] the stepper honours
//! from the following cycle.
//!
//! Degraded sensing never desyncs the loop: a `psnt-fault`
//! [`SitePanic`](psnt_fault::Fault::SitePanic) on the context knocks
//! out that site's reading for exactly one mid-run frame (cycle
//! `cycles / 2`); the frame still ships, the affected domain reports
//! `None`, and every built-in controller holds its previous actuation
//! for it.

use psnt_cells::units::Voltage;
use psnt_control::{Actuation, ControlFrame, DelayLine, Mitigator, SiteReading};
use psnt_core::SensorSystem;
use psnt_ctx::RunCtx;
use psnt_obs::{Observer, Span};
use serde::{Deserialize, Serialize};

use crate::campaign::{NocWorkload, NoiseProfile, WindowStats};
use crate::checkpoint::{CheckpointPolicy, MitigatedCheckpoint, CHECKPOINT_VERSION};
use crate::driver::{resume_refused, CycleDriver, Shared};
use crate::error::WorkloadError;
use crate::stepper::{CycleStepper, GridScan, StepperSnapshot};

/// Millivolt bucket edges of the `control.droop_depth_mv` histogram.
const DROOP_BUCKETS_MV: [f64; 6] = [10.0, 20.0, 40.0, 60.0, 80.0, 100.0];

/// The actuation in force during one cycle, summarised per actuator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActuationSample {
    /// The cycle the actuation applied to.
    pub cycle: usize,
    /// Domains with a clock stretch engaged (scale below 1.0).
    pub stretched: usize,
    /// Domains holding new traffic injections.
    pub throttled: usize,
    /// Domains with a supply boost engaged.
    pub boosted: usize,
}

impl ActuationSample {
    /// True when no actuator was engaged anywhere this cycle.
    pub fn is_neutral(&self) -> bool {
        self.stretched == 0 && self.throttled == 0 && self.boosted == 0
    }
}

/// Everything a closed-loop run records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigatedNocResult {
    /// The policy name, or `"open-loop"` when no mitigator ran.
    pub policy: String,
    /// Code-distribution latency of the run, cycles.
    pub latency: usize,
    /// The windowed noise profile (same shape as the batch paths).
    pub profile: NoiseProfile,
    /// Per-cycle droop depth below nominal at the grid hotspot, volts
    /// (post-boost — what the logic actually sees).
    pub droop_trace: Vec<f64>,
    /// Per-cycle actuation summary.
    pub actuation_trace: Vec<ActuationSample>,
    /// Deepest per-cycle droop, volts.
    pub worst_droop: f64,
    /// The cycle the deepest droop occurred at.
    pub worst_droop_cycle: usize,
    /// Cycles that ran with any non-neutral actuation in force.
    pub engaged_cycles: u64,
    /// Site readings dropped by faults over the run.
    pub degraded_readings: u64,
    /// Peak number of flits held back by throttles at any one cycle.
    pub deferred_peak: usize,
}

impl MitigatedNocResult {
    /// Droop duration: cycles whose hotspot sat deeper than `depth_v`
    /// below nominal.
    pub fn cycles_deeper_than(&self, depth_v: f64) -> usize {
        self.droop_trace.iter().filter(|&&d| d > depth_v).count()
    }

    /// Mean per-cycle droop depth, volts (0 for an empty trace).
    pub fn mean_droop(&self) -> f64 {
        if self.droop_trace.is_empty() {
            0.0
        } else {
            self.droop_trace.iter().sum::<f64>() / self.droop_trace.len() as f64
        }
    }

    /// Number of transitions between neutral and engaged actuation
    /// over the run — the limit-cycle detector the stability tests
    /// bound: a well-damped controller toggles at most once per burst
    /// edge, a limit-cycling one toggles every few cycles.
    pub fn actuation_toggles(&self) -> usize {
        self.actuation_trace
            .windows(2)
            .filter(|w| w[0].is_neutral() != w[1].is_neutral())
            .count()
    }
}

impl NocWorkload {
    /// Runs the workload cycle-stepped with an optional closed-loop
    /// droop mitigator observing the thermometer codes at `latency`
    /// cycles of code-distribution delay.
    ///
    /// With `mitigator: None` the loop is open and the noise profile is
    /// **bit-identical** to [`NocWorkload::run_streamed`]'s (same seed, any
    /// worker count) — the baseline every mitigation arm compares
    /// against.
    ///
    /// # Errors
    ///
    /// Propagates solver, sensor and actuation-interface errors.
    pub fn run_mitigated(
        &self,
        ctx: &mut RunCtx<'_>,
        mitigator: Option<&mut dyn Mitigator>,
        latency: usize,
    ) -> Result<MitigatedNocResult, WorkloadError> {
        self.run_mitigated_checkpointed(ctx, mitigator, latency, &CheckpointPolicy::none(), None)
    }

    /// [`NocWorkload::run_mitigated`] under a checkpoint policy,
    /// optionally resuming from a snapshot. The closed loop snapshots
    /// everything the driver holds — solve state, traces, the delay
    /// line's in-flight frames and the mitigator's own state (via
    /// [`Mitigator::state_snapshot`]) — so an interrupted-then-resumed
    /// run is **bit-identical** to an uninterrupted one, including the
    /// actuation trace. The deepest droop, its cycle and the engaged
    /// cycles are derived from the traces when the run ends, and the
    /// controller resumes from the stepper's actuation, so none of them
    /// is stored.
    ///
    /// A resume with a mitigator wired must run at the snapshot's code
    /// latency: the delay line must hold `min(cycle, latency)` frames.
    /// The one mismatch accepted is a snapshot taken before any frame
    /// reached the controller, where both latencies are in the same
    /// state.
    ///
    /// A policy whose [`Mitigator::state_snapshot`] returns `None`
    /// resumes with its controller cold; the built-in controllers all
    /// support snapshots.
    ///
    /// # Errors
    ///
    /// As [`NocWorkload::run_mitigated`], plus
    /// [`WorkloadError::Interrupted`] when the context's supervisor
    /// trips (a final checkpoint is written first when a path is
    /// configured), [`WorkloadError::Checkpoint`] on snapshot I/O
    /// failures, and [`WorkloadError::InvalidConfig`] when the resume
    /// snapshot's seed, policy, latency, or geometry does not match
    /// this run, or its actuation lies outside the actuators' authority.
    pub fn run_mitigated_checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        mitigator: Option<&mut dyn Mitigator>,
        latency: usize,
        ckpt_policy: &CheckpointPolicy,
        resume: Option<&MitigatedCheckpoint>,
    ) -> Result<MitigatedNocResult, WorkloadError> {
        let cfg = self.config();
        let tiles = self.mesh().tiles();
        let sensor = SensorSystem::new(cfg.sensor.clone())?;
        let grid = self.campaign().floorplan().grid();

        // Site attribution: floorplan sites address grid nodes; the
        // controller reasons in power domains (mesh tiles).
        let mut node_domain = vec![0usize; grid.tiles()];
        for t in 0..tiles {
            for &nd in self.block_nodes(t) {
                node_domain[nd] = t;
            }
        }
        let sites = self.site_nodes().map(|nd| (nd, node_domain[nd])).collect();
        let driver = ControlLoop {
            policy: mitigator.as_ref().map_or("open-loop", |m| m.name()),
            mitigator,
            latency,
            sensor,
            sites,
            panicking: ctx
                .fault_plan()
                .map(|p| p.panicking_sites())
                .unwrap_or_default(),
            drop_cycle: cfg.cycles / 2,
            v_nom: grid.v_pad().volts(),
            delay: DelayLine::new(latency),
            act: Actuation::neutral(tiles),
            droop_trace: Vec::with_capacity(cfg.cycles),
            actuation_trace: Vec::with_capacity(cfg.cycles),
            degraded_readings: 0,
            deferred_peak: 0,
        };
        self.drive(ctx, ckpt_policy, resume, driver)
    }
}

/// The closed loop's half of the cycle: droop and actuation traces,
/// then sense → [`DelayLine`] → [`Mitigator`] → next cycle's actuation.
struct ControlLoop<'m> {
    mitigator: Option<&'m mut dyn Mitigator>,
    /// The mitigator's name, or `"open-loop"`.
    policy: &'static str,
    latency: usize,
    sensor: SensorSystem,
    /// `(grid node, power domain)` of every monitor site.
    sites: Vec<(usize, usize)>,
    /// Sites a `SitePanic` fault knocks out for the frame at
    /// `drop_cycle`.
    panicking: Vec<usize>,
    drop_cycle: usize,
    v_nom: f64,
    delay: DelayLine,
    /// The controller's working actuation; always the stepper's, since
    /// every `observe` is followed at once by `apply`.
    act: Actuation,
    droop_trace: Vec<f64>,
    actuation_trace: Vec<ActuationSample>,
    degraded_readings: u64,
    deferred_peak: usize,
}

impl CycleDriver for ControlLoop<'_> {
    type Checkpoint = MitigatedCheckpoint;
    type Output = MitigatedNocResult;
    const LANES: usize = 1;

    fn span(&self, obs: &mut Observer, cycles: usize) -> Span {
        obs.begin_span("control_loop")
            .attr("policy", &self.policy)
            .attr("latency", &(self.latency as u64))
            .attr("cycles", &(cycles as u64))
    }

    fn shared(ckpt: &MitigatedCheckpoint) -> Shared<'_> {
        (ckpt.version, ckpt.seed, &ckpt.stepper, &ckpt.stats_done)
    }

    fn restore(
        &mut self,
        ckpt: &MitigatedCheckpoint,
        stepper: &CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        let policy = self.policy;
        if ckpt.policy != policy {
            return Err(resume_refused(format!(
                "checkpoint ran policy {:?}, this run wires {policy:?}",
                ckpt.policy
            )));
        }
        let done = stepper.cycle();
        if ckpt.droop_trace.len() != done || ckpt.actuation_trace.len() != done {
            return Err(resume_refused(format!(
                "traces cover {} / {} cycles, cycle {done} expects {done}",
                ckpt.droop_trace.len(),
                ckpt.actuation_trace.len()
            )));
        }
        // A line of latency L holds min(done, L) frames once a mitigator
        // has seen `done` cycles, so a count mismatch is a different
        // latency. Equal counts below both latencies mean no frame has
        // come out yet, and the two runs are in the same state.
        let expected = done.min(self.latency);
        if self.mitigator.is_some() && ckpt.in_flight.len() != expected {
            return Err(resume_refused(format!(
                "{} frames in flight at cycle {done}, code latency {} expects {expected}",
                ckpt.in_flight.len(),
                self.latency
            )));
        }
        self.delay = DelayLine::with_in_flight(self.latency, ckpt.in_flight.clone())?;
        self.act = stepper.actuation().clone();
        self.droop_trace.extend_from_slice(&ckpt.droop_trace);
        self.actuation_trace
            .extend_from_slice(&ckpt.actuation_trace);
        self.degraded_readings = ckpt.degraded_readings;
        self.deferred_peak = ckpt.deferred_peak;
        if let Some(state) = &ckpt.mitigator_state {
            let Some(m) = self.mitigator.as_deref_mut() else {
                return Err(resume_refused(
                    "checkpoint carries controller state but no mitigator is wired".into(),
                ));
            };
            if !m.restore_state(state) {
                return Err(resume_refused(format!(
                    "controller {policy:?} refused its state snapshot"
                )));
            }
        }
        Ok(())
    }

    fn cycle(
        &mut self,
        c: usize,
        scan: &GridScan,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        self.droop_trace.push(self.v_nom - scan.hotspot.1);
        self.deferred_peak = self.deferred_peak.max(stepper.deferred_backlog());
        let a = stepper.actuation();
        let tiles = a.domains();
        self.actuation_trace.push(ActuationSample {
            cycle: c,
            stretched: (0..tiles).filter(|&t| a.stretch(t) < 1.0).count(),
            throttled: (0..tiles).filter(|&t| a.throttled(t)).count(),
            boosted: (0..tiles).filter(|&t| a.boost(t) > 0.0).count(),
        });

        // Sense frame → delay line → mitigator → next cycle's
        // actuation. Sensing is per-site and instantaneous; a panicked
        // site degrades to `None` for its one faulted frame instead of
        // aborting the loop.
        let Some(m) = self.mitigator.as_deref_mut() else {
            return Ok(());
        };
        let mut readings = Vec::with_capacity(self.sites.len());
        for (k, &(nd, domain)) in self.sites.iter().enumerate() {
            let level = if c == self.drop_cycle && self.panicking.contains(&k) {
                self.degraded_readings += 1;
                None
            } else {
                Some(
                    self.sensor
                        .hs_level(Voltage::from_v(stepper.voltages()[nd])),
                )
            };
            readings.push(SiteReading { domain, level });
        }
        let frame = ControlFrame {
            cycle: c as u64,
            readings,
        };
        if let Some(observed) = self.delay.push(frame) {
            m.observe(&observed, &mut self.act);
            stepper.apply(&self.act)?;
        }
        Ok(())
    }

    fn checkpoint(
        &self,
        seed: u64,
        stepper: StepperSnapshot,
        stats_done: Vec<WindowStats>,
    ) -> MitigatedCheckpoint {
        MitigatedCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            policy: self.policy.into(),
            stepper,
            stats_done,
            droop_trace: self.droop_trace.clone(),
            actuation_trace: self.actuation_trace.clone(),
            degraded_readings: self.degraded_readings,
            deferred_peak: self.deferred_peak,
            in_flight: self.delay.in_flight().cloned().collect(),
            mitigator_state: self.mitigator.as_deref().and_then(|m| m.state_snapshot()),
        }
    }

    fn finish(
        self,
        profile: NoiseProfile,
        obs: Option<&mut Observer>,
    ) -> Result<MitigatedNocResult, WorkloadError> {
        // A strict `>` from zero: ties keep the earliest cycle, NaN never
        // wins, and a run that never droops reports cycle 0.
        let (mut worst_droop, mut worst_droop_cycle) = (0.0f64, 0usize);
        for (c, &droop) in self.droop_trace.iter().enumerate() {
            if droop > worst_droop {
                worst_droop = droop;
                worst_droop_cycle = c;
            }
        }
        let engaged_cycles = self
            .actuation_trace
            .iter()
            .filter(|s| !s.is_neutral())
            .count() as u64;
        if let Some(obs) = obs {
            let m = &mut obs.metrics;
            m.counter_add("control.engaged_cycles", engaged_cycles);
            m.counter_add("control.degraded_readings", self.degraded_readings);
            m.gauge_set_max("control.deferred_peak", self.deferred_peak as f64);
            let h = m.histogram("control.droop_depth_mv", &DROOP_BUCKETS_MV);
            for &d in &self.droop_trace {
                m.record(h, d * 1000.0);
            }
        }
        Ok(MitigatedNocResult {
            policy: self.policy.into(),
            latency: self.latency,
            profile,
            droop_trace: self.droop_trace,
            actuation_trace: self.actuation_trace,
            worst_droop,
            worst_droop_cycle,
            engaged_cycles,
            degraded_readings: self.degraded_readings,
            deferred_peak: self.deferred_peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NocWorkloadConfig;
    use crate::traffic::TrafficPattern;
    use psnt_cells::units::Current;
    use psnt_control::{SupplyBoost, ThresholdThrottle};
    use psnt_engine::RetryPolicy;
    use psnt_fault::{Fault, FaultPlan};

    /// A chip whose rails sit inside the sensor's dynamic range so
    /// thermometer levels actually move with the droop.
    fn control_chip() -> NocWorkloadConfig {
        let mut cfg = NocWorkloadConfig::small_2x2();
        cfg.v_pad = Voltage::from_v(1.0);
        cfg.flit_current = Current::from_ma(40.0);
        cfg.pattern = TrafficPattern::Bursty {
            injection_rate: 0.9,
            on_cycles: 12,
            off_cycles: 18,
        };
        cfg.cycles = 120;
        cfg.measure_every = 30;
        cfg
    }

    #[test]
    fn open_loop_profile_is_bit_identical_to_batch() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let batch = w
            .run_streamed(
                &mut RunCtx::serial().with_seed(23),
                RetryPolicy::none(),
                |_| Ok(()),
            )
            .unwrap();
        let open = w
            .run_mitigated(&mut RunCtx::serial().with_seed(23), None, 0)
            .unwrap();
        assert_eq!(open.profile, batch.profile);
        assert_eq!(open.policy, "open-loop");
        assert_eq!(open.droop_trace.len(), 60);
        assert_eq!(open.engaged_cycles, 0);
        assert!((open.worst_droop - open.droop_trace[open.worst_droop_cycle]).abs() < 1e-15);
    }

    #[test]
    fn throttle_mitigation_cuts_droop_depth() {
        let w = NocWorkload::new(control_chip()).unwrap();
        let base = w
            .run_mitigated(&mut RunCtx::serial().with_seed(5), None, 0)
            .unwrap();
        // Engage whenever any element fails (level ≤ 6 of 7), release
        // only fully recovered rails.
        let mut ctrl = ThresholdThrottle::new(4, 6, 7).unwrap();
        let out = w
            .run_mitigated(&mut RunCtx::serial().with_seed(5), Some(&mut ctrl), 0)
            .unwrap();
        assert!(out.engaged_cycles > 0, "controller engaged");
        assert!(
            out.worst_droop < base.worst_droop,
            "throttling must shallow the droop: {} vs {}",
            out.worst_droop,
            base.worst_droop
        );
        assert!(out.deferred_peak > 0, "throttle held flits back");
    }

    #[test]
    fn boost_mitigation_lifts_the_hotspot() {
        let w = NocWorkload::new(control_chip()).unwrap();
        let base = w
            .run_mitigated(&mut RunCtx::serial().with_seed(6), None, 0)
            .unwrap();
        let mut ctrl = SupplyBoost::new(4, 6, 7, Voltage::from_v(0.04)).unwrap();
        let out = w
            .run_mitigated(&mut RunCtx::serial().with_seed(6), Some(&mut ctrl), 0)
            .unwrap();
        assert!(out.engaged_cycles > 0);
        assert!(out.worst_droop < base.worst_droop);
        // Boost defers nothing.
        assert_eq!(out.deferred_peak, 0);
    }

    /// Observes every frame, actuates nothing — the probe the desync
    /// test uses to watch the loop's frame stream.
    struct NullPolicy {
        frames: usize,
        degraded_frames: usize,
    }

    impl Mitigator for NullPolicy {
        fn name(&self) -> &'static str {
            "null"
        }

        fn observe(&mut self, frame: &ControlFrame, _act: &mut Actuation) {
            self.frames += 1;
            if frame.readings.iter().any(|r| r.level.is_none()) {
                self.degraded_frames += 1;
            }
        }
    }

    #[test]
    fn site_panic_degrades_one_frame_without_desync() {
        let w = NocWorkload::new(control_chip()).unwrap();
        let probe = || NullPolicy {
            frames: 0,
            degraded_frames: 0,
        };
        let mut healthy_ctrl = probe();
        let healthy = w
            .run_mitigated(
                &mut RunCtx::serial().with_seed(9),
                Some(&mut healthy_ctrl),
                2,
            )
            .unwrap();
        let mut faulted_ctrl = probe();
        let mut ctx = RunCtx::serial()
            .with_seed(9)
            .with_fault_plan(FaultPlan::new().with(Fault::SitePanic { site: 1 }));
        let faulted = w
            .run_mitigated(&mut ctx, Some(&mut faulted_ctrl), 2)
            .unwrap();
        assert_eq!(faulted.degraded_readings, 1, "one frame, one site");
        assert_eq!(healthy.degraded_readings, 0);
        // The delayed frame stream kept its 1:1 cycle mapping: same
        // frame count, exactly one carrying a degraded reading.
        assert_eq!(faulted_ctrl.frames, 120 - 2);
        assert_eq!(faulted_ctrl.frames, healthy_ctrl.frames);
        assert_eq!(faulted_ctrl.degraded_frames, 1);
        assert_eq!(faulted.profile, healthy.profile, "loop never desynced");
        assert_eq!(faulted.actuation_trace, healthy.actuation_trace);
    }

    #[test]
    fn mitigated_checkpoint_resumes_bit_identically() {
        use psnt_sup::Interrupt;
        let w = NocWorkload::new(control_chip()).unwrap();
        let mk = || ThresholdThrottle::new(4, 6, 7).unwrap();
        let mut ctrl = mk();
        let full = w
            .run_mitigated(&mut RunCtx::serial().with_seed(5), Some(&mut ctrl), 2)
            .unwrap();
        assert!(full.engaged_cycles > 0, "loop actually closed");
        let path =
            std::env::temp_dir().join(format!("psnt-ckpt-mitigated-{}.json", std::process::id()));
        let mut ctrl2 = mk();
        let mut ctx = RunCtx::serial()
            .with_seed(5)
            .with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 70 }));
        let err = w
            .run_mitigated_checkpointed(
                &mut ctx,
                Some(&mut ctrl2),
                2,
                &CheckpointPolicy::to_path(&path, 1000),
                None,
            )
            .unwrap_err();
        assert_eq!(err, WorkloadError::Interrupted(Interrupt::Cancelled));
        let ckpt = MitigatedCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 70);
        assert_eq!(ckpt.policy, "threshold-throttle");
        assert_eq!(ckpt.in_flight.len(), 2, "delay line captured in flight");
        assert!(ckpt.mitigator_state.is_some(), "controller state captured");
        // Resume with a COLD controller: restore_state reinstates it.
        let mut ctrl3 = mk();
        let resumed = w
            .run_mitigated_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                Some(&mut ctrl3),
                2,
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap();
        assert_eq!(resumed, full, "interrupted-then-resumed ≡ uninterrupted");
        // Resuming at another code latency is refused: at latency 4 the
        // line would hold four frames, the snapshot holds two.
        let mut ctrl4 = mk();
        let err = w
            .run_mitigated_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                Some(&mut ctrl4),
                4,
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap_err();
        assert!(
            matches!(&err, WorkloadError::InvalidConfig { name: "resume", reason }
                if reason.contains("latency 4")),
            "{err:?}"
        );
        // Resuming without the controller the checkpoint ran is refused.
        let err = w
            .run_mitigated_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                None,
                2,
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidConfig { name: "resume", .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mitigated_run_emits_control_telemetry() {
        use psnt_obs::Observer;
        let w = NocWorkload::new(control_chip()).unwrap();
        let mut obs = Observer::ring(4096);
        let mut ctrl = ThresholdThrottle::new(4, 6, 7).unwrap();
        let mut ctx = RunCtx::serial().with_seed(5).with_observer(&mut obs);
        let out = w.run_mitigated(&mut ctx, Some(&mut ctrl), 1).unwrap();
        drop(ctx);
        assert_eq!(
            obs.metrics.counter_value("control.engaged_cycles"),
            out.engaged_cycles
        );
        let h = obs
            .metrics
            .histogram_value("control.droop_depth_mv")
            .unwrap();
        assert_eq!(h.count(), 120, "one droop sample per cycle");
        assert!(h.mean().unwrap() >= 0.0);
    }
}
