//! Gate-level twin of the sensor array.
//!
//! The paper's strongest claim is that the sensor is "fully digital and
//! standard cell based". This module takes that literally: it builds the
//! 7-element array as an actual [`Netlist`] — sense inverters in a
//! separate *noisy* power domain, load capacitors as wire parasitics on
//! the `DS-i` nets, library flip-flops clocked by a shared `CP` — and
//! runs complete PREPARE/SENSE measures through the event-driven
//! simulator. No sensor-specific behaviour is scripted: the setup
//! violations emerge from event timing and the flip-flop model, exactly
//! as they would in silicon.
//!
//! The equivalence tests check the gate-level twin bit-for-bit against
//! the behavioural [`ThermometerArray`](crate::thermometer::ThermometerArray) across the dynamic range — the
//! strongest internal-consistency evidence this reproduction offers.
//!
//! Edge asymmetry is modelled faithfully: the sense inverter's
//! falling-DS (PREPARE) transition is driven by a pull-down with full
//! gate drive from the clean-domain `P` signal, so it completes at a
//! fixed nominal rate no matter how deep the noisy rail droops; only the
//! rising (SENSE) transition is rail-limited. The cells carry distinct
//! edge models ([`StdCell::with_fall_model`]) to capture exactly that.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::gate_level::GateLevelArray;
//! use psnt_ctx::RunCtx;
//!
//! let array = GateLevelArray::paper()?;
//! let mut ctx = RunCtx::serial();
//! let code = array.measure(&mut ctx, Voltage::from_v(1.0), Time::from_ps(149.0))?;
//! assert_eq!(code.to_string(), "0011111"); // Fig. 9's first measure
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use psnt_cells::delay::AlphaPowerDelay;
use psnt_cells::dff::Dff;
use psnt_cells::gates::{GateFunction, StdCell};
use psnt_cells::logic::{Logic, LogicVector};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use psnt_ctx::RunCtx;
use psnt_fault::FaultPlan;
use psnt_netlist::batch::{BatchSimulator, LANES};
use psnt_netlist::graph::{DomainId, NetId, Netlist};
use psnt_netlist::sim::{Simulator, TraceMode};

use crate::code::ThermometerCode;
use crate::error::SensorError;
use crate::thermometer::CapacitorLadder;

/// Event budget installed on a simulator whenever a fault plan is
/// active. A healthy measure of the 7-element array applies a few
/// hundred events; the full system a few thousand — so this ceiling is
/// orders of magnitude above any legitimate run while still turning an
/// oscillating fault (e.g. a stuck-at closing a combinational loop)
/// into [`psnt_netlist::NetlistError::BudgetExceeded`] instead of a
/// hang.
const FAULTED_EVENT_BUDGET: u64 = 5_000_000;

/// One lane's outcome from [`GateLevelArray::measure_batch`]: the
/// `(sense, prepare)` code pair that lane measured, or its per-lane
/// error (e.g. `BudgetExceeded` for an oscillating fault plan).
pub type LaneMeasure = Result<(ThermometerCode, ThermometerCode), SensorError>;

/// Installs (or clears) a context's fault plan on a pooled simulator,
/// pairing it with the [`FAULTED_EVENT_BUDGET`] guard. Fault-free
/// contexts leave the simulator exactly as before — no plan, no budget
/// — preserving the bit-identity contract.
fn apply_ctx_faults(
    sim: &mut Simulator<'_>,
    plan: Option<&psnt_fault::FaultPlan>,
) -> Result<(), SensorError> {
    match plan {
        Some(p) => {
            sim.set_fault_plan(p).map_err(SensorError::from)?;
            sim.set_event_budget(Some(FAULTED_EVENT_BUDGET));
        }
        None => {
            sim.clear_fault_plan();
            sim.set_event_budget(None);
        }
    }
    Ok(())
}

/// Timing of the stimulus applied for one gate-level measure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MeasurePlan {
    /// PREPARE capture edge (CP rising with P = 1).
    prepare_edge: Time,
    /// SENSE launch (P falls).
    sense_launch: Time,
    /// SENSE capture edge (CP rising), `sense_launch + skew`.
    sense_edge: Time,
    /// When the outputs are read.
    read_at: Time,
}

/// The sensor array as a standard-cell netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLevelArray {
    netlist: Netlist,
    noisy: DomainId,
    p: NetId,
    cp: NetId,
    /// FF output nets, ascending-load order.
    outs: Vec<NetId>,
    pvt: Pvt,
}

impl GateLevelArray {
    /// Builds the paper's 7-element array over the Fig. 5 ladder.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn paper() -> Result<GateLevelArray, SensorError> {
        GateLevelArray::new(&CapacitorLadder::paper_fig5(), Pvt::typical())
    }

    /// Builds a gate-level array over an arbitrary ladder.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new(ladder: &CapacitorLadder, pvt: Pvt) -> Result<GateLevelArray, SensorError> {
        let mut n = Netlist::new("sensor_array");
        let noisy = n.add_domain("vdd_noisy");
        let p = n.add_input("P");
        let cp = n.add_input("CP");
        let ff = Dff::standard_90nm();
        // The calibrated sense inverter as a library cell. Its intrinsic
        // output capacitance lives in the delay model; the ladder
        // capacitor becomes wire parasitic on DS-i (minus the FF D-pin
        // load the netlist adds back). The rising (SENSE) edge is powered
        // from the noisy rail; the falling (PREPARE) edge discharges at a
        // fixed nominal rate — its NMOS gate is driven by the
        // clean-domain `P` — modelled per element as a constant-delay
        // fall arc.
        let rise_model = AlphaPowerDelay::paper_sense_inverter();
        let mut outs = Vec::with_capacity(ladder.len());
        for (i, &c) in ladder.caps().iter().enumerate() {
            let t_fall = {
                use psnt_cells::delay::DelayModel as _;
                rise_model.propagation_delay(pvt.nominal_vdd, c, &pvt)
            };
            let fall_model = AlphaPowerDelay::new(
                1.0e-6, // negligible load sensitivity: the arc is the intrinsic
                Capacitance::from_ff(1.0),
                t_fall,
                Voltage::from_v(0.05),
                1.3,
            )
            .expect("static fall-arc parameters are valid");
            let sense_inv = StdCell::new(
                format!("SENSE_INV_{i}"),
                GateFunction::Inv,
                rise_model,
                Capacitance::from_ff(2.0),
            )
            .with_fall_model(fall_model);
            let ds = n
                .add_gate(format!("inv{i}"), sense_inv, &[p])
                .map_err(SensorError::from)?;
            let wire = c - ff.d_capacitance();
            n.add_wire_capacitance(ds, wire);
            // The sense inverter draws from the noisy rail.
            let gate_id = psnt_netlist::graph::GateId::from_index(i);
            n.set_gate_domain(gate_id, noisy);
            let q = n.add_dff(format!("ff{i}"), ff, ds, cp, Logic::Zero);
            n.mark_output(format!("out{i}"), q);
            outs.push(q);
        }
        n.validate().map_err(SensorError::from)?;
        Ok(GateLevelArray {
            netlist: n,
            noisy,
            p,
            cp,
            outs,
            pvt,
        })
    }

    /// The underlying netlist (e.g. for STA or VCD export).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The noisy power domain id.
    pub fn noisy_domain(&self) -> DomainId {
        self.noisy
    }

    /// Number of elements.
    pub fn bits(&self) -> usize {
        self.outs.len()
    }

    fn plan(skew: Time) -> MeasurePlan {
        let prepare_edge = Time::from_ns(2.0);
        let sense_launch = Time::from_ns(5.0);
        MeasurePlan {
            prepare_edge,
            sense_launch,
            sense_edge: sense_launch + skew,
            read_at: sense_launch + skew + Time::from_ns(1.0),
        }
    }

    /// Builds a fresh simulator for this array. A measure only reads
    /// the latched FF outputs, so trace capture is off entirely. The
    /// context's simulator pool calls this once per array and then
    /// reuses the instance, so a sweep amortises construction:
    ///
    /// ```
    /// use psnt_cells::units::{Time, Voltage};
    /// use psnt_core::gate_level::GateLevelArray;
    /// use psnt_ctx::RunCtx;
    ///
    /// let array = GateLevelArray::paper()?;
    /// let mut ctx = RunCtx::serial(); // pools one simulator for `array`
    /// for mv in [900.0, 1000.0] {
    ///     let code = array.measure(&mut ctx, Voltage::from_mv(mv), Time::from_ps(149.0))?;
    ///     let fresh = array.measure(&mut RunCtx::serial(), Voltage::from_mv(mv), Time::from_ps(149.0))?;
    ///     assert_eq!(code, fresh);
    /// }
    /// # Ok::<(), psnt_core::error::SensorError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn make_sim(&self) -> Result<Simulator<'_>, SensorError> {
        Simulator::with_options(
            &self.netlist,
            self.pvt.nominal_vdd,
            self.pvt,
            TraceMode::Off,
        )
        .map_err(SensorError::from)
    }

    /// Runs one full PREPARE/SENSE measure with the noisy rail at
    /// `rail` and the P→CP pin skew `skew`, returning the thermometer
    /// code (most-loaded element first, as the paper prints it). The
    /// simulator comes from the context's pool, so repeated measures
    /// reuse one allocation; every measure resets it first, keeping the
    /// result bit-identical to a fresh simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn measure<'env>(
        &'env self,
        ctx: &mut RunCtx<'env>,
        rail: Voltage,
        skew: Time,
    ) -> Result<ThermometerCode, SensorError> {
        Ok(self.measure_detailed(ctx, rail, skew)?.0)
    }

    /// Like [`GateLevelArray::measure`], but also returning the PREPARE
    /// code read just before the SENSE launch (the paper's Fig. 9 shows
    /// it as `0000000`).
    ///
    /// When the context carries a [`psnt_fault::FaultPlan`]
    /// ([`RunCtx::with_fault_plan`]), the plan is installed on the
    /// pooled simulator before the measure (and cleared again by a
    /// later fault-free context), with an event-budget guard so a fault
    /// that makes the netlist oscillate reports
    /// [`psnt_netlist::NetlistError::BudgetExceeded`] instead of
    /// hanging.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures, including invalid fault plans
    /// (unknown net/gate/FF names) and exceeded event budgets.
    pub fn measure_detailed<'env>(
        &'env self,
        ctx: &mut RunCtx<'env>,
        rail: Voltage,
        skew: Time,
    ) -> Result<(ThermometerCode, ThermometerCode), SensorError> {
        let (obs, pool, plan) = ctx.obs_pool_parts();
        let sim = pool.get_or_insert_with(&self.netlist, || self.make_sim())?;
        apply_ctx_faults(sim, plan)?;
        if obs.is_some() {
            sim.enable_profiling();
        }
        let result = self.measure_detailed_on(sim, rail, skew);
        if let Some(obs) = obs {
            sim.promote_stats_into(&mut obs.metrics);
            sim.fold_profile_into(&mut obs.metrics);
        }
        result
    }

    fn measure_detailed_on(
        &self,
        sim: &mut Simulator<'_>,
        rail: Voltage,
        skew: Time,
    ) -> Result<(ThermometerCode, ThermometerCode), SensorError> {
        let plan = GateLevelArray::plan(skew);
        sim.reset();
        sim.set_domain_supply(self.noisy, rail);

        // PREPARE: P = 1 forces every DS low; a CP edge captures the 0s.
        sim.drive(self.p, Logic::One, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::Zero, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::One, plan.prepare_edge)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::Zero, plan.prepare_edge + Time::from_ns(1.0))
            .map_err(SensorError::from)?;

        // SENSE: P falls; CP rises `skew` later; the FFs race the DS
        // transitions against their setup windows.
        sim.drive(self.p, Logic::Zero, plan.sense_launch)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::One, plan.sense_edge)
            .map_err(SensorError::from)?;

        // Read the PREPARE code just before the SENSE launch…
        // (guarded: under a fault plan the simulator carries an event
        // budget, so an oscillating fault errors instead of hanging).
        sim.try_run_until(plan.sense_launch - Time::from_ps(1.0))
            .map_err(SensorError::from)?;
        let prepare = self.pack(sim);
        // …and the measure after everything settles.
        sim.try_run_until(plan.read_at).map_err(SensorError::from)?;
        let sense = self.pack(sim);
        Ok((sense, prepare))
    }

    fn pack(&self, sim: &Simulator<'_>) -> ThermometerCode {
        let bits: LogicVector = self.outs.iter().rev().map(|&q| sim.value(q)).collect();
        ThermometerCode::new(bits)
    }

    /// Builds a fresh 64-lane batch simulator for this array — the
    /// bit-parallel sibling of [`GateLevelArray::make_sim`], used by
    /// [`GateLevelArray::measure_batch`] to sweep up to [`LANES`] fault
    /// plans per run. The context's batch pool calls this once per
    /// array and reuses the instance across chunks.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn make_batch_sim(&self) -> Result<BatchSimulator<'_>, SensorError> {
        BatchSimulator::with_pvt(&self.netlist, self.pvt.nominal_vdd, self.pvt)
            .map_err(SensorError::from)
    }

    /// Runs one PREPARE/SENSE measure with a **different fault plan on
    /// each of up to [`LANES`] lanes**, in a single pass over the event
    /// queue. Lane `i` carries `plans[i]`; the per-lane result is
    /// exactly what [`GateLevelArray::measure_detailed`] returns for
    /// that plan alone — `(sense, prepare)` on success, or the same
    /// error a serial faulted measure reports (budget exceeded on an
    /// oscillating fault). The whole-call `Err` covers batch-level
    /// failures only: no plans, more than [`LANES`] plans, or a plan
    /// the batch kernel rejects up front (unknown targets,
    /// [`psnt_fault::Fault::SupplyGlitch`]). A glitch plan surfaces as
    /// [`psnt_netlist::NetlistError::UnsupportedBatchFault`] naming
    /// both the fault kind and the offending lane, so callers can route
    /// exactly that plan to the scalar kernel (see
    /// [`psnt_fault::FaultPlan::batch_supported`]).
    ///
    /// The batch simulator comes from the context's
    /// [`psnt_ctx::BatchSimPool`], so a fault-coverage campaign walking
    /// hundreds of plans amortises one kernel construction across all
    /// its 64-plan chunks.
    ///
    /// # Errors
    ///
    /// `plans` empty or longer than [`LANES`]; invalid fault plans;
    /// simulator construction failures.
    pub fn measure_batch<'env>(
        &'env self,
        ctx: &mut RunCtx<'env>,
        rail: Voltage,
        skew: Time,
        plans: &[FaultPlan],
    ) -> Result<Vec<LaneMeasure>, SensorError> {
        if plans.is_empty() || plans.len() > LANES {
            return Err(SensorError::InvalidConfig {
                name: "measure_batch",
                reason: format!("need 1..={LANES} fault plans, got {}", plans.len()),
            });
        }
        let pool = ctx.batch_pool();
        let sim = pool.get_or_insert_with(&self.netlist, || self.make_batch_sim())?;
        sim.set_fault_plans(plans).map_err(SensorError::from)?;
        sim.set_event_budget(Some(FAULTED_EVENT_BUDGET));
        sim.set_event_budget_lanes(sim.fault_lanes());
        let result = self.measure_batch_on(sim, rail, skew, plans.len());
        // Leave the pooled kernel fault-free for the next caller, like
        // `apply_ctx_faults` does for the scalar pool.
        sim.clear_fault_plans();
        sim.set_event_budget(None);
        result
    }

    fn measure_batch_on(
        &self,
        sim: &mut BatchSimulator<'_>,
        rail: Voltage,
        skew: Time,
        lanes: usize,
    ) -> Result<Vec<LaneMeasure>, SensorError> {
        let plan = GateLevelArray::plan(skew);
        sim.reset();
        sim.set_domain_supply(self.noisy, rail);

        // Identical stimulus to `measure_detailed_on`, broadcast to all
        // lanes; per-lane divergence comes only from the fault plans.
        sim.drive(self.p, Logic::One, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::Zero, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::One, plan.prepare_edge)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::Zero, plan.prepare_edge + Time::from_ns(1.0))
            .map_err(SensorError::from)?;
        sim.drive(self.p, Logic::Zero, plan.sense_launch)
            .map_err(SensorError::from)?;
        sim.drive(self.cp, Logic::One, plan.sense_edge)
            .map_err(SensorError::from)?;

        sim.run_until(plan.sense_launch - Time::from_ps(1.0));
        let prepares: Vec<ThermometerCode> = (0..lanes).map(|l| self.pack_lane(sim, l)).collect();
        sim.run_until(plan.read_at);
        let dead = sim.dead_lanes();
        let stats = sim.stats().clone();
        Ok((0..lanes)
            .map(|l| {
                if dead >> l & 1 == 1 {
                    Err(SensorError::from(
                        psnt_netlist::NetlistError::BudgetExceeded {
                            budget: FAULTED_EVENT_BUDGET,
                            events: stats.events[l],
                        },
                    ))
                } else {
                    Ok((self.pack_lane(sim, l), prepares[l].clone()))
                }
            })
            .collect())
    }

    fn pack_lane(&self, sim: &BatchSimulator<'_>, lane: usize) -> ThermometerCode {
        let bits: LogicVector = self
            .outs
            .iter()
            .rev()
            .map(|&q| sim.value(q, lane))
            .collect();
        ThermometerCode::new(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::RailMode;
    use crate::pulsegen::{DelayCode, PulseGenerator};
    use crate::thermometer::ThermometerArray;

    fn skew011() -> Time {
        PulseGenerator::paper_table().skew(DelayCode::new(3).unwrap(), &Pvt::typical())
    }

    #[test]
    fn netlist_shape() {
        let a = GateLevelArray::paper().unwrap();
        assert_eq!(a.bits(), 7);
        assert_eq!(a.netlist().gates().len(), 7);
        assert_eq!(a.netlist().dffs().len(), 7);
        assert_eq!(a.netlist().domains().len(), 2);
        // Every sense inverter sits in the noisy domain.
        for g in a.netlist().gates() {
            assert_eq!(g.domain(), a.noisy_domain());
        }
    }

    #[test]
    fn prepare_code_is_all_zero() {
        let a = GateLevelArray::paper().unwrap();
        let (_, prepare) = a
            .measure_detailed(&mut RunCtx::serial(), Voltage::from_v(1.0), skew011())
            .unwrap();
        assert_eq!(prepare.to_string(), "0000000");
    }

    #[test]
    fn fig9_codes_from_the_gate_level_twin() {
        let a = GateLevelArray::paper().unwrap();
        let mut ctx = RunCtx::serial();
        let first = a
            .measure(&mut ctx, Voltage::from_v(1.0), skew011())
            .unwrap();
        assert_eq!(first.to_string(), "0011111");
        let second = a
            .measure(&mut ctx, Voltage::from_v(0.9), skew011())
            .unwrap();
        assert_eq!(second.to_string(), "0000011");
    }

    #[test]
    fn gate_level_matches_behavioural_across_the_range() {
        // The central consistency check: the netlist twin and the
        // behavioural array agree bit-for-bit over a dense voltage sweep
        // (voltages chosen off the exact threshold points, where float
        // association order could legitimately differ). One context pools
        // one simulator for the whole sweep.
        let gate = GateLevelArray::paper().unwrap();
        let sk = skew011();
        let behavioural = ThermometerArray::paper(RailMode::Supply)
            .at(sk, &Pvt::typical())
            .unwrap();
        let mut ctx = RunCtx::serial();
        for i in 0..=60 {
            let v = Voltage::from_v(0.8013 + 0.005 * i as f64);
            let a = gate.measure(&mut ctx, v, sk).unwrap();
            let b = behavioural.measure(v);
            assert_eq!(a, b, "divergence at {v}");
        }
    }

    #[test]
    fn gate_level_matches_behavioural_for_other_delay_codes() {
        let gate = GateLevelArray::paper().unwrap();
        let behavioural = ThermometerArray::paper(RailMode::Supply);
        let pvt = Pvt::typical();
        let pg = PulseGenerator::paper_table();
        let mut ctx = RunCtx::serial();
        for code_val in [0u8, 2, 5, 7] {
            let sk = pg.skew(DelayCode::new(code_val).unwrap(), &pvt);
            let point = behavioural.at(sk, &pvt).unwrap();
            for mv in [880.0, 960.0, 1040.0, 1120.0, 1200.0] {
                let v = Voltage::from_mv(mv + 3.0);
                let a = gate.measure(&mut ctx, v, sk).unwrap();
                let b = point.measure(v);
                assert_eq!(a, b, "divergence at {v}, code {code_val:03b}");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// The netlist twin and the behavioural array agree on random
            /// rail voltages across (and beyond) the dynamic range.
            #[test]
            fn gate_level_equals_behavioural_on_random_rails(mv in 780.0..1100.0f64) {
                let gate = GateLevelArray::paper().unwrap();
                let behavioural = crate::thermometer::ThermometerArray::paper(
                    crate::element::RailMode::Supply,
                );
                let v = Voltage::from_mv(mv);
                let sk = Time::from_ps(149.0);
                let a = gate.measure(&mut RunCtx::serial(), v, sk).unwrap();
                let b = behavioural.at(sk, &Pvt::typical()).unwrap().measure(v);
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn ctx_fault_plan_reaches_the_pooled_simulator() {
        use psnt_fault::{Fault, FaultPlan};
        let a = GateLevelArray::paper().unwrap();
        let v = Voltage::from_v(1.0);
        let healthy = a.measure(&mut RunCtx::serial(), v, skew011()).unwrap();
        assert_eq!(healthy.to_string(), "0011111");

        // ff0.q stuck at 0 kills the most-loaded (last-printed) bit.
        let plan = FaultPlan::new().with(Fault::stuck_at("ff0.q", Logic::Zero));
        let mut ctx = RunCtx::serial().with_fault_plan(plan);
        let faulty = a.measure(&mut ctx, v, skew011()).unwrap();
        assert_eq!(faulty.to_string(), "0011110");

        // The same pooled simulator, handed a fault-free context again,
        // must return to the healthy code (plan cleared, budget off).
        let recovered = a.measure(&mut RunCtx::serial(), v, skew011()).unwrap();
        assert_eq!(recovered, healthy);
    }

    #[test]
    fn measure_batch_lanes_match_serial_faulted_measures() {
        use psnt_fault::{Fault, FaultPlan};
        let a = GateLevelArray::paper().unwrap();
        let sk = skew011();
        // A mixed campaign chunk: stuck FF outputs, stuck sense-inverter
        // outputs, a slowed sense inverter, and a healthy (empty) plan.
        let plans = vec![
            FaultPlan::new().with(Fault::stuck_at("ff0.q", Logic::Zero)),
            FaultPlan::new().with(Fault::stuck_at("ff6.q", Logic::One)),
            FaultPlan::new().with(Fault::stuck_at("inv3.out", Logic::One)),
            FaultPlan::new().with(Fault::delay_scale("inv2", 3.0)),
            FaultPlan::new(),
            FaultPlan::new()
                .with(Fault::stuck_at("inv0.out", Logic::Zero))
                .with(Fault::delay_scale("inv5", 1.5)),
        ];
        let mut ctx = RunCtx::serial();
        for rail in [1.0, 0.96, 0.9] {
            let v = Voltage::from_v(rail);
            let batch = a.measure_batch(&mut ctx, v, sk, &plans).unwrap();
            assert_eq!(batch.len(), plans.len());
            for (l, plan) in plans.iter().enumerate() {
                let mut serial_ctx = RunCtx::serial().with_fault_plan(plan.clone());
                let serial = a.measure_detailed(&mut serial_ctx, v, sk).unwrap();
                let lane = batch[l].as_ref().unwrap();
                assert_eq!(lane, &serial, "lane {l} at rail {rail}");
            }
        }
    }

    #[test]
    fn measure_batch_rejects_empty_and_oversized_chunks() {
        use psnt_fault::FaultPlan;
        let a = GateLevelArray::paper().unwrap();
        let mut ctx = RunCtx::serial();
        let v = Voltage::from_v(1.0);
        assert!(a.measure_batch(&mut ctx, v, skew011(), &[]).is_err());
        let too_many = vec![FaultPlan::new(); LANES + 1];
        assert!(a.measure_batch(&mut ctx, v, skew011(), &too_many).is_err());
    }

    #[test]
    fn measure_batch_names_unsupported_fault_and_lane() {
        use psnt_fault::{Fault, FaultPlan};
        use psnt_netlist::NetlistError;
        let a = GateLevelArray::paper().unwrap();
        let mut ctx = RunCtx::serial();
        let mut plans = vec![FaultPlan::new(); 4];
        plans[3] = FaultPlan::new().with(Fault::supply_glitch(
            "sensor",
            (Time::from_ps(100.0), Time::from_ps(200.0)),
            Voltage::from_mv(-40.0),
        ));
        assert!(!plans[3].batch_supported());
        let err = a
            .measure_batch(&mut ctx, Voltage::from_v(1.0), skew011(), &plans)
            .unwrap_err();
        let SensorError::Netlist(inner) = &err else {
            panic!("expected a netlist error, got {err}");
        };
        assert_eq!(
            inner,
            &NetlistError::UnsupportedBatchFault {
                fault: "supply-glitch",
                lane: 3,
            }
        );
        assert!(err.to_string().contains("lane 3"), "{err}");
    }

    #[test]
    fn unknown_fault_target_is_reported_not_panicked() {
        use psnt_fault::{Fault, FaultPlan};
        let a = GateLevelArray::paper().unwrap();
        let plan = FaultPlan::new().with(Fault::stuck_at("no_such_net", Logic::One));
        let mut ctx = RunCtx::serial().with_fault_plan(plan);
        let err = a
            .measure(&mut ctx, Voltage::from_v(1.0), skew011())
            .unwrap_err();
        assert!(err.to_string().contains("no_such_net"), "{err}");
    }

    #[test]
    fn control_domain_unaffected_by_noisy_rail() {
        // The FFs live in the clean domain and the PREPARE pull-down has
        // full gate drive: even a collapsed noisy rail (0.2 V, below the
        // device threshold) must not corrupt the PREPARE capture — only
        // the rail-limited SENSE transition stalls, failing every
        // element.
        let a = GateLevelArray::paper().unwrap();
        let mut ctx = RunCtx::serial();
        for rail in [0.2, 0.5] {
            let (sense, prepare) = a
                .measure_detailed(&mut ctx, Voltage::from_v(rail), skew011())
                .unwrap();
            assert_eq!(prepare.to_string(), "0000000", "rail {rail} V");
            assert!(sense.is_underflow(), "rail {rail} V");
        }
    }

    #[test]
    fn sta_shows_noisy_domain_droop_on_ds_paths() {
        use psnt_netlist::sta::{analyze_with_domain_supplies, StaConfig};
        let a = GateLevelArray::paper().unwrap();
        let cfg = StaConfig::default();
        let nominal = analyze_with_domain_supplies(a.netlist(), &cfg, &[]).unwrap();
        let droopy = analyze_with_domain_supplies(
            a.netlist(),
            &cfg,
            &[(a.noisy_domain(), Voltage::from_v(0.9))],
        )
        .unwrap();
        assert!(droopy.critical_delay() > nominal.critical_delay());
    }
}

/// A pure-delay standard cell for the PG delay line (`t_intrinsic`
/// dominates; the load term is negligible by construction).
fn dly_cell(name: &str, ps: f64) -> StdCell {
    StdCell::new(
        name,
        GateFunction::Buf,
        AlphaPowerDelay::new(
            1.0,
            Capacitance::from_ff(1.0),
            Time::from_ps(ps),
            Voltage::from_v(0.30),
            1.3,
        )
        .expect("static delay-cell parameters are valid"),
        Capacitance::from_ff(1.5),
    )
}

/// The pulse generator as a netlist — paper Fig. 7.
///
/// The CP branch runs through an insertion buffer and an 8-tap delay
/// line (cumulative tap delays matching the published table) into an
/// 8:1 MUX tree; the P branch carries an *identical* 3-level MUX chain
/// so the mux delays cancel in the P→CP skew, exactly the trick the
/// paper describes.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLevelPulseGen {
    netlist: Netlist,
    p_in: NetId,
    cp_in: NetId,
    sel: [NetId; 3],
    p_out: NetId,
    cp_out: NetId,
}

impl GateLevelPulseGen {
    /// Builds the PG with the paper's tap table and the 84 ps insertion
    /// delay.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn paper() -> Result<GateLevelPulseGen, SensorError> {
        let mut n = Netlist::new("pulsegen");
        let p_in = n.add_input("p_in");
        let cp_in = n.add_input("cp_in");
        let sel = [
            n.add_input("sel0"),
            n.add_input("sel1"),
            n.add_input("sel2"),
        ];

        // CP branch: insertion + tap ladder (deltas sum to the table).
        let insertion = n
            .add_gate("ins", dly_cell("DLY84", 84.0), &[cp_in])
            .map_err(SensorError::from)?;
        let deltas = [26.0, 14.0, 10.0, 15.0, 12.0, 15.0, 8.0, 7.0];
        let mut taps = Vec::with_capacity(8);
        let mut prev = insertion;
        for (i, d) in deltas.into_iter().enumerate() {
            prev = n
                .add_gate(format!("tap{i}"), dly_cell(&format!("DLY{d}"), d), &[prev])
                .map_err(SensorError::from)?;
            taps.push(prev);
        }

        // 8:1 MUX tree on CP.
        let mux = StdCell::mux2(2.0);
        let mut level: Vec<NetId> = taps;
        for (li, s_net) in sel.iter().enumerate() {
            let mut next = Vec::with_capacity(level.len() / 2);
            for (pi, pair) in level.chunks(2).enumerate() {
                let m = n
                    .add_gate(
                        format!("cpmux{li}_{pi}"),
                        mux.clone(),
                        &[pair[0], pair[1], *s_net],
                    )
                    .map_err(SensorError::from)?;
                next.push(m);
            }
            level = next;
        }
        let cp_out = level[0];

        // Matched MUX chain on P (both data pins tied together: the cell
        // passes P through with the same delay regardless of the select).
        let mut p = p_in;
        for (li, s_net) in sel.iter().enumerate() {
            p = n
                .add_gate(format!("pmux{li}"), mux.clone(), &[p, p, *s_net])
                .map_err(SensorError::from)?;
        }
        let p_out = p;

        n.mark_output("p_out", p_out);
        n.mark_output("cp_out", cp_out);
        n.validate().map_err(SensorError::from)?;
        Ok(GateLevelPulseGen {
            netlist: n,
            p_in,
            cp_in,
            sel,
            p_out,
            cp_out,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The input/select/output net ids:
    /// `(p_in, cp_in, [sel0, sel1, sel2], p_out, cp_out)`.
    pub fn ports(&self) -> (NetId, NetId, [NetId; 3], NetId, NetId) {
        (self.p_in, self.cp_in, self.sel, self.p_out, self.cp_out)
    }

    /// Builds a fresh simulator for this PG, tracing only the two
    /// output nets the skew measurement reads. The context's simulator
    /// pool calls this once per PG and reuses the instance across a
    /// delay-code sweep.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn make_sim(&self) -> Result<Simulator<'_>, SensorError> {
        Simulator::with_options(
            &self.netlist,
            Voltage::from_v(1.0),
            Pvt::typical(),
            TraceMode::Watched(vec![self.p_out, self.cp_out]),
        )
        .map_err(SensorError::from)
    }

    /// Simulates one simultaneous P/CP edge pair through the PG and
    /// returns the measured output skew for a delay code. The simulator
    /// comes from the context's pool and is reset per call, so the
    /// result is bit-identical to a fresh simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn measured_skew<'env>(
        &'env self,
        ctx: &mut RunCtx<'env>,
        code: crate::pulsegen::DelayCode,
    ) -> Result<Time, SensorError> {
        let (obs, pool, _) = ctx.obs_pool_parts();
        let sim = pool.get_or_insert_with(&self.netlist, || self.make_sim())?;
        if obs.is_some() {
            sim.enable_profiling();
        }
        let result = self.measured_skew_on(sim, code);
        if let Some(obs) = obs {
            sim.promote_stats_into(&mut obs.metrics);
            sim.fold_profile_into(&mut obs.metrics);
        }
        result
    }

    fn measured_skew_on(
        &self,
        sim: &mut Simulator<'_>,
        code: crate::pulsegen::DelayCode,
    ) -> Result<Time, SensorError> {
        sim.reset();
        for (bit, &net) in self.sel.iter().enumerate() {
            let level = Logic::from(code.value() >> bit & 1 == 1);
            sim.drive(net, level, Time::ZERO)
                .map_err(SensorError::from)?;
        }
        sim.drive(self.p_in, Logic::Zero, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.cp_in, Logic::Zero, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.run_until(Time::from_ns(2.0));
        let launch = Time::from_ns(3.0);
        sim.drive(self.p_in, Logic::One, launch)
            .map_err(SensorError::from)?;
        sim.drive(self.cp_in, Logic::One, launch)
            .map_err(SensorError::from)?;
        sim.run_until(Time::from_ns(6.0));
        let p_sig = sim.try_signal(self.p_out).map_err(SensorError::from)?;
        let cp_sig = sim.try_signal(self.cp_out).map_err(SensorError::from)?;
        let p_edge = sim.trace().first_edge_to(p_sig, Logic::One, launch).ok_or(
            SensorError::InvalidConfig {
                name: "p_out",
                reason: "P edge never reached the output".into(),
            },
        )?;
        let cp_edge = sim
            .trace()
            .first_edge_to(cp_sig, Logic::One, launch)
            .ok_or(SensorError::InvalidConfig {
                name: "cp_out",
                reason: "CP edge never reached the output".into(),
            })?;
        Ok(cp_edge - p_edge)
    }
}

/// The complete sensor system — CNTR, PG and array — flattened into one
/// standard-cell netlist and executed by the event-driven simulator.
/// This is the paper's Fig. 6 running in gates: the FSM sequences
/// PREPARE/SENSE, the PG sets the P→CP skew, and the array's flip-flops
/// race the DS transitions, with the sense inverters on their own noisy
/// power domain.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLevelSystem {
    netlist: Netlist,
    noisy: DomainId,
    clk: NetId,
    enable: NetId,
    start: NetId,
    sel: [NetId; 3],
    array_p: NetId,
    array_cp: NetId,
    outs: Vec<NetId>,
}

/// One measure extracted from a gate-level system run.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLevelMeasure {
    /// The thermometer code read after the SENSE capture.
    pub code: ThermometerCode,
    /// When `P` fell at the array pins.
    pub p_fall: Time,
    /// When `CP` rose at the array pins.
    pub cp_rise: Time,
}

impl GateLevelMeasure {
    /// The effective P→CP skew of this measure at the sensor pins.
    pub fn skew(&self) -> Time {
        self.cp_rise - self.p_fall
    }
}

impl GateLevelSystem {
    /// Composes the paper's system (8-bit iteration counter keeps the
    /// simulation light; the timing-critical 32-bit variant is analysed
    /// separately by [`crate::control::build_control_netlist`]).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn paper() -> Result<GateLevelSystem, SensorError> {
        let cntr = crate::control::build_control_netlist(&crate::control::CtrlNetlistConfig {
            counter_bits: 8,
            ..Default::default()
        });
        let pg = GateLevelPulseGen::paper()?;
        let array = GateLevelArray::paper()?;

        let mut top = Netlist::new("sensor_system");
        let clk = top.add_input("clk");
        let enable = top.add_input("enable");
        let start = top.add_input("start");
        let sel = [
            top.add_input("sel0"),
            top.add_input("sel1"),
            top.add_input("sel2"),
        ];

        // CNTR instance.
        let cntr_clk = cntr.net_by_name("clk").map_err(SensorError::from)?;
        let cntr_en = cntr.net_by_name("enable").map_err(SensorError::from)?;
        let cntr_st = cntr.net_by_name("start").map_err(SensorError::from)?;
        let cntr_map = top.instantiate(
            &cntr,
            "cntr",
            &[(cntr_clk, clk), (cntr_en, enable), (cntr_st, start)],
        );
        let out_net = |child: &Netlist, map: &[NetId], port: &str| -> NetId {
            let (_, net) = child
                .outputs()
                .iter()
                .find(|(name, _)| name == port)
                .expect("known port");
            map[net.index()]
        };
        let p_pulse = out_net(&cntr, &cntr_map, "p_pulse");
        let cp_raw = out_net(&cntr, &cntr_map, "cp");
        // The CP output decode (OR + AND) lags the P decode (NAND) by
        // ≈9.7 ps; a balancing delay cell on P restores the PG-defined
        // skew — the "accurate routing … as a differential pair" the
        // paper prescribes for the P/CP pair.
        let p_balanced = top
            .add_gate("p_balance", dly_cell("DLY9P7", 9.7), &[p_pulse])
            .map_err(SensorError::from)?;

        // PG instance.
        let (pg_p_in, pg_cp_in, pg_sel, pg_p_out, pg_cp_out) = pg.ports();
        let pg_map = top.instantiate(
            &pg.netlist,
            "pg",
            &[
                (pg_p_in, p_balanced),
                (pg_cp_in, cp_raw),
                (pg_sel[0], sel[0]),
                (pg_sel[1], sel[1]),
                (pg_sel[2], sel[2]),
            ],
        );
        let array_p = pg_map[pg_p_out.index()];
        let array_cp = pg_map[pg_cp_out.index()];

        // Array instance.
        let arr_map = top.instantiate(
            &array.netlist,
            "array",
            &[(array.p, array_p), (array.cp, array_cp)],
        );
        let noisy = top
            .domain_by_name("array.vdd_noisy")
            .expect("array domain recreated by instantiate");
        let outs: Vec<NetId> = array.outs.iter().map(|q| arr_map[q.index()]).collect();
        for (i, &q) in outs.iter().enumerate() {
            top.mark_output(format!("out{i}"), q);
        }
        top.validate().map_err(SensorError::from)?;
        Ok(GateLevelSystem {
            netlist: top,
            noisy,
            clk,
            enable,
            start,
            sel,
            array_p,
            array_cp,
            outs,
        })
    }

    /// The flattened netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The noisy (sense-inverter) power domain.
    pub fn noisy_domain(&self) -> DomainId {
        self.noisy
    }

    /// Builds a fresh simulator for this system, tracing only the
    /// two array-pin nets whose edges define the measured skew. The
    /// context's simulator pool calls this once per system and reuses
    /// the instance across delay codes or rail schedules.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn make_sim(&self) -> Result<Simulator<'_>, SensorError> {
        Simulator::with_options(
            &self.netlist,
            Voltage::from_v(1.0),
            Pvt::typical(),
            TraceMode::Watched(vec![self.array_p, self.array_cp]),
        )
        .map_err(SensorError::from)
    }

    /// Runs the system for `measures` complete sequences with the noisy
    /// rail stepped through `rails` (one level per measure), delay code
    /// on the `sel` pins, clock period 4 ns. Returns one
    /// [`GateLevelMeasure`] per rail level. The simulator comes from
    /// the context's pool and is reset per call, so results are
    /// bit-identical to a fresh simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures, and reports a missing pulse if a
    /// sequence did not produce P/CP edges.
    pub fn run_measures<'env>(
        &'env self,
        ctx: &mut RunCtx<'env>,
        code: crate::pulsegen::DelayCode,
        rails: &[Voltage],
    ) -> Result<Vec<GateLevelMeasure>, SensorError> {
        let (obs, pool, plan) = ctx.obs_pool_parts();
        let sim = pool.get_or_insert_with(&self.netlist, || self.make_sim())?;
        apply_ctx_faults(sim, plan)?;
        if obs.is_some() {
            sim.enable_profiling();
        }
        let result = self.run_measures_on(sim, code, rails);
        if let Some(obs) = obs {
            sim.promote_stats_into(&mut obs.metrics);
            sim.fold_profile_into(&mut obs.metrics);
        }
        result
    }

    fn run_measures_on(
        &self,
        sim: &mut Simulator<'_>,
        code: crate::pulsegen::DelayCode,
        rails: &[Voltage],
    ) -> Result<Vec<GateLevelMeasure>, SensorError> {
        let period = Time::from_ns(4.0);
        sim.reset();
        // The previous run may have left the noisy rail drooped; every
        // sequence starts from the nominal 1.0 V rail.
        sim.set_domain_supply(self.noisy, Voltage::from_v(1.0));
        sim.drive(self.enable, Logic::One, Time::ZERO)
            .map_err(SensorError::from)?;
        sim.drive(self.start, Logic::One, Time::ZERO)
            .map_err(SensorError::from)?;
        for (bit, &net) in self.sel.iter().enumerate() {
            let level = Logic::from(code.value() >> bit & 1 == 1);
            sim.drive(net, level, Time::ZERO)
                .map_err(SensorError::from)?;
        }
        let cycles = rails.len() * 5 + 6;
        sim.drive_clock(self.clk, Time::from_ns(2.0), period, cycles)
            .map_err(SensorError::from)?;

        let mut measures = Vec::with_capacity(rails.len());
        let mut cursor = Time::ZERO;
        for (k, &rail) in rails.iter().enumerate() {
            sim.set_domain_supply(self.noisy, rail);
            // One measure occupies 5 cycles; run to just past its SENSE
            // capture (the sequence begins after 1 fill cycle).
            let sense_cycle = 4 + 5 * k; // clock edges counted from the first
            let sense_edge = Time::from_ns(2.0) + period * sense_cycle as f64;
            sim.try_run_until(sense_edge + period / 2.0)
                .map_err(SensorError::from)?;
            let p_sig = sim.try_signal(self.array_p).map_err(SensorError::from)?;
            let cp_sig = sim.try_signal(self.array_cp).map_err(SensorError::from)?;
            let p_fall = sim
                .trace()
                .first_edge_to(p_sig, Logic::Zero, cursor)
                .ok_or(SensorError::InvalidConfig {
                    name: "array_p",
                    reason: format!("no P pulse for measure {k}"),
                })?;
            let cp_rise = sim
                .trace()
                .first_edge_to(cp_sig, Logic::One, p_fall)
                .ok_or(SensorError::InvalidConfig {
                    name: "array_cp",
                    reason: format!("no CP edge for measure {k}"),
                })?;
            let bits: LogicVector = self.outs.iter().rev().map(|&q| sim.value(q)).collect();
            measures.push(GateLevelMeasure {
                code: ThermometerCode::new(bits),
                p_fall,
                cp_rise,
            });
            cursor = sense_edge + period / 2.0;
        }
        Ok(measures)
    }
}

#[cfg(test)]
mod system_tests {
    use super::*;
    use crate::element::RailMode;
    use crate::pulsegen::{DelayCode, PulseGenerator};
    use crate::thermometer::ThermometerArray;

    #[test]
    fn pulsegen_netlist_reproduces_the_tap_table() {
        // The standalone PG netlist must emit the published skews:
        // insertion (84 ps) + tap, independent of the matched MUXes.
        let pg = GateLevelPulseGen::paper().unwrap();
        let model = PulseGenerator::paper_table();
        let pvt = Pvt::typical();
        let mut ctx = RunCtx::serial();
        for code in DelayCode::all() {
            let measured = pg.measured_skew(&mut ctx, code).unwrap();
            let expected = model.skew(code, &pvt);
            let err = (measured - expected).abs();
            assert!(
                err < Time::from_ps(3.0),
                "code {code}: measured {measured} vs model {expected}"
            );
        }
    }

    #[test]
    fn pulsegen_netlist_shape() {
        let pg = GateLevelPulseGen::paper().unwrap();
        // 1 insertion + 8 taps + 7 CP muxes + 3 P muxes.
        assert_eq!(pg.netlist().gates().len(), 19);
        pg.netlist().validate().unwrap();
    }

    #[test]
    fn full_system_composes_and_validates() {
        let sys = GateLevelSystem::paper().unwrap();
        let n = sys.netlist();
        // CNTR (8-bit counter) + PG + array.
        assert_eq!(n.dffs().len(), 3 + 8 + 7);
        assert!(n.gates().len() > 60);
        assert!(n.domain_by_name("array.vdd_noisy").is_some());
        n.validate().unwrap();
    }

    #[test]
    fn full_system_runs_the_fig9_sequence_in_gates() {
        // The flattened CNTR+PG+array netlist executes two measures with
        // the noisy rail stepped 1.0 V → 0.9 V. Codes must match the
        // behavioural array evaluated at the *measured* pin skew (the
        // FSM output decode adds a few ps the behavioural PG model folds
        // into its insertion constant).
        let sys = GateLevelSystem::paper().unwrap();
        let code011 = DelayCode::new(3).unwrap();
        let rails = [Voltage::from_v(1.0), Voltage::from_v(0.9)];
        let measures = sys
            .run_measures(&mut RunCtx::serial(), code011, &rails)
            .unwrap();
        assert_eq!(measures.len(), 2);

        let behavioural = ThermometerArray::paper(RailMode::Supply);
        let pvt = Pvt::typical();
        for (m, &rail) in measures.iter().zip(&rails) {
            // The balanced decode restores the PG-defined skew.
            let skew = m.skew();
            assert!(
                (skew - Time::from_ps(149.0)).abs() < Time::from_ps(5.0),
                "pin skew {skew} off the 149 ps model"
            );
            let expect = behavioural.at(skew, &pvt).unwrap().measure(rail);
            assert_eq!(m.code, expect, "rail {rail}: skew {skew}");
        }
        // And the headline: the gate-level system reads the paper's
        // Fig. 9 codes.
        assert_eq!(measures[0].code.to_string(), "0011111");
        assert_eq!(measures[1].code.to_string(), "0000011");
    }

    #[test]
    fn full_system_skew_tracks_the_delay_code() {
        let sys = GateLevelSystem::paper().unwrap();
        let rails = [Voltage::from_v(1.0)];
        let mut ctx = RunCtx::serial();
        let mut skew_for = |code_val: u8| {
            sys.run_measures(&mut ctx, DelayCode::new(code_val).unwrap(), &rails)
                .unwrap()[0]
                .skew()
        };
        let s0 = skew_for(0);
        let s3 = skew_for(3);
        let s7 = skew_for(7);
        assert!(s3 > s0 && s7 > s3, "{s0} / {s3} / {s7}");
        // Tap differences survive the composition: 107 − 26 = 81 ps.
        let spread = s7 - s0;
        assert!(
            (spread - Time::from_ps(81.0)).abs() < Time::from_ps(6.0),
            "tap spread {spread}"
        );
    }
}
