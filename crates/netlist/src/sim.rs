//! Event-driven gate-level logic simulation with voltage-aware timing.
//!
//! The [`Simulator`] plays the role of the paper's transient simulation
//! runs: every gate's propagation delay is computed from its
//! alpha-power-law model at the simulator's supply voltage, so lowering
//! the supply slows every path exactly as the silicon would. Flip-flops
//! are sampled through [`psnt_cells::dff::Dff::sample`], so setup
//! violations and metastability arise *naturally* from event timing
//! rather than being scripted.
//!
//! The simulator uses inertial delays: when a gate re-evaluates before a
//! previously scheduled output change has matured, the stale event is
//! cancelled — narrow glitches shorter than a gate delay do not propagate.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::gates::StdCell;
//! use psnt_cells::logic::Logic;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_netlist::graph::Netlist;
//! use psnt_netlist::sim::Simulator;
//!
//! let mut n = Netlist::new("inv");
//! let a = n.add_input("a");
//! let q = n.add_gate("g", StdCell::inverter(1.0), &[a])?;
//! n.mark_output("q", q);
//!
//! let mut sim = Simulator::new(&n, Voltage::from_v(1.0))?;
//! sim.drive(a, Logic::Zero, Time::ZERO)?;
//! sim.run_until(Time::from_ns(1.0));
//! assert_eq!(sim.value(q), Logic::One);
//! # Ok::<(), psnt_netlist::error::NetlistError>(())
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use psnt_cells::logic::Logic;
use psnt_cells::process::Pvt;
use psnt_cells::units::{Time, Voltage};
use psnt_fault::{Fault, FaultPlan, SplitMix64};
use psnt_obs::metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};

use crate::error::NetlistError;
use crate::graph::{DffId, DomainId, GateId, NetId, Netlist, SimTopology};
use crate::profile::SimProfile;
use crate::wave::{SignalId, Trace};

/// Upper bound on gate fan-in (library cells have ≤ 3 pins), sized so
/// the event loop gathers inputs into a stack buffer instead of a heap
/// allocation.
pub(crate) const MAX_GATE_INPUTS: usize = 4;

/// A scheduled net transition.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: Time,
    seq: u64,
    net: NetId,
    value: Logic,
    version: u64,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        // Min-heap via BinaryHeap<Reverse<_>>: order by (time, seq).
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// How a metastable flip-flop capture appears on `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetastabilityMode {
    /// The nearer clean regime's value is captured (deterministic). This
    /// is what the paper's sensor relies on: a violated FF "fails the
    /// evaluation" to a definite wrong value.
    #[default]
    Deterministic,
    /// A metastable capture drives `Q` to [`Logic::X`] until the next
    /// clean capture — the conservative verification view.
    PropagateX,
}

/// Statistics collected during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Events applied (net value changes).
    pub events: u64,
    /// Events cancelled by inertial filtering.
    pub cancelled: u64,
    /// Flip-flop captures performed.
    pub ff_captures: u64,
    /// Captures that violated the setup/hold window.
    pub ff_violations: u64,
}

/// Which nets a [`Simulator`] records into its [`Trace`].
///
/// Recording is fixed at construction because initial values are traced
/// during settling. The default ([`TraceMode::Full`]) is what
/// [`Simulator::new`] and [`Simulator::with_pvt`] use, preserving the
/// record-everything behaviour; measurement kernels that only read back
/// a handful of nets pass [`TraceMode::Watched`] or [`TraceMode::Off`]
/// to [`Simulator::with_options`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; [`Simulator::signal`] panics for every net.
    Off,
    /// Record only the listed nets.
    Watched(Vec<NetId>),
    /// Record every net.
    #[default]
    Full,
}

/// Cached per-gate propagation delays at the current supplies/PVT, so
/// the event loop never evaluates the alpha-power law (`powf`).
#[derive(Debug, Clone, Copy)]
struct GateDelays {
    rise: Time,
    fall: Time,
    worst: Time,
}

impl GateDelays {
    /// Both arcs multiplied by a `DelayScale` fault factor (1.0 is the
    /// healthy identity).
    fn scaled(self, factor: f64) -> GateDelays {
        if factor == 1.0 {
            return self;
        }
        GateDelays {
            rise: self.rise * factor,
            fall: self.fall * factor,
            worst: self.worst * factor,
        }
    }
}

/// An event-driven simulator over a borrowed [`Netlist`].
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Flattened topology: CSR fanout/clock/input arrays, per-net loads
    /// and driver domains, cached topological order.
    topo: SimTopology,
    values: Vec<Logic>,
    prev_values: Vec<Logic>,
    last_change: Vec<Time>,
    version: Vec<u64>,
    pending: Vec<Option<Logic>>,
    is_input: Vec<bool>,
    queue: BinaryHeap<std::cmp::Reverse<Event>>,
    now: Time,
    seq: u64,
    domain_supply: Vec<Voltage>,
    pvt: Pvt,
    /// Per-gate (rise, fall, worst) delays, refreshed whenever a supply
    /// changes.
    delay_cache: Vec<GateDelays>,
    trace: Trace,
    /// Trace signal per net; `None` for nets the [`TraceMode`] excludes.
    signals: Vec<Option<SignalId>>,
    meta_mode: MetastabilityMode,
    stats: SimStats,
    /// Accumulated switching energy in joules (½·C·V² per transition).
    switching_energy_j: f64,
    /// Stats already folded into an external registry by
    /// [`promote_stats_into`](Simulator::promote_stats_into), so
    /// repeated promotion adds only the delta.
    promoted: SimStats,
    /// Resolved fault-injection state; `None` (the default) keeps every
    /// hot-path hook behind a single never-taken branch, so a fault-free
    /// simulator is bit-identical to one built before faults existed.
    faults: Option<Box<FaultState>>,
    /// Hot-path profiling counters; `None` (the default) costs one
    /// never-taken branch per hook, like the fault state.
    profile: Option<Box<SimProfile>>,
    /// Applied-event ceiling enforced by the `try_run_*` methods.
    event_budget: Option<u64>,
    /// Cooperative supervision checked (strided) by the `try_run_*`
    /// methods; `None` (the default) costs one never-taken branch per
    /// run call, like the fault state.
    supervisor: Option<psnt_sup::Supervisor>,
}

/// Applied events between supervision checks inside the event loops: a
/// stride amortises the supervisor's atomics to ~0.1% of event cost
/// while still bounding the response latency to a cancellation or
/// deadline at a few thousand events.
const SUPERVISION_STRIDE: u64 = 1024;

/// A `FaultPlan` resolved against one netlist: names become indices and
/// time-triggered faults become sorted schedules with replay cursors.
#[derive(Debug)]
struct FaultState {
    /// Per-net stuck value (`None` = healthy node).
    stuck: Vec<Option<Logic>>,
    /// Per-gate delay multiplier (1.0 = healthy), folded into the delay
    /// cache when it is (re)built.
    delay_scale: Vec<f64>,
    /// Single-event upsets as `(time, dff index)`, sorted by time.
    upsets: Vec<(Time, usize)>,
    /// Cursor into `upsets`; re-armed by `reset`.
    next_upset: usize,
    /// Supply-glitch boundaries as `(time, domain index, signed dv in
    /// volts)` — `+dv` at the window start, `-dv` at the end — sorted by
    /// time.
    glitch_edges: Vec<(Time, usize, f64)>,
    /// Cursor into `glitch_edges`; re-armed by `reset`.
    next_glitch: usize,
    /// Per-capture flip probability of the transient fault, if any.
    transient: Option<f64>,
    /// Seed the transient stream restarts from on `reset`.
    transient_seed: u64,
    /// The transient draw stream (one draw per FF capture).
    rng: SplitMix64,
}

impl FaultState {
    /// Rewinds the time-triggered schedules and the transient stream to
    /// the start of a run.
    fn rearm(&mut self) {
        self.next_upset = 0;
        self.next_glitch = 0;
        self.rng = SplitMix64::new(self.transient_seed);
    }

    /// The earliest pending time-triggered fault at or before `horizon`
    /// (`None` horizon = no limit), removed from its schedule.
    fn pop_due_trigger(&mut self, horizon: Option<Time>) -> Option<FaultTrigger> {
        let up = self.upsets.get(self.next_upset).copied();
        let gl = self.glitch_edges.get(self.next_glitch).copied();
        let take_upset = match (up, gl) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((tu, _)), Some((tg, _, _))) => tu <= tg,
        };
        if take_upset {
            let (t, ff) = up.unwrap();
            if horizon.is_some_and(|h| t > h) {
                return None;
            }
            self.next_upset += 1;
            Some(FaultTrigger::Upset { at: t, ff })
        } else {
            let (t, domain, dv) = gl.unwrap();
            if horizon.is_some_and(|h| t > h) {
                return None;
            }
            self.next_glitch += 1;
            Some(FaultTrigger::GlitchEdge { domain, dv })
        }
    }
}

/// One due time-triggered fault, copied out of `FaultState` so the
/// simulator can act on it without holding the state borrow.
enum FaultTrigger {
    Upset { at: Time, ff: usize },
    GlitchEdge { domain: usize, dv: f64 },
}

impl<'a> Simulator<'a> {
    /// Creates a simulator at the typical PVT point and the given supply.
    ///
    /// # Errors
    ///
    /// Propagates structural validation failures from
    /// [`Netlist::validate`].
    pub fn new(netlist: &'a Netlist, supply: Voltage) -> Result<Simulator<'a>, NetlistError> {
        Simulator::with_pvt(netlist, supply, Pvt::typical())
    }

    /// Creates a simulator at an explicit PVT point, recording every net.
    ///
    /// # Errors
    ///
    /// Propagates structural validation failures from
    /// [`Netlist::validate`].
    pub fn with_pvt(
        netlist: &'a Netlist,
        supply: Voltage,
        pvt: Pvt,
    ) -> Result<Simulator<'a>, NetlistError> {
        Simulator::with_options(netlist, supply, pvt, TraceMode::Full)
    }

    /// Creates a simulator with an explicit [`TraceMode`]. Measurement
    /// kernels that only read back a few nets use `TraceMode::Watched`
    /// (or `Off`) to skip per-event trace recording for everything else.
    ///
    /// # Errors
    ///
    /// Propagates structural validation failures from
    /// [`Netlist::validate`].
    pub fn with_options(
        netlist: &'a Netlist,
        supply: Voltage,
        pvt: Pvt,
        trace_mode: TraceMode,
    ) -> Result<Simulator<'a>, NetlistError> {
        let topo = netlist.sim_topology()?;
        let n = netlist.net_count();
        debug_assert!(
            netlist
                .gates()
                .iter()
                .all(|g| g.inputs().len() <= MAX_GATE_INPUTS),
            "gate fan-in exceeds the inline input buffer"
        );
        let mut trace = Trace::new();
        let mut signals: Vec<Option<SignalId>> = vec![None; n];
        match &trace_mode {
            TraceMode::Off => {}
            TraceMode::Watched(nets) => {
                for &net in nets {
                    if signals[net.index()].is_none() {
                        signals[net.index()] = Some(trace.add_signal(netlist.net(net).name()));
                    }
                }
            }
            TraceMode::Full => {
                for (i, slot) in signals.iter_mut().enumerate() {
                    *slot = Some(trace.add_signal(netlist.net(NetId(i)).name()));
                }
            }
        }
        let mut is_input = vec![false; n];
        for &i in netlist.inputs() {
            is_input[i.index()] = true;
        }
        let mut sim = Simulator {
            netlist,
            topo,
            values: vec![Logic::X; n],
            prev_values: vec![Logic::X; n],
            last_change: vec![Time::from_seconds(-1.0); n],
            version: vec![0; n],
            pending: vec![None; n],
            is_input,
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            domain_supply: vec![supply; netlist.domains().len()],
            pvt,
            delay_cache: Vec::new(),
            trace,
            signals,
            meta_mode: MetastabilityMode::Deterministic,
            stats: SimStats::default(),
            switching_energy_j: 0.0,
            promoted: SimStats::default(),
            faults: None,
            profile: None,
            event_budget: None,
            supervisor: None,
        };
        sim.rebuild_delay_cache();
        sim.initialize();
        Ok(sim)
    }

    /// Rewinds the simulator to its just-constructed state while keeping
    /// every allocation (value arrays, event queue, flattened topology,
    /// delay cache, trace buffers) alive, so sweeps reuse one simulator
    /// instead of paying construction per measurement. Supplies, PVT
    /// and the metastability mode are retained;
    /// simulation time, net values, pending events, statistics and
    /// accumulated switching energy are cleared and the trace restarts
    /// from the re-settled initial values.
    pub fn reset(&mut self) {
        self.values.fill(Logic::X);
        self.prev_values.fill(Logic::X);
        self.last_change.fill(Time::from_seconds(-1.0));
        self.version.fill(0);
        self.pending.fill(None);
        self.queue.clear();
        self.now = Time::ZERO;
        self.seq = 0;
        self.stats = SimStats::default();
        self.promoted = SimStats::default();
        self.switching_energy_j = 0.0;
        self.trace.clear_edges();
        if let Some(f) = self.faults.as_mut() {
            f.rearm();
        }
        self.initialize();
    }

    /// Recomputes the cached propagation delays of every gate at the
    /// current supplies/PVT.
    fn rebuild_delay_cache(&mut self) {
        if let Some(p) = self.profile.as_mut() {
            p.cache_rebuild();
        }
        let gates = self.netlist.gates();
        self.delay_cache.clear();
        self.delay_cache.reserve(gates.len());
        for (gi, g) in gates.iter().enumerate() {
            let supply = self.domain_supply[g.domain().index()];
            let load = self.topo.load(g.output());
            let mut d = GateDelays {
                rise: g
                    .cell()
                    .propagation_delay_edge(supply, load, &self.pvt, true),
                fall: g
                    .cell()
                    .propagation_delay_edge(supply, load, &self.pvt, false),
                worst: g.cell().propagation_delay(supply, load, &self.pvt),
            };
            if let Some(f) = &self.faults {
                d = d.scaled(f.delay_scale[gi]);
            }
            self.delay_cache.push(d);
        }
    }

    /// Refreshes the cached delays of the gates in one domain after its
    /// supply changed.
    fn refresh_domain_delays(&mut self, domain: DomainId) {
        if let Some(p) = self.profile.as_mut() {
            p.cache_refresh();
        }
        let supply = self.domain_supply[domain.index()];
        for (gi, g) in self.netlist.gates().iter().enumerate() {
            if g.domain() != domain {
                continue;
            }
            let load = self.topo.load(g.output());
            let mut d = GateDelays {
                rise: g
                    .cell()
                    .propagation_delay_edge(supply, load, &self.pvt, true),
                fall: g
                    .cell()
                    .propagation_delay_edge(supply, load, &self.pvt, false),
                worst: g.cell().propagation_delay(supply, load, &self.pvt),
            };
            if let Some(f) = &self.faults {
                d = d.scaled(f.delay_scale[gi]);
            }
            self.delay_cache[gi] = d;
        }
    }

    /// The cached (rise, fall, worst) propagation delays of a gate at
    /// the current supplies/PVT — exposed so equivalence tests can pin
    /// the cache against on-demand computation.
    pub fn cached_gate_delays(&self, gate: GateId) -> (Time, Time, Time) {
        let d = self.delay_cache[gate.index()];
        (d.rise, d.fall, d.worst)
    }

    /// Selects how metastable captures are modelled.
    pub fn set_metastability_mode(&mut self, mode: MetastabilityMode) {
        self.meta_mode = mode;
    }

    /// Installs a fault plan, resolving every name against the netlist.
    ///
    /// Replaces any previously installed plan. Static faults (stuck-at,
    /// delay scale) take effect immediately — the delay cache is rebuilt
    /// here — but the pinned *initial* state of stuck nets and the
    /// re-armed schedules of time-triggered faults are established by
    /// [`reset`](Simulator::reset), so the usual sequence is
    /// `set_fault_plan` then `reset` then stimulus.
    ///
    /// Installing an **empty** plan is exactly
    /// [`clear_fault_plan`](Simulator::clear_fault_plan): no fault state
    /// is allocated and every hot-path hook stays behind its never-taken
    /// `None` branch, which keeps fault-free runs bit-identical to a
    /// simulator built before fault injection existed (pinned by the
    /// proptests in `tests/fault_equiv.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] for net/gate/flip-flop/domain
    /// names that do not resolve and [`NetlistError::InvalidFault`] for
    /// out-of-range parameters; the previous plan is left untouched on
    /// error.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), NetlistError> {
        if plan.is_empty() {
            self.clear_fault_plan();
            return Ok(());
        }
        plan.validate()
            .map_err(|e| NetlistError::InvalidFault(e.to_string()))?;
        let mut state = FaultState {
            stuck: vec![None; self.netlist.net_count()],
            delay_scale: vec![1.0; self.netlist.gates().len()],
            upsets: Vec::new(),
            next_upset: 0,
            glitch_edges: Vec::new(),
            next_glitch: 0,
            transient: None,
            transient_seed: 0,
            rng: SplitMix64::new(0),
        };
        for fault in &plan.faults {
            match fault {
                Fault::StuckAt { net, value } => {
                    let id = self.netlist.net_by_name(net)?;
                    state.stuck[id.index()] = Some(*value);
                }
                Fault::DelayScale { gate, factor } => {
                    let gi = self
                        .netlist
                        .gates()
                        .iter()
                        .position(|g| g.name() == gate)
                        .ok_or_else(|| NetlistError::UnknownNet(gate.clone()))?;
                    state.delay_scale[gi] *= factor;
                }
                Fault::BitUpset { ff, at } => {
                    let fi = self
                        .netlist
                        .dffs()
                        .iter()
                        .position(|d| d.name() == ff)
                        .ok_or_else(|| NetlistError::UnknownNet(ff.clone()))?;
                    state.upsets.push((*at, fi));
                }
                Fault::SupplyGlitch { domain, window, dv } => {
                    let d = self
                        .netlist
                        .domain_by_name(domain)
                        .ok_or_else(|| NetlistError::UnknownNet(domain.clone()))?;
                    state.glitch_edges.push((window.0, d.index(), dv.volts()));
                    state.glitch_edges.push((window.1, d.index(), -dv.volts()));
                }
                Fault::Transient { probability, seed } => {
                    state.transient = Some(*probability);
                    state.transient_seed = *seed;
                    state.rng = SplitMix64::new(*seed);
                }
                // Campaign/harness-level faults; the event kernel
                // ignores them (panics, sink errors, cancellation and
                // deadline trips are applied by the layers above).
                Fault::SitePanic { .. }
                | Fault::SinkError { .. }
                | Fault::WorkerPanic { .. }
                | Fault::CancelAt { .. }
                | Fault::DeadlineTrip => {}
            }
        }
        state.upsets.sort_by(|a, b| a.0.total_cmp(&b.0));
        state.glitch_edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.faults = Some(Box::new(state));
        self.rebuild_delay_cache();
        Ok(())
    }

    /// Removes any installed fault plan and restores the healthy delay
    /// cache. No-op on a fault-free simulator.
    pub fn clear_fault_plan(&mut self) {
        if self.faults.take().is_some() {
            self.rebuild_delay_cache();
        }
    }

    /// Whether a (non-empty) fault plan is installed.
    pub fn has_fault_plan(&self) -> bool {
        self.faults.is_some()
    }

    /// Installs (or clears, with `None`) the cumulative applied-event
    /// ceiling enforced by [`try_run_until`](Simulator::try_run_until)
    /// and
    /// [`try_run_to_quiescence`](Simulator::try_run_to_quiescence).
    /// The budget compares against total events applied since the last
    /// [`reset`](Simulator::reset) (which zeroes the event counter but
    /// keeps the budget, like the other configuration knobs). The
    /// infallible `run_*` methods ignore it.
    pub fn set_event_budget(&mut self, budget: Option<u64>) {
        self.event_budget = budget;
    }

    /// The installed event budget, if any.
    pub fn event_budget(&self) -> Option<u64> {
        self.event_budget
    }

    /// Installs (or clears, with `None`) a cooperative
    /// [`Supervisor`](psnt_sup::Supervisor), checked every
    /// [`SUPERVISION_STRIDE`] applied events by the fallible
    /// [`try_run_until`](Simulator::try_run_until) /
    /// [`try_run_to_quiescence`](Simulator::try_run_to_quiescence)
    /// loops. A trip surfaces as [`NetlistError::Interrupted`] with the
    /// simulator still usable; the infallible `run_*` methods ignore
    /// the supervisor (they have no error channel), exactly as they
    /// ignore the event budget. `None` — the default — keeps the hot
    /// loop free of supervision entirely.
    pub fn set_supervisor(&mut self, supervisor: Option<psnt_sup::Supervisor>) {
        self.supervisor = supervisor;
    }

    /// The installed supervisor, if any.
    pub fn supervisor(&self) -> Option<&psnt_sup::Supervisor> {
        self.supervisor.as_ref()
    }

    /// Enables hot-path profiling: events by gate kind, queue-depth
    /// and event-latency histograms, delay-cache and fault-hook
    /// counters, accumulated in a [`SimProfile`] until drained by
    /// [`fold_profile_into`](Simulator::fold_profile_into). Idempotent;
    /// survives [`reset`](Simulator::reset) so pooled sweeps keep
    /// accumulating. Every profiled quantity derives from simulation
    /// state, so enabling profiling never changes results and profiles
    /// are bit-identical across worker counts.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(SimProfile::for_netlist(self.netlist)));
        }
    }

    /// The accumulated profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&SimProfile> {
        self.profile.as_deref()
    }

    /// Drains the profile into `metrics` (no-op when profiling is
    /// off). Call after a run; pooled simulators cannot hold the
    /// observer reference themselves, so the owning layer folds here.
    pub fn fold_profile_into(&mut self, metrics: &mut MetricsRegistry) {
        if let Some(p) = self.profile.as_mut() {
            p.fold_into(metrics);
        }
    }

    /// Delta-promotes run statistics (and the energy gauge) into an
    /// external registry: the counters gain only what accumulated since
    /// the previous promotion, so pooled simulators can fold after
    /// every run.
    pub fn promote_stats_into(&mut self, metrics: &mut MetricsRegistry) {
        let s = self.stats;
        let p = self.promoted;
        metrics.counter_add("sim.events", s.events - p.events);
        metrics.counter_add("sim.cancelled", s.cancelled - p.cancelled);
        metrics.counter_add("sim.ff_captures", s.ff_captures - p.ff_captures);
        metrics.counter_add("sim.ff_violations", s.ff_violations - p.ff_violations);
        metrics.gauge_set("sim.switching_energy_j", self.switching_energy_j);
        self.promoted = s;
    }

    /// The supply voltage powering the default (core) domain.
    pub fn supply(&self) -> Voltage {
        self.domain_supply[DomainId::CORE.index()]
    }

    /// Changes the supply voltage of every domain for subsequently
    /// scheduled gate delays (models a slow global supply ramp).
    pub fn set_supply(&mut self, supply: Voltage) {
        for s in &mut self.domain_supply {
            *s = supply;
        }
        self.rebuild_delay_cache();
    }

    /// The supply voltage of one domain.
    pub fn domain_supply(&self, domain: DomainId) -> Voltage {
        self.domain_supply[domain.index()]
    }

    /// Changes one domain's supply for subsequently scheduled gate
    /// delays — how a measurement run steps the noisy rail between
    /// PREPARE/SENSE sequences while the control domain stays nominal.
    ///
    /// # Panics
    ///
    /// Panics if `domain` was not declared on the netlist.
    pub fn set_domain_supply(&mut self, domain: DomainId, supply: Voltage) {
        self.domain_supply[domain.index()] = supply;
        self.refresh_domain_delays(domain);
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Switching (dynamic) energy dissipated so far: ½·C·V² per net
    /// transition, with each net charged from its driver's domain supply.
    pub fn switching_energy_joules(&self) -> f64 {
        self.switching_energy_j
    }

    /// Mean dynamic power over the elapsed simulation time, in watts;
    /// zero before any time has passed.
    pub fn dynamic_power_watts(&self) -> f64 {
        let t = self.now.seconds();
        if t <= 0.0 {
            0.0
        } else {
            self.switching_energy_j / t
        }
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// The recorded waveform trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The trace signal corresponding to a net.
    ///
    /// This is the panicking convenience over [`Simulator::try_signal`]
    /// for call sites that construct the simulator and therefore know
    /// which nets are traced.
    ///
    /// # Panics
    ///
    /// Panics when the net is excluded by the simulator's [`TraceMode`]
    /// (`Off`, or `Watched` without this net).
    pub fn signal(&self, net: NetId) -> SignalId {
        self.try_signal(net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The trace signal corresponding to a net, or
    /// [`NetlistError::UntracedNet`] when the net is excluded by the
    /// simulator's [`TraceMode`] (`Off`, or `Watched` without this
    /// net).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UntracedNet`] naming the net.
    pub fn try_signal(&self, net: NetId) -> Result<SignalId, NetlistError> {
        self.signals[net.index()]
            .ok_or_else(|| NetlistError::UntracedNet(self.netlist.net(net).name().to_owned()))
    }

    fn initialize(&mut self) {
        // Constants and FF power-on values are established instantaneously,
        // then combinational logic settles in topological order
        // (zero-delay), modelling a circuit that has been stable forever.
        for &(net, value) in self.netlist.consts() {
            self.values[net.index()] = value;
        }
        for ff in self.netlist.dffs() {
            self.values[ff.q().index()] = ff.init();
        }
        // Stuck-at faults pin their nodes before and during settling, so
        // the initial state is consistent with the defect having been
        // present forever.
        if let Some(f) = &self.faults {
            for (ni, sv) in f.stuck.iter().enumerate() {
                if let Some(v) = sv {
                    self.values[ni] = *v;
                }
            }
        }
        let nl = self.netlist;
        for k in 0..self.topo.topo_gates().len() {
            let g = self.topo.topo_gates()[k];
            let gate = &nl.gates()[g.index()];
            let pins = self.topo.gate_inputs(g);
            let mut ins = [Logic::X; MAX_GATE_INPUTS];
            for (j, &i) in pins.iter().enumerate() {
                ins[j] = self.values[i.index()];
            }
            let arity = pins.len();
            let oi = gate.output().index();
            let mut out = gate.cell().eval(&ins[..arity]);
            if let Some(f) = &self.faults {
                if let Some(v) = f.stuck[oi] {
                    out = v;
                }
            }
            self.values[oi] = out;
        }
        for i in 0..self.values.len() {
            self.prev_values[i] = self.values[i];
            if let Some(s) = self.signals[i] {
                self.trace.record(s, Time::ZERO, self.values[i]);
            }
        }
    }

    /// Drives a primary input to `value` at absolute time `at`.
    ///
    /// This is the panicking convenience over [`Simulator::try_drive`],
    /// kept because call sites that author their own stimulus schedule
    /// know their times are monotone (mirrors
    /// [`signal`](Simulator::signal) / [`try_signal`](Simulator::try_signal)).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnInput`] for non-input nets.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulation time; use
    /// [`Simulator::try_drive`] to get
    /// [`NetlistError::DriveInPast`] instead.
    pub fn drive(&mut self, net: NetId, value: Logic, at: Time) -> Result<(), NetlistError> {
        match self.try_drive(net, value, at) {
            Err(NetlistError::DriveInPast { net, at_ps, now_ps }) => {
                panic!("cannot drive in the past: net {net:?} at {at_ps} ps < now {now_ps} ps")
            }
            other => other,
        }
    }

    /// Fallible [`drive`](Simulator::drive): schedules a primary-input
    /// stimulus, reporting out-of-range times as errors rather than
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnInput`] for non-input nets and
    /// [`NetlistError::DriveInPast`] when `at` precedes the current
    /// simulation time.
    pub fn try_drive(&mut self, net: NetId, value: Logic, at: Time) -> Result<(), NetlistError> {
        if !self.is_input[net.index()] {
            return Err(NetlistError::NotAnInput(
                self.netlist.net(net).name().to_owned(),
            ));
        }
        if at < self.now {
            return Err(NetlistError::DriveInPast {
                net: self.netlist.net(net).name().to_owned(),
                at_ps: at.picoseconds(),
                now_ps: self.now.picoseconds(),
            });
        }
        // Primary inputs use transport semantics: every queued stimulus
        // edge applies in time order (no inertial cancellation), so a full
        // clock waveform can be scheduled up front.
        self.push_event(at, net, value);
        Ok(())
    }

    /// Drives a periodic clock on `net`: rising edges at
    /// `start, start+period, …` for `cycles` cycles, 50 % duty.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnInput`] for non-input nets.
    pub fn drive_clock(
        &mut self,
        net: NetId,
        start: Time,
        period: Time,
        cycles: usize,
    ) -> Result<(), NetlistError> {
        self.drive(net, Logic::Zero, self.now)?;
        for k in 0..cycles {
            let rise = start + period * k as f64;
            self.drive(net, Logic::One, rise)?;
            self.drive(net, Logic::Zero, rise + period / 2.0)?;
        }
        Ok(())
    }

    fn push_event(&mut self, time: Time, net: NetId, value: Logic) {
        self.seq += 1;
        self.queue.push(std::cmp::Reverse(Event {
            time,
            seq: self.seq,
            net,
            value,
            version: self.version[net.index()],
        }));
        if let Some(p) = self.profile.as_mut() {
            p.queue_sample(self.queue.len());
        }
    }

    /// Processes every event scheduled at or before `t`, then advances the
    /// clock to `t`. Returns the number of applied events.
    pub fn run_until(&mut self, t: Time) -> u64 {
        match self.run_until_guarded(t, None, None) {
            Ok(applied) => applied,
            Err(_) => unreachable!("unguarded run cannot exceed a budget"),
        }
    }

    /// Budget-guarded [`run_until`](Simulator::run_until): identical
    /// event-for-event while the configured
    /// [event budget](Simulator::set_event_budget) holds, but stops with
    /// [`NetlistError::BudgetExceeded`] instead of grinding through an
    /// oscillation a fault plan may have created. With no budget
    /// installed it never fails.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BudgetExceeded`] when the cumulative
    /// applied-event count passes the budget, or
    /// [`NetlistError::Interrupted`] when an installed
    /// [supervisor](Simulator::set_supervisor) trips; the simulator
    /// remains usable (time holds at the last applied event).
    pub fn try_run_until(&mut self, t: Time) -> Result<u64, NetlistError> {
        let sup = self.supervisor.clone();
        self.run_until_guarded(t, self.event_budget, sup.as_ref())
    }

    fn run_until_guarded(
        &mut self,
        t: Time,
        budget: Option<u64>,
        sup: Option<&psnt_sup::Supervisor>,
    ) -> Result<u64, NetlistError> {
        let before = self.stats.events;
        let mut until_check = SUPERVISION_STRIDE;
        loop {
            let next = self.queue.peek().map(|r| r.0.time);
            if self.faults.is_some() {
                let horizon = match next {
                    Some(te) if te <= t => te,
                    _ => t,
                };
                if self.inject_due_fault(Some(horizon)) {
                    continue;
                }
            }
            let Some(std::cmp::Reverse(ev)) = self.queue.peek().copied() else {
                break;
            };
            if ev.time > t {
                break;
            }
            self.queue.pop();
            self.apply(ev);
            if let Some(b) = budget {
                if self.stats.events > b {
                    return Err(NetlistError::BudgetExceeded {
                        budget: b,
                        events: self.stats.events,
                    });
                }
            }
            if let Some(s) = sup {
                until_check -= 1;
                if until_check == 0 {
                    until_check = SUPERVISION_STRIDE;
                    s.charge_events(SUPERVISION_STRIDE);
                    if let Err(reason) = s.check_at(self.now.picoseconds()) {
                        return Err(NetlistError::Interrupted(reason));
                    }
                }
            }
        }
        self.now = self.now.max(t);
        Ok(self.stats.events - before)
    }

    /// Runs until the event queue drains (or `max` events were applied,
    /// as a divergence guard). Returns the final time.
    pub fn run_to_quiescence(&mut self, max: u64) -> Time {
        match self.run_quiescence_guarded(max, None, None) {
            Ok(t) => t,
            Err(_) => unreachable!("unguarded run cannot exceed a budget"),
        }
    }

    /// Budget-guarded [`run_to_quiescence`](Simulator::run_to_quiescence):
    /// same event order, but the configured
    /// [event budget](Simulator::set_event_budget) turns a netlist that
    /// never settles (e.g. a stuck-at fault closing an oscillating loop)
    /// into a [`NetlistError::BudgetExceeded`] error rather than silently
    /// stopping at `max`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BudgetExceeded`] when the cumulative
    /// applied-event count passes the budget, or
    /// [`NetlistError::Interrupted`] when an installed
    /// [supervisor](Simulator::set_supervisor) trips.
    pub fn try_run_to_quiescence(&mut self, max: u64) -> Result<Time, NetlistError> {
        let sup = self.supervisor.clone();
        self.run_quiescence_guarded(max, self.event_budget, sup.as_ref())
    }

    fn run_quiescence_guarded(
        &mut self,
        max: u64,
        budget: Option<u64>,
        sup: Option<&psnt_sup::Supervisor>,
    ) -> Result<Time, NetlistError> {
        let mut applied = 0;
        let mut until_check = SUPERVISION_STRIDE;
        loop {
            if self.faults.is_some() {
                let horizon = self.queue.peek().map(|r| r.0.time);
                if self.inject_due_fault(horizon) {
                    continue;
                }
            }
            let Some(std::cmp::Reverse(ev)) = self.queue.pop() else {
                break;
            };
            let was_applied = self.apply(ev);
            if was_applied {
                applied += 1;
                if applied >= max {
                    break;
                }
                if let Some(b) = budget {
                    if self.stats.events > b {
                        return Err(NetlistError::BudgetExceeded {
                            budget: b,
                            events: self.stats.events,
                        });
                    }
                }
                if let Some(s) = sup {
                    until_check -= 1;
                    if until_check == 0 {
                        until_check = SUPERVISION_STRIDE;
                        s.charge_events(SUPERVISION_STRIDE);
                        if let Err(reason) = s.check_at(self.now.picoseconds()) {
                            return Err(NetlistError::Interrupted(reason));
                        }
                    }
                }
            }
        }
        Ok(self.now)
    }

    /// Injects at most one due time-triggered fault (bit upset or supply
    /// glitch boundary) with trigger time `<= horizon` (`None` = no
    /// limit). Returns whether anything was injected — callers loop so
    /// the event heap interleaves injected edges in time order.
    fn inject_due_fault(&mut self, horizon: Option<Time>) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        let Some(trigger) = f.pop_due_trigger(horizon) else {
            return false;
        };
        match trigger {
            FaultTrigger::Upset { at, ff } => {
                // Invert the flip-flop output once; X flips to One so the
                // disturbance is observable. Scheduled through the normal
                // inertial path, so fanout reacts like any capture.
                let q = self.netlist.dffs()[ff].q();
                let qi = q.index();
                let effective = self.pending[qi].unwrap_or(self.values[qi]);
                let flipped = match effective {
                    Logic::One => Logic::Zero,
                    Logic::Zero => Logic::One,
                    _ => Logic::One,
                };
                self.version[qi] += 1;
                self.pending[qi] = Some(flipped);
                let when = at.max(self.now);
                self.push_event(when, q, flipped);
            }
            FaultTrigger::GlitchEdge { domain, dv } => {
                let d = DomainId(domain);
                let bumped = Voltage::from_v(self.domain_supply[domain].volts() + dv);
                self.domain_supply[domain] = bumped;
                self.refresh_domain_delays(d);
            }
        }
        if let Some(p) = self.profile.as_mut() {
            p.fault_injection();
        }
        true
    }

    fn apply(&mut self, mut ev: Event) -> bool {
        let ni = ev.net.index();
        // Stuck-at interception at commit time: transitions on a stuck
        // node are rewritten to the stuck value, which the same-value
        // check below then discards — the node never moves.
        if let Some(f) = &self.faults {
            if let Some(v) = f.stuck[ni] {
                if ev.value != v {
                    if let Some(p) = self.profile.as_mut() {
                        p.stuck_rewrite();
                    }
                }
                ev.value = v;
            }
        }
        if ev.version != self.version[ni] {
            self.stats.cancelled += 1;
            return false; // superseded by a later evaluation (inertial)
        }
        self.pending[ni] = None;
        self.now = self.now.max(ev.time);
        if self.values[ni] == ev.value {
            return false;
        }
        self.prev_values[ni] = self.values[ni];
        self.values[ni] = ev.value;
        self.last_change[ni] = ev.time;
        if let Some(s) = self.signals[ni] {
            self.trace.record(s, ev.time, ev.value);
        }
        self.stats.events += 1;
        // Dynamic energy: ½·C·V² for this transition, charged from the
        // driving gate's domain supply (inputs, constants and FF outputs
        // sit on the core domain).
        let v = self.domain_supply[self.topo.driver_domain(ev.net).index()].volts();
        self.switching_energy_j += 0.5 * self.topo.load(ev.net).farads() * v * v;

        // Re-evaluate combinational fanout (index loop: the CSR slice is
        // immutable during simulation, and indexing re-borrows per
        // iteration so `evaluate_gate` can take `&mut self`).
        for idx in 0..self.topo.fanout(ev.net).len() {
            let gi = self.topo.fanout(ev.net)[idx];
            self.evaluate_gate(gi, ev.time);
        }
        // Clock pins: a rising edge samples the FF.
        if self.prev_values[ni] == Logic::Zero && ev.value == Logic::One {
            for idx in 0..self.topo.clk_fanout(ev.net).len() {
                let fi = self.topo.clk_fanout(ev.net)[idx];
                self.capture_ff(fi, ev.time);
            }
        }
        true
    }

    fn evaluate_gate(&mut self, gi: GateId, at: Time) {
        let gate = &self.netlist.gates()[gi.index()];
        let pins = self.topo.gate_inputs(gi);
        let mut ins = [Logic::X; MAX_GATE_INPUTS];
        for (k, &i) in pins.iter().enumerate() {
            ins[k] = self.values[i.index()];
        }
        let arity = pins.len();
        let new_value = gate.cell().eval(&ins[..arity]);
        let out = gate.output();
        let oi = out.index();
        let effective = self.pending[oi].unwrap_or(self.values[oi]);
        if new_value == effective {
            return;
        }
        // Pick the edge-specific arc from the delay cache: rising when
        // the output heads to 1 (unknown transitions use the
        // conservative worst arc).
        let cached = self.delay_cache[gi.index()];
        let delay = match new_value {
            Logic::One => cached.rise,
            Logic::Zero => cached.fall,
            _ => cached.worst,
        };
        if let Some(p) = self.profile.as_mut() {
            p.gate_event(gi.index(), delay.picoseconds());
        }
        self.version[oi] += 1;
        self.pending[oi] = Some(new_value);
        self.push_event(at + delay, out, new_value);
    }

    fn capture_ff(&mut self, fi: DffId, edge: Time) {
        let ff = &self.netlist.dffs()[fi.index()];
        let d = ff.d().index();
        let arrival = self.last_change[d] - edge;
        let outcome = ff
            .model()
            .sample(arrival, self.values[d], self.prev_values[d]);
        self.stats.ff_captures += 1;
        let value = if outcome.metastable {
            self.stats.ff_violations += 1;
            match self.meta_mode {
                MetastabilityMode::Deterministic => outcome.value,
                MetastabilityMode::PropagateX => Logic::X,
            }
        } else {
            outcome.value
        };
        // Transient fault: one stream draw per capture (flip or not, so
        // the sequence stays aligned with the capture order), inverting
        // the sampled value when the draw lands under the probability.
        let mut value = value;
        if let Some(f) = self.faults.as_mut() {
            if let Some(p) = f.transient {
                if f.rng.next_f64() < p {
                    value = match value {
                        Logic::One => Logic::Zero,
                        Logic::Zero => Logic::One,
                        other => other,
                    };
                    if let Some(prof) = self.profile.as_mut() {
                        prof.transient_flip();
                    }
                }
            }
        }
        let q = ff.q();
        let qi = q.index();
        let effective = self.pending[qi].unwrap_or(self.values[qi]);
        if value == effective {
            return;
        }
        self.version[qi] += 1;
        self.pending[qi] = Some(value);
        self.push_event(edge + outcome.clk_to_out, q, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_cells::dff::Dff;
    use psnt_cells::gates::StdCell;

    fn ps(t: f64) -> Time {
        Time::from_ps(t)
    }

    fn v(x: f64) -> Voltage {
        Voltage::from_v(x)
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..4 {
            prev = n
                .add_gate(format!("inv{i}"), StdCell::inverter(1.0), &[prev])
                .unwrap();
        }
        n.mark_output("q", prev);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::Zero, Time::ZERO).unwrap();
        sim.run_until(ps(1.0));
        // Even number of inversions: q follows a after settling.
        sim.run_until(Time::from_ns(2.0));
        assert_eq!(sim.value(prev), Logic::Zero);
        sim.drive(a, Logic::One, Time::from_ns(2.0)).unwrap();
        sim.run_until(Time::from_ns(4.0));
        assert_eq!(sim.value(prev), Logic::One);
        // The output flipped strictly after the input did.
        let q_edge = sim
            .trace()
            .first_edge_to(sim.signal(prev), Logic::One, Time::from_ns(2.0))
            .unwrap();
        assert!(q_edge > Time::from_ns(2.0));
    }

    #[test]
    fn lower_supply_slows_propagation() {
        let delay_at = |supply: f64| {
            let mut n = Netlist::new("chain");
            let a = n.add_input("a");
            let mut prev = a;
            for i in 0..8 {
                prev = n
                    .add_gate(format!("inv{i}"), StdCell::inverter(1.0), &[prev])
                    .unwrap();
            }
            n.mark_output("q", prev);
            let mut sim = Simulator::new(&n, v(supply)).unwrap();
            sim.drive(a, Logic::Zero, Time::ZERO).unwrap();
            sim.run_to_quiescence(10_000);
            sim.drive(a, Logic::One, Time::from_ns(5.0)).unwrap();
            sim.run_until(Time::from_ns(50.0));
            let edge = sim
                .trace()
                .first_edge_to(sim.signal(prev), Logic::One, Time::from_ns(5.0))
                .unwrap();
            edge - Time::from_ns(5.0)
        };
        let fast = delay_at(1.1);
        let nominal = delay_at(1.0);
        let slow = delay_at(0.9);
        assert!(fast < nominal, "{fast} !< {nominal}");
        assert!(nominal < slow, "{nominal} !< {slow}");
    }

    #[test]
    fn initialization_settles_constants() {
        let mut n = Netlist::new("t");
        let one = n.add_const("one", Logic::One);
        let zero = n.add_const("zero", Logic::Zero);
        let q = n.add_gate("g", StdCell::nand2(1.0), &[one, zero]).unwrap();
        n.mark_output("q", q);
        let sim = Simulator::new(&n, v(1.0)).unwrap();
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn driving_non_input_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        assert!(matches!(
            sim.drive(q, Logic::One, Time::ZERO),
            Err(NetlistError::NotAnInput(_))
        ));
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let clk = n.add_input("clk");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(d, Logic::One, ps(0.0)).unwrap();
        sim.drive(clk, Logic::Zero, ps(0.0)).unwrap();
        // Falling edge first — no capture.
        sim.run_until(ps(500.0));
        assert_eq!(sim.value(q), Logic::Zero);
        // Rising edge captures the 1 (data settled 500 ps earlier).
        sim.drive(clk, Logic::One, ps(600.0)).unwrap();
        sim.run_until(Time::from_ns(2.0));
        assert_eq!(sim.value(q), Logic::One);
        assert_eq!(sim.stats().ff_captures, 1);
        assert_eq!(sim.stats().ff_violations, 0);
    }

    #[test]
    fn dff_setup_violation_keeps_old_value() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let clk = n.add_input("clk");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(d, Logic::Zero, ps(0.0)).unwrap();
        sim.drive(clk, Logic::Zero, ps(0.0)).unwrap();
        sim.run_until(ps(400.0));
        // Data flips 5 ps before the edge — inside the 30 ps setup window,
        // close to the hold side of the balance point? No: -5 ps is in the
        // window and on the "new" side boundary... -5 ps with setup 30 and
        // hold 15 sits at x = 25/45 ≈ 0.56 → old value retained.
        sim.drive(d, Logic::One, ps(495.0)).unwrap();
        sim.drive(clk, Logic::One, ps(500.0)).unwrap();
        sim.run_until(Time::from_ns(2.0));
        assert_eq!(sim.value(q), Logic::Zero, "late data must not be captured");
        assert_eq!(sim.stats().ff_violations, 1);
    }

    #[test]
    fn metastability_propagate_x_mode() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let clk = n.add_input("clk");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.set_metastability_mode(MetastabilityMode::PropagateX);
        sim.drive(d, Logic::Zero, ps(0.0)).unwrap();
        sim.drive(clk, Logic::Zero, ps(0.0)).unwrap();
        sim.run_until(ps(400.0));
        sim.drive(d, Logic::One, ps(495.0)).unwrap();
        sim.drive(clk, Logic::One, ps(500.0)).unwrap();
        sim.run_until(Time::from_ns(2.0));
        assert_eq!(sim.value(q), Logic::X);
    }

    #[test]
    fn clock_driver_produces_edges() {
        let mut n = Netlist::new("t");
        let clk = n.add_input("clk");
        let d = n.add_input("d");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(d, Logic::One, ps(0.0)).unwrap();
        sim.drive_clock(clk, ps(1000.0), Time::from_ns(2.0), 5)
            .unwrap();
        sim.run_until(Time::from_ns(15.0));
        assert_eq!(sim.trace().rising_edges(sim.signal(clk)), 5);
        assert_eq!(sim.stats().ff_captures, 5);
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn inertial_filtering_swallows_glitch() {
        // A pulse much shorter than the gate delay must not appear at the
        // output.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::buffer(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::Zero, ps(0.0)).unwrap();
        sim.run_to_quiescence(1000);
        // 1 ps glitch, far below the ~30 ps buffer delay.
        sim.drive(a, Logic::One, ps(100.0)).unwrap();
        sim.drive(a, Logic::Zero, ps(101.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        assert_eq!(sim.value(q), Logic::Zero);
        assert_eq!(
            sim.trace().rising_edges(sim.signal(q)),
            0,
            "glitch leaked through inertial filter"
        );
        assert!(sim.stats().cancelled > 0);
    }

    #[test]
    fn run_until_reports_event_count() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::One, ps(0.0)).unwrap();
        let applied = sim.run_until(Time::from_ns(1.0));
        assert!(applied >= 1);
        assert_eq!(sim.now(), Time::from_ns(1.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds a random combinational DAG: each gate reads previously
        /// created nets only (acyclic by construction).
        fn random_dag(
            gate_picks: &[(u8, u8, u8, u8)],
            n_inputs: usize,
        ) -> (Netlist, Vec<NetId>, Vec<NetId>) {
            let mut n = Netlist::new("dag");
            let inputs: Vec<NetId> = (0..n_inputs)
                .map(|i| n.add_input(format!("in{i}")))
                .collect();
            let mut nets = inputs.clone();
            let mut outs = Vec::new();
            for (gi, &(kind, a, b, c)) in gate_picks.iter().enumerate() {
                let cell = match kind % 6 {
                    0 => StdCell::inverter(1.0),
                    1 => StdCell::nand2(1.0),
                    2 => StdCell::nor2(1.0),
                    3 => StdCell::xor2(1.0),
                    4 => StdCell::mux2(1.0),
                    _ => StdCell::and3(1.0),
                };
                let pick = |x: u8| nets[x as usize % nets.len()];
                let ins: Vec<NetId> = match cell.num_inputs() {
                    1 => vec![pick(a)],
                    2 => vec![pick(a), pick(b)],
                    _ => vec![pick(a), pick(b), pick(c)],
                };
                let out = n.add_gate(format!("g{gi}"), cell, &ins).unwrap();
                nets.push(out);
                outs.push(out);
            }
            (n, inputs, outs)
        }

        /// Zero-delay functional evaluation in topological order.
        fn functional_eval(n: &Netlist, input_values: &[(NetId, Logic)]) -> Vec<Logic> {
            let mut values = vec![Logic::X; n.net_count()];
            for &(net, v) in input_values {
                values[net.index()] = v;
            }
            for gid in n.topo_gates().unwrap() {
                let gate = &n.gates()[gid.index()];
                let ins: Vec<Logic> = gate.inputs().iter().map(|i| values[i.index()]).collect();
                values[gate.output().index()] = gate.cell().eval(&ins);
            }
            values
        }

        proptest! {
            /// After the event queue drains, the simulator's state equals
            /// the functional evaluation of the applied input vector —
            /// regardless of event ordering, inertial cancellations or
            /// glitches along the way.
            #[test]
            fn quiescent_state_matches_functional_eval(
                gate_picks in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..25),
                input_bits in proptest::collection::vec(any::<bool>(), 4),
                flip_bits in proptest::collection::vec(any::<bool>(), 4),
            ) {
                let (n, inputs, _) = random_dag(&gate_picks, input_bits.len());
                let mut sim = Simulator::new(&n, Voltage::from_v(1.0)).unwrap();
                // Apply an initial vector, then flip a subset later: the
                // final state must match the final vector functionally.
                let mut final_vec = Vec::new();
                for (i, (&net, &b)) in inputs.iter().zip(&input_bits).enumerate() {
                    sim.drive(net, Logic::from(b), Time::from_ps(i as f64)).unwrap();
                }
                for (i, (&net, (&b, &f))) in inputs
                    .iter()
                    .zip(input_bits.iter().zip(&flip_bits))
                    .enumerate()
                {
                    let v = b ^ f;
                    sim.drive(net, Logic::from(v), Time::from_ns(5.0) + Time::from_ps(i as f64)).unwrap();
                    final_vec.push((net, Logic::from(v)));
                }
                sim.run_to_quiescence(1_000_000);
                let expect = functional_eval(&n, &final_vec);
                for (i, &e) in expect.iter().enumerate() {
                    prop_assert_eq!(
                        sim.value(NetId(i)),
                        e,
                        "net {} diverged", n.net(NetId(i)).name()
                    );
                }
            }
        }
    }

    #[test]
    fn trace_mode_watched_records_only_watched_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let x = n.add_gate("g1", StdCell::inverter(1.0), &[a]).unwrap();
        let q = n.add_gate("g2", StdCell::inverter(1.0), &[x]).unwrap();
        n.mark_output("q", q);
        let mut sim =
            Simulator::with_options(&n, v(1.0), Pvt::typical(), TraceMode::Watched(vec![a, q]))
                .unwrap();
        sim.drive(a, Logic::Zero, Time::ZERO).unwrap();
        sim.drive(a, Logic::One, ps(10.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        assert_eq!(sim.trace().signal_count(), 2);
        assert_eq!(sim.trace().rising_edges(sim.signal(a)), 1);
        assert!(sim
            .trace()
            .first_edge_to(sim.signal(q), Logic::One, Time::ZERO)
            .is_some());
        // Values still simulate for untraced nets.
        assert_eq!(sim.value(x), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "not traced")]
    fn trace_mode_off_signal_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let sim = Simulator::with_options(&n, v(1.0), Pvt::typical(), TraceMode::Off).unwrap();
        let _ = sim.signal(q);
    }

    #[test]
    fn trace_mode_off_still_simulates() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::with_options(&n, v(1.0), Pvt::typical(), TraceMode::Off).unwrap();
        sim.drive(a, Logic::One, Time::ZERO).unwrap();
        sim.run_until(Time::from_ns(1.0));
        assert_eq!(sim.value(q), Logic::Zero);
        assert_eq!(sim.trace().signal_count(), 0);
        assert!(sim.stats().events >= 1);
    }

    #[test]
    fn reset_rewinds_state_and_reuses_buffers() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::One, ps(10.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        let first_stats = *sim.stats();
        let first_edges = sim.trace().edges(sim.signal(q)).to_vec();
        let first_energy = sim.switching_energy_joules();
        assert!(first_stats.events > 0);

        sim.reset();
        assert_eq!(sim.now(), Time::ZERO);
        assert_eq!(sim.stats().events, 0);
        assert_eq!(sim.switching_energy_joules(), 0.0);
        assert_eq!(sim.value(q), Logic::X, "inputs revert to X after reset");

        // The same stimulus replays to bit-identical results.
        sim.drive(a, Logic::One, ps(10.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        assert_eq!(*sim.stats(), first_stats);
        assert_eq!(sim.trace().edges(sim.signal(q)), &first_edges[..]);
        assert_eq!(sim.switching_energy_joules(), first_energy);
    }

    #[test]
    fn delay_cache_tracks_supply_changes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        let g = GateId::from_index(0);
        let gate = &n.gates()[0];
        let load = n.load(q);
        let check = |sim: &Simulator, supply: Voltage| {
            let (rise, fall, worst) = sim.cached_gate_delays(g);
            let pvt = Pvt::typical();
            assert_eq!(
                rise,
                gate.cell().propagation_delay_edge(supply, load, &pvt, true)
            );
            assert_eq!(
                fall,
                gate.cell()
                    .propagation_delay_edge(supply, load, &pvt, false)
            );
            assert_eq!(worst, gate.cell().propagation_delay(supply, load, &pvt));
        };
        check(&sim, v(1.0));
        sim.set_supply(v(0.9));
        check(&sim, v(0.9));
        sim.set_domain_supply(DomainId::CORE, v(1.1));
        check(&sim, v(1.1));
    }

    #[test]
    fn energy_attributed_to_driver_domain() {
        // Two identical inverters, one moved to a droopy domain: its
        // output transition must charge from the droopy rail.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let x = n
            .add_gate("core_inv", StdCell::inverter(1.0), &[a])
            .unwrap();
        n.mark_output("x", x);
        let noisy = n.add_domain("noisy");
        let b = n.add_input("b");
        let y = n
            .add_gate("noisy_inv", StdCell::inverter(1.0), &[b])
            .unwrap();
        n.set_gate_domain(GateId::from_index(1), noisy);
        n.mark_output("y", y);
        // Give the otherwise unloaded gate outputs some switched charge.
        n.add_wire_capacitance(x, psnt_cells::units::Capacitance::from_ff(10.0));
        n.add_wire_capacitance(y, psnt_cells::units::Capacitance::from_ff(10.0));

        let energy_of = |net: NetId, droop: bool| {
            let mut sim = Simulator::new(&n, v(1.0)).unwrap();
            if droop {
                sim.set_domain_supply(noisy, v(0.5));
            }
            let input = if net == x { a } else { b };
            sim.drive(input, Logic::One, Time::ZERO).unwrap();
            sim.run_until(Time::from_ns(5.0));
            sim.switching_energy_joules()
        };
        let core_nominal = energy_of(x, false);
        let noisy_nominal = energy_of(y, false);
        let core_droop = energy_of(x, true);
        let noisy_droop = energy_of(y, true);
        // Identical cells and loads: equal energy at equal supplies.
        assert!((core_nominal - noisy_nominal).abs() < 1e-21);
        // The core path ignores the noisy rail's droop entirely…
        assert_eq!(core_nominal, core_droop);
        // …while the noisy inverter's output charges at 0.5 V: its energy
        // share scales by (0.5/1.0)² relative to the nominal run. Both
        // runs share the input net's core-domain energy, so compare the
        // gate-output contribution only.
        let input_e = 0.5 * n.load(b).farads(); // ½·C·(1.0 V)² on the core-driven input net
        let out_nominal = noisy_nominal - input_e;
        let out_droop = noisy_droop - input_e;
        assert!(
            (out_droop / out_nominal - 0.25).abs() < 1e-9,
            "droop ratio {} (nominal {out_nominal}, droop {out_droop})",
            out_droop / out_nominal
        );
    }

    #[test]
    fn trace_records_all_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_gate("g", StdCell::inverter(1.0), &[a]).unwrap();
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::One, ps(10.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        let vcd = sim.trace().to_vcd("t");
        assert!(vcd.contains("g.out"));
        assert!(vcd.contains("a"));
    }

    fn inverter_chain(len: usize) -> (Netlist, NetId) {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..len {
            prev = n
                .add_gate(format!("inv{i}"), StdCell::inverter(1.0), &[prev])
                .unwrap();
        }
        n.mark_output("q", prev);
        (n, a)
    }

    #[test]
    fn try_drive_reports_past_time_instead_of_panicking() {
        let (n, a) = inverter_chain(1);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.drive(a, Logic::One, ps(100.0)).unwrap();
        sim.run_until(Time::from_ns(1.0));
        let err = sim.try_drive(a, Logic::Zero, ps(10.0)).unwrap_err();
        assert!(matches!(err, NetlistError::DriveInPast { .. }), "{err}");
        // Forward drives still work after the rejected one.
        sim.try_drive(a, Logic::Zero, Time::from_ns(2.0)).unwrap();
    }

    #[test]
    fn stuck_at_pins_net_from_initialization_onward() {
        let (n, a) = inverter_chain(2);
        let mid = n.net_by_name("inv0.out").unwrap();
        let out = n.net_by_name("inv1.out").unwrap();
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.set_fault_plan(&FaultPlan::new().with(Fault::stuck_at("inv0.out", Logic::Zero)))
            .unwrap();
        sim.reset();
        // The stuck node is pinned in the settled initial state and the
        // second inverter sees it.
        assert_eq!(sim.value(mid), Logic::Zero);
        assert_eq!(sim.value(out), Logic::One);
        // Toggling the input cannot move the stuck node or anything past
        // it.
        sim.drive(a, Logic::Zero, ps(0.0)).unwrap();
        sim.drive(a, Logic::One, Time::from_ns(1.0)).unwrap();
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.value(mid), Logic::Zero);
        assert_eq!(sim.value(out), Logic::One);
    }

    #[test]
    fn empty_plan_is_identical_to_no_plan() {
        let (n, a) = inverter_chain(4);
        let run = |sim: &mut Simulator<'_>| {
            sim.reset();
            sim.drive(a, Logic::Zero, ps(0.0)).unwrap();
            sim.drive(a, Logic::One, Time::from_ns(1.0)).unwrap();
            sim.run_until(Time::from_ns(3.0));
            (
                (0..sim.netlist.net_count())
                    .map(|i| sim.value(NetId(i)))
                    .collect::<Vec<_>>(),
                *sim.stats(),
                sim.switching_energy_joules(),
            )
        };
        let mut healthy = Simulator::new(&n, v(1.0)).unwrap();
        let baseline = run(&mut healthy);
        let mut planned = Simulator::new(&n, v(1.0)).unwrap();
        planned.set_fault_plan(&FaultPlan::new()).unwrap();
        assert!(!planned.has_fault_plan(), "empty plan must not allocate");
        assert_eq!(run(&mut planned), baseline);
    }

    #[test]
    fn delay_scale_slows_only_the_faulted_gate() {
        let (n, _) = inverter_chain(2);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        let (r0, f0, w0) = sim.cached_gate_delays(GateId::from_index(0));
        let (r1, f1, w1) = sim.cached_gate_delays(GateId::from_index(1));
        sim.set_fault_plan(&FaultPlan::new().with(Fault::delay_scale("inv0", 2.0)))
            .unwrap();
        let (r0s, f0s, w0s) = sim.cached_gate_delays(GateId::from_index(0));
        assert!((r0s.picoseconds() - 2.0 * r0.picoseconds()).abs() < 1e-9);
        assert!((f0s.picoseconds() - 2.0 * f0.picoseconds()).abs() < 1e-9);
        assert!((w0s.picoseconds() - 2.0 * w0.picoseconds()).abs() < 1e-9);
        assert_eq!(sim.cached_gate_delays(GateId::from_index(1)), (r1, f1, w1));
        // Clearing the plan restores the healthy cache.
        sim.clear_fault_plan();
        assert_eq!(sim.cached_gate_delays(GateId::from_index(0)), (r0, f0, w0));
    }

    #[test]
    fn bit_upset_flips_ff_output_once() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let clk = n.add_input("clk");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.set_fault_plan(&FaultPlan::new().with(Fault::bit_upset("ff", Time::from_ns(5.0))))
            .unwrap();
        sim.reset();
        sim.drive(d, Logic::One, ps(0.0)).unwrap();
        sim.drive(clk, Logic::Zero, ps(0.0)).unwrap();
        sim.drive(clk, Logic::One, Time::from_ns(2.0)).unwrap();
        sim.run_until(Time::from_ns(4.0));
        assert_eq!(sim.value(q), Logic::One, "healthy capture first");
        sim.run_until(Time::from_ns(8.0));
        assert_eq!(sim.value(q), Logic::Zero, "SEU inverted the bit");
        // Re-arming via reset replays the same upset deterministically.
        sim.reset();
        sim.drive(d, Logic::One, ps(0.0)).unwrap();
        sim.drive(clk, Logic::Zero, ps(0.0)).unwrap();
        sim.drive(clk, Logic::One, Time::from_ns(2.0)).unwrap();
        sim.run_until(Time::from_ns(8.0));
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn supply_glitch_slows_gates_inside_window_only() {
        let (n, a) = inverter_chain(1);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        let healthy = sim.cached_gate_delays(GateId::from_index(0)).0;
        sim.set_fault_plan(&FaultPlan::new().with(Fault::supply_glitch(
            "core",
            (Time::from_ns(1.0), Time::from_ns(3.0)),
            Voltage::from_v(-0.2),
        )))
        .unwrap();
        sim.reset();
        sim.drive(a, Logic::One, ps(0.0)).unwrap();
        sim.run_until(Time::from_ns(2.0));
        // Inside the window the rail droops to 0.8 V and the cached
        // delay is re-derived from the lower supply (the plain StdCell
        // model is only mildly supply-sensitive, so assert direction and
        // rail, not magnitude).
        assert!((sim.supply().volts() - 0.8).abs() < 1e-12);
        let inside = sim.cached_gate_delays(GateId::from_index(0)).0;
        assert!(
            inside.picoseconds() > healthy.picoseconds(),
            "glitch did not slow the gate: {inside:?} vs {healthy:?}"
        );
        sim.run_until(Time::from_ns(4.0));
        let after = sim.cached_gate_delays(GateId::from_index(0)).0;
        assert!((after.picoseconds() - healthy.picoseconds()).abs() < 1e-9);
        assert!((sim.supply().volts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_flips_are_seed_deterministic() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let clk = n.add_input("clk");
        let q = n.add_dff("ff", Dff::standard_90nm(), d, clk, Logic::Zero);
        n.mark_output("q", q);
        let captured = |seed: u64| {
            let mut sim = Simulator::new(&n, v(1.0)).unwrap();
            sim.set_fault_plan(&FaultPlan::new().with(Fault::Transient {
                probability: 0.5,
                seed,
            }))
            .unwrap();
            sim.reset();
            sim.drive(d, Logic::One, ps(0.0)).unwrap();
            sim.drive_clock(clk, Time::from_ns(2.0), Time::from_ns(2.0), 16)
                .unwrap();
            let mut seen = Vec::new();
            for k in 0..16 {
                sim.run_until(Time::from_ns(2.0) * k as f64 + Time::from_ns(1.9));
                seen.push(sim.value(q));
            }
            seen
        };
        let a = captured(7);
        assert_eq!(a, captured(7), "same seed must replay the same flips");
        assert!(
            a.contains(&Logic::Zero),
            "p=0.5 over 16 captures of a constant 1 should flip at least once"
        );
    }

    #[test]
    fn budget_guard_trips_on_oscillating_fault() {
        // Three stuck-free inverters in a combinational loop are illegal,
        // so build the oscillator from a ring through a flip-flop-free
        // pair: input buffer + inverter feeding the input again is not
        // constructible either — instead drive a long toggle burst
        // through a chain and give it a budget far below the event count.
        let (n, a) = inverter_chain(8);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        sim.set_event_budget(Some(20));
        for k in 0..32 {
            sim.drive(
                a,
                if k % 2 == 0 { Logic::One } else { Logic::Zero },
                ps(500.0) * k as f64,
            )
            .unwrap();
        }
        let err = sim.try_run_until(Time::from_ns(40.0)).unwrap_err();
        assert!(
            matches!(err, NetlistError::BudgetExceeded { budget: 20, .. }),
            "{err}"
        );
        // The unguarded path still works after the trip.
        sim.set_event_budget(None);
        assert!(sim.try_run_until(Time::from_ns(40.0)).is_ok());
        // And a generous budget never fires.
        let mut ok = Simulator::new(&n, v(1.0)).unwrap();
        ok.set_event_budget(Some(1_000_000));
        ok.drive(a, Logic::One, ps(0.0)).unwrap();
        assert!(ok.try_run_to_quiescence(10_000).is_ok());
    }

    #[test]
    fn cancelled_supervisor_interrupts_try_run() {
        use psnt_sup::{CancelToken, RunBudget, Supervisor};
        let (n, a) = inverter_chain(8);
        let mut sim = Simulator::new(&n, v(1.0)).unwrap();
        // Enough stimulus to cross the supervision stride.
        for k in 0..600 {
            sim.drive(
                a,
                if k % 2 == 0 { Logic::One } else { Logic::Zero },
                ps(500.0) * k as f64,
            )
            .unwrap();
        }
        let token = CancelToken::new();
        token.cancel();
        sim.set_supervisor(Some(Supervisor::new(token, RunBudget::unlimited())));
        let err = sim.try_run_until(Time::from_ns(400.0)).unwrap_err();
        assert!(matches!(err, NetlistError::Interrupted(_)), "{err}");
        let interrupted_at = sim.now();
        assert!(
            interrupted_at < Time::from_ns(400.0),
            "trip must stop the run early"
        );
        // The simulator stays usable: clear the supervisor and finish.
        sim.set_supervisor(None);
        assert!(sim.try_run_until(Time::from_ns(400.0)).is_ok());
        assert_eq!(sim.now(), Time::from_ns(400.0));
    }

    #[test]
    fn detached_supervisor_is_event_identical() {
        use psnt_sup::Supervisor;
        let (n, a) = inverter_chain(8);
        let run = |supervised: bool| {
            let mut sim = Simulator::new(&n, v(1.0)).unwrap();
            if supervised {
                sim.set_supervisor(Some(Supervisor::detached()));
            }
            for k in 0..64 {
                sim.drive(
                    a,
                    if k % 2 == 0 { Logic::One } else { Logic::Zero },
                    ps(500.0) * k as f64,
                )
                .unwrap();
            }
            let applied = sim.try_run_until(Time::from_ns(40.0)).unwrap();
            (applied, sim.stats().events)
        };
        assert_eq!(run(false), run(true), "detached supervision is free");
    }
}
