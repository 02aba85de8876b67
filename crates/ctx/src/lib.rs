//! Unified execution context for the whole workspace.
//!
//! PRs 1–3 grew the system along three orthogonal axes — telemetry
//! (`psnt-obs`), deterministic parallelism (`psnt-engine`) and
//! reusable-simulator performance — and each axis was wired in as a
//! new suffixed method variant (`run_observed`, `run_on`,
//! `measure_with`, …). [`RunCtx`] collapses that cross-product: one
//! context bundles
//!
//! * the parallel [`Engine`] handle (cheap to clone, `jobs = 1` is the
//!   inline serial path),
//! * an optional exclusive borrow of an [`Observer`] for telemetry,
//! * a pool of reusable [`Simulator`]s keyed by netlist identity, so
//!   repeated gate-level measures reuse allocations and the delay
//!   cache via `reset()` instead of rebuilding the kernel, and
//! * the SplitMix64 seed policy used to derive per-trial RNG streams.
//!
//! Every layer takes `&mut RunCtx` as its first argument, and the old
//! suffixed variants are gone: a caller that wants the old default
//! builds [`RunCtx::serial`] (serial engine, no observer).
//!
//! # Determinism contract
//!
//! A `RunCtx` never changes observable results: results are
//! bit-identical at any worker count and with or without an observer,
//! and the telemetry stream is record-for-record identical at any
//! worker count once wall times and the pool's own worker and claim
//! counts are masked. The workspace's
//! `parallel`, `trace_tree` and `stepper_equiv` suites pin this.
//!
//! ```
//! use psnt_ctx::RunCtx;
//! use psnt_engine::Engine;
//!
//! // A default context: serial engine, no observer, seed 0.
//! let mut ctx = RunCtx::serial();
//! assert_eq!(ctx.engine().jobs(), 1);
//! assert!(ctx.observer().is_none());
//!
//! // A parallel context seeded for a Monte-Carlo sweep.
//! let mut ctx = RunCtx::new(Engine::new(4)).with_seed(2024);
//! assert_eq!(ctx.seed(), 2024);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::marker::PhantomData;

use psnt_engine::Engine;
use psnt_fault::FaultPlan;
use psnt_netlist::{BatchSimulator, Netlist, Simulator};
use psnt_obs::Observer;
use psnt_sup::Supervisor;

/// A pool of reusable simulators keyed by netlist identity: scalar
/// [`Simulator`]s for gate-level measures ([`RunCtx::pool`]) and
/// 64-lane [`BatchSimulator`]s for batched fault-campaign sweeps
/// ([`RunCtx::batch_pool`]).
///
/// The pool exists so ctx-threaded gate-level measures get the PR 3
/// `make_sim` + `reset()` fast path without the caller managing a
/// simulator by hand: the first measure against a netlist pays the
/// construction cost (topology flattening, delay cache), every later
/// measure against the *same* netlist reuses it.
///
/// # Keying and soundness
///
/// Entries are keyed by the netlist's address. That is sound because
/// every pooled simulator is built for a `&'env Netlist` borrow, so
/// the netlist cannot move or drop while the pool is alive — an
/// address therefore names one netlist for the pool's whole lifetime.
#[derive(Debug)]
pub struct SimPool<'env, S> {
    sims: Vec<(usize, S)>,
    netlists: PhantomData<&'env Netlist>,
}

impl<S> Default for SimPool<'_, S> {
    fn default() -> Self {
        SimPool {
            sims: Vec::new(),
            netlists: PhantomData,
        }
    }
}

impl<'env, S> SimPool<'env, S> {
    /// Creates an empty pool.
    pub fn new() -> SimPool<'env, S> {
        SimPool::default()
    }

    /// Number of distinct netlists with a pooled simulator.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// True when no simulator has been pooled yet.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Returns the pooled simulator for `netlist`, building it with
    /// `build` on first use. The caller is expected to `reset()` the
    /// simulator before driving it (exactly as with a hand-managed
    /// `make_sim` simulator).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error when the first construction
    /// fails; nothing is pooled in that case.
    pub fn get_or_insert_with<E>(
        &mut self,
        netlist: &'env Netlist,
        build: impl FnOnce() -> Result<S, E>,
    ) -> Result<&mut S, E> {
        let key = netlist as *const Netlist as usize;
        if let Some(ix) = self.sims.iter().position(|(k, _)| *k == key) {
            return Ok(&mut self.sims[ix].1);
        }
        let sim = build()?;
        self.sims.push((key, sim));
        Ok(&mut self.sims.last_mut().expect("just pushed").1)
    }
}

/// The execution context threaded through every layer of the
/// workspace: engine + observer + simulator pool + seed policy.
///
/// See the [crate docs](crate) for the design rationale and the
/// determinism contract. `'env` is the lifetime of the environment the
/// context may borrow from: the observed [`Observer`] and any netlist
/// whose simulator is pooled.
#[derive(Debug)]
pub struct RunCtx<'env> {
    engine: Engine,
    observer: Option<&'env mut Observer>,
    seed: u64,
    pool: SimPool<'env, Simulator<'env>>,
    batch_pool: SimPool<'env, BatchSimulator<'env>>,
    fault_plan: Option<FaultPlan>,
    supervisor: Supervisor,
}

impl Default for RunCtx<'_> {
    fn default() -> Self {
        RunCtx::serial()
    }
}

impl<'env> RunCtx<'env> {
    /// The default context: serial engine, no observer, seed 0, empty
    /// pool.
    pub fn serial() -> RunCtx<'env> {
        RunCtx::new(Engine::serial())
    }

    /// A context over the given engine; no observer, seed 0.
    pub fn new(engine: Engine) -> RunCtx<'env> {
        RunCtx {
            engine,
            observer: None,
            seed: 0,
            pool: SimPool::new(),
            batch_pool: SimPool::new(),
            fault_plan: None,
            supervisor: Supervisor::detached(),
        }
    }

    /// A context whose worker count comes from the `PSNT_JOBS`
    /// environment variable (see [`psnt_engine::JOBS_ENV`]).
    pub fn from_env() -> RunCtx<'env> {
        RunCtx::new(Engine::from_env())
    }

    /// Attaches an observer (builder style).
    #[must_use]
    pub fn with_observer(mut self, observer: &'env mut Observer) -> RunCtx<'env> {
        self.observer = Some(observer);
        self
    }

    /// Attaches an optional observer (builder style), for callers that
    /// hold one only when telemetry was requested (as `repro` does).
    #[must_use]
    pub fn with_observer_opt(mut self, observer: Option<&'env mut Observer>) -> RunCtx<'env> {
        self.observer = observer;
        self
    }

    /// Sets the base seed for seed-split RNG streams (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> RunCtx<'env> {
        self.seed = seed;
        self
    }

    /// Attaches a fault plan (builder style). Gate-level measures run
    /// through this context install the plan on their pooled simulator;
    /// an **empty** plan is normalised to "no plan" so it cannot
    /// perturb the fault-free fast path (the kernel treats the two
    /// identically — pinned by the `fault_equiv` proptests).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> RunCtx<'env> {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Attaches a supervisor (builder style). Every context starts
    /// with a detached supervisor ([`Supervisor::detached`]) that
    /// never trips, so supervised entry points are bit-identical to
    /// the unsupervised path unless a caller installs a real token or
    /// budget.
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> RunCtx<'env> {
        self.supervisor = supervisor;
        self
    }

    /// Replaces the supervisor in place — the sweep-friendly twin of
    /// [`RunCtx::with_supervisor`]: a service frontend re-arms the same
    /// warm context with a fresh token + budget per request.
    pub fn set_supervisor(&mut self, supervisor: Supervisor) {
        self.supervisor = supervisor;
    }

    /// The supervisor every supervised loop checks. Clones are cheap
    /// and share the token, event counter and forced-trip flag.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The engine handle. Cheap to clone when a batch needs an owned
    /// copy alongside the observer borrow.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The base seed of the SplitMix64 seed policy.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the base seed in place — the sweep-friendly twin of
    /// [`RunCtx::with_seed`]: an experiment driver comparing policy
    /// arms re-arms the same context (keeping its warm simulator
    /// pools) at a fixed seed before each sub-run, so every arm sees
    /// identical traffic.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Reborrows the observer, if one is attached. Call sites use this
    /// at each telemetry point; each call hands out a fresh short
    /// reborrow, so a single context serves many sequential stages.
    pub fn observer(&mut self) -> Option<&mut Observer> {
        self.observer.as_deref_mut()
    }

    /// Replaces the fault plan in place — the sweep-friendly twin of
    /// [`RunCtx::with_fault_plan`], letting a fault-coverage loop
    /// reinstall one plan after another on the same context (and its
    /// pooled simulators). Empty plans normalise to `None`.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.filter(|p| !p.is_empty());
    }

    /// The fault plan attached to this context, if any. `None` means a
    /// healthy run; callers driving a [`Simulator`] through the pool
    /// should mirror this into
    /// [`Simulator::set_fault_plan`] / [`Simulator::clear_fault_plan`].
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The reusable-simulator pool.
    pub fn pool(&mut self) -> &mut SimPool<'env, Simulator<'env>> {
        &mut self.pool
    }

    /// The reusable **batch**-simulator pool — 64-lane kernels for
    /// fault-campaign sweeps, pooled with the same netlist-address
    /// keying as [`RunCtx::pool`].
    pub fn batch_pool(&mut self) -> &mut SimPool<'env, BatchSimulator<'env>> {
        &mut self.batch_pool
    }

    /// Splits the context into observer, pool and fault-plan parts —
    /// for kernels that run a pooled simulator *and* fold its
    /// profiling counters into the observer afterwards, which needs
    /// both borrows live at once.
    pub fn obs_pool_parts(
        &mut self,
    ) -> (
        Option<&mut Observer>,
        &mut SimPool<'env, Simulator<'env>>,
        Option<&FaultPlan>,
    ) {
        (
            self.observer.as_deref_mut(),
            &mut self.pool,
            self.fault_plan.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_serial_unobserved_seed_zero() {
        let mut ctx = RunCtx::default();
        assert_eq!(ctx.engine().jobs(), 1);
        assert!(ctx.observer().is_none());
        assert_eq!(ctx.seed(), 0);
        assert!(ctx.pool().is_empty());
    }

    #[test]
    fn builders_compose() {
        let mut obs = Observer::ring(8);
        let mut ctx = RunCtx::new(Engine::new(3))
            .with_seed(7)
            .with_observer(&mut obs);
        assert_eq!(ctx.engine().jobs(), 3);
        assert_eq!(ctx.seed(), 7);
        // Two sequential reborrows from the same context.
        ctx.observer().unwrap().metrics.counter_add("ctx.test", 1);
        ctx.observer().unwrap().metrics.counter_add("ctx.test", 1);
        drop(ctx);
        assert_eq!(obs.metrics.counter_value("ctx.test"), 2);
    }

    #[test]
    fn empty_fault_plan_is_normalised_to_none() {
        use psnt_cells::logic::Logic;
        use psnt_fault::{Fault, FaultPlan};
        let ctx = RunCtx::serial().with_fault_plan(FaultPlan::new());
        assert!(ctx.fault_plan().is_none(), "empty plan must vanish");
        let ctx = RunCtx::serial()
            .with_fault_plan(FaultPlan::new().with(Fault::stuck_at("n", Logic::Zero)));
        assert_eq!(ctx.fault_plan().map(FaultPlan::len), Some(1));
    }

    #[test]
    fn set_seed_matches_the_builder() {
        let mut ctx = RunCtx::serial().with_seed(99);
        ctx.set_seed(7);
        assert_eq!(ctx.seed(), 7);
    }

    #[test]
    fn default_supervisor_is_detached_and_replaceable() {
        use psnt_sup::{CancelToken, Interrupt, RunBudget, Supervisor};
        let ctx = RunCtx::serial();
        assert!(ctx.supervisor().check().is_ok(), "detached never trips");
        let token = CancelToken::new();
        let mut ctx = RunCtx::serial()
            .with_supervisor(Supervisor::new(token.clone(), RunBudget::unlimited()));
        token.cancel();
        assert_eq!(ctx.supervisor().check(), Err(Interrupt::Cancelled));
        // In-place re-arm restores a clean supervisor on the same ctx.
        ctx.set_supervisor(Supervisor::detached());
        assert!(ctx.supervisor().check().is_ok());
    }

    #[test]
    fn pool_reuses_one_simulator_per_netlist() {
        use psnt_cells::units::Voltage;
        use psnt_netlist::NetlistError;
        let mut a = Netlist::new("a");
        let n = a.add_input("in");
        a.mark_output("out", n);
        let b = a.clone();

        let mut ctx = RunCtx::serial();
        let pool = ctx.pool();
        let first = pool
            .get_or_insert_with(&a, || Simulator::new(&a, Voltage::from_v(1.0)))
            .unwrap() as *mut _;
        let again = pool
            .get_or_insert_with(&a, || -> Result<Simulator<'_>, NetlistError> {
                panic!("builder must not run twice for the same netlist")
            })
            .unwrap() as *mut _;
        assert_eq!(first, again, "same netlist must reuse the pooled sim");
        pool.get_or_insert_with(&b, || Simulator::new(&b, Voltage::from_v(1.0)))
            .unwrap();
        assert_eq!(pool.len(), 2);
    }
}
