//! One reproduction function per paper figure/table.
//!
//! Each function computes the artifact's data and renders it in the
//! paper's own terms; the `repro` binary prints them and the Criterion
//! benches time them. `EXPERIMENTS.md` records the printed values
//! against the published ones.

use psnt_analysis::report::{fmt_ps, fmt_v, Table};
use psnt_cells::process::{ProcessCorner, Pvt};
use psnt_cells::units::{Capacitance, Current, Resistance, Temperature, Time, Voltage};
use psnt_core::baseline::{
    ErrorProbabilityMonitor, RazorOutcome, RazorStage, RingOscillatorSensor,
};
use psnt_core::calibration::{array_characteristic, sensitivity_characteristic, trim_for_corner};
use psnt_core::control::{build_control_netlist, Controller, CtrlInputs, CtrlNetlistConfig};
use psnt_core::element::{RailMode, SenseElement};
use psnt_core::pulsegen::{DelayCode, PulseGenerator};
use psnt_core::system::{SensorConfig, SensorSystem};
use psnt_core::thermometer::ThermometerArray;
use psnt_ctx::RunCtx;
use psnt_netlist::sta::{analyze, StaConfig};
use psnt_pdn::sources::{supply_step, SupplyNoiseBuilder};
use psnt_pdn::waveform::Waveform;
use psnt_scan::campaign::Campaign;
use psnt_scan::floorplan::{Floorplan, Placement};
use psnt_scan::sampler::EquivalentTimeSampler;

/// One experiment registry row: stable id, one-line description, and
/// the runner. Every runner takes the session's [`RunCtx`]; pure
/// experiments simply ignore it.
pub type Experiment = (&'static str, &'static str, fn(&mut RunCtx<'_>) -> String);

/// The experiment registry, in paper order: every figure/table
/// reproduction and every ablation as `(id, description, runner)`.
/// `repro --list` prints the ids and descriptions verbatim.
pub fn registry() -> Vec<Experiment> {
    use crate::ablations;
    vec![
        (
            "fig2",
            "DS delay growth and OUT sampling across four VDD-n cases",
            (|_| fig2()) as fn(&mut RunCtx<'_>) -> String,
        ),
        (
            "fig3",
            "two PREPARE/SENSE sequences at 1.00 V then 0.95 V",
            |_| fig3(),
        ),
        (
            "fig4",
            "failure-threshold voltage vs load capacitance",
            |_| fig4(),
        ),
        (
            "fig5",
            "7-bit array characteristic for three delay codes",
            fig5,
        ),
        (
            "tab1",
            "pulse-generator delay-code table with matched-MUX check",
            |_| tab1(),
        ),
        (
            "fig6",
            "assembled system measuring both rails under composite noise",
            fig6,
        ),
        (
            "fig8",
            "control FSM walk and gate-level critical path",
            |_| fig8(),
        ),
        (
            "fig9",
            "full two-measure system run (1.0 V then 0.9 V)",
            fig9,
        ),
        ("gnd", "LOW-SENSE (ground-bounce) array characteristic", gnd),
        (
            "pv",
            "per-corner delay-code trim across process corners",
            pv,
        ),
        (
            "baseline",
            "thermometer vs related-work sensors on droop/bounce",
            |_| baseline(),
        ),
        (
            "scan",
            "multi-site PSN scan over a loaded grid + equivalent-time capture",
            scan,
        ),
        (
            "gate-level",
            "event-driven netlist twin vs behavioural array + STA droop",
            |_| gate_level(),
        ),
        (
            "overhead",
            "area/power cost of the sensor vs representative CUTs",
            |_| overhead(),
        ),
        (
            "delay-model",
            "analytic alpha-power model vs NLDM table lookup",
            |_| ablations::delay_model(),
        ),
        (
            "ladder",
            "paper capacitor ladder vs uniform ladder linearity",
            |_| ablations::ladder(),
        ),
        (
            "encoding",
            "encoder bubble policy under stochastic metastability",
            |_| ablations::encoding(),
        ),
        (
            "sampling",
            "synchronous vs equivalent-time capture of a resonance",
            |_| ablations::sampling(),
        ),
        (
            "mismatch",
            "thermometer yield under local-variation Monte-Carlo",
            ablations::mismatch,
        ),
        (
            "impedance",
            "|Z(f)| profile vs time-domain worst rail droop",
            ablations::impedance,
        ),
        (
            "temperature",
            "characteristic drift with junction temperature",
            ablations::temperature,
        ),
        (
            "code-density",
            "code widths from a voltage ramp vs thresholds",
            |_| ablations::code_density(),
        ),
        (
            "oversampling",
            "sub-LSB decoding via metastability dithering",
            |_| ablations::oversampling(),
        ),
        (
            "fault-coverage",
            "1,016-plan fault universe over the gate-level array, 64 plans/word",
            fault_coverage,
        ),
        (
            "noc-campaign",
            "chip-scale NoC workload: 1,600-node sparse PDN chain + streamed 256-site campaign",
            noc_campaign,
        ),
        (
            "droop-mitigation",
            "closed-loop droop mitigation: four policies vs open loop + 0-8-cycle code-latency sweep",
            droop_mitigation,
        ),
    ]
}

fn code011() -> DelayCode {
    DelayCode::new(3).expect("static code")
}

fn skew(code: DelayCode) -> Time {
    PulseGenerator::paper_table().skew(code, &Pvt::typical())
}

/// Fig. 2 — DS delay growth and OUT sampling across four linearly spaced
/// VDD-n cases.
pub fn fig2() -> String {
    // C = 2.03 pF puts the element threshold at ≈ 0.950 V, so cases 1–3
    // sample correctly (with visibly growing OUT delay) and case 4 fails,
    // exactly as the figure shows.
    let elem = SenseElement::paper(Capacitance::from_pf(2.03), RailMode::Supply);
    let pvt = Pvt::typical();
    let sk = skew(code011());
    let mut t = Table::new(
        "Fig. 2 — noise sensor detail (C = 2.03 pF, delay code 011)",
        &["case", "VDD-n", "DS delay", "OUT delay", "OUT sample"],
    );
    for (i, mv) in [1000.0, 980.0, 960.0, 940.0].into_iter().enumerate() {
        let r = elem.measure(Voltage::from_mv(mv), sk, &pvt);
        t.row([
            format!("{}", i + 1),
            fmt_v(mv / 1000.0),
            fmt_ps(r.ds_delay.picoseconds()),
            fmt_ps(r.out_delay.picoseconds()),
            if r.passed {
                "correct (1)".into()
            } else {
                "WRONG (0)".to_string()
            },
        ]);
    }
    t.render()
}

/// Fig. 3 — two PREPARE/SENSE sequences: nominal 1.00 V then 0.95 V.
pub fn fig3() -> String {
    // C = 2.1 pF puts the threshold at ≈ 0.983 V: the nominal 1.00 V
    // measure samples correctly, the 0.95 V one violates setup — the
    // figure's two outcomes.
    let elem = SenseElement::paper(Capacitance::from_pf(2.1), RailMode::Supply);
    let pvt = Pvt::typical();
    let sk = skew(code011());
    let mut t = Table::new(
        "Fig. 3 — PREPARE/SENSE sequence (C = 2.1 pF, delay code 011)",
        &["measure", "phase", "P", "DS", "OUT"],
    );
    for (i, v) in [1.00, 0.95].into_iter().enumerate() {
        t.row([
            format!("{}", i + 1),
            "PREPARE".into(),
            "1".into(),
            "forced low".into(),
            "0".into(),
        ]);
        let r = elem.measure(Voltage::from_v(v), sk, &pvt);
        t.row([
            format!("{}", i + 1),
            format!("SENSE @ {}", fmt_v(v)),
            "0".into(),
            format!("rises after {}", fmt_ps(r.ds_delay.picoseconds())),
            if r.passed {
                "1 (set-up met)".into()
            } else {
                "0 (set-up violated)".to_string()
            },
        ]);
    }
    t.render()
}

/// Fig. 4 — failure-threshold voltage vs load capacitance.
pub fn fig4() -> String {
    let sk = skew(code011());
    let loads: Vec<Capacitance> = (2..=16)
        .map(|i| Capacitance::from_pf(i as f64 * 0.25))
        .collect();
    let points = sensitivity_characteristic(RailMode::Supply, sk, &Pvt::typical(), loads)
        .expect("thresholds in range");
    let mut t = Table::new(
        "Fig. 4 — sensor sensitivity: VDD threshold vs capacitance at DS (code 011)",
        &["C [pF]", "threshold"],
    );
    for p in &points {
        t.row([
            format!("{:.2}", p.load.picofarads()),
            fmt_v(p.threshold.volts()),
        ]);
    }
    let mut s = t.render();
    let at_2pf = points
        .iter()
        .find(|p| (p.load.picofarads() - 2.0).abs() < 1e-9)
        .expect("2 pF in sweep");
    s.push_str(&format!(
        "paper @ 2 pF: 0.9360 V | measured: {}\n",
        fmt_v(at_2pf.threshold.volts())
    ));
    s
}

/// Fig. 5 — 7-bit array characteristic for three delay codes.
pub fn fig5(ctx: &mut RunCtx<'_>) -> String {
    let array = ThermometerArray::paper(RailMode::Supply);
    let pg = PulseGenerator::paper_table();
    let pvt = Pvt::typical();
    let mut t = Table::new(
        "Fig. 5 — multibit characteristic (per-element thresholds and dynamic range)",
        &["delay code", "T1..T7 [V]", "range"],
    );
    for code_val in [1u8, 2, 3] {
        let code = DelayCode::new(code_val).expect("static");
        let ch = array_characteristic(ctx, &array, &pg, code, &pvt).expect("in range");
        let ths = ch
            .thresholds
            .iter()
            .map(|v| format!("{:.3}", v.volts()))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            code.to_string(),
            ths,
            format!(
                "{} – {}",
                fmt_v(ch.range.0.volts()),
                fmt_v(ch.range.1.volts())
            ),
        ]);
    }
    let mut s = t.render();
    s.push_str("paper: code 011 range 0.827–1.053 V; code 010 range 0.951–1.237 V\n");
    s.push_str("paper: code 011, 0011111 ⇔ 0.992–1.021 V; 0000011 ⇔ 0.896–0.929 V\n");
    s
}

/// Table 1 — the delay-code table of the pulse generator (with Fig. 7's
/// matched-MUX skew check).
pub fn tab1() -> String {
    let pg = PulseGenerator::paper_table();
    let pvt = Pvt::typical();
    let mut s = String::from("== Table 1 — pulse generator delay codes ==\n");
    s.push_str(&pg.table_report());
    s.push('\n');
    let t = pg.emit(code011(), &pvt);
    s.push_str(&format!(
        "matched-MUX check (Fig. 7): P→CP skew for 011 = {} (insertion {} + tap {})\n",
        fmt_ps(t.skew().picoseconds()),
        fmt_ps(pg.insertion_at(&pvt).picoseconds()),
        fmt_ps(pg.cp_delay(code011()).picoseconds()),
    ));
    s
}

/// Fig. 6 — the assembled system measuring both rails under composite
/// noise. Telemetry, if any, flows through the context's observer.
pub fn fig6(ctx: &mut RunCtx<'_>) -> String {
    let mut system = SensorSystem::new(SensorConfig::default()).expect("default config");
    let vdd = SupplyNoiseBuilder::new(Voltage::from_v(0.98))
        .span(Time::ZERO, Time::from_us(2.0))
        .resolution(Time::from_ps(250.0))
        .resonance(
            psnt_cells::units::Frequency::from_mhz(50.0),
            Voltage::from_mv(30.0),
            0.0,
        )
        .build()
        .expect("valid noise");
    let gnd = psnt_pdn::sources::ground_bounce(
        Time::from_us(2.0),
        psnt_cells::units::Frequency::from_mhz(50.0),
        Voltage::from_mv(25.0),
        7,
    )
    .expect("valid bounce");
    let measures = system
        .run(ctx, &vdd, &gnd, Time::ZERO, 10)
        .expect("measures");
    let mut t = Table::new(
        "Fig. 6 — system measuring VDD-n (HS) and GND-n (LS) independently",
        &["t [ns]", "HS code", "VDD-n est.", "LS code", "GND-n est."],
    );
    for m in &measures {
        t.row([
            format!("{:.1}", m.at.nanoseconds()),
            m.hs_code.to_string(),
            m.hs_interval
                .midpoint()
                .map_or("saturated".into(), |v| fmt_v(v.volts())),
            m.ls_code.to_string(),
            m.ls_interval
                .midpoint()
                .map_or("saturated".into(), |v| fmt_v(v.volts())),
        ]);
    }
    t.render()
}

/// Fig. 8 — the control FSM walk and the gate-level critical path (the
/// paper's 1.22 ns claim).
pub fn fig8() -> String {
    let mut ctrl = Controller::new(None);
    let mut t = Table::new(
        "Fig. 8 — control FSM sequence",
        &["cycle", "state", "P", "CP", "capture"],
    );
    for cycle in 0..7 {
        let out = ctrl.step(CtrlInputs {
            enable: true,
            start: true,
        });
        t.row([
            cycle.to_string(),
            format!("{:?}", ctrl.state()),
            out.p.to_string(),
            out.cp.to_string(),
            out.capture.to_string(),
        ]);
    }
    let mut s = t.render();
    let netlist = build_control_netlist(&CtrlNetlistConfig::default());
    let report = analyze(&netlist, &StaConfig::default()).expect("valid netlist");
    s.push_str(&format!(
        "gate-level CNTR ({}): critical path {} (paper: 1.22 ns), max clock {:.0} MHz\n",
        netlist.summary(),
        fmt_ps(report.critical_delay().picoseconds()),
        report.max_frequency().hertz() / 1e6,
    ));
    s
}

/// Fig. 9 — the full two-measure system run (1.0 V then 0.9 V).
/// Telemetry, if any, flows through the context's observer.
pub fn fig9(ctx: &mut RunCtx<'_>) -> String {
    let mut system = SensorSystem::new(SensorConfig::default()).expect("default config");
    let vdd = supply_step(
        Voltage::from_v(1.0),
        Voltage::from_v(0.9),
        Time::from_ns(15.0),
        Time::from_us(1.0),
    )
    .expect("valid step");
    let gnd = Waveform::constant(0.0);
    let measures = system
        .run(ctx, &vdd, &gnd, Time::ZERO, 2)
        .expect("measures");
    let mut t = Table::new(
        "Fig. 9 — two measures, delay code 011",
        &["phase", "t [ns]", "sensor output", "decoded VDD-n"],
    );
    t.row([
        "PREPARE".to_string(),
        "-".into(),
        system.hs_prepare_code().to_string(),
        "(forced)".into(),
    ]);
    for m in &measures {
        let interval = match (m.hs_interval.lower, m.hs_interval.upper) {
            (Some(lo), Some(hi)) => format!("{} – {}", fmt_v(lo.volts()), fmt_v(hi.volts())),
            _ => "saturated".into(),
        };
        t.row([
            "SENSE".to_string(),
            format!("{:.2}", m.at.nanoseconds()),
            m.hs_code.to_string(),
            interval,
        ]);
    }
    let mut s = t.render();
    s.push_str("paper: 0011111 ⇔ 0.992–1.021 V, then 0000011 ⇔ 0.896–0.929 V\n");
    s
}

/// XP-GND — the LOW-SENSE (ground) characteristic the paper generated
/// "but not reported for sake of brevity".
pub fn gnd(ctx: &mut RunCtx<'_>) -> String {
    let array = ThermometerArray::paper(RailMode::Ground);
    let pg = PulseGenerator::paper_table();
    let pvt = Pvt::typical();
    let mut t = Table::new(
        "XP-GND — LOW-SENSE array: ground-bounce thresholds per delay code",
        &["delay code", "G1..G7 [mV bounce]", "measurable bounce"],
    );
    for code_val in [3u8, 4, 5] {
        let code = DelayCode::new(code_val).expect("static");
        let ch = array_characteristic(ctx, &array, &pg, code, &pvt).expect("in range");
        let ths = ch
            .thresholds
            .iter()
            .map(|v| format!("{:.0}", v.millivolts()))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            code.to_string(),
            ths,
            format!(
                "{:.0} – {:.0} mV",
                ch.range.0.millivolts().max(0.0),
                ch.range.1.millivolts()
            ),
        ]);
    }
    t.render()
}

/// XP-PV — process-variation trim: per-corner delay-code choice. The
/// per-corner trims run on the context's engine; the report is
/// bit-identical at any worker count.
pub fn pv(ctx: &mut RunCtx<'_>) -> String {
    let array = ThermometerArray::paper(RailMode::Supply);
    let pg = PulseGenerator::paper_table();
    let reference = Pvt::typical();
    let mut t = Table::new(
        "XP-PV — delay-code trim across process corners (reference: TT, code 011)",
        &[
            "corner",
            "untrimmed midpoint error",
            "trimmed code",
            "residual error",
        ],
    );
    for corner in ProcessCorner::ALL {
        let pvt = Pvt::new(
            corner,
            Voltage::from_v(1.0),
            Temperature::from_celsius(25.0),
        );
        let trim =
            trim_for_corner(ctx, &array, &pg, code011(), &reference, &pvt).expect("in range");
        t.row([
            corner.to_string(),
            format!("{:.1} mV", trim.untrimmed_residual.millivolts()),
            trim.code.to_string(),
            format!("{:.1} mV", trim.residual.millivolts()),
        ]);
    }
    t.render()
}

/// XP-BASE — thermometer vs the related-work baselines on the
/// droop-vs-bounce discrimination task.
pub fn baseline() -> String {
    let pvt = Pvt::typical();
    let system = SensorSystem::new(SensorConfig::default()).expect("default config");
    let ro = RingOscillatorSensor::paper_31_stage();
    let razor = RazorStage::typical_pipeline();
    let monitor = ErrorProbabilityMonitor::typical();
    let window = Time::from_us(1.0);
    let period = Time::from_ns(2.0);

    let scenarios: [(&str, f64, f64); 3] = [
        ("quiet", 1.00, 0.0),
        ("60 mV VDD droop", 0.94, 0.0),
        ("60 mV GND bounce", 1.00, 0.06),
    ];
    let mut t = Table::new(
        "XP-BASE — what each sensor reports (droop vs bounce discrimination)",
        &[
            "scenario",
            "thermometer HS/LS",
            "RO count",
            "Razor",
            "err-rate",
        ],
    );
    for (name, v, g) in scenarios {
        let vdd = Waveform::constant(v);
        let gnd = Waveform::constant(g);
        let m = system
            .measure_at(&vdd, &gnd, Time::from_ns(100.0))
            .expect("in range");
        let count = ro.count(&vdd, &gnd, Time::ZERO, window, &pvt);
        let rz = match razor.evaluate(Voltage::from_v(v - g), true, period) {
            RazorOutcome::NoError => "no error",
            RazorOutcome::Detected => "error detected",
            RazorOutcome::Missed => "SILENT CORRUPTION",
            RazorOutcome::NotExercised => "blind",
        };
        let rate = monitor.expected_rate(&[Voltage::from_v(v - g)]);
        t.row([
            name.to_string(),
            format!("{}/{}", m.hs_code, m.ls_code),
            count.to_string(),
            rz.to_string(),
            format!("{rate:.3}"),
        ]);
    }
    let mut s = t.render();
    s.push_str(
        "note: the RO count is identical for droop and bounce (paper's critique of ref. [7]);\n\
         the thermometer's HS/LS pair separates them.\n",
    );
    s
}

/// The XP-SCAN campaign workload: the 4×4 corner-fed grid with the
/// four centre tiles pulsing, every tile instrumented. Shared by the
/// `scan` figure and the `xp_parallel_scaling` bench so both time the
/// same campaign.
pub fn scan_campaign() -> (Campaign, Vec<Waveform>) {
    let grid = psnt_pdn::grid::PowerGrid::corner_fed(
        4,
        Voltage::from_v(1.05),
        psnt_cells::units::Resistance::from_milliohms(60.0),
        psnt_cells::units::Resistance::from_milliohms(20.0),
    )
    .expect("valid grid");
    let fp = Floorplan::new(grid, Placement::EveryTile).expect("valid placement");
    let campaign = Campaign::new(fp, SensorConfig::default()).expect("valid config");
    let mut loads = vec![Waveform::constant(0.03); 16];
    for hot in [5usize, 6, 9, 10] {
        loads[hot] = Waveform::from_points(vec![
            (Time::ZERO, 0.1),
            (Time::from_ns(100.0), 0.5),
            (Time::from_ns(200.0), 0.25),
        ])
        .expect("valid load");
    }
    (campaign, loads)
}

/// XP-SCAN — the PSN scan chain over a loaded power grid, plus an
/// equivalent-time capture of a resonance. The site sweep runs on the
/// context's engine and telemetry flows through its observer; the
/// rendered report is bit-identical at any worker count.
pub fn scan(ctx: &mut RunCtx<'_>) -> String {
    // Spatial noise map. With no fault plan in the context every site
    // measures; with one, the campaign completes with a partial map
    // (degraded sites called out below).
    let (campaign, loads) = scan_campaign();
    let resilient = campaign
        .run_resilient(
            ctx,
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(25.0),
            8,
            psnt_engine::RetryPolicy::none(),
        )
        .expect("campaign");
    let result = &resilient.result;
    let mut t = Table::new(
        "XP-SCAN — spatial noise map (4×4 grid, centre loaded)",
        &[
            "tile",
            "site",
            "worst level",
            "mean level",
            "worst VDD est.",
        ],
    );
    for s in &result.sites {
        t.row([
            s.tile.to_string(),
            s.name.clone(),
            s.worst_level().to_string(),
            format!("{:.2}", s.mean_level()),
            s.worst_voltage()
                .map_or("saturated".into(), |v| fmt_v(v.volts())),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "scan chain: {} sites × 7 bits = {} shift cycles per frame\n",
        result.sites.len(),
        campaign.chain().shift_cycles()
    ));
    if resilient.summary.sites_degraded > 0 {
        out.push_str(&format!(
            "DEGRADED: {} of {} sites failed (dead elements: {}, worst code error: {} level(s)); map above is partial\n",
            resilient.summary.sites_degraded,
            result.sites.len(),
            resilient.summary.dead_elements,
            resilient.summary.worst_code_error,
        ));
    }

    // Equivalent-time capture.
    let system = SensorSystem::new(SensorConfig::default()).expect("default config");
    let f = psnt_cells::units::Frequency::from_mhz(50.0);
    let vdd = SupplyNoiseBuilder::new(Voltage::from_v(0.94))
        .span(Time::ZERO, Time::from_us(10.0))
        .resolution(Time::from_ps(250.0))
        .resonance(f, Voltage::from_mv(35.0), 0.0)
        .build()
        .expect("valid noise");
    let sampler = EquivalentTimeSampler::new(Time::period_of(f), 20).expect("valid sampler");
    let recon = sampler
        .capture_periodic(
            &system,
            &vdd,
            &Waveform::constant(0.0),
            Time::from_ns(100.0),
            400,
        )
        .expect("capture");
    out.push_str(&format!(
        "equivalent-time capture of 50 MHz resonance: coverage {:.0}%, p2p {} (true 70 mV)\n",
        recon.coverage() * 100.0,
        recon
            .peak_to_peak()
            .map_or("n/a".into(), |v| format!("{:.0} mV", v.millivolts())),
    ));
    out
}

/// XP-GATE — the gate-level twin: netlist measures vs the behavioural
/// array, and the noisy-domain droop seen by STA.
pub fn gate_level() -> String {
    use psnt_core::gate_level::GateLevelArray;
    use psnt_netlist::sta::{analyze_with_domain_supplies, StaConfig};

    let gate = GateLevelArray::paper().expect("valid netlist");
    let sk = skew(code011());
    let behavioural = ThermometerArray::paper(RailMode::Supply)
        .at(sk, &Pvt::typical())
        .expect("in range");

    let mut t = Table::new(
        "XP-GATE — event-driven netlist twin vs behavioural model (delay code 011)",
        &["VDD-n", "gate-level code", "behavioural code", "agree"],
    );
    let mut all_agree = true;
    // A local context: its pool keeps one reusable simulator alive
    // across the sweep (the PR 3 `make_sim` + `reset()` fast path).
    let mut ctx = RunCtx::serial();
    for mv in (820..=1080).step_by(40) {
        let v = Voltage::from_mv(mv as f64 + 3.0);
        let a = gate.measure(&mut ctx, v, sk).expect("simulates");
        let b = behavioural.measure(v);
        let agree = a == b;
        all_agree &= agree;
        t.row([
            fmt_v(v.volts()),
            a.to_string(),
            b.to_string(),
            if agree {
                "yes".to_string()
            } else {
                "NO".into()
            },
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "bit-exact agreement across the sweep: {}\n",
        if all_agree { "yes" } else { "NO" }
    ));

    let cfg = StaConfig::default();
    let nominal = analyze_with_domain_supplies(gate.netlist(), &cfg, &[]).expect("sta");
    let droop = analyze_with_domain_supplies(
        gate.netlist(),
        &cfg,
        &[(gate.noisy_domain(), Voltage::from_v(0.9))],
    )
    .expect("sta");
    s.push_str(&format!(
        "per-domain STA: worst DS path {} at nominal, {} with the noisy rail at 0.90 V\n",
        fmt_ps(nominal.critical_delay().picoseconds()),
        fmt_ps(droop.critical_delay().picoseconds()),
    ));

    // The flattened CNTR + PG + array system running Fig. 9 in gates.
    let sys = psnt_core::gate_level::GateLevelSystem::paper().expect("system composes");
    let measures = sys
        .run_measures(
            &mut RunCtx::serial(),
            code011(),
            &[Voltage::from_v(1.0), Voltage::from_v(0.9)],
        )
        .expect("system runs");
    s.push_str(&format!(
        "full gate-level system ({}): measures {} then {} at pin skew {} — Fig. 9 in gates\n",
        sys.netlist().summary(),
        measures[0].code,
        measures[1].code,
        fmt_ps(measures[0].skew().picoseconds()),
    ));
    s
}

/// XP-OVERHEAD — the paper's "very low overhead in terms of power and
/// area" claim, quantified from the gate-level netlists.
pub fn overhead() -> String {
    use psnt_cells::gates::GE_AREA_90NM_UM2;
    use psnt_core::gate_level::GateLevelSystem;
    use psnt_netlist::sim::Simulator;

    let sys = GateLevelSystem::paper().expect("system composes");
    let one_array_system = sys.netlist();

    // Area: the composed netlist carries one HS array; the paper's full
    // system adds the LS array and the ENC (≈ one more array plus ~15 GE
    // of encoder logic).
    let array = psnt_core::gate_level::GateLevelArray::paper().expect("array");
    let array_ge = array.netlist().area_ge();
    let system_ge = one_array_system.area_ge() + array_ge + 15.0;
    let system_um2 = system_ge * GE_AREA_90NM_UM2;
    let leakage_nw = one_array_system.leakage_nw()
        + array.netlist().leakage_nw()
        + 15.0 * psnt_cells::gates::LEAKAGE_NW_PER_GE;

    // Dynamic power: run the gate-level system flat out (one measure per
    // five 4 ns cycles) and read the accumulated switching energy.
    let mut sim = Simulator::new(one_array_system, Voltage::from_v(1.0)).expect("valid");
    let clk = one_array_system.net_by_name("clk").expect("clk");
    let enable = one_array_system.net_by_name("enable").expect("enable");
    let start = one_array_system.net_by_name("start").expect("start");
    sim.drive(enable, psnt_cells::logic::Logic::One, Time::ZERO)
        .expect("drive");
    sim.drive(start, psnt_cells::logic::Logic::One, Time::ZERO)
        .expect("drive");
    for i in 0..3u8 {
        let sel = one_array_system
            .net_by_name(&format!("sel{i}"))
            .expect("sel");
        sim.drive(
            sel,
            psnt_cells::logic::Logic::from(3 >> i & 1 == 1),
            Time::ZERO,
        )
        .expect("drive");
    }
    sim.drive_clock(clk, Time::from_ns(2.0), Time::from_ns(4.0), 50)
        .expect("clock");
    sim.run_until(Time::from_ns(202.0));
    // Both arrays switch: double the array share ≈ double total (the
    // arrays dominate the switched capacitance through the big DS caps).
    let dyn_uw = 2.0 * sim.dynamic_power_watts() * 1e6;
    let total_uw = dyn_uw + leakage_nw * 1e-3;

    let mut t = Table::new(
        "XP-OVERHEAD — sensor cost vs representative CUTs (90 nm)",
        &["quantity", "value"],
    );
    t.row([
        "sensor system area".to_string(),
        format!("{system_ge:.0} GE ≈ {system_um2:.0} µm²"),
    ]);
    t.row([
        "  of which one 7-bit array".to_string(),
        format!("{array_ge:.0} GE"),
    ]);
    t.row([
        "leakage".to_string(),
        format!("{:.2} µW", leakage_nw * 1e-3),
    ]);
    t.row([
        "dynamic power (continuous measures, 4 ns clock)".to_string(),
        format!("{dyn_uw:.1} µW"),
    ]);
    t.row(["total power".to_string(), format!("{total_uw:.1} µW")]);
    for cut_kge in [50.0, 200.0, 1000.0] {
        t.row([
            format!("area overhead vs a {cut_kge:.0}k-GE CUT"),
            format!("{:.3} %", system_ge / (cut_kge * 1000.0) * 100.0),
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "dynamic power is dominated by the pF-scale DS capacitors the paper specifies; duty-cycled\n\
         measurement (e.g. one burst per 100 clock cycles) reduces it to {:.0} µW.\n\
         per extra measure point only one more array (+ its share of the scan chain) is added;\n\
         the CNTR, PG and ENC are shared — the paper's \"only a control system is required\".\n",
        dyn_uw / 100.0 + leakage_nw * 1e-3,
    ));
    s
}

/// XP-FAULT — fault coverage of the 7-element gate-level array over a
/// 1,016-plan universe (single and double stuck-ats on every net,
/// delay scaling on every sense inverter, and stuck-at × delay
/// crosses), measured at three rail levels against the healthy
/// (golden) codes. The sweep runs through the 64-lane batch kernel —
/// one word evaluates 64 fault plans per pass, so 48 batched measures
/// replace the 3,048 scalar ones the same campaign would otherwise
/// cost. A fault is *detected* when any rail's thermometer code
/// differs from golden (or the measure errors out); the residual is
/// the worst bubble-corrected level error a detected fault leaves
/// behind. Fully deterministic — same table on every run at any
/// worker count.
pub fn fault_coverage(ctx: &mut RunCtx<'_>) -> String {
    use psnt_cells::logic::Logic;
    use psnt_core::gate_level::GateLevelArray;
    use psnt_fault::{Fault, FaultPlan};
    use psnt_netlist::LANES;

    let array = GateLevelArray::paper().expect("paper array builds");
    let sk = skew(code011());
    let rails = [1.0, 0.96, 0.9].map(Voltage::from_v);

    // One local context pools one scalar simulator (golden pass) and
    // one batch kernel (the whole faulted sweep).
    let mut lctx = RunCtx::new(ctx.engine().clone());
    let golden: Vec<_> = rails
        .iter()
        .map(|&v| array.measure(&mut lctx, v, sk).expect("healthy measure"))
        .collect();

    let names: Vec<String> = array
        .netlist()
        .nets()
        .map(|(_, n)| n.name().to_string())
        .collect();
    let gate_names: Vec<String> = array
        .netlist()
        .gates()
        .iter()
        .map(|g| g.name().to_string())
        .collect();

    // The fault universe, one class id per plan. Delay factors span
    // 4× fast to 6× slow. The 8 factors per gate do NOT keep the batch
    // kernel's delay banding exact: a 64-lane chunk that holds delay or
    // cross plans (plans 512–1,015) also has lanes that leave the gate
    // unfaulted at 1.0, so the gate sees 9 distinct factors, one more
    // than `MAX_DELAY_BANDS`, and all of that gate's factors, the
    // healthy 1.0 included, are snapped to the geometric grid. Those
    // rows are approximate until the kernel handles the overflow.
    const CLASSES: [&str; 4] = [
        "single stuck-at (SA0+SA1, every net)",
        "double stuck-at (every net pair x 4 values)",
        "delay scale (every sense inverter x 8 factors)",
        "stuck-at x delay cross",
    ];
    const FACTORS: [f64; 8] = [0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 4.0, 6.0];
    let mut class_of: Vec<usize> = Vec::new();
    let mut plans: Vec<FaultPlan> = Vec::new();
    let push =
        |class: usize, plan: FaultPlan, class_of: &mut Vec<usize>, plans: &mut Vec<FaultPlan>| {
            debug_assert!(plan.batch_supported());
            class_of.push(class);
            plans.push(plan);
        };
    for name in &names {
        for value in [Logic::Zero, Logic::One] {
            push(
                0,
                FaultPlan::new().with(Fault::stuck_at(name.clone(), value)),
                &mut class_of,
                &mut plans,
            );
        }
    }
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            for va in [Logic::Zero, Logic::One] {
                for vb in [Logic::Zero, Logic::One] {
                    push(
                        1,
                        FaultPlan::new()
                            .with(Fault::stuck_at(names[i].clone(), va))
                            .with(Fault::stuck_at(names[j].clone(), vb)),
                        &mut class_of,
                        &mut plans,
                    );
                }
            }
        }
    }
    for g in &gate_names {
        for f in FACTORS {
            push(
                2,
                FaultPlan::new().with(Fault::delay_scale(g.clone(), f)),
                &mut class_of,
                &mut plans,
            );
        }
    }
    // Cross class: 8 deterministic stuck-at anchors (every other net,
    // alternating polarity) x the 56 delay faults.
    let anchors: Vec<(String, Logic)> = names
        .iter()
        .step_by(2)
        .enumerate()
        .map(|(k, n)| (n.clone(), if k % 2 == 0 { Logic::Zero } else { Logic::One }))
        .collect();
    for (an, av) in &anchors {
        for g in &gate_names {
            for f in FACTORS {
                push(
                    3,
                    FaultPlan::new()
                        .with(Fault::stuck_at(an.clone(), *av))
                        .with(Fault::delay_scale(g.clone(), f)),
                    &mut class_of,
                    &mut plans,
                );
            }
        }
    }

    // Sweep 64 plans per word: each chunk costs one batched measure per
    // rail, lane `l` carrying plan `chunk_base + l`.
    let mut totals = [0u32; 4];
    let mut detects = [0u32; 4];
    let mut errors = [0u32; 4];
    let mut worst = [0usize; 4];
    let mut batched_measures = 0usize;
    for (ci, chunk) in plans.chunks(LANES).enumerate() {
        let per_rail: Vec<_> = rails
            .iter()
            .map(|&v| {
                batched_measures += 1;
                array
                    .measure_batch(&mut lctx, v, sk, chunk)
                    .expect("batched faulted measure")
            })
            .collect();
        for l in 0..chunk.len() {
            let k = class_of[ci * LANES + l];
            totals[k] += 1;
            let mut detected = false;
            let mut residual = 0usize;
            for (lane_results, gold) in per_rail.iter().zip(&golden) {
                match &lane_results[l] {
                    Ok((sense, _prepare)) => {
                        if sense != gold {
                            detected = true;
                        }
                        residual = residual.max(
                            sense
                                .correct_bubbles()
                                .level()
                                .abs_diff(gold.correct_bubbles().level()),
                        );
                    }
                    Err(_) => {
                        detected = true;
                        errors[k] += 1;
                    }
                }
            }
            if detected {
                detects[k] += 1;
                worst[k] = worst[k].max(residual);
            }
        }
    }

    let mut t = Table::new(
        "XP-FAULT — fault coverage, 7-element HIGH-SENSE array (code 011), 64 plans/word",
        &[
            "fault class",
            "plans",
            "detected",
            "coverage",
            "worst residual",
        ],
    );
    for (k, class) in CLASSES.iter().enumerate() {
        t.row([
            (*class).to_string(),
            totals[k].to_string(),
            detects[k].to_string(),
            format!(
                "{:.1} %",
                f64::from(detects[k]) / f64::from(totals[k]) * 100.0
            ),
            format!("{} level(s)", worst[k]),
        ]);
    }
    let total: u32 = totals.iter().sum();
    let detected_n: u32 = detects.iter().sum();
    let worst_residual = worst.iter().copied().max().unwrap_or(0);
    let mut s = t.render();
    s.push_str(&format!(
        "faults injected: {total} | detected: {detected_n} | detection rate: {rate:.1} % | \
         worst residual among detected: {worst_residual} level(s)\n\
         (three-rail signature: 1.00 V / 0.96 V / 0.90 V; a fault is silent only if every\n\
         rail reproduces the golden thermometer code)\n\
         batch kernel: {} plans swept as {} word-chunks x {} rails = {batched_measures} batched\n\
         measures, versus {} scalar measures for the same campaign serially\n",
        plans.len(),
        plans.len().div_ceil(LANES),
        rails.len(),
        plans.len() * rails.len(),
        rate = f64::from(detected_n) / f64::from(total) * 100.0,
    ));
    s
}

/// XP-NOC — the chip-scale workload campaign: an 8×8-mesh NoC's
/// traffic drives 1,000 cycle-by-cycle incremental solves of a
/// 1,600-node power grid, and all 256 sensor sites are measured at
/// every window centre through the streamed campaign path (flat
/// memory; per-site records counted as they pass the sink). With a
/// `--fault-plan` carrying `SitePanic` faults, degraded sites stream
/// through the same sink and the map stays partial instead of the run
/// aborting.
pub fn noc_campaign(ctx: &mut RunCtx<'_>) -> String {
    // No checkpoint flags: the plain supervised run. A cooperative
    // interrupt (e.g. a `CancelAt` harness fault) renders its notice
    // instead of aborting the whole repro session.
    crate::checkpointed::noc_campaign_checkpointed(
        ctx,
        &crate::checkpointed::CheckpointOptions::none(),
    )
    .expect("noc campaign")
    .report
}

/// The bursty chip the droop-mitigation experiment runs: rails at
/// 1.00 V (the centre of the sensor's dynamic range, so thermometer
/// levels track the droop), heavy per-flit current, 12-on/20-off
/// bursts.
pub(crate) fn droop_chip() -> psnt_workload::NocWorkloadConfig {
    use psnt_workload::{NocWorkloadConfig, TrafficPattern};
    NocWorkloadConfig {
        mesh_rows: 8,
        mesh_cols: 8,
        sites_per_tile: 1,
        grid_rows: 24,
        grid_cols: 24,
        v_pad: Voltage::from_v(1.0),
        r_mesh: Resistance::from_milliohms(120.0),
        r_pad: Resistance::from_milliohms(20.0),
        pads: vec![(0, 0), (0, 23), (23, 0), (23, 23)],
        pattern: TrafficPattern::Bursty {
            injection_rate: 0.9,
            on_cycles: 12,
            off_cycles: 20,
        },
        cycles: 400,
        cycle_time: Time::from_ns(1.0),
        idle_current: Current::from_ma(3.0),
        flit_current: Current::from_ma(7.0),
        measure_every: 50,
        sensor: SensorConfig::default(),
    }
}

/// XP-DROOP — closed-loop droop mitigation over the cycle-stepped
/// co-simulation core: droop depth/duration with each built-in policy
/// vs the open loop under bursty traffic, then a response-latency
/// sweep (thermometer codes delayed 0–8 cycles before the controller).
pub fn droop_mitigation(ctx: &mut RunCtx<'_>) -> String {
    // No checkpoint flags: the plain supervised sweep. A cooperative
    // interrupt (e.g. a `CancelAt` harness fault) renders its notice
    // instead of aborting the whole repro session.
    crate::checkpointed::droop_mitigation_checkpointed(
        ctx,
        &crate::checkpointed::CheckpointOptions::none(),
    )
    .expect("droop sweep")
    .report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_report_shows_failure_at_case_4() {
        let s = fig2();
        assert!(s.contains("WRONG (0)"));
        assert_eq!(s.matches("correct (1)").count(), 3);
    }

    #[test]
    fn fig3_report_shows_both_outcomes() {
        let s = fig3();
        assert!(s.contains("1 (set-up met)"));
        assert!(s.contains("0 (set-up violated)"));
    }

    #[test]
    fn fig4_report_contains_published_point() {
        let s = fig4();
        assert!(s.contains("paper @ 2 pF: 0.9360 V"));
        assert!(s.contains("0.93"), "{s}");
    }

    #[test]
    fn fig5_report_contains_ranges() {
        let s = fig5(&mut RunCtx::serial());
        assert!(s.contains("011"));
        assert!(s.contains("0.827"));
    }

    #[test]
    fn tab1_report_contains_taps() {
        let s = tab1();
        assert!(s.contains("107"));
        assert!(s.contains("149.0 ps"));
    }

    #[test]
    fn fig6_report_has_ten_measures() {
        let s = fig6(&mut RunCtx::serial());
        assert!(s.matches("0.9").count() >= 1);
        assert!(s.lines().count() >= 13, "{s}");
    }

    #[test]
    fn fig8_report_contains_critical_path() {
        let s = fig8();
        assert!(s.contains("critical path"));
        assert!(s.contains("Sense"));
    }

    #[test]
    fn fig9_report_matches_paper_codes() {
        let s = fig9(&mut RunCtx::serial());
        assert!(s.contains("0011111"));
        assert!(s.contains("0000011"));
        assert!(s.contains("0000000"));
    }

    #[test]
    fn gate_level_report_agrees() {
        let s = gate_level();
        assert!(
            s.contains("bit-exact agreement across the sweep: yes"),
            "{s}"
        );
        assert!(s.contains("per-domain STA"));
    }

    #[test]
    fn overhead_report_quantifies_the_claim() {
        let s = overhead();
        assert!(s.contains("GE"), "{s}");
        assert!(s.contains("area overhead vs a 200k-GE CUT"));
        assert!(s.contains("dynamic power"));
    }

    #[test]
    fn gnd_pv_baseline_scan_render() {
        assert!(gnd(&mut RunCtx::serial()).contains("LOW-SENSE"));
        assert!(pv(&mut RunCtx::serial()).contains("SS"));
        let b = baseline();
        assert!(b.contains("60 mV VDD droop"));
        let sc = scan(&mut RunCtx::serial());
        assert!(sc.contains("shift cycles"));
        assert!(sc.contains("equivalent-time"));
    }

    #[test]
    fn registry_ids_are_unique_and_described() {
        let reg = registry();
        let mut seen = std::collections::HashSet::new();
        for (id, desc, _) in &reg {
            assert!(seen.insert(*id), "duplicate experiment id {id}");
            assert!(!desc.is_empty(), "{id} has no description");
        }
        assert_eq!(reg.len(), 26, "experiment registry lost an entry");
    }

    #[test]
    fn noc_campaign_streams_every_site() {
        let out = noc_campaign(&mut RunCtx::serial());
        assert!(out.contains("XP-NOC"));
        assert!(out.contains("sites streamed: 256 (0 degraded)"));
        assert!(out.contains("flits injected:"));
        assert!(out.contains("chain: 1792 FFs"));
        // Ten 100-cycle windows.
        assert!(out.contains("900-999"));
    }

    #[test]
    fn droop_mitigation_cuts_worst_droop_by_a_third() {
        let out = droop_mitigation(&mut RunCtx::serial());
        assert!(out.contains("XP-DROOP"), "{out}");
        assert!(out.contains("open-loop"));
        for policy in [
            "threshold-stretch",
            "threshold-throttle",
            "supply-boost",
            "pi-boost",
        ] {
            assert!(out.contains(policy), "missing arm {policy}:\n{out}");
        }
        // Nine latency rows, 0 through 8.
        assert!(out.contains("8 cy"));
        // The acceptance bar: the best arm shallows the worst droop by
        // at least 30%.
        let pct: f64 = out
            .split("best-arm worst-droop reduction: ")
            .nth(1)
            .and_then(|rest| rest.split('%').next())
            .expect("reduction line")
            .parse()
            .expect("reduction percentage");
        assert!(pct >= 30.0, "best reduction only {pct}%:\n{out}");
        // Deterministic end to end.
        assert_eq!(out, droop_mitigation(&mut RunCtx::serial()));
    }

    #[test]
    fn fault_coverage_reports_full_detection_stats() {
        let out = fault_coverage(&mut RunCtx::serial());
        assert!(out.contains("XP-FAULT"));
        assert!(out.contains("detection rate"));
        assert!(out.contains("SA0"));
        assert!(out.contains("SA1"));
        // The scaled campaign: ≥1,000 plans, swept 64 per word.
        assert!(out.contains("faults injected: 1016"), "{out}");
        assert!(out.contains("64 plans/word"));
        // The sweep is deterministic, so the rendered table is too.
        assert_eq!(out, fault_coverage(&mut RunCtx::serial()));
    }
}
