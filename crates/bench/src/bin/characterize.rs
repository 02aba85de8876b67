//! Dumps the sensor's characterisation datasets as CSV for external
//! plotting — the data behind Figs. 4 and 5, the LS (ground) mirror, the
//! PDN impedance profile, and the per-corner trim table.
//!
//! ```text
//! characterize <out-dir> [--jobs N] [--seed S]
//! ```
//!
//! Writes `fig4_sensitivity.csv`, `fig5_characteristic.csv`,
//! `gnd_characteristic.csv`, `impedance.csv` and `trim.csv`. The
//! per-code characteristics and the per-corner trim table run on the
//! worker pool of one shared [`RunCtx`] (`--jobs N`, default
//! `PSNT_JOBS` else available parallelism); the CSVs are bit-identical
//! at any worker count.

use std::fmt::Write as _;
use std::path::Path;

use psnt_cells::process::{ProcessCorner, Pvt};
use psnt_cells::units::{Capacitance, Frequency, Temperature, Voltage};
use psnt_core::calibration::{array_characteristic, sensitivity_characteristic, trim_for_corner};
use psnt_core::element::RailMode;
use psnt_core::pulsegen::{DelayCode, PulseGenerator};
use psnt_core::thermometer::ThermometerArray;
use psnt_ctx::RunCtx;
use psnt_engine::Engine;
use psnt_obs::{Observer, RunManifest, Span};
use psnt_pdn::impedance::impedance_profile;
use psnt_pdn::rlc::LumpedPdn;

fn main() {
    let mut out_dir: Option<String> = None;
    let mut engine = Engine::from_env();
    let mut seed = 0u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--jobs" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => engine = Engine::new(n),
                _ => {
                    eprintln!("--jobs needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--seed" => match iter.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a non-negative integer argument");
                    std::process::exit(2);
                }
            },
            dir if out_dir.is_none() && !dir.starts_with("--") => out_dir = Some(dir.to_owned()),
            other => {
                eprintln!("unrecognised argument {other:?}");
                eprintln!("usage: characterize <out-dir> [--jobs N] [--seed S]");
                std::process::exit(2);
            }
        }
    }
    let out = out_dir.unwrap_or_else(|| {
        eprintln!("usage: characterize <out-dir> [--jobs N] [--seed S]");
        std::process::exit(2);
    });
    let out = Path::new(&out);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let pvt = Pvt::typical();
    let pg = PulseGenerator::paper_table();
    let code011 = DelayCode::new(3).expect("static code");

    // In-memory telemetry: per-dataset spans and counters feed the
    // summary footer below.
    let mut obs = Observer::ring(64);
    obs.manifest(
        &RunManifest::new("characterize")
            .delay_codes(3, 3)
            .pvt("Typical")
            .with_git_describe(),
    );
    // The one context carrying the worker pool, the observer and the
    // seed policy through every dataset.
    let mut ctx = RunCtx::new(engine).with_seed(seed).with_observer(&mut obs);

    // Fig. 4: threshold vs load.
    let span = Span::begin("fig4_sensitivity");
    let mut csv = String::from("load_pf,threshold_v\n");
    let loads: Vec<Capacitance> = (20..=400)
        .map(|i| Capacitance::from_ff(i as f64 * 10.0))
        .collect();
    let points = sensitivity_characteristic(RailMode::Supply, pg.skew(code011, &pvt), &pvt, loads)
        .expect("thresholds in range");
    for p in points {
        let _ = writeln!(csv, "{},{}", p.load.picofarads(), p.threshold.volts());
    }
    write(out, "fig4_sensitivity.csv", &csv, &mut ctx);
    end_span(&mut ctx, span);

    // Fig. 5: per-code thresholds (HS). One engine job per delay code;
    // results come back in code order so the CSV is stable.
    let span = Span::begin("fig5_characteristic");
    let array = ThermometerArray::paper(RailMode::Supply);
    let codes = DelayCode::all();
    let mut csv = String::from("delay_code,element,threshold_v\n");
    let chars = ctx
        .engine()
        .try_map(codes.len(), |i| {
            array_characteristic(&array, &pg, codes[i], &pvt)
        })
        .expect("in range");
    for (code, ch) in codes.iter().zip(&chars) {
        for (i, t) in ch.thresholds.iter().enumerate() {
            let _ = writeln!(csv, "{code},{},{}", i + 1, t.volts());
        }
    }
    write(out, "fig5_characteristic.csv", &csv, &mut ctx);
    end_span(&mut ctx, span);

    // Ground mirror (LS).
    let span = Span::begin("gnd_characteristic");
    let ls = ThermometerArray::paper(RailMode::Ground);
    let mut csv = String::from("delay_code,element,bounce_threshold_v\n");
    let chars = ctx
        .engine()
        .try_map(codes.len(), |i| {
            array_characteristic(&ls, &pg, codes[i], &pvt)
        })
        .expect("in range");
    for (code, ch) in codes.iter().zip(&chars) {
        for (i, t) in ch.thresholds.iter().enumerate() {
            let _ = writeln!(csv, "{code},{},{}", i + 1, t.volts());
        }
    }
    write(out, "gnd_characteristic.csv", &csv, &mut ctx);
    end_span(&mut ctx, span);

    // PDN impedance profile.
    let span = Span::begin("impedance");
    let pdn = LumpedPdn::typical_90nm_package();
    let mut csv = String::from("frequency_hz,impedance_ohm\n");
    for p in impedance_profile(
        &pdn,
        Frequency::from_mhz(1.0),
        Frequency::from_ghz(1.0),
        181,
    ) {
        let _ = writeln!(csv, "{},{}", p.frequency.hertz(), p.magnitude.ohms());
    }
    write(out, "impedance.csv", &csv, &mut ctx);
    end_span(&mut ctx, span);

    // Per-corner trim table: one engine job per process corner.
    let span = Span::begin("trim");
    let mut csv = String::from("corner,untrimmed_error_mv,trimmed_code,residual_mv\n");
    let corners = ProcessCorner::ALL;
    let trims = ctx
        .engine()
        .try_map(corners.len(), |i| {
            let corner_pvt = Pvt::new(
                corners[i],
                Voltage::from_v(1.0),
                Temperature::from_celsius(25.0),
            );
            trim_for_corner(
                &mut RunCtx::serial(),
                &array,
                &pg,
                code011,
                &pvt,
                &corner_pvt,
            )
        })
        .expect("in range");
    for (corner, trim) in corners.iter().zip(&trims) {
        let _ = writeln!(
            csv,
            "{corner},{:.2},{},{:.2}",
            trim.untrimmed_residual.millivolts(),
            trim.code,
            trim.residual.millivolts()
        );
    }
    write(out, "trim.csv", &csv, &mut ctx);
    end_span(&mut ctx, span);

    println!("wrote 5 CSV datasets to {}", out.display());
    ctx.observer().expect("observer attached").finish();
    drop(ctx);
    print!("{}", telemetry_footer(&obs));
}

/// The summary footer: totals from the registry, per-dataset wall
/// times from the span histograms, and every counter, gauge and
/// histogram the run registered, rendered by
/// [`psnt_obs::MetricsRegistry`]'s table (degradation counters such as
/// `encoder.bubbles_corrected` or `campaign.sites_degraded` surface
/// here automatically).
fn telemetry_footer(obs: &Observer) -> String {
    let mut s = format!(
        "telemetry: {} datasets, {} rows\n",
        obs.metrics.counter_value("characterize.datasets"),
        obs.metrics.counter_value("characterize.rows"),
    );
    for name in [
        "fig4_sensitivity",
        "fig5_characteristic",
        "gnd_characteristic",
        "impedance",
        "trim",
    ] {
        if let Some(h) = obs.metrics.histogram_value(&format!("span.{name}_us")) {
            let _ = writeln!(s, "  span {name}: {:.0} µs", h.sum());
        }
    }
    let _ = writeln!(s, "metrics over the run:");
    let _ = write!(s, "{}", obs.metrics);
    s
}

fn end_span(ctx: &mut RunCtx<'_>, span: Span) {
    ctx.observer().expect("observer attached").end_span(span);
}

fn write(dir: &Path, name: &str, content: &str, ctx: &mut RunCtx<'_>) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let rows = content.lines().count().saturating_sub(1);
    let obs = ctx.observer().expect("observer attached");
    obs.metrics.counter_add("characterize.datasets", 1);
    obs.metrics.counter_add("characterize.rows", rows as u64);
    println!("  {} ({rows} rows)", path.display());
}
