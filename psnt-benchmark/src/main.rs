//! `psnt-benchmark` — end-to-end host-time benchmark of the
//! psn-thermometer workspace.
//!
//! One client runs a closed loop: one op in flight at a time, op `i`
//! seeded `base + i`, every op's output checked. Four workloads (see
//! `workloads.rs`) each run in their own process so peak RSS and
//! allocator state belong to that workload. A host-speed probe (see
//! `probe.rs`) runs between ops so the gated times can be read at a
//! fixed host speed.
//!
//! ```text
//! psnt-benchmark                          all workloads, one child process each
//! psnt-benchmark --workload noc-open      one workload in this process
//!     [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//!     [--json FILE] [--quick]
//! psnt-benchmark --compare A.json B.json  gate B against A with BENCHMARK.json's bounds
//! ```
//!
//! Output is `<workload> <metric> <value> <unit>` lines; in single-
//! workload mode the last line is the one-line JSON result
//! (`correct`, `attempted`, `failed`, `metrics`).

mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use psnt_ctx::RunCtx;
use psnt_engine::Engine;
use serde::json;

use probe::Probe;
use report::RunReport;
use stats::Fold;
use trace::Recorder;
use workloads::{Fixture, Kind, OpOut};

/// The default base seed.
const DEFAULT_SEED: u64 = 2009;
/// Seconds of timed ops per workload when `--seconds` is not given
/// (equal to `run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;
/// Timed ops a run makes at least.
const MIN_OPS: usize = 3;
/// Timed ops of a `--quick` run.
const QUICK_OPS: usize = 2;
/// Set-up repetitions: at least this many, more until their total
/// reaches `SETUP_MIN_S` (at most `SETUP_MAX_REPS`). Sub-millisecond
/// set-ups then repeat for half a second, so their median is taken in
/// steady state rather than while the process is starting.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 10_000;
/// Seconds between host-speed probe passes in the timed loop.
const PROBE_EVERY_S: f64 = 0.25;
/// Traced ops written to the Chrome trace file.
const TRACE_FILE_OPS: u32 = 20;

/// Integer-output digests of the verify pass at the default seed. A
/// change to any code, level, flit or actuation count, Monte-Carlo
/// count or fault-lane code shows up here.
const PINNED: [(Kind, u64); 4] = [
    (Kind::NocOpen, 0x93c3_7779_a9a3_9628),
    (Kind::NocClosed, 0x3ef4_f302_e4a9_69b6),
    (Kind::NocCheckpoint, 0x93c3_7779_a9a3_9628),
    (Kind::Population, 0x3d36_1e32_1a5f_f6e9),
];

const USAGE: &str = "usage: psnt-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-dir DIR] [--json FILE] [--quick]\n       psnt-benchmark --compare A.json B.json";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    json: Option<PathBuf>,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        trace_dir: None,
        json: None,
        quick: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                o.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = s;
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-dir" => o.trace_dir = Some(value("--trace-dir")?.into()),
            "--json" => o.json = Some(value("--json")?.into()),
            "--quick" => o.quick = true,
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                o.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Where the benchmark writes checkpoints, detail files and traces:
/// `$CARGO_TARGET_DIR/psnt-benchmark`, else `target/psnt-benchmark`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("psnt-benchmark")
}

/// Builds the workload's fixture several times (the last one is kept),
/// runs the verify pass, the warm-up and the timed ops.
fn run_workload(kind: Kind, o: &Options) -> Result<RunReport, String> {
    let dir = out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ckpt = dir.join(format!("{}-{}.ckpt.json", kind.name(), std::process::id()));
    let (min_reps, min_s) = if o.quick {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_MIN_S)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut factor_s = Vec::new();
    let mut fixture = None;
    while setup_s.len() < min_reps
        || (setup_s.iter().sum::<f64>() < min_s && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(fixture.take());
        let t = Instant::now();
        let (f, factor) = workloads::setup(kind, ckpt.clone())?;
        setup_s.push(t.elapsed().as_secs_f64());
        factor_s.extend(factor);
        fixture = Some(f);
    }
    let fixture = fixture.expect("at least one set-up ran");
    let out = measure(kind, &fixture, o, setup_s, factor_s);
    fixture.cleanup();
    out
}

fn measure(
    kind: Kind,
    fixture: &Fixture,
    o: &Options,
    setup_s: Vec<f64>,
    factor_s: Vec<f64>,
) -> Result<RunReport, String> {
    let mut ctx = RunCtx::new(Engine::new(kind.jobs()));
    let seed = o.seed;
    let verify_ops = if o.quick { 1 } else { kind.verify_ops() };
    let mut verify_digest = Fold::default();
    for i in 0..verify_ops as u64 {
        verify_digest.fold(fixture.verify(&mut ctx, i, seed.wrapping_add(i))?);
    }
    if !o.quick && seed == DEFAULT_SEED {
        let pinned = PINNED.iter().find(|(k, _)| *k == kind).map(|p| p.1);
        if pinned != Some(verify_digest.int) {
            return Err(format!(
                "verify digest {:016x} differs from the pinned {:016x}",
                verify_digest.int,
                pinned.unwrap_or(0)
            ));
        }
    }
    let mut r = RunReport {
        kind,
        seed,
        setup_s,
        factor_s,
        op_s: Vec::new(),
        probe: Probe::default(),
        traced_s: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        verify_digest,
        work: Default::default(),
        peak_rss_mib: 0.0,
        trace: o.trace.then(|| Recorder::keeping(TRACE_FILE_OPS)),
    };
    let mut i = 0u64;
    let warmup = if o.quick { 0 } else { kind.warmup_ops() };
    for _ in 0..warmup {
        let out = fixture.op(&mut ctx, i, seed.wrapping_add(i));
        tally(&mut r, out, false);
        i += 1;
    }
    let start = Instant::now();
    let mut next_pass = 0.0;
    loop {
        let ops = r.op_s.len();
        let elapsed = start.elapsed().as_secs_f64();
        let done = if o.quick {
            ops >= QUICK_OPS
        } else {
            ops >= MIN_OPS && elapsed >= o.seconds
        };
        if done {
            break;
        }
        if elapsed >= next_pass {
            r.probe.pass(ops);
            next_pass = elapsed + PROBE_EVERY_S;
        }
        let t = Instant::now();
        let out = fixture.op(&mut ctx, i, seed.wrapping_add(i));
        r.op_s.push(t.elapsed().as_secs_f64());
        let out = match r.trace.as_mut() {
            None => out,
            Some(rec) => {
                let t = Instant::now();
                let replica = fixture.traced_op(&mut ctx, i, seed.wrapping_add(i), rec);
                r.traced_s.push(t.elapsed().as_secs_f64());
                match (out, replica) {
                    (Ok(a), Ok(b)) if a.fold == b.fold => Ok(a),
                    (Ok(_), Ok(_)) => {
                        Err("traced replica output differs from the untraced op".into())
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
        };
        tally(&mut r, out, true);
        i += 1;
    }
    if let Some(rec) = &r.trace {
        let dir = o
            .trace_dir
            .clone()
            .unwrap_or_else(|| out_dir().join("trace"));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", kind.name()));
        rec.write_chrome(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    r.peak_rss_mib = stats::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(r)
}

fn tally(r: &mut RunReport, out: Result<OpOut, String>, timed: bool) {
    r.attempted += 1;
    match out {
        Ok(o) if timed => r.work.add(&o.work),
        Ok(_) => {}
        Err(e) => {
            r.failed += 1;
            if r.failures.len() < 5 {
                r.failures.push(e);
            }
        }
    }
}

/// Runs every workload in a child process of this binary, forwarding
/// their text reports; returns whether all of them passed.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "psnt-benchmark: seed {}, available parallelism {}",
        o.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut docs = Vec::new();
    let mut all_ok = true;
    for kind in Kind::ALL {
        let detail = dir.join(format!(
            "{}-{}.detail.json",
            kind.name(),
            std::process::id()
        ));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name(), "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&detail);
        if let Some(d) = &o.trace_dir {
            cmd.arg("--trace-dir").arg(d);
        }
        if o.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.last().is_some_and(|l| l.starts_with('{')) {
            lines.pop();
        }
        for l in lines {
            println!("{l}");
        }
        let doc = fs::read_to_string(&detail).ok();
        let _ = fs::remove_file(&detail);
        match (out.status.success(), doc) {
            (true, Some(doc)) => {
                let v = json::parse(&doc).map_err(|e| format!("{}: {e:?}", detail.display()))?;
                let record = v
                    .get("workloads")
                    .and_then(|w| w.get(kind.name()))
                    .ok_or_else(|| format!("{}: no {} record", detail.display(), kind.name()))?;
                docs.push((kind.name().to_string(), record.clone()));
            }
            _ => {
                eprintln!("{} failed ({})", kind.name(), out.status);
                all_ok = false;
            }
        }
    }
    if let Some(path) = &o.json {
        fs::write(path, report::document(docs) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

/// Gates B against A with the bounds of the `BENCHMARK.json` in the
/// working directory (the repository root).
fn compare(a: &PathBuf, b: &PathBuf) -> Result<String, String> {
    let read = |p: &PathBuf| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bench = read(&PathBuf::from("BENCHMARK.json"))?;
    report::compare(&report::gates(&bench)?, &read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("psnt-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &o.compare {
        return match compare(a, b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("psnt-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(kind) = o.workload else {
        return match run_all(&o) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("psnt-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    };
    match run_workload(kind, &o) {
        Ok(r) => {
            print!("{}", r.lines());
            if let Some(path) = &o.json {
                let doc = report::document(vec![(kind.name().to_string(), r.detail())]);
                if let Err(e) = fs::write(path, doc + "\n") {
                    eprintln!("psnt-benchmark: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            println!("{}", r.result_line());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("psnt-benchmark: {}: {e}", kind.name());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn check(r: &RunReport, metrics: &[(String, String)]) {
        let w = r.kind.name();
        let lines = r.lines();
        for (name, unit) in metrics {
            let prefix = format!("{w} {name} ");
            let line = lines
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{w}: no {name} line in\n{lines}"));
            assert!(line.ends_with(&format!(" {unit}")), "{line}: unit {unit}");
        }
        assert!(
            lines.contains(&format!("{w} error_rate 0 ratio\n")),
            "{lines}"
        );
        let result = json::parse(&r.result_line()).expect("result line parses");
        let keys: Vec<&str> = match &result {
            Value::Map(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let reported = result.get("metrics").expect("metrics");
        let mut names: Vec<&str> = match reported {
            Value::Map(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("metrics is not an object"),
        };
        let mut want: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            names, want,
            "{w}: the result carries exactly the declared metrics"
        );
        for (name, unit) in metrics {
            let m = reported.get(name).unwrap_or_else(|| panic!("{w}: {name}"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
    }

    #[test]
    fn quick_runs_print_every_declared_metric() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let e2e = declared(&doc, "end_to_end");
        let layers = declared(&doc, "per_layer");
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);

        let dir = out_dir().join(format!("smoke-{}", std::process::id()));
        for kind in Kind::ALL {
            let mut o = parse_args(&["--quick".into()]).expect("args");
            o.workload = Some(kind);
            check(&run_workload(kind, &o).expect("untraced run"), &e2e);
            o.trace = true;
            o.trace_dir = Some(dir.clone());
            let traced = run_workload(kind, &o).expect("traced run");
            check(&traced, &layers);
            assert!(dir.join(format!("{}.trace.json", kind.name())).exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
