//! Compares two `BENCH_*.json` snapshots and fails on perf
//! regressions — the CI perf gate.
//!
//! ```text
//! bench-diff <baseline.json> <current.json> [--threshold <pct>[%]]
//! ```
//!
//! Prints the full regression table (before / after / delta per
//! bench), then, when both snapshots carry the `scripts/size.sh`
//! table, the code-line and `pub`-item change per row, then exits:
//!
//! * `0` — no bench slowed down past the threshold (default 25%);
//! * `1` — at least one bench regressed past the threshold;
//! * `2` — a snapshot could not be read or parsed, or bad usage.

use psnt_bench::diff::{BenchDiff, BenchSnapshot, SizeDiff};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut threshold_pct = 25.0f64;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--threshold" => {
                let parsed = iter
                    .next()
                    .and_then(|t| t.trim_end_matches('%').parse::<f64>().ok());
                match parsed {
                    Some(t) if t >= 0.0 => threshold_pct = t,
                    _ => {
                        eprintln!("--threshold needs a non-negative percentage (e.g. 25%)");
                        std::process::exit(2);
                    }
                }
            }
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => {
                eprintln!("unrecognised argument {other:?}");
                eprintln!("usage: bench-diff <baseline.json> <current.json> [--threshold <pct>%]");
                std::process::exit(2);
            }
        }
    }
    let [before_path, after_path] = files.as_slice() else {
        eprintln!("usage: bench-diff <baseline.json> <current.json> [--threshold <pct>%]");
        std::process::exit(2);
    };

    let load = |path: &str| -> BenchSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        BenchSnapshot::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let before = load(before_path);
    let after = load(after_path);

    let diff = BenchDiff::between(&before, &after, threshold_pct);
    print!("{diff}");
    if let Some(size) = SizeDiff::between(&before, &after) {
        print!("{size}");
    }
    let regressions = diff.regressions();
    if regressions.is_empty() {
        println!("no regressions past {threshold_pct}%");
    } else {
        println!(
            "{} bench(es) regressed past {threshold_pct}%",
            regressions.len()
        );
        std::process::exit(1);
    }
}
