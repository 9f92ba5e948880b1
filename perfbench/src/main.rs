//! The rtf benchmark: one command runs one named workload with a seed and
//! prints every metric with its unit, then a one-line JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv_serve|kv_ordered|tpcc_futures|synth_contended|synth_readonly> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` runs
//! the window twice, untraced and then with a `TxObs` observer and the
//! benchmark's own spans, and prints the per-layer metrics. The exit code
//! is 1 when a correctness gate fails and 2 on bad arguments.

mod cpus;
mod inproc;
mod kv;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use trace::Spans;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Untimed warm-up before every measured window.
pub const WARMUP: Duration = Duration::from_secs(1);

const WORKLOADS: [&str; 5] =
    ["kv_serve", "kv_ordered", "tpcc_futures", "synth_contended", "synth_readonly"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => a.seconds = v.parse().map_err(bad)?,
            "--trace" => a.trace = v.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(a)
}

/// `splitmix64`, the workspace's seed stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn median_secs(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the run sits in a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    }
    .trim()
    .chars()
    .take(12)
    .collect::<String>()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = commit();
    println!(
        "host nproc {nproc} commit {}  workload {} seed {} seconds {} trace {}",
        if commit.is_empty() { "unknown" } else { &commit },
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace, Instant::now());
    match args.workload.as_str() {
        "tpcc_futures" => inproc::run_tpcc(&args, &mut report, &mut spans),
        "synth_contended" => inproc::run_synth(&args, false, &mut report, &mut spans),
        "synth_readonly" => inproc::run_synth(&args, true, &mut report, &mut spans),
        _ => {
            if let Err(e) = kv::run(&args, &mut report, &mut spans) {
                eprintln!("perfbench: serving I/O failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if args.trace {
        println!("trace spans {}", spans.len());
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/spans-{}-{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        report.fill_layers(report::extra_layers(&args.workload));
    } else {
        report.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report.print(args.trace, report::extra_layers(&args.workload));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
