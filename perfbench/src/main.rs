//! perfbench — end-to-end and per-layer benchmark of the hexclock
//! workspace. One invocation runs one named workload from one seed for a
//! fixed time, checks the program's outputs, and prints one JSON result
//! line. See `README.md` beside this crate for the workloads, the metrics
//! and the layer each metric should move.
//!
//! ```text
//! perfbench --workload paper_sweep|recovery|hexd_mix --seed N --seconds S
//!           --trace 0|1 --dir DIR [--trace-out FILE]
//! ```
//!
//! `DIR` holds the daemon's socket and cache directories while a run
//! lasts; the run removes what it made there, and `DIR` itself if it is
//! then empty. `--trace-out` receives the
//! spans of a traced run, one JSON object per line.

mod metrics;
mod mix;
mod serve_mix;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::stats::percentile;
use crate::trace::{Trace, Tracer};

const USAGE: &str = "usage: perfbench --workload paper_sweep|recovery|hexd_mix --seed N \
                     --seconds S --trace 0|1 --dir DIR [--trace-out FILE]";

/// Worker threads and client connections are capped here: the benchmark
/// is sized for a two-core host.
const MAX_THREADS: usize = 2;

/// Throughputs are the median of this many equal windows of a run.
pub const RATE_WINDOWS: usize = 10;

/// An operation that ran from `t` until now, doing `work`, as a
/// [`stats::windowed_rate`] item timed from `start`.
pub fn op_span(start: Instant, t: Instant, work: f64) -> (f64, f64, f64) {
    let from = t.duration_since(start).as_secs_f64();
    (from, from + t.elapsed().as_secs_f64(), work)
}

/// How far, in percent, a traced run's per-layer times may miss the
/// end-to-end time before the run fails: per-run work is spread over the
/// batch threads, the last runs of a small batch leave a thread idle, and
/// medians do not add exactly.
pub const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

/// How many failure reasons are echoed on standard error.
const REASONS_SHOWN: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub dir: PathBuf,
    pub trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < argv.len() => {
                let v = argv.remove(i + 1);
                argv.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(take("--workload")?, "--workload")?;
    let seed = need(take("--seed")?, "--seed")?;
    let seconds = need(take("--seconds")?, "--seconds")?;
    let trace = need(take("--trace")?, "--trace")?;
    let dir = need(take("--dir")?, "--dir")?;
    let trace_out = take("--trace-out")?.map(PathBuf::from);
    if let Some(extra) = argv.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    if !["paper_sweep", "recovery", "hexd_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: u64 = seconds
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or_else(|| {
            format!("--seconds must be a whole number from 1 to 600, got {seconds:?}")
        })?;
    let trace = match trace.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed must be a whole number, got {seed:?}"))?,
        seconds,
        trace,
        dir: PathBuf::from(dir),
        trace_out,
    })
}

/// What a workload run measured and which operations failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Cold and warm latency percentiles and sample counts, from
    /// latencies in seconds.
    pub fn latencies(&mut self, cold: &[f64], warm: &[f64]) {
        self.put("cold_p50_ms", percentile(cold, 0.5) * 1e3);
        self.put("cold_p90_ms", percentile(cold, 0.9) * 1e3);
        self.put("warm_p50_us", percentile(warm, 0.5) * 1e6);
        self.put("warm_p90_us", percentile(warm, 0.9) * 1e6);
        self.put("samples.cold", cold.len() as f64);
        self.put("samples.warm", warm.len() as f64);
    }
}

/// Peak resident set size of this process (daemon and clients included).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Engine and serve knobs change what is measured; a run under any of
    // them is not comparable with the others.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HEX_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(MAX_THREADS);
    let tracer = args.trace.then(Tracer::new);
    let ran = match args.workload.as_str() {
        "paper_sweep" => sweep::run(sweep::Workload::PaperSweep, &args, threads, tracer.as_ref()),
        "recovery" => sweep::run(sweep::Workload::Recovery, &args, threads, tracer.as_ref()),
        _ => serve_mix::run(&args, threads, tracer.as_ref()),
    };
    // Only succeeds if the workload left nothing behind.
    let _ = std::fs::remove_dir(&args.dir);
    let mut out = match ran.and_then(|o| peak_rss_mb().map(|rss| (o, rss))) {
        Ok((mut o, rss)) => {
            o.put("peak_rss_mb", rss);
            o
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = out.failures.len() as u64;
    out.put(
        "success_rate",
        1.0 - failed as f64 / out.attempted.max(1) as f64,
    );
    if let (Some(t), Some(path)) = (&out.trace, &args.trace_out) {
        if let Err(e) = t.write_jsonl(path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for reason in out.failures.iter().take(REASONS_SHOWN) {
        eprintln!("perfbench: check failed: {reason}");
    }
    let list = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let line = match metrics::result_line(failed == 0, out.attempted, failed, list, &out.values) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={cores} threads={threads} \
         cold_samples={} warm_samples={} campaign_unrecovered_midway={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.values.get("samples.cold").copied().unwrap_or(0.0),
        out.values.get("samples.warm").copied().unwrap_or(0.0),
        out.values
            .get("campaign.unrecovered_midway")
            .copied()
            .unwrap_or(0.0),
    );
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
