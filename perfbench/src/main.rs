//! End-to-end and per-layer benchmark of the Shortcut Mining reproduction.
//!
//! ```text
//! perfbench --workload <figures|verify>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --print-digests
//! ```
//!
//! One process drives the library's public entry points. With `--trace 0`
//! it times the workload's fixed job repeatedly for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it times calls into each
//! crate's public functions from this file set and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! `--print-digests` prints the per-table digests of one regeneration, the
//! format of `reference/tables.fnv` (refresh it only after an intended
//! change to a rendered table).

mod figures;
mod serve;
mod trace;
mod util;
mod verify;

use std::process::ExitCode;

use util::{median, peak_rss_mib, percentile, Report};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    Verify,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "figures" => Workload::Figures,
            "verify" => Workload::Verify,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Verify => "verify",
        }
    }
}

/// Checked command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What an untraced workload run measured.
#[derive(Debug, Default)]
struct Outcome {
    /// Wall time of each set-up repetition.
    setup_s: Vec<f64>,
    /// Wall time of each fixed job.
    job_s: Vec<f64>,
    /// Latency of every op of every job.
    op_ms: Vec<f64>,
    /// Ops whose output failed its check.
    failed: u64,
}

fn run_untraced(args: &Args) -> Report {
    let out = match args.workload {
        Workload::Figures => figures::run(args.seconds),
        Workload::Verify => verify::run(args.seed, args.seconds),
    };
    let attempted = out.op_ms.len() as u64;
    let (gap_pp, speedup_gap) = figures::paper_gaps();
    let mut report = Report::new(attempted, out.failed);
    report.metric("setup_s", median(&out.setup_s), "s");
    report.metric("wall_s", median(&out.job_s), "s");
    report.metric("op_p50_ms", percentile(&out.op_ms, 0.5), "ms");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("paper_gap_pp", gap_pp, "pp");
    report.metric("paper_speedup_gap", speedup_gap, "x");
    println!(
        "# {}: {} jobs, {} ops, op_p90 {:.3} ms, failed_ratio {} ({} of {})",
        args.workload.name(),
        out.job_s.len(),
        attempted,
        percentile(&out.op_ms, 0.9),
        report.failed_ratio(),
        out.failed,
        attempted
    );
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-digests"] {
        figures::print_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // One process, pool threads = nproc; the traced run's serve jobs add
    // max_inflight = nproc and a closed loop of nproc outstanding requests.
    sm_core::parallel::set_threads(Some(nproc));
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} pool_threads={} \
         max_inflight={} rustc={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        sm_core::parallel::threads(),
        nproc,
        env!("PERFBENCH_RUSTC"),
    );
    println!("# {}", figures::LEFT_OUT);
    let result = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        Ok(run_untraced(&args))
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
