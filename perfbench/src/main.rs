//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <docgen|service|edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of closed-loop ops built from
//! `--seed`, checks every output, and prints context lines followed by one
//! JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run records spans on a
//! share of its ops and writes them to `perfbench/out/` as JSON lines.
//! End-to-end times are normalized to nominal host speed by a fixed unit
//! of reference work timed through the run (`hostspeed`).
//! `perfbench/LAYERS.md` says what each workload stresses and which
//! end-to-end metric each layer metric should move.

mod docgen_wl;
mod edit_wl;
mod hostspeed;
mod queries;
mod report;
mod sched;
mod service_wl;
mod stats;
mod trace;

use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "docgen" => docgen_wl::run(&args),
        "service" => service_wl::run(&args),
        "edit" => edit_wl::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (docgen, service, edit)");
            return ExitCode::from(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload: {}", args.workload);
    println!("seed: {}", args.seed);
    println!("seconds: {}", args.seconds);
    println!("nproc: {nproc}");
    println!(
        "latencies: wall clock on this host, divided by the host's slowdown on the reference work; service requests cross loopback TCP"
    );
    println!(
        "setup_s: median of {} set-ups: {:?}",
        report.setups_s.len(),
        report.setups_s
    );
    println!(
        "ops: {} completed in {} s of timed wall clock",
        report.completed, report.wall_s
    );
    println!("peak resident set: {} MB", report::peak_rss_mb());
    for line in report.context_lines(args.trace) {
        println!("{line}");
    }
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::write(&path, trace::to_jsonl(&report.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", report.spans.len()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    let metrics = if args.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    for (name, unit, value) in &metrics {
        println!("{name}: {value} {unit}");
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        report::result_json(correct, report.attempted, report.failed, &metrics)
    );
    ExitCode::SUCCESS
}
