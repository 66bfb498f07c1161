//! cocabench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path cocabench/Cargo.toml -- \
//!     --workload serve-f32|serve-durable-i8|sim-churn|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints human-readable lines, then one JSON result line per workload:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails. See `README.md`.

mod gen;
mod report;
mod serve;
mod sim;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOAD_LAYER};
use serve::Serve;

const WORKLOADS: &[&str] = &["serve-f32", "serve-durable-i8", "sim-churn"];

/// Environment knobs the repository's config reads; the benchmark runs
/// the defaults whatever the caller's environment says.
const CONFIG_ENV: &[&str] = &[
    "COCA_MERGE_MODE",
    "COCA_FLUSH_POLICY",
    "COCA_PARALLEL_MERGE",
    "COCA_PRECISION",
    "COCA_WAL_ROTATE",
    "COCA_FSYNC",
    "COCA_CRASH_AT",
    "COCA_CRASH_FAULT",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {}, all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match name {
        "serve-f32" => serve::run(Serve::F32, args.seed, args.seconds, args.trace, &mut out),
        "serve-durable-i8" => serve::run(
            Serve::DurableI8,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "sim-churn" => sim::run(args.seed, args.seconds, args.trace, &mut out),
        _ => unreachable!("workload names are checked at parse time"),
    }
    match report::peak_rss_mb() {
        Some(mb) => {
            out.set("peak_rss_mb", mb);
            out.set("process.peak_rss_mb", mb);
        }
        None => out.fail("cannot read peak RSS from /proc/self/status"),
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cocabench: {e}");
            std::process::exit(2);
        }
    };
    for var in CONFIG_ENV {
        std::env::remove_var(var);
    }
    let (registry, printed): (_, &[&[(&str, &str)]]) = if args.trace {
        (PER_LAYER, &[PER_LAYER, WORKLOAD_LAYER])
    } else {
        (END_TO_END, &[END_TO_END])
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        // Peak RSS is per process: a multi-workload invocation reports
        // the high-water mark so far.
        let mut out = run_workload(name, &args);
        let json = out.json(registry);
        print!("{}", out.render(name, printed));
        println!("{json}");
        all_correct &= out.correct();
    }
    if !all_correct {
        std::process::exit(1);
    }
}
