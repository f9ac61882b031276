//! `explorebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 if any
//! exploration or layer round trip failed its check, 2 on bad arguments.
//! `--forge-pin` corrupts the golden pins, which must make the run fail.
//! `--cell <width> --workdir <dir> [--budget <bytes>]` is the child the
//! end-to-end mode runs each timed exploration in.

use explorebench::report::Report;
use explorebench::timed::{Cell, RunOptions, Timed};
use explorebench::traced::Traced;
use explorebench::workload::{find, with_protocol, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("explorebench: {why}");
    eprintln!(
        "usage: explorebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--forge-pin]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(w) = value("--workload").and_then(find) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").map_or(Some(0), |s| s.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = value("--seconds").map_or(Some(10.0), |s| s.parse::<f64>().ok()) else {
        return usage("--seconds takes a number");
    };
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    // A timed exploration the end-to-end mode runs in a child process.
    if let Some(width) = value("--cell") {
        let (Ok(width), Some(workdir)) = (width.parse::<usize>(), value("--workdir")) else {
            return usage("--cell takes a width and --workdir");
        };
        let budget = value("--budget").and_then(|b| b.parse().ok());
        let checkpoint = PathBuf::from(workdir).join(format!("checkpoint-{width}.snap"));
        let cell = Cell {
            w,
            seed,
            width: width.max(1),
            budget,
            checkpoint,
        };
        println!("{}", with_protocol(w.family, cell));
        return ExitCode::SUCCESS;
    }

    // Every file the run writes (checkpoints, spill runs, snapshots, span
    // dumps) stays under the benchmark's own directory.
    let outdir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let workdir = outdir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("explorebench: cannot create {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    // Set before any thread exists: the engines read it when they open a
    // spill arena.
    std::env::set_var("CBH_SPILL_DIR", &workdir);

    let opts = RunOptions {
        seed,
        seconds,
        forge_pin: args.iter().any(|a| a == "--forge-pin"),
        workdir: workdir.clone(),
        started,
    };
    let mut lines = Vec::new();
    let report: Report = if trace {
        with_protocol(
            w.family,
            Traced {
                w,
                opts: &opts,
                lines: &mut lines,
            },
        )
    } else {
        with_protocol(
            w.family,
            Timed {
                w,
                opts: &opts,
                lines: &mut lines,
            },
        )
    };
    let _ = std::fs::remove_dir_all(&workdir);

    for line in &lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("  {:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
