//! The end-to-end mode (`--trace 0`): set-up, then timed explorations at 1
//! and `nproc` workers until the run's time is spent, every verdict checked.

use crate::report::{median, quantile, Report};
use crate::workload::{
    budget_from, explore, explore_unbounded, hw_threads, inputs, Engine, Pin, ProtocolBody,
    Verifier, Workload,
};
use cbh_model::Protocol;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Settings shared by both modes.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed explorations.
    pub seconds: f64,
    /// Corrupt the golden pins (self-test of the gate).
    pub forge_pin: bool,
    /// Scratch directory for checkpoints, spill files and snapshots.
    pub workdir: PathBuf,
    /// When the process started (the first set-up is timed from here).
    pub started: Instant,
}

/// A set-up pass's product: the constructed protocol, its inputs and, on
/// the budgeted workload, the memory budget.
pub struct Prepared<P> {
    /// The protocol.
    pub protocol: P,
    /// Its input vector.
    pub inputs: Vec<u64>,
    /// Memory budget of the budgeted workload.
    pub budget: Option<usize>,
}

/// One set-up pass: construct the protocol, derive the inputs from the
/// seed, and run the warm-up exploration (checked like any other). On the
/// budgeted workload the warm-up is the unbounded run at full depth that
/// sizes the budget.
pub fn prepare<P: Protocol>(
    w: &Workload,
    protocol: P,
    seed: u64,
    verify: &mut Verifier,
) -> Prepared<P>
where
    P::Proc: Send + Sync,
{
    let inputs = inputs(w.family.n(), seed);
    let warm = explore_unbounded(&protocol, &inputs, w.warmup_depth);
    let stats = verify.check("warm-up", w.warmup_depth, warm);
    let budget = match (w.engine, stats) {
        (Engine::Budgeted, Some(s)) => Some(budget_from(s.peak_resident_bytes)),
        // A failed sizing run leaves the budgeted runs unbudgeted; they
        // still verify, and the failure is already counted.
        _ => None,
    };
    Prepared {
        protocol,
        inputs,
        budget,
    }
}

/// The end-to-end run of one workload.
pub struct Timed<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Settings.
    pub opts: &'a RunOptions,
    /// Human-readable lines printed before the result line.
    pub lines: &'a mut Vec<String>,
}

impl ProtocolBody for Timed<'_> {
    type Out = Report;

    fn run<P: Protocol, F: Fn() -> P>(self, make: F) -> Report
    where
        P::Proc: Send + Sync,
    {
        let Timed { w, opts, lines } = self;
        let hw = hw_threads();
        let mut verify = Verifier::new(w, opts.seed, opts.forge_pin);

        // Set-up: one pass timed from process start, then one more before
        // every timed pair, so the passes spread over the run like the
        // timed explorations do and `setup_s`, their median, averages over
        // the same drift in host load.
        let mut setups = vec![];
        let p = prepare(w, make(), opts.seed, &mut verify);
        setups.push(opts.started.elapsed().as_secs_f64());

        // Timed explorations, each in a fresh child process so that its
        // resident peak is its own: pairs of (1, nproc), alternating which
        // goes first so drift in host load falls on both cells alike. A
        // pair is started only if it is expected to end within the run's
        // time.
        let mut w1 = Vec::new();
        let mut wn = Vec::new();
        let mut rss_w1 = Vec::new();
        let mut rss = Vec::new();
        let start = Instant::now();
        for pair in 0.. {
            if pair > 0 {
                let t = Instant::now();
                prepare(w, make(), opts.seed, &mut verify);
                setups.push(t.elapsed().as_secs_f64());
            }
            let widths = if pair % 2 == 0 { [1, hw] } else { [hw, 1] };
            for width in widths {
                let cell = run_cell_child(w, opts, width, p.budget);
                let pin = cell.as_ref().map(|c| c.pin).map_err(Clone::clone);
                if verify.check_pin(&format!("{width}-wide run"), w.depth, pin) {
                    let c = cell.expect("a passing cell has a result");
                    if width == 1 {
                        w1.push(c.secs);
                        rss_w1.push(c.rss_mb);
                    } else {
                        wn.push(c.secs);
                        rss.push(c.rss_mb);
                    }
                }
            }
            let spent = start.elapsed().as_secs_f64();
            if spent + spent / (pair + 1) as f64 > opts.seconds {
                break;
            }
        }
        if hw == 1 {
            // Both cells ran 1-wide; each is a sample of either.
            wn = w1.clone();
            rss = rss_w1.clone();
        }

        lines.push(format!(
            "workload {} seed {} inputs {:?} depth {} engine {:?} hw_threads {hw} budget {:?}",
            w.name, opts.seed, p.inputs, w.depth, w.engine, p.budget
        ));
        for (name, xs) in [
            ("verdict_s", &wn),
            ("verdict_s_w1", &w1),
            ("setup_s", &setups),
            ("peak_rss_mb", &rss),
            ("peak_rss_w1", &rss_w1),
        ] {
            lines.push(format!(
                "  {name:<13} median {:.4}  p25 {:.4}  p75 {:.4}  max {:.4}  n={}",
                median(xs),
                quantile(xs, 0.25),
                quantile(xs, 0.75),
                quantile(xs, 1.0),
                xs.len()
            ));
            let samples: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
            lines.push(format!("    in run order: {}", samples.join(" ")));
        }
        for f in &verify.failures {
            lines.push(format!("  FAILED {f}"));
        }
        lines.push(format!(
            "  failed_frac   {} ({} of {} explorations)",
            verify.failed as f64 / verify.attempted.max(1) as f64,
            verify.failed,
            verify.attempted
        ));

        let mut report = Report {
            attempted: verify.attempted,
            failed: verify.failed,
            metrics: Vec::new(),
        };
        report.push("verdict_s", "s", median(&wn));
        report.push("verdict_s_w1", "s", median(&w1));
        report.push("peak_rss_mb", "MB", median(&rss));
        report.push("setup_s", "s", median(&setups));
        report.push("verified_frac", "frac", verify.verified_frac());
        report
    }
}

/// What one timed exploration reported.
#[derive(Debug, Clone)]
struct CellResult {
    /// Wall seconds from the explore call to the verdict.
    secs: f64,
    /// The exploring process's high-water resident set, MB.
    rss_mb: f64,
    /// The exploration's semantic result.
    pin: Pin,
}

/// Runs one timed exploration of `w` at `width` in a child process (this
/// binary with `--cell`) and waits for it.
fn run_cell_child(
    w: &Workload,
    opts: &RunOptions,
    width: usize,
    budget: Option<usize>,
) -> Result<CellResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--cell")
        .arg(width.to_string())
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--workdir")
        .arg(&opts.workdir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(b) = budget {
        cmd.args(["--budget", &b.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    parse_cell_line(line).ok_or_else(|| format!("child exited {} with {line:?}", out.status))
}

/// The child's side of [`run_cell_child`]: one exploration, one line.
pub struct Cell<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Workload seed.
    pub seed: u64,
    /// Workers (shards).
    pub width: usize,
    /// The budgeted workload's memory budget.
    pub budget: Option<usize>,
    /// Where the budgeted workload checkpoints.
    pub checkpoint: PathBuf,
}

impl ProtocolBody for Cell<'_> {
    type Out = String;

    fn run<P: Protocol, F: Fn() -> P>(self, make: F) -> String
    where
        P::Proc: Send + Sync,
    {
        let protocol = make();
        let inputs = inputs(self.w.family.n(), self.seed);
        let t = Instant::now();
        let r = explore(
            self.w,
            &protocol,
            &inputs,
            self.width,
            self.budget,
            &self.checkpoint,
        );
        let secs = t.elapsed().as_secs_f64();
        match r {
            Ok((outcome, stats)) => match Pin::of(&outcome, &stats) {
                Some(p) => format!(
                    "ok {secs} {} {} {} {} {}",
                    peak_rss_mb(),
                    p.configs,
                    p.complete,
                    p.frontier_peak,
                    p.depth_reached
                ),
                None => format!("err verdict is not clean: {outcome:?}"),
            },
            Err(e) => format!("err exploration errored: {e}"),
        }
    }
}

fn parse_cell_line(line: &str) -> Option<CellResult> {
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.first() != Some(&"ok") || f.len() != 7 {
        return None;
    }
    Some(CellResult {
        secs: f[1].parse().ok()?,
        rss_mb: f[2].parse().ok()?,
        pin: Pin {
            configs: f[3].parse().ok()?,
            complete: f[4].parse().ok()?,
            frontier_peak: f[5].parse().ok()?,
            depth_reached: f[6].parse().ok()?,
        },
    })
}

/// Process high-water resident set in MB, from `/proc/self/status`
/// (`NaN` where that is unavailable, which fails the result line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
