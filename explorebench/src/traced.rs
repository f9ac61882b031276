//! The traced mode (`--trace 1`): the per-layer numbers.
//!
//! Two sources, both outside the program:
//! - the public `ExploreStats` telemetry of one engine run at 1 and one at
//!   `nproc` workers (shards on the sharded workload);
//! - spans around the public layer calls of the benchmark's own replay of
//!   the workload's space, plus seen-set and snapshot probes fed from it.

use crate::replay::{claim_probe, fpset_probe, replay, snapshot_of, snapshot_probe, ReplayOut};
use crate::report::Report;
use crate::spans::{Layer, Recorder};
use crate::timed::{prepare, RunOptions};
use crate::workload::{explore, hw_threads, Engine, Pin, ProtocolBody, Verifier, Workload};
use cbh_model::Protocol;
use cbh_verify::checker::ExploreStats;
use std::time::Instant;

/// Snapshot write/read round trips per traced run.
const SNAPSHOT_REPS: usize = 3;

/// The traced run of one workload.
pub struct Traced<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Settings.
    pub opts: &'a RunOptions,
    /// Human-readable lines printed before the result line.
    pub lines: &'a mut Vec<String>,
}

/// The layers on the engine's 1-worker path for `engine`: their self time
/// is what the engine's own time is explained by.
fn engine_path(engine: Engine) -> &'static [Layer] {
    match engine {
        Engine::InMemory => &[Layer::EdgeDigest, Layer::Step, Layer::ClaimAdmit],
        Engine::Budgeted => &[
            Layer::EdgeDigest,
            Layer::Step,
            Layer::FpsetAdmit,
            Layer::DeltaEncode,
            Layer::DeltaApply,
        ],
        Engine::Sharded => &[
            Layer::EdgeDigest,
            Layer::Step,
            Layer::ClaimAdmit,
            Layer::FrameEncode,
            Layer::FrameDecode,
        ],
    }
}

/// The `ExploreStats` telemetry of one engine run (`NaN`s when the run
/// failed, which the result line then carries as nulls).
fn push_stats(report: &mut Report, suffix: &str, s: Option<ExploreStats>) {
    type Field = fn(&ExploreStats) -> f64;
    let rows: [(&str, &'static str, Field); 9] = [
        ("packed.intern_resident_bytes", "B", |s| {
            s.intern_resident_bytes as f64
        }),
        ("frontier.peak_resident_bytes", "B", |s| {
            s.peak_resident_bytes as f64
        }),
        ("frontier.bytes_spilled", "B", |s| s.bytes_spilled as f64),
        ("fpset.seen_resident_bytes", "B", |s| {
            s.seen_resident_bytes as f64
        }),
        ("fpset.disk_bytes", "B", |s| s.fpset_disk_bytes as f64),
        ("snapshot.bytes", "B", |s| s.checkpoint_bytes as f64),
        ("dist.frames", "count", |s| s.frames_exchanged as f64),
        ("dist.frame_bytes", "B", |s| s.frame_bytes as f64),
        ("dist.frame_bytes_per_config", "B/config", |s| {
            s.frame_bytes as f64 / s.configs.max(1) as f64
        }),
    ];
    for (name, unit, field) in rows {
        report.push(
            format!("{name}.{suffix}"),
            unit,
            s.as_ref().map_or(f64::NAN, field),
        );
    }
}

/// Checks a replay pass against the engine's result and its own round
/// trips.
fn check_replay(
    verify: &mut Verifier,
    what: &str,
    r: &Result<ReplayOut, String>,
    want: Option<Pin>,
) {
    let ok = match r {
        Ok(out) => {
            out.pin == want && want.is_some() && out.defects == 0 && out.codec_mismatches == 0
        }
        Err(_) => false,
    };
    verify.expect(what, ok, || match r {
        Ok(out) => format!(
            "pin {:?} (engine {want:?}), {} defects, {} codec mismatches",
            out.pin, out.defects, out.codec_mismatches
        ),
        Err(e) => e.clone(),
    });
}

impl ProtocolBody for Traced<'_> {
    type Out = Report;

    fn run<P: Protocol, F: Fn() -> P>(self, make: F) -> Report
    where
        P::Proc: Send + Sync,
    {
        let w = self.w;
        let opts = self.opts;
        let hw = hw_threads();
        let mut verify = Verifier::new(w, opts.seed, opts.forge_pin);
        let p = prepare(w, make(), opts.seed, &mut verify);
        let checkpoint = opts.workdir.join("checkpoint.snap");

        // Engine telemetry at both widths; the 1-wide run's time is the
        // denominator of the unattributed share.
        let t = Instant::now();
        let r1 = explore(w, &p.protocol, &p.inputs, 1, p.budget, &checkpoint);
        let engine_w1_s = t.elapsed().as_secs_f64();
        let pin = r1.as_ref().ok().and_then(|(o, s)| Pin::of(o, s));
        let s1 = verify.check("1-wide run", w.depth, r1);
        let rn = explore(w, &p.protocol, &p.inputs, hw, p.budget, &checkpoint);
        let sn = verify.check(&format!("{hw}-wide run"), w.depth, rn);

        // Replay: untraced, then traced; the ratio is the tracing cost.
        let epoch = Instant::now();
        let mut off = Recorder::new(false, epoch, 1);
        let t = Instant::now();
        let untraced = replay(&p.protocol, &p.inputs, w.depth, &mut off);
        let untraced_s = t.elapsed().as_secs_f64();
        check_replay(&mut verify, "untraced replay", &untraced, pin);
        drop(untraced);
        let mut rec = Recorder::new(true, epoch, 1);
        let t = Instant::now();
        let traced = replay(&p.protocol, &p.inputs, w.depth, &mut rec);
        let traced_s = t.elapsed().as_secs_f64();
        check_replay(&mut verify, "traced replay", &traced, pin);
        let out = traced.unwrap_or_default();
        let configs = out.pin.map_or(0, |p| p.configs as u64);

        // Seen-set probes over the recorded fingerprint stream.
        let (t1, new1) = claim_probe(&out.stream, 1, Layer::ClaimT1, epoch, 100);
        rec.absorb(t1);
        let (tn, newn) = claim_probe(&out.stream, hw, Layer::ClaimTn, epoch, 200);
        rec.absorb(tn);
        verify.expect("claim probe", new1 == configs && newn == configs, || {
            format!("{new1} (1 thread) and {newn} ({hw} threads) new claims for {configs} configs")
        });
        let fresh = fpset_probe(&out.stream, p.budget, &mut rec);
        verify.expect("fpset probe", fresh == Ok(configs), || {
            format!("{fresh:?} new of {configs}")
        });

        // Snapshot round trips of the replayed run's final checkpoint.
        let snap_path = opts.workdir.join("replay.snap");
        let snap = snapshot_of(&p.protocol, &p.inputs, w.depth, &out)
            .ok_or_else(|| "no replay result".to_string())
            .and_then(|s| snapshot_probe(&s, &snap_path, SNAPSHOT_REPS, &mut rec));
        verify.expect("snapshot probe", matches!(snap, Ok((_, 0))), || {
            format!("{snap:?}")
        });
        let snap_mb = snap.map_or(0, |(b, _)| b) as f64 / 1e6;

        let spans_path = opts
            .workdir
            .parent()
            .map(|d| d.join(format!("{}.spans.tsv", w.name)));
        if let Some(path) = &spans_path {
            if let Err(e) = rec.write_tsv(path) {
                self.lines.push(format!(
                    "  could not write spans to {}: {e}",
                    path.display()
                ));
            }
        }

        let mut report = Report {
            attempted: verify.attempted,
            failed: verify.failed,
            metrics: Vec::new(),
        };
        push_stats(&mut report, "w1", s1);
        push_stats(&mut report, "wn", sn);
        // The replay loop's own spans are summed into `replay.self_ms`.
        let layers = Layer::ALL
            .into_iter()
            .filter(|l| !matches!(l, Layer::Replay | Layer::BfsLayer));
        for layer in layers {
            let t = rec.totals(layer);
            report.push(
                format!("{}.self_ms", layer.name()),
                "ms",
                t.self_ns as f64 / 1e6,
            );
            report.push(format!("{}.count", layer.name()), "count", t.ops as f64);
            report.push(
                format!("{}.ns_per_op", layer.name()),
                "ns/op",
                t.self_ns as f64 / t.ops.max(1) as f64,
            );
        }
        let per_mb = |layer: Layer| {
            rec.totals(layer).self_ns as f64 / 1e6 / (snap_mb * SNAPSHOT_REPS as f64)
        };
        report.push(
            "claim.new_ratio",
            "ratio",
            new1 as f64 / out.stream.len().max(1) as f64,
        );
        report.push(
            "delta.bytes_per_record",
            "B/record",
            out.delta_bytes as f64 / out.delta_records.max(1) as f64,
        );
        report.push(
            "frame.bytes_per_state",
            "B/state",
            out.frame_bytes as f64 / out.frame_states.max(1) as f64,
        );
        report.push(
            "snapshot.write_ms_per_mb",
            "ms/MB",
            per_mb(Layer::SnapshotWrite),
        );
        report.push(
            "snapshot.read_ms_per_mb",
            "ms/MB",
            per_mb(Layer::SnapshotRead),
        );
        let replay_self = rec.totals(Layer::Replay).self_ns + rec.totals(Layer::BfsLayer).self_ns;
        report.push("replay.self_ms", "ms", replay_self as f64 / 1e6);
        let attributed: u64 = engine_path(w.engine)
            .iter()
            .map(|l| rec.totals(*l).self_ns)
            .sum();
        report.push("engine.w1_s", "s", engine_w1_s);
        // Span timing inflates layer self time; deflate it by the measured
        // tracing overhead before setting it against the untraced engine.
        let attributed_s = attributed as f64 / 1e9 * untraced_s / traced_s;
        report.push(
            "trace.unattributed_frac",
            "frac",
            1.0 - attributed_s / engine_w1_s,
        );
        report.push("trace.overhead_frac", "frac", traced_s / untraced_s - 1.0);

        self.lines.push(format!(
            "workload {} seed {} inputs {:?} depth {} engine {:?} hw_threads {hw} budget {:?}",
            w.name, opts.seed, p.inputs, w.depth, w.engine, p.budget
        ));
        self.lines.push(format!(
            "  replay untraced {untraced_s:.4} s, traced {traced_s:.4} s, engine 1-wide {engine_w1_s:.4} s, {} spans kept{}",
            rec.spans().len(),
            spans_path.map_or(String::new(), |p| format!(" in {}", p.display()))
        ));
        self.lines.push(format!(
            "  {:<20} {:>12} {:>12} {:>10}",
            "layer", "self_ms", "count", "ns/op"
        ));
        for layer in Layer::ALL {
            let t = rec.totals(layer);
            self.lines.push(format!(
                "  {:<20} {:>12.3} {:>12} {:>10.1}",
                layer.name(),
                t.self_ns as f64 / 1e6,
                t.ops,
                t.self_ns as f64 / t.ops.max(1) as f64
            ));
        }
        for f in &verify.failures {
            self.lines.push(format!("  FAILED {f}"));
        }
        report
    }
}
