//! In-memory span recorder for the traced mode.
//!
//! A span is `{id, parent, run, name, start, end}`, timed from outside
//! around one call into a layer (or one chunk of calls, for layers whose
//! calls are too short to time one by one). Self time — a span's duration
//! minus the part its child spans cover — and per-layer counts are folded
//! from every span as it closes; the first [`KEPT_SPANS`] spans are also
//! kept whole and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole replay pass (the benchmark's own BFS loop).
    Replay,
    /// One breadth-first layer of the replay.
    BfsLayer,
    /// `PackedCtx::edge_digest_cached`: the read-only successor preview.
    EdgeDigest,
    /// `PackedCtx::step_cached`: materialising an admitted successor.
    Step,
    /// `ClaimTable::admit`: the committer's authoritative seen set.
    ClaimAdmit,
    /// `ClaimTable::claim` on one thread, in chunks.
    ClaimT1,
    /// `ClaimTable::claim` on `nproc` racing threads, in chunks.
    ClaimTn,
    /// `FpSet::admit`, the budgeted seen set, in chunks.
    FpsetAdmit,
    /// `encode_delta` against the previous admitted state.
    DeltaEncode,
    /// `apply_delta_into`, decoding it back.
    DeltaApply,
    /// `StateChainEncoder::push` per state plus `encode_frame` per batch.
    FrameEncode,
    /// `decode_frame_exact` plus the chain decode of one batch.
    FrameDecode,
    /// `Snapshot::write` (with fsync).
    SnapshotWrite,
    /// `Snapshot::read`.
    SnapshotRead,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 14;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Replay,
        Layer::BfsLayer,
        Layer::EdgeDigest,
        Layer::Step,
        Layer::ClaimAdmit,
        Layer::ClaimT1,
        Layer::ClaimTn,
        Layer::FpsetAdmit,
        Layer::DeltaEncode,
        Layer::DeltaApply,
        Layer::FrameEncode,
        Layer::FrameDecode,
        Layer::SnapshotWrite,
        Layer::SnapshotRead,
    ];

    /// The span name, which prefixes the layer's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::BfsLayer => "replay.layer",
            Layer::EdgeDigest => "packed.edge_digest",
            Layer::Step => "packed.step",
            Layer::ClaimAdmit => "claim.admit",
            Layer::ClaimT1 => "claim.claim_t1",
            Layer::ClaimTn => "claim.claim_tn",
            Layer::FpsetAdmit => "fpset.admit",
            Layer::DeltaEncode => "delta.encode",
            Layer::DeltaApply => "delta.apply",
            Layer::FrameEncode => "frame.encode",
            Layer::FrameDecode => "frame.decode",
            Layer::SnapshotWrite => "snapshot.write",
            Layer::SnapshotRead => "snapshot.read",
        }
    }
}

/// Spans kept whole per recorder; beyond this only the totals grow.
pub const KEPT_SPANS: usize = 1 << 18;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within its recorder's run.
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// Run id shared by every span of one pass.
    pub run: u32,
    /// Layer.
    pub layer: Layer,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// Folded numbers of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Operations covered (calls, or calls per chunk summed).
    pub ops: u64,
    /// Self time.
    pub self_ns: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// The recorder of one pass on one thread. When off, every call runs
/// untimed, so the same code serves the untraced baseline pass.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    run: u32,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: [Totals; LAYERS],
}

impl Recorder {
    /// A recorder for pass `run`, timing from `epoch`; `on = false` records
    /// nothing.
    pub fn new(on: bool, epoch: Instant, run: u32) -> Self {
        Recorder {
            on,
            epoch,
            run,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: [Totals::default(); LAYERS],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn finish(
        &mut self,
        layer: Layer,
        id: u32,
        start_ns: u64,
        end_ns: u64,
        child_ns: u64,
        ops: u64,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[layer as usize];
        t.ops += ops;
        t.self_ns += dur.saturating_sub(child_ns);
        let parent = match self.stack.last_mut() {
            Some(open) => {
                open.child_ns += dur;
                open.id
            }
            None => 0,
        };
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                id,
                parent,
                run: self.run,
                layer,
                start_ns,
                end_ns,
            });
        }
    }

    /// Opens a span that encloses further spans; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let start_ns = self.now();
        self.stack.push(Open {
            id: self.next_id,
            layer,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span, counting `ops` operations for it.
    pub fn close(&mut self, ops: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let open = self.stack.pop().expect("close matches an open span");
        self.finish(
            open.layer,
            open.id,
            open.start_ns,
            end_ns,
            open.child_ns,
            ops,
        );
    }

    /// Runs `f` inside a leaf span of `layer` covering `ops` operations.
    #[inline]
    pub fn leaf<T>(&mut self, layer: Layer, ops: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.next_id += 1;
        let id = self.next_id;
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.finish(layer, id, start_ns, end_ns, 0, ops);
        out
    }

    /// Folded numbers of `layer`.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// Takes in another recorder's spans and totals (a probe thread's).
    pub fn absorb(&mut self, other: Recorder) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            mine.ops += theirs.ops;
            mine.self_ns += theirs.self_ns;
        }
        let room = KEPT_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Spans kept whole.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as tab-separated
    /// `run id parent name start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.run,
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_fold() {
        let mut rec = Recorder::new(true, Instant::now(), 1);
        rec.open(Layer::Replay);
        for _ in 0..3 {
            rec.leaf(Layer::Step, 2, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        rec.close(1);
        let step = rec.totals(Layer::Step);
        let replay = rec.totals(Layer::Replay);
        assert_eq!(step.ops, 6);
        assert!(step.self_ns >= 6_000_000);
        assert!(replay.self_ns < step.self_ns, "children are not self time");
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.layer == Layer::Replay).unwrap();
        assert_eq!(root.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.layer == Layer::Step)
            .all(|s| s.parent == root.id && s.run == 1));
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 1);
        rec.open(Layer::Replay);
        assert_eq!(rec.leaf(Layer::Step, 1, || 7), 7);
        rec.close(1);
        assert_eq!(rec.totals(Layer::Step).ops, 0);
        assert!(rec.spans().is_empty());
    }
}
