//! The packed work-stealing explorer: the production state-space engine.
//!
//! # Architecture
//!
//! The engine splits exploration into a **speculative parallel phase** and a
//! **deterministic sequential commit**:
//!
//! - **Workers** own per-worker deques of expansion tasks and steal from
//!   each other when idle. A task is one admitted configuration (a flat
//!   [`PackedState`]); the worker walks its outgoing edges with the
//!   *read-only* [`PackedCtx::edge_digest`] preview (no mutation, no undo)
//!   through a thread-local [`PackedCache`] over the shared intern tables,
//!   runs the optional solo probes, and — when an edge's successor digest
//!   wins its claim in the lock-free [`ClaimTable`] — speculatively
//!   materialises the successor (a flat clone plus one in-place step) so
//!   the committer usually receives admitted children ready-made.
//! - The **committer** (the calling thread) consumes one result per node
//!   *in admission-index order* and replays, verbatim, the sequential
//!   algorithm of the clone-based reference BFS: authoritative admission
//!   (the claim table's committed bitmap — see [`crate::claim`]),
//!   `max_configs` accounting, violation selection, parent-link
//!   construction, layer bookkeeping. Every order-sensitive decision is made
//!   here, single-threaded, on a totally ordered stream. While a result it
//!   needs is still being computed, the committer *helps*: it pops and
//!   expands backlogged batches itself instead of sleeping.
//!
//! # Determinism argument
//!
//! The admission index of a node is assigned by the committer, and a node's
//! children are admitted only while committing that node — so index order
//! equals the reference BFS's admission order (layer by layer, frontier
//! order within a layer, pid order within a node) *by construction*,
//! independent of how worker threads raced. Workers influence only *when* a
//! result becomes available, never *what* the committer does with it;
//! speculative work past the committer's stopping point (a violation, the
//! config cap) is simply discarded. Hence `(ExploreOutcome, ExploreStats)`
//! — verdict, counterexample schedule, configuration count, frontier peak,
//! depth — are bit-identical at any worker count, and bit-identical to
//! [`crate::reference::reference_explore`]. The conformance oracle enforces
//! exactly this.
//!
//! Worker-side claims are advisory: a duplicate claim merely means a child
//! arrives unmaterialised and the committer derives it from the parent with
//! one packed step. Admissions, by contrast, are authoritative, and only the
//! committer performs them — the claim table keeps the two states separate,
//! so worker races can never affect what gets admitted. Intern-table ids
//! race between threads, but digests hash *content*, never ids, so outcomes
//! cannot observe interning order; the per-thread intern caches only
//! memoise those immutable entries and are equally unobservable.
//!
//! # Memory-bounded frontiers
//!
//! All three queues that scale with frontier width — the sequential
//! engine's admission queue, the pool's per-worker deques, and the
//! committer's reorder buffer — live in [`crate::frontier`] stores: within
//! [`ExploreLimits::memory_budget`] they are the plain in-memory structures
//! described above; past it, backlogs delta-compress
//! ([`cbh_model::packed::delta`]) into a temp-file arena and stream back.
//! Spilling only moves *where* a node waits, never the order the committer
//! consumes results in, so the determinism argument — and bit-identical
//! `(ExploreOutcome, ExploreStats)` — holds at any budget; the budgeted
//! runs additionally report [`ExploreStats::bytes_spilled`] and
//! [`ExploreStats::peak_resident_bytes`] (telemetry, excluded from stats
//! equality).

use crate::checker::{schedule_of, ExploreLimits, ExploreOutcome, ExploreStats, Link, NO_LINK};
use crate::claim::ClaimTable;
use crate::fpset::{AdmitSet, SeenBackend};
use crate::frontier::{FrontierStore, ReorderBuffer, SpillCodec, SpillContext, SpillError};
use crate::snapshot::{Snapshot, SnapshotError, NO_PARENT};
use cbh_model::packed::delta::{read_varint, write_varint};
use cbh_model::{apply_delta, apply_delta_into, decode_flat, encode_delta, encode_flat, PackedCache, PackedCtx,
    PackedState, Process, Protocol};
use cbh_sim::{Machine, SimError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// The snapshot wire format and the engine share the "no parent" sentinel, so
// links round-trip without translation.
const _: () = assert!(NO_PARENT == NO_LINK);

/// Tolerated overrun above [`ExploreLimits::memory_budget`] before the
/// engine gives up with [`SimError::Budget`]: covers the evictable stores'
/// bounded slack (in-flight double-buffered spill writes, one streamed-back
/// run, merge buffers) — the same envelope the budget-stress suite asserts
/// `peak_resident_bytes` stays within. Append-only intern tables that push
/// residency past it cannot be evicted, so continuing would silently break
/// the cap.
const BUDGET_OVERRUN_SLACK: usize = 4 << 20;

/// Periodic-checkpoint configuration threaded into the commit loop.
pub(crate) struct CheckpointCfg {
    /// Where the snapshot lands (atomically, via temp file + rename).
    pub(crate) path: PathBuf,
    /// Admissions between snapshots (≥ 1).
    pub(crate) every: u64,
    /// Keep a numbered copy (`<path>.ck0`, `<path>.ck1`, …) of every
    /// snapshot instead of overwriting — the kill-at-every-checkpoint
    /// matrix's hook.
    pub(crate) retain: bool,
    /// [`Protocol::name`] of the run, stored in the snapshot identity.
    pub(crate) protocol: String,
}

/// Snapshot failures surface through the engine's existing error type: they
/// are exploration-persistence failures exactly like spill-arena ones. The
/// typed [`SnapshotError`] detail rides in the message.
pub(crate) fn snapshot_sim_err(err: &SnapshotError) -> SimError {
    SimError::Spill {
        detail: format!("checkpoint: {err}"),
    }
}

/// Per-run constants every worker needs.
#[derive(Clone, Copy)]
pub(crate) struct RunCfg {
    pub(crate) solo_budget: Option<u64>,
    pub(crate) symmetric: bool,
    /// Budgeted runs bound each thread's intern cache to this many bytes;
    /// past it the cache is cleared wholesale (entries re-fetch from the
    /// shared tables on demand). `None` = unbounded, the historical
    /// behaviour of unbudgeted runs.
    pub(crate) cache_cap: Option<usize>,
}

/// Per-thread intern-cache byte cap under a memory budget: an eighth of the
/// budget, floored so tiny stress budgets don't thrash re-fetches.
pub(crate) fn cache_cap_of(memory_budget: Option<usize>) -> Option<usize> {
    memory_budget.map(|b| (b / 8).max(64 * 1024))
}

/// One admitted configuration awaiting expansion.
#[derive(Clone)]
pub(crate) struct Node {
    pub(crate) index: usize,
    pub(crate) state: PackedState,
    /// The node's own digest (base of the incremental edge previews).
    pub(crate) fp: u128,
    /// `false` for horizon nodes: only solo probes / activity reporting.
    pub(crate) expand: bool,
}

/// One unit of pool work: a batch of nodes (admission siblings ride
/// together, so the per-task synchronisation — deque push, wakeup, result
/// insertion — is paid once per batch instead of once per node).
type Batch = Vec<Node>;

/// Bounds on the adaptive batch size (see [`PoolSource::batch_target`]).
/// Batches amortise the pool's per-task mutex and condvar traffic, but a
/// batch also rides one deque slot — too coarse and a narrow frontier lands
/// on one worker while the rest starve. The committer therefore sizes each
/// batch from the live outstanding-node count instead of a fixed constant.
const MIN_BATCH: usize = 1;
const MAX_BATCH: usize = 64;

/// One outgoing edge of an expanded node, in pid order.
pub(crate) struct Edge {
    pub(crate) pid: usize,
    pub(crate) fp: u128,
    /// Speculatively materialised successor, present iff this worker won the
    /// claim on `fp`. `None` is always safe: the committer rematerialises
    /// from the parent on demand.
    pub(crate) child: Option<PackedState>,
}

/// What expanding one node produced.
pub(crate) struct Expansion {
    /// First active pid whose solo run failed to decide, if solo checks ran.
    pub(crate) solo_failure: Option<usize>,
    /// `true` if some process can still move (horizon completeness).
    pub(crate) has_active: bool,
    pub(crate) edges: Vec<Edge>,
}

struct NodeResult {
    /// The node's state, returned so the committer can derive unclaimed
    /// children from it.
    state: PackedState,
    out: Result<Expansion, SimError>,
}

// ---------------------------------------------------------------------------
// Spill codecs: how the engine's queues cross the memory/disk boundary
// ---------------------------------------------------------------------------

/// Encodes one node; `base` is the spill run's previous state (delta base).
/// The state rides last and unframed — both state decoders are strict, so
/// the record's end delimits it.
fn encode_node(node: &Node, base: Option<&PackedState>, out: &mut Vec<u8>) {
    write_varint(out, node.index as u64);
    out.extend_from_slice(&node.fp.to_le_bytes());
    out.push(u8::from(node.expand));
    match base {
        Some(base) => {
            out.push(1);
            encode_delta(base, &node.state, out);
        }
        None => {
            out.push(0);
            encode_flat(&node.state, out);
        }
    }
}

/// A spill record that does not parse; `what` names the failing field.
fn corrupt(what: &str, cause: impl std::fmt::Display) -> SpillError {
    SpillError::Corrupt {
        detail: format!("spill record {what}: {cause}"),
    }
}

/// Reads one varint field off the front of `bytes`.
fn take_varint(bytes: &mut &[u8], what: &str) -> Result<u64, SpillError> {
    read_varint(bytes).map_err(|e| corrupt(what, e))
}

/// Splits `len` bytes off the front of `bytes`.
fn take_bytes<'a>(bytes: &mut &'a [u8], len: usize, what: &str) -> Result<&'a [u8], SpillError> {
    if bytes.len() < len {
        return Err(corrupt(what, format!("wanted {len} bytes, {} left", bytes.len())));
    }
    let (head, rest) = bytes.split_at(len);
    *bytes = rest;
    Ok(head)
}

/// Reads a little-endian 128-bit fingerprint off the front of `bytes`.
fn take_fp(bytes: &mut &[u8]) -> Result<u128, SpillError> {
    let mut raw = [0u8; 16];
    raw.copy_from_slice(take_bytes(bytes, 16, "fingerprint")?);
    Ok(u128::from_le_bytes(raw))
}

/// Reads what [`encode_node`] writes ahead of the state: index, fingerprint,
/// expand flag and state tag.
fn decode_node_header(bytes: &mut &[u8]) -> Result<(usize, u128, bool, u8), SpillError> {
    let index = take_varint(bytes, "node index")? as usize;
    let fp = take_fp(bytes)?;
    let flags = take_bytes(bytes, 2, "node flags")?;
    Ok((index, fp, flags[0] != 0, flags[1]))
}

fn decode_node(mut bytes: &[u8], base: Option<&PackedState>) -> Result<Node, SpillError> {
    let (index, fp, expand, tag) = decode_node_header(&mut bytes)?;
    let state = match (tag, base) {
        (1, Some(base)) => apply_delta(base, bytes),
        (0, _) => decode_flat(bytes),
        _ => return Err(corrupt("node state", format!("tag {tag} with base {}", base.is_some()))),
    }
    .map_err(|e| corrupt("node state", e))?;
    Ok(Node {
        index,
        state,
        fp,
        expand,
    })
}

/// Codec for the sequential engine's admission queue: records chain across
/// the whole run, each state a delta against the previously spilled one.
pub(crate) struct NodeCodec;

impl SpillCodec for NodeCodec {
    type Item = Node;

    fn encode(&self, node: &Node, prev: Option<&Node>, out: &mut Vec<u8>) {
        encode_node(node, prev.map(|p| &p.state), out);
    }

    fn decode(&self, bytes: &[u8], prev: Option<&Node>) -> Result<Node, SpillError> {
        decode_node(bytes, prev.map(|p| &p.state))
    }

    /// Streamed-back records patch the chained base **in place** (a delta
    /// touches a handful of positions) and clone once to return — instead of
    /// building a state from the base and cloning it again for the chain.
    fn decode_step(&self, mut bytes: &[u8], prev: &mut Option<Node>) -> Result<Node, SpillError> {
        let Some(node) = prev else {
            let item = self.decode(bytes, None)?;
            *prev = Some(item.clone());
            return Ok(item);
        };
        let tag;
        (node.index, node.fp, node.expand, tag) = decode_node_header(&mut bytes)?;
        match tag {
            1 => apply_delta_into(&mut node.state, bytes),
            0 => decode_flat(bytes).map(|state| node.state = state),
            _ => return Err(corrupt("node state", format!("tag {tag}"))),
        }
        .map_err(|e| corrupt("node state", e))?;
        Ok(node.clone())
    }

    fn cost(&self, node: &Node) -> usize {
        std::mem::size_of::<Node>() + node.state.resident_bytes()
    }
}

/// Codec for the pool's per-worker deques: a record is a whole batch, its
/// nodes length-framed and delta-chained (admission siblings compress
/// against each other; the first node chains to the previous batch's last).
struct BatchCodec;

impl SpillCodec for BatchCodec {
    type Item = Batch;

    fn encode(&self, batch: &Batch, prev: Option<&Batch>, out: &mut Vec<u8>) {
        write_varint(out, batch.len() as u64);
        let mut base = prev.and_then(|b| b.last()).map(|n| &n.state);
        let mut record = Vec::new();
        for node in batch {
            record.clear();
            encode_node(node, base, &mut record);
            write_varint(out, record.len() as u64);
            out.extend_from_slice(&record);
            base = Some(&node.state);
        }
    }

    fn decode(&self, mut bytes: &[u8], prev: Option<&Batch>) -> Result<Batch, SpillError> {
        let count = take_varint(&mut bytes, "batch count")? as usize;
        // Every node takes at least a byte, so a forged count cannot make
        // this reserve more than the record's own length.
        let mut batch = Vec::with_capacity(count.min(bytes.len()));
        for _ in 0..count {
            let len = take_varint(&mut bytes, "batch framing")? as usize;
            let record = take_bytes(&mut bytes, len, "batch node")?;
            let base = batch.last().or_else(|| prev.and_then(|b: &Batch| b.last()));
            batch.push(decode_node(record, base.map(|n: &Node| &n.state))?);
        }
        if !bytes.is_empty() {
            return Err(corrupt("batch", format!("{} trailing bytes", bytes.len())));
        }
        Ok(batch)
    }

    /// Only the chain's *last* node ever serves as a delta base, so keep a
    /// one-node stub instead of cloning the whole batch between records.
    fn decode_step(&self, bytes: &[u8], prev: &mut Option<Batch>) -> Result<Batch, SpillError> {
        let batch = self.decode(bytes, prev.as_ref())?;
        // An empty batch leaves the chain where it was, exactly as `encode`
        // leaves its base untouched when it writes zero nodes.
        if let Some(last) = batch.last() {
            *prev = Some(vec![last.clone()]);
        }
        Ok(batch)
    }

    fn cost(&self, batch: &Batch) -> usize {
        batch
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.state.resident_bytes())
            .sum()
    }
}

/// Codec for the committer's reorder buffer. Records never chain: the
/// buffer parks them back to back in one arena run per burst but reads each
/// back on its own, so the parent state is flat-encoded and each
/// speculatively materialised child is a delta against it — one step away,
/// so a few bytes each. Error results are never spilled (the
/// committer consumes and propagates them immediately).
struct ResultCodec;

impl SpillCodec for ResultCodec {
    type Item = NodeResult;

    fn encode(&self, result: &NodeResult, _prev: Option<&NodeResult>, out: &mut Vec<u8>) {
        let expansion = result
            .out
            .as_ref()
            .expect("error results are unspillable");
        let mut state_bytes = Vec::new();
        encode_flat(&result.state, &mut state_bytes);
        write_varint(out, state_bytes.len() as u64);
        out.extend_from_slice(&state_bytes);
        out.push(u8::from(expansion.has_active));
        match expansion.solo_failure {
            None => out.push(0),
            Some(pid) => {
                out.push(1);
                write_varint(out, pid as u64);
            }
        }
        write_varint(out, expansion.edges.len() as u64);
        let mut child_bytes = Vec::new();
        for edge in &expansion.edges {
            write_varint(out, edge.pid as u64);
            out.extend_from_slice(&edge.fp.to_le_bytes());
            match &edge.child {
                None => out.push(0),
                Some(child) => {
                    out.push(1);
                    child_bytes.clear();
                    encode_delta(&result.state, child, &mut child_bytes);
                    write_varint(out, child_bytes.len() as u64);
                    out.extend_from_slice(&child_bytes);
                }
            }
        }
    }

    fn decode(
        &self,
        mut bytes: &[u8],
        _prev: Option<&NodeResult>,
    ) -> Result<NodeResult, SpillError> {
        let state_len = take_varint(&mut bytes, "result state length")? as usize;
        let state = decode_flat(take_bytes(&mut bytes, state_len, "result state")?)
            .map_err(|e| corrupt("result state", e))?;
        let flags = take_bytes(&mut bytes, 2, "result flags")?;
        let has_active = flags[0] != 0;
        let solo_failure = match flags[1] {
            0 => None,
            _ => Some(take_varint(&mut bytes, "result solo pid")? as usize),
        };
        let edge_count = take_varint(&mut bytes, "result edge count")? as usize;
        // Every edge takes at least 18 bytes, so a forged count cannot make
        // this reserve more than the record's own length.
        let mut edges = Vec::with_capacity(edge_count.min(bytes.len()));
        for _ in 0..edge_count {
            let pid = take_varint(&mut bytes, "edge pid")? as usize;
            let fp = take_fp(&mut bytes)?;
            let child = match take_bytes(&mut bytes, 1, "edge child tag")?[0] {
                0 => None,
                _ => {
                    let len = take_varint(&mut bytes, "edge child length")? as usize;
                    let delta = take_bytes(&mut bytes, len, "edge child")?;
                    Some(apply_delta(&state, delta).map_err(|e| corrupt("edge child", e))?)
                }
            };
            edges.push(Edge { pid, fp, child });
        }
        if !bytes.is_empty() {
            return Err(corrupt("result", format!("{} trailing bytes", bytes.len())));
        }
        Ok(NodeResult {
            state,
            out: Ok(Expansion {
                solo_failure,
                has_active,
                edges,
            }),
        })
    }

    fn cost(&self, result: &NodeResult) -> usize {
        let children: usize = match &result.out {
            Ok(expansion) => expansion
                .edges
                .iter()
                .filter_map(|e| e.child.as_ref())
                .map(|c| c.resident_bytes() + std::mem::size_of::<Edge>())
                .sum(),
            Err(_) => 0,
        };
        std::mem::size_of::<NodeResult>() + result.state.resident_bytes() + children
    }

    fn spillable(&self, result: &NodeResult) -> bool {
        result.out.is_ok()
    }
}

/// Expands one node: solo probes first (mirroring the reference: a failure
/// suppresses the edges), then one previewed edge per active pid. All
/// intern-table traffic goes through the expander's thread-local `cache`.
pub(crate) fn expand_node<P: Process>(
    ctx: &PackedCtx<P>,
    node: &Node,
    cfg: RunCfg,
    claims: Option<&ClaimTable>,
    cache: &mut PackedCache<P>,
) -> Result<Expansion, SimError> {
    let state = &node.state;
    let has_active = ctx.has_active(state);
    if let Some(budget) = cfg.solo_budget {
        // One unpack per node, one machine clone per probe — the same cost
        // shape as the reference's per-pid `machine.clone()`.
        let base = Machine::from_packed_cached(ctx, cache, state);
        for pid in (0..state.n()).filter(|&p| ctx.is_active(state, p)) {
            let mut probe = base.clone();
            if probe.run_solo(pid, budget)?.is_none() {
                return Ok(Expansion {
                    solo_failure: Some(pid),
                    has_active,
                    edges: Vec::new(),
                });
            }
        }
    }
    let mut edges = Vec::new();
    if node.expand {
        for pid in (0..state.n()).filter(|&p| ctx.is_active(state, p)) {
            let fp = ctx
                .edge_digest_cached(cache, state, pid, node.fp, cfg.symmetric)
                .map_err(|source| SimError::Model {
                    pid,
                    step: state.steps(),
                    source,
                })?;
            let child = match claims {
                Some(claims) if claims.claim(fp) => {
                    Some(ctx.branch_step_cached(cache, state, pid).expect("previewed edge steps"))
                }
                _ => None,
            };
            edges.push(Edge { pid, fp, child });
        }
    }
    Ok(Expansion {
        solo_failure: None,
        has_active,
        edges,
    })
}

// ---------------------------------------------------------------------------
// Result sources: where the committer gets ordered node results from
// ---------------------------------------------------------------------------

/// The committer's view of the expansion machinery: it hands out tasks and
/// asks for node results in admission order. Sequential and work-stealing
/// implementations share the one committer, which is what makes them
/// bit-identical. The authoritative seen set lives behind
/// [`crate::fpset::AdmitSet`]; both are fallible because a budgeted run's
/// queues and fingerprint store may touch disk.
trait ResultSource<P: Process> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError>;
    fn take(&mut self, index: usize) -> Result<NodeResult, SimError>;
}

/// In-process source: tasks run inline, in dispatch order, on the calling
/// thread. No claims — the committer materialises every admitted child. The
/// admission queue is a budgeted [`FrontierStore`]: within the memory budget
/// it is the plain deque this engine always used, past it the backlog spills
/// to the run's arena and streams back in the same order, so `take` still
/// sees exactly the dispatch sequence.
struct SeqSource<'c, P: Process> {
    ctx: &'c PackedCtx<P>,
    cfg: RunCfg,
    queue: FrontierStore<NodeCodec>,
    cache: PackedCache<P>,
}

impl<P: Process> ResultSource<P> for SeqSource<'_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        self.queue.push(node)?;
        Ok(())
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        let node = self.queue.pop()?.expect("take follows dispatch");
        debug_assert_eq!(node.index, index);
        let out = expand_node(self.ctx, &node, self.cfg, None, &mut self.cache);
        if let Some(cap) = self.cfg.cache_cap {
            self.cache.evict_if_over(cap);
        }
        Ok(NodeResult {
            state: node.state,
            out,
        })
    }
}

/// Everything the worker threads and the committer share.
struct Pool {
    /// One deque per worker: the committer deals node batches round-robin;
    /// owners pop the front, idle workers steal from the front of other
    /// deques (FIFO everywhere keeps completion roughly in admission order,
    /// which keeps the committer's reorder buffer small). Each deque is a
    /// budgeted [`FrontierStore`], so backlogged batches spill rather than
    /// accumulate.
    deques: Vec<Mutex<FrontierStore<BatchCodec>>>,
    /// Completed expansions, keyed by admission index; large-index results
    /// park in the spill arena past the budget.
    results: Mutex<ReorderBuffer<ResultCodec>>,
    results_ready: Condvar,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    work_ready: Condvar,
    stop: AtomicBool,
    /// Shared fingerprint table: workers claim into it to dedupe speculative
    /// child materialisation; on unbudgeted runs the committer also admits
    /// into its committed bitmap. Lock-free on both hot paths.
    claims: ClaimTable,
    /// First spill-IO failure observed by any pool thread. A worker that
    /// hits one records it here and stops the pool; the committer turns it
    /// into a clean [`SimError::Spill`] instead of the abnormal-termination
    /// panic reserved for genuine worker crashes.
    io_error: Mutex<Option<SpillError>>,
}

impl Pool {
    fn pop_batch(&self, home: usize) -> Result<Option<Batch>, SpillError> {
        let workers = self.deques.len();
        for offset in 0..workers {
            let deque = &self.deques[(home + offset) % workers];
            if let Some(batch) = deque.lock().unwrap().pop()? {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    /// Records the first spill failure (later ones lose the race and are
    /// dropped: one failure already stops the run).
    fn record_io_error(&self, err: SpillError) {
        self.io_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert(err);
    }

    /// Takes the recorded spill failure, if any (committer side).
    fn take_io_error(&self) -> Option<SpillError> {
        self.io_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    fn worker_loop<P: Process>(&self, ctx: &PackedCtx<P>, cfg: RunCfg, home: usize) {
        let _guard = StopGuard(self);
        // Thread-local read-through view of the shared intern tables; lives
        // for the whole run, so entries are fetched under a shard lock at
        // most once per worker (unless a budget caps and clears it).
        let mut cache = PackedCache::new();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return; // abandon speculative leftovers: the run is decided
            }
            let popped = match self.pop_batch(home) {
                Ok(popped) => popped,
                Err(err) => {
                    // StopGuard (not us) wakes the committer, which maps the
                    // recorded error to a clean outcome.
                    self.record_io_error(err);
                    return;
                }
            };
            if let Some(batch) = popped {
                // Expand the whole batch before taking the results lock
                // once: one insertion burst, one committer wakeup.
                let outs: Vec<(usize, NodeResult)> = batch
                    .into_iter()
                    .map(|node| {
                        let out = expand_node(ctx, &node, cfg, Some(&self.claims), &mut cache);
                        (
                            node.index,
                            NodeResult {
                                state: node.state,
                                out,
                            },
                        )
                    })
                    .collect();
                if let Some(cap) = cfg.cache_cap {
                    cache.evict_if_over(cap);
                }
                let mut failed = None;
                {
                    let mut results = self.results.lock().unwrap();
                    for (index, result) in outs {
                        if let Err(err) = results.insert(index, result) {
                            failed = Some(err);
                            break;
                        }
                    }
                }
                if let Some(err) = failed {
                    self.record_io_error(err);
                    return;
                }
                self.results_ready.notify_one();
                continue;
            }
            // Nothing to run or steal: park. The re-check under the idle
            // lock pairs with `dispatch` taking the same lock around its
            // notify, so a task pushed between our failed pop and the wait
            // cannot be missed; the timeout is pure belt-and-braces.
            let guard = self.idle.lock().unwrap();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if self.pop_would_succeed() {
                continue;
            }
            let _ = self
                .work_ready
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
        }
    }

    fn pop_would_succeed(&self) -> bool {
        self.deques
            .iter()
            .any(|deque| !deque.lock().unwrap().is_empty())
    }
}

/// Sets the pool's stop flag and wakes everyone on drop — including during
/// unwinding. Held by the committer (so a committer panic releases the
/// workers instead of hanging `thread::scope`'s implicit join) and by every
/// worker (so a worker panic wakes a committer blocked on the result that
/// will now never arrive).
struct StopGuard<'p>(&'p Pool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        // Poison-tolerant locking: this drop runs *during unwinding* (that
        // is its whole job), where finding a mutex the panicking thread
        // poisoned is expected — an `unwrap` here would be a panic inside a
        // drop, turning a clean unwind into a process abort.
        let guard = self.0.idle.lock().unwrap_or_else(|e| e.into_inner());
        self.0.work_ready.notify_all();
        drop(guard);
        let results = self.0.results.lock().unwrap_or_else(|e| e.into_inner());
        self.0.results_ready.notify_all();
        drop(results);
    }
}

/// Work-stealing source: the committer side of the pool.
struct PoolSource<'p, P: Process> {
    pool: &'p Pool,
    ctx: &'p PackedCtx<P>,
    cfg: RunCfg,
    /// The committer's own intern cache, used when it helps expand.
    cache: PackedCache<P>,
    workers: usize,
    next_deque: usize,
    /// Nodes admitted but not yet pushed to a deque; flushed as one batch.
    pending: Batch,
    /// Nodes dispatched but not yet taken — the live frontier width the
    /// batch size adapts to.
    outstanding: usize,
}

impl<P: Process> PoolSource<'_, P> {
    /// Live batch size: a fraction of the outstanding work per worker, so
    /// wide frontiers amortise pool traffic with big batches while narrow
    /// ones split into single nodes that spread across workers instead of
    /// queueing behind one.
    fn batch_target(&self) -> usize {
        (self.outstanding / (4 * self.workers)).clamp(MIN_BATCH, MAX_BATCH)
    }

    fn flush(&mut self) -> Result<(), SimError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        let deques = &self.pool.deques;
        deques[self.next_deque % deques.len()]
            .lock()
            .unwrap()
            .push(batch)?;
        self.next_deque += 1;
        // Serialize the notify against the workers' park re-check: a worker
        // either holds `idle` (and will observe the push above), or is
        // already waiting (and receives this notification).
        let _guard = self.pool.idle.lock().unwrap();
        self.pool.work_ready.notify_one();
        Ok(())
    }

    /// Pops one backlogged batch and expands it on the committer's thread —
    /// what `take` does instead of sleeping while its result is in flight.
    /// Returns `false` if every deque was empty.
    fn help(&mut self) -> Result<bool, SimError> {
        let Some(batch) = self.pool.pop_batch(self.next_deque % self.workers)? else {
            return Ok(false);
        };
        let outs: Vec<(usize, NodeResult)> = batch
            .into_iter()
            .map(|node| {
                let out =
                    expand_node(self.ctx, &node, self.cfg, Some(&self.pool.claims), &mut self.cache);
                (
                    node.index,
                    NodeResult {
                        state: node.state,
                        out,
                    },
                )
            })
            .collect();
        if let Some(cap) = self.cfg.cache_cap {
            self.cache.evict_if_over(cap);
        }
        let mut results = self.pool.results.lock().unwrap();
        for (index, result) in outs {
            results.insert(index, result)?;
        }
        Ok(true)
    }

    /// A worker stopped the pool mid-run: a recorded spill failure becomes a
    /// clean error, anything else is the abnormal-termination panic.
    fn stopped_abnormally(&self) -> SimError {
        match self.pool.take_io_error() {
            Some(err) => err.into(),
            None => panic!("explorer worker terminated abnormally"),
        }
    }
}

impl<P: Process> ResultSource<P> for PoolSource<'_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        self.pending.push(node);
        self.outstanding += 1;
        if self.pending.len() >= self.batch_target() {
            self.flush()?;
        }
        Ok(())
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        // Nodes buffer in admission order, so the buffer's first index is
        // its minimum: flush iff the node we are about to wait for (or any
        // earlier one) is still sitting in the buffer.
        if self.pending.first().is_some_and(|node| node.index <= index) {
            self.flush()?;
        }
        loop {
            {
                let mut results = self.pool.results.lock().unwrap();
                if let Some(result) = results.remove(index)? {
                    self.outstanding -= 1;
                    return Ok(result);
                }
                // `stop` flips mid-run only when a worker unwound (its
                // StopGuard) or hit a spill failure; without this check the
                // committer would wait forever for the result that worker
                // was computing.
                if self.pool.stop.load(Ordering::Acquire) {
                    drop(results);
                    return Err(self.stopped_abnormally());
                }
            }
            // The result is in flight. Expand a backlogged batch ourselves
            // rather than sleeping — on saturated machines the committer is
            // effectively one more worker; on oversubscribed ones it keeps
            // progress independent of the scheduler.
            if self.help()? {
                continue;
            }
            // Nothing to help with: park until a worker delivers. The
            // re-check under the lock pairs with the workers' insert-then-
            // notify; the timeout covers the window between our failed help
            // and the wait.
            let mut results = self.pool.results.lock().unwrap();
            if let Some(result) = results.remove(index)? {
                self.outstanding -= 1;
                return Ok(result);
            }
            if self.pool.stop.load(Ordering::Acquire) {
                drop(results);
                return Err(self.stopped_abnormally());
            }
            let _ = self
                .pool
                .results_ready
                .wait_timeout(results, Duration::from_millis(10))
                .unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The deterministic committer
// ---------------------------------------------------------------------------

/// Validity/agreement check on one packed configuration: collects the
/// semantic decision vector and defers to the engine-shared
/// [`crate::checker::violation_from_decisions`], so both representations'
/// checks can never drift apart.
pub(crate) fn packed_violation<P: Process>(
    ctx: &PackedCtx<P>,
    cache: &mut PackedCache<P>,
    state: &PackedState,
    inputs: &[u64],
    link: usize,
    links: &[Link],
) -> Option<ExploreOutcome> {
    let decisions: Vec<u64> = (0..state.n())
        .filter_map(|p| ctx.decision_cached(cache, state, p))
        .collect();
    crate::checker::violation_from_decisions(&decisions, inputs, link, links)
}

/// The sequential commit loop: consumes node results in admission order and
/// makes every stateful decision exactly the way the clone-based reference
/// BFS does. This is the *only* place the admitted set, links, counters and
/// outcome are touched, which is the whole determinism argument — `admit` is
/// a private `HashSet` or the shared claim table's committed bitmap, but
/// either way only this loop calls it, in one deterministic order.
#[allow(clippy::too_many_arguments)]
fn drive<P, S, A>(
    ctx: &PackedCtx<P>,
    root: PackedState,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    source: &mut S,
    admit: &mut A,
    mem: &SpillContext,
    ckpt: Option<&CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P: Process,
    S: ResultSource<P>,
    A: AdmitSet,
{
    // The committer's own read-through intern cache (derivation of
    // unclaimed children, violation checks, the root digest).
    let mut cache: PackedCache<P> = PackedCache::new();
    // Admitted-configuration count: tracks `admit` admissions one-for-one,
    // kept locally because the shared table has no cheap exact size.
    let mut configs = 0usize;
    let mut links: Vec<Link> = Vec::new();
    // (parent link, depth) per admitted node, in admission order.
    let mut meta: Vec<(usize, usize)> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    // Admitted / committed node counts per breadth-first layer. A layer's
    // admissions close when the previous layer is fully committed; indices
    // are therefore grouped by layer, in layer order.
    let mut layer_total: Vec<usize> = vec![1];
    let mut layer_done: Vec<usize> = vec![0];
    // Intern-table bytes already charged to the tracker. The tables are
    // append-only (spilled states embed intern ids, so entries can never be
    // evicted); the committer polls their growth into the shared tracker so
    // the budget sees frontier + seen set + interners as one total.
    let mut interned_charged = 0usize;
    let cache_cap = cache_cap_of(limits.memory_budget);
    // Checkpoint telemetry (stays 0 without a checkpoint config; excluded
    // from stats equality like the other byte counters).
    let mut ckpt_seq = 0u64;
    let mut ckpt_bytes = 0u64;
    let mut ckpt_ms = 0u64;
    macro_rules! stats {
        () => {
            ExploreStats {
                configs,
                frontier_peak,
                depth_reached,
                bytes_spilled: mem.tracker().bytes_spilled(),
                peak_resident_bytes: mem.tracker().peak_resident_bytes(),
                seen_resident_bytes: admit.seen_resident_bytes(),
                intern_resident_bytes: ctx.intern_resident_bytes(),
                fpset_disk_bytes: admit.fpset_disk_bytes(),
                checkpoint_bytes: ckpt_bytes,
                checkpoint_ms: ckpt_ms,
                frames_exchanged: 0,
                frame_bytes: 0,
            }
        };
    }

    // Horizon nodes with no solo checks to run have a fixed, edge-free
    // expansion; computing their `has_active` bit inline at admission (flag
    // reads only, no table locks) spares the biggest layer of a
    // depth-limited run a pool round-trip per node.
    let mut inline_active: HashMap<usize, bool> = HashMap::new();
    let solo = limits.solo_check_budget.is_some();

    let n = root.n();
    let root_fp = ctx.digest_cached(&mut cache, &root, symmetric);
    let mut next_commit = 0usize;
    if let Some(snap) = resume {
        // --- Resume: restore the committer's logical state, then rebuild
        // everything physical deterministically. ---
        //
        // The snapshot stores membership and provenance, not layouts: the
        // seen set is re-admitted fp by fp (its tiering afterwards differs
        // from the killed run's — telemetry, excluded from stats equality),
        // and every pending node's state is replayed from the root through
        // the *current* intern tables, because intern ids are internal to a
        // process lifetime and digests hash content, never ids.
        if snap.seen.binary_search(&root_fp).is_err() {
            return Err(snapshot_sim_err(&SnapshotError::IdentityMismatch {
                detail: "root fingerprint absent from the snapshot's seen set".to_string(),
            }));
        }
        for &fp in &snap.seen {
            let fresh = admit.admit(fp)?;
            debug_assert!(fresh, "snapshot seen set carries duplicates");
        }
        configs = snap.seen.len();
        links.clone_from(&snap.links);
        complete = snap.complete;
        frontier_peak = snap.frontier_peak;
        depth_reached = snap.depth_reached;
        next_commit = snap.next_commit;
        // Per-node (parent link, depth) and the layer counters are pure
        // functions of the link list: node `j + 1`'s link is `j`, its depth
        // is one past its parent's, and layers admit index-contiguously.
        meta.push((NO_LINK, 0));
        for (j, &(parent, _)) in links.iter().enumerate() {
            let parent_index = if parent == NO_LINK { 0 } else { parent + 1 };
            let depth = meta[parent_index].1 + 1;
            meta.push((j, depth));
            if layer_total.len() <= depth {
                layer_total.push(0);
                layer_done.push(0);
            }
            layer_total[depth] += 1;
        }
        for &(_, depth) in &meta[..next_commit] {
            layer_done[depth] += 1;
        }
        // Snapshots land at admission boundaries, so the pending frontier is
        // exactly the uncommitted index suffix; re-dispatch it in admission
        // order (the order `take` will ask for it back in).
        for (index, &(link, d)) in meta.iter().enumerate().skip(next_commit) {
            let mut state = root.clone();
            for pid in schedule_of(&links, link) {
                ctx.step_cached(&mut cache, &mut state, pid).map_err(|source| {
                    SimError::Model {
                        pid,
                        step: state.steps(),
                        source,
                    }
                })?;
            }
            let fp = ctx.digest_cached(&mut cache, &state, symmetric);
            let expand = d < limits.depth;
            if expand || solo {
                source.dispatch(Node { index, state, fp, expand })?;
            } else {
                inline_active.insert(index, ctx.has_active(&state));
            }
        }
    } else {
        let _root_new = admit.admit(root_fp)?;
        debug_assert!(_root_new, "fresh run: the root cannot be pre-admitted");
        configs += 1;
        if let Some(violation) = packed_violation(ctx, &mut cache, &root, inputs, NO_LINK, &links) {
            return Ok((violation, stats!()));
        }
        meta.push((NO_LINK, 0));
        if limits.depth > 0 || solo {
            source.dispatch(Node {
                index: 0,
                state: root,
                fp: root_fp,
                expand: limits.depth > 0,
            })?;
        } else {
            inline_active.insert(0, ctx.has_active(&root));
        }
    }

    let mut next_ckpt_at = ckpt.map(|ck| configs as u64 + ck.every);
    while next_commit < meta.len() {
        // Fold intern-table growth (the committer's own and every worker's)
        // into the shared resident total before the admissions below consult
        // the budget. The tables only grow, so this is a one-way delta.
        let interned = ctx.intern_resident_bytes();
        if interned > interned_charged {
            mem.tracker().add_resident(interned - interned_charged);
            interned_charged = interned;
        }
        // The evictable stores keep themselves within the budget (plus a
        // bounded slack), but the intern tables just charged are append-only:
        // once they push the total past the envelope nothing can shrink it
        // back, so stop with the typed error instead of silently overrunning
        // the cap the caller asked for.
        if let Some(budget) = limits.memory_budget {
            let resident = mem.tracker().resident_bytes();
            if resident > budget.saturating_add(BUDGET_OVERRUN_SLACK) {
                return Err(SimError::Budget {
                    needed: resident,
                    budget,
                });
            }
        }
        // Periodic snapshot, taken strictly at an admission boundary: the
        // node at `next_commit` is not yet expanded, so the admitted set,
        // links and counters are exactly the reference order's prefix.
        if let (Some(ck), Some(at)) = (ckpt, next_ckpt_at.as_mut()) {
            if configs as u64 >= *at {
                let started = Instant::now();
                // Queued spill-arena writes drain and fsync first, so the
                // on-disk arena is never staler than the snapshot beside it.
                mem.sync()?;
                let mut seen = admit.collect_fps()?;
                seen.sort_unstable();
                debug_assert_eq!(seen.len(), configs, "admissions track configs 1:1");
                let snap = Snapshot {
                    protocol: ck.protocol.clone(),
                    n,
                    inputs: inputs.to_vec(),
                    depth: limits.depth,
                    max_configs: limits.max_configs,
                    solo_check_budget: limits.solo_check_budget,
                    symmetric,
                    links: links.clone(),
                    seen,
                    next_commit,
                    frontier_peak,
                    depth_reached,
                    complete,
                };
                let written = snap.write(&ck.path).map_err(|e| snapshot_sim_err(&e))?;
                if ck.retain {
                    let numbered = PathBuf::from(format!("{}.ck{ckpt_seq}", ck.path.display()));
                    std::fs::copy(&ck.path, &numbered).map_err(|e| SimError::Spill {
                        detail: format!("checkpoint: retaining copy failed: {}", e.kind()),
                    })?;
                }
                ckpt_seq += 1;
                ckpt_bytes += written;
                ckpt_ms += started.elapsed().as_millis() as u64;
                *at = configs as u64 + ck.every;
            }
        }
        if let Some(cap) = cache_cap {
            cache.evict_if_over(cap);
        }
        let (parent_link, d) = meta[next_commit];
        let (expansion, parent_state) = match inline_active.remove(&next_commit) {
            Some(has_active) => (
                Expansion {
                    solo_failure: None,
                    has_active,
                    edges: Vec::new(),
                },
                None,
            ),
            None => {
                let result = source.take(next_commit)?;
                (result.out?, Some(result.state))
            }
        };
        if let Some(pid) = expansion.solo_failure {
            return Ok((
                ExploreOutcome::ObstructionFailure {
                    pid,
                    schedule: schedule_of(&links, parent_link),
                },
                stats!(),
            ));
        }
        // A horizon node with moves left is what the depth cutoff hides.
        if d >= limits.depth && expansion.has_active {
            complete = false;
        }
        for Edge { pid, fp, child } in expansion.edges {
            if !admit.admit(fp)? {
                continue;
            }
            configs += 1;
            if configs > limits.max_configs {
                // Mirror of the reference: the over-cap configuration stays
                // counted, nothing else of the partial layer does.
                complete = false;
                return Ok((
                    ExploreOutcome::Clean { configs, complete },
                    stats!(),
                ));
            }
            let child_state = match child {
                Some(state) => state,
                // The claim raced to another edge (or this is the
                // sequential path): derive the child from the parent. Edges
                // only come from dispatched nodes, so the state is present.
                None => ctx
                    .branch_step_cached(
                        &mut cache,
                        parent_state.as_ref().expect("expanded node state"),
                        pid,
                    )
                    .expect("previewed edge steps"),
            };
            debug_assert_eq!(
                fp,
                ctx.digest(&child_state, symmetric),
                "incremental digest out of sync with full scan"
            );
            let link = links.len();
            links.push((parent_link, pid));
            if let Some(violation) =
                packed_violation(ctx, &mut cache, &child_state, inputs, link, &links)
            {
                return Ok((violation, stats!()));
            }
            let child_depth = d + 1;
            let index = meta.len();
            meta.push((link, child_depth));
            if layer_total.len() <= child_depth {
                layer_total.push(0);
                layer_done.push(0);
            }
            layer_total[child_depth] += 1;
            let expand = child_depth < limits.depth;
            if expand || solo {
                source.dispatch(Node {
                    index,
                    state: child_state,
                    fp,
                    expand,
                })?;
            } else {
                inline_active.insert(index, ctx.has_active(&child_state));
            }
        }
        next_commit += 1;
        layer_done[d] += 1;
        // Commits run in index order and layers are index-contiguous, so
        // this fires exactly when layer `d`'s last node commits.
        if layer_done[d] == layer_total[d] {
            // Layer `d` fully expanded...
            if d < limits.depth {
                depth_reached = d + 1;
            }
            // ...and layer `d+1`'s admissions are closed — it is exactly the
            // breadth-first frontier the reference would hold live next.
            if let Some(&next_layer) = layer_total.get(d + 1) {
                if next_layer > 0 {
                    frontier_peak = frontier_peak.max(next_layer);
                }
            }
        }
    }
    Ok((
        ExploreOutcome::Clean { configs, complete },
        stats!(),
    ))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Sequential packed exploration (no thread bounds on the process type).
pub(crate) fn explore_packed_seq<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    explore_packed_seq_ckpt(protocol, inputs, limits, symmetric, None, None)
}

/// [`explore_packed_seq`] with optional periodic checkpoints and an optional
/// snapshot to resume from.
pub(crate) fn explore_packed_seq_ckpt<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    ckpt: Option<CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    if let Some(snap) = resume {
        snap.check_identity(protocol, inputs, &limits, symmetric)
            .map_err(|e| snapshot_sim_err(&e))?;
    }
    let machine = Machine::start(protocol, inputs)?;
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    let cfg = RunCfg {
        solo_budget: limits.solo_check_budget,
        symmetric,
        cache_cap: cache_cap_of(limits.memory_budget),
    };
    let mem = SpillContext::new(limits.memory_budget);
    let mut source = SeqSource {
        ctx: &ctx,
        cfg,
        queue: FrontierStore::new(NodeCodec, mem.clone()),
        cache: PackedCache::new(),
    };
    // Unbudgeted: a plain seen-HashSet (charged to the tracker so unbounded
    // peaks tell the truth). Budgeted: the tiered fingerprint store, which
    // evicts cold fingerprints to sorted runs instead of growing.
    let mut admit = SeenBackend::new(limits.max_configs, &mem);
    drive(
        &ctx,
        root,
        inputs,
        limits,
        symmetric,
        &mut source,
        &mut admit,
        &mem,
        ckpt.as_ref(),
        resume,
    )
}

/// Parallel packed exploration with a persistent work-stealing pool.
/// (The checkpoint-aware variant below is the production entry; this
/// shorthand serves the conformance tests' worker sweeps.)
#[cfg(test)]
pub(crate) fn explore_packed_par<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    workers: usize,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    explore_packed_par_ckpt(protocol, inputs, limits, symmetric, workers, None, None)
}

/// [`explore_packed_par`] with optional periodic checkpoints and an optional
/// snapshot to resume from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_packed_par_ckpt<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    workers: usize,
    ckpt: Option<CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    if let Some(snap) = resume {
        snap.check_identity(protocol, inputs, &limits, symmetric)
            .map_err(|e| snapshot_sim_err(&e))?;
    }
    // Below this many configurations the pool's thread spawns and batch
    // hand-offs dominate real work; the sequential path is bit-identical by
    // construction, so serving small spaces from it is unobservable.
    const MIN_PARALLEL_CONFIGS: usize = 1024;
    if workers <= 1 || limits.max_configs <= MIN_PARALLEL_CONFIGS {
        return explore_packed_seq_ckpt(protocol, inputs, limits, symmetric, ckpt, resume);
    }
    // Probe: run sequentially with the cap clamped to the threshold. The
    // cap fires only at `configs == cap + 1`, so a probe that comes back at
    // or under the threshold never hit it — its outcome (clean, violating,
    // depth-cut or obstruction) is exactly what the uncapped run would
    // produce, and no thread was ever spawned for a small space. Only when
    // the probe overflows (the space is genuinely big) do we pay the pool,
    // re-exploring the ≤`MIN_PARALLEL_CONFIGS`-node prefix — noise at that
    // size. Resumed runs skip the probe (they already hold a snapshot of a
    // big space), as do checkpointing ones (a probe must never write a
    // clamped-limits snapshot over the real one); both fallbacks above and
    // below stay bit-identical, so skipping is unobservable in outcomes.
    if ckpt.is_none() && resume.is_none() {
        let probe_limits = ExploreLimits {
            max_configs: MIN_PARALLEL_CONFIGS,
            ..limits
        };
        let probe = explore_packed_seq(protocol, inputs, probe_limits, symmetric)?;
        if probe.1.configs <= MIN_PARALLEL_CONFIGS {
            return Ok(probe);
        }
    }
    let machine = Machine::start(protocol, inputs)?;
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    let cfg = RunCfg {
        solo_budget: limits.solo_check_budget,
        symmetric,
        cache_cap: cache_cap_of(limits.memory_budget),
    };
    let mem = SpillContext::new(limits.memory_budget);
    let pool = Pool {
        deques: (0..workers)
            .map(|_| Mutex::new(FrontierStore::new(BatchCodec, mem.clone())))
            .collect(),
        results: Mutex::new(ReorderBuffer::new(ResultCodec, mem.clone())),
        results_ready: Condvar::new(),
        idle: Mutex::new(()),
        work_ready: Condvar::new(),
        stop: AtomicBool::new(false),
        // Unbudgeted: sized for the run's admission cap and doubling as the
        // authoritative seen set (the committer's root admission below lands
        // before any dispatch, so workers can never win a claim on the
        // root's fingerprint). Budgeted: a fixed-size *advisory* table —
        // claims it cannot hold are dropped, which only costs a duplicate
        // derivation at the committer — while authoritative admission moves
        // to the tiered fingerprint store.
        claims: match limits.memory_budget {
            Some(budget) => {
                // The advisory table is a real allocation of this run, so
                // size it against what is *left* of the budget after the
                // stores built above took their shares — including the
                // 4 KiB floor, which on a sub-16-KiB budget would otherwise
                // exceed the whole cap by itself.
                let remaining = budget.saturating_sub(mem.tracker().resident_bytes());
                ClaimTable::advisory((budget / 4).max(4096).min(remaining.max(1024)))
            }
            None => ClaimTable::new(limits.max_configs),
        },
        io_error: Mutex::new(None),
    };
    // The claim table is a real, budget-relevant allocation of the parallel
    // run; charge it for as long as the pool lives.
    let claim_bytes = pool.claims.resident_bytes();
    mem.tracker().add_resident(claim_bytes);
    let outcome = std::thread::scope(|scope| {
        for home in 0..workers {
            let pool = &pool;
            let ctx = &ctx;
            scope.spawn(move || pool.worker_loop(ctx, cfg, home));
        }
        let mut source = PoolSource {
            pool: &pool,
            ctx: &ctx,
            cfg,
            cache: PackedCache::new(),
            workers,
            next_deque: 0,
            pending: Vec::new(),
            outstanding: 0,
        };
        // The guard (not explicit code) stops the pool, so the workers are
        // released even if `drive` panics mid-commit — otherwise the scope's
        // implicit join would turn the panic into a deadlock.
        let _stop = StopGuard(&pool);
        if limits.memory_budget.is_some() {
            let mut admit = SeenBackend::new(limits.max_configs, &mem);
            drive(
                &ctx,
                root,
                inputs,
                limits,
                symmetric,
                &mut source,
                &mut admit,
                &mem,
                ckpt.as_ref(),
                resume,
            )
        } else {
            let mut admit = &pool.claims;
            drive(
                &ctx,
                root,
                inputs,
                limits,
                symmetric,
                &mut source,
                &mut admit,
                &mem,
                ckpt.as_ref(),
                resume,
            )
        }
    });
    mem.tracker().sub_resident(claim_bytes);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_explore;
    use crate::strawmen::{OneMaxRegister, OneRegister};
    use cbh_core::cas::CasConsensus;
    use cbh_core::maxreg::MaxRegConsensus;

    fn agree<P: Protocol>(protocol: &P, inputs: &[u64], limits: ExploreLimits)
    where
        P::Proc: Send + Sync,
    {
        let oracle = reference_explore(protocol, inputs, limits).unwrap();
        let seq = explore_packed_seq(protocol, inputs, limits, false).unwrap();
        assert_eq!(seq, oracle, "sequential packed engine vs reference");
        for workers in [2, 4, 8] {
            let par = explore_packed_par(protocol, inputs, limits, false, workers).unwrap();
            assert_eq!(par, oracle, "packed engine at {workers} workers vs reference");
        }
        // A zero memory budget (every push spills, root included) must be
        // unobservable in the outcome — the full budget matrix lives in
        // tests/memory_budget.rs; this pins the local invariant.
        let budgeted = ExploreLimits {
            memory_budget: Some(0),
            ..limits
        };
        let spill = explore_packed_seq(protocol, inputs, budgeted, false).unwrap();
        assert_eq!(spill, oracle, "zero-budget packed engine vs reference");
        // Depth-0 runs without solo checks queue nothing, so only runs that
        // dispatch at least the root are required to have spilled.
        if limits.depth > 0 || limits.solo_check_budget.is_some() {
            assert!(spill.1.bytes_spilled > 0, "zero budget must spill");
        }
    }

    #[test]
    fn truncated_spill_records_decode_to_errors() {
        let machine = Machine::start(&MaxRegConsensus::new(3), &[0, 1, 2]).unwrap();
        let ctx = machine.packed_ctx();
        let mut cache = PackedCache::new();
        let root = machine.pack(&ctx);
        let fp = ctx.digest_cached(&mut cache, &root, false);
        let node = Node {
            index: 300,
            state: root,
            fp,
            expand: true,
        };
        // A fresh claim table lets this expansion win every claim, so every
        // edge carries a materialised child; the last edge drops its child
        // and a solo pid is set so each optional field is encoded.
        let cfg = RunCfg {
            solo_budget: None,
            symmetric: false,
            cache_cap: None,
        };
        let claims = ClaimTable::new(64);
        let mut expansion = expand_node(&ctx, &node, cfg, Some(&claims), &mut cache).unwrap();
        assert!(expansion.edges.len() >= 2);
        expansion.edges.last_mut().unwrap().child = None;
        expansion.solo_failure = Some(2);
        let first = &expansion.edges[0];
        let child = Node {
            index: 301,
            state: first.child.clone().expect("claimed edge"),
            fp: first.fp,
            expand: false,
        };
        let edge_key = |e: &Edge| (e.pid, e.fp, e.child.clone());
        let want_edges: Vec<_> = expansion.edges.iter().map(edge_key).collect();
        let result = NodeResult {
            state: node.state.clone(),
            out: Ok(expansion),
        };

        let mut record = Vec::new();
        ResultCodec.encode(&result, None, &mut record);
        let back = ResultCodec.decode(&record, None).unwrap();
        let got = back.out.as_ref().unwrap();
        assert_eq!(back.state, result.state);
        assert_eq!((got.solo_failure, got.has_active), (Some(2), true));
        assert_eq!(got.edges.iter().map(edge_key).collect::<Vec<_>>(), want_edges);
        for cut in 0..record.len() {
            assert!(ResultCodec.decode(&record[..cut], None).is_err(), "result prefix {cut}");
        }

        // Node records: a flat one (a run's first) and a delta one.
        for (item, base) in [(&node, None), (&child, Some(&node))] {
            let mut record = Vec::new();
            NodeCodec.encode(item, base, &mut record);
            let back = NodeCodec.decode(&record, base).unwrap();
            assert_eq!(
                (back.index, back.fp, back.expand, &back.state),
                (item.index, item.fp, item.expand, &item.state)
            );
            for cut in 0..record.len() {
                assert!(NodeCodec.decode(&record[..cut], base).is_err(), "node prefix {cut}");
                let mut chain = base.cloned();
                assert!(NodeCodec.decode_step(&record[..cut], &mut chain).is_err());
            }
        }
        let mut record = Vec::new();
        BatchCodec.encode(&vec![node.clone(), child.clone()], None, &mut record);
        assert_eq!(BatchCodec.decode(&record, None).unwrap().len(), 2);
        for cut in 0..record.len() {
            assert!(BatchCodec.decode(&record[..cut], None).is_err(), "batch prefix {cut}");
        }
    }

    #[test]
    fn packed_engine_matches_reference_on_clean_and_violating_runs() {
        agree(
            &CasConsensus::new(3),
            &[0, 1, 2],
            ExploreLimits {
                depth: 10,
                max_configs: 100_000,
                solo_check_budget: Some(10),
                memory_budget: None,
                checkpoint_every: None,
            },
        );
        agree(&OneMaxRegister::new(), &[0, 1], ExploreLimits::default());
        agree(&OneRegister::new(3), &[0, 1, 1], ExploreLimits::default());
    }

    #[test]
    fn packed_engine_matches_reference_under_caps_and_horizons() {
        // Small caps cover the sequential over-cap path (the parallel entry
        // falls back below MIN_PARALLEL_CONFIGS)...
        for cap in [1, 2, 7, 50, 400] {
            agree(
                &MaxRegConsensus::new(2),
                &[1, 0],
                ExploreLimits {
                    depth: 12,
                    max_configs: cap,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
        }
        // ...so caps above the fallback threshold are needed to exercise the
        // work-stealing committer's over-cap shutdown (early return while
        // workers still speculate) against the reference.
        for cap in [1_200, 2_048] {
            agree(
                &MaxRegConsensus::new(3),
                &[0, 1, 2],
                ExploreLimits {
                    depth: 14,
                    max_configs: cap,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
        }
        for depth in 0..8 {
            agree(
                &MaxRegConsensus::new(3),
                &[0, 1, 2],
                ExploreLimits {
                    depth,
                    max_configs: 100_000,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
        }
    }
}
