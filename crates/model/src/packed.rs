//! Packed configurations: the flat, cache-friendly execution core.
//!
//! A [`crate::Memory`]-plus-processes configuration is a tree of heap values
//! (`Vec<P>`, per-cell `BigInt`s and `VecDeque`s), so branching an execution
//! costs a deep clone and hashing a configuration walks the whole tree. The
//! state-space engine visits millions of configurations and branches at
//! every edge; this module gives it a representation where both operations
//! are flat:
//!
//! - **process states are interned**: every distinct `P` is stored once in a
//!   sharded, append-only table together with its 128-bit content hash and
//!   its poised decision; a configuration holds `u32` ids;
//! - **memory cells are one tagged `u64` word each**: small integers and `⊥`
//!   are stored inline, everything else (big integers, sequences, buffers)
//!   is interned in a second table;
//! - a [`PackedState`] is therefore three flat arrays (`u32` process ids,
//!   `Option<u64>` recorded decisions, `u64` cell words) plus two counters —
//!   cloning one is a few `memcpy`s, independent of how much heap the
//!   semantic state owns.
//!
//! [`PackedCtx::step`] applies one atomic step **in place** and returns a
//! [`PackedUndo`] that reverts it in O(step footprint);
//! [`PackedCtx::edge_digest`] computes a successor's incremental Zobrist
//! digest *without mutating anything* — the read-only preview the parallel
//! explorer's workers run concurrently. Step semantics (uniformity checks,
//! bounds, growth, multi-assignment validation, error values) are routed
//! through the same [`CellState::apply`] the [`crate::Memory`] uses, so a
//! packed step and a [`crate::Memory::apply`] step can never drift apart.
//!
//! Intern tables are sharded behind read-writer locks and append-only:
//! entries are immutable once published, reads take a shard read lock, and
//! ids are opaque (digests hash *content*, never ids, so outcomes are
//! independent of interning order — the property that lets worker threads
//! intern concurrently without affecting determinism).

use crate::{
    fingerprint_of, Action, CellState, Fp128Hasher, Instruction, InstructionSet, Memory,
    ModelError, Op, Process, Value,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

pub mod delta;
pub mod frame;

// ---------------------------------------------------------------------------
// Cell word encoding
// ---------------------------------------------------------------------------

/// Tag bits (low 2) of a packed cell word.
const TAG_MASK: u64 = 0b11;
/// Inline small integer: the high 62 bits are the value, two's complement.
const TAG_INT: u64 = 0b00;
/// The word `⊥`.
const TAG_BOT: u64 = 0b01;
/// Interned cell: the high bits are a table id.
const TAG_REF: u64 = 0b10;

/// Largest magnitude storable inline: signed 62-bit range.
const INLINE_MAX: i64 = (1 << 61) - 1;
const INLINE_MIN: i64 = -(1 << 61);

/// Interner ids: low bit = "poised to decide" flag (process table only),
/// next four bits = shard, rest = index within the shard.
const ID_SHARD_BITS: u32 = 4;
const ID_SHARDS: usize = 1 << ID_SHARD_BITS;
const ID_FLAG_DECIDED: u32 = 1;

fn make_id(local: usize, shard: usize, decided: bool) -> u32 {
    let local = u32::try_from(local).expect("intern table overflow");
    assert!(local < (1 << (31 - ID_SHARD_BITS)), "intern table overflow");
    (local << (ID_SHARD_BITS + 1)) | ((shard as u32) << 1) | u32::from(decided)
}

fn id_shard(id: u32) -> usize {
    ((id >> 1) & (ID_SHARDS as u32 - 1)) as usize
}

fn id_local(id: u32) -> usize {
    (id >> (ID_SHARD_BITS + 1)) as usize
}

fn id_decided(id: u32) -> bool {
    id & ID_FLAG_DECIDED != 0
}

// ---------------------------------------------------------------------------
// Sharded append-only interner
// ---------------------------------------------------------------------------

/// One interner shard: content-hash → id plus the entry storage. Entries are
/// never mutated after insertion, so readers only need the shard read lock
/// for the duration of a lookup.
struct Shard<T, M> {
    ids: HashMap<u128, u32>,
    entries: Vec<(T, M)>,
}

impl<T, M> Default for Shard<T, M> {
    fn default() -> Self {
        Shard {
            ids: HashMap::new(),
            entries: Vec::new(),
        }
    }
}

/// Estimated per-entry bookkeeping overhead of one interned entry beyond its
/// payload: the `ids` map entry (u128 key + u32 id + table slack) plus the
/// `entries` vec slot bookkeeping.
const INTERN_ENTRY_OVERHEAD: usize = 48;

/// Sharded intern table: `T` keyed by its 128-bit content fingerprint, with
/// per-entry metadata `M` computed once at insertion.
struct Interner<T, M> {
    shards: Vec<RwLock<Shard<T, M>>>,
    /// Estimated resident bytes across all shards. Entries are append-only
    /// and never freed (their ids are embedded in packed states, including
    /// spilled ones), so this only ever grows; budget pressure is relieved
    /// by evicting the per-worker read-through caches, not the table.
    bytes: AtomicUsize,
}

impl<T: Clone + Eq + Hash, M: Copy> Interner<T, M> {
    fn new() -> Self {
        Interner {
            shards: (0..ID_SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Estimated resident bytes of the table (entries + id maps).
    fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Interns `value`, computing `meta(&value, hash)` on first sight.
    /// `decided` becomes the id's flag bit. `cost` estimates the entry's
    /// resident bytes, charged once on first insertion.
    fn intern(
        &self,
        value: T,
        decided: bool,
        meta: impl FnOnce(&T, u128) -> M,
        cost: impl FnOnce(&T) -> usize,
    ) -> u32 {
        let hash = fingerprint_of(&value);
        self.intern_prehashed(hash, value, decided, meta, cost)
    }

    /// [`Interner::intern`] with the content hash already computed — the
    /// entry point for cache-missing callers that hashed the value to probe
    /// their cache first. `hash` must be `fingerprint_of(&value)`.
    fn intern_prehashed(
        &self,
        hash: u128,
        value: T,
        decided: bool,
        meta: impl FnOnce(&T, u128) -> M,
        cost: impl FnOnce(&T) -> usize,
    ) -> u32 {
        let shard_index = (hash as usize) & (ID_SHARDS - 1);
        let shard = &self.shards[shard_index];
        {
            // One read critical section for both the lookup and the
            // collision check: re-acquiring the same RwLock recursively can
            // deadlock against a queued writer.
            let guard = shard.read().unwrap();
            if let Some(&id) = guard.ids.get(&hash) {
                debug_assert!(
                    guard.entries[id_local(id)].0 == value,
                    "128-bit content fingerprint collision in intern table"
                );
                return id;
            }
        }
        let mut guard = shard.write().unwrap();
        if let Some(&id) = guard.ids.get(&hash) {
            return id; // another thread won the race
        }
        let m = meta(&value, hash);
        self.bytes
            .fetch_add(cost(&value) + INTERN_ENTRY_OVERHEAD, Ordering::Relaxed);
        let id = make_id(guard.entries.len(), shard_index, decided);
        guard.entries.push((value, m));
        guard.ids.insert(hash, id);
        id
    }

    /// Reads the entry behind `id` under the shard read lock.
    fn with<R>(&self, id: u32, f: impl FnOnce(&T, &M) -> R) -> R {
        let guard = self.shards[id_shard(id)].read().unwrap();
        let (value, meta) = &guard.entries[id_local(id)];
        f(value, meta)
    }
}

/// Cached per-process metadata: content hash and poised decision.
#[derive(Clone, Copy)]
struct ProcMeta {
    hash: u128,
    decision: Option<u64>,
}

/// Resident bytes of one process entry (interned or cached): the inline
/// `(state, meta)` pair plus whatever heap the state owns. Without the
/// [`Process::heap_bytes`] term, a protocol whose states carry growing
/// allocations interns unbounded memory that no budget ever sees.
fn proc_entry_bytes<P: Process>(p: &P) -> usize {
    std::mem::size_of::<(P, ProcMeta)>() + p.heap_bytes()
}

/// Cached per-cell metadata: content hash.
#[derive(Clone, Copy)]
struct CellMeta {
    hash: u128,
}

// ---------------------------------------------------------------------------
// Per-worker read-through cache
// ---------------------------------------------------------------------------

/// A per-worker **read-through cache** over a [`PackedCtx`]'s intern tables.
///
/// Interner entries are immutable once published and ids are stable, so a
/// cached `id → entry` or `content-hash → id` mapping can never go stale:
/// the cache needs no invalidation protocol, only population. Each worker
/// thread of the parallel explorer owns one, turning the shard read-locks
/// of the hot expansion loop into thread-local hash lookups — the shared
/// tables are consulted (and the cache grown) only on first sight of a
/// process state or interned cell.
///
/// Caching is **semantically invisible**: every `*_cached` method on
/// [`PackedCtx`] returns exactly what its uncached twin returns, because
/// both read the same immutable entries. A cache is bound to the context
/// whose ids it stores; using it with another context is a logic error
/// (same contract as [`PackedState`] itself).
pub struct PackedCache<P: Process> {
    /// Interned id → (process state, its metadata).
    procs: HashMap<u32, (P, ProcMeta)>,
    /// Content hash → interned id: the intern-write fast path.
    proc_ids: HashMap<u128, u32>,
    /// Interned cell id → (cell, content hash).
    cells: HashMap<u32, (CellState, u128)>,
    /// Content hash → encoded word: the encode fast path.
    cell_words: HashMap<u128, u64>,
    /// Estimated resident bytes across the four maps.
    bytes: usize,
}

/// Estimated per-entry map overhead in a [`PackedCache`] beyond the payload.
const CACHE_ENTRY_OVERHEAD: usize = 48;

impl<P: Process> PackedCache<P> {
    /// An empty cache (allocation-free until the first miss is recorded).
    pub fn new() -> Self {
        PackedCache {
            procs: HashMap::new(),
            proc_ids: HashMap::new(),
            cells: HashMap::new(),
            cell_words: HashMap::new(),
            bytes: 0,
        }
    }

    /// Cached entries across all four maps (observability/tests).
    pub fn len(&self) -> usize {
        self.procs.len() + self.proc_ids.len() + self.cells.len() + self.cell_words.len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes of the cached entries.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Generational eviction: if the cache has outgrown `cap`, drop every
    /// cached entry (and the map allocations) and start over. Read-through
    /// misses repopulate the currently-hot entries, so a wholesale clear
    /// behaves like an approximate LRU at a fraction of the bookkeeping
    /// cost. Returns `true` if an eviction happened.
    pub fn evict_if_over(&mut self, cap: usize) -> bool {
        if self.bytes <= cap {
            return false;
        }
        self.procs = HashMap::new();
        self.proc_ids = HashMap::new();
        self.cells = HashMap::new();
        self.cell_words = HashMap::new();
        self.bytes = 0;
        true
    }

    fn charge(&mut self, payload: usize) {
        self.bytes += payload + CACHE_ENTRY_OVERHEAD;
    }
}

impl<P: Process> Default for PackedCache<P> {
    fn default() -> Self {
        PackedCache::new()
    }
}

// ---------------------------------------------------------------------------
// PackedState
// ---------------------------------------------------------------------------

/// A flat configuration: interned process ids, recorded decisions, tagged
/// cell words, the touched-location high-water mark and a step counter.
///
/// Only meaningful relative to the [`PackedCtx`] that produced it (ids index
/// that context's tables). Equality and hashing compare the flat encoding,
/// which within one context coincides with semantic equality *plus* the
/// step counter; the engine's [`PackedCtx::digest`] excludes the counter,
/// mirroring [`crate::fingerprint_of`]-based machine fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedState {
    procs: Vec<u32>,
    decided: Vec<Option<u64>>,
    cells: Vec<u64>,
    touched: usize,
    steps: u64,
}

impl PackedState {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Steps applied since the state was packed (bookkeeping, not hashed by
    /// [`PackedCtx::digest`]).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Locations ever targeted by an instruction — Table 1's space measure.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Currently allocated locations.
    pub fn cells_len(&self) -> usize {
        self.cells.len()
    }

    /// Approximate heap-plus-inline footprint of this state in bytes — the
    /// cost a memory-budgeted frontier accounts per resident entry. Computed
    /// from lengths (not capacities) so the figure is a deterministic
    /// function of the semantic configuration.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<PackedState>()
            + self.procs.len() * std::mem::size_of::<u32>()
            + self.decided.len() * std::mem::size_of::<Option<u64>>()
            + self.cells.len() * std::mem::size_of::<u64>()
    }
}

/// Undo token for one [`PackedCtx::step`]: the pre-step words of exactly
/// what the step could have changed.
#[derive(Debug, Clone)]
pub struct PackedUndo {
    pid: usize,
    prev_decided: Option<u64>,
    invoked: Option<InvokeUndo>,
}

#[derive(Debug, Clone)]
struct InvokeUndo {
    prev_proc: u32,
    prev_len: usize,
    prev_touched: usize,
    /// Pre-step words of changed cells that existed before the step
    /// (grown-and-written locations are handled by the length truncate).
    prev_words: Vec<(usize, u64)>,
}

/// What one packed step did — mirrors `cbh_sim`'s step outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedStepOutcome {
    /// The process performed its poised instruction and absorbed `Value`.
    Invoked(Value),
    /// The process was poised to decide; the decision was recorded and no
    /// memory step was taken.
    AlreadyDecided(u64),
}

/// One memory edit produced by the pure op-application routine: the cells to
/// rewrite, the post-step allocation length and touch high-water mark.
#[derive(Debug)]
struct MemEdit {
    changes: Vec<(usize, CellState)>,
    new_len: usize,
    new_touched: usize,
}

// ---------------------------------------------------------------------------
// PackedCtx
// ---------------------------------------------------------------------------

/// The shared context packed states execute against: memory policy (uniform
/// instruction set, growth, default cell) plus the intern tables.
///
/// Cheap to share behind an `Arc`; all methods take `&self`, including
/// interning writes (shard locks serialize them), so a parallel explorer's
/// workers and committer use one context concurrently.
pub struct PackedCtx<P: Process> {
    n: usize,
    iset: InstructionSet,
    growable: bool,
    default_cell: CellState,
    /// Pre-encoded word a grown location starts as.
    default_word: u64,
    /// Content hash of the default cell (grown-location digest components).
    default_hash: u128,
    /// Content hash of the `⊥` word cell, the other inline variant.
    bot_hash: u128,
    procs: Interner<P, ProcMeta>,
    cells: Interner<CellState, CellMeta>,
}

impl<P: Process> PackedCtx<P> {
    /// A context matching `memory`'s policy for `n` processes.
    pub fn for_memory(memory: &Memory, n: usize) -> Self {
        let default_cell = memory.default_cell().clone();
        let procs = Interner::new();
        let cells = Interner::new();
        let mut ctx = PackedCtx {
            n,
            iset: memory.iset(),
            growable: memory.growable(),
            default_hash: fingerprint_of(&default_cell),
            bot_hash: fingerprint_of(&CellState::word(Value::Bot)),
            default_word: 0,
            default_cell,
            procs,
            cells,
        };
        ctx.default_word = ctx.encode_cell(ctx.default_cell.clone());
        ctx
    }

    /// A context for the memory `spec` describes.
    pub fn for_spec(spec: &crate::MemorySpec, n: usize) -> Self {
        Self::for_memory(&Memory::new(spec), n)
    }

    /// Number of processes states in this context pack.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Estimated resident bytes of the shared intern tables (process states
    /// plus interned cells). Two relaxed atomic loads — cheap enough to poll
    /// from an explorer's commit loop so `memory_budget` accounting can see
    /// the interners grow. Entries are append-only (ids are embedded in
    /// packed states, including spilled ones), so the figure never shrinks.
    pub fn intern_resident_bytes(&self) -> usize {
        self.procs.resident_bytes() + self.cells.resident_bytes()
    }

    // -- encoding -----------------------------------------------------------
    //
    // Every accessor comes in an `_opt` form threading an optional
    // [`PackedCache`]: `Some(cache)` reads through the caller's thread-local
    // cache (populating it on miss), `None` hits the shared tables directly.
    // The plain uncached names are thin `_opt(None, ..)` wrappers so the
    // cached and uncached paths share one implementation and cannot drift.

    /// Reads the process entry behind `id` through the cache if one is given.
    fn proc_entry<R>(
        &self,
        cache: Option<&mut PackedCache<P>>,
        id: u32,
        f: impl FnOnce(&P, &ProcMeta) -> R,
    ) -> R {
        match cache {
            Some(cache) => {
                if !cache.procs.contains_key(&id) {
                    let entry = self.procs.with(id, |p, meta| (p.clone(), *meta));
                    cache.charge(proc_entry_bytes(&entry.0));
                    cache.procs.insert(id, entry);
                }
                let (p, meta) = cache.procs.get(&id).expect("just inserted");
                f(p, meta)
            }
            None => self.procs.with(id, f),
        }
    }

    /// Reads the interned-cell entry behind `id` through the cache if given.
    fn cell_entry<R>(
        &self,
        cache: Option<&mut PackedCache<P>>,
        id: u32,
        f: impl FnOnce(&CellState, u128) -> R,
    ) -> R {
        match cache {
            Some(cache) => {
                if !cache.cells.contains_key(&id) {
                    let entry = self.cells.with(id, |cell, meta| (cell.clone(), meta.hash));
                    cache.charge(entry.0.resident_bytes());
                    cache.cells.insert(id, entry);
                }
                let (cell, hash) = cache.cells.get(&id).expect("just inserted");
                f(cell, *hash)
            }
            None => self.cells.with(id, |cell, meta| f(cell, meta.hash)),
        }
    }

    /// Canonical word for a cell: small integers and `⊥` inline, everything
    /// else interned. Canonical means word equality ⟺ cell equality.
    fn encode_cell_opt(&self, cache: Option<&mut PackedCache<P>>, cell: CellState) -> u64 {
        match &cell {
            CellState::Word(Value::Bot) => TAG_BOT,
            CellState::Word(Value::Int(i)) => match i.to_i64() {
                Some(v) if (INLINE_MIN..=INLINE_MAX).contains(&v) => {
                    ((v << 2) as u64) | TAG_INT
                }
                _ => self.intern_cell_opt(cache, cell),
            },
            _ => self.intern_cell_opt(cache, cell),
        }
    }

    fn encode_cell(&self, cell: CellState) -> u64 {
        self.encode_cell_opt(None, cell)
    }

    fn intern_cell_opt(&self, cache: Option<&mut PackedCache<P>>, cell: CellState) -> u64 {
        match cache {
            Some(cache) => {
                let hash = fingerprint_of(&cell);
                if let Some(&word) = cache.cell_words.get(&hash) {
                    return word;
                }
                let id = self.cells.intern_prehashed(
                    hash,
                    cell,
                    false,
                    |_, hash| CellMeta { hash },
                    CellState::resident_bytes,
                );
                let word = ((id as u64) << 2) | TAG_REF;
                cache.charge(std::mem::size_of::<(u128, u64)>());
                cache.cell_words.insert(hash, word);
                word
            }
            None => {
                let id = self.cells.intern(
                    cell,
                    false,
                    |_, hash| CellMeta { hash },
                    CellState::resident_bytes,
                );
                ((id as u64) << 2) | TAG_REF
            }
        }
    }

    /// Decodes a word back to its cell.
    fn decode_cell_opt(&self, cache: Option<&mut PackedCache<P>>, word: u64) -> CellState {
        match word & TAG_MASK {
            TAG_BOT => CellState::word(Value::Bot),
            TAG_INT => CellState::word(Value::int((word as i64) >> 2)),
            TAG_REF => self.cell_entry(cache, (word >> 2) as u32, |cell, _| cell.clone()),
            _ => unreachable!("unused cell word tag"),
        }
    }

    /// Content hash of the cell a word encodes, without decoding interned
    /// entries (their hash is cached).
    fn word_hash_opt(&self, cache: Option<&mut PackedCache<P>>, word: u64) -> u128 {
        match word & TAG_MASK {
            TAG_BOT => self.bot_hash,
            TAG_INT => fingerprint_of(&CellState::word(Value::int((word as i64) >> 2))),
            TAG_REF => self.cell_entry(cache, (word >> 2) as u32, |_, hash| hash),
            _ => unreachable!("unused cell word tag"),
        }
    }

    fn intern_proc_opt(&self, cache: Option<&mut PackedCache<P>>, p: P) -> u32 {
        match cache {
            Some(cache) => {
                let hash = fingerprint_of(&p);
                if let Some(&id) = cache.proc_ids.get(&hash) {
                    return id;
                }
                let decision = p.action().decision();
                let meta = ProcMeta { hash, decision };
                let id = self.procs.intern_prehashed(
                    hash,
                    p.clone(),
                    decision.is_some(),
                    |_, _| meta,
                    proc_entry_bytes,
                );
                cache.charge(std::mem::size_of::<(u128, u32)>());
                cache.proc_ids.insert(hash, id);
                if !cache.procs.contains_key(&id) {
                    cache.charge(proc_entry_bytes(&p));
                    cache.procs.insert(id, (p, meta));
                }
                id
            }
            None => {
                let decision = p.action().decision();
                self.procs.intern(
                    p,
                    decision.is_some(),
                    |_, hash| ProcMeta { hash, decision },
                    proc_entry_bytes,
                )
            }
        }
    }

    fn intern_proc(&self, p: P) -> u32 {
        self.intern_proc_opt(None, p)
    }

    /// The process state behind `id`, cloned out of the table.
    pub fn proc_state(&self, id: u32) -> P {
        self.proc_state_opt(None, id)
    }

    fn proc_state_opt(&self, cache: Option<&mut PackedCache<P>>, id: u32) -> P {
        self.proc_entry(cache, id, |p, _| p.clone())
    }

    fn proc_action_opt(&self, cache: Option<&mut PackedCache<P>>, id: u32) -> Action {
        self.proc_entry(cache, id, |p, _| p.action())
    }

    fn proc_hash_opt(&self, cache: Option<&mut PackedCache<P>>, id: u32) -> u128 {
        self.proc_entry(cache, id, |_, meta| meta.hash)
    }

    fn proc_decision_opt(&self, cache: Option<&mut PackedCache<P>>, id: u32) -> Option<u64> {
        if !id_decided(id) {
            return None; // fast path: flag bit avoids the table read
        }
        self.proc_entry(cache, id, |_, meta| meta.decision)
    }

    fn proc_decision(&self, id: u32) -> Option<u64> {
        self.proc_decision_opt(None, id)
    }

    // -- semantic queries ----------------------------------------------------

    /// The decision of `pid` — recorded, or poised (mirrors the machine's
    /// semantic decision query).
    pub fn decision(&self, state: &PackedState, pid: usize) -> Option<u64> {
        state.decided[pid].or_else(|| self.proc_decision(state.procs[pid]))
    }

    /// [`PackedCtx::decision`] through a worker-local cache.
    pub fn decision_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &PackedState,
        pid: usize,
    ) -> Option<u64> {
        state.decided[pid].or_else(|| self.proc_decision_opt(Some(cache), state.procs[pid]))
    }

    /// `true` if `pid` has not decided.
    pub fn is_active(&self, state: &PackedState, pid: usize) -> bool {
        state.decided[pid].is_none() && !id_decided(state.procs[pid])
    }

    /// `true` if any process can still move.
    pub fn has_active(&self, state: &PackedState) -> bool {
        (0..state.n()).any(|pid| self.is_active(state, pid))
    }

    /// The id of `pid`'s process state (for callers that cache table reads).
    pub fn proc_id(&self, state: &PackedState, pid: usize) -> u32 {
        state.procs[pid]
    }

    // -- pack / unpack -------------------------------------------------------

    /// Packs a configuration given as parts (the machine's fields).
    pub fn pack(
        &self,
        procs: &[P],
        decided: &[Option<u64>],
        memory: &Memory,
        steps: u64,
    ) -> PackedState {
        debug_assert_eq!(memory.iset(), self.iset, "context/memory mismatch");
        PackedState {
            procs: procs.iter().map(|p| self.intern_proc(p.clone())).collect(),
            decided: decided.to_vec(),
            cells: (0..memory.len())
                .map(|loc| self.encode_cell(memory.cell(loc).expect("loc < len").clone()))
                .collect(),
            touched: memory.touched(),
            steps,
        }
    }

    /// Unpacks a configuration into its semantic parts: process states,
    /// recorded decisions, a rebuilt [`Memory`], and the step counter.
    pub fn unpack(&self, state: &PackedState) -> (Vec<P>, Vec<Option<u64>>, Memory, u64) {
        self.unpack_opt(None, state)
    }

    /// [`PackedCtx::unpack`] through a worker-local cache.
    pub fn unpack_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &PackedState,
    ) -> (Vec<P>, Vec<Option<u64>>, Memory, u64) {
        self.unpack_opt(Some(cache), state)
    }

    fn unpack_opt(
        &self,
        mut cache: Option<&mut PackedCache<P>>,
        state: &PackedState,
    ) -> (Vec<P>, Vec<Option<u64>>, Memory, u64) {
        let procs = state
            .procs
            .iter()
            .map(|&id| self.proc_state_opt(cache.as_deref_mut(), id))
            .collect();
        let cells = state
            .cells
            .iter()
            .map(|&w| self.decode_cell_opt(cache.as_deref_mut(), w))
            .collect();
        let memory = Memory::from_raw_parts(
            self.iset,
            self.growable,
            cells,
            self.default_cell.clone(),
            state.touched,
        );
        (procs, state.decided.clone(), memory, state.steps)
    }

    // -- step application ----------------------------------------------------

    /// Pure op application against the packed memory: computes the result
    /// value and the cell edit without mutating anything, with exactly the
    /// checks, ordering and error values of [`Memory::apply`].
    fn apply_op_opt(
        &self,
        mut cache: Option<&mut PackedCache<P>>,
        state: &PackedState,
        op: &Op,
    ) -> Result<(Value, MemEdit), ModelError> {
        let len = state.cells.len();
        let ensure = |loc: usize| -> Result<(), ModelError> {
            if loc < len || self.growable {
                Ok(())
            } else {
                Err(ModelError::OutOfBounds { loc, len })
            }
        };
        match op {
            Op::Single { loc, instr } => {
                self.iset.check(instr)?;
                ensure(*loc)?;
                let mut cell = if *loc < len {
                    self.decode_cell_opt(cache.as_deref_mut(), state.cells[*loc])
                } else {
                    self.default_cell.clone()
                };
                let result = cell.apply(instr)?;
                let changes = if instr.is_trivial() && *loc < len {
                    Vec::new() // a trivial op on an existing cell edits nothing
                } else {
                    vec![(*loc, cell)]
                };
                Ok((
                    result,
                    MemEdit {
                        changes,
                        new_len: len.max(loc + 1),
                        new_touched: state.touched.max(loc + 1),
                    },
                ))
            }
            Op::MultiAssign(writes) => {
                for (i, (loc, _)) in writes.iter().enumerate() {
                    if writes[..i].iter().any(|(l, _)| l == loc) {
                        return Err(ModelError::DuplicateMultiAssignTarget { loc: *loc });
                    }
                }
                // Validate all targets before computing any write: the step
                // is atomic and must fail atomically, like `Memory::apply`.
                for (loc, v) in writes {
                    let probe = if self.iset.buffer_capacity().is_some() {
                        Instruction::BufferWrite(v.clone())
                    } else {
                        Instruction::Write(v.clone())
                    };
                    self.iset.check(&probe)?;
                    ensure(*loc)?;
                }
                let mut new_len = len;
                let mut new_touched = state.touched;
                let mut changes = Vec::with_capacity(writes.len());
                for (loc, v) in writes {
                    let mut cell = if *loc < len {
                        self.decode_cell_opt(cache.as_deref_mut(), state.cells[*loc])
                    } else {
                        self.default_cell.clone()
                    };
                    cell.multi_assign_write(v.clone());
                    changes.push((*loc, cell));
                    new_len = new_len.max(loc + 1);
                    new_touched = new_touched.max(loc + 1);
                }
                Ok((
                    Value::Bot,
                    MemEdit {
                        changes,
                        new_len,
                        new_touched,
                    },
                ))
            }
        }
    }

    /// Applies one step of `pid` in place, mirroring the machine's step
    /// semantics exactly: a poised decision is recorded (no memory step); an
    /// invocation applies the op, absorbs the result and records any new
    /// decision. Returns the outcome plus an undo token.
    ///
    /// # Errors
    ///
    /// Exactly the [`ModelError`]s of [`Memory::apply`]; the state is
    /// unchanged on error.
    pub fn step(
        &self,
        state: &mut PackedState,
        pid: usize,
    ) -> Result<(PackedStepOutcome, PackedUndo), ModelError> {
        self.step_opt(None, state, pid)
    }

    /// [`PackedCtx::step`] through a worker-local cache.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedCtx::step`].
    pub fn step_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &mut PackedState,
        pid: usize,
    ) -> Result<(PackedStepOutcome, PackedUndo), ModelError> {
        self.step_opt(Some(cache), state, pid)
    }

    fn step_opt(
        &self,
        mut cache: Option<&mut PackedCache<P>>,
        state: &mut PackedState,
        pid: usize,
    ) -> Result<(PackedStepOutcome, PackedUndo), ModelError> {
        let prev_decided = state.decided[pid];
        match self.proc_action_opt(cache.as_deref_mut(), state.procs[pid]) {
            Action::Decide(v) => {
                state.decided[pid] = Some(v);
                Ok((
                    PackedStepOutcome::AlreadyDecided(v),
                    PackedUndo {
                        pid,
                        prev_decided,
                        invoked: None,
                    },
                ))
            }
            Action::Invoke(op) => {
                let (result, edit) = self.apply_op_opt(cache.as_deref_mut(), state, &op)?;
                let prev_len = state.cells.len();
                let prev_touched = state.touched;
                while state.cells.len() < edit.new_len {
                    state.cells.push(self.default_word);
                }
                let mut prev_words = Vec::with_capacity(edit.changes.len());
                for (loc, cell) in edit.changes {
                    if loc < prev_len {
                        prev_words.push((loc, state.cells[loc]));
                    }
                    state.cells[loc] = self.encode_cell_opt(cache.as_deref_mut(), cell);
                }
                state.touched = edit.new_touched;
                let prev_proc = state.procs[pid];
                let mut p = self.proc_state_opt(cache.as_deref_mut(), prev_proc);
                p.absorb(result.clone());
                let new_id = self.intern_proc_opt(cache.as_deref_mut(), p);
                state.procs[pid] = new_id;
                state.steps += 1;
                if let Some(v) = self.proc_decision_opt(cache, new_id) {
                    state.decided[pid] = Some(v);
                }
                Ok((
                    PackedStepOutcome::Invoked(result),
                    PackedUndo {
                        pid,
                        prev_decided,
                        invoked: Some(InvokeUndo {
                            prev_proc,
                            prev_len,
                            prev_touched,
                            prev_words,
                        }),
                    },
                ))
            }
        }
    }

    /// Reverts the step that produced `undo`. Tokens must be consumed in
    /// reverse order of application.
    pub fn undo(&self, state: &mut PackedState, undo: PackedUndo) {
        let PackedUndo {
            pid,
            prev_decided,
            invoked,
        } = undo;
        if let Some(inv) = invoked {
            state.procs[pid] = inv.prev_proc;
            state.cells.truncate(inv.prev_len);
            for (loc, word) in inv.prev_words {
                state.cells[loc] = word;
            }
            state.touched = inv.prev_touched;
            state.steps -= 1;
        }
        state.decided[pid] = prev_decided;
    }

    /// Clones the state and steps `pid` in the copy — the branch primitive.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedCtx::step`].
    pub fn branch_step(&self, state: &PackedState, pid: usize) -> Result<PackedState, ModelError> {
        let mut next = state.clone();
        self.step(&mut next, pid)?;
        Ok(next)
    }

    /// [`PackedCtx::branch_step`] through a worker-local cache.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedCtx::step`].
    pub fn branch_step_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &PackedState,
        pid: usize,
    ) -> Result<PackedState, ModelError> {
        let mut next = state.clone();
        self.step_cached(cache, &mut next, pid)?;
        Ok(next)
    }

    // -- digests -------------------------------------------------------------

    /// Full-scan Zobrist digest: a wrapping sum of independent components,
    /// one per (pid, process-state hash, recorded decision), one per
    /// (location, cell hash), one for the touched count. In `symmetric` mode
    /// the process components drop the pid tag, quotienting the digest by
    /// process permutation. Step counters are excluded.
    ///
    /// Equality of digests coincides (up to 128-bit collisions) with
    /// semantic-configuration equality — the same partition
    /// `Machine::fingerprint` induces, through an independent construction.
    pub fn digest(&self, state: &PackedState, symmetric: bool) -> u128 {
        self.digest_opt(None, state, symmetric)
    }

    /// [`PackedCtx::digest`] through a worker-local cache.
    pub fn digest_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &PackedState,
        symmetric: bool,
    ) -> u128 {
        self.digest_opt(Some(cache), state, symmetric)
    }

    fn digest_opt(
        &self,
        mut cache: Option<&mut PackedCache<P>>,
        state: &PackedState,
        symmetric: bool,
    ) -> u128 {
        let mut fp = comp_touched(state.touched);
        for pid in 0..state.n() {
            fp = fp.wrapping_add(self.comp_proc_opt(cache.as_deref_mut(), state, pid, symmetric));
        }
        for (loc, &word) in state.cells.iter().enumerate() {
            fp = fp.wrapping_add(comp_cell(loc, self.word_hash_opt(cache.as_deref_mut(), word)));
        }
        fp
    }

    fn comp_proc_opt(
        &self,
        cache: Option<&mut PackedCache<P>>,
        state: &PackedState,
        pid: usize,
        symmetric: bool,
    ) -> u128 {
        comp_proc_raw(
            pid,
            self.proc_hash_opt(cache, state.procs[pid]),
            state.decided[pid],
            symmetric,
        )
    }

    /// The digest of `pid`'s successor, derived incrementally from the
    /// parent's digest `base` **without mutating the state or touching the
    /// intern tables** — only the components the step changes are swapped.
    /// This is the read-only edge walk the explorer's workers run in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedCtx::step`] on the same edge.
    pub fn edge_digest(
        &self,
        state: &PackedState,
        pid: usize,
        base: u128,
        symmetric: bool,
    ) -> Result<u128, ModelError> {
        self.edge_digest_opt(None, state, pid, base, symmetric)
    }

    /// [`PackedCtx::edge_digest`] through a worker-local cache. The preview
    /// never writes to the *shared* tables, but may populate the cache.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PackedCtx::step`] on the same edge.
    pub fn edge_digest_cached(
        &self,
        cache: &mut PackedCache<P>,
        state: &PackedState,
        pid: usize,
        base: u128,
        symmetric: bool,
    ) -> Result<u128, ModelError> {
        self.edge_digest_opt(Some(cache), state, pid, base, symmetric)
    }

    fn edge_digest_opt(
        &self,
        mut cache: Option<&mut PackedCache<P>>,
        state: &PackedState,
        pid: usize,
        base: u128,
        symmetric: bool,
    ) -> Result<u128, ModelError> {
        let id = state.procs[pid];
        let old_comp = self.comp_proc_opt(cache.as_deref_mut(), state, pid, symmetric);
        match self.proc_action_opt(cache.as_deref_mut(), id) {
            Action::Decide(v) => {
                let hash = self.proc_hash_opt(cache.as_deref_mut(), id);
                let new_comp = comp_proc_raw(pid, hash, Some(v), symmetric);
                Ok(base.wrapping_sub(old_comp).wrapping_add(new_comp))
            }
            Action::Invoke(op) => {
                let (result, edit) = self.apply_op_opt(cache.as_deref_mut(), state, &op)?;
                let mut p = self.proc_state_opt(cache.as_deref_mut(), id);
                p.absorb(result);
                let new_decided = p.action().decision().or(state.decided[pid]);
                let mut fp = base
                    .wrapping_sub(old_comp)
                    .wrapping_add(comp_proc_raw(pid, fingerprint_of(&p), new_decided, symmetric));
                let old_len = state.cells.len();
                for (loc, cell) in &edit.changes {
                    if *loc < old_len {
                        let cell_hash = self.word_hash_opt(cache.as_deref_mut(), state.cells[*loc]);
                        fp = fp.wrapping_sub(comp_cell(*loc, cell_hash));
                    }
                    fp = fp.wrapping_add(comp_cell(*loc, fingerprint_of(cell)));
                }
                // Locations the step grew into but did not write hold the
                // default cell: pure component additions.
                for loc in old_len..edit.new_len {
                    if !edit.changes.iter().any(|(l, _)| l == &loc) {
                        fp = fp.wrapping_add(comp_cell(loc, self.default_hash));
                    }
                }
                if edit.new_touched != state.touched {
                    fp = fp
                        .wrapping_sub(comp_touched(state.touched))
                        .wrapping_add(comp_touched(edit.new_touched));
                }
                Ok(fp)
            }
        }
    }
}

fn comp_proc_raw(pid: usize, hash: u128, decided: Option<u64>, symmetric: bool) -> u128 {
    let mut h = Fp128Hasher::new();
    h.write_u8(b'p');
    if !symmetric {
        h.write_usize(pid);
    }
    h.write_u128(hash);
    decided.hash(&mut h);
    h.finish128()
}

fn comp_cell(loc: usize, hash: u128) -> u128 {
    let mut h = Fp128Hasher::new();
    h.write_u8(b'c');
    h.write_usize(loc);
    h.write_u128(hash);
    h.finish128()
}

fn comp_touched(touched: usize) -> u128 {
    let mut h = Fp128Hasher::new();
    h.write_u8(b't');
    h.write_usize(touched);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction as I, MemorySpec};

    /// Fetch-and-increments `rounds` times, then decides the last value mod 2.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub(crate) struct Adder {
        remaining: u32,
        last: u64,
    }

    impl Process for Adder {
        fn action(&self) -> Action {
            if self.remaining == 0 {
                Action::Decide(self.last % 2)
            } else {
                Action::Invoke(Op::single(0, I::FetchAndIncrement))
            }
        }
        fn absorb(&mut self, result: Value) {
            self.last = result.as_u64().unwrap();
            self.remaining -= 1;
        }
    }

    pub(crate) fn adder_setup(n: usize, rounds: u32) -> (PackedCtx<Adder>, PackedState) {
        let spec = MemorySpec::bounded(InstructionSet::ReadWriteFetchIncrement, 1);
        let memory = Memory::new(&spec);
        let ctx = PackedCtx::for_spec(&spec, n);
        let procs: Vec<Adder> = (0..n).map(|_| Adder { remaining: rounds, last: 0 }).collect();
        let state = ctx.pack(&procs, &vec![None; n], &memory, 0);
        (ctx, state)
    }

    #[test]
    fn step_and_undo_roundtrip() {
        let (ctx, mut state) = adder_setup(2, 2);
        let snapshot = state.clone();
        let fp = ctx.digest(&state, false);
        let (outcome, undo) = ctx.step(&mut state, 0).unwrap();
        assert_eq!(outcome, PackedStepOutcome::Invoked(Value::int(0)));
        assert_ne!(state, snapshot);
        assert_ne!(ctx.digest(&state, false), fp);
        ctx.undo(&mut state, undo);
        assert_eq!(state, snapshot);
        assert_eq!(ctx.digest(&state, false), fp);
    }

    #[test]
    fn edge_digest_matches_full_rehash_and_branch() {
        let (ctx, state) = adder_setup(3, 3);
        let base = ctx.digest(&state, false);
        for sym in [false, true] {
            let base = ctx.digest(&state, sym);
            for pid in 0..3 {
                let preview = ctx.edge_digest(&state, pid, base, sym).unwrap();
                let child = ctx.branch_step(&state, pid).unwrap();
                assert_eq!(preview, ctx.digest(&child, sym), "pid {pid} sym {sym}");
            }
        }
        // The preview leaves the state untouched.
        assert_eq!(base, ctx.digest(&state, false));
    }

    #[test]
    fn cached_paths_agree_with_uncached() {
        let (ctx, state) = adder_setup(3, 2);
        let mut cache = PackedCache::new();
        for sym in [false, true] {
            let base = ctx.digest(&state, sym);
            assert_eq!(ctx.digest_cached(&mut cache, &state, sym), base);
            for pid in 0..3 {
                let preview = ctx.edge_digest(&state, pid, base, sym).unwrap();
                assert_eq!(
                    ctx.edge_digest_cached(&mut cache, &state, pid, base, sym).unwrap(),
                    preview
                );
                let child = ctx.branch_step(&state, pid).unwrap();
                let cached_child = ctx.branch_step_cached(&mut cache, &state, pid).unwrap();
                assert_eq!(cached_child, child, "pid {pid} sym {sym}");
                assert_eq!(
                    ctx.decision_cached(&mut cache, &child, pid),
                    ctx.decision(&child, pid)
                );
            }
        }
        // The cache warmed up and the cached unpack matches the plain one.
        assert!(!cache.is_empty());
        let plain = ctx.unpack(&state);
        assert_eq!(ctx.unpack_cached(&mut cache, &state), plain);
    }

    #[test]
    fn decisions_are_recorded_and_tracked() {
        let (ctx, mut state) = adder_setup(2, 1);
        assert!(ctx.is_active(&state, 0));
        ctx.step(&mut state, 0).unwrap();
        // One round: the process decided after absorbing.
        assert_eq!(ctx.decision(&state, 0), Some(0));
        assert!(!ctx.is_active(&state, 0));
        assert!(ctx.has_active(&state), "p1 still live");
        assert_eq!(state.steps(), 1);
    }

    #[test]
    fn pack_unpack_roundtrips_semantics() {
        let spec = MemorySpec::unbounded(InstructionSet::ReadWrite);
        let mut memory = Memory::new(&spec);
        memory.apply(&Op::single(5, I::write(1u64 << 62))).unwrap(); // non-inline int
        let ctx: PackedCtx<Adder> = PackedCtx::for_spec(&spec, 1);
        let procs = vec![Adder { remaining: 1, last: 7 }];
        let state = ctx.pack(&procs, &[None], &memory, 9);
        let (procs2, decided2, memory2, steps2) = ctx.unpack(&state);
        assert_eq!(procs2, procs);
        assert_eq!(decided2, vec![None]);
        assert_eq!(memory2, memory);
        assert_eq!(steps2, 9);
    }

    #[test]
    fn inline_encoding_bounds() {
        let spec = MemorySpec::bounded(InstructionSet::ReadWrite, 1);
        let ctx: PackedCtx<Adder> = PackedCtx::for_spec(&spec, 1);
        for v in [0i64, 1, -1, INLINE_MAX, INLINE_MIN] {
            let word = ctx.encode_cell(CellState::word(Value::int(v)));
            assert_eq!(word & TAG_MASK, TAG_INT, "{v} should be inline");
            assert_eq!(ctx.decode_cell_opt(None, word), CellState::word(Value::int(v)));
        }
        for cell in [
            CellState::word(Value::int(INLINE_MAX as i128 + 1)),
            CellState::word(Value::seq([Value::Bot])),
            CellState::buffer(2),
        ] {
            let word = ctx.encode_cell(cell.clone());
            assert_eq!(word & TAG_MASK, TAG_REF, "{cell:?} must be interned");
            assert_eq!(ctx.decode_cell_opt(None, word), cell);
            // Canonical: re-encoding yields the identical word.
            assert_eq!(ctx.encode_cell(cell), word);
        }
        assert_eq!(ctx.encode_cell(CellState::word(Value::Bot)), TAG_BOT);
    }

    #[test]
    fn digest_excludes_steps_and_respects_symmetry() {
        let (ctx, state) = adder_setup(2, 2);
        let mut a = state.clone();
        ctx.step(&mut a, 0).unwrap();
        ctx.step(&mut a, 0).unwrap(); // p0 decided; decides are not memory steps
        let mut b = state.clone();
        ctx.step(&mut b, 1).unwrap();
        ctx.step(&mut b, 1).unwrap();
        assert_ne!(ctx.digest(&a, false), ctx.digest(&b, false));
        assert_eq!(
            ctx.digest(&a, true),
            ctx.digest(&b, true),
            "mirrored configurations merge under the symmetric digest"
        );
    }

    #[test]
    fn errors_match_memory_semantics() {
        let spec = MemorySpec::bounded(InstructionSet::Cas, 1);
        let ctx: PackedCtx<Adder> = PackedCtx::for_spec(&spec, 1);
        let memory = Memory::new(&spec);
        let state = ctx.pack(&[], &[], &memory, 0);
        let op = Op::read(0); // read() is not in {compare-and-swap}
        let packed_err = ctx.apply_op_opt(None, &state, &op).unwrap_err();
        let mut mem = Memory::new(&spec);
        assert_eq!(packed_err, mem.apply(&op).unwrap_err());
        let oob = Op::single(3, I::Read);
        assert_eq!(
            ctx.apply_op_opt(None, &state, &oob).unwrap_err(),
            mem.apply(&oob).unwrap_err()
        );
    }
}
