//! Atomic claim table: the explorer's shared fingerprint set.
//!
//! The parallel packed engine has two consumers of one "have we seen this
//! configuration?" question, with different consistency needs:
//!
//! - **workers** make *advisory* claims while speculatively expanding — a
//!   lost or duplicated claim costs only wasted work, never correctness,
//!   because the committer re-checks every edge in admission order;
//! - the **committer** needs an *authoritative* admitted set: exactly one
//!   admission per fingerprint, in the deterministic order it processes
//!   results.
//!
//! The previous implementation (`ClaimSet`, a striped
//! `Vec<RwLock<HashSet<u128>>>`) served only the workers and serialised them
//! on its read-then-upgrade path whenever the frontier was narrow; the
//! committer kept a second, private `HashSet`. [`ClaimTable`] replaces both:
//! an open-addressing table of `AtomicU64` pairs (the two halves of each
//! 128-bit fingerprint) that workers claim into with one CAS and the
//! committer admits into via a separate committed bitmap. The slot arrays
//! sit behind an `RwLock` whose read guard every call holds; the only
//! writer is a doubling, so the hot paths never wait on each other.
//!
//! # Growth
//!
//! The explorer starts the table small and admits through
//! [`ClaimTable::admit_growing`], which doubles it once the committer's
//! admissions pass half the slots, up to 2²³ slots. Memory follows the
//! run instead of `ExploreLimits::max_configs`. Plain `claim` and `admit`
//! calls never grow a table, and advisory (budgeted) tables never grow.
//!
//! # Layout and probe scheme
//!
//! `words` interleaves slot halves: slot `i` is `(words[2i], words[2i+1])` =
//! `(lo, hi)` of the resident fingerprint. A slot is **write-once**: `lo`
//! moves `0 → fp.lo` exactly once (the CAS that claims the slot) and `hi`
//! moves `0 → fp.hi` exactly once (a release-store by the CAS winner).
//! Probing is linear from `hi(fp) & mask` for up to [`PROBE_LIMIT`] slots.
//!
//! # Why two u64 halves are safe
//!
//! Matching compares the **full 128 bits** — both halves must agree — so the
//! split loses no information relative to a `HashSet<u128>`. The only hazard
//! is the publication gap between the `lo`-CAS and the `hi`-store; a reader
//! that observes `lo != 0` but `hi == 0` simply spins until the winner's
//! release-store lands (per-location coherence makes that wait finite).
//! Fingerprints with a zero half — probability ≈ 2⁻⁶³ per half under the
//! model's 128-bit content hashing — would be indistinguishable from vacant
//! or half-published slots, so they are routed to the mutex-guarded
//! [`overflow`](ClaimTable#structfield.overflow) map instead, which also
//! absorbs insertions once a probe run finds no vacancy (table effectively
//! full). Every path degrades to a correct, merely slower, shared map —
//! never to a lost or duplicated claim.
//!
//! # Insert-once argument
//!
//! For a fixed fingerprint every thread walks the **same** deterministic
//! probe sequence over slots whose occupancy is monotone (claimed slots are
//! never vacated, resident fingerprints never rewritten). Each thread stops
//! at the first slot that either matches the fingerprint or is vacant; at a
//! vacant slot exactly one CAS wins. The winner sees `ClaimedNew`; every
//! racer either loses the CAS and re-examines the same slot (now holding the
//! winner's fingerprint → `Present`) or arrives later and matches earlier in
//! the walk. A thread can reach the overflow map only after finding the
//! whole probe window occupied by *other* fingerprints — which, by
//! monotonicity, every other thread probing the same fingerprint also finds
//! — so the per-fingerprint decision point is unique: either one table slot
//! or one overflow entry, never both.
//!
//! A doubling keeps the argument. It runs under the write guard, so no
//! claim or admission is in flight and none sees a half-built table. It
//! re-inserts every resident fingerprint into the larger slot array with
//! its committed bit, then moves every non-zero-half overflow entry that
//! now finds a vacancy; what still finds none stays in the overflow map,
//! its whole probe window occupied. Each fingerprint so keeps exactly one
//! home, occupancy stays monotone from then on, and every later call walks
//! the new table only.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// Longest linear-probe run before an insertion falls back to the overflow
/// map. Bounds worst-case work per claim on a degenerately full table.
const PROBE_LIMIT: usize = 64;

/// Hard cap on table slots (2²³ slots = 128 MiB of fingerprint words), for
/// presizing and for growth alike.
const MAX_SLOTS: usize = 1 << 23;

/// Where a fingerprint landed during a probe.
enum Probe {
    /// This call claimed a vacant slot — first sight of the fingerprint.
    ClaimedNew(usize),
    /// The fingerprint already resides in this slot.
    Present(usize),
    /// Zero-half fingerprint or no vacancy within [`PROBE_LIMIT`]: the
    /// overflow map is authoritative for this fingerprint.
    Overflow,
}

/// The open-addressed part of the table: what a doubling replaces.
struct Slots {
    /// Interleaved slot halves: slot `i` = `(words[2i] = lo, words[2i+1] = hi)`.
    words: Vec<AtomicU64>,
    /// Slot count − 1 (slot count is a power of two).
    mask: usize,
    /// One bit per slot: set iff the committer admitted the resident
    /// fingerprint. Distinguishes "claimed by a worker" from "admitted".
    committed: Vec<AtomicU64>,
}

impl Slots {
    fn new(slots: usize) -> Self {
        Slots {
            words: (0..slots * 2).map(|_| AtomicU64::new(0)).collect(),
            mask: slots - 1,
            committed: (0..slots.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn bytes(&self) -> usize {
        (self.words.len() + self.committed.len()) * 8
    }

    /// Waits out the publication gap on `slot`'s hi half and compares it.
    /// Only called when the slot's lo half matched, i.e. some thread CASed
    /// it and its release-store of hi is at worst in flight.
    fn hi_matches(&self, slot: usize, hi: u64) -> bool {
        loop {
            let stored = self.words[slot * 2 + 1].load(Ordering::Acquire);
            if stored != 0 {
                return stored == hi;
            }
            std::hint::spin_loop();
        }
    }

    /// Finds or claims the slot for `fp`. The write path of claims,
    /// admissions and the rehash of a doubling.
    fn insert_fp(&self, fp: u128) -> Probe {
        let lo = fp as u64;
        let hi = (fp >> 64) as u64;
        if lo == 0 || hi == 0 {
            return Probe::Overflow; // zero halves are the vacancy sentinel
        }
        let mut slot = (hi as usize) & self.mask;
        for _ in 0..PROBE_LIMIT.min(self.capacity()) {
            let resident = self.words[slot * 2].load(Ordering::Acquire);
            if resident == 0 {
                match self.words[slot * 2].compare_exchange(
                    0,
                    lo,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.words[slot * 2 + 1].store(hi, Ordering::Release);
                        return Probe::ClaimedNew(slot);
                    }
                    Err(winner) => {
                        if winner == lo && self.hi_matches(slot, hi) {
                            return Probe::Present(slot);
                        }
                    }
                }
            } else if resident == lo && self.hi_matches(slot, hi) {
                return Probe::Present(slot);
            }
            slot = (slot + 1) & self.mask;
        }
        Probe::Overflow
    }

    /// Sets `slot`'s committed bit; `true` iff it was clear.
    fn commit(&self, slot: usize) -> bool {
        let bit = 1u64 << (slot % 64);
        self.committed[slot / 64].fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    fn is_committed(&self, slot: usize) -> bool {
        self.committed[slot / 64].load(Ordering::Relaxed) & (1u64 << (slot % 64)) != 0
    }

    /// The fingerprint resident in `slot`, if any. Only for callers that
    /// see no claim in flight (a doubling, a test view) or read committed
    /// slots, whose admission already observed a published `hi`.
    fn resident(&self, slot: usize) -> Option<u128> {
        let lo = self.words[slot * 2].load(Ordering::Acquire);
        let hi = self.words[slot * 2 + 1].load(Ordering::Acquire);
        (lo != 0).then_some(((hi as u128) << 64) | lo as u128)
    }

    /// A table of twice the slots holding every fingerprint of `self` and
    /// every non-zero-half entry of `overflow` that fits, each with its
    /// committed bit. Entries that find no vacancy stay in (or move to)
    /// `overflow`, so each fingerprint still has exactly one home. Called
    /// only under the write guard, so no claim is in flight.
    fn doubled(&self, overflow: &mut HashMap<u128, bool>) -> Slots {
        let fresh = Slots::new(self.capacity() * 2);
        let place = |fp: u128, admitted: bool| match fresh.insert_fp(fp) {
            Probe::ClaimedNew(slot) => {
                if admitted {
                    fresh.commit(slot);
                }
                true
            }
            Probe::Present(_) => unreachable!("{fp:#x} had two homes"),
            Probe::Overflow => false,
        };
        for slot in 0..self.capacity() {
            if let Some(fp) = self.resident(slot) {
                let admitted = self.is_committed(slot);
                if !place(fp, admitted) {
                    overflow.insert(fp, admitted);
                }
            }
        }
        // After the slots, so an entry left here found its whole probe
        // window occupied — the invariant `contains` relies on.
        overflow.retain(|&fp, &mut admitted| !place(fp, admitted));
        fresh
    }
}

/// A CAS-claimed set of 128-bit fingerprints with a separate committed
/// bitmap — the shared claim/seen structure of the parallel explorer. The
/// committer's [`ClaimTable::admit_growing`] doubles it as admissions pass
/// half its slots. See the [module docs](self) for the design argument.
pub struct ClaimTable {
    /// The slot arrays. Every call holds a read guard for its duration;
    /// only a doubling takes the write guard, to swap in the larger table.
    slots: RwLock<Slots>,
    /// Fingerprint → admitted? for everything the slots cannot hold.
    overflow: Mutex<HashMap<u128, bool>>,
    /// Committer admissions so far: the growth trigger. Written and read
    /// by the committer alone and publishes nothing, hence `Relaxed`.
    admitted: AtomicUsize,
    /// Advisory-only mode (budgeted parallel runs): overflow insertions are
    /// *dropped* instead of growing the unbounded map — `claim` answers
    /// `false`, the worker skips materialising that child, and the
    /// committer derives it from the parent. Claims stay bounded by the
    /// table allocation at the cost of some duplicated expansion work.
    /// Advisory tables never grow.
    lossy: bool,
}

impl ClaimTable {
    /// A table presized for about `expected` distinct fingerprints. Allocates
    /// ~2 slots per expected entry, clamped to [16, 2²³] slots, so probes
    /// stay short at the advertised fill. The explorer starts small and
    /// lets [`ClaimTable::admit_growing`] double the table with the run.
    pub fn new(expected: usize) -> Self {
        let slots = expected
            .saturating_add(1)
            .saturating_mul(2)
            .clamp(16, MAX_SLOTS)
            .next_power_of_two();
        Self::with_slots(slots, false)
    }

    /// A **lossy advisory** table fitting in about `bytes` of RAM, for
    /// memory-budgeted parallel runs: sized from the budget and never
    /// grown, and overflow claims are dropped (see
    /// [`ClaimTable::claim`]) rather than accumulated. Must not be used as
    /// an authoritative admission set — the budgeted committer keeps its own
    /// [`crate::fpset::FpSet`].
    pub fn advisory(bytes: usize) -> Self {
        // A slot costs 16 bytes of words plus 1/8 byte of bitmap ≈ 17; round
        // to the largest power of two that fits.
        let mut slots = (bytes / 17).max(16).next_power_of_two();
        if slots > 16 && slots * 17 > bytes {
            slots /= 2;
        }
        Self::with_slots(slots.min(MAX_SLOTS), true)
    }

    fn with_slots(slots: usize, lossy: bool) -> Self {
        ClaimTable {
            slots: RwLock::new(Slots::new(slots)),
            overflow: Mutex::new(HashMap::new()),
            admitted: AtomicUsize::new(0),
            lossy,
        }
    }

    /// The current slot arrays. Only a panic inside a doubling, which no
    /// input can provoke, poisons the lock.
    fn slots(&self) -> RwLockReadGuard<'_, Slots> {
        self.slots.read().expect("claim table doubling panicked")
    }

    fn overflow(&self) -> MutexGuard<'_, HashMap<u128, bool>> {
        self.overflow.lock().expect("a thread panicked holding the claim table overflow map")
    }

    /// Number of slots in the table proper (excluding overflow).
    pub fn capacity(&self) -> usize {
        self.slots().capacity()
    }

    /// Bytes of the slot allocation: fingerprint words plus committed bitmap.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.slots().bytes()
    }

    /// Estimated resident bytes: the slot allocation plus the overflow map.
    pub fn resident_bytes(&self) -> usize {
        let slots = self.slots();
        slots.bytes() + self.overflow().len() * 40
    }

    /// Worker-side advisory claim: `true` iff this call is the first to
    /// claim `fp`. Thread-safe: one CAS under the shared read guard, which
    /// only a doubling blocks, plus the overflow mutex on that path.
    pub fn claim(&self, fp: u128) -> bool {
        let slots = self.slots();
        match slots.insert_fp(fp) {
            Probe::ClaimedNew(_) => true,
            Probe::Present(_) => false,
            // Lossy (advisory, budgeted) tables drop overflow claims: a
            // false "already claimed" only means the child arrives at the
            // committer unmaterialised, and the committer derives it.
            Probe::Overflow if self.lossy => false,
            Probe::Overflow => match self.overflow().entry(fp) {
                Entry::Vacant(e) => {
                    e.insert(false);
                    true
                }
                Entry::Occupied(_) => false,
            },
        }
    }

    /// Committer-side admission: `true` iff `fp` has not been admitted
    /// before. Claims by workers do **not** count as admissions — the
    /// committed bitmap keeps the two states distinct — so the result is
    /// exactly `HashSet::insert` on the committer's sequence of calls,
    /// regardless of what workers claimed concurrently. Never grows the
    /// table.
    pub fn admit(&self, fp: u128) -> bool {
        self.admit_in(&self.slots(), fp)
    }

    /// [`ClaimTable::admit`], then — once admissions pass half the slots —
    /// a doubling of the table, up to 2²³ slots. Returns the admission
    /// answer and the bytes the slot allocation grew by (0 unless this call
    /// doubled it). Only the committer may call it: a doubling is the
    /// table's one writer, and the admission count it keys on is the
    /// committer's. Advisory tables never grow.
    pub fn admit_growing(&self, fp: u128) -> (bool, usize) {
        let (new, capacity) = {
            let slots = self.slots();
            (self.admit_in(&slots, fp), slots.capacity())
        };
        let admitted = self.admitted.load(Ordering::Relaxed);
        if !new || self.lossy || capacity >= MAX_SLOTS || admitted * 2 <= capacity {
            return (new, 0);
        }
        let mut slots = self.slots.write().expect("claim table doubling panicked");
        let mut overflow = self.overflow();
        let before = slots.bytes();
        *slots = slots.doubled(&mut overflow);
        (new, slots.bytes() - before)
    }

    fn admit_in(&self, slots: &Slots, fp: u128) -> bool {
        debug_assert!(
            !self.lossy,
            "advisory tables must not serve as the authoritative seen set"
        );
        let new = match slots.insert_fp(fp) {
            Probe::ClaimedNew(slot) | Probe::Present(slot) => slots.commit(slot),
            Probe::Overflow => {
                let mut overflow = self.overflow();
                let admitted = overflow.entry(fp).or_insert(false);
                !std::mem::replace(admitted, true)
            }
        };
        if new {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Every fingerprint the committer admitted, in unspecified order
    /// (checkpoint hook). Slots are committed via the bitmap; zero-half
    /// fingerprints only ever live in the overflow map, so the two scans
    /// together are exhaustive. Worker claims without an admission are
    /// deliberately excluded — a snapshot records the committer's state,
    /// and speculative claims are re-derived on resume.
    pub fn committed_fps(&self) -> Vec<u128> {
        let slots = self.slots();
        let mut fps: Vec<u128> = (0..slots.capacity())
            .filter(|&slot| slots.is_committed(slot))
            .filter_map(|slot| slots.resident(slot))
            .collect();
        fps.extend(
            self.overflow()
                .iter()
                .filter(|(_, &admitted)| admitted)
                .map(|(&fp, _)| fp),
        );
        fps
    }

    /// `true` if `fp` was ever claimed or admitted (test/diagnostic view).
    ///
    /// Sound because occupancy is monotone: an overflow insertion happens
    /// only when every slot in `fp`'s probe window is occupied, so a vacant
    /// slot seen here proves `fp` never reached the overflow map either.
    pub fn contains(&self, fp: u128) -> bool {
        let slots = self.slots();
        let lo = fp as u64;
        let hi = (fp >> 64) as u64;
        if lo != 0 && hi != 0 {
            let mut slot = (hi as usize) & slots.mask;
            for _ in 0..PROBE_LIMIT.min(slots.capacity()) {
                let resident = slots.words[slot * 2].load(Ordering::Acquire);
                if resident == 0 {
                    return false;
                }
                if resident == lo && slots.hi_matches(slot, hi) {
                    return true;
                }
                slot = (slot + 1) & slots.mask;
            }
        }
        self.overflow().contains_key(&fp)
    }

    /// `true` unless some fingerprint sits both in a slot and in the
    /// overflow map — the one-home invariant a doubling must keep (test
    /// view: call it with no claim in flight).
    pub fn homes_are_unique(&self) -> bool {
        let slots = self.slots();
        let overflow = self.overflow();
        (0..slots.capacity())
            .filter_map(|slot| slots.resident(slot))
            .all(|fp| !overflow.contains_key(&fp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A spread-out deterministic fingerprint with no zero halves.
    fn fp(i: u64) -> u128 {
        let lo = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let hi = (i + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1;
        ((hi as u128) << 64) | lo as u128
    }

    #[test]
    fn claim_admit_and_contains_basics() {
        let table = ClaimTable::new(100);
        assert!(table.claim(fp(1)));
        assert!(!table.claim(fp(1)), "second claim loses");
        assert!(table.admit(fp(1)), "a claim is not an admission");
        assert!(!table.admit(fp(1)), "second admission loses");
        assert!(table.admit(fp(2)), "admit works without a prior claim");
        assert!(!table.claim(fp(2)), "admission also claims");
        assert!(table.contains(fp(1)));
        assert!(table.contains(fp(2)));
        assert!(!table.contains(fp(3)));
    }

    #[test]
    fn zero_half_fingerprints_take_the_overflow_path() {
        let table = ClaimTable::new(16);
        for weird in [0u128, 1, 7 << 64, (3 << 64) | 5, u64::MAX as u128] {
            assert!(table.claim(weird), "{weird:#x} first claim");
            assert!(!table.claim(weird), "{weird:#x} second claim");
            assert!(table.admit(weird), "{weird:#x} first admission");
            assert!(!table.admit(weird), "{weird:#x} second admission");
            assert!(table.contains(weird));
        }
    }

    #[test]
    fn full_table_spills_to_overflow_without_losing_claims() {
        // 16 slots (the minimum), hammered with 10× more fingerprints:
        // most must overflow; none may be lost or doubly claimed.
        let table = ClaimTable::new(0);
        assert_eq!(table.capacity(), 16);
        for i in 0..160 {
            assert!(table.claim(fp(i)), "fp {i} lost");
            assert!(!table.claim(fp(i)), "fp {i} claimed twice");
            assert!(table.admit(fp(i)), "fp {i} admission lost");
            assert!(!table.admit(fp(i)), "fp {i} admitted twice");
        }
        for i in 0..160 {
            assert!(table.contains(fp(i)));
        }
        assert!(!table.overflow.lock().unwrap().is_empty(), "nothing spilled");
    }

    #[test]
    fn concurrent_claims_are_exactly_once() {
        // 8 threads race claims over one overlapping universe; each
        // fingerprint must be won by exactly one thread. The tiny table
        // forces the overflow path to race too.
        for expected in [0usize, 4096] {
            let table = ClaimTable::new(expected);
            let universe: Vec<u128> = (0..2000).map(fp).collect();
            let wins: Vec<Vec<u128>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|t| {
                        let table = &table;
                        let universe = &universe;
                        scope.spawn(move || {
                            let mut won = Vec::new();
                            // Offset start so threads collide mid-stream.
                            for i in 0..universe.len() {
                                let fp = universe[(i + t * 251) % universe.len()];
                                if table.claim(fp) {
                                    won.push(fp);
                                }
                            }
                            won
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut seen = HashSet::new();
            for fp in wins.iter().flatten() {
                assert!(seen.insert(*fp), "fingerprint {fp:#x} claimed twice");
            }
            assert_eq!(seen.len(), universe.len(), "claims lost (cap {expected})");
        }
    }

    #[test]
    fn admissions_are_exactly_once_under_concurrent_claims() {
        // A single "committer" admits while workers spam claims of the same
        // fingerprints: claims must never eat an admission.
        let table = ClaimTable::new(64); // small: exercises overflow too
        let universe: Vec<u128> = (0..1500).map(fp).collect();
        let admitted = std::thread::scope(|scope| {
            for t in 0..4 {
                let table = &table;
                let universe = &universe;
                scope.spawn(move || {
                    for i in 0..universe.len() {
                        table.claim(universe[(i + t * 379) % universe.len()]);
                    }
                });
            }
            let mut admitted = 0;
            for chunk in universe.chunks(3) {
                for &fp in chunk {
                    if table.admit(fp) {
                        admitted += 1;
                    }
                }
            }
            admitted
        });
        assert_eq!(admitted, universe.len(), "every fp admitted exactly once");
        for &fp in &universe {
            assert!(!table.admit(fp), "fp re-admitted after the fact");
        }
    }
}
