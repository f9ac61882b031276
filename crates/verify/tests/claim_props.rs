//! Property tests for the lock-free claim table — the shared fingerprint
//! set both the explorer's workers (advisory claims) and its committer
//! (authoritative admissions) race on.
//!
//! The reference model is the structure the table replaced: a
//! `HashSet<u128>`. For random fingerprint workloads — duplicates, zero
//! halves, table capacities from degenerate to roomy — the table must give
//! exactly the `HashSet` answers when driven sequentially, and exactly-once
//! claim/admission semantics when driven from racing threads with the work
//! interleaved arbitrarily.

use cbh_verify::claim::ClaimTable;
use proptest::prelude::*;
use std::collections::HashSet;

/// Spreads small generator integers into full-width fingerprints while
/// keeping collisions likely (many duplicates per run) and preserving the
/// generator's occasional zero halves via the pass-through arm.
fn widen(raw: u128, spread: bool) -> u128 {
    if !spread {
        return raw; // raw values keep zero halves and tiny magnitudes
    }
    let lo = (raw as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let hi = ((raw >> 64) as u64 ^ 0xdead_beef).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    ((hi as u128) << 64) | lo as u128
}

proptest! {
    // The default config reads `PROPTEST_CASES` (64 when unset), so a CI
    // step can raise the case count of these racing properties;
    // `with_cases` would pin it.
    #![proptest_config(ProptestConfig::default())]

    /// Driven from one thread, `claim` is exactly `HashSet::insert`.
    #[test]
    fn sequential_claims_agree_with_hashset(
        raws in proptest::collection::vec(0u128..5000, 1..300),
        spread in any::<bool>(),
        expected in 0usize..4096,
    ) {
        let table = ClaimTable::new(expected);
        let mut reference: HashSet<u128> = HashSet::new();
        for &raw in &raws {
            let fp = widen(raw, spread);
            prop_assert_eq!(table.claim(fp), reference.insert(fp));
            prop_assert!(table.contains(fp));
        }
        for &raw in &raws {
            prop_assert!(table.contains(widen(raw, spread)));
        }
    }

    /// Likewise `admit`, independent of interleaved prior claims.
    #[test]
    fn sequential_admissions_agree_with_hashset(
        raws in proptest::collection::vec(0u128..5000, 1..300),
        claim_first in proptest::collection::vec(any::<bool>(), 1..300),
        expected in 0usize..4096,
    ) {
        let table = ClaimTable::new(expected);
        let mut reference: HashSet<u128> = HashSet::new();
        for (i, &raw) in raws.iter().enumerate() {
            let fp = widen(raw, true);
            if claim_first[i % claim_first.len()] {
                table.claim(fp); // advisory claims must not affect admission
            }
            prop_assert_eq!(table.admit(fp), reference.insert(fp));
        }
    }

    /// Racing threads claiming overlapping fingerprint sets: every distinct
    /// fingerprint is won exactly once across all threads — no lost claims,
    /// no duplicate wins — and the winners' union is the input set.
    #[test]
    fn interleaved_claims_are_exactly_once(
        raws in proptest::collection::vec(0u128..2000, 1..200),
        spread in any::<bool>(),
        expected in 0usize..512,
        threads in 2usize..6,
    ) {
        let table = ClaimTable::new(expected);
        let fps: Vec<u128> = raws.iter().map(|&r| widen(r, spread)).collect();
        let wins: Vec<Vec<u128>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let table = &table;
                    let fps = &fps;
                    scope.spawn(move || {
                        let mut won = Vec::new();
                        for i in 0..fps.len() {
                            // Rotated start: threads collide mid-stream.
                            let fp = fps[(i + t * 97) % fps.len()];
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
        let distinct: HashSet<u128> = fps.iter().copied().collect();
        let mut winners: HashSet<u128> = HashSet::new();
        for fp in wins.iter().flatten() {
            prop_assert!(winners.insert(*fp), "{:#x} claimed twice", fp);
        }
        prop_assert_eq!(winners, distinct);
    }

    /// A committer admitting against racing workers: admissions are
    /// exactly-once and complete regardless of claim interleavings — the
    /// engine's determinism hinges on exactly this.
    #[test]
    fn admissions_survive_racing_claims(
        raws in proptest::collection::vec(0u128..1500, 1..150),
        expected in 0usize..256,
    ) {
        let table = ClaimTable::new(expected);
        let fps: Vec<u128> = raws.iter().map(|&r| widen(r, true)).collect();
        let distinct: HashSet<u128> = fps.iter().copied().collect();
        let admitted = std::thread::scope(|scope| {
            for t in 0..3 {
                let table = &table;
                let fps = &fps;
                scope.spawn(move || {
                    for i in 0..fps.len() {
                        table.claim(fps[(i + t * 53) % fps.len()]);
                    }
                });
            }
            let mut first_admissions = 0usize;
            for &fp in &fps {
                if table.admit(fp) {
                    first_admissions += 1;
                }
            }
            first_admissions
        });
        prop_assert_eq!(admitted, distinct.len());
        for &fp in &distinct {
            prop_assert!(!table.admit(fp), "{:#x} re-admitted", fp);
        }
    }

    /// Growth: a committer admitting through the growing path from the
    /// 16-slot minimum, against 2–6 racing claimers. Across every doubling,
    /// admissions stay `HashSet::insert` in the committer's order, every
    /// distinct fingerprint is claimed exactly once, the committed set is
    /// the admitted set, and no fingerprint has two homes.
    #[test]
    fn growth_keeps_exactly_once_under_racing_claims(
        raws in proptest::collection::vec(0u128..4000, 1..600),
        spread in proptest::collection::vec(any::<bool>(), 1..8),
        threads in 2usize..7,
    ) {
        let table = ClaimTable::new(0);
        // Mixing spread and raw values keeps zero-half fingerprints in play.
        let fps: Vec<u128> = raws
            .iter()
            .enumerate()
            .map(|(i, &r)| widen(r, spread[i % spread.len()]))
            .collect();
        let (answers, wins) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let table = &table;
                    let fps = &fps;
                    scope.spawn(move || {
                        let mut won = Vec::new();
                        for i in 0..fps.len() {
                            let fp = fps[(i + t * 131) % fps.len()];
                            if table.claim(fp) {
                                won.push(fp);
                            }
                        }
                        won
                    })
                })
                .collect();
            // The committer claims some edges itself before admitting them,
            // as the engine's committer derives unclaimed children.
            let mut won = Vec::new();
            let mut answers = Vec::new();
            for (i, &fp) in fps.iter().enumerate() {
                if i % 3 == 0 && table.claim(fp) {
                    won.push(fp);
                }
                answers.push(table.admit_growing(fp).0);
            }
            let mut wins: Vec<Vec<u128>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            wins.push(won);
            (answers, wins)
        });
        let mut reference: HashSet<u128> = HashSet::new();
        for (&fp, &answer) in fps.iter().zip(&answers) {
            prop_assert_eq!(answer, reference.insert(fp));
        }
        let mut winners: HashSet<u128> = HashSet::new();
        for fp in wins.iter().flatten() {
            prop_assert!(winners.insert(*fp), "{:#x} claimed twice", fp);
        }
        prop_assert!(winners.is_subset(&reference));
        // Every fingerprint a claimer did not win was claimed by an
        // admission: none is left to claim.
        for &fp in &reference {
            prop_assert!(!table.claim(fp), "{:#x} claimable after the run", fp);
            prop_assert!(table.contains(fp));
        }
        let committed: HashSet<u128> = table.committed_fps().into_iter().collect();
        prop_assert_eq!(&committed, &reference);
        prop_assert!(table.homes_are_unique());
        prop_assert!(table.capacity() >= 16);
        if reference.len() > 8 {
            prop_assert!(table.capacity() > 16, "{} admissions, no doubling", reference.len());
        }
    }

    /// Degenerate capacity: a minimum-size table under a workload far past
    /// its slots must keep full exactly-once semantics via the overflow path.
    #[test]
    fn capacity_exceeded_keeps_exact_semantics(
        raws in proptest::collection::vec(0u128..10_000, 64..400),
    ) {
        let table = ClaimTable::new(0); // 16 slots, guaranteed overflow
        let mut reference: HashSet<u128> = HashSet::new();
        for &raw in &raws {
            let fp = widen(raw, true);
            prop_assert_eq!(table.claim(fp), reference.insert(fp));
        }
        // Everything is still findable after the spill.
        for &raw in &raws {
            prop_assert!(table.contains(widen(raw, true)));
        }
    }
}
