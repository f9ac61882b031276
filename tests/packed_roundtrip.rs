//! Packed ↔ `Machine` round-trip conformance, across every registry row.
//!
//! The packed execution core reimplements step application on a flat
//! encoding; this suite pins it to the machine semantics it mirrors. For
//! every Table-1 registry row, a random schedule is replayed twice — once
//! through [`Machine::step`], once through [`PackedCtx::step`] on the packed
//! form — and after every step the two must agree on:
//!
//! - the 128-bit semantic fingerprint (via [`Machine::from_packed`]),
//! - the per-process decisions,
//! - `locations_touched` (Table 1's space measure) and allocation length,
//! - the step outcome itself (result value / recorded decision).
//!
//! The script also interleaves undos: a `cmd % 4 == 0` command pops the
//! last step through [`PackedCtx::undo`] and restores the machine from a
//! stack of clones, so both sides stay in lockstep. In both digest modes
//! (plain and symmetric), a running digest is maintained incrementally
//! through the read-only [`PackedCtx::edge_digest`] preview and restored on
//! undo; after every command it must equal a full [`PackedCtx::digest`]
//! re-hash. Finally every remaining step is unwound, which must land
//! bit-exactly on the packed root and its digests.

use proptest::prelude::*;
use space_hierarchy::model::{PackedStepOutcome, PackedUndo, Protocol};
use space_hierarchy::protocols::registry::{self, RowSpec, RowVisitor};
use space_hierarchy::sim::{Machine, StepOutcome};

/// The two digest modes, in index order: plain, then symmetric.
const MODES: [bool; 2] = [false, true];

/// Replays `script` through both representations and cross-checks them.
struct LockstepWalk<'s> {
    script: &'s [usize],
    input_seed: u64,
    checked_steps: usize,
}

impl RowVisitor for LockstepWalk<'_> {
    type Output = Result<(), TestCaseError>;

    fn visit<P>(&mut self, _spec: &RowSpec, protocol: P) -> Self::Output
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let n = protocol.n();
        let inputs: Vec<u64> = (0..n)
            .map(|pid| (self.input_seed >> (7 * pid)) % protocol.domain())
            .collect();
        let mut machine = Machine::start(&protocol, &inputs).unwrap();
        let ctx = machine.packed_ctx();
        let mut packed = machine.pack(&ctx);
        let root = packed.clone();
        let root_digests = MODES.map(|sym| ctx.digest(&packed, sym));
        let mut digests = root_digests;
        // One frame per applied step: its packed undo token, plus the
        // digests and the machine from before the step.
        let mut stack: Vec<(PackedUndo, [u128; 2], Machine<P::Proc>)> = Vec::new();

        for &cmd in self.script {
            if cmd % 4 == 0 {
                let Some((undo, prev_digests, prev_machine)) = stack.pop() else {
                    continue;
                };
                ctx.undo(&mut packed, undo);
                digests = prev_digests;
                machine = prev_machine;
            } else {
                let pid = (cmd / 4) % n;
                if machine.decision(pid).is_some() {
                    prop_assert_eq!(ctx.decision(&packed, pid), machine.decision(pid));
                    continue;
                }
                // Read-only previews, chained from the running digests: they
                // must equal the digests of the materialised successor.
                let previews = MODES.map(|sym| {
                    ctx.edge_digest(&packed, pid, digests[usize::from(sym)], sym)
                        .unwrap()
                });
                let before = machine.clone();
                let machine_outcome = machine.step(pid).unwrap();
                let (packed_outcome, undo) = ctx.step(&mut packed, pid).unwrap();
                stack.push((undo, digests, before));
                digests = previews;
                match (&machine_outcome, &packed_outcome) {
                    (StepOutcome::Invoked { result, .. }, PackedStepOutcome::Invoked(r)) => {
                        prop_assert_eq!(result, r);
                    }
                    (StepOutcome::AlreadyDecided(a), PackedStepOutcome::AlreadyDecided(b)) => {
                        prop_assert_eq!(a, b);
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "outcome kinds diverged: {other:?}"
                        )))
                    }
                }
                self.checked_steps += 1;
            }
            // The incrementally maintained digests never drift from a full
            // re-hash, in either mode.
            for sym in MODES {
                prop_assert_eq!(digests[usize::from(sym)], ctx.digest(&packed, sym));
            }
            // Full unpack: the semantic configuration is identical.
            let view = Machine::from_packed(&ctx, &packed);
            prop_assert_eq!(view.fingerprint(), machine.fingerprint());
            prop_assert_eq!(
                view.fingerprint_symmetric(),
                machine.fingerprint_symmetric()
            );
            prop_assert_eq!(packed.touched(), machine.memory().touched());
            prop_assert_eq!(packed.cells_len(), machine.memory().len());
            prop_assert_eq!(packed.steps(), machine.steps());
            for p in 0..n {
                prop_assert_eq!(ctx.decision(&packed, p), machine.decision(p));
            }
        }

        // Unwind every remaining packed step: the root and its digests must
        // reappear bit-exactly.
        while let Some((undo, ..)) = stack.pop() {
            ctx.undo(&mut packed, undo);
        }
        prop_assert_eq!(&packed, &root);
        prop_assert_eq!(MODES.map(|sym| ctx.digest(&packed, sym)), root_digests);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_step_matches_machine_step_on_every_registry_row(
        script in proptest::collection::vec(0usize..64, 1..48),
        input_seed in 0u64..u64::MAX,
    ) {
        let mut total_checked = 0usize;
        for row in registry::all_rows() {
            let mut walk = LockstepWalk {
                script: &script,
                input_seed,
                checked_steps: 0,
            };
            registry::visit_row(row.id, 3, &mut walk).expect("registered row")?;
            total_checked += walk.checked_steps;
        }
        // The scripts are long enough that the walk really exercises steps.
        prop_assert!(total_checked > 0);
    }
}

/// Non-random pin: all 20 rows are present and the lockstep walk visits
/// every one of them (the proptest above would silently shrink coverage if
/// the registry lookup ever started failing).
#[test]
fn lockstep_walk_covers_all_rows() {
    let rows = registry::all_rows();
    assert_eq!(rows.len(), 20, "registry row count changed; update the suite");
    let script: Vec<usize> = (0..24).collect();
    for row in &rows {
        let mut walk = LockstepWalk {
            script: &script,
            input_seed: 0x5eed,
            checked_steps: 0,
        };
        registry::visit_row(row.id, row.min_n.max(3), &mut walk)
            .expect("registered row")
            .expect("lockstep walk clean");
        assert!(walk.checked_steps > 0, "row {} never stepped", row.id);
    }
}
