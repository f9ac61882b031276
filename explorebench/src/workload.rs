//! The benchmark's workloads: which protocol, which horizon, which engine
//! path, and the pinned result every exploration of it is checked against.

use cbh_core::buffer::buffer_consensus;
use cbh_core::maxreg::MaxRegConsensus;
use cbh_model::Protocol;
use cbh_sim::SimError;
use cbh_verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use cbh_verify::dist::{explore_sharded, DistConfig};
use std::path::Path;

/// The protocol a workload explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `MaxRegConsensus::new(4)`: two max-registers (Theorem 4.2). Inline
    /// integer cells, so a step is a few word writes.
    MaxReg4,
    /// `buffer_consensus(3, 3)`: 3-buffers for 3 processes (Theorem 6.3).
    /// Heap-valued buffer cells, so steps intern and hash wide values.
    Buffer3,
}

impl Family {
    /// Process count, which is also the number of input values.
    pub fn n(self) -> usize {
        match self {
            Family::MaxReg4 => 4,
            Family::Buffer3 => 3,
        }
    }
}

/// The engine path a workload's explorations take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Explorer` with no memory budget.
    InMemory,
    /// `Explorer` under a memory budget of a tenth of the unbounded
    /// 1-worker resident peak, checkpointing at the default cadence.
    Budgeted,
    /// In-process `explore_sharded`, one worker per shard.
    Sharded,
}

/// The semantic result of one exploration: what the conformance oracle
/// compares, and what a golden pin fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Distinct configurations admitted.
    pub configs: usize,
    /// Whether the whole reachable space was covered.
    pub complete: bool,
    /// Widest breadth-first layer.
    pub frontier_peak: usize,
    /// Layers fully expanded.
    pub depth_reached: usize,
}

impl Pin {
    /// The pin an exploration result amounts to, or `None` if the verdict
    /// is not clean (every workload here is a clean protocol).
    pub fn of(outcome: &ExploreOutcome, stats: &ExploreStats) -> Option<Pin> {
        match *outcome {
            ExploreOutcome::Clean { configs, complete } if configs == stats.configs => Some(Pin {
                configs,
                complete,
                frontier_peak: stats.frontier_peak,
                depth_reached: stats.depth_reached,
            }),
            _ => None,
        }
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Protocol explored.
    pub family: Family,
    /// Exploration horizon of every timed run.
    pub depth: usize,
    /// Engine path of every timed run.
    pub engine: Engine,
    /// Result at `depth` for the default seed.
    pub pin: Pin,
    /// Horizon of the set-up warm-up exploration (unbounded, 1 worker).
    /// The budgeted workload warms up at its full depth, because that run
    /// also sizes its memory budget.
    pub warmup_depth: usize,
    /// Result at `warmup_depth` for the default seed.
    pub warmup_pin: Pin,
}

const fn pin(configs: usize, frontier_peak: usize, depth_reached: usize) -> Pin {
    Pin {
        configs,
        complete: false,
        frontier_peak,
        depth_reached,
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "maxreg4_inmem",
        family: Family::MaxReg4,
        depth: 20,
        engine: Engine::InMemory,
        pin: pin(308_452, 82_301, 20),
        warmup_depth: 16,
        warmup_pin: pin(79_033, 26_412, 16),
    },
    Workload {
        name: "buffer3_inmem",
        family: Family::Buffer3,
        depth: 13,
        engine: Engine::InMemory,
        pin: pin(47_423, 20_826, 13),
        warmup_depth: 10,
        warmup_pin: pin(7_130, 3_462, 10),
    },
    Workload {
        name: "maxreg4_budgeted",
        family: Family::MaxReg4,
        depth: 16,
        engine: Engine::Budgeted,
        pin: pin(79_033, 26_412, 16),
        warmup_depth: 16,
        warmup_pin: pin(79_033, 26_412, 16),
    },
    Workload {
        name: "maxreg4_sharded",
        family: Family::MaxReg4,
        depth: 18,
        engine: Engine::Sharded,
        pin: pin(163_609, 48_122, 18),
        warmup_depth: 14,
        warmup_pin: pin(34_363, 12_158, 14),
    },
];

/// Looks a workload up by its `--workload` name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed whose input vector is the canonical `0, 1, …, n-1` and whose
/// results are pinned.
pub const DEFAULT_SEED: u64 = 0;

/// Cap on admitted configurations: above every workload's space, so no run
/// is cut by it. It also sizes the parallel engine's claim table.
pub const MAX_CONFIGS: usize = 1_000_000;

/// The input vector for `seed`: a permutation of `0..n`. The default seed
/// gives the identity; any other seed a SplitMix64-driven Fisher–Yates
/// shuffle. Distinct proposals keep every seed's space the same size, so
/// seeds vary the explored values without varying the amount of work.
pub fn inputs(n: usize, seed: u64) -> Vec<u64> {
    let mut values: Vec<u64> = (0..n as u64).collect();
    if seed == DEFAULT_SEED {
        return values;
    }
    let mut state = seed;
    for i in (1..n).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        values.swap(i, (z % (i as u64 + 1)) as usize);
    }
    values
}

/// Exploration limits at `depth` with an optional memory budget.
pub fn limits(depth: usize, memory_budget: Option<usize>) -> ExploreLimits {
    ExploreLimits {
        depth,
        max_configs: MAX_CONFIGS,
        solo_check_budget: None,
        memory_budget,
        checkpoint_every: None,
    }
}

/// Hardware threads: the `nproc` width of the parallel cells.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Code generic over the protocol type, run by [`with_protocol`].
pub trait ProtocolBody {
    /// What the body returns.
    type Out;
    /// The body, given the protocol's constructor (constructing it is part
    /// of set-up, so the body calls it inside its timing).
    fn run<P: Protocol, F: Fn() -> P>(self, make: F) -> Self::Out
    where
        P::Proc: Send + Sync;
}

/// Runs `body` with the constructor of `family`'s protocol.
pub fn with_protocol<B: ProtocolBody>(family: Family, body: B) -> B::Out {
    match family {
        Family::MaxReg4 => body.run(|| MaxRegConsensus::new(4)),
        Family::Buffer3 => body.run(|| buffer_consensus(3, 3)),
    }
}

/// One unbounded 1-worker exploration at `depth`: the warm-up, and for the
/// budgeted workload the run its budget is sized from.
pub fn explore_unbounded<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    Explorer::new()
        .limits(limits(depth, None))
        .explore_stats(protocol, inputs)
}

/// One exploration of workload `w` at `width` workers (shards on the
/// sharded workload). `budget` is the budgeted workload's memory budget and
/// `checkpoint` its snapshot path; the other engines ignore both.
pub fn explore<P: Protocol>(
    w: &Workload,
    protocol: &P,
    inputs: &[u64],
    width: usize,
    budget: Option<usize>,
    checkpoint: &Path,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    match w.engine {
        Engine::InMemory => Explorer::new()
            .workers(width)
            .limits(limits(w.depth, None))
            .explore_stats(protocol, inputs),
        Engine::Budgeted => Explorer::new()
            .workers(width)
            .limits(limits(w.depth, budget))
            .checkpoint_to(checkpoint)
            .explore_stats(protocol, inputs),
        Engine::Sharded => explore_sharded(
            protocol,
            inputs,
            limits(w.depth, None),
            DistConfig {
                shards: width,
                workers: 1,
                symmetric: false,
            },
        ),
    }
}

/// The budgeted workload's memory budget: a tenth of the unbounded
/// 1-worker resident peak, the fraction the stress suite runs at.
pub fn budget_from(unbounded_peak: usize) -> usize {
    (unbounded_peak / 10).max(1)
}

/// Checks explorations against what they must produce: the golden pins on
/// the default seed, otherwise the first result seen at each horizon (so a
/// run at `nproc` workers must equal the run at 1).
#[derive(Debug)]
pub struct Verifier {
    expected: Vec<(usize, Pin)>,
    /// Explorations checked.
    pub attempted: u64,
    /// Explorations that errored or diverged.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Verifier {
    /// A verifier for workload `w` on `seed`. `forge_pin` corrupts the pins
    /// (one configuration too many), which every exploration must then
    /// fail: the self-test of the gate.
    pub fn new(w: &Workload, seed: u64, forge_pin: bool) -> Self {
        let mut expected = Vec::new();
        if seed == DEFAULT_SEED {
            let forge = |mut p: Pin| {
                p.configs += usize::from(forge_pin);
                p
            };
            expected.push((w.depth, forge(w.pin)));
            if w.warmup_depth != w.depth {
                expected.push((w.warmup_depth, forge(w.warmup_pin)));
            }
        }
        Verifier {
            expected,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records one exploration at `depth`, labelled `what` in failure lines.
    /// Returns its stats when it passed.
    pub fn check(
        &mut self,
        what: &str,
        depth: usize,
        result: Result<(ExploreOutcome, ExploreStats), SimError>,
    ) -> Option<ExploreStats> {
        let stats = result.as_ref().ok().map(|(_, s)| *s);
        let pin = match result {
            Ok((outcome, stats)) => Pin::of(&outcome, &stats)
                .ok_or_else(|| format!("verdict is not clean: {outcome:?}")),
            Err(e) => Err(format!("exploration errored: {e}")),
        };
        self.check_pin(what, depth, pin).then_some(stats).flatten()
    }

    /// [`Verifier::check`] for a result already reduced to its pin (or to
    /// the reason there is none). Returns whether it passed.
    pub fn check_pin(&mut self, what: &str, depth: usize, got: Result<Pin, String>) -> bool {
        self.attempted += 1;
        let got = match got {
            Ok(pin) => pin,
            Err(why) => {
                self.fail(format!("{what}: {why}"));
                return false;
            }
        };
        match self.expected.iter().find(|(d, _)| *d == depth) {
            Some((_, want)) if *want != got => {
                self.fail(format!("{what}: got {got:?}, expected {want:?}"));
                false
            }
            Some(_) => true,
            None => {
                self.expected.push((depth, got));
                true
            }
        }
    }

    /// Records one check of a layer round trip; `detail` describes a
    /// failure.
    pub fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{what}: {}", detail()));
        }
    }

    fn fail(&mut self, line: String) {
        self.failed += 1;
        self.failures.push(line);
    }

    /// Explorations that matched, as a share of those attempted.
    pub fn verified_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_identity_and_others_permute() {
        assert_eq!(inputs(4, DEFAULT_SEED), vec![0, 1, 2, 3]);
        for seed in 1..50 {
            let mut v = inputs(4, seed);
            assert_eq!(v, inputs(4, seed), "same seed, same inputs");
            v.sort_unstable();
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
        assert!((1..50).any(|s| inputs(4, s) != vec![0, 1, 2, 3]));
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(a.name).map(|w| w.name), Some(a.name));
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
        }
    }
}
