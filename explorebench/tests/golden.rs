//! The golden pins, cross-checked once against the clone-based reference
//! oracle. Run with `cargo test --release`; debug builds skip these.

use cbh_model::Protocol;
use cbh_verify::reference::reference_explore;
use explorebench::workload::{
    explore_unbounded, inputs, limits, with_protocol, Family, Pin, ProtocolBody, DEFAULT_SEED,
    WORKLOADS,
};

/// Deepest horizon the reference oracle is run at per family: it keeps
/// every configuration alive, so deeper pins are checked through the
/// packed engine, which is itself checked against the oracle here.
fn oracle_cap(family: Family) -> usize {
    match family {
        Family::MaxReg4 => 18,
        Family::Buffer3 => 13,
    }
}

struct CheckPins {
    family: Family,
}

impl ProtocolBody for CheckPins {
    type Out = Vec<String>;

    fn run<P: Protocol, F: Fn() -> P>(self, make: F) -> Vec<String>
    where
        P::Proc: Send + Sync,
    {
        let protocol = make();
        let inputs = inputs(self.family.n(), DEFAULT_SEED);
        let mut problems = Vec::new();
        let pins = WORKLOADS
            .iter()
            .filter(|w| w.family == self.family)
            .flat_map(|w| {
                [
                    (w.name, w.depth, w.pin),
                    (w.name, w.warmup_depth, w.warmup_pin),
                ]
            });
        for (name, depth, pin) in pins {
            let engine = explore_unbounded(&protocol, &inputs, depth).expect("engine explores");
            let got = Pin::of(&engine.0, &engine.1);
            if got != Some(pin) {
                problems.push(format!("{name} d{depth}: engine {got:?}, pinned {pin:?}"));
            }
            let oracle_depth = depth.min(oracle_cap(self.family));
            let oracle = reference_explore(&protocol, &inputs, limits(oracle_depth, None))
                .expect("oracle explores");
            let at_cap = if oracle_depth == depth {
                engine
            } else {
                explore_unbounded(&protocol, &inputs, oracle_depth).expect("engine explores")
            };
            if oracle != at_cap {
                problems.push(format!(
                    "{name} d{oracle_depth}: engine {:?} differs from the oracle {:?}",
                    at_cap.1, oracle.1
                ));
            }
        }
        problems
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn pins_match_the_reference_oracle() {
    let mut problems = Vec::new();
    for family in [Family::MaxReg4, Family::Buffer3] {
        problems.extend(with_protocol(family, CheckPins { family }));
    }
    assert!(problems.is_empty(), "{problems:#?}");
}
