//! Self-test of the benchmark binary: a forged divergence must fail the
//! run, an unseen seed must pass, and the result line must parse back to
//! exactly the metrics `BENCHMARK.json` declares, with their units. Run
//! with `cargo test --release`; debug builds skip these.

use explorebench::report::Json;
use std::collections::BTreeMap;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explorebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line does not parse ({e}): {last}"))
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = json.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// `name → unit` of a result line's metrics, checking every value is a
/// number.
fn printed(result: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("result line has no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn forged_pin_fails_the_run() {
    let out = bench(&[
        "--workload",
        "buffer3_inmem",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--forge-pin",
    ]);
    assert_eq!(out.status.code(), Some(1), "a forged pin must exit 1");
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    let failed = result.get("failed").and_then(Json::as_f64).unwrap();
    let attempted = result.get("attempted").and_then(Json::as_f64).unwrap();
    assert!(
        failed > 0.0 && failed <= attempted,
        "failed {failed} of {attempted}"
    );
    let verified = result
        .get("metrics")
        .and_then(|m| m.get("verified_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        verified < 1.0,
        "verified_frac {verified} despite the forged pin"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn end_to_end_line_parses_back_to_the_declared_metrics() {
    let out = bench(&[
        "--workload",
        "buffer3_inmem",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(printed(&result), declared("end_to_end"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn traced_line_parses_back_to_the_declared_metrics() {
    let out = bench(&[
        "--workload",
        "buffer3_inmem",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(printed(&result), declared("per_layer"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn unseen_seed_is_checked_across_widths() {
    let out = bench(&[
        "--workload",
        "maxreg4_sharded",
        "--seed",
        "12345",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(result_line(&out).get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "buffer3_inmem", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
