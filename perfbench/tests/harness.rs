//! The command line, the statistics and the result object, and their
//! agreement with `BENCHMARK.json`.

use rh_perfbench::harness::{
    median, op_seed, percentile, Args, RunResult, DEFAULT_SEED, END_TO_END, PER_LAYER,
};

fn args(s: &str) -> Result<Args, String> {
    let v: Vec<String> = s.split_whitespace().map(String::from).collect();
    Args::parse(&v)
}

#[test]
fn command_line_parses_and_rejects() {
    let a = args("--workload host-reboot --seed 42 --seconds 10 --trace 1").unwrap();
    assert_eq!(a.workload, "host-reboot");
    assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    assert_eq!(args("--workload x").unwrap().seed, DEFAULT_SEED);
    for bad in [
        "--seed 1",
        "--workload x --trace 2",
        "--workload x --seconds 0",
        "--workload x --seed -1",
        "--workload x --bogus",
        "--workload",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}

#[test]
fn percentiles_are_nearest_rank() {
    let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&mut xs, 0.9), 90.0);
    assert_eq!(median(&mut xs), 50.0);
    assert_eq!(median(&mut [3.0]), 3.0);
    assert_eq!(median(&mut []), 0.0);
}

#[test]
fn op_seeds_are_deterministic_and_distinct() {
    assert_eq!(op_seed(1, 5), op_seed(1, 5));
    assert_ne!(op_seed(1, 5), op_seed(1, 6));
    assert_ne!(op_seed(1, 5), op_seed(2, 5));
}

#[test]
fn result_object_has_the_contract_keys() {
    let r = RunResult {
        attempted: 3,
        failed: 1,
        metrics: vec![("ops_per_s", 1.25, "1/s"), ("setup_s", f64::NAN, "s")],
        lines: Vec::new(),
    };
    assert!(!r.correct());
    assert_eq!(
        r.to_json(),
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
         {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}, \
         \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
    );
}

/// The `"name": ..., "unit": ...` pairs of one list in BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}
