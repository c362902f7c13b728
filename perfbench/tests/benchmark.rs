//! The benchmark's own tests: every workload at a tiny size on two seeds.
//!
//! * simulated metrics repeat exactly for a given seed and differ across
//!   seeds;
//! * the metric names a run prints equal those `BENCHMARK.json` declares;
//! * the traced embed run's `prone.*` phases cover at least 90 % of the
//!   benchmark's span around `Omega::embed` (a check inside the run).

use omega::obs::json;
use omega_perfbench::{
    result_json, run_workload, Outcome, RunOpts, Size, END_TO_END, PER_LAYER, WORKLOADS,
};

/// Metrics computed on the simulated clock or from outputs only.
const SIMULATED: &[&str] = &[
    "sim_s",
    "sim_p99_us",
    "slo_qps",
    "goodput_qps",
    "failed_ratio",
    "auc",
    "recall",
];

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = RunOpts {
        seed,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        out_dir: None,
    };
    let out = run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        out.checks.failed.is_empty(),
        "{workload} seed {seed} trace {trace}: failed checks {:?}",
        out.checks.failed
    );
    out
}

fn simulated(out: &Outcome) -> Vec<f64> {
    SIMULATED.iter().map(|m| out.values[m]).collect()
}

#[test]
fn simulated_metrics_repeat_per_seed_and_differ_across_seeds() {
    for &w in WORKLOADS {
        let a = simulated(&run(w, 1, false));
        let b = simulated(&run(w, 1, false));
        let c = simulated(&run(w, 2, false));
        assert_eq!(a, b, "{w}: same seed, different simulated metrics");
        assert_ne!(a, c, "{w}: seeds 1 and 2 gave identical simulated metrics");
        assert!(a.iter().all(|v| v.is_finite() && *v >= 0.0), "{w}: {a:?}");
    }
}

fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_seq())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect();
    assert_eq!(e2e, declared("end_to_end"));
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|l| {
            (
                l.def.name.to_string(),
                l.def.unit.to_string(),
                l.def.better.to_string(),
            )
        })
        .collect();
    assert_eq!(layers, declared("per_layer"));
}

fn printed_names(line: &str) -> Vec<String> {
    let doc = json::parse(line).expect("result line is JSON");
    let mut keys: Vec<String> = doc
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("result line has a metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    keys
}

#[test]
fn printed_metric_names_equal_declared_ones() {
    let mut e2e: Vec<String> = declared("end_to_end").into_iter().map(|d| d.0).collect();
    let mut layers: Vec<String> = declared("per_layer").into_iter().map(|d| d.0).collect();
    e2e.sort();
    layers.sort();
    for &w in WORKLOADS {
        let line = result_json(&run(w, 3, false), false).unwrap();
        assert_eq!(printed_names(&line), e2e, "{w} untraced");
        // The traced run also carries the embed phase-coverage check.
        let line = result_json(&run(w, 3, true), true).unwrap();
        assert_eq!(printed_names(&line), layers, "{w} traced");
    }
}

#[test]
fn traced_embed_phases_are_measured() {
    let out = run("embed_twin", 4, true);
    let phases: f64 = ["embed.read_s", "embed.factorize_s", "embed.propagate_s"]
        .iter()
        .map(|m| out.values[m])
        .sum();
    assert!(phases > 0.0);
    assert!(out.values["spmm.calls"] > 0.0);
    assert_eq!(
        out.values["plane.rejected"], 0.0,
        "the plane does no work here"
    );
}
