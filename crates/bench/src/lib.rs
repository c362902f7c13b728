//! # omega-bench — experiment harness utilities
//!
//! Shared plumbing for the per-figure/table binaries in `src/bin/`: the
//! canonical experiment machine, dataset twin loading, and aligned table
//! printing. Every binary regenerates one table or figure of the paper;
//! run e.g.
//!
//! ```text
//! cargo run -p omega-bench --release --bin table2_eata
//! ```
//!
//! Set `OMEGA_SCALE` (default 1000) to trade twin size for runtime; the
//! machine's memory capacities scale along with the twins so capacity
//! outcomes (OOMs) are preserved.

use omega::config::SCALED_DRAM_PER_NODE;
use omega_graph::{datasets::default_scale, Csr, Dataset};
use omega_hetmem::{SimDuration, Topology};
use std::path::PathBuf;

/// Simulated threads used throughout the evaluation (§IV uses 30).
pub const THREADS: usize = 30;

/// Embedding dimension for end-to-end runs.
pub const DIM: usize = 64;

/// The canonical experiment machine at the current twin scale: the paper's
/// box with capacities scaled by the same factor as the datasets.
pub fn experiment_topology() -> Topology {
    let scale = default_scale();
    // SCALED_DRAM_PER_NODE is calibrated for scale 1000.
    let dram = (SCALED_DRAM_PER_NODE as u128 * 1000 / scale as u128).max(1 << 20) as u64;
    Topology::paper_machine_scaled(dram)
}

/// Load a dataset twin at the configured scale.
pub fn load(dataset: Dataset) -> Csr {
    dataset
        .load_scaled(default_scale())
        .expect("twin generation cannot fail")
}

/// Format a simulated duration as seconds with three significant digits.
pub fn fmt_time(t: Option<SimDuration>) -> String {
    match t {
        Some(t) => {
            let s = t.as_secs_f64();
            if s >= 100.0 {
                format!("{s:.0} s")
            } else if s >= 1.0 {
                format!("{s:.2} s")
            } else {
                format!("{:.2} ms", s * 1e3)
            }
        }
        None => "OOM".to_string(),
    }
}

/// Print an aligned table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Directory for machine-readable experiment output. Defaults to
/// `results/` in the working directory; override with `OMEGA_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    results_dir_from(std::env::var("OMEGA_RESULTS_DIR").ok())
}

fn results_dir_from(env: Option<String>) -> PathBuf {
    env.map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Write a figure's machine-readable rows to `results/<name>.jsonl`
/// (creating the directory if needed) and report where they went.
pub fn write_results_jsonl(name: &str, jsonl: &str) -> PathBuf {
    let path = write_jsonl_into(&results_dir(), name, jsonl);
    eprintln!("wrote machine-readable rows to {}", path.display());
    path
}

fn write_jsonl_into(dir: &std::path::Path, name: &str, jsonl: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, jsonl).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// Nearest-rank percentile of unsorted wall-clock samples (`q` in 0..=1).
/// Re-exported from `omega-obs` — the one shared implementation also behind
/// `ServeReport`'s latency percentiles.
pub use omega_obs::percentile_u64;

/// A wall-clock speedup with its bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioInterval {
    /// `p50(baseline) / p50(candidate)` over all samples.
    pub point: f64,
    pub lo: f64,
    pub hi: f64,
}

/// Resamples behind [`p50_ratio_interval`]; fixed, like its RNG seed, so
/// the same samples always give the same interval.
const BOOTSTRAP_RESAMPLES: usize = 2_000;
/// Confidence of the interval [`p50_ratio_interval`] returns.
pub const RATIO_CONFIDENCE: f64 = 0.95;

/// Speedup `p50(baseline) / p50(candidate)` of paired wall samples, with a
/// percentile-bootstrap interval at [`RATIO_CONFIDENCE`]. Sample `i` of
/// both arms was taken back to back, so the bootstrap resamples *pairs*
/// and host drift that hit both arms of a pair stays paired.
pub fn p50_ratio_interval(baseline: &[u64], candidate: &[u64]) -> RatioInterval {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    assert_eq!(baseline.len(), candidate.len(), "samples must be paired");
    assert!(!baseline.is_empty(), "no samples");
    let ratio =
        |b: &[u64], c: &[u64]| percentile_u64(b, 0.5) as f64 / percentile_u64(c, 0.5).max(1) as f64;
    let n = baseline.len();
    let mut rng = SmallRng::seed_from_u64(0x5EED_B007);
    let (mut b, mut c) = (vec![0u64; n], vec![0u64; n]);
    let mut ratios: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            for j in 0..n {
                let i = rng.gen_range(0..n);
                b[j] = baseline[i];
                c[j] = candidate[i];
            }
            ratio(&b, &c)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let tail = (1.0 - RATIO_CONFIDENCE) / 2.0;
    let last = (BOOTSTRAP_RESAMPLES - 1) as f64;
    RatioInterval {
        point: ratio(baseline, candidate),
        lo: ratios[(tail * last).floor() as usize],
        hi: ratios[((1.0 - tail) * last).ceil() as usize],
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a repo.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One benchmark-gate measurement: a workload's wall-clock percentiles
/// (machine-dependent), its simulated time and byte traffic (exact,
/// machine-independent), the revision it was taken at, plus informational
/// wall-clock attribution — the seq-vs-parN speedup (in thousandths, so
/// the record stays `Eq`; 850 reads as 0.85x), an answer-quality column
/// for approximate workloads (recall@k vs the exact oracle, also in
/// thousandths; `None` for exact workloads) and a phase breakdown
/// (label → attributed wall ns) from one profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateRecord {
    pub workload: String,
    pub wall_ns_p50: u64,
    pub wall_ns_p95: u64,
    pub sim_ns: u64,
    pub bytes: u64,
    pub git_rev: String,
    pub speedup_milli: Option<u64>,
    pub recall_milli: Option<u64>,
    pub phases: Vec<(String, u64)>,
}

impl GateRecord {
    /// The phase whose attributed wall time grew most versus `baseline`
    /// (the "guilty" phase of a regression), with old and new ns.
    pub fn guiltiest_phase(&self, baseline: &GateRecord) -> Option<(String, u64, u64)> {
        self.phases
            .iter()
            .map(|(name, now)| {
                let was = baseline
                    .phases
                    .iter()
                    .find(|(b, _)| b == name)
                    .map_or(0, |(_, v)| *v);
                (name.clone(), was, *now)
            })
            .max_by_key(|(_, was, now)| now.saturating_sub(*was))
    }
}

/// Serialise gate records as a JSON array, one object per line (the
/// `BENCH_*.json` on-disk format). Hand-rolled: the workspace deliberately
/// carries no JSON-serialisation dependency.
pub fn gate_records_to_json(records: &[GateRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"wall_ns_p50\": {}, \"wall_ns_p95\": {}, \
             \"sim_ns\": {}, \"bytes\": {}, \"git_rev\": \"{}\"",
            r.workload, r.wall_ns_p50, r.wall_ns_p95, r.sim_ns, r.bytes, r.git_rev,
        ));
        if let Some(speedup) = r.speedup_milli {
            out.push_str(&format!(", \"speedup_milli\": {speedup}"));
        }
        if let Some(recall) = r.recall_milli {
            out.push_str(&format!(", \"recall_milli\": {recall}"));
        }
        if !r.phases.is_empty() {
            out.push_str(", \"phases\": {");
            for (j, (name, ns)) in r.phases.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {ns}"));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Split a JSON-ish document into its top-level `{...}` object slices,
/// tracking brace depth (and strings) so nested objects — the `phases`
/// breakdown — stay inside their record.
fn top_level_objects(s: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_string = false,
                _ => escaped = false,
            }
            if c != '\\' {
                escaped = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    objects.push(&s[start..=i]);
                }
            }
            _ => {}
        }
    }
    objects
}

/// Parse the `BENCH_*.json` format back. Tolerant field-scanner rather
/// than a general JSON parser: objects are split on (depth-tracked)
/// braces and each known key extracted positionally; unknown keys are
/// ignored, and records written before the `speedup_milli`/`phases`
/// fields existed load with those fields empty.
pub fn gate_records_from_json(s: &str) -> Vec<GateRecord> {
    fn str_field(obj: &str, key: &str) -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at..];
        let colon = rest.find(':')?;
        let rest = rest[colon + 1..].trim_start();
        let rest = rest.strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    }
    fn u64_field(obj: &str, key: &str) -> Option<u64> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at..];
        let colon = rest.find(':')?;
        let digits: String = rest[colon + 1..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    }
    type PhasesField = (Vec<(String, u64)>, Option<(usize, usize)>);
    fn phases_field(obj: &str) -> PhasesField {
        let Some(at) = obj.find("\"phases\"") else {
            return (Vec::new(), None);
        };
        let Some(open_rel) = obj[at..].find('{') else {
            return (Vec::new(), None);
        };
        let open = at + open_rel;
        let Some(close_rel) = obj[open..].find('}') else {
            return (Vec::new(), None);
        };
        let inner = &obj[open + 1..open + close_rel];
        let mut phases = Vec::new();
        for part in inner.split(',') {
            let Some((k, v)) = part.split_once(':') else {
                continue;
            };
            let name = k.trim().trim_matches('"').to_string();
            if let Ok(ns) = v.trim().parse::<u64>() {
                phases.push((name, ns));
            }
        }
        (phases, Some((at, open + close_rel + 1)))
    }
    let mut records = Vec::new();
    for obj in top_level_objects(s) {
        // Strip the nested phases object before scanning scalar fields so
        // a phase can never shadow a record key.
        let (phases, phases_span) = phases_field(obj);
        let scalars = match phases_span {
            Some((a, b)) => format!("{}{}", &obj[..a], &obj[b..]),
            None => obj.to_string(),
        };
        let obj = scalars.as_str();
        if let (Some(workload), Some(p50), Some(p95), Some(sim), Some(bytes)) = (
            str_field(obj, "workload"),
            u64_field(obj, "wall_ns_p50"),
            u64_field(obj, "wall_ns_p95"),
            u64_field(obj, "sim_ns"),
            u64_field(obj, "bytes"),
        ) {
            records.push(GateRecord {
                workload,
                wall_ns_p50: p50,
                wall_ns_p95: p95,
                sim_ns: sim,
                bytes,
                git_rev: str_field(obj, "git_rev").unwrap_or_default(),
                speedup_milli: u64_field(obj, "speedup_milli"),
                recall_milli: u64_field(obj, "recall_milli"),
                phases,
            });
        }
    }
    records
}

/// Geometric mean of speedups, ignoring non-finite entries.
pub fn geomean(ratios: &[f64]) -> f64 {
    let finite: Vec<f64> = ratios
        .iter()
        .copied()
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    (finite.iter().map(|r| r.ln()).sum::<f64>() / finite.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_interval_brackets_the_point_and_is_deterministic() {
        let seq = [100u64, 104, 98, 130, 101, 99, 102, 97, 103];
        let par = [50u64, 53, 49, 70, 51, 48, 52, 50, 55];
        let r = p50_ratio_interval(&seq, &par);
        assert!((r.point - 101.0 / 51.0).abs() < 1e-12);
        assert!(r.lo <= r.point && r.point <= r.hi, "{r:?}");
        assert!(
            r.lo > 1.5,
            "a clear 2x speedup has its interval above 1: {r:?}"
        );
        assert_eq!(r, p50_ratio_interval(&seq, &par));
        // Equal arms: the interval straddles 1.
        let same = p50_ratio_interval(&seq, &seq);
        assert_eq!(same.point, 1.0);
        assert!(same.lo <= 1.0 && same.hi >= 1.0, "{same:?}");
        // One pair is a degenerate but valid interval.
        let one = p50_ratio_interval(&[10], &[20]);
        assert_eq!((one.point, one.lo, one.hi), (0.5, 0.5, 0.5));
    }

    #[test]
    fn topology_tracks_scale() {
        // Without OMEGA_SCALE set, the default machine has 24 MiB DRAM/node.
        if std::env::var("OMEGA_SCALE").is_err() {
            let t = experiment_topology();
            assert_eq!(
                t.capacity(0, omega_hetmem::DeviceKind::Dram),
                SCALED_DRAM_PER_NODE
            );
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(None), "OOM");
        assert_eq!(fmt_time(Some(SimDuration::from_millis(5))), "5.00 ms");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(2.5))), "2.50 s");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(250.0))), "250 s");
    }

    #[test]
    fn results_dir_honors_override() {
        assert_eq!(results_dir_from(None), PathBuf::from("results"));
        assert_eq!(
            results_dir_from(Some("/tmp/out".to_string())),
            PathBuf::from("/tmp/out")
        );
    }

    #[test]
    fn jsonl_rows_land_in_named_file() {
        let dir = std::env::temp_dir().join("omega_bench_results_test");
        let path = write_jsonl_into(&dir, "fig_test", "{\"a\":1}\n");
        assert_eq!(path, dir.join("fig_test.jsonl"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples = [50, 10, 40, 30, 20];
        assert_eq!(percentile_u64(&samples, 0.5), 30);
        assert_eq!(percentile_u64(&samples, 0.95), 50);
        assert_eq!(percentile_u64(&samples, 0.0), 10);
        assert_eq!(percentile_u64(&samples, 1.0), 50);
        // Edge cases: empty, single-sample, and all-equal inputs.
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[], 0.0), 0);
        assert_eq!(percentile_u64(&[], 1.0), 0);
        assert_eq!(percentile_u64(&[7], 0.0), 7);
        assert_eq!(percentile_u64(&[7], 0.5), 7);
        assert_eq!(percentile_u64(&[7], 1.0), 7);
        let equal = [9u64; 17];
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(percentile_u64(&equal, q), 9);
        }
    }

    #[test]
    fn gate_records_round_trip() {
        let records = vec![
            GateRecord {
                workload: "serving_seq".into(),
                wall_ns_p50: 1_234_567,
                wall_ns_p95: 2_000_000,
                sim_ns: 42,
                bytes: 99,
                git_rev: "abc1234".into(),
                speedup_milli: None,
                recall_milli: None,
                phases: Vec::new(),
            },
            GateRecord {
                workload: "serving_par8".into(),
                wall_ns_p50: 5,
                wall_ns_p95: 6,
                sim_ns: 7,
                bytes: 8,
                git_rev: "unknown".into(),
                speedup_milli: Some(3_250),
                recall_milli: Some(978),
                phases: vec![
                    ("fetch".into(), 100),
                    ("lookup".into(), 200),
                    ("topk".into(), 50),
                    ("barrier".into(), 25),
                ],
            },
        ];
        let json = gate_records_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.contains(r#""workload": "serving_seq""#));
        assert!(json.contains(r#""speedup_milli": 3250"#));
        assert!(json.contains(r#""recall_milli": 978"#));
        assert!(json.contains(r#""phases": {"fetch": 100, "lookup": 200"#));
        // The record without phases must not gain empty trailing fields.
        assert!(json.contains("\"git_rev\": \"abc1234\"}"));
        assert_eq!(gate_records_from_json(&json), records);
        // Tolerates reformatting and unknown keys.
        let loose = json
            .replace(": ", ":")
            .replace(r#""sim_ns":7"#, r#""extra":"x", "sim_ns": 7"#);
        assert_eq!(gate_records_from_json(&loose), records);
        assert!(gate_records_from_json("[]").is_empty());
        assert!(gate_records_from_json("not json").is_empty());
        // Pre-attribution baselines (no speedup/phases fields) still load.
        let legacy = r#"[
  {"workload": "spmm", "wall_ns_p50": 5, "wall_ns_p95": 6, "sim_ns": 7, "bytes": 8, "git_rev": "unknown"}
]"#;
        let parsed = gate_records_from_json(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].speedup_milli, None);
        assert_eq!(parsed[0].recall_milli, None);
        assert!(parsed[0].phases.is_empty());
    }

    #[test]
    fn guiltiest_phase_names_largest_delta() {
        let mk = |phases: Vec<(&str, u64)>| GateRecord {
            workload: "w".into(),
            wall_ns_p50: 0,
            wall_ns_p95: 0,
            sim_ns: 0,
            bytes: 0,
            git_rev: String::new(),
            speedup_milli: None,
            recall_milli: None,
            phases: phases
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        };
        let base = mk(vec![("fetch", 100), ("lookup", 200), ("topk", 50)]);
        let now = mk(vec![("fetch", 110), ("lookup", 500), ("topk", 55)]);
        assert_eq!(
            now.guiltiest_phase(&base),
            Some(("lookup".into(), 200, 500))
        );
        // A phase absent from the baseline counts as growth from zero.
        let now2 = mk(vec![("fetch", 100), ("barrier", 400)]);
        assert_eq!(
            now2.guiltiest_phase(&base),
            Some(("barrier".into(), 0, 400))
        );
        assert_eq!(mk(vec![]).guiltiest_phase(&base), None);
    }

    #[test]
    fn git_rev_is_short_or_unknown() {
        let rev = git_rev();
        assert!(!rev.is_empty());
        assert!(rev == "unknown" || rev.chars().all(|c| c.is_ascii_alphanumeric()));
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[3.0, f64::INFINITY]) - 3.0).abs() < 1e-9);
    }
}
