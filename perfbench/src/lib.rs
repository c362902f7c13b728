//! # omega-perfbench — one benchmark for the whole OMeGa path
//!
//! Three workloads drive the system only through the entry points its
//! users call — [`omega::Omega::embed`], [`omega::serve::EmbedServer`] and
//! [`omega::plane::RequestPlane`] — and each loads different layers:
//!
//! * [`embed_twin`] — the paper's batch job: a Table-I social twin through
//!   the full OMeGa variant, then link-prediction AUC;
//! * [`serve_exact`] — one closed-loop client against an exact
//!   brute-force server with a PM cold tier and a small DRAM cache;
//! * [`plane_ivf`] — an open-loop, two-tenant request plane over three
//!   IVF replicas under a transient PM fault plan, swept over a rate grid.
//!
//! An untraced run reports the [`END_TO_END`] metrics; a traced run
//! (`--trace 1`) wraps the benchmark's own spans around each public call,
//! reads the instrumentation the crates already expose (recorder spans,
//! pool profiler labels, serve/plane stats, access summaries) and reports
//! the [`PER_LAYER`] metrics. `README.md` maps every layer metric to the
//! end-to-end metric it should move.

pub mod embed_twin;
pub mod layers;
pub mod plane_ivf;
pub mod serve_exact;
pub mod stats;

use omega::obs::json;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Simulated threads of every workload: the paper's 30.
pub const SIM_THREADS: usize = 30;

/// OS worker threads of every measured phase (pool, ProNE kernels, serve
/// batches, plane lanes). Always within `nproc`. One thread keeps wall
/// times steady on a small shared host, where a second vCPU being
/// preempted stalls every parallel barrier; the embedding check still runs
/// at `nproc` threads.
pub const WALL_THREADS: usize = 1;

/// Positive and negative pairs of every link-prediction AUC probe.
pub const AUC_SAMPLES: usize = 20_000;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Input scale of a run. `Tiny` exists for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Target wall time of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its span file.
    pub out_dir: Option<PathBuf>,
}

/// A declared metric: the contract `BENCHMARK.json` mirrors.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("p50_ms", "ms", "lower"),
    m("p99_ms", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("sim_s", "s", "lower"),
    m("sim_p99_us", "us", "lower"),
    m("slo_qps", "1/s", "higher"),
    m("goodput_qps", "1/s", "higher"),
    m("failed_ratio", "ratio", "lower"),
    m("auc", "ratio", "higher"),
    m("recall", "ratio", "higher"),
];

/// A per-layer metric with the end-to-end metric it should move and the
/// workload(s) it moves it on.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub def: MetricDef,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerDef {
    LayerDef {
        def: m(name, unit, better),
        moves,
        on,
    }
}

const EMBED: &str = "embed_twin";
const SERVE: &str = "serve_exact";
const PLANE: &str = "plane_ivf";
const SERVING: &str = "serve_exact, plane_ivf";
const ALL: &str = "all";

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer that does no work on a workload reports 0 there — that is the
/// "no change" side of each prediction.
pub const PER_LAYER: &[LayerDef] = &[
    l("graph.load_s", "s", "lower", "setup_s", EMBED),
    l("embed.read_s", "s", "lower", "wall_s", EMBED),
    l("embed.factorize_s", "s", "lower", "wall_s", EMBED),
    l("embed.propagate_s", "s", "lower", "wall_s", EMBED),
    l("embed.read_sim_s", "s", "lower", "sim_s", EMBED),
    l("embed.factorize_sim_s", "s", "lower", "sim_s", EMBED),
    l("embed.propagate_sim_s", "s", "lower", "sim_s", EMBED),
    l("embed.spmm_share", "ratio", "lower", "sim_s", EMBED),
    l("spmm.calls", "count", "lower", "wall_s", EMBED),
    l("spmm.wall_s", "s", "lower", "wall_s", EMBED),
    l("spmm.sim_s", "s", "lower", "sim_s", EMBED),
    l("spmm.prefetch_hit_rate", "ratio", "higher", "sim_s", EMBED),
    l(
        "spmm.wasted_prefetch_ratio",
        "ratio",
        "lower",
        "sim_s",
        EMBED,
    ),
    l("spmm.thread_imbalance", "ratio", "lower", "sim_s", EMBED),
    l("hetmem.pm_bytes", "B", "lower", "sim_s; sim_p99_us", ALL),
    l("hetmem.dram_bytes", "B", "lower", "sim_s; sim_p99_us", ALL),
    l(
        "hetmem.remote_bytes",
        "B",
        "lower",
        "sim_s; sim_p99_us",
        ALL,
    ),
    l(
        "hetmem.random_bytes",
        "B",
        "lower",
        "sim_s; sim_p99_us",
        ALL,
    ),
    l("hetmem.write_bytes", "B", "lower", "sim_s; sim_p99_us", ALL),
    l("linalg.scores_ns_per_row", "ns", "lower", "p50_ms", SERVE),
    l("linalg.scores_gbps", "GB/s", "higher", "p50_ms", SERVE),
    l("linalg.scores_ops", "count", "lower", "p50_ms", SERVE),
    l("linalg.scores_bytes", "B", "lower", "p50_ms", SERVE),
    l("linalg.gemm_gflops", "GFLOP/s", "higher", "wall_s", EMBED),
    l("linalg.gemm_ops", "count", "lower", "wall_s", EMBED),
    l("linalg.gemm_bytes", "B", "lower", "wall_s", EMBED),
    l("linalg.spmv_gbps", "GB/s", "higher", "wall_s", EMBED),
    l("linalg.spmv_ops", "count", "lower", "wall_s", EMBED),
    l("linalg.spmv_bytes", "B", "lower", "wall_s", EMBED),
    l("par.utilization", "ratio", "higher", "wall_s", ALL),
    l("par.barrier_s", "s", "lower", "wall_s", ALL),
    l("par.park_s", "s", "lower", "wall_s", ALL),
    l("par.idle_s", "s", "lower", "wall_s", ALL),
    l("par.steals", "count", "lower", "wall_s", ALL),
    l("par.seq_calls", "count", "lower", "wall_s", ALL),
    l("serve.topk_s", "s", "lower", "p50_ms; p99_ms", SERVE),
    l("serve.fetch_s", "s", "lower", "p50_ms; p99_ms", SERVE),
    l("serve.lookup_s", "s", "lower", "p50_ms; p99_ms", SERVE),
    l("serve.new_s", "s", "lower", "setup_s", SERVE),
    l("serve.hit_rate", "ratio", "higher", "sim_p99_us", SERVING),
    l("serve.fetches", "count", "lower", "sim_p99_us", SERVING),
    l("serve.evictions", "count", "lower", "sim_p99_us", SERVING),
    l(
        "serve.admission_rejects",
        "count",
        "lower",
        "sim_p99_us",
        SERVING,
    ),
    l("serve.cold_bytes", "B", "lower", "sim_p99_us", SERVING),
    l("ivf.build_s", "s", "lower", "setup_s", PLANE),
    l(
        "ivf.probes_per_query",
        "count",
        "lower",
        "sim_p99_us; recall",
        PLANE,
    ),
    l("ivf.cold_bytes", "B", "lower", "sim_p99_us", PLANE),
    l("plane.run_s", "s", "lower", "wall_s", PLANE),
    l(
        "plane.queue_wait_p99_us",
        "us",
        "lower",
        "sim_p99_us",
        PLANE,
    ),
    l(
        "plane.rejected",
        "count",
        "lower",
        "failed_ratio; slo_qps",
        PLANE,
    ),
    l(
        "plane.dropped",
        "count",
        "lower",
        "failed_ratio; slo_qps",
        PLANE,
    ),
    l(
        "plane.degraded",
        "count",
        "lower",
        "failed_ratio; goodput_qps",
        PLANE,
    ),
    l(
        "plane.slo_miss",
        "count",
        "lower",
        "failed_ratio; goodput_qps",
        PLANE,
    ),
    l("plane.hedged_routes", "count", "lower", "sim_p99_us", PLANE),
    l(
        "faults.injected",
        "count",
        "lower",
        "sim_p99_us; failed_ratio",
        PLANE,
    ),
    l(
        "faults.retried",
        "count",
        "lower",
        "sim_p99_us; failed_ratio",
        PLANE,
    ),
    l(
        "faults.hedge_won",
        "count",
        "lower",
        "sim_p99_us; failed_ratio",
        PLANE,
    ),
    l(
        "faults.degraded",
        "count",
        "lower",
        "sim_p99_us; failed_ratio",
        PLANE,
    ),
    l("obs.trace_overhead", "ratio", "lower", "none", ALL),
];

/// Outcome checks of one run. A failed check marks the run incorrect and
/// counts in `failed_ratio`.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    pub fn failed_count(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// Host facts every result records.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    /// Wall-clock worker threads per knob (pool, serve, plane lanes).
    pub os_threads: Vec<(&'static str, usize)>,
    pub sim_threads: usize,
    /// Plain-language facts the run wants on record.
    pub notes: Vec<String>,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metric name → value, for every metric of the run's set.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations the measured phase attempted (jobs or requests).
    pub attempted: u64,
    pub checks: Checks,
    pub host: HostInfo,
}

/// The three workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["embed_twin", "serve_exact", "plane_ivf"];

/// Run one workload.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "embed_twin" => embed_twin::run(opts),
        "serve_exact" => serve_exact::run(opts),
        "plane_ivf" => plane_ivf::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Render the result line: `correct`, `attempted`, `failed`, `metrics`,
/// with the metric set the run's mode declares (every entry must be set).
pub fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let defs: Vec<MetricDef> = if trace {
        PER_LAYER.iter().map(|l| l.def).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::with_capacity(defs.len());
    for d in &defs {
        let v = *out
            .values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        let metric = Value::Map(vec![
            ("value".into(), Value::F64(v)),
            ("unit".into(), Value::Str(d.unit.into())),
        ]);
        metrics.push((d.name.to_string(), metric));
    }
    Ok(json::to_string(&Value::Map(vec![
        ("correct".into(), Value::Bool(out.checks.failed.is_empty())),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.checks.failed_count())),
        ("metrics".into(), Value::Map(metrics)),
    ])))
}

/// Render the host record: workload, seed, mode, `nproc`, OS thread
/// counts, simulated threads, source revision, checks run and notes.
pub fn host_json(workload: &str, opts: &RunOpts, out: &Outcome, rev: &str) -> String {
    let h = &out.host;
    let threads = h
        .os_threads
        .iter()
        .map(|(k, v)| (k.to_string(), Value::U64(*v as u64)))
        .collect();
    json::to_string(&Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(opts.seed)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("nproc".into(), Value::U64(h.nproc as u64)),
        ("os_threads".into(), Value::Map(threads)),
        ("sim_threads".into(), Value::U64(h.sim_threads as u64)),
        ("rev".into(), Value::Str(rev.into())),
        ("checks".into(), Value::U64(out.checks.run)),
        (
            "notes".into(),
            Value::Seq(h.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
    ]))
}
