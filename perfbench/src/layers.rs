//! Traced-run helpers: the benchmark's own spans around public calls, and
//! readers for the instrumentation the crates already expose.

use crate::stats::{median, secs};
use crate::{LayerDef, RunOpts, PER_LAYER};
use omega::graph::{Csdb, Csr};
use omega::hetmem::AccessSummary;
use omega::linalg::{gaussian_matrix, kernels, par::gemm_blocked, par::GEMM_PANEL_ROWS};
use omega::obs::{Recorder, SpanRecord, Track};
use omega::par::PoolProfiler;
use omega::Embedding;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The track the benchmark's own spans land on (apart from the crates'
/// `Track::MAIN` and replica tracks).
pub const BENCH_TRACK: Track = Track::new(1000, 0);

/// Run `f` inside a benchmark span named `name`.
pub fn bench_span<R>(rec: &Recorder, name: &str, f: impl FnOnce() -> R) -> R {
    let span = rec.begin(name, BENCH_TRACK);
    let out = f();
    rec.end(span, None);
    out
}

/// Wall seconds of every span named `name`, in completion order.
pub fn span_walls(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_dur_us as f64 * 1e-6)
        .collect()
}

/// Every per-layer metric at 0: the value of a layer that does no work on
/// the workload. Workloads overwrite what they measure.
pub fn zeroed() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|l| (l.def.name, 0.0)).collect()
}

/// `hetmem.*` from an access summary.
pub fn record_hetmem(values: &mut BTreeMap<&'static str, f64>, t: &AccessSummary) {
    values.insert("hetmem.pm_bytes", t.pm_bytes as f64);
    values.insert("hetmem.dram_bytes", t.dram_bytes as f64);
    values.insert("hetmem.remote_bytes", t.remote_bytes as f64);
    values.insert("hetmem.random_bytes", t.random_bytes as f64);
    values.insert("hetmem.write_bytes", t.write_bytes as f64);
}

/// `par.*` and the serving phase labels from a pool profiler that was
/// installed for `reps` units of work; times and counts are per unit.
pub fn record_pool(values: &mut BTreeMap<&'static str, f64>, prof: &PoolProfiler, reps: usize) {
    let per = 1.0 / reps.max(1) as f64;
    let total = prof.total();
    values.insert("par.utilization", total.utilization());
    values.insert("par.barrier_s", total.barrier_wall_ns as f64 * 1e-9 * per);
    values.insert("par.park_s", total.park_wall_ns as f64 * 1e-9 * per);
    values.insert("par.idle_s", total.idle_wall_ns as f64 * 1e-9 * per);
    values.insert("par.steals", total.steals as f64 * per);
    values.insert("par.seq_calls", total.seq_calls as f64 * per);
    for (label, p) in prof.profiles() {
        let key = match label.as_str() {
            "topk" => "serve.topk_s",
            "fetch" => "serve.fetch_s",
            "lookup" => "serve.lookup_s",
            _ => continue,
        };
        values.insert(key, p.scope_self_wall_ns as f64 * 1e-9 * per);
    }
}

/// Time `f` until `budget_s` has passed (at least `min_reps` calls) and
/// return the median call wall in seconds.
fn median_call(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_reps || secs(start) < budget_s {
        let t = Instant::now();
        f();
        walls.push(secs(t));
    }
    median(&walls)
}

/// Kernel probes on the workload's own shapes: top-k scores over the
/// table, the tSVD's blocked GEMM (`|V| x k` by `k x k`, `k = d +
/// oversample`), and SpMV over the graph's CSDB. Operation counts and
/// bytes are computed from the shapes, not measured.
pub fn kernel_probes(
    values: &mut BTreeMap<&'static str, f64>,
    emb: &Embedding,
    graph: &Csr,
    k: usize,
    threads: usize,
) -> Result<(), String> {
    let (n, d) = (emb.nodes() as usize, emb.dim());
    let query = emb.vector(0).to_vec();
    let mut out = Vec::with_capacity(n);
    let t = median_call(0.15, 5, || {
        kernels::dot_scores_into(black_box(&query), black_box(emb.data()), d, &mut out);
        black_box(&out);
    });
    let bytes = (n * d * 4 + d * 4 + n * 4) as f64;
    values.insert("linalg.scores_ns_per_row", t * 1e9 / n as f64);
    values.insert("linalg.scores_gbps", bytes / t / 1e9);
    values.insert("linalg.scores_ops", (2 * n * d) as f64);
    values.insert("linalg.scores_bytes", bytes);

    let a = gaussian_matrix(n, k, 11);
    let b = gaussian_matrix(k, k, 12);
    let mut err = None;
    let t = median_call(0.15, 3, || {
        if let Err(e) = gemm_blocked(black_box(&a), black_box(&b), threads, GEMM_PANEL_ROWS) {
            err = Some(e.to_string());
        }
    });
    if let Some(e) = err {
        return Err(format!("gemm probe: {e}"));
    }
    let flops = (2 * n * k * k) as f64;
    values.insert("linalg.gemm_gflops", flops / t / 1e9);
    values.insert("linalg.gemm_ops", flops);
    values.insert("linalg.gemm_bytes", ((2 * n * k + k * k) * 4) as f64);

    let csdb = Csdb::from_csr(graph).map_err(|e| format!("csdb: {e}"))?;
    let x = vec![1.0f32; csdb.cols() as usize];
    let t = median_call(0.15, 5, || {
        black_box(csdb.spmv(black_box(&x)).expect("x matches the CSDB width"));
    });
    let nnz = csdb.nnz();
    // Column index + value + gathered x per nonzero, plus one output word
    // per row.
    let bytes = (nnz * 12 + csdb.rows() as usize * 4) as f64;
    values.insert("linalg.spmv_gbps", bytes / t / 1e9);
    values.insert("linalg.spmv_ops", (2 * nnz) as f64);
    values.insert("linalg.spmv_bytes", bytes);
    Ok(())
}

/// Write the recorder's spans (plus the pool's worker timelines) as a
/// Chrome trace: `<out_dir>/<workload>.trace.json`.
pub fn write_trace(
    opts: &RunOpts,
    workload: &str,
    rec: &Recorder,
    prof: &PoolProfiler,
) -> Result<Option<PathBuf>, String> {
    let Some(dir) = &opts.out_dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    omega::obs::record_pool_timeline(rec, prof, 2000);
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, rec.chrome_trace_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Some(path))
}

/// The traced run's table: each layer metric next to the end-to-end
/// metric it should move and where.
pub fn layer_table(workload: &str, values: &BTreeMap<&'static str, f64>) -> String {
    let mut s = format!(
        "per-layer metrics of {workload} (0 = no work on this workload)\n{:<28} {:>16} {:<8} {:<26} on\n",
        "metric", "value", "unit", "should move"
    );
    for LayerDef { def, moves, on } in PER_LAYER {
        let v = values.get(def.name).copied().unwrap_or(f64::NAN);
        s.push_str(&format!(
            "{:<28} {:>16.6} {:<8} {:<26} {}\n",
            def.name, v, def.unit, moves, on
        ));
    }
    s
}
