//! `embed_twin` — the paper's own path: a Table-I social twin (soc-Pokec's
//! degree skew) through the full OMeGa variant (hetero memory, WoFP + NaDP
//! + ASL, 30 simulated threads, d = 64), then link-prediction AUC.
//!
//! Loads `graph`, `spmm`, `linalg` (tSVD), `embed` and `hetmem` charging,
//! with heavy writes to the tiers; `serve` and `plane` do no work.

use crate::layers::{self, bench_span, span_walls};
use crate::stats::{digest_f32, median, nproc, peak_rss_mib, resolvable_tail, secs};
use crate::{Checks, HostInfo, Outcome, RunOpts, Size, SETUP_REPS, SIM_THREADS, WALL_THREADS};
use omega::graph::{Csr, Dataset, GraphBuilder, RmatConfig};
use omega::par::PoolProfiler;
use omega::{Embedding, Omega, OmegaConfig, OmegaRun, SystemVariant};
use omega_embed::eval::link_prediction_auc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes of one scale of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// soc-Pokec twin at 1:`scale` of the paper's counts.
    pub scale: u64,
    pub dim: usize,
    /// Positive and negative pairs of the AUC probe.
    pub auc_samples: usize,
    /// Query nodes of the neighbour-recall probe.
    pub recall_queries: u32,
}

impl Params {
    pub fn of(size: Size) -> Params {
        match size {
            // 16.3k nodes, 339k edges: one embed takes ~1.5 s on 2 cores.
            Size::Full => Params {
                scale: 100,
                dim: 64,
                auc_samples: crate::AUC_SAMPLES,
                recall_queries: 500,
            },
            Size::Tiny => Params {
                scale: 2_000,
                dim: 16,
                auc_samples: 300,
                recall_queries: 50,
            },
        }
    }
}

/// The AUC a healthy run must clear.
pub const AUC_FLOOR: f64 = 0.8;

/// Timed repetitions of the measured phase, at least.
const MIN_REPS: usize = 2;

/// The workload's graph: the soc-Pokec twin's R-MAT shape with the run's
/// seed. Returns the CSR and the wall seconds of its build from the edge
/// list (`graph.load_s`).
pub fn twin(seed: u64, scale: u64) -> Result<(Csr, f64), String> {
    let cfg = RmatConfig {
        seed,
        ..Dataset::Pk.twin_config(scale)
    };
    let edges = cfg.generate_edges();
    let t = Instant::now();
    let mut b = GraphBuilder::new(cfg.nodes);
    for (u, v, w) in edges.iter() {
        b.add_edge(u, v, w).map_err(|e| e.to_string())?;
    }
    let graph = b.build_csr().map_err(|e| e.to_string())?;
    Ok((graph, secs(t)))
}

/// The canonical soc-Pokec twin at 1:`scale` (the dataset's own fixed
/// seed): the graph whose embedding the serving workloads serve, so their
/// seed varies traffic and faults, not the table.
pub fn canonical_twin(scale: u64) -> Result<Csr, String> {
    Dataset::Pk.load_scaled(scale).map_err(|e| e.to_string())
}

/// The full OMeGa configuration at `dim`, with `wall_threads` OS workers.
pub fn omega_config(dim: usize, wall_threads: usize) -> OmegaConfig {
    OmegaConfig::default()
        .with_threads(SIM_THREADS)
        .with_dim(dim)
        .with_wall_threads(wall_threads)
}

/// Columns of the tSVD's dense sketch at `dim` (`dim + oversample`): the
/// GEMM shape the kernel probe times.
pub fn tsvd_width(dim: usize) -> usize {
    dim + omega_config(dim, WALL_THREADS).prone.oversample
}

/// Train the table the serving workloads serve: the full OMeGa pipeline
/// on the workload's twin.
pub fn train_table(graph: &Csr, dim: usize) -> Result<Embedding, String> {
    let omega = Omega::new(omega_config(dim, WALL_THREADS)).map_err(|e| e.to_string())?;
    Ok(omega.embed(graph).map_err(|e| e.to_string())?.embedding)
}

/// Mean over sampled nodes of the share of their graph neighbours (up to
/// ten) found among their ten nearest embedding neighbours (cosine).
pub fn neighbour_recall(emb: &Embedding, graph: &Csr, queries: u32) -> f64 {
    let n = graph.rows();
    let step = (n / queries.max(1)).max(1);
    let mut sum = 0.0;
    let mut count = 0usize;
    for u in (0..n).step_by(step as usize) {
        let (nbrs, _) = graph.row(u);
        if nbrs.is_empty() {
            continue;
        }
        let found = emb
            .nearest(u, 10)
            .iter()
            .filter(|(v, _)| nbrs.binary_search(v).is_ok())
            .count();
        sum += found as f64 / nbrs.len().min(10) as f64;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn embed(omega: &Omega, graph: &Csr) -> Result<OmegaRun, String> {
    omega.embed(graph).map_err(|e| format!("embed: {e}"))
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = Params::of(opts.size);
    let threads = WALL_THREADS;
    let mut checks = Checks::default();

    // Setup: twin generation and CSR build.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (g, load_s) = twin(opts.seed, p.scale)?;
        setups.push(secs(t));
        loads.push(load_s);
        graph = Some(g);
    }
    let graph = graph.expect("SETUP_REPS > 0");

    // The first embed is the warm-up and the reference every timed
    // repetition must reproduce bit for bit.
    let omega = Omega::new(omega_config(p.dim, threads)).map_err(|e| e.to_string())?;
    let reference = embed(&omega, &graph)?;
    let ref_digest = digest_f32(reference.embedding.data());

    let timed = |omega: &Omega, budget: f64, checks: &mut Checks| -> Result<Vec<f64>, String> {
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < MIN_REPS || secs(start) < budget {
            let t = Instant::now();
            let run = embed(omega, &graph)?;
            walls.push(secs(t));
            checks.check(
                digest_f32(run.embedding.data()) == ref_digest && run.report == reference.report,
                || "a repeated embed changed its output or simulated report".into(),
            );
        }
        Ok(walls)
    };
    let walls = timed(&omega, opts.seconds, &mut checks)?;
    eprintln!("timed embed walls (s): {}", crate::stats::fmt_walls(&walls));

    // Output checks, outside every timed region.
    let auc = link_prediction_auc(&reference.embedding, &graph, p.auc_samples, opts.seed);
    checks.check(auc > AUC_FLOOR, || {
        format!("auc {auc:.4} <= floor {AUC_FLOOR}")
    });
    let wide = embed(
        &Omega::new(omega_config(p.dim, nproc())).map_err(|e| e.to_string())?,
        &graph,
    )?;
    checks.check(digest_f32(wide.embedding.data()) == ref_digest, || {
        format!(
            "embedding differs between {threads} and {} wall threads",
            nproc()
        )
    });
    let recall = neighbour_recall(&reference.embedding, &graph, p.recall_queries);

    let host = HostInfo {
        nproc: nproc(),
        os_threads: vec![
            ("prone.wall_threads", threads),
            ("check.wall_threads", nproc()),
        ],
        sim_threads: SIM_THREADS,
        notes: vec![format!(
            "soc-Pokec twin 1:{}: |V|={} nnz={}; {} timed embeds",
            p.scale,
            graph.rows(),
            graph.nnz(),
            walls.len()
        )],
    };

    let mut values = BTreeMap::new();
    if opts.trace {
        values = layers::zeroed();
        values.insert("graph.load_s", median(&loads));
        let rec = omega::obs::Recorder::enabled();
        let prof = PoolProfiler::enabled();
        let traced_omega = Omega::new(omega_config(p.dim, threads))
            .map_err(|e| e.to_string())?
            .with_recorder(rec.clone());
        let traced = {
            let _guard = omega::par::install(&prof);
            let start = Instant::now();
            let mut n = 0;
            while n < MIN_REPS || secs(start) < opts.seconds {
                let run = bench_span(&rec, "bench.embed", || embed(&traced_omega, &graph))?;
                checks.check(digest_f32(run.embedding.data()) == ref_digest, || {
                    "tracing changed the embedding".into()
                });
                n += 1;
            }
            n
        };
        let spans = rec.spans();
        let outer = span_walls(&spans, "bench.embed");
        let read = span_walls(&spans, "prone.read");
        let fact = span_walls(&spans, "prone.factorize");
        let prop = span_walls(&spans, "prone.propagate");
        for i in 0..outer.len() {
            let covered = read[i] + fact[i] + prop[i];
            checks.check(covered >= 0.9 * outer[i], || {
                format!(
                    "prone phases cover {covered:.3}s of a {:.3}s embed span (< 90%)",
                    outer[i]
                )
            });
        }
        values.insert("embed.read_s", median(&read));
        values.insert("embed.factorize_s", median(&fact));
        values.insert("embed.propagate_s", median(&prop));
        let r = &reference.report;
        values.insert("embed.read_sim_s", r.read_time.as_secs_f64());
        values.insert("embed.factorize_sim_s", r.factorization_time.as_secs_f64());
        values.insert("embed.propagate_sim_s", r.propagation_time.as_secs_f64());
        values.insert("embed.spmm_share", r.spmm_share());
        let spmm = span_walls(&spans, "spmm.run");
        values.insert("spmm.calls", spmm.len() as f64 / traced as f64);
        values.insert("spmm.wall_s", spmm.iter().sum::<f64>() / traced as f64);
        values.insert("spmm.sim_s", r.spmm_time.as_secs_f64());

        // One standalone SpMM on the twin's CSDB for the prefetch and
        // thread-balance view. With ASL staging whole column batches WoFP
        // has nothing to stage at this scale, so the probe runs the
        // streaming-off variant (the paper's Fig. 14 regime).
        let engine =
            Omega::new(omega_config(p.dim, threads).with_variant(SystemVariant::OmegaWithoutAsl))
                .and_then(|o| o.engine())
                .map_err(|e| e.to_string())?;
        let csdb = omega::graph::Csdb::from_csr(&graph).map_err(|e| e.to_string())?;
        let b = omega::linalg::gaussian_matrix(graph.rows() as usize, p.dim, opts.seed);
        let one = engine.spmm(&csdb, &b).map_err(|e| format!("spmm: {e}"))?;
        values.insert("spmm.prefetch_hit_rate", one.hit_rate());
        let staged = one.prefetch_hits + one.wasted_prefetches;
        values.insert(
            "spmm.wasted_prefetch_ratio",
            if staged == 0 {
                0.0
            } else {
                one.wasted_prefetches as f64 / staged as f64
            },
        );
        values.insert(
            "spmm.thread_imbalance",
            if one.stats.mean_s > 0.0 {
                one.stats.max_s / one.stats.mean_s
            } else {
                1.0
            },
        );
        layers::record_hetmem(&mut values, &reference.traffic);
        layers::kernel_probes(
            &mut values,
            &reference.embedding,
            &graph,
            tsvd_width(p.dim),
            threads,
        )?;
        layers::record_pool(&mut values, &prof, traced);
        values.insert("obs.trace_overhead", median(&outer) / median(&walls));
        if let Some(path) = layers::write_trace(opts, "embed_twin", &rec, &prof)? {
            eprintln!("wrote spans to {}", path.display());
        }
        eprint!("{}", layers::layer_table("embed_twin", &values));
    } else {
        let sim_s = reference.report.total().as_secs_f64();
        let wall = median(&walls);
        values.insert("setup_s", median(&setups));
        values.insert("wall_s", wall);
        values.insert("p50_ms", wall * 1e3);
        values.insert("p99_ms", resolvable_tail(&walls).0 * 1e3);
        values.insert("peak_rss_mb", peak_rss_mib()?);
        values.insert("sim_s", sim_s);
        // The job is the workload's only request.
        values.insert("sim_p99_us", sim_s * 1e6);
        values.insert("slo_qps", 1.0 / sim_s);
        values.insert("goodput_qps", 1.0 / sim_s);
        // The job's requests are its AUC probe pairs; a failed check
        // fails the whole job.
        values.insert(
            "failed_ratio",
            if checks.failed.is_empty() {
                1.0 - auc
            } else {
                1.0
            },
        );
        values.insert("auc", auc);
        values.insert("recall", recall);
    }
    Ok(Outcome {
        values,
        attempted: walls.len() as u64,
        checks,
        host,
    })
}
