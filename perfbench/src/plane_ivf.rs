//! `plane_ivf` — an open loop in simulated time: a [`RequestPlane`] over
//! three replicas, each answering top-k through an IVF index at auto
//! `nlist`/`nprobe`, fed by two Poisson tenants (`interactive`: high
//! priority, Zipf, tight deadline; `batch`: low priority, uniform, loose
//! deadline) under a low-rate transient PM fault plan. One pass runs the
//! plane once per rate of a fixed grid.
//!
//! Loads `plane` (admission, routing, concurrent lanes, merge), IVF probes,
//! `faults` retry/hedge/degrade and the cache under a scan-like tenant next
//! to a skewed one; `spmm` does no work.

use crate::embed_twin;
use crate::layers::{self, bench_span};
use crate::stats::{median, nproc, peak_rss_mib, resolvable_tail, secs};
use crate::{
    Checks, HostInfo, Outcome, RunOpts, Size, AUC_SAMPLES, SETUP_REPS, SIM_THREADS, WALL_THREADS,
};
use omega::faults::{install_plan, FaultPlanSpec};
use omega::graph::Csr;
use omega::hetmem::{AccessSummary, DeviceKind, MemSystem, Placement, SimDuration, Topology};
use omega::obs::Recorder;
use omega::par::PoolProfiler;
use omega::plane::{
    generate_timeline, PlaneConfig, PlaneReport, PlaneStats, Priority, RequestPlane, TenantSpec,
};
use omega::serve::{
    EmbedServer, IndexMode, Popularity, RequestKind, ServeConfig, ServeStats, WorkloadConfig,
};
use omega::Embedding;
use omega_embed::eval::link_prediction_auc;
use omega_embed::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes of one scale of the workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub scale: u64,
    pub dim: usize,
    pub replicas: usize,
    pub rows_per_shard: usize,
    pub cache_shards: u64,
    pub batch: usize,
    /// Arrival horizon of one plane run (simulated).
    pub horizon_ms: f64,
    /// Offered rates of one pass, ascending (requests per simulated s).
    pub grid: Vec<f64>,
    /// Index of the grid rate at which `sim_p99_us` and `failed_ratio` are
    /// taken.
    pub nominal: usize,
    /// Top-k queries checked for recall.
    pub recall_queries: usize,
}

/// `n` rates from `lo`, each `step` times the previous, rounded to whole
/// requests per second.
fn geometric(lo: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| (lo * step.powi(i as i32)).round()).collect()
}

impl Params {
    pub fn of(size: Size) -> Params {
        match size {
            Size::Full => Params {
                scale: 100,
                dim: 64,
                replicas: 3,
                rows_per_shard: 64,
                cache_shards: 16,
                batch: 32,
                horizon_ms: 2_000.0,
                grid: geometric(3_000.0, 1.3, 6),
                nominal: 5,
                recall_queries: 300,
            },
            Size::Tiny => Params {
                scale: 2_000,
                dim: 16,
                replicas: 3,
                rows_per_shard: 16,
                cache_shards: 4,
                batch: 16,
                horizon_ms: 20.0,
                grid: vec![1_000.0, 2_000.0, 4_000.0],
                nominal: 1,
                recall_queries: 40,
            },
        }
    }
}

pub const TOPK_FRACTION: f64 = 0.25;
pub const K: usize = 10;
pub const INTERACTIVE_DEADLINE_NS: u64 = 5_000_000;
pub const BATCH_DEADLINE_NS: u64 = 20_000_000;
/// Share of the offered load that may fail at a rate that meets the SLO.
pub const FAILED_LIMIT: f64 = 0.05;
/// Transient PM read failures per read, and the simulated time each burns.
pub const FAULT_RATE: f64 = 0.002;
pub const FAULT_PENALTY_NS: u64 = 20_000;
/// Timed passes over the grid, at least.
const MIN_REPS: usize = 2;

/// The two tenants at total offered `rate`.
pub fn tenants(nodes: u32, seed: u64, rate: f64) -> Vec<TenantSpec> {
    let interactive = WorkloadConfig::lookups(nodes, Popularity::Zipf { s: 1.0 }, seed)
        .with_topk(TOPK_FRACTION, K);
    let batch = WorkloadConfig::lookups(nodes, Popularity::Uniform, seed ^ 0x5eed)
        .with_topk(TOPK_FRACTION, K);
    vec![
        TenantSpec::poisson("interactive", rate * 0.6, interactive)
            .with_priority(Priority::High)
            .with_deadline_ns(INTERACTIVE_DEADLINE_NS),
        TenantSpec::poisson("batch", rate * 0.4, batch)
            .with_priority(Priority::Low)
            .with_deadline_ns(BATCH_DEADLINE_NS),
    ]
}

fn serve_config(p: &Params) -> ServeConfig {
    ServeConfig::new(p.cache_shards * p.rows_per_shard as u64 * p.dim as u64 * 4)
        .rows_per_shard(p.rows_per_shard)
        .cold(Placement::node(0, DeviceKind::Pm))
        .batch_size(p.batch)
        .threads(WALL_THREADS)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        })
}

/// DRAM per node: twice the cache, a quarter of the table (PM at 8x holds
/// the table and the cold inverted lists), plus the IVF's DRAM residency.
fn dram_bytes(p: &Params, cfg: &ServeConfig, nodes: u32) -> u64 {
    let shard_bytes = p.rows_per_shard as u64 * p.dim as u64 * 4;
    let table_bytes = nodes as u64 * p.dim as u64 * 4;
    let ivf = cfg.ivf_params(nodes).map_or(0, |(nlist, _)| {
        nlist as u64 * p.dim as u64 * 4 + cfg.ivf_hot_bytes
    });
    (2 * p.cache_shards * shard_bytes)
        .max(table_bytes.div_ceil(4))
        .max(1 << 16)
        + ivf
}

/// A sampled top-k query and its exact answer.
struct Oracle {
    node: u32,
    answer: Vec<u32>,
}

struct Setup {
    graph: Csr,
    emb: Embedding,
    plane: RequestPlane,
    oracle: Vec<Oracle>,
}

fn build_plane(
    p: &Params,
    seed: u64,
    emb: &Embedding,
    rec: Option<&Recorder>,
) -> Result<RequestPlane, String> {
    let cfg = serve_config(p);
    let dram = dram_bytes(p, &cfg, emb.nodes());
    let plan =
        FaultPlanSpec::new(seed).with_transient(DeviceKind::Pm, FAULT_RATE, FAULT_PENALTY_NS);
    let systems: Vec<MemSystem> = (0..p.replicas)
        .map(|_| {
            install_plan(
                &MemSystem::new(Topology::paper_machine_scaled(dram)),
                plan.clone(),
            )
        })
        .collect();
    let plane_cfg = PlaneConfig::new(p.replicas)
        .seed(seed)
        .horizon(SimDuration::from_secs_f64(p.horizon_ms * 1e-3))
        .batch_size(p.batch);
    let plane = RequestPlane::new(&systems, emb, cfg, plane_cfg)
        .map_err(|e| format!("placing the replicas: {e}"))?;
    Ok(match rec {
        Some(rec) => plane.with_recorder(rec),
        None => plane,
    })
}

fn setup(p: &Params, seed: u64) -> Result<Setup, String> {
    let graph = embed_twin::canonical_twin(p.scale)?;
    let emb = embed_twin::train_table(&graph, p.dim)?;
    let plane = build_plane(p, seed, &emb, None)?;
    // Exact answers for the nominal rate's top-k queries, computed here so
    // no oracle runs inside a timed region.
    let horizon_ns = (p.horizon_ms * 1e6) as u64;
    let timeline = generate_timeline(
        seed,
        &tenants(emb.nodes(), seed, p.grid[p.nominal]),
        horizon_ns,
    );
    let topk: Vec<u32> = timeline
        .iter()
        .filter(|r| matches!(r.request.kind, RequestKind::TopK { .. }))
        .map(|r| r.request.node)
        .collect();
    let step = (topk.len() / p.recall_queries.max(1)).max(1);
    let oracle = topk
        .iter()
        .step_by(step)
        .map(|&node| Oracle {
            node,
            answer: emb
                .top_k(emb.vector(node), K, Metric::Dot)
                .into_iter()
                .map(|(v, _)| v)
                .collect(),
        })
        .collect();
    Ok(Setup {
        graph,
        emb,
        plane,
        oracle,
    })
}

/// One pass over the grid: per-rate reports and walls.
struct Pass {
    wall_s: f64,
    reports: Vec<PlaneReport>,
    walls: Vec<f64>,
}

fn pass(p: &Params, seed: u64, nodes: u32, plane: &mut RequestPlane, checks: &mut Checks) -> Pass {
    let start = Instant::now();
    let mut reports = Vec::with_capacity(p.grid.len());
    let mut walls = Vec::with_capacity(p.grid.len());
    for &rate in &p.grid {
        let t = Instant::now();
        let report = plane.run(&tenants(nodes, seed, rate));
        walls.push(secs(t));
        check_identities(&report, rate, checks);
        reports.push(report);
    }
    Pass {
        wall_s: secs(start),
        reports,
        walls,
    }
}

fn identities_hold(s: &PlaneStats) -> bool {
    s.offered == s.admitted + s.rejected_quota + s.rejected_queue
        && s.admitted == s.completed + s.degraded + s.dropped
}

fn check_identities(r: &PlaneReport, rate: f64, checks: &mut Checks) {
    let ok = identities_hold(&r.stats) && r.per_tenant.iter().all(identities_hold);
    checks.check(ok, || {
        format!("plane accounting identity broken at {rate} req/s")
    });
}

/// Requests that failed at one rate: refused, dropped, degraded or served
/// past their deadline (a degraded request that is also late counts twice).
fn failed_requests(s: &PlaneStats) -> u64 {
    s.rejected_quota + s.rejected_queue + s.dropped + s.degraded + s.slo_miss
}

/// How far a run is from its SLO: the larger of the interactive tenant's
/// deadline misses over the 1 % its p99 allows (refused and dropped
/// requests count as misses) and the failed share over [`FAILED_LIMIT`].
/// The SLO holds at a margin of at most 1.
fn slo_margin(r: &PlaneReport) -> f64 {
    let i = &r.per_tenant[0];
    let misses = i.slo_miss + i.dropped + i.rejected_quota + i.rejected_queue;
    let p99 = misses as f64 / (0.01 * i.offered.max(1) as f64);
    let failed = failed_requests(&r.stats) as f64 / (FAILED_LIMIT * r.stats.offered.max(1) as f64);
    p99.max(failed)
}

/// The highest rate meeting the SLO: the highest grid rate whose margin is
/// at most 1, refined toward the next grid rate by linear interpolation of
/// the margin (so the figure does not jump a whole grid step when a seed
/// moves the crossing slightly).
fn slo_rate(grid: &[f64], reports: &[PlaneReport]) -> f64 {
    let margins: Vec<f64> = reports.iter().map(slo_margin).collect();
    let Some(i) = margins.iter().rposition(|&m| m <= 1.0) else {
        return 0.0;
    };
    match margins.get(i + 1) {
        Some(&next) => grid[i] + (grid[i + 1] - grid[i]) * (1.0 - margins[i]) / (next - margins[i]),
        None => grid[i],
    }
}

fn sum_stats(servers: &[EmbedServer]) -> ServeStats {
    let mut t = ServeStats::default();
    for s in servers.iter().map(|s| s.stats()) {
        t.hits += s.hits;
        t.misses += s.misses;
        t.fetches += s.fetches;
        t.evictions += s.evictions;
        t.admission_rejects += s.admission_rejects;
        t.cold_read_bytes += s.cold_read_bytes;
        t.faults_injected += s.faults_injected;
        t.faults_retried += s.faults_retried;
        t.hedges_won += s.hedges_won;
        t.degraded += s.degraded;
        t.ivf_queries += s.ivf_queries;
        t.ivf_probes += s.ivf_probes;
        t.ivf_cold_bytes += s.ivf_cold_bytes;
    }
    t
}

fn sum_traffic(servers: &[EmbedServer]) -> AccessSummary {
    let mut t = servers[0].traffic();
    t.rows.clear();
    for s in &servers[1..] {
        let x = s.traffic();
        t.total_bytes += x.total_bytes;
        t.total_accesses += x.total_accesses;
        t.remote_bytes += x.remote_bytes;
        t.random_bytes += x.random_bytes;
        t.pm_bytes += x.pm_bytes;
        t.dram_bytes += x.dram_bytes;
        t.ssd_bytes += x.ssd_bytes;
        t.read_bytes += x.read_bytes;
        t.write_bytes += x.write_bytes;
        t.cpu_ops += x.cpu_ops;
    }
    t
}

/// Fault and byte-ledger identities of every replica.
fn check_replicas(servers: &[EmbedServer], checks: &mut Checks) {
    for (r, srv) in servers.iter().enumerate() {
        let s = srv.stats();
        checks.check(
            s.faults_injected == s.faults_retried + s.hedges_won + s.degraded,
            || format!("replica {r}: fault.injected != retried + hedge.won + degraded"),
        );
        let t = srv.traffic();
        checks.check(
            t.pm_bytes == s.cold_read_bytes
                && t.dram_bytes == s.dram_read_bytes + s.dram_write_bytes,
            || format!("replica {r}: serve byte ledger != AccessSummary"),
        );
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = Params::of(opts.size);
    let threads = WALL_THREADS;
    let mut checks = Checks::default();

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(&p, opts.seed)?;
        setups.push(secs(t));
        built = Some(s);
    }
    let mut s = built.expect("SETUP_REPS > 0");
    let nodes = s.emb.nodes();

    // Pass 0 warms the replicas' caches and is the reference for every
    // simulated metric; later passes are timed.
    let sim_before: f64 = s
        .plane
        .servers()
        .iter()
        .map(|x| x.sim_now().as_secs_f64())
        .sum();
    let first = pass(&p, opts.seed, nodes, &mut s.plane, &mut checks);
    let sim_s: f64 = s
        .plane
        .servers()
        .iter()
        .map(|x| x.sim_now().as_secs_f64())
        .sum::<f64>()
        - sim_before;
    let first_stats = sum_stats(s.plane.servers());
    let first_traffic = sum_traffic(s.plane.servers());

    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_REPS || secs(start) < opts.seconds {
        passes.push(pass(&p, opts.seed, nodes, &mut s.plane, &mut checks));
    }
    check_replicas(s.plane.servers(), &mut checks);

    // Recall: a fault-free server with the replicas' index answers the
    // sampled queries; the oracle was computed during setup.
    let mut probe = EmbedServer::new(
        &MemSystem::new(Topology::paper_machine_scaled(dram_bytes(
            &p,
            &serve_config(&p),
            nodes,
        ))),
        &s.emb,
        serve_config(&p),
    )
    .map_err(|e| format!("recall server: {e}"))?;
    let digest = probe.ivf().map(|i| i.build_digest());
    checks.check(
        digest.is_some()
            && s.plane
                .servers()
                .iter()
                .all(|r| r.ivf().map(|i| i.build_digest()) == digest),
        || "replica IVF indexes differ from a fresh build".into(),
    );
    let hits: usize = s
        .oracle
        .iter()
        .map(|o| {
            probe
                .top_k(s.emb.vector(o.node), K)
                .iter()
                .filter(|(v, _)| o.answer.contains(v))
                .count()
        })
        .sum();
    let recall = hits as f64 / (s.oracle.len() * K).max(1) as f64;

    let nominal = p.nominal;
    let offered: u64 = passes
        .iter()
        .flat_map(|x| x.reports.iter().map(|r| r.stats.offered))
        .sum();

    let ivf = s.plane.servers()[0].ivf().map(|i| (i.nlist(), i.nprobe()));
    let host = HostInfo {
        nproc: nproc(),
        os_threads: vec![
            ("pool", threads),
            ("serve.threads", threads),
            ("plane.lanes", p.replicas.min(threads)),
        ],
        sim_threads: SIM_THREADS,
        notes: vec![
            format!(
                "table {}x{}; {} replicas, IVF (nlist, nprobe) = {:?}; grid {:.0}..{:.0} req/s x {} rates, {} ms horizon; {} timed passes",
                nodes,
                p.dim,
                p.replicas,
                ivf,
                p.grid[0],
                p.grid[p.grid.len() - 1],
                p.grid.len(),
                p.horizon_ms,
                passes.len()
            ),
            "open loop in simulated time: arrivals are scheduled on the simulated clock, so generator lateness is zero by construction".into(),
        ],
    };

    let mut values = BTreeMap::new();
    if opts.trace {
        values = layers::zeroed();
        let nominal_report = &first.reports[nominal];
        let n = &nominal_report.stats;
        values.insert(
            "plane.queue_wait_p99_us",
            nominal_report.queue_wait_percentile_ns(0.99) as f64 / 1e3,
        );
        values.insert(
            "plane.rejected",
            (n.rejected_quota + n.rejected_queue) as f64,
        );
        values.insert("plane.dropped", n.dropped as f64);
        values.insert("plane.degraded", n.degraded as f64);
        values.insert("plane.slo_miss", n.slo_miss as f64);
        values.insert("plane.hedged_routes", n.hedged_routes as f64);
        let st = &first_stats;
        values.insert("faults.injected", st.faults_injected as f64);
        values.insert("faults.retried", st.faults_retried as f64);
        values.insert("faults.hedge_won", st.hedges_won as f64);
        values.insert("faults.degraded", st.degraded as f64);
        values.insert("serve.hit_rate", st.hit_rate());
        values.insert("serve.fetches", st.fetches as f64);
        values.insert("serve.evictions", st.evictions as f64);
        values.insert("serve.admission_rejects", st.admission_rejects as f64);
        values.insert("serve.cold_bytes", st.cold_read_bytes as f64);
        values.insert(
            "ivf.probes_per_query",
            st.ivf_probes as f64 / st.ivf_queries.max(1) as f64,
        );
        values.insert("ivf.cold_bytes", st.ivf_cold_bytes as f64);
        layers::record_hetmem(&mut values, &first_traffic);

        // IVF build cost: an IVF server's construction minus an exact one's
        // on the same table.
        let cfg = serve_config(&p);
        let dram = dram_bytes(&p, &cfg, nodes);
        let new_s = |cfg: ServeConfig| -> Result<f64, String> {
            let sys = MemSystem::new(Topology::paper_machine_scaled(dram));
            let t = Instant::now();
            EmbedServer::new(&sys, &s.emb, cfg).map_err(|e| e.to_string())?;
            Ok(secs(t))
        };
        let ivf_new = median(&[new_s(cfg)?, new_s(cfg)?, new_s(cfg)?]);
        let exact = cfg.index(IndexMode::Exact);
        let exact_new = median(&[new_s(exact)?, new_s(exact)?, new_s(exact)?]);
        values.insert("ivf.build_s", (ivf_new - exact_new).max(0.0));
        values.insert("serve.new_s", exact_new);

        // Per-rate run walls come from the untraced passes.
        let nominal_walls: Vec<f64> = passes.iter().map(|x| x.walls[nominal]).collect();
        values.insert("plane.run_s", median(&nominal_walls));
        eprintln!("plane.run_s per rate (median of {} passes):", passes.len());
        for (i, rate) in p.grid.iter().enumerate() {
            let w: Vec<f64> = passes.iter().map(|x| x.walls[i]).collect();
            eprintln!("  {rate:>8.0} req/s  {:.4} s", median(&w));
        }

        // The traced unit is one run at the nominal rate on a plane of its
        // own (a recorder attaches at construction): a traced run costs
        // several untraced ones, and a whole traced pass would too.
        let rec = Recorder::enabled();
        let prof = PoolProfiler::enabled();
        let mut traced_plane = build_plane(&p, opts.seed, &s.emb, Some(&rec))?;
        let traced_wall = {
            let _guard = omega::par::install(&prof);
            let t = Instant::now();
            let report = bench_span(&rec, "bench.plane.run", || {
                traced_plane.run(&tenants(nodes, opts.seed, p.grid[nominal]))
            });
            check_identities(&report, p.grid[nominal], &mut checks);
            secs(t)
        };
        layers::kernel_probes(
            &mut values,
            &s.emb,
            &s.graph,
            embed_twin::tsvd_width(p.dim),
            threads,
        )?;
        layers::record_pool(&mut values, &prof, 1);
        values.insert("obs.trace_overhead", traced_wall / median(&nominal_walls));
        if let Some(path) = layers::write_trace(opts, "plane_ivf", &rec, &prof)? {
            eprintln!("wrote spans to {}", path.display());
        }
        eprint!("{}", layers::layer_table("plane_ivf", &values));
    } else {
        let slo_qps = slo_rate(&p.grid, &first.reports);
        let n = &first.reports[nominal];
        let run_walls: Vec<f64> = passes.iter().flat_map(|x| x.walls.clone()).collect();
        values.insert("setup_s", median(&setups));
        values.insert(
            "wall_s",
            median(&passes.iter().map(|x| x.wall_s).collect::<Vec<_>>()),
        );
        values.insert("p50_ms", median(&run_walls) * 1e3);
        values.insert("p99_ms", resolvable_tail(&run_walls).0 * 1e3);
        values.insert("peak_rss_mb", peak_rss_mib()?);
        values.insert("sim_s", sim_s);
        values.insert("sim_p99_us", n.latency_percentile_ns(0.99) as f64 / 1e3);
        values.insert("slo_qps", slo_qps);
        values.insert(
            "goodput_qps",
            first.reports[first.reports.len() - 1].goodput_qps(),
        );
        values.insert(
            "failed_ratio",
            (failed_requests(&n.stats) + checks.failed_count()) as f64
                / (n.stats.offered + checks.run) as f64,
        );
        values.insert(
            "auc",
            link_prediction_auc(&s.emb, &s.graph, AUC_SAMPLES, opts.seed),
        );
        values.insert("recall", recall);
        let per_rate: Vec<String> = p
            .grid
            .iter()
            .zip(&first.reports)
            .map(|(rate, r)| {
                format!(
                    "{rate:.0}: margin {:.2} p99 {:.1}ms",
                    slo_margin(r),
                    r.latency_percentile_ns(0.99) as f64 / 1e6
                )
            })
            .collect();
        let walls: Vec<f64> = passes.iter().map(|x| x.wall_s).collect();
        eprintln!("timed pass walls (s): {}", crate::stats::fmt_walls(&walls));
        eprintln!(
            "SLO margin per rate (holds at <= 1): {}",
            per_rate.join(", ")
        );
    }
    Ok(Outcome {
        values,
        attempted: offered,
        checks,
        host,
    })
}
