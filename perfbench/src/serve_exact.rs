//! `serve_exact` — one closed-loop client with one batch in flight against
//! an [`EmbedServer`] answering top-k by exact brute-force scan. The table
//! is a ProNE embedding trained during setup; its cold tier is PM and the
//! DRAM cache holds a small slice of it. 75 % Zipf(1.0) point lookups,
//! 25 % top-10 queries, stratified over the batches.
//!
//! Loads `linalg::kernels` (the top-k scores) and `serve::cache` / cold
//! fetches; bypasses `spmm`, `plane` and the IVF index.

use crate::embed_twin;
use crate::layers::{self, bench_span};
use crate::stats::{digest_f32, median, nproc, peak_rss_mib, resolvable_tail, secs};
use crate::{
    Checks, HostInfo, Outcome, RunOpts, Size, AUC_SAMPLES, SETUP_REPS, SIM_THREADS, WALL_THREADS,
};
use omega::hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega::obs::{Recorder, Track};
use omega::par::PoolProfiler;
use omega::serve::{
    EmbedServer, Popularity, Request, RequestKind, RequestStream, Response, ServeConfig,
    ServeStats, WorkloadConfig,
};
use omega::Embedding;
use omega_embed::eval::link_prediction_auc;
use omega_embed::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes of one scale of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub scale: u64,
    pub dim: usize,
    pub batches: usize,
    pub batch: usize,
    pub rows_per_shard: usize,
    pub cache_shards: u64,
    /// Every `oracle_every`-th top-k query is checked against the oracle.
    pub oracle_every: usize,
}

impl Params {
    pub fn of(size: Size) -> Params {
        match size {
            // 16.3k x 64 table, 255 shards, a 16-shard (6 %) cache; 1000
            // batches take ~3.5-4.5 s on 2 cores, and 1000 per-batch
            // latencies leave ten beyond the p99.
            Size::Full => Params {
                scale: 100,
                dim: 64,
                batches: 1000,
                batch: 16,
                rows_per_shard: 64,
                cache_shards: 16,
                oracle_every: 8,
            },
            Size::Tiny => Params {
                scale: 2_000,
                dim: 16,
                batches: 40,
                batch: 16,
                rows_per_shard: 16,
                cache_shards: 4,
                oracle_every: 2,
            },
        }
    }
}

pub const TOPK_FRACTION: f64 = 0.25;
pub const K: usize = 10;
/// Simulated latency SLO of one request; a response later than this
/// counts as failed.
pub const DEADLINE_NS: u64 = 10_000_000;
/// Timed request sequences, at least: each batch's latency is the median
/// of its timed passes, so a host hiccup during one pass is outvoted.
const MIN_REPS: usize = 3;

/// A sampled top-k request and its exact answer.
struct Oracle {
    batch: usize,
    slot: usize,
    answer: Vec<(u32, f32)>,
}

/// Everything setup builds.
struct Setup {
    graph: omega::graph::Csr,
    emb: Embedding,
    cfg: ServeConfig,
    dram: u64,
    batches: Vec<Vec<Request>>,
    oracle: Vec<Oracle>,
    new_s: f64,
}

fn setup(p: &Params, seed: u64) -> Result<Setup, String> {
    let graph = embed_twin::canonical_twin(p.scale)?;
    let emb = embed_twin::train_table(&graph, p.dim)?;
    let shard_bytes = p.rows_per_shard as u64 * p.dim as u64 * 4;
    let table_bytes = emb.nodes() as u64 * p.dim as u64 * 4;
    let cfg = ServeConfig::new(p.cache_shards * shard_bytes)
        .rows_per_shard(p.rows_per_shard)
        .cold(Placement::node(0, DeviceKind::Pm))
        .batch_size(p.batch)
        .threads(WALL_THREADS);
    // DRAM holds twice the cache and an eighth of the table; PM (8x DRAM
    // per node) holds the whole table.
    let dram = (2 * p.cache_shards * shard_bytes)
        .max(table_bytes.div_ceil(8))
        .max(1 << 16);
    let t = Instant::now();
    server(&emb, cfg, dram)?;
    let new_s = secs(t);

    let batches = request_batches(p, emb.nodes(), seed);
    let mut oracle = Vec::new();
    let mut topks = 0usize;
    for (b, batch) in batches.iter().enumerate() {
        for (slot, req) in batch.iter().enumerate() {
            if let RequestKind::TopK { k, .. } = req.kind {
                if topks.is_multiple_of(p.oracle_every) {
                    let answer = emb.top_k(emb.vector(req.node), k, Metric::Dot);
                    oracle.push(Oracle {
                        batch: b,
                        slot,
                        answer,
                    });
                }
                topks += 1;
            }
        }
    }
    Ok(Setup {
        graph,
        emb,
        cfg,
        dram,
        batches,
        oracle,
        new_s,
    })
}

/// The request sequence: Zipf(1.0) nodes from a [`RequestStream`], and
/// top-k queries stratified over the batches. The number of top-k queries
/// per batch follows Binomial(batch, TOPK_FRACTION) exactly over the
/// sequence (largest remainder), in a seeded order and at seeded slots.
/// Independent draws make the count of heavy batches, and with it the
/// wall p99, jump by a whole top-k scan from seed to seed; stratified, the
/// tail has the same make-up for every seed.
fn request_batches(p: &Params, nodes: u32, seed: u64) -> Vec<Vec<Request>> {
    let mut stream = RequestStream::new(WorkloadConfig::lookups(
        nodes,
        Popularity::Zipf { s: 1.0 },
        seed,
    ));
    let mut rng = SplitMix(seed ^ 0x7f4a_7c15);
    let mut counts = topk_counts(p.batches, p.batch, TOPK_FRACTION);
    rng.shuffle(&mut counts);
    counts
        .into_iter()
        .map(|topks| {
            let mut batch = stream.take_requests(p.batch);
            let mut slots: Vec<usize> = (0..p.batch).collect();
            rng.shuffle(&mut slots);
            for &slot in &slots[..topks] {
                batch[slot].kind = RequestKind::top_k(K);
            }
            batch
        })
        .collect()
}

/// Top-k counts of `batches` batches of `batch` requests: count `j`
/// appears as often as Binomial(batch, fraction) predicts, rounded by
/// largest remainder so the counts sum to `batches`.
fn topk_counts(batches: usize, batch: usize, fraction: f64) -> Vec<usize> {
    let mut pmf = Vec::with_capacity(batch + 1);
    let mut choose = 1.0f64;
    for j in 0..=batch {
        pmf.push(choose * fraction.powi(j as i32) * (1.0 - fraction).powi((batch - j) as i32));
        choose = choose * (batch - j) as f64 / (j + 1) as f64;
    }
    let expected: Vec<f64> = pmf.iter().map(|q| q * batches as f64).collect();
    let mut per_count: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..=batch).collect();
    by_remainder.sort_by(|&a, &b| {
        (expected[b] - expected[b].floor()).total_cmp(&(expected[a] - expected[a].floor()))
    });
    let short = batches - per_count.iter().sum::<usize>();
    for &j in &by_remainder[..short] {
        per_count[j] += 1;
    }
    per_count
        .iter()
        .enumerate()
        .flat_map(|(j, &n)| std::iter::repeat_n(j, n))
        .collect()
}

/// SplitMix64: the seeded shuffles of [`request_batches`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn server(emb: &Embedding, cfg: ServeConfig, dram: u64) -> Result<EmbedServer, String> {
    let sys = MemSystem::new(Topology::paper_machine_scaled(dram));
    EmbedServer::new(&sys, emb, cfg).map_err(|e| format!("placing the table: {e}"))
}

/// One pass of the request sequence on a fresh server.
struct Sequence {
    wall_s: f64,
    batch_walls: Vec<f64>,
    sim_latency_ns: Vec<u64>,
    responses: Vec<Vec<Response>>,
    stats: ServeStats,
    traffic: omega::hetmem::AccessSummary,
    sim_s: f64,
}

fn sequence(s: &Setup, rec: Option<&Recorder>) -> Result<Sequence, String> {
    let mut srv = server(&s.emb, s.cfg, s.dram)?;
    let disabled = Recorder::disabled();
    let rec = rec.unwrap_or(&disabled);
    if rec.is_enabled() {
        srv = srv.with_recorder(rec, Track::MAIN);
    }
    let mut batch_walls = Vec::with_capacity(s.batches.len());
    let mut sim_latency_ns = Vec::new();
    let mut responses = Vec::with_capacity(s.batches.len());
    let start = Instant::now();
    bench_span(rec, "bench.sequence", || {
        for batch in &s.batches {
            let t = Instant::now();
            let result = bench_span(rec, "bench.serve_batch", || srv.serve_batch(batch));
            batch_walls.push(secs(t));
            sim_latency_ns.extend(result.sim_latency_ns);
            responses.push(result.responses);
        }
    });
    let wall_s = secs(start);
    Ok(Sequence {
        wall_s,
        batch_walls,
        sim_latency_ns,
        responses,
        stats: srv.stats().clone(),
        traffic: srv.traffic(),
        sim_s: srv.sim_now().as_secs_f64(),
    })
}

/// Check a sequence's answers: lookups bit-equal to table rows, sampled
/// top-k equal to the oracle. Returns the oracle hits for recall@k.
fn check_answers(s: &Setup, seq: &Sequence, checks: &mut Checks) -> usize {
    let mut bad_rows = 0usize;
    for (batch, resps) in s.batches.iter().zip(&seq.responses) {
        for (req, resp) in batch.iter().zip(resps) {
            if let (RequestKind::Get, Response::Vector(v)) = (req.kind, resp) {
                if digest_f32(v) != digest_f32(s.emb.vector(req.node)) {
                    bad_rows += 1;
                }
            }
        }
    }
    checks.check(bad_rows == 0, || {
        format!("{bad_rows} point lookups differ from the table rows")
    });
    let mut hits = 0usize;
    let mut wrong = 0usize;
    for o in &s.oracle {
        match &seq.responses[o.batch][o.slot] {
            Response::Neighbors(got) => {
                let same = got.len() == o.answer.len()
                    && got
                        .iter()
                        .zip(&o.answer)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                if !same {
                    wrong += 1;
                }
                hits += got
                    .iter()
                    .filter(|(v, _)| o.answer.iter().any(|(w, _)| w == v))
                    .count();
            }
            Response::Vector(_) => wrong += 1,
        }
    }
    checks.check(wrong == 0, || {
        format!(
            "{wrong} of {} sampled top-k answers differ from Embedding::top_k",
            s.oracle.len()
        )
    });
    hits
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let p = Params::of(opts.size);
    let threads = WALL_THREADS;
    let mut checks = Checks::default();

    let mut setups = Vec::new();
    let mut news = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(&p, opts.seed)?;
        setups.push(secs(t));
        news.push(s.new_s);
        built = Some(s);
    }
    let s = built.expect("SETUP_REPS > 0");

    // Warm-up pass: its simulated outcome is the reference every timed
    // pass must reproduce exactly.
    let reference = sequence(&s, None)?;
    let hits = check_answers(&s, &reference, &mut checks);
    checks.check(
        reference.traffic.pm_bytes == reference.stats.cold_read_bytes
            && reference.traffic.dram_bytes
                == reference.stats.dram_read_bytes + reference.stats.dram_write_bytes,
        || "serve byte ledger != AccessSummary".into(),
    );

    let start = Instant::now();
    let mut seqs = Vec::new();
    while seqs.len() < MIN_REPS || secs(start) < opts.seconds {
        let seq = sequence(&s, None)?;
        check_answers(&s, &seq, &mut checks);
        checks.check(seq.sim_latency_ns == reference.sim_latency_ns, || {
            "a repeated sequence changed its simulated latencies".into()
        });
        seqs.push(seq);
    }
    let walls: Vec<f64> = seqs.iter().map(|q| q.wall_s).collect();
    eprintln!(
        "timed sequence walls (s): {}",
        crate::stats::fmt_walls(&walls)
    );
    // Per-batch latency: the median over the timed passes of that batch.
    let batch_walls: Vec<f64> = (0..p.batches)
        .map(|i| median(&seqs.iter().map(|q| q.batch_walls[i]).collect::<Vec<_>>()))
        .collect();
    let requests = reference.sim_latency_ns.len() as u64;

    let host = HostInfo {
        nproc: nproc(),
        os_threads: vec![("pool", threads), ("serve.threads", threads)],
        sim_threads: SIM_THREADS,
        notes: vec![format!(
            "table {}x{}; {} timed sequences of {} batches x {}; {} batch-latency samples, each the median of its passes",
            s.emb.nodes(),
            s.emb.dim(),
            seqs.len(),
            p.batches,
            p.batch,
            batch_walls.len()
        )],
    };

    let mut values = BTreeMap::new();
    if opts.trace {
        values = layers::zeroed();
        values.insert("serve.new_s", median(&news));
        let rec = Recorder::enabled();
        let prof = PoolProfiler::enabled();
        let mut traced = Vec::new();
        {
            let _guard = omega::par::install(&prof);
            let start = Instant::now();
            while traced.len() < MIN_REPS || secs(start) < opts.seconds {
                let seq = sequence(&s, Some(&rec))?;
                checks.check(seq.sim_latency_ns == reference.sim_latency_ns, || {
                    "tracing changed the simulated latencies".into()
                });
                traced.push(seq.wall_s);
            }
        }
        let st = &reference.stats;
        values.insert("serve.hit_rate", st.hit_rate());
        values.insert("serve.fetches", st.fetches as f64);
        values.insert("serve.evictions", st.evictions as f64);
        values.insert("serve.admission_rejects", st.admission_rejects as f64);
        values.insert("serve.cold_bytes", st.cold_read_bytes as f64);
        layers::record_hetmem(&mut values, &reference.traffic);
        layers::kernel_probes(
            &mut values,
            &s.emb,
            &s.graph,
            embed_twin::tsvd_width(p.dim),
            threads,
        )?;
        layers::record_pool(&mut values, &prof, traced.len());
        values.insert("obs.trace_overhead", median(&traced) / median(&walls));
        if let Some(path) = layers::write_trace(opts, "serve_exact", &rec, &prof)? {
            eprintln!("wrote spans to {}", path.display());
        }
        eprint!("{}", layers::layer_table("serve_exact", &values));
    } else {
        let late = reference
            .sim_latency_ns
            .iter()
            .filter(|&&ns| ns > DEADLINE_NS)
            .count() as u64;
        let degraded = reference.stats.degraded;
        let sim_s = reference.sim_s;
        values.insert("setup_s", median(&setups));
        values.insert("wall_s", median(&walls));
        values.insert("p50_ms", median(&batch_walls) * 1e3);
        values.insert("p99_ms", resolvable_tail(&batch_walls).0 * 1e3);
        values.insert("peak_rss_mb", peak_rss_mib()?);
        values.insert("sim_s", sim_s);
        values.insert(
            "sim_p99_us",
            omega::obs::percentile_u64(&reference.sim_latency_ns, 0.99) as f64 / 1e3,
        );
        // A closed loop offers exactly what the server sustains.
        values.insert("slo_qps", requests as f64 / sim_s);
        values.insert(
            "goodput_qps",
            requests.saturating_sub(late + degraded) as f64 / sim_s,
        );
        values.insert(
            "failed_ratio",
            (late + degraded + checks.failed_count()) as f64 / (requests + checks.run) as f64,
        );
        values.insert(
            "auc",
            link_prediction_auc(&s.emb, &s.graph, AUC_SAMPLES, opts.seed),
        );
        values.insert("recall", hits as f64 / (s.oracle.len() * K).max(1) as f64);
    }
    Ok(Outcome {
        values,
        attempted: requests * seqs.len() as u64,
        checks,
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_counts_follow_the_binomial() {
        let counts = topk_counts(1000, 16, 0.25);
        assert_eq!(counts.len(), 1000);
        let total: usize = counts.iter().sum();
        assert!((total as f64 / 16_000.0 - 0.25).abs() < 1e-3, "{total}");
        let heavy = counts.iter().filter(|&&j| j >= 9).count();
        assert_eq!(heavy, 7, "1000 x P(X >= 9) = 7.5");
    }
}
