//! The serving engine: batched point and top-k queries against a sharded
//! cold store with a DRAM hot cache, every byte charged to the hetmem cost
//! model and every phase visible as an `omega-obs` span.
//!
//! ## Cost accounting
//!
//! * **Fetch** (cache miss): the whole shard streams out of the cold tier
//!   (`Seq` read of the shard's bytes) and stages into DRAM (`Seq` write) —
//!   charged whether or not the cache admits the shard for retention.
//! * **Serve** (every request): one random DRAM read of the requested row
//!   plus `d` CPU ops for result extraction.
//! * **Top-k scan**: cached shards stream from DRAM, uncached shards stream
//!   from the cold tier directly (no admission, no recency bump), with
//!   `2·d` CPU ops per scored candidate.
//!
//! The server keeps its own byte ledger (`cold_read_bytes`,
//! `dram_read_bytes`, `dram_write_bytes`) alongside the merged
//! [`ClassCounters`]; integration tests assert the two agree exactly.
//!
//! ## Parallelism
//!
//! Per-shard batch work — shard fetches, grouped point lookups, the
//! shard-group legs of a top-k scan — runs on the workspace-shared
//! persistent worker pool ([`omega_par`], re-exported as
//! [`crate::pool`]) sized by [`ServeConfig::threads`]. Worker tasks only
//! *compute*: each charges its own [`ThreadMem`] context (pinned to a
//! deterministic fault stream derived from *what* it processes, never from
//! which thread ran it) and returns an outcome struct. The caller then
//! merges outcomes in a fixed order — ascending shard id for fetches and
//! scans, arrival order for lookups — applying counters, stats, simulated
//! time and spans exactly as the sequential loop would. Thread count is
//! therefore a pure wall-clock knob: simulated clocks, metrics and results
//! are byte-identical at `threads = 1` and `threads = 64`. Each fan-out is
//! announced by a zero-sim-duration `serve.shard.parallel` span carrying
//! `phase` / `tasks` / `threads` args.

use crate::cache::{HotCache, InsertOutcome};
use crate::ivf::{IndexMode, IvfIndex};
use crate::pool;
use crate::store::ShardedStore;
use crate::workload::{RequestKind, RequestStream};
use omega_embed::{Embedding, Metric, TopK};
use omega_hetmem::{
    AccessOp, AccessPattern, AccessSummary, ClassCounters, DeviceKind, MemSystem, NodeId,
    Placement, SimDuration, ThreadMem,
};
use omega_obs::{Recorder, Track};
use std::time::Instant;

/// Configuration of an [`EmbedServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Rows per cold shard (the fetch/cache granule).
    pub rows_per_shard: usize,
    /// Cold-tier placement of the sharded store.
    pub cold: Placement,
    /// NUMA node serving requests (hot cache lives in this node's DRAM).
    pub hot_node: NodeId,
    /// DRAM budget of the hot cache, in bytes.
    pub cache_bytes: u64,
    /// Requests coalesced per batch.
    pub batch_size: usize,
    /// Concurrent threads assumed by the bandwidth model.
    pub model_threads: u32,
    /// Frequency-based admission control (TinyLFU-style scan resistance).
    pub admission: bool,
    /// Similarity metric of top-k queries.
    pub metric: Metric,
    /// Bounded retries against the cold tier after an injected transient
    /// failure, before falling back to the degraded replica path.
    pub max_retries: u32,
    /// Simulated backoff before the first retry; doubles per attempt.
    pub retry_backoff_ns: u64,
    /// Worker threads for per-shard batch work (fetches, point lookups,
    /// top-k shard scans). Purely a wall-clock knob: simulated clocks,
    /// metrics and results are byte-identical at every value.
    pub threads: usize,
    /// How top-k queries are answered: exact brute-force scan (the
    /// oracle), or cluster-then-probe through an [`IvfIndex`].
    pub index: IndexMode,
    /// DRAM budget for hot IVF inverted lists (largest lists first);
    /// centroids are always DRAM-resident and do not count against it.
    pub ivf_hot_bytes: u64,
}

impl ServeConfig {
    /// Defaults: 64-row shards cold on node-0 PM, hot cache in node-0 DRAM
    /// with the given byte budget, 64-request batches, admission on.
    pub fn new(cache_bytes: u64) -> ServeConfig {
        ServeConfig {
            rows_per_shard: 64,
            cold: Placement::node(0, DeviceKind::Pm),
            hot_node: 0,
            cache_bytes,
            batch_size: 64,
            model_threads: 1,
            admission: true,
            metric: Metric::Dot,
            max_retries: 3,
            retry_backoff_ns: 2_000,
            threads: 1,
            index: IndexMode::Exact,
            ivf_hot_bytes: 64 << 10,
        }
    }

    pub fn rows_per_shard(mut self, rows: usize) -> Self {
        self.rows_per_shard = rows;
        self
    }

    pub fn cold(mut self, placement: Placement) -> Self {
        self.cold = placement;
        self
    }

    pub fn batch_size(mut self, size: usize) -> Self {
        assert!(size > 0, "batch size must be positive");
        self.batch_size = size;
        self
    }

    pub fn admission(mut self, on: bool) -> Self {
        self.admission = on;
        self
    }

    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    pub fn retry_backoff_ns(mut self, ns: u64) -> Self {
        self.retry_backoff_ns = ns;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn index(mut self, index: IndexMode) -> Self {
        self.index = index;
        self
    }

    pub fn ivf_hot_bytes(mut self, bytes: u64) -> Self {
        self.ivf_hot_bytes = bytes;
        self
    }

    /// The resolved `(nlist, nprobe)` an IVF server over `nodes` rows will
    /// use (auto knobs filled in), or `None` in exact mode — what the
    /// plane's degrade ladder halves against.
    pub fn ivf_params(&self, nodes: u32) -> Option<(usize, usize)> {
        match self.index.resolved(nodes) {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } => Some((nlist, nprobe)),
        }
    }

    pub(crate) fn hot_placement(&self) -> Placement {
        Placement::node(self.hot_node, DeviceKind::Dram)
    }
}

/// Aggregate statistics of a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub requests: u64,
    pub lookups: u64,
    pub topks: u64,
    pub batches: u64,
    /// Requests whose shard was DRAM-resident when their batch arrived.
    pub hits: u64,
    /// Requests whose shard had to be fetched from the cold tier.
    pub misses: u64,
    /// Distinct shard fetches performed (a batch of misses to one shard
    /// fetches it once).
    pub fetches: u64,
    pub evictions: u64,
    pub admission_rejects: u64,
    /// Bytes streamed out of the cold tier (fetches + uncached scans).
    pub cold_read_bytes: u64,
    /// Bytes read from DRAM (row serves + cached scans + replica reads).
    pub dram_read_bytes: u64,
    /// Bytes staged into DRAM by fetches.
    pub dram_write_bytes: u64,
    /// Injected failures observed on the serving path. Every one resolves
    /// as exactly one of `faults_retried`, `hedges_won` or `degraded`.
    pub faults_injected: u64,
    /// Failures answered by launching another cold-tier attempt.
    pub faults_retried: u64,
    /// Timeouts answered by a hedged read against the DRAM replica tier.
    pub hedges_won: u64,
    /// Failures past the retry budget, served degraded from the replica.
    pub degraded: u64,
    /// Top-k queries answered through the IVF probe path.
    pub ivf_queries: u64,
    /// Inverted lists visited by IVF queries (`nprobe` per query).
    pub ivf_probes: u64,
    /// DRAM bytes streamed scanning the centroid table.
    pub ivf_centroid_bytes: u64,
    /// DRAM bytes streamed from hot inverted lists (plus replica reads of
    /// cold lists after a hedge/degrade).
    pub ivf_dram_bytes: u64,
    /// Cold-tier bytes streamed probing cold inverted lists (failed
    /// attempts included, exactly like shard scans).
    pub ivf_cold_bytes: u64,
}

impl ServeStats {
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// Snapshot of the live signals a replica exposes to the request plane's
/// closed admission loop. Derived purely from simulated state, so the
/// values are identical at every wall-thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSignals {
    /// Cumulative DRAM cache hit rate over Get traffic (0 when untouched).
    pub hit_rate: f64,
    /// Top-k queries answered through the IVF probe path so far.
    pub ivf_queries: u64,
    /// Inverted lists visited by those queries.
    pub ivf_probes: u64,
    /// Configured probe width, when an IVF index is mounted.
    pub nprobe: Option<usize>,
}

/// Result of [`EmbedServer::run`]: stats, latency distributions on both
/// clocks, and the run's memory-traffic summary.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub stats: ServeStats,
    /// Total simulated time of the run.
    pub total_sim: SimDuration,
    /// Total wall time of the run.
    pub total_wall_us: u64,
    /// Per-request simulated latency, nanoseconds, in request order.
    pub sim_latency_ns: Vec<u64>,
    /// Per-request wall latency (its batch's wall time), microseconds.
    pub wall_latency_us: Vec<u64>,
    /// Memory traffic of the whole run.
    pub traffic: AccessSummary,
}

impl ServeReport {
    /// Simulated-latency percentile (q in 0..=1, nearest-rank).
    pub fn sim_percentile_ns(&self, q: f64) -> u64 {
        percentile(&self.sim_latency_ns, q)
    }

    /// Wall-latency percentile (q in 0..=1, nearest-rank).
    pub fn wall_percentile_us(&self, q: f64) -> u64 {
        percentile(&self.wall_latency_us, q)
    }

    /// Simulated throughput, requests per simulated second.
    pub fn throughput_qps(&self) -> f64 {
        let s = self.total_sim.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.stats.requests as f64 / s
        }
    }
}

use omega_obs::percentile_u64 as percentile;

/// Fault-stream tags for worker-task contexts (see
/// [`ThreadMem::set_fault_stream`]): each task draws fault verdicts from a
/// stream derived from *what* it processes, so draws are independent of
/// scheduling and identical at every thread count.
const FETCH_STREAM: u64 = 1 << 20;
const SCAN_STREAM: u64 = 2 << 20;
const LOOKUP_STREAM: u64 = 3 << 20;
const IVF_CENTROID_STREAM: u64 = 4 << 20;
const IVF_PROBE_STREAM: u64 = 5 << 20;

/// Table rows one exact-scan task covers: `max(1, SCAN_TASK_ROWS /
/// rows_per_shard)` whole shards. Large enough that the per-task cost (an
/// outcome, its selector, the counter merges) is small next to the
/// scoring; a shard larger than this is one task on its own.
const SCAN_TASK_ROWS: usize = 1024;

/// Byte/fault ledger deltas a worker task accumulated; applied to the
/// run's [`ServeStats`] at merge time.
#[derive(Debug, Clone, Copy, Default)]
struct PathStats {
    cold_read_bytes: u64,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    faults_injected: u64,
    faults_retried: u64,
    hedges_won: u64,
    degraded: u64,
    ivf_centroid_bytes: u64,
    ivf_dram_bytes: u64,
    ivf_cold_bytes: u64,
}

impl PathStats {
    fn apply(&self, stats: &mut ServeStats) {
        stats.cold_read_bytes += self.cold_read_bytes;
        stats.dram_read_bytes += self.dram_read_bytes;
        stats.dram_write_bytes += self.dram_write_bytes;
        stats.faults_injected += self.faults_injected;
        stats.faults_retried += self.faults_retried;
        stats.hedges_won += self.hedges_won;
        stats.degraded += self.degraded;
        stats.ivf_centroid_bytes += self.ivf_centroid_bytes;
        stats.ivf_dram_bytes += self.ivf_dram_bytes;
        stats.ivf_cold_bytes += self.ivf_cold_bytes;
    }
}

/// A span a fetch task would have emitted: `(name, attempt, duration)`.
/// Replayed onto the recorder in merge order so the span stream is
/// identical at every thread count.
type SpanEvent = (&'static str, Option<u32>, SimDuration);

/// Everything one parallel shard fetch produced.
#[derive(Debug)]
struct FetchOutcome {
    sid: usize,
    rows: Vec<f32>,
    counters: ClassCounters,
    stats: PathStats,
    events: Vec<SpanEvent>,
    total: SimDuration,
}

/// Everything one parallel point lookup produced.
#[derive(Debug)]
struct LookupOutcome {
    row: Vec<f32>,
    counters: ClassCounters,
    dur: SimDuration,
    row_bytes: u64,
}

/// Per-worker scratch, held in the persistent pool's thread-local arena
/// across calls: a recycled [`ThreadMem`] context (reset per task, so
/// fault schedules match the old fresh-context-per-task lifecycle
/// byte-for-byte) and the reusable score buffer for top-k scans. One
/// scratch type for every serve task kind means a worker thread keeps a
/// single warm context for the whole serving run.
#[derive(Debug, Default)]
struct TaskScratch {
    ctx: Option<ThreadMem>,
    scores: Vec<f32>,
}

/// Everything one parallel top-k task produced: a fixed group of shards
/// (exact scan) or of inverted lists (IVF probe).
#[derive(Debug)]
struct ScanOutcome {
    counters: ClassCounters,
    penalty: SimDuration,
    extra: SimDuration,
    sel: TopK,
    stats: PathStats,
}

impl ScanOutcome {
    fn new(k: usize) -> ScanOutcome {
        ScanOutcome {
            counters: ClassCounters::default(),
            penalty: SimDuration::ZERO,
            extra: SimDuration::ZERO,
            sel: TopK::new(k),
            stats: PathStats::default(),
        }
    }
}

/// A tiered embedding server over one simulated machine.
#[derive(Debug)]
pub struct EmbedServer {
    sys: MemSystem,
    store: ShardedStore,
    cache: HotCache,
    /// Cluster-then-probe index when [`ServeConfig::index`] asks for IVF
    /// (and the table is non-degenerate); `None` serves exact scans.
    ivf: Option<IvfIndex>,
    cfg: ServeConfig,
    rec: Recorder,
    track: Track,
    /// Simulated clock of the serving loop — maintained by the server so it
    /// advances even when the recorder is disabled.
    sim_now: SimDuration,
    counters: ClassCounters,
    stats: ServeStats,
}

impl EmbedServer {
    /// Shard `emb` onto the cold tier and stand up an (initially empty)
    /// hot cache. Fails if the cold device cannot hold the table.
    pub fn new(
        sys: &MemSystem,
        emb: &Embedding,
        cfg: ServeConfig,
    ) -> omega_hetmem::Result<EmbedServer> {
        let store = ShardedStore::build(sys, emb, cfg.rows_per_shard, cfg.cold)?;
        let cache = HotCache::new(
            store.num_shards(),
            cfg.cache_bytes,
            cfg.hot_placement(),
            cfg.admission,
        );
        // A degenerate table (no rows, or zero-width rows) has nothing to
        // cluster; the exact scan already handles it, so it stays the
        // fallback.
        let ivf = match cfg.index.resolved(emb.nodes()) {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } if emb.nodes() > 0 && emb.dim() > 0 => {
                Some(IvfIndex::build(sys, emb, &cfg, nlist, nprobe)?)
            }
            IndexMode::Ivf { .. } => None,
        };
        Ok(EmbedServer {
            sys: sys.clone(),
            store,
            cache,
            ivf,
            cfg,
            rec: Recorder::disabled(),
            track: Track::MAIN,
            sim_now: SimDuration::ZERO,
            counters: ClassCounters::default(),
            stats: ServeStats::default(),
        })
    }

    /// Instrument the server: spans `serve.batch` / `serve.fetch` /
    /// `serve.lookup` / `serve.topk` land on `track`.
    pub fn with_recorder(mut self, rec: &Recorder, track: Track) -> Self {
        self.rec = rec.clone();
        self.track = track;
        self
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The IVF index serving top-k queries, when one is configured.
    pub fn ivf(&self) -> Option<&IvfIndex> {
        self.ivf.as_ref()
    }

    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Live serving-tier signals for the request plane's closed admission
    /// loop: cumulative cache hit rate plus IVF probe accounting, so the
    /// plane can price top-k work from what this replica actually did
    /// instead of static priors.
    pub fn signals(&self) -> ServeSignals {
        ServeSignals {
            hit_rate: self.stats.hit_rate(),
            ivf_queries: self.stats.ivf_queries,
            ivf_probes: self.stats.ivf_probes,
            nprobe: self.ivf.as_ref().map(|ivf| ivf.nprobe()),
        }
    }

    /// Total simulated time spent serving so far.
    pub fn sim_now(&self) -> SimDuration {
        self.sim_now
    }

    /// Memory-traffic summary of everything served so far.
    pub fn traffic(&self) -> AccessSummary {
        AccessSummary::from_counters(&self.counters)
    }

    /// A worker-task context, recycled out of the pool worker's scratch
    /// slot: reset [`ThreadMem`] pinned to `stream` and `sim_now`. Streams
    /// derive from *what* the task processes (shard id, request index),
    /// never from which worker ran it, so fault draws are identical at
    /// every thread count — and identical whether the context is fresh or
    /// reused, because a reset context is observationally fresh.
    fn task_ctx_in<'s>(
        &self,
        slot: &'s mut Option<ThreadMem>,
        stream: u64,
        sim_now: SimDuration,
    ) -> &'s mut ThreadMem {
        let ctx = self.sys.recycle_ctx_on(slot, self.cfg.hot_node);
        ctx.set_fault_stream(stream);
        ctx.set_sim_now(sim_now);
        ctx
    }

    /// Convert a task context's charges into simulated time — model cost
    /// plus whatever the active fault plan injected — and fold its counters
    /// into the task's ledger (merged into the run ledger at merge time).
    fn task_settle(&self, ctx: &ThreadMem, counters: &mut ClassCounters) -> SimDuration {
        let dur = self
            .sys
            .model()
            .thread_time(ctx.counters(), self.cfg.model_threads)
            + ctx.injected_penalty();
        counters.merge(ctx.counters());
        dur
    }

    /// Exponential backoff charged before retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::from_nanos(self.cfg.retry_backoff_ns << (attempt - 1).min(16))
    }

    /// Announce a per-shard fan-out on the span stream: a zero-sim-duration
    /// leaf (wall time is still captured) so parallel phases are visible
    /// without perturbing the simulated cursor.
    fn parallel_span(&self, phase: &'static str, tasks: usize) {
        let span = self.rec.begin("serve.shard.parallel", self.track);
        self.rec.arg(&span, "phase", phase);
        self.rec.arg(&span, "tasks", tasks);
        self.rec.arg(&span, "threads", self.cfg.threads.max(1));
        self.rec.end(span, Some(SimDuration::ZERO));
    }

    /// Task half of the replica path: pull `sid`'s rows from the DRAM
    /// replica tier (the serving node keeps a warm replica of the table)
    /// and stage them — the hedge target after a cold-tier timeout and the
    /// degraded path once retries are spent. Values are identical to the
    /// cold tier's, only the traffic differs.
    #[allow(clippy::too_many_arguments)]
    fn replica_task(
        &self,
        slot: &mut Option<ThreadMem>,
        sid: usize,
        stream: u64,
        sim_now: SimDuration,
        counters: &mut ClassCounters,
        stats: &mut PathStats,
    ) -> (Vec<f32>, SimDuration) {
        let bytes = self.store.shard_bytes(sid);
        let ctx = self.task_ctx_in(slot, stream, sim_now);
        ctx.charge_block(
            self.cfg.hot_placement(),
            AccessOp::Read,
            AccessPattern::Seq,
            bytes,
            1,
        );
        ctx.charge_block(
            self.cfg.hot_placement(),
            AccessOp::Write,
            AccessPattern::Seq,
            bytes,
            1,
        );
        stats.dram_read_bytes += bytes;
        stats.dram_write_bytes += bytes;
        let rows = self.store.shard_raw(sid).to_vec();
        let dur = self.task_settle(ctx, counters);
        (rows, dur)
    }

    /// Task half of a shard fetch: stream `sid` from the cold tier and
    /// stage it into DRAM, retrying/hedging/degrading against the installed
    /// fault plan exactly like the sequential path. Pure computation — the
    /// outcome's counters, stats, simulated time and span events are
    /// applied by [`EmbedServer::merge_fetch`] in ascending shard order.
    fn fetch_shard_task(
        &self,
        slot: &mut Option<ThreadMem>,
        sid: usize,
        batch_start: SimDuration,
    ) -> FetchOutcome {
        let bytes = self.store.shard_bytes(sid);
        let stream = FETCH_STREAM + sid as u64;
        let mut counters = ClassCounters::default();
        let mut stats = PathStats::default();
        let mut events: Vec<SpanEvent> = Vec::new();
        let mut elapsed = SimDuration::ZERO;
        let mut attempt: u32 = 0;
        let rows: Vec<f32> = loop {
            // Recycled per attempt: reset + re-keying restarts the fault
            // stream exactly like the fresh-context-per-attempt original.
            let ctx = self.task_ctx_in(slot, stream, batch_start + elapsed);
            match self.store.try_read_shard(sid, ctx) {
                Ok(rows) => {
                    let rows = rows.to_vec();
                    ctx.charge_block(
                        self.cfg.hot_placement(),
                        AccessOp::Write,
                        AccessPattern::Seq,
                        bytes,
                        1,
                    );
                    stats.cold_read_bytes += bytes;
                    stats.dram_write_bytes += bytes;
                    let dur = self.task_settle(ctx, &mut counters);
                    events.push(("serve.fetch", (attempt > 0).then_some(attempt), dur));
                    elapsed += dur;
                    break rows;
                }
                Err(err) => {
                    // The doomed attempt still streamed out of the cold
                    // tier and burned its injected penalty.
                    stats.cold_read_bytes += bytes;
                    stats.faults_injected += 1;
                    let dur = self.task_settle(ctx, &mut counters);
                    events.push(("serve.fetch", (attempt > 0).then_some(attempt), dur));
                    elapsed += dur;
                    if err.is_timeout() {
                        // Don't retry a stalled device: hedge to the replica.
                        stats.hedges_won += 1;
                        let (rows, dur) = self.replica_task(
                            slot,
                            sid,
                            stream,
                            batch_start + elapsed,
                            &mut counters,
                            &mut stats,
                        );
                        events.push(("serve.hedge", None, dur));
                        elapsed += dur;
                        break rows;
                    }
                    if attempt < self.cfg.max_retries {
                        attempt += 1;
                        stats.faults_retried += 1;
                        let wait = self.backoff(attempt);
                        events.push(("serve.retry", Some(attempt), wait));
                        elapsed += wait;
                        continue;
                    }
                    // Retry budget spent: serve degraded from the replica.
                    stats.degraded += 1;
                    let (rows, dur) = self.replica_task(
                        slot,
                        sid,
                        stream,
                        batch_start + elapsed,
                        &mut counters,
                        &mut stats,
                    );
                    events.push(("serve.degraded", None, dur));
                    elapsed += dur;
                    break rows;
                }
            }
        };
        FetchOutcome {
            sid,
            rows,
            counters,
            stats,
            events,
            total: elapsed,
        }
    }

    /// Merge half of a shard fetch: replay the task's span events, fold its
    /// counters and stats into the run ledger, advance the simulated clock,
    /// and offer the staged rows to the cache. Called in ascending shard
    /// order, so eviction/admission decisions match the sequential loop.
    fn merge_fetch(&mut self, out: FetchOutcome) -> SimDuration {
        let FetchOutcome {
            sid,
            rows,
            counters,
            stats,
            events,
            total,
        } = out;
        for (name, attempt, dur) in events {
            let span = self.rec.begin(name, self.track);
            self.rec.arg(&span, "shard", sid);
            if let Some(attempt) = attempt {
                self.rec.arg(&span, "attempt", attempt);
            }
            self.rec.end(span, Some(dur));
        }
        self.counters.merge(&counters);
        stats.apply(&mut self.stats);
        self.sim_now += total;
        self.stats.fetches += 1;
        match self.cache.insert(&self.sys, sid, rows) {
            InsertOutcome::Admitted { evicted } => self.stats.evictions += evicted as u64,
            InsertOutcome::RejectedByFrequency | InsertOutcome::RejectedByCapacity => {
                self.stats.admission_rejects += 1
            }
        }
        total
    }

    /// Task half of a point lookup: gather one row out of DRAM (cache slot
    /// if resident, else the staging copy the fetch phase just made) and
    /// charge the serve. Merged in arrival order by `serve_batch`.
    fn lookup_task(
        &self,
        slot: &mut Option<ThreadMem>,
        node: u32,
        stream: u64,
        sim_now: SimDuration,
    ) -> LookupOutcome {
        let sid = self.store.shard_of(node);
        let off = self.store.row_offset(node);
        let d = self.store.dim();
        let row = match self.cache.slot(sid) {
            Some(slot) => slot.raw()[off..off + d].to_vec(),
            None => self.store.shard_raw(sid)[off..off + d].to_vec(),
        };
        let row_bytes = (d * std::mem::size_of::<f32>()) as u64;
        let ctx = self.task_ctx_in(slot, stream, sim_now);
        ctx.charge_block(
            self.cfg.hot_placement(),
            AccessOp::Read,
            AccessPattern::Rand,
            row_bytes,
            1,
        );
        ctx.add_cpu_ops(d as u64);
        let mut counters = ClassCounters::default();
        let dur = self.task_settle(ctx, &mut counters);
        LookupOutcome {
            row,
            counters,
            dur,
            row_bytes,
        }
    }

    /// One shard's top-k leg: stream the shard (DRAM if cached, else the
    /// cold tier with retries/replica fallback — scans do not pollute the
    /// cache: no admission, no recency bump), score every row through the
    /// shared blocked kernels into the worker's reusable `scores` scratch,
    /// and offer them to `out`'s selector. The shard keeps its own fault
    /// stream and context, so its charges do not depend on which task or
    /// thread scanned it; `out` only sums them.
    fn scan_shard_into(
        &self,
        query: &[f32],
        sid: usize,
        scan_start: SimDuration,
        scratch: &mut TaskScratch,
        out: &mut ScanOutcome,
    ) {
        let bytes = self.store.shard_bytes(sid);
        let ctx = self.task_ctx_in(&mut scratch.ctx, SCAN_STREAM + sid as u64, scan_start);
        let stats = &mut out.stats;
        // Simulated backoff accumulated by in-scan retries (folded into the
        // scan's span so the obs cursor keeps covering every nanosecond).
        let extra = &mut out.extra;
        let rows: &[f32] = if self.cache.contains(sid) {
            ctx.charge_block(
                self.cfg.hot_placement(),
                AccessOp::Read,
                AccessPattern::Seq,
                bytes,
                1,
            );
            stats.dram_read_bytes += bytes;
            match self.cache.slot(sid) {
                Some(slot) => slot.raw(),
                // Defensive (audited unwrap): residency changed between
                // the check and the read — serve the identical bytes
                // from the staging copy instead of panicking mid-query.
                None => self.store.shard_raw(sid),
            }
        } else {
            // Robust cold read: bounded retries on transient failures,
            // replica fallback on timeout or an exhausted budget.
            let mut attempt: u32 = 0;
            loop {
                match self.store.try_read_shard(sid, ctx) {
                    Ok(rows) => {
                        stats.cold_read_bytes += bytes;
                        break rows;
                    }
                    Err(err) => {
                        stats.cold_read_bytes += bytes;
                        stats.faults_injected += 1;
                        if !err.is_timeout() && attempt < self.cfg.max_retries {
                            attempt += 1;
                            stats.faults_retried += 1;
                            *extra += self.backoff(attempt);
                            continue;
                        }
                        if err.is_timeout() {
                            stats.hedges_won += 1;
                        } else {
                            stats.degraded += 1;
                        }
                        // Hedged/degraded: stream the replica from DRAM.
                        ctx.charge_block(
                            self.cfg.hot_placement(),
                            AccessOp::Read,
                            AccessPattern::Seq,
                            bytes,
                            1,
                        );
                        stats.dram_read_bytes += bytes;
                        break self.store.shard_raw(sid);
                    }
                }
            }
        };
        let d = self.store.dim();
        let lo = self.store.shard_rows(sid).start;
        self.cfg
            .metric
            .scores_into(query, rows, d, &mut scratch.scores);
        for (i, &score) in scratch.scores.iter().enumerate() {
            out.sel.push(lo + i as u32, score);
        }
        ctx.add_cpu_ops(2 * (rows.len() as u64));
        out.counters.merge(ctx.counters());
        out.penalty += ctx.injected_penalty();
    }

    /// Brute-force blocked top-k scan, fanned out over fixed groups of
    /// shards ([`SCAN_TASK_ROWS`] rows per task). Cached shards stream from
    /// DRAM; uncached shards stream straight from the cold tier. Both paths score the same f32 rows through the shared
    /// [`TopK`] selector, so the result is bit-identical whichever tier
    /// served it — and, because per-shard counters merge exactly and are
    /// converted to time in **one** `thread_time` call, bit-identical to
    /// the sequential scan at every thread count.
    fn scan_top_k(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> (Vec<(u32, f32)>, SimDuration) {
        // Wall-clock phase attribution only; simulated time is unaffected.
        if self.ivf.is_some() {
            pool::phase_scope("topk", || self.ivf_top_k_inner(query, k, nprobe))
        } else {
            pool::phase_scope("topk", || self.scan_top_k_inner(query, k))
        }
    }

    /// One inverted-list probe: stream the list's rows from wherever the
    /// build placed them — hot lists from DRAM, cold lists from the cold
    /// tier with the same retry/hedge/degrade machinery as a shard scan —
    /// then score every member row and offer them to `out`'s selector. Like
    /// a shard, the list keeps its own fault stream and context. An empty
    /// list (skewed k-means) streams zero bytes and scores nothing, but
    /// still burns its probe slot like any other list.
    fn probe_list_into(
        &self,
        query: &[f32],
        lid: usize,
        scan_start: SimDuration,
        scratch: &mut TaskScratch,
        out: &mut ScanOutcome,
    ) {
        let ivf = self.ivf.as_ref().expect("probe without an IVF index");
        let bytes = ivf.list_bytes(lid);
        let ctx = self.task_ctx_in(&mut scratch.ctx, IVF_PROBE_STREAM + lid as u64, scan_start);
        let stats = &mut out.stats;
        let extra = &mut out.extra;
        let rows: &[f32] = if ivf.list_is_hot(lid) {
            ctx.charge_block(
                self.cfg.hot_placement(),
                AccessOp::Read,
                AccessPattern::Seq,
                bytes,
                1,
            );
            stats.dram_read_bytes += bytes;
            stats.ivf_dram_bytes += bytes;
            ivf.list_raw(lid)
        } else {
            let mut attempt: u32 = 0;
            loop {
                match ivf.try_read_list(lid, ctx) {
                    Ok(rows) => {
                        stats.cold_read_bytes += bytes;
                        stats.ivf_cold_bytes += bytes;
                        break rows;
                    }
                    Err(err) => {
                        stats.cold_read_bytes += bytes;
                        stats.ivf_cold_bytes += bytes;
                        stats.faults_injected += 1;
                        if !err.is_timeout() && attempt < self.cfg.max_retries {
                            attempt += 1;
                            stats.faults_retried += 1;
                            *extra += self.backoff(attempt);
                            continue;
                        }
                        if err.is_timeout() {
                            stats.hedges_won += 1;
                        } else {
                            stats.degraded += 1;
                        }
                        // Hedged/degraded: the DRAM replica of the list.
                        ctx.charge_block(
                            self.cfg.hot_placement(),
                            AccessOp::Read,
                            AccessPattern::Seq,
                            bytes,
                            1,
                        );
                        stats.dram_read_bytes += bytes;
                        stats.ivf_dram_bytes += bytes;
                        break ivf.list_raw(lid);
                    }
                }
            }
        };
        let ids = ivf.list_ids(lid);
        self.cfg
            .metric
            .scores_into(query, rows, self.store.dim(), &mut scratch.scores);
        for (i, &score) in scratch.scores.iter().enumerate() {
            out.sel.push(ids[i], score);
        }
        ctx.add_cpu_ops(2 * (rows.len() as u64));
        out.counters.merge(ctx.counters());
        out.penalty += ctx.injected_penalty();
    }

    /// Cluster-then-probe top-k: one charged DRAM scan of the centroid
    /// table picks the `nprobe` best lists (through the shared [`TopK`]
    /// order, so probed sets nest as `nprobe` grows), then the probe legs
    /// fan out over fixed groups of lists and merge in ascending list id.
    /// All counters — centroid scan and probes — convert to simulated time
    /// in **one** `thread_time` call, so the result and clock are
    /// byte-identical at every thread count; at `nprobe == nlist` every
    /// row is scored exactly once through the same kernels as the exact
    /// scan, making the output bit-identical to the brute-force oracle.
    fn ivf_top_k_inner(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> (Vec<(u32, f32)>, SimDuration) {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let ivf = self.ivf.as_ref().expect("scan without an IVF index");
        let nprobe = nprobe.unwrap_or(ivf.nprobe()).clamp(1, ivf.nlist());
        // Probed lists group like shards: about `SCAN_TASK_ROWS` rows of an
        // average list per task, fixed by the index, not the thread count.
        let group = (SCAN_TASK_ROWS / (ivf.nodes() as usize).div_ceil(ivf.nlist())).max(1);
        let scan_start = self.sim_now;

        // Centroid scan: charged DRAM stream plus scoring ops on its own
        // fault stream. Its counters fold into the same single
        // `thread_time` conversion as the probe legs below.
        let mut merged = ClassCounters::default();
        let mut penalty = SimDuration::ZERO;
        let mut cstats = PathStats::default();
        let mut slot: Option<ThreadMem> = None;
        let lists = {
            let bytes = ivf.centroid_bytes();
            let ctx = self.task_ctx_in(&mut slot, IVF_CENTROID_STREAM, scan_start);
            ctx.charge_block(
                self.cfg.hot_placement(),
                AccessOp::Read,
                AccessPattern::Seq,
                bytes,
                1,
            );
            ctx.add_cpu_ops(2 * (ivf.nlist() * self.store.dim()) as u64);
            cstats.dram_read_bytes += bytes;
            cstats.ivf_centroid_bytes += bytes;
            let mut scores = Vec::with_capacity(ivf.nlist());
            let lists = ivf.select_lists(query, self.cfg.metric, nprobe, &mut scores);
            merged.merge(ctx.counters());
            penalty += ctx.injected_penalty();
            lists
        };
        cstats.apply(&mut self.stats);

        let groups: Vec<&[u32]> = lists.chunks(group).collect();
        self.parallel_span("ivf.probe", groups.len());
        let span = self.rec.begin("serve.topk", self.track);
        self.rec.arg(&span, "k", k);
        self.rec.arg(&span, "index", "ivf");
        self.rec.arg(&span, "nprobe", lists.len());
        let this: &EmbedServer = self;
        let outcomes = pool::run_labeled(
            "serve.ivf.probe",
            this.cfg.threads,
            groups.len(),
            |s: &mut TaskScratch, i| {
                let mut out = ScanOutcome::new(k);
                for &lid in groups[i] {
                    this.probe_list_into(query, lid as usize, scan_start, s, &mut out);
                }
                out
            },
        );
        let mut extra = SimDuration::ZERO;
        let mut sel = TopK::new(k);
        for out in outcomes {
            merged.merge(&out.counters);
            penalty += out.penalty;
            extra += out.extra;
            out.stats.apply(&mut self.stats);
            sel.merge(out.sel);
        }
        let dur = self
            .sys
            .model()
            .thread_time(&merged, self.cfg.model_threads)
            + penalty
            + extra;
        self.counters.merge(&merged);
        self.sim_now += dur;
        self.stats.ivf_queries += 1;
        self.stats.ivf_probes += lists.len() as u64;
        let result = sel.into_sorted_vec();
        self.rec.end(span, Some(dur));
        (result, dur)
    }

    fn scan_top_k_inner(&mut self, query: &[f32], k: usize) -> (Vec<(u32, f32)>, SimDuration) {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let shards = self.store.num_shards();
        // Fixed shard groups, independent of the thread count: every task
        // covers the same shards at any `threads`, and its sums are exact.
        let group = (SCAN_TASK_ROWS / self.store.rows_per_shard()).max(1);
        let tasks = shards.div_ceil(group);
        self.parallel_span("scan", tasks);
        let span = self.rec.begin("serve.topk", self.track);
        self.rec.arg(&span, "k", k);
        let scan_start = self.sim_now;
        let this: &EmbedServer = self;
        let outcomes = pool::run_labeled(
            "serve.scan",
            this.cfg.threads,
            tasks,
            |s: &mut TaskScratch, t| {
                let mut out = ScanOutcome::new(k);
                for sid in t * group..((t + 1) * group).min(shards) {
                    this.scan_shard_into(query, sid, scan_start, s, &mut out);
                }
                out
            },
        );
        let mut merged = ClassCounters::default();
        let mut penalty = SimDuration::ZERO;
        let mut extra = SimDuration::ZERO;
        let mut sel = TopK::new(k);
        for out in outcomes {
            merged.merge(&out.counters);
            penalty += out.penalty;
            extra += out.extra;
            out.stats.apply(&mut self.stats);
            sel.merge(out.sel);
        }
        // One conversion over the *merged* counters: `thread_time` rounds
        // once at the end, so splitting the charges per shard and summing
        // per-shard times would drift from the sequential scan by rounding.
        let dur = self
            .sys
            .model()
            .thread_time(&merged, self.cfg.model_threads)
            + penalty
            + extra;
        self.counters.merge(&merged);
        self.sim_now += dur;
        let result = sel.into_sorted_vec();
        self.rec.end(span, Some(dur));
        (result, dur)
    }

    /// Serve one coalesced batch of requests.
    ///
    /// Phase 1 classifies every request against the cache as it stood when
    /// the batch arrived (hit/miss accounting) and fetches each distinct
    /// missing shard once — fetch tasks fan out on the worker pool, and
    /// their outcomes merge in ascending shard order. Phase 2 resolves
    /// every request's row in parallel (cache state is frozen for the
    /// phase), then answers **in arrival order** — batching coalesces I/O
    /// but never reorders responses. A request's simulated latency is the
    /// full fetch phase plus every serve up to and including its own.
    pub fn serve_batch(&mut self, requests: &[crate::workload::Request]) -> BatchResult {
        let wall_start = Instant::now();
        let batch_span = self.rec.begin("serve.batch", self.track);
        self.rec.arg(&batch_span, "requests", requests.len());
        self.stats.batches += 1;
        self.stats.requests += requests.len() as u64;

        // Phase 1: classify against pre-batch residency, then fetch each
        // distinct missing shard once. The phase scope attributes wall
        // time only; nothing simulated depends on it.
        let fetch_dur = pool::phase_scope("fetch", || {
            let mut missing: Vec<usize> = Vec::new();
            for req in requests {
                assert!(
                    self.store.contains(req.node),
                    "request for node {} out of range ({} nodes)",
                    req.node,
                    self.store.nodes()
                );
                let sid = self.store.shard_of(req.node);
                if self.cache.contains(sid) {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                    if !missing.contains(&sid) {
                        missing.push(sid);
                    }
                }
                self.cache.record_access(sid);
            }
            missing.sort_unstable();
            let mut fetch_dur = SimDuration::ZERO;
            if !missing.is_empty() {
                self.parallel_span("fetch", missing.len());
                let batch_start = self.sim_now;
                let this: &EmbedServer = self;
                let outcomes = pool::run_labeled(
                    "serve.fetch",
                    this.cfg.threads,
                    missing.len(),
                    |s: &mut TaskScratch, i| {
                        this.fetch_shard_task(&mut s.ctx, missing[i], batch_start)
                    },
                );
                for out in outcomes {
                    fetch_dur += self.merge_fetch(out);
                }
            }
            fetch_dur
        });

        // Phase 2: resolve every request's row serve in parallel — cache
        // state is frozen for the phase, so each task sees exactly the
        // residency the sequential loop would — then answer in arrival
        // order. Point lookups accumulate into one `serve.lookup` leaf span
        // per contiguous run; top-k scans get their own spans.
        let (responses, latencies) = pool::phase_scope("lookup", || {
            let lookups = if requests.is_empty() {
                Vec::new()
            } else {
                self.parallel_span("lookup", requests.len());
                let phase_start = self.sim_now;
                let this: &EmbedServer = self;
                pool::run_labeled(
                    "serve.lookup",
                    this.cfg.threads,
                    requests.len(),
                    |s: &mut TaskScratch, i| {
                        this.lookup_task(
                            &mut s.ctx,
                            requests[i].node,
                            LOOKUP_STREAM + i as u64,
                            phase_start,
                        )
                    },
                )
            };
            let mut responses = Vec::with_capacity(requests.len());
            let mut latencies = Vec::with_capacity(requests.len());
            let mut served = SimDuration::ZERO;
            let mut lookup_acc = SimDuration::ZERO;
            let flush_lookups = |rec: &Recorder, track: Track, acc: &mut SimDuration| {
                if *acc > SimDuration::ZERO {
                    let span = rec.begin("serve.lookup", track);
                    rec.end(span, Some(*acc));
                    *acc = SimDuration::ZERO;
                }
            };
            for (req, lk) in requests.iter().zip(lookups) {
                self.counters.merge(&lk.counters);
                self.sim_now += lk.dur;
                self.stats.dram_read_bytes += lk.row_bytes;
                match req.kind {
                    RequestKind::Get => {
                        self.stats.lookups += 1;
                        lookup_acc += lk.dur;
                        served += lk.dur;
                        responses.push(Response::Vector(lk.row));
                    }
                    RequestKind::TopK { k, nprobe } => {
                        // Resolving the query vector is itself a row serve;
                        // fold it into the lookup span before the scan opens.
                        lookup_acc += lk.dur;
                        flush_lookups(&self.rec, self.track, &mut lookup_acc);
                        let (neighbors, scan_dur) = self.scan_top_k(&lk.row, k, nprobe);
                        self.stats.topks += 1;
                        served += lk.dur + scan_dur;
                        responses.push(Response::Neighbors(neighbors));
                    }
                }
                latencies.push((fetch_dur + served).as_nanos());
            }
            flush_lookups(&self.rec, self.track, &mut lookup_acc);
            (responses, latencies)
        });
        self.rec.end(batch_span, None);

        let wall_us = wall_start.elapsed().as_micros() as u64;
        BatchResult {
            responses,
            sim_latency_ns: latencies,
            wall_us,
        }
    }

    /// Batched point lookup: the embedding vectors of `nodes`, in the exact
    /// order requested.
    pub fn get_vectors(&mut self, nodes: &[u32]) -> Vec<Vec<f32>> {
        let requests: Vec<crate::workload::Request> = nodes
            .iter()
            .map(|&node| crate::workload::Request {
                node,
                kind: RequestKind::Get,
            })
            .collect();
        self.serve_batch(&requests)
            .responses
            .into_iter()
            .map(|r| match r {
                Response::Vector(v) => v,
                Response::Neighbors(_) => unreachable!("get batch"),
            })
            .collect()
    }

    /// One top-k query with an explicit query vector (no batching).
    pub fn top_k(&mut self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        self.top_k_nprobe(query, k, None)
    }

    /// [`EmbedServer::top_k`] with an explicit probe count (IVF mode only;
    /// exact servers ignore it). `Some(nlist)` turns the index into the
    /// oracle; smaller values trade recall for scanned bytes.
    pub fn top_k_nprobe(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Vec<(u32, f32)> {
        let span = self.rec.begin("serve.batch", self.track);
        self.rec.arg(&span, "requests", 1usize);
        self.stats.batches += 1;
        self.stats.requests += 1;
        self.stats.topks += 1;
        let (result, _) = self.scan_top_k(query, k, nprobe);
        self.rec.end(span, None);
        result
    }

    /// Closed-loop run: draw `n` requests from `stream`, serve them in
    /// batches of `config.batch_size`, and report latency distributions on
    /// both clocks. Metric counters are published to the recorder with
    /// deterministic (simulated-only) values.
    pub fn run(&mut self, stream: &mut RequestStream, n: usize) -> ServeReport {
        let wall_start = Instant::now();
        let sim_start = self.sim_now;
        let stats_start = self.stats.clone();
        let mut sim_latency_ns = Vec::with_capacity(n);
        let mut wall_latency_us = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let take = left.min(self.cfg.batch_size);
            let requests = stream.take_requests(take);
            let batch = self.serve_batch(&requests);
            sim_latency_ns.extend(batch.sim_latency_ns);
            wall_latency_us.extend(std::iter::repeat_n(batch.wall_us, take));
            left -= take;
        }

        let stats = self.stats.clone();
        self.rec.counter_set("serve.requests", stats.requests);
        self.rec.counter_set("serve.cache.hit", stats.hits);
        self.rec.counter_set("serve.cache.miss", stats.misses);
        self.rec.counter_set("serve.cache.evict", stats.evictions);
        self.rec.counter_set("serve.cache.fetch", stats.fetches);
        self.rec
            .counter_set("serve.cache.admission_reject", stats.admission_rejects);
        self.rec
            .counter_set("serve.cold.bytes", stats.cold_read_bytes);
        self.rec.counter_set(
            "serve.dram.bytes",
            stats.dram_read_bytes + stats.dram_write_bytes,
        );
        // Fault counters are published unconditionally (zeros included) so
        // a zero-rate plan exports byte-identical metrics to no plan, and
        // `fault.injected == fault.retried + fault.hedge.won +
        // serve.degraded` holds by construction.
        self.rec
            .counter_set("fault.injected", stats.faults_injected);
        self.rec.counter_set("fault.retried", stats.faults_retried);
        self.rec.counter_set("fault.hedge.won", stats.hedges_won);
        self.rec.counter_set("serve.degraded", stats.degraded);
        // IVF counters exist only when an index is configured (an exact
        // server has no probe subsystem to report on), and then always —
        // zeros included — so runs differ only where behaviour does.
        if self.ivf.is_some() {
            self.rec.counter_set("serve.ivf.queries", stats.ivf_queries);
            self.rec.counter_set("serve.ivf.probes", stats.ivf_probes);
            self.rec
                .counter_set("serve.ivf.centroid.bytes", stats.ivf_centroid_bytes);
            self.rec
                .counter_set("serve.ivf.list.dram.bytes", stats.ivf_dram_bytes);
            self.rec
                .counter_set("serve.ivf.list.cold.bytes", stats.ivf_cold_bytes);
        }
        self.rec.gauge_set("serve.cache.hit_rate", stats.hit_rate());
        for &ns in &sim_latency_ns {
            self.rec.observe("serve.latency_ns", ns as f64);
        }

        let mut run_stats = stats.clone();
        run_stats.requests -= stats_start.requests;
        run_stats.lookups -= stats_start.lookups;
        run_stats.topks -= stats_start.topks;
        run_stats.batches -= stats_start.batches;
        run_stats.hits -= stats_start.hits;
        run_stats.misses -= stats_start.misses;
        run_stats.fetches -= stats_start.fetches;
        run_stats.evictions -= stats_start.evictions;
        run_stats.admission_rejects -= stats_start.admission_rejects;
        run_stats.cold_read_bytes -= stats_start.cold_read_bytes;
        run_stats.dram_read_bytes -= stats_start.dram_read_bytes;
        run_stats.dram_write_bytes -= stats_start.dram_write_bytes;
        run_stats.faults_injected -= stats_start.faults_injected;
        run_stats.faults_retried -= stats_start.faults_retried;
        run_stats.hedges_won -= stats_start.hedges_won;
        run_stats.degraded -= stats_start.degraded;
        run_stats.ivf_queries -= stats_start.ivf_queries;
        run_stats.ivf_probes -= stats_start.ivf_probes;
        run_stats.ivf_centroid_bytes -= stats_start.ivf_centroid_bytes;
        run_stats.ivf_dram_bytes -= stats_start.ivf_dram_bytes;
        run_stats.ivf_cold_bytes -= stats_start.ivf_cold_bytes;

        ServeReport {
            stats: run_stats,
            total_sim: self.sim_now.saturating_sub(sim_start),
            total_wall_us: wall_start.elapsed().as_micros() as u64,
            sim_latency_ns,
            wall_latency_us,
            traffic: self.traffic(),
        }
    }
}

/// One response of a batch, in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Vector(Vec<f32>),
    Neighbors(Vec<(u32, f32)>),
}

/// Responses and per-request latencies of one batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    pub responses: Vec<Response>,
    /// Per-request simulated latency, in request order.
    pub sim_latency_ns: Vec<u64>,
    /// Wall time of the whole batch (every request in it shares it).
    pub wall_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Popularity, WorkloadConfig};
    use omega_hetmem::Topology;

    fn emb(nodes: u32, d: usize) -> Embedding {
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        Embedding::from_row_major(nodes, d, data)
    }

    fn server(nodes: u32, d: usize, cache_shards: u64) -> EmbedServer {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let cfg = ServeConfig::new(cache_shards * 16 * d as u64 * 4).rows_per_shard(16);
        EmbedServer::new(&sys, &emb(nodes, d), cfg).unwrap()
    }

    #[test]
    fn get_vectors_preserves_order_and_values() {
        let e = emb(100, 8);
        let mut srv = server(100, 8, 2);
        let nodes = [7u32, 93, 7, 0, 55, 93];
        let got = srv.get_vectors(&nodes);
        assert_eq!(got.len(), nodes.len());
        for (&v, row) in nodes.iter().zip(&got) {
            assert_eq!(row.as_slice(), e.vector(v), "node {v}");
        }
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let mut srv = server(64, 4, 4); // whole table fits in cache
        srv.get_vectors(&[1, 2, 3]);
        assert_eq!(srv.stats().misses, 3);
        assert_eq!(srv.stats().fetches, 1);
        srv.get_vectors(&[1, 2, 3]);
        assert_eq!(srv.stats().hits, 3);
        assert_eq!(srv.stats().fetches, 1, "no refetch of a resident shard");
    }

    #[test]
    fn lookup_latency_includes_fetch_and_queueing() {
        let mut srv = server(64, 4, 4);
        let batch = srv.serve_batch(&crate::workload::Request::gets(&[0, 16, 0]));
        // Latencies are cumulative within the batch.
        assert!(batch.sim_latency_ns[0] < batch.sim_latency_ns[1]);
        assert!(batch.sim_latency_ns[1] < batch.sim_latency_ns[2]);
        // First latency already covers both shard fetches.
        assert!(batch.sim_latency_ns[0] > 0);
    }

    #[test]
    fn top_k_matches_embedding_top_k() {
        let e = emb(80, 6);
        let mut srv = server(80, 6, 2);
        let query = e.vector(11).to_vec();
        let got = srv.top_k(&query, 5);
        assert_eq!(got, e.top_k(&query, 5, Metric::Dot));
    }

    #[test]
    fn run_reports_consistent_totals() {
        let mut srv = server(128, 8, 2);
        let mut stream = RequestStream::new(WorkloadConfig::lookups(
            128,
            Popularity::Zipf { s: 1.0 },
            42,
        ));
        let report = srv.run(&mut stream, 500);
        assert_eq!(report.stats.requests, 500);
        assert_eq!(report.stats.hits + report.stats.misses, 500);
        assert_eq!(report.sim_latency_ns.len(), 500);
        assert_eq!(report.wall_latency_us.len(), 500);
        assert!(report.total_sim.as_nanos() > 0);
        assert!(report.sim_percentile_ns(0.99) >= report.sim_percentile_ns(0.50));
        assert!(report.throughput_qps() > 0.0);
        // Byte ledger vs. hetmem accounting (cold tier is PM here).
        assert_eq!(report.traffic.pm_bytes, report.stats.cold_read_bytes);
        assert_eq!(
            report.traffic.dram_bytes,
            report.stats.dram_read_bytes + report.stats.dram_write_bytes
        );
    }

    #[test]
    fn small_cache_evicts_or_rejects() {
        let mut srv = server(256, 8, 1); // 1-shard cache, 16 shards
        let mut stream = RequestStream::new(WorkloadConfig::lookups(256, Popularity::Uniform, 7));
        let report = srv.run(&mut stream, 400);
        assert!(
            report.stats.evictions + report.stats.admission_rejects > 0,
            "a 1-shard cache under uniform load must churn"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
