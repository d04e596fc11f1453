//! `tenant_service`: a closed loop of two TCP connections against
//! `TcpFront` over loopback. The front answers each connection's frames in
//! order, so a connection is a tenant that waits for its reply before it
//! sends the next job. The job mix resubmits a pool of graphs (cross-tenant
//! cache hits) and sends about one job in eight with a forged labeling or a
//! fresh graph (cache misses). This is the only workload that runs the
//! wire format, the registry, the TCP front, the queue and the shared cache.

use crate::forge;
use crate::harness::{
    host_block, median, metric, ms_since, peak_rss_mb, quantile, summary, Checks, Json, Metric,
    Outcome, SetupLog,
};
use crate::layers::{fault_events, ports, traced_estimate};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use rpls_bits::BitString;
use rpls_core::engine::{MessagePattern, SeedSource};
use rpls_core::rng::mix_seed;
use rpls_core::stats::{self, Estimate, EstimateOpts};
use rpls_core::{CacheStats, Labeling, PrepCache, RoundScratch};
use rpls_graph::generators;
use rpls_service::registry::{self, request_skeleton, SCHEME_NAMES};
use rpls_service::service::{Service, ServiceStats};
use rpls_service::tcp::TcpFront;
use rpls_service::wire::{self, JobReply, JobRequest, JobResponse, WireFaults};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Concurrent TCP connections (tenants) of the closed loop.
pub const CONNECTIONS: usize = 2;
/// Graph sizes of the pool and of fresh graphs.
pub const SIZES: [u32; 5] = [512, 1024, 2048, 4096, 8192];
/// Pooled graph sizes per scheme (rotating through [`SIZES`]).
const SIZES_PER_SCHEME: usize = 3;
/// Trials per job.
pub const TRIALS: u32 = 64;
/// One job in `MISS_EVERY` carries a forged labeling or a fresh graph.
pub const MISS_EVERY: u64 = 8;
/// Nodes a forged labeling forges.
const FLIPS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Completed jobs after which the peak RSS is read.
const RSS_AFTER_JOBS: usize = 256;
/// Socket timeout: a stuck front fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The run-spec axes a job can take. Two of eight are faulted and two use
/// beacon coins; t ranges over {1, 2, 4} and the pattern over per-port,
/// broadcast and two messages per node.
#[derive(Clone, Copy)]
struct Variant {
    rounds: u32,
    pattern: MessagePattern,
    faulted: bool,
    beacon: bool,
}

const VARIANTS: [Variant; 8] = {
    const fn v(rounds: u32, pattern: MessagePattern, faulted: bool, beacon: bool) -> Variant {
        Variant {
            rounds,
            pattern,
            faulted,
            beacon,
        }
    }
    use MessagePattern::{Broadcast, KMessages, PerPort};
    [
        v(1, PerPort, false, false),
        v(1, Broadcast, false, true),
        v(1, KMessages(2), false, false),
        v(2, PerPort, false, false),
        v(2, Broadcast, false, true),
        v(4, KMessages(2), false, false),
        v(1, PerPort, true, false),
        v(4, Broadcast, true, false),
    ]
};

/// One graph of the resubmitted pool.
struct PoolGraph {
    scheme: &'static str,
    node_count: u32,
    edges: Vec<(u32, u32)>,
    param: u64,
    payload: BitString,
    /// The honest prover's labeling, the base of forged jobs.
    honest: Vec<BitString>,
}

/// What a job is, small enough to keep for every job of a run; the request
/// is rebuilt from it deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum JobKind {
    Pooled {
        graph: usize,
        variant: usize,
    },
    Forged {
        graph: usize,
        variant: usize,
        seed: u64,
    },
    Fresh {
        scheme: usize,
        size: usize,
        variant: usize,
        seed: u64,
    },
}

impl JobKind {
    fn class(self) -> &'static str {
        match self {
            Self::Pooled { .. } => "pooled",
            Self::Forged { .. } => "forged",
            Self::Fresh { .. } => "fresh",
        }
    }

    fn variant(self) -> Variant {
        match self {
            Self::Pooled { variant, .. }
            | Self::Forged { variant, .. }
            | Self::Fresh { variant, .. } => VARIANTS[variant],
        }
    }

    /// Whether the job does per-trial work: a forged labeling, a fault
    /// plan or t > 1. An honest clean one-round job on a compiled scheme
    /// is decided statically and counts no port-trials.
    fn per_trial(self) -> bool {
        let v = self.variant();
        matches!(self, Self::Forged { .. }) || v.faulted || v.rounds > 1
    }
}

struct Pool {
    seed: u64,
    graphs: Vec<PoolGraph>,
    graph_ms: f64,
    label_ms: f64,
}

/// A connected sparse graph as a wire edge list.
fn sparse_edges(n: u32, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let g = generators::random_sparse(n as usize, n as usize / 4, rng);
    g.edges()
        .map(|(_, e)| (e.u.index() as u32, e.v.index() as u32))
        .collect()
}

fn scheme_params(scheme: &str, n: u32, rng: &mut StdRng) -> (u64, BitString) {
    match scheme {
        "leader" => (rng.random_range(0..u64::from(n)), BitString::new()),
        "uniformity" => (
            0,
            BitString::from_bools((0..64).map(|_| rng.random_bool(0.5))),
        ),
        _ => (0, BitString::new()),
    }
}

fn build_pool(seed: u64) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph_ms = 0.0;
    let mut label_ms = 0.0;
    let mut graphs = Vec::new();
    for (s, &scheme) in SCHEME_NAMES.iter().enumerate() {
        for k in 0..SIZES_PER_SCHEME {
            let n = SIZES[(s + 2 * k) % SIZES.len()];
            let t0 = Instant::now();
            let edges = sparse_edges(n, &mut rng);
            graph_ms += ms_since(t0);
            let (param, payload) = scheme_params(scheme, n, &mut rng);
            let mut g = PoolGraph {
                scheme,
                node_count: n,
                edges,
                param,
                payload,
                honest: Vec::new(),
            };
            let t1 = Instant::now();
            let job = registry::build(&g.request(None)).expect("pool jobs are well-formed");
            g.honest = (0..n as usize)
                .map(|v| job.labeling.get(rpls_graph::NodeId::new(v)).clone())
                .collect();
            label_ms += ms_since(t1);
            graphs.push(g);
        }
    }
    Pool {
        seed,
        graphs,
        graph_ms,
        label_ms,
    }
}

impl PoolGraph {
    fn request(&self, labeling: Option<Vec<BitString>>) -> JobRequest {
        let mut req = request_skeleton(self.scheme, self.node_count, &self.edges);
        req.param = self.param;
        req.payload = self.payload.clone();
        req.labeling = labeling;
        req
    }
}

/// Applies a variant's run-spec axes; `key` keeps seeds distinct per job.
fn apply_variant(req: &mut JobRequest, variant: usize, key: u64) {
    let v = VARIANTS[variant];
    req.trials = TRIALS;
    req.rounds = v.rounds;
    req.pattern = v.pattern;
    req.seed_source = if v.beacon {
        SeedSource::Beacon {
            round_id: key,
            value: mix_seed(key, 1, 0),
        }
    } else {
        SeedSource::Trial(mix_seed(key, 2, 0))
    };
    req.faults = v.faulted.then(|| WireFaults {
        drop_rate: 2e-5,
        corrupt_rate: 1e-5,
        duplicate_rate: 1e-5,
        crash_rate: 1e-5,
        retry_budget: 1,
        fault_seed: mix_seed(key, 3, 0),
    });
}

/// One tenant's job stream. The mix is stratified rather than drawn
/// independently, so every run sends the same mix: job `i` is a miss when
/// `i % MISS_EVERY == MISS_EVERY - 1`, misses alternate between a forged
/// labeling and a fresh graph, fresh graphs cycle through every scheme and
/// size, and the other jobs walk this tenant's seeded permutation of every
/// pooled (graph, variant) pair.
struct JobStream {
    order: Vec<JobKind>,
    next: u64,
    rng: StdRng,
}

impl JobStream {
    fn new(pool: &Pool, conn: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(mix_seed(pool.seed, conn as u64, 0x7E4A));
        let mut order: Vec<JobKind> = pool.pooled_kinds().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        Self {
            order,
            next: 0,
            rng,
        }
    }

    fn next_job(&mut self, pool: &Pool) -> JobKind {
        let i = self.next;
        self.next += 1;
        if i % MISS_EVERY != MISS_EVERY - 1 {
            let pooled = i - i / MISS_EVERY;
            return self.order[pooled as usize % self.order.len()];
        }
        let miss = (i / MISS_EVERY) as usize;
        let variant = self.rng.random_range(0..VARIANTS.len());
        let seed = self.rng.next_u64();
        if miss.is_multiple_of(2) {
            JobKind::Forged {
                graph: self.rng.random_range(0..pool.graphs.len()),
                variant,
                seed,
            }
        } else {
            JobKind::Fresh {
                scheme: (miss / 2) % SCHEME_NAMES.len(),
                size: (miss / 2) % SIZES.len(),
                variant,
                seed,
            }
        }
    }
}

impl Pool {
    /// The request a job denotes. Pooled jobs with the same graph and
    /// variant are identical requests, whichever tenant sends them.
    fn request(&self, kind: JobKind, tenant: &str) -> JobRequest {
        let mut req = match kind {
            JobKind::Pooled { graph, variant } => {
                let mut req = self.graphs[graph].request(None);
                apply_variant(
                    &mut req,
                    variant,
                    mix_seed(self.seed, graph as u64, variant as u64),
                );
                req
            }
            JobKind::Forged {
                graph,
                variant,
                seed,
            } => {
                let g = &self.graphs[graph];
                let mut labeling = Labeling::new(g.honest.clone());
                forge::forge_copies(&mut labeling, FLIPS, &mut StdRng::seed_from_u64(seed));
                let labels = labeling.iter().map(|(_, l)| l.clone()).collect();
                let mut req = g.request(Some(labels));
                apply_variant(&mut req, variant, seed);
                req
            }
            JobKind::Fresh {
                scheme,
                size,
                variant,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = SIZES[size];
                let name = SCHEME_NAMES[scheme];
                let edges = sparse_edges(n, &mut rng);
                let (param, payload) = scheme_params(name, n, &mut rng);
                let mut req = request_skeleton(name, n, &edges);
                req.param = param;
                req.payload = payload;
                apply_variant(&mut req, variant, seed);
                req
            }
        };
        req.tenant = tenant.to_string();
        req
    }

    fn pooled_kinds(&self) -> impl Iterator<Item = JobKind> + '_ {
        (0..self.graphs.len()).flat_map(|graph| {
            (0..VARIANTS.len()).map(move |variant| JobKind::Pooled { graph, variant })
        })
    }
}

/// The direct engine estimate of a request, with a private fresh cache.
fn direct(req: &JobRequest) -> Option<Estimate> {
    let job = registry::build(req).ok()?;
    Some(stats::estimate(
        &*job.scheme,
        &job.config,
        &job.labeling,
        &req.run_spec(),
        &EstimateOpts::new(req.trials as usize),
    ))
}

/// Whether one service reply reproduces the direct estimate bit for bit.
fn reply_matches(reply: &JobReply, direct: &Estimate) -> bool {
    let JobReply::Ok(resp) = reply else {
        return false;
    };
    response_estimate(resp) == *direct
}

fn response_estimate(resp: &JobResponse) -> Estimate {
    let mut e = Estimate {
        trials: resp.trials as usize,
        accepts: resp.accepts as usize,
        degraded_trials: resp.degraded_trials as usize,
        missing_messages: resp.missing_messages as usize,
        ..Estimate::default()
    };
    e.counts.dropped = resp.dropped as usize;
    e.counts.corrupted = resp.corrupted as usize;
    e.counts.duplicated = resp.duplicated as usize;
    e.counts.crashed_nodes = resp.crashed_nodes as usize;
    e.counts.retries = resp.retries as usize;
    e
}

/// A running service behind its TCP front, warmed with every pooled job.
/// Dropping it stops the front, which drains its connections and releases
/// the service, whose own drop stops its worker.
struct Front {
    service: Arc<Service>,
    front: Option<TcpFront>,
    warm: Vec<(JobKind, Result<JobReply, String>)>,
}

fn spawn_front(pool: &Pool) -> Front {
    let service = Arc::new(Service::spawn());
    let front = TcpFront::spawn(Arc::clone(&service)).expect("bind a loopback port");
    let warm = pool
        .pooled_kinds()
        .map(|kind| (kind, Ok(service.submit(pool.request(kind, "warm")))))
        .collect();
    Front {
        service,
        front: Some(front),
        warm,
    }
}

impl Front {
    fn addr(&self) -> SocketAddr {
        self.front.as_ref().expect("front is running").addr()
    }

    /// Stops the front and returns the service's ledger.
    fn stop(&mut self) -> ServiceStats {
        if let Some(front) = self.front.take() {
            front.stop();
        }
        self.service.stats()
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One job of the closed loop, as its tenant saw it.
struct Record {
    kind: JobKind,
    request_bytes: usize,
    /// When the request frame was fully written, since the phase began.
    sent_ms: f64,
    latency_ms: f64,
    reply: Result<JobReply, String>,
}

/// Completed jobs of the closed loop, and the peak RSS once
/// [`RSS_AFTER_JOBS`] of them have completed. The service's cache grows
/// with every miss it serves, so memory is compared after a fixed amount
/// of work, not after a fixed time in which a faster build serves more.
#[derive(Default)]
struct Progress {
    done: AtomicUsize,
    rss_mb: OnceLock<f64>,
}

impl Progress {
    fn job_done(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_JOBS {
            let _ = self.rss_mb.set(peak_rss_mb());
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.get().copied().unwrap_or_else(peak_rss_mb)
    }
}

/// One tenant: sends its seeded job stream over one connection, waiting
/// for each reply, until `deadline`.
fn tenant(
    pool: &Pool,
    addr: SocketAddr,
    conn: usize,
    start: Instant,
    deadline: Instant,
    progress: &Progress,
) -> Vec<Record> {
    let mut records = Vec::new();
    let mut jobs = JobStream::new(pool, conn);
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            records.push(Record {
                kind: jobs.next_job(pool),
                request_bytes: 0,
                sent_ms: 0.0,
                latency_ms: 0.0,
                reply: Err(format!("tenant {conn} cannot connect: {e}")),
            });
            return records;
        }
    };
    let name = format!("tenant-{conn}");
    let configured = stream.set_nodelay(true).is_ok()
        && stream.set_read_timeout(Some(IO_TIMEOUT)).is_ok()
        && stream.set_write_timeout(Some(IO_TIMEOUT)).is_ok();
    assert!(configured, "configure a loopback socket");
    while Instant::now() < deadline {
        let kind = jobs.next_job(pool);
        let req = pool.request(kind, &name);
        let t0 = Instant::now();
        let bytes = req.encode();
        let exchange = wire::write_frame_checked(&mut stream, &bytes).and_then(|()| {
            let sent = Instant::now();
            let (payload, _) = wire::read_frame_tagged(&mut stream)?;
            Ok((sent, payload))
        });
        let (sent_ms, reply) = match exchange {
            Ok((sent, payload)) => (
                (sent - start).as_secs_f64() * 1e3,
                JobReply::decode(&payload).map_err(|e| e.to_string()),
            ),
            Err(e) => (ms_since(start), Err(e.to_string())),
        };
        let failed = reply.is_err();
        records.push(Record {
            kind,
            request_bytes: bytes.len(),
            sent_ms,
            latency_ms: ms_since(t0),
            reply,
        });
        progress.job_done();
        if failed {
            break;
        }
    }
    records
}

/// Runs the closed loop for `seconds` and returns every record, in the
/// order the service queued them (by when their frames landed), with the
/// phase's wall seconds and the peak RSS after [`RSS_AFTER_JOBS`] jobs.
fn closed_loop(pool: &Pool, front: &Front, seconds: f64) -> (Vec<Record>, f64, f64) {
    let addr = front.addr();
    let progress = Progress::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let progress = &progress;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| scope.spawn(move || tenant(pool, addr, conn, start, deadline, progress)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    records.sort_by(|a, b| a.sent_ms.total_cmp(&b.sent_ms));
    (records, wall, progress.peak_rss_mb())
}

/// Checks every reply against a direct estimate of its request, computing
/// each distinct request's estimate once.
fn check_replies<'a>(
    pool: &Pool,
    replies: impl Iterator<Item = (JobKind, &'a Result<JobReply, String>)>,
    memo: &mut HashMap<JobKind, Option<Estimate>>,
    checks: &mut Checks,
) {
    for (kind, reply) in replies {
        let want = memo
            .entry(kind)
            .or_insert_with(|| direct(&pool.request(kind, "")));
        let ok = match (reply, want) {
            (Ok(reply), Some(want)) => reply_matches(reply, want),
            _ => false,
        };
        checks.check(ok, || {
            format!("{kind:?}: reply {reply:?} differs from direct estimate")
        });
    }
}

/// Checks the service's shed ledger: every submitted job completed, none
/// was shed, evicted, timed out or lost to a worker fault.
fn check_ledger(stats: &ServiceStats, submitted: usize, checks: &mut Checks) -> Json {
    checks.check(
        stats.completed == submitted as u64
            && stats.queue_sheds == 0
            && stats.evictions == 0
            && stats.deadline_sheds == 0
            && stats.worker_faults == 0,
        || format!("service ledger {stats:?} does not balance {submitted} submitted jobs"),
    );
    Json::obj([
        ("completed", Json::from(stats.completed)),
        ("queue", Json::from(stats.queue_sheds)),
        ("quota", Json::from(stats.quota_sheds)),
        ("evictions", Json::from(stats.evictions)),
        ("deadline", Json::from(stats.deadline_sheds)),
        ("worker_faults", Json::from(stats.worker_faults)),
    ])
}

fn cache_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::from(c.hits)),
        ("misses", Json::from(c.misses)),
        ("epochs", Json::from(c.epochs)),
        ("retained_bytes", Json::from(c.retained_bytes)),
        ("table_slots_reserved", Json::from(c.table_slots_reserved)),
    ])
}

fn hit_rate(before: CacheStats, after: CacheStats) -> (f64, u64) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    (hits as f64 / (hits + misses).max(1) as f64, misses)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // The direct references of the pooled jobs run first, on a pool of
    // their own: work that brings the CPU and allocator to the same state
    // on every run before the set-up repetitions are timed.
    let mut memo: HashMap<JobKind, Option<Estimate>> = {
        let pool = build_pool(seed);
        pool.pooled_kinds()
            .map(|kind| (kind, direct(&pool.request(kind, ""))))
            .collect()
    };
    let mut setup = SetupLog::default();
    let (pool, mut front) = setup.repeat(SETUP_REPS, |log| {
        let built = log.time(|| {
            let pool = build_pool(seed);
            let front = spawn_front(&pool);
            (pool, front)
        });
        log.layers(built.0.graph_ms, built.0.label_ms);
        built
    });
    let mut checks = Checks::default();
    check_replies(
        &pool,
        front.warm.iter().map(|(k, r)| (*k, r)),
        &mut memo,
        &mut checks,
    );
    let pooled_nodes: u32 = pool.graphs.iter().map(|g| g.node_count).sum();
    let mut detail = vec![
        (
            "host".to_string(),
            host_block("tenant_service", seed, ("connections", CONNECTIONS)),
        ),
        (
            "inputs".to_string(),
            Json::obj([
                ("pool_graphs", Json::from(pool.graphs.len())),
                ("pool_nodes", Json::from(u64::from(pooled_nodes))),
                (
                    "sizes",
                    Json::Arr(SIZES.iter().map(|&n| Json::from(u64::from(n))).collect()),
                ),
                ("variants", Json::from(VARIANTS.len())),
                ("trials", Json::from(u64::from(TRIALS))),
                ("miss_every", Json::from(MISS_EVERY)),
                (
                    "confidence_radius_at_half",
                    Json::from(stats::confidence_radius(0.5, TRIALS as usize)),
                ),
            ]),
        ),
        ("setup_s_reps".to_string(), setup.detail()),
    ];
    let warm_jobs = front.warm.len();
    let cache_before = front.service.cache_stats();
    let metrics = if trace {
        let setup_layers = (median(&setup.graph_ms), median(&setup.label_ms));
        traced(
            &pool,
            front,
            setup_layers,
            seconds,
            &mut memo,
            &mut checks,
            &mut detail,
        )
    } else {
        let (records, wall, rss_mb) = closed_loop(&pool, &front, seconds);
        let cache_after = front.service.cache_stats();
        let (rate, _) = hit_rate(cache_before, cache_after);
        let ledger = front.stop();
        check_replies(
            &pool,
            records.iter().map(|r| (r.kind, &r.reply)),
            &mut memo,
            &mut checks,
        );
        detail.push((
            "ledger".to_string(),
            check_ledger(&ledger, warm_jobs + records.len(), &mut checks),
        ));
        let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
        detail.push(("job_ms".to_string(), summary(&latencies)));
        detail.push(("job_ms_by_class".to_string(), by_class(&records)));
        detail.push(("prep.hit_rate".to_string(), Json::from(rate)));
        detail.push(("cache".to_string(), cache_json(&cache_after)));
        vec![
            metric("setup_s", setup.setup_s(), "s"),
            metric("peak_rss_mb", rss_mb, "MiB"),
            metric("throughput_per_s", records.len() as f64 / wall, "1/s"),
            metric("p50_ms", median(&latencies), "ms"),
            metric("p90_ms", quantile(&latencies, 0.9), "ms"),
        ]
    };
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        detail,
    }
}

fn by_class(records: &[Record]) -> Json {
    Json::obj(["pooled", "forged", "fresh"].map(|class| {
        let l: Vec<f64> = records
            .iter()
            .filter(|r| r.kind.class() == class)
            .map(|r| r.latency_ms)
            .collect();
        (class, summary(&l))
    }))
}

/// The traced run. First the closed loop runs for a third of the time;
/// then every job it sent is executed again directly, in the order the
/// service queued it, once untraced (`registry::build` and
/// `stats::estimate_with` on one warmed cache: the service's execute
/// time) and once decomposed into traced wire, registry, prep and engine
/// calls on a second warmed cache. Queue wait is derived from the
/// single-worker FIFO order: a job starts at the later of its arrival and
/// the previous job's completion.
fn traced(
    pool: &Pool,
    mut front: Front,
    (graph_ms, label_ms): (f64, f64),
    seconds: f64,
    memo: &mut HashMap<JobKind, Option<Estimate>>,
    checks: &mut Checks,
    detail: &mut Vec<(String, Json)>,
) -> Vec<Metric> {
    let warm_jobs = front.warm.len();
    let cache_before = front.service.cache_stats();
    let (records, wall, _) = closed_loop(pool, &front, seconds / 3.0);
    let (service_hit_rate, service_misses) = hit_rate(cache_before, front.service.cache_stats());
    let ledger = front.stop();
    check_replies(
        pool,
        records.iter().map(|r| (r.kind, &r.reply)),
        memo,
        checks,
    );
    let ledger = check_ledger(&ledger, warm_jobs + records.len(), checks);

    // Two caches warmed exactly as the service's was.
    let mut cache_plain = PrepCache::new();
    let mut cache_traced = PrepCache::new();
    let mut scratch = RoundScratch::new();
    for kind in pool.pooled_kinds() {
        let req = pool.request(kind, "warm");
        for cache in [&mut cache_plain, &mut cache_traced] {
            let job = registry::build(&req).expect("pool jobs are well-formed");
            let opts = EstimateOpts::new(TRIALS as usize);
            stats::estimate_with(
                &*job.scheme,
                &job.config,
                &job.labeling,
                &req.run_spec(),
                &opts,
                &mut scratch,
                cache,
            );
        }
    }

    let mut tr = Tracer::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut execute_ms = Vec::new();
    let (mut prepare_ms, mut run_trials_ms) = (Vec::new(), Vec::new());
    let (mut run_trials_ns, mut port_trials) = (0u64, 0.0f64);
    let (mut trials, mut rejects, mut events) = (0usize, 0usize, 0usize);
    let mut request_bytes = Vec::new();
    let mut finish_prev = 0.0f64;
    let (mut waits, mut overheads) = (Vec::new(), Vec::new());
    for (unit, rec) in records.iter().enumerate() {
        let unit = unit as u64;
        let req = pool.request(rec.kind, "direct");
        request_bytes.push(rec.request_bytes as f64);

        // Untraced: what the service's worker does for this job.
        let t = Instant::now();
        let bytes = req.encode();
        let decoded = JobRequest::decode(&bytes).expect("own encoding decodes");
        let t_exec = Instant::now();
        let job = registry::build(&decoded).expect("benchmark jobs are well-formed");
        let opts = EstimateOpts::new(decoded.trials as usize);
        let spec = decoded.run_spec();
        let plain = stats::estimate_with(
            &*job.scheme,
            &job.config,
            &job.labeling,
            &spec,
            &opts,
            &mut scratch,
            &mut cache_plain,
        );
        let exec = ms_since(t_exec);
        drop(job);
        plain_s += t.elapsed().as_secs_f64();
        execute_ms.push(exec);

        // Single-worker FIFO: start at the later of arrival and the
        // previous completion.
        let start = rec.sent_ms.max(finish_prev);
        finish_prev = start + exec;
        let wait = start - rec.sent_ms;
        waits.push(wait);
        overheads.push(rec.latency_ms - wait - exec);

        // Traced: the same job, one span per layer call.
        let root = tr.begin("unit", unit, None);
        let bytes = tr.span("wire.encode", unit, Some(root), || req.encode());
        let decoded = tr.span("wire.decode", unit, Some(root), || {
            JobRequest::decode(&bytes).expect("own encoding decodes")
        });
        let job = tr.span("registry.build", unit, Some(root), || {
            registry::build(&decoded).expect("benchmark jobs are well-formed")
        });
        let traced = traced_estimate(
            &mut tr,
            unit,
            root,
            &*job.scheme,
            &job.config,
            &job.labeling,
            &decoded.run_spec(),
            decoded.trials as usize,
            &mut cache_traced,
            &mut scratch,
        );
        let nominal = ports(&job.config) as f64 * f64::from(decoded.trials);
        tr.span("registry.release", unit, Some(root), || drop(job));
        tr.end(root);
        traced_s += tr.spans()[root].ns() as f64 / 1e9;

        let want = memo.get(&rec.kind).copied().flatten();
        checks.check(Some(plain) == want && Some(traced.estimate) == want, || {
            format!("{:?}: direct and traced estimates differ", rec.kind)
        });
        prepare_ms.push(traced.prepare_ns as f64 / 1e6);
        run_trials_ms.push(traced.run_trials_ns as f64 / 1e6);
        if rec.kind.per_trial() {
            run_trials_ns += traced.run_trials_ns;
            port_trials += nominal;
        }
        trials += traced.estimate.trials;
        rejects += traced.estimate.trials - traced.estimate.accepts;
        events += fault_events(&traced.estimate);
    }
    let spans = tr.spans();
    let us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    };
    let build_ms: Vec<f64> = us("registry.build").iter().map(|x| x / 1e3).collect();
    detail.push((
        "layers".to_string(),
        Json::obj([
            ("wire.request_bytes", summary(&request_bytes)),
            ("wire.encode_us", summary(&us("wire.encode"))),
            ("wire.decode_us", summary(&us("wire.decode"))),
            ("registry.build_ms", summary(&build_ms)),
            ("service.execute_ms", summary(&execute_ms)),
            ("service.queue_wait_ms", summary(&waits)),
            ("tcp.overhead_ms", summary(&overheads)),
            ("prep.hit_rate.service", Json::from(service_hit_rate)),
            ("service.sheds", ledger),
        ]),
    ));
    detail.push(("units".to_string(), Json::from(records.len())));
    let reconcile_err_frac = crate::finish_trace(&tr, "tenant_service", checks);
    let executed: f64 = execute_ms.iter().sum::<f64>() / 1e3;
    crate::layer_metrics(crate::LayerFigures {
        graph_ms,
        label_ms,
        prepare_ms: median(&prepare_ms),
        hit_rate: service_hit_rate,
        misses_per_unit: service_misses as f64 / records.len().max(1) as f64,
        run_trials_ms: median(&run_trials_ms),
        ns_per_port_trial: run_trials_ns as f64 / port_trials.max(1.0),
        reject_frac: rejects as f64 / trials.max(1) as f64,
        events_per_trial: events as f64 / trials.max(1) as f64,
        thread_scaling: executed / wall,
        overhead_frac: traced_s / plain_s - 1.0,
        reconcile_err_frac,
    })
}
