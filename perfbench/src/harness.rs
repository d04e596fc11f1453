//! What every workload shares: the result record, JSON output, order
//! statistics, the correctness ledger, set-up repetition and the host block.

use std::fmt::{self, Write as _};
use std::time::Instant;

/// A JSON value, written by hand so the benchmark needs no serializer.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Self::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Self::Int(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Self::Int(x as u64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Self {
        Self::Bool(x)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{:?}` prints the shortest string that reads back to the same
            // f64, so every measured digit survives. JSON has no NaN or
            // infinity; a metric that produced one is reported as null and
            // fails the contract check loudly rather than silently.
            Self::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Self::Num(_) | Self::Null => f.write_str("null"),
            Self::Int(x) => write!(f, "{x}"),
            Self::Bool(x) => write!(f, "{x}"),
            Self::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Self::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Self::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted: timed operations plus correctness checks.
    pub attempted: u64,
    /// Operations that failed: wrong results or failed checks.
    pub failed: u64,
    /// The contract metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: host block, input sizes, sample
    /// counts and the per-layer breakdown by job class.
    pub detail: Vec<(String, Json)>,
}

/// The correctness ledger: every check is one attempted operation, every
/// failed check one failed operation, and a failure is explained on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample;
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The set-up record of a run: the wall seconds of every set-up
/// repetition (`setup_s` is their median) and the time of its two layers.
#[derive(Default)]
pub struct SetupLog {
    pub secs: Vec<f64>,
    pub graph_ms: Vec<f64>,
    pub label_ms: Vec<f64>,
}

impl SetupLog {
    /// Times one repetition of the deterministic set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = std::hint::black_box(build());
        self.secs.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Records the set-up layers' times of the last repetition.
    pub fn layers(&mut self, graph_ms: f64, label_ms: f64) {
        self.graph_ms.push(graph_ms);
        self.label_ms.push(label_ms);
    }

    /// Runs `reps` repetitions and keeps the last one's result. Each
    /// repetition's predecessor is freed first, off the clock, so they
    /// neither overlap in memory nor pay for one another.
    pub fn repeat<T>(&mut self, reps: usize, mut build: impl FnMut(&mut Self) -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            last = Some(build(self));
        }
        last.expect("at least one set-up repetition")
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.secs)
    }

    pub fn detail(&self) -> Json {
        Json::Arr(self.secs.iter().map(|&s| Json::from(s)).collect())
    }
}

/// Seconds of timed phase between two set-up repetitions.
const SETUP_EVERY_S: f64 = 1.0;

/// The clock of a timed phase. Set-up repetitions run between operations
/// about once a second, off the clock: the host's speed drifts over
/// seconds, and spreading the repetitions over the phase measures
/// `setup_s` over the same window as every other metric.
pub struct Phase {
    start: Instant,
    off_clock: f64,
    next_setup_s: f64,
    /// Peak RSS just before the first repetition, whose inputs coexist
    /// with the phase's own.
    peak_rss_mb: Option<f64>,
}

impl Phase {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            off_clock: 0.0,
            next_setup_s: SETUP_EVERY_S,
            peak_rss_mb: None,
        }
    }

    /// Seconds of the phase so far, set-up repetitions excluded.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.off_clock
    }

    /// Peak RSS of the set-up and the phase, not counting the inputs of
    /// the repetitions run during it.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.unwrap_or_else(peak_rss_mb)
    }

    /// Call between operations: runs `rep` off the clock when a set-up
    /// repetition is due.
    pub fn between_ops(&mut self, rep: impl FnOnce()) {
        if self.elapsed_s() >= self.next_setup_s {
            self.next_setup_s += SETUP_EVERY_S;
            self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
            let t0 = Instant::now();
            rep();
            self.off_clock += t0.elapsed().as_secs_f64();
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU jiffies of the host from `/proc/stat`:
/// time the hypervisor ran something else on this machine's CPUs.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host block every result carries: cores, toolchain, build profile,
/// seed and the workload's fixed concurrency.
pub fn host_block(workload: &str, seed: u64, concurrency: (&str, usize)) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("workload", Json::str(workload)),
        ("seed", Json::from(seed)),
        (concurrency.0, Json::from(concurrency.1)),
    ])
}

/// A sample summary for the detail block: count, p50 and p90.
pub fn summary(samples: &[f64]) -> Json {
    Json::obj([
        ("samples", Json::from(samples.len())),
        ("p50", Json::from(median(samples))),
        ("p90", Json::from(quantile(samples, 0.9))),
    ])
}
