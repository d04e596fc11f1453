//! The repository benchmark. One run measures one workload for a fixed
//! time and prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fault_profile --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics of a traced run. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod fault_profile;
mod forge;
mod forge_sweep;
mod harness;
mod layers;
mod tenant_service;
mod trace;

use harness::{metric, Json, Metric, Outcome};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["fault_profile", "forge_sweep", "tenant_service"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The per-layer figures every workload's traced run produces; the
/// workloads differ in what a unit is (see `README.md`).
pub struct LayerFigures {
    pub graph_ms: f64,
    pub label_ms: f64,
    pub prepare_ms: f64,
    pub hit_rate: f64,
    pub misses_per_unit: f64,
    pub run_trials_ms: f64,
    pub ns_per_port_trial: f64,
    pub reject_frac: f64,
    pub events_per_trial: f64,
    pub thread_scaling: f64,
    pub overhead_frac: f64,
    pub reconcile_err_frac: f64,
}

/// The per-layer contract metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(f: LayerFigures) -> Vec<Metric> {
    vec![
        metric("graph.build_ms", f.graph_ms, "ms"),
        metric("schemes.label_ms", f.label_ms, "ms"),
        metric("prep.prepare_ms", f.prepare_ms, "ms"),
        metric("prep.hit_rate", f.hit_rate, "ratio"),
        metric("prep.misses_per_unit", f.misses_per_unit, "count"),
        metric("engine.run_trials_ms", f.run_trials_ms, "ms"),
        metric("engine.ns_per_port_trial", f.ns_per_port_trial, "ns"),
        metric("engine.reject_frac", f.reject_frac, "ratio"),
        metric("fault.events_per_trial", f.events_per_trial, "count"),
        metric("stats.thread_scaling", f.thread_scaling, "ratio"),
        metric("trace.overhead_frac", f.overhead_frac, "ratio"),
        metric("trace.reconcile_err_frac", f.reconcile_err_frac, "ratio"),
    ]
}

/// The share of a unit's wall time its layer spans may leave unaccounted.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Ends a traced run: writes its spans next to the benchmark, one JSON line
/// each, checks that every unit's layer self-times sum to its wall time
/// within [`RECONCILE_TOLERANCE`], and returns the worst unit's error.
pub fn finish_trace(tr: &trace::Tracer, workload: &str, checks: &mut harness::Checks) -> f64 {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"));
    if let Err(e) = tr.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let worst = tr.reconcile_errors().into_iter().fold(0.0, f64::max);
    checks.check(worst <= RECONCILE_TOLERANCE, || {
        format!("a unit's layer spans leave {worst:.4} of its wall time unaccounted")
    });
    worst
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = harness::cpu_steal();
    let Outcome {
        attempted,
        failed,
        metrics,
        mut detail,
    } = match args.workload.as_str() {
        "fault_profile" => fault_profile::run(args.seed, args.seconds, args.trace),
        "forge_sweep" => forge_sweep::run(args.seed, args.seconds, args.trace),
        _ => tenant_service::run(args.seed, args.seconds, args.trace),
    };
    detail.push(("trace".to_string(), Json::from(args.trace)));
    // Run-to-run noise on a shared host follows the time the hypervisor
    // takes away; recording it lets a reader tell a noisy run from a slow
    // build.
    let steal_after = harness::cpu_steal();
    let total = steal_after.1.saturating_sub(steal_before.1).max(1);
    let steal = steal_after.0.saturating_sub(steal_before.0);
    detail.push((
        "host_steal_frac".to_string(),
        Json::from(steal as f64 / total as f64),
    ));
    println!("{}", Json::Obj(detail));
    let correct = failed == 0 && attempted > 0;
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value =
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), value)
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
