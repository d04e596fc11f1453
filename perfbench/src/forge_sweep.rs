//! `forge_sweep`: a soundness-audit sweep. Each operation is one
//! `stats::sweep_par` call at two workers over a batch of forged candidate
//! labelings: the honest spanning-tree labeling with a few claimed
//! neighbor copies bit-flipped, still well-formed. Near-identical
//! candidates make preparation-cache reuse dominate, and the kernel runs
//! its rejection short-circuit path.

use crate::forge;
use crate::harness::{
    host_block, median, metric, ms_since, quantile, summary, Checks, Json, Metric, Outcome, Phase,
    SetupLog,
};
use crate::layers::{ports, traced_estimate};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpls_core::engine::RunSpec;
use rpls_core::stats::{self, Estimate, EstimateOpts};
use rpls_core::{CompiledRpls, Configuration, Labeling, PrepCache, RoundScratch, Rpls};
use rpls_graph::{generators, NodeId};
use rpls_schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use std::time::Instant;

/// Nodes of the configuration.
pub const N: usize = 1 << 14;
/// Screening trials per candidate.
pub const TRIALS: usize = 32;
/// Candidates per `sweep_par` call.
pub const BATCH: usize = 32;
/// Nodes whose labels each candidate forges.
pub const FLIPS: usize = 3;
/// Worker threads of every `sweep_par` call.
pub const WORKERS: usize = 2;
/// Set-up repetitions before the timed phase; more run during it.
const SETUP_REPS: usize = 5;

struct Inputs {
    scheme: CompiledRpls<SpanningTreePls>,
    config: Configuration,
    honest: Labeling,
    batch: Vec<Labeling>,
    spec: RunSpec,
    graph_ms: f64,
    label_ms: f64,
}

fn build(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let graph = generators::random_sparse(N, N / 4, &mut rng);
    let plain = Configuration::plain(graph);
    let graph_ms = ms_since(t0);
    let t1 = Instant::now();
    let config = spanning_tree_config(&plain, NodeId::new(0));
    let scheme = CompiledRpls::new(SpanningTreePls::new());
    let honest = Rpls::label(&scheme, &config);
    let label_ms = ms_since(t1);
    let batch = (0..BATCH)
        .map(|_| {
            let mut candidate = honest.clone();
            forge::forge_copies(&mut candidate, FLIPS, &mut rng);
            candidate
        })
        .collect();
    let spec = RunSpec::trial(rng.next_u64());
    Inputs {
        scheme,
        config,
        honest,
        batch,
        spec,
        graph_ms,
        label_ms,
    }
}

impl Inputs {
    /// The serial shared-cache sweep `sweep_par` must reproduce.
    fn serial(&self) -> Vec<Estimate> {
        let mut scratch = RoundScratch::new();
        let mut cache = PrepCache::new();
        self.batch
            .iter()
            .map(|l| {
                let opts = EstimateOpts::new(TRIALS);
                stats::estimate_with(
                    &self.scheme,
                    &self.config,
                    l,
                    &self.spec,
                    &opts,
                    &mut scratch,
                    &mut cache,
                )
            })
            .collect()
    }

    fn parallel(&self) -> Vec<Estimate> {
        let opts = EstimateOpts::new(TRIALS);
        stats::sweep_par(
            &self.scheme,
            &self.config,
            &self.batch,
            &self.spec,
            &opts,
            Some(WORKERS),
        )
    }

    fn references(&self, checks: &mut Checks) -> Vec<Estimate> {
        let honest = stats::estimate(
            &self.scheme,
            &self.config,
            &self.honest,
            &self.spec,
            &EstimateOpts::new(TRIALS),
        );
        checks.check(honest.accepts == TRIALS, || {
            format!("honest clean accepted {}/{TRIALS}", honest.accepts)
        });
        self.serial()
    }
}

/// One timed set-up repetition, with its layer times logged.
fn timed_build(log: &mut SetupLog, seed: u64) -> Inputs {
    let inputs = log.time(|| build(seed));
    log.layers(inputs.graph_ms, inputs.label_ms);
    inputs
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    // The references run first, on inputs of their own: work that brings
    // the CPU and allocator to the same state on every run before any
    // set-up repetition is timed.
    let reference = build(seed).references(&mut checks);
    let mut setup = SetupLog::default();
    let inputs = setup.repeat(SETUP_REPS, |log| timed_build(log, seed));
    let mut detail = vec![
        (
            "host".to_string(),
            host_block("forge_sweep", seed, ("workers", WORKERS)),
        ),
        (
            "inputs".to_string(),
            Json::obj([
                ("n", Json::from(N)),
                ("ports", Json::from(ports(&inputs.config))),
                ("trials", Json::from(TRIALS)),
                ("candidates_per_sweep", Json::from(BATCH)),
                ("forged_nodes_per_candidate", Json::from(FLIPS)),
                (
                    "confidence_radius_at_half",
                    Json::from(stats::confidence_radius(0.5, TRIALS)),
                ),
            ]),
        ),
    ];
    let metrics = if trace {
        traced(
            &inputs,
            seed,
            &reference,
            seconds,
            &mut setup,
            &mut checks,
            &mut detail,
        )
    } else {
        let mut latencies = Vec::new();
        let mut candidates = 0usize;
        let mut phase = Phase::start();
        while phase.elapsed_s() < seconds {
            let t = Instant::now();
            let got = inputs.parallel();
            latencies.push(ms_since(t));
            candidates += BATCH;
            checks.check(got == reference, || {
                "sweep_par differs from the serial shared-cache sweep".to_string()
            });
            phase.between_ops(|| drop(timed_build(&mut setup, seed)));
        }
        let wall = phase.elapsed_s();
        detail.push(("sweep_ms".to_string(), summary(&latencies)));
        vec![
            metric("setup_s", setup.setup_s(), "s"),
            metric("peak_rss_mb", phase.peak_rss_mb(), "MiB"),
            metric("throughput_per_s", candidates as f64 / wall, "1/s"),
            metric("p50_ms", median(&latencies), "ms"),
            metric("p90_ms", quantile(&latencies, 0.9), "ms"),
        ]
    };
    detail.push(("setup_s_reps".to_string(), setup.detail()));
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        detail,
    }
}

/// The traced run: per sweep, the untraced serial shared-cache sweep, the
/// same sweep decomposed into traced layer calls (one unit per candidate),
/// and the parallel sweep.
fn traced(
    inputs: &Inputs,
    seed: u64,
    reference: &[Estimate],
    seconds: f64,
    setup: &mut SetupLog,
    checks: &mut Checks,
    detail: &mut Vec<(String, Json)>,
) -> Vec<Metric> {
    let p = ports(&inputs.config) as f64;
    let mut tr = Tracer::new();
    let mut scratch = RoundScratch::new();
    let (mut serial_s, mut traced_s, mut par_s) = (0.0, 0.0, 0.0);
    let mut prepare_ms = Vec::new();
    let mut run_trials_ms = Vec::new();
    let (mut run_trials_ns, mut port_trials) = (0u64, 0.0f64);
    let (mut hits, mut misses, mut units) = (0u64, 0u64, 0u64);
    let (mut trials, mut rejects) = (0usize, 0usize);
    let mut phase = Phase::start();
    while phase.elapsed_s() < seconds {
        let t = Instant::now();
        let plain = inputs.serial();
        serial_s += t.elapsed().as_secs_f64();

        let mut cache = PrepCache::new();
        let mut got = Vec::with_capacity(BATCH);
        for labeling in &inputs.batch {
            let root = tr.begin("unit", units, None);
            let traced = traced_estimate(
                &mut tr,
                units,
                root,
                &inputs.scheme,
                &inputs.config,
                labeling,
                &inputs.spec,
                TRIALS,
                &mut cache,
                &mut scratch,
            );
            tr.end(root);
            traced_s += tr.spans()[root].ns() as f64 / 1e9;
            prepare_ms.push(traced.prepare_ns as f64 / 1e6);
            run_trials_ms.push(traced.run_trials_ns as f64 / 1e6);
            run_trials_ns += traced.run_trials_ns;
            port_trials += p * TRIALS as f64;
            trials += TRIALS;
            rejects += TRIALS - traced.estimate.accepts;
            units += 1;
            got.push(traced.estimate);
        }
        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;

        let t = Instant::now();
        let par = inputs.parallel();
        par_s += t.elapsed().as_secs_f64();
        checks.check(
            plain == reference && got == reference && par == reference,
            || "traced run sweep estimates differ".to_string(),
        );
        phase.between_ops(|| drop(timed_build(setup, seed)));
    }
    detail.push(("units".to_string(), Json::from(units)));
    let reconcile_err_frac = crate::finish_trace(&tr, "forge_sweep", checks);
    crate::layer_metrics(crate::LayerFigures {
        graph_ms: median(&setup.graph_ms),
        label_ms: median(&setup.label_ms),
        prepare_ms: median(&prepare_ms),
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        misses_per_unit: misses as f64 / units.max(1) as f64,
        run_trials_ms: median(&run_trials_ms),
        ns_per_port_trial: run_trials_ns as f64 / port_trials,
        reject_frac: rejects as f64 / trials.max(1) as f64,
        events_per_trial: 0.0,
        thread_scaling: serial_s / par_s,
        overhead_frac: traced_s / serial_s - 1.0,
        reconcile_err_frac,
    })
}
