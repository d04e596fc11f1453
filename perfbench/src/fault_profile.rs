//! `fault_profile`: the fault-tolerance profile of the compiled
//! spanning-tree scheme on one random sparse configuration. Every job is
//! one `stats::estimate_par` call at two workers under a fault plan, so the
//! engine's per-trial fault overlay and the compiled kernels do the work;
//! the t = 4 jobs also pay each worker's own preparation and lazy plan.

use crate::forge;
use crate::harness::{
    host_block, median, metric, ms_since, quantile, summary, Checks, Json, Metric, Outcome, Phase,
    SetupLog,
};
use crate::layers::{fault_events, ports, traced_estimate};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpls_core::engine::{MessagePattern, RunSpec};
use rpls_core::stats::{self, Estimate, EstimateOpts};
use rpls_core::{CompiledRpls, Configuration, FaultPlan, FaultSpec, Labeling, PrepCache};
use rpls_core::{RoundScratch, Rpls};
use rpls_graph::{generators, NodeId};
use rpls_schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use std::time::Instant;

/// Nodes of the configuration.
pub const N: usize = 1 << 14;
/// Trials per estimate.
pub const TRIALS: usize = 256;
/// Worker threads of every `estimate_par` call.
pub const WORKERS: usize = 2;
/// Set-up repetitions before the timed phase; more run during it.
const SETUP_REPS: usize = 5;

/// The job classes whose per-trial cost differs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    T1Faulted,
    T4Faulted,
    Tampered,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Self::T1Faulted => "t1_faulted",
            Self::T4Faulted => "t4_faulted",
            Self::Tampered => "tampered",
        }
    }
}

struct Job {
    name: String,
    class: Class,
    spec: RunSpec,
}

impl Job {
    fn tampered(&self) -> bool {
        self.class == Class::Tampered
    }
}

struct Inputs {
    scheme: CompiledRpls<SpanningTreePls>,
    config: Configuration,
    honest: Labeling,
    tampered: Labeling,
    jobs: Vec<Job>,
    graph_ms: f64,
    label_ms: f64,
}

/// Builds the configuration, the honest and tampered labelings and the
/// job list from the workload seed.
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
    let mut tampered = honest.clone();
    forge::forge_copies(&mut tampered, 1, &mut rng);

    // About one lost message per trial at t = 1; the t = 4 jobs retry.
    let p = ports(&config) as f64;
    let rate = 1.0 / p;
    let crash = 1.0 / N as f64;
    let kinds = [
        ("drop", FaultSpec::transparent().with_drop(rate)),
        ("corrupt", FaultSpec::transparent().with_corrupt(rate)),
        ("crash", FaultSpec::transparent().with_crash(crash)),
        (
            "mixed",
            FaultSpec::transparent()
                .with_drop(rate / 2.0)
                .with_corrupt(rate / 2.0)
                .with_duplicate(rate)
                .with_crash(crash / 2.0),
        ),
    ];
    let mut jobs = Vec::new();
    for class in [Class::T1Faulted, Class::T4Faulted, Class::Tampered] {
        for (kind, fault) in &kinds {
            let (rounds, fault) = match class {
                Class::T4Faulted => (4, fault.with_retry_budget(2)),
                _ => (1, *fault),
            };
            let pattern = match (*kind, class) {
                ("mixed", _) => MessagePattern::Broadcast,
                ("corrupt", Class::T4Faulted) => MessagePattern::KMessages(2),
                _ => MessagePattern::PerPort,
            };
            let spec = RunSpec::trial(rng.next_u64())
                .with_rounds(rounds)
                .with_pattern(pattern)
                .with_faults(FaultPlan::new(fault, rng.next_u64()));
            jobs.push(Job {
                name: format!("{}/{kind}/{pattern:?}", class.name()),
                class,
                spec,
            });
        }
    }
    Inputs {
        scheme,
        config,
        honest,
        tampered,
        jobs,
        graph_ms,
        label_ms,
    }
}

impl Inputs {
    fn labeling(&self, job: &Job) -> &Labeling {
        if job.tampered() {
            &self.tampered
        } else {
            &self.honest
        }
    }

    fn serial(&self, labeling: &Labeling, spec: &RunSpec) -> Estimate {
        stats::estimate_with(
            &self.scheme,
            &self.config,
            labeling,
            spec,
            &EstimateOpts::new(TRIALS),
            &mut RoundScratch::new(),
            &mut PrepCache::new(),
        )
    }

    fn parallel(&self, job: &Job) -> Estimate {
        stats::estimate_par(
            &self.scheme,
            &self.config,
            self.labeling(job),
            &job.spec,
            &EstimateOpts::new(TRIALS),
            Some(WORKERS),
        )
    }

    /// The serial reference of every job, plus the correctness checks that
    /// need no timing: the honest clean estimate is exactly 1, and no fault
    /// raises the tampered acceptance above its clean value.
    fn references(&self, checks: &mut Checks) -> Vec<Estimate> {
        for rounds in [1, 4] {
            let clean = self.serial(&self.honest, &RunSpec::trial(1).with_rounds(rounds));
            checks.check(clean.accepts == TRIALS, || {
                format!(
                    "honest clean t={rounds} accepted {}/{TRIALS}",
                    clean.accepts
                )
            });
        }
        self.jobs
            .iter()
            .map(|job| {
                let est = self.serial(self.labeling(job), &job.spec);
                if job.tampered() {
                    let mut clean_spec = job.spec.clone();
                    clean_spec.faults = None;
                    let clean = self.serial(&self.tampered, &clean_spec);
                    checks.check(est.accepts <= clean.accepts, || {
                        format!(
                            "{}: faulted tampered accepts {} > clean {}",
                            job.name, est.accepts, clean.accepts
                        )
                    });
                }
                est
            })
            .collect()
    }
}

fn input_block(inputs: &Inputs) -> Json {
    let p = ports(&inputs.config);
    Json::obj([
        ("n", Json::from(N)),
        ("ports", Json::from(p)),
        ("trials", Json::from(TRIALS)),
        ("jobs_per_cycle", Json::from(inputs.jobs.len())),
        (
            "confidence_radius_at_half",
            Json::from(stats::confidence_radius(0.5, TRIALS)),
        ),
    ])
}

/// One timed set-up repetition, with its layer times logged.
fn timed_build(log: &mut SetupLog, seed: u64) -> Inputs {
    let inputs = log.time(|| build(seed));
    log.layers(inputs.graph_ms, inputs.label_ms);
    inputs
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    // The references run first, on inputs of their own: seconds of work
    // that bring the CPU and allocator to the same state on every run
    // before any set-up repetition is timed.
    let reference = build(seed).references(&mut checks);
    let mut setup = SetupLog::default();
    let inputs = setup.repeat(SETUP_REPS, |log| timed_build(log, seed));
    let mut detail = vec![
        (
            "host".to_string(),
            host_block("fault_profile", seed, ("workers", WORKERS)),
        ),
        ("inputs".to_string(), input_block(&inputs)),
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
        let p = ports(&inputs.config) as f64;
        let mut latencies = Vec::new();
        let mut per_job = vec![Vec::new(); inputs.jobs.len()];
        let mut port_trials = 0.0;
        let mut phase = Phase::start();
        // Whole cycles only, so every run measures the same job mix.
        while phase.elapsed_s() < seconds {
            for (j, (job, want)) in inputs.jobs.iter().zip(&reference).enumerate() {
                let t = Instant::now();
                let got = inputs.parallel(job);
                latencies.push(ms_since(t));
                per_job[j].push(ms_since(t));
                port_trials += p * TRIALS as f64;
                checks.check(got == *want, || {
                    format!("{}: estimate_par differs from serial", job.name)
                });
                phase.between_ops(|| drop(timed_build(&mut setup, seed)));
            }
        }
        let wall = phase.elapsed_s();
        detail.push(("estimate_ms".to_string(), summary(&latencies)));
        detail.push((
            "estimate_ms_by_job".to_string(),
            Json::Obj(
                inputs
                    .jobs
                    .iter()
                    .zip(&per_job)
                    .map(|(job, l)| (job.name.clone(), summary(l)))
                    .collect(),
            ),
        ));
        vec![
            metric("setup_s", setup.setup_s(), "s"),
            metric("peak_rss_mb", phase.peak_rss_mb(), "MiB"),
            metric("throughput_per_s", port_trials / wall, "1/s"),
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

/// The traced run: per job, the untraced serial estimate, the same
/// estimate decomposed into traced layer calls, and the parallel estimate,
/// interleaved job by job for whole cycles.
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
    let mut first_chunk_t4 = Vec::new();
    let mut class_ns = [0u64; 3];
    let mut class_port_trials = [0.0f64; 3];
    let (mut hits, mut misses, mut units) = (0u64, 0u64, 0u64);
    let (mut trials, mut rejects, mut events) = (0usize, 0usize, 0usize);
    let mut phase = Phase::start();
    let mut unit = 0u64;
    while phase.elapsed_s() < seconds {
        for (job, want) in inputs.jobs.iter().zip(reference) {
            let labeling = inputs.labeling(job);
            let t = Instant::now();
            let plain = inputs.serial(labeling, &job.spec);
            serial_s += t.elapsed().as_secs_f64();

            let mut cache = PrepCache::new();
            let root = tr.begin("unit", unit, None);
            let traced = traced_estimate(
                &mut tr,
                unit,
                root,
                &inputs.scheme,
                &inputs.config,
                labeling,
                &job.spec,
                TRIALS,
                &mut cache,
                &mut scratch,
            );
            tr.end(root);
            traced_s += tr.spans()[root].ns() as f64 / 1e9;

            let t = Instant::now();
            let par = inputs.parallel(job);
            par_s += t.elapsed().as_secs_f64();

            checks.check(
                plain == *want && traced.estimate == *want && par == *want,
                || format!("{}: traced run estimates differ", job.name),
            );
            let stats = cache.stats();
            hits += stats.hits;
            misses += stats.misses;
            units += 1;
            prepare_ms.push(traced.prepare_ns as f64 / 1e6);
            run_trials_ms.push(traced.run_trials_ns as f64 / 1e6);
            if job.class == Class::T4Faulted {
                first_chunk_t4.push(traced.first_block_ns as f64 / 1e6);
            }
            let c = job.class as usize;
            class_ns[c] += traced.run_trials_ns;
            class_port_trials[c] += p * TRIALS as f64;
            trials += TRIALS;
            rejects += TRIALS - traced.estimate.accepts;
            events += fault_events(&traced.estimate);
            unit += 1;
            phase.between_ops(|| drop(timed_build(setup, seed)));
        }
    }
    let reconcile_err_frac = crate::finish_trace(&tr, "fault_profile", checks);
    let classes = [Class::T1Faulted, Class::T4Faulted, Class::Tampered];
    let ns_per_port_trial: Vec<(String, Json)> = classes
        .iter()
        .map(|&c| {
            let i = c as usize;
            (
                format!("engine.ns_per_port_trial.{}", c.name()),
                Json::from(class_ns[i] as f64 / class_port_trials[i]),
            )
        })
        .collect();
    detail.push(("layers".to_string(), Json::Obj(ns_per_port_trial)));
    detail.push((
        "compiler.first_chunk_ms.t4".to_string(),
        summary(&first_chunk_t4),
    ));
    detail.push(("units".to_string(), Json::from(units)));
    let total_ns: u64 = class_ns.iter().sum();
    let total_port_trials: f64 = class_port_trials.iter().sum();
    crate::layer_metrics(crate::LayerFigures {
        graph_ms: median(&setup.graph_ms),
        label_ms: median(&setup.label_ms),
        prepare_ms: median(&prepare_ms),
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        misses_per_unit: misses as f64 / units.max(1) as f64,
        run_trials_ms: median(&run_trials_ms),
        ns_per_port_trial: total_ns as f64 / total_port_trials,
        reject_frac: rejects as f64 / trials.max(1) as f64,
        events_per_trial: events as f64 / trials.max(1) as f64,
        thread_scaling: serial_s / par_s,
        overhead_frac: traced_s / serial_s - 1.0,
        reconcile_err_frac,
    })
}
