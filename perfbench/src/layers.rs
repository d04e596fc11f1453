//! The benchmark's own decomposition of one estimate into the library's
//! public layer calls, so the traced run can time each layer from outside
//! the program: `Rpls::prepare_cached`, then `engine::run_trials` over
//! blocks of per-trial seeds from `stats::trial_seed`. It reproduces
//! `stats::estimate_with` trial for trial; the traced run checks that.

use crate::trace::Tracer;
use rpls_core::engine::{self, RunSpec};
use rpls_core::stats::{self, Estimate};
use rpls_core::{Configuration, Labeling, PrepCache, RoundScratch, Rpls};

/// Trials per traced `engine::run_trials` block. Smaller than the library's
/// own chunk, so the first block, which builds any lazy plan, shows as a
/// span of its own.
pub const TRACE_BLOCK: usize = 64;

/// Nominal directed ports of a configuration: one per edge end.
pub fn ports(config: &Configuration) -> usize {
    2 * config.graph().edge_count()
}

/// Folds one trial report into an estimate, exactly as the library does.
fn absorb(out: &mut Estimate, r: &engine::RunReport) {
    out.accepts += usize::from(r.accepted);
    if let Some(fault) = r.fault {
        out.degraded_trials += usize::from(fault.insufficient_nodes > 0);
        out.missing_messages += fault.missing_messages;
        out.counts.absorb(fault.counts);
    }
}

/// What one traced estimate cost, layer by layer.
pub struct TracedEstimate {
    pub estimate: Estimate,
    pub prepare_ns: u64,
    pub run_trials_ns: u64,
    pub first_block_ns: u64,
}

/// Runs `trials` trials of `spec` as spans under `parent`: one
/// `prep.prepare` span, one `engine.run_trials` span per block, and one
/// `prep.release` span dropping the prepared state.
#[allow(clippy::too_many_arguments)]
pub fn traced_estimate(
    tr: &mut Tracer,
    unit: u64,
    parent: usize,
    scheme: &dyn Rpls,
    config: &Configuration,
    labeling: &Labeling,
    spec: &RunSpec,
    trials: usize,
    cache: &mut PrepCache,
    scratch: &mut RoundScratch,
) -> TracedEstimate {
    let prep_span = tr.begin("prep.prepare", unit, Some(parent));
    let prepared = scheme.prepare_cached(config, labeling, trials, cache);
    tr.end(prep_span);
    let prepare_ns = tr.spans()[prep_span].ns();
    let base = spec.seed();
    let mut estimate = Estimate {
        trials,
        ..Estimate::default()
    };
    let mut seeds = Vec::with_capacity(TRACE_BLOCK);
    let mut run_trials_ns = 0;
    let mut first_block_ns = 0;
    let mut next = 0usize;
    while next < trials {
        let block = TRACE_BLOCK.min(trials - next);
        seeds.clear();
        seeds.extend((next..next + block).map(|t| stats::trial_seed(base, t as u64)));
        let span = tr.begin("engine.run_trials", unit, Some(parent));
        engine::run_trials(spec, &*prepared, config, &seeds, scratch, &mut |r| {
            absorb(&mut estimate, &r);
        });
        tr.end(span);
        let ns = tr.spans()[span].ns();
        if next == 0 {
            first_block_ns = ns;
        }
        run_trials_ns += ns;
        next += block;
    }
    let release = tr.begin("prep.release", unit, Some(parent));
    drop(prepared);
    tr.end(release);
    TracedEstimate {
        estimate,
        prepare_ns,
        run_trials_ns,
        first_block_ns,
    }
}

/// Fault events in an estimate: drops, corruptions, duplicates and crashes.
pub fn fault_events(e: &Estimate) -> usize {
    e.counts.dropped + e.counts.corrupted + e.counts.duplicated + e.counts.crashed_nodes
}
