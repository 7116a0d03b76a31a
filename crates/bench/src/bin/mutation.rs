//! Mutation-score benchmark: the full `Mutation::ALL × seeds` campaign
//! through the oracle stack on the work-stealing runner, reporting kill
//! rate, per-kind results, structural coverage, and mutants/second for
//! both a single-thread and a parallel run.
//!
//! Emits `BENCH_mutation.json`, then gates: every mutant must be killed
//! (a survivor means some oracle failed to notice a paper-meaningful
//! fault), and on a host with at least four cores the parallel runner
//! must reach [`MIN_SPEEDUP`].

use std::time::Instant;

use drd_check::cover::{Bucket, Coverage};
use drd_check::diff::DiffConfig;
use drd_check::mutate::{run_campaign, Mutation, MutationOutcome};
use drd_check::runner;
use drd_json::escape;
use drd_liberty::vlib90;
use drd_stg::protocols::Protocol;

/// Seeds per mutation kind.
const SEEDS_PER_KIND: usize = 25;

/// Parallel-over-serial throughput the work-stealing runner must reach
/// where there are at least four cores to steal from.
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    let lib = vlib90::high_speed();
    let config = DiffConfig::default();
    let seeds: Vec<u64> = (0..SEEDS_PER_KIND as u64).collect();
    let workers = runner::worker_count();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Full campaign on the parallel runner.
    let start = Instant::now();
    let outcomes = run_campaign(&Mutation::ALL, &seeds, &lib, &config, workers);
    let parallel_ns = start.elapsed().as_nanos();

    // A smaller single-thread pass over the same grid prefix, for the
    // throughput comparison (re-running the full grid serially would
    // dominate the bench's wall time for no extra information).
    let serial_seeds: Vec<u64> = seeds[..SEEDS_PER_KIND.div_ceil(5)].to_vec();
    let start = Instant::now();
    let serial = run_campaign(&Mutation::ALL, &serial_seeds, &lib, &config, 1);
    let serial_ns = start.elapsed().as_nanos();

    // Structural coverage actually exercised by the campaign.
    let mut coverage = Coverage::new();
    for o in &outcomes {
        if let Some(recipe) = &o.recipe {
            coverage.record(recipe);
        }
        match o.mutation {
            Mutation::ProtocolFallDecoupled => {
                coverage.record_bucket(Bucket::Protocol(Protocol::FallDecoupled));
            }
            Mutation::ProtocolDropArc => {
                coverage.record_bucket(Bucket::Protocol(Protocol::SemiDecoupled));
            }
            _ => {}
        }
    }

    let mutants = outcomes.len();
    let killed = outcomes.iter().filter(|o| o.killed).count();
    let kill_rate = killed as f64 / mutants as f64;
    let par_tput = mutants as f64 / (parallel_ns as f64 / 1e9);
    let ser_tput = serial.len() as f64 / (serial_ns as f64 / 1e9);
    let speedup = par_tput / ser_tput;

    eprintln!(
        "{:<24} {:>7} {:>7} {:>10}",
        "mutation", "seeds", "killed", "attempts"
    );
    let mut per_kind = String::new();
    for (i, kind) in Mutation::ALL.iter().enumerate() {
        let of_kind: Vec<&MutationOutcome> =
            outcomes.iter().filter(|o| o.mutation == *kind).collect();
        let k = of_kind.iter().filter(|o| o.killed).count();
        let mean_attempts =
            of_kind.iter().map(|o| o.attempts).sum::<usize>() as f64 / of_kind.len() as f64;
        eprintln!(
            "{:<24} {:>7} {:>7} {:>10.2}",
            kind.name(),
            of_kind.len(),
            k,
            mean_attempts
        );
        per_kind.push_str(&format!(
            "    {{\"label\": {}, \"attacks\": {}, \"seeds\": {}, \"killed\": {}, \"mean_attempts\": {:.3}}}{}\n",
            escape(kind.name()),
            escape(kind.attacks()),
            of_kind.len(),
            k,
            mean_attempts,
            if i + 1 == Mutation::ALL.len() { "" } else { "," }
        ));
    }
    for o in outcomes.iter().filter(|o| !o.killed) {
        eprintln!(
            "SURVIVOR {} seed {}: {}",
            o.mutation.name(),
            o.seed,
            o.oracle
        );
    }
    eprintln!(
        "{mutants} mutants, {killed} killed (rate {kill_rate:.3}); \
         parallel {par_tput:.1}/s on {workers} worker(s), serial {ser_tput:.1}/s, speedup {speedup:.2}x; \
         {} coverage buckets",
        coverage.len()
    );

    let out = format!(
        "{{\n  \"name\": \"mutation\",\n  \"kinds\": {},\n  \"seeds_per_kind\": {},\n  \
         \"mutants\": {},\n  \"killed\": {},\n  \"kill_rate\": {:.6},\n  \"workers\": {},\n  \
         \"coverage_buckets\": {},\n  \
         \"parallel\": {{\"mutants\": {}, \"wall_ns\": {}, \"mutants_per_s\": {:.3}}},\n  \
         \"single_thread\": {{\"mutants\": {}, \"wall_ns\": {}, \"mutants_per_s\": {:.3}}},\n  \
         \"speedup_estimate\": {:.3},\n  \"results\": [\n{}  ]\n}}\n",
        Mutation::ALL.len(),
        SEEDS_PER_KIND,
        mutants,
        killed,
        kill_rate,
        workers,
        coverage.len(),
        mutants,
        parallel_ns,
        par_tput,
        serial.len(),
        serial_ns,
        ser_tput,
        speedup,
        per_kind
    );

    let mut failed = Vec::new();
    if mutants == 0 || killed < mutants {
        failed.push(format!(
            "kill rate: {killed} of {mutants} mutants killed — oracle gap"
        ));
    }
    if host_cores >= 4 && speedup < MIN_SPEEDUP {
        failed.push(format!(
            "speedup: {speedup:.2}x < {MIN_SPEEDUP}x on a {host_cores}-core host"
        ));
    }
    drd_bench::finish("mutation", &out, &failed);
}
