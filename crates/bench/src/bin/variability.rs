//! Sync-vs-desync variability Monte Carlo at netgen scale (Fig 5.3–5.5).
//!
//! Three stepped synthetic pipelines go through the full flow; each
//! report projects onto a handshake-level control-network spec
//! (`drd_flow::handshake_spec`) which the event-driven timing simulator
//! elaborates (DESIGN.md §3f). Per design:
//!
//! * a matched-delay tap sweep at nominal silicon (the Fig 5.3 curve:
//!   effective cycle time vs `delay_element::tap_factor`),
//! * a Monte-Carlo campaign of [`CHIPS`] chips per sigma on the grid
//!   [`SIGMA_PCT`]: the desynchronized chip runs at its own silicon's
//!   handshake speed, the synchronous reference must be clocked at the
//!   *population worst* period (Fig 5.4's spread, Fig 5.5's ratio),
//! * a cycle-time histogram at `sigma = 0.15` (Fig 5.4).
//!
//! The binary is also the determinism/performance harness for the
//! parallel driver: the sigma-0.15 campaign runs at 1, 2 and the host
//! worker count and must merge byte-identically; on hosts with at least
//! four cores the aggregate parallel speedup must reach 3x. Zero-sigma
//! campaigns must reproduce the nominal simulation bit for bit. The
//! physical claim gated on exit status is the paper's: the desynchronized
//! *mean* degrades more slowly with sigma than the synchronous
//! *worst case*. A broken simulation stops the run at once; the
//! crossover and speedup gates are checked after `BENCH_variability.json`
//! is written. Any violation exits non-zero.

use std::time::Instant;

use drd_check::netgen::{FfKind, FfRecipe, GateOp, NetRecipe, StageRecipe};
use drd_check::Rng;
use drd_core::delay_element::{tap_factor, MUX_TAPS};
use drd_core::{DesyncOptions, Desynchronizer};
use drd_flow::handshake_spec;
use drd_liberty::vlib90;
use drd_sim::handshake::DEFAULT_MAX_EDGES;
use drd_sim::{ChipSample, GateVariability, HandshakeNet};

/// (stages, cloud gates per stage, register lanes per stage) steps.
const STEPS: [(usize, usize, usize); 3] = [(3, 40, 3), (4, 80, 4), (6, 140, 6)];

/// Monte-Carlo chips per (design, sigma) campaign.
const CHIPS: usize = 1000;
const _: () = assert!(CHIPS >= 1000, "a campaign needs at least 1000 chips");

/// Sigma grid in percent (relative per-gate delay deviation).
const SIGMA_PCT: [usize; 6] = [0, 5, 10, 15, 20, 25];

/// The sigma used for the byte-identity / timing / histogram campaign.
const IDENTITY_SIGMA_PCT: usize = 15;

/// Stepped recipe with *identical* clouds in every stage: equal critical
/// delays give every region the same matched depth, so the open-chain
/// source region's request pulse (set by its successor's response time)
/// always outlasts its own matched delay — the topology is live by
/// construction (see `drd_sim::handshake`'s deadlock notes).
fn recipe(rng: &mut Rng, stages: usize, cloud: usize, width: usize) -> NetRecipe {
    let cloud: Vec<GateOp> = (0..cloud)
        .map(|_| GateOp {
            kind: rng.next_u64() as u8,
            a: rng.range(0, 4096),
            b: rng.range(0, 4096),
        })
        .collect();
    let ffs: Vec<FfRecipe> = (0..width)
        .map(|_| FfRecipe {
            kind: FfKind::Plain,
            d: rng.range(0, 4096),
            aux0: rng.range(0, 4096),
            aux1: rng.range(0, 4096),
        })
        .collect();
    NetRecipe {
        inputs: 4,
        input_bits: rng.next_u64(),
        stages: (0..stages)
            .map(|_| StageRecipe {
                cloud: cloud.clone(),
                ffs: ffs.clone(),
            })
            .collect(),
    }
}

struct SigmaPoint {
    sigma: f64,
    desync_mean_ns: f64,
    desync_min_ns: f64,
    desync_max_ns: f64,
    sync_mean_ns: f64,
    sync_worst_ns: f64,
    fraction_faster: f64,
}

struct Design {
    label: String,
    cells: usize,
    regions: usize,
    controlled: usize,
    nominal_desync_ns: f64,
    nominal_sync_ns: f64,
    taps: Vec<(usize, f64, f64)>,
    curve: Vec<SigmaPoint>,
    hist_lo_ns: f64,
    hist_hi_ns: f64,
    hist_desync: Vec<usize>,
    hist_sync: Vec<usize>,
}

fn stats(samples: &[ChipSample]) -> SigmaPoint {
    let n = samples.len() as f64;
    let desync: Vec<f64> = samples.iter().map(|s| s.desync_cycle_ns).collect();
    let sync: Vec<f64> = samples.iter().map(|s| s.sync_period_ns).collect();
    let sync_worst = sync.iter().copied().fold(0.0f64, f64::max);
    SigmaPoint {
        sigma: 0.0,
        desync_mean_ns: desync.iter().sum::<f64>() / n,
        desync_min_ns: desync.iter().copied().fold(f64::INFINITY, f64::min),
        desync_max_ns: desync.iter().copied().fold(0.0f64, f64::max),
        sync_mean_ns: sync.iter().sum::<f64>() / n,
        sync_worst_ns: sync_worst,
        fraction_faster: desync.iter().filter(|&&d| d < sync_worst).count() as f64 / n,
    }
}

fn bitwise_equal(a: &[ChipSample], b: &[ChipSample]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.chip == y.chip
                && x.desync_cycle_ns.to_bits() == y.desync_cycle_ns.to_bits()
                && x.sync_period_ns.to_bits() == y.sync_period_ns.to_bits()
        })
}

/// 12-bucket histogram of `values` over `[lo, hi]`.
fn histogram(values: impl Iterator<Item = f64>, lo: f64, hi: f64) -> Vec<usize> {
    let mut bins = vec![0usize; 12];
    let width = ((hi - lo) / 12.0).max(f64::MIN_POSITIVE);
    for v in values {
        let k = (((v - lo) / width) as usize).min(11);
        bins[k] += 1;
    }
    bins
}

fn json_usize_array(bins: &[usize]) -> String {
    let items: Vec<String> = bins.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let workers = drd_bench::workers("variability");
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("library prepares");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Rng::new(0xF1C5_53ED);
    let mut serial_total_ns: u128 = 0;
    let mut parallel_total_ns: u128 = 0;
    let mut designs: Vec<Design> = Vec::new();

    for (di, (stages, cloud, width)) in STEPS.into_iter().enumerate() {
        // Screen candidates at every tap up to 1.75x: an open chain whose
        // source region's matched delay outgrows its successor's response
        // wedges — in silicon as in simulation — so a design that
        // survives the extreme taps has liveness margin to spare for the
        // sigma campaigns below. The rng sequence is fixed, so the first
        // surviving recipe per step is deterministic.
        let mut picked = None;
        for _attempt in 0..32 {
            let module = recipe(&mut rng, stages, cloud, width)
                .build()
                .expect("recipe builds");
            let Ok(result) = tool.run(module.clone(), &DesyncOptions::default()).0 else {
                continue;
            };
            let spec = handshake_spec(&result.report, &lib).expect("spec projects");
            let Ok(net) = HandshakeNet::elaborate(&spec, &lib) else {
                continue;
            };
            let ones = vec![1.0f64; net.gate_count()];
            let survives = (0..MUX_TAPS).all(|k| {
                net.cycle_times_scaled(&ones, tap_factor(k), DEFAULT_MAX_EDGES)
                    .is_ok()
            });
            if survives {
                picked = Some((module, spec, net, ones));
                break;
            }
        }
        let Some((module, spec, net, ones)) = picked else {
            eprintln!("design {di}: no candidate survives the full tap sweep in 32 draws");
            std::process::exit(1);
        };
        let cells = module.cells().count();
        let nominal = match net.nominal_cycle_times() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("design {di}: nominal handshake simulation failed: {e}");
                std::process::exit(1);
            }
        };
        let nominal_desync = nominal.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);

        // Fig 5.3: effective cycle time across the delay element's taps
        // at nominal silicon (tap 2 is the matched point).
        let taps: Vec<(usize, f64, f64)> = (0..MUX_TAPS)
            .map(|k| {
                let cycles = net
                    .cycle_times_scaled(&ones, tap_factor(k), DEFAULT_MAX_EDGES)
                    .unwrap_or_else(|e| {
                        eprintln!("design {di} tap {k}: {e}");
                        std::process::exit(1);
                    });
                let worst = cycles.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
                (k, tap_factor(k), worst)
            })
            .collect();

        // Monte-Carlo sigma sweep. One campaign seed per design: the
        // same underlying per-gate draws scaled by each sigma (common
        // random numbers keep the curve smooth).
        let campaign_seed = 0xD15E_A5E0_u64 + di as u64;
        let mut curve: Vec<SigmaPoint> = Vec::new();
        let mut nominal_sync = 0.0f64;
        let mut identity_samples: Option<Vec<ChipSample>> = None;
        for pct in SIGMA_PCT {
            let sigma = pct as f64 / 100.0;
            let var = GateVariability::new(campaign_seed, sigma);
            let samples = if pct == IDENTITY_SIGMA_PCT {
                // Determinism + speedup campaign: serial, two workers,
                // and the host count must merge byte-identically.
                let start = Instant::now();
                let serial = net.monte_carlo(&var, CHIPS, 1).expect("serial campaign");
                serial_total_ns += start.elapsed().as_nanos();
                let two = net.monte_carlo(&var, CHIPS, 2).expect("2-worker campaign");
                let start = Instant::now();
                let par = net
                    .monte_carlo(&var, CHIPS, workers)
                    .expect("parallel campaign");
                parallel_total_ns += start.elapsed().as_nanos();
                if !bitwise_equal(&serial, &two) || !bitwise_equal(&serial, &par) {
                    eprintln!(
                        "design {di}: sigma {sigma} campaign diverged across worker \
                         counts 1/2/{workers}"
                    );
                    std::process::exit(1);
                }
                identity_samples = Some(par);
                serial
            } else {
                net.monte_carlo(&var, CHIPS, workers).expect("campaign")
            };
            if pct == 0 {
                // Zero-sigma chips are the nominal run, bit for bit.
                nominal_sync = samples[0].sync_period_ns;
                for s in &samples {
                    if s.desync_cycle_ns.to_bits() != nominal_desync.to_bits()
                        || s.sync_period_ns.to_bits() != nominal_sync.to_bits()
                    {
                        eprintln!(
                            "design {di}: zero-sigma chip {} is not bitwise nominal \
                             ({} ns vs {} ns)",
                            s.chip, s.desync_cycle_ns, nominal_desync
                        );
                        std::process::exit(1);
                    }
                }
            }
            let mut point = stats(&samples);
            point.sigma = sigma;
            curve.push(point);
        }

        // Fig 5.4: cycle-time spread of both populations at one sigma.
        let identity = identity_samples.expect("identity sigma is on the grid");
        let lo = identity
            .iter()
            .flat_map(|s| [s.desync_cycle_ns, s.sync_period_ns])
            .fold(f64::INFINITY, f64::min);
        let hi = identity
            .iter()
            .flat_map(|s| [s.desync_cycle_ns, s.sync_period_ns])
            .fold(0.0f64, f64::max);
        let hist_desync = histogram(identity.iter().map(|s| s.desync_cycle_ns), lo, hi);
        let hist_sync = histogram(identity.iter().map(|s| s.sync_period_ns), lo, hi);

        let label = format!("{stages}x{cloud}+{width}");
        let controlled = spec.regions.iter().filter(|r| r.controlled).count();
        eprintln!(
            "{label:>10}: {cells} cells, {controlled}/{} regions controlled, nominal \
             desync {nominal_desync:.3} ns / sync {nominal_sync:.3} ns",
            spec.regions.len(),
        );
        designs.push(Design {
            label,
            cells,
            regions: spec.regions.len(),
            controlled,
            nominal_desync_ns: nominal_desync,
            nominal_sync_ns: nominal_sync,
            taps,
            curve,
            hist_lo_ns: lo,
            hist_hi_ns: hi,
            hist_desync,
            hist_sync,
        });
    }

    let speedup = serial_total_ns as f64 / parallel_total_ns.max(1) as f64;
    eprintln!(
        "monte carlo: serial {:.1} ms, parallel({workers}) {:.1} ms, speedup {speedup:.2}x \
         on {host_cores} cores",
        serial_total_ns as f64 / 1e6,
        parallel_total_ns as f64 / 1e6,
    );

    let sigma_items: Vec<String> = SIGMA_PCT
        .iter()
        .map(|p| format!("{:.2}", *p as f64 / 100.0))
        .collect();
    let mut out = String::from("{\n  \"name\": \"variability\",\n");
    out.push_str(&format!("  \"chips\": {CHIPS},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!(
        "  \"sigma_grid\": [{}],\n",
        sigma_items.join(", ")
    ));
    out.push_str(&format!("  \"serial_ns\": {serial_total_ns},\n"));
    out.push_str(&format!("  \"parallel_ns\": {parallel_total_ns},\n"));
    out.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    out.push_str("  \"byte_identical\": true,\n");
    out.push_str("  \"designs\": [\n");
    for (i, d) in designs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"regions\": {}, \
             \"controlled_regions\": {},\n",
            d.label, d.cells, d.regions, d.controlled
        ));
        out.push_str(&format!(
            "     \"nominal_desync_ns\": {:.6}, \"nominal_sync_ns\": {:.6},\n",
            d.nominal_desync_ns, d.nominal_sync_ns
        ));
        out.push_str("     \"taps\": [\n");
        for (j, (k, factor, cycle)) in d.taps.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"tap\": {k}, \"factor\": {factor:.2}, \"cycle_ns\": {cycle:.6}}}{}\n",
                if j + 1 == d.taps.len() { "" } else { "," }
            ));
        }
        out.push_str("     ],\n     \"curve\": [\n");
        for (j, p) in d.curve.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"sigma\": {:.2}, \"desync_mean_ns\": {:.6}, \
                 \"desync_min_ns\": {:.6}, \"desync_max_ns\": {:.6}, \
                 \"sync_mean_ns\": {:.6}, \"sync_worst_ns\": {:.6}, \
                 \"desync_mean_norm\": {:.6}, \"sync_worst_norm\": {:.6}, \
                 \"speed_ratio\": {:.6}, \"fraction_faster\": {:.4}}}{}\n",
                p.sigma,
                p.desync_mean_ns,
                p.desync_min_ns,
                p.desync_max_ns,
                p.sync_mean_ns,
                p.sync_worst_ns,
                p.desync_mean_ns / d.nominal_desync_ns,
                p.sync_worst_ns / d.nominal_sync_ns,
                p.sync_worst_ns / p.desync_mean_ns,
                p.fraction_faster,
                if j + 1 == d.curve.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "     ],\n     \"histogram\": {{\"sigma\": {:.2}, \"lo_ns\": {:.6}, \
             \"hi_ns\": {:.6}, \"desync\": {}, \"sync\": {}}}}}{}\n",
            IDENTITY_SIGMA_PCT as f64 / 100.0,
            d.hist_lo_ns,
            d.hist_hi_ns,
            json_usize_array(&d.hist_desync),
            json_usize_array(&d.hist_sync),
            if i + 1 == designs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    // The paper's variability-tolerance claim (Fig 5.4/5.5): as sigma
    // grows, the desynchronized mean must degrade more slowly than the
    // synchronous population worst case, on every design.
    let mut failed = Vec::new();
    for d in &designs {
        let last = d.curve.last().expect("sigma grid non-empty");
        let desync_norm = last.desync_mean_ns / d.nominal_desync_ns;
        let sync_norm = last.sync_worst_ns / d.nominal_sync_ns;
        if desync_norm >= sync_norm {
            failed.push(format!(
                "crossover: {}: none at sigma {} — desync mean degraded {:.4}x, sync worst \
                 case {:.4}x",
                d.label, last.sigma, desync_norm, sync_norm
            ));
        }
    }
    if host_cores >= 4 && workers >= 4 && speedup < 3.0 {
        failed.push(format!(
            "speedup: parallel Monte Carlo {speedup:.2}x < 3x on a {host_cores}-core host"
        ));
    }
    drd_bench::finish("variability", &out, &failed);
}
