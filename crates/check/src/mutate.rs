//! Mutation testing for the desynchronization oracles: inject a
//! paper-meaningful fault into a *correct* desynchronized design (or its
//! control protocol) and assert the verification stack notices.
//!
//! Property-based fuzzing answers "does the flow produce correct
//! circuits?"; mutation testing answers the meta-question "would the
//! oracles *notice* if it didn't?". Each [`Mutation`] variant corrupts
//! one ingredient the paper's correctness argument rests on:
//!
//! * the C-element rendezvous trees (§2.4.3, Table 2.1) — drop,
//!   duplicate, or degrade one to an OR gate;
//! * the master/slave latch discipline (§2.3, Fig. 3.1) — swap a pair's
//!   enable phases, force an enable transparent or opaque, or skip one
//!   region's flip-flop substitution entirely;
//! * the 4-phase req/ack handshake (§2.4, Fig. 2.7) — tie off a request
//!   or acknowledge wire;
//! * the matched delays (§3.1.4) — bypass a delay element, or strip its
//!   `set_min_delay` floor from the SDC (§4.5);
//! * the backend constraints (§4.4–4.6) — strip a loop-break or
//!   `size_only` line;
//! * the DFT scan chain (§4.3) — disconnect one scan mux's scan-in or
//!   scan-enable leg, silently un-stitching the chain;
//! * the handshake protocol itself (§2.2, Fig. 2.4) — substitute the
//!   non-flow-equivalent fall-decoupled protocol, or drop one causality
//!   arc from the semi-decoupled STG.
//!
//! A mutant is **killed** when [`crate::diff::verify_result`] (or, for
//! protocol mutants, the STG flow-equivalence check) rejects it. A
//! surviving mutant is an oracle gap; the harness shrinks the netlist it
//! survived on via the [`crate::prop::Shrink`] machinery and reports it.
//!
//! Everything is deterministic in `(Mutation, seed)`: recipes come from a
//! seeded coverage-guided sampler ([`crate::cover`]), the fault site from
//! a seeded pick over the design's mutation points. Campaigns fan out on
//! the work-stealing runner ([`crate::runner`]).

use drd_core::pipeline::{
    CleanPass, ClockIdPass, ControlNetworkPass, DdgPass, GroupPass, RegionDelaysPass, SdcPass,
};
use drd_core::{
    ffsub, DesyncError, DesyncOptions, DesyncResult, Desynchronizer, FlowContext, LivenessAction,
    Pass, PassReport, Pipeline,
};
use drd_liberty::gatefile::Gatefile;
use drd_liberty::{Library, Lv};
use drd_netlist::{CellId, Conn, Design, Module};
use drd_sim::{SimOptions, Simulator};
use drd_stg::flow_equiv::{check_flow_equivalence, FlowEquivalence};
use drd_stg::protocols::Protocol;
use drd_stg::Stg;

use crate::cover::{self, Coverage};
use crate::diff::{verify_result, DiffConfig};
use crate::netgen::{NetGenParams, NetRecipe};
use crate::prop::Shrink;
use crate::rng::Rng;

/// Recipes sampled before declaring a mutation inapplicable.
const MAX_ATTEMPTS: usize = 32;
/// Shrink-candidate budget for a surviving mutant.
const MAX_SHRINK_STEPS: usize = 64;

/// The mutation taxonomy. Every variant names a fault class the paper's
/// construction must exclude — see the module docs for the mapping to
/// paper sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Remove one C-element from a request/acknowledge join tree and
    /// short its inputs past it (a rendezvous that no longer waits).
    DropCElement,
    /// Clone one join-tree C-element onto a dangling output (the inserted
    /// control network no longer matches the report).
    DuplicateCElement,
    /// Replace one join-tree C-element with an OR gate — rises on *any*
    /// input instead of *all* (Table 2.1 broken in the fast direction).
    CElementToOr,
    /// Swap the master/slave enable phases of one latch pair (the §2.3
    /// two-phase discipline inverted for one stage).
    SwapLatchPhases,
    /// Tie one master controller's request input to constant 0 — the
    /// handshake upstream of that region never fires.
    StuckRequest,
    /// Tie one slave controller's acknowledge input to constant 1 — the
    /// controller stops waiting for its successors.
    StuckAck,
    /// Detach one latch enable from its controller and force it
    /// transparent (constant 1).
    DetachLatchEnable,
    /// Force one latch enable opaque (constant 0) — the latch never
    /// captures again.
    EnableStuckOpaque,
    /// Remove one matched delay element and wire the request straight
    /// through (§3.1.4's timing assumption silently dropped).
    BypassDelayElement,
    /// Run a flow variant whose `ffsub` pass skips one region: its
    /// flip-flops stay clocked while the rest of the design handshakes.
    SkipRegionFfSub,
    /// Strip one `set_min_delay` matched-delay floor from the SDC (§4.5).
    SdcDropMinDelay,
    /// Strip one controller loop-break (`u_nro/A` disable) line from the
    /// SDC (§4.4).
    SdcDropLoopBreak,
    /// Strip one `set_size_only` controller-preservation line from the
    /// SDC (§4.6).
    SdcDropSizeOnly,
    /// Swap the handshake protocol for fall-decoupled — live, but not
    /// flow-equivalent (Fig. 2.4's counterexample).
    ProtocolFallDecoupled,
    /// Drop one causality arc from the semi-decoupled protocol STG.
    ProtocolDropArc,
    /// Corrupt the *input* synchronous netlist before the flow runs — an
    /// undriven net, a multiply-driven net, or a dangling instance pin
    /// (seed-selected). Killed when the guarded pipeline reports a
    /// structured diagnostic (never a panic) or the oracles reject the
    /// output.
    CorruptInput,
    /// Tie one scan mux's scan-in or scan-enable leg (seed-selected) to
    /// constant 0 — the chain is silently un-stitched while functional
    /// behaviour is untouched (§4.3). Only the structural scan-chain
    /// oracle can see it: scan shifting never happens in a functional
    /// workload.
    BrokenScanStitch,
    /// Undo one liveness repair in the netlist while the report still
    /// claims it (DESIGN §3i): shrink a deepened delay element back to
    /// its pre-repair depth, or strip a request-extending latch and
    /// rewire the bare loopback. The repaired handshake spec projected
    /// from the pristine report still simulates live, so only the
    /// structural liveness oracle — measuring the *netlist's* depths and
    /// latches — can see the reopened pulse-swallowing hazard.
    SwallowedRequest,
}

impl Mutation {
    /// Every mutation kind, netlist-level first. Append-only: `salt`
    /// is position-based, so reordering would reshuffle seed streams.
    pub const ALL: [Mutation; 18] = [
        Mutation::DropCElement,
        Mutation::DuplicateCElement,
        Mutation::CElementToOr,
        Mutation::SwapLatchPhases,
        Mutation::StuckRequest,
        Mutation::StuckAck,
        Mutation::DetachLatchEnable,
        Mutation::EnableStuckOpaque,
        Mutation::BypassDelayElement,
        Mutation::SkipRegionFfSub,
        Mutation::SdcDropMinDelay,
        Mutation::SdcDropLoopBreak,
        Mutation::SdcDropSizeOnly,
        Mutation::ProtocolFallDecoupled,
        Mutation::ProtocolDropArc,
        Mutation::CorruptInput,
        Mutation::BrokenScanStitch,
        Mutation::SwallowedRequest,
    ];

    /// Stable kebab-case name (used in reports and `BENCH_mutation.json`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropCElement => "drop-celement",
            Mutation::DuplicateCElement => "duplicate-celement",
            Mutation::CElementToOr => "celement-to-or",
            Mutation::SwapLatchPhases => "swap-latch-phases",
            Mutation::StuckRequest => "stuck-request",
            Mutation::StuckAck => "stuck-ack",
            Mutation::DetachLatchEnable => "detach-latch-enable",
            Mutation::EnableStuckOpaque => "enable-stuck-opaque",
            Mutation::BypassDelayElement => "bypass-delay-element",
            Mutation::SkipRegionFfSub => "skip-region-ffsub",
            Mutation::SdcDropMinDelay => "sdc-drop-min-delay",
            Mutation::SdcDropLoopBreak => "sdc-drop-loop-break",
            Mutation::SdcDropSizeOnly => "sdc-drop-size-only",
            Mutation::ProtocolFallDecoupled => "protocol-fall-decoupled",
            Mutation::ProtocolDropArc => "protocol-drop-arc",
            Mutation::CorruptInput => "corrupt-input",
            Mutation::BrokenScanStitch => "broken-scan-stitch",
            Mutation::SwallowedRequest => "swallowed-request",
        }
    }

    /// The paper property this mutation attacks (for the taxonomy table).
    pub fn attacks(self) -> &'static str {
        match self {
            Mutation::DropCElement => "C-element rendezvous, Table 2.1 / §2.4.3",
            Mutation::DuplicateCElement => "join-tree structure, §3.1.5",
            Mutation::CElementToOr => "C-element truth table, Table 2.1",
            Mutation::SwapLatchPhases => "master/slave phases, §2.3 / Fig. 3.1",
            Mutation::StuckRequest => "4-phase request, §2.4 / Fig. 2.7",
            Mutation::StuckAck => "4-phase acknowledge, §2.4 / Fig. 2.7",
            Mutation::DetachLatchEnable => "latch enable wiring, Fig. 3.1",
            Mutation::EnableStuckOpaque => "latch enable wiring, Fig. 3.1",
            Mutation::BypassDelayElement => "matched delays, §3.1.4",
            Mutation::SkipRegionFfSub => "complete FF substitution, §3.2.4",
            Mutation::SdcDropMinDelay => "min-delay floor, §4.5",
            Mutation::SdcDropLoopBreak => "timing-loop breaking, §4.4",
            Mutation::SdcDropSizeOnly => "controller preservation, §4.6",
            Mutation::ProtocolFallDecoupled => "flow equivalence, §2.2 / Fig. 2.4",
            Mutation::ProtocolDropArc => "protocol causality arcs, §2.2",
            Mutation::CorruptInput => "guarded ingestion / structured diagnostics, DESIGN §3d",
            Mutation::BrokenScanStitch => "scan-chain stitching, §4.3",
            Mutation::SwallowedRequest => "liveness repairs, DESIGN §3i",
        }
    }

    /// Protocol-level mutations run against the STG oracles, not a
    /// netlist.
    pub fn is_protocol_level(self) -> bool {
        matches!(
            self,
            Mutation::ProtocolFallDecoupled | Mutation::ProtocolDropArc
        )
    }

    /// Input-level mutations corrupt the synchronous netlist *before*
    /// the flow instead of the desynchronized result after it.
    pub fn is_input_level(self) -> bool {
        matches!(self, Mutation::CorruptInput)
    }

    /// Per-kind salt so every kind consumes an independent seed stream.
    fn salt(self) -> u64 {
        let i = Mutation::ALL.iter().position(|m| *m == self).unwrap() as u64;
        0x6D75_7461_7465_2121 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The result of running one mutant.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Which fault was injected.
    pub mutation: Mutation,
    /// The campaign seed this mutant was derived from.
    pub seed: u64,
    /// True when an oracle rejected the mutant.
    pub killed: bool,
    /// The rejecting oracle's first line (killed), or the survival report
    /// with the shrunk netlist (survived).
    pub oracle: String,
    /// The netlist the mutant ran on (`None` for protocol-level kinds).
    pub recipe: Option<NetRecipe>,
    /// Recipes sampled before an applicable fault site was found.
    pub attempts: usize,
}

fn brief(s: &str) -> String {
    s.lines().next().unwrap_or("").chars().take(200).collect()
}

/// Runs one `(mutation, seed)` mutant end to end: sample netlists until
/// the fault is applicable, inject it, run the oracle stack, shrink any
/// survivor. Deterministic in its arguments.
pub fn run_mutation(
    mutation: Mutation,
    seed: u64,
    lib: &Library,
    config: &DiffConfig,
) -> MutationOutcome {
    if mutation.is_protocol_level() {
        return run_protocol_mutation(mutation, seed);
    }
    if mutation.is_input_level() {
        return run_corruption_mutation(mutation, seed, lib, config);
    }
    let mut rng = Rng::new(seed ^ mutation.salt());
    let params = NetGenParams::default();
    // A local coverage map makes successive attempts structurally diverse
    // (multi-region shapes show up quickly for join-targeting mutations)
    // while keeping the whole task deterministic in (mutation, seed).
    let mut coverage = Coverage::new();
    for attempt_no in 1..=MAX_ATTEMPTS {
        let recipe = if mutation == Mutation::SwallowedRequest {
            // This kind only applies where the liveness guard fired:
            // sample imbalanced open chains until a flow carries repairs.
            let mut r = cover::sample_guided(&mut rng, &params, &mut coverage, 4);
            r.imbalance(rng.range(10, 28));
            r
        } else {
            cover::sample_guided(&mut rng, &params, &mut coverage, 4)
        };
        let site_seed = rng.next_u64();
        match attempt(mutation, site_seed, &recipe, lib, config) {
            Verdict::NotApplicable => continue,
            Verdict::Killed(why) => {
                return MutationOutcome {
                    mutation,
                    seed,
                    killed: true,
                    oracle: why,
                    recipe: Some(recipe),
                    attempts: attempt_no,
                }
            }
            Verdict::Survived => {
                let (shrunk, steps) = shrink_survivor(mutation, site_seed, recipe, lib, config);
                return MutationOutcome {
                    mutation,
                    seed,
                    killed: false,
                    oracle: format!(
                        "SURVIVED ({} shrink attempts) — every oracle accepted the mutant\n\
                         --- smallest surviving netlist ---\n{}",
                        steps,
                        shrunk.verilog()
                    ),
                    recipe: Some(shrunk),
                    attempts: attempt_no,
                };
            }
        }
    }
    MutationOutcome {
        mutation,
        seed,
        killed: false,
        oracle: format!("no applicable fault site in {MAX_ATTEMPTS} sampled netlists"),
        recipe: None,
        attempts: MAX_ATTEMPTS,
    }
}

enum Verdict {
    NotApplicable,
    Killed(String),
    Survived,
}

/// One mutant attempt on one recipe: clean flow must pass verification,
/// then the injected fault must make it fail.
fn attempt(
    mutation: Mutation,
    site_seed: u64,
    recipe: &NetRecipe,
    lib: &Library,
    config: &DiffConfig,
) -> Verdict {
    let Ok(module) = recipe.build() else {
        return Verdict::NotApplicable;
    };
    let Ok(tool) = Desynchronizer::new(lib) else {
        return Verdict::NotApplicable;
    };
    let Ok(clean) = tool.run(module, &DesyncOptions::default()).0 else {
        return Verdict::NotApplicable;
    };
    // Only attack designs the oracles accept when unmutated, so a kill is
    // attributable to the fault and not to a flaky baseline.
    if verify_result(recipe, lib, config, &clean).is_err() {
        return Verdict::NotApplicable;
    }
    let Some(mutant) = apply(mutation, site_seed, recipe, &clean, lib) else {
        return Verdict::NotApplicable;
    };
    match verify_result(recipe, lib, config, &mutant) {
        Err(why) => Verdict::Killed(brief(&why)),
        Ok(_) => Verdict::Survived,
    }
}

/// Greedy recipe shrinking that preserves "the mutant survives" — the
/// same discipline [`crate::prop`] uses for failing property inputs.
fn shrink_survivor(
    mutation: Mutation,
    site_seed: u64,
    recipe: NetRecipe,
    lib: &Library,
    config: &DiffConfig,
) -> (NetRecipe, usize) {
    let mut current = recipe;
    let mut steps = 0usize;
    let mut progressed = true;
    while progressed && steps < MAX_SHRINK_STEPS {
        progressed = false;
        for candidate in current.shrink() {
            steps += 1;
            if matches!(
                attempt(mutation, site_seed, &candidate, lib, config),
                Verdict::Survived
            ) {
                current = candidate;
                progressed = true;
                break;
            }
            if steps >= MAX_SHRINK_STEPS {
                break;
            }
        }
    }
    (current, steps)
}

/// Applies `mutation` to a clean flow result, returning the corrupted
/// result (with the **pristine** report, so bookkeeping checks can't kill
/// the mutant trivially — structure and behaviour must). `None` when the
/// design has no applicable fault site.
pub fn apply(
    mutation: Mutation,
    site_seed: u64,
    recipe: &NetRecipe,
    clean: &DesyncResult,
    lib: &Library,
) -> Option<DesyncResult> {
    let mut rng = Rng::new(site_seed);
    match mutation {
        Mutation::SkipRegionFfSub => apply_skip_ffsub(recipe, clean, lib, &mut rng),
        Mutation::SwallowedRequest => apply_swallowed_request(clean, lib, &mut rng),
        Mutation::SdcDropMinDelay | Mutation::SdcDropLoopBreak | Mutation::SdcDropSizeOnly => {
            let keep: fn(&str) -> bool = match mutation {
                Mutation::SdcDropMinDelay => |l| l.starts_with("set_min_delay"),
                Mutation::SdcDropLoopBreak => |l| l.contains("/u_nro/A"),
                _ => |l| l.starts_with("set_size_only"),
            };
            let lines: Vec<&str> = clean.sdc.lines().collect();
            let hits: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| keep(l))
                .map(|(i, _)| i)
                .collect();
            if hits.is_empty() {
                return None;
            }
            let drop = *rng.choose(&hits);
            let mut sdc = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i != drop {
                    sdc.push_str(l);
                    sdc.push('\n');
                }
            }
            Some(DesyncResult {
                sdc,
                ..clean.clone()
            })
        }
        _ => {
            let mut mutant = clean.clone();
            apply_netlist(mutation, mutant.design.top_module_mut(), &mut rng)?;
            Some(mutant)
        }
    }
}

/// Seeded pick over the cells matching `select`.
fn pick_cell(
    m: &Module,
    rng: &mut Rng,
    select: impl Fn(&drd_netlist::Cell) -> bool,
) -> Option<CellId> {
    let targets: Vec<CellId> = m
        .cells()
        .filter(|(_, c)| select(c))
        .map(|(id, _)| id)
        .collect();
    if targets.is_empty() {
        None
    } else {
        Some(*rng.choose(&targets))
    }
}

fn apply_netlist(mutation: Mutation, m: &mut Module, rng: &mut Rng) -> Option<()> {
    match mutation {
        Mutation::DropCElement => {
            let id = pick_cell(m, rng, |c| c.kind_name() == "C2X1")?;
            let cell = m.cell(id);
            let z = cell.pin("Z")?.net()?;
            let a = cell.pin("A")?;
            m.remove_cell(id);
            m.rewire_net(z, a);
        }
        Mutation::DuplicateCElement => {
            let id = pick_cell(m, rng, |c| c.kind_name() == "C2X1")?;
            let cell = m.cell(id);
            let (a, b) = (cell.pin("A")?, cell.pin("B")?);
            let base = cell.name.to_owned();
            let dangling = m.add_net_auto(&format!("{base}_dup"));
            let name = m.unique_cell_name(&format!("{base}_dup"));
            m.add_cell(
                name,
                "C2X1",
                &[("A", a), ("B", b), ("Z", Conn::Net(dangling))],
            )
            .ok()?;
        }
        Mutation::CElementToOr => {
            let id = pick_cell(m, rng, |c| c.kind_name() == "C2X1")?;
            let cell = m.cell(id);
            let name = cell.name.to_owned();
            let pins: Vec<(String, Conn)> = (0..cell.pins().len())
                .map(|i| (cell.pin_name(i).to_owned(), cell.pins()[i].1))
                .collect();
            m.remove_cell(id);
            let pin_refs: Vec<(&str, Conn)> = pins.iter().map(|(p, c)| (p.as_str(), *c)).collect();
            m.add_cell(name, "OR2X1", &pin_refs).ok()?;
        }
        Mutation::SwapLatchPhases => {
            let masters: Vec<(CellId, CellId)> = m
                .cells()
                .filter(|(_, c)| c.name.ends_with("_lm"))
                .filter_map(|(id, c)| {
                    let slave = format!("{}_ls", c.name.strip_suffix("_lm")?);
                    Some((id, m.find_cell(&slave)?))
                })
                .collect();
            if masters.is_empty() {
                return None;
            }
            let (lm, ls) = *rng.choose(&masters);
            let gm = m.cell(lm).pin("G")?;
            let gs = m.cell(ls).pin("G")?;
            m.set_pin(lm, "G", gs);
            m.set_pin(ls, "G", gm);
        }
        Mutation::StuckRequest => {
            let id = pick_cell(m, rng, |c| c.kind_name() == "drd_ctrl_master")?;
            m.set_pin(id, "ri", Conn::Const0);
        }
        Mutation::StuckAck => {
            let id = pick_cell(m, rng, |c| c.kind_name() == "drd_ctrl_slave")?;
            m.set_pin(id, "ao", Conn::Const1);
        }
        Mutation::DetachLatchEnable => {
            let id = pick_cell(m, rng, |c| {
                c.name.ends_with("_lm") || c.name.ends_with("_ls")
            })?;
            m.set_pin(id, "G", Conn::Const1);
        }
        Mutation::EnableStuckOpaque => {
            let id = pick_cell(m, rng, |c| {
                c.name.ends_with("_lm") || c.name.ends_with("_ls")
            })?;
            m.set_pin(id, "G", Conn::Const0);
        }
        Mutation::BrokenScanStitch => {
            let id = pick_cell(m, rng, |c| {
                c.kind_name() == "MUX2X1" && c.name.ends_with("_smx")
            })?;
            // Breaking either leg un-stitches the chain: B is the
            // scan-in data path, S the shared scan-enable select.
            let leg = if rng.next_u64() & 1 == 0 { "B" } else { "S" };
            m.set_pin(id, leg, Conn::Const0);
        }
        Mutation::BypassDelayElement => {
            let id = pick_cell(m, rng, |c| c.kind_name().starts_with("drd_delem"))?;
            let cell = m.cell(id);
            let out = cell.pin("out1")?.net()?;
            let inp = cell.pin("in1")?;
            m.remove_cell(id);
            m.rewire_net(out, inp);
        }
        _ => unreachable!("handled in apply()"),
    }
    Some(())
}

/// Undoes one seed-selected liveness repair in the netlist while the
/// report keeps claiming it — the repaired spec still *projects* live,
/// so only the structural liveness oracle sees the reopened hazard. The
/// repaired cells are reached through the result's control table.
/// `None` when the clean flow recorded no undoable repair.
fn apply_swallowed_request(
    clean: &DesyncResult,
    lib: &Library,
    rng: &mut Rng,
) -> Option<DesyncResult> {
    let undoable: Vec<&drd_core::LivenessRepair> = clean
        .report
        .liveness_repairs
        .iter()
        .filter(|lr| !matches!(lr.action, LivenessAction::Degrade))
        .collect();
    if undoable.is_empty() {
        return None;
    }
    let lr = *rng.choose(&undoable);
    let mut mutant = clean.clone();
    let design = &mut mutant.design;
    let top = design.top();
    match &lr.action {
        LivenessAction::DeepenSuccessor {
            successor,
            from_levels,
            ..
        } => {
            let id = clean.control(successor)?.delem;
            let muxed = design
                .module(top)
                .cell(id)
                .kind_name()
                .starts_with("drd_delemx_");
            let shallow = drd_core::network::delem_module_name(muxed, *from_levels);
            if design.find_module(&shallow).is_none() {
                let module = if muxed {
                    let overhead = drd_core::delay_element::mux_overhead_levels(lib).ok()?;
                    drd_core::delay_element::build_muxed(&shallow, *from_levels, overhead)
                } else {
                    drd_core::delay_element::build_fixed(&shallow, *from_levels)
                };
                design.insert(module);
            }
            let m = design.module_mut(top);
            let kind = m.instance_kind(&shallow);
            m.set_cell_kind(id, kind);
        }
        LivenessAction::RequestLatch => {
            let ctl = clean.control(&lr.region)?;
            let (latch, inv) = ctl.latch?;
            let m = design.module_mut(top);
            m.set_pin(ctl.delem, "in1", Conn::Net(ctl.ros));
            m.remove_cell(latch);
            m.remove_cell(inv);
        }
        LivenessAction::Degrade => unreachable!("filtered above"),
    }
    Some(mutant)
}

/// A standard-flow variant whose `ffsub` stage creates every region's
/// enable nets, and records them for `control-network` as `ffsub` does,
/// but skips one region's substitution.
struct SkipOneFfSub {
    selector: u64,
}

impl Pass for SkipOneFfSub {
    fn name(&self) -> &'static str {
        "ffsub"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let regions = cx
            .regions()
            .ok_or_else(|| DesyncError::Pipeline {
                message: "regions not available — run the `group` pass first".into(),
            })?
            .clone();
        let controlled: Vec<usize> = regions
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.seq_cells.is_empty())
            .map(|(i, _)| i)
            .collect();
        if controlled.is_empty() {
            return Err(DesyncError::Pipeline {
                message: "no controlled region to skip".into(),
            });
        }
        let skip = controlled[(self.selector as usize) % controlled.len()];
        let mut sub = ffsub::Substituter::new(cx.library(), cx.gatefile());
        let mut substituted = 0usize;
        let mut enables = vec![None; regions.regions.len()];
        let first_cell = cx.working_module_mut()?.cell_slots();
        for &i in &controlled {
            let r = &regions.regions[i];
            let working = cx.working_module_mut()?;
            let (gm, gs) = sub.add_enable_nets(working, &r.name);
            enables[i] = Some((gm, gs));
            if i == skip {
                continue;
            }
            let rep = sub.substitute(working, &r.seq_cells, gm, gs)?;
            substituted += rep.substituted;
        }
        let cells = first_cell..cx.working_module_mut()?.cell_slots();
        cx.record_substitution(ffsub::Substitution { enables, cells });
        Ok(PassReport::new(
            vec!["substituted-ffs"],
            format!("{substituted} flip-flops substituted, region {skip} skipped"),
        ))
    }
}

fn apply_skip_ffsub(
    recipe: &NetRecipe,
    clean: &DesyncResult,
    lib: &Library,
    rng: &mut Rng,
) -> Option<DesyncResult> {
    let module = recipe.build().ok()?;
    let gatefile = Gatefile::from_library(lib).ok()?;
    let mut cx = FlowContext::new(lib, &gatefile, module, DesyncOptions::default());
    let mut pipe = Pipeline::empty();
    pipe.push(Box::new(CleanPass))
        .push(Box::new(ClockIdPass))
        .push(Box::new(GroupPass))
        .push(Box::new(DdgPass))
        .push(Box::new(RegionDelaysPass))
        .push(Box::new(SkipOneFfSub {
            selector: rng.next_u64(),
        }))
        .push(Box::new(ControlNetworkPass))
        .push(Box::new(SdcPass));
    pipe.run(&mut cx).ok()?;
    let mutated = cx.into_result().ok()?;
    Some(DesyncResult {
        report: clean.report.clone(),
        ..mutated
    })
}

/// Simulates `module` synchronously with the recipe's pokes and clock.
/// `None` when the simulator refuses the module (a structurally broken
/// corruption — e.g. a multiply-driven net — counts as observable).
fn sync_sim(
    recipe: &NetRecipe,
    module: Module,
    lib: &Library,
    config: &DiffConfig,
) -> Option<Simulator> {
    let mut design = Design::new();
    design.insert(module);
    let mut sim = Simulator::new(&design, lib, SimOptions::default()).ok()?;
    for i in 0..recipe.inputs.max(1) {
        let v = Lv::from_bool((recipe.input_bits >> i) & 1 == 1);
        sim.poke(&recipe.input_name(i), v).ok()?;
    }
    sim.schedule_clock(
        "clk",
        config.clock_period_ns,
        config.clock_period_ns / 2.0,
        config.sync_cycles,
    )
    .ok()?;
    sim.run_for(config.clock_period_ns * (config.sync_cycles + 2) as f64);
    Some(sim)
}

/// Injects one seed-selected pre-flow corruption into the synchronous
/// module, returning a description of what was broken. Falls back to
/// double-driving the clock net (always present in a clocked design)
/// when the preferred fault site is missing.
fn corrupt_input(m: &mut Module, rng: &mut Rng) -> &'static str {
    match rng.next_u64() % 3 {
        0 => {
            // A second driver onto an already-driven net.
            let driven: Vec<_> = m
                .cells()
                .flat_map(|(_, c)| {
                    (0..c.pins().len())
                        .filter(move |&i| matches!(c.pin_name(i), "Z" | "Q"))
                        .filter_map(move |i| c.pins()[i].1.net())
                })
                .collect();
            if !driven.is_empty() {
                let victim = *rng.choose(&driven);
                let name = m.unique_cell_name("corrupt_drv");
                if m.add_cell(
                    name,
                    "INVX1",
                    &[("A", Conn::Const0), ("Z", Conn::Net(victim))],
                )
                .is_ok()
                {
                    return "multiply-driven net";
                }
            }
        }
        1 => {
            // A register data input rewired to a fresh net nothing
            // drives: the register captures X from then on.
            if let Some(id) = pick_cell(m, rng, |c| c.pin("D").is_some()) {
                let undriven = m.add_net_auto("corrupt_undriven");
                m.set_pin(id, "D", Conn::Net(undriven));
                return "undriven net";
            }
        }
        _ => {
            // A register data pin left dangling (`.D()`).
            if let Some(id) = pick_cell(m, rng, |c| c.pin("D").is_some()) {
                m.set_pin(id, "D", Conn::Open);
                return "dangling instance pin";
            }
        }
    }
    let clk = m.find_net("clk").expect("generated netlists are clocked");
    let name = m.unique_cell_name("corrupt_drv");
    m.add_cell(name, "INVX1", &[("A", Conn::Const0), ("Z", Conn::Net(clk))])
        .expect("fresh cell name");
    "multiply-driven clock net"
}

/// Runs one input-corruption mutant: break the synchronous netlist
/// before the flow and require the guarded pipeline (or, if the flow
/// completes, the downstream oracles) to reject it with a structured
/// diagnostic. A caught panic counts as killed — the process survived —
/// but the oracle line flags it, and the unit tests require the
/// diagnostics to be panic-free.
fn run_corruption_mutation(
    mutation: Mutation,
    seed: u64,
    lib: &Library,
    config: &DiffConfig,
) -> MutationOutcome {
    let mut rng = Rng::new(seed ^ mutation.salt());
    let recipe = NetRecipe::sample(&mut rng, &NetGenParams::default());
    let outcome = |killed: bool, oracle: String| MutationOutcome {
        mutation,
        seed,
        killed,
        oracle,
        recipe: Some(recipe.clone()),
        attempts: 1,
    };
    let (Ok(pristine), Ok(tool)) = (recipe.build(), Desynchronizer::new(lib)) else {
        return outcome(
            false,
            "no applicable fault site (recipe did not build)".into(),
        );
    };
    // Observability gate: a data fault can be behaviorally masked (an
    // asserted async set/reset dominates `D`, a never-initialized
    // feedback register never leaves X) — an *equivalent mutant* no
    // oracle can or should kill. Keep drawing corruption sites until
    // the corrupted module's synchronous captures differ from the
    // pristine reference, or the simulator refuses the module outright
    // (a structural break is observable by definition).
    let reference = sync_sim(&recipe, pristine.clone(), lib, config);
    let mut picked = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut candidate = pristine.clone();
        let what = corrupt_input(&mut candidate, &mut rng);
        let observable = match (
            &reference,
            sync_sim(&recipe, candidate.clone(), lib, config),
        ) {
            (_, None) | (None, _) => true,
            (Some(r), Some(c)) => recipe
                .ff_names()
                .iter()
                .any(|ff| r.captures().sequence(ff) != c.captures().sequence(ff)),
        };
        if observable {
            picked = Some((candidate, what, attempt));
            break;
        }
    }
    let Some((module, what, attempts)) = picked else {
        return outcome(
            false,
            format!("no synchronously observable fault site in {MAX_ATTEMPTS} attempts"),
        );
    };
    let outcome = |killed: bool, oracle: String| MutationOutcome {
        attempts,
        ..outcome(killed, oracle)
    };
    match tool.run(module, &DesyncOptions::default()).0 {
        Err(e @ DesyncError::Panic { .. }) => {
            outcome(true, brief(&format!("PANIC caught on {what}: {e}")))
        }
        Err(e) => outcome(true, brief(&format!("guarded flow rejected {what}: {e}"))),
        Ok(result) => match verify_result(&recipe, lib, config, &result) {
            Err(why) => outcome(true, brief(&format!("oracles rejected {what}: {why}"))),
            Ok(_) => outcome(
                false,
                format!("SURVIVED — every oracle accepted a flow over a {what}"),
            ),
        },
    }
}

/// The semi-decoupled arc table of Fig. 2.4 (mirrors
/// [`Protocol::SemiDecoupled`]'s encoding), exposed so the arc-drop
/// mutation and its tests agree on indices.
pub const SEMI_DECOUPLED_ARCS: [(&str, &str, u8); 6] = [
    ("A+", "A-", 0),
    ("A-", "A+", 1),
    ("B+", "B-", 0),
    ("B-", "B+", 1),
    ("A-", "B-", 0),
    ("B-", "A+", 1),
];

/// Arc indices whose removal changes the protocol's behaviour. Index 1
/// (`A- → A+`) is excluded: it is *implied* — every `B-` is preceded by a
/// fresh `A-` (arc `A- → B-`), so the marked `B- → A+` place already
/// enforces the A alternation and dropping the implied place yields an
/// equivalent net, not a mutant.
pub const DROPPABLE_ARCS: [usize; 5] = [0, 2, 3, 4, 5];

fn run_protocol_mutation(mutation: Mutation, seed: u64) -> MutationOutcome {
    // A modest state limit: a real violation surfaces within a few
    // thousand states, and several arc-drop mutants are *unbounded* —
    // running into the limit is itself a kill (the oracle refuses the
    // net), so a large bound only buys wasted exploration.
    const STATE_LIMIT: usize = 1 << 16;
    let fe = match mutation {
        Mutation::ProtocolFallDecoupled => {
            check_flow_equivalence(&Protocol::FallDecoupled.stg(), 4, STATE_LIMIT)
        }
        Mutation::ProtocolDropArc => {
            let drop = DROPPABLE_ARCS[(seed % DROPPABLE_ARCS.len() as u64) as usize];
            let mut s = Stg::new(&["A", "B"]);
            for (i, (from, to, tokens)) in SEMI_DECOUPLED_ARCS.iter().enumerate() {
                if i != drop {
                    s.arc(from, to, *tokens).expect("static labels are valid");
                }
            }
            check_flow_equivalence(&s, 4, STATE_LIMIT)
        }
        _ => unreachable!("netlist-level mutation routed to protocol harness"),
    };
    let (killed, oracle) = match fe {
        Ok(FlowEquivalence::Ok) => (
            false,
            "SURVIVED — the flow-equivalence oracle accepted the mutant protocol".to_owned(),
        ),
        Ok(other) => (
            true,
            brief(&format!("flow equivalence rejected: {other:?}")),
        ),
        Err(e) => (true, brief(&format!("STG oracle rejected: {e}"))),
    };
    MutationOutcome {
        mutation,
        seed,
        killed,
        oracle,
        recipe: None,
        attempts: 1,
    }
}

/// Fans the `kinds × seeds` grid out on the work-stealing runner;
/// outcomes come back in grid order (kind-major), deterministic for any
/// worker count.
pub fn run_campaign(
    kinds: &[Mutation],
    seeds: &[u64],
    lib: &Library,
    config: &DiffConfig,
    workers: usize,
) -> Vec<MutationOutcome> {
    let grid: Vec<(Mutation, u64)> = kinds
        .iter()
        .flat_map(|&k| seeds.iter().map(move |&s| (k, s)))
        .collect();
    crate::runner::run_indexed(grid.len(), workers, |i| {
        let (mutation, seed) = grid[i];
        run_mutation(mutation, seed, lib, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::Endpoint;

    /// Under `SkipOneFfSub` the skipped region's enable nets have no
    /// loads, and every enable net's loads, as control-network reads
    /// them from the cells substitution appended, equal a fresh
    /// connectivity build's of the post-substitution module, in order.
    #[test]
    fn skipped_substitution_enable_loads_equal_a_fresh_build() {
        let lib = vlib90::high_speed();
        let gatefile = Gatefile::from_library(&lib).unwrap();
        let (mut checked, mut unloaded) = (0, 0);
        for seed in 0..24u64 {
            let recipe = NetRecipe::sample(&mut Rng::new(seed), &NetGenParams::default());
            let module = recipe.build().unwrap();
            let mut cx = FlowContext::new(&lib, &gatefile, module, DesyncOptions::default());
            let mut pipe = Pipeline::empty();
            pipe.push(Box::new(CleanPass))
                .push(Box::new(ClockIdPass))
                .push(Box::new(GroupPass))
                .push(Box::new(DdgPass))
                .push(Box::new(RegionDelaysPass))
                .push(Box::new(SkipOneFfSub { selector: seed }));
            if pipe.run(&mut cx).is_err() {
                continue;
            }
            let substitution = cx.substitution().unwrap().clone();
            let m = cx.working_module_mut().unwrap();
            let (loads, conn) = (substitution.enable_loads(m), m.connectivity(&lib).unwrap());
            for &(gm, gs) in substitution.enables.iter().flatten() {
                for net in [gm, gs] {
                    let from_cells: Vec<Endpoint> =
                        loads.loads(net).iter().map(|&p| Endpoint::Pin(p)).collect();
                    assert_eq!(from_cells, conn.loads(net), "seed {seed}");
                    unloaded += usize::from(from_cells.is_empty());
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "{checked} enable nets checked");
        assert!(unloaded >= 20, "{unloaded} enable nets of skipped regions");
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for m in Mutation::ALL {
            assert!(seen.insert(m.name()), "{} duplicated", m.name());
            assert!(m.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!m.attacks().is_empty());
        }
    }

    #[test]
    fn protocol_mutants_are_killed() {
        // One seed per droppable arc: every non-redundant arc removal must
        // be rejected by the flow-equivalence oracle.
        for seed in 0..DROPPABLE_ARCS.len() as u64 {
            let out = run_mutation(
                Mutation::ProtocolDropArc,
                seed,
                &vlib90::high_speed(),
                &DiffConfig::default(),
            );
            assert!(out.killed, "arc {seed} survived: {}", out.oracle);
        }
        let out = run_mutation(
            Mutation::ProtocolFallDecoupled,
            0,
            &vlib90::high_speed(),
            &DiffConfig::default(),
        );
        assert!(out.killed, "{}", out.oracle);
    }

    #[test]
    fn corrupt_input_mutants_die_with_structured_panic_free_diagnostics() {
        let lib = vlib90::high_speed();
        let config = DiffConfig::default();
        let mut oracles = String::new();
        for seed in 0..8u64 {
            let out = run_mutation(Mutation::CorruptInput, seed, &lib, &config);
            assert!(out.killed, "seed {seed} survived: {}", out.oracle);
            assert!(
                !out.oracle.contains("PANIC"),
                "seed {seed} crashed a pass instead of erroring: {}",
                out.oracle
            );
            oracles.push_str(&out.oracle);
            oracles.push('\n');
        }
        // The seed range must exercise every corruption shape.
        for shape in ["multiply-driven", "undriven net", "dangling instance pin"] {
            assert!(
                oracles.contains(shape),
                "`{shape}` never injected:\n{oracles}"
            );
        }
    }

    #[test]
    fn broken_scan_stitch_mutants_are_killed() {
        let lib = vlib90::high_speed();
        let config = DiffConfig::default();
        // Two seeds so both legs (scan-in B, scan-enable S) get exercised
        // across the seed-derived site streams.
        for seed in 0..2u64 {
            let out = run_mutation(Mutation::BrokenScanStitch, seed, &lib, &config);
            assert!(out.killed, "seed {seed} survived: {}", out.oracle);
            assert!(
                out.oracle.contains("scan"),
                "killed by a non-scan oracle (fault not isolated): {}",
                out.oracle
            );
        }
    }

    #[test]
    fn swallowed_request_mutants_are_killed_by_the_liveness_oracle() {
        let lib = vlib90::high_speed();
        let config = DiffConfig::default();
        for seed in 0..2u64 {
            let out = run_mutation(Mutation::SwallowedRequest, seed, &lib, &config);
            assert!(out.killed, "seed {seed} survived: {}", out.oracle);
            assert!(
                out.oracle.contains("liveness"),
                "killed by a non-liveness oracle (fault not isolated): {}",
                out.oracle
            );
        }
    }

    #[test]
    fn a_netlist_mutant_is_killed_and_deterministic() {
        let lib = vlib90::high_speed();
        let config = DiffConfig::default();
        let a = run_mutation(Mutation::SwapLatchPhases, 1, &lib, &config);
        assert!(a.killed, "{}", a.oracle);
        let b = run_mutation(Mutation::SwapLatchPhases, 1, &lib, &config);
        assert_eq!(a.oracle, b.oracle);
        assert_eq!(a.attempts, b.attempts);
    }
}
