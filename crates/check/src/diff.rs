//! Differential flow-equivalence fuzzing: run a random synchronous
//! netlist through the full desynchronization flow and co-simulate both
//! versions.
//!
//! The check is the paper's headline property (§2.1): "each individual
//! sequential element in the desynchronized circuit possesses the exact
//! same data sequence as its synchronous counterpart". The synchronous
//! reference is clocked for a fixed number of cycles; the desynchronized
//! circuit free-runs after its handshake reset; the per-element capture
//! logs must agree on their common prefix ([`compare_capture_logs`]).
//!
//! On top of that, [`verify_result`] asserts the structural invariants of
//! a correct desynchronization — invariants sharpened by mutation testing
//! (every check below kills a class of injected fault the behavioural
//! oracle alone could miss):
//!
//! * one master + one slave latch per flip-flop, no flip-flop left behind;
//! * the flat `C2X1` population matches the reported join-tree size
//!   (kills dropped/duplicated C-elements that happen to be sequentially
//!   benign on a given workload);
//! * one delay element per controlled region (kills bypassed matched
//!   delays that only misbehave at real silicon timings);
//! * every master latch enable resolves to a `*_gm` net and every slave
//!   enable to a `*_gs` net (kills swapped-phase and stuck-enable faults
//!   structurally, independent of data patterns);
//! * every controller handshake pin is a real net (kills tied-off
//!   req/ack wires);
//! * every scan flip-flop's mux still selects the original scan-in under
//!   the original scan-enable and feeds the master latch (kills broken
//!   scan stitching — behaviourally invisible whenever the workload
//!   leaves `SE` at 0, §4.3);
//! * the simulated handshake cycle time of every region respects the STA
//!   matched-delay floor, and a zero-variability Monte-Carlo chip
//!   reproduces the nominal simulation bit for bit
//!   ([`crate::handshake`]);
//! * the netlist carries the liveness guard's reported repairs — delay
//!   elements at their recorded depths, request latches where recorded —
//!   and no unrepaired pulse-swallowing hazard ships
//!   ([`crate::liveness`]);
//! * the emitted SDC carries loop-break, `size_only` and matched
//!   `set_min_delay` lines for every controller and delay element.
//!
//! The split between [`run_differential`] (flow + verification) and
//! [`verify_result`] (verification of a *given* result) is what the
//! mutation harness in [`crate::mutate`] builds on: it corrupts a clean
//! [`DesyncResult`] and asserts `verify_result` now fails.

use drd_core::{DesyncOptions, DesyncResult, Desynchronizer, LibraryFacts};
use drd_liberty::gatefile::MeasuredDelays;
use drd_liberty::{Library, Lv};
use drd_netlist::{Conn, Design};
use drd_sim::{compare_capture_logs, FlowCheck, SimOptions, Simulator};

use crate::netgen::{FfKind, NetRecipe};

/// Co-simulation windows for the differential check.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Clocked cycles of the synchronous reference.
    pub sync_cycles: usize,
    /// Reference clock period (ns).
    pub clock_period_ns: f64,
    /// Free-running time of the desynchronized circuit after reset (ns).
    pub dut_run_ns: f64,
    /// Minimum slave-latch captures every flip-flop must reach (guards
    /// against a silently stalled handshake network "passing" on an
    /// empty capture prefix).
    pub min_captures: usize,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            sync_cycles: 10,
            clock_period_ns: 2.0,
            dut_run_ns: 240.0,
            min_captures: 3,
        }
    }
}

/// Statistics of one successful differential run.
#[derive(Debug, Clone)]
pub struct DiffStats {
    /// Flip-flops compared.
    pub ffs: usize,
    /// Total capture events compared across all elements.
    pub events: usize,
    /// Controller instances found in the desynchronized netlist.
    pub controllers: usize,
}

fn fail(recipe: &NetRecipe, what: &str) -> String {
    format!(
        "{what}\n--- failing synchronous netlist ---\n{}",
        recipe.verilog()
    )
}

/// Simulates the clocked reference and checks every flip-flop captured
/// exactly `sync_cycles` times.
fn simulate_reference(
    recipe: &NetRecipe,
    lib: &Library,
    config: &DiffConfig,
) -> Result<Simulator, String> {
    let module = recipe
        .build()
        .map_err(|e| format!("recipe does not build: {e}"))?;
    let mut sync_design = Design::new();
    sync_design.insert(module);
    let mut reference = Simulator::new(&sync_design, lib, SimOptions::default())
        .map_err(|e| fail(recipe, &format!("sync simulator: {e}")))?;
    for i in 0..recipe.inputs.max(1) {
        let v = Lv::from_bool((recipe.input_bits >> i) & 1 == 1);
        reference
            .poke(&recipe.input_name(i), v)
            .map_err(|e| fail(recipe, &format!("sync poke: {e}")))?;
    }
    reference
        .schedule_clock(
            "clk",
            config.clock_period_ns,
            config.clock_period_ns / 2.0,
            config.sync_cycles,
        )
        .map_err(|e| fail(recipe, &format!("sync clock: {e}")))?;
    reference.run_for(config.clock_period_ns * (config.sync_cycles + 2) as f64);
    for ff in &recipe.ff_names() {
        if reference.captures().capture_count(ff) != config.sync_cycles {
            return Err(fail(
                recipe,
                &format!(
                    "sync reference: {ff} captured {} times, expected {}",
                    reference.captures().capture_count(ff),
                    config.sync_cycles
                ),
            ));
        }
    }
    Ok(reference)
}

/// Runs one recipe through sync simulation, desynchronization, async
/// co-simulation, capture-log comparison and SDC linting.
///
/// # Errors
/// A human-readable failure report (including the netlist as Verilog)
/// when any stage of the differential check fails.
pub fn run_differential(
    recipe: &NetRecipe,
    lib: &Library,
    config: &DiffConfig,
) -> Result<DiffStats, String> {
    let module = recipe
        .build()
        .map_err(|e| format!("recipe does not build: {e}"))?;
    let tool = Desynchronizer::new(lib).map_err(|e| format!("tool: {e}"))?;
    let result = tool
        .run(module, &DesyncOptions::default())
        .0
        .map_err(|e| fail(recipe, &format!("desynchronization failed: {e}")))?;
    verify_result(recipe, lib, config, &result)
}

/// Verifies a desynchronization *result* against its source recipe: the
/// full oracle stack (structure, SDC, behavioural co-simulation) on an
/// already-produced [`DesyncResult`]. This is the entry point the
/// mutation harness attacks — a corrupted result must make this fail.
///
/// # Errors
/// A human-readable failure report naming the first violated oracle.
pub fn verify_result(
    recipe: &NetRecipe,
    lib: &Library,
    config: &DiffConfig,
    result: &DesyncResult,
) -> Result<DiffStats, String> {
    let ff_names = recipe.ff_names();
    if result.report.substituted_ffs != ff_names.len() {
        return Err(fail(
            recipe,
            &format!(
                "substituted {} flip-flops, netlist has {}",
                result.report.substituted_ffs,
                ff_names.len()
            ),
        ));
    }
    let controllers = check_structure(recipe, result, ff_names.len())?;
    check_scan_chain(recipe, lib, result)?;
    lint_sdc(recipe, result)?;

    // Both control oracles read one set of library facts, so each probe
    // runs once per call.
    let measured = MeasuredDelays::default();
    let facts = LibraryFacts::new(lib, &measured);

    // Handshake-timing oracle (DESIGN.md §3f): the event-driven
    // control-network simulation must respect static timing.
    let spec = drd_core::handshake_spec_with(&result.report, &facts)
        .map_err(|e| fail(recipe, &format!("handshake spec: {e}")))?;
    crate::handshake::verify_handshake_timing(&spec, lib)
        .map_err(|e| fail(recipe, &format!("handshake timing oracle: {e}")))?;

    // Liveness oracle (DESIGN.md §3i): the netlist must carry the
    // repairs the guard reported, and the shipped delay-element depths
    // must leave no pulse-swallowing hazard behind.
    crate::liveness::verify_liveness(result, &facts)
        .map_err(|e| fail(recipe, &format!("liveness oracle: {e}")))?;

    let reference = simulate_reference(recipe, lib, config)?;

    // Desynchronized DUT: same constants, handshake reset, free run.
    let mut dut = Simulator::new(&result.design, lib, SimOptions::default())
        .map_err(|e| fail(recipe, &format!("dut simulator: {e}")))?;
    for i in 0..recipe.inputs.max(1) {
        let v = Lv::from_bool((recipe.input_bits >> i) & 1 == 1);
        dut.poke(&recipe.input_name(i), v)
            .map_err(|e| fail(recipe, &format!("dut poke: {e}")))?;
    }
    dut.poke("drd_rst", Lv::Zero)
        .map_err(|e| fail(recipe, &format!("dut reset: {e}")))?;
    dut.run_for(2.0);
    dut.poke("drd_rst", Lv::One)
        .map_err(|e| fail(recipe, &format!("dut reset release: {e}")))?;
    dut.run_for(config.dut_run_ns);

    for ff in &ff_names {
        let got = dut.captures().capture_count(&format!("{ff}_ls"));
        if got < config.min_captures {
            return Err(fail(
                recipe,
                &format!(
                    "desynchronized circuit stalled: slave {ff}_ls captured only {got} \
                     times in {} ns (minimum {})",
                    config.dut_run_ns, config.min_captures
                ),
            ));
        }
    }

    let check = compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
    match check {
        FlowCheck::Equivalent { elements, events } => Ok(DiffStats {
            ffs: elements,
            events,
            controllers,
        }),
        other => Err(fail(
            recipe,
            &format!("flow equivalence violated: {other:?}"),
        )),
    }
}

/// Structural invariants of the substitution and control network.
fn check_structure(
    recipe: &NetRecipe,
    result: &DesyncResult,
    ff_count: usize,
) -> Result<usize, String> {
    let flat = drd_netlist::flatten(&result.design, result.design.top())
        .map_err(|e| fail(recipe, &format!("flatten: {e}")))?;
    let masters = flat
        .cells()
        .filter(|(_, c)| c.name.ends_with("_lm"))
        .count();
    let slaves = flat
        .cells()
        .filter(|(_, c)| c.name.ends_with("_ls"))
        .count();
    if masters != ff_count || slaves != ff_count {
        return Err(fail(
            recipe,
            &format!("expected {ff_count} master/slave latch pairs, found {masters}/{slaves}"),
        ));
    }
    let dffs = flat
        .cells()
        .filter(|(_, c)| c.kind_name().starts_with("DFF") || c.kind_name().starts_with("SDFF"))
        .count();
    if dffs != 0 {
        return Err(fail(
            recipe,
            &format!("{dffs} flip-flops survived substitution"),
        ));
    }

    // Join-tree census: dropped or duplicated C-elements can be
    // sequentially benign on constant inputs, so count them exactly (the
    // controllers' internal C-elements are C2RX1/C2SX1, never C2X1).
    let c2 = flat
        .cells()
        .filter(|(_, c)| c.kind_name() == "C2X1")
        .count();
    if c2 != result.report.celements {
        return Err(fail(
            recipe,
            &format!(
                "join trees hold {c2} C2X1 cells, report says {}",
                result.report.celements
            ),
        ));
    }

    // One matched delay element per controlled region — a bypassed delay
    // only misbehaves at real silicon timings, so enforce it structurally.
    let top = result.design.module(result.design.top());
    let delems = top
        .cells()
        .filter(|(_, c)| c.kind_name().starts_with("drd_delem"))
        .count();
    let controlled = result
        .report
        .regions
        .iter()
        .filter(|r| r.ffs > 0 && r.delem_levels > 0)
        .count();
    if delems != controlled {
        return Err(fail(
            recipe,
            &format!("{delems} delay elements for {controlled} controlled region(s)"),
        ));
    }

    // Latch-enable phase lint: master enables come from a `*_gm` net,
    // slave enables from `*_gs` (buffer-tree legs keep the substring).
    // Kills swapped master/slave phases and enables tied to constants.
    for (_, cell) in flat.cells() {
        let want = if cell.name.ends_with("_lm") {
            "_gm"
        } else if cell.name.ends_with("_ls") {
            "_gs"
        } else {
            continue;
        };
        let g = cell.pin("G").unwrap_or(Conn::Open);
        let ok = g.net().is_some_and(|n| flat.net(n).name.contains(want));
        if !ok {
            return Err(fail(
                recipe,
                &format!(
                    "latch {} enable is not a {want} net (found {g:?})",
                    cell.name
                ),
            ));
        }
    }

    // Handshake pins must be real nets — a request or acknowledge tied to
    // a constant deadlocks or free-runs depending on polarity, but either
    // way it is no longer a handshake.
    for (_, cell) in top.cells() {
        let kind = cell.kind_name();
        if kind != "drd_ctrl_master" && kind != "drd_ctrl_slave" {
            continue;
        }
        for (i, &(_, conn)) in cell.pins().iter().enumerate() {
            if conn.net().is_none() {
                return Err(fail(
                    recipe,
                    &format!(
                        "controller {} pin {} tied off ({conn:?})",
                        cell.name,
                        cell.pin_name(i)
                    ),
                ));
            }
        }
    }

    Ok(flat
        .cells()
        .filter(|(_, c)| c.name.ends_with("/u_a"))
        .count())
}

/// Scan-chain preservation through latch substitution (§4.3): every scan
/// flip-flop's `_smx` mux must still select the *original* scan-in net
/// under the *original* scan-enable net and feed that flip-flop's master
/// latch. The comparison nets come from a copy of the input netlist run
/// through the same logic cleaning the flow applies before substitution
/// (`drd_core::region::clean_for_grouping`), so buffered scan hookups
/// resolve to the same net names on both sides.
///
/// This is a structural oracle on purpose: rewired scan stitching is
/// behaviourally invisible whenever the workload holds `SE` at 0, which
/// is exactly what mission-mode co-simulation does.
fn check_scan_chain(
    recipe: &NetRecipe,
    lib: &Library,
    result: &DesyncResult,
) -> Result<(), String> {
    let scan_ffs: Vec<String> = recipe
        .stages
        .iter()
        .enumerate()
        .flat_map(|(s, stage)| {
            stage
                .ffs
                .iter()
                .enumerate()
                .filter(|(_, f)| f.kind == FfKind::Scan)
                .map(move |(l, _)| format!("r{s}_{l}"))
        })
        .collect();
    if scan_ffs.is_empty() {
        return Ok(());
    }

    let mut cleaned = recipe
        .build()
        .map_err(|e| format!("recipe does not build: {e}"))?;
    drd_core::region::clean_for_grouping(&mut cleaned, lib);
    let top = result.design.module(result.design.top());

    // Net name of `pin` on cell `name` in `module`.
    let pin_net = |module: &drd_netlist::Module, name: &str, pin: &str| -> Option<String> {
        let cell = module.find_cell(name)?;
        let net = module.cell(cell).pin(pin)?.net()?;
        Some(module.net(net).name.to_owned())
    };

    for ff in &scan_ffs {
        let si = pin_net(&cleaned, ff, "SI")
            .ok_or_else(|| fail(recipe, &format!("cleaned netlist lost {ff}'s SI")))?;
        let se = pin_net(&cleaned, ff, "SE")
            .ok_or_else(|| fail(recipe, &format!("cleaned netlist lost {ff}'s SE")))?;
        let mux_name = format!("{ff}_smx");
        let Some(mux) = top.find_cell(&mux_name) else {
            return Err(fail(recipe, &format!("scan mux {mux_name} is missing")));
        };
        if top.cell(mux).kind_name() != "MUX2X1" {
            return Err(fail(
                recipe,
                &format!("{mux_name} is a {}, not MUX2X1", top.cell(mux).kind_name()),
            ));
        }
        for (pin, want) in [("B", &si), ("S", &se)] {
            let got = top
                .cell(mux)
                .pin(pin)
                .and_then(|c| c.net())
                .map(|n| top.net(n).name.to_owned());
            if got.as_ref() != Some(want) {
                return Err(fail(
                    recipe,
                    &format!("{mux_name} pin {pin} is {got:?}, scan chain expects `{want}`"),
                ));
            }
        }
        // The mux output must be what the master latch samples.
        let mux_z = top
            .cell(mux)
            .pin("Z")
            .and_then(|c| c.net())
            .map(|n| top.net(n).name.to_owned())
            .ok_or_else(|| fail(recipe, &format!("{mux_name} output is unconnected")))?;
        let lm_d = pin_net(top, &format!("{ff}_lm"), "D");
        if lm_d.as_ref() != Some(&mux_z) {
            return Err(fail(
                recipe,
                &format!("{ff}_lm samples {lm_d:?}, scan mux drives `{mux_z}`"),
            ));
        }
    }
    Ok(())
}

/// SDC well-formedness: both derived clocks, loop-breaking disables and
/// `size_only` for every controller instance, a matched `set_min_delay`
/// plus `dont_touch` for every delay element, balanced braces.
fn lint_sdc(recipe: &NetRecipe, result: &DesyncResult) -> Result<(), String> {
    let sdc = &result.sdc;
    for needle in ["create_clock", "ClkM", "ClkS"] {
        if !sdc.contains(needle) {
            return Err(fail(recipe, &format!("SDC lacks {needle}")));
        }
    }
    for line in sdc.lines() {
        let open = line.matches(['{', '[']).count();
        let close = line.matches(['}', ']']).count();
        if open != close {
            return Err(fail(recipe, &format!("unbalanced SDC line: {line}")));
        }
    }
    let flat = drd_netlist::flatten(&result.design, result.design.top())
        .map_err(|e| fail(recipe, &format!("flatten: {e}")))?;
    for (_, cell) in flat.cells() {
        if let Some(inst) = cell.name.strip_suffix("/u_a") {
            let disable = format!("{inst}/u_nro/A");
            let size_only = format!("set_size_only [get_cells {{{inst}/*}}]");
            if !sdc.contains(&disable) {
                return Err(fail(recipe, &format!("SDC misses loop break for {inst}")));
            }
            if !sdc.contains(&size_only) {
                return Err(fail(recipe, &format!("SDC misses size_only for {inst}")));
            }
        }
    }
    // Matched-delay floor: every delay element matching a region with a
    // positive critical delay needs its `set_min_delay` through in1→out1
    // and a `dont_touch` — without them a timing tool may legally shrink
    // the matched path below the region's critical delay (§3.1.4).
    // Zero-delay regions (e.g. the input-register region `g0`) carry a
    // minimum one-level element with no floor to preserve, and degraded
    // regions (clock fallback, `delem_levels == 0`) carry none at all.
    for (i, r) in result.report.regions.iter().enumerate() {
        if r.ffs == 0 || r.delem_levels == 0 || r.critical_delay_ns <= 0.0 {
            continue;
        }
        let Some(ctl) = result.network.regions.get(i).and_then(Option::as_ref) else {
            return Err(fail(
                recipe,
                &format!("region {} has no delay element", r.name),
            ));
        };
        let inst = result.design.top_module().cell(ctl.delem).name;
        let min_delay = format!("-from [get_pins {{{inst}/in1}}] -to [get_pins {{{inst}/out1}}]");
        let dont_touch = format!("set_dont_touch [get_cells {{{inst}}}]");
        let has_min = sdc
            .lines()
            .any(|l| l.starts_with("set_min_delay") && l.contains(&min_delay));
        if !has_min {
            return Err(fail(
                recipe,
                &format!("SDC misses set_min_delay for {inst}"),
            ));
        }
        if !sdc.contains(&dont_touch) {
            return Err(fail(recipe, &format!("SDC misses dont_touch for {inst}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netgen::{NetGenParams, NetRecipe};
    use crate::rng::Rng;
    use drd_liberty::vlib90;

    #[test]
    fn a_handful_of_random_netlists_are_flow_equivalent() {
        let lib = vlib90::high_speed();
        let mut rng = Rng::new(0xD1FF);
        let params = NetGenParams::default();
        for _ in 0..4 {
            let recipe = NetRecipe::sample(&mut rng, &params);
            let stats = run_differential(&recipe, &lib, &DiffConfig::default())
                .expect("flow equivalence holds");
            assert!(stats.events > 0);
            assert!(stats.controllers > 0);
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let lib = vlib90::high_speed();
        let recipe = NetRecipe::sample(&mut Rng::new(0xCAFE), &NetGenParams::default());
        let a = run_differential(&recipe, &lib, &DiffConfig::default()).unwrap();
        let b = run_differential(&recipe, &lib, &DiffConfig::default()).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.ffs, b.ffs);
    }

    #[test]
    fn verify_result_accepts_a_clean_flow() {
        let lib = vlib90::high_speed();
        let recipe = NetRecipe::sample(&mut Rng::new(0xFACE), &NetGenParams::default());
        let module = recipe.build().unwrap();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool.run(module, &DesyncOptions::default()).0.unwrap();
        let stats = verify_result(&recipe, &lib, &DiffConfig::default(), &result)
            .expect("clean result verifies");
        assert_eq!(stats.ffs, recipe.ff_names().len());
    }
}
