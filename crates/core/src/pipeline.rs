//! The instrumented pass pipeline behind the desynchronization flow.
//!
//! The paper's flow is explicitly staged (Fig. 2.1, §3.2): import → clean
//! → clock identification → region creation → DDG → delay sizing →
//! flip-flop substitution → control network → constraints. Each stage is a
//! [`Pass`] over a shared [`FlowContext`]. [`Pipeline::run`] is the one
//! runner: it runs the passes in order under the panic guard, the budgets
//! and the deadline, and records each completed pass — wall time,
//! top-module cell/net deltas and produced artifacts — in the context's
//! [`FlowTrace`]. Stopping after a stage or checkpointing it is a pipeline
//! shape, not a run mode: [`Pipeline::split_after`] yields the head and
//! the tail, and running both over one context accumulates one trace.
//! [`crate::Desynchronizer::run`] is the one-call flow: the standard
//! pipeline over a fresh context, returning the result and the trace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use drd_json::escape;
use drd_liberty::gatefile::Gatefile;
use drd_liberty::Library;
use drd_netlist::{Design, Module, ModuleId};

use crate::ddg::{self, Ddg};
use crate::desync::{DesyncOptions, DesyncReport, DesyncResult, RegionSummary};
use crate::ffsub;
use crate::network::{self, enable_net_names, NetworkReport};
use crate::liveness::{self, LivenessAction, LivenessRepair, RegionState};
use crate::region::{self, Region, Regions};
use crate::sdc;
use crate::{DegradeReason, Degradation, DesyncError};

/// The working netlist: a bare module through substitution, a design (top
/// plus generated controller/delay-element modules) afterwards.
// One Netlist lives per flow run, so the size gap between the two
// variants costs nothing; boxing would only add a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Netlist {
    Module(Module),
    Design { design: Design, top: ModuleId },
}

/// Everything the passes read and write: the working netlist, the
/// library/gatefile handles, the run options, the accumulated artifacts
/// of earlier passes and the run's [`FlowTrace`].
#[derive(Debug, Clone)]
pub struct FlowContext<'a> {
    lib: &'a Library,
    gatefile: &'a Gatefile,
    opts: DesyncOptions,
    netlist: Netlist,
    cleaned_cells: usize,
    clock_net: Option<String>,
    regions: Option<Regions>,
    ddg: Option<Ddg>,
    region_delays: Option<Vec<f64>>,
    substituted_ffs: usize,
    extra_gates: usize,
    network: Option<NetworkReport>,
    sdc: Option<String>,
    /// Per region, in region-index order: left synchronous. Set together
    /// with the named record in the trace's `degradations`.
    degraded: Vec<bool>,
    trace: FlowTrace,
}

impl<'a> FlowContext<'a> {
    /// Prepares a context owning `module` — no netlist copy is made.
    pub fn new(
        lib: &'a Library,
        gatefile: &'a Gatefile,
        module: Module,
        opts: DesyncOptions,
    ) -> Self {
        FlowContext {
            lib,
            gatefile,
            opts,
            netlist: Netlist::Module(module),
            cleaned_cells: 0,
            clock_net: None,
            regions: None,
            ddg: None,
            region_delays: None,
            substituted_ffs: 0,
            extra_gates: 0,
            network: None,
            sdc: None,
            degraded: Vec::new(),
            trace: FlowTrace::default(),
        }
    }

    /// The run options.
    pub fn options(&self) -> &DesyncOptions {
        &self.opts
    }

    /// The technology library.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// The prepared gatefile.
    pub fn gatefile(&self) -> &'a Gatefile {
        self.gatefile
    }

    /// Cells removed by the `clean` pass.
    pub fn cleaned_cells(&self) -> usize {
        self.cleaned_cells
    }

    /// The identified clock net (after `clock-id`).
    pub fn clock_net(&self) -> Option<&str> {
        self.clock_net.as_deref()
    }

    /// The grouping result (after `group`).
    pub fn regions(&self) -> Option<&Regions> {
        self.regions.as_ref()
    }

    /// The data-dependency graph (after `ddg`).
    pub fn ddg(&self) -> Option<&Ddg> {
        self.ddg.as_ref()
    }

    /// Per-region critical-path delays (after `region-delays`).
    pub fn region_delays(&self) -> Option<&[f64]> {
        self.region_delays.as_deref()
    }

    /// Flip-flops substituted so far (after `ffsub`).
    pub fn substituted_ffs(&self) -> usize {
        self.substituted_ffs
    }

    /// The control-network report (after `control-network`).
    pub fn network(&self) -> Option<&NetworkReport> {
        self.network.as_ref()
    }

    /// The generated SDC text (after `sdc`).
    pub fn sdc(&self) -> Option<&str> {
        self.sdc.as_deref()
    }

    /// Repairs the liveness guard applied (after `liveness`). Empty when
    /// no pulse-swallowing hazard was found.
    pub fn liveness_repairs(&self) -> &[LivenessRepair] {
        &self.trace.liveness_repairs
    }

    /// The run's instrumentation so far: every pass [`Pipeline::run`]
    /// completed over this context, in order, the failure record if a
    /// pass failed, and the degradation and repair sections.
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }

    /// Leaves region `region` synchronous: sets the flag the later passes
    /// read and appends the named record to the trace.
    fn record_degradation(&mut self, region: usize, d: Degradation) {
        self.degraded[region] = true;
        self.trace.degradations.push(d);
    }

    /// `(cells, nets)` of the current working top module. Generated
    /// controller/delay-element modules are not counted: the deltas
    /// describe what each pass does to the design under transformation.
    pub fn netlist_stats(&self) -> (usize, usize) {
        let m = self.top_module();
        (m.cell_count(), m.net_count())
    }

    /// The current working netlist as Verilog — the whole design once
    /// generated modules exist, the bare module before that. Suitable as a
    /// re-importable checkpoint at any pass boundary.
    pub fn netlist_verilog(&self) -> String {
        match &self.netlist {
            Netlist::Module(m) => drd_netlist::verilog::write_module(m),
            Netlist::Design { design, .. } => drd_netlist::verilog::write_design(design),
        }
    }

    fn top_module(&self) -> &Module {
        match &self.netlist {
            Netlist::Module(m) => m,
            Netlist::Design { design, top } => design.module(*top),
        }
    }

    fn module_mut(&mut self) -> Result<&mut Module, DesyncError> {
        match &mut self.netlist {
            Netlist::Module(m) => Ok(m),
            Netlist::Design { .. } => Err(missing("a pre-network module", "control-network")),
        }
    }

    /// Mutable access to the pre-network working module — the hook custom
    /// passes (and the mutation-testing harness) use to transform the
    /// netlist between standard passes.
    ///
    /// # Errors
    /// Returns [`DesyncError::Pipeline`] once `control-network` has
    /// promoted the module into a design.
    pub fn working_module_mut(&mut self) -> Result<&mut Module, DesyncError> {
        self.module_mut()
    }

    fn module(&self) -> Result<&Module, DesyncError> {
        match &self.netlist {
            Netlist::Module(m) => Ok(m),
            Netlist::Design { .. } => Err(missing("a pre-network module", "control-network")),
        }
    }

    fn design_mut(&mut self) -> Result<(&mut Design, ModuleId), DesyncError> {
        match &mut self.netlist {
            Netlist::Design { design, top } => Ok((design, *top)),
            Netlist::Module(_) => {
                Err(missing("the desynchronized design", "control-network"))
            }
        }
    }

    /// Consumes the context into the flow result. All eight passes must
    /// have run.
    ///
    /// # Errors
    /// Returns [`DesyncError::Pipeline`] if a required artifact is missing.
    pub fn into_result(self) -> Result<DesyncResult, DesyncError> {
        let Netlist::Design { design, .. } = self.netlist else {
            return Err(missing("the desynchronized design", "control-network"));
        };
        let clock_name = self.clock_net.ok_or_else(|| missing("clock net", "clock-id"))?;
        let regions = self.regions.ok_or_else(|| missing("regions", "group"))?;
        let graph = self.ddg.ok_or_else(|| missing("DDG", "ddg"))?;
        let delays = self
            .region_delays
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let net_report = self
            .network
            .ok_or_else(|| missing("network report", "control-network"))?;
        let sdc_text = self.sdc.ok_or_else(|| missing("SDC", "sdc"))?;

        let region_summaries = regions
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionSummary {
                name: r.name.clone(),
                cells: r.cells.len(),
                ffs: r.seq_cells.len(),
                critical_delay_ns: delays[i],
                delem_levels: net_report.delem_levels[i],
            })
            .collect();
        let ddg_edges = graph
            .edges
            .iter()
            .map(|&(a, b)| {
                (
                    regions.regions[a].name.clone(),
                    regions.regions[b].name.clone(),
                )
            })
            .collect();

        Ok(DesyncResult {
            design,
            sdc: sdc_text,
            report: DesyncReport {
                clock_net: clock_name,
                regions: region_summaries,
                ddg_edges,
                substituted_ffs: self.substituted_ffs,
                extra_gates: self.extra_gates,
                controllers: net_report.controllers,
                celements: net_report.celements,
                cleaned_cells: self.cleaned_cells,
                degradations: self.trace.degradations,
                liveness_repairs: self.trace.liveness_repairs,
            },
        })
    }
}

fn missing(what: &str, pass: &str) -> DesyncError {
    DesyncError::Pipeline {
        message: format!("{what} not available — run the `{pass}` pass first"),
    }
}

/// Region `r` left synchronous for `reason`, its flip-flops named through
/// `module` — the name boundary of the report and trace.
fn degradation(module: &Module, r: &Region, reason: DegradeReason) -> Degradation {
    Degradation {
        region: r.name.clone(),
        reason,
        cells: r
            .seq_cells
            .iter()
            .map(|&c| module.cell(c).name.to_owned())
            .collect(),
    }
}

/// What one pass did, for the trace.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Stable keys of the artifacts this pass produced or updated.
    pub artifacts: Vec<&'static str>,
    /// One-line human summary.
    pub detail: String,
    /// Worker threads the pass fanned out over (0 for serial passes).
    pub workers: usize,
    /// Wall time of each per-region task (ns), in region-index order —
    /// empty for serial passes. Timing only: rendered with `wall_ns`, never
    /// in the deterministic trace.
    pub region_wall_ns: Vec<u128>,
}

impl PassReport {
    /// Report of a serial pass.
    pub fn new(artifacts: Vec<&'static str>, detail: String) -> Self {
        PassReport {
            artifacts,
            detail,
            workers: 0,
            region_wall_ns: Vec::new(),
        }
    }

    /// Report of a pass that fanned out per-region work over `workers`
    /// threads.
    pub fn parallel(
        artifacts: Vec<&'static str>,
        detail: String,
        workers: usize,
        region_wall_ns: Vec<u128>,
    ) -> Self {
        PassReport {
            artifacts,
            detail,
            workers,
            region_wall_ns,
        }
    }
}

/// One named, instrumentable stage of the flow.
pub trait Pass {
    /// Stable pass name (`clean`, `group`, …) used by `--stop-after`,
    /// `--dump-after` and the trace.
    fn name(&self) -> &'static str;

    /// Runs the pass over `cx`.
    ///
    /// # Errors
    /// Propagates [`DesyncError`] from the underlying transformation.
    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError>;
}

// ---------------------------------------------------------------------------
// The nine standard passes (§3.2 plus the liveness guard, in flow order)
// ---------------------------------------------------------------------------

/// Logic cleaning (§3.2.2): remove synthesis buffering before grouping.
pub struct CleanPass;

impl Pass for CleanPass {
    fn name(&self) -> &'static str {
        "clean"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let cleaned = if cx.opts.clean_logic {
            let lib = cx.lib;
            let stats = region::clean_for_grouping(cx.module_mut()?, lib);
            stats.buffers_removed + 2 * stats.inverter_pairs_removed
        } else {
            0
        };
        cx.cleaned_cells = cleaned;
        Ok(PassReport::new(
            vec!["cleaned-cells"],
            format!("{cleaned} buffering cells removed"),
        ))
    }
}

/// Clock identification: the named port, or the net clocking the most
/// sequential cells.
pub struct ClockIdPass;

impl Pass for ClockIdPass {
    fn name(&self) -> &'static str {
        "clock-id"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let module = cx.module()?;
        let clock_net = match &cx.opts.clock_port {
            Some(port) => module
                .find_net(port)
                .ok_or_else(|| DesyncError::Clock {
                    message: format!("clock port `{port}` not found"),
                })?,
            None => region::find_clock_net(module, cx.lib).ok_or_else(|| DesyncError::Clock {
                message: "no sequential cells, nothing to desynchronize".into(),
            })?,
        };
        let clock_name = module.net(clock_net).name.to_owned();
        let detail = format!("clock net `{clock_name}`");
        cx.clock_net = Some(clock_name);
        Ok(PassReport::new(vec!["clock-net"], detail))
    }
}

/// Region creation (§3.2.2, Figs. 3.3–3.6).
pub struct GroupPass;

impl Pass for GroupPass {
    fn name(&self) -> &'static str {
        "group"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let clock_name = cx
            .clock_net
            .clone()
            .ok_or_else(|| missing("clock net", "clock-id"))?;
        let mut grouping = cx.opts.grouping.clone();
        grouping.false_path_nets.push(clock_name);
        let regions = region::group(cx.module()?, cx.lib, &grouping)?;
        let detail = format!("{} regions", regions.regions.len());
        cx.degraded = vec![false; regions.regions.len()];
        cx.regions = Some(regions);
        Ok(PassReport::new(vec!["regions"], detail))
    }
}

/// Data-dependency graph construction (Fig. 2.6).
pub struct DdgPass;

impl Pass for DdgPass {
    fn name(&self) -> &'static str {
        "ddg"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let regions = cx.regions.as_ref().ok_or_else(|| missing("regions", "group"))?;
        let graph = ddg::build(cx.module()?, cx.lib, regions)?;
        let detail = format!("{} dependency edges", graph.edges.len());
        cx.ddg = Some(graph);
        Ok(PassReport::new(vec!["ddg"], detail))
    }
}

/// Per-region critical-path delays by STA on the pre-substitution netlist
/// (§3.2.5; the datapath is unchanged by substitution).
pub struct RegionDelaysPass;

impl Pass for RegionDelaysPass {
    fn name(&self) -> &'static str {
        "region-delays"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let regions = cx.regions.as_ref().ok_or_else(|| missing("regions", "group"))?;
        let module = cx.module()?;
        let mut delays = crate::desync::region_delays(module, cx.lib, regions)?;
        // A region whose cloud delay cannot be matched (non-finite STA
        // result) degrades to synchronous instead of poisoning the delay
        // elements downstream.
        let mut degraded = Vec::new();
        for (i, r) in regions.regions.iter().enumerate() {
            if delays[i].is_finite() {
                continue;
            }
            let message = format!("non-finite critical delay {}", delays[i]);
            if cx.opts.strict {
                return Err(DesyncError::Pipeline {
                    message: format!("region `{}`: {message}", r.name),
                });
            }
            degraded.push((
                i,
                degradation(module, r, DegradeReason::DelayMatching { message }),
            ));
            delays[i] = 0.0;
        }
        for (i, d) in degraded {
            cx.record_degradation(i, d);
        }
        let worst = delays.iter().copied().fold(0.0f64, f64::max);
        cx.region_delays = Some(delays);
        Ok(PassReport::new(
            vec!["region-delays"],
            format!("worst cloud {worst:.3} ns"),
        ))
    }
}

/// Flip-flop substitution per region (§3.2.4, Fig. 3.1).
pub struct FfSubPass;

impl Pass for FfSubPass {
    fn name(&self) -> &'static str {
        "ffsub"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let workers = cx.opts.workers();
        let regions = cx
            .regions
            .take()
            .ok_or_else(|| missing("regions", "group"))?;
        let lib = cx.lib;
        let gatefile = cx.gatefile;
        let strict = cx.opts.strict;
        let mut substituted = 0usize;
        let mut extra_gates = 0usize;
        let mut degraded: Vec<(usize, Degradation)> = Vec::new();
        let mut region_wall_ns = vec![0u128; regions.regions.len()];
        let result = (|| -> Result<(), DesyncError> {
            // Validate every region up front, one read-only task per
            // region: substitution is destructive, so degradation must be
            // atomic — either every flip-flop converts or none does. The
            // checks only inspect the region's own cells (regions are
            // disjoint), so they are independent of each other and of the
            // serial substitution order below.
            let skip: Vec<bool> = regions
                .regions
                .iter()
                .zip(&cx.degraded)
                .map(|(r, &degraded)| r.seq_cells.is_empty() || degraded)
                .collect();
            let checks: Vec<(Option<DegradeReason>, u128)> = {
                let working = cx.module()?;
                drd_runner::run_indexed(regions.regions.len(), workers, |i| {
                    let start = Instant::now();
                    let reason = if skip[i] {
                        None
                    } else {
                        ffsub::region_degrade_reason(
                            working,
                            lib,
                            gatefile,
                            &regions.regions[i].seq_cells,
                        )
                    };
                    (reason, start.elapsed().as_nanos())
                })
            };
            // Serial merge and substitution in region-index order — the
            // mutations (and therefore the netlist bytes) are identical
            // for every worker count.
            for (i, r) in regions.regions.iter().enumerate() {
                let (reason, wall) = &checks[i];
                region_wall_ns[i] = *wall;
                if skip[i] {
                    continue;
                }
                if let Some(reason) = reason.clone() {
                    if strict {
                        return Err(match reason {
                            DegradeReason::UnknownCell { kind } => {
                                DesyncError::UnknownCell { name: kind }
                            }
                            DegradeReason::UnsupportedFf { kind } => {
                                DesyncError::NoRule { cell: kind }
                            }
                            other => DesyncError::Pipeline {
                                message: format!("region `{}`: {other}", r.name),
                            },
                        });
                    }
                    degraded.push((i, degradation(cx.module()?, r, reason)));
                    continue;
                }
                let working = cx.module_mut()?;
                let (gm_name, gs_name) = enable_net_names(&r.name);
                let gm = working.add_net(gm_name)?;
                let gs = working.add_net(gs_name)?;
                let rep =
                    ffsub::substitute_ffs(working, lib, gatefile, &r.seq_cells, gm, gs)?;
                substituted += rep.substituted;
                extra_gates += rep.extra_gates;
            }
            Ok(())
        })();
        cx.regions = Some(regions);
        result?;
        cx.substituted_ffs = substituted;
        cx.extra_gates = extra_gates;
        let detail = if degraded.is_empty() {
            format!("{substituted} flip-flops → latch pairs, {extra_gates} extra gates")
        } else {
            format!(
                "{substituted} flip-flops → latch pairs, {extra_gates} extra gates, \
                 {} region(s) left synchronous",
                degraded.len()
            )
        };
        for (i, d) in degraded {
            cx.record_degradation(i, d);
        }
        Ok(PassReport::parallel(
            vec!["substituted-ffs"],
            detail,
            workers,
            region_wall_ns,
        ))
    }
}

/// Control-network insertion (§3.2.6, Figs. 2.7/2.11): promotes the
/// working module into a design and adds controllers, C-elements, delay
/// elements and enable trees.
pub struct ControlNetworkPass;

impl Pass for ControlNetworkPass {
    fn name(&self) -> &'static str {
        "control-network"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let regions = cx.regions.as_ref().ok_or_else(|| missing("regions", "group"))?;
        let graph = cx.ddg.as_ref().ok_or_else(|| missing("DDG", "ddg"))?;
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let Netlist::Module(working) =
            std::mem::replace(&mut cx.netlist, Netlist::Module(Module::new("drd_empty")))
        else {
            return Err(missing("a pre-network module", "control-network"));
        };
        let mut design = Design::new();
        let top = design.insert(working);
        let inserted = network::insert_control_network(
            &mut design,
            top,
            regions,
            graph,
            delays,
            cx.lib,
            &cx.degraded,
            network::NetworkOptions {
                muxed: cx.opts.muxed_delay_elements,
                margin: cx.opts.delay_margin,
            },
        );
        cx.netlist = Netlist::Design { design, top };
        let net_report = inserted?;
        let detail = format!(
            "{} controllers, {} C-elements, {} delay elements",
            net_report.controllers, net_report.celements, net_report.delay_elements
        );
        cx.network = Some(net_report);
        Ok(PassReport::new(vec!["network-report", "design"], detail))
    }
}

/// Liveness guard (DESIGN.md §3i): flags loopback source regions whose
/// request pulse can be swallowed by a faster successor's asymmetric
/// delay element, repairs each hazard with the deepen → latch → degrade
/// ladder, and validates the repaired network with the handshake-level
/// simulator — a desynchronized result is never silently wedged.
pub struct LivenessGuardPass;

impl Pass for LivenessGuardPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let lib = cx.lib;
        let clock_name = cx
            .clock_net
            .clone()
            .ok_or_else(|| missing("clock net", "clock-id"))?;
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?
            .to_vec();
        let edges = cx
            .ddg
            .as_ref()
            .ok_or_else(|| missing("DDG", "ddg"))?
            .edges
            .clone();
        let mut states: Vec<RegionState> = {
            let regions =
                cx.regions.as_ref().ok_or_else(|| missing("regions", "group"))?;
            let net_report = cx
                .network
                .as_ref()
                .ok_or_else(|| missing("network report", "control-network"))?;
            regions
                .regions
                .iter()
                .enumerate()
                .map(|(i, r)| RegionState {
                    name: r.name.clone(),
                    controlled: net_report.delem_levels[i] > 0,
                    levels: net_report.delem_levels[i],
                    latched: false,
                })
                .collect()
        };
        let mut replay = states.clone();

        let model = liveness::ResponseModel::probe(lib)?;
        // The spec projection's FF overhead only shapes the synchronous
        // comparison inside the simulator, never the deadlock verdict —
        // a missing DFFX1 must not fail the guard.
        let ff_overhead_ns = lib
            .cell("DFFX1")
            .map_or(0.0, |c| c.max_intrinsic_delay() + c.setup);
        let validate_edges = edges.clone();
        let validate_delays = delays.clone();
        let repairs = liveness::plan_repairs(
            &model,
            &mut states,
            &edges,
            cx.opts.clock_period_ns,
            cx.opts.delay_margin,
            cx.opts.strict,
            |s| {
                liveness::validate_with_sim(
                    s,
                    &validate_edges,
                    &validate_delays,
                    lib,
                    model.level_delay_ns,
                    ff_overhead_ns,
                )
            },
        )?;
        if repairs.is_empty() {
            return Ok(PassReport::new(
                vec!["liveness-repairs"],
                "no pulse-swallowing hazards".into(),
            ));
        }

        // Apply the planned surgery serially, in record order, replaying
        // the spec-level state so later records see earlier effects.
        let muxed = cx.opts.muxed_delay_elements;
        let idx_of = |replay: &[RegionState], name: &str| {
            replay
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| DesyncError::Pipeline {
                    message: format!("liveness repair names unknown region `{name}`"),
                })
        };
        for rep in &repairs {
            let i = idx_of(&replay, &rep.region)?;
            match &rep.action {
                LivenessAction::DeepenSuccessor { successor, to_levels, .. } => {
                    let (design, top) = cx.design_mut()?;
                    liveness::apply_deepen(design, top, successor, *to_levels, muxed, lib)?;
                    let si = idx_of(&replay, successor)?;
                    replay[si].levels = *to_levels;
                    if let Some(nr) = cx.network.as_mut() {
                        nr.delem_levels[si] = *to_levels;
                    }
                }
                LivenessAction::RequestLatch => {
                    let (design, top) = cx.design_mut()?;
                    liveness::apply_latch(design, top, &rep.region)?;
                    replay[i].latched = true;
                    if let Some(nr) = cx.network.as_mut() {
                        nr.celements += 1;
                        nr.celement_instances.push(format!("drd_{}_reqext", rep.region));
                    }
                }
                LivenessAction::Degrade => {
                    let succs: Vec<String> = edges
                        .iter()
                        .filter(|&&(p, s)| p == i && s != i && replay[s].controlled)
                        .map(|&(_, s)| replay[s].name.clone())
                        .collect();
                    let (design, top) = cx.design_mut()?;
                    let stats = liveness::apply_degrade(
                        design,
                        top,
                        &rep.region,
                        &succs,
                        &clock_name,
                    )?;
                    replay[i].controlled = false;
                    replay[i].latched = false;
                    if let Some(nr) = cx.network.as_mut() {
                        nr.delem_levels[i] = 0;
                        nr.controllers = nr.controllers.saturating_sub(2);
                        nr.delay_elements = nr.delay_elements.saturating_sub(1);
                        nr.celements =
                            nr.celements.saturating_sub(stats.removed_celements);
                        nr.controller_instances[i] = (String::new(), String::new());
                        let delem = format!("drd_{}_delem", rep.region);
                        nr.delay_element_instances.retain(|d| d != &delem);
                        nr.celement_instances
                            .retain(|c| !stats.removed_cells.contains(c));
                    }
                    // The region's flip-flops were substituted; their
                    // removed cells keep their names.
                    let regions = cx
                        .regions
                        .as_ref()
                        .ok_or_else(|| missing("regions", "group"))?;
                    let reason = DegradeReason::Liveness {
                        message: format!(
                            "request pulse {:.3} ns vs successor response {:.3} ns; \
                             deepen and latch repairs did not restore liveness",
                            rep.rise_ns, rep.response_bound_ns
                        ),
                    };
                    let d = degradation(cx.top_module(), &regions.regions[i], reason);
                    cx.record_degradation(i, d);
                }
            }
        }
        let count = |action: fn(&LivenessAction) -> bool| {
            repairs.iter().filter(|r| action(&r.action)).count()
        };
        let detail = format!(
            "{} repair(s): {} deepened, {} latched, {} degraded",
            repairs.len(),
            count(|a| matches!(a, LivenessAction::DeepenSuccessor { .. })),
            count(|a| matches!(a, LivenessAction::RequestLatch)),
            count(|a| matches!(a, LivenessAction::Degrade)),
        );
        cx.trace.liveness_repairs.extend(repairs);
        Ok(PassReport::new(vec!["liveness-repairs"], detail))
    }
}

/// Backend constraint generation (§4.4–§4.6, Figs. 4.2/4.5).
pub struct SdcPass;

impl Pass for SdcPass {
    fn name(&self) -> &'static str {
        "sdc"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let clock_name = cx
            .clock_net
            .as_deref()
            .ok_or_else(|| missing("clock net", "clock-id"))?;
        let regions = cx.regions.as_ref().ok_or_else(|| missing("regions", "group"))?;
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let net_report = cx
            .network
            .as_ref()
            .ok_or_else(|| missing("network report", "control-network"))?;
        let delem_min: Vec<(String, f64)> = regions
            .regions
            .iter()
            .enumerate()
            .filter(|&(i, r)| !r.seq_cells.is_empty() && delays[i] > 0.0 && !cx.degraded[i])
            .map(|(i, r)| (format!("drd_{}_delem", r.name), delays[i]))
            .collect();
        // The SDC text names the degraded regions in record order.
        let degraded: Vec<String> = cx
            .trace
            .degradations
            .iter()
            .map(|d| d.region.clone())
            .collect();
        let spec = sdc::spec_from_report(
            cx.opts.clock_period_ns,
            clock_name,
            net_report,
            &delem_min,
            &degraded,
        );
        let workers = cx.opts.workers();
        let (text, region_wall_ns) = sdc::generate_with(&spec, workers);
        let detail = format!("{} SDC lines", text.lines().count());
        cx.sdc = Some(text);
        Ok(PassReport::parallel(vec!["sdc"], detail, workers, region_wall_ns))
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Instrumentation record of one executed pass.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Pass name.
    pub name: &'static str,
    /// Wall time of the pass (ns).
    pub wall_ns: u128,
    /// Top-module cell count before the pass.
    pub cells_before: usize,
    /// Top-module cell count after the pass.
    pub cells_after: usize,
    /// Top-module net count before the pass.
    pub nets_before: usize,
    /// Top-module net count after the pass.
    pub nets_after: usize,
    /// Artifacts the pass produced.
    pub artifacts: Vec<&'static str>,
    /// One-line summary.
    pub detail: String,
    /// Worker threads the pass fanned out over (0 for serial passes).
    pub workers: usize,
    /// Per-region task wall times (ns), region-index order; empty for
    /// serial passes.
    pub region_wall_ns: Vec<u128>,
}

impl PassTrace {
    /// Signed cell-count change of this pass.
    pub fn cell_delta(&self) -> i64 {
        self.cells_after as i64 - self.cells_before as i64
    }

    /// Signed net-count change of this pass.
    pub fn net_delta(&self) -> i64 {
        self.nets_after as i64 - self.nets_before as i64
    }
}

/// A recorded pass failure: which pass died and why. The trace keeps the
/// passes that completed before it, so a mid-run failure still reports
/// the partial pipeline instead of discarding the instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowErrorTrace {
    /// Name of the failing pass.
    pub pass: &'static str,
    /// The failure, rendered.
    pub message: String,
}

/// Machine-readable record of one flow run, kept on its [`FlowContext`].
#[derive(Debug, Clone, Default)]
pub struct FlowTrace {
    /// Executed passes, in order.
    pub passes: Vec<PassTrace>,
    /// Total wall time across all executed passes (ns).
    pub total_wall_ns: u128,
    /// Set when the run stopped at a failing pass; [`FlowTrace::passes`]
    /// then holds exactly the passes that completed before it.
    pub error: Option<FlowErrorTrace>,
    /// Regions the flow left synchronous (graceful degradation). Empty
    /// for a fully desynchronized run — the JSON rendering omits the
    /// section entirely then, keeping clean-flow traces byte-identical.
    pub degradations: Vec<Degradation>,
    /// Repairs the liveness guard applied. Empty when no
    /// pulse-swallowing hazard was found — the JSON rendering omits the
    /// section then, like `degradations`.
    pub liveness_repairs: Vec<LivenessRepair>,
}

impl FlowTrace {
    /// Sum of per-pass cell deltas — equals final minus initial top-module
    /// cell count.
    pub fn cell_delta_sum(&self) -> i64 {
        self.passes.iter().map(PassTrace::cell_delta).sum()
    }

    /// Sum of per-pass net deltas.
    pub fn net_delta_sum(&self) -> i64 {
        self.passes.iter().map(PassTrace::net_delta).sum()
    }

    /// The JSON document, including wall times.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// The JSON document with wall times omitted — byte-stable across
    /// runs, for golden snapshots.
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, with_times: bool) -> String {
        let mut out = String::from("{\n  \"flow\": \"desync\",\n  \"passes\": [\n");
        for (i, p) in self.passes.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", escape(p.name)));
            if with_times {
                out.push_str(&format!("\"wall_ns\": {}, ", p.wall_ns));
                if p.workers > 0 {
                    out.push_str(&format!(
                        "\"workers\": {}, \"region_wall_ns\": [{}], ",
                        p.workers,
                        join(p.region_wall_ns.iter().map(u128::to_string))
                    ));
                }
            }
            out.push_str(&format!(
                "\"cells_before\": {}, \"cells_after\": {}, \"nets_before\": {}, \"nets_after\": {}, ",
                p.cells_before, p.cells_after, p.nets_before, p.nets_after
            ));
            out.push_str(&format!(
                "\"artifacts\": [{}], \"detail\": {}}}",
                join(p.artifacts.iter().map(|a| escape(a))),
                escape(&p.detail)
            ));
            out.push_str(if i + 1 == self.passes.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]");
        if let Some(err) = &self.error {
            out.push_str(&format!(
                ",\n  \"error\": {{\"pass\": {}, \"message\": {}}}",
                escape(err.pass),
                escape(&err.message)
            ));
        }
        if !self.degradations.is_empty() {
            out.push_str(",\n  \"degradations\": [\n");
            for (i, d) in self.degradations.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"region\": {}, \"reason\": {}, \"cells\": [{}]}}",
                    escape(&d.region),
                    escape(&d.reason.to_string()),
                    join(d.cells.iter().map(|c| escape(c)))
                ));
                out.push_str(if i + 1 == self.degradations.len() { "\n" } else { ",\n" });
            }
            out.push_str("  ]");
        }
        if !self.liveness_repairs.is_empty() {
            out.push_str(",\n  \"liveness_repairs\": [\n");
            for (i, r) in self.liveness_repairs.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"region\": {}, \"rise_ns\": {:.4}, \"response_bound_ns\": {:.4}, ",
                    escape(&r.region),
                    r.rise_ns,
                    r.response_bound_ns
                ));
                match &r.action {
                    LivenessAction::DeepenSuccessor { successor, from_levels, to_levels } => {
                        out.push_str(&format!(
                            "\"action\": \"deepen\", \"successor\": {}, \
                             \"from_levels\": {from_levels}, \"to_levels\": {to_levels}}}",
                            escape(successor)
                        ));
                    }
                    LivenessAction::RequestLatch => {
                        out.push_str("\"action\": \"request-latch\"}");
                    }
                    LivenessAction::Degrade => out.push_str("\"action\": \"degrade\"}"),
                }
                out.push_str(if i + 1 == self.liveness_repairs.len() { "\n" } else { ",\n" });
            }
            out.push_str("  ]");
        }
        if with_times {
            out.push_str(&format!(",\n  \"total_wall_ns\": {}", self.total_wall_ns));
        }
        out.push_str("\n}\n");
        out
    }
}

/// JSON array elements, `, `-separated.
fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------------------------
// Pipeline runner
// ---------------------------------------------------------------------------

/// An ordered sequence of passes with instrumentation.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The standard nine-stage flow, in order: `clean`, `clock-id`,
    /// `group`, `ddg`, `region-delays`, `ffsub`, `control-network`,
    /// `liveness`, `sdc` — the paper's eight stages plus the liveness
    /// guard between network insertion and constraint generation (so the
    /// SDC sees repaired delay-element levels and liveness degradations).
    pub fn standard() -> Pipeline {
        Pipeline {
            passes: vec![
                Box::new(CleanPass),
                Box::new(ClockIdPass),
                Box::new(GroupPass),
                Box::new(DdgPass),
                Box::new(RegionDelaysPass),
                Box::new(FfSubPass),
                Box::new(ControlNetworkPass),
                Box::new(LivenessGuardPass),
                Box::new(SdcPass),
            ],
        }
    }

    /// An empty pipeline, for custom flows.
    pub fn empty() -> Pipeline {
        Pipeline { passes: Vec::new() }
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Splits the pipeline after the pass named `name`: the passes up to
    /// and including it, and the rest. Running the head and then the tail
    /// over one context is the whole flow, with the context inspectable
    /// at the split — how `--stop-after` and `--dump-after` are built.
    ///
    /// # Errors
    /// Returns [`DesyncError::Pipeline`] when no pass is named `name`.
    pub fn split_after(mut self, name: &str) -> Result<(Pipeline, Pipeline), DesyncError> {
        let Some(at) = self.passes.iter().position(|p| p.name() == name) else {
            return Err(DesyncError::Pipeline {
                message: format!(
                    "unknown pass `{name}` — pipeline has: {}",
                    self.pass_names().join(", ")
                ),
            });
        };
        let rest = self.passes.split_off(at + 1);
        Ok((self, Pipeline { passes: rest }))
    }

    /// Runs every pass over `cx`, in order, and records each completed
    /// pass in [`FlowContext::trace`] — a run after an earlier one on the
    /// same context extends the same trace.
    ///
    /// The run is guarded: a panicking pass is caught (`catch_unwind`)
    /// and reported as [`DesyncError::Panic`] instead of aborting, and the
    /// [`DesyncOptions`] budgets (`max_cells`, `max_nets`,
    /// `pass_deadline_ms`) are checked after every pass, turning runaway
    /// expansion into [`DesyncError::Budget`] / [`DesyncError::Deadline`]
    /// (the tripping pass is still traced).
    ///
    /// # Errors
    /// Returns the first failure and records it in [`FlowTrace::error`];
    /// the trace keeps the passes that completed before it. The context
    /// is left as the last *successful* pass left it (each pass restores
    /// its borrows on error), so its artifacts and checkpoint netlist can
    /// still be inspected — except after a caught panic, when it may be
    /// mid-mutation: inspect the trace, not the netlist.
    pub fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), DesyncError> {
        for pass in &self.passes {
            let name = pass.name();
            run_guarded(pass.as_ref(), cx).inspect_err(|e| {
                cx.trace.error = Some(FlowErrorTrace {
                    pass: name,
                    message: e.to_string(),
                });
            })?;
        }
        Ok(())
    }
}

/// Runs one pass under the panic guard, traces it, then checks the
/// budgets and the deadline (passes cannot be preempted).
fn run_guarded(pass: &dyn Pass, cx: &mut FlowContext<'_>) -> Result<(), DesyncError> {
    let name = pass.name();
    let (cells_before, nets_before) = cx.netlist_stats();
    let start = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| pass.run(cx)));
    let wall_ns = start.elapsed().as_nanos();
    let report = caught.unwrap_or_else(|payload| {
        Err(DesyncError::Panic {
            pass: name,
            message: panic_message(payload.as_ref()),
        })
    })?;
    let (cells_after, nets_after) = cx.netlist_stats();
    cx.trace.total_wall_ns += wall_ns;
    cx.trace.passes.push(PassTrace {
        name,
        wall_ns,
        cells_before,
        cells_after,
        nets_before,
        nets_after,
        artifacts: report.artifacts,
        detail: report.detail,
        workers: report.workers,
        region_wall_ns: report.region_wall_ns,
    });
    guard_violation(&cx.opts, name, cells_after, nets_after, wall_ns).map_or(Ok(()), Err)
}

/// Renders a caught panic payload: `&str` and `String` payloads (what
/// `panic!` produces) are shown verbatim, anything else is opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Checks the post-pass budgets from [`DesyncOptions`]: cell/net ceilings
/// and the per-pass wall-clock deadline. Returns the violation, if any.
fn guard_violation(
    opts: &DesyncOptions,
    pass: &'static str,
    cells: usize,
    nets: usize,
    wall_ns: u128,
) -> Option<DesyncError> {
    if let Some(limit) = opts.max_cells {
        if cells > limit {
            return Some(DesyncError::Budget {
                pass,
                resource: "cells",
                limit,
                actual: cells,
            });
        }
    }
    if let Some(limit) = opts.max_nets {
        if nets > limit {
            return Some(DesyncError::Budget {
                pass,
                resource: "nets",
                limit,
                actual: nets,
            });
        }
    }
    if let Some(limit_ms) = opts.pass_deadline_ms {
        if wall_ns > u128::from(limit_ms).saturating_mul(1_000_000) {
            return Some(DesyncError::Deadline { pass, limit_ms });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Desynchronizer;
    use drd_liberty::vlib90;
    use drd_netlist::{Conn, PortDir};

    fn toggle() -> Module {
        let mut m = Module::new("t");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("out", PortDir::Output).unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("out").unwrap();
        let d = m.add_net("d").unwrap();
        m.add_cell("inv", "INVX1", &[("A", Conn::Net(q)), ("Z", Conn::Net(d))])
            .unwrap();
        m.add_cell(
            "r0",
            "DFFX1",
            &[("D", Conn::Net(d)), ("CK", Conn::Net(clk)), ("Q", Conn::Net(q))],
        )
        .unwrap();
        m
    }

    #[test]
    fn standard_pipeline_has_the_nine_stages() {
        assert_eq!(
            Pipeline::standard().pass_names(),
            vec![
                "clean",
                "clock-id",
                "group",
                "ddg",
                "region-delays",
                "ffsub",
                "control-network",
                "liveness",
                "sdc"
            ]
        );
    }

    #[test]
    fn full_run_produces_result_and_trace() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(
            &lib,
            tool.gatefile(),
            toggle(),
            DesyncOptions::default(),
        );
        Pipeline::standard().run(&mut cx).unwrap();
        let trace = cx.trace();
        assert_eq!(trace.passes.len(), 9);
        assert!(trace.passes.iter().all(|p| p.wall_ns > 0));
        assert!(trace.error.is_none());
        let result = cx.into_result().unwrap();
        assert!(result.sdc.contains("create_clock"));
        assert_eq!(result.report.substituted_ffs, 1);
    }

    #[test]
    fn stop_after_halts_with_partial_artifacts() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(
            &lib,
            tool.gatefile(),
            toggle(),
            DesyncOptions::default(),
        );
        let (head, tail) = Pipeline::standard().split_after("group").unwrap();
        assert_eq!(head.pass_names(), ["clean", "clock-id", "group"]);
        assert_eq!(tail.pass_names().len(), 6);
        head.run(&mut cx).unwrap();
        assert_eq!(cx.trace().passes.len(), 3);
        assert!(cx.regions().is_some());
        assert!(cx.ddg().is_none());
        assert!(cx.sdc().is_none());
        // An incomplete context cannot be assembled into a result.
        assert!(matches!(
            cx.into_result(),
            Err(DesyncError::Pipeline { .. })
        ));
    }

    #[test]
    fn unknown_stop_pass_is_an_error() {
        let err = Pipeline::standard().split_after("nope").err().unwrap();
        assert!(matches!(err, DesyncError::Pipeline { .. }));
        assert!(err.to_string().contains("unknown pass `nope`"), "{err}");
    }

    #[test]
    fn trace_json_parses_and_deterministic_variant_has_no_times() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(
            &lib,
            tool.gatefile(),
            toggle(),
            DesyncOptions::default(),
        );
        Pipeline::standard().run(&mut cx).unwrap();
        let trace = cx.trace();
        for (json, timed) in [(trace.to_json(), true), (trace.to_json_deterministic(), false)] {
            let doc = drd_json::parse(&json).expect("trace parses");
            let passes = doc.get("passes").and_then(drd_json::Value::as_arr).unwrap();
            assert_eq!(passes.len(), 9);
            for pass in passes {
                assert_eq!(pass.get("wall_ns").is_some(), timed, "{pass:?}");
            }
        }
    }

    /// Two regions with different FF flavours: region A toggles through a
    /// `DFFX1`, region B re-registers A's output in a `DFFRX1` — removing
    /// the `DFFRX1` gatefile rule makes exactly one region degradable.
    fn two_region_mixed() -> Module {
        let mut m = Module::new("mix");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("out0", PortDir::Output).unwrap();
        m.add_port("out1", PortDir::Output).unwrap();
        let clk = m.find_net("clk").unwrap();
        let q0 = m.find_net("out0").unwrap();
        let q1 = m.find_net("out1").unwrap();
        let d0 = m.add_net("d0").unwrap();
        m.add_cell("inv0", "INVX1", &[("A", Conn::Net(q0)), ("Z", Conn::Net(d0))])
            .unwrap();
        m.add_cell(
            "r0",
            "DFFX1",
            &[("D", Conn::Net(d0)), ("CK", Conn::Net(clk)), ("Q", Conn::Net(q0))],
        )
        .unwrap();
        let d1 = m.add_net("d1").unwrap();
        m.add_cell("inv1", "INVX1", &[("A", Conn::Net(q0)), ("Z", Conn::Net(d1))])
            .unwrap();
        m.add_cell(
            "r1",
            "DFFRX1",
            &[
                ("D", Conn::Net(d1)),
                ("RN", Conn::Const1),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q1)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn unsupported_ff_degrades_region_not_flow() {
        let lib = vlib90::high_speed();
        let mut gf = Gatefile::from_library(&lib).unwrap();
        gf.rules.retain(|r| r.ff != "DFFRX1");
        let mut cx = FlowContext::new(&lib, &gf, two_region_mixed(), DesyncOptions::default());
        let run = Pipeline::standard().run(&mut cx);
        assert!(run.is_ok(), "degraded flow completes: {run:?}");
        let trace = cx.trace();
        assert_eq!(trace.degradations.len(), 1, "{:?}", trace.degradations);
        assert!(trace.to_json().contains("\"degradations\""));
        let result = cx.into_result().unwrap();
        let rep = &result.report;
        assert_eq!(rep.degradations.len(), 1);
        let d = &rep.degradations[0];
        assert!(
            matches!(&d.reason, DegradeReason::UnsupportedFf { kind } if kind == "DFFRX1"),
            "{d:?}"
        );
        assert_eq!(d.cells, vec!["r1".to_string()]);
        // Region A desynchronized: one FF substituted, one controller pair.
        assert_eq!(rep.substituted_ffs, 1);
        assert_eq!(rep.controllers, 2);
        // Region B kept its flip-flop, clock and got no controller.
        let top = result.design.module(result.design.top());
        let r1 = top.find_cell("r1").expect("degraded FF survives");
        assert_eq!(top.cell(r1).kind_name(), "DFFRX1");
        assert!(top.find_cell(&format!("drd_{}_ctlm", d.region)).is_none());
        // The SDC declares the clock-domain crossing.
        assert!(result.sdc.contains("set_clock_groups -asynchronous"), "{}", result.sdc);
    }

    #[test]
    fn degradation_after_ffsub_names_the_removed_flip_flops() {
        // The liveness guard degrades a region after its flip-flops were
        // substituted; their removed cells still carry the names.
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), DesyncOptions::default());
        let (head, _) = Pipeline::standard().split_after("control-network").unwrap();
        head.run(&mut cx).unwrap();
        let top = cx.top_module();
        let r = &cx.regions().unwrap().regions[0];
        assert!(r.seq_cells.iter().all(|&c| !top.is_cell_alive(c)));
        let reason = DegradeReason::Liveness {
            message: String::new(),
        };
        assert_eq!(degradation(top, r, reason).cells, vec!["r0".to_string()]);
    }

    #[test]
    fn strict_mode_restores_fail_fast() {
        let lib = vlib90::high_speed();
        let mut gf = Gatefile::from_library(&lib).unwrap();
        gf.rules.retain(|r| r.ff != "DFFRX1");
        let opts = DesyncOptions {
            strict: true,
            ..DesyncOptions::default()
        };
        let mut cx = FlowContext::new(&lib, &gf, two_region_mixed(), opts);
        let err = Pipeline::standard().run(&mut cx);
        assert!(
            matches!(err, Err(DesyncError::NoRule { ref cell }) if cell == "DFFRX1"),
            "{err:?}"
        );
        assert!(cx.trace().degradations.is_empty());
        assert_eq!(cx.trace().error.as_ref().map(|e| e.pass), Some("ffsub"));
    }

    struct PanicPass;
    impl Pass for PanicPass {
        fn name(&self) -> &'static str {
            "boom"
        }
        fn run(&self, _cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
            panic!("kaboom {}", 6 * 7)
        }
    }

    #[test]
    fn panicking_pass_is_caught_as_structured_error() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), DesyncOptions::default());
        let mut p = Pipeline::empty();
        p.push(Box::new(PanicPass));
        match p.run(&mut cx) {
            Err(DesyncError::Panic { pass, message }) => {
                assert_eq!(pass, "boom");
                assert!(message.contains("kaboom 42"), "{message}");
            }
            other => panic!("expected Panic, got {other:?}"),
        }
        let trace = cx.trace();
        assert_eq!(trace.error.as_ref().unwrap().pass, "boom");
        assert!(trace.passes.is_empty(), "the failed pass is not recorded as executed");
    }

    #[test]
    fn cell_budget_violation_is_a_structured_error() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let opts = DesyncOptions {
            max_cells: Some(1),
            ..DesyncOptions::default()
        };
        // toggle() has 2 cells: the very first pass must trip the budget.
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), opts);
        let err = Pipeline::standard().run(&mut cx);
        assert!(
            matches!(
                err,
                Err(DesyncError::Budget {
                    resource: "cells",
                    limit: 1,
                    actual: 2,
                    ..
                })
            ),
            "{err:?}"
        );
        let trace = cx.trace();
        assert_eq!(trace.passes.len(), 1, "the tripping pass is still traced");
        assert_eq!(trace.error.as_ref().map(|e| e.pass), Some("clean"));
    }

    struct SleepPass;
    impl Pass for SleepPass {
        fn name(&self) -> &'static str {
            "nap"
        }
        fn run(&self, _cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
            std::thread::sleep(std::time::Duration::from_millis(25));
            Ok(PassReport::default())
        }
    }

    #[test]
    fn pass_deadline_is_enforced_post_hoc() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let opts = DesyncOptions {
            pass_deadline_ms: Some(1),
            ..DesyncOptions::default()
        };
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), opts);
        let mut p = Pipeline::empty();
        p.push(Box::new(SleepPass));
        let err = p.run(&mut cx);
        assert!(
            matches!(
                err,
                Err(DesyncError::Deadline {
                    pass: "nap",
                    limit_ms: 1
                })
            ),
            "{err:?}"
        );
    }
}
