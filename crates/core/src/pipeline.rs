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

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use drd_json::escape;
use drd_liberty::gatefile::Gatefile;
use drd_liberty::Library;
use drd_netlist::{Connectivity, Design, Module, ModuleId, NetlistError};
use drd_sim::{HandshakeSpec, RegionSpec};

use crate::ddg::{self, Ddg};
use crate::desync::{DesyncOptions, DesyncReport, DesyncResult, RegionSummary};
use crate::ffsub::{Substituter, Substitution};
use crate::liveness::{self, LivenessAction, LivenessRepair};
use crate::network::{self, NetworkReport};
use crate::region::{self, Region, Regions};
use crate::sdc;
use crate::{Degradation, DegradeReason, DesyncError, LibraryFacts};

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
    /// The working module's driver/load tables (or why they cannot be
    /// built), while the module is unchanged: handed over by `clean`, or
    /// built by the first pass that needs them, then read by `group` and
    /// `ddg`, and taken by `region-delays`, the last reader. Every
    /// mutable borrow of the module drops it.
    conn: OnceCell<Result<Connectivity, NetlistError>>,
    cleaned_cells: usize,
    clock_net: Option<String>,
    regions: Option<Regions>,
    ddg: Option<Ddg>,
    region_delays: Option<Vec<f64>>,
    substituted_ffs: usize,
    extra_gates: usize,
    substitution: Option<Substitution>,
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
            conn: OnceCell::new(),
            cleaned_cells: 0,
            clock_net: None,
            regions: None,
            ddg: None,
            region_delays: None,
            substituted_ffs: 0,
            extra_gates: 0,
            substitution: None,
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

    /// The library's facts, kept with the gatefile: measured by the first
    /// run that needs them, then read by every later run.
    pub fn facts(&self) -> LibraryFacts<'a> {
        LibraryFacts::new(self.lib, &self.gatefile.measured)
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

    /// What flip-flop substitution created (after `ffsub`).
    pub fn substitution(&self) -> Option<&Substitution> {
        self.substitution.as_ref()
    }

    /// Records what a custom pass standing in for `ffsub` created.
    pub fn record_substitution(&mut self, substitution: Substitution) {
        self.substitution = Some(substitution);
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

    /// The working module, for a change: its connectivity snapshot goes.
    fn module_mut(&mut self) -> Result<&mut Module, DesyncError> {
        self.conn.take();
        match &mut self.netlist {
            Netlist::Module(m) => Ok(m),
            Netlist::Design { .. } => Err(missing("a pre-network module", "control-network")),
        }
    }

    /// Mutable access to the pre-network working module — the hook custom
    /// passes (and the mutation-testing harness) use to transform the
    /// netlist between standard passes. The passes after it see the
    /// change: the connectivity snapshot the earlier passes shared is
    /// dropped, and the next pass that needs one builds it afresh.
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

    /// The working module with its connectivity snapshot, built now if
    /// no pass has left one since the module last changed. A build that
    /// fails is kept as its error, which the reading pass reports where
    /// it first needs the tables, as when it built them itself.
    fn snapshot(&self) -> Result<(&Module, &Result<Connectivity, NetlistError>), DesyncError> {
        let module = self.module()?;
        Ok((
            module,
            self.conn.get_or_init(|| module.connectivity(self.lib)),
        ))
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
        let clock_name = self
            .clock_net
            .ok_or_else(|| missing("clock net", "clock-id"))?;
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
                delem_levels: net_report.delem_levels(i),
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
                controllers: net_report.controllers(),
                celements: net_report.celements(),
                cleaned_cells: self.cleaned_cells,
                degradations: self.trace.degradations,
                liveness_repairs: self.trace.liveness_repairs,
            },
            network: net_report,
            substitution: self
                .substitution
                .ok_or_else(|| missing("enable nets", "ffsub"))?,
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
    /// Always empty: every pass runs serially, so no pass times
    /// per-region tasks. Kept for callers that read it.
    pub region_wall_ns: Vec<u128>,
}

impl PassReport {
    /// Report of a pass.
    pub fn new(artifacts: Vec<&'static str>, detail: String) -> Self {
        PassReport {
            artifacts,
            detail,
            region_wall_ns: Vec::new(),
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
            let (stats, conn) = region::clean_for_grouping(cx.module_mut()?, lib);
            // The last round removed nothing: its snapshot is the cleaned
            // module's.
            cx.conn = OnceCell::from(conn);
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
            Some(port) => module.find_net(port).ok_or_else(|| DesyncError::Clock {
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
        let (module, conn) = cx.snapshot()?;
        let regions = region::group(module, cx.lib, &grouping, conn)?;
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
        let regions = cx
            .regions
            .as_ref()
            .ok_or_else(|| missing("regions", "group"))?;
        let (module, conn) = cx.snapshot()?;
        let graph = ddg::build(module, cx.lib, regions, conn)?;
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
        let regions = cx
            .regions
            .as_ref()
            .ok_or_else(|| missing("regions", "group"))?;
        // The snapshot's last reader takes it, and frees it once the
        // timing graph is built.
        let conn = cx.conn.take();
        let module = cx.module()?;
        let conn = conn.unwrap_or_else(|| module.connectivity(cx.lib));
        let mut delays = crate::desync::region_delays(module, cx.lib, regions, conn)?;
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
        let regions = cx
            .regions
            .take()
            .ok_or_else(|| missing("regions", "group"))?;
        let strict = cx.opts.strict;
        let mut sub = Substituter::new(cx.lib, cx.gatefile);
        let mut substituted = 0usize;
        let mut extra_gates = 0usize;
        let mut degraded: Vec<(usize, Degradation)> = Vec::new();
        let mut enables = vec![None; regions.regions.len()];
        let first_cell = cx.module()?.cell_slots();
        let result = (|| -> Result<(), DesyncError> {
            // Region by region, in region-index order: check the region,
            // then substitute it. Substitution is destructive, so
            // degradation must be atomic — either every flip-flop of the
            // region converts or none does. The check reads only the
            // region's own cells, and regions are disjoint, so the regions
            // substituted before it cannot change its verdict.
            for (i, r) in regions.regions.iter().enumerate() {
                if r.seq_cells.is_empty() || cx.degraded[i] {
                    continue;
                }
                let reason = sub.degrade_reason(cx.module()?, &r.seq_cells);
                if let Some(reason) = reason {
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
                let (gm, gs) = sub.add_enable_nets(working, &r.name);
                let rep = sub.substitute(working, &r.seq_cells, gm, gs)?;
                enables[i] = Some((gm, gs));
                substituted += rep.substituted;
                extra_gates += rep.extra_gates;
            }
            Ok(())
        })();
        cx.regions = Some(regions);
        result?;
        cx.substituted_ffs = substituted;
        cx.extra_gates = extra_gates;
        let cells = first_cell..cx.module()?.cell_slots();
        cx.substitution = Some(Substitution { enables, cells });
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
        Ok(PassReport::new(vec!["substituted-ffs"], detail))
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
        let regions = cx
            .regions
            .as_ref()
            .ok_or_else(|| missing("regions", "group"))?;
        let graph = cx.ddg.as_ref().ok_or_else(|| missing("DDG", "ddg"))?;
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let substitution = cx
            .substitution
            .as_ref()
            .ok_or_else(|| missing("enable nets", "ffsub"))?;
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
            &cx.facts(),
            substitution,
            network::NetworkOptions {
                muxed: cx.opts.muxed_delay_elements,
                margin: cx.opts.delay_margin,
            },
        );
        cx.netlist = Netlist::Design { design, top };
        let net_report = inserted?;
        let detail = format!(
            "{} controllers, {} C-elements, {} delay elements",
            net_report.controllers(),
            net_report.celements(),
            net_report.delay_elements()
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
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let edges = cx
            .ddg
            .as_ref()
            .ok_or_else(|| missing("DDG", "ddg"))?
            .edges
            .clone();
        let regions = cx
            .regions
            .as_ref()
            .ok_or_else(|| missing("regions", "group"))?;
        let net_report = cx
            .network
            .as_ref()
            .ok_or_else(|| missing("network report", "control-network"))?;
        let facts = cx.facts();
        let model = facts.response()?;
        let mut spec = HandshakeSpec {
            regions: regions
                .regions
                .iter()
                .enumerate()
                .map(|(i, r)| RegionSpec {
                    name: r.name.clone(),
                    controlled: net_report.delem_levels(i) > 0,
                    matched_levels: net_report.delem_levels(i),
                    critical_delay_ns: delays.get(i).copied().unwrap_or(0.0),
                    loopback_latch: false,
                })
                .collect(),
            edges,
            level_delay_ns: model.level_delay_ns,
            ff_overhead_ns: facts.ff_overhead(),
        };
        let repairs = liveness::plan_repairs(
            &model,
            &mut spec,
            cx.opts.clock_period_ns,
            cx.opts.delay_margin,
            cx.opts.strict,
            |s| liveness::validate_with_sim(s, lib),
        )?;
        if repairs.is_empty() {
            return Ok(PassReport::new(
                vec!["liveness-repairs"],
                "no pulse-swallowing hazards".into(),
            ));
        }

        apply_liveness_repairs(cx, &repairs)?;
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

/// Applies the liveness guard's planned surgery, serially and in record
/// order, to the netlist and to the control network's ID table, so later
/// records see earlier effects.
fn apply_liveness_repairs(
    cx: &mut FlowContext<'_>,
    repairs: &[LivenessRepair],
) -> Result<(), DesyncError> {
    let facts = cx.facts();
    let muxed = cx.opts.muxed_delay_elements;
    let clock_name = cx
        .clock_net
        .as_deref()
        .ok_or_else(|| missing("clock net", "clock-id"))?;
    let regions = cx
        .regions
        .as_ref()
        .ok_or_else(|| missing("regions", "group"))?;
    let edges = &cx.ddg.as_ref().ok_or_else(|| missing("DDG", "ddg"))?.edges;
    let substitution = cx
        .substitution
        .as_ref()
        .ok_or_else(|| missing("enable nets", "ffsub"))?;
    let network = cx
        .network
        .as_mut()
        .ok_or_else(|| missing("network report", "control-network"))?;
    let Netlist::Design { design, top } = &mut cx.netlist else {
        return Err(missing("the desynchronized design", "control-network"));
    };
    let top = *top;
    let index = |name: &str| {
        regions
            .regions
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| DesyncError::Pipeline {
                message: format!("liveness repair names unknown region `{name}`"),
            })
    };
    let uncontrolled = |name: &str| DesyncError::Pipeline {
        message: format!("liveness repair: region `{name}` has no control network"),
    };
    let mut degraded = Vec::new();
    for rep in repairs {
        let i = index(&rep.region)?;
        match &rep.action {
            LivenessAction::DeepenSuccessor {
                successor,
                to_levels,
                ..
            } => {
                let ctl = network.regions[index(successor)?]
                    .as_mut()
                    .ok_or_else(|| uncontrolled(successor))?;
                liveness::apply_deepen(design, top, ctl, *to_levels, muxed, &facts)?;
            }
            LivenessAction::RequestLatch => {
                let ctl = network.regions[i]
                    .as_mut()
                    .ok_or_else(|| uncontrolled(&rep.region))?;
                liveness::apply_latch(design.module_mut(top), ctl, &rep.region)?;
            }
            LivenessAction::Degrade => {
                let succs: Vec<usize> = edges
                    .iter()
                    .filter(|&&(p, s)| p == i && s != i)
                    .map(|&(_, s)| s)
                    .collect();
                let m = design.module_mut(top);
                let clock = m
                    .find_net(clock_name)
                    .ok_or_else(|| DesyncError::Pipeline {
                        message: format!("liveness degrade: clock net `{clock_name}` missing"),
                    })?;
                let enable = substitution.enables[i].ok_or_else(|| uncontrolled(&rep.region))?;
                let controls = &mut network.regions;
                liveness::apply_degrade(m, controls, i, &succs, clock, enable, &rep.region)?;
                // The region's flip-flops were substituted; their
                // removed cells keep their names.
                let reason = DegradeReason::Liveness {
                    message: format!(
                        "request pulse {:.3} ns vs successor response {:.3} ns; \
                         deepen and latch repairs did not restore liveness",
                        rep.rise_ns, rep.response_bound_ns
                    ),
                };
                degraded.push((i, degradation(m, &regions.regions[i], reason)));
            }
        }
    }
    for (i, d) in degraded {
        cx.record_degradation(i, d);
    }
    Ok(())
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
        let delays = cx
            .region_delays
            .as_deref()
            .ok_or_else(|| missing("region delays", "region-delays"))?;
        let net_report = cx
            .network
            .as_ref()
            .ok_or_else(|| missing("network report", "control-network"))?;
        // The controlled regions' cells are named here, for the SDC text
        // only; the degraded regions are named in record order.
        let m = cx.top_module();
        let name = |id| m.cell(id).name.to_owned();
        let controlled = || {
            net_report
                .regions
                .iter()
                .enumerate()
                .filter_map(|(i, c)| Some((i, c.as_ref()?)))
        };
        let spec = sdc::SdcSpec {
            period_ns: cx.opts.clock_period_ns,
            clock_port: clock_name.to_owned(),
            controllers: controlled()
                .map(|(_, c)| (name(c.master), name(c.slave)))
                .collect(),
            delay_elements: controlled()
                .filter(|&(i, _)| delays[i] > 0.0)
                .map(|(i, c)| (name(c.delem), delays[i]))
                .collect(),
            degraded: cx
                .trace
                .degradations
                .iter()
                .map(|d| d.region.clone())
                .collect(),
        };
        let text = sdc::generate(&spec);
        let detail = format!("{} SDC lines", text.lines().count());
        cx.sdc = Some(text);
        Ok(PassReport::new(vec!["sdc"], detail))
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
            out.push_str(if i + 1 == self.passes.len() {
                "\n"
            } else {
                ",\n"
            });
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
                out.push_str(if i + 1 == self.degradations.len() {
                    "\n"
                } else {
                    ",\n"
                });
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
                    LivenessAction::DeepenSuccessor {
                        successor,
                        from_levels,
                        to_levels,
                    } => {
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
                out.push_str(if i + 1 == self.liveness_repairs.len() {
                    "\n"
                } else {
                    ",\n"
                });
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
            &[
                ("D", Conn::Net(d)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
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
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), DesyncOptions::default());
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
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), DesyncOptions::default());
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
        let mut cx = FlowContext::new(&lib, tool.gatefile(), toggle(), DesyncOptions::default());
        Pipeline::standard().run(&mut cx).unwrap();
        let trace = cx.trace();
        for (json, timed) in [
            (trace.to_json(), true),
            (trace.to_json_deterministic(), false),
        ] {
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
        m.add_cell(
            "inv0",
            "INVX1",
            &[("A", Conn::Net(q0)), ("Z", Conn::Net(d0))],
        )
        .unwrap();
        m.add_cell(
            "r0",
            "DFFX1",
            &[
                ("D", Conn::Net(d0)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q0)),
            ],
        )
        .unwrap();
        let d1 = m.add_net("d1").unwrap();
        m.add_cell(
            "inv1",
            "INVX1",
            &[("A", Conn::Net(q0)), ("Z", Conn::Net(d1))],
        )
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
        assert!(
            result.sdc.contains("set_clock_groups -asynchronous"),
            "{}",
            result.sdc
        );
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
        assert!(
            trace.passes.is_empty(),
            "the failed pass is not recorded as executed"
        );
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

    /// The liveness stall shape: source `g1` (24 NAND2X1 with tied inputs
    /// from `din` into `ra`) feeds sink `g2` (one INVX1, named `inv`, from
    /// `ra`'s output net `qa` into `rb`). The sink answers far faster than
    /// the source's matched delay rises.
    fn stall_shape(inv: &str) -> Module {
        stall_shape_named(inv, "qa")
    }

    /// [`stall_shape`] with `ra`'s output net named `qa`.
    fn stall_shape_named(inv: &str, qa: &str) -> Module {
        let mut m = Module::new("stall");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("din", PortDir::Input).unwrap();
        m.add_port("dout", PortDir::Output).unwrap();
        let clk = m.find_net("clk").unwrap();
        let dout = m.find_net("dout").unwrap();
        let mut prev = m.find_net("din").unwrap();
        for i in 0..24 {
            let z = m.add_net(format!("n{i}")).unwrap();
            m.add_cell(
                format!("nand{i}"),
                "NAND2X1",
                &[
                    ("A", Conn::Net(prev)),
                    ("B", Conn::Net(prev)),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
            prev = z;
        }
        let qa = m.add_net(qa).unwrap();
        m.add_cell(
            "ra",
            "DFFX1",
            &[
                ("D", Conn::Net(prev)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(qa)),
            ],
        )
        .unwrap();
        let nb = m.add_net("nb").unwrap();
        m.add_cell(inv, "INVX1", &[("A", Conn::Net(qa)), ("Z", Conn::Net(nb))])
            .unwrap();
        m.add_cell(
            "rb",
            "DFFX1",
            &[
                ("D", Conn::Net(nb)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(dout)),
            ],
        )
        .unwrap();
        m
    }

    /// The network report's `[controllers, C-elements, delay elements]`.
    fn network_counts(cx: &FlowContext<'_>) -> [usize; 3] {
        let nr = cx.network().unwrap();
        [nr.controllers(), nr.celements(), nr.delay_elements()]
    }

    /// The same three counts, taken from the top module's cell kinds.
    fn netlist_counts(cx: &FlowContext<'_>) -> [usize; 3] {
        let m = cx.top_module();
        let count = |f: &dyn Fn(&str) -> bool| m.cells().filter(|(_, c)| f(c.kind_name())).count();
        [
            count(&|k| k == "drd_ctrl_master" || k == "drd_ctrl_slave"),
            count(&|k| k == "C2X1"),
            count(&|k| k.starts_with("drd_delem_")),
        ]
    }

    /// Rung 3 of the repair ladder, which no flow input reaches: the
    /// records the liveness pass would apply (latch, then degrade) for
    /// the stall shape's source, through the pass's own apply code.
    #[test]
    fn degrade_surgery_strips_the_source_and_reclocks_it() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut cx = FlowContext::new(
            &lib,
            tool.gatefile(),
            stall_shape("inv"),
            DesyncOptions::default(),
        );
        let (head, _) = Pipeline::standard().split_after("control-network").unwrap();
        head.run(&mut cx).unwrap();
        assert_eq!(network_counts(&cx), netlist_counts(&cx));
        assert_eq!(network_counts(&cx)[0], 4, "g1 and g2 are controlled");
        let repair = |action| LivenessRepair {
            region: "g1".into(),
            rise_ns: 2.0,
            response_bound_ns: 0.5,
            action,
        };

        apply_liveness_repairs(&mut cx, &[repair(LivenessAction::RequestLatch)]).unwrap();
        let latched = network_counts(&cx);
        assert_eq!(latched, netlist_counts(&cx));
        let latched_c2 = netlist_counts(&cx)[1];

        apply_liveness_repairs(&mut cx, &[repair(LivenessAction::Degrade)]).unwrap();
        let degraded = network_counts(&cx);
        assert_eq!(degraded, netlist_counts(&cx));
        assert_eq!(latched[0] - degraded[0], 2, "g1's controller pair");
        assert_eq!(
            latched[1] - degraded[1],
            latched_c2 - netlist_counts(&cx)[1]
        );
        assert_eq!(latched[1] - degraded[1], 1, "g1's request-extending latch");
        assert_eq!(latched[2] - degraded[2], 1, "g1's delay element");

        let m = cx.top_module();
        let net = |name: &str| Conn::Net(m.find_net(name).unwrap());
        let left: Vec<&str> = m
            .cells()
            .map(|(_, c)| c.name)
            .filter(|n| n.starts_with("drd_g1_"))
            .collect();
        assert_eq!(
            left,
            ["drd_g1_syncm", "drd_g1_syncs"],
            "only the re-clocking survives"
        );
        for (name, kind, enable) in [
            ("drd_g1_syncm", "INVX1", "drd_g1_gm"),
            ("drd_g1_syncs", "BUFX1", "drd_g1_gs"),
        ] {
            let cell = m.cell(m.find_cell(name).unwrap());
            assert_eq!(cell.kind_name(), kind);
            assert_eq!(cell.pin("A"), Some(net("clk")), "{name}");
            assert_eq!(cell.pin("Z"), Some(net(enable)), "{name}");
        }
        let g2_delem = m.cell(m.find_cell("drd_g2_delem").unwrap());
        assert_eq!(
            g2_delem.pin("in1"),
            Some(net("drd_g2_ros")),
            "g2 loops back its own request"
        );
        let d = &cx.trace().degradations;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].region, "g1");
        assert!(
            matches!(d[0].reason, DegradeReason::Liveness { .. }),
            "{d:?}"
        );

        SdcPass.run(&mut cx).unwrap();
        let sdc = cx.sdc().unwrap();
        assert!(
            sdc.contains("set_clock_groups -asynchronous -group {Clk} -group {ClkM ClkS}"),
            "{sdc}"
        );
        assert!(sdc.contains("# region `g1` left on Clk"), "{sdc}");
        assert!(
            !sdc.contains("drd_g1_"),
            "no constraint on g1's removed machinery:\n{sdc}"
        );
        assert!(
            sdc.contains("set_dont_touch [get_cells {drd_g2_delem}]"),
            "{sdc}"
        );
    }

    /// A user cell that happens to carry a generated instance name is
    /// left alone: the guard deepens the delay element `control-network`
    /// inserted, and the SDC protects that element.
    #[test]
    fn liveness_repair_and_sdc_reach_the_inserted_delay_element() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool
            .run(stall_shape("drd_g2_delem"), &DesyncOptions::default())
            .0
            .unwrap();
        assert_eq!(
            result
                .report
                .liveness_repairs
                .iter()
                .map(|r| &r.action)
                .collect::<Vec<_>>(),
            [&LivenessAction::DeepenSuccessor {
                successor: "g2".into(),
                from_levels: 2,
                to_levels: 18,
            }]
        );
        let m = result.design.top_module();
        let net = |name: &str| Conn::Net(m.find_net(name).unwrap());
        let user = m.cell(m.find_cell("drd_g2_delem").unwrap());
        assert_eq!(user.kind_name(), "INVX1");
        assert_eq!(user.pin("A"), Some(net("qa")));
        assert_eq!(user.pin("Z"), Some(net("nb")));
        assert_eq!(user.pins().len(), 2, "no delay-element pins grafted on");

        // The element feeding g2's master request.
        let master = m.cell(m.find_cell("drd_g2_ctlm").unwrap());
        let rim = master.pin("ri").unwrap();
        let (_, delem) = m
            .cells()
            .find(|(_, c)| c.pin("out1") == Some(rim))
            .expect("a delay element drives g2's master request");
        assert_eq!(delem.kind_name(), "drd_delem_18");
        assert_ne!(delem.name, "drd_g2_delem");
        let inst = delem.name;
        assert!(
            result.sdc.contains(&format!(
                "-from [get_pins {{{inst}/in1}}] -to [get_pins {{{inst}/out1}}]"
            )),
            "{}",
            result.sdc
        );
        assert!(result
            .sdc
            .contains(&format!("set_dont_touch [get_cells {{{inst}}}]")));
        assert!(!result.sdc.contains("{drd_g2_delem}"), "{}", result.sdc);
        assert!(!result.sdc.contains("{drd_g2_delem/"), "{}", result.sdc);
    }

    /// A user net named like a generated enable net keeps its driver and
    /// loads: ffsub gives `g2` a fresh pair, and `control-network` drives
    /// the pair it was handed.
    #[test]
    fn user_net_named_like_an_enable_net_is_left_alone() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool
            .run(
                stall_shape_named("inv", "drd_g2_gm"),
                &DesyncOptions::default(),
            )
            .0
            .unwrap();
        let g2 = result
            .report
            .regions
            .iter()
            .position(|r| r.name == "g2")
            .unwrap();
        let (gm, _) = result.substitution.enables[g2].unwrap();
        let m = result.design.top_module();
        let user = m.find_net("drd_g2_gm").unwrap();
        assert_ne!(gm, user);
        let master = m.cell(result.control("g2").unwrap().master);
        assert_eq!(master.pin("g"), Some(Conn::Net(gm)));
        let on_user: Vec<(&str, &str)> = m
            .cells()
            .flat_map(|(_, c)| {
                (0..c.pins().len())
                    .filter(move |&i| c.pins()[i].1 == Conn::Net(user))
                    .map(move |i| (c.name, c.pin_name(i)))
            })
            .collect();
        assert_eq!(
            on_user,
            [("inv", "A"), ("ra_ls", "Q")],
            "driver and load kept"
        );
    }
}
