//! The one-shot CLI's work, in process: parse, the nine passes,
//! `into_result`, then the Verilog writer and the report rendering —
//! the same calls `drdesync desync` makes, so its output files must
//! equal these bytes. Traced, every layer call runs inside a span.

use std::rc::Rc;

use drd_core::pipeline::{
    CleanPass, ClockIdPass, ControlNetworkPass, DdgPass, FfSubPass, GroupPass, RegionDelaysPass,
    SdcPass,
};
use drd_core::{
    DesyncError, DesyncResult, Desynchronizer, FlowContext, LivenessGuardPass, Pass, PassReport,
    Pipeline,
};
use drd_liberty::Library;

use crate::inputs::Design;
use crate::trace::{maybe, Tracer};

/// The three files `drdesync desync -o --sdc --report` writes.
#[derive(Clone, PartialEq, Eq)]
pub struct Files {
    pub verilog: String,
    pub sdc: String,
    pub report: String,
}

pub struct Job {
    pub files: Files,
    pub result: DesyncResult,
}

/// A bench-side wrapper that records one span per pass, with the
/// top-module cell delta, the slowest per-region task and the liveness
/// repair count as span counts.
struct Spanned {
    span: &'static str,
    inner: Box<dyn Pass>,
    tracer: Rc<Tracer>,
}

impl Pass for Spanned {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<PassReport, DesyncError> {
        let cells_before = cx.netlist_stats().0;
        let id = self.tracer.enter(self.span);
        let report = self.inner.run(cx);
        self.tracer.exit(id);
        if let Ok(r) = &report {
            let delta = cx.netlist_stats().0 as f64 - cells_before as f64;
            self.tracer.count(id, "cells_delta", delta);
            let slowest = r.region_wall_ns.iter().max().copied().unwrap_or(0);
            self.tracer.count(id, "region_max_ns", slowest as f64);
            self.tracer
                .count(id, "repairs", cx.liveness_repairs().len() as f64);
        }
        report
    }
}

/// Span names of the nine passes, in flow order.
pub const PASS_SPANS: [&str; 9] = [
    "core.clean",
    "core.clock-id",
    "core.group",
    "core.ddg",
    "core.region-delays",
    "core.ffsub",
    "core.control-network",
    "core.liveness",
    "core.sdc",
];

/// The standard pipeline rebuilt from its public passes, each wrapped
/// in [`Spanned`].
///
/// # Errors
/// When the program's standard pipeline no longer has these passes in
/// this order — the benchmark must then be updated with it.
fn traced_pipeline(tracer: &Rc<Tracer>) -> Result<Pipeline, String> {
    let passes: [Box<dyn Pass>; 9] = [
        Box::new(CleanPass),
        Box::new(ClockIdPass),
        Box::new(GroupPass),
        Box::new(DdgPass),
        Box::new(RegionDelaysPass),
        Box::new(FfSubPass),
        Box::new(ControlNetworkPass),
        Box::new(LivenessGuardPass),
        Box::new(SdcPass),
    ];
    let mut pipeline = Pipeline::empty();
    for (span, inner) in PASS_SPANS.into_iter().zip(passes) {
        pipeline.push(Box::new(Spanned {
            span,
            inner,
            tracer: Rc::clone(tracer),
        }));
    }
    let standard = Pipeline::standard().pass_names();
    if pipeline.pass_names() != standard {
        return Err(format!(
            "the standard pipeline is now [{}]; update the traced pipeline to match",
            standard.join(", ")
        ));
    }
    Ok(pipeline)
}

/// Runs `design` through the flow the way `drdesync desync` does.
///
/// # Errors
/// The parse or flow error, rendered.
pub fn run(
    lib: &Library,
    tool: &Desynchronizer<'_>,
    design: &Design,
    tracer: Option<&Rc<Tracer>>,
) -> Result<Job, String> {
    let t = tracer.map(Rc::as_ref);
    let module = maybe(t, "netlist.parse", || {
        drd_netlist::verilog::parse_module(&design.verilog)
    })
    .map_err(|e| format!("{}: parse: {e}", design.name))?;
    let pipeline = match tracer {
        Some(tr) => traced_pipeline(tr)?,
        None => Pipeline::standard(),
    };
    let mut cx = FlowContext::new(lib, tool.gatefile(), module, design.options());
    let flow = |e: DesyncError| format!("{}: flow: {e}", design.name);
    pipeline.run(&mut cx).map_err(flow)?;
    let result = maybe(t, "core.into_result", || cx.into_result()).map_err(flow)?;
    let verilog = maybe(t, "netlist.write", || {
        drd_netlist::verilog::write_design(&result.design)
    });
    let report = maybe(t, "report.render", || format!("{:?}", result.report));
    Ok(Job {
        files: Files {
            verilog,
            sdc: result.sdc.clone(),
            report,
        },
        result,
    })
}

/// Σ library area over the flattened output, as Table 5.1 counts it.
pub fn output_area(lib: &Library, result: &DesyncResult) -> Result<f64, String> {
    let flat = drd_netlist::flatten(&result.design, result.design.top())
        .map_err(|e| format!("flatten: {e}"))?;
    Ok(flat.cells().map(|(_, c)| lib.area_of(c.kind_ref())).sum())
}

/// The output's nominal effective period: the slowest region cycle the
/// handshake simulator measures, or `None` when no region is
/// handshake-controlled.
pub fn output_period_ns(lib: &Library, result: &DesyncResult) -> Result<Option<f64>, String> {
    let Some(net) = handshake_net(lib, result)? else {
        return Ok(None);
    };
    let cycles = net
        .nominal_cycle_times()
        .map_err(|e| format!("nominal: {e}"))?;
    Ok(Some(cycles.iter().map(|c| c.cycle_ns).fold(0.0, f64::max)))
}

/// The output's handshake control network, elaborated for simulation.
pub fn handshake_net(
    lib: &Library,
    result: &DesyncResult,
) -> Result<Option<drd_sim::HandshakeNet>, String> {
    let spec = drd_flow::handshake_spec(&result.report, lib).map_err(|e| format!("spec: {e}"))?;
    if !spec.regions.iter().any(|r| r.controlled) {
        return Ok(None);
    }
    drd_sim::HandshakeNet::elaborate(&spec, lib)
        .map(Some)
        .map_err(|e| format!("elaborate: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pipeline_matches_the_standard_one() {
        let tracer = Rc::new(Tracer::new());
        traced_pipeline(&tracer).expect("same passes in the same order");
    }
}
