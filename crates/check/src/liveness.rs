//! Liveness oracle: the netlist must actually carry the repairs the
//! liveness guard reported, and the repaired network must screen clean
//! under the guard's own response-bound model (DESIGN.md §3i).
//!
//! Three structural properties, each killing a class of injected fault
//! the behavioural oracle can miss on a lucky workload:
//!
//! 1. **Measured depth** — every controlled region's delay-element
//!    *module* (`drd_delem_<n>` / `drd_delemx_<n>`) encodes its level
//!    count; the measured count must equal the report's. A deepen repair
//!    that was recorded but not applied (or silently undone) shifts the
//!    pulse-width budget back into hazard territory without touching any
//!    other census.
//! 2. **Hazard recheck** — re-running [`drd_core::liveness::hazards`]
//!    over the *measured* depths and the report's DDG edges must flag
//!    nothing: every loopback source either satisfies the response
//!    bound or carries a request-extending latch.
//! 3. **Latch accounting** — a `RequestLatch` record implies the
//!    `drd_<r>_reqext` C-element exists and feeds the region's delay
//!    element, and every `reqext` cell in the netlist is backed by a
//!    record (no unexplained latches).
//!
//! Degraded regions are checked for clean excision: no controller pair,
//! no delay element, and the synchronous re-clocking cells present.

use drd_core::liveness::{hazards, RegionState, ResponseModel};
use drd_core::{DesyncReport, LivenessAction};
use drd_liberty::Library;
use drd_netlist::Design;

/// Parses the level count out of a delay-element module name
/// (`drd_delem_12` → 12, `drd_delemx_7` → 7).
fn delem_levels_of(kind: &str) -> Option<usize> {
    kind.strip_prefix("drd_delemx_")
        .or_else(|| kind.strip_prefix("drd_delem_"))?
        .parse()
        .ok()
}

/// Verifies the liveness guard's contract on a finished flow result —
/// see the module docs for the three properties.
///
/// # Errors
/// A description of the first violated property.
pub fn verify_liveness(
    report: &DesyncReport,
    design: &Design,
    lib: &Library,
) -> Result<(), String> {
    let top = design.module(design.top());
    let model = ResponseModel::probe(lib).map_err(|e| format!("response model: {e}"))?;
    let degraded =
        |name: &str| report.degradations.iter().any(|d| d.region == name);

    // Property 1: measured delay-element depths match the report.
    let mut states = Vec::with_capacity(report.regions.len());
    for r in &report.regions {
        let inst = format!("drd_{}_delem", r.name);
        let measured = top
            .find_cell(&inst)
            .map(|id| top.cell(id).kind_name().to_owned());
        let controlled = r.ffs > 0 && r.delem_levels > 0;
        match (&measured, controlled) {
            (Some(kind), true) => {
                let levels = delem_levels_of(kind)
                    .ok_or_else(|| format!("{inst} has non-delay module `{kind}`"))?;
                if levels != r.delem_levels {
                    return Err(format!(
                        "region {}: delay element is {levels} levels deep, report says {}",
                        r.name, r.delem_levels
                    ));
                }
            }
            (None, true) => return Err(format!("region {}: delay element {inst} missing", r.name)),
            (Some(_), false) => {
                return Err(format!(
                    "region {}: uncontrolled but delay element {inst} survives",
                    r.name
                ))
            }
            (None, false) => {}
        }
        let latched = top.find_cell(&format!("drd_{}_reqext", r.name)).is_some();
        states.push(RegionState {
            name: r.name.clone(),
            controlled,
            levels: r.delem_levels,
            latched,
        });
    }

    // Property 2: the shipped depths screen clean — every unlatched
    // loopback source's rise time stays inside the fastest successor's
    // response bound (the margin only widens the deepening target, not
    // the hazard condition, so 1.0 is exact here).
    let slot = |name: &str| report.regions.iter().position(|r| r.name == name);
    let edges: Vec<(usize, usize)> = report
        .ddg_edges
        .iter()
        .filter_map(|(a, b)| Some((slot(a)?, slot(b)?)))
        .collect();
    if let Some(h) = hazards(&model, &states, &edges, 1.0).first() {
        let r = &states[h.region];
        return Err(format!(
            "region {}: unrepaired pulse-swallowing hazard shipped (rise {:.3} ns >= \
             successor response {:.3} ns, no request latch)",
            r.name, h.rise_ns, h.bound_ns
        ));
    }

    // Property 3: latch records and latch cells agree both ways.
    for lr in &report.liveness_repairs {
        if !matches!(lr.action, LivenessAction::RequestLatch) {
            continue;
        }
        if degraded(&lr.region) {
            continue; // a later Degrade rung excised the latch with the region
        }
        let inst = format!("drd_{}_reqext", lr.region);
        let Some(cell) = top.find_cell(&inst) else {
            return Err(format!(
                "region {}: request latch recorded but {inst} is missing",
                lr.region
            ));
        };
        // The latch output must be what the delay element samples.
        let q = top.cell(cell).pin("Z").and_then(|c| c.net());
        let delem = top
            .find_cell(&format!("drd_{}_delem", lr.region))
            .ok_or_else(|| format!("region {}: latched but no delay element", lr.region))?;
        let in1 = top.cell(delem).pin("in1").and_then(|c| c.net());
        if q.is_none() || q != in1 {
            return Err(format!(
                "region {}: request latch {inst} does not feed the delay element",
                lr.region
            ));
        }
    }
    for r in &report.regions {
        let inst = format!("drd_{}_reqext", r.name);
        if top.find_cell(&inst).is_some()
            && !report.liveness_repairs.iter().any(|lr| {
                lr.region == r.name && matches!(lr.action, LivenessAction::RequestLatch)
            })
        {
            return Err(format!("region {}: unexplained request latch {inst}", r.name));
        }
    }

    // Degraded regions: the control machinery must be fully excised and
    // the synchronous re-clocking in place.
    for d in &report.degradations {
        for suffix in ["ctlm", "ctls", "delem", "reqext"] {
            let inst = format!("drd_{}_{suffix}", d.region);
            if top.find_cell(&inst).is_some() {
                return Err(format!(
                    "degraded region {}: control cell {inst} survives",
                    d.region
                ));
            }
        }
        for suffix in ["syncm", "syncs"] {
            let inst = format!("drd_{}_{suffix}", d.region);
            if top.find_cell(&inst).is_none() {
                return Err(format!(
                    "degraded region {}: re-clocking cell {inst} missing",
                    d.region
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netgen::{FfKind, FfRecipe, GateOp, NetRecipe, StageRecipe};
    use drd_core::{DesyncOptions, Desynchronizer};
    use drd_liberty::vlib90;

    /// The stall-test shape: a 24-NAND source feeding a 1-inverter sink —
    /// guaranteed to exercise the repair ladder.
    fn imbalanced_recipe() -> NetRecipe {
        let chain: Vec<GateOp> = (0..24)
            .map(|c| GateOp { kind: 2, a: if c == 0 { 0 } else { 3 + c - 1 }, b: 0 })
            .collect();
        NetRecipe {
            inputs: 1,
            input_bits: 1,
            stages: vec![
                StageRecipe {
                    cloud: chain,
                    ffs: vec![FfRecipe { kind: FfKind::Plain, d: 3 + 23, aux0: 0, aux1: 0 }],
                },
                StageRecipe {
                    cloud: vec![GateOp { kind: 0, a: 1, b: 0 }],
                    ffs: vec![FfRecipe { kind: FfKind::Plain, d: 3, aux0: 0, aux1: 0 }],
                },
            ],
        }
    }

    #[test]
    fn oracle_accepts_a_repaired_flow() {
        let lib = vlib90::high_speed();
        let module = imbalanced_recipe().build().unwrap();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool.run(module, &DesyncOptions::default()).0.unwrap();
        assert!(!result.report.liveness_repairs.is_empty(), "repair expected");
        verify_liveness(&result.report, &result.design, &lib).expect("repaired flow verifies");
    }

    #[test]
    fn oracle_catches_a_shallowed_delay_element() {
        let lib = vlib90::high_speed();
        let module = imbalanced_recipe().build().unwrap();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut result = tool.run(module, &DesyncOptions::default()).0.unwrap();
        // Undo the deepen in the netlist only: swap the deepened module
        // back for a 2-level one, leaving the report pristine.
        let deepened = result
            .report
            .liveness_repairs
            .iter()
            .find_map(|lr| match &lr.action {
                drd_core::LivenessAction::DeepenSuccessor { successor, from_levels, .. } => {
                    Some((successor.clone(), *from_levels))
                }
                _ => None,
            })
            .expect("flow deepened a successor");
        let (succ, from) = deepened;
        let shallow = drd_core::network::delem_module_name(false, from);
        if result.design.find_module(&shallow).is_none() {
            result
                .design
                .insert(drd_core::delay_element::build_fixed(&shallow, from));
        }
        let top = result.design.top();
        let m = result.design.module_mut(top);
        let cell = m.find_cell(&format!("drd_{succ}_delem")).unwrap();
        let kind = m.instance_kind(&shallow);
        m.set_cell_kind(cell, kind);

        let err = verify_liveness(&result.report, &result.design, &lib)
            .expect_err("shallowed delay element must be caught");
        assert!(err.contains("levels deep"), "{err}");
    }

    #[test]
    fn oracle_catches_a_stripped_request_latch() {
        let lib = vlib90::high_speed();
        // Force the latch rung: a clock budget too small to deepen into.
        let module = imbalanced_recipe().build().unwrap();
        let tool = Desynchronizer::new(&lib).unwrap();
        let opts = DesyncOptions { clock_period_ns: 0.5, ..DesyncOptions::default() };
        let result = tool.run(module, &opts).0.unwrap();
        let latched: Vec<&str> = result
            .report
            .liveness_repairs
            .iter()
            .filter(|lr| matches!(lr.action, drd_core::LivenessAction::RequestLatch))
            .map(|lr| lr.region.as_str())
            .collect();
        assert!(!latched.is_empty(), "tight budget must force the latch rung");
        verify_liveness(&result.report, &result.design, &lib).expect("latched flow verifies");

        // Strip the latch but leave the record: both directions of the
        // accounting must catch it (here: record without cell).
        let mut broken = result.clone();
        let region = latched[0].to_owned();
        let top = broken.design.top();
        let m = broken.design.module_mut(top);
        let ros = m.find_net(&format!("drd_{region}_ros")).unwrap();
        let delem = m.find_cell(&format!("drd_{region}_delem")).unwrap();
        m.set_pin(delem, "in1", drd_netlist::Conn::Net(ros));
        let latch = m.find_cell(&format!("drd_{region}_reqext")).unwrap();
        m.remove_cell(latch);
        // The hazard recheck sees the unlatched source first; the latch
        // accounting is the backstop for non-hazardous regions.
        let err = verify_liveness(&broken.report, &broken.design, &lib)
            .expect_err("stripped latch must be caught");
        assert!(err.contains("hazard") || err.contains("reqext"), "{err}");
    }
}
