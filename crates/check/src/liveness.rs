//! Liveness oracle: the netlist must actually carry the repairs the
//! liveness guard reported, and the repaired network must screen clean
//! under the guard's own response-bound model (DESIGN.md §3i).
//!
//! The oracle reaches the generated cells through the result's control
//! table ([`DesyncResult::network`]) and enable table
//! ([`DesyncResult::substitution`]), never by their names, so it also
//! runs on inputs whose names collide with generated ones.
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
//!    over the result's [`drd_core::handshake_spec`], with the depths
//!    just measured and the request latches the netlist carries, must
//!    flag nothing: every loopback source either satisfies the response
//!    bound or carries a request-extending latch.
//! 3. **Latch accounting** — a `RequestLatch` record implies the
//!    region's request-extending C-element is alive and feeds its delay
//!    element, and every latch in the table is backed by a record (no
//!    unexplained latches).
//!
//! Degraded regions are checked for clean excision: no control network
//! left, and any enable nets substitution gave the region driven by one
//! clock-fed cell alone. Nor may anything generated escape the table:
//! every live controller, delay element and C-element the flow appended
//! after substitution must belong to a controlled region's entry, so a
//! latch the table does not record, or a cell a degrade left, is caught.

use drd_core::controller::ControllerRole;
use drd_core::liveness::{hazards, ResponseModel};
use drd_core::network::RegionControl;
use drd_core::{handshake_spec, DesyncResult, LivenessAction};
use drd_liberty::Library;
use drd_netlist::{CellId, Conn, Endpoint};

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
pub fn verify_liveness(result: &DesyncResult, lib: &Library) -> Result<(), String> {
    let (report, top) = (&result.report, result.design.top_module());
    let model = ResponseModel::probe(lib).map_err(|e| format!("response model: {e}"))?;
    let mut spec = handshake_spec(report, lib).map_err(|e| format!("handshake spec: {e}"))?;
    let alive = |id: CellId| top.is_cell_alive(id).then_some(id);
    let latched = |lr: &drd_core::LivenessRepair| {
        lr.action == LivenessAction::RequestLatch
            && !report.degradations.iter().any(|d| d.region == lr.region)
    };

    // Property 1: measured delay-element depths match the report.
    let mut listed = vec![false; top.cell_slots()];
    for (i, r) in spec.regions.iter_mut().enumerate() {
        let control = result.network.regions.get(i).and_then(Option::as_ref);
        let control = control.filter(|_| r.controlled);
        match (control.and_then(|c| alive(c.delem)), r.controlled) {
            (Some(delem), _) => {
                let (inst, kind) = (top.cell(delem).name, top.cell(delem).kind_name());
                let levels = delem_levels_of(kind)
                    .ok_or_else(|| format!("{inst} has non-delay module `{kind}`"))?;
                if levels != r.matched_levels {
                    return Err(format!(
                        "region {}: delay element is {levels} levels deep, report says {}",
                        r.name, r.matched_levels
                    ));
                }
            }
            (None, true) => return Err(format!("region {}: delay element missing", r.name)),
            (None, false) => {}
        }
        control
            .into_iter()
            .flat_map(RegionControl::cells)
            .for_each(|id| listed[id.index()] = true);
        r.loopback_latch = control.and_then(|c| alive(c.latch?.0)).is_some();
    }

    // Property 2: the shipped depths screen clean — every unlatched
    // loopback source's rise time stays inside the fastest successor's
    // response bound (the margin only widens the deepening target, not
    // the hazard condition, so 1.0 is exact here).
    if let Some(h) = hazards(&model, &spec, 1.0).first() {
        let r = &spec.regions[h.region];
        return Err(format!(
            "region {}: unrepaired pulse-swallowing hazard shipped (rise {:.3} ns >= \
             successor response {:.3} ns, no request latch)",
            r.name, h.rise_ns, h.bound_ns
        ));
    }

    // Property 3: latch records and latch cells agree both ways. A later
    // Degrade rung excises a latch with its region.
    for lr in report.liveness_repairs.iter().filter(|lr| latched(lr)) {
        let ctl = result
            .control(&lr.region)
            .ok_or_else(|| format!("region {}: latched but no control network", lr.region))?;
        let Some(latch) = ctl.latch.and_then(|(c2, _)| alive(c2)) else {
            return Err(format!(
                "region {}: request latch recorded but missing",
                lr.region
            ));
        };
        // The latch output must be what the delay element samples.
        let q = top.cell(latch).pin("Z").and_then(Conn::net);
        let in1 = top.cell(ctl.delem).pin("in1").and_then(Conn::net);
        if q.is_none() || q != in1 {
            return Err(format!(
                "region {}: request latch {} does not feed the delay element",
                lr.region,
                top.cell(latch).name
            ));
        }
    }
    for r in &spec.regions {
        let recorded = report
            .liveness_repairs
            .iter()
            .any(|lr| lr.region == r.name && latched(lr));
        if r.loopback_latch && !recorded {
            return Err(format!("region {}: unexplained request latch", r.name));
        }
    }

    // Degraded regions: the control network must be fully excised and
    // any enable nets driven from the clock, by one cell alone.
    let clock = top.find_net(&report.clock_net);
    for d in &report.degradations {
        let slot = spec.regions.iter().position(|r| r.name == d.region);
        let i = slot.ok_or_else(|| format!("degraded region {} unknown", d.region))?;
        if result.control(&d.region).is_some() {
            return Err(format!(
                "degraded region {}: control network survives",
                d.region
            ));
        }
        let Some((gm, gs)) = result.substitution.enables.get(i).copied().flatten() else {
            continue;
        };
        let conn = top
            .connectivity(&result.design.pin_dirs(lib))
            .map_err(|e| format!("degraded region {}: {e}", d.region))?;
        let from_clock = |net| match conn.driver(net) {
            Some(Endpoint::Pin(p)) => top.cell(p.cell).pin("A").and_then(Conn::net) == clock,
            _ => false,
        };
        if !from_clock(gm) || !from_clock(gs) {
            return Err(format!(
                "degraded region {}: enables not re-clocked",
                d.region
            ));
        }
    }

    // Nothing generated escapes the table. User cells, ffsub's composite
    // latches included, sit in the slots before the range.
    let roles = [ControllerRole::Master, ControllerRole::Slave];
    let generated = (result.substitution.cells.end..top.cell_slots()).map(CellId::from_index);
    for id in generated.filter(|&id| alive(id).is_some() && !listed[id.index()]) {
        let (name, kind) = (top.cell(id).name, top.cell(id).kind_name());
        let controller = roles.iter().any(|r| r.module_name() == kind);
        if controller || kind == "C2X1" || delem_levels_of(kind).is_some() {
            return Err(format!(
                "control cell {name} ({kind}) belongs to no controlled region"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{verify_result, DiffConfig};
    use crate::mutate::{self, Mutation};
    use crate::netgen::{FfKind, FfRecipe, GateOp, NetRecipe, StageRecipe};
    use drd_core::{Degradation, DegradeReason, DesyncOptions, Desynchronizer, LivenessRepair};
    use drd_liberty::vlib90;

    /// The control-table entry of region `name`.
    fn control<'r>(result: &'r DesyncResult, name: &str) -> &'r RegionControl {
        result.control(name).unwrap()
    }

    /// Degrades source region `name` as the liveness guard's Degrade rung
    /// does, records it in the report, and first lets `leave` edit the
    /// control entry the surgery reads: a cell it drops from the entry
    /// stays in the netlist.
    fn degrade(result: &mut DesyncResult, name: &str, leave: impl FnOnce(&mut RegionControl)) {
        let slot = |r: &str| {
            result
                .report
                .regions
                .iter()
                .position(|s| s.name == r)
                .unwrap()
        };
        let i = slot(name);
        let edges = &result.report.ddg_edges;
        let succs: Vec<usize> = edges
            .iter()
            .filter(|(a, b)| a == name && b != name)
            .map(|(_, b)| slot(b))
            .collect();
        let mut controls = result.network.regions.clone();
        leave(controls[i].as_mut().unwrap());
        let enable = result.substitution.enables[i].unwrap();
        let m = result.design.top_module_mut();
        let clock = m.find_net(&result.report.clock_net).unwrap();
        drd_core::liveness::apply_degrade(m, &mut controls, i, &succs, clock, enable, name)
            .unwrap();
        result.network.regions = controls;
        let report = &mut result.report;
        report.regions[i].delem_levels = 0;
        report.liveness_repairs.push(LivenessRepair {
            region: name.into(),
            rise_ns: 0.0,
            response_bound_ns: 0.0,
            action: LivenessAction::Degrade,
        });
        let reason = DegradeReason::Liveness {
            message: "forced".into(),
        };
        report.degradations.push(Degradation {
            region: name.into(),
            reason,
            cells: Vec::new(),
        });
    }

    /// A flow forced onto the latch rung, and the latched source region.
    fn latched_flow(lib: &Library) -> (DesyncResult, String) {
        let module = imbalanced_recipe().build().unwrap();
        let tool = Desynchronizer::new(lib).unwrap();
        // A clock budget too small to deepen into.
        let opts = DesyncOptions {
            clock_period_ns: 0.5,
            ..DesyncOptions::default()
        };
        let result = tool.run(module, &opts).0.unwrap();
        let source = result
            .report
            .liveness_repairs
            .iter()
            .find(|lr| lr.action == LivenessAction::RequestLatch)
            .expect("tight budget must force the latch rung")
            .region
            .clone();
        (result, source)
    }

    /// The stall-test shape: a 24-NAND source feeding a 1-inverter sink —
    /// guaranteed to exercise the repair ladder.
    fn imbalanced_recipe() -> NetRecipe {
        let chain: Vec<GateOp> = (0..24)
            .map(|c| GateOp {
                kind: 2,
                a: if c == 0 { 0 } else { 3 + c - 1 },
                b: 0,
            })
            .collect();
        NetRecipe {
            inputs: 1,
            input_bits: 1,
            stages: vec![
                StageRecipe {
                    cloud: chain,
                    ffs: vec![FfRecipe {
                        kind: FfKind::Plain,
                        d: 3 + 23,
                        aux0: 0,
                        aux1: 0,
                    }],
                },
                StageRecipe {
                    cloud: vec![GateOp {
                        kind: 0,
                        a: 1,
                        b: 0,
                    }],
                    ffs: vec![FfRecipe {
                        kind: FfKind::Plain,
                        d: 3,
                        aux0: 0,
                        aux1: 0,
                    }],
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
        assert!(
            !result.report.liveness_repairs.is_empty(),
            "repair expected"
        );
        verify_liveness(&result, &lib).expect("repaired flow verifies");
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
                drd_core::LivenessAction::DeepenSuccessor {
                    successor,
                    from_levels,
                    ..
                } => Some((successor.clone(), *from_levels)),
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
        let cell = control(&result, &succ).delem;
        let m = result.design.top_module_mut();
        let kind = m.instance_kind(&shallow);
        m.set_cell_kind(cell, kind);

        let err =
            verify_liveness(&result, &lib).expect_err("shallowed delay element must be caught");
        assert!(err.contains("levels deep"), "{err}");
    }

    #[test]
    fn oracle_catches_a_stripped_request_latch() {
        let lib = vlib90::high_speed();
        let (result, source) = latched_flow(&lib);
        verify_liveness(&result, &lib).expect("latched flow verifies");

        // Strip the latch but leave the record: both directions of the
        // accounting must catch it (here: record without cell).
        let mut broken = result.clone();
        let ctl = control(&result, &source);
        let m = broken.design.top_module_mut();
        m.set_pin(ctl.delem, "in1", Conn::Net(ctl.ros));
        m.remove_cell(ctl.latch.unwrap().0);
        // The hazard recheck sees the unlatched source first; the latch
        // accounting is the backstop for non-hazardous regions.
        let err = verify_liveness(&broken, &lib).expect_err("stripped latch must be caught");
        assert!(
            err.contains("hazard") || err.contains("request latch"),
            "{err}"
        );
    }

    /// A request latch in the netlist that the control table does not
    /// record is caught, though it feeds the delay element correctly.
    #[test]
    fn oracle_catches_a_latch_the_table_does_not_record() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let module = imbalanced_recipe().build().unwrap();
        let mut result = tool.run(module, &DesyncOptions::default()).0.unwrap();
        let source = result.report.liveness_repairs[0].region.clone();
        let mut ctl = control(&result, &source).clone();
        let m = result.design.top_module_mut();
        drd_core::liveness::apply_latch(m, &mut ctl, &source).unwrap();
        let err = verify_liveness(&result, &lib).expect_err("unrecorded latch must be caught");
        assert!(
            err.contains("(C2X1) belongs to no controlled region"),
            "{err}"
        );
    }

    /// A degrade that excises the region's whole control network passes.
    /// One that leaves the master controller, the delay element or the
    /// request latch behind does not, and neither does a region whose
    /// enables lost their clock-fed driver.
    #[test]
    fn oracle_checks_a_degraded_region_for_left_overs() {
        let lib = vlib90::high_speed();
        let (latched, source) = latched_flow(&lib);
        let mut clean = latched.clone();
        degrade(&mut clean, &source, |_| {});
        verify_liveness(&clean, &lib).expect("a clean degrade verifies");

        // The master still drives the re-clocked enable; the delay element
        // and the latch are left dangling.
        let mut broken = latched.clone();
        degrade(&mut broken, &source, |c| c.master = c.slave);
        let err = verify_liveness(&broken, &lib).expect_err("left-over master");
        assert!(err.contains("has multiple drivers"), "{err}");
        let mut broken = latched.clone();
        degrade(&mut broken, &source, |c| c.delem = c.slave);
        let err = verify_liveness(&broken, &lib).expect_err("left-over delay element");
        assert!(
            err.contains("(drd_delem_") && err.contains("belongs to no controlled"),
            "{err}"
        );
        let mut broken = latched.clone();
        degrade(&mut broken, &source, |c| c.latch = None);
        let err = verify_liveness(&broken, &lib).expect_err("left-over latch");
        assert!(
            err.contains("(C2X1) belongs to no controlled region"),
            "{err}"
        );

        let i = clean
            .report
            .regions
            .iter()
            .position(|r| r.name == source)
            .unwrap();
        let (gm, _) = clean.substitution.enables[i].unwrap();
        let m = clean.design.top_module_mut();
        let syncm = m
            .cells()
            .find(|(_, c)| c.pin("Z") == Some(Conn::Net(gm)))
            .unwrap()
            .0;
        m.remove_cell(syncm);
        let err = verify_liveness(&clean, &lib).expect_err("unclocked enable must be caught");
        assert!(err.contains("enables not re-clocked"), "{err}");
    }

    /// User cells named like a delay element or a request latch are not
    /// taken for them: the oracle reads the control table, and the
    /// swallowed-request mutant undoes the repair the guard made.
    #[test]
    fn oracle_and_mutant_see_past_colliding_cell_names() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let config = DiffConfig::default();
        let recipe = imbalanced_recipe();
        for sink in ["drd_g2_delem", "drd_g1_reqext"] {
            // The sink region's one inverter, renamed.
            let text = recipe
                .verilog()
                .replace("INVX1 g1_0 (", &format!("INVX1 {sink} ("));
            let module = drd_netlist::verilog::parse_module(&text).unwrap();
            let result = tool.run(module, &DesyncOptions::default()).0.unwrap();
            let m = result.design.top_module();
            assert_eq!(m.cell(m.find_cell(sink).unwrap()).kind_name(), "INVX1");
            assert!(
                !result.report.liveness_repairs.is_empty(),
                "{sink}: repair expected"
            );
            verify_liveness(&result, &lib).unwrap_or_else(|e| panic!("{sink}: {e}"));
            verify_result(&recipe, &lib, &config, &result)
                .unwrap_or_else(|e| panic!("{sink}: {e}"));
            let mutant = mutate::apply(Mutation::SwallowedRequest, 0, &recipe, &result, &lib)
                .expect("a repair to undo");
            assert!(
                verify_result(&recipe, &lib, &config, &mutant).is_err(),
                "{sink}: swallowed-request mutant survives"
            );
        }
    }
}
