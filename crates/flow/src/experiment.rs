//! The experimental procedure of §5.1 (Fig. 5.1): implement each design
//! twice — synchronous and desynchronized — with the same library and
//! "tools", then compare area, timing, power and variability tolerance.

use std::collections::HashSet;

use drd_core::{ff_overhead_ns, handshake_spec, DesyncOptions, DesyncResult, Desynchronizer};
use drd_liberty::{Corner, Library, Lv};
use drd_netlist::{CellId, Design, Module};
use drd_sim::{
    compare_capture_logs, CaptureLog, GateVariability, HandshakeNet, SimOptions, Simulator,
};
use drd_sta::TimingGraph;

use crate::backend::{place_and_route, BackendOptions, LayoutResult};
use drd_core::DesyncError;

/// A design case study (the paper's DLX and ARM, §5.2/§5.3).
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Case name for reports.
    pub name: String,
    /// The synchronous post-synthesis netlist.
    pub module: Module,
    /// Technology library.
    pub lib: Library,
    /// Desynchronization options.
    pub desync: DesyncOptions,
    /// Backend options for the synchronous implementation.
    pub sync_backend: BackendOptions,
    /// Backend options for the desynchronized implementation.
    pub desync_backend: BackendOptions,
    /// Cycles of synchronous reference simulation for flow-equivalence
    /// and power measurements.
    pub reference_cycles: usize,
}

impl CaseStudy {
    /// The DLX case study (§5.2): High-Speed library, automatic grouping.
    ///
    /// # Errors
    /// Propagates generator errors.
    pub fn dlx(params: &drd_designs::dlx::DlxParams) -> Result<CaseStudy, DesyncError> {
        let module = drd_designs::dlx::build(params)?;
        Ok(CaseStudy {
            name: format!("DLX{}", params.width),
            module,
            lib: drd_liberty::vlib90::high_speed(),
            desync: DesyncOptions::default(),
            sync_backend: BackendOptions {
                utilization: 0.95,
                ..BackendOptions::default()
            },
            desync_backend: BackendOptions {
                // The controller network's independent enable trees demand
                // routing margin (§4.7; Table 5.1 reports 95 % → 91 %).
                utilization: 0.91,
                ..BackendOptions::default()
            },
            reference_cycles: 24,
        })
    }

    /// The ARM-like case study (§5.3): Low-Leakage library, scan design,
    /// single desynchronization group, pre-existing synchronous floorplan.
    ///
    /// # Errors
    /// Propagates generator and DFT errors.
    pub fn armlike(params: &drd_designs::armlike::ArmParams) -> Result<CaseStudy, DesyncError> {
        let lib = drd_liberty::vlib90::low_leakage();
        let mut module = drd_designs::armlike::build(params)?;
        crate::dft::insert_scan(&mut module, &lib)?;
        let mut desync = DesyncOptions::default();
        desync.grouping.single_group = true;
        // Scan enable is a global control: a false path for grouping.
        desync.grouping.false_path_nets.push("scan_en".into());
        Ok(CaseStudy {
            name: format!("ARM{}", params.width),
            module,
            lib,
            desync,
            sync_backend: BackendOptions {
                // The pre-existing ARM floorplan (≈80 % utilization).
                utilization: 0.80,
                ..BackendOptions::default()
            },
            desync_backend: BackendOptions {
                utilization: 0.88,
                ..BackendOptions::default()
            },
            reference_cycles: 16,
        })
    }

    /// Desynchronizes the case's module.
    ///
    /// # Errors
    /// Propagates desynchronization errors.
    pub fn desynchronize(&self) -> Result<DesyncResult, DesyncError> {
        Desynchronizer::new(&self.lib)?
            .run(self.module.clone(), &self.desync)
            .0
    }

    /// Minimum synchronous clock period at the typical corner: worst
    /// register-to-register arrival plus clk→Q and setup
    /// ([`ff_overhead_ns`]).
    ///
    /// # Errors
    /// Propagates STA errors.
    pub fn sync_min_period(&self) -> Result<f64, DesyncError> {
        let graph = TimingGraph::build(&self.module, &self.lib)?;
        let arr = graph.arrivals(Corner::typical())?;
        Ok(arr.max_endpoint_arrival() + ff_overhead_ns(&self.lib))
    }
}

// ---------------------------------------------------------------------------
// Area (Tables 5.1 / 5.2)
// ---------------------------------------------------------------------------

/// A post-synthesis area row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaRow {
    /// Net count.
    pub nets: usize,
    /// Cell count.
    pub cells: usize,
    /// Total cell area.
    pub cell_area: f64,
    /// Combinational area.
    pub combinational: f64,
    /// Sequential area.
    pub sequential: f64,
}

/// The area row of `module`, whose cells `composite` (flip-flop
/// substitution's gates) count as sequential whatever their kind,
/// matching the paper's accounting (§5.3.1).
fn area_row(module: &Module, lib: &Library, composite: &HashSet<CellId>) -> AreaRow {
    let counts = drd_netlist::stats::counts(module);
    let mut cell_area = 0.0;
    let mut combinational = 0.0;
    let mut sequential = 0.0;
    for (id, cell) in module.cells() {
        let a = lib.area_of(cell.kind_ref());
        cell_area += a;
        if lib.is_sequential(cell.kind_ref()) || composite.contains(&id) {
            sequential += a;
        } else {
            combinational += a;
        }
    }
    AreaRow {
        nets: counts.nets,
        cells: counts.cells,
        cell_area,
        combinational,
        sequential,
    }
}

/// The full Table 5.1 / 5.2 comparison.
#[derive(Debug, Clone)]
pub struct AreaComparison {
    /// Case name.
    pub name: String,
    /// Post-synthesis, synchronous.
    pub sync_synth: AreaRow,
    /// Post-synthesis, desynchronized.
    pub desync_synth: AreaRow,
    /// Post-layout, synchronous.
    pub sync_layout: LayoutResult,
    /// Post-layout, desynchronized.
    pub desync_layout: LayoutResult,
}

impl AreaComparison {
    /// Percentage overhead helper.
    pub fn pct(sync: f64, desync: f64) -> f64 {
        (desync - sync) / sync * 100.0
    }

    /// Total core-size overhead (%).
    pub fn core_overhead(&self) -> f64 {
        Self::pct(self.sync_layout.core_size, self.desync_layout.core_size)
    }

    /// Sequential-area overhead (%), the substitution cost (§5.2.1).
    pub fn sequential_overhead(&self) -> f64 {
        Self::pct(self.sync_synth.sequential, self.desync_synth.sequential)
    }

    /// Combinational-area overhead (%).
    pub fn combinational_overhead(&self) -> f64 {
        Self::pct(
            self.sync_synth.combinational,
            self.desync_synth.combinational,
        )
    }
}

/// Runs the area comparison (Fig. 5.1's two parallel implementations).
///
/// # Errors
/// Propagates flow errors.
pub fn area_comparison(case: &CaseStudy) -> Result<AreaComparison, DesyncError> {
    let sync_synth = area_row(&case.module, &case.lib, &HashSet::new());
    let desync = case.desynchronize()?;
    let flat = drd_netlist::flatten(&desync.design, desync.design.top())?;
    // Substitution's cells are top-level library cells, which keep their
    // names through flattening.
    let top = desync.design.top_module();
    let composite: HashSet<CellId> = (desync.substitution.cells.clone())
        .filter_map(|slot| flat.find_cell(top.cell(CellId::from_index(slot)).name))
        .collect();
    let desync_synth = area_row(&flat, &case.lib, &composite);

    let mut sync_design = Design::new();
    sync_design.insert(case.module.clone());
    let sync_layout = place_and_route(&sync_design, &case.lib, &case.sync_backend, &[])?;
    let enables = &desync.substitution.enables;
    let desync_layout = place_and_route(&desync.design, &case.lib, &case.desync_backend, enables)?;
    Ok(AreaComparison {
        name: case.name.clone(),
        sync_synth,
        desync_synth,
        sync_layout,
        desync_layout,
    })
}

// ---------------------------------------------------------------------------
// Timing & power sweep (Figs. 5.3 / 5.5)
// ---------------------------------------------------------------------------

/// One sweep measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Delay-element mux selection (7 = longest … 0 = shortest).
    pub selection: u8,
    /// Measured effective period (ns).
    pub period_ns: f64,
    /// Whether the run stayed flow-equivalent to the synchronous
    /// reference (false ⇒ "too short delay elements", the dashed region
    /// of Fig. 5.3).
    pub flow_equivalent: bool,
    /// Total power over the measurement window (mW-like).
    pub power_total: f64,
    /// Dynamic component.
    pub power_dynamic: f64,
}

/// The Fig. 5.3 (and Fig. 5.5) sweep result.
#[derive(Debug, Clone)]
pub struct TimingSweep {
    /// Case name.
    pub name: String,
    /// Rows at the best corner, selection 7 → 0.
    pub best: Vec<SweepRow>,
    /// Rows at the worst corner, selection 7 → 0.
    pub worst: Vec<SweepRow>,
    /// Synchronous period at the best corner.
    pub sync_best_period: f64,
    /// Synchronous period at the worst corner.
    pub sync_worst_period: f64,
    /// Synchronous power at each corner (at its own period).
    pub sync_best_power: f64,
    /// Synchronous power at the worst corner.
    pub sync_worst_power: f64,
}

impl TimingSweep {
    /// The smallest selection that still works at the given corner rows.
    pub fn first_working_selection(rows: &[SweepRow]) -> Option<u8> {
        rows.iter()
            .rev()
            .find(|r| r.flow_equivalent)
            .map(|r| r.selection)
    }
}

/// Captures the synchronous reference log (typical corner, relaxed clock).
fn sync_reference(case: &CaseStudy) -> Result<(CaptureLog, f64), DesyncError> {
    let period = case.sync_min_period()? * 1.1;
    let mut design = Design::new();
    design.insert(case.module.clone());
    let mut sim = Simulator::new(&design, &case.lib, SimOptions::default()).map_err(sim_err)?;
    init_inputs(&mut sim, &case.module);
    sim.schedule_clock("clk", period, period / 2.0, case.reference_cycles)
        .map_err(sim_err)?;
    sim.run_for(period * (case.reference_cycles + 2) as f64);
    Ok((sim.captures().clone(), period))
}

/// Measures synchronous power at `corner`, clocked at that corner's
/// minimum period.
fn sync_power(case: &CaseStudy, corner: Corner, typ_period: f64) -> Result<f64, DesyncError> {
    let period = typ_period * corner.delay_factor;
    let mut design = Design::new();
    design.insert(case.module.clone());
    let mut sim =
        Simulator::new(&design, &case.lib, SimOptions::at_corner(corner)).map_err(sim_err)?;
    init_inputs(&mut sim, &case.module);
    let warmup = 4usize;
    sim.schedule_clock("clk", period, period / 2.0, case.reference_cycles + warmup)
        .map_err(sim_err)?;
    sim.run_for(period * warmup as f64);
    sim.reset_power_window();
    sim.run_for(period * case.reference_cycles as f64);
    Ok(sim.power_report().total())
}

fn sim_err(e: drd_sim::SimError) -> DesyncError {
    DesyncError::Clock {
        message: format!("simulation failed: {e}"),
    }
}

/// Drives all primary inputs (other than clock/reset/dsel) to 0.
fn init_inputs(sim: &mut Simulator, module: &Module) {
    for (_, port) in module.ports() {
        if port.dir != drd_netlist::PortDir::Input {
            continue;
        }
        let name = port.name;
        if name == "clk" || name == "drd_rst" || name.starts_with("dsel") {
            continue;
        }
        let _ = sim.poke(name, Lv::Zero);
    }
}

/// Runs the Fig. 5.3 / Fig. 5.5 sweep: desynchronize with 8-tap muxed
/// delay elements, then measure effective period, flow equivalence and
/// power for every selection at both corners.
///
/// # Errors
/// Propagates flow errors.
pub fn timing_sweep(case: &CaseStudy) -> Result<TimingSweep, DesyncError> {
    let (reference, _) = sync_reference(case)?;
    let typ_period = case.sync_min_period()?;

    let mut opts = case.desync.clone();
    opts.muxed_delay_elements = true;
    let desync = Desynchronizer::new(&case.lib)?
        .run(case.module.clone(), &opts)
        .0?;

    // Watch the busiest region's slave enable for period measurement,
    // named only for the simulator.
    let watch_gs = (desync.report.regions.iter().enumerate())
        .filter(|(_, r)| r.ffs > 0)
        .max_by_key(|(_, r)| r.ffs)
        .and_then(|(i, _)| desync.substitution.enables.get(i).copied().flatten())
        .ok_or_else(|| DesyncError::Clock {
            message: "no controlled regions".into(),
        })?
        .1;
    let watch_net = desync.design.top_module().net(watch_gs).name;

    let run_one = |corner: Corner, selection: u8| -> Result<SweepRow, DesyncError> {
        let mut sim = Simulator::new(&desync.design, &case.lib, SimOptions::at_corner(corner))
            .map_err(sim_err)?;
        init_inputs(&mut sim, &case.module);
        for b in 0..3 {
            sim.poke(
                &format!("dsel[{b}]"),
                Lv::from_bool((selection >> b) & 1 == 1),
            )
            .map_err(sim_err)?;
        }
        sim.watch(watch_net).map_err(sim_err)?;
        sim.poke("drd_rst", Lv::Zero).map_err(sim_err)?;
        sim.run_for(5.0 * corner.delay_factor);
        sim.poke("drd_rst", Lv::One).map_err(sim_err)?;
        // Warm up, then measure.
        let window = typ_period * corner.delay_factor * (case.reference_cycles + 6) as f64 * 2.5;
        sim.run_for(window * 0.2);
        sim.reset_power_window();
        sim.run_for(window);
        let edges = sim.rising_edges(watch_net);
        let period = if edges.len() >= 4 {
            (edges[edges.len() - 1] - edges[2]) / (edges.len() - 3) as f64
        } else {
            f64::INFINITY
        };
        let power = sim.power_report();
        let check = compare_capture_logs(&reference, sim.captures(), |n| format!("{n}_ls"));
        Ok(SweepRow {
            selection,
            period_ns: period,
            flow_equivalent: check.is_equivalent() && edges.len() >= 4,
            power_total: power.total(),
            power_dynamic: power.dynamic,
        })
    };

    let mut best = Vec::new();
    let mut worst = Vec::new();
    for sel in (0..=7u8).rev() {
        best.push(run_one(Corner::best(), sel)?);
        worst.push(run_one(Corner::worst(), sel)?);
    }
    Ok(TimingSweep {
        name: case.name.clone(),
        best,
        worst,
        sync_best_period: typ_period * Corner::best().delay_factor,
        sync_worst_period: typ_period * Corner::worst().delay_factor,
        sync_best_power: sync_power(case, Corner::best(), typ_period)?,
        sync_worst_power: sync_power(case, Corner::worst(), typ_period)?,
    })
}

/// The Fig. 5.5 view of the sweep (power instead of period).
#[derive(Debug, Clone)]
pub struct PowerSweep {
    /// The underlying sweep.
    pub sweep: TimingSweep,
}

/// Runs the power sweep (shares the Fig. 5.3 runs).
///
/// # Errors
/// Propagates flow errors.
pub fn power_sweep(case: &CaseStudy) -> Result<PowerSweep, DesyncError> {
    Ok(PowerSweep {
        sweep: timing_sweep(case)?,
    })
}

// ---------------------------------------------------------------------------
// Variability (Fig. 5.4)
// ---------------------------------------------------------------------------

/// The Fig. 5.4 study: per-chip operating points.
#[derive(Debug, Clone)]
pub struct VariabilityStudy {
    /// Case name.
    pub name: String,
    /// Synchronous worst-case period — every synchronous chip must be
    /// clocked at this.
    pub sync_worst_period: f64,
    /// Synchronous best-case period (distribution lower bound).
    pub sync_best_period: f64,
    /// Desynchronized per-chip periods (one per sampled chip).
    pub desync_periods: Vec<f64>,
    /// Fraction of desynchronized chips faster than the synchronous
    /// worst case (the shaded ≈90 % of Fig. 5.4).
    pub fraction_faster: f64,
}

/// Runs the Monte-Carlo variability study: the desynchronized circuit
/// runs at its own chip's silicon speed (its delay elements track the
/// logic, §2.5), while the synchronous design is stuck at the worst
/// corner. Per-chip periods come from the handshake-level event
/// simulator — every control gate and delay-element level draws its own
/// keyed delay factor, and the campaign fans out one chip per task with
/// chip-order merging, so the study is byte-identical for any worker
/// count.
///
/// # Errors
/// Propagates flow errors, and returns [`DesyncError::Pipeline`] naming
/// a `DRD_WORKERS` that is not a number.
pub fn variability_study(
    case: &CaseStudy,
    chips: usize,
    sigma: f64,
    seed: u64,
) -> Result<VariabilityStudy, DesyncError> {
    let workers =
        drd_runner::try_worker_count().map_err(|message| DesyncError::Pipeline { message })?;
    let typ_period = case.sync_min_period()?;
    let desync = case.desynchronize()?;
    let spec = handshake_spec(&desync.report, &case.lib)?;
    let net = HandshakeNet::elaborate(&spec, &case.lib).map_err(sim_err)?;
    let var = GateVariability::new(seed, sigma);
    let samples = net.monte_carlo(&var, chips, workers).map_err(sim_err)?;
    let desync_periods: Vec<f64> = samples.iter().map(|s| s.desync_cycle_ns).collect();
    let sync_worst = typ_period * Corner::worst().delay_factor;
    let faster = desync_periods.iter().filter(|&&p| p < sync_worst).count();
    Ok(VariabilityStudy {
        name: case.name.clone(),
        sync_worst_period: sync_worst,
        sync_best_period: typ_period * Corner::best().delay_factor,
        fraction_faster: faster as f64 / desync_periods.len().max(1) as f64,
        desync_periods,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_designs::dlx::DlxParams;

    fn small_case() -> CaseStudy {
        CaseStudy::dlx(&DlxParams::small()).unwrap()
    }

    /// A toggle flip-flop whose inverter is named `inv`.
    fn toggle_case(inv: &str) -> CaseStudy {
        use drd_netlist::{Conn, PortDir};
        let mut m = Module::new("t");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("out", PortDir::Output).unwrap();
        let (clk, q) = (m.find_net("clk").unwrap(), m.find_net("out").unwrap());
        let d = m.add_net("d").unwrap();
        m.add_cell(inv, "INVX1", &[("A", Conn::Net(q)), ("Z", Conn::Net(d))])
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
        CaseStudy {
            name: inv.into(),
            module: m,
            lib: drd_liberty::vlib90::high_speed(),
            desync: DesyncOptions::default(),
            sync_backend: BackendOptions::default(),
            desync_backend: BackendOptions::default(),
            reference_cycles: 4,
        }
    }

    /// The area split reads which cells substitution created, not their
    /// names: a user inverter named like a composite-latch cell is
    /// combinational logic.
    #[test]
    fn user_cell_named_like_a_substitution_cell_is_combinational() {
        let (user, twin) = (toggle_case("x_ls"), toggle_case("inv"));
        let user_cmp = area_comparison(&user).unwrap();
        let twin_cmp = area_comparison(&twin).unwrap();
        let inv = user.lib.area_of(drd_netlist::KindRef::Lib("INVX1"));
        assert_eq!(user_cmp.sync_synth.combinational, inv);
        assert_eq!(user_cmp.sync_synth, twin_cmp.sync_synth);
        assert_eq!(user_cmp.desync_synth, twin_cmp.desync_synth);
    }

    #[test]
    fn area_comparison_shape_matches_table_5_1() {
        let case = small_case();
        let cmp = area_comparison(&case).unwrap();
        // Desynchronization adds cells and nets…
        assert!(cmp.desync_synth.cells > cmp.sync_synth.cells);
        assert!(cmp.desync_synth.nets > cmp.sync_synth.nets);
        // …the sequential area grows substantially (latch pairs)…
        assert!(
            cmp.sequential_overhead() > 10.0,
            "seq overhead {:.2}%",
            cmp.sequential_overhead()
        );
        // …while combinational area grows only a little.
        assert!(
            cmp.combinational_overhead() < cmp.sequential_overhead(),
            "comb {:.2}% < seq {:.2}%",
            cmp.combinational_overhead(),
            cmp.sequential_overhead()
        );
        // Core overhead is positive but moderate.
        let core = cmp.core_overhead();
        assert!((2.0..60.0).contains(&core), "core overhead {core:.2}%");
        // Post-layout has more cells than post-synthesis (buffering).
        assert!(cmp.sync_layout.cells >= cmp.sync_synth.cells);
        assert!(cmp.desync_layout.cells >= cmp.desync_synth.cells);
    }

    #[test]
    fn variability_study_produces_elastic_distribution() {
        // The small DLX has a short critical path, so the fixed control
        // overhead dominates and few chips beat the synchronous worst
        // case; the full-size case study (see the fig_5_4 bench binary)
        // reaches the paper's majority-of-chips regime. Here we check the
        // mechanics: an elastic, corner-tracking period distribution.
        let case = small_case();
        let study = variability_study(&case, 500, 0.15, 7).unwrap();
        assert_eq!(study.desync_periods.len(), 500);
        assert!(study.sync_worst_period > study.sync_best_period);
        let min = study
            .desync_periods
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = study.desync_periods.iter().cloned().fold(0.0f64, f64::max);
        // Per-chip periods span the process spread (elastic, §2.5).
        assert!(max > 1.2 * min, "spread {min:.3}..{max:.3}");
        // The desynchronized circuit is slower than the synchronous
        // typical case (control overhead) but same order of magnitude.
        let mean = study.desync_periods.iter().sum::<f64>() / 500.0;
        let typ = case.sync_min_period().unwrap();
        assert!(
            mean > typ && mean < 3.0 * typ,
            "mean {mean:.3} vs typ {typ:.3}"
        );
    }
}
