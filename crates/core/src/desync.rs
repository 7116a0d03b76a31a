//! The one-call desynchronization flow (§3.2, Fig. 2.1):
//! [`Desynchronizer::run`] is the standard [`crate::pipeline`] over a
//! fresh context, returning the result and the run's trace.

use drd_liberty::gatefile::{Gatefile, MeasuredDelays};
use drd_liberty::{Corner, Library, SeqKind};
use drd_netlist::{CellId, Connectivity, Design, Module, NetlistError};
use drd_sim::{HandshakeSpec, RegionSpec};
use drd_sta::TimingGraph;

use crate::pipeline::{FlowContext, FlowTrace, Pipeline};
use crate::region::{GroupingOptions, Regions};
use crate::{DesyncError, LibraryFacts};

/// Options for a desynchronization run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesyncOptions {
    /// Region-creation options (§3.2.2).
    pub grouping: GroupingOptions,
    /// Remove synthesis buffering before grouping (§3.2.2, IPO flow:
    /// "the removed logic does not need to be put back").
    pub clean_logic: bool,
    /// Safety margin on matched delays (§2.5: "delay elements must include
    /// margins to cope with uncorrelated variability").
    pub delay_margin: f64,
    /// Use 8-tap multiplexed delay elements with `dsel[2:0]` calibration
    /// ports (§3.2.5, the Fig. 5.3 sweep).
    pub muxed_delay_elements: bool,
    /// Clock port name; auto-detected when `None`.
    pub clock_port: Option<String>,
    /// Original clock period for constraint generation (ns).
    pub clock_period_ns: f64,
    /// Fail fast: treat any per-region degradation (unsupported FF, delay
    /// matching or controller synthesis failure) as a hard error instead
    /// of leaving the region synchronous. The CLI exposes this as
    /// `--strict`.
    pub strict: bool,
    /// Guard budget: abort (with [`crate::DesyncError::Budget`]) when a
    /// pass leaves more than this many cells in the working netlist.
    pub max_cells: Option<usize>,
    /// Guard budget: ceiling on nets in the working netlist after each
    /// pass.
    pub max_nets: Option<usize>,
    /// Guard budget: per-pass wall-clock deadline in milliseconds,
    /// enforced after the pass returns (passes are not preempted).
    pub pass_deadline_ms: Option<u64>,
    /// Worker threads for work around the flow, not in it: the flow runs
    /// serially and never reads this. `drdesync simulate` runs its Monte
    /// Carlo on this many workers (`None`: `DRD_WORKERS`, else the
    /// machine's available parallelism). The CLI exposes it as `--jobs`.
    pub jobs: Option<usize>,
}

impl DesyncOptions {
    /// Canonical serialization of every option that can change the
    /// flow's artifacts — the options half of a flow-cache key.
    ///
    /// `jobs` is deliberately excluded: the flow never reads it, so it
    /// must not split cache entries. `false_path_nets` is sorted
    /// and deduplicated (grouping consumes it as a set). Field order is
    /// fixed, strings are debug-escaped and floats render in round-trip
    /// form, so equal keys mean equal flow behaviour.
    pub fn cache_key(&self) -> String {
        let mut nets = self.grouping.false_path_nets.clone();
        nets.sort();
        nets.dedup();
        format!(
            "bus={};false_paths={:?};single={};clean={};margin={:?};muxed={};\
             clock={:?};period={:?};strict={};max_cells={:?};max_nets={:?};\
             deadline_ms={:?}",
            self.grouping.bus_grouping,
            nets,
            self.grouping.single_group,
            self.clean_logic,
            self.delay_margin,
            self.muxed_delay_elements,
            self.clock_port,
            self.clock_period_ns,
            self.strict,
            self.max_cells,
            self.max_nets,
            self.pass_deadline_ms,
        )
    }
}

impl Default for DesyncOptions {
    fn default() -> Self {
        DesyncOptions {
            grouping: GroupingOptions::recommended(),
            clean_logic: true,
            delay_margin: 1.08,
            muxed_delay_elements: false,
            clock_port: None,
            clock_period_ns: 2.4,
            strict: false,
            max_cells: None,
            max_nets: None,
            pass_deadline_ms: None,
            jobs: None,
        }
    }
}

/// Summary of what the tool did.
#[derive(Debug, Clone)]
pub struct DesyncReport {
    /// The identified clock net name.
    pub clock_net: String,
    /// Region summaries `(name, cells, ffs, critical_delay_ns,
    /// delem_levels)`.
    pub regions: Vec<RegionSummary>,
    /// Data-dependency edges as region-name pairs.
    pub ddg_edges: Vec<(String, String)>,
    /// Flip-flops substituted.
    pub substituted_ffs: usize,
    /// Extra gates inserted by the substitution.
    pub extra_gates: usize,
    /// Controller instances inserted.
    pub controllers: usize,
    /// C-elements inserted.
    pub celements: usize,
    /// Buffers/inverter pairs removed by cleaning.
    pub cleaned_cells: usize,
    /// Regions left synchronous (empty for a fully desynchronized run).
    pub degradations: Vec<crate::Degradation>,
    /// Repairs the liveness guard applied to keep loopback source
    /// regions from wedging (empty when no hazard was found).
    pub liveness_repairs: Vec<crate::LivenessRepair>,
}

/// Per-region summary.
#[derive(Debug, Clone)]
pub struct RegionSummary {
    /// Region name (`g0` = input registers).
    pub name: String,
    /// Total cells before substitution.
    pub cells: usize,
    /// Flip-flops substituted.
    pub ffs: usize,
    /// Typical-corner critical-path delay of the cloud (ns).
    pub critical_delay_ns: f64,
    /// Matched delay-element levels.
    pub delem_levels: usize,
}

/// The outcome of desynchronization.
#[derive(Debug, Clone)]
pub struct DesyncResult {
    /// The desynchronized design: top module plus generated controller and
    /// delay-element modules.
    pub design: Design,
    /// Backend physical timing constraints (Synopsys SDC).
    pub sdc: String,
    /// What happened.
    pub report: DesyncReport,
    /// What `control-network` built, by ID into the top module, as the
    /// liveness guard left it: readers find generated cells through it.
    pub network: crate::network::NetworkReport,
    /// What flip-flop substitution created, by ID into the top module. A
    /// region the liveness guard degraded keeps its enables, re-clocked.
    pub substitution: crate::ffsub::Substitution,
}

impl DesyncResult {
    /// The control-table entry of region `region`, if it has one.
    pub fn control(&self, region: &str) -> Option<&crate::network::RegionControl> {
        let i = self.report.regions.iter().position(|r| r.name == region)?;
        self.network.regions.get(i)?.as_ref()
    }
}

/// The desynchronization tool.
#[derive(Debug, Clone)]
pub struct Desynchronizer<'a> {
    lib: &'a Library,
    gatefile: Gatefile,
}

impl<'a> Desynchronizer<'a> {
    /// Prepares the tool for `lib` (builds the gatefile, §3.1).
    ///
    /// # Errors
    /// Returns [`DesyncError::Library`] if the library cannot support
    /// desynchronization (e.g. no latch).
    pub fn new(lib: &'a Library) -> Result<Self, DesyncError> {
        Ok(Desynchronizer {
            lib,
            gatefile: Gatefile::from_library(lib)?,
        })
    }

    /// The prepared gatefile.
    pub fn gatefile(&self) -> &Gatefile {
        &self.gatefile
    }

    /// Desynchronizes `module` through [`Pipeline::standard`], consuming
    /// it (no netlist copy is made). The [`FlowTrace`] comes back whether
    /// or not the flow succeeds: on a failure it lists the passes that
    /// completed and records the failing pass and message in
    /// [`FlowTrace::error`].
    ///
    /// The result is a [`DesyncError`] if the clock cannot be identified,
    /// a flip-flop has no replacement rule (under `strict`), a budget or
    /// deadline is exceeded, or a netlist/STA pass fails.
    pub fn run(
        &self,
        module: Module,
        opts: &DesyncOptions,
    ) -> (Result<DesyncResult, DesyncError>, FlowTrace) {
        let mut cx = FlowContext::new(self.lib, &self.gatefile, module, opts.clone());
        let outcome = Pipeline::standard().run(&mut cx);
        let trace = cx.trace().clone();
        (outcome.and_then(|()| cx.into_result()), trace)
    }
}

/// Per-region combinational critical-path delay: the worst arrival at any
/// data input of the region's sequential cells, plus the latch setup time
/// the delayed request must cover (§3.2.5).
///
/// One timing graph covers every region, each region's cells one group of
/// [`TimingGraph::build_partitioned`]: a net edge is kept only inside a
/// region, so every region is timed exactly as on its own (region clouds
/// are disjoint, and sequential outputs and ports are zero-arrival sources
/// either way), with one propagation for the whole design. A cycle is
/// reported for the lowest-indexed region that holds one.
///
/// `conn` is `module`'s connectivity (or its build error), as
/// [`TimingGraph::build_partitioned`] takes it. The graph reads it only
/// while it is built, so it is freed before the propagation, whose
/// tables then reuse its memory instead of touching fresh pages.
pub fn region_delays(
    module: &Module,
    lib: &Library,
    regions: &Regions,
    conn: Result<Connectivity, NetlistError>,
) -> Result<Vec<f64>, DesyncError> {
    let groups: Vec<&[CellId]> = regions.regions.iter().map(|r| &r.cells[..]).collect();
    let graph = TimingGraph::build_partitioned(module, lib, &groups, &conn)?;
    drop(conn);
    let arrivals = graph.arrivals(Corner::typical())?;
    let worst_data_arrival = |seq_cells: &[CellId]| {
        let mut worst = 0.0f64;
        for &cid in seq_cells {
            let Some(lc) = lib.cell(module.cell(cid).kind_name()) else {
                continue;
            };
            let clockish = match &lc.seq {
                SeqKind::FlipFlop(ff) => Some(ff.clocked_on.as_str()),
                SeqKind::Latch(l) => Some(l.enable.as_str()),
                _ => None,
            };
            for pin in lc.input_pins() {
                if Some(pin.name.as_str()) == clockish {
                    continue;
                }
                let node = module
                    .lookup_sym(&pin.name)
                    .and_then(|p| graph.find_pin(cid, p));
                if let Some(node) = node {
                    worst = worst.max(arrivals.at(node));
                }
            }
        }
        worst
    };
    Ok(regions
        .regions
        .iter()
        .map(|r| match worst_data_arrival(&r.seq_cells) {
            w if w > 0.0 => w + 0.05,
            _ => 0.0,
        })
        .collect())
}

/// Projects a desynchronization report onto the handshake simulator's
/// control-network spec: region rows become [`RegionSpec`]s and the DDG
/// edges become index pairs. This is the one projection of a finished
/// result onto the liveness model; the liveness oracle and `simulate
/// --check-liveness` start from it. It measures the level delay afresh;
/// a caller that holds [`LibraryFacts`] calls [`handshake_spec_with`].
///
/// # Errors
/// Propagates delay-element probing errors.
pub fn handshake_spec(report: &DesyncReport, lib: &Library) -> Result<HandshakeSpec, DesyncError> {
    handshake_spec_with(report, &LibraryFacts::new(lib, &MeasuredDelays::default()))
}

/// [`handshake_spec`] with the level delay and flip-flop overhead read
/// from `facts`: a level delay they keep is not measured again.
///
/// # Errors
/// Propagates delay-element probing errors.
pub fn handshake_spec_with(
    report: &DesyncReport,
    facts: &LibraryFacts<'_>,
) -> Result<HandshakeSpec, DesyncError> {
    let slot = |name: &str| report.regions.iter().position(|r| r.name == name);
    Ok(HandshakeSpec {
        regions: report
            .regions
            .iter()
            .map(|r| RegionSpec {
                name: r.name.clone(),
                // Degraded regions keep ffs but get no delay element; both
                // conditions must hold for the region to carry controllers.
                controlled: r.ffs > 0 && r.delem_levels > 0,
                matched_levels: r.delem_levels,
                critical_delay_ns: r.critical_delay_ns,
                loopback_latch: report.liveness_repairs.iter().any(|lr| {
                    lr.region == r.name && matches!(lr.action, crate::LivenessAction::RequestLatch)
                }),
            })
            .collect(),
        edges: report
            .ddg_edges
            .iter()
            .filter_map(|(a, b)| Some((slot(a)?, slot(b)?)))
            .collect(),
        level_delay_ns: facts.level_delay()?,
        ff_overhead_ns: facts.ff_overhead(),
    })
}

/// Flip-flop overhead of a synchronous reference period (ns): `DFFX1`'s
/// clk→Q plus setup, or 0 in a library without `DFFX1`. It shapes the
/// handshake simulator's synchronous comparison model and a case study's
/// minimum clock period, never a deadlock verdict.
pub fn ff_overhead_ns(lib: &Library) -> f64 {
    lib.cell("DFFX1")
        .map_or(0.0, |c| c.max_intrinsic_delay() + c.setup)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::{Conn, PortDir};
    use drd_sim::{compare_capture_logs, SimOptions, Simulator};

    /// Self-contained two-region design:
    /// * region A: `r0` toggles (D = !Q0),
    /// * region B: `r1` accumulates parity (D = Q0 ^ Q1).
    fn toggle_parity() -> Module {
        toggle_parity_with_xor("xor1")
    }

    /// [`toggle_parity`] with its XOR gate named `xor`.
    fn toggle_parity_with_xor(xor: &str) -> Module {
        let mut m = Module::new("tp");
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
            xor,
            "XOR2X1",
            &[
                ("A", Conn::Net(q0)),
                ("B", Conn::Net(q1)),
                ("Z", Conn::Net(d1)),
            ],
        )
        .unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(d1)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q1)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn report_shape() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool
            .run(toggle_parity(), &DesyncOptions::default())
            .0
            .unwrap();
        let rep = &result.report;
        assert_eq!(rep.clock_net, "clk");
        assert_eq!(rep.substituted_ffs, 2);
        assert_eq!(rep.regions.len(), 2, "{:?}", rep.regions);
        assert_eq!(rep.controllers, 4);
        // Region A feeds region B; both regions read their own registers.
        assert!(rep.ddg_edges.len() >= 3, "{:?}", rep.ddg_edges);
        assert!(result.sdc.contains("create_clock"));
        // The exported design parses back (write → parse round trip).
        let text = drd_netlist::verilog::write_design(&result.design);
        drd_netlist::verilog::parse_design(&text).expect("exported Verilog parses");
    }

    /// A user cell carrying a generated delay-element name is never
    /// constrained in its place: the SDC protects the inserted elements.
    #[test]
    fn sdc_constrains_the_inserted_delay_elements_not_their_namesake() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool
            .run(
                toggle_parity_with_xor("drd_g1_delem"),
                &DesyncOptions::default(),
            )
            .0
            .unwrap();
        let m = result.design.top_module();
        let xor = m.cell(m.find_cell("drd_g1_delem").unwrap());
        assert_eq!(xor.kind_name(), "XOR2X1");
        let delems: Vec<&str> = m
            .cells()
            .filter(|(_, c)| c.kind_name().starts_with("drd_delem_"))
            .map(|(_, c)| c.name)
            .collect();
        assert_eq!(delems.len(), 2, "{delems:?}");
        for inst in delems {
            assert!(
                result
                    .sdc
                    .contains(&format!("-from [get_pins {{{inst}/in1}}]")),
                "{}",
                result.sdc
            );
            assert!(result
                .sdc
                .contains(&format!("set_dont_touch [get_cells {{{inst}}}]")));
        }
        assert!(!result.sdc.contains("{drd_g1_delem}"), "{}", result.sdc);
        assert!(!result.sdc.contains("{drd_g1_delem/"), "{}", result.sdc);
    }

    /// The headline property: the desynchronized circuit is
    /// flow-equivalent to its synchronous counterpart (§2.1).
    #[test]
    fn desynchronized_circuit_is_flow_equivalent() {
        let lib = vlib90::high_speed();
        let module = toggle_parity();

        // Synchronous reference: 20 clocked cycles.
        let mut sync_design = Design::new();
        sync_design.insert(module.clone());
        let mut reference = Simulator::new(&sync_design, &lib, SimOptions::default()).unwrap();
        reference.schedule_clock("clk", 2.0, 1.0, 20).unwrap();
        reference.run_for(45.0);
        assert_eq!(reference.captures().capture_count("r0"), 20);

        // Desynchronized version, free-running after reset.
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool.run(module, &DesyncOptions::default()).0.unwrap();
        let mut dut = Simulator::new(&result.design, &lib, SimOptions::default()).unwrap();
        dut.poke("drd_rst", Lv::Zero).unwrap();
        dut.run_for(2.0);
        dut.poke("drd_rst", Lv::One).unwrap();
        dut.run_for(200.0);
        assert!(
            dut.captures().capture_count("r0_ls") >= 10,
            "desynchronized circuit runs: {} slave captures",
            dut.captures().capture_count("r0_ls")
        );

        let check =
            compare_capture_logs(reference.captures(), dut.captures(), |n| format!("{n}_ls"));
        assert!(check.is_equivalent(), "flow equivalence: {check:?}");
    }

    /// Effective period scales with the operating corner — the circuit is
    /// self-timed (§2.5).
    #[test]
    fn effective_period_tracks_corner() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool
            .run(toggle_parity(), &DesyncOptions::default())
            .0
            .unwrap();
        let period_at = |corner| {
            let mut sim =
                Simulator::new(&result.design, &lib, SimOptions::at_corner(corner)).unwrap();
            sim.watch("drd_g1_gs").unwrap();
            sim.poke("drd_rst", Lv::Zero).unwrap();
            sim.run_for(2.0);
            sim.poke("drd_rst", Lv::One).unwrap();
            sim.run_for(300.0);
            let edges = sim.rising_edges("drd_g1_gs");
            assert!(edges.len() > 5, "oscillates at {}", corner.name);
            (edges[edges.len() - 1] - edges[1]) / (edges.len() - 2) as f64
        };
        let best = period_at(Corner::best());
        let worst = period_at(Corner::worst());
        let ratio = worst / best;
        let expected = Corner::worst().delay_factor / Corner::best().delay_factor;
        assert!(
            (ratio / expected - 1.0).abs() < 0.1,
            "period ratio {ratio} tracks corner ratio {expected}"
        );
    }

    /// The one-graph cut is exact: every region's delay equals the one
    /// measured on a graph of that region's cells alone.
    #[test]
    fn one_graph_matches_per_region_graphs_bitwise() {
        let lib = vlib90::high_speed();
        let opts = GroupingOptions {
            false_path_nets: vec!["fp".into()],
            ..GroupingOptions::recommended()
        };
        for mut m in [toggle_parity(), false_path_pair(true)] {
            let (_, conn) = crate::region::clean_for_grouping(&mut m, &lib);
            let regions = crate::region::group(&m, &lib, &opts, &conn).unwrap();
            let delays = region_delays(&m, &lib, &regions, conn.clone()).unwrap();
            assert!(delays.iter().any(|&d| d > 0.0), "{delays:?}");
            for (i, r) in regions.regions.iter().enumerate() {
                let alone = Regions::new(vec![r.clone()]);
                let own = region_delays(&m, &lib, &alone, conn.clone()).unwrap()[0];
                assert_eq!(own.to_bits(), delays[i].to_bits(), "{}", r.name);
            }
        }
    }

    /// Two clouds joined only by the user false-path net `fp`: `a3` in
    /// region A drives `b1` in region B. Grouping keeps them apart, and
    /// timing must too — `b1/A` is a zero-arrival source of B exactly as if
    /// it were fed by a primary input.
    fn false_path_pair(cross: bool) -> Module {
        let mut m = Module::new("fp");
        for p in ["clk", "din", "fp_in"] {
            m.add_port(p, PortDir::Input).unwrap();
        }
        let (clk, din, fp_in) = (
            m.find_net("clk").unwrap(),
            m.find_net("din").unwrap(),
            m.find_net("fp_in").unwrap(),
        );
        let net = |m: &mut Module, n: &str| m.add_net(n).unwrap();
        let (q0, na1, da, qa, fp) = (
            net(&mut m, "q0"),
            net(&mut m, "na1"),
            net(&mut m, "da"),
            net(&mut m, "qa"),
            net(&mut m, "fp"),
        );
        let (nb1, db, qb) = (net(&mut m, "nb1"), net(&mut m, "db"), net(&mut m, "qb"));
        let dff = |m: &mut Module, name: &str, d, q| {
            m.add_cell(
                name,
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
        };
        let gate = |m: &mut Module, name: &str, kind: &str, a, b, z| {
            m.add_cell(
                name,
                kind,
                &[
                    ("A", Conn::Net(a)),
                    ("B", Conn::Net(b)),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
        };
        dff(&mut m, "r_in", din, q0);
        m.add_cell(
            "a1",
            "INVX1",
            &[("A", Conn::Net(q0)), ("Z", Conn::Net(na1))],
        )
        .unwrap();
        gate(&mut m, "a2", "NAND2X1", na1, q0, da);
        gate(&mut m, "a3", "AND2X1", na1, qa, fp);
        dff(&mut m, "r_a", da, qa);
        gate(
            &mut m,
            "b1",
            "NAND2X1",
            if cross { fp } else { fp_in },
            qb,
            nb1,
        );
        gate(&mut m, "b2", "XOR2X1", nb1, qb, db);
        dff(&mut m, "r_b", db, qb);
        m
    }

    #[test]
    fn false_path_load_times_like_a_primary_input() {
        let lib = vlib90::high_speed();
        let opts = GroupingOptions {
            false_path_nets: vec!["fp".into()],
            ..GroupingOptions::recommended()
        };
        let delay_of_b = |cross: bool| {
            let mut m = false_path_pair(cross);
            let (_, conn) = crate::region::clean_for_grouping(&mut m, &lib);
            let regions = crate::region::group(&m, &lib, &opts, &conn).unwrap();
            let region_named = |name: &str| regions.region_of(m.find_cell(name).unwrap());
            let (a, b) = (region_named("a3").unwrap(), region_named("b1").unwrap());
            assert_ne!(a, b, "the false path splits the clouds");
            assert_eq!(region_named("r_b"), Some(b));
            region_delays(&m, &lib, &regions, conn).unwrap()[b]
        };
        let (crossing, from_input) = (delay_of_b(true), delay_of_b(false));
        assert!(crossing > 0.0);
        assert_eq!(crossing.to_bits(), from_input.to_bits());
    }

    #[test]
    fn no_clock_is_an_error() {
        let lib = vlib90::high_speed();
        let tool = Desynchronizer::new(&lib).unwrap();
        let mut m = Module::new("comb");
        let a = m.add_net("a").unwrap();
        let z = m.add_net("z").unwrap();
        m.add_cell("u", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(z))])
            .unwrap();
        let (result, trace) = tool.run(m, &DesyncOptions::default());
        assert!(matches!(result, Err(DesyncError::Clock { .. })));
        assert_eq!(trace.error.map(|e| e.pass), Some("clock-id"));
    }

    /// A library without `DFFX1` still projects: the flip-flop overhead
    /// of the synchronous reference model falls back to 0.
    #[test]
    fn handshake_spec_without_dffx1_has_no_ff_overhead() {
        let cells = vlib90::high_speed()
            .cells()
            .filter(|c| c.name != "DFFX1")
            .cloned()
            .collect();
        let lib = Library::from_cells("no_dffx1", cells).unwrap();
        assert!(lib.cell("DFFX1").is_none());
        let mut m = Module::new("toggle");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("out0", PortDir::Output).unwrap();
        let (clk, q) = (m.find_net("clk").unwrap(), m.find_net("out0").unwrap());
        let d = m.add_net("d").unwrap();
        m.add_cell("inv", "INVX1", &[("A", Conn::Net(q)), ("Z", Conn::Net(d))])
            .unwrap();
        let pins = [
            ("D", Conn::Net(d)),
            ("RN", Conn::Const1),
            ("CK", Conn::Net(clk)),
            ("Q", Conn::Net(q)),
        ];
        m.add_cell("r", "DFFRX1", &pins).unwrap();
        let tool = Desynchronizer::new(&lib).unwrap();
        let result = tool.run(m, &DesyncOptions::default()).0.unwrap();
        assert_eq!(
            (result.report.substituted_ffs, result.report.controllers),
            (1, 2)
        );
        let spec = handshake_spec(&result.report, &lib).unwrap();
        assert_eq!(spec.ff_overhead_ns, 0.0);
        assert!(
            spec.regions.iter().any(|r| r.controlled),
            "{:?}",
            spec.regions
        );
    }
}
