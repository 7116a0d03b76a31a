//! Micro-benchmarks of the tool's own kernels: Verilog parsing and
//! writing, region grouping, connectivity, STA graph build and
//! propagation, STG reachability, event simulation throughput,
//! handshake-level simulation and full desynchronization.
//!
//! Runs on the in-tree `drd_check::bench` harness (`cargo bench -p
//! drd-bench`) and writes `BENCH_kernels.json` so the perf trajectory is
//! recorded run over run, then gates the Verilog front end, the handshake
//! simulator and the whole flow: parse and write of the full DLX and a
//! serial 16-chip Monte Carlo of the small DLX, each as a ratio to a
//! reference task timed in the same iterations, must stay within
//! [`PARSE_BOUND`], [`WRITE_BOUND`] and [`MC_BOUND`], and one serial
//! `Desynchronizer::run` of DLX32 plus one of ARM32 within [`FLOW_BOUND`].

use drd_check::bench::Bench;
use drd_check::netgen::NetRecipe;
use drd_check::Rng;
use drd_core::region::{group, GroupingOptions};
use drd_core::{handshake_spec, DesyncOptions, Desynchronizer};
use drd_designs::armlike::ArmParams;
use drd_designs::dlx::DlxParams;
use drd_flow::CaseStudy;
use drd_liberty::{vlib90, Corner, Lv};
use drd_netlist::Design;
use drd_sim::{GateVariability, HandshakeNet, SimOptions, Simulator};
use drd_sta::TimingGraph;
use drd_stg::protocols::Protocol;

/// Bounds on the full DLX's parse/reference and write/reference ratios,
/// each the kernel's fastest iteration over the reference's fastest, in
/// batches of 500 iterations, up to four while a ratio is over its
/// bound. Checked on a 2-vCPU host over 20 rounds, each running the
/// unchanged code and copies slowed by a deliberate 25 % in parse and in
/// write: every unchanged run passed (parse 7.04-8.03, write 1.32-1.54;
/// two runs needed more batches), and every slowed run failed its own
/// bound after four batches (parse 8.88-9.34, write 1.65-1.74).
const PARSE_BOUND: f64 = 4.5;
const WRITE_BOUND: f64 = 1.55;

/// Bound on the serial 16-chip DLX-small Monte Carlo's ratio to the same
/// reference, timed in the same iterations as parse and write. Checked
/// on a 2-vCPU host over 20 rounds, each running the unchanged code and
/// a copy whose `HandshakeNet::cycle_times_scaled` spins for a quarter
/// of its own time: every unchanged run passed in its first batch
/// (2.26-2.49), and every slowed run failed after four batches
/// (2.80-2.97) while passing parse and write.
const MC_BOUND: f64 = 2.6;

/// Bound on the ratio of one serial `Desynchronizer::run` of DLX32 plus
/// one of ARM32 (scan inserted, the paper's single group) to the same
/// reference, each run on a prebuilt module cloned in the timed body, in
/// batches of [`FLOW_ITERS`]. Checked on a 2-vCPU host over 20 rounds,
/// each running the unchanged code and a copy whose
/// `Desynchronizer::run` spins for a quarter of its own time: every
/// unchanged run passed in its first batch (10.69-11.29), and every
/// slowed run failed after four batches (13.10-13.56) while passing
/// parse, write and the Monte Carlo.
const FLOW_BOUND: f64 = 12.8;
const FLOW_ITERS: u32 = 250;

fn main() {
    let lib = vlib90::high_speed();
    let dlx = drd_designs::dlx::build(&DlxParams::small()).expect("dlx builds");
    let dlx_full = drd_designs::dlx::build(&DlxParams::full()).expect("dlx builds");
    let tool = Desynchronizer::new(&lib).unwrap();

    // The small DLX's control network at sigma 0.15: what `simulate`
    // pays per chip is its factor draws and one event simulation.
    let result = tool.run(dlx.clone(), &DesyncOptions::default()).0.unwrap();
    let net =
        HandshakeNet::elaborate(&handshake_spec(&result.report, &lib).unwrap(), &lib).unwrap();
    let var = GateVariability::new(0xD15E_A5E0, 0.15);

    let mut b = Bench::new("kernels").iterations(10);

    // Verilog writer + parser round trip on the full DLX, interleaved
    // with the host-speed reference: the gate bounds their ratios to it,
    // so it does not move with host speed.
    let mut design = Design::new();
    design.insert(dlx_full.clone());
    let text = drd_netlist::verilog::write_design(&design);
    // The reference: sorting 50 000 pseudo-random keys, bench code only,
    // so no change to the program moves it. A timed run allocates
    // nothing. Inserting the sorted keys into a hash table as well, as
    // e2ebench's calibration task does, made the reference itself move
    // by half from one bench process to the next.
    let mut keys: Vec<u64> = Vec::with_capacity(50_000);
    let mut reference = || {
        keys.clear();
        keys.extend(xorshift(0).take(50_000));
        keys.sort_unstable();
        std::hint::black_box(keys[0]);
    };
    let ratios = b.run_relative(
        500,
        &[PARSE_BOUND, WRITE_BOUND, MC_BOUND],
        &mut [
            ("reference_sort", &mut reference),
            ("verilog_parse_dlx_full", &mut || {
                let parsed = drd_netlist::verilog::parse_design(std::hint::black_box(&text));
                std::hint::black_box(parsed.unwrap());
            }),
            ("verilog_write_dlx_full", &mut || {
                let written = drd_netlist::verilog::write_design(std::hint::black_box(&design));
                std::hint::black_box(written);
            }),
            ("handshake_mc_dlx_small_16", &mut || {
                std::hint::black_box(net.monte_carlo(&var, 16, 1).unwrap());
            }),
        ],
    );

    // The whole flow, as `drdesync desync` runs it once the netlist is
    // parsed, on both full-size cores in one body. The
    // flow takes the module over, so the timed body clones it first.
    let cases = [
        CaseStudy::dlx(&DlxParams::full()).expect("DLX32 builds"),
        CaseStudy::armlike(&ArmParams::full()).expect("ARM32 builds"),
    ];
    let flows = cases.each_ref().map(|case| {
        (
            Desynchronizer::new(&case.lib).unwrap(),
            case.desync.clone(),
            &case.module,
        )
    });
    let flow_ratio = b.run_relative(
        FLOW_ITERS,
        &[FLOW_BOUND],
        &mut [
            ("reference_sort", &mut reference),
            ("desync_flow_dlx32_arm32", &mut || {
                for (tool, opts, module) in &flows {
                    let module = std::hint::black_box(*module).clone();
                    std::hint::black_box(tool.run(module, opts).0.unwrap());
                }
            }),
        ],
    )[0];

    // Region grouping on the full DLX, its connectivity snapshot included.
    b.run("grouping_dlx_full", || {
        let conn = dlx_full.connectivity(&lib);
        group(&dlx_full, &lib, &GroupingOptions::recommended(), &conn).unwrap()
    });

    // Netlist connectivity, STA graph build and arrival propagation on the
    // full DLX: together, what timing one design costs.
    b.run("connectivity_dlx_full", || {
        std::hint::black_box(&dlx_full).connectivity(&lib).unwrap()
    });
    b.run("sta_build_dlx_full", || {
        TimingGraph::build(std::hint::black_box(&dlx_full), &lib)
            .unwrap()
            .edge_count()
    });
    let graph = TimingGraph::build(&dlx_full, &lib).unwrap();
    b.run("sta_arrivals_dlx_full", || {
        graph.arrivals(Corner::typical()).unwrap().max_arrival()
    });

    // STG reachability + executable flow-equivalence check.
    b.run("stg_reachability_semi_decoupled", || {
        Protocol::SemiDecoupled
            .stg()
            .reachability(1 << 14)
            .unwrap()
            .state_count()
    });
    b.run("stg_flow_equivalence_semi_decoupled", || {
        drd_stg::flow_equiv::check_flow_equivalence(&Protocol::SemiDecoupled.stg(), 4, 1 << 22)
            .unwrap()
    });

    // Event-driven simulation throughput: 20 clocked cycles of the small DLX.
    b.run("sim_dlx_small_20_cycles", || {
        let mut d = Design::new();
        d.insert(dlx.clone());
        let mut sim = Simulator::new(&d, &lib, SimOptions::default()).unwrap();
        sim.poke("irq", Lv::Zero).unwrap();
        sim.schedule_clock("clk", 4.0, 2.0, 20).unwrap();
        sim.run_for(90.0);
        sim.captures().capture_count("pc_r0")
    });

    // Full desynchronization of the small DLX.
    b.run("desynchronize_dlx_small", || {
        tool.run(dlx.clone(), &DesyncOptions::default()).0.unwrap()
    });

    // Handshake-level simulation: a serial 256-chip Monte Carlo on the
    // small DLX, and elaboration plus one nominal run on the largest
    // `scale` step, 7 392 cells drawn after the four smaller steps as
    // that bench draws it (what the liveness guard pays per check).
    b.run("handshake_mc_dlx_small_256", || {
        net.monte_carlo(&var, 256, 1).unwrap()
    });
    let mut rng = Rng::new(0x5CA1_E0DD);
    for (stages, cloud, width) in [(4, 60, 4), (4, 120, 6), (6, 200, 8), (8, 320, 8)] {
        NetRecipe::stepped(&mut rng, stages, cloud, width);
    }
    let ladder = NetRecipe::stepped(&mut rng, 12, 600, 16).build().unwrap();
    assert_eq!(ladder.cells().count(), 7392, "largest scale step");
    let result = tool.run(ladder, &DesyncOptions::default()).0.unwrap();
    let spec = handshake_spec(&result.report, &lib).unwrap();
    b.run("handshake_nominal_ladder_7392", || {
        HandshakeNet::elaborate(std::hint::black_box(&spec), &lib)
            .unwrap()
            .nominal_cycle_times()
            .unwrap()
    });

    // Interner kernels: string-keyed maps in pass loops were the scaling
    // bottleneck the symbol table removed. The pair of name-lookup
    // kernels keeps the old HashMap-of-String cost visible next to the
    // interned path every pass now takes.
    let names: Vec<String> = (0..50_000)
        .map(|i| format!("drd_g{}_net_{i}", i % 97))
        .collect();
    b.run("symbol_intern_50k", || {
        let mut t = drd_netlist::SymbolTable::with_capacity(names.len());
        for n in &names {
            std::hint::black_box(t.intern(n));
        }
        t.len()
    });
    let mut table = drd_netlist::SymbolTable::with_capacity(names.len());
    let syms: Vec<drd_netlist::Symbol> = names.iter().map(|n| table.intern(n)).collect();
    b.run("symbol_resolve_50k", || {
        let mut total = 0usize;
        for &s in &syms {
            total += table.resolve(s).len();
        }
        total
    });
    let string_map: std::collections::HashMap<&str, u32> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect();
    b.run("name_lookup_string_hashmap_50k", || {
        let mut acc = 0u64;
        for n in &names {
            acc += u64::from(string_map[n.as_str()]);
        }
        acc
    });
    let sym_map: std::collections::HashMap<drd_netlist::Symbol, u32> = syms
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    b.run("name_lookup_interned_50k", || {
        let mut acc = 0u64;
        for &s in &syms {
            acc += u64::from(sym_map[&s]);
        }
        acc
    });
    // Uniquing over a dense pre-taken range: quadratic before the
    // per-prefix counter cache, linear with it.
    b.run("unique_net_name_dense_1k", || {
        let mut m = drd_netlist::Module::new("t");
        m.add_net("p").unwrap();
        for _ in 0..1000 {
            let name = m.unique_net_name("p");
            m.add_net(name).unwrap();
        }
        m.net_count()
    });

    let mut failed = Vec::new();
    for (kernel, ratio, bound) in [
        ("parse", ratios[0], PARSE_BOUND),
        ("write", ratios[1], WRITE_BOUND),
        ("mc", ratios[2], MC_BOUND),
        ("flow", flow_ratio, FLOW_BOUND),
    ] {
        if ratio > bound {
            failed.push(format!("{kernel}/reference ratio {ratio:.4} > {bound}"));
        }
    }
    drd_bench::finish("kernels", &b.to_json(), &failed);
}

fn xorshift(seed: u64) -> impl Iterator<Item = u64> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
}
