//! Micro-benchmarks of the tool's own kernels: Verilog parsing and
//! writing, region grouping, connectivity, STA graph build and
//! propagation, STG reachability, event simulation throughput,
//! handshake-level simulation and full desynchronization.
//!
//! Runs on the in-tree `drd_check::bench` harness (`cargo bench -p
//! drd-bench`) and writes `BENCH_kernels.json` so the perf trajectory is
//! recorded run over run, then gates the Verilog front end: parse and
//! write of the full DLX, each as a ratio to a reference task timed in
//! the same iterations, must stay within [`PARSE_BOUND`] and
//! [`WRITE_BOUND`].

use std::collections::HashMap;

use drd_check::bench::Bench;
use drd_check::netgen::NetRecipe;
use drd_check::Rng;
use drd_core::region::{group, GroupingOptions};
use drd_core::{handshake_spec, DesyncOptions, Desynchronizer};
use drd_designs::dlx::DlxParams;
use drd_liberty::{vlib90, Corner, Lv};
use drd_netlist::Design;
use drd_sim::{GateVariability, HandshakeNet, SimOptions, Simulator};
use drd_sta::TimingGraph;
use drd_stg::protocols::Protocol;

/// Bounds on the lowest per-round parse/reference and write/reference
/// ratios of the full DLX (3 rounds of 100 iterations). A host slow phase
/// inflates only the rounds it overlaps, while a slower front end shows
/// in every round. Calibrated on a 2-vCPU host: unchanged code read
/// parse 2.32-2.56 and write 1.02-1.14 over 20 runs; a deliberate 25 %
/// parse slowdown read parse 2.85-3.37 and failed all 20.
const PARSE_BOUND: f64 = 2.65;
const WRITE_BOUND: f64 = 1.30;

fn main() {
    let lib = vlib90::high_speed();
    let dlx = drd_designs::dlx::build(&DlxParams::small()).expect("dlx builds");
    let dlx_full = drd_designs::dlx::build(&DlxParams::full()).expect("dlx builds");

    let mut b = Bench::new("kernels").iterations(10);

    // Verilog writer + parser round trip on the full DLX, interleaved
    // with the host-speed reference: the gate bounds their ratios to it,
    // so it does not move with host speed.
    let mut design = Design::new();
    design.insert(dlx_full.clone());
    let text = drd_netlist::verilog::write_design(&design);
    // The reference: e2ebench's two-part calibration task, bench code
    // only, so no change to the program moves it. A busy host slows two
    // kinds of work differently, and the front end does both: sorting
    // and hashing keys that fit in cache, and random reads over a table
    // larger than any shared cache (32 MiB). A timed run allocates
    // nothing.
    let table: Vec<u64> = xorshift(1).take(4 << 20).collect();
    let mut keys: Vec<u64> = Vec::with_capacity(50_000);
    let mut index: HashMap<u64, usize> = HashMap::with_capacity(25_000);
    let mut reference = || {
        keys.clear();
        index.clear();
        keys.extend(xorshift(0).take(50_000));
        keys.sort_unstable();
        index.extend(keys.iter().enumerate().step_by(2).map(|(i, &k)| (k, i)));
        let n = table.len() as u64;
        let sum = xorshift(2)
            .take(100_000)
            .fold(0u64, |acc, r| acc.wrapping_add(table[(r % n) as usize]));
        std::hint::black_box((index.len(), sum));
    };
    let ratios = b.run_relative(
        3,
        100,
        &mut [
            ("reference_sort_hash_read", &mut reference),
            ("verilog_parse_dlx_full", &mut || {
                let parsed = drd_netlist::verilog::parse_design(std::hint::black_box(&text));
                std::hint::black_box(parsed.unwrap());
            }),
            ("verilog_write_dlx_full", &mut || {
                let written = drd_netlist::verilog::write_design(std::hint::black_box(&design));
                std::hint::black_box(written);
            }),
        ],
    );

    // Region grouping on the full DLX.
    b.run("grouping_dlx_full", || {
        group(&dlx_full, &lib, &GroupingOptions::recommended()).unwrap()
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
    let tool = Desynchronizer::new(&lib).unwrap();
    b.run("desynchronize_dlx_small", || {
        tool.run(dlx.clone(), &DesyncOptions::default()).0.unwrap()
    });

    // Handshake-level simulation: a serial 256-chip Monte Carlo on the
    // small DLX (what `simulate` pays per chip), and elaboration plus
    // one nominal run on the largest `scale` step, 7 392 cells drawn
    // after the four smaller steps as that bench draws it (what the
    // liveness guard pays per check).
    let result = tool.run(dlx, &DesyncOptions::default()).0.unwrap();
    let net =
        HandshakeNet::elaborate(&handshake_spec(&result.report, &lib).unwrap(), &lib).unwrap();
    let var = GateVariability::new(0xD15E_A5E0, 0.15);
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
