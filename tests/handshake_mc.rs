//! Golden pin of the handshake-level simulator, bit for bit.
//!
//! The Fig. 5.4 numbers all come out of `HandshakeNet`, so this snapshot
//! records what it computes at the femtosecond and bit level:
//!
//! * each controlled region's nominal `span_fs` and `cycles` for the
//!   four paper cores (canonical parameters) and the five steps of the
//!   `scale` bench ladder;
//! * `desync_cycle_ns` and `sync_period_ns` as `f64::to_bits` patterns
//!   for a 256-chip Monte Carlo of DLX-small and of DLX32 at sigma 0.15,
//!   run at the ambient worker count;
//! * DLX-small's tap sweep: `cycle_times_scaled` at every
//!   `tap_factor(k)`.
//!
//! Re-record after an intentional simulator change with:
//!
//! ```bash
//! DRD_BLESS=1 cargo test -q --test handshake_mc
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use drd_check::golden::assert_golden;
use drd_check::netgen::NetRecipe;
use drd_check::Rng;
use drdesync::core::delay_element::{tap_factor, MUX_TAPS};
use drdesync::core::{handshake_spec, DesyncOptions, Desynchronizer};
use drdesync::flow::experiment::CaseStudy;
use drdesync::liberty::{vlib90, Library};
use drdesync::netlist::Module;
use drdesync::sim::handshake::DEFAULT_MAX_EDGES;
use drdesync::sim::{GateVariability, HandshakeNet, RegionCycle, SimError};

/// Desynchronizes `module` and elaborates its control network.
fn elaborate(name: &str, lib: &Library, module: Module, opts: &DesyncOptions) -> HandshakeNet {
    let result = Desynchronizer::new(lib)
        .expect("tool builds")
        .run(module, opts)
        .0
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let spec = handshake_spec(&result.report, lib).unwrap_or_else(|e| panic!("{name}: {e}"));
    HandshakeNet::elaborate(&spec, lib).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Appends one `label region span_fs cycles` line per region, or one
/// `label error message` line when the run fails.
fn record_cycles(out: &mut String, label: &str, run: Result<Vec<RegionCycle>, SimError>) {
    match run {
        Ok(cycles) => {
            for c in cycles {
                writeln!(out, "{label} {} {} {}", c.region, c.span_fs, c.cycles).expect("write");
            }
        }
        Err(e) => writeln!(out, "{label} error {e}").expect("write"),
    }
}

#[test]
fn handshake_simulation_is_bit_identical() {
    let mut out = String::from("# nominal: design region span_fs cycles\n");

    let cores = [
        (
            "dlx_small",
            CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::small()),
        ),
        (
            "dlx32",
            CaseStudy::dlx(&drdesync::designs::dlx::DlxParams::full()),
        ),
        (
            "armlike_small",
            CaseStudy::armlike(&drdesync::designs::armlike::ArmParams::small()),
        ),
        (
            "arm32",
            CaseStudy::armlike(&drdesync::designs::armlike::ArmParams::full()),
        ),
    ];
    let mut dlx = Vec::new();
    for (name, case) in cores {
        let case = case.expect("case builds");
        let net = elaborate(name, &case.lib, case.module, &case.desync);
        record_cycles(&mut out, name, net.nominal_cycle_times());
        if name.starts_with("dlx") {
            dlx.push((name, net));
        }
    }

    let lib = vlib90::high_speed();
    // The `scale` bench ladder: same steps, same seed.
    let mut rng = Rng::new(0x5CA1_E0DD);
    for (stages, cloud, width) in [
        (4, 60, 4),
        (4, 120, 6),
        (6, 200, 8),
        (8, 320, 8),
        (12, 600, 16),
    ] {
        let module = NetRecipe::stepped(&mut rng, stages, cloud, width)
            .build()
            .expect("recipe builds");
        let name = format!("scale_{stages}x{cloud}+{width}");
        let net = elaborate(&name, &lib, module, &DesyncOptions::default());
        record_cycles(&mut out, &name, net.nominal_cycle_times());
    }

    out.push_str("# monte carlo, sigma 0.15: design chip desync_cycle_ns sync_period_ns\n");
    let var = GateVariability::new(0xD15E_A5E0, 0.15);
    for (name, net) in &dlx {
        let samples = net
            .monte_carlo(&var, 256, drd_runner::worker_count())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in samples {
            writeln!(
                out,
                "{name} {} {:#018x} {:#018x}",
                s.chip,
                s.desync_cycle_ns.to_bits(),
                s.sync_period_ns.to_bits()
            )
            .expect("write");
        }
    }

    out.push_str("# tap sweep: design tap region span_fs cycles\n");
    let (name, net) = &dlx[0];
    let ones = vec![1.0; net.gate_count()];
    for k in 0..MUX_TAPS {
        let label = format!("{name} tap{k}");
        record_cycles(
            &mut out,
            &label,
            net.cycle_times_scaled(&ones, tap_factor(k), DEFAULT_MAX_EDGES),
        );
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/handshake_mc.txt");
    assert_golden(path, &out);
}
