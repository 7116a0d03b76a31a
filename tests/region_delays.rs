//! Golden pin of every region's critical-path delay, bit for bit.
//!
//! The report goldens print delays to three decimals, so a last-bit
//! change in static timing would slip past them. This snapshot lists each
//! region's `critical_delay_ns` as its `f64::to_bits` pattern for the four
//! paper cores, the five steps of the `scale` bench ladder and a batch of
//! fuzzed netgen designs (a third of them grouped as one region).
//!
//! Re-record after an intentional timing change with:
//!
//! ```bash
//! DRD_BLESS=1 cargo test -q --test region_delays
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use drd_check::golden::assert_golden;
use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drdesync::core::{DesyncOptions, Desynchronizer, FlowContext, Pipeline};
use drdesync::flow::experiment::CaseStudy;
use drdesync::liberty::{vlib90, Library};
use drdesync::netlist::Module;

/// Runs the flow through `region-delays` and appends one
/// `design region bits` line per region.
fn record(out: &mut String, name: &str, lib: &Library, module: Module, opts: DesyncOptions) {
    let tool = Desynchronizer::new(lib).expect("tool builds");
    let mut cx = FlowContext::new(lib, tool.gatefile(), module, opts);
    let (head, _) = Pipeline::standard()
        .split_after("region-delays")
        .expect("standard pass");
    head.run(&mut cx).unwrap_or_else(|e| panic!("{name}: {e}"));
    let regions = cx.regions().expect("grouped");
    let delays = cx.region_delays().expect("timed");
    assert_eq!(regions.len(), delays.len(), "{name}");
    for (r, d) in regions.regions.iter().zip(delays) {
        writeln!(out, "{name} {} {:#018x}", r.name, d.to_bits()).expect("string write");
    }
}

#[test]
fn region_delays_are_bit_identical() {
    let mut out = String::from("# design region critical_delay_ns.to_bits()\n");

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
    for (name, case) in cores {
        let case = case.expect("case builds");
        record(&mut out, name, &case.lib, case.module, case.desync);
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
        record(&mut out, &name, &lib, module, DesyncOptions::default());
    }

    let mut rng = Rng::new(0xDE1A_7B17);
    for i in 0..24 {
        let params = NetGenParams {
            max_stages: 4,
            max_width: 6,
            max_cloud: 40,
            scan_set_reset: i % 2 == 1,
            ..NetGenParams::default()
        };
        let module = NetRecipe::sample(&mut rng, &params)
            .build()
            .expect("recipe builds");
        let mut opts = DesyncOptions::default();
        opts.grouping.single_group = i % 3 == 0;
        record(&mut out, &format!("netgen_{i}"), &lib, module, opts);
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/region_delays.txt");
    assert_golden(path, &out);
}
