//! Scan-chain preservation through latch substitution (§4.3 meets §3.2).
//!
//! The DFT phase stitches every flip-flop into a scan chain; the
//! desynchronization flow then replaces each scan flip-flop with a
//! master/slave latch pair plus an explicit scan mux. These tests pin
//! down the contract: the chain stitched by [`drd_flow::insert_scan`]
//! must survive the substitution cell-for-cell (same scan-in ordering,
//! same shared scan-enable, mux feeding the master latch), and the
//! structural scan oracle in `drd-check` must reject any un-stitching —
//! including the `broken-scan-stitch` mutation kind.

use drd_check::diff::{verify_result, DiffConfig};
use drd_check::mutate::{apply, Mutation};
use drd_check::netgen::{FfKind, NetGenParams, NetRecipe};
use drd_check::Rng;
use drd_core::{DesyncOptions, DesyncResult, Desynchronizer};
use drd_flow::insert_scan;
use drd_liberty::vlib90;
use drd_netlist::{Conn, Module, PortDir};

/// A shift register whose data path runs through inverters, so each
/// flip-flop's `D` net differs from the `Q` net the scan chain taps —
/// the mux legs stay structurally distinguishable.
fn inverting_shift_register(n: usize) -> Module {
    let mut m = Module::new("isr");
    m.add_port("clk", PortDir::Input).unwrap();
    m.add_port("d", PortDir::Input).unwrap();
    let clk = m.find_net("clk").unwrap();
    let mut prev = m.find_net("d").unwrap();
    for i in 0..n {
        let nd = m.add_net(format!("nd{i}")).unwrap();
        m.add_cell(
            format!("inv{i}"),
            "INVX1",
            &[("A", Conn::Net(prev)), ("Z", Conn::Net(nd))],
        )
        .unwrap();
        let q = m.add_net(format!("q{i}")).unwrap();
        m.add_cell(
            format!("r{i}"),
            "DFFX1",
            &[
                ("D", Conn::Net(nd)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        prev = q;
    }
    m
}

/// Net name of `pin` on cell `name`, `None` when absent or tied off.
fn pin_net(m: &Module, name: &str, pin: &str) -> Option<String> {
    let cell = m.find_cell(name)?;
    let net = m.cell(cell).pin(pin)?.net()?;
    Some(m.net(net).name.to_owned())
}

#[test]
fn scan_chain_survives_latch_substitution() {
    let lib = vlib90::high_speed();
    let mut module = inverting_shift_register(4);
    let report = insert_scan(&mut module, &lib).unwrap();
    assert_eq!(report.chain, ["r0", "r1", "r2", "r3"]);

    let tool = Desynchronizer::new(&lib).unwrap();
    let result = tool.run(module, &DesyncOptions::default()).0.unwrap();
    let top = result.design.module(result.design.top());

    let mut prev_link = "scan_in".to_owned();
    for (i, ff) in report.chain.iter().enumerate() {
        let mux = format!("{ff}_smx");
        let id = top
            .find_cell(&mux)
            .unwrap_or_else(|| panic!("{mux} missing after substitution"));
        assert_eq!(top.cell(id).kind_name(), "MUX2X1", "{mux}");
        // The stitched ordering: each mux's scan leg taps the previous
        // link (the scan_in port, then each predecessor's Q net).
        assert_eq!(pin_net(top, &mux, "B").as_deref(), Some(prev_link.as_str()));
        // One shared scan enable selects the whole chain.
        assert_eq!(pin_net(top, &mux, "S").as_deref(), Some("scan_en"));
        // Functional leg still the inverted data, mux into the master.
        assert_eq!(
            pin_net(top, &mux, "A").as_deref(),
            Some(format!("nd{i}").as_str())
        );
        assert_eq!(
            pin_net(top, &mux, "Z"),
            pin_net(top, &format!("{ff}_lm"), "D")
        );
        assert!(
            top.find_cell(&format!("{ff}_ls")).is_some(),
            "{ff}_ls missing"
        );
        prev_link = format!("q{i}");
    }
}

/// Deterministically find a netgen recipe that contains a scan flip-flop
/// and whose clean flow the oracle stack accepts.
fn scan_recipe(lib: &drd_liberty::Library, config: &DiffConfig) -> (NetRecipe, DesyncResult) {
    let mut rng = Rng::new(0x05CA_9C4A);
    let params = NetGenParams::default();
    for _ in 0..64 {
        let recipe = NetRecipe::sample(&mut rng, &params);
        let has_scan = recipe
            .stages
            .iter()
            .any(|s| s.ffs.iter().any(|f| f.kind == FfKind::Scan));
        if !has_scan {
            continue;
        }
        let Ok(module) = recipe.build() else { continue };
        let tool = Desynchronizer::new(lib).unwrap();
        let Ok(clean) = tool.run(module, &DesyncOptions::default()).0 else {
            continue;
        };
        if verify_result(&recipe, lib, config, &clean).is_ok() {
            return (recipe, clean);
        }
    }
    panic!("no verifiable scan-carrying recipe in 64 samples");
}

#[test]
fn scan_oracle_accepts_clean_flows_and_kills_unstitched_ones() {
    let lib = vlib90::high_speed();
    let config = DiffConfig::default();
    let (recipe, clean) = scan_recipe(&lib, &config);

    // Both broken legs of the new mutation kind must be caught, and by
    // the scan oracle specifically.
    for site_seed in [0u64, 1] {
        let mutant = apply(Mutation::BrokenScanStitch, site_seed, &recipe, &clean, &lib)
            .expect("scan mux present");
        let why = verify_result(&recipe, &lib, &config, &mutant)
            .expect_err("un-stitched chain must be rejected");
        assert!(why.contains("scan"), "rejected for the wrong reason: {why}");
    }
}
