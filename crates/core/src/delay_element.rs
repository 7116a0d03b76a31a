//! Matched delay elements (§2.4.4, §3.1.4, Figs. 2.8/2.9).
//!
//! Each region's request signal is delayed by at least the region's
//! combinational critical-path delay. Because 4-phase controllers are
//! used, the elements are *asymmetric* — slow rise (the request must wait
//! for the logic), fast fall (the return-to-zero phase should be quick) —
//! built as an AND chain where every stage is also fed by the input, so a
//! falling input collapses the whole chain in one gate delay.
//!
//! A multiplexed variant exposes 8 taps selected by `sel[2:0]` so the
//! final delay can be calibrated after layout (§3.2.5, the Fig. 5.3
//! sweep): tap `k` gives roughly `(0.70 + 0.15·k)×` the matched delay,
//! so tap 2 is the matched point and taps 0–1 are deliberately too short.

use drd_liberty::{Corner, Library};
use drd_netlist::{Conn, Module, PortDir};
use drd_sta::TimingGraph;

use crate::DesyncError;

/// Number of taps in a multiplexed delay element.
pub const MUX_TAPS: usize = 8;

/// Relative length of tap `k` (tap 2 ≙ matched delay).
pub fn tap_factor(k: usize) -> f64 {
    0.70 + 0.15 * k as f64
}

/// Builds a fixed-length asymmetric delay element module named `name` with
/// ports `in1` → `out1` and `levels` AND stages.
///
/// # Panics
/// Panics if `levels == 0`.
pub fn build_fixed(name: &str, levels: usize) -> Module {
    assert!(levels > 0, "a delay element needs at least one level");
    let mut m = Module::new(name);
    m.add_port("in1", PortDir::Input).expect("fresh module");
    m.add_port("out1", PortDir::Output).expect("fresh module");
    let input = m.find_net("in1").expect("port net");
    let out = m.find_net("out1").expect("port net");
    let mut prev = input;
    let mut feed = input;
    for i in 0..levels {
        // Segment the shared fast-fall feed so the input net's fanout (and
        // with it the return-to-zero time) stays bounded.
        if i % 8 == 0 && levels > 8 {
            let seg = m.add_net(format!("f{i}")).expect("fresh name");
            m.add_cell(
                format!("uf{i}"),
                "BUFX2",
                &[("A", Conn::Net(input)), ("Z", Conn::Net(seg))],
            )
            .expect("fresh name");
            feed = seg;
        }
        let next = if i + 1 == levels {
            out
        } else {
            m.add_net(format!("d{i}")).expect("fresh name")
        };
        m.add_cell(
            format!("u{i}"),
            "AND2X1",
            &[
                ("A", Conn::Net(prev)),
                ("B", Conn::Net(feed)),
                ("Z", Conn::Net(next)),
            ],
        )
        .expect("fresh name");
        prev = next;
    }
    m
}

/// Measures how many AND levels the 8:1 mux tree is worth, so tap
/// lengths can compensate for the selection overhead.
///
/// # Errors
/// Propagates STA errors.
pub fn mux_overhead_levels(lib: &Library) -> Result<usize, DesyncError> {
    let per_level = level_delay_ns(lib)?;
    let one = measure_delay(&build_muxed("drd_muxprobe", 1, 0), lib, Corner::typical())?;
    Ok(((one - per_level) / per_level).ceil().max(0.0) as usize)
}

/// Builds a multiplexed asymmetric delay element named `name`: the chain
/// is as long as the longest tap, and `sel[2:0]` pick among [`MUX_TAPS`]
/// taps whose *total* delay (chain + mux tree) is `tap_factor(k) ×` the
/// matched delay; `overhead_levels` (see [`mux_overhead_levels`]) is
/// subtracted from each tap's chain length to compensate for the tree.
///
/// # Panics
/// Panics if `matched_levels == 0`.
pub fn build_muxed(name: &str, matched_levels: usize, overhead_levels: usize) -> Module {
    assert!(
        matched_levels > 0,
        "a delay element needs at least one level"
    );
    let tap_levels: Vec<usize> = (0..MUX_TAPS)
        .map(|k| {
            // Total tap delay should be factor(k) × matched; the mux tree
            // contributes `overhead_levels` of it.
            let ideal = matched_levels as f64 * tap_factor(k);
            ((ideal.round() as usize).saturating_sub(overhead_levels)).max(1)
        })
        .collect();
    let chain_len = *tap_levels.iter().max().expect("non-empty");

    let mut m = Module::new(name);
    m.add_port("in1", PortDir::Input).expect("fresh module");
    m.add_port("out1", PortDir::Output).expect("fresh module");
    for b in 0..3 {
        m.add_port(format!("sel[{b}]"), PortDir::Input)
            .expect("fresh module");
    }
    let input = m.find_net("in1").expect("port net");
    let out = m.find_net("out1").expect("port net");

    let mut stage_nets = Vec::with_capacity(chain_len + 1);
    stage_nets.push(input);
    let mut prev = input;
    let mut feed = input;
    for i in 0..chain_len {
        if i % 8 == 0 && chain_len > 8 {
            let seg = m.add_net(format!("f{i}")).expect("fresh name");
            m.add_cell(
                format!("uf{i}"),
                "BUFX2",
                &[("A", Conn::Net(input)), ("Z", Conn::Net(seg))],
            )
            .expect("fresh name");
            feed = seg;
        }
        let next = m.add_net(format!("d{i}")).expect("fresh name");
        m.add_cell(
            format!("u{i}"),
            "AND2X1",
            &[
                ("A", Conn::Net(prev)),
                ("B", Conn::Net(feed)),
                ("Z", Conn::Net(next)),
            ],
        )
        .expect("fresh name");
        stage_nets.push(next);
        prev = next;
    }

    // 8:1 mux tree on the taps, selected by sel[2] (MSB) … sel[0].
    let taps: Vec<_> = tap_levels.iter().map(|&l| stage_nets[l]).collect();
    let mut level: Vec<drd_netlist::NetId> = taps;
    for bit in 0..3 {
        let sel = m.find_net(&format!("sel[{bit}]")).expect("sel port net");
        let mut next_level = Vec::with_capacity(level.len() / 2);
        for (pair, chunk) in level.chunks(2).enumerate() {
            let z = if level.len() == 2 {
                out
            } else {
                m.add_net(format!("m{bit}_{pair}")).expect("fresh name")
            };
            m.add_cell(
                format!("mx{bit}_{pair}"),
                "MUX2X1",
                &[
                    ("A", Conn::Net(chunk[0])),
                    ("B", Conn::Net(chunk[1])),
                    ("S", Conn::Net(sel)),
                    ("Z", Conn::Net(z)),
                ],
            )
            .expect("fresh name");
            next_level.push(z);
        }
        level = next_level;
    }
    m
}

/// Measures a delay element's `in1 → out1` propagation delay by STA.
///
/// # Errors
/// Propagates STA errors.
pub fn measure_delay(module: &Module, lib: &Library, corner: Corner) -> Result<f64, DesyncError> {
    let graph = TimingGraph::build(module, lib)?;
    let arrivals = graph.arrivals(corner)?;
    Ok(arrivals.max_endpoint_arrival())
}

/// Measures the typical-corner delay of one AND level (library
/// preparation, §3.1.4: "we implement delay elements of variable logic
/// depth … and perform STA to measure their delay values").
///
/// # Errors
/// Propagates STA errors.
pub fn level_delay_ns(lib: &Library) -> Result<f64, DesyncError> {
    const PROBE_LEVELS: usize = 16;
    let probe = build_fixed("drd_delem_probe", PROBE_LEVELS);
    Ok(measure_delay(&probe, lib, Corner::typical())? / PROBE_LEVELS as f64)
}

/// Chooses the chain length whose delay covers `target_ns` with `margin`
/// (e.g. 1.1 for +10 %), given the measured delay of one level
/// ([`level_delay_ns`]).
pub fn levels_for_delay(target_ns: f64, margin: f64, level_delay_ns: f64) -> usize {
    ((target_ns * margin / level_delay_ns).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;

    #[test]
    fn fixed_delay_scales_with_levels() {
        let lib = vlib90::high_speed();
        let d4 = measure_delay(&build_fixed("d4", 4), &lib, Corner::typical()).unwrap();
        let d8 = measure_delay(&build_fixed("d8", 8), &lib, Corner::typical()).unwrap();
        assert!(d8 > 1.8 * d4, "{d8} vs {d4}");
    }

    #[test]
    fn sizing_meets_target() {
        let lib = vlib90::high_speed();
        let target = 0.8;
        let levels = levels_for_delay(target, 1.1, level_delay_ns(&lib).unwrap());
        let delay = measure_delay(&build_fixed("dx", levels), &lib, Corner::typical()).unwrap();
        assert!(delay >= target, "sized delay {delay} ≥ target {target}");
        assert!(delay < target * 1.6, "not grossly oversized: {delay}");
    }

    #[test]
    fn asymmetric_behaviour_fast_fall() {
        use drd_liberty::Lv;
        use drd_sim::{SimOptions, Simulator};
        let lib = vlib90::high_speed();
        let mut design = drd_netlist::Design::new();
        design.insert(build_fixed("delem", 12));
        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
        sim.poke("in1", Lv::Zero).unwrap();
        sim.run_for(5.0);
        sim.watch("out1").unwrap();
        // Rising edge propagates through the whole chain.
        let t0 = sim.time_ns();
        sim.poke("in1", Lv::One).unwrap();
        sim.run_for(10.0);
        let edges = sim.edge_trace("out1");
        let rise = edges.iter().find(|&&(_, r)| r).expect("rise seen").0 - t0;
        // Falling edge collapses in roughly one AND delay.
        let t1 = sim.time_ns();
        sim.poke("in1", Lv::Zero).unwrap();
        sim.run_for(10.0);
        let edges = sim.edge_trace("out1");
        let fall = edges.iter().find(|&&(_, r)| !r).expect("fall seen").0 - t1;
        assert!(
            rise > 4.0 * fall,
            "asymmetric: rise {rise} ns vs fall {fall} ns"
        );
    }

    #[test]
    fn muxed_taps_are_monotone_and_bracket_matched_delay() {
        use drd_liberty::Lv;
        use drd_sim::{SimOptions, Simulator};
        let lib = vlib90::high_speed();
        let matched = 10;
        let overhead = mux_overhead_levels(&lib).unwrap();
        let module = build_muxed("delem_m", matched, overhead);
        let matched_delay =
            measure_delay(&build_fixed("ref", matched), &lib, Corner::typical()).unwrap();

        let mut rises = Vec::new();
        for k in 0..MUX_TAPS {
            let mut design = drd_netlist::Design::new();
            design.insert(module.clone());
            let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
            for b in 0..3 {
                let v = if (k >> b) & 1 == 1 { Lv::One } else { Lv::Zero };
                sim.poke(&format!("sel[{b}]"), v).unwrap();
            }
            sim.poke("in1", Lv::Zero).unwrap();
            sim.run_for(10.0);
            sim.watch("out1").unwrap();
            let t0 = sim.time_ns();
            sim.poke("in1", Lv::One).unwrap();
            sim.run_for(20.0);
            let rise = sim
                .edge_trace("out1")
                .iter()
                .find(|&&(_, r)| r)
                .expect("rise")
                .0
                - t0;
            rises.push(rise);
        }
        for w in rises.windows(2) {
            assert!(w[1] > w[0], "taps monotone: {rises:?}");
        }
        // Tap 2 sits at the matched point (±20 %), taps 0–1 are short,
        // tap 7 is substantially longer (the Fig. 5.3 sweep shape).
        assert!(
            (rises[2] / matched_delay - 1.0).abs() < 0.25,
            "tap2 {} vs matched {matched_delay}",
            rises[2]
        );
        assert!(rises[0] < 0.85 * rises[2], "{rises:?}");
        assert!(rises[7] > 1.5 * rises[2], "{rises:?}");
    }

    #[test]
    fn tap_factors() {
        assert!((tap_factor(2) - 1.0).abs() < 1e-12);
        assert!(tap_factor(0) < 1.0);
        assert!(tap_factor(7) > 1.7);
    }
}
