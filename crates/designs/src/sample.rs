//! The worked example of Chapter 2: the 5-region circuit of Fig. 2.2.
//!
//! Five register groups `G1..G5` with combinational clouds `CL1..CL5`,
//! wired so the data-dependency graph matches Fig. 2.6:
//!
//! ```text
//! G1 → G2 → G4      G1 → G3 → G5      G3 → G4      G5 → G5 (self loop
//! G4 → G2 (feedback as drawn by the crossing arrows of Fig. 2.6)
//! ```

use drd_netlist::{Conn, Module, NetlistError};

use crate::builder::Builder;

/// Bit width of each register group.
pub const WIDTH: usize = 4;

/// Builds the Fig. 2.2 sample circuit.
///
/// # Errors
/// Propagates netlist construction errors (cannot happen for the fixed
/// structure unless names collide, which they do not).
pub fn figure_2_2() -> Result<Module, NetlistError> {
    let mut m = Module::new("fig2_2");
    let mut b = Builder::new(&mut m);
    let clk = b.input("clk", 1)?;
    let clk = clk.0[0];
    let din = b.input("din", WIDTH)?;

    // G1 registers the primary inputs (cloud CL1 = thin input logic).
    let cl1 = b.not(&din)?;
    let g1 = b.register("g1", &cl1, clk)?;

    // Forward declarations for feedback (G4 → CL2).
    let g4_fb = b.wire("g4", WIDTH)?;

    // CL2 reads G1 and G4; G2 registers it.
    let cl2 = b.xor(&g1, &g4_fb)?;
    let g2 = b.register("g2", &cl2, clk)?;

    // CL3 reads G1; G3 registers it.
    let cl3_a = b.not(&g1)?;
    let cl3 = b.and(&cl3_a, &g1)?; // a & !a = 0 would be constant; mix instead
    let cl3 = b.or(&cl3, &g1)?;
    let g3 = b.register("g3", &cl3, clk)?;

    // CL4 reads G2 and G3; G4 registers it (driving the feedback wire).
    let cl4 = b.and(&g2, &g3)?;
    let cl4b = b.not(&cl4)?;
    for i in 0..WIDTH {
        let cell = format!("g4_r{i}");
        b.module().add_cell(
            cell,
            "DFFX1",
            &[
                ("D", Conn::Net(cl4b.0[i])),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(g4_fb.0[i])),
            ],
        )?;
    }

    // CL5 reads G3 and G5 itself (accumulator); G5 registers it.
    let g5_fb = b.wire("g5", WIDTH)?;
    let cl5 = b.xor(&g3, &g5_fb)?;
    for i in 0..WIDTH {
        let cell = format!("g5_r{i}");
        b.module().add_cell(
            cell,
            "DFFX1",
            &[
                ("D", Conn::Net(cl5.0[i])),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(g5_fb.0[i])),
            ],
        )?;
    }

    b.output("dout2", &g2)?;
    b.output("dout5", &g5_fb)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_core::region::{group, GroupingOptions};
    use drd_liberty::vlib90;

    #[test]
    fn sample_groups_into_five_regions() {
        let m = figure_2_2().unwrap();
        let lib = vlib90::high_speed();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        // G1 registers inputs through CL1 (a cloud), so no g0 appears:
        // exactly five groups carry registers. (Output-port buffer clouds
        // form extra register-less regions, which get no controllers.)
        let controlled: Vec<_> = regions
            .regions
            .iter()
            .filter(|r| !r.seq_cells.is_empty())
            .collect();
        assert_eq!(
            controlled.len(),
            5,
            "{:?}",
            regions
                .regions
                .iter()
                .map(|r| (&r.name, r.cells.len(), r.seq_cells.len()))
                .collect::<Vec<_>>()
        );
        for r in &controlled {
            assert_eq!(r.seq_cells.len(), WIDTH, "{}", r.name);
        }
    }

    #[test]
    fn sample_ddg_matches_figure_2_6_shape() {
        let m = figure_2_2().unwrap();
        let lib = vlib90::high_speed();
        let conn = m.connectivity(&lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        let ddg = drd_core::ddg::build(&m, &lib, &regions, &conn).unwrap();
        let idx = |cell: &str| regions.region_of(m.find_cell(cell).unwrap()).unwrap();
        let (g1, g2, g3, g4, g5) = (
            idx("g1_r0"),
            idx("g2_r0"),
            idx("g3_r0"),
            idx("g4_r0"),
            idx("g5_r0"),
        );
        for edge in [
            (g1, g2),
            (g1, g3),
            (g2, g4),
            (g3, g4),
            (g3, g5),
            (g4, g2),
            (g5, g5),
        ] {
            assert!(ddg.edges.contains(&edge), "missing edge {edge:?}");
        }
    }
}
