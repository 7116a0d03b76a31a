//! An ARM966E-S-class core substitute (§5.3).
//!
//! The paper's second case study is a pre-existing ARM966E-S netlist: a
//! larger scan design, implemented in the Low-Leakage library, and — due
//! to its complexity — desynchronized as a *single group*. This generator
//! produces a core with the same characteristics: a 5-stage pipeline with
//! a multiplier array (making it substantially larger than the DLX), and
//! plain flip-flops that the flow's DFT pass converts into a scan chain
//! (§4.3) before desynchronization.

use drd_netlist::{Conn, Module, NetlistError};

use crate::builder::{Builder, Word};
use crate::dlx::DlxParams;

/// ARM-like generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmParams {
    /// Datapath width.
    pub width: usize,
    /// log2 of the register-file depth.
    pub regs_log2: usize,
    /// log2 of the instruction-ROM depth.
    pub rom_log2: usize,
    /// log2 of the data-RAM depth.
    pub ram_log2: usize,
    /// Multiplier operand width (array multiplier: cells grow as the
    /// square of this).
    pub mul_width: usize,
    /// Program seed.
    pub seed: u64,
}

impl ArmParams {
    /// Full-size configuration (≈ 2–3× the DLX, like the paper's ARM).
    pub fn full() -> Self {
        ArmParams {
            width: 32,
            regs_log2: 5,
            rom_log2: 7,
            ram_log2: 5,
            mul_width: 16,
            seed: 0xA9_66E5,
        }
    }

    /// Small configuration for tests.
    pub fn small() -> Self {
        ArmParams {
            width: 8,
            regs_log2: 3,
            rom_log2: 4,
            ram_log2: 3,
            mul_width: 4,
            seed: 0xA9_66E5,
        }
    }
}

impl Default for ArmParams {
    fn default() -> Self {
        ArmParams::full()
    }
}

/// Array multiplier `a[mw] × b[mw]` → `2·mw` bits of partial-product
/// adders — the block that gives the ARM-like core its extra bulk.
fn multiplier(b: &mut Builder<'_>, a: &Word, x: &Word) -> Result<Word, NetlistError> {
    let mw = a.width();
    // Partial products.
    let mut rows: Vec<Word> = Vec::with_capacity(mw);
    for (i, &xb) in x.bits().iter().enumerate() {
        let mut row_bits = Vec::with_capacity(2 * mw);
        for _ in 0..i {
            // Shifted-in zeros via const ties on fresh gates below.
            row_bits.push(None);
        }
        for &ab in a.bits() {
            row_bits.push(Some((ab, xb)));
        }
        while row_bits.len() < 2 * mw {
            row_bits.push(None);
        }
        let mut nets = Vec::with_capacity(2 * mw);
        for (k, slot) in row_bits.into_iter().enumerate() {
            let net = match slot {
                Some((ab, xb)) => {
                    let z = b.module().add_net_auto(&format!("pp{i}_{k}"));
                    let cell = b.module().unique_cell_name(&format!("u_pp{i}_{k}"));
                    b.module().add_cell(
                        cell,
                        "AND2X1",
                        &[
                            ("A", Conn::Net(ab)),
                            ("B", Conn::Net(xb)),
                            ("Z", Conn::Net(z)),
                        ],
                    )?;
                    z
                }
                None => {
                    let z = b.module().add_net_auto(&format!("ppz{i}_{k}"));
                    let cell = b.module().unique_cell_name(&format!("u_ppz{i}_{k}"));
                    b.module().add_cell(
                        cell,
                        "BUFX1",
                        &[("A", Conn::Const0), ("Z", Conn::Net(z))],
                    )?;
                    z
                }
            };
            nets.push(net);
        }
        rows.push(Word(nets));
    }
    // Adder tree over the rows.
    while rows.len() > 1 {
        let mut next = Vec::with_capacity(rows.len().div_ceil(2));
        let mut iter = rows.into_iter();
        while let Some(r0) = iter.next() {
            match iter.next() {
                Some(r1) => {
                    let (s, _) = b.adder(&r0, &r1, Conn::Const0)?;
                    next.push(s);
                }
                None => next.push(r0),
            }
        }
        rows = next;
    }
    Ok(rows.pop().expect("at least one row"))
}

/// Builds the ARM-like core.
///
/// # Errors
/// Propagates netlist construction errors.
pub fn build(p: &ArmParams) -> Result<Module, NetlistError> {
    // Reuse the DLX skeleton for fetch/decode/regfile/memory…
    let dlx_params = DlxParams {
        width: p.width,
        regs_log2: p.regs_log2,
        rom_log2: p.rom_log2,
        ram_log2: p.ram_log2,
        seed: p.seed,
    };
    let mut m = crate::dlx::build(&dlx_params)?;
    m.name = "armlike".into();

    // …then graft the multiply pipeline: id_a/id_b low bits feed an array
    // multiplier whose result is registered and folded into the RAM write
    // data path through an extra XOR stage.
    {
        let mut b = Builder::new(&mut m);
        let clk = {
            let clk_net = b.module().find_net("clk").expect("dlx has clk");
            clk_net
        };
        let id_a: Vec<_> = (0..p.mul_width)
            .map(|i| b.module().find_net(&format!("id_a[{i}]")).expect("id_a"))
            .collect();
        let id_b: Vec<_> = (0..p.mul_width)
            .map(|i| b.module().find_net(&format!("id_b[{i}]")).expect("id_b"))
            .collect();
        let prod = multiplier(&mut b, &Word(id_a), &Word(id_b))?;
        let mul_r = b.register("mul_r", &prod, clk)?;
        // Fold into an observable accumulator register.
        let acc_fb = b.wire("mul_acc", 2 * p.mul_width)?;
        let folded = b.xor(&mul_r, &acc_fb)?;
        for i in 0..2 * p.mul_width {
            b.module().add_cell(
                format!("mul_acc_r{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(folded.0[i])),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(acc_fb.0[i])),
                ],
            )?;
        }
        b.output("mul_out", &acc_fb)?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::Design;
    use drd_sim::{SimOptions, Simulator};

    #[test]
    fn armlike_is_larger_than_dlx() {
        let arm = build(&ArmParams::small()).unwrap();
        let dlx = crate::dlx::build(&DlxParams::small()).unwrap();
        assert!(
            arm.cell_count() > dlx.cell_count() + 50,
            "arm {} vs dlx {}",
            arm.cell_count(),
            dlx.cell_count()
        );
    }

    #[test]
    fn multiplier_multiplies() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let a = b.input("a", 4).unwrap();
            let x = b.input("x", 4).unwrap();
            let prod = multiplier(&mut b, &a, &x).unwrap();
            b.output("p", &prod).unwrap();
        }
        let mut d = Design::new();
        d.insert(m);
        let mut sim = Simulator::new(&d, &vlib90::low_leakage(), SimOptions::default()).unwrap();
        for (a, x) in [(3u64, 5u64), (15, 15), (0, 9), (7, 8)] {
            for i in 0..4 {
                sim.poke(&format!("a[{i}]"), Lv::from_bool((a >> i) & 1 == 1))
                    .unwrap();
                sim.poke(&format!("x[{i}]"), Lv::from_bool((x >> i) & 1 == 1))
                    .unwrap();
            }
            sim.run_for(20.0);
            let mut got = 0u64;
            for i in 0..8 {
                if sim.peek(&format!("p[{i}]")).unwrap() == Lv::One {
                    got |= 1 << i;
                }
            }
            assert_eq!(got, a * x, "{a}×{x}");
        }
    }

    #[test]
    fn armlike_runs_under_clock() {
        let m = build(&ArmParams::small()).unwrap();
        let mut d = Design::new();
        d.insert(m);
        let mut sim = Simulator::new(&d, &vlib90::low_leakage(), SimOptions::default()).unwrap();
        sim.poke("irq", Lv::Zero).unwrap();
        sim.schedule_clock("clk", 8.0, 4.0, 12).unwrap();
        sim.run_for(105.0);
        assert_eq!(sim.captures().capture_count("mul_r_r0"), 12);
    }
}
