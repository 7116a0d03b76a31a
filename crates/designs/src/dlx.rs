//! A DLX-style RISC pipeline, generated at gate level (§5.2).
//!
//! Matches the published design's structural character: a 4-stage pipeline
//! (IF, ID, EX, MEM/WB) with no data forwarding, a register file read in
//! ID and written back in MEM/WB (creating the feedback dependency the
//! controller network must honour), and — so the design is fully
//! self-contained for flow-equivalence simulation — an embedded
//! combinational instruction ROM and a small data RAM in place of the
//! paper's external memories (see DESIGN.md's substitution table).
//!
//! The instruction stream is a deterministic pseudo-random program; the
//! PC wraps around the ROM, so the circuit computes forever without any
//! input stimulus.

use drd_netlist::{Conn, Module, NetlistError};

use crate::builder::{Builder, Word};

/// DLX generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlxParams {
    /// Datapath width in bits.
    pub width: usize,
    /// log2 of the register-file depth.
    pub regs_log2: usize,
    /// log2 of the instruction-ROM depth.
    pub rom_log2: usize,
    /// log2 of the data-RAM depth.
    pub ram_log2: usize,
    /// Seed for the generated program.
    pub seed: u64,
}

impl DlxParams {
    /// Full-size configuration (≈ the paper's 32-bit DLX scale).
    pub fn full() -> Self {
        DlxParams {
            width: 32,
            regs_log2: 5,
            rom_log2: 7,
            ram_log2: 4,
            seed: 0xD1_5C0DE,
        }
    }

    /// Small configuration for fast tests.
    pub fn small() -> Self {
        DlxParams {
            width: 8,
            regs_log2: 3,
            rom_log2: 4,
            ram_log2: 3,
            seed: 0xD1_5C0DE,
        }
    }
}

impl Default for DlxParams {
    fn default() -> Self {
        DlxParams::full()
    }
}

/// Instruction encoding (LSB-first fields):
/// `[aluop:3][use_imm:1][is_load:1][is_store:1][wb_en:1][rs][rt][rd][imm…]`.
fn field_widths(p: &DlxParams) -> (usize, usize) {
    let fixed = 7 + 3 * p.regs_log2;
    let imm = p.width.saturating_sub(fixed).max(4);
    (fixed, imm)
}

/// Generates the deterministic pseudo-random program.
fn program(p: &DlxParams) -> Vec<u64> {
    let (fixed, imm_w) = field_widths(p);
    let total_bits = fixed + imm_w;
    let mut state = p.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..1usize << p.rom_log2)
        .map(|_| {
            let raw = next();
            raw & ((1u64 << total_bits.min(63)) - 1)
        })
        .collect()
}

/// Builds the DLX gate-level module.
///
/// # Errors
/// Propagates netlist construction errors.
pub fn build(p: &DlxParams) -> Result<Module, NetlistError> {
    let mut m = Module::new("dlx");
    let mut b = Builder::new(&mut m);
    let w = p.width;
    let rl = p.regs_log2;
    let (_, imm_w) = field_widths(p);

    let clk = b.input("clk", 1)?.0[0];
    // A registered external "interrupt" input gives the design a Group-0
    // input register, as in the paper's flow.
    let irq = b.input("irq", 1)?;

    // ------------------------------------------------------------------ IF
    let pc_next = b.wire("pc_next", p.rom_log2)?;
    let pc = b.register("pc", &pc_next, clk)?;
    let one = {
        // pc + 1 with carry-in 1 against zero.
        let zero_bits: Vec<Conn> = vec![Conn::Const0; p.rom_log2];
        let _ = zero_bits;
        let zeros = b.wire("pc_zero", p.rom_log2)?;
        for (i, &z) in zeros.bits().iter().enumerate() {
            b.module().add_cell(
                format!("pc_zero_tie{i}"),
                "BUFX1",
                &[("A", Conn::Const0), ("Z", Conn::Net(z))],
            )?;
        }
        zeros
    };
    let (pc_inc, _) = b.adder(&pc, &one, Conn::Const1)?;
    for i in 0..p.rom_log2 {
        b.module().add_cell(
            format!("pc_nx{i}"),
            "BUFX1",
            &[
                ("A", Conn::Net(pc_inc.0[i])),
                ("Z", Conn::Net(pc_next.0[i])),
            ],
        )?;
    }
    let instr = b.rom(&pc, &program(p), 7 + 3 * rl + imm_w)?;
    let if_instr = b.register("if_instr", &instr, clk)?;
    let irq_r = b.register("irq_r", &irq, clk)?;
    let _ = irq_r;

    // ------------------------------------------------------------------ ID
    let bits = if_instr.bits();
    let aluop = Word(bits[0..3].to_vec());
    let use_imm = bits[3];
    let is_load = bits[4];
    let is_store = bits[5];
    let wb_en = bits[6];
    let rs = Word(bits[7..7 + rl].to_vec());
    let rt = Word(bits[7 + rl..7 + 2 * rl].to_vec());
    let rd = Word(bits[7 + 2 * rl..7 + 3 * rl].to_vec());
    let imm = Word(bits[7 + 3 * rl..7 + 3 * rl + imm_w].to_vec());

    // Register file with write-back from MEM/WB (feedback wires declared
    // now, driven below).
    let wb_value = b.wire("wb_value", w)?;
    let wb_rd = b.wire("wb_rd", rl)?;
    let wb_we = b.wire("wb_we", 1)?.0[0];
    let wdec = b.decoder(&wb_rd, wb_we)?;
    let mut reg_qs: Vec<Word> = Vec::with_capacity(1 << rl);
    for r in 0..1usize << rl {
        let q = b.register_en(&format!("rf{r}"), &wb_value, wdec.0[r], clk)?;
        reg_qs.push(q);
    }
    let a_val = b.mux_tree(&rs, &reg_qs)?;
    let b_val = b.mux_tree(&rt, &reg_qs)?;

    // Zero-extend the immediate to the datapath width.
    let imm_ext = {
        let ext = b.wire("imm_ext", w)?;
        for i in 0..w {
            if i < imm_w {
                b.module().add_cell(
                    format!("immb{i}"),
                    "BUFX1",
                    &[("A", Conn::Net(imm.0[i])), ("Z", Conn::Net(ext.0[i]))],
                )?;
            } else {
                b.module().add_cell(
                    format!("immb{i}"),
                    "BUFX1",
                    &[("A", Conn::Const0), ("Z", Conn::Net(ext.0[i]))],
                )?;
            }
        }
        ext
    };

    let id_a = b.register("id_a", &a_val, clk)?;
    let id_b = b.register("id_b", &b_val, clk)?;
    let id_imm = b.register("id_imm", &imm_ext, clk)?;
    let id_alu = b.register("id_alu", &aluop, clk)?;
    let id_ctl = b.register(
        "id_ctl",
        &Word(vec![use_imm, is_load, is_store, wb_en]),
        clk,
    )?;
    let id_rd = b.register("id_rd", &rd, clk)?;

    // ------------------------------------------------------------------ EX
    let operand_b = b.mux(id_ctl.0[0], &id_b, &id_imm)?;
    let sum = b.carry_select_adder(&id_a, &operand_b, 8.max(w / 4))?;
    let diff = b.subtractor(&id_a, &operand_b)?;
    let and_r = b.and(&id_a, &operand_b)?;
    let or_r = b.or(&id_a, &operand_b)?;
    let xor_r = b.xor(&id_a, &operand_b)?;
    let not_a = b.not(&id_a)?;
    let alu_out = b.mux_tree(
        &id_alu,
        &[
            sum,
            diff,
            and_r,
            or_r,
            xor_r,
            not_a,
            id_a.clone(),
            operand_b.clone(),
        ],
    )?;
    let ex_out = b.register("ex_out", &alu_out, clk)?;
    let ex_st = b.register("ex_st", &id_b, clk)?;
    let ex_ctl = b.register("ex_ctl", &id_ctl, clk)?;
    let ex_rd = b.register("ex_rd", &id_rd, clk)?;

    // -------------------------------------------------------------- MEM/WB
    let addr = Word(ex_out.0[0..p.ram_log2].to_vec());
    let mdec = b.decoder(&addr, ex_ctl.0[2])?; // write strobes on is_store
    let mut ram_qs: Vec<Word> = Vec::with_capacity(1 << p.ram_log2);
    for a in 0..1usize << p.ram_log2 {
        let q = b.register_en(&format!("dm{a}"), &ex_st, mdec.0[a], clk)?;
        ram_qs.push(q);
    }
    let mem_out = b.mux_tree(&addr, &ram_qs)?;
    let wb_mux = b.mux(ex_ctl.0[1], &ex_out, &mem_out)?;
    // Drive the write-back feedback wires.
    for i in 0..w {
        b.module().add_cell(
            format!("wbv{i}"),
            "BUFX1",
            &[
                ("A", Conn::Net(wb_mux.0[i])),
                ("Z", Conn::Net(wb_value.0[i])),
            ],
        )?;
    }
    for i in 0..rl {
        b.module().add_cell(
            format!("wbr{i}"),
            "BUFX1",
            &[("A", Conn::Net(ex_rd.0[i])), ("Z", Conn::Net(wb_rd.0[i]))],
        )?;
    }
    b.module().add_cell(
        "wbe",
        "BUFX1",
        &[("A", Conn::Net(ex_ctl.0[3])), ("Z", Conn::Net(wb_we))],
    )?;

    // Observable outputs.
    b.output("result", &ex_out)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::Design;
    use drd_sim::{SimOptions, Simulator};

    #[test]
    fn program_is_deterministic() {
        let p = DlxParams::small();
        assert_eq!(program(&p), program(&p));
        let other = DlxParams {
            seed: 99,
            ..DlxParams::small()
        };
        assert_ne!(program(&p), program(&other));
    }

    #[test]
    fn small_dlx_builds_and_runs() {
        let p = DlxParams::small();
        let m = build(&p).unwrap();
        assert!(m.cell_count() > 400, "{} cells", m.cell_count());
        let mut d = Design::new();
        d.insert(m);
        let mut sim = Simulator::new(&d, &vlib90::high_speed(), SimOptions::default()).unwrap();
        sim.poke("irq", Lv::Zero).unwrap();
        sim.schedule_clock("clk", 4.0, 2.0, 30).unwrap();
        sim.run_for(130.0);
        // The PC advanced (captures on every cycle) and datapath activity
        // reached the result register.
        assert_eq!(sim.captures().capture_count("pc_r0"), 30);
        let result_activity: u64 = (0..8)
            .map(|i| sim.toggle_count(&format!("ex_out[{i}]")).unwrap())
            .sum();
        assert!(result_activity > 0, "ALU produced activity");
    }

    #[test]
    fn full_dlx_has_paper_scale() {
        let m = build(&DlxParams::full()).unwrap();
        let counts = drd_netlist::stats::counts(&m);
        assert!(
            counts.cells > 8_000,
            "full DLX is netlist-scale: {} cells",
            counts.cells
        );
        let lib = vlib90::high_speed();
        let seq = m
            .cells()
            .filter(|(_, c)| lib.is_sequential(c.kind_ref()))
            .count();
        assert!(seq > 1_500, "{seq} flip-flops");
    }

    #[test]
    fn dlx_regions_reflect_pipeline_structure() {
        let p = DlxParams::small();
        let mut m = build(&p).unwrap();
        let lib = vlib90::high_speed();
        let (_, conn) = drd_core::region::clean_for_grouping(&mut m, &lib);
        let opts = drd_core::region::GroupingOptions::recommended();
        let regions = drd_core::region::group(&m, &lib, &opts, &conn).unwrap();
        // The pipeline yields a handful of stage-like regions (the paper's
        // automatic grouping matched its 4 pipeline stages; our finer
        // microarchitecture yields a few more).
        let controlled = regions
            .regions
            .iter()
            .filter(|r| !r.seq_cells.is_empty())
            .count();
        assert!((4..=12).contains(&controlled), "controlled: {controlled}");
        assert!(
            (4..=14).contains(&regions.len()),
            "regions: {:?}",
            regions
                .regions
                .iter()
                .map(|r| (&r.name, r.cells.len(), r.seq_cells.len()))
                .collect::<Vec<_>>()
        );
    }
}
