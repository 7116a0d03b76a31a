//! Random synchronous gate-level netlist generation over the `vlib90`
//! cells — the input side of the differential flow-equivalence fuzzer.
//!
//! A netlist is described by a plain-data [`NetRecipe`] (so failing cases
//! can be shrunk structurally and printed), and built into a well-formed
//! [`Module`]: a bank of input registers followed by `stages` of random
//! combinational clouds and register banks. Cloud inputs may reach any
//! register output — including the registers of the *same* or *later*
//! stages — so the generated designs exercise feedback regions,
//! cross-stage dependencies and arbitrary data-dependency graphs, like
//! the worked example of Fig. 2.6. All indices are taken modulo the size
//! of the legal candidate pool at build time, so **every** recipe value
//! produces a valid netlist (no combinational cycles: a cloud net only
//! ever references register outputs, primary inputs or earlier cloud
//! nets of its own stage).
//!
//! Flip-flop kinds cover the substitution flavours of Fig. 3.1 whose
//! extra pins are synchronous data (plain, sync-reset `DFFRX1`, sync-set
//! `DFFSX1`, scan `SDFFX1`). Asynchronous set/reset flavours are excluded
//! by design: their out-of-band transitions are not flow-equivalence
//! comparable under free-running handshake clocks.

use drd_netlist::{Conn, Module, NetId, NetlistError, PortDir};

use crate::rng::Rng;
use crate::Shrink;

/// Combinational cells the cloud generator draws from: `(kind, two_input)`.
const GATES: [(&str, bool); 8] = [
    ("INVX1", false),
    ("BUFX1", false),
    ("NAND2X1", true),
    ("NOR2X1", true),
    ("AND2X1", true),
    ("OR2X1", true),
    ("XOR2X1", true),
    ("XNOR2X1", true),
];

/// Flip-flop flavour of one register lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfKind {
    /// `DFFX1` — plain D flip-flop.
    Plain,
    /// `DFFRX1` — synchronous reset (`D & RN`).
    SyncReset,
    /// `DFFSX1` — synchronous set (`D | S`).
    SyncSet,
    /// `SDFFX1` — scan mux (`(D & !SE) | (SI & SE)`).
    Scan,
}

/// One register lane: the flavour plus pool indices for the data pin and
/// the flavour's extra synchronous pins.
#[derive(Debug, Clone)]
pub struct FfRecipe {
    /// Flip-flop flavour.
    pub kind: FfKind,
    /// Pool index of the `D` driver.
    pub d: usize,
    /// Pool index of the first extra pin (`RN`/`S`/`SI`).
    pub aux0: usize,
    /// Pool index of the second extra pin (`SE`).
    pub aux1: usize,
}

/// One combinational cloud gate: `kind` indexes the gate table `GATES`, `a`/`b` index
/// the candidate pool (modulo its size).
#[derive(Debug, Clone)]
pub struct GateOp {
    /// Gate selector.
    pub kind: u8,
    /// First operand pool index.
    pub a: usize,
    /// Second operand pool index (ignored by one-input gates).
    pub b: usize,
}

/// One pipeline stage: a cloud of gates and a bank of register lanes.
#[derive(Debug, Clone)]
pub struct StageRecipe {
    /// Combinational cloud, in creation order.
    pub cloud: Vec<GateOp>,
    /// Register lanes.
    pub ffs: Vec<FfRecipe>,
}

/// A complete random synchronous netlist description.
#[derive(Debug, Clone)]
pub struct NetRecipe {
    /// Primary-input bus width (`din[inputs-1:0]`).
    pub inputs: usize,
    /// Constant values driven on `din` during co-simulation (bit `i` of
    /// this word drives `din[i]`).
    pub input_bits: u64,
    /// Pipeline stages.
    pub stages: Vec<StageRecipe>,
}

/// Size knobs for [`NetRecipe::sample`].
#[derive(Debug, Clone)]
pub struct NetGenParams {
    /// Maximum number of stages (inclusive).
    pub max_stages: usize,
    /// Maximum register lanes per stage (inclusive).
    pub max_width: usize,
    /// Maximum cloud gates per stage (inclusive).
    pub max_cloud: usize,
    /// Maximum `din` bus width (inclusive).
    pub max_inputs: usize,
    /// Include scan / sync-set / sync-reset flip-flop flavours.
    pub scan_set_reset: bool,
    /// When positive, rewire every sample into an imbalanced open chain:
    /// stage 0 becomes a loopback source carrying a NAND chain this many
    /// gates deep, feeding a fast successor stage — the pulse-swallowing
    /// topology the liveness guard must repair
    /// (see [`NetRecipe::imbalance`]).
    pub source_imbalance: usize,
    /// When positive, manufacture a *deepening-infeasible* hazard on top
    /// of the imbalanced shape: the source chain is this many gates deep
    /// and the successor stage grows its own chain an eighth as deep
    /// (see [`NetRecipe::deepen_infeasible`]). Covering the source's
    /// rise would need a successor delay element deeper than any clock
    /// budget the successor's own floor fits, so the repair ladder must
    /// skip the deepen rung and fall through to latch / degrade.
    /// Overrides `source_imbalance` when both are set.
    pub deepen_infeasible: usize,
}

impl Default for NetGenParams {
    fn default() -> NetGenParams {
        NetGenParams {
            max_stages: 3,
            max_width: 3,
            max_cloud: 6,
            max_inputs: 4,
            scan_set_reset: true,
            source_imbalance: 0,
            deepen_infeasible: 0,
        }
    }
}

impl NetRecipe {
    /// A deterministic stepped pipeline: `stages` stages of `cloud` gates
    /// and `width` plain flip-flops each, over a 4-bit input bus. Plain
    /// lanes keep every region substitutable. This is the size ladder of
    /// the `scale` bench.
    pub fn stepped(rng: &mut Rng, stages: usize, cloud: usize, width: usize) -> NetRecipe {
        let stages = (0..stages)
            .map(|_| StageRecipe {
                cloud: (0..cloud)
                    .map(|_| GateOp {
                        kind: rng.next_u64() as u8,
                        a: rng.range(0, 4096),
                        b: rng.range(0, 4096),
                    })
                    .collect(),
                ffs: (0..width)
                    .map(|_| FfRecipe {
                        kind: FfKind::Plain,
                        d: rng.range(0, 4096),
                        aux0: rng.range(0, 4096),
                        aux1: rng.range(0, 4096),
                    })
                    .collect(),
            })
            .collect();
        NetRecipe {
            inputs: 4,
            input_bits: rng.next_u64(),
            stages,
        }
    }

    /// Draws a random recipe within `params`.
    pub fn sample(rng: &mut Rng, params: &NetGenParams) -> NetRecipe {
        let n_stages = rng.range(1, params.max_stages + 1);
        let width = rng.range(1, params.max_width + 1);
        let inputs = rng.range(1, params.max_inputs + 1);
        let input_bits = rng.next_u64();
        let stages = (0..n_stages)
            .map(|_| {
                let cloud = (0..rng.range(0, params.max_cloud + 1))
                    .map(|_| GateOp {
                        kind: rng.next_u64() as u8,
                        a: rng.range(0, 4096),
                        b: rng.range(0, 4096),
                    })
                    .collect();
                let ffs = (0..width)
                    .map(|_| FfRecipe {
                        kind: if params.scan_set_reset {
                            *rng.choose(&[
                                FfKind::Plain,
                                FfKind::Plain,
                                FfKind::Plain,
                                FfKind::SyncReset,
                                FfKind::SyncSet,
                                FfKind::Scan,
                            ])
                        } else {
                            FfKind::Plain
                        },
                        d: rng.range(0, 4096),
                        aux0: rng.range(0, 4096),
                        aux1: rng.range(0, 4096),
                    })
                    .collect();
                StageRecipe { cloud, ffs }
            })
            .collect();
        let mut recipe = NetRecipe {
            inputs,
            input_bits,
            stages,
        };
        if params.deepen_infeasible > 0 {
            recipe.deepen_infeasible(params.deepen_infeasible);
        } else if params.source_imbalance > 0 {
            recipe.imbalance(params.source_imbalance);
        }
        recipe
    }

    /// Rewires this recipe into an imbalanced open chain: stage 0 grows
    /// a `levels`-deep NAND chain (every gate also fed by `din`, the
    /// stall-test shape) whose end drives *all* of its register lanes —
    /// forced to plain flip-flops so no aux pin pulls in a predecessor —
    /// and stage 1 (created on demand) reads `q0_0` through an inverter,
    /// keeping the stages in separate regions. The result is a loopback
    /// source whose matched delay dwarfs its successor's response time:
    /// the topology the liveness guard exists to repair.
    pub fn imbalance(&mut self, levels: usize) {
        if self.stages.len() < 2 {
            self.stages.push(StageRecipe {
                cloud: Vec::new(),
                ffs: vec![FfRecipe {
                    kind: FfKind::Plain,
                    d: 0,
                    aux0: 0,
                    aux1: 0,
                }],
            });
        }
        let total_ffs: usize = self.stages.iter().map(|s| s.ffs.len()).sum();
        let base = self.inputs.max(1) + total_ffs; // first cloud-net index
        let chain: Vec<GateOp> = (0..levels)
            .map(|c| GateOp {
                kind: 2, // NAND2X1 — survives buffer cleaning
                a: if c == 0 { 0 } else { base + c - 1 },
                b: 0,
            })
            .collect();
        let stage0 = &mut self.stages[0];
        stage0.cloud.splice(0..0, chain);
        for ff in &mut stage0.ffs {
            ff.kind = FfKind::Plain;
            ff.d = base + levels - 1;
        }
        let q0_0 = self.inputs.max(1);
        let stage1 = &mut self.stages[1];
        stage1.cloud.insert(
            0,
            GateOp {
                kind: 0,
                a: q0_0,
                b: 0,
            },
        );
        if let Some(ff) = stage1.ffs.first_mut() {
            ff.kind = FfKind::Plain;
            ff.d = base;
        }
    }

    /// Rewires this recipe into a *deepening-infeasible* imbalanced
    /// chain: the [`Self::imbalance`] shape with a `levels`-deep source
    /// chain, plus a NAND chain an eighth as deep grown inside the
    /// successor stage (between the region-splitting inverter and its
    /// register). The successor's response stays deficient against the
    /// source's rise, but the deepen target the hazard demands — a
    /// delay element covering `margin ×` that rise — overshoots any
    /// clock budget the successor's own floor fits, so the repair
    /// ladder's deepen rung is rejected and the latch (and, if the
    /// network still wedges, degrade) rungs take over.
    pub fn deepen_infeasible(&mut self, levels: usize) {
        self.imbalance(levels);
        let total_ffs: usize = self.stages.iter().map(|s| s.ffs.len()).sum();
        let base = self.inputs.max(1) + total_ffs; // first local cloud-net index
                                                   // After `imbalance`, stage 1's cloud slot 0 is the inverter on
                                                   // `q0_0` (local net `base`); the chain continues from it, every
                                                   // gate also fed by `din` like the source chain.
        let succ_levels = (levels / 8).max(2);
        let chain: Vec<GateOp> = (0..succ_levels)
            .map(|c| GateOp {
                kind: 2,
                a: base + c,
                b: 0,
            })
            .collect();
        let stage1 = &mut self.stages[1];
        stage1.cloud.splice(1..1, chain);
        if let Some(ff) = stage1.ffs.first_mut() {
            ff.d = base + succ_levels;
        }
    }

    /// Names of every flip-flop instance, in creation order.
    pub fn ff_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (s, stage) in self.stages.iter().enumerate() {
            for l in 0..stage.ffs.len() {
                names.push(format!("r{s}_{l}"));
            }
        }
        names
    }

    /// Name of primary input bit `i`.
    pub fn input_name(&self, i: usize) -> String {
        if self.inputs == 1 {
            "din".to_owned()
        } else {
            format!("din[{i}]")
        }
    }

    /// Builds the synchronous [`Module`] described by this recipe.
    ///
    /// # Errors
    /// Propagates netlist construction errors (cannot happen: names are
    /// generated collision-free).
    pub fn build(&self) -> Result<Module, NetlistError> {
        let mut m = Module::new("fuzz");
        m.add_port("clk", PortDir::Input)?;
        let clk = m.find_net("clk").expect("clk net exists");
        let mut pool: Vec<NetId> = Vec::new();
        for i in 0..self.inputs.max(1) {
            let p = m.add_port(self.input_name(i), PortDir::Input)?;
            pool.push(m.port(p).net);
        }
        // All register outputs exist up front so clouds can reference any
        // stage (feedback edges are sequential, never combinational).
        let mut q_nets: Vec<Vec<NetId>> = Vec::new();
        for (s, stage) in self.stages.iter().enumerate() {
            let qs = (0..stage.ffs.len())
                .map(|l| m.add_net(format!("q{s}_{l}")))
                .collect::<Result<Vec<_>, _>>()?;
            pool.extend(&qs);
            q_nets.push(qs);
        }
        for (s, stage) in self.stages.iter().enumerate() {
            let mut local = pool.clone();
            for (c, op) in stage.cloud.iter().enumerate() {
                let (gate, two_input) = GATES[usize::from(op.kind) % GATES.len()];
                let z = m.add_net(format!("c{s}_{c}"))?;
                let a = local[op.a % local.len()];
                if two_input {
                    let b = local[op.b % local.len()];
                    m.add_cell(
                        format!("g{s}_{c}"),
                        gate,
                        &[
                            ("A", Conn::Net(a)),
                            ("B", Conn::Net(b)),
                            ("Z", Conn::Net(z)),
                        ],
                    )?;
                } else {
                    m.add_cell(
                        format!("g{s}_{c}"),
                        gate,
                        &[("A", Conn::Net(a)), ("Z", Conn::Net(z))],
                    )?;
                }
                local.push(z);
            }
            for (l, ff) in stage.ffs.iter().enumerate() {
                let q = q_nets[s][l];
                let d = local[ff.d % local.len()];
                let name = format!("r{s}_{l}");
                match ff.kind {
                    FfKind::Plain => {
                        m.add_cell(
                            name,
                            "DFFX1",
                            &[
                                ("D", Conn::Net(d)),
                                ("CK", Conn::Net(clk)),
                                ("Q", Conn::Net(q)),
                            ],
                        )?;
                    }
                    FfKind::SyncReset => {
                        let rn = local[ff.aux0 % local.len()];
                        m.add_cell(
                            name,
                            "DFFRX1",
                            &[
                                ("D", Conn::Net(d)),
                                ("RN", Conn::Net(rn)),
                                ("CK", Conn::Net(clk)),
                                ("Q", Conn::Net(q)),
                            ],
                        )?;
                    }
                    FfKind::SyncSet => {
                        let set = local[ff.aux0 % local.len()];
                        m.add_cell(
                            name,
                            "DFFSX1",
                            &[
                                ("D", Conn::Net(d)),
                                ("S", Conn::Net(set)),
                                ("CK", Conn::Net(clk)),
                                ("Q", Conn::Net(q)),
                            ],
                        )?;
                    }
                    FfKind::Scan => {
                        let si = local[ff.aux0 % local.len()];
                        let se = local[ff.aux1 % local.len()];
                        m.add_cell(
                            name,
                            "SDFFX1",
                            &[
                                ("D", Conn::Net(d)),
                                ("SI", Conn::Net(si)),
                                ("SE", Conn::Net(se)),
                                ("CK", Conn::Net(clk)),
                                ("Q", Conn::Net(q)),
                            ],
                        )?;
                    }
                }
            }
        }
        Ok(m)
    }

    /// The recipe's netlist as structural Verilog (for failure reports).
    pub fn verilog(&self) -> String {
        match self.build() {
            Ok(module) => {
                let mut d = drd_netlist::Design::new();
                d.insert(module);
                drd_netlist::verilog::write_design(&d)
            }
            Err(e) => format!("<recipe does not build: {e}>"),
        }
    }
}

impl Shrink for NetRecipe {
    fn shrink(&self) -> Vec<NetRecipe> {
        let mut out = Vec::new();
        // Fewer stages.
        if self.stages.len() > 1 {
            let mut r = self.clone();
            r.stages.truncate(self.stages.len() / 2);
            out.push(r);
            let mut r = self.clone();
            r.stages.pop();
            out.push(r);
        }
        // Narrower register banks.
        if self.stages.iter().any(|s| s.ffs.len() > 1) {
            let mut r = self.clone();
            for s in &mut r.stages {
                s.ffs.truncate(1.max(s.ffs.len() / 2));
            }
            out.push(r);
        }
        // Thinner clouds.
        if self.stages.iter().any(|s| !s.cloud.is_empty()) {
            let mut r = self.clone();
            for s in &mut r.stages {
                s.cloud.clear();
            }
            out.push(r);
            let mut r = self.clone();
            for s in &mut r.stages {
                s.cloud.truncate(s.cloud.len() / 2);
            }
            out.push(r);
        }
        // Plain flip-flops only.
        if self
            .stages
            .iter()
            .any(|s| s.ffs.iter().any(|f| f.kind != FfKind::Plain))
        {
            let mut r = self.clone();
            for s in &mut r.stages {
                for f in &mut s.ffs {
                    f.kind = FfKind::Plain;
                }
            }
            out.push(r);
        }
        // Simpler constants and a narrower input bus.
        if self.input_bits != 0 {
            let mut r = self.clone();
            r.input_bits = 0;
            out.push(r);
        }
        if self.inputs > 1 {
            let mut r = self.clone();
            r.inputs = 1;
            out.push(r);
        }
        // Zero out the wiring indices (pulls every pin to the first pool
        // entries, collapsing the connectivity).
        if self.stages.iter().any(|s| {
            s.cloud.iter().any(|g| g.a != 0 || g.b != 0 || g.kind != 0)
                || s.ffs.iter().any(|f| f.d != 0 || f.aux0 != 0 || f.aux1 != 0)
        }) {
            let mut r = self.clone();
            for s in &mut r.stages {
                for g in &mut s.cloud {
                    *g = GateOp {
                        kind: 0,
                        a: 0,
                        b: 0,
                    };
                }
                for f in &mut s.ffs {
                    f.d = 0;
                    f.aux0 = 0;
                    f.aux1 = 0;
                }
            }
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sampled_recipe_builds_and_reparses() {
        let mut rng = Rng::new(0xFEED);
        let params = NetGenParams::default();
        for _ in 0..50 {
            let recipe = NetRecipe::sample(&mut rng, &params);
            let module = recipe.build().expect("recipe builds");
            assert!(module.cell_count() >= recipe.ff_names().len());
            let text = recipe.verilog();
            drd_netlist::verilog::parse_design(&text).expect("verilog reparses");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let params = NetGenParams::default();
        let a = NetRecipe::sample(&mut Rng::new(99), &params);
        let b = NetRecipe::sample(&mut Rng::new(99), &params);
        assert_eq!(a.verilog(), b.verilog());
    }

    #[test]
    fn shrink_candidates_always_build() {
        let mut rng = Rng::new(0xABCD);
        let params = NetGenParams::default();
        for _ in 0..20 {
            let recipe = NetRecipe::sample(&mut rng, &params);
            for cand in recipe.shrink() {
                cand.build().expect("shrunk recipe still builds");
                assert!(!cand.stages.is_empty());
            }
        }
    }

    #[test]
    fn scan_set_reset_mix_is_exercised() {
        let mut rng = Rng::new(0x5EED);
        let params = NetGenParams {
            max_stages: 2,
            max_width: 4,
            ..NetGenParams::default()
        };
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..100 {
            let r = NetRecipe::sample(&mut rng, &params);
            for s in &r.stages {
                for f in &s.ffs {
                    kinds.insert(f.kind);
                }
            }
        }
        assert!(kinds.contains(&FfKind::Plain));
        assert!(kinds.contains(&FfKind::SyncReset));
        assert!(kinds.contains(&FfKind::SyncSet));
        assert!(kinds.contains(&FfKind::Scan));
    }
}
