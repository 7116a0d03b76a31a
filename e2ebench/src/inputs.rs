//! Workload inputs, generated from the run seed. The program under test
//! only ever sees the Verilog written here. Seed 0 is the canonical
//! case-study parameterisation; any other seed redraws every random
//! choice (ROM programs, netgen recipes, the serve mix).

use drd_check::netgen::{FfKind, FfRecipe, GateOp, NetGenParams, NetRecipe, StageRecipe};
use drd_check::Rng;
use drd_core::DesyncOptions;
use drd_designs::{armlike::ArmParams, dlx::DlxParams};
use drd_liberty::{vlib90, Library};

/// One input netlist plus how the flow must be invoked on it.
#[derive(Clone)]
pub struct Design {
    pub name: String,
    pub verilog: String,
    pub cells: usize,
    /// The ARM case study (§5.3): low-leakage library, one
    /// desynchronization group, scan enable declared a false path.
    pub arm: bool,
    /// Generator recipe of a netgen design, for the co-simulation oracle.
    pub recipe: Option<NetRecipe>,
}

impl Design {
    fn from_module(name: impl Into<String>, module: drd_netlist::Module, arm: bool) -> Design {
        Design {
            name: name.into(),
            cells: module.cell_count(),
            verilog: drd_netlist::verilog::write_module(&module),
            arm,
            recipe: None,
        }
    }

    fn from_recipe(name: impl Into<String>, recipe: NetRecipe) -> Design {
        let module = recipe.build().expect("netgen recipes always build");
        Design {
            recipe: Some(recipe),
            ..Design::from_module(name, module, false)
        }
    }

    /// `drdesync desync` flags beyond input, outputs and `--jobs`.
    pub fn cli_flags(&self) -> &'static [&'static str] {
        if self.arm {
            &["--lib", "ll", "--single-group", "--false-path", "scan_en"]
        } else {
            &[]
        }
    }

    pub fn library(&self) -> Library {
        if self.arm {
            vlib90::low_leakage()
        } else {
            vlib90::high_speed()
        }
    }

    /// The in-process options equal to [`Design::cli_flags`] plus
    /// `--jobs 1`.
    pub fn options(&self) -> DesyncOptions {
        let mut opts = DesyncOptions {
            jobs: Some(1),
            ..DesyncOptions::default()
        };
        if self.arm {
            opts.grouping.single_group = true;
            opts.grouping.false_path_nets.push("scan_en".into());
        }
        opts
    }
}

/// Independent stream `salt` of run seed `seed`; seed 0 gives stream
/// `salt` itself, the canonical draw.
pub fn rng(seed: u64, salt: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// DLX-small, DLX32, ARM-small and ARM32 — the paper's own designs, ARM
/// with scan inserted. Seeds other than 0 redraw the ROM programs.
pub fn paper_cores(seed: u64) -> Vec<Design> {
    let mut rng = rng(seed, 0xC0_4E5);
    let mut draw = |canonical: u64| if seed == 0 { canonical } else { rng.next_u64() };
    let dlx = |p: DlxParams| {
        drd_flow::CaseStudy::dlx(&p)
            .expect("DLX generator builds")
            .module
    };
    let arm = |p: ArmParams| {
        drd_flow::CaseStudy::armlike(&p)
            .expect("ARM generator builds")
            .module
    };
    let dlx_small = DlxParams {
        seed: draw(DlxParams::small().seed),
        ..DlxParams::small()
    };
    let dlx_full = DlxParams {
        seed: draw(DlxParams::full().seed),
        ..DlxParams::full()
    };
    let arm_small = ArmParams {
        seed: draw(ArmParams::small().seed),
        ..ArmParams::small()
    };
    let arm_full = ArmParams {
        seed: draw(ArmParams::full().seed),
        ..ArmParams::full()
    };
    vec![
        Design::from_module("dlx_small", dlx(dlx_small), false),
        Design::from_module("dlx32", dlx(dlx_full), false),
        Design::from_module("armlike_small", arm(arm_small), true),
        Design::from_module("arm32", arm(arm_full), true),
    ]
}

/// `(stages, cloud gates per stage, register lanes per stage)`: the four
/// `scale` bench steps plus one 7 392-cell step.
const LADDER: [(usize, usize, usize); 5] = [
    (4, 60, 4),
    (4, 120, 6),
    (6, 200, 8),
    (8, 320, 8),
    (12, 600, 16),
];

/// Stepped netgen pipeline with random gates and wiring and plain
/// flip-flops (the `scale` bench recipe), so every region substitutes.
fn stepped(rng: &mut Rng, stages: usize, cloud: usize, width: usize) -> NetRecipe {
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

/// Two draws per [`LADDER`] step: a step's cost depends on how its random
/// wiring groups into regions, and two draws halve how much one seed's
/// luck moves the workload.
pub fn netgen_ladder(seed: u64) -> Vec<Design> {
    let mut rng = rng(seed, 0x5CA1_E0DD);
    LADDER
        .iter()
        .flat_map(|&step| [(step, 'a'), (step, 'b')])
        .map(|((s, c, w), draw)| {
            Design::from_recipe(format!("{s}x{c}+{w}.{draw}"), stepped(&mut rng, s, c, w))
        })
        .collect()
}

/// Weights of the never-seen serve designs' classes, in
/// [`serve_candidate`]'s numbering: default netgen fuzz, imbalanced open
/// chains, `4x60+4` stepped pipelines.
pub const MISS_MIX: [u64; 3] = [45, 45, 10];

/// A never-seen serve design of class `class` (see [`MISS_MIX`]):
/// default netgen fuzz, an imbalanced open chain (the liveness bench
/// recipe, so the repair ladder runs) or a `4x60+4` stepped pipeline.
/// Not vetted: the caller keeps only designs whose flow succeeds.
pub fn serve_candidate(rng: &mut Rng, class: usize, name: String) -> Design {
    let recipe = match class {
        0 => NetRecipe::sample(rng, &NetGenParams::default()),
        1 => {
            let params = NetGenParams {
                max_stages: 3,
                max_width: 2,
                ..NetGenParams::default()
            };
            let mut r = NetRecipe::sample(rng, &params);
            r.imbalance(rng.range(6, 30));
            r
        }
        _ => stepped(rng, 4, 60, 4),
    };
    Design::from_recipe(name, recipe)
}

/// `n` class indices in proportion to `weights`, exact up to rounding,
/// in random order. A batch drawn this way varies with the designs
/// drawn, not with how many of each class it happened to get. The
/// `4x60+4` serve misses are a tenth of the misses but about half their
/// work (~15 ms each against ~2 ms for the median miss), so drawing each
/// request's class independently would make a run's total work vary
/// with the seed.
pub fn stratified(rng: &mut Rng, n: usize, weights: &[u64]) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut classes: Vec<usize> = (0..n as u64)
        .map(|i| {
            let mut at = i * total / n as u64;
            weights
                .iter()
                .position(|&w| {
                    let inside = at < w;
                    at = at.saturating_sub(w);
                    inside
                })
                .unwrap_or(0)
        })
        .collect();
    for i in (1..n).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    classes
}

/// A default-netgen design for the serve hot set (also vetted by the
/// caller).
pub fn hot_candidate(rng: &mut Rng, name: String) -> Design {
    Design::from_recipe(name, NetRecipe::sample(rng, &NetGenParams::default()))
}

/// The fixed one-flip-flop toggle netlist every set-up measurement
/// desynchronizes: small enough that start-up dominates, and a closed
/// ring so the simulator has a live region to measure.
pub const TINY: &str = "module tiny (clk, q);\n\
                        input clk;\n\
                        output q;\n\
                        wire d;\n\
                        INVX1 u1 (.A(q), .Z(d));\n\
                        DFFX1 r0 (.D(d), .CK(clk), .Q(q));\n\
                        endmodule\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_classes_are_exact_up_to_rounding_and_shuffled() {
        let mut rng = rng(7, 1);
        let classes = stratified(&mut rng, 125, &MISS_MIX);
        let count = |c: usize| classes.iter().filter(|&&x| x == c).count();
        assert_eq!((count(0), count(1), count(2)), (57, 56, 12));
        let mut sorted = classes.clone();
        sorted.sort_unstable();
        assert_ne!(classes, sorted);
        let hits = stratified(&mut rng, 4, &[75, 25]);
        assert_eq!(hits.iter().filter(|&&x| x == 0).count(), 3);
        assert!(stratified(&mut rng, 0, &MISS_MIX).is_empty());
    }
}
