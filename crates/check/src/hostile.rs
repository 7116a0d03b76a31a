//! Hostile-input crash campaign for the robustness boundary.
//!
//! The Verilog reader and the guarded flow core promise *structured
//! errors, never panics* on arbitrary input. This module generates seeded
//! adversarial inputs — raw bytes, Verilog token soup, truncated and
//! spliced valid netlists — and drives each through `parse_design` (and,
//! when parsing unexpectedly succeeds, through a budget-starved guarded
//! flow) under `catch_unwind`, counting every escape. A campaign with
//! `panics > 0` is a verification failure: the tier-1 test in
//! `tests/hostile.rs` and the `hostile` bench bin both gate on it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use drd_core::{DesyncOptions, Desynchronizer};
use drd_liberty::vlib90;
use drd_netlist::verilog::parse_design;

use crate::netgen::{NetGenParams, NetRecipe};
use crate::rng::Rng;
use crate::runner;

/// The four adversarial input families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileKind {
    /// Arbitrary bytes (lossily decoded to UTF-8 at the API boundary).
    RawBytes,
    /// Random sequences of plausible Verilog tokens, including the
    /// historical panic triggers: huge ranges, huge constant widths,
    /// deep `{` nesting, escaped identifiers followed by exotic
    /// whitespace.
    TokenSoup,
    /// A valid generated netlist truncated at a random point.
    Truncated,
    /// Two valid generated netlists spliced together with a corrupted
    /// seam.
    Spliced,
}

impl HostileKind {
    /// All families, campaign order.
    pub const ALL: [HostileKind; 4] = [
        HostileKind::RawBytes,
        HostileKind::TokenSoup,
        HostileKind::Truncated,
        HostileKind::Spliced,
    ];

    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            HostileKind::RawBytes => "raw-bytes",
            HostileKind::TokenSoup => "token-soup",
            HostileKind::Truncated => "truncated",
            HostileKind::Spliced => "spliced",
        }
    }
}

/// Tokens the soup generator draws from. Biased toward constructs that
/// exercise the parser's resource guards.
const SOUP: &[&str] = &[
    "module", "endmodule", "input", "output", "inout", "wire", "tri", "assign", "top",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "=", "#", "(*", "*)", "/*", "*/", "//",
    "INVX1", "DFFX1", "u1", "\\a+b[3]", "0", "1", "7", "65535", "65537", "999999999999",
    "1'b0", "8'hFF", "4'd10", "4294967295'b1", "99999999999'hx", "'", "\u{00A0}", "é",
];

/// Deterministically generates one hostile input for `(kind, seed)`.
pub fn generate(kind: HostileKind, seed: u64) -> String {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ kind as u64);
    match kind {
        HostileKind::RawBytes => {
            let len = rng.range(1, 512);
            String::from_utf8_lossy(&rng.bytes(len)).into_owned()
        }
        HostileKind::TokenSoup => {
            let n = rng.range(1, 200);
            let mut out = String::new();
            for _ in 0..n {
                out.push_str(rng.choose::<&str>(SOUP));
                out.push(match rng.below(4) {
                    0 => '\n',
                    1 => '\t',
                    _ => ' ',
                });
            }
            // Occasionally stack a deep (but sub-limit is the parser's
            // problem, not ours) concatenation prefix.
            if rng.chance(0.2) {
                let depth = rng.range(1, 300);
                out.insert_str(0, &"{".repeat(depth));
            }
            out
        }
        HostileKind::Truncated => {
            let src = valid_sample(&mut rng);
            let mut cut = rng.range(0, src.len().max(1));
            while cut > 0 && !src.is_char_boundary(cut) {
                cut -= 1;
            }
            src[..cut].to_owned()
        }
        HostileKind::Spliced => {
            let a = valid_sample(&mut rng);
            let b = valid_sample(&mut rng);
            let mut cut_a = rng.range(0, a.len().max(1));
            while cut_a > 0 && !a.is_char_boundary(cut_a) {
                cut_a -= 1;
            }
            let mut cut_b = rng.range(0, b.len().max(1));
            while cut_b > 0 && !b.is_char_boundary(cut_b) {
                cut_b -= 1;
            }
            let mut out = a[..cut_a].to_owned();
            let seam = rng.range(0, 8);
            for _ in 0..seam {
                out.push_str(rng.choose::<&str>(SOUP));
                out.push(' ');
            }
            out.push_str(&b[cut_b..]);
            out
        }
    }
}

fn valid_sample(rng: &mut Rng) -> String {
    NetRecipe::sample(rng, &NetGenParams::default()).verilog()
}

/// What one input did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Structured parse error — the expected outcome for hostile input.
    Rejected,
    /// Parsed; the budget-starved guarded flow returned a structured
    /// error.
    FlowError,
    /// Parsed and the guarded flow completed (possibly degraded).
    Completed,
    /// A panic escaped — the campaign's failure condition.
    Panicked,
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Inputs probed.
    pub total: usize,
    /// Structured parse rejections.
    pub rejected: usize,
    /// Inputs that parsed and then produced a structured flow error.
    pub flow_errors: usize,
    /// Inputs that parsed and completed the starved flow.
    pub completed: usize,
    /// Panics that escaped parser or flow. Must be zero.
    pub panics: usize,
    /// `(kind, seed)` of the first escaped panic, for reproduction.
    pub first_panic: Option<(&'static str, u64)>,
}

/// Probes one `(kind, seed)` input: parse under `catch_unwind`, and when
/// the input parses, run the guarded flow with starved budgets (so even a
/// structurally valid bomb hits a [`drd_core::DesyncError::Budget`] or
/// deadline instead of burning the campaign's wall clock).
fn probe(kind: HostileKind, seed: u64) -> Probe {
    let src = generate(kind, seed);
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_design(&src)));
    let design = match parsed {
        Err(_) => return Probe::Panicked,
        Ok(Err(_)) => return Probe::Rejected,
        Ok(Ok(design)) => design,
    };
    // Empty input parses to a design with no modules — nothing to flow
    // (and `top_module()` would panic).
    let Some(module) = design.modules().next().map(|(_, m)| m.clone()) else {
        return Probe::Rejected;
    };
    let lib = vlib90::high_speed();
    let opts = DesyncOptions {
        max_cells: Some(512),
        max_nets: Some(2048),
        stg_state_limit: Some(4096),
        pass_deadline_ms: Some(2_000),
        ..DesyncOptions::default()
    };
    let flow = catch_unwind(AssertUnwindSafe(|| {
        let tool = Desynchronizer::new(&lib)?;
        tool.run(module, &opts).0.map(|_| ())
    }));
    match flow {
        Err(_) => Probe::Panicked,
        Ok(Err(_)) => Probe::FlowError,
        Ok(Ok(())) => Probe::Completed,
    }
}

/// Runs `count` inputs (cycled over [`HostileKind::ALL`]) from
/// `base_seed` on `workers` threads and aggregates the outcome.
pub fn run_hostile_campaign(count: usize, base_seed: u64, workers: usize) -> CampaignReport {
    let probes = runner::run_indexed(count, workers, |i| {
        let kind = HostileKind::ALL[i % HostileKind::ALL.len()];
        let seed = base_seed.wrapping_add(i as u64);
        (kind, seed, probe(kind, seed))
    });
    let mut report = CampaignReport {
        total: probes.len(),
        ..CampaignReport::default()
    };
    for (kind, seed, p) in probes {
        match p {
            Probe::Rejected => report.rejected += 1,
            Probe::FlowError => report.flow_errors += 1,
            Probe::Completed => report.completed += 1,
            Probe::Panicked => {
                report.panics += 1;
                if report.first_panic.is_none() {
                    report.first_panic = Some((kind.name(), seed));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for kind in HostileKind::ALL {
            assert_eq!(generate(kind, 7), generate(kind, 7));
        }
        assert_ne!(
            generate(HostileKind::TokenSoup, 1),
            generate(HostileKind::TokenSoup, 2)
        );
    }

    #[test]
    fn every_family_produces_nonempty_inputs() {
        for kind in HostileKind::ALL {
            assert!((0..20).any(|s| !generate(kind, s).is_empty()), "{kind:?}");
        }
    }

    #[test]
    fn small_campaign_is_panic_free() {
        let report = run_hostile_campaign(64, 0xD5, 2);
        assert_eq!(report.total, 64);
        assert_eq!(report.panics, 0, "first: {:?}", report.first_panic);
        assert!(report.rejected > 0, "hostile inputs should mostly be rejected");
    }
}
