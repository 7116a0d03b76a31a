//! The *gatefile* — per-library preparation for desynchronization (§3.1.1).
//!
//! "The first and most important part of the preparation is the creation of
//! the file called gatefile which contains information about the library
//! cells … In addition, the gatefile contains replacement rules used during
//! the flip-flop substitution phase."
//!
//! [`Gatefile::from_library`] extracts, for every cell: name, class and
//! pins; and for every flip-flop a [`FfRule`] describing how to substitute
//! it by a master/slave latch pair, including the extra logic needed for
//! scan, synchronous/asynchronous set/reset and clock-gated flip-flops
//! (recognized structurally from the Liberty `next_state`/`clear`/`preset`
//! expressions — Fig. 3.1 of the paper).

use std::fmt::Write as _;
use std::sync::OnceLock;

use drd_netlist::PortDir;

use crate::cell::{CellClass, LibCell, SeqKind};
use crate::function::Expr;
use crate::library::{Library, LibraryError};

/// An active-high or active-low control pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPin {
    /// Pin name.
    pub pin: String,
    /// True if the control is asserted when the pin is low.
    pub active_low: bool,
}

/// Scan-path pins of a scan flip-flop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPins {
    /// Scan data input.
    pub scan_in: String,
    /// Scan enable (mux select).
    pub scan_enable: String,
}

/// Structural features recognized in a flip-flop's next-state function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FfFeatures {
    /// The functional data pin.
    pub data: Option<String>,
    /// Scan mux (Fig. 3.1a).
    pub scan: Option<ScanPins>,
    /// Synchronous reset (Fig. 3.1b).
    pub sync_reset: Option<ControlPin>,
    /// Synchronous set.
    pub sync_set: Option<ControlPin>,
    /// Clock-enable / clock gating (Fig. 3.1d).
    pub clock_enable: Option<String>,
    /// Asynchronous clear (Fig. 3.1c, reset flavour).
    pub async_clear: Option<ControlPin>,
    /// Asynchronous preset (Fig. 3.1c, set flavour).
    pub async_preset: Option<ControlPin>,
}

impl FfFeatures {
    /// True when the flip-flop is a plain D-FF needing no extra gates.
    pub fn is_plain(&self) -> bool {
        self.scan.is_none()
            && self.sync_reset.is_none()
            && self.sync_set.is_none()
            && self.clock_enable.is_none()
            && self.async_clear.is_none()
            && self.async_preset.is_none()
    }
}

/// A flip-flop → master/slave latch replacement rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FfRule {
    /// The flip-flop cell being replaced.
    pub ff: String,
    /// Recognized features.
    pub features: FfFeatures,
    /// Clock pin of the flip-flop.
    pub clock_pin: String,
    /// Q output pin.
    pub q_pin: String,
    /// QN output pin, if any.
    pub qn_pin: Option<String>,
    /// Library latch used for both master and slave.
    pub latch_cell: String,
    /// Latch data pin name.
    pub latch_d: String,
    /// Latch enable pin name.
    pub latch_g: String,
    /// Latch output pin name.
    pub latch_q: String,
    /// True if extra gates (mux / and / or) must be synthesized around the
    /// latch pair (the "extra latches" of §3.1.2).
    pub composite: bool,
}

/// A per-cell record (name, class, pins) as stored in the paper's gatefile.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRecord {
    /// Cell name.
    pub name: String,
    /// Cell classification.
    pub class: CellClass,
    /// Pins as `(name, direction)`.
    pub pins: Vec<(String, PortDir)>,
}

/// Delays the flow measures on the library by STA over probe netlists
/// (§3.1.4: "we implement delay elements of variable logic depth … and
/// perform STA to measure their delay values"). The probes are in
/// `drd-core` (`drd_core::LibraryFacts`), which measures each value on
/// first use and keeps it here, so every run against one prepared
/// gatefile reads the same number instead of measuring it again. Not
/// part of the gatefile's text.
#[derive(Debug, Clone, Default)]
pub struct MeasuredDelays {
    /// Typical-corner delay of one AND level of a delay element (ns).
    pub level_delay_ns: OnceLock<f64>,
    /// Typical-corner arrival at each stage output of a delay-element
    /// probe chain (ns): the liveness guard's per-edge response table.
    pub chain_arrival_ns: OnceLock<Vec<f64>>,
    /// AND levels the 8:1 mux tree of a multiplexed delay element is
    /// worth (measured only for multiplexed runs).
    pub mux_overhead_levels: OnceLock<usize>,
}

/// The gatefile: library metadata prepared once per library migration.
#[derive(Debug, Clone)]
pub struct Gatefile {
    /// Source library name.
    pub library: String,
    /// Per-cell records.
    pub records: Vec<GateRecord>,
    /// Flip-flop replacement rules.
    pub rules: Vec<FfRule>,
    /// The library's probe-measured delays, filled on first use.
    pub measured: MeasuredDelays,
}

impl Gatefile {
    /// Builds the gatefile for `library`.
    ///
    /// # Errors
    /// Returns [`LibraryError`] if the library contains no simple latch to
    /// substitute flip-flops with, or if a flip-flop's next-state function
    /// cannot be decomposed into the supported feature set.
    pub fn from_library(library: &Library) -> Result<Gatefile, LibraryError> {
        let latch = simplest_latch(library).ok_or_else(|| {
            LibraryError::new(format!(
                "library `{}` has no simple latch for flip-flop substitution",
                library.name()
            ))
        })?;
        let (latch_cell, latch_d, latch_g, latch_q) = latch;

        let mut records = Vec::new();
        let mut rules = Vec::new();
        for cell in library.cells() {
            records.push(GateRecord {
                name: cell.name.clone(),
                class: cell.class(),
                pins: cell.pins.iter().map(|p| (p.name.clone(), p.dir)).collect(),
            });
            if let SeqKind::FlipFlop(ff) = &cell.seq {
                let features = recognize_features(cell, ff)?;
                rules.push(FfRule {
                    ff: cell.name.clone(),
                    composite: !features.is_plain(),
                    features,
                    clock_pin: ff.clocked_on.clone(),
                    q_pin: ff.q.clone(),
                    qn_pin: ff.qn.clone(),
                    latch_cell: latch_cell.clone(),
                    latch_d: latch_d.clone(),
                    latch_g: latch_g.clone(),
                    latch_q: latch_q.clone(),
                });
            }
        }
        Ok(Gatefile {
            library: library.name().to_owned(),
            records,
            rules,
            measured: MeasuredDelays::default(),
        })
    }

    /// Looks up the replacement rule for a flip-flop cell.
    pub fn rule(&self, ff: &str) -> Option<&FfRule> {
        self.rules.iter().find(|r| r.ff == ff)
    }

    /// Renders the gatefile in its textual form (one record per line), for
    /// inspection and interoperability.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# gatefile for library {}", self.library);
        for r in &self.records {
            let class = match r.class {
                CellClass::Combinational => "comb",
                CellClass::FlipFlop => "ff",
                CellClass::Latch => "latch",
                CellClass::CElement => "celement",
            };
            let pins: Vec<String> = r
                .pins
                .iter()
                .map(|(n, d)| {
                    let d = match d {
                        PortDir::Input => "i",
                        PortDir::Output => "o",
                        PortDir::Inout => "io",
                    };
                    format!("{n}:{d}")
                })
                .collect();
            let _ = writeln!(out, "cell {} {} {}", r.name, class, pins.join(" "));
        }
        for rule in &self.rules {
            let _ = writeln!(
                out,
                "replace {} -> {}+{}{}",
                rule.ff,
                rule.latch_cell,
                rule.latch_cell,
                if rule.composite { " (composite)" } else { "" }
            );
        }
        out
    }
}

/// Picks the smallest latch with a plain `data_in`/`enable` pair.
fn simplest_latch(library: &Library) -> Option<(String, String, String, String)> {
    library
        .cells_of_class(CellClass::Latch)
        .into_iter()
        .find_map(|cell| {
            let SeqKind::Latch(info) = &cell.seq else {
                return None;
            };
            // Simplest possible: bare-variable data, no set/reset.
            let Expr::Var(d) = &info.data_in else {
                return None;
            };
            if info.clear.is_some() || info.preset.is_some() {
                return None;
            }
            Some((
                cell.name.clone(),
                d.clone(),
                info.enable.clone(),
                info.q.clone(),
            ))
        })
}

/// Decomposes a flip-flop's Liberty description into [`FfFeatures`].
fn recognize_features(
    cell: &LibCell,
    ff: &crate::cell::FfInfo,
) -> Result<FfFeatures, LibraryError> {
    let mut features = FfFeatures::default();
    if let Some(clear) = &ff.clear {
        features.async_clear = Some(control_pin(cell, clear)?);
    }
    if let Some(preset) = &ff.preset {
        features.async_preset = Some(control_pin(cell, preset)?);
    }

    // State variable name ("IQ") for clock-enable recognition.
    let state_var = "IQ";
    let mut expr = ff.next_state.clone();

    // Peel synchronous set/reset: `core & RN`, `core & !R`, `core | S`,
    // `core | !SN` (the literal side must be a single control literal).
    loop {
        match &expr {
            Expr::And(parts) if parts.len() == 2 => {
                if let Some((lit, rest)) = split_literal(parts, LitContext::And) {
                    features.sync_reset = Some(lit);
                    expr = rest;
                    continue;
                }
            }
            // Only treat as sync-set when one side is a bare literal and
            // the *other* side is not an AND with the literal's
            // complement (that shape is a mux, handled below).
            Expr::Or(parts) if parts.len() == 2 && !is_mux_shape(parts) => {
                if let Some((lit, rest)) = split_literal(parts, LitContext::Or) {
                    features.sync_set = Some(lit);
                    expr = rest;
                    continue;
                }
            }
            _ => {}
        }
        break;
    }

    // Mux shapes: scan mux or clock-enable mux.
    if let Some((sel, when0, when1)) = match_mux(&expr) {
        let state0 = is_state_ref(&when0, state_var);
        let state1 = is_state_ref(&when1, state_var);
        if state0 || state1 {
            // Clock enable: state recirculates when the enable is off.
            let (enable_active_high, data_branch) = if state0 {
                (true, when1)
            } else {
                (false, when0)
            };
            let _ = enable_active_high;
            features.clock_enable = Some(sel);
            expr = data_branch;
        } else {
            // Scan mux: the branch selected when `sel` is high is scan-in.
            features.scan = Some(ScanPins {
                scan_in: bare_var(&when1).ok_or_else(|| {
                    LibraryError::new(format!(
                        "cell `{}`: scan-in branch is not a bare pin",
                        cell.name
                    ))
                })?,
                scan_enable: sel,
            });
            expr = when0;
        }
    }

    match bare_var(&expr) {
        Some(d) => features.data = Some(d),
        None => {
            return Err(LibraryError::new(format!(
                "cell `{}`: unsupported next_state residue `{}`",
                cell.name, expr
            )))
        }
    }
    Ok(features)
}

fn bare_var(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Var(v) => Some(v.clone()),
        _ => None,
    }
}

fn is_state_ref(expr: &Expr, state_var: &str) -> bool {
    matches!(expr, Expr::Var(v) if v == state_var)
}

/// Matches `(a & !s) | (b & s)` (any commutation) as `(s, a, b)`.
fn match_mux(expr: &Expr) -> Option<(String, Expr, Expr)> {
    let Expr::Or(parts) = expr else { return None };
    if parts.len() != 2 {
        return None;
    }
    let options = [and_decompositions(&parts[0]), and_decompositions(&parts[1])];
    // One side contributes a positive literal `s`, the other `!s`.
    for (pos_idx, neg_idx) in [(0usize, 1usize), (1, 0)] {
        for (pos_lit, pos_rest) in &options[pos_idx] {
            for (neg_lit, neg_rest) in &options[neg_idx] {
                if let (Literal::Pos(s1), Literal::Neg(s2)) = (pos_lit, neg_lit) {
                    if s1 == s2 {
                        return Some((s1.clone(), neg_rest.clone(), pos_rest.clone()));
                    }
                }
            }
        }
    }
    None
}

enum Literal {
    Pos(String),
    Neg(String),
}

/// All ways to split a two-term AND into (control literal, remaining expr).
fn and_decompositions(expr: &Expr) -> Vec<(Literal, Expr)> {
    let Expr::And(parts) = expr else {
        return Vec::new();
    };
    if parts.len() != 2 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, j) in [(0usize, 1usize), (1, 0)] {
        match &parts[i] {
            Expr::Var(v) => out.push((Literal::Pos(v.clone()), parts[j].clone())),
            Expr::Not(inner) => {
                if let Expr::Var(v) = inner.as_ref() {
                    out.push((Literal::Neg(v.clone()), parts[j].clone()));
                }
            }
            _ => {}
        }
    }
    out
}

/// True when an OR's two sides form the mux pattern.
fn is_mux_shape(parts: &[Expr]) -> bool {
    parts.len() == 2 && match_mux(&Expr::Or(parts.to_vec())).is_some()
}

/// Context for interpreting a control literal's polarity:
/// `core & lit` resets when `lit` deasserts the AND; `core | lit` sets when
/// `lit` asserts the OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LitContext {
    And,
    Or,
}

/// Pin names conventionally used for the functional data input.
fn looks_like_data(name: &str) -> bool {
    matches!(name, "D" | "DA" | "DATA" | "DIN")
}

/// Extracts a synchronous control literal from a 2-term AND/OR, leaving the
/// data expression. When both sides are bare pins (e.g. `D & RN`) the pin
/// with a data-like name is kept as data; absent that, the *second* operand
/// is taken as the control (Liberty files write data first).
fn split_literal(parts: &[Expr], ctx: LitContext) -> Option<(ControlPin, Expr)> {
    let literal_of = |e: &Expr| -> Option<(String, bool)> {
        // Returns (pin, negated-in-expression).
        match e {
            Expr::Var(v) => Some((v.clone(), false)),
            Expr::Not(inner) => match inner.as_ref() {
                Expr::Var(v) => Some((v.clone(), true)),
                _ => None,
            },
            _ => None,
        }
    };
    let make = |pin: String, negated: bool| -> ControlPin {
        // AND-reset: `core & RN`  → asserted when RN low  (active-low)
        //            `core & !R` → asserted when R high  (active-high)
        // OR-set:    `core | S`   → asserted when S high  (active-high)
        //            `core | !SN` → asserted when SN low  (active-low)
        let active_low = match ctx {
            LitContext::And => !negated,
            LitContext::Or => negated,
        };
        ControlPin { pin, active_low }
    };
    // Candidate order: prefer taking the control from the side whose
    // *remainder* is complex (not a bare pin); then prefer keeping a
    // data-named pin as the remainder; finally prefer the second operand as
    // control.
    let mut candidates: Vec<(usize, usize)> = vec![(1, 0), (0, 1)]; // (control, rest)
    candidates.sort_by_key(|&(ctrl, rest)| {
        let rest_is_complex = literal_of(&parts[rest]).is_none();
        let rest_is_data = matches!(&parts[rest], Expr::Var(v) if looks_like_data(v));
        let ctrl_is_data = matches!(&parts[ctrl], Expr::Var(v) if looks_like_data(v));
        // Lower key = preferred.
        (
            ctrl_is_data, // never peel a data pin if avoidable
            !(rest_is_complex || rest_is_data),
        )
    });
    for (ctrl, rest) in candidates {
        if let Some((pin, negated)) = literal_of(&parts[ctrl]) {
            return Some((make(pin, negated), parts[rest].clone()));
        }
    }
    None
}

/// Interprets an async clear/preset condition as a control pin.
fn control_pin(cell: &LibCell, cond: &Expr) -> Result<ControlPin, LibraryError> {
    match cond {
        Expr::Var(v) => Ok(ControlPin {
            pin: v.clone(),
            active_low: false,
        }),
        Expr::Not(inner) => match inner.as_ref() {
            Expr::Var(v) => Ok(ControlPin {
                pin: v.clone(),
                active_low: true,
            }),
            _ => Err(LibraryError::new(format!(
                "cell `{}`: unsupported async condition `{cond}`",
                cell.name
            ))),
        },
        _ => Err(LibraryError::new(format!(
            "cell `{}`: unsupported async condition `{cond}`",
            cell.name
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlib90;

    fn gatefile() -> Gatefile {
        Gatefile::from_library(&vlib90::high_speed()).unwrap()
    }

    #[test]
    fn records_cover_all_cells() {
        let lib = vlib90::high_speed();
        let gf = gatefile();
        assert_eq!(gf.records.len(), lib.cells().count());
        assert_eq!(gf.library, "vlib90_hs");
    }

    #[test]
    fn plain_dff_rule() {
        let gf = gatefile();
        let rule = gf.rule("DFFX1").expect("DFFX1 rule");
        assert!(rule.features.is_plain());
        assert!(!rule.composite);
        assert_eq!(rule.features.data.as_deref(), Some("D"));
        assert_eq!(rule.latch_cell, "LDX1");
        assert_eq!(rule.clock_pin, "CK");
        assert_eq!(rule.qn_pin.as_deref(), Some("QN"));
    }

    #[test]
    fn scan_dff_rule() {
        let gf = gatefile();
        let rule = gf.rule("SDFFX1").expect("SDFFX1 rule");
        let scan = rule.features.scan.as_ref().expect("scan pins");
        assert_eq!(scan.scan_in, "SI");
        assert_eq!(scan.scan_enable, "SE");
        assert_eq!(rule.features.data.as_deref(), Some("D"));
        assert!(rule.composite);
    }

    #[test]
    fn scan_dff_with_sync_reset() {
        let gf = gatefile();
        let rule = gf.rule("SDFFRX1").expect("SDFFRX1 rule");
        let sr = rule.features.sync_reset.as_ref().expect("sync reset");
        assert_eq!(sr.pin, "RN");
        assert!(sr.active_low);
        assert!(rule.features.scan.is_some());
    }

    #[test]
    fn sync_set_and_reset_rules() {
        let gf = gatefile();
        let r = gf.rule("DFFRX1").unwrap();
        assert_eq!(r.features.sync_reset.as_ref().unwrap().pin, "RN");
        let s = gf.rule("DFFSX1").unwrap();
        let set = s.features.sync_set.as_ref().unwrap();
        assert_eq!(set.pin, "S");
        // `D | S` sets when S is high.
        assert!(!set.active_low);
        assert_eq!(s.features.data.as_deref(), Some("D"));
        assert_eq!(r.features.data.as_deref(), Some("D"));
    }

    #[test]
    fn async_rules() {
        let gf = gatefile();
        let r = gf.rule("DFFARX1").unwrap();
        let clear = r.features.async_clear.as_ref().unwrap();
        assert_eq!(clear.pin, "CDN");
        assert!(clear.active_low);
        let s = gf.rule("DFFASX1").unwrap();
        assert_eq!(s.features.async_preset.as_ref().unwrap().pin, "SDN");
    }

    #[test]
    fn clock_enable_rule() {
        let gf = gatefile();
        let r = gf.rule("DFFEX1").unwrap();
        assert_eq!(r.features.clock_enable.as_deref(), Some("EN"));
        assert_eq!(r.features.data.as_deref(), Some("D"));
        assert!(r.composite);
    }

    #[test]
    fn text_rendering() {
        let gf = gatefile();
        let text = gf.to_text();
        assert!(text.contains("cell NAND2X1 comb"));
        assert!(text.contains("replace DFFX1 -> LDX1+LDX1"));
        assert!(text.contains("replace SDFFX1 -> LDX1+LDX1 (composite)"));
    }

    #[test]
    fn library_without_latch_is_rejected() {
        let lib = crate::parse_library(
            "library (nolatch) { cell (INVX1) { area : 1.0; pin (A) { direction : input; } pin (Z) { direction : output; function : \"!A\"; } } }",
        )
        .unwrap();
        assert!(Gatefile::from_library(&lib).is_err());
    }
}
