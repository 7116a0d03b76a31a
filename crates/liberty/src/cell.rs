//! Library-cell model: pins, timing arcs, sequential semantics.

use drd_netlist::PortDir;

use crate::function::Expr;

/// Broad classification of a library cell (the paper's gatefile `type`
/// field: flip-flop, latch or combinational logic gate — plus the C-Muller
/// element, which desynchronization treats as its own kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Pure combinational gate.
    Combinational,
    /// Edge-triggered flip-flop.
    FlipFlop,
    /// Level-sensitive latch.
    Latch,
    /// C-Muller (rendezvous) element (§2.4.3).
    CElement,
}

/// Edge-triggered storage semantics (Liberty `ff` group).
#[derive(Debug, Clone, PartialEq)]
pub struct FfInfo {
    /// Next-state function, evaluated at the active clock edge. Scan muxes,
    /// synchronous set/reset and clock enables appear inside this
    /// expression (e.g. `(SE & SI) | (!SE & D)` for a scan flip-flop).
    pub next_state: Expr,
    /// Clock expression (a bare pin name for rising-edge clocking).
    pub clocked_on: String,
    /// Asynchronous clear condition (output forced 0 while true).
    pub clear: Option<Expr>,
    /// Asynchronous preset condition (output forced 1 while true).
    pub preset: Option<Expr>,
    /// Non-inverted output pin.
    pub q: String,
    /// Inverted output pin, if present.
    pub qn: Option<String>,
}

/// Level-sensitive storage semantics (Liberty `latch` group).
#[derive(Debug, Clone, PartialEq)]
pub struct LatchInfo {
    /// Data function sampled while the latch is transparent.
    pub data_in: Expr,
    /// Enable expression (transparent while true).
    pub enable: String,
    /// Asynchronous clear condition.
    pub clear: Option<Expr>,
    /// Asynchronous preset condition.
    pub preset: Option<Expr>,
    /// Non-inverted output pin.
    pub q: String,
    /// Inverted output pin, if present.
    pub qn: Option<String>,
}

/// Sequential behaviour of a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqKind {
    /// No state: combinational.
    None,
    /// Edge-triggered flip-flop.
    FlipFlop(FfInfo),
    /// Level-sensitive latch.
    Latch(LatchInfo),
    /// C-Muller element: output goes high when all inputs are high, low
    /// when all are low, holds otherwise (Table 2.1).
    CElement {
        /// Input pins participating in the rendezvous.
        inputs: Vec<String>,
        /// Optional active-low reset pin (forces output low).
        reset: Option<String>,
        /// Optional active-low set pin (forces output high; used by the
        /// master controllers, which reset with their request asserted).
        set: Option<String>,
        /// Output pin.
        q: String,
    },
}

/// One pin of a library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Output function (combinational outputs; state outputs reference the
    /// internal state variable and are resolved via [`SeqKind`]).
    pub function: Option<Expr>,
    /// Input capacitance (pF-like units), used by the load-dependent delay
    /// model.
    pub capacitance: f64,
    /// Drive resistance of output pins (delay per unit load).
    pub drive_resistance: f64,
}

/// An intrinsic pin-to-pin delay arc.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArc {
    /// Input (related) pin.
    pub from: String,
    /// Output pin.
    pub to: String,
    /// Intrinsic rise delay (ns, typical corner).
    pub rise: f64,
    /// Intrinsic fall delay (ns, typical corner).
    pub fall: f64,
}

/// A technology-library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LibCell {
    /// Cell name.
    pub name: String,
    /// Cell area (µm²-like units).
    pub area: f64,
    /// Leakage power (µW-like units, typical corner).
    pub leakage: f64,
    /// Dynamic switching energy per output toggle (pJ-like units).
    pub switching_energy: f64,
    /// Setup time for sequential cells (ns).
    pub setup: f64,
    /// Hold time for sequential cells (ns).
    pub hold: f64,
    /// Pins in declaration order.
    pub pins: Vec<Pin>,
    /// Sequential behaviour.
    pub seq: SeqKind,
    /// Intrinsic timing arcs.
    pub arcs: Vec<TimingArc>,
}

impl LibCell {
    /// Broad classification of the cell.
    pub fn class(&self) -> CellClass {
        match &self.seq {
            SeqKind::None => CellClass::Combinational,
            SeqKind::FlipFlop(_) => CellClass::FlipFlop,
            SeqKind::Latch(_) => CellClass::Latch,
            SeqKind::CElement { .. } => CellClass::CElement,
        }
    }

    /// True for flip-flops, latches and C-elements.
    pub fn is_sequential(&self) -> bool {
        self.class() != CellClass::Combinational
    }

    /// Looks a pin up by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Iterator over input pins.
    pub fn input_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Iterator over output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins.iter().filter(|p| p.dir == PortDir::Output)
    }

    /// Intrinsic (rise, fall) delay of the arc `from → to`, if present.
    pub fn arc_delay(&self, from: &str, to: &str) -> Option<(f64, f64)> {
        self.arcs
            .iter()
            .find(|a| a.from == from && a.to == to)
            .map(|a| (a.rise, a.fall))
    }

    /// Worst intrinsic delay (max over arcs, max of rise/fall); 0 if no arcs.
    pub fn max_intrinsic_delay(&self) -> f64 {
        self.arcs
            .iter()
            .map(|a| a.rise.max(a.fall))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Expr;

    fn inv() -> LibCell {
        LibCell {
            name: "INVX1".into(),
            area: 2.1,
            leakage: 0.01,
            switching_energy: 0.002,
            setup: 0.0,
            hold: 0.0,
            pins: vec![
                Pin {
                    name: "A".into(),
                    dir: PortDir::Input,
                    function: None,
                    capacitance: 0.003,
                    drive_resistance: 0.0,
                },
                Pin {
                    name: "Z".into(),
                    dir: PortDir::Output,
                    function: Some(Expr::parse("!A").unwrap()),
                    capacitance: 0.0,
                    drive_resistance: 1.1,
                },
            ],
            seq: SeqKind::None,
            arcs: vec![TimingArc {
                from: "A".into(),
                to: "Z".into(),
                rise: 0.014,
                fall: 0.011,
            }],
        }
    }

    #[test]
    fn classification() {
        let cell = inv();
        assert_eq!(cell.class(), CellClass::Combinational);
        assert!(!cell.is_sequential());
    }

    #[test]
    fn pin_and_arc_queries() {
        let cell = inv();
        assert_eq!(cell.pin("A").unwrap().dir, PortDir::Input);
        assert_eq!(cell.input_pins().count(), 1);
        assert_eq!(cell.output_pins().count(), 1);
        assert_eq!(cell.arc_delay("A", "Z"), Some((0.014, 0.011)));
        assert_eq!(cell.arc_delay("Z", "A"), None);
        assert!((cell.max_intrinsic_delay() - 0.014).abs() < 1e-12);
    }

    #[test]
    fn celement_class() {
        let mut cell = inv();
        cell.seq = SeqKind::CElement {
            inputs: vec!["A".into(), "B".into()],
            reset: Some("RN".into()),
            set: None,
            q: "Z".into(),
        };
        assert_eq!(cell.class(), CellClass::CElement);
        assert!(cell.is_sequential());
    }
}
