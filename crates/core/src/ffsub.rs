//! Flip-flop substitution (§2.3, §3.2.3, Fig. 3.1).
//!
//! Every flip-flop is replaced by a master/slave pair of the library's
//! simplest latch, plus the extra gates its features require (§3.1.2):
//!
//! * scan flip-flops get a multiplexer before the master (Fig. 3.1a),
//! * synchronous reset/set get an AND/OR on the data path (Fig. 3.1b),
//! * asynchronous set/reset gate both data paths *and* both enables, so
//!   the latches open during the assertion and the value passes
//!   (Fig. 3.1c),
//! * clock-gated flip-flops gate both latch enables (Fig. 3.1d).
//!
//! The master latch is enabled by the region's master enable net, the
//! slave by the slave enable net — both driven later by the region's
//! controller pair. The `ffsub` pass hands each region's pair and the
//! cells it appended on by ID, as a [`Substitution`].
//!
//! A [`Substituter`] serves one pass over one module. It looks each
//! flip-flop kind up in the library and the gatefile once, turns the
//! kind's rule into module symbols (its pins, the latch kind and pins)
//! when the first flip-flop of the kind is replaced, and the helper gates'
//! kinds and pins when the first gate is needed. Every generated name is
//! composed in one buffer and every pin list in another, both kept for
//! the pass, and each name is interned once, by the call that checks it
//! is free; so replacing a flip-flop allocates nothing of its own.

use drd_liberty::gatefile::{ControlPin, FfRule, Gatefile};
use drd_liberty::{CellClass, Library};
use drd_netlist::{CellId, CellKind, Conn, Module, NetId, PinUse, Symbol};

use crate::{DegradeReason, DesyncError};

/// What flip-flop substitution created, by ID into the top module: the
/// hand-off to `control-network` and, through [`crate::DesyncResult`],
/// to the flow's readers, so none finds these objects again by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    /// Per region: the master and slave latch-enable nets, `None` for a
    /// region that kept its flip-flops (none, or left synchronous before
    /// substitution). A region gets a controller pair exactly when it has
    /// a pair here.
    pub enables: Vec<Option<(NetId, NetId)>>,
    /// The cell slots the pass appended: every composite latch's latches
    /// and gates, sequential logic in the paper's area split (§5.3.1).
    /// Removal only tombstones a slot, so the range stays exact. They are
    /// also the only cells that read an enable net.
    pub cells: std::ops::Range<usize>,
}

impl Substitution {
    /// The loads of every enable net, read from the live cells the pass
    /// appended: every pin of those cells on an enable net reads it (a
    /// latch enable or a helper-gate input), and no other cell reads one.
    /// One sweep in cell-id then pin order lists each net's loads in the
    /// order [`Module::connectivity`] does, without building the whole
    /// module's tables.
    pub fn enable_loads(&self, module: &Module) -> EnableLoads {
        let mut row = vec![NO_ROW; module.net_count()];
        let mut rows = 0u32;
        for net in self.enables.iter().flatten().flat_map(|&(m, s)| [m, s]) {
            if row[net.index()] == NO_ROW {
                row[net.index()] = rows;
                rows += 1;
            }
        }
        let cells = || {
            self.cells
                .clone()
                .map(CellId::from_index)
                .filter(|&c| module.is_cell_alive(c))
        };
        let row_of = |conn: Conn| match conn {
            Conn::Net(n) if row[n.index()] != NO_ROW => Some(row[n.index()] as usize),
            _ => None,
        };
        // Count each row's loads, then place them in the same order.
        let mut start = vec![0u32; rows as usize + 1];
        for cell in cells() {
            for &(_, conn) in module.cell_pins(cell) {
                if let Some(r) = row_of(conn) {
                    start[r + 1] += 1;
                }
            }
        }
        for r in 0..rows as usize {
            start[r + 1] += start[r];
        }
        let mut cursor = start.clone();
        let mut loads = vec![
            PinUse {
                cell: CellId::from_index(0),
                pin: 0
            };
            start[rows as usize] as usize
        ];
        for cell in cells() {
            for (pin, &(_, conn)) in module.cell_pins(cell).iter().enumerate() {
                if let Some(r) = row_of(conn) {
                    loads[cursor[r] as usize] = PinUse {
                        cell,
                        pin: pin as u32,
                    };
                    cursor[r] += 1;
                }
            }
        }
        EnableLoads { row, start, loads }
    }
}

/// `EnableLoads::row` entry of a net that is no enable net.
const NO_ROW: u32 = u32::MAX;

/// The loads of a [`Substitution`]'s enable nets, in CSR form: row
/// `start[r]..start[r + 1]` of one flat table per enable net.
#[derive(Debug, Clone)]
pub struct EnableLoads {
    /// Per net of the module: its row, [`NO_ROW`] for other nets.
    row: Vec<u32>,
    start: Vec<u32>,
    loads: Vec<PinUse>,
}

impl EnableLoads {
    /// The cell pins reading enable net `net`; empty for any other net.
    pub fn loads(&self, net: NetId) -> &[PinUse] {
        match self.row.get(net.index()) {
            Some(&r) if r != NO_ROW => {
                let r = r as usize;
                &self.loads[self.start[r] as usize..self.start[r + 1] as usize]
            }
            _ => &[],
        }
    }
}

/// Statistics from a substitution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstitutionReport {
    /// Flip-flops substituted.
    pub substituted: usize,
    /// Extra combinational gates inserted (muxes, and/or/inv).
    pub extra_gates: usize,
}

/// A flip-flop pin as a module symbol: `None` when the module never
/// interned the name, so no cell can connect it.
type Pin = Option<Symbol>;

/// A flip-flop kind's replacement rule in module symbols.
#[derive(Debug, Clone, Copy)]
struct Plan {
    data: Pin,
    /// Scan in and scan enable.
    scan: Option<(Pin, Pin)>,
    /// Each control pin with whether it is active low.
    sync_reset: Option<(Pin, bool)>,
    sync_set: Option<(Pin, bool)>,
    clock_enable: Option<Pin>,
    async_clear: Option<(Pin, bool)>,
    async_preset: Option<(Pin, bool)>,
    q: Pin,
    qn: Option<Pin>,
    latch: CellKind,
    /// The latch's data, enable and output pins.
    latch_pins: [Symbol; 3],
}

impl Plan {
    /// `rule` in `module`'s symbols: the latch interned, the flip-flop's
    /// pins looked up.
    fn new(module: &mut Module, rule: &FfRule) -> Plan {
        let latch = module.lib_kind(&rule.latch_cell);
        let latch_pins = [&rule.latch_d, &rule.latch_g, &rule.latch_q].map(|p| module.intern(p));
        let pin = |name: &str| module.lookup_sym(name);
        let control = |c: &Option<ControlPin>| c.as_ref().map(|c| (pin(&c.pin), c.active_low));
        let f = &rule.features;
        Plan {
            data: f.data.as_deref().and_then(pin),
            scan: f
                .scan
                .as_ref()
                .map(|s| (pin(&s.scan_in), pin(&s.scan_enable))),
            sync_reset: control(&f.sync_reset),
            sync_set: control(&f.sync_set),
            clock_enable: f.clock_enable.as_deref().map(pin),
            async_clear: control(&f.async_clear),
            async_preset: control(&f.async_preset),
            q: pin(&rule.q_pin),
            qn: rule.qn_pin.as_deref().map(pin),
            latch,
            latch_pins,
        }
    }
}

/// A flip-flop kind as the library and the gatefile see it, looked up by
/// name once per pass.
#[derive(Debug, Clone, Copy)]
enum Kind<'a> {
    /// Not a library cell.
    Unknown,
    /// A library cell that is not a flip-flop: latches of a latch-based
    /// design, and anything else, stay.
    Kept,
    /// A flip-flop the gatefile has no rule for.
    NoRule,
    /// A flip-flop, its rule, and the rule in module symbols once a
    /// flip-flop of the kind has been replaced.
    Ff(&'a FfRule, Option<Plan>),
}

/// The helper gates' kinds and pins, interned when the first is needed.
#[derive(Debug, Clone, Copy)]
struct Gates {
    inv: CellKind,
    mux: CellKind,
    and: CellKind,
    or: CellKind,
    a: Symbol,
    b: Symbol,
    s: Symbol,
    z: Symbol,
}

impl Gates {
    fn new(module: &mut Module) -> Gates {
        Gates {
            inv: module.lib_kind("INVX1"),
            mux: module.lib_kind("MUX2X1"),
            and: module.lib_kind("AND2X1"),
            or: module.lib_kind("OR2X1"),
            a: module.intern("A"),
            b: module.intern("B"),
            s: module.intern("S"),
            z: module.intern("Z"),
        }
    }
}

/// Flip-flop substitution over one module, for one pass: region by
/// region, [`Substituter::add_enable_nets`], then
/// [`Substituter::degrade_reason`] and [`Substituter::substitute`] on the
/// region's sequential cells.
#[derive(Debug)]
pub struct Substituter<'a> {
    lib: &'a Library,
    gatefile: &'a Gatefile,
    /// Every kind met so far, by its symbol: a region holds a few.
    kinds: Vec<(Symbol, Kind<'a>)>,
    gates: Option<Gates>,
    /// The name being composed: the current flip-flop's name, then a
    /// suffix from byte `base` on.
    name: String,
    base: usize,
    /// The pin list of the cell being added.
    pins: Vec<(Symbol, Conn)>,
    /// The connections of the flip-flop being replaced.
    ff_pins: Vec<(Symbol, Conn)>,
    /// Gates added for the current flip-flop.
    extra: usize,
}

impl<'a> Substituter<'a> {
    /// A substituter drawing rules from `gatefile` for the cells of `lib`.
    pub fn new(lib: &'a Library, gatefile: &'a Gatefile) -> Self {
        Substituter {
            lib,
            gatefile,
            kinds: Vec::new(),
            gates: None,
            name: String::new(),
            base: 0,
            pins: Vec::new(),
            ff_pins: Vec::new(),
            extra: 0,
        }
    }

    /// Creates a region's master and slave latch-enable nets, named
    /// `drd_<region>_gm`/`_gs`, uniquified if the input already uses that.
    pub fn add_enable_nets(&mut self, module: &mut Module, region: &str) -> (NetId, NetId) {
        self.name.clear();
        self.name.push_str("drd_");
        self.name.push_str(region);
        self.name.push_str("_gm");
        let gm = module.add_net_auto(&self.name);
        self.name.truncate(self.name.len() - 1);
        self.name.push('s');
        (gm, module.add_net_auto(&self.name))
    }

    /// The `kinds` slot of `cell`'s kind, looked up on first sight.
    fn kind_slot(&mut self, module: &Module, cell: CellId) -> usize {
        let sym = module.cell_kind(cell).sym();
        if let Some(slot) = self.kinds.iter().position(|&(s, _)| s == sym) {
            return slot;
        }
        let name = module.cell(cell).kind_name();
        let kind = match self.lib.cell(name) {
            None => Kind::Unknown,
            Some(lc) if lc.class() != CellClass::FlipFlop => Kind::Kept,
            Some(_) => match self.gatefile.rule(name) {
                None => Kind::NoRule,
                Some(rule) => Kind::Ff(rule, None),
            },
        };
        self.kinds.push((sym, kind));
        self.kinds.len() - 1
    }

    /// Pre-substitution validation of one region's sequential cells:
    /// the reason the region cannot be desynchronized, or `None` when
    /// every substitution target is supported.
    ///
    /// This makes exactly the checks [`Substituter::substitute`] makes,
    /// but *before* any netlist mutation — substitution removes the
    /// original flip-flop first, so graceful per-region degradation must
    /// decide while the region is still intact.
    pub fn degrade_reason(
        &mut self,
        module: &Module,
        seq_cells: &[CellId],
    ) -> Option<DegradeReason> {
        for &cell_id in seq_cells {
            if !module.is_cell_alive(cell_id) {
                continue; // already substituted or removed
            }
            let kind = || module.cell(cell_id).kind_name().to_owned();
            let slot = self.kind_slot(module, cell_id);
            match self.kinds[slot].1 {
                Kind::Unknown => return Some(DegradeReason::UnknownCell { kind: kind() }),
                Kind::NoRule => return Some(DegradeReason::UnsupportedFf { kind: kind() }),
                Kind::Kept | Kind::Ff(..) => {}
            }
        }
        None
    }

    /// Substitutes every flip-flop in `seq_cells` by a latch pair enabled
    /// by `gm` (master) and `gs` (slave).
    ///
    /// # Errors
    /// Returns [`DesyncError::UnknownCell`] for a cell missing from the
    /// library, [`DesyncError::NoRule`] if the gatefile lacks a rule for
    /// some flip-flop, and propagates netlist errors.
    pub fn substitute(
        &mut self,
        module: &mut Module,
        seq_cells: &[CellId],
        gm: NetId,
        gs: NetId,
    ) -> Result<SubstitutionReport, DesyncError> {
        let mut report = SubstitutionReport::default();
        for &cell_id in seq_cells {
            if !module.is_cell_alive(cell_id) {
                continue; // already substituted or removed
            }
            let slot = self.kind_slot(module, cell_id);
            let plan = match self.kinds[slot].1 {
                Kind::Unknown => {
                    return Err(DesyncError::UnknownCell {
                        name: module.cell(cell_id).kind_name().to_owned(),
                    })
                }
                // Latches in a latch-based design stay; other cells are
                // not substitution targets.
                Kind::Kept => continue,
                Kind::NoRule => {
                    return Err(DesyncError::NoRule {
                        cell: module.cell(cell_id).kind_name().to_owned(),
                    })
                }
                Kind::Ff(_, Some(plan)) => plan,
                Kind::Ff(rule, None) => {
                    let plan = Plan::new(module, rule);
                    self.kinds[slot].1 = Kind::Ff(rule, Some(plan));
                    plan
                }
            };
            self.substitute_one(module, &plan, cell_id, gm, gs)?;
            report.substituted += 1;
            report.extra_gates += self.extra;
        }
        Ok(report)
    }

    /// The connection of the replaced flip-flop's first pin `pin`.
    fn conn(&self, pin: Pin) -> Conn {
        pin.and_then(|p| self.ff_pins.iter().find(|&&(s, _)| s == p))
            .map_or(Conn::Open, |&(_, c)| c)
    }

    /// Sets the name buffer to the flip-flop's name, `sep` and `suffix`.
    fn name(&mut self, sep: &str, suffix: &str) -> &str {
        self.name.truncate(self.base);
        self.name.push_str(sep);
        self.name.push_str(suffix);
        &self.name
    }

    /// Adds a cell named after the flip-flop with `suffix`, of `kind`,
    /// with `pins`.
    fn add_cell(
        &mut self,
        module: &mut Module,
        suffix: &str,
        kind: CellKind,
        pins: &[(Symbol, Conn)],
    ) -> Result<(), DesyncError> {
        let name = module.unique_cell_name(self.name("_", suffix));
        self.pins.clear();
        self.pins.extend_from_slice(pins);
        module.add_cell_interned(name, kind, &self.pins)?;
        Ok(())
    }

    /// Inserts a helper gate of `kind` reading `inputs`, driving a new
    /// net `<flip-flop>__<suffix>`, which it returns.
    fn gate(
        &mut self,
        module: &mut Module,
        kind: CellKind,
        suffix: &str,
        inputs: &[(Symbol, Conn)],
    ) -> Result<Conn, DesyncError> {
        let z = self.gates(module).z;
        let out = module.add_net_auto(self.name("__", suffix));
        let name = module.unique_cell_name(self.name("_", suffix));
        self.pins.clear();
        self.pins.extend_from_slice(inputs);
        self.pins.push((z, Conn::Net(out)));
        module.add_cell_interned(name, kind, &self.pins)?;
        self.extra += 1;
        Ok(Conn::Net(out))
    }

    /// The helper gates, interned on first use.
    fn gates(&mut self, module: &mut Module) -> Gates {
        *self.gates.get_or_insert_with(|| Gates::new(module))
    }

    /// The inverse of `conn` through an inverter named by `suffix`; a
    /// constant is inverted in place, and an unconnected pin inverts to 0.
    fn invert(
        &mut self,
        module: &mut Module,
        conn: Conn,
        suffix: &str,
    ) -> Result<Conn, DesyncError> {
        match conn {
            Conn::Net(n) => {
                let g = self.gates(module);
                self.gate(module, g.inv, suffix, &[(g.a, Conn::Net(n))])
            }
            Conn::Const0 => Ok(Conn::Const1),
            _ => Ok(Conn::Const0),
        }
    }

    /// Active-high assertion signal of a control pin.
    fn asserted(
        &mut self,
        module: &mut Module,
        (pin, active_low): (Pin, bool),
        suffix: &str,
    ) -> Result<Conn, DesyncError> {
        let conn = self.conn(pin);
        if active_low {
            self.invert(module, conn, suffix)
        } else {
            Ok(conn)
        }
    }

    /// Substitutes a single flip-flop; counts the extra gates in `extra`.
    fn substitute_one(
        &mut self,
        module: &mut Module,
        plan: &Plan,
        cell_id: CellId,
        gm: NetId,
        gs: NetId,
    ) -> Result<(), DesyncError> {
        self.extra = 0;
        self.name.clear();
        self.name.push_str(module.cell(cell_id).name);
        self.base = self.name.len();
        // Copy the pin connections before the cell is removed and the
        // module is mutated below.
        self.ff_pins.clear();
        self.ff_pins.extend_from_slice(module.cell_pins(cell_id));
        module.remove_cell(cell_id);

        // ---- data path ---------------------------------------------------
        let mut d = self.conn(plan.data);
        // Scan mux (Fig. 3.1a).
        if let Some((si, se)) = plan.scan {
            let g = self.gates(module);
            let (si, se) = (self.conn(si), self.conn(se));
            d = self.gate(module, g.mux, "smx", &[(g.a, d), (g.b, si), (g.s, se)])?;
        }
        // Synchronous reset: data AND not-asserted (Fig. 3.1b).
        if let Some((pin, active_low)) = plan.sync_reset {
            let g = self.gates(module);
            let enable_side = if active_low {
                self.conn(pin) // `d & RN`
            } else {
                // active-high reset: `d & !R`
                let r = self.conn(pin);
                self.invert(module, r, "srn")?
            };
            d = self.gate(module, g.and, "srg", &[(g.a, d), (g.b, enable_side)])?;
        }
        // Synchronous set: data OR asserted.
        if let Some(ss) = plan.sync_set {
            let g = self.gates(module);
            let a = self.asserted(module, ss, "ssi")?;
            d = self.gate(module, g.or, "ssg", &[(g.a, d), (g.b, a)])?;
        }

        // ---- enables -----------------------------------------------------
        let mut gm_eff = Conn::Net(gm);
        let mut gs_eff = Conn::Net(gs);
        if let Some(en) = plan.clock_enable {
            // Fig. 3.1d: gate the latch-enable signals.
            let g = self.gates(module);
            let en = self.conn(en);
            gm_eff = self.gate(module, g.and, "gme", &[(g.a, gm_eff), (g.b, en)])?;
            gs_eff = self.gate(module, g.and, "gse", &[(g.a, gs_eff), (g.b, en)])?;
        }

        // Asynchronous clear/preset (Fig. 3.1c): open the latches during
        // the assertion and force the data value through.
        let mut slave_d_override: Option<(Conn, bool)> = None; // (assert, set?)
        if let Some(ac) = plan.async_clear {
            let g = self.gates(module);
            let a = self.asserted(module, ac, "aci")?;
            let an = self.invert(module, a, "acn")?;
            d = self.gate(module, g.and, "acd", &[(g.a, d), (g.b, an)])?;
            gm_eff = self.gate(module, g.or, "acm", &[(g.a, gm_eff), (g.b, a)])?;
            gs_eff = self.gate(module, g.or, "acs", &[(g.a, gs_eff), (g.b, a)])?;
            slave_d_override = Some((an, false));
        }
        if let Some(ap) = plan.async_preset {
            let g = self.gates(module);
            let a = self.asserted(module, ap, "api")?;
            d = self.gate(module, g.or, "apd", &[(g.a, d), (g.b, a)])?;
            gm_eff = self.gate(module, g.or, "apm", &[(g.a, gm_eff), (g.b, a)])?;
            gs_eff = self.gate(module, g.or, "aps", &[(g.a, gs_eff), (g.b, a)])?;
            slave_d_override = Some((a, true));
        }

        // ---- the latch pair ------------------------------------------------
        let [ld, lg, lq] = plan.latch_pins;
        let qm = module.add_net_auto(self.name("__", "qm"));
        self.add_cell(
            module,
            "lm",
            plan.latch,
            &[(ld, d), (lg, gm_eff), (lq, Conn::Net(qm))],
        )?;

        // Slave data, possibly gated for async controls.
        let slave_d = match slave_d_override {
            None => Conn::Net(qm),
            Some((ctrl, set)) => {
                let g = self.gates(module);
                let kind = if set { g.or } else { g.and };
                self.gate(module, kind, "asd", &[(g.a, Conn::Net(qm)), (g.b, ctrl)])?
            }
        };

        let qn_conn = plan.qn.map_or(Conn::Open, |pin| self.conn(pin));
        let qs = match self.conn(plan.q) {
            Conn::Net(n) => n,
            _ => module.add_net_auto(self.name("__", "qs")),
        };
        self.add_cell(
            module,
            "ls",
            plan.latch,
            &[(ld, slave_d), (lg, gs_eff), (lq, Conn::Net(qs))],
        )?;
        if let Conn::Net(qn_net) = qn_conn {
            let g = self.gates(module);
            self.add_cell(
                module,
                "qn",
                g.inv,
                &[(g.a, Conn::Net(qs)), (g.z, Conn::Net(qn_net))],
            )?;
            self.extra += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    fn setup() -> (Module, Library, Gatefile, NetId, NetId) {
        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        let mut m = Module::new("t");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("d", PortDir::Input).unwrap();
        m.add_port("q", PortDir::Output).unwrap();
        let gm = m.add_net("gm1").unwrap();
        let gs = m.add_net("gs1").unwrap();
        (m, lib, gf, gm, gs)
    }

    #[test]
    fn plain_dff_becomes_latch_pair() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(d)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert_eq!(rep.substituted, 1);
        assert_eq!(rep.extra_gates, 0);
        assert!(m.find_cell("r1").is_none());
        let lm = m.find_cell("r1_lm").expect("master latch");
        let ls = m.find_cell("r1_ls").expect("slave latch");
        assert_eq!(m.cell(lm).kind_name(), "LDX1");
        assert_eq!(m.cell(lm).pin("G"), Some(Conn::Net(gm)));
        assert_eq!(m.cell(ls).pin("G"), Some(Conn::Net(gs)));
        // Slave output drives the original Q net.
        assert_eq!(m.cell(ls).pin("Q"), Some(Conn::Net(q)));
        // Master data is the original D.
        assert_eq!(m.cell(lm).pin("D"), Some(Conn::Net(d)));
    }

    #[test]
    fn qn_output_gets_an_inverter() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let qn = m.add_net("qn").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(d)),
                ("CK", Conn::Net(clk)),
                ("QN", Conn::Net(qn)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert_eq!(rep.extra_gates, 1);
        let inv = m.find_cell("r1_qn").expect("qn inverter");
        assert_eq!(m.cell(inv).pin("Z"), Some(Conn::Net(qn)));
    }

    #[test]
    fn scan_ff_gets_mux() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let si = m.add_net("si").unwrap();
        let se = m.add_net("se").unwrap();
        m.add_cell(
            "r1",
            "SDFFX1",
            &[
                ("D", Conn::Net(d)),
                ("SI", Conn::Net(si)),
                ("SE", Conn::Net(se)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert_eq!(rep.extra_gates, 1);
        let mux = m.find_cell("r1_smx").expect("scan mux");
        assert_eq!(m.cell(mux).kind_name(), "MUX2X1");
        assert_eq!(m.cell(mux).pin("B"), Some(Conn::Net(si)));
        assert_eq!(m.cell(mux).pin("S"), Some(Conn::Net(se)));
        // The mux feeds the master latch.
        let lm = m.find_cell("r1_lm").unwrap();
        let mux_out = m.cell(mux).pin("Z").unwrap();
        assert_eq!(m.cell(lm).pin("D"), Some(mux_out));
    }

    #[test]
    fn sync_reset_gets_and_gate() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let rn = m.add_net("rn").unwrap();
        m.add_cell(
            "r1",
            "DFFRX1",
            &[
                ("D", Conn::Net(d)),
                ("RN", Conn::Net(rn)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert_eq!(rep.extra_gates, 1);
        let and = m.find_cell("r1_srg").expect("sync reset AND");
        assert_eq!(m.cell(and).pin("B"), Some(Conn::Net(rn)));
    }

    #[test]
    fn async_clear_gates_data_and_enables() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let cdn = m.add_net("cdn").unwrap();
        m.add_cell(
            "r1",
            "DFFARX1",
            &[
                ("D", Conn::Net(d)),
                ("CDN", Conn::Net(cdn)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert!(rep.extra_gates >= 4, "gates: {}", rep.extra_gates);
        // Enables are gated with ORs, so the latches open on assertion.
        let lm = m.find_cell("r1_lm").unwrap();
        assert_ne!(m.cell(lm).pin("G"), Some(Conn::Net(gm)));
        let or_m = m.find_cell("r1_acm").expect("master enable OR");
        assert_eq!(m.cell(or_m).pin("A"), Some(Conn::Net(gm)));
    }

    #[test]
    fn clock_enable_gates_both_enables() {
        let (mut m, lib, gf, gm, gs) = setup();
        let d = m.find_net("d").unwrap();
        let clk = m.find_net("clk").unwrap();
        let q = m.find_net("q").unwrap();
        let en = m.add_net("en").unwrap();
        m.add_cell(
            "r1",
            "DFFEX1",
            &[
                ("D", Conn::Net(d)),
                ("EN", Conn::Net(en)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let r1 = m.find_cell("r1").unwrap();
        let rep = Substituter::new(&lib, &gf)
            .substitute(&mut m, &[r1], gm, gs)
            .unwrap();
        assert_eq!(rep.extra_gates, 2);
        let gme = m.find_cell("r1_gme").expect("master enable AND");
        let gse = m.find_cell("r1_gse").expect("slave enable AND");
        assert_eq!(m.cell(gme).pin("B"), Some(Conn::Net(en)));
        assert_eq!(m.cell(gse).pin("B"), Some(Conn::Net(en)));
    }

    /// End-to-end behavioural check: a substituted plain DFF driven by
    /// non-overlapping master/slave enables behaves like the original
    /// flip-flop (same captured sequence).
    #[test]
    fn latch_pair_behaves_like_ff() {
        use drd_liberty::Lv;
        use drd_sim::{SimOptions, Simulator};

        let lib = vlib90::high_speed();
        let gf = Gatefile::from_library(&lib).unwrap();
        let build = |substitute: bool| -> drd_netlist::Design {
            let mut m = Module::new("t");
            m.add_port("clk", PortDir::Input).unwrap();
            m.add_port("gm", PortDir::Input).unwrap();
            m.add_port("gs", PortDir::Input).unwrap();
            m.add_port("d", PortDir::Input).unwrap();
            m.add_port("q", PortDir::Output).unwrap();
            let d = m.find_net("d").unwrap();
            let clk = m.find_net("clk").unwrap();
            let q = m.find_net("q").unwrap();
            m.add_cell(
                "r1",
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
            if substitute {
                let gm = m.find_net("gm").unwrap();
                let gs = m.find_net("gs").unwrap();
                let r1 = m.find_cell("r1").unwrap();
                Substituter::new(&lib, &gf)
                    .substitute(&mut m, &[r1], gm, gs)
                    .unwrap();
            }
            let mut design = drd_netlist::Design::new();
            design.insert(m);
            design
        };

        // Reference: flip-flop clocked normally.
        let mut reference = Simulator::new(&build(false), &lib, SimOptions::default()).unwrap();
        reference.poke("clk", Lv::Zero).unwrap();
        let data = [Lv::One, Lv::Zero, Lv::Zero, Lv::One, Lv::One];
        for (i, v) in data.iter().enumerate() {
            let t0 = 10.0 * i as f64;
            reference.poke_at("d", *v, t0 + 1.0).unwrap();
            reference.poke_at("clk", Lv::One, t0 + 5.0).unwrap();
            reference.poke_at("clk", Lv::Zero, t0 + 8.0).unwrap();
        }
        reference.run_for(60.0);

        // DUT: latch pair with non-overlapping enables; the slave closes
        // where the flip-flop's rising edge was.
        let mut dut = Simulator::new(&build(true), &lib, SimOptions::default()).unwrap();
        dut.poke("gm", Lv::Zero).unwrap();
        dut.poke("gs", Lv::Zero).unwrap();
        for (i, v) in data.iter().enumerate() {
            let t0 = 10.0 * i as f64;
            dut.poke_at("d", *v, t0 + 1.0).unwrap();
            // Master transparent while clock low, slave pulses after.
            dut.poke_at("gm", Lv::One, t0 + 2.0).unwrap();
            dut.poke_at("gm", Lv::Zero, t0 + 5.0).unwrap();
            dut.poke_at("gs", Lv::One, t0 + 6.0).unwrap();
            dut.poke_at("gs", Lv::Zero, t0 + 8.0).unwrap();
        }
        dut.run_for(60.0);

        let ref_seq = reference.captures().sequence("r1").unwrap();
        let dut_seq = dut.captures().sequence("r1_ls").unwrap();
        assert_eq!(ref_seq, data.to_vec());
        assert_eq!(dut_seq, data.to_vec());
    }
}
