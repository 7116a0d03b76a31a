//! Automatic region creation — the grouping algorithm (§3.2.2).
//!
//! A *region* is a combinational logic cloud together with the flip-flops
//! it drives; regions must be independent (no connections between the
//! clouds of different regions). The algorithm of Fig. 3.3/3.4:
//!
//! 1. group together all combinational gates connected to each other (and
//!    the sequential elements they drive),
//! 2. add to each group the sequential elements directly driven by the
//!    group's sequential members (FF→FF history chains),
//! 3. assign all remaining sequential elements — flip-flops registering
//!    circuit inputs — to the extra *Group 0*.
//!
//! Heuristics from the paper: logic cleaning (buffers and inverter pairs
//! removed first, Fig. 3.5 — see [`clean_for_grouping`]), by-name bus
//! grouping (Fig. 3.6), and user-marked false-path nets (global resets,
//! clock-gating controls) that are ignored during traversal. The clock
//! net is excluded automatically.

use std::collections::HashMap;

use drd_liberty::{CellClass, Library, SeqKind};
use drd_netlist::passes::{clean_logic, CleanKind, CleanStats};
use drd_netlist::{
    CellId, CellKind, Conn, Connectivity, Endpoint, KindRef, Module, NetId, NetlistError, PinUse,
    Symbol,
};

use crate::DesyncError;

/// Options for the grouping pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupingOptions {
    /// Use the by-name bus heuristic (Fig. 3.6). Off by default;
    /// [`GroupingOptions::recommended`], the paper's configuration, turns
    /// it on.
    pub bus_grouping: bool,
    /// Net names to ignore as false paths (§3.2.2 "False Paths").
    pub false_path_nets: Vec<String>,
    /// Put the whole circuit in a single region (the paper's ARM design,
    /// §5.3: "the ARM design was implemented using only one group").
    pub single_group: bool,
}

impl GroupingOptions {
    /// The paper's default configuration: bus grouping on.
    pub fn recommended() -> Self {
        GroupingOptions {
            bus_grouping: true,
            ..GroupingOptions::default()
        }
    }
}

/// One desynchronization region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name (`g0` is the input-register region).
    pub name: String,
    /// All member cells, in id order.
    pub cells: Vec<CellId>,
    /// The sequential members (targets of flip-flop substitution), in id
    /// order.
    pub seq_cells: Vec<CellId>,
    /// True for Group 0 (input-registering flip-flops with no logic cloud).
    pub is_input_region: bool,
}

/// Marks a cell id that belongs to no region in [`Regions`]' index.
const NO_REGION: u32 = u32::MAX;

/// The grouping result.
#[derive(Debug, Clone)]
pub struct Regions {
    /// Regions, `g0` (if any) last.
    pub regions: Vec<Region>,
    /// Region index per cell id, built once at construction, so
    /// [`Regions::region_of`] is one array read: the per-cell loops in DDG
    /// building call it once per pin.
    index: Vec<u32>,
}

impl Regions {
    /// Builds the grouping result, indexing every member cell. A cell
    /// listed in two regions belongs to the first.
    pub fn new(regions: Vec<Region>) -> Self {
        let slots = regions
            .iter()
            .flat_map(|r| &r.cells)
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);
        let mut index = vec![NO_REGION; slots];
        for (i, r) in regions.iter().enumerate().rev() {
            for c in &r.cells {
                index[c.index()] = i as u32;
            }
        }
        Regions { regions, index }
    }

    /// Index of the region containing `cell`; `None` for a cell in no
    /// region, such as one removed before grouping or added after it.
    pub fn region_of(&self, cell: CellId) -> Option<usize> {
        match self.index.get(cell.index()) {
            Some(&i) if i != NO_REGION => Some(i as usize),
            _ => None,
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no regions were formed.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// What clock identification, grouping and DDG building read of the
/// library, once per cell-kind symbol of a module: whether the kind is a
/// library cell, whether it is sequential, and the module symbol of its
/// clock (flip-flop) or enable (latch) pin. The passes then read an array
/// per cell instead of looking the cell's kind up in the library by name.
pub(crate) struct CellKinds {
    /// Kind symbol index → `facts` slot; [`NO_KIND`] for a symbol no
    /// library-cell kind of the module uses.
    slot: Vec<u32>,
    facts: Vec<KindFacts>,
}

#[derive(Debug, Clone, Copy)]
struct KindFacts {
    known: bool,
    sequential: bool,
    /// `None` also when the pin name is absent from the module's symbol
    /// table: no cell can connect it then.
    clock_pin: Option<Symbol>,
}

/// What a submodule instance or a kind missing from the library reads as.
const UNKNOWN_KIND: KindFacts = KindFacts {
    known: false,
    sequential: false,
    clock_pin: None,
};

const NO_KIND: u32 = u32::MAX;

impl CellKinds {
    pub(crate) fn new(module: &Module, lib: &Library) -> Self {
        let mut kinds = CellKinds {
            slot: Vec::new(),
            facts: Vec::new(),
        };
        for id in module.cell_ids() {
            let CellKind::Lib(sym) = module.cell_kind(id) else {
                continue;
            };
            let i = sym.index();
            if kinds.slot.len() <= i {
                kinds.slot.resize(i + 1, NO_KIND);
            }
            if kinds.slot[i] != NO_KIND {
                continue;
            }
            kinds.slot[i] = kinds.facts.len() as u32;
            kinds.facts.push(match lib.cell(module.resolve(sym)) {
                None => UNKNOWN_KIND,
                Some(lc) => KindFacts {
                    known: true,
                    sequential: lc.is_sequential(),
                    clock_pin: match &lc.seq {
                        SeqKind::FlipFlop(ff) => module.lookup_sym(&ff.clocked_on),
                        SeqKind::Latch(l) => module.lookup_sym(&l.enable),
                        _ => None,
                    },
                },
            });
        }
        kinds
    }

    fn facts(&self, kind: CellKind) -> KindFacts {
        match kind {
            CellKind::Lib(sym) => self
                .slot
                .get(sym.index())
                .and_then(|&slot| self.facts.get(slot as usize))
                .copied()
                .unwrap_or(UNKNOWN_KIND),
            CellKind::Instance(_) => UNKNOWN_KIND,
        }
    }

    /// Whether `kind` is a cell of the library.
    pub(crate) fn is_known(&self, kind: CellKind) -> bool {
        self.facts(kind).known
    }

    /// Whether `kind` is a sequential library cell.
    pub(crate) fn is_sequential(&self, kind: CellKind) -> bool {
        self.facts(kind).sequential
    }

    /// The clock (flip-flop) or enable (latch) pin of `kind`.
    pub(crate) fn clock_pin(&self, kind: CellKind) -> Option<Symbol> {
        self.facts(kind).clock_pin
    }
}

/// Identifies the clock net: the net driving the largest number of
/// sequential clock/enable pins. Ties are broken deterministically —
/// port-driven nets win over internally generated ones (a gated clock must
/// not shadow the primary clock it derives from), then the
/// lexicographically smallest net name.
pub fn find_clock_net(module: &Module, lib: &Library) -> Option<NetId> {
    clock_net(module, &CellKinds::new(module, lib))
}

/// [`find_clock_net`] over the module's [`CellKinds`]: the clock pins are
/// counted per net in a dense array.
fn clock_net(module: &Module, kinds: &CellKinds) -> Option<NetId> {
    let mut counts = vec![0u32; module.net_count()];
    for id in module.cell_ids() {
        let Some(pin) = kinds.clock_pin(module.cell_kind(id)) else {
            continue;
        };
        let conn = module.cell_pins(id).iter().find(|&&(p, _)| p == pin);
        if let Some(&(_, Conn::Net(n))) = conn {
            counts[n.index()] += 1;
        }
    }
    let mut port_net = vec![false; module.net_count()];
    for (_, port) in module.ports() {
        port_net[port.net.index()] = true;
    }
    let key = |n: NetId| (counts[n.index()], port_net[n.index()]);
    (0..module.net_count())
        .map(NetId::from_index)
        .filter(|n| counts[n.index()] > 0)
        .max_by(|&n1, &n2| {
            key(n1)
                .cmp(&key(n2))
                .then_with(|| module.net(n2).name.cmp(module.net(n1).name))
        })
}

/// Classifier for the cleaning pass: buffers and inverters of `lib`.
pub fn clean_classifier(lib: &Library) -> impl Fn(KindRef<'_>) -> Option<CleanKind> + '_ {
    |kind: KindRef<'_>| {
        let lc = lib.cell_of(kind)?;
        if lc.class() != CellClass::Combinational {
            return None;
        }
        let inputs: Vec<_> = lc.input_pins().collect();
        let outputs: Vec<_> = lc.output_pins().collect();
        if inputs.len() != 1 || outputs.len() != 1 {
            return None;
        }
        let f = outputs[0].function.as_ref()?;
        use drd_liberty::function::Expr;
        match f {
            Expr::Var(v) if *v == inputs[0].name => Some(CleanKind::Buffer {
                input: inputs[0].name.clone(),
                output: outputs[0].name.clone(),
            }),
            Expr::Not(inner) => match inner.as_ref() {
                Expr::Var(v) if *v == inputs[0].name => Some(CleanKind::Inverter {
                    input: inputs[0].name.clone(),
                    output: outputs[0].name.clone(),
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Removes synthesis buffering from `module` so grouping sees only true
/// data dependencies (§3.2.2 "Logic Cleaning", Fig. 3.5). Also returns
/// the cleaned module's connectivity, which the clean's last round built
/// (see [`clean_logic`]): grouping, the DDG and delay matching read it.
pub fn clean_for_grouping(
    module: &mut Module,
    lib: &Library,
) -> (CleanStats, Result<Connectivity, NetlistError>) {
    clean_logic(module, lib, clean_classifier(lib))
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = i;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb) as u32;
        }
    }
}

/// Runs the grouping algorithm on a (cleaned) module.
///
/// The union-find runs over cell ids and keeps the smaller id as a
/// class's root, so one ascending sweep collects the classes: regions are
/// numbered in order of their smallest member and list their members in
/// id order.
///
/// `conn` is `module`'s connectivity as [`Module::connectivity`] builds it
/// against `lib`, or that build's error. The error is returned where the
/// traversal first reads the tables, after the unknown-cell check (and
/// never in single-group mode, which reads none), so a snapshot built
/// ahead of time fails as one built here would.
///
/// # Errors
/// Returns [`DesyncError::UnknownCell`] for cells missing from the
/// library, and propagates connectivity errors.
pub fn group(
    module: &Module,
    lib: &Library,
    opts: &GroupingOptions,
    conn: &Result<Connectivity, NetlistError>,
) -> Result<Regions, DesyncError> {
    // Per-cell library facts, read once per kind: whether the cell is
    // sequential, and its clock/enable pin, which traversal never crosses.
    let kinds = CellKinds::new(module, lib);
    let slots = module.cell_slots();
    let mut seq = vec![false; slots];
    let mut clock_pin: Vec<Option<Symbol>> = vec![None; slots];
    for id in module.cell_ids() {
        let kind = module.cell_kind(id);
        if !kinds.is_known(kind) {
            return Err(DesyncError::UnknownCell {
                name: module.kind_ref(kind).name().to_owned(),
            });
        }
        seq[id.index()] = kinds.is_sequential(kind);
        clock_pin[id.index()] = kinds.clock_pin(kind);
    }
    let seq_of = |cells: &[CellId]| -> Vec<CellId> {
        cells.iter().copied().filter(|c| seq[c.index()]).collect()
    };

    if opts.single_group {
        let cells: Vec<CellId> = module.cell_ids().collect();
        return Ok(Regions::new(vec![Region {
            name: "g1".into(),
            seq_cells: seq_of(&cells),
            cells,
            is_input_region: false,
        }]));
    }

    // False-path nets: user-marked plus the clock.
    let mut false_net = vec![false; module.net_count()];
    let marked = opts
        .false_path_nets
        .iter()
        .filter_map(|n| module.find_net(n));
    for net in marked.chain(clock_net(module, &kinds)) {
        false_net[net.index()] = true;
    }

    let conn = conn.as_ref().map_err(|e| e.clone())?;
    let mut uf = UnionFind::new(slots);

    // Steps 1 and 2, one union per driver-load pair: a combinational
    // driver joins every cell it feeds (its gate neighbours and the
    // sequential elements it drives); a sequential driver joins only the
    // sequential elements it drives directly (FF→FF history chains). No
    // union crosses a false-path net or a clock/enable pin. Union-find
    // classes do not depend on the order of the unions.
    for net in (0..module.net_count()).map(NetId::from_index) {
        let Some(Endpoint::Pin(d)) = conn.driver(net) else {
            continue;
        };
        if false_net[net.index()] {
            continue;
        }
        for load in conn.loads(net) {
            let &Endpoint::Pin(PinUse { cell, pin }) = load else {
                continue;
            };
            let (from, to) = (d.cell.index(), cell.index());
            let clockish = clock_pin[to] == Some(module.cell_pins(cell)[pin as usize].0);
            if clockish || (seq[from] && !seq[to]) {
                continue;
            }
            uf.union(from, to);
        }
    }

    // Bus heuristic (Fig. 3.6): drivers of bits of the same bus group
    // together.
    if opts.bus_grouping {
        let mut bus_driver: HashMap<&str, usize> = HashMap::new();
        for (nid, net) in module.nets() {
            let Some(bus) = &net.bus else { continue };
            if false_net[nid.index()] {
                continue;
            }
            let Some(Endpoint::Pin(p)) = conn.driver(nid) else {
                continue;
            };
            let first = *bus_driver.entry(bus.base).or_insert(p.cell.index());
            uf.union(first, p.cell.index());
        }
    }

    // Collect the classes: a root is its class's smallest id, so the
    // ascending sweep meets it before any other member.
    let mut class_at = vec![0u32; slots];
    let mut classes: Vec<Vec<CellId>> = Vec::new();
    for id in module.cell_ids() {
        let root = uf.find(id.index());
        if root == id.index() {
            class_at[root] = classes.len() as u32;
            classes.push(Vec::new());
        }
        classes[class_at[root] as usize].push(id);
    }

    // Step 3: a lone flip-flop with no cloud falls into Group 0.
    let mut regions: Vec<Region> = Vec::new();
    let mut group0: Vec<CellId> = Vec::new();
    for cells in classes {
        if let [only] = cells[..] {
            if seq[only.index()] {
                group0.push(only);
                continue;
            }
        }
        regions.push(Region {
            name: format!("g{}", regions.len() + 1),
            seq_cells: seq_of(&cells),
            cells,
            is_input_region: false,
        });
    }
    if !group0.is_empty() {
        regions.push(Region {
            name: "g0".into(),
            seq_cells: group0.clone(),
            cells: group0,
            is_input_region: true,
        });
    }
    Ok(Regions::new(regions))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::PortDir;

    /// `group` over a fresh connectivity snapshot of `m`, in vlib90-HS.
    fn grouped(m: &Module, opts: &GroupingOptions) -> Regions {
        let lib = vlib90::high_speed();
        group(m, &lib, opts, &m.connectivity(&lib)).unwrap()
    }

    /// The region of the cell named `name` in `m`.
    fn region_named(regions: &Regions, m: &Module, name: &str) -> Option<usize> {
        regions.region_of(m.find_cell(name)?)
    }

    /// Whether the cells named `a` and `b` share a region.
    fn same_region(regions: &Regions, m: &Module, a: &str, b: &str) -> bool {
        region_named(regions, m, a) == region_named(regions, m, b)
    }

    /// Builds a 2-stage pipeline: in → r_in → cloud1 → r1 → cloud2 → r2.
    fn pipeline() -> Module {
        let mut m = Module::new("p");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("din", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let din = m.find_net("din").unwrap();
        let q0 = m.add_net("q0").unwrap();
        m.add_cell(
            "r_in",
            "DFFX1",
            &[
                ("D", Conn::Net(din)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q0)),
            ],
        )
        .unwrap();
        let n1 = m.add_net("n1").unwrap();
        m.add_cell("c1", "INVX1", &[("A", Conn::Net(q0)), ("Z", Conn::Net(n1))])
            .unwrap();
        let q1 = m.add_net("q1").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(n1)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q1)),
            ],
        )
        .unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell(
            "c2",
            "NAND2X1",
            &[
                ("A", Conn::Net(q1)),
                ("B", Conn::Net(q0)),
                ("Z", Conn::Net(n2)),
            ],
        )
        .unwrap();
        let q2 = m.add_net("q2").unwrap();
        m.add_cell(
            "r2",
            "DFFX1",
            &[
                ("D", Conn::Net(n2)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q2)),
            ],
        )
        .unwrap();
        m
    }

    #[test]
    fn clock_net_is_found() {
        let m = pipeline();
        let lib = vlib90::high_speed();
        let clk = find_clock_net(&m, &lib).unwrap();
        assert_eq!(m.net(clk).name, "clk");
    }

    #[test]
    fn pipeline_groups_into_stage_regions() {
        let m = pipeline();
        let regions = grouped(&m, &GroupingOptions::recommended());
        // Expected: {c1, r1}, {c2, r2}, and g0 = {r_in}.
        assert_eq!(regions.len(), 3);
        let r_c1 = region_named(&regions, &m, "c1").unwrap();
        assert_eq!(region_named(&regions, &m, "r1"), Some(r_c1));
        let r_c2 = region_named(&regions, &m, "c2").unwrap();
        assert_eq!(region_named(&regions, &m, "r2"), Some(r_c2));
        assert_ne!(r_c1, r_c2);
        let g0 = region_named(&regions, &m, "r_in").unwrap();
        assert!(regions.regions[g0].is_input_region);
        assert_eq!(regions.regions[g0].name, "g0");
    }

    #[test]
    fn single_group_mode() {
        let m = pipeline();
        let regions = grouped(
            &m,
            &GroupingOptions {
                single_group: true,
                ..GroupingOptions::default()
            },
        );
        assert_eq!(regions.len(), 1);
        assert_eq!(regions.regions[0].cells.len(), 5);
        assert_eq!(regions.regions[0].seq_cells.len(), 3);
    }

    #[test]
    fn false_path_nets_are_ignored() {
        // A comb-driven global net (e.g. a decoded clock-gating control)
        // tied to both clouds merges them; marking it as a false path
        // keeps them separate.
        let mut m = pipeline();
        let q0 = m.find_net("q0").unwrap();
        let g = m.add_net("gate_en").unwrap();
        m.add_cell(
            "genv",
            "INVX1",
            &[("A", Conn::Net(q0)), ("Z", Conn::Net(g))],
        )
        .unwrap();
        let n1b = m.add_net("n1b").unwrap();
        let c1 = m.find_cell("c1").unwrap();
        // Re-route cloud1 through an AND with the global signal.
        let n1 = m.find_net("n1").unwrap();
        m.set_pin(c1, "Z", Conn::Net(n1b));
        m.add_cell(
            "c1g",
            "AND2X1",
            &[
                ("A", Conn::Net(n1b)),
                ("B", Conn::Net(g)),
                ("Z", Conn::Net(n1)),
            ],
        )
        .unwrap();
        let c2 = m.find_cell("c2").unwrap();
        let n2 = m.find_net("n2").unwrap();
        let n2b = m.add_net("n2b").unwrap();
        m.set_pin(c2, "Z", Conn::Net(n2b));
        m.add_cell(
            "c2g",
            "AND2X1",
            &[
                ("A", Conn::Net(n2b)),
                ("B", Conn::Net(g)),
                ("Z", Conn::Net(n2)),
            ],
        )
        .unwrap();

        let merged = grouped(&m, &GroupingOptions::recommended());
        assert!(
            same_region(&merged, &m, "c1", "c2"),
            "global net merges clouds without false-path marking"
        );

        let opts = GroupingOptions {
            bus_grouping: true,
            false_path_nets: vec!["gate_en".into()],
            ..GroupingOptions::default()
        };
        let split = grouped(&m, &opts);
        assert!(!same_region(&split, &m, "c1", "c2"));
    }

    #[test]
    fn buffer_cleaning_removes_false_dependencies() {
        // Fig. 3.5: a buffer inserted between two clouds creates a false
        // dependency; cleaning removes it.
        let mut m = pipeline();
        let lib = vlib90::high_speed();
        // Insert a buffer driving both clouds' inputs from q0.
        let q0 = m.find_net("q0").unwrap();
        let bufd = m.add_net("q0_buf").unwrap();
        let c1 = m.find_cell("c1").unwrap();
        let c2 = m.find_cell("c2").unwrap();
        m.set_pin(c1, "A", Conn::Net(bufd));
        m.set_pin(c2, "B", Conn::Net(bufd));
        m.add_cell(
            "buf0",
            "BUFX1",
            &[("A", Conn::Net(q0)), ("Z", Conn::Net(bufd))],
        )
        .unwrap();
        // Without cleaning the buffer is itself a comb cell connected to
        // both clouds → everything merges.
        let merged = grouped(&m, &GroupingOptions::recommended());
        assert!(same_region(&merged, &m, "c1", "c2"));
        // After cleaning, the regions split again.
        let (stats, _) = clean_for_grouping(&mut m, &lib);
        assert_eq!(stats.buffers_removed, 1);
        let split = grouped(&m, &GroupingOptions::recommended());
        assert!(!same_region(&split, &m, "c1", "c2"));
    }

    #[test]
    fn bus_grouping_merges_bus_bit_drivers() {
        let mut m = Module::new("b");
        m.add_port("clk", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        // Two independent clouds driving bits of the same output bus.
        for i in 0..2 {
            let qa = m.add_net(format!("qa{i}")).unwrap();
            let qb = m.add_net(format!("d[{i}]")).unwrap();
            m.add_cell(
                format!("rin{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(qb)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(qa)),
                ],
            )
            .unwrap();
            let bus_bit = m.add_net(format!("bus[{i}]")).unwrap();
            m.add_cell(
                format!("inv{i}"),
                "INVX1",
                &[("A", Conn::Net(qa)), ("Z", Conn::Net(bus_bit))],
            )
            .unwrap();
        }
        let no_bus = grouped(&m, &GroupingOptions::default());
        assert!(!same_region(&no_bus, &m, "inv0", "inv1"));
        let with_bus = grouped(&m, &GroupingOptions::recommended());
        assert!(same_region(&with_bus, &m, "inv0", "inv1"));
    }

    #[test]
    fn ff_to_ff_chains_join_the_driver_region() {
        let mut m = pipeline();
        // r2 directly drives a history flip-flop r3.
        let clk = m.find_net("clk").unwrap();
        let q2 = m.find_net("q2").unwrap();
        let q3 = m.add_net("q3").unwrap();
        m.add_cell(
            "r3",
            "DFFX1",
            &[
                ("D", Conn::Net(q2)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q3)),
            ],
        )
        .unwrap();
        let regions = grouped(&m, &GroupingOptions::recommended());
        assert!(same_region(&regions, &m, "r3", "r2"));
    }

    #[test]
    fn region_lookup_uses_the_prebuilt_index() {
        let lib = vlib90::high_speed();
        let mut m = pipeline();
        // c2 reads r1 through a buffer that cleaning removes; the history
        // flip-flop r3 added after it puts the buffer's slot inside the index.
        let (clk, q1, q2) = (
            m.find_net("clk").unwrap(),
            m.find_net("q1").unwrap(),
            m.find_net("q2").unwrap(),
        );
        let (q1_buf, q3) = (m.add_net("q1_buf").unwrap(), m.add_net("q3").unwrap());
        let c2 = m.find_cell("c2").unwrap();
        m.set_pin(c2, "A", Conn::Net(q1_buf));
        let buf = m
            .add_cell(
                "buf0",
                "BUFX1",
                &[("A", Conn::Net(q1)), ("Z", Conn::Net(q1_buf))],
            )
            .unwrap();
        let r3 = m
            .add_cell(
                "r3",
                "DFFX1",
                &[
                    ("D", Conn::Net(q2)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q3)),
                ],
            )
            .unwrap();
        let (_, conn) = clean_for_grouping(&mut m, &lib);
        let regions = group(&m, &lib, &GroupingOptions::recommended(), &conn).unwrap();
        // Every member resolves through the id index, and the index agrees
        // with a full scan of the membership lists.
        for (i, r) in regions.regions.iter().enumerate() {
            for &c in &r.cells {
                assert_eq!(regions.region_of(c), Some(i), "cell {c}");
            }
        }
        // Neither the removed buffer nor a cell added after grouping (past
        // the index's end) is in a region.
        let late = m
            .add_cell(
                "late",
                "INVX1",
                &[("A", Conn::Net(q3)), ("Z", Conn::Net(q1_buf))],
            )
            .unwrap();
        assert!(!m.is_cell_alive(buf) && buf < r3 && r3 < late);
        assert_eq!(regions.region_of(r3), regions.region_of(c2));
        assert_eq!(regions.region_of(buf), None);
        assert_eq!(regions.region_of(late), None);
    }

    #[test]
    fn gated_clock_loses_to_the_primary_port_clock() {
        // Half the flip-flops run on a derived (gated) clock produced by
        // combinational logic; the other half on the port clock. With equal
        // clock-pin counts the port-driven net must win, independent of
        // hash-map iteration order.
        let lib = vlib90::high_speed();
        let mut m = Module::new("g");
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("en", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let en = m.find_net("en").unwrap();
        let gclk = m.add_net("aaa_gated").unwrap(); // sorts before "clk"
        m.add_cell(
            "cg",
            "AND2X1",
            &[
                ("A", Conn::Net(clk)),
                ("B", Conn::Net(en)),
                ("Z", Conn::Net(gclk)),
            ],
        )
        .unwrap();
        for i in 0..3 {
            let d = m.add_net(format!("d{i}")).unwrap();
            let qp = m.add_net(format!("qp{i}")).unwrap();
            let qg = m.add_net(format!("qg{i}")).unwrap();
            m.add_cell(
                format!("rp{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(qp)),
                ],
            )
            .unwrap();
            m.add_cell(
                format!("rg{i}"),
                "DFFX1",
                &[
                    ("D", Conn::Net(d)),
                    ("CK", Conn::Net(gclk)),
                    ("Q", Conn::Net(qg)),
                ],
            )
            .unwrap();
        }
        for _ in 0..32 {
            let found = find_clock_net(&m, &lib).unwrap();
            assert_eq!(m.net(found).name, "clk");
        }
    }

    #[test]
    fn equal_clock_counts_off_the_ports_go_to_the_smaller_net_name() {
        // Two internal nets clock one flip-flop each, and neither is a
        // port: the count and the port rule tie, so the smaller name wins,
        // whichever net was created (and numbered) first.
        let lib = vlib90::high_speed();
        for names in [["zz_ck", "aa_ck"], ["aa_ck", "zz_ck"]] {
            let mut m = Module::new("t");
            m.add_port("d", PortDir::Input).unwrap();
            let d = m.find_net("d").unwrap();
            for (i, name) in names.iter().enumerate() {
                let ck = m.add_net(*name).unwrap();
                let q = m.add_net(format!("q{i}")).unwrap();
                m.add_cell(
                    format!("r{i}"),
                    "DFFX1",
                    &[
                        ("D", Conn::Net(d)),
                        ("CK", Conn::Net(ck)),
                        ("Q", Conn::Net(q)),
                    ],
                )
                .unwrap();
            }
            let found = find_clock_net(&m, &lib).unwrap();
            assert_eq!(m.net(found).name, "aa_ck", "created {names:?}");
        }
    }
}
