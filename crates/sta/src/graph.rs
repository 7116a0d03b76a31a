//! Pin-level timing-graph construction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use drd_liberty::{LibCell, Library, SeqKind};
use drd_netlist::{
    CellId, CellKind, Conn, Connectivity, Design, Endpoint, KindRef, Module, NetId, PortDir,
    PortId, Symbol,
};

use crate::StaError;

/// Handle to a timing-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Handle to a timing-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) u32);

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A cell pin (`cell`, index into the cell's pin list).
    Pin {
        /// Owning cell.
        cell: CellId,
        /// Pin index within the cell's pin list.
        pin: u32,
    },
    /// A module port.
    Port(PortId),
}

/// What an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A pin-to-pin arc inside a cell.
    CellArc,
    /// A net connection from a driver to one load.
    Net,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    /// Pretty `instance/pin` or `port` name for reports.
    pub name: String,
    /// True if timing is disabled through this pin (§4.6.1).
    pub disabled: bool,
    /// True if this node is a timing endpoint (sequential data input or
    /// output port).
    pub endpoint: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    /// Typical-corner delay (ns), already including load-dependent terms.
    pub delay: f64,
    pub kind: EdgeKind,
    /// Cut by loop breaking or pin disabling.
    pub disabled: bool,
}

/// Options controlling graph construction.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// Include clock→Q / enable→Q launch arcs (default: false, so
    /// sequential outputs become path sources).
    pub include_clock_to_q: bool,
    /// Treat latches as transparent (include D→Q arcs). Default: false —
    /// latches are region boundaries, as the desynchronization timing
    /// constraints demand (§4.5.1).
    pub latch_transparent: bool,
    /// Extra wire delay added to every net edge (a crude pre-layout wire
    /// model; the backend replaces it with fanout-dependent estimates).
    pub wire_delay: f64,
    /// Timing arcs for module instances (black boxes), keyed by module
    /// name: `(input port, output port, delay)` — used for delay-element
    /// and controller instances.
    pub instance_arcs: HashMap<String, Vec<(String, String, f64)>>,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            include_clock_to_q: false,
            latch_transparent: false,
            wire_delay: 0.0,
            instance_arcs: HashMap::new(),
        }
    }
}

/// Timing arcs and endpoint pins of one library cell, with pin names
/// resolved against the module's symbol table once and then replayed for
/// every instance of that kind — arc construction never touches strings.
#[derive(Debug, Default)]
struct KindArcs {
    /// `(from pin, to pin, intrinsic delay, output drive resistance)` for
    /// every arc enabled under the current [`GraphOptions`].
    arcs: Vec<(Symbol, Symbol, f64, f64)>,
    /// Sequential data inputs (timing endpoints).
    endpoints: Vec<Symbol>,
}

fn prepare_kind(module: &Module, lc: &LibCell, opts: &GraphOptions) -> KindArcs {
    let mut k = KindArcs::default();
    // Which input pin launches paths through this cell?
    let blocked_from: Option<&str> = match &lc.seq {
        SeqKind::None | SeqKind::CElement { .. } => None,
        SeqKind::FlipFlop(ff) => Some(ff.clocked_on.as_str()),
        SeqKind::Latch(l) => Some(l.enable.as_str()),
    };
    let is_latch = matches!(lc.seq, SeqKind::Latch(_));
    for arc in &lc.arcs {
        let through_clock = Some(arc.from.as_str()) == blocked_from;
        let allowed = match &lc.seq {
            SeqKind::None | SeqKind::CElement { .. } => true,
            SeqKind::FlipFlop(_) => opts.include_clock_to_q && through_clock,
            SeqKind::Latch(_) => {
                (through_clock && opts.include_clock_to_q)
                    || (!through_clock && (opts.latch_transparent && is_latch))
            }
        };
        if !allowed {
            continue;
        }
        // A pin name that was never interned in the module cannot be
        // connected on any instance — the arc can never materialize.
        let (Some(from), Some(to)) = (module.lookup_sym(&arc.from), module.lookup_sym(&arc.to))
        else {
            continue;
        };
        let res = lc.pin(&arc.to).map(|p| p.drive_resistance).unwrap_or(0.0);
        k.arcs.push((from, to, arc.rise.max(arc.fall), res));
    }
    if let Some(clockish) = blocked_from {
        for pin in lc.input_pins() {
            if pin.name == clockish {
                continue;
            }
            if let Some(s) = module.lookup_sym(&pin.name) {
                k.endpoints.push(s);
            }
        }
    }
    k
}

/// Net load capacitances (input-pin caps of all loads), with per-kind
/// `(pin symbol, capacitance)` tables derived once per distinct cell kind.
fn net_loads(module: &Module, lib: &Library) -> Result<Vec<f64>, StaError> {
    let mut kind_caps: HashMap<Symbol, Vec<(Symbol, f64)>> = HashMap::new();
    let mut net_load: Vec<f64> = vec![0.0; module.net_count()];
    for (_, cell) in module.cells() {
        let CellKind::Lib(kind) = cell.kind else { continue };
        let caps = match kind_caps.entry(kind) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let lc = lib.cell(module.resolve(kind)).ok_or_else(|| StaError::UnknownCell {
                    name: module.resolve(kind).to_owned(),
                })?;
                e.insert(
                    lc.input_pins()
                        .filter_map(|p| module.lookup_sym(&p.name).map(|s| (s, p.capacitance)))
                        .collect(),
                )
            }
        };
        for &(pin, c) in cell.pins() {
            if let Conn::Net(n) = c {
                if let Some(&(_, cap)) = caps.iter().find(|&&(s, _)| s == pin) {
                    net_load[n.index()] += cap;
                }
            }
        }
    }
    Ok(net_load)
}

fn check_lib_cells(module: &Module, lib: &Library) -> Result<(), StaError> {
    for (_, cell) in module.cells() {
        if let KindRef::Lib(name) = cell.kind_ref() {
            if lib.cell(name).is_none() {
                return Err(StaError::UnknownCell {
                    name: name.to_owned(),
                });
            }
        }
    }
    Ok(())
}

/// Shared read-only preparation for building many per-region subset
/// graphs of one module (see [`TimingGraph::build_subset`]): connectivity
/// and full-module net load capacitances are derived once and then shared
/// — the struct is `Sync`, so region tasks can build their subgraphs in
/// parallel.
#[derive(Debug)]
pub struct SubsetContext<'a> {
    module: &'a Module,
    conn: Connectivity,
    net_load: Vec<f64>,
}

impl<'a> SubsetContext<'a> {
    /// Prepares subset building for `module`, which must contain library
    /// cells only (instances are allowed but get arcs solely through
    /// [`GraphOptions::instance_arcs`]).
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells or a malformed netlist.
    pub fn new(module: &'a Module, lib: &Library) -> Result<Self, StaError> {
        check_lib_cells(module, lib)?;
        let conn = module.connectivity(lib).map_err(|e| StaError::BadNetlist {
            message: e.to_string(),
        })?;
        let net_load = net_loads(module, lib)?;
        Ok(SubsetContext {
            module,
            conn,
            net_load,
        })
    }

    /// The module this context was prepared for.
    pub fn module(&self) -> &'a Module {
        self.module
    }
}

/// A pin-level timing graph for one module.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) out: Vec<Vec<EdgeId>>,
    pin_nodes: HashMap<(CellId, u32), NodeId>,
    port_nodes: HashMap<PortId, NodeId>,
    /// First pin index carrying each pin-name symbol on a cell.
    pin_ids: HashMap<(CellId, Symbol), u32>,
}

impl TimingGraph {
    /// Builds the timing graph of a standalone module (no submodule
    /// instances, unless they are covered by
    /// [`GraphOptions::instance_arcs`]).
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells/pins or a malformed netlist.
    pub fn build(module: &Module, lib: &Library, opts: &GraphOptions) -> Result<Self, StaError> {
        let mut design = Design::new();
        design.insert(module.clone());
        let top = design.top();
        Self::build_in_design(&design, top, lib, opts)
    }

    /// Builds the timing graph of `design.module(id)`, resolving instance
    /// pin directions through the design's module ports.
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells/pins or a malformed netlist.
    pub fn build_in_design(
        design: &Design,
        id: drd_netlist::ModuleId,
        lib: &Library,
        opts: &GraphOptions,
    ) -> Result<Self, StaError> {
        let module = design.module(id);
        // Verify library references up-front so unknown cells are reported
        // as such rather than as connectivity failures.
        check_lib_cells(module, lib)?;
        let dirs = design.pin_dirs(lib);
        let conn = module
            .connectivity(&dirs)
            .map_err(|e| StaError::BadNetlist {
                message: e.to_string(),
            })?;

        let mut g = TimingGraph::empty();
        let net_load = net_loads(module, lib)?;

        // Nodes for ports.
        for (pid, port) in module.ports() {
            g.push_port_node(pid, port.name, port.dir);
        }

        // Nodes for cell pins + intra-cell arcs (arc pin names resolved
        // once per distinct cell kind).
        let mut kinds: HashMap<Symbol, KindArcs> = HashMap::new();
        for (cid, cell) in module.cells() {
            g.push_cell_nodes(cid, cell);
            match cell.kind {
                CellKind::Lib(kind) => {
                    let ka = kind_arcs(&mut kinds, module, lib, opts, kind)?;
                    g.add_kind_arcs(module, cid, ka, &net_load);
                }
                CellKind::Instance(kind) => {
                    g.add_instance_arcs(module, cid, kind, opts);
                }
            }
        }

        // Net edges: driver → each load.
        for (nid, _net) in module.nets() {
            let Some(driver) = conn.driver(nid) else { continue };
            let Some(from) = g.endpoint_node(driver) else { continue };
            for load in conn.loads(nid) {
                if let Some(to) = g.endpoint_node(*load) {
                    g.push_edge(from, to, opts.wire_delay, EdgeKind::Net);
                }
            }
        }
        Ok(g)
    }

    /// Builds the timing graph restricted to `cells` (all module ports are
    /// kept). Shared read-only preparation — connectivity and net load
    /// capacitances — comes from `cx`, so many subset graphs of the same
    /// module can be built concurrently without re-deriving O(design)
    /// state per call.
    ///
    /// Net loads are taken from the **full** module, so arc delays match
    /// [`TimingGraph::build`] exactly. Arrival times at the subset's
    /// endpoints equal the full-graph arrivals whenever every path into
    /// them stays inside `cells` — which holds for desynchronization
    /// regions: clouds of different regions are disjoint, and with the
    /// default [`GraphOptions`] sequential outputs and ports are zero-
    /// arrival sources either way.
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells or pins.
    pub fn build_subset(
        cx: &SubsetContext<'_>,
        lib: &Library,
        opts: &GraphOptions,
        cells: &[CellId],
    ) -> Result<Self, StaError> {
        let module = cx.module;
        let mut g = TimingGraph::empty();

        // Nodes for ports (zero-arrival sources / output endpoints).
        for (pid, port) in module.ports() {
            g.push_port_node(pid, port.name, port.dir);
        }

        // Nodes and arcs for the subset cells only.
        let mut kinds: HashMap<Symbol, KindArcs> = HashMap::new();
        for &cid in cells {
            let cell = module.cell(cid);
            g.push_cell_nodes(cid, cell);
            match cell.kind {
                CellKind::Lib(kind) => {
                    let ka = kind_arcs(&mut kinds, module, lib, opts, kind)?;
                    g.add_kind_arcs(module, cid, ka, &cx.net_load);
                }
                CellKind::Instance(kind) => {
                    g.add_instance_arcs(module, cid, kind, opts);
                }
            }
        }

        // Net edges over the nets touched by the subset (plus port nets),
        // visited in net-id order for a deterministic edge list.
        let mut touched: Vec<NetId> = Vec::new();
        for (_, port) in module.ports() {
            touched.push(port.net);
        }
        for &cid in cells {
            for &(_, c) in module.cell_pins(cid) {
                if let Conn::Net(n) = c {
                    touched.push(n);
                }
            }
        }
        touched.sort_unstable_by_key(|n| n.index());
        touched.dedup();
        for nid in touched {
            let Some(driver) = cx.conn.driver(nid) else { continue };
            let Some(from) = g.endpoint_node(driver) else { continue };
            for load in cx.conn.loads(nid) {
                if let Some(to) = g.endpoint_node(*load) {
                    g.push_edge(from, to, opts.wire_delay, EdgeKind::Net);
                }
            }
        }
        Ok(g)
    }

    fn empty() -> Self {
        TimingGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            pin_nodes: HashMap::new(),
            port_nodes: HashMap::new(),
            pin_ids: HashMap::new(),
        }
    }

    fn push_port_node(&mut self, pid: PortId, name: &str, dir: PortDir) {
        let node = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Port(pid),
            name: name.to_owned(),
            disabled: false,
            endpoint: dir != PortDir::Input,
        });
        self.port_nodes.insert(pid, node);
    }

    /// Creates nodes for every net-connected pin of `cell`.
    fn push_cell_nodes(&mut self, cid: CellId, cell: drd_netlist::Cell<'_>) {
        for (idx, &(pin, c)) in cell.pins().iter().enumerate() {
            if c.net().is_none() {
                continue;
            }
            let node = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                kind: NodeKind::Pin {
                    cell: cid,
                    pin: idx as u32,
                },
                name: format!("{}/{}", cell.name, cell.pin_name(idx)),
                disabled: false,
                endpoint: false,
            });
            self.pin_nodes.insert((cid, idx as u32), node);
            self.pin_ids.entry((cid, pin)).or_insert(idx as u32);
        }
    }

    /// Replays a kind's prepared arcs onto one instance and marks its
    /// sequential data inputs as endpoints.
    fn add_kind_arcs(&mut self, module: &Module, cid: CellId, ka: &KindArcs, net_load: &[f64]) {
        for &(from_sym, to_sym, intrinsic, res) in &ka.arcs {
            let (Some(&fi), Some(&ti)) = (
                self.pin_ids.get(&(cid, from_sym)),
                self.pin_ids.get(&(cid, to_sym)),
            ) else {
                continue;
            };
            let from = self.pin_nodes[&(cid, fi)];
            let to = self.pin_nodes[&(cid, ti)];
            // Load-dependent delay on the output pin.
            let load = module.cell_pins(cid)[ti as usize]
                .1
                .net()
                .map(|n| net_load[n.index()])
                .unwrap_or(0.0);
            self.push_edge(from, to, intrinsic + res * load, EdgeKind::CellArc);
        }
        for &s in &ka.endpoints {
            if let Some(&pi) = self.pin_ids.get(&(cid, s)) {
                let node = self.pin_nodes[&(cid, pi)];
                self.nodes[node.0 as usize].endpoint = true;
            }
        }
    }

    /// Adds black-box arcs of a module instance from
    /// [`GraphOptions::instance_arcs`]. Without arcs the instance is an
    /// opaque boundary: its inputs are endpoints, its outputs sources.
    fn add_instance_arcs(&mut self, module: &Module, cid: CellId, kind: Symbol, opts: &GraphOptions) {
        let Some(arcs) = opts.instance_arcs.get(module.resolve(kind)) else {
            return;
        };
        for (from, to, delay) in arcs {
            let pin_node = |pin: &str| self.find_pin(cid, module.lookup_sym(pin)?);
            let (Some(f), Some(t)) = (pin_node(from), pin_node(to)) else {
                continue;
            };
            self.push_edge(f, t, *delay, EdgeKind::CellArc);
        }
    }

    fn endpoint_node(&self, e: Endpoint) -> Option<NodeId> {
        match e {
            Endpoint::Pin(p) => self.pin_nodes.get(&(p.cell, p.pin)).copied(),
            Endpoint::Port(p) => self.port_nodes.get(&p).copied(),
        }
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, delay: f64, kind: EdgeKind) {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from,
            to,
            delay,
            kind,
            disabled: false,
        });
        if self.out.len() < self.nodes.len() {
            self.out.resize(self.nodes.len(), Vec::new());
        }
        self.out[from.0 as usize].push(id);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (including disabled ones).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Pretty name of a node (`instance/pin` or port name).
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Kind of a node.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0 as usize].kind
    }

    /// Finds the node of pin `pin` on `cell`: the first net-connected pin
    /// carrying that name. Callers holding names resolve them through the
    /// module ([`Module::find_cell`], [`Module::lookup_sym`]).
    pub fn find_pin(&self, cell: CellId, pin: Symbol) -> Option<NodeId> {
        let pi = *self.pin_ids.get(&(cell, pin))?;
        self.pin_nodes.get(&(cell, pi)).copied()
    }

    /// Disables timing through pin `pin` of `cell` (the paper's
    /// `set_disable_timing`, Fig. 4.5c). All arcs entering or leaving the
    /// pin are cut. Returns false if the graph has no such pin node.
    pub fn disable_pin(&mut self, cell: CellId, pin: Symbol) -> bool {
        let Some(node) = self.find_pin(cell, pin) else {
            return false;
        };
        self.nodes[node.0 as usize].disabled = true;
        for e in self.edges.iter_mut() {
            if e.from == node || e.to == node {
                e.disabled = true;
            }
        }
        true
    }

    /// Iterates over edges as `(from, to, delay, kind, disabled)`.
    pub fn edge_list(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, EdgeKind, bool)> + '_ {
        self.edges
            .iter()
            .map(|e| (e.from, e.to, e.delay, e.kind, e.disabled))
    }

    /// Iterates over the ids of all timing endpoints.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.endpoint)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Active (non-disabled) outgoing edges of `node`.
    pub(crate) fn active_out(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out
            .get(node.0 as usize)
            .into_iter()
            .flatten()
            .map(|&eid| (eid, &self.edges[eid.0 as usize]))
            .filter(|(_, e)| !e.disabled)
    }
}

/// Fetches (building on first use) the prepared arcs of `kind`.
fn kind_arcs<'a>(
    kinds: &'a mut HashMap<Symbol, KindArcs>,
    module: &Module,
    lib: &Library,
    opts: &GraphOptions,
    kind: Symbol,
) -> Result<&'a KindArcs, StaError> {
    Ok(match kinds.entry(kind) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let lc = lib.cell(module.resolve(kind)).ok_or_else(|| StaError::UnknownCell {
                name: module.resolve(kind).to_owned(),
            })?;
            e.insert(prepare_kind(module, lc, opts))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;

    fn chain_module() -> Module {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let clk = m.find_net("clk").unwrap();
        let z = m.find_net("z").unwrap();
        let n1 = m.add_net("n1").unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell("u1", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[("D", Conn::Net(n1)), ("CK", Conn::Net(clk)), ("Q", Conn::Net(n2))],
        )
        .unwrap();
        m.add_cell("u2", "INVX1", &[("A", Conn::Net(n2)), ("Z", Conn::Net(z))])
            .unwrap();
        m
    }

    #[test]
    fn graph_has_expected_shape() {
        let lib = vlib90::high_speed();
        let g = TimingGraph::build(&chain_module(), &lib, &GraphOptions::default()).unwrap();
        // Ports a, clk, z + pins u1/A u1/Z r1/D r1/CK r1/Q u2/A u2/Z.
        assert_eq!(g.node_count(), 10);
        // Arcs: u1 A→Z, u2 A→Z (no clock→Q by default).
        let arc_count = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::CellArc)
            .count();
        assert_eq!(arc_count, 2);
        // r1/D is an endpoint; z port is an endpoint.
        let endpoint_names: Vec<&str> = g.endpoints().map(|n| g.node_name(n)).collect();
        assert!(endpoint_names.contains(&"r1/D"));
        assert!(endpoint_names.contains(&"z"));
        assert!(!endpoint_names.contains(&"r1/CK"));
    }

    #[test]
    fn clock_to_q_arcs_are_optional() {
        let lib = vlib90::high_speed();
        let opts = GraphOptions {
            include_clock_to_q: true,
            ..GraphOptions::default()
        };
        let g = TimingGraph::build(&chain_module(), &lib, &opts).unwrap();
        let arc_count = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::CellArc)
            .count();
        assert_eq!(arc_count, 3); // + CK→Q
    }

    #[test]
    fn disable_pin_cuts_edges() {
        let lib = vlib90::high_speed();
        let m = chain_module();
        let mut g = TimingGraph::build(&m, &lib, &GraphOptions::default()).unwrap();
        let (u1, u2) = (m.find_cell("u1").unwrap(), m.find_cell("u2").unwrap());
        let sym = |name: &str| m.lookup_sym(name).unwrap();
        assert!(g.disable_pin(u1, sym("Z")));
        assert!(!g.disable_pin(u1, sym("D")), "u1 has no D pin");
        let disabled = g.edges.iter().filter(|e| e.disabled).count();
        assert!(disabled >= 2); // the A→Z arc and the net edge to r1/D

        // A subset graph has no nodes for cells outside the subset.
        let cx = SubsetContext::new(&m, &lib).unwrap();
        let mut sub =
            TimingGraph::build_subset(&cx, &lib, &GraphOptions::default(), &[u1]).unwrap();
        assert!(sub.find_pin(u1, sym("A")).is_some());
        assert!(!sub.disable_pin(u2, sym("Z")));
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        let n = m.add_net("n").unwrap();
        m.add_cell("u", "NOT_A_CELL", &[("A", Conn::Net(n))]).unwrap();
        match TimingGraph::build(&m, &lib, &GraphOptions::default()) {
            Err(StaError::UnknownCell { name }) => assert_eq!(name, "NOT_A_CELL"),
            other => panic!("expected UnknownCell, got {other:?}"),
        }
    }
}
