//! Pin-level timing-graph construction on flat arrays.
//!
//! Node ids are dense: the module's ports first (node `i` is port `i`),
//! then every pin of every graph cell, each cell's pins at consecutive ids
//! from a per-cell base. Edges live in one array — all cell arcs, then all
//! net edges — and adjacency is two CSR index tables over it, so building
//! and propagating do no per-pin hashing or allocation. Names are resolved
//! on demand through the borrowed [`Module`].

use drd_liberty::{LibCell, Library, SeqKind};
use drd_netlist::{
    CellId, CellKind, Conn, Connectivity, Endpoint, Module, NetId, NetlistError, PortDir, PortId,
    Symbol,
};

use crate::StaError;

/// Handle to a timing-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

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

#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub from: u32,
    pub to: u32,
    /// Typical-corner delay (ns), already including load-dependent terms.
    pub delay: f64,
}

/// `cell_base` entry of a cell outside the graph.
const ABSENT: u32 = u32::MAX;

/// Timing view of one library cell, with pin names resolved against the
/// module's symbol table once and then replayed for every instance.
#[derive(Debug, Default)]
struct KindInfo {
    /// `(from pin, to pin, intrinsic delay, output drive resistance)`.
    /// Sequential cells have none: their outputs are path sources and
    /// latches are region boundaries (§4.5.1).
    arcs: Vec<(Symbol, Symbol, f64, f64)>,
    /// Sequential data inputs (timing endpoints).
    endpoints: Vec<Symbol>,
    /// Input pin capacitances.
    caps: Vec<(Symbol, f64)>,
}

impl KindInfo {
    fn new(module: &Module, lc: &LibCell) -> Self {
        let sym = |name: &str| module.lookup_sym(name);
        let mut k = KindInfo {
            caps: lc
                .input_pins()
                .filter_map(|p| Some((sym(&p.name)?, p.capacitance)))
                .collect(),
            ..KindInfo::default()
        };
        // A pin name never interned in the module is connected on no
        // instance, so its arcs and endpoints can never materialize.
        let clock = match &lc.seq {
            SeqKind::None | SeqKind::CElement { .. } => {
                for arc in &lc.arcs {
                    if let (Some(from), Some(to)) = (sym(&arc.from), sym(&arc.to)) {
                        let res = lc.pin(&arc.to).map_or(0.0, |p| p.drive_resistance);
                        k.arcs.push((from, to, arc.rise.max(arc.fall), res));
                    }
                }
                return k;
            }
            SeqKind::FlipFlop(ff) => &ff.clocked_on,
            SeqKind::Latch(l) => &l.enable,
        };
        k.endpoints = lc
            .input_pins()
            .filter(|p| p.name != *clock)
            .filter_map(|p| sym(&p.name))
            .collect();
        k
    }
}

/// The [`KindInfo`] of every library kind in a module, found through a
/// dense slot per kind symbol.
struct Kinds<'l> {
    lib: &'l Library,
    slot: Vec<u32>,
    infos: Vec<KindInfo>,
}

impl<'l> Kinds<'l> {
    fn new(lib: &'l Library) -> Self {
        Kinds {
            lib,
            slot: Vec::new(),
            infos: Vec::new(),
        }
    }

    /// The info of library kind `kind`, prepared on first use.
    fn get(&mut self, module: &Module, kind: Symbol) -> Result<&KindInfo, StaError> {
        let i = kind.index();
        if self.slot.len() <= i {
            self.slot.resize(i + 1, ABSENT);
        }
        if self.slot[i] == ABSENT {
            let name = module.resolve(kind);
            let lc = self.lib.cell(name).ok_or_else(|| StaError::UnknownCell {
                name: name.to_owned(),
            })?;
            self.slot[i] = self.infos.len() as u32;
            self.infos.push(KindInfo::new(module, lc));
        }
        Ok(&self.infos[self.slot[i] as usize])
    }
}

/// Index of the first net-connected pin of `pins` named `pin`.
fn connected_pin(pins: &[(Symbol, Conn)], pin: Symbol) -> Option<u32> {
    pins.iter()
        .position(|&(p, c)| p == pin && c.net().is_some())
        .map(|i| i as u32)
}

/// Counting-sort CSR over `edges`, keyed by `key`: `(start, items)` with
/// each node's edge ids in edge-id order.
fn csr(nodes: usize, edges: &[Edge], key: impl Fn(&Edge) -> u32) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; nodes + 1];
    for e in edges {
        start[key(e) as usize + 1] += 1;
    }
    for i in 0..nodes {
        start[i + 1] += start[i];
    }
    let mut cursor = start[..nodes].to_vec();
    let mut items = vec![0u32; edges.len()];
    for (id, e) in edges.iter().enumerate() {
        let c = &mut cursor[key(e) as usize];
        items[*c as usize] = id as u32;
        *c += 1;
    }
    (start, items)
}

/// A pin-level timing graph over a module, or over disjoint groups of its
/// cells (see [`TimingGraph::build_partitioned`]).
#[derive(Debug, Clone)]
pub struct TimingGraph<'m> {
    module: &'m Module,
    /// Node id of each cell's first pin, by cell id; [`ABSENT`] for cells
    /// outside the graph.
    cell_base: Vec<u32>,
    /// Graph cells in node order.
    cells: Vec<CellId>,
    /// First node id of each cell group (non-decreasing).
    group_start: Vec<u32>,
    nodes: usize,
    pub(crate) edges: Vec<Edge>,
    pub(crate) disabled: Vec<bool>,
    /// Edges `0..arcs` are cell arcs, the rest net edges.
    arcs: usize,
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    in_start: Vec<u32>,
    in_edges: Vec<u32>,
    endpoints: Vec<NodeId>,
}

impl<'m> TimingGraph<'m> {
    /// Builds the timing graph of a module of library cells. Submodule
    /// instances get nodes but no arcs (their pins must still resolve, so
    /// in practice the module is flat).
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells/pins or a malformed netlist.
    pub fn build(module: &'m Module, lib: &Library) -> Result<Self, StaError> {
        let cells: Vec<CellId> = module.cell_ids().collect();
        Self::build_partitioned(module, lib, &[cells], &module.connectivity(lib))
    }

    /// Builds one graph over disjoint `groups` of the module's cells. A
    /// net edge is kept only when its driver and load lie in the same
    /// group; ports belong to every group. Each group's arrivals therefore
    /// equal those of a graph over that group's cells alone, while arc
    /// delays still use full-module net loads. A cell listed twice keeps
    /// its first group.
    ///
    /// `conn` is `module`'s connectivity as [`Module::connectivity`]
    /// builds it against `lib`, or the error that build returned, so a
    /// caller that already holds a snapshot shares it. A build error is
    /// reported only after every cell kind resolved, as it would be if
    /// the graph built the snapshot itself.
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells anywhere in the module, or a
    /// malformed netlist.
    pub fn build_partitioned(
        module: &'m Module,
        lib: &Library,
        groups: &[impl AsRef<[CellId]>],
        conn: &Result<Connectivity, NetlistError>,
    ) -> Result<Self, StaError> {
        // Net load capacitances over the whole module, summed in cell-id
        // then pin order. This first sweep also resolves every library
        // kind, so an unknown cell is reported as such rather than as a
        // connectivity failure.
        let mut kinds = Kinds::new(lib);
        let mut net_load = vec![0.0f64; module.net_count()];
        for cid in module.cell_ids() {
            let CellKind::Lib(kind) = module.cell_kind(cid) else {
                continue;
            };
            let caps = &kinds.get(module, kind)?.caps;
            for &(pin, c) in module.cell_pins(cid) {
                if let (Conn::Net(n), Some(&(_, cap))) = (c, caps.iter().find(|&&(s, _)| s == pin))
                {
                    net_load[n.index()] += cap;
                }
            }
        }
        let conn = conn.as_ref().map_err(|e| StaError::BadNetlist {
            message: e.to_string(),
        })?;

        // Node layout: ports, then each group's cells in the given order.
        let ports = module.port_count();
        let mut cell_base = vec![ABSENT; module.cell_slots()];
        let mut cell_group = vec![ABSENT; module.cell_slots()];
        let mut cells = Vec::new();
        let mut group_start = Vec::with_capacity(groups.len());
        let mut nodes = ports;
        for (g, group) in groups.iter().enumerate() {
            group_start.push(nodes as u32);
            for &cid in group.as_ref() {
                if cell_base[cid.index()] != ABSENT {
                    continue;
                }
                cell_base[cid.index()] = nodes as u32;
                cell_group[cid.index()] = g as u32;
                cells.push(cid);
                nodes += module.cell_pins(cid).len();
            }
        }

        // Cell arcs and sequential endpoints, cell by cell.
        let mut edges = Vec::new();
        let mut endpoints: Vec<NodeId> = module
            .ports()
            .filter(|(_, p)| p.dir != PortDir::Input)
            .map(|(pid, _)| NodeId(pid.index() as u32))
            .collect();
        for &cid in &cells {
            let CellKind::Lib(kind) = module.cell_kind(cid) else {
                continue;
            };
            let info = kinds.get(module, kind)?;
            let pins = module.cell_pins(cid);
            let base = cell_base[cid.index()];
            for &(from, to, intrinsic, res) in &info.arcs {
                let (Some(fi), Some(ti)) = (connected_pin(pins, from), connected_pin(pins, to))
                else {
                    continue;
                };
                let load = pins[ti as usize]
                    .1
                    .net()
                    .map_or(0.0, |n| net_load[n.index()]);
                edges.push(Edge {
                    from: base + fi,
                    to: base + ti,
                    delay: intrinsic + res * load,
                });
            }
            let first = endpoints.len();
            for &pin in &info.endpoints {
                if let Some(pi) = connected_pin(pins, pin) {
                    endpoints.push(NodeId(base + pi));
                }
            }
            endpoints[first..].sort_unstable();
        }
        let arcs = edges.len();

        // Net edges, driver → each load, in net-id then load order.
        let place = |e: Endpoint| match e {
            Endpoint::Port(p) => Some((p.index() as u32, None)),
            Endpoint::Pin(p) => {
                let base = *cell_base.get(p.cell.index())?;
                (base != ABSENT).then(|| (base + p.pin, Some(cell_group[p.cell.index()])))
            }
        };
        for n in 0..module.net_count() {
            let net = NetId::from_index(n);
            let Some((from, from_group)) = conn.driver(net).and_then(place) else {
                continue;
            };
            for &load in conn.loads(net) {
                let Some((to, to_group)) = place(load) else {
                    continue;
                };
                if from_group.is_none() || to_group.is_none() || from_group == to_group {
                    edges.push(Edge {
                        from,
                        to,
                        delay: 0.0,
                    });
                }
            }
        }

        let (out_start, out_edges) = csr(nodes, &edges, |e| e.from);
        let (in_start, in_edges) = csr(nodes, &edges, |e| e.to);
        Ok(TimingGraph {
            module,
            cell_base,
            cells,
            group_start,
            nodes,
            disabled: vec![false; edges.len()],
            edges,
            arcs,
            out_start,
            out_edges,
            in_start,
            in_edges,
            endpoints,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges (including disabled ones).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Kind of a node.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        let ports = self.module.port_count() as u32;
        if node.0 < ports {
            return NodeKind::Port(PortId::from_index(node.0 as usize));
        }
        let cell = self.cells[self
            .cells
            .partition_point(|c| self.cell_base[c.index()] <= node.0)
            - 1];
        NodeKind::Pin {
            cell,
            pin: node.0 - self.cell_base[cell.index()],
        }
    }

    /// Pretty name of a node (`instance/pin` or port name).
    pub fn node_name(&self, node: NodeId) -> String {
        match self.node_kind(node) {
            NodeKind::Port(p) => self.module.port(p).name.to_owned(),
            NodeKind::Pin { cell, pin } => {
                let c = self.module.cell(cell);
                format!("{}/{}", c.name, c.pin_name(pin as usize))
            }
        }
    }

    /// Finds the node of pin `pin` on `cell`: the first net-connected pin
    /// carrying that name. Callers holding names resolve them through the
    /// module ([`Module::find_cell`], [`Module::lookup_sym`]).
    pub fn find_pin(&self, cell: CellId, pin: Symbol) -> Option<NodeId> {
        let base = *self.cell_base.get(cell.index())?;
        if base == ABSENT {
            return None;
        }
        connected_pin(self.module.cell_pins(cell), pin).map(|i| NodeId(base + i))
    }

    /// Disables timing through pin `pin` of `cell` (the paper's
    /// `set_disable_timing`, Fig. 4.5c). All arcs entering or leaving the
    /// pin are cut. Returns false if the graph has no such pin node.
    pub fn disable_pin(&mut self, cell: CellId, pin: Symbol) -> bool {
        let Some(node) = self.find_pin(cell, pin) else {
            return false;
        };
        let v = node.0 as usize;
        let (ins, outs) = (
            self.in_start[v] as usize..self.in_start[v + 1] as usize,
            self.out_start[v] as usize..self.out_start[v + 1] as usize,
        );
        for &e in self.in_edges[ins].iter().chain(&self.out_edges[outs]) {
            self.disabled[e as usize] = true;
        }
        true
    }

    /// Iterates over edges as `(from, to, delay, kind, disabled)`.
    pub fn edge_list(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, EdgeKind, bool)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| {
            let kind = if i < self.arcs {
                EdgeKind::CellArc
            } else {
                EdgeKind::Net
            };
            (
                NodeId(e.from),
                NodeId(e.to),
                e.delay,
                kind,
                self.disabled[i],
            )
        })
    }

    /// Iterates over the ids of all timing endpoints (output ports and
    /// sequential data inputs), in node order.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.endpoints.iter().copied()
    }

    /// Ids of all edges leaving node `v`, in edge-id order.
    pub(crate) fn out_edges_of(&self, v: usize) -> &[u32] {
        &self.out_edges[self.out_start[v] as usize..self.out_start[v + 1] as usize]
    }

    /// Ids of the active (non-disabled) edges leaving node `v`, in edge-id
    /// order.
    pub(crate) fn active_out(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        self.out_edges_of(v)
            .iter()
            .copied()
            .filter(|&e| !self.disabled[e as usize])
    }

    /// Ids of the active edges entering node `v`, in edge-id order: the
    /// cell's own arcs in library order, then the net edge.
    pub(crate) fn active_in(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        self.in_edges[self.in_start[v] as usize..self.in_start[v + 1] as usize]
            .iter()
            .copied()
            .filter(|&e| !self.disabled[e as usize])
    }

    /// Kahn's algorithm over the active edges: calls `visit` on every node
    /// in a topological order (each active edge's source before its
    /// target). Returns a node on or behind an unbroken cycle if one
    /// remains.
    ///
    /// The node reported is the one a graph over the lowest cycle-holding
    /// group alone would report: that group's first stuck node in id
    /// order, ports first, where a stuck output port belongs to the group
    /// of its driver. For a single-group graph this is simply the first
    /// stuck node.
    pub(crate) fn topological(&self, mut visit: impl FnMut(usize)) -> Option<NodeId> {
        let n = self.nodes;
        let mut pending: Vec<u32> = (0..n).map(|v| self.active_in(v).count() as u32).collect();
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&v| pending[v as usize] == 0)
            .collect();
        order.reserve(n - order.len());
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            visit(v as usize);
            for e in self.active_out(v as usize) {
                let t = self.edges[e as usize].to;
                pending[t as usize] -= 1;
                if pending[t as usize] == 0 {
                    order.push(t);
                }
            }
        }
        if order.len() == n {
            return None;
        }
        let ports = self.module.port_count();
        let first = (ports..n).find(|&v| pending[v] > 0)?;
        let group = |v: u32| self.group_start.partition_point(|&s| s <= v);
        let g = group(first as u32);
        (0..ports)
            .find(|&p| {
                pending[p] > 0
                    && self
                        .active_in(p)
                        .any(|e| group(self.edges[e as usize].from) == g)
            })
            .or(Some(first))
            .map(|v| NodeId(v as u32))
    }
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
            &[
                ("D", Conn::Net(n1)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(n2)),
            ],
        )
        .unwrap();
        m.add_cell("u2", "INVX1", &[("A", Conn::Net(n2)), ("Z", Conn::Net(z))])
            .unwrap();
        m
    }

    #[test]
    fn graph_has_expected_shape() {
        let lib = vlib90::high_speed();
        let m = chain_module();
        let g = TimingGraph::build(&m, &lib).unwrap();
        // Ports a, clk, z + pins u1/A u1/Z r1/D r1/CK r1/Q u2/A u2/Z.
        assert_eq!(g.node_count(), 10);
        // Arcs: u1 A→Z, u2 A→Z (no clock→Q: flip-flop outputs are sources).
        let arc_count = g.edge_list().filter(|e| e.3 == EdgeKind::CellArc).count();
        assert_eq!(arc_count, 2);
        // r1/D is an endpoint; z port is an endpoint.
        let endpoint_names: Vec<String> = g.endpoints().map(|n| g.node_name(n)).collect();
        assert!(endpoint_names.contains(&"r1/D".to_owned()));
        assert!(endpoint_names.contains(&"z".to_owned()));
        assert!(!endpoint_names.contains(&"r1/CK".to_owned()));
        // Node ids are dense: ports first, then each cell's pins.
        let u1 = m.find_cell("u1").unwrap();
        assert_eq!(
            g.node_kind(NodeId(2)),
            NodeKind::Port(PortId::from_index(2))
        );
        assert_eq!(g.node_kind(NodeId(4)), NodeKind::Pin { cell: u1, pin: 1 });
        assert_eq!(g.node_name(NodeId(9)), "u2/Z");
    }

    #[test]
    fn disable_pin_cuts_edges() {
        let lib = vlib90::high_speed();
        let m = chain_module();
        let mut g = TimingGraph::build(&m, &lib).unwrap();
        let (u1, u2) = (m.find_cell("u1").unwrap(), m.find_cell("u2").unwrap());
        let sym = |name: &str| m.lookup_sym(name).unwrap();
        assert!(g.disable_pin(u1, sym("Z")));
        assert!(!g.disable_pin(u1, sym("D")), "u1 has no D pin");
        let disabled = g.edge_list().filter(|e| e.4).count();
        assert_eq!(disabled, 2); // the A→Z arc and the net edge to r1/D

        // A partitioned graph has no nodes for cells outside its groups.
        let conn = m.connectivity(&lib);
        let mut sub = TimingGraph::build_partitioned(&m, &lib, &[vec![u1]], &conn).unwrap();
        assert!(sub.find_pin(u1, sym("A")).is_some());
        assert!(!sub.disable_pin(u2, sym("Z")));
    }

    #[test]
    fn partitions_keep_only_in_group_net_edges() {
        let lib = vlib90::high_speed();
        let m = chain_module();
        let id = |name: &str| m.find_cell(name).unwrap();
        let groups = [vec![id("u1")], vec![id("r1"), id("u2")]];
        let g = TimingGraph::build_partitioned(&m, &lib, &groups, &m.connectivity(&lib)).unwrap();
        let nets: Vec<(String, String)> = g
            .edge_list()
            .filter(|e| e.3 == EdgeKind::Net)
            .map(|e| (g.node_name(e.0), g.node_name(e.1)))
            .collect();
        // Edges touching a port stay; u1/Z → r1/D crosses groups and is
        // dropped; r1/Q → u2/A stays inside the second group. Net-id order.
        let pair = |a: &str, b: &str| (a.to_owned(), b.to_owned());
        assert_eq!(
            nets,
            [
                pair("a", "u1/A"),
                pair("clk", "r1/CK"),
                pair("u2/Z", "z"),
                pair("r1/Q", "u2/A")
            ]
        );
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        let n = m.add_net("n").unwrap();
        m.add_cell("u", "NOT_A_CELL", &[("A", Conn::Net(n))])
            .unwrap();
        match TimingGraph::build(&m, &lib) {
            Err(StaError::UnknownCell { name }) => assert_eq!(name, "NOT_A_CELL"),
            other => panic!("expected UnknownCell, got {other:?}"),
        }
    }
}
