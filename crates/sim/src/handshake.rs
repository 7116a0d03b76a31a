//! Handshake-level timing simulation of the desynchronized control
//! network (§2.4, §5.2.2).
//!
//! The gate-level [`crate::Simulator`] answers "is the desynchronized
//! circuit flow-equivalent?"; this module answers "how fast does it
//! run, on *this* chip's silicon?". It elaborates the control network —
//! two semi-decoupled controllers per region (the seven-gate
//! implementation of `drd_core::controller`), the balanced C-element
//! join trees over predecessor requests and successor acknowledges
//! (`drd_core::celement::join`'s shape), and the asymmetric matched
//! delay elements — into a timed event graph, races req/ack transitions
//! through the deterministic [`crate::events::EventQueue`], and measures
//! the effective cycle time of every region from its slave latch-enable
//! (`gs`) rising edges, exactly like the Fig. 5.3 measurement harness
//! does on the full netlist.
//!
//! The elaborated graph is one flat node table: per node an op code and
//! two inputs, evaluated through a 32-entry truth table over the op, both
//! input values and the node's held value, so neither the reset fixed
//! point nor the event loop branches on a kind of node. A chip's run
//! reads a `[fall, rise]` delay table indexed by the value a transition
//! drives, and processes each event where it sits in the queue: the
//! first transition it schedules takes its place
//! ([`EventQueue::pop_and_schedule`]).
//!
//! Determinism rules (DESIGN.md §3f):
//! * all times are integer femtoseconds; every gate delay is rounded to
//!   fs once, up front;
//! * events pop in `(time, event-id)` order and ids are assigned in
//!   scheduling order, which is itself deterministic;
//! * a run stops simulating a connected component of the network once
//!   every region in it has its edges: components share no node, so the
//!   dropped events could change no measurement, and the remaining ones
//!   keep their order;
//! * per-gate process variation comes from the *keyed* draws of
//!   [`GateVariability`] — a pure function of `(campaign_seed, chip,
//!   gate)` — so a Monte-Carlo campaign is one independent task per chip
//!   and merges in chip order with byte-identical results for any worker
//!   count.
//!
//! The elaboration consumes a [`HandshakeSpec`] (region summaries plus
//! data-dependency edges) rather than the netlist itself: the spec is a
//! faithful projection of `drd_core`'s `DesyncReport`, and keeping this
//! crate below `drd-core` in the dependency order lets the core flow
//! keep using `drd-sim` in its own tests.
//!
//! The spec is also the flow's one liveness model. `drd_core::liveness`
//! plans its repairs on a spec (deepening `matched_levels`, setting
//! `loopback_latch`, clearing `controlled`) and validates each candidate
//! by elaborating it; the liveness oracle and `drdesync simulate
//! --check-liveness` screen the spec `drd_core::handshake_spec`
//! projects from the finished report.
//!
//! Faithfulness includes the construction's deadlocks. The matched
//! delay swallows any request pulse shorter than its chain (each AND
//! stage is fed by the input), so a *source* region — whose loopback
//! request environment withdraws the request as soon as a successor
//! acknowledges — wedges when its matched delay exceeds the successor's
//! response time; interior regions are immune because C-element joins
//! hold their requests until the full chain is traversed. The
//! simulation reproduces both behaviours at gate-level fidelity
//! (`drd-check`'s `handshake_stall` test pins the equivalence); a
//! wedged run is a [`SimError::Deadlock`].

use drd_liberty::Library;

use crate::events::{fs_to_ns, ns_to_fs, EventQueue, TimeFs, MAX_NODES};
use crate::variability::GateVariability;
use crate::SimError;

/// Rising `gs` edges collected per region before a run stops.
pub const DEFAULT_MAX_EDGES: usize = 12;

/// Hard cap on processed events per run — a livelocked graph (which a
/// correct elaboration cannot produce) errors instead of spinning. Events
/// of finished components are dropped uncounted.
const MAX_EVENTS: u64 = 8_000_000;

// Event ids stay below `MAX_NODES * (MAX_EVENTS + 1)` (see the event
// loop), which the queue's packed keys must hold.
const _: () =
    assert!((MAX_EVENTS + 1).saturating_mul(MAX_NODES as u64) <= 1 << crate::events::ID_BITS);

/// One region of a [`HandshakeSpec`] — a projection of the flow's
/// per-region report row, and the liveness guard's planning state for
/// the region.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (`g0` = input registers).
    pub name: String,
    /// True when the region got controllers and a matched delay
    /// (substituted flip-flops, not degraded).
    pub controlled: bool,
    /// Matched-delay element depth in delay levels.
    pub matched_levels: usize,
    /// Region critical path through the combinational cloud (ns).
    pub critical_delay_ns: f64,
    /// True when the flow's liveness guard inserted a request-extending
    /// latch on this region's loopback: the request is held by a
    /// C-element until the master controller acknowledges, so the
    /// asymmetric delay element can never swallow it. Only meaningful
    /// for source regions (no controlled predecessors).
    pub loopback_latch: bool,
}

/// The control-network shape the simulator elaborates.
#[derive(Debug, Clone)]
pub struct HandshakeSpec {
    /// Regions in flow order.
    pub regions: Vec<RegionSpec>,
    /// Data-dependency edges as `(pred, succ)` region indices.
    pub edges: Vec<(usize, usize)>,
    /// Per-level delay of the matched-delay chain (ns) — the flow's
    /// `delay_element::level_delay_ns` probe.
    pub level_delay_ns: f64,
    /// Flip-flop overhead (clk→Q plus setup, ns) of the synchronous
    /// comparison model.
    pub ff_overhead_ns: f64,
}

impl HandshakeSpec {
    /// Indices of the controlled regions with neither controlled
    /// predecessors nor successors (self-loops count as both). Such a
    /// region gets the always-ready loopback request and the eager
    /// acknowledge at once, which degenerates its request into a short
    /// pulse: it free-runs when its matched delay is short and halts when
    /// it is long. A spec with one is vacuous ([`Self::is_vacuous`]).
    pub fn isolated_regions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.regions.len()).filter(|&i| {
            self.regions[i].controlled
                && !self.edges.iter().any(|&(p, s)| {
                    (s == i && self.regions[p].controlled) || (p == i && self.regions[s].controlled)
                })
        })
    }

    /// Whether the spec is vacuously live: no region is controlled, or
    /// one is isolated ([`Self::isolated_regions`]). The flow's liveness
    /// guard and the handshake-timing oracle skip a spec through this
    /// one predicate.
    pub fn is_vacuous(&self) -> bool {
        !self.regions.iter().any(|r| r.controlled) || self.isolated_regions().next().is_some()
    }
}

/// Per-region measurement from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCycle {
    /// Region name.
    pub region: String,
    /// Effective cycle time (ns) over the measured steady-state window.
    pub cycle_ns: f64,
    /// Steady-state window: `span_fs` femtoseconds over `cycles` full
    /// cycles (exact integers, for bit-stable oracles).
    pub span_fs: TimeFs,
    /// Cycles in the window.
    pub cycles: usize,
    /// The STA matched-delay floor (ns): the delay element's nominal
    /// rise delay. Any simulated cycle must be at least this long.
    pub matched_delay_ns: f64,
}

/// One Monte-Carlo chip: the desynchronized chip runs at its own
/// silicon's handshake speed; the synchronous model's period is its
/// slowest register-to-register path on the same silicon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSample {
    /// Chip index (also the variability coordinate).
    pub chip: usize,
    /// Slowest region's simulated handshake cycle time (ns).
    pub desync_cycle_ns: f64,
    /// Synchronous critical-path period on the same drawn silicon (ns).
    pub sync_period_ns: f64,
}

/// The op of an INVX1 node. A node's op picks its row of [`TRUTH`].
const INV: u8 = 0;
/// BUFX1 / BUFX2 (enable and acknowledge buffering), and the asymmetric
/// matched delay, which differs from a buffer only in timing: slow rise
/// (the full chain), fast fall (one level — the AND chain's fast-fall
/// shortcut).
const BUF: u8 = 1;
/// AND2X1 — the controller's `g` pulse shaper.
const AND2: u8 = 2;
/// A Muller C-element: follows its inputs when they agree, holds its
/// value while they differ.
const C2: u8 = 3;

/// The value every op drives: bit `op << 3 | a << 2 | b << 1 | hold` is
/// the output for inputs `a`, `b` and the node's held value `hold`.
const TRUTH: u32 = {
    let mut table = 0u32;
    let mut row = 0;
    while row < 32 {
        let (a, b, hold) = (row >> 2 & 1 == 1, row >> 1 & 1 == 1, row & 1 == 1);
        let out = match (row >> 3) as u8 {
            INV => !a,
            BUF => a,
            AND2 => a && b,
            _ => {
                if a == b {
                    a
                } else {
                    hold
                }
            }
        };
        table |= (out as u32) << row;
        row += 1;
    }
    table
};

/// One node of the flat node table: its op and its two inputs (a
/// one-input node reads `a` twice).
#[derive(Debug, Clone, Copy)]
struct Node {
    op: u8,
    a: u32,
    b: u32,
}

impl Node {
    fn unary(op: u8, a: u32) -> Node {
        Node { op, a, b: a }
    }

    /// The nodes driving this one, each once.
    fn inputs(self) -> impl Iterator<Item = u32> {
        std::iter::once(self.a).chain((self.b != self.a).then_some(self.b))
    }

    /// The value this node drives given its inputs' `values`; `hold` is
    /// its own current value, which a C-element keeps while its inputs
    /// differ.
    fn eval(self, values: &[bool], hold: bool) -> bool {
        let row = u32::from(self.op) << 3
            | u32::from(values[self.a as usize]) << 2
            | u32::from(values[self.b as usize]) << 1
            | u32::from(hold);
        TRUTH >> row & 1 == 1
    }
}

/// `nominal` fs derated by `factor`, rounded to whole femtoseconds and
/// floored at 1 fs.
fn derate(nominal: TimeFs, factor: f64) -> TimeFs {
    let fs = (nominal as f64 * factor).round();
    if fs < 1.0 {
        1
    } else {
        fs as TimeFs
    }
}

/// Unwired input sentinel during elaboration; never survives it.
const PENDING: u32 = u32::MAX;

/// Watch-table entry of a node that is no region's slave enable.
const NO_SLOT: u32 = u32::MAX;

/// Handles into the node table for one controlled region's two
/// controllers (`m_` master, `s_` slave) and matched delay.
#[derive(Debug, Clone, Copy)]
struct RegionNodes {
    region: usize,
    m_nro: u32,
    m_a: u32,
    m_nao: u32,
    m_ro: u32,
    m_g1: u32,
    /// Master latch-enable buffer; elaborated for delay fidelity, only
    /// the slave enable is watched for cycle measurement.
    _m_g: u32,
    m_ai: u32,
    s_nro: u32,
    s_a: u32,
    s_nao: u32,
    s_ro: u32,
    s_g1: u32,
    s_g: u32,
    s_ai: u32,
    delay: u32,
}

/// The elaborated timed event graph plus the synchronous comparison
/// model, ready to simulate at any drawn silicon. Everything that does
/// not depend on a chip's delays is computed here once, so a chip only
/// builds its rise/fall table and runs the event loop.
#[derive(Debug, Clone)]
pub struct HandshakeNet {
    /// The flat node table: each node's op and inputs.
    nodes: Vec<Node>,
    /// Node `i` spans control gates `gate_base[i]..gate_base[i + 1]`:
    /// simple gates have one, a matched delay its chain depth.
    gate_base: Vec<usize>,
    /// Nominal delay of each control gate (fs), in gate-index order.
    levels: Vec<TimeFs>,
    /// CSR fan-out: node `i` drives
    /// `fanout[fanout_start[i]..fanout_start[i + 1]]`, in node order.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// The settled reset state every run starts from.
    reset: Vec<bool>,
    /// Reset-held C-elements that flip when reset is released at t = 0,
    /// in node order.
    release: Vec<u32>,
    /// Region slot of each slave enable node; [`NO_SLOT`] elsewhere.
    watch: Vec<u32>,
    /// Connected component of each node. Components share no node, so
    /// they never exchange an event.
    component: Vec<u32>,
    /// Controlled regions per component.
    component_regions: Vec<u32>,
    regions: Vec<RegionNodes>,
    region_names: Vec<String>,
    /// Nominal matched-delay floor per controlled region (fs).
    matched_fs: Vec<TimeFs>,
    /// Synchronous critical paths: per path, the nominal fs of each
    /// variability gate on it (cloud stages plus one FF-overhead gate).
    sync_paths: Vec<Vec<TimeFs>>,
    gate_count: usize,
}

/// Library intrinsic delay of `cell` (ns).
fn cell_delay_ns(lib: &Library, cell: &str) -> Result<f64, SimError> {
    lib.cell(cell)
        .map(|c| c.max_intrinsic_delay())
        .ok_or_else(|| SimError::UnknownCell {
            name: cell.to_owned(),
        })
}

impl HandshakeNet {
    /// Elaborates the control network of `spec` into a timed event
    /// graph, mirroring `drd_core::network::build_control_network`:
    /// per controlled region a master/slave controller pair, a balanced
    /// C-element join over controlled predecessors' requests (loopback
    /// when none), a matched delay on the joined request, and a balanced
    /// join over controlled successors' acknowledges (eager own-request
    /// acknowledge when none).
    ///
    /// # Errors
    /// [`SimError::UnknownCell`] when the library misses a controller
    /// gate; [`SimError::Handshake`] when no region is controlled or the
    /// reset state does not settle.
    pub fn elaborate(spec: &HandshakeSpec, lib: &Library) -> Result<HandshakeNet, SimError> {
        let inv = ns_to_fs(cell_delay_ns(lib, "INVX1")?);
        let buf1 = ns_to_fs(cell_delay_ns(lib, "BUFX1")?);
        let buf2 = ns_to_fs(cell_delay_ns(lib, "BUFX2")?);
        let and2 = ns_to_fs(cell_delay_ns(lib, "AND2X1")?);
        let c2r = ns_to_fs(cell_delay_ns(lib, "C2RX1")?);
        let c2s = ns_to_fs(cell_delay_ns(lib, "C2SX1")?);
        let c2 = ns_to_fs(cell_delay_ns(lib, "C2X1")?);
        let level = ns_to_fs(spec.level_delay_ns);

        let controlled: Vec<usize> = spec
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.controlled)
            .map(|(i, _)| i)
            .collect();
        if controlled.is_empty() {
            return Err(SimError::Handshake {
                message: "no controlled regions to elaborate".into(),
            });
        }

        // The flat node table, and per node the value a reset-held
        // C-element keeps while reset is asserted (C2RX1 0, C2SX1 1;
        // `None` for every node that settles from its inputs).
        let mut nodes: Vec<Node> = Vec::new();
        let mut hold: Vec<Option<bool>> = Vec::new();
        let mut gate_base: Vec<usize> = Vec::new();
        let mut levels: Vec<TimeFs> = Vec::new();
        let mut push =
            |nodes: &mut Vec<Node>, node: Node, held: Option<bool>, delay: TimeFs, gates: usize| {
                gate_base.push(levels.len());
                levels.resize(levels.len() + gates, delay);
                hold.push(held);
                nodes.push(node);
                nodes.len() as u32 - 1
            };

        // Pass 1: allocate every controller in region order with
        // intra-region wiring; cross-region inputs stay PENDING.
        let mut handles: Vec<RegionNodes> = Vec::new();
        let mut ext_handles: Vec<Option<(u32, u32)>> = Vec::new();
        let mut matched_fs = Vec::new();
        let mut region_names = Vec::new();
        for &ri in &controlled {
            let r = &spec.regions[ri];
            let base = nodes.len() as u32;
            // Fixed per-region layout (offsets 0..=14) — see RegionNodes.
            let h = RegionNodes {
                region: ri,
                m_nro: base,
                m_a: base + 1,
                m_nao: base + 2,
                m_ro: base + 3,
                m_g1: base + 4,
                _m_g: base + 5,
                m_ai: base + 6,
                s_nro: base + 7,
                s_a: base + 8,
                s_nao: base + 9,
                s_ro: base + 10,
                s_g1: base + 11,
                s_g: base + 12,
                s_ai: base + 13,
                delay: base + 14,
            };
            let depth = r.matched_levels.max(1);
            let k = &mut nodes;
            push(k, Node::unary(INV, h.m_ro), None, inv, 1);
            push(
                k,
                Node {
                    op: C2,
                    a: h.delay,
                    b: h.m_nro,
                },
                Some(false),
                c2r,
                1,
            );
            push(k, Node::unary(INV, h.s_ai), None, inv, 1);
            push(
                k,
                Node {
                    op: C2,
                    a: h.m_a,
                    b: h.m_nao,
                },
                Some(false),
                c2r,
                1,
            );
            push(
                k,
                Node {
                    op: AND2,
                    a: h.m_a,
                    b: h.m_nro,
                },
                None,
                and2,
                1,
            );
            push(k, Node::unary(BUF, h.m_g1), None, buf2, 1);
            push(k, Node::unary(BUF, h.m_a), None, buf1, 1);
            push(k, Node::unary(INV, h.s_ro), None, inv, 1);
            push(
                k,
                Node {
                    op: C2,
                    a: h.m_ro,
                    b: h.s_nro,
                },
                Some(false),
                c2r,
                1,
            );
            push(k, Node::unary(INV, PENDING), None, inv, 1); // s_nao: ack join, pass 2
            push(
                k,
                Node {
                    op: C2,
                    a: h.s_a,
                    b: h.s_nao,
                },
                Some(true),
                c2s,
                1,
            );
            push(
                k,
                Node {
                    op: AND2,
                    a: h.s_a,
                    b: h.s_nro,
                },
                None,
                and2,
                1,
            );
            push(k, Node::unary(BUF, h.s_g1), None, buf2, 1);
            push(k, Node::unary(BUF, h.s_a), None, buf1, 1);
            push(k, Node::unary(BUF, PENDING), None, level, depth); // req join, pass 2
                                                                    // Request-extending latch (liveness repair, DESIGN.md §3i):
                                                                    // an inverter on the master acknowledge plus a C-element that
                                                                    // holds the raw request high until the ack arrives. Allocated
                                                                    // here in region order; wired in pass 2.
            let ext = if r.loopback_latch {
                let e_inv = push(k, Node::unary(INV, PENDING), None, inv, 1);
                let e_c2 = push(
                    k,
                    Node {
                        op: C2,
                        a: PENDING,
                        b: e_inv,
                    },
                    None,
                    c2,
                    1,
                );
                Some((e_inv, e_c2))
            } else {
                None
            };
            ext_handles.push(ext);
            matched_fs.push(level.saturating_mul(depth as TimeFs));
            region_names.push(r.name.clone());
            handles.push(h);
        }

        // Balanced pairwise reduction with the same chunks-of-2 shape as
        // `drd_core::celement::join` — the odd element passes up a round.
        let mut join = |nodes: &mut Vec<Node>, inputs: &[u32]| -> u32 {
            let mut layer: Vec<u32> = inputs.to_vec();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    if let [a, b] = *pair {
                        next.push(push(nodes, Node { op: C2, a, b }, None, c2, 1));
                    } else {
                        next.push(pair[0]);
                    }
                }
                layer = next;
            }
            layer[0]
        };

        // Pass 2: join trees and cross-region wiring, in region order.
        let slot_of = |region: usize| controlled.iter().position(|&r| r == region);
        for (slot, h) in handles.iter().enumerate() {
            let preds: Vec<usize> = spec
                .edges
                .iter()
                .filter(|&&(_, s)| s == h.region)
                .filter_map(|&(p, _)| slot_of(p))
                .collect();
            let succs: Vec<usize> = spec
                .edges
                .iter()
                .filter(|&&(p, _)| p == h.region)
                .filter_map(|&(_, s)| slot_of(s))
                .collect();

            // Request side: join controlled predecessors' `ros`, or loop
            // the region's own request back when it has none.
            let mut raw_req = if preds.is_empty() {
                h.s_ro
            } else {
                let inputs: Vec<u32> = preds.iter().map(|&p| handles[p].s_ro).collect();
                join(&mut nodes, &inputs)
            };
            // Liveness repair: interpose the request-extending latch. At
            // reset both inputs are high (slave request set, master ack
            // low), so the no-reset C-element settles to the same value
            // the bare loopback wire has.
            if let Some((e_inv, e_c2)) = ext_handles[slot] {
                nodes[e_inv as usize] = Node::unary(INV, h.m_ai);
                nodes[e_c2 as usize].a = raw_req;
                raw_req = e_c2;
            }
            nodes[h.delay as usize] = Node::unary(BUF, raw_req);

            // Acknowledge side: join controlled successors' `aim`, or
            // acknowledge eagerly from the region's own request.
            let slave_ao = if succs.is_empty() {
                h.s_ro
            } else {
                let inputs: Vec<u32> = succs.iter().map(|&s| handles[s].m_ai).collect();
                join(&mut nodes, &inputs)
            };
            nodes[h.s_nao as usize] = Node::unary(INV, slave_ao);
        }
        gate_base.push(levels.len());

        debug_assert!(nodes.iter().all(|k| k.inputs().all(|a| a != PENDING)));
        let n = nodes.len();
        if n > MAX_NODES {
            return Err(SimError::Handshake {
                message: format!("{n} control nodes exceed the event queue's {MAX_NODES}"),
            });
        }

        // CSR fan-out, each node's list in ascending driven-node order.
        let mut fanout_start = vec![0u32; n + 1];
        for k in &nodes {
            for a in k.inputs() {
                fanout_start[a as usize + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fill = fanout_start.clone();
        let mut fanout = vec![0u32; fanout_start[n] as usize];
        for (i, k) in nodes.iter().enumerate() {
            for a in k.inputs() {
                fanout[fill[a as usize] as usize] = i as u32;
                fill[a as usize] += 1;
            }
        }

        // Connected components: union-find over fan-in, each class rooted
        // at its smallest node, labelled densely in node order.
        let mut parent: Vec<usize> = (0..n).collect();
        let find = |parent: &mut [usize], mut x: usize| {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        };
        for (i, k) in nodes.iter().enumerate() {
            for a in k.inputs() {
                let (ri, ra) = (find(&mut parent, i), find(&mut parent, a as usize));
                parent[ri.max(ra)] = ri.min(ra);
            }
        }
        let mut component = vec![0u32; n];
        let mut component_regions: Vec<u32> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            component[i] = if root == i {
                component_regions.push(0);
                component_regions.len() as u32 - 1
            } else {
                component[root]
            };
        }
        let mut watch = vec![NO_SLOT; n];
        for (slot, h) in handles.iter().enumerate() {
            watch[h.s_g as usize] = slot as u32;
            component_regions[component[h.s_g as usize] as usize] += 1;
        }

        // Reset fixed point: C2R held 0, C2S held 1, the rest settles
        // combinationally (the DAG left after holding the loop-breaking
        // controller C-elements). No delay enters it.
        let mut reset: Vec<bool> = hold.iter().map(|&h| h == Some(true)).collect();
        let mut settled = false;
        for _ in 0..n + 2 {
            let mut changed = false;
            for i in 0..n {
                if hold[i].is_some() {
                    continue;
                }
                let v = nodes[i].eval(&reset, reset[i]);
                if v != reset[i] {
                    reset[i] = v;
                    changed = true;
                }
            }
            if !changed {
                settled = true;
                break;
            }
        }
        if !settled {
            return Err(SimError::Handshake {
                message: "reset state did not settle".into(),
            });
        }
        // Releasing reset at t = 0 re-evaluates every reset-held
        // C-element against its settled inputs.
        let release: Vec<u32> = (0..n)
            .filter(|&i| hold[i].is_some() && nodes[i].eval(&reset, reset[i]) != reset[i])
            .map(|i| i as u32)
            .collect();

        // Synchronous comparison model: each region with a combinational
        // cloud contributes one register-to-register path, decomposed
        // into level-sized gates so intra-die draws average the same way
        // they do along the matched delay chains. The paths' gates follow
        // the control gates, in path order.
        let mut gate_count = levels.len();
        let mut sync_paths = Vec::new();
        for r in &spec.regions {
            if r.critical_delay_ns <= 0.0 {
                continue;
            }
            let depth = (r.critical_delay_ns / spec.level_delay_ns.max(1e-9))
                .ceil()
                .max(1.0);
            let per_gate = ns_to_fs(r.critical_delay_ns / depth);
            let mut path = vec![per_gate; depth as usize];
            path.push(ns_to_fs(spec.ff_overhead_ns));
            gate_count += path.len();
            sync_paths.push(path);
        }

        Ok(HandshakeNet {
            nodes,
            gate_base,
            levels,
            fanout_start,
            fanout,
            reset,
            release,
            watch,
            component,
            component_regions,
            regions: handles,
            region_names,
            matched_fs,
            sync_paths,
            gate_count,
        })
    }

    /// Total variability-gate coordinates: control-network gates first,
    /// then the synchronous comparison paths.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Control-network gate count (the prefix of [`Self::gate_count`]'s range
    /// that the event simulation consumes).
    pub fn control_gate_count(&self) -> usize {
        self.levels.len()
    }

    /// Controlled region names, in elaboration order.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Nominal matched-delay floor of controlled region `slot` (ns).
    pub fn matched_delay_ns(&self, slot: usize) -> f64 {
        fs_to_ns(self.matched_fs[slot])
    }

    /// Per-gate delay factors for `chip`, in gate-index order.
    ///
    /// # Panics
    /// As [`GateVariability::factor`], for a NaN or infinite sigma, which
    /// [`Self::chip_sample`] and [`Self::monte_carlo`] reject instead.
    pub fn chip_factors(&self, var: &GateVariability, chip: usize) -> Vec<f64> {
        var.chip_factors(chip as u64, self.gate_count)
    }

    /// Simulates at unit factors: the nominal analytical model (the
    /// deterministic execution of the timed event graph at library
    /// delays). A zero-sigma Monte-Carlo chip reproduces this bit for
    /// bit.
    ///
    /// # Errors
    /// Propagates simulation errors ([`SimError::Deadlock`], event-cap
    /// overrun).
    pub fn nominal_cycle_times(&self) -> Result<Vec<RegionCycle>, SimError> {
        let factors = vec![1.0; self.gate_count];
        self.cycle_times(&factors, DEFAULT_MAX_EDGES)
    }

    /// Simulates with per-gate `factors` (length [`Self::gate_count`]) and
    /// measures each region's effective cycle time over the trailing
    /// half of `max_edges` slave-enable rising edges.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when a region wedges;
    /// [`SimError::Handshake`] on factor-length mismatch or event-cap
    /// overrun.
    pub fn cycle_times(
        &self,
        factors: &[f64],
        max_edges: usize,
    ) -> Result<Vec<RegionCycle>, SimError> {
        self.cycle_times_scaled(factors, 1.0, max_edges)
    }

    /// [`Self::cycle_times`] with the matched-delay chains scaled by
    /// `matched_scale` — the Fig. 5.3 tap-selection sweep (selection `k`
    /// scales the matched delay by `tap_factor(k)`).
    ///
    /// # Errors
    /// As [`Self::cycle_times`].
    pub fn cycle_times_scaled(
        &self,
        factors: &[f64],
        matched_scale: f64,
        max_edges: usize,
    ) -> Result<Vec<RegionCycle>, SimError> {
        self.run(factors, matched_scale, max_edges, MAX_EVENTS)
    }

    /// [`Self::cycle_times_scaled`] with the event cap `max_events`.
    fn run(
        &self,
        factors: &[f64],
        matched_scale: f64,
        max_edges: usize,
        max_events: u64,
    ) -> Result<Vec<RegionCycle>, SimError> {
        if factors.len() < self.control_gate_count() {
            return Err(SimError::Handshake {
                message: format!(
                    "{} delay factors for {} control gates",
                    factors.len(),
                    self.control_gate_count()
                ),
            });
        }
        let max_edges = max_edges.max(4);

        // Per-node delays (fs), rounded once up front and indexed by the
        // value a transition drives: `[fall, rise]`. Every node but a
        // matched delay is one symmetric gate; a matched delay rises
        // through its whole chain, scaled by `matched_scale`, and falls
        // fast (one level).
        let n = self.nodes.len();
        let mut delays: Vec<[TimeFs; 2]> = self.gate_base[..n]
            .iter()
            .map(|&g| {
                let d = derate(self.levels[g], factors[g]);
                [d, d]
            })
            .collect();
        for h in &self.regions {
            let node = h.delay as usize;
            let term = |g: usize| derate(self.levels[g], factors[g] * matched_scale);
            let gates = self.gate_base[node]..self.gate_base[node + 1];
            delays[node] = [term(gates.start), gates.map(term).sum()];
        }

        // Start from the settled reset state and release reset at t = 0.
        // Only the last event a node scheduled is live, and its value is
        // the node's `next_values` entry.
        let mut values = self.reset.clone();
        let mut next_values = values.clone();
        let mut last = vec![u64::MAX; n];
        let mut queue = EventQueue::new();
        for &i in &self.release {
            let v = !values[i as usize];
            next_values[i as usize] = v;
            last[i as usize] = queue.schedule(delays[i as usize][usize::from(v)], i);
        }

        // Regions per component still short of `max_edges` edges. A
        // component with none left can change no measurement, so its
        // events are dropped; the rest keep their scheduling order and
        // pop in the same (time, id) order as without the drop.
        let mut open = self.component_regions.clone();
        let regions = self.regions.len();
        let mut edges: Vec<TimeFs> = vec![0; regions * max_edges];
        let mut seen = vec![0usize; regions];
        let mut done = 0usize;

        // The earliest event stays in the queue while it is processed:
        // the first transition it schedules takes its place in one sift
        // (`pop_and_schedule`), and it is popped only if it schedules
        // none. Ids: the loop schedules only while it has processed at
        // most `max_events` events, each scheduling at most one event per
        // distinct fan-out node, so ids stay below
        // `MAX_NODES * (MAX_EVENTS + 1)`, inside the queue's id bits.
        let mut processed: u64 = 0;
        while let Some(ev) = queue.peek() {
            let node = ev.node as usize;
            let component = self.component[node] as usize;
            if last[node] != ev.id || open[component] == 0 {
                queue.pop();
                continue; // superseded (inertial cancellation) or finished
            }
            processed += 1;
            if processed > max_events {
                return Err(SimError::Handshake {
                    message: format!("event cap exceeded after {processed} events"),
                });
            }
            let value = next_values[node];
            values[node] = value;
            let slot = self.watch[node] as usize;
            if value && slot != NO_SLOT as usize && seen[slot] < max_edges {
                edges[slot * max_edges + seen[slot]] = ev.time;
                seen[slot] += 1;
                if seen[slot] == max_edges {
                    open[component] -= 1;
                    done += 1;
                    if done == regions {
                        break;
                    }
                }
            }
            let mut popped = false;
            let fanout = self.fanout_start[node] as usize..self.fanout_start[node + 1] as usize;
            for &f in &self.fanout[fanout] {
                let fi = f as usize;
                let target = self.nodes[fi].eval(&values, next_values[fi]);
                if target != next_values[fi] {
                    next_values[fi] = target;
                    let time = ev.time + delays[fi][usize::from(target)];
                    last[fi] = if popped {
                        queue.schedule(time, f)
                    } else {
                        popped = true;
                        queue.pop_and_schedule(time, f)
                    };
                }
            }
            if !popped {
                queue.pop();
            }
        }

        let warmup = max_edges / 2;
        let mut out = Vec::with_capacity(regions);
        for (slot, times) in edges.chunks(max_edges).enumerate() {
            let times = &times[..seen[slot]];
            if times.len() < warmup + 2 {
                return Err(SimError::Deadlock {
                    region: self.region_names[slot].clone(),
                    edges: times.len(),
                    needed: warmup + 2,
                });
            }
            let span_fs = times[times.len() - 1] - times[warmup];
            let cycles = times.len() - 1 - warmup;
            out.push(RegionCycle {
                region: self.region_names[slot].clone(),
                cycle_ns: fs_to_ns(span_fs) / cycles as f64,
                span_fs,
                cycles,
                matched_delay_ns: fs_to_ns(
                    (self.matched_fs[slot] as f64 * matched_scale) as TimeFs,
                ),
            });
        }
        Ok(out)
    }

    /// Closed-form steady-state period of a **single-region self-loop
    /// ring** (`edges = [(0, 0)]`, the one-region DDG): once the matched
    /// delay dominates the controller gates, every cycle is the same
    /// four-phase loop through the slave request —
    ///
    /// ```text
    /// ros+ →(Dr)   rim+  →(C2R) m_a+ →(BUF) m_ai+ →(INV) nao− →(C2S) ros−
    /// ros− →(lvl)  rim−  →(C2R) m_a− →(BUF) m_ai− →(INV) nao+ →(C2S) ros+
    /// ```
    ///
    /// so the period is `Dr + lvl + 2·(d(C2RX1) + d(C2SX1) + d(BUFX1) +
    /// d(INVX1))` exactly, where `Dr` is the matched rise delay and `lvl`
    /// the one-level fast fall — in the same rounded femtoseconds the
    /// simulator uses. `None` when the net is not a single-region ring.
    pub fn analytical_ring_cycle_fs(&self, lib: &Library) -> Option<TimeFs> {
        if self.regions.len() != 1 {
            return None;
        }
        let c2r = ns_to_fs(cell_delay_ns(lib, "C2RX1").ok()?);
        let c2s = ns_to_fs(cell_delay_ns(lib, "C2SX1").ok()?);
        let buf = ns_to_fs(cell_delay_ns(lib, "BUFX1").ok()?);
        let inv = ns_to_fs(cell_delay_ns(lib, "INVX1").ok()?);
        let delay = self.regions[0].delay as usize;
        let chain = &self.levels[self.gate_base[delay]..self.gate_base[delay + 1]];
        let rise: TimeFs = chain.iter().sum();
        let fall = chain[0];
        Some(rise + fall + 2 * (c2r + c2s + buf + inv))
    }

    /// [`Self::analytical_ring_cycle_fs`] in nanoseconds.
    pub fn analytical_ring_cycle_ns(&self, lib: &Library) -> Option<f64> {
        self.analytical_ring_cycle_fs(lib).map(fs_to_ns)
    }

    /// Synchronous period on `factors`' silicon: the slowest decomposed
    /// register-to-register path, each gate derated by its own draw.
    pub fn sync_period_fs(&self, factors: &[f64]) -> TimeFs {
        let mut base = self.control_gate_count();
        let mut worst: TimeFs = 0;
        for path in &self.sync_paths {
            let sum: TimeFs = path
                .iter()
                .enumerate()
                .map(|(j, &fs)| derate(fs, factors[base + j]))
                .sum();
            worst = worst.max(sum);
            base += path.len();
        }
        worst
    }

    /// Simulates one Monte-Carlo chip: per-gate draws from `var`, the
    /// slowest region's handshake cycle vs the synchronous critical
    /// path on the same silicon.
    ///
    /// # Errors
    /// [`SimError::Handshake`] naming the sigma when it is NaN, infinite
    /// or negative; otherwise propagates simulation errors.
    pub fn chip_sample(&self, var: &GateVariability, chip: usize) -> Result<ChipSample, SimError> {
        var.check()?;
        let factors = self.chip_factors(var, chip);
        let cycles = self.cycle_times(&factors, DEFAULT_MAX_EDGES)?;
        let desync = cycles.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
        Ok(ChipSample {
            chip,
            desync_cycle_ns: desync,
            sync_period_ns: fs_to_ns(self.sync_period_fs(&factors)),
        })
    }

    /// The Monte-Carlo campaign: one chip per task on the work-stealing
    /// runner, merged in chip order — byte-identical for any `workers`.
    ///
    /// # Errors
    /// [`SimError::Handshake`] naming the sigma when it is NaN, infinite
    /// or negative, before any chip runs; otherwise the first failing
    /// chip's error, in chip order.
    pub fn monte_carlo(
        &self,
        var: &GateVariability,
        chips: usize,
        workers: usize,
    ) -> Result<Vec<ChipSample>, SimError> {
        var.check()?;
        let samples =
            drd_runner::runner::run_indexed(chips, workers, |chip| self.chip_sample(var, chip));
        samples.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;

    fn ring_spec(levels: usize) -> HandshakeSpec {
        // One region whose flip-flops feed themselves: the DDG self-loop
        // closes the request loop through the region's own master ack.
        // (A controlled region with *neither* controlled predecessors nor
        // successors gets loopback-request plus eager-ack and its request
        // degenerates to a short pulse: a short matched delay passes it
        // and the region free-runs, a long one swallows it and the region
        // deadlocks, in silicon as here.)
        HandshakeSpec {
            regions: vec![RegionSpec {
                name: "g1".into(),
                controlled: true,
                matched_levels: levels,
                critical_delay_ns: levels as f64 * 0.08,
                loopback_latch: false,
            }],
            edges: vec![(0, 0)],
            level_delay_ns: 0.09,
            ff_overhead_ns: 0.15,
        }
    }

    fn pipeline_spec(stages: usize) -> HandshakeSpec {
        let regions = (0..stages)
            .map(|i| RegionSpec {
                name: format!("g{i}"),
                controlled: true,
                matched_levels: 3 + i % 4,
                critical_delay_ns: 0.2 + 0.05 * i as f64,
                loopback_latch: false,
            })
            .collect();
        HandshakeSpec {
            regions,
            edges: (1..stages).map(|i| (i - 1, i)).collect(),
            level_delay_ns: 0.09,
            ff_overhead_ns: 0.15,
        }
    }

    #[test]
    fn single_ring_matches_the_analytical_period_exactly() {
        let lib = vlib90::high_speed();
        // Matched delay dominates from a handful of levels up; the
        // analytic chain must be met cycle-for-cycle, femtosecond-exact.
        for levels in [6, 9, 14, 23] {
            let net = HandshakeNet::elaborate(&ring_spec(levels), &lib).unwrap();
            let cycles = net.nominal_cycle_times().unwrap();
            assert_eq!(cycles.len(), 1);
            let analytic = net.analytical_ring_cycle_fs(&lib).unwrap();
            assert_eq!(
                cycles[0].span_fs,
                analytic * cycles[0].cycles as TimeFs,
                "levels {levels}: measured {} fs/cycle over {} cycles, analytic {analytic} fs",
                cycles[0].span_fs / cycles[0].cycles as TimeFs,
                cycles[0].cycles,
            );
        }
    }

    #[test]
    fn cycle_time_respects_the_matched_delay_floor() {
        let lib = vlib90::high_speed();
        for spec in [ring_spec(8), pipeline_spec(3), pipeline_spec(5)] {
            let net = HandshakeNet::elaborate(&spec, &lib).unwrap();
            for c in net.nominal_cycle_times().unwrap() {
                assert!(
                    c.cycle_ns >= c.matched_delay_ns,
                    "{}: cycle {} < matched {}",
                    c.region,
                    c.cycle_ns,
                    c.matched_delay_ns
                );
            }
        }
    }

    #[test]
    fn pipeline_regions_run_in_lockstep() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&pipeline_spec(4), &lib).unwrap();
        let cycles = net.nominal_cycle_times().unwrap();
        assert_eq!(cycles.len(), 4);
        // A linear pipeline settles to one global rate: the slowest
        // stage's ring paces everyone (steady-state token flow).
        let max = cycles.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
        let min = cycles
            .iter()
            .map(|c| c.cycle_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.05, "{min} vs {max}");
    }

    #[test]
    fn longer_matched_delays_slow_the_ring() {
        let lib = vlib90::high_speed();
        let short = HandshakeNet::elaborate(&ring_spec(4), &lib).unwrap();
        let long = HandshakeNet::elaborate(&ring_spec(16), &lib).unwrap();
        let a = short.nominal_cycle_times().unwrap()[0].cycle_ns;
        let b = long.nominal_cycle_times().unwrap()[0].cycle_ns;
        assert!(b > a, "{a} !< {b}");
    }

    #[test]
    fn tap_scaling_sweeps_the_period() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&ring_spec(10), &lib).unwrap();
        let factors = vec![1.0; net.gate_count()];
        let slow = net
            .cycle_times_scaled(&factors, 1.75, DEFAULT_MAX_EDGES)
            .unwrap();
        let fast = net
            .cycle_times_scaled(&factors, 0.70, DEFAULT_MAX_EDGES)
            .unwrap();
        assert!(slow[0].cycle_ns > fast[0].cycle_ns);
    }

    #[test]
    fn zero_sigma_chip_reproduces_the_nominal_run_bit_for_bit() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&pipeline_spec(3), &lib).unwrap();
        let nominal = net.nominal_cycle_times().unwrap();
        let var = GateVariability::new(0xDEAD, 0.0);
        for chip in 0..4 {
            let sample = net.chip_sample(&var, chip).unwrap();
            let want = nominal.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
            assert_eq!(sample.desync_cycle_ns.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn a_sigma_the_draws_cannot_use_is_an_error_naming_it() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&pipeline_spec(3), &lib).unwrap();
        for (sigma, shown) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (-0.1, "-0.1"),
        ] {
            let var = GateVariability::new(0xDEAD, sigma);
            let named = |e: SimError| match e {
                SimError::Handshake { message } => message.contains(&format!("sigma {shown} ")),
                _ => false,
            };
            assert!(named(net.chip_sample(&var, 0).unwrap_err()), "{shown}");
            assert!(named(net.monte_carlo(&var, 4, 2).unwrap_err()), "{shown}");
        }
        // Zero, either sign, is the nominal run, bit for bit.
        let want = net.nominal_cycle_times().unwrap();
        let want = want.iter().map(|c| c.cycle_ns).fold(0.0f64, f64::max);
        for sigma in [0.0, -0.0] {
            let var = GateVariability::new(0xDEAD, sigma);
            for sample in net.monte_carlo(&var, 4, 2).unwrap() {
                assert_eq!(sample.desync_cycle_ns.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn monte_carlo_is_byte_identical_for_any_worker_count() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&pipeline_spec(4), &lib).unwrap();
        let var = GateVariability::new(0xF00D, 0.15);
        let serial = net.monte_carlo(&var, 64, 1).unwrap();
        for workers in [2, 3, 8] {
            let par = net.monte_carlo(&var, 64, workers).unwrap();
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.desync_cycle_ns.to_bits(), b.desync_cycle_ns.to_bits());
                assert_eq!(a.sync_period_ns.to_bits(), b.sync_period_ns.to_bits());
            }
        }
    }

    #[test]
    fn variability_spreads_the_population() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&pipeline_spec(3), &lib).unwrap();
        let var = GateVariability::new(0xBEEF, 0.2);
        let samples = net.monte_carlo(&var, 128, 4).unwrap();
        let min = samples
            .iter()
            .map(|s| s.desync_cycle_ns)
            .fold(f64::INFINITY, f64::min);
        let max = samples
            .iter()
            .map(|s| s.desync_cycle_ns)
            .fold(0.0f64, f64::max);
        assert!(max > 1.1 * min, "spread {min}..{max}");
        // The sync model spreads too, and both stay positive.
        assert!(samples.iter().all(|s| s.sync_period_ns > 0.0));
    }

    #[test]
    fn uncontrolled_regions_are_skipped_and_empty_specs_error() {
        let lib = vlib90::high_speed();
        let mut spec = pipeline_spec(3);
        // A bypass edge keeps the survivors coupled once the middle
        // region degrades (matching how the flow's DDG records all
        // register-to-register dependencies, not just adjacent ones).
        spec.edges.push((0, 2));
        spec.regions[1].controlled = false;
        let net = HandshakeNet::elaborate(&spec, &lib).unwrap();
        assert_eq!(net.region_names().len(), 2);
        // The degraded region contributes no controllers; the survivors
        // handshake through the bypass edge and still run.
        net.nominal_cycle_times().unwrap();

        for r in &mut spec.regions {
            r.controlled = false;
        }
        assert!(HandshakeNet::elaborate(&spec, &lib).is_err());
    }

    /// An open chain whose source's matched delay dwarfs the sink's
    /// response time wedges (the pulse-swallowing hazard) — and the
    /// request-extending latch of the liveness repair un-wedges it
    /// without touching the delay imbalance. A free-running isolated
    /// one-level region beside the chain (DLX's input registers) must
    /// neither hide the deadlock nor change the verdict.
    #[test]
    fn loopback_latch_unwedges_the_imbalanced_open_chain() {
        let lib = vlib90::high_speed();
        let chain = HandshakeSpec {
            regions: vec![
                RegionSpec {
                    name: "src".into(),
                    controlled: true,
                    matched_levels: 24,
                    critical_delay_ns: 24.0 * 0.08,
                    loopback_latch: false,
                },
                RegionSpec {
                    name: "sink".into(),
                    controlled: true,
                    matched_levels: 2,
                    critical_delay_ns: 2.0 * 0.08,
                    loopback_latch: false,
                },
            ],
            edges: vec![(0, 1)],
            level_delay_ns: 0.09,
            ff_overhead_ns: 0.15,
        };
        let mut beside_ring = chain.clone();
        beside_ring.regions.push(RegionSpec {
            name: "g0".into(),
            controlled: true,
            matched_levels: 1,
            critical_delay_ns: 0.0,
            loopback_latch: false,
        });
        for mut spec in [chain, beside_ring] {
            let wedged = HandshakeNet::elaborate(&spec, &lib).unwrap();
            let err = wedged.nominal_cycle_times().expect_err("imbalance wedges");
            assert!(
                matches!(&err, SimError::Deadlock { region, .. } if region == "src"),
                "{err}"
            );

            spec.regions[0].loopback_latch = true;
            let repaired = HandshakeNet::elaborate(&spec, &lib).unwrap();
            let cycles = repaired
                .nominal_cycle_times()
                .expect("latched loopback settles");
            assert_eq!(cycles.len(), spec.regions.len());
            // The source still has to traverse its full matched delay.
            assert!(cycles[0].cycle_ns >= cycles[0].matched_delay_ns);
        }
        // The extender must not perturb a healthy balanced topology's
        // liveness either.
        let mut balanced = pipeline_spec(3);
        balanced.regions[0].loopback_latch = true;
        let net = HandshakeNet::elaborate(&balanced, &lib).unwrap();
        net.nominal_cycle_times()
            .expect("balanced chain still settles");
    }

    /// A random spec: 1–12 regions, some uncontrolled, some latched,
    /// matched levels 1–30, and random DDG edges with self-loops, so
    /// isolated, source, sink and wedging regions all occur.
    fn random_spec(rng: &mut impl FnMut() -> u64) -> HandshakeSpec {
        let count = 1 + (rng() % 12) as usize;
        let regions = (0..count)
            .map(|i| RegionSpec {
                name: format!("g{i}"),
                controlled: !rng().is_multiple_of(6),
                matched_levels: 1 + (rng() % 30) as usize,
                critical_delay_ns: (rng() % 4) as f64 * 0.35,
                loopback_latch: rng().is_multiple_of(4),
            })
            .collect();
        let edges = (0..count as u64 / 2 + rng() % (2 * count as u64 + 1))
            .map(|_| {
                (
                    (rng() % count as u64) as usize,
                    (rng() % count as u64) as usize,
                )
            })
            .collect();
        HandshakeSpec {
            regions,
            edges,
            level_delay_ns: [0.09, 0.05, 0.12][(rng() % 3) as usize],
            ff_overhead_ns: 0.15,
        }
    }

    /// The event loop against the kept reference loop on 200 random
    /// specs that elaborate: identical results, errors included, at unit factors (where
    /// same-femtosecond ties occur), at three sigmas × four chips, at the
    /// tap scales 0.7, 1.0 and 1.75, and under a small event cap.
    #[test]
    fn event_loop_matches_the_reference_loop_on_random_specs() {
        let lib = vlib90::high_speed();
        let mut state = 0xD1FF_E4E7_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut compared, mut deadlocks, mut capped) = (0, 0, 0);
        for case in 0u64.. {
            if compared == 200 {
                break;
            }
            let spec = random_spec(&mut rng);
            let Ok(net) = HandshakeNet::elaborate(&spec, &lib) else {
                assert!(
                    !spec.regions.iter().any(|r| r.controlled),
                    "case {case}: {spec:?}"
                );
                continue;
            };
            compared += 1;
            let ones = vec![1.0; net.gate_count()];
            let mut runs: Vec<(Vec<f64>, f64, u64)> = [0.7, 1.0, 1.75]
                .iter()
                .map(|&scale| (ones.clone(), scale, MAX_EVENTS))
                .collect();
            for sigma in [0.05, 0.15, 0.3] {
                let var = GateVariability::new(case, sigma);
                runs.extend((0..4).map(|chip| (net.chip_factors(&var, chip), 1.0, MAX_EVENTS)));
            }
            runs.push((ones, 1.0, 150));
            for (factors, scale, cap) in &runs {
                let got = net.run(factors, *scale, DEFAULT_MAX_EDGES, *cap);
                let want =
                    reference::cycle_times_scaled(&net, factors, *scale, DEFAULT_MAX_EDGES, *cap);
                assert_eq!(got, want, "case {case}, scale {scale}, cap {cap}: {spec:?}");
                match got {
                    Err(SimError::Deadlock { .. }) => deadlocks += 1,
                    Err(SimError::Handshake { .. }) => capped += 1,
                    _ => {}
                }
            }
        }
        // The corpus must reach every outcome the loop distinguishes.
        assert!(
            deadlocks > 0 && capped > 0,
            "{deadlocks} deadlocks, {capped} capped runs"
        );
    }

    #[test]
    fn factor_length_mismatch_is_rejected() {
        let lib = vlib90::high_speed();
        let net = HandshakeNet::elaborate(&ring_spec(4), &lib).unwrap();
        assert!(net.cycle_times(&[1.0], DEFAULT_MAX_EDGES).is_err());
    }
}

/// The event loop as it stood before the flat node table and the fused
/// queue operation, kept verbatim as the differential reference of
/// [`HandshakeNet::cycle_times_scaled`]: `NodeKind` matching, the reset
/// fixed point over kinds, and a `BinaryHeap` of `(time, id, node)`.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{derate, HandshakeNet, RegionCycle, NO_SLOT};
    use crate::events::{fs_to_ns, TimeFs};
    use crate::SimError;

    #[derive(Debug, Clone, Copy)]
    enum NodeKind {
        Inv(usize),
        Buf(usize),
        And2(usize, usize),
        C2 {
            a: usize,
            b: usize,
            reset: Option<bool>,
        },
        Delay(usize),
    }

    impl NodeKind {
        /// The nodes driving this one, each once.
        fn inputs(self) -> impl Iterator<Item = usize> {
            let (a, b) = match self {
                NodeKind::Inv(a) | NodeKind::Buf(a) | NodeKind::Delay(a) => (a, None),
                NodeKind::And2(a, b) | NodeKind::C2 { a, b, .. } => (a, (b != a).then_some(b)),
            };
            std::iter::once(a).chain(b)
        }
    }

    fn eval(kind: NodeKind, values: &[bool], hold: bool) -> bool {
        match kind {
            NodeKind::Inv(a) => !values[a],
            NodeKind::Buf(a) | NodeKind::Delay(a) => values[a],
            NodeKind::And2(a, b) => values[a] && values[b],
            NodeKind::C2 { a, b, .. } => {
                if values[a] == values[b] {
                    values[a]
                } else {
                    hold
                }
            }
        }
    }

    /// `net`'s nodes as kinds: the reset-held C-elements and the matched
    /// delays are read off each region's fixed controller layout, not off
    /// the flat table's reset bookkeeping.
    fn kinds(net: &HandshakeNet) -> Vec<NodeKind> {
        let mut kinds: Vec<NodeKind> = net
            .nodes
            .iter()
            .map(|n| {
                let (a, b) = (n.a as usize, n.b as usize);
                match n.op {
                    super::INV => NodeKind::Inv(a),
                    super::BUF => NodeKind::Buf(a),
                    super::AND2 => NodeKind::And2(a, b),
                    _ => NodeKind::C2 { a, b, reset: None },
                }
            })
            .collect();
        for h in &net.regions {
            for (node, held) in [
                (h.m_a, false),
                (h.m_ro, false),
                (h.s_a, false),
                (h.s_ro, true),
            ] {
                if let NodeKind::C2 { reset, .. } = &mut kinds[node as usize] {
                    *reset = Some(held);
                }
            }
            if let NodeKind::Buf(a) = kinds[h.delay as usize] {
                kinds[h.delay as usize] = NodeKind::Delay(a);
            }
        }
        kinds
    }

    /// The reference run: `HandshakeNet::cycle_times_scaled` before the
    /// flat node table, with the event cap `max_events`.
    pub(super) fn cycle_times_scaled(
        net: &HandshakeNet,
        factors: &[f64],
        matched_scale: f64,
        max_edges: usize,
        max_events: u64,
    ) -> Result<Vec<RegionCycle>, SimError> {
        let kinds = kinds(net);
        let n = kinds.len();

        // CSR fan-out, reset fixed point and release, as `elaborate` built them.
        let mut fanout_start = vec![0usize; n + 1];
        for k in &kinds {
            for a in k.inputs() {
                fanout_start[a + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fill = fanout_start.clone();
        let mut fanout = vec![0usize; fanout_start[n]];
        for (i, k) in kinds.iter().enumerate() {
            for a in k.inputs() {
                fanout[fill[a]] = i;
                fill[a] += 1;
            }
        }
        let held = |k: NodeKind| matches!(k, NodeKind::C2 { reset: Some(_), .. });
        let mut reset: Vec<bool> = kinds
            .iter()
            .map(|k| {
                matches!(
                    k,
                    NodeKind::C2 {
                        reset: Some(true),
                        ..
                    }
                )
            })
            .collect();
        let mut settled = false;
        for _ in 0..n + 2 {
            let mut changed = false;
            for i in 0..n {
                if held(kinds[i]) {
                    continue;
                }
                let v = eval(kinds[i], &reset, reset[i]);
                if v != reset[i] {
                    reset[i] = v;
                    changed = true;
                }
            }
            if !changed {
                settled = true;
                break;
            }
        }
        if !settled {
            return Err(SimError::Handshake {
                message: "reset state did not settle".into(),
            });
        }
        let release: Vec<usize> = (0..n)
            .filter(|&i| held(kinds[i]) && eval(kinds[i], &reset, reset[i]) != reset[i])
            .collect();

        if factors.len() < net.control_gate_count() {
            return Err(SimError::Handshake {
                message: format!(
                    "{} delay factors for {} control gates",
                    factors.len(),
                    net.control_gate_count()
                ),
            });
        }
        let max_edges = max_edges.max(4);

        // Per-node rise/fall delays (fs), rounded once up front.
        let delays: Vec<(TimeFs, TimeFs)> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let matched = matches!(kind, NodeKind::Delay(_));
                let scale = if matched { matched_scale } else { 1.0 };
                let term = |g: usize| derate(net.levels[g], factors[g] * scale);
                let gates = net.gate_base[i]..net.gate_base[i + 1];
                let rise: TimeFs = gates.clone().map(term).sum();
                // Matched delays fall fast (one level); everything else
                // is symmetric.
                let fall = if matched { term(gates.start) } else { rise };
                (rise, fall)
            })
            .collect();

        // The queue: a min-heap of `(time, id, node)`, ids in scheduling
        // order.
        let mut heap: BinaryHeap<Reverse<(TimeFs, u64, usize)>> = BinaryHeap::new();
        let mut next_id = 0u64;
        let mut schedule = |heap: &mut BinaryHeap<Reverse<(TimeFs, u64, usize)>>, time, node| {
            let id = next_id;
            next_id += 1;
            heap.push(Reverse((time, id, node)));
            id
        };

        // Start from the settled reset state and release reset at t = 0.
        // Only the last event a node scheduled is live, and its value is
        // the node's `next_values` entry.
        let mut values = reset.clone();
        let mut next_values = values.clone();
        let mut last = vec![u64::MAX; kinds.len()];
        for &i in &release {
            let v = !values[i];
            next_values[i] = v;
            let delay = if v { delays[i].0 } else { delays[i].1 };
            last[i] = schedule(&mut heap, delay, i);
        }

        // Regions per component still short of `max_edges` edges. A
        // component with none left can change no measurement, so its
        // events are dropped; the rest keep their scheduling order and
        // pop in the same (time, id) order as without the drop.
        let mut open = net.component_regions.clone();
        let regions = net.regions.len();
        let mut edges: Vec<TimeFs> = vec![0; regions * max_edges];
        let mut seen = vec![0usize; regions];
        let mut done = 0usize;

        let mut processed: u64 = 0;
        while let Some(Reverse((time, id, node))) = heap.pop() {
            let component = net.component[node] as usize;
            if last[node] != id || open[component] == 0 {
                continue; // superseded (inertial cancellation) or finished
            }
            processed += 1;
            if processed > max_events {
                return Err(SimError::Handshake {
                    message: format!("event cap exceeded after {processed} events"),
                });
            }
            let value = next_values[node];
            values[node] = value;
            let slot = net.watch[node] as usize;
            if value && slot != NO_SLOT as usize && seen[slot] < max_edges {
                edges[slot * max_edges + seen[slot]] = time;
                seen[slot] += 1;
                if seen[slot] == max_edges {
                    open[component] -= 1;
                    done += 1;
                    if done == regions {
                        break;
                    }
                }
            }
            for &f in &fanout[fanout_start[node]..fanout_start[node + 1]] {
                let target = eval(kinds[f], &values, next_values[f]);
                if target != next_values[f] {
                    next_values[f] = target;
                    let delay = if target { delays[f].0 } else { delays[f].1 };
                    last[f] = schedule(&mut heap, time + delay, f);
                }
            }
        }

        let warmup = max_edges / 2;
        let mut out = Vec::with_capacity(regions);
        for (slot, times) in edges.chunks(max_edges).enumerate() {
            let times = &times[..seen[slot]];
            if times.len() < warmup + 2 {
                return Err(SimError::Deadlock {
                    region: net.region_names[slot].clone(),
                    edges: times.len(),
                    needed: warmup + 2,
                });
            }
            let span_fs = times[times.len() - 1] - times[warmup];
            let cycles = times.len() - 1 - warmup;
            out.push(RegionCycle {
                region: net.region_names[slot].clone(),
                cycle_ns: fs_to_ns(span_fs) / cycles as f64,
                span_fs,
                cycles,
                matched_delay_ns: fs_to_ns((net.matched_fs[slot] as f64 * matched_scale) as TimeFs),
            });
        }
        Ok(out)
    }
}
