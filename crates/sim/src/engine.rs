//! The event-driven simulation engine.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use drd_liberty::function::Expr;
use drd_liberty::{Library, Lv, SeqKind};
use drd_netlist::{Conn, Design, Module, PortDir};

use crate::capture::CaptureLog;
use crate::names::SymSlots;
use crate::{SimError, SimOptions};

/// Compiled boolean expression over net indices.
#[derive(Debug, Clone)]
enum CExpr {
    Net(u32),
    Const(Lv),
    /// The sequential element's own state variable (`IQ`).
    State,
    Not(Box<CExpr>),
    And(Vec<CExpr>),
    Or(Vec<CExpr>),
    Xor(Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    fn eval(&self, nets: &[Lv], state: Lv) -> Lv {
        match self {
            CExpr::Net(n) => nets[*n as usize],
            CExpr::Const(v) => *v,
            CExpr::State => state,
            CExpr::Not(e) => !e.eval(nets, state),
            CExpr::And(es) => es.iter().fold(Lv::One, |a, e| a & e.eval(nets, state)),
            CExpr::Or(es) => es.iter().fold(Lv::Zero, |a, e| a | e.eval(nets, state)),
            CExpr::Xor(a, b) => a.eval(nets, state) ^ b.eval(nets, state),
        }
    }
}

/// An output pin bound to a net with its (derated) propagation delay.
#[derive(Debug, Clone, Copy)]
struct OutPin {
    net: u32,
    delay_ps: u64,
}

#[derive(Debug, Clone)]
enum Model {
    Comb {
        outs: Vec<(CExpr, OutPin)>,
    },
    Ff {
        clk: u32,
        next: CExpr,
        clear: Option<CExpr>,
        preset: Option<CExpr>,
        q: Option<OutPin>,
        qn: Option<OutPin>,
    },
    Latch {
        en: u32,
        data: CExpr,
        clear: Option<CExpr>,
        preset: Option<CExpr>,
        q: Option<OutPin>,
        qn: Option<OutPin>,
    },
    CElement {
        ins: Vec<u32>,
        /// Active-low reset net (forces 0).
        reset: Option<u32>,
        /// Active-low set net (forces 1).
        set: Option<u32>,
        out: OutPin,
    },
}

#[derive(Debug, Clone)]
struct SimCell {
    model: Model,
    /// Sequential state (FF/latch/C-element).
    state: Lv,
    /// Previous clock / enable value for edge detection.
    last_clk: Lv,
    /// Capture-log slot for FFs and latches.
    capture_slot: Option<u32>,
    /// Switching energy per output toggle.
    energy: f64,
    /// Leakage power contribution.
    leakage: f64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    net: u32,
    value: Lv,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

const PS_PER_NS: f64 = 1000.0;

fn ns_to_ps(ns: f64) -> u64 {
    (ns * PS_PER_NS).round().max(0.0) as u64
}

/// Event-driven gate-level simulator over a flattened design.
#[derive(Debug, Clone)]
pub struct Simulator {
    net_values: Vec<Lv>,
    net_names: SymSlots,
    cells: Vec<SimCell>,
    /// net → cells with an input on that net.
    loads: Vec<Vec<u32>>,
    /// net → driving cell (for power attribution).
    driver: Vec<Option<u32>>,
    /// net → last *scheduled* value (suppresses redundant events).
    pending: Vec<Lv>,
    queue: BinaryHeap<Reverse<Event>>,
    time_ps: u64,
    seq: u64,
    toggles: Vec<u64>,
    watches: HashMap<u32, Vec<(u64, bool)>>,
    captures: CaptureLog,
    leakage_total: f64,
    corner: drd_liberty::Corner,
    /// Time at which power counters were last reset.
    window_start_ps: u64,
}

impl Simulator {
    /// Elaborates and flattens `design`'s top module for simulation.
    ///
    /// # Errors
    /// Returns [`SimError`] for unknown cells or elaboration failures.
    pub fn new(design: &Design, lib: &Library, opts: SimOptions) -> Result<Self, SimError> {
        let flat =
            drd_netlist::flatten(design, design.top()).map_err(|e| SimError::Elaboration {
                message: e.to_string(),
            })?;
        Self::from_flat(&flat, lib, opts)
    }

    /// Elaborates an already-flat module.
    ///
    /// # Errors
    /// Returns [`SimError`] for unknown cells or elaboration failures.
    pub fn from_flat(flat: &Module, lib: &Library, opts: SimOptions) -> Result<Self, SimError> {
        let net_count = flat.net_count();
        let mut sim = Simulator {
            net_values: vec![Lv::X; net_count],
            net_names: SymSlots::from_table(flat.symbols().clone()),
            cells: Vec::new(),
            loads: vec![Vec::new(); net_count],
            driver: vec![None; net_count],
            pending: vec![Lv::X; net_count],
            queue: BinaryHeap::new(),
            time_ps: 0,
            seq: 0,
            toggles: vec![0; net_count],
            watches: HashMap::new(),
            captures: CaptureLog::with_table(flat.symbols().clone()),
            leakage_total: 0.0,
            corner: opts.corner,
            window_start_ps: 0,
        };
        for (nid, _) in flat.nets() {
            let slot = sim.net_names.add_sym(flat.net_sym(nid));
            debug_assert_eq!(slot, nid.index() as u32);
        }

        // Net load capacitances for the delay model.
        let mut net_cap = vec![0.0f64; net_count];
        for (_, cell) in flat.cells() {
            let lc = lib
                .cell_of(cell.kind_ref())
                .ok_or_else(|| SimError::UnknownCell {
                    name: cell.kind_name().to_owned(),
                })?;
            for (i, &(_, conn)) in cell.pins().iter().enumerate() {
                if let Conn::Net(n) = conn {
                    if let Some(p) = lc.pin(cell.pin_name(i)) {
                        if p.dir == PortDir::Input {
                            net_cap[n.index()] += p.capacitance;
                        }
                    }
                }
            }
        }

        // Deterministic per-instance variation via a tiny xorshift PRNG +
        // Box–Muller (rand's distributions crate is not needed for this).
        let mut rng_state = opts.seed | 1;
        let mut next_uniform = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut gaussian_factor = move |sigma: f64| -> f64 {
            if sigma <= 0.0 {
                return 1.0;
            }
            let (u1, u2): (f64, f64) = (next_uniform().max(1e-12), next_uniform());
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (1.0 + z * sigma).clamp(1.0 - 4.0 * sigma, 1.0 + 4.0 * sigma)
        };

        for (_, cell) in flat.cells() {
            let lc = lib.cell_of(cell.kind_ref()).expect("checked above");
            let factor = opts.corner.delay_factor * gaussian_factor(opts.intra_die_sigma);
            let cell_idx = sim.cells.len() as u32;

            // Pin bindings.
            let mut bind: HashMap<&str, Conn> = HashMap::new();
            for (i, &(_, conn)) in cell.pins().iter().enumerate() {
                bind.insert(cell.pin_name(i), conn);
            }
            let net_of = |pin: &str| -> Option<u32> {
                match bind.get(pin) {
                    Some(Conn::Net(n)) => Some(n.index() as u32),
                    _ => None,
                }
            };
            let out_pin = |pin: &str| -> Option<OutPin> {
                let net = net_of(pin)?;
                let intrinsic = lc
                    .arcs
                    .iter()
                    .filter(|a| a.to == pin)
                    .map(|a| a.rise.max(a.fall))
                    .fold(0.0f64, f64::max);
                let res = lc.pin(pin).map(|p| p.drive_resistance).unwrap_or(0.0);
                let delay = (intrinsic + res * net_cap[net as usize]) * factor;
                Some(OutPin {
                    net,
                    delay_ps: ns_to_ps(delay).max(1),
                })
            };
            let compile = |expr: &Expr| -> CExpr { compile_expr(expr, &bind, "IQ") };

            // Register input loads.
            let add_load = |net: Option<u32>, loads: &mut Vec<Vec<u32>>| {
                if let Some(n) = net {
                    if !loads[n as usize].contains(&cell_idx) {
                        loads[n as usize].push(cell_idx);
                    }
                }
            };
            for pin in lc.input_pins() {
                add_load(net_of(&pin.name), &mut sim.loads);
            }

            let model = match &lc.seq {
                SeqKind::None => {
                    let mut outs = Vec::new();
                    for pin in lc.output_pins() {
                        let (Some(f), Some(op)) = (&pin.function, out_pin(&pin.name)) else {
                            continue;
                        };
                        outs.push((compile(f), op));
                    }
                    Model::Comb { outs }
                }
                SeqKind::FlipFlop(ff) => Model::Ff {
                    clk: net_of(&ff.clocked_on).ok_or_else(|| SimError::Elaboration {
                        message: format!("flip-flop `{}` has no clock net", cell.name),
                    })?,
                    next: compile(&ff.next_state),
                    clear: ff.clear.as_ref().map(&compile),
                    preset: ff.preset.as_ref().map(&compile),
                    q: out_pin(&ff.q),
                    qn: ff.qn.as_deref().and_then(out_pin),
                },
                SeqKind::Latch(l) => Model::Latch {
                    en: net_of(&l.enable).ok_or_else(|| SimError::Elaboration {
                        message: format!("latch `{}` has no enable net", cell.name),
                    })?,
                    data: compile(&l.data_in),
                    clear: l.clear.as_ref().map(&compile),
                    preset: l.preset.as_ref().map(&compile),
                    q: out_pin(&l.q),
                    qn: l.qn.as_deref().and_then(out_pin),
                },
                SeqKind::CElement {
                    inputs,
                    reset,
                    set,
                    q,
                } => Model::CElement {
                    ins: inputs.iter().filter_map(|p| net_of(p)).collect(),
                    reset: reset.as_deref().and_then(net_of),
                    set: set.as_deref().and_then(net_of),
                    out: out_pin(q).ok_or_else(|| SimError::Elaboration {
                        message: format!("C-element `{}` has no output net", cell.name),
                    })?,
                },
            };

            // Record output drivers for power attribution.
            for pin in lc.output_pins() {
                if let Some(n) = net_of(&pin.name) {
                    sim.driver[n as usize] = Some(cell_idx);
                }
            }

            let is_storage = matches!(model, Model::Ff { .. } | Model::Latch { .. });
            let capture_slot = if is_storage {
                Some(sim.captures.add_element(cell.name))
            } else {
                None
            };
            let initial_state = if opts.init_state_zero && is_storage {
                Lv::Zero
            } else {
                Lv::X
            };
            sim.leakage_total += lc.leakage;
            sim.cells.push(SimCell {
                model,
                state: initial_state,
                last_clk: Lv::X,
                capture_slot,
                energy: lc.switching_energy,
                leakage: lc.leakage,
            });
        }

        // Constant ties.
        for &(net, value) in flat.const_ties() {
            let idx = net.index() as u32;
            sim.schedule(idx, Lv::from_bool(value), 0);
        }
        // Initial output events for zero-initialized storage.
        if opts.init_state_zero {
            for i in 0..sim.cells.len() {
                let (q, qn) = match &sim.cells[i].model {
                    Model::Ff { q, qn, .. } | Model::Latch { q, qn, .. } => (*q, *qn),
                    _ => continue,
                };
                if let Some(q) = q {
                    sim.schedule(q.net, Lv::Zero, 0);
                }
                if let Some(qn) = qn {
                    sim.schedule(qn.net, Lv::One, 0);
                }
            }
        }
        // Evaluate every cell once so constant-tied inputs propagate even
        // though no net event will ever arrive for them.
        for i in 0..sim.cells.len() as u32 {
            sim.eval_cell(i);
        }
        Ok(sim)
    }

    fn net_index(&self, name: &str) -> Result<u32, SimError> {
        self.net_names
            .get(name)
            .ok_or_else(|| SimError::UnknownNet {
                name: name.to_owned(),
            })
    }

    /// Forces a port/net to `value` at the current time.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn poke(&mut self, net: &str, value: Lv) -> Result<(), SimError> {
        let idx = self.net_index(net)?;
        self.schedule(idx, value, self.time_ps);
        Ok(())
    }

    /// Forces a port/net to `value` at `at_ns` (absolute time).
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn poke_at(&mut self, net: &str, value: Lv, at_ns: f64) -> Result<(), SimError> {
        let idx = self.net_index(net)?;
        let t = ns_to_ps(at_ns).max(self.time_ps);
        self.schedule(idx, value, t);
        Ok(())
    }

    /// Schedules a square clock on `port`: rising edges at `offset + k·p`.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn schedule_clock(
        &mut self,
        port: &str,
        period_ns: f64,
        offset_ns: f64,
        cycles: usize,
    ) -> Result<(), SimError> {
        let idx = self.net_index(port)?;
        let period = ns_to_ps(period_ns);
        let offset = ns_to_ps(offset_ns);
        self.schedule(idx, Lv::Zero, self.time_ps);
        for k in 0..cycles {
            let rise = offset + k as u64 * period;
            self.schedule(idx, Lv::One, rise);
            self.schedule(idx, Lv::Zero, rise + period / 2);
        }
        Ok(())
    }

    /// Current value of a net.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn peek(&self, net: &str) -> Result<Lv, SimError> {
        Ok(self.net_values[self.net_index(net)? as usize])
    }

    /// Records rising-edge times of `net` from now on.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn watch(&mut self, net: &str) -> Result<(), SimError> {
        let idx = self.net_index(net)?;
        self.watches.entry(idx).or_default();
        Ok(())
    }

    /// Rising-edge times (ns) recorded for a watched net.
    pub fn rising_edges(&self, net: &str) -> Vec<f64> {
        self.edge_trace(net)
            .into_iter()
            .filter(|&(_, rising)| rising)
            .map(|(t, _)| t)
            .collect()
    }

    /// All recorded edges of a watched net as `(time_ns, rising)`.
    pub fn edge_trace(&self, net: &str) -> Vec<(f64, bool)> {
        match self.net_names.get(net) {
            Some(idx) => self
                .watches
                .get(&idx)
                .map(|v| {
                    v.iter()
                        .map(|&(t, rising)| (t as f64 / PS_PER_NS, rising))
                        .collect()
                })
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Current simulation time (ns).
    pub fn time_ns(&self) -> f64 {
        self.time_ps as f64 / PS_PER_NS
    }

    /// Runs the simulation forward by `ns`.
    pub fn run_for(&mut self, ns: f64) {
        let end = self.time_ps + ns_to_ps(ns);
        self.run_until_ps(end);
        self.time_ps = end;
    }

    /// Runs until the event queue drains or `max_ns` elapses. Returns true
    /// if the circuit went quiet.
    pub fn run_until_quiet(&mut self, max_ns: f64) -> bool {
        let end = self.time_ps + ns_to_ps(max_ns);
        self.run_until_ps(end);
        if self.queue.is_empty() {
            true
        } else {
            self.time_ps = end;
            false
        }
    }

    fn run_until_ps(&mut self, end: u64) {
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time > end {
                break;
            }
            let t = head.time;
            self.time_ps = t;
            affected.clear();
            // Apply all events at this timestamp in schedule order.
            while let Some(Reverse(ev)) = self.queue.peek() {
                if ev.time != t {
                    break;
                }
                let Reverse(ev) = self.queue.pop().expect("peeked");
                let net = ev.net as usize;
                if self.net_values[net] != ev.value {
                    if self.net_values[net].is_known() && ev.value.is_known() {
                        self.toggles[net] += 1;
                    }
                    if ev.value.is_known() {
                        if let Some(edges) = self.watches.get_mut(&ev.net) {
                            edges.push((t, ev.value == Lv::One));
                        }
                    }
                    self.net_values[net] = ev.value;
                    affected.extend(self.loads[net].iter().copied());
                }
            }
            for &cell in affected.iter() {
                self.eval_cell(cell);
            }
        }
    }

    fn schedule(&mut self, net: u32, value: Lv, time: u64) {
        if self.pending[net as usize] == value {
            return;
        }
        self.pending[net as usize] = value;
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            net,
            value,
        }));
    }

    fn eval_cell(&mut self, idx: u32) {
        let i = idx as usize;
        let t = self.time_ps;
        // Split borrows: clone the (small) model description handle.
        let model = self.cells[i].model.clone();
        match model {
            Model::Comb { outs } => {
                for (expr, op) in &outs {
                    let v = expr.eval(&self.net_values, Lv::X);
                    self.schedule(op.net, v, t + op.delay_ps);
                }
            }
            Model::Ff {
                clk,
                next,
                clear,
                preset,
                q,
                qn,
            } => {
                let c = self.net_values[clk as usize];
                // X→1 counts as a rising edge (first clock after power-up).
                let rising = self.cells[i].last_clk != Lv::One && c == Lv::One;
                self.cells[i].last_clk = c;
                let clear_on = clear
                    .as_ref()
                    .map(|e| e.eval(&self.net_values, self.cells[i].state) == Lv::One)
                    .unwrap_or(false);
                let preset_on = preset
                    .as_ref()
                    .map(|e| e.eval(&self.net_values, self.cells[i].state) == Lv::One)
                    .unwrap_or(false);
                let mut new_state = self.cells[i].state;
                if clear_on {
                    new_state = Lv::Zero;
                } else if preset_on {
                    new_state = Lv::One;
                } else if rising {
                    new_state = next.eval(&self.net_values, self.cells[i].state);
                    if let Some(slot) = self.cells[i].capture_slot {
                        self.captures.record(slot, t, new_state);
                    }
                }
                if new_state != self.cells[i].state || rising {
                    self.cells[i].state = new_state;
                    if let Some(q) = q {
                        self.schedule(q.net, new_state, t + q.delay_ps);
                    }
                    if let Some(qn) = qn {
                        self.schedule(qn.net, !new_state, t + qn.delay_ps);
                    }
                }
            }
            Model::Latch {
                en,
                data,
                clear,
                preset,
                q,
                qn,
            } => {
                let e = self.net_values[en as usize];
                let falling = self.cells[i].last_clk == Lv::One && e != Lv::One;
                self.cells[i].last_clk = e;
                let clear_on = clear
                    .as_ref()
                    .map(|x| x.eval(&self.net_values, self.cells[i].state) == Lv::One)
                    .unwrap_or(false);
                let preset_on = preset
                    .as_ref()
                    .map(|x| x.eval(&self.net_values, self.cells[i].state) == Lv::One)
                    .unwrap_or(false);
                let mut new_state = self.cells[i].state;
                if clear_on {
                    new_state = Lv::Zero;
                } else if preset_on {
                    new_state = Lv::One;
                } else if e == Lv::One {
                    new_state = data.eval(&self.net_values, self.cells[i].state);
                }
                if falling {
                    // Capture: the value being held as the latch closes.
                    if let Some(slot) = self.cells[i].capture_slot {
                        self.captures.record(slot, t, new_state);
                    }
                }
                if new_state != self.cells[i].state {
                    self.cells[i].state = new_state;
                    if let Some(q) = q {
                        self.schedule(q.net, new_state, t + q.delay_ps);
                    }
                    if let Some(qn) = qn {
                        self.schedule(qn.net, !new_state, t + qn.delay_ps);
                    }
                }
            }
            Model::CElement {
                ins,
                reset,
                set,
                out,
            } => {
                let state = self.cells[i].state;
                let mut new_state = state;
                let reset_on = reset
                    .map(|r| self.net_values[r as usize] == Lv::Zero)
                    .unwrap_or(false);
                let set_on = set
                    .map(|s| self.net_values[s as usize] == Lv::Zero)
                    .unwrap_or(false);
                if reset_on {
                    new_state = Lv::Zero;
                } else if set_on {
                    new_state = Lv::One;
                } else {
                    let all_one = ins.iter().all(|&n| self.net_values[n as usize] == Lv::One);
                    let all_zero = ins.iter().all(|&n| self.net_values[n as usize] == Lv::Zero);
                    if all_one {
                        new_state = Lv::One;
                    } else if all_zero {
                        new_state = Lv::Zero;
                    }
                }
                if new_state != state {
                    self.cells[i].state = new_state;
                    self.schedule(out.net, new_state, t + out.delay_ps);
                }
            }
        }
    }

    /// The capture log of all sequential elements.
    pub fn captures(&self) -> &CaptureLog {
        &self.captures
    }

    /// Total toggles observed on a net.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn toggle_count(&self, net: &str) -> Result<u64, SimError> {
        Ok(self.toggles[self.net_index(net)? as usize])
    }

    /// Resets the power-measurement window to start now.
    pub fn reset_power_window(&mut self) {
        self.window_start_ps = self.time_ps;
        self.toggles.iter_mut().for_each(|t| *t = 0);
    }

    /// Computes the power report for the current window (see
    /// [`crate::PowerReport`]).
    pub fn power_report(&self) -> crate::PowerReport {
        crate::power::compute(
            &self.toggles,
            &self.driver,
            &self.cells.iter().map(|c| c.energy).collect::<Vec<_>>(),
            self.cells.iter().map(|c| c.leakage).sum::<f64>(),
            self.corner,
            (self.time_ps - self.window_start_ps) as f64 / PS_PER_NS,
        )
    }

    /// Number of simulated cells (after flattening).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_values.len()
    }
}

fn compile_expr(expr: &Expr, bind: &HashMap<&str, Conn>, state_var: &str) -> CExpr {
    match expr {
        Expr::Var(v) if v == state_var => CExpr::State,
        Expr::Var(v) => match bind.get(v.as_str()) {
            Some(Conn::Net(n)) => CExpr::Net(n.index() as u32),
            Some(Conn::Const0) => CExpr::Const(Lv::Zero),
            Some(Conn::Const1) => CExpr::Const(Lv::One),
            _ => CExpr::Const(Lv::X),
        },
        Expr::Const(b) => CExpr::Const(Lv::from_bool(*b)),
        Expr::Not(e) => CExpr::Not(Box::new(compile_expr(e, bind, state_var))),
        Expr::And(es) => CExpr::And(
            es.iter()
                .map(|e| compile_expr(e, bind, state_var))
                .collect(),
        ),
        Expr::Or(es) => CExpr::Or(
            es.iter()
                .map(|e| compile_expr(e, bind, state_var))
                .collect(),
        ),
        Expr::Xor(a, b) => CExpr::Xor(
            Box::new(compile_expr(a, bind, state_var)),
            Box::new(compile_expr(b, bind, state_var)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;
    use drd_netlist::Design;

    fn build(f: impl FnOnce(&mut Module)) -> Design {
        let mut d = Design::new();
        let id = d.add_module("t");
        f(d.module_mut(id));
        d
    }

    fn sim(design: &Design) -> Simulator {
        Simulator::new(design, &vlib90::high_speed(), SimOptions::default()).unwrap()
    }

    #[test]
    fn combinational_chain_propagates() {
        let d = build(|m| {
            m.add_port("a", PortDir::Input).unwrap();
            m.add_port("b", PortDir::Input).unwrap();
            m.add_port("z", PortDir::Output).unwrap();
            let a = m.find_net("a").unwrap();
            let b = m.find_net("b").unwrap();
            let z = m.find_net("z").unwrap();
            let n = m.add_net("n").unwrap();
            m.add_cell(
                "g1",
                "NAND2X1",
                &[
                    ("A", Conn::Net(a)),
                    ("B", Conn::Net(b)),
                    ("Z", Conn::Net(n)),
                ],
            )
            .unwrap();
            m.add_cell("g2", "INVX1", &[("A", Conn::Net(n)), ("Z", Conn::Net(z))])
                .unwrap();
        });
        let mut s = sim(&d);
        s.poke("a", Lv::One).unwrap();
        s.poke("b", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::One);
        s.poke("b", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::Zero);
    }

    #[test]
    fn dff_samples_on_rising_edge() {
        let d = build(|m| {
            m.add_port("d", PortDir::Input).unwrap();
            m.add_port("clk", PortDir::Input).unwrap();
            m.add_port("q", PortDir::Output).unwrap();
            let dn = m.find_net("d").unwrap();
            let clk = m.find_net("clk").unwrap();
            let q = m.find_net("q").unwrap();
            m.add_cell(
                "r",
                "DFFX1",
                &[
                    ("D", Conn::Net(dn)),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
        });
        let mut s = sim(&d);
        s.poke("clk", Lv::Zero).unwrap();
        s.poke("d", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::Zero, "init state");
        s.poke("clk", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::One, "captured on edge");
        // D change without an edge does not propagate.
        s.poke("d", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::One);
        // Capture log recorded one event with value One.
        let log = s.captures();
        let seq = log.sequence("r").unwrap();
        assert_eq!(seq, vec![Lv::One]);
    }

    #[test]
    fn latch_is_transparent_while_enabled() {
        let d = build(|m| {
            m.add_port("d", PortDir::Input).unwrap();
            m.add_port("g", PortDir::Input).unwrap();
            m.add_port("q", PortDir::Output).unwrap();
            let dn = m.find_net("d").unwrap();
            let g = m.find_net("g").unwrap();
            let q = m.find_net("q").unwrap();
            m.add_cell(
                "l",
                "LDX1",
                &[
                    ("D", Conn::Net(dn)),
                    ("G", Conn::Net(g)),
                    ("Q", Conn::Net(q)),
                ],
            )
            .unwrap();
        });
        let mut s = sim(&d);
        s.poke("g", Lv::One).unwrap();
        s.poke("d", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::One);
        s.poke("d", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::Zero, "transparent");
        s.poke("g", Lv::Zero).unwrap();
        s.run_for(0.5);
        s.poke("d", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::Zero, "opaque holds");
        // One capture at the falling enable, holding 0.
        assert_eq!(s.captures().sequence("l").unwrap(), vec![Lv::Zero]);
    }

    #[test]
    fn celement_rendezvous_semantics() {
        let d = build(|m| {
            m.add_port("a", PortDir::Input).unwrap();
            m.add_port("b", PortDir::Input).unwrap();
            m.add_port("rn", PortDir::Input).unwrap();
            m.add_port("z", PortDir::Output).unwrap();
            let a = m.find_net("a").unwrap();
            let b = m.find_net("b").unwrap();
            let rn = m.find_net("rn").unwrap();
            let z = m.find_net("z").unwrap();
            m.add_cell(
                "c",
                "C2RX1",
                &[
                    ("A", Conn::Net(a)),
                    ("B", Conn::Net(b)),
                    ("RN", Conn::Net(rn)),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
        });
        let mut s = sim(&d);
        // Reset drives output low.
        s.poke("rn", Lv::Zero).unwrap();
        s.poke("a", Lv::One).unwrap();
        s.poke("b", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::Zero);
        s.poke("rn", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::Zero, "holds after reset release");
        s.poke("b", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::One, "all inputs high");
        s.poke("a", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::One, "holds on mixed inputs");
        s.poke("b", Lv::Zero).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("z").unwrap(), Lv::Zero, "all inputs low");
    }

    #[test]
    fn ring_oscillator_oscillates_and_corner_scales_period() {
        let ring = |_: ()| {
            build(|m| {
                let n0 = m.add_net("n0").unwrap();
                let n1 = m.add_net("n1").unwrap();
                let n2 = m.add_net("n2").unwrap();
                let en = m.add_net("en").unwrap();
                // NAND-start ring so it self-starts once enabled.
                m.add_cell(
                    "g0",
                    "NAND2X1",
                    &[
                        ("A", Conn::Net(n2)),
                        ("B", Conn::Net(en)),
                        ("Z", Conn::Net(n0)),
                    ],
                )
                .unwrap();
                m.add_cell("g1", "INVX1", &[("A", Conn::Net(n0)), ("Z", Conn::Net(n1))])
                    .unwrap();
                m.add_cell("g2", "INVX1", &[("A", Conn::Net(n1)), ("Z", Conn::Net(n2))])
                    .unwrap();
            })
        };
        let measure = |corner| {
            let d = ring(());
            let mut s =
                Simulator::new(&d, &vlib90::high_speed(), SimOptions::at_corner(corner)).unwrap();
            s.poke("en", Lv::One).unwrap();
            s.poke("n2", Lv::One).unwrap();
            s.watch("n0").unwrap();
            s.run_for(20.0);
            let edges = s.rising_edges("n0");
            assert!(edges.len() > 10, "oscillates: {} edges", edges.len());
            // Average period over the recorded edges.
            (edges[edges.len() - 1] - edges[1]) / (edges.len() - 2) as f64
        };
        let typical = measure(drd_liberty::Corner::typical());
        let worst = measure(drd_liberty::Corner::worst());
        assert!(worst > 1.3 * typical, "worst {worst} vs typical {typical}");
    }

    #[test]
    fn scan_ff_obeys_scan_enable() {
        let d = build(|m| {
            for p in ["d", "si", "se", "clk"] {
                m.add_port(p, PortDir::Input).unwrap();
            }
            m.add_port("q", PortDir::Output).unwrap();
            let pins = [
                ("D", Conn::Net(m.find_net("d").unwrap())),
                ("SI", Conn::Net(m.find_net("si").unwrap())),
                ("SE", Conn::Net(m.find_net("se").unwrap())),
                ("CK", Conn::Net(m.find_net("clk").unwrap())),
                ("Q", Conn::Net(m.find_net("q").unwrap())),
            ];
            m.add_cell("r", "SDFFX1", &pins).unwrap();
        });
        let mut s = sim(&d);
        s.poke("clk", Lv::Zero).unwrap();
        s.poke("d", Lv::Zero).unwrap();
        s.poke("si", Lv::One).unwrap();
        s.poke("se", Lv::One).unwrap();
        s.run_for(1.0);
        s.poke("clk", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::One, "scan path selected");
        s.poke("clk", Lv::Zero).unwrap();
        s.poke("se", Lv::Zero).unwrap();
        s.run_for(1.0);
        s.poke("clk", Lv::One).unwrap();
        s.run_for(1.0);
        assert_eq!(s.peek("q").unwrap(), Lv::Zero, "functional path selected");
    }

    #[test]
    fn intra_die_variation_changes_delays_not_function() {
        let d = build(|m| {
            m.add_port("a", PortDir::Input).unwrap();
            m.add_port("z", PortDir::Output).unwrap();
            let a = m.find_net("a").unwrap();
            let z = m.find_net("z").unwrap();
            let mut prev = a;
            for i in 0..8 {
                let next = if i == 7 {
                    z
                } else {
                    m.add_net(format!("n{i}")).unwrap()
                };
                m.add_cell(
                    format!("u{i}"),
                    "BUFX1",
                    &[("A", Conn::Net(prev)), ("Z", Conn::Net(next))],
                )
                .unwrap();
                prev = next;
            }
        });
        let opts = SimOptions::default().with_variation(0.08, 7);
        let mut s = Simulator::new(&d, &vlib90::high_speed(), opts).unwrap();
        s.poke("a", Lv::One).unwrap();
        s.run_for(2.0);
        assert_eq!(s.peek("z").unwrap(), Lv::One);
    }
}
