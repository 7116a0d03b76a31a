//! Liveness guard (the ninth pass, DESIGN.md §3i).
//!
//! The loopback environment (`crate::network`) feeds a *source* region's
//! own slave request back as its input request. That request falls as
//! soon as the successor acknowledges, so its pulse width equals the
//! successor's response time — and a source whose matched delay exceeds
//! that width has its request swallowed by the asymmetric delay element
//! (every AND stage is fed by the input, so a falling input collapses
//! the whole chain) and the region wedges after one transfer. Interior
//! regions are immune: their requests are held by C-element joins until
//! the consumer has answered.
//!
//! The guard computes a conservative response-time bound for every
//! source region's successors, flags sources whose request-chain rise
//! time can outlive the pulse, and repairs each hazard with a
//! deterministic ladder:
//!
//! 1. **Deepen** the deficient successors' delay elements so the pulse
//!    outlives the source's rise time (with the flow's delay margin) —
//!    unless the new chain would exceed the clock-period timing budget.
//! 2. **Latch** the source's loopback with a request-extending
//!    C-element (`C2(ros, !aim)`): the request is held until the
//!    region's own master acknowledges, so no pulse can be swallowed.
//! 3. **Degrade** the source to synchronous (reusing the per-region
//!    degradation machinery) when simulation shows the network still
//!    wedges — a strict run turns this rung into
//!    [`DesyncError::Liveness`] instead.
//!
//! The planner's state is the [`HandshakeSpec`] the simulator
//! elaborates — the same model `crate::handshake_spec` projects from a
//! finished report for the liveness oracle and `simulate
//! --check-liveness` — so the guard, the oracle and the CLI screen one
//! model with one window formula ([`pulse_window`]).
//!
//! Every decision is recorded as a [`LivenessRepair`] and the repaired
//! network is validated by `drd_sim::handshake`: the planner keeps
//! repairing until the previously-deadlocking topology settles, and an
//! unrepaireable deadlock is always a structured error — never silent.
//!
//! Determinism: hazards are processed one per round in region-index
//! order, all netlist surgery is serial in record order, and the bound
//! math uses only library constants and one deterministic STA probe —
//! the records and the repaired netlist are byte-identical for every
//! worker count.

use std::fmt;

use drd_liberty::gatefile::MeasuredDelays;
use drd_liberty::{Corner, Library};
use drd_netlist::{Conn, Design, Module, ModuleId, NetId};
use drd_sim::{HandshakeNet, HandshakeSpec, SimError};
use drd_sta::TimingGraph;

use crate::delay_element;
use crate::network::{delem_module_name, RegionControl};
use crate::{DesyncError, LibraryFacts};

/// Stages of the probe chain whose per-stage STA arrivals seed
/// [`ResponseModel::chain_delay_ns`]; deeper chains extrapolate with the
/// last measured stage-to-stage gap.
const CHAIN_PROBE_LEVELS: usize = 40;

/// Library-derived constants of the response-bound model.
///
/// A successor's response time to a rising request is its own matched
/// delay (the request must traverse the deepened chain) plus its request
/// join tree (one C-element stage per `log2` of the controlled fan-in)
/// plus the controller round trip — request C-element, master latch
/// controller, acknowledge inverter, slave controller — approximated by
/// one worst-case intrinsic delay of each gate in that path.
///
/// The chain term is per-edge STA, not a linear average: [`Self::probe`]
/// runs one timing analysis over a 40-stage (`CHAIN_PROBE_LEVELS`) delay
/// element and records the arrival at every stage output, so wire/fanout
/// load (the BUFX2 feed segmentation, the shared fast-fall net) is in
/// the bound. The table only ever *raises* the response bound over the
/// old `levels × level_delay_ns` floor, so hazards can only shrink and
/// deepen targets never increase relative to the linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseModel {
    /// Typical-corner delay of one AND level of a delay element (ns).
    pub level_delay_ns: f64,
    /// Controller round-trip delay: `C2RX1 + BUFX1 + INVX1 + C2SX1` (ns).
    pub ctrl_response_ns: f64,
    /// Typical-corner delay of one C2X1 join-tree stage (ns); 0 in flat
    /// models.
    join_stage_ns: f64,
    /// `chain_arrival_ns[i]` = STA arrival at stage `i`'s output of the
    /// probe chain — the measured delay of an `(i+1)`-level element with
    /// its real wire load. Empty in flat models.
    chain_arrival_ns: Vec<f64>,
}

impl ResponseModel {
    /// A load-blind linear model: `response = levels × level_delay +
    /// ctrl_response`, no join-tree credit. This is the conservative
    /// floor [`Self::probe`] refines; tests use it for closed-form
    /// arithmetic.
    pub fn flat(level_delay_ns: f64, ctrl_response_ns: f64) -> Self {
        ResponseModel {
            level_delay_ns,
            ctrl_response_ns,
            join_stage_ns: 0.0,
            chain_arrival_ns: Vec::new(),
        }
    }

    /// Probes the model's constants from `lib` by STA, including the
    /// per-stage arrival table of a 40-deep (`CHAIN_PROBE_LEVELS`) chain.
    /// Every call measures again; the flow reads
    /// [`crate::LibraryFacts::response`], which measures once per
    /// prepared gatefile.
    ///
    /// # Errors
    /// [`DesyncError::UnknownCell`] when a controller gate is missing;
    /// propagates STA errors from the chain probe.
    pub fn probe(lib: &Library) -> Result<Self, DesyncError> {
        LibraryFacts::new(lib, &MeasuredDelays::default()).response()
    }

    /// The model on a measured level delay and per-stage chain arrival
    /// table ([`chain_arrival_ns`]), with the controller constants read
    /// from `lib`.
    pub(crate) fn measured(
        lib: &Library,
        level_delay_ns: f64,
        chain_arrival_ns: Vec<f64>,
    ) -> Result<Self, DesyncError> {
        let d = |name: &str| {
            lib.cell(name)
                .map(|c| c.max_intrinsic_delay())
                .ok_or_else(|| DesyncError::UnknownCell {
                    name: name.to_owned(),
                })
        };
        let ctrl_response_ns = d("C2RX1")? + d("BUFX1")? + d("INVX1")? + d("C2SX1")?;
        let join_stage_ns = d("C2X1")?;
        Ok(ResponseModel {
            level_delay_ns,
            ctrl_response_ns,
            join_stage_ns,
            chain_arrival_ns,
        })
    }

    /// Rise time of a `levels`-deep request chain (ns). Deliberately the
    /// linear floor, never the STA table: over-estimating the *source's*
    /// pulse length would under-flag, so only the successor side gets the
    /// refined (larger) number.
    pub fn rise_ns(&self, levels: usize) -> f64 {
        levels as f64 * self.level_delay_ns
    }

    /// STA-measured propagation delay of a `levels`-deep chain (ns),
    /// clamped from below by the linear estimate so refining the model
    /// can only raise response bounds, never lower them.
    fn chain_delay_ns(&self, levels: usize) -> f64 {
        let linear = self.rise_ns(levels);
        if levels == 0 || self.chain_arrival_ns.is_empty() {
            return linear;
        }
        let n = self.chain_arrival_ns.len();
        let sta = if levels <= n {
            self.chain_arrival_ns[levels - 1]
        } else {
            // Beyond the probe: extend with the last stage-to-stage gap
            // (the chain is periodic past the first feed segment).
            let slope = if n >= 2 {
                self.chain_arrival_ns[n - 1] - self.chain_arrival_ns[n - 2]
            } else {
                self.level_delay_ns
            };
            self.chain_arrival_ns[n - 1] + (levels - n) as f64 * slope
        };
        linear.max(sta)
    }

    /// C-element stages in the request join tree of a successor fed by
    /// `fanin` controlled predecessors (balanced pairwise reduction:
    /// `⌈log2 fanin⌉`, 0 for a single raw-wire predecessor).
    pub fn join_levels(fanin: usize) -> usize {
        if fanin < 2 {
            0
        } else {
            (usize::BITS - (fanin - 1).leading_zeros()) as usize
        }
    }

    /// Per-edge response time of a successor with a `levels`-deep delay
    /// element whose request join is fed by `join_fanin` controlled
    /// predecessors (ns): STA chain delay + join-tree stages + controller
    /// round trip.
    pub fn edge_response_ns(&self, levels: usize, join_fanin: usize) -> f64 {
        self.chain_delay_ns(levels)
            + Self::join_levels(join_fanin) as f64 * self.join_stage_ns
            + self.ctrl_response_ns
    }

    /// Response time of a successor with a `levels`-deep delay element
    /// and no join-tree credit (ns) — the single-predecessor edge bound.
    pub fn response_ns(&self, levels: usize) -> f64 {
        self.edge_response_ns(levels, 0)
    }
}

/// STA arrival at each stage output of a `CHAIN_PROBE_LEVELS`-deep delay
/// element (ns): entry `i` is the measured delay of an `(i+1)`-level
/// element with its real wire load.
///
/// # Errors
/// Propagates STA errors.
pub(crate) fn chain_arrival_ns(lib: &Library) -> Result<Vec<f64>, DesyncError> {
    let probe = delay_element::build_fixed("drd_delem_edge_probe", CHAIN_PROBE_LEVELS);
    let graph = TimingGraph::build(&probe, lib)?;
    let arrivals = graph.arrivals(Corner::typical())?;
    let z = probe.lookup_sym("Z");
    let mut chain_arrival_ns = Vec::with_capacity(CHAIN_PROBE_LEVELS);
    for i in 0..CHAIN_PROBE_LEVELS {
        let stage = probe.find_cell(&format!("u{i}"));
        let node = stage
            .zip(z)
            .and_then(|(c, z)| graph.find_pin(c, z))
            .ok_or_else(|| DesyncError::Pipeline {
                message: format!("response-model probe: chain stage u{i} missing"),
            })?;
        chain_arrival_ns.push(arrivals.at(node));
    }
    Ok(chain_arrival_ns)
}

/// Number of controlled predecessors feeding region `s`'s request join —
/// the fan-in that sizes its C-element join tree in the elaborated
/// control network.
pub fn join_fanin(spec: &HandshakeSpec, s: usize) -> usize {
    spec.edges
        .iter()
        .filter(|&&(p, q)| q == s && p != s && spec.regions[p].controlled)
        .count()
}

/// Whether region `i` is a loopback source: controlled, no controlled
/// predecessors (a self-loop counts as a predecessor) and at least one
/// controlled successor to swallow its pulse.
pub fn is_source(spec: &HandshakeSpec, i: usize) -> bool {
    spec.regions[i].controlled
        && !spec
            .edges
            .iter()
            .any(|&(p, s)| s == i && spec.regions[p].controlled)
        && successors(spec, i).next().is_some()
}

/// Region `i`'s controlled successors other than itself, in edge order.
fn successors(spec: &HandshakeSpec, i: usize) -> impl Iterator<Item = usize> + '_ {
    spec.edges
        .iter()
        .filter(move |&&(p, s)| p == i && s != i && spec.regions[s].controlled)
        .map(|&(_, s)| s)
}

/// Per-edge response bound of successor `s` (ns).
fn edge_response(model: &ResponseModel, spec: &HandshakeSpec, s: usize) -> f64 {
    model.edge_response_ns(spec.regions[s].matched_levels, join_fanin(spec, s))
}

/// Region `i`'s pulse window `(rise, bound)` (ns): the rise time of its
/// request chain, and the response bound of its fastest controlled
/// successor — the width of the loopback pulse, infinite with no
/// controlled successor.
pub fn pulse_window(model: &ResponseModel, spec: &HandshakeSpec, i: usize) -> (f64, f64) {
    let rise = model.rise_ns(spec.regions[i].matched_levels);
    let bound = successors(spec, i)
        .map(|s| edge_response(model, spec, s))
        .fold(f64::INFINITY, f64::min);
    (rise, bound)
}

/// One flagged pulse-swallowing hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct Hazard {
    /// Index of the source region.
    pub region: usize,
    /// The source's request-chain rise time (ns).
    pub rise_ns: f64,
    /// The fastest successor's response time — the pulse width (ns).
    pub bound_ns: f64,
    /// Successors whose response is below `rise_ns ×` the margin.
    pub deficient: Vec<usize>,
}

/// Flags every unlatched source whose rise time reaches the fastest
/// successor's response bound, in region-index order.
pub fn hazards(model: &ResponseModel, spec: &HandshakeSpec, margin: f64) -> Vec<Hazard> {
    (0..spec.regions.len())
        .filter(|&i| is_source(spec, i) && !spec.regions[i].loopback_latch)
        .filter_map(|i| {
            let (rise, bound) = pulse_window(model, spec, i);
            if rise < bound {
                return None;
            }
            let deficient = successors(spec, i)
                .filter(|&s| edge_response(model, spec, s) < rise * margin)
                .collect();
            Some(Hazard {
                region: i,
                rise_ns: rise,
                bound_ns: bound,
                deficient,
            })
        })
        .collect()
}

/// What one repair did.
#[derive(Debug, Clone, PartialEq)]
pub enum LivenessAction {
    /// A deficient successor's delay element was swapped for a deeper
    /// one (the instance name is unchanged; only its module changes).
    DeepenSuccessor {
        /// The successor whose element was deepened.
        successor: String,
        /// Levels before the repair.
        from_levels: usize,
        /// Levels after the repair.
        to_levels: usize,
    },
    /// A request-extending C-element latch was inserted on the source's
    /// loopback path.
    RequestLatch,
    /// The source was degraded to synchronous.
    Degrade,
}

/// One recorded liveness repair — a FlowTrace / report artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessRepair {
    /// The source region whose pulse was at risk.
    pub region: String,
    /// The source's request-chain rise time at decision time (ns).
    pub rise_ns: f64,
    /// The fastest successor's response bound at decision time (ns).
    pub response_bound_ns: f64,
    /// The rung of the ladder that was applied.
    pub action: LivenessAction,
}

impl fmt::Display for LivenessRepair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region `{}`: request rise {:.3} ns vs successor response {:.3} ns — ",
            self.region, self.rise_ns, self.response_bound_ns
        )?;
        match &self.action {
            LivenessAction::DeepenSuccessor {
                successor,
                from_levels,
                to_levels,
            } => write!(
                f,
                "deepened `{successor}`'s delay element {from_levels} → {to_levels} levels"
            ),
            LivenessAction::RequestLatch => {
                write!(f, "request-extending latch inserted on the loopback")
            }
            LivenessAction::Degrade => write!(f, "repairs exhausted, region left synchronous"),
        }
    }
}

/// Plans the repair ladder over the control-network model.
///
/// Phase A screens statically: each hazard (one per round, region-index
/// order) either deepens all deficient successors — sized so their
/// response covers `margin ×` the source's rise, rejected when the new
/// chain's own rise would exceed `clock_period_ns` — or, over budget,
/// latches the source's loopback. Phase B validates dynamically: while
/// `validate` reports a deadlock, the first unlatched source is latched;
/// with every source latched, the first source is degraded (an error in
/// `strict` mode). A deadlock that survives all rungs is
/// [`DesyncError::Liveness`].
///
/// `validate` receives the candidate spec and returns `Ok(true)` when
/// the network settles (or the topology is vacuous — the caller decides).
/// `spec` is mutated to the final planned state; the returned records
/// are the repairs in application order.
///
/// # Errors
/// [`DesyncError::Liveness`] as above; propagates validator errors.
pub fn plan_repairs(
    model: &ResponseModel,
    spec: &mut HandshakeSpec,
    clock_period_ns: f64,
    margin: f64,
    strict: bool,
    mut validate: impl FnMut(&HandshakeSpec) -> Result<bool, DesyncError>,
) -> Result<Vec<LivenessRepair>, DesyncError> {
    let n = spec.regions.len();
    let mut repairs = Vec::new();
    let repair =
        |spec: &HandshakeSpec, i: usize, (rise_ns, response_bound_ns), action| LivenessRepair {
            region: spec.regions[i].name.clone(),
            rise_ns,
            response_bound_ns,
            action,
        };

    // Phase A: static screening. Deepening only raises successor
    // response times and latching removes a source from the hazard set,
    // so one hazard per round converges; the cap is pure defence.
    for _ in 0..(2 * n + 2) {
        let Some(h) = hazards(model, spec, margin).into_iter().next() else {
            break;
        };
        let window = (h.rise_ns, h.bound_ns);
        // Per-successor deepen target: the smallest depth whose per-edge
        // response covers margin × rise. The upward search replaces the
        // old closed-form linear target; because the STA table only
        // raises the bound, the search can only stop earlier — targets
        // never increase relative to the linear model. The search quits
        // at the clock budget (the `within_budget` check then latches).
        let wanted: Vec<(usize, usize)> = h
            .deficient
            .iter()
            .map(|&s| {
                let fanin = join_fanin(spec, s);
                let floor = spec.regions[s].matched_levels + 1;
                let mut to = floor;
                while model.edge_response_ns(to, fanin) < h.rise_ns * margin
                    && model.rise_ns(to) <= clock_period_ns
                    && to < floor + 100_000
                {
                    to += 1;
                }
                (s, to)
            })
            .collect();
        let within_budget = wanted
            .iter()
            .all(|&(_, to)| model.rise_ns(to) <= clock_period_ns);
        if within_budget && !wanted.is_empty() {
            for (s, to) in wanted {
                let from = std::mem::replace(&mut spec.regions[s].matched_levels, to);
                let successor = spec.regions[s].name.clone();
                let action = LivenessAction::DeepenSuccessor {
                    successor,
                    from_levels: from,
                    to_levels: to,
                };
                repairs.push(repair(spec, h.region, window, action));
            }
        } else {
            spec.regions[h.region].loopback_latch = true;
            repairs.push(repair(spec, h.region, window, LivenessAction::RequestLatch));
        }
    }

    // Phase B: dynamic validation. Degrading a source can expose new
    // sources (its successors lose their predecessor); their hazards
    // surface as fresh deadlocks and are latched on the next round.
    let cap = 3 * n + 3;
    let mut iterations = 0usize;
    loop {
        if validate(spec)? {
            return Ok(repairs);
        }
        iterations += 1;
        let sources: Vec<usize> = (0..n).filter(|&i| is_source(spec, i)).collect();
        if iterations <= cap {
            if let Some(&i) = sources.iter().find(|&&i| !spec.regions[i].loopback_latch) {
                let window = pulse_window(model, spec, i);
                spec.regions[i].loopback_latch = true;
                repairs.push(repair(spec, i, window, LivenessAction::RequestLatch));
                continue;
            }
            if let Some(&i) = sources.first() {
                if strict {
                    return Err(DesyncError::Liveness {
                        region: spec.regions[i].name.clone(),
                        message: format!(
                            "network still deadlocks after {} repair(s); the region \
                             would be degraded to synchronous (strict mode)",
                            repairs.len()
                        ),
                    });
                }
                let window = pulse_window(model, spec, i);
                spec.regions[i].controlled = false;
                spec.regions[i].loopback_latch = false;
                repairs.push(repair(spec, i, window, LivenessAction::Degrade));
                continue;
            }
        }
        // No repairable source left (or the cap tripped): the deadlock
        // is not the source-pulse hazard — refuse to ship it silently.
        let region = sources
            .first()
            .map_or_else(|| "<network>".to_owned(), |&i| spec.regions[i].name.clone());
        return Err(DesyncError::Liveness {
            region,
            message: format!(
                "control network still deadlocks after {} repair(s)",
                repairs.len()
            ),
        });
    }
}

/// Validates a candidate spec with the handshake simulator: `Ok(true)`
/// when the network settles — or when the spec is vacuous (no
/// controlled region, or any isolated controlled region, whose
/// loopback + eager-ack environment free-runs when its matched delay is
/// short, like DLX's one-level `g0`, and wedges when it is long; the
/// handshake-timing oracle skips the same specs through the same
/// [`HandshakeSpec::is_vacuous`]) — and `Ok(false)` on a simulated
/// [`SimError::Deadlock`].
///
/// # Errors
/// Propagates elaboration failures and non-deadlock simulation errors.
pub fn validate_with_sim(spec: &HandshakeSpec, lib: &Library) -> Result<bool, DesyncError> {
    if spec.is_vacuous() {
        return Ok(true);
    }
    let net = HandshakeNet::elaborate(spec, lib).map_err(|e| DesyncError::Pipeline {
        message: format!("liveness validation: {e}"),
    })?;
    match net.nominal_cycle_times() {
        Ok(_) => Ok(true),
        Err(SimError::Deadlock { .. }) => Ok(false),
        Err(e) => Err(DesyncError::Pipeline {
            message: format!("liveness validation: {e}"),
        }),
    }
}

/// Swaps the delay element of `ctl` for a `to_levels`-deep module. The
/// instance keeps its name and connections, so only its module changes;
/// the new module is created (and deduplicated) on demand.
///
/// # Errors
/// Propagates STA errors from muxed-overhead probing.
pub fn apply_deepen(
    design: &mut Design,
    top: ModuleId,
    ctl: &mut RegionControl,
    to_levels: usize,
    muxed: bool,
    facts: &LibraryFacts<'_>,
) -> Result<(), DesyncError> {
    let module_name = delem_module_name(muxed, to_levels);
    if design.find_module(&module_name).is_none() {
        let module = if muxed {
            delay_element::build_muxed(&module_name, to_levels, facts.mux_overhead()?)
        } else {
            delay_element::build_fixed(&module_name, to_levels)
        };
        design.insert(module);
    }
    let m = design.module_mut(top);
    let kind = m.instance_kind(&module_name);
    m.set_cell_kind(ctl.delem, kind);
    ctl.levels = to_levels;
    Ok(())
}

/// Inserts the request-extending latch on region `region`'s loopback
/// path: `C2(ros, !aim)` between the slave request and the delay element,
/// so the looped-back request is held high until the region's own master
/// acknowledges, and records the latch in `ctl`. Both C-element inputs
/// are 1 at reset (the slave request resets high, the master acknowledge
/// low), so the element self-initializes to the bare-wire value — the
/// same argument that lets the join trees go without explicit resets.
///
/// # Errors
/// Propagates netlist errors.
pub fn apply_latch(
    m: &mut Module,
    ctl: &mut RegionControl,
    region: &str,
) -> Result<(), DesyncError> {
    let nai = m.add_net_auto(&format!("drd_{region}_reqext_nai"));
    let q = m.add_net_auto(&format!("drd_{region}_reqext_q"));
    let name = m.unique_cell_name(&format!("drd_{region}_reqext_inv"));
    let inv = m.add_cell(
        name,
        "INVX1",
        &[("A", Conn::Net(ctl.aim)), ("Z", Conn::Net(nai))],
    )?;
    let name = m.unique_cell_name(&format!("drd_{region}_reqext"));
    let latch = m.add_cell(
        name,
        "C2X1",
        &[
            ("A", Conn::Net(ctl.ros)),
            ("B", Conn::Net(nai)),
            ("Z", Conn::Net(q)),
        ],
    )?;
    m.set_pin(ctl.delem, "in1", Conn::Net(q));
    ctl.latch = Some((latch, inv));
    Ok(())
}

/// Degrades source region `region` (named `name`) back to synchronous:
/// takes its entry out of `controls`, removes its controller pair, delay
/// element, request-extending latch (if any) and join trees, re-clocks
/// its latch enables `(gm, gs)` from `clock` (master transparent
/// clock-low via an inverter, slave clock-high via a buffer — the
/// master/slave phasing of the original flip-flops), and rewires each
/// successor in `succs` that still has a control network: a direct
/// loopback wire becomes the successor's own loopback (the successor is
/// now a source itself), a join-tree input is shorted through to its
/// sibling (a C-element with equal inputs follows them).
///
/// Only *sources* are ever degraded here, which is what keeps the
/// surgery tractable: no upstream region holds a reference to a source's
/// handshake nets.
///
/// # Errors
/// [`DesyncError::Pipeline`] when `region` has no control network;
/// propagates netlist errors.
pub fn apply_degrade(
    m: &mut Module,
    controls: &mut [Option<RegionControl>],
    region: usize,
    succs: &[usize],
    clock: NetId,
    (gm, gs): (NetId, NetId),
    name: &str,
) -> Result<(), DesyncError> {
    let ctl = controls
        .get_mut(region)
        .and_then(Option::take)
        .ok_or_else(|| DesyncError::Pipeline {
            message: format!("liveness degrade: region `{name}` has no control network"),
        })?;
    let ros = Conn::Net(ctl.ros);

    // Rewire successors off the dying request net first.
    for succ in succs.iter().filter_map(|&s| controls.get(s)?.as_ref()) {
        if m.cell(succ.delem).pin("in1") == Some(ros) {
            // The source was the successor's only predecessor: loop the
            // successor's own slave request back, making it a source.
            m.set_pin(succ.delem, "in1", Conn::Net(succ.ros));
            continue;
        }
        // Request join tree: short the source's input through to its
        // sibling — C2(x, x) is a follower of x.
        for &id in &succ.request_join {
            let pins = m.cell_pins(id);
            let Some(&(hit, _)) = pins.iter().find(|&&(p, c)| c == ros && m.resolve(p) != "Z")
            else {
                continue;
            };
            let Some(&(_, sibling)) = pins
                .iter()
                .find(|&&(p, c)| p != hit && c != ros && m.resolve(p) != "Z")
            else {
                continue;
            };
            m.set_pin_sym(id, hit, sibling);
        }
    }

    // Remove the region's control machinery.
    for id in ctl.cells() {
        m.remove_cell(id);
    }

    // Re-clock the latch enables from the original clock: the master
    // latch is transparent while the clock is low, the slave while it is
    // high — together an edge-triggered pair again. The enable-tree
    // buffers keep fanning the re-driven root nets out.
    let syncm = m.unique_cell_name(&format!("drd_{name}_syncm"));
    m.add_cell(
        syncm,
        "INVX1",
        &[("A", Conn::Net(clock)), ("Z", Conn::Net(gm))],
    )?;
    let syncs = m.unique_cell_name(&format!("drd_{name}_syncs"));
    m.add_cell(
        syncs,
        "BUFX1",
        &[("A", Conn::Net(clock)), ("Z", Conn::Net(gs))],
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use drd_liberty::vlib90;
    use drd_sim::RegionSpec;

    /// A spec of controlled, unlatched regions of the given depths.
    fn spec(levels: &[usize], edges: &[(usize, usize)]) -> HandshakeSpec {
        let regions = levels
            .iter()
            .enumerate()
            .map(|(i, &matched_levels)| RegionSpec {
                name: format!("g{i}"),
                controlled: true,
                matched_levels,
                critical_delay_ns: 0.0,
                loopback_latch: false,
            })
            .collect();
        HandshakeSpec {
            regions,
            edges: edges.to_vec(),
            level_delay_ns: 0.09,
            ff_overhead_ns: 0.0,
        }
    }

    /// Source g0 (24 levels) → sink g1 (2 levels): the stall-test shape.
    fn imbalanced() -> HandshakeSpec {
        spec(&[24, 2], &[(0, 1)])
    }

    #[test]
    fn model_probe_is_positive() {
        let model = ResponseModel::probe(&vlib90::high_speed()).unwrap();
        assert!(model.level_delay_ns > 0.0);
        assert!(model.ctrl_response_ns > 0.0);
        assert!(model.response_ns(3) > model.rise_ns(3));
    }

    #[test]
    fn probed_bound_never_below_the_linear_floor() {
        let model = ResponseModel::probe(&vlib90::high_speed()).unwrap();
        let flat = ResponseModel::flat(model.level_delay_ns, model.ctrl_response_ns);
        for levels in 1..64 {
            assert!(
                model.response_ns(levels) >= flat.response_ns(levels) - 1e-12,
                "levels {levels}: {} < {}",
                model.response_ns(levels),
                flat.response_ns(levels)
            );
        }
    }

    #[test]
    fn join_fanin_credit_raises_the_edge_bound() {
        assert_eq!(ResponseModel::join_levels(0), 0);
        assert_eq!(ResponseModel::join_levels(1), 0);
        assert_eq!(ResponseModel::join_levels(2), 1);
        assert_eq!(ResponseModel::join_levels(3), 2);
        assert_eq!(ResponseModel::join_levels(4), 2);
        assert_eq!(ResponseModel::join_levels(5), 3);
        let model = ResponseModel::probe(&vlib90::high_speed()).unwrap();
        assert!(model.edge_response_ns(4, 2) > model.edge_response_ns(4, 1));
        assert!(
            (model.edge_response_ns(4, 1) - model.edge_response_ns(4, 0)).abs() < 1e-12,
            "a single raw-wire predecessor has no join tree"
        );
    }

    #[test]
    fn join_fanin_counts_controlled_predecessors_only() {
        let mut three = spec(&[4, 4, 4], &[(0, 2), (1, 2), (2, 2)]);
        assert_eq!(join_fanin(&three, 2), 2, "self-loop excluded");
        three.regions[1].controlled = false;
        assert_eq!(join_fanin(&three, 2), 1);
    }

    #[test]
    fn probed_model_never_deepens_more_than_the_linear_model() {
        // ROADMAP liveness follow-on (a): the per-edge STA bound repairs
        // *less* aggressively — the stall-shape deepen target under the
        // probed model is never deeper than under the load-blind linear
        // model it replaces.
        let probed = ResponseModel::probe(&vlib90::high_speed()).unwrap();
        let flat = ResponseModel::flat(probed.level_delay_ns, probed.ctrl_response_ns);
        let to_levels = |model: &ResponseModel| {
            let repairs =
                plan_repairs(model, &mut imbalanced(), 10.0, 1.08, false, |_| Ok(true)).unwrap();
            match &repairs[0].action {
                LivenessAction::DeepenSuccessor { to_levels, .. } => *to_levels,
                other => panic!("expected a deepen, got {other:?}"),
            }
        };
        assert!(to_levels(&probed) <= to_levels(&flat));
    }

    #[test]
    fn hazard_classification_flags_the_imbalanced_source_only() {
        let model = ResponseModel::flat(0.09, 0.3);
        let found = hazards(&model, &imbalanced(), 1.08);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].region, 0);
        assert_eq!(found[0].deficient, vec![1]);
        assert!(found[0].rise_ns > found[0].bound_ns);
        assert_eq!(
            pulse_window(&model, &imbalanced(), 0),
            (found[0].rise_ns, found[0].bound_ns)
        );

        // Balanced chain: no hazard.
        assert!(hazards(&model, &spec(&[4, 4], &[(0, 1)]), 1.08).is_empty());

        // Interior regions are never flagged: give the source a pred.
        assert!(hazards(&model, &spec(&[24, 2], &[(0, 1), (1, 0)]), 1.08).is_empty());

        // A self-loop counts as a predecessor.
        assert!(hazards(&model, &spec(&[24, 2], &[(0, 1), (0, 0)]), 1.08).is_empty());
    }

    #[test]
    fn planner_deepens_within_budget() {
        let model = ResponseModel::flat(0.09, 0.3);
        let mut planned = imbalanced();
        let repairs = plan_repairs(&model, &mut planned, 10.0, 1.08, false, |_| Ok(true)).unwrap();
        assert_eq!(repairs.len(), 1, "{repairs:?}");
        let r = &repairs[0];
        assert_eq!(r.region, "g0");
        match &r.action {
            LivenessAction::DeepenSuccessor {
                successor,
                from_levels,
                to_levels,
            } => {
                assert_eq!(successor, "g1");
                assert_eq!(*from_levels, 2);
                // Sized so the successor's response covers margin × rise.
                assert!(
                    model.response_ns(*to_levels) >= r.rise_ns * 1.08,
                    "{repairs:?}"
                );
                assert_eq!(planned.regions[1].matched_levels, *to_levels);
            }
            other => panic!("expected a deepen, got {other:?}"),
        }
        // The repaired state screens clean.
        assert!(hazards(&model, &planned, 1.08).is_empty());
    }

    #[test]
    fn planner_latches_when_deepening_breaks_the_budget() {
        let model = ResponseModel::flat(0.09, 0.3);
        let mut planned = imbalanced();
        // Budget below even the source's own chain: deepening impossible.
        let repairs = plan_repairs(&model, &mut planned, 1.0, 1.08, false, |_| Ok(true)).unwrap();
        assert_eq!(repairs.len(), 1, "{repairs:?}");
        assert_eq!(repairs[0].action, LivenessAction::RequestLatch);
        assert!(planned.regions[0].loopback_latch);
        assert_eq!(planned.regions[1].matched_levels, 2, "successor untouched");
    }

    #[test]
    fn planner_latches_then_degrades_on_persistent_deadlock() {
        let model = ResponseModel::flat(0.09, 0.3);
        // Statically clean (balanced) but the validator insists on a
        // wedge until the source is degraded — the unreachable-in-flow
        // rung, exercised through the injected validator.
        let mut planned = spec(&[4, 4], &[(0, 1)]);
        let mut calls = 0usize;
        let repairs = plan_repairs(&model, &mut planned, 10.0, 1.08, false, |s| {
            calls += 1;
            Ok(!s.regions[0].controlled)
        })
        .unwrap();
        assert!(calls >= 3, "validated after every rung: {calls}");
        assert_eq!(
            repairs.iter().map(|r| &r.action).collect::<Vec<_>>(),
            vec![&LivenessAction::RequestLatch, &LivenessAction::Degrade],
            "{repairs:?}"
        );
        assert!(!planned.regions[0].controlled);
    }

    #[test]
    fn strict_mode_turns_degrade_into_a_liveness_error() {
        let model = ResponseModel::flat(0.09, 0.3);
        let err = plan_repairs(
            &model,
            &mut spec(&[4, 4], &[(0, 1)]),
            10.0,
            1.08,
            true,
            |s| Ok(!s.regions[0].controlled),
        )
        .unwrap_err();
        assert!(
            matches!(&err, DesyncError::Liveness { region, .. } if region == "g0"),
            "{err:?}"
        );
    }

    #[test]
    fn unrepairable_deadlock_is_a_structured_error() {
        let model = ResponseModel::flat(0.09, 0.3);
        // A ring has no source at all: nothing to latch or degrade.
        let mut ring = spec(&[4, 4], &[(0, 1), (1, 0)]);
        let err = plan_repairs(&model, &mut ring, 10.0, 1.08, false, |_| Ok(false)).unwrap_err();
        match err {
            DesyncError::Liveness { region, message } => {
                assert_eq!(region, "<network>");
                assert!(message.contains("still deadlocks"), "{message}");
            }
            other => panic!("expected Liveness, got {other:?}"),
        }
    }

    #[test]
    fn repair_display_names_the_rungs() {
        let r = LivenessRepair {
            region: "g0".into(),
            rise_ns: 2.16,
            response_bound_ns: 0.48,
            action: LivenessAction::DeepenSuccessor {
                successor: "g1".into(),
                from_levels: 2,
                to_levels: 26,
            },
        };
        let text = r.to_string();
        assert!(text.contains("`g0`") && text.contains("2 → 26"), "{text}");
        let l = LivenessRepair {
            action: LivenessAction::RequestLatch,
            ..r.clone()
        };
        assert!(l.to_string().contains("latch"), "{l}");
        let d = LivenessRepair {
            action: LivenessAction::Degrade,
            ..r
        };
        assert!(d.to_string().contains("synchronous"), "{d}");
    }
}
