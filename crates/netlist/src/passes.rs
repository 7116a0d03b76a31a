//! Generic netlist cleaning passes.
//!
//! The desynchronizer's grouping algorithm requires "clean logic", free of
//! buffers and inverter pairs inserted by synthesis for signal buffering,
//! because such cells induce *false* logic dependencies between regions
//! (§3.2.2, Fig. 3.5). These passes are library-agnostic: the caller
//! supplies a classifier describing which cell kinds are buffers/inverters.

use crate::{
    CellId, CellKind, Conn, Connectivity, Endpoint, KindRef, Module, NetlistError, PinDirs, Symbol,
};

/// Classification of a cell kind for the cleaning passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CleanKind {
    /// A non-inverting buffer: `output = input`.
    Buffer {
        /// Name of the input pin.
        input: String,
        /// Name of the output pin.
        output: String,
    },
    /// An inverter: `output = !input`.
    Inverter {
        /// Name of the input pin.
        input: String,
        /// Name of the output pin.
        output: String,
    },
}

/// Statistics returned by [`clean_logic`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Buffers removed.
    pub buffers_removed: usize,
    /// Inverter *pairs* removed (2 cells per pair).
    pub inverter_pairs_removed: usize,
}

/// A classified library kind with its pins as the module's symbols.
#[derive(Debug, Clone, Copy)]
struct Class {
    inverter: bool,
    input: Symbol,
    output: Symbol,
}

/// Removes buffers and back-to-back inverter pairs, rewiring their fanout to
/// the original source signal. Buffers driving module ports are kept so
/// every port stays driven.
///
/// `classify` is asked once per library cell kind in use; submodule
/// instances are never classified. Runs to fixpoint: each round builds
/// the module's connectivity, removes what it can without chaining two
/// removals through one net, then rewires. Returns how many cells were
/// eliminated, and the connectivity of the cleaned module: the last
/// round's snapshot, which removed nothing, or the error that stopped the
/// first round that could not build one (an inconsistent netlist is left
/// to the caller's validation).
pub fn clean_logic(
    module: &mut Module,
    dirs: &impl PinDirs,
    classify: impl Fn(KindRef<'_>) -> Option<CleanKind>,
) -> (CleanStats, Result<Connectivity, NetlistError>) {
    let classes = classify_kinds(module, classify);
    let class_of = |module: &Module, cell: CellId| match module.cell_kind(cell) {
        CellKind::Lib(kind) => classes[kind.index()],
        CellKind::Instance(_) => None,
    };
    let mut port_net = vec![false; module.net_count()];
    for (_, port) in module.ports() {
        port_net[port.net.index()] = true;
    }
    let mut stats = CleanStats::default();
    loop {
        let conn = match module.connectivity(dirs) {
            Ok(conn) => conn,
            Err(e) => return (stats, Err(e)),
        };
        // Per net: what its loads are rewired to, and whether it is the
        // target of such a rewire; per cell slot: whether this round
        // already removes it.
        let mut remap: Vec<Option<Conn>> = vec![None; module.net_count()];
        let mut target = vec![false; module.net_count()];
        let mut touched = vec![false; module.cell_slots()];
        let mut removed: Vec<CellId> = Vec::new();
        for cid in module.cell_ids() {
            if touched[cid.index()] {
                continue;
            }
            let Some(class) = class_of(module, cid) else {
                continue;
            };
            let pins = module.cell_pins(cid);
            // Buffer: its output net; inverter: the net between the pair.
            let Some(Conn::Net(first_out)) = pin_conn(pins, class.output) else {
                continue;
            };
            if port_net[first_out.index()] || remap[first_out.index()].is_some() {
                continue;
            }
            let (out_net, second) = if class.inverter {
                // The pair's middle net feeds exactly one load: the input
                // pin of another inverter.
                let &[Endpoint::Pin(next)] = conn.loads(first_out) else {
                    continue;
                };
                if touched[next.cell.index()] || next.cell == cid {
                    continue;
                }
                let Some(Class {
                    inverter: true,
                    input,
                    output,
                }) = class_of(module, next.cell)
                else {
                    continue;
                };
                let next_pins = module.cell_pins(next.cell);
                if next_pins[next.pin as usize].0 != input {
                    continue;
                }
                let Some(Conn::Net(out_net)) = pin_conn(next_pins, output) else {
                    continue;
                };
                if port_net[out_net.index()] || remap[out_net.index()].is_some() {
                    continue;
                }
                (out_net, Some(next.cell))
            } else {
                (first_out, None)
            };
            let Some(in_conn) = pin_conn(pins, class.input) else {
                continue;
            };
            // No chain through a net this round already rewires, or onto
            // which it already moves loads.
            if target[out_net.index()]
                || matches!(in_conn, Conn::Net(n) if remap[n.index()].is_some())
            {
                continue;
            }
            remap[out_net.index()] = Some(in_conn);
            if let Conn::Net(n) = in_conn {
                target[n.index()] = true;
            }
            removed.push(cid);
            touched[cid.index()] = true;
            match second {
                Some(next) => {
                    removed.push(next);
                    touched[next.index()] = true;
                    stats.inverter_pairs_removed += 1;
                }
                None => stats.buffers_removed += 1,
            }
        }

        if removed.is_empty() {
            return (stats, Ok(conn));
        }
        module.rewire_many(&remap);
        for cid in removed {
            module.remove_cell(cid);
        }
    }
}

/// Classifies every library kind the module's live cells use, once,
/// into a table indexed by the kind's symbol. A kind whose pins the
/// module never names cannot match a cell and stays unclassified.
fn classify_kinds(
    module: &Module,
    classify: impl Fn(KindRef<'_>) -> Option<CleanKind>,
) -> Vec<Option<Class>> {
    let mut classes = vec![None; module.symbols().len()];
    let mut seen = vec![false; module.symbols().len()];
    for cid in module.cell_ids() {
        let CellKind::Lib(kind) = module.cell_kind(cid) else {
            continue;
        };
        if std::mem::replace(&mut seen[kind.index()], true) {
            continue;
        }
        classes[kind.index()] = classify(KindRef::Lib(module.resolve(kind))).and_then(|k| {
            let (inverter, input, output) = match &k {
                CleanKind::Buffer { input, output } => (false, input, output),
                CleanKind::Inverter { input, output } => (true, input, output),
            };
            Some(Class {
                inverter,
                input: module.lookup_sym(input)?,
                output: module.lookup_sym(output)?,
            })
        });
    }
    classes
}

/// The connection of the first pin named `pin`.
fn pin_conn(pins: &[(Symbol, Conn)], pin: Symbol) -> Option<Conn> {
    pins.iter().find(|(p, _)| *p == pin).map(|&(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetId, PortDir};

    fn dirs(_: KindRef<'_>, pin: &str) -> Option<PortDir> {
        Some(match pin {
            "Z" | "Q" => PortDir::Output,
            _ => PortDir::Input,
        })
    }

    fn classify(kind: KindRef<'_>) -> Option<CleanKind> {
        match kind.name() {
            "BUFX1" => Some(CleanKind::Buffer {
                input: "A".into(),
                output: "Z".into(),
            }),
            "INVX1" => Some(CleanKind::Inverter {
                input: "A".into(),
                output: "Z".into(),
            }),
            _ => None,
        }
    }

    /// A module with input port `a` and `n` fresh nets `n0..`.
    fn with_nets(n: usize) -> (Module, NetId, Vec<NetId>) {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        let a = m.find_net("a").unwrap();
        let nets = (0..n)
            .map(|i| m.add_net(format!("n{i}")).unwrap())
            .collect();
        (m, a, nets)
    }

    fn cell(m: &mut Module, name: &str, kind: &str, a: Conn, z: NetId) {
        m.add_cell(name, kind, &[("A", a), ("Z", Conn::Net(z))])
            .unwrap();
    }

    fn pin_a(m: &Module, name: &str) -> Option<Conn> {
        m.cell(m.find_cell(name).unwrap()).pin("A")
    }

    #[test]
    fn four_buffer_chain_with_two_end_loads_is_collapsed() {
        let (mut m, a, n) = with_nets(6);
        cell(&mut m, "u1", "BUFX1", Conn::Net(a), n[0]);
        cell(&mut m, "u2", "BUFX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "u3", "BUFX1", Conn::Net(n[1]), n[2]);
        cell(&mut m, "u4", "BUFX1", Conn::Net(n[2]), n[3]);
        cell(&mut m, "g1", "NAND2X1", Conn::Net(n[3]), n[4]);
        cell(&mut m, "g2", "NAND2X1", Conn::Net(n[3]), n[5]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 4);
        assert_eq!(stats.inverter_pairs_removed, 0);
        assert_eq!(m.cell_count(), 2);
        assert_eq!(pin_a(&m, "g1"), Some(Conn::Net(a)));
        assert_eq!(pin_a(&m, "g2"), Some(Conn::Net(a)));
    }

    /// A chain listed downstream-first: the round that removes the
    /// downstream buffer keeps the upstream one, so the load never lands
    /// on the middle net once its driver is gone; the next round removes
    /// it.
    #[test]
    fn buffer_chain_written_downstream_first_keeps_its_load_driven() {
        let (mut m, a, n) = with_nets(3);
        cell(&mut m, "u2", "BUFX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "u1", "BUFX1", Conn::Net(a), n[0]);
        cell(&mut m, "g", "NAND2X1", Conn::Net(n[1]), n[2]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 2);
        assert_eq!(m.cell_count(), 1);
        assert_eq!(pin_a(&m, "g"), Some(Conn::Net(a)));
    }

    /// An inverter pair listed downstream-first behind a buffer: the pair
    /// goes first and the buffer in the next round, and the load reads
    /// the source.
    #[test]
    fn inverter_pair_written_downstream_first_next_to_a_buffer_keeps_its_load_driven() {
        let (mut m, a, n) = with_nets(4);
        cell(&mut m, "i2", "INVX1", Conn::Net(n[1]), n[2]);
        cell(&mut m, "i1", "INVX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "u", "BUFX1", Conn::Net(a), n[0]);
        cell(&mut m, "g", "NAND2X1", Conn::Net(n[2]), n[3]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.inverter_pairs_removed, 1);
        assert_eq!(stats.buffers_removed, 1);
        assert_eq!(m.cell_count(), 1);
        assert_eq!(pin_a(&m, "g"), Some(Conn::Net(a)));
    }

    /// The snapshot `clean_logic` hands over is the cleaned module's:
    /// every net has the driver and the loads, in order, of a fresh
    /// build. A three-buffer chain written downstream-first loses its
    /// middle buffer only in a second round (each round skips a removal
    /// that chains through a net it already rewires), and the inverter
    /// pair behind it goes in the first, so the snapshot comes from the
    /// third build, after two rounds of rewiring.
    #[test]
    fn returned_snapshot_equals_a_fresh_build_after_several_rounds() {
        let (mut m, a, n) = with_nets(7);
        m.add_port("z", PortDir::Output).unwrap();
        let z = m.find_net("z").unwrap();
        cell(&mut m, "u3", "BUFX1", Conn::Net(n[1]), n[2]);
        cell(&mut m, "u2", "BUFX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "u1", "BUFX1", Conn::Net(a), n[0]);
        cell(&mut m, "g1", "NAND2X1", Conn::Net(n[2]), n[3]);
        cell(&mut m, "i2", "INVX1", Conn::Net(n[4]), n[5]);
        cell(&mut m, "i1", "INVX1", Conn::Net(n[3]), n[4]);
        cell(&mut m, "g2", "NAND2X1", Conn::Net(n[5]), n[6]);
        cell(&mut m, "g3", "NAND2X1", Conn::Net(n[3]), z);
        let (stats, conn) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 3);
        assert_eq!(stats.inverter_pairs_removed, 1);
        let (conn, fresh) = (conn.unwrap(), m.connectivity(&dirs).unwrap());
        for (net, _) in m.nets() {
            assert_eq!(conn.driver(net), fresh.driver(net), "{net:?}");
            assert_eq!(conn.loads(net), fresh.loads(net), "{net:?}");
        }
        assert_eq!(conn.loads(a).len(), 1, "g1 reads the port");
        assert_eq!(conn.loads(n[3]).len(), 2, "g2 and g3 read g1");
    }

    /// A netlist whose connectivity cannot be built is left as it is,
    /// and the error handed over is a fresh build's.
    #[test]
    fn inconsistent_netlist_hands_over_the_build_error() {
        let (mut m, a, n) = with_nets(2);
        cell(&mut m, "u", "BUFX1", Conn::Net(a), n[0]);
        cell(&mut m, "v", "NAND2X1", Conn::Net(a), n[0]);
        let (stats, conn) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats, CleanStats::default());
        assert_eq!(m.cell_count(), 2);
        assert_eq!(conn.err(), m.connectivity(&dirs).err());
    }

    #[test]
    fn three_inverter_chain_loses_one_pair() {
        let (mut m, a, n) = with_nets(4);
        cell(&mut m, "i1", "INVX1", Conn::Net(a), n[0]);
        cell(&mut m, "i2", "INVX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "i3", "INVX1", Conn::Net(n[1]), n[2]);
        cell(&mut m, "g", "NAND2X1", Conn::Net(n[2]), n[3]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.inverter_pairs_removed, 1);
        assert_eq!(m.cell_count(), 2);
        assert!(m.find_cell("i1").is_none() && m.find_cell("i2").is_none());
        assert_eq!(pin_a(&m, "i3"), Some(Conn::Net(a)));
        assert_eq!(pin_a(&m, "g"), Some(Conn::Net(n[2])));
    }

    #[test]
    fn inverter_pair_with_shared_middle_net_is_kept() {
        let (mut m, a, n) = with_nets(4);
        cell(&mut m, "i1", "INVX1", Conn::Net(a), n[0]);
        cell(&mut m, "i2", "INVX1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "g1", "NAND2X1", Conn::Net(n[1]), n[2]);
        cell(&mut m, "g2", "NAND2X1", Conn::Net(n[0]), n[3]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats, CleanStats::default());
        assert_eq!(m.cell_count(), 4);
        assert_eq!(pin_a(&m, "g1"), Some(Conn::Net(n[1])));
        assert_eq!(pin_a(&m, "g2"), Some(Conn::Net(n[0])));
    }

    #[test]
    fn buffer_of_a_constant_hands_the_constant_to_its_loads() {
        let (mut m, _, n) = with_nets(3);
        cell(&mut m, "u", "BUFX1", Conn::Const1, n[0]);
        cell(&mut m, "g1", "NAND2X1", Conn::Net(n[0]), n[1]);
        cell(&mut m, "g2", "NAND2X1", Conn::Net(n[0]), n[2]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 1);
        assert_eq!(m.cell_count(), 2);
        assert_eq!(pin_a(&m, "g1"), Some(Conn::Const1));
        assert_eq!(pin_a(&m, "g2"), Some(Conn::Const1));
    }

    #[test]
    fn buffer_and_inverter_pair_driving_output_ports_are_kept() {
        let (mut m, a, n) = with_nets(1);
        m.add_port("z", PortDir::Output).unwrap();
        m.add_port("y", PortDir::Output).unwrap();
        let (z, y) = (m.find_net("z").unwrap(), m.find_net("y").unwrap());
        cell(&mut m, "u", "BUFX1", Conn::Net(a), z);
        cell(&mut m, "i1", "INVX1", Conn::Net(a), n[0]);
        cell(&mut m, "i2", "INVX1", Conn::Net(n[0]), y);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats, CleanStats::default());
        assert_eq!(m.cell_count(), 3);
        assert_eq!(pin_a(&m, "i2"), Some(Conn::Net(n[0])));
    }

    #[test]
    fn submodule_instance_is_never_classified() {
        let (mut m, a, n) = with_nets(2);
        // Named like the library buffer, but an instance of a module.
        m.add_instance("s", "BUFX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n[0]))])
            .unwrap();
        cell(&mut m, "g", "NAND2X1", Conn::Net(n[0]), n[1]);
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats, CleanStats::default());
        assert_eq!(m.cell_count(), 2);
        assert_eq!(pin_a(&m, "g"), Some(Conn::Net(n[0])));
    }

    #[test]
    fn buffer_chain_is_collapsed() {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let z = m.find_net("z").unwrap();
        let b1 = m.add_net("b1").unwrap();
        let b2 = m.add_net("b2").unwrap();
        m.add_cell("u1", "BUFX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(b1))])
            .unwrap();
        m.add_cell("u2", "BUFX1", &[("A", Conn::Net(b1)), ("Z", Conn::Net(b2))])
            .unwrap();
        m.add_cell(
            "g",
            "NAND2X1",
            &[
                ("A", Conn::Net(b2)),
                ("B", Conn::Net(a)),
                ("Z", Conn::Net(z)),
            ],
        )
        .unwrap();
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 2);
        assert_eq!(m.cell_count(), 1);
        let g = m.find_cell("g").unwrap();
        assert_eq!(m.cell(g).pin("A"), Some(Conn::Net(a)));
    }

    #[test]
    fn inverter_pair_is_removed_but_single_inverter_kept() {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        m.add_port("y", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let z = m.find_net("z").unwrap();
        let y = m.find_net("y").unwrap();
        let n1 = m.add_net("n1").unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell("i1", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell("i2", "INVX1", &[("A", Conn::Net(n1)), ("Z", Conn::Net(n2))])
            .unwrap();
        m.add_cell(
            "g",
            "NAND2X1",
            &[
                ("A", Conn::Net(n2)),
                ("B", Conn::Net(a)),
                ("Z", Conn::Net(z)),
            ],
        )
        .unwrap();
        // A lone inverter driving a port must survive.
        m.add_cell("i3", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(y))])
            .unwrap();
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.inverter_pairs_removed, 1);
        assert!(m.find_cell("i3").is_some());
        let g = m.find_cell("g").unwrap();
        assert_eq!(m.cell(g).pin("A"), Some(Conn::Net(a)));
    }

    #[test]
    fn buffer_driving_port_survives() {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let z = m.find_net("z").unwrap();
        m.add_cell("u", "BUFX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(z))])
            .unwrap();
        let (stats, _) = clean_logic(&mut m, &dirs, classify);
        assert_eq!(stats.buffers_removed, 0);
        assert_eq!(m.cell_count(), 1);
    }
}
