//! C-Muller synchronization trees (§2.4.3, §3.1.5, Table 2.1).
//!
//! Multiple input requests (or output acknowledgements) are synchronized
//! by C-elements: the output rises only when all inputs have risen and
//! falls only when all have fallen. Wide rendezvous are built as balanced
//! trees of 2-input C-elements. Join trees need no reset: with all inputs
//! equal at reset they initialize themselves.

use drd_netlist::{CellId, Conn, Module, NetId};

use crate::DesyncError;

/// Joins `inputs` with a balanced tree of `C2X1` cells named with
/// `prefix`; returns the rendezvous net and the inserted cells.
///
/// A single input is returned unchanged, with no cell.
///
/// # Errors
/// Propagates netlist errors.
///
/// # Panics
/// Panics if `inputs` is empty.
pub fn join(
    module: &mut Module,
    inputs: &[NetId],
    prefix: &str,
) -> Result<(NetId, Vec<CellId>), DesyncError> {
    assert!(!inputs.is_empty(), "a join needs at least one input");
    let mut cells = Vec::new();
    let mut level: Vec<NetId> = inputs.to_vec();
    let mut stage = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for (i, chunk) in level.chunks(2).enumerate() {
            if chunk.len() == 1 {
                next.push(chunk[0]);
                continue;
            }
            let z = module.add_net_auto(&format!("{prefix}_c{stage}_{i}"));
            let name = module.unique_cell_name(&format!("{prefix}_uc{stage}_{i}"));
            cells.push(module.add_cell(
                name,
                "C2X1",
                &[
                    ("A", Conn::Net(chunk[0])),
                    ("B", Conn::Net(chunk[1])),
                    ("Z", Conn::Net(z)),
                ],
            )?);
            next.push(z);
        }
        level = next;
        stage += 1;
    }
    Ok((level[0], cells))
}

/// Lowers every primitive C-element of a *flat* module into pure standard
/// cells: the classic majority-gate-with-feedback form
/// `z = (a & b) | (z & (a | b))`, with the reset/set pin folded in. Useful
/// for exporting to flows whose libraries have no C-element (the paper
/// synthesizes its C-elements from Verilog with a conventional tool,
/// §3.1.5). Returns the number of C-elements decomposed.
///
/// # Errors
/// Propagates netlist errors.
///
/// # Panics
/// Panics if a C-element has other than two rendezvous inputs (wider
/// C-elements are built as trees of 2-input cells by [`join`]).
pub fn decompose_celements(
    module: &mut Module,
    lib: &drd_liberty::Library,
) -> Result<usize, DesyncError> {
    use drd_liberty::SeqKind;
    let targets: Vec<_> = module
        .cells()
        .filter_map(|(id, cell)| {
            let lc = lib.cell_of(cell.kind_ref())?;
            match &lc.seq {
                SeqKind::CElement {
                    inputs,
                    reset,
                    set,
                    q,
                } => Some((
                    id,
                    cell.name.to_owned(),
                    inputs.clone(),
                    reset.clone(),
                    set.clone(),
                    q.clone(),
                )),
                _ => None,
            }
        })
        .collect();
    let count = targets.len();
    for (id, name, inputs, reset, set, q) in targets {
        assert_eq!(inputs.len(), 2, "tree-decomposed C-elements are 2-input");
        let cell = module.cell(id);
        let pin = |p: &str| cell.pin(p).unwrap_or(Conn::Open);
        let (a, b) = (pin(&inputs[0]), pin(&inputs[1]));
        let z = pin(&q);
        let rn = reset.as_deref().map(&pin);
        let sn = set.as_deref().map(&pin);
        module.remove_cell(id);
        let Conn::Net(z_net) = z else { continue };

        let and_ab = module.add_net_auto(&format!("{name}__maj_and"));
        let or_ab = module.add_net_auto(&format!("{name}__maj_or"));
        let hold = module.add_net_auto(&format!("{name}__maj_hold"));
        let cname = module.unique_cell_name(&format!("{name}_mand"));
        module.add_cell(
            cname,
            "AND2X1",
            &[("A", a), ("B", b), ("Z", Conn::Net(and_ab))],
        )?;
        let cname = module.unique_cell_name(&format!("{name}_mor"));
        module.add_cell(
            cname,
            "OR2X1",
            &[("A", a), ("B", b), ("Z", Conn::Net(or_ab))],
        )?;
        let cname = module.unique_cell_name(&format!("{name}_mhold"));
        module.add_cell(
            cname,
            "AND2X1",
            &[
                ("A", Conn::Net(or_ab)),
                ("B", Conn::Net(z_net)),
                ("Z", Conn::Net(hold)),
            ],
        )?;
        // Output stage, with reset/set folded in.
        match (rn, sn) {
            (Some(rn), None) => {
                let pre = module.add_net_auto(&format!("{name}__maj_pre"));
                let cname = module.unique_cell_name(&format!("{name}_mout"));
                module.add_cell(
                    cname,
                    "OR2X1",
                    &[
                        ("A", Conn::Net(and_ab)),
                        ("B", Conn::Net(hold)),
                        ("Z", Conn::Net(pre)),
                    ],
                )?;
                let cname = module.unique_cell_name(&format!("{name}_mrst"));
                module.add_cell(
                    cname,
                    "AND2X1",
                    &[("A", Conn::Net(pre)), ("B", rn), ("Z", Conn::Net(z_net))],
                )?;
            }
            (None, Some(sn)) => {
                let pre = module.add_net_auto(&format!("{name}__maj_pre"));
                let nsn = module.add_net_auto(&format!("{name}__maj_nsn"));
                let cname = module.unique_cell_name(&format!("{name}_mout"));
                module.add_cell(
                    cname,
                    "OR2X1",
                    &[
                        ("A", Conn::Net(and_ab)),
                        ("B", Conn::Net(hold)),
                        ("Z", Conn::Net(pre)),
                    ],
                )?;
                let cname = module.unique_cell_name(&format!("{name}_mnsn"));
                module.add_cell(cname, "INVX1", &[("A", sn), ("Z", Conn::Net(nsn))])?;
                let cname = module.unique_cell_name(&format!("{name}_mset"));
                module.add_cell(
                    cname,
                    "OR2X1",
                    &[
                        ("A", Conn::Net(pre)),
                        ("B", Conn::Net(nsn)),
                        ("Z", Conn::Net(z_net)),
                    ],
                )?;
            }
            _ => {
                let cname = module.unique_cell_name(&format!("{name}_mout"));
                module.add_cell(
                    cname,
                    "OR2X1",
                    &[
                        ("A", Conn::Net(and_ab)),
                        ("B", Conn::Net(hold)),
                        ("Z", Conn::Net(z_net)),
                    ],
                )?;
            }
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::{Design, PortDir};
    use drd_sim::{SimOptions, Simulator};

    #[test]
    fn single_input_is_identity() {
        let mut m = Module::new("t");
        let a = m.add_net("a").unwrap();
        let (out, cells) = join(&mut m, &[a], "j").unwrap();
        assert_eq!(out, a);
        assert!(cells.is_empty());
        assert_eq!(m.cell_count(), 0);
    }

    #[test]
    fn tree_sizes() {
        for (n, expected) in [(2usize, 1usize), (3, 2), (4, 3), (5, 4), (10, 9)] {
            let mut m = Module::new("t");
            let inputs: Vec<NetId> = (0..n)
                .map(|i| m.add_net(format!("i{i}")).unwrap())
                .collect();
            let (_, cells) = join(&mut m, &inputs, "j").unwrap();
            assert_eq!(cells.len(), expected, "n = {n}");
            assert!(
                cells.iter().all(|&c| m.cell(c).kind_name() == "C2X1"),
                "n = {n}"
            );
        }
    }

    /// The decomposed majority form behaves per Table 2.1 and holds state
    /// through its feedback loop.
    #[test]
    fn decomposed_celement_matches_primitive() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        for p in ["a", "b"] {
            m.add_port(p, PortDir::Input).unwrap();
        }
        m.add_port("z", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let b = m.find_net("b").unwrap();
        let z = m.find_net("z").unwrap();
        m.add_cell(
            "c",
            "C2X1",
            &[
                ("A", Conn::Net(a)),
                ("B", Conn::Net(b)),
                ("Z", Conn::Net(z)),
            ],
        )
        .unwrap();
        let n = decompose_celements(&mut m, &lib).unwrap();
        assert_eq!(n, 1);
        assert!(m.find_cell("c").is_none());
        assert!(m.cell_count() >= 4);

        let mut design = Design::new();
        design.insert(m);
        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();
        let set = |sim: &mut Simulator, av: Lv, bv: Lv| {
            sim.poke("a", av).unwrap();
            sim.poke("b", bv).unwrap();
            sim.run_for(3.0);
        };
        set(&mut sim, Lv::Zero, Lv::Zero);
        assert_eq!(sim.peek("z").unwrap(), Lv::Zero);
        set(&mut sim, Lv::One, Lv::One);
        assert_eq!(sim.peek("z").unwrap(), Lv::One);
        set(&mut sim, Lv::Zero, Lv::One);
        assert_eq!(sim.peek("z").unwrap(), Lv::One, "holds");
        set(&mut sim, Lv::Zero, Lv::Zero);
        assert_eq!(sim.peek("z").unwrap(), Lv::Zero);
    }

    /// Table 2.1: all 0s → 0, all 1s → 1, otherwise unchanged — checked
    /// behaviourally on a 3-input tree.
    #[test]
    fn truth_table_2_1_holds_for_trees() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        for i in 0..3 {
            m.add_port(format!("i{i}"), PortDir::Input).unwrap();
        }
        m.add_port("z", PortDir::Output).unwrap();
        let inputs: Vec<NetId> = (0..3)
            .map(|i| m.find_net(&format!("i{i}")).unwrap())
            .collect();
        let (out, _) = join(&mut m, &inputs, "j").unwrap();
        let z = m.find_net("z").unwrap();
        m.add_cell(
            "obuf",
            "BUFX1",
            &[("A", Conn::Net(out)), ("Z", Conn::Net(z))],
        )
        .unwrap();
        let mut design = Design::new();
        design.insert(m);
        let mut sim = Simulator::new(&design, &lib, SimOptions::default()).unwrap();

        let set = |sim: &mut Simulator, bits: [Lv; 3]| {
            for (i, b) in bits.iter().enumerate() {
                sim.poke(&format!("i{i}"), *b).unwrap();
            }
            sim.run_for(2.0);
        };
        set(&mut sim, [Lv::Zero, Lv::Zero, Lv::Zero]);
        assert_eq!(sim.peek("z").unwrap(), Lv::Zero, "all 0s → 0");
        set(&mut sim, [Lv::One, Lv::One, Lv::One]);
        assert_eq!(sim.peek("z").unwrap(), Lv::One, "all 1s → 1");
        set(&mut sim, [Lv::One, Lv::Zero, Lv::One]);
        assert_eq!(sim.peek("z").unwrap(), Lv::One, "mixed → unchanged");
        set(&mut sim, [Lv::Zero, Lv::Zero, Lv::One]);
        assert_eq!(sim.peek("z").unwrap(), Lv::One, "mixed → unchanged");
        set(&mut sim, [Lv::Zero, Lv::Zero, Lv::Zero]);
        assert_eq!(sim.peek("z").unwrap(), Lv::Zero, "all 0s → 0 again");
    }
}
