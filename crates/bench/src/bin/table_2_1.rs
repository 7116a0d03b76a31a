//! Table 2.1: truth table of a C-Muller element, verified by live
//! simulation of `vlib90` C-element trees from 2 to 10 inputs.

use drd_core::celement::join;
use drd_liberty::{vlib90, Lv};
use drd_netlist::{Conn, Design, Module, NetId, PortDir};
use drd_sim::{SimOptions, Simulator};

fn main() {
    let lib = vlib90::high_speed();
    println!("Table 2.1 — truth table of a C-Muller element");
    println!("{:<12} {:>8}", "inputs", "output");
    println!("{:<12} {:>8}", "all 0s", "0");
    println!("{:<12} {:>8}", "all 1s", "1");
    println!("{:<12} {:>8}", "other", "unchanged");
    println!();
    println!("verified on C-element trees (§3.1.5 builds 2..10-input elements):");
    for n in 2..=10usize {
        let mut m = Module::new("t");
        for i in 0..n {
            m.add_port(format!("i{i}"), PortDir::Input).unwrap();
        }
        m.add_port("z", PortDir::Output).unwrap();
        let inputs: Vec<NetId> = (0..n)
            .map(|i| m.find_net(&format!("i{i}")).unwrap())
            .collect();
        let (out, cells) = join(&mut m, &inputs, "j").unwrap();
        let z = m.find_net("z").unwrap();
        m.add_cell("ob", "BUFX1", &[("A", Conn::Net(out)), ("Z", Conn::Net(z))])
            .unwrap();
        let mut d = Design::new();
        d.insert(m);
        let mut sim = Simulator::new(&d, &lib, SimOptions::default()).unwrap();
        let set_all = |sim: &mut Simulator, v: Lv| {
            for i in 0..n {
                sim.poke(&format!("i{i}"), v).unwrap();
            }
            sim.run_for(3.0);
        };
        set_all(&mut sim, Lv::Zero);
        let at0 = sim.peek("z").unwrap();
        set_all(&mut sim, Lv::One);
        let at1 = sim.peek("z").unwrap();
        // Mixed: lower one input — output must hold.
        sim.poke("i0", Lv::Zero).unwrap();
        sim.run_for(3.0);
        let mixed = sim.peek("z").unwrap();
        assert_eq!((at0, at1, mixed), (Lv::Zero, Lv::One, Lv::One));
        println!(
            "  {n:>2} inputs: {} C2 cells — all-0→0, all-1→1, mixed→held  ✓",
            cells.len()
        );
    }
}
