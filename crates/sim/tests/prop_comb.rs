//! Property: for a random combinational netlist, the event-driven
//! simulator's steady state equals direct boolean evaluation.

use drd_check::{prop, Rng};
use drd_liberty::{vlib90, Lv};
use drd_netlist::{Conn, Design, Module, NetId, PortDir};
use drd_sim::{SimOptions, Simulator};

const INPUTS: usize = 4;

/// Builds a random DAG of library gates over 4 primary inputs; returns the
/// design and, per created net, a closure-free recipe to evaluate it.
fn build(recipe: &[u8]) -> (Design, Vec<(u8, usize, usize)>) {
    let mut m = Module::new("t");
    let mut nets: Vec<NetId> = (0..INPUTS)
        .map(|i| {
            let p = m.add_port(format!("i{i}"), PortDir::Input).unwrap();
            m.port(p).net
        })
        .collect();
    let mut ops = Vec::new();
    for (k, &b) in recipe.iter().enumerate() {
        let a = (b as usize) % nets.len();
        let c = (b as usize / 7) % nets.len();
        let kind = b % 5;
        let z = m.add_net(format!("n{k}")).unwrap();
        let gate = match kind {
            0 => "INVX1",
            1 => "NAND2X1",
            2 => "NOR2X1",
            3 => "XOR2X1",
            _ => "AND2X1",
        };
        if kind == 0 {
            m.add_cell(
                format!("u{k}"),
                gate,
                &[("A", Conn::Net(nets[a])), ("Z", Conn::Net(z))],
            )
            .unwrap();
        } else {
            m.add_cell(
                format!("u{k}"),
                gate,
                &[
                    ("A", Conn::Net(nets[a])),
                    ("B", Conn::Net(nets[c])),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
        }
        ops.push((kind, a, c));
        nets.push(z);
    }
    let mut d = Design::new();
    d.insert(m);
    (d, ops)
}

fn reference(ops: &[(u8, usize, usize)], inputs: u8) -> Vec<bool> {
    let mut vals: Vec<bool> = (0..INPUTS).map(|i| (inputs >> i) & 1 == 1).collect();
    for &(kind, a, c) in ops {
        let (x, y) = (vals[a], vals[c]);
        vals.push(match kind {
            0 => !x,
            1 => !(x && y),
            2 => !(x || y),
            3 => x ^ y,
            _ => x && y,
        });
    }
    vals
}

#[test]
fn simulation_matches_boolean_evaluation() {
    let lib = vlib90::high_speed();
    prop(
        48,
        |rng: &mut Rng| {
            let len = rng.range(1, 24);
            (rng.bytes(len), rng.below(16) as u8, rng.coin())
        },
        |(recipe, inputs, corner_worst): &(Vec<u8>, u8, bool)| {
            if recipe.is_empty() {
                return Ok(());
            }
            let (design, ops) = build(recipe);
            let corner = if *corner_worst {
                drd_liberty::Corner::worst()
            } else {
                drd_liberty::Corner::best()
            };
            let mut sim = Simulator::new(&design, &lib, SimOptions::at_corner(corner))
                .map_err(|e| format!("simulator: {e}"))?;
            for i in 0..INPUTS {
                sim.poke(&format!("i{i}"), Lv::from_bool((inputs >> i) & 1 == 1))
                    .map_err(|e| format!("poke: {e}"))?;
            }
            if !sim.run_until_quiet(1000.0) {
                return Err("combinational circuit does not settle".into());
            }
            let expect = reference(&ops, *inputs);
            for (k, &e) in expect.iter().enumerate().skip(INPUTS) {
                let net = format!("n{}", k - INPUTS);
                let got = sim.peek(&net).map_err(|err| format!("peek {net}: {err}"))?;
                if got != Lv::from_bool(e) {
                    return Err(format!("net {net}: sim {got:?}, reference {e}"));
                }
            }
            Ok(())
        },
    );
}
