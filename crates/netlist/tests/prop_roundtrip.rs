//! Property: writing any constructible netlist as Verilog and parsing it
//! back is a structural identity (and a textual fixed point).

use drd_check::{prop, Rng};
use drd_netlist::{Conn, Design, Module, PortDir};

/// Builds a random but well-formed gate-level module from a recipe of
/// small integers.
fn build(recipe: &[u8], buses: bool) -> Design {
    let mut m = Module::new("t");
    m.add_port("clk", PortDir::Input).unwrap();
    let clk = m.find_net("clk").unwrap();
    let mut nets = vec![clk];
    for (i, &b) in recipe.iter().enumerate() {
        let name = if buses && b % 3 == 0 {
            format!("bus{}[{}]", b % 5, i)
        } else {
            format!("n{i}")
        };
        nets.push(m.add_net(name).unwrap());
    }
    for (i, &b) in recipe.iter().enumerate() {
        let a = nets[(b as usize) % (nets.len() - 1)];
        let z = nets[i + 1];
        match b % 4 {
            0 => {
                m.add_cell(
                    format!("u{i}"),
                    "INVX1",
                    &[("A", Conn::Net(a)), ("Z", Conn::Net(z))],
                )
                .unwrap();
            }
            1 => {
                let c = nets[(b as usize / 4) % (nets.len() - 1)];
                m.add_cell(
                    format!("u{i}"),
                    "NAND2X1",
                    &[
                        ("A", Conn::Net(a)),
                        ("B", Conn::Net(c)),
                        ("Z", Conn::Net(z)),
                    ],
                )
                .unwrap();
            }
            2 => {
                m.add_cell(
                    format!("u{i}"),
                    "DFFX1",
                    &[
                        ("D", Conn::Net(a)),
                        ("CK", Conn::Net(clk)),
                        ("Q", Conn::Net(z)),
                    ],
                )
                .unwrap();
            }
            _ => {
                m.add_cell(
                    format!("u{i}"),
                    "AND2X1",
                    &[
                        ("A", Conn::Net(a)),
                        ("B", Conn::Const1),
                        ("Z", Conn::Net(z)),
                    ],
                )
                .unwrap();
            }
        }
    }
    let mut d = Design::new();
    d.insert(m);
    d
}

fn recipe_strategy(rng: &mut Rng) -> (Vec<u8>, bool) {
    let len = rng.range(1, 40);
    (rng.bytes(len), rng.coin())
}

#[test]
fn write_parse_is_identity() {
    prop(64, recipe_strategy, |(recipe, buses): &(Vec<u8>, bool)| {
        if recipe.is_empty() {
            return Ok(());
        }
        let design = build(recipe, *buses);
        let text1 = drd_netlist::verilog::write_design(&design);
        let parsed =
            drd_netlist::verilog::parse_design(&text1).map_err(|e| format!("parse: {e}"))?;
        let text2 = drd_netlist::verilog::write_design(&parsed);
        if text1 != text2 {
            return Err("write→parse→write is not a fixed point".into());
        }
        // Structural identity: same cells with same kinds and pin nets.
        let (a, b) = (design.top_module(), parsed.top_module());
        if a.cell_count() != b.cell_count() {
            return Err(format!("{} vs {} cells", a.cell_count(), b.cell_count()));
        }
        for (_, cell) in a.cells() {
            let other = b
                .find_cell(cell.name)
                .ok_or_else(|| format!("cell {} lost", cell.name))?;
            let other = b.cell(other);
            if cell.kind_ref() != other.kind_ref() {
                return Err(format!(
                    "{}: kind {:?} vs {:?}",
                    cell.name,
                    cell.kind_ref(),
                    other.kind_ref()
                ));
            }
            for (i, &(_, conn)) in cell.pins().iter().enumerate() {
                let pin = cell.pin_name(i);
                let oc = other
                    .pin(pin)
                    .ok_or_else(|| format!("{}: pin {pin} lost", cell.name))?;
                match (conn, oc) {
                    (Conn::Net(x), Conn::Net(y)) => {
                        if a.net(x).name != b.net(y).name {
                            return Err(format!(
                                "{}/{pin}: net {} vs {}",
                                cell.name,
                                a.net(x).name,
                                b.net(y).name
                            ));
                        }
                    }
                    (x, y) => {
                        if x != y {
                            return Err(format!("{}/{pin}: {x:?} vs {y:?}", cell.name));
                        }
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn blif_export_never_panics() {
    prop(
        64,
        |rng: &mut Rng| {
            let len = rng.range(1, 40);
            rng.bytes(len)
        },
        |recipe: &Vec<u8>| {
            if recipe.is_empty() {
                return Ok(());
            }
            let design = build(recipe, true);
            let blif = drd_netlist::blif::write_blif(design.top_module());
            if !blif.starts_with(".model") {
                return Err("missing .model header".into());
            }
            if !blif.ends_with(".end\n") {
                return Err("missing .end trailer".into());
            }
            Ok(())
        },
    );
}
