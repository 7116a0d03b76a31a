//! BLIF export (for SIS interoperability, §3.2.7).
//!
//! Cells are written as `.gate` lines against the technology library.
//! Constant connections are routed through `$false` / `$true` nets defined
//! with `.names` as BLIF has no constant literals.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::{Conn, Module, PortDir};

/// Writes `module` in BLIF format.
pub fn write_blif(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", module.name);

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for (_, p) in module.ports() {
        match p.dir {
            PortDir::Input => inputs.push(p.name),
            PortDir::Output | PortDir::Inout => outputs.push(p.name),
        }
    }
    let _ = writeln!(out, ".inputs {}", inputs.join(" "));
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));

    let mut used_consts: HashSet<bool> = HashSet::new();
    let mut gate_lines = String::new();
    for (_, cell) in module.cells() {
        let _ = write!(gate_lines, ".gate {}", cell.kind_name());
        for (i, (_, conn)) in cell.pins().iter().enumerate() {
            let pin = cell.pin_name(i);
            match conn {
                Conn::Net(n) => {
                    let _ = write!(gate_lines, " {}={}", pin, module.net(*n).name);
                }
                Conn::Const0 => {
                    used_consts.insert(false);
                    let _ = write!(gate_lines, " {pin}=$false");
                }
                Conn::Const1 => {
                    used_consts.insert(true);
                    let _ = write!(gate_lines, " {pin}=$true");
                }
                Conn::Open => {}
            }
        }
        gate_lines.push('\n');
    }
    for &(net, value) in module.const_ties() {
        used_consts.insert(value);
        let src = if value { "$true" } else { "$false" };
        let _ = writeln!(gate_lines, ".names {} {}\n1 1", src, module.net(net).name);
    }
    if used_consts.contains(&false) {
        out.push_str(".names $false\n");
    }
    if used_consts.contains(&true) {
        out.push_str(".names $true\n1\n");
    }
    out.push_str(&gate_lines);
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Design, NetlistError};

    #[test]
    fn blif_structure() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("top");
        let module = d.module_mut(m);
        module.add_port("a", PortDir::Input)?;
        module.add_port("z", PortDir::Output)?;
        let a = module.find_net("a").unwrap();
        let z = module.find_net("z").unwrap();
        module.add_cell(
            "u1",
            "NAND2X1",
            &[
                ("A", Conn::Net(a)),
                ("B", Conn::Const1),
                ("Z", Conn::Net(z)),
            ],
        )?;
        let blif = write_blif(d.module(m));
        assert!(blif.starts_with(".model top\n"));
        assert!(blif.contains(".inputs a"));
        assert!(blif.contains(".outputs z"));
        assert!(blif.contains(".gate NAND2X1 A=a B=$true Z=z"));
        assert!(blif.contains(".names $true\n1\n"));
        assert!(blif.ends_with(".end\n"));
        Ok(())
    }

    #[test]
    fn open_pins_are_omitted() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("top");
        let module = d.module_mut(m);
        let a = module.add_net("a")?;
        module.add_cell("u", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Open)])?;
        let blif = write_blif(d.module(m));
        assert!(blif.contains(".gate INVX1 A=a\n"));
        Ok(())
    }
}
