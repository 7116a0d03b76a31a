//! Structural Verilog emission.
//!
//! The writer streams every module into one preallocated output buffer.
//! Per write it computes two facts once per symbol of the module ([`Ids`]):
//! whether the name is a simple identifier and whether it has `base[index]`
//! bus-bit shape. Every identifier is then appended straight from the
//! symbol table, escaped or not by one table read; declarations are
//! grouped by the `(base symbol, index)` the module records for every net;
//! and instance pins take a no-allocation fast path whenever a cell has no
//! bit-blasted (`pin[i]`) pins — the common case in technology-mapped
//! netlists. Output is byte-identical to the pre-streaming writer.

use std::fmt::Write as _;

use crate::hash::{FastHashMap, FastHashSet};
use crate::{Cell, Conn, Design, Module, PortDir, Symbol};

/// Writes all modules of `design` (top first) as structural Verilog.
pub fn write_design(design: &Design) -> String {
    let mut estimate = 0;
    for (_, module) in design.modules() {
        estimate += estimate_module(module);
    }
    let mut out = String::with_capacity(estimate);
    let top = design.top();
    write_module_into(design.module(top), &mut out);
    for (id, module) in design.modules() {
        if id != top {
            out.push('\n');
            write_module_into(module, &mut out);
        }
    }
    out
}

/// Writes a single module as structural Verilog.
pub fn write_module(module: &Module) -> String {
    let mut out = String::with_capacity(estimate_module(module));
    write_module_into(module, &mut out);
    out
}

/// Rough upper-bound on a module's rendered size, so the output buffer is
/// allocated once up front instead of growing through reallocation.
fn estimate_module(module: &Module) -> usize {
    module.pin_table_len() * 24
        + module.net_count() * 16
        + module.port_count() * 24
        + module.cell_count() * 32
        + 64
}

/// True if `name` is a plain Verilog identifier needing no escape.
fn is_simple_id(name: &str) -> bool {
    match name.as_bytes() {
        [first, rest @ ..] => {
            (first.is_ascii_alphabetic() || *first == b'_')
                && rest
                    .iter()
                    .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$')
        }
        [] => false,
    }
}

/// Appends an identifier, escaping it if necessary. Escaped identifiers
/// carry their mandatory trailing space.
fn push_id(out: &mut String, name: &str) {
    push_name(out, name, is_simple_id(name));
}

fn push_name(out: &mut String, name: &str, simple: bool) {
    if simple {
        out.push_str(name);
    } else {
        out.push('\\');
        out.push_str(name);
        out.push(' ');
    }
}

/// [`Ids`] flag: the name is a simple identifier.
const SIMPLE: u8 = 1;
/// [`Ids`] flag: the name has `base[index]` bus-bit shape.
const BUS_BIT: u8 = 2;

/// One write's view of a module's names: a flag byte per symbol, so each
/// name is checked once per write however often it is referenced.
struct Ids<'m> {
    module: &'m Module,
    flags: Vec<u8>,
}

impl<'m> Ids<'m> {
    fn new(module: &'m Module) -> Self {
        let syms = module.symbols();
        let flags = (0..syms.len())
            .map(|i| {
                let name = syms.resolve(Symbol::from_index(i));
                let mut flags = 0;
                if is_simple_id(name) {
                    flags |= SIMPLE;
                }
                if crate::bus::parse_bus_bit(name).is_some() {
                    flags |= BUS_BIT;
                }
                flags
            })
            .collect();
        Ids { module, flags }
    }

    fn has(&self, sym: Symbol, flag: u8) -> bool {
        self.flags[sym.index()] & flag != 0
    }

    /// Appends the name of `sym`, escaped if it is not simple.
    fn push(&self, out: &mut String, sym: Symbol) {
        push_name(out, self.module.resolve(sym), self.has(sym, SIMPLE));
    }

    /// Appends a pin connection (net name, constant or nothing for open).
    fn push_conn(&self, out: &mut String, conn: Conn) {
        match conn {
            Conn::Net(n) => self.push(out, self.module.net_sym(n)),
            Conn::Const0 => out.push_str("1'b0"),
            Conn::Const1 => out.push_str("1'b1"),
            Conn::Open => {}
        }
    }
}

/// A declaration group: one scalar name or a contiguous bus, as the
/// symbol of the name or of the bus base.
#[derive(Debug)]
struct DeclGroup {
    name: Symbol,
    /// `None` for scalars, `Some((msb, lsb))` for buses.
    range: Option<(i64, i64)>,
}

/// [`group_by_symbol`] scratch slot of a symbol no group uses.
const FREE: u32 = u32::MAX;
/// [`group_by_symbol`] scratch slot of a declared scalar name.
const SCALAR: u32 = u32::MAX - 1;

/// Groups declared names, each given as `(name, bus)` with the
/// `(base, index)` the module records for the net of that name, in
/// first-seen order into scalar and bus declarations. A name joins a bus
/// only if it has `base[index]` form, the base is a simple identifier,
/// and no scalar of the base's name is declared alongside.
fn group_by_symbol(
    ids: &Ids<'_>,
    names: &[(Symbol, Option<(Symbol, i64)>)],
    slot: &mut [u32],
) -> Vec<DeclGroup> {
    for &(name, bus) in names {
        if bus.is_none() {
            slot[name.index()] = SCALAR;
        }
    }
    let mut groups: Vec<DeclGroup> = Vec::new();
    for &(name, bus) in names {
        match bus {
            Some((base, index)) if ids.has(base, SIMPLE) && slot[base.index()] != SCALAR => {
                match slot[base.index()] {
                    FREE => {
                        slot[base.index()] = groups.len() as u32;
                        groups.push(DeclGroup {
                            name: base,
                            range: Some((index, index)),
                        });
                    }
                    g => {
                        if let Some((msb, lsb)) = &mut groups[g as usize].range {
                            *msb = (*msb).max(index);
                            *lsb = (*lsb).min(index);
                        }
                    }
                }
            }
            _ => groups.push(DeclGroup { name, range: None }),
        }
    }
    // Leave the scratch table free for the next grouping.
    for &(name, bus) in names {
        slot[name.index()] = FREE;
        if let Some((base, _)) = bus {
            slot[base.index()] = FREE;
        }
    }
    groups
}

fn write_module_into(module: &Module, out: &mut String) {
    let ids = Ids::new(module);
    let mut slot = vec![FREE; module.symbols().len()];
    // Ports and the nets named like them (every port name names a net).
    let ports: Vec<(Symbol, Option<(Symbol, i64)>)> = module
        .ports()
        .map(|(pid, _)| {
            let name = module.port_sym(pid);
            (
                name,
                module
                    .find_net_sym(name)
                    .and_then(|n| module.net_bus_sym(n)),
            )
        })
        .collect();
    let port_groups = group_by_symbol(&ids, &ports, &mut slot);
    out.push_str("module ");
    push_id(out, &module.name);
    out.push_str(" (");
    for (i, g) in port_groups.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        ids.push(out, g.name);
    }
    out.push_str(");\n");

    // Port direction declarations (one per group; a bus takes the
    // direction of its `base[msb]` port).
    let mut sample = String::new();
    for g in &port_groups {
        let port = match g.range {
            Some((msb, _)) => {
                sample.clear();
                let _ = write!(sample, "{}[{msb}]", module.resolve(g.name));
                module.find_port(&sample)
            }
            None => module.find_port_sym(g.name),
        };
        let dir = port.map_or(PortDir::Input, |p| module.port(p).dir);
        let _ = write!(out, "  {dir} ");
        if let Some((msb, lsb)) = g.range {
            let _ = write!(out, "[{msb}:{lsb}] ");
        }
        ids.push(out, g.name);
        out.push_str(";\n");
    }

    // Wire declarations for nets that neither are a port's net nor share
    // a port's name.
    let mut port_name = vec![false; module.symbols().len()];
    for (pid, port) in module.ports() {
        port_name[module.port_sym(pid).index()] = true;
        port_name[module.net_sym(port.net).index()] = true;
    }
    let wires: Vec<(Symbol, Option<(Symbol, i64)>)> = module
        .nets()
        .map(|(id, _)| (module.net_sym(id), module.net_bus_sym(id)))
        .filter(|&(name, _)| !port_name[name.index()])
        .collect();
    for g in group_by_symbol(&ids, &wires, &mut slot) {
        out.push_str("  wire ");
        if let Some((msb, lsb)) = g.range {
            let _ = write!(out, "[{msb}:{lsb}] ");
        }
        ids.push(out, g.name);
        out.push_str(";\n");
    }

    // Residual continuous assignments: constant ties on port nets and ports
    // whose net was merged into a different net by `assign` resolution.
    for &(net, value) in module.const_ties() {
        let name = module.net_sym(net);
        if module.find_port_sym(name).is_some() {
            out.push_str("  assign ");
            ids.push(out, name);
            let _ = writeln!(out, " = 1'b{};", u8::from(value));
        }
    }
    for (pid, port) in module.ports() {
        let (name, net_name) = (module.port_sym(pid), module.net_sym(port.net));
        if net_name != name && port.dir != PortDir::Input {
            out.push_str("  assign ");
            ids.push(out, name);
            out.push_str(" = ");
            ids.push(out, net_name);
            out.push_str(";\n");
        }
    }

    // Instances.
    for (_, cell) in module.cells() {
        out.push_str("  ");
        ids.push(out, cell.kind.sym());
        out.push(' ');
        ids.push(out, cell.name_sym());
        out.push_str(" (");
        render_pins_into(&ids, &cell, out);
        out.push_str(");\n");
    }
    out.push_str("endmodule\n");
}

/// Renders the pin connections of a cell, re-grouping bit-blasted pins
/// (`data[1]`, `data[0]`) into a single concatenation connection.
///
/// Cells with no `pin[i]`-shaped pins — the overwhelmingly common case —
/// take a direct streaming path with no intermediate collections.
fn render_pins_into(ids: &Ids<'_>, cell: &Cell<'_>, out: &mut String) {
    let pins = cell.pins();
    if !pins.iter().any(|&(pin, _)| ids.has(pin, BUS_BIT)) {
        for (i, &(pin, conn)) in pins.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('.');
            ids.push(out, pin);
            out.push('(');
            ids.push_conn(out, conn);
            out.push(')');
        }
        return;
    }

    // Collect multi-bit pin groups.
    let mut groups: FastHashMap<&str, Vec<(i64, Conn)>> = FastHashMap::default();
    let mut multi: FastHashSet<&str> = FastHashSet::default();
    for (i, (_, conn)) in pins.iter().enumerate() {
        if let Some((base, index)) = crate::bus::parse_bus_bit(cell.pin_name(i)) {
            let group = groups.entry(base).or_default();
            group.push((index, *conn));
            if group.len() > 1 {
                multi.insert(base);
            }
        }
    }
    let mut done: FastHashSet<&str> = FastHashSet::default();
    let mut first = true;
    for (i, &(pin_sym, conn)) in pins.iter().enumerate() {
        let pin = cell.pin_name(i);
        match crate::bus::parse_bus_bit(pin) {
            Some((base, _)) if multi.contains(base) => {
                if !done.insert(base) {
                    continue;
                }
                let Some(mut bits) = groups.remove(base) else {
                    continue;
                };
                // Stable sort: equal indices keep pin-list order.
                bits.sort_by_key(|(idx, _)| std::cmp::Reverse(*idx));
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push('.');
                push_id(out, base);
                out.push_str("({");
                for (k, (_, c)) in bits.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    ids.push_conn(out, *c);
                }
                out.push_str("})");
            }
            _ => {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push('.');
                ids.push(out, pin_sym);
                out.push('(');
                ids.push_conn(out, conn);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::{Design, NetlistError, PortDir};

    #[test]
    fn simple_id_detection() {
        assert!(is_simple_id("abc_123$"));
        assert!(is_simple_id("_x"));
        assert!(!is_simple_id("3x"));
        assert!(!is_simple_id("a[3]"));
        assert!(!is_simple_id(""));
        assert!(!is_simple_id("a-b"));
    }

    #[test]
    fn escaped_identifiers_get_trailing_space() {
        let mut out = String::new();
        push_id(&mut out, "a+b");
        assert_eq!(out, "\\a+b ");
        out.clear();
        push_id(&mut out, "plain");
        assert_eq!(out, "plain");
    }

    #[test]
    fn buses_are_grouped_in_declarations() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("t");
        let module = d.module_mut(m);
        for i in 0..3 {
            module.add_port(format!("x[{i}]"), PortDir::Input)?;
        }
        module.add_port("y", PortDir::Output)?;
        let text = write_design(&d);
        assert!(text.contains("module t (x, y);"), "{text}");
        assert!(text.contains("input [2:0] x;"), "{text}");
        assert!(text.contains("output y;"), "{text}");
        Ok(())
    }

    #[test]
    fn multibit_instance_pins_render_as_concat() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("t");
        let module = d.module_mut(m);
        let a = module.add_net("a")?;
        let b = module.add_net("b")?;
        module.add_instance(
            "u",
            "SUB",
            &[("in1[1]", Conn::Net(a)), ("in1[0]", Conn::Net(b))],
        )?;
        let text = write_design(&d);
        assert!(text.contains(".in1({a, b})"), "{text}");
        Ok(())
    }

    #[test]
    fn const_tie_on_port_is_emitted() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("t");
        let module = d.module_mut(m);
        let p = module.add_port("z", PortDir::Output)?;
        let net = module.port(p).net;
        module.add_const_tie(net, true);
        let text = write_design(&d);
        assert!(text.contains("assign z = 1'b1;"), "{text}");
        Ok(())
    }

    #[test]
    fn merged_output_port_emits_alias_assign() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("t");
        let module = d.module_mut(m);
        module.add_port("a", PortDir::Input)?;
        let zp = module.add_port("z", PortDir::Output)?;
        let a_net = module.find_net("a").unwrap();
        module.merge_port_net(module.port(zp).net, a_net);
        let text = write_design(&d);
        assert!(text.contains("assign z = a;"), "{text}");
        Ok(())
    }

    #[test]
    fn single_bus_pin_is_not_grouped() -> Result<(), NetlistError> {
        let mut d = Design::new();
        let m = d.add_module("t");
        let module = d.module_mut(m);
        let a = module.add_net("a")?;
        module.add_instance("u", "SUB", &[("in1[0]", Conn::Net(a))])?;
        let text = write_design(&d);
        // Stays a single named pin (escaped — brackets are not simple-id
        // characters) rather than collapsing into a one-bit concat.
        assert!(text.contains(".\\in1[0] (a)"), "{text}");
        Ok(())
    }
}
