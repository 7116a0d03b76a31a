//! Hierarchy flattening.
//!
//! The desynchronizer emits controllers, delay elements and composite
//! latches as submodule instances; simulation and final layout work on the
//! flattened circuit. Flattening inlines every [`CellKind::Instance`] cell
//! recursively, prefixing inner object names with `instance/`.

use std::collections::HashMap;

use crate::{Conn, Design, KindRef, Module, ModuleId, NetId, NetlistError};

/// Deepest instance nesting the flattener follows. Real designs are a
/// handful of levels; anything past this is either generated pathology or
/// a recursive instantiation, and either would otherwise overflow the
/// stack (which no error path can recover from).
const MAX_FLATTEN_DEPTH: usize = 64;

/// Flattens `design` starting at `top`, returning a module containing only
/// library cells.
///
/// Inner nets and cells are renamed `instance/inner`. Submodule port nets
/// are merged with the nets connected at the instantiation site;
/// unconnected submodule inputs become dangling nets.
///
/// # Errors
/// Returns [`NetlistError::UnknownName`] if an instance references a
/// module that does not exist, [`NetlistError::Unsupported`] if instances
/// nest deeper than `MAX_FLATTEN_DEPTH` (64) levels (which catches recursive
/// instantiation), and propagates name-collision errors (which cannot
/// happen for names produced by the `/` prefixing scheme unless the design
/// already uses such names).
pub fn flatten(design: &Design, top: ModuleId) -> Result<Module, NetlistError> {
    let src = design.module(top);
    let mut out = Module::new(src.name.clone());
    // Copy ports (and their nets).
    for (_, port) in src.ports() {
        out.add_port(port.name, port.dir)?;
    }
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    for (_, port) in src.ports() {
        let name = src.net(port.net).name;
        let new = out
            .find_net(name)
            .ok_or_else(|| NetlistError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })?;
        net_map.insert(port.net, new);
    }
    flatten_into(design, top, "", &mut out, &mut net_map, 0)?;
    Ok(out)
}

/// Checked [`HashMap`] lookup: a cell pin or tie referencing a net the
/// module never declared means the netlist is internally inconsistent
/// (e.g. a [`NetId`] smuggled in from another module) — report it instead
/// of panicking on the index.
fn mapped(
    net_map: &HashMap<NetId, NetId>,
    module: &Module,
    net: NetId,
) -> Result<NetId, NetlistError> {
    net_map
        .get(&net)
        .copied()
        .ok_or_else(|| NetlistError::UnknownName {
            kind: "net",
            name: module.net(net).name.to_owned(),
        })
}

/// Recursively copies `module`'s contents into `out` with `prefix`.
/// `net_map` maps the module's nets to nets of `out` (pre-seeded with port
/// bindings).
fn flatten_into(
    design: &Design,
    module_id: ModuleId,
    prefix: &str,
    out: &mut Module,
    net_map: &mut HashMap<NetId, NetId>,
    depth: usize,
) -> Result<(), NetlistError> {
    if depth > MAX_FLATTEN_DEPTH {
        return Err(NetlistError::Unsupported {
            line: 0,
            message: format!(
                "instance hierarchy deeper than {MAX_FLATTEN_DEPTH} levels at `{prefix}` \
                 (recursive instantiation?)"
            ),
        });
    }
    let module = design.module(module_id);

    // Create all unmapped nets.
    for (nid, net) in module.nets() {
        if let std::collections::hash_map::Entry::Vacant(e) = net_map.entry(nid) {
            let name = format!("{prefix}{}", net.name);
            let new = match out.find_net(&name) {
                Some(existing) => existing,
                None => out.add_net(name)?,
            };
            e.insert(new);
        }
    }
    // Constant ties propagate.
    for &(net, value) in module.const_ties() {
        let mapped_net = mapped(net_map, module, net)?;
        out.add_const_tie(mapped_net, value);
    }

    for (_, cell) in module.cells() {
        match cell.kind_ref() {
            KindRef::Lib(lib_name) => {
                // Pin names and the library-cell name cross the symbol
                // boundary here: they are re-interned in `out`'s table.
                let pins: Vec<(&str, Conn)> = cell
                    .pins()
                    .iter()
                    .enumerate()
                    .map(|(i, (_, c))| {
                        let conn = match c {
                            Conn::Net(n) => Conn::Net(mapped(net_map, module, *n)?),
                            other => *other,
                        };
                        Ok((cell.pin_name(i), conn))
                    })
                    .collect::<Result<_, NetlistError>>()?;
                let kind = out.lib_kind(lib_name);
                let id = out.add_cell_of_kind(format!("{prefix}{}", cell.name), kind, &pins)?;
                out.set_size_only(id, cell.size_only);
            }
            KindRef::Instance(sub_name) => {
                let sub_id =
                    design
                        .find_module(sub_name)
                        .ok_or_else(|| NetlistError::UnknownName {
                            kind: "module",
                            name: sub_name.to_owned(),
                        })?;
                let sub = design.module(sub_id);
                let sub_prefix = format!("{prefix}{}/", cell.name);
                // Bind submodule port nets to the instantiation conns.
                let mut sub_map: HashMap<NetId, NetId> = HashMap::new();
                for (_, port) in sub.ports() {
                    let conn = cell.pin(port.name).unwrap_or(Conn::Open);
                    let outer = match conn {
                        Conn::Net(n) => Some(mapped(net_map, module, n)?),
                        Conn::Const0 | Conn::Const1 => {
                            // Tie: create a net and record the constant.
                            let net = out.add_net(format!("{sub_prefix}{}", port.name))?;
                            out.add_const_tie(net, conn == Conn::Const1);
                            Some(net)
                        }
                        Conn::Open => None,
                    };
                    if let Some(outer) = outer {
                        sub_map.insert(port.net, outer);
                    }
                }
                flatten_into(design, sub_id, &sub_prefix, out, &mut sub_map, depth + 1)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortDir;

    fn two_level_design() -> Design {
        let mut d = Design::new();
        let top = d.add_module("top");
        let sub = d.add_module("pair");
        {
            let m = d.module_mut(sub);
            m.add_port("in1", PortDir::Input).unwrap();
            m.add_port("out1", PortDir::Output).unwrap();
            let i = m.find_net("in1").unwrap();
            let o = m.find_net("out1").unwrap();
            let mid = m.add_net("mid").unwrap();
            m.add_cell("g1", "INVX1", &[("A", Conn::Net(i)), ("Z", Conn::Net(mid))])
                .unwrap();
            m.add_cell("g2", "INVX1", &[("A", Conn::Net(mid)), ("Z", Conn::Net(o))])
                .unwrap();
        }
        {
            let m = d.module_mut(top);
            m.add_port("a", PortDir::Input).unwrap();
            m.add_port("z", PortDir::Output).unwrap();
            let a = m.find_net("a").unwrap();
            let z = m.find_net("z").unwrap();
            let mid = m.add_net("mid").unwrap();
            m.add_instance(
                "u1",
                "pair",
                &[("in1", Conn::Net(a)), ("out1", Conn::Net(mid))],
            )
            .unwrap();
            m.add_instance(
                "u2",
                "pair",
                &[("in1", Conn::Net(mid)), ("out1", Conn::Net(z))],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn flattens_two_levels() {
        let d = two_level_design();
        let flat = flatten(&d, d.top()).unwrap();
        assert_eq!(flat.cell_count(), 4);
        assert!(flat.find_cell("u1/g1").is_some());
        assert!(flat.find_cell("u2/g2").is_some());
        assert!(flat.find_net("u1/mid").is_some());
        // The instance boundary nets are merged: u1/out1 does not exist as
        // a separate net; u1/g2's Z drives top-level `mid`.
        let g2 = flat.find_cell("u1/g2").unwrap();
        let mid = flat.find_net("mid").unwrap();
        assert_eq!(flat.cell(g2).pin("Z"), Some(Conn::Net(mid)));
        // Ports survive.
        assert_eq!(flat.port_count(), 2);
    }

    #[test]
    fn constant_instance_connections_become_ties() {
        let mut d = two_level_design();
        let top = d.top();
        let m = d.module_mut(top);
        let z2 = m.add_net("z2").unwrap();
        m.add_instance(
            "u3",
            "pair",
            &[("in1", Conn::Const1), ("out1", Conn::Net(z2))],
        )
        .unwrap();
        let flat = flatten(&d, d.top()).unwrap();
        let tie_net = flat.find_net("u3/in1").expect("tie net exists");
        assert!(flat.const_ties().iter().any(|&(n, v)| n == tie_net && v));
    }

    #[test]
    fn unknown_submodule_is_an_error() {
        let mut d = Design::new();
        let top = d.add_module("top");
        let m = d.module_mut(top);
        let n = m.add_net("n").unwrap();
        m.add_instance("u", "ghost", &[("p", Conn::Net(n))])
            .unwrap();
        assert!(matches!(
            flatten(&d, d.top()),
            Err(NetlistError::UnknownName { kind: "module", .. })
        ));
    }

    #[test]
    fn recursive_instantiation_is_an_error_not_a_stack_overflow() {
        let mut d = Design::new();
        let top = d.add_module("top");
        let looper = d.add_module("looper");
        {
            let m = d.module_mut(looper);
            m.add_port("x", PortDir::Input).unwrap();
            let x = m.find_net("x").unwrap();
            m.add_instance("again", "looper", &[("x", Conn::Net(x))])
                .unwrap();
        }
        {
            let m = d.module_mut(top);
            m.add_port("a", PortDir::Input).unwrap();
            let a = m.find_net("a").unwrap();
            m.add_instance("u", "looper", &[("x", Conn::Net(a))])
                .unwrap();
        }
        let err = flatten(&d, d.top()).unwrap_err();
        assert!(
            matches!(&err, NetlistError::Unsupported { message, .. }
                if message.contains("deeper than")),
            "{err}"
        );
    }

    #[test]
    fn nested_hierarchy() {
        let mut d = Design::new();
        let top = d.add_module("top");
        let mid = d.add_module("mid");
        let leaf = d.add_module("leaf");
        {
            let m = d.module_mut(leaf);
            m.add_port("x", PortDir::Input).unwrap();
            m.add_port("y", PortDir::Output).unwrap();
            let x = m.find_net("x").unwrap();
            let y = m.find_net("y").unwrap();
            m.add_cell("i", "INVX1", &[("A", Conn::Net(x)), ("Z", Conn::Net(y))])
                .unwrap();
        }
        {
            let m = d.module_mut(mid);
            m.add_port("p", PortDir::Input).unwrap();
            m.add_port("q", PortDir::Output).unwrap();
            let p = m.find_net("p").unwrap();
            let q = m.find_net("q").unwrap();
            m.add_instance("l", "leaf", &[("x", Conn::Net(p)), ("y", Conn::Net(q))])
                .unwrap();
        }
        {
            let m = d.module_mut(top);
            m.add_port("a", PortDir::Input).unwrap();
            m.add_port("z", PortDir::Output).unwrap();
            let a = m.find_net("a").unwrap();
            let z = m.find_net("z").unwrap();
            m.add_instance("m", "mid", &[("p", Conn::Net(a)), ("q", Conn::Net(z))])
                .unwrap();
        }
        let flat = flatten(&d, d.top()).unwrap();
        assert_eq!(flat.cell_count(), 1);
        assert!(flat.find_cell("m/l/i").is_some());
    }
}
