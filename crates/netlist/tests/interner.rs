//! Interner edge cases: escaped Verilog identifiers survive interning
//! byte-for-byte, fuzzed prefixes never produce colliding unique names,
//! `Symbol` values stay stable while the module is mutated, and the
//! symbol table agrees with a `HashMap` model through its growths.

use std::collections::HashMap;

use drd_check::{prop, Rng};
use drd_netlist::{Conn, Module, Symbol, SymbolTable};

/// Escaped identifiers exercise every character class the interner must
/// treat as opaque bytes: brackets, dots, plus/minus, hashes, spaces are
/// all legal inside a `\escaped ` Verilog name.
const NASTY: &[&str] = &[
    "clk[0]",
    "q+0",
    "n-1",
    "r.in",
    "c#1",
    "a b",
    "u$2",
    "p_3",
    "\\start",
    "net[3][4]",
];

#[test]
fn escaped_identifiers_intern_byte_for_byte() {
    let mut m = Module::new("t");
    let mut ids = Vec::new();
    for &name in NASTY {
        ids.push((m.add_net(name).unwrap(), name));
    }
    for &(id, name) in &ids {
        assert_eq!(m.net(id).name, name, "resolve must not normalize");
        assert_eq!(m.find_net(name), Some(id), "lookup must not normalize");
        let sym = m.net_sym(id);
        assert_eq!(m.symbols().resolve(sym), name);
        assert_eq!(m.symbols().lookup(name), Some(sym));
    }
    // Near-miss names are distinct symbols, not hash-collision aliases.
    assert!(m.find_net("clk[0] ").is_none());
    assert!(m.find_net("clk0").is_none());
    assert!(m.find_net("start").is_none());
}

/// Writing a module whose names need escaping and importing it again
/// follows the documented §3.2.1 contract: the importer *sanitizes*
/// escaped names to simple identifiers (bus bits keep their brackets),
/// nothing is lost, and from the first import on the text is a fixed
/// point — sanitized names intern and round-trip byte-for-byte.
#[test]
fn escaped_identifiers_round_trip_through_write_parse() {
    let mut m = Module::new("t");
    use drd_netlist::PortDir;
    m.add_port("clk[0]", PortDir::Input).unwrap();
    let clk = m.find_net("clk[0]").unwrap();
    let mut prev = clk;
    // A name containing whitespace cannot be written as a Verilog
    // escaped identifier at all (escapes terminate at whitespace), so
    // the write-boundary contract only covers whitespace-free names.
    for (i, &name) in NASTY
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, n)| !n.contains(' '))
    {
        let n = m.add_net(name).unwrap();
        m.add_cell(
            format!("g+{i}"),
            "INVX1",
            &[("A", Conn::Net(prev)), ("Z", Conn::Net(n))],
        )
        .unwrap();
        prev = n;
    }
    let mut d = drd_netlist::Design::new();
    d.insert(m);
    let text1 = drd_netlist::verilog::write_design(&d);
    let back = drd_netlist::verilog::parse_design(&text1).expect("escaped output reparses");
    let (a, b) = (d.top_module(), back.top_module());
    assert_eq!(a.net_count(), b.net_count(), "no nets lost to sanitizing");
    assert_eq!(
        a.cell_count(),
        b.cell_count(),
        "no cells lost to sanitizing"
    );
    // Bus-bit names keep their identity verbatim; `$` is a legal simple
    // character and passes through untouched.
    for keep in ["clk[0]", "u$2", "p_3"] {
        assert!(b.find_net(keep).is_some(), "`{keep}` lost:\n{text1}");
    }
    // Once sanitized, the text is a fixed point of write → parse.
    let text2 = drd_netlist::verilog::write_design(&back);
    let again = drd_netlist::verilog::parse_design(&text2).expect("sanitized output reparses");
    assert_eq!(
        text2,
        drd_netlist::verilog::write_design(&again),
        "fixed point"
    );
    // Every sanitized name interns and resolves byte-for-byte.
    for (id, net) in b.nets() {
        let sym = b.net_sym(id);
        assert_eq!(b.symbols().resolve(sym), net.name);
        assert_eq!(b.find_net(net.name), Some(id));
    }
}

/// Fuzzed prefixes — including prefixes that look like already-minted
/// unique names (`p_3`), bracketed bus stems, and prefixes colliding
/// with pre-existing nets — never produce a name that collides.
#[test]
fn fuzzed_prefixes_unique_without_collision() {
    const PREFIXES: &[&str] = &["p", "p_3", "drd_req", "a[1]", "x y", "", "_", "n#"];
    prop(
        128,
        |rng: &mut Rng| {
            let n_picks = rng.range(1, 24);
            let picks: Vec<u8> = rng.bytes(n_picks);
            let n_taken = rng.range(0, 8);
            let pre_taken: Vec<u8> = rng.bytes(n_taken);
            (picks, pre_taken)
        },
        |(picks, pre_taken): &(Vec<u8>, Vec<u8>)| {
            let mut m = Module::new("t");
            // Pre-occupy names the minting must skip over.
            for &b in pre_taken {
                let p = PREFIXES[b as usize % PREFIXES.len()];
                let taken = format!("{p}_{}", b % 5);
                let _ = m.add_net(taken);
            }
            // Nets and cells are separate namespaces, so each gets its
            // own collision set.
            let mut seen_nets = std::collections::HashSet::new();
            let mut seen_cells = std::collections::HashSet::new();
            for (_, net) in m.nets() {
                seen_nets.insert(net.name.to_owned());
            }
            for &b in picks {
                let p = PREFIXES[b as usize % PREFIXES.len()];
                let (name, fresh) = if b % 2 == 0 {
                    let name = m.unique_net_name(p);
                    m.add_net(&name).map_err(|e| format!("net `{name}`: {e}"))?;
                    let fresh = seen_nets.insert(name.clone());
                    (name, fresh)
                } else {
                    let sym = m.unique_cell_name(p);
                    let name = m.resolve(sym).to_owned();
                    m.add_cell(sym, "INVX1", &[])
                        .map_err(|e| format!("cell `{name}`: {e}"))?;
                    let fresh = seen_cells.insert(name.clone());
                    (name, fresh)
                };
                if !fresh {
                    return Err(format!("minted duplicate `{name}`"));
                }
                if !name.starts_with(p) {
                    return Err(format!("`{name}` does not extend prefix `{p}`"));
                }
            }
            Ok(())
        },
    );
}

/// `Symbol` values captured before heavy mutation still resolve to the
/// same bytes afterwards: removal, re-adding, and unique-name minting
/// never invalidate or re-map existing symbols.
#[test]
fn symbols_stay_stable_under_mutation() {
    let mut m = Module::new("t");
    let mut recorded: Vec<(Symbol, String)> = Vec::new();
    for &name in NASTY {
        let id = m.add_net(name).unwrap();
        recorded.push((m.net_sym(id), name.to_owned()));
    }
    let a = m.find_net("clk[0]").unwrap();
    for i in 0..200 {
        let name = m.unique_cell_name("drd_u");
        let id = m
            .add_cell(name, "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Const0)])
            .unwrap();
        recorded.push((m.cell_sym(id), m.cell(id).name.to_owned()));
        if i % 3 == 0 {
            m.remove_cell(id);
        }
        let nn = m.unique_net_name("drd_n");
        let nid = m.add_net(&nn).unwrap();
        recorded.push((m.net_sym(nid), nn));
    }
    for (sym, name) in &recorded {
        assert_eq!(m.symbols().resolve(*sym), name.as_str());
        assert_eq!(m.symbols().lookup(name), Some(*sym));
    }
}

/// One generated name per seed: multi-byte UTF-8, the empty string, an
/// escaped-identifier shape, a name that differs from an earlier one only
/// in its last byte, or plain ASCII.
fn draw_name(seed: u64, earlier: &[String]) -> String {
    const UTF8: &[&str] = &["é", "名", "🦀", "ß", "ü", "\u{0}", "Ω"];
    let mut rng = Rng::new(seed);
    let len = rng.range(0, 12);
    match rng.range(0, 6) {
        0 => (0..len).map(|_| *rng.choose(UTF8)).collect(),
        1 => String::new(),
        2 => NASTY[rng.range(0, NASTY.len())].to_owned(),
        3 if !earlier.is_empty() => {
            // The same bytes up to a last one that is any ASCII letter.
            let mut near = earlier[rng.range(0, earlier.len())].clone();
            near.pop();
            near.push(char::from(b'a' + rng.range(0, 26) as u8));
            near
        }
        _ => (0..len)
            .map(|_| char::from(b'a' + rng.range(0, 4) as u8))
            .collect(),
    }
}

/// `intern`/`lookup`/`resolve`/`len` agree with a `HashMap<String, u32>`
/// model over hundreds of names (several table growths from the default
/// size), and a clone is independent: interning into it changes neither
/// the original's length nor its lookups.
#[test]
fn symbol_table_matches_a_hashmap_model_through_growth() {
    prop(
        64,
        |rng: &mut Rng| {
            let n = rng.range(0, 600);
            (0..n).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        },
        |seeds: &Vec<u64>| {
            let mut table = SymbolTable::default();
            let mut model: HashMap<String, u32> = HashMap::new();
            let mut order: Vec<String> = Vec::new();
            let check = |table: &SymbolTable, model: &HashMap<String, u32>, order: &[String]| {
                if table.len() != model.len() {
                    return Err(format!("len {} != model {}", table.len(), model.len()));
                }
                for (i, name) in order.iter().enumerate() {
                    let sym = Symbol::from_index(i);
                    if table.resolve(sym) != name {
                        return Err(format!(
                            "resolve({i}) = {:?} != {name:?}",
                            table.resolve(sym)
                        ));
                    }
                    if table.lookup(name) != Some(sym) {
                        return Err(format!("lookup({name:?}) = {:?}", table.lookup(name)));
                    }
                }
                Ok(())
            };
            let half = seeds.len() / 2;
            let mut snapshot = None;
            for (k, &seed) in seeds.iter().enumerate() {
                if k == half {
                    snapshot = Some((table.clone(), model.clone(), order.clone()));
                }
                let name = draw_name(seed, &order);
                let expect = match model.get(&name) {
                    Some(&i) => i,
                    None => {
                        let i = order.len() as u32;
                        model.insert(name.clone(), i);
                        order.push(name.clone());
                        i
                    }
                };
                let sym = table.intern(&name);
                if sym.index() != expect as usize {
                    return Err(format!(
                        "intern({name:?}) = {} != model {expect}",
                        sym.index()
                    ));
                }
                if table.len() != model.len() {
                    return Err(format!("len {} after {name:?}", table.len()));
                }
            }
            check(&table, &model, &order)?;
            // The clone taken halfway saw none of the later names.
            if let Some((clone, model_then, order_then)) = snapshot {
                check(&clone, &model_then, &order_then)?;
                for name in order.iter().skip(order_then.len()) {
                    if clone.lookup(name).is_some() {
                        return Err(format!("clone sees later name {name:?}"));
                    }
                }
                // Interning into a clone leaves the original as it was.
                let mut fork = table.clone();
                for name in ["fork-only", "名前", ""] {
                    fork.intern(name);
                    fork.intern(&format!("{name}#fork"));
                }
                check(&table, &model, &order)?;
                if !model.contains_key("fork-only") && table.lookup("fork-only").is_some() {
                    return Err("original sees a name interned into its clone".into());
                }
            }
            // Names never interned miss.
            for name in order.iter().take(8) {
                let miss = format!("{name}\u{1}");
                if !model.contains_key(&miss) && table.lookup(&miss).is_some() {
                    return Err(format!("lookup({miss:?}) hit"));
                }
            }
            Ok(())
        },
    );
}

/// One name of the shapes the Verilog front end interns, 1 to 40 bytes:
/// a plain identifier, a `base[i]` bus bit, or a sanitized escaped name
/// (`_`-led, punctuation turned to `_`, sometimes `_e{k}`-uniqued, bus
/// bits keeping their index). Small alphabets and indices make many
/// names share all but their last bytes, the shapes a weak tag piles
/// into one probe run.
fn front_end_name(rng: &mut Rng) -> String {
    const HEAD: &[u8] = b"abnpqruz_ABZ";
    const TAIL: &[u8] = b"abnr_019$";
    let ident = |rng: &mut Rng, len: usize| -> String {
        (0..len)
            .map(|i| {
                let set = if i == 0 { HEAD } else { TAIL };
                char::from(*rng.choose(set))
            })
            .collect()
    };
    match rng.range(0, 3) {
        0 => {
            let len = rng.range(1, 41);
            ident(rng, len)
        }
        1 => {
            let index = format!("[{}]", rng.range(0, 4096));
            let len = rng.range(1, 41 - index.len());
            ident(rng, len) + &index
        }
        _ => {
            let suffix = match rng.range(0, 4) {
                0 => format!("_e{}", rng.range(1, 20)),
                1 => format!("[{}]", rng.range(0, 64)),
                _ => String::new(),
            };
            let len = rng.range(0, 40 - suffix.len());
            let body: String = ident(rng, len).replace('$', "_");
            format!("_{body}{suffix}")
        }
    }
}

/// Interning 120 000 front-end-shaped names (a quarter of them repeats of
/// earlier ones) gives one symbol per distinct name, numbered in order of
/// first occurrence; `lookup` agrees on every one, and names never
/// interned miss.
#[test]
fn one_symbol_per_distinct_name_over_120k_front_end_names() {
    prop(
        3,
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::new(seed);
            let mut table = SymbolTable::default();
            let mut model: HashMap<String, usize> = HashMap::new();
            let mut order: Vec<String> = Vec::new();
            for _ in 0..120_000 {
                let name = if !order.is_empty() && rng.range(0, 4) == 0 {
                    order[rng.range(0, order.len())].clone()
                } else {
                    front_end_name(&mut rng)
                };
                if !(1..=40).contains(&name.len()) {
                    return Err(format!("drew {name:?} outside 1..=40 bytes"));
                }
                let next = order.len();
                let expect = *model.entry(name.clone()).or_insert(next);
                if expect == next {
                    order.push(name.clone());
                }
                let sym = table.intern(&name);
                if sym.index() != expect {
                    return Err(format!("intern({name:?}) = {} != {expect}", sym.index()));
                }
            }
            if table.len() != order.len() || order.len() < 60_000 {
                return Err(format!("{} symbols for {} names", table.len(), order.len()));
            }
            for (i, name) in order.iter().enumerate() {
                let sym = Symbol::from_index(i);
                if table.lookup(name) != Some(sym) || table.resolve(sym) != name {
                    return Err(format!("lookup or resolve of {name:?} disagrees"));
                }
                // The same name one byte longer, or with its last byte
                // out of every alphabet above, was never interned.
                for absent in [format!("{name}#"), format!("{}#", &name[..name.len() - 1])] {
                    if !model.contains_key(&absent) && table.lookup(&absent).is_some() {
                        return Err(format!("absent {absent:?} found"));
                    }
                }
            }
            Ok(())
        },
    );
}
