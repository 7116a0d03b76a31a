//! Core netlist data model: modules, nets, cells, ports and connectivity.
//!
//! The module stores its data in struct-of-arrays form: per-net and
//! per-cell attributes live in parallel vectors, pin lists are slices of
//! one flat `(Symbol, Conn)` table, and every name is interned in the
//! module's [`SymbolTable`]. Passes traverse dense `u32` ids; strings are
//! resolved only at the parse/write/report boundaries. Accessors hand out
//! cheap [`Copy`] views ([`Cell`], [`Net`], [`Port`]) whose `name` fields
//! borrow the interned strings.

use std::fmt;

use crate::symbol::{Symbol, SymbolTable, UniqueSpace};
use crate::{CellId, NetId, NetlistError, PortId};

/// Direction of a module port (or, via a [`PinDirs`] resolver, a cell pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Signal flows into the module/cell.
    Input,
    /// Signal flows out of the module/cell.
    Output,
    /// Bidirectional signal.
    Inout,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
            PortDir::Inout => "inout",
        })
    }
}

/// A view of one top-level connection point of a [`Module`].
///
/// Every port is permanently associated with a like-named internal net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port<'a> {
    /// Port name (identical to the associated net's name).
    pub name: &'a str,
    /// Port direction.
    pub dir: PortDir,
    /// The internal net carrying this port's signal.
    pub net: NetId,
}

/// Bus membership of a net, inferred from `base[index]` naming (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusBit<'a> {
    /// Bus base name (`data` for `data[3]`).
    pub base: &'a str,
    /// Bit index within the bus.
    pub index: i64,
}

/// A view of a single wire of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net<'a> {
    /// Unique (within the module) net name.
    pub name: &'a str,
    /// Bus membership, if the name has the form `base[index]`.
    pub bus: Option<BusBit<'a>>,
}

/// What a cell instantiates. The payload symbol belongs to the owning
/// module's [`SymbolTable`]; use [`Cell::kind_ref`] (or
/// [`Module::kind_ref`]) to see the referenced name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// An instance of a technology-library cell, by interned cell name.
    Lib(Symbol),
    /// An instance of another module of the same design, by interned name.
    Instance(Symbol),
}

impl CellKind {
    /// The referenced cell or module name symbol.
    #[inline]
    pub fn sym(self) -> Symbol {
        match self {
            CellKind::Lib(s) | CellKind::Instance(s) => s,
        }
    }
}

/// A resolved [`CellKind`]: the same two variants with the name as a
/// string slice. This is the form that crosses crate boundaries (library
/// lookup, pin-direction resolution, flattening).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindRef<'a> {
    /// An instance of a technology-library cell.
    Lib(&'a str),
    /// An instance of another module of the same design.
    Instance(&'a str),
}

impl<'a> KindRef<'a> {
    /// The referenced cell or module name.
    #[inline]
    pub fn name(self) -> &'a str {
        match self {
            KindRef::Lib(n) | KindRef::Instance(n) => n,
        }
    }
}

/// What a cell pin is connected to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conn {
    /// Connected to a net.
    Net(NetId),
    /// Tied to constant logic 0 (`1'b0`).
    Const0,
    /// Tied to constant logic 1 (`1'b1`).
    Const1,
    /// Left unconnected (`.PIN()` or missing).
    Open,
}

impl Conn {
    /// Returns the connected net, if any.
    pub fn net(self) -> Option<NetId> {
        match self {
            Conn::Net(n) => Some(n),
            _ => None,
        }
    }
}

/// A view of an instance of a library cell or of a submodule.
///
/// The view is `Copy` and borrows the module: `name` is the interned
/// instance name, `pins` index into the module's flat pin table.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// Unique (within the module) instance name.
    pub name: &'a str,
    /// What this cell instantiates.
    pub kind: CellKind,
    /// Marks hazard-free logic that backend tools may only resize (§4.6.2).
    pub size_only: bool,
    name_sym: Symbol,
    pins: &'a [(Symbol, Conn)],
    syms: &'a SymbolTable,
}

impl<'a> Cell<'a> {
    /// The interned instance-name symbol.
    #[inline]
    pub fn name_sym(&self) -> Symbol {
        self.name_sym
    }

    /// Pin connections in declaration order as `(pin_symbol, connection)`.
    #[inline]
    pub fn pins(&self) -> &'a [(Symbol, Conn)] {
        self.pins
    }

    /// The name of pin number `i` (an index into [`Cell::pins`]).
    #[inline]
    pub fn pin_name(&self, i: usize) -> &'a str {
        self.syms.resolve(self.pins[i].0)
    }

    /// Looks up the connection of pin `pin` by name.
    pub fn pin(&self, pin: &str) -> Option<Conn> {
        let sym = self.syms.lookup(pin)?;
        self.pins.iter().find(|(p, _)| *p == sym).map(|(_, c)| *c)
    }

    /// The instantiated kind with its name resolved.
    #[inline]
    pub fn kind_ref(&self) -> KindRef<'a> {
        match self.kind {
            CellKind::Lib(s) => KindRef::Lib(self.syms.resolve(s)),
            CellKind::Instance(s) => KindRef::Instance(self.syms.resolve(s)),
        }
    }

    /// The name of the instantiated library cell or submodule.
    #[inline]
    pub fn kind_name(&self) -> &'a str {
        self.syms.resolve(self.kind.sym())
    }
}

/// A `(cell, pin-index)` reference, used in connectivity tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinUse {
    /// The referencing cell.
    pub cell: CellId,
    /// Index into that cell's pin list.
    pub pin: u32,
}

/// A driver or load of a net: either a cell pin or a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A cell pin.
    Pin(PinUse),
    /// A module port (input ports drive nets; output ports load them).
    Port(PortId),
}

/// Resolves the direction of a cell pin; implemented by technology libraries.
pub trait PinDirs {
    /// Direction of pin `pin` on cells of kind `kind`, or `None` if unknown.
    fn pin_dir(&self, kind: KindRef<'_>, pin: &str) -> Option<PortDir>;
}

impl<F> PinDirs for F
where
    F: Fn(KindRef<'_>, &str) -> Option<PortDir>,
{
    fn pin_dir(&self, kind: KindRef<'_>, pin: &str) -> Option<PortDir> {
        self(kind, pin)
    }
}

/// Sentinel for "symbol not bound" in the dense symbol → id indices.
const UNBOUND: u32 = u32::MAX;

#[inline]
fn slot_get(index: &[u32], sym: Symbol) -> Option<u32> {
    match index.get(sym.index()) {
        Some(&v) if v != UNBOUND => Some(v),
        _ => None,
    }
}

#[inline]
fn slot_set(index: &mut Vec<u32>, sym: Symbol, value: u32) {
    if index.len() <= sym.index() {
        index.resize(sym.index() + 1, UNBOUND);
    }
    index[sym.index()] = value;
}

/// The name of a cell being added ([`Module::add_cell`] and its
/// siblings): text, interned on the way in, or a [`Symbol`] of the
/// module's own table, such as [`Module::unique_cell_name`] mints, taken
/// as is.
pub trait CellName {
    /// The name's symbol in `syms`.
    fn symbol_in(self, syms: &mut SymbolTable) -> Symbol;
}

impl<T: AsRef<str>> CellName for T {
    fn symbol_in(self, syms: &mut SymbolTable) -> Symbol {
        syms.intern(self.as_ref())
    }
}

impl CellName for Symbol {
    fn symbol_in(self, _: &mut SymbolTable) -> Symbol {
        self
    }
}

/// A single flattened circuit: nets, cells and ports, in
/// struct-of-arrays layout around one [`SymbolTable`].
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    syms: SymbolTable,

    // Ports.
    port_name: Vec<Symbol>,
    port_dir: Vec<PortDir>,
    port_net: Vec<NetId>,

    // Nets.
    net_name: Vec<Symbol>,
    net_bus: Vec<Option<(Symbol, i64)>>,

    // Cells; pin lists are `pin_start[i] .. pin_start[i] + pin_len[i]`
    // ranges of the flat `pins` table.
    cell_name: Vec<Symbol>,
    cell_kind: Vec<CellKind>,
    cell_size_only: Vec<bool>,
    cell_alive: Vec<bool>,
    pin_start: Vec<u32>,
    pin_len: Vec<u32>,
    pins: Vec<(Symbol, Conn)>,

    // Dense symbol → id indices (UNBOUND sentinel).
    sym_net: Vec<u32>,
    sym_cell: Vec<u32>,
    sym_port: Vec<u32>,

    const_ties: Vec<(NetId, bool)>,
    dead_cells: usize,
}

impl Module {
    /// Creates an empty module named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Pre-sizes the symbol table and the net/cell/pin stores for a module
    /// expected to hold roughly the given counts. Purely an allocation
    /// hint (used by the Verilog parser, which estimates from source
    /// length); under- or over-estimating is always safe.
    pub fn reserve(&mut self, syms: usize, nets: usize, cells: usize, pins: usize) {
        if self.syms.is_empty() && syms > 0 {
            self.syms = SymbolTable::with_capacity(syms);
        }
        self.net_name.reserve(nets);
        self.net_bus.reserve(nets);
        self.cell_name.reserve(cells);
        self.cell_kind.reserve(cells);
        self.cell_size_only.reserve(cells);
        self.cell_alive.reserve(cells);
        self.pin_start.reserve(cells);
        self.pin_len.reserve(cells);
        self.pins.reserve(pins);
        self.sym_net.reserve(syms);
        self.sym_cell.reserve(syms);
    }

    // ---- symbols --------------------------------------------------------

    /// Interns `name` in this module's symbol table.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.syms.intern(name)
    }

    /// The symbol of `name`, if interned.
    pub fn lookup_sym(&self, name: &str) -> Option<Symbol> {
        self.syms.lookup(name)
    }

    /// Resolves a symbol of this module back to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.syms.resolve(sym)
    }

    /// The module's symbol table (for sharing with downstream consumers
    /// such as the simulator; a clone copies one string arena).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// A library-cell kind referencing `name`.
    pub fn lib_kind(&mut self, name: &str) -> CellKind {
        CellKind::Lib(self.syms.intern(name))
    }

    /// A submodule-instance kind referencing `name`.
    pub fn instance_kind(&mut self, name: &str) -> CellKind {
        CellKind::Instance(self.syms.intern(name))
    }

    /// Resolves `kind` (of this module) to its string form.
    pub fn kind_ref(&self, kind: CellKind) -> KindRef<'_> {
        match kind {
            CellKind::Lib(s) => KindRef::Lib(self.syms.resolve(s)),
            CellKind::Instance(s) => KindRef::Instance(self.syms.resolve(s)),
        }
    }

    // ---- nets -----------------------------------------------------------

    /// Adds a net named `name`.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if a net of that name exists.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> Result<NetId, NetlistError> {
        let name = name.as_ref();
        let sym = self.syms.intern(name);
        if slot_get(&self.sym_net, sym).is_some() {
            return Err(NetlistError::DuplicateName {
                kind: "net",
                name: name.to_owned(),
            });
        }
        let id = NetId::from_index(self.net_name.len());
        let bus =
            crate::bus::parse_bus_bit(name).map(|(base, index)| (self.syms.intern(base), index));
        slot_set(&mut self.sym_net, sym, id.index() as u32);
        self.net_name.push(sym);
        self.net_bus.push(bus);
        Ok(id)
    }

    /// The net named `name`, creating it if it does not exist yet.
    ///
    /// One symbol-table probe on the hit path — this is the parser's
    /// implicit-net fast path (`find_net` + `add_net` would intern and
    /// hash the name twice).
    pub fn get_or_add_net(&mut self, name: &str) -> NetId {
        let sym = self.syms.intern(name);
        self.get_or_add_net_sym(sym, name)
    }

    /// [`Module::get_or_add_net`] for a name the caller has already
    /// interned — zero symbol-table probes on the hit path. `name` must be
    /// the string of `sym`.
    pub fn get_or_add_net_sym(&mut self, sym: Symbol, name: &str) -> NetId {
        debug_assert_eq!(self.syms.resolve(sym), name);
        if let Some(i) = slot_get(&self.sym_net, sym) {
            return NetId::from_index(i as usize);
        }
        let id = NetId::from_index(self.net_name.len());
        let bus =
            crate::bus::parse_bus_bit(name).map(|(base, index)| (self.syms.intern(base), index));
        slot_set(&mut self.sym_net, sym, id.index() as u32);
        self.net_name.push(sym);
        self.net_bus.push(bus);
        id
    }

    /// [`Module::get_or_add_net`] for a net the caller already knows is
    /// bit `index` of bus `base` — the create path records the bus
    /// membership directly instead of re-parsing (and re-interning the
    /// base of) the composed name. `name` must be the `base[index]`
    /// composition of the other two arguments.
    pub fn get_or_add_bus_net(&mut self, name: &str, base: Symbol, index: i64) -> NetId {
        debug_assert_eq!(
            crate::bus::parse_bus_bit(name).filter(|&(_, i)| i >= 0),
            if index >= 0 {
                Some((self.syms.resolve(base), index))
            } else {
                None
            }
        );
        let sym = self.syms.intern(name);
        if let Some(i) = slot_get(&self.sym_net, sym) {
            return NetId::from_index(i as usize);
        }
        let id = NetId::from_index(self.net_name.len());
        // `parse_bus_bit` treats a negative index as "not a bus bit";
        // mirror that so both creation paths agree.
        let bus = (index >= 0).then_some((base, index));
        slot_set(&mut self.sym_net, sym, id.index() as u32);
        self.net_name.push(sym);
        self.net_bus.push(bus);
        id
    }

    /// [`Module::get_or_add_net_sym`] when only the symbol is at hand; the
    /// name is resolved from the table on the (rare) create path.
    pub fn get_or_add_net_interned(&mut self, sym: Symbol) -> NetId {
        if let Some(i) = slot_get(&self.sym_net, sym) {
            return NetId::from_index(i as usize);
        }
        // Copy the bus base out before interning it: the name borrows the
        // table's arena.
        let bus = crate::bus::parse_bus_bit(self.syms.resolve(sym))
            .map(|(base, index)| (base.to_owned(), index));
        let bus = bus.map(|(base, index)| (self.syms.intern(&base), index));
        let id = NetId::from_index(self.net_name.len());
        slot_set(&mut self.sym_net, sym, id.index() as u32);
        self.net_name.push(sym);
        self.net_bus.push(bus);
        id
    }

    /// Adds a net with a unique name starting with `prefix`: `prefix`
    /// itself when free, interned once and bound, with no allocation.
    pub fn add_net_auto(&mut self, prefix: &str) -> NetId {
        let sym = self.unique_symbol(UniqueSpace::Net, prefix);
        self.get_or_add_net_interned(sym)
    }

    /// Returns a net name starting with `prefix` that is not yet in use.
    ///
    /// Successive calls with the same prefix are amortized O(1): the probe
    /// start is cached per prefix in the symbol table (net names are never
    /// freed, so a counter that was taken stays taken).
    pub fn unique_net_name(&mut self, prefix: &str) -> String {
        let sym = self.unique_symbol(UniqueSpace::Net, prefix);
        self.syms.resolve(sym).to_owned()
    }

    /// The symbol of a name starting with `prefix` that no net (`space`
    /// [`UniqueSpace::Net`]) or live cell ([`UniqueSpace::Cell`]) uses:
    /// `prefix` itself when free, else the first free `prefix_N` from the
    /// per-prefix hint. Each candidate is interned once, the probe that
    /// also tells whether it is taken (a taken name is interned already),
    /// and none is composed in a string of its own.
    fn unique_symbol(&mut self, space: UniqueSpace, prefix: &str) -> Symbol {
        let taken = |m: &Module, sym: Symbol| match space {
            UniqueSpace::Net => slot_get(&m.sym_net, sym).is_some(),
            UniqueSpace::Cell => slot_get(&m.sym_cell, sym).is_some(),
        };
        let sym = self.syms.intern(prefix);
        if !taken(self, sym) {
            return sym;
        }
        let base = match space {
            UniqueSpace::Net => self.net_name.len(),
            UniqueSpace::Cell => self.cell_name.len(),
        };
        let mut i = self.syms.unique_start(space, prefix, base);
        loop {
            let sym = self.syms.intern_numbered(prefix, i);
            if !taken(self, sym) {
                self.syms.note_unique(space, prefix, i);
                return sym;
            }
            i += 1;
        }
    }

    /// Returns the net with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds for this module.
    pub fn net(&self, id: NetId) -> Net<'_> {
        let i = id.index();
        Net {
            name: self.syms.resolve(self.net_name[i]),
            bus: self.net_bus[i].map(|(base, index)| BusBit {
                base: self.syms.resolve(base),
                index,
            }),
        }
    }

    /// The interned name symbol of net `id`.
    pub fn net_sym(&self, id: NetId) -> Symbol {
        self.net_name[id.index()]
    }

    /// Bus membership of net `id` as `(base symbol, index)`, if its name
    /// has the form `base[index]` (the symbol form of [`Net::bus`]).
    pub fn net_bus_sym(&self, id: NetId) -> Option<(Symbol, i64)> {
        self.net_bus[id.index()]
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        let sym = self.syms.lookup(name)?;
        self.find_net_sym(sym)
    }

    /// Looks a net up by interned name.
    pub fn find_net_sym(&self, sym: Symbol) -> Option<NetId> {
        slot_get(&self.sym_net, sym).map(|i| NetId::from_index(i as usize))
    }

    /// Iterates over all nets as `(id, net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        (0..self.net_name.len()).map(|i| (NetId::from_index(i), self.net(NetId::from_index(i))))
    }

    /// Number of nets (including nets only referenced by dead cells).
    pub fn net_count(&self) -> usize {
        self.net_name.len()
    }

    // ---- ports ----------------------------------------------------------

    /// Adds a port and its like-named net.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the port or net name exists.
    pub fn add_port(
        &mut self,
        name: impl AsRef<str>,
        dir: PortDir,
    ) -> Result<PortId, NetlistError> {
        let name = name.as_ref();
        let sym = self.syms.intern(name);
        if slot_get(&self.sym_port, sym).is_some() {
            return Err(NetlistError::DuplicateName {
                kind: "port",
                name: name.to_owned(),
            });
        }
        let net = match self.find_net_sym(sym) {
            Some(n) => n,
            None => self.add_net(name)?,
        };
        let id = PortId::from_index(self.port_name.len());
        slot_set(&mut self.sym_port, sym, id.index() as u32);
        self.port_name.push(sym);
        self.port_dir.push(dir);
        self.port_net.push(net);
        Ok(id)
    }

    /// Returns the port with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds for this module.
    pub fn port(&self, id: PortId) -> Port<'_> {
        let i = id.index();
        Port {
            name: self.syms.resolve(self.port_name[i]),
            dir: self.port_dir[i],
            net: self.port_net[i],
        }
    }

    /// The interned name symbol of port `id`.
    pub fn port_sym(&self, id: PortId) -> Symbol {
        self.port_name[id.index()]
    }

    /// Looks a port up by name.
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        let sym = self.syms.lookup(name)?;
        self.find_port_sym(sym)
    }

    /// Looks a port up by interned name.
    pub fn find_port_sym(&self, sym: Symbol) -> Option<PortId> {
        slot_get(&self.sym_port, sym).map(|i| PortId::from_index(i as usize))
    }

    /// Iterates over all ports as `(id, port)`.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, Port<'_>)> {
        (0..self.port_name.len()).map(|i| (PortId::from_index(i), self.port(PortId::from_index(i))))
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.port_name.len()
    }

    /// Re-points every port whose net is `from` at net `to` (used when
    /// `assign` aliases merge a port net into another net).
    pub fn merge_port_net(&mut self, from: NetId, to: NetId) {
        for net in self.port_net.iter_mut() {
            if *net == from {
                *net = to;
            }
        }
    }

    // ---- cells ----------------------------------------------------------

    /// Adds a library-cell instance named `name` of cell `lib_cell`.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the instance name exists.
    pub fn add_cell(
        &mut self,
        name: impl CellName,
        lib_cell: impl AsRef<str>,
        pins: &[(&str, Conn)],
    ) -> Result<CellId, NetlistError> {
        let kind = self.lib_kind(lib_cell.as_ref());
        self.add_cell_of_kind(name, kind, pins)
    }

    /// Adds an instance of another module of the design.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the instance name exists.
    pub fn add_instance(
        &mut self,
        name: impl CellName,
        module: impl AsRef<str>,
        pins: &[(&str, Conn)],
    ) -> Result<CellId, NetlistError> {
        let kind = self.instance_kind(module.as_ref());
        self.add_cell_of_kind(name, kind, pins)
    }

    /// Adds a cell of an explicit [`CellKind`] (whose symbol must come
    /// from this module, e.g. via [`Module::lib_kind`]).
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the instance name exists.
    pub fn add_cell_of_kind(
        &mut self,
        name: impl CellName,
        kind: CellKind,
        pins: &[(&str, Conn)],
    ) -> Result<CellId, NetlistError> {
        let sym = self.bind_cell_name(name)?;
        let id = CellId::from_index(self.cell_name.len());
        let start = self.pins.len() as u32;
        for (p, c) in pins {
            let psym = self.syms.intern(p);
            self.pins.push((psym, *c));
        }
        self.cell_name.push(sym);
        self.cell_kind.push(kind);
        self.cell_size_only.push(false);
        self.cell_alive.push(true);
        self.pin_start.push(start);
        self.pin_len.push(pins.len() as u32);
        Ok(id)
    }

    /// Interns `name` and binds it to the cell about to be pushed.
    fn bind_cell_name(&mut self, name: impl CellName) -> Result<Symbol, NetlistError> {
        let sym = name.symbol_in(&mut self.syms);
        if slot_get(&self.sym_cell, sym).is_some() {
            return Err(NetlistError::DuplicateName {
                kind: "cell",
                name: self.syms.resolve(sym).to_owned(),
            });
        }
        slot_set(&mut self.sym_cell, sym, self.cell_name.len() as u32);
        Ok(sym)
    }

    /// Adds a cell whose pin names are already interned in this module's
    /// symbol table (the streaming parser's path: pin symbols are produced
    /// at lex time, so the pin slice is copied straight into the flat pin
    /// arena with no per-pin re-hash).
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the instance name exists.
    pub fn add_cell_interned(
        &mut self,
        name: impl CellName,
        kind: CellKind,
        pins: &[(Symbol, Conn)],
    ) -> Result<CellId, NetlistError> {
        let sym = self.bind_cell_name(name)?;
        let id = CellId::from_index(self.cell_name.len());
        let start = self.pins.len() as u32;
        self.pins.extend_from_slice(pins);
        self.cell_name.push(sym);
        self.cell_kind.push(kind);
        self.cell_size_only.push(false);
        self.cell_alive.push(true);
        self.pin_start.push(start);
        self.pin_len.push(pins.len() as u32);
        Ok(id)
    }

    /// Total number of pin-arena entries (including pins of dead cells).
    /// Used by the writer to preallocate its output buffer.
    pub fn pin_table_len(&self) -> usize {
        self.pins.len()
    }

    /// A cell name starting with `prefix` that no live cell uses, interned
    /// once: hand the symbol to [`Module::add_cell`] or its siblings,
    /// which take it as is.
    ///
    /// Amortized O(1) via the same per-prefix counter cache as
    /// [`Module::unique_net_name`]; cell removal frees names, so the cache
    /// is epoch-invalidated by [`Module::remove_cell`].
    pub fn unique_cell_name(&mut self, prefix: &str) -> Symbol {
        self.unique_symbol(UniqueSpace::Cell, prefix)
    }

    /// Raw cell-name binding (even for names of dead cells, which stay
    /// unbound). Used for uniqueness checks.
    fn find_cell_slot(&self, name: &str) -> Option<u32> {
        let sym = self.syms.lookup(name)?;
        slot_get(&self.sym_cell, sym)
    }

    /// Returns the cell with id `id` (dead or alive).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds for this module.
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let i = id.index();
        let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
        Cell {
            name: self.syms.resolve(self.cell_name[i]),
            kind: self.cell_kind[i],
            size_only: self.cell_size_only[i],
            name_sym: self.cell_name[i],
            pins: &self.pins[s..s + l],
            syms: &self.syms,
        }
    }

    /// The interned name symbol of cell `id`.
    pub fn cell_sym(&self, id: CellId) -> Symbol {
        self.cell_name[id.index()]
    }

    /// The kind of cell `id` (without constructing a full view).
    pub fn cell_kind(&self, id: CellId) -> CellKind {
        self.cell_kind[id.index()]
    }

    /// Replaces the kind of cell `id` (e.g. resolving a presumed library
    /// cell into a submodule instance during parsing).
    pub fn set_cell_kind(&mut self, id: CellId, kind: CellKind) {
        self.cell_kind[id.index()] = kind;
    }

    /// Whether the cell has not been removed.
    pub fn is_cell_alive(&self, id: CellId) -> bool {
        self.cell_alive[id.index()]
    }

    /// Looks a live cell up by instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        let slot = self.find_cell_slot(name)?;
        let id = CellId::from_index(slot as usize);
        self.cell_alive[id.index()].then_some(id)
    }

    /// Iterates over live cells as `(id, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, Cell<'_>)> {
        (0..self.cell_name.len())
            .filter(|&i| self.cell_alive[i])
            .map(|i| (CellId::from_index(i), self.cell(CellId::from_index(i))))
    }

    /// Iterates over the ids of live cells (no view construction).
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cell_name.len())
            .filter(|&i| self.cell_alive[i])
            .map(CellId::from_index)
    }

    /// Number of live cells.
    pub fn cell_count(&self) -> usize {
        self.cell_name.len() - self.dead_cells
    }

    /// Number of cell id slots, removed cells included: one past the
    /// largest [`CellId`], the length of a dense per-cell table.
    pub fn cell_slots(&self) -> usize {
        self.cell_name.len()
    }

    /// Removes (tombstones) a cell. Its name becomes reusable.
    pub fn remove_cell(&mut self, id: CellId) {
        let i = id.index();
        if self.cell_alive[i] {
            self.cell_alive[i] = false;
            self.dead_cells += 1;
            slot_set(&mut self.sym_cell, self.cell_name[i], UNBOUND);
            // A taken `prefix_N` name may now be free again; invalidate the
            // unique-name probe hints.
            self.syms.bump_epoch();
        }
    }

    /// Pin connections of cell `id` as `(pin_symbol, connection)`.
    pub fn cell_pins(&self, id: CellId) -> &[(Symbol, Conn)] {
        let i = id.index();
        let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
        &self.pins[s..s + l]
    }

    /// Reconnects pin `pin` of cell `id` to `conn`, adding the pin if absent.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds for this module.
    pub fn set_pin(&mut self, id: CellId, pin: &str, conn: Conn) {
        let sym = self.syms.intern(pin);
        self.set_pin_sym(id, sym, conn);
    }

    /// [`Module::set_pin`] with a pre-interned pin name.
    pub fn set_pin_sym(&mut self, id: CellId, pin: Symbol, conn: Conn) {
        let i = id.index();
        let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
        if let Some(slot) = self.pins[s..s + l].iter_mut().find(|(p, _)| *p == pin) {
            slot.1 = conn;
            return;
        }
        // Appending: relocate the cell's pin range to the end of the flat
        // table unless it already is the tail.
        if s + l != self.pins.len() {
            let range: Vec<(Symbol, Conn)> = self.pins[s..s + l].to_vec();
            self.pin_start[i] = self.pins.len() as u32;
            self.pins.extend(range);
        }
        self.pins.push((pin, conn));
        self.pin_len[i] += 1;
    }

    /// Marks a cell `size_only` so backend optimization may not restructure it.
    pub fn set_size_only(&mut self, id: CellId, size_only: bool) {
        self.cell_size_only[id.index()] = size_only;
    }

    /// Rewrites every connection to `from` so it points at `to` instead.
    pub fn rewire_net(&mut self, from: NetId, to: Conn) {
        for i in 0..self.cell_name.len() {
            if !self.cell_alive[i] {
                continue;
            }
            let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
            for (_, conn) in self.pins[s..s + l].iter_mut() {
                if *conn == Conn::Net(from) {
                    *conn = to;
                }
            }
        }
    }

    /// Rewrites many nets in a single pass over all cells: every live pin
    /// on net `n` with `map[n.index()] == Some(to)` is reconnected to `to`
    /// (nets past the end of `map` are left alone).
    ///
    /// Equivalent to calling [`Module::rewire_net`] for every entry, but
    /// O(pins) instead of O(nets × pins).
    pub fn rewire_many(&mut self, map: &[Option<Conn>]) {
        for i in 0..self.cell_name.len() {
            if !self.cell_alive[i] {
                continue;
            }
            let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
            for (_, conn) in self.pins[s..s + l].iter_mut() {
                if let Conn::Net(n) = *conn {
                    if let Some(&Some(to)) = map.get(n.index()) {
                        *conn = to;
                    }
                }
            }
        }
    }

    /// Records that `net` is tied to the constant `value` by a continuous
    /// assignment (`assign net = 1'b0/1`).
    pub fn add_const_tie(&mut self, net: NetId, value: bool) {
        if !self.const_ties.iter().any(|(n, _)| *n == net) {
            self.const_ties.push((net, value));
        }
    }

    /// Constant continuous-assignment ties recorded on this module.
    pub fn const_ties(&self) -> &[(NetId, bool)] {
        &self.const_ties
    }

    // ---- connectivity ---------------------------------------------------

    /// Builds the driver/load tables for the current netlist state.
    ///
    /// Pin directions are resolved through `dirs` once per distinct
    /// `(cell kind, pin name)` pair and kept in one small table per kind,
    /// found once per cell through a dense slot indexed by the kind's
    /// symbol. The load lists are laid out as one CSR (offsets + flat
    /// items) structure.
    ///
    /// # Errors
    /// Returns [`NetlistError::MultipleDrivers`] if two endpoints drive one
    /// net, and [`NetlistError::UnknownName`] if a pin direction cannot be
    /// resolved by `dirs`.
    pub fn connectivity(&self, dirs: &impl PinDirs) -> Result<Connectivity, NetlistError> {
        let nets = self.net_name.len();
        let mut drivers: Vec<Option<Endpoint>> = vec![None; nets];
        let mut load_count: Vec<u32> = vec![0; nets];
        // Per-kind `(pin, direction)` tables, and the kind symbol → table
        // slots for library cells and submodule instances.
        let mut kind_dirs: Vec<Vec<(Symbol, PortDir)>> = Vec::new();
        let (mut lib_slot, mut inst_slot): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        // Pass 1 records, per pin-table entry, whether the pin loads its
        // net, so pass 2 re-reads no direction.
        let mut loads_net = vec![false; self.pins.len()];

        // Pass 1 (ports, then live cells, in id order — the order the load
        // lists are filled in): assign drivers, count loads, resolve
        // directions. Errors fire at the same endpoint as a naive
        // single-pass build.
        for (pid, port) in self.ports() {
            match port.dir {
                PortDir::Input => {
                    if drivers[port.net.index()].is_some() {
                        return Err(NetlistError::MultipleDrivers {
                            net: self.net(port.net).name.to_owned(),
                        });
                    }
                    drivers[port.net.index()] = Some(Endpoint::Port(pid));
                }
                PortDir::Output | PortDir::Inout => {
                    load_count[port.net.index()] += 1;
                }
            }
        }
        for i in 0..self.cell_name.len() {
            if !self.cell_alive[i] {
                continue;
            }
            let kind = self.cell_kind[i];
            let slots = match kind {
                CellKind::Lib(_) => &mut lib_slot,
                CellKind::Instance(_) => &mut inst_slot,
            };
            let table = match slot_get(slots, kind.sym()) {
                Some(t) => t as usize,
                None => {
                    slot_set(slots, kind.sym(), kind_dirs.len() as u32);
                    kind_dirs.push(Vec::new());
                    kind_dirs.len() - 1
                }
            };
            let table = &mut kind_dirs[table];
            let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
            for (idx, &(pin, conn)) in self.pins[s..s + l].iter().enumerate() {
                let Conn::Net(net) = conn else { continue };
                let dir = match table.iter().find(|&&(p, _)| p == pin) {
                    Some(&(_, d)) => d,
                    None => {
                        let d = dirs
                            .pin_dir(self.kind_ref(kind), self.syms.resolve(pin))
                            .ok_or_else(|| NetlistError::UnknownName {
                                kind: "pin",
                                name: format!(
                                    "{}/{}",
                                    self.syms.resolve(kind.sym()),
                                    self.syms.resolve(pin)
                                ),
                            })?;
                        table.push((pin, d));
                        d
                    }
                };
                match dir {
                    PortDir::Output => {
                        if drivers[net.index()].is_some() {
                            return Err(NetlistError::MultipleDrivers {
                                net: self.net(net).name.to_owned(),
                            });
                        }
                        drivers[net.index()] = Some(Endpoint::Pin(PinUse {
                            cell: CellId::from_index(i),
                            pin: idx as u32,
                        }));
                    }
                    PortDir::Input | PortDir::Inout => {
                        load_count[net.index()] += 1;
                        loads_net[s + idx] = true;
                    }
                }
            }
        }

        // CSR offsets from the counts.
        let mut load_start: Vec<u32> = Vec::with_capacity(nets + 1);
        let mut total = 0u32;
        for &c in &load_count {
            load_start.push(total);
            total += c;
        }
        load_start.push(total);

        // Pass 2: fill the flat load table in the same endpoint order as
        // pass 1, so per-net load order matches the historical
        // `Vec<Vec<_>>` build exactly.
        let mut cursor: Vec<u32> = load_start[..nets].to_vec();
        let mut load_items: Vec<Endpoint> =
            vec![Endpoint::Port(PortId::from_index(0)); total as usize];
        let mut push_load = |net: NetId, ep: Endpoint, cursor: &mut Vec<u32>| {
            let c = &mut cursor[net.index()];
            load_items[*c as usize] = ep;
            *c += 1;
        };
        for (pid, port) in self.ports() {
            match port.dir {
                PortDir::Input => {}
                PortDir::Output | PortDir::Inout => {
                    push_load(port.net, Endpoint::Port(pid), &mut cursor);
                }
            }
        }
        for i in 0..self.cell_name.len() {
            if !self.cell_alive[i] {
                continue;
            }
            let (s, l) = (self.pin_start[i] as usize, self.pin_len[i] as usize);
            for (idx, &(_, conn)) in self.pins[s..s + l].iter().enumerate() {
                if let (Conn::Net(net), true) = (conn, loads_net[s + idx]) {
                    let ep = Endpoint::Pin(PinUse {
                        cell: CellId::from_index(i),
                        pin: idx as u32,
                    });
                    push_load(net, ep, &mut cursor);
                }
            }
        }

        Ok(Connectivity {
            drivers,
            load_start,
            load_items,
        })
    }
}

/// Driver/load tables for one [`Module`], built by [`Module::connectivity`].
///
/// Load lists are stored in CSR form: `load_start[n]..load_start[n+1]`
/// slices one flat endpoint array. One snapshot, two allocations.
#[derive(Debug, Clone)]
pub struct Connectivity {
    drivers: Vec<Option<Endpoint>>,
    load_start: Vec<u32>,
    load_items: Vec<Endpoint>,
}

impl Connectivity {
    /// The endpoint driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<Endpoint> {
        self.drivers[net.index()]
    }

    /// The endpoints loading (reading) `net`.
    pub fn loads(&self, net: NetId) -> &[Endpoint] {
        let s = self.load_start[net.index()] as usize;
        let e = self.load_start[net.index() + 1] as usize;
        &self.load_items[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirs(kind: KindRef<'_>, pin: &str) -> Option<PortDir> {
        let _ = kind;
        match pin {
            "Z" | "Q" => Some(PortDir::Output),
            _ => Some(PortDir::Input),
        }
    }

    fn inv(module: &mut Module, name: &str, a: NetId, z: NetId) -> CellId {
        module
            .add_cell(name, "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(z))])
            .expect("fresh name")
    }

    #[test]
    fn build_and_query() {
        let mut m = Module::new("top");
        let a = m.add_port("a", PortDir::Input).unwrap();
        let z = m.add_port("z", PortDir::Output).unwrap();
        let mid = m.add_net("mid").unwrap();
        let a_net = m.port(a).net;
        let z_net = m.port(z).net;
        let u1 = inv(&mut m, "u1", a_net, mid);
        let u2 = inv(&mut m, "u2", mid, z_net);
        assert_eq!(m.cell_count(), 2);
        assert_eq!(m.find_cell("u1"), Some(u1));
        assert_eq!(m.cell(u2).pin("A"), Some(Conn::Net(mid)));

        let conn = m.connectivity(&dirs).unwrap();
        assert_eq!(
            conn.driver(mid),
            Some(Endpoint::Pin(PinUse { cell: u1, pin: 1 }))
        );
        assert_eq!(conn.loads(mid).len(), 1);
        assert_eq!(conn.driver(a_net), Some(Endpoint::Port(a)));
        assert_eq!(conn.loads(z_net), &[Endpoint::Port(z)]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = Module::new("top");
        m.add_net("n").unwrap();
        assert!(matches!(
            m.add_net("n"),
            Err(NetlistError::DuplicateName { kind: "net", .. })
        ));
        let n = m.find_net("n").unwrap();
        inv(&mut m, "u", n, n);
        assert!(m.add_cell("u", "BUFX1", &[("A", Conn::Net(n))]).is_err());
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut m = Module::new("top");
        let n = m.add_net("n").unwrap();
        let a = m.add_net("a").unwrap();
        inv(&mut m, "u1", a, n);
        inv(&mut m, "u2", a, n);
        assert!(matches!(
            m.connectivity(&dirs),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn remove_cell_frees_name_and_updates_count() {
        let mut m = Module::new("top");
        let n = m.add_net("n").unwrap();
        let u = inv(&mut m, "u", n, n);
        m.remove_cell(u);
        assert_eq!(m.cell_count(), 0);
        assert_eq!(m.find_cell("u"), None);
        assert!(!m.is_cell_alive(u));
        // Name is reusable after removal.
        inv(&mut m, "u", n, n);
        assert_eq!(m.cell_count(), 1);
    }

    #[test]
    fn rewire_net_redirects_connections() {
        let mut m = Module::new("top");
        let a = m.add_net("a").unwrap();
        let b = m.add_net("b").unwrap();
        let u = inv(&mut m, "u", a, b);
        m.rewire_net(a, Conn::Const1);
        assert_eq!(m.cell(u).pin("A"), Some(Conn::Const1));
        assert_eq!(m.cell(u).pin("Z"), Some(Conn::Net(b)));
    }

    #[test]
    fn unique_names_do_not_collide() {
        let mut m = Module::new("top");
        m.add_net("x").unwrap();
        let name = m.unique_net_name("x");
        assert_ne!(name, "x");
        m.add_net(name).unwrap();
    }

    #[test]
    fn unique_names_match_naive_probing() {
        // The per-prefix cache must return exactly what a fresh linear
        // probe from the container length would.
        let naive = |m: &Module, prefix: &str| -> String {
            if m.find_net(prefix).is_none() {
                return prefix.to_owned();
            }
            let mut i = m.net_count();
            loop {
                let c = format!("{prefix}_{i}");
                if m.find_net(&c).is_none() {
                    return c;
                }
                i += 1;
            }
        };
        let mut m = Module::new("top");
        m.add_net("p").unwrap();
        // Pre-take a dense range so probing has something to skip.
        for i in 0..40 {
            m.add_net(format!("p_{i}")).unwrap();
        }
        for _ in 0..10 {
            let expect = naive(&m, "p");
            let got = m.unique_net_name("p");
            assert_eq!(got, expect);
            m.add_net(got).unwrap();
        }
        // An unregistered probe result must be returned again.
        let a = m.unique_net_name("p");
        let b = m.unique_net_name("p");
        assert_eq!(a, b);
    }

    #[test]
    fn unique_cell_names_survive_removal() {
        let mut m = Module::new("top");
        let n = m.add_net("n").unwrap();
        inv(&mut m, "u", n, n);
        for _ in 0..3 {
            let name = m.unique_cell_name("u");
            let name = m.resolve(name).to_owned();
            inv(&mut m, &name, n, n);
        }
        // Removing a minted cell frees its name; the next unique name may
        // not collide with any live cell.
        let victim = m.find_cell("u_3").unwrap();
        m.remove_cell(victim);
        let name = m.unique_cell_name("u");
        assert!(m.find_cell(m.resolve(name)).is_none());
        m.add_cell(name, "INVX1", &[("A", Conn::Net(n))]).unwrap();
    }

    #[test]
    fn set_pin_appends_with_relocation() {
        let mut m = Module::new("top");
        let a = m.add_net("a").unwrap();
        let b = m.add_net("b").unwrap();
        let u1 = inv(&mut m, "u1", a, b);
        let u2 = inv(&mut m, "u2", b, a);
        // u1's pin range is not the tail; appending must relocate it.
        m.set_pin(u1, "EN", Conn::Const1);
        assert_eq!(m.cell(u1).pin("A"), Some(Conn::Net(a)));
        assert_eq!(m.cell(u1).pin("Z"), Some(Conn::Net(b)));
        assert_eq!(m.cell(u1).pin("EN"), Some(Conn::Const1));
        assert_eq!(m.cell(u1).pins().len(), 3);
        assert_eq!(m.cell(u2).pins().len(), 2);
        assert_eq!(m.cell(u2).pin("A"), Some(Conn::Net(b)));
    }

    #[test]
    fn bus_bits_are_inferred() {
        let mut m = Module::new("top");
        let n = m.add_net("data[5]").unwrap();
        let bus = m.net(n).bus.unwrap();
        assert_eq!(bus.base, "data");
        assert_eq!(bus.index, 5);
        let plain = m.add_net("clk").unwrap();
        assert!(m.net(plain).bus.is_none());
    }
}
