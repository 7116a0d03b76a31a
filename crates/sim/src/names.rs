//! Symbol-backed slot tables for the simulator's API boundary.
//!
//! Both the simulator (net names) and the capture log (element names)
//! need the same bidirectional lookup: a dense `u32` slot per name for
//! hot-path indexing, plus name resolution at the API boundary. Instead
//! of duplicating every name into an owned `String` table, the slots are
//! keyed on the netlist's interned [`Symbol`]s over a clone of the
//! module's [`SymbolTable`] (one copy of its string arena). Strings only
//! appear at `poke`/`peek`/report boundaries.

use std::collections::HashMap;

use drd_netlist::{Symbol, SymbolTable};

/// An append-only `name ↔ u32` slot table over interned symbols.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymSlots {
    syms: SymbolTable,
    slots: Vec<Symbol>,
    index: HashMap<Symbol, u32>,
}

impl SymSlots {
    /// An empty slot table over `syms` (typically a clone of the
    /// elaborated module's table, so registering existing names is
    /// allocation-free).
    pub fn from_table(syms: SymbolTable) -> Self {
        SymSlots {
            syms,
            slots: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Registers `name` and returns its slot, interning it if needed.
    /// The caller guarantees uniqueness (netlist nets and capture
    /// elements are unique by construction); a duplicate would shadow
    /// the earlier slot.
    pub fn add(&mut self, name: &str) -> u32 {
        let sym = self.syms.intern(name);
        self.add_sym(sym)
    }

    /// Registers an already-interned symbol and returns its slot.
    pub fn add_sym(&mut self, sym: Symbol) -> u32 {
        let slot = self.slots.len() as u32;
        self.slots.push(sym);
        self.index.insert(sym, slot);
        slot
    }

    /// The slot of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u32> {
        let sym = self.syms.lookup(name)?;
        self.index.get(&sym).copied()
    }

    /// All registered names, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|&s| self.syms.resolve(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_resolvable() {
        let mut t = SymSlots::default();
        assert_eq!(t.add("a"), 0);
        assert_eq!(t.add("b"), 1);
        assert_eq!(t.get("a"), Some(0));
        assert_eq!(t.get("b"), Some(1));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn shared_table_registration_reuses_symbols() {
        let mut syms = SymbolTable::default();
        let pre = syms.intern("n0");
        let mut t = SymSlots::from_table(syms);
        let slot = t.add_sym(pre);
        assert_eq!(t.get("n0"), Some(slot));
        // A name absent from the shared table is still registrable.
        t.add("fresh");
        assert_eq!(t.get("fresh"), Some(1));
    }
}
