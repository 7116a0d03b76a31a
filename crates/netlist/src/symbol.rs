//! String interning for netlist names.
//!
//! Every name in a [`crate::Module`] — nets, cells, ports, pins, referenced
//! library cells and submodules — is stored once in a [`SymbolTable`] and
//! referenced by a dense [`Symbol`] id. Passes compare and hash `u32`s;
//! the strings themselves are resolved only at the parse/write/report
//! boundaries.
//!
//! The table also hosts the per-prefix next-counter cache behind
//! `unique_net_name`/`unique_cell_name`: minting a run of `prefix_N` names
//! no longer re-probes the whole taken range on every call (which made
//! name minting quadratic when the input netlist already contained a
//! dense `prefix_N` range).

use std::sync::Arc;

use crate::hash::FastHashMap;

/// An interned name: a dense index into a [`SymbolTable`].
///
/// `Symbol`s are only meaningful relative to the table (in practice: the
/// module) that produced them; moving names across modules goes through
/// [`SymbolTable::resolve`] + re-interning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a symbol from [`Symbol::index`].
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        Symbol(i as u32)
    }
}

/// Namespace tag for the unique-name counter cache.
///
/// Net and cell names live in independent uniqueness domains, so the
/// cached next-counter for a prefix must too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UniqueSpace {
    /// Net-name uniquing.
    Net,
    /// Cell-name uniquing.
    Cell,
}

#[derive(Debug, Clone)]
struct UniqueHint {
    /// Epoch at which the hint was recorded (see [`SymbolTable::bump_epoch`]).
    epoch: u64,
    /// Probe from this counter value; everything below was taken when the
    /// hint was recorded.
    start: usize,
}

/// An append-only interner mapping names to dense [`Symbol`] ids.
///
/// Names are stored as `Arc<str>`, so a clone of the table shares the
/// name bytes, but it is still O(names): every arena slot, memoized hash
/// and bucket is copied. Clone once per consumer (e.g. the simulator, per
/// elaboration), never once per cell, region or net. The
/// lookup side is a hand-rolled open-addressed probe table over the name
/// vector with the hash of every name memoized: an intern hit is one fast
/// hash plus (usually) one probe, an intern miss inserts without
/// re-hashing, and growing rehashes nothing — this is the hottest loop of
/// the streaming Verilog front end, where every identifier occurrence in
/// the source buffer lands.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    /// Memoized hash of each name, indexed like `names`.
    hashes: Vec<u64>,
    /// Open-addressed (linear probe) index: bucket → symbol index, with
    /// [`EMPTY`] for free buckets. Length is always a power of two (or 0
    /// for a never-used table); grown at 3/4 load.
    buckets: Vec<u32>,
    /// `(namespace, prefix symbol)` → probe-start hint for `prefix_{N}`
    /// uniquing. Hints are advisory: a stale hint (epoch mismatch after
    /// names were freed) falls back to the caller's base counter.
    unique_hints: FastHashMap<(UniqueSpace, Symbol), UniqueHint>,
    /// Bumped whenever a previously-taken name becomes free again
    /// (cell removal); invalidates all hints recorded before.
    epoch: u64,
}

/// Free-bucket sentinel. Symbol indices are bounded well below it by the
/// grow policy (the table would exceed memory long before 2^32 names).
const EMPTY: u32 = u32::MAX;

#[inline]
fn hash_name(name: &str) -> u64 {
    use std::hash::Hasher as _;
    let mut h = crate::hash::FastHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl SymbolTable {
    /// An empty table sized for `capacity` names.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity * 4 / 3 + 1).next_power_of_two().max(16);
        SymbolTable {
            names: Vec::with_capacity(capacity),
            hashes: Vec::with_capacity(capacity),
            buckets: vec![EMPTY; buckets],
            unique_hints: FastHashMap::default(),
            epoch: 0,
        }
    }

    /// Interns `name`, returning its (new or existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if self.buckets.is_empty() {
            self.buckets = vec![EMPTY; 16];
        }
        let hash = hash_name(name);
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.buckets[i];
            if slot == EMPTY {
                break;
            }
            let s = slot as usize;
            if self.hashes[s] == hash && &*self.names[s] == name {
                return Symbol(slot);
            }
            i = (i + 1) & mask;
        }
        let sym = Symbol::from_index(self.names.len());
        self.names.push(Arc::from(name));
        self.hashes.push(hash);
        self.buckets[i] = sym.0;
        if self.names.len() * 4 >= self.buckets.len() * 3 {
            self.grow();
        }
        sym
    }

    /// Doubles the bucket array, re-placing every symbol by its memoized
    /// hash (no string is re-hashed).
    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![EMPTY; new_len];
        for (s, &hash) in self.hashes.iter().enumerate() {
            let mut i = (hash as usize) & mask;
            while buckets[i] != EMPTY {
                i = (i + 1) & mask;
            }
            buckets[i] = s as u32;
        }
        self.buckets = buckets;
    }

    /// The symbol of `name`, if already interned.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        if self.buckets.is_empty() {
            return None;
        }
        let hash = hash_name(name);
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.buckets[i];
            if slot == EMPTY {
                return None;
            }
            let s = slot as usize;
            if self.hashes[s] == hash && &*self.names[s] == name {
                return Some(Symbol(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// The string of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` came from a different table.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// The string of `sym` as a shared handle (one refcount bump), for
    /// callers that need the name while mutating the table.
    ///
    /// # Panics
    /// Panics if `sym` came from a different table.
    #[inline]
    pub fn resolve_arc(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.names[sym.index()])
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Invalidates all unique-name hints (a taken name became free).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Probe-start counter for uniquing `prefix` in `space`, never below
    /// `base`. Returns `base` when no (valid) hint exists.
    pub fn unique_start(&self, space: UniqueSpace, prefix: &str, base: usize) -> usize {
        let Some(sym) = self.lookup(prefix) else { return base };
        match self.unique_hints.get(&(space, sym)) {
            Some(h) if h.epoch == self.epoch => base.max(h.start),
            _ => base,
        }
    }

    /// Records that uniquing `prefix` in `space` settled on counter value
    /// `found`: every counter below it is taken, so later probes may start
    /// there. The hint stores `found` itself (not `found + 1`) — the caller
    /// may decide not to register the minted name, and a later probe must
    /// then find it again.
    pub fn note_unique(&mut self, space: UniqueSpace, prefix: &str, found: usize) {
        let sym = self.intern(prefix);
        let epoch = self.epoch;
        self.unique_hints
            .insert((space, sym), UniqueHint { epoch, start: found });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::default();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("c"), None);
        assert_eq!(t.resolve(a), "a");
        assert_eq!(t.resolve(b), "b");
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn unique_hints_advance_and_respect_epoch() {
        let mut t = SymbolTable::default();
        assert_eq!(t.unique_start(UniqueSpace::Net, "p", 3), 3);
        t.note_unique(UniqueSpace::Net, "p", 10);
        assert_eq!(t.unique_start(UniqueSpace::Net, "p", 3), 10);
        // A larger base wins over the hint.
        assert_eq!(t.unique_start(UniqueSpace::Net, "p", 12), 12);
        // Namespaces are independent.
        assert_eq!(t.unique_start(UniqueSpace::Cell, "p", 3), 3);
        // Freed names invalidate hints.
        t.bump_epoch();
        assert_eq!(t.unique_start(UniqueSpace::Net, "p", 3), 3);
    }

    #[test]
    fn clones_share_name_allocations() {
        let mut t = SymbolTable::default();
        let s = t.intern("shared");
        let c = t.clone();
        assert_eq!(c.resolve(s), "shared");
        assert!(Arc::ptr_eq(&t.names[0], &c.names[0]));
    }
}
