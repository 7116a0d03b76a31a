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

use std::fmt::Write as _;

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
    pub const fn from_index(i: usize) -> Self {
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
/// Every name lives in one string arena, back to back in symbol order,
/// addressed by its end offset; interning allocates nothing per name, and
/// a clone is one copy of the arena and of two flat vectors. The lookup
/// side is a hand-rolled open-addressed probe table whose buckets hold a
/// 32-bit hash tag next to the symbol: a probe compares names only when
/// the tags match, so a miss almost never reads the arena, and growing
/// re-places every symbol by its tag without re-hashing a name. This is
/// the hottest loop of the streaming Verilog front end, where every
/// identifier occurrence in the source buffer lands.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every interned name, concatenated in symbol order.
    arena: String,
    /// `ends[i]`: arena offset one past the last byte of symbol `i`; the
    /// name starts where symbol `i - 1` ends.
    ends: Vec<usize>,
    /// Open-addressed (linear probe) index. Length is always a power of
    /// two (or 0 for a never-used table); grown at 3/4 load.
    buckets: Vec<Bucket>,
    /// `(namespace, prefix symbol)` → probe-start hint for `prefix_{N}`
    /// uniquing. Hints are advisory: a stale hint (epoch mismatch after
    /// names were freed) falls back to the caller's base counter.
    unique_hints: FastHashMap<(UniqueSpace, Symbol), UniqueHint>,
    /// Bumped whenever a previously-taken name becomes free again
    /// (cell removal); invalidates all hints recorded before.
    epoch: u64,
}

/// One probe-table slot: the symbol and the tag of its name's hash. The
/// tag also places the symbol (`tag & mask`), so growing needs no hash.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tag: u32,
    sym: u32,
}

/// Free-bucket sentinel symbol; no interned symbol reaches it.
const FREE: u32 = u32::MAX;
const EMPTY: Bucket = Bucket { tag: 0, sym: FREE };

/// Seeds of the tag's folded multiplies (the digits of pi; any odd
/// constants with well-mixed bits do).
const SEED_LO: u64 = 0x243f_6a88_85a3_08d3;
const SEED_HI: u64 = 0x1319_8a2e_0370_7344;

/// The 64-bit little-endian word at byte `at` of `b`.
#[inline]
fn word(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(w)
}

/// The 32-bit little-endian word at byte `at` of `b`.
#[inline]
fn half_word(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[at..at + 4]);
    u64::from(u32::from_le_bytes(w))
}

/// Full 64×64 → 128-bit multiply, folded back to 64 bits by xoring the
/// halves: every input bit reaches the low output bits the tag places by.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The probe tag of `name`. A name of up to 16 bytes is read as two
/// (possibly overlapping) words taken from its two ends, which together
/// with the length determine it, and mixed by one folded multiply: no
/// loop and no padding copy, a few nanoseconds for the short pin, cell
/// and net names that dominate netlists. Longer names fold 16 bytes a
/// step. Tags never leave the table (they place and filter probes only),
/// so changing this function changes no symbol and no output.
#[inline]
fn tag_of(name: &str) -> u32 {
    let b = name.as_bytes();
    let n = b.len();
    let (lo, hi) = match n {
        0 => (0, 0),
        1..=3 => (
            u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16,
            0,
        ),
        4..=7 => (half_word(b, 0), half_word(b, n - 4)),
        8..=16 => (word(b, 0), word(b, n - 8)),
        _ => {
            let mut acc = SEED_LO;
            let mut at = 0;
            while at + 16 < n {
                acc = fold(word(b, at) ^ acc, word(b, at + 8) ^ SEED_HI);
                at += 16;
            }
            (word(b, n - 16) ^ acc, word(b, n - 8))
        }
    };
    let h = fold(lo ^ SEED_LO, hi ^ SEED_HI ^ n as u64);
    (h ^ (h >> 32)) as u32
}

impl SymbolTable {
    /// An empty table sized for `capacity` names.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity * 4 / 3 + 1).next_power_of_two().max(16);
        SymbolTable {
            // Interned names average 9.7 bytes on the paper's four cores
            // and 5.8 on netgen's five stepped pipelines (measured on
            // written-out netlists): with the parser's estimate of the
            // name count, 10 bytes a name regrows the arena on none of
            // those nine designs.
            arena: String::with_capacity(capacity * 10),
            ends: Vec::with_capacity(capacity),
            buckets: vec![EMPTY; buckets],
            unique_hints: FastHashMap::default(),
            epoch: 0,
        }
    }

    /// The name of symbol index `i`.
    ///
    /// # Panics
    /// Panics if `i` is not a symbol index of this table.
    #[inline]
    fn name(&self, i: usize) -> &str {
        let end = self.ends[i];
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..end]
    }

    /// [`SymbolTable::name`] as bytes, which a probe compares without the
    /// char-boundary checks of a `str` slice.
    #[inline]
    fn name_bytes(&self, i: usize) -> &[u8] {
        let end = self.ends[i];
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena.as_bytes()[start..end]
    }

    /// The bucket holding `name`, or the free bucket where it would go.
    #[inline]
    fn probe(&self, name: &str, tag: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.sym == FREE || (b.tag == tag && self.name_bytes(b.sym as usize) == name.as_bytes())
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `name`, returning its (new or existing) symbol.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` names.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if self.buckets.is_empty() {
            self.buckets = vec![EMPTY; 16];
        }
        let tag = tag_of(name);
        let i = self.probe(name, tag);
        if self.buckets[i].sym != FREE {
            return Symbol(self.buckets[i].sym);
        }
        self.arena.push_str(name);
        self.commit(i, tag)
    }

    /// Interns `{prefix}_{n}`, composed at the end of the arena instead
    /// of in a temporary string: a name already interned is found there
    /// and the arena cut back, a new one stays where it was written.
    pub(crate) fn intern_numbered(&mut self, prefix: &str, n: usize) -> Symbol {
        if self.buckets.is_empty() {
            self.buckets = vec![EMPTY; 16];
        }
        let start = self.arena.len();
        let _ = write!(self.arena, "{prefix}_{n}");
        let name = &self.arena[start..];
        let tag = tag_of(name);
        let i = self.probe(name, tag);
        if self.buckets[i].sym != FREE {
            self.arena.truncate(start);
            return Symbol(self.buckets[i].sym);
        }
        self.commit(i, tag)
    }

    /// Makes the name the arena ends with a new symbol, placed in free
    /// bucket `i`.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` names.
    #[inline]
    fn commit(&mut self, i: usize, tag: u32) -> Symbol {
        let sym = u32::try_from(self.ends.len())
            .ok()
            .filter(|&s| s != FREE)
            .expect("a symbol table holds fewer than u32::MAX names");
        self.ends.push(self.arena.len());
        self.buckets[i] = Bucket { tag, sym };
        if self.ends.len() * 4 >= self.buckets.len() * 3 {
            self.grow();
        }
        Symbol(sym)
    }

    /// Doubles the bucket array, re-placing every symbol by its tag (no
    /// name is read or re-hashed).
    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![EMPTY; new_len];
        for &b in self.buckets.iter().filter(|b| b.sym != FREE) {
            let mut i = b.tag as usize & mask;
            while buckets[i].sym != FREE {
                i = (i + 1) & mask;
            }
            buckets[i] = b;
        }
        self.buckets = buckets;
    }

    /// The symbol of `name`, if already interned.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        if self.buckets.is_empty() {
            return None;
        }
        match self.buckets[self.probe(name, tag_of(name))].sym {
            FREE => None,
            sym => Some(Symbol(sym)),
        }
    }

    /// The longest probe of any interned name: how many buckets
    /// [`SymbolTable::lookup`] reads to find it, 1 when it sits in the
    /// bucket its tag places it in. A measure of how well the tag spreads
    /// a table's names.
    pub fn longest_probe(&self) -> usize {
        let mask = self.buckets.len().wrapping_sub(1);
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.sym != FREE)
            .map(|(i, b)| (i.wrapping_sub(b.tag as usize) & mask) + 1)
            .max()
            .unwrap_or(0)
    }

    /// The string of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` came from a different table.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.name(sym.index())
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Invalidates all unique-name hints (a taken name became free).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Probe-start counter for uniquing `prefix` in `space`, never below
    /// `base`. Returns `base` when no (valid) hint exists.
    pub fn unique_start(&self, space: UniqueSpace, prefix: &str, base: usize) -> usize {
        let Some(sym) = self.lookup(prefix) else {
            return base;
        };
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
        self.unique_hints.insert(
            (space, sym),
            UniqueHint {
                epoch,
                start: found,
            },
        );
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
    fn names_are_spans_of_one_arena() {
        let mut t = SymbolTable::default();
        let e = t.intern("");
        let a = t.intern("ab");
        let u = t.intern("名");
        assert_eq!((t.resolve(e), t.resolve(a), t.resolve(u)), ("", "ab", "名"));
        assert_eq!(t.arena, "ab名");
        assert_eq!(t.ends, [0, 2, 5]);
        // Growth re-places symbols by tag: every name still resolves.
        for i in 0..100 {
            t.intern(&format!("n{i}"));
        }
        assert!(t.buckets.len() > 16);
        assert_eq!(t.lookup(""), Some(e));
        assert_eq!(t.lookup("名"), Some(u));
        assert_eq!(t.lookup("n99").map(|s| t.resolve(s)), Some("n99"));
    }
}
