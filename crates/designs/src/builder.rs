//! Word-level netlist construction DSL, lowered to `vlib90` gates.
//!
//! This plays the role of the logic-synthesis/technology-mapping step of
//! the paper's flow (§4.2): designs are described in word-level operations
//! and emitted directly as mapped gate-level netlists with `bus[i]` net
//! naming, so the desynchronizer's bus heuristics see realistic input.

use drd_netlist::{Conn, Module, NetId, NetlistError, PortDir, Symbol};

/// A bus of nets, least-significant bit first.
#[derive(Debug, Clone)]
pub struct Word(pub Vec<NetId>);

impl Word {
    /// Bus width.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The bit nets, LSB first.
    pub fn bits(&self) -> &[NetId] {
        &self.0
    }

    /// A single-bit word from one net.
    pub fn bit(net: NetId) -> Word {
        Word(vec![net])
    }
}

/// Gate-level builder over a [`Module`].
#[derive(Debug)]
pub struct Builder<'m> {
    module: &'m mut Module,
    counter: usize,
}

impl<'m> Builder<'m> {
    /// Wraps a module for building.
    pub fn new(module: &'m mut Module) -> Self {
        let counter = module.cell_count() + module.net_count();
        Builder { module, counter }
    }

    /// The underlying module.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    fn fresh(&mut self, tag: &str) -> String {
        self.counter += 1;
        format!("{tag}_{}", self.counter)
    }

    fn unique_cell(&mut self, tag: &str) -> Symbol {
        let candidate = self.fresh(tag);
        self.module.unique_cell_name(&candidate)
    }

    /// Declares an input bus `name[width-1:0]`.
    ///
    /// # Errors
    /// Propagates name collisions.
    pub fn input(&mut self, name: &str, width: usize) -> Result<Word, NetlistError> {
        let mut bits = Vec::with_capacity(width);
        for i in 0..width {
            let port_name = if width == 1 {
                name.to_owned()
            } else {
                format!("{name}[{i}]")
            };
            let p = self.module.add_port(port_name, PortDir::Input)?;
            bits.push(self.module.port(p).net);
        }
        Ok(Word(bits))
    }

    /// Declares an output bus and drives it from `word` via buffers.
    ///
    /// # Errors
    /// Propagates name collisions.
    pub fn output(&mut self, name: &str, word: &Word) -> Result<(), NetlistError> {
        for (i, &bit) in word.bits().iter().enumerate() {
            let port_name = if word.width() == 1 {
                name.to_owned()
            } else {
                format!("{name}[{i}]")
            };
            let p = self.module.add_port(port_name, PortDir::Output)?;
            let net = self.module.port(p).net;
            let cell = self.unique_cell(&format!("ob_{name}_{i}"));
            self.module.add_cell(
                cell,
                "BUFX1",
                &[("A", Conn::Net(bit)), ("Z", Conn::Net(net))],
            )?;
        }
        Ok(())
    }

    /// Declares an internal bus `name[width-1:0]`.
    ///
    /// # Errors
    /// Propagates name collisions.
    pub fn wire(&mut self, name: &str, width: usize) -> Result<Word, NetlistError> {
        let mut bits = Vec::with_capacity(width);
        for i in 0..width {
            let net_name = if width == 1 {
                name.to_owned()
            } else {
                format!("{name}[{i}]")
            };
            bits.push(self.module.add_net(net_name)?);
        }
        Ok(Word(bits))
    }

    fn gate2(&mut self, kind: &str, tag: &str, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        let z_name = self.fresh(&format!("n_{tag}"));
        let z = self.module.add_net_auto(&z_name);
        let cell = self.unique_cell(&format!("u_{tag}"));
        self.module.add_cell(
            cell,
            kind,
            &[
                ("A", Conn::Net(a)),
                ("B", Conn::Net(b)),
                ("Z", Conn::Net(z)),
            ],
        )?;
        Ok(z)
    }

    fn gate1(&mut self, kind: &str, tag: &str, a: NetId) -> Result<NetId, NetlistError> {
        let z_name = self.fresh(&format!("n_{tag}"));
        let z = self.module.add_net_auto(&z_name);
        let cell = self.unique_cell(&format!("u_{tag}"));
        self.module
            .add_cell(cell, kind, &[("A", Conn::Net(a)), ("Z", Conn::Net(z))])?;
        Ok(z)
    }

    fn bitwise(&mut self, kind: &str, tag: &str, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        assert_eq!(a.width(), b.width(), "width mismatch in {tag}");
        let mut out = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            out.push(self.gate2(kind, tag, a.0[i], b.0[i])?);
        }
        Ok(Word(out))
    }

    /// Bitwise AND.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn and(&mut self, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        self.bitwise("AND2X1", "and", a, b)
    }

    /// Bitwise OR.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn or(&mut self, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        self.bitwise("OR2X1", "or", a, b)
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn xor(&mut self, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        self.bitwise("XOR2X1", "xor", a, b)
    }

    /// Bitwise NOT.
    ///
    /// # Errors
    /// Propagates netlist errors.
    pub fn not(&mut self, a: &Word) -> Result<Word, NetlistError> {
        let mut out = Vec::with_capacity(a.width());
        for &bit in a.bits() {
            out.push(self.gate1("INVX1", "not", bit)?);
        }
        Ok(Word(out))
    }

    /// 2:1 word multiplexer: `sel ? b : a`.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn mux(&mut self, sel: NetId, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        assert_eq!(a.width(), b.width(), "width mismatch in mux");
        let mut out = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let z_name = self.fresh("n_mux");
            let z = self.module.add_net_auto(&z_name);
            let cell = self.unique_cell("u_mux");
            self.module.add_cell(
                cell,
                "MUX2X1",
                &[
                    ("A", Conn::Net(a.0[i])),
                    ("B", Conn::Net(b.0[i])),
                    ("S", Conn::Net(sel)),
                    ("Z", Conn::Net(z)),
                ],
            )?;
            out.push(z);
        }
        Ok(Word(out))
    }

    /// N:1 word multiplexer over `sel` bits (LSB first); `options.len()`
    /// must be `2^sel.len()`.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics if the option count does not match the select width.
    pub fn mux_tree(&mut self, sel: &Word, options: &[Word]) -> Result<Word, NetlistError> {
        assert_eq!(
            options.len(),
            1usize << sel.width(),
            "mux tree needs 2^sel options"
        );
        let mut level: Vec<Word> = options.to_vec();
        for &s in sel.bits() {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                next.push(self.mux(s, &pair[0], &pair[1])?);
            }
            level = next;
        }
        Ok(level.pop().expect("non-empty mux tree"))
    }

    /// Ripple-carry adder (returns sum and carry-out).
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn adder(&mut self, a: &Word, b: &Word, cin: Conn) -> Result<(Word, NetId), NetlistError> {
        assert_eq!(a.width(), b.width(), "width mismatch in adder");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let s_name = self.fresh("n_s");
            let s = self.module.add_net_auto(&s_name);
            let co_name = self.fresh("n_co");
            let co = self.module.add_net_auto(&co_name);
            let cell = self.unique_cell("u_fa");
            self.module.add_cell(
                cell,
                "ADDF",
                &[
                    ("A", Conn::Net(a.0[i])),
                    ("B", Conn::Net(b.0[i])),
                    ("CI", carry),
                    ("S", Conn::Net(s)),
                    ("CO", Conn::Net(co)),
                ],
            )?;
            sum.push(s);
            carry = Conn::Net(co);
        }
        let cout = match carry {
            Conn::Net(n) => n,
            _ => unreachable!("loop ran at least once for non-empty words"),
        };
        Ok((Word(sum), cout))
    }

    /// Carry-select adder: blocks of `block` bits computed for both carry
    /// values and selected — a shorter critical path, as a synthesis tool
    /// would produce for the DLX's ALU.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch or `block == 0`.
    pub fn carry_select_adder(
        &mut self,
        a: &Word,
        b: &Word,
        block: usize,
    ) -> Result<Word, NetlistError> {
        assert!(block > 0, "block size must be positive");
        assert_eq!(a.width(), b.width(), "width mismatch in adder");
        let mut sum: Vec<NetId> = Vec::with_capacity(a.width());
        let mut carry: Option<NetId> = None; // None = constant 0
        let mut base = 0;
        while base < a.width() {
            let hi = (base + block).min(a.width());
            let aw = Word(a.0[base..hi].to_vec());
            let bw = Word(b.0[base..hi].to_vec());
            if base == 0 {
                let (s, c) = self.adder(&aw, &bw, Conn::Const0)?;
                sum.extend(s.0);
                carry = Some(c);
            } else {
                let (s0, c0) = self.adder(&aw, &bw, Conn::Const0)?;
                let (s1, c1) = self.adder(&aw, &bw, Conn::Const1)?;
                let cin = carry.expect("set after first block");
                let sel = self.mux(cin, &s0, &s1)?;
                sum.extend(sel.0);
                let c_next = self.mux(cin, &Word::bit(c0), &Word::bit(c1))?;
                carry = Some(c_next.0[0]);
            }
            base = hi;
        }
        Ok(Word(sum))
    }

    /// Two's-complement subtractor `a - b` (ripple borrow via `a + !b + 1`).
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn subtractor(&mut self, a: &Word, b: &Word) -> Result<Word, NetlistError> {
        let nb = self.not(b)?;
        let (diff, _) = self.adder(a, &nb, Conn::Const1)?;
        Ok(diff)
    }

    /// Reduction OR of all bits.
    ///
    /// # Errors
    /// Propagates netlist errors.
    pub fn reduce_or(&mut self, a: &Word) -> Result<NetId, NetlistError> {
        let mut acc = a.0[0];
        for &bit in &a.0[1..] {
            acc = self.gate2("OR2X1", "ror", acc, bit)?;
        }
        Ok(acc)
    }

    /// Equality comparator: 1 when `a == b`.
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics on width mismatch.
    pub fn equal(&mut self, a: &Word, b: &Word) -> Result<NetId, NetlistError> {
        let x = self.xor(a, b)?;
        let any = self.reduce_or(&x)?;
        self.gate1("INVX1", "eq", any)
    }

    /// A register bank: one flip-flop per bit, `q` nets named
    /// `name[i]`.
    ///
    /// # Errors
    /// Propagates netlist errors.
    pub fn register(&mut self, name: &str, d: &Word, clk: NetId) -> Result<Word, NetlistError> {
        let q = self.wire(name, d.width())?;
        for i in 0..d.width() {
            let cell = format!("{name}_r{i}");
            self.module.add_cell(
                cell,
                "DFFX1",
                &[
                    ("D", Conn::Net(d.0[i])),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q.0[i])),
                ],
            )?;
        }
        Ok(q)
    }

    /// A register with write-enable implemented by recirculation muxes
    /// (`D = we ? d : Q`), keeping plain flip-flops.
    ///
    /// # Errors
    /// Propagates netlist errors.
    pub fn register_en(
        &mut self,
        name: &str,
        d: &Word,
        we: NetId,
        clk: NetId,
    ) -> Result<Word, NetlistError> {
        let q = self.wire(name, d.width())?;
        let recirc = self.mux(we, &q, d)?;
        for i in 0..d.width() {
            let cell = format!("{name}_r{i}");
            self.module.add_cell(
                cell,
                "DFFX1",
                &[
                    ("D", Conn::Net(recirc.0[i])),
                    ("CK", Conn::Net(clk)),
                    ("Q", Conn::Net(q.0[i])),
                ],
            )?;
        }
        Ok(q)
    }

    /// A combinational ROM: `data[i] = table[addr]` built as a mux tree
    /// over constant words (the embedded instruction memory of the DLX).
    ///
    /// # Errors
    /// Propagates netlist errors.
    /// # Panics
    /// Panics if `table.len()` is not `2^addr.width()`.
    pub fn rom(&mut self, addr: &Word, table: &[u64], width: usize) -> Result<Word, NetlistError> {
        assert_eq!(table.len(), 1usize << addr.width(), "rom size");
        // Constant words become Conn::Const at the mux leaves; express
        // them through per-bit mux trees collapsing constants.
        let mut bits = Vec::with_capacity(width);
        for bit in 0..width {
            let leaves: Vec<bool> = table.iter().map(|&w| (w >> bit) & 1 == 1).collect();
            bits.push(self.const_mux_tree(addr, &leaves)?);
        }
        Ok(Word(bits))
    }

    /// Mux tree over constant leaves, with constant folding.
    fn const_mux_tree(&mut self, addr: &Word, leaves: &[bool]) -> Result<NetId, NetlistError> {
        #[derive(Clone, Copy)]
        enum V {
            Const(bool),
            Net(NetId),
        }
        let mut level: Vec<V> = leaves.iter().map(|&b| V::Const(b)).collect();
        for &s in addr.bits() {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                let v = match (pair[0], pair[1]) {
                    (V::Const(a), V::Const(b)) if a == b => V::Const(a),
                    (V::Const(false), V::Const(true)) => V::Net(self.gate1("BUFX1", "romb", s)?),
                    (V::Const(true), V::Const(false)) => V::Net(self.gate1("INVX1", "romi", s)?),
                    (a, b) => {
                        let conn = |v: V| match v {
                            V::Const(false) => Conn::Const0,
                            V::Const(true) => Conn::Const1,
                            V::Net(n) => Conn::Net(n),
                        };
                        let z_name = self.fresh("n_rom");
                        let z = self.module.add_net_auto(&z_name);
                        let cell = self.unique_cell("u_rom");
                        self.module.add_cell(
                            cell,
                            "MUX2X1",
                            &[
                                ("A", conn(a)),
                                ("B", conn(b)),
                                ("S", Conn::Net(s)),
                                ("Z", Conn::Net(z)),
                            ],
                        )?;
                        V::Net(z)
                    }
                };
                next.push(v);
            }
            level = next;
        }
        match level[0] {
            V::Net(n) => Ok(n),
            V::Const(b) => {
                // Degenerate all-constant column: tie through a buffer.
                let z_name = self.fresh("n_romc");
                let z = self.module.add_net_auto(&z_name);
                let cell = self.unique_cell("u_romc");
                self.module.add_cell(
                    cell,
                    "BUFX1",
                    &[
                        ("A", if b { Conn::Const1 } else { Conn::Const0 }),
                        ("Z", Conn::Net(z)),
                    ],
                )?;
                Ok(z)
            }
        }
    }

    /// Binary decoder: `out[k] = (sel == k) & en`.
    ///
    /// # Errors
    /// Propagates netlist errors.
    pub fn decoder(&mut self, sel: &Word, en: NetId) -> Result<Word, NetlistError> {
        let n = 1usize << sel.width();
        // Complemented selects.
        let nsel = self.not(sel)?;
        let mut outs = Vec::with_capacity(n);
        for k in 0..n {
            let mut acc = en;
            for b in 0..sel.width() {
                let lit = if (k >> b) & 1 == 1 {
                    sel.0[b]
                } else {
                    nsel.0[b]
                };
                acc = self.gate2("AND2X1", "dec", acc, lit)?;
            }
            outs.push(acc);
        }
        Ok(Word(outs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::{vlib90, Lv};
    use drd_netlist::Design;
    use drd_sim::{SimOptions, Simulator};

    fn simulate(module: Module) -> Simulator {
        let mut d = Design::new();
        d.insert(module);
        Simulator::new(&d, &vlib90::high_speed(), SimOptions::default()).unwrap()
    }

    fn poke_word(sim: &mut Simulator, name: &str, width: usize, value: u64) {
        for i in 0..width {
            let net = if width == 1 {
                name.to_owned()
            } else {
                format!("{name}[{i}]")
            };
            sim.poke(&net, Lv::from_bool((value >> i) & 1 == 1))
                .unwrap();
        }
    }

    fn peek_word(sim: &Simulator, name: &str, width: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..width {
            let net = if width == 1 {
                name.to_owned()
            } else {
                format!("{name}[{i}]")
            };
            if sim.peek(&net).unwrap() == Lv::One {
                v |= 1 << i;
            }
        }
        v
    }

    #[test]
    fn adder_adds() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let a = b.input("a", 8).unwrap();
            let c = b.input("b", 8).unwrap();
            let (sum, _) = b.adder(&a, &c, Conn::Const0).unwrap();
            b.output("s", &sum).unwrap();
        }
        let mut sim = simulate(m);
        for (x, y) in [(3u64, 5u64), (200, 100), (255, 1), (0, 0)] {
            poke_word(&mut sim, "a", 8, x);
            poke_word(&mut sim, "b", 8, y);
            sim.run_for(10.0);
            assert_eq!(peek_word(&sim, "s", 8), (x + y) & 0xFF, "{x}+{y}");
        }
    }

    #[test]
    fn carry_select_adder_matches_ripple() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let a = b.input("a", 12).unwrap();
            let c = b.input("b", 12).unwrap();
            let fast = b.carry_select_adder(&a, &c, 4).unwrap();
            b.output("s", &fast).unwrap();
        }
        let mut sim = simulate(m);
        for (x, y) in [(0xABCu64, 0x123u64), (0xFFF, 1), (0x800, 0x800), (17, 4000)] {
            poke_word(&mut sim, "a", 12, x);
            poke_word(&mut sim, "b", 12, y);
            sim.run_for(10.0);
            assert_eq!(peek_word(&sim, "s", 12), (x + y) & 0xFFF, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_subtracts() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let a = b.input("a", 8).unwrap();
            let c = b.input("b", 8).unwrap();
            let d = b.subtractor(&a, &c).unwrap();
            b.output("s", &d).unwrap();
        }
        let mut sim = simulate(m);
        for (x, y) in [(10u64, 3u64), (3, 10), (0, 0), (255, 255)] {
            poke_word(&mut sim, "a", 8, x);
            poke_word(&mut sim, "b", 8, y);
            sim.run_for(10.0);
            assert_eq!(peek_word(&sim, "s", 8), x.wrapping_sub(y) & 0xFF, "{x}-{y}");
        }
    }

    #[test]
    fn rom_returns_programmed_words() {
        let table: Vec<u64> = (0..8).map(|i| (i * 37 + 5) & 0xFF).collect();
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let addr = b.input("addr", 3).unwrap();
            let data = b.rom(&addr, &table, 8).unwrap();
            b.output("data", &data).unwrap();
        }
        let mut sim = simulate(m);
        for (i, &expect) in table.iter().enumerate() {
            poke_word(&mut sim, "addr", 3, i as u64);
            sim.run_for(10.0);
            assert_eq!(peek_word(&sim, "data", 8), expect, "addr {i}");
        }
    }

    #[test]
    fn decoder_one_hot() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let sel = b.input("sel", 2).unwrap();
            let en = b.input("en", 1).unwrap();
            let outs = b.decoder(&sel, en.0[0]).unwrap();
            b.output("o", &outs).unwrap();
        }
        let mut sim = simulate(m);
        poke_word(&mut sim, "en", 1, 1);
        for k in 0..4u64 {
            poke_word(&mut sim, "sel", 2, k);
            sim.run_for(10.0);
            assert_eq!(peek_word(&sim, "o", 4), 1 << k, "sel {k}");
        }
        poke_word(&mut sim, "en", 1, 0);
        sim.run_for(10.0);
        assert_eq!(peek_word(&sim, "o", 4), 0);
    }

    #[test]
    fn register_en_holds_without_we() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let d = b.input("d", 4).unwrap();
            let we = b.input("we", 1).unwrap();
            let clk = b.input("clk", 1).unwrap();
            let q = b.register_en("r", &d, we.0[0], clk.0[0]).unwrap();
            b.output("q", &q).unwrap();
        }
        let mut sim = simulate(m);
        let tick = |sim: &mut Simulator| {
            sim.poke("clk", Lv::One).unwrap();
            sim.run_for(5.0);
            sim.poke("clk", Lv::Zero).unwrap();
            sim.run_for(5.0);
        };
        poke_word(&mut sim, "d", 4, 0b1010);
        poke_word(&mut sim, "we", 1, 1);
        sim.run_for(2.0);
        tick(&mut sim);
        assert_eq!(peek_word(&sim, "q", 4), 0b1010);
        poke_word(&mut sim, "d", 4, 0b0101);
        poke_word(&mut sim, "we", 1, 0);
        sim.run_for(2.0);
        tick(&mut sim);
        assert_eq!(peek_word(&sim, "q", 4), 0b1010, "held without we");
        poke_word(&mut sim, "we", 1, 1);
        sim.run_for(2.0);
        tick(&mut sim);
        assert_eq!(peek_word(&sim, "q", 4), 0b0101);
    }

    #[test]
    fn equality_and_mux_tree() {
        let mut m = Module::new("t");
        {
            let mut b = Builder::new(&mut m);
            let a = b.input("a", 4).unwrap();
            let c = b.input("b", 4).unwrap();
            let eq = b.equal(&a, &c).unwrap();
            b.output("eq", &Word::bit(eq)).unwrap();
            let sel = b.input("sel", 2).unwrap();
            let opts: Vec<Word> = (0..4)
                .map(|k| {
                    let w = b.wire(&format!("k{k}"), 1).unwrap();
                    // drive each from eq through buffers/inverters to vary
                    let cell = format!("k{k}_drv");
                    let kind = if k % 2 == 0 { "BUFX1" } else { "INVX1" };
                    b.module()
                        .add_cell(
                            cell,
                            kind,
                            &[("A", Conn::Net(eq)), ("Z", Conn::Net(w.0[0]))],
                        )
                        .unwrap();
                    w
                })
                .collect();
            let o = b.mux_tree(&sel, &opts).unwrap();
            b.output("mo", &o).unwrap();
        }
        let mut sim = simulate(m);
        poke_word(&mut sim, "a", 4, 9);
        poke_word(&mut sim, "b", 4, 9);
        poke_word(&mut sim, "sel", 2, 0);
        sim.run_for(10.0);
        assert_eq!(peek_word(&sim, "eq", 1), 1);
        assert_eq!(peek_word(&sim, "mo", 1), 1);
        poke_word(&mut sim, "sel", 2, 1);
        sim.run_for(10.0);
        assert_eq!(peek_word(&sim, "mo", 1), 0, "inverted leaf");
        poke_word(&mut sim, "b", 4, 5);
        sim.run_for(10.0);
        assert_eq!(peek_word(&sim, "eq", 1), 0);
    }
}
