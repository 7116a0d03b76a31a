//! Streaming recursive-descent parser for flat structural Verilog.
//!
//! Supported subset (everything a post-synthesis, technology-mapped netlist
//! contains): module declarations with classic or ANSI port lists,
//! `input`/`output`/`inout`/`wire` declarations with ranges, library-cell and
//! module instances with *named* connections (including bit-selects,
//! constants and concatenations), `assign` aliases, escaped identifiers and
//! sized constants.
//!
//! Following §3.2.1 of the paper, import *cleans* the design: escaped names
//! are substituted by simple ones and `assign` statements are resolved by
//! merging the aliased nets wherever possible.
//!
//! ## Zero-copy model
//!
//! The parser pulls `Copy` tokens straight off the streaming [`Lexer`] —
//! identifiers cross as `&str` slices of the one input buffer and are
//! interned into the per-module [`crate::SymbolTable`] the moment they are
//! consumed. Sanitized escaped names and bus-bit names (`base[i]`) are
//! composed in reusable scratch buffers, so no name allocates on its own;
//! pin lists and expression bit vectors are reused across statements.
//!
//! Each distinct short name is hashed once per module where it can be:
//! the named connection `.PIN(NET)` that written netlists repeat once per
//! pin is scanned in one pass ([`Lexer::named_conn`]); pin names and cell
//! types, a few dozen names met tens of thousands of times, hit a
//! direct-mapped cache of their symbols; and an escaped identifier is
//! sanitized once per source and interned once per module, so a repeated
//! reference costs one probe of the raw-name table. Symbols are numbered
//! in first-occurrence order exactly as a token-by-token parse numbers
//! them, so every output is unchanged.
//!
//! ## One pass over the source
//!
//! A design parses in one serial pass, module after module: the first
//! module is the top, the first error wins, and sanitized escaped names
//! stay unique across the whole design (an escape in a later module that
//! sanitizes to a name an earlier module took gets an `_e1` suffix).

use std::borrow::Cow;
use std::fmt::Write as _;

use super::lexer::{error_at, line_col, Lexer, TokenKind};
use crate::hash::FastHashSet;
use crate::{CellKind, Conn, Design, Module, NetId, NetlistError, PortDir, Symbol, SymbolTable};

/// Internal result type: errors are boxed so the `Result` fits in a
/// register pair. `NetlistError` is a multi-word enum, and returning it by
/// value from every `expect_*`/`advance` call makes the caller reserve and
/// copy stack space on the hot path; errors themselves are rare and can
/// afford the allocation. Unboxed at the public `parse_*` boundary.
type PResult<T> = Result<T, Box<NetlistError>>;

#[cold]
fn box_err(src: &str, offset: usize, message: String) -> Box<NetlistError> {
    Box::new(error_at(src, offset, message))
}

/// Widest bus (and largest bit index / constant width) the parser accepts.
/// Declarations and expressions expand buses bit by bit, so an unchecked
/// `wire [999999999:0]` in hostile input would allocate a net per bit; real
/// post-synthesis netlists stay far below this.
const MAX_BUS_WIDTH: u64 = 65_536;

/// Deepest `{...}` concatenation nesting accepted. The expression parser
/// recurses per nesting level and a stack overflow cannot be caught, so
/// hostile input like `({({({...` must be rejected by depth, not by crash.
const MAX_EXPR_DEPTH: usize = 64;

/// Parses a (possibly multi-module) structural Verilog design.
///
/// The first module in the file becomes the top module.
///
/// # Errors
/// Returns [`NetlistError::Parse`] on syntax errors (with byte offset and
/// line/column of the offending token), [`NetlistError::Unsupported`] for
/// constructs outside the structural subset (behavioural code, ordered
/// connections, expressions) and [`NetlistError::DuplicateName`] if two
/// modules share a name.
pub fn parse_design(source: &str) -> Result<Design, NetlistError> {
    let mut p = Parser::new(source).map_err(|e| *e)?;
    let mut design = Design::new();
    while !p.at_eof() {
        let module = p.parse_module_decl().map_err(|e| *e)?;
        insert_module(&mut design, module)?;
    }
    retarget_instances(&mut design);
    Ok(design)
}

/// Parses a source containing exactly one module.
///
/// # Errors
/// As [`parse_design`]; additionally fails if the file does not contain
/// exactly one module.
pub fn parse_module(source: &str) -> Result<Module, NetlistError> {
    let mut modules = parse_design(source)?.into_modules();
    if modules.len() != 1 {
        return Err(NetlistError::Parse {
            line: 1,
            col: 0,
            offset: 0,
            message: format!("expected exactly one module, found {}", modules.len()),
        });
    }
    Ok(modules.remove(0))
}

fn insert_module(design: &mut Design, module: Module) -> Result<(), NetlistError> {
    if design.find_module(&module.name).is_some() {
        return Err(NetlistError::DuplicateName {
            kind: "module",
            name: module.name,
        });
    }
    design.insert(module);
    Ok(())
}

fn retarget_instances(design: &mut Design) {
    let module_names: Vec<String> = design.modules().map(|(_, m)| m.name.clone()).collect();
    for name in &module_names {
        let Some(id) = design.find_module(name) else {
            continue;
        };
        let module = design.module_mut(id);
        // Resolve every design module name to this module's symbol table
        // once; the per-cell check is then a u32 set probe instead of a
        // string resolve + hash. A module name the table has never seen
        // cannot be referenced by any cell here.
        let targets: FastHashSet<Symbol> = module_names
            .iter()
            .filter_map(|n| module.lookup_sym(n))
            .collect();
        if targets.is_empty() {
            continue;
        }
        let cell_ids: Vec<_> = module.cell_ids().collect();
        for cid in cell_ids {
            // The instance keeps the same name symbol: `Lib(sym)` and
            // `Instance(sym)` reference the same interned string.
            if let CellKind::Lib(sym) = module.cell_kind(cid) {
                if targets.contains(&sym) {
                    module.set_cell_kind(cid, CellKind::Instance(sym));
                }
            }
        }
    }
}

struct Parser<'a> {
    lx: Lexer<'a>,
    src: &'a str,
    /// Every escaped identifier met so far, raw as the lexer slices it,
    /// numbered in order of first occurrence; `escaped[id]` is what raw
    /// name `id` resolves to. Shared across all modules of a parse, so
    /// sanitized names stay design-unique. Written-out netlists
    /// reference every bus-bit net through an escaped identifier, so one
    /// probe here and one generation check is all a repeated reference
    /// costs.
    escaped_raw: SymbolTable,
    escaped: Vec<Escaped>,
    /// Every sanitized name handed out so far, for O(1) collision checks
    /// when sanitizing a new escaped identifier (a linear scan would make
    /// sanitization quadratic in the number of distinct escaped names).
    sanitized: SymbolTable,
    /// Reusable buffer for composing a sanitized name.
    candidate: String,
    /// Ordinal of the module being parsed (`Escaped::module`).
    module_no: u32,
    /// Pin names and cell types of the module being parsed.
    short: ShortNames,
    /// Reusable pin buffer for instance statements.
    pins: Vec<(Symbol, Conn)>,
    /// Reusable expression bit buffers (`assign` needs two live at once).
    lhs_bits: Vec<Bit>,
    rhs_bits: Vec<Bit>,
}

/// One bit of a connection expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bit {
    Net(NetId),
    Const0,
    Const1,
}

impl Bit {
    fn to_conn(self) -> Conn {
        match self {
            Bit::Net(n) => Conn::Net(n),
            Bit::Const0 => Conn::Const0,
            Bit::Const1 => Conn::Const1,
        }
    }
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> PResult<Self> {
        Ok(Parser {
            lx: Lexer::new(src)?,
            src,
            escaped_raw: SymbolTable::default(),
            escaped: Vec::new(),
            sanitized: SymbolTable::default(),
            candidate: String::new(),
            module_no: 0,
            short: ShortNames::new(),
            pins: Vec::new(),
            lhs_bits: Vec::new(),
            rhs_bits: Vec::new(),
        })
    }

    fn at_eof(&self) -> bool {
        matches!(self.lx.peek(), TokenKind::Eof)
    }

    /// A parse error pointing at the current token.
    fn error(&self, message: impl Into<String>) -> Box<NetlistError> {
        Box::new(error_at(self.src, self.lx.offset(), message.into()))
    }

    /// An unsupported-construct error at the current token's line.
    fn unsupported(&self, message: impl Into<String>) -> Box<NetlistError> {
        Box::new(NetlistError::Unsupported {
            line: line_col(self.src, self.lx.offset()).0,
            message: message.into(),
        })
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if matches!(self.lx.peek(), TokenKind::Punct(p) if p == c) {
            self.lx.advance()
        } else {
            Err(self.error(format!(
                "expected `{c}`, found {}",
                self.lx.peek().describe()
            )))
        }
    }

    /// Consumes `c` if it is the current token. The `Result` is for the
    /// lexer scanning the *next* token, not for the match itself.
    fn eat_punct(&mut self, c: char) -> PResult<bool> {
        if matches!(self.lx.peek(), TokenKind::Punct(p) if p == c) {
            self.lx.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Consumes an identifier. Plain identifiers come back borrowed from
    /// the source buffer (zero-copy); escaped ones are sanitized into an
    /// owned simple name.
    fn expect_id(&mut self) -> PResult<Cow<'a, str>> {
        match self.lx.peek() {
            TokenKind::Id {
                name,
                escaped: false,
            } => {
                self.lx.advance()?;
                Ok(Cow::Borrowed(name))
            }
            TokenKind::Id {
                name,
                escaped: true,
            } => {
                self.lx.advance()?;
                let id = self.escaped_id(name);
                let clean = self.escaped[id].clean;
                Ok(Cow::Owned(self.sanitized.resolve(clean).to_owned()))
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
        match self.lx.peek() {
            TokenKind::Id {
                name,
                escaped: false,
            } if name == kw => self.lx.advance(),
            other => Err(self.error(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.lx.peek(), TokenKind::Id { name, escaped: false } if name == kw)
    }

    fn expect_number(&mut self) -> PResult<u64> {
        match self.lx.peek() {
            TokenKind::Number(n) => {
                self.lx.advance()?;
                Ok(n)
            }
            other => Err(self.error(format!("expected number, found {}", other.describe()))),
        }
    }

    /// The id of escaped identifier `raw`, sanitized on its first
    /// occurrence in the source.
    fn escaped_id(&mut self, raw: &str) -> usize {
        let id = self.escaped_raw.intern(raw).index();
        if id == self.escaped.len() {
            let clean = self.sanitize_escaped(raw);
            self.escaped.push(Escaped {
                clean,
                module: u32::MAX,
                sym: clean,
            });
        }
        id
    }

    /// Replaces characters outside `[A-Za-z0-9_$]` and normalizes bus
    /// brackets so `\reg[3] `-style escaped names keep their bus identity;
    /// a name already handed out gets the first free `_e{i}` suffix.
    /// Returns the sanitized name as a symbol of `sanitized`.
    fn sanitize_escaped(&mut self, raw: &str) -> Symbol {
        // Preserve a trailing `[index]` (bus-bit) if present.
        let (body, index) = match crate::bus::parse_bus_bit(raw) {
            Some((base, index)) => (base, Some(index)),
            None => (raw, None),
        };
        let simple = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '$';
        let candidate = &mut self.candidate;
        candidate.clear();
        if body.chars().next().is_none_or(|c| c.is_ascii_digit()) {
            candidate.push('_');
        }
        if body.chars().all(simple) {
            candidate.push_str(body);
        } else {
            candidate.extend(body.chars().map(|c| if simple(c) { c } else { '_' }));
        }
        let stem = candidate.len();
        let mut i = 0;
        loop {
            if let Some(index) = index {
                push_index(candidate, index);
            }
            let taken = self.sanitized.len();
            let sym = self.sanitized.intern(candidate);
            if self.sanitized.len() > taken {
                return sym;
            }
            i += 1;
            candidate.truncate(stem);
            let _ = write!(candidate, "_e{i}");
        }
    }

    /// The module symbol of the sanitized name of escaped identifier
    /// `raw`, interned on its first occurrence in the module.
    fn escaped_sym(&mut self, ctx: &mut ModuleCtx, raw: &str) -> Symbol {
        let id = self.escaped_id(raw);
        let e = &mut self.escaped[id];
        if e.module != self.module_no {
            e.sym = ctx.module.intern(self.sanitized.resolve(e.clean));
            e.module = self.module_no;
        }
        e.sym
    }

    fn parse_module_decl(&mut self) -> PResult<Module> {
        self.module_no += 1;
        self.short.clear();
        self.expect_keyword("module")?;
        let name = self.expect_id()?;
        let mut ctx = ModuleCtx {
            module: Module::new(name.into_owned()),
            buses: Vec::new(),
            bus_slots: Vec::new(),
            aliases: Vec::new(),
            scratch: String::new(),
        };
        // Allocation hints scaled from the remaining source (measured on
        // written-out netlists: ~50 bytes per cell, ~45 per net, ~17 per
        // pin). Capped so a module early in a huge multi-module file does
        // not reserve for the whole rest of the file.
        let remaining = self.src.len().saturating_sub(self.lx.offset()).min(2 << 20);
        ctx.module.reserve(
            remaining / 40,
            remaining / 40,
            remaining / 48,
            remaining / 16,
        );
        if self.eat_punct('(')? {
            self.parse_port_list(&mut ctx)?;
            self.expect_punct(')')?;
        }
        self.expect_punct(';')?;
        while !self.peek_keyword("endmodule") {
            if self.at_eof() {
                return Err(self.error("unexpected end of file inside module"));
            }
            self.parse_statement(&mut ctx)?;
        }
        self.expect_keyword("endmodule")?;
        ctx.resolve_aliases();
        Ok(ctx.module)
    }

    fn parse_port_list(&mut self, ctx: &mut ModuleCtx) -> PResult<()> {
        if matches!(self.lx.peek(), TokenKind::Punct(')')) {
            return Ok(());
        }
        loop {
            if self.peek_keyword("input")
                || self.peek_keyword("output")
                || self.peek_keyword("inout")
            {
                // ANSI style: `input [3:0] a`
                let dir = self.parse_dir()?;
                let range = self.parse_optional_range()?;
                let name = self.expect_id()?;
                ctx.declare_port(&name, dir, range)
                    .map_err(|e| self.to_parse_err(e))?;
            } else {
                // Classic header: names repeat in the body with their
                // directions; consuming the identifier (and sanitizing it
                // if escaped) is all that is needed here.
                self.expect_id()?;
            }
            if !self.eat_punct(',')? {
                break;
            }
        }
        Ok(())
    }

    fn parse_dir(&mut self) -> PResult<PortDir> {
        let at = self.lx.offset();
        let kw = self.expect_id()?;
        match &*kw {
            "input" => Ok(PortDir::Input),
            "output" => Ok(PortDir::Output),
            "inout" => Ok(PortDir::Inout),
            other => Err(box_err(
                self.src,
                at,
                format!("expected port direction, found `{other}`"),
            )),
        }
    }

    /// A range/index bound, rejected beyond [`MAX_BUS_WIDTH`] (which also
    /// keeps the later `u64 → i64` cast lossless).
    fn bounded_index(&mut self) -> PResult<i64> {
        let at = self.lx.offset();
        let n = self.expect_number()?;
        if n > MAX_BUS_WIDTH {
            return Err(box_err(
                self.src,
                at,
                format!("bit index {n} exceeds the supported maximum {MAX_BUS_WIDTH}"),
            ));
        }
        Ok(n as i64)
    }

    fn parse_optional_range(&mut self) -> PResult<Option<(i64, i64)>> {
        if !self.eat_punct('[')? {
            return Ok(None);
        }
        let msb = self.bounded_index()?;
        self.expect_punct(':')?;
        let lsb = self.bounded_index()?;
        self.expect_punct(']')?;
        Ok(Some((msb, lsb)))
    }

    fn parse_statement(&mut self, ctx: &mut ModuleCtx) -> PResult<()> {
        // One keyword dispatch instead of a peek per candidate — every
        // instance statement (the common case) would otherwise string-
        // compare against all six keywords before falling through.
        let kw = match self.lx.peek() {
            TokenKind::Id {
                name,
                escaped: false,
            } => name,
            _ => "",
        };
        if matches!(kw, "input" | "output" | "inout") {
            let dir = self.parse_dir()?;
            let range = self.parse_optional_range()?;
            loop {
                let name = self.expect_id()?;
                ctx.declare_port(&name, dir, range)
                    .map_err(|e| self.to_parse_err(e))?;
                if !self.eat_punct(',')? {
                    break;
                }
            }
            self.expect_punct(';')?;
        } else if matches!(kw, "wire" | "tri") {
            self.lx.advance()?;
            let range = self.parse_optional_range()?;
            loop {
                let name = self.expect_id()?;
                ctx.declare_wire(&name, range);
                if !self.eat_punct(',')? {
                    break;
                }
            }
            self.expect_punct(';')?;
        } else if kw == "assign" {
            self.lx.advance()?;
            let at = self.lx.offset();
            let mut lhs = std::mem::take(&mut self.lhs_bits);
            let mut rhs = std::mem::take(&mut self.rhs_bits);
            lhs.clear();
            rhs.clear();
            self.parse_expr(ctx, &mut lhs)?;
            self.expect_punct('=')?;
            self.parse_expr(ctx, &mut rhs)?;
            self.expect_punct(';')?;
            if lhs.len() != rhs.len() {
                return Err(box_err(
                    self.src,
                    at,
                    format!("assign width mismatch: {} vs {} bits", lhs.len(), rhs.len()),
                ));
            }
            for (l, r) in lhs.iter().zip(rhs.iter()) {
                let Bit::Net(lnet) = *l else {
                    return Err(box_err(self.src, at, "assign target must be a net".into()));
                };
                ctx.aliases.push((lnet, *r));
            }
            self.lhs_bits = lhs;
            self.rhs_bits = rhs;
        } else {
            self.parse_instances(ctx)?;
        }
        Ok(())
    }

    fn parse_instances(&mut self, ctx: &mut ModuleCtx) -> PResult<()> {
        let cell_type = self.expect_id()?;
        // Intern the cell type once per statement; every instance in the
        // statement shares the symbol.
        let kind = CellKind::Lib(self.short.intern(&mut ctx.module, &cell_type));
        if self.eat_punct('#')? {
            return Err(self.unsupported("parameterized instances (`#`) are not supported"));
        }
        loop {
            let inst_name = self.expect_id()?;
            self.expect_punct('(')?;
            let mut pins = std::mem::take(&mut self.pins);
            pins.clear();
            self.parse_pin_list(ctx, &mut pins)?;
            self.expect_punct(')')?;
            ctx.module
                .add_cell_interned(&inst_name, kind, &pins)
                .map_err(|e| self.to_parse_err(e))?;
            self.pins = pins;
            if !self.eat_punct(',')? {
                break;
            }
        }
        self.expect_punct(';')?;
        Ok(())
    }

    fn parse_pin_list(
        &mut self,
        ctx: &mut ModuleCtx,
        pins: &mut Vec<(Symbol, Conn)>,
    ) -> PResult<()> {
        if matches!(self.lx.peek(), TokenKind::Punct(')')) {
            return Ok(());
        }
        if !matches!(self.lx.peek(), TokenKind::Punct('.')) {
            return Err(self.unsupported(
                "ordered (positional) connections are not supported; use named connections",
            ));
        }
        let mut bits = std::mem::take(&mut self.rhs_bits);
        loop {
            bits.clear();
            if let Some((pin, net, escaped)) = self.lx.named_conn() {
                // `.PIN(NET)`, scanned in one pass: the lexer now stands
                // on the closing `)`.
                let pin_sym = self.short.intern(&mut ctx.module, pin);
                if escaped {
                    let sym = self.escaped_sym(ctx, net);
                    ctx.sym_bits(sym, &mut bits);
                } else {
                    ctx.name_bits(net, &mut bits);
                }
                ctx.push_pin(pins, pin, pin_sym, &bits);
            } else {
                self.expect_punct('.')?;
                let pin = self.expect_id()?;
                let pin_sym = self.short.intern(&mut ctx.module, &pin);
                self.expect_punct('(')?;
                if matches!(self.lx.peek(), TokenKind::Punct(')')) {
                    pins.push((pin_sym, Conn::Open));
                } else {
                    self.parse_expr(ctx, &mut bits)?;
                    ctx.push_pin(pins, &pin, pin_sym, &bits);
                }
            }
            self.expect_punct(')')?;
            if !self.eat_punct(',')? {
                break;
            }
        }
        self.rhs_bits = bits;
        Ok(())
    }

    /// expr := sized_const | id | id `[` number `]` | `{` expr, ... `}`
    ///
    /// Appends the expression's bits (MSB first) to `bits`.
    fn parse_expr(&mut self, ctx: &mut ModuleCtx, bits: &mut Vec<Bit>) -> PResult<()> {
        self.parse_expr_at(ctx, bits, 0)
    }

    fn parse_expr_at(
        &mut self,
        ctx: &mut ModuleCtx,
        bits: &mut Vec<Bit>,
        depth: usize,
    ) -> PResult<()> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "concatenation nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        match self.lx.peek() {
            TokenKind::SizedConst {
                width,
                base,
                digits,
            } => {
                let at = self.lx.offset();
                self.lx.advance()?;
                self.const_bits(at, width, base, digits, bits)
            }
            TokenKind::Punct('{') => {
                self.lx.advance()?;
                loop {
                    self.parse_expr_at(ctx, bits, depth + 1)?;
                    if !self.eat_punct(',')? {
                        break;
                    }
                }
                self.expect_punct('}')
            }
            TokenKind::Id { name: raw, escaped } => {
                // The identifier itself is consumed before any select.
                self.lx.advance()?;
                if escaped {
                    let sym = self.escaped_sym(ctx, raw);
                    if !matches!(self.lx.peek(), TokenKind::Punct('[')) {
                        ctx.sym_bits(sym, bits);
                        return Ok(());
                    }
                    // Bit-select after an escaped identifier: rare enough
                    // that resolving the sanitized name back out of the
                    // table is fine.
                    let name = ctx.module.resolve(sym).to_owned();
                    return self.parse_id_select(ctx, bits, &name);
                }
                if !matches!(self.lx.peek(), TokenKind::Punct('[')) {
                    ctx.name_bits(raw, bits);
                    return Ok(());
                }
                self.parse_id_select(ctx, bits, raw)
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }

    /// The tail of an identifier expression: an optional `[idx]` /
    /// `[msb:lsb]` select (the identifier itself is already consumed).
    fn parse_id_select(
        &mut self,
        ctx: &mut ModuleCtx,
        bits: &mut Vec<Bit>,
        name: &str,
    ) -> PResult<()> {
        if self.eat_punct('[')? {
            let idx = self.bounded_index()?;
            if self.eat_punct(':')? {
                let lsb = self.bounded_index()?;
                self.expect_punct(']')?;
                let (hi, lo) = (idx.max(lsb), idx.min(lsb));
                for i in (lo..=hi).rev() {
                    bits.push(Bit::Net(ctx.bit_net(name, i)));
                }
            } else {
                self.expect_punct(']')?;
                bits.push(Bit::Net(ctx.bit_net(name, idx)));
            }
        } else {
            ctx.name_bits(name, bits);
        }
        Ok(())
    }

    /// Expands a sized constant into bits (MSB first). The digit slice is
    /// raw from the lexer: underscores are skipped here and the value is
    /// accumulated with checked arithmetic, so `'hxz`, overflow and
    /// digits beyond the radix all come back as errors pointing at the
    /// constant (`at`), never as panics.
    fn const_bits(
        &self,
        at: usize,
        width: u32,
        base: char,
        digits: &str,
        bits: &mut Vec<Bit>,
    ) -> PResult<()> {
        if u64::from(width) > MAX_BUS_WIDTH {
            return Err(box_err(
                self.src,
                at,
                format!("constant width {width} exceeds the supported maximum {MAX_BUS_WIDTH}"),
            ));
        }
        let radix: u32 = match base {
            'b' => 2,
            'o' => 8,
            'd' => 10,
            'h' => 16,
            // The lexer validates the base, but stay panic-free if that
            // invariant ever slips.
            _ => {
                return Err(box_err(
                    self.src,
                    at,
                    format!("unknown constant base `{base}`"),
                ))
            }
        };
        let invalid = || {
            Box::new(error_at(
                self.src,
                at,
                format!(
                    "invalid digits `{}` for base `{base}`",
                    digits.replace('_', "")
                ),
            ))
        };
        let mut value: u128 = 0;
        let mut any = false;
        for c in digits.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(radix).ok_or_else(invalid)?;
            value = value
                .checked_mul(u128::from(radix))
                .and_then(|v| v.checked_add(u128::from(d)))
                .ok_or_else(invalid)?;
            any = true;
        }
        if !any {
            return Err(invalid());
        }
        bits.reserve(width as usize);
        for i in (0..width).rev() {
            // Bits above u128 are zero; guard the shift (u128 >> 128+
            // would overflow-panic in debug builds).
            let one = i < 128 && (value >> i) & 1 == 1;
            bits.push(if one { Bit::Const1 } else { Bit::Const0 });
        }
        Ok(())
    }

    fn to_parse_err(&self, e: NetlistError) -> Box<NetlistError> {
        match e {
            NetlistError::Parse { .. } | NetlistError::Unsupported { .. } => Box::new(e),
            other => self.error(other.to_string()),
        }
    }
}

/// What one escaped identifier resolves to.
#[derive(Debug, Clone, Copy)]
struct Escaped {
    /// Its sanitized name, a symbol of `Parser::sanitized`.
    clean: Symbol,
    /// Ordinal of the module `sym` belongs to: symbols are per module, so
    /// `sym` is stale in any other.
    module: u32,
    /// The module symbol of the sanitized name.
    sym: Symbol,
}

/// Slots of the per-module short-name cache.
const SHORT_SLOTS: usize = 256;

/// A direct-mapped cache from short names to their symbols in the module
/// being parsed. Pin names and cell types are a vocabulary of a few
/// dozen names met tens of thousands of times (DLX32 alone connects
/// 33 612 pins over 9 names), so a hit is one packed-key compare in a
/// 4 KiB array instead of a hash and a probe of the whole symbol table.
/// A name of up to 7 bytes packs into its key with its length in the top
/// byte, so keys compare exactly and no real key is 0, the empty slot's.
/// Symbols are per module, so the cache is cleared with every module.
struct ShortNames {
    slots: [(u64, Symbol); SHORT_SLOTS],
}

const NO_SHORT: (u64, Symbol) = (0, Symbol::from_index(0));

impl ShortNames {
    fn new() -> Self {
        ShortNames {
            slots: [NO_SHORT; SHORT_SLOTS],
        }
    }

    fn clear(&mut self) {
        self.slots.fill(NO_SHORT);
    }

    /// The symbol of `name` in `module`, interned there on a miss. Two
    /// names that share a slot evict each other and stay correct.
    #[inline]
    fn intern(&mut self, module: &mut Module, name: &str) -> Symbol {
        let Some(key) = short_key(name) else {
            return module.intern(name);
        };
        let slot = &mut self.slots[short_slot(key)];
        if slot.0 != key {
            *slot = (key, module.intern(name));
        }
        slot.1
    }
}

/// `name`'s bytes packed little-endian with its length in the top byte,
/// for names of 1 to 7 bytes.
#[inline]
fn short_key(name: &str) -> Option<u64> {
    let b = name.as_bytes();
    if b.is_empty() || b.len() > 7 {
        return None;
    }
    let mut key = (b.len() as u64) << 56;
    for (i, &c) in b.iter().enumerate() {
        key |= u64::from(c) << (8 * i);
    }
    Some(key)
}

/// The cache slot of a packed key: the top byte of a Fibonacci hash.
#[inline]
fn short_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
}

/// A declared bus: its source range plus the per-bit net ids, cached so
/// references (`bus`, `bus[i]`) resolve with one symbol probe and an array
/// index instead of re-composing and re-hashing a `base[i]` string.
struct BusDecl {
    msb: i64,
    lsb: i64,
    /// Net of each bit, ordered `lo..=hi`.
    bits: Vec<NetId>,
}

impl BusDecl {
    #[inline]
    fn lo(&self) -> i64 {
        self.msb.min(self.lsb)
    }

    #[inline]
    fn hi(&self) -> i64 {
        self.msb.max(self.lsb)
    }
}

/// Slot-vector sentinel: symbol has no bus declaration.
const NO_BUS: u32 = u32::MAX;

/// Composes `base[index]` into `buf` without going through `fmt` — this
/// runs once per declared bus bit and the formatting machinery is
/// measurable there.
fn push_bus_name(buf: &mut String, base: &str, index: i64) {
    buf.clear();
    buf.push_str(base);
    push_index(buf, index);
}

/// Appends `[index]` to `buf`. Negative indices (not produced by
/// well-formed ranges, but reachable) fall back to `write!`.
fn push_index(buf: &mut String, index: i64) {
    buf.push('[');
    if (0..=9).contains(&index) {
        buf.push(char::from(b'0' + index as u8));
    } else if index > 9 {
        let mut tmp = [0u8; 20];
        let mut n = tmp.len();
        let mut v = index as u64;
        while v > 0 {
            n -= 1;
            tmp[n] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        buf.push_str(std::str::from_utf8(&tmp[n..]).unwrap_or("0"));
    } else {
        let _ = write!(buf, "{index}");
    }
    buf.push(']');
}

struct ModuleCtx {
    module: Module,
    /// Declared buses, in declaration order.
    buses: Vec<BusDecl>,
    /// Interned base-name symbol -> index into `buses`, [`NO_BUS`] when the
    /// symbol is not a declared bus. Indexed by `Symbol::index`, so the
    /// per-reference check is an array load instead of a hash probe.
    bus_slots: Vec<u32>,
    /// `assign lhs = rhs` pairs collected for post-parse resolution.
    aliases: Vec<(NetId, Bit)>,
    /// Reusable buffer for composing `base[i]` bus-bit names.
    scratch: String,
}

impl ModuleCtx {
    fn insert_bus(&mut self, sym: Symbol, decl: BusDecl) {
        let i = sym.index();
        if self.bus_slots.len() <= i {
            self.bus_slots.resize(i + 1, NO_BUS);
        }
        self.bus_slots[i] = self.buses.len() as u32;
        self.buses.push(decl);
    }

    #[inline]
    fn bus_of(&self, sym: Symbol) -> Option<&BusDecl> {
        match self.bus_slots.get(sym.index()).copied() {
            Some(slot) if slot != NO_BUS => Some(&self.buses[slot as usize]),
            _ => None,
        }
    }

    fn declare_wire(&mut self, name: &str, range: Option<(i64, i64)>) {
        match range {
            None => {
                self.module.get_or_add_net(name);
            }
            Some((msb, lsb)) => {
                let sym = self.module.intern(name);
                let (hi, lo) = (msb.max(lsb), msb.min(lsb));
                let mut bits = Vec::with_capacity((hi - lo + 1) as usize);
                for i in lo..=hi {
                    push_bus_name(&mut self.scratch, name, i);
                    bits.push(self.module.get_or_add_bus_net(&self.scratch, sym, i));
                }
                self.insert_bus(sym, BusDecl { msb, lsb, bits });
            }
        }
    }

    fn declare_port(
        &mut self,
        name: &str,
        dir: PortDir,
        range: Option<(i64, i64)>,
    ) -> Result<(), NetlistError> {
        match range {
            None => {
                self.module.add_port(name, dir)?;
            }
            Some((msb, lsb)) => {
                let sym = self.module.intern(name);
                let (hi, lo) = (msb.max(lsb), msb.min(lsb));
                let mut bits = Vec::with_capacity((hi - lo + 1) as usize);
                for i in lo..=hi {
                    push_bus_name(&mut self.scratch, name, i);
                    let pid = self.module.add_port(self.scratch.as_str(), dir)?;
                    bits.push(self.module.port(pid).net);
                }
                self.insert_bus(sym, BusDecl { msb, lsb, bits });
            }
        }
        Ok(())
    }

    /// Appends the connection of pin `pin` (symbol `pin_sym`) to the
    /// expression `bits`: one bit connects the pin itself; a multi-bit
    /// connection to a bit-blasted port expands into `pin[k]` sub-pins,
    /// MSB first.
    fn push_pin(
        &mut self,
        pins: &mut Vec<(Symbol, Conn)>,
        pin: &str,
        pin_sym: Symbol,
        bits: &[Bit],
    ) {
        if let [bit] = bits {
            pins.push((pin_sym, bit.to_conn()));
            return;
        }
        let width = bits.len();
        for (i, bit) in bits.iter().enumerate() {
            let idx = (width - 1 - i) as i64;
            let sub = self.intern_bus_bit(pin, idx);
            pins.push((sub, bit.to_conn()));
        }
    }

    /// Interns `base[index]` via the scratch buffer (no fresh `String`).
    fn intern_bus_bit(&mut self, base: &str, index: i64) -> Symbol {
        push_bus_name(&mut self.scratch, base, index);
        self.module.intern(&self.scratch)
    }

    /// Net for `name[index]`: an array lookup for declared buses, falling
    /// back to composing the `name[index]` net for implicit (undeclared)
    /// buses and out-of-range indices.
    fn bit_net(&mut self, name: &str, index: i64) -> NetId {
        let sym = self.module.intern(name);
        if let Some(decl) = self.bus_of(sym) {
            if index >= decl.lo() && index <= decl.hi() {
                return decl.bits[(index - decl.lo()) as usize];
            }
        }
        push_bus_name(&mut self.scratch, name, index);
        self.module.get_or_add_net(&self.scratch)
    }

    /// Appends the bits for a bare identifier: the whole bus (MSB first)
    /// if declared as one, otherwise the scalar net (implicitly declared
    /// if needed).
    fn name_bits(&mut self, name: &str, bits: &mut Vec<Bit>) {
        let sym = self.module.intern(name);
        if let Some(decl) = self.bus_of(sym) {
            bits.extend(decl.bits.iter().rev().map(|&n| Bit::Net(n)));
            return;
        }
        bits.push(Bit::Net(self.module.get_or_add_net_sym(sym, name)));
    }

    /// [`ModuleCtx::name_bits`] for an already-interned name.
    fn sym_bits(&mut self, sym: Symbol, bits: &mut Vec<Bit>) {
        if let Some(decl) = self.bus_of(sym) {
            bits.extend(decl.bits.iter().rev().map(|&n| Bit::Net(n)));
            return;
        }
        bits.push(Bit::Net(self.module.get_or_add_net_interned(sym)));
    }

    /// Resolves `assign` aliases by merging nets (§3.2.1), leaving constant
    /// ties recorded on the module.
    fn resolve_aliases(&mut self) {
        if self.aliases.is_empty() {
            return;
        }
        let n = self.module.net_count();
        let mut uf = UnionFind::new(n);
        let mut consts: Vec<Option<bool>> = vec![None; n];
        for (lhs, rhs) in &self.aliases {
            match rhs {
                Bit::Net(r) => uf.union(lhs.index(), r.index()),
                Bit::Const0 => consts[uf.find(lhs.index())] = Some(false),
                Bit::Const1 => consts[uf.find(lhs.index())] = Some(true),
            }
        }
        // Push constants up to final roots.
        for i in 0..n {
            if let Some(v) = consts[i] {
                let root = uf.find(i);
                consts[root] = Some(v);
            }
        }
        // Choose a representative per class: prefer an input-port net (the
        // true driver), then any port net, then the lowest member.
        let mut rep: Vec<Option<NetId>> = vec![None; n];
        let port_rank: Vec<Option<PortDir>> = {
            let mut ranks = vec![None; n];
            for (_, port) in self.module.ports() {
                ranks[port.net.index()] = Some(port.dir);
            }
            ranks
        };
        for i in 0..n {
            let root = uf.find(i);
            let candidate = NetId::from_index(i);
            let better = match (rep[root], port_rank[i]) {
                (None, _) => true,
                (Some(cur), Some(PortDir::Input)) => port_rank[cur.index()] != Some(PortDir::Input),
                _ => false,
            };
            if better {
                rep[root] = Some(candidate);
            }
        }
        // Only nets that actually appear in an alias need rewiring.
        let mut involved: Vec<usize> = Vec::new();
        for (lhs, rhs) in &self.aliases {
            involved.push(lhs.index());
            if let Bit::Net(r) = rhs {
                involved.push(r.index());
            }
        }
        involved.sort_unstable();
        involved.dedup();

        let mut remap: Vec<Option<Conn>> = vec![None; n];
        for &i in &involved {
            let root = uf.find(i);
            let target = rep[root].expect("every class has a representative");
            match consts[root] {
                Some(v) => {
                    remap[i] = Some(if v { Conn::Const1 } else { Conn::Const0 });
                    self.module.add_const_tie(NetId::from_index(i), v);
                }
                None if i != target.index() => {
                    remap[i] = Some(Conn::Net(target));
                    self.module.merge_port_net(NetId::from_index(i), target);
                }
                None => {}
            }
        }
        self.module.rewire_many(&remap);
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = i;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;

    #[test]
    fn parses_classic_header() {
        let src = "
            module top (a, z);
              input a; output z; wire m;
              INVX1 u1 (.A(a), .Z(m));
              INVX1 u2 (.A(m), .Z(z));
            endmodule";
        let m = parse_module(src).unwrap();
        assert_eq!(m.name, "top");
        assert_eq!(m.port_count(), 2);
        assert_eq!(m.cell_count(), 2);
        assert_eq!(
            m.cell(m.find_cell("u2").unwrap()).pin("A"),
            Some(Conn::Net(m.find_net("m").unwrap()))
        );
    }

    #[test]
    fn parse_module_rejects_zero_or_several_modules() {
        for (src, found) in [
            ("// no module here\n", 0),
            ("module a (); endmodule\nmodule b (); endmodule\n", 2),
        ] {
            let err = parse_module(src).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("parse error at line 1: expected exactly one module, found {found}")
            );
        }
    }

    #[test]
    fn parses_ansi_header_with_ranges() {
        let src = "
            module top (input [1:0] d, output [1:0] q, input clk);
              DFFX1 r0 (.D(d[0]), .CK(clk), .Q(q[0]));
              DFFX1 r1 (.D(d[1]), .CK(clk), .Q(q[1]));
            endmodule";
        let m = parse_module(src).unwrap();
        assert_eq!(m.port_count(), 5);
        assert!(m.find_net("d[1]").is_some());
        assert!(m.find_net("q[0]").is_some());
    }

    #[test]
    fn constants_and_concatenation() {
        let src = "
            module top (output z);
              wire [1:0] w;
              SUB u (.in1({w[1], 1'b0}), .out1(z));
            endmodule
            module SUB (input [1:0] in1, output out1);
            endmodule";
        let d = parse_design(src).unwrap();
        let top = d.module(d.find_module("top").unwrap());
        let u = top.cell(top.find_cell("u").unwrap());
        assert_eq!(u.pin("in1[0]"), Some(Conn::Const0));
        assert_eq!(
            u.pin("in1[1]"),
            Some(Conn::Net(top.find_net("w[1]").unwrap()))
        );
        // SUB resolved as a module instance.
        assert_eq!(u.kind_ref(), crate::KindRef::Instance("SUB"));
    }

    #[test]
    fn underscored_and_wide_constants() {
        let src = "
            module top (output z);
              SUB u (.in1(8'b1010_0101), .out1(z));
            endmodule";
        let m = parse_module(src).unwrap();
        let u = m.cell(m.find_cell("u").unwrap());
        assert_eq!(u.pin("in1[7]"), Some(Conn::Const1));
        assert_eq!(u.pin("in1[6]"), Some(Conn::Const0));
        assert_eq!(u.pin("in1[0]"), Some(Conn::Const1));
        // Widths beyond 128 bits zero-extend instead of overflowing the
        // u128 accumulator's shift range.
        let wide = "
            module top (output z);
              SUB u (.in1(200'h3), .out1(z));
            endmodule";
        let m = parse_module(wide).unwrap();
        let u = m.cell(m.find_cell("u").unwrap());
        assert_eq!(u.pin("in1[199]"), Some(Conn::Const0));
        assert_eq!(u.pin("in1[1]"), Some(Conn::Const1));
        assert_eq!(u.pin("in1[0]"), Some(Conn::Const1));
    }

    #[test]
    fn assign_aliases_are_merged() {
        let src = "
            module top (input a, output z);
              wire m;
              assign m = a;
              INVX1 u (.A(m), .Z(z));
            endmodule";
        let m = parse_module(src).unwrap();
        let a = m.find_net("a").unwrap();
        let u = m.find_cell("u").unwrap();
        assert_eq!(m.cell(u).pin("A"), Some(Conn::Net(a)));
    }

    #[test]
    fn assign_constant_ties() {
        let src = "
            module top (output z);
              wire m;
              assign m = 1'b1;
              INVX1 u (.A(m), .Z(z));
            endmodule";
        let m = parse_module(src).unwrap();
        let u = m.find_cell("u").unwrap();
        assert_eq!(m.cell(u).pin("A"), Some(Conn::Const1));
    }

    #[test]
    fn assign_port_to_port() {
        let src = "
            module top (input a, output z);
              assign z = a;
            endmodule";
        let m = parse_module(src).unwrap();
        let a = m.find_net("a").unwrap();
        let zp = m.find_port("z").unwrap();
        assert_eq!(m.port(zp).net, a);
    }

    #[test]
    fn escaped_names_are_sanitized() {
        let src = "
            module top (input a, output z);
              wire \\net+with/specials ;
              INVX1 \\u(1) (.A(a), .Z(\\net+with/specials ));
              INVX1 u2 (.A(\\net+with/specials ), .Z(z));
            endmodule";
        let m = parse_module(src).unwrap();
        assert_eq!(m.cell_count(), 2);
        // All names are now simple identifiers.
        for (_, cell) in m.cells() {
            assert!(cell
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$'));
        }
        assert!(m.find_net("net_with_specials").is_some());
    }

    #[test]
    fn escaped_bus_bits_keep_bus_identity() {
        let src = "
            module top (input a);
              wire \\r/x[3] ;
              INVX1 u (.A(a), .Z(\\r/x[3] ));
            endmodule";
        let m = parse_module(src).unwrap();
        let net = m.find_net("r_x[3]").unwrap();
        assert_eq!(m.net(net).bus.unwrap().index, 3);
    }

    #[test]
    fn ordered_connections_rejected() {
        let src = "module top (input a, output z); INVX1 u (a, z); endmodule";
        assert!(matches!(
            parse_module(src),
            Err(NetlistError::Unsupported { .. })
        ));
    }

    #[test]
    fn multiple_instances_in_one_statement() {
        let src = "
            module top (input a, input b, output z, output y);
              INVX1 u1 (.A(a), .Z(z)), u2 (.A(b), .Z(y));
            endmodule";
        let m = parse_module(src).unwrap();
        assert_eq!(m.cell_count(), 2);
    }

    #[test]
    fn part_select_expands_msb_first() {
        let src = "
            module top (input [3:0] d, output z);
              SUB u (.in1(d[2:1]), .out1(z));
            endmodule
            module SUB (input [1:0] in1, output out1); endmodule";
        let d = parse_design(src).unwrap();
        let top = d.module(d.find_module("top").unwrap());
        let u = top.cell(top.find_cell("u").unwrap());
        assert_eq!(
            u.pin("in1[1]"),
            Some(Conn::Net(top.find_net("d[2]").unwrap()))
        );
        assert_eq!(
            u.pin("in1[0]"),
            Some(Conn::Net(top.find_net("d[1]").unwrap()))
        );
    }

    #[test]
    fn oversized_ranges_and_widths_are_rejected() {
        let huge_wire = "module top (input a); wire [999999999:0] w; endmodule";
        assert!(matches!(
            parse_module(huge_wire),
            Err(NetlistError::Parse { .. })
        ));
        let huge_port = "module top (input [4294967295:0] a); endmodule";
        assert!(matches!(
            parse_module(huge_port),
            Err(NetlistError::Parse { .. })
        ));
        let huge_select = "
            module top (input a, output z);
              INVX1 u (.A(d[999999999:0]), .Z(z));
            endmodule";
        assert!(matches!(
            parse_module(huge_select),
            Err(NetlistError::Parse { .. })
        ));
        let huge_const = "
            module top (output z);
              SUB u (.in1(100000000'b0), .out1(z));
            endmodule";
        assert!(matches!(
            parse_module(huge_const),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn deep_concatenation_is_rejected_not_a_stack_overflow() {
        let mut src = String::from("module top (input a, output z); INVX1 u (.A(");
        for _ in 0..20_000 {
            src.push('{');
        }
        src.push('a');
        for _ in 0..20_000 {
            src.push('}');
        }
        src.push_str("), .Z(z)); endmodule");
        assert!(matches!(
            parse_module(&src),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let src = "module top (a);\ninput a\nendmodule";
        match parse_module(src) {
            Err(NetlistError::Parse {
                line, col, offset, ..
            }) => {
                assert_eq!(line, 3);
                // Points at `endmodule`, where `;` was expected.
                assert_eq!(col, 1);
                assert_eq!(offset, 24);
                assert_eq!(&src[offset..offset + 9], "endmodule");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_module_names_are_an_error_not_a_panic() {
        let src = "module m (input a); endmodule\nmodule m (input b); endmodule";
        assert!(matches!(
            parse_design(src),
            Err(NetlistError::DuplicateName { kind: "module", .. })
        ));
    }

    #[test]
    fn escaped_names_are_uniqued_across_modules() {
        // Two modules escape different raw names that sanitize to the same
        // simple name: the second module's is uniqued with `_e1`.
        let src = "module a (input \\x+1 ); endmodule\nmodule b (input \\x-1 ); endmodule";
        let design = parse_design(src).unwrap();
        let a = design.module(design.find_module("a").unwrap());
        assert!(a.find_net("x_1").is_some(), "first module keeps the name");
        let b = design.module(design.find_module("b").unwrap());
        assert!(b.find_net("x_1_e1").is_some(), "cross-module uniquing");
    }

    /// Two modules that meet the same pin names, cell types and (with
    /// `escaped`) bus-bit nets in opposite orders, so each numbers them
    /// differently: a name cache that outlived its module would hand the
    /// second module the first one's symbols.
    fn two_modules(escaped: bool) -> Design {
        let mut design = Design::new();
        for (name, reversed) in [("first", false), ("second", true)] {
            let id = design.add_module(name);
            let m = design.module_mut(id);
            if reversed {
                // One more name ahead of the bus bits, so they take other
                // symbol numbers here than in the first module.
                m.add_net("pad").unwrap();
            }
            for port in ["a", "b"] {
                m.add_port(port, PortDir::Input).unwrap();
            }
            m.add_port("z", PortDir::Output).unwrap();
            let (a, b, z) = (
                m.find_net("a").unwrap(),
                m.find_net("b").unwrap(),
                m.find_net("z").unwrap(),
            );
            let [w0, w1] = if escaped {
                ["w[0]", "w[1]"]
            } else {
                ["w0", "w1"]
            }
            .map(|w| m.add_net(w).unwrap());
            let mut nand = [
                ("A", Conn::Net(a)),
                ("B", Conn::Net(b)),
                ("Z", Conn::Net(w0)),
            ];
            let mut inv = [("A", Conn::Net(w1)), ("Z", Conn::Net(z))];
            let mut buf = [("A", Conn::Net(w0)), ("Z", Conn::Net(w1))];
            if reversed {
                nand.reverse();
                inv.reverse();
                buf.reverse();
                m.add_cell("u2", "INVX1", &inv).unwrap();
                m.add_cell("u1", "BUFX1", &buf).unwrap();
                m.add_cell("u0", "NAND2X1", &nand).unwrap();
            } else {
                m.add_cell("u0", "NAND2X1", &nand).unwrap();
                m.add_cell("u1", "BUFX1", &buf).unwrap();
                m.add_cell("u2", "INVX1", &inv).unwrap();
            }
        }
        design
    }

    #[test]
    fn name_caches_reset_with_every_module() {
        for escaped in [false, true] {
            let text = crate::verilog::write_design(&two_modules(escaped));
            assert_eq!(text.contains('\\'), escaped, "{text}");
            let back = parse_design(&text).unwrap();
            assert_eq!(
                crate::verilog::write_design(&back),
                text,
                "escaped={escaped}"
            );
            let second = back.module(back.find_module("second").unwrap());
            let u2 = second.cell(second.find_cell("u2").unwrap());
            assert_eq!(u2.pin_name(0), "Z");
            assert_eq!(u2.kind_name(), "INVX1");
        }
    }

    #[test]
    fn pin_names_sharing_a_cache_slot_evict_each_other_correctly() {
        let slot = |name: &str| short_slot(short_key(name).unwrap());
        let names: Vec<String> = (b'A'..=b'Z')
            .flat_map(|x| (b'A'..=b'Z').map(move |y| format!("{}{}", x as char, y as char)))
            .collect();
        let (p, q) = names
            .iter()
            .enumerate()
            .find_map(|(i, p)| {
                let q = names[i + 1..].iter().find(|q| slot(q) == slot(p))?;
                Some((p.as_str(), q.as_str()))
            })
            .expect("256 slots cannot hold 676 names apart");
        let src = format!(
            "module t (a, b, c, d);\n  input a;\n  input b;\n  input c;\n  input d;\n  \
             X u0 (.{p}(a), .{q}(b), .{p}(c), .{q}(d));\n  \
             X u1 (.{q}(d), .{p}(c), .{q}(b), .{p}(a));\nendmodule\n"
        );
        let m = parse_module(&src).unwrap();
        for (cell, order) in [("u0", [p, q, p, q]), ("u1", [q, p, q, p])] {
            let c = m.cell(m.find_cell(cell).unwrap());
            let pins: Vec<&str> = (0..4).map(|i| c.pin_name(i)).collect();
            assert_eq!(pins, order, "{cell}");
        }
        let mut design = Design::new();
        design.insert(m);
        assert_eq!(crate::verilog::write_design(&design), src);
    }
}
