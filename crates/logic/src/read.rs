//! Reader: tokenizer and operator-precedence parser for the Prolog subset
//! used by the benchmark corpus and examples.
//!
//! Supported syntax: atoms (plain, quoted, symbolic), variables, integers,
//! compound terms, lists with `|` tails, parenthesised terms, `%` line and
//! `/* */` block comments, and the standard operator table extended with
//! the `&` **parallel conjunction** operator (priority 1025, `xfy`) that
//! &ACE programs use to annotate independent and-parallel goals:
//!
//! ```text
//! process_list([H|T], [Hout|Tout]) :-
//!     process(H, Hout) & process_list(T, Tout).
//! ```
//!
//! Reading borrows: a token is a slice of the source (only a quoted atom
//! with escapes owns its text), names are interned through a per-parse
//! map in front of the global interner, and the variable list and the stack of open compounds'
//! arguments are cleared, not dropped, between clauses. [`parse_term`]
//! builds into a caller-supplied [`Heap`]; [`parse_program`] builds each
//! clause in one scratch heap, then copies it out into an arena of exactly
//! its length ([`Heap::from_cells`]) — the one allocation per clause —
//! which the database later instantiates by block copy + relocation.
//!
//! Nesting is bounded: brackets, arguments, prefix operators and the right
//! operands of non-`xfy` operators recurse, and past [`MAX_DEPTH`] levels
//! the reader returns a [`ReadError`] instead of overflowing the stack.
//! `xfy` chains (`,`, `;`, `->`, `&`, `^`) and list items are read in a
//! loop, so long conjunctions and lists are not nesting.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::heap::{Cell, Heap};
use crate::sym::{sym, Sym};

/// Reader errors with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ReadError {}

/// What the reader's own functions return. The error is boxed so that a
/// `Parsed<Cell>` is two words and comes back in registers; with the
/// `ReadError` by value every return on the hot path went through memory.
type Parsed<T> = Result<T, Box<ReadError>>;

fn err<T>(at: usize, msg: impl Into<String>) -> Parsed<T> {
    Err(Box::new(ReadError {
        at,
        msg: msg.into(),
    }))
}

/// Levels of term nesting the reader accepts. A level measured 2.5 KiB of
/// stack in an unoptimized build (0.7 KiB optimized), so the worst case is
/// a third of a 2 MiB thread stack; the corpus nests 12 deep at most.
pub const MAX_DEPTH: u32 = 256;

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok<'s> {
    /// Atom or symbolic atom; bool = followed immediately by `(`.
    Atom(Cow<'s, str>, bool),
    Var(&'s str),
    /// The magnitude of an integer literal, at most 2^63: the parser applies
    /// the sign, so that `-9223372036854775808` is in range, and rejects
    /// 2^63 without one.
    Int(u64),
    Open,   // (
    Close,  // )
    OpenB,  // [
    CloseB, // ]
    Comma,  // ,
    Bar,    // |
    End,    // clause-terminating .
    Eof,
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    /// The token the parser is looking at, and the offset it starts at.
    /// [`Lexer::advance`] overwrites both in place: a token is read where
    /// it lies, never moved.
    tok: Tok<'s>,
    at: usize,
}

#[rustfmt::skip]
fn is_symbolic(b: u8) -> bool {
    matches!(b, b'+' | b'-' | b'*' | b'/' | b'\\' | b'^' | b'<' | b'>' | b'=' | b'~'
        | b':' | b'.' | b'?' | b'@' | b'#' | b'&' | b'$')
}

impl<'s> Lexer<'s> {
    fn skip_ws(&mut self) -> Parsed<()> {
        let src = self.src.as_bytes();
        loop {
            match src.get(self.pos) {
                Some(b) if b.is_ascii_whitespace() => self.pos += 1,
                Some(b'%') => {
                    self.take_while(|b| b != b'\n');
                }
                Some(b'/') if src.get(self.pos + 1) == Some(&b'*') => {
                    let Some(len) = self.src[self.pos + 2..].find("*/") else {
                        return err(self.pos, "unterminated block comment");
                    };
                    self.pos += len + 4;
                }
                _ => return Ok(()),
            }
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Advance while `keep` holds and return the bytes passed over. Every
    /// caller stops at an ASCII byte or the end, so the cut is on a
    /// character boundary.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'s str {
        let rest = &self.src[self.pos..];
        let len = rest.bytes().position(|b| !keep(b)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Step to the next token.
    fn advance(&mut self) -> Parsed<()> {
        self.skip_ws()?;
        let at = self.pos;
        self.at = at;
        let Some(c) = self.peek_byte() else {
            self.tok = Tok::Eof;
            return Ok(());
        };
        let punct = match c {
            b'(' => Some(Tok::Open),
            b')' => Some(Tok::Close),
            b'[' => Some(Tok::OpenB),
            b']' => Some(Tok::CloseB),
            b',' => Some(Tok::Comma),
            b'|' => Some(Tok::Bar),
            _ => None,
        };
        if let Some(tok) = punct {
            self.pos += 1;
            self.tok = tok;
            return Ok(());
        }
        self.tok = match c {
            b'!' | b';' => {
                self.pos += 1;
                self.atom_tok(&self.src[at..self.pos])
            }
            b'\'' => self.quoted_atom(at)?,
            b'0'..=b'9' => match self.take_while(|b| b.is_ascii_digit()).parse() {
                Ok(magnitude) if magnitude <= i64::MIN.unsigned_abs() => Tok::Int(magnitude),
                _ => return err(at, "integer literal out of range"),
            },
            b'_' | b'A'..=b'Z' => {
                Tok::Var(self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_'))
            }
            b'a'..=b'z' => {
                let name = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                self.atom_tok(name)
            }
            c if is_symbolic(c) => {
                let s = self.take_while(is_symbolic);
                // A lone '.' followed by whitespace/EOF terminates a clause.
                let ends_clause = self
                    .peek_byte()
                    .is_none_or(|b| b.is_ascii_whitespace() || b == b'%');
                if s == "." && ends_clause {
                    Tok::End
                } else {
                    self.atom_tok(s)
                }
            }
            other => return err(at, format!("unexpected character {:?}", other as char)),
        };
        Ok(())
    }

    fn atom_tok(&self, name: &'s str) -> Tok<'s> {
        Tok::Atom(Cow::Borrowed(name), self.peek_byte() == Some(b'('))
    }

    fn quoted_atom(&mut self, at: usize) -> Parsed<Tok<'s>> {
        self.pos += 1; // opening quote
        let plain = self.take_while(|b| b != b'\'' && b != b'\\');
        let src = self.src.as_bytes();
        if self.peek_byte() == Some(b'\'') && src.get(self.pos + 1) != Some(&b'\'') {
            self.pos += 1;
            return Ok(self.atom_tok(plain));
        }
        // An escape or a doubled quote: the text is no longer a slice of
        // the source. Collect raw bytes so multi-byte UTF-8 survives intact
        // (the input is valid UTF-8 and all delimiters and escapes are
        // ASCII, so byte-level scanning is safe).
        let mut bytes = plain.as_bytes().to_vec();
        loop {
            match self.peek_byte() {
                None => return err(at, "unterminated quoted atom"),
                Some(b'\'') => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'\'') {
                        bytes.push(b'\'');
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Some(b'\\') => {
                    self.pos += 1;
                    bytes.push(match self.peek_byte() {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'\\' | b'\'')) => c,
                        other => {
                            let other = other.map(|b| b as char);
                            return err(self.pos, format!("bad escape {other:?}"));
                        }
                    });
                    self.pos += 1;
                }
                Some(b) => {
                    bytes.push(b);
                    self.pos += 1;
                }
            }
        }
        let Ok(out) = String::from_utf8(bytes) else {
            return err(at, "invalid UTF-8 in quoted atom");
        };
        Ok(Tok::Atom(Cow::Owned(out), self.peek_byte() == Some(b'(')))
    }
}

// ---------------------------------------------------------------------------
// Operator table
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpType {
    Xfx,
    Xfy,
    Yfx,
    Fy,
    Fx,
}

#[derive(Debug, Clone, Copy)]
struct OpDef {
    prec: u16,
    typ: OpType,
}

fn infix_op(name: &str) -> Option<OpDef> {
    use OpType::*;
    let (prec, typ) = match name {
        ":-" | "-->" => (1200, Xfx),
        ";" => (1100, Xfy),
        "->" => (1050, Xfy),
        // &ACE parallel conjunction: binds tighter than ';' and looser
        // than ','  so  `a, b & c, d`  reads as  `(a, b) & (c, d)`.
        "&" => (1025, Xfy),
        "," => (1000, Xfy),
        "=" | "\\=" | "==" | "\\==" | "is" | "=:=" | "=\\=" | "<" | ">" | "=<" | ">=" | "@<"
        | "@>" | "@=<" | "@>=" | "=.." => (700, Xfx),
        "+" | "-" => (500, Yfx),
        "*" | "/" | "//" | "mod" | "rem" | ">>" | "<<" => (400, Yfx),
        "**" => (200, Xfx),
        "^" => (200, Xfy),
        _ => return None,
    };
    Some(OpDef { prec, typ })
}

fn prefix_op(name: &str) -> Option<OpDef> {
    use OpType::*;
    let (prec, typ) = match name {
        ":-" | "?-" => (1200, Fx),
        "\\+" => (900, Fy),
        "-" | "+" | "\\" => (200, Fy),
        _ => return None,
    };
    Some(OpDef { prec, typ })
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Up to this many named variables a clause's variables are found by a
/// scan of `Parser::vars`; a clause with more gets a hashed index, so
/// hostile text cannot make variable lookup quadratic.
const VAR_SCAN: usize = 16;

/// An `xfy` operator whose right operand is still being read.
struct OpenXfy {
    left: Cell,
    op: Sym,
    prec: u16,
    /// The priority bound that applies again once this operator is built.
    outer_max: u16,
}

struct Parser<'s, 'h> {
    /// Its `tok` is the one-token lookahead.
    lx: Lexer<'s>,
    heap: &'h mut Heap,
    /// The names seen so far in this text: one that recurs takes the
    /// global interner's lock once. The keys come from outside the program
    /// (query text), so the map keeps the default keyed hasher — which on
    /// short names also measured faster than `FxHasher`'s byte path.
    syms: HashMap<&'s str, Sym>,
    /// Named variables of the clause being read, in order of appearance.
    vars: Vec<(&'s str, Cell)>,
    /// Index over `vars`, filled only past [`VAR_SCAN`] of them.
    var_index: HashMap<&'s str, Cell>,
    /// Arguments and list items of every compound still open, innermost on
    /// top; each compound takes its own back off when it closes.
    items: Vec<Cell>,
    /// Same discipline for open `xfy` operators.
    open_ops: Vec<OpenXfy>,
    depth: u32,
}

impl<'s, 'h> Parser<'s, 'h> {
    fn new(src: &'s str, heap: &'h mut Heap) -> Parsed<Self> {
        let mut lx = Lexer {
            src,
            pos: 0,
            tok: Tok::Eof,
            at: 0,
        };
        lx.advance()?;
        Ok(Parser {
            lx,
            heap,
            syms: HashMap::new(),
            vars: Vec::new(),
            var_index: HashMap::new(),
            items: Vec::new(),
            open_ops: Vec::new(),
            depth: 0,
        })
    }

    /// "expected `what`, found <the lookahead>".
    fn expected<T>(&self, what: &str) -> Parsed<T> {
        err(
            self.lx.at,
            format!("expected {what}, found {:?}", self.lx.tok),
        )
    }

    /// Only escaped quoted atoms own their text; they are rare enough to
    /// go to the global interner each time.
    fn intern(&mut self, name: Cow<'s, str>) -> Sym {
        match name {
            Cow::Borrowed(name) => *self.syms.entry(name).or_insert_with(|| sym(name)),
            Cow::Owned(name) => sym(&name),
        }
    }

    fn var(&mut self, name: &'s str) -> Cell {
        if name == "_" {
            return self.heap.new_var();
        }
        let known = if self.vars.len() <= VAR_SCAN {
            self.vars.iter().find(|(n, _)| *n == name).map(|v| v.1)
        } else {
            self.var_index.get(name).copied()
        };
        if let Some(c) = known {
            return c;
        }
        let c = self.heap.new_var();
        self.vars.push((name, c));
        if self.vars.len() > VAR_SCAN {
            // Index what is not yet: everything, the first time past the limit.
            let unindexed = &self.vars[self.var_index.len()..];
            self.var_index.extend(unindexed.iter().copied());
        }
        c
    }

    /// Parse a term with priority at most `max_prec`.
    ///
    /// Throughout, a token is stepped over only once everything that must
    /// happen before the next one is lexed has happened (range errors,
    /// interning), so errors come in source order and the global symbol
    /// table fills in the order names are completed.
    fn term(&mut self, mut max_prec: u16) -> Parsed<Cell> {
        if self.depth == MAX_DEPTH {
            return err(self.lx.at, "term nesting too deep");
        }
        self.depth += 1;
        let mine = self.open_ops.len();
        let mut left_prec = 0;
        let mut left = self.primary(max_prec, &mut left_prec)?;
        loop {
            // Can the lookahead take `left` as its left operand here?
            let op = match &self.lx.tok {
                Tok::Atom(name, _) => infix_op(name),
                Tok::Comma => infix_op(","),
                // '|' as alternative separator is not supported; it only
                // appears in lists.
                _ => None,
            }
            .filter(|op| {
                let larg_max = op.prec - u16::from(op.typ != OpType::Yfx);
                op.prec <= max_prec && left_prec <= larg_max
            });
            let Some(op) = op else {
                // The operand ends here. If it was the right operand of an
                // `xfy` operator of this call, build that operator and try
                // the same token against the bound it was read under.
                if self.open_ops.len() == mine {
                    break;
                }
                let open = self.open_ops.pop().expect("longer than `mine`");
                left = self.heap.new_struct(open.op, &[open.left, left]);
                left_prec = open.prec;
                max_prec = open.outer_max;
                continue;
            };
            let name = match &mut self.lx.tok {
                Tok::Atom(name, _) => std::mem::take(name),
                _ => Cow::Borrowed(","),
            };
            self.lx.advance()?;
            if op.typ == OpType::Xfy {
                // Right-associative: read the right operand in this loop,
                // so that a long conjunction is not deep recursion. (All
                // `xfy` names are pre-interned, so interning before the
                // operand is read does not reorder the symbol table.)
                let op_sym = self.intern(name);
                self.open_ops.push(OpenXfy {
                    left,
                    op: op_sym,
                    prec: op.prec,
                    outer_max: max_prec,
                });
                max_prec = op.prec;
                left_prec = 0;
                left = self.primary(max_prec, &mut left_prec)?;
            } else {
                let right = self.term(op.prec - 1)?;
                let f = self.intern(name);
                left = self.heap.new_struct(f, &[left, right]);
                left_prec = op.prec;
            }
        }
        self.depth -= 1;
        Ok(left)
    }

    /// Parse a primary (possibly prefixed) term. Its priority is 0 unless
    /// it is a prefix operator applied to a term: then `prec` is set.
    fn primary(&mut self, max_prec: u16, prec: &mut u16) -> Parsed<Cell> {
        let at = self.lx.at;
        let (name, calls) = match &mut self.lx.tok {
            Tok::Atom(name, calls) => (std::mem::take(name), *calls),
            &mut Tok::Int(magnitude) => {
                let t = int_cell(at, magnitude, false)?;
                self.lx.advance()?;
                return Ok(t);
            }
            &mut Tok::Var(name) => {
                self.lx.advance()?;
                return Ok(self.var(name));
            }
            Tok::Open => {
                self.lx.advance()?;
                let t = self.term(1200)?;
                if self.lx.tok != Tok::Close {
                    return self.expected("`)`");
                }
                self.lx.advance()?;
                return Ok(t);
            }
            Tok::OpenB => {
                self.lx.advance()?;
                return self.list();
            }
            Tok::Comma => return err(at, "unexpected `,`"),
            Tok::Bar => return err(at, "unexpected `|`"),
            Tok::Close => return err(at, "unexpected `)`"),
            Tok::CloseB => return err(at, "unexpected `]`"),
            Tok::End => return err(at, "unexpected end of clause"),
            Tok::Eof => return err(at, "unexpected end of input"),
        };
        if calls {
            // functional notation f(...)
            self.lx.advance()?;
            return self.compound(name);
        }
        self.plain_atom(name, at, max_prec, prec)
    }

    /// An atom not followed by `(`: a prefix operator with its argument, a
    /// negative literal, or the atom itself.
    fn plain_atom(
        &mut self,
        name: Cow<'s, str>,
        at: usize,
        max_prec: u16,
        prec: &mut u16,
    ) -> Parsed<Cell> {
        let prefix = prefix_op(&name).filter(|op| op.prec <= max_prec);
        let infix = infix_op(&name);
        if prefix.is_none() && infix.is_none() {
            let t = self.atom_cell(name);
            self.lx.advance()?;
            return Ok(t);
        }
        // An operator name: what it is here depends on what follows.
        self.lx.advance()?;
        if let Some(op) = prefix {
            if let Tok::Int(magnitude) = self.lx.tok {
                if name == "-" {
                    // Special case: -Integer is a negative literal.
                    let t = int_cell(self.lx.at, magnitude, true)?;
                    self.lx.advance()?;
                    return Ok(t);
                }
            }
            // Could the lookahead begin a term?
            if matches!(
                self.lx.tok,
                Tok::Int(_) | Tok::Var(_) | Tok::Atom(..) | Tok::Open | Tok::OpenB
            ) {
                let arg = self.term(op.prec - u16::from(op.typ == OpType::Fx))?;
                let f = self.intern(name);
                *prec = op.prec;
                return Ok(self.heap.new_struct(f, &[arg]));
            }
        }
        let at_term_end = matches!(
            self.lx.tok,
            Tok::End | Tok::Eof | Tok::Close | Tok::CloseB | Tok::Comma | Tok::Bar
        );
        if infix.is_some() && !at_term_end {
            // an infix operator in primary position with more input
            // following is a syntax error unless parenthesised
            return err(at, format!("operator `{name}` used as term"));
        }
        Ok(self.atom_cell(name))
    }

    fn atom_cell(&mut self, name: Cow<'s, str>) -> Cell {
        if name == "[]" {
            Cell::Nil
        } else {
            Cell::Atom(self.intern(name))
        }
    }

    /// `name(`: the lookahead is the parenthesis. Comma-separated
    /// arguments at priority 999.
    fn compound(&mut self, name: Cow<'s, str>) -> Parsed<Cell> {
        debug_assert_eq!(self.lx.tok, Tok::Open, "`calls` means the next byte is `(`");
        let mine = self.items.len();
        loop {
            self.lx.advance()?; // the parenthesis or a comma
            let arg = self.term(999)?;
            self.items.push(arg);
            match self.lx.tok {
                Tok::Comma => continue,
                Tok::Close => break,
                _ => return self.expected("`,` or `)`"),
            }
        }
        let f = self.intern(name);
        let t = self.heap.new_struct(f, &self.items[mine..]);
        self.items.truncate(mine);
        self.lx.advance()?;
        Ok(t)
    }

    /// `[` already stepped over.
    fn list(&mut self) -> Parsed<Cell> {
        if self.lx.tok == Tok::CloseB {
            self.lx.advance()?;
            return Ok(Cell::Nil);
        }
        let mine = self.items.len();
        let mut t = Cell::Nil;
        loop {
            let item = self.term(999)?;
            self.items.push(item);
            match self.lx.tok {
                Tok::Comma => self.lx.advance()?,
                Tok::CloseB => break,
                Tok::Bar => {
                    self.lx.advance()?;
                    t = self.term(999)?;
                    if self.lx.tok != Tok::CloseB {
                        return self.expected("`]`");
                    }
                    break;
                }
                _ => return self.expected("`,`, `|` or `]`"),
            }
        }
        for &item in self.items[mine..].iter().rev() {
            t = self.heap.cons(item, t);
        }
        self.items.truncate(mine);
        self.lx.advance()?;
        Ok(t)
    }
}

/// The integer of this `magnitude`, negated if `negative`; `at` is where
/// its digits start.
fn int_cell(at: usize, magnitude: u64, negative: bool) -> Parsed<Cell> {
    let value = match negative {
        true => 0i64.checked_sub_unsigned(magnitude),
        false => i64::try_from(magnitude).ok(),
    };
    match value {
        Some(v) => Ok(Cell::Int(v)),
        None => err(at, "integer literal out of range"),
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Parse a single term (terminated by `.` or end of input) into `heap`.
/// Returns the term and the variable-name bindings encountered.
pub fn parse_term(heap: &mut Heap, src: &str) -> Result<(Cell, Vec<(String, Cell)>), ReadError> {
    read_term(heap, src).map_err(|e| *e)
}

fn read_term(heap: &mut Heap, src: &str) -> Parsed<(Cell, Vec<(String, Cell)>)> {
    let mut p = Parser::new(src, heap)?;
    let t = p.term(1200)?;
    if !matches!(p.lx.tok, Tok::End | Tok::Eof) {
        return err(p.lx.at, format!("trailing input: {:?}", p.lx.tok));
    }
    let mut names: Vec<(String, Cell)> = p.vars.iter().map(|&(n, c)| (n.to_owned(), c)).collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((t, names))
}

/// A clause read from program text, as a self-contained heap arena.
#[derive(Debug, Clone)]
pub struct ReadClause {
    /// The arena containing the whole clause term: exactly as many cells
    /// as the clause has, and no trail.
    pub arena: Heap,
    /// The clause term (`Head`, `Head :- Body`, or `:- Directive`).
    pub root: Cell,
}

/// Parse a whole program: a sequence of `.`-terminated clauses.
pub fn parse_program(src: &str) -> Result<Vec<ReadClause>, ReadError> {
    read_program(src).map_err(|e| *e)
}

fn read_program(src: &str) -> Parsed<Vec<ReadClause>> {
    let mut out = Vec::new();
    let mut scratch = Heap::new();
    let mut p = Parser::new(src, &mut scratch)?;
    while p.lx.tok != Tok::Eof {
        let root = p.term(1200)?;
        match p.lx.tok {
            Tok::End => {}
            Tok::Eof => return err(p.lx.at, "clause not terminated by `.`"),
            _ => return p.expected("`.`"),
        }
        out.push(ReadClause {
            arena: Heap::from_cells(p.heap.cells()),
            root,
        });
        // Forget the clause; every buffer keeps its capacity.
        p.heap.clear();
        p.vars.clear();
        p.var_index.clear();
        p.lx.advance()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::sym;
    use crate::term::{proper_list, view, TermView};
    use crate::write::term_to_string;

    fn roundtrip(src: &str) -> String {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, src).unwrap();
        term_to_string(&h, t)
    }

    #[test]
    fn atoms_ints_vars() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "foo").unwrap();
        assert_eq!(t, Cell::Atom(sym("foo")));
        let (t, _) = parse_term(&mut h, "42").unwrap();
        assert_eq!(t, Cell::Int(42));
        let (t, vars) = parse_term(&mut h, "X").unwrap();
        assert!(matches!(view(&h, t), TermView::Var(_)));
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].0, "X");
    }

    #[test]
    fn negative_literal() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "-7").unwrap();
        assert_eq!(t, Cell::Int(-7));
    }

    #[test]
    fn integer_literals_cover_the_whole_i64_range() {
        let mut h = Heap::new();
        for (src, value) in [
            ("-9223372036854775808", i64::MIN),
            ("- 9223372036854775808", i64::MIN),
            ("9223372036854775807", i64::MAX),
            ("-9223372036854775807", -i64::MAX),
        ] {
            assert_eq!(parse_term(&mut h, src).unwrap().0, Cell::Int(value));
        }
        // One past either end, and 2^63 where no sign applies to it.
        for (src, at) in [
            ("-9223372036854775809", 1),
            ("9223372036854775808", 0),
            ("1 - 9223372036854775808", 4),
            ("f(9223372036854775808)", 2),
        ] {
            let e = parse_term(&mut h, src).unwrap_err();
            assert_eq!((e.at, &*e.msg), (at, "integer literal out of range"));
        }
    }

    #[test]
    fn a_parsed_cell_comes_back_in_two_registers() {
        assert_eq!(std::mem::size_of::<Parsed<Cell>>(), 16, "see `Parsed`");
    }

    #[test]
    fn compound_and_nesting() {
        assert_eq!(roundtrip("f(a, g(B, 1), [])"), "f(a,g(_G0,1),[])");
    }

    #[test]
    fn variables_scoped_within_term() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "f(X, X, Y)").unwrap();
        let TermView::Struct(_, 3, hdr) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(h.deref(h.str_arg(hdr, 0)), h.deref(h.str_arg(hdr, 1)));
        assert_ne!(h.deref(h.str_arg(hdr, 0)), h.deref(h.str_arg(hdr, 2)));
    }

    #[test]
    fn lists() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "[1,2,3]").unwrap();
        let items = proper_list(&h, t).unwrap();
        assert_eq!(items.len(), 3);
        let (t2, _) = parse_term(&mut h, "[H|T]").unwrap();
        assert!(matches!(view(&h, t2), TermView::List(_)));
        let (t3, _) = parse_term(&mut h, "[]").unwrap();
        assert_eq!(t3, Cell::Nil);
    }

    #[test]
    fn operators_precedence() {
        // 1+2*3 = +(1, *(2,3))
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "1+2*3").unwrap();
        let TermView::Struct(f, 2, hdr) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(f, sym("+"));
        assert_eq!(h.str_arg(hdr, 0), Cell::Int(1));
        let TermView::Struct(g, 2, _) = view(&h, h.str_arg(hdr, 1)) else {
            unreachable!()
        };
        assert_eq!(g, sym("*"));
    }

    #[test]
    fn yfx_left_assoc() {
        // 1-2-3 = -(-(1,2),3)
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "1-2-3").unwrap();
        let TermView::Struct(f, 2, hdr) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(f, sym("-"));
        assert_eq!(h.str_arg(hdr, 1), Cell::Int(3));
    }

    #[test]
    fn comma_and_amp_structure() {
        // a, b & c, d  =  &( ','(a,b) , ','(c,d) )
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "a, b & c, d").unwrap();
        let TermView::Struct(f, 2, hdr) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(f, sym("&"));
        let TermView::Struct(l, 2, _) = view(&h, h.str_arg(hdr, 0)) else {
            unreachable!()
        };
        assert_eq!(l, sym(","));
    }

    #[test]
    fn clause_neck() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "p(X) :- q(X), r(X)").unwrap();
        let TermView::Struct(f, 2, _) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(f, sym(":-"));
    }

    #[test]
    fn parse_program_multi_clause() {
        let prog = r#"
            % list membership
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
        "#;
        let clauses = parse_program(prog).unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let prog = "/* block */ p. % line\nq.";
        let clauses = parse_program(prog).unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn quoted_atoms() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "'hello world'").unwrap();
        assert_eq!(t, Cell::Atom(sym("hello world")));
        let (t2, _) = parse_term(&mut h, "'it''s'").unwrap();
        assert_eq!(t2, Cell::Atom(sym("it's")));
    }

    #[test]
    fn cut_and_control_atoms() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "p :- !, q").unwrap();
        let s = term_to_string(&h, t);
        assert!(s.contains('!'), "{s}");
    }

    #[test]
    fn naf_prefix() {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, "\\+ p(X)").unwrap();
        let TermView::Struct(f, 1, _) = view(&h, t) else {
            unreachable!()
        };
        assert_eq!(f, sym("\\+"));
    }

    #[test]
    fn errors_reported() {
        let mut h = Heap::new();
        assert!(parse_term(&mut h, "f(").is_err());
        assert!(parse_term(&mut h, "[1,2").is_err());
        assert!(parse_program("p :- q").is_err()); // missing end dot
    }

    #[test]
    fn end_dot_after_operand() {
        let clauses = parse_program("x(X) :- X = a.\ny.").unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn parallel_conj_in_clause() {
        let prog = "p(L, O) :- q(L, M) & r(M, O).";
        let clauses = parse_program(prog).unwrap();
        assert_eq!(clauses.len(), 1);
        let c = &clauses[0];
        let TermView::Struct(neck, 2, hdr) = view(&c.arena, c.root) else {
            unreachable!()
        };
        assert_eq!(neck, sym(":-"));
        let body = c.arena.str_arg(hdr, 1);
        let TermView::Struct(amp, 2, _) = view(&c.arena, body) else {
            unreachable!()
        };
        assert_eq!(amp, sym("&"));
    }
}
