//! Deterministic input generators: render benchmark inputs as Prolog text.
//!
//! All pseudo-randomness comes from a fixed-seed linear congruential
//! generator so every run of every experiment sees identical inputs.

/// Minimal deterministic LCG (Numerical Recipes constants).
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
    }

    pub fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u32) -> u32 {
        self.next_u32() % bound.max(1)
    }
}

/// `[a, b, c, ...]` of `n` pseudo-random ints in 0..100.
pub fn int_list(n: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let items: Vec<String> = (0..n).map(|_| rng.below(100).to_string()).collect();
    format!("[{}]", items.join(","))
}

/// `[1, 2, ..., n]`.
pub fn range_list(n: usize) -> String {
    let items: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// The wide two-level or-tree program: `n` top-level alternatives, each
/// fanning into 8 inner alternatives, each leaf paying a fixed
/// deterministic walk. The top or-node is `n` clauses wide, so a single
/// publication feeds hundreds of thieves — the shape the 64–512 worker
/// scaling grid needs to separate scheduler overhead from work shortage.
pub fn wide_tree(n: usize) -> String {
    let mut src = String::new();
    for i in 1..=n {
        src.push_str(&format!("alt1({i}).\n"));
    }
    for i in 1..=8 {
        src.push_str(&format!("alt2({i}).\n"));
    }
    src.push_str("walk([]).\nwalk([_|T]) :- walk(T).\n");
    src.push_str(&format!("work :- walk({}).\n", range_list(12)));
    src.push_str("wt(X, Y) :- alt1(X), alt2(Y), work.\n");
    src
}

/// `edge/2` facts of an `n`-node directed cycle with chords from every
/// node two and five steps ahead. The cycle makes every node reachable
/// from every node, so the tabled closure from any start has exactly `n`
/// answers — and ordinary left-recursive resolution never terminates.
/// The chords make every answer re-derivable several ways, so the cold
/// fixpoint does real duplicate-suppression work while the completed
/// table replays in O(n).
pub fn cyclic_graph(n: usize) -> String {
    let n = n.max(2);
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!("edge(n{i}, n{}).\n", (i + 1) % n));
        out.push_str(&format!("edge(n{i}, n{}).\n", (i + 2) % n));
        out.push_str(&format!("edge(n{i}, n{}).\n", (i + 5) % n));
    }
    out
}

/// Token facts for the string `a + a + ... + a` of `n` operands:
/// `tok(Pos, Kind)` plus successor facts `s(Pos, Pos1)` (the corpus
/// avoids arithmetic builtins inside tabled clauses). Operand `k` sits
/// at position `2k`, the `+` separators at odd positions.
pub fn token_string(n: usize) -> String {
    let n = n.max(1);
    let mut out = String::new();
    for k in 0..n {
        let p = 2 * k;
        out.push_str(&format!("tok({p}, a).\n"));
        out.push_str(&format!("s({p}, {}).\n", p + 1));
        if k + 1 < n {
            out.push_str(&format!("tok({}, plus).\n", p + 1));
            out.push_str(&format!("s({}, {}).\n", p + 1, p + 2));
        }
    }
    out
}

/// `par/2` (child-to-parent) and `n/1` facts of a complete binary tree
/// of depth `d`, nodes `p1..p{2^(d+1)-1}` numbered heap-style.
pub fn samegen_tree(d: usize) -> String {
    let d = d.min(12);
    let total = (1usize << (d + 1)) - 1;
    let mut out = String::new();
    for c in 2..=total {
        out.push_str(&format!("par(p{c}, p{}).\n", c / 2));
    }
    for v in 1..=total {
        out.push_str(&format!("n(p{v}).\n"));
    }
    out
}

/// `k` sublists of `m` pseudo-random digits 0..9.
pub fn list_of_lists(k: usize, m: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let subs: Vec<String> = (0..k)
        .map(|_| {
            let items: Vec<String> = (0..m).map(|_| rng.below(10).to_string()).collect();
            format!("[{}]", items.join(","))
        })
        .collect();
    format!("[{}]", subs.join(","))
}

/// `rows x cols` matrix of small ints as a list of row lists.
pub fn matrix(rows: usize, cols: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let rs: Vec<String> = (0..rows)
        .map(|_| {
            let items: Vec<String> = (0..cols).map(|_| rng.below(10).to_string()).collect();
            format!("[{}]", items.join(","))
        })
        .collect();
    format!("[{}]", rs.join(","))
}

/// Balanced arithmetic expression of the pderiv benchmark:
/// depth `d` over `x` and small constants, alternating plus/times.
pub fn expr(d: usize) -> String {
    fn go(d: usize, idx: &mut u32) -> String {
        if d == 0 {
            *idx += 1;
            if idx.is_multiple_of(2) {
                "x".to_owned()
            } else {
                format!("n({})", *idx % 7)
            }
        } else {
            let l = go(d - 1, idx);
            let r = go(d - 1, idx);
            if d.is_multiple_of(2) {
                format!("plus({l}, {r})")
            } else {
                format!("times({l}, {r})")
            }
        }
    }
    let mut idx = 0;
    go(d, &mut idx)
}

/// Balanced binary tree of depth `d` with small leaf values for the
/// annotator benchmark.
pub fn tree(d: usize, seed: u64) -> String {
    fn go(d: usize, rng: &mut Lcg) -> String {
        if d == 0 {
            format!("leaf({})", rng.below(50))
        } else {
            let l = go(d - 1, rng);
            let r = go(d - 1, rng);
            format!("node({l}, {r})")
        }
    }
    let mut rng = Lcg::new(seed);
    go(d, &mut rng)
}

/// `k` clusters of `m` points each for bt_cluster.
pub fn clusters(k: usize, m: usize) -> String {
    let mut rng = Lcg::new(97);
    let cs: Vec<String> = (0..k)
        .map(|i| {
            let center = (i * 10) % 100;
            let pts: Vec<String> = (0..m).map(|_| rng.below(100).to_string()).collect();
            format!("cluster({center}, [{}])", pts.join(","))
        })
        .collect();
    format!("[{}]", cs.join(","))
}

/// `parent/2` facts of a binary family tree of depth `d` (ancestors).
pub fn family(d: usize) -> String {
    let mut out = String::new();
    let last_parent = (1usize << d.min(16)) - 1;
    for p in 1..=last_parent {
        out.push_str(&format!("parent(p{p}, p{}).\n", 2 * p));
        out.push_str(&format!("parent(p{p}, p{}).\n", 2 * p + 1));
    }
    out
}

/// `n` independent expressions of depth `d` (parallel backward execution).
pub fn exprs(n: usize, d: usize) -> String {
    let items: Vec<String> = (0..n).map(|_| expr(d)).collect();
    format!("[{}]", items.join(","))
}

/// `n` independent trees of depth `d`.
pub fn trees(n: usize, d: usize, seed: u64) -> String {
    let items: Vec<String> = (0..n).map(|i| tree(d, seed + i as u64)).collect();
    format!("[{}]", items.join(","))
}

/// `n` independent `rows x cols` matrices.
pub fn matrices(n: usize, rows: usize, cols: usize, seed: u64) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| matrix(rows, cols, seed + i as u64))
        .collect();
    format!("[{}]", items.join(","))
}

/// A generated program and the query to ask it.
#[derive(Debug, Clone)]
pub struct Generated {
    pub source: String,
    pub query: String,
}

/// A small random program that terminates, for differential testing of
/// the execution modes: the same seed gives the same program.
///
/// Predicates `p0`..`pK` form strata: `pI(N, R)` recurses on `N - 1` and
/// calls only `t/2` facts, lower strata and the single-clause helpers
/// below it, so every call chain is bounded by the query's `N` (2 or 3).
/// Every answer binds `R` to an integer, and no goal raises an error.
/// Rule bodies mix `is`, comparisons, `=` over structures and if-then-else
/// with those calls, and hold enough variables, and goals after their
/// inline neck, that they run through body frames over environments;
/// calls that enumerate facts leave choice points in the middle of them.
/// Cut appears only where no clause choice point can be cut — in helpers
/// of one clause whose goals before `!` are tests and a disjunction — so
/// the or-parallel engine, which must not cut a published choice point,
/// computes the same answers.
pub fn program(seed: u64) -> Generated {
    generate(seed, false)
}

/// Like [`program`], but every recursive rule runs its calls as an
/// independent parallel conjunction: `( G0 & G1 [& G2] )`, where each
/// goal reads only the bound `N`, `N1` and variables of its own, so no
/// unbound variable is shared between goals. Goals call the same
/// nondeterministic facts, strata and helpers as [`program`]'s, so
/// conjunctions meet choice points and are backtracked into; a third of
/// the rules end with the conjunction, binding `R` in its last goal — a
/// recursive call there (`pI(N1, R)`) makes the right-recursive spine LPCO
/// flattens. `&` as `,` gives the sequential answers, so the sequential
/// machine is the and-engine's oracle.
pub fn par_program(seed: u64) -> Generated {
    generate(seed, true)
}

fn generate(seed: u64, par: bool) -> Generated {
    let mut g = ProgramGen {
        rng: Lcg::new(seed),
        src: String::new(),
        callees: Vec::new(),
        par,
    };
    g.src.push_str("t(0, 2).\nt(1, 5).\nt(2, 3).\nt(3, 1).\n");
    let strata = 2 + g.rng.below(3) as usize;
    for i in 0..strata {
        if g.rng.below(2) == 0 {
            g.cut_helper(i);
        }
        if i > 0 && g.rng.below(3) == 0 {
            g.ite_helper(i);
        }
        g.stratum(i);
    }
    let n = 2 + g.rng.below(2);
    Generated {
        source: g.src,
        query: format!("p{}({n}, R)", strata - 1),
    }
}

/// A fact table `f/3` of 16 to 64 clauses and a query of two calls of it
/// with a random pattern of bound and unbound arguments, for differential
/// testing of clause dispatch: the same seed gives the same program.
///
/// Arguments are drawn from a small mix of atoms, integers, structures,
/// lists and variables, so every argument position has repeated keys and
/// catch-all clauses. Each argument of the first call is a constant or a
/// fresh variable; each argument of the second is a constant, a variable
/// of the first call (bound by the time the call runs, as a rule's join
/// binds it) or a fresh one. A call whose first argument is unbound, on a
/// table of eight or more clauses, is dispatched on its leftmost bound
/// argument. The query ends in `ground/1` over its variables, so no answer
/// renders a variable whose name depends on the engine.
pub fn fact_program(seed: u64) -> Generated {
    let mut rng = Lcg::new(seed);
    let constant = |rng: &mut Lcg| match rng.below(7) {
        0 | 1 => format!("a{}", rng.below(4)),
        2 | 3 => format!("{}", rng.below(4)),
        4 => format!("s({})", rng.below(2)),
        5 => format!("[{}]", rng.below(2)),
        _ => "[]".to_owned(),
    };
    let mut source = String::new();
    for _ in 0..16 + rng.below(49) {
        let args: Vec<String> = (0..3)
            .map(|_| match rng.below(8) {
                0 => "_".to_owned(),
                _ => constant(&mut rng),
            })
            .collect();
        source.push_str(&format!("f({}).\n", args.join(", ")));
    }
    let mut vars: Vec<String> = Vec::new();
    let mut calls = Vec::new();
    for call in 0..2 {
        let first_call = vars.len();
        let args: Vec<String> = (0..3)
            .map(|_| match rng.below(3) {
                0 => constant(&mut rng),
                1 if call == 1 && first_call > 0 => {
                    vars[rng.below(first_call as u32) as usize].clone()
                }
                _ => {
                    vars.push(format!("V{}", vars.len()));
                    vars[vars.len() - 1].clone()
                }
            })
            .collect();
        calls.push(format!("f({})", args.join(", ")));
    }
    if !vars.is_empty() {
        calls.push(format!("ground(t({}))", vars.join(", ")));
    }
    Generated {
        source,
        query: calls.join(", "),
    }
}

/// A program of term tests, for differential testing of the compiled
/// machine's inline test step: the same seed gives the same program.
///
/// `q(I, J, K, R)` pairs two data terms `d(I, X)`, `d(J, Y)` (atoms,
/// integers, `[]`, ground and non-ground compounds, lists and an unbound
/// variable) and runs every rule `r(K, I, J, X, Y, R)` on them. A rule body
/// is a conjunction of tests, arithmetic comparisons and term tests alike
/// (`==`, `\==`, the term order, `var/1` … `ground/1`), with `=` bindings
/// of compounds and calls of `id/2` between them, so some tests run at the
/// clause neck on the head's registers and some after a call on an
/// environment; a third of the bodies are one if-then-else on a test, and
/// a third end in one. A test's operands are head variables, variables
/// first met in the body (an unset register at the neck), single-occurrence
/// variables, constants, compounds written in the clause and variables
/// bound to compounds. A term-order test always has one ground operand,
/// and arithmetic reads only integers, so no verdict depends on where an
/// engine puts its variables and no goal raises an error. Every answer
/// binds all four query variables to constants.
pub fn test_program(seed: u64) -> Generated {
    let mut g = TestGen {
        rng: Lcg::new(seed),
        fresh: 0,
        bound: Vec::new(),
    };
    let mut source = String::from(
        "d(0, a). d(1, 1). d(2, []). d(3, f(a)). d(4, f(_)).\n\
         d(5, g(1, b)). d(6, [1, 2]). d(7, _). d(8, -1).\n\
         id(T, T).\n",
    );
    let rules = 3 + g.rng.below(4);
    for k in 0..rules {
        let body = g.body();
        source.push_str(&format!("r({k}, I, J, X, Y, R) :- {body}.\n"));
    }
    source.push_str("q(I, J, K, R) :- d(I, X), d(J, Y), r(K, I, J, X, Y, R).\n");
    Generated {
        source,
        query: "q(I, J, K, R)".to_owned(),
    }
}

/// The term tests [`test_program`] writes, by name and arity.
const TERM_TESTS: [(&str, u32); 14] = [
    ("==", 2),
    ("\\==", 2),
    ("@<", 2),
    ("@>", 2),
    ("@=<", 2),
    ("@>=", 2),
    ("var", 1),
    ("nonvar", 1),
    ("atom", 1),
    ("number", 1),
    ("integer", 1),
    ("atomic", 1),
    ("compound", 1),
    ("ground", 1),
];

/// The arithmetic comparisons [`test_program`] writes.
const ARITH_TESTS: [&str; 6] = ["=:=", "=\\=", "<", ">", "=<", ">="];

struct TestGen {
    rng: Lcg,
    /// Variables the rule has introduced so far (numbering).
    fresh: u32,
    /// Body variables bound by the goals so far, with whether the term
    /// they are bound to is ground.
    bound: Vec<(String, bool)>,
}

impl TestGen {
    fn var(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// One rule body: plain goals, one if-then-else, or goals ending in
    /// one.
    fn body(&mut self) -> String {
        self.fresh = 0;
        self.bound.clear();
        let label = |rng: &mut Lcg| format!("R = c{}", rng.below(4));
        match self.rng.below(3) {
            0 => {
                let (cond, after) = self.test();
                let (yes, no) = (label(&mut self.rng), label(&mut self.rng));
                let n = 1 + self.rng.below(2);
                let then = self.goals(n, &yes);
                let then = join(&after, &then);
                format!("( {cond} -> {then} ; {no} )")
            }
            1 => {
                let n = self.rng.below(3);
                let pre = self.goals(n, "");
                let (cond, after) = self.test();
                let (yes, no) = (label(&mut self.rng), label(&mut self.rng));
                let then = join(&after, &yes);
                join(&pre, &format!("( {cond} -> {then} ; {no} )"))
            }
            _ => {
                let n = 1 + self.rng.below(4);
                let last = label(&mut self.rng);
                self.goals(n, &last)
            }
        }
    }

    /// `n` goals — tests, bindings and calls — then `last`.
    fn goals(&mut self, n: u32, last: &str) -> String {
        let mut out = String::new();
        for _ in 0..n {
            let goal = match self.rng.below(5) {
                0 => {
                    let (v, ground) = (self.var("W"), self.rng.below(2) == 0);
                    let t = if ground {
                        ["f(a)", "g(1, b)", "[1, 2]"][self.rng.below(3) as usize].to_owned()
                    } else {
                        format!("f({})", self.head_var())
                    };
                    self.bound.push((v.clone(), ground));
                    format!("{v} = {t}")
                }
                1 => {
                    let v = self.var("V");
                    let from = self.head_var();
                    self.bound.push((v.clone(), false));
                    format!("id({from}, {v})")
                }
                _ => {
                    let (test, after) = self.test();
                    join(&test, &after)
                }
            };
            out = join(&out, &goal);
        }
        join(&out, last)
    }

    fn head_var(&mut self) -> String {
        ["X", "Y"][self.rng.below(2) as usize].to_owned()
    }

    /// A test, and the goal that gives a variable first met in it its
    /// second occurrence (empty when there is none).
    fn test(&mut self) -> (String, String) {
        let pick = self.rng.below((TERM_TESTS.len() + 2) as u32) as usize;
        let Some(&(name, arity)) = TERM_TESTS.get(pick) else {
            return (self.arith_test(), String::new());
        };
        let mut after = String::new();
        let ordered = name.starts_with('@');
        let a = self.operand(&mut after, false);
        if arity == 1 {
            return (format!("{name}({a})"), after);
        }
        let b = self.operand(&mut after, ordered);
        let (a, b) = if self.rng.below(2) == 0 {
            (a, b)
        } else {
            (b, a)
        };
        (format!("{a} {name} {b}"), after)
    }

    /// A comparison over the integers `I` and `J`.
    fn arith_test(&mut self) -> String {
        let op = ARITH_TESTS[self.rng.below(6) as usize];
        let side = |rng: &mut Lcg| match rng.below(4) {
            0 => "I".to_owned(),
            1 => "J".to_owned(),
            2 => format!("{}", rng.below(9)),
            _ => format!("I + {}", rng.below(4)),
        };
        let a = side(&mut self.rng);
        let b = side(&mut self.rng);
        format!("{a} {op} {b}")
    }

    /// An operand of a term test; a ground one when `ground`. A variable
    /// first met here gets its second occurrence in `after`.
    fn operand(&mut self, after: &mut String, ground: bool) -> String {
        let grounds: Vec<String> = self
            .bound
            .iter()
            .filter(|(_, g)| *g)
            .map(|(v, _)| v.clone())
            .collect();
        let kinds = if ground { 3 } else { 7 };
        match self.rng.below(kinds) {
            0 => ["a", "b", "1", "-1", "[]"][self.rng.below(5) as usize].to_owned(),
            1 => ["f(a)", "g(1, b)", "[1, 2]"][self.rng.below(3) as usize].to_owned(),
            2 if !grounds.is_empty() => {
                grounds[self.rng.below(grounds.len() as u32) as usize].clone()
            }
            2 => "g(1, b)".to_owned(),
            3 => self.head_var(),
            4 if !self.bound.is_empty() => self.bound
                [self.rng.below(self.bound.len() as u32) as usize]
                .0
                .clone(),
            4 => format!("f({})", self.head_var()),
            5 => {
                let v = self.var("Z");
                let to = self.head_var();
                *after = join(after, &format!("{v} = {to}"));
                v
            }
            _ => "_".to_owned(),
        }
    }
}

/// `a, b`, or either alone when the other is empty.
fn join(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_owned(),
        (_, true) => a.to_owned(),
        _ => format!("{a}, {b}"),
    }
}

struct ProgramGen {
    rng: Lcg,
    src: String,
    /// Predicates a new rule may call, as `Name(In, Out)`: strata and
    /// if-then-else helpers, which recurse on `In` (a call passes its
    /// `N1`), and cut helpers, which do not (a call passes any integer).
    callees: Vec<String>,
    /// Rule bodies run their calls as a parallel conjunction.
    par: bool,
}

impl ProgramGen {
    fn pick<'a>(&mut self, of: &'a [String]) -> &'a str {
        &of[self.rng.below(of.len() as u32) as usize]
    }

    fn small(&mut self) -> u32 {
        self.rng.below(6)
    }

    /// `V`, `V + c`, `V - c` or `V * c` over a bound variable `V`.
    fn expr(&mut self, bound: &[String]) -> String {
        let v = self.pick(bound).to_owned();
        let c = self.small();
        match self.rng.below(4) {
            0 => v,
            1 => format!("{v} + {c}"),
            2 => format!("{v} - {c}"),
            _ => format!("{v} * {c}"),
        }
    }

    /// A call binding `out`: a fact lookup on `N1`, an enumeration of the
    /// facts up to `N1`, or a call of a callee (`pI` itself, when `own`).
    fn call(&mut self, i: usize, own: bool, out: &str, bound: &[String]) -> String {
        let kinds = if self.callees.is_empty() { 2 } else { 4 };
        match self.rng.below(kinds) {
            _ if own => format!("p{i}(N1, {out})"),
            0 => format!("t(N1, {out})"),
            1 => format!("t(K{out}, {out}), K{out} =< N1"),
            _ => {
                let k = self.rng.below(self.callees.len() as u32) as usize;
                let callee = self.callees[k].clone();
                let arg = if callee.starts_with("cut") {
                    self.pick(bound).to_owned()
                } else {
                    "N1".to_owned()
                };
                format!("{callee}({arg}, {out})")
            }
        }
    }

    /// A test, an `is`, an `=` over structures or an if-then-else; the
    /// last three bind `v`. Returns the goal and whether it bound `v`.
    fn mix(&mut self, v: &str, bound: &[String]) -> (String, bool) {
        match self.rng.below(4) {
            0 => (format!("{v} is {}", self.expr(bound)), true),
            1 => {
                let x = self.pick(bound).to_owned();
                let op = ["=<", ">=", "=\\=", "<"][self.rng.below(4) as usize];
                (format!("{x} {op} {} + 2", self.expr(bound)), false)
            }
            2 => {
                let (x, y) = (self.pick(bound).to_owned(), self.pick(bound).to_owned());
                (format!("S{v} = s({x}, f({y})), S{v} = s(_, f({v}))"), true)
            }
            _ => {
                let (x, c) = (self.pick(bound).to_owned(), self.small());
                let then = format!("{v} is {}", self.expr(bound));
                (format!("( {x} > {c} -> {then} ; {v} = {x} )"), true)
            }
        }
    }

    /// `cutI(X, R)`: the first of three candidates over `X` that passes a
    /// test, committed to by `!`.
    fn cut_helper(&mut self, i: usize) {
        let c = 2 + self.small();
        let (a, b) = (1 + self.small(), 2 + self.small());
        self.src.push_str(&format!(
            "cut{i}(X, R) :- ( Y = X ; Y is X + {a} ; Y is X * {b} ), Y > {c}, !, R is Y - 1.\n"
        ));
        self.callees.push(format!("cut{i}"));
    }

    /// `iteI(N, R)`: a body that is one arithmetic if-then-else, with a
    /// call of a lower stratum in its then-branch.
    fn ite_helper(&mut self, i: usize) {
        let j = self.rng.below(i as u32);
        let (c, d, e) = (self.small() / 2, self.small(), self.small());
        self.src.push_str(&format!(
            "ite{i}(N, R) :- ( N > {c} -> p{j}(N, A), B is A + {d}, R = B ; R is N + {e} ).\n"
        ));
        self.callees.push(format!("ite{i}"));
    }

    /// `pI/2`: a base fact, a recursive rule, and mostly a rule that
    /// enumerates the facts.
    fn stratum(&mut self, i: usize) {
        let base = self.small();
        self.src.push_str(&format!("p{i}(0, {base}).\n"));
        let body = if self.par {
            self.par_body(i)
        } else {
            self.rule_body(i)
        };
        self.src
            .push_str(&format!("p{i}(N, R) :- N > 0, N1 is N - 1, {body}.\n"));
        if self.rng.below(4) != 0 {
            let k = self.small();
            self.src.push_str(&format!(
                "p{i}(N, R) :- N > 0, t(K, V), K < N, R is V * {k} + N.\n"
            ));
        }
        self.callees.push(format!("p{i}"));
    }

    /// The goals of `pI`'s recursive rule after its neck: two calls (the
    /// first, sometimes, of `pI` itself), each followed by up to two tests
    /// or bindings, then `R`'s value.
    fn rule_body(&mut self, i: usize) -> String {
        let mut bound = vec!["N".to_owned(), "N1".to_owned()];
        let mut goals: Vec<String> = Vec::new();
        for c in 0..2 {
            let out = format!("A{c}");
            let own = c == 0 && self.rng.below(3) == 0;
            goals.push(self.call(i, own, &out, &bound));
            bound.push(out);
            for _ in 0..self.rng.below(3) {
                let v = format!("B{}", goals.len());
                let (goal, binds) = self.mix(&v, &bound);
                goals.push(goal);
                if binds {
                    bound.push(v);
                }
            }
        }
        goals.push(format!(
            "R is {} + {}",
            self.expr(&bound),
            self.expr(&bound)
        ));
        goals.join(", ")
    }
}

impl ProgramGen {
    /// The goals of `pI`'s recursive rule after its neck, as a parallel
    /// conjunction of two or three independent goals, each a call followed
    /// by up to one test or binding over `N`, `N1` and its own variables;
    /// then `R`'s value — or, in a third of the rules, `R` bound inside the
    /// last goal, which makes the conjunction the rule's last goal. Before
    /// it, in a third of the rules each, an enumeration of two facts and a
    /// conjunction of two fact lookups, whose outputs the conjunction does
    /// not read.
    fn par_body(&mut self, i: usize) -> String {
        let base = ["N".to_owned(), "N1".to_owned()];
        let mut after = base.to_vec();
        // Before the conjunction, sometimes a two-fact enumeration (a choice
        // point) and sometimes a conjunction of two fact lookups (a frame
        // or record still on the control stack when the last one runs).
        let mut pre = String::new();
        if self.rng.below(3) == 0 {
            pre += "t(KP, P0), KP < 2, ";
            after.push("P0".to_owned());
        }
        if self.rng.below(3) == 0 {
            pre += "( t(N1, X0) & t(N1, X1) ), ";
            after.extend(["X0".to_owned(), "X1".to_owned()]);
        }
        let arms = 2 + self.rng.below(2) as usize;
        let trailing = self.rng.below(3) == 0;
        let mut branches = Vec::with_capacity(arms);
        for c in 0..arms {
            let last = c + 1 == arms;
            if last && trailing && self.rng.below(2) == 0 {
                branches.push(format!("p{i}(N1, R)"));
                continue;
            }
            let out = format!("A{c}");
            let own = last && self.rng.below(3) == 0;
            let mut goals = vec![self.call(i, own, &out, &base)];
            let mut local = base.to_vec();
            local.push(out);
            if self.rng.below(2) == 0 {
                let v = format!("B{c}");
                let (goal, binds) = self.mix(&v, &local);
                goals.push(goal);
                if binds {
                    local.push(v);
                }
            }
            if last && trailing {
                goals.push(format!(
                    "R is {} + {}",
                    self.expr(&local),
                    self.expr(&local)
                ));
            }
            after.extend_from_slice(&local[base.len()..]);
            branches.push(format!("({})", goals.join(", ")));
        }
        let conj = format!("{pre}( {} )", branches.join(" & "));
        if trailing {
            return conj;
        }
        format!("{conj}, R is {} + {}", self.expr(&after), self.expr(&after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_are_seeded() {
        assert_eq!(program(3).source, program(3).source);
        assert_ne!(program(3).source, program(4).source);
        let g = program(11);
        assert!(g.query.starts_with('p') && g.query.ends_with(", R)"));
        assert!(g.source.contains(":- N > 0, N1 is N - 1, "));
        let p = par_program(11);
        assert_eq!(p.source, par_program(11).source);
        assert!(p.source.contains(" & "), "{}", p.source);
        let f = fact_program(11);
        assert_eq!(f.source, fact_program(11).source);
        assert!(
            (16..=64).contains(&f.source.lines().count()),
            "{}",
            f.source
        );
        assert!(f.query.starts_with("f("), "{}", f.query);
    }

    #[test]
    fn term_test_programs_use_every_test_in_bodies_and_conditions() {
        assert_eq!(test_program(5).source, test_program(5).source);
        assert_ne!(test_program(5).source, test_program(6).source);
        let sources: Vec<String> = (0..100).map(|s| test_program(s).source).collect();
        // Each rule line split into its if-then-else condition (if any)
        // and the rest of it.
        let parts: Vec<(String, String)> = sources
            .iter()
            .flat_map(|s| s.lines())
            .filter(|l| l.starts_with("r("))
            .map(|l| match l.split_once("( ") {
                Some((pre, ite)) => {
                    let (cond, rest) = ite.split_once(" -> ").unwrap();
                    (format!(" {cond} "), format!("{pre}{rest}"))
                }
                None => (String::new(), l.to_owned()),
            })
            .collect();
        let names = TERM_TESTS.iter().map(|t| t.0).chain(ARITH_TESTS);
        for name in names {
            let uses =
                |s: &str| s.contains(&format!(" {name} ")) || s.contains(&format!(" {name}("));
            let in_body = parts.iter().any(|(_, rest)| uses(rest));
            let in_cond = parts.iter().any(|(cond, _)| uses(cond));
            assert!(
                in_body && in_cond,
                "{name}: body {in_body}, condition {in_cond}"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(int_list(5, 7), int_list(5, 7));
        assert_ne!(int_list(5, 7), int_list(5, 8));
    }

    #[test]
    fn shapes() {
        assert_eq!(range_list(3), "[1,2,3]");
        assert!(matrix(2, 3, 1).starts_with("[["));
        assert_eq!(expr(0), "n(1)");
        assert!(expr(2).starts_with("plus("));
        assert!(tree(1, 3).starts_with("node(leaf("));
        assert!(clusters(1, 2).starts_with("[cluster(0, ["));
    }

    #[test]
    fn family_tree_size() {
        let f = family(2);
        // parents 1..=3, two facts each
        assert_eq!(f.lines().count(), 6);
        assert!(f.contains("parent(p3, p7)."));
    }
}
