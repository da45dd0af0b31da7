//! Builtin predicates.
//!
//! Control constructs (`,`, `&`, `;`, `->`, `!`, `\+`, `call/N`) are
//! handled directly in [`crate::machine`]; everything here is a "real"
//! builtin, named by the [`Builtin`] the machine's `dispatch` found for the
//! goal in the one builtin table ([`mod@ace_logic::builtin`]).

use ace_logic::copy::copy_term_within;
use ace_logic::sym::{sym, wk};
use ace_logic::term::{compare as term_compare, view, ListIter, TermView};
use ace_logic::unify::unify;
use ace_logic::write::write_term_to;
use ace_logic::{Addr, Builtin, Cell, Database, Sym, TermTest, TestOp};

use crate::arith;
use crate::frames::Alts;
use crate::machine::{Machine, Status};
use crate::solve::render_bindings;

/// `$findall`: pairs template and goal for one joint copy.
fn findall_pair() -> Sym {
    static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *S.get_or_init(|| sym("$findall"))
}

/// Run the builtin `b`, the goal `f/n` with argument block at `hdr`. `db`
/// is the program the machine is running, borrowed by the caller for the
/// whole quantum: a builtin that fails backtracks into it directly.
pub(crate) fn run(m: &mut Machine, db: &Database, b: Builtin, f: Sym, hdr: Addr) -> Status {
    use Builtin as B;
    match b {
        B::Unify => builtin_unify(m, db, hdr),
        B::NotUnify => builtin_not_unify(m, db, hdr),
        B::Is => builtin_is(m, db, hdr),
        B::ArithCompare => builtin_arith_compare(m, db, f, hdr),
        B::StructEq
        | B::StructNe
        | B::TermOrder
        | B::Var
        | B::Nonvar
        | B::Atom
        | B::Integer
        | B::Atomic
        | B::Compound
        | B::Ground => match TestOp::of_builtin(b, f) {
            Some(TestOp::Term(t)) => builtin_term_test(m, db, hdr, t),
            other => unreachable!("{b:?} is the term test {other:?}"),
        },
        B::Functor => builtin_functor(m, db, hdr),
        B::Arg => builtin_arg(m, db, hdr),
        B::Univ => builtin_univ(m, db, hdr),
        B::CopyTerm => builtin_copy_term(m, db, hdr),
        B::Length => builtin_length(m, db, hdr),
        B::Between => builtin_between(m, db, hdr),
        B::Compare => builtin_compare3(m, db, hdr),
        B::Write => builtin_write(m, hdr, false),
        B::Writeln => builtin_write(m, hdr, true),
        B::Tab => builtin_tab(m, hdr),
        B::Findall => builtin_findall(m, db, hdr),
        B::Msort => builtin_sort(m, db, hdr, false),
        B::Sort => builtin_sort(m, db, hdr, true),
        B::Reverse => builtin_reverse(m, db, hdr),
        B::Nth1 => builtin_nth1(m, db, hdr),
        B::Answer => builtin_answer(m, hdr),
        B::True
        | B::Fail
        | B::Cut
        | B::Nl
        | B::Halt
        | B::Conj
        | B::Par
        | B::Disj
        | B::IfThen
        | B::Not
        | B::Call => unreachable!("control construct {b:?} is run by the machine"),
    }
}

/// `findall(Template, Goal, Bag)`: run `Goal` to exhaustion on a private
/// sub-machine and collect a copy of `Template` for every solution.
/// The sub-machine's cost is charged to this machine (the caller pays for
/// the sub-search), and `&` inside the goal runs sequentially (findall is
/// an all-solutions barrier).
fn builtin_findall(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let template = m.heap.str_arg(hdr, 0);
    let goal = m.heap.str_arg(hdr, 1);
    let bag = m.heap.str_arg(hdr, 2);

    let mut sub = Machine::new(m.db().clone(), m.costs().clone());
    sub.set_clause_exec(m.clause_exec());
    // ship template+goal jointly so they keep sharing variables
    let pair = m.heap.new_struct(findall_pair(), &[template, goal]);
    let out = ace_logic::copy::copy_term(&m.heap, pair, &mut sub.heap);
    let Cell::Str(phdr) = out.root else {
        unreachable!()
    };
    let sub_template = sub.heap.str_arg(phdr, 0);
    let sub_goal = sub.heap.str_arg(phdr, 1);
    m.stats.cells_copied += out.cells_copied as u64;
    m.charge(out.cells_copied as u64 * m.costs.heap_cell);

    sub.set_query(sub_goal);
    let mut items: Vec<Cell> = Vec::new();
    loop {
        match sub.run_to_completion() {
            Status::Solution => {
                let inst = ace_logic::copy::copy_term(&sub.heap, sub_template, &mut m.heap);
                m.stats.cells_copied += inst.cells_copied as u64;
                items.push(inst.root);
                sub.backtrack();
            }
            Status::Failed => break,
            Status::Error(e) => {
                m.charge(sub.stats.cost);
                return m.error(format!("findall/3: {e}"));
            }
            other => {
                m.charge(sub.stats.cost);
                return m.error(format!("findall/3: unexpected sub-status {other:?}"));
            }
        }
    }
    m.charge(sub.stats.cost);
    let list = m.heap.list(&items);
    unify_or_backtrack(m, db, bag, list)
}

/// `msort/2` (order-preserving duplicates) and `sort/2` (dedup) by the
/// standard order of terms.
fn builtin_sort(m: &mut Machine, db: &Database, hdr: Addr, dedup: bool) -> Status {
    m.charge(m.costs.builtin);
    let input = m.heap.str_arg(hdr, 0);
    let out = m.heap.str_arg(hdr, 1);
    let Some(mut items) = ace_logic::term::proper_list(&m.heap, input) else {
        return m.error("sort/2: proper list expected");
    };
    m.charge((items.len() as u64) * (64 - (items.len() as u64).leading_zeros() as u64).max(1));
    items.sort_by(|a, b| term_compare(&m.heap, *a, *b));
    if dedup {
        items.dedup_by(|a, b| term_compare(&m.heap, *a, *b).is_eq());
    }
    let list = m.heap.list(&items);
    unify_or_backtrack(m, db, out, list)
}

fn builtin_reverse(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let input = m.heap.str_arg(hdr, 0);
    let out = m.heap.str_arg(hdr, 1);
    let Some(mut items) = ace_logic::term::proper_list(&m.heap, input) else {
        return m.error("reverse/2: proper list expected");
    };
    items.reverse();
    m.charge(items.len() as u64);
    let list = m.heap.list(&items);
    unify_or_backtrack(m, db, out, list)
}

/// `nth1(Index, List, Elem)` with a bound integer index.
fn builtin_nth1(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let idx = m.heap.str_arg(hdr, 0);
    let list = m.heap.str_arg(hdr, 1);
    let elem = m.heap.str_arg(hdr, 2);
    let TermView::Int(i) = view(&m.heap, idx) else {
        return m.error("nth1/3: bound integer index expected");
    };
    if i < 1 {
        return m.backtrack_in(db);
    }
    let mut it = ListIter::new(&m.heap, list);
    match it.nth((i - 1) as usize) {
        Some(cell) => unify_or_backtrack(m, db, elem, cell),
        None => m.backtrack_in(db),
    }
}

/// Internal `$answer(['X'=V, ...])`: record the bindings as one solution
/// line (or-parallel solution collection; survives state copying because
/// it rides in the continuation). The engine that wraps the query builds
/// the list once, in [`crate::solve::binding_order`]; the name side is a
/// variable-name atom, written raw.
fn builtin_answer(m: &mut Machine, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let heap = &m.heap;
    let bindings = || {
        ListIter::new(heap, heap.str_arg(hdr, 0)).map(|item| match view(heap, item) {
            TermView::Struct(f, 2, pair) if f == wk().unify => {
                match view(heap, heap.str_arg(pair, 0)) {
                    TermView::Atom(name) => Some((name.name(), heap.str_arg(pair, 1))),
                    _ => None,
                }
            }
            _ => None,
        })
    };
    if bindings().any(|b| b.is_none()) {
        return m.error("$answer/1: a list of 'Name'=Value expected");
    }
    let line = render_bindings(heap, bindings().flatten());
    m.answers.push(line);
    m.stats.solutions += 1;
    succeed(m)
}

fn succeed(m: &mut Machine) -> Status {
    m.status = Status::Running;
    Status::Running
}

fn builtin_unify(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let a = m.heap.str_arg(hdr, 0);
    let b = m.heap.str_arg(hdr, 1);
    let pre = m.heap.trail_mark();
    match unify(&mut m.heap, a, b) {
        Some(steps) => {
            m.stats.unify_steps += steps as u64;
            m.charge(steps as u64 * m.costs.unify_step);
            succeed(m)
        }
        None => {
            m.heap.undo_to(pre);
            m.backtrack_in(db)
        }
    }
}

fn builtin_not_unify(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let a = m.heap.str_arg(hdr, 0);
    let b = m.heap.str_arg(hdr, 1);
    let pre = m.heap.trail_mark();
    let unified = unify(&mut m.heap, a, b).is_some();
    m.heap.undo_to(pre);
    if unified {
        m.backtrack_in(db)
    } else {
        succeed(m)
    }
}

/// A term test (`==`, `@<`, `var/1`, …), the verdict the compiled body's
/// inline test step gives too.
fn builtin_term_test(m: &mut Machine, db: &Database, hdr: Addr, t: TermTest) -> Status {
    m.charge(m.costs.builtin);
    let a = m.heap.str_arg(hdr, 0);
    let b = if t.arity() == 2 {
        m.heap.str_arg(hdr, 1)
    } else {
        a
    };
    if t.holds(&m.heap, a, b) {
        succeed(m)
    } else {
        m.backtrack_in(db)
    }
}

fn builtin_is(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let lhs = m.heap.str_arg(hdr, 0);
    let rhs = m.heap.str_arg(hdr, 1);
    match arith::eval(&m.heap, rhs) {
        Ok((v, ops)) => {
            m.charge(ops as u64 * m.costs.arith_op);
            let pre = m.heap.trail_mark();
            match unify(&mut m.heap, lhs, Cell::Int(v)) {
                Some(_) => succeed(m),
                None => {
                    m.heap.undo_to(pre);
                    m.backtrack_in(db)
                }
            }
        }
        Err(e) => m.error(format!("is/2: {e}")),
    }
}

fn builtin_arith_compare(m: &mut Machine, db: &Database, op: Sym, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let a = m.heap.str_arg(hdr, 0);
    let b = m.heap.str_arg(hdr, 1);
    match arith::compare(&m.heap, op, a, b) {
        Ok((true, ops)) => {
            m.charge(ops as u64 * m.costs.arith_op);
            succeed(m)
        }
        Ok((false, ops)) => {
            m.charge(ops as u64 * m.costs.arith_op);
            m.backtrack_in(db)
        }
        Err(e) => m.error(format!("{}/2: {e}", op.name())),
    }
}

fn builtin_functor(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let t = m.heap.str_arg(hdr, 0);
    let name = m.heap.str_arg(hdr, 1);
    let arity = m.heap.str_arg(hdr, 2);
    match view(&m.heap, t) {
        TermView::Var(_) => {
            // construct: functor(T, Name, Arity)
            let nv = view(&m.heap, name);
            let av = view(&m.heap, arity);
            let (TermView::Int(a), true) = (av, !matches!(nv, TermView::Var(_))) else {
                return m.error("functor/3: insufficiently instantiated");
            };
            if !(0..=1_000_000).contains(&a) {
                return m.error("functor/3: bad arity");
            }
            let built = match (nv, a) {
                (TermView::Atom(s), 0) => Cell::Atom(s),
                (TermView::Int(i), 0) => Cell::Int(i),
                (TermView::Nil, 0) => Cell::Nil,
                (TermView::Atom(s), a) => {
                    let args: Vec<Cell> = (0..a).map(|_| m.heap.new_var()).collect();
                    m.stats.heap_cells += a as u64 + 1;
                    if s == wk().dot && a == 2 {
                        m.heap.cons(args[0], args[1])
                    } else {
                        m.heap.new_struct(s, &args)
                    }
                }
                _ => return m.error("functor/3: bad name/arity"),
            };
            unify_or_backtrack(m, db, t, built)
        }
        TermView::Atom(s) => {
            let pre = m.heap.trail_mark();
            if unify(&mut m.heap, name, Cell::Atom(s)).is_some()
                && unify(&mut m.heap, arity, Cell::Int(0)).is_some()
            {
                succeed(m)
            } else {
                m.heap.undo_to(pre);
                m.backtrack_in(db)
            }
        }
        TermView::Int(i) => {
            let pre = m.heap.trail_mark();
            if unify(&mut m.heap, name, Cell::Int(i)).is_some()
                && unify(&mut m.heap, arity, Cell::Int(0)).is_some()
            {
                succeed(m)
            } else {
                m.heap.undo_to(pre);
                m.backtrack_in(db)
            }
        }
        TermView::Nil => {
            let pre = m.heap.trail_mark();
            if unify(&mut m.heap, name, Cell::Nil).is_some()
                && unify(&mut m.heap, arity, Cell::Int(0)).is_some()
            {
                succeed(m)
            } else {
                m.heap.undo_to(pre);
                m.backtrack_in(db)
            }
        }
        TermView::Struct(f, a, _) => {
            let pre = m.heap.trail_mark();
            if unify(&mut m.heap, name, Cell::Atom(f)).is_some()
                && unify(&mut m.heap, arity, Cell::Int(a as i64)).is_some()
            {
                succeed(m)
            } else {
                m.heap.undo_to(pre);
                m.backtrack_in(db)
            }
        }
        TermView::List(_) => {
            let pre = m.heap.trail_mark();
            let dot = Cell::Atom(wk().dot);
            if unify(&mut m.heap, name, dot).is_some()
                && unify(&mut m.heap, arity, Cell::Int(2)).is_some()
            {
                succeed(m)
            } else {
                m.heap.undo_to(pre);
                m.backtrack_in(db)
            }
        }
    }
}

fn builtin_arg(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let n = m.heap.str_arg(hdr, 0);
    let t = m.heap.str_arg(hdr, 1);
    let a = m.heap.str_arg(hdr, 2);
    let TermView::Int(i) = view(&m.heap, n) else {
        return m.error("arg/3: index must be an integer");
    };
    let picked = match view(&m.heap, t) {
        TermView::Struct(_, arity, shdr) => {
            if i < 1 || i as u32 > arity {
                return m.backtrack_in(db);
            }
            m.heap.str_arg(shdr, (i - 1) as u32)
        }
        TermView::List(p) => match i {
            1 => m.heap.lst_head(p),
            2 => m.heap.lst_tail(p),
            _ => return m.backtrack_in(db),
        },
        _ => return m.error("arg/3: compound expected"),
    };
    unify_or_backtrack(m, db, a, picked)
}

fn builtin_univ(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let t = m.heap.str_arg(hdr, 0);
    let l = m.heap.str_arg(hdr, 1);
    match view(&m.heap, t) {
        TermView::Var(_) => {
            // construct from list
            let Some(items) = ace_logic::term::proper_list(&m.heap, l) else {
                return m.error("=../2: list expected");
            };
            if items.is_empty() {
                return m.error("=../2: empty list");
            }
            let head = view(&m.heap, items[0]);
            let built = match (head, items.len()) {
                (TermView::Atom(s), 1) => Cell::Atom(s),
                (TermView::Int(i), 1) => Cell::Int(i),
                (TermView::Nil, 1) => Cell::Nil,
                (TermView::Atom(s), _) => {
                    if s == wk().dot && items.len() == 3 {
                        m.heap.cons(items[1], items[2])
                    } else {
                        m.heap.new_struct(s, &items[1..])
                    }
                }
                _ => return m.error("=../2: bad functor"),
            };
            unify_or_backtrack(m, db, t, built)
        }
        TermView::Atom(s) => {
            let lst = m.heap.list(&[Cell::Atom(s)]);
            unify_or_backtrack(m, db, l, lst)
        }
        TermView::Int(i) => {
            let lst = m.heap.list(&[Cell::Int(i)]);
            unify_or_backtrack(m, db, l, lst)
        }
        TermView::Nil => {
            let lst = m.heap.list(&[Cell::Nil]);
            unify_or_backtrack(m, db, l, lst)
        }
        TermView::Struct(f, n, shdr) => {
            let mut items = vec![Cell::Atom(f)];
            items.extend((0..n).map(|i| m.heap.str_arg(shdr, i)));
            let lst = m.heap.list(&items);
            unify_or_backtrack(m, db, l, lst)
        }
        TermView::List(p) => {
            let items = vec![Cell::Atom(wk().dot), m.heap.lst_head(p), m.heap.lst_tail(p)];
            let lst = m.heap.list(&items);
            unify_or_backtrack(m, db, l, lst)
        }
    }
}

fn builtin_copy_term(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let t = m.heap.str_arg(hdr, 0);
    let c = m.heap.str_arg(hdr, 1);
    let out = copy_term_within(&mut m.heap, t);
    m.stats.cells_copied += out.cells_copied as u64;
    m.charge(out.cells_copied as u64 * m.costs.heap_cell);
    unify_or_backtrack(m, db, c, out.root)
}

fn builtin_length(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let l = m.heap.str_arg(hdr, 0);
    let n = m.heap.str_arg(hdr, 1);
    // Walk the list as far as it is instantiated.
    let mut count = 0i64;
    let mut it = ListIter::new(&m.heap, l);
    for _ in it.by_ref() {
        count += 1;
    }
    let rest = it.rest();
    match (view(&m.heap, rest), view(&m.heap, n)) {
        (TermView::Nil, _) => unify_or_backtrack(m, db, n, Cell::Int(count)),
        (TermView::Var(_), TermView::Int(total)) => {
            if total < count {
                return m.backtrack_in(db);
            }
            // extend with fresh variables up to the requested length
            let mut tail = Cell::Nil;
            let extra = (total - count) as usize;
            let vars: Vec<Cell> = (0..extra).map(|_| m.heap.new_var()).collect();
            for &v in vars.iter().rev() {
                tail = m.heap.cons(v, tail);
            }
            m.stats.heap_cells += (extra * 3) as u64;
            unify_or_backtrack(m, db, rest, tail)
        }
        _ => m.error("length/2: insufficiently instantiated"),
    }
}

fn builtin_between(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let lo_t = m.heap.str_arg(hdr, 0);
    let hi_t = m.heap.str_arg(hdr, 1);
    let x = m.heap.str_arg(hdr, 2);
    let (Ok((lo, o1)), Ok((hi, o2))) = (arith::eval(&m.heap, lo_t), arith::eval(&m.heap, hi_t))
    else {
        return m.error("between/3: bounds must evaluate to integers");
    };
    m.charge((o1 + o2) as u64 * m.costs.arith_op);
    match view(&m.heap, x) {
        TermView::Int(i) => {
            if lo <= i && i <= hi {
                succeed(m)
            } else {
                m.backtrack_in(db)
            }
        }
        TermView::Var(a) => {
            if lo > hi {
                return m.backtrack_in(db);
            }
            if lo < hi {
                let rest = Alts::Between {
                    var: x,
                    next: lo + 1,
                    hi,
                };
                m.push_choice(x, rest, m.cont, m.ctrl.len() as u32);
            }
            m.heap.bind(a, Cell::Int(lo));
            succeed(m)
        }
        _ => m.error("between/3: integer or variable expected"),
    }
}

fn builtin_compare3(m: &mut Machine, db: &Database, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let order = m.heap.str_arg(hdr, 0);
    let a = m.heap.str_arg(hdr, 1);
    let b = m.heap.str_arg(hdr, 2);
    let o = term_compare(&m.heap, a, b);
    let w = wk();
    let atom = Cell::Atom(match o {
        std::cmp::Ordering::Less => w.lt,
        std::cmp::Ordering::Equal => w.unify,
        std::cmp::Ordering::Greater => w.gt,
    });
    unify_or_backtrack(m, db, order, atom)
}

fn builtin_write(m: &mut Machine, hdr: Addr, newline: bool) -> Status {
    m.charge(m.costs.builtin);
    let t = m.heap.str_arg(hdr, 0);
    write_term_to(&mut m.output, &m.heap, t);
    if newline {
        m.output.push('\n');
    }
    succeed(m)
}

fn builtin_tab(m: &mut Machine, hdr: Addr) -> Status {
    m.charge(m.costs.builtin);
    let t = m.heap.str_arg(hdr, 0);
    match arith::eval(&m.heap, t) {
        Ok((n, _)) if n >= 0 => {
            for _ in 0..n.min(10_000) {
                m.output.push(' ');
            }
            succeed(m)
        }
        _ => m.error("tab/1: non-negative integer expected"),
    }
}

fn unify_or_backtrack(m: &mut Machine, db: &Database, a: Cell, b: Cell) -> Status {
    let pre = m.heap.trail_mark();
    match unify(&mut m.heap, a, b) {
        Some(steps) => {
            m.stats.unify_steps += steps as u64;
            m.charge(steps as u64 * m.costs.unify_step);
            succeed(m)
        }
        None => {
            m.heap.undo_to(pre);
            m.backtrack_in(db)
        }
    }
}
