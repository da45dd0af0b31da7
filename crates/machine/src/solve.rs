//! Convenience solution iteration over a sequential machine.
//!
//! [`Solver`] wraps a [`Machine`] with query parsing, named-variable
//! binding extraction and `Iterator`-style solution enumeration. It is the
//! sequential baseline the parallel engines are compared against, and the
//! reference oracle for cross-engine equivalence tests.
//!
//! It is also where an answer becomes text: `render_bindings` is the one
//! writer of an answer line — behind [`Machine::answer_line`] for this
//! module and the and-engine's root solutions, and behind the `$answer/1`
//! goal the or-engine appends to its query.

use std::cmp::Ordering;
use std::sync::Arc;

use ace_logic::write::write_term_to;
use ace_logic::{Cell, Database, Heap};
use ace_runtime::fault::FAULT_ERROR_PREFIX;
use ace_runtime::{CancelToken, CostModel};

use crate::machine::{Machine, Status};

/// The order in which an answer line names its variables: by `name=`, the
/// text each binding starts with. A name contains no `=`, so this is the
/// order sorting the finished `name=value` strings would give (`X1=…`
/// before `X=…`: `1` sorts below `=`) — decided once per query, not once
/// per answer.
pub fn binding_order(a: &str, b: &str) -> Ordering {
    fn key(name: &str) -> impl Iterator<Item = u8> + '_ {
        name.bytes().chain(std::iter::once(b'='))
    }
    key(a).cmp(key(b))
}

/// The canonical single line `X=1, Y=f(a)` for `vars`, which the caller
/// keeps in [`binding_order`]; values are terms of `heap`. The line is
/// written in place and is the one allocation of an answer that fits
/// [`LINE_ROOM`]; a longer line grows by doubling.
pub(crate) fn render_bindings<'a>(
    heap: &Heap,
    vars: impl IntoIterator<Item = (&'a str, Cell)>,
) -> String {
    let mut line = String::with_capacity(LINE_ROOM);
    for (i, (name, value)) in vars.into_iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(name);
        line.push('=');
        write_term_to(&mut line, heap, value);
    }
    line
}

/// The room a line starts with: what the allocator's smallest block
/// holds, so asking for less would save nothing.
const LINE_ROOM: usize = 24;

/// One solution: the query's named variables and their values, as the
/// line [`Machine::answer_line`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    line: String,
}

impl Solution {
    /// A solution whose line is `line`.
    pub fn new(line: String) -> Solution {
        Solution { line }
    }

    /// Canonical single-line rendering `X=1, Y=f(a)` (sorted by name).
    pub fn render(&self) -> String {
        self.line.clone()
    }

    /// The rendered line itself.
    pub fn into_line(self) -> String {
        self.line
    }
}

impl AsRef<str> for Solution {
    fn as_ref(&self) -> &str {
        &self.line
    }
}

/// Errors raised while solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    Parse(String),
    Execution(String),
    /// The run was stopped by an external [`CancelToken`]. Displays with
    /// the stable `fault:` prefix so the facade classifies it as a
    /// recoverable infrastructure failure, not a program error.
    Cancelled,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Parse(e) => write!(f, "parse error: {e}"),
            SolveError::Execution(e) => write!(f, "execution error: {e}"),
            SolveError::Cancelled => write!(f, "{FAULT_ERROR_PREFIX} run cancelled"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Sequential query evaluator.
pub struct Solver {
    machine: Machine,
    /// The program `machine` runs, held beside it so that a solution step
    /// borrows it instead of counting a reference.
    db: Arc<Database>,
    /// The query's named variables, in [`binding_order`].
    vars: Vec<(String, Cell)>,
    /// Pending backtrack before producing the next solution.
    need_backtrack: bool,
    exhausted: bool,
    /// External cancellation, polled between resolution quanta (deadline
    /// watchdogs and session cancellation reach the sequential engine
    /// through this; `None` runs uninterrupted as before).
    cancel: Option<CancelToken>,
}

impl Solver {
    /// Parse `query` (without the `?-` wrapper) against `db`.
    pub fn new(db: Arc<Database>, costs: Arc<CostModel>, query: &str) -> Result<Self, SolveError> {
        let mut machine = Machine::new(db.clone(), costs);
        let vars = machine
            .load_query_text(query)
            .map_err(|e| SolveError::Parse(e.to_string()))?;
        Ok(Solver {
            machine,
            db,
            vars,
            need_backtrack: false,
            exhausted: false,
            cancel: None,
        })
    }

    /// Poll `token` between resolution quanta; a cancelled token ends the
    /// enumeration with a `fault: run cancelled` execution error (the
    /// same classification the parallel engines use).
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Produce the next solution, or `None` when the search is exhausted.
    pub fn next_solution(&mut self) -> Result<Option<Solution>, SolveError> {
        Ok(self.next_line()?.map(Solution::new))
    }

    /// [`Solver::next_solution`] as the rendered line itself.
    pub fn next_line(&mut self) -> Result<Option<String>, SolveError> {
        if self.exhausted {
            return Ok(None);
        }
        let retry = std::mem::take(&mut self.need_backtrack);
        let status = self
            .machine
            .next_outcome(&self.db, retry, self.cancel.as_ref());
        match status {
            Status::Solution => {
                self.need_backtrack = true;
                Ok(Some(self.machine.answer_line(&self.vars)))
            }
            Status::Failed | Status::Halted => {
                self.exhausted = true;
                Ok(None)
            }
            Status::Error(e) => {
                self.exhausted = true;
                Err(SolveError::Execution(e))
            }
            Status::Cancelled => {
                self.exhausted = true;
                Err(SolveError::Cancelled)
            }
            other => {
                self.exhausted = true;
                Err(SolveError::Execution(format!(
                    "unexpected status in sequential solve: {other:?}"
                )))
            }
        }
    }

    /// Collect up to `limit` solutions (all if `None`).
    pub fn collect_solutions(&mut self, limit: Option<usize>) -> Result<Vec<Solution>, SolveError> {
        let mut out = Vec::new();
        while limit.is_none_or(|l| out.len() < l) {
            match self.next_solution()? {
                Some(s) => out.push(s),
                None => break,
            }
        }
        Ok(out)
    }

    /// Does the query have at least one solution?
    pub fn is_provable(&mut self) -> Result<bool, SolveError> {
        Ok(self.next_solution()?.is_some())
    }

    /// Access the underlying machine (stats, output).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

/// One-shot helper: all solutions of `query` against `db`, rendered.
pub fn all_solutions(db: &Arc<Database>, query: &str) -> Result<Vec<String>, SolveError> {
    let mut s = Solver::new(db.clone(), Arc::new(CostModel::default()), query)?;
    Ok(s.collect_solutions(None)?
        .into_iter()
        .map(Solution::into_line)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::Database;

    fn db(src: &str) -> Arc<Database> {
        Arc::new(Database::load(src).unwrap())
    }

    const LISTS: &str = r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
        member(X, [X|_]).
        member(X, [_|T]) :- member(X, T).
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
    "#;

    #[test]
    fn facts() {
        let db = db("p(1). p(2). p(3).");
        let sols = all_solutions(&db, "p(X)").unwrap();
        assert_eq!(sols, vec!["X=1", "X=2", "X=3"]);
    }

    #[test]
    fn pre_cancelled_token_stops_enumeration_as_a_fault() {
        let d = db("spin(N) :- ( N =< 0 -> true ; N1 is N - 1, spin(N1) ).");
        let mut s = Solver::new(d, Arc::new(CostModel::default()), "spin(100000000)").unwrap();
        let tok = CancelToken::new();
        s.set_cancel(tok.clone());
        tok.cancel();
        let err = s.next_solution().unwrap_err();
        assert_eq!(err, SolveError::Cancelled);
        assert!(err.to_string().starts_with(FAULT_ERROR_PREFIX), "{err}");
        // enumeration is over after a cancellation
        assert_eq!(s.next_solution(), Ok(None));
    }

    #[test]
    fn uncancelled_token_does_not_perturb_solutions() {
        let d = db("p(1). p(2). p(3).");
        let mut s = Solver::new(d, Arc::new(CostModel::default()), "p(X)").unwrap();
        s.set_cancel(CancelToken::new());
        let sols = s.collect_solutions(None).unwrap();
        let rendered: Vec<String> = sols.iter().map(Solution::render).collect();
        assert_eq!(rendered, vec!["X=1", "X=2", "X=3"]);
    }

    #[test]
    fn conjunction_and_unification() {
        let db = db("p(1). p(2). q(2). q(3).");
        let sols = all_solutions(&db, "p(X), q(X)").unwrap();
        assert_eq!(sols, vec!["X=2"]);
    }

    #[test]
    fn append_forwards_and_backwards() {
        let d = db(LISTS);
        let sols = all_solutions(&d, "append([1,2], [3], L)").unwrap();
        assert_eq!(sols, vec!["L=[1,2,3]"]);
        // backwards: all splits of [1,2]
        let sols = all_solutions(&d, "append(A, B, [1,2])").unwrap();
        assert_eq!(sols, vec!["A=[], B=[1,2]", "A=[1], B=[2]", "A=[1,2], B=[]"]);
    }

    #[test]
    fn member_enumerates() {
        let d = db(LISTS);
        let sols = all_solutions(&d, "member(X, [a,b,c])").unwrap();
        assert_eq!(sols, vec!["X=a", "X=b", "X=c"]);
    }

    #[test]
    fn naive_reverse() {
        let d = db(LISTS);
        let sols = all_solutions(&d, "nrev([1,2,3,4,5], R)").unwrap();
        assert_eq!(sols, vec!["R=[5,4,3,2,1]"]);
    }

    #[test]
    fn arithmetic() {
        let d = db("double(X, Y) :- Y is X * 2.");
        let sols = all_solutions(&d, "double(21, Y)").unwrap();
        assert_eq!(sols, vec!["Y=42"]);
    }

    #[test]
    fn recursion_with_arith() {
        let d = db(r#"
            fact(0, 1).
            fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
        "#);
        let sols = all_solutions(&d, "fact(10, F)").unwrap();
        assert_eq!(sols, vec!["F=3628800"]);
    }

    #[test]
    fn cut_commits() {
        let d = db(r#"
            max(X, Y, X) :- X >= Y, !.
            max(_, Y, Y).
        "#);
        assert_eq!(all_solutions(&d, "max(3, 2, M)").unwrap(), vec!["M=3"]);
        assert_eq!(all_solutions(&d, "max(1, 2, M)").unwrap(), vec!["M=2"]);
    }

    #[test]
    fn cut_in_first_clause_prunes_alternatives() {
        let d = db("p(1) :- !. p(2). p(3).");
        assert_eq!(all_solutions(&d, "p(X)").unwrap(), vec!["X=1"]);
    }

    #[test]
    fn negation_as_failure() {
        let d = db("p(1). q(2).");
        assert_eq!(all_solutions(&d, "\\+ p(2)").unwrap().len(), 1);
        assert_eq!(all_solutions(&d, "\\+ p(1)").unwrap().len(), 0);
    }

    #[test]
    fn if_then_else() {
        let d = db("classify(X, neg) :- (X < 0 -> true ; fail). classify(X, nonneg) :- (X < 0 -> fail ; true).");
        assert_eq!(all_solutions(&d, "classify(-5, C)").unwrap(), vec!["C=neg"]);
        assert_eq!(
            all_solutions(&d, "classify(5, C)").unwrap(),
            vec!["C=nonneg"]
        );
    }

    #[test]
    fn disjunction_both_branches() {
        let d = db("p(1).");
        let sols = all_solutions(&d, "(X = a ; X = b)").unwrap();
        assert_eq!(sols, vec!["X=a", "X=b"]);
    }

    #[test]
    fn between_generates() {
        let d = db("p(1).");
        let sols = all_solutions(&d, "between(1, 4, X)").unwrap();
        assert_eq!(sols, vec!["X=1", "X=2", "X=3", "X=4"]);
    }

    #[test]
    fn between_checks() {
        let d = db("p(1).");
        assert_eq!(all_solutions(&d, "between(1, 4, 3)").unwrap().len(), 1);
        assert_eq!(all_solutions(&d, "between(1, 4, 9)").unwrap().len(), 0);
    }

    #[test]
    fn call_n() {
        let d = db("add(X, Y, Z) :- Z is X + Y.");
        let sols = all_solutions(&d, "call(add, 1, 2, Z)").unwrap();
        assert_eq!(sols, vec!["Z=3"]);
        let sols = all_solutions(&d, "call(add(1), 2, Z)").unwrap();
        assert_eq!(sols, vec!["Z=3"]);
    }

    #[test]
    fn undefined_predicate_is_error() {
        let d = db("p(1).");
        assert!(matches!(
            all_solutions(&d, "no_such_thing(X)"),
            Err(SolveError::Execution(_))
        ));
    }

    #[test]
    fn instantiation_fault_is_error() {
        let d = db("p(1).");
        assert!(matches!(
            all_solutions(&d, "Y is X + 1"),
            Err(SolveError::Execution(_))
        ));
    }

    #[test]
    fn amp_behaves_as_comma_sequentially() {
        let d = db("p(1). q(2).");
        let sols = all_solutions(&d, "p(X) & q(Y)").unwrap();
        assert_eq!(sols, vec!["X=1, Y=2"]);
    }

    #[test]
    fn functor_and_arg_and_univ() {
        let d = db("p(1).");
        assert_eq!(
            all_solutions(&d, "functor(f(a,b), N, A)").unwrap(),
            vec!["A=2, N=f"]
        );
        assert_eq!(all_solutions(&d, "arg(2, f(a,b), X)").unwrap(), vec!["X=b"]);
        assert_eq!(
            all_solutions(&d, "f(a,b) =.. L").unwrap(),
            vec!["L=[f,a,b]"]
        );
        assert_eq!(
            all_solutions(&d, "T =.. [g, 1, 2]").unwrap(),
            vec!["T=g(1,2)"]
        );
        let sols = all_solutions(&d, "functor(T, h, 2)").unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols[0].starts_with("T=h(_G"), "{sols:?}");
    }

    #[test]
    fn length_both_modes() {
        let d = db("p(1).");
        assert_eq!(
            all_solutions(&d, "length([a,b,c], N)").unwrap(),
            vec!["N=3"]
        );
        let sols = all_solutions(&d, "length(L, 2)").unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols[0].starts_with("L=[_G"));
    }

    #[test]
    fn write_captures_output() {
        let d = db("greet :- write(hello), nl, writeln(world).");
        let mut s = Solver::new(d, Arc::new(CostModel::default()), "greet").unwrap();
        assert!(s.is_provable().unwrap());
        assert_eq!(s.machine().output, "hello\nworld\n");
    }

    #[test]
    fn solution_limit() {
        let d = db("p(1). p(2). p(3). p(4).");
        let mut s = Solver::new(d, Arc::new(CostModel::default()), "p(X)").unwrap();
        let sols = s.collect_solutions(Some(2)).unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn stats_are_collected() {
        let d = db(LISTS);
        let mut s =
            Solver::new(d, Arc::new(CostModel::default()), "nrev([1,2,3,4,5,6], R)").unwrap();
        s.next_solution().unwrap().unwrap();
        let st = &s.machine().stats;
        assert!(st.calls > 20);
        assert!(st.cost > 100);
        // first-argument indexing makes nrev fully deterministic
        assert_eq!(st.choice_points, 0);

        // enumeration through member/2 does allocate choice points
        let d2 = db(LISTS);
        let mut s2 =
            Solver::new(d2, Arc::new(CostModel::default()), "member(X, [1,2,3,4])").unwrap();
        let all = s2.collect_solutions(None).unwrap();
        assert_eq!(all.len(), 4);
        assert!(s2.machine().stats.choice_points > 0);
        assert!(s2.machine().stats.backtracks > 0);
    }

    #[test]
    fn deep_recursion_does_not_overflow() {
        let d = db(r#"
            count(0) :- !.
            count(N) :- M is N - 1, count(M).
        "#);
        assert_eq!(all_solutions(&d, "count(100000)").unwrap().len(), 1);
    }

    #[test]
    fn nondeterministic_generate_and_test() {
        let d = db(r#"
            num(1). num(2). num(3). num(4). num(5).
            even(X) :- Y is X mod 2, Y =:= 0.
            pick(X) :- num(X), even(X).
        "#);
        assert_eq!(all_solutions(&d, "pick(X)").unwrap(), vec!["X=2", "X=4"]);
    }
}
