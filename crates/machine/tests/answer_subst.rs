//! Stored answers are substitutions: the bindings of a call's variables
//! in the order its key numbers them. A table filled on one machine
//! replays on another by binding that machine's variables, wherever they
//! sit on its heap, and a replayed answer is priced as the bindings it
//! makes, not as a thaw and a re-unification of the whole call.

use std::sync::Arc;

use proptest::prelude::*;

use ace_logic::Database;
use ace_machine::Solver;
use ace_runtime::{CostModel, EngineConfig, Stats};
use ace_table::{AnswerStore, StoreConfig};

fn db(src: &str) -> Arc<Database> {
    Arc::new(Database::load(src).unwrap())
}

fn store() -> Arc<AnswerStore> {
    Arc::new(AnswerStore::new(&StoreConfig::default()))
}

fn solver(d: &Arc<Database>, query: &str, store: Option<Arc<AnswerStore>>, memo: bool) -> Solver {
    let mut cfg = EngineConfig::default();
    cfg.store.tabling = !memo;
    cfg.store.memoize = memo;
    let mut s = Solver::new(d.clone(), Arc::new(CostModel::default()), query).unwrap();
    s.machine_mut().set_store(store, &cfg, false);
    s
}

fn all(s: &mut Solver) -> Vec<String> {
    s.collect_solutions(None)
        .unwrap()
        .into_iter()
        .map(|sol| sol.render())
        .collect()
}

/// `line` with its unbound variables (`_G<address>`) renamed `_0`, `_1`,
/// … in first-occurrence order: equal for answers that are variants of
/// each other, wherever their variables sit.
fn canonical(line: &str) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find("_G") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 2..];
        let len = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        let name = &rest[at..at + 2 + len];
        let id = match names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        out.push_str(&format!("_{id}"));
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

/// The distinct answers of `lines`, canonical and sorted.
fn answer_set(lines: &[String]) -> Vec<String> {
    let mut set: Vec<String> = lines.iter().map(|l| canonical(l)).collect();
    set.sort();
    set.dedup();
    set
}

/// Fact arguments: atomic, compound, ground and not, a variable repeated
/// inside one. Each argument position names its variables apart (`A0`,
/// `A1`, …), so no call unifies into a cyclic term, which would have no
/// line to print.
const FACT_ARGS: [&str; 8] = [
    "a",
    "1",
    "f(A)",
    "[A|B]",
    "g(A, A)",
    "A",
    "B",
    "h(b, [1, 2])",
];

/// Call arguments: bound ones, and variables that may repeat.
const CALL_ARGS: [&str; 6] = ["X", "Y", "Z", "a", "f(X)", "[1|Y]"];

fn program(facts: &[(usize, usize, usize)]) -> String {
    let mut src = String::from(":- table(t/3).\n");
    for &(a, b, c) in facts {
        let arg = |pos: usize, i: usize| {
            FACT_ARGS[i]
                .replace('A', &format!("A{pos}"))
                .replace('B', &format!("B{pos}"))
        };
        let (a, b, c) = (arg(0, a), arg(1, b), arg(2, c));
        src.push_str(&format!("t({a}, {b}, {c}).\n"));
    }
    src
}

/// The variables of `args`, in reverse order of first occurrence.
fn reversed_vars(args: &[&str]) -> Vec<&'static str> {
    let mut vars: Vec<&'static str> = Vec::new();
    for a in args {
        for v in ["X", "Y", "Z"] {
            if a.contains(v) && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars.reverse();
    vars
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A table filled by one machine replays on a second machine whose
    /// call variables were allocated in the opposite order (so they sit at
    /// other addresses, in another address order): both give the
    /// untabled oracle's answers, and the second is a pure lookup.
    #[test]
    fn a_table_filled_on_one_machine_replays_on_another(
        facts in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 1..7),
        call in (0usize..6, 0usize..6, 0usize..6),
    ) {
        let d = db(&program(&facts));
        let args = [call.0, call.1, call.2].map(|i| CALL_ARGS[i]);
        let query = format!("t({}, {}, {})", args[0], args[1], args[2]);
        let oracle = answer_set(&all(&mut solver(&d, &query, None, false)));

        let shared = store();
        let mut cold = solver(&d, &query, Some(shared.clone()), false);
        let got = answer_set(&all(&mut cold));
        prop_assert!(got == oracle, "cold {}: {:?} != {:?}", query, got, oracle);
        prop_assert_eq!(cold.machine().stats.table_completes, 1);

        let vars = reversed_vars(&args);
        let warm_query = if vars.is_empty() {
            query.clone()
        } else {
            format!("_ = w({}), {query}", vars.join(", "))
        };
        let mut warm = solver(&d, &warm_query, Some(shared), false);
        let lines = all(&mut warm);
        // One line per stored answer: a variant is stored once.
        prop_assert_eq!(lines.len(), oracle.len());
        let got = answer_set(&lines);
        prop_assert!(got == oracle, "warm {}: {:?} != {:?}", warm_query, got, oracle);
        let st = &warm.machine().stats;
        prop_assert_eq!((st.table_hits, st.table_subgoals), (1, 0));
    }
}

/// `sg(p, Y)` with `n` answers, each `Y` an atom.
fn fan(n: usize) -> String {
    let mut src = String::from(":- table(sg/2).\nsg(X, Y) :- e(X, Y).\n");
    for i in 0..n {
        src.push_str(&format!("e(p, y{i}).\n"));
    }
    src
}

/// The stats of a warm `query`: its store filled by a cold run first.
fn warm_stats(src: &str, query: &str, memo: bool) -> Stats {
    let d = db(src);
    let shared = store();
    all(&mut solver(&d, query, Some(shared.clone()), memo));
    let mut warm = solver(&d, query, Some(shared), memo);
    all(&mut warm);
    warm.machine().stats
}

#[test]
fn a_warm_replay_binds_one_variable_per_answer_and_copies_nothing() {
    let (few, many) = (
        warm_stats(&fan(4), "sg(p, Y)", false),
        warm_stats(&fan(36), "sg(p, Y)", false),
    );
    assert_eq!((few.table_hits, many.table_hits), (1, 1));
    // Thirty-two more answers: as many more bindings, and not one more
    // cell (a full answer would thaw `sg(p, yI)`, 3 cells, and unify 3
    // nodes).
    assert_eq!(many.heap_cells, few.heap_cells, "{}", many.summary());
    assert_eq!(many.unify_steps - few.unify_steps, 32, "{}", many.summary());
    // Per answer: a retry, an answer-list step, one binding, and the
    // undoing of that binding at the next retry.
    let costs = CostModel::default();
    let per_answer =
        costs.choice_point_retry + costs.memo_lookup + costs.unify_step + costs.trail_undo;
    assert_eq!(many.cost - few.cost, 32 * per_answer);
}

#[test]
fn a_memo_hit_copies_only_the_bound_variables_value() {
    let src = "cell(R) :- R = [1, 2, 3].";
    let warm = warm_stats(src, "cell(R)", true);
    assert_eq!((warm.memo_hits, warm.memo_misses), (1, 0));
    // The three list pairs `R` is bound to; `cell/1` itself is not
    // rebuilt, nor unified.
    assert_eq!(warm.heap_cells, 6, "{}", warm.summary());
    assert_eq!(warm.unify_steps, 1, "{}", warm.summary());
}
