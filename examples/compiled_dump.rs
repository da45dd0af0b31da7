//! Dump the clause code cache: every user predicate's clauses with the
//! register code they were compiled to at load time, the switch-on-term
//! dispatch buckets, and a side-by-side run showing what the compiled
//! mode saves over the tree-walking interpreter oracle.
//!
//! ```sh
//! cargo run --release --example compiled_dump            # built-in demo
//! cargo run --release --example compiled_dump -- my.pl   # your program
//! ```

use ace_core::{Ace, Mode};
use ace_logic::write::term_to_string;
use ace_runtime::{ClauseExec, EngineConfig};

const DEMO: &str = r#"
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).
    kind(0, zero).
    kind(N, pos) :- N > 0.
    kind(N, neg) :- N < 0.
    kind([], empty_list).
    kind([_|_], list).
    kind(f(_), functor).
"#;

fn main() -> Result<(), String> {
    let (program, query) = match std::env::args().nth(1) {
        Some(path) => (
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?,
            None,
        ),
        None => (DEMO.to_string(), Some("nrev([1,2,3,4,5,6,7,8], R)")),
    };
    let ace = Ace::load(&program)?;

    let mut preds: Vec<_> = ace.db().predicates().collect();
    preds.sort_by_key(|&(name, arity)| (name.name(), arity));
    for (name, arity) in preds {
        let Some(pred) = ace.db().predicate(name, arity) else {
            continue;
        };
        println!(
            "=== {}/{arity} ({} clause(s)) ===",
            name.name(),
            pred.clauses.len()
        );
        for (i, clause) in pred.clauses.iter().enumerate() {
            let mut arena = ace_logic::Heap::default();
            let (head, body) = clause.instantiate(&mut arena);
            if clause.code().is_fact() {
                println!("% {i}: {}.", term_to_string(&arena, head));
            } else {
                println!(
                    "% {i}: {} :- {}.",
                    term_to_string(&arena, head),
                    term_to_string(&arena, body)
                );
            }
            for line in clause.code().disassemble() {
                println!("    {line}");
            }
        }
        println!("  switch-on-term dispatch:");
        for (key, chain) in pred.index_buckets() {
            println!("    {key:<18} -> clauses {chain:?}");
        }
        println!();
    }

    // What the code cache buys at run time: same query, same answers,
    // compiled dispatch vs the interpreter oracle.
    if let Some(q) = query {
        let compiled = ace.run(
            Mode::Sequential,
            q,
            &EngineConfig::default().all_solutions(),
        )?;
        let interp = ace.run(
            Mode::Sequential,
            q,
            &EngineConfig::default()
                .all_solutions()
                .with_clause_exec(ClauseExec::Interpreted),
        )?;
        assert_eq!(compiled.solutions, interp.solutions);
        println!("?- {q}.   ({} solution(s))", compiled.solutions.len());
        println!(
            "  interpreter oracle: virtual time {:>8}",
            interp.virtual_time
        );
        println!(
            "  compiled code     : virtual time {:>8}  ({:.2}x, {} code-cache hits, \
             {} clauses skipped by index, {} determinate calls)",
            compiled.virtual_time,
            interp.virtual_time as f64 / compiled.virtual_time.max(1) as f64,
            compiled.stats.code_cache_hits,
            compiled.stats.clauses_skipped_by_index,
            compiled.stats.index_determinate_calls,
        );
    }
    Ok(())
}
