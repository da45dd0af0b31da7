//! A tiny interactive Prolog REPL over the ACE engines.
//!
//! ```sh
//! cargo run --release --example repl -- crates/programs/pl/lists.pl
//! ```
//!
//! Commands:
//! * `?- Goal.` — solve sequentially (all solutions)
//! * `:and N ?- Goal.` — solve on the and-parallel engine with N workers
//! * `:or N ?- Goal.` — solve on the or-parallel engine with N workers
//! * `:memo` — toggle answer memoization of determinate calls
//! * `:table` — toggle SLG tabling for `:- table(p/n)` predicates
//!   (left recursion terminates)
//! * `:store-stats` — size and counters of the session's answer store:
//!   memoized answers and completed tables persist in it across queries
//!   and engines until both toggles are off, which clears it
//! * `:metrics` — dump the session's live metrics registry in the
//!   Prometheus text format (every query folds into it)
//! * `:listing p/n` — clause sources with their compiled register code
//!   and the predicate's switch-on-term dispatch buckets: the first
//!   argument's, and every argument index a query has built since
//! * `:quit`

use std::io::{BufRead, Write};
use std::sync::Arc;

use ace_core::{Ace, Mode};
use ace_runtime::{AnswerStore, EngineConfig, MetricsRegistry, OptFlags, StoreConfig};

fn main() {
    let mut program = String::new();
    for path in std::env::args().skip(1) {
        match std::fs::read_to_string(&path) {
            Ok(src) => program.push_str(&src),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if program.is_empty() {
        program.push_str("member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).\n");
        println!("(no program files given; loaded member/2 as a demo)");
    }
    let ace = match Ace::load(&program) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("load error: {e}");
            std::process::exit(1);
        }
    };
    println!("ACE repl — `?- goal.` to query, `:quit` to exit.");

    // One answer store for the whole session: answers memoized and
    // fixpoints completed by any engine on any query are pure lookups on
    // every later one, until `:memo` and `:table` are both off.
    let fresh_store = || Arc::new(AnswerStore::new(&StoreConfig::default()));
    let mut store = fresh_store();
    let (mut memoize, mut tabling) = (false, false);
    // One metrics registry for the whole session; every query's run folds
    // into it and `:metrics` scrapes it.
    let metrics = MetricsRegistry::shared();

    let stdin = std::io::stdin();
    loop {
        print!("> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":memo" || line == ":table" {
            let (switch, what) = if line == ":memo" {
                (&mut memoize, "memoization")
            } else {
                (&mut tabling, "tabling")
            };
            *switch = !*switch;
            println!("{what} {}.", if *switch { "on" } else { "off" });
            if !(memoize || tabling) {
                store = fresh_store();
                println!("answer store cleared.");
            }
            continue;
        }
        if line == ":store-stats" {
            let c = store.counters();
            println!(
                "{} entries ({} complete); {} hit(s), {} miss(es), {} registered, \
                 {} store(s), {} eviction(s)",
                store.len(),
                store.complete_len(),
                c.hits,
                c.misses,
                c.registered,
                c.stores,
                c.evictions
            );
            continue;
        }
        if line == ":metrics" {
            let snap = metrics.snapshot();
            if snap.is_empty() {
                println!("no metrics recorded yet — run a query first.");
            } else {
                print!("{}", snap.render_prometheus());
            }
            continue;
        }
        if let Some(spec) = line.strip_prefix(":listing") {
            listing(&ace, spec.trim());
            continue;
        }
        let (mode, workers, rest) = parse_command(line);
        let goal = rest
            .trim()
            .trim_start_matches("?-")
            .trim()
            .trim_end_matches('.');
        if goal.is_empty() {
            println!("usage: ?- goal.   or   :and 4 ?- goal.");
            continue;
        }
        let mut cfg = EngineConfig::default()
            .with_workers(workers)
            .with_opts(OptFlags::all())
            .with_metrics(metrics.clone())
            .all_solutions();
        cfg.store.shared = Some(store.clone());
        cfg.store.memoize = memoize;
        cfg.store.tabling = tabling;
        match ace.run(mode, goal, &cfg) {
            Ok(r) => {
                if r.solutions.is_empty() {
                    println!("no.");
                } else {
                    for s in &r.solutions {
                        println!("{}", if s.is_empty() { "yes." } else { s });
                    }
                    let lookups = r.stats.memo_hits + r.stats.memo_misses;
                    let memo_note = if lookups > 0 {
                        format!(", memo {}/{} hit(s)", r.stats.memo_hits, lookups)
                    } else {
                        String::new()
                    };
                    let tabled = r.stats.table_subgoals + r.stats.table_hits;
                    let table_note = if tabled > 0 {
                        format!(
                            ", table {} subgoal(s)/{} hit(s)",
                            r.stats.table_subgoals, r.stats.table_hits
                        )
                    } else {
                        String::new()
                    };
                    println!(
                        "({} solution(s), virtual time {}{memo_note}{table_note})",
                        r.solutions.len(),
                        r.virtual_time
                    );
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

/// `:listing p/n` — print each clause of the predicate (reconstructed
/// from its arena) together with the register code it was compiled to at
/// load time, then the switch-on-term dispatch table.
fn listing(ace: &Ace, spec: &str) {
    use ace_logic::write::term_to_string;

    let parsed = spec
        .rsplit_once('/')
        .and_then(|(n, a)| a.trim().parse::<u32>().ok().map(|a| (n.trim(), a)));
    let Some((name, arity)) = parsed else {
        println!("usage: :listing name/arity   (e.g. :listing member/2)");
        return;
    };
    let Some(pred) = ace.db().predicate(ace_logic::sym::sym(name), arity) else {
        println!("no clauses for {name}/{arity}.");
        return;
    };
    for (i, clause) in pred.clauses.iter().enumerate() {
        let mut arena = ace_logic::Heap::default();
        let (head, body) = clause.instantiate(&mut arena);
        let head_txt = term_to_string(&arena, head);
        let body_txt = term_to_string(&arena, body);
        if clause.code().is_fact() {
            println!("% clause {i}: {head_txt}.");
        } else {
            println!("% clause {i}: {head_txt} :- {body_txt}.");
        }
        for l in clause.code().disassemble() {
            println!("    {l}");
        }
    }
    // The first argument's table, then every argument index a call has
    // built since the load.
    for (arg, buckets) in pred.index_buckets() {
        println!("% switch-on-term dispatch on argument {}:", arg + 1);
        for (key, chain) in buckets {
            println!("%   {key:<18} -> clauses {chain:?}");
        }
    }
}

fn parse_command(line: &str) -> (Mode, usize, &str) {
    if let Some(rest) = line.strip_prefix(":and") {
        let mut parts = rest.trim_start().splitn(2, ' ');
        let n = parts.next().and_then(|p| p.parse().ok()).unwrap_or(4);
        return (Mode::AndParallel, n, parts.next().unwrap_or(""));
    }
    if let Some(rest) = line.strip_prefix(":or") {
        let mut parts = rest.trim_start().splitn(2, ' ');
        let n = parts.next().and_then(|p| p.parse().ok()).unwrap_or(4);
        return (Mode::OrParallel, n, parts.next().unwrap_or(""));
    }
    (Mode::Sequential, 1, line)
}
