//! Criterion micro-benchmarks for the substrate hot paths: unification,
//! term copying, clause instantiation, parsing, and machine resolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ace_logic::copy::{copy_term, copy_tuple};
use ace_logic::{parse_term, Cell, Database, Heap};
use ace_machine::{Machine, Solver, Status};
use ace_runtime::{CostModel, EngineConfig};

fn deep_list(heap: &mut Heap, n: usize) -> Cell {
    let items: Vec<Cell> = (0..n as i64).map(Cell::Int).collect();
    heap.list(&items)
}

fn bench_unify(c: &mut Criterion) {
    c.bench_function("unify/list-100-against-var", |b| {
        let mut heap = Heap::new();
        let l = deep_list(&mut heap, 100);
        b.iter(|| {
            let mark = heap.trail_mark();
            let hmark = heap.heap_mark();
            let v = heap.new_var();
            let r = ace_logic::unify::unify(&mut heap, v, l);
            black_box(&r);
            heap.undo_to(mark);
            heap.truncate_to(hmark);
        });
    });

    c.bench_function("unify/identical-structs", |b| {
        let mut heap = Heap::new();
        let args: Vec<Cell> = (0..20).map(Cell::Int).collect();
        let s1 = heap.new_struct(ace_logic::sym("f"), &args);
        let s2 = heap.new_struct(ace_logic::sym("f"), &args);
        b.iter(|| {
            let r = ace_logic::unify::unify(&mut heap, s1, s2);
            black_box(r)
        });
    });

    // A stored answer against its call: the unification of a replay.
    c.bench_function("unify/struct-3-args", |b| {
        let mut heap = Heap::new();
        let (x, y) = (heap.new_var(), heap.new_var());
        let a = Cell::Atom(ace_logic::sym("n0"));
        let call = heap.new_struct(ace_logic::sym("path"), &[a, x, y]);
        let answer = heap.new_struct(ace_logic::sym("path"), &[a, Cell::Int(7), a]);
        b.iter(|| {
            let mark = heap.trail_mark();
            let r = ace_logic::unify::unify(&mut heap, call, answer);
            heap.undo_to(mark);
            black_box(r)
        });
    });
}

fn bench_copy(c: &mut Criterion) {
    c.bench_function("copy_term/list-200", |b| {
        let mut src = Heap::new();
        let l = deep_list(&mut src, 200);
        b.iter(|| {
            let mut dst = Heap::new();
            black_box(copy_term(&src, l, &mut dst))
        });
    });

    // Goal shipping's shape: a few small goals sharing a variable, on top of
    // a large owner heap whose size the copy must not pay for.
    c.bench_function("copy_joint/3-goals-on-100k-heap", |b| {
        let mut src = Heap::new();
        deep_list(&mut src, 50_000);
        let x = src.new_var();
        let goals: Vec<Cell> = (0..3)
            .map(|i| src.new_struct(ace_logic::sym("tak"), &[Cell::Int(i), Cell::Int(7), x]))
            .collect();
        b.iter(|| {
            let mut dst = Heap::default();
            black_box(copy_tuple(
                &src,
                ace_logic::sym("$bundle"),
                &goals,
                &mut dst,
            ))
        });
    });
}

fn bench_instantiate(c: &mut Criterion) {
    let db =
        Database::load("append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R).").unwrap();
    let pred = db.predicate(ace_logic::sym("append"), 3).unwrap();
    c.bench_function("clause/instantiate-append-2", |b| {
        let mut heap = Heap::new();
        b.iter(|| {
            let hm = heap.heap_mark();
            let r = pred.clauses[1].instantiate(&mut heap);
            black_box(&r);
            heap.truncate_to(hm);
        });
    });
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse/clause", |b| {
        b.iter(|| {
            let mut heap = Heap::new();
            black_box(
                parse_term(
                    &mut heap,
                    "qsort([P|T], S) :- partition(T, P, L, G), \
                     (qsort(L, SL) & qsort(G, SG)), append(SL, [P|SG], S)",
                )
                .unwrap(),
            )
        });
    });
}

/// `nrev(30)` queries a thread completes per second, looping for `window`
/// on a machine of its own over the shared `db`. The query term is built
/// straight on the heap — no parse, no interner — so the only thing the
/// threads have in common is the program.
fn nrev_rate(db: &Arc<Database>, start: &Barrier, window: Duration) -> f64 {
    let nrev = ace_logic::sym("nrev");
    let mut m = Machine::new(db.clone(), Arc::new(CostModel::default()));
    start.wait();
    let begun = Instant::now();
    let mut solved = 0u64;
    while begun.elapsed() < window {
        m.reset();
        let list = deep_list(&mut m.heap, 30);
        let out = m.heap.new_var();
        let goal = m.heap.new_struct(nrev, &[list, out]);
        m.set_query(goal);
        assert_eq!(black_box(m.run_to_completion()), Status::Solution);
        solved += 1;
    }
    solved as f64 / begun.elapsed().as_secs_f64()
}

/// Do machines that share a program slow each other down? Two threads
/// each resolve against one `Arc<Database>`; their per-thread rate is set
/// against one thread alone. Anything the resolution path writes to the
/// program — a reference count — is a cache line both cores fight over,
/// and shows here as a ratio well under 1; a read-only program gives ~1
/// (given two free cores: the line reports how many the host has).
fn bench_shared_db(db: &Arc<Database>) {
    let window = Duration::from_millis(400);
    nrev_rate(db, &Barrier::new(1), window / 4); // warm-up, discarded
    let solo = nrev_rate(db, &Barrier::new(1), window);
    let start = Barrier::new(2);
    let pair: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| s.spawn(|| nrev_rate(db, &start, window)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("bench thread panicked"))
            .collect()
    });
    let per_thread = pair.iter().sum::<f64>() / pair.len() as f64;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{:<40} alone {solo:>9.0}/s  paired {per_thread:>9.0}/s per thread  ratio {:.2}  ({cores} cores)",
        "machine/shared-db-2-threads",
        per_thread / solo,
    );
}

/// Reading a completed table back: `tabled_path(48)` against a warm store,
/// every one of its 48 answers thawed, unified and written into its line.
fn bench_replay(c: &mut Criterion) {
    let p = ace_programs::tabled_program("tabled_path").unwrap();
    let db = Arc::new(Database::load(&(p.program)(48)).unwrap());
    let cfg = EngineConfig::default().with_tabling();
    let (store, costs, query) = (
        cfg.resolve_store(),
        Arc::new(cfg.costs.clone()),
        (p.query)(48),
    );
    let lines = |db: &Arc<Database>| {
        let mut s = Solver::new(db.clone(), costs.clone(), &query).unwrap();
        s.machine_mut().set_store(store.clone(), &cfg, false);
        std::iter::from_fn(|| s.next_line().unwrap()).count()
    };
    assert_eq!(lines(&db), 48); // cold: fills the store
    c.bench_function("answer/replay-render-48", |b| {
        b.iter(|| assert_eq!(black_box(lines(&db)), 48));
    });
}

fn bench_machine(c: &mut Criterion) {
    let db = Arc::new(
        Database::load(
            r#"
            nrev([], []).
            nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
            append([], L, L).
            append([H|T], L, [H|R]) :- append(T, L, R).
            "#,
        )
        .unwrap(),
    );
    bench_shared_db(&db);
    bench_body_frames(c);
    bench_replay(c);
    c.bench_function("machine/nrev-30", |b| {
        let costs = Arc::new(CostModel::default());
        let q = format!(
            "nrev([{}], R)",
            (0..30).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        b.iter(|| {
            let mut s = Solver::new(db.clone(), costs.clone(), &q).unwrap();
            black_box(s.next_solution().unwrap())
        });
    });
}

/// The control path of a compiled body: `maps/1`'s 27-step body to its
/// first solution (a body frame per step, a linked call per `col/1`, a
/// retry per rejected colour), and `member/2` enumerating a 30-element
/// list (a clause retry per answer).
fn bench_body_frames(c: &mut Criterion) {
    let costs = Arc::new(CostModel::default());
    let maps = ace_programs::benchmark("maps").unwrap();
    let db = Arc::new(Database::load(&(maps.program)(1)).unwrap());
    c.bench_function("machine/long-body", |b| {
        b.iter(|| {
            let mut s = Solver::new(db.clone(), costs.clone(), "maps(Cols)").unwrap();
            black_box(s.next_solution().unwrap().unwrap())
        });
    });
    let db =
        Arc::new(Database::load("member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).").unwrap());
    let q = format!(
        "member(X, [{}])",
        (0..30).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
    );
    c.bench_function("machine/retry-member", |b| {
        b.iter(|| {
            let mut s = Solver::new(db.clone(), costs.clone(), &q).unwrap();
            assert_eq!(black_box(s.collect_solutions(None).unwrap()).len(), 30);
        });
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_unify, bench_copy, bench_instantiate, bench_parse,
              bench_machine
);
criterion_main!(micro);
