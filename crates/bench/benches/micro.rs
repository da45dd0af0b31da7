//! Criterion micro-benchmarks for the substrate hot paths: unification,
//! term copying, clause instantiation, parsing, and machine resolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use ace_logic::copy::{copy_term, copy_tuple};
use ace_logic::{parse_term, Cell, Database, Heap};
use ace_machine::Solver;
use ace_runtime::CostModel;

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

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_unify, bench_copy, bench_instantiate, bench_parse,
              bench_machine
);
criterion_main!(micro);
