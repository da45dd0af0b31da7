//! Direct-call probes of layers no workload isolates: the term-level
//! substrate of the answer stores (`canon`, `copy`), the stores' own
//! operations, and the cost of the runtime's observability switches.

use std::sync::Arc;
use std::time::Instant;

use ace_core::Mode;
use ace_logic::copy::copy_term;
use ace_logic::{parse_term, CanonKey, Cell, Heap, TermArena};
use ace_programs::gen;
use ace_runtime::{
    DriverKind, EngineConfig, MemoConfig, MemoTable, MetricsRegistry, TableConfig, TableSpace,
    TraceConfig,
};

use super::batch::engine_cfg;
use super::{ratio, PassResult, Query};
use crate::quantile::median;

/// Nanoseconds of one call of `f`.
fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_nanos() as f64)
}

/// `logic.canon.*` and `logic.copy.*` over a fixed term set: a 64-element
/// list, a depth-6 expression and a depth-6 tree (the shapes call keys,
/// answer snapshots and or-engine closures take).
pub fn canon_copy(out: &mut PassResult) {
    let mut heap = Heap::new();
    let terms: Vec<Cell> = [gen::int_list(64, 11), gen::expr(6), gen::tree(6, 5)]
        .iter()
        .map(|text| parse_term(&mut heap, text).expect("fixed probe term").0)
        .collect();
    let arenas: Vec<TermArena> = terms.iter().map(|&t| TermArena::freeze(&heap, t)).collect();

    let (mut key, mut freeze, mut thaw) = (Vec::new(), Vec::new(), Vec::new());
    let (mut copy_ns, mut copy_cells) = (0.0, 0usize);
    for _ in 0..2000 {
        key.push(
            time_ns(|| {
                terms
                    .iter()
                    .map(|&t| CanonKey::of(&heap, t).hash)
                    .sum::<u64>()
            })
            .1,
        );
        freeze.push(
            time_ns(|| {
                terms
                    .iter()
                    .map(|&t| TermArena::freeze(&heap, t).len())
                    .sum::<usize>()
            })
            .1,
        );
        let mut dst = Heap::new();
        thaw.push(time_ns(|| arenas.iter().map(|a| a.thaw(&mut dst).1).sum::<usize>()).1);
        let mut dst = Heap::new();
        let (cells, ns) = time_ns(|| {
            terms
                .iter()
                .map(|&t| copy_term(&heap, t, &mut dst).cells_copied)
                .sum::<usize>()
        });
        copy_ns += ns;
        copy_cells += cells;
    }
    out.set_quiet_median("logic.canon.key_ns_p50", &key);
    out.set_quiet_median("logic.canon.freeze_ns_p50", &freeze);
    out.set_quiet_median("logic.canon.thaw_ns_p50", &thaw);
    out.set(
        "logic.copy.ns_per_cell",
        ratio(copy_ns, copy_cells as f64),
        key.len(),
    );
}

/// `table.*_ns_p50` and `memo.*_ns_p50`: the stores' operations called
/// directly on 2000 distinct subgoal keys with 8-answer sets.
pub fn answer_stores(out: &mut PassResult) {
    let mut heap = Heap::new();
    let keys: Vec<CanonKey> = (0..2000)
        .map(|i| {
            let t = parse_term(&mut heap, &format!("path(n{i}, X)")).expect("probe key");
            CanonKey::of(&heap, t.0)
        })
        .collect();
    let answers: Vec<TermArena> = (0..8)
        .map(|i| {
            let t = parse_term(&mut heap, &format!("path(n0, n{i})")).expect("probe answer");
            TermArena::freeze(&heap, t.0)
        })
        .collect();

    let space = TableSpace::new(&TableConfig::enabled());
    let memo = MemoTable::new(&MemoConfig::enabled());
    let (mut register, mut t_publish, mut t_lookup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut m_publish, mut m_lookup) = (Vec::new(), Vec::new());
    for key in &keys {
        register.push(time_ns(|| space.register(0, key)).1);
        let set = answers.clone();
        t_publish.push(time_ns(|| space.publish_as(0, key, set)).1);
        let set = answers.clone();
        m_publish.push(time_ns(|| memo.publish(key, set)).1);
    }
    for key in &keys {
        t_lookup.push(time_ns(|| space.lookup_complete(key).is_some()).1);
        m_lookup.push(time_ns(|| memo.lookup(key).is_some()).1);
    }
    out.set_quiet_median("table.register_ns_p50", &register);
    out.set_quiet_median("table.publish_ns_p50", &t_publish);
    out.set_quiet_median("table.lookup_complete_ns_p50", &t_lookup);
    out.set_quiet_median("memo.publish_ns_p50", &m_publish);
    out.set_quiet_median("memo.lookup_ns_p50", &m_lookup);
}

/// Wall of one pass over `queries` on the or-engine under `cfg_of`.
fn or_pass_ms(queries: &[Query], cfg_of: &dyn Fn(&Query) -> EngineConfig) -> f64 {
    let t = Instant::now();
    for q in queries {
        let report = q.ace.run_strict(Mode::OrParallel, &q.text, &cfg_of(q));
        std::hint::black_box(report.map(|r| r.solutions.len()).ok());
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `runtime.*`: the or-engine round at 4 simulated workers with tracing /
/// metrics on against off, and the real-thread driver at 1 and 2 workers
/// (informational: thread timing on a shared 2-core box is noisy). The
/// variants are interleaved so drift hits all of them alike.
pub fn runtime(out: &mut PassResult, queries: &[Query], budget_s: f64) {
    let registry = MetricsRegistry::shared();
    let plain = |q: &Query| engine_cfg(q.all, 4);
    let traced = |q: &Query| engine_cfg(q.all, 4).with_trace(TraceConfig::enabled());
    let metered = |q: &Query| engine_cfg(q.all, 4).with_metrics(Arc::clone(&registry));
    let threads = |workers: usize| {
        move |q: &Query| engine_cfg(q.all, workers).with_driver(DriverKind::Threads)
    };
    let (threads1, threads2) = (threads(1), threads(2));
    let variants: [&dyn Fn(&Query) -> EngineConfig; 5] =
        [&plain, &traced, &metered, &threads1, &threads2];

    let mut ms: [Vec<f64>; 5] = Default::default();
    let started = Instant::now();
    while ms[0].len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        for (samples, cfg_of) in ms.iter_mut().zip(variants) {
            samples.push(or_pass_ms(queries, cfg_of));
        }
    }
    let [plain, traced, metered, threads1, threads2] = ms.each_ref().map(|s| median(s));
    let n = ms[0].len();
    out.set("runtime.trace.overhead_ratio", ratio(traced, plain), n);
    out.set("runtime.metrics.overhead_ratio", ratio(metered, plain), n);
    out.set("runtime.threads.run_ms_p50.w2", threads2, n);
    out.set("runtime.threads.speedup_w2", ratio(threads1, threads2), n);
}
