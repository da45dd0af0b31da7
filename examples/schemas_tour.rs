//! A guided tour of the paper's three optimization schemas: for each
//! concrete optimization, state the schema it instantiates (quoting the
//! paper), run a workload that isolates it, and show the measured effect
//! with its mechanism counters.
//!
//! ```sh
//! cargo run --release --example schemas_tour
//! ```

use ace_core::{Ace, Mode, Optimization};
use ace_runtime::{EngineConfig, OptFlags};

fn main() -> Result<(), String> {
    println!("Three schemas, four optimizations (Gupta & Pontelli, IPPS'97), plus lazy frames\n");

    for opt in Optimization::ALL {
        let schema = opt.schema();
        println!("── {} ({})", opt.name(), opt.acronym());
        println!("   schema: {:?} — \"{}\"", schema, schema.statement());

        let (mode, program, query, workers, all) = workload(opt);
        let ace = Ace::load(program)?;
        let mut base_cfg = EngineConfig::default()
            .with_workers(workers)
            .with_opts(baseline(opt));
        base_cfg.max_solutions = if all { None } else { Some(1) };
        let mut opt_cfg = base_cfg.clone();
        opt_cfg.run.opts = merged(baseline(opt), opt.flags());

        let unopt = ace.run(mode, query, &base_cfg)?;
        let with = ace.run(mode, query, &opt_cfg)?;
        assert_eq!(unopt.solutions.len(), with.solutions.len());

        println!(
            "   workload: {query}  ({} workers, {} solution(s))",
            workers,
            with.solutions.len()
        );
        println!(
            "   virtual time {} → {}  ({:+.1}%)",
            unopt.virtual_time,
            with.virtual_time,
            -unopt.improvement_over(&with)
        );
        match opt {
            Optimization::Lpco => println!(
                "   mechanism: parcall frames {} → {} (slots merged: {})",
                unopt.stats.parcall_frames, with.stats.parcall_frames, with.stats.slots_merged_lpco
            ),
            Optimization::Lao => println!(
                "   mechanism: public tree depth {} → {} (nodes reused {}, \
                 work-finding visits {} → {})",
                unopt.tree_depth.unwrap_or(0),
                with.tree_depth.unwrap_or(0),
                with.stats.cp_reused_lao,
                unopt.stats.tree_visits,
                with.stats.tree_visits
            ),
            Optimization::Spo => println!(
                "   mechanism: markers allocated {} → {} ({} elided)",
                unopt.stats.markers_allocated,
                with.stats.markers_allocated,
                with.stats.markers_elided_spo
            ),
            Optimization::Pdo => println!(
                "   mechanism: {} subgoals merged onto their neighbours' \
                 machines; goal cells copied {} → {}",
                with.stats.pdo_merges, unopt.stats.cells_copied, with.stats.cells_copied
            ),
            Optimization::Lazy => println!(
                "   mechanism: parcall frames {} → {} ({} promoted on demand)",
                unopt.stats.parcall_frames, with.stats.parcall_frames, with.stats.frames_promoted
            ),
        }
        println!();
    }
    Ok(())
}

fn baseline(opt: Optimization) -> OptFlags {
    match opt {
        // PDO's adjacency needs the LPCO-flattened frames to exist
        Optimization::Pdo => OptFlags::lpco_only(),
        // lazy frames procrastinate what the paper's four leave
        Optimization::Lazy => OptFlags::paper(),
        _ => OptFlags::none(),
    }
}

fn merged(a: OptFlags, b: OptFlags) -> OptFlags {
    OptFlags {
        lpco: a.lpco || b.lpco,
        lao: a.lao || b.lao,
        spo: a.spo || b.spo,
        pdo: a.pdo || b.pdo,
        lazy: a.lazy || b.lazy,
    }
}

fn workload(opt: Optimization) -> (Mode, &'static str, &'static str, usize, bool) {
    match opt {
        Optimization::Lpco => (
            Mode::AndParallel,
            r#"
            tr(X, Y) :- Y is X * 2.
            tr(X, Y) :- Y is X * 2 + 1.
            pmap([], []).
            pmap([H|T], [H2|T2]) :- tr(H, H2) & pmap(T, T2).
            drain :- pmap([1,2,3,4,5,6,7], _), fail.
            drain.
            "#,
            "drain",
            4,
            false,
        ),
        Optimization::Lao => (
            Mode::OrParallel,
            r#"
            member(X, [X|_]).
            member(X, [_|T]) :- member(X, T).
            sq(V, R) :- R is V * V.
            "#,
            "member(V, [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]), sq(V, R)",
            6,
            true,
        ),
        Optimization::Spo => (
            Mode::AndParallel,
            r#"
            f(N, R) :- ( N < 2 -> R = N
                       ; A is N - 1, B is N - 2,
                         ( f(A, RA) & f(B, RB) ),
                         R is RA + RB ).
            "#,
            "f(13, R)",
            4,
            false,
        ),
        Optimization::Pdo => (
            Mode::AndParallel,
            r#"
            w(X, Y) :- Y is (X * 37 + 11) mod 1000.
            row([], []).
            row([X|T], [Y|T2]) :- w(X, Y) & row(T, T2).
            "#,
            "row([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20], R)",
            1,
            false,
        ),
        Optimization::Lazy => (
            Mode::AndParallel,
            r#"
            f(N, R) :- ( N < 2 -> R = N
                       ; A is N - 1, B is N - 2,
                         ( f(A, RA) & f(B, RB) ),
                         R is RA + RB ).
            "#,
            "f(13, R)",
            1,
            false,
        ),
    }
}
