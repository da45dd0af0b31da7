//! The optimization schemas beyond Prolog: LAO on the finite-domain
//! constraint solver's labeling tree (the paper's §3.2 closes with "The
//! LAO can also be used for parallelizing and optimizing constraint
//! languages").
//!
//! ```sh
//! cargo run --release --example fd_queens -- 8 6
//! #                                          N  workers
//! ```

use ace_fd::{queens, Fd};
use ace_runtime::{EngineConfig, OptFlags};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("{n}-queens as a finite-domain constraint problem, all solutions\n");
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "workers", "t_unopt", "t_lao", "improv", "depth", "reused", "visits"
    );
    for w in [1, 2, workers.max(3), workers.max(3) * 2] {
        let mk = |opts: OptFlags| {
            EngineConfig::default()
                .with_workers(w)
                .with_opts(opts)
                .all_solutions()
        };
        let unopt = Fd::new(queens(n)).solve_all(&mk(OptFlags::none()));
        let lao = Fd::new(queens(n)).solve_all(&mk(OptFlags::lao_only()));
        assert_eq!(unopt.solutions.len(), lao.solutions.len());
        let improvement = 100.0
            * (unopt.outcome.virtual_time as f64 - lao.outcome.virtual_time as f64)
            / unopt.outcome.virtual_time as f64;
        println!(
            "{:>8} {:>12} {:>12} {:>7.1}% {:>4} → {:>3} {:>10} {:>10}",
            w,
            unopt.outcome.virtual_time,
            lao.outcome.virtual_time,
            improvement,
            unopt.max_tree_depth,
            lao.max_tree_depth,
            lao.stats.cp_reused_lao,
            lao.stats.tree_visits,
        );
    }
    println!(
        "\n({} solutions; `depth` is the public labeling tree's maximum \
         depth without → with LAO; `visits` counts the nodes idle workers \
         popped from the alternative pool while hunting for work)",
        Fd::new(queens(n))
            .solve_all(&EngineConfig::default().with_workers(1).all_solutions())
            .solutions
            .len()
    );
}
