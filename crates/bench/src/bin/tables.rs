//! `tables` — regenerate every deterministic artifact under `results/`.
//!
//! ```text
//! tables                    # every experiment
//! tables table2 or_topology # only these
//! tables --list             # list experiments
//! tables --out DIR          # write there instead of results/
//! tables stress --seed N    # the tabling stress with another seed (nightly)
//! ```
//!
//! Every number is virtual time or a count, so a run is byte-stable: CI
//! runs this and then `git diff --exit-code`. A failed guard exits 2.

use ace_bench::{compile, experiments, extras, or_scaling, render_csv, render_table};
use ace_bench::{run_experiment, Artifact, Cli};

type Experiment = (
    &'static str,
    &'static str,
    Box<dyn Fn() -> Result<Vec<Artifact>, String>>,
);

fn registry(cli: &Cli) -> Vec<Experiment> {
    let mut all: Vec<Experiment> = Vec::new();
    for exp in experiments() {
        let (id, title) = (exp.id, exp.title);
        let run = move || {
            let r = run_experiment(&exp)?;
            Ok(vec![
                (format!("{id}.txt"), render_table(&r)),
                (format!("{id}.csv"), render_csv(&r)),
            ])
        };
        all.push((id, title, Box::new(run)));
    }
    let seed = cli.seed;
    let beyond: [Experiment; 10] = [
        (
            "or_scaling",
            "or-parallel corpus at 1/2/4/8 workers, plus a Perfetto trace",
            Box::new(or_scaling::scaling),
        ),
        (
            "or_steal_cost",
            "steal cost per claim vs public-tree depth, pool vs traversal",
            Box::new(or_scaling::steal_cost),
        ),
        (
            "or_claim_locality",
            "procrastinated closure capture: local vs remote claims",
            Box::new(or_scaling::claim_locality),
        ),
        (
            "or_topology",
            "64-512 workers x flat/numa4 topologies on wide_tree",
            Box::new(or_scaling::topology),
        ),
        (
            "or_profile",
            "cost profile of the topology grid's worst cell",
            Box::new(or_scaling::profile),
        ),
        (
            "compile",
            "compiled register code vs the interpreter oracle (virtual time)",
            Box::new(|| {
                let measured = compile::measure(1, |_| true)?;
                Ok(compile::virtual_table(&measured)?.artifacts())
            }),
        ),
        (
            "ablation",
            "cost-model sensitivity of each optimization",
            Box::new(extras::ablation),
        ),
        (
            "memo",
            "memoization off/cold/warm at 1/2/4/8 workers",
            Box::new(extras::memo),
        ),
        (
            "tabling",
            "tabled corpus cold/warm, sequential and or-parallel",
            Box::new(extras::tabling),
        ),
        (
            "stress",
            "deep-SCC tabling fixpoint on both drivers (--seed, no artifact)",
            Box::new(move || extras::stress(seed)),
        ),
    ];
    all.extend(beyond);
    all
}

fn main() {
    ace_bench::run("tables", "results", |cli| {
        let all = registry(cli);
        if cli.list {
            for (id, title, _) in &all {
                println!("{id:<18} {title}");
            }
            return Ok(());
        }
        if let Some(unknown) = cli
            .wanted
            .iter()
            .find(|w| !all.iter().any(|(id, ..)| id == w))
        {
            return Err(format!("no experiment named {unknown}; try --list"));
        }
        for (id, _, run) in all.iter().filter(|(id, ..)| cli.wants(id)) {
            let started = std::time::Instant::now();
            let artifacts = run().map_err(|e| format!("{id}: {e}"))?;
            for (_, text) in artifacts.iter().filter(|(name, _)| name.ends_with(".txt")) {
                println!("{text}");
            }
            ace_bench::write(&cli.out, &artifacts)?;
            eprintln!("{id} done in {:.1}s", started.elapsed().as_secs_f64());
        }
        Ok(())
    });
}
