//! `compile_speedup` — clause compilation on both clocks.
//!
//! Runs [`ace_bench::compile`]'s corpus under the compiled register code
//! and under the interpreter oracle, seven times each, and exits 2 unless
//! the solutions are identical and the corpus geometric-mean speedup clears
//! the 2x bar in virtual time *and* on the wall clock (minimum over the
//! repetitions — standard practice for shaking scheduler noise out of short
//! runs). Writes `compile.{txt,csv}` (the deterministic half, identical to
//! what `tables` checks in) and `compile_wall.{txt,csv}`; wall-clock
//! readings are uploaded by CI, never checked in.
//!
//! ```text
//! compile_speedup                 # whole corpus, writes under target/wall/
//! compile_speedup takeuchi hanoi  # only these
//! compile_speedup --out DIR
//! ```

use ace_bench::compile::{self, Measured};
use ace_bench::{labels, Table};

const WALL_REPS: usize = 7;

fn main() {
    ace_bench::run("compile_speedup", "target/wall", |cli| {
        let measured = compile::measure(WALL_REPS, |name| cli.wants(name))?;
        let mut artifacts = compile::virtual_table(&measured)?.artifacts();

        let mut wall = Table::new(
            "compile_wall",
            "Compilation — wall clock, minimum of 7 runs",
            "guard: geomean wall speedup >= 2.0",
            &[
                "benchmark",
                "wall_us_interpreted",
                "wall_us_compiled",
                "wall_speedup",
            ],
            &[],
        );
        for m in &measured {
            wall.rows.push(labels![
                m.name,
                m.interp.wall.as_micros(),
                m.compiled.wall.as_micros(),
                format!("{:.2}", m.wall_speedup()),
            ]);
        }
        // Written before the wall guard so a failing run still leaves its
        // readings behind.
        artifacts.extend(wall.artifacts());
        ace_bench::write(&cli.out, &artifacts)?;
        print!("{}", wall.txt());
        let mean = compile::geomean(&measured, "wall clock", Measured::wall_speedup)?;
        println!("geomean wall speedup {mean:.2}x");
        Ok(())
    });
}
