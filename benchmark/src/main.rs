//! The repository's benchmark: query text in, checked answers out, on the
//! wall clock and the virtual clock, end to end and per layer.
//!
//! ```text
//! ace-benchmark --seed 1                    # every workload, untraced then traced
//! ace-benchmark --workload seq_det --seed 1 --seconds 10 --trace 0   # one pass (the driver's call)
//! ace-benchmark --smoke                     # every workload, a quarter second per pass
//! ace-benchmark repeat 2 --seed 1           # the suite twice; fails unless the runs agree
//! ace-benchmark manifest                    # BENCHMARK.json as the catalog defines it
//! ace-benchmark expected                    # expected.json for seed 1
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod catalog;
mod inputs;
mod json;
mod oracle;
mod quantile;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use oracle::Expected;
use workloads::batch::{self, Kind};
use workloads::{load, serve, tabled, PassResult};

/// Seed whose expected answers are checked in.
const PINNED_SEED: u64 = 1;
const EXPECTED: &str = include_str!("../expected.json");
/// Spans written per workload (all spans feed the metrics).
const SPANS_WRITTEN: usize = 20_000;

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    command: Option<String>,
    repeats: usize,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        repeats: 2,
        workload: None,
        seed: PINNED_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => {
                args.smoke = true;
                args.seconds = 0.25;
            }
            "repeat" | "manifest" | "expected" if args.command.is_none() => {
                args.command = Some(arg);
            }
            n if args.command.as_deref() == Some("repeat") && n.parse::<usize>().is_ok() => {
                args.repeats = n.parse().expect("checked");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// One pass of one workload, in this process.
fn run_pass(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<PassResult, String> {
    let kind = match workload {
        "seq_det" => Some(Kind::SeqDet),
        "seq_search" => Some(Kind::SeqSearch),
        "and_sim" => Some(Kind::AndSim),
        "or_sim" => Some(Kind::OrSim),
        _ => None,
    };
    match (workload, kind, traced) {
        (_, Some(kind), false) => batch::untraced(kind, seed, seconds),
        (_, Some(kind), true) => batch::traced(kind, seed, seconds),
        ("tabled_mix", _, false) => tabled::untraced(seed, seconds),
        ("tabled_mix", _, true) => tabled::traced(seed, seconds),
        ("load_big", _, false) => load::untraced(seed, seconds),
        ("load_big", _, true) => load::traced(seed, seconds),
        ("serve_closed", _, false) => serve::untraced(seed, seconds),
        ("serve_closed", _, true) => serve::traced(seed, seconds),
        _ => Err(format!("unknown workload {workload}")),
    }
}

/// `expected.json` entries of `workload`, by query label.
fn pinned(workload: &str) -> Result<Vec<(String, Expected)>, String> {
    let doc = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    doc.get(workload)
        .and_then(Json::as_obj)
        .ok_or(format!("expected.json has no entry for {workload}"))?
        .iter()
        .map(|(label, v)| {
            Expected::from_json(v)
                .map(|e| (label.clone(), e))
                .ok_or(format!("expected.json: bad entry {label}"))
        })
        .collect()
}

/// On the pinned seed, the oracles themselves must give what is checked
/// in: a drift shared by the interpreter and the compiled path shows here.
fn check_pins(workload: &str, seed: u64, result: &mut PassResult) {
    if seed != PINNED_SEED {
        return;
    }
    let mut ours = result.pins.clone();
    ours.sort_by(|a, b| a.0.cmp(&b.0));
    match pinned(workload) {
        Ok(mut theirs) => {
            theirs.sort_by(|a, b| a.0.cmp(&b.0));
            if ours != theirs {
                result.fail(format!(
                    "oracle answers of seed {PINNED_SEED} differ from expected.json \
                     (regenerate with `expected` only if the change is intended)"
                ));
            }
        }
        Err(e) => result.fail(e),
    }
}

fn pins_json(pins: &[(String, Expected)]) -> Json {
    Json::obj(pins.iter().map(|(label, e)| (label.clone(), e.to_json())))
}

/// The driver's call: one pass, one result line.
fn driver_mode(args: &Args, workload: &str) -> Result<bool, String> {
    if catalog::workload(workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let mut result = run_pass(workload, args.seed, args.seconds, args.traced)?;
    check_pins(workload, args.seed, &mut result);
    for f in &result.failures {
        eprintln!("{workload}: FAILED {f}");
    }

    let listed = catalog::metrics(args.traced);
    if let Some(stray) = result
        .metrics
        .keys()
        .find(|name| !listed.iter().any(|m| m.name == **name))
    {
        return Err(format!("{workload} reported unlisted metric {stray}"));
    }
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    for m in listed {
        // A layer this workload does not cross reports 0.
        let value = match result.metrics.get(m.name) {
            Some(v) => *v,
            None if args.traced => 0.0,
            None => return Err(format!("{workload} did not report {}", m.name)),
        };
        let n = result.samples.get(m.name).copied().unwrap_or(0);
        println!(
            "{workload:13} {:38} {value:>16.4} {:8} n={n}",
            m.name, m.unit
        );
        metrics.push((
            m.name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]),
        ));
        samples.push((m.name, Json::from(n)));
    }

    if let Some(rec) = &result.spans {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let pid = catalog::WORKLOADS
            .iter()
            .position(|w| w.name == workload)
            .unwrap_or(0);
        let path = dir.join(format!("spans.{workload}.json"));
        std::fs::write(
            &path,
            Json::Arr(rec.chrome_events(pid, SPANS_WRITTEN)).render(),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{}",
        Json::obj([
            ("samples", Json::obj(samples)),
            ("pins", pins_json(&result.pins))
        ])
        .render()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(result.failed == 0)),
            ("attempted", Json::from(result.attempted.max(1))),
            ("failed", Json::from(result.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    );
    Ok(result.failed == 0)
}

/// One workload's two passes as the suite collected them.
struct Collected {
    workload: &'static str,
    /// Result lines of the untraced and the traced pass.
    passes: [Json; 2],
    /// `samples` / `pins` lines of the two passes.
    extras: [Json; 2],
}

impl Collected {
    fn metric(&self, traced: bool, name: &str) -> Option<f64> {
        self.passes[usize::from(traced)]
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Run one pass in a child process (so `peak_rss_mb` is the workload's
/// own) and parse its last two lines.
fn child_pass(args: &Args, workload: &str, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|l| Json::parse(l).ok());
    let extra = lines.pop().and_then(|l| Json::parse(l).ok());
    for line in lines {
        println!("{line}");
    }
    match (result, extra) {
        (Some(r), Some(x)) if r.get("metrics").is_some() => Ok((r, x)),
        _ => Err(format!(
            "{workload} (trace {}) exited {} without a result line",
            u8::from(traced),
            output.status
        )),
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Every workload, untraced then traced; writes `out/result.json` and
/// `out/spans.json`. Returns the collected results and whether all passed.
fn suite(args: &Args) -> Result<(Vec<Collected>, bool), String> {
    let mut all = Vec::new();
    let mut ok = true;
    for w in catalog::WORKLOADS {
        let (untraced, extra0) = child_pass(args, w.name, false)?;
        let (traced, extra1) = child_pass(args, w.name, true)?;
        let collected = Collected {
            workload: w.name,
            passes: [untraced, traced],
            extras: [extra0, extra1],
        };
        for pass in &collected.passes {
            ok &= pass.get("correct").and_then(Json::as_bool) == Some(true);
        }
        // Traced round against untraced round: what the spans and the
        // by-hand decomposition cost.
        let overhead = workloads::ratio(
            collected
                .metric(true, "bench.traced_round_ms_p50")
                .unwrap_or(0.0),
            collected.metric(false, "round_ms_p50").unwrap_or(0.0),
        );
        println!(
            "{:13} {:38} {overhead:>16.4} ratio",
            w.name, "trace_overhead_ratio"
        );
        all.push(collected);
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let with_samples = |c: &Collected, traced: bool| {
        let i = usize::from(traced);
        let samples = c.extras[i].get("samples");
        Json::obj(
            c.passes[i]
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(name, m)| {
                    let mut fields = m.as_obj().unwrap_or(&[]).to_vec();
                    fields.push((
                        "samples".to_owned(),
                        samples
                            .and_then(|s| s.get(name))
                            .cloned()
                            .unwrap_or(Json::Null),
                    ));
                    (name.clone(), Json::Obj(fields))
                }),
        )
    };
    let result = Json::obj([
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("commit", Json::from(git_commit())),
        (
            "workloads",
            Json::obj(all.iter().map(|c| {
                let count = |key: &str| {
                    let sum: f64 = c.passes.iter().filter_map(|p| p.get(key)?.as_f64()).sum();
                    Json::from(sum)
                };
                (
                    c.workload,
                    Json::obj([
                        ("attempted", count("attempted")),
                        ("failed", count("failed")),
                        ("end_to_end", with_samples(c, false)),
                        ("per_layer", with_samples(c, true)),
                    ]),
                )
            })),
        ),
    ]);
    let path = dir.join("result.json");
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // One Chrome trace for the whole suite; each workload is its own pid.
    let mut events = Vec::new();
    for w in catalog::WORKLOADS {
        let part = dir.join(format!("spans.{}.json", w.name));
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        match Json::parse(&text)? {
            Json::Arr(items) => events.extend(items),
            _ => return Err(format!("{}: not an event array", part.display())),
        }
    }
    let path = dir.join("spans.json");
    std::fs::write(&path, Json::Arr(events).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} and spans.json beside it",
        dir.join("result.json").display()
    );
    Ok((all, ok))
}

/// Run the suite `n` times; every end-to-end metric must agree between
/// runs within its own bound, and what is exact must be identical:
/// `virtual_time`, and every per-layer count and the virtual speed-up of
/// the round-based workloads (the counts of `serve_closed` grow with the
/// sessions its window held).
fn repeat(args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut ok = true;
    for i in 0..args.repeats {
        println!("repeat: run {} of {}", i + 1, args.repeats);
        let (collected, passed) = suite(args)?;
        ok &= passed;
        runs.push(collected);
    }
    let (first, rest) = runs.split_first().ok_or("repeat 0")?;
    for run in rest {
        for (a, b) in first.iter().zip(run) {
            for m in catalog::END_TO_END {
                let (x, y) = match (a.metric(false, m.name), b.metric(false, m.name)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Err(format!("{}: {} missing", a.workload, m.name)),
                };
                let bound = if m.name == "virtual_time" {
                    0.0
                } else {
                    m.bound.unwrap_or(0.0)
                };
                let apart = (x - y).abs() / x.min(y);
                let verdict = if apart <= bound { "ok" } else { "APART" };
                println!(
                    "repeat: {:13} {:16} {x:>14.4} vs {y:>14.4}  {:6.2}% (bound {:.0}%) {verdict}",
                    a.workload,
                    m.name,
                    apart * 100.0,
                    bound * 100.0
                );
                ok &= apart <= bound;
            }
            if a.workload == "serve_closed" {
                continue;
            }
            for m in catalog::PER_LAYER
                .iter()
                .filter(|m| m.unit == "count" || m.name == "virtual_speedup_w4")
            {
                let (x, y) = (a.metric(true, m.name), b.metric(true, m.name));
                if x != y {
                    println!(
                        "repeat: {:13} {} differs: {x:?} vs {y:?}",
                        a.workload, m.name
                    );
                    ok = false;
                }
            }
        }
    }
    println!(
        "repeat: {}",
        if ok { "runs agree" } else { "runs DISAGREE" }
    );
    Ok(ok)
}

/// `expected.json` for the pinned seed, from the oracles of this build.
fn expected() -> Result<(), String> {
    let mut doc = Vec::new();
    for w in catalog::WORKLOADS {
        // The shortest pass there is: set-up computes the oracles.
        let result = run_pass(w.name, PINNED_SEED, 0.01, false)?;
        if result.failed > 0 {
            return Err(format!("{}: {:?}", w.name, result.failures));
        }
        let mut pins = result.pins;
        pins.sort_by(|a, b| a.0.cmp(&b.0));
        doc.push((w.name, pins_json(&pins)));
    }
    print!("{}", Json::obj(doc).render_pretty());
    Ok(())
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        catalog::validate(catalog::WORKLOADS, catalog::END_TO_END, catalog::PER_LAYER)?;
        match (args.command.as_deref(), &args.workload) {
            (Some("manifest"), _) => {
                print!("{}", catalog::manifest().render_pretty());
                Ok(true)
            }
            (Some("expected"), _) => expected().map(|()| true),
            (Some("repeat"), _) => repeat(&args),
            (_, Some(workload)) => driver_mode(&args, workload),
            (_, None) => suite(&args).map(|(_, ok)| ok),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ace-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
