//! The fixed names of the benchmark: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is checked against these lists by a unit test, and a
//! run refuses to report a metric that is not listed here.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which are informational.
    pub bound: Option<f64>,
}

/// Seconds one measured pass runs (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u64 = 12;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "seq_det",
        why: "Sequential first-solution runs of determinate programs: the compiled head/neck path of ace-machine does nearly all the work, no choice points, no parse or server share",
    },
    Workload {
        name: "seq_search",
        why: "Sequential all-solution search: the same machine layer used through choice points, trail and backtracking, with thousands of rendered answers",
    },
    Workload {
        name: "and_sim",
        why: "And-parallel engine on the simulated driver at 1 and 4 workers over the & programs: ace-and frames, markers and scheduling dominate, the machine share is small",
    },
    Workload {
        name: "or_sim",
        why: "Or-parallel engine at 1 and 4 simulated workers over the seq_search programs, so the pair separates publish/claim/closure cost from machine cost",
    },
    Workload {
        name: "tabled_mix",
        why: "Fresh table space and memo table per round: one cold SLG and memo evaluation (writes) then warm re-queries (reads), sized so each half is 40-60% of the round",
    },
    Workload {
        name: "load_big",
        why: "Load a generated 5k-fact, 500-rule program, then indexed point lookups, unindexed scans and three-way joins: read, compile and index dominate, the machine does little",
    },
    Workload {
        name: "serve_closed",
        why: "Closed loop of 2 clients on a 2-thread QueryServer over a seeded mix of streaming, compute, lookup and warm-table queries: admission, queueing, dispatch and answer streaming",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Reported by every workload with `--trace 0`. The bounds are three
/// times the widest spread seen between ten runs on ten seeds in the
/// sandbox this was sized on (README, "Steadiness"): its minute-long
/// bursts of host contention move every wall-clock number by 3-16%, and
/// the seed moves the and-engine's peak memory by 8%.
pub const END_TO_END: &[Metric] = &[
    e2e("round_ms_p50", "ms", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("virtual_time", "units", "lower", 0.06),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every workload with `--trace 1`; a layer the workload does
/// not cross reports 0.
pub const PER_LAYER: &[Metric] = &[
    // User-visible numbers that exist on some workloads only, or that did
    // not repeat within a tenth, and therefore carry no bound.
    layer("round_ms_p95", "ms", "lower"),
    layer("par_overhead_n1", "ratio", "lower"),
    layer("virtual_speedup_w4", "ratio", "higher"),
    layer("load_ms_p50", "ms", "lower"),
    layer("first_answer_ms_p50", "ms", "lower"),
    layer("first_answer_ms_p95", "ms", "lower"),
    layer("completion_ms_p50", "ms", "lower"),
    layer("completion_ms_p95", "ms", "lower"),
    layer("bench.traced_round_ms_p50", "ms", "lower"),
    layer("bench.span_coverage", "ratio", "higher"),
    // logic
    layer("logic.read.parse_ms_p50", "ms", "lower"),
    layer("logic.read.mb_per_s", "MB/s", "higher"),
    layer("logic.read.clauses", "count", "lower"),
    layer("logic.read.query_parse_us_p50", "us", "lower"),
    layer("logic.db.add_clause_ms_p50", "ms", "lower"),
    layer("logic.db.clauses_per_s", "1/s", "higher"),
    layer("logic.code.instrs", "count", "lower"),
    layer("logic.canon.key_ns_p50", "ns", "lower"),
    layer("logic.canon.freeze_ns_p50", "ns", "lower"),
    layer("logic.canon.thaw_ns_p50", "ns", "lower"),
    layer("logic.copy.ns_per_cell", "ns/cell", "lower"),
    layer("logic.round_share", "ratio", "lower"),
    // machine
    layer("machine.solve_ms_p50", "ms", "lower"),
    layer("machine.first_solution_us_p50", "us", "lower"),
    layer("machine.lips", "1/s", "higher"),
    layer("machine.ns_per_virtual_unit", "ns/unit", "lower"),
    layer("machine.calls", "count", "lower"),
    layer("machine.unify_steps", "count", "lower"),
    layer("machine.heap_cells", "count", "lower"),
    layer("machine.choice_points", "count", "lower"),
    layer("machine.backtracks", "count", "lower"),
    layer("machine.trail_undos", "count", "lower"),
    layer("machine.code_cache_hits", "count", "higher"),
    layer("machine.clauses_skipped_by_index", "count", "higher"),
    layer("machine.index_determinate_ratio", "ratio", "higher"),
    layer("machine.round_share", "ratio", "lower"),
    // core
    layer("core.facade_overhead_us_p50", "us", "lower"),
    // and-engine
    layer("and.run_ms_p50.w1", "ms", "lower"),
    layer("and.run_ms_p50.w4", "ms", "lower"),
    layer("and.host_ns_per_virtual_unit.w1", "ns/unit", "lower"),
    layer("and.host_ns_per_virtual_unit.w4", "ns/unit", "lower"),
    layer("and.parcall_frames", "count", "lower"),
    layer("and.parcall_slots", "count", "lower"),
    layer("and.frames_elided_lpco", "count", "higher"),
    layer("and.markers_allocated", "count", "lower"),
    layer("and.markers_elided_spo", "count", "higher"),
    layer("and.pdo_merges", "count", "higher"),
    layer("and.elision_ratio", "ratio", "higher"),
    layer("and.tasks_stolen", "count", "lower"),
    layer("and.idle_probes", "count", "lower"),
    layer("and.idle_cost_share", "ratio", "lower"),
    // or-engine
    layer("or.run_ms_p50.w1", "ms", "lower"),
    layer("or.run_ms_p50.w4", "ms", "lower"),
    layer("or.host_ns_per_virtual_unit.w4", "ns/unit", "lower"),
    layer("or.nodes_published", "count", "lower"),
    layer("or.alternatives_claimed", "count", "lower"),
    layer("or.pool_pushes", "count", "lower"),
    layer("or.pool_pops", "count", "lower"),
    layer("or.claim_hit_ratio", "ratio", "higher"),
    layer("or.closures_materialized", "count", "lower"),
    layer("or.closures_elided", "count", "higher"),
    layer("or.cells_copied_claim", "count", "lower"),
    layer("or.cp_reused_lao", "count", "higher"),
    layer("or.machines_recycled", "count", "higher"),
    layer("or.idle_cost_share", "ratio", "lower"),
    // runtime
    layer("runtime.trace.overhead_ratio", "ratio", "lower"),
    layer("runtime.metrics.overhead_ratio", "ratio", "lower"),
    layer("runtime.threads.run_ms_p50.w2", "ms", "lower"),
    layer("runtime.threads.speedup_w2", "ratio", "higher"),
    // memo / table
    layer("table.cold_ms_p50", "ms", "lower"),
    layer("table.warm_us_p50", "us", "lower"),
    layer("table.cold_share", "ratio", "lower"),
    layer("memo.cold_ms_p50", "ms", "lower"),
    layer("memo.warm_us_p50", "us", "lower"),
    layer("table.register_ns_p50", "ns", "lower"),
    layer("table.lookup_complete_ns_p50", "ns", "lower"),
    layer("table.publish_ns_p50", "ns", "lower"),
    layer("memo.lookup_ns_p50", "ns", "lower"),
    layer("memo.publish_ns_p50", "ns", "lower"),
    layer("table.subgoals", "count", "lower"),
    layer("table.answers", "count", "lower"),
    layer("table.dups", "count", "lower"),
    layer("table.dup_ratio", "ratio", "lower"),
    layer("table.suspends", "count", "lower"),
    layer("table.resumes", "count", "lower"),
    layer("table.completes", "count", "lower"),
    layer("table.hits", "count", "higher"),
    layer("memo.hits", "count", "higher"),
    layer("memo.misses", "count", "lower"),
    layer("memo.stores", "count", "lower"),
    layer("memo.hit_rate", "ratio", "higher"),
    // server
    layer("server.submit_us_p50", "us", "lower"),
    layer("server.overhead_ms_p50", "ms", "lower"),
    layer("server.stream_us_per_answer", "us", "lower"),
    layer("server.admitted", "count", "higher"),
    layer("server.completed", "count", "higher"),
    layer("server.rejected", "count", "lower"),
    layer("server.answers_streamed", "count", "higher"),
    layer("server.start_ms", "ms", "lower"),
    layer("server.shutdown_ms", "ms", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metric list a pass reports: end-to-end untraced, per-layer traced.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Check name lists against the limits of the benchmark contract.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads (2 to 8 allowed)", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics (1 to 16 allowed)",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics (1 to 128 allowed)",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(per_layer).map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("why of {} is not one line of <= 200", w.name));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} on {}", m.unit, m.name));
        }
        if !matches!(m.better, "lower" | "higher") {
            return Err(format!("invalid direction on {}", m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            _ => return Err(format!("bound of {} outside 0..=0.25", m.name)),
        }
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        return Err("end-to-end metrics lack setup_s".into());
    }
    Ok(())
}

/// `BENCHMARK.json` as this catalog defines it (`-- manifest` prints it).
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::from(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::from)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_passes_its_own_validator() {
        validate(WORKLOADS, END_TO_END, PER_LAYER).unwrap();
    }

    #[test]
    fn validator_rejects_bad_names_counts_and_bounds() {
        let ok = |name: &'static str| layer(name, "ms", "lower");
        let wl = |name: &'static str| Workload { name, why: "w" };
        let setup = e2e("setup_s", "s", "lower", 0.25);
        let two = [wl("a"), wl("b")];
        assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.25)], &[ok("x")]).is_ok());
        // names
        for bad in ["", "has space", ".dot", "slash/name", "é"] {
            assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.1)], &[ok(bad)]).is_err());
        }
        let long: &'static str = Box::leak("n".repeat(65).into_boxed_str());
        assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.1)], &[ok(long)]).is_err());
        // a name may be used once across all three lists
        assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.1)], &[ok("a")]).is_err());
        // counts
        assert!(validate(&[wl("a")], &[e2e("setup_s", "s", "lower", 0.1)], &[ok("x")]).is_err());
        let nine: Vec<Workload> = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
            .into_iter()
            .map(wl)
            .collect();
        assert!(validate(&nine, &[e2e("setup_s", "s", "lower", 0.1)], &[ok("x")]).is_err());
        let many = |n: usize| -> Vec<Metric> {
            (0..n)
                .map(|i| ok(Box::leak(format!("m{i}").into_boxed_str())))
                .collect()
        };
        assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.1)], &many(129)).is_err());
        let mut seventeen: Vec<Metric> = (0..16)
            .map(|i| {
                e2e(
                    Box::leak(format!("e{i}").into_boxed_str()),
                    "ms",
                    "lower",
                    0.1,
                )
            })
            .collect();
        seventeen.push(setup);
        assert!(validate(&two, &seventeen, &[ok("x")]).is_err());
        // bounds, units, the mandatory setup_s
        assert!(validate(&two, &[e2e("setup_s", "s", "lower", 0.3)], &[ok("x")]).is_err());
        assert!(validate(&two, &[e2e("latency", "ms", "lower", 0.1)], &[ok("x")]).is_err());
        assert!(validate(
            &two,
            &[e2e("setup_s", "s", "lower", 0.1)],
            &[layer("x", "milli seconds", "lower")]
        )
        .is_err());
    }

    /// The checked-in `BENCHMARK.json` is exactly what the catalog says.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let on_disk = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(on_disk, manifest());
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
    }
}
