//! `server_load` — serving-layer bench: open-loop mixed-query load over one
//! shared fleet, wall clock.
//!
//! Drives the [`ace_server::QueryServer`] with two tiers of traffic:
//! high-priority enumeration sessions submitted at a fixed open-loop rate,
//! and a best-effort low-priority flood of short queries that keeps the
//! admission controller full, and so every fleet thread busy, for the whole
//! measured phase. Measures per-session *first-answer* latency (the whole
//! point of streaming) against the time the same session needs to run to
//! completion, plus throughput and rejection counts. Phase A is the high
//! tier alone; phase B repeats it under the flood with a live metrics
//! registry attached, whose Prometheus scrape is written beside the table.
//!
//! The fleet is one thread per core but one, which is left to the clients.
//! With more CPU-bound threads than cores the cell measures the host's run
//! queue, not the server. Measured on 2 vCPUs when this was sized: an
//! 8-thread fleet pinned the loaded first-answer tail at 31–38 ms (a
//! descheduled session waits a full rotation for its next slice) whatever
//! the program did, and a fleet of 2 — `available_parallelism()` — brought
//! the same cell to 2–10 ms, so the 30 ms was timesharing, not the wait
//! behind a non-preemptible flood session. A fleet of 2 still left the
//! woken *client* threads without a core: client-side p95 read 3.8–4.3 ms
//! where the server's own histogram read 0.5–0.6 ms. With one core left
//! to the clients the two agree. What remains under load is the wait for
//! a fleet thread to finish the flood session it is on, which is why
//! flood sessions are short.
//!
//! Latencies are reported at p95: of 200 sessions, ten lie beyond it.
//!
//! Exit-2 guards:
//! - streamed first-answer p95 must be at least 3x lower than the
//!   run-to-completion p95 of the same high-priority sessions (measured
//!   when written, 2 vCPUs shared with other tenants, two sets of five
//!   consecutive runs: 8.2–9.9x and 5.8–10.4x, first answer 0.6–1.0 ms
//!   against completion 5.7–8.7 ms; with answers held back until the session ends, in a
//!   scratch copy, the ratio is 1.0 and the guard fires);
//! - the high-priority first-answer p95 must not collapse under the
//!   low-priority flood (priority dispatch must shield it);
//! - the registry's server-side first-answer p95 must agree with the
//!   client-side sampled p95 within noise, and its admission counters
//!   must agree with the server's own stats exactly.
//!
//! ```text
//! server_load            # writes server_load.{txt,csv} and
//!                        # server_metrics.prom under target/wall/
//! server_load --out DIR
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ace_bench::{labels, pool_cfg, Table};
use ace_core::{Ace, Mode};
use ace_runtime::MetricsRegistry;
use ace_server::{Priority, QueryRequest, QueryServer, Serve, ServerConfig, SessionEnd};

/// High-priority sessions per phase, and the open-loop gap between them:
/// offered high-priority load is under half of one fleet thread.
const HIGH_SESSIONS: usize = 200;
const SPACING: Duration = Duration::from_millis(16);
/// Answers per high-priority session. Each answer sits behind one `nrev`
/// of 20 elements, so a session is 200x the work of its first answer:
/// the spread between the two is what streaming buys.
const ANSWERS: usize = 200;
/// Admission limit. The flood refills it for the whole of phase B, so
/// every fleet thread always has a low-priority backlog to return to.
const MAX_IN_FLIGHT: usize = 64;

fn program() -> String {
    let list = |n: usize| (1..=n).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "append([], L, L).\n\
         append([H|T], L, [H|R]) :- append(T, L, R).\n\
         nrev([], []).\n\
         nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).\n\
         member(X, [X|_]).\n\
         member(X, [_|T]) :- member(X, T).\n\
         work(X) :- member(X, [{items}]), nrev([{work}], _).\n\
         frep(0).\n\
         frep(N) :- N > 0, nrev([{flood}], _), N1 is N - 1, frep(N1).\n\
         flood(R) :- frep(12), nrev([{flood}], R).\n",
        items = list(ANSWERS),
        work = list(20),
        flood = list(24),
    )
}

/// Latencies of one high-priority session, in microseconds.
struct Sample {
    first_answer_us: u64,
    completion_us: u64,
}

/// Submit the high-priority `work(X)` sessions at the fixed open-loop rate
/// and collect first-answer / completion latencies on a thread per
/// session (the "client").
fn drive_high_priority(server: &QueryServer) -> Result<Vec<Sample>, String> {
    let mut collectors = Vec::new();
    for _ in 0..HIGH_SESSIONS {
        let t0 = Instant::now();
        // Backpressure rather than rejection for the latency-sensitive
        // tier: any wait for an admission slot counts against the
        // measured first-answer latency (t0 is taken before submission).
        let handle = server
            .submit_blocking(
                QueryRequest::new(Mode::Sequential, "work(X)", pool_cfg(1))
                    .with_priority(Priority::High),
            )
            .map_err(|e| format!("high-priority session refused: {e}"))?;
        collectors.push(std::thread::spawn(move || {
            let first = handle.next_answer().map(|_| t0.elapsed());
            let outcome = handle.wait();
            (first, t0.elapsed(), outcome.end)
        }));
        std::thread::sleep(SPACING);
    }
    collectors
        .into_iter()
        .map(|c| {
            let (first, done, end) = c.join().map_err(|_| "collector thread panicked")?;
            if end != SessionEnd::Completed {
                return Err(format!("high-priority session ended {end:?}"));
            }
            Ok(Sample {
                first_answer_us: first.ok_or("session streamed no answer")?.as_micros() as u64,
                completion_us: done.as_micros() as u64,
            })
        })
        .collect()
}

fn p95(samples: &[Sample], read: fn(&Sample) -> u64) -> u64 {
    let mut us: Vec<u64> = samples.iter().map(read).collect();
    us.sort_unstable();
    us[(us.len() * 95).div_ceil(100) - 1]
}

fn main() {
    ace_bench::run("server_load", "target/wall", |cli| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fleet = cores.saturating_sub(1).max(1);
        let ace = Ace::load(&program())?;
        let server_cfg = ServerConfig::default()
            .with_fleet(fleet)
            .with_max_in_flight(MAX_IN_FLIGHT);

        // Phase A — high-priority traffic alone: the undisturbed baseline.
        eprintln!("server_load: phase A ({HIGH_SESSIONS} high-priority sessions, no flood) ...");
        let server = ace.serve(server_cfg.clone());
        let solo = drive_high_priority(&server)?;
        server.shutdown();

        // Phase B — the same high-priority traffic under a low-priority
        // flood: a second client submits short `flood/1` sessions (13
        // `nrev`s of 24 elements, so a fleet thread is never far from its
        // next dispatch decision) as fast as the admission controller
        // accepts them, backing off a millisecond at each rejection, until
        // the high tier is done. Rejections are part of the measurement.
        eprintln!("server_load: phase B ({HIGH_SESSIONS} high-priority sessions under flood) ...");
        let registry = MetricsRegistry::shared();
        let server = ace.serve(server_cfg.with_metrics(registry.clone()));
        let high_tier_done = AtomicBool::new(false);
        let started = Instant::now();
        let (loaded, flood_rejected) = std::thread::scope(|scope| {
            let flood = scope.spawn(|| {
                let (mut handles, mut rejected) = (Vec::new(), 0u64);
                while !high_tier_done.load(Ordering::SeqCst) {
                    match server.submit(
                        QueryRequest::new(Mode::Sequential, "flood(R)", pool_cfg(1))
                            .with_priority(Priority::Low),
                    ) {
                        Ok(h) => handles.push(h),
                        Err(_) => {
                            rejected += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                for h in &handles {
                    h.wait();
                }
                rejected
            });
            let loaded = drive_high_priority(&server);
            high_tier_done.store(true, Ordering::SeqCst);
            (loaded, flood.join())
        });
        let loaded = loaded?;
        let flood_rejected = flood_rejected.map_err(|_| "flood thread panicked")?;
        let phase_b = started.elapsed();
        // Scrape before shutdown, the way a live Prometheus poll would see it.
        let snap = server.metrics();
        let stats = server.shutdown();

        let first_solo = p95(&solo, |s| s.first_answer_us);
        let first_loaded = p95(&loaded, |s| s.first_answer_us);
        let completion_loaded = p95(&loaded, |s| s.completion_us);
        let stream_speedup = completion_loaded as f64 / first_loaded.max(1) as f64;

        // The server-side view of the same phase-B traffic, from the registry.
        let metrics_first_high = snap
            .histogram(
                "ace_server_first_answer_latency_us",
                &[("priority", "high")],
            )
            .map_or(0, |h| h.quantile(0.95));
        let metrics_admitted = snap.counter_total("ace_server_sessions_admitted_total");
        let metrics_rejected = snap.counter_total("ace_server_sessions_rejected_total");

        let mut table = Table::new(
            "server_load",
            "Serving — streamed first answers under a low-priority flood (wall clock)",
            "latencies in microseconds at p95 of the high-priority sessions",
            &["metric", "value"],
            &[],
        );
        table.rows = vec![
            labels!["available_parallelism", cores],
            labels!["fleet", fleet],
            labels!["high_sessions", HIGH_SESSIONS],
            labels!["flood_rejected", flood_rejected],
            labels!["admitted", stats.admitted],
            labels!["completed", stats.completed],
            labels!["answers_streamed", stats.answers_streamed],
            labels![
                "sessions_per_sec",
                format!("{:.0}", stats.completed as f64 / phase_b.as_secs_f64())
            ],
            labels!["phase_b_ms", phase_b.as_millis()],
            labels!["p95_first_answer_solo_us", first_solo],
            labels!["p95_first_answer_loaded_us", first_loaded],
            labels!["p95_completion_loaded_us", completion_loaded],
            labels!["stream_speedup_p95", format!("{stream_speedup:.1}")],
            labels!["metrics_p95_first_answer_high_us", metrics_first_high],
            labels!["metrics_admitted_total", metrics_admitted],
            labels!["metrics_rejected_total", metrics_rejected],
        ];
        print!("{}", table.txt());
        let mut artifacts = table.artifacts();
        artifacts.push(("server_metrics.prom".to_owned(), snap.render_prometheus()));
        ace_bench::write(&cli.out, &artifacts)?;

        // Guard 1: streaming must beat run-to-completion on first-answer
        // latency by at least 3x under mixed load.
        if stream_speedup < 3.0 {
            return Err(format!(
                "first-answer p95 ({first_loaded}us) is not >=3x lower than \
                 run-to-completion p95 ({completion_loaded}us)"
            ));
        }
        // Guard 2: priority dispatch must shield high-priority first-answer
        // latency from the flood. A priority inversion would queue the
        // session behind the whole flood (seconds); a shielded one waits
        // for one fleet thread to finish the flood session it is on. The
        // bound is generous (16x or 100ms of absolute slack, against a
        // flood backlog worth seconds) to stay robust on shared CI hosts.
        let bound = (first_solo * 16).max(first_solo + 100_000);
        if first_loaded > bound {
            return Err(format!(
                "high-priority first-answer p95 regressed under flood: \
                 {first_loaded}us vs solo {first_solo}us (bound {bound}us)"
            ));
        }
        // Guard 3: the registry must agree with what the bench measured.
        // Counters exactly — every admission and rejection increments
        // exactly one labeled series. The latency histogram within noise:
        // server-side timing starts at submission like the client's t0 but
        // is observed at the sink rather than the client thread, and the
        // log-bucket layout rounds up to a bucket bound — a 2x band plus
        // 20ms absolute slack covers both without masking a broken
        // histogram (a real bug is off by orders of magnitude or zero).
        if metrics_admitted != stats.admitted || metrics_rejected != stats.rejected {
            return Err(format!(
                "metrics admission counters disagree with server stats: admitted \
                 {metrics_admitted} vs {}, rejected {metrics_rejected} vs {}",
                stats.admitted, stats.rejected
            ));
        }
        let slack = 20_000u64;
        if metrics_first_high > first_loaded * 2 + slack
            || first_loaded > metrics_first_high * 2 + slack
        {
            return Err(format!(
                "metrics first-answer p95 ({metrics_first_high}us) disagrees with the \
                 client-side sample ({first_loaded}us)"
            ));
        }
        Ok(())
    });
}
