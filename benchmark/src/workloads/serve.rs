//! `serve_closed`: query text in, streamed answers out of `ace-server`.
//!
//! A closed loop: `CLIENTS` client threads each keep one session
//! outstanding on a `FLEET`-thread `QueryServer` and submit the next query
//! of the seeded order only when the previous stream has ended — callers
//! that wait for a reply. (The open-loop flood stays in `server_load`.)
//! A client blocks on its own session's channel, so first-answer and
//! completion times are read at the moment they happen, without polling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ace_core::{Ace, Mode};
use ace_runtime::{ClauseExec, EngineConfig, TableConfig, TableSpace};
use ace_server::{QueryRequest, QueryServer, Serve, ServerConfig, ServerStats, SessionEnd};

use super::{
    code_instrs, peak_rss_mb, quietest, ratio, seq_cfg, set_up, setups_in, PassResult, RoundOut,
};
use crate::inputs::{self, ServeKind, SERVE_CYCLE, SERVE_MIX};
use crate::oracle::Expected;
use crate::quantile::median;
use crate::spans::Recorder;

/// Serving threads (= cores of the box this was sized on).
pub const FLEET: usize = 2;
/// Closed-loop clients, one session outstanding each.
pub const CLIENTS: usize = 2;
const MAX_IN_FLIGHT: usize = 8;
/// Sessions of the depth-1 probe behind `server.overhead_ms_p50`.
const PROBE_SESSIONS: usize = 256;

struct KindQuery {
    kind: ServeKind,
    text: String,
    cfg: EngineConfig,
    expect: Expected,
}

pub struct ServeClosed {
    ace: Ace,
    kinds: Vec<KindQuery>,
    order: Vec<ServeKind>,
    server: QueryServer,
    start_ms: f64,
}

/// What a client saw of one session.
struct Session {
    /// Position in the walk over the seeded order.
    index: usize,
    kind: ServeKind,
    submitted: Instant,
    /// `submit` returned.
    admitted: Instant,
    first_answer: Option<Instant>,
    /// The answer channel closed.
    stream_end: Instant,
    /// `SessionHandle::wait` returned.
    done: Instant,
    answers: usize,
    virtual_time: u64,
}

impl Session {
    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }
    fn completion_ms(&self) -> f64 {
        Session::ms(self.submitted, self.done)
    }
    fn first_answer_ms(&self) -> Option<f64> {
        self.first_answer.map(|t| Session::ms(self.submitted, t))
    }
}

impl ServeClosed {
    pub fn new(seed: u64) -> Result<ServeClosed, String> {
        let input = inputs::serve(seed);
        let ace = Ace::load(&input.program).map_err(|e| format!("load: {e}"))?;
        // One table space for the whole run, completed here, so every
        // `WarmPath` session is a replay.
        let space = Arc::new(TableSpace::new(&TableConfig::enabled()));
        let mut kinds = Vec::new();
        for (kind, spec) in input.specs {
            let mut cfg = seq_cfg(spec.all);
            let mut oracle_cfg = seq_cfg(spec.all).with_clause_exec(ClauseExec::Interpreted);
            if kind == ServeKind::WarmPath {
                cfg = cfg.with_table_space(Arc::clone(&space));
                oracle_cfg = oracle_cfg.with_table(TableConfig::enabled());
            }
            let oracle = ace
                .run_strict(Mode::Sequential, &spec.query, &oracle_cfg)
                .map_err(|e| format!("{}: oracle run: {e}", spec.label))?;
            if let Some(closed) = &spec.closed {
                closed(&oracle.solutions).map_err(|e| format!("{}: {e}", spec.label))?;
            }
            let expect = Expected::of(&oracle.solutions);
            if kind == ServeKind::WarmPath {
                let cold = ace
                    .run_strict(Mode::Sequential, &spec.query, &cfg)
                    .map_err(|e| format!("{}: table fill: {e}", spec.label))?;
                if !expect.matches(&cold.solutions) {
                    return Err(format!("{}: table fill answers differ", spec.label));
                }
            }
            kinds.push(KindQuery {
                kind,
                text: spec.query,
                cfg,
                expect,
            });
        }
        let t = Instant::now();
        let server = ace.serve(
            ServerConfig::default()
                .with_fleet(FLEET)
                .with_max_in_flight(MAX_IN_FLIGHT),
        );
        let start_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(ServeClosed {
            ace,
            kinds,
            order: input.order,
            server,
            start_ms,
        })
    }

    pub fn pins(&self) -> Vec<(String, Expected)> {
        self.kinds
            .iter()
            .map(|k| (format!("{:?}", k.kind), k.expect))
            .collect()
    }

    fn query(&self, kind: ServeKind) -> &KindQuery {
        self.kinds
            .iter()
            .find(|k| k.kind == kind)
            .expect("every kind has a query")
    }

    /// Submit a query of `kind` as the `i`-th session, drain its stream to
    /// the end, check the answers.
    fn session(&self, i: usize, kind: ServeKind, out: &mut PassResult) -> Option<Session> {
        let q = self.query(kind);
        let request = QueryRequest::new(Mode::Sequential, q.text.as_str(), q.cfg.clone());
        out.attempted += 1;
        let submitted = Instant::now();
        let handle = match self.server.submit(request) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("{:?}: rejected: {e}", q.kind));
                return None;
            }
        };
        let admitted = Instant::now();
        let mut answers = Vec::new();
        let mut first_answer = None;
        while let Some(a) = handle.next_answer() {
            first_answer.get_or_insert_with(Instant::now);
            answers.push(a);
        }
        let stream_end = Instant::now();
        let outcome = handle.wait();
        let done = Instant::now();
        if outcome.end != SessionEnd::Completed {
            out.fail(format!("{:?}: ended {:?}", q.kind, outcome.end));
        } else if !q.expect.matches(&answers) {
            out.fail(format!(
                "{:?}: {} answers streamed, expected {}",
                q.kind,
                answers.len(),
                q.expect.count
            ));
        }
        Some(Session {
            index: i,
            kind: q.kind,
            submitted,
            admitted,
            first_answer,
            stream_end,
            done,
            answers: answers.len(),
            virtual_time: outcome.report.map_or(0, |r| r.virtual_time),
        })
    }

    /// Warm-up "round" of set-up: two sessions of each kind at depth 1
    /// (not the head of the seeded order, whose make-up — and with it the
    /// set-up time — would change fourfold with the seed).
    fn warm(&self, out: &mut PassResult) -> RoundOut {
        let started = Instant::now();
        let mut virtual_time = 0;
        for i in 0..2 * SERVE_MIX.len() {
            let (kind, _) = SERVE_MIX[i % SERVE_MIX.len()];
            virtual_time += self.session(i, kind, out).map_or(0, |s| s.virtual_time);
        }
        RoundOut {
            wall: started.elapsed(),
            queries: 2 * SERVE_MIX.len() as u64,
            virtual_time,
        }
    }

    /// The closed loop: `CLIENTS` threads walk the order through a shared
    /// cursor until `seconds` have passed. Returns the sessions and when
    /// the window opened.
    fn closed_loop(&self, seconds: f64, out: &mut PassResult) -> (Vec<Session>, Instant) {
        let cursor = AtomicUsize::new(0);
        let started = Instant::now();
        let per_client: Vec<(Vec<Session>, PassResult)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = PassResult::default();
                        let mut sessions = Vec::new();
                        while started.elapsed().as_secs_f64() < seconds {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let kind = self.order[i % SERVE_CYCLE];
                            sessions.extend(self.session(i, kind, &mut mine));
                        }
                        (sessions, mine)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let mut sessions = Vec::new();
        for (s, mine) in per_client {
            sessions.extend(s);
            out.attempted += mine.attempted;
            out.failed += mine.failed;
            out.failures.extend(mine.failures);
        }
        out.failures.truncate(5);
        (sessions, started)
    }

    /// Mean simulated cost of a session over one pass of the order. Every
    /// kind has a fixed share and costs the same each time, so this does
    /// not depend on how many sessions the window held.
    fn virtual_time(&self, sessions: &[Session], out: &mut PassResult) -> f64 {
        let mut total = 0.0;
        for (kind, share) in SERVE_MIX {
            let mut of_kind = sessions.iter().filter(|s| s.kind == kind);
            let first = of_kind.next().map_or(0, |s| s.virtual_time);
            if of_kind.any(|s| s.virtual_time != first) {
                out.fail(format!("{kind:?}: virtual time differs between sessions"));
            }
            total += (first * share as u64) as f64;
        }
        total / SERVE_CYCLE as f64
    }

    fn shutdown(self) -> (ServerStats, f64) {
        let t = Instant::now();
        let stats = self.server.shutdown();
        (stats, t.elapsed().as_secs_f64() * 1e3)
    }
}

/// Median completion time and completion rate of every full pass over the
/// order in `sessions` (the last pass is partial and dropped). Every pass
/// holds the same sessions, so neither number depends on what a block
/// happened to draw.
fn per_pass(sessions: &[Session], started: Instant) -> (Vec<f64>, Vec<f64>) {
    let passes = (sessions.len() / SERVE_CYCLE).max(1);
    let mut ms: Vec<Vec<f64>> = vec![Vec::new(); passes];
    let mut end = vec![started; passes];
    for s in sessions.iter().filter(|s| s.index / SERVE_CYCLE < passes) {
        let pass = s.index / SERVE_CYCLE;
        ms[pass].push(s.completion_ms());
        end[pass] = end[pass].max(s.done);
    }
    let rate = std::iter::once(&started)
        .chain(&end)
        .zip(&end)
        .map(|(from, to)| SERVE_CYCLE as f64 / to.saturating_duration_since(*from).as_secs_f64())
        .collect();
    (ms.iter().map(|b| median(b)).collect(), rate)
}

/// Like `measure_rounds`: `SETUP_REPEATS` segments, each a fresh, timed
/// set-up (server start included) and a closed loop for its share of the
/// time. The blocks are the passes over the order. Reported is the median
/// over the blocks, not the quietest one as for the round-based workloads
/// (`BLOCK_S`): with four threads on two cores the spread between blocks
/// is scheduling luck, and over ten identical runs the median block
/// repeated within 5% where the best block moved by 7-8%.
pub fn untraced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut out = PassResult::default();
    let (mut block_ms, mut block_rate, mut setups_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut n = 0;
    let mut virtual_time = 0.0;
    let segments = setups_in(seconds);
    for _ in 0..segments {
        let t = Instant::now();
        let serve = set_up(|| ServeClosed::new(seed), ServeClosed::warm)?;
        setups_s.push(t.elapsed().as_secs_f64());
        let (sessions, started) = serve.closed_loop(seconds / segments as f64, &mut out);
        let (ms, rate) = per_pass(&sessions, started);
        block_ms.extend(ms);
        block_rate.extend(rate);
        n += sessions.len();
        virtual_time = serve.virtual_time(&sessions, &mut out);
        out.pins = serve.pins();
        serve.shutdown();
    }
    out.set("round_ms_p50", median(&block_ms), n);
    out.set("queries_per_s", median(&block_rate), n);
    out.set("virtual_time", virtual_time, n);
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out.set("setup_s", quietest(&setups_s, true), setups_s.len());
    Ok(out)
}

pub fn traced(seed: u64, seconds: f64) -> Result<PassResult, String> {
    let serve = set_up(|| ServeClosed::new(seed), ServeClosed::warm)?;
    let mut out = PassResult {
        pins: serve.pins(),
        ..PassResult::default()
    };
    let epoch = Instant::now();
    let (sessions, _) = serve.closed_loop((seconds - 1.5).max(0.1), &mut out);

    // One root span per session with its four phases as children.
    let mut rec = Recorder::new(epoch);
    for (i, s) in sessions.iter().enumerate() {
        rec.set_op(i as u64);
        rec.set_round(i as u32);
        let root = rec.push_closed("op", s.submitted, s.done, None);
        let first = s.first_answer.unwrap_or(s.stream_end);
        rec.push_closed("server.submit", s.submitted, s.admitted, Some(root));
        rec.push_closed("server.first_answer", s.admitted, first, Some(root));
        rec.push_closed("server.stream", first, s.stream_end, Some(root));
        rec.push_closed("server.complete", s.stream_end, s.done, Some(root));
    }

    let completion: Vec<f64> = sessions.iter().map(Session::completion_ms).collect();
    let first_answer: Vec<f64> = sessions
        .iter()
        .filter_map(Session::first_answer_ms)
        .collect();
    out.set_median("completion_ms_p50", &completion);
    out.set_p95("completion_ms_p95", &completion);
    out.set_p95("round_ms_p95", &completion);
    out.set_median("first_answer_ms_p50", &first_answer);
    out.set_p95("first_answer_ms_p95", &first_answer);
    out.set_median("bench.traced_round_ms_p50", &completion);
    out.set(
        "bench.span_coverage",
        rec.child_coverage(),
        rec.spans().len(),
    );
    out.set("logic.code.instrs", code_instrs(&serve.ace) as f64, 1);
    out.set_median("server.submit_us_p50", &rec.self_us("server.submit"));
    // Per-answer streaming cost, on the one kind with a long stream.
    let streams: Vec<&Session> = sessions
        .iter()
        .filter(|s| s.kind == ServeKind::Members && s.answers > 1)
        .collect();
    out.set(
        "server.stream_us_per_answer",
        ratio(
            streams
                .iter()
                .filter_map(|s| Some(Session::ms(s.first_answer?, s.stream_end) * 1e3))
                .sum(),
            streams.iter().map(|s| (s.answers - 1) as f64).sum(),
        ),
        streams.len(),
    );

    // What the server adds to a query: the same mix at depth 1 (nothing
    // queued, nothing contending) against direct `run_strict` calls.
    let (mut served, mut direct) = (Vec::new(), Vec::new());
    for i in 0..PROBE_SESSIONS {
        let kind = serve.order[i % SERVE_CYCLE];
        served.extend(serve.session(i, kind, &mut out).map(|s| s.completion_ms()));
        let q = serve.query(kind);
        let t = Instant::now();
        let report = serve.ace.run_strict(Mode::Sequential, &q.text, &q.cfg);
        direct.push(t.elapsed().as_secs_f64() * 1e3);
        out.check_report(&format!("{:?} direct", q.kind), &q.expect, &report);
    }
    out.set(
        "server.overhead_ms_p50",
        median(&served) - median(&direct),
        served.len(),
    );

    let start_ms = serve.start_ms;
    let (stats, shutdown_ms) = serve.shutdown();
    out.set("server.admitted", stats.admitted as f64, 1);
    out.set("server.completed", stats.completed as f64, 1);
    out.set("server.rejected", stats.rejected as f64, 1);
    out.set("server.answers_streamed", stats.answers_streamed as f64, 1);
    out.set("server.start_ms", start_ms, 1);
    out.set("server.shutdown_ms", shutdown_ms, 1);
    out.spans = Some(rec);
    Ok(out)
}
