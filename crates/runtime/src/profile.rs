//! Virtual-time cost profiler: fold a finished run's trace into a
//! weighted call profile.
//!
//! The trace stream (see [`crate::trace`]) stamps every event with its
//! worker's virtual clock, so the gap between two consecutive events of
//! the same worker *is* the virtual cost of whatever that worker was
//! doing in between. [`Profile::from_trace`] folds those per-worker
//! intervals into frames — semicolon-joined paths like
//! `run;member/2;publish` or `lock;answer` — attributing each interval
//! to the event that ends it, under the frame that event's row of the
//! event table declares ([`crate::trace::EventKind::frame`]):
//!
//! * predicate context comes from `publish`/`lao-reuse` events (which
//!   carry the predicate label) and follows `claim`s through the
//!   node → predicate map, so engine work is charged to the predicate
//!   the worker was executing;
//! * scheduler activity splits into `steal;hunt` (probing for work) and
//!   `steal;install` (installing a claim), `idle;probe`, and
//!   `lock;<what>` for contended-lock waits ([`crate::trace::EventKind::LockWait`]);
//! * fault machinery folds under `fault;*`.
//!
//! Consumers: [`Profile::top`] for a ranked table (surfaced in
//! `RunReport::summary()`), [`Profile::collapsed`] for
//! `inferno`-compatible collapsed-stack flamegraph text (one
//! `frame;sub count` line per frame — feed to `inferno-flamegraph` or
//! any Brendan-Gregg-style `flamegraph.pl` workflow), and
//! [`Profile::table`] for human-readable output in benches and the
//! repl.
//!
//! The attribution is deliberately interval-based rather than
//! event-count-based: a frame's weight is the virtual time spent
//! *reaching* its events, so a contended answer lock that serializes
//! 256 workers shows up as a `lock;answer` frame weighted by the actual
//! serialization cost — the topology-grid cliffs become a ranked list.

use std::collections::{BTreeMap, HashMap};

use crate::trace::{EventKind, Frame, Label, Trace};

/// A weighted call profile: virtual cost per frame. Build with
/// [`Profile::from_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    frames: BTreeMap<String, u64>,
    total: u64,
}

impl Profile {
    /// Fold `trace` into a profile (see module docs for the frame
    /// taxonomy). Works on any engine's trace; server-side session
    /// events (sequence-stamped, not virtual-time-stamped) are ignored.
    pub fn from_trace(trace: &Trace) -> Profile {
        // Pass 1: node -> predicate, from the publication events.
        let mut node_pred: HashMap<u64, Label> = HashMap::new();
        for ev in &trace.events {
            if let EventKind::Publish { node, pred, .. } | EventKind::LaoReuse { node, pred, .. } =
                &ev.kind
            {
                node_pred.insert(*node, *pred);
            }
        }

        // Pass 2: per-worker interval folding. The merged stream is
        // sorted by `t` with per-worker order preserved, so consecutive
        // events of one worker bound that worker's activity intervals.
        let mut prev_t: HashMap<usize, u64> = HashMap::new();
        let mut current: HashMap<usize, Label> = HashMap::new();
        let mut frames: BTreeMap<String, u64> = BTreeMap::new();
        let mut total = 0u64;
        for ev in &trace.events {
            let w = ev.worker;
            let prev = prev_t.insert(w, ev.t).unwrap_or(0);
            let dt = ev.t.saturating_sub(prev);
            // The predicate the interval this event ends belongs to: the
            // worker's context — or, for a publication, the predicate it
            // publishes. Context moves *after* that: to the published
            // predicate, or through a claim to the claimed node's.
            let mut pred = current.get(&w).copied();
            match &ev.kind {
                EventKind::Publish { pred: p, .. } | EventKind::LaoReuse { pred: p, .. } => {
                    pred = Some(*p);
                    current.insert(w, *p);
                }
                EventKind::Claim { node, .. } => {
                    current.remove(&w);
                    if let Some(p) = node_pred.get(node) {
                        current.insert(w, *p);
                    }
                }
                EventKind::WorkerExit { .. } => {
                    current.remove(&w);
                }
                _ => {}
            }
            if dt == 0 {
                continue;
            }
            let frame = match ev.kind.frame() {
                // Zero-width bookkeeping marks and server sequence
                // stamps: no interval attribution.
                Frame::Skip => continue,
                Frame::Run(sub) => {
                    let pred = pred.map_or_else(|| "query".to_owned(), |p| p.to_string());
                    match sub {
                        "" => format!("run;{pred}"),
                        _ => format!("run;{pred};{sub}"),
                    }
                }
                Frame::Fixed(a, b) => format!("{a};{b}"),
            };
            *frames.entry(frame).or_insert(0) += dt;
            total += dt;
        }
        Profile { frames, total }
    }

    /// Total attributed virtual cost across all frames.
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Attributed cost of one exact frame path (0 if absent).
    pub fn cost(&self, frame: &str) -> u64 {
        self.frames.get(frame).copied().unwrap_or(0)
    }

    /// All frames with their costs, in path order.
    pub fn frames(&self) -> impl Iterator<Item = (&str, u64)> {
        self.frames.iter().map(|(f, &c)| (f.as_str(), c))
    }

    /// The `n` most expensive frames as `(frame, cost, percent_of_total)`,
    /// heaviest first (ties broken by frame path).
    pub fn top(&self, n: usize) -> Vec<(String, u64, f64)> {
        let mut v: Vec<(String, u64)> = self.frames.iter().map(|(f, &c)| (f.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v.into_iter()
            .map(|(f, c)| {
                let pct = if self.total > 0 {
                    100.0 * c as f64 / self.total as f64
                } else {
                    0.0
                };
                (f, c, pct)
            })
            .collect()
    }

    /// Collapsed-stack flamegraph text: one `frame;sub count` line per
    /// frame, `inferno`/`flamegraph.pl` compatible.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (frame, cost) in &self.frames {
            out.push_str(frame);
            out.push(' ');
            out.push_str(&cost.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable top-`n` table (percent, cost, frame path).
    pub fn table(&self, n: usize) -> String {
        let mut out = format!(
            "top {} of {} frames by virtual cost (total {} units):\n",
            n.min(self.frames.len()),
            self.frames.len(),
            self.total
        );
        for (frame, cost, pct) in self.top(n) {
            out.push_str(&format!("  {pct:>5.1}%  {cost:>12}  {frame}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(t: u64, worker: usize, kind: EventKind) -> TraceEvent {
        TraceEvent { t, worker, kind }
    }

    fn sample_trace() -> Trace {
        Trace::merge(
            vec![],
            vec![
                // worker 0: runs p/1, publishes, then waits on the
                // answer lock.
                ev(
                    10,
                    0,
                    EventKind::Publish {
                        node: 1,
                        epoch: 0,
                        alts: 2,
                        pred: Label::Pred(ace_logic::sym::sym("p"), 1),
                    },
                ),
                ev(
                    15,
                    0,
                    EventKind::LockWait {
                        what: "answer",
                        cost: 5,
                    },
                ),
                ev(40, 0, EventKind::QuantumEnd { cost: 25 }),
                // worker 1: hunts, claims node 1 (=> p/1 context), runs.
                ev(8, 1, EventKind::PoolPop { node: 1 }),
                ev(
                    12,
                    1,
                    EventKind::Claim {
                        node: 1,
                        epoch: 0,
                        alt: 0,
                    },
                ),
                ev(30, 1, EventKind::QuantumEnd { cost: 18 }),
            ],
        )
    }

    #[test]
    fn intervals_fold_into_frames() {
        let p = Profile::from_trace(&sample_trace());
        assert_eq!(p.cost("run;p/1;publish"), 10, "{p:?}");
        assert_eq!(p.cost("lock;answer"), 5);
        // worker 0: 40-15=25 in p/1; worker 1: 30-12=18 in p/1 (context
        // followed through the claim's node -> pred map).
        assert_eq!(p.cost("run;p/1"), 43);
        assert_eq!(p.cost("steal;hunt"), 8);
        assert_eq!(p.cost("steal;install"), 4);
        assert_eq!(p.total(), 10 + 5 + 25 + 8 + 4 + 18);
    }

    #[test]
    fn top_ranks_by_cost() {
        let p = Profile::from_trace(&sample_trace());
        let top = p.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "run;p/1");
        assert_eq!(top[0].1, 43);
        assert!(top[0].2 > top[1].2);
        let pct_sum: f64 = p.top(100).iter().map(|(_, _, pct)| pct).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9, "{pct_sum}");
    }

    #[test]
    fn collapsed_is_inferno_compatible() {
        let p = Profile::from_trace(&sample_trace());
        let text = p.collapsed();
        for line in text.lines() {
            let (frame, count) = line.rsplit_once(' ').expect("frame count");
            assert!(!frame.is_empty());
            count.parse::<u64>().expect("numeric count");
        }
        assert!(text.contains("lock;answer 5\n"), "{text}");
    }

    #[test]
    fn table_renders_percentages() {
        let p = Profile::from_trace(&sample_trace());
        let table = p.table(3);
        assert!(table.starts_with("top 3 of"), "{table}");
        assert!(table.contains("run;p/1"), "{table}");
        assert!(table.contains('%'), "{table}");
    }

    #[test]
    fn empty_trace_profiles_empty() {
        let p = Profile::from_trace(&Trace::default());
        assert!(p.is_empty());
        assert_eq!(p.total(), 0);
        assert_eq!(p.collapsed(), "");
        assert!(p.top(5).is_empty());
    }

    #[test]
    fn server_sequence_events_are_ignored() {
        let trace = Trace::merge(
            vec![],
            vec![
                ev(1, 0, EventKind::SessionAdmit { session: 1 }),
                ev(2, 0, EventKind::AnswerStreamed { session: 1 }),
                ev(
                    3,
                    0,
                    EventKind::SessionDrain {
                        session: 1,
                        outcome: "completed",
                        answers: 1,
                    },
                ),
            ],
        );
        assert!(Profile::from_trace(&trace).is_empty());
    }
}
