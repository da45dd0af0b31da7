//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions. One root span per operation; child spans
//! carry their parent and the operation id. Everything stays in memory
//! until the run ends, then goes out as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Operation this span belongs to (shared by a root and its children).
    pub op: u64,
    /// Round the operation belongs to (a session is its own round).
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder. A multi-threaded workload has its threads keep
/// timestamps and files them afterwards with [`Recorder::push_closed`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    round: u32,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            round: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Later operations belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Later root spans start operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under whatever span is
    /// open. The closure gets the recorder back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            round: self.round,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Record an already-measured span (phases observed by a client that
    /// cannot wrap the work in a closure, e.g. a streamed session).
    pub fn push_closed(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            op: self.op,
            round: self.round,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per-span self times of the spans called `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Self times of the spans `pick` accepts, summed per `key` (round,
    /// operation), in nanoseconds.
    pub fn sums_ns<K: Ord>(
        &self,
        key: impl Fn(&Span) -> K,
        pick: impl Fn(&str) -> bool,
    ) -> BTreeMap<K, u64> {
        let mut sums = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            if pick(s.name) {
                *sums.entry(key(s)).or_default() += ns;
            }
        }
        sums
    }

    /// Per-round sums of the self times of the spans `pick` accepts, in
    /// milliseconds, one entry per round that has such a span.
    pub fn round_self_ms(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        self.sums_ns(|s| s.round, pick)
            .into_values()
            .map(|ns| ns as f64 / 1e6)
            .collect()
    }

    /// Total self time of the spans `pick` accepts, in nanoseconds.
    pub fn total_self_ns(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| pick(s.name))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Share of the root spans' total time that the self times of their
    /// descendants account for (the rest is time the benchmark spent
    /// between layer calls).
    pub fn child_coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let children = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.parent.is_some())
            .map(|(_, ns)| ns)
            .sum::<u64>();
        if roots == 0 {
            0.0
        } else {
            children as f64 / roots as f64
        }
    }

    /// Chrome `trace_event` complete events (`ph: "X"`, microseconds), at
    /// most `limit` of them so one long workload cannot produce a file no
    /// viewer opens. `pid` tells workloads apart in a merged file.
    pub fn chrome_events(&self, pid: usize, limit: usize) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .take(limit)
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("ph", Json::from("X")),
                    ("pid", Json::from(pid)),
                    ("tid", Json::from(0usize)),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from(s.duration_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                            ("op", Json::from(s.op)),
                            ("round", Json::from(u64::from(s.round))),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Build a recorder from `(name, start, end, parent)` rows.
    fn recorder(rows: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        for &(name, start, end, parent) in rows {
            rec.push_closed(
                name,
                epoch + Duration::from_nanos(start),
                epoch + Duration::from_nanos(end),
                parent,
            );
        }
        rec
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100, siblings a 10..30 and b 40..90, b has child c 50..70.
        let rec = recorder(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 40, 90, Some(0)),
            ("c", 50, 70, Some(2)),
        ]);
        assert_eq!(rec.self_times_ns(), vec![30, 20, 30, 20]);
        // Everything but the root's own 30 ns is accounted for by children.
        assert!((rec.child_coverage() - 0.70).abs() < 1e-12);
        assert_eq!(rec.total_self_ns(|n| n == "b" || n == "c"), 50);
    }

    #[test]
    fn closure_spans_nest_and_carry_the_operation() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_round(3);
        rec.set_op(7);
        rec.span("root", |rec| {
            rec.span("child", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.round == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
