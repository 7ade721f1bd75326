//! Spans recorded from the benchmark's own calls into the engine.
//!
//! The engine carries no tracing of its own: every span here is taken in
//! the benchmark, around a `Session::run` attempt or a `Txn` call. Span
//! durations are kept in memory per session; the slowest traced
//! transactions keep their whole span tree, which is written out when
//! the run ends.

use std::time::Instant;

/// A span around one call into the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// From `Session::run` being called to the transaction body starting.
    Begin,
    /// A point read (`lookup` + `read` / `read_for_update`).
    Read,
    /// A row write (`update`, `insert`).
    Write,
    /// An ordered-index range scan (`scan_ordered`).
    Scan,
    /// From the transaction body returning to `Session::run` returning.
    Commit,
}

impl Call {
    /// Every call kind, in metric order.
    pub const ALL: [Call; 5] = [
        Call::Begin,
        Call::Read,
        Call::Write,
        Call::Scan,
        Call::Commit,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Read => "read",
            Call::Write => "write",
            Call::Scan => "scan",
            Call::Commit => "commit",
        }
    }
}

/// One span of a kept transaction trace.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// `attempt` or a [`Call`] name.
    pub name: &'static str,
    /// Index of the enclosing span in the same trace (`None` for an
    /// attempt, whose parent is the transaction itself).
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A whole traced transaction: every attempt and the calls inside it.
#[derive(Clone, Debug)]
pub struct TxnTrace {
    /// Request identifier: session index in the top bits, per-session
    /// sequence number below.
    pub id: u64,
    /// Transaction type.
    pub kind: &'static str,
    /// First attempt to final outcome (open loop: from the due time).
    pub latency_ns: u64,
    /// Spans in start order.
    pub spans: Vec<SpanRec>,
}

/// How many of the slowest traced transactions each session keeps.
pub const KEPT_TRACES: usize = 20;

/// Per-session span recorder. Off, it records nothing and never reads
/// the clock.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    calls: [Vec<u64>; Call::ALL.len()],
    attempts: Vec<Vec<u64>>,
    current: Vec<SpanRec>,
    attempt_at: Option<usize>,
    slowest: Vec<TxnTrace>,
}

impl Tracer {
    /// A recorder for a workload with `kinds` transaction types.
    pub fn new(epoch: Instant, kinds: usize) -> Tracer {
        Tracer {
            epoch,
            on: false,
            calls: Default::default(),
            attempts: vec![Vec::new(); kinds],
            current: Vec::new(),
            attempt_at: None,
            slowest: Vec::new(),
        }
    }

    /// Switch recording on or off (decided per transaction).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The start of a span, or `None` while off.
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn rec(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> u64 {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.current.push(SpanRec {
            name,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
        dur_ns
    }

    /// Close a call span opened by [`Tracer::now`].
    pub fn call(&mut self, call: Call, start: Option<Instant>) {
        if let Some(start) = start {
            let dur = self.rec(call.name(), self.attempt_at, start);
            self.calls[call as usize].push(dur);
        }
    }

    /// Open the span of one `Session::run` attempt.
    pub fn begin_attempt(&mut self) -> Option<Instant> {
        let start = self.now()?;
        self.attempt_at = Some(self.current.len());
        self.current.push(SpanRec {
            name: "attempt",
            parent: None,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
        });
        Some(start)
    }

    /// Close an attempt span of transaction type `kind`.
    pub fn end_attempt(&mut self, kind: usize, start: Option<Instant>) {
        if let (Some(start), Some(at)) = (start, self.attempt_at.take()) {
            let dur = start.elapsed().as_nanos() as u64;
            self.current[at].dur_ns = dur;
            self.attempts[kind].push(dur);
        }
    }

    /// End a transaction: keep its span tree if it is among the slowest.
    pub fn end_txn(&mut self, id: u64, kind: &'static str, latency_ns: u64) {
        if self.current.is_empty() {
            return;
        }
        let spans = std::mem::take(&mut self.current);
        keep_slowest(
            &mut self.slowest,
            TxnTrace {
                id,
                kind,
                latency_ns,
                spans,
            },
        );
    }

    /// Durations (ns) of every recorded span of one call kind.
    pub fn call_durations(&self, call: Call) -> &[u64] {
        &self.calls[call as usize]
    }

    /// Durations (ns) of every recorded attempt of one transaction type.
    pub fn attempt_durations(&self, kind: usize) -> &[u64] {
        &self.attempts[kind]
    }

    /// The kept slow-transaction traces.
    pub fn into_slowest(self) -> Vec<TxnTrace> {
        self.slowest
    }
}

/// Insert `t` into `kept` if it is among the [`KEPT_TRACES`] slowest.
pub fn keep_slowest(kept: &mut Vec<TxnTrace>, t: TxnTrace) {
    if kept.len() < KEPT_TRACES {
        kept.push(t);
        return;
    }
    let (min_at, min) = kept
        .iter()
        .enumerate()
        .min_by_key(|(_, k)| k.latency_ns)
        .map(|(i, k)| (i, k.latency_ns))
        .expect("kept is full, so non-empty");
    if t.latency_ns > min {
        kept[min_at] = t;
    }
}

/// Nearest-rank quantile of an ascending slice (`0` when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 1);
        let a = t.begin_attempt();
        t.call(Call::Read, t.now());
        t.end_attempt(0, a);
        t.end_txn(1, "x", 10);
        assert!(t.attempt_durations(0).is_empty());
        assert!(t.call_durations(Call::Read).is_empty());
        assert!(t.into_slowest().is_empty());
    }

    #[test]
    fn calls_nest_under_their_attempt_and_only_the_slowest_are_kept() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_on(true);
        for id in 0..(KEPT_TRACES as u64 + 5) {
            let a = t.begin_attempt();
            t.call(Call::Write, t.now());
            t.end_attempt(0, a);
            t.end_txn(id, "x", id);
        }
        assert_eq!(t.attempt_durations(0).len(), KEPT_TRACES + 5);
        let kept = t.into_slowest();
        assert_eq!(kept.len(), KEPT_TRACES);
        assert!(kept.iter().all(|k| k.latency_ns >= 5));
        let spans = &kept[0].spans;
        assert_eq!(spans[0].name, "attempt");
        assert_eq!(spans[1].parent, Some(0));
    }
}
