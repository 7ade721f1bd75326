//! Metrics: end-to-end ones from the untraced phase, per-layer ones from
//! counter deltas (untraced phase) and spans (traced phase).

use std::sync::Arc;

use sli_engine::{Database, LockStatsSnapshot, LogStats, MvccStats};
use sli_latch::ParkingStats;

use crate::driver::{Fate, Plan, Sample, SessionOut};
use crate::trace::{median, quantile, Call, TxnTrace};

/// Counters read at a phase boundary.
#[derive(Clone, Debug)]
pub struct Probe {
    lock: LockStatsSnapshot,
    log: LogStats,
    mvcc: MvccStats,
    park: ParkingStats,
    rss_bytes: u64,
}

impl Probe {
    /// Read every layer's counters now.
    pub fn take(db: &Arc<Database>) -> Probe {
        Probe {
            lock: db.lock_stats(),
            log: db.log_stats(),
            mvcc: db.mvcc_stats().unwrap_or_default(),
            park: sli_latch::parking_stats(),
            rss_bytes: rss_bytes(),
        }
    }
}

/// Resident set size of this process, from `/proc/self/status` (0 where
/// that is unavailable).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024)
        })
        .unwrap_or(0)
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every transaction type of every workload, for `engine.txn_us.<Type>`.
/// A workload reports 0 for the types it does not run.
pub const TXN_TYPES: [&str; 10] = [
    "getSub",
    "getDest",
    "getAccess",
    "updateSub",
    "updateLoc",
    "insCF",
    "delCF",
    "accountUpdate",
    "branchAudit",
    "NewOrder",
];

/// Quantiles reported for each call span.
const CALL_QUANTILES: [(Call, &[(&str, f64)]); 5] = [
    (Call::Begin, &[("p50", 0.5)]),
    (Call::Read, &[("p50", 0.5), ("p99", 0.99)]),
    (Call::Write, &[("p50", 0.5), ("p99", 0.99)]),
    (Call::Scan, &[("p50", 0.5)]),
    (Call::Commit, &[("p50", 0.5), ("p99", 0.99)]),
];

fn phase_samples(sessions: &[SessionOut], phase: usize) -> Vec<&Sample> {
    sessions
        .iter()
        .flat_map(|s| &s.samples)
        .filter(|x| x.slot.phase == phase)
        .collect()
}

fn completed(samples: &[&Sample]) -> usize {
    samples.iter().filter(|s| s.fate == Fate::Completed).count()
}

/// The measured transactions of phase 0, the untraced phase every run
/// has.
pub fn untraced_samples(sessions: &[SessionOut]) -> Vec<&Sample> {
    phase_samples(sessions, 0)
}

/// End-to-end metrics. Throughput and latency are the median over the
/// untraced phase's windows of each window's figure; a transaction that
/// did not complete counts as missing every latency limit.
pub fn end_to_end(plan: &Plan, sessions: &[SessionOut], setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let samples = untraced_samples(sessions);
    let window_s = plan.window.as_secs_f64();
    let (mut tps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..plan.windows(0) {
        let in_w: Vec<&Sample> = samples
            .iter()
            .copied()
            .filter(|s| s.slot.window == w)
            .collect();
        let mut lat: Vec<u64> = in_w
            .iter()
            .map(|s| match s.fate {
                Fate::Completed => s.latency_ns,
                Fate::Failed | Fate::Unserved => u64::MAX,
            })
            .collect();
        lat.sort_unstable();
        tps.push(completed(&in_w) as f64 / window_s);
        p50.push(quantile(&lat, 0.5) as f64 / 1e3);
        p99.push(quantile(&lat, 0.99) as f64 / 1e3);
    }
    vec![
        metric("throughput_tps", "1/s", median(&tps)),
        metric("latency_p50_us", "us", median(&p50)),
        metric("latency_p99_us", "us", median(&p99)),
        metric(
            "completed_ratio",
            "ratio",
            ratio(completed(&samples) as f64, samples.len() as f64),
        ),
        metric("setup_s", "s", setup_s),
        metric("rss_mb", "MB", rss_mb),
    ]
}

fn mean_service_ns(samples: &[&Sample]) -> f64 {
    let done: Vec<u64> = samples
        .iter()
        .filter(|s| s.fate == Fate::Completed)
        .map(|s| s.service_ns)
        .collect();
    ratio(done.iter().sum::<u64>() as f64, done.len() as f64)
}

fn quantile_us(mut v: Vec<u64>, q: f64) -> f64 {
    v.sort_unstable();
    quantile(&v, q) as f64 / 1e3
}

/// Per-layer metrics of a traced run: counter deltas and retries over the
/// untraced phase, spans over the traced phase, and the ratio of mean
/// service time traced to untraced.
pub fn per_layer(
    plan: &Plan,
    kinds: &[&'static str],
    sessions: &[SessionOut],
    probes: &[Probe],
) -> Vec<Metric> {
    assert!(plan.phases.len() == 2 && probes.len() == 3, "a traced run");
    let untraced = phase_samples(sessions, 0);
    let traced = phase_samples(sessions, 1);
    let txns = untraced.len() as f64;
    let per_txn = |n: u64| ratio(n as f64, txns);
    let per_ktxn = |n: u64| ratio(n as f64 * 1e3, txns);
    let (a, b) = (&probes[0], &probes[1]);
    let lock = b.lock.delta(&a.lock);
    let park = b.park.delta(&a.park);
    let log = |f: fn(&LogStats) -> u64| f(&b.log) - f(&a.log);
    let mv = |f: fn(&MvccStats) -> u64| f(&b.mvcc) - f(&a.mvcc);
    let mut m = Vec::new();

    let spans = |f: &dyn Fn(&SessionOut) -> &[u64]| -> Vec<u64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    for (call, qs) in CALL_QUANTILES {
        let d = spans(&|s| s.tracer.call_durations(call));
        for (label, q) in qs {
            m.push(metric(
                format!("engine.{}_us.{label}", call.name()),
                "us",
                quantile_us(d.clone(), *q),
            ));
        }
    }
    let retries: u64 = untraced.iter().map(|s| u64::from(s.retries)).sum();
    m.push(metric(
        "engine.retries_per_ktxn",
        "1/ktxn",
        per_ktxn(retries),
    ));
    for ty in TXN_TYPES {
        let d = kinds
            .iter()
            .position(|k| *k == ty)
            .map(|k| spans(&|s| s.tracer.attempt_durations(k)))
            .unwrap_or_default();
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            m.push(metric(
                format!("engine.txn_us.{ty}.{label}"),
                "us",
                quantile_us(d.clone(), q),
            ));
        }
    }

    m.push(metric(
        "lockmgr.requests_per_txn",
        "count/txn",
        per_txn(lock.lock_requests),
    ));
    m.push(metric(
        "lockmgr.fastpath_ratio",
        "ratio",
        ratio(lock.fastpath_granted as f64, lock.lock_requests as f64),
    ));
    m.push(metric(
        "lockmgr.headcache_hit_ratio",
        "ratio",
        ratio(
            lock.headcache_hits as f64,
            (lock.headcache_hits + lock.headcache_misses) as f64,
        ),
    ));
    m.push(metric(
        "lockmgr.blocks_per_ktxn",
        "1/ktxn",
        per_ktxn(lock.blocks),
    ));
    m.push(metric(
        "lockmgr.victims_per_ktxn",
        "1/ktxn",
        per_ktxn(lock.deadlocks + lock.timeouts),
    ));
    m.push(metric(
        "lockmgr.sli_inherited_per_txn",
        "count/txn",
        per_txn(lock.sli_inherited),
    ));
    m.push(metric(
        "lockmgr.sli_reclaim_ratio",
        "ratio",
        ratio(lock.sli_reclaimed as f64, lock.sli_inherited as f64),
    ));

    m.push(metric(
        "latch.parks_per_ktxn",
        "1/ktxn",
        per_ktxn(park.parks),
    ));
    m.push(metric(
        "latch.spins_per_txn",
        "count/txn",
        per_txn(park.spins),
    ));

    m.push(metric(
        "wal.appends_per_txn",
        "count/txn",
        per_txn(log(|l| l.appends)),
    ));
    m.push(metric(
        "wal.bytes_per_txn",
        "bytes/txn",
        per_txn(log(|l| l.bytes)),
    ));
    m.push(metric(
        "wal.group_size",
        "commits/flush",
        ratio(log(|l| l.commits) as f64, log(|l| l.flushes) as f64),
    ));
    m.push(metric(
        "wal.commit_park_ratio",
        "ratio",
        ratio(log(|l| l.commit_parks) as f64, log(|l| l.commits) as f64),
    ));
    m.push(metric(
        "wal.reserve_waits",
        "count",
        log(|l| l.reserve_waits) as f64,
    ));

    let validation_aborts = mv(|s| s.validation_aborts);
    m.push(metric(
        "mvcc.validation_abort_ratio",
        "ratio",
        ratio(
            validation_aborts as f64,
            (mv(|s| s.commits) + validation_aborts) as f64,
        ),
    ));
    m.push(metric(
        "mvcc.ww_conflicts_per_ktxn",
        "1/ktxn",
        per_ktxn(mv(|s| s.ww_conflicts)),
    ));
    m.push(metric(
        "mvcc.read_waits_per_ktxn",
        "1/ktxn",
        per_ktxn(mv(|s| s.read_waits)),
    ));
    m.push(metric(
        "mvcc.versions_pruned_per_txn",
        "count/txn",
        per_txn(mv(|s| s.versions_pruned)),
    ));
    m.push(metric(
        "mvcc.gc_runs_per_ktxn",
        "1/ktxn",
        per_ktxn(mv(|s| s.gc_runs)),
    ));

    m.push(metric(
        "storage.rss_growth_bytes_per_txn",
        "bytes/txn",
        ratio(
            b.rss_bytes as f64 - a.rss_bytes as f64,
            completed(&untraced) as f64,
        ),
    ));

    let late: Vec<u64> = untraced.iter().filter_map(|s| s.late_ns).collect();
    m.push(metric("gen.late_us.p99", "us", quantile_us(late, 0.99)));
    m.push(metric(
        "trace.overhead_ratio",
        "ratio",
        ratio(mean_service_ns(&traced), mean_service_ns(&untraced)),
    ));
    m
}

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit `f64` holds.
fn json_num(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    format!("{v:?}")
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of pre-rendered values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The kept slow-transaction traces as JSON, slowest first.
pub fn traces_json(mut traces: Vec<TxnTrace>) -> String {
    traces.sort_by_key(|t| std::cmp::Reverse(t.latency_ns));
    let items: Vec<String> = traces
        .iter()
        .map(|t| {
            let spans: Vec<String> = t
                .spans
                .iter()
                .map(|s| {
                    json_object(&[
                        ("name", json_str(s.name)),
                        (
                            "parent",
                            s.parent.map_or("null".to_string(), |p| p.to_string()),
                        ),
                        ("start_ns", s.start_ns.to_string()),
                        ("dur_ns", s.dur_ns.to_string()),
                    ])
                })
                .collect();
            json_object(&[
                ("id", t.id.to_string()),
                ("kind", json_str(t.kind)),
                ("latency_ns", t.latency_ns.to_string()),
                ("spans", format!("[{}]", spans.join(", "))),
            ])
        })
        .collect();
    format!("[{}]\n", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 1, &[metric("x_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"x_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
    }

    #[test]
    fn rss_is_read() {
        assert!(rss_bytes() > 0);
    }
}
