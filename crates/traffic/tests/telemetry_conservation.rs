//! Window-rollover conservation: with many recorders flushing
//! concurrently while a collector races ahead draining, every sample
//! must land exactly once — in a drained window or the late catch-all —
//! never lost, never double-counted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sli_traffic::{Telemetry, TxnOutcome, WindowCore};

#[test]
fn concurrent_rollover_loses_and_duplicates_nothing() {
    const RECORDERS: usize = 4;
    const SAMPLES: u64 = 50_000;
    const WINDOW_NS: u64 = 1_000;

    let telemetry = Telemetry::new(WINDOW_NS);
    let stop = Arc::new(AtomicBool::new(false));

    let drained: Vec<(u64, WindowCore)> = std::thread::scope(|s| {
        let mut recorders = Vec::new();
        for r in 0..RECORDERS {
            let mut rec = telemetry.recorder();
            recorders.push(s.spawn(move || {
                // Synthetic clock: each recorder walks time at its own
                // stride so rollovers interleave across threads.
                let stride = 1 + r as u64;
                let mut now = 0u64;
                for i in 0..SAMPLES {
                    let outcome = match i % 3 {
                        0 => TxnOutcome::Commit,
                        1 => TxnOutcome::UserFail,
                        _ => TxnOutcome::SysAbort,
                    };
                    rec.record(now, outcome, i % 10_000 + 1);
                    now += stride;
                }
                // Drop flushes the final accumulator.
            }));
        }

        // Collector races ahead, draining aggressively while recorders
        // are mid-window; anything it outruns must fold into `late`.
        let collector = {
            let telemetry = Arc::clone(&telemetry);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut out = Vec::new();
                let mut upto = 0u64;
                while !stop.load(Ordering::Acquire) {
                    upto += 7;
                    out.extend(telemetry.drain_upto(upto));
                    std::thread::yield_now();
                }
                out
            })
        };

        // Let every recorder finish (final accumulators flushed by
        // Drop), then stop the collector. The collector keeps draining
        // concurrently with the recorders until this point.
        for h in recorders {
            h.join().expect("recorder");
        }
        stop.store(true, Ordering::Release);
        collector.join().expect("collector")
    });

    // All recorders have flushed (scope joined); collect the remainder.
    let (rest, late) = telemetry.drain_rest();

    let mut commits = 0u64;
    let mut fails = 0u64;
    let mut aborts = 0u64;
    let mut hist_count = 0u64;
    for (_, core) in drained.iter().chain(rest.iter()).chain(late.iter()) {
        commits += core.commits;
        fails += core.user_fails;
        aborts += core.sys_aborts;
        hist_count += core.hist.as_ref().map_or(0, |h| h.count());
    }

    let total = RECORDERS as u64 * SAMPLES;
    assert_eq!(
        commits + fails + aborts,
        total,
        "every sample exactly once (commits {commits} fails {fails} aborts {aborts})"
    );
    // i % 3 assignment: ceil/floor split across each recorder.
    assert_eq!(commits, RECORDERS as u64 * SAMPLES.div_ceil(3));
    assert_eq!(hist_count, total, "histogram saw every latency");

    // Drained window ids never repeat across the concurrent drain and
    // the final drain (no double-counted window).
    let mut ids: Vec<u64> = drained
        .iter()
        .chain(rest.iter())
        .map(|(id, _)| *id)
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "window ids are unique across drains");
}
