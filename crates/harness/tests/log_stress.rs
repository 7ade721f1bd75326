//! Log-stress gate: the scalable log front-end must *group* commits
//! under open-loop TPC-B traffic without giving anything back — zero
//! shed arrivals, and an open-loop commit p95 no worse than the
//! closed-loop baseline measured on the same database (closed-loop
//! committers saturate every flush, so their p95 is the convoying
//! worst case the ring was built to beat).
//!
//! The device simulates a 1 ms fsync so the group-commit pipeline is
//! real: at the calibrated rate, several committers ride each flush
//! (mean group size > 1) and they wait *parked*, not spinning on the
//! flush mutex.

use sli_engine::Database;
use sli_harness::driver::{run_workload, RunConfig};
use sli_harness::setup::{db_config, LoadedWorkload};
use sli_harness::traffic::{storm, TrafficKnobs};
use sli_harness::ExperimentScale;
use sli_traffic::ArrivalPattern;
use sli_workloads::tpcb::TpcB;

use std::time::Duration;

const WORKERS: usize = 8;
const FSYNC: Duration = Duration::from_millis(1);
/// Interleaved closed-loop/open-loop sample pairs per run (odd, so the
/// median is a sample).
const ROUNDS: u64 = 3;

#[test]
fn open_loop_tpcb_groups_commits_without_shedding() {
    // Emit artifacts into a scratch dir; this binary holds only this
    // test, so the env mutation races with nothing.
    let dir = std::env::temp_dir().join(format!("sli-log-stress-{}", std::process::id()));
    std::env::set_var("SLI_BENCH_DIR", &dir);

    let scale = ExperimentScale::smoke();
    let mut cfg = db_config(false);
    cfg.log.flush_latency = FSYNC;
    let db = Database::open(cfg);
    let tpcb = TpcB::load(&db, scale.tpcb_branches, scale.tpcb_accounts);
    let w = LoadedWorkload {
        label: "TPC-B",
        db,
        mix: tpcb.workload(),
    };

    // Closed-loop baseline and open-loop storm, interleaved and repeated
    // ROUNDS times; the gate compares their median p95s, so one host
    // hiccup during one sample cannot fail it, and drift in the host's
    // speed hits both sides alike.
    //
    // Closed loop: WORKERS looping committers on the same slow device.
    // This measures the knee-side worst case — every commit competes for
    // every flush — and the first sample calibrates the storm's rate.
    let closed = |round: u64| {
        run_workload(
            &w.db,
            &w.mix,
            &RunConfig {
                agents: WORKERS,
                warmup: Duration::from_millis(200),
                measure: Duration::from_secs(1),
                seed: 0xCA11B + round,
            },
        )
    };
    let cal = closed(0);
    let capacity = cal.attempts_per_sec;
    assert!(capacity > 0.0 && cal.summary.p95_ns > 0, "calibration ran");
    let mut closed_p95 = vec![cal.summary.p95_ns];

    // Open-loop storm at the highest ladder rung below the knee (the
    // traffic ladder diverges at ~1.0x closed-loop capacity).
    let rate = (0.6 * capacity).max(50.0);
    let knobs = TrafficKnobs {
        rate: Some(rate),
        pattern: ArrivalPattern::Constant,
        measure: Duration::from_secs(2),
        queue_cap: 4096,
        workers: WORKERS,
        window_ms: 250,
    };
    let mut open_p95 = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            let c = closed(round);
            assert!(c.summary.p95_ns > 0, "closed-loop round {round} ran");
            closed_p95.push(c.summary.p95_ns);
        }
        let before = w.db.log_stats();
        let report = storm(
            &w,
            "baseline",
            &knobs,
            rate,
            Duration::from_millis(300),
            false,
        );
        let after = w.db.log_stats();
        let s = &report.summary;

        // Nothing given back: the front-end absorbed the offered rate.
        assert_eq!(s.shed, 0, "round {round}: shed arrivals at {rate:.0}/s");
        assert!(
            s.final_depth < knobs.queue_cap as u64 / 2,
            "round {round}: backlog {} diverging",
            s.final_depth
        );

        // The pipeline actually grouped: several commits per physical
        // fsync. Counted over this storm alone; the closed-loop samples
        // group and park on their own.
        let commits = after.commits - before.commits;
        let flushes = after.flushes - before.flushes;
        assert!(flushes > 0, "round {round}: no flushes during the storm");
        let group = commits as f64 / flushes as f64;
        assert!(
            group > 1.0,
            "round {round}: mean group size {group:.2} ({commits} commits / {flushes} flushes)"
        );

        // Committers waited parked on the queue, not spinning on a latch.
        assert!(
            after.commit_parks > before.commit_parks,
            "round {round}: no committer ever parked"
        );
        open_p95.push(s.p95_ns);
    }

    // Open-loop commit p95 (measured from scheduled arrival, so it
    // includes queueing) stays under the closed-loop baseline: the
    // parked queue + pipelined flusher must not cost latency relative
    // to saturated convoying. Generous 1.5x margin for CI jitter.
    let (open, closed) = (median(&mut open_p95), median(&mut closed_p95));
    println!(
        "p95 medians over {ROUNDS} rounds: open-loop {:.1}us {open_p95:?}, closed-loop {:.1}us {closed_p95:?}",
        open as f64 / 1e3,
        closed as f64 / 1e3
    );
    assert!(
        (open as f64) < 1.5 * closed as f64,
        "median open-loop p95 {:.1}us vs closed-loop {:.1}us",
        open as f64 / 1e3,
        closed as f64 / 1e3
    );
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}
