//! The repository benchmark.
//!
//! ```text
//! oltpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Loads one pinned workload, drives it with two sessions through the
//! engine's public API, checks the database afterwards, and prints one
//! JSON line of results last on standard output: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. The line before it
//! records the engine configuration. Exits 1 when a correctness check
//! fails and 2 on a usage error, without a result line. See README.md.

mod driver;
mod report;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use driver::{Fate, Load, Plan, SESSIONS};
use report::{json_object, json_str, Probe};
use workload::{Name, Sizes, Tally};

/// Untimed run-in before the first measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Window length; throughput and latency are medians over windows.
const WINDOW: Duration = Duration::from_millis(500);
/// Fewest loads per run; `setup_s` is the median of all of them.
const SETUP_MIN_LOADS: usize = 5;
/// Loads go on until they add up to this long, so that a small dataset's
/// load time rests on more than a handful of samples.
const SETUP_MIN_SECONDS: f64 = 2.0;

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: oltpbench --workload <tm1-ndbb|tpcb|tpcb-analytic-mvcc|tpcc-neworder-open> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Name::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The engine's experiment knobs are `SLI_*` environment variables; one
/// left set would silently change what is measured.
fn refuse_sli_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SLI_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the configuration is pinned",
            set.join(", ")
        ))
    }
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(Failure::Usage(e)) => {
            eprintln!("oltpbench: {e}\n{USAGE}");
            2
        }
        Err(Failure::Incorrect(e)) => {
            eprintln!("oltpbench: correctness check failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

enum Failure {
    Usage(String),
    Incorrect(String),
}

fn run() -> Result<(), Failure> {
    refuse_sli_env().map_err(Failure::Usage)?;
    let args = parse_args(std::env::args().skip(1)).map_err(Failure::Usage)?;
    let sizes = Sizes::PINNED;
    let name = args.workload;

    let t = Instant::now();
    let (db, wl) = workload::load(name, &sizes, args.seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    // Resident memory after load, before the run: a faster engine inserts
    // more rows in a fixed-length run.
    let rss_mb = report::rss_bytes() as f64 / 1e6;

    let plan = Plan::new(
        WARMUP,
        Duration::from_secs(args.seconds),
        args.trace,
        WINDOW,
    );
    let load = name.open_rate().map_or(Load::Closed, Load::Open);
    let out = driver::run(&db, wl.as_ref(), &plan, load, args.seed, || {
        Probe::take(&db)
    });

    let mut tally = Tally::new(wl.kinds().len());
    for s in &out.sessions {
        tally.merge(&s.tally);
    }
    let verdict = out
        .conservation
        .clone()
        .and_then(|()| wl.check(&db, &tally));
    let config = config_line(&db, name, &sizes, &args);
    let kinds = wl.kinds().to_vec();
    drop(wl);
    drop(db);
    while setups.len() < SETUP_MIN_LOADS || setups.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let t = Instant::now();
        let loaded = workload::load(name, &sizes, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        drop(loaded);
    }
    verdict.map_err(Failure::Incorrect)?;

    let measured = report::untraced_samples(&out.sessions);
    let attempted = measured.len() as u64;
    let failed = measured
        .iter()
        .filter(|s| s.fate != Fate::Completed)
        .count() as u64;
    let metrics = if args.trace {
        let m = report::per_layer(&plan, &kinds, &out.sessions, &out.probes);
        // Every transaction type the workload ran must have left spans.
        for kind in &kinds {
            let p50 = format!("engine.txn_us.{kind}.p50");
            if !m.iter().any(|x| x.name == p50 && x.value > 0.0) {
                return Err(Failure::Incorrect(format!(
                    "the traced phase recorded no {kind} spans"
                )));
            }
        }
        m
    } else {
        report::end_to_end(&plan, &out.sessions, trace::median(&setups), rss_mb)
    };
    if args.trace {
        write_traces(name, args.seed, out.sessions);
    }
    println!(
        "{}",
        json_object(&[
            ("config", config),
            ("latency_samples", attempted.to_string()),
            ("windows", plan.windows(0).to_string()),
            ("setup_s_runs", format!("{setups:?}")),
        ])
    );
    println!(
        "{}",
        report::result_line(true, attempted.max(1), failed, &metrics)
    );
    Ok(())
}

/// The pinned configuration, recorded with every result.
fn config_line(db: &sli_engine::Database, name: Name, sizes: &Sizes, args: &Args) -> String {
    let cfg = workload::db_config(name.backend());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    json_object(&[
        ("workload", json_str(name.as_str())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("policy", json_str(db.policy_name())),
        ("backend", json_str(db.backend_name())),
        ("row_work_ns", cfg.row_work_ns.to_string()),
        (
            "log_flush_latency_us",
            cfg.log.flush_latency.as_micros().to_string(),
        ),
        (
            "log_batch_window_us",
            cfg.log.batch_window.as_micros().to_string(),
        ),
        ("log_ring_bytes", cfg.log.ring_bytes.to_string()),
        ("log_flusher", json_str(&format!("{:?}", cfg.log.flusher))),
        ("pool", json_str("all-in-memory")),
        ("mvcc_gc_every", cfg.mvcc.gc_every.to_string()),
        ("dataset", json_str(&sizes.describe(name))),
        (
            "load",
            json_str(&match name.open_rate() {
                Some(rate) => format!("open-loop poisson {rate} txn/s"),
                None => "closed-loop".to_string(),
            }),
        ),
        ("sessions", SESSIONS.to_string()),
        ("nproc", nproc.to_string()),
        ("profile", json_str(profile)),
    ])
}

/// Write the slowest traced transactions' span trees next to the
/// benchmark sources; a failure to write is reported, not fatal.
fn write_traces(name: Name, seed: u64, sessions: Vec<driver::SessionOut>) {
    let mut kept = Vec::new();
    for s in sessions {
        for t in s.tracer.into_slowest() {
            trace::keep_slowest(&mut kept, t);
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{seed}.json", name.as_str()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report::traces_json(kept)));
    if let Err(e) = written {
        eprintln!("oltpbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "tpcc-neworder-open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Name::TpccNewOrderOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "tpcb",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "tpcb", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "tpcb",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// `BENCHMARK.json` must list exactly the workloads and metrics the
    /// benchmark prints.
    #[test]
    fn benchmark_json_matches_what_is_printed() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let workloads: Vec<&str> = Name::BENCHMARKED.iter().map(|n| n.as_str()).collect();
        let plan = Plan::new(Duration::ZERO, Duration::from_secs(2), true, WINDOW);
        let e2e: Vec<String> = report::end_to_end(&plan, &[], 1.0, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        let probe = || {
            Probe::take(&sli_engine::Database::open(workload::db_config(
                sli_engine::BackendKind::Locked2pl,
            )))
        };
        let layer: Vec<String> = report::per_layer(&plan, &[], &[], &[probe(), probe(), probe()])
            .into_iter()
            .map(|m| m.name)
            .collect();
        let printed: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(e2e.iter().map(String::as_str))
            .chain(layer.iter().map(String::as_str))
            .collect();
        assert_eq!(names, printed);
    }

    #[test]
    fn every_workload_type_has_a_txn_metric() {
        let sizes = Sizes {
            subscribers: 100,
            branches: 1,
            accounts_per_branch: 10,
            tpcc: sli_workloads::tpcc::TpcCScale::tiny(),
        };
        for name in Name::ALL {
            let (_, wl) = workload::load(name, &sizes, 1);
            for k in wl.kinds() {
                assert!(report::TXN_TYPES.contains(k), "{name:?}: {k}");
            }
        }
    }
}
