//! Load generation: two sessions on two threads, closed loop or open
//! loop, with no pacer thread.
//!
//! A run is a warm-up followed by one or two measured phases (untraced,
//! then traced), each cut into fixed windows. A closed-loop transaction
//! belongs to the window its first attempt started in; an open-loop
//! arrival belongs to the window it was due in, whenever it ran.
//!
//! Open loop: the sessions claim arrivals from one shared seeded Poisson
//! schedule through an atomic ticket, wait until each is due, and charge
//! latency from the due time, so a stall delays the arrivals behind it.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli_engine::{Database, Session};
use sli_workloads::Outcome;

use crate::report::Probe;
use crate::trace::Tracer;
use crate::workload::{Tally, Workload};

/// Sessions driving the load, one thread each.
pub const SESSIONS: usize = 2;
/// Retries of a deadlock victim or validation loser before the
/// transaction counts as failed.
pub const MAX_RETRIES: u32 = 100;
/// Longest back-off before a retry. An MVCC write conflict lasts until the
/// winner's commit has forced the log; retrying at once can spend every
/// retry inside one group-commit window.
const MAX_BACKOFF: Duration = Duration::from_millis(1);

/// One measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Offset from the epoch.
    pub start: Duration,
    /// Length.
    pub len: Duration,
    /// Whether spans are recorded.
    pub traced: bool,
}

/// Where a transaction is accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`Plan::phases`].
    pub phase: usize,
    /// Window within the phase.
    pub window: usize,
}

/// The timeline of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Time zero.
    pub epoch: Instant,
    /// Measured phases, back to back after the warm-up.
    pub phases: Vec<Phase>,
    /// Window length.
    pub window: Duration,
    /// Open loop: how long after the last phase ends arrivals may still
    /// start; later ones count as unserved.
    pub drain: Duration,
}

impl Plan {
    /// `warmup`, then `measure` untraced — or, when `traced`, half
    /// untraced and half traced.
    pub fn new(warmup: Duration, measure: Duration, traced: bool, window: Duration) -> Plan {
        let phases = if traced {
            let half = measure / 2;
            vec![
                Phase {
                    start: warmup,
                    len: half,
                    traced: false,
                },
                Phase {
                    start: warmup + half,
                    len: half,
                    traced: true,
                },
            ]
        } else {
            vec![Phase {
                start: warmup,
                len: measure,
                traced: false,
            }]
        };
        Plan {
            epoch: Instant::now(),
            phases,
            window,
            drain: Duration::from_secs(1),
        }
    }

    /// End of the last phase.
    pub fn end(&self) -> Duration {
        let last = self.phases.last().expect("a plan has a phase");
        last.start + last.len
    }

    /// Windows in a phase (a trailing partial window is dropped).
    pub fn windows(&self, phase: usize) -> usize {
        (self.phases[phase].len.as_nanos() / self.window.as_nanos()).max(1) as usize
    }

    /// The phase and window an offset falls in; `None` in the warm-up,
    /// after the end, or in a dropped partial window.
    pub fn slot(&self, t: Duration) -> Option<Slot> {
        let phase = self
            .phases
            .iter()
            .position(|p| t >= p.start && t < p.start + p.len)?;
        let window = ((t - self.phases[phase].start).as_nanos() / self.window.as_nanos()) as usize;
        (window < self.windows(phase)).then_some(Slot { phase, window })
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// How a measured transaction or arrival ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Fate {
    /// Committed, or a user abort (checked against the workload's
    /// expectations by the correctness gate).
    Completed = 1,
    /// Retries exhausted.
    Failed = 2,
    /// Open loop: never started before the drain deadline.
    Unserved = 3,
}

/// One measured transaction.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Where it is accounted.
    pub slot: Slot,
    /// Its outcome.
    pub fate: Fate,
    /// First attempt (open loop: due time) to final outcome.
    pub latency_ns: u64,
    /// First attempt to final outcome.
    pub service_ns: u64,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Open loop, session idle when it claimed the arrival: how late the
    /// session started it after it was due.
    pub late_ns: Option<u64>,
}

/// What one session brings back.
pub struct SessionOut {
    /// Measured transactions.
    pub samples: Vec<Sample>,
    /// Outcomes over the whole run.
    pub tally: Tally,
    /// Its spans.
    pub tracer: Tracer,
}

/// Kind of load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each session runs its next transaction when the last one ends.
    Closed,
    /// Poisson arrivals at a fixed rate (txn/s) from one shared schedule.
    Open(f64),
}

/// Everything a run produced.
pub struct RunOut {
    /// Per-session results.
    pub sessions: Vec<SessionOut>,
    /// One probe at the start of every phase and one at the end.
    pub probes: Vec<Probe>,
    /// Open loop: whether every measured arrival ended in exactly one
    /// outcome.
    pub conservation: Result<(), String>,
}

/// Drive `wl` for the whole `plan`. The calling thread only sleeps and
/// takes a probe at each phase boundary.
pub fn run(
    db: &Arc<Database>,
    wl: &dyn Workload,
    plan: &Plan,
    load: Load,
    seed: u64,
    probe: impl Fn() -> Probe,
) -> RunOut {
    let open = match load {
        Load::Closed => None,
        Load::Open(rate) => Some(OpenSchedule::new(wl, rate, plan.end(), seed)),
    };
    let (sessions, probes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|sid| {
                let open = open.as_ref();
                scope.spawn(move || {
                    let s = db.session();
                    match open {
                        None => closed_session(&s, wl, plan, seed, sid),
                        Some(o) => o.session(&s, wl, plan),
                    }
                })
            })
            .collect();
        let mut boundaries: Vec<Duration> = plan.phases.iter().map(|p| p.start).collect();
        boundaries.push(plan.end());
        let probes = boundaries
            .into_iter()
            .map(|b| {
                if let Some(wait) = b.checked_sub(plan.now()) {
                    std::thread::sleep(wait);
                }
                probe()
            })
            .collect();
        let sessions: Vec<SessionOut> = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        (sessions, probes)
    });
    let samples: usize = sessions.iter().map(|s| s.samples.len()).sum();
    let conservation = open.map_or(Ok(()), |o| o.check_conservation(plan, samples));
    RunOut {
        sessions,
        probes,
        conservation,
    }
}

/// Run one transaction to its final outcome, retrying system aborts
/// with the same inputs. Returns the outcome and the retry count.
fn run_txn(
    wl: &dyn Workload,
    s: &Session,
    kind: usize,
    rng: &mut SmallRng,
    tr: &mut Tracer,
) -> (Outcome, u32) {
    let inputs = rng.clone();
    let mut retries = 0;
    loop {
        *rng = inputs.clone();
        let attempt = tr.begin_attempt();
        let outcome = wl.attempt(s, kind, rng, tr);
        tr.end_attempt(kind, attempt);
        if outcome != Outcome::SysAbort || retries == MAX_RETRIES {
            return (outcome, retries);
        }
        retries += 1;
        let backoff = Duration::from_micros(1 << retries.min(10)).min(MAX_BACKOFF);
        yield_until(Instant::now() + backoff);
    }
}

/// Wait until `t` by yielding, not sleeping: a sleeping thread idles its
/// CPU, and on a virtual machine the wake-up from idle costs hundreds of
/// microseconds that swing with host load. Yielding keeps the CPU awake
/// and still lets other threads, such as the engine's log flusher, run.
fn yield_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

fn fate_of(o: Outcome) -> Fate {
    match o {
        Outcome::Commit | Outcome::UserFail => Fate::Completed,
        Outcome::SysAbort => Fate::Failed,
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn closed_session(
    s: &Session,
    wl: &dyn Workload,
    plan: &Plan,
    seed: u64,
    sid: usize,
) -> SessionOut {
    let kinds = wl.kinds();
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x5E55_1000 + sid as u64));
    let mut out = SessionOut {
        samples: Vec::new(),
        tally: Tally::new(kinds.len()),
        tracer: Tracer::new(plan.epoch, kinds.len()),
    };
    for seq in 0u64.. {
        let start = plan.now();
        if start >= plan.end() {
            break;
        }
        let slot = plan.slot(start);
        out.tracer
            .set_on(slot.is_some_and(|sl| plan.phases[sl.phase].traced));
        let kind = wl.pick(&mut rng);
        let (outcome, retries) = run_txn(wl, s, kind, &mut rng, &mut out.tracer);
        let latency_ns = nanos(plan.now() - start);
        out.tally.add(kind, outcome);
        out.tracer
            .end_txn(((sid as u64) << 48) | seq, kinds[kind], latency_ns);
        if let Some(slot) = slot {
            out.samples.push(Sample {
                slot,
                fate: fate_of(outcome),
                latency_ns,
                service_ns: latency_ns,
                retries,
                late_ns: None,
            });
        }
    }
    out
}

/// One due arrival of the open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Offset from the epoch.
    pub due: Duration,
    /// Transaction type.
    pub kind: usize,
    /// Seed of the transaction's input draws.
    pub seed: u64,
}

/// The shared open-loop schedule and the one outcome each arrival gets.
pub struct OpenSchedule {
    arrivals: Vec<Arrival>,
    next: AtomicUsize,
    fates: Vec<AtomicU8>,
    double_settled: AtomicU64,
}

impl OpenSchedule {
    /// Seeded Poisson arrivals at `rate`/s from time zero to `end`.
    pub fn new(wl: &dyn Workload, rate: f64, end: Duration, seed: u64) -> OpenSchedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0A11_1BA1);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            let due = Duration::from_secs_f64(t);
            if due >= end {
                break;
            }
            let kind = wl.pick(&mut rng);
            arrivals.push(Arrival {
                due,
                kind,
                seed: rng.gen(),
            });
        }
        let fates = arrivals.iter().map(|_| AtomicU8::new(0)).collect();
        OpenSchedule {
            arrivals,
            next: AtomicUsize::new(0),
            fates,
            double_settled: AtomicU64::new(0),
        }
    }

    /// The schedule.
    #[cfg(test)]
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Give arrival `i` its outcome; a second outcome is counted as a
    /// conservation violation.
    pub fn settle(&self, i: usize, fate: Fate) {
        // ordering: relaxed — each fate is read only after the sessions
        // joined; the CAS alone decides which outcome came first.
        if self.fates[i]
            .compare_exchange(0, fate as u8, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            self.double_settled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every arrival due in a measured window ended in exactly one
    /// outcome, and produced exactly one sample.
    pub fn check_conservation(&self, plan: &Plan, samples: usize) -> Result<(), String> {
        // ordering: relaxed — the sessions have joined.
        let doubles = self.double_settled.load(Ordering::Relaxed);
        if doubles > 0 {
            return Err(format!("{doubles} arrivals ended in two outcomes"));
        }
        let mut measured = 0;
        for (a, f) in self.arrivals.iter().zip(&self.fates) {
            if plan.slot(a.due).is_none() {
                continue;
            }
            measured += 1;
            if f.load(Ordering::Relaxed) == 0 {
                return Err(format!("arrival due at {:?} ended in no outcome", a.due));
            }
        }
        if measured != samples {
            return Err(format!(
                "{measured} measured arrivals but {samples} samples"
            ));
        }
        Ok(())
    }

    fn session(&self, s: &Session, wl: &dyn Workload, plan: &Plan) -> SessionOut {
        let kinds = wl.kinds();
        let mut out = SessionOut {
            samples: Vec::new(),
            tally: Tally::new(kinds.len()),
            tracer: Tracer::new(plan.epoch, kinds.len()),
        };
        loop {
            // ordering: relaxed — the ticket only hands out distinct
            // indices into the immutable schedule.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(a) = self.arrivals.get(i) else {
                break;
            };
            let claimed = plan.now();
            let slot = plan.slot(a.due);
            if claimed > plan.end() + plan.drain {
                self.settle(i, Fate::Unserved);
                if let Some(slot) = slot {
                    out.samples.push(Sample {
                        slot,
                        fate: Fate::Unserved,
                        latency_ns: u64::MAX,
                        service_ns: 0,
                        retries: 0,
                        late_ns: None,
                    });
                }
                continue;
            }
            yield_until(plan.epoch + a.due);
            let started = plan.now();
            out.tracer
                .set_on(slot.is_some_and(|sl| plan.phases[sl.phase].traced));
            let mut rng = SmallRng::seed_from_u64(a.seed);
            let (outcome, retries) = run_txn(wl, s, a.kind, &mut rng, &mut out.tracer);
            let done = plan.now();
            let fate = fate_of(outcome);
            self.settle(i, fate);
            out.tally.add(a.kind, outcome);
            let latency_ns = nanos(done.saturating_sub(a.due));
            out.tracer.end_txn(i as u64, kinds[a.kind], latency_ns);
            if let Some(slot) = slot {
                out.samples.push(Sample {
                    slot,
                    fate,
                    latency_ns,
                    service_ns: nanos(done - started),
                    retries,
                    late_ns: (claimed < a.due).then(|| nanos(started.saturating_sub(a.due))),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{load, Name, Sizes};
    use sli_workloads::tpcc::TpcCScale;

    const TINY: Sizes = Sizes {
        subscribers: 1_000,
        branches: 2,
        accounts_per_branch: 50,
        tpcc: TpcCScale {
            warehouses: 2,
            customers_per_district: 30,
            items: 200,
            initial_orders_per_district: 20,
        },
    };

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn slots_follow_phases_and_windows() {
        let plan = Plan::new(ms(100), ms(400), true, ms(100));
        assert_eq!(plan.end(), ms(500));
        assert_eq!(plan.slot(ms(50)), None, "warm-up");
        assert_eq!(
            plan.slot(ms(100)),
            Some(Slot {
                phase: 0,
                window: 0
            })
        );
        assert_eq!(
            plan.slot(ms(299)),
            Some(Slot {
                phase: 0,
                window: 1
            })
        );
        assert_eq!(
            plan.slot(ms(300)),
            Some(Slot {
                phase: 1,
                window: 0
            })
        );
        assert_eq!(plan.slot(ms(500)), None, "after the end");
        assert!(plan.phases[1].traced && !plan.phases[0].traced);
    }

    fn open_run(rate: f64, warmup: Duration, drain: Duration) -> (Plan, RunOut, usize) {
        let (db, wl) = load(Name::Tpcb, &TINY, 1);
        let mut plan = Plan::new(warmup, ms(300), false, ms(100));
        plan.drain = drain;
        let out = run(&db, wl.as_ref(), &plan, Load::Open(rate), 9, || {
            Probe::take(&db)
        });
        out.conservation.clone().expect("conservation holds");
        let measured = OpenSchedule::new(wl.as_ref(), rate, plan.end(), 9)
            .arrivals()
            .iter()
            .filter(|a| plan.slot(a.due).is_some())
            .count();
        (plan, out, measured)
    }

    #[test]
    fn each_measured_arrival_ends_in_exactly_one_outcome() {
        // Under capacity nothing is left unserved.
        let (_, out, measured) = open_run(2_000.0, ms(50), Duration::from_secs(1));
        let samples: Vec<&Sample> = out.sessions.iter().flat_map(|s| &s.samples).collect();
        assert!(measured > 100, "{measured}");
        assert_eq!(samples.len(), measured);
        assert!(samples.iter().all(|s| s.fate == Fate::Completed));
        assert_eq!(out.probes.len(), 2);

        // Far over capacity with no drain time, the backlog at the end is
        // unserved — and still every arrival has exactly one outcome.
        let (_, out, measured) = open_run(150_000.0, Duration::ZERO, Duration::ZERO);
        let samples: Vec<&Sample> = out.sessions.iter().flat_map(|s| &s.samples).collect();
        assert_eq!(samples.len(), measured);
        let unserved = samples.iter().filter(|s| s.fate == Fate::Unserved).count();
        assert!(unserved > 0 && unserved < measured, "{unserved}/{measured}");
    }

    #[test]
    fn conservation_check_rejects_missing_and_double_outcomes() {
        let (_, wl) = load(Name::Tpcb, &TINY, 1);
        let plan = Plan::new(ms(10), ms(100), false, ms(50));
        let sched = OpenSchedule::new(wl.as_ref(), 1_000.0, plan.end(), 3);
        let measured: Vec<usize> = (0..sched.arrivals().len())
            .filter(|&i| plan.slot(sched.arrivals()[i].due).is_some())
            .collect();
        assert!(measured.len() > 10);
        for i in 0..sched.arrivals().len() {
            sched.settle(i, Fate::Completed);
        }
        sched
            .check_conservation(&plan, measured.len())
            .expect("balanced");
        assert!(sched.check_conservation(&plan, measured.len() + 1).is_err());
        sched.settle(measured[0], Fate::Failed);
        assert!(sched.check_conservation(&plan, measured.len()).is_err());

        let fresh = OpenSchedule::new(wl.as_ref(), 1_000.0, plan.end(), 3);
        let err = fresh
            .check_conservation(&plan, measured.len())
            .expect_err("nothing settled");
        assert!(err.contains("no outcome"), "{err}");
    }

    #[test]
    fn closed_loop_accounts_by_start_window_and_keeps_the_seed() {
        let (db, wl) = load(Name::Tpcb, &TINY, 1);
        let plan = Plan::new(ms(20), ms(200), true, ms(50));
        let out = run(&db, wl.as_ref(), &plan, Load::Closed, 4, || {
            Probe::take(&db)
        });
        assert_eq!(out.probes.len(), 3);
        for s in &out.sessions {
            assert!(s.samples.iter().any(|x| x.slot.phase == 0));
            assert!(s.samples.iter().any(|x| x.slot.phase == 1));
            assert!(s.samples.iter().all(|x| x.slot.window < 2));
        }
        let traced: usize = out
            .sessions
            .iter()
            .map(|s| s.tracer.attempt_durations(0).len())
            .sum();
        assert!(traced > 0, "the traced phase records attempt spans");
        // Same seed, same open-loop schedule.
        let a = OpenSchedule::new(wl.as_ref(), 500.0, ms(500), 8);
        let b = OpenSchedule::new(wl.as_ref(), 500.0, ms(500), 8);
        assert_eq!(a.arrivals().len(), b.arrivals().len());
        assert!(a
            .arrivals()
            .iter()
            .zip(b.arrivals())
            .all(|(x, y)| x.due == y.due && x.seed == y.seed));
    }
}
