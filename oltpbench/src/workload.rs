//! The pinned workloads: loading, one transaction attempt, and the
//! correctness gate each must pass after a run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use sli_engine::{
    BackendKind, Database, DatabaseConfig, PolicyKind, Session, TableHandle, TxnError,
};
use sli_workloads::encode::{get_i64, put_filler, put_i64, put_u64};
use sli_workloads::tm1::Tm1;
use sli_workloads::tpcb::{TpcB, TELLERS_PER_BRANCH};
use sli_workloads::tpcc::{TpcC, TpcCScale, TpcCTxn};
use sli_workloads::{MixedWorkload, Outcome};

use crate::trace::{Call, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// TM1 NDBB mix, closed loop, 2PL + SLI.
    Tm1Ndbb,
    /// TPC-B account updates, closed loop, 2PL + SLI.
    Tpcb,
    /// 85/15 account-update / branch-audit mix, closed loop, MVCC.
    TpcbAnalyticMvcc,
    /// TPC-C New Order, open loop at [`TPCC_RATE`], 2PL + SLI.
    TpccNewOrderOpen,
}

impl Name {
    /// Every workload the command accepts.
    pub const ALL: [Name; 4] = [
        Name::Tm1Ndbb,
        Name::Tpcb,
        Name::TpcbAnalyticMvcc,
        Name::TpccNewOrderOpen,
    ];

    /// The workloads `BENCHMARK.json` runs, in its order. The open-loop
    /// workload is left out: its latency did not repeat across runs on
    /// the reference host (see README.md).
    #[cfg(test)]
    pub const BENCHMARKED: [Name; 3] = [Name::Tm1Ndbb, Name::Tpcb, Name::TpcbAnalyticMvcc];

    /// The name on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Tm1Ndbb => "tm1-ndbb",
            Name::Tpcb => "tpcb",
            Name::TpcbAnalyticMvcc => "tpcb-analytic-mvcc",
            Name::TpccNewOrderOpen => "tpcc-neworder-open",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// The concurrency backend this workload runs on.
    pub fn backend(self) -> BackendKind {
        match self {
            Name::TpcbAnalyticMvcc => BackendKind::Mvcc,
            _ => BackendKind::Locked2pl,
        }
    }

    /// Offered arrival rate (txn/s) for an open-loop workload.
    pub fn open_rate(self) -> Option<f64> {
        (self == Name::TpccNewOrderOpen).then_some(TPCC_RATE)
    }
}

/// Fixed Poisson arrival rate of `tpcc-neworder-open`: about 30 % of the
/// 2-session closed-loop capacity of New Order on a 2-core host
/// (~8.4k txn/s).
pub const TPCC_RATE: f64 = 2_500.0;

/// Dataset sizes: the harness defaults, pinned here so that a change to a
/// default elsewhere does not silently change the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// TM1 subscribers.
    pub subscribers: u64,
    /// TPC-B branches.
    pub branches: u64,
    /// TPC-B accounts per branch.
    pub accounts_per_branch: u64,
    /// TPC-C scale.
    pub tpcc: TpcCScale,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const PINNED: Sizes = Sizes {
        subscribers: 100_000,
        branches: 100,
        accounts_per_branch: 1_000,
        tpcc: TpcCScale {
            warehouses: 24,
            customers_per_district: 300,
            items: 5_000,
            initial_orders_per_district: 150,
        },
    };

    /// The dataset of one workload, as recorded with the results.
    pub fn describe(&self, name: Name) -> String {
        match name {
            Name::Tm1Ndbb => format!("subscribers={}", self.subscribers),
            Name::Tpcb | Name::TpcbAnalyticMvcc => format!(
                "branches={} tellers_per_branch={TELLERS_PER_BRANCH} accounts_per_branch={}",
                self.branches, self.accounts_per_branch
            ),
            Name::TpccNewOrderOpen => {
                let s = self.tpcc;
                format!(
                    "warehouses={} customers_per_district={} items={} initial_orders_per_district={}",
                    s.warehouses, s.customers_per_district, s.items, s.initial_orders_per_district
                )
            }
        }
    }
}

/// The pinned engine configuration. Built field by field rather than
/// through the harness, which reads `SLI_*` environment knobs.
pub fn db_config(backend: BackendKind) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::with_policy(PolicyKind::PaperSli)
        .in_memory()
        .backend(backend);
    // The calibrated per-row spin stands in for work no engine change can
    // reduce; it is left out so that every layer's gain shows undiluted.
    cfg.row_work_ns = 0;
    cfg
}

/// Per-type outcome counts over a whole run, warm-up included.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Transactions whose final outcome was a commit.
    pub commits: Vec<u64>,
    /// Transactions whose final outcome was a user abort.
    pub user_fails: Vec<u64>,
    /// Transactions that exhausted their retries.
    pub failed: Vec<u64>,
}

impl Tally {
    /// A zeroed tally for `kinds` transaction types.
    pub fn new(kinds: usize) -> Tally {
        Tally {
            commits: vec![0; kinds],
            user_fails: vec![0; kinds],
            failed: vec![0; kinds],
        }
    }

    /// Count one final outcome.
    pub fn add(&mut self, kind: usize, o: Outcome) {
        match o {
            Outcome::Commit => self.commits[kind] += 1,
            Outcome::UserFail => self.user_fails[kind] += 1,
            Outcome::SysAbort => self.failed[kind] += 1,
        }
    }

    /// Sum another session's tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in [
            (&mut self.commits, &other.commits),
            (&mut self.user_fails, &other.user_fails),
            (&mut self.failed, &other.failed),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// A loaded workload, as `driver::run` drives it.
pub trait Workload: Sync {
    /// Transaction type names; a `kind` indexes this list.
    fn kinds(&self) -> &[&'static str];
    /// Choose the next transaction type.
    fn pick(&self, rng: &mut SmallRng) -> usize;
    /// One attempt of a transaction of type `kind`, its inputs drawn from
    /// `rng` (a retry replays the same draws).
    fn attempt(&self, s: &Session, kind: usize, rng: &mut SmallRng, tr: &mut Tracer) -> Outcome;
    /// Whether a user abort is a legitimate outcome of type `kind`.
    fn user_fail_expected(&self, kind: usize) -> bool;
    /// Post-run correctness gate; sessions have ended.
    fn check(&self, db: &Arc<Database>, tally: &Tally) -> Result<(), String>;
}

/// Open a database with the pinned configuration and load `name` into it.
pub fn load(name: Name, sizes: &Sizes, seed: u64) -> (Arc<Database>, Box<dyn Workload>) {
    let db = Database::open(db_config(name.backend()));
    let wl: Box<dyn Workload> = match name {
        Name::Tm1Ndbb => Box::new(Tm1Ndbb::load(&db, sizes.subscribers, seed)),
        Name::Tpcb => Box::new(TpcbBench::load(
            &db,
            sizes.branches,
            sizes.accounts_per_branch,
            false,
        )),
        Name::TpcbAnalyticMvcc => Box::new(TpcbBench::load(
            &db,
            sizes.branches,
            sizes.accounts_per_branch,
            true,
        )),
        Name::TpccNewOrderOpen => Box::new(TpccNewOrder::load(&db, sizes.tpcc, seed)),
    };
    (db, wl)
}

/// Common gate: no transaction type may end in a user abort it never
/// legitimately produces, and none may exhaust its retries.
fn check_outcomes(wl: &dyn Workload, tally: &Tally) -> Result<(), String> {
    for (k, name) in wl.kinds().iter().enumerate() {
        if !wl.user_fail_expected(k) && tally.user_fails[k] > 0 {
            return Err(format!(
                "{name}: {} unexpected user aborts",
                tally.user_fails[k]
            ));
        }
        if tally.failed[k] > 0 {
            return Err(format!("{name}: {} retries exhausted", tally.failed[k]));
        }
    }
    Ok(())
}

// ---- TM1 ------------------------------------------------------------------

/// The TM1 NDBB mix, run through `Tm1`'s own transactions.
pub struct Tm1Ndbb {
    tm1: Arc<Tm1>,
    mix: MixedWorkload,
    kinds: Vec<&'static str>,
}

/// Designed invalid-input failure rate of each NDBB transaction (see
/// `sli_workloads::tm1`), and the tolerance an observed rate must meet.
const TM1_FAIL_RATES: [(&str, f64); 7] = [
    ("getSub", 0.0),
    ("getDest", 0.761),
    ("getAccess", 0.375),
    ("updateSub", 0.375),
    ("updateLoc", 0.0),
    ("insCF", 0.6875),
    ("delCF", 0.6875),
];
const TM1_RATE_TOLERANCE: f64 = 0.1;
/// Below this many outcomes a type's failure rate is not judged.
const TM1_RATE_MIN_SAMPLES: u64 = 1_000;

impl Tm1Ndbb {
    fn load(db: &Arc<Database>, subscribers: u64, seed: u64) -> Tm1Ndbb {
        let tm1 = Tm1::load(db, subscribers, seed);
        let mix = tm1.ndbb_mix();
        let kinds = mix.transaction_names();
        Tm1Ndbb { tm1, mix, kinds }
    }

    fn designed_rate(&self, kind: usize) -> f64 {
        let name = self.kinds[kind];
        TM1_FAIL_RATES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| panic!("no designed failure rate for TM1 type {name}"))
    }
}

impl Workload for Tm1Ndbb {
    fn kinds(&self) -> &[&'static str] {
        &self.kinds
    }
    fn pick(&self, rng: &mut SmallRng) -> usize {
        self.mix.pick(rng)
    }
    fn attempt(&self, s: &Session, kind: usize, rng: &mut SmallRng, _: &mut Tracer) -> Outcome {
        self.mix.run_at(kind, s, rng)
    }
    fn user_fail_expected(&self, kind: usize) -> bool {
        self.designed_rate(kind) > 0.0
    }
    fn check(&self, db: &Arc<Database>, tally: &Tally) -> Result<(), String> {
        check_outcomes(self, tally)?;
        let subs = db.record_count(self.tm1.subscriber_table());
        if subs != self.tm1.subscribers {
            return Err(format!(
                "subscriber table holds {subs} rows, loaded {}",
                self.tm1.subscribers
            ));
        }
        for (k, name) in self.kinds.iter().enumerate() {
            let n = tally.commits[k] + tally.user_fails[k];
            if n < TM1_RATE_MIN_SAMPLES {
                continue;
            }
            let rate = tally.user_fails[k] as f64 / n as f64;
            let designed = self.designed_rate(k);
            if (rate - designed).abs() > TM1_RATE_TOLERANCE {
                return Err(format!(
                    "{name}: invalid-input failure rate {rate:.3} over {n}, designed {designed}"
                ));
            }
        }
        Ok(())
    }
}

// ---- TPC-B ----------------------------------------------------------------

const TPCB_BALANCE_OFF: usize = 8;
const TPCB_HISTORY_LEN: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TpcbTxn {
    AccountUpdate,
    BranchAudit,
}

/// TPC-B with the benchmark's own copies of the account-update and
/// branch-audit bodies, written against `Txn` so that each row call
/// gets its own span. The mix (and so the type weights) comes from
/// `TpcB`; the bodies match `TpcB::account_update` / `branch_audit`.
pub struct TpcbBench {
    branches: u64,
    accounts_per_branch: u64,
    branch: TableHandle,
    teller: TableHandle,
    account: TableHandle,
    history: TableHandle,
    mvcc: bool,
    mix: MixedWorkload,
    kinds: Vec<&'static str>,
    txns: Vec<TpcbTxn>,
    history_seq: AtomicU64,
    committed_updates: AtomicU64,
}

impl TpcbBench {
    /// Load TPC-B; `analytic` selects the account-update / branch-audit mix.
    pub fn load(
        db: &Arc<Database>,
        branches: u64,
        accounts_per_branch: u64,
        analytic: bool,
    ) -> TpcbBench {
        let tpcb = TpcB::load(db, branches, accounts_per_branch);
        let mix = if analytic {
            tpcb.analytic_workload()
        } else {
            tpcb.workload()
        };
        let kinds = mix.transaction_names();
        let txns = kinds
            .iter()
            .map(|k| match *k {
                "accountUpdate" => TpcbTxn::AccountUpdate,
                "branchAudit" => TpcbTxn::BranchAudit,
                other => panic!("TPC-B mix has an unknown transaction {other}"),
            })
            .collect();
        let table = |n: &str| db.table_handle(n).expect("TpcB::load created it");
        TpcbBench {
            branches,
            accounts_per_branch,
            branch: table("tpcb_branch"),
            teller: table("tpcb_teller"),
            account: table("tpcb_account"),
            history: table("tpcb_history"),
            mvcc: db.backend_kind() == BackendKind::Mvcc,
            mix,
            kinds,
            txns,
            history_seq: AtomicU64::new(0),
            committed_updates: AtomicU64::new(0),
        }
    }

    /// Read-modify-write of one balance row: a read span (lookup plus
    /// `read_for_update`) and a write span.
    fn add_balance(
        &self,
        txn: &mut sli_engine::Txn<'_>,
        tr: &mut Tracer,
        table: TableHandle,
        key: u64,
        delta: i64,
    ) -> Result<i64, TxnError> {
        let t = tr.now();
        let rid = txn.lookup(table, key).ok_or(TxnError::NotFound)?;
        let mut row = txn.read_for_update(table, rid)?.to_vec();
        tr.call(Call::Read, t);
        let balance = get_i64(&row, TPCB_BALANCE_OFF) + delta;
        put_i64(&mut row, TPCB_BALANCE_OFF, balance);
        let t = tr.now();
        txn.update(table, rid, &row)?;
        tr.call(Call::Write, t);
        Ok(balance)
    }

    fn account_update(&self, s: &Session, rng: &mut SmallRng, tr: &mut Tracer) -> Outcome {
        let branch = rng.gen_range(1..=self.branches);
        let teller = (branch - 1) * TELLERS_PER_BRANCH + rng.gen_range(1..=TELLERS_PER_BRANCH);
        let account_branch = if rng.gen_bool(0.85) || self.branches == 1 {
            branch
        } else {
            loop {
                let other = rng.gen_range(1..=self.branches);
                if other != branch {
                    break other;
                }
            }
        };
        let account = (account_branch - 1) * self.accounts_per_branch
            + rng.gen_range(1..=self.accounts_per_branch);
        let delta = rng.gen_range(-99_999i64..=99_999);
        // ordering: relaxed — a pure id allocator; uniqueness comes from
        // the atomic RMW.
        let hid = self.history_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let called = tr.now();
        let mut body_done = None;
        let r = s.run(|txn| {
            tr.call(Call::Begin, called);
            let new_balance = self.add_balance(txn, tr, self.account, account, delta)?;
            self.add_balance(txn, tr, self.teller, teller, delta)?;
            self.add_balance(txn, tr, self.branch, branch, delta)?;
            let mut h = vec![0u8; TPCB_HISTORY_LEN];
            put_u64(&mut h, 0, account);
            put_u64(&mut h, 8, teller);
            put_u64(&mut h, 16, branch);
            put_i64(&mut h, 24, delta);
            put_i64(&mut h, 32, new_balance);
            put_filler(&mut h, 40, TPCB_HISTORY_LEN - 40, hid);
            let t = tr.now();
            txn.insert(self.history, hid, &h)?;
            tr.call(Call::Write, t);
            body_done = tr.now();
            Ok(())
        });
        if r.is_ok() {
            tr.call(Call::Commit, body_done);
            // ordering: relaxed — read only after every session joined.
            self.committed_updates.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::from_result(r)
    }

    fn branch_audit(&self, s: &Session, tr: &mut Tracer) -> Outcome {
        let branches = self.branches;
        let tellers = branches * TELLERS_PER_BRANCH;
        let called = tr.now();
        let mut body_done = None;
        let r = s.run(|txn| {
            tr.call(Call::Begin, called);
            let mut bb = 0i64;
            let t = tr.now();
            txn.scan_ordered(self.branch, 1, branches, branches as usize, |_, row| {
                bb += get_i64(row, TPCB_BALANCE_OFF);
            })?;
            tr.call(Call::Scan, t);
            let mut tb = 0i64;
            let t = tr.now();
            txn.scan_ordered(self.teller, 1, tellers, tellers as usize, |_, row| {
                tb += get_i64(row, TPCB_BALANCE_OFF);
            })?;
            tr.call(Call::Scan, t);
            if bb != tb {
                return Err(txn.user_abort("snapshot-inconsistent"));
            }
            body_done = tr.now();
            Ok(())
        });
        if r.is_ok() {
            tr.call(Call::Commit, body_done);
        }
        Outcome::from_result(r)
    }
}

impl Workload for TpcbBench {
    fn kinds(&self) -> &[&'static str] {
        &self.kinds
    }
    fn pick(&self, rng: &mut SmallRng) -> usize {
        self.mix.pick(rng)
    }
    fn attempt(&self, s: &Session, kind: usize, rng: &mut SmallRng, tr: &mut Tracer) -> Outcome {
        match self.txns[kind] {
            TpcbTxn::AccountUpdate => self.account_update(s, rng, tr),
            TpcbTxn::BranchAudit => self.branch_audit(s, tr),
        }
    }
    fn user_fail_expected(&self, _: usize) -> bool {
        // TPC-B never fails on input; a failed audit saw an inconsistent
        // snapshot.
        false
    }
    fn check(&self, db: &Arc<Database>, tally: &Tally) -> Result<(), String> {
        check_outcomes(self, tally)?;
        if self.mvcc {
            let requests = db.lock_stats().lock_requests;
            if requests != 0 {
                return Err(format!(
                    "MVCC run made {requests} lock-manager requests, expected 0"
                ));
            }
            db.quiesce();
        }
        let history = TpcB::check_recovered(db, self.branches, self.accounts_per_branch)?;
        // ordering: relaxed — every session has joined.
        let commits = self.committed_updates.load(Ordering::Relaxed);
        if history != commits {
            return Err(format!(
                "{history} history rows after {commits} committed account updates"
            ));
        }
        Ok(())
    }
}

// ---- TPC-C ----------------------------------------------------------------

/// TPC-C New Order alone, run through `TpcC`'s own transaction: 5 to 15
/// order lines, each an ordered-index insert under 2PL. The full mix is
/// left out because its Delivery transaction trips two engine defects
/// under 2PL, and the small mix because its p50 falls between the short
/// Payment and the long New Order, where it did not repeat (README.md).
pub struct TpccNewOrder {
    scale: TpcCScale,
    mix: MixedWorkload,
    kinds: Vec<&'static str>,
}

impl TpccNewOrder {
    fn load(db: &Arc<Database>, scale: TpcCScale, seed: u64) -> TpccNewOrder {
        let tpcc = TpcC::load(db, scale, seed);
        let mix = tpcc.single(TpcCTxn::NewOrder);
        let kinds = mix.transaction_names();
        TpccNewOrder { scale, mix, kinds }
    }
}

impl Workload for TpccNewOrder {
    fn kinds(&self) -> &[&'static str] {
        &self.kinds
    }
    fn pick(&self, rng: &mut SmallRng) -> usize {
        self.mix.pick(rng)
    }
    fn attempt(&self, s: &Session, kind: usize, rng: &mut SmallRng, _: &mut Tracer) -> Outcome {
        self.mix.run_at(kind, s, rng)
    }
    fn user_fail_expected(&self, _: usize) -> bool {
        // The spec's 1 % of New Orders that name an invalid item.
        true
    }
    fn check(&self, db: &Arc<Database>, tally: &Tally) -> Result<(), String> {
        check_outcomes(self, tally)?;
        TpcC::check_recovered(db, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::time::Instant;

    const TINY: Sizes = Sizes {
        subscribers: 2_000,
        branches: 3,
        accounts_per_branch: 50,
        tpcc: TpcCScale {
            warehouses: 2,
            customers_per_district: 30,
            items: 200,
            initial_orders_per_district: 20,
        },
    };

    /// Run `n` transactions on one session; returns the tally.
    fn drive(db: &Arc<Database>, wl: &dyn Workload, n: usize) -> Tally {
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut tr = Tracer::new(Instant::now(), wl.kinds().len());
        let mut tally = Tally::new(wl.kinds().len());
        for _ in 0..n {
            let k = wl.pick(&mut rng);
            tally.add(k, wl.attempt(&s, k, &mut rng, &mut tr));
        }
        tally
    }

    /// Commit one transaction that adds `delta` to a balance field of one
    /// row only, breaking the workload's conservation invariant.
    fn unbalance(db: &Arc<Database>, table: &str, key: u64, off: usize, delta: i64) {
        let t = db.table_handle(table).expect("table exists");
        db.session()
            .run(|txn| {
                txn.update_by_key(t, key, |old| {
                    let mut row = old.to_vec();
                    let v = get_i64(&row, off) + delta;
                    put_i64(&mut row, off, v);
                    row
                })
            })
            .expect("single-session update commits");
    }

    #[test]
    fn pinned_config_is_paper_sli_in_memory_without_row_work() {
        let cfg = db_config(BackendKind::Locked2pl);
        assert_eq!(cfg.row_work_ns, 0);
        assert_eq!(cfg.backend, BackendKind::Locked2pl);
        assert_eq!(cfg.log.flush_latency, std::time::Duration::ZERO);
        let db = Database::open(cfg);
        assert_eq!(db.policy_name(), PolicyKind::PaperSli.name());
    }

    #[test]
    fn tpcb_check_rejects_unbalanced_balances_and_lost_history() {
        for name in [Name::Tpcb, Name::TpcbAnalyticMvcc] {
            let (db, wl) = load(name, &TINY, 1);
            let tally = drive(&db, wl.as_ref(), 300);
            wl.check(&db, &tally).expect("a clean run passes");
            unbalance(&db, "tpcb_branch", 1, TPCB_BALANCE_OFF, 7);
            let err = wl.check(&db, &tally).expect_err("unbalanced branch");
            assert!(err.contains("diverge"), "{name:?}: {err}");

            let (db, wl) = load(name, &TINY, 1);
            let tally = drive(&db, wl.as_ref(), 50);
            let extra = db.table_handle("tpcb_history").unwrap();
            db.bulk_insert(extra, u64::MAX, None, &[0u8; TPCB_HISTORY_LEN]);
            let err = wl
                .check(&db, &tally)
                .expect_err("history row without commit");
            assert!(err.contains("history rows"), "{name:?}: {err}");
        }
    }

    #[test]
    fn tpcb_bodies_record_a_span_per_row_call() {
        for (name, calls) in [
            (
                Name::Tpcb,
                &[Call::Begin, Call::Read, Call::Write, Call::Commit][..],
            ),
            (Name::TpcbAnalyticMvcc, &[Call::Scan][..]),
        ] {
            let (db, wl) = load(name, &TINY, 1);
            let s = db.session();
            let mut rng = SmallRng::seed_from_u64(5);
            let mut tr = Tracer::new(Instant::now(), wl.kinds().len());
            tr.set_on(true);
            for _ in 0..100 {
                let k = wl.pick(&mut rng);
                wl.attempt(&s, k, &mut rng, &mut tr);
            }
            for c in calls {
                assert!(!tr.call_durations(*c).is_empty(), "{name:?}: {c:?}");
            }
        }
    }

    #[test]
    fn tpcb_check_rejects_an_inconsistent_audit_and_exhausted_retries() {
        let (db, wl) = load(Name::TpcbAnalyticMvcc, &TINY, 1);
        let audit = wl.kinds().iter().position(|k| *k == "branchAudit").unwrap();
        let mut tally = drive(&db, wl.as_ref(), 100);
        tally.user_fails[audit] += 1;
        let err = wl.check(&db, &tally).expect_err("inconsistent audit");
        assert!(err.contains("unexpected user aborts"), "{err}");
        let mut tally = drive(&db, wl.as_ref(), 10);
        tally.failed[0] += 1;
        assert!(wl.check(&db, &tally).is_err());
    }

    #[test]
    fn mvcc_check_rejects_lock_manager_traffic() {
        let (db, _) = load(Name::TpcbAnalyticMvcc, &TINY, 1);
        // The same workload object over a 2PL database: its account
        // updates take locks, which the MVCC gate must refuse.
        let locked = Database::open(db_config(BackendKind::Locked2pl));
        let mut wl = TpcbBench::load(&locked, TINY.branches, TINY.accounts_per_branch, true);
        wl.mvcc = true;
        let tally = drive(&locked, &wl, 50);
        let err = wl.check(&locked, &tally).expect_err("locks taken");
        assert!(err.contains("lock-manager requests"), "{err}");
        drop(db);
    }

    #[test]
    fn tpcc_check_rejects_unbalanced_ytd() {
        let (db, wl) = load(Name::TpccNewOrderOpen, &TINY, 3);
        let tally = drive(&db, wl.as_ref(), 300);
        wl.check(&db, &tally).expect("a clean run passes");
        // Warehouse YTD sits at offset 8 (TpcC::check_recovered).
        unbalance(&db, "tpcc_warehouse", 1, 8, 100);
        let err = wl.check(&db, &tally).expect_err("unbalanced warehouse");
        assert!(err.contains("YTD"), "{err}");
    }

    #[test]
    fn tm1_check_rejects_lost_rows_and_wrong_failure_rates() {
        let (db, wl) = load(Name::Tm1Ndbb, &TINY, 2);
        let tally = drive(&db, wl.as_ref(), 20_000);
        wl.check(&db, &tally).expect("a clean run passes");

        let get_sub = wl.kinds().iter().position(|k| *k == "getSub").unwrap();
        let mut bad = tally.clone();
        bad.user_fails[get_sub] += 1;
        assert!(wl.check(&db, &bad).is_err(), "getSub never fails");

        let get_dest = wl.kinds().iter().position(|k| *k == "getDest").unwrap();
        let mut bad = tally.clone();
        bad.user_fails[get_dest] = 0;
        bad.commits[get_dest] = 5_000;
        let err = wl.check(&db, &bad).expect_err("getDest failure rate 0");
        assert!(err.contains("failure rate"), "{err}");

        let subs = db.table_handle("tm1_subscriber").unwrap();
        db.session()
            .run(|txn| txn.delete_by_key(subs, 7, None))
            .expect("delete commits");
        let err = wl.check(&db, &tally).expect_err("lost subscriber");
        assert!(err.contains("subscriber table"), "{err}");
    }
}
