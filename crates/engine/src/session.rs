//! Sessions and transactions.
//!
//! A [`Session`] routes each transaction through the database's
//! configured [`crate::BackendKind`]: the same [`Txn`] API executes
//! under hierarchical two-phase locking (the default) or under the
//! MVCC/optimistic engine from `sli-mvcc`. Workload code is
//! backend-agnostic as long as it retries retryable errors —
//! [`TxnError::Validation`] joins deadlock/timeout victims in that set.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;
use sli_core::{AgentSliState, LockError, LockId, LockMode, TxnLockState};
use sli_mvcc::{MvccStore, MvccTxn, ReadEntry, Visible, WriteError, WriteKind, WriteOp};
use sli_profiler::{Category, Component};
use sli_storage::Rid;
use sli_wal::{LogRecord, Lsn, WalError};

use crate::db::{Database, EngineError, TableHandle};

/// Why a transaction failed. Deadlocks, timeouts, and validation
/// conflicts are retryable; user aborts model the paper's NDBB-style
/// "failed due to invalid inputs" transactions, which roll back cleanly
/// and count as failures, not errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// Lock acquisition failed (deadlock victim or timeout).
    Lock(LockError),
    /// MVCC backend only: the transaction lost an optimistic conflict —
    /// first-writer-wins on a write-write collision, or commit-time
    /// backward validation found the read set stale. The transaction
    /// rolled back without logging anything; retry from the top.
    Validation(&'static str),
    /// Application-level validation failure; the transaction rolled back.
    UserAbort(&'static str),
    /// A key or RID was not found.
    NotFound,
    /// The commit-time log force failed (injected fsync failure or a
    /// poisoned device): the transaction was NOT acknowledged. Its
    /// effects may or may not survive a crash — recovery decides.
    Durability(WalError),
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        TxnError::Lock(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Lock(e) => write!(f, "lock error: {e}"),
            TxnError::Validation(why) => write!(f, "validation conflict: {why}"),
            TxnError::UserAbort(why) => write!(f, "user abort: {why}"),
            TxnError::NotFound => write!(f, "not found"),
            TxnError::Durability(e) => write!(f, "commit not durable: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl TxnError {
    /// True for failures worth retrying from the top (deadlock/timeout
    /// victims, optimistic validation conflicts). Durability failures
    /// are not retryable: the log device is gone.
    pub fn is_retryable(&self) -> bool {
        match self {
            TxnError::Lock(e) => e.is_retryable(),
            TxnError::Validation(_) => true,
            _ => false,
        }
    }
}

pub(crate) struct SessionState {
    pub(crate) agent: AgentSliState,
    pub(crate) ts: TxnLockState,
    /// MVCC scratch, reused across transactions (empty on the locked
    /// backend).
    pub(crate) mvcc: MvccTxn,
}

/// A worker thread's connection to the database: owns one lock-manager
/// agent (and with it the SLI inherited-lock list that carries locks from
/// one transaction to the next), plus the per-session MVCC scratch when
/// the database runs the `mvcc` backend.
pub struct Session {
    db: Arc<Database>,
    state: RefCell<SessionState>,
}

impl Session {
    pub(crate) fn try_new(db: Arc<Database>) -> Result<Session, EngineError> {
        let agent = db.lockmgr.register_agent().map_err(|e| match e {
            LockError::TooManyAgents { max } => EngineError::TooManyAgents { max },
            other => unreachable!("register_agent returned {other:?}"),
        })?;
        let ts = TxnLockState::new(agent.slot());
        Ok(Session {
            db,
            state: RefCell::new(SessionState {
                agent,
                ts,
                mvcc: MvccTxn::new(),
            }),
        })
    }

    /// Run one transaction. On `Ok` the transaction commits (forcing the
    /// log if it wrote); on `Err` it rolls back (undoing writes, releasing
    /// locks or provisional versions, no inheritance).
    pub fn run<T>(
        &self,
        body: impl FnOnce(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let _app = sli_profiler::enter(Category::Work(Component::Application));
        let state = &mut *self.state.borrow_mut();
        let mut txn = {
            let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
            self.db.backend.begin_txn(&self.db, state)
        };
        match body(&mut txn) {
            Ok(v) => txn.commit().map(|()| v),
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    }

    /// Run a transaction, retrying deadlock/timeout victims and
    /// validation conflicts up to `max_retries` times. Non-retryable
    /// errors pass through.
    pub fn run_with_retries<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let mut attempts = 0;
        loop {
            match self.run(&mut body) {
                Err(e) if e.is_retryable() && attempts < max_retries => {
                    attempts += 1;
                }
                other => return other,
            }
        }
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Number of locks currently parked on this session's agent by SLI.
    pub fn inherited_locks(&self) -> usize {
        self.state.borrow().agent.inherited_count()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let state = &mut *self.state.borrow_mut();
        self.db.lockmgr.retire_agent(&mut state.agent);
    }
}

enum UndoEntry {
    Update {
        table: TableHandle,
        rid: Rid,
        before: Bytes,
    },
    Insert {
        table: TableHandle,
        rid: Rid,
        key: u64,
        ordered_key: Option<u64>,
    },
    Delete {
        table: TableHandle,
        rid: Rid,
        before: Bytes,
        key: u64,
        ordered_key: Option<u64>,
    },
}

/// The locked (2PL) execution state of one transaction.
pub(crate) struct LockedOps<'a> {
    ts: &'a mut TxnLockState,
    agent: &'a mut AgentSliState,
    undo: Vec<UndoEntry>,
    wrote: bool,
    last_lsn: Lsn,
}

impl LockedOps<'_> {
    fn lock(&mut self, db: &Database, id: LockId, mode: LockMode) -> Result<(), TxnError> {
        db.lockmgr.lock(self.ts, self.agent, id, mode)?;
        Ok(())
    }

    fn record_lock(
        &mut self,
        db: &Database,
        table: TableHandle,
        rid: Rid,
        mode: LockMode,
    ) -> Result<(), TxnError> {
        self.lock(
            db,
            LockId::Record(table.table_id(), rid.page, rid.slot),
            mode,
        )
    }

    fn log_write(&mut self, db: &Database, rec: LogRecord) {
        if !self.wrote {
            self.wrote = true;
            db.log.append(LogRecord::begin(self.ts.txn_seq()));
        }
        self.last_lsn = db.log.append(rec);
    }
}

/// The MVCC/optimistic execution state of one transaction.
pub(crate) struct MvccOps<'a> {
    txn: &'a mut MvccTxn,
    store: &'a MvccStore,
}

impl MvccOps<'_> {
    /// Snapshot read of `(table, rid)`, handed to `f` by reference: own
    /// uncommitted write if any, else the version visible at `read_ts`
    /// (entered into the read set). `Ok(None)` means the record is
    /// invisible to this snapshot.
    fn visit_rid<T>(
        &mut self,
        db: &Database,
        table: TableHandle,
        rid: Rid,
        f: impl FnOnce(&Bytes) -> T,
    ) -> Result<Option<T>, TxnError> {
        if let Some(op) = self.txn.own_write(table.0, rid) {
            // Own provisional; no read-set entry needed — our
            // provisional blocks any other writer from committing a
            // newer version underneath us.
            return Ok(op.after.as_ref().map(f));
        }
        // Chain first; the heap only when no chain exists, read under
        // the shard mutex (see `MvccStore::read`).
        let (out, seen) =
            self.store.read(
                table.0,
                rid,
                self.txn.read_ts,
                self.txn.token(),
                |v| match v {
                    Visible::Chain(data) => data.map(f),
                    Visible::Heap => {
                        let _s = sli_profiler::enter(Category::Work(Component::Storage));
                        db.table(table).heap.read_with(rid, |data| data.map(f))
                    }
                },
            );
        self.txn.reads.push(ReadEntry {
            table: table.0,
            rid,
            seen,
        });
        Ok(out)
    }

    /// Install a provisional write (`None` deletes); returns the
    /// snapshot-visible pre-image.
    fn write_rid(
        &mut self,
        db: &Database,
        table: TableHandle,
        rid: Rid,
        data: Option<Bytes>,
    ) -> Result<Option<Bytes>, TxnError> {
        self.store
            .write(
                table.0,
                rid,
                self.txn.read_ts,
                self.txn.token(),
                data,
                || {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    db.table(table).heap.read(rid)
                },
            )
            .map_err(|e| match e {
                WriteError::Conflict(why) => TxnError::Validation(why),
                WriteError::NotFound => TxnError::NotFound,
            })
    }
}

pub(crate) enum TxnOps<'a> {
    Locked(LockedOps<'a>),
    Mvcc(MvccOps<'a>),
}

impl<'a> TxnOps<'a> {
    pub(crate) fn locked(ts: &'a mut TxnLockState, agent: &'a mut AgentSliState) -> TxnOps<'a> {
        TxnOps::Locked(LockedOps {
            ts,
            agent,
            undo: Vec::new(),
            wrote: false,
            last_lsn: 0,
        })
    }

    pub(crate) fn mvcc(txn: &'a mut MvccTxn, store: &'a MvccStore) -> TxnOps<'a> {
        TxnOps::Mvcc(MvccOps { txn, store })
    }
}

/// Synthetic per-row CPU cost (see `DatabaseConfig::row_work_ns`).
fn row_work(db: &Database) {
    let ns = db.row_work_ns;
    if ns == 0 {
        return;
    }
    let _s = sli_profiler::enter(Category::Work(Component::Storage));
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// A running transaction. Under the locked backend, row operations take
/// hierarchical locks (record-level S/X with automatic intention locks
/// on page, table, and database) before touching storage. Under the
/// MVCC backend, reads resolve a snapshot-visible version into the read
/// set, writes install provisional versions, and commit validates the
/// read set before publishing — no lock-manager traffic at all.
pub struct Txn<'a> {
    db: &'a Arc<Database>,
    ops: TxnOps<'a>,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(db: &'a Arc<Database>, ops: TxnOps<'a>) -> Txn<'a> {
        Txn { db, ops }
    }

    /// Transaction sequence number. Locked backend: unique per
    /// database. MVCC: the snapshot timestamp (the commit timestamp —
    /// which becomes the WAL transaction id — is only allocated at
    /// commit).
    pub fn seq(&self) -> u64 {
        match &self.ops {
            TxnOps::Locked(l) => l.ts.txn_seq(),
            TxnOps::Mvcc(m) => m.txn.read_ts,
        }
    }

    /// Explicitly lock a whole table (e.g. `S` for a stable scan, `X` for
    /// bulk maintenance). No-op on the MVCC backend: scans read a
    /// consistent snapshot without locks.
    pub fn lock_table(&mut self, table: TableHandle, mode: LockMode) -> Result<(), TxnError> {
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => l.lock(db, LockId::Table(table.table_id()), mode),
            TxnOps::Mvcc(_) => Ok(()),
        }
    }

    /// Index probe: key to RID. Locked backend: unlocked — the record
    /// lock (and the re-read through [`Txn::read`]) makes the access
    /// safe. MVCC: consults the transaction's own insert/delete overlay
    /// before the shared index.
    pub fn lookup(&mut self, table: TableHandle, key: u64) -> Option<Rid> {
        if let TxnOps::Mvcc(m) = &self.ops {
            if let Some(&overlay) = m.txn.key_overlay.get(&(table.0, key)) {
                return overlay;
            }
        }
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).primary.get(key)
    }

    /// Read a record by RID (S lock / snapshot-visible version).
    pub fn read(&mut self, table: TableHandle, rid: Rid) -> Result<Bytes, TxnError> {
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => {
                l.record_lock(db, table, rid, LockMode::S)?;
                let t = db.table(table);
                db.pool.access(table.0, rid.page);
                row_work(db);
                let _s = sli_profiler::enter(Category::Work(Component::Storage));
                t.heap.read(rid).ok_or(TxnError::NotFound)
            }
            TxnOps::Mvcc(m) => {
                db.pool.access(table.0, rid.page);
                row_work(db);
                let data = m.visit_rid(db, table, rid, Bytes::clone)?;
                data.ok_or(TxnError::NotFound)
            }
        }
    }

    /// Read a record by primary key.
    pub fn read_by_key(&mut self, table: TableHandle, key: u64) -> Result<Bytes, TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        self.read(table, rid)
    }

    /// Read a record by RID for a later update. Locked backend: takes
    /// the X lock up front. MVCC: identical to [`Txn::read`] — the
    /// conflict surfaces at the write or at commit-time validation.
    pub fn read_for_update(&mut self, table: TableHandle, rid: Rid) -> Result<Bytes, TxnError> {
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => {
                l.record_lock(db, table, rid, LockMode::X)?;
                let t = db.table(table);
                db.pool.access(table.0, rid.page);
                row_work(db);
                let _s = sli_profiler::enter(Category::Work(Component::Storage));
                t.heap.read(rid).ok_or(TxnError::NotFound)
            }
            TxnOps::Mvcc(_) => self.read(table, rid),
        }
    }

    /// Overwrite a record by RID (X lock / provisional version).
    pub fn update(&mut self, table: TableHandle, rid: Rid, data: &[u8]) -> Result<(), TxnError> {
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => {
                l.record_lock(db, table, rid, LockMode::X)?;
                let t = db.table(table);
                db.pool.access(table.0, rid.page);
                row_work(db);
                let before = {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    t.heap
                        .update(rid, Bytes::copy_from_slice(data))
                        .ok_or(TxnError::NotFound)?
                };
                l.log_write(
                    db,
                    LogRecord::update(l.ts.txn_seq(), table.0, rid.page, rid.slot, &before, data),
                );
                l.undo.push(UndoEntry::Update { table, rid, before });
                Ok(())
            }
            TxnOps::Mvcc(m) => {
                if matches!(m.txn.own_write(table.0, rid), Some(op) if op.after.is_none()) {
                    return Err(TxnError::NotFound); // updating own delete
                }
                db.pool.access(table.0, rid.page);
                row_work(db);
                let after = Bytes::copy_from_slice(data);
                let before = m.write_rid(db, table, rid, Some(after.clone()))?;
                m.txn.push_write(WriteOp {
                    table: table.0,
                    rid,
                    kind: WriteKind::Update,
                    before,
                    after: Some(after),
                });
                Ok(())
            }
        }
    }

    /// Read-modify-write by primary key.
    pub fn update_by_key(
        &mut self,
        table: TableHandle,
        key: u64,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<(), TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        let before = self.read_for_update(table, rid)?;
        let after = f(&before);
        self.update(table, rid, &after)
    }

    /// Insert a record with a primary key.
    pub fn insert(&mut self, table: TableHandle, key: u64, data: &[u8]) -> Result<Rid, TxnError> {
        self.insert_with_okey(table, key, None, data)
    }

    /// Insert a record with a primary key and an ordered secondary key.
    /// MVCC: the heap row is allocated now, but the index entries are
    /// published only at commit — the record stays invisible to every
    /// other transaction until then.
    pub fn insert_with_okey(
        &mut self,
        table: TableHandle,
        key: u64,
        ordered_key: Option<u64>,
        data: &[u8],
    ) -> Result<Rid, TxnError> {
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => {
                let t = db.table(table);
                let rid = {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    t.heap.insert(Bytes::copy_from_slice(data))
                };
                // Lock the new record exclusively *before* publishing it
                // in the index, so no reader can see it until we commit.
                l.record_lock(db, table, rid, LockMode::X)?;
                db.pool.access(table.0, rid.page);
                row_work(db);
                {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    t.primary.insert(key, rid);
                    if let Some(ok) = ordered_key {
                        t.ordered.insert(ok, rid);
                    }
                }
                l.log_write(
                    db,
                    LogRecord::insert(
                        l.ts.txn_seq(),
                        table.0,
                        rid.page,
                        rid.slot,
                        key,
                        ordered_key,
                        data,
                    ),
                );
                l.undo.push(UndoEntry::Insert {
                    table,
                    rid,
                    key,
                    ordered_key,
                });
                Ok(rid)
            }
            TxnOps::Mvcc(m) => {
                let t = db.table(table);
                let bytes = Bytes::copy_from_slice(data);
                let rid = {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    t.heap.insert(bytes.clone())
                };
                db.pool.access(table.0, rid.page);
                row_work(db);
                m.store
                    .insert_provisional(table.0, rid, m.txn.token(), bytes.clone());
                m.txn.push_write(WriteOp {
                    table: table.0,
                    rid,
                    kind: WriteKind::Insert {
                        key,
                        okey: ordered_key,
                    },
                    before: None,
                    after: Some(bytes),
                });
                m.txn.key_overlay.insert((table.0, key), Some(rid));
                Ok(rid)
            }
        }
    }

    /// Delete a record by primary key. MVCC: installs a provisional
    /// tombstone; the index entries are removed at commit and the heap
    /// row is reclaimed later by GC chain collapse (`Database::quiesce`).
    pub fn delete_by_key(
        &mut self,
        table: TableHandle,
        key: u64,
        ordered_key: Option<u64>,
    ) -> Result<(), TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        let db = self.db;
        match &mut self.ops {
            TxnOps::Locked(l) => {
                l.record_lock(db, table, rid, LockMode::X)?;
                let t = db.table(table);
                db.pool.access(table.0, rid.page);
                row_work(db);
                let before = {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    let before = t.heap.delete(rid).ok_or(TxnError::NotFound)?;
                    t.primary.remove(key);
                    if let Some(ok) = ordered_key {
                        t.ordered.remove(ok);
                    }
                    before
                };
                l.log_write(
                    db,
                    LogRecord::delete(
                        l.ts.txn_seq(),
                        table.0,
                        rid.page,
                        rid.slot,
                        key,
                        ordered_key,
                        &before,
                    ),
                );
                l.undo.push(UndoEntry::Delete {
                    table,
                    rid,
                    before,
                    key,
                    ordered_key,
                });
                Ok(())
            }
            TxnOps::Mvcc(m) => {
                db.pool.access(table.0, rid.page);
                row_work(db);
                let before = m.write_rid(db, table, rid, None)?;
                m.txn.push_write(WriteOp {
                    table: table.0,
                    rid,
                    kind: WriteKind::Delete {
                        key,
                        okey: ordered_key,
                    },
                    before,
                    after: None,
                });
                m.txn.key_overlay.insert((table.0, key), None);
                Ok(())
            }
        }
    }

    /// Range-scan the ordered secondary index over `[lo, hi]`, up to
    /// `limit` records; returns the number visited. Locked backend:
    /// S-locks each visited record. MVCC: reads each record's
    /// snapshot-visible version without any locks, silently skipping
    /// records invisible to the snapshot (committed after it, or
    /// tombstoned before it), and hands `visit` each version by
    /// reference while its shard mutex is held — so `visit` must not
    /// block. Own uncommitted inserts are not yet in the shared index
    /// and are not visited.
    pub fn scan_ordered(
        &mut self,
        table: TableHandle,
        lo: u64,
        hi: u64,
        limit: usize,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<usize, TxnError> {
        let hits = {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            self.db.table(table).ordered.range(lo, hi, limit)
        };
        let db = self.db;
        let mut n = 0;
        for (key, rid) in hits {
            match &mut self.ops {
                TxnOps::Locked(_) => {
                    let data = self.read(table, rid)?;
                    visit(key, &data);
                    n += 1;
                }
                TxnOps::Mvcc(m) => {
                    db.pool.access(table.0, rid.page);
                    row_work(db);
                    if m.visit_rid(db, table, rid, |data| visit(key, data))?
                        .is_some()
                    {
                        n += 1;
                    }
                }
            }
        }
        Ok(n)
    }

    /// Newest ordered-index entry in `[lo, hi]` (unlocked probe).
    pub fn ordered_last(&mut self, table: TableHandle, lo: u64, hi: u64) -> Option<(u64, Rid)> {
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).ordered.last_in(lo, hi)
    }

    /// Oldest ordered-index entry in `[lo, hi]` (unlocked probe).
    pub fn ordered_first(&mut self, table: TableHandle, lo: u64, hi: u64) -> Option<(u64, Rid)> {
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).ordered.first_in(lo, hi)
    }

    /// Abort with an application-level validation failure (the NDBB "failed
    /// transaction" outcome). Usage: `return Err(txn.user_abort("no such
    /// subscriber"))`.
    pub fn user_abort(&self, why: &'static str) -> TxnError {
        TxnError::UserAbort(why)
    }

    fn commit(self) -> Result<(), TxnError> {
        let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
        let db = self.db;
        match self.ops {
            TxnOps::Locked(l) => {
                if l.wrote {
                    let seq = l.ts.txn_seq();
                    let lsn = db.log.append(LogRecord::commit(seq));
                    // Early-release policies drop record-level S locks here
                    // — after the commit LSN is assigned, before the commit
                    // wait (the session parks on the committer queue until a
                    // group-commit flush covers `lsn`). A no-op for every
                    // other policy.
                    db.lockmgr.pre_commit_release(l.ts);
                    let forced = db.log.commit(seq, lsn);
                    // On a flush failure the in-memory effects are kept and
                    // the locks released as committed: the Commit record is
                    // already in the log stream, so rolling back here could
                    // contradict what a torn prefix preserves. The caller
                    // simply never gets the ack — recovery decides the
                    // transaction's fate from the durable prefix alone.
                    db.lockmgr.end_txn(l.ts, l.agent, true);
                    return forced.map_err(TxnError::Durability);
                }
                db.lockmgr.end_txn(l.ts, l.agent, true);
                Ok(())
            }
            TxnOps::Mvcc(m) => {
                let slot = m.txn.slot;
                let token = m.txn.token();
                if m.txn.writes.is_empty() {
                    // Read-only: the snapshot is trivially serializable at
                    // read_ts — no validation, no logging, no flush wait.
                    m.store.note_ro_commit();
                    m.store.end(slot);
                    return Ok(());
                }
                // Allocate the commit timestamp (which doubles as the WAL
                // transaction id) and enter the preparing state: readers at
                // or above `commit_ts` now wait for our outcome instead of
                // resolving an inconsistent cut.
                let commit_ts = m.store.prepare_commit(slot);
                if let Err(why) = m.store.validate(&m.txn.reads, token) {
                    // Backward validation failed: discard every provisional
                    // version and reclaim heap rows of own inserts (never
                    // published in an index). Nothing was logged.
                    m.store.discard(m.txn.written_rids(), token);
                    for (tid, rid) in m.txn.inserted_rids() {
                        if let Some(t) = db.table_by_id(tid) {
                            t.heap.delete(rid);
                        }
                    }
                    m.store.finish_commit(slot);
                    m.store.end(slot);
                    m.store.note_validation_abort();
                    return Err(TxnError::Validation(why));
                }
                // WAL first: Begin + one record per write op + Commit, all
                // under the commit timestamp. Same group-commit pipeline as
                // the locked backend.
                db.log.append(LogRecord::begin(commit_ts));
                for op in &m.txn.writes {
                    let rec = match op.kind {
                        WriteKind::Insert { key, okey } => LogRecord::insert(
                            commit_ts,
                            op.table,
                            op.rid.page,
                            op.rid.slot,
                            key,
                            okey,
                            op.after.as_ref().expect("insert has an after image"),
                        ),
                        WriteKind::Update => LogRecord::update(
                            commit_ts,
                            op.table,
                            op.rid.page,
                            op.rid.slot,
                            op.before.as_ref().expect("update has a before image"),
                            op.after.as_ref().expect("update has an after image"),
                        ),
                        WriteKind::Delete { key, okey } => LogRecord::delete(
                            commit_ts,
                            op.table,
                            op.rid.page,
                            op.rid.slot,
                            key,
                            okey,
                            op.before.as_ref().expect("delete has a before image"),
                        ),
                    };
                    db.log.append(rec);
                }
                let lsn = db.log.append(LogRecord::commit(commit_ts));
                // Flip the provisional versions to committed at commit_ts,
                // then apply the heap/index effects in execution order.
                // Readers keep resolving through the chains (the heap value
                // only matters where no chain exists), so the order within
                // this block is not visible to them.
                m.store.install(m.txn.written_rids(), token, commit_ts);
                {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    for op in &m.txn.writes {
                        let Some(t) = db.table_by_id(op.table) else {
                            continue;
                        };
                        match op.kind {
                            WriteKind::Insert { key, okey } => {
                                t.primary.insert(key, op.rid);
                                if let Some(ok) = okey {
                                    t.ordered.insert(ok, op.rid);
                                }
                            }
                            WriteKind::Update => {
                                t.heap.update(
                                    op.rid,
                                    op.after.clone().expect("update has an after image"),
                                );
                            }
                            WriteKind::Delete { key, okey } => {
                                t.primary.remove(key);
                                if let Some(ok) = okey {
                                    t.ordered.remove(ok);
                                }
                                // The heap row stays allocated until GC
                                // collapses the tombstone chain: freeing it
                                // now could let a concurrent insert reuse
                                // the RID while chains still reference it.
                            }
                        }
                    }
                }
                m.store.finish_commit(slot);
                m.store.end(slot);
                m.store.maybe_gc();
                // Park on the committer queue until a group-commit flush
                // covers our commit record — identical ack contract to the
                // locked backend.
                db.log.commit(commit_ts, lsn).map_err(TxnError::Durability)
            }
        }
    }

    fn rollback(self) {
        let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
        let db = self.db;
        match self.ops {
            TxnOps::Locked(mut l) => {
                let seq = l.ts.txn_seq();
                // Undo in reverse order while still holding all X locks.
                // Every undo appends a compensation record (the inverse
                // operation, same txn id) BEFORE the final Abort: if the
                // Abort reaches the durable log, recovery can restore this
                // loser by pure redo; if the crash lands mid-compensation,
                // the undo pass reverses whatever made it out (its
                // operations are tolerant re-inverses).
                for entry in l.undo.drain(..).rev() {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    match entry {
                        UndoEntry::Update { table, rid, before } => {
                            let t = db.table(table);
                            if let Some(dirty) = t.heap.update(rid, before.clone()) {
                                db.log.append(LogRecord::update(
                                    seq, table.0, rid.page, rid.slot, &dirty, &before,
                                ));
                            }
                        }
                        UndoEntry::Insert {
                            table,
                            rid,
                            key,
                            ordered_key,
                        } => {
                            let t = db.table(table);
                            let gone = t.heap.delete(rid);
                            t.primary.remove(key);
                            if let Some(ok) = ordered_key {
                                t.ordered.remove(ok);
                            }
                            if let Some(data) = gone {
                                db.log.append(LogRecord::delete(
                                    seq,
                                    table.0,
                                    rid.page,
                                    rid.slot,
                                    key,
                                    ordered_key,
                                    &data,
                                ));
                            }
                        }
                        UndoEntry::Delete {
                            table,
                            rid,
                            before,
                            key,
                            ordered_key,
                        } => {
                            let t = db.table(table);
                            t.heap.restore(rid, before.clone());
                            t.primary.insert(key, rid);
                            if let Some(ok) = ordered_key {
                                t.ordered.insert(ok, rid);
                            }
                            db.log.append(LogRecord::insert(
                                seq,
                                table.0,
                                rid.page,
                                rid.slot,
                                key,
                                ordered_key,
                                &before,
                            ));
                        }
                    }
                }
                if l.wrote {
                    db.log.abort(seq);
                }
                db.lockmgr.end_txn(l.ts, l.agent, false);
            }
            TxnOps::Mvcc(m) => {
                // Nothing was logged and nothing published: drop the
                // provisional versions and reclaim the heap rows of own
                // inserts (never visible to anyone else).
                let token = m.txn.token();
                m.store.discard(m.txn.written_rids(), token);
                {
                    let _s = sli_profiler::enter(Category::Work(Component::Storage));
                    for (tid, rid) in m.txn.inserted_rids() {
                        if let Some(t) = db.table_by_id(tid) {
                            t.heap.delete(rid);
                        }
                    }
                }
                m.store.end(m.txn.slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::db::DatabaseConfig;

    fn db() -> Arc<Database> {
        Database::open(DatabaseConfig::with_policy(sli_core::PolicyKind::PaperSli).in_memory())
    }

    fn mvcc_db() -> Arc<Database> {
        Database::open(
            DatabaseConfig::default()
                .backend(BackendKind::Mvcc)
                .in_memory(),
        )
    }

    #[test]
    fn insert_read_update_delete_roundtrip() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"one")?;
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"one");
                txn.update_by_key(t, 1, |_| b"ONE".to_vec())?;
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"ONE");
                txn.delete_by_key(t, 1, None)?;
                assert_eq!(txn.read_by_key(t, 1), Err(TxnError::NotFound));
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn user_abort_rolls_back_everything() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"keep")?;
                Ok(())
            })
            .unwrap();

            let r: Result<(), TxnError> = s.run(|txn| {
                txn.update_by_key(t, 1, |_| b"dirty".to_vec())?;
                txn.insert(t, 2, b"phantom")?;
                txn.delete_by_key(t, 1, None)?;
                Err(txn.user_abort("validation failed"))
            });
            assert_eq!(r, Err(TxnError::UserAbort("validation failed")));
            // All three writes undone.
            db.quiesce();
            assert_eq!(&db.peek(t, 1).unwrap()[..], b"keep");
            assert!(db.peek(t, 2).is_none());
            assert_eq!(db.record_count(t), 1);
        }
    }

    #[test]
    fn commit_forces_the_log() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"x")?;
                Ok(())
            })
            .unwrap();
            let stats = db.log_stats();
            assert!(stats.appends >= 2, "begin + insert + commit records");
            assert!(stats.flushes >= 1);
            assert!(db.log.durable_lsn() > 0);
        }
    }

    #[test]
    fn read_only_txns_skip_the_log() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            db.bulk_insert(t, 1, None, b"x");
            let s = db.session();
            s.run(|txn| {
                txn.read_by_key(t, 1)?;
                Ok(())
            })
            .unwrap();
            assert_eq!(db.log_stats().appends, 0);
            assert_eq!(db.log_stats().flushes, 0);
        }
    }

    #[test]
    fn scan_ordered_visits_range_in_order() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            for k in 0..20u64 {
                db.bulk_insert(t, k, Some(k * 10), &k.to_le_bytes());
            }
            let s = db.session();
            let mut seen = Vec::new();
            s.run(|txn| {
                txn.scan_ordered(t, 50, 120, 100, |k, _| seen.push(k))?;
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, vec![50, 60, 70, 80, 90, 100, 110, 120]);
            seen.clear();
        }
    }

    #[test]
    fn conflicting_writers_serialize_without_lost_updates() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            db.bulk_insert(t, 1, None, &0u64.to_le_bytes());
            let threads = 8;
            let per = 100;
            let mut handles = Vec::new();
            for _ in 0..threads {
                let db = Arc::clone(&db);
                handles.push(std::thread::spawn(move || {
                    let s = db.session();
                    for _ in 0..per {
                        s.run_with_retries(10_000, |txn| {
                            txn.update_by_key(t, 1, |old| {
                                let v = u64::from_le_bytes(old.try_into().unwrap());
                                (v + 1).to_le_bytes().to_vec()
                            })
                        })
                        .unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let v = u64::from_le_bytes(db.peek(t, 1).unwrap()[..].try_into().unwrap());
            assert_eq!(v, threads * per);
        }
    }

    #[test]
    fn eager_release_policy_threads_through_sessions() {
        use sli_core::PolicyKind;
        let db = Database::open(DatabaseConfig::with_policy(PolicyKind::EagerRelease).in_memory());
        assert_eq!(db.policy_name(), "eager-release");
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"r");
        db.bulk_insert(t, 2, None, &0u64.to_le_bytes());
        let s = db.session();
        // A read-write transaction: the read's S record lock is dropped at
        // commit-LSN, the write's X lock is held through the flush.
        s.run(|txn| {
            txn.read_by_key(t, 1)?;
            txn.update_by_key(t, 2, |_| 1u64.to_le_bytes().to_vec())?;
            Ok(())
        })
        .unwrap();
        let stats = db.lock_stats();
        assert_eq!(stats.early_released, 1);
        assert_eq!(stats.sli_inherited, 0);
        assert_eq!(s.inherited_locks(), 0);
        assert_eq!(&db.peek(t, 2).unwrap()[..], &1u64.to_le_bytes());
    }

    #[test]
    fn sessions_inherit_locks_across_transactions() {
        // Inheritance needs queued acquisitions: grant-word fast path off.
        let mut cfg = DatabaseConfig::with_policy(sli_core::PolicyKind::PaperSli).in_memory();
        cfg.lock.fastpath = sli_core::FastPathConfig::disabled();
        let db = Database::open(cfg);
        let t = db.create_table("t").unwrap();
        for k in 0..100u64 {
            db.bulk_insert(t, k, None, b"v");
        }
        let s = db.session();
        // Heat the high-level locks artificially while they are held (a
        // single-session test can't generate real latch contention); the
        // commit's candidate selection then sees them as hot.
        let db2 = Arc::clone(&db);
        s.run(|txn| {
            txn.read_by_key(t, 2)?;
            for id in [LockId::Database, LockId::Table(t.table_id())] {
                let head = db2.lockmgr.head(id).expect("lock held, head exists");
                for _ in 0..16 {
                    head.hot().record(true);
                }
            }
            Ok(())
        })
        .unwrap();
        assert!(
            s.inherited_locks() >= 2,
            "db and table locks should be inherited, got {}",
            s.inherited_locks()
        );
        let before = db.lock_stats();
        s.run(|txn| {
            txn.read_by_key(t, 3)?;
            Ok(())
        })
        .unwrap();
        let after = db.lock_stats();
        assert!(after.sli_reclaimed > before.sli_reclaimed);
    }

    #[test]
    fn mvcc_snapshot_reads_ignore_later_commits() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"old");
        let reader = db.session();
        let writer = db.session();
        // Interleave: the reader's snapshot is taken, then a writer
        // commits, then the reader re-reads — and must still see "old".
        let inner: Result<(), TxnError> = reader.run(|txn| {
            assert_eq!(&txn.read_by_key(t, 1)?[..], b"old");
            writer.run(|w| {
                w.update_by_key(t, 1, |_| b"new".to_vec())?;
                Ok(())
            })?;
            assert_eq!(
                &txn.read_by_key(t, 1)?[..],
                b"old",
                "snapshot must not see the later commit"
            );
            Ok(())
        });
        inner.unwrap();
        // A fresh snapshot sees the new value.
        reader
            .run(|txn| {
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"new");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn mvcc_stale_read_write_fails_validation() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, &0u64.to_le_bytes());
        db.bulk_insert(t, 2, None, &0u64.to_le_bytes());
        let a = db.session();
        let b = db.session();
        // a reads record 1 then writes record 2; b updates record 1 and
        // commits in between. a's backward validation must fail.
        let r: Result<(), TxnError> = a.run(|txn| {
            txn.read_by_key(t, 1)?;
            b.run(|w| {
                w.update_by_key(t, 1, |_| 7u64.to_le_bytes().to_vec())?;
                Ok(())
            })?;
            txn.update_by_key(t, 2, |_| 9u64.to_le_bytes().to_vec())?;
            Ok(())
        });
        assert!(
            matches!(r, Err(TxnError::Validation(_))),
            "expected a validation abort, got {r:?}"
        );
        assert!(r.unwrap_err().is_retryable());
        // The failed writer's provisional on record 2 is gone.
        assert_eq!(&db.peek(t, 2).unwrap()[..], &0u64.to_le_bytes());
        let stats = db.mvcc_stats().unwrap();
        assert!(stats.validation_aborts >= 1);
    }

    #[test]
    fn mvcc_never_touches_the_lock_manager() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"x");
        let s = db.session();
        s.run(|txn| {
            txn.lock_table(t, LockMode::S)?;
            txn.read_by_key(t, 1)?;
            txn.update_by_key(t, 1, |_| b"y".to_vec())?;
            Ok(())
        })
        .unwrap();
        let stats = db.lock_stats();
        assert_eq!(stats.lock_requests, 0, "no lock-manager traffic on mvcc");
        assert_eq!(stats.fastpath_granted, 0);
    }
}
