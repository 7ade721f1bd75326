//! The concurrency-backend seam.
//!
//! A [`Database`] routes every transaction through one
//! [`ConcurrencyBackend`]: the default [`LockedBackend`] is the paper's
//! hierarchical lock manager (with SLI), [`MvccBackend`] is the
//! multiversion/optimistic engine from `sli-mvcc` (ROADMAP item 4). The
//! backend decides what a [`crate::Txn`]'s operations do; the `Txn` API
//! itself — and the WAL group-commit pipeline underneath commit — is
//! shared.

use std::sync::Arc;

use sli_mvcc::{MvccConfig, MvccStore};

use crate::db::Database;
use crate::session::{SessionState, Txn, TxnOps};

/// Which concurrency-control engine a database runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Hierarchical two-phase locking through the lock manager (the
    /// paper's engine; SLI and all lock policies apply). The default.
    #[default]
    Locked2pl,
    /// Multiversion storage with optimistic validate-at-commit
    /// execution (`sli-mvcc`). The lock manager is never consulted on
    /// this path.
    Mvcc,
}

impl BackendKind {
    /// Parse a knob value (`SLI_BACKEND`): `locked`/`2pl`/`locked2pl`
    /// or `mvcc`/`occ`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "locked" | "2pl" | "locked2pl" | "locked-2pl" => Some(BackendKind::Locked2pl),
            "mvcc" | "occ" => Some(BackendKind::Mvcc),
            _ => None,
        }
    }

    /// Display name (`locked-2pl` / `mvcc`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Locked2pl => "locked-2pl",
            BackendKind::Mvcc => "mvcc",
        }
    }
}

/// What a concurrency backend must provide. One per database; the
/// per-transaction state lives in [`SessionState`] and the returned
/// [`Txn`].
pub(crate) trait ConcurrencyBackend: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Start a transaction on a session: register it with the backend
    /// and build the `Txn` that routes operations to this backend.
    fn begin_txn<'a>(&'a self, db: &'a Arc<Database>, state: &'a mut SessionState) -> Txn<'a>;

    /// Settle background state while no transaction is running (MVCC:
    /// run a full GC pass so version chains collapse back into the
    /// heap). Used before whole-database comparisons like
    /// `state_hash`.
    fn quiesce(&self, _db: &Database) {}

    /// Recovery finished replaying a log whose transaction ids reach
    /// below `next_txn`: advance any id/timestamp allocator past them.
    fn on_recovered(&self, _next_txn: u64) {}

    /// The MVCC store, when this backend has one.
    fn mvcc_store(&self) -> Option<&Arc<MvccStore>> {
        None
    }
}

/// The lock-manager backend (default).
pub(crate) struct LockedBackend;

impl ConcurrencyBackend for LockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Locked2pl
    }

    fn begin_txn<'a>(&'a self, db: &'a Arc<Database>, state: &'a mut SessionState) -> Txn<'a> {
        let SessionState { agent, ts, .. } = state;
        db.lockmgr.begin(ts, agent);
        Txn::new(db, TxnOps::locked(ts, agent))
    }
}

/// The multiversion/optimistic backend.
pub(crate) struct MvccBackend {
    pub(crate) store: Arc<MvccStore>,
}

impl MvccBackend {
    pub(crate) fn new(max_agents: usize, config: MvccConfig) -> MvccBackend {
        MvccBackend {
            store: Arc::new(MvccStore::new(max_agents, config)),
        }
    }
}

impl ConcurrencyBackend for MvccBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mvcc
    }

    fn begin_txn<'a>(&'a self, db: &'a Arc<Database>, state: &'a mut SessionState) -> Txn<'a> {
        let slot = state.agent.slot();
        let read_ts = self.store.begin(slot);
        state.mvcc.reset(read_ts, slot);
        Txn::new(db, TxnOps::mvcc(&mut state.mvcc, &self.store))
    }

    fn quiesce(&self, db: &Database) {
        // A full pass with no snapshot active collapses every chain;
        // tombstoned chains release their (deferred) heap rows here.
        self.store.gc(|table, rid| {
            if let Some(t) = db.table_by_id(table) {
                t.heap.delete(rid);
            }
        });
    }

    fn on_recovered(&self, next_txn: u64) {
        // Commit timestamps double as WAL transaction ids: keep new
        // ones above everything the replayed log used.
        self.store.advance_ts_floor(next_txn);
    }

    fn mvcc_store(&self) -> Option<&Arc<MvccStore>> {
        Some(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_knob_spellings() {
        assert_eq!(BackendKind::parse("mvcc"), Some(BackendKind::Mvcc));
        assert_eq!(BackendKind::parse("OCC"), Some(BackendKind::Mvcc));
        assert_eq!(BackendKind::parse("locked"), Some(BackendKind::Locked2pl));
        assert_eq!(BackendKind::parse("2pl"), Some(BackendKind::Locked2pl));
        assert_eq!(BackendKind::parse("nope"), None);
        assert_eq!(BackendKind::default(), BackendKind::Locked2pl);
        assert_eq!(BackendKind::Mvcc.name(), "mvcc");
    }
}
