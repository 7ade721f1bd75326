//! Per-record version chains for the MVCC backend.
//!
//! A [`VersionChain`] is the multiversion overlay for one heap record
//! (one [`Rid`]): a newest-first list of committed [`Version`]s plus at
//! most one *provisional* version owned by an uncommitted writer, per
//! Larson et al., *High-Performance Concurrency Control Mechanisms for
//! Main-Memory Databases* (arXiv 1201.0228). The chain is a pure data
//! structure — all synchronization (shard latches, the timestamp
//! allocator, the active-snapshot registry) lives in `sli-mvcc`, which
//! keeps visibility resolution a *pure function* of `(chain, read_ts)`
//! and therefore directly property-testable.
//!
//! Timestamp conventions:
//!
//! - [`BASE_TS`] (0) marks the *base* version: the value the heap held
//!   before the record ever had a chain. It is visible to every
//!   snapshot.
//! - A committed version's `begin` is its writer's commit timestamp;
//!   commit timestamps are allocated from 2 upward, so they never
//!   collide with [`BASE_TS`].
//! - [`NOTHING_SEEN`] (`u64::MAX`) is the read-set identity recorded
//!   when a chain exists but *no* version is visible at the reader's
//!   snapshot (a record inserted after the snapshot was taken). It can
//!   never equal a real `begin`, so validation treats "saw nothing" and
//!   "saw the base" as distinct observations.

use bytes::Bytes;

/// The `begin` timestamp of the base (pre-chain heap) version.
pub const BASE_TS: u64 = 0;

/// Read-set identity for "chain present, nothing visible".
pub const NOTHING_SEEN: u64 = u64::MAX;

/// One committed version of a record. `data == None` is a tombstone:
/// the record was deleted at `begin` and is invisible from then on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp of the writer that installed this version
    /// ([`BASE_TS`] for the pre-chain heap value).
    pub begin: u64,
    /// Record bytes, or `None` for a delete tombstone.
    pub data: Option<Bytes>,
}

/// An uncommitted version installed by a running writer. At most one
/// exists per chain (first-writer-wins: a second writer aborts instead
/// of queueing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provisional {
    /// Owner token (the writing session's agent slot + 1 in `sli-mvcc`;
    /// this crate only compares it for equality).
    pub owner: u64,
    /// Proposed record bytes, or `None` for a provisional delete.
    pub data: Option<Bytes>,
}

/// What a snapshot read resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// The bytes visible at the snapshot (`None`: record invisible —
    /// tombstoned at or before the snapshot, or inserted after it).
    pub data: Option<Bytes>,
    /// Identity of the observed version for commit-time validation:
    /// the version's `begin`, or [`NOTHING_SEEN`].
    pub seen: u64,
}

/// The multiversion overlay for one record.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    /// The uncommitted write, if any.
    pub provisional: Option<Provisional>,
    /// Committed versions, newest first (strictly decreasing `begin`).
    pub committed: Vec<Version>,
}

impl VersionChain {
    /// Chain seeded from the pre-chain heap value (`base = None` models
    /// a record that did not exist before: an insert's chain).
    pub fn with_base(base: Option<Bytes>) -> Self {
        VersionChain {
            provisional: None,
            committed: match base {
                Some(data) => vec![Version {
                    begin: BASE_TS,
                    data: Some(data),
                }],
                None => Vec::new(),
            },
        }
    }

    /// The newest committed version visible at `read_ts`: the first
    /// entry with `begin <= read_ts`. Pure function of `(self, read_ts)`.
    pub fn visible_at(&self, read_ts: u64) -> Observation {
        let (data, seen) = self.visible_ref(read_ts);
        Observation {
            data: data.cloned(),
            seen,
        }
    }

    /// [`VersionChain::visible_at`] by reference: the visible bytes
    /// (`None`: invisible) and the observed identity, without cloning.
    pub fn visible_ref(&self, read_ts: u64) -> (Option<&Bytes>, u64) {
        match self.committed.iter().find(|v| v.begin <= read_ts) {
            Some(v) => (v.data.as_ref(), v.begin),
            None => (None, NOTHING_SEEN),
        }
    }

    /// Identity of the newest committed version (what a commit-time
    /// validation compares against a read-set entry's `seen`).
    pub fn newest_identity(&self) -> u64 {
        self.committed
            .first()
            .map(|v| v.begin)
            .unwrap_or(NOTHING_SEEN)
    }

    /// Flip this chain's provisional version (which must be owned by
    /// `owner`) into the newest committed version at `commit_ts`.
    /// Returns false (and changes nothing) if no such provisional is
    /// present — the caller already flipped this chain for another write
    /// of the same transaction.
    pub fn install(&mut self, owner: u64, commit_ts: u64) -> bool {
        match &self.provisional {
            Some(p) if p.owner == owner => {
                let data = self.provisional.take().expect("matched Some").data;
                debug_assert!(
                    self.newest_identity() == NOTHING_SEEN || self.committed[0].begin < commit_ts
                );
                self.committed.insert(
                    0,
                    Version {
                        begin: commit_ts,
                        data,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// Drop this chain's provisional version if `owner` holds it.
    /// Returns true if the chain is now empty and should be removed
    /// from the map (an aborted insert's chain).
    pub fn discard(&mut self, owner: u64) -> bool {
        if matches!(&self.provisional, Some(p) if p.owner == owner) {
            self.provisional = None;
        }
        self.provisional.is_none() && self.committed.is_empty()
    }

    /// Prune committed versions shadowed by a newer committed version
    /// that every active snapshot can already see (`begin <=
    /// watermark`). The newest committed version is never pruned.
    /// Returns the number of versions dropped.
    pub fn prune(&mut self, watermark: u64) -> usize {
        for i in 1..self.committed.len() {
            if self.committed[i - 1].begin <= watermark {
                let dropped = self.committed.len() - i;
                self.committed.truncate(i);
                return dropped;
            }
        }
        0
    }

    /// True when the chain can be dropped entirely with the heap as the
    /// single remaining copy: no provisional in flight. (The `sli-mvcc`
    /// GC additionally requires that *no* snapshot is active, because a
    /// collapse changes the `newest_identity` a validating transaction
    /// would recompute.)
    pub fn collapsible(&self) -> bool {
        self.provisional.is_none()
    }

    /// True when the newest committed version is a delete tombstone —
    /// collapsing such a chain must also delete the heap record.
    pub fn ends_in_tombstone(&self) -> bool {
        matches!(self.committed.first(), Some(v) if v.data.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn chain(begins: &[(u64, Option<&str>)]) -> VersionChain {
        VersionChain {
            provisional: None,
            committed: begins
                .iter()
                .map(|(ts, d)| Version {
                    begin: *ts,
                    data: d.map(b),
                })
                .collect(),
        }
    }

    #[test]
    fn visibility_picks_newest_at_or_below_snapshot() {
        let c = chain(&[(9, Some("v9")), (5, Some("v5")), (0, Some("base"))]);
        assert_eq!(c.visible_at(4).data.unwrap(), b("base"));
        assert_eq!(c.visible_at(5).data.unwrap(), b("v5"));
        assert_eq!(c.visible_at(8).seen, 5);
        assert_eq!(c.visible_at(9).seen, 9);
        assert_eq!(c.visible_at(u64::MAX - 1).data.unwrap(), b("v9"));
    }

    #[test]
    fn fresh_insert_is_invisible_to_older_snapshots() {
        let c = chain(&[(7, Some("new"))]);
        let obs = c.visible_at(6);
        assert_eq!(obs.data, None);
        assert_eq!(obs.seen, NOTHING_SEEN);
        assert_eq!(c.visible_at(7).seen, 7);
    }

    #[test]
    fn tombstone_is_visible_nothing_with_identity() {
        let c = chain(&[(7, None), (0, Some("base"))]);
        let obs = c.visible_at(8);
        assert_eq!(obs.data, None);
        assert_eq!(obs.seen, 7, "a tombstone read has the tombstone's identity");
        assert!(c.ends_in_tombstone());
    }

    #[test]
    fn install_flips_provisional_to_front() {
        let mut c = VersionChain::with_base(Some(b("base")));
        c.provisional = Some(Provisional {
            owner: 3,
            data: Some(b("new")),
        });
        assert!(!c.install(4, 9), "wrong owner must not flip");
        assert!(c.install(3, 9));
        assert_eq!(c.newest_identity(), 9);
        assert_eq!(c.visible_at(9).data.unwrap(), b("new"));
        assert_eq!(c.visible_at(8).data.unwrap(), b("base"));
        assert!(!c.install(3, 10), "second flip is a no-op");
    }

    #[test]
    fn discard_reports_empty_chains() {
        let mut c = VersionChain::with_base(None);
        c.provisional = Some(Provisional {
            owner: 1,
            data: Some(b("x")),
        });
        assert!(c.discard(1), "aborted insert leaves an empty chain");
        let mut c2 = VersionChain::with_base(Some(b("base")));
        c2.provisional = Some(Provisional {
            owner: 1,
            data: None,
        });
        assert!(!c2.discard(1), "base version keeps the chain alive");
    }

    #[test]
    fn prune_keeps_everything_any_snapshot_needs() {
        let mut c = chain(&[
            (9, Some("v9")),
            (5, Some("v5")),
            (3, Some("v3")),
            (0, Some("base")),
        ]);
        // watermark 4: v3 is visible to every snapshot (begin 3 <= 4), so
        // only the base below it is dead; v5 and v9 may be needed later.
        assert_eq!(c.prune(4), 1);
        assert_eq!(c.visible_at(4).seen, 3);
        // watermark 5: v5 is visible to every active snapshot, so v3 and
        // base are dead.
        let mut c2 = chain(&[
            (9, Some("v9")),
            (5, Some("v5")),
            (3, Some("v3")),
            (0, Some("base")),
        ]);
        assert_eq!(c2.prune(5), 2);
        assert_eq!(c2.committed.len(), 2);
        assert_eq!(c2.visible_at(5).seen, 5);
        // The newest version survives even a max watermark.
        let mut c3 = chain(&[(9, Some("v9")), (5, Some("v5"))]);
        assert_eq!(c3.prune(u64::MAX), 1);
        assert_eq!(c3.newest_identity(), 9);
    }
}
