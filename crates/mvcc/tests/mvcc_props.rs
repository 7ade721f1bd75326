//! Property tests for the MVCC backend (ROADMAP item 4 acceptance):
//!
//! 1. **Visibility purity** — `VersionChain::visible_at` is a pure
//!    function of `(chain, read_ts)` that matches a brute-force oracle
//!    and ignores provisional state.
//! 2. **GC safety** — pruning at any watermark never changes what a
//!    snapshot at or above that watermark observes (chain level), and a
//!    live `prune_pass` never changes a registered reader's view (store
//!    level).
//! 3. **Serial-oracle equivalence** — randomized interleaved histories
//!    of read/write/delete transactions through the full
//!    begin/read/write/validate/install protocol commit exactly the
//!    serializable outcomes: every committed transaction saw the serial
//!    state at its snapshot, and the final store state equals a serial
//!    replay of the committed transactions in commit-timestamp order.
//! 4. **Targeted GC** — a `prune_pass`, which visits only the chains on
//!    each shard's prunable list, prunes exactly what a walk over every
//!    chain would, across commits, pinned snapshots, and collapses.

#![recursion_limit = "1024"]

use std::collections::HashMap;

use bytes::Bytes;
use proptest::prelude::*;
use sli_mvcc::{MvccConfig, MvccStore, ReadEntry, Visible};
use sli_storage::{Observation, Provisional, Rid, Version, VersionChain, BASE_TS, NOTHING_SEEN};

const TABLE: u32 = 1;

fn rid(k: usize) -> Rid {
    Rid::new(k as u32, 0)
}

fn bytes(s: String) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

// ---------------------------------------------------------------------------
// Chain-level properties
// ---------------------------------------------------------------------------

/// An arbitrary well-formed chain: strictly decreasing `begin`s, each
/// version either data or a tombstone (bit-picked from `seed`), with an
/// optional base version at [`BASE_TS`].
fn arb_chain() -> impl Strategy<Value = VersionChain> {
    (
        prop::collection::vec(1u64..40, 0..6),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(mut begins, with_base, seed)| {
            // Newest-first, no duplicates: the chain invariant.
            begins.sort_unstable_by(|a, b| b.cmp(a));
            begins.dedup();
            let mut committed: Vec<Version> = begins
                .into_iter()
                .enumerate()
                .map(|(i, begin)| Version {
                    begin,
                    data: if (seed >> i) & 1 == 1 {
                        None
                    } else {
                        Some(bytes(format!("v{begin}")))
                    },
                })
                .collect();
            if with_base {
                committed.push(Version {
                    begin: BASE_TS,
                    data: Some(bytes("base".into())),
                });
            }
            VersionChain {
                provisional: None,
                committed,
            }
        })
}

/// Brute-force visibility: the maximum-`begin` version at or below the
/// snapshot, independent of storage order.
fn visibility_oracle(chain: &VersionChain, read_ts: u64) -> Observation {
    chain
        .committed
        .iter()
        .filter(|v| v.begin <= read_ts)
        .max_by_key(|v| v.begin)
        .map(|v| Observation {
            data: v.data.clone(),
            seen: v.begin,
        })
        .unwrap_or(Observation {
            data: None,
            seen: NOTHING_SEEN,
        })
}

proptest! {
    /// Property 1: visibility is pure and matches the oracle, with or
    /// without a provisional riding on the chain.
    #[test]
    fn visibility_is_a_pure_function_of_chain_and_snapshot(
        chain in arb_chain(),
        read_ts in 0u64..45,
        owner in 1u64..5,
    ) {
        let mut chain = chain;
        let expect = visibility_oracle(&chain, read_ts);
        prop_assert_eq!(chain.visible_at(read_ts), expect.clone());
        // Purity: asking again changes nothing.
        prop_assert_eq!(chain.visible_at(read_ts), expect.clone());
        // Uncommitted writes are invisible to `visible_at`.
        chain.provisional = Some(Provisional {
            owner,
            data: Some(bytes("uncommitted".into())),
        });
        prop_assert_eq!(chain.visible_at(read_ts), expect);
    }

    /// Property 2a (chain level): pruning at `watermark` preserves the
    /// observation of every snapshot at or above the watermark — the
    /// only snapshots that can still exist — and never touches the
    /// newest version's identity (what validation recomputes).
    #[test]
    fn prune_preserves_every_reachable_snapshot(
        chain in arb_chain(),
        watermark in 0u64..45,
    ) {
        let mut chain = chain;
        let newest = chain.newest_identity();
        let before: Vec<Observation> =
            (watermark..46).map(|ts| chain.visible_at(ts)).collect();
        chain.prune(watermark);
        prop_assert_eq!(chain.newest_identity(), newest);
        for (i, ts) in (watermark..46).enumerate() {
            prop_assert_eq!(chain.visible_at(ts), before[i].clone(), "ts {}", ts);
        }
    }
}

// ---------------------------------------------------------------------------
// Store-level serial-oracle equivalence
// ---------------------------------------------------------------------------

/// One step of a generated transaction.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize),
    Delete(usize),
}

fn arb_op(keys: usize) -> impl Strategy<Value = Op> {
    (0..3u8, 0..keys).prop_map(|(kind, k)| match kind {
        0 => Op::Read(k),
        1 => Op::Write(k),
        _ => Op::Delete(k),
    })
}

/// Oracle state: key → current value (`None` = deleted).
type State = HashMap<usize, Option<Bytes>>;

/// A driver-side transaction mirroring the engine's `MvccOps` rules
/// exactly: own-write overlay first, reads enter the read set, a write
/// conflict aborts the whole transaction, writes/deletes on records the
/// snapshot (or the own overlay) says are gone are skipped.
struct TxnState {
    slot: u32,
    read_ts: u64,
    reads: Vec<ReadEntry>,
    /// Snapshot reads that went to the store (key, data). Reads served
    /// by the own-write overlay are correct by construction and are not
    /// recorded; a store read can only happen *before* the transaction's
    /// first write of that key, so each entry must equal the serial
    /// state at `read_ts`.
    observed: Vec<(usize, Option<Bytes>)>,
    own: HashMap<usize, Option<Bytes>>,
    done: bool,
    aborted: bool,
}

impl TxnState {
    fn token(&self) -> u64 {
        self.slot as u64 + 1
    }

    fn written_rids(&self) -> Vec<(u32, Rid)> {
        self.own.keys().map(|&k| (TABLE, rid(k))).collect()
    }
}

fn base_value(k: usize) -> Bytes {
    bytes(format!("base{k}"))
}

/// `MvccStore::read` of key `k` over a heap that still holds its base
/// value, cloning what the snapshot sees.
fn read(store: &MvccStore, k: usize, read_ts: u64, token: u64) -> Observation {
    let (data, seen) = store.read(TABLE, rid(k), read_ts, token, |v| match v {
        Visible::Chain(d) => d.cloned(),
        Visible::Heap => Some(base_value(k)),
    });
    Observation { data, seen }
}

/// Property 3's executor: run `txns` (each a list of ops) through the
/// store under `schedule`'s interleaving, committing each transaction
/// when its ops run out. Returns `(committed: Vec<(commit_ts, slot)>,
/// per-txn states, store)`.
fn run_history(
    txns: &[Vec<Op>],
    schedule: &[usize],
) -> (Vec<(u64, usize)>, Vec<TxnState>, MvccStore) {
    let store = MvccStore::new(txns.len() + 1, MvccConfig::default());
    let mut states: Vec<TxnState> = (0..txns.len())
        .map(|i| TxnState {
            slot: i as u32,
            read_ts: 0,
            reads: Vec::new(),
            observed: Vec::new(),
            own: HashMap::new(),
            done: false,
            aborted: false,
        })
        .collect();
    let mut started = vec![false; txns.len()];
    let mut next_op = vec![0usize; txns.len()];
    let mut committed: Vec<(u64, usize)> = Vec::new();

    // The generated schedule first, then finish stragglers in order.
    let full: Vec<usize> = schedule
        .iter()
        .copied()
        .chain((0..txns.len()).flat_map(|i| std::iter::repeat_n(i, txns[i].len() + 1)))
        .collect();

    for &ti in &full {
        let t = &mut states[ti];
        if t.done {
            continue;
        }
        if !started[ti] {
            t.read_ts = store.begin(t.slot);
            started[ti] = true;
        }
        let token = t.token();
        if next_op[ti] == txns[ti].len() {
            // Commit attempt.
            if t.own.is_empty() {
                store.end(t.slot);
                t.done = true;
                continue;
            }
            let cts = store.prepare_commit(t.slot);
            match store.validate(&t.reads, token) {
                Ok(()) => {
                    store.install(t.written_rids().into_iter(), token, cts);
                    store.finish_commit(t.slot);
                    store.end(t.slot);
                    committed.push((cts, ti));
                }
                Err(_) => {
                    store.discard(t.written_rids().into_iter(), token);
                    store.finish_commit(t.slot);
                    store.end(t.slot);
                    t.aborted = true;
                }
            }
            t.done = true;
            continue;
        }
        let op = txns[ti][next_op[ti]];
        next_op[ti] += 1;
        match op {
            Op::Read(k) => {
                if t.own.contains_key(&k) {
                    // Own-write overlay: sees the pending value, no
                    // read-set entry (matches the engine's MvccOps) —
                    // correct by construction, nothing to record.
                } else {
                    let obs = read(&store, k, t.read_ts, token);
                    t.reads.push(ReadEntry {
                        table: TABLE,
                        rid: rid(k),
                        seen: obs.seen,
                    });
                    t.observed.push((k, obs.data));
                }
            }
            Op::Write(k) | Op::Delete(k) => {
                let data = match op {
                    Op::Write(_) => Some(bytes(format!("t{ti}o{}", next_op[ti]))),
                    _ => None,
                };
                if matches!(t.own.get(&k), Some(None)) {
                    continue; // own delete: the record is gone for us
                }
                match store.write(TABLE, rid(k), t.read_ts, token, data.clone(), || {
                    Some(base_value(k))
                }) {
                    Ok(_) => {
                        t.own.insert(k, data);
                    }
                    Err(sli_mvcc::WriteError::NotFound) => {}
                    Err(sli_mvcc::WriteError::Conflict(_)) => {
                        // First-writer/first-committer-wins: the whole
                        // transaction aborts, like TxnError::Validation.
                        store.discard(t.written_rids().into_iter(), token);
                        store.end(t.slot);
                        t.aborted = true;
                        t.done = true;
                    }
                }
            }
        }
    }
    (committed, states, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 3: interleaved OCC histories are equivalent to a serial
    /// execution of the committed transactions in commit order.
    #[test]
    fn interleaved_histories_match_a_serial_oracle(
        txns in prop::collection::vec(
            prop::collection::vec(arb_op(4), 1..8), 1..5),
        schedule in prop::collection::vec(0..5usize, 0..64),
    ) {
        let keys = 4;
        let schedule: Vec<usize> =
            schedule.into_iter().map(|s| s % txns.len()).collect();
        let (committed, states, store) = run_history(&txns, &schedule);

        // Serial replay: start from the base state, apply each committed
        // transaction's final write set in commit-timestamp order.
        let base: State = (0..keys).map(|k| (k, Some(base_value(k)))).collect();
        let mut history: Vec<(u64, State)> = vec![(0, base)];
        let mut order = committed.clone();
        order.sort_unstable();
        for &(cts, ti) in &order {
            let mut next = history.last().unwrap().1.clone();
            for (&k, v) in &states[ti].own {
                next.insert(k, v.clone());
            }
            history.push((cts, next));
        }
        let state_at = |ts: u64| -> &State {
            &history.iter().rev().find(|(t, _)| *t <= ts).unwrap().1
        };

        // Every successfully finished transaction's snapshot reads match
        // the serial state at its snapshot. (A store read happens only
        // before the transaction's own first write of that key, so the
        // serial snapshot state is exactly what it must have seen.)
        for (ti, t) in states.iter().enumerate() {
            // Every non-aborted transaction finished as either a commit
            // or a read-only; both have serializable snapshots.
            if t.aborted {
                continue;
            }
            let snap = state_at(t.read_ts);
            for (i, (k, seen)) in t.observed.iter().enumerate() {
                prop_assert_eq!(
                    seen, &snap[k],
                    "txn {} read #{} of key {} diverges from serial state at ts {}",
                    ti, i, k, t.read_ts
                );
            }
        }

        // Final state: a fresh snapshot reads exactly the serial result.
        let final_ts = store.begin(txns.len() as u32);
        let final_token = txns.len() as u64 + 1;
        let expect = state_at(final_ts).clone();
        for k in 0..keys {
            let obs = read(&store, k, final_ts, final_token);
            prop_assert_eq!(
                &obs.data, &expect[&k],
                "final state of key {} diverges from serial replay", k
            );
        }
        store.end(txns.len() as u32);

        // Accounting: every generated transaction either committed,
        // aborted, or was read-only.
        prop_assert_eq!(committed.len(), order.len());
        for (ti, t) in states.iter().enumerate() {
            prop_assert!(t.done, "txn {} never finished", ti);
        }
    }

    /// Property 2b (store level): an online `prune_pass` with a reader
    /// registered never changes that reader's view — the watermark
    /// protects every version the reader can still reach — and never
    /// removes whole chains.
    #[test]
    fn online_prune_never_moves_a_registered_reader(
        txns in prop::collection::vec(
            prop::collection::vec(arb_op(4), 1..8), 1..5),
        schedule in prop::collection::vec(0..5usize, 0..48),
    ) {
        let keys = 4;
        let schedule: Vec<usize> =
            schedule.into_iter().map(|s| s % txns.len()).collect();
        let (_, _, store) = run_history(&txns, &schedule);

        // Register a reader, snapshot its view, prune, re-read.
        let slot = txns.len() as u32;
        let token = slot as u64 + 1;
        let read_ts = store.begin(slot);
        let before: Vec<Option<Bytes>> = (0..keys)
            .map(|k| read(&store, k, read_ts, token).data)
            .collect();
        let chains = store.chain_count();
        store.prune_pass();
        prop_assert_eq!(store.chain_count(), chains, "prune_pass removed a chain");
        for (k, expect) in before.iter().enumerate() {
            let after = read(&store, k, read_ts, token).data;
            prop_assert_eq!(&after, expect, "prune changed key {} under a live reader", k);
        }
        store.end(slot);
    }
}

// ---------------------------------------------------------------------------
// Targeted GC equals a full walk
// ---------------------------------------------------------------------------

/// One step of a GC history: a single-writer commit of updates
/// (`true`) or deletes (`false`) on keys, a snapshot pinned or
/// released on its own slot, an online prune, or an offline GC.
#[derive(Clone, Debug)]
enum GcStep {
    Commit(Vec<(usize, bool)>),
    Pin,
    Unpin,
    Prune,
    Gc,
}

fn arb_gc_step(keys: usize) -> impl Strategy<Value = GcStep> {
    (0..9u8, prop::collection::vec((0..keys, 0..5u8), 1..4)).prop_map(|(kind, ops)| match kind {
        // One write in five is a delete.
        0..=3 => GcStep::Commit(ops.into_iter().map(|(k, d)| (k, d != 0)).collect()),
        4 => GcStep::Pin,
        5 => GcStep::Unpin,
        6 | 7 => GcStep::Prune,
        _ => GcStep::Gc,
    })
}

/// Every chain's committed versions, sorted by key: what pruning acts on.
fn committed_by_key(store: &MvccStore) -> Vec<((u32, Rid), Vec<Version>)> {
    let mut chains: Vec<_> = store
        .chains()
        .into_iter()
        .map(|(key, chain)| (key, chain.committed))
        .collect();
    chains.sort_by_key(|(key, _)| *key);
    chains
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 4: after every prune — online, or the prune an offline
    /// GC falls back to under a pinned snapshot — the store holds
    /// exactly the chains a walk over every chain would leave, and
    /// counts exactly the versions that walk drops.
    #[test]
    fn targeted_prune_matches_a_full_walk(
        steps in prop::collection::vec(arb_gc_step(6), 1..40),
    ) {
        let store = MvccStore::new(2, MvccConfig::default());
        let (writer, pin) = (0u32, 1u32);
        let mut pinned = false;
        for (i, step) in steps.iter().enumerate() {
            match step {
                GcStep::Commit(ops) => {
                    let ts = store.begin(writer);
                    let token = writer as u64 + 1;
                    let mut wrote = Vec::new();
                    for &(k, update) in ops {
                        let data = update.then(|| bytes(format!("s{i}k{k}")));
                        if store
                            .write(TABLE, rid(k), ts, token, data, || Some(base_value(k)))
                            .is_ok()
                        {
                            wrote.push((TABLE, rid(k)));
                        }
                    }
                    let cts = store.prepare_commit(writer);
                    store.install(wrote.into_iter(), token, cts);
                    store.finish_commit(writer);
                    store.end(writer);
                }
                GcStep::Pin if !pinned => {
                    store.begin(pin);
                    pinned = true;
                }
                GcStep::Unpin if pinned => {
                    store.end(pin);
                    pinned = false;
                }
                GcStep::Pin | GcStep::Unpin => {}
                GcStep::Prune | GcStep::Gc => {
                    let watermark = store.watermark().unwrap_or_else(|| store.current_ts());
                    let mut expect = committed_by_key(&store);
                    let mut dropped = 0u64;
                    for (_, versions) in &mut expect {
                        let mut chain = VersionChain {
                            provisional: None,
                            committed: std::mem::take(versions),
                        };
                        dropped += chain.prune(watermark) as u64;
                        *versions = chain.committed;
                    }
                    let before = store.stats().versions_pruned;
                    if matches!(step, GcStep::Gc) {
                        store.gc(|_, _| {});
                        if !pinned {
                            // Nothing active: every chain collapsed.
                            prop_assert_eq!(store.chain_count(), 0);
                            continue;
                        }
                    } else {
                        store.prune_pass();
                    }
                    prop_assert_eq!(committed_by_key(&store), expect, "step {}", i);
                    prop_assert_eq!(store.stats().versions_pruned - before, dropped, "step {}", i);
                }
            }
        }
    }
}
