//! Exhaustive interleaving models of the MVCC chain-first snapshot read
//! (`sli_mvcc::MvccStore::read`). The `sli_check` feature makes the
//! store's shard mutexes schedule points (through parking_lot's shim),
//! and the model's heap record sits behind a checker mutex, so every
//! interleaving of a reader's chain probe and heap read with a writer's
//! chain seed, commit flip, and heap apply is explored.
//!
//! The timestamp and snapshot-registry words stay plain atomics: each
//! of their operations is one step here. The models are about the order
//! of shard mutex and heap, not about the commit-preparation protocol.

use std::sync::Arc;

use bytes::Bytes;
use sli_check::sync::Mutex;
use sli_check::{thread, Builder};
use sli_mvcc::{MvccConfig, MvccStore, Visible};
use sli_storage::{Rid, BASE_TS};

const TABLE: u32 = 0;
const ROW: Rid = Rid { page: 0, slot: 0 };
const READER: u32 = 0;
const WRITER: u32 = 1;

fn old() -> Bytes {
    Bytes::from_static(b"old")
}

fn new() -> Bytes {
    Bytes::from_static(b"new")
}

/// A first-time writer of the chainless row, the engine's way: seed the
/// chain from the heap and install a provisional, prepare, flip, then
/// apply the heap effect and leave the preparing state.
fn spawn_writer(store: &Arc<MvccStore>, heap: &Arc<Mutex<Bytes>>) -> thread::JoinHandle<()> {
    let (store, heap) = (Arc::clone(store), Arc::clone(heap));
    thread::spawn(move || {
        let token = WRITER as u64 + 1;
        let ts = store.begin(WRITER);
        store
            .write(TABLE, ROW, ts, token, Some(new()), || {
                Some(heap.lock().clone())
            })
            .expect("no other writer");
        let commit_ts = store.prepare_commit(WRITER);
        store.validate(&[], token).expect("empty read set");
        store.install(std::iter::once((TABLE, ROW)), token, commit_ts);
        *heap.lock() = new();
        store.finish_commit(WRITER);
        store.end(WRITER);
    })
}

/// The chain-first reader, the engine's way: probe the chain and, only
/// when none exists, read the heap inside the `read` callback — under
/// the shard mutex.
fn read_chain_first(store: &MvccStore, heap: &Mutex<Bytes>, read_ts: u64) -> (Option<Bytes>, u64) {
    let token = READER as u64 + 1;
    store.read(TABLE, ROW, read_ts, token, |v| match v {
        Visible::Chain(data) => data.cloned(),
        Visible::Heap => Some(heap.lock().clone()),
    })
}

/// A reader whose snapshot predates the writer's commit returns the old
/// bytes with the base identity in every schedule, and a snapshot taken
/// after the writer finished sees the new bytes.
#[test]
fn chain_first_read_never_sees_a_later_commit() {
    let report = Builder::new().check(|| {
        let store = Arc::new(MvccStore::new(2, MvccConfig::default()));
        let heap = Arc::new(Mutex::new(old()));
        let read_ts = store.begin(READER);
        let writer = spawn_writer(&store, &heap);

        let (data, seen) = read_chain_first(&store, &heap, read_ts);
        assert_eq!(
            data,
            Some(old()),
            "snapshot read returned post-commit bytes"
        );
        assert_eq!(seen, BASE_TS, "the old bytes are the base version");
        store.end(READER);

        writer.join().unwrap();
        let fresh = store.begin(READER);
        assert_eq!(read_chain_first(&store, &heap, fresh).0, Some(new()));
        store.end(READER);
    });
    println!(
        "chain_first_read_never_sees_a_later_commit: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// Seeded bug: the reader learns there is no chain, drops the shard
/// mutex, and only then reads the heap. The writer can seed, commit, and
/// apply in that gap, so the old snapshot returns the new bytes — the
/// model must find that schedule.
#[test]
#[should_panic(expected = "sli-check: model failed")]
fn seeded_heap_read_after_the_probe_fails_the_model() {
    sli_check::model(|| {
        let store = Arc::new(MvccStore::new(2, MvccConfig::default()));
        let heap = Arc::new(Mutex::new(old()));
        let read_ts = store.begin(READER);
        let writer = spawn_writer(&store, &heap);

        let token = READER as u64 + 1;
        let (found, _) = store.read(TABLE, ROW, read_ts, token, |v| match v {
            Visible::Chain(data) => Some(data.cloned()),
            Visible::Heap => None,
        });
        // BUG: the heap is read after `read` released the shard mutex.
        let data = found.unwrap_or_else(|| Some(heap.lock().clone()));
        assert_eq!(
            data,
            Some(old()),
            "snapshot read returned post-commit bytes"
        );
        store.end(READER);
        writer.join().unwrap();
    });
}
