//! Heap tables: growable collections of latched slotted pages.

use std::sync::atomic::{AtomicU32, Ordering};

use bytes::Bytes;
use sli_latch::Latched;
use sli_profiler::Component;

use crate::page::{Rid, SlottedPage, SLOTS_PER_PAGE};

/// A heap table. Pages are individually latched (`Latched<SlottedPage>`),
/// and the page directory grows under a reader-writer latch so readers of
/// existing pages never contend with growth.
pub struct HeapTable {
    /// Page directory: append-only, pages never deallocated. Readers of
    /// existing pages take the directory latch shared; growth takes it
    /// exclusive. Pages are boxed so directory growth moves pointers, not
    /// whole slotted pages.
    #[allow(clippy::vec_box)]
    dir: parking_lot::RwLock<Vec<Box<Latched<SlottedPage>>>>,
    /// Hint: first page that might have free slots.
    insert_hint: AtomicU32,
    live_records: AtomicU32,
}

impl HeapTable {
    /// Create an empty heap.
    pub fn new() -> Self {
        HeapTable {
            dir: parking_lot::RwLock::new(Vec::new()),
            insert_hint: AtomicU32::new(0),
            live_records: AtomicU32::new(0),
        }
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> u32 {
        self.dir.read().len() as u32
    }

    /// Number of live records.
    pub fn record_count(&self) -> u32 {
        // ordering: advisory count; exactness only matters in quiescent
        // tests, where joins order the memory.
        self.live_records.load(Ordering::Relaxed)
    }

    /// Insert a record, returning its RID.
    pub fn insert(&self, data: Bytes) -> Rid {
        loop {
            // ordering: the hint is a best-effort scan cursor — a stale
            // value only costs a longer scan, never correctness.
            let hint = self.insert_hint.load(Ordering::Relaxed);
            {
                let dir = self.dir.read();
                for (i, page) in dir.iter().enumerate().skip(hint as usize) {
                    let mut p = page.lock();
                    if let Some(slot) = p.insert(data.clone()) {
                        // ordering: advisory counter and hint (see above).
                        self.live_records.fetch_add(1, Ordering::Relaxed);
                        if p.is_full() {
                            // ordering: advisory hint (see above).
                            self.insert_hint.fetch_max(i as u32 + 1, Ordering::Relaxed);
                        }
                        return Rid::new(i as u32, slot);
                    }
                }
            }
            // All pages from the hint on are full: grow.
            let mut dir = self.dir.write();
            // Another inserter may have grown while we waited; the loop
            // re-scans from the hint either way.
            dir.push(Box::new(Latched::new(
                Component::Storage,
                SlottedPage::new(),
            )));
        }
    }

    /// Insert at a *specific* RID (undo of a delete, or redo of an insert
    /// during recovery). The page must exist (see [`Self::ensure_page`]).
    /// Overwrites and returns whatever the slot held; idempotent with
    /// respect to the live-record count.
    pub fn restore(&self, rid: Rid, data: Bytes) -> Option<Bytes> {
        let dir = self.dir.read();
        let mut p = dir[rid.page as usize].lock();
        let prev = p.restore(rid.slot, data);
        drop(p);
        if prev.is_none() {
            // ordering: advisory counter and hint (see `insert`).
            self.live_records.fetch_add(1, Ordering::Relaxed);
        }
        self.insert_hint.fetch_min(rid.page, Ordering::Relaxed); // ordering: see above.
        prev
    }

    /// Grow the directory until page `page` exists. Recovery replays
    /// records at the exact RIDs the log recorded; pages must exist
    /// before `restore` can place records on them.
    pub fn ensure_page(&self, page: u32) {
        {
            let dir = self.dir.read();
            if (dir.len() as u32) > page {
                return;
            }
        }
        let mut dir = self.dir.write();
        while (dir.len() as u32) <= page {
            dir.push(Box::new(Latched::new(
                Component::Storage,
                SlottedPage::new(),
            )));
        }
    }

    /// Read the record at `rid`.
    pub fn read(&self, rid: Rid) -> Option<Bytes> {
        self.read_with(rid, |data| data.cloned())
    }

    /// Hand the record at `rid` to `f` by reference, under the page
    /// latch (`None`: no such record).
    pub fn read_with<T>(&self, rid: Rid, f: impl FnOnce(Option<&Bytes>) -> T) -> T {
        let dir = self.dir.read();
        match dir.get(rid.page as usize) {
            Some(page) => f(page.lock().get(rid.slot)),
            None => f(None),
        }
    }

    /// Overwrite the record at `rid`, returning the before image.
    pub fn update(&self, rid: Rid, data: Bytes) -> Option<Bytes> {
        let dir = self.dir.read();
        let page = dir.get(rid.page as usize)?;
        let mut p = page.lock();
        p.update(rid.slot, data)
    }

    /// Delete the record at `rid`, returning the before image.
    pub fn delete(&self, rid: Rid) -> Option<Bytes> {
        let dir = self.dir.read();
        let page = dir.get(rid.page as usize)?;
        let mut p = page.lock();
        let before = p.delete(rid.slot)?;
        drop(p);
        // ordering: advisory counter and hint (see `insert`).
        self.live_records.fetch_sub(1, Ordering::Relaxed);
        self.insert_hint.fetch_min(rid.page, Ordering::Relaxed); // ordering: see above.
        Some(before)
    }

    /// Visit every live record (loader/verification paths; not
    /// transactional).
    pub fn scan(&self, mut visit: impl FnMut(Rid, &Bytes)) {
        let dir = self.dir.read();
        for (i, page) in dir.iter().enumerate() {
            let p = page.lock();
            for (slot, data) in p.iter() {
                visit(Rid::new(i as u32, slot), data);
            }
        }
    }

    /// Expected page of the `n`-th sequentially inserted record (loader
    /// convenience: bulk loads fill pages densely in order).
    pub fn page_of_nth(n: u64) -> u32 {
        (n / SLOTS_PER_PAGE as u64) as u32
    }
}

impl Default for HeapTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HeapTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapTable")
            .field("pages", &self.page_count())
            .field("records", &self.record_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_fill_pages_sequentially() {
        let h = HeapTable::new();
        for i in 0..(SLOTS_PER_PAGE * 2 + 1) {
            let rid = h.insert(Bytes::from(i.to_le_bytes().to_vec()));
            assert_eq!(rid.page, HeapTable::page_of_nth(i as u64));
        }
        assert_eq!(h.page_count(), 3);
        assert_eq!(h.record_count() as usize, SLOTS_PER_PAGE * 2 + 1);
    }

    #[test]
    fn read_update_delete_roundtrip() {
        let h = HeapTable::new();
        let rid = h.insert(Bytes::from_static(b"v1"));
        assert_eq!(&h.read(rid).unwrap()[..], b"v1");
        let before = h.update(rid, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(&before[..], b"v1");
        assert_eq!(&h.read(rid).unwrap()[..], b"v2");
        let before = h.delete(rid).unwrap();
        assert_eq!(&before[..], b"v2");
        assert!(h.read(rid).is_none());
    }

    #[test]
    fn restore_after_delete() {
        let h = HeapTable::new();
        let rid = h.insert(Bytes::from_static(b"v"));
        h.delete(rid).unwrap();
        assert_eq!(h.restore(rid, Bytes::from_static(b"v")), None);
        assert_eq!(&h.read(rid).unwrap()[..], b"v");
        assert_eq!(h.record_count(), 1);
        // Redo idempotence: restoring again overwrites in place and the
        // record count stays exact.
        let prev = h.restore(rid, Bytes::from_static(b"w")).unwrap();
        assert_eq!(&prev[..], b"v");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn ensure_page_grows_to_cover_arbitrary_rids() {
        let h = HeapTable::new();
        assert_eq!(h.page_count(), 0);
        h.ensure_page(3);
        assert_eq!(h.page_count(), 4);
        // Idempotent and never shrinks.
        h.ensure_page(1);
        assert_eq!(h.page_count(), 4);
        // Restore can now place a record at an exact RID on a fresh page.
        let rid = Rid::new(3, 9);
        assert_eq!(h.restore(rid, Bytes::from_static(b"r")), None);
        assert_eq!(&h.read(rid).unwrap()[..], b"r");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn out_of_range_rids_are_none() {
        let h = HeapTable::new();
        assert!(h.read(Rid::new(5, 0)).is_none());
        assert!(h.update(Rid::new(5, 0), Bytes::new()).is_none());
        assert!(h.delete(Rid::new(5, 0)).is_none());
    }

    #[test]
    fn scan_sees_all_records() {
        let h = HeapTable::new();
        let n = SLOTS_PER_PAGE + 7;
        for i in 0..n {
            h.insert(Bytes::from(vec![i as u8]));
        }
        let mut seen = 0;
        h.scan(|_, _| seen += 1);
        assert_eq!(seen, n);
    }

    #[test]
    fn concurrent_inserts_allocate_distinct_rids() {
        let h = std::sync::Arc::new(HeapTable::new());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|i| h.insert(Bytes::from(vec![t, i as u8])))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Rid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate RIDs handed out");
        assert_eq!(h.record_count() as usize, total);
    }
}
