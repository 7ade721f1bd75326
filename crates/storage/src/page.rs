//! Slotted pages and record identifiers.

use bytes::Bytes;

/// Record slots per page. Sized so that tables of a few hundred thousand
/// rows span thousands of pages, giving page-level locks a realistic
/// population.
pub const SLOTS_PER_PAGE: usize = 64;

/// A record identifier: page number plus slot within the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the table.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a RID.
    pub fn new(page: u32, slot: u16) -> Self {
        Rid { page, slot }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// A fixed-slot-count page of variable-length records.
///
/// Real slotted pages manage a byte heap with a slot directory; for this
/// reproduction the interesting property is the page as a *locking and
/// latching granule*, so records are stored as individual `Bytes` values
/// (cheap to clone, shared with the WAL's before/after images).
#[derive(Debug)]
pub struct SlottedPage {
    slots: [Option<Bytes>; SLOTS_PER_PAGE],
    live: u16,
}

impl SlottedPage {
    /// Fresh, empty page.
    pub fn new() -> Self {
        SlottedPage {
            slots: [const { None }; SLOTS_PER_PAGE],
            live: 0,
        }
    }

    /// Number of occupied slots.
    pub fn live(&self) -> u16 {
        self.live
    }

    /// True when no slot is free.
    pub fn is_full(&self) -> bool {
        (self.live as usize) == SLOTS_PER_PAGE
    }

    /// Insert a record, returning its slot, or `None` when full.
    pub fn insert(&mut self, data: Bytes) -> Option<u16> {
        if self.is_full() {
            return None;
        }
        let slot = self.slots.iter().position(|s| s.is_none())?;
        self.slots[slot] = Some(data);
        self.live += 1;
        Some(slot as u16)
    }

    /// Read the record in `slot`.
    pub fn read(&self, slot: u16) -> Option<Bytes> {
        self.get(slot).cloned()
    }

    /// The record in `slot`, by reference.
    pub fn get(&self, slot: u16) -> Option<&Bytes> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Overwrite the record in `slot`, returning the before image.
    /// Fails (returns `None`) when the slot is empty.
    pub fn update(&mut self, slot: u16, data: Bytes) -> Option<Bytes> {
        let cell = self.slots.get_mut(slot as usize)?;
        let before = cell.take()?;
        *cell = Some(data);
        Some(before)
    }

    /// Remove the record in `slot`, returning the before image.
    pub fn delete(&mut self, slot: u16) -> Option<Bytes> {
        let cell = self.slots.get_mut(slot as usize)?;
        let before = cell.take()?;
        self.live -= 1;
        Some(before)
    }

    /// Restore a record into a specific slot (undo of a delete, or redo
    /// of an insert during recovery). Overwrites and returns whatever the
    /// slot held, so callers can keep live-record accounting idempotent.
    pub fn restore(&mut self, slot: u16, data: Bytes) -> Option<Bytes> {
        let cell = &mut self.slots[slot as usize];
        let prev = cell.take();
        if prev.is_none() {
            self.live += 1;
        }
        *cell = Some(data);
        prev
    }

    /// Iterate over `(slot, record)` pairs of occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Bytes)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|b| (i as u16, b)))
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_until_full() {
        let mut p = SlottedPage::new();
        for i in 0..SLOTS_PER_PAGE {
            let slot = p.insert(Bytes::from(vec![i as u8])).unwrap();
            assert_eq!(slot as usize, i);
        }
        assert!(p.is_full());
        assert!(p.insert(Bytes::from_static(b"x")).is_none());
        assert_eq!(p.live() as usize, SLOTS_PER_PAGE);
    }

    #[test]
    fn update_returns_before_image() {
        let mut p = SlottedPage::new();
        let s = p.insert(Bytes::from_static(b"old")).unwrap();
        let before = p.update(s, Bytes::from_static(b"new")).unwrap();
        assert_eq!(&before[..], b"old");
        assert_eq!(&p.read(s).unwrap()[..], b"new");
    }

    #[test]
    fn update_empty_slot_fails() {
        let mut p = SlottedPage::new();
        assert!(p.update(0, Bytes::from_static(b"x")).is_none());
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(Bytes::from_static(b"a")).unwrap();
        let _s1 = p.insert(Bytes::from_static(b"b")).unwrap();
        let before = p.delete(s0).unwrap();
        assert_eq!(&before[..], b"a");
        assert_eq!(p.live(), 1);
        assert!(p.read(s0).is_none());
        // The freed slot is reused first.
        let s2 = p.insert(Bytes::from_static(b"c")).unwrap();
        assert_eq!(s2, s0);
    }

    #[test]
    fn restore_undoes_a_delete() {
        let mut p = SlottedPage::new();
        let s = p.insert(Bytes::from_static(b"v")).unwrap();
        p.delete(s).unwrap();
        assert_eq!(p.restore(s, Bytes::from_static(b"v")), None);
        assert_eq!(&p.read(s).unwrap()[..], b"v");
        assert_eq!(p.live(), 1);
        // Restoring onto an occupied slot overwrites, returns the old
        // bytes, and leaves the live count unchanged.
        let prev = p.restore(s, Bytes::from_static(b"w")).unwrap();
        assert_eq!(&prev[..], b"v");
        assert_eq!(p.live(), 1);
    }

    #[test]
    fn iter_visits_only_live_slots() {
        let mut p = SlottedPage::new();
        let a = p.insert(Bytes::from_static(b"a")).unwrap();
        let b = p.insert(Bytes::from_static(b"b")).unwrap();
        p.delete(a).unwrap();
        let entries: Vec<_> = p.iter().map(|(s, d)| (s, d.clone())).collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, b);
    }
}
