//! Dense, id-indexed storage for per-stream state.
//!
//! HTTP/2 stream ids are two interleaved arithmetic sequences: clients
//! open odd ids (1, 3, 5, …) and servers promise even ids (2, 4, 6, …),
//! both strictly increasing (RFC 7540 §5.1.1). A `BTreeMap<u32, Stream>`
//! models that as a general ordered map and pays a node allocation plus
//! a pointer-chasing descent per touch — on the replay hot path every
//! DATA frame, WINDOW_UPDATE and scheduler snapshot goes through it.
//!
//! [`StreamSlab`] exploits the id structure instead: two dense vectors
//! (one per parity, indexed by `id / 2` rounded down to the sequence
//! position) give O(1) array lookups and a single allocation that a
//! recycled connection keeps across resets. The send path never walks
//! the slab: the connection keeps an entry per stream with unsent body in
//! its ready set and only looks those streams up. The walks left, in no
//! particular order, are `values_mut` for a SETTINGS window delta and
//! `values` for the debug-build check of the ready set.
//!
//! A hostile peer is not bound by "next id": PUSH_PROMISE and request
//! HEADERS carry peer-chosen ids up to 2^31-1, and the badpeer suite
//! exercises exactly that. Ids whose sequence position exceeds
//! [`MAX_DENSE_SLOTS`] therefore fall back to a sorted spill map, so an
//! adversarial id costs one BTreeMap node instead of a gigabyte-sized
//! vector.

use std::collections::BTreeMap;

/// Largest per-parity sequence position stored densely (ids up to
/// ~16 000 — far beyond any benign page replay, which tops out at a few
/// hundred streams). Beyond this, entries go to the spill map.
const MAX_DENSE_SLOTS: usize = 8192;

/// Id-indexed slab with a dense region per stream-id parity and a
/// sorted spill for adversarially large ids.
#[derive(Debug)]
pub(crate) struct StreamSlab<T> {
    /// Client-initiated ids 1, 3, 5, … at slots 0, 1, 2, …
    odd: Vec<Option<T>>,
    /// Server-push ids 2, 4, 6, … at slots 0, 1, 2, …
    even: Vec<Option<T>>,
    /// Entries whose slot would exceed [`MAX_DENSE_SLOTS`]. Always ids
    /// larger than every dense id (see module docs).
    spill: BTreeMap<u32, T>,
}

impl<T> Default for StreamSlab<T> {
    fn default() -> Self {
        StreamSlab { odd: Vec::new(), even: Vec::new(), spill: BTreeMap::new() }
    }
}

/// Sequence position of `id` within its parity lane, or `None` for the
/// connection pseudo-stream 0 (never stored).
#[inline]
fn slot_of(id: u32) -> Option<usize> {
    match id {
        0 => None,
        _ => Some(((id - 1) / 2) as usize),
    }
}

impl<T> StreamSlab<T> {
    /// A slab with `slots` dense positions pre-reserved per parity.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        StreamSlab {
            odd: Vec::with_capacity(slots),
            even: Vec::with_capacity(slots),
            spill: BTreeMap::new(),
        }
    }

    #[inline]
    fn lane(&self, id: u32) -> &Vec<Option<T>> {
        if id % 2 == 1 {
            &self.odd
        } else {
            &self.even
        }
    }

    #[inline]
    fn lane_mut(&mut self, id: u32) -> &mut Vec<Option<T>> {
        if id % 2 == 1 {
            &mut self.odd
        } else {
            &mut self.even
        }
    }

    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        match slot_of(id) {
            Some(slot) if slot < MAX_DENSE_SLOTS => {
                self.lane(id).get(slot).and_then(Option::as_ref)
            }
            Some(_) => self.spill.get(&id),
            None => None,
        }
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        match slot_of(id) {
            Some(slot) if slot < MAX_DENSE_SLOTS => {
                self.lane_mut(id).get_mut(slot).and_then(Option::as_mut)
            }
            Some(_) => self.spill.get_mut(&id),
            None => None,
        }
    }

    pub(crate) fn contains_key(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` at `id`, returning any previous occupant.
    /// Stream 0 is the connection itself and is never stored; inserting
    /// it is a caller bug, caught in debug builds.
    pub(crate) fn insert(&mut self, id: u32, value: T) -> Option<T> {
        debug_assert_ne!(id, 0, "stream 0 is the connection, not a stream");
        match slot_of(id) {
            Some(slot) if slot < MAX_DENSE_SLOTS => {
                let lane = self.lane_mut(id);
                if lane.len() <= slot {
                    lane.resize_with(slot + 1, || None);
                }
                lane[slot].replace(value)
            }
            _ => self.spill.insert(id, value),
        }
    }

    /// All stored values, iteration order unspecified.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.odd.iter().flatten().chain(self.even.iter().flatten()).chain(self.spill.values())
    }

    /// All stored values mutably, iteration order unspecified.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.odd
            .iter_mut()
            .flatten()
            .chain(self.even.iter_mut().flatten())
            .chain(self.spill.values_mut())
    }

    /// Drop every entry but keep the dense lanes' capacity, so a
    /// recycled slab costs zero allocations to refill.
    pub(crate) fn reset(&mut self) {
        for s in &mut self.odd {
            *s = None;
        }
        for s in &mut self.even {
            *s = None;
        }
        self.spill.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_both_parities() {
        let mut slab: StreamSlab<u32> = StreamSlab::default();
        for id in [1u32, 2, 3, 4, 9, 10, 31, 100] {
            assert!(slab.insert(id, id * 10).is_none());
        }
        for id in [1u32, 2, 3, 4, 9, 10, 31, 100] {
            assert_eq!(slab.get(id), Some(&(id * 10)));
            assert!(slab.contains_key(id));
        }
        assert_eq!(slab.get(5), None);
        assert_eq!(slab.get(0), None);
        *slab.get_mut(9).unwrap() = 77;
        assert_eq!(slab.get(9), Some(&77));
        assert_eq!(slab.insert(9, 78), Some(77));
    }

    #[test]
    fn values_mut_reaches_both_lanes_and_the_spill() {
        let mut slab: StreamSlab<u32> = StreamSlab::default();
        // Deliberately interleaved insertion order, including two
        // adversarially large ids that land in the spill.
        let ids = [7u32, 2, 1, 10, 0x7fff_fffe, 3, 0x7000_0001, 8];
        for id in ids {
            slab.insert(id, id);
        }
        assert_eq!(slab.values_mut().count(), ids.len());
        for v in slab.values_mut() {
            *v += 1;
        }
        for id in ids {
            assert_eq!(slab.get(id), Some(&(id + 1)));
        }
    }

    #[test]
    fn adversarial_ids_do_not_allocate_dense_slots() {
        let mut slab: StreamSlab<u32> = StreamSlab::default();
        slab.insert(0x7fff_fffe, 1); // even, near the §5.1.1 ceiling
        slab.insert(0x7fff_fffd, 2); // odd
        assert!(slab.odd.len() <= MAX_DENSE_SLOTS);
        assert!(slab.even.len() <= MAX_DENSE_SLOTS);
        assert_eq!(slab.spill.len(), 2);
        assert_eq!(slab.get(0x7fff_fffe), Some(&1));
        assert_eq!(slab.get(0x7fff_fffd), Some(&2));
    }

    #[test]
    fn reset_keeps_capacity_and_drops_entries() {
        let mut slab: StreamSlab<u32> = StreamSlab::with_capacity(16);
        for id in 1..=40u32 {
            slab.insert(id, id);
        }
        slab.insert(0x7fff_fffe, 99);
        let cap = |slab: &StreamSlab<u32>| slab.odd.capacity() + slab.even.capacity();
        let before = cap(&slab);
        assert!(before >= 40);
        slab.reset();
        assert_eq!(slab.values_mut().count(), 0);
        for id in 1..=40u32 {
            assert_eq!(slab.get(id), None, "stale entry for id {id} after reset");
        }
        assert_eq!(slab.get(0x7fff_fffe), None);
        assert_eq!(cap(&slab), before, "reset must keep the allocation");
        // Refilled after reset, ids resolve to the new values only.
        slab.insert(3, 1234);
        assert_eq!(slab.get(3), Some(&1234));
        assert_eq!(slab.values_mut().count(), 1);
    }
}
