//! Exact sharer directory over the per-core L1 data caches.
//!
//! For every line number held by at least one L1D, the directory keeps
//! the set of cores whose L1D holds it. The invariant is exact: core `c`
//! is in the set of line `l` if and only if `c`'s L1D probes `l` as
//! non-Invalid. [`MemorySystem`](crate::MemorySystem) keeps it so at the
//! only places an L1D gains or loses a line (fills, valid victims, snoop
//! invalidations and `flush_all`), which lets a coherence action snoop
//! exactly the caches that hold the line instead of probing every core.

use crate::phys::BuildIntHasher;
use std::collections::HashMap;

/// Sharer sets keyed by L1D line number, exact at any core count.
///
/// Each set is `words = ceil(cores / 64)` bitmask words in one slab, so a
/// lookup is one hash probe whatever the core count and a new entry
/// allocates nothing once the slab has grown to its working size.
#[derive(Debug)]
pub(crate) struct SharerDirectory {
    words: usize,
    /// Line number → index of its sharer set in `sets`.
    slots: HashMap<u64, usize, BuildIntHasher>,
    /// Sharer bitsets, `words` per slot; core `c` is bit `c % 64` of word
    /// `c / 64`.
    sets: Vec<u64>,
    /// Slots of lines no L1D holds any more, for reuse.
    free: Vec<usize>,
}

impl SharerDirectory {
    /// An empty directory for `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        SharerDirectory {
            words: cores.div_ceil(64),
            slots: HashMap::default(),
            sets: Vec::new(),
            free: Vec::new(),
        }
    }

    fn set(&self, slot: usize) -> &[u64] {
        let start = slot * self.words;
        &self.sets[start..start + self.words]
    }

    fn set_mut(&mut self, slot: usize) -> &mut [u64] {
        let start = slot * self.words;
        &mut self.sets[start..start + self.words]
    }

    /// The sharer bitset of `line`, or `None` when no L1D holds it.
    pub(crate) fn sharers(&self, line: u64) -> Option<&[u64]> {
        self.slots.get(&line).map(|&slot| self.set(slot))
    }

    /// Records that `core`'s L1D now holds `line`.
    pub(crate) fn insert(&mut self, line: u64, core: usize) {
        let slot = match self.slots.get(&line) {
            Some(&slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => slot,
                    None => {
                        self.sets.resize(self.sets.len() + self.words, 0);
                        self.sets.len() / self.words - 1
                    }
                };
                self.slots.insert(line, slot);
                slot
            }
        };
        self.set_mut(slot)[core / 64] |= 1 << (core % 64);
    }

    /// Records that `core`'s L1D no longer holds `line`, dropping the
    /// entry once no core does.
    pub(crate) fn remove(&mut self, line: u64, core: usize) {
        let Some(&slot) = self.slots.get(&line) else {
            return;
        };
        let set = self.set_mut(slot);
        set[core / 64] &= !(1 << (core % 64));
        if set.iter().all(|&w| w == 0) {
            self.slots.remove(&line);
            self.free.push(slot);
        }
    }

    /// Leaves `core` as the only possible sharer of `line`: every other
    /// core's copy has just been invalidated.
    pub(crate) fn retain_only(&mut self, line: u64, core: usize) {
        let Some(&slot) = self.slots.get(&line) else {
            return;
        };
        let bit = 1 << (core % 64);
        let set = self.set_mut(slot);
        let held = set[core / 64] & bit;
        set.fill(0);
        if held != 0 {
            set[core / 64] = bit;
        } else {
            self.slots.remove(&line);
            self.free.push(slot);
        }
    }

    /// Forgets every line (all L1Ds were flushed).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.sets.clear();
        self.free.clear();
    }
}

/// Calls `f` with each core in `set` other than `skip`, in ascending
/// order.
pub(crate) fn for_each_sharer(set: &[u64], skip: usize, mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        if w == skip / 64 {
            bits &= !(1 << (skip % 64));
        }
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(d: &SharerDirectory, line: u64) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(set) = d.sharers(line) {
            for_each_sharer(set, usize::MAX, |c| out.push(c));
        }
        out
    }

    #[test]
    fn insert_remove_round_trip_beyond_64_cores() {
        let mut d = SharerDirectory::new(130);
        d.insert(7, 0);
        d.insert(7, 64);
        d.insert(7, 129);
        assert_eq!(members(&d, 7), vec![0, 64, 129]);
        d.remove(7, 64);
        assert_eq!(members(&d, 7), vec![0, 129]);
        d.remove(7, 0);
        d.remove(7, 129);
        assert!(d.sharers(7).is_none(), "an empty set drops its entry");
    }

    #[test]
    fn retain_only_keeps_the_writer_if_it_held_the_line() {
        let mut d = SharerDirectory::new(65);
        for c in [1, 2, 64] {
            d.insert(3, c);
        }
        d.retain_only(3, 64);
        assert_eq!(members(&d, 3), vec![64]);
        d.insert(3, 5);
        d.retain_only(3, 9);
        assert!(
            d.sharers(3).is_none(),
            "a non-holder writer empties the set"
        );
    }

    #[test]
    fn freed_slots_are_reused_and_clear_forgets_everything() {
        let mut d = SharerDirectory::new(2);
        d.insert(1, 0);
        d.remove(1, 0);
        d.insert(2, 1);
        assert_eq!(d.sets.len(), 1, "the freed slot was reused");
        assert_eq!(members(&d, 2), vec![1]);
        d.clear();
        assert!(d.sharers(2).is_none());
    }

    #[test]
    fn for_each_sharer_skips_the_requester() {
        let mut seen = Vec::new();
        for_each_sharer(&[0b1011, 1], 1, |c| seen.push(c));
        assert_eq!(seen, vec![0, 3, 64]);
    }
}
