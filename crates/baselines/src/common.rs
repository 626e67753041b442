//! Shared placement helpers for the baseline organizations.

use bimodal_dram::{DramConfig, Location};

/// Stripes row-sized ordinals (sets, TAD rows, pages) across the stacked
/// DRAM's channels and banks, channels first for maximum parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMapper {
    channels: u64,
    banks_per_channel: u64,
}

impl RowMapper {
    /// Builds a mapper over all banks of `config`.
    ///
    /// Debug builds assert power-of-two channel and bank counts: the
    /// schemes' set-index arithmetic assumes the stripe divides evenly,
    /// and a non-power-of-two geometry would silently alias rows (the
    /// same guard [`bimodal_core::FunctionalCache`] applies to its sets).
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        let channels = u64::from(config.channels);
        let banks_per_channel = u64::from(config.ranks_per_channel * config.banks_per_rank);
        debug_assert!(
            channels.is_power_of_two(),
            "channel count must be a power of two, got {channels}"
        );
        debug_assert!(
            banks_per_channel.is_power_of_two(),
            "banks per channel must be a power of two, got {banks_per_channel}"
        );
        RowMapper {
            channels,
            banks_per_channel,
        }
    }

    /// Location of the `ordinal`-th row-sized unit.
    #[must_use]
    pub fn location(&self, ordinal: u64) -> Location {
        let channel = ordinal % self.channels;
        let bank = (ordinal / self.channels) % self.banks_per_channel;
        let row = ordinal / (self.channels * self.banks_per_channel);
        Location::new(channel as u32, 0, bank as u32, row)
    }

    /// Rows available per full stripe (channels x banks).
    #[must_use]
    pub fn stripe(&self) -> u64 {
        self.channels * self.banks_per_channel
    }
}

/// A recency list over the dense index space `0..n` (set indices): a
/// circular doubly linked list threaded through `prev`/`next` arrays, so
/// probing, promoting, inserting and evicting an index are all O(1).
/// Iteration runs from the most to the least recently used.
///
/// Index `i` lives in slot `i + 1`; slot 0 is the sentinel, whose `next`
/// is the MRU end and `prev` the LRU end. An empty list is all zeros, so
/// building one over many sets costs no fill pass.
#[derive(Debug, Clone)]
pub struct IndexLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    present: Vec<bool>,
    len: usize,
}

impl IndexLru {
    /// An empty list over indices `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if the `n + 1` slots do not fit `u32` links.
    #[must_use]
    pub fn new(n: u64) -> Self {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n < u32::MAX as usize)
            .expect("index space fits u32 links");
        IndexLru {
            prev: vec![0; n + 1],
            next: vec![0; n + 1],
            present: vec![false; n],
            len: 0,
        }
    }

    /// Number of indices in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `index` in the list? Out-of-range indices never are.
    #[must_use]
    pub fn contains(&self, index: u64) -> bool {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.present.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// Moves `index` to the most-recently-used end if present; returns
    /// whether it was.
    pub fn touch(&mut self, index: u64) -> bool {
        if !self.contains(index) {
            return false;
        }
        let slot = index as usize + 1;
        if self.next[0] as usize != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        true
    }

    /// Inserts an absent `index` at the most-recently-used end; returns
    /// `false` (leaving the list untouched, recency included) if it was
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside `0..n`.
    pub fn insert_front(&mut self, index: u64) -> bool {
        assert!(
            index < self.present.len() as u64,
            "index {index} out of range"
        );
        if self.present[index as usize] {
            return false;
        }
        self.link_front(index as usize + 1);
        true
    }

    /// Removes and returns the least recently used index.
    pub fn pop_back(&mut self) -> Option<u64> {
        let slot = self.prev[0] as usize;
        (slot != 0).then(|| {
            self.unlink(slot);
            slot as u64 - 1
        })
    }

    /// Removes and returns the `pos`-th index in most- to least-recently
    /// used order. O(`pos`): for rare paths only.
    pub fn remove_nth(&mut self, pos: usize) -> Option<u64> {
        let index = self.iter().nth(pos)?;
        self.unlink(index as usize + 1);
        Some(index)
    }

    /// The indices from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut slot = self.next[0];
        std::iter::from_fn(move || {
            (slot != 0).then(|| {
                let index = u64::from(slot) - 1;
                slot = self.next[slot as usize];
                index
            })
        })
    }

    fn link_front(&mut self, slot: usize) {
        let old = self.next[0];
        self.prev[slot] = 0;
        self.next[slot] = old;
        self.prev[old as usize] = slot as u32;
        self.next[0] = slot as u32;
        self.present[slot - 1] = true;
        self.len += 1;
    }

    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.present[slot - 1] = false;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_channels_first() {
        let m = RowMapper::new(&DramConfig::stacked(2, 8));
        assert_eq!(m.location(0), Location::new(0, 0, 0, 0));
        assert_eq!(m.location(1), Location::new(1, 0, 0, 0));
        assert_eq!(m.location(2), Location::new(0, 0, 1, 0));
        assert_eq!(m.location(16), Location::new(0, 0, 0, 1));
        assert_eq!(m.stripe(), 16);
    }

    #[test]
    fn accepts_every_stock_geometry() {
        for config in [
            DramConfig::stacked(2, 8),
            DramConfig::stacked(4, 8),
            DramConfig::stacked(8, 8),
            DramConfig::ddr3(1, 2),
        ] {
            let m = RowMapper::new(&config);
            assert!(m.stripe().is_power_of_two());
        }
    }

    #[test]
    fn index_lru_keeps_recency_order() {
        let mut lru = IndexLru::new(6);
        for i in [1, 4, 2] {
            assert!(lru.insert_front(i));
        }
        assert!(!lru.insert_front(4), "present index is not re-inserted");
        assert_eq!(lru.iter().collect::<Vec<_>>(), [2, 4, 1]);
        assert!(lru.touch(1));
        assert!(!lru.touch(5) && !lru.touch(99));
        assert_eq!(lru.iter().collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(lru.remove_nth(1), Some(2));
        assert_eq!(lru.remove_nth(2), None);
        assert_eq!(lru.pop_back(), Some(4));
        assert_eq!(lru.pop_back(), Some(1));
        assert_eq!(lru.pop_back(), None);
        assert!(lru.is_empty() && !lru.contains(1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "channel count must be a power of two")]
    fn rejects_non_power_of_two_channels() {
        let mut config = DramConfig::stacked(2, 8);
        config.channels = 3;
        let _ = RowMapper::new(&config);
    }
}
