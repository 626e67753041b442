//! Cache geometry: sizes, address decomposition, and legal set states.

/// The two block granularities of the bi-modal organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockSize {
    /// A big block (512 B by default): eight small blocks of contiguous data.
    Big,
    /// A small block (64 B by default): one LLSC line.
    Small,
}

/// A legal `(X, Y)` state of a bi-modal set: `X` big ways and `Y` small
/// ways, with `Y = (B - X) * ratio` where `B` is the all-big associativity
/// and `ratio` the big:small size ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetState {
    /// Number of big ways.
    pub big: u8,
    /// Number of small ways.
    pub small: u8,
}

impl SetState {
    /// Total associativity of the set in this state.
    #[must_use]
    pub fn ways(&self) -> u16 {
        u16::from(self.big) + u16::from(self.small)
    }
}

impl std::fmt::Display for SetState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.big, self.small)
    }
}

/// Static geometry of a bi-modal DRAM cache.
///
/// The paper's default: 512 B big blocks, 64 B small blocks, 2 KB sets
/// (each set's data fits in one DRAM page), with the physical address split
/// as `tag | set-index | 9-bit offset`.
/// # Example
///
/// ```
/// use bimodal_core::{CacheGeometry, SetState};
///
/// let g = CacheGeometry::paper_default(128 << 20);
/// assert_eq!(g.n_sets(), 65_536);
/// assert_eq!(g.allowed_states()[2], SetState { big: 2, small: 16 });
/// assert_eq!(g.max_assoc(), 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total data capacity in bytes.
    pub cache_bytes: u64,
    /// Bytes per set (maps to one DRAM page; 2048 or 4096).
    pub set_bytes: u32,
    /// Big block size in bytes (512 by default).
    pub big_block: u32,
    /// Small block size in bytes (64 by default; the LLSC line size).
    pub small_block: u32,
}

impl CacheGeometry {
    /// The paper's default geometry for a cache of `cache_bytes`:
    /// 2 KB sets, 512 B / 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (see
    /// [`CacheGeometry::validate`]).
    #[must_use]
    pub fn paper_default(cache_bytes: u64) -> Self {
        Self::try_paper_default(cache_bytes).expect("paper-default geometry is self-consistent")
    }

    /// [`CacheGeometry::paper_default`] for a capacity that may not suit
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint (see [`CacheGeometry::validate`]),
    /// e.g. a capacity that is not a power of two.
    pub fn try_paper_default(cache_bytes: u64) -> Result<Self, String> {
        let g = CacheGeometry {
            cache_bytes,
            set_bytes: 2048,
            big_block: 512,
            small_block: 64,
        };
        g.validate().map(|()| g)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: every size must be
    /// a power of two, `small_block <= big_block <= set_bytes`, and the
    /// cache must hold at least one set.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("set_bytes", u64::from(self.set_bytes)),
            ("big_block", u64::from(self.big_block)),
            ("small_block", u64::from(self.small_block)),
        ] {
            if !v.is_power_of_two() {
                return Err(format!("{name} = {v} is not a power of two"));
            }
        }
        if !self.cache_bytes.is_power_of_two() {
            return Err(format!(
                "cache_bytes = {} is not a power of two",
                self.cache_bytes
            ));
        }
        if self.small_block > self.big_block {
            return Err("small_block must not exceed big_block".into());
        }
        if u64::from(self.big_block) > u64::from(self.set_bytes) {
            return Err("big_block must not exceed set_bytes".into());
        }
        if self.cache_bytes < u64::from(self.set_bytes) {
            return Err("cache must hold at least one set".into());
        }
        Ok(())
    }

    /// Number of sets (`cache_bytes / set_bytes`).
    #[must_use]
    pub fn n_sets(&self) -> u64 {
        self.cache_bytes / u64::from(self.set_bytes)
    }

    /// Bits used for the in-block offset (9 for 512 B big blocks).
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.big_block.trailing_zeros()
    }

    /// Bits used for the set index.
    #[must_use]
    pub fn set_index_bits(&self) -> u32 {
        self.n_sets().trailing_zeros()
    }

    /// Big:small size ratio (sub-blocks per big block; 8 by default).
    #[must_use]
    pub fn sub_blocks(&self) -> u32 {
        self.big_block / self.small_block
    }

    /// Associativity when every way is big (`set_bytes / big_block`).
    #[must_use]
    pub fn base_assoc(&self) -> u8 {
        u8::try_from(self.set_bytes / self.big_block).expect("associativity fits a u8")
    }

    /// The legal `(X, Y)` states: `X` from `base_assoc` down to
    /// `base_assoc / 2`, with `Y = (base_assoc - X) * sub_blocks`.
    ///
    /// For the 2 KB set this yields `{(4,0), (3,8), (2,16)}` and for the
    /// 4 KB set `{(8,0), (7,8), (6,16), (5,24), (4,32)}`, exactly the sets
    /// of states in Section III-B.
    #[must_use]
    pub fn allowed_states(&self) -> Vec<SetState> {
        let b = self.base_assoc();
        let ratio = u8::try_from(self.sub_blocks()).expect("ratio fits u8");
        (b / 2..=b)
            .rev()
            .map(|x| SetState {
                big: x,
                small: (b - x) * ratio,
            })
            .collect()
    }

    /// Maximum total associativity across allowed states (18 for 2 KB sets).
    #[must_use]
    pub fn max_assoc(&self) -> u16 {
        self.allowed_states()
            .iter()
            .map(SetState::ways)
            .max()
            .unwrap_or(0)
    }

    /// Set index of a physical address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.offset_bits()) & (self.n_sets() - 1)
    }

    /// Tag of a physical address (bits above set index and offset).
    #[must_use]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.offset_bits() + self.set_index_bits())
    }

    /// Which small sub-block within the big block an address falls into
    /// (the "3 high-order offset bits" stored for small blocks).
    #[must_use]
    pub fn sub_block_of(&self, addr: u64) -> u8 {
        let within = addr & (u64::from(self.big_block) - 1);
        u8::try_from(within / u64::from(self.small_block)).expect("sub-block index fits u8")
    }

    /// Base address of the big-block-aligned region containing `addr`.
    #[must_use]
    pub fn big_block_base(&self, addr: u64) -> u64 {
        addr & !(u64::from(self.big_block) - 1)
    }

    /// Base address of the small-block-aligned region containing `addr`.
    #[must_use]
    pub fn small_block_base(&self, addr: u64) -> u64 {
        addr & !(u64::from(self.small_block) - 1)
    }

    /// Reconstructs the big-block base address from `(tag, set)`.
    #[must_use]
    pub fn reconstruct(&self, tag: u64, set: u64) -> u64 {
        ((tag << self.set_index_bits()) | set) << self.offset_bits()
    }

    /// Precomputes the address-decomposition constants of this geometry.
    #[must_use]
    pub fn addr_map(&self) -> AddrMap {
        AddrMap {
            offset_bits: self.offset_bits(),
            tag_shift: self.offset_bits() + self.set_index_bits(),
            set_mask: self.n_sets() - 1,
            big_mask: u64::from(self.big_block) - 1,
            small_mask: u64::from(self.small_block) - 1,
            small_shift: self.small_block.trailing_zeros(),
        }
    }
}

/// Precomputed address-decomposition constants of a [`CacheGeometry`].
///
/// [`CacheGeometry`] keeps only the four defining sizes and derives
/// everything else on demand, which puts a `trailing_zeros` and a 64-bit
/// division on every [`CacheGeometry::set_of`] call. The timed model
/// decomposes every access several times, so it snapshots the geometry
/// into this mask/shift form once at construction and decodes addresses
/// with pure bit operations thereafter. All methods agree bit-for-bit
/// with their [`CacheGeometry`] counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrMap {
    offset_bits: u32,
    tag_shift: u32,
    set_mask: u64,
    big_mask: u64,
    small_mask: u64,
    small_shift: u32,
}

impl AddrMap {
    /// Set index of a physical address.
    #[inline]
    #[must_use]
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.offset_bits) & self.set_mask
    }

    /// Tag of a physical address (bits above set index and offset).
    #[inline]
    #[must_use]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Which small sub-block within the big block an address falls into.
    #[inline]
    #[must_use]
    pub fn sub_block_of(&self, addr: u64) -> u8 {
        u8::try_from((addr & self.big_mask) >> self.small_shift).expect("sub-block index fits u8")
    }

    /// Base address of the big-block-aligned region containing `addr`.
    #[inline]
    #[must_use]
    pub fn big_block_base(&self, addr: u64) -> u64 {
        addr & !self.big_mask
    }

    /// Base address of the small-block-aligned region containing `addr`.
    #[inline]
    #[must_use]
    pub fn small_block_base(&self, addr: u64) -> u64 {
        addr & !self.small_mask
    }

    /// Reconstructs the big-block base address from `(tag, set)`.
    #[inline]
    #[must_use]
    pub fn reconstruct(&self, tag: u64, set: u64) -> u64 {
        ((tag << (self.tag_shift - self.offset_bits)) | set) << self.offset_bits
    }
}

impl bimodal_ckpt::Snapshot for BlockSize {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u8(match self {
            BlockSize::Big => 0,
            BlockSize::Small => 1,
        });
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        match r.u8()? {
            0 => Ok(BlockSize::Big),
            1 => Ok(BlockSize::Small),
            b => Err(r.corrupt(format!("invalid block size tag {b}"))),
        }
    }
}

impl bimodal_ckpt::Snapshot for SetState {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u8(self.big);
        w.u8(self.small);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        Ok(SetState {
            big: r.u8()?,
            small: r.u8()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::paper_default(128 << 20)
    }

    #[test]
    fn paper_default_has_9_offset_bits_and_64k_sets() {
        let g = geom();
        assert_eq!(g.offset_bits(), 9);
        assert_eq!(g.n_sets(), 65_536);
        assert_eq!(g.set_index_bits(), 16);
        assert_eq!(g.sub_blocks(), 8);
    }

    #[test]
    fn allowed_states_match_paper_for_2kb_sets() {
        let g = geom();
        let states = g.allowed_states();
        assert_eq!(
            states,
            vec![
                SetState { big: 4, small: 0 },
                SetState { big: 3, small: 8 },
                SetState { big: 2, small: 16 },
            ]
        );
        assert_eq!(g.max_assoc(), 18);
    }

    #[test]
    fn allowed_states_match_paper_for_4kb_sets() {
        let g = CacheGeometry {
            cache_bytes: 128 << 20,
            set_bytes: 4096,
            big_block: 512,
            small_block: 64,
        };
        let states = g.allowed_states();
        assert_eq!(states.len(), 5);
        assert_eq!(states[0], SetState { big: 8, small: 0 });
        assert_eq!(states[4], SetState { big: 4, small: 32 });
        assert_eq!(g.max_assoc(), 36);
    }

    #[test]
    fn address_decomposition_round_trips() {
        let g = geom();
        let addr = 0xDEAD_BEEF_u64 & !0x1FF; // big-block aligned
        let tag = g.tag_of(addr);
        let set = g.set_of(addr);
        assert_eq!(g.reconstruct(tag, set), g.big_block_base(addr));
    }

    #[test]
    fn sub_block_of_walks_through_the_big_block() {
        let g = geom();
        for i in 0..8u64 {
            assert_eq!(g.sub_block_of(0x1000 + i * 64), u8::try_from(i).unwrap());
        }
    }

    #[test]
    fn same_set_different_tags_conflict() {
        let g = geom();
        let a = 0x0000_1000u64;
        let b = a + (g.n_sets() * u64::from(g.big_block));
        assert_eq!(g.set_of(a), g.set_of(b));
        assert_ne!(g.tag_of(a), g.tag_of(b));
    }

    #[test]
    fn validate_rejects_inconsistency() {
        let mut g = geom();
        g.small_block = 1024; // bigger than big_block
        assert!(g.validate().is_err());
        let mut g = geom();
        g.cache_bytes = 3 << 20;
        assert!(g.validate().is_err());
        let mut g = geom();
        g.big_block = 4096; // bigger than the set
        assert!(g.validate().is_err());
    }

    #[test]
    fn addr_map_agrees_with_geometry_everywhere() {
        for g in [
            geom(),
            CacheGeometry {
                cache_bytes: 64 << 20,
                set_bytes: 4096,
                big_block: 512,
                small_block: 64,
            },
            CacheGeometry {
                cache_bytes: 1 << 20,
                set_bytes: 2048,
                big_block: 256,
                small_block: 32,
            },
        ] {
            let m = g.addr_map();
            // Cover aligned, unaligned, low and high addresses.
            for addr in (0..2_000u64)
                .map(|i| i * 97)
                .chain([0, 63, 64, 511, 512, u64::MAX >> 8])
            {
                assert_eq!(m.set_of(addr), g.set_of(addr), "set_of({addr:#x})");
                assert_eq!(m.tag_of(addr), g.tag_of(addr), "tag_of({addr:#x})");
                assert_eq!(
                    m.sub_block_of(addr),
                    g.sub_block_of(addr),
                    "sub_block_of({addr:#x})"
                );
                assert_eq!(m.big_block_base(addr), g.big_block_base(addr));
                assert_eq!(m.small_block_base(addr), g.small_block_base(addr));
                let (tag, set) = (g.tag_of(addr), g.set_of(addr));
                assert_eq!(m.reconstruct(tag, set), g.reconstruct(tag, set));
            }
        }
    }

    #[test]
    fn display_of_set_state() {
        assert_eq!(SetState { big: 3, small: 8 }.to_string(), "(3, 8)");
    }
}
