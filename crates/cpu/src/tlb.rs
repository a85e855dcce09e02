//! TLBs with BAR remap windows and MMU bypass holes.
//!
//! The NxP's TLB is the crate's most paper-specific hardware: besides
//! caching translations of the *host's* page tables, it (a) rewrites
//! physical addresses that fall in dynamically-assigned BAR windows
//! into NxP-local bus addresses via driver-programmed remap registers
//! (Fig. 3), and (b) supports *holes* — VA ranges the programmable MMU
//! resolves directly, bypassing the page-table walk, used for debugging
//! and scratchpad access (§IV-A).

use flick_mem::{PhysAddr, U64BuildHasher, VirtAddr};
use flick_paging::{PageSize, Translation};
use std::collections::HashMap;

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page base.
    pub va_base: VirtAddr,
    /// Physical page base (host view).
    pub pa_base: PhysAddr,
    /// Leaf page size.
    pub page: PageSize,
    /// Effective NX bit.
    pub nx: bool,
    /// Effective writability.
    pub writable: bool,
    /// ISA tag of the leaf PTE (0 = untagged; otherwise `isa.tag() + 1`
    /// of the ISA whose text the page holds).
    pub isa_tag: u8,
}

impl TlbEntry {
    /// Builds an entry from a walker result.
    pub fn from_translation(t: &Translation) -> Self {
        TlbEntry {
            va_base: t.va_base,
            pa_base: t.pa_base,
            page: t.page,
            nx: t.nx,
            writable: t.writable,
            isa_tag: t.isa_tag,
        }
    }

    /// True when `va` falls in this entry's page.
    pub fn covers(&self, va: VirtAddr) -> bool {
        va.as_u64() & !(self.page.bytes() - 1) == self.va_base.as_u64()
    }

    /// Translates `va` (must be covered).
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        debug_assert!(self.covers(va));
        PhysAddr(self.pa_base.as_u64() | (va.as_u64() & (self.page.bytes() - 1)))
    }
}

/// An MMU bypass hole: a VA range translated by configuration rather
/// than by walking page tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmuHole {
    /// Virtual base.
    pub va_base: VirtAddr,
    /// Size in bytes.
    pub size: u64,
    /// Physical base the hole maps to.
    pub pa_base: PhysAddr,
    /// Whether code may execute from the hole.
    pub executable: bool,
}

impl MmuHole {
    /// True when `va` falls inside the hole.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.va_base && va.as_u64() < self.va_base.as_u64() + self.size
    }

    /// Translates `va` (must be contained).
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        debug_assert!(self.contains(va));
        self.pa_base + (va - self.va_base)
    }
}

/// A fully-associative TLB with LRU replacement.
///
/// The prototype's NxP L1 I/D-TLBs have 16 entries each with one-cycle
/// hit latency (§IV-A); the host TLBs are just bigger instances.
///
/// # Examples
///
/// ```
/// use flick_cpu::{Tlb, TlbEntry};
/// use flick_mem::{PhysAddr, VirtAddr};
/// use flick_paging::PageSize;
///
/// let mut tlb = Tlb::new(2);
/// tlb.insert(TlbEntry {
///     va_base: VirtAddr(0x1000),
///     pa_base: PhysAddr(0x8000),
///     page: PageSize::Size4K,
///     nx: false,
///     writable: true,
///     isa_tag: 0,
/// });
/// let e = tlb.lookup(VirtAddr(0x1abc)).unwrap();
/// assert_eq!(e.translate(VirtAddr(0x1abc)), PhysAddr(0x8abc));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<(TlbEntry, u64)>, // (entry, last-use stamp)
    capacity: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// Most-recently-hit entry index: a one-entry micro-cache consulted
    /// before the indexed probe. Repeated hits on the MRU entry skip both
    /// the probe and the stamp assignment — safe, because the MRU entry
    /// already holds the maximum stamp, so re-stamping it cannot change
    /// the *relative* LRU order that eviction decisions depend on.
    mru: Option<usize>,
    /// Page-base → entry index. Keyed by `va_base | class` where the
    /// class id lives in the low (page-offset) bits, so one map serves
    /// all page sizes; lookups probe once per size class present.
    index: HashMap<u64, usize, U64BuildHasher>,
    /// Entry count per page-size class, to skip probes for absent sizes.
    class_counts: [usize; PAGE_CLASSES.len()],
    /// Bumped whenever the entry set changes (insert, flush, shootdown).
    /// Callers that cache a translation outside the TLB (the core's
    /// last-fetch micro-cache, and through it the basic-block engine's
    /// once-per-block validation) compare this to detect that their
    /// entry may have been evicted or invalidated. Data-side walks fill
    /// only the D-TLB, so the I-TLB generation is stable across a
    /// straight-line block — the invariant that lets a block charge its
    /// fetches without re-translating per instruction.
    generation: u64,
    /// Set when an insert leaves two entries covering a common address
    /// (a stale translation of a different page size that no shootdown
    /// removed); cleared by a full flush. While it is clear, every
    /// address is covered by at most one entry, so the one entry that
    /// covers a page is exactly what `lookup` returns for any address in
    /// it — the property [`touch`](Self::touch) callers rely on.
    overlap: bool,
}

/// Page-size classes probed by [`Tlb::lookup`], smallest first.
const PAGE_CLASSES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

fn class_of(page: PageSize) -> usize {
    page.leaf_level() as usize
}

/// Index key for a page: base address with the class id folded into the
/// always-zero offset bits (every base is at least 4 KiB aligned).
fn key_of(va_base: VirtAddr, page: PageSize) -> u64 {
    debug_assert_eq!(va_base.as_u64() & (page.bytes() - 1), 0);
    va_base.as_u64() | class_of(page) as u64
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            hits: 0,
            misses: 0,
            mru: None,
            index: HashMap::with_capacity_and_hasher(capacity, U64BuildHasher::default()),
            class_counts: [0; PAGE_CLASSES.len()],
            generation: 0,
            overlap: false,
        }
    }

    /// Looks up `va`, refreshing LRU on hit.
    ///
    /// The stamp counter is consumed only when it is assigned to an
    /// entry (scan-path hits and inserts); empty lookups, MRU hits, and
    /// misses leave it alone. Only the relative order of stamps is ever
    /// observable (through eviction), and that order is preserved.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        if self.entries.is_empty() {
            self.misses += 1;
            return None;
        }
        if let Some(i) = self.mru {
            let (e, _) = self.entries[i];
            if e.covers(va) {
                self.hits += 1;
                return Some(e);
            }
        }
        for (c, page) in PAGE_CLASSES.iter().enumerate() {
            if self.class_counts[c] == 0 {
                continue;
            }
            let key = (va.as_u64() & !(page.bytes() - 1)) | c as u64;
            if let Some(&i) = self.index.get(&key) {
                self.stamp += 1;
                self.entries[i].1 = self.stamp;
                self.hits += 1;
                self.mru = Some(i);
                return Some(self.entries[i].0);
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a translation, evicting the LRU entry when full.
    ///
    /// Insert sits behind a page walk, so the same-page scan and the LRU
    /// search stay linear; only `lookup` is on the per-instruction path.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.generation += 1;
        self.stamp += 1;
        // Replace an existing mapping of the same page, if any.
        let pos = if let Some(pos) = self
            .entries
            .iter()
            .position(|(e, _)| e.va_base == entry.va_base)
        {
            self.unindex(pos);
            self.entries[pos] = (entry, self.stamp);
            pos
        } else if self.entries.len() < self.capacity {
            self.entries.push((entry, self.stamp));
            self.entries.len() - 1
        } else {
            let pos = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.unindex(pos);
            self.entries[pos] = (entry, self.stamp);
            pos
        };
        self.index.insert(key_of(entry.va_base, entry.page), pos);
        self.class_counts[class_of(entry.page)] += 1;
        self.mru = Some(pos);
        // Entries of one size are disjoint (one entry per base), and
        // aligned power-of-two pages of two sizes are nested or disjoint:
        // they overlap iff one covers the other's base.
        if self.class_counts.iter().filter(|&&n| n > 0).count() > 1 {
            self.overlap |= self.entries.iter().any(|(e, _)| {
                e.page != entry.page && (e.covers(entry.va_base) || entry.covers(e.va_base))
            });
        }
    }

    /// The most recently used entry and its slot: after a hit or an
    /// insert, the entry that served it.
    pub(crate) fn mru_entry(&self) -> Option<(usize, TlbEntry)> {
        self.mru.map(|i| (i, self.entries[i].0))
    }

    /// True while no two entries cover a common address (see the
    /// `overlap` field).
    pub(crate) fn disjoint(&self) -> bool {
        !self.overlap
    }

    /// Replays the LRU, MRU and hit-count update a [`lookup`] hit on
    /// `slot` makes, without the probe. For callers that cache a
    /// translation outside the TLB and validate it against
    /// [`generation`](Self::generation): while the generation is
    /// unchanged and the TLB is [`disjoint`](Self::disjoint), `lookup`
    /// of any address in the slot's page would hit exactly this slot,
    /// so `touch` leaves the TLB exactly as that lookup would.
    ///
    /// [`lookup`]: Self::lookup
    #[inline]
    pub(crate) fn touch(&mut self, slot: usize) {
        self.hits += 1;
        if self.mru != Some(slot) {
            self.stamp += 1;
            self.entries[slot].1 = self.stamp;
            self.mru = Some(slot);
        }
    }

    /// Removes entry `pos` from the index and class counts.
    fn unindex(&mut self, pos: usize) {
        let (e, _) = self.entries[pos];
        self.index.remove(&key_of(e.va_base, e.page));
        self.class_counts[class_of(e.page)] -= 1;
    }

    /// Drops every entry (context switch / mprotect shootdown).
    pub fn flush(&mut self) {
        self.generation += 1;
        self.overlap = false;
        self.entries.clear();
        self.index.clear();
        self.class_counts = [0; PAGE_CLASSES.len()];
        self.mru = None;
    }

    /// Drops entries covering `va` (single-page shootdown).
    pub fn flush_page(&mut self, va: VirtAddr) {
        self.generation += 1;
        self.entries.retain(|(e, _)| !e.covers(va));
        // Removal shifts indices; rebuild the side structures. Shootdowns
        // are rare (mprotect, munmap), so this stays off the hot path.
        self.index.clear();
        self.class_counts = [0; PAGE_CLASSES.len()];
        for (i, (e, _)) in self.entries.iter().enumerate() {
            self.index.insert(key_of(e.va_base, e.page), i);
            self.class_counts[class_of(e.page)] += 1;
        }
        self.mru = None;
    }

    /// Entry-set change counter (see the `generation` field). Lookups do
    /// not bump it: a hit changes which entries are *recent*, never
    /// which entries *exist*.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(va: u64, pa: u64, page: PageSize) -> TlbEntry {
        TlbEntry {
            va_base: VirtAddr(va),
            pa_base: PhysAddr(pa),
            page,
            nx: false,
            writable: true,
            isa_tag: 0,
        }
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(0x2000, 0x2000, PageSize::Size4K));
        tlb.lookup(VirtAddr(0x1000)); // touch first
        tlb.insert(entry(0x3000, 0x3000, PageSize::Size4K)); // evicts 0x2000
        assert!(tlb.lookup(VirtAddr(0x1000)).is_some());
        assert!(tlb.lookup(VirtAddr(0x2000)).is_none());
        assert!(tlb.lookup(VirtAddr(0x3000)).is_some());
    }

    #[test]
    fn huge_page_covers_gig() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1 << 30, 1 << 30, PageSize::Size1G));
        let e = tlb.lookup(VirtAddr((1 << 30) + 0x1234_5678)).unwrap();
        assert_eq!(
            e.translate(VirtAddr((1 << 30) + 0x1234_5678)),
            PhysAddr((1 << 30) + 0x1234_5678)
        );
    }

    #[test]
    fn four_entries_cover_nxp_storage() {
        // §V: 1 GiB pages let four TLB entries cover the 4 GiB NxP
        // window, avoiding most TLB misses.
        let mut tlb = Tlb::new(16);
        for i in 0..4u64 {
            tlb.insert(entry(
                0x5000_0000_0000 + i * (1 << 30),
                0x1_0000_0000 + i * (1 << 30),
                PageSize::Size1G,
            ));
        }
        let (h0, m0) = (tlb.hits(), tlb.misses());
        for i in 0..1000u64 {
            let va = VirtAddr(0x5000_0000_0000 + (i * 7919) % (4 << 30));
            assert!(tlb.lookup(va).is_some());
        }
        assert_eq!(tlb.hits() - h0, 1000);
        assert_eq!(tlb.misses(), m0);
    }

    #[test]
    fn same_page_reinsert_replaces() {
        let mut tlb = Tlb::new(2);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        let mut e2 = entry(0x1000, 0x9000, PageSize::Size4K);
        e2.nx = true;
        tlb.insert(e2);
        assert_eq!(tlb.len(), 1);
        let got = tlb.lookup(VirtAddr(0x1000)).unwrap();
        assert!(got.nx);
        assert_eq!(got.pa_base, PhysAddr(0x9000));
    }

    #[test]
    fn page_shootdown() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(0x2000, 0x2000, PageSize::Size4K));
        tlb.flush_page(VirtAddr(0x1000));
        assert!(tlb.lookup(VirtAddr(0x1000)).is_none());
        assert!(tlb.lookup(VirtAddr(0x2000)).is_some());
    }

    #[test]
    fn empty_lookup_counts_miss_without_scan() {
        let mut tlb = Tlb::new(4);
        assert!(tlb.lookup(VirtAddr(0x1000)).is_none());
        assert!(tlb.lookup(VirtAddr(0x2000)).is_none());
        assert_eq!(tlb.misses(), 2);
        assert_eq!(tlb.hits(), 0);
    }

    #[test]
    fn mru_repeats_preserve_lru_order() {
        // Hammering one entry through the MRU micro-cache must not
        // change which entry gets evicted: relative LRU order is the
        // only thing eviction observes, and the MRU entry already holds
        // the maximum stamp.
        let mut tlb = Tlb::new(3);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(0x2000, 0x2000, PageSize::Size4K));
        tlb.insert(entry(0x3000, 0x3000, PageSize::Size4K));
        // Touch order: 0x1000 then 0x2000 (many MRU repeats) — so
        // 0x3000 is now least recent.
        tlb.lookup(VirtAddr(0x1000));
        for _ in 0..100 {
            assert!(tlb.lookup(VirtAddr(0x2abc)).is_some());
        }
        tlb.insert(entry(0x4000, 0x4000, PageSize::Size4K)); // must evict 0x3000
        assert!(tlb.lookup(VirtAddr(0x3000)).is_none());
        assert!(tlb.lookup(VirtAddr(0x1000)).is_some());
        assert!(tlb.lookup(VirtAddr(0x2000)).is_some());
        assert!(tlb.lookup(VirtAddr(0x4000)).is_some());
        assert_eq!(tlb.hits(), 101 + 3);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn mixed_page_sizes_probe_all_classes() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(2 << 30, 1 << 30, PageSize::Size1G));
        tlb.insert(entry(4 << 20, 2 << 20, PageSize::Size2M));
        assert!(tlb.lookup(VirtAddr(0x1abc)).is_some());
        assert!(tlb.lookup(VirtAddr((2 << 30) + 12345)).is_some());
        assert!(tlb.lookup(VirtAddr((4 << 20) + 777)).is_some());
        assert!(tlb.lookup(VirtAddr(0x8000)).is_none());
        assert_eq!(tlb.hits(), 3);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn shootdown_then_reuse_keeps_index_consistent() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(0x2000, 0x2000, PageSize::Size4K));
        tlb.insert(entry(0x3000, 0x3000, PageSize::Size4K));
        tlb.flush_page(VirtAddr(0x2000));
        assert_eq!(tlb.len(), 2);
        assert!(tlb.lookup(VirtAddr(0x1000)).is_some());
        assert!(tlb.lookup(VirtAddr(0x3000)).is_some());
        tlb.insert(entry(0x2000, 0x9000, PageSize::Size4K));
        assert_eq!(
            tlb.lookup(VirtAddr(0x2000)).unwrap().pa_base,
            PhysAddr(0x9000)
        );
        tlb.flush();
        assert!(tlb.is_empty());
        assert!(tlb.lookup(VirtAddr(0x1000)).is_none());
    }

    /// Three entries hit in `order`, through `touch` or through
    /// `lookup`, then two inserts: which of the three survive, and the
    /// hit count before the inserts.
    fn survivors(order: &[u64], via_touch: bool) -> (Vec<bool>, u64) {
        let mut tlb = Tlb::new(3);
        for va in [0x1000, 0x2000, 0x3000] {
            tlb.insert(entry(va, va, PageSize::Size4K));
        }
        for &va in order {
            if via_touch {
                let slot = (va / 0x1000 - 1) as usize;
                tlb.touch(slot);
            } else {
                assert!(tlb.lookup(VirtAddr(va + 0x10)).is_some());
            }
        }
        let hits = tlb.hits();
        tlb.insert(entry(0x4000, 0x4000, PageSize::Size4K));
        tlb.insert(entry(0x5000, 0x5000, PageSize::Size4K));
        let alive = [0x1000, 0x2000, 0x3000]
            .iter()
            .map(|&va| {
                tlb.index
                    .contains_key(&key_of(VirtAddr(va), PageSize::Size4K))
            })
            .collect();
        (alive, hits)
    }

    #[test]
    fn touch_evicts_like_lookup() {
        for order in [
            &[0x1000u64, 0x2000][..],
            &[0x3000, 0x3000, 0x1000],
            &[0x2000, 0x1000, 0x2000, 0x3000, 0x1000],
            &[0x1000, 0x1000, 0x1000],
            &[],
        ] {
            assert_eq!(
                survivors(order, true),
                survivors(order, false),
                "touch order {order:x?}"
            );
        }
    }

    #[test]
    fn mru_entry_names_the_serving_slot() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.mru_entry(), None);
        let a = entry(0x1000, 0x8000, PageSize::Size4K);
        let b = entry(2 << 20, 4 << 20, PageSize::Size2M);
        tlb.insert(a);
        tlb.insert(b);
        assert_eq!(tlb.mru_entry(), Some((1, b)));
        tlb.lookup(VirtAddr(0x1234));
        assert_eq!(tlb.mru_entry(), Some((0, a)));
    }

    #[test]
    fn overlapping_sizes_clear_disjoint_until_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(0x1000, 0x1000, PageSize::Size4K));
        tlb.insert(entry(2 << 20, 2 << 20, PageSize::Size2M));
        assert!(tlb.disjoint());
        // A stale 4 KiB translation inside the 2 MiB page.
        tlb.insert(entry((2 << 20) + 0x3000, 0x9000, PageSize::Size4K));
        assert!(!tlb.disjoint());
        tlb.flush();
        assert!(tlb.disjoint());
    }

    #[test]
    fn hole_translation() {
        let hole = MmuHole {
            va_base: VirtAddr(0x9000_0000_0000),
            size: 1 << 20,
            pa_base: PhysAddr(0x8000_0000),
            executable: false,
        };
        assert!(hole.contains(VirtAddr(0x9000_0000_0010)));
        assert!(!hole.contains(VirtAddr(0x9000_0010_0000)));
        assert_eq!(
            hole.translate(VirtAddr(0x9000_0000_0010)),
            PhysAddr(0x8000_0010)
        );
    }
}
