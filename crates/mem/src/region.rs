//! The unified physical memory map and BAR remapping (paper Fig. 3).
//!
//! Host-view physical layout (defaults mirror the paper's example):
//!
//! ```text
//! 0x0000_0000 .. 0x8000_0000   host DRAM (2 GiB modelled)
//! 0x9000_0000 .. 0x9100_0000   BAR1: NxP SRAM (on-chip BRAM stacks)
//! 0x9100_0000 .. 0x9101_0000   BAR2: NxP MMIO (DMA / TLB-remap / doorbell)
//! 0x1_0000_0000 .. 0x2_0000_0000 BAR0: NxP DRAM (4 GiB DDR3)
//! ```
//!
//! The NxP-local bus sees host DRAM at the same addresses starting at 0
//! (through the PCIe bridge) but its own resources at *local* addresses
//! (DRAM at `0x8000_0000`, SRAM at `0x7000_0000`, MMIO at `0x6000_0000`).
//! Because BAR addresses are assigned dynamically by the host, the NxP TLB
//! carries driver-programmed remap windows that rewrite a host-view
//! physical address into the local bus address (§IV-A).

use crate::addr::PhysAddr;
use std::fmt;

/// Classification of a physical address by the system component that
/// backs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Host DDR4 DRAM.
    HostDram,
    /// NxP-side DDR3 DRAM (the 4 GiB data storage), reached through BAR0
    /// from the host.
    NxpDram,
    /// NxP on-chip block RAM used for the per-thread NxP stacks.
    NxpSram,
    /// NxP control registers (DMA engine, TLB remap, doorbells).
    NxpMmio,
    /// Nothing decodes this address.
    Unmapped,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::HostDram => "host-dram",
            Region::NxpDram => "nxp-dram",
            Region::NxpSram => "nxp-sram",
            Region::NxpMmio => "nxp-mmio",
            Region::Unmapped => "unmapped",
        };
        write!(f, "{s}")
    }
}

/// One BAR remap window programmed into the NxP TLB by the host driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemapWindow {
    /// Host-view base of the window (the BAR address the host assigned).
    pub host_base: PhysAddr,
    /// Window size in bytes.
    pub size: u64,
    /// NxP-local bus base the window maps to.
    pub local_base: PhysAddr,
}

impl RemapWindow {
    /// True when `addr` (host view) falls inside this window.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.host_base && addr.as_u64() < self.host_base.as_u64() + self.size
    }

    /// Rewrites a host-view address into the local bus address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the window.
    pub fn to_local(&self, addr: PhysAddr) -> PhysAddr {
        assert!(self.contains(addr), "{addr} outside remap window");
        self.local_base + (addr - self.host_base)
    }
}

/// The system physical memory map: region bases/sizes in both the host
/// view and the NxP-local view.
///
/// # Examples
///
/// ```
/// use flick_mem::{PhysAddr, Region, SystemMap};
///
/// let map = SystemMap::paper_default();
/// assert_eq!(map.classify(PhysAddr(0x1000)), Region::HostDram);
/// assert_eq!(map.classify(map.nxp_dram_host_base()), Region::NxpDram);
/// // The remap rule of Fig. 3: BAR0 host address -> NxP local address.
/// let local = map.host_to_local(map.nxp_dram_host_base());
/// assert_eq!(local, map.nxp_dram_local_base());
/// ```
#[derive(Clone, Debug)]
pub struct SystemMap {
    host_dram_size: u64,
    bar0: RemapWindow,
    bar1: RemapWindow,
    bar2: RemapWindow,
}

impl SystemMap {
    /// NxP-local base of the NxP DRAM (fixed by the FPGA design).
    pub const NXP_DRAM_LOCAL_BASE: PhysAddr = PhysAddr(0x8000_0000);
    /// NxP-local base of the stack SRAM.
    pub const NXP_SRAM_LOCAL_BASE: PhysAddr = PhysAddr(0x7000_0000);
    /// NxP-local base of the control registers.
    pub const NXP_MMIO_LOCAL_BASE: PhysAddr = PhysAddr(0x6000_0000);

    /// The configuration used throughout the reproduction: 2 GiB host
    /// DRAM, 4 GiB NxP DRAM behind BAR0 at `0x1_0000_0000` (PCIe BARs are
    /// naturally aligned, so a 4 GiB BAR sits on a 4 GiB boundary — which
    /// also lets the host map it with 1 GiB huge pages), 16 MiB stack
    /// SRAM behind BAR1, 64 KiB of control registers behind BAR2.
    pub fn paper_default() -> Self {
        SystemMap::with_bar0_base(PhysAddr(0x1_0000_0000))
    }

    /// Same layout but with a caller-chosen BAR0 base, modelling the fact
    /// that the host assigns BAR addresses dynamically and the driver must
    /// program the remap accordingly.
    pub fn with_bar0_base(bar0_base: PhysAddr) -> Self {
        let host_dram_size = 0x8000_0000; // 2 GiB
        assert!(
            bar0_base.as_u64() >= host_dram_size,
            "BAR0 must not overlap host DRAM"
        );
        assert!(
            bar0_base.is_aligned(4 << 30),
            "a 4 GiB BAR is naturally aligned by PCIe"
        );
        SystemMap {
            host_dram_size,
            bar0: RemapWindow {
                host_base: bar0_base,
                size: 4 << 30,
                local_base: Self::NXP_DRAM_LOCAL_BASE,
            },
            bar1: RemapWindow {
                host_base: PhysAddr(0x9000_0000),
                size: 16 << 20,
                local_base: Self::NXP_SRAM_LOCAL_BASE,
            },
            bar2: RemapWindow {
                host_base: PhysAddr(0x9100_0000),
                size: 64 << 10,
                local_base: Self::NXP_MMIO_LOCAL_BASE,
            },
        }
    }

    /// Host DRAM size in bytes.
    pub fn host_dram_size(&self) -> u64 {
        self.host_dram_size
    }

    /// Host-view base of the NxP DRAM window (BAR0).
    pub fn nxp_dram_host_base(&self) -> PhysAddr {
        self.bar0.host_base
    }

    /// NxP DRAM size in bytes.
    pub fn nxp_dram_size(&self) -> u64 {
        self.bar0.size
    }

    /// NxP-local base of the NxP DRAM.
    pub fn nxp_dram_local_base(&self) -> PhysAddr {
        self.bar0.local_base
    }

    /// Host-view base of the NxP stack SRAM (BAR1).
    pub fn nxp_sram_host_base(&self) -> PhysAddr {
        self.bar1.host_base
    }

    /// NxP stack SRAM size in bytes.
    pub fn nxp_sram_size(&self) -> u64 {
        self.bar1.size
    }

    /// Host-view base of the NxP control registers (BAR2).
    pub fn nxp_mmio_host_base(&self) -> PhysAddr {
        self.bar2.host_base
    }

    /// The remap windows the driver programs into the NxP TLB.
    pub fn remap_windows(&self) -> [RemapWindow; 3] {
        [self.bar0, self.bar1, self.bar2]
    }

    /// Classifies a host-view physical address.
    pub fn classify(&self, addr: PhysAddr) -> Region {
        if addr.as_u64() < self.host_dram_size {
            Region::HostDram
        } else if self.bar0.contains(addr) {
            Region::NxpDram
        } else if self.bar1.contains(addr) {
            Region::NxpSram
        } else if self.bar2.contains(addr) {
            Region::NxpMmio
        } else {
            Region::Unmapped
        }
    }

    /// The one mapped region holding every byte of `[start, start +
    /// len)`, or `None` when the range is empty, touches an unmapped
    /// address or straddles a region boundary. Lets a caller classify a
    /// whole page once instead of each access into it.
    pub fn uniform_region(&self, start: PhysAddr, len: u64) -> Option<Region> {
        let end = start.as_u64().checked_add(len)?;
        let region = self.classify(start);
        let (lo, hi) = match region {
            Region::HostDram => (0, self.host_dram_size),
            Region::NxpDram => window_bounds(&self.bar0),
            Region::NxpSram => window_bounds(&self.bar1),
            Region::NxpMmio => window_bounds(&self.bar2),
            Region::Unmapped => return None,
        };
        (len > 0 && start.as_u64() >= lo && end <= hi).then_some(region)
    }

    /// Applies the NxP TLB remap: rewrites a host-view physical address
    /// into the NxP-local bus address (identity for host DRAM, window
    /// translation for BAR regions).
    ///
    /// Returns `None` for addresses no NxP bus target decodes.
    pub fn host_to_local_checked(&self, addr: PhysAddr) -> Option<PhysAddr> {
        match self.classify(addr) {
            Region::HostDram => Some(addr),
            Region::NxpDram => Some(self.bar0.to_local(addr)),
            Region::NxpSram => Some(self.bar1.to_local(addr)),
            Region::NxpMmio => Some(self.bar2.to_local(addr)),
            Region::Unmapped => None,
        }
    }

    /// Like [`host_to_local_checked`](Self::host_to_local_checked) but
    /// panics on unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if nothing decodes `addr`.
    pub fn host_to_local(&self, addr: PhysAddr) -> PhysAddr {
        self.host_to_local_checked(addr)
            .unwrap_or_else(|| panic!("no NxP bus target decodes {addr}"))
    }

    /// The inverse rewrite: an NxP-local bus address back to the host
    /// view (used when the NxP masters a PCIe transaction toward a BAR
    /// alias, and by tests).
    pub fn local_to_host(&self, local: PhysAddr) -> Option<PhysAddr> {
        if local.as_u64() < self.host_dram_size {
            return Some(local);
        }
        for w in self.remap_windows() {
            if local >= w.local_base && local.as_u64() < w.local_base.as_u64() + w.size {
                return Some(w.host_base + (local - w.local_base));
            }
        }
        None
    }
}

fn window_bounds(w: &RemapWindow) -> (u64, u64) {
    (w.host_base.as_u64(), w.host_base.as_u64() + w.size)
}

impl Default for SystemMap {
    fn default() -> Self {
        SystemMap::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_regions() {
        let m = SystemMap::paper_default();
        assert_eq!(m.classify(PhysAddr(0)), Region::HostDram);
        assert_eq!(m.classify(PhysAddr(0x7FFF_FFFF)), Region::HostDram);
        assert_eq!(m.classify(PhysAddr(0x9000_0000)), Region::NxpSram);
        assert_eq!(m.classify(PhysAddr(0x9100_0008)), Region::NxpMmio);
        assert_eq!(m.classify(PhysAddr(0x1_0000_0000)), Region::NxpDram);
        assert_eq!(m.classify(PhysAddr(0x1_FFFF_FFFF)), Region::NxpDram);
        assert_eq!(m.classify(PhysAddr(0x2_0000_0000)), Region::Unmapped);
        assert_eq!(m.classify(PhysAddr(0x8800_0000)), Region::Unmapped);
    }

    #[test]
    fn uniform_region_covers_whole_pages_only() {
        let m = SystemMap::paper_default();
        let gib = 1 << 30;
        assert_eq!(m.uniform_region(PhysAddr(0), gib), Some(Region::HostDram));
        assert_eq!(
            m.uniform_region(PhysAddr(0x1_4000_0000), gib),
            Some(Region::NxpDram)
        );
        assert_eq!(
            m.uniform_region(PhysAddr(0x9000_0000), 2 << 20),
            Some(Region::NxpSram)
        );
        // Straddles host DRAM's end, the SRAM/MMIO BARs and the holes
        // between them.
        assert_eq!(m.uniform_region(PhysAddr(0x4000_0000), 2 * gib), None);
        assert_eq!(m.uniform_region(PhysAddr(0x8000_0000), gib), None);
        assert_eq!(m.uniform_region(PhysAddr(0x9100_0000), 2 << 20), None);
        assert_eq!(m.uniform_region(PhysAddr(0x2_0000_0000), 4096), None);
        assert_eq!(m.uniform_region(PhysAddr(0x1000), 0), None);
        assert_eq!(m.uniform_region(PhysAddr(u64::MAX - 10), 4096), None);
    }

    #[test]
    fn remap_round_trips() {
        let m = SystemMap::paper_default();
        let host = PhysAddr(0x1_0000_0000 + 0x1234);
        let local = m.host_to_local(host);
        assert_eq!(local, PhysAddr(0x8000_1234));
        assert_eq!(m.local_to_host(local), Some(host));
    }

    #[test]
    fn host_dram_identity_remap() {
        let m = SystemMap::paper_default();
        let a = PhysAddr(0x1000);
        assert_eq!(m.host_to_local(a), a);
        assert_eq!(m.local_to_host(a), Some(a));
    }

    #[test]
    fn dynamic_bar_assignment_changes_offset() {
        // The paper's Fig. 3 point: BAR base is host-assigned, the remap
        // register absorbs the difference.
        let m = SystemMap::with_bar0_base(PhysAddr(0x2_0000_0000));
        let host = PhysAddr(0x2_0000_0000);
        assert_eq!(m.host_to_local(host), SystemMap::NXP_DRAM_LOCAL_BASE);
    }

    #[test]
    #[should_panic(expected = "BAR0 must not overlap host DRAM")]
    fn bar0_overlap_rejected() {
        SystemMap::with_bar0_base(PhysAddr(0x4000_0000));
    }

    #[test]
    fn unmapped_remap_is_none() {
        let m = SystemMap::paper_default();
        assert_eq!(m.host_to_local_checked(PhysAddr(0x2_0000_0000)), None);
        // Local view: [0, 2 GiB) is host DRAM through the bridge, so the
        // first locally-unmapped address is above the DRAM window.
        assert_eq!(m.local_to_host(PhysAddr(0x5_0000_0000)), None);
    }
}
