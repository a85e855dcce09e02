//! Sparse physical memory backing store.

use crate::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::hash::U64BuildHasher;
use std::collections::HashMap;

/// One resident frame: its bytes plus a *watched* flag. Watched frames
/// are the ones some host-side structure (the cores' decoded-block
/// stores) derived state from; any write to a watched frame bumps the
/// store's [text generation](PhysMem::text_gen) so the derived state can
/// be discarded. The flag costs nothing on the write path — the frame is
/// already in hand when the bytes land.
struct Frame {
    data: Box<[u8; PAGE_SIZE as usize]>,
    watched: bool,
}

impl Frame {
    fn new() -> Self {
        Frame {
            data: Box::new([0u8; PAGE_SIZE as usize]),
            watched: false,
        }
    }
}

/// Byte-addressable sparse physical memory.
///
/// Frames are allocated lazily on first write; reads of untouched memory
/// return zeroes (deterministic, unlike real DRAM). One `PhysMem` backs
/// the entire unified physical address space — host DRAM and NxP DRAM are
/// the *same store* at different addresses, which is exactly the
/// unified-physical-space property Flick relies on.
///
/// # Examples
///
/// ```
/// use flick_mem::{PhysAddr, PhysMem};
///
/// let mut mem = PhysMem::new();
/// mem.write_u32(PhysAddr(0x1000), 0xABCD_EF01);
/// assert_eq!(mem.read_u32(PhysAddr(0x1000)), 0xABCD_EF01);
/// assert_eq!(mem.read_u32(PhysAddr(0x9999_9000)), 0); // untouched
/// ```
#[derive(Default)]
pub struct PhysMem {
    frames: HashMap<u64, Frame, U64BuildHasher>,
    /// Bumped on every write that touches a watched frame. Consumers
    /// that cache data derived from watched frames (decoded-block
    /// stores) compare this against their snapshot: one integer compare
    /// per use, regardless of how many pages they cached.
    text_gen: u64,
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("resident_frames", &self.frames.len())
            .finish()
    }
}

impl PhysMem {
    /// Creates an empty store.
    pub fn new() -> Self {
        PhysMem::default()
    }

    /// Number of frames touched so far (for memory-footprint assertions).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    fn frame(&self, fno: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.frames.get(&fno).map(|fr| &*fr.data)
    }

    /// Mutable frame access for writers. Bumps the text generation when
    /// the frame is watched — the caller is about to scribble on it.
    fn frame_mut(&mut self, fno: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let fr = self.frames.entry(fno).or_insert_with(Frame::new);
        if fr.watched {
            self.text_gen += 1;
        }
        &mut fr.data
    }

    /// Marks the frame containing `addr` as watched: any later write to
    /// it bumps [`text_gen`](Self::text_gen). Used by decoded-block
    /// stores to detect self-modifying / reloaded code.
    pub fn watch_text(&mut self, addr: PhysAddr) {
        self.frames
            .entry(addr.as_u64() >> PAGE_SHIFT)
            .or_insert_with(Frame::new)
            .watched = true;
    }

    /// Whether the frame containing `addr` is watched. The basic-block
    /// engine marks every page it decodes a block from; tests use this
    /// to assert the watch actually landed (a missed watch would let a
    /// self-modified block replay stale instructions).
    pub fn watched(&self, addr: PhysAddr) -> bool {
        self.frames
            .get(&(addr.as_u64() >> PAGE_SHIFT))
            .is_some_and(|fr| fr.watched)
    }

    /// Generation counter for writes into watched frames. Cached decode
    /// state is valid only while this value is unchanged. Inlined: the
    /// chain lane re-reads it after every followed block.
    #[inline]
    pub fn text_gen(&self) -> u64 {
        self.text_gen
    }

    /// Reads `buf.len()` bytes starting at `addr`, crossing frames as
    /// needed.
    pub fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut a = addr.as_u64();
        let mut off = 0usize;
        while off < buf.len() {
            let fno = a >> PAGE_SHIFT;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let n = (buf.len() - off).min(PAGE_SIZE as usize - in_page);
            match self.frame(fno) {
                Some(fr) => buf[off..off + n].copy_from_slice(&fr[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
            a += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`, crossing frames as needed.
    pub fn write_bytes(&mut self, addr: PhysAddr, buf: &[u8]) {
        let mut a = addr.as_u64();
        let mut off = 0usize;
        while off < buf.len() {
            let fno = a >> PAGE_SHIFT;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let n = (buf.len() - off).min(PAGE_SIZE as usize - in_page);
            self.frame_mut(fno)[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
            a += n as u64;
        }
    }

    /// Fills `len` bytes starting at `addr` with `byte`.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, byte: u8) {
        let mut a = addr.as_u64();
        let end = a + len;
        while a < end {
            let fno = a >> PAGE_SHIFT;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let n = ((end - a) as usize).min(PAGE_SIZE as usize - in_page);
            self.frame_mut(fno)[in_page..in_page + n].fill(byte);
            a += n as u64;
        }
    }

    /// Reads a `bytes`-wide little-endian word (1, 2, 4 or 8 bytes,
    /// zero-extended) that lies inside one frame: a single frame probe
    /// and a fixed-width copy. A non-resident frame reads as zero and
    /// stays unmaterialized. Agrees with [`read_bytes`](Self::read_bytes)
    /// for every in-frame access; callers route page-spanning accesses
    /// there instead.
    ///
    /// # Panics
    ///
    /// Panics when the word would cross the frame boundary.
    #[inline]
    pub fn read_word(&self, addr: PhysAddr, bytes: u64) -> u64 {
        let o = (addr.as_u64() & (PAGE_SIZE - 1)) as usize;
        let Some(fr) = self.frame(addr.as_u64() >> PAGE_SHIFT) else {
            return 0;
        };
        match bytes {
            1 => fr[o] as u64,
            2 => u16::from_le_bytes(le(&fr[o..o + 2])) as u64,
            4 => u32::from_le_bytes(le(&fr[o..o + 4])) as u64,
            _ => {
                debug_assert_eq!(bytes, 8, "word width");
                u64::from_le_bytes(le(&fr[o..o + 8]))
            }
        }
    }

    /// Writes the low `bytes` bytes (1, 2, 4 or 8) of `val`, little
    /// endian, inside one frame: a single frame probe (materializing
    /// the frame if needed) and a fixed-width copy. Bumps
    /// [`text_gen`](Self::text_gen) exactly when the frame is watched,
    /// like [`write_bytes`](Self::write_bytes).
    ///
    /// # Panics
    ///
    /// Panics when the word would cross the frame boundary.
    #[inline]
    pub fn write_word(&mut self, addr: PhysAddr, bytes: u64, val: u64) {
        let o = (addr.as_u64() & (PAGE_SIZE - 1)) as usize;
        let fr = self.frame_mut(addr.as_u64() >> PAGE_SHIFT);
        let b = val.to_le_bytes();
        match bytes {
            1 => fr[o] = b[0],
            2 => fr[o..o + 2].copy_from_slice(&b[..2]),
            4 => fr[o..o + 4].copy_from_slice(&b[..4]),
            _ => {
                debug_assert_eq!(bytes, 8, "word width");
                fr[o..o + 8].copy_from_slice(&b);
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&self, addr: PhysAddr) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: PhysAddr, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: PhysAddr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
}

/// Copies a slice whose length the caller fixed into an array.
#[inline]
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    b.try_into().expect("caller slices exactly N bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_first_read() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(PhysAddr(0x12345)), 0);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn read_back_written_values() {
        let mut mem = PhysMem::new();
        mem.write_u8(PhysAddr(1), 0x11);
        mem.write_u16(PhysAddr(2), 0x2222);
        mem.write_u32(PhysAddr(4), 0x3333_3333);
        mem.write_u64(PhysAddr(8), 0x4444_4444_4444_4444);
        assert_eq!(mem.read_u8(PhysAddr(1)), 0x11);
        assert_eq!(mem.read_u16(PhysAddr(2)), 0x2222);
        assert_eq!(mem.read_u32(PhysAddr(4)), 0x3333_3333);
        assert_eq!(mem.read_u64(PhysAddr(8)), 0x4444_4444_4444_4444);
    }

    #[test]
    fn cross_page_transfer() {
        let mut mem = PhysMem::new();
        let addr = PhysAddr(PAGE_SIZE - 3);
        let data: Vec<u8> = (0..16).collect();
        mem.write_bytes(addr, &data);
        let mut back = vec![0u8; 16];
        mem.read_bytes(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn fill_spans_pages() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr(PAGE_SIZE - 8), 16, 0xAB);
        assert_eq!(mem.read_u8(PhysAddr(PAGE_SIZE - 1)), 0xAB);
        assert_eq!(mem.read_u8(PhysAddr(PAGE_SIZE)), 0xAB);
        assert_eq!(mem.read_u8(PhysAddr(PAGE_SIZE + 8)), 0);
    }

    #[test]
    fn sparse_far_apart_addresses() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr(0), 1);
        mem.write_u64(PhysAddr(0x1_0000_0000), 2); // 4 GiB away
        assert_eq!(mem.read_u64(PhysAddr(0)), 1);
        assert_eq!(mem.read_u64(PhysAddr(0x1_0000_0000)), 2);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn watched_frames_bump_text_gen() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr(0x1000), 1);
        mem.write_u64(PhysAddr(0x2000), 2);
        let g0 = mem.text_gen();
        mem.watch_text(PhysAddr(0x1008)); // watches the whole 0x1000 frame
        assert!(mem.watched(PhysAddr(0x1FFF)));
        assert!(!mem.watched(PhysAddr(0x2000)));

        // Writes to unwatched frames leave the generation alone.
        mem.write_u64(PhysAddr(0x2000), 3);
        assert_eq!(mem.text_gen(), g0);

        // Any write into the watched frame bumps it.
        mem.write_u8(PhysAddr(0x1FFF), 7);
        assert!(mem.text_gen() > g0);

        // Reads never bump.
        let g1 = mem.text_gen();
        let _ = mem.read_u64(PhysAddr(0x1000));
        assert_eq!(mem.text_gen(), g1);

        // Watching an untouched frame materializes it zeroed.
        mem.watch_text(PhysAddr(0x9000));
        assert_eq!(mem.read_u64(PhysAddr(0x9000)), 0);
        mem.fill(PhysAddr(0x9000), 16, 0xEE);
        assert!(mem.text_gen() > g1);
    }

    #[test]
    fn word_reads_of_absent_frames_are_zero_and_do_not_materialize() {
        let mem = PhysMem::new();
        for bytes in [1, 2, 4, 8] {
            assert_eq!(mem.read_word(PhysAddr(0x7000 + 3), bytes), 0);
        }
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn word_writes_bump_text_gen_only_on_watched_frames() {
        let mut mem = PhysMem::new();
        mem.watch_text(PhysAddr(0x1000));
        let g0 = mem.text_gen();
        mem.write_word(PhysAddr(0x2008), 8, 0xAB);
        assert_eq!(mem.text_gen(), g0, "unwatched frame");
        mem.write_word(PhysAddr(0x1FFE), 2, 0xCDEF);
        assert_eq!(mem.text_gen(), g0 + 1, "watched frame");
        let _ = mem.read_word(PhysAddr(0x1FFE), 2);
        assert_eq!(mem.text_gen(), g0 + 1, "reads never bump");
    }

    #[test]
    fn word_helpers_agree_with_byte_paths() {
        // Every width at offsets near both frame edges and in between:
        // the word helpers and the byte loop must see and leave
        // identical bytes.
        for bytes in [1u64, 2, 4, 8] {
            for off in [0, 1, 3, 7, 100, PAGE_SIZE - 8, PAGE_SIZE - bytes] {
                let addr = PhysAddr(0x3000 + off);
                let val = 0x8877_6655_4433_2211u64.rotate_left(off as u32);
                let mut a = PhysMem::new();
                let mut b = PhysMem::new();
                a.fill(PhysAddr(0x3000), PAGE_SIZE, 0x5A);
                b.fill(PhysAddr(0x3000), PAGE_SIZE, 0x5A);
                a.write_word(addr, bytes, val);
                b.write_bytes(addr, &val.to_le_bytes()[..bytes as usize]);
                let mut fa = vec![0u8; PAGE_SIZE as usize];
                let mut fb = vec![0u8; PAGE_SIZE as usize];
                a.read_bytes(PhysAddr(0x3000), &mut fa);
                b.read_bytes(PhysAddr(0x3000), &mut fb);
                assert_eq!(fa, fb, "write width {bytes} at {off}");
                let mut back = [0u8; 8];
                b.read_bytes(addr, &mut back[..bytes as usize]);
                assert_eq!(a.read_word(addr, bytes), u64::from_le_bytes(back));
                assert_eq!(a.read_word(addr, bytes), b.read_word(addr, bytes));
            }
        }
    }

    #[test]
    fn misaligned_word_access() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr(0x1003), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(PhysAddr(0x1003)), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(PhysAddr(0x1003)), 0x08); // little endian
    }
}
