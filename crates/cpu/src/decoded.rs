//! Decoded-block store: the host-side fast path through
//! fetch/translate/decode.
//!
//! Interpreter fetch pays, per simulated instruction, a 16-byte
//! `PhysMem` read plus a full byte-level re-decode of bytes that almost
//! never change. Each core therefore keeps one store of
//! [`DecodedBlock`]s: straight-line instruction runs the core's
//! block-execution loop replays without re-entering fetch or dispatch
//! per instruction (see `Core::run` in [`core_`](crate::core_)). The
//! store is an arena — blocks live in one `Vec`, and a map from
//! *physical* address to arena index finds the block starting there.
//! There is no per-instruction memo: the step path retires a few
//! percent of instructions at most and decodes them from bytes.
//!
//! Keying by physical address keeps the store honest across address
//! spaces: the same text frame decoded through two mappings shares its
//! blocks, and remaps cannot alias stale decodes. That key choice also
//! means the store needs exactly one invalidation mechanism — **text
//! writes**: every page a block is built from is marked *watched* in
//! [`PhysMem`](flick_mem::PhysMem); any write into a watched frame
//! bumps the store's `text_gen`. [`DecodedCache::find`] compares that
//! generation against its snapshot — one `u64` compare per probe — and
//! drops every block on mismatch. Self-modifying or reloaded code is
//! therefore never served stale.
//!
//! CR3 switches and TLB flushes/shootdowns deliberately do *not* touch
//! the store: decode is a pure function of text bytes, so translation
//! changes cannot invalidate a physically-keyed decode, and permission
//! changes (mprotect NX flips) are enforced by the fetch path, which
//! re-walks and re-checks on every fetch-frame fill. Keeping decodes
//! across context switches is what lets migration-heavy workloads run
//! at fast-path speed — each switch used to force a full re-decode of
//! both processes' hot loops.
//!
//! Nothing is evicted. The store holds at most one block per start
//! offset of watched text, so its size is bounded by the text the core
//! has executed since the last text write, and a core serving many
//! tenants decodes each tenant's text once. Because a block leaves the
//! store only when the whole store is dropped, a successor link
//! ([`DecodedBlock::links`]) is a plain arena index: it stays valid
//! exactly as long as the block holding it, with no reference counting.
//!
//! The store is purely a *host* optimization: hits and misses here are
//! invisible to the simulated machine. Simulated I-TLB/I-cache charging
//! still runs on every fetch, so clocks, stats, and traces are
//! bit-identical with the fast path on or off (`tests/fastpath.rs` and
//! `tests/blocks.rs` enforce this).

use flick_isa::{AluOp, BranchOp, Inst, Target};
use flick_mem::{PhysAddr, U64BuildHasher, PAGE_SIZE};
use std::collections::HashMap;

/// Successor-offset value meaning "no static successor on this edge".
pub const NO_SUCC: u16 = u16::MAX;

/// One pre-decoded instruction of a [`DecodedBlock`], with everything
/// the block-execution loop needs resolved at decode time.
#[derive(Clone, Copy, Debug)]
pub struct BlockInst {
    /// The decoded instruction.
    pub inst: Inst,
    /// Page offset of the instruction's first byte.
    pub off: u16,
    /// Page offset of the *next* instruction (`off + len`).
    pub next_off: u16,
    /// Base cycles this instruction ticks (its CPI class, with the
    /// ALU-op subclass already resolved).
    pub cycles: u64,
    /// `cycles` converted to picoseconds with the exact per-call
    /// rounding of `Clock::tick`, so the block loop can accumulate
    /// time in a register and flush it once per block bit-identically.
    pub picos: u64,
    /// True when this instruction starts on a different I-cache line
    /// than its predecessor in the block — the points where the
    /// memoized fetch path would charge the I-cache. The first
    /// instruction's charge depends on the incoming fetch memo, so it
    /// is decided at execution time instead.
    pub new_line: bool,
}

/// Operand bundle of a lowered conditional branch ([`SpinOp`]): source
/// register indices pre-masked, the taken target pre-resolved to a
/// displacement from the page base (it may leave the page; the spin
/// loop exits on the resulting PC mismatch), and the fall-through page
/// offset.
#[derive(Clone, Copy, Debug)]
pub struct SpinBranch {
    /// First source register index, pre-masked.
    pub rs1: u8,
    /// Second source register index, pre-masked.
    pub rs2: u8,
    /// Taken-target displacement from the page base.
    pub taken: i64,
    /// Fall-through page offset.
    pub next: u16,
}

/// A pre-lowered micro-op of the *spin* tier: the memory-free
/// instruction subset re-encoded for single-dispatch execution. The
/// general [`Inst`] form needs two jump tables per instruction (the
/// `Inst` match, then `AluOp::eval`/`BranchOp::eval`) plus nested
/// payload decode; lowering at block-build time folds the dominant
/// ALU forms and every comparison into dedicated variants, pre-masks
/// register indices (so indexing a `[u64; 32]` file needs no bounds
/// check), pre-converts immediates to their wrapping-`u64` form, and
/// pre-resolves control targets to page-relative displacements.
/// Writes to `r0` are lowered to [`SpinOp::Nop`], so the executing
/// register file never needs a zero-discard check.
///
/// Straight-line variants carry no "next PC": within one decoded
/// block the intermediate PC values are dead (the vec order *is* the
/// execution order, and a spin-lowered block always ends in a control
/// op — the lowering's callers gate on a successor edge existing), so
/// only control variants set the PC. Purely a host-side re-encoding:
/// the net architectural effect of one pass over the micro-ops equals
/// one pass over the source instructions.
#[derive(Clone, Copy, Debug)]
pub enum SpinOp {
    /// `rd = rs1 + imm` — the dominant ALU-immediate form.
    AddImm {
        /// Destination register index, pre-masked.
        rd: u8,
        /// Source register index, pre-masked.
        rs1: u8,
        /// Immediate, pre-converted for `wrapping_add`.
        imm: u64,
    },
    /// `rd = rs1 + rs2`.
    Add {
        /// Destination register index, pre-masked.
        rd: u8,
        /// First source register index, pre-masked.
        rs1: u8,
        /// Second source register index, pre-masked.
        rs2: u8,
    },
    /// Any other register-register ALU operation.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register index, pre-masked.
        rd: u8,
        /// First source register index, pre-masked.
        rs1: u8,
        /// Second source register index, pre-masked.
        rs2: u8,
    },
    /// Any other ALU-immediate operation.
    AluImm {
        /// The operation.
        op: AluOp,
        /// Destination register index, pre-masked.
        rd: u8,
        /// Source register index, pre-masked.
        rs1: u8,
        /// Immediate, pre-converted to the `u64` operand form.
        imm: u64,
    },
    /// `rd = imm`.
    Li {
        /// Destination register index, pre-masked.
        rd: u8,
        /// The value.
        imm: u64,
    },
    /// Branch if equal.
    Beq(SpinBranch),
    /// Branch if not equal.
    Bne(SpinBranch),
    /// Branch if less-than, signed.
    Blt(SpinBranch),
    /// Branch if greater-or-equal, signed.
    Bge(SpinBranch),
    /// Branch if less-than, unsigned.
    Bltu(SpinBranch),
    /// Branch if greater-or-equal, unsigned.
    Bgeu(SpinBranch),
    /// Direct jump with link.
    Jal {
        /// Link register index, pre-masked (never `r0`; that lowers to
        /// [`SpinOp::Jmp`]).
        rd: u8,
        /// Target displacement from the page base.
        taken: i64,
        /// Page offset of the next instruction (the link value).
        next: u16,
    },
    /// Direct jump without link (`jal r0`).
    Jmp {
        /// Target displacement from the page base.
        taken: i64,
    },
    /// Indirect jump with link. The executor must discard the link
    /// write when `rd` is 0 (the only runtime zero-register case left).
    Jalr {
        /// Link register index, pre-masked.
        rd: u8,
        /// Base register index, pre-masked.
        rs1: u8,
        /// Displacement, pre-converted for `wrapping_add`.
        off: u64,
        /// Page offset of the next instruction (the link value).
        next: u16,
    },
    /// Return (`pc = ra`).
    Ret,
    /// No architectural effect (including lowered writes to `r0`).
    Nop,
}

/// Lowers a block's instructions to [`SpinOp`]s. Returns an empty
/// vector when any instruction falls outside the spin subset (loads,
/// stores, traps, unresolved targets), and the spin tier never runs
/// such a block.
pub(crate) fn lower_spin(insts: &[BlockInst]) -> Vec<SpinOp> {
    let m = |r: flick_isa::Reg| (r.index() & 31) as u8;
    let rel = |t: Target| match t {
        Target::Rel(d) => Some(d),
        Target::Label(_) | Target::Symbol(_) => None,
    };
    let mut ops = Vec::with_capacity(insts.len());
    for bi in insts {
        let next = bi.next_off;
        let op = match bi.inst {
            Inst::Alu { rd, .. } | Inst::AluImm { rd, .. } | Inst::Li { rd, .. }
                if rd.index() & 31 == 0 =>
            {
                SpinOp::Nop
            }
            Inst::Alu { op: AluOp::Add, rd, rs1, rs2 } => SpinOp::Add {
                rd: m(rd),
                rs1: m(rs1),
                rs2: m(rs2),
            },
            Inst::Alu { op, rd, rs1, rs2 } => SpinOp::Alu {
                op,
                rd: m(rd),
                rs1: m(rs1),
                rs2: m(rs2),
            },
            Inst::AluImm { op: AluOp::Add, rd, rs1, imm } => SpinOp::AddImm {
                rd: m(rd),
                rs1: m(rs1),
                imm: imm as i64 as u64,
            },
            Inst::AluImm { op, rd, rs1, imm } => SpinOp::AluImm {
                op,
                rd: m(rd),
                rs1: m(rs1),
                imm: imm as i64 as u64,
            },
            Inst::Li { rd, imm } => SpinOp::Li {
                rd: m(rd),
                imm: imm as u64,
            },
            Inst::Branch { op, rs1, rs2, target } => match rel(target) {
                Some(d) => {
                    let b = SpinBranch {
                        rs1: m(rs1),
                        rs2: m(rs2),
                        taken: bi.off as i64 + d,
                        next,
                    };
                    match op {
                        BranchOp::Eq => SpinOp::Beq(b),
                        BranchOp::Ne => SpinOp::Bne(b),
                        BranchOp::Lt => SpinOp::Blt(b),
                        BranchOp::Ge => SpinOp::Bge(b),
                        BranchOp::Ltu => SpinOp::Bltu(b),
                        BranchOp::Geu => SpinOp::Bgeu(b),
                    }
                }
                None => return Vec::new(),
            },
            Inst::Jal { rd, target } => match rel(target) {
                Some(d) => {
                    let taken = bi.off as i64 + d;
                    if rd.index() & 31 == 0 {
                        SpinOp::Jmp { taken }
                    } else {
                        SpinOp::Jal { rd: m(rd), taken, next }
                    }
                }
                None => return Vec::new(),
            },
            Inst::Jalr { rd, rs1, off } => SpinOp::Jalr {
                rd: m(rd),
                rs1: m(rs1),
                off: off as i64 as u64,
                next,
            },
            Inst::Ret => SpinOp::Ret,
            Inst::Nop => SpinOp::Nop,
            Inst::Ld { .. } | Inst::St { .. } | Inst::LiSym { .. } | Inst::Ecall { .. }
            | Inst::Halt => return Vec::new(),
        };
        ops.push(op);
    }
    ops
}

/// A decoded basic block: a straight-line instruction run within one
/// page, ending at the first control transfer (branch/jump/`ecall`/
/// `halt`), at the page boundary, or just before anything the step path
/// must handle itself (page-spanning, undecodable, misaligned or
/// pre-link instructions).
#[derive(Debug)]
pub struct DecodedBlock {
    /// The instructions, in execution order. Never empty.
    pub insts: Vec<BlockInst>,
    /// Sum of every instruction's `cycles` — one spin iteration's
    /// charge.
    pub total_cycles: u64,
    /// Sum of every instruction's `picos`. Each summand already
    /// carries `Clock::tick`'s per-call rounding, so charging this
    /// total once equals ticking instruction by instruction.
    pub total_picos: u64,
    /// Page offsets of the terminator's static successors within the
    /// same page — `[taken, fall-through]` for a conditional branch,
    /// `[target, NO_SUCC]` for a direct jump the builder chose not to
    /// extend through, `[NO_SUCC; 2]` otherwise (indirect transfers,
    /// traps, page exits). Offsets are PA-anchored (blocks are keyed by
    /// physical address), so a successor edge is valid in *every*
    /// address space that maps the frame — links never need clearing on
    /// a CR3 switch, only on text_gen invalidation, which drops the
    /// blocks themselves.
    pub succ_off: [u16; 2],
    /// Successor links, parallel to `succ_off`: the [`DecodedCache`]
    /// index of the successor block, or [`NO_LINK`] until the first
    /// execution that follows the edge resolves it. An index is only
    /// meaningful inside the store that holds this block, and dies with
    /// it: the store drops blocks and links together, never one alone.
    pub links: [u32; 2],
    /// The block pre-lowered to spin micro-ops ([`SpinOp`]), parallel
    /// to `insts`, or empty when any instruction falls outside the spin
    /// subset or the block has no successor edge (it can never
    /// self-loop). Empty means the spin tier never runs the block.
    pub spin: Vec<SpinOp>,
}

/// Link value meaning "edge not resolved yet".
pub const NO_LINK: u32 = u32::MAX;

/// Per-core decoded-block store: an arena of blocks plus a map from
/// the physical address of each block's first instruction to its arena
/// index. See the module docs for keying and invalidation rules.
#[derive(Default)]
pub struct DecodedCache {
    /// PA of a block's first instruction → its index in `blocks`.
    index: HashMap<u64, u32, U64BuildHasher>,
    blocks: Vec<DecodedBlock>,
    /// `PhysMem::text_gen` snapshot the stored blocks were decoded at.
    text_gen: u64,
}

impl DecodedCache {
    /// Creates an empty store.
    pub fn new() -> Self {
        DecodedCache::default()
    }

    /// Index of the decoded block starting at physical address `pa`.
    /// A `text_gen` other than the snapshot (some watched frame was
    /// written since) drops every block, re-snapshots and misses.
    pub fn find(&mut self, pa: PhysAddr, text_gen: u64) -> Option<u32> {
        if text_gen != self.text_gen {
            self.index.clear();
            self.blocks.clear();
            self.text_gen = text_gen;
            return None;
        }
        self.index.get(&pa.as_u64()).copied()
    }

    /// Stores a decoded block starting at `pa` and returns its index.
    /// The caller must have called [`find`](Self::find) with the
    /// current generation (so the snapshot is up to date), and the
    /// block must lie entirely within one page.
    pub fn insert(&mut self, pa: PhysAddr, block: DecodedBlock) -> u32 {
        debug_assert!(!block.insts.is_empty(), "blocks are never empty");
        // Superblocks decode through direct jumps, so offsets are not
        // monotonic and may land before the entry offset; the only
        // invariant is containment in the page.
        debug_assert!(
            block
                .insts
                .iter()
                .all(|bi| (bi.off as u64) < PAGE_SIZE && bi.next_off as u64 <= PAGE_SIZE),
            "blocks must lie within their page"
        );
        debug_assert!(
            block
                .succ_off
                .iter()
                .all(|&s| s == NO_SUCC || (s as u64) < PAGE_SIZE),
            "successor offsets must lie within the page"
        );
        let i = self.blocks.len() as u32;
        debug_assert!(i != NO_LINK, "block index space exhausted");
        self.blocks.push(block);
        self.index.insert(pa.as_u64(), i);
        i
    }

    /// The block at index `i`, as returned by [`find`](Self::find) or
    /// [`insert`](Self::insert) since the last clear.
    #[inline]
    pub fn block(&self, i: u32) -> &DecodedBlock {
        &self.blocks[i as usize]
    }

    /// Points successor edge `edge` of block `from` at block `to`.
    #[inline]
    pub fn link(&mut self, from: u32, edge: usize, to: u32) {
        self.blocks[from as usize].links[edge] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(off: u16) -> DecodedBlock {
        DecodedBlock {
            insts: vec![BlockInst {
                inst: Inst::Halt,
                off,
                next_off: off + 1,
                cycles: 1,
                picos: 417,
                new_line: false,
            }],
            total_cycles: 1,
            total_picos: 417,
            succ_off: [NO_SUCC; 2],
            links: [NO_LINK; 2],
            spin: Vec::new(),
        }
    }

    #[test]
    fn block_round_trip() {
        let mut c = DecodedCache::new();
        let pa = PhysAddr(0x40_0010);
        assert!(c.find(pa, 0).is_none());
        let i = c.insert(pa, block(0x10));
        assert_eq!(c.find(pa, 0), Some(i));
        assert_eq!(c.block(i).insts[0].off, 0x10);
        assert!(c.find(PhysAddr(0x40_0011), 0).is_none());
        assert!(c.find(PhysAddr(0x41_0010), 0).is_none());
    }

    #[test]
    fn generation_bump_drops_every_block_and_link() {
        let mut c = DecodedCache::new();
        c.find(PhysAddr(0x1000), 0);
        let a = c.insert(PhysAddr(0x1000), block(0));
        let b = c.insert(PhysAddr(0x2008), block(8));
        c.link(a, 0, b);
        c.link(b, 1, b);
        assert_eq!(c.block(a).links, [b, NO_LINK]);
        assert!(c.find(PhysAddr(0x1000), 1).is_none(), "stale gen must miss");
        assert!(c.find(PhysAddr(0x2008), 1).is_none());
        // Re-populated under the new generation: the arena restarts at
        // index 0, and a block rebuilt at a reused index carries none
        // of its predecessor's links.
        let a2 = c.insert(PhysAddr(0x2008), block(8));
        assert_eq!(a2, a, "arena indices are reused after a clear");
        assert_eq!(c.block(a2).links, [NO_LINK; 2]);
        assert_eq!(c.find(PhysAddr(0x2008), 1), Some(a2));
        assert!(c.find(PhysAddr(0x1000), 1).is_none());
    }

    #[test]
    fn thousand_distinct_pages_all_retained() {
        // The store has no capacity bound: a large text footprint must
        // not evict anything.
        let mut c = DecodedCache::new();
        c.find(PhysAddr(0), 0);
        for page in 0..1000u64 {
            c.insert(PhysAddr(page * PAGE_SIZE + 4), block(4));
        }
        for page in 0..1000u64 {
            assert_eq!(
                c.find(PhysAddr(page * PAGE_SIZE + 4), 0),
                Some(page as u32),
                "page {page} evicted"
            );
        }
    }
}
