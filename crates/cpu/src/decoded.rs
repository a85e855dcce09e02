//! Decoded-block store: the host-side fast path through
//! fetch/translate/decode.
//!
//! Interpreter fetch pays, per simulated instruction, a 16-byte
//! `PhysMem` read plus a full byte-level re-decode of bytes that almost
//! never change. Each core therefore keeps one map from *physical*
//! address to [`DecodedBlock`]: a straight-line instruction run the
//! core's block-execution loop replays without re-entering fetch or
//! dispatch per instruction (see `Core::run` in
//! [`core_`](crate::core_)). There is no per-instruction memo: the step
//! path retires a few percent of instructions at most and decodes them
//! from bytes.
//!
//! Keying by physical address keeps the store honest across address
//! spaces: the same text frame decoded through two mappings shares its
//! blocks, and remaps cannot alias stale decodes. That key choice also
//! means the store needs exactly one invalidation mechanism — **text
//! writes**: every page a block is built from is marked *watched* in
//! [`PhysMem`](flick_mem::PhysMem); any write into a watched frame
//! bumps the store's `text_gen`. [`DecodedCache::get_block`] compares
//! that generation against its snapshot — one `u64` compare per probe
//! — and drops every block on mismatch. Self-modifying or reloaded code
//! is therefore never served stale.
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
//! Nothing is evicted. The map holds at most one block per start
//! offset of watched text, so its size is bounded by the text the core
//! has executed since the last text write, and a core serving many
//! tenants decodes each tenant's text once.
//!
//! The store is purely a *host* optimization: hits and misses here are
//! invisible to the simulated machine. Simulated I-TLB/I-cache charging
//! still runs on every fetch, so clocks, stats, and traces are
//! bit-identical with the fast path on or off (`tests/fastpath.rs` and
//! `tests/blocks.rs` enforce this).

use flick_isa::{AluOp, BranchOp, Inst, Target};
use flick_mem::{PhysAddr, U64BuildHasher, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

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
/// op — [`lower_spin`] callers gate on a successor edge existing), so
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
    /// Lazily patched successor links, parallel to `succ_off`: the
    /// first execution that resolves an edge stores a `Weak` to the
    /// successor block. `Weak` (not `Arc`) so self-loops and cycles —
    /// every hot loop is one — cannot keep invalidated blocks alive
    /// past a text_gen bump; `OnceLock` keeps the block `Sync`, so an
    /// `Arc<DecodedBlock>` inside a `Core` leaves `Machine` `Send`
    /// (`tests/determinism.rs` runs machines on several OS threads).
    /// The store never evicts, so a link dies only when a text write
    /// clears the store; an upgrade failure then degrades to a store
    /// lookup on that follow.
    pub links: [OnceLock<Weak<DecodedBlock>>; 2],
    /// The block pre-lowered to spin micro-ops ([`SpinOp`]), parallel
    /// to `insts`, or empty when any instruction falls outside the spin
    /// subset or the block has no successor edge (it can never
    /// self-loop). Empty means the spin tier never runs the block.
    pub spin: Vec<SpinOp>,
}

impl DecodedBlock {
    /// Resolves successor edge `idx` if it has been patched and the
    /// target block is still alive.
    #[inline]
    pub fn link(&self, idx: usize) -> Option<Arc<DecodedBlock>> {
        self.links[idx].get().and_then(Weak::upgrade)
    }

    /// Patches successor edge `idx`; returns true when this call did
    /// the patch. First writer wins — a dead `Weak` can never be
    /// replaced (`OnceLock` is write-once), so that edge degrades to a
    /// store lookup per follow, which only costs host time (and needs a
    /// text write that cleared the store under a live chain).
    #[inline]
    pub fn patch(&self, idx: usize, succ: &Arc<DecodedBlock>) -> bool {
        self.links[idx].set(Arc::downgrade(succ)).is_ok()
    }
}

/// Per-core decoded-block store, keyed by the physical address of each
/// block's first instruction. See the module docs for keying and
/// invalidation rules.
#[derive(Default)]
pub struct DecodedCache {
    blocks: HashMap<u64, Arc<DecodedBlock>, U64BuildHasher>,
    /// `PhysMem::text_gen` snapshot the stored blocks were decoded at.
    gen: u64,
}

impl DecodedCache {
    /// Creates an empty store.
    pub fn new() -> Self {
        DecodedCache::default()
    }

    /// Looks up the decoded block starting at physical address `pa`.
    /// A `text_gen` other than the snapshot (some watched frame was
    /// written since) drops every block, re-snapshots and misses.
    pub fn get_block(&mut self, pa: PhysAddr, text_gen: u64) -> Option<Arc<DecodedBlock>> {
        if text_gen != self.gen {
            self.clear();
            self.gen = text_gen;
            return None;
        }
        self.blocks.get(&pa.as_u64()).cloned()
    }

    /// Records a decoded block starting at `pa`. The caller must have
    /// called [`get_block`](Self::get_block) with the current
    /// generation (so the snapshot is up to date), and the block must
    /// lie entirely within one page.
    pub fn put_block(&mut self, pa: PhysAddr, block: Arc<DecodedBlock>) {
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
        self.blocks.insert(pa.as_u64(), block);
    }

    /// Drops every stored block.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(off: u16) -> Arc<DecodedBlock> {
        Arc::new(DecodedBlock {
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
            links: [OnceLock::new(), OnceLock::new()],
            spin: Vec::new(),
        })
    }

    #[test]
    fn block_round_trip() {
        let mut c = DecodedCache::new();
        let pa = PhysAddr(0x40_0010);
        assert!(c.get_block(pa, 0).is_none());
        let b = block(0x10);
        c.put_block(pa, Arc::clone(&b));
        assert!(Arc::ptr_eq(&c.get_block(pa, 0).unwrap(), &b));
        assert!(c.get_block(PhysAddr(0x40_0011), 0).is_none());
        assert!(c.get_block(PhysAddr(0x41_0010), 0).is_none());
    }

    #[test]
    fn generation_bump_drops_every_block() {
        let mut c = DecodedCache::new();
        c.get_block(PhysAddr(0x1000), 0);
        c.put_block(PhysAddr(0x1000), block(0));
        c.put_block(PhysAddr(0x2008), block(8));
        assert!(
            c.get_block(PhysAddr(0x1000), 1).is_none(),
            "stale gen must miss"
        );
        assert!(c.get_block(PhysAddr(0x2008), 1).is_none());
        // Re-populated under the new generation.
        c.put_block(PhysAddr(0x1000), block(0));
        assert!(c.get_block(PhysAddr(0x1000), 1).is_some());
        assert!(c.get_block(PhysAddr(0x2008), 1).is_none());
    }

    #[test]
    fn thousand_distinct_pages_all_retained() {
        // The store has no capacity bound: a large text footprint must
        // not evict anything.
        let mut c = DecodedCache::new();
        c.get_block(PhysAddr(0), 0);
        for page in 0..1000u64 {
            c.put_block(PhysAddr(page * PAGE_SIZE + 4), block(4));
        }
        for page in 0..1000u64 {
            assert!(
                c.get_block(PhysAddr(page * PAGE_SIZE + 4), 0).is_some(),
                "page {page} evicted"
            );
        }
    }

    #[test]
    fn chain_links_are_weak_and_write_once() {
        let a = block(0);
        let b = block(8);
        assert!(a.link(0).is_none(), "unpatched edge resolves to none");
        assert!(a.patch(0, &b), "first patch wins");
        assert!(!a.patch(0, &b), "second patch is a no-op");
        assert!(Arc::ptr_eq(&a.link(0).unwrap(), &b));
        // Self-loops must not keep the block alive through its own link.
        assert!(b.patch(0, &b));
        let w = Arc::downgrade(&b);
        drop(b);
        assert!(w.upgrade().is_none(), "weak links cannot leak cycles");
        drop(a.link(0)); // dead edge now resolves to none...
        assert!(a.link(0).is_none());
        let c = block(16);
        assert!(!a.patch(0, &c), "...and cannot be re-patched (write-once)");
    }

    #[test]
    fn clear_kills_links_into_the_store() {
        let mut c = DecodedCache::new();
        let a = block(0);
        c.get_block(PhysAddr(0x5000), 0);
        c.put_block(PhysAddr(0x5000), Arc::clone(&a));
        c.put_block(PhysAddr(0x5008), block(8));
        let b = c.get_block(PhysAddr(0x5008), 0).unwrap();
        assert!(a.patch(0, &b));
        drop(b);
        assert!(a.link(0).is_some(), "the store keeps the successor alive");
        c.clear();
        assert!(c.get_block(PhysAddr(0x5000), 0).is_none());
        assert!(a.link(0).is_none(), "a dead link resolves to none");
    }
}
