//! Differential proof that the basic-block execution engine is a pure
//! host-side optimization at the **core** level: a `Core` with the fast
//! path disabled steps one instruction at a time through the full
//! fetch→translate→decode→execute path (the reference); with it enabled
//! the core runs the block lane, which replays decoded superblocks,
//! follows patched successor links without returning to top-level
//! dispatch, and spins charge-free self-loops through pre-lowered
//! micro-ops. The two engines must agree bit-for-bit on the simulated
//! clock, cycle count, every counter, the PC, all registers and the
//! stop reason — for random programs and random bytes, at every fuel
//! cutoff, across faults raised mid-block, undecodable or truncated
//! text, self-modifying text (including text a live chain points at),
//! page-spanning instructions and TLB/CR3 invalidations, on all three
//! ISAs. The block lane's data memo is held to the same bar over
//! a window of 4 KiB, 2 MiB and 1 GiB pages, through D-TLB eviction,
//! page-spanning accesses, `protect`, MMU holes and stores into text.
//!
//! Cases are generated from the repo's own deterministic [`Xoshiro256`]
//! so every run explores the same inputs — a failure reproduces by
//! rerunning the test, no external shrinker required. (The machine-level
//! twin of this suite lives in `tests/fastpath.rs`.)

use flick_cpu::{Core, CoreConfig, CoreCounters, Exception, MemEnv, MmuHole, StopReason};
use flick_isa::inst::AluOp;
use flick_isa::{abi, FuncBuilder, Inst, Isa, MemSize, Reg, TargetIsa};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_paging::{flags, AddressSpace, BumpFrameAlloc, PageSize};
use flick_sim::{Picos, Xoshiro256};

const TEXT: u64 = 0x40_0000;

fn isa_of(target: TargetIsa) -> Isa {
    target.isa()
}

/// Identity-maps the low 16 MiB, plants `bytes` at [`TEXT`], and marks
/// the text range NX when the NxP core will run it (inverted
/// convention, as in the cpu crate's own fixtures).
fn fixture(target: TargetIsa, bytes: &[u8]) -> (PhysMem, PhysAddr) {
    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x300_0000));
    let mut asp = AddressSpace::new(&mut mem, &mut alloc);
    asp.map_range(
        &mut mem,
        &mut alloc,
        VirtAddr(0),
        PhysAddr(0),
        16 << 20,
        flags::PRESENT | flags::WRITABLE | flags::USER,
    )
    .unwrap();
    if target != TargetIsa::Host {
        asp.protect(&mut mem, VirtAddr(TEXT), 0x10_0000, flags::NX, 0)
            .unwrap();
    }
    let cr3 = asp.cr3();
    mem.write_bytes(PhysAddr(TEXT), bytes);
    (mem, cr3)
}

/// The engines every differential runs, as `fast_path` settings: the
/// block lane (the production default), then the step path it must
/// match. The reference comes last.
const ENGINES: [bool; 2] = [true, false];

fn core_for(target: TargetIsa, fast_path: bool, cr3: PhysAddr) -> Core {
    let mut cfg = if target == TargetIsa::Host {
        CoreConfig::host()
    } else {
        CoreConfig::accel(target)
    };
    cfg.fast_path = fast_path;
    let mut core = Core::new(cfg);
    core.set_cr3(cr3);
    core.set_pc(VirtAddr(TEXT));
    // Seed every register with an address inside the identity map so
    // random loads/stores sometimes land on mapped memory and sometimes
    // (with large random offsets) fault — both outcomes must match.
    for r in 1..32u8 {
        core.set_reg(Reg(r), 0x2000 * r as u64);
    }
    core.set_reg(abi::SP, 0xF0_0000);
    core
}

/// Everything the simulation can observe about a core after a run.
#[derive(Debug, PartialEq, Eq)]
struct Snap {
    stop: StopReason,
    pc: u64,
    regs: [u64; 32],
    now: Picos,
    cycles: u64,
    counters: CoreCounters,
}

fn snap(stop: StopReason, core: &Core) -> Snap {
    Snap {
        stop,
        pc: core.pc().0,
        regs: std::array::from_fn(|i| core.reg(Reg(i as u8))),
        now: core.clock().now(),
        cycles: core.clock().cycles().count(),
        counters: *core.counters(),
    }
}

/// Runs `bytes` on both engines with the given fuel and asserts the
/// snapshots are identical; returns one of them for further checks.
fn diff_run(target: TargetIsa, bytes: &[u8], fuel: u64, label: &str) -> Snap {
    diff_run_at(target, bytes, 0, fuel, label)
}

/// [`diff_run`] entering the text at byte offset `entry` instead of its
/// start.
fn diff_run_at(target: TargetIsa, bytes: &[u8], entry: u64, fuel: u64, label: &str) -> Snap {
    let [blocks, step] = ENGINES.map(|engine| {
        let (mut mem, cr3) = fixture(target, bytes);
        let mut core = core_for(target, engine, cr3);
        core.set_pc(VirtAddr(TEXT + entry));
        let stop = core.run(&mut mem, &MemEnv::paper_default(), fuel);
        snap(stop, &core)
    });
    assert_eq!(blocks, step, "{label}: block vs step diverged at fuel {fuel}");
    blocks
}

const ALL_ALU: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Divu,
    AluOp::Remu,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
];

const ALL_SIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];

/// One random instruction. Memory offsets are small half the time (so
/// they hit the identity map) and fully random otherwise (so they
/// fault); terminators appear with low probability so most programs
/// contain several multi-instruction blocks.
fn arb_inst(rng: &mut Xoshiro256) -> Inst {
    let reg = |rng: &mut Xoshiro256| Reg(rng.gen_range(0, 32) as u8);
    let alu = |rng: &mut Xoshiro256| ALL_ALU[rng.gen_range(0, ALL_ALU.len() as u64) as usize];
    let size = |rng: &mut Xoshiro256| ALL_SIZES[rng.gen_range(0, 4) as usize];
    let off = |rng: &mut Xoshiro256| {
        if rng.gen_bool(0.5) {
            rng.gen_range(0, 0x1000) as i32
        } else {
            rng.next_u64() as i32
        }
    };
    match rng.gen_range(0, 16) {
        0..=3 => Inst::Alu {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        4..=7 => Inst::AluImm {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            imm: rng.next_u64() as i32,
        },
        8..=9 => Inst::Li {
            rd: reg(rng),
            imm: rng.next_u64() as i64,
        },
        10..=11 => Inst::Ld {
            rd: reg(rng),
            base: reg(rng),
            off: off(rng),
            size: size(rng),
        },
        12..=13 => Inst::St {
            rs: reg(rng),
            base: reg(rng),
            off: off(rng),
            size: size(rng),
        },
        14 => match rng.gen_range(0, 4) {
            0 => Inst::Jalr {
                rd: reg(rng),
                rs1: reg(rng),
                off: off(rng),
            },
            1 => Inst::Ecall {
                service: rng.next_u64() as u16,
            },
            2 => Inst::Ret,
            _ => Inst::Halt,
        },
        _ => Inst::Nop,
    }
}

fn encode(target: TargetIsa, insts: &[Inst]) -> Vec<u8> {
    let mut f = FuncBuilder::new("t", target);
    for i in insts {
        f.push(*i);
    }
    isa_of(target).encode(&f.finish()).unwrap().bytes
}

fn random_bytes(rng: &mut Xoshiro256, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Random programs, all three ISAs, several fuel cutoffs each —
/// including cutoffs that land mid-block and past the program's
/// natural stop. Then the same for garbage text: random bytes, half of
/// them with an encoded random program spliced in at a fetch-aligned
/// offset (illegal encodings, garbage operands, text that turns into
/// garbage mid-stream), and encoded programs that run into random bytes
/// across the end of the text page (decodes truncated at the page
/// edge).
#[test]
fn random_programs_step_vs_block_identical() {
    const TARGETS: [TargetIsa; 3] = [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64];
    let mut rng = Xoshiro256::seeded(0xb10c_0001);
    for case in 0..48 {
        let n = rng.gen_range(1, 48);
        for target in TARGETS {
            let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
            let bytes = encode(target, &insts);
            let extra = rng.gen_range(1, n + 1);
            for fuel in [0, 1, 2, 3, n / 2, n - 1, n, n + extra, 10_000] {
                diff_run(target, &bytes, fuel, &format!("random case {case} {target:?}"));
            }
        }
    }

    let mut rng = Xoshiro256::seeded(0xb10c_0002);
    for case in 0..48 {
        for target in TARGETS {
            let align = isa_of(target).fetch_align();
            let len = rng.gen_range(1, 256);
            let mut bytes = random_bytes(&mut rng, len);
            // Pure garbage is entered at its first byte, a spliced
            // program at its own first instruction.
            let mut entry = 0;
            if rng.gen_bool(0.5) {
                let n = rng.gen_range(1, 24);
                let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
                entry = rng.gen_range(0, len + 1) & !(align - 1);
                let tail = bytes.split_off(entry as usize);
                bytes.extend(encode(target, &insts));
                bytes.extend(tail);
            }
            for fuel in [0, 1, 2, 3, 7, 64, 10_000] {
                let label = format!("garbage case {case} {target:?}");
                diff_run_at(target, &bytes, entry, fuel, &label);
            }
        }
    }

    let mut rng = Xoshiro256::seeded(0xb10c_0003);
    let mut at_edge = 0;
    for case in 0..48 {
        for target in TARGETS {
            let align = isa_of(target).fetch_align();
            let n = rng.gen_range(1, 24);
            let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
            let text = encode(target, &insts);
            // End the program 0..16 bytes short of the page edge, then
            // let garbage run on into the next page.
            let gap = rng.gen_range(0, 16);
            let entry = (0x1000 - gap - text.len() as u64) & !(align - 1);
            let mut bytes = vec![0u8; entry as usize];
            bytes.extend(text);
            let garbage = 0x1000 + 32 - bytes.len() as u64;
            bytes.extend(random_bytes(&mut rng, garbage));
            for fuel in [1, 3, n - 1, n, n + 1, n + 4, 10_000] {
                let label = format!("page-edge garbage case {case} {target:?}");
                let s = diff_run_at(target, &bytes, entry, fuel, &label);
                if fuel == 10_000 && s.pc >= TEXT + 0x1000 - 16 {
                    at_edge += 1;
                }
            }
        }
    }
    // Most programs fault on a random load first; enough must get
    // through to the page edge for the cases to mean anything.
    assert!(
        at_edge >= 10,
        "only {at_edge} page-edge cases reached the edge"
    );
}

/// The bench interpreter loop (4-instruction blocks ending in a taken
/// branch) at **every** fuel cutoff: fuel must expire on exactly the
/// same instruction whether or not that instruction sits mid-block.
#[test]
fn tight_loop_identical_at_every_fuel_cutoff() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let mut f = FuncBuilder::new("t", target);
        let lp = f.new_label();
        f.li(abi::S1, 12);
        f.bind(lp);
        f.addi(abi::A0, abi::A0, 1);
        f.addi(abi::A1, abi::A1, 2);
        f.addi(abi::S1, abi::S1, -1);
        f.bne(abi::S1, abi::ZERO, lp);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        let mut halted = None;
        for fuel in 0..=60 {
            let s = diff_run(target, &bytes, fuel, "tight loop");
            if s.stop == StopReason::Halt && halted.is_none() {
                halted = Some(fuel);
            }
        }
        // 1 li + 12 iterations of 4 + halt.
        assert_eq!(halted, Some(50), "{target:?}: loop retired a wrong count");
        // The block lane retires the self-loop through the spin tier.
        let (mut mem, cr3) = fixture(target, &bytes);
        let mut core = core_for(target, true, cr3);
        core.run(&mut mem, &MemEnv::paper_default(), u64::MAX);
        let spun = core.chain_counters().spin_insts;
        assert!(spun > 0, "{target:?}: self-loop never spun");
    }
}

/// Lays out the self-modifying-text program. `patch` is the 8-byte
/// payload the store writes over the instruction at `victim_off`; both
/// depend on the encoding, so [`smc_program`] iterates to a fixpoint.
fn smc_insts(patch: u64, victim_off: i32) -> Vec<Inst> {
    vec![
        Inst::Li {
            rd: abi::T0,
            imm: TEXT as i64,
        },
        Inst::Li {
            rd: abi::T1,
            imm: patch as i64,
        },
        Inst::St {
            rs: abi::T1,
            base: abi::T0,
            off: victim_off,
            size: MemSize::B8,
        },
        // The victim and its tail: decoded into the same block as the
        // store. A block engine that kept replaying the stale decode
        // would retire these adds; the real text now halts first.
        Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 1,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 2,
        },
        Inst::Halt,
    ]
}

/// Per-instruction byte offsets of an encoded stream.
fn offsets(isa: Isa, bytes: &[u8]) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        offs.push(off);
        let (_, len) = isa.decode(&bytes[off..]).unwrap();
        off += len;
    }
    offs
}

/// Builds the host-ISA SMC program: a store inside a straight-line
/// block overwrites the very next instruction with a `halt`. Immediate
/// values feed back into instruction lengths on x86-64, so iterate the
/// layout until it stabilises.
fn smc_program() -> (Vec<u8>, i32) {
    let halt = encode(TargetIsa::Host, &[Inst::Halt]);
    assert!(halt.len() <= 8, "halt encoding must fit the 8-byte patch");
    let mut patch = 0u64;
    let mut victim_off = 0i32;
    for _round in 0..8 {
        let bytes = encode(TargetIsa::Host, &smc_insts(patch, victim_off));
        let offs = offsets(Isa::X64, &bytes);
        let new_off = offs[3] as i32; // first add = the victim
        // Patch = halt's encoding, padded with the victim's original
        // tail bytes so the 8-byte store clobbers nothing it shouldn't.
        let mut p = [0u8; 8];
        p.copy_from_slice(&bytes[offs[3]..offs[3] + 8]);
        p[..halt.len()].copy_from_slice(&halt);
        let new_patch = u64::from_le_bytes(p);
        if new_off == victim_off && new_patch == patch {
            return (bytes, victim_off);
        }
        victim_off = new_off;
        patch = new_patch;
    }
    panic!("smc layout did not converge");
}

/// Self-modifying text mid-block: the store retires, the block aborts,
/// and the freshly written `halt` executes — never the stale adds.
#[test]
fn self_modifying_text_mid_block_identical() {
    let (bytes, _) = smc_program();
    for fuel in 0..=8 {
        let s = diff_run(TargetIsa::Host, &bytes, fuel, "smc");
        if s.stop == StopReason::Halt {
            // li, li, st, then the patched-in halt: the adds are gone.
            assert_eq!(s.regs[abi::A0.0 as usize], 0x2000 * abi::A0.0 as u64);
            assert_eq!(s.counters.instructions, 4);
        }
    }
    assert_eq!(
        diff_run(TargetIsa::Host, &bytes, 100, "smc full").stop,
        StopReason::Halt
    );
}

/// Builds the chained-SMC program for `target`: a loop whose body
/// stores an 8-byte patch over the loop's *fall-through successor*
/// (the first instruction after the backward branch), turning
/// `addi a1, a1, 2` into `addi a1, a1, 7`. The loop block and its
/// fall-through are exactly the shape the chain lane links, so every
/// iteration's store hits text a live chain points at. Immediates feed
/// back into the layout (and the patch payload contains the victim's
/// tail bytes), so iterate to a fixpoint like [`smc_program`].
fn chained_smc_program(target: TargetIsa) -> Vec<u8> {
    let new_inst = encode(
        target,
        &[Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A1,
            rs1: abi::A1,
            imm: 7,
        }],
    );
    assert!(new_inst.len() <= 8, "patched add must fit the 8-byte store");
    let mut patch = 0u64;
    let mut victim_off = 0i32;
    for _round in 0..8 {
        let mut f = FuncBuilder::new("t", target);
        let lp = f.new_label();
        f.li(abi::T0, TEXT as i64);
        f.li(abi::T1, patch as i64);
        f.li(abi::S1, 6);
        f.bind(lp);
        f.addi(abi::A0, abi::A0, 1);
        f.push(Inst::St {
            rs: abi::T1,
            base: abi::T0,
            off: victim_off,
            size: MemSize::B8,
        });
        f.addi(abi::S1, abi::S1, -1);
        f.bne(abi::S1, abi::ZERO, lp);
        f.addi(abi::A1, abi::A1, 2);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        let offs = offsets(isa_of(target), &bytes);
        let new_off = offs[offs.len() - 2] as i32; // the victim add
        let mut p = [0u8; 8];
        let have = (bytes.len() - new_off as usize).min(8);
        p[..have].copy_from_slice(&bytes[new_off as usize..new_off as usize + have]);
        p[..new_inst.len()].copy_from_slice(&new_inst);
        let new_patch = u64::from_le_bytes(p);
        if new_off == victim_off && new_patch == patch {
            return bytes;
        }
        victim_off = new_off;
        patch = new_patch;
    }
    panic!("chained smc layout did not converge");
}

/// Self-modifying text aimed at a **chained successor**: every loop
/// iteration stores over the first instruction of the loop's
/// fall-through block, so a live chain repeatedly points at text that
/// just changed. Each store bumps the text generation, which must
/// break the chain and drop the decode — on loop exit the *patched*
/// fall-through executes, never the stale one, at every fuel cutoff,
/// on all three ISAs.
#[test]
fn smc_rewriting_chained_successor_identical() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let bytes = chained_smc_program(target);
        let full = diff_run(target, &bytes, u64::MAX, "chained smc full");
        assert_eq!(full.stop, StopReason::Halt, "{target:?}");
        // Six loop iterations, then the patched `addi a1, a1, 7`.
        assert_eq!(
            full.regs[abi::A0.0 as usize],
            0x2000 * abi::A0.0 as u64 + 6,
            "{target:?}: loop iterations"
        );
        assert_eq!(
            full.regs[abi::A1.0 as usize],
            0x2000 * abi::A1.0 as u64 + 7,
            "{target:?}: patched successor must execute"
        );
        for fuel in 0..40 {
            diff_run(target, &bytes, fuel, "chained smc");
        }
    }
}

/// Chain pages of the large-footprint program: more text pages than
/// any fixed-capacity decode store of 64 pages could hold.
const FOOTPRINT_PAGES: u64 = 72;
/// The chain page whose add the program patches before its last pass.
const FOOTPRINT_VICTIM: u64 = FOOTPRINT_PAGES / 2;
/// Instruction counts of the large-footprint program's pieces: the
/// setup page, one walk of the chain pages, and the return page on
/// each of the three passes (loop back; store, then loop back; halt).
const FOOTPRINT_SETUP: u64 = 6;
const FOOTPRINT_CHAIN: u64 = 3 * FOOTPRINT_PAGES;
const FOOTPRINT_RETURNS: [u64; 3] = [5, 6, 4];

/// One chain page: step `t3` to the next page, add the page's number
/// (`imm`) into `a0`, and jump to `t3`.
fn footprint_page(target: TargetIsa, imm: i32) -> Vec<u8> {
    encode(
        target,
        &[
            Inst::AluImm {
                op: AluOp::Add,
                rd: abi::T3,
                rs1: abi::T3,
                imm: 0x1000,
            },
            Inst::AluImm {
                op: AluOp::Add,
                rd: abi::A0,
                rs1: abi::A0,
                imm,
            },
            Inst::Jalr {
                rd: abi::ZERO,
                rs1: abi::T3,
                off: 0,
            },
        ],
    )
}

/// A program whose hot path spans [`FOOTPRINT_PAGES`] + 2 text pages,
/// walked three times. Page 0 sets up and jumps to page 1; chain pages
/// 1..=N each add their number into `a0` and jump to the next page; the
/// return page after them counts passes, and before the last pass
/// stores over the victim page's add so it adds 32 more.
fn footprint_program(target: TargetIsa) -> Vec<u8> {
    let page = |n: u64| TEXT + n * 0x1000;
    let mut bytes = vec![0u8; ((FOOTPRINT_PAGES + 2) * 0x1000) as usize];
    let mut place = |n: u64, code: &[u8]| {
        assert!(code.len() <= 0x1000);
        let at = (n * 0x1000) as usize;
        bytes[at..at + code.len()].copy_from_slice(code);
    };
    // The patch: the victim's add with the larger immediate, padded
    // with the page's own following bytes to the 8-byte store.
    let victim = footprint_page(target, FOOTPRINT_VICTIM as i32);
    let mut patched = footprint_page(target, FOOTPRINT_VICTIM as i32 + 32);
    assert_eq!(patched.len(), victim.len(), "patch must keep the layout");
    let add_at = offsets(isa_of(target), &victim)[1];
    patched.resize(add_at + 8, 0);
    let patch = u64::from_le_bytes(patched[add_at..add_at + 8].try_into().unwrap());

    let mut f = FuncBuilder::new("setup", target);
    f.li(abi::S1, 3);
    f.li(abi::T0, (page(FOOTPRINT_VICTIM) + add_at as u64) as i64);
    f.li(abi::T1, patch as i64);
    f.li(abi::T2, 1);
    f.li(abi::T3, page(1) as i64);
    f.push(Inst::Jalr {
        rd: abi::ZERO,
        rs1: abi::T3,
        off: 0,
    });
    place(0, &isa_of(target).encode(&f.finish()).unwrap().bytes);
    for n in 1..=FOOTPRINT_PAGES {
        place(n, &footprint_page(target, n as i32));
    }
    let mut f = FuncBuilder::new("return", target);
    let (skip, done) = (f.new_label(), f.new_label());
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::T2, skip);
    f.st(abi::T1, abi::T0, 0, MemSize::B8);
    f.bind(skip);
    f.beq(abi::S1, abi::ZERO, done);
    f.li(abi::T3, page(1) as i64);
    f.push(Inst::Jalr {
        rd: abi::ZERO,
        rs1: abi::T3,
        off: 0,
    });
    f.bind(done);
    f.halt();
    place(
        FOOTPRINT_PAGES + 1,
        &isa_of(target).encode(&f.finish()).unwrap().bytes,
    );
    bytes
}

/// A hot path over more text pages than a fixed 64-page decode store
/// could hold, walked three times with a store into one text page
/// before the third walk. The block lane must match the step path at
/// every fuel cutoff; with nothing written, the second walk must find
/// every block it needs already decoded (no builds); the walk after
/// the text write must rebuild and still run the patched add.
#[test]
fn large_text_footprint_identical_and_decoded_once() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let bytes = footprint_program(target);
        let sum: u64 = (1..=FOOTPRINT_PAGES).sum();
        let a0 = |s: &Snap| s.regs[abi::A0.0 as usize];
        let full = diff_run(target, &bytes, u64::MAX, "footprint full");
        assert_eq!(full.stop, StopReason::Halt, "{target:?}");
        assert_eq!(
            a0(&full),
            0x2000 * abi::A0.0 as u64 + 3 * sum + 32,
            "{target:?}: three walks, the last with the patched add"
        );
        // The run cut at its pass boundaries: pass one, the second
        // chain walk, the return page that stores, the third chain
        // walk, the final return page.
        let [r1, r2, r3] = FOOTPRINT_RETURNS;
        let cuts = [
            FOOTPRINT_SETUP + FOOTPRINT_CHAIN + r1,
            FOOTPRINT_CHAIN,
            r2,
            FOOTPRINT_CHAIN,
            r3,
        ];
        for fuel in 0..=cuts.iter().sum() {
            diff_run(target, &bytes, fuel, &format!("footprint {target:?}"));
        }
        let [(blocks, builds), (step, _)] = ENGINES.map(|engine| {
            let (mut mem, cr3) = fixture(target, &bytes);
            let mut core = core_for(target, engine, cr3);
            let env = MemEnv::paper_default();
            let mut snaps = Vec::new();
            let mut builds = Vec::new();
            for fuel in cuts {
                let before = core.chain_counters().block_builds;
                let stop = core.run(&mut mem, &env, fuel);
                builds.push(core.chain_counters().block_builds - before);
                snaps.push(snap(stop, &core));
            }
            (snaps, builds)
        });
        assert_eq!(blocks, step, "{target:?}: block vs step across passes");
        assert_eq!(blocks.last().unwrap().stop, StopReason::Halt, "{target:?}");
        assert_eq!(a0(blocks.last().unwrap()), a0(&full), "{target:?}");
        assert!(
            builds[0] >= FOOTPRINT_PAGES,
            "{target:?}: first walk built {} blocks",
            builds[0]
        );
        assert_eq!(builds[1], 0, "{target:?}: second walk must decode nothing");
        assert!(
            builds[3] >= FOOTPRINT_PAGES,
            "{target:?}: walk after the text write built {} blocks",
            builds[3]
        );
    }
}

/// A straight-line run long enough that one x86-64 instruction straddles
/// the 0x1000 page boundary: blocks must end at the boundary and the
/// spanning instruction must replay identically through the step path.
#[test]
fn page_spanning_instruction_identical() {
    let mut insts = Vec::new();
    for k in 0..1500 {
        insts.push(Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 1 + (k & 0x3f),
        });
    }
    insts.push(Inst::Halt);
    let bytes = encode(TargetIsa::Host, &insts);
    assert!(bytes.len() > 0x1000, "program must cross the page boundary");
    let offs = offsets(Isa::X64, &bytes);
    let spanning = offs
        .iter()
        .position(|&o| o < 0x1000 && {
            let (_, len) = Isa::X64.decode(&bytes[o..]).unwrap();
            o + len > 0x1000
        })
        .expect("an instruction must straddle the boundary") as u64;
    for fuel in spanning.saturating_sub(3)..=spanning + 3 {
        diff_run(TargetIsa::Host, &bytes, fuel, "page-spanning");
    }
    diff_run(TargetIsa::Host, &bytes, u64::MAX, "page-spanning full");
}

/// TLB shootdowns and CR3 reloads between quanta: invalidations must
/// leave the block engine's caches coherent, not just its first run.
#[test]
fn flush_and_cr3_reload_between_quanta_identical() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let mut f = FuncBuilder::new("t", target);
        let lp = f.new_label();
        f.li(abi::S1, 40);
        f.bind(lp);
        f.addi(abi::A0, abi::A0, 3);
        f.ld(abi::T2, abi::SP, -8, MemSize::B8);
        f.addi(abi::S1, abi::S1, -1);
        f.bne(abi::S1, abi::ZERO, lp);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;

        let mut cores = Vec::new();
        for engine in ENGINES {
            let (mut mem, cr3) = fixture(target, &bytes);
            let mut core = core_for(target, engine, cr3);
            let env = MemEnv::paper_default();
            let mut stops = Vec::new();
            // Fuel 7 never divides the 4-instruction iteration, so every
            // resume lands at a different block offset; flush/CR3-reload
            // on alternating quanta.
            for quantum in 0..40 {
                stops.push(core.run(&mut mem, &env, 7));
                if *stops.last().unwrap() != StopReason::OutOfFuel {
                    break;
                }
                if quantum % 2 == 0 {
                    core.flush_tlbs();
                } else {
                    core.set_cr3(cr3);
                }
            }
            cores.push((snap(*stops.last().unwrap(), &core), stops));
        }
        let (snap_step, stops_step) = cores.pop().unwrap();
        for (snap_x, stops_x) in cores {
            assert_eq!(stops_x, stops_step, "{target:?}: stop sequence");
            assert_eq!(
                snap_x, snap_step,
                "{target:?}: state after interleaved invalidations"
            );
        }
        assert_eq!(snap_step.stop, StopReason::Halt);
    }
}

/// Data window for the memo differential: 4 KiB pages from the identity
/// map (host DRAM), one 2 MiB page (host DRAM) and one 1 GiB page (NxP
/// DRAM, uncacheable for either core).
const SMALL: u64 = 0x60_0000;
const HUGE_2M: u64 = 0x8000_0000;
const HUGE_1G: u64 = 0x40_0000_0000;
/// Loop trips: each walks [`SMALL`] one 4 KiB page further, so the NxP
/// core's 16-entry D-TLB must evict while the huge-page entries stay hot.
const WINDOW_TRIPS: i64 = 24;

/// [`fixture`] plus the huge pages of the data window, seeded with
/// distinct nonzero bytes.
fn window_fixture(target: TargetIsa, bytes: &[u8]) -> (PhysMem, PhysAddr) {
    let (mut mem, cr3) = fixture(target, bytes);
    let mut asp = AddressSpace::from_cr3(cr3);
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x300_0000), PhysAddr(0x380_0000));
    let rw = flags::PRESENT | flags::WRITABLE | flags::USER;
    for (va, pa, page) in [
        (HUGE_2M, 0x400_0000, PageSize::Size2M),
        (HUGE_1G, 0x1_0000_0000, PageSize::Size1G),
    ] {
        asp.map(&mut mem, &mut alloc, VirtAddr(va), PhysAddr(pa), page, rw)
            .unwrap();
        mem.write_bytes(PhysAddr(pa), &pattern(0x2000, pa));
    }
    mem.write_bytes(PhysAddr(SMALL - 0x1000), &pattern(0x20000, 0x5151));
    (mem, cr3)
}

/// `len` bytes of a deterministic nonzero pattern keyed by `seed`.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|k| (k.wrapping_mul(0x9E37_79B9) ^ seed ^ (k >> 8)) as u8 | 1)
        .collect()
}

/// A loop over the data window: alternating loads across the three page
/// sizes (so memo hits land on non-MRU D-TLB slots), a fresh 4 KiB page
/// per trip (so the NxP D-TLB evicts), loads and stores that span a
/// frame inside the 2 MiB page and a 4 KiB page boundary, a store into
/// the program's own (watched) text frame, and a store to the 2 MiB
/// page that `protect` later makes read-only.
fn window_program(target: TargetIsa) -> Vec<u8> {
    let mut f = FuncBuilder::new("t", target);
    let lp = f.new_label();
    f.li(abi::S1, WINDOW_TRIPS);
    f.li(abi::S2, SMALL as i64);
    f.li(abi::S3, (HUGE_2M + 0x100) as i64);
    f.li(abi::S4, (HUGE_1G + 0x2340) as i64);
    f.li(abi::S5, (TEXT + 0xF00) as i64);
    f.bind(lp);
    f.ld(abi::T0, abi::S2, 0, MemSize::B8);
    f.ld(abi::T1, abi::S3, 0, MemSize::B4);
    f.ld(abi::T2, abi::S4, 8, MemSize::B8);
    f.add(abi::A0, abi::A0, abi::T0);
    f.add(abi::A0, abi::A0, abi::T1);
    f.add(abi::A0, abi::A0, abi::T2);
    f.st(abi::A0, abi::S3, 16, MemSize::B8);
    f.ld(abi::T0, abi::S2, -8, MemSize::B8);
    f.st(abi::A0, abi::S2, 0xFFE, MemSize::B4);
    f.ld(abi::T1, abi::S3, 0xFFC - 0x100, MemSize::B8);
    f.st(abi::T0, abi::S3, 0x1FFA - 0x100, MemSize::B8);
    f.st(abi::S1, abi::S5, 0, MemSize::B4);
    f.ld(abi::T2, abi::S4, 0, MemSize::B2);
    f.xor(abi::A1, abi::A1, abi::T1);
    f.xor(abi::A1, abi::A1, abi::T2);
    f.addi(abi::S2, abi::S2, 0x1000);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
    f.halt();
    isa_of(target).encode(&f.finish()).unwrap().bytes
}

/// Runs the window program on every engine at every fuel cutoff: memo
/// hits must replay D-TLB LRU order, D-cache state and timing exactly.
#[test]
fn data_memo_window_identical_at_every_fuel_cutoff() {
    for target in [TargetIsa::Host, TargetIsa::Nxp] {
        let bytes = window_program(target);
        let env = MemEnv::paper_default();
        let mut memo_hits = 0;
        let mut full = None;
        for fuel in (0..=440).chain([u64::MAX]) {
            let mut snaps = Vec::new();
            for engine in ENGINES {
                let (mut mem, cr3) = window_fixture(target, &bytes);
                let mut core = core_for(target, engine, cr3);
                let stop = core.run(&mut mem, &env, fuel);
                memo_hits += core.chain_counters().data_memo_hits;
                snaps.push(snap(stop, &core));
            }
            let step = snaps.pop().unwrap();
            for s in snaps {
                assert_eq!(s, step, "{target:?}: data window diverged at fuel {fuel}");
            }
            full = Some(step);
        }
        let full = full.unwrap();
        assert_eq!(full.stop, StopReason::Halt, "{target:?}");
        assert!(memo_hits > 0, "{target:?}: the memo never served an access");
        assert!(
            full.counters.dtlb_misses > WINDOW_TRIPS as u64,
            "{target:?}: every trip walks a fresh page"
        );
    }
}

/// Two straight-line phases on the NxP core's 16-entry D-TLB.
///
/// 1. Page X is memoized, page Y refreshed through a lookup, then X hit
///    again through the memo while Y is the MRU slot. Only if that hit
///    replays the LRU stamp is Y, not X, the victim when fourteen fresh
///    pages fill the TLB and a seventeenth evicts — so the reloads of X
///    and Y miss exactly once between them.
/// 2. Page Z is memoized, then sixteen fresh pages are walked by
///    frame-spanning loads (which never install memo entries), the last
///    evicting Z's slot. The reload of Z must miss: a memo entry never
///    outlives the D-TLB generation it was taken under.
///
/// Every engine agrees at every fuel cutoff.
#[test]
fn data_memo_hits_replay_dtlb_lru_order() {
    let page = |k: i32| k * 0x1000;
    for target in [TargetIsa::Host, TargetIsa::Nxp] {
        let mut f = FuncBuilder::new("t", target);
        f.li(abi::S2, SMALL as i64);
        for k in [0, 1, 0, 1] {
            f.ld(abi::T0, abi::S2, page(k) + 8, MemSize::B8);
        }
        for k in 2..=16 {
            f.ld(abi::T1, abi::S2, page(k), MemSize::B8);
        }
        f.ld(abi::T2, abi::S2, page(1), MemSize::B8);
        f.ld(abi::T2, abi::S2, page(0), MemSize::B8);
        f.ld(abi::T0, abi::S2, page(20), MemSize::B8);
        for j in 0..8 {
            f.ld(abi::T1, abi::S2, page(22 + 3 * j) - 4, MemSize::B8);
        }
        f.ld(abi::T0, abi::S2, page(20) + 16, MemSize::B8);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        for fuel in 0..=36 {
            diff_run(target, &bytes, fuel, "memo LRU");
        }
        let full = diff_run(target, &bytes, 100, "memo LRU full");
        assert_eq!(full.stop, StopReason::Halt);
        // 17 + 17 cold pages; on the NxP also the capacity misses of Y
        // and Z.
        let reload_misses = if target == TargetIsa::Nxp { 2 } else { 0 };
        assert_eq!(full.counters.dtlb_misses, 34 + reload_misses, "{target:?}");
    }
}

/// Stale TLB entries of two sizes covering one address: a 4 KiB
/// translation cached before the page tables remapped its 2 MiB region
/// as one huge page (with no shootdown), then the huge page walked in.
/// `lookup` now answers from whichever entry its MRU check or
/// smallest-first class scan reaches, so the memo must stay out of the
/// way — on every engine and fuel cutoff the loads see the same mix of
/// old and new frames.
#[test]
fn data_memo_defers_to_stale_mixed_size_tlb_entries() {
    const V: u64 = 0x7000_0000;
    const OLD_PA: u64 = 0x500_0000;
    const NEW_PA: u64 = 0x600_0000;
    for target in [TargetIsa::Host, TargetIsa::Nxp] {
        let mut f = FuncBuilder::new("t", target);
        f.li(abi::S2, V as i64);
        f.li(abi::S3, SMALL as i64);
        f.ld(abi::T0, abi::S2, 0x1000, MemSize::B8);
        f.ld(abi::A2, abi::S3, 0, MemSize::B8);
        f.ecall(1);
        f.ld(abi::T1, abi::S2, 0x5000, MemSize::B8);
        f.ld(abi::T2, abi::S2, 0x1008, MemSize::B8);
        f.ld(abi::A2, abi::S3, 0, MemSize::B8);
        f.ld(abi::A3, abi::S2, 0x1010, MemSize::B8);
        f.ld(abi::A4, abi::S2, 0x5008, MemSize::B8);
        f.ld(abi::A5, abi::S2, 0x1018, MemSize::B8);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        let env = MemEnv::paper_default();
        for fuel in 0..=8 {
            let mut snaps = Vec::new();
            for engine in ENGINES {
                let (mut mem, cr3) = fixture(target, &bytes);
                let mut alloc = BumpFrameAlloc::new(PhysAddr(0x300_0000), PhysAddr(0x380_0000));
                let rw = flags::PRESENT | flags::WRITABLE | flags::USER;
                AddressSpace::from_cr3(cr3)
                    .map_range(
                        &mut mem,
                        &mut alloc,
                        VirtAddr(V),
                        PhysAddr(OLD_PA),
                        2 << 20,
                        rw,
                    )
                    .unwrap();
                mem.write_bytes(PhysAddr(OLD_PA), &pattern(0x6000, 1));
                mem.write_bytes(PhysAddr(NEW_PA), &pattern(0x6000, 2));
                let mut core = core_for(target, engine, cr3);
                assert_eq!(core.run(&mut mem, &env, 20), StopReason::Ecall(1));
                // Turn the PD entry for V into a 2 MiB leaf, no shootdown.
                let mut table = cr3.as_u64();
                for level in [3, 2] {
                    let slot = table + VirtAddr(V).pt_index(level) as u64 * 8;
                    table = mem.read_u64(PhysAddr(slot)) & 0x000F_FFFF_FFFF_F000;
                }
                let pde = table + VirtAddr(V).pt_index(1) as u64 * 8;
                mem.write_u64(PhysAddr(pde), NEW_PA | rw | flags::HUGE);
                let stop = core.run(&mut mem, &env, fuel);
                snaps.push(snap(stop, &core));
            }
            let step = snaps.pop().unwrap();
            for s in snaps {
                assert_eq!(s, step, "{target:?}: stale mixed sizes at fuel {fuel}");
            }
            if fuel == 8 {
                let old = |off: usize| {
                    u64::from_le_bytes(pattern(0x6000, 1)[off..off + 8].try_into().unwrap())
                };
                let new = |off: usize| {
                    u64::from_le_bytes(pattern(0x6000, 2)[off..off + 8].try_into().unwrap())
                };
                assert_eq!(step.stop, StopReason::Halt);
                assert_eq!(step.regs[abi::T1.0 as usize], new(0x5000));
                assert_eq!(step.regs[abi::T2.0 as usize], new(0x1008), "MRU check");
                assert_eq!(step.regs[abi::A3.0 as usize], old(0x1010), "class scan");
                assert_eq!(step.regs[abi::A5.0 as usize], new(0x1018), "MRU again");
            }
        }
    }
}

/// A 2 MiB page whose frame starts at the 64 KiB NxP MMIO window and
/// runs on into unmapped physical space: the first load reaches the
/// registers, the next one past the window must fault on every engine —
/// the memo only caches pages that lie whole in one mapped region.
#[test]
fn data_memo_skips_pages_straddling_regions() {
    const W: u64 = 0x7000_0000;
    for target in [TargetIsa::Host, TargetIsa::Nxp] {
        let mut f = FuncBuilder::new("t", target);
        f.li(abi::S2, W as i64);
        f.ld(abi::T0, abi::S2, 0x40, MemSize::B8);
        f.ld(abi::T1, abi::S2, 0x80, MemSize::B4);
        f.ld(abi::T2, abi::S2, 0x1_0000, MemSize::B8);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        let env = MemEnv::paper_default();
        for fuel in 0..=6 {
            let mut snaps = Vec::new();
            for engine in ENGINES {
                let (mut mem, cr3) = fixture(target, &bytes);
                let mut alloc = BumpFrameAlloc::new(PhysAddr(0x300_0000), PhysAddr(0x380_0000));
                let rw = flags::PRESENT | flags::WRITABLE | flags::USER;
                AddressSpace::from_cr3(cr3)
                    .map(
                        &mut mem,
                        &mut alloc,
                        VirtAddr(W),
                        PhysAddr(0x9100_0000),
                        PageSize::Size2M,
                        rw,
                    )
                    .unwrap();
                let mut core = core_for(target, engine, cr3);
                let stop = core.run(&mut mem, &env, fuel);
                snaps.push(snap(stop, &core));
            }
            let step = snaps.pop().unwrap();
            for s in snaps {
                assert_eq!(s, step, "{target:?}: straddling page at fuel {fuel}");
            }
            if fuel == 6 {
                assert_eq!(
                    step.stop,
                    StopReason::Fault(Exception::DataFault {
                        va: VirtAddr(W + 0x1_0000),
                        write: false,
                    })
                );
            }
        }
    }
}

/// The window program in quanta of every size from 1 to 45
/// instructions, with what the memo caches changed between quanta: the
/// latency model (odd quanta run under a slower one), then an MMU hole
/// laid over the memoized 1 GiB page (holes shadow the TLB, so its
/// loads must now read the hole's frame), then the 2 MiB page
/// `protect`ed read-only with the shootdown an OS would issue (the next
/// store to it, memoized as writable, must fault).
#[test]
fn data_memo_coherent_across_env_hole_and_protect_between_quanta() {
    let mut slow = MemEnv::paper_default();
    slow.latency.host_to_host_dram = Picos::from_nanos(140);
    slow.latency.host_to_nxp_read = Picos::from_nanos(990);
    slow.latency.nxp_to_local_dram = Picos::from_nanos(410);
    slow.latency.nxp_to_host_write = Picos::from_nanos(333);
    let envs = [MemEnv::paper_default(), slow];
    for target in [TargetIsa::Host, TargetIsa::Nxp] {
        let bytes = window_program(target);
        for quantum in 1..=45u64 {
            let mut runs = Vec::new();
            for engine in ENGINES {
                let (mut mem, cr3) = window_fixture(target, &bytes);
                let mut core = core_for(target, engine, cr3);
                let mut stops = Vec::new();
                let mut retired = 0;
                let (mut holed, mut protected) = (false, false);
                loop {
                    let env = &envs[stops.len() % 2];
                    let stop = core.run(&mut mem, env, quantum);
                    stops.push(stop);
                    if stop != StopReason::OutOfFuel {
                        break;
                    }
                    retired += quantum;
                    if retired >= 60 && !holed {
                        holed = true;
                        core.add_hole(MmuHole {
                            va_base: VirtAddr(HUGE_1G),
                            size: 1 << 20,
                            pa_base: PhysAddr(0x9000_0000),
                            executable: false,
                        });
                    }
                    if retired >= 150 && !protected {
                        protected = true;
                        AddressSpace::from_cr3(cr3)
                            .protect(&mut mem, VirtAddr(HUGE_2M), 2 << 20, 0, flags::WRITABLE)
                            .unwrap();
                        core.flush_tlbs();
                    }
                }
                runs.push((snap(*stops.last().unwrap(), &core), stops));
            }
            let (step, step_stops) = runs.pop().unwrap();
            for (s, stops) in runs {
                assert_eq!(stops, step_stops, "{target:?} quantum {quantum}: stops");
                assert_eq!(s, step, "{target:?} quantum {quantum}: state");
            }
            assert!(
                matches!(
                    step.stop,
                    StopReason::Fault(Exception::DataFault { write: true, .. })
                ),
                "{target:?} quantum {quantum}: store to the protected page must fault, got {:?}",
                step.stop
            );
        }
    }
}
