//! Layer probes: isolated host-time costs of single public functions,
//! fed inputs shaped like the workloads' (or, for the memory probes,
//! like Table IV's BFS), reported as the median nanoseconds per
//! operation over several samples.

use flick::{DescKind, MigrationDescriptor};
use flick_cpu::{Cache, CacheConfig, Core, CoreConfig, MemEnv, StopReason, Tlb, TlbEntry};
use flick_isa::{abi, FuncBuilder, Isa, MemSize, TargetIsa};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_os::RunQueues;
use flick_paging::{flags, walk, AddressSpace, BumpFrameAlloc, PageSize};
use flick_pcie::{DmaEngine, InterruptController, Msi};
use flick_sim::{Picos, Xoshiro256};
use flick_workloads::serving::{build_serving_fleet, ServingScenario};
use std::hint::black_box;
use std::time::Instant;

/// Where the BFS-shaped probes put their arrays, inside the identity
/// mapped low 16 MiB.
const CODE: u64 = 0x40_0000;
const COL: u64 = 0x80_0000;
const ROWPTR: u64 = 0xB0_0000;
const VISITED: u64 = 0xE0_0000;
/// Epinions1's vertex count: the visited and rowptr arrays span it.
const VERTS: u64 = 76_000;
/// Page tables live above the mapped range.
const TABLES: (u64, u64) = (0x100_0000, 0x400_0000);
/// Tenants the serving-shaped probes model.
const TENANTS: u64 = 250;
/// Pages each modelled tenant maps (a 64 KiB stack's worth).
const TENANT_PAGES: u64 = 16;

const RWU: u64 = flags::PRESENT | flags::WRITABLE | flags::USER;

/// Median ns per operation of `f`, which performs `ops` operations per
/// call and is handed the sample index.
fn median_ns(samples: usize, ops: u64, mut f: impl FnMut(usize)) -> f64 {
    let mut per_op: Vec<f64> = (0..samples)
        .map(|s| {
            let t = Instant::now();
            f(s);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

/// Runs every probe; `smoke` shrinks each to a token size.
///
/// # Errors
///
/// A message when a probe's fixture cannot be built.
pub fn run_all(smoke: bool) -> Result<Vec<(&'static str, f64)>, String> {
    let (samples, scale) = if smoke { (3, 1) } else { (7, 20) };
    let stream = bfs_address_stream(5_000 * scale);
    Ok(vec![
        (
            "cpu.mem_ns_per_inst",
            mem_ns_per_inst(samples, 12_500 * scale)?,
        ),
        ("cpu.tlb_lookup_ns", tlb_lookup_ns(samples, &stream)),
        ("cpu.cache_access_ns", cache_access_ns(samples, &stream)),
        ("paging.walk_ns", walk_ns(samples, 5_000 * scale)?),
        (
            "paging.map_ns_per_page",
            map_ns_per_page(samples, if smoke { 16 } else { TENANTS })?,
        ),
        (
            "core.desc_roundtrip_ns",
            desc_roundtrip_ns(samples, 10_000 * scale),
        ),
        (
            "pcie.dma_roundtrip_ns",
            dma_roundtrip_ns(samples, 5_000 * scale),
        ),
        ("pcie.msi_ns", msi_ns(samples, 5_000 * scale)),
        ("os.runqueue_ns", runqueue_ns(samples, 5_000 * scale)),
        (
            "os.task_lookup_ns",
            task_lookup_ns(samples, smoke, 5_000 * scale)?,
        ),
    ])
}

/// Identity-maps the low 16 MiB, like the cpu crate's fixtures.
fn identity_mapped() -> Result<(PhysMem, PhysAddr), String> {
    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(TABLES.0), PhysAddr(TABLES.1));
    let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
    aspace
        .map_range(
            &mut mem,
            &mut alloc,
            VirtAddr(0),
            PhysAddr(0),
            16 << 20,
            RWU,
        )
        .map_err(|e| e.to_string())?;
    Ok((mem, aspace.cr3()))
}

/// A bare `Core::run` over the BFS edge loop: load a neighbour index,
/// load its visited byte, store the epoch on first visit. Each sample
/// uses a fresh core (cold TLBs and caches) and a new epoch, so the
/// stores happen in every sample.
fn mem_ns_per_inst(samples: usize, edges: u64) -> Result<f64, String> {
    let (mut mem, cr3) = identity_mapped()?;
    let mut rng = Xoshiro256::seeded(7);
    for i in 0..edges {
        mem.write_u32(PhysAddr(COL + 4 * i), rng.gen_range(0, VERTS) as u32);
    }
    let mut f = FuncBuilder::new("edges", TargetIsa::Host);
    let lp = f.new_label();
    let skip = f.new_label();
    f.li(abi::A0, COL as i64);
    f.li(abi::A1, VISITED as i64);
    f.li(abi::S1, edges as i64);
    f.bind(lp);
    f.ld(abi::T1, abi::A0, 0, MemSize::B4);
    f.add(abi::T2, abi::A1, abi::T1);
    f.ld(abi::T3, abi::T2, 0, MemSize::B1);
    f.beq(abi::T3, abi::S0, skip);
    f.st(abi::S0, abi::T2, 0, MemSize::B1);
    f.bind(skip);
    f.addi(abi::A0, abi::A0, 4);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
    f.halt();
    let code = Isa::X64.encode(&f.finish()).map_err(|e| e.to_string())?;
    mem.write_bytes(PhysAddr(CODE), &code.bytes);
    let env = MemEnv::paper_default();
    let mut insts = 0;
    let ns_per_run = median_ns(samples, 1, |s| {
        let mut core = Core::new(CoreConfig::host());
        core.set_cr3(cr3);
        core.set_pc(VirtAddr(CODE));
        core.set_reg(abi::S0, s as u64 % 255 + 1);
        assert_eq!(core.run(&mut mem, &env, u64::MAX), StopReason::Halt);
        insts = core.counters().instructions;
    });
    Ok(ns_per_run / insts as f64)
}

/// Data addresses in BFS order: per edge a sequential neighbour read
/// and a random visited byte; per vertex (every 7th edge, Epinions1's
/// mean degree) a random pair of row offsets.
fn bfs_address_stream(edges: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::seeded(11);
    let mut out = Vec::with_capacity(edges as usize * 3);
    for i in 0..edges {
        if i % 7 == 0 {
            let u = rng.gen_range(0, VERTS);
            out.push(ROWPTR + 8 * u);
            out.push(ROWPTR + 8 * u + 8);
        }
        out.push(COL + 4 * i);
        out.push(VISITED + rng.gen_range(0, VERTS));
    }
    out
}

/// The host core's 128-entry D-TLB over the BFS stream, filling on miss
/// as the core does after a walk.
fn tlb_lookup_ns(samples: usize, stream: &[u64]) -> f64 {
    median_ns(samples, stream.len() as u64, |_| {
        let mut tlb = Tlb::new(128);
        for &a in stream {
            let va = VirtAddr(a);
            if tlb.lookup(va).is_none() {
                tlb.insert(TlbEntry {
                    va_base: VirtAddr(a & !0xfff),
                    pa_base: PhysAddr(a & !0xfff),
                    page: PageSize::Size4K,
                    nx: false,
                    writable: true,
                    isa_tag: 0,
                });
            }
        }
        black_box(tlb.misses());
    })
}

/// The host L1 model over the BFS stream.
fn cache_access_ns(samples: usize, stream: &[u64]) -> f64 {
    median_ns(samples, stream.len() as u64, |_| {
        let mut cache = Cache::new(CacheConfig::host_l1());
        for &a in stream {
            black_box(cache.access(a));
        }
    })
}

/// One address space per tenant, each mapping a stack's worth of pages.
fn tenant_spaces(mem: &mut PhysMem, tenants: u64) -> Result<Vec<PhysAddr>, String> {
    let mut alloc = BumpFrameAlloc::new(PhysAddr(TABLES.0), PhysAddr(TABLES.1));
    (0..tenants)
        .map(|t| {
            let mut aspace = AddressSpace::new(mem, &mut alloc);
            aspace
                .map_range(
                    mem,
                    &mut alloc,
                    VirtAddr(CODE),
                    PhysAddr(t * TENANT_PAGES * 4096),
                    TENANT_PAGES * 4096,
                    RWU,
                )
                .map_err(|e| e.to_string())?;
            Ok(aspace.cr3())
        })
        .collect()
}

/// Page walks in random tenant order, as CR3 switches make the MMU do.
fn walk_ns(samples: usize, ops: u64) -> Result<f64, String> {
    let mut mem = PhysMem::new();
    let cr3s = tenant_spaces(&mut mem, TENANTS)?;
    let mut rng = Xoshiro256::seeded(13);
    let targets: Vec<(PhysAddr, VirtAddr)> = (0..ops)
        .map(|_| {
            let cr3 = cr3s[rng.gen_range(0, TENANTS) as usize];
            (cr3, VirtAddr(CODE + rng.gen_range(0, TENANT_PAGES * 4096)))
        })
        .collect();
    Ok(median_ns(samples, ops, |_| {
        for &(cr3, va) in &targets {
            black_box(walk(|pa| mem.read_u64(pa), cr3, va).is_ok());
        }
    }))
}

/// Mapping every tenant's pages into fresh address spaces, per page.
fn map_ns_per_page(samples: usize, tenants: u64) -> Result<f64, String> {
    tenant_spaces(&mut PhysMem::new(), tenants)?;
    Ok(median_ns(samples, tenants * TENANT_PAGES, |_| {
        black_box(tenant_spaces(&mut PhysMem::new(), tenants).is_ok());
    }))
}

fn descriptor(i: u64) -> MigrationDescriptor {
    MigrationDescriptor {
        kind: DescKind::HostToNxpCall,
        target: 0x40_2000 + i,
        ret: 0,
        args: [i, 2, 3, 4, 5, 6],
        pid: i % TENANTS + 1,
        cr3: 0x10_0000,
        nxp_sp: 0x6000_0000_fff0,
        seq: i,
        span: i,
    }
}

/// Descriptor pack plus checked unpack (the CRC both ways).
fn desc_roundtrip_ns(samples: usize, ops: u64) -> f64 {
    median_ns(samples, ops, |_| {
        for i in 0..ops {
            let bytes = descriptor(i).to_bytes();
            black_box(MigrationDescriptor::from_bytes_checked(black_box(&bytes)).is_ok());
        }
    })
}

/// A descriptor's trip through one DMA channel: host→NxP kick and poll,
/// NxP→host kick, and the host's claim from its ring.
fn dma_roundtrip_ns(samples: usize, ops: u64) -> f64 {
    let bytes = descriptor(1).to_bytes();
    median_ns(samples, ops, |_| {
        let mut dma = DmaEngine::paper_default();
        let mut now = Picos::ZERO;
        for _ in 0..ops {
            let at_nxp = dma.kick_to_nxp(now, bytes.clone());
            let landed = dma
                .poll_nxp(at_nxp)
                .expect("descriptor lands by its arrival");
            let (at_host, _msi) = dma.kick_to_host(at_nxp, landed);
            black_box(dma.take_host_desc_where(at_host, |b| b[0] == bytes[0]));
            now = at_host;
        }
    })
}

/// MSI raise plus the waiter's exact claim, with one MSI pending per
/// tenant.
fn msi_ns(samples: usize, ops: u64) -> f64 {
    let mut rng = Xoshiro256::seeded(17);
    let span_ps = TENANTS * 1_000_000;
    let edges: Vec<Msi> = (0..ops)
        .map(|i| Msi {
            vector: (i % 4) as u32,
            at: Picos(rng.gen_range(0, span_ps)),
        })
        .collect();
    median_ns(samples, ops, |_| {
        let mut irq = InterruptController::new();
        for t in 0..TENANTS {
            irq.raise(Msi {
                vector: (t % 4) as u32,
                at: Picos(t * 1_000_000 + 1),
            });
        }
        for m in &edges {
            irq.raise(m.clone());
            black_box(irq.take_vector_at(m.at, m.vector));
        }
    })
}

/// Enqueue, local pop and idle steal on the two host cores' queues with
/// one queued task per tenant.
fn runqueue_ns(samples: usize, ops: u64) -> f64 {
    median_ns(samples, ops, |_| {
        let mut rq = RunQueues::new(2);
        for pid in 1..=TENANTS {
            rq.enqueue(pid as usize % 2, pid);
        }
        for i in 0..ops as usize {
            let c = i % 2;
            let pid = rq.pop_local(c).expect("both queues stay populated");
            rq.enqueue(1 - c, pid);
            let stolen = rq.steal(c).expect("the other queue is populated");
            black_box(rq.enqueue(c, stolen));
        }
    })
}

/// `Machine::kernel().task(pid)` over a freshly built serving fleet.
fn task_lookup_ns(samples: usize, smoke: bool, ops: u64) -> Result<f64, String> {
    let cfg = ServingScenario {
        tenants: if smoke { 8 } else { TENANTS as usize },
        requests: 1,
        ..ServingScenario::default()
    };
    let (m, mut pids) = build_serving_fleet(&cfg).map_err(|e| e.to_string())?;
    Xoshiro256::seeded(19).shuffle(&mut pids);
    Ok(median_ns(samples, ops, |_| {
        for i in 0..ops as usize {
            black_box(m.kernel().task(pids[i % pids.len()]).map(|t| t.state).ok());
        }
    }))
}
