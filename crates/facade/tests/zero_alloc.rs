//! Pins the zero-allocation property of the steady-state `Noc::tick` path.
//!
//! The engine refactor replaced the growable `VecDeque` transport in
//! `NiLink` and the routers with fixed-capacity rings and gave the `Noc`
//! reusable per-tick scratch buffers. With `LinkWord: Copy`, every word now
//! moves by value through preallocated storage — so after warm-up, ticking
//! a loaded network must hit the allocator exactly zero times. A counting
//! global allocator enforces that here; the `micro` bench tracks the same
//! path's speed.

//!
//! The pipelined shard exchange extends the property across region cuts:
//! boundary words and credits move through the preallocated
//! [`aethereal::sim::shard::WireRing`] arena — written in place at emit,
//! consumed in place at absorb — so a fused sharded run must be exactly as
//! allocation-free as the monolithic one. The NI kernel's packetizer and
//! arbiter keep their per-slot state on the stack, so a whole `NocSystem`
//! of raw NIs is pinned allocation-free too.
//!
//! The counter is process-global — it must see allocations made on the
//! worker threads of `run_parallel` — while libtest runs tests
//! concurrently. Every test therefore holds [`SERIAL`] for its whole body,
//! so no other test's setup or teardown lands inside a counting window.

use aethereal::sim::shard::{wires_of, NocShard, Partition, ShardRunner};
use aethereal::sim::{LinkWord, Noc, PacketHeader, Topology, WordClass};
use aethereal_bench::{gt_received, gt_stream_mesh, single_received, stream_mesh, MeshTraffic};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this file (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the file-wide test lock. A test that panicked while holding it
/// poisons it; the lock guards no data, so later tests carry on.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic with no aliasing of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_noc_tick_allocates_nothing() {
    let _serial = serial();
    // Saturate a 2x2 mesh with BE single-word packets plus a periodic GT
    // flit so both datapaths (wormhole queues and the GT calendar) are hot.
    let topo = Topology::mesh(2, 2, 1);
    let mut noc = Noc::new(&topo);
    let be_path = topo.route(0, 3).expect("route");
    let gt_path = topo.route(1, 2).expect("route");
    let be = PacketHeader {
        path: be_path,
        qid: 0,
        credits: 0,
        flush: false,
    }
    .pack();
    let gt = PacketHeader {
        path: gt_path,
        qid: 1,
        credits: 0,
        flush: false,
    }
    .pack();
    let drive = |noc: &mut Noc, cycles: u64| {
        let mut delivered = 0u64;
        for c in 0..cycles {
            {
                let link = noc.ni_link_mut(0);
                if !link.is_busy() && link.be_credits() > 0 {
                    link.send(LinkWord::header_only(be, WordClass::BestEffort));
                }
            }
            {
                let link = noc.ni_link_mut(1);
                if c % 3 == 0 && !link.is_busy() {
                    link.send(LinkWord::header_only(gt, WordClass::Guaranteed));
                }
            }
            noc.tick();
            while noc.ni_link_mut(3).recv().is_some() {
                delivered += 1;
            }
            while noc.ni_link_mut(2).recv().is_some() {
                delivered += 1;
            }
        }
        delivered
    };
    // Warm up: reach steady state (queues at depth, scratch buffers sized).
    drive(&mut noc, 2_000);
    // Measure.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let delivered = drive(&mut noc, 10_000);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert!(delivered > 5_000, "traffic actually flowed: {delivered}");
    assert_eq!(
        allocs, 0,
        "steady-state Noc::tick path must not touch the allocator"
    );
    assert_eq!(noc.gt_conflicts(), 0);
    assert_eq!(noc.be_overflows(), 0);
}

/// The 2x2 mesh of `steady_state_noc_tick_allocates_nothing`, split down
/// the row cut into two fused regions: NIs 0/1 live in shard 0 (local
/// links 0/1), NIs 2/3 in shard 1. Returns the regions, the runner (arena
/// attached to every region), and the packed BE/GT headers.
fn fused_split() -> (Vec<NocShard>, ShardRunner, u32, u32) {
    let topo = Topology::mesh(2, 2, 1);
    let noc = Noc::new(&topo);
    let partition = Partition::new(vec![0, 0, 1, 1]).expect("dense partition");
    let mut shards = noc.split(&topo, &partition);
    let wires = wires_of(&shards);
    let runner = ShardRunner::new(2, wires, 0);
    runner.fuse(&mut shards);
    let be = PacketHeader {
        path: topo.route(0, 3).expect("route"),
        qid: 0,
        credits: 0,
        flush: false,
    }
    .pack();
    let gt = PacketHeader {
        path: topo.route(1, 2).expect("route"),
        qid: 1,
        credits: 0,
        flush: false,
    }
    .pack();
    (shards, runner, be, gt)
}

/// Injects one cycle's worth of cut-crossing traffic into shard 0 and
/// drains shard 1's NI links; both NI↔NoC rings and the boundary arena
/// are preallocated, so this itself never allocates.
fn pump(shards: &mut [NocShard], cycle: u64, be: u32, gt: u32) -> u64 {
    {
        let link = shards[0].noc.ni_link_mut(0);
        if !link.is_busy() && link.be_credits() > 0 {
            link.send(LinkWord::header_only(be, WordClass::BestEffort));
        }
    }
    {
        let link = shards[0].noc.ni_link_mut(1);
        if cycle.is_multiple_of(3) && !link.is_busy() {
            link.send(LinkWord::header_only(gt, WordClass::Guaranteed));
        }
    }
    let mut delivered = 0u64;
    while shards[1].noc.ni_link_mut(1).recv().is_some() {
        delivered += 1;
    }
    while shards[1].noc.ni_link_mut(0).recv().is_some() {
        delivered += 1;
    }
    delivered
}

#[test]
fn steady_state_fused_shard_exchange_allocates_nothing() {
    let _serial = serial();
    let (mut shards, mut runner, be, gt) = fused_split();
    let drive = |shards: &mut [NocShard], runner: &mut ShardRunner, from: u64, cycles: u64| {
        let mut delivered = 0u64;
        for c in from..from + cycles {
            delivered += pump(shards, c, be, gt);
            runner.run(shards, 1);
        }
        delivered
    };
    // Warm up: queues at depth, every arena ring touched in both classes.
    drive(&mut shards, &mut runner, 0, 2_000);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let delivered = drive(&mut shards, &mut runner, 2_000, 10_000);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert!(
        delivered > 5_000,
        "cut traffic actually flowed: {delivered}"
    );
    assert_eq!(
        allocs, 0,
        "the fused arena exchange must not touch the allocator in steady state"
    );
}

#[test]
fn parallel_shard_exchange_allocation_is_per_call_not_per_cycle() {
    let _serial = serial();
    // `run_parallel` pays a fixed per-call cost (scoped thread spawns); the
    // pipelined per-cycle exchange itself — watermark publishes, ring
    // writes, due-slot consumption, idle virtual cycles — must contribute
    // nothing. Two spans differing only in cycle count must therefore
    // allocate identically.
    let (mut shards, runner, be, gt) = fused_split();
    let mut runner = runner.with_batch(16);
    // Direct NI-link injection bypasses the activity scheduler, so each
    // poke first wakes both regions (`ShardRunner::wake` — the cooperative
    // catch-up path — is itself part of what must stay allocation-free).
    let poke = |shards: &mut [NocShard], runner: &mut ShardRunner| {
        runner.wake(shards, 0);
        runner.wake(shards, 1);
        pump(shards, runner.cycle(), be, gt)
    };
    let span = |shards: &mut [NocShard], runner: &mut ShardRunner, cycles: u64| {
        // A burst of cut-crossing traffic at the span head keeps the arena
        // hot; the tail exercises the asleep (watermark-only) path.
        poke(shards, runner);
        runner.run_parallel(shards, cycles);
        let drained = poke(shards, runner);
        runner.run_parallel(shards, 8);
        drained + poke(shards, runner)
    };
    // Warm up both span shapes once (lazy statics, thread-name caches, …).
    span(&mut shards, &mut runner, 100);
    span(&mut shards, &mut runner, 1_100);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let short: u64 = (0..4).map(|_| span(&mut shards, &mut runner, 100)).sum();
    let short_allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let long: u64 = (0..4).map(|_| span(&mut shards, &mut runner, 1_100)).sum();
    let long_allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert!(short > 0 && long > 0, "spans delivered traffic");
    assert_eq!(
        short_allocs, long_allocs,
        "pipelined epochs must allocate per call (thread spawn), never per cycle"
    );
}

#[test]
fn quiescent_skip_allocates_nothing() {
    let _serial = serial();
    let topo = Topology::mesh(2, 2, 1);
    let mut noc = Noc::new(&topo);
    noc.run(10); // settle
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    noc.run(1_000_000); // idle: the engine batches this into one skip
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "the quiescent fast path must not allocate");
    assert_eq!(noc.cycle(), 1_000_010);
    assert_eq!(noc.stats().cycles, 1_000_010);
}

#[test]
fn steady_state_ni_system_run_allocates_nothing() {
    let _serial = serial();
    // Raw NIs streaming BE words across an 8x8 mesh: the kernels packetize
    // at every slot boundary, arbitrate, depacketize and return credits.
    let (mut be, _, sinks) = stream_mesh(8, 8, MeshTraffic::Uniform);
    be.run(2_000);
    let received = single_received(&be, &sinks);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    be.run(10_000);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    let delivered = single_received(&be, &sinks) - received;
    assert!(
        delivered > 10_000,
        "BE traffic actually flowed: {delivered}"
    );
    assert_eq!(
        allocs, 0,
        "a BE NocSystem::run must not touch the allocator"
    );
    // GT streams in reserved slots, ticked cycle by cycle (fast-forward
    // off): slot-table ownership, unused-slot accounting, credit-only
    // packets on the reverse channels.
    let mut gt = gt_stream_mesh(8, 8, 8);
    gt.set_fast_forward(false);
    gt.run(2_000);
    let received = gt_received(&gt, 8, 8);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    gt.run(10_000);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    let delivered = gt_received(&gt, 8, 8) - received;
    assert!(
        delivered > 10_000,
        "GT traffic actually flowed: {delivered}"
    );
    assert_eq!(
        allocs, 0,
        "a GT NocSystem::run must not touch the allocator"
    );
    assert_eq!(gt.noc.gt_conflicts(), 0);
}
