//! Crash consistency of the `cxl0::alloc` allocator subsystem, under
//! randomized interleavings of alloc/free/chain-free/magazine/torn-op/
//! crash/recover — crashes of the memory node, of the issuing compute
//! node (whose lost cache resurfaces stale intents), or both — and under
//! every [`PersistMode`]: **no block is ever lost, and no block
//! is ever handed out twice**; the same claim swept exhaustively over
//! every crash point of a short script; plus the headline acceptance
//! scenario, a `DurableQueue` churn loop of ≥ 10× the region's bump
//! capacity that completes because reclaimed nodes are reused.
//!
//! Every test here runs on a test-harness thread whose thread slot is
//! below 8, so its frees park in the thread's magazine.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::alloc::{Allocator, TornAlloc, TornFree, META_CELLS};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::{
    BufferedEpoch, Crashed, DurableQueue, Flit, FreeError, NodeHandle, OpResult, Persistence,
    SharedHeap, SimFabric, SmrDomain,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a block (all allocations share one size class, so the
    /// model's free set maps onto exactly one free list).
    Alloc,
    /// Free the i-th oldest live block, if any.
    Free(u8),
    /// Double-free the i-th oldest *freed* block — must be refused.
    DoubleFree(u8),
    /// Free up to n of the oldest live blocks as one chain.
    FreeChain(u8),
    /// Free up to n of the oldest live blocks one at a time: they park
    /// in the thread's magazine until it is full, then go to the list.
    FreeEach(u8),
    /// Allocate up to n blocks, taking parked ones back first.
    AllocEach(u8),
    /// Tear a magazine push of the i-th oldest live block after its
    /// intent, before its claim, then crash + recover.
    TornParkCrash(u8, Option<Victims>),
    /// Tear an allocation pop at the given stage, then crash + recover
    /// (see [`Op::TornChainCrash`] for the `None` case).
    TornAllocCrash(u8, Option<Victims>),
    /// Tear a free of the i-th oldest live block, then crash + recover.
    TornFreeCrash(u8, u8, Option<Victims>),
    /// Tear a chain free of up to n of the oldest live blocks — after
    /// the intent, after j < n claims, after the last claim, after the
    /// head CAS — then crash + recover. With `None` the crash is left
    /// to a later op: the torn operation's thread is dead, its intent
    /// slot stays leased, and traffic goes on over the other slots —
    /// which is how intents of *several* slots, stale ones included,
    /// come to face one sweep.
    TornChainCrash(u8, u8, Option<Victims>),
    /// Crash the memory node and run recovery (clean — nothing torn).
    CrashRecover,
    /// Crash the issuing compute node as well as the memory node: the
    /// unflushed intent clears die with its cache, so the stale intents
    /// of every slot it used resurface in the sweep.
    ComputeCrashRecover,
}

/// Which machines a crash takes down.
#[derive(Debug, Clone, Copy)]
enum Victims {
    Memory,
    /// The issuing compute node alone.
    Compute,
    Both,
}

fn arb_victims() -> impl Strategy<Value = Option<Victims>> {
    prop_oneof![
        Just(None),
        Just(None),
        Just(Some(Victims::Memory)),
        Just(Some(Victims::Compute)),
        Just(Some(Victims::Both)),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Alloc),
        Just(Op::Alloc),
        (0..8u8).prop_map(Op::Free),
        (0..8u8).prop_map(Op::DoubleFree),
        (1..6u8).prop_map(Op::FreeChain),
        (1..10u8).prop_map(Op::FreeEach),
        (1..10u8).prop_map(Op::AllocEach),
        (0..8u8, arb_victims()).prop_map(|(i, v)| Op::TornParkCrash(i, v)),
        (0..3u8, arb_victims()).prop_map(|(s, v)| Op::TornAllocCrash(s, v)),
        (0..8u8, 0..3u8, arb_victims()).prop_map(|(i, s, v)| Op::TornFreeCrash(i, s, v)),
        (1..6u8, 0..8u8, arb_victims()).prop_map(|(n, s, v)| Op::TornChainCrash(n, s, v)),
        Just(Op::CrashRecover),
        Just(Op::ComputeCrashRecover),
    ]
}

const ALLOC_STAGES: [TornAlloc; 3] = [TornAlloc::Recorded, TornAlloc::Swung, TornAlloc::Marked];

/// The tear points of an `n`-block chain free, in protocol order:
/// `Latched`, `Claimed(1..=n)`, `Pushed` (`stage` wraps).
fn chain_stage(n: usize, stage: u8) -> TornFree {
    match usize::from(stage) % (n + 2) {
        0 => TornFree::Latched,
        j if j <= n => TornFree::Claimed(j),
        _ => TornFree::Pushed,
    }
}

/// The single-threaded reference model: which blocks the application
/// owns, and which it has returned. (Block size is fixed at one class
/// so the model's free set maps onto exactly one free list.)
#[derive(Default)]
struct Model {
    /// Blocks handed out and not yet freed (insertion order).
    live: Vec<Loc>,
    /// Blocks returned to the allocator (the class free set).
    freed: BTreeSet<Loc>,
    /// Blocks a torn operation left for recovery to put back: on no
    /// list and not the application's until the next sweep.
    orphaned: Vec<Loc>,
    /// Intent slots leased to torn (dead) operations since the last
    /// sweep.
    leaked_slots: usize,
}

impl Model {
    /// Takes up to `n` of the oldest live blocks out of the live set.
    fn take_oldest(&mut self, n: u8) -> Vec<Loc> {
        let n = usize::from(n).min(self.live.len());
        self.live.drain(..n).collect()
    }

    /// A free torn at `stage`: a published chain is free already;
    /// short of that every claimed block is recovery's to put back (a
    /// latched intent completes the free of the block it names), and
    /// the unclaimed rest stay with the application.
    fn tear_free(&mut self, blocks: &[Loc], stage: TornFree) {
        self.leaked_slots += 1;
        let claimed = match stage {
            TornFree::Latched => 1,
            TornFree::Claimed(j) => j,
            TornFree::Pushed => {
                self.freed.extend(blocks);
                return;
            }
        };
        self.orphaned.extend(&blocks[..claimed]);
        self.live.extend(&blocks[claimed..]);
    }

    /// The sweep ran: every orphan is back on its list.
    fn recovered(&mut self) {
        self.freed.extend(self.orphaned.drain(..));
        self.leaked_slots = 0;
    }
}

/// Torn operations leak their intent slot until the next sweep; force
/// one well before the pool of 32 runs dry.
const MAX_LEAKED_SLOTS: usize = 8;

fn run_interleaving(mode: PersistMode, ops: Vec<Op>) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(mode)
        .root_capacity(0)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let compute = MachineId(0);
    let session = cluster.session(compute);
    let alloc = Arc::clone(session.allocator());
    let mut model = Model::default();
    // All blocks share one size class, so the model's `freed` set must
    // equal that class's free list after every recovery.
    const CELLS: u32 = 2;

    let crash_recover = |model: &mut Model, victims: Victims| {
        // Only the strict modes keep the allocator's state out of the
        // issuing node's cache; the no-durability baseline survives a
        // memory-node crash there and nothing else.
        let victims = if mode.is_strict() {
            victims
        } else {
            Victims::Memory
        };
        let down: &[MachineId] = match victims {
            Victims::Memory => &[mem],
            Victims::Compute => &[compute],
            Victims::Both => &[mem, compute],
        };
        for &m in down {
            cluster.crash(m);
        }
        for &m in down {
            cluster.recover(m);
        }
        let s = cluster.session(compute);
        s.recover_roots().unwrap();
        model.recovered();
        // Invariant: after recovery the free list holds *exactly* the
        // model's freed set (no block lost, none twice).
        let list: Vec<Loc> = alloc.debug_free_list(&s, CELLS).unwrap();
        let listed: BTreeSet<Loc> = list.iter().copied().collect();
        assert_eq!(listed.len(), list.len(), "a block is on the list twice");
        assert_eq!(listed, model.freed, "free list diverged from the model");
        for b in &model.live {
            assert!(!listed.contains(b), "live block {b:?} is on the free list");
        }
    };

    let alloc_one = |model: &mut Model| {
        if let Some(b) = alloc.alloc(&session, CELLS).unwrap() {
            assert!(
                !model.live.contains(&b.loc),
                "block {0:?} handed out while live",
                b.loc
            );
            assert!(
                !model.orphaned.contains(&b.loc),
                "block {0:?} handed out from a torn operation",
                b.loc
            );
            model.freed.remove(&b.loc);
            model.live.push(b.loc);
        }
    };
    for op in ops {
        let mut crash = None;
        match op {
            Op::Alloc => alloc_one(&mut model),
            Op::AllocEach(n) => (0..n).for_each(|_| alloc_one(&mut model)),
            Op::Free(i) => {
                if model.live.is_empty() {
                    continue;
                }
                let loc = model.live.remove(usize::from(i) % model.live.len());
                alloc.free(&session, loc).unwrap().unwrap();
                assert!(model.freed.insert(loc));
            }
            Op::FreeEach(n) => {
                for loc in model.take_oldest(n) {
                    alloc.free(&session, loc).unwrap().unwrap();
                    assert!(model.freed.insert(loc));
                }
            }
            Op::TornParkCrash(i, victims) => {
                if !model.live.is_empty() {
                    let at = usize::from(i) % model.live.len();
                    let loc = model.live[at];
                    // A push torn after its intent: the free was invoked,
                    // so recovery completes it. A magazine that cannot
                    // take the block leaves it untouched.
                    if alloc.torn_park(&session, loc).unwrap().unwrap() {
                        model.live.remove(at);
                        model.orphaned.push(loc);
                    }
                }
                crash = victims;
            }
            Op::DoubleFree(i) => {
                let Some(loc) = model
                    .freed
                    .iter()
                    .nth(usize::from(i) % model.freed.len().max(1))
                else {
                    continue;
                };
                assert_eq!(
                    alloc.free(&session, *loc).unwrap(),
                    Err(FreeError::DoubleFree)
                );
            }
            Op::FreeChain(n) => {
                let chain = model.take_oldest(n);
                assert_eq!(alloc.free_chain(&session, &chain).unwrap(), chain.len());
                model.freed.extend(chain);
            }
            Op::TornAllocCrash(stage, victims) => {
                // Tears mid-pop (a no-op if the free list is empty):
                // before the head CAS the block never left its list,
                // after it recovery must put it back — unless the tear
                // came after the header mark, where the allocation is
                // complete and the block is the (dead) caller's.
                let stage = ALLOC_STAGES[usize::from(stage) % 3];
                let torn = alloc.torn_alloc(&session, CELLS, stage).unwrap();
                if let Some(loc) = torn {
                    assert!(model.freed.contains(&loc), "tore a non-free block");
                    model.leaked_slots += 1;
                    match stage {
                        TornAlloc::Recorded => {}
                        TornAlloc::Swung => {
                            model.freed.remove(&loc);
                            model.orphaned.push(loc);
                        }
                        TornAlloc::Marked => {
                            model.freed.remove(&loc);
                            model.live.push(loc);
                        }
                    }
                }
                crash = victims;
            }
            Op::TornFreeCrash(i, stage, victims) => {
                if !model.live.is_empty() {
                    let loc = model.live.remove(usize::from(i) % model.live.len());
                    let stage = chain_stage(1, stage);
                    alloc.torn_free(&session, &[loc], stage).unwrap().unwrap();
                    // The free was invoked and the caller no longer owns
                    // the block; recovery must complete it exactly once.
                    model.tear_free(&[loc], stage);
                }
                crash = victims;
            }
            Op::TornChainCrash(n, stage, victims) => {
                let chain = model.take_oldest(n);
                if !chain.is_empty() {
                    let stage = chain_stage(chain.len(), stage);
                    alloc.torn_free(&session, &chain, stage).unwrap().unwrap();
                    model.tear_free(&chain, stage);
                }
                crash = victims;
            }
            Op::CrashRecover => crash = Some(Victims::Memory),
            Op::ComputeCrashRecover => crash = Some(Victims::Both),
        }
        if model.leaked_slots >= MAX_LEAKED_SLOTS {
            crash.get_or_insert(Victims::Both);
        }
        if let Some(victims) = crash {
            crash_recover(&mut model, victims);
        }
    }
    crash_recover(&mut model, Victims::Both);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance-criterion proptest: random alloc/free/chain/
    /// torn-op/crash/recover interleavings, under every *sound*
    /// durability mode plus the no-durability baseline (whose state
    /// survives a memory-node crash in the issuing node's cache, so its
    /// crashes are memory-node crashes only). The one
    /// exclusion is `FlitX86`, the deliberately unsound x86 port the
    /// paper's §6 keeps for comparison: its "flushes" park lines in the
    /// memory node's cache, so a memory-node crash loses acknowledged
    /// writes below the allocator — see
    /// [`flit_x86_unsoundness_reaches_the_allocator`] for that claim,
    /// pinned.
    #[test]
    fn no_block_lost_or_doubly_granted(ops in proptest::collection::vec(arb_op(), 0..48)) {
        for mode in PersistMode::comparison_set() {
            if mode != PersistMode::FlitX86 {
                run_interleaving(mode, ops.clone());
            }
        }
    }
}

/// The §6 motivating claim, reproduced at subsystem scale: no recovery
/// sweep can make allocation crash-consistent over an unsound flush
/// layer. Under the unadapted x86 FliT, a *completed* free is lost by a
/// memory-node crash (the freed block vanishes from the durable free
/// list), while the identical program under `FlitCxl0` keeps it.
#[test]
fn flit_x86_unsoundness_reaches_the_allocator() {
    let survivors = |mode: PersistMode| {
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
            .persist(mode)
            .root_capacity(0)
            .build()
            .unwrap();
        let mem = cluster.memory_node();
        let s = cluster.session(MachineId(0));
        let alloc = Arc::clone(s.allocator());
        let b = alloc.alloc(&s, 2).unwrap().unwrap();
        alloc.free(&s, b.loc).unwrap().unwrap();
        cluster.crash(mem);
        cluster.recover(mem);
        s.recover_roots().unwrap();
        alloc.debug_free_list(&s, 2).unwrap().len()
    };
    assert_eq!(survivors(PersistMode::FlitCxl0), 1);
    assert_eq!(
        survivors(PersistMode::FlitX86),
        0,
        "the unsound port must lose the completed free — if this starts \
         passing, the FlitX86 ablation no longer demonstrates §6"
    );
}

#[test]
fn torn_ops_recover_under_buffered_mode_after_sync() {
    // Buffered durability rolls unsynced epochs back wholesale; with a
    // sync point after the tear, the recovery sweep sees the torn state
    // and completes it, exactly like the strict modes.
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(PersistMode::Buffered {
            capacity: 512,
            sync_interval: 0,
        })
        .root_capacity(0)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());

    let a = alloc.alloc(&s, 2).unwrap().unwrap();
    let b = alloc.alloc(&s, 2).unwrap().unwrap();
    alloc.free(&s, a.loc).unwrap().unwrap();
    alloc
        .torn_free(&s, &[b.loc], TornFree::Claimed(1))
        .unwrap()
        .unwrap();
    s.sync().unwrap();

    cluster.crash(mem);
    cluster.recover(mem);
    s.recover_roots().unwrap();
    let listed: Vec<Loc> = alloc.debug_free_list(&s, 2).unwrap();
    let set: BTreeSet<Loc> = listed.iter().copied().collect();
    assert_eq!(set.len(), listed.len());
    assert_eq!(set, [a.loc, b.loc].into_iter().collect());
}

/// The headline acceptance scenario: an enqueue/dequeue churn loop of
/// ≥ 10× the region's bump capacity completes without exhausting the
/// heap, because dequeued nodes are reclaimed and reused.
#[test]
fn queue_churn_runs_10x_past_bump_capacity() {
    // A deliberately tiny memory node: the registry + allocator
    // metadata + a queue leave room for only a few dozen node blocks.
    let cells = META_CELLS + 256;
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, cells))
        .root_capacity(4)
        .build()
        .unwrap();
    let setup = cluster.session(MachineId(0));
    let q = setup.create_queue::<u64>("churn").unwrap();
    // A fresh session so the stats delta covers the churn loop only.
    let s = cluster.session(MachineId(0));

    // Every enqueue allocates a 3-cell block: without reclamation the
    // region would be exhausted after < 256 / 3 operations. Run > 10×
    // the whole region's capacity.
    let target = u64::from(cells) * 10;
    for i in 0..target {
        assert!(
            q.enqueue(&s, i + 1).unwrap(),
            "op {i}: heap exhausted — reclaimed nodes were not reused"
        );
        assert_eq!(q.dequeue(&s).unwrap(), Some(i + 1));
    }

    let d = s.stats_delta();
    assert_eq!(d.allocs - d.frees, 0, "churn must be allocation-neutral");
    assert!(
        d.freelist_hits > target - 100,
        "steady-state churn must be served by reuse ({} hits)",
        d.freelist_hits
    );
    assert!(
        d.hw_cells < 32,
        "steady-state churn must run in a constant handful of cells \
         (high-water {})",
        d.hw_cells
    );
}

/// Same bounded-memory property for the other reclaiming structures.
#[test]
fn stack_and_list_churn_run_past_bump_capacity() {
    let cells = META_CELLS + 256;
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, cells))
        .root_capacity(4)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    let stack = s.create_stack::<u64>("st").unwrap();
    let list = s.create_list::<u64>("ls").unwrap();
    for i in 0..1500u64 {
        assert!(stack.push(&s, i + 1).unwrap(), "op {i}");
        assert_eq!(stack.pop(&s).unwrap(), Some(i + 1));
        assert!(list.insert(&s, i % 9 + 1).unwrap(), "op {i}");
        assert!(list.remove(&s, i % 9 + 1).unwrap(), "op {i}");
        // No reclaim calls: the list retires unlinked nodes through the
        // SMR domain, whose amortized collection must keep this tiny
        // region serviceable on its own.
    }
    let d = s.stats_delta();
    assert!(d.smr_retires >= 1500, "retires {}", d.smr_retires);
    assert!(
        d.smr_reclaims > d.smr_retires - 64,
        "limbo must stay bounded ({} retired, {} reclaimed)",
        d.smr_retires,
        d.smr_reclaims
    );
}

/// Allocator recovery is wired into the session API: a torn allocator
/// op plus `Session::recover_roots` leaves the heap fully serviceable.
#[test]
fn recover_roots_runs_the_allocator_sweep() {
    let cluster = Cluster::symmetric(1, 4096).unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());

    let b = alloc.alloc(&s, 2).unwrap().unwrap();
    alloc
        .torn_free(&s, &[b.loc], TornFree::Claimed(1))
        .unwrap()
        .unwrap();

    cluster.crash(mem);
    cluster.recover(mem);
    s.recover_roots().unwrap();

    // The torn free completed: the block is reusable, exactly once.
    let again = alloc.alloc(&s, 2).unwrap().unwrap();
    assert_eq!(again.loc, b.loc);
    assert!(alloc.debug_free_list(&s, 2).unwrap().is_empty());
}

/// Frees park in the thread's magazine up to its depth of 8 and go to
/// the shared list beyond it, or when the block is of another class;
/// allocs take parked blocks back oldest first, then fall through to
/// the list.
#[test]
fn the_magazine_parks_eight_frees_and_hands_them_back_oldest_first() {
    let cluster = Cluster::symmetric(1, 4096).unwrap();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());
    let blocks: Vec<Loc> = (0..9)
        .map(|_| alloc.alloc(&s, 2).unwrap().unwrap().loc)
        .collect();
    let other = alloc.alloc(&s, 1).unwrap().unwrap().loc;
    for &b in &blocks[..8] {
        alloc.free(&s, b).unwrap().unwrap();
    }
    assert!(alloc.debug_free_list(&s, 2).unwrap().is_empty(), "parked");
    assert_eq!(
        alloc.free(&s, blocks[3]).unwrap(),
        Err(FreeError::DoubleFree),
        "a parked block is free"
    );
    alloc.free(&s, blocks[8]).unwrap().unwrap();
    alloc.free(&s, other).unwrap().unwrap();
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap(), vec![blocks[8]]);
    assert_eq!(alloc.debug_free_list(&s, 1).unwrap(), vec![other]);
    for &b in &blocks {
        let again = alloc.alloc(&s, 2).unwrap().unwrap();
        assert_eq!(again.loc, b, "oldest parked first, then the list");
        assert!(again.recycled);
    }
    assert!(alloc.debug_free_list(&s, 2).unwrap().is_empty());
}

/// Recovery voids the magazines and publishes every parked block —
/// through chains that overlap because a block taken back was parked
/// again — and completes a push torn before its claim. A magazine that
/// never pushed costs nothing: the sweep after it is clean.
#[test]
fn recovery_returns_parked_blocks_and_completes_a_torn_push() {
    let cluster = Cluster::symmetric(1, 4096).unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());
    let b: Vec<Loc> = (0..4)
        .map(|_| alloc.alloc(&s, 2).unwrap().unwrap().loc)
        .collect();
    for &x in &b[..3] {
        alloc.free(&s, x).unwrap().unwrap();
    }
    // Take the oldest back and park it again: it now heads a chain
    // that runs into the one it left.
    assert_eq!(alloc.alloc(&s, 2).unwrap().unwrap().loc, b[0]);
    alloc.free(&s, b[0]).unwrap().unwrap();
    assert!(alloc.torn_park(&s, b[3]).unwrap().unwrap());
    // A torn magazine is left alone: this free goes to the list.
    let listed = alloc.alloc(&s, 2).unwrap().unwrap().loc;
    assert_eq!(alloc.free_chain(&s, &[listed]).unwrap(), 1);

    for m in [mem, MachineId(0)] {
        cluster.crash(m);
    }
    for m in [mem, MachineId(0)] {
        cluster.recover(m);
    }
    let r = alloc.recover(&s).unwrap();
    // Sealed: the torn push, and the list free's intent, whose
    // unflushed clear died with the compute node's cache. The cell
    // naming the chain's newest block is not, and only the torn
    // block counts as restored.
    assert_eq!((r.sealed_intents, r.restored_blocks), (2, 1));
    let list: BTreeSet<Loc> = alloc.debug_free_list(&s, 2).unwrap().into_iter().collect();
    let expected: BTreeSet<Loc> = b.iter().copied().chain([listed]).collect();
    assert_eq!(list, expected);
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap().len(), 5);
    // Both cells were zeroed and the magazine voided.
    assert_eq!(alloc.recover(&s).unwrap(), Default::default());
    let again = alloc.alloc(&s, 2).unwrap().unwrap();
    assert!(expected.contains(&again.loc));
}

// ---- the exhaustive crash-point sweep -----------------------------------
//
// Granularity: one `Persistence` call, not one fabric primitive. A call
// that issues several primitives (a FliT store is a store and a flush) is
// cut before it starts, never between its primitives; a crash hook at the
// primitive boundary would refine the sweep to those points.

/// A [`Persistence`] that delegates to `inner` until its `k`-th call.
/// Right before that call it crashes `victim` (recovering the machine at
/// once: the crash is an instant) and fails the call and every later
/// one — the calling thread dies there.
#[derive(Debug)]
struct CrashAt {
    inner: Arc<dyn Persistence>,
    fabric: Arc<SimFabric>,
    victim: MachineId,
    calls: AtomicUsize,
    at: AtomicUsize,
}

impl CrashAt {
    fn tick(&self) -> OpResult<()> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        let at = self.at.load(Ordering::SeqCst);
        if n == at {
            self.fabric.crash(self.victim);
            self.fabric.recover(self.victim);
        }
        if n >= at {
            return Err(Crashed {
                machine: self.victim,
            });
        }
        Ok(())
    }
}

impl Persistence for CrashAt {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
        self.tick()?;
        self.inner.shared_load(node, loc, pflag)
    }
    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        self.tick()?;
        self.inner.shared_store(node, loc, v, pflag)
    }
    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        self.tick()?;
        self.inner.private_load(node, loc)
    }
    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        self.tick()?;
        self.inner.private_store(node, loc, v, pflag)
    }
    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        self.tick()?;
        self.inner.shared_cas(node, loc, old, new, pflag)
    }
    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        self.tick()?;
        self.inner.shared_faa(node, loc, delta, pflag)
    }
    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        self.tick()?;
        self.inner.complete_op(node)
    }
    fn defers_batches(&self) -> bool {
        self.inner.defers_batches()
    }
    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()> {
        self.tick()?;
        self.inner.batched_store(node, loc, v)
    }
    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()> {
        self.tick()?;
        self.inner.flush_batch(node)
    }
}

const COMPUTE: MachineId = MachineId(0);
const MEMORY: MachineId = MachineId(1);

/// What the script knows of the heap.
#[derive(Default)]
struct Known {
    /// Every block the script saw: its own allocations and every node
    /// ever linked into the queue.
    blocks: BTreeSet<Loc>,
    /// The script's own live blocks.
    live: BTreeSet<Loc>,
    /// Blocks the cut operation acted on: free or not, either is right.
    in_flight: Vec<Loc>,
    /// The cut operation allocates: one block it took may be leaked, as
    /// by any caller that dies once its allocation completed.
    allocating: bool,
}

/// The queue's header block and every node reachable from its head.
fn queue_blocks(alloc: &Allocator, q: &DurableQueue, node: &NodeHandle) -> BTreeSet<Loc> {
    let mut out = BTreeSet::from([q.header_cell()]);
    let mut cur = alloc.decode(node.load(q.header_cell()).unwrap());
    while let Some(n) = cur {
        out.insert(n);
        cur = alloc.decode(node.load(Loc::new(n.owner, n.addr.0 + 1)).unwrap());
    }
    out
}

/// The swept scripts.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// free ×3 → alloc ×2 → a free of another class → a full magazine
    /// falling through to the shared list → queue enqueue/dequeue ×4.
    Magazine,
    /// SMR drains: retire ×10 → collect (a bag of 8 spliced whole into
    /// the empty magazine, a bag of 2 chained past the full one) → alloc
    /// ×3; free ×1 → retire ×4 → collect (the magazine holds 6: 2
    /// blocks splice, 2 chain).
    Splice,
}

impl Script {
    /// Live two-cell blocks the script starts from.
    fn blocks(self) -> usize {
        match self {
            Script::Magazine => 11,
            Script::Splice => 15,
        }
    }
}

/// Runs `script` over `b`, its two-cell blocks, and `other`, a
/// one-cell one — all live.
#[allow(clippy::too_many_arguments)]
fn sweep_script(
    script: Script,
    alloc: &Allocator,
    smr: &SmrDomain,
    q: &DurableQueue,
    node: &NodeHandle,
    b: &[Loc],
    other: Loc,
    known: &mut Known,
) -> OpResult<()> {
    let free = |known: &mut Known, x: Loc| -> OpResult<()> {
        known.in_flight = vec![x];
        alloc.free(node, x)?.expect("the script frees live blocks");
        known.live.remove(&x);
        Ok(())
    };
    let alloc_n = |known: &mut Known, n: usize| -> OpResult<()> {
        known.in_flight.clear();
        known.allocating = true;
        for _ in 0..n {
            let got = alloc.alloc(node, 2)?.expect("heap fits").loc;
            known.live.insert(got);
        }
        known.allocating = false;
        Ok(())
    };
    // A retired block is unlinked: no longer live, and reclaimed by the
    // drain, by the allocator's sweep or by the domain's.
    let drain = |known: &mut Known, bag: &[Loc]| -> OpResult<()> {
        known.in_flight.clear();
        for &x in bag {
            known.live.remove(&x);
            smr.pin().retire(node, x)?;
        }
        smr.collect(node)?;
        Ok(())
    };
    if let Script::Splice = script {
        drain(known, &b[..10])?;
        alloc_n(known, 3)?;
        free(known, b[10])?;
        drain(known, &b[11..])?;
        return Ok(());
    }
    for &x in &b[..3] {
        free(known, x)?;
    }
    alloc_n(known, 2)?;
    free(known, other)?;
    // One block is parked: seven more fill the magazine, the last of
    // `b` overflows to the list.
    for &x in &b[3..] {
        free(known, x)?;
    }
    for v in 1..=4u64 {
        known.in_flight.clear();
        known.allocating = true;
        assert!(q.enqueue(node, v)?);
        known.blocks.extend(queue_blocks(alloc, q, node));
        known.allocating = false;
        let dummy = alloc.decode(node.load(q.header_cell()).unwrap());
        known.in_flight = dummy.into_iter().collect();
        assert_eq!(q.dequeue(node)?, Some(v));
        known.blocks.extend(queue_blocks(alloc, q, node));
    }
    known.in_flight.clear();
    Ok(())
}

/// Builds a durability strategy over the fabric (and hands back the
/// buffered epoch, whose rollback runs before the allocator's sweep).
type MakePersist = dyn Fn(&Arc<SimFabric>) -> (Arc<dyn Persistence>, Option<Arc<BufferedEpoch>>);

/// One run of the sweep: builds the heap under `inner`, runs `script`
/// with a crash of `victim` before the `k`-th `Persistence` call (none
/// when `k` is past the script's calls), recovers — the allocator's
/// sweep, then the reclamation domain's, then the queue's — and checks
/// that no block is lost, none is listed twice, and no live block is
/// listed. Returns how many calls the script made.
fn sweep_run(script: Script, mode: &str, make: &MakePersist, victim: MachineId, k: usize) -> usize {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 8192));
    let node = fabric.node(COMPUTE);
    let (inner, buffered) = make(&fabric);
    let crash = Arc::new(CrashAt {
        inner,
        fabric: Arc::clone(&fabric),
        victim,
        calls: AtomicUsize::new(0),
        at: AtomicUsize::new(usize::MAX),
    });
    let alloc = Arc::new(Allocator::with_range(
        fabric.config(),
        MEMORY,
        1024,
        8192 - 1024,
        Arc::clone(&crash) as Arc<dyn Persistence>,
    ));
    alloc.format(&node).unwrap();
    let smr = SmrDomain::new(Arc::clone(&alloc));
    let q = DurableQueue::<u64>::create(&alloc, &node).unwrap().unwrap();
    let mut known = Known::default();
    let b: Vec<Loc> = (0..script.blocks())
        .map(|_| alloc.alloc(&node, 2).unwrap().unwrap().loc)
        .collect();
    let other = alloc.alloc(&node, 1).unwrap().unwrap().loc;
    known.live.extend(b.iter().chain([&other]));
    known.blocks.extend(known.live.iter().copied());
    known.blocks.extend(queue_blocks(&alloc, &q, &node));

    let base = crash.calls.load(Ordering::SeqCst);
    crash.at.store(base.saturating_add(k), Ordering::SeqCst);
    let cut = sweep_script(script, &alloc, &smr, &q, &node, &b, other, &mut known).is_err();
    let calls = crash.calls.load(Ordering::SeqCst) - base;
    crash.at.store(usize::MAX, Ordering::SeqCst);
    if !cut {
        known.in_flight.clear();
        known.allocating = false;
        // The full magazine's blocks are parked, not listed.
        assert_eq!(
            alloc.debug_parked().len(),
            8,
            "{mode}: the script must run on a thread with a magazine"
        );
        if let Script::Magazine = script {
            assert!(alloc.debug_free_list(&node, 2).unwrap().len() < 3);
        }
    }

    if let Some(epoch) = &buffered {
        epoch.recover(&node).unwrap();
    }
    alloc.recover(&node).unwrap();
    smr.recover(&node).unwrap();
    q.recover(&node).unwrap();
    assert!(
        alloc.debug_parked().is_empty(),
        "recovery voids the magazine"
    );
    assert_eq!(smr.limbo_len(), 0);

    let ctx = format!("{script:?} script, {mode}, crash of {victim:?} before call {k}");
    let mut listed = Vec::new();
    for cells in [1, 2] {
        listed.extend(alloc.debug_free_list(&node, cells).unwrap());
    }
    let listed_set: BTreeSet<Loc> = listed.iter().copied().collect();
    assert_eq!(
        listed_set.len(),
        listed.len(),
        "{ctx}: a block is listed twice"
    );
    let live: BTreeSet<Loc> = known
        .live
        .iter()
        .filter(|x| !known.in_flight.contains(x))
        .copied()
        .chain(queue_blocks(&alloc, &q, &node))
        .collect();
    for x in &live {
        assert!(!listed_set.contains(x), "{ctx}: live block {x:?} is listed");
    }
    let lost: Vec<Loc> = known
        .blocks
        .iter()
        .filter(|x| !live.contains(x) && !listed_set.contains(x))
        .filter(|x| !known.in_flight.contains(x))
        .copied()
        .collect();
    let spare = usize::from(known.allocating);
    assert!(lost.len() <= spare, "{ctx}: blocks lost: {lost:?}");
    calls
}

/// Every crash point of both scripts, for both victims, under every
/// sound durability mode. `Buffered` (synced after every operation) takes
/// memory-node crashes only: tolerating a crash of the writer is outside
/// that strategy's scope (see `BufferedEpoch`).
#[test]
fn every_crash_point_of_a_magazine_script_recovers_every_block() {
    type Make = Box<MakePersist>;
    let mut modes: Vec<(&str, Make, Vec<MachineId>)> = PersistMode::comparison_set()
        .into_iter()
        .filter(|m| m.is_strict() && *m != PersistMode::FlitX86)
        .map(|mode| {
            let make: Make = Box::new(move |_: &Arc<SimFabric>| {
                let flit: Arc<dyn Persistence> = Arc::new(Flit::new(mode.policy()));
                (flit, None)
            });
            (mode.name(), make, vec![COMPUTE, MEMORY])
        })
        .collect();
    modes.push((
        "buffered",
        Box::new(|fabric: &Arc<SimFabric>| {
            let heap = SharedHeap::with_range(fabric.config(), MEMORY, 0, 1024);
            let epoch = Arc::new(BufferedEpoch::create(&heap, 128, 1).unwrap());
            (Arc::clone(&epoch) as Arc<dyn Persistence>, Some(epoch))
        }),
        vec![MEMORY],
    ));
    assert_eq!(modes.len(), 5, "four sound FliT modes and buffered");
    for script in [Script::Magazine, Script::Splice] {
        for (mode, make, victims) in &modes {
            let calls = sweep_run(script, mode, make.as_ref(), COMPUTE, usize::MAX);
            assert!(calls > 50, "{mode}: the script made only {calls} calls");
            for &victim in victims {
                for k in 0..=calls {
                    sweep_run(script, mode, make.as_ref(), victim, k);
                }
            }
        }
    }
}
