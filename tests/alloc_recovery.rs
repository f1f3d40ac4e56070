//! Crash consistency of the `cxl0::alloc` allocator subsystem, under
//! randomized interleavings of alloc/free/chain-free/torn-op/crash/
//! recover — crashes of the memory node, of the issuing compute node
//! (whose lost cache resurfaces stale intents), or both — and under
//! every [`PersistMode`]: **no block is ever lost, and no block
//! is ever handed out twice** — plus the headline acceptance scenario,
//! a `DurableQueue` churn loop of ≥ 10× the region's bump capacity that
//! completes because reclaimed nodes are reused.

use std::collections::BTreeSet;
use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::alloc::{TornAlloc, TornFree, META_CELLS};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::FreeError;
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

    for op in ops {
        let mut crash = None;
        match op {
            Op::Alloc => {
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
            }
            Op::Free(i) => {
                if model.live.is_empty() {
                    continue;
                }
                let loc = model.live.remove(usize::from(i) % model.live.len());
                alloc.free(&session, loc).unwrap().unwrap();
                assert!(model.freed.insert(loc));
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
