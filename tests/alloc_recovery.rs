//! Crash consistency of the `cxl0::alloc` allocator subsystem, under
//! randomized interleavings of alloc/free/chain-free/magazine ops,
//! operations killed at a random primitive, and crash/recover —
//! crashes of the memory node, of the issuing compute node (whose lost
//! cache resurfaces stale intents), or both — and under every
//! [`PersistMode`]: **no block is ever lost, and no block is ever
//! handed out twice**; the same claim swept exhaustively over every
//! primitive of a short script; plus the headline acceptance scenario,
//! a `DurableQueue` churn loop of ≥ 10× the region's bump capacity that
//! completes because reclaimed nodes are reused.
//!
//! Every test here runs on a test-harness thread whose thread slot is
//! below 8, so its frees park in the thread's magazine.

use std::collections::BTreeSet;
use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::alloc::{Allocator, META_CELLS};
use cxl0::runtime::api::{Cluster, PersistMode, Session};
use cxl0::runtime::{
    BufferedEpoch, DurableQueue, Flit, FreeError, NodeHandle, OpResult, Persistence, SharedHeap,
    SimFabric, SmrDomain,
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
    /// `free` the i-th oldest live block — parked in the magazine when
    /// it has room — killed right before its k-th primitive, then crash
    /// + recover.
    KillPark(u8, u8, Option<Victims>),
    /// An alloc killed right before its k-th primitive, then crash +
    /// recover (see [`Op::KillChain`] for the `None` case).
    KillAlloc(u8, Option<Victims>),
    /// A list free of the i-th oldest live block killed right before its
    /// k-th primitive, then crash + recover.
    KillFree(u8, u8, Option<Victims>),
    /// A chain free of up to n of the oldest live blocks killed right
    /// before its k-th primitive, then crash + recover. The kill is
    /// thread death only: no machine crashes with it, so the heap stays
    /// as the dead operation left it. With `None` the crash is left to
    /// a later op: the killed operation's intent slot stays leased, and
    /// traffic goes on over the other slots — which is how intents of
    /// *several* slots, stale ones included, come to face one sweep.
    KillChain(u8, u8, Option<Victims>),
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
        (0..8u8, 1..16u8, arb_victims()).prop_map(|(i, k, v)| Op::KillPark(i, k, v)),
        (1..16u8, arb_victims()).prop_map(|(k, v)| Op::KillAlloc(k, v)),
        (0..8u8, 1..16u8, arb_victims()).prop_map(|(i, k, v)| Op::KillFree(i, k, v)),
        (1..6u8, 1..32u8, arb_victims()).prop_map(|(n, k, v)| Op::KillChain(n, k, v)),
        Just(Op::CrashRecover),
        Just(Op::ComputeCrashRecover),
    ]
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
    /// The blocks of each free killed mid-operation, in chain order:
    /// it published some prefix of them (none to all), and its dead
    /// caller still owns the rest.
    killed_frees: Vec<Vec<Loc>>,
    /// Blocks a killed alloc took off its list or out of its magazine:
    /// recovery puts each back, unless the pop had completed.
    killed_pops: Vec<Loc>,
    /// Intent slots leased to killed operations since the last sweep.
    leaked_slots: usize,
}

impl Model {
    /// Takes up to `n` of the oldest live blocks out of the live set.
    fn take_oldest(&mut self, n: u8) -> Vec<Loc> {
        let n = usize::from(n).min(self.live.len());
        self.live.drain(..n).collect()
    }

    /// An alloc took `b` — handed it out, or died popping it. A block
    /// of a killed free is on a list only once that free published its
    /// whole chain.
    fn popped(&mut self, b: Loc) {
        assert!(!self.live.contains(&b), "block {b:?} handed out while live");
        assert!(
            !self.killed_pops.contains(&b),
            "block {b:?} handed out from a killed pop"
        );
        if let Some(at) = self.killed_frees.iter().position(|c| c.contains(&b)) {
            self.freed.extend(self.killed_frees.remove(at));
        }
        self.freed.remove(&b);
    }

    /// An alloc handed out `b`.
    fn allocated(&mut self, b: Loc) {
        self.popped(b);
        self.live.push(b);
    }

    /// The sweep ran and `listed` is the free list: adopt the outcome
    /// of every killed operation — a free published a prefix of its
    /// chain, a pop's block is back on the list or allocated.
    fn recovered(&mut self, listed: &BTreeSet<Loc>) {
        for chain in self.killed_frees.drain(..) {
            let j = chain.iter().take_while(|b| listed.contains(b)).count();
            assert!(
                chain[j..].iter().all(|b| !listed.contains(b)),
                "a killed free published {chain:?} out of order"
            );
            self.freed.extend(&chain[..j]);
            self.live.extend(&chain[j..]);
        }
        for b in self.killed_pops.drain(..) {
            if listed.contains(&b) {
                self.freed.insert(b);
            } else {
                self.live.push(b);
            }
        }
        self.leaked_slots = 0;
    }
}

/// Runs `op` with its issuing thread killed right before its `k`-th
/// primitive, crashing `victims` there (and recovering them at once).
/// `None` if it died there, its result if it finished first.
fn killed_at<T>(
    fabric: &SimFabric,
    k: u64,
    victims: &[MachineId],
    op: impl FnOnce() -> OpResult<T>,
) -> Option<T> {
    fabric.arm_crash(k, victims);
    let result = op();
    assert_eq!(result.is_err(), fabric.disarm_crash());
    for &m in victims {
        fabric.recover(m);
    }
    result.ok()
}

/// Runs `run(k)` for `k` = 1, 2, … until it reports that its kill
/// point did not fire, and returns its outcomes in order with runs of
/// equal ones collapsed.
fn collapsed_kills<O: PartialEq>(mut run: impl FnMut(u64) -> (O, bool)) -> Vec<O> {
    let mut outcomes = Vec::new();
    for k in 1.. {
        let (outcome, killed) = run(k);
        if outcomes.last() != Some(&outcome) {
            outcomes.push(outcome);
        }
        if !killed {
            break;
        }
    }
    outcomes
}

/// The strict, sound durability modes: FliT under every flush policy
/// but the deliberately unsound x86 port.
fn strict_sound_modes() -> Vec<PersistMode> {
    PersistMode::comparison_set()
        .into_iter()
        .filter(|m| m.is_strict() && m.policy().sound)
        .collect()
}

/// The two-cell free list, sorted, and which of `tracked` a free
/// proves still allocated (freeing them).
fn listed_and_live(alloc: &Allocator, s: &Session, tracked: &[Loc]) -> (Vec<Loc>, Vec<Loc>) {
    let mut listed = alloc.debug_free_list(s, 2).unwrap();
    listed.sort();
    let live = tracked
        .iter()
        .filter(|&&b| alloc.free_chain(s, &[b]).unwrap() == 1)
        .copied()
        .collect();
    (listed, live)
}

/// The blocks parked in the calling thread's magazine or on the
/// two-cell free list.
fn free_blocks(alloc: &Allocator, s: &Session) -> BTreeSet<Loc> {
    let listed = alloc.debug_free_list(s, 2).unwrap();
    alloc.debug_parked().into_iter().chain(listed).collect()
}

/// Killed operations leak their intent slot until the next sweep; force
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
        // Invariant: after recovery the free list holds *exactly* the
        // model's freed set (no block lost, none twice).
        let list: Vec<Loc> = alloc.debug_free_list(&s, CELLS).unwrap();
        let listed: BTreeSet<Loc> = list.iter().copied().collect();
        assert_eq!(listed.len(), list.len(), "a block is on the list twice");
        model.recovered(&listed);
        assert_eq!(listed, model.freed, "free list diverged from the model");
        for b in &model.live {
            assert!(!listed.contains(b), "live block {b:?} is on the free list");
        }
    };
    let fabric = cluster.fabric();
    // A killed operation's thread dies with its machine: the issuing
    // node crashes at the kill (and restarts at once, skipping the
    // sweep), taking its unflushed lines along. The no-durability
    // baseline keeps everything in that cache, so there only the
    // thread dies.
    let killer: &[MachineId] = if mode.is_strict() { &[compute] } else { &[] };
    // A killed free: its blocks await recovery's verdict.
    let kill_free = |model: &mut Model, blocks: Vec<Loc>, freed: Option<usize>| match freed {
        Some(n) => {
            assert_eq!(n, blocks.len());
            model.freed.extend(blocks);
        }
        None => {
            model.leaked_slots += 1;
            model.killed_frees.push(blocks);
        }
    };

    for op in ops {
        let mut crash = None;
        match op {
            Op::Alloc => {
                if let Some(b) = alloc.alloc(&session, CELLS).unwrap() {
                    model.allocated(b.loc);
                }
            }
            Op::AllocEach(n) => {
                for _ in 0..n {
                    if let Some(b) = alloc.alloc(&session, CELLS).unwrap() {
                        model.allocated(b.loc);
                    }
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
            Op::FreeEach(n) => {
                for loc in model.take_oldest(n) {
                    alloc.free(&session, loc).unwrap().unwrap();
                    assert!(model.freed.insert(loc));
                }
            }
            Op::KillPark(i, k, victims) => {
                if !model.live.is_empty() {
                    let loc = model.live.remove(usize::from(i) % model.live.len());
                    let freed = killed_at(fabric, k.into(), killer, || alloc.free(&session, loc));
                    let freed = freed.map(|r| r.map_or(0, |()| 1));
                    kill_free(&mut model, vec![loc], freed);
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
            Op::KillAlloc(k, victims) => {
                // A pop killed before its head CAS left its block on the
                // list; after it, the block is recovery's to put back —
                // unless the pop completed at its header mark, and the
                // block is the dead caller's. A magazine pop is the mark.
                let before = free_blocks(&alloc, &session);
                match killed_at(fabric, k.into(), killer, || alloc.alloc(&session, CELLS)) {
                    Some(got) => {
                        if let Some(b) = got {
                            model.allocated(b.loc);
                        }
                    }
                    None => {
                        model.leaked_slots += 1;
                        let after = free_blocks(&alloc, &session);
                        let taken: Vec<Loc> = before.difference(&after).copied().collect();
                        assert!(taken.len() <= 1, "one pop took {taken:?}");
                        for b in taken {
                            model.popped(b);
                            model.killed_pops.push(b);
                        }
                    }
                }
                crash = victims;
            }
            Op::KillFree(i, k, victims) => {
                if !model.live.is_empty() {
                    let loc = model.live.remove(usize::from(i) % model.live.len());
                    let freed = killed_at(fabric, k.into(), killer, || {
                        alloc.free_chain(&session, &[loc])
                    });
                    kill_free(&mut model, vec![loc], freed);
                }
                crash = victims;
            }
            Op::KillChain(n, k, victims) => {
                let chain = model.take_oldest(n);
                if !chain.is_empty() {
                    let freed = killed_at(fabric, k.into(), killer, || {
                        alloc.free_chain(&session, &chain)
                    });
                    kill_free(&mut model, chain, freed);
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
    // Every block the model holds live — killed operations' blocks
    // included — is allocated: a free of each succeeds.
    let freed = alloc.free_chain(&session, &model.live).unwrap();
    assert_eq!(
        freed,
        model.live.len(),
        "a block the model holds live was lost"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance-criterion proptest: random alloc/free/chain/
    /// killed-op/crash/recover interleavings, under every *sound*
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

/// Buffered durability rolls unsynced epochs back wholesale; with a
/// sync point after a killed free, the recovery sweep sees the torn
/// state and completes it, exactly like the strict modes — at every
/// kill point of the free.
#[test]
fn torn_ops_recover_under_buffered_mode_after_sync() {
    let mode = PersistMode::Buffered {
        capacity: 512,
        sync_interval: 0,
    };
    let mut blocks = Vec::new();
    let outcomes = collapsed_kills(|k| {
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
            .persist(mode)
            .root_capacity(0)
            .build()
            .unwrap();
        let mem = cluster.memory_node();
        let s = cluster.session(MachineId(0));
        let alloc = Arc::clone(s.allocator());
        let a = alloc.alloc(&s, 2).unwrap().unwrap().loc;
        let b = alloc.alloc(&s, 2).unwrap().unwrap().loc;
        alloc.free(&s, a).unwrap().unwrap();
        let killed = killed_at(cluster.fabric(), k, &[], || alloc.free_chain(&s, &[b])).is_none();
        s.sync().unwrap();
        cluster.crash(mem);
        cluster.recover(mem);
        s.recover_roots().unwrap();
        blocks = vec![a, b];
        (listed_and_live(&alloc, &s, &[b]), killed)
    });
    let [a, b] = [blocks[0], blocks[1]];
    let mut both = vec![a, b];
    both.sort();
    // Untouched, or freed exactly once from the latch on.
    assert_eq!(outcomes, [(vec![a], vec![b]), (both, vec![])]);
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

/// Allocator recovery is wired into the session API: a free killed at
/// any of its primitives, then a memory-node crash and
/// `Session::recover_roots`, leaves the block free exactly once from
/// the free's latch on — under every strict sound mode.
#[test]
fn recover_roots_runs_the_allocator_sweep() {
    for mode in strict_sound_modes() {
        let mut block = None;
        let outcomes = collapsed_kills(|k| {
            let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
                .persist(mode)
                .build()
                .unwrap();
            let mem = cluster.memory_node();
            let s = cluster.session(MachineId(0));
            let alloc = Arc::clone(s.allocator());
            let b = alloc.alloc(&s, 2).unwrap().unwrap().loc;
            let killed =
                killed_at(cluster.fabric(), k, &[], || alloc.free_chain(&s, &[b])).is_none();
            cluster.crash(mem);
            cluster.recover(mem);
            s.recover_roots().unwrap();
            block = Some(b);
            (listed_and_live(&alloc, &s, &[b]), killed)
        });
        let b = block.unwrap();
        let expected = [(vec![], vec![b]), (vec![b], vec![])];
        assert_eq!(outcomes, expected, "{}", mode.name());
    }
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
/// again — and completes a push killed before its claim, at every kill
/// point of the push. A magazine that never pushed costs nothing: the
/// sweep after it is clean.
#[test]
fn recovery_returns_parked_blocks_and_completes_a_torn_push() {
    for mode in strict_sound_modes() {
        let (mut blocks, mut fresh) = (Vec::new(), None);
        let outcomes = collapsed_kills(|k| {
            let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
                .persist(mode)
                .build()
                .unwrap();
            let mem = cluster.memory_node();
            let s = cluster.session(MachineId(0));
            let alloc = Arc::clone(s.allocator());
            let b: Vec<Loc> = (0..4)
                .map(|_| alloc.alloc(&s, 2).unwrap().unwrap().loc)
                .collect();
            for &x in &b[..3] {
                alloc.free(&s, x).unwrap().unwrap();
            }
            // Take the oldest back and park it again: it now heads a
            // chain that runs into the one it left.
            assert_eq!(alloc.alloc(&s, 2).unwrap().unwrap().loc, b[0]);
            alloc.free(&s, b[0]).unwrap().unwrap();
            let killed = killed_at(cluster.fabric(), k, &[], || alloc.free(&s, b[3])).is_none();
            // Later traffic: a magazine the dead push left torn is left
            // alone, and this alloc falls through to the bump tail.
            let later = alloc.alloc(&s, 2).unwrap().unwrap().loc;
            assert_eq!(alloc.free_chain(&s, &[later]).unwrap(), 1);

            for m in [mem, MachineId(0)] {
                cluster.crash(m);
            }
            for m in [mem, MachineId(0)] {
                cluster.recover(m);
            }
            let r = alloc.recover(&s).unwrap();
            let tracked = [&b[..], &[later]].concat();
            let (listed, live) = listed_and_live(&alloc, &s, &tracked);
            // Both cells were zeroed and the magazine voided.
            assert_eq!(alloc.recover(&s).unwrap(), Default::default());
            if !b.contains(&later) {
                fresh = Some(later);
            }
            blocks = b;
            ((r.sealed_intents, r.restored_blocks, listed, live), killed)
        });
        let (b, c) = (
            &blocks,
            fresh.expect("a torn magazine sends the alloc to the bump tail"),
        );
        let all: Vec<Loc> = [&b[..], &[c]].concat();
        // The list free's intent is always sealed: its unflushed clear
        // died with the compute node's cache.
        let mut expected = vec![
            // Untouched: the later alloc takes b[1] back from the magazine.
            (1, 0, b[..3].to_vec(), vec![b[3]]),
            // Killed at the latch: the magazine is torn, b[3] untouched.
            (1, 0, [&b[..3], &[c]].concat(), vec![b[3]]),
            // Latched: the sweep completes the push torn before its
            // claim. The cell naming the chain's newest block is not
            // sealed, and only the torn block counts as restored.
            (2, 1, all.clone(), vec![]),
            // Complete: b[3] parked, the later alloc takes b[1] back.
            (1, 0, b.clone(), vec![]),
        ];
        if mode == PersistMode::FlitAsync {
            // Claimed, its `AFlush` retired by the later traffic's
            // barrier, with the magazine still torn.
            expected.insert(3, (1, 0, all, vec![]));
        }
        assert_eq!(outcomes, expected, "{}", mode.name());
    }
}

/// A ripe bag `[b₁, X, b₂]` whose `X` was freed inline after it was
/// retired, so the drain's claim of `X` is refused mid-run. With room in
/// the magazine the drain splices `b₁`, linked to the parked `X`, and
/// re-aims it at the newest parked block; with the magazine full it
/// chains the bag to the list, and `b₁` links to the listed `X` until
/// the publish relinks it to the top. The compute and memory nodes crash
/// before every primitive of the `collect`; after the allocator's sweep
/// and the domain's, every block is free exactly once — listed, and
/// handed back at the generation one free gives it — `X` included.
#[test]
fn a_claim_refused_mid_run_recovers_at_every_kill_point() {
    for mode in strict_sound_modes() {
        for full in [false, true] {
            let mut tracked = Vec::new();
            let outcomes = collapsed_kills(|k| {
                let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
                    .persist(mode)
                    .root_capacity(0)
                    .build()
                    .unwrap();
                let (mem, compute) = (cluster.memory_node(), MachineId(0));
                let s = cluster.session(compute);
                let alloc = Arc::clone(s.allocator());
                let blocks: Vec<_> = (0..if full { 12 } else { 4 })
                    .map(|_| alloc.alloc(&s, 2).unwrap().unwrap())
                    .collect();
                let (bag, x, y) = (&blocks[..3], blocks[1].loc, blocks[3].loc);
                {
                    let guard = s.smr().pin();
                    for b in bag {
                        guard.retire(&s, b.loc).unwrap();
                    }
                }
                for b in &blocks[4..] {
                    alloc.free(&s, b.loc).unwrap().unwrap();
                }
                // Parked with room, listed past a full magazine; `y`
                // goes above it either way.
                alloc.free(&s, x).unwrap().unwrap();
                alloc.free(&s, y).unwrap().unwrap();
                let drained =
                    killed_at(cluster.fabric(), k, &[mem, compute], || s.smr().collect(&s));
                if let Some(n) = drained {
                    assert_eq!(n, 2, "{}: X is refused", mode.name());
                    let (b1, b2) = (bag[0].loc, bag[2].loc);
                    if full {
                        let listed = alloc.debug_free_list(&s, 2).unwrap();
                        assert_eq!(listed, [b2, b1, y, x], "chained past X");
                    } else {
                        assert_eq!(alloc.debug_parked(), [x, y, b1, b2], "spliced past X");
                    }
                }
                alloc.recover(&s).unwrap();
                s.smr().recover(&s).unwrap();
                let listed = alloc.debug_free_list(&s, 2).unwrap();
                let mut sorted = listed.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), listed.len(), "a block is listed twice");
                // Free exactly once: taken back at one generation past
                // the one it was allocated at.
                for _ in 0..listed.len() {
                    let again = alloc.alloc(&s, 2).unwrap().unwrap();
                    if let Some(b) = blocks.iter().find(|b| b.loc == again.loc) {
                        assert_eq!(again.gen, b.gen + 1, "{}: {:?}", mode.name(), b.loc);
                    }
                }
                tracked = blocks.iter().map(|b| b.loc).collect();
                tracked.sort();
                (sorted, drained.is_none())
            });
            assert_eq!(outcomes, [tracked], "{}, full: {full}", mode.name());
        }
    }
}

// ---- the exhaustive crash-point sweep -----------------------------------
//
// Granularity: one fabric primitive. The crash point fires right before
// the `k`-th primitive, so a FliT store is cut between its store and its
// flush, and a `Persistence` call that issues no primitive is no point.

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
fn queue_blocks(alloc: &Allocator, q: &DurableQueue, node: &NodeHandle) -> OpResult<BTreeSet<Loc>> {
    let mut out = BTreeSet::from([q.header_cell()]);
    let mut cur = alloc.decode(node.load(q.header_cell())?);
    while let Some(n) = cur {
        out.insert(n);
        cur = alloc.decode(node.load(Loc::new(n.owner, n.addr.0 + 1))?);
    }
    Ok(out)
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
    // drain, by the allocator's sweep or by the domain's. A retire cut
    // before its header load lands has not filed the block, which stays
    // its caller's, as a free cut before its latch does.
    let drain = |known: &mut Known, bag: &[Loc]| -> OpResult<()> {
        for &x in bag {
            known.live.remove(&x);
            known.in_flight = vec![x];
            let filed = smr.stats().retires;
            let retired = smr.pin().retire(node, x);
            if smr.stats().retires > filed {
                known.in_flight.clear();
            }
            retired?;
        }
        known.in_flight.clear();
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
        known.blocks.extend(queue_blocks(alloc, q, node)?);
        known.allocating = false;
        let dummy = alloc.decode(node.load(q.header_cell())?);
        known.in_flight = dummy.into_iter().collect();
        assert_eq!(q.dequeue(node)?, Some(v));
        known.blocks.extend(queue_blocks(alloc, q, node)?);
    }
    known.in_flight.clear();
    Ok(())
}

/// Builds a durability strategy over the fabric (and hands back the
/// buffered epoch, whose rollback runs before the allocator's sweep).
type MakePersist = dyn Fn(&Arc<SimFabric>) -> (Arc<dyn Persistence>, Option<Arc<BufferedEpoch>>);

/// One run of the sweep: builds the heap, runs `script` with a crash
/// of `victim` right before its `k`-th primitive (none when `k` is
/// `None`), recovers — the allocator's sweep, then the reclamation
/// domain's, then the queue's — and checks that no block is lost, none
/// is listed twice, and no live block is listed. Returns how many
/// primitives the script issued.
fn sweep_run(
    script: Script,
    mode: &str,
    make: &MakePersist,
    victim: MachineId,
    k: Option<u64>,
) -> u64 {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 8192));
    let node = fabric.node(COMPUTE);
    let (persist, buffered) = make(&fabric);
    let alloc = Arc::new(Allocator::with_range(
        fabric.config(),
        MEMORY,
        1024,
        8192 - 1024,
        persist,
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
    known
        .blocks
        .extend(queue_blocks(&alloc, &q, &node).unwrap());

    let base = fabric.stats().total_ops();
    if let Some(k) = k {
        fabric.arm_crash(k, &[victim]);
    }
    let cut = sweep_script(script, &alloc, &smr, &q, &node, &b, other, &mut known).is_err();
    let prims = fabric.stats().total_ops() - base;
    let ctx = format!("{script:?} script, {mode}, crash of {victim:?} before primitive {k:?}");
    assert_eq!(
        cut,
        fabric.disarm_crash(),
        "{ctx}: the script dies at the point"
    );
    fabric.recover(victim);
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
        .chain(queue_blocks(&alloc, &q, &node).unwrap())
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
    prims
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
            let prims = sweep_run(script, mode, make.as_ref(), COMPUTE, None);
            assert!(
                prims > 40,
                "{mode}: the script issued only {prims} primitives"
            );
            for &victim in victims {
                for k in 1..=prims {
                    sweep_run(script, mode, make.as_ref(), victim, Some(k));
                }
            }
        }
    }
}
