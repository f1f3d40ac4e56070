//! Acceptance suite for `cxl0::smr`, the epoch-based reclamation layer:
//!
//! * the traversal structures (list, map) run **10×-capacity churn in
//!   bounded memory with reader threads traversing throughout** — no
//!   quiesce points anywhere — under every sound `PersistMode`;
//! * a proptest drives random pin/retire/collect/crash/recover
//!   interleavings against an exact single-threaded model of the epoch
//!   algebra and limbo bags: the allocator's free list and the
//!   thread's magazine together always hold exactly the blocks the model
//!   says are reclaimed, each once, and no block is ever handed out
//!   while the model still counts it live or in limbo.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::alloc::META_CELLS;
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::{Allocator, Flit, FlitPolicy, Persistence, SimFabric, SmrDomain};
use proptest::prelude::*;

/// Every mode the reclamation layer must be sound under: the strict
/// per-operation modes plus the no-durability baseline (reclamation is
/// orthogonal to durability; only the deliberately unsound `FlitX86`
/// and the capacity-bounded `Buffered` rig are excluded).
fn sound_modes() -> Vec<PersistMode> {
    let mut modes: Vec<PersistMode> = PersistMode::comparison_set()
        .into_iter()
        .filter(|m| m.is_strict())
        .collect();
    modes.push(PersistMode::None);
    modes
}

fn tiny_cluster(mode: PersistMode) -> Arc<Cluster> {
    // A deliberately tiny memory node: registry + allocator metadata
    // leave room for only a few dozen node blocks, so any reclamation
    // gap exhausts the heap well before the loops finish.
    Cluster::builder(SystemConfig::symmetric_nvm(2, META_CELLS + 256))
        .persist(mode)
        .root_capacity(4)
        .build()
        .unwrap()
}

/// The list acceptance scenario: insert/remove churn allocating ≥ 10×
/// the region's capacity, while reader threads traverse the whole time.
/// Retirement + amortized collection alone must keep the region
/// serviceable and the free-list hit rate ≥ 90%.
#[test]
fn list_churn_10x_with_concurrent_readers_all_sound_modes() {
    for mode in sound_modes() {
        let cluster = tiny_cluster(mode);
        let s = cluster.session(MachineId(0));
        let list = s.create_list::<u64>("ls").unwrap();
        // Permanent residents the readers traverse over; churn keys sort
        // after them so every traversal crosses the churn region... and
        // before them (500+) so removals splice mid-list too.
        for k in [100u64, 900, 1800] {
            list.insert(&s, k).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let s = c.session(MachineId(0));
                    let list = s.open_list::<u64>("ls").unwrap();
                    let mut sweeps = 0u64;
                    loop {
                        for k in [100u64, 900, 1800] {
                            assert!(list.contains(&s, k).unwrap(), "resident key {k} lost");
                        }
                        sweeps += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    sweeps
                })
            })
            .collect();

        // A fresh session so the stats delta covers exactly the churn.
        let sc = cluster.session(MachineId(0));
        // Each pair allocates one 3-cell block: 900 pairs ≈ 2700 cells
        // through a 256-cell region — > 10× its capacity.
        let target = 900u64;
        for i in 0..target {
            let k = 500 + i % 16;
            assert!(list.insert(&sc, k).unwrap(), "op {i} ({mode:?})");
            assert!(list.remove(&sc, k).unwrap(), "op {i} ({mode:?})");
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader did no sweeps");
        }

        let d = sc.stats_delta();
        assert_eq!(
            d.allocs,
            d.frees + d.smr_limbo,
            "every churn block is freed or awaiting its grace period"
        );
        let hit_rate = d.freelist_hits as f64 / d.allocs as f64;
        assert!(
            hit_rate >= 0.9,
            "free-list hit rate {hit_rate:.2} < 0.9 under {mode:?} \
             ({} hits / {} allocs)",
            d.freelist_hits,
            d.allocs
        );
        assert!(d.smr_retires >= target, "churn retires every removal");
        assert_eq!(d.smr_limbo, d.smr_retires - d.smr_reclaims);
    }
}

/// The map acceptance scenario: recycle churn allocating ≥ 10× the
/// region's capacity in fresh tables, while reader threads look up live
/// entries throughout (lock-free — recycling excludes mutators, never
/// lookups).
#[test]
fn map_recycle_churn_10x_with_concurrent_readers_all_sound_modes() {
    for mode in sound_modes() {
        let cluster = tiny_cluster(mode);
        let s = cluster.session(MachineId(0));
        let map = s.create_map::<u64, u64>("m", 8).unwrap();
        for k in 1..=4u64 {
            map.insert(&s, k, k * 10).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let s = c.session(MachineId(0));
                    let map = s.open_map::<u64, u64>("m").unwrap();
                    let mut sweeps = 0u64;
                    loop {
                        for k in 1..=4u64 {
                            assert_eq!(map.get(&s, k).unwrap(), Some(k * 10), "key {k} lost");
                        }
                        sweeps += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    sweeps
                })
            })
            .collect();

        // A fresh session so the stats delta covers exactly the churn.
        let sc = cluster.session(MachineId(0));
        // Each round kills a churn key and recycles: a fresh 17-cell
        // table block per round, ≥ 10× the 256-cell region across 160
        // rounds.
        for round in 0..160u64 {
            let k = 100 + round;
            assert!(map.insert(&sc, k, k).unwrap().is_some(), "round {round}");
            map.remove(&sc, k).unwrap();
            assert_eq!(map.recycle(&sc).unwrap(), 4, "round {round} ({mode:?})");
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader did no sweeps");
        }

        let d = sc.stats_delta();
        let hit_rate = d.freelist_hits as f64 / d.allocs as f64;
        assert!(
            hit_rate >= 0.9,
            "free-list hit rate {hit_rate:.2} < 0.9 under {mode:?} \
             ({} hits / {} allocs)",
            d.freelist_hits,
            d.allocs
        );
        assert!(d.smr_retires >= 160, "every recycle retires a table");
        for k in 1..=4u64 {
            assert_eq!(map.get(&s, k).unwrap(), Some(k * 10));
        }
    }
}

// ---------------------------------------------------------------------
// Proptest: the epoch algebra against an exact single-threaded model.
// ---------------------------------------------------------------------

/// Mirror of the domain's constants (pinned here on purpose: changing
/// the protocol constants is a semantic change this suite must notice).
const GRACE_EPOCHS: u64 = 2;
const COLLECT_EVERY: u64 = 8;

/// An exact model of one single-threaded client of an `SmrDomain`: the
/// global epoch, the one slot the thread pins through, the limbo bags,
/// and which blocks have drained back to the allocator (its free list or
/// the thread's magazine). Deterministic because
/// the real domain is driven from one thread.
#[derive(Default)]
struct Model {
    /// 0 = fresh domain offset; the real domain starts at epoch 1.
    epoch: u64,
    /// Nesting count and the epoch recorded when the outermost pin
    /// published.
    pin_count: u64,
    pin_epoch: u64,
    /// Blocks handed out and not yet retired.
    live: Vec<Loc>,
    /// Limbo bags, oldest first.
    bags: Vec<(u64, Vec<Loc>)>,
    /// Blocks the domain has handed back to the allocator.
    freed: BTreeSet<Loc>,
    /// Lifetime retire count (drives the amortized collect).
    retires: u64,
}

impl Model {
    fn pin(&mut self) {
        if self.pin_count == 0 {
            self.pin_epoch = self.epoch;
        }
        self.pin_count += 1;
    }

    fn unpin(&mut self) {
        self.pin_count -= 1;
    }

    fn try_advance(&mut self) -> bool {
        if self.pin_count > 0 && self.pin_epoch != self.epoch {
            return false;
        }
        self.epoch += 1;
        true
    }

    fn drain_ripe(&mut self) {
        while let Some((e, _)) = self.bags.first() {
            if e + GRACE_EPOCHS > self.epoch {
                break;
            }
            let (_, blocks) = self.bags.remove(0);
            self.freed.extend(blocks);
        }
    }

    fn collect(&mut self) {
        for _ in 0..GRACE_EPOCHS {
            self.drain_ripe();
            if !self.try_advance() {
                break;
            }
        }
        self.drain_ripe();
    }

    /// `retire` as issued through a transient guard: pin, file, maybe
    /// amortized-collect, unpin.
    fn retire(&mut self, loc: Loc) {
        self.pin();
        match self.bags.last_mut() {
            Some((e, blocks)) if *e >= self.epoch => blocks.push(loc),
            _ => self.bags.push((self.epoch, vec![loc])),
        }
        self.retires += 1;
        if self.retires.is_multiple_of(COLLECT_EVERY) {
            self.collect();
        }
        self.unpin();
    }

    fn recover(&mut self) {
        self.pin_count = 0;
        for (_, blocks) in self.bags.drain(..) {
            self.freed.extend(blocks);
        }
    }

    fn limbo_len(&self) -> u64 {
        self.bags.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

#[derive(Debug, Clone)]
enum SmrOp {
    /// Allocate a block into the live set.
    Alloc,
    /// Retire the i-th live block through a transient guard.
    Retire(u8),
    /// Pin (the outer long-lived guard; nests).
    Pin,
    /// Drop one outer pin, if any.
    Unpin,
    /// Explicit collect pass.
    Collect,
    /// Crash the memory node, recover it, run the recovery sweeps
    /// (dropping all pins first — recovery is quiesced by contract).
    CrashRecover,
}

fn arb_smr_op() -> impl Strategy<Value = SmrOp> {
    // The vendored prop_oneof! is unweighted; repeated arms bias the
    // distribution toward alloc/retire so limbo actually populates.
    prop_oneof![
        Just(SmrOp::Alloc),
        Just(SmrOp::Alloc),
        Just(SmrOp::Alloc),
        (0..8u8).prop_map(SmrOp::Retire),
        (0..8u8).prop_map(SmrOp::Retire),
        (0..8u8).prop_map(SmrOp::Retire),
        Just(SmrOp::Pin),
        Just(SmrOp::Unpin),
        Just(SmrOp::Collect),
        Just(SmrOp::CrashRecover),
    ]
}

fn run_smr_interleaving(persist: Arc<dyn Persistence>, ops: Vec<SmrOp>) {
    let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
    let mem = MachineId(1);
    let alloc = Arc::new(Allocator::over_region(f.config(), mem, persist));
    let smr = SmrDomain::new(Arc::clone(&alloc));
    let node = f.node(MachineId(0));
    let mut model = Model {
        epoch: smr.epoch(),
        ..Model::default()
    };
    let mut outer: Vec<cxl0::runtime::SmrGuard> = Vec::new();
    const CELLS: u32 = 2;

    for op in ops {
        match op {
            SmrOp::Alloc => {
                if let Some(b) = alloc.alloc(&node, CELLS).unwrap() {
                    // THE safety property: nothing live or in limbo is
                    // ever handed out again.
                    assert!(!model.live.contains(&b.loc), "live block re-granted");
                    assert!(
                        !model.bags.iter().any(|(_, bag)| bag.contains(&b.loc)),
                        "limbo block re-granted before its grace period"
                    );
                    model.freed.remove(&b.loc);
                    model.live.push(b.loc);
                }
            }
            SmrOp::Retire(i) => {
                if model.live.is_empty() {
                    continue;
                }
                let loc = model.live.remove(usize::from(i) % model.live.len());
                smr.pin().retire(&node, loc).unwrap();
                model.retire(loc);
            }
            SmrOp::Pin => {
                outer.push(smr.pin());
                model.pin();
            }
            SmrOp::Unpin => {
                if outer.pop().is_some() {
                    model.unpin();
                }
            }
            SmrOp::Collect => {
                smr.collect(&node).unwrap();
                model.collect();
            }
            SmrOp::CrashRecover => {
                // Quiesce (recovery contract), then crash + recover.
                outer.clear();
                model.pin_count = 0;
                f.crash(mem);
                f.recover(mem);
                alloc.recover(&node).unwrap();
                smr.recover(&node).unwrap();
                model.recover();
            }
        }
        // The domain must agree with the model exactly, every step.
        assert_eq!(smr.epoch(), model.epoch, "epoch diverged");
        assert_eq!(smr.limbo_len(), model.limbo_len(), "limbo diverged");
        // A drain splices into this thread's magazine what it has room
        // for: every reclaimed block is listed or parked, never both.
        let listed: BTreeSet<Loc> = alloc
            .debug_free_list(&node, CELLS)
            .unwrap()
            .into_iter()
            .collect();
        let parked: BTreeSet<Loc> = alloc.debug_parked().into_iter().collect();
        assert!(
            listed.is_disjoint(&parked),
            "a block is both listed and parked"
        );
        assert_eq!(
            &listed | &parked,
            model.freed,
            "free list and magazine diverged from the model"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pin/retire/collect/crash/recover interleavings: the
    /// domain's epoch, limbo population and the allocator's free list
    /// plus magazine track an exact model, under a strict FliT strategy and the naive
    /// all-`MStore` one.
    #[test]
    fn epochs_limbo_and_free_lists_track_the_model(
        ops in proptest::collection::vec(arb_smr_op(), 0..64)
    ) {
        run_smr_interleaving(Arc::new(Flit::new(FlitPolicy::CXL0)), ops.clone());
        run_smr_interleaving(Arc::new(Flit::new(FlitPolicy::NAIVE_MSTORE)), ops);
    }
}
