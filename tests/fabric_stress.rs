//! Multi-threaded stress tests for the `SimFabric` hot path: the striped
//! statistics rails, the epoch-style crash gate, and the determinism of
//! simulated-time accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use cxl0::model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0::runtime::{NodeHandle, OpResult, SimFabric};

const M0: MachineId = MachineId(0);
const M1: MachineId = MachineId(1);

/// (a) The striped per-thread counters aggregate exactly to the op
/// counts each thread issued, across every counter class.
#[test]
fn striped_stats_aggregate_exactly_to_per_thread_counts() {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
    let threads = 8usize;
    let mut handles = Vec::new();
    for t in 0..threads {
        let node = fabric.node(MachineId(t % 2));
        handles.push(std::thread::spawn(move || {
            // Every thread issues a distinct, known per-class mix.
            let rounds = 100 + t as u64;
            for i in 0..rounds {
                let loc = Loc::new(M1, (i % 32) as u32);
                node.lstore(loc, i).unwrap();
                node.load(loc).unwrap();
                node.rstore(loc, i).unwrap();
                node.mstore(loc, i).unwrap();
                node.lflush(loc).unwrap();
                node.rflush(loc).unwrap();
                node.faa(StoreKind::Local, loc, 1).unwrap();
                node.aflush(loc).unwrap();
            }
            node.barrier().unwrap();
            rounds
        }));
    }
    let per_thread: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let total_rounds: u64 = per_thread.iter().sum();

    let s = fabric.stats().snapshot();
    assert_eq!(s.lstores, total_rounds);
    assert_eq!(s.loads, total_rounds);
    assert_eq!(s.rstores, total_rounds);
    assert_eq!(s.mstores, total_rounds);
    assert_eq!(s.lflushes, total_rounds);
    assert_eq!(s.rflushes, total_rounds);
    assert_eq!(s.rmws, total_rounds);
    assert_eq!(s.aflushes, total_rounds);
    assert_eq!(s.barriers, threads as u64);
    assert_eq!(s.total_sync_ops(), 7 * total_rounds);
    assert_eq!(s.total_ops(), 8 * total_rounds + threads as u64);
    assert_eq!(fabric.stats().total_ops(), s.total_ops());
}

/// Crash/recover rounds of [`crash_mid_storm_is_atomic_and_all_threads_observe_crashed`]
/// that spawn workers while they run.
const CRASH_ROUNDS: u64 = 8;
/// Workers spawned per round.
const SPAWNED: u64 = 4;

/// Stores values tagged with `tag` round the first `locations` cells of
/// [`M1`], each persisted by an `RFlush`, counting them in `stored`,
/// until it observes `Crashed` — the only way out. Returns how many
/// landed.
fn store_until_crashed(node: &NodeHandle, tag: u64, locations: u32, stored: &AtomicU64) -> u64 {
    let mut i = 0u64;
    loop {
        let loc = Loc::new(M1, (i % u64::from(locations)) as u32);
        let v = tag * 1_000_000 + i;
        if node.lstore(loc, v).and_then(|()| node.rflush(loc)).is_err() {
            return i;
        }
        stored.fetch_add(1, Ordering::Release);
        i += 1;
    }
}

/// The crash of [`M1`] left no cache entry for its cells, and memory
/// holds only values a writer tagged `1..=writers` stored at exactly
/// that location (or the initial 0) — never a torn/foreign value.
fn assert_only_written_values_survive(fabric: &SimFabric, locations: u32, writers: u64) {
    for a in 0..locations {
        let loc = Loc::new(M1, a);
        assert!(!fabric.is_cached(loc), "cache entry survived the crash");
        let v = fabric.peek_memory(loc);
        if v != 0 {
            let i = v % 1_000_000;
            let t = v / 1_000_000;
            assert!((1..=writers).contains(&t), "foreign writer tag in {v}");
            assert_eq!(
                i % u64::from(locations),
                u64::from(a),
                "value {v} persisted at the wrong location {a}"
            );
        }
    }
}

/// (b) A crash in the middle of a store storm is one atomic transition:
/// every storming thread observes `Crashed` (none wedge, none keep
/// writing), and the post-crash state is consistent — no cache entries
/// survive for the crashed machine and every persisted value is one
/// some thread actually wrote to that location. It stays so when
/// workers are spawned while crashes run, each leasing a fresh thread
/// slot as the crash drains the leased ones.
#[test]
fn crash_mid_storm_is_atomic_and_all_threads_observe_crashed() {
    let locations = 16u32;
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, locations));
    let stored = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (1..=6u64)
        .map(|tag| {
            let node = fabric.node(M1);
            let stored = Arc::clone(&stored);
            std::thread::spawn(move || store_until_crashed(&node, tag, locations, &stored))
        })
        .collect();
    // Let the storm run, then pull the plug. Every thread must exit via
    // Crashed — join() would hang forever otherwise.
    std::thread::sleep(std::time::Duration::from_millis(20));
    fabric.crash(M1);
    let progress: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(fabric.is_crashed(M1));
    assert!(
        progress.iter().any(|&n| n > 0),
        "the storm should have made progress before the crash"
    );
    assert_only_written_values_survive(&fabric, locations, 6);

    // The gate reopened: the other machine still works, and the crashed
    // one comes back after recovery.
    let n0 = fabric.node(M0);
    n0.mstore(Loc::new(M0, 0), 7).unwrap();
    assert_eq!(n0.load(Loc::new(M0, 0)).unwrap(), 7);
    fabric.recover(M1);
    assert_eq!(
        fabric.node(M1).load(Loc::new(M1, 0)).unwrap() % 1_000_000 % 16,
        0
    );

    // Rounds that spawn workers while the crash runs. Each worker parks
    // on its thread slot once it has observed `Crashed`, so every later
    // worker leases a fresh slot: the crash drains the rails leased so
    // far while new ones are leased.
    let park = Arc::new(Barrier::new((CRASH_ROUNDS * SPAWNED) as usize + 1));
    let mut parked = Vec::new();
    let mut writers = 6;
    for _ in 0..CRASH_ROUNDS {
        fabric.recover(M1);
        let stored = Arc::new(AtomicU64::new(0));
        let (done, crashed) = mpsc::channel();
        let spawner = {
            let (fabric, stored, park) =
                (Arc::clone(&fabric), Arc::clone(&stored), Arc::clone(&park));
            std::thread::spawn(move || {
                (writers + 1..=writers + SPAWNED)
                    .map(|tag| {
                        let node = fabric.node(M1);
                        let (stored, park, done) =
                            (Arc::clone(&stored), Arc::clone(&park), done.clone());
                        let worker = std::thread::spawn(move || {
                            store_until_crashed(&node, tag, locations, &stored);
                            done.send(()).unwrap();
                            park.wait();
                        });
                        std::thread::yield_now();
                        worker
                    })
                    .collect::<Vec<_>>()
            })
        };
        while stored.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        fabric.crash(M1);
        for _ in 0..SPAWNED {
            crashed.recv().unwrap();
        }
        parked.extend(spawner.join().unwrap());
        writers += SPAWNED;
        assert_only_written_values_survive(&fabric, locations, writers);
    }
    park.wait();
    for worker in parked {
        worker.join().unwrap();
    }
    fabric.recover(M1);
    fabric.node(M1).load(Loc::new(M1, 0)).unwrap();
}

/// Cell pairs of [`neighbouring_cells_on_one_host_line_stay_independent`].
const PAIRS: u32 = 64;
/// Rounds over every cell of one storming thread.
const ROUNDS: u64 = 200;
/// Primitives one round issues per cell (see [`storm`]).
const PRIMS_PER_CELL: u64 = 7;
/// The machine owning every stormed cell.
const POOL: MachineId = MachineId(2);

/// The word a cell at address `a` holds after its `n`-th update: the
/// address rides in the high half, so a word read from the wrong cell
/// shows.
fn tagged(a: u32, n: u64) -> u64 {
    u64::from(a) << 32 | n
}

/// Updates every cell `2k + parity` of [`POOL`] `ROUNDS` times, twice
/// per round — a CAS in this machine's cache persisted by an `RFlush`,
/// then an `LStore` moved by an `LFlush` and persisted by an `RFlush` —
/// and reads the cell and its neighbour `a ^ 1` back. `durable[k]`
/// counts the updates of the `k`-th cell known to be in memory. Returns
/// at the first `Crashed`.
fn storm(node: &NodeHandle, parity: u32, durable: &mut [u64]) -> OpResult<()> {
    for _ in 0..ROUNDS {
        for (k, n) in durable.iter_mut().enumerate() {
            let a = 2 * k as u32 + parity;
            let (own, other) = (Loc::new(POOL, a), Loc::new(POOL, a ^ 1));
            let swapped = node.cas(StoreKind::Local, own, tagged(a, *n), tagged(a, *n + 1))?;
            assert_eq!(swapped, Ok(tagged(a, *n)), "lost update at cell {a}");
            node.rflush(own)?;
            *n += 1;
            node.lstore(own, tagged(a, *n + 1))?;
            node.lflush(own)?;
            node.rflush(own)?;
            *n += 1;
            assert_eq!(node.load(own)?, tagged(a, *n), "cell {a}");
            let seen = node.load(other)?;
            assert_eq!(
                seen >> 32,
                u64::from(a ^ 1),
                "torn snapshot: cell {} read {seen:#x}",
                a ^ 1
            );
        }
    }
    Ok(())
}

/// (d) A cell is half a host cache line, so neighbouring cells share
/// one: two threads on different machines update the cells `2k` and
/// `2k + 1` of a third machine with CAS, stores, flushes and loads, and
/// a crash point crashes the second thread's machine mid-storm. No
/// update is lost, no read mixes in a neighbour's word, and every
/// cell's memory ends holding exactly its writer's last persisted value.
#[test]
fn neighbouring_cells_on_one_host_line_stay_independent() {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 2 * PAIRS));
    let pool = fabric.node(POOL);
    for a in 0..2 * PAIRS {
        pool.mstore(Loc::new(POOL, a), tagged(a, 0)).unwrap();
    }
    // Before a third of the traffic: whichever thread runs first, the
    // crash point fires before the second thread can finish.
    let total = 2 * ROUNDS * u64::from(PAIRS) * PRIMS_PER_CELL;
    fabric.arm_crash(total / 3, &[M1]);
    let start = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [M0, M1]
        .into_iter()
        .map(|m| {
            let node = fabric.node(m);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut durable = vec![0u64; PAIRS as usize];
                start.wait();
                let finished = storm(&node, m.index() as u32, &mut durable).is_ok();
                (finished, durable)
            })
        })
        .collect();
    let ends: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(fabric.disarm_crash(), "the crash point fired mid-storm");
    assert!(fabric.is_crashed(M1) && !fabric.is_crashed(M0));
    assert!(!ends[1].0, "the crashed machine's thread stopped early");
    for (parity, (_, durable)) in ends.iter().enumerate() {
        for (k, &n) in durable.iter().enumerate() {
            let a = 2 * k as u32 + parity as u32;
            assert_eq!(
                fabric.peek_memory(Loc::new(POOL, a)),
                tagged(a, n),
                "memory of cell {a}"
            );
        }
    }
}

/// Runs one deterministic single-threaded workload and returns the
/// fabric's final snapshot.
fn deterministic_run() -> cxl0::runtime::StatsSnapshot {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 256));
    let near = fabric.node(MachineId(2)); // owns the target region
    let far = fabric.node(M0);
    for i in 0..2_000u64 {
        let loc = Loc::new(MachineId(2), (i % 128) as u32);
        far.lstore(loc, i).unwrap();
        far.load(loc).unwrap();
        far.lflush(loc).unwrap();
        far.rflush(loc).unwrap();
        near.mstore(loc, i).unwrap();
        near.load(loc).unwrap();
        far.cas(StoreKind::Memory, loc, i, i + 1).unwrap().unwrap();
        far.aflush(loc).unwrap();
        if i % 8 == 7 {
            far.barrier().unwrap();
        }
    }
    far.barrier().unwrap();
    fabric.stats().snapshot()
}

/// The recorded sim anchor, in full (150 000 units, not the proportional
/// 8 000-unit form: a debug build runs it in ~0.3 s): node 0 of `symmetric_nvm(3, 512)` over a 64-cell block of
/// node 2, `b = a + 7 mod 64`, a barrier every 8th unit. `benchmark/`
/// re-checks the same total as `backend.sim_anchor_ok`.
fn anchor_run() -> cxl0::runtime::StatsSnapshot {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 512));
    let node = fabric.node(M0);
    for i in 0..150_000u64 {
        let a = Loc::new(MachineId(2), (i % 64) as u32);
        let b = Loc::new(MachineId(2), ((i + 7) % 64) as u32);
        node.lstore(a, i).unwrap();
        node.load(a).unwrap();
        node.lflush(a).unwrap();
        node.rflush(a).unwrap();
        node.mstore(b, i).unwrap();
        node.load(b).unwrap();
        node.faa(StoreKind::Memory, b, 1).unwrap();
        node.aflush(a).unwrap();
        if i % 8 == 7 {
            node.barrier().unwrap();
        }
    }
    fabric.stats().snapshot()
}

/// (c) Simulated time is deterministic: the same single-threaded
/// workload under the Figure-5 cost table produces bit-identical
/// `sim_ns` totals (and counters) on every run, and the recorded anchor
/// unit costs exactly what it cost when it was recorded. This pins the
/// cost accounting: a perf change to the backend must not change it.
#[test]
fn single_threaded_sim_ns_is_deterministic() {
    let a = deterministic_run();
    let b = deterministic_run();
    assert_eq!(a, b, "sim_ns accounting must be bit-identical across runs");
    assert!(a.sim_ns > 0);
    // Locality split is part of the determinism contract: the same mix
    // must charge the same local/remote costs every time.
    assert_eq!(a.total_ops(), b.total_ops());

    let anchor = anchor_run();
    assert_eq!(anchor.total_ops(), 1_218_750);
    assert_eq!(anchor.sim_ns, 292_931_250);
}
