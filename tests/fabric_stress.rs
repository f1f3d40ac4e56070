//! Multi-threaded stress tests for the `SimFabric` hot path: the striped
//! statistics rails, the epoch-style crash gate, and the determinism of
//! simulated-time accounting.

use cxl0::model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0::runtime::{CostModel, SimFabric};

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

/// (b) A crash in the middle of a store storm is one atomic transition:
/// every storming thread observes `Crashed` (none wedge, none keep
/// writing), and the post-crash state is consistent — no cache entries
/// survive for the crashed machine and every persisted value is one
/// some thread actually wrote to that location.
#[test]
fn crash_mid_storm_is_atomic_and_all_threads_observe_crashed() {
    let locations = 16u32;
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, locations));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let node = fabric.node(M1);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            loop {
                let loc = Loc::new(M1, (i % u64::from(locations)) as u32);
                // Tag values with the writing thread so provenance is
                // checkable after the crash.
                let v = (t + 1) * 1_000_000 + i;
                let r = node.lstore(loc, v).and_then(|()| node.rflush(loc));
                if r.is_err() {
                    // The only way out of the loop: observing Crashed.
                    return i;
                }
                i += 1;
            }
        }));
    }
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

    // Post-crash consistency: the crashed machine's cache entries are
    // gone, and memory holds only values some thread wrote to exactly
    // that location (or the initial 0) — never a torn/foreign value.
    for a in 0..locations {
        let loc = Loc::new(M1, a);
        assert!(!fabric.is_cached(loc), "cache entry survived the crash");
        let v = fabric.peek_memory(loc);
        if v != 0 {
            let i = v % 1_000_000;
            let t = v / 1_000_000;
            assert!((1..=6).contains(&t), "foreign writer tag in {v}");
            assert_eq!(
                i % u64::from(locations),
                u64::from(a),
                "value {v} persisted at the wrong location {a}"
            );
        }
    }

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
}

/// Runs one deterministic single-threaded workload and returns the
/// fabric's final snapshot.
fn deterministic_run() -> cxl0::runtime::StatsSnapshot {
    let fabric = SimFabric::with_options(
        SystemConfig::symmetric_nvm(3, 256),
        cxl0::model::ModelVariant::Base,
        CostModel::figure5(),
    );
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
/// workload under `CostModel::figure5()` produces bit-identical
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
