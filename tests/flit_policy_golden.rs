//! Golden oracle for the durability strategies' **primitive sequences**.
//!
//! For each of the seven [`PersistMode`]s one fixed script drives every
//! `Persistence` method — `shared_store` / `shared_load` / `shared_cas`
//! (hit and miss) / `shared_faa` / `private_store` / `private_load` /
//! `complete_op` — with `pflag` on and off, on a remote line and on a
//! line the issuer owns, and once more with the FliT counter raised so
//! the reader's *help* path runs, and once through the combiner's
//! `batched_store` / `flush_batch` path. After each phase the exact
//! per-class primitive counts and simulated nanoseconds of
//! `Stats::snapshot()` are compared against [`GOLDEN`].
//!
//! The table pins what no other tier-1 test does: *which* store and
//! *which* flush each mode issues per call. A refactor of the strategy
//! layer must leave it byte-identical; only [`strategy`] (how a mode's
//! strategy is constructed and its counter raised) may move with the
//! API.

use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::{
    BufferedEpoch, Flit, NodeHandle, Persistence, SharedHeap, SimFabric, StatsSnapshot,
};

const M0: MachineId = MachineId(0);
const MEM: MachineId = MachineId(1);

/// `[loads, lstores, rstores, mstores, lflushes, rflushes, rmws,
/// aflushes, barriers, sim_ns]` of one phase.
type Row = [u64; 10];

const PHASES: [&str; 6] = [
    "remote line, flagged",
    "remote line, unflagged",
    "owned line, flagged",
    "owned line, unflagged",
    "counter raised (help path)",
    "combiner batch",
];

/// One row per phase of [`PHASES`], per mode, in `modes()` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [Row; 6]); 7] = [
    ("none", [
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 0, 0, 0, 0, 0, 908], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 0, 0, 24], // combiner batch
    ]),
    ("flit-x86", [
        [2, 2, 0, 0, 5, 0, 3, 0, 0, 966], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 2, 0, 0, 5, 0, 3, 0, 0, 670], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 2, 0, 0, 0, 0, 1028], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 2, 1, 555], // combiner batch
    ]),
    ("flit-cxl0", [
        [2, 2, 0, 0, 0, 5, 3, 0, 0, 2641], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 2, 0, 0, 0, 5, 3, 0, 0, 1245], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 0, 2, 0, 0, 0, 1478], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 2, 1, 555], // combiner batch
    ]),
    ("flit-owner-opt", [
        [2, 2, 0, 0, 0, 5, 3, 0, 0, 2641], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 2, 0, 0, 5, 0, 3, 0, 0, 670], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 1, 1, 0, 0, 0, 1363], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 2, 1, 555], // combiner batch
    ]),
    ("flit-async", [
        [2, 2, 0, 0, 0, 0, 3, 5, 10, 2981], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 1, 696], // remote line, unflagged
        [2, 2, 0, 0, 0, 0, 3, 5, 10, 1585], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 1, 400], // owned line, unflagged
        [4, 2, 0, 0, 0, 0, 0, 2, 2, 1554], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 2, 1, 555], // combiner batch
    ]),
    ("naive-mstore", [
        [2, 0, 0, 2, 0, 0, 3, 0, 0, 2606], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 0, 0, 2, 0, 0, 3, 0, 0, 1160], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 0, 0, 0, 0, 0, 908], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 2, 1, 555], // combiner batch
    ]),
    ("buffered", [
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 666], // remote line, unflagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, flagged
        [2, 2, 0, 0, 0, 0, 3, 0, 0, 370], // owned line, unflagged
        [4, 2, 0, 0, 0, 0, 0, 0, 0, 908], // counter raised (help path)
        [0, 2, 0, 0, 0, 0, 0, 0, 0, 24], // combiner batch
    ]),
];

fn modes() -> Vec<PersistMode> {
    let mut modes = PersistMode::comparison_set();
    modes.push(PersistMode::Buffered {
        capacity: 32,
        sync_interval: 0,
    });
    modes
}

/// A counter hook: `(loc, raise)` raises or lowers the FliT counter of
/// `loc`; a no-op for the strategies that keep no counters.
type CounterHook = Box<dyn Fn(Loc, bool)>;

/// The strategy `mode` stands for plus its counter hook — the only part
/// of this file that follows the strategy layer's construction API.
fn strategy(mode: PersistMode, heap: &SharedHeap) -> (Arc<dyn Persistence>, CounterHook) {
    if let PersistMode::Buffered {
        capacity,
        sync_interval,
    } = mode
    {
        let epoch = BufferedEpoch::create(heap, capacity, sync_interval).expect("epoch cells fit");
        return (Arc::new(epoch), Box::new(|_, _| ()));
    }
    let flit = Arc::new(Flit::new(mode.policy()));
    let hook = Arc::clone(&flit);
    let hook: CounterHook = Box::new(move |loc, raise| {
        if raise {
            hook.table().enter(loc)
        } else {
            hook.table().exit(loc)
        }
    });
    (flit, hook)
}

/// Every `Persistence` method once, return values pinned.
fn access_script(p: &dyn Persistence, node: &NodeHandle, loc: Loc, pflag: bool) {
    p.shared_store(node, loc, 1, pflag).unwrap();
    assert_eq!(p.shared_load(node, loc, pflag).unwrap(), 1);
    assert_eq!(p.shared_cas(node, loc, 1, 2, pflag).unwrap(), Ok(1));
    assert_eq!(p.shared_cas(node, loc, 1, 3, pflag).unwrap(), Err(2));
    assert_eq!(p.shared_faa(node, loc, 5, pflag).unwrap(), 2);
    p.private_store(node, loc, 9, pflag).unwrap();
    assert_eq!(p.private_load(node, loc).unwrap(), 9);
    p.complete_op(node).unwrap();
}

fn row(s: &StatsSnapshot) -> Row {
    [
        s.loads, s.lstores, s.rstores, s.mstores, s.lflushes, s.rflushes, s.rmws, s.aflushes,
        s.barriers, s.sim_ns,
    ]
}

/// Runs the script on `fabric` (whose memory node is [`MEM`]) and
/// returns one row per phase. Without a counter hook the help phase is
/// skipped and its row left zero.
fn measure(
    fabric: &Arc<SimFabric>,
    p: &dyn Persistence,
    counter: Option<&CounterHook>,
) -> [Row; 6] {
    let remote = fabric.node(M0);
    let owner = fabric.node(MEM);
    // Two cells of the memory node, clear of registry, epoch and
    // allocator metadata at the front of the segment.
    let x = Loc::new(MEM, 4000);
    let y = Loc::new(MEM, 4001);

    let mut rows = [[0; 10]; PHASES.len()];
    let mut last = fabric.stats().snapshot();
    let mut phase = |i: usize, run: &dyn Fn()| {
        run();
        let now = fabric.stats().snapshot();
        rows[i] = row(&now.since(&last));
        last = now;
    };
    phase(0, &|| access_script(p, &remote, x, true));
    phase(1, &|| access_script(p, &remote, x, false));
    phase(2, &|| access_script(p, &owner, y, true));
    phase(3, &|| access_script(p, &owner, y, false));
    if let Some(counter) = counter {
        phase(4, &|| {
            // Another writer's store is in flight on both lines: flagged
            // readers must help, unflagged ones must not.
            counter(x, true);
            counter(y, true);
            p.shared_store(&remote, x, 4, false).unwrap();
            p.shared_store(&owner, y, 6, false).unwrap();
            assert_eq!(p.shared_load(&remote, x, true).unwrap(), 4);
            assert_eq!(p.shared_load(&remote, x, false).unwrap(), 4);
            assert_eq!(p.shared_load(&owner, y, true).unwrap(), 6);
            p.complete_op(&remote).unwrap();
            p.complete_op(&owner).unwrap();
            counter(x, false);
            counter(y, false);
            // Counter back at zero: no more help.
            assert_eq!(p.shared_load(&remote, x, true).unwrap(), 4);
        });
    }
    phase(5, &|| {
        p.batched_store(&remote, x, 7).unwrap();
        p.batched_store(&remote, y, 8).unwrap();
        p.flush_batch(&remote).unwrap();
    });
    rows
}

/// The measured table in `GOLDEN`'s source form, for regeneration.
fn render(table: &[(&'static str, [Row; 6])]) -> String {
    let mut out = String::new();
    for (name, rows) in table {
        out.push_str(&format!("    ({name:?}, [\n"));
        for (r, phase) in rows.iter().zip(PHASES) {
            out.push_str(&format!("        {r:?}, // {phase}\n"));
        }
        out.push_str("    ]),\n");
    }
    out
}

#[test]
fn every_mode_issues_its_golden_primitive_sequence() {
    let measured: Vec<(&'static str, [Row; 6])> = modes()
        .into_iter()
        .map(|mode| {
            let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
            let heap = SharedHeap::new(fabric.config(), MEM);
            let (persist, counter) = strategy(mode, &heap);
            (
                mode.name(),
                measure(&fabric, persist.as_ref(), Some(&counter)),
            )
        })
        .collect();
    assert!(
        measured[..] == GOLDEN[..],
        "primitive sequences moved; measured table:\n{}",
        render(&measured)
    );
}

#[test]
fn cluster_wires_each_mode_to_its_golden_strategy() {
    // The same script through `Cluster::persistence()` — no counter hook
    // there, so every phase but the help path — pins the mode → strategy
    // wiring to the same rows.
    for (mode, (name, golden)) in modes().into_iter().zip(GOLDEN) {
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
            .persist(mode)
            .build()
            .unwrap();
        assert_eq!(cluster.memory_node(), MEM);
        let mut expected = golden;
        expected[4] = [0; 10];
        let rows = measure(cluster.fabric(), cluster.persistence().as_ref(), None);
        assert_eq!(rows, expected, "{name} through the cluster");
    }
}

#[test]
fn golden_table_separates_the_modes() {
    // The oracle is only worth its bytes if the script tells the
    // strategy-comparison modes apart. (The buffered fast path is
    // primitive-for-primitive the no-durability one — its difference is
    // the redo log and the epoch sync, neither of which is a
    // `Persistence` call — so the last entry is exempt.)
    let flit = &GOLDEN[..GOLDEN.len() - 1];
    for (i, (a, rows_a)) in flit.iter().enumerate() {
        for (b, rows_b) in &flit[i + 1..] {
            assert_ne!(rows_a, rows_b, "{a} and {b} are indistinguishable");
        }
    }
}
