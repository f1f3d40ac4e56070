//! Golden oracle for the durable queue's **persist protocol**.
//!
//! For each of the seven [`PersistMode`]s: the exact per-class primitive
//! counts and simulated nanoseconds of one steady-state `enqueue` (its
//! node the block a dequeue just parked in the thread's magazine), the
//! `dequeue` that takes it back out, and `DurableQueue::recover` of the
//! queue that leaves empty, all issued from a compute node against the
//! memory node's queue. After each phase `Stats::snapshot()` is compared
//! against [`GOLDEN`]. The test thread's slot is below 8, so it has a
//! magazine.
//!
//! What the table pins (read it off the `flit-cxl0` rows): an enqueue
//! is two loads (the tail hint, bare, and its successor), the magazine
//! pop's header mark, the value and the null `next` stores, the link
//! CAS and the tail swing — **4 flushes**, because the swing is a bare
//! `RStore`-strength CAS: the tail is a hint. A dequeue loads the head,
//! the tail, `next`, the head again and the value, CASes the head and
//! parks the old dummy (header load, intent, claim) — **3 flushes**.
//! Recovery walks from the durable head,
//! whatever the tail says, and writes the tail once at hint strength:
//! an `RStore` under the strict modes, an `LStore` under the others.
//!
//! `tests/flit_policy_golden.rs` pins what each `Persistence` call
//! costs per mode and `tests/alloc_protocol_golden.rs` which calls the
//! allocator makes; this file pins which calls the queue makes around
//! them.

use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::{DurableQueue, StatsSnapshot};

/// `[loads, lstores, rstores, mstores, lflushes, rflushes, rmws,
/// aflushes, barriers, sim_ns]` of one phase.
type Row = [u64; 10];

const PHASES: [&str; 3] = ["enqueue", "dequeue", "recover of an empty queue"];

/// One row per phase of [`PHASES`], per mode, in `modes()` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [Row; 3]); 7] = [
    ("none", [
        [2, 3, 0, 0, 0, 0, 2, 0, 0, 636], // enqueue
        [6, 1, 0, 0, 0, 0, 2, 0, 0, 1644], // dequeue
        [2, 1, 0, 0, 0, 0, 0, 0, 0, 528], // recover of an empty queue
    ]),
    ("flit-x86", [
        [2, 3, 0, 0, 4, 0, 2, 0, 0, 876], // enqueue
        [6, 1, 0, 0, 3, 0, 2, 0, 0, 1824], // dequeue
        [2, 1, 0, 0, 0, 0, 0, 0, 0, 528], // recover of an empty queue
    ]),
    ("flit-cxl0", [
        [2, 3, 0, 0, 0, 4, 2, 0, 0, 2319], // enqueue
        [6, 1, 0, 0, 0, 3, 2, 0, 0, 2829], // dequeue
        [2, 0, 1, 0, 0, 0, 0, 0, 0, 631], // recover of an empty queue
    ]),
    ("flit-owner-opt", [
        [2, 3, 0, 0, 0, 4, 2, 0, 0, 2319], // enqueue
        [6, 1, 0, 0, 0, 3, 2, 0, 0, 2829], // dequeue
        [2, 0, 1, 0, 0, 0, 0, 0, 0, 631], // recover of an empty queue
    ]),
    ("flit-async", [
        [2, 3, 0, 0, 0, 0, 2, 4, 7, 2561], // enqueue
        [6, 1, 0, 0, 0, 0, 2, 3, 7, 3063], // dequeue
        [2, 0, 1, 0, 0, 0, 0, 0, 1, 661], // recover of an empty queue
    ]),
    ("naive-mstore", [
        [2, 0, 0, 3, 0, 0, 2, 0, 0, 2291], // enqueue
        [6, 0, 0, 1, 0, 0, 2, 0, 0, 2808], // dequeue
        [2, 0, 1, 0, 0, 0, 0, 0, 0, 631], // recover of an empty queue
    ]),
    ("buffered", [
        [2, 3, 0, 0, 0, 0, 2, 0, 0, 636], // enqueue
        [6, 1, 0, 0, 0, 0, 2, 0, 0, 1644], // dequeue
        [2, 1, 0, 0, 0, 0, 0, 0, 0, 528], // recover of an empty queue
    ]),
];

fn modes() -> Vec<PersistMode> {
    let mut modes = PersistMode::comparison_set();
    modes.push(PersistMode::Buffered {
        capacity: 64,
        sync_interval: 0,
    });
    modes
}

fn row(s: &StatsSnapshot) -> Row {
    [
        s.loads, s.lstores, s.rstores, s.mstores, s.lflushes, s.rflushes, s.rmws, s.aflushes,
        s.barriers, s.sim_ns,
    ]
}

/// Runs the three phases on a fresh cluster under `mode`, after one
/// enqueue/dequeue pair that parks the first dummy in the magazine.
fn measure(mode: PersistMode) -> [Row; 3] {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(mode)
        .root_capacity(0)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    let q: DurableQueue = DurableQueue::create(s.allocator(), &s).unwrap().unwrap();
    assert!(q.enqueue(&s, 1).unwrap());
    assert_eq!(q.dequeue(&s).unwrap(), Some(1));
    let parked = s.allocator().debug_parked();
    assert_eq!(parked.len(), 1, "{}: the old dummy is parked", mode.name());

    let stats = cluster.fabric().stats();
    let mut rows = [[0; 10]; PHASES.len()];
    let mut phase = |i: usize, run: &dyn Fn()| {
        let before = stats.snapshot();
        run();
        rows[i] = row(&stats.snapshot().since(&before));
    };
    phase(0, &|| assert!(q.enqueue(&s, 2).unwrap()));
    assert!(
        s.allocator().debug_parked().is_empty(),
        "the node reused it"
    );
    phase(1, &|| assert_eq!(q.dequeue(&s).unwrap(), Some(2)));
    phase(2, &|| q.recover(&s).unwrap());
    assert_eq!(q.dequeue(&s).unwrap(), None);
    rows
}

/// A measured table in its constant's source form, for regeneration.
fn render(table: &[(&'static str, [Row; 3])]) -> String {
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
fn every_mode_runs_the_golden_queue_protocol() {
    let measured: Vec<(&'static str, [Row; 3])> = modes()
        .into_iter()
        .map(|mode| (mode.name(), measure(mode)))
        .collect();
    assert!(
        measured[..] == GOLDEN[..],
        "the queue's persist protocol moved; measured table:\n{}",
        render(&measured)
    );
}

#[test]
fn only_the_tail_swing_skips_the_persist() {
    // Read off the table, so the claim cannot drift from the pinned rows.
    let flushes = |r: &Row| r[4] + r[5] + r[7];
    for (mode, (name, rows)) in modes().into_iter().zip(GOLDEN) {
        // Zero under the modes that never flush.
        let per_persist = flushes(&rows[1]) / 3;
        assert_eq!(flushes(&rows[0]), 4 * per_persist, "{name}: enqueue");
        assert_eq!(flushes(&rows[1]), 3 * per_persist, "{name}: dequeue");
        // The tail write is recovery's only store, at hint strength.
        let (lstores, rstores) = (rows[2][1], rows[2][2]);
        let expected = if mode.is_strict() { (0, 1) } else { (1, 0) };
        assert_eq!((lstores, rstores), expected, "{name}: recovery");
        assert_eq!(rows[2][3..7], [0; 4], "{name}: recovery persists nothing");
    }
}
