//! Golden oracle for the allocator's **persist protocol**.
//!
//! For each of the seven [`PersistMode`]s: the exact per-class primitive
//! counts and simulated nanoseconds of one bump `alloc`, one `free`, one
//! free-list `alloc`, and `free_chain` of 1, 2 and 8 blocks, issued from
//! a compute node against the memory node's allocator. After each phase
//! `Stats::snapshot()` is compared against [`GOLDEN`].
//!
//! What the table pins (read it off the `flit-cxl0` rows): a free-list
//! `alloc` is intent → head CAS → header mark, a `free` is intent →
//! claim-and-link CAS → head CAS — **3 flushes each**, the intent clear
//! an unflushed `LStore` — and a chain of `k` blocks is `k + 2` flushes
//! (one intent, `k` claims, one head CAS), `free` being the chain of
//! one. `tests/flit_policy_golden.rs` pins
//! what each `Persistence` call costs per mode; this file pins which
//! calls the allocator makes.

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::StatsSnapshot;

/// `[loads, lstores, rstores, mstores, lflushes, rflushes, rmws,
/// aflushes, barriers, sim_ns]` of one phase.
type Row = [u64; 10];

const PHASES: [&str; 6] = [
    "bump alloc",
    "free",
    "free-list alloc",
    "free_chain of 1",
    "free_chain of 2",
    "free_chain of 8",
];

/// One row per phase of [`PHASES`], per mode, in `modes()` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [Row; 6]); 7] = [
    ("none", [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 270], // bump alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free
        [2, 3, 0, 0, 0, 0, 1, 0, 0, 594], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 0, 0, 924], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 0, 0, 2724], // free_chain of 8
    ]),
    ("flit-x86", [
        [1, 1, 0, 0, 1, 0, 0, 0, 0, 330], // bump alloc
        [2, 2, 0, 0, 3, 0, 2, 0, 0, 804], // free
        [2, 3, 0, 0, 3, 0, 1, 0, 0, 774], // free-list alloc
        [2, 2, 0, 0, 3, 0, 2, 0, 0, 804], // free_chain of 1
        [3, 2, 0, 0, 4, 0, 3, 0, 0, 1164], // free_chain of 2
        [9, 2, 0, 0, 10, 0, 9, 0, 0, 3324], // free_chain of 8
    ]),
    ("flit-cxl0", [
        [1, 1, 0, 0, 0, 1, 0, 0, 0, 665], // bump alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free
        [2, 3, 0, 0, 0, 3, 1, 0, 0, 1779], // free-list alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free_chain of 1
        [3, 2, 0, 0, 0, 4, 3, 0, 0, 2504], // free_chain of 2
        [9, 2, 0, 0, 0, 10, 9, 0, 0, 6674], // free_chain of 8
    ]),
    ("flit-owner-opt", [
        [1, 1, 0, 0, 0, 1, 0, 0, 0, 665], // bump alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free
        [2, 3, 0, 0, 0, 3, 1, 0, 0, 1779], // free-list alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free_chain of 1
        [3, 2, 0, 0, 0, 4, 3, 0, 0, 2504], // free_chain of 2
        [9, 2, 0, 0, 0, 10, 9, 0, 0, 6674], // free_chain of 8
    ]),
    ("flit-async", [
        [1, 1, 0, 0, 0, 0, 0, 1, 2, 733], // bump alloc
        [2, 2, 0, 0, 0, 0, 2, 3, 6, 2013], // free
        [2, 3, 0, 0, 0, 0, 1, 3, 5, 1953], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 3, 6, 2013], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 4, 8, 2776], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 10, 20, 7354], // free_chain of 8
    ]),
    ("naive-mstore", [
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 658], // bump alloc
        [2, 1, 0, 1, 0, 0, 2, 0, 0, 1788], // free
        [2, 1, 0, 2, 0, 0, 1, 0, 0, 1758], // free-list alloc
        [2, 1, 0, 1, 0, 0, 2, 0, 0, 1788], // free_chain of 1
        [3, 1, 0, 1, 0, 0, 3, 0, 0, 2476], // free_chain of 2
        [9, 1, 0, 1, 0, 0, 9, 0, 0, 6604], // free_chain of 8
    ]),
    ("buffered", [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 270], // bump alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free
        [2, 3, 0, 0, 0, 0, 1, 0, 0, 594], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 0, 0, 924], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 0, 0, 2724], // free_chain of 8
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

/// Runs the six phases on a fresh cluster under `mode`; the allocations
/// that set a phase up are not part of its row.
fn measure(mode: PersistMode) -> [Row; 6] {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(mode)
        .root_capacity(0)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    let alloc = s.allocator();
    let stats = cluster.fabric().stats();
    let fresh = |n: usize| -> Vec<Loc> {
        (0..n)
            .map(|_| alloc.alloc(&s, 2).unwrap().expect("heap fits").loc)
            .collect()
    };

    let mut rows = [[0; 10]; PHASES.len()];
    let mut phase = |i: usize, run: &dyn Fn()| {
        let before = stats.snapshot();
        run();
        rows[i] = row(&stats.snapshot().since(&before));
    };
    let block = std::cell::Cell::new(None);
    phase(0, &|| block.set(alloc.alloc(&s, 2).unwrap()));
    let first = block.get().expect("heap fits");
    assert!(!first.recycled);
    phase(1, &|| alloc.free(&s, first.loc).unwrap().unwrap());
    phase(2, &|| block.set(alloc.alloc(&s, 2).unwrap()));
    let again = block.get().expect("the freed block");
    assert!(again.recycled && again.loc == first.loc);
    for (i, k) in [(3, 1), (4, 2), (5, 8)] {
        let chain = fresh(k);
        phase(i, &|| assert_eq!(alloc.free_chain(&s, &chain).unwrap(), k));
    }
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
fn every_mode_runs_the_golden_allocator_protocol() {
    let measured: Vec<(&'static str, [Row; 6])> = modes()
        .into_iter()
        .map(|mode| (mode.name(), measure(mode)))
        .collect();
    assert!(
        measured[..] == GOLDEN[..],
        "the allocator's persist protocol moved; measured table:\n{}",
        render(&measured)
    );
}

#[test]
fn free_is_the_chain_of_one_and_a_chain_of_k_flushes_k_plus_2() {
    // Read off the table, so the claim cannot drift from the pinned rows.
    let flushes = |r: &Row| r[4] + r[5] + r[7];
    for (name, rows) in &GOLDEN {
        assert_eq!(rows[1], rows[3], "{name}: free != free_chain of 1");
        // Zero under the modes that never flush.
        let per_persist = flushes(&rows[1]) / 3;
        for (r, k) in [(&rows[3], 1), (&rows[4], 2), (&rows[5], 8)] {
            assert_eq!(flushes(r), per_persist * (k + 2), "{name}: chain of {k}");
        }
    }
    let (_, cxl0) = GOLDEN[2];
    assert_eq!(flushes(&cxl0[1]), 3, "flit-cxl0 free: 3 flushes");
    assert_eq!(flushes(&cxl0[2]), 3, "flit-cxl0 free-list alloc: 3 flushes");
    assert_eq!(cxl0[1][..9].iter().sum::<u64>(), 9, "free: 9 primitives");
    assert_eq!(cxl0[2][..9].iter().sum::<u64>(), 9, "alloc: 9 primitives");
}
