//! Golden oracle for the allocator's **persist protocol**.
//!
//! For each of the seven [`PersistMode`]s: the exact per-class primitive
//! counts and simulated nanoseconds of one bump `alloc`, one `free` into
//! the thread's magazine and the `alloc` that takes the block back, one
//! `free` past a full magazine and one `alloc` from the free list with
//! an empty magazine, `free_chain` of 1, 2 and 8 blocks, and an SMR
//! drain of a ripe 8-block bag and the `alloc` after it, issued from a
//! compute node against the memory node's allocator. After each phase
//! `Stats::snapshot()` is compared against [`GOLDEN`]. The test thread's
//! slot is below 8, so it has a magazine.
//!
//! What the table pins (read it off the `flit-cxl0` rows): a `free` into
//! the magazine is header load → intent → claim-and-link CAS — **2
//! flushes** — and the `alloc` that takes it back is the header mark
//! alone — **1 flush, no load**. On the shared list a free-list `alloc`
//! is intent → head CAS → header mark, a `free` is intent →
//! claim-and-link CAS → head CAS — **3 flushes each**, the intent clear
//! an unflushed `LStore` — and a chain of `k` blocks is `k + 2` flushes
//! (one intent, `k` claims, one head CAS), a `free` past a full magazine
//! being the chain of one. A ripe bag of 8 drained by the cluster's
//! `SmrDomain` is spliced into the empty magazine — **no load** (limbo
//! keeps each block's incarnation, read when it was retired), one
//! intent, 8 claim-and-link CASes: `k + 1` = **9 flushes**, where the
//! chain of 8 takes 10 — and the `alloc` after it takes a spliced block
//! back with **1 flush** instead of the list pop's 3.
//! `tests/flit_policy_golden.rs` pins what each `Persistence` call
//! costs per mode; this file pins which calls the allocator makes.

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::StatsSnapshot;

/// `[loads, lstores, rstores, mstores, lflushes, rflushes, rmws,
/// aflushes, barriers, sim_ns]` of one phase.
type Row = [u64; 10];

const PHASES: [&str; 10] = [
    "bump alloc",
    "free",
    "free-list alloc",
    "free with a full magazine",
    "alloc with an empty magazine",
    "free_chain of 1",
    "free_chain of 2",
    "free_chain of 8",
    "SMR drain of a ripe 8-block bag",
    "alloc after the drain",
];

/// One row per phase of [`PHASES`], per mode, in `modes()` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [Row; 10]); 7] = [
    ("none", [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 270], // bump alloc
        [1, 1, 0, 0, 0, 0, 1, 0, 0, 312], // free
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 12], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free with a full magazine
        [2, 3, 0, 0, 0, 0, 1, 0, 0, 594], // alloc with an empty magazine
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 0, 0, 924], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 0, 0, 2724], // free_chain of 8
        [0, 1, 0, 0, 0, 0, 8, 0, 0, 348], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 12], // alloc after the drain
    ]),
    ("flit-x86", [
        [1, 1, 0, 0, 1, 0, 0, 0, 0, 330], // bump alloc
        [1, 1, 0, 0, 2, 0, 1, 0, 0, 432], // free
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 72], // free-list alloc
        [2, 2, 0, 0, 3, 0, 2, 0, 0, 804], // free with a full magazine
        [2, 3, 0, 0, 3, 0, 1, 0, 0, 774], // alloc with an empty magazine
        [2, 2, 0, 0, 3, 0, 2, 0, 0, 804], // free_chain of 1
        [3, 2, 0, 0, 4, 0, 3, 0, 0, 1164], // free_chain of 2
        [9, 2, 0, 0, 10, 0, 9, 0, 0, 3324], // free_chain of 8
        [0, 1, 0, 0, 9, 0, 8, 0, 0, 888], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 72], // alloc after the drain
    ]),
    ("flit-cxl0", [
        [1, 1, 0, 0, 0, 1, 0, 0, 0, 665], // bump alloc
        [1, 1, 0, 0, 0, 2, 1, 0, 0, 1102], // free
        [0, 1, 0, 0, 0, 1, 0, 0, 0, 407], // free-list alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free with a full magazine
        [2, 3, 0, 0, 0, 3, 1, 0, 0, 1779], // alloc with an empty magazine
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free_chain of 1
        [3, 2, 0, 0, 0, 4, 3, 0, 0, 2504], // free_chain of 2
        [9, 2, 0, 0, 0, 10, 9, 0, 0, 6674], // free_chain of 8
        [0, 1, 0, 0, 0, 9, 8, 0, 0, 3903], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 0, 1, 0, 0, 0, 407], // alloc after the drain
    ]),
    ("flit-owner-opt", [
        [1, 1, 0, 0, 0, 1, 0, 0, 0, 665], // bump alloc
        [1, 1, 0, 0, 0, 2, 1, 0, 0, 1102], // free
        [0, 1, 0, 0, 0, 1, 0, 0, 0, 407], // free-list alloc
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free with a full magazine
        [2, 3, 0, 0, 0, 3, 1, 0, 0, 1779], // alloc with an empty magazine
        [2, 2, 0, 0, 0, 3, 2, 0, 0, 1809], // free_chain of 1
        [3, 2, 0, 0, 0, 4, 3, 0, 0, 2504], // free_chain of 2
        [9, 2, 0, 0, 0, 10, 9, 0, 0, 6674], // free_chain of 8
        [0, 1, 0, 0, 0, 9, 8, 0, 0, 3903], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 0, 1, 0, 0, 0, 407], // alloc after the drain
    ]),
    ("flit-async", [
        [1, 1, 0, 0, 0, 0, 0, 1, 2, 733], // bump alloc
        [1, 1, 0, 0, 0, 0, 1, 2, 4, 1238], // free
        [0, 1, 0, 0, 0, 0, 0, 1, 2, 475], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 3, 6, 2013], // free with a full magazine
        [2, 3, 0, 0, 0, 0, 1, 3, 5, 1953], // alloc with an empty magazine
        [2, 2, 0, 0, 0, 0, 2, 3, 6, 2013], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 4, 8, 2776], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 10, 20, 7354], // free_chain of 8
        [0, 1, 0, 0, 0, 0, 8, 9, 18, 4515], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 0, 0, 0, 1, 2, 475], // alloc after the drain
    ]),
    ("naive-mstore", [
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 658], // bump alloc
        [1, 0, 0, 1, 0, 0, 1, 0, 0, 1088], // free
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 400], // free-list alloc
        [2, 1, 0, 1, 0, 0, 2, 0, 0, 1788], // free with a full magazine
        [2, 1, 0, 2, 0, 0, 1, 0, 0, 1758], // alloc with an empty magazine
        [2, 1, 0, 1, 0, 0, 2, 0, 0, 1788], // free_chain of 1
        [3, 1, 0, 1, 0, 0, 3, 0, 0, 2476], // free_chain of 2
        [9, 1, 0, 1, 0, 0, 9, 0, 0, 6604], // free_chain of 8
        [0, 0, 0, 1, 0, 0, 8, 0, 0, 3840], // SMR drain of a ripe 8-block bag
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 400], // alloc after the drain
    ]),
    ("buffered", [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 270], // bump alloc
        [1, 1, 0, 0, 0, 0, 1, 0, 0, 312], // free
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 12], // free-list alloc
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free with a full magazine
        [2, 3, 0, 0, 0, 0, 1, 0, 0, 594], // alloc with an empty magazine
        [2, 2, 0, 0, 0, 0, 2, 0, 0, 624], // free_chain of 1
        [3, 2, 0, 0, 0, 0, 3, 0, 0, 924], // free_chain of 2
        [9, 2, 0, 0, 0, 0, 9, 0, 0, 2724], // free_chain of 8
        [0, 1, 0, 0, 0, 0, 8, 0, 0, 348], // SMR drain of a ripe 8-block bag
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 12], // alloc after the drain
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

/// Runs the ten phases on a fresh cluster under `mode`; the
/// allocations and frees that set a phase up are not part of its row.
fn measure(mode: PersistMode) -> [Row; 10] {
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
    // Fill the magazine (depth 8); the next free goes to the list.
    for b in fresh(8) {
        alloc.free(&s, b).unwrap().unwrap();
    }
    phase(3, &|| alloc.free(&s, again.loc).unwrap().unwrap());
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap(), vec![again.loc]);
    // Empty it; the next alloc pops the list.
    fresh(8);
    phase(4, &|| block.set(alloc.alloc(&s, 2).unwrap()));
    assert_eq!(block.get().expect("the listed block").loc, again.loc);
    for (i, k) in [(5, 1), (6, 2), (7, 8)] {
        let chain = fresh(k);
        phase(i, &|| assert_eq!(alloc.free_chain(&s, &chain).unwrap(), k));
    }
    // Retire 8 blocks under a pin that keeps their bag unripe, unpin,
    // and let the collect splice the ripe bag into the empty magazine.
    let bag = fresh(8);
    {
        let guard = s.smr().pin();
        for &b in &bag {
            guard.retire(&s, b).unwrap();
        }
    }
    phase(8, &|| assert_eq!(s.smr().collect(&s).unwrap(), 8));
    let parked: Vec<Loc> = bag.iter().rev().copied().collect();
    assert_eq!(
        alloc.debug_parked(),
        parked,
        "spliced whole, first block newest"
    );
    phase(9, &|| block.set(alloc.alloc(&s, 2).unwrap()));
    assert_eq!(block.get().expect("a spliced block").loc, bag[7]);
    rows
}

/// The measured table in `GOLDEN`'s source form, for regeneration.
fn render(table: &[(&'static str, [Row; 10])]) -> String {
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
    let measured: Vec<(&'static str, [Row; 10])> = modes()
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
        assert_eq!(
            rows[3], rows[5],
            "{name}: free past a full magazine != free_chain of 1"
        );
        // Zero under the modes that never flush.
        let per_persist = flushes(&rows[3]) / 3;
        for (r, k) in [(&rows[5], 1), (&rows[6], 2), (&rows[7], 8)] {
            assert_eq!(flushes(r), per_persist * (k + 2), "{name}: chain of {k}");
        }
        // The magazine: a push is two persists, a pop one.
        assert_eq!(flushes(&rows[1]), per_persist * 2, "{name}: parking free");
        assert_eq!(flushes(&rows[2]), per_persist, "{name}: magazine alloc");
        // A drain splices its bag of 8 in k + 1 persists; the alloc after
        // it is the magazine pop.
        assert_eq!(flushes(&rows[8]), per_persist * (8 + 1), "{name}: drain");
        assert_eq!(rows[8][0], 0, "{name}: the drain loads no header");
        assert_eq!(rows[9], rows[2], "{name}: alloc after the drain");
    }
    let (_, cxl0) = GOLDEN[2];
    assert_eq!(flushes(&cxl0[3]), 3, "flit-cxl0 list free: 3 flushes");
    assert_eq!(flushes(&cxl0[4]), 3, "flit-cxl0 free-list alloc: 3 flushes");
    assert_eq!(
        cxl0[3][..9].iter().sum::<u64>(),
        9,
        "list free: 9 primitives"
    );
    assert_eq!(
        cxl0[4][..9].iter().sum::<u64>(),
        9,
        "list alloc: 9 primitives"
    );
    assert_eq!(
        cxl0[1][..9].iter().sum::<u64>(),
        5,
        "parking free: 5 primitives"
    );
    assert_eq!(
        cxl0[2][..9].iter().sum::<u64>(),
        2,
        "magazine alloc: 2 primitives"
    );
    assert_eq!(cxl0[2][0], 0, "magazine alloc: no load");
}
