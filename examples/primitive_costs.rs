//! Host cost of each `NodeHandle` primitive, one thread, fixed
//! iteration counts: the per-primitive figure the benchmark's mixed
//! workloads cannot resolve.
//!
//! Every row times the same primitive on the same fabric state in nine
//! rounds and prints the median ns per call beside the quartiles of the
//! rounds. Flushes are timed on lines the issuer just dirtied (their
//! locked path); the stores that dirty them run outside the clock.
//! `aflush` times the buffer enqueue alone: a barrier drains the buffer
//! untimed between batches. `barrier (8 lines)` times one barrier over
//! eight lines the issuer just dirtied and `aflush`ed, untimed.
//!
//! Two more rows time the fixed costs a recovery pays whatever the
//! crash left: `stats snapshot` (one `Stats::snapshot`, which a session
//! open takes) and `crash + recover (idle)` (a crash and recovery of one
//! machine of an untouched fabric: the gate halt, the drain of the
//! leased stats rails and the reopen).
//!
//! Run with: `cargo run --release --example primitive_costs`

use std::hint::black_box;
use std::time::Instant;

use cxl0::model::{Loc, MachineId, StoreKind, SystemConfig};
use cxl0::runtime::{NodeHandle, SimFabric};

/// Rounds per primitive; the table reports their median and quartiles.
const ROUNDS: usize = 9;
/// Calls timed per round.
const CALLS: u32 = 40_960;
/// Distinct cells a round cycles through (so flushes find dirty lines).
const CELLS: u32 = 256;

/// Lines each timed barrier retires.
const BARRIER_LINES: u32 = 8;

/// Times `CALLS` calls of `op(i)` in batches of `CELLS`, running
/// `prepare(i)` untimed for each cell before its batch; ns per call.
fn time(prepare: &mut dyn FnMut(u32), op: &mut dyn FnMut(u32)) -> f64 {
    time_batches(CELLS, prepare, op)
}

/// [`time`] in batches of `batch` calls.
fn time_batches(batch: u32, prepare: &mut dyn FnMut(u32), op: &mut dyn FnMut(u32)) -> f64 {
    let mut ns = 0u128;
    for _ in 0..CALLS / batch {
        for i in 0..batch {
            prepare(i);
        }
        let t = Instant::now();
        for i in 0..batch {
            op(i);
        }
        ns += t.elapsed().as_nanos();
    }
    ns as f64 / f64::from(CALLS)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t0 = Instant::now();
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 8 * CELLS));
    let node: NodeHandle = fabric.node(MachineId(0));
    // Block `b` of machine 1's cells: remote lines, one block per row.
    let at = |b: u32| move |i: u32| Loc::new(MachineId(1), b * CELLS + i);
    let (mem, hit, st, fl, rmw, af) = (at(0), at(1), at(2), at(3), at(4), at(5));
    for i in 0..CELLS {
        node.mstore(mem(i), 1)?;
        node.lstore(hit(i), 2)?;
        node.mstore(rmw(i), 0)?;
    }
    fn ok<T>(r: Result<T, cxl0::runtime::Crashed>) -> T {
        r.expect("no machine crashes")
    }
    fn none(_: u32) {}
    let mut shadow = [0u64; CELLS as usize];
    let idle = SimFabric::new(SystemConfig::symmetric_nvm(2, 1));
    type Row<'a> = (&'a str, Box<dyn FnMut() -> f64 + 'a>);
    let mut rows: Vec<Row<'_>> = vec![
        (
            "load (memory)",
            Box::new(|| {
                time(&mut none, &mut |i| {
                    black_box(ok(node.load(mem(i))));
                })
            }),
        ),
        (
            "load (own-cache hit)",
            Box::new(|| {
                time(&mut none, &mut |i| {
                    black_box(ok(node.load(hit(i))));
                })
            }),
        ),
        (
            "lstore",
            Box::new(|| time(&mut none, &mut |i| ok(node.lstore(st(i), 3)))),
        ),
        (
            "rstore",
            Box::new(|| time(&mut none, &mut |i| ok(node.rstore(st(i), 4)))),
        ),
        (
            "mstore",
            Box::new(|| time(&mut none, &mut |i| ok(node.mstore(st(i), 5)))),
        ),
        (
            "lflush (dirty)",
            Box::new(|| {
                time(&mut |i| ok(node.lstore(fl(i), 6)), &mut |i| {
                    ok(node.lflush(fl(i)))
                })
            }),
        ),
        (
            "rflush (dirty)",
            Box::new(|| {
                time(&mut |i| ok(node.lstore(fl(i), 7)), &mut |i| {
                    ok(node.rflush(fl(i)))
                })
            }),
        ),
        (
            "cas (hit)",
            Box::new(|| {
                time(&mut none, &mut |i| {
                    let v = shadow[i as usize];
                    let won = ok(node.cas(StoreKind::Local, rmw(i), v, v + 1));
                    assert_eq!(won, Ok(v));
                    shadow[i as usize] = v + 1;
                })
            }),
        ),
        (
            "cas (miss)",
            Box::new(|| {
                time(&mut none, &mut |i| {
                    let lost = ok(node.cas(StoreKind::Local, rmw(i), u64::MAX, 0));
                    assert!(lost.is_err());
                })
            }),
        ),
        (
            "faa",
            Box::new(|| {
                time(&mut none, &mut |i| {
                    black_box(ok(node.faa(StoreKind::Local, rmw(i), 1)));
                })
            }),
        ),
        (
            "aflush",
            Box::new(|| {
                let drain = &mut |i| {
                    if i == 0 {
                        ok(node.barrier());
                    }
                };
                let ns = time(drain, &mut |i| ok(node.aflush(af(i))));
                ok(node.barrier());
                ns
            }),
        ),
        (
            "barrier (8 lines)",
            Box::new(|| {
                let dirty = &mut |_| {
                    for i in 0..BARRIER_LINES {
                        ok(node.lstore(af(i), 8));
                        ok(node.aflush(af(i)));
                    }
                };
                time_batches(1, dirty, &mut |_| {
                    assert_eq!(ok(node.barrier()), BARRIER_LINES as usize);
                })
            }),
        ),
        (
            "stats snapshot",
            Box::new(|| {
                time(&mut none, &mut |_| {
                    black_box(fabric.stats().snapshot());
                })
            }),
        ),
        (
            "crash + recover (idle)",
            Box::new(|| {
                time(&mut none, &mut |_| {
                    idle.crash(MachineId(1));
                    idle.recover(MachineId(1));
                })
            }),
        ),
    ];
    println!("{:<22} {:>9} {:>9} {:>9}", "primitive", "ns/op", "q1", "q3");
    for (name, row) in &mut rows {
        let mut ns: Vec<f64> = (0..ROUNDS).map(|_| row()).collect();
        ns.sort_by(f64::total_cmp);
        let (q1, med, q3) = (ns[ROUNDS / 4], ns[ROUNDS / 2], ns[3 * ROUNDS / 4]);
        println!("{name:<22} {med:>9.1} {q1:>9.1} {q3:>9.1}");
    }
    println!(
        "({ROUNDS} rounds of {CALLS} calls each; {:.2} s in all)",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
