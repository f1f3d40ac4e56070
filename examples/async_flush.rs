//! The `CXL0_AF` asynchronous-flush extension, end to end.
//!
//! The paper (§3.2, *Limitations of CXL*) observes that CXL only specifies
//! *synchronous* flushes and sketches how asynchronous ones — x86's
//! `CLFLUSHOPT` + `SFENCE` pattern — could be added via persistency
//! buffers. This example walks that extension through all three layers of
//! the reproduction:
//!
//! 1. the **formal model** (`AFlush`/`Barrier` labels, retirement steps),
//! 2. the **litmus suite** (`A1`–`A8`) and the `AFlush;Barrier ≡ RFlush`
//!    equivalence,
//! 3. the **runtime** (`NodeHandle::aflush`/`barrier`) and the
//!    `flit-async` transformation's batching advantage.
//!
//! Run with: `cargo run --example async_flush`

use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode};
use cxl0::explore::paper_async::{async_flush_tests, check_aflush_barrier_equivalence};
use cxl0::model::asyncflush::{AsyncLabel, AsyncSemantics};
use cxl0::model::{Label, Loc, MachineId, SystemConfig, Val};
use cxl0::runtime::{Flit, FlitPolicy, Persistence};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m1 = MachineId(0);
    let m2 = MachineId(1);
    let x = Loc::new(m2, 0); // x lives on machine 2

    println!("=== Part 1: AFlush and Barrier in the abstract machine ===\n");
    let sem = AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 1));
    let mut st = sem.initial_state();

    st = sem.apply(&st, &Label::lstore(m1, x, Val(7)).into())?;
    println!("LStore(x,7): the store sits in m1's cache\n{st}\n");

    st = sem.apply(&st, &AsyncLabel::aflush(m1, x))?;
    println!("AFlush(x): a request enters m1's persistency buffer — non-blocking\n{st}\n");

    match sem.apply(&st, &AsyncLabel::barrier(m1)) {
        Err(e) => println!("Barrier now would block: {e}"),
        Ok(_) => unreachable!("the line has not drained yet"),
    }

    println!("\ndriving the silent steps (propagation, then retirement):");
    loop {
        let steps = sem.silent_steps(&st);
        let Some(step) = steps.first() else { break };
        println!("  {step}");
        st = sem.apply_silent(&st, step)?;
    }
    st = sem.apply(&st, &AsyncLabel::barrier(m1))?;
    println!(
        "Barrier succeeds; x is persistent: M(x) = {}\n",
        st.memory(x)
    );

    println!("=== Part 2: the A1–A8 litmus suite ===\n");
    for t in async_flush_tests() {
        let observed = t.run();
        println!(
            "{:<8} {} expected {} observed {} — {}",
            t.name,
            if observed == t.expected {
                "PASS"
            } else {
                "FAIL"
            },
            t.expected,
            observed,
            t.description
        );
    }
    match check_aflush_barrier_equivalence() {
        None => println!("\nAFlush;Barrier ≡ RFlush: verified over all reachable states"),
        Some(cex) => println!("\nequivalence COUNTEREXAMPLE:\n{cex}"),
    }

    println!("\n=== Part 3: deferred helping on the runtime ===\n");
    // An operation that reads 8 hot cells (in-flight writers keep their
    // FliT counters positive) and completes. Compare helped-read cost.
    const CELLS: usize = 8;
    const OPS: usize = 500;

    let run = |name: &str, p: Arc<dyn Persistence>, raise: &dyn Fn(Loc)| -> u64 {
        // The cluster supplies fabric + heap; the strategies under
        // comparison are concrete `Flit`s (the counter table is not on
        // the Persistence trait).
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 256))
            .persist(PersistMode::None)
            .root_capacity(0)
            .build()
            .unwrap();
        let cells: Vec<Loc> = (0..CELLS)
            .map(|_| cluster.heap().alloc(1).unwrap())
            .collect();
        for &c in &cells {
            raise(c);
        }
        let session = cluster.session(m1);
        for _ in 0..OPS {
            for &c in &cells {
                p.shared_load(session.node(), c, true).unwrap();
            }
            p.complete_op(session.node()).unwrap();
        }
        let ns = session.stats_delta().sim_ns / OPS as u64;
        println!("{name:<12} {ns:>8} simulated ns/op");
        ns
    };

    let sync = Arc::new(Flit::new(FlitPolicy::CXL0));
    let sync_ns = run("flit-cxl0", Arc::clone(&sync) as _, &|c| {
        sync.table().enter(c)
    });
    let asy = Arc::new(Flit::new(FlitPolicy::ASYNC));
    let async_ns = run("flit-async", Arc::clone(&asy) as _, &|c| {
        asy.table().enter(c)
    });
    println!(
        "\nbatching {CELLS} helping flushes under one Barrier: {:.2}x faster",
        sync_ns as f64 / async_ns as f64
    );
    Ok(())
}
